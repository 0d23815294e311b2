//! Per-address access histories: the state the happens-before detector
//! keeps between accesses, factored out so the sequential core and the
//! sharded/streaming workers (see [`sharded`](crate::sharded)) drive
//! identical machinery.
//!
//! For each address the table remembers an antichain of accesses not yet
//! ordered before a later write. Since PR 4 the representation is
//! **adaptive** (the FastTrack epoch insight, made lossless):
//!
//! * **Inline** — the overwhelmingly common case. The location holds at
//!   most one last-write [`Access`] and one read [`Access`] as plain
//!   scalars inside the hash-map entry: O(1) state, zero heap allocation,
//!   and the access check is a couple of integer compares.
//! * **Escalated** — the moment a *kept* concurrent pair appears (a write
//!   surviving a write, or a read surviving a read — exactly when the old
//!   vector representation would have held ≥ 2 entries of one kind), the
//!   location moves to a [`LocHistory`](crate::arena::LocHistory) slot in
//!   a per-frontier [`Arena`] and runs the original antichain algorithm
//!   verbatim. When an ordered write (or a compaction) shrinks both
//!   antichains back to ≤ 1 entry, the location de-escalates and the slot
//!   is recycled.
//! * **Same-epoch memo** — each access that fires no conflict leaves its
//!   [`MemoKey`] (thread + kind + site + clock generation) on the
//!   location; an exact repeat is a provable no-op and short-circuits
//!   before touching the history. A one-entry address cache additionally
//!   skips the hash probe for back-to-back same-address accesses.
//!
//! The escalation boundary is chosen so every path through
//! [`Frontier::access`] reports the same conflicts in the same order, and
//! leaves semantically identical state, as the old always-vector code —
//! race reports are byte-identical (property-tested in
//! `tests/epoch_equivalence.rs` against a reference implementation of the
//! old representation).

use literace_sim::{Pc, ThreadId};

use crate::arena::Arena;
pub(crate) use crate::epoch::Access;
use crate::epoch::{EpochStats, MemoKey};
use crate::fast_hash::FastMap;
use crate::vector_clock::VectorClock;

/// `Loc::slot` value meaning "inline, not escalated".
const INLINE: u32 = u32::MAX;

/// `Frontier::last_loc` value meaning "address cache empty".
const NO_LOC: u32 = u32::MAX;

/// One location's state: two inline epoch slots, the arena slot when
/// escalated, and the memo of the last zero-conflict access.
#[derive(Debug)]
struct Loc {
    /// Last write (`Access::none()` when absent or escalated).
    write: Access,
    /// Single remembered read (`Access::none()` when absent or escalated).
    read: Access,
    /// Arena index of the escalated history, or [`INLINE`].
    slot: u32,
    /// Key of the last access, when it fired no conflicts.
    memo: MemoKey,
}

impl Loc {
    fn new() -> Loc {
        Loc {
            write: Access::none(),
            read: Access::none(),
            slot: INLINE,
            memo: MemoKey::INVALID,
        }
    }
}

/// The per-address access-history table.
///
/// Location state lives in an index-based slab (`locs` + `free_locs`);
/// the hash map holds only `address → slab index`. Small map entries keep
/// probes cache-friendly, slab slots are recycled without freeing their
/// allocation, and — because slab indices are stable across map growth —
/// a one-entry address cache can resolve consecutive accesses to the same
/// address with no hash probe at all.
#[derive(Debug)]
pub(crate) struct Frontier {
    max_history: usize,
    /// `address → index into `locs``. Probed at most once per access, with
    /// the crate's fast hasher (see [`fast_hash`](crate::fast_hash)).
    index: FastMap<u64, u32>,
    /// Slab of location states; entries listed in `free_locs` are vacant.
    locs: Vec<Loc>,
    /// Recycled slab slots awaiting reuse.
    free_locs: Vec<u32>,
    /// Slot store for escalated (full-history) locations.
    arena: Arena,
    /// Address cache: the last resolved address and its slab index
    /// ([`NO_LOC`] when empty, e.g. right after a compaction).
    last_addr: u64,
    last_loc: u32,
    /// Local escalation/memo counters, flushed by
    /// [`flush_telemetry`](Frontier::flush_telemetry).
    stats: EpochStats,
}

impl Frontier {
    /// Creates a table bounding each location's remembered accesses (per
    /// kind) at `max_history`.
    pub fn new(max_history: usize) -> Frontier {
        Frontier {
            max_history,
            index: FastMap::default(),
            locs: Vec::new(),
            free_locs: Vec::new(),
            arena: Arena::default(),
            last_addr: 0,
            last_loc: NO_LOC,
            stats: EpochStats::default(),
        }
    }

    /// Scans and updates the history for one access, invoking `conflict`
    /// for every remembered access racing with it. Returns the number of
    /// remembered accesses scanned (the history length before this
    /// access; 0 on a memo hit), which telemetry aggregates into a
    /// scan-length histogram.
    ///
    /// `generation` is the accessing thread's clock generation: a counter
    /// the caller bumps whenever the thread's clock value may change.
    /// Equal `(tid, generation)` must imply equal clock value; bumping too
    /// often merely costs memo hits.
    ///
    /// Conflicts are reported in the sequential detector's canonical order:
    /// remembered writes first, then (for a write) remembered reads, each
    /// in history order. An access races with a remembered one iff it is
    /// by a different thread and not ordered after it (`clock.get(tid) <
    /// epoch`); a write additionally supersedes everything ordered before
    /// it, a read supersedes only reads ordered before it. The closure's
    /// second argument tells whether the remembered access was a write
    /// (provenance capture needs the access kinds; most callers ignore it).
    // Every argument is consumed on the hot path; bundling them into a
    // struct would only move the construction cost to the caller.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn access(
        &mut self,
        tid: ThreadId,
        pc: Pc,
        addr_raw: u64,
        is_write: bool,
        clock: &VectorClock,
        generation: u64,
        mut conflict: impl FnMut(Access, bool),
    ) -> usize {
        let key = MemoKey::new(tid, pc, is_write, generation);
        // Resolve the address to its slab slot — through the one-entry
        // address cache when this access repeats the previous address (no
        // hash probe at all), otherwise through the index map.
        let li = if addr_raw == self.last_addr && self.last_loc != NO_LOC {
            self.last_loc
        } else {
            let Frontier {
                index,
                locs,
                free_locs,
                ..
            } = self;
            let li = *index.entry(addr_raw).or_insert_with(|| match free_locs.pop() {
                Some(i) => {
                    locs[i as usize] = Loc::new();
                    i
                }
                None => {
                    locs.push(Loc::new());
                    (locs.len() - 1) as u32
                }
            });
            self.last_addr = addr_raw;
            self.last_loc = li;
            li
        };
        let Frontier {
            max_history,
            locs,
            arena,
            stats,
            ..
        } = self;
        let max_history = *max_history;
        let loc = &mut locs[li as usize];
        if key.is_valid() && loc.memo == key {
            stats.memo_hits += 1;
            return 0;
        }
        let current = Access {
            tid,
            epoch: clock.get(tid),
            pc,
        };
        debug_assert!(current.epoch > 0, "thread clocks start at 1");
        let mut fired = false;
        let mut conflict = |a: Access, was_write: bool| {
            fired = true;
            conflict(a, was_write);
        };
        let scanned = if loc.slot == INLINE {
            let scanned = usize::from(loc.write.present()) + usize::from(loc.read.present());
            if is_write {
                // Mirror of `writes.retain(..)`: at most one entry.
                let mut kept_w = Access::none();
                if loc.write.present() && clock.get(loc.write.tid) < loc.write.epoch {
                    if loc.write.tid != tid {
                        conflict(loc.write, true);
                    }
                    kept_w = loc.write;
                }
                // Mirror of `reads.retain(..)` on the write path.
                let mut kept_r = Access::none();
                if loc.read.present() && clock.get(loc.read.tid) < loc.read.epoch {
                    if loc.read.tid != tid {
                        conflict(loc.read, false);
                    }
                    kept_r = loc.read;
                }
                if kept_w.present() && max_history >= 2 {
                    // Two concurrent writes survive: the vector form would
                    // now hold [kept_w, current] — escalate.
                    let slot = arena.alloc();
                    let h = arena.get_mut(slot);
                    h.writes.push(kept_w);
                    h.writes.push(current);
                    if kept_r.present() {
                        h.reads.push(kept_r);
                    }
                    loc.write = Access::none();
                    loc.read = Access::none();
                    loc.slot = slot;
                    stats.escalations += 1;
                } else {
                    // cap() keeps the newest suffix: [current] unless the
                    // bound is 0, in which case everything drains.
                    loc.write = if max_history == 0 {
                        Access::none()
                    } else {
                        current
                    };
                    loc.read = kept_r;
                }
            } else {
                // A read never evicts writes; it only scans them. A stale
                // (ordered-before) write stays inline, as in the vector
                // form, until a write or a compaction removes it.
                if loc.write.present()
                    && loc.write.tid != tid
                    && clock.get(loc.write.tid) < loc.write.epoch
                {
                    conflict(loc.write, true);
                }
                // Mirror of `reads.retain(..)` on the read path (no
                // conflicts: read–read is never a race).
                let mut kept_r = Access::none();
                if loc.read.present() && clock.get(loc.read.tid) < loc.read.epoch {
                    kept_r = loc.read;
                }
                if kept_r.present() && max_history >= 2 {
                    // A concurrent read survives beside the new one: the
                    // location is read-shared — escalate.
                    let slot = arena.alloc();
                    let h = arena.get_mut(slot);
                    if loc.write.present() {
                        h.writes.push(loc.write);
                    }
                    h.reads.push(kept_r);
                    h.reads.push(current);
                    loc.write = Access::none();
                    loc.read = Access::none();
                    loc.slot = slot;
                    stats.escalations += 1;
                } else {
                    loc.read = if max_history == 0 {
                        Access::none()
                    } else {
                        current
                    };
                }
            }
            scanned
        } else {
            // Escalated: the original antichain algorithm, verbatim.
            let h = arena.get_mut(loc.slot);
            let scanned = h.writes.len() + h.reads.len();
            if is_write {
                h.writes.retain(|w| {
                    let keep = clock.get(w.tid) < w.epoch;
                    if keep && w.tid != tid {
                        conflict(*w, true);
                    }
                    keep
                });
                h.reads.retain(|r| {
                    let keep = clock.get(r.tid) < r.epoch;
                    if keep && r.tid != tid {
                        conflict(*r, false);
                    }
                    keep
                });
                h.writes.push(current);
                cap(&mut h.writes, max_history);
            } else {
                for w in &h.writes {
                    if w.tid != tid && clock.get(w.tid) < w.epoch {
                        conflict(*w, true);
                    }
                }
                h.reads.retain(|r| clock.get(r.tid) < r.epoch);
                h.reads.push(current);
                cap(&mut h.reads, max_history);
            }
            if h.writes.len() <= 1 && h.reads.len() <= 1 {
                // An ordered write superseded the antichain (or the cap
                // drained it): back to scalar epochs, recycle the slot.
                loc.write = h.writes.pop().unwrap_or_else(Access::none);
                loc.read = h.reads.pop().unwrap_or_else(Access::none);
                arena.free(loc.slot);
                loc.slot = INLINE;
                stats.deescalations += 1;
            }
            scanned
        };
        // `key` may itself be INVALID (oversized tid); either way a
        // conflict-firing access must clear the stale memo.
        loc.memo = if fired { MemoKey::INVALID } else { key };
        scanned
    }

    /// Reclaims accesses that can never race again: an access is dead once
    /// **every** clock in `live` already covers it (all future accesses
    /// inherit those clocks, so they would be ordered after it). Locations
    /// whose history empties are dropped entirely; escalated locations
    /// whose antichains shrink to ≤ 1 entry de-escalate.
    ///
    /// Returns the number of locations dropped.
    pub fn compact(&mut self, live: &[&VectorClock]) -> usize {
        let Frontier {
            index,
            locs,
            free_locs,
            arena,
            stats,
            ..
        } = self;
        let covered = |a: &Access| -> bool { live.iter().all(|c| c.get(a.tid) >= a.epoch) };
        let before = index.len();
        index.retain(|_, li| {
            let loc = &mut locs[*li as usize];
            // Removal changes what a repeated access would rebuild, so
            // every memo goes stale.
            loc.memo = MemoKey::INVALID;
            let keep = if loc.slot == INLINE {
                if loc.write.present() && covered(&loc.write) {
                    loc.write = Access::none();
                }
                if loc.read.present() && covered(&loc.read) {
                    loc.read = Access::none();
                }
                loc.write.present() || loc.read.present()
            } else {
                let h = arena.get_mut(loc.slot);
                h.reads.retain(|r| !covered(r));
                h.writes.retain(|w| !covered(w));
                if h.writes.len() <= 1 && h.reads.len() <= 1 {
                    loc.write = h.writes.pop().unwrap_or_else(Access::none);
                    loc.read = h.reads.pop().unwrap_or_else(Access::none);
                    arena.free(loc.slot);
                    loc.slot = INLINE;
                    stats.deescalations += 1;
                    loc.write.present() || loc.read.present()
                } else {
                    true
                }
            };
            if !keep {
                free_locs.push(*li);
            }
            keep
        });
        // Dropped locations invalidate the address cache (its slab slot may
        // have been recycled).
        self.last_loc = NO_LOC;
        before - index.len()
    }

    /// Serializes the table into canonical form: every tracked address
    /// with its remembered writes and reads, oldest first, sorted by
    /// address. Hash-map iteration order never leaks into the result, so
    /// equal frontier states produce equal snapshots.
    ///
    /// Only the semantically significant state is captured: the memo keys,
    /// address cache, and local counters are all re-derivable (a cleared
    /// memo merely costs one redundant — and provably conflict-free —
    /// history walk on the next access).
    pub fn snapshot(&self) -> Vec<(u64, Vec<Access>, Vec<Access>)> {
        let mut out: Vec<(u64, Vec<Access>, Vec<Access>)> = self
            .index
            .iter()
            .map(|(&addr, &li)| {
                let loc = &self.locs[li as usize];
                if loc.slot == INLINE {
                    let w: Vec<Access> = loc.write.present().then_some(loc.write).into_iter().collect();
                    let r: Vec<Access> = loc.read.present().then_some(loc.read).into_iter().collect();
                    (addr, w, r)
                } else {
                    let h = self.arena.get(loc.slot);
                    (addr, h.writes.clone(), h.reads.clone())
                }
            })
            .collect();
        out.sort_unstable_by_key(|&(addr, _, _)| addr);
        out
    }

    /// Rebuilds a table from a [`snapshot`](Frontier::snapshot). The
    /// inline-vs-escalated representation is rederived from the antichain
    /// sizes — the live invariant is that a location is escalated iff
    /// either antichain holds ≥ 2 entries (de-escalation is eager in both
    /// [`access`](Frontier::access) and [`compact`](Frontier::compact)) —
    /// so the restored table is semantically identical to the one
    /// snapshotted, and every path through it reports the same conflicts.
    pub fn restore(
        max_history: usize,
        locations: impl IntoIterator<Item = (u64, Vec<Access>, Vec<Access>)>,
    ) -> Frontier {
        let mut f = Frontier::new(max_history);
        for (addr, writes, reads) in locations {
            let li = f.locs.len() as u32;
            let mut loc = Loc::new();
            if writes.len() >= 2 || reads.len() >= 2 {
                let slot = f.arena.alloc();
                let h = f.arena.get_mut(slot);
                h.writes.extend(writes);
                h.reads.extend(reads);
                loc.slot = slot;
            } else {
                loc.write = writes.into_iter().next().unwrap_or_else(Access::none);
                loc.read = reads.into_iter().next().unwrap_or_else(Access::none);
            }
            f.locs.push(loc);
            f.index.insert(addr, li);
        }
        f
    }

    /// Number of addresses with live history state (memory footprint).
    pub fn tracked_locations(&self) -> usize {
        self.index.len()
    }

    /// Currently escalated (full-history) locations.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn escalated_locations(&self) -> usize {
        self.arena.live()
    }

    /// The frontier-local epoch counters accumulated so far.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn stats(&self) -> EpochStats {
        self.stats
    }

    /// Flushes the local epoch counters into the global registry (one
    /// batch per detection run — the hot path never touches the shared
    /// atomics) and resets them.
    pub fn flush_telemetry(&mut self) {
        if !literace_telemetry::enabled() {
            return;
        }
        let m = literace_telemetry::metrics();
        m.detector_epoch_escalations.add(self.stats.escalations);
        m.detector_epoch_deescalations.add(self.stats.deescalations);
        m.detector_epoch_memo_hits.add(self.stats.memo_hits);
        m.detector_epoch_resident_shared
            .record(self.arena.live_hwm() as u64);
        self.stats = EpochStats::default();
    }
}

fn cap(v: &mut Vec<Access>, max: usize) {
    if v.len() > max {
        let excess = v.len() - max;
        v.drain(0..excess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pc, t};

    /// A clock where thread `i` holds `values[i]`.
    fn clock(values: &[u64]) -> VectorClock {
        let mut c = VectorClock::new();
        for (i, &v) in values.iter().enumerate() {
            c.set(t(i), v);
        }
        c
    }

    fn no_conflict(a: Access, _w: bool) {
        panic!("unexpected conflict with t{} @ {}", a.tid.index(), a.epoch);
    }

    #[test]
    fn ordered_accesses_stay_inline() {
        let mut f = Frontier::new(128);
        // t0 writes, then t1 (ordered after t0) writes: supersession, no
        // escalation.
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict);
        f.access(t(1), pc(2), 7, true, &clock(&[1, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 0);
        assert_eq!(f.tracked_locations(), 1);
        assert_eq!(f.stats().escalations, 0);
    }

    #[test]
    fn concurrent_writes_escalate() {
        let mut f = Frontier::new(128);
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict);
        let mut conflicts = Vec::new();
        f.access(t(1), pc(2), 7, true, &clock(&[0, 1]), 0, |a, _| conflicts.push(a.tid));
        assert_eq!(conflicts, vec![t(0)]);
        assert_eq!(f.escalated_locations(), 1);
        assert_eq!(f.stats().escalations, 1);
    }

    #[test]
    fn read_shared_escalates_without_conflicts() {
        let mut f = Frontier::new(128);
        // Two concurrent reads: no race, but the read set is genuinely
        // concurrent, so the location escalates to keep both.
        f.access(t(0), pc(1), 7, false, &clock(&[1]), 0, no_conflict);
        f.access(t(1), pc(2), 7, false, &clock(&[0, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 1);
        assert_eq!(f.stats().escalations, 1);
        // A third concurrent read joins the escalated set and a later
        // concurrent write must race with all three.
        f.access(t(2), pc(3), 7, false, &clock(&[0, 0, 1]), 0, no_conflict);
        let mut conflicts = Vec::new();
        f.access(t(3), pc(4), 7, true, &clock(&[0, 0, 0, 1]), 0, |a, _| {
            conflicts.push(a.tid)
        });
        assert_eq!(conflicts, vec![t(0), t(1), t(2)]);
    }

    #[test]
    fn ordered_write_deescalates_and_recycles() {
        let mut f = Frontier::new(128);
        f.access(t(0), pc(1), 7, false, &clock(&[1]), 0, no_conflict);
        f.access(t(1), pc(2), 7, false, &clock(&[0, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 1);
        // A write ordered after both reads supersedes the whole set.
        f.access(t(2), pc(3), 7, true, &clock(&[1, 1, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 0);
        assert_eq!(f.stats().deescalations, 1);
        assert_eq!(f.tracked_locations(), 1);
        // And the next concurrent pair re-escalates onto the recycled slot.
        f.access(t(3), pc(4), 7, false, &clock(&[1, 1, 1, 1]), 0, no_conflict);
        f.access(t(4), pc(5), 7, false, &clock(&[1, 1, 1, 0, 1]), 1, no_conflict);
        assert_eq!(f.escalated_locations(), 1);
        assert_eq!(f.stats().escalations, 2);
    }

    #[test]
    fn same_epoch_repeats_hit_the_memo() {
        let mut f = Frontier::new(128);
        let c = clock(&[1]);
        for _ in 0..10 {
            f.access(t(0), pc(1), 7, true, &c, 0, no_conflict);
        }
        assert_eq!(f.stats().memo_hits, 9);
        // A different site misses, as does a bumped generation.
        f.access(t(0), pc(2), 7, true, &c, 0, no_conflict);
        assert_eq!(f.stats().memo_hits, 9);
        f.access(t(0), pc(2), 7, true, &clock(&[2]), 1, no_conflict);
        assert_eq!(f.stats().memo_hits, 9);
        f.access(t(0), pc(2), 7, true, &clock(&[2]), 1, no_conflict);
        assert_eq!(f.stats().memo_hits, 10);
    }

    #[test]
    fn memo_covers_alternating_addresses_via_location_entries() {
        let mut f = Frontier::new(128);
        let c = clock(&[1]);
        for _ in 0..5 {
            for addr in [7, 8, 9] {
                f.access(t(0), pc(addr as usize), addr, false, &c, 0, no_conflict);
            }
        }
        // First round populates, the remaining 4 rounds hit per-location.
        assert_eq!(f.stats().memo_hits, 12);
    }

    #[test]
    fn conflicting_access_never_memoizes() {
        let mut f = Frontier::new(128);
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict);
        let mut hits = 0;
        for _ in 0..3 {
            // Every repeat must re-fire the conflict (pair counts grow in
            // the real detector), so none may hit the memo.
            f.access(t(1), pc(2), 7, true, &clock(&[0, 1]), 0, |_, _| hits += 1);
        }
        assert_eq!(hits, 3);
        assert_eq!(f.stats().memo_hits, 0);
    }

    #[test]
    fn compact_invalidates_memo_and_deescalates() {
        let mut f = Frontier::new(128);
        f.access(t(0), pc(1), 7, false, &clock(&[1]), 0, no_conflict);
        f.access(t(1), pc(2), 7, false, &clock(&[0, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 1);
        // Both reads covered: everything reclaimed.
        let all = clock(&[2, 2]);
        let dropped = f.compact(&[&all]);
        assert_eq!(dropped, 1);
        assert_eq!(f.escalated_locations(), 0);
        assert_eq!(f.tracked_locations(), 0);
        // The memo from before the compaction must not fire.
        let mut conflicts = 0;
        f.access(t(1), pc(2), 7, false, &clock(&[0, 1]), 0, |_, _| conflicts += 1);
        assert_eq!(f.stats().memo_hits, 0);
        assert_eq!(conflicts, 0);
        assert_eq!(f.tracked_locations(), 1);
    }

    #[test]
    fn partial_compact_keeps_uncovered_entries() {
        let mut f = Frontier::new(128);
        f.access(t(0), pc(1), 7, false, &clock(&[1]), 0, no_conflict);
        f.access(t(1), pc(2), 7, false, &clock(&[0, 1]), 0, no_conflict);
        f.access(t(2), pc(3), 7, false, &clock(&[0, 0, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 1);
        // Only t0's read is covered: three reads shrink to two — still
        // escalated (a concurrent pair remains).
        let partial = clock(&[2, 0, 0]);
        assert_eq!(f.compact(&[&partial]), 0);
        assert_eq!(f.escalated_locations(), 1);
        // Covering all but one read de-escalates back to inline.
        let most = clock(&[2, 2, 0]);
        assert_eq!(f.compact(&[&most]), 0);
        assert_eq!(f.escalated_locations(), 0);
        assert_eq!(f.tracked_locations(), 1);
    }

    #[test]
    fn max_history_one_caps_without_escalating() {
        let mut f = Frontier::new(1);
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict);
        let mut conflicts = 0;
        // Concurrent write: conflict fires, but with a 1-entry bound the
        // old entry drains — no escalation, ever.
        f.access(t(1), pc(2), 7, true, &clock(&[0, 1]), 0, |_, _| conflicts += 1);
        assert_eq!(conflicts, 1);
        assert_eq!(f.escalated_locations(), 0);
    }

    #[test]
    fn max_history_zero_retains_nothing() {
        let mut f = Frontier::new(0);
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict);
        // Nothing was retained, so nothing conflicts.
        f.access(t(1), pc(2), 7, true, &clock(&[0, 1]), 0, no_conflict);
        assert_eq!(f.escalated_locations(), 0);
        // The (empty) location entry still exists until compaction, as in
        // the vector representation.
        assert_eq!(f.tracked_locations(), 1);
        assert_eq!(f.compact(&[]), 1);
        assert_eq!(f.tracked_locations(), 0);
    }

    #[test]
    fn snapshot_restore_round_trips_inline_and_escalated() {
        let mut f = Frontier::new(128);
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict); // inline write
        f.access(t(0), pc(2), 8, false, &clock(&[1]), 0, no_conflict); // inline read
        f.access(t(1), pc(3), 9, false, &clock(&[0, 1]), 0, no_conflict);
        f.access(t(2), pc(4), 9, false, &clock(&[0, 0, 1]), 0, no_conflict); // escalated
        let snap = f.snapshot();
        assert_eq!(snap.iter().map(|s| s.0).collect::<Vec<_>>(), vec![7, 8, 9]);
        let mut g = Frontier::restore(128, snap);
        assert_eq!(g.tracked_locations(), f.tracked_locations());
        assert_eq!(g.escalated_locations(), 1);
        // The restored table fires the same conflicts as the original.
        let probe = clock(&[0, 0, 0, 1]);
        let mut orig = Vec::new();
        f.access(t(3), pc(9), 9, true, &probe, 0, |a, w| orig.push((a.tid, a.epoch, w)));
        let mut restored = Vec::new();
        g.access(t(3), pc(9), 9, true, &probe, 0, |a, w| restored.push((a.tid, a.epoch, w)));
        assert_eq!(orig, restored);
        assert_eq!(orig.len(), 2);
    }

    #[test]
    fn snapshot_keeps_empty_locations_tracked() {
        // max_history 0 leaves empty location entries until compaction;
        // a snapshot/restore cycle must not silently drop them.
        let mut f = Frontier::new(0);
        f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict);
        assert_eq!(f.tracked_locations(), 1);
        let g = Frontier::restore(0, f.snapshot());
        assert_eq!(g.tracked_locations(), 1);
        assert_eq!(g.escalated_locations(), 0);
    }

    #[test]
    fn scanned_counts_match_history_sizes() {
        let mut f = Frontier::new(128);
        assert_eq!(f.access(t(0), pc(1), 7, true, &clock(&[1]), 0, no_conflict), 0);
        assert_eq!(
            f.access(t(0), pc(2), 7, false, &clock(&[1]), 1, no_conflict),
            1
        );
        // Memo miss (new generation) over write+read state scans 2.
        assert_eq!(
            f.access(t(0), pc(2), 7, false, &clock(&[2]), 2, no_conflict),
            2
        );
        // Exact repeat: memo hit scans nothing.
        assert_eq!(
            f.access(t(0), pc(2), 7, false, &clock(&[2]), 2, no_conflict),
            0
        );
    }
}
