//! Address sharding: how the sharded engine partitions accesses and
//! merges what its shards find.
//!
//! LiteRace logs are asymmetric: synchronization records are a tiny
//! fraction of the stream (the paper's whole premise — sync is never
//! sampled away, data accesses are), while memory-access records dominate.
//! The sharded engine ([`detect_stream_from`]) exploits that split. One
//! router replays the sync records, and `shard_of` routes each memory
//! access by address hash to exactly one of N shard workers, stamped with
//! the clock its thread held at that point. Since all accesses to a given address
//! land in one shard with the very clock values the sequential pass would
//! see, that shard's frontier for the address is bit-for-bit the
//! sequential frontier, and every dynamic race is detected in exactly one
//! shard. Compaction points, with the live-clock set at each, are
//! broadcast to every shard, so frontier reclamation — which interacts
//! with the history cap — happens at identical stream positions with
//! identical clock bounds.
//!
//! **Byte-identical merge.** Workers record every conflict uncapped, tagged
//! with the global record index at which it manifested. The merge sorts
//! each static pair's occurrences by that tag — recovering the sequential
//! per-pair detection order — then re-applies the sequential cap/overflow
//! accounting (stored occurrences are the first `max_dynamic_per_pair`,
//! the example address is the first stored one, distinct addresses count
//! stored occurrences only). The result is equal to the sequential
//! [`detect`](crate::detect) output on every input, which also means the
//! no-false-positive invariant carries over unchanged (property-tested in
//! `tests/sharded_equivalence.rs`).
//!
//! [`detect_sharded`] runs the engine over an in-memory [`EventLog`],
//! handed over as one borrowed block.

use literace_log::EventLog;
use literace_sim::{Addr, Pc};

use crate::checkpoint::Checkpoint;
use crate::fast_hash::{FastMap, FastSet};
use crate::frontier::Frontier;
use crate::hb::{HbConfig, PairSnapshot};
use crate::report::{RaceReport, StaticRace};
use crate::streaming::detect_stream_from;

/// Most shards the engine runs. Each shard is one OS thread holding up to
/// six 4096-event batches in flight (about 1 MB), so a larger
/// [`DetectConfig::threads`] is clamped to this. Reports do not depend on
/// the shard count, so the clamp is unobservable in the output.
pub(crate) const MAX_SHARDS: usize = 64;

/// Configuration for offline detection, sequential or sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectConfig {
    /// Worker threads. `0` and `1` both mean the sequential detector;
    /// `N ≥ 2` shards accesses across N workers, at most 64: each shard is
    /// an OS thread, so larger values run 64 shards (`MAX_SHARDS`).
    pub threads: usize,
    /// Happens-before core tuning, applied identically to every shard.
    pub hb: HbConfig,
}

impl Default for DetectConfig {
    fn default() -> DetectConfig {
        DetectConfig {
            threads: 1,
            hb: HbConfig::default(),
        }
    }
}

impl DetectConfig {
    /// A config running `threads` workers with default core tuning.
    pub fn with_threads(threads: usize) -> DetectConfig {
        DetectConfig {
            threads,
            ..DetectConfig::default()
        }
    }

    /// The number of shards the engine runs: `threads` clamped to
    /// `1..=MAX_SHARDS`.
    pub(crate) fn shards(&self) -> usize {
        self.threads.clamp(1, MAX_SHARDS)
    }
}

/// Routes an address to its owning shard. Multiplicative hash so that
/// structured address spaces (consecutive globals, page-aligned heap)
/// spread evenly rather than striping.
#[inline]
pub(crate) fn shard_of(addr: Addr, shards: usize) -> usize {
    let h = addr.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    // Multiply-shift range reduction (maps the 32-bit hash uniformly onto
    // `0..shards`): runs once per memory record, and a hardware divide
    // there is measurable, so avoid `%`.
    ((h * shards as u64) >> 32) as usize
}

/// Per-static-pair conflict occurrences found by one shard, each tagged
/// with the global record index and the racing address. Within one pair
/// the vector is position-sorted by construction (the shard replays its
/// stream in order).
pub(crate) type ShardPairs = FastMap<(Pc, Pc), Vec<(u64, Addr)>>;

/// Merges per-shard conflict maps into the final report. Occurrences of
/// one static pair may come from several shards (different addresses);
/// re-interleave each pair by global position, then apply the sequential
/// cap/overflow accounting (stored occurrences are the first `cap`, the
/// example address is the first stored one, distinct addresses count
/// stored occurrences only). A pair with nothing stored (cap 0) is
/// omitted, matching `HbCore::finish`, which is what makes the engine
/// byte-identical to the sequential detector.
///
/// With a non-empty `prefix` — a checkpoint's per-pair aggregates — the
/// accounting *continues* from the prefix instead of starting fresh:
/// every prefix occurrence globally precedes every shard occurrence (the
/// prefix is the log up to the checkpoint, the shards replayed its
/// suffix), so stored capacity left is `cap - stored`, the example
/// address is the prefix's when it stored anything, and distinct
/// addresses union the prefix's stored set with the newly stored
/// occurrences. Produces exactly the one-shot sequential report.
pub(crate) fn merge_pairs_seeded(
    prefix: &[((Pc, Pc), PairSnapshot)],
    shard_pairs: Vec<ShardPairs>,
    cap: usize,
    non_stack_accesses: u64,
) -> RaceReport {
    let mut by_pair = ShardPairs::default();
    for shard in shard_pairs {
        for (key, mut races) in shard {
            match by_pair.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(races);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().append(&mut races);
                }
            }
        }
    }
    let _span = literace_telemetry::metrics().phase_merge.span();
    literace_telemetry::trace_begin("merge");
    let mut dynamic_races = 0;
    let mut static_races: Vec<StaticRace> = Vec::with_capacity(by_pair.len() + prefix.len());
    let mut emit = |pcs: (Pc, Pc), snap: Option<&PairSnapshot>, mut races: Vec<(u64, Addr)>| {
        races.sort_unstable_by_key(|&(pos, _)| pos);
        let prior_stored = snap.map_or(0, |s| s.stored);
        let prior_overflow = snap.map_or(0, |s| s.overflow);
        let capacity_left = (cap as u64).saturating_sub(prior_stored) as usize;
        let extra_stored = races.len().min(capacity_left);
        if prior_stored == 0 && extra_stored == 0 {
            // Nothing stored even counting the prefix: the pair is omitted,
            // matching `HbCore::finish` (possible only when `cap` is 0).
            return;
        }
        let count = prior_stored + prior_overflow + races.len() as u64;
        dynamic_races += count;
        let mut addrs: FastSet<Addr> =
            snap.map_or_else(FastSet::default, |s| s.addrs.iter().copied().collect());
        addrs.extend(races[..extra_stored].iter().map(|&(_, a)| a));
        let example_addr = match snap {
            Some(s) if s.stored > 0 => s.example_addr,
            _ => races[0].1,
        };
        static_races.push(StaticRace {
            pcs,
            count,
            example_addr,
            distinct_addrs: addrs.len() as u64,
        });
    };
    for (pcs, snap) in prefix {
        let races = by_pair.remove(pcs).unwrap_or_default();
        emit(*pcs, Some(snap), races);
    }
    for (pcs, races) in by_pair {
        emit(pcs, None, races);
    }
    static_races.sort_by(|a, b| b.count.cmp(&a.count).then(a.pcs.cmp(&b.pcs)));
    if literace_telemetry::enabled() {
        let m = literace_telemetry::metrics();
        m.detector_races_static.add(static_races.len() as u64);
        m.detector_races_dynamic.add(dynamic_races);
    }
    literace_telemetry::trace_end("merge");
    RaceReport {
        static_races,
        dynamic_races,
        non_stack_accesses,
    }
}

/// Detects races with the configured number of worker threads, producing
/// a report byte-identical to the sequential [`detect`](crate::detect).
///
/// # Examples
///
/// ```
/// use literace_detector::{detect, detect_sharded, DetectConfig};
/// use literace_log::EventLog;
///
/// let log = EventLog::new();
/// let seq = detect(&log, 0);
/// let par = detect_sharded(&log, 0, &DetectConfig::with_threads(4));
/// assert_eq!(seq, par);
/// ```
pub fn detect_sharded(log: &EventLog, non_stack_accesses: u64, cfg: &DetectConfig) -> RaceReport {
    detect_stream_from([Ok(log.records())], non_stack_accesses, cfg, None)
        .expect("an in-memory block cannot fail to decode")
}

/// One frontier per shard: fresh for a clean run, or seeded with the
/// checkpoint locations the shard owns (the same `shard_of` routing that
/// partitions the access streams) for a resumed one.
pub(crate) fn shard_frontiers(
    shards: usize,
    max_history: usize,
    seed: Option<&Checkpoint>,
) -> Vec<Frontier> {
    match seed {
        None => (0..shards).map(|_| Frontier::new(max_history)).collect(),
        Some(cp) => (0..shards)
            .map(|shard| {
                Frontier::restore(
                    max_history,
                    cp.core
                        .locations
                        .iter()
                        .filter(|(addr, _, _)| shard_of(Addr(*addr), shards) == shard)
                        .cloned(),
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mem, sync, t};
    use crate::{detect, HbDetector};
    use literace_sim::SyncOpKind;

    /// A log exercising races on many addresses plus lock edges, so races
    /// land in several shards and some pairs are HB-ordered.
    fn mixed_log() -> EventLog {
        let mut records = Vec::new();
        for round in 0..50u64 {
            for addr in 0..16u64 {
                records.push(mem(t(0), 1 + addr as usize, addr, true));
                records.push(mem(t(1), 100 + addr as usize, addr, round % 3 == 0));
            }
            records.push(sync(t(0), SyncOpKind::LockRelease, 7, 2 * round + 1));
            records.push(sync(t(1), SyncOpKind::LockAcquire, 7, 2 * round + 2));
        }
        records.into_iter().collect()
    }

    #[test]
    fn empty_log_matches_sequential() {
        let log = EventLog::new();
        for threads in [2, 4, 8] {
            let cfg = DetectConfig::with_threads(threads);
            assert_eq!(detect_sharded(&log, 0, &cfg), detect(&log, 0));
        }
    }

    #[test]
    fn single_thread_config_is_sequential() {
        let log = mixed_log();
        let cfg = DetectConfig::with_threads(1);
        assert_eq!(detect_sharded(&log, 10, &cfg), detect(&log, 10));
    }

    #[test]
    fn mixed_log_is_byte_identical_across_thread_counts() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        assert!(seq.static_count() > 0, "log should race");
        // 70 000 exceeds MAX_SHARDS: clamped, not one OS thread each.
        for threads in [2, 3, 4, 8, 70_000] {
            let cfg = DetectConfig::with_threads(threads);
            assert_eq!(detect_sharded(&log, 1000, &cfg), seq, "threads={threads}");
        }
    }

    #[test]
    fn cap_and_overflow_match_sequential() {
        let log = mixed_log();
        let hb = HbConfig {
            max_dynamic_per_pair: 3,
            ..HbConfig::default()
        };
        let seq = {
            let mut d = HbDetector::with_config(hb);
            d.process_log(&log);
            d.finish(1000)
        };
        let cfg = DetectConfig { threads: 4, hb };
        assert_eq!(detect_sharded(&log, 1000, &cfg), seq);
    }

    #[test]
    fn zero_cap_omits_every_pair_like_sequential() {
        let log = mixed_log();
        let hb = HbConfig {
            max_dynamic_per_pair: 0,
            ..HbConfig::default()
        };
        let seq = {
            let mut d = HbDetector::with_config(hb);
            d.process_log(&log);
            d.finish(1000)
        };
        assert_eq!(seq.static_count(), 0);
        let cfg = DetectConfig { threads: 4, hb };
        assert_eq!(detect_sharded(&log, 1000, &cfg), seq);
    }

    #[test]
    fn resumed_sharded_detection_matches_one_shot() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        assert!(seq.static_count() > 0, "log should race");
        let records = log.records();
        for split in [0, 1, records.len() / 2, records.len()] {
            let mut first = HbDetector::new();
            for r in &records[..split] {
                first.process(r);
            }
            let cp = first.save_checkpoint(1000);
            for threads in [1, 2, 4, 8] {
                let cfg = DetectConfig::with_threads(threads);
                let suffix = [Ok(&records[split..])];
                assert_eq!(
                    detect_stream_from(suffix, 1000, &cfg, Some(&cp)).unwrap(),
                    seq,
                    "split={split} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn shard_routing_covers_all_shards() {
        let hits: std::collections::HashSet<usize> =
            (0..1000u64).map(|a| shard_of(Addr::global(a), 4)).collect();
        assert_eq!(hits.len(), 4);
    }
}
