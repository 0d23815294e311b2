//! Checkpointable detector state: sealed snapshots and byte-identical
//! resume.
//!
//! A million-user log does not fit one sitting: fleet-scale detection
//! needs to pause, snapshot, and resume instead of replaying from zero
//! (ROADMAP item 2). A [`Checkpoint`] captures the **full semantic state**
//! of a detector mid-stream — per-thread vector clocks with their
//! generation stamps and retirement flags, sync-variable clocks, the
//! adaptive epoch frontier (inline pairs *and* escalated arena
//! antichains), the per-pair race aggregates, the timestamp-order
//! monitor, and the suppression patterns in force — such that a detector
//! resumed from it and fed the remaining records produces a report
//! **byte-identical** to one-shot detection (`tests/checkpoint_equivalence.rs`
//! pins this at every block boundary, across the sequential, sharded, and
//! streaming paths).
//!
//! ## Wire format
//!
//! Checkpoints are serialized with the crate-shared varint machinery into
//! a sealed section container (see `literace_log::container`), inheriting
//! the v2 log's integrity discipline: every section is framed and
//! checksummed, the file ends in a sealing footer carrying a whole-file
//! running checksum, and the reader is strict — a torn, truncated, or
//! bit-flipped checkpoint is always classified with a typed
//! [`LogError`], never silently loaded.
//!
//! ```text
//! file     := magic(4: "LRCP") version(1: 0x01) section* footer
//! sections := meta(1) threads(2) syncvars(3) last_ts(4)
//!             locations(5) pairs(6) suppressions(7)   (in this order)
//! ```
//!
//! All maps are serialized in canonical (sorted) order and sorted runs
//! are delta-coded, so equal detector states produce equal bytes.
//!
//! ## What is *not* captured
//!
//! Telemetry counters, the same-epoch memo keys, and the address cache
//! are all re-derivable (dropping a memo costs one provably
//! conflict-free re-scan, never a report difference). Race-provenance
//! capture does not survive a checkpoint: a resumed detector reports the
//! same races but cannot attribute first occurrences that predate the
//! checkpoint, so [`HbDetector::resume`] always starts with provenance
//! off.

use std::path::Path;

use literace_log::{
    get_delta_slice, get_varint_slice, put_delta, put_varint, read_container, AtomicFile,
    ContainerWriter, LogError, LogResult,
};
use literace_sim::{Addr, Pc, SyncVar, ThreadId};

use crate::clocks::ThreadState;
use crate::epoch::check_thread_index;
use crate::fast_hash::FastSet;
use crate::frontier::Access;
use crate::hb::{HbConfig, HbDetector, Replay};
use crate::sharded::{merge, PairAgg, ShardState};

/// Magic bytes opening a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LRCP";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;

const SEC_META: u32 = 1;
const SEC_THREADS: u32 = 2;
const SEC_SYNCVARS: u32 = 3;
const SEC_LAST_TS: u32 = 4;
const SEC_LOCATIONS: u32 = 5;
const SEC_PAIRS: u32 = 6;
const SEC_SUPPRESS: u32 = 7;

/// A sealed, self-validating snapshot of full detector state.
///
/// Produced by [`HbDetector::save_checkpoint`] and, at any shard count,
/// by [`detect_stream_checkpointed`](crate::detect_stream_checkpointed);
/// consumed by [`HbDetector::resume`] and, at any shard count, by
/// [`detect_stream_from`](crate::detect_stream_from). All state is in
/// canonical (sorted) order, so equal detector states produce equal
/// checkpoints regardless of hash-map iteration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) cfg: HbConfig,
    pub(crate) records_processed: u64,
    pub(crate) records_since_compact: u64,
    pub(crate) timestamp_violations: u64,
    pub(crate) non_stack_accesses: u64,
    /// The §4.2 monitor's last timestamp per variable, sorted by variable.
    pub(crate) last_ts: Vec<(SyncVar, u64)>,
    /// Per-thread clocks, generations and retirement flags, by index.
    pub(crate) threads: Vec<ThreadState>,
    /// Sync-variable clocks, sorted by variable.
    pub(crate) syncvars: Vec<(SyncVar, Vec<u64>)>,
    /// Frontier state, sorted by address (see `Frontier::snapshot`).
    pub(crate) locations: Vec<(u64, Vec<Access>, Vec<Access>)>,
    /// Per-pair aggregates, sorted by the pc pair; every first position is
    /// 0, as the pairs precede every record resumed after them.
    pub(crate) pairs: Vec<((Pc, Pc), PairAgg)>,
    pub(crate) suppressions: Vec<String>,
}

impl HbDetector {
    /// Snapshots the detector's full state into a [`Checkpoint`]: the
    /// one-shard case of the assembly every seal point runs.
    ///
    /// `non_stack_accesses` is the rarity denominator accumulated so far
    /// (carried for the inspector and as a default for resumed runs; the
    /// resume drivers accept an explicit final value).
    pub fn save_checkpoint(&self, non_stack_accesses: u64) -> Checkpoint {
        Checkpoint::assemble(
            &self.replay,
            self.shard.cfg,
            vec![self.shard.state()],
            non_stack_accesses,
        )
    }
}

impl Checkpoint {
    /// The one checkpoint assembly, at any shard count: the replay stage's
    /// state plus every shard's sealed state. Shards own disjoint
    /// addresses, so their locations concatenate, sorted by address; their
    /// pairs fold through the one [`merge`], each first position zeroed
    /// because the pairs precede every record resumed after them. While no
    /// pair reaches `max_dynamic_per_pair` distinct addresses, the result
    /// does not depend on the shard count.
    pub(crate) fn assemble(
        replay: &Replay,
        cfg: HbConfig,
        shards: Vec<ShardState>,
        non_stack_accesses: u64,
    ) -> Checkpoint {
        let (threads, syncvars) = replay.clocks.snapshot();
        let mut last_ts: Vec<(SyncVar, u64)> =
            replay.last_ts.iter().map(|(&v, &t)| (v, t)).collect();
        last_ts.sort_unstable_by_key(|&(v, _)| v);
        let mut locations = Vec::new();
        let mut pair_maps = Vec::with_capacity(shards.len());
        for shard in shards {
            locations.extend(shard.locations);
            pair_maps.push(shard.pairs);
        }
        locations.sort_unstable_by_key(|&(addr, _, _)| addr);
        let mut pairs: Vec<((Pc, Pc), PairAgg)> = merge(pair_maps, cfg.max_dynamic_per_pair)
            .into_iter()
            .collect();
        pairs.sort_unstable_by_key(|&(pcs, _)| pcs);
        for (_, agg) in &mut pairs {
            agg.first_pos = 0;
        }
        Checkpoint {
            cfg,
            records_processed: replay.pos,
            records_since_compact: replay.since_compact,
            timestamp_violations: replay.timestamp_violations,
            non_stack_accesses,
            last_ts,
            threads,
            syncvars,
            locations,
            pairs,
            suppressions: Vec::new(),
        }
    }

    /// Attaches the suppression patterns in force, so an inspector (or a
    /// resumed CLI run) sees the same triage configuration.
    pub fn set_suppressions(&mut self, patterns: Vec<String>) {
        self.suppressions = patterns;
    }

    /// The detector configuration the checkpoint was taken under.
    pub fn config(&self) -> HbConfig {
        self.cfg
    }

    /// Records processed up to the checkpointed position.
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    /// The rarity denominator recorded at save time.
    pub fn non_stack_accesses(&self) -> u64 {
        self.non_stack_accesses
    }

    /// Timestamp-order violations observed before the checkpoint.
    pub fn timestamp_violations(&self) -> u64 {
        self.timestamp_violations
    }

    /// Threads materialized at the checkpoint.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Of those, threads that had already exited.
    pub fn retired_count(&self) -> usize {
        self.threads.iter().filter(|t| t.retired).count()
    }

    /// Sync variables with live clocks.
    pub fn syncvar_count(&self) -> usize {
        self.syncvars.len()
    }

    /// Addresses with live frontier history.
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// Of those, locations holding an escalated (full-history) antichain.
    pub fn escalated_count(&self) -> usize {
        self.locations
            .iter()
            .filter(|(_, w, r)| w.len() >= 2 || r.len() >= 2)
            .count()
    }

    /// Static race pairs accumulated so far.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Dynamic race occurrences accumulated so far.
    pub fn dynamic_races(&self) -> u64 {
        self.pairs.iter().map(|(_, p)| p.count).sum()
    }

    /// The suppression patterns attached to the checkpoint.
    pub fn suppressions(&self) -> &[String] {
        &self.suppressions
    }

    /// Serializes into a sealed container. Equal detector states produce
    /// equal bytes (all state is in canonical order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let t0 = literace_telemetry::enabled().then(std::time::Instant::now);
        let mut w = ContainerWriter::new(Vec::new(), CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
            .expect("writing to a Vec cannot fail");
        let mut buf = Vec::new();

        put_varint(&mut buf, self.cfg.max_history_per_location as u64);
        put_varint(&mut buf, self.cfg.max_dynamic_per_pair as u64);
        put_varint(&mut buf, self.records_processed);
        put_varint(&mut buf, self.records_since_compact);
        put_varint(&mut buf, self.timestamp_violations);
        put_varint(&mut buf, self.non_stack_accesses);
        w.section(SEC_META, 6, &buf).unwrap();

        buf.clear();
        for t in &self.threads {
            put_varint(&mut buf, t.clock_gen);
            put_varint(&mut buf, u64::from(t.retired));
            put_varint(&mut buf, t.components.len() as u64);
            for &c in &t.components {
                put_varint(&mut buf, c);
            }
        }
        w.section(SEC_THREADS, self.threads.len() as u32, &buf)
            .unwrap();

        buf.clear();
        let mut last_var = 0u64;
        for (var, components) in &self.syncvars {
            put_delta(&mut buf, last_var, var.0);
            last_var = var.0;
            put_varint(&mut buf, components.len() as u64);
            for &c in components {
                put_varint(&mut buf, c);
            }
        }
        w.section(SEC_SYNCVARS, self.syncvars.len() as u32, &buf)
            .unwrap();

        buf.clear();
        let mut last_var = 0u64;
        for &(var, ts) in &self.last_ts {
            put_delta(&mut buf, last_var, var.0);
            last_var = var.0;
            put_varint(&mut buf, ts);
        }
        w.section(SEC_LAST_TS, self.last_ts.len() as u32, &buf)
            .unwrap();

        buf.clear();
        let mut last_addr = 0u64;
        for (addr, writes, reads) in &self.locations {
            put_delta(&mut buf, last_addr, *addr);
            last_addr = *addr;
            for chain in [writes, reads] {
                put_varint(&mut buf, chain.len() as u64);
                for a in chain {
                    put_varint(&mut buf, a.tid.index() as u64);
                    put_varint(&mut buf, a.epoch);
                    put_varint(&mut buf, a.pc.0);
                }
            }
        }
        w.section(SEC_LOCATIONS, self.locations.len() as u32, &buf)
            .unwrap();

        buf.clear();
        let mut last_pc = 0u64;
        for ((pc0, pc1), p) in &self.pairs {
            put_delta(&mut buf, last_pc, pc0.0);
            last_pc = pc0.0;
            put_varint(&mut buf, pc1.0);
            // Two count fields: LRCP v1 split them at the old occurrence
            // cap. Written as `count, 0`; a reader sums them.
            put_varint(&mut buf, p.count);
            put_varint(&mut buf, 0);
            put_varint(&mut buf, p.example_addr.raw());
            put_varint(&mut buf, p.addrs.len() as u64);
            let mut addrs: Vec<u64> = p.addrs.iter().map(|a| a.raw()).collect();
            addrs.sort_unstable();
            let mut last = 0u64;
            for a in addrs {
                put_delta(&mut buf, last, a);
                last = a;
            }
        }
        w.section(SEC_PAIRS, self.pairs.len() as u32, &buf).unwrap();

        buf.clear();
        for pattern in &self.suppressions {
            put_varint(&mut buf, pattern.len() as u64);
            buf.extend_from_slice(pattern.as_bytes());
        }
        w.section(SEC_SUPPRESS, self.suppressions.len() as u32, &buf)
            .unwrap();

        let bytes = w.finish().expect("writing to a Vec cannot fail");
        if let Some(t0) = t0 {
            let m = literace_telemetry::metrics();
            m.detector_checkpoint_save_ns
                .add(t0.elapsed().as_nanos() as u64);
            m.detector_checkpoint_bytes.add(bytes.len() as u64);
        }
        bytes
    }

    /// Parses and fully validates a serialized checkpoint. Every failure
    /// mode — wrong magic, wrong version, truncation at any offset, any
    /// bit flip, an unsealed container, malformed section contents — is a
    /// typed [`LogError`]; this function never panics on untrusted input
    /// and never returns a partially loaded state.
    pub fn from_bytes(bytes: &[u8]) -> LogResult<Checkpoint> {
        let t0 = literace_telemetry::enabled().then(std::time::Instant::now);
        let sections = read_container(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let expect_order = [
            SEC_META,
            SEC_THREADS,
            SEC_SYNCVARS,
            SEC_LAST_TS,
            SEC_LOCATIONS,
            SEC_PAIRS,
            SEC_SUPPRESS,
        ];
        if sections.len() != expect_order.len()
            || sections
                .iter()
                .zip(expect_order)
                .any(|(s, want)| s.id != want)
        {
            return Err(LogError::Corrupt {
                reason: "checkpoint sections missing or out of order".into(),
            });
        }

        let mut meta = sections[0].payload;
        let max_history = usize_field(&mut meta, "max_history_per_location")?;
        let max_pair = usize_field(&mut meta, "max_dynamic_per_pair")?;
        let records_processed = get_varint_slice(&mut meta)?;
        let records_since_compact = get_varint_slice(&mut meta)?;
        let timestamp_violations = get_varint_slice(&mut meta)?;
        let non_stack_accesses = get_varint_slice(&mut meta)?;
        expect_drained(meta, "meta")?;

        let mut body = sections[1].payload;
        let thread_count = checked_count(sections[1].item_count, body, "threads")?;
        check_thread_index(thread_count.saturating_sub(1)).map_err(corrupt_err)?;
        let mut threads = Vec::new();
        for _ in 0..thread_count {
            let clock_gen = get_varint_slice(&mut body)?;
            let retired = bool_field(&mut body, "thread retired flag")?;
            let components = clock_field(&mut body)?;
            threads.push(ThreadState {
                components,
                clock_gen,
                retired,
            });
        }
        expect_drained(body, "threads")?;

        let mut body = sections[2].payload;
        let syncvar_count = checked_count(sections[2].item_count, body, "syncvars")?;
        let mut syncvars = Vec::new();
        let mut last_var = 0u64;
        for _ in 0..syncvar_count {
            let var = get_delta_slice(&mut body, last_var)?;
            last_var = var;
            syncvars.push((SyncVar(var), clock_field(&mut body)?));
        }
        expect_drained(body, "syncvars")?;

        let mut body = sections[3].payload;
        let ts_count = checked_count(sections[3].item_count, body, "last_ts")?;
        let mut last_ts = Vec::new();
        let mut last_var = 0u64;
        for _ in 0..ts_count {
            let var = get_delta_slice(&mut body, last_var)?;
            last_var = var;
            last_ts.push((SyncVar(var), get_varint_slice(&mut body)?));
        }
        expect_drained(body, "last_ts")?;

        let mut body = sections[4].payload;
        let loc_count = checked_count(sections[4].item_count, body, "locations")?;
        let mut locations = Vec::new();
        let mut last_addr = 0u64;
        for _ in 0..loc_count {
            let addr = get_delta_slice(&mut body, last_addr)?;
            last_addr = addr;
            let writes = access_chain(&mut body)?;
            let reads = access_chain(&mut body)?;
            locations.push((addr, writes, reads));
        }
        expect_drained(body, "locations")?;

        let mut body = sections[5].payload;
        let pair_count = checked_count(sections[5].item_count, body, "pairs")?;
        let mut pairs = Vec::new();
        let mut last_pc = 0u64;
        for _ in 0..pair_count {
            let pc0 = get_delta_slice(&mut body, last_pc)?;
            last_pc = pc0;
            let pc1 = get_varint_slice(&mut body)?;
            let count = get_varint_slice(&mut body)?
                .checked_add(get_varint_slice(&mut body)?)
                .ok_or_else(|| LogError::Corrupt {
                    reason: "checkpoint pair count overflows".into(),
                })?;
            let example_addr = Addr(get_varint_slice(&mut body)?);
            let addr_count = checked_count_u64(get_varint_slice(&mut body)?, body, "pair addrs")?;
            let mut addrs = FastSet::default();
            let mut last = 0u64;
            for _ in 0..addr_count {
                let a = get_delta_slice(&mut body, last)?;
                last = a;
                addrs.insert(Addr(a));
            }
            let agg = PairAgg {
                count,
                first_pos: 0,
                example_addr,
                addrs,
            };
            pairs.push(((Pc(pc0), Pc(pc1)), agg));
        }
        expect_drained(body, "pairs")?;

        let mut body = sections[6].payload;
        let pattern_count = checked_count(sections[6].item_count, body, "suppressions")?;
        let mut suppressions = Vec::new();
        for _ in 0..pattern_count {
            let len = checked_count_u64(get_varint_slice(&mut body)?, body, "pattern")?;
            let (raw, rest) = body.split_at(len);
            body = rest;
            suppressions.push(String::from_utf8(raw.to_vec()).map_err(|_| {
                LogError::Corrupt {
                    reason: "suppression pattern is not valid UTF-8".into(),
                }
            })?);
        }
        expect_drained(body, "suppressions")?;

        let cp = Checkpoint {
            cfg: HbConfig {
                max_history_per_location: max_history,
                max_dynamic_per_pair: max_pair,
            },
            records_processed,
            records_since_compact,
            timestamp_violations,
            non_stack_accesses,
            last_ts,
            threads,
            syncvars,
            locations,
            pairs,
            suppressions,
        };
        cp.validate()?;
        if let Some(t0) = t0 {
            literace_telemetry::metrics()
                .detector_checkpoint_load_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        Ok(cp)
    }

    /// Semantic validation beyond wire-format integrity: every decoded
    /// field must satisfy the detector's live invariants, so a resumed
    /// detector can never be seeded with state the engine itself could
    /// not have produced.
    fn validate(&self) -> LogResult<()> {
        for (_, writes, reads) in &self.locations {
            for a in writes.iter().chain(reads) {
                check_thread_index(a.tid.index()).map_err(corrupt_err)?;
                if a.epoch == 0 {
                    return Err(LogError::Corrupt {
                        reason: "frontier access with epoch 0 (the absent sentinel)".into(),
                    });
                }
            }
        }
        let mut total = 0u64;
        for (pcs, p) in &self.pairs {
            if p.count == 0 {
                return Err(LogError::Corrupt {
                    reason: format!("pair {pcs:?} has no occurrences"),
                });
            }
            if p.addrs.len() as u64 > p.count || p.addrs.len() > self.cfg.max_dynamic_per_pair {
                return Err(LogError::Corrupt {
                    reason: format!(
                        "pair {pcs:?} has more distinct addresses than races or the cap"
                    ),
                });
            }
            total = total
                .checked_add(p.count)
                .ok_or_else(|| LogError::Corrupt {
                    reason: "checkpoint race counts overflow".into(),
                })?;
        }
        Ok(())
    }

    /// Writes the checkpoint to `path` through [`AtomicFile`]: the bytes
    /// land in `<path>.partial` and are renamed into place only after a
    /// flush and fsync, so a crash mid-save can never leave a torn file at
    /// `path` — at worst a stale `.partial`, which this function sweeps
    /// before writing (as `run --log` does for logs). Returns the sealed
    /// size in bytes.
    pub fn write_to(&self, path: &Path) -> std::io::Result<u64> {
        AtomicFile::sweep_stale(path)?;
        let bytes = self.to_bytes();
        let mut f = AtomicFile::create(path)?;
        std::io::Write::write_all(&mut f, &bytes)?;
        f.commit()?;
        Ok(bytes.len() as u64)
    }

    /// Reads and validates a checkpoint from `path`.
    pub fn read_from(path: &Path) -> LogResult<Checkpoint> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }
}

fn corrupt_err(e: impl std::fmt::Display) -> LogError {
    LogError::Corrupt {
        reason: e.to_string(),
    }
}

fn expect_drained(body: &[u8], section: &str) -> LogResult<()> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(LogError::Corrupt {
            reason: format!("trailing bytes in checkpoint {section} section"),
        })
    }
}

/// Bounds a declared item count by the bytes actually present (each item
/// costs ≥ 1 byte on the wire), so a corrupt count can never drive an
/// unbounded allocation.
fn checked_count(declared: u32, body: &[u8], what: &str) -> LogResult<usize> {
    checked_count_u64(u64::from(declared), body, what)
}

fn checked_count_u64(declared: u64, body: &[u8], what: &str) -> LogResult<usize> {
    if declared > body.len() as u64 {
        return Err(LogError::Corrupt {
            reason: format!("checkpoint {what} count {declared} exceeds section size"),
        });
    }
    Ok(declared as usize)
}

fn usize_field(body: &mut &[u8], what: &str) -> LogResult<usize> {
    let v = get_varint_slice(body)?;
    usize::try_from(v).map_err(|_| LogError::Corrupt {
        reason: format!("checkpoint {what} {v} does not fit usize"),
    })
}

fn bool_field(body: &mut &[u8], what: &str) -> LogResult<bool> {
    match get_varint_slice(body)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(LogError::Corrupt {
            reason: format!("checkpoint {what} is {other}, expected 0 or 1"),
        }),
    }
}

fn clock_field(body: &mut &[u8]) -> LogResult<Vec<u64>> {
    let len = checked_count_u64(get_varint_slice(body)?, body, "clock")?;
    let mut components = Vec::with_capacity(len);
    for _ in 0..len {
        components.push(get_varint_slice(body)?);
    }
    Ok(components)
}

fn access_chain(body: &mut &[u8]) -> LogResult<Vec<Access>> {
    let len = checked_count_u64(get_varint_slice(body)?, body, "access chain")?;
    let mut chain = Vec::with_capacity(len);
    for _ in 0..len {
        let tid = usize_field(body, "access tid")?;
        check_thread_index(tid).map_err(corrupt_err)?;
        let epoch = get_varint_slice(body)?;
        let pc = get_varint_slice(body)?;
        chain.push(Access {
            tid: ThreadId::from_index(tid),
            epoch,
            pc: Pc(pc),
        });
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mem, sync, t};
    use crate::{detect, detect_stream_from, DetectConfig, RaceReport};
    use literace_log::{EventLog, Record};
    use literace_sim::SyncOpKind;

    /// A log exercising locks, retirement, escalated and inline frontier
    /// state, and several racy pairs.
    fn mixed_records() -> Vec<Record> {
        let mut records = Vec::new();
        records.push(Record::ThreadBegin { tid: t(2) });
        for round in 0..20u64 {
            for addr in 0..8u64 {
                records.push(mem(t(0), 1 + addr as usize, addr, true));
                records.push(mem(t(1), 100 + addr as usize, addr, round % 3 == 0));
                records.push(mem(t(2), 200 + addr as usize, addr + 50, false));
                records.push(mem(t(3), 300 + addr as usize, addr + 50, false));
            }
            records.push(sync(t(0), SyncOpKind::LockRelease, 7, 2 * round + 1));
            records.push(sync(t(1), SyncOpKind::LockAcquire, 7, 2 * round + 2));
        }
        records.push(Record::ThreadEnd { tid: t(2) });
        for addr in 0..8u64 {
            records.push(mem(t(0), 400 + addr as usize, addr + 50, true));
        }
        records
    }

    fn log_of(records: &[Record]) -> EventLog {
        records.iter().copied().collect()
    }

    /// Sequential resume over `records`, the suffix after `cp`.
    fn resume_over(records: &[Record], cp: &Checkpoint, non_stack: u64) -> RaceReport {
        detect_stream_from([Ok(records)], non_stack, &DetectConfig::default(), Some(cp)).unwrap()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let records = mixed_records();
        let mut d = HbDetector::new();
        for r in &records {
            d.process(r);
        }
        let mut cp = d.save_checkpoint(1234);
        cp.set_suppressions(vec!["stats_".into(), "logging_".into()]);
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        // Serialization is deterministic.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn split_resume_is_byte_identical_to_one_shot() {
        let records = mixed_records();
        let full = detect(&log_of(&records), 5000);
        assert!(full.static_count() > 0, "workload should race");
        for split in [0, 1, records.len() / 3, records.len() / 2, records.len() - 1, records.len()]
        {
            let mut first = HbDetector::new();
            for r in &records[..split] {
                first.process(r);
            }
            let cp = first.save_checkpoint(5000);
            let resumed = resume_over(&records[split..], &cp, 5000);
            assert_eq!(resumed, full, "split at {split}");
        }
    }

    #[test]
    fn resume_counts_continue_from_the_checkpoint() {
        let records = mixed_records();
        let mut d = HbDetector::new();
        for r in &records {
            d.process(r);
        }
        let cp = d.save_checkpoint(0);
        assert_eq!(cp.records_processed(), records.len() as u64);
        let resumed = HbDetector::resume(&cp);
        assert_eq!(resumed.records_processed(), records.len() as u64);
        assert!(cp.thread_count() >= 4);
        assert_eq!(cp.retired_count(), 1);
        assert!(cp.pair_count() > 0);
        assert!(cp.dynamic_races() > 0);
    }

    #[test]
    fn a_pair_count_split_in_two_fields_loads_as_their_sum() {
        // Past the old occurrence cap, the pair section's second count
        // field was nonzero: re-seal a checkpoint's pairs that way.
        let cap = 3;
        let records = mixed_records();
        let mut d = HbDetector::with_config(HbConfig {
            max_dynamic_per_pair: cap,
            ..HbConfig::default()
        });
        for r in &records {
            d.process(r);
        }
        let cp = d.save_checkpoint(0);
        assert!(cp.pairs.iter().any(|(_, p)| p.count > cap as u64));
        let bytes = cp.to_bytes();
        let sections = read_container(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
        let mut w = ContainerWriter::new(Vec::new(), CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
        let mut split_sum = 0;
        for section in &sections {
            if section.id != SEC_PAIRS {
                w.section(section.id, section.item_count, section.payload)
                    .unwrap();
                continue;
            }
            let mut buf = Vec::new();
            let mut last_pc = 0u64;
            for ((pc0, pc1), p) in &cp.pairs {
                put_delta(&mut buf, last_pc, pc0.0);
                last_pc = pc0.0;
                put_varint(&mut buf, pc1.0);
                let stored = p.count.min(cap as u64);
                put_varint(&mut buf, stored);
                put_varint(&mut buf, p.count - stored);
                split_sum += stored + (p.count - stored);
                put_varint(&mut buf, p.example_addr.raw());
                let mut addrs: Vec<u64> = p.addrs.iter().map(|a| a.raw()).collect();
                addrs.sort_unstable();
                put_varint(&mut buf, addrs.len() as u64);
                let mut last = 0u64;
                for a in addrs {
                    put_delta(&mut buf, last, a);
                    last = a;
                }
            }
            w.section(SEC_PAIRS, section.item_count, &buf).unwrap();
        }
        let split = w.finish().unwrap();
        assert_ne!(split, bytes, "some pair must have passed the cap");
        let back = Checkpoint::from_bytes(&split).unwrap();
        assert_eq!(back.dynamic_races(), split_sum);
        assert_eq!(back, cp);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn every_truncation_of_a_checkpoint_is_a_typed_error() {
        let records = mixed_records();
        let mut d = HbDetector::new();
        for r in &records {
            d.process(r);
        }
        let bytes = d.save_checkpoint(10).to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut])
                .expect_err("truncated checkpoint must not load");
            let _ = err.to_string();
        }
    }

    #[test]
    fn empty_detector_checkpoint_round_trips() {
        let cp = HbDetector::new().save_checkpoint(0);
        let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.thread_count(), 0);
        let report = resume_over(&[], &back, 0);
        assert_eq!(report, detect(&EventLog::new(), 0));
    }

    #[test]
    fn oversized_tid_in_checkpoint_is_a_typed_error_not_a_panic() {
        let records = mixed_records();
        let mut d = HbDetector::new();
        for r in &records {
            d.process(r);
        }
        let mut cp = d.save_checkpoint(0);
        // Corrupt a frontier access with a tid beyond the packing ceiling.
        let loc = cp
            .locations
            .iter_mut()
            .find(|(_, w, _)| !w.is_empty())
            .unwrap();
        loc.1[0].tid = ThreadId::from_index((1usize << 31) + 5);
        let err = Checkpoint::from_bytes(&cp.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("ceiling"), "{err}");
    }

    #[test]
    fn atomic_write_survives_a_simulated_crash() {
        let dir = std::env::temp_dir().join(format!(
            "literace-checkpoint-crash-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.lrcp");

        let records = mixed_records();
        let mut d = HbDetector::new();
        for r in &records[..records.len() / 2] {
            d.process(r);
        }
        let sealed = d.save_checkpoint(42);
        sealed.write_to(&path).unwrap();

        // Simulate a SIGKILL mid-save of a *newer* checkpoint: the partial
        // exists, Drop never ran, the sealed file is untouched.
        let partial = {
            let mut p = path.clone().into_os_string();
            p.push(".partial");
            std::path::PathBuf::from(p)
        };
        std::fs::write(&partial, b"torn mid-write").unwrap();

        // Next resume sees only the last sealed checkpoint...
        let loaded = Checkpoint::read_from(&path).unwrap();
        assert_eq!(loaded, sealed);
        // ...and the next save sweeps the stale partial before writing.
        loaded.write_to(&path).unwrap();
        assert!(!partial.exists(), "stale .partial must be swept on save");
        assert_eq!(Checkpoint::read_from(&path).unwrap(), loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
