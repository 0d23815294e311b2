//! Checkpointable detector state: sealed snapshots and byte-identical
//! resume.
//!
//! A million-user log does not fit one sitting: fleet-scale detection
//! needs to pause, snapshot, and resume instead of replaying from zero
//! (ROADMAP item 2). A [`Checkpoint`] captures the **full semantic state**
//! of a detector mid-stream, one record per fact, as the detector holds
//! it: the replay stage (each thread's clock and generation, the retired
//! set, each sync variable's clock and §4.2 last timestamp, the record
//! position, the compaction phase and the timestamp-violation count), the
//! adaptive epoch frontier (inline pairs *and* escalated arena
//! antichains) and the per-pair race aggregates. A detector resumed from
//! it and fed the remaining records produces a report **byte-identical**
//! to one-shot detection (`tests/checkpoint_equivalence.rs` pins this at
//! every block boundary, across the sequential, sharded, and streaming
//! paths).
//!
//! ## Wire format
//!
//! Checkpoints are serialized with the crate-shared varint machinery into
//! a sealed section container (see `literace_log::container`), inheriting
//! the v2 log's integrity discipline: every section is framed and
//! checksummed, the file ends in a sealing footer carrying a whole-file
//! running checksum, and the reader is strict — a torn, truncated, or
//! bit-flipped checkpoint is always classified with a typed
//! [`LogError`], never silently loaded. LRCP version 2 has one section
//! per record kind:
//!
//! ```text
//! file      := magic(4: "LRCP") version(1: 0x02) section* footer
//! sections  := meta(1) threads(2) retired(3) syncvars(4)
//!              locations(5) pairs(6)                      (in this order)
//! meta      := max_history max_pair position since_compact
//!              timestamp_violations non_stack
//! threads   := (generation clock)*                        by thread index
//! retired   := Δindex*                            ascending thread indices
//! syncvars  := (Δvar last_ts clock)*                      ascending vars
//! locations := (Δaddr chain(writes) chain(reads))*        ascending addrs
//! pairs     := (Δpc0 pc1 count example_addr n Δaddr^n)*   ascending pairs
//! clock     := n component^n          chain := n (tid epoch pc)^n
//! ```
//!
//! Every field is a LEB128 varint and every Δ a zigzag delta against the
//! previous key (0 first). Sections' item counts are frame fields, each
//! bounded by its section's bytes before anything is allocated. All maps
//! are written in canonical (sorted) order, so equal detector states
//! produce equal bytes, and a reader rejects keys that do not strictly
//! ascend. A version-1 file is [`LogError::UnsupportedVersion`].
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

use crate::clocks::{ClockState, SyncClock, ThreadClock};
use crate::epoch::check_thread_index;
use crate::fast_hash::{FastMap, FastSet};
use crate::frontier::Access;
use crate::hb::{HbConfig, HbDetector, Replay};
use crate::report::{merge, PairAgg};
use crate::sharded::ShardState;
use crate::vector_clock::VectorClock;

/// Magic bytes opening a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LRCP";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 2;

const SEC_META: u32 = 1;
const SEC_THREADS: u32 = 2;
const SEC_RETIRED: u32 = 3;
const SEC_SYNCVARS: u32 = 4;
const SEC_LOCATIONS: u32 = 5;
const SEC_PAIRS: u32 = 6;

/// A sealed, self-validating snapshot of full detector state.
///
/// Produced by [`HbDetector::save_checkpoint`] and, at any shard count,
/// by [`detect_stream_checkpointed`](crate::detect_stream_checkpointed);
/// consumed by [`HbDetector::resume`] and, at any shard count, by
/// [`detect_stream_from`](crate::detect_stream_from). Serialization is in
/// canonical (sorted) order, so equal detector states produce equal
/// checkpoints regardless of hash-map iteration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) cfg: HbConfig,
    pub(crate) non_stack_accesses: u64,
    /// The replay stage as it stopped.
    pub(crate) replay: Replay,
    /// Frontier state, sorted by address (see `Frontier::snapshot`).
    pub(crate) locations: Vec<(u64, Vec<Access>, Vec<Access>)>,
    /// Per-pair aggregates, sorted by the pc pair; every first position is
    /// 0, as the pairs precede every record resumed after them.
    pub(crate) pairs: Vec<((Pc, Pc), PairAgg)>,
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
    /// The one checkpoint assembly, at any shard count: the replay stage
    /// plus every shard's sealed state. Shards own disjoint addresses, so
    /// their locations concatenate, sorted by address; their pairs fold
    /// through the one [`merge`], each first position zeroed because the
    /// pairs precede every record resumed after them. While no pair
    /// reaches `max_dynamic_per_pair` distinct addresses, the result does
    /// not depend on the shard count.
    pub(crate) fn assemble(
        replay: &Replay,
        cfg: HbConfig,
        shards: Vec<ShardState>,
        non_stack_accesses: u64,
    ) -> Checkpoint {
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
            non_stack_accesses,
            replay: replay.clone(),
            locations,
            pairs,
        }
    }

    /// The detector configuration the checkpoint was taken under.
    pub fn config(&self) -> HbConfig {
        self.cfg
    }

    /// Records processed up to the checkpointed position.
    pub fn records_processed(&self) -> u64 {
        self.replay.pos
    }

    /// The rarity denominator recorded at save time.
    pub fn non_stack_accesses(&self) -> u64 {
        self.non_stack_accesses
    }

    /// Timestamp-order violations observed before the checkpoint.
    pub fn timestamp_violations(&self) -> u64 {
        self.replay.clocks.timestamp_violations
    }

    /// Threads materialized at the checkpoint.
    pub fn thread_count(&self) -> usize {
        self.replay.clocks.threads.len()
    }

    /// Threads known to have exited, materialized or not.
    pub fn retired_count(&self) -> usize {
        self.replay.clocks.retired.len()
    }

    /// Sync variables named by any sync record so far.
    pub fn syncvar_count(&self) -> usize {
        self.replay.clocks.syncvars.len()
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

    /// Serializes into a sealed container. Equal detector states produce
    /// equal bytes (all state is written in canonical order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let t0 = literace_telemetry::enabled().then(std::time::Instant::now);
        let clocks = &self.replay.clocks;
        let mut w = ContainerWriter::new(Vec::new(), CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
            .expect("writing to a Vec cannot fail");
        let mut buf = Vec::new();
        let mut section = |id: u32, count: usize, buf: &mut Vec<u8>| {
            let count = u32::try_from(count).expect("a section holds fewer than 2^32 items");
            w.section(id, count, buf)
                .expect("writing to a Vec cannot fail");
            buf.clear();
        };

        for field in [
            self.cfg.max_history_per_location as u64,
            self.cfg.max_dynamic_per_pair as u64,
            self.replay.pos,
            self.replay.since_compact,
            clocks.timestamp_violations,
            self.non_stack_accesses,
        ] {
            put_varint(&mut buf, field);
        }
        section(SEC_META, 6, &mut buf);

        for t in &clocks.threads {
            put_varint(&mut buf, t.generation);
            put_clock(&mut buf, &t.clock);
        }
        section(SEC_THREADS, clocks.threads.len(), &mut buf);

        let mut retired: Vec<u64> = clocks.retired.iter().map(|&i| i as u64).collect();
        retired.sort_unstable();
        put_ascending(&mut buf, &retired);
        section(SEC_RETIRED, retired.len(), &mut buf);

        let mut syncvars: Vec<(&SyncVar, &SyncClock)> = clocks.syncvars.iter().collect();
        syncvars.sort_unstable_by_key(|&(var, _)| *var);
        let mut last = 0u64;
        for (var, sv) in &syncvars {
            put_delta(&mut buf, last, var.0);
            last = var.0;
            put_varint(&mut buf, sv.last_ts);
            put_clock(&mut buf, &sv.clock);
        }
        section(SEC_SYNCVARS, syncvars.len(), &mut buf);

        let mut last = 0u64;
        for (addr, writes, reads) in &self.locations {
            put_delta(&mut buf, last, *addr);
            last = *addr;
            for chain in [writes, reads] {
                put_varint(&mut buf, chain.len() as u64);
                for a in chain {
                    put_varint(&mut buf, a.tid.index() as u64);
                    put_varint(&mut buf, a.epoch);
                    put_varint(&mut buf, a.pc.0);
                }
            }
        }
        section(SEC_LOCATIONS, self.locations.len(), &mut buf);

        let mut last = 0u64;
        for ((pc0, pc1), p) in &self.pairs {
            put_delta(&mut buf, last, pc0.0);
            last = pc0.0;
            put_varint(&mut buf, pc1.0);
            put_varint(&mut buf, p.count);
            put_varint(&mut buf, p.example_addr.raw());
            let mut addrs: Vec<u64> = p.addrs.iter().map(|a| a.raw()).collect();
            addrs.sort_unstable();
            put_varint(&mut buf, addrs.len() as u64);
            put_ascending(&mut buf, &addrs);
        }
        section(SEC_PAIRS, self.pairs.len(), &mut buf);

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
        let sections = read_container(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")?;
        let expect_order = [
            (SEC_META, "meta"),
            (SEC_THREADS, "threads"),
            (SEC_RETIRED, "retired"),
            (SEC_SYNCVARS, "syncvars"),
            (SEC_LOCATIONS, "locations"),
            (SEC_PAIRS, "pairs"),
        ];
        if sections.len() != expect_order.len()
            || sections
                .iter()
                .zip(expect_order)
                .any(|(s, (want, _))| s.id != want)
        {
            return Err(LogError::Corrupt {
                file: "checkpoint",
                reason: "checkpoint sections missing or out of order".into(),
            });
        }
        // Every section's item count is bounded by its bytes (an item
        // costs at least one) before anything is allocated for it.
        let mut counts = [0usize; 6];
        for ((s, (_, what)), count) in sections.iter().zip(expect_order).zip(&mut counts) {
            *count = checked_count(u64::from(s.item_count), s.payload, what)?;
        }

        let mut meta = sections[0].payload;
        let max_history = usize_field(&mut meta, "max_history_per_location")?;
        let max_pair = usize_field(&mut meta, "max_dynamic_per_pair")?;
        let pos = get_varint_slice(&mut meta)?;
        let since_compact = get_varint_slice(&mut meta)?;
        let timestamp_violations = get_varint_slice(&mut meta)?;
        let non_stack_accesses = get_varint_slice(&mut meta)?;
        expect_drained(meta, "meta")?;

        let mut body = sections[1].payload;
        check_thread_index(counts[1].saturating_sub(1)).map_err(corrupt_err)?;
        let mut threads = Vec::with_capacity(counts[1]);
        for _ in 0..counts[1] {
            let generation = get_varint_slice(&mut body)?;
            let clock = clock_field(&mut body)?;
            threads.push(ThreadClock { clock, generation });
        }
        expect_drained(body, "threads")?;

        let mut body = sections[2].payload;
        let mut retired = FastSet::default();
        let mut last = None;
        for _ in 0..counts[2] {
            let index = ascending_key(&mut body, &mut last, "retired")?;
            let index = u32::try_from(index).map_err(|_| LogError::Corrupt {
                file: "checkpoint",
                reason: format!("checkpoint retired thread {index} exceeds the thread id range"),
            })?;
            retired.insert(index as usize);
        }
        expect_drained(body, "retired")?;

        let mut body = sections[3].payload;
        let mut syncvars = FastMap::default();
        let mut last = None;
        for _ in 0..counts[3] {
            let var = SyncVar(ascending_key(&mut body, &mut last, "syncvars")?);
            let last_ts = get_varint_slice(&mut body)?;
            let clock = clock_field(&mut body)?;
            syncvars.insert(var, SyncClock { clock, last_ts });
        }
        expect_drained(body, "syncvars")?;

        let mut body = sections[4].payload;
        let mut locations = Vec::with_capacity(counts[4]);
        let mut last = None;
        for _ in 0..counts[4] {
            let addr = ascending_key(&mut body, &mut last, "locations")?;
            let writes = access_chain(&mut body)?;
            let reads = access_chain(&mut body)?;
            locations.push((addr, writes, reads));
        }
        expect_drained(body, "locations")?;

        let mut body = sections[5].payload;
        let mut pairs: Vec<((Pc, Pc), PairAgg)> = Vec::with_capacity(counts[5]);
        let mut last_pc = 0u64;
        for _ in 0..counts[5] {
            let pc0 = get_delta_slice(&mut body, last_pc)?;
            last_pc = pc0;
            let pcs = (Pc(pc0), Pc(get_varint_slice(&mut body)?));
            if pairs.last().is_some_and(|&(last, _)| pcs <= last) {
                return Err(LogError::Corrupt {
                    file: "checkpoint",
                    reason: "checkpoint pairs keys are not strictly ascending".into(),
                });
            }
            let count = get_varint_slice(&mut body)?;
            let example_addr = Addr(get_varint_slice(&mut body)?);
            let addr_count = checked_count(get_varint_slice(&mut body)?, body, "pair addrs")?;
            let mut addrs = FastSet::default();
            let mut last = None;
            for _ in 0..addr_count {
                addrs.insert(Addr(ascending_key(&mut body, &mut last, "pair addrs")?));
            }
            let agg = PairAgg {
                count,
                first_pos: 0,
                example_addr,
                addrs,
            };
            pairs.push((pcs, agg));
        }
        expect_drained(body, "pairs")?;

        let cp = Checkpoint {
            cfg: HbConfig {
                max_history_per_location: max_history,
                max_dynamic_per_pair: max_pair,
            },
            non_stack_accesses,
            replay: Replay {
                clocks: ClockState {
                    threads,
                    retired,
                    syncvars,
                    timestamp_violations,
                },
                pos,
                since_compact,
            },
            locations,
            pairs,
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
                        file: "checkpoint",
                        reason: "frontier access with epoch 0 (the absent sentinel)".into(),
                    });
                }
            }
        }
        let mut total = 0u64;
        for (pcs, p) in &self.pairs {
            if p.count == 0 {
                return Err(LogError::Corrupt {
                    file: "checkpoint",
                    reason: format!("pair {pcs:?} has no occurrences"),
                });
            }
            if p.addrs.len() as u64 > p.count || p.addrs.len() > self.cfg.max_dynamic_per_pair {
                return Err(LogError::Corrupt {
                    file: "checkpoint",
                    reason: format!(
                        "pair {pcs:?} has more distinct addresses than races or the cap"
                    ),
                });
            }
            total = total
                .checked_add(p.count)
                .ok_or_else(|| LogError::Corrupt {
                    file: "checkpoint",
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
}

fn corrupt_err(e: impl std::fmt::Display) -> LogError {
    LogError::Corrupt {
        file: "checkpoint",
        reason: e.to_string(),
    }
}

fn expect_drained(body: &[u8], section: &str) -> LogResult<()> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(LogError::Corrupt {
            file: "checkpoint",
            reason: format!("trailing bytes in checkpoint {section} section"),
        })
    }
}

/// Bounds a declared item count by the bytes actually present (each item
/// costs ≥ 1 byte on the wire), so a corrupt count can never drive an
/// unbounded allocation.
fn checked_count(declared: u64, body: &[u8], what: &str) -> LogResult<usize> {
    if declared > body.len() as u64 {
        return Err(LogError::Corrupt {
            file: "checkpoint",
            reason: format!("checkpoint {what} count {declared} exceeds section size"),
        });
    }
    Ok(declared as usize)
}

fn usize_field(body: &mut &[u8], what: &str) -> LogResult<usize> {
    let v = get_varint_slice(body)?;
    usize::try_from(v).map_err(|_| LogError::Corrupt {
        file: "checkpoint",
        reason: format!("checkpoint {what} {v} does not fit usize"),
    })
}

/// Writes sorted, distinct keys as deltas, each against the one before.
fn put_ascending(buf: &mut Vec<u8>, keys: &[u64]) {
    let mut last = 0u64;
    for &key in keys {
        put_delta(buf, last, key);
        last = key;
    }
}

/// Reads the next key of a strictly ascending, delta-coded run (as
/// [`put_ascending`] writes one); `last` is the key before, `None` at the
/// first. A repeated or smaller key is corrupt: no detector state writes
/// one.
fn ascending_key(body: &mut &[u8], last: &mut Option<u64>, what: &str) -> LogResult<u64> {
    let key = get_delta_slice(body, last.unwrap_or(0))?;
    if last.is_some_and(|l| key <= l) {
        return Err(LogError::Corrupt {
            file: "checkpoint",
            reason: format!("checkpoint {what} keys are not strictly ascending"),
        });
    }
    *last = Some(key);
    Ok(key)
}

fn put_clock(buf: &mut Vec<u8>, clock: &VectorClock) {
    put_varint(buf, clock.components().len() as u64);
    for &c in clock.components() {
        put_varint(buf, c);
    }
}

fn clock_field(body: &mut &[u8]) -> LogResult<VectorClock> {
    let len = checked_count(get_varint_slice(body)?, body, "clock")?;
    let mut components = Vec::with_capacity(len);
    for _ in 0..len {
        components.push(get_varint_slice(body)?);
    }
    Ok(VectorClock::from_components(components))
}

fn access_chain(body: &mut &[u8]) -> LogResult<Vec<Access>> {
    let len = checked_count(get_varint_slice(body)?, body, "access chain")?;
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
        let cp = d.save_checkpoint(1234);
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
    fn a_version_1_checkpoint_is_unsupported() {
        // Every checkpoint written before LRCP v2 carries version byte 1.
        let mut bytes = HbDetector::new().save_checkpoint(0).to_bytes();
        assert_eq!(bytes[4], CHECKPOINT_VERSION);
        bytes[4] = 1;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                LogError::UnsupportedVersion {
                    file: "checkpoint",
                    found: 1,
                    supported: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn the_whole_retired_set_survives_a_checkpoint() {
        // Thread 1 ends before any record of its own materializes it; the
        // checkpoint keeps it retired, and every variable named by a sync
        // record keeps its one record, acquired-only ones included.
        let records = [
            Record::ThreadEnd { tid: t(1) },
            sync(t(0), SyncOpKind::LockAcquire, 5, 3),
            mem(t(0), 1, 0, true),
        ];
        let mut d = HbDetector::new();
        for r in &records {
            d.process(r);
        }
        let cp = Checkpoint::from_bytes(&d.save_checkpoint(0).to_bytes()).unwrap();
        assert_eq!((cp.thread_count(), cp.retired_count()), (1, 1));
        assert_eq!(cp.syncvar_count(), 1);
        let mut resumed = HbDetector::resume(&cp);
        resumed.process(&mem(t(2), 2, 8, true));
        let live: Vec<usize> = resumed.replay.clocks.live().collect();
        assert_eq!(live, vec![0, 2], "thread 1 materialized retired");
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
    fn a_repeated_location_or_pair_is_a_typed_error() {
        // Checksums only prove the bytes are the ones written; a repeated
        // key would load as two entries where the detector holds one.
        let records = mixed_records();
        let mut d = HbDetector::new();
        for r in &records {
            d.process(r);
        }
        let cp = d.save_checkpoint(0);
        let mut repeated_location = cp.clone();
        repeated_location.locations.push(cp.locations[0].clone());
        let mut repeated_pair = cp.clone();
        repeated_pair.pairs.push(cp.pairs[0].clone());
        for bad in [repeated_location, repeated_pair] {
            let err = Checkpoint::from_bytes(&bad.to_bytes()).unwrap_err();
            assert!(err.to_string().contains("not strictly ascending"), "{err}");
        }
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
        let loaded = Checkpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(loaded, sealed);
        // ...and the next save sweeps the stale partial before writing.
        loaded.write_to(&path).unwrap();
        assert!(!partial.exists(), "stale .partial must be swept on save");
        assert_eq!(
            Checkpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap(),
            loaded
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
