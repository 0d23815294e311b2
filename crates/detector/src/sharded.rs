//! The shard stage and the address partition.
//!
//! Synchronization records are a complete part of every LiteRace log
//! (the paper's whole premise — sync is never sampled away, data accesses
//! are). In a full log memory accesses dominate; in a sampled log sync
//! records can. The sharded engine ([`detect_stream_from`]) splits the
//! accesses with replicas. Each of N shard workers replays every record's
//! clock algebra itself, and an address hash assigns each memory access to
//! exactly one shard, which checks it against the clock its own replay
//! holds at that point. Every replica replays the same records in the
//! same order, so that clock is the one the inline detector would use; a
//! shard's frontier for an address it owns is bit-for-bit the inline
//! frontier, and every dynamic race is detected in exactly one shard.
//! Every replica reaches the same compaction points with the same
//! live-clock set, so frontier reclamation — which interacts with the
//! history cap — happens at identical stream positions with identical
//! clock bounds. Blocks mostly of sync records skip the replicas: the
//! engine replays them once, inline. [`HbDetector`](crate::HbDetector) is
//! the one-shard case, run inline: one shard owns every address.
//!
//! Each shard counts its races into one per-pair aggregate, the same one
//! the lockset detector builds, and the engine merges the shards'
//! aggregates once at the end. A resumed run carries the checkpoint's
//! pairs in its first shard as a prefix that precedes every resumed
//! occurrence. The result is equal to the inline
//! [`detect`](crate::detect) output on every input, which also means the
//! no-false-positive invariant carries over unchanged (property-tested in
//! `tests/sharded_equivalence.rs`).
//!
//! [`detect_sharded`] runs the engine over an in-memory [`EventLog`],
//! handed over as one borrowed block.

use literace_log::EventLog;
use literace_sim::{Addr, Pc, ThreadId};

use crate::checkpoint::Checkpoint;
use crate::clocks::ClockState;
use crate::frontier::{Access, Frontier};
use crate::hb::HbConfig;
use crate::provenance::{AccessEvidence, ProvenanceState};
use crate::report::{count_race, PairMap, RaceReport};
use crate::streaming::detect_stream_from;
use crate::vector_clock::VectorClock;

/// Most shards the engine runs; a larger [`DetectConfig::threads`] is
/// clamped to this. Reports do not depend on the shard count, so the
/// clamp is unobservable in the output. Each shard is one OS thread with
/// its own replay stage, which holds every thread's and sync variable's
/// clock, so N shards hold N times the inline detector's clock memory.
/// That memory is quadratic in the highest thread id: a one-record log
/// naming thread 4,000 peaks at about 63 MB RSS inline, 111 MB at 2
/// shards, 242 MB at 4 and 462 MB at 8: about 55 MB more per shard.
/// The CLI asks for at most one shard per core.
pub(crate) const MAX_SHARDS: usize = 64;

/// Configuration for offline detection, inline or sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectConfig {
    /// Worker threads. `0` and `1` both mean one shard, run inline;
    /// `N ≥ 2` runs N workers that each replay the sync records and check
    /// the accesses they own, at most 64: each shard is an OS thread, so
    /// larger values run 64 shards (`MAX_SHARDS`). Blocks mostly of sync
    /// records are replayed once, inline, at any N.
    pub threads: usize,
    /// Happens-before tuning, applied identically to every shard.
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
    /// A config running `threads` workers with default tuning.
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

/// One shard's state at a seal point: its frontier's locations, sorted by
/// address, and a copy of its per-pair aggregates.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) locations: Vec<(u64, Vec<Access>, Vec<Access>)>,
    pub(crate) pairs: PairMap,
}

/// The shard stage: a frontier plus the per-pair aggregates of the races
/// found against it. [`HbDetector`](crate::HbDetector) runs one inline;
/// each shard worker of the engine runs one.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) cfg: HbConfig,
    /// This shard's index among `shards`: it checks only the accesses
    /// [`shard_of`] assigns it.
    index: usize,
    shards: usize,
    /// Accesses checked here, flushed into `detector.shard.events`.
    owned: u64,
    pub(crate) frontier: Frontier,
    pub(crate) pairs: PairMap,
    /// Frontier scan lengths, systematically sampled (1 in
    /// [`ScanSampler::SAMPLE_RATE`](literace_telemetry::ScanSampler)),
    /// accumulated locally and flushed at [`finish`](Shard::finish).
    scan_hist: literace_telemetry::ScanSampler,
    /// Race-provenance capture, when enabled (inline only). Off — the
    /// default — costs one null check per pair's first occurrence.
    pub(crate) provenance: Option<Box<ProvenanceState>>,
}

impl Shard {
    /// `shards` shard stages under `cfg`: fresh, or seeded from a
    /// checkpoint — each with the checkpoint locations it owns (the
    /// `shard_of` routing that partitions the accesses), and the first
    /// with the checkpoint's pairs as well.
    pub(crate) fn seeded(shards: usize, cfg: HbConfig, resume: Option<&Checkpoint>) -> Vec<Shard> {
        let max_history = cfg.max_history_per_location;
        (0..shards)
            .map(|shard| Shard {
                cfg,
                index: shard,
                shards,
                owned: 0,
                frontier: match resume {
                    None => Frontier::new(max_history),
                    Some(cp) => Frontier::restore(
                        max_history,
                        cp.locations
                            .iter()
                            .filter(|(addr, _, _)| shard_of(Addr(*addr), shards) == shard)
                            .cloned(),
                    ),
                },
                pairs: match resume {
                    Some(cp) if shard == 0 => cp.pairs.iter().cloned().collect(),
                    _ => PairMap::default(),
                },
                scan_hist: literace_telemetry::ScanSampler::new(),
                provenance: None,
            })
            .collect()
    }

    /// Whether accesses to `addr` are this shard's to check. One shard
    /// owns every address.
    #[inline(always)]
    pub(crate) fn owns(&self, addr: Addr) -> bool {
        self.shards == 1 || shard_of(addr, self.shards) == self.index
    }

    /// Checks one access at global position `pos` against the frontier,
    /// counting every race it completes.
    ///
    /// `inline(always)`: this is the detector's innermost per-record call.
    /// Inlining it (and [`Frontier::access`] inside it) into each record
    /// loop keeps the location state in registers across records — worth
    /// over 10% end-to-end on full logs, and LLVM won't do it unaided
    /// because the function has several call sites.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        pos: u64,
        tid: ThreadId,
        pc: Pc,
        addr: Addr,
        is_write: bool,
        clock: &VectorClock,
        generation: u64,
    ) {
        let Shard {
            cfg,
            owned,
            frontier,
            pairs,
            scan_hist,
            provenance,
            ..
        } = self;
        *owned += 1;
        let cap = cfg.max_dynamic_per_pair;
        let mut provenance = provenance.as_deref_mut();
        let scanned = frontier.access(
            tid,
            pc,
            addr.raw(),
            is_write,
            clock,
            generation,
            |prior, prior_is_write| {
                let (key, first) = count_race(pairs, prior.pc, pc, pos, addr, cap);
                if first {
                    // The pair's first occurrence here: emit a trace
                    // instant and capture provenance. Both are off the hot
                    // path — conflicts are rare, first-per-pair conflicts
                    // rarer still.
                    if literace_telemetry::trace_enabled() {
                        literace_telemetry::trace_instant_detail(
                            "race.detected",
                            format!("{} ↔ {} at {addr}", key.0, key.1),
                        );
                    }
                    if let Some(p) = provenance.as_mut() {
                        p.capture(
                            key,
                            addr,
                            AccessEvidence {
                                tid: prior.tid,
                                epoch: prior.epoch,
                                pc: prior.pc,
                                is_write: prior_is_write,
                            },
                            AccessEvidence {
                                tid,
                                epoch: clock.get(tid),
                                pc,
                                is_write,
                            },
                            clock.get(prior.tid),
                        );
                    }
                }
            },
        );
        scan_hist.record(scanned as u64);
    }

    /// Reclaims frontier state that can never race again: an access is
    /// dead once **every live thread's clock** in `clocks` already covers
    /// it (all future accesses inherit those clocks, so they would be
    /// ordered after it). This bounds detector memory on long runs;
    /// correctness is untouched (property-tested in the crate's
    /// integration tests).
    pub(crate) fn compact(&mut self, clocks: &ClockState) {
        literace_telemetry::trace_instant("shard.compact");
        let live: Vec<&VectorClock> = clocks.live().map(|i| &clocks.thread(i).clock).collect();
        let tracked_before = self.frontier.tracked_locations();
        let dropped = self.frontier.compact(&live);
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.detector_compact_runs.add(1);
            m.detector_compact_dropped.add(dropped as u64);
            // Compaction points see the frontier at its largest, so the
            // pre-compaction size is the footprint high-water mark.
            m.detector_frontier_tracked_hwm
                .record(tracked_before as u64);
        }
    }

    /// The shard's state at a seal point, for a checkpoint.
    pub(crate) fn state(&self) -> ShardState {
        ShardState {
            locations: self.frontier.snapshot(),
            pairs: self.pairs.clone(),
        }
    }

    /// Flushes the shard's telemetry and hands over its aggregates.
    pub(crate) fn finish(mut self) -> PairMap {
        self.frontier.flush_telemetry();
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.detector_shard_events.add(self.index, self.owned);
            self.scan_hist.flush_into(&m.detector_frontier_scan);
            m.detector_frontier_tracked_hwm
                .record(self.frontier.tracked_locations() as u64);
        }
        self.pairs
    }
}

/// Detects races with the configured number of worker threads, producing
/// a report byte-identical to the inline [`detect`](crate::detect).
///
/// # Panics
///
/// As [`detect`](crate::detect), once, on a thread index above
/// [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX).
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
    // An in-memory block cannot fail to decode: the one error is the
    // tid ceiling.
    detect_stream_from([Ok(log.records())], non_stack_accesses, cfg, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StaticRace;
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
    fn zero_cap_reports_every_pair_without_addresses() {
        let log = mixed_log();
        let uncapped = detect(&log, 1000);
        assert!(uncapped.static_count() > 0, "log should race");
        let hb = HbConfig {
            max_dynamic_per_pair: 0,
            ..HbConfig::default()
        };
        let want = RaceReport {
            static_races: uncapped
                .static_races
                .iter()
                .map(|s| StaticRace {
                    distinct_addrs: 0,
                    ..s.clone()
                })
                .collect(),
            ..uncapped.clone()
        };
        for threads in [1, 2, 4, 8] {
            let cfg = DetectConfig { threads, hb };
            assert_eq!(detect_sharded(&log, 1000, &cfg), want, "threads={threads}");
        }
    }

    #[test]
    fn cap_bounds_distinct_addresses_not_occurrences() {
        // One static pair racing on 16 addresses, four times each.
        let mut records = Vec::new();
        for _ in 0..4 {
            for addr in 0..16u64 {
                records.push(mem(t(0), 1, addr, true));
                records.push(mem(t(1), 2, addr, true));
            }
        }
        let log: EventLog = records.into_iter().collect();
        let uncapped = detect(&log, 100);
        assert_eq!(uncapped.static_count(), 1);
        let pair = &uncapped.static_races[0];
        assert_eq!(pair.distinct_addrs, 16);
        assert!(pair.count > 16);
        let hb = HbConfig {
            max_dynamic_per_pair: 3,
            ..HbConfig::default()
        };
        let want = RaceReport {
            static_races: vec![StaticRace {
                distinct_addrs: 3,
                ..pair.clone()
            }],
            ..uncapped.clone()
        };
        for threads in [1, 2, 4, 8] {
            let cfg = DetectConfig { threads, hb };
            assert_eq!(detect_sharded(&log, 100, &cfg), want, "threads={threads}");
        }
        // Past the cap, which addresses a checkpoint keeps may depend on
        // the shard count that sealed it; every one still resumes to the
        // one-shot report.
        let records = log.records();
        for split in 0..=records.len() {
            for seal_threads in [1, 2, 4, 8] {
                let mut sealed = None;
                let cfg = DetectConfig {
                    threads: seal_threads,
                    hb,
                };
                crate::detect_stream_checkpointed(
                    [Ok(&records[..split])],
                    100,
                    &cfg,
                    None,
                    0,
                    |cp| {
                        sealed = Some(cp.clone());
                        Ok(())
                    },
                )
                .unwrap();
                let cp = sealed.expect("sealed at end of stream");
                for threads in [1, 2, 4, 8] {
                    let cfg = DetectConfig::with_threads(threads);
                    let suffix = [Ok(&records[split..])];
                    assert_eq!(
                        detect_stream_from(suffix, 100, &cfg, Some(&cp)).unwrap(),
                        want,
                        "split={split} sealed at {seal_threads}, resumed at {threads}"
                    );
                }
            }
        }
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
