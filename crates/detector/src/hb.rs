//! The happens-before race-detection core (§2.1 of the paper).
//!
//! [`HbCore`] implements the standard vector-clock algorithm over an
//! abstract stream of synchronization operations and data accesses:
//!
//! * each thread `t` carries a clock `C(t)`;
//! * each synchronization variable `v` carries a clock `L(v)`;
//! * a release-like operation on `v` joins `C(t)` into `L(v)` and then
//!   increments `C(t)[t]`;
//! * an acquire-like operation joins `L(v)` into `C(t)`;
//! * two accesses to the same address race iff neither's clock snapshot is
//!   ≤ the other's and at least one is a write.
//!
//! Per address the core keeps a *frontier* of accesses not yet ordered
//! before a subsequent write (an antichain), so every racing static pair
//! that manifests against the frontier is reported. The offline
//! [`HbDetector`] drives the core from an [`EventLog`]; the online detector
//! (see [`online`](crate::online)) drives it from live simulator events.

use std::collections::HashMap;

use literace_log::{EventLog, Record};
use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};

use crate::clocks::ClockState;
use crate::fast_hash::{FastMap, FastSet};
use crate::frontier::{Access, Frontier};
use crate::provenance::{AccessEvidence, ProvenanceReport, ProvenanceState, SyncEdge};
use crate::report::{RaceReport, StaticRace};
use crate::vector_clock::VectorClock;

/// Tuning knobs for the happens-before core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbConfig {
    /// Upper bound on remembered frontier accesses per location and kind;
    /// beyond it the oldest entries are dropped (bounds memory on
    /// pathological inputs). The frontier is an antichain, so in practice it
    /// stays near the thread count.
    pub max_history_per_location: usize,
    /// Upper bound on *dynamic* races recorded per static pair before
    /// further occurrences are only counted, not stored.
    pub max_dynamic_per_pair: usize,
}

impl Default for HbConfig {
    fn default() -> HbConfig {
        HbConfig {
            max_history_per_location: 128,
            max_dynamic_per_pair: 1 << 20,
        }
    }
}

/// Running aggregate for one static pair — the report row built *online*,
/// as races are detected, instead of by a separate grouping pass over a
/// stored race vector at `finish` time (that pass used to cost as much as
/// detection itself on race-heavy logs).
#[derive(Debug)]
struct PairAgg {
    /// Dynamic occurrences stored (capped at `max_dynamic_per_pair`).
    stored: u64,
    /// Occurrences beyond the cap (counted, not stored).
    overflow: u64,
    /// Address of the first stored occurrence.
    example_addr: Addr,
    /// Distinct addresses among stored occurrences.
    addrs: FastSet<Addr>,
}

/// The reusable happens-before engine.
#[derive(Debug)]
pub struct HbCore {
    cfg: HbConfig,
    /// Thread and sync-variable clocks. Their per-thread generations let
    /// the frontier's same-epoch memo (see [`epoch`](crate::epoch)) key on
    /// `(thread, generation)` instead of comparing whole clocks.
    clocks: ClockState,
    /// Per-address frontier state.
    frontier: Frontier,
    /// Per-static-pair aggregates, maintained online.
    pairs: FastMap<(Pc, Pc), PairAgg>,
    /// Frontier scan lengths, systematically sampled (1 in
    /// [`ScanSampler::SAMPLE_RATE`](literace_telemetry::ScanSampler)),
    /// accumulated locally and flushed to the global registry at
    /// [`finish`](HbCore::finish).
    scan_hist: literace_telemetry::ScanSampler,
    /// Race-provenance capture, when enabled (see
    /// [`enable_provenance`](HbCore::enable_provenance)). Off — the
    /// default — costs one null check on the conflict path only.
    provenance: Option<Box<ProvenanceState>>,
}

impl HbCore {
    /// Creates a core with the given configuration.
    pub fn new(cfg: HbConfig) -> HbCore {
        HbCore {
            cfg,
            clocks: ClockState::default(),
            frontier: Frontier::new(cfg.max_history_per_location),
            pairs: FastMap::default(),
            scan_hist: literace_telemetry::ScanSampler::new(),
            provenance: None,
        }
    }

    /// Turns on race-provenance capture: the core starts tracking each
    /// thread's last release and records, for the first dynamic occurrence
    /// of every static pair, the two access epochs and the sync edge that
    /// failed to order them (retrieved via [`finish_full`](HbCore::finish_full)).
    /// The [`RaceReport`] is byte-identical with capture on or off.
    pub fn enable_provenance(&mut self) {
        if self.provenance.is_none() {
            self.provenance = Some(Box::default());
        }
    }

    /// Processes one synchronization operation.
    #[inline]
    pub fn sync(&mut self, tid: ThreadId, kind: SyncOpKind, var: SyncVar) {
        let released = self.clocks.sync(tid, kind, var);
        if let (Some(p), Some(release_epoch)) = (self.provenance.as_deref_mut(), released) {
            p.record_release(
                tid.index(),
                SyncEdge {
                    var,
                    kind,
                    release_epoch,
                },
            );
        }
    }

    /// Processes one data access.
    ///
    /// `inline(always)`: this is the detector's innermost per-record call.
    /// Inlining it (and [`Frontier::access`] inside it) into each driver
    /// loop keeps the location state in registers across records — worth
    /// over 10% end-to-end on full logs, and LLVM won't do it unaided
    /// because the function has many call sites (every offline driver
    /// loop, and the online detector).
    #[inline(always)]
    pub fn access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool) {
        let i = self.clocks.ensure_thread(tid);
        // The access doesn't modify the clock, so a shared borrow suffices
        // — no per-access clone (`clocks`, `frontier` and `pairs` are
        // disjoint fields).
        let HbCore {
            cfg,
            clocks,
            frontier,
            pairs,
            scan_hist,
            provenance,
        } = self;
        let clock = clocks.clock(i);
        let generation = clocks.generation(i);
        let max_pair = cfg.max_dynamic_per_pair as u64;
        let mut provenance = provenance.as_deref_mut();
        let scanned = frontier.access(
            tid,
            pc,
            addr.raw(),
            is_write,
            clock,
            generation,
            |prior, prior_is_write| {
                let key = if prior.pc <= pc {
                    (prior.pc, pc)
                } else {
                    (pc, prior.pc)
                };
                let agg = pairs.entry(key).or_insert_with(|| PairAgg {
                    stored: 0,
                    overflow: 0,
                    example_addr: addr,
                    addrs: FastSet::default(),
                });
                if agg.stored == 0 && agg.overflow == 0 {
                    // First dynamic occurrence of this static pair: emit a
                    // trace instant and capture provenance. Both are off
                    // the hot path — conflicts are rare, first-per-pair
                    // conflicts rarer still.
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
                if agg.stored < max_pair {
                    agg.stored += 1;
                    agg.addrs.insert(addr);
                } else {
                    agg.overflow += 1;
                }
            },
        );
        scan_hist.record(scanned as u64);
    }

    /// Marks a thread as exited: it will make no further accesses, so it no
    /// longer constrains [`compact`](HbCore::compact)'s reclamation bound.
    pub fn retire_thread(&mut self, tid: ThreadId) {
        self.clocks.retire(tid);
    }

    /// Reclaims per-location state that can never race again: an access is
    /// dead once **every live thread's clock** already covers it (all
    /// future accesses inherit those clocks, so they would be ordered after
    /// it). Locations whose frontier empties are dropped entirely. This
    /// bounds detector memory on long runs; correctness is untouched
    /// (property-tested in the crate's integration tests).
    ///
    /// Returns the number of locations dropped.
    pub fn compact(&mut self) -> usize {
        // Pointwise minimum over live threads' clocks. With no live thread,
        // nothing further can happen: everything is reclaimable.
        let live: Vec<&VectorClock> =
            self.clocks.live().map(|i| self.clocks.clock(i)).collect();
        let tracked_before = self.frontier.tracked_locations();
        let dropped = self.frontier.compact(&live);
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.detector_compact_runs.add(1);
            m.detector_compact_dropped.add(dropped as u64);
            // Compaction points see the frontier at its largest, so the
            // pre-compaction size is the footprint high-water mark.
            m.detector_frontier_tracked_hwm.record(tracked_before as u64);
        }
        dropped
    }

    /// Consumes the core, producing the race report.
    ///
    /// `non_stack_accesses` is the rarity denominator of §5.3.1 — the number
    /// of non-stack memory instructions *executed* in the run (not merely
    /// logged).
    ///
    /// The per-pair aggregates already hold every report field, so this is
    /// a linear emit-and-sort — there is no grouping pass over stored
    /// dynamic races. A pair with occurrences but nothing stored (possible
    /// only when `max_dynamic_per_pair` is 0) is omitted entirely.
    pub fn finish(self, non_stack_accesses: u64) -> RaceReport {
        self.finish_full(non_stack_accesses).0
    }

    /// Like [`finish`](HbCore::finish), additionally returning the
    /// provenance evidence when capture was enabled (`None` otherwise).
    pub fn finish_full(
        mut self,
        non_stack_accesses: u64,
    ) -> (RaceReport, Option<ProvenanceReport>) {
        let provenance = self.provenance.take().map(|p| p.into_report());
        self.frontier.flush_telemetry();
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            self.scan_hist.flush_into(&m.detector_frontier_scan);
            m.detector_frontier_tracked_hwm
                .record(self.frontier.tracked_locations() as u64);
        }
        let mut dynamic_races = 0;
        let mut static_races: Vec<StaticRace> = self
            .pairs
            .into_iter()
            .filter(|(_, agg)| agg.stored > 0)
            .map(|(pcs, agg)| {
                let count = agg.stored + agg.overflow;
                dynamic_races += count;
                StaticRace {
                    pcs,
                    count,
                    example_addr: agg.example_addr,
                    distinct_addrs: agg.addrs.len() as u64,
                }
            })
            .collect();
        static_races.sort_by(|a, b| b.count.cmp(&a.count).then(a.pcs.cmp(&b.pcs)));
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.detector_races_static.add(static_races.len() as u64);
            m.detector_races_dynamic.add(dynamic_races);
        }
        let report = RaceReport {
            static_races,
            dynamic_races,
            non_stack_accesses,
        };
        (report, provenance)
    }

    /// Number of addresses with live frontier state (memory footprint).
    pub fn tracked_locations(&self) -> usize {
        self.frontier.tracked_locations()
    }

    /// The configuration the core was created with.
    pub fn config(&self) -> HbConfig {
        self.cfg
    }

    /// Extracts the core's full semantic state in canonical (sorted)
    /// order, for checkpoint serialization. Telemetry-only state (the
    /// scan sampler, epoch counters) and provenance capture are excluded;
    /// the frontier memos reset on restore, which is output-neutral (a
    /// memo only ever short-circuits a provably conflict-free repeat).
    pub(crate) fn snapshot_state(&self) -> CoreSnapshot {
        let (threads, syncvars) = self.clocks.snapshot();
        let mut pairs: Vec<((Pc, Pc), PairSnapshot)> = self
            .pairs
            .iter()
            .map(|(&pcs, agg)| {
                let mut addrs: Vec<Addr> = agg.addrs.iter().copied().collect();
                addrs.sort_unstable();
                (
                    pcs,
                    PairSnapshot {
                        stored: agg.stored,
                        overflow: agg.overflow,
                        example_addr: agg.example_addr,
                        addrs,
                    },
                )
            })
            .collect();
        pairs.sort_unstable_by_key(|&(pcs, _)| pcs);
        CoreSnapshot {
            threads,
            syncvars,
            locations: self.frontier.snapshot(),
            pairs,
        }
    }

    /// Rebuilds a core from a [`snapshot_state`](HbCore::snapshot_state)
    /// capture. The restored core processes any suffix of records exactly
    /// as the snapshotted one would have.
    pub(crate) fn from_snapshot(cfg: HbConfig, snap: &CoreSnapshot) -> HbCore {
        let pairs: FastMap<(Pc, Pc), PairAgg> = snap
            .pairs
            .iter()
            .map(|(pcs, p)| {
                (
                    *pcs,
                    PairAgg {
                        stored: p.stored,
                        overflow: p.overflow,
                        example_addr: p.example_addr,
                        addrs: p.addrs.iter().copied().collect(),
                    },
                )
            })
            .collect();
        HbCore {
            cfg,
            clocks: ClockState::restore(snap),
            frontier: Frontier::restore(
                cfg.max_history_per_location,
                snap.locations.iter().cloned(),
            ),
            pairs,
            scan_hist: literace_telemetry::ScanSampler::new(),
            provenance: None,
        }
    }
}

/// Per-thread state in a [`CoreSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ThreadState {
    /// The thread's vector clock, as its dense component slice.
    pub components: Vec<u64>,
    /// The thread's clock generation (the frontier memo token).
    pub clock_gen: u64,
    /// Whether the thread has exited.
    pub retired: bool,
}

/// One static pair's aggregate in a [`CoreSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairSnapshot {
    /// Dynamic occurrences stored (capped).
    pub stored: u64,
    /// Occurrences beyond the cap.
    pub overflow: u64,
    /// Address of the first stored occurrence.
    pub example_addr: Addr,
    /// Distinct addresses among stored occurrences, sorted.
    pub addrs: Vec<Addr>,
}

/// The full semantic state of an [`HbCore`], in canonical order: equal
/// detector states produce equal snapshots regardless of hash-map
/// iteration order. Produced by [`HbCore::snapshot_state`], consumed by
/// [`HbCore::from_snapshot`] and the checkpoint codec
/// (see [`checkpoint`](crate::checkpoint)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CoreSnapshot {
    /// Per-thread clocks, generations, and retirement flags, by index.
    pub threads: Vec<ThreadState>,
    /// Sync-variable clocks, sorted by variable.
    pub syncvars: Vec<(SyncVar, Vec<u64>)>,
    /// Frontier state, sorted by address (see [`Frontier::snapshot`]).
    pub locations: Vec<(u64, Vec<Access>, Vec<Access>)>,
    /// Per-pair aggregates, sorted by the pc pair.
    pub pairs: Vec<((Pc, Pc), PairSnapshot)>,
}

/// Records (or, online, events) between automatic frontier compactions
/// in [`HbDetector`], in the sharded engine's router — which counts every
/// record, so compaction points fall at the same stream positions — and
/// in the [`OnlineDetector`](crate::OnlineDetector).
pub(crate) const COMPACT_INTERVAL: u64 = 1 << 18;

/// Offline happens-before detector over an event log (§4.4: the paper's
/// primary mode — write the log to disk, analyze later).
///
/// # Examples
///
/// ```
/// use literace_detector::HbDetector;
/// use literace_log::{Record, SamplerMask};
/// use literace_sim::{Addr, FuncId, Pc, ThreadId};
///
/// let mut det = HbDetector::new();
/// for t in 0..2 {
///     det.process(&Record::Mem {
///         tid: ThreadId::from_index(t),
///         pc: Pc::new(FuncId::from_index(0), t),
///         addr: Addr::global(0),
///         is_write: true,
///         mask: SamplerMask::FULL,
///     });
/// }
/// let report = det.finish(2);
/// assert_eq!(report.static_count(), 1);
/// ```
#[derive(Debug)]
pub struct HbDetector {
    pub(crate) core: HbCore,
    pub(crate) records_since_compact: u64,
    /// Total records processed since construction (or since the state a
    /// resumed detector was checkpointed from began), for checkpoint
    /// bookkeeping and the inspector.
    pub(crate) records_processed: u64,
    /// Per-var last timestamp, to validate the logical-timestamp invariant
    /// (§4.2): operations on one variable must be logged in timestamp order.
    pub(crate) last_ts: HashMap<SyncVar, u64>,
    /// Count of timestamp-order violations observed (should stay zero; a
    /// nonzero value reproduces the paper's "hundreds of false data races"
    /// failure mode when atomic timestamping is broken).
    pub timestamp_violations: u64,
}

impl HbDetector {
    /// Creates a detector with default configuration.
    pub fn new() -> HbDetector {
        HbDetector::with_config(HbConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(cfg: HbConfig) -> HbDetector {
        HbDetector {
            core: HbCore::new(cfg),
            records_since_compact: 0,
            records_processed: 0,
            last_ts: HashMap::new(),
            timestamp_violations: 0,
        }
    }

    /// Total records processed so far (including any processed before the
    /// checkpoint a resumed detector started from).
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    /// Processes one log record.
    ///
    /// `inline(always)`: called once per record from every driver loop;
    /// without the hint LLVM leaves a per-record call boundary (the
    /// function has many callers), forcing detector state back to memory
    /// every record.
    #[inline(always)]
    pub fn process(&mut self, record: &Record) {
        match *record {
            Record::Sync {
                tid,
                kind,
                var,
                timestamp,
                ..
            } => {
                let last = self.last_ts.entry(var).or_insert(0);
                if timestamp < *last {
                    self.timestamp_violations += 1;
                }
                *last = (*last).max(timestamp);
                self.core.sync(tid, kind, var);
            }
            Record::Mem {
                tid,
                pc,
                addr,
                is_write,
                ..
            } => self.core.access(tid, pc, addr, is_write),
            Record::ThreadBegin { .. } => {}
            Record::ThreadEnd { tid } => {
                self.core.retire_thread(tid);
                self.records_since_compact = 0;
                self.core.compact();
            }
        }
        self.records_processed += 1;
        self.records_since_compact += 1;
        if self.records_since_compact >= COMPACT_INTERVAL {
            self.records_since_compact = 0;
            self.core.compact();
        }
    }

    /// Processes an entire log.
    pub fn process_log(&mut self, log: &EventLog) {
        for r in log {
            self.process(r);
        }
    }

    /// Finishes, producing the report.
    pub fn finish(self, non_stack_accesses: u64) -> RaceReport {
        self.core.finish(non_stack_accesses)
    }

    /// Turns on race-provenance capture (see
    /// [`HbCore::enable_provenance`]).
    pub fn enable_provenance(&mut self) {
        self.core.enable_provenance();
    }

    /// Finishes, returning the report and — when provenance capture was
    /// enabled — one [`RaceEvidence`](crate::RaceEvidence) per static pair.
    pub fn finish_full(
        self,
        non_stack_accesses: u64,
    ) -> (RaceReport, Option<ProvenanceReport>) {
        self.core.finish_full(non_stack_accesses)
    }
}

impl Default for HbDetector {
    fn default() -> HbDetector {
        HbDetector::new()
    }
}

/// One-shot convenience: detect races in a log.
pub fn detect(log: &EventLog, non_stack_accesses: u64) -> RaceReport {
    let mut d = HbDetector::new();
    d.process_log(log);
    d.finish(non_stack_accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pc, t};
    use literace_log::SamplerMask;

    fn a(i: u64) -> Addr {
        Addr::global(i)
    }
    fn v(i: u64) -> SyncVar {
        SyncVar(0x2000_0000 + i)
    }

    fn mem(tid: ThreadId, pcv: usize, addr: Addr, w: bool) -> Record {
        Record::Mem {
            tid,
            pc: pc(pcv),
            addr,
            is_write: w,
            mask: SamplerMask::FULL,
        }
    }

    fn sync(tid: ThreadId, kind: SyncOpKind, var: SyncVar, ts: u64) -> Record {
        Record::Sync {
            tid,
            pc: pc(99),
            kind,
            var,
            timestamp: ts,
        }
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        let report = detect(&log, 2);
        assert_eq!(report.static_count(), 1);
        assert_eq!(report.dynamic_races, 1);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        // Figure 1 (left): write, unlock ... lock, write.
        let log: EventLog = vec![
            sync(t(0), SyncOpKind::LockAcquire, v(0), 1),
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::LockRelease, v(0), 2),
            sync(t(1), SyncOpKind::LockAcquire, v(0), 3),
            mem(t(1), 2, a(0), true),
            sync(t(1), SyncOpKind::LockRelease, v(0), 4),
        ]
        .into_iter()
        .collect();
        let report = detect(&log, 2);
        assert_eq!(report.static_count(), 0);
    }

    #[test]
    fn missing_sync_record_creates_false_race() {
        // Figure 2: dropping the unlock/lock records loses the HB edge and a
        // (false) race is reported — the reason LiteRace never samples sync.
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            // unlock by t0 and lock by t1 NOT logged
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        let report = detect(&log, 2);
        assert_eq!(report.static_count(), 1, "demonstrates Figure 2");
    }

    #[test]
    fn read_read_is_not_a_race() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), false),
            mem(t(1), 2, a(0), false),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0);
    }

    #[test]
    fn write_read_races_both_orders() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            mem(t(1), 2, a(0), false),
            mem(t(0), 3, a(1), false),
            mem(t(1), 4, a(1), true),
        ]
        .into_iter()
        .collect();
        let report = detect(&log, 4);
        assert_eq!(report.static_count(), 2);
    }

    #[test]
    fn same_thread_never_races() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            mem(t(0), 2, a(0), true),
            mem(t(0), 3, a(0), false),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 3).static_count(), 0);
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let child_var = SyncVar(1);
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::Fork, child_var, 1),
            sync(t(1), SyncOpKind::ThreadStart, child_var, 2),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0);
    }

    #[test]
    fn join_orders_child_before_parent() {
        let child_var = SyncVar(1);
        let log: EventLog = vec![
            sync(t(0), SyncOpKind::Fork, child_var, 1),
            sync(t(1), SyncOpKind::ThreadStart, child_var, 2),
            mem(t(1), 1, a(0), true),
            sync(t(1), SyncOpKind::ThreadExit, child_var, 3),
            sync(t(0), SyncOpKind::Join, child_var, 4),
            mem(t(0), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0);
    }

    #[test]
    fn notify_wait_creates_edge() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::Notify, v(3), 1),
            sync(t(1), SyncOpKind::WaitReturn, v(3), 2),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0);
    }

    #[test]
    fn atomic_rmw_totally_orders_participants() {
        let flag = SyncVar(Addr::global(9).raw());
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::AtomicRmw, flag, 1),
            sync(t(1), SyncOpKind::AtomicRmw, flag, 2),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0);
    }

    #[test]
    fn alloc_page_sync_prevents_reuse_false_positive() {
        // §4.3: thread 0 writes its allocation, frees it; thread 1 gets the
        // same address back. AllocPage sync on free/alloc orders them.
        let page = SyncVar(0x4000_0000 / 4096);
        let log: EventLog = vec![
            mem(t(0), 1, Addr(0x4000_0000), true),
            sync(t(0), SyncOpKind::AllocPage, page, 1), // free
            sync(t(1), SyncOpKind::AllocPage, page, 2), // realloc
            mem(t(1), 2, Addr(0x4000_0000), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0);
    }

    #[test]
    fn transitivity_across_two_locks() {
        // t0 -> (lock A) -> t1 -> (lock B) -> t2: t0's write HB t2's write.
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::LockRelease, v(0), 1),
            sync(t(1), SyncOpKind::LockAcquire, v(0), 2),
            sync(t(1), SyncOpKind::LockRelease, v(1), 1),
            sync(t(2), SyncOpKind::LockAcquire, v(1), 2),
            mem(t(2), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect(&log, 2).static_count(), 0, "HB3 transitivity");
    }

    #[test]
    fn frontier_reports_multiple_static_pairs_per_address() {
        // Three concurrent writers at distinct PCs: every pair races.
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            mem(t(1), 2, a(0), true),
            mem(t(2), 3, a(0), true),
        ]
        .into_iter()
        .collect();
        let report = detect(&log, 3);
        assert_eq!(report.static_count(), 3); // (1,2) (1,3) (2,3)
    }

    #[test]
    fn timestamp_violations_are_counted() {
        let mut d = HbDetector::new();
        d.process(&sync(t(0), SyncOpKind::LockAcquire, v(0), 5));
        d.process(&sync(t(0), SyncOpKind::LockRelease, v(0), 3));
        assert_eq!(d.timestamp_violations, 1);
    }

    #[test]
    fn dynamic_counts_accumulate_per_static_pair() {
        let mut records = Vec::new();
        for _ in 0..10 {
            records.push(mem(t(0), 1, a(0), true));
            records.push(mem(t(1), 2, a(0), true));
        }
        let log: EventLog = records.into_iter().collect();
        let report = detect(&log, 20);
        assert_eq!(report.static_count(), 1);
        assert!(report.static_races[0].count >= 10);
    }

    #[test]
    fn provenance_captures_epochs_and_the_failed_edge() {
        // t0 writes, releases a lock; t1 writes without acquiring it: the
        // race's failed edge is t0's release.
        let mut d = HbDetector::new();
        d.enable_provenance();
        d.process(&mem(t(0), 1, a(0), true));
        d.process(&sync(t(0), SyncOpKind::LockRelease, v(0), 1));
        d.process(&mem(t(1), 2, a(0), false));
        let (report, prov) = d.finish_full(2);
        assert_eq!(report.static_count(), 1);
        let prov = prov.expect("capture was enabled");
        let ev = prov.find(report.static_races[0].pcs).expect("evidence");
        assert_eq!(ev.prior.tid, t(0));
        assert!(ev.prior.is_write);
        assert_eq!(ev.prior.epoch, 1, "t0's clock at the write");
        assert_eq!(ev.current.tid, t(1));
        assert!(!ev.current.is_write);
        assert_eq!(ev.clock_seen, 0, "t1 never saw t0");
        let edge = ev.failed_edge.expect("t0 released after the write");
        assert_eq!(edge.var, v(0));
        assert_eq!(edge.kind, SyncOpKind::LockRelease);
        assert_eq!(edge.release_epoch, 1);
    }

    #[test]
    fn provenance_reports_no_edge_when_none_existed() {
        let mut d = HbDetector::new();
        d.enable_provenance();
        d.process(&mem(t(0), 1, a(0), true));
        d.process(&mem(t(1), 2, a(0), true));
        let (report, prov) = d.finish_full(2);
        assert_eq!(report.static_count(), 1);
        let prov = prov.unwrap();
        assert_eq!(prov.races.len(), 1);
        assert_eq!(prov.races[0].failed_edge, None);
    }

    #[test]
    fn provenance_capture_leaves_the_report_byte_identical() {
        let records = vec![
            sync(t(0), SyncOpKind::LockAcquire, v(0), 1),
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::LockRelease, v(0), 2),
            mem(t(1), 2, a(0), true),
            mem(t(2), 3, a(1), false),
            mem(t(1), 4, a(1), true),
        ];
        let log: EventLog = records.into_iter().collect();
        let plain = detect(&log, 6);
        let mut d = HbDetector::new();
        d.enable_provenance();
        d.process_log(&log);
        let (with_prov, prov) = d.finish_full(6);
        assert_eq!(plain, with_prov);
        // Every reported static pair has evidence.
        let prov = prov.unwrap();
        for s in &with_prov.static_races {
            assert!(prov.find(s.pcs).is_some(), "missing evidence for {s}");
        }
    }

    #[test]
    fn provenance_disabled_returns_none() {
        let mut d = HbDetector::new();
        d.process(&mem(t(0), 1, a(0), true));
        d.process(&mem(t(1), 2, a(0), true));
        let (report, prov) = d.finish_full(2);
        assert_eq!(report.static_count(), 1);
        assert!(prov.is_none());
    }

    #[test]
    fn history_cap_bounds_memory() {
        let cfg = HbConfig {
            max_history_per_location: 4,
            ..HbConfig::default()
        };
        let mut d = HbDetector::with_config(cfg);
        // 100 concurrent readers of one address.
        for i in 0..100 {
            d.process(&mem(t(i), i, a(0), false));
        }
        assert_eq!(d.core.tracked_locations(), 1);
        let report = d.finish(100);
        // No writes, no races.
        assert_eq!(report.static_count(), 0);
    }
}
