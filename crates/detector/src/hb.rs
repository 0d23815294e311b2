//! The happens-before detector (§2.1 of the paper) and its replay stage.
//!
//! Every detection path runs the same two stages:
//!
//! * the **replay stage** ([`Replay`]) owns the thread and sync-variable
//!   clocks (see [`clocks`](crate::clocks)), the record position, the
//!   compaction cadence and the §4.2 timestamp monitor. Its one
//!   [`step`](Replay::step) replays a record's clock algebra and hands
//!   the rest to a shard: each access the shard owns, with its thread's
//!   present clock in place, and each compaction point;
//! * the **shard stage** ([`Shard`](crate::sharded::Shard)) keeps a
//!   per-address frontier of accesses not yet ordered before a later
//!   write (an antichain), so every racing static pair that manifests
//!   against it is counted in one mergeable per-pair aggregate.
//!
//! [`HbDetector`] is the one-shard case, run inline: its replay stage
//! feeds its one shard, which owns every address. The sharded engine (see
//! [`streaming`](crate::streaming)) runs N replicas of the pair, one per
//! worker: each replays every record and checks only the accesses its
//! shard owns. It replays blocks mostly of sync records once, in one
//! inline [`HbDetector`], and moves its state between the two through a
//! checkpoint. An [`HbDetector`] is also a [`RecordSink`]: §4.4's online
//! detection is the instrumenter writing its records straight into one.

use literace_log::{EventLog, Record, RecordSink};

use crate::checkpoint::Checkpoint;
use crate::clocks::ClockState;
use crate::epoch::TidCeilingExceeded;
use crate::provenance::{ProvenanceReport, SyncEdge};
use crate::report::{report, RaceReport, DEFAULT_PAIR_ADDR_CAP};
use crate::sharded::Shard;

/// Tuning knobs for the happens-before detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbConfig {
    /// Upper bound on remembered frontier accesses per location and kind;
    /// beyond it the oldest entries are dropped (bounds memory on
    /// pathological inputs). The frontier is an antichain, so in practice it
    /// stays near the thread count.
    pub max_history_per_location: usize,
    /// Upper bound on the distinct racing addresses remembered per static
    /// pair: a pair's `distinct_addrs` is the smaller of its distinct
    /// racing addresses and this cap. Every occurrence is still counted.
    pub max_dynamic_per_pair: usize,
}

impl Default for HbConfig {
    fn default() -> HbConfig {
        HbConfig {
            max_history_per_location: 128,
            max_dynamic_per_pair: DEFAULT_PAIR_ADDR_CAP,
        }
    }
}

/// Records between automatic frontier compactions. Only the replay
/// stage reads it, so every path compacts at the same stream positions.
pub(crate) const COMPACT_INTERVAL: u64 = 1 << 18;

/// The replay stage: clock state (with the §4.2 timestamp monitor),
/// record position and compaction cadence. A checkpoint stores it as it
/// is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Replay {
    pub(crate) clocks: ClockState,
    /// Records replayed so far, counting those before the checkpoint a
    /// resumed replay started from: the next record's global position.
    pub(crate) pos: u64,
    /// Records since the last compaction point.
    pub(crate) since_compact: u64,
}

impl Replay {
    /// Replays one record: sync records update the clocks, an access
    /// `shard` owns is checked there with its thread's clock, and a
    /// thread exit or every [`COMPACT_INTERVAL`]th record is a compaction
    /// point. Every access materializes its thread, owned or not, so every
    /// replica of a sharded run keeps the same clock state, and every
    /// replica stops at the same record past the tid ceiling.
    ///
    /// `inline(always)`: called once per record from every detection
    /// loop; without the hint LLVM leaves a per-record call boundary,
    /// forcing detector state back to memory every record.
    #[inline(always)]
    pub(crate) fn step(
        &mut self,
        record: &Record,
        shard: &mut Shard,
    ) -> Result<(), TidCeilingExceeded> {
        match *record {
            Record::Sync {
                tid,
                kind,
                var,
                timestamp,
                ..
            } => {
                let released = self.clocks.sync(tid, kind, var, timestamp)?;
                if let (Some(release_epoch), Some(p)) = (released, shard.provenance.as_deref_mut())
                {
                    let edge = SyncEdge {
                        var,
                        kind,
                        release_epoch,
                    };
                    p.record_release(tid.index(), edge);
                }
            }
            Record::Mem {
                tid,
                pc,
                addr,
                is_write,
                ..
            } => {
                let i = self.clocks.ensure_thread(tid)?;
                if shard.owns(addr) {
                    let thread = self.clocks.thread(i);
                    shard.access(
                        self.pos,
                        tid,
                        pc,
                        addr,
                        is_write,
                        &thread.clock,
                        thread.generation,
                    );
                }
            }
            Record::ThreadBegin { .. } => {}
            Record::ThreadEnd { tid } => {
                self.clocks.retire(tid);
                self.since_compact = 0;
                shard.compact(&self.clocks);
            }
        }
        self.pos += 1;
        self.since_compact += 1;
        if self.since_compact >= COMPACT_INTERVAL {
            self.since_compact = 0;
            shard.compact(&self.clocks);
        }
        Ok(())
    }
}

/// Offline happens-before detector over an event log (§4.4: the paper's
/// primary mode — write the log to disk, analyze later): the replay stage
/// feeding one shard inline.
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
    pub(crate) replay: Replay,
    pub(crate) shard: Shard,
}

impl HbDetector {
    /// Creates a detector with default configuration.
    pub fn new() -> HbDetector {
        HbDetector::with_config(HbConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(cfg: HbConfig) -> HbDetector {
        HbDetector::start(cfg, None)
    }

    /// Rebuilds a detector from a checkpoint. Feeding it the records that
    /// followed the checkpointed position yields a report byte-identical
    /// to one-shot detection over the whole stream.
    ///
    /// Each call is one resumed detection, counted into
    /// `detector.checkpoint.resumes`.
    pub fn resume(cp: &Checkpoint) -> HbDetector {
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .detector_checkpoint_resumes
                .add(1);
        }
        HbDetector::start(cp.cfg, Some(cp))
    }

    /// A replay stage and one shard, fresh or as `resume` stopped them.
    /// The sharded engine also starts here when it moves its state inline,
    /// which counts no resume.
    pub(crate) fn start(cfg: HbConfig, resume: Option<&Checkpoint>) -> HbDetector {
        let shard = Shard::seeded(1, cfg, resume)
            .pop()
            .expect("one shard was asked for");
        HbDetector {
            replay: resume.map_or_else(Replay::default, |cp| cp.replay.clone()),
            shard,
        }
    }

    /// Total records processed so far (including any processed before the
    /// checkpoint a resumed detector started from).
    pub fn records_processed(&self) -> u64 {
        self.replay.pos
    }

    /// Timestamp-order violations observed so far (§4.2): sync operations
    /// on one variable logged out of timestamp order. Zero on a sound log.
    pub fn timestamp_violations(&self) -> u64 {
        self.replay.clocks.timestamp_violations
    }

    /// Processes one log record.
    ///
    /// # Panics
    ///
    /// With [`TidCeilingExceeded`]'s message on a thread index above
    /// [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX), which only a corrupt
    /// log holds. The detection engine ([`detect_stream_from`](crate::detect_stream_from))
    /// returns it as an error instead.
    #[inline(always)]
    pub fn process(&mut self, record: &Record) {
        if let Err(e) = self.replay.step(record, &mut self.shard) {
            panic!("{e}");
        }
    }

    /// Processes an entire log.
    ///
    /// # Panics
    ///
    /// As [`process`](HbDetector::process), past the tid ceiling.
    pub fn process_log(&mut self, log: &EventLog) {
        if let Err(e) = self.process_block(log.records()) {
            panic!("{e}");
        }
    }

    /// Processes a block of records: the one per-record loop of every
    /// path that hands the detector records in bulk. Stops at the first
    /// record past the tid ceiling.
    pub(crate) fn process_block(&mut self, records: &[Record]) -> Result<(), TidCeilingExceeded> {
        for record in records {
            self.replay.step(record, &mut self.shard)?;
        }
        Ok(())
    }

    /// Finishes, producing the report.
    ///
    /// `non_stack_accesses` is the rarity denominator of §5.3.1 — the
    /// number of non-stack memory instructions *executed* in the run (not
    /// merely logged).
    pub fn finish(self, non_stack_accesses: u64) -> RaceReport {
        self.finish_full(non_stack_accesses).0
    }

    /// Turns on race-provenance capture: the detector starts tracking each
    /// thread's last release and records, for the first dynamic occurrence
    /// of every static pair, the two access epochs and the sync edge that
    /// failed to order them (retrieved via
    /// [`finish_full`](HbDetector::finish_full)). The [`RaceReport`] is
    /// byte-identical with capture on or off.
    pub fn enable_provenance(&mut self) {
        self.shard.provenance.get_or_insert_with(Box::default);
    }

    /// Finishes, returning the report and — when provenance capture was
    /// enabled — one [`RaceEvidence`](crate::RaceEvidence) per static pair.
    pub fn finish_full(
        mut self,
        non_stack_accesses: u64,
    ) -> (RaceReport, Option<ProvenanceReport>) {
        let provenance = self.shard.provenance.take().map(|p| p.into_report());
        (report(self.shard.finish(), non_stack_accesses), provenance)
    }

    /// Number of addresses with live frontier state (memory footprint).
    pub fn tracked_locations(&self) -> usize {
        self.shard.frontier.tracked_locations()
    }
}

impl Default for HbDetector {
    fn default() -> HbDetector {
        HbDetector::new()
    }
}

/// Online detection (§4.4's "spare core"): the instrumenter's records go
/// straight into the detector, and no log is kept. Under full logging
/// (`InstrumentConfig::full_logging`) the detector sees exactly the
/// records an offline run would write, so both report the same races.
impl RecordSink for HbDetector {
    #[inline]
    fn push(&mut self, record: Record) {
        self.process(&record);
    }
}

/// One-shot convenience: detect races in a log.
///
/// # Panics
///
/// As [`HbDetector::process`], on a thread index above
/// [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX).
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
    use literace_sim::{Addr, SyncOpKind, SyncVar, ThreadId};

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
        assert_eq!(d.timestamp_violations(), 1);
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
        assert_eq!(d.tracked_locations(), 1);
        let report = d.finish(100);
        // No writes, no races.
        assert_eq!(report.static_count(), 0);
    }
}
