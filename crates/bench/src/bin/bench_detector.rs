//! Measures offline-detector throughput and writes `BENCH_detector.json`
//! so future PRs can track the hot path.
//!
//! Four configurations are timed over identical full-logging event logs:
//!
//! * **seed** — a faithful replica of the original sequential detector
//!   (one full `VectorClock` clone per memory access, clone-heavy
//!   acquire/release, SipHash maps, double-resolving increment);
//! * **vcfrontier** — the pre-epoch sequential detector (clone-free
//!   accesses, fast hasher, per-location `Vec<Access>` frontiers): the
//!   self-relative baseline the adaptive epoch engine must beat;
//! * **sequential** — today's `detect` (adaptive epoch access history);
//! * **sharded-N** — `detect_sharded` at 2, 4 and 8 worker threads.
//!
//! Beyond throughput the run records the detector's **peak allocated
//! bytes** (via a counting global allocator) for the vcfrontier and epoch
//! engines, and the epoch engine's escalation/memo statistics from the
//! telemetry registry — the escalation *rate* is what makes the O(1)
//! inline representation pay.
//!
//! Events/sec counts *log records processed*. Numbers are best-of-`repeats`
//! wall-clock; on a single-core host the sharded rows measure scheduling
//! overhead rather than parallel speedup, so the honest headline there is
//! sharded vs the seed path (both reported).
//!
//! The checkpoint columns size a midpoint snapshot of each workload's
//! detector state (sealed bytes, serialize/parse MB/s) and time a full
//! resume — parse the sealed bytes, rebuild the detector, replay the
//! suffix — whose report is asserted byte-identical to one-shot
//! detection. `--check-resume-overhead` gates the resumed record rate at
//! ≥ 0.9× the one-shot sequential rate, self-relative in the same run.
//!
//! Usage: `bench_detector [--scale smoke|paper] [--seeds N]
//! [--workloads a,b,c] [--out PATH] [--repeats N] [--check-epoch-vs-vc]
//! [--check-resume-overhead]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use literace::detector::{
    detect, detect_sharded, Checkpoint, DetectConfig, HbDetector, RaceReport, VectorClock,
};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{EventLog, Record};
use literace::prelude::*;
use literace::sim::{
    lower, Addr, ChunkedRandomScheduler, Machine, MachineConfig, Pc, SyncOpKind, SyncVar,
    ThreadId,
};

/// Byte-counting allocator wrapper: tracks live and peak heap bytes so the
/// bench can report the detectors' peak memory without OS-level sampling.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grew = new_size - layout.size();
                let live = LIVE_BYTES.fetch_add(grew, Ordering::Relaxed) + grew;
                PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap bytes allocated *by `f`* over the pre-call baseline.
fn peak_alloc_during<F: FnOnce()>(f: F) -> usize {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    f();
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base)
}

/// The seed detector, reproduced from the repository's initial commit so
/// the baseline stays measurable after the hot path changed. Every memory
/// access clones the thread's full vector clock; acquire and release clone
/// through the borrow checker; all maps use the std SipHash hasher.
mod seed {
    use super::*;

    #[derive(Clone, Copy)]
    struct Access {
        tid: ThreadId,
        epoch: u64,
        pc: Pc,
        is_write: bool,
    }

    #[derive(Default)]
    struct LocState {
        reads: Vec<Access>,
        writes: Vec<Access>,
    }

    const MAX_HISTORY: usize = 128;
    const MAX_DYNAMIC_PER_PAIR: usize = 1 << 20;
    const COMPACT_INTERVAL: u64 = 1 << 18;

    /// The seed's record of one dynamic race occurrence.
    #[allow(dead_code)] // kept whole: the seed built one per race
    struct DynamicRace {
        first_pc: Pc,
        second_pc: Pc,
        addr: Addr,
        first_tid: ThreadId,
        second_tid: ThreadId,
        first_is_write: bool,
        second_is_write: bool,
    }

    impl DynamicRace {
        /// The unordered, normalized PC pair identifying the static race.
        fn static_key(&self) -> (Pc, Pc) {
            if self.first_pc <= self.second_pc {
                (self.first_pc, self.second_pc)
            } else {
                (self.second_pc, self.first_pc)
            }
        }
    }

    #[derive(Default)]
    pub struct SeedDetector {
        threads: Vec<VectorClock>,
        retired: Vec<bool>,
        syncvars: HashMap<SyncVar, VectorClock>,
        locations: HashMap<u64, LocState>,
        races: Vec<DynamicRace>,
        overflow: HashMap<(Pc, Pc), u64>,
        pair_counts: HashMap<(Pc, Pc), u64>,
        last_ts: HashMap<SyncVar, u64>,
        records_since_compact: u64,
    }

    impl SeedDetector {
        fn clock_mut(&mut self, tid: ThreadId) -> &mut VectorClock {
            let i = tid.index();
            if i >= self.threads.len() {
                for j in self.threads.len()..=i {
                    let mut c = VectorClock::new();
                    c.set(ThreadId::from_index(j), 1);
                    self.threads.push(c);
                }
            }
            &mut self.threads[i]
        }

        fn sync(&mut self, tid: ThreadId, kind: SyncOpKind, var: SyncVar) {
            if kind == SyncOpKind::Fork {
                let child = ThreadId::from_index(var.0 as usize);
                let _ = self.clock_mut(child);
            }
            let acquire = kind.is_acquire();
            let release = kind.is_release();
            if acquire {
                if let Some(l) = self.syncvars.get(&var) {
                    let l = l.clone();
                    self.clock_mut(tid).join(&l);
                } else {
                    let _ = self.clock_mut(tid);
                }
            }
            if release {
                let c = self.clock_mut(tid).clone();
                self.syncvars.entry(var).or_default().join(&c);
                // The seed's increment resolved the index twice (get + set).
                let clock = self.clock_mut(tid);
                let cur = clock.get(tid);
                clock.set(tid, cur + 1);
            }
        }

        fn access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool) {
            let clock = self.clock_mut(tid).clone();
            let epoch = clock.get(tid);
            let current = Access {
                tid,
                epoch,
                pc,
                is_write,
            };
            let loc = self.locations.entry(addr.raw()).or_default();
            let mut conflicts: Vec<Access> = Vec::new();
            for w in &loc.writes {
                if w.tid != tid && clock.get(w.tid) < w.epoch {
                    conflicts.push(*w);
                }
            }
            if is_write {
                for r in &loc.reads {
                    if r.tid != tid && clock.get(r.tid) < r.epoch {
                        conflicts.push(*r);
                    }
                }
            }
            if is_write {
                loc.writes.retain(|w| clock.get(w.tid) < w.epoch);
                loc.reads.retain(|r| clock.get(r.tid) < r.epoch);
                loc.writes.push(current);
                cap(&mut loc.writes, MAX_HISTORY);
            } else {
                loc.reads.retain(|r| clock.get(r.tid) < r.epoch);
                loc.reads.push(current);
                cap(&mut loc.reads, MAX_HISTORY);
            }
            for prior in conflicts {
                let race = DynamicRace {
                    first_pc: prior.pc,
                    second_pc: pc,
                    addr,
                    first_tid: prior.tid,
                    second_tid: tid,
                    first_is_write: prior.is_write,
                    second_is_write: is_write,
                };
                let key = race.static_key();
                let n = self.pair_counts.entry(key).or_insert(0);
                *n += 1;
                if (*n as usize) <= MAX_DYNAMIC_PER_PAIR {
                    self.races.push(race);
                } else {
                    *self.overflow.entry(key).or_insert(0) += 1;
                }
            }
        }

        fn compact(&mut self) {
            let live: Vec<&VectorClock> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.retired.get(*i).copied().unwrap_or(false))
                .map(|(_, c)| c)
                .collect();
            let covered =
                |a: &Access| -> bool { live.iter().all(|c| c.get(a.tid) >= a.epoch) };
            self.locations.retain(|_, loc| {
                loc.reads.retain(|r| !covered(r));
                loc.writes.retain(|w| !covered(w));
                !(loc.reads.is_empty() && loc.writes.is_empty())
            });
        }

        pub fn process_log(&mut self, log: &EventLog) {
            for record in log {
                match *record {
                    Record::Sync {
                        tid,
                        kind,
                        var,
                        timestamp,
                        ..
                    } => {
                        let last = self.last_ts.entry(var).or_insert(0);
                        *last = (*last).max(timestamp);
                        self.sync(tid, kind, var);
                    }
                    Record::Mem {
                        tid,
                        pc,
                        addr,
                        is_write,
                        ..
                    } => self.access(tid, pc, addr, is_write),
                    Record::ThreadBegin { .. } => {}
                    Record::ThreadEnd { tid } => {
                        let i = tid.index();
                        if i >= self.retired.len() {
                            self.retired.resize(i + 1, false);
                        }
                        self.retired[i] = true;
                        self.records_since_compact = 0;
                        self.compact();
                    }
                }
                self.records_since_compact += 1;
                if self.records_since_compact >= COMPACT_INTERVAL {
                    self.records_since_compact = 0;
                    self.compact();
                }
            }
        }

        /// Static race count, to sanity-check agreement with today's path.
        pub fn static_count(&self) -> usize {
            let keys: std::collections::HashSet<(Pc, Pc)> =
                self.races.iter().map(DynamicRace::static_key).collect();
            keys.len()
        }
    }

    fn cap(v: &mut Vec<Access>, max: usize) {
        if v.len() > max {
            let excess = v.len() - max;
            v.drain(0..excess);
        }
    }
}

/// The pre-epoch sequential detector, reproduced exactly as it ran before
/// the adaptive epoch access history landed: clone-free per-access clock
/// borrows, fast-hashed maps, online pair aggregation — but per-location
/// `Vec<Access>` read/write frontiers for *every* location. The epoch
/// engine's "≥1.5× on memory-heavy workloads" claim is measured against
/// this, not against the much slower seed replica.
mod vcfrontier {
    use super::*;
    use literace::detector::fast_hash::{FastMap, FastSet};
    use literace::detector::StaticRace;

    #[derive(Clone, Copy)]
    struct Access {
        tid: ThreadId,
        epoch: u64,
        pc: Pc,
    }

    #[derive(Default)]
    struct LocState {
        reads: Vec<Access>,
        writes: Vec<Access>,
    }

    const MAX_HISTORY: usize = 128;
    const MAX_DYNAMIC_PER_PAIR: u64 = 1 << 20;
    const COMPACT_INTERVAL: u64 = 1 << 18;

    struct PairAgg {
        stored: u64,
        overflow: u64,
        example_addr: Addr,
        addrs: FastSet<Addr>,
    }

    #[derive(Default)]
    pub struct VcDetector {
        threads: Vec<VectorClock>,
        retired: Vec<bool>,
        syncvars: FastMap<SyncVar, VectorClock>,
        locations: FastMap<u64, LocState>,
        pairs: FastMap<(Pc, Pc), PairAgg>,
        last_ts: HashMap<SyncVar, u64>,
        records_since_compact: u64,
        /// The pre-epoch hot path sampled scan lengths too — keep it so
        /// the baseline pays the same bookkeeping as the epoch engine.
        scan: literace::telemetry::ScanSampler,
    }

    impl VcDetector {
        fn ensure_thread(&mut self, tid: ThreadId) -> usize {
            let i = tid.index();
            if i >= self.threads.len() {
                for j in self.threads.len()..=i {
                    let mut c = VectorClock::new();
                    c.set(ThreadId::from_index(j), 1);
                    self.threads.push(c);
                }
            }
            i
        }

        fn sync(&mut self, tid: ThreadId, kind: SyncOpKind, var: SyncVar) {
            if kind == SyncOpKind::Fork {
                let child = ThreadId::from_index(var.0 as usize);
                self.ensure_thread(child);
            }
            let i = self.ensure_thread(tid);
            if kind.is_acquire() {
                if let Some(l) = self.syncvars.get(&var) {
                    self.threads[i].join(l);
                }
            }
            if kind.is_release() {
                self.syncvars
                    .entry(var)
                    .or_default()
                    .join(&self.threads[i]);
                self.threads[i].increment(tid);
            }
        }

        fn access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool) {
            let i = self.ensure_thread(tid);
            let VcDetector {
                threads,
                locations,
                pairs,
                scan,
                ..
            } = self;
            let clock = &threads[i];
            let current = Access {
                tid,
                epoch: clock.get(tid),
                pc,
            };
            let loc = locations.entry(addr.raw()).or_default();
            scan.record((loc.writes.len() + loc.reads.len()) as u64);
            let mut conflict = |prior: Access| {
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
                if agg.stored < MAX_DYNAMIC_PER_PAIR {
                    agg.stored += 1;
                    agg.addrs.insert(addr);
                } else {
                    agg.overflow += 1;
                }
            };
            if is_write {
                loc.writes.retain(|w| {
                    let keep = clock.get(w.tid) < w.epoch;
                    if keep && w.tid != tid {
                        conflict(*w);
                    }
                    keep
                });
                loc.reads.retain(|r| {
                    let keep = clock.get(r.tid) < r.epoch;
                    if keep && r.tid != tid {
                        conflict(*r);
                    }
                    keep
                });
                loc.writes.push(current);
                cap(&mut loc.writes, MAX_HISTORY);
            } else {
                for w in &loc.writes {
                    if w.tid != tid && clock.get(w.tid) < w.epoch {
                        conflict(*w);
                    }
                }
                loc.reads.retain(|r| clock.get(r.tid) < r.epoch);
                loc.reads.push(current);
                cap(&mut loc.reads, MAX_HISTORY);
            }
        }

        fn compact(&mut self) {
            let live: Vec<&VectorClock> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.retired.get(*i).copied().unwrap_or(false))
                .map(|(_, c)| c)
                .collect();
            let covered =
                |a: &Access| -> bool { live.iter().all(|c| c.get(a.tid) >= a.epoch) };
            self.locations.retain(|_, loc| {
                loc.reads.retain(|r| !covered(r));
                loc.writes.retain(|w| !covered(w));
                !(loc.reads.is_empty() && loc.writes.is_empty())
            });
        }

        pub fn process_log(&mut self, log: &EventLog) {
            for record in log {
                match *record {
                    Record::Sync {
                        tid,
                        kind,
                        var,
                        timestamp,
                        ..
                    } => {
                        let last = self.last_ts.entry(var).or_insert(0);
                        *last = (*last).max(timestamp);
                        self.sync(tid, kind, var);
                    }
                    Record::Mem {
                        tid,
                        pc,
                        addr,
                        is_write,
                        ..
                    } => self.access(tid, pc, addr, is_write),
                    Record::ThreadBegin { .. } => {}
                    Record::ThreadEnd { tid } => {
                        let i = tid.index();
                        if i >= self.retired.len() {
                            self.retired.resize(i + 1, false);
                        }
                        self.retired[i] = true;
                        self.records_since_compact = 0;
                        self.compact();
                    }
                }
                self.records_since_compact += 1;
                if self.records_since_compact >= COMPACT_INTERVAL {
                    self.records_since_compact = 0;
                    self.compact();
                }
            }
        }

        pub fn finish(self, non_stack_accesses: u64) -> RaceReport {
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
            RaceReport {
                static_races,
                dynamic_races,
                non_stack_accesses,
            }
        }
    }

    fn cap(v: &mut Vec<Access>, max: usize) {
        if v.len() > max {
            let excess = v.len() - max;
            v.drain(0..excess);
        }
    }
}
fn workload_log(id: WorkloadId, scale: Scale, seed: u64) -> (EventLog, u64) {
    let w = build(id, scale);
    let compiled = lower(&w.program);
    let mut inst =
        Instrumenter::new(SamplerKind::Always.build(seed), InstrumentConfig::default());
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 64), &mut inst)
        .expect("workload runs");
    (inst.finish().log, summary.non_stack_accesses)
}

/// Best-of-`repeats` wall-clock seconds for `f`.
fn time_best<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn events_per_sec(records: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        records as f64 / secs
    }
}

struct Row {
    name: String,
    records: usize,
    mem_records: usize,
    seed_eps: f64,
    vcfrontier_eps: f64,
    sequential_eps: f64,
    sharded_eps: Vec<(usize, f64)>,
    peak_vc_bytes: usize,
    peak_epoch_bytes: usize,
    escalations: u64,
    deescalations: u64,
    memo_hits: u64,
    resident_hwm: u64,
    checkpoint: CheckpointCols,
}

/// Checkpoint size and save/load/resume throughput for one workload, all
/// measured at the log's midpoint (the worst case for live state: nothing
/// has retired or compacted away yet).
struct CheckpointCols {
    bytes: usize,
    save_mbps: f64,
    load_mbps: f64,
    resumed_eps: f64,
    /// `resumed_eps / sequential_eps` — the self-relative gate input.
    resume_ratio: f64,
}

/// Measures checkpoint size, serialization/parse throughput, and the
/// resumed-detection rate against the one-shot sequential rate (the
/// resumed run replays the suffix after a midpoint checkpoint; byte
/// identity with the one-shot report is asserted, not assumed).
fn checkpoint_cols(
    log: &EventLog,
    non_stack: u64,
    sequential_eps: f64,
    repeats: usize,
    expected: &RaceReport,
) -> CheckpointCols {
    let records = log.records();
    let mid = records.len() / 2;
    let mut first = HbDetector::new();
    for r in &records[..mid] {
        first.process(r);
    }
    let cp = first.save_checkpoint(non_stack);

    let mut bytes = Vec::new();
    let save_secs = time_best(repeats, || bytes = cp.to_bytes());
    let load_secs = time_best(repeats, || {
        let back = Checkpoint::from_bytes(&bytes).expect("sealed checkpoint loads");
        assert_eq!(back.records_processed(), mid as u64);
    });

    let suffix: EventLog = records[mid..].iter().copied().collect();
    let mut resumed_report: Option<RaceReport> = None;
    // The timed resume includes the full production path: parse + validate
    // the sealed bytes, rebuild the detector, replay the suffix, finish.
    let resumed_secs = time_best(repeats, || {
        let back = Checkpoint::from_bytes(&bytes).expect("sealed checkpoint loads");
        let mut d = HbDetector::resume(&back);
        d.process_log(&suffix);
        resumed_report = Some(d.finish(non_stack));
    });
    assert_eq!(
        resumed_report.as_ref().expect("resumed ran"),
        expected,
        "resumed detection must be byte-identical to one-shot"
    );

    let mbps = |secs: f64| {
        if secs <= 0.0 {
            0.0
        } else {
            bytes.len() as f64 / secs / (1024.0 * 1024.0)
        }
    };
    let resumed_eps = events_per_sec(suffix.len(), resumed_secs);
    CheckpointCols {
        bytes: bytes.len(),
        save_mbps: mbps(save_secs),
        load_mbps: mbps(load_secs),
        resumed_eps,
        resume_ratio: if sequential_eps > 0.0 {
            resumed_eps / sequential_eps
        } else {
            0.0
        },
    }
}

impl Row {
    /// Escalated locations per memory record: the fraction of accesses
    /// that forced the epoch engine off its O(1) inline representation.
    fn escalation_rate(&self) -> f64 {
        if self.mem_records == 0 {
            0.0
        } else {
            self.escalations as f64 / self.mem_records as f64
        }
    }
}

/// The epoch engine's internal statistics for one log, read back through
/// the telemetry registry from a single untimed run.
fn epoch_stats(log: &EventLog, non_stack: u64) -> (u64, u64, u64, u64) {
    literace::telemetry::set_enabled(true);
    let m = literace::telemetry::metrics();
    m.reset();
    let _ = detect(log, non_stack);
    let out = (
        m.detector_epoch_escalations.get(),
        m.detector_epoch_deescalations.get(),
        m.detector_epoch_memo_hits.get(),
        m.detector_epoch_resident_shared.get(),
    );
    literace::telemetry::set_enabled(false);
    m.reset();
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let mut out_path = "BENCH_detector.json".to_owned();
    let mut repeats = 5usize;
    let mut scale = Scale::Smoke;
    let mut seeds = vec![1u64];
    let mut workloads: Option<Vec<WorkloadId>> = None;
    let mut check_epoch_vs_vc = false;
    let mut check_resume_overhead = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out expects a path").clone();
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--repeats expects a number");
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => panic!("--scale expects smoke|paper, got {other:?}"),
                };
            }
            "--seeds" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds expects a number");
                seeds = (1..=n).collect();
            }
            "--workloads" => {
                i += 1;
                let list = args.get(i).expect("--workloads expects a list");
                workloads = Some(
                    list.split(',')
                        .map(|s| {
                            WorkloadId::from_name(s)
                                .unwrap_or_else(|| panic!("unknown workload {s}"))
                        })
                        .collect(),
                );
            }
            "--check-epoch-vs-vc" => check_epoch_vs_vc = true,
            "--check-resume-overhead" => check_resume_overhead = true,
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let workloads = workloads.unwrap_or_else(|| {
        vec![
            WorkloadId::Apache1,
            WorkloadId::Apache2,
            WorkloadId::Dryad,
            WorkloadId::DryadStdlib,
        ]
    });
    let thread_counts = [2usize, 4, 8];

    let mut rows = Vec::new();
    for &id in &workloads {
        // Concatenate one full log per seed so the measured stream is big
        // enough to dominate timer noise.
        let mut log = EventLog::new();
        let mut non_stack = 0u64;
        for &seed in &seeds {
            let (l, ns) = workload_log(id, scale, seed);
            for r in &l {
                log.push(*r);
            }
            non_stack += ns;
        }
        let records = log.len();
        let mem_records = log
            .iter()
            .filter(|r| matches!(r, Record::Mem { .. }))
            .count();

        eprintln!("[bench_detector] {id}: {records} records…");
        let mut seed_det_races = 0usize;
        let seed_secs = time_best(repeats, || {
            let mut d = seed::SeedDetector::default();
            d.process_log(&log);
            seed_det_races = d.static_count();
        });
        // The headline comparison (epoch vs pre-epoch) interleaves its
        // repeats so clock-frequency drift on a shared host cannot bias
        // one engine's phase over the other's.
        let mut vc_report: Option<RaceReport> = None;
        let mut seq_report: Option<RaceReport> = None;
        let mut vc_secs = f64::INFINITY;
        let mut seq_secs = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let t = Instant::now();
            seq_report = Some(detect(&log, non_stack));
            seq_secs = seq_secs.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let mut d = vcfrontier::VcDetector::default();
            d.process_log(&log);
            vc_report = Some(d.finish(non_stack));
            vc_secs = vc_secs.min(t.elapsed().as_secs_f64());
        }
        let seq_report = seq_report.expect("sequential ran");
        assert_eq!(
            seed_det_races,
            seq_report.static_count(),
            "{id}: seed replica and current detector must agree"
        );
        assert_eq!(
            vc_report.expect("vcfrontier ran"),
            seq_report,
            "{id}: pre-epoch replica and epoch engine must be byte-identical"
        );

        let peak_vc_bytes = peak_alloc_during(|| {
            let mut d = vcfrontier::VcDetector::default();
            d.process_log(&log);
            drop(d.finish(non_stack));
        });
        let peak_epoch_bytes = peak_alloc_during(|| {
            drop(detect(&log, non_stack));
        });
        let (escalations, deescalations, memo_hits, resident_hwm) =
            epoch_stats(&log, non_stack);
        let checkpoint = checkpoint_cols(
            &log,
            non_stack,
            events_per_sec(records, seq_secs),
            repeats,
            &seq_report,
        );

        let mut sharded_eps = Vec::new();
        for &threads in &thread_counts {
            let cfg = DetectConfig::with_threads(threads);
            let mut sharded_report: Option<RaceReport> = None;
            let secs = time_best(repeats, || {
                sharded_report = Some(detect_sharded(&log, non_stack, &cfg));
            });
            assert_eq!(
                seq_report,
                sharded_report.expect("sharded ran"),
                "{id}: sharded({threads}) must be byte-identical"
            );
            sharded_eps.push((threads, events_per_sec(records, secs)));
        }

        rows.push(Row {
            name: id.name().to_owned(),
            records,
            mem_records,
            seed_eps: events_per_sec(records, seed_secs),
            vcfrontier_eps: events_per_sec(records, vc_secs),
            sequential_eps: events_per_sec(records, seq_secs),
            sharded_eps,
            peak_vc_bytes,
            peak_epoch_bytes,
            escalations,
            deescalations,
            memo_hits,
            resident_hwm,
            checkpoint,
        });
    }

    // Hand-rolled JSON: the vendored serde stand-in doesn't serialize.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"detector\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!("  \"seeds\": {},\n", seeds.len()));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(
        "  \"notes\": \"events/sec over identical full logs; best of N runs. \
         'seed' replicates the original clone-per-access sequential detector; \
         'vcfrontier' replicates the pre-epoch clone-free detector (Vec \
         frontier per location) — the self-relative baseline for the epoch \
         engine; 'sequential' is today's adaptive epoch hot path; sharded \
         rows add address-sharded workers. All engines are asserted \
         byte-identical during the run. peak_detector_bytes is heap high \
         water over the run's baseline from a counting allocator; \
         epoch_escalation_rate is escalated transitions per memory record. \
         checkpoint_* columns snapshot detector state at the log midpoint: \
         sealed size, serialize/parse MB/s, and the resumed detection rate \
         (parse + rebuild + replay the suffix), asserted byte-identical to \
         one-shot detection; resume_ratio_vs_sequential is the \
         --check-resume-overhead gate input. On a 1-CPU host sharded \
         speedup over 'sequential' is not expected — track sharded vs \
         'seed'.\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (wi, row) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"workload\": \"{}\",\n", row.name));
        json.push_str(&format!("      \"records\": {},\n", row.records));
        json.push_str(&format!("      \"mem_records\": {},\n", row.mem_records));
        json.push_str(&format!(
            "      \"seed_events_per_sec\": {},\n",
            json_f64(row.seed_eps)
        ));
        json.push_str(&format!(
            "      \"vcfrontier_events_per_sec\": {},\n",
            json_f64(row.vcfrontier_eps)
        ));
        json.push_str(&format!(
            "      \"sequential_events_per_sec\": {},\n",
            json_f64(row.sequential_eps)
        ));
        json.push_str("      \"sharded_events_per_sec\": {");
        for (ti, (threads, eps)) in row.sharded_eps.iter().enumerate() {
            json.push_str(&format!("\"{threads}\": {}", json_f64(*eps)));
            if ti + 1 < row.sharded_eps.len() {
                json.push_str(", ");
            }
        }
        json.push_str("},\n");
        let sharded4 = row
            .sharded_eps
            .iter()
            .find(|(t, _)| *t == 4)
            .map_or(0.0, |(_, e)| *e);
        json.push_str(&format!(
            "      \"speedup_sequential_vs_seed\": {},\n",
            json_f64(row.sequential_eps / row.seed_eps)
        ));
        json.push_str(&format!(
            "      \"speedup_epoch_vs_vcfrontier\": {},\n",
            json_f64(row.sequential_eps / row.vcfrontier_eps)
        ));
        json.push_str(&format!(
            "      \"speedup_sharded4_vs_seed\": {},\n",
            json_f64(sharded4 / row.seed_eps)
        ));
        json.push_str(&format!(
            "      \"peak_detector_bytes\": {{\"vcfrontier\": {}, \"epoch\": {}}},\n",
            row.peak_vc_bytes, row.peak_epoch_bytes
        ));
        json.push_str(&format!(
            "      \"epoch_escalations\": {},\n",
            row.escalations
        ));
        json.push_str(&format!(
            "      \"epoch_deescalations\": {},\n",
            row.deescalations
        ));
        json.push_str(&format!(
            "      \"epoch_escalation_rate\": {},\n",
            if row.escalation_rate().is_finite() {
                format!("{:.6}", row.escalation_rate())
            } else {
                "null".to_owned()
            }
        ));
        json.push_str(&format!("      \"epoch_memo_hits\": {},\n", row.memo_hits));
        json.push_str(&format!(
            "      \"epoch_resident_shared_hwm\": {},\n",
            row.resident_hwm
        ));
        json.push_str(&format!(
            "      \"checkpoint_bytes\": {},\n",
            row.checkpoint.bytes
        ));
        json.push_str(&format!(
            "      \"checkpoint_save_mb_per_sec\": {},\n",
            json_f64(row.checkpoint.save_mbps)
        ));
        json.push_str(&format!(
            "      \"checkpoint_load_mb_per_sec\": {},\n",
            json_f64(row.checkpoint.load_mbps)
        ));
        json.push_str(&format!(
            "      \"resumed_events_per_sec\": {},\n",
            json_f64(row.checkpoint.resumed_eps)
        ));
        json.push_str(&format!(
            "      \"resume_ratio_vs_sequential\": {}\n",
            if row.checkpoint.resume_ratio.is_finite() {
                format!("{:.3}", row.checkpoint.resume_ratio)
            } else {
                "null".to_owned()
            }
        ));
        json.push_str("    }");
        if wi + 1 < rows.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("output file is writable");
    eprintln!("[bench_detector] wrote {out_path}");
    for row in &rows {
        println!(
            "{:<16} vcfrontier {:>12.0} ev/s   epoch {:>12.0} ev/s ({:.2}x)   peak {:>7.1} KiB vs {:>7.1} KiB   esc/mem {:.4}",
            row.name,
            row.vcfrontier_eps,
            row.sequential_eps,
            row.sequential_eps / row.vcfrontier_eps,
            row.peak_vc_bytes as f64 / 1024.0,
            row.peak_epoch_bytes as f64 / 1024.0,
            row.escalation_rate(),
        );
        println!(
            "{:<16} checkpoint {:>7.1} KiB   save {:>7.1} MB/s   load {:>7.1} MB/s   resumed {:>12.0} ev/s ({:.2}x one-shot)",
            "",
            row.checkpoint.bytes as f64 / 1024.0,
            row.checkpoint.save_mbps,
            row.checkpoint.load_mbps,
            row.checkpoint.resumed_eps,
            row.checkpoint.resume_ratio,
        );
    }

    if check_epoch_vs_vc {
        // Geometric mean across workloads resists single-workload noise on
        // shared CI runners; both engines ran in this same process, so the
        // comparison is self-relative by construction. The epoch engine
        // runs at parity with the vector-clock frontier on the default
        // workloads (its wins are peak memory and allocation churn), and
        // same-process interleaved ratios still wobble ±5–10% on shared
        // runners — so the gate is a regression guard at 0.9x, not a
        // speedup assertion.
        const MIN_GEOMEAN: f64 = 0.9;
        let n = rows.len().max(1) as f64;
        let geomean = (rows
            .iter()
            .map(|r| (r.sequential_eps / r.vcfrontier_eps).ln())
            .sum::<f64>()
            / n)
            .exp();
        if geomean < MIN_GEOMEAN {
            eprintln!(
                "[bench_detector] FAIL: epoch engine geomean {geomean:.3}x vs \
                 the vector-clock frontier baseline (must be >= {MIN_GEOMEAN}x)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "[bench_detector] check-epoch-vs-vc OK: geomean {geomean:.3}x vs vcfrontier"
        );
    }

    if check_resume_overhead {
        // Resuming parses + validates the sealed checkpoint and rebuilds
        // the detector before the first suffix record; the gate requires
        // that tax to cost under 10% of the one-shot record rate. Both
        // rates come from the same process and the same log, so the check
        // is self-relative and safe on noisy shared runners.
        const MIN_GEOMEAN: f64 = 0.9;
        let n = rows.len().max(1) as f64;
        let geomean = (rows
            .iter()
            .map(|r| r.checkpoint.resume_ratio.max(f64::MIN_POSITIVE).ln())
            .sum::<f64>()
            / n)
            .exp();
        if geomean < MIN_GEOMEAN {
            eprintln!(
                "[bench_detector] FAIL: resumed detection geomean {geomean:.3}x the \
                 one-shot sequential rate (must be >= {MIN_GEOMEAN}x)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "[bench_detector] check-resume-overhead OK: geomean {geomean:.3}x vs one-shot"
        );
    }
}
