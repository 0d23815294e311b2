//! The LiteRace instrumentation pass, as a simulator observer.
//!
//! In the paper, Phoenix rewrites each function into an instrumented and an
//! uninstrumented copy plus a dispatch check (Figure 3). In our substrate
//! the machine runs one copy of each function and asks its observer at
//! every entry which copy the new frame runs ([`Observer::on_entry`]). The
//! entire pass is that [`Observer`]:
//!
//! * at every function entry it runs the sampler (the dispatch check) and
//!   answers with the frame's [`SamplerMask`]. A frame that no sampler
//!   instruments runs the uninstrumented copy: the machine counts its
//!   accesses in the [`RunSummary`] and delivers none of them;
//! * memory accesses of instrumented frames arrive with the frame's mask
//!   and are logged;
//! * synchronization operations are logged from **both** copies, with
//!   logical timestamps (§4.2) — never sampling these is what guarantees no
//!   false positives (Figure 2);
//! * allocations and frees emit page-synchronization records (§4.3);
//! * `total_mem`, the ESR denominator, is the run summary's access count,
//!   taken when the run ends ([`Observer::on_run_end`]).
//!
//! Two configurations observe every frame, whatever its mask: the marked
//! run below, which logs every access, and a prefilter skip table, whose
//! counters count every access it probes.
//!
//! # The §5.3 marked run
//!
//! Two executions of a multithreaded program need not interleave alike, so
//! the paper compares samplers with a modified LiteRace that logs every
//! access, runs every evaluated sampler's dispatch check, and marks which
//! samplers would have logged each access. Here a frame's dispatch decision
//! is a [`SamplerMask`] (bit i set when sampler i runs the instrumented
//! copy), narrowed per access by the prefilter and the loop and access
//! policies. A production run has one sampler and logs an access when its
//! mask is non-empty; the marked run ([`Instrumenter::marked`]) has up to
//! 32 and logs every access with its mask, so the log is the ground truth
//! and subset i is sampler i's production log on the same schedule.

use std::collections::HashMap;

use literace_log::{EventLog, Record, SamplerMask};
use literace_samplers::{BurstState, Sampler};
use literace_sim::{
    alloc_page_var, pages_of, Addr, Dispatch, Event, FuncId, Observer, Pc, RunSummary, SyncOpKind,
    SyncVar, ThreadId,
};

use crate::config::{InstrStats, InstrumentConfig, LoopPolicy, OverheadBreakdown};
use crate::sink::RecordSink;
use crate::timestamps::TimestampBank;

/// Everything a LiteRace run produces. Generic over the record
/// destination: the default materializes an [`EventLog`]; a streaming
/// sink (see [`V2Sink`](crate::V2Sink)) holds a log writer instead.
#[derive(Debug)]
pub struct InstrumentOutput<L = EventLog> {
    /// The record destination (sync always; memory accesses as sampled).
    pub log: L,
    /// Modeled overhead, decomposed as in Figure 6.
    pub overhead: OverheadBreakdown,
    /// Activity counters (ESR numerator/denominator etc.).
    pub stats: InstrStats,
    /// Fraction of timestamp stamps that were contended.
    pub timestamp_contention: f64,
    /// Average modeled cache-line transfers per stamp (the §4.2 cost of
    /// sharing timestamp counters; ~threads−1 for a single global counter).
    pub contention_units_per_stamp: f64,
}

/// One instrumented frame's §7 loop back-off (`LoopPolicy::AdaptiveLoops`
/// only): burst state per loop head, and whether the current iteration is
/// sampled.
#[derive(Debug)]
struct LoopBackoff {
    heads: HashMap<u64, BurstState>,
    iter_sampled: bool,
}

/// The instrumentation observer over one sampler (a production run) or
/// several (the §5.3 marked run), generic over where its records go (`L`,
/// default [`EventLog`]).
#[derive(Debug)]
pub struct Instrumenter<S, L = EventLog> {
    /// Sampler i owns mask bit i.
    samplers: Vec<S>,
    /// Every sampler's bit.
    all: SamplerMask,
    /// The samplers that run behind `cfg.prefilter`: a fully skipped
    /// function has no instrumented copy for them, and a skipped site
    /// clears their bits.
    prefiltered: SamplerMask,
    /// The marked run logs every access, whatever its mask.
    marked: bool,
    /// Every frame is observed, whatever its mask: the marked run logs
    /// every access, and a prefilter table counts every access it probes.
    observe_all: bool,
    cfg: InstrumentConfig,
    bank: TimestampBank,
    log: L,
    /// Under `LoopPolicy::AdaptiveLoops`, each thread's frames, innermost
    /// last: an instrumented frame's back-off, `None` for the others.
    /// Empty under any other loop policy.
    loop_frames: Vec<Vec<Option<LoopBackoff>>>,
    stats: InstrStats,
    overhead: OverheadBreakdown,
    /// Per-thread `[dispatch checks, sampled decisions]`, indexed by thread
    /// id. Plain local adds on the hot path; flushed to the telemetry
    /// registry once, at [`finish`](Instrumenter::finish).
    dispatch_by_thread: Vec<[u64; 2]>,
}

impl<S: Sampler> Instrumenter<S> {
    /// Creates an instrumenter materializing its records in an
    /// [`EventLog`].
    pub fn new(sampler: S, cfg: InstrumentConfig) -> Instrumenter<S> {
        Instrumenter::with_sink(sampler, cfg, EventLog::new())
    }

    /// Creates the §5.3 marked run over `samplers` (sampler i owns mask
    /// bit i). It differs from a production run in one way: it logs every
    /// memory access, whatever its mask, so the log is the ground truth and
    /// [`sampler_subset(i)`](EventLog::sampler_subset) is sampler i's
    /// production log on this schedule. `prefiltered` names the samplers
    /// that run behind `cfg.prefilter`'s skip table.
    ///
    /// # Panics
    ///
    /// Panics unless 1 to 32 samplers are given (the mask width).
    pub fn marked(
        samplers: Vec<S>,
        cfg: InstrumentConfig,
        prefiltered: SamplerMask,
    ) -> Instrumenter<S> {
        assert!(
            !samplers.is_empty() && samplers.len() <= 32,
            "need 1..=32 samplers, got {}",
            samplers.len()
        );
        Instrumenter::build(samplers, cfg, EventLog::new(), prefiltered, true)
    }
}

impl<S: Sampler, L: RecordSink> Instrumenter<S, L> {
    /// Creates an instrumenter emitting records into `sink` as they are
    /// produced — e.g. a [`V2Sink`](crate::V2Sink) writing compact v2 log
    /// blocks straight to a file, with no in-memory log.
    pub fn with_sink(sampler: S, cfg: InstrumentConfig, sink: L) -> Instrumenter<S, L> {
        Instrumenter::build(vec![sampler], cfg, sink, SamplerMask::bit(0), false)
    }

    fn build(
        samplers: Vec<S>,
        cfg: InstrumentConfig,
        log: L,
        prefiltered: SamplerMask,
        marked: bool,
    ) -> Instrumenter<S, L> {
        let all = (0..samplers.len()).fold(SamplerMask::EMPTY, |m, i| m.union(SamplerMask::bit(i)));
        let bank = TimestampBank::with_counters(cfg.timestamp_counters);
        Instrumenter {
            samplers,
            all,
            prefiltered,
            marked,
            observe_all: marked || cfg.prefilter.is_some(),
            cfg,
            bank,
            log,
            loop_frames: Vec::new(),
            stats: InstrStats::default(),
            overhead: OverheadBreakdown::default(),
            dispatch_by_thread: Vec::new(),
        }
    }

    /// Finishes the run, returning the log, overhead and statistics.
    pub fn finish(self) -> InstrumentOutput<L> {
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.instrument_dispatch_checks.add(self.stats.dispatch_checks);
            m.instrument_dispatch_sampled
                .add(self.stats.instrumented_entries);
            m.instrument_mem_executed.add(self.stats.total_mem);
            m.instrument_mem_logged.add(self.stats.logged_mem);
            m.instrument_sync_logged.add(self.stats.sync_records);
            if let Some(table) = &self.cfg.prefilter {
                m.instrument_prefilter_skipped.add(self.stats.prefilter_skipped);
                m.instrument_prefilter_residual
                    .add(self.stats.prefilter_residual);
                m.instrument_prefilter_table_bytes
                    .add(table.table_bytes() as u64);
            }
            for (tid, [checks, sampled]) in self.dispatch_by_thread.iter().enumerate() {
                m.instrument_dispatch_checks_by_thread.add(tid, *checks);
                m.instrument_dispatch_sampled_by_thread.add(tid, *sampled);
            }
        }
        let units_per_stamp = if self.bank.total_stamps == 0 {
            0.0
        } else {
            self.bank.contention_units as f64 / self.bank.total_stamps as f64
        };
        InstrumentOutput {
            log: self.log,
            overhead: self.overhead,
            stats: self.stats,
            timestamp_contention: self.bank.contention_rate(),
            contention_units_per_stamp: units_per_stamp,
        }
    }

    /// The dispatch check at an entry of `func`: the mask of the samplers
    /// that run its instrumented copy. A prefiltered sampler has no
    /// instrumented copy of a fully skipped function and is not consulted
    /// there (its budget state is never perturbed by it); an entry that
    /// consults no sampler pays no check.
    fn dispatch(&mut self, tid: ThreadId, func: FuncId) -> SamplerMask {
        let consulted = match &self.cfg.prefilter {
            Some(table) if table.fully_skips(func) => self.all.minus(self.prefiltered),
            _ => self.all,
        };
        if consulted.is_empty() {
            return SamplerMask::EMPTY;
        }
        self.stats.dispatch_checks += 1;
        self.overhead.dispatch += self.cfg.costs.dispatch_check;
        let mut mask = SamplerMask::EMPTY;
        for (i, sampler) in self.samplers.iter_mut().enumerate() {
            if consulted.contains(i) && sampler.dispatch(tid, func).is_sampled() {
                mask = mask.union(SamplerMask::bit(i));
            }
        }
        let i = tid.index();
        if i >= self.dispatch_by_thread.len() {
            self.dispatch_by_thread.resize(i + 1, [0, 0]);
        }
        self.dispatch_by_thread[i][0] += 1;
        self.dispatch_by_thread[i][1] += u64::from(!mask.is_empty());
        mask
    }

    /// Logs a sync operation: stamps it through the bank at the event and
    /// charges its modeled cost.
    fn log_sync(&mut self, tid: ThreadId, pc: Pc, kind: SyncOpKind, var: SyncVar, alloc: bool) {
        if !self.cfg.sync_logging {
            return;
        }
        let units_before = self.bank.contention_units;
        let timestamp = self.bank.stamp(tid, var);
        let transfer_units = self.bank.contention_units - units_before;
        self.log.push(Record::Sync {
            tid,
            pc,
            kind,
            var,
            timestamp,
        });
        self.stats.sync_records += 1;
        let base = if alloc {
            self.cfg.costs.alloc_sync
        } else {
            self.cfg.costs.sync_log
        };
        // A contended stamp pays one cache-line transfer, however many
        // threads are queued behind it (the queueing itself is what the
        // ablation's `contention_units` metric measures).
        self.overhead.sync_logging += base
            + if transfer_units > 0 {
                self.cfg.costs.contended_stamp
            } else {
                0
            };
    }
}

impl<S: Sampler, L: RecordSink> Observer for Instrumenter<S, L> {
    fn on_event(&mut self, event: &Event) {
        match *event {
            Event::ThreadStart { tid, .. } => {
                if self.cfg.log_markers {
                    self.log.push(Record::ThreadBegin { tid });
                }
            }
            Event::ThreadExit { tid } => {
                if self.cfg.log_markers {
                    self.log.push(Record::ThreadEnd { tid });
                }
            }
            Event::FunctionExit { tid, .. } => {
                if let Some(frames) = self.loop_frames.get_mut(tid.index()) {
                    frames.pop();
                }
            }
            Event::LoopIter { tid, head, .. } => {
                if let LoopPolicy::AdaptiveLoops(schedule) = &self.cfg.loop_policy {
                    let frame = self
                        .loop_frames
                        .get_mut(tid.index())
                        .and_then(|f| f.last_mut());
                    if let Some(Some(backoff)) = frame {
                        let st = backoff.heads.entry(head.0).or_insert_with(BurstState::new);
                        backoff.iter_sampled = st.step(schedule);
                    }
                }
            }
            Event::Sync { tid, pc, kind, var } => {
                self.log_sync(tid, pc, kind, var, false);
            }
            Event::Alloc {
                tid,
                pc,
                base,
                words,
            }
            | Event::Free {
                tid,
                pc,
                base,
                words,
            } => {
                if self.cfg.alloc_sync {
                    for page in pages_of(base, words) {
                        self.log_sync(tid, pc, SyncOpKind::AllocPage, alloc_page_var(page), true);
                    }
                }
            }
            // The machine delivers these through `on_entry` and
            // `on_access`, with the frame's mask.
            Event::FunctionEntry { .. } | Event::MemRead { .. } | Event::MemWrite { .. } => {}
        }
    }

    fn on_entry(&mut self, tid: ThreadId, func: FuncId) -> Dispatch {
        let mask = if self.cfg.dispatch_checks {
            self.dispatch(tid, func)
        } else {
            // Full logging: no dispatch, everything instrumented.
            self.all
        };
        if !mask.is_empty() {
            self.stats.instrumented_entries += 1;
        }
        if let LoopPolicy::AdaptiveLoops(_) = self.cfg.loop_policy {
            let i = tid.index();
            if i >= self.loop_frames.len() {
                self.loop_frames.resize_with(i + 1, Vec::new);
            }
            self.loop_frames[i].push((!mask.is_empty()).then(|| LoopBackoff {
                heads: HashMap::new(),
                iter_sampled: true,
            }));
        }
        if mask.is_empty() && !self.observe_all {
            Dispatch::Skip
        } else {
            Dispatch::Observe(mask.0)
        }
    }

    fn on_access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool, word: u32) {
        let frame = self.loop_frames.get(tid.index()).and_then(|f| f.last());
        let mut mask = match frame {
            Some(Some(LoopBackoff {
                iter_sampled: false,
                ..
            })) => SamplerMask::EMPTY,
            _ => SamplerMask(word),
        };
        // Skip-table probe: a provably ordered site costs one bitset load
        // and is lost to every prefiltered sampler. With a table installed
        // every frame is observed, so the counters cover every access.
        if let Some(table) = &self.cfg.prefilter {
            if table.skips(pc) {
                self.stats.prefilter_skipped += 1;
                mask = mask.minus(self.prefiltered);
            } else {
                self.stats.prefilter_residual += 1;
            }
        }
        if !mask.is_empty() && !self.cfg.access_policy.keeps(addr) {
            mask = SamplerMask::EMPTY;
        }
        if self.marked || !mask.is_empty() {
            self.log.push(Record::Mem {
                tid,
                pc,
                addr,
                is_write,
                mask,
            });
            self.stats.logged_mem += 1;
            self.overhead.mem_logging += self.cfg.costs.mem_log;
        }
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        // Every executed access, from both copies: the ESR denominator,
        // comparable across samplers.
        self.stats.total_mem = summary.data_accesses();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InstrumentCosts;
    use literace_samplers::{AlwaysSampler, NeverSampler, SamplerKind};
    use literace_sim::{
        lower, Machine, MachineConfig, PrefilterTable, ProgramBuilder, RandomScheduler, Rvalue,
    };

    fn run<S: Sampler>(
        sampler: S,
        cfg: InstrumentConfig,
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (InstrumentOutput, literace_sim::RunSummary) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let compiled = lower(&b.build().unwrap());
        let mut inst = Instrumenter::new(sampler, cfg);
        let summary = Machine::new(&compiled, MachineConfig::default())
            .run(&mut RandomScheduler::seeded(0), &mut inst)
            .unwrap();
        (inst.finish(), summary)
    }

    fn racy_two_threads(b: &mut ProgramBuilder) {
        let g = b.global_word("g");
        let m = b.mutex("m");
        let w = b.function("w", 0, move |f| {
            f.lock(m);
            f.write(g);
            f.unlock(m);
            f.loop_(100, |f| {
                f.read(g);
            });
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
    }

    #[test]
    fn full_sampler_logs_every_access() {
        let (out, summary) = run(AlwaysSampler, InstrumentConfig::default(), racy_two_threads);
        assert_eq!(out.stats.total_mem, summary.data_accesses());
        assert_eq!(out.stats.logged_mem, out.stats.total_mem);
        assert!((out.stats.esr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_sampler_logs_sync_but_no_memory() {
        let (out, summary) = run(NeverSampler, InstrumentConfig::default(), racy_two_threads);
        assert_eq!(out.stats.logged_mem, 0);
        assert_eq!(out.log.mem_count(), 0);
        // All sync ops still logged: fork/start/exit/join + locks.
        assert!(out.log.sync_count() as u64 >= summary.sync_ops);
        assert!(out.overhead.mem_logging == 0);
        assert!(out.overhead.sync_logging > 0);
        assert!(out.overhead.dispatch > 0);
    }

    #[test]
    fn sync_records_carry_monotonic_timestamps_per_var() {
        let (out, _) = run(AlwaysSampler, InstrumentConfig::default(), racy_two_threads);
        let mut last: HashMap<u64, u64> = HashMap::new();
        for r in &out.log {
            if let Record::Sync { var, timestamp, .. } = r {
                let prev = last.entry(var.0).or_insert(0);
                assert!(timestamp > prev, "timestamp regressed on {var}");
                *prev = *timestamp;
            }
        }
    }

    #[test]
    fn dispatch_cost_is_charged_per_function_entry() {
        let (out, summary) = run(NeverSampler, InstrumentConfig::default(), racy_two_threads);
        assert_eq!(out.stats.dispatch_checks, summary.func_entries);
        assert_eq!(
            out.overhead.dispatch,
            summary.func_entries * InstrumentConfig::default().costs.dispatch_check
        );
    }

    #[test]
    fn full_logging_config_has_no_dispatch_cost() {
        let (out, _) = run(
            AlwaysSampler,
            InstrumentConfig::full_logging(),
            racy_two_threads,
        );
        assert_eq!(out.overhead.dispatch, 0);
        assert_eq!(out.stats.dispatch_checks, 0);
        assert!(out.stats.logged_mem > 0);
    }

    #[test]
    fn alloc_free_emit_page_sync_records() {
        let cfg = InstrumentConfig::default();
        let (out, _) = run(AlwaysSampler, cfg, |b| {
            b.entry_fn("main", |f| {
                let p = f.alloc(600); // spans two 4 KiB pages (4800 bytes)
                f.free(p);
            });
        });
        let alloc_records = out
            .log
            .iter()
            .filter(|r| matches!(r, Record::Sync { kind: SyncOpKind::AllocPage, .. }))
            .count();
        assert_eq!(alloc_records, 4, "two pages × (alloc + free)");
    }

    #[test]
    fn alloc_sync_can_be_disabled_for_ablation() {
        let cfg = InstrumentConfig {
            alloc_sync: false,
            ..InstrumentConfig::default()
        };
        let (out, _) = run(AlwaysSampler, cfg, |b| {
            b.entry_fn("main", |f| {
                let p = f.alloc(8);
                f.free(p);
            });
        });
        assert_eq!(
            out.log
                .iter()
                .filter(|r| matches!(r, Record::Sync { kind: SyncOpKind::AllocPage, .. }))
                .count(),
            0
        );
    }

    #[test]
    fn tl_ad_sampler_logs_small_fraction_of_hot_loop() {
        let (out, _) = run(
            SamplerKind::TlAdaptive.build(0),
            InstrumentConfig::default(),
            |b| {
                let g = b.global_word("g");
                let hot = b.function("hot", 0, move |f| {
                    f.read(g);
                });
                b.entry_fn("main", move |f| {
                    f.loop_(20_000, |f| {
                        f.call(hot);
                    });
                });
            },
        );
        let esr = out.stats.esr();
        assert!(esr < 0.05, "TL-Ad should back off, got esr {esr}");
        assert!(out.stats.logged_mem >= 10, "bursts must still sample");
    }

    #[test]
    fn adaptive_loop_policy_reduces_logging_within_one_call() {
        // One function execution with a 50k-iteration loop: at function
        // granularity everything is logged; with the loop policy the tail of
        // the loop is suppressed.
        let build = |b: &mut ProgramBuilder| {
            let g = b.global_word("g");
            b.entry_fn("main", move |f| {
                f.loop_(50_000, |f| {
                    f.read(g);
                });
            });
        };
        let (plain, _) = run(AlwaysSampler, InstrumentConfig::default(), build);
        let cfg = InstrumentConfig {
            loop_policy: LoopPolicy::AdaptiveLoops(
                literace_samplers::BackoffSchedule::literace(),
            ),
            ..InstrumentConfig::default()
        };
        let (looped, _) = run(AlwaysSampler, cfg, build);
        assert_eq!(plain.stats.logged_mem, 50_000);
        assert!(
            looped.stats.logged_mem < 5_000,
            "loop back-off should suppress most iterations, logged {}",
            looped.stats.logged_mem
        );
        assert!(looped.stats.logged_mem >= 10);
    }

    /// Replays the produced log through a fresh bank: stamping its sync
    /// records in log order must reproduce every logged timestamp, the
    /// modeled sync cost, and the contention statistics exactly.
    fn assert_matches_fresh_bank_oracle(out: &InstrumentOutput, cfg: &InstrumentConfig) {
        let mut bank = TimestampBank::with_counters(cfg.timestamp_counters);
        let mut sync_cost = 0u64;
        let mut sync_records = 0u64;
        for r in &out.log {
            if let Record::Sync {
                tid,
                kind,
                var,
                timestamp,
                ..
            } = r
            {
                let before = bank.contention_units;
                let ts = bank.stamp(*tid, *var);
                assert_eq!(ts, *timestamp, "stamp diverged on {var}");
                let base = if matches!(kind, SyncOpKind::AllocPage) {
                    cfg.costs.alloc_sync
                } else {
                    cfg.costs.sync_log
                };
                sync_cost += base
                    + if bank.contention_units > before {
                        cfg.costs.contended_stamp
                    } else {
                        0
                    };
                sync_records += 1;
            }
        }
        assert_eq!(out.overhead.sync_logging, sync_cost);
        assert_eq!(out.stats.sync_records, sync_records);
        assert!((out.timestamp_contention - bank.contention_rate()).abs() < 1e-12);
    }

    #[test]
    fn stamping_matches_the_fresh_bank_oracle() {
        let cfg = InstrumentConfig::default();
        let (out, _) = run(AlwaysSampler, cfg.clone(), racy_two_threads);
        assert_matches_fresh_bank_oracle(&out, &cfg);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The fresh-bank oracle holds on random programs, for both the
        /// paper bank and the degenerate single-counter bank, and per-var
        /// monotonicity holds.
        #[test]
        fn fresh_bank_oracle_holds_on_random_programs(
            threads in 2usize..5,
            globals in 2u64..5,
            iters in 5u32..40,
            counters in proptest::prelude::prop_oneof![
                proptest::prelude::Just(1usize),
                proptest::prelude::Just(128usize),
            ],
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cfg = InstrumentConfig {
                timestamp_counters: counters,
                ..InstrumentConfig::default()
            };
            let (out, _) = run(AlwaysSampler, cfg.clone(), |b| {
                let gs: Vec<_> =
                    (0..globals).map(|i| b.global_word(&format!("g{i}"))).collect();
                let ms: Vec<_> =
                    (0..globals).map(|i| b.mutex(&format!("m{i}"))).collect();
                let w = b.function("w", 0, {
                    let gs = gs.clone();
                    let ms = ms.clone();
                    move |f| {
                        let mut x = seed | 1;
                        f.loop_(iters, |f| {
                            for (g, m) in gs.iter().zip(&ms) {
                                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
                                match x % 3 {
                                    0 => {
                                        f.lock(*m);
                                        f.write(*g);
                                        f.unlock(*m);
                                    }
                                    1 => {
                                        f.read(*g);
                                    }
                                    _ => {
                                        f.write(*g);
                                    }
                                }
                            }
                        });
                    }
                });
                b.entry_fn("main", move |f| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| f.spawn(w, Rvalue::Const(0)))
                        .collect();
                    for h in handles {
                        f.join(h);
                    }
                });
            });
            assert_matches_fresh_bank_oracle(&out, &cfg);
            let mut last: HashMap<u64, u64> = HashMap::new();
            for r in &out.log {
                if let Record::Sync { var, timestamp, .. } = r {
                    let prev = last.entry(var.0).or_insert(0);
                    proptest::prop_assert!(timestamp > prev, "regressed on {var}");
                    *prev = *timestamp;
                }
            }
        }
    }

    /// Builds, lowers, prefilters, and runs one program with and without
    /// the skip table installed; returns (with, without).
    fn run_prefiltered<S: Sampler + Clone>(
        sampler: S,
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (InstrumentOutput, InstrumentOutput) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let compiled = lower(&b.build().unwrap());
        let table = literace_sim::PrefilterTable::build(&compiled);
        let mut outs = Vec::new();
        for prefilter in [Some(table), None] {
            let cfg = InstrumentConfig {
                prefilter,
                ..InstrumentConfig::default()
            };
            let mut inst = Instrumenter::new(sampler.clone(), cfg);
            Machine::new(&compiled, MachineConfig::default())
                .run(&mut RandomScheduler::seeded(0), &mut inst)
                .unwrap();
            outs.push(inst.finish());
        }
        let without = outs.pop().unwrap();
        (outs.pop().unwrap(), without)
    }

    fn lock_heavy_worker(b: &mut ProgramBuilder) {
        let g = b.global_word("g");
        let u = b.global_word("u");
        let m = b.mutex("m");
        let w = b.function("w", 0, move |f| {
            f.lock(m);
            f.write(g);
            f.unlock(m);
            f.write_stack(0);
            f.loop_(100, |f| {
                f.read(u);
            });
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
    }

    #[test]
    fn prefilter_skips_ordered_sites_before_the_sampler() {
        let (with, without) = run_prefiltered(AlwaysSampler, lock_heavy_worker);
        // The locked global write and the stack write are provably ordered:
        // 2 skips per worker execution, everything else residual.
        assert_eq!(with.stats.prefilter_skipped, 4);
        assert_eq!(with.stats.prefilter_residual, with.stats.total_mem - 4);
        assert_eq!(with.stats.total_mem, without.stats.total_mem);
        assert_eq!(with.stats.logged_mem + 4, without.stats.logged_mem);
        // Skipped accesses pay no modeled logging cost.
        assert_eq!(
            with.overhead.mem_logging + 4 * InstrumentCosts::DEFAULT.mem_log,
            without.overhead.mem_logging
        );
        // Without a table, the prefilter counters stay untouched.
        assert_eq!(without.stats.prefilter_skipped, 0);
        assert_eq!(without.stats.prefilter_residual, 0);
    }

    #[test]
    fn fully_skipped_function_pays_no_dispatch_check() {
        let build = |b: &mut ProgramBuilder| {
            let u = b.global_word("u");
            // All of `scratch` is stack-local: fully skipped.
            let scratch = b.function("scratch", 0, |f| {
                f.write_stack(0);
                f.read_stack(0);
            });
            let w = b.function("w", 0, move |f| {
                f.call(scratch);
                f.write(u);
            });
            b.entry_fn("main", move |f| {
                let t1 = f.spawn(w, Rvalue::Const(0));
                let t2 = f.spawn(w, Rvalue::Const(0));
                f.join(t1);
                f.join(t2);
            });
        };
        let (with, without) = run_prefiltered(AlwaysSampler, build);
        // Both `scratch` entries lose their dispatch checks (and cost), as
        // does `main`, which has no data-access sites at all.
        assert_eq!(with.stats.dispatch_checks + 3, without.stats.dispatch_checks);
        assert_eq!(
            with.overhead.dispatch + 3 * InstrumentCosts::DEFAULT.dispatch_check,
            without.overhead.dispatch
        );
        // Its accesses are skipped, not logged...
        assert_eq!(with.stats.prefilter_skipped, 4);
        // ...but still executed, so the ESR denominator is unchanged.
        assert_eq!(with.stats.total_mem, without.stats.total_mem);
    }

    #[test]
    fn prefilter_only_diverts_memory_records_never_sync() {
        let (with, without) = run_prefiltered(AlwaysSampler, lock_heavy_worker);
        assert_eq!(with.stats.sync_records, without.stats.sync_records);
        assert_eq!(with.log.sync_count(), without.log.sync_count());
    }

    #[test]
    fn markers_bracket_every_thread() {
        let (out, summary) = run(AlwaysSampler, InstrumentConfig::default(), racy_two_threads);
        let begins = out
            .log
            .iter()
            .filter(|r| matches!(r, Record::ThreadBegin { .. }))
            .count() as u64;
        let ends = out
            .log
            .iter()
            .filter(|r| matches!(r, Record::ThreadEnd { .. }))
            .count() as u64;
        assert_eq!(begins, summary.threads);
        assert_eq!(ends, summary.threads);
    }

    fn run_marked(
        kinds: &[SamplerKind],
        build: impl FnOnce(&mut ProgramBuilder),
        seed: u64,
    ) -> InstrumentOutput {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let compiled = lower(&b.build().unwrap());
        let samplers = kinds.iter().map(|k| k.build(seed)).collect();
        let mut inst =
            Instrumenter::marked(samplers, InstrumentConfig::default(), SamplerMask::EMPTY);
        Machine::new(&compiled, MachineConfig::default())
            .run(&mut RandomScheduler::seeded(seed), &mut inst)
            .unwrap();
        inst.finish()
    }

    /// Sampler `i`'s effective sampling rate in a marked run.
    fn marked_esr(out: &InstrumentOutput, i: usize) -> f64 {
        out.log.sampler_subset(i).mem_count() as f64 / out.stats.total_mem as f64
    }

    fn hot_loop(b: &mut ProgramBuilder) {
        let g = b.global_word("g");
        let hot = b.function("hot", 0, move |f| {
            f.read(g);
        });
        b.entry_fn("main", move |f| {
            f.loop_(20_000, |f| {
                f.call(hot);
            });
        });
    }

    #[test]
    fn all_memory_records_are_logged_regardless_of_masks() {
        let out = run_marked(&[SamplerKind::TlAdaptive, SamplerKind::Never], hot_loop, 0);
        assert_eq!(out.log.mem_count() as u64, out.stats.total_mem);
        assert_eq!(out.stats.total_mem, 20_000);
    }

    #[test]
    fn always_sampler_mask_covers_everything() {
        let out = run_marked(&[SamplerKind::Always], hot_loop, 0);
        assert_eq!(out.log.sampler_subset(0).mem_count() as u64, out.stats.total_mem);
        assert!((marked_esr(&out, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tl_ad_esr_is_far_below_random_10() {
        let out = run_marked(&[SamplerKind::TlAdaptive, SamplerKind::Rnd10], hot_loop, 2);
        let tl = marked_esr(&out, 0);
        let rnd = marked_esr(&out, 1);
        assert!(tl < 0.02, "TL-Ad esr {tl}");
        assert!((rnd - 0.10).abs() < 0.02, "Rnd10 esr {rnd}");
    }

    #[test]
    fn prefiltered_sampler_never_marks_ordered_sites() {
        // Two TL-Ad samplers over the same execution; the second runs behind
        // the prefilter, so it keeps strictly fewer records and none of them
        // at skipped sites.
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let u = b.global_word("u");
        let m = b.mutex("m");
        let w = b.function("w", 0, move |f| {
            f.loop_(200, |f| {
                f.lock(m);
                f.write(g);
                f.unlock(m);
                f.read(u);
            });
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let compiled = lower(&b.build().unwrap());
        let table = PrefilterTable::build(&compiled);
        assert!(table.stats().skipped_sites > 0);
        let samplers: Vec<Box<dyn Sampler>> = vec![
            SamplerKind::TlAdaptive.build(0),
            SamplerKind::Prefiltered.build(0),
        ];
        let cfg = InstrumentConfig {
            prefilter: Some(table.clone()),
            ..InstrumentConfig::default()
        };
        let mut inst = Instrumenter::marked(samplers, cfg, SamplerMask::bit(1));
        Machine::new(&compiled, MachineConfig::default())
            .run(&mut RandomScheduler::seeded(3), &mut inst)
            .unwrap();
        let out = inst.finish();
        // Identical dispatch schedule, so the prefiltered subset is exactly
        // the plain subset minus the skipped sites.
        for r in out.log.records() {
            if let Record::Mem { pc, mask, .. } = r {
                if table.skips(*pc) {
                    assert!(!mask.contains(1), "skipped site marked at {pc:?}");
                } else {
                    assert_eq!(mask.contains(0), mask.contains(1));
                }
            }
        }
        assert!(out.log.sampler_subset(1).mem_count() < out.log.sampler_subset(0).mem_count());
        // The full log is unaffected: every executed access has a record.
        assert_eq!(out.log.mem_count() as u64, out.stats.total_mem);
    }

    #[test]
    #[should_panic(expected = "1..=32 samplers")]
    fn too_many_samplers_rejected() {
        let samplers: Vec<Box<dyn Sampler>> = (0..33)
            .map(|_| SamplerKind::Always.build(0))
            .collect();
        let _ = Instrumenter::marked(samplers, InstrumentConfig::default(), SamplerMask::EMPTY);
    }

    /// A log's records with every mask cleared, so logs from runs with
    /// different sampler counts compare record by record.
    fn unmasked(log: &EventLog) -> Vec<Record> {
        log.iter()
            .map(|r| match *r {
                Record::Mem {
                    tid,
                    pc,
                    addr,
                    is_write,
                    ..
                } => Record::Mem {
                    tid,
                    pc,
                    addr,
                    is_write,
                    mask: SamplerMask::EMPTY,
                },
                other => other,
            })
            .collect()
    }

    /// Hot and cold calls, an inline loop, lock-protected and stack sites
    /// the prefilter skips, a function with no shared sites, many
    /// addresses and a heap block: every per-access rule has work to do.
    fn mixed_sites(b: &mut ProgramBuilder) {
        let cells = b.global_array("cells", 16);
        let m = b.mutex("m");
        let scratch = b.function("scratch", 0, |f| {
            f.write_stack(0);
            f.read_stack(0);
        });
        let hot = b.function("hot", 0, move |f| {
            f.read(cells.at(1));
            f.write(cells.at(2));
        });
        let w = b.function("w", 0, move |f| {
            f.loop_(300, |f| {
                f.call(hot);
                f.call(scratch);
                f.lock(m);
                f.write(cells.at(3));
                f.unlock(m);
                for i in 4..16 {
                    f.read(cells.at(i));
                }
            });
            let p = f.alloc(8);
            f.free(p);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
    }

    #[test]
    fn marked_subsets_are_the_production_logs() {
        let mut b = ProgramBuilder::new();
        mixed_sites(&mut b);
        let compiled = lower(&b.build().unwrap());
        let table = PrefilterTable::build(&compiled);
        let kinds = SamplerKind::study_set();
        let prefiltered = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.needs_prefilter())
            .fold(SamplerMask::EMPTY, |m, (i, _)| m.union(SamplerMask::bit(i)));
        let run = |mut inst: Instrumenter<Box<dyn Sampler>>| {
            Machine::new(&compiled, MachineConfig::default())
                .run(&mut RandomScheduler::seeded(5), &mut inst)
                .unwrap();
            inst.finish().log
        };
        let full = run(Instrumenter::new(
            SamplerKind::Always.build(5),
            InstrumentConfig::full_logging(),
        ));
        let policies = [
            InstrumentConfig::default(),
            InstrumentConfig {
                loop_policy: LoopPolicy::AdaptiveLoops(
                    literace_samplers::BackoffSchedule::literace(),
                ),
                ..InstrumentConfig::default()
            },
            InstrumentConfig {
                access_policy: crate::config::AccessPolicy::AddressHash { keep_fraction: 0.3 },
                ..InstrumentConfig::default()
            },
        ];
        for cfg in policies {
            let behind_table = InstrumentConfig {
                prefilter: Some(table.clone()),
                ..cfg.clone()
            };
            let samplers = kinds.iter().map(|k| k.build(5)).collect();
            let marked = run(Instrumenter::marked(samplers, behind_table.clone(), prefiltered));
            for (i, k) in kinds.iter().enumerate() {
                let icfg = if k.needs_prefilter() {
                    behind_table.clone()
                } else {
                    cfg.clone()
                };
                let production = run(Instrumenter::new(k.build(5), icfg));
                assert_eq!(
                    unmasked(&marked.sampler_subset(i)),
                    unmasked(&production),
                    "{k:?} under {cfg:?}"
                );
            }
            assert_eq!(unmasked(&marked), unmasked(&full), "{cfg:?}");
        }
    }
}
