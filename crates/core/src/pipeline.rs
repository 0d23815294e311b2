//! The end-to-end LiteRace pipeline: instrument → execute → log → detect.

use literace_detector::{detect_sharded, DetectConfig, HbConfig, RaceReport};
use literace_instrument::{InstrumentConfig, InstrumentOutput, Instrumenter, RecordSink};
use literace_log::EventLog;
use literace_samplers::SamplerKind;
use literace_sim::{
    lower, ChunkedRandomScheduler, Machine, MachineConfig, Program, RunSummary, SimError,
};

/// Configuration for one pipeline run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scheduler seed — fixes the interleaving.
    pub seed: u64,
    /// Scheduler chunk size (steps a thread runs before a context switch
    /// may occur); models coarse timeslicing on a few cores.
    pub sched_quantum: u32,
    /// Machine limits and baseline cost model.
    pub machine: MachineConfig,
    /// Instrumentation configuration.
    pub instrument: InstrumentConfig,
    /// Offline detector configuration.
    pub detector: HbConfig,
    /// Offline detection worker threads (1 = sequential; N ≥ 2 shards
    /// accesses across N workers with byte-identical output).
    pub detect_threads: usize,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            seed: 0,
            sched_quantum: 64,
            machine: MachineConfig::default(),
            instrument: InstrumentConfig::default(),
            detector: HbConfig::default(),
            detect_threads: 1,
        }
    }
}

impl RunConfig {
    /// A config with everything default but the scheduler seed.
    pub fn seeded(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            ..RunConfig::default()
        }
    }

    /// The offline-detection config implied by this run config.
    pub fn detect_config(&self) -> DetectConfig {
        DetectConfig {
            threads: self.detect_threads,
            hb: self.detector,
        }
    }
}

/// Everything one pipeline run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Baseline execution statistics (instrumentation never perturbs the
    /// interleaving in this substrate, so these are the uninstrumented
    /// numbers).
    pub summary: RunSummary,
    /// Log, overhead breakdown and instrumentation counters.
    pub instrumented: InstrumentOutput,
    /// Offline happens-before detection over the produced log.
    pub report: RaceReport,
}

impl RunOutcome {
    /// Effective sampling rate of this run (Table 3).
    pub fn esr(&self) -> f64 {
        self.instrumented.stats.esr()
    }

    /// Modeled slowdown over the uninstrumented baseline (Table 5).
    pub fn slowdown(&self) -> f64 {
        self.instrumented.overhead.slowdown(self.summary.baseline_cost)
    }
}

/// Runs the full LiteRace pipeline on `program` with the given sampler.
///
/// # Errors
///
/// Propagates simulator errors (deadlock, limits, runtime faults).
pub fn run_literace(
    program: &Program,
    sampler: SamplerKind,
    cfg: &RunConfig,
) -> Result<RunOutcome, SimError> {
    let (summary, instrumented) = run_literace_with_sink(program, sampler, cfg, EventLog::new())?;
    let report = detect_event_log(
        &instrumented.log,
        summary.non_stack_accesses,
        &cfg.detect_config(),
    );
    Ok(RunOutcome {
        summary,
        instrumented,
        report,
    })
}

/// The one prefilter-install rule: `base`, plus a static prefilter skip
/// table built from `compiled` when one of `samplers` runs behind one (see
/// [`runs_behind_prefilter`]) and the caller supplied none. A production
/// run passes its one sampler; the §5.3 study passes every sampler it
/// marks.
pub(crate) fn instrument_config_for(
    compiled: &literace_sim::CompiledProgram,
    samplers: &[SamplerKind],
    base: &InstrumentConfig,
) -> InstrumentConfig {
    let mut cfg = base.clone();
    if cfg.prefilter.is_none() && samplers.iter().any(|&s| runs_behind_prefilter(s, base)) {
        cfg.prefilter = Some(literace_sim::PrefilterTable::build(compiled));
    }
    cfg
}

/// Whether `sampler` runs behind a static prefilter skip table under
/// `base`: always when the caller installed one, otherwise when the
/// sampler needs one and synchronization logging is on. The table is
/// only sound with sync records in the log: its ordering proofs lean on
/// fork/join and lock edges.
pub(crate) fn runs_behind_prefilter(sampler: SamplerKind, base: &InstrumentConfig) -> bool {
    base.prefilter.is_some() || (sampler.needs_prefilter() && base.sync_logging)
}

/// Runs `detect` as the pipeline's detect phase: timed into the
/// `phase.detect` stats and traced as the `phase.detect` span.
pub fn detect_phase<T>(detect: impl FnOnce() -> T) -> T {
    let _span = literace_telemetry::metrics().phase_detect.span();
    literace_telemetry::trace_begin("phase.detect");
    let out = detect();
    literace_telemetry::trace_end("phase.detect");
    out
}

/// Detects over an in-memory log, timed as the pipeline's detect phase.
pub(crate) fn detect_event_log(
    log: &EventLog,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
) -> RaceReport {
    detect_phase(|| detect_sharded(log, non_stack_accesses, cfg))
}

/// Runs instrumentation and execution, emitting records into `sink` as
/// they are produced — with a [`V2Sink`](literace_instrument::V2Sink)
/// over a file, the event log streams to disk in compact v2 blocks and is
/// never materialized in memory. No detection is performed; callers
/// typically re-open the written log and stream-detect it (see the
/// `literace run --log` command).
///
/// # Errors
///
/// Propagates simulator errors. Sink I/O errors surface from the sink's
/// own `finish`, on the returned output's `log`.
pub fn run_literace_with_sink<L: RecordSink>(
    program: &Program,
    sampler: SamplerKind,
    cfg: &RunConfig,
    sink: L,
) -> Result<(RunSummary, InstrumentOutput<L>), SimError> {
    let compiled = lower(program);
    let icfg = instrument_config_for(&compiled, &[sampler], &cfg.instrument);
    let mut inst = Instrumenter::with_sink(sampler.build(cfg.seed), icfg, sink);
    let mut sched = ChunkedRandomScheduler::seeded(cfg.seed, cfg.sched_quantum);
    let summary = {
        let _span = literace_telemetry::metrics().phase_execute.span();
        literace_telemetry::trace_begin("phase.execute");
        let run = Machine::new(&compiled, cfg.machine).run(&mut sched, &mut inst);
        literace_telemetry::trace_end("phase.execute");
        run?
    };
    Ok((summary, inst.finish()))
}

/// Runs the program uninstrumented, returning baseline statistics only.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_baseline(program: &Program, cfg: &RunConfig) -> Result<RunSummary, SimError> {
    let compiled = lower(program);
    let mut sched = ChunkedRandomScheduler::seeded(cfg.seed, cfg.sched_quantum);
    Machine::new(&compiled, cfg.machine).run(&mut sched, &mut literace_sim::NullObserver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::ProgramBuilder;
    use literace_sim::Rvalue;

    fn racy_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let w = b.function("w", 0, move |f| {
            f.write(g);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        b.build().unwrap()
    }

    #[test]
    fn full_sampler_finds_the_race() {
        let out = run_literace(&racy_program(), SamplerKind::Always, &RunConfig::seeded(1))
            .unwrap();
        assert_eq!(out.report.static_count(), 1);
        assert!((out.esr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_sampler_finds_nothing_but_costs_less() {
        let full = run_literace(&racy_program(), SamplerKind::Always, &RunConfig::seeded(1))
            .unwrap();
        let none = run_literace(&racy_program(), SamplerKind::Never, &RunConfig::seeded(1))
            .unwrap();
        assert_eq!(none.report.static_count(), 0);
        assert!(none.instrumented.overhead.total() < full.instrumented.overhead.total());
    }

    #[test]
    fn tl_ad_finds_cold_race_too() {
        let out = run_literace(
            &racy_program(),
            SamplerKind::TlAdaptive,
            &RunConfig::seeded(1),
        )
        .unwrap();
        assert_eq!(out.report.static_count(), 1, "both accesses are cold");
    }

    #[test]
    fn parallel_detection_matches_sequential_pipeline() {
        let seq = run_literace(&racy_program(), SamplerKind::Always, &RunConfig::seeded(3))
            .unwrap();
        let mut cfg = RunConfig::seeded(3);
        cfg.detect_threads = 4;
        let par = run_literace(&racy_program(), SamplerKind::Always, &cfg).unwrap();
        assert_eq!(seq.report, par.report);
    }

    #[test]
    fn streaming_detection_matches_materialized_pipeline() {
        let base = run_literace(&racy_program(), SamplerKind::Always, &RunConfig::seeded(5))
            .unwrap();
        for threads in [1, 2, 4] {
            let mut cfg = RunConfig::seeded(5);
            cfg.detect_threads = threads;
            let streamed =
                run_literace(&racy_program(), SamplerKind::Always, &cfg).unwrap();
            assert_eq!(streamed.report, base.report, "threads={threads}");
        }
    }

    #[test]
    fn sink_run_writes_a_log_equal_to_the_materialized_one() {
        let cfg = RunConfig::seeded(2);
        let materialized =
            run_literace(&racy_program(), SamplerKind::Always, &cfg).unwrap();
        let (summary, out) = run_literace_with_sink(
            &racy_program(),
            SamplerKind::Always,
            &cfg,
            literace_instrument::V2Sink::new(Vec::new()),
        )
        .unwrap();
        assert_eq!(summary, materialized.summary);
        let bytes = out.log.finish().unwrap();
        let log = literace_log::read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log, materialized.instrumented.log);
    }

    #[test]
    fn prefiltered_sampler_gets_an_auto_built_table() {
        let out = run_literace(
            &racy_program(),
            SamplerKind::Prefiltered,
            &RunConfig::seeded(1),
        )
        .unwrap();
        // The racy write is to an unprotected global: residual, so the cold
        // race is still found; the table was installed (counters moved).
        assert_eq!(out.report.static_count(), 1);
        assert!(out.instrumented.stats.prefilter_residual > 0);
    }

    #[test]
    fn prefilter_is_not_auto_installed_without_sync_logging() {
        let mut cfg = RunConfig::seeded(1);
        cfg.instrument.sync_logging = false;
        let out = run_literace(&racy_program(), SamplerKind::Prefiltered, &cfg).unwrap();
        // Unsound to prefilter without sync edges in the log: both counters
        // stay untouched because no table was installed.
        assert_eq!(out.instrumented.stats.prefilter_skipped, 0);
        assert_eq!(out.instrumented.stats.prefilter_residual, 0);
    }

    #[test]
    fn baseline_matches_instrumented_summary() {
        let cfg = RunConfig::seeded(7);
        let base = run_baseline(&racy_program(), &cfg).unwrap();
        let inst = run_literace(&racy_program(), SamplerKind::TlAdaptive, &cfg).unwrap();
        assert_eq!(base, inst.summary, "observation must not perturb execution");
    }
}
