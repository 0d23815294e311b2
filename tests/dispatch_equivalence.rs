//! The dispatch check is the observer's entry hook: the instrumenter
//! answers "skip" for a frame that no sampler instruments, and the machine
//! then delivers none of that frame's accesses or loop iterations. Skipping
//! must change nothing the instrumenter produces.
//!
//! Each check runs one seeded schedule twice: under a bare `Instrumenter`,
//! and under a wrapper that forwards every hook to an `Instrumenter` but
//! answers "observed" at every entry, so every access is delivered. The
//! records, `InstrStats`, `OverheadBreakdown`, timestamp contention figures
//! and race reports must be identical, for production runs under five
//! samplers and for the §5.3 marked run, under the default config and the
//! loop and access policies.

use literace::detector::{detect, RaceReport};
use literace::instrument::{
    AccessPolicy, InstrStats, InstrumentConfig, Instrumenter, LoopPolicy, OverheadBreakdown,
};
use literace::log::{EventLog, SamplerMask};
use literace::samplers::{BackoffSchedule, Sampler, SamplerKind};
use literace::sim::{
    lower, Addr, ChunkedRandomScheduler, CompiledProgram, Dispatch, Event, FuncId, Machine,
    MachineConfig, Observer, Pc, PrefilterTable, RunSummary, ThreadId,
};
use literace::workloads::{build, Scale, WorkloadId};

const SEED: u64 = 1;

const SAMPLERS: [SamplerKind; 5] = [
    SamplerKind::TlAdaptive,
    SamplerKind::Rnd10,
    SamplerKind::Prefiltered,
    SamplerKind::Always,
    SamplerKind::Never,
];

/// Forwards every hook to the inner observer, but runs every frame
/// observed. A frame the inner observer skips gets the instrumenter's word
/// for "no sampler", the empty mask.
struct ObserveAll<O>(O);

impl<O: Observer> Observer for ObserveAll<O> {
    fn on_event(&mut self, event: &Event) {
        self.0.on_event(event);
    }

    fn on_entry(&mut self, tid: ThreadId, func: FuncId) -> Dispatch {
        match self.0.on_entry(tid, func) {
            Dispatch::Skip => Dispatch::Observe(SamplerMask::EMPTY.0),
            observed => observed,
        }
    }

    fn on_access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool, word: u32) {
        self.0.on_access(tid, pc, addr, is_write, word);
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        self.0.on_run_end(summary);
    }
}

/// Everything one instrumented run produces, contention figures as bits.
struct Outcome {
    summary: RunSummary,
    log: EventLog,
    stats: InstrStats,
    overhead: OverheadBreakdown,
    contention_bits: [u64; 2],
    report: RaceReport,
}

fn configs() -> [(&'static str, InstrumentConfig); 3] {
    [
        ("default", InstrumentConfig::default()),
        (
            "adaptive loops",
            InstrumentConfig {
                loop_policy: LoopPolicy::AdaptiveLoops(BackoffSchedule::literace()),
                ..InstrumentConfig::default()
            },
        ),
        (
            "address hash 0.3",
            InstrumentConfig {
                access_policy: AccessPolicy::AddressHash { keep_fraction: 0.3 },
                ..InstrumentConfig::default()
            },
        ),
    ]
}

/// Runs `inst` over the seeded schedule, bare or behind [`ObserveAll`].
fn run(
    compiled: &CompiledProgram,
    mut inst: Instrumenter<Box<dyn Sampler>>,
    observe_all: bool,
) -> Outcome {
    let mut sched = ChunkedRandomScheduler::seeded(SEED, 64);
    let mut machine = Machine::new(compiled, MachineConfig::default());
    let summary = if observe_all {
        machine.run(&mut sched, &mut ObserveAll(&mut inst))
    } else {
        machine.run(&mut sched, &mut inst)
    }
    .expect("program runs");
    let out = inst.finish();
    let report = detect(&out.log, summary.non_stack_accesses);
    Outcome {
        summary,
        log: out.log,
        stats: out.stats,
        overhead: out.overhead,
        contention_bits: [
            out.timestamp_contention.to_bits(),
            out.contention_units_per_stamp.to_bits(),
        ],
        report,
    }
}

/// Checks one instrumenter, built twice by `make`, bare against observed.
fn assert_skipping_changes_nothing(
    compiled: &CompiledProgram,
    make: impl Fn() -> Instrumenter<Box<dyn Sampler>>,
    leg: &str,
) {
    let bare = run(compiled, make(), false);
    let observed = run(compiled, make(), true);
    // Field by field, so a failure names what differs without printing
    // whole logs.
    assert!(bare.summary == observed.summary, "{leg}: the runs diverged");
    assert_eq!(bare.stats, observed.stats, "{leg}: InstrStats");
    assert_eq!(bare.overhead, observed.overhead, "{leg}: OverheadBreakdown");
    assert_eq!(
        bare.contention_bits, observed.contention_bits,
        "{leg}: contention"
    );
    let (b, o) = (bare.log.records(), observed.log.records());
    if let Some(i) = (0..b.len().min(o.len())).find(|&i| b[i] != o[i]) {
        panic!("{leg}: record {i} differs: {:?} vs {:?}", b[i], o[i]);
    }
    assert_eq!(b.len(), o.len(), "{leg}: record count");
    assert!(bare.report == observed.report, "{leg}: race reports differ");
}

/// Every sampler in [`SAMPLERS`] and the marked run over the study set, on
/// workload `id` under the `config`-th of [`configs`].
fn assert_workload(id: WorkloadId, scale: Scale, config: usize) {
    let compiled = lower(&build(id, scale).program);
    let (name, cfg) = configs()[config].clone();
    let behind_table = InstrumentConfig {
        prefilter: Some(PrefilterTable::build(&compiled)),
        ..cfg.clone()
    };
    for kind in SAMPLERS {
        let icfg = if kind.needs_prefilter() {
            &behind_table
        } else {
            &cfg
        };
        assert_skipping_changes_nothing(
            &compiled,
            || Instrumenter::new(kind.build(SEED), icfg.clone()),
            &format!("{id}, {kind:?}, {name}"),
        );
    }
    // The marked run, with no table so that its own rule keeps every frame
    // observed, over samplers whose masks are often all empty. (The study
    // set's are not: TL-Ad's bursts and UCP between them instrument every
    // call.)
    let kinds = [
        SamplerKind::TlAdaptive,
        SamplerKind::Rnd10,
        SamplerKind::Never,
    ];
    assert_skipping_changes_nothing(
        &compiled,
        || {
            let samplers = kinds.iter().map(|k| k.build(SEED)).collect();
            Instrumenter::marked(samplers, cfg.clone(), SamplerMask::EMPTY)
        },
        &format!("{id}, marked, {name}"),
    );
}

// One test per config, so the harness runs them side by side.

#[test]
fn skipped_frames_change_nothing_under_the_default_config() {
    for id in WorkloadId::all() {
        assert_workload(id, Scale::Smoke, 0);
    }
}

#[test]
fn skipped_frames_change_nothing_under_adaptive_loops() {
    for id in WorkloadId::all() {
        assert_workload(id, Scale::Smoke, 1);
    }
}

#[test]
fn skipped_frames_change_nothing_under_the_address_hash_policy() {
    for id in WorkloadId::all() {
        assert_workload(id, Scale::Smoke, 2);
    }
}

/// The three `sampled-apps` benchmark programs at paper scale, where TL-Ad
/// skips most frames. Slow in a debug build; CI runs it in release.
#[test]
#[ignore = "paper scale: run with --release -- --include-ignored"]
fn skipped_frames_change_nothing_on_the_sampled_apps_at_paper_scale() {
    for id in [
        WorkloadId::Apache1,
        WorkloadId::DryadStdlib,
        WorkloadId::FirefoxRender,
    ] {
        for config in 0..configs().len() {
            assert_workload(id, Scale::Paper, config);
        }
    }
}
