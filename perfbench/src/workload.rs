//! The benchmark's workloads, their set-up, and the untimed reference each
//! timed program run is checked against.

use std::collections::HashSet;

use literace::detector::RaceReport;
use literace::instrument::{InstrStats, InstrumentConfig};
use literace::log::EventLog;
use literace::pipeline::{run_literace, RunConfig};
use literace::samplers::SamplerKind;
use literace::sim::{lower, CompiledProgram, PrefilterTable, Program, RunSummary};
use literace::workloads::{build, Scale, WorkloadId};

use crate::spans::Spans;

/// One workload: a sampler over a fixed set of paper-scale programs.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub sampler: SamplerKind,
    pub programs: [WorkloadId; 3],
    /// Offline detection workers (capped at the host's CPUs).
    pub detect_threads: usize,
}

/// Apache-1, Dryad Channel + stdlib and Firefox Render: low sync density,
/// so with TL-Ad the simulator and sampling dominate, and with full logging
/// the log and detector do.
const APPS: [WorkloadId; 3] = [
    WorkloadId::Apache1,
    WorkloadId::DryadStdlib,
    WorkloadId::FirefoxRender,
];

pub static SPECS: [Spec; 3] = [
    Spec {
        name: "sampled-apps",
        sampler: SamplerKind::TlAdaptive,
        programs: APPS,
        detect_threads: 1,
    },
    Spec {
        name: "full-log",
        sampler: SamplerKind::Always,
        programs: APPS,
        detect_threads: 2,
    },
    Spec {
        // 94–98% of the logged records are synchronization.
        name: "sync-heavy",
        sampler: SamplerKind::TlAdaptive,
        programs: [
            WorkloadId::LkrHash,
            WorkloadId::LfList,
            WorkloadId::ConcrtScheduling,
        ],
        detect_threads: 1,
    },
];

/// A program ready to run: generated, lowered, and with its instrument
/// config resolved.
#[derive(Debug)]
pub struct Prepared {
    pub id: WorkloadId,
    pub program: Program,
    pub compiled: CompiledProgram,
    pub icfg: InstrumentConfig,
}

/// Set-up time of one pass over a workload's programs, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub lower_s: f64,
    pub config_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.lower_s + self.config_s
    }
}

/// Builds, lowers and configures every program of `spec`, recording one
/// `setup` span with a child per stage and program.
pub fn prepare(spec: &Spec, spans: &mut Spans) -> (Vec<Prepared>, SetupTimes) {
    let root = spans.begin("setup", 0);
    let mut t = SetupTimes::default();
    let prepared = spec
        .programs
        .iter()
        .map(|&id| {
            let (w, build_s) = spans.time("workloads.build", 0, || build(id, Scale::Paper));
            let (compiled, lower_s) = spans.time("sim.lower", 0, || lower(&w.program));
            // The pipeline's own rule (`run_literace`): samplers that need
            // the static prefilter get its skip table, and only when sync
            // logging keeps the ordering proofs sound.
            let (icfg, config_s) = spans.time("instrument.config", 0, || {
                let mut icfg = RunConfig::default().instrument;
                if spec.sampler.needs_prefilter() && icfg.sync_logging {
                    icfg.prefilter = Some(PrefilterTable::build(&compiled));
                }
                icfg
            });
            t.build_s += build_s;
            t.lower_s += lower_s;
            t.config_s += config_s;
            Prepared {
                id,
                program: w.program,
                compiled,
                icfg,
            }
        })
        .collect();
    spans.end(root);
    (prepared, t)
}

/// What a correct run of one program on one seed produces, computed
/// untimed by the materialized pipeline with sequential detection.
#[derive(Debug)]
pub struct Reference {
    pub summary: RunSummary,
    pub report: RaceReport,
    pub stats: InstrStats,
    /// Table 5 cost-model slowdown.
    pub slowdown: f64,
    /// Static races under full logging on the same schedule.
    pub full_races: usize,
    /// Of those, the ones this sampler's run found.
    pub found_of_full: usize,
    /// The materialized log, kept when the traced run needs records to
    /// encode.
    pub log: Option<EventLog>,
}

impl Reference {
    /// Program events: executed memory accesses plus sync operations.
    pub fn events(&self) -> u64 {
        self.summary.data_accesses() + self.summary.sync_ops
    }
}

pub fn reference(
    p: &Prepared,
    sampler: SamplerKind,
    seed: u64,
    keep_log: bool,
) -> Result<Reference, String> {
    let cfg = RunConfig::seeded(seed);
    let run = |kind| run_literace(&p.program, kind, &cfg).map_err(|e| format!("{:?}: {e}", p.id));
    let out = run(sampler)?;
    let pcs = |r: &RaceReport| r.static_races.iter().map(|s| s.pcs).collect::<HashSet<_>>();
    let found = pcs(&out.report);
    let full = if sampler == SamplerKind::Always {
        found.clone()
    } else {
        pcs(&run(SamplerKind::Always)?.report)
    };
    Ok(Reference {
        slowdown: out.slowdown(),
        full_races: full.len(),
        found_of_full: found.intersection(&full).count(),
        stats: out.instrumented.stats,
        log: keep_log.then_some(out.instrumented.log),
        summary: out.summary,
        report: out.report,
    })
}
