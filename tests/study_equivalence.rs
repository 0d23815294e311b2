//! The §5.3 study must match production. The marked run gives each study
//! sampler a subset of one full log; that subset must be exactly what
//! the sampler logs in its own production run on the same schedule, under
//! the same instrumentation config. So, for every study sampler:
//!
//! * the study's `logged_mem` equals the sum, over the seeds, of
//!   `run_literace(..).instrumented.stats.logged_mem`;
//! * its `detection_rate` equals the seed-averaged rate of the production
//!   reports against production full logging's.
//!
//! Checked under the default config and under the §7 loop policy and the
//! object-centric access policy, which narrow what an instrumented frame
//! logs.

use literace::detector::RaceReport;
use literace::eval::{evaluate_program, EvalConfig};
use literace::instrument::{AccessPolicy, InstrumentConfig, LoopPolicy};
use literace::pipeline::{run_literace, RunConfig};
use literace::samplers::{BackoffSchedule, SamplerKind};
use literace::sim::Program;
use literace::workloads::synthetic::parsec_kernel;
use literace::workloads::{build, Scale, WorkloadId};

const SEEDS: [u64; 2] = [1, 2];

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

fn run_config(seed: u64, instrument: &InstrumentConfig) -> RunConfig {
    RunConfig {
        instrument: instrument.clone(),
        ..RunConfig::seeded(seed)
    }
}

/// Checks every study sampler on `program` under every config.
fn assert_study_matches_production(program: &Program) {
    let truth: Vec<RaceReport> = SEEDS
        .iter()
        .map(|&seed| {
            let full = run_config(seed, &InstrumentConfig::full_logging());
            run_literace(program, SamplerKind::Always, &full)
                .unwrap()
                .report
        })
        .collect();
    for (config_name, instrument) in configs() {
        let cfg = EvalConfig {
            seeds: SEEDS.to_vec(),
            samplers: SamplerKind::study_set().to_vec(),
            instrument: instrument.clone(),
            ..EvalConfig::default()
        };
        let eval = evaluate_program(program, &cfg).unwrap();
        for (&kind, study) in cfg.samplers.iter().zip(&eval.samplers) {
            let mut logged = 0;
            let mut rate = 0.0;
            for (&seed, truth) in SEEDS.iter().zip(&truth) {
                let run = run_literace(program, kind, &run_config(seed, &instrument)).unwrap();
                logged += run.instrumented.stats.logged_mem;
                rate += run.report.detection_rate_against(truth);
            }
            let leg = format!("{config_name}, {}", study.name);
            assert_eq!(study.logged_mem, logged, "{leg}: logged accesses");
            assert_eq!(
                study.detection_rate,
                rate / SEEDS.len() as f64,
                "{leg}: detection rate"
            );
        }
    }
}

fn assert_workload(id: WorkloadId) {
    assert_study_matches_production(&build(id, Scale::Smoke).program);
}

#[test]
fn apache_1() {
    assert_workload(WorkloadId::Apache1);
}

#[test]
fn dryad_stdlib() {
    assert_workload(WorkloadId::DryadStdlib);
}

#[test]
fn lkrhash() {
    assert_workload(WorkloadId::LkrHash);
}

#[test]
fn firefox_render() {
    assert_workload(WorkloadId::FirefoxRender);
}

#[test]
fn parsec_kernel_loops() {
    assert_study_matches_production(&parsec_kernel(2_000));
}
