//! Cross-detector equivalence: online detection must report exactly what
//! the offline vector-clock detector reports, and the per-thread-log merge
//! path must agree with it about *which* races exist.

use std::collections::HashSet;

use literace::detector::{detect, merge, HbDetector};
use literace::prelude::*;
use literace::samplers::AlwaysSampler;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (2u32..6, 2u32..6, 5u32..20, 3u32..8, any::<u64>()).prop_map(
        |(threads, globals, iterations, actions, seed)| SyntheticConfig {
            threads,
            globals,
            iterations,
            actions_per_iteration: actions,
            seed,
        },
    )
}

/// Runs one seeded schedule twice, once under the instrumenter writing a
/// log (offline) and once writing into an `HbDetector` under full logging
/// (online), and checks that both runs are the same execution before
/// returning both reports.
fn run_both(program: &literace::sim::Program, seed: u64) -> (RaceReport, RaceReport) {
    let compiled = lower(program);
    let mut inst = Instrumenter::new(SamplerKind::Always.build(seed), InstrumentConfig::default());
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 48), &mut inst)
        .expect("program runs");
    let mut online = Instrumenter::with_sink(
        AlwaysSampler,
        InstrumentConfig::full_logging(),
        HbDetector::new(),
    );
    let online_summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 48), &mut online)
        .expect("program runs");
    assert_eq!(
        summary, online_summary,
        "one seeded schedule, one execution"
    );
    let offline = detect(&inst.finish().log, summary.non_stack_accesses);
    let online = online
        .finish()
        .log
        .finish(online_summary.non_stack_accesses);
    (offline, online)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Online == offline on the same execution, racy or not: the whole
    /// report, field for field.
    #[test]
    fn online_equals_offline(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (offline, online) = run_both(&program, cfg.seed);
        prop_assert_eq!(offline, online);
    }

    /// Splitting into per-thread logs and re-merging by timestamps yields a
    /// (possibly different but) equally legal linearization: the set of
    /// *racy addresses* is invariant, even though the exact static pairs
    /// surfaced by frontier pruning may differ between linearizations.
    #[test]
    fn merged_thread_logs_detect_the_same_racy_addresses(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let out = run_literace(&program, SamplerKind::Always, &RunConfig::seeded(cfg.seed))
            .unwrap();
        let split = merge::split_by_thread(&out.instrumented.log);
        let merged = merge::merge_thread_logs(&split).expect("timestamps are consistent");
        let report = detect(&merged, out.summary.non_stack_accesses);
        let orig_addrs: HashSet<_> =
            out.report.static_races.iter().map(|s| s.example_addr).collect();
        let merged_addrs: HashSet<_> =
            report.static_races.iter().map(|s| s.example_addr).collect();
        prop_assert_eq!(orig_addrs, merged_addrs);
    }

}

/// Equivalence also holds on the structured benchmark workloads.
#[test]
fn online_equals_offline_on_benchmarks() {
    for id in [
        WorkloadId::Dryad,
        WorkloadId::ConcrtMessaging,
        WorkloadId::FirefoxRender,
        WorkloadId::LkrHash,
    ] {
        let w = build(id, Scale::Smoke);
        let (offline, online) = run_both(&w.program, 11);
        assert_eq!(offline.static_count() as u32, w.planted.total(), "{id}");
        assert_eq!(offline, online, "{id}");
    }
}

/// The timestamp invariant of §4.2 holds in real logs: per variable,
/// timestamps are strictly increasing, so the offline detector sees zero
/// violations.
#[test]
fn timestamps_are_strictly_monotonic_per_var() {
    let w = build(WorkloadId::ConcrtScheduling, Scale::Smoke);
    let out = run_literace(&w.program, SamplerKind::Always, &RunConfig::seeded(2)).unwrap();
    let mut det = HbDetector::new();
    det.process_log(&out.instrumented.log);
    assert_eq!(det.timestamp_violations(), 0);
}
