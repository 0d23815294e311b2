//! Cross-detector equivalence: the online detector and the per-thread-log
//! merge path must agree with the offline vector-clock detector about
//! *which* races exist.

use std::collections::HashSet;

use literace::detector::{detect, merge, HbDetector, OnlineDetector};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, ObserverPair};
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

/// Runs one program once, producing both the offline log (via the
/// instrumenter) and the online detector's report from the same execution.
fn run_both(program: &literace::sim::Program, seed: u64) -> (RaceReport, RaceReport) {
    let compiled = lower(program);
    let mut inst = literace::instrument::Instrumenter::new(
        SamplerKind::Always.build(seed),
        InstrumentConfig::default(),
    );
    let mut online = OnlineDetector::new();
    let mut pair = ObserverPair::new(&mut inst, &mut online);
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 48), &mut pair)
        .expect("program runs");
    let out = inst.finish();
    let offline = detect(&out.log, summary.non_stack_accesses);
    (offline, online.finish())
}

fn keys(r: &RaceReport) -> HashSet<(literace::sim::Pc, literace::sim::Pc)> {
    r.static_keys()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Online == offline on the same execution, racy or not.
    #[test]
    fn online_equals_offline(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (offline, online) = run_both(&program, cfg.seed);
        prop_assert_eq!(keys(&offline), keys(&online));
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
        assert_eq!(keys(&offline), keys(&online), "{id}");
        assert_eq!(offline.static_count() as u32, w.planted.total(), "{id}");
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
