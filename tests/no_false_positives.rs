//! The paper's hard requirement (§3): **LiteRace never reports a false
//! data race.** Property-based tests over randomly generated race-free
//! programs, for every detector and sampler combination.

use literace::prelude::*;
use literace::samplers::AlwaysSampler;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig};
use literace::workloads::synthetic::{race_free, SyntheticConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (2u32..6, 2u32..8, 5u32..25, 2u32..8, any::<u64>()).prop_map(
        |(threads, globals, iterations, actions, seed)| SyntheticConfig {
            threads,
            globals,
            iterations,
            actions_per_iteration: actions,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Offline happens-before detection over a full log of a race-free
    /// program reports nothing, under arbitrary schedules.
    #[test]
    fn hb_detector_has_no_false_positives(cfg in arb_config(), sched_seed: u64) {
        let program = race_free(cfg);
        let mut run_cfg = RunConfig::seeded(sched_seed);
        run_cfg.sched_quantum = 1 + (sched_seed % 96) as u32;
        let out = run_literace(&program, SamplerKind::Always, &run_cfg).unwrap();
        prop_assert_eq!(
            out.report.static_count(), 0,
            "false positives: {:?}", out.report.static_races
        );
    }

    /// Sampling can only *remove* accesses from the log, so no sampler can
    /// introduce a false positive either.
    #[test]
    fn sampled_detection_has_no_false_positives(cfg in arb_config(), sampler_idx in 0usize..7) {
        let program = race_free(cfg);
        let kind = SamplerKind::paper_set()[sampler_idx];
        let out = run_literace(&program, kind, &RunConfig::seeded(cfg.seed)).unwrap();
        prop_assert_eq!(out.report.static_count(), 0);
    }

    /// Online detection — the instrumenter writing into an `HbDetector`,
    /// no log at all — is equally clean.
    #[test]
    fn online_detector_has_no_false_positives(cfg in arb_config()) {
        let program = race_free(cfg);
        let compiled = lower(&program);
        let mut online = Instrumenter::with_sink(
            AlwaysSampler,
            InstrumentConfig::full_logging(),
            HbDetector::new(),
        );
        let summary = Machine::new(&compiled, MachineConfig::default())
            .run(&mut ChunkedRandomScheduler::seeded(cfg.seed, 32), &mut online)
            .unwrap();
        let report = online.finish().log.finish(summary.non_stack_accesses);
        prop_assert_eq!(report.static_count(), 0);
    }
}

/// The benchmark workloads contain *only* the planted races: with the
/// planted globals ignored, nothing else races. (Covered indirectly by the
/// exact-count test in `end_to_end.rs`; here we additionally check a
/// race-free program at a larger scale once.)
#[test]
fn large_race_free_program_is_clean() {
    let cfg = SyntheticConfig {
        threads: 8,
        globals: 12,
        iterations: 220,
        actions_per_iteration: 10,
        seed: 0xC1EA4,
    };
    let program = race_free(cfg);
    let out = run_literace(&program, SamplerKind::Always, &RunConfig::seeded(1)).unwrap();
    assert!(out.summary.data_accesses() > 10_000);
    assert_eq!(out.report.static_count(), 0);
}

/// Figure 2's lesson holds in the implementation: if synchronization were
/// sampled away, false positives would appear. We simulate that by
/// stripping lock records from a race-free log and asserting the detector
/// then (wrongly) reports races — demonstrating *why* LiteRace logs all
/// synchronization.
#[test]
fn dropping_sync_records_creates_false_positives() {
    // A single unlucky seed can produce a schedule whose remaining
    // spawn/join and atomic edges happen to order every conflicting pair,
    // so check a handful of seeds: the clean run must be clean for every
    // one of them, and stripping locks must manufacture false races in at
    // least half.
    const SEEDS: u64 = 6;
    let mut manufactured = 0usize;
    for seed in 0..SEEDS {
        let cfg = SyntheticConfig {
            threads: 4,
            globals: 3,
            iterations: 60,
            actions_per_iteration: 6,
            seed,
        };
        let program = race_free(cfg);
        let out = run_literace(&program, SamplerKind::Always, &RunConfig::seeded(seed)).unwrap();
        assert_eq!(out.report.static_count(), 0, "sanity: clean with full sync");

        // Strip lock acquire/release records, as a sync-sampling tool would.
        let crippled: EventLog = out
            .instrumented
            .log
            .iter()
            .filter(|r| {
                !matches!(
                    r,
                    Record::Sync {
                        kind: literace::sim::SyncOpKind::LockAcquire
                            | literace::sim::SyncOpKind::LockRelease,
                        ..
                    }
                )
            })
            .copied()
            .collect();
        let report = detect(&crippled, out.summary.non_stack_accesses);
        if report.static_count() > 0 {
            manufactured += 1;
        }
    }
    assert!(
        manufactured >= SEEDS as usize / 2,
        "dropping sync records should manufacture false races (Figure 2); \
         only {manufactured} of {SEEDS} seeds did"
    );
}

/// Thread 1 descends a chain of `frames` nested calls whose innermost
/// frame writes its stack word 0; thread 2 writes its own stack word 0.
/// The two threads share no memory.
fn deep_call_chain(frames: usize) -> Result<Program, SimError> {
    let mut b = ProgramBuilder::new();
    let mut head = b.function("innermost", 0, |f| {
        f.write_stack(0);
    });
    for depth in (0..frames - 1).rev() {
        let callee = head;
        head = b.function(&format!("f{depth}"), 0, move |f| {
            f.call(callee);
        });
    }
    let shallow = b.function("shallow", 0, |f| {
        f.write_stack(0);
    });
    b.entry_fn("main", move |f| {
        let t1 = f.spawn(head, Rvalue::Const(0));
        let t2 = f.spawn(shallow, Rvalue::Const(0));
        f.join(t1);
        f.join(t2);
    });
    b.build()
}

/// One thread's stack region holds 2048 frames. A chain that fits must not
/// reach into the next thread's region, so it reports no race; a deeper
/// chain would alias thread 2's stack, so the program is rejected.
#[test]
fn the_deepest_call_chain_stays_in_its_threads_stack() {
    let program = deep_call_chain(2048).expect("a 2048-frame chain fits");
    for seed in 0..4 {
        let out = run_literace(&program, SamplerKind::Always, &RunConfig::seeded(seed)).unwrap();
        assert_eq!(out.summary.stack_accesses, 2, "seed {seed}");
        assert_eq!(out.report.static_count(), 0, "seed {seed}: {:?}", out.report.static_races);
    }
    let err = deep_call_chain(2049).expect_err("a 2049-frame chain overflows");
    assert!(matches!(err, SimError::InvalidProgram { .. }), "{err}");
}
