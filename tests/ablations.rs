//! Ablations of the paper's individual design choices: each test disables
//! one mechanism and demonstrates the failure mode the paper describes.

use literace::instrument::{InstrumentConfig, LoopPolicy};
use literace::prelude::*;
use literace::samplers::BackoffSchedule;
use literace::sim::{AddrExpr, ProgramBuilder};


/// §4.3: without allocation-as-synchronization, address reuse across
/// threads manufactures false races.
#[test]
fn disabling_alloc_sync_creates_false_positives() {
    // Two concurrent threads churn same-sized blocks. The allocator's LIFO
    // free list hands one thread's freed address to the other; that handoff
    // is ordered by the allocator's own (uninstrumented) internals — the
    // exact edge §4.3's page synchronization makes visible to the detector.
    let mut b = ProgramBuilder::new();
    let churn = b.function("churn_once", 0, |f| {
        let p = f.alloc(8);
        f.write(AddrExpr::Indirect { base: p, offset: 0 });
        f.free(p);
    });
    let worker = b.function("worker", 0, move |f| {
        f.loop_(80, |f| {
            f.call(churn);
        });
    });
    b.entry_fn("main", move |f| {
        let t1 = f.spawn(worker, Rvalue::Const(0));
        let t2 = f.spawn(worker, Rvalue::Const(0));
        f.join(t1);
        f.join(t2);
    });
    let program = b.build().unwrap();

    let with = run_literace(&program, SamplerKind::Always, &RunConfig::seeded(1)).unwrap();
    assert_eq!(with.report.static_count(), 0, "with §4.3: clean");

    let mut cfg = RunConfig::seeded(1);
    cfg.instrument = InstrumentConfig {
        alloc_sync: false,
        ..InstrumentConfig::default()
    };
    let without = run_literace(&program, SamplerKind::Always, &cfg).unwrap();
    assert!(
        without.report.static_count() > 0,
        "without §4.3: reuse is misreported as a race"
    );
}

/// §4.2: the 128-counter bank is a performance optimization only — a single
/// global counter produces identical detection results, just with total
/// cross-variable ordering of timestamps (and, in the real system, heavy
/// contention, which our cost model charges for).
#[test]
fn timestamp_bank_size_does_not_change_detection() {
    let w = build(WorkloadId::ConcrtScheduling, Scale::Smoke);
    let reports: Vec<_> = [1usize, 8, 128]
        .into_iter()
        .map(|counters| {
            let mut cfg = RunConfig::seeded(3);
            cfg.instrument = InstrumentConfig {
                timestamp_counters: counters,
                ..InstrumentConfig::default()
            };
            run_literace(&w.program, SamplerKind::Always, &cfg)
                .unwrap()
                .report
                .static_keys()
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

/// §4.2's cost story: a single shared counter contends far more than 128
/// hashed counters, which the overhead model surfaces as extra sync-logging
/// cost on multi-threaded sync-heavy code.
#[test]
fn single_counter_costs_more_under_contention() {
    // A fine-grained schedule (quantum 1) exposes the cross-thread
    // interleaving a real multiprocessor would have; under it, a single
    // shared counter is touched by every thread's synchronization while the
    // 128 hashed counters are mostly private to the lock's current users.
    let w = build(WorkloadId::LkrHash, Scale::Smoke);
    let contention = |counters: usize| {
        let mut cfg = RunConfig::seeded(3);
        cfg.sched_quantum = 1;
        cfg.instrument = InstrumentConfig {
            timestamp_counters: counters,
            ..InstrumentConfig::default()
        };
        run_literace(&w.program, SamplerKind::Never, &cfg)
            .unwrap()
            .instrumented
            .contention_units_per_stamp
    };
    let one = contention(1);
    let paper = contention(128);
    assert!(
        one > paper,
        "1 counter should transfer the line more: {one} vs {paper}"
    );
}

/// §7 (future work, implemented): loop-granularity back-off slashes the
/// logging volume of a single sampled execution of a high-trip-count loop
/// while still sampling its first iterations.
#[test]
fn loop_granularity_sampling_reduces_esr_on_loopy_code() {
    // The §7 motivating case: a Parsec-style kernel with inline loop
    // accesses and a racy store per iteration.
    let w_program = literace::workloads::synthetic::parsec_kernel(20_000);
    let run = |policy: LoopPolicy| {
        let mut cfg = RunConfig::seeded(2);
        cfg.instrument = InstrumentConfig {
            loop_policy: policy,
            ..InstrumentConfig::default()
        };
        run_literace(&w_program, SamplerKind::TlAdaptive, &cfg).unwrap()
    };
    let function_gran = run(LoopPolicy::FunctionGranularity);
    let loop_gran = run(LoopPolicy::AdaptiveLoops(BackoffSchedule::literace()));
    assert!(
        loop_gran.instrumented.stats.logged_mem < function_gran.instrumented.stats.logged_mem,
        "loop back-off should log less: {} vs {}",
        loop_gran.instrumented.stats.logged_mem,
        function_gran.instrumented.stats.logged_mem
    );
    // The planted races survive: their accesses are in called functions and
    // early loop iterations.
    let truth = function_gran.report.static_keys();
    for r in &loop_gran.report.static_races {
        assert!(truth.contains(&r.pcs), "loop policy invented {r}");
    }
}

/// The `ablations` binary's loop-policy table, pinned at both scales: the
/// instrumenter borrows the adaptive-loop schedule on every `LoopIter`
/// event instead of cloning the policy, and must log exactly what it did.
#[test]
fn loop_policy_ablation_output_is_pinned() {
    // (scale, adaptive loops?, logged accesses, total accesses, static races)
    let expected = [
        (Scale::Smoke, false, 22_500, 22_500, 3),
        (Scale::Smoke, true, 180, 22_500, 3),
        (Scale::Paper, false, 360_000, 360_000, 3),
        (Scale::Paper, true, 480, 360_000, 3),
    ];
    for (scale, adaptive, logged, total, races) in expected {
        let program = literace::workloads::synthetic::parsec_kernel(scale.hot(60_000));
        let mut cfg = RunConfig::seeded(2);
        cfg.instrument = InstrumentConfig {
            loop_policy: if adaptive {
                LoopPolicy::AdaptiveLoops(BackoffSchedule::literace())
            } else {
                LoopPolicy::FunctionGranularity
            },
            ..InstrumentConfig::default()
        };
        let out = run_literace(&program, SamplerKind::TlAdaptive, &cfg).unwrap();
        let stats = &out.instrumented.stats;
        assert_eq!(
            (stats.logged_mem, stats.total_mem, out.report.static_count()),
            (logged, total, races),
            "{scale:?}, adaptive loops: {adaptive}"
        );
    }
}

/// The burst is load-bearing: a non-bursty variant of TL-Ad (burst of one)
/// cannot be expressed directly, but the random samplers serve as the
/// non-bursty control — and the paper's Figure 5 expectation holds: bursty
/// thread-local sampling beats random sampling on rare races even at a
/// fraction of the logging budget.
#[test]
fn bursty_cold_sampling_beats_random_on_rare_races() {
    use literace::eval::{evaluate_program, EvalConfig};
    let w = build(WorkloadId::DryadStdlib, Scale::Paper);
    let cfg = EvalConfig {
        seeds: vec![1, 2],
        samplers: vec![SamplerKind::TlAdaptive, SamplerKind::Rnd25],
        ..EvalConfig::default()
    };
    let eval = evaluate_program(&w.program, &cfg).unwrap();
    let tl = &eval.samplers[0];
    let rnd = &eval.samplers[1];
    assert!(tl.esr < rnd.esr / 4.0, "TL logs much less");
    assert!(
        tl.rare_detection_rate > rnd.rare_detection_rate,
        "TL {} vs Rnd25 {} on rare races",
        tl.rare_detection_rate,
        rnd.rare_detection_rate
    );
}
