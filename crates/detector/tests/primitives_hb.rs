//! Happens-before edges induced by semaphores and barriers, end to end:
//! simulate a program using the primitive, detect online on the full
//! record stream (the instrumenter writing into an `HbDetector`), and
//! check the race verdicts.

use literace_detector::HbDetector;
use literace_instrument::{InstrumentConfig, Instrumenter, RecordSink};
use literace_log::{EventLog, Record};
use literace_samplers::AlwaysSampler;
use literace_sim::{
    alloc_page_var, lower, Addr, AddrExpr, Event, FuncId, Machine, MachineConfig, Observer, Pc,
    ProgramBuilder, RandomScheduler, RunSummary, Rvalue, SyncOpKind, ThreadId, HEAP_BASE,
    PAGE_BYTES,
};

/// Runs the program under full logging into `sink`, returning the sink
/// and the run summary.
fn run_into<K: RecordSink>(
    build: impl FnOnce(&mut ProgramBuilder),
    seed: u64,
    sink: K,
) -> (K, RunSummary) {
    let mut pb = ProgramBuilder::new();
    build(&mut pb);
    let compiled = lower(&pb.build().expect("validates"));
    let mut inst = Instrumenter::with_sink(AlwaysSampler, InstrumentConfig::full_logging(), sink);
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut RandomScheduler::seeded(seed), &mut inst)
        .expect("runs");
    (inst.finish().log, summary)
}

fn detect(build: impl FnOnce(&mut ProgramBuilder), seed: u64) -> usize {
    let (det, summary) = run_into(build, seed, HbDetector::new());
    det.finish(summary.non_stack_accesses).static_count()
}

#[test]
fn detects_simple_race_online() {
    let races = detect(
        |b| {
            let g = b.global_word("g");
            let w = b.function("w", 0, |f| {
                f.write(g);
            });
            b.entry_fn("main", |f| {
                let t1 = f.spawn(w, Rvalue::Const(0));
                let t2 = f.spawn(w, Rvalue::Const(0));
                f.join(t1);
                f.join(t2);
            });
        },
        0,
    );
    assert_eq!(races, 1);
}

#[test]
fn locked_program_is_clean_online() {
    let races = detect(
        |b| {
            let g = b.global_word("g");
            let m = b.mutex("m");
            let w = b.function("w", 0, |f| {
                f.lock(m);
                f.write(g);
                f.unlock(m);
            });
            b.entry_fn("main", |f| {
                let t1 = f.spawn(w, Rvalue::Const(0));
                let t2 = f.spawn(w, Rvalue::Const(0));
                f.join(t1);
                f.join(t2);
            });
        },
        0,
    );
    assert_eq!(races, 0);
}

#[test]
fn heap_reuse_does_not_false_positive_online() {
    // Worker allocs, writes, frees. Two workers run sequentially via
    // join, so the second may get the same address; §4.3 page sync must
    // order them even though no lock is involved.
    let races = detect(
        |b| {
            let w = b.function("w", 0, |f| {
                let p = f.alloc(8);
                f.write(AddrExpr::Indirect { base: p, offset: 0 });
                f.free(p);
            });
            b.entry_fn("main", |f| {
                let t1 = f.spawn(w, Rvalue::Const(0));
                f.join(t1);
                let t2 = f.spawn(w, Rvalue::Const(0));
                f.join(t2);
            });
        },
        0,
    );
    assert_eq!(races, 0);
}

#[test]
fn fork_join_edges_respected_online() {
    let races = detect(
        |b| {
            let g = b.global_word("g");
            let w = b.function("w", 0, |f| {
                f.write(g);
            });
            b.entry_fn("main", |f| {
                f.write(g);
                let t = f.spawn(w, Rvalue::Const(0));
                f.join(t);
                f.write(g);
            });
        },
        0,
    );
    assert_eq!(races, 0);
}

/// Feeds a call, a two-word allocation at `base` and a thread exit by
/// the main thread through the full-logging instrumenter into `sink`.
fn call_alloc_exit<K: RecordSink>(base: Addr, sink: K) -> K {
    let tid = ThreadId::MAIN;
    let func = FuncId::from_index(0);
    let mut inst = Instrumenter::with_sink(AlwaysSampler, InstrumentConfig::full_logging(), sink);
    inst.on_entry(tid, func);
    inst.on_event(&Event::Alloc {
        tid,
        pc: Pc::new(func, 0),
        base,
        words: 2,
    });
    inst.on_event(&Event::ThreadExit { tid });
    inst.finish().log
}

#[test]
fn each_event_feeds_the_record_full_logging_writes() {
    let tid = ThreadId::MAIN;
    let pc = Pc::new(FuncId::from_index(0), 0);
    // Two words straddling a page boundary touch two pages.
    let base = Addr(HEAP_BASE + PAGE_BYTES - 8);
    let written: Vec<Record> = call_alloc_exit(base, EventLog::new())
        .records()
        .iter()
        .map(|r| match *r {
            // Timestamps come from the counter bank; the test pins the rest.
            Record::Sync {
                tid, pc, kind, var, ..
            } => Record::Sync {
                tid,
                pc,
                kind,
                var,
                timestamp: 0,
            },
            other => other,
        })
        .collect();
    let page_sync = |page| Record::Sync {
        tid,
        pc,
        kind: SyncOpKind::AllocPage,
        var: alloc_page_var(page),
        timestamp: 0,
    };
    // No record for the call, one sync per page, one marker for the exit.
    let first = base.page();
    assert_eq!(
        written,
        vec![
            page_sync(first),
            page_sync(first + 1),
            Record::ThreadEnd { tid }
        ]
    );
    // The detector sink consumes exactly those records.
    assert_eq!(
        call_alloc_exit(base, HbDetector::new()).records_processed(),
        3
    );
}

#[test]
fn binary_semaphore_orders_critical_sections() {
    for seed in 0..10 {
        let races = detect(
            |b| {
                let g = b.global_word("g");
                let sem = b.semaphore("mutex", 1);
                let w = b.function("w", 0, move |f| {
                    f.sem_acquire(sem);
                    f.read(g);
                    f.write(g);
                    f.sem_release(sem);
                });
                b.entry_fn("main", move |f| {
                    let t1 = f.spawn(w, Rvalue::Const(0));
                    let t2 = f.spawn(w, Rvalue::Const(0));
                    f.join(t1);
                    f.join(t2);
                });
            },
            seed,
        );
        assert_eq!(races, 0, "seed {seed}: semaphore-protected CS raced");
    }
}

#[test]
fn semaphore_handoff_orders_producer_and_consumer() {
    for seed in 0..10 {
        let races = detect(
            |b| {
                let g = b.global_word("payload");
                let ready = b.semaphore("ready", 0);
                let consumer = b.function("consumer", 0, move |f| {
                    f.sem_acquire(ready);
                    f.read(g);
                });
                b.entry_fn("main", move |f| {
                    let t = f.spawn(consumer, Rvalue::Const(0));
                    f.write(g);
                    f.sem_release(ready);
                    f.join(t);
                });
            },
            seed,
        );
        assert_eq!(races, 0, "seed {seed}");
    }
}

#[test]
fn unprotected_access_next_to_semaphore_still_races() {
    // The semaphore protects nothing here: the racy write happens before P.
    let races = detect(
        |b| {
            let g = b.global_word("g");
            let sem = b.semaphore("s", 1);
            let w = b.function("w", 0, move |f| {
                f.write(g); // outside the critical section
                f.sem_acquire(sem);
                f.compute(3);
                f.sem_release(sem);
            });
            b.entry_fn("main", move |f| {
                let t1 = f.spawn(w, Rvalue::Const(0));
                let t2 = f.spawn(w, Rvalue::Const(0));
                f.join(t1);
                f.join(t2);
            });
        },
        1,
    );
    assert!(races > 0, "pre-P writes must still race");
}

#[test]
fn barrier_separates_phases() {
    // Phase 1: each thread writes its own slot. Barrier. Phase 2: each
    // thread reads the *other* thread's slot. Without the barrier edge this
    // is a textbook race; with it, it is clean.
    for seed in 0..10 {
        let races = detect(
            |b| {
                let slots = b.global_array("slots", 2);
                let bar = b.barrier("phase", 2);
                let w0 = b.function("w0", 0, move |f| {
                    f.write(slots.at(0));
                    f.barrier_wait(bar);
                    f.read(slots.at(1));
                });
                let w1 = b.function("w1", 0, move |f| {
                    f.write(slots.at(1));
                    f.barrier_wait(bar);
                    f.read(slots.at(0));
                });
                b.entry_fn("main", move |f| {
                    let t1 = f.spawn(w0, Rvalue::Const(0));
                    let t2 = f.spawn(w1, Rvalue::Const(0));
                    f.join(t1);
                    f.join(t2);
                });
            },
            seed,
        );
        assert_eq!(races, 0, "seed {seed}: barrier edge missing");
    }
}

#[test]
fn writes_in_the_same_phase_race_despite_the_barrier() {
    let races = detect(
        |b| {
            let g = b.global_word("g");
            let bar = b.barrier("phase", 2);
            let w = b.function("w", 0, move |f| {
                f.write(g); // both threads, same phase: race
                f.barrier_wait(bar);
            });
            b.entry_fn("main", move |f| {
                let t1 = f.spawn(w, Rvalue::Const(0));
                let t2 = f.spawn(w, Rvalue::Const(0));
                f.join(t1);
                f.join(t2);
            });
        },
        2,
    );
    assert_eq!(races, 1, "same-phase writes must race");
}

#[test]
fn multi_generation_barrier_pipeline_is_clean() {
    // Double-buffered pipeline: writers alternate buffers each generation,
    // readers read the buffer written in the previous generation.
    for seed in 0..6 {
        let races = detect(
            |b| {
                let bufs = b.global_array("bufs", 2);
                let bar = b.barrier("gen", 2);
                let w = b.function("w", 1, move |f| {
                    // Generation 0: write slot 0; barrier; read slot 1 …
                    f.loop_(4, |f| {
                        f.write(bufs.at(0));
                        f.barrier_wait(bar);
                        f.read(bufs.at(0));
                        f.barrier_wait(bar);
                    });
                });
                // One writer, one reader-ish (same body, same slot): every
                // write/read pair is separated by a barrier generation.
                b.entry_fn("main", move |f| {
                    let t1 = f.spawn(w, Rvalue::Const(0));
                    let t2 = f.spawn(w, Rvalue::Const(1));
                    f.join(t1);
                    f.join(t2);
                });
            },
            seed,
        );
        // Writes by both threads to bufs[0] in the SAME phase race; this
        // checks the barrier does not accidentally over-order (mask) them.
        assert!(races > 0, "seed {seed}: same-phase writes were masked");
    }
}

/// Frontier compaction reclaims location state once it can no longer race,
/// without changing any verdict: sequential (joined) phases touch disjoint
/// heap buffers; after each join the previous phase's locations are
/// reclaimable.
#[test]
fn compaction_bounds_tracked_locations() {
    struct Probe {
        det: HbDetector,
        peak: usize,
    }
    impl RecordSink for Probe {
        fn push(&mut self, record: Record) {
            self.det.process(&record);
            self.peak = self.peak.max(self.det.tracked_locations());
        }
    }

    let build = |pb: &mut ProgramBuilder| {
        let phase = pb.function("phase", 0, |f| {
            let buf = f.alloc(256);
            f.loop_(256, |f| {
                f.write(AddrExpr::Indirect {
                    base: buf,
                    offset: 0,
                });
            });
            // Touch each word once via indexed strides.
            let idx = f.local();
            f.loop_(256, |f| {
                f.write(AddrExpr::IndirectIndexed {
                    base: buf,
                    index: idx,
                    modulus: 256,
                });
                f.add_local(idx, Rvalue::Const(1));
            });
            f.free(buf);
        });
        pb.entry_fn("main", move |f| {
            for _ in 0..8 {
                let t = f.spawn(phase, Rvalue::Const(0));
                f.join(t);
            }
        });
    };
    let probe = Probe {
        det: HbDetector::new(),
        peak: 0,
    };
    let (probe, summary) = run_into(build, 1, probe);
    // Eight phases × 256 distinct words would accumulate ~2048 locations
    // without compaction; with per-exit compaction the peak stays near one
    // phase's footprint.
    assert!(
        probe.peak < 700,
        "peak tracked locations {} suggests compaction is not reclaiming",
        probe.peak
    );
    let report = probe.det.finish(summary.non_stack_accesses);
    assert_eq!(report.static_count(), 0, "phases are join-ordered");
}
