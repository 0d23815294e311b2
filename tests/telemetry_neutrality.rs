//! Telemetry neutrality: flipping metrics recording — or event tracing —
//! on can never change what the pipeline produces — not a race report on
//! any detection path (sequential, sharded ×{2,4,8}, streaming), not a
//! byte of an encoded log. This is the contract that makes
//! `--metrics-out` and `--trace-out` safe to use on a run whose results
//! matter.
//!
//! The runtime flag is process-global and the test runner is parallel, so
//! every test here serializes on one mutex and restores the flag to off
//! before releasing it.

use std::sync::Mutex;

use literace::detector::{
    detect, detect_sharded, detect_stream, DetectConfig, RaceReport,
};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{EventLog, LogWriterV2};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::telemetry;
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

static TOGGLE: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    TOGGLE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the runtime flag set to `on`, restoring off afterwards.
fn with_flag<T>(on: bool, f: impl FnOnce() -> T) -> T {
    telemetry::set_enabled(on);
    let out = f();
    telemetry::set_enabled(false);
    out
}

/// Runs `f` with both the metrics registry and event tracing set to `on`
/// (the `--trace-out` configuration), restoring both to off and draining
/// the trace collector afterwards so later tests start clean. Returns
/// `f`'s output plus the drained tracks.
fn with_trace<T>(on: bool, f: impl FnOnce() -> T) -> (T, Vec<telemetry::TrackData>) {
    telemetry::reset_trace();
    telemetry::set_enabled(on);
    telemetry::set_trace_enabled(on);
    let out = f();
    telemetry::set_trace_enabled(false);
    telemetry::set_enabled(false);
    (out, telemetry::drain_tracks())
}

/// Runs `program` once under full logging and returns the event log plus
/// the non-stack access count the detector needs for rarity splits.
fn full_log(program: &Program, seed: u64) -> (EventLog, u64) {
    let compiled = lower(program);
    let mut inst = Instrumenter::new(
        SamplerKind::Always.build(seed),
        InstrumentConfig::default(),
    );
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 48), &mut inst)
        .expect("program runs");
    (inst.finish().log, summary.non_stack_accesses)
}

/// One report per detection path: sequential, sharded ×{2,4,8}, streaming.
fn all_paths(log: &EventLog, non_stack: u64) -> Vec<RaceReport> {
    let mut out = vec![detect(log, non_stack)];
    for threads in [2usize, 4, 8] {
        out.push(detect_sharded(
            log,
            non_stack,
            &DetectConfig::with_threads(threads),
        ));
    }
    let blocks = log.records().chunks(4096).map(|c| Ok(c.to_vec()));
    out.push(
        detect_stream(blocks, non_stack, &DetectConfig::with_threads(4))
            .expect("in-memory blocks decode"),
    );
    out
}

fn v2_bytes(log: &EventLog) -> Vec<u8> {
    let mut w = LogWriterV2::new(Vec::new());
    for r in log {
        w.write_record(r).expect("vec sink");
    }
    w.finish().expect("vec sink")
}

/// Detects `program`'s full log with telemetry off, then on, and asserts
/// every path's report — and the v2 encoding of the log — is byte-equal.
fn assert_neutral(program: &Program, seed: u64, context: &str) {
    let _guard = serialized();
    let (log, non_stack) = full_log(program, seed);
    let off = with_flag(false, || (all_paths(&log, non_stack), v2_bytes(&log)));
    let on = with_flag(true, || (all_paths(&log, non_stack), v2_bytes(&log)));
    for (i, (o, n)) in off.0.iter().zip(&on.0).enumerate() {
        assert_eq!(o, n, "{context}: path {i} changed under telemetry");
        assert_eq!(
            format!("{o:?}"),
            format!("{n:?}"),
            "{context}: path {i} renders differently under telemetry"
        );
    }
    assert_eq!(off.1, on.1, "{context}: v2 encoding changed under telemetry");
}

#[test]
fn workload_reports_are_byte_identical_on_vs_off() {
    for id in [WorkloadId::LfList, WorkloadId::LkrHash] {
        let w = build(id, Scale::Smoke);
        assert_neutral(&w.program, 2, id.name());
    }
}

/// Event tracing is neutral too: with `--trace-out`-style tracing on,
/// every detection path's report and the v2 encoding of the log are
/// byte-identical to a fully untraced run — tracing observes the
/// pipeline, never steers it. While off the trace collector stays empty;
/// while on the sharded workers show up as their own tracks.
#[test]
fn tracing_reports_and_log_bytes_are_byte_identical_on_vs_off() {
    let _guard = serialized();
    for id in [WorkloadId::LfList, WorkloadId::LkrHash] {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 2);
        let (off, off_tracks) =
            with_trace(false, || (all_paths(&log, non_stack), v2_bytes(&log)));
        let (on, on_tracks) =
            with_trace(true, || (all_paths(&log, non_stack), v2_bytes(&log)));
        for (i, (o, n)) in off.0.iter().zip(&on.0).enumerate() {
            assert_eq!(o, n, "{}: path {i} changed under tracing", id.name());
            assert_eq!(
                format!("{o:?}"),
                format!("{n:?}"),
                "{}: path {i} renders differently under tracing",
                id.name()
            );
        }
        assert_eq!(
            off.1,
            on.1,
            "{}: v2 encoding changed under tracing",
            id.name()
        );
        assert_eq!(
            off_tracks.iter().map(|t| t.events.len()).sum::<usize>(),
            0,
            "tracing disabled must record nothing: {:?}",
            off_tracks.iter().map(|t| &t.track).collect::<Vec<_>>()
        );
        assert!(
            on_tracks.iter().map(|t| t.events.len()).sum::<usize>() > 0,
            "{}: tracing enabled recorded no events",
            id.name()
        );
        assert!(
            on_tracks.iter().any(|t| t.track.starts_with("literace-shard-")),
            "{}: sharded workers missing from tracks: {:?}",
            id.name(),
            on_tracks.iter().map(|t| &t.track).collect::<Vec<_>>()
        );
        // A phase's trace span carries its metric's name: the merge span
        // is `phase.merge`, and each shard track opens `phase.shard_replay`.
        let begins = |t: &telemetry::TrackData, name: &str| {
            t.events
                .iter()
                .any(|e| e.kind == telemetry::TraceKind::Begin && e.name == name)
        };
        assert!(on_tracks.iter().any(|t| begins(t, "phase.merge")));
        assert!(on_tracks.iter().all(|t| !begins(t, "merge")));
        for t in on_tracks
            .iter()
            .filter(|t| t.track.starts_with("literace-shard-"))
        {
            assert!(begins(t, "phase.shard_replay"), "{}", t.track);
        }
    }
}

/// `detector.records.routed` counts every record the engine replays
/// once, at every shard count, in memory and streamed: the `--progress`
/// heartbeat reads its rate and its share of the log's record total.
/// `detector.shard.events` counts each access once, in the slot of the
/// one shard that owns it, so its slots sum to the log's access count.
#[test]
fn every_shard_count_routes_each_record_once() {
    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 2);
    let accesses = log
        .records()
        .iter()
        .filter(|r| matches!(r, Record::Mem { .. }))
        .count() as u64;
    assert!(accesses > 0);
    // The records routed and the accesses each shard owned, by slot.
    let counted = |detect: &dyn Fn()| {
        telemetry::metrics().reset();
        with_flag(true, detect);
        let snap = telemetry::metrics().snapshot();
        let routed = snap.counters["detector.records.routed"];
        (routed, snap.slots["detector.shard.events"].clone())
    };
    for threads in [1usize, 2, 4, 8] {
        let cfg = DetectConfig::with_threads(threads);
        let in_memory = counted(&|| {
            detect_sharded(&log, non_stack, &cfg);
        });
        let streamed = counted(&|| {
            let blocks = log.records().chunks(1000).map(|c| Ok(c.to_vec()));
            detect_stream(blocks, non_stack, &cfg).expect("in-memory blocks decode");
        });
        for (how, (routed, events)) in [("in memory", in_memory), ("streamed", streamed)] {
            assert_eq!(routed, log.len() as u64, "{how}, threads={threads}");
            assert_eq!(
                events.iter().sum::<u64>(),
                accesses,
                "{how}, threads={threads}: {events:?}"
            );
            assert!(
                events[threads..].iter().all(|&n| n == 0),
                "{how}, threads={threads}: a slot past the last shard counted: {events:?}"
            );
        }
    }
}

/// A resumed detection loads its replay stage once, whatever the shard
/// count: `detector.checkpoint.resumes` reads 1 after each, also where
/// every shard worker replays from its own copy of that stage. The
/// suffix interleaves blocks of lock handoffs with the log's own blocks,
/// so at N shards the state moves between the inline detector and the
/// replicas at every block, and those moves count no resume.
#[test]
fn a_resumed_detection_counts_one_resume_at_every_shard_count() {
    use literace::detector::{detect_stream_from, HbDetector};
    use literace::sim::{FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 2);
    let split = log.len() / 2;
    let mut first = HbDetector::new();
    for r in &log.records()[..split] {
        first.process(r);
    }
    let cp = first.save_checkpoint(non_stack);
    let mut timestamp = 0;
    let suffix: Vec<Vec<Record>> = log.records()[split..]
        .chunks(500)
        .flat_map(|chunk| {
            let handoffs = (0..100)
                .map(|k| {
                    timestamp += 1;
                    Record::Sync {
                        tid: ThreadId::from_index(k % 2),
                        pc: Pc::new(FuncId::from_index(0), 0),
                        kind: if k % 2 == 0 {
                            SyncOpKind::LockAcquire
                        } else {
                            SyncOpKind::LockRelease
                        },
                        var: SyncVar(0x7fff_0000),
                        timestamp,
                    }
                })
                .collect();
            [chunk.to_vec(), handoffs]
        })
        .collect();
    let whole: EventLog = log.records()[..split]
        .iter()
        .chain(suffix.iter().flatten())
        .copied()
        .collect();
    let want = detect(&whole, non_stack);
    for threads in [1usize, 2, 4, 8] {
        telemetry::metrics().reset();
        let report = with_flag(true, || {
            detect_stream_from(
                suffix.iter().map(Ok),
                non_stack,
                &DetectConfig::with_threads(threads),
                Some(&cp),
            )
            .expect("in-memory blocks decode")
        });
        assert_eq!(report, want, "threads={threads}");
        assert_eq!(
            telemetry::metrics().snapshot().counters["detector.checkpoint.resumes"],
            1,
            "threads={threads}"
        );
    }
}

/// Every replica's channel holds at most its depth (4 blocks) plus the
/// one block the worker has taken and not yet counted off: over a long
/// stream of small blocks, the queue high-water mark of each worker stays
/// at or below 5, so blocks in flight are bounded by the channel depth,
/// not by the log's length.
#[test]
fn replica_queues_hold_at_most_the_channel_depth_plus_one() {
    use literace::detector::detect_stream_from;
    use literace::sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

    const DEPTH_PLUS_ONE: u64 = 5;
    let _guard = serialized();
    let records: Vec<Record> = (0..200_000usize)
        .map(|i| {
            let tid = ThreadId::from_index(i % 4);
            let pc = Pc::new(FuncId::from_index(i % 5), i % 97);
            if i % 16 == 0 {
                let kind = if i % 32 == 0 {
                    SyncOpKind::LockRelease
                } else {
                    SyncOpKind::LockAcquire
                };
                Record::Sync {
                    tid,
                    pc,
                    kind,
                    var: SyncVar(0x2000_0000),
                    timestamp: i as u64,
                }
            } else {
                Record::Mem {
                    tid,
                    pc,
                    addr: Addr::global((i % 251) as u64 * 8),
                    is_write: i % 3 == 0,
                    mask: SamplerMask::FULL,
                }
            }
        })
        .collect();
    let log: EventLog = records.iter().copied().collect();
    let want = detect(&log, 0);
    for threads in [2usize, 4, 8] {
        telemetry::metrics().reset();
        let report = with_flag(true, || {
            let blocks = records.chunks(64).map(Ok);
            detect_stream_from(blocks, 0, &DetectConfig::with_threads(threads), None)
        });
        assert_eq!(
            report.expect("in-memory blocks decode"),
            want,
            "threads={threads}"
        );
        let hwm = &telemetry::metrics().snapshot().slots["detector.shard.queue_depth_hwm"];
        for (index, &held) in hwm.iter().enumerate() {
            if index < threads {
                assert!(
                    (1..=DEPTH_PLUS_ONE).contains(&held),
                    "threads={threads}: replica {index} held {held} blocks: {hwm:?}"
                );
            } else {
                assert_eq!(held, 0, "threads={threads}: no replica {index}: {hwm:?}");
            }
        }
    }
}

#[test]
fn full_pipeline_is_neutral_including_streaming_detect() {
    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = RunConfig::seeded(3);
        cfg.detect_threads = threads;
        let run = |on| {
            with_flag(on, || {
                run_literace(&w.program, SamplerKind::TlAdaptive, &cfg)
                    .expect("pipeline runs")
            })
        };
        let off = run(false);
        let on = run(true);
        let ctx = format!("threads={threads}");
        assert_eq!(off.report, on.report, "{ctx}: report changed");
        assert_eq!(
            off.instrumented.log, on.instrumented.log,
            "{ctx}: log changed"
        );
        assert_eq!(
            (
                off.instrumented.stats.total_mem,
                off.instrumented.stats.logged_mem,
                off.instrumented.stats.sync_records,
            ),
            (
                on.instrumented.stats.total_mem,
                on.instrumented.stats.logged_mem,
                on.instrumented.stats.sync_records,
            ),
            "{ctx}: instrumentation counters changed"
        );
    }
}

#[test]
fn snapshot_round_trips_after_an_enabled_run() {
    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    with_flag(true, || {
        let mut cfg = RunConfig::seeded(1);
        cfg.detect_threads = 2;
        run_literace(&w.program, SamplerKind::TlAdaptive, &cfg).expect("pipeline runs");
    });
    let snap = telemetry::metrics().snapshot();
    let json = snap.to_json();
    assert!(
        json.contains(&format!("\"schema_version\": {}", telemetry::SCHEMA_VERSION)),
        "snapshot must carry the schema version"
    );
    let back = telemetry::Snapshot::from_json(&json).expect("snapshot parses back");
    assert_eq!(back, snap, "JSON round-trip loses information");
    assert_eq!(back.to_json(), json, "serialization is not deterministic");
    assert_eq!(
        snap.missing_required(),
        Vec::<&str>::new(),
        "snapshot is missing required pipeline metrics"
    );
}

/// The adaptive epoch frontier keeps its own counters (escalations,
/// de-escalations, memo hits, resident escalated locations). They must
/// surface in the snapshot after an enabled run — and recording them must
/// not change the report, which the path comparisons above already pin.
#[test]
fn epoch_counters_surface_only_under_telemetry() {
    use literace::log::{Record, SamplerMask};
    use literace::sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

    let _guard = serialized();
    let t = |i: usize| ThreadId::from_index(i);
    let mem = |tid, pcv: usize, addr: u64, w| Record::Mem {
        tid,
        pc: Pc::new(FuncId::from_index(0), pcv),
        addr: Addr::global(addr),
        is_write: w,
        mask: SamplerMask::FULL,
    };
    let sync = |tid, kind, ts| Record::Sync {
        tid,
        pc: Pc::new(FuncId::from_index(0), 99),
        kind,
        var: SyncVar(0x2000_0000),
        timestamp: ts,
    };
    // Two concurrent writes escalate address 0; the lock handoff orders
    // t1's final write after both, de-escalating it. Thread 0's repeated
    // identical read of address 1 exercises the same-epoch memo.
    let log: EventLog = vec![
        mem(t(0), 1, 0, true),
        mem(t(1), 2, 0, true),
        mem(t(0), 3, 1, false),
        mem(t(0), 3, 1, false),
        sync(t(0), SyncOpKind::LockRelease, 1),
        sync(t(1), SyncOpKind::LockAcquire, 2),
        mem(t(1), 4, 0, true),
    ]
    .into_iter()
    .collect();

    let counters_after = |on: bool| {
        telemetry::metrics().reset();
        let report = with_flag(on, || detect(&log, 7));
        assert_eq!(report.static_count(), 1, "the w-w race is found either way");
        telemetry::metrics().snapshot()
    };

    let off = counters_after(false);
    for name in [
        "detector.epoch.escalations",
        "detector.epoch.deescalations",
        "detector.epoch.memo_hits",
    ] {
        assert_eq!(off.counters[name], 0, "{name} recorded while disabled");
    }
    assert_eq!(off.gauges["detector.epoch.resident_shared"], 0);

    let on = counters_after(true);
    assert!(on.counters["detector.epoch.escalations"] >= 1, "{on:?}");
    assert!(on.counters["detector.epoch.deescalations"] >= 1, "{on:?}");
    assert!(on.counters["detector.epoch.memo_hits"] >= 1, "{on:?}");
    assert!(on.gauges["detector.epoch.resident_shared"] >= 1, "{on:?}");
}

/// The salvage path is neutral too: salvaging a torn log and detecting on
/// it produces byte-identical reports and salvage tallies whether
/// telemetry records or not — and the `log.salvage.*` counters surface
/// only while enabled.
#[test]
fn salvage_detection_is_neutral() {
    use literace::log::read_log_salvage;

    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 5);
    let mut bytes = v2_bytes(&log);
    bytes.truncate(bytes.len() * 2 / 3); // a torn log with work to salvage
    let run = |on: bool| {
        telemetry::metrics().reset();
        let out = with_flag(on, || {
            let (salvaged, report) = read_log_salvage(&bytes[..]);
            (detect(&salvaged, non_stack), format!("{report}"))
        });
        (out, telemetry::metrics().snapshot())
    };
    let (off, off_snap) = run(false);
    let (on, on_snap) = run(true);
    assert_eq!(off.0, on.0, "salvage detection changed under telemetry");
    assert_eq!(off.1, on.1, "salvage report changed under telemetry");
    assert_eq!(off_snap.counters["log.salvage.runs"], 0);
    assert!(on_snap.counters["log.salvage.runs"] >= 1, "{on_snap:?}");
}

/// The parallel decode pool is neutral too: decoding a v2 log with
/// `--decode-threads` ≥ 2 yields identical records and race reports with
/// telemetry on or off — and the `log.decode.*` pool metrics surface only
/// while enabled.
#[test]
fn parallel_decode_pool_is_neutral() {
    use literace::log::{DecodeOpts, RecordStream};

    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 5);
    let bytes = v2_bytes(&log);
    let run = |on: bool| {
        telemetry::metrics().reset();
        let out = with_flag(on, || {
            let stream = RecordStream::spawn_bytes(
                bytes.clone().into(),
                DecodeOpts::with_threads(4),
            )
            .expect("pool spawns");
            detect_stream(stream, non_stack, &DetectConfig::with_threads(2))
                .expect("clean log decodes")
        });
        (out, telemetry::metrics().snapshot())
    };
    let (off, off_snap) = run(false);
    let (on, on_snap) = run(true);
    assert_eq!(off, on, "parallel decode changed the report under telemetry");
    for name in ["log.decode.worker_busy_ns", "log.decode.worker_idle_ns"] {
        assert_eq!(off_snap.counters[name], 0, "{name} recorded while disabled");
    }
    for name in ["log.decode.blocks_inflight_hwm", "log.decode.ooo_reorder_depth"] {
        assert_eq!(off_snap.gauges[name], 0, "{name} recorded while disabled");
    }
    assert!(
        on_snap.gauges["log.decode.blocks_inflight_hwm"] >= 1,
        "{on_snap:?}"
    );
    assert!(on_snap.counters["log.decode.worker_busy_ns"] >= 1, "{on_snap:?}");
}

/// The encode pool is neutral too: writing a log through `LogWriterV2`
/// at two encode workers yields a byte-stream that decodes to identical
/// records and identical race reports with telemetry on or off — and the
/// `log.encode.*` pool metrics surface only while enabled.
#[test]
fn pipelined_encode_pool_is_neutral() {
    use literace::log::{read_log_auto, EncodeOpts};

    let _guard = serialized();
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 5);
    let run = |on: bool| {
        telemetry::metrics().reset();
        let out = with_flag(on, || {
            let mut sink = LogWriterV2::with_opts(
                Vec::new(),
                EncodeOpts::with_threads(2).block_records(64),
            )
            .expect("pool spawns");
            for r in &log {
                sink.write_record(r).expect("vec sink");
            }
            let bytes = sink.finish().expect("vec sink");
            let decoded = read_log_auto(&bytes[..]).expect("clean log decodes");
            (detect(&decoded, non_stack), bytes)
        });
        (out, telemetry::metrics().snapshot())
    };
    let (off, off_snap) = run(false);
    let (on, on_snap) = run(true);
    assert_eq!(off.0, on.0, "pipelined encode changed the report under telemetry");
    assert_eq!(off.1, on.1, "pipelined encode changed the bytes under telemetry");
    for name in ["log.encode.worker_busy_ns", "log.encode.worker_idle_ns"] {
        assert_eq!(off_snap.counters[name], 0, "{name} recorded while disabled");
    }
    for name in [
        "log.encode.sealed_blocks_hwm",
        "log.encode.blocks_inflight_hwm",
    ] {
        assert_eq!(off_snap.gauges[name], 0, "{name} recorded while disabled");
    }
    assert!(on_snap.counters["log.encode.worker_busy_ns"] >= 1, "{on_snap:?}");
    assert!(
        on_snap.gauges["log.encode.sealed_blocks_hwm"] >= 1,
        "{on_snap:?}"
    );
    assert!(
        on_snap.gauges["log.encode.blocks_inflight_hwm"] >= 1,
        "{on_snap:?}"
    );
}

/// The encode pool holds at most its window: however its workers are
/// scheduled, no more than `auto_stream_depth(threads, 0) + threads`
/// blocks are sealed and not yet committed. Small blocks make many of
/// them, so a descheduled worker would otherwise let the rest pile up
/// in the reorder buffer.
#[test]
fn the_encode_pool_holds_at_most_its_window() {
    use literace::log::{auto_stream_depth, read_log_auto, EncodeOpts};
    use literace::sim::{Addr, FuncId, Pc, ThreadId};

    let _guard = serialized();
    let records: Vec<Record> = (0..200_000usize)
        .map(|i| Record::Mem {
            tid: ThreadId::from_index(i % 4),
            pc: Pc::new(FuncId::from_index(i % 5), i),
            addr: Addr::global((i % 13) as u64 * 8),
            is_write: i % 2 == 0,
            mask: SamplerMask::FULL,
        })
        .collect();
    for threads in [2usize, 4] {
        telemetry::metrics().reset();
        let bytes = with_flag(true, || {
            let opts = EncodeOpts::with_threads(threads).block_records(16);
            let mut sink = LogWriterV2::with_opts(Vec::new(), opts).expect("pool spawns");
            for r in &records {
                sink.write_record(r).expect("vec sink");
            }
            sink.finish().expect("vec sink")
        });
        let held = telemetry::metrics().snapshot().gauges["log.encode.blocks_inflight_hwm"];
        let window = (auto_stream_depth(threads, 0) + threads) as u64;
        assert!(
            (1..=window).contains(&held),
            "{threads} workers held {held} blocks, window {window}"
        );
        let log = read_log_auto(&bytes[..]).expect("clean log decodes");
        assert_eq!(log.records(), &records[..], "{threads} workers");
    }
}

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (2u32..5, 2u32..5, 5u32..15, 3u32..7, any::<u64>()).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random racy programs: every detection path and the v2 encoding are
    /// unchanged by telemetry.
    #[test]
    fn random_racy_programs_are_neutral(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        assert_neutral(&program, cfg.seed, &format!("{cfg:?}"));
    }
}
