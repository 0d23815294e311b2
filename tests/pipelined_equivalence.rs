//! Encode-worker equivalence: the v2 writer emits the same file bytes at
//! every encode-worker count — 0 (encode and commit on the caller) or N
//! (raw block builders → background encode pool → in-order committer;
//! `V2Sink::new` runs one worker when a second CPU exists) — for every
//! block size. The log decodes to
//! the source [`EventLog`], and detection reports over it are identical
//! on every detection path. The chaos half pins soundness: a run killed
//! mid-write (the committer's device dies, via `fault.rs` injection)
//! salvages to a log that can never manufacture a race the clean run
//! would not report.

use std::sync::{Arc, Mutex};

use literace::detector::{detect, detect_sharded, detect_stream, DetectConfig};
use literace::instrument::{InstrumentConfig, Instrumenter, V2Sink};
use literace::log::{
    read_log_auto, read_log_salvage, DecodeOpts, EncodeOpts, EventLog, FaultPlan, FaultyReader,
    FaultySink, LogWriterV2, RecordStream, SealState,
};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

const ENCODE_THREADS: [usize; 4] = [0, 1, 2, 4];
const BLOCK_RECORDS: [usize; 3] = [16, 256, 4096];
const DETECT_THREADS: [usize; 2] = [2, 4];

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

/// Encodes `log` through the v2 writer with `opts`, returning the sealed
/// file bytes.
fn pipelined_bytes(log: &EventLog, opts: EncodeOpts) -> Vec<u8> {
    let mut sink = LogWriterV2::with_opts(Vec::new(), opts).expect("pool spawns");
    for r in log {
        sink.write_record(r).expect("vec sink");
    }
    sink.finish().expect("vec sink")
}

/// The core check: for every encode-thread count × block size, the file
/// bytes equal the 0-worker bytes at that block size, the log decodes to
/// the identical record sequence, and every detection path (sequential,
/// sharded, streaming) over it reproduces the source log's report.
fn assert_pipelined_identical(log: &EventLog, non_stack: u64, context: &str) {
    let sequential = detect(log, non_stack);
    for block_records in BLOCK_RECORDS {
        let inline = pipelined_bytes(log, EncodeOpts::with_threads(0).block_records(block_records));
        for threads in ENCODE_THREADS {
            let opts = EncodeOpts::with_threads(threads).block_records(block_records);
            let bytes = pipelined_bytes(log, opts);
            assert!(
                bytes == inline,
                "{context}: {threads} encode threads × {block_records} block records \
                 changed the file bytes"
            );
            let decoded = read_log_auto(&bytes[..]).expect("clean log decodes");
            assert_eq!(
                decoded.records(),
                log.records(),
                "{context}: {threads} encode threads × {block_records} \
                 block records changed the record stream"
            );
            assert_eq!(
                sequential,
                detect(&decoded, non_stack),
                "{context}: {threads}×{block_records} sequential detect diverged"
            );
            for detect_threads in DETECT_THREADS {
                let cfg = DetectConfig::with_threads(detect_threads);
                assert_eq!(
                    sequential,
                    detect_sharded(&decoded, non_stack, &cfg),
                    "{context}: {threads}×{block_records}×{detect_threads} \
                     sharded detect diverged"
                );
                let stream = RecordStream::spawn_bytes(
                    bytes.clone().into(),
                    DecodeOpts::with_threads(detect_threads),
                )
                .expect("pool spawns");
                let report =
                    detect_stream(stream, non_stack, &cfg).expect("clean log decodes");
                assert_eq!(
                    sequential, report,
                    "{context}: {threads}×{block_records}×{detect_threads} \
                     streaming detect diverged"
                );
            }
        }
    }
}

/// Every benchmark workload (Table 2), smoke scale: the acceptance
/// criterion for the pipelined write path.
#[test]
fn pipelined_sink_is_identical_on_every_workload() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 1);
        assert_pipelined_identical(&log, non_stack, &format!("workload {id}"));
    }
}

/// End to end through the run pipeline: `run_literace_with_sink` with a
/// pooled writer produces the same file bytes — and so the same reports —
/// as a 0-worker `V2Sink` run at the same block size (both runs share one
/// seed, so one interleaving).
#[test]
fn pipelined_run_matches_inline_sink_run() {
    for id in [WorkloadId::LfList, WorkloadId::LkrHash, WorkloadId::Apache1] {
        let w = build(id, Scale::Smoke);
        let cfg = RunConfig::seeded(3);
        // Small blocks, so the pooled leg reorders many blocks per run.
        let inline_sink =
            V2Sink::with_opts(Vec::new(), EncodeOpts::with_threads(0).block_records(256))
                .expect("inline writer");
        let (summary, inline_out) =
            run_literace_with_sink(&w.program, SamplerKind::TlAdaptive, &cfg, inline_sink)
                .expect("inline run");
        let inline_bytes = inline_out.log.finish().expect("vec sink");
        let inline_log = read_log_auto(&inline_bytes[..]).expect("clean log");
        let clean = detect(&inline_log, summary.non_stack_accesses);
        for threads in ENCODE_THREADS {
            let sink = LogWriterV2::with_opts(
                Vec::new(),
                EncodeOpts::with_threads(threads).block_records(256),
            )
            .expect("pool spawns");
            let (p_summary, out) =
                run_literace_with_sink(&w.program, SamplerKind::TlAdaptive, &cfg, sink)
                    .expect("pipelined run");
            assert_eq!(
                p_summary.non_stack_accesses, summary.non_stack_accesses,
                "{id}: runs diverged before the sink"
            );
            let bytes = out.log.finish().expect("vec sink");
            assert!(
                bytes == inline_bytes,
                "{id} × {threads} encode threads: file bytes differ from V2Sink"
            );
            let pipelined_log = read_log_auto(&bytes[..]).expect("clean log");
            assert_eq!(
                pipelined_log, inline_log,
                "{id} × {threads} encode threads: decoded logs differ"
            );
            assert_eq!(
                clean,
                detect(&pipelined_log, p_summary.non_stack_accesses),
                "{id} × {threads} encode threads: reports differ"
            );
        }
    }
}

/// A run killed mid-write: the committer's device dies partway (fault
/// injection), the footer never lands, and whatever bytes reached the
/// device salvage to a log that is never classified Sealed and never
/// reports a race the clean log would not.
#[test]
fn killed_pipelined_writer_salvages_to_a_subset() {
    let w = build(WorkloadId::LkrHash, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 2);
    let clean = detect(&log, non_stack);
    for fail_after in [150u64, 900, 4000, 20_000] {
        let shared = Arc::new(Mutex::new(Vec::new()));
        let device = FaultySink::new(SharedVec(shared.clone()), Some(fail_after), true, 11);
        let mut sink =
            LogWriterV2::with_opts(device, EncodeOpts::with_threads(2).block_records(32))
                .expect("pool spawns");
        for r in &log {
            sink.write_record(r).expect("errors surface from finish");
        }
        sink.finish()
            .expect_err("a dying device must surface an error");
        let bytes = shared.lock().unwrap().clone();
        let (salvaged, report) = read_log_salvage(&bytes[..]);
        assert_ne!(
            report.seal,
            SealState::Sealed,
            "fail_after {fail_after}: a killed writer can never seal"
        );
        let from_salvage = detect(&salvaged, non_stack);
        assert!(
            from_salvage.static_keys().is_subset(&clean.static_keys()),
            "fail_after {fail_after} invented races: {report}"
        );
    }
}

/// A `Write` handle over a shared buffer, so bytes written before the
/// injected device death remain observable after the sink is consumed.
#[derive(Debug)]
struct SharedVec(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedVec {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random racy programs: the pipelined log decodes to the identical
    /// stream and identical reports for every encode-thread × block-size
    /// combination.
    #[test]
    fn random_programs_encode_identically_through_the_pipeline(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        assert_pipelined_identical(&log, non_stack, &format!("racy {cfg:?}"));
    }

    /// Chaos: a sealed pipelined log torn at an arbitrary point (and read
    /// through an unreliable device) salvages to a subset of the clean
    /// races — the pipelined writer emits nothing the salvage taint rules
    /// cannot protect.
    #[test]
    fn torn_pipelined_logs_salvage_to_a_subset(
        cfg in arb_config(),
        cut_seed: u64,
        seed: u64,
    ) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        let clean = detect(&log, non_stack);
        let bytes = pipelined_bytes(
            &log,
            EncodeOpts::with_threads(2).block_records(8),
        );
        let len = bytes.len() as u64;
        let plan = FaultPlan {
            truncate_at: Some(4 + cut_seed % (len - 3)),
            short_reads: true,
            ..FaultPlan::default()
        };
        let reader = FaultyReader::new(&bytes[..], plan, seed);
        let (salvaged, report) = read_log_salvage(reader);
        let from_salvage = detect(&salvaged, non_stack);
        prop_assert!(
            from_salvage.static_keys().is_subset(&clean.static_keys()),
            "salvage invented races: {report}"
        );
    }
}

/// The degenerate block size: one record per block stresses the reorder
/// path hardest (every record is its own frame) and still round-trips.
#[test]
fn single_record_blocks_round_trip() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 1);
    let bytes = pipelined_bytes(&log, EncodeOpts::with_threads(4).block_records(1));
    let decoded = read_log_auto(&bytes[..]).expect("clean log decodes");
    assert_eq!(decoded.records(), log.records());
    assert_eq!(detect(&decoded, non_stack), detect(&log, non_stack));
}

/// 0-worker `V2Sink` bytes equal pooled bytes at the same block size; a
/// different block size moves the block boundaries, never the decoded
/// records.
#[test]
fn record_identity_survives_different_block_boundaries() {
    let w = build(WorkloadId::Apache1, Scale::Smoke);
    let (log, _) = full_log(&w.program, 1);
    let pipelined = pipelined_bytes(&log, EncodeOpts::with_threads(2));
    let mut inline = V2Sink::with_opts(Vec::new(), EncodeOpts::with_threads(0)).expect("inline");
    for r in &log {
        use literace::instrument::RecordSink;
        inline.push(*r);
    }
    let inline_bytes = inline.finish().expect("vec sink");
    assert!(pipelined == inline_bytes, "pooled and V2Sink bytes differ");
    let reblocked = pipelined_bytes(&log, EncodeOpts::with_threads(2).block_records(1000));
    assert!(
        reblocked != pipelined,
        "a different block size must move boundaries"
    );
    let a = read_log_auto(&reblocked[..]).expect("reblocked log decodes");
    let b = read_log_auto(&inline_bytes[..]).expect("inline decodes");
    assert_eq!(a, b, "differently blocked logs must decode identically");
    assert_eq!(a.records(), log.records());
}
