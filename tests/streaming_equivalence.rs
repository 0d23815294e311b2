//! Streaming-ingest equivalence: `detect_stream` must be *byte-identical*
//! to the sequential detector — same static races in the same order, same
//! dynamic counts, same overflow accounting — for every thread count and
//! whichever way the blocks arrive: in-memory chunks, the synchronous
//! block reader over either encoding, or the decoder-thread
//! `RecordStream`.
//!
//! This is the contract that lets every CLI read stream its log: the
//! router freezes each thread's clock at first use per clock generation,
//! and a generation moves whenever the clock changes, so every access
//! carries exactly the clock the sequential detector holds.

use literace::detector::{detect, detect_stream, DetectConfig, RaceReport};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{
    encode_all, encode_v2, DecodeOpts, EventLog, RecordBlocks, RecordStream,
};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{race_free, racy, SyntheticConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

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

/// Asserts streaming detection agrees exactly with the sequential
/// detector for every thread count, feeding the stream three ways.
fn assert_stream_identical(log: &EventLog, non_stack: u64, context: &str) {
    let sequential = detect(log, non_stack);
    let v1 = encode_all(log);
    let v2 = encode_v2(log);
    for threads in THREAD_COUNTS {
        let cfg = DetectConfig::with_threads(threads);
        // In-memory chunks, no codec involved.
        let chunked: RaceReport = detect_stream(
            log.records().chunks(100).map(|c| Ok(c.to_vec())),
            non_stack,
            &cfg,
        )
        .expect("in-memory blocks decode");
        assert_eq!(
            sequential, chunked,
            "{context}: stream({threads}, chunks) diverged from sequential"
        );
        // Synchronous block reader over both encodings.
        for (name, bytes) in [("v1", &v1), ("v2", &v2)] {
            let blocks = RecordBlocks::open(&bytes[..]).expect("encoded log opens");
            let report = detect_stream(blocks, non_stack, &cfg)
                .expect("encoded log decodes");
            assert_eq!(
                sequential, report,
                "{context}: stream({threads}, {name} blocks) diverged"
            );
        }
        // Decoder thread feeding the routing thread feeding the workers.
        let stream = RecordStream::spawn_with(
            std::io::Cursor::new(v2.to_vec()),
            DecodeOpts::sequential(),
        )
        .expect("stream opens");
        let report = detect_stream(stream, non_stack, &cfg).expect("stream decodes");
        assert_eq!(
            sequential, report,
            "{context}: stream({threads}, RecordStream) diverged"
        );
        assert_eq!(
            format!("{sequential:?}"),
            format!("{report:?}"),
            "{context}: stream({threads}) renders differently"
        );
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random racy programs: streaming == sequential for 2, 4 and 8
    /// workers over every ingest path.
    #[test]
    fn streaming_matches_sequential_on_racy_programs(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        assert_stream_identical(&log, non_stack, &format!("racy {cfg:?}"));
    }

    /// Random race-free programs: all variants agree the log is clean.
    #[test]
    fn streaming_matches_sequential_on_race_free_programs(cfg in arb_config()) {
        let program = race_free(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        let sequential = detect(&log, non_stack);
        prop_assert_eq!(sequential.static_count(), 0, "race_free must be clean");
        assert_stream_identical(&log, non_stack, &format!("race_free {cfg:?}"));
    }
}

/// Every benchmark workload (Table 2), smoke scale: the acceptance
/// criterion for the streaming pipeline.
#[test]
fn streaming_is_byte_identical_on_every_workload() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 1);
        assert_stream_identical(&log, non_stack, &format!("workload {id}"));
    }
}

/// A decode error mid-stream surfaces as `Err` after the workers join;
/// no partial report and no hang.
#[test]
fn stream_decode_errors_propagate() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 1);
    let mut bytes = encode_v2(&log).to_vec();
    bytes.pop(); // the final block's payload now falls short of its header
    let blocks = RecordBlocks::open(&bytes[..]).expect("header is intact");
    let err = detect_stream(blocks, non_stack, &DetectConfig::with_threads(4));
    assert!(err.is_err(), "corrupted tail block must fail detection");
}
