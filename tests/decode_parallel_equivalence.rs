//! Parallel-decode equivalence: reading a v2 log through the out-of-order
//! worker pool must be *byte-identical* to the same reader stages run
//! inline on one thread — the same records in the same order, the same
//! race reports on every detection path, the same strict errors and the
//! same salvage tallies — for every decode-thread count.
//!
//! This is the contract that lets `--decode-threads auto` default on:
//! workers decode blocks in whatever order the scheduler runs them, but
//! the in-order consumer reassembles the exact in-order stream, owns the
//! running file checksum, and applies the strict error and salvage rules
//! verbatim.

use literace::detector::{detect, detect_sharded, detect_stream, DetectConfig};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{encode_v2, read_log_salvage, DecodeOpts, EventLog, Record, RecordStream};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

const DECODE_THREADS: [usize; 3] = [1, 2, 4];
const DETECT_THREADS: [usize; 3] = [2, 4, 8];

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

/// Decodes `bytes` through the pool with `threads` workers and returns
/// the record stream's output, failing on any decode error.
fn pool_records(bytes: &[u8], threads: usize) -> Vec<Record> {
    let stream = RecordStream::spawn_bytes(
        bytes.to_vec().into(),
        DecodeOpts::with_threads(threads),
    )
    .expect("pool spawns");
    let mut out = Vec::new();
    for block in stream {
        out.extend(block.expect("clean log decodes"));
    }
    out
}

/// The core check: for every decode-thread count, the pool reproduces
/// the sequential record stream exactly, and every detection path
/// (sequential, sharded, streaming) over the pooled stream matches the
/// materialized sequential report.
fn assert_pool_identical(log: &EventLog, non_stack: u64, context: &str) {
    let sequential = detect(log, non_stack);
    let bytes = encode_v2(log);
    for decode_threads in DECODE_THREADS {
        let records = pool_records(&bytes, decode_threads);
        assert_eq!(
            records,
            log.records(),
            "{context}: {decode_threads} decode threads changed the record stream"
        );
        let materialized: EventLog = records.into_iter().collect();
        assert_eq!(
            sequential,
            detect(&materialized, non_stack),
            "{context}: {decode_threads} decode threads: sequential detect diverged"
        );
        for detect_threads in DETECT_THREADS {
            let cfg = DetectConfig::with_threads(detect_threads);
            assert_eq!(
                sequential,
                detect_sharded(&materialized, non_stack, &cfg),
                "{context}: {decode_threads}×{detect_threads} sharded detect diverged"
            );
            // Pool straight into the streaming workers: the full
            // parallel pipeline end to end.
            let stream = RecordStream::spawn_bytes(
                bytes.to_vec().into(),
                DecodeOpts::with_threads(decode_threads),
            )
            .expect("pool spawns");
            let report = detect_stream(stream, non_stack, &cfg).expect("clean log decodes");
            assert_eq!(
                sequential, report,
                "{context}: {decode_threads}×{detect_threads} streaming detect diverged"
            );
        }
    }
}

/// Every benchmark workload (Table 2), smoke scale: the acceptance
/// criterion for the parallel decode pool.
#[test]
fn parallel_decode_is_byte_identical_on_every_workload() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 1);
        assert_pool_identical(&log, non_stack, &format!("workload {id}"));
    }
}

/// Strict decode failures surface identically: same error message from
/// the pool as from the inline reader, wherever the log is torn.
#[test]
fn pool_strict_errors_match_sequential() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, _) = full_log(&w.program, 1);
    let clean = encode_v2(&log);
    for cut in [clean.len() - 1, clean.len() * 2 / 3, clean.len() / 3] {
        let torn = &clean[..cut];
        let sequential_err = RecordStream::spawn_bytes(
            torn.to_vec().into(),
            DecodeOpts::sequential(),
        )
        .expect("header is intact")
        .find_map(Result::err)
        .expect("torn log must fail");
        for threads in [2usize, 4] {
            let pool_err = RecordStream::spawn_bytes(
                torn.to_vec().into(),
                DecodeOpts::with_threads(threads),
            )
            .expect("header is intact")
            .find_map(Result::err)
            .expect("torn log must fail through the pool");
            assert_eq!(
                pool_err.to_string(),
                sequential_err.to_string(),
                "cut at {cut}, {threads} threads"
            );
        }
    }
}

/// Salvage parity: the pool's in-order consumer produces the same
/// salvaged records and the same report — field for field — as the
/// sequential salvage decoder, for torn logs of every depth.
#[test]
fn pool_salvage_matches_sequential() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 1);
    let clean = encode_v2(&log);
    for cut in [clean.len(), clean.len() - 1, clean.len() * 2 / 3, clean.len() / 3] {
        let torn = &clean[..cut];
        let (seq_log, seq_report) = read_log_salvage(torn);
        for threads in [2usize, 4] {
            let (stream, handle) = RecordStream::spawn_salvage_with(
                std::io::Cursor::new(torn.to_vec()),
                DecodeOpts::with_threads(threads),
            )
            .expect("salvage never fails to open");
            let mut pool_log = EventLog::new();
            for block in stream {
                pool_log.extend(block.expect("salvage streams never error"));
            }
            let pool_report = handle.report();
            assert_eq!(pool_log, seq_log, "cut at {cut}, {threads} threads");
            assert_eq!(
                pool_report.to_string(),
                seq_report.to_string(),
                "cut at {cut}, {threads} threads: salvage summary diverged"
            );
            assert_eq!(pool_report.seal, seq_report.seal, "cut at {cut}");
            assert_eq!(
                detect(&pool_log, non_stack),
                detect(&seq_log, non_stack),
                "cut at {cut}: salvaged detection diverged"
            );
        }
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

    /// Random racy programs: the pool reproduces the sequential stream
    /// and reports at every decode-thread count.
    #[test]
    fn random_programs_decode_identically_through_the_pool(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        assert_pool_identical(&log, non_stack, &format!("racy {cfg:?}"));
    }
}
