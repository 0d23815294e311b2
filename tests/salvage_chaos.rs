//! End-to-end salvage soundness: detection over a salvaged (fault-injured)
//! log can never *invent* a race — every static race reported from a
//! salvaged log also appears in the clean log's report.
//!
//! Why this holds: salvage only ever drops whole blocks whose trusted
//! headers say they carry no sync records, or drops the entire suffix the
//! moment sync records (or framing) may be lost. Removing memory accesses
//! from a log can only remove racing pairs; removing a suffix leaves a
//! valid execution prefix. The detector's per-location history cap could
//! in principle break the subset relation for very hot locations, so the
//! generated programs stay far below it.

use literace::detector::{detect, detect_stream, DetectConfig};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{
    read_log_salvage, DecodeOpts, EncodeOpts, EventLog, FaultPlan, FaultyReader, LogWriterV2,
    RecordStream, SealState,
};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

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

/// Encodes with small blocks so injected faults land mid-stream, not all
/// in one giant block.
fn small_block_bytes(log: &EventLog) -> Vec<u8> {
    let mut w = LogWriterV2::with_opts(Vec::new(), EncodeOpts::default().block_records(16))
        .expect("inline writer");
    for r in log {
        w.write_record(r).expect("vec sink");
    }
    w.finish().expect("vec sink")
}

/// Small programs: the per-location access counts stay far below the
/// detector's history cap, so dropping accesses can only shrink the race
/// set.
fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (2u32..4, 3u32..6, 3u32..8, 2u32..5, any::<u64>()).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary truncation + bit flips behind the magic: the salvaged
    /// log's races are a subset of the clean log's, on both the
    /// materialized and the streaming salvage path.
    #[test]
    fn salvaged_races_are_a_subset_of_clean_races(
        cfg in arb_config(),
        cut_seed: u64,
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..3),
        seed: u64,
    ) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        let clean = detect(&log, non_stack);
        let bytes = small_block_bytes(&log);
        let len = bytes.len() as u64;
        let plan = FaultPlan {
            truncate_at: Some(4 + cut_seed % (len - 3)),
            bit_flips: flips
                .into_iter()
                .map(|(off, mask)| (4 + off % (len - 4), mask))
                .collect(),
            short_reads: true,
            ..FaultPlan::default()
        };

        let reader = FaultyReader::new(&bytes[..], plan.clone(), seed);
        let (salvaged_log, report) = read_log_salvage(reader);
        let from_salvage = detect(&salvaged_log, non_stack);
        prop_assert!(
            from_salvage.static_keys().is_subset(&clean.static_keys()),
            "salvage invented races: {report}"
        );

        // The streaming salvage path sees the identical faulted byte
        // stream (same plan, same seed) and must agree exactly.
        let reader = FaultyReader::new(std::io::Cursor::new(bytes), plan, seed);
        let (stream, handle) = RecordStream::spawn_salvage_with(reader, DecodeOpts::sequential())
            .expect("decoder thread spawns");
        let streamed = detect_stream(stream, non_stack, &DetectConfig::with_threads(4))
            .expect("salvage streams never yield Err");
        prop_assert_eq!(&from_salvage, &streamed, "streaming salvage diverged");
        let streamed_report = handle.report();
        prop_assert_eq!(
            report.records_salvaged, streamed_report.records_salvaged,
            "salvage tallies diverged across paths"
        );
    }
}

/// No faults: salvage is the identity, and detection agrees exactly with
/// the clean report.
#[test]
fn clean_log_salvage_detects_identically() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 1);
    let clean = detect(&log, non_stack);
    let bytes = small_block_bytes(&log);
    let (salvaged_log, report) = read_log_salvage(&bytes[..]);
    assert!(report.clean(), "{report}");
    assert_eq!(report.seal, SealState::Sealed, "{report}");
    assert_eq!(detect(&salvaged_log, non_stack), clean);
}

/// A spread of deterministic cut points over a real workload log: each
/// salvage detects a subset and classifies the log as torn.
#[test]
fn truncated_workload_logs_detect_subsets() {
    let w = build(WorkloadId::LkrHash, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 2);
    let clean = detect(&log, non_stack);
    let bytes = small_block_bytes(&log);
    for frac in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        let cut = 5 + (bytes.len() - 5) * frac / 100;
        let (salvaged_log, report) = read_log_salvage(&bytes[..cut]);
        assert_ne!(report.seal, SealState::Sealed, "cut at {frac}%: {report}");
        let from_salvage = detect(&salvaged_log, non_stack);
        assert!(
            from_salvage.static_keys().is_subset(&clean.static_keys()),
            "cut at {frac}% invented races: {report}"
        );
    }
}
