//! Byte-identity of resume-from-checkpoint against one-shot detection.
//!
//! The checkpoint layer (`crates/detector/src/checkpoint.rs`) serializes
//! the detector's **full semantic state** — clocks, generation stamps,
//! retirement flags, the adaptive epoch frontier (inline pairs and
//! escalated antichains), and the per-pair race aggregates — so that
//! detection can pause and resume instead of replaying from zero. That is
//! an operational convenience, not a semantic change: this suite splits
//! detection at **every block boundary** of every bundled workload (and
//! at random boundaries of random racy programs under proptest), resumes
//! the suffix on every detection path — sequential, sharded ×{2,4,8},
//! streaming — and requires the whole [`RaceReport`] to match one-shot
//! detection field for field.
//!
//! Every checkpoint is round-tripped through its sealed byte form
//! (`to_bytes` → `from_bytes`) before resuming, so the suite pins the wire
//! format on exactly the path the CLI takes, not just the in-memory
//! snapshot.

use literace::detector::{
    detect, detect_stream_checkpointed, detect_stream_from, Checkpoint, DetectConfig,
    HbDetector, RaceReport,
};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{EventLog, LogResult, Record};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

/// Records per streamed block — the granularity `detect`
/// hands the detector, and therefore the boundaries a production
/// checkpoint can land on.
const BLOCK_RECORDS: usize = 4096;

/// Runs `program` once under full logging, returning the log and the
/// non-stack access count.
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

/// Detects `records[..split]`, seals the state, and round-trips it
/// through the wire format.
fn sealed_checkpoint_at(records: &[Record], split: usize, non_stack: u64) -> Checkpoint {
    let mut d = HbDetector::new();
    for r in &records[..split] {
        d.process(r);
    }
    let cp = d.save_checkpoint(non_stack);
    let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("sealed checkpoint loads");
    assert_eq!(cp, back, "wire round-trip must be lossless");
    back
}

/// Resumes `cp` over `suffix`, handed over as one in-memory block, on
/// `threads` shards (1 = the sequential core).
fn resume(suffix: &[Record], cp: &Checkpoint, non_stack: u64, threads: usize) -> RaceReport {
    detect_stream_from([Ok(suffix)], non_stack, &DetectConfig::with_threads(threads), Some(cp))
        .expect("in-memory blocks decode")
}

/// Resumes the suffix after `split` on every detection path and requires
/// each report to equal `expected` (the one-shot report) byte for byte.
fn assert_resume_matches(
    records: &[Record],
    split: usize,
    expected: &RaceReport,
    non_stack: u64,
    context: &str,
) {
    let cp = sealed_checkpoint_at(records, split, non_stack);
    assert_eq!(cp.records_processed(), split as u64, "{context}");
    let suffix = &records[split..];

    let sequential = resume(suffix, &cp, non_stack, 1);
    assert_eq!(
        expected, &sequential,
        "{context}: sequential resume at {split} diverged"
    );
    for threads in [2usize, 4, 8] {
        let sharded = resume(suffix, &cp, non_stack, threads);
        assert_eq!(
            expected, &sharded,
            "{context}: sharded×{threads} resume at {split} diverged"
        );
    }
    let blocks: Vec<LogResult<Vec<Record>>> = records[split..]
        .chunks(BLOCK_RECORDS)
        .map(|c| Ok(c.to_vec()))
        .collect();
    let streamed = detect_stream_from(blocks, non_stack, &DetectConfig::with_threads(4), Some(&cp))
        .expect("in-memory blocks decode");
    assert_eq!(
        expected, &streamed,
        "{context}: streaming resume at {split} diverged"
    );
}

/// Every block boundary of `records` (block = [`BLOCK_RECORDS`]), plus
/// the two degenerate splits: resume-everything (0) and resume-nothing
/// (len).
fn block_boundaries(len: usize) -> Vec<usize> {
    let mut splits: Vec<usize> = (0..=len).step_by(BLOCK_RECORDS).collect();
    if splits.last() != Some(&len) {
        splits.push(len);
    }
    splits
}

#[test]
fn every_bundled_workload_resumes_identically_at_every_block_boundary() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 7);
        let expected = detect(&log, non_stack);
        for split in block_boundaries(log.len()) {
            assert_resume_matches(log.records(), split, &expected, non_stack, id.name());
        }
    }
}

/// The periodic-checkpoint streaming driver: every emitted checkpoint —
/// not just the final one — must resume to the one-shot report, which is
/// what makes "distribute one giant log across workers by checkpoint
/// handoff" sound.
#[test]
fn every_periodically_emitted_checkpoint_resumes_to_the_one_shot_report() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 11);
    let expected = detect(&log, non_stack);
    let blocks: Vec<LogResult<Vec<Record>>> = log
        .records()
        .chunks(512)
        .map(|c| Ok(c.to_vec()))
        .collect();
    let mut saved: Vec<Checkpoint> = Vec::new();
    let driven = detect_stream_checkpointed(
        blocks,
        non_stack,
        &DetectConfig::default(),
        None,
        3,
        |cp| {
            saved.push(Checkpoint::from_bytes(&cp.to_bytes()).expect("sealed"));
            Ok(())
        },
    )
    .expect("in-memory blocks decode");
    assert_eq!(expected, driven, "checkpointing must not perturb detection");
    assert!(saved.len() >= 2, "every-3-blocks must fire repeatedly");
    for cp in &saved {
        let done = cp.records_processed() as usize;
        let suffix = &log.records()[done..];
        assert_eq!(expected, resume(suffix, cp, non_stack, 1));
        assert_eq!(expected, resume(suffix, cp, non_stack, 4));
    }
    // Handoff chain: the *resumed* detector's state re-checkpoints into a
    // second hop that still lands on the one-shot report — worker A's
    // checkpoint can seed worker B, whose checkpoint can seed worker C.
    let first = &saved[0];
    let mid = (first.records_processed() as usize + log.len()) / 2;
    let mut hop = HbDetector::resume(first);
    for r in &log.records()[first.records_processed() as usize..mid] {
        hop.process(r);
    }
    let second = Checkpoint::from_bytes(&hop.save_checkpoint(non_stack).to_bytes())
        .expect("second-hop checkpoint seals");
    assert_eq!(expected, resume(&log.records()[mid..], &second, non_stack, 1));
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random racy programs, random split boundaries: resuming from a
    /// sealed checkpoint reproduces one-shot detection exactly on every
    /// path.
    #[test]
    fn random_racy_programs_resume_identically_at_random_boundaries(
        cfg in arb_config(),
        split_frac in 0.0f64..=1.0,
    ) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        let expected = detect(&log, non_stack);
        let split = ((log.len() as f64) * split_frac) as usize;
        let split = split.min(log.len());
        assert_resume_matches(
            log.records(),
            split,
            &expected,
            non_stack,
            &format!("{cfg:?}"),
        );
    }
}
