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
//! detection field for field. Every checkpoint is sealed by the engine at
//! 1, 2, 4 and 8 shards, and every shard count must seal the same bytes.
//!
//! Every checkpoint is round-tripped through its sealed byte form
//! (`to_bytes` → `from_bytes`) before resuming, so the suite pins the wire
//! format on exactly the path the CLI takes, not just the in-memory
//! snapshot. A resumed run sealed at the last record must also seal the
//! one-shot run's final bytes: the checkpoint carries the whole state.

use literace::detector::{
    detect, detect_stream_checkpointed, detect_stream_from, Checkpoint, DetectConfig, RaceReport,
};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{EventLog, LogResult, Record, SamplerMask};
use literace::prelude::*;
use literace::sim::{
    lower, Addr, ChunkedRandomScheduler, FuncId, Machine, MachineConfig, Pc, Program, ThreadId,
};
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

/// Shard counts every checkpoint is sealed at.
const SEAL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The report of detecting `blocks` on `threads` shards, resuming from
/// `resume`, and every checkpoint the engine sealed on the way (every
/// `every` blocks and at end of stream), each round-tripped through the
/// wire format.
fn seal_all<B: AsRef<[Record]> + Send + Sync>(
    blocks: impl IntoIterator<Item = LogResult<B>>,
    non_stack: u64,
    threads: usize,
    resume: Option<&Checkpoint>,
    every: u64,
) -> (RaceReport, Vec<Checkpoint>) {
    let mut sealed = Vec::new();
    let cfg = DetectConfig::with_threads(threads);
    let report = detect_stream_checkpointed(blocks, non_stack, &cfg, resume, every, |cp| {
        let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("sealed checkpoint loads");
        assert_eq!(cp, &back, "wire round-trip must be lossless");
        sealed.push(back);
        Ok(())
    })
    .expect("in-memory blocks decode");
    (report, sealed)
}

/// Seals `blocks` as [`seal_all`] does at every shard count of
/// [`SEAL_THREADS`], requires every shard count to report the same races
/// and seal the same bytes, and returns the report and the checkpoints.
fn seal_at_every_shard_count<B: AsRef<[Record]> + Send + Sync>(
    blocks: &[B],
    non_stack: u64,
    resume: Option<&Checkpoint>,
    every: u64,
    context: &str,
) -> (RaceReport, Vec<Checkpoint>) {
    let (report, one) = seal_all(blocks.iter().map(Ok), non_stack, 1, resume, every);
    let bytes: Vec<Vec<u8>> = one.iter().map(Checkpoint::to_bytes).collect();
    for threads in &SEAL_THREADS[1..] {
        let (driven, sealed) = seal_all(blocks.iter().map(Ok), non_stack, *threads, resume, every);
        assert_eq!(
            report, driven,
            "{context}: sealing at {threads} shards changed the report"
        );
        let sharded: Vec<Vec<u8>> = sealed.iter().map(Checkpoint::to_bytes).collect();
        assert!(
            bytes == sharded,
            "{context}: sealed at {threads} shards, bytes differ"
        );
    }
    (report, one)
}

/// Resumes `cp` over `suffix`, handed over as one in-memory block, on
/// `threads` shards (1 = the sequential core).
fn resume(suffix: &[Record], cp: &Checkpoint, non_stack: u64, threads: usize) -> RaceReport {
    detect_stream_from([Ok(suffix)], non_stack, &DetectConfig::with_threads(threads), Some(cp))
        .expect("in-memory blocks decode")
}

/// Resumes the suffix after `cp` on every detection path and requires
/// each report to equal `expected` (the one-shot report) byte for byte,
/// and the resumed run's seal at the last record to equal `final_seal`,
/// the one-shot run's.
fn assert_resume_matches(
    records: &[Record],
    cp: &Checkpoint,
    expected: &RaceReport,
    final_seal: &[u8],
    non_stack: u64,
    context: &str,
) {
    let split = cp.records_processed() as usize;
    let suffix = &records[split..];
    let (_, resealed) = seal_all([Ok(suffix)], non_stack, 1, Some(cp), 0);
    assert!(
        resealed[0].to_bytes() == final_seal,
        "{context}: resumed at {split}, the final seal differs from one-shot's"
    );

    let sequential = resume(suffix, cp, non_stack, 1);
    assert_eq!(
        expected, &sequential,
        "{context}: sequential resume at {split} diverged"
    );
    for threads in [2usize, 4, 8] {
        let sharded = resume(suffix, cp, non_stack, threads);
        assert_eq!(
            expected, &sharded,
            "{context}: sharded×{threads} resume at {split} diverged"
        );
    }
    let blocks: Vec<LogResult<Vec<Record>>> = records[split..]
        .chunks(BLOCK_RECORDS)
        .map(|c| Ok(c.to_vec()))
        .collect();
    let streamed = detect_stream_from(blocks, non_stack, &DetectConfig::with_threads(4), Some(cp))
        .expect("in-memory blocks decode");
    assert_eq!(
        expected, &streamed,
        "{context}: streaming resume at {split} diverged"
    );
}

/// Checkpoints at every block boundary of `records` (block =
/// [`BLOCK_RECORDS`]), sealed at every shard count: resume-everything
/// (0), then the engine sealing after every block, the last at
/// resume-nothing (len). The sealing pass over the whole log must report
/// `expected`, the one-shot report.
fn block_boundary_checkpoints(
    records: &[Record],
    expected: &RaceReport,
    non_stack: u64,
    context: &str,
) -> Vec<Checkpoint> {
    let (_, mut sealed) = seal_at_every_shard_count(&[&records[..0]], non_stack, None, 0, context);
    let blocks: Vec<&[Record]> = records.chunks(BLOCK_RECORDS).collect();
    if !blocks.is_empty() {
        let (driven, every_block) = seal_at_every_shard_count(&blocks, non_stack, None, 1, context);
        assert_eq!(
            expected, &driven,
            "{context}: checkpointing must not perturb detection"
        );
        sealed.extend(every_block);
    }
    let splits: Vec<u64> = sealed.iter().map(Checkpoint::records_processed).collect();
    let want: Vec<u64> = (0..records.len())
        .step_by(BLOCK_RECORDS)
        .chain([records.len()])
        .map(|split| split as u64)
        .collect();
    assert_eq!(splits, want, "{context}: one checkpoint per block boundary");
    sealed
}

#[test]
fn every_bundled_workload_resumes_identically_at_every_block_boundary() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 7);
        let expected = detect(&log, non_stack);
        let sealed = block_boundary_checkpoints(log.records(), &expected, non_stack, id.name());
        let final_seal = sealed.last().expect("a seal at the last record").to_bytes();
        for cp in &sealed {
            assert_resume_matches(log.records(), cp, &expected, &final_seal, non_stack, id.name());
        }
    }
}

/// The periodic-checkpoint streaming driver: every emitted checkpoint —
/// not just the final one — must resume to the one-shot report, which is
/// what makes "distribute one giant log across workers by checkpoint
/// handoff" sound. Every shard count seals the same checkpoints.
#[test]
fn every_periodically_emitted_checkpoint_resumes_to_the_one_shot_report() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 11);
    let expected = detect(&log, non_stack);
    let blocks: Vec<&[Record]> = log.records().chunks(512).collect();
    let (driven, saved) = seal_at_every_shard_count(&blocks, non_stack, None, 3, "periodic");
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
    let hop = [&log.records()[first.records_processed() as usize..mid]];
    let (_, second) = seal_at_every_shard_count(&hop, non_stack, Some(first), 0, "second hop");
    assert_eq!(second.len(), 1);
    for threads in [1, 4] {
        assert_eq!(
            expected,
            resume(&log.records()[mid..], &second[0], non_stack, threads)
        );
    }
}

/// Thread 1 ends before any record of its own materializes its clock:
/// t1 ends; t0 writes A; t2 writes B; t2 ends; t1 writes A. At t2's exit
/// the only live thread, t0, covers its own write of A, so one-shot
/// detection reclaims it and reports no race; a checkpoint that forgot
/// t1's exit would resume into a race on A.
#[test]
fn a_thread_that_ends_before_its_clock_exists_resumes_identically_at_every_split() {
    let write = |t: usize, site: usize, addr: u64| Record::Mem {
        tid: ThreadId::from_index(t),
        pc: Pc::new(FuncId::from_index(0), site),
        addr: Addr(addr),
        is_write: true,
        mask: SamplerMask::FULL,
    };
    let records = [
        Record::ThreadEnd { tid: ThreadId::from_index(1) },
        write(0, 1, 0x1000),
        write(2, 2, 0x2000),
        Record::ThreadEnd { tid: ThreadId::from_index(2) },
        write(1, 3, 0x1000),
    ];
    let log: EventLog = records.iter().copied().collect();
    let expected = detect(&log, 0);
    assert_eq!(expected.static_count(), 0);
    let (_, one_shot) = seal_at_every_shard_count(&[&records[..]], 0, None, 0, "one-shot");
    let final_seal = one_shot[0].to_bytes();
    for split in 0..=records.len() {
        let context = format!("early exit, split {split}");
        let (_, sealed) = seal_at_every_shard_count(&[&records[..split]], 0, None, 0, &context);
        assert_resume_matches(&records, &sealed[0], &expected, &final_seal, 0, &context);
        // Every shard count seals the resumed run's last record alike.
        let suffix = [&records[split..]];
        let (_, resealed) = seal_at_every_shard_count(&suffix, 0, Some(&sealed[0]), 0, &context);
        assert!(resealed[0].to_bytes() == final_seal, "{context}");
    }
}

/// ConcRT Scheduling's full log at paper scale, the one `literace run
/// --workload scheduling --sampler Full --scale paper` writes, in the
/// writer's 4,096-record blocks: sealed every 3 blocks and at the end, at
/// 1, 2, 4 and 8 shards, every report and every seal is one shard's.
/// Slow in a debug build; CI runs it in release.
#[test]
#[ignore = "paper scale: run with --release -- --include-ignored"]
fn scheduling_at_paper_scale_seals_alike_at_every_shard_count() {
    let w = build(WorkloadId::ConcrtScheduling, Scale::Paper);
    let run =
        run_literace(&w.program, SamplerKind::Always, &RunConfig::seeded(1)).expect("program runs");
    let (log, non_stack) = (run.instrumented.log, run.summary.non_stack_accesses);
    let blocks: Vec<&[Record]> = log.records().chunks(BLOCK_RECORDS).collect();
    assert!(blocks.len() > 6, "{} blocks", blocks.len());
    let (report, sealed) =
        seal_at_every_shard_count(&blocks, non_stack, None, 3, "scheduling at paper scale");
    assert_eq!(report, detect(&log, non_stack));
    assert_eq!(report, run.report);
    assert_eq!(sealed.len(), blocks.len().div_ceil(3));
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
        let context = format!("{cfg:?}");
        let prefix = [&log.records()[..split]];
        let (_, sealed) = seal_at_every_shard_count(&prefix, non_stack, None, 0, &context);
        prop_assert_eq!(sealed.len(), 1, "one seal at end of stream");
        prop_assert_eq!(sealed[0].records_processed(), split as u64);
        let (_, one_shot) = seal_all([Ok(log.records())], non_stack, 1, None, 0);
        let final_seal = one_shot[0].to_bytes();
        let records = log.records();
        assert_resume_matches(records, &sealed[0], &expected, &final_seal, non_stack, &context);
    }
}
