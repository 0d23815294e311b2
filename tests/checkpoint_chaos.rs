//! Checkpoint chaos: a torn, truncated, or bit-flipped checkpoint must
//! always be *classified* — a typed [`LogError`], never a panic — and
//! falling back to the prior sealed checkpoint must reproduce one-shot
//! detection exactly (never a fabricated race, never a dropped one).
//!
//! This is the `salvage_chaos.rs` discipline applied to detector state
//! instead of logs, with one deliberate difference: logs are salvaged
//! (best-effort prefix recovery), checkpoints are **strict**. A log block
//! lost to corruption only removes evidence; a corrupt clock or frontier
//! entry silently loaded into a resumed detector could *invent* races or
//! suppress real ones. So the reader rejects anything imperfect, and the
//! recovery story is "resume from the previous sealed checkpoint", which
//! these tests pin end to end.

use literace::detector::{detect, detect_stream_from, Checkpoint, DetectConfig, HbDetector};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::EventLog;
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

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

/// A small racy program whose mid-stream checkpoint stays a few KiB, so
/// the exhaustive every-offset corruption sweeps stay fast.
fn small_racy_log() -> (EventLog, u64) {
    let cfg = SyntheticConfig {
        threads: 3,
        globals: 4,
        iterations: 6,
        actions_per_iteration: 4,
        seed: 41,
    };
    let (program, _) = racy(cfg);
    full_log(&program, 41)
}

/// Detects `records[..split]` and returns the sealed checkpoint bytes.
fn checkpoint_bytes_at(log: &EventLog, split: usize, non_stack: u64) -> Vec<u8> {
    let mut d = HbDetector::new();
    for r in &log.records()[..split] {
        d.process(r);
    }
    d.save_checkpoint(non_stack).to_bytes()
}

#[test]
fn every_offset_truncation_is_a_typed_error_never_a_panic() {
    let (log, non_stack) = small_racy_log();
    let bytes = checkpoint_bytes_at(&log, log.len() / 2, non_stack);
    for cut in 0..bytes.len() {
        let err = Checkpoint::from_bytes(&bytes[..cut])
            .expect_err("truncated checkpoint must not load");
        // Every failure is classifiable: the typed error renders.
        assert!(!err.to_string().is_empty(), "cut at {cut}");
    }
}

#[test]
fn every_offset_bit_flip_is_a_typed_error() {
    let (log, non_stack) = small_racy_log();
    let bytes = checkpoint_bytes_at(&log, log.len() / 2, non_stack);
    for off in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[off] ^= mask;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flip at {off} mask {mask:#04x} loaded silently"
            );
        }
    }
}

#[test]
fn seeded_multi_bit_damage_on_a_large_checkpoint_is_always_classified() {
    // The bundled-workload checkpoint is big enough that exhaustive flips
    // would be slow; a seeded xorshift sweep covers the same failure
    // surface (header, frames, payloads, footer) deterministically.
    let w = build(WorkloadId::Apache1, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 5);
    let bytes = checkpoint_bytes_at(&log, log.len() / 2, non_stack);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..2048 {
        let mut bad = bytes.clone();
        // One to four flips per trial, anywhere in the file.
        for _ in 0..(rng() % 4 + 1) {
            let off = (rng() % bad.len() as u64) as usize;
            let mask = (1u8 << (rng() % 8)).max(1);
            bad[off] ^= mask;
        }
        if bad == bytes {
            continue; // flips cancelled out
        }
        assert!(
            Checkpoint::from_bytes(&bad).is_err(),
            "multi-bit damage loaded silently"
        );
    }
}

#[test]
fn resume_from_the_prior_sealed_checkpoint_after_a_torn_save() {
    // The production recovery story: periodic saves leave generations of
    // sealed checkpoints; if the newest is torn (crash mid-write without
    // AtomicFile, or storage corruption), the resumer falls back to the
    // previous sealed one and replays a longer suffix. The result must be
    // *exactly* the one-shot report — fallback trades work, never
    // correctness.
    let (log, non_stack) = small_racy_log();
    let expected = detect(&log, non_stack);
    assert!(expected.static_count() > 0, "program should race");

    let older_at = log.len() / 3;
    let newer_at = 2 * log.len() / 3;
    let older = checkpoint_bytes_at(&log, older_at, non_stack);
    let newer = checkpoint_bytes_at(&log, newer_at, non_stack);

    // Tear the newest in three representative ways.
    let torn_tail = &newer[..newer.len() - 7];
    let mut flipped = newer.clone();
    flipped[newer.len() / 2] ^= 0x40;
    let empty: &[u8] = &[];
    for (what, bad) in [
        ("truncated", torn_tail),
        ("bit-flipped", flipped.as_slice()),
        ("empty", empty),
    ] {
        let loaded = [bad, older.as_slice()]
            .into_iter()
            .find_map(|bytes| Checkpoint::from_bytes(bytes).ok())
            .expect("the prior sealed checkpoint must load");
        assert_eq!(
            loaded.records_processed(),
            older_at as u64,
            "{what}: fallback must pick the prior generation, not the torn one"
        );
        let suffix = [Ok(&log.records()[older_at..])];
        let cfg = DetectConfig::default();
        assert_eq!(
            detect_stream_from(suffix, non_stack, &cfg, Some(&loaded)).unwrap(),
            expected,
            "{what}: fallback resume fabricated or dropped a race"
        );
    }
}

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary truncation + bit damage of an arbitrary-position
    /// checkpoint: the load is either a typed error, or (when the damage
    /// cancels out) a checkpoint identical to the sealed one — there is no
    /// third state, and resuming from the surviving sealed generation
    /// always reproduces one-shot detection.
    #[test]
    fn corrupted_checkpoints_never_load_and_fallback_stays_exact(
        cfg in arb_config(),
        split_frac in 0.0f64..=1.0,
        cut_frac in 0.0f64..1.0,
        flips in prop::collection::vec((any::<u16>(), 1u8..=255u8), 0..4),
    ) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        let expected = detect(&log, non_stack);
        let split = (((log.len() as f64) * split_frac) as usize).min(log.len());
        let sealed = checkpoint_bytes_at(&log, split, non_stack);

        // Damage a copy: truncate, then flip bits at arbitrary offsets.
        let cut = ((sealed.len() as f64) * cut_frac) as usize;
        let mut bad = sealed[..cut].to_vec();
        for &(off, mask) in &flips {
            if !bad.is_empty() {
                let off = off as usize % bad.len();
                bad[off] ^= mask;
            }
        }
        if bad != sealed {
            prop_assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "damaged checkpoint loaded silently"
            );
        }

        // The sealed generation still resumes to the one-shot report.
        let cp = Checkpoint::from_bytes(&sealed).expect("sealed checkpoint loads");
        let suffix = [Ok(&log.records()[split..])];
        let cfg = DetectConfig::default();
        prop_assert_eq!(detect_stream_from(suffix, non_stack, &cfg, Some(&cp)).unwrap(), expected);
    }
}
