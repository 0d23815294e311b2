//! Chaos suite: deterministic fault injection against the salvage decoder
//! and the streaming pipeline.
//!
//! The contract under test, for *any* injected fault schedule:
//!
//! 1. nothing panics — every failure is a typed error or a salvage skip;
//! 2. salvage never invents records: the salvaged stream is a subsequence
//!    of the clean log's records (whole blocks survive or vanish);
//! 3. soundness: unless the report is `sync_tainted`, the salvaged sync
//!    records are a gap-free *prefix* of the clean log's sync records —
//!    the property that makes races from a salvaged log trustworthy;
//! 4. a writer killed mid-stream never leaves bytes that classify as a
//!    sealed log, and after its first sink error writes nothing more.

use std::io::Write;
use std::sync::{Arc, Mutex};

use literace_log::{
    encode_v2, log_to_bytes, peek_sealed_total, read_log_auto, salvage::SalvageReport, DecodeOpts,
    EncodeOpts, EventLog, FaultPlan, FaultyReader, FaultySink, LogReader, LogWriter, LogWriterV2,
    Record, RecordBlocks, RecordStream, SamplerMask, SealState,
};
use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};
use proptest::prelude::*;

/// A mixed record stream with sync records sprinkled through it.
fn sample_records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Record::Sync {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(literace_sim::FuncId::from_index(1), i),
                kind: SyncOpKind::LockAcquire,
                var: SyncVar((i % 4) as u64),
                timestamp: i as u64,
            },
            _ => Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(literace_sim::FuncId::from_index(2), i % 11),
                addr: Addr::global((i % 7) as u64 * 8),
                is_write: i % 2 == 0,
                mask: SamplerMask::bit(0),
            },
        })
        .collect()
}

/// Encodes `records` into a multi-block v2 log with small blocks, so fault
/// offsets land in interesting places (frames, payloads, the footer).
fn small_block_log(records: &[Record]) -> Vec<u8> {
    let mut w = LogWriterV2::with_opts(Vec::new(), small_blocks()).unwrap();
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap()
}

/// Eight records per block: many blocks even for short logs.
fn small_blocks() -> EncodeOpts {
    EncodeOpts::default().block_records(8)
}

/// A `Write` over a shared buffer, so the bytes that landed stay
/// observable after the writer consumed or dropped its sink.
#[derive(Debug, Clone, Default)]
struct SharedVec(Arc<Mutex<Vec<u8>>>);

impl SharedVec {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedVec {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn is_subsequence(needle: &[Record], hay: &[Record]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|r| it.any(|h| h == r))
}

fn sync_only(records: &[Record]) -> Vec<Record> {
    records
        .iter()
        .filter(|r| matches!(r, Record::Sync { .. }))
        .copied()
        .collect()
}

/// The salvage soundness contract against the clean record list.
fn check_soundness(original: &[Record], salvaged: &[Record], report: &SalvageReport) {
    assert!(
        is_subsequence(salvaged, original),
        "salvage invented records: {report}"
    );
    if !report.sync_tainted {
        let all_sync = sync_only(original);
        let got_sync = sync_only(salvaged);
        assert!(
            got_sync.len() <= all_sync.len()
                && all_sync[..got_sync.len()] == got_sync[..],
            "untainted salvage lost mid-stream sync records: {report}"
        );
    }
}

fn drain_salvage(source: impl std::io::Read) -> (Vec<Record>, SalvageReport) {
    let (blocks, handle) = RecordBlocks::open_salvage(source);
    let mut out = Vec::new();
    for block in blocks {
        out.extend(block.expect("salvage streams never yield Err"));
    }
    (out, handle.report())
}

/// Like [`drain_salvage`], but through the out-of-order worker pool.
fn drain_salvage_pool(
    source: impl std::io::Read + Send + 'static,
) -> (Vec<Record>, SalvageReport) {
    let (blocks, handle) =
        RecordStream::spawn_salvage_with(source, DecodeOpts::with_threads(4))
            .expect("salvage never fails to open");
    let mut out = Vec::new();
    for block in blocks {
        out.extend(block.expect("salvage streams never yield Err"));
    }
    (out, handle.report())
}

#[test]
fn truncation_at_every_offset_is_panic_free_and_sound() {
    let records = sample_records(120);
    let bytes = small_block_log(&records);
    for cut in 0..=bytes.len() {
        let reader = FaultyReader::new(&bytes[..], FaultPlan::truncated_at(cut as u64), 1);
        let (salvaged, report) = drain_salvage(reader);
        check_soundness(&records, &salvaged, &report);
        assert_eq!(report.records_salvaged as usize, salvaged.len(), "cut {cut}");
        if cut < bytes.len() {
            assert_ne!(
                report.seal,
                SealState::Sealed,
                "cut {cut}/{} classified sealed: {report}",
                bytes.len()
            );
        } else {
            assert_eq!(report.seal, SealState::Sealed, "{report}");
            assert_eq!(salvaged, records, "{report}");
            assert!(report.clean(), "{report}");
        }
    }
}

#[test]
fn killed_writer_is_never_classified_sealed() {
    let records = sample_records(200);
    let full_len = small_block_log(&records).len() as u64;
    for fail_after in [0, 1, 30, 100, full_len / 2, full_len - 1] {
        let shared = SharedVec::default();
        {
            let sink = FaultySink::new(shared.clone(), Some(fail_after), true, fail_after);
            let mut w = LogWriterV2::with_opts(sink, small_blocks()).unwrap();
            let mut failed = false;
            for r in &records {
                if w.write_record(r).is_err() {
                    failed = true;
                    break;
                }
            }
            if !failed {
                assert!(w.finish().is_err(), "sink dying at {fail_after} went unnoticed");
            }
            // Dropping the writer flushes best-effort into the dead sink.
        }
        let out = shared.bytes();
        assert!(out.len() as u64 <= fail_after);
        let (salvaged, report) = drain_salvage(&out[..]);
        assert_ne!(
            report.seal,
            SealState::Sealed,
            "torn write of {fail_after} bytes classified sealed: {report}"
        );
        check_soundness(&records, &salvaged, &report);
    }
}

/// A sink that fails exactly one write call, the `fail_call`-th (from
/// 1), and accepts every other; it notes how many bytes had landed when
/// it failed.
#[derive(Debug)]
struct FailOnce {
    out: SharedVec,
    calls: usize,
    fail_call: usize,
    landed_at_failure: Arc<Mutex<Option<usize>>>,
}

impl Write for FailOnce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls == self.fail_call {
            *self.landed_at_failure.lock().unwrap() = Some(self.out.bytes().len());
            return Err(std::io::Error::other("injected one-shot write failure"));
        }
        self.out.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// First error wins. The sink fails one write call mid-log (after the
/// header and eight blocks) and would accept every later one, yet no
/// byte reaches it after the failure, `finish` returns that error, and
/// what landed salvages as an unsealed subsequence of the input. The
/// same at 0 and 2 encode workers, and used as `V2Sink` is (the
/// instrument crate's alias of this writer): pushed past the error,
/// then dropped. The v1 writer keeps the same rule (`v1_leg`).
#[test]
fn first_sink_error_wins_and_nothing_is_written_after_it() {
    for finish in [true, false] {
        v1_leg(finish);
    }
    let records = sample_records(200);
    for (threads, finish) in [(0, true), (2, true), (0, false)] {
        let out = SharedVec::default();
        let landed_at_failure = Arc::new(Mutex::new(None));
        let sink = FailOnce {
            out: out.clone(),
            calls: 0,
            fail_call: 10,
            landed_at_failure: landed_at_failure.clone(),
        };
        let opts = EncodeOpts {
            threads,
            ..small_blocks()
        };
        let mut w = LogWriterV2::with_opts(sink, opts).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let leg = format!("{threads} workers, finish {finish}");
        if finish {
            let err = w.finish().expect_err("finish must return the sink error");
            assert!(
                err.to_string().contains("injected one-shot"),
                "{leg}: {err}"
            );
        } else {
            drop(w);
        }
        let landed = landed_at_failure
            .lock()
            .unwrap()
            .expect("the sink failed once");
        let bytes = out.bytes();
        assert_eq!(
            bytes.len(),
            landed,
            "{leg}: bytes reached the sink after its error"
        );
        let (salvaged, report) = drain_salvage(&bytes[..]);
        assert_eq!(report.seal, SealState::Unsealed, "{leg}: {report}");
        assert!(!salvaged.is_empty(), "{leg}: {report}");
        assert!(is_subsequence(&salvaged, &records), "{leg}: {report}");
    }
}

/// The v1 leg of the first-error rule: a log long enough for at least
/// three 48 KiB flushes, a sink failing its 2nd write call, and either
/// `finish` or pushes past the error (ignoring each result, as the
/// instrument crate's `RecordSink::push` does) and a drop. Only the
/// first flush may land, and it decodes as a prefix of the input.
fn v1_leg(finish: bool) {
    let records = sample_records(8_000);
    let log: EventLog = records.iter().copied().collect();
    assert!(log_to_bytes(&log).len() >= 3 * 48 * 1024);
    let out = SharedVec::default();
    let landed_at_failure = Arc::new(Mutex::new(None));
    let sink = FailOnce {
        out: out.clone(),
        calls: 0,
        fail_call: 2,
        landed_at_failure: landed_at_failure.clone(),
    };
    let mut w = LogWriter::new(sink);
    let leg = format!("v1, finish {finish}");
    if finish {
        for r in &records {
            w.write_record(r).unwrap();
        }
        let err = w.finish().expect_err("finish must return the sink error");
        assert!(err.to_string().contains("injected one-shot"), "{leg}: {err}");
    } else {
        for r in &records {
            let _ = w.write_record(r);
        }
        drop(w);
    }
    let landed = landed_at_failure
        .lock()
        .unwrap()
        .expect("the sink failed once");
    let bytes = out.bytes();
    assert_eq!(
        bytes.len(),
        landed,
        "{leg}: bytes reached the sink after its error"
    );
    let decoded = LogReader::new(&bytes[..]).read_all().unwrap();
    assert!(!decoded.is_empty(), "{leg}");
    assert!(records.starts_with(decoded.records()), "{leg}");
}

#[test]
fn finalized_log_round_trips_byte_identically() {
    let records = sample_records(300);
    let bytes = encode_v2(&records);
    let log = read_log_auto(&bytes[..]).unwrap();
    assert_eq!(log.records(), &records[..]);
    // Re-encoding the decoded log reproduces the exact bytes, footer
    // included — the crash-consistency acceptance check.
    assert_eq!(&encode_v2(log.records())[..], &bytes[..]);
    let (salvaged, report) = drain_salvage(&bytes[..]);
    assert_eq!(salvaged, records);
    assert!(report.clean(), "{report}");
    assert_eq!(report.seal, SealState::Sealed);
}

#[test]
fn transient_errors_are_absorbed_by_the_retrying_stream() {
    let records = sample_records(400);
    let bytes = small_block_log(&records);
    let plan = FaultPlan {
        short_reads: true,
        interrupt_one_in: 3,
        transient_one_in: 5,
        transient_budget: 6,
        ..FaultPlan::default()
    };
    let reader = FaultyReader::new(std::io::Cursor::new(bytes.clone()), plan.clone(), 17);
    let stream =
        RecordStream::spawn_with(reader, DecodeOpts::sequential().depth(4)).unwrap();
    let mut out = Vec::new();
    for block in stream {
        out.extend(block.expect("bounded retry must absorb budgeted transients"));
    }
    assert_eq!(out, records);
    // The pool's scanner sits behind the same retry wrapper, so budgeted
    // transients are just as invisible to parallel decode.
    let reader = FaultyReader::new(std::io::Cursor::new(bytes), plan, 17);
    let stream =
        RecordStream::spawn_with(reader, DecodeOpts::with_threads(4)).unwrap();
    let mut out = Vec::new();
    for block in stream {
        out.extend(block.expect("the pooled scanner must absorb transients too"));
    }
    assert_eq!(out, records);
}

/// Writes `bytes` to a throwaway file and runs [`peek_sealed_total`] on
/// it (the peek reads from a path, not a reader).
fn peek_of(bytes: &[u8], tag: &str) -> Option<u64> {
    let dir = std::env::temp_dir().join(format!("literace-peek-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.lrlog"));
    std::fs::write(&path, bytes).unwrap();
    let got = peek_sealed_total(&path);
    let _ = std::fs::remove_file(&path);
    got
}

#[test]
fn peek_sealed_total_reads_a_clean_footer() {
    let records = sample_records(120);
    let bytes = small_block_log(&records);
    assert_eq!(peek_of(&bytes, "clean"), Some(records.len() as u64));
}

#[test]
fn peek_sealed_total_rejects_every_truncation() {
    let records = sample_records(60);
    let bytes = small_block_log(&records);
    for cut in 0..bytes.len() {
        assert_eq!(
            peek_of(&bytes[..cut], "truncated"),
            None,
            "cut {cut}/{} peeked a total from a torn log",
            bytes.len()
        );
    }
}

#[test]
fn peek_sealed_total_rejects_header_footer_and_body_flips() {
    // A flipped footer fed the --progress heartbeat garbage totals before
    // the peek validated checksums; pin the fix across the whole file:
    // magic and version flips, body flips (caught by the stream checksum),
    // and footer flips (caught by the footer's own checksum).
    let records = sample_records(60);
    let bytes = small_block_log(&records);
    for off in 0..bytes.len() {
        for mask in [0x01u8, 0x10, 0x80] {
            let mut bad = bytes.clone();
            bad[off] ^= mask;
            assert_eq!(
                peek_of(&bad, "flip"),
                None,
                "flip at {off} mask {mask:#x} still peeked a total"
            );
        }
    }
}

#[test]
fn peek_sealed_total_rejects_an_unsealed_writer_drop() {
    let records = sample_records(60);
    let shared = SharedVec::default();
    {
        let mut w = LogWriterV2::with_opts(shared.clone(), small_blocks()).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        // Dropped without finish: blocks flushed, but no footer.
    }
    let unsealed = shared.bytes();
    assert!(!unsealed.is_empty());
    assert_eq!(peek_of(&unsealed, "unsealed"), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any fault schedule — truncation, bit flips anywhere, short reads,
    /// interrupts, transients — produces a panic-free salvage whose tally
    /// matches what was yielded.
    #[test]
    fn arbitrary_faults_never_panic_salvage(
        n in 1usize..160,
        cut_seed: u64,
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..4),
        short_reads: bool,
        // 1 would mean *every* read is interrupted: a device that never
        // makes progress, which (like std's `read_exact`) loops forever.
        interrupt_one_in in prop::sample::select(vec![0u32, 2, 3, 4, 5]),
        seed: u64,
    ) {
        let records = sample_records(n);
        let bytes = small_block_log(&records);
        let plan = FaultPlan {
            truncate_at: Some(cut_seed % (bytes.len() as u64 + 1)),
            bit_flips: flips
                .into_iter()
                .map(|(off, mask)| (off % bytes.len() as u64, mask))
                .collect(),
            short_reads,
            interrupt_one_in,
            transient_one_in: 0,
            transient_budget: 0,
        };
        let reader = FaultyReader::new(&bytes[..], plan, seed);
        let (salvaged, report) = drain_salvage(reader);
        prop_assert_eq!(report.records_salvaged as usize, salvaged.len());
        prop_assert!(report.blocks_decoded >= (!salvaged.is_empty()) as u64);
    }

    /// With the header intact (faults at offset ≥ 4, past the magic), the
    /// full soundness contract holds: salvage is a subsequence of the
    /// clean log, and untainted salvage keeps a gap-free sync prefix.
    #[test]
    fn faults_behind_the_magic_salvage_soundly(
        n in 1usize..160,
        cut_seed: u64,
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..4),
        short_reads: bool,
        seed: u64,
    ) {
        let records = sample_records(n);
        let bytes = small_block_log(&records);
        let len = bytes.len() as u64;
        let plan = FaultPlan {
            truncate_at: Some(4 + cut_seed % (len - 3)),
            bit_flips: flips
                .into_iter()
                .map(|(off, mask)| (4 + off % (len - 4), mask))
                .collect(),
            short_reads,
            ..FaultPlan::default()
        };
        let reader = FaultyReader::new(&bytes[..], plan, seed);
        let (salvaged, report) = drain_salvage(reader);
        check_soundness(&records, &salvaged, &report);
        prop_assert_eq!(report.records_salvaged as usize, salvaged.len());
    }

    /// The worker pool replicates inline salvage under chaos: for any
    /// deterministic fault schedule (truncation + bit flips + short
    /// reads), parallel decode yields the same records, the same summary
    /// line, and the same soundness guarantees as the inline reader.
    #[test]
    fn pooled_salvage_matches_sequential_under_faults(
        n in 1usize..160,
        cut_seed: u64,
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..4),
        short_reads: bool,
        seed: u64,
    ) {
        let records = sample_records(n);
        let bytes = small_block_log(&records);
        let len = bytes.len() as u64;
        let plan = FaultPlan {
            truncate_at: Some(cut_seed % (len + 1)),
            bit_flips: flips
                .into_iter()
                .map(|(off, mask)| (off % len, mask))
                .collect(),
            short_reads,
            ..FaultPlan::default()
        };
        let (seq, seq_report) =
            drain_salvage(FaultyReader::new(&bytes[..], plan.clone(), seed));
        let (pool, pool_report) = drain_salvage_pool(FaultyReader::new(
            std::io::Cursor::new(bytes),
            plan,
            seed,
        ));
        prop_assert_eq!(&pool, &seq, "pooled salvage diverged: {}", pool_report);
        prop_assert_eq!(pool_report.to_string(), seq_report.to_string());
        prop_assert_eq!(pool_report.seal, seq_report.seal);
        check_soundness(&records, &pool, &pool_report);
    }
}
