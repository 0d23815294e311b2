//! A deliberately naive v2 reader as an independent oracle for the real
//! ones.
//!
//! `reference` reads the whole input as one byte slice in a single loop
//! over frames and writes the strict errors and the salvage rules
//! (DESIGN.md §12) out inline, using only the crate's public `checksum`,
//! `checksum32` and `decode_block`: no buffer reuse, no telemetry, no
//! threads. The property test feeds the same faulted bytes to every real
//! entry point, strict and salvage, inline and pooled, and requires each
//! to agree with the oracle.

use literace_log::{
    checksum, checksum32, decode_block, salvage::SalvageReport, DecodeOpts, EncodeOpts, FaultPlan,
    FaultyReader, LogResult, LogWriterV2, Record, RecordBlocks, RecordStream, SamplerMask,
    SealState, V2_VERSION,
};
use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};
use proptest::prelude::*;

const FRAME: usize = 24;

/// What reading one input produced, in the terms both modes share.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    records: Vec<Record>,
    /// Strict mode: the kind of the error that ended the read.
    error: Option<&'static str>,
    /// Strict mode: the footer verdict once the read is done.
    seal: SealState,
    /// Salvage mode: the report, compared field by field.
    report: Tally,
}

/// The comparable fields of a [`SalvageReport`].
#[derive(Debug, Default, PartialEq)]
struct Tally {
    blocks_decoded: u64,
    blocks_skipped: u64,
    records_salvaged: u64,
    records_dropped_known: u64,
    bytes_dropped: u64,
    suffix_dropped: bool,
    sync_tainted: bool,
    seal: SealState,
    has_error: bool,
}

impl From<SalvageReport> for Tally {
    fn from(r: SalvageReport) -> Tally {
        Tally {
            blocks_decoded: r.blocks_decoded,
            blocks_skipped: r.blocks_skipped,
            records_salvaged: r.records_salvaged,
            records_dropped_known: r.records_dropped_known,
            bytes_dropped: r.bytes_dropped,
            suffix_dropped: r.suffix_dropped,
            sync_tainted: r.sync_tainted,
            seal: r.seal,
            has_error: r.first_error.is_some(),
        }
    }
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Reads a v2 log whose magic is intact. Strict mode stops at the first
/// fault; salvage mode skips a damaged block that holds no sync record
/// and drops everything after any other loss.
fn reference(bytes: &[u8], salvage: bool) -> Outcome {
    let mut out = Outcome::default();
    let t = &mut out.report;
    match bytes.get(4) {
        Some(&V2_VERSION) => {}
        missing_or_unknown => {
            if salvage {
                t.suffix_dropped = true;
                t.has_error = true;
            } else if missing_or_unknown.is_some() {
                out.error = Some("unsupported_version");
            } else {
                out.error = Some("corrupt");
            }
            return out;
        }
    }
    // Every frame and payload that decoded, for the footer's file sum.
    let mut accepted = Vec::new();
    let mut declared = 0u64;
    let mut pos = 5;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            out.seal = SealState::Unsealed;
            t.seal = SealState::Unsealed;
            break;
        }
        if rest.len() < FRAME {
            out.error = Some("corrupt");
            t.bytes_dropped += rest.len() as u64;
            t.has_error = true;
            t.seal = SealState::Unsealed;
            break;
        }
        let frame = &rest[..FRAME];
        let first = u32_at(frame, 0);
        let framing_ok = if first == u32::MAX {
            checksum32(&frame[..20]) == u32_at(frame, 20)
        } else {
            checksum32(&frame[..12]) == u32_at(frame, 12) && first <= 1 << 30
        };
        if !framing_ok {
            // Block boundaries are lost: nothing after this can be found.
            out.error = Some("corrupt");
            t.bytes_dropped += rest.len() as u64;
            t.suffix_dropped = true;
            t.sync_tainted = true;
            t.has_error = true;
            break;
        }
        if first == u32::MAX {
            let trailing = (rest.len() - FRAME) as u64;
            let totals_match =
                u64_at(frame, 4) == declared && u64_at(frame, 12) == checksum(&accepted);
            if !totals_match || trailing > 0 {
                out.error = Some("corrupt");
            } else {
                out.seal = SealState::Sealed;
            }
            t.seal = SealState::Sealed;
            t.bytes_dropped += trailing;
            t.has_error |= !totals_match || trailing > 0;
            break;
        }
        let (len, count, syncs) = (first as usize, u32_at(frame, 4), u32_at(frame, 8));
        if rest.len() - FRAME < len {
            // Torn final block: the trusted header says what went with it.
            out.error = Some("corrupt");
            t.blocks_skipped += 1;
            t.records_dropped_known += u64::from(count);
            t.bytes_dropped += rest.len() as u64;
            t.sync_tainted |= syncs > 0;
            t.has_error = true;
            t.seal = SealState::Unsealed;
            break;
        }
        let payload = &rest[FRAME..FRAME + len];
        pos += FRAME + len;
        let decoded = if checksum(payload) == u64_at(frame, 16) {
            decode_block(payload, count).map_err(|e| e.kind_name())
        } else {
            Err("corrupt")
        };
        match decoded {
            Ok(block) => {
                accepted.extend_from_slice(&rest[..FRAME + len]);
                declared += u64::from(count);
                t.blocks_decoded += 1;
                t.records_salvaged += block.len() as u64;
                out.records.extend(block);
            }
            Err(kind) => {
                out.error = Some(kind);
                if !salvage {
                    break;
                }
                t.blocks_skipped += 1;
                t.records_dropped_known += u64::from(count);
                t.bytes_dropped += (FRAME + len) as u64;
                t.has_error = true;
                if syncs > 0 {
                    // A lost sync record may hide a happens-before edge:
                    // drop the whole suffix.
                    t.bytes_dropped += (bytes.len() - pos) as u64;
                    t.suffix_dropped = true;
                    t.sync_tainted = true;
                    break;
                }
            }
        }
    }
    if salvage {
        out.error = None;
        out.seal = SealState::Unknown;
    } else {
        out.report = Tally::default();
    }
    out
}

/// Drains a strict reader: the records before the first error, that
/// error's kind (an error from the opener counts as one before any
/// record), and the reader's seal verdict afterwards.
fn strict_outcome<I>(opened: LogResult<I>, seal: impl Fn(&I) -> SealState) -> Outcome
where
    I: Iterator<Item = LogResult<Vec<Record>>>,
{
    let mut out = Outcome::default();
    match opened {
        Ok(mut blocks) => {
            for block in blocks.by_ref() {
                match block {
                    Ok(b) => out.records.extend(b),
                    Err(e) => {
                        out.error = Some(e.kind_name());
                        break;
                    }
                }
            }
            out.seal = seal(&blocks);
        }
        Err(e) => out.error = Some(e.kind_name()),
    }
    out
}

/// Drains a salvage reader, which never yields an error.
fn salvage_outcome(
    blocks: impl Iterator<Item = LogResult<Vec<Record>>>,
    report: impl FnOnce() -> SalvageReport,
) -> Outcome {
    let mut out = Outcome::default();
    for block in blocks {
        out.records.extend(block.expect("salvage never yields Err"));
    }
    out.report = report().into();
    out
}

/// Mixed records with sync records spread through them.
fn sample_records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Record::Sync {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(1), i),
                kind: SyncOpKind::LockAcquire,
                var: SyncVar((i % 4) as u64),
                timestamp: i as u64,
            },
            _ => Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(2), i % 11),
                addr: Addr::global((i % 7) as u64 * 8),
                is_write: i % 2 == 0,
                mask: SamplerMask::bit(0),
            },
        })
        .collect()
}

/// A sealed log with small blocks, so faults land in frames, payloads
/// and the footer alike.
fn small_block_log(records: &[Record]) -> Vec<u8> {
    let opts = EncodeOpts::default().block_records(8);
    let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncation, bit flips and short reads behind the magic: every
    /// strict and salvage entry point, at one and at four decode
    /// threads, reads exactly what the naive reference reads.
    #[test]
    fn every_reader_agrees_with_the_reference(
        n in 0usize..160,
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
        // The bytes every reader sees, materialized for the reference.
        let mut faulted = bytes.clone();
        for &(off, mask) in &plan.bit_flips {
            faulted[off as usize] ^= mask;
        }
        faulted.truncate(plan.truncate_at.unwrap() as usize);
        let reader = || FaultyReader::new(std::io::Cursor::new(bytes.clone()), plan.clone(), seed);

        let strict = reference(&faulted, false);
        let got = strict_outcome(RecordBlocks::open(reader()), RecordBlocks::seal_state);
        prop_assert_eq!(&got, &strict, "RecordBlocks::open");
        let stream_seal = RecordStream::seal_state;
        for threads in [1, 4] {
            let opts = DecodeOpts::with_threads(threads);
            let got = strict_outcome(RecordStream::spawn_with(reader(), opts), stream_seal);
            prop_assert_eq!(&got, &strict, "spawn_with at {} threads", threads);
        }
        let opts = DecodeOpts::with_threads(4);
        let got = strict_outcome(RecordStream::spawn_bytes(faulted.clone().into(), opts), stream_seal);
        prop_assert_eq!(&got, &strict, "spawn_bytes at 4 threads");

        let salvage = reference(&faulted, true);
        let (blocks, handle) = RecordBlocks::open_salvage(reader());
        let got = salvage_outcome(blocks, || handle.report());
        prop_assert_eq!(&got, &salvage, "RecordBlocks::open_salvage");
        for threads in [1, 4] {
            let (stream, handle) =
                RecordStream::spawn_salvage_with(reader(), DecodeOpts::with_threads(threads))
                    .expect("salvage opens");
            let got = salvage_outcome(stream, || handle.report());
            prop_assert_eq!(&got, &salvage, "spawn_salvage_with at {} threads", threads);
        }
    }
}
