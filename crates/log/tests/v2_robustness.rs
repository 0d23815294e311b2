//! Decode-robustness contract for the v2 format: malformed inputs —
//! truncated blocks, corrupted varints, wrong magic, unknown versions —
//! must produce typed [`LogError`]s, never a panic and never invented
//! records.

use literace_log::{
    encode_v2, peek_sealed_total, read_log_auto, DecodeOpts, EncodeOpts, LogError, LogWriterV2,
    Record, RecordBlocks, RecordStream, SamplerMask, V2_MAGIC, V2_VERSION,
};
use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

fn sample_records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| match i % 5 {
            0 => Record::Sync {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(1), i),
                kind: SyncOpKind::LockRelease,
                var: SyncVar(7),
                timestamp: i as u64,
            },
            _ => Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(2), i % 17),
                addr: Addr::global((i % 13) as u64 * 8),
                is_write: i % 2 == 0,
                mask: SamplerMask::bit(0),
            },
        })
        .collect()
}

fn collect(blocks: impl Iterator<Item = literace_log::LogResult<Vec<Record>>>)
    -> literace_log::LogResult<Vec<Record>> {
    let mut out = Vec::new();
    for b in blocks {
        out.extend(b?);
    }
    Ok(out)
}

/// Unknown version bytes — including the retired revision 3 — are a
/// typed error from every opener, and never peek a sealed total.
#[test]
fn version_mismatch_is_typed_everywhere() {
    for version in [3u8, 9] {
        let mut bytes = encode_v2(&sample_records(10)).to_vec();
        bytes[4] = version;
        let is_unsupported = |err: &LogError| {
            matches!(
                err,
                LogError::UnsupportedVersion { file: "log", found, supported: V2_VERSION }
                    if *found == version
            )
        };
        let err = RecordBlocks::open(&bytes[..]).unwrap_err();
        assert!(is_unsupported(&err), "{err}");
        let err = read_log_auto(&bytes[..]).unwrap_err();
        assert!(is_unsupported(&err), "{err}");
        for threads in [1, 2] {
            let source = std::io::Cursor::new(bytes.clone());
            let err =
                RecordStream::spawn_with(source, DecodeOpts::with_threads(threads)).unwrap_err();
            assert!(is_unsupported(&err), "{threads} threads: {err}");
        }
        let path = std::env::temp_dir().join(format!(
            "literace-version-{version}-{}.lrlog",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let peeked = peek_sealed_total(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(peeked, None, "version {version} peeked a sealed total");
    }
}

#[test]
fn magic_alone_with_no_version_byte_is_corrupt() {
    let err = RecordBlocks::open(&V2_MAGIC[..]).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
    let err = read_log_auto(&V2_MAGIC[..]).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
}

/// The 24-byte block/footer frame size (see `crates/log/src/v2.rs`).
const FRAME: usize = 24;

/// Recomputes the head checksum of the block frame starting at `frame_at`
/// after a test mutated the header fields it covers.
fn fix_head_sum(bytes: &mut [u8], frame_at: usize) {
    let sum = literace_log::checksum32(&bytes[frame_at..frame_at + 12]);
    bytes[frame_at + 12..frame_at + 16].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn truncated_block_header_is_corrupt() {
    let bytes = encode_v2(&sample_records(100));
    // Cut inside the first block's 24-byte frame.
    let cut = &bytes[..5 + 3];
    let err = collect(RecordBlocks::open(cut).unwrap()).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("header"), "{err}");
}

#[test]
fn truncated_block_payload_is_corrupt() {
    let bytes = encode_v2(&sample_records(100));
    // One block: header(5) + frame(24) + payload + footer(24). Keep the
    // frame and half the payload.
    let payload_len = bytes.len() - 5 - 2 * FRAME;
    let cut = &bytes[..5 + FRAME + payload_len / 2];
    let err = collect(RecordBlocks::open(cut).unwrap()).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
}

#[test]
fn corrupted_varint_is_corrupt_not_panic() {
    let records = sample_records(50);
    let mut bytes = encode_v2(&records).to_vec();
    // Set continuation bits on a run of payload bytes: an unterminated
    // varint that would read past any sane field width. (The payload
    // checksum flags this first; either way it must be typed corrupt.)
    let payload_start = 5 + FRAME;
    for b in bytes.iter_mut().skip(payload_start + 1).take(12) {
        *b = 0xFF;
    }
    let err = collect(RecordBlocks::open(&bytes[..]).unwrap()).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
}

#[test]
fn corrupted_varint_behind_a_valid_checksum_is_corrupt_not_panic() {
    let records = sample_records(50);
    let mut bytes = encode_v2(&records).to_vec();
    // Same corruption, but with the payload checksum recomputed so the
    // decoder itself has to reject the unterminated varint.
    let payload_start = 5 + FRAME;
    let payload_end = bytes.len() - FRAME;
    for b in bytes
        .iter_mut()
        .skip(payload_start + 1)
        .take(12)
    {
        *b = 0xFF;
    }
    let sum = literace_log::checksum(&bytes[payload_start..payload_end]);
    bytes[5 + 16..5 + 24].copy_from_slice(&sum.to_le_bytes());
    let err = collect(RecordBlocks::open(&bytes[..]).unwrap()).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
    assert!(!err.to_string().contains("checksum"), "{err}");
}

#[test]
fn oversized_declared_payload_is_rejected_without_allocating() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&V2_MAGIC);
    bytes.push(V2_VERSION);
    // An absurd (but non-sentinel) payload length behind a *valid* head
    // checksum, so the length cap itself does the rejecting.
    let mut frame = [0u8; FRAME];
    frame[..4].copy_from_slice(&((1u32 << 30) + 1).to_le_bytes());
    frame[4..8].copy_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&frame);
    fix_head_sum(&mut bytes, 5);
    let err = collect(RecordBlocks::open(&bytes[..]).unwrap()).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("cap"), "{err}");
}

#[test]
fn record_count_mismatches_are_corrupt() {
    let records = sample_records(20);
    let bytes = encode_v2(&records).to_vec();
    // Record count sits at frame bytes 4..8 (file offset 9..13); the head
    // checksum must be recomputed or it flags the tamper first.
    let count = u32::from_le_bytes(bytes[9..13].try_into().unwrap());
    // Inflate the declared record count: decoding runs off the payload.
    let mut more = bytes.clone();
    more[9..13].copy_from_slice(&(count + 1).to_le_bytes());
    fix_head_sum(&mut more, 5);
    let err = collect(RecordBlocks::open(&more[..]).unwrap()).unwrap_err();
    assert!(matches!(err, LogError::Corrupt { .. }), "{err}");
    // Deflate it: leftover bytes after the declared records. The tag
    // region holds one byte per record, so it no longer matches the count.
    let mut fewer = bytes;
    fewer[9..13].copy_from_slice(&(count - 1).to_le_bytes());
    fix_head_sum(&mut fewer, 5);
    let err = collect(RecordBlocks::open(&fewer[..]).unwrap()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("trailing") || msg.contains("tag bytes"),
        "{err}"
    );
}

#[test]
fn tampered_header_fields_fail_the_head_checksum() {
    let records = sample_records(20);
    let mut bytes = encode_v2(&records).to_vec();
    // Mutate the count *without* fixing the checksum: the frame check
    // itself must catch it.
    bytes[9] ^= 1;
    let err = collect(RecordBlocks::open(&bytes[..]).unwrap()).unwrap_err();
    assert!(err.to_string().contains("header checksum"), "{err}");
}

#[test]
fn corruption_is_confined_to_one_block() {
    // Two-block log; corrupt the second block's payload. The first block
    // must still stream out intact before the error surfaces.
    let records = sample_records(200);
    let opts = EncodeOpts::default().block_records(12);
    let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
    for r in &records {
        w.write_record(r).unwrap();
    }
    let mut bytes = w.finish().unwrap();
    // Flip the last byte of the final block's payload (the 24-byte footer
    // sits after it).
    let last = bytes.len() - 1 - FRAME;
    bytes[last] = 0xFF;
    let mut decoded = Vec::new();
    let mut error = None;
    for block in RecordBlocks::open(&bytes[..]).unwrap() {
        match block {
            Ok(b) => decoded.extend(b),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    assert!(error.is_some(), "the corrupted tail block must error");
    assert!(!decoded.is_empty(), "intact leading blocks must decode");
    assert_eq!(&records[..decoded.len()], &decoded[..]);
}
