//! Best-effort ("salvage") log decoding that can never manufacture a
//! false race.
//!
//! The normal readers abort at the first corrupt byte, discarding every
//! intact block after it. Salvage decode keeps going — but only where
//! that is provably safe for the detector downstream:
//!
//! * **Dropping memory accesses is always safe.** The happens-before
//!   detector can only *miss* races when accesses disappear (that is what
//!   sampling does on purpose, §4 of the paper); it cannot invent one.
//! * **Dropping synchronization records is never safe.** A lost sync op
//!   can remove a happens-before edge between two surviving accesses —
//!   in either direction, or transitively through other threads — and
//!   turn an ordered pair into a reported "race". No per-thread repair
//!   can bound that: an edge is between *two* threads, and transitivity
//!   spreads the damage to all of them.
//!
//! So the rule is: a corrupt v2 block whose (integrity-checked) header
//! says it holds **no sync records** is skipped and decoding resyncs at
//! the next block frame; any corruption that loses sync records — or
//! loses framing, so nothing after it can be trusted — drops the entire
//! rest of the stream. The v2 frame makes this decidable: `sync_count`
//! sits in the block header under its own checksum (`head_sum`), so it
//! is trustworthy even when the payload is not. For v1 logs (no framing
//! at all) salvage degrades to clean-prefix recovery, which is a global
//! prefix and therefore sound by the same argument.
//!
//! These rules are applied in one place, the reader's in-order consumer
//! (`crate::parallel`), for every entry point and worker count; a naive
//! reference reader in `tests/reference_reader.rs` restates them and is
//! checked against every driver. Everything dropped is tallied in a
//! [`SalvageReport`], shared through a [`SalvageHandle`] so streaming
//! consumers can read it after the fact.

use std::io::Read;
use std::sync::{Arc, Mutex};

use crate::record::EventLog;
use crate::stream::{LogFormat, RecordBlocks};
use crate::v2::SealState;

/// What salvage decoding recovered and what it had to give up.
#[derive(Debug, Clone, Default)]
pub struct SalvageReport {
    /// The detected on-disk format (`None` when even the header sniff
    /// failed).
    pub format: Option<LogFormat>,
    /// v2 blocks (or re-batched v1 blocks) decoded intact.
    pub blocks_decoded: u64,
    /// Corrupt v2 blocks skipped behind an intact frame.
    pub blocks_skipped: u64,
    /// Records recovered and yielded downstream.
    pub records_salvaged: u64,
    /// Records known lost, from the trusted headers of skipped blocks.
    /// Suffix drops lose an *unknown* number on top of this.
    pub records_dropped_known: u64,
    /// Bytes discarded: skipped block bytes plus any dropped suffix.
    pub bytes_dropped: u64,
    /// True when everything from some point to the end of the stream was
    /// discarded (framing loss, sync-bearing corruption, I/O failure, or
    /// a v1 decode error).
    pub suffix_dropped: bool,
    /// True when the dropped data may have contained synchronization
    /// records — the reason the suffix (not just one block) was dropped.
    pub sync_tainted: bool,
    /// Footer state of a v2 stream ([`SealState::Unknown`] for v1).
    pub seal: SealState,
    /// The first corruption encountered, as a human-readable message.
    pub first_error: Option<String>,
}

impl SalvageReport {
    /// True when nothing was skipped or dropped: the salvaged log is the
    /// whole log.
    pub fn clean(&self) -> bool {
        self.first_error.is_none()
            && self.blocks_skipped == 0
            && self.records_dropped_known == 0
            && self.bytes_dropped == 0
            && !self.suffix_dropped
            && !self.sync_tainted
    }

    pub(crate) fn note_error(&mut self, message: impl Into<String>) {
        if self.first_error.is_none() {
            self.first_error = Some(message.into());
        }
    }
}

impl std::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.clean() {
            return write!(
                f,
                "clean: {} records in {} blocks, seal {}",
                self.records_salvaged, self.blocks_decoded, self.seal
            );
        }
        write!(
            f,
            "salvaged {} records in {} blocks; skipped {} blocks, dropped {} known records \
             and {} bytes{}{}, seal {}",
            self.records_salvaged,
            self.blocks_decoded,
            self.blocks_skipped,
            self.records_dropped_known,
            self.bytes_dropped,
            if self.suffix_dropped {
                " (suffix dropped)"
            } else {
                ""
            },
            if self.sync_tainted {
                " (sync records lost)"
            } else {
                ""
            },
            self.seal
        )?;
        if let Some(e) = &self.first_error {
            write!(f, "; first error: {e}")?;
        }
        Ok(())
    }
}

/// Shared view of a [`SalvageReport`] being filled in by a salvage read
/// (possibly on a decoder thread). The report is final once the read is
/// exhausted.
#[derive(Debug, Clone)]
pub struct SalvageHandle(pub(crate) Arc<Mutex<SalvageReport>>);

impl SalvageHandle {
    /// A snapshot of the report so far.
    pub fn report(&self) -> SalvageReport {
        self.0.lock().expect("salvage report poisoned").clone()
    }
}

/// Consumes the rest of `source`, counting bytes; I/O errors just end the
/// count (there is nothing downstream to salvage from them).
pub(crate) fn drain_bytes(source: &mut impl Read) -> u64 {
    let mut buf = [0u8; 8192];
    let mut total = 0u64;
    loop {
        match source.read(&mut buf) {
            Ok(0) => return total,
            Ok(n) => total += n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return total,
        }
    }
}

pub(crate) fn tally_skip(blocks: u64, records: u64, bytes: u64) {
    if literace_telemetry::enabled() {
        let m = literace_telemetry::metrics();
        m.log_salvage_blocks_skipped.add(blocks);
        m.log_salvage_records_dropped.add(records);
        m.log_salvage_bytes_dropped.add(bytes);
    }
}

/// Reads as much of a log as salvage allows into an [`EventLog`], with
/// the final damage report. Never fails.
pub fn read_log_salvage(source: impl Read) -> (EventLog, SalvageReport) {
    let (blocks, handle) = RecordBlocks::open_salvage(source);
    let mut log = EventLog::new();
    for block in blocks.flatten() {
        log.extend(block);
    }
    (log, handle.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::Checksum;
    use crate::codec::{encode_all, MEM_RECORD_BYTES};
    use crate::record::Record;
    use crate::v2::FRAME_BYTES;
    use crate::record::SamplerMask;
    use crate::writer::encode_v2;
    use literace_sim::{Addr, FuncId, Pc, ThreadId};

    fn mem(i: usize) -> Record {
        Record::Mem {
            tid: ThreadId::from_index(i % 3),
            pc: Pc::new(FuncId::from_index(i % 5), i),
            addr: Addr::global((i % 7) as u64),
            is_write: i.is_multiple_of(2),
            mask: SamplerMask::bit(0),
        }
    }

    fn sync(i: usize) -> Record {
        Record::Sync {
            tid: ThreadId::from_index(i % 3),
            pc: Pc::new(FuncId::from_index(i % 5), i),
            kind: literace_sim::SyncOpKind::LockAcquire,
            var: literace_sim::SyncVar(i as u64 % 4),
            timestamp: i as u64,
        }
    }

    /// Encodes each slice of records as its own v2 block, returning the
    /// bytes and the byte range of each block (frame + payload).
    fn encode_blocks(groups: &[Vec<Record>]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
        let mut out = Vec::new();
        let mut ranges = Vec::new();
        out.extend_from_slice(&crate::v2::V2_MAGIC);
        out.push(crate::v2::V2_VERSION);
        for group in groups {
            // Each group is far below DEFAULT_BLOCK_RECORDS, so encode_v2
            // emits exactly one block: strip its 5-byte header and
            // 24-byte footer and splice the block in.
            let bytes = encode_v2(group);
            let start = out.len();
            out.extend_from_slice(&bytes[5..bytes.len() - FRAME_BYTES]);
            ranges.push(start..out.len());
        }
        (out, ranges)
    }

    #[test]
    fn clean_v2_log_salvages_completely() {
        let records: Vec<Record> = (0..5000).map(mem).collect();
        let bytes = encode_v2(&records);
        let (log, report) = read_log_salvage(&bytes[..]);
        assert_eq!(log.records(), &records[..]);
        assert!(report.clean(), "{report}");
        assert_eq!(report.seal, SealState::Sealed);
        assert_eq!(report.records_salvaged, 5000);
    }

    #[test]
    fn corrupt_mem_block_is_skipped_and_decoding_resyncs() {
        let groups: Vec<Vec<Record>> = (0..3).map(|g| (0..100).map(|i| mem(g * 100 + i)).collect()).collect();
        let (mut bytes, ranges) = encode_blocks(&groups);
        // Flip a payload byte in the middle block (past its 24-byte frame).
        let mid = ranges[1].start + FRAME_BYTES + 10;
        bytes[mid] ^= 0x40;
        let (log, report) = read_log_salvage(&bytes[..]);
        let expected: Vec<Record> = groups[0].iter().chain(groups[2].iter()).cloned().collect();
        assert_eq!(log.records(), &expected[..]);
        assert_eq!(report.blocks_skipped, 1);
        assert_eq!(report.records_dropped_known, 100);
        assert!(!report.sync_tainted, "{report}");
        assert!(!report.suffix_dropped, "{report}");
        assert!(report.first_error.is_some());
    }

    #[test]
    fn corrupt_sync_block_drops_the_suffix() {
        let groups: Vec<Vec<Record>> = vec![
            (0..100).map(mem).collect(),
            (0..100).map(|i| if i % 10 == 0 { sync(i) } else { mem(i) }).collect(),
            (0..100).map(mem).collect(),
        ];
        let (mut bytes, ranges) = encode_blocks(&groups);
        let mid = ranges[1].start + FRAME_BYTES + 10;
        bytes[mid] ^= 0x40;
        let (log, report) = read_log_salvage(&bytes[..]);
        // Only the first group survives: the corrupt block held sync
        // records, so everything after it is dropped.
        assert_eq!(log.records(), &groups[0][..]);
        assert!(report.sync_tainted, "{report}");
        assert!(report.suffix_dropped, "{report}");
        assert_eq!(report.records_salvaged, 100);
    }

    #[test]
    fn corrupt_frame_drops_the_suffix() {
        let groups: Vec<Vec<Record>> = (0..3).map(|g| (0..100).map(|i| mem(g * 100 + i)).collect()).collect();
        let (mut bytes, ranges) = encode_blocks(&groups);
        // Corrupt the *frame* of the middle block: framing is lost.
        let mid = ranges[1].start + 2;
        bytes[mid] ^= 0xFF;
        let (log, report) = read_log_salvage(&bytes[..]);
        assert_eq!(log.records(), &groups[0][..]);
        assert!(report.suffix_dropped, "{report}");
        assert!(report.sync_tainted, "{report}");
    }

    #[test]
    fn truncation_yields_the_clean_prefix() {
        let records: Vec<Record> = (0..5000).map(mem).collect();
        let bytes = encode_v2(&records);
        for cut in [6, 20, 100, bytes.len() / 2, bytes.len() - 1] {
            let (log, report) = read_log_salvage(&bytes[..cut]);
            assert!(log.records().iter().eq(records.iter().take(log.len())));
            assert_ne!(report.seal, SealState::Sealed, "cut={cut}: {report}");
            assert!(!report.clean(), "cut={cut}");
        }
    }

    #[test]
    fn v1_salvage_keeps_the_clean_prefix() {
        let records: Vec<Record> = (0..100).map(mem).collect();
        let clean = encode_all(&records).to_vec();
        // A cut record followed by an invalid tag, an unknown tag mid-log,
        // and a bad is_write byte (offset 21 of a 26-byte Mem record)
        // inside an otherwise whole record.
        let mut torn = clean.clone();
        torn.truncate(clean.len() - 3);
        torn.push(0xFF);
        let mut bad_tag = clean.clone();
        bad_tag[40 * MEM_RECORD_BYTES] = 0x77;
        let mut bad_field = clean.clone();
        bad_field[60 * MEM_RECORD_BYTES + 21] = 7;
        for (bytes, salvaged) in [(torn, 99), (bad_tag, 40), (bad_field, 60)] {
            let (log, report) = read_log_salvage(&bytes[..]);
            assert_eq!(log.records(), &records[..salvaged]);
            assert_eq!(report.format, Some(LogFormat::V1));
            assert!(report.suffix_dropped, "{report}");
            assert!(report.first_error.is_some());
            // Every byte after the clean prefix is counted as dropped.
            assert_eq!(
                report.bytes_dropped,
                (bytes.len() - MEM_RECORD_BYTES * salvaged) as u64,
                "{report}"
            );
        }
    }

    #[test]
    fn empty_input_is_a_clean_empty_v1_log() {
        let (log, report) = read_log_salvage(std::io::empty());
        assert!(log.is_empty());
        assert!(report.clean(), "{report}");
        assert_eq!(report.format, Some(LogFormat::V1));
    }

    #[test]
    fn unsupported_version_is_reported_not_panicked() {
        let records: Vec<Record> = (0..10).map(mem).collect();
        let mut bytes = encode_v2(&records).to_vec();
        bytes[4] = 9;
        let (log, report) = read_log_salvage(&bytes[..]);
        assert!(log.is_empty());
        assert_eq!(report.format, Some(LogFormat::V2));
        assert!(report.suffix_dropped);
        assert!(report.first_error.unwrap().contains("unsupported"));
    }

    #[test]
    fn sealed_log_with_skipped_block_reports_footer_present() {
        let groups: Vec<Vec<Record>> = (0..2).map(|g| (0..50).map(|i| mem(g * 50 + i)).collect()).collect();
        let (mut bytes, ranges) = encode_blocks(&groups);
        // Append a footer matching the *undamaged* stream, then corrupt a
        // mem block: salvage should still classify the log as sealed.
        let mut file_sum = Checksum::new();
        file_sum.update(&bytes[5..]);
        let footer = crate::v2::make_footer(100, file_sum.finish());
        bytes.extend_from_slice(&footer);
        let mid = ranges[0].start + FRAME_BYTES + 3;
        bytes[mid] ^= 0x04;
        let (log, report) = read_log_salvage(&bytes[..]);
        assert_eq!(log.records(), &groups[1][..]);
        assert_eq!(report.seal, SealState::Sealed);
        assert_eq!(report.blocks_skipped, 1);
    }
}
