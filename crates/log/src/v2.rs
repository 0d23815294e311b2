//! The v2 log format: compact, blocked, streamable.
//!
//! The paper treats log volume as a first-order cost (Table 5 reports
//! MB/s of log traffic); v1's fixed-width records pay 26–30 bytes per
//! record regardless of content. The v2 format exploits the structure the
//! stream actually has:
//!
//! * **Per-thread deltas** — a thread's consecutive accesses touch nearby
//!   addresses and program counters, and its logical timestamps are
//!   near-monotonic, so each field is a zigzag delta against the same
//!   thread's previous record (state keyed by thread, records still in
//!   the single global order).
//! * **Packed tags** — the record kind, sync-op kind, `is_write` flag and
//!   the two overwhelmingly common sampler masks (`bit 0`, `FULL`) all fit
//!   in one tag byte.
//! * **Length-prefixed blocks** — records are grouped into blocks with a
//!   byte-length and record-count header, and the delta state resets at
//!   each block start, so every block decodes independently: a streaming
//!   reader hands whole blocks downstream without materializing the log,
//!   and corruption is confined to one block.
//!
//! This module holds the wire format only: frames, the block encoder
//! ([`BlockEnc`]) and the block decoder. The writer that drives
//! [`BlockEnc`] is [`crate::writer`]; the reader that drives the decoder
//! is [`crate::parallel`].
//!
//! ## Wire format (revision 4)
//!
//! ```text
//! file   := magic(4: "LRL\x02") version(1: 0x04) block* footer?
//! block  := payload_len(u32 LE) record_count(u32 LE) sync_count(u32 LE)
//!           head_sum(u32 LE)    payload_sum(u64 LE)  payload
//! footer := sentinel(u32 LE: 0xFFFF_FFFF) total_records(u64 LE)
//!           file_sum(u64 LE)   foot_sum(u32 LE)
//!
//! payload := values_len(u32 LE) gv_values tags
//!            gv_values : group-varint stream (see `crate::gv`) of every
//!                        numeric operand, in record order
//!            tags      : record_count tag bytes
//! ```
//!
//! Splitting tags from operands lets the operand stream decode with the
//! branch-free wide-load group-varint cursor. Any other version byte —
//! including 3, the retired LEB128 payload — fails with
//! [`LogError::UnsupportedVersion`].
//!
//! The frame and footer carry the integrity fields that make salvage
//! decoding sound (see [`crate::salvage`]):
//!
//! * `head_sum` checksums the first 12 frame bytes, so a reader can trust
//!   `payload_len` (framing survives payload corruption) and `sync_count`
//!   (a corrupt block that held **no** synchronization records can be
//!   dropped without breaking happens-before edges).
//! * `payload_sum` checksums the payload, catching silent bit flips that
//!   would otherwise decode into records with corrupted addresses.
//! * The footer — its sentinel can never open a real block, because a
//!   block's `payload_len` is capped far below `0xFFFF_FFFF` — carries the
//!   record total and a whole-stream checksum, letting readers distinguish
//!   a cleanly finalized ([`SealState::Sealed`]) log from a torn one.
//!   A log without a footer still decodes ([`SealState::Unsealed`]): a
//!   dropped writer flushes its blocks but only
//!   [`finish`](crate::LogWriterV2::finish) seals.
//!
//! v1 logs start with a record tag byte in `1..=4`, never `b'L'`, so the
//! two formats are distinguishable from the first byte (see
//! [`crate::stream`] for the auto-detecting reader).

use bytes::{BufMut, BytesMut};

use literace_sim::{Addr, Pc, SyncVar, ThreadId};

use crate::checksum::{checksum32, Checksum};
use crate::codec::{sync_kind_from_u8, sync_kind_to_u8};
use crate::error::{LogError, LogResult};
use crate::gv::{GvCursor, GvEncoder};
use crate::record::{Record, SamplerMask};
use crate::varint::{unzigzag, zigzag};

/// Magic bytes opening a v2 log file.
pub const V2_MAGIC: [u8; 4] = *b"LRL\x02";

/// The format revision the writer emits and the reader accepts: checksummed
/// frames with group-varint payloads (revisions 2 and 3 are no longer read).
pub const V2_VERSION: u8 = 4;

/// Hard cap on a block's declared payload length; a corrupt header cannot
/// make the reader allocate unboundedly.
const MAX_BLOCK_PAYLOAD: u32 = 1 << 30;

/// Size of a block frame header and of the footer, in bytes.
pub(crate) const FRAME_BYTES: usize = 24;

/// `payload_len` value marking the footer frame. Unambiguous: real blocks
/// are capped at [`MAX_BLOCK_PAYLOAD`], far below this.
pub(crate) const FOOTER_SENTINEL: u32 = u32::MAX;

/// Whether a v2 log carries a verified finalization footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SealState {
    /// The footer was read and verified: the log is complete as written.
    Sealed,
    /// The stream ended without a footer: the writer never finalized
    /// (crash, kill, or drop-without-finish). Blocks up to the end are
    /// still trustworthy — each frame carries its own checksums.
    Unsealed,
    /// Not yet known (the stream has not been read to its end), or not
    /// applicable (v1 logs have no footer).
    #[default]
    Unknown,
}

impl std::fmt::Display for SealState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealState::Sealed => write!(f, "sealed"),
            SealState::Unsealed => write!(f, "unsealed"),
            SealState::Unknown => write!(f, "unknown"),
        }
    }
}

/// A parsed 24-byte frame: either a block header or the file footer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Frame {
    /// A block header; the payload follows on the wire.
    Block(BlockFrame),
    /// The finalization footer; nothing may follow it.
    Footer(FooterFrame),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockFrame {
    pub payload_len: u32,
    pub record_count: u32,
    /// Synchronization records in the block. Covered by `head_sum`, so it
    /// is trustworthy even when the payload is not — the salvage reader's
    /// taint rule depends on this.
    pub sync_count: u32,
    pub payload_sum: u64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct FooterFrame {
    pub total_records: u64,
    pub file_sum: u64,
}

/// Parses and integrity-checks a 24-byte frame.
pub(crate) fn parse_frame(frame: &[u8; FRAME_BYTES]) -> LogResult<Frame> {
    let first = u32::from_le_bytes(frame[..4].try_into().unwrap());
    if first == FOOTER_SENTINEL {
        let foot_sum = u32::from_le_bytes(frame[20..24].try_into().unwrap());
        if foot_sum != checksum32(&frame[..20]) {
            return Err(LogError::corrupt("torn footer: bad footer checksum"));
        }
        return Ok(Frame::Footer(FooterFrame {
            total_records: u64::from_le_bytes(frame[4..12].try_into().unwrap()),
            file_sum: u64::from_le_bytes(frame[12..20].try_into().unwrap()),
        }));
    }
    let head_sum = u32::from_le_bytes(frame[12..16].try_into().unwrap());
    if head_sum != checksum32(&frame[..12]) {
        return Err(LogError::corrupt("block header checksum mismatch"));
    }
    if first > MAX_BLOCK_PAYLOAD {
        return Err(LogError::corrupt(format!(
            "block payload length {first} exceeds the {MAX_BLOCK_PAYLOAD}-byte cap"
        )));
    }
    Ok(Frame::Block(BlockFrame {
        payload_len: first,
        record_count: u32::from_le_bytes(frame[4..8].try_into().unwrap()),
        sync_count: u32::from_le_bytes(frame[8..12].try_into().unwrap()),
        payload_sum: u64::from_le_bytes(frame[16..24].try_into().unwrap()),
    }))
}

/// Reads the total record count a sealed v2 log declares in its footer,
/// without decoding anything: checks the magic and version, parses the
/// trailing 24-byte frame, and verifies the footer's whole-stream checksum
/// against the body bytes (everything between the 5-byte header and the
/// footer). Returns `None` for v1 logs, unsupported versions, unsealed v2
/// logs, torn footers, bodies that fail the stream checksum, or files too
/// short to hold a footer — this is a progress hint, so every failure
/// degrades to "unknown" rather than an error.
pub fn peek_sealed_total(path: &std::path::Path) -> Option<u64> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path).ok()?;
    let mut header = [0u8; 5];
    f.read_exact(&mut header).ok()?;
    if header[..4] != V2_MAGIC || header[4] != V2_VERSION {
        return None;
    }
    let len = f.seek(SeekFrom::End(0)).ok()?;
    // Header (magic + version) plus at least the footer frame.
    if len < (5 + FRAME_BYTES) as u64 {
        return None;
    }
    f.seek(SeekFrom::Start(len - FRAME_BYTES as u64)).ok()?;
    let mut frame = [0u8; FRAME_BYTES];
    f.read_exact(&mut frame).ok()?;
    let foot = match parse_frame(&frame) {
        Ok(Frame::Footer(foot)) => foot,
        _ => return None,
    };
    // The footer's own checksum (`foot_sum`) is validated by `parse_frame`,
    // but `total_records` is only trustworthy if the footer belongs to this
    // body: stream the bytes between header and footer through the running
    // checksum and require a `file_sum` match, exactly as the full reader
    // does. A progress heartbeat fed a stale or spliced footer would
    // otherwise report garbage percentages for the whole run.
    f.seek(SeekFrom::Start(5)).ok()?;
    let mut body_sum = Checksum::new();
    let mut remaining = len - 5 - FRAME_BYTES as u64;
    let mut buf = [0u8; 64 * 1024];
    while remaining > 0 {
        let want = buf.len().min(remaining as usize);
        f.read_exact(&mut buf[..want]).ok()?;
        body_sum.update(&buf[..want]);
        remaining -= want as u64;
    }
    if body_sum.finish() != foot.file_sum {
        return None;
    }
    Some(foot.total_records)
}

/// The 5-byte file header: magic plus version.
pub(crate) fn file_header() -> [u8; 5] {
    let mut header = [V2_VERSION; 5];
    header[..4].copy_from_slice(&V2_MAGIC);
    header
}

/// Builds a checksummed block frame for `payload`.
pub(crate) fn make_block_frame(
    payload: &[u8],
    record_count: u32,
    sync_count: u32,
) -> [u8; FRAME_BYTES] {
    let mut frame = [0u8; FRAME_BYTES];
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..8].copy_from_slice(&record_count.to_le_bytes());
    frame[8..12].copy_from_slice(&sync_count.to_le_bytes());
    let head_sum = checksum32(&frame[..12]);
    frame[12..16].copy_from_slice(&head_sum.to_le_bytes());
    frame[16..24].copy_from_slice(&crate::checksum::checksum(payload).to_le_bytes());
    frame
}

/// Builds the finalization footer.
pub(crate) fn make_footer(total_records: u64, file_sum: u64) -> [u8; FRAME_BYTES] {
    let mut frame = [0u8; FRAME_BYTES];
    frame[..4].copy_from_slice(&FOOTER_SENTINEL.to_le_bytes());
    frame[4..12].copy_from_slice(&total_records.to_le_bytes());
    frame[12..20].copy_from_slice(&file_sum.to_le_bytes());
    let foot_sum = checksum32(&frame[..20]);
    frame[20..24].copy_from_slice(&foot_sum.to_le_bytes());
    frame
}

const KIND_SYNC: u8 = 1;
const KIND_MEM: u8 = 2;
const KIND_BEGIN: u8 = 3;
const KIND_END: u8 = 4;

/// Mem tag bit: the access is a write.
const MEM_WRITE_BIT: u8 = 1 << 3;
/// Mem tag mask-mode field (bits 4–5): 0 = explicit operand follows,
/// 1 = `SamplerMask::bit(0)`, 2 = `SamplerMask::FULL`.
const MEM_MASK_SHIFT: u8 = 4;
const MEM_MASK_EXPLICIT: u8 = 0;
const MEM_MASK_BIT0: u8 = 1;
const MEM_MASK_FULL: u8 = 2;

/// Per-thread delta context. Reset at every block boundary so blocks
/// decode independently.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadDeltas {
    last_pc: u64,
    last_addr: u64,
    last_var: u64,
    last_ts: u64,
}

/// Thread ids below this index live in the dense table. Real streams use
/// small dense ids (simulator threads), so practically every lookup is one
/// bounds check and an indexed load; anything larger falls back to the map.
const DENSE_TIDS: usize = 1024;

/// Delta state for one block, encoder and decoder side alike.
///
/// Keyed by thread id. A `HashMap` here put a SipHash probe on every
/// record of the decode hot loop; the dense `Vec` front removes it.
#[derive(Debug, Default)]
pub(crate) struct BlockState {
    dense: Vec<ThreadDeltas>,
    sparse: std::collections::HashMap<u32, ThreadDeltas>,
}

impl BlockState {
    #[inline]
    fn thread(&mut self, tid: u32) -> &mut ThreadDeltas {
        let i = tid as usize;
        if i < DENSE_TIDS {
            if i >= self.dense.len() {
                self.dense.resize(i + 1, ThreadDeltas::default());
            }
            &mut self.dense[i]
        } else {
            self.sparse.entry(tid).or_default()
        }
    }

    /// Forgets the delta state (blocks decode independently) while keeping
    /// the allocated tables for the next block.
    fn reset(&mut self) {
        self.dense.clear();
        self.sparse.clear();
    }
}

/// Running count of delta fields emitted and how many spilled past one
/// stored byte — the fallback rate of the delta scheme. Accumulated
/// unconditionally (two integer adds per field) and published to telemetry
/// only at seal time, keyed off the runtime flag there.
#[derive(Debug, Default, Clone, Copy)]
struct DeltaCount {
    total: u64,
    multibyte: u64,
}

impl DeltaCount {
    /// Group-varint delta emit plus fallback accounting ("multibyte" = the
    /// lane spilled past one stored byte).
    #[inline]
    fn put(&mut self, enc: &mut GvEncoder, last: u64, v: u64) {
        let d = zigzag(v.wrapping_sub(last) as i64);
        enc.put(d);
        self.total += 1;
        self.multibyte += u64::from(d > 0xFF);
    }

    fn publish(&mut self) {
        if literace_telemetry::enabled() && self.total > 0 {
            let m = literace_telemetry::metrics();
            m.log_encode_v2_deltas.add(self.total);
            m.log_encode_v2_deltas_multibyte.add(self.multibyte);
        }
        *self = DeltaCount::default();
    }
}

/// The one v2 block encoder: [`push`](BlockEnc::push) records into the
/// open block, then [`seal`](BlockEnc::seal) it into frame + payload.
/// The per-thread delta state restarts at every seal, so each block
/// decodes on its own, and sealing the same records always yields the
/// same bytes whichever thread runs the encoder.
#[derive(Debug, Default)]
pub(crate) struct BlockEnc {
    state: BlockState,
    /// Every numeric operand of the open block, in record order.
    values: GvEncoder,
    /// One tag byte per record of the open block.
    tags: BytesMut,
    /// Synchronization records in the open block (written into the frame
    /// so salvage readers know whether a corrupt block can be dropped).
    syncs: u32,
    deltas: DeltaCount,
}

impl BlockEnc {
    /// Records in the open block.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// Encodes `record` into the open block.
    #[inline]
    pub(crate) fn push(&mut self, record: &Record) {
        let (values, deltas) = (&mut self.values, &mut self.deltas);
        match *record {
            Record::Sync {
                tid,
                pc,
                kind,
                var,
                timestamp,
            } => {
                self.tags.put_u8(KIND_SYNC | (sync_kind_to_u8(kind) << 3));
                self.syncs += 1;
                let tid = tid.index() as u32;
                values.put(u64::from(tid));
                let t = self.state.thread(tid);
                deltas.put(values, t.last_pc, pc.0);
                deltas.put(values, t.last_var, var.0);
                deltas.put(values, t.last_ts, timestamp);
                t.last_pc = pc.0;
                t.last_var = var.0;
                t.last_ts = timestamp;
            }
            Record::Mem {
                tid,
                pc,
                addr,
                is_write,
                mask,
            } => {
                let mask_mode = if mask == SamplerMask::bit(0) {
                    MEM_MASK_BIT0
                } else if mask == SamplerMask::FULL {
                    MEM_MASK_FULL
                } else {
                    MEM_MASK_EXPLICIT
                };
                let mut tag = KIND_MEM | (mask_mode << MEM_MASK_SHIFT);
                if is_write {
                    tag |= MEM_WRITE_BIT;
                }
                self.tags.put_u8(tag);
                let tid = tid.index() as u32;
                values.put(u64::from(tid));
                let t = self.state.thread(tid);
                deltas.put(values, t.last_pc, pc.0);
                deltas.put(values, t.last_addr, addr.raw());
                t.last_pc = pc.0;
                t.last_addr = addr.raw();
                if mask_mode == MEM_MASK_EXPLICIT {
                    values.put(u64::from(mask.0));
                }
            }
            Record::ThreadBegin { tid } => {
                self.tags.put_u8(KIND_BEGIN);
                values.put(tid.index() as u64);
            }
            Record::ThreadEnd { tid } => {
                self.tags.put_u8(KIND_END);
                values.put(tid.index() as u64);
            }
        }
    }

    /// Seals the open block: appends its checksummed frame and payload to
    /// `out`, publishes the `log.encode.v2.*` counts, and leaves the
    /// encoder empty (tables and buffers keep their capacity). Returns the
    /// block's record count.
    pub(crate) fn seal(&mut self, out: &mut Vec<u8>) -> u64 {
        let records = self.tags.len() as u32;
        let start = out.len();
        out.resize(start + FRAME_BYTES, 0);
        let values = self.values.seal();
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        out.extend_from_slice(values);
        out.extend_from_slice(&self.tags);
        let frame = make_block_frame(&out[start + FRAME_BYTES..], records, self.syncs);
        out[start..start + FRAME_BYTES].copy_from_slice(&frame);
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.log_encode_v2_records.add(u64::from(records));
            m.log_encode_v2_bytes.add((out.len() - start) as u64);
            m.log_encode_v2_blocks.add(1);
        }
        self.deltas.publish();
        self.values.clear();
        self.tags.clear();
        self.syncs = 0;
        self.state.reset();
        u64::from(records)
    }
}

/// Decodes one record: `tag` was read from the tag region, operands
/// stream out of the group-varint cursor.
#[inline]
fn decode_record(state: &mut BlockState, tag: u8, values: &mut GvCursor<'_>) -> LogResult<Record> {
    let kind = tag & 0b111;
    match kind {
        KIND_SYNC => {
            if tag & 0x80 != 0 {
                return Err(LogError::corrupt(format!("bad sync tag {tag:#04x}")));
            }
            let sync_kind = sync_kind_from_u8((tag >> 3) & 0xF)?;
            let tid = gv_tid(values)?;
            let t = state.thread(tid);
            let pc = gv_delta(values, t.last_pc)?;
            let var = gv_delta(values, t.last_var)?;
            let ts = gv_delta(values, t.last_ts)?;
            t.last_pc = pc;
            t.last_var = var;
            t.last_ts = ts;
            Ok(Record::Sync {
                tid: ThreadId::from_index(tid as usize),
                pc: Pc(pc),
                kind: sync_kind,
                var: SyncVar(var),
                timestamp: ts,
            })
        }
        KIND_MEM => {
            if tag & 0xC0 != 0 {
                return Err(LogError::corrupt(format!("bad mem tag {tag:#04x}")));
            }
            let mask_mode = (tag >> MEM_MASK_SHIFT) & 0b11;
            let tid = gv_tid(values)?;
            let t = state.thread(tid);
            let pc = gv_delta(values, t.last_pc)?;
            let addr = gv_delta(values, t.last_addr)?;
            t.last_pc = pc;
            t.last_addr = addr;
            let mask = match mask_mode {
                MEM_MASK_BIT0 => SamplerMask::bit(0),
                MEM_MASK_FULL => SamplerMask::FULL,
                MEM_MASK_EXPLICIT => {
                    let raw = values.next()?;
                    let raw = u32::try_from(raw).map_err(|_| {
                        LogError::corrupt(format!("sampler mask {raw:#x} exceeds 32 bits"))
                    })?;
                    SamplerMask(raw)
                }
                other => {
                    return Err(LogError::corrupt(format!("bad mem mask mode {other}")))
                }
            };
            Ok(Record::Mem {
                tid: ThreadId::from_index(tid as usize),
                pc: Pc(pc),
                addr: Addr(addr),
                is_write: tag & MEM_WRITE_BIT != 0,
                mask,
            })
        }
        KIND_BEGIN | KIND_END => {
            if tag & !0b111 != 0 {
                return Err(LogError::corrupt(format!("bad marker tag {tag:#04x}")));
            }
            let tid = ThreadId::from_index(gv_tid(values)? as usize);
            Ok(if kind == KIND_BEGIN {
                Record::ThreadBegin { tid }
            } else {
                Record::ThreadEnd { tid }
            })
        }
        other => Err(LogError::corrupt(format!("unknown v2 record kind {other}"))),
    }
}

#[inline]
fn gv_tid(values: &mut GvCursor<'_>) -> LogResult<u32> {
    let raw = values.next()?;
    u32::try_from(raw)
        .map_err(|_| LogError::corrupt(format!("thread id {raw} exceeds 32 bits")))
}

#[inline]
fn gv_delta(values: &mut GvCursor<'_>, last: u64) -> LogResult<u64> {
    Ok(last.wrapping_add(unzigzag(values.next()?) as u64))
}

/// Decodes one block payload declared to hold `count` records.
///
/// # Errors
///
/// Returns [`LogError::Corrupt`] when the payload truncates mid-record,
/// holds malformed operands or tags, or has trailing bytes after the
/// declared record count.
pub fn decode_block(payload: &[u8], count: u32) -> LogResult<Vec<Record>> {
    decode_block_with(&mut BlockState::default(), payload, count)
}

/// [`decode_block`] against caller-owned delta state, so a block-at-a-time
/// reader reuses the state tables instead of reallocating them per block:
/// split the payload into the operand stream and the tag region, then
/// drive the group-varint cursor one record at a time. The state is reset
/// on entry.
pub(crate) fn decode_block_with(
    state: &mut BlockState,
    payload: &[u8],
    count: u32,
) -> LogResult<Vec<Record>> {
    state.reset();
    let Some(len_bytes) = payload.get(..4) else {
        return Err(LogError::corrupt("rev-4 block shorter than its length prefix"));
    };
    let values_len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    let Some(values_region) = payload.get(4..4 + values_len) else {
        return Err(LogError::corrupt(format!(
            "rev-4 block declares {values_len} operand bytes but holds {}",
            payload.len().saturating_sub(4)
        )));
    };
    let tags = &payload[4 + values_len..];
    // One tag byte per record, exactly: the tag region length *is* the
    // trailing-bytes check.
    if tags.len() != count as usize {
        return Err(LogError::corrupt(format!(
            "rev-4 block has {} tag bytes for {count} records",
            tags.len()
        )));
    }
    let mut values = GvCursor::new(values_region);
    let mut out = Vec::with_capacity(count as usize);
    for &tag in tags {
        out.push(decode_record(state, tag, &mut values)?);
    }
    if !values.exhausted_except_padding() {
        return Err(LogError::corrupt(format!(
            "rev-4 block has trailing operand bytes after {count} records"
        )));
    }
    Ok(out)
}

/// Fills `buf` as far as the source allows; returns bytes read (short only
/// at EOF). Retries on `Interrupted`.
pub(crate) fn read_exact_or_eof(
    source: &mut impl std::io::Read,
    buf: &mut [u8],
) -> LogResult<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(LogError::Io(e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encoded_len;
    use crate::writer::{encode_v2, EncodeOpts, LogWriterV2};
    use crate::RecordBlocks;
    use literace_sim::{FuncId, SyncOpKind};

    fn sample_records() -> Vec<Record> {
        let mut out = Vec::new();
        out.push(Record::ThreadBegin {
            tid: ThreadId::MAIN,
        });
        for i in 0..200usize {
            out.push(Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(2), i % 17),
                addr: Addr::global((i % 13) as u64 * 8),
                is_write: i % 2 == 0,
                mask: SamplerMask::bit(0),
            });
            if i % 10 == 0 {
                out.push(Record::Sync {
                    tid: ThreadId::from_index(i % 3),
                    pc: Pc::new(FuncId::from_index(1), 4),
                    kind: SyncOpKind::LockRelease,
                    var: SyncVar(7),
                    timestamp: i as u64 + 1,
                });
            }
        }
        out.push(Record::ThreadEnd {
            tid: ThreadId::from_index(2),
        });
        out
    }

    /// One sealed block (frame + payload) holding `records`.
    fn sealed_block(records: &[Record]) -> Vec<u8> {
        let mut enc = BlockEnc::default();
        for r in records {
            enc.push(r);
        }
        let mut block = Vec::new();
        enc.seal(&mut block);
        block
    }

    fn decode_stream(bytes: &[u8]) -> LogResult<Vec<Record>> {
        assert_eq!(&bytes[..4], &V2_MAGIC);
        assert_eq!(bytes[4], V2_VERSION);
        let mut out = Vec::new();
        for block in RecordBlocks::open(bytes)? {
            out.extend(block?);
        }
        Ok(out)
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = sample_records();
        let bytes = encode_v2(&records);
        assert_eq!(decode_stream(&bytes).unwrap(), records);
    }

    #[test]
    fn peek_sealed_total_reads_the_footer() {
        let records = sample_records();
        let bytes = encode_v2(&records);
        let dir = std::env::temp_dir();
        let sealed = dir.join("literace_peek_sealed.lrl");
        std::fs::write(&sealed, &bytes).unwrap();
        assert_eq!(peek_sealed_total(&sealed), Some(records.len() as u64));

        // Truncating the footer leaves an unsealed log: no total.
        let torn = dir.join("literace_peek_torn.lrl");
        std::fs::write(&torn, &bytes[..bytes.len() - FRAME_BYTES]).unwrap();
        assert_eq!(peek_sealed_total(&torn), None);

        // Non-v2 bytes: no total.
        let v1 = dir.join("literace_peek_v1.lrl");
        std::fs::write(&v1, b"\x01not a v2 log, just some bytes....").unwrap();
        assert_eq!(peek_sealed_total(&v1), None);

        for p in [sealed, torn, v1] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn round_trip_across_tiny_blocks() {
        let records = sample_records();
        let opts = EncodeOpts::default().block_records(3);
        let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(decode_stream(&bytes).unwrap(), records);
    }

    #[test]
    fn empty_log_is_header_plus_footer_and_round_trips() {
        let bytes = encode_v2([]);
        assert_eq!(bytes.len(), 5 + FRAME_BYTES);
        assert_eq!(decode_stream(&bytes).unwrap(), Vec::<Record>::new());
    }

    #[test]
    fn finished_log_reads_back_sealed() {
        let bytes = encode_v2(&sample_records());
        let mut blocks = RecordBlocks::open(&bytes[..]).unwrap();
        assert_eq!(blocks.seal_state(), SealState::Unknown);
        for b in blocks.by_ref() {
            b.unwrap();
        }
        assert_eq!(blocks.seal_state(), SealState::Sealed);
    }

    #[test]
    fn dropped_writer_reads_back_unsealed() {
        let records = sample_records();
        let mut sink = Vec::new();
        {
            let mut w = LogWriterV2::new(&mut sink);
            for r in &records {
                w.write_record(r).unwrap();
            }
        }
        let mut blocks = RecordBlocks::open(&sink[..]).unwrap();
        let mut decoded = Vec::new();
        for b in blocks.by_ref() {
            decoded.extend(b.unwrap());
        }
        assert_eq!(decoded, records);
        assert_eq!(blocks.seal_state(), SealState::Unsealed);
    }

    #[test]
    fn torn_footer_is_corrupt_not_sealed() {
        let mut bytes = encode_v2(&sample_records()).to_vec();
        // Flip a byte inside the footer's total_records field.
        let foot = bytes.len() - FRAME_BYTES;
        bytes[foot + 5] ^= 0x40;
        let mut blocks = RecordBlocks::open(&bytes[..]).unwrap();
        let last = blocks.by_ref().last().unwrap();
        let err = last.unwrap_err();
        assert!(err.to_string().contains("footer"), "{err}");
        assert_eq!(blocks.seal_state(), SealState::Unknown);
    }

    #[test]
    fn v2_is_at_least_2x_smaller_on_a_typical_stream() {
        let records = sample_records();
        let v1: usize = records.iter().map(encoded_len).sum();
        let v2 = encode_v2(&records).len();
        assert!(
            v2 * 2 <= v1,
            "v2 ({v2} bytes) must be ≥2x smaller than v1 ({v1} bytes)"
        );
    }

    #[test]
    fn every_sync_kind_round_trips() {
        use SyncOpKind::*;
        let kinds = [
            LockAcquire,
            LockRelease,
            Notify,
            WaitReturn,
            Reset,
            SemRelease,
            SemAcquire,
            BarrierArrive,
            BarrierDepart,
            Fork,
            ThreadStart,
            ThreadExit,
            Join,
            AtomicRmw,
            AllocPage,
        ];
        let records: Vec<Record> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| Record::Sync {
                tid: ThreadId::from_index(i),
                pc: Pc(u64::MAX - i as u64),
                kind,
                var: SyncVar(i as u64),
                timestamp: i as u64,
            })
            .collect();
        let bytes = encode_v2(&records);
        assert_eq!(decode_stream(&bytes).unwrap(), records);
    }

    #[test]
    fn explicit_and_special_masks_round_trip() {
        let masks = [
            SamplerMask::EMPTY,
            SamplerMask::bit(0),
            SamplerMask::bit(5),
            SamplerMask(0b1011),
            SamplerMask::FULL,
        ];
        let records: Vec<Record> = masks
            .iter()
            .map(|&mask| Record::Mem {
                tid: ThreadId::MAIN,
                pc: Pc(3),
                addr: Addr(40),
                is_write: false,
                mask,
            })
            .collect();
        let bytes = encode_v2(&records);
        assert_eq!(decode_stream(&bytes).unwrap(), records);
    }

    #[test]
    fn trailing_bytes_in_block_are_corrupt() {
        let records = vec![Record::ThreadBegin {
            tid: ThreadId::MAIN,
        }];
        let mut payload = sealed_block(&records)[FRAME_BYTES..].to_vec(); // strip the frame
        payload.push(0x00); // extra byte after the declared record
        let err = decode_block(&payload, 1).unwrap_err();
        // The tag region holds one byte per record, so a trailing byte is
        // a tag-region length mismatch.
        assert!(err.to_string().contains("tag bytes"), "{err}");
    }

    #[test]
    fn gv_trailing_operand_bytes_are_corrupt() {
        let records = sample_records();
        let block = sealed_block(&records);
        let payload = &block[FRAME_BYTES..];
        // Declare one record fewer than encoded: the tag-region check
        // fires before any operand is touched.
        let err = decode_block(payload, records.len() as u32 - 1).unwrap_err();
        assert!(err.to_string().contains("tag bytes"), "{err}");
    }

    #[test]
    fn writer_drop_flushes_open_block() {
        let records = sample_records();
        let mut sink = Vec::new();
        {
            let mut w = LogWriterV2::new(&mut sink);
            for r in &records {
                w.write_record(r).unwrap();
            }
            // Dropped without finish(): the open block must still land.
        }
        assert_eq!(decode_stream(&sink).unwrap(), records);
    }
}
