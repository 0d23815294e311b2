//! Compact binary encoding of log records.
//!
//! The paper reports log volume in MB/s (Table 5); this codec defines the
//! bytes-per-record figures that the overhead model uses, and provides the
//! on-disk format for offline detection. Encoding is little-endian,
//! fixed-width per record kind, with a one-byte tag.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};

use crate::error::{LogError, LogResult};
use crate::record::{Record, SamplerMask};

const TAG_SYNC: u8 = 1;
const TAG_MEM: u8 = 2;
const TAG_THREAD_BEGIN: u8 = 3;
const TAG_THREAD_END: u8 = 4;

/// Encoded size in bytes of a synchronization record.
pub const SYNC_RECORD_BYTES: usize = 1 + 4 + 8 + 1 + 8 + 8;

/// Encoded size in bytes of a memory-access record.
pub const MEM_RECORD_BYTES: usize = 1 + 4 + 8 + 8 + 1 + 4;

/// Encoded size in bytes of a thread marker record.
pub const MARKER_RECORD_BYTES: usize = 1 + 4;

/// The sync-kind wire table, shared by the v1 and v2 codecs: a kind's
/// byte in v1, and the 4-bit field of a v2 sync tag.
#[inline]
pub(crate) fn sync_kind_to_u8(kind: SyncOpKind) -> u8 {
    match kind {
        SyncOpKind::LockAcquire => 0,
        SyncOpKind::LockRelease => 1,
        SyncOpKind::Notify => 2,
        SyncOpKind::WaitReturn => 3,
        SyncOpKind::Reset => 4,
        SyncOpKind::Fork => 5,
        SyncOpKind::ThreadStart => 6,
        SyncOpKind::ThreadExit => 7,
        SyncOpKind::Join => 8,
        SyncOpKind::AtomicRmw => 9,
        SyncOpKind::AllocPage => 10,
        SyncOpKind::SemRelease => 11,
        SyncOpKind::SemAcquire => 12,
        SyncOpKind::BarrierArrive => 13,
        SyncOpKind::BarrierDepart => 14,
    }
}

/// The inverse of [`sync_kind_to_u8`]; any other byte is corrupt.
#[inline]
pub(crate) fn sync_kind_from_u8(v: u8) -> LogResult<SyncOpKind> {
    Ok(match v {
        0 => SyncOpKind::LockAcquire,
        1 => SyncOpKind::LockRelease,
        2 => SyncOpKind::Notify,
        3 => SyncOpKind::WaitReturn,
        4 => SyncOpKind::Reset,
        5 => SyncOpKind::Fork,
        6 => SyncOpKind::ThreadStart,
        7 => SyncOpKind::ThreadExit,
        8 => SyncOpKind::Join,
        9 => SyncOpKind::AtomicRmw,
        10 => SyncOpKind::AllocPage,
        11 => SyncOpKind::SemRelease,
        12 => SyncOpKind::SemAcquire,
        13 => SyncOpKind::BarrierArrive,
        14 => SyncOpKind::BarrierDepart,
        other => return Err(LogError::corrupt(format!("bad sync kind {other}"))),
    })
}

/// Appends the encoding of `record` to `buf`.
pub fn encode(record: &Record, buf: &mut BytesMut) {
    match *record {
        Record::Sync {
            tid,
            pc,
            kind,
            var,
            timestamp,
        } => {
            buf.put_u8(TAG_SYNC);
            buf.put_u32_le(tid.index() as u32);
            buf.put_u64_le(pc.0);
            buf.put_u8(sync_kind_to_u8(kind));
            buf.put_u64_le(var.0);
            buf.put_u64_le(timestamp);
        }
        Record::Mem {
            tid,
            pc,
            addr,
            is_write,
            mask,
        } => {
            buf.put_u8(TAG_MEM);
            buf.put_u32_le(tid.index() as u32);
            buf.put_u64_le(pc.0);
            buf.put_u64_le(addr.raw());
            buf.put_u8(is_write as u8);
            buf.put_u32_le(mask.0);
        }
        Record::ThreadBegin { tid } => {
            buf.put_u8(TAG_THREAD_BEGIN);
            buf.put_u32_le(tid.index() as u32);
        }
        Record::ThreadEnd { tid } => {
            buf.put_u8(TAG_THREAD_END);
            buf.put_u32_le(tid.index() as u32);
        }
    }
}

/// The encoded size of a record, in bytes.
pub fn encoded_len(record: &Record) -> usize {
    match record {
        Record::Sync { .. } => SYNC_RECORD_BYTES,
        Record::Mem { .. } => MEM_RECORD_BYTES,
        Record::ThreadBegin { .. } | Record::ThreadEnd { .. } => MARKER_RECORD_BYTES,
    }
}

/// The encoded size (including the tag byte) of a record starting with the
/// given tag, or `None` for an unknown tag. Lets chunked readers know how
/// many bytes to buffer before decoding.
pub fn tag_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_SYNC => Some(SYNC_RECORD_BYTES),
        TAG_MEM => Some(MEM_RECORD_BYTES),
        TAG_THREAD_BEGIN | TAG_THREAD_END => Some(MARKER_RECORD_BYTES),
        _ => None,
    }
}

/// Decodes one record from the front of `buf`, consuming its bytes.
///
/// # Errors
///
/// Returns [`LogError::Corrupt`] on an unknown tag, a truncated record, or
/// an invalid field value.
pub fn decode<B: Buf>(buf: &mut B) -> LogResult<Record> {
    if buf.remaining() < 1 {
        return Err(LogError::corrupt("empty buffer"));
    }
    let tag = buf.get_u8();
    let need = match tag {
        TAG_SYNC => SYNC_RECORD_BYTES,
        TAG_MEM => MEM_RECORD_BYTES,
        TAG_THREAD_BEGIN | TAG_THREAD_END => MARKER_RECORD_BYTES,
        other => return Err(LogError::corrupt(format!("unknown record tag {other}"))),
    } - 1;
    if buf.remaining() < need {
        return Err(LogError::corrupt(format!(
            "truncated record: tag {tag} needs {need} more bytes, has {}",
            buf.remaining()
        )));
    }
    Ok(match tag {
        TAG_SYNC => {
            let tid = ThreadId::from_index(buf.get_u32_le() as usize);
            let pc = Pc(buf.get_u64_le());
            let kind = sync_kind_from_u8(buf.get_u8())?;
            let var = SyncVar(buf.get_u64_le());
            let timestamp = buf.get_u64_le();
            Record::Sync {
                tid,
                pc,
                kind,
                var,
                timestamp,
            }
        }
        TAG_MEM => {
            let tid = ThreadId::from_index(buf.get_u32_le() as usize);
            let pc = Pc(buf.get_u64_le());
            let addr = Addr(buf.get_u64_le());
            let is_write = match buf.get_u8() {
                0 => false,
                1 => true,
                other => {
                    return Err(LogError::corrupt(format!("bad is_write flag {other}")))
                }
            };
            let mask = SamplerMask(buf.get_u32_le());
            Record::Mem {
                tid,
                pc,
                addr,
                is_write,
                mask,
            }
        }
        TAG_THREAD_BEGIN => Record::ThreadBegin {
            tid: ThreadId::from_index(buf.get_u32_le() as usize),
        },
        TAG_THREAD_END => Record::ThreadEnd {
            tid: ThreadId::from_index(buf.get_u32_le() as usize),
        },
        _ => unreachable!("tag validated above"),
    })
}

/// Encodes a whole sequence of records into one buffer.
pub fn encode_all<'a>(records: impl IntoIterator<Item = &'a Record>) -> Bytes {
    let mut buf = BytesMut::new();
    for r in records {
        encode(r, &mut buf);
    }
    buf.freeze()
}

/// Decodes an entire buffer into records.
///
/// # Errors
///
/// Returns the first decoding error encountered.
pub fn decode_all(mut buf: Bytes) -> LogResult<Vec<Record>> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(decode(&mut buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::FuncId;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::ThreadBegin {
                tid: ThreadId::MAIN,
            },
            Record::Sync {
                tid: ThreadId::from_index(2),
                pc: Pc::new(FuncId::from_index(4), 17),
                kind: SyncOpKind::LockRelease,
                var: SyncVar(0x2000_0040),
                timestamp: 99,
            },
            Record::Mem {
                tid: ThreadId::from_index(1),
                pc: Pc::new(FuncId::from_index(3), 2),
                addr: Addr::global(5),
                is_write: true,
                mask: SamplerMask(0b1010),
            },
            Record::ThreadEnd {
                tid: ThreadId::from_index(2),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let decoded = decode_all(bytes).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for r in sample_records() {
            let mut buf = BytesMut::new();
            encode(&r, &mut buf);
            assert_eq!(buf.len(), encoded_len(&r), "{r:?}");
        }
    }

    #[test]
    fn every_sync_kind_round_trips() {
        use SyncOpKind::*;
        for kind in [
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
        ] {
            assert_eq!(sync_kind_from_u8(sync_kind_to_u8(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let buf = Bytes::from_static(&[0xFF]);
        let err = decode_all(buf).unwrap_err();
        assert!(err.to_string().contains("unknown record tag"), "{err}");
    }

    #[test]
    fn truncated_record_is_corrupt() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let truncated = bytes.slice(0..bytes.len() - 1);
        let err = decode_all(truncated).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut buf = BytesMut::new();
        encode(
            &Record::Mem {
                tid: ThreadId::MAIN,
                pc: Pc::new(FuncId::from_index(0), 0),
                addr: Addr::global(0),
                is_write: false,
                mask: SamplerMask::EMPTY,
            },
            &mut buf,
        );
        // Corrupt the is_write byte (offset: tag1+tid4+pc8+addr8 = 21).
        buf[21] = 7;
        let err = decode_all(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("is_write"), "{err}");
    }
}
