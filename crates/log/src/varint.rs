//! LEB128 varints and zigzag deltas.
//!
//! Detector checkpoints (LRCP, `literace-detector`'s `checkpoint` module)
//! write every field as an LEB128 varint and every sorted key as a zigzag
//! delta against the key before, so small values and dense key runs take
//! one or two bytes instead of eight. The v2 log codec (see [`crate::v2`])
//! takes only [`zigzag`] and [`unzigzag`] from here: its deltas against
//! the same thread's previous record are group-varint coded (see
//! `crate::gv`). Deltas can be negative (a thread revisits a lower
//! address), hence zigzag.

use bytes::{Buf, BufMut};

use crate::error::{LogError, LogResult};

/// Maximum encoded length of a u64 varint (⌈64/7⌉ bytes).
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends `v` as an LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from the front of `buf`.
///
/// # Errors
///
/// Returns [`LogError::Corrupt`] when the buffer ends mid-varint
/// ("truncated varint") or a continuation chain exceeds the 10-byte bound
/// for a u64 ("varint too long").
#[inline]
pub fn get_varint(buf: &mut impl Buf) -> LogResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(LogError::corrupt("truncated varint"));
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err(LogError::corrupt("varint too long for u64"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift as usize >= MAX_VARINT_BYTES * 7 {
            return Err(LogError::corrupt("varint too long for u64"));
        }
    }
}

/// Slice-specialized [`get_varint`]: the block decoder reads from a fully
/// materialized payload, so the 1- and 2-byte cases (the overwhelming
/// majority under the delta scheme) can be decided by direct pattern match
/// on the slice instead of per-byte `has_remaining` checks through the
/// generic `Buf` machinery.
///
/// # Errors
///
/// Same as [`get_varint`].
#[inline]
pub fn get_varint_slice(buf: &mut &[u8]) -> LogResult<u64> {
    let s = *buf;
    if let Some(&b0) = s.first() {
        if b0 & 0x80 == 0 {
            *buf = &s[1..];
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = s.get(1) {
            if b1 & 0x80 == 0 {
                *buf = &s[2..];
                return Ok(u64::from(b0 & 0x7F) | (u64::from(b1) << 7));
            }
        }
    }
    // Empty or 1-byte buffers and 3+-byte varints fall through with
    // nothing consumed; the generic loop re-reads from the start.
    get_varint(buf)
}

/// Decodes a zigzag varint delta from the front of `buf` and applies it
/// to `last`, built on [`get_varint_slice`].
///
/// # Errors
///
/// Propagates varint decoding errors.
#[inline]
pub fn get_delta_slice(buf: &mut &[u8], last: u64) -> LogResult<u64> {
    Ok(last.wrapping_add(unzigzag(get_varint_slice(buf)?) as u64))
}

/// Maps a signed value onto an unsigned one with small absolute values
/// staying small (0, -1, 1, -2 → 0, 1, 2, 3).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `new` encoded as a zigzag varint delta against `last`.
/// Wrapping arithmetic makes the pair lossless over the whole u64 range.
#[inline]
pub fn put_delta(buf: &mut impl BufMut, last: u64, new: u64) {
    put_varint(buf, zigzag(new.wrapping_sub(last) as i64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_BYTES);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn truncated_varint_is_corrupt() {
        let bytes = [0x80u8, 0x80];
        let mut slice = &bytes[..];
        let err = get_varint(&mut slice).unwrap_err();
        assert!(err.to_string().contains("truncated varint"), "{err}");
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let bytes = [0xFFu8; 11];
        let mut slice = &bytes[..];
        let err = get_varint(&mut slice).unwrap_err();
        assert!(err.to_string().contains("too long"), "{err}");
    }

    #[test]
    fn ten_byte_varint_with_bad_top_bits_is_corrupt() {
        // 9 continuation bytes then a final byte carrying more than the
        // single bit a u64 has room for.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x03;
        let mut slice = &bytes[..];
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn slice_fast_path_matches_generic_decoder() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint_slice(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
        // Errors agree too: truncated and overlong inputs.
        let mut truncated: &[u8] = &[0x80, 0x80];
        assert!(get_varint_slice(&mut truncated).is_err());
        let mut empty: &[u8] = &[];
        assert!(get_varint_slice(&mut empty).is_err());
        let mut overlong: &[u8] = &[0xFF; 11];
        assert!(get_varint_slice(&mut overlong).is_err());
    }

    #[test]
    fn slice_delta_round_trips() {
        for (last, new) in [(0u64, 0u64), (0, u64::MAX), (u64::MAX, 0), (5, 3), (3, 5)] {
            let mut buf = BytesMut::new();
            put_delta(&mut buf, last, new);
            let mut slice = &buf[..];
            assert_eq!(get_delta_slice(&mut slice, last).unwrap(), new);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn delta_round_trips_over_wrapping_boundaries() {
        for (last, new) in [
            (0u64, 0u64),
            (0, u64::MAX),
            (u64::MAX, 0),
            (5, 3),
            (3, 5),
            (u64::MAX / 2, u64::MAX / 2 + 10),
        ] {
            let mut buf = BytesMut::new();
            put_delta(&mut buf, last, new);
            let mut slice = &buf[..];
            assert_eq!(get_delta_slice(&mut slice, last).unwrap(), new);
        }
    }
}
