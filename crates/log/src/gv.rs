//! Group varint ("GV") integer coding for the v2 revision-4 block payload.
//!
//! LEB128 varints (the retired revision 3) spend a branch per byte:
//! every decoded field re-tests a continuation bit. Group varint hoists
//! all the length information into one control byte per **four** values
//! — two bits per lane selecting a stored width of 1, 2, 4 or 8 bytes —
//! so the decoder's per-value work collapses to a table lookup, one
//! unaligned `u64::from_le_bytes` wide load, and a mask. No
//! continuation-bit branches, no shifts that depend on data bytes.
//!
//! ## Wire grammar
//!
//! ```text
//! stream := group*
//! group  := ctrl(1) lane0 lane1 lane2 lane3
//! ctrl   : bits 2i..2i+2 select lane i's width w(i) ∈ {1, 2, 4, 8}
//! lane_i : w(i) little-endian bytes of value i
//! ```
//!
//! The encoder always emits **complete** groups: when the value count is
//! not a multiple of four, the final group is padded with zero-valued
//! one-byte lanes. Padding costs at most three bytes per block and lets
//! the decoder run the same four-lane loop for every group, with a single
//! bounds check per group on the hot path.
//!
//! Widths are powers of two rather than the classic `1..4` byte range
//! because the v2 delta fields are u64 (addresses and timestamps can
//! exceed 32 bits); `{1,2,4,8}` covers the full range while keeping the
//! two-bit selector.

use bytes::{BufMut, BytesMut};

use crate::error::{LogError, LogResult};

/// Lane widths selected by a two-bit control field.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Widest encoded group: control byte plus four 8-byte lanes.
pub const MAX_GROUP_BYTES: usize = 1 + 4 * 8;

/// Two-bit width selector for `v` (index into [`WIDTHS`]).
#[inline]
fn selector(v: u64) -> u8 {
    // Branch-free: 1 byte below 2^8, 2 below 2^16, 4 below 2^32, else 8.
    let bits = 64 - (v | 1).leading_zeros();
    match bits {
        0..=8 => 0,
        9..=16 => 1,
        17..=32 => 2,
        _ => 3,
    }
}

/// Streaming group-varint encoder: values accumulate four at a time and
/// each full group is flushed to the output buffer.
#[derive(Debug, Default)]
pub struct GvEncoder {
    buf: BytesMut,
    pending: [u64; 4],
    n: usize,
}

impl GvEncoder {
    /// Appends one value to the stream.
    #[inline]
    pub fn put(&mut self, v: u64) {
        self.pending[self.n] = v;
        self.n += 1;
        if self.n == 4 {
            self.flush_group();
        }
    }

    #[inline]
    fn flush_group(&mut self) {
        let mut ctrl = 0u8;
        let mut lanes = [0u8; 32];
        let mut at = 0;
        for (i, &v) in self.pending.iter().enumerate() {
            let sel = selector(v);
            ctrl |= sel << (2 * i);
            let w = WIDTHS[sel as usize];
            lanes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            at += w;
        }
        self.buf.put_u8(ctrl);
        self.buf.extend_from_slice(&lanes[..at]);
        self.n = 0;
    }

    /// Seals the stream (padding the final group) and borrows the encoded
    /// bytes; the buffer keeps its capacity. [`clear`](GvEncoder::clear)
    /// before reuse.
    pub fn seal(&mut self) -> &[u8] {
        if self.n > 0 {
            for i in self.n..4 {
                self.pending[i] = 0;
            }
            self.flush_group();
        }
        &self.buf
    }

    /// Discards buffered state without emitting anything.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.n = 0;
    }
}

/// Streaming group-varint decoder over a fully materialized byte slice.
///
/// Values are decoded a whole group at a time: when at least
/// [`MAX_GROUP_BYTES`] remain, the four wide loads run with a single
/// bounds check; near the end of the region a careful tail path copies
/// each lane into a zeroed 8-byte buffer first.
#[derive(Debug)]
pub struct GvCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    group: [u64; 4],
    /// Lanes of `group` already handed out (4 = need a refill).
    served: usize,
}

impl<'a> GvCursor<'a> {
    /// A cursor over `buf`, which must hold whole groups.
    pub fn new(buf: &'a [u8]) -> GvCursor<'a> {
        GvCursor {
            buf,
            pos: 0,
            group: [0; 4],
            served: 4,
        }
    }

    /// Decodes the next value.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Corrupt`] when the region ends mid-group.
    // Not an `Iterator`: decode failure must be a hard error at the call
    // site, not a silent `None`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> LogResult<u64> {
        if self.served == 4 {
            self.refill()?;
        }
        let v = self.group[self.served];
        self.served += 1;
        Ok(v)
    }

    #[inline]
    fn refill(&mut self) -> LogResult<()> {
        let s = self.buf;
        let pos = self.pos;
        if s.len() - pos >= MAX_GROUP_BYTES {
            // Hot path: the whole worst-case group is in bounds, so every
            // lane can issue an unaligned 8-byte load and mask it down.
            let ctrl = s[pos];
            let mut at = pos + 1;
            for i in 0..4 {
                let w = WIDTHS[((ctrl >> (2 * i)) & 3) as usize];
                let wide =
                    u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes in bounds"));
                // Keep the low `w` bytes: shift by (8 - w) * 8 < 64.
                self.group[i] = wide & (u64::MAX >> ((8 - w) * 8));
                at += w;
            }
            self.pos = at;
            self.served = 0;
            return Ok(());
        }
        self.refill_tail()
    }

    /// Cold tail: per-lane bounds checks with the lane copied into a
    /// zeroed 8-byte buffer before the wide load.
    #[cold]
    fn refill_tail(&mut self) -> LogResult<()> {
        let s = self.buf;
        let Some(&ctrl) = s.get(self.pos) else {
            return Err(LogError::corrupt("group varint region exhausted"));
        };
        let mut at = self.pos + 1;
        for i in 0..4 {
            let w = WIDTHS[((ctrl >> (2 * i)) & 3) as usize];
            let Some(lane) = s.get(at..at + w) else {
                return Err(LogError::corrupt("truncated group varint lane"));
            };
            let mut bytes = [0u8; 8];
            bytes[..w].copy_from_slice(lane);
            self.group[i] = u64::from_le_bytes(bytes);
            at += w;
        }
        self.pos = at;
        self.served = 0;
        Ok(())
    }

    /// True when every byte of the region has been consumed **and** no
    /// decoded-but-unserved lane remains beyond padding. Used by the block
    /// decoder's trailing-bytes check: after the declared record count,
    /// the only legal leftovers are the final group's zero pads.
    pub fn exhausted_except_padding(&self) -> bool {
        self.pos == self.buf.len() && self.group[self.served..].iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) {
        let mut enc = GvEncoder::default();
        for &v in values {
            enc.put(v);
        }
        let bytes = enc.seal();
        let mut cur = GvCursor::new(bytes);
        for &v in values {
            assert_eq!(cur.next().unwrap(), v);
        }
        assert!(cur.exhausted_except_padding());
    }

    #[test]
    fn round_trips_width_boundaries() {
        round_trip(&[
            0,
            1,
            0xFF,
            0x100,
            0xFFFF,
            0x1_0000,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX,
        ]);
    }

    #[test]
    fn round_trips_every_partial_group_size() {
        for n in 0..9usize {
            let values: Vec<u64> = (0..n as u64).map(|i| i * 0x1234_5678).collect();
            round_trip(&values);
        }
    }

    #[test]
    fn round_trips_a_large_mixed_stream() {
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left((i % 64) as u32))
            .collect();
        round_trip(&values);
    }

    #[test]
    fn selector_matches_width_of_value() {
        assert_eq!(WIDTHS[selector(0) as usize], 1);
        assert_eq!(WIDTHS[selector(255) as usize], 1);
        assert_eq!(WIDTHS[selector(256) as usize], 2);
        assert_eq!(WIDTHS[selector(65_535) as usize], 2);
        assert_eq!(WIDTHS[selector(65_536) as usize], 4);
        assert_eq!(WIDTHS[selector(u64::from(u32::MAX)) as usize], 4);
        assert_eq!(WIDTHS[selector(u64::from(u32::MAX) + 1) as usize], 8);
        assert_eq!(WIDTHS[selector(u64::MAX) as usize], 8);
    }

    #[test]
    fn truncated_region_is_corrupt_not_panic() {
        let mut enc = GvEncoder::default();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8] {
            enc.put(v);
        }
        let bytes = enc.seal();
        for cut in 0..bytes.len() {
            let mut cur = GvCursor::new(&bytes[..cut]);
            let mut result = Ok(());
            for _ in 0..8 {
                if let Err(e) = cur.next() {
                    result = Err(e);
                    break;
                }
            }
            // Cutting a whole group off yields wrong-but-in-bounds data
            // only at exact group boundaries; any mid-group cut errors.
            if cut % 5 != 0 {
                assert!(result.is_err(), "cut={cut} decoded past the end");
            }
        }
    }

    #[test]
    fn empty_stream_is_exhausted_immediately() {
        let mut enc = GvEncoder::default();
        let bytes = enc.seal();
        assert!(bytes.is_empty());
        let mut cur = GvCursor::new(bytes);
        assert!(cur.exhausted_except_padding());
        assert!(cur.next().is_err());
    }

    #[test]
    fn encoder_reuse_after_finish_starts_clean() {
        let mut enc = GvEncoder::default();
        enc.put(7);
        assert!(!enc.seal().is_empty());
        enc.clear();
        enc.put(9);
        let mut cur = GvCursor::new(enc.seal());
        assert_eq!(cur.next().unwrap(), 9);
    }
}
