//! Sealed section containers: the v2 framing discipline applied to
//! non-log payloads.
//!
//! Detector checkpoints (and any future sidecar artifact) need exactly
//! the integrity guarantees the v2 log format already provides — framed,
//! checksummed sections; a sealing footer whose absence is detectable; a
//! whole-file running checksum so a spliced or bit-flipped body can never
//! masquerade as sealed — but with a different payload grammar. This
//! module reuses the v2 frame machinery ([`make_block_frame`],
//! [`make_footer`], [`parse_frame`]) under a caller-supplied magic:
//!
//! ```text
//! file    := magic(4) version(1) section* footer
//! section := payload_len(u32 LE) item_count(u32 LE) section_id(u32 LE)
//!            head_sum(u32 LE)    payload_sum(u64 LE) payload
//! footer  := sentinel(u32 LE: 0xFFFF_FFFF) total_sections(u64 LE)
//!            file_sum(u64 LE)   foot_sum(u32 LE)
//! ```
//!
//! The only layout difference from a v2 log is semantic: the third frame
//! field carries a section id instead of a sync count (still covered by
//! `head_sum`), and the footer total counts sections, not records.
//!
//! Unlike log reading, container reading is **strict**: containers are
//! written through [`AtomicFile`](crate::AtomicFile), so a reader should
//! never see a torn one under normal operation — an unsealed, truncated,
//! or checksum-failing container is always a typed [`LogError`], never a
//! best-effort partial decode.

use std::io::Write;

use crate::checksum::Checksum;
use crate::error::{LogError, LogResult};
use crate::v2::{make_block_frame, make_footer, parse_frame, Frame, FRAME_BYTES};

/// Writes a sealed section container to any [`Write`] sink.
///
/// Sections are appended with [`section`](ContainerWriter::section) and
/// the file is sealed by [`finish`](ContainerWriter::finish); a container
/// whose writer never reached `finish` has no footer and is rejected by
/// [`read_container`] as unsealed.
#[derive(Debug)]
pub struct ContainerWriter<W: Write> {
    sink: W,
    sections: u64,
    /// Running checksum over every byte after the 5-byte file header;
    /// finalized into the footer (which is itself excluded).
    file_sum: Checksum,
}

impl<W: Write> ContainerWriter<W> {
    /// Opens a container, writing the 5-byte `magic + version` header.
    pub fn new(mut sink: W, magic: [u8; 4], version: u8) -> LogResult<ContainerWriter<W>> {
        sink.write_all(&magic)?;
        sink.write_all(&[version])?;
        Ok(ContainerWriter {
            sink,
            sections: 0,
            file_sum: Checksum::new(),
        })
    }

    /// Appends one framed, checksummed section.
    pub fn section(&mut self, id: u32, item_count: u32, payload: &[u8]) -> LogResult<()> {
        let frame = make_block_frame(payload, item_count, id);
        self.sink.write_all(&frame)?;
        self.sink.write_all(payload)?;
        self.file_sum.update(&frame);
        self.file_sum.update(payload);
        self.sections += 1;
        Ok(())
    }

    /// Seals the container with the footer and returns the sink.
    pub fn finish(mut self) -> LogResult<W> {
        let footer = make_footer(self.sections, self.file_sum.finish());
        self.sink.write_all(&footer)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// One decoded container section, borrowing its payload from the input.
#[derive(Debug, Clone, Copy)]
pub struct ContainerSection<'a> {
    /// Caller-defined section id (the third frame field).
    pub id: u32,
    /// Caller-defined item count (the second frame field).
    pub item_count: u32,
    /// The section payload, checksum-verified.
    pub payload: &'a [u8],
}

/// Parses and fully verifies a sealed container: magic, version, every
/// section frame and payload checksum, the mandatory footer, the section
/// total, the whole-file running checksum, and the absence of trailing
/// bytes. Any failure is a typed error naming `file`, what the container
/// holds (e.g. `"checkpoint"`) — a container is either perfectly intact
/// or rejected.
pub fn read_container<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u8,
    file: &'static str,
) -> LogResult<Vec<ContainerSection<'a>>> {
    read_sections(bytes, magic, version).map_err(|e| e.in_file(file))
}

fn read_sections(bytes: &[u8], magic: [u8; 4], version: u8) -> LogResult<Vec<ContainerSection<'_>>> {
    if bytes.len() < 5 || bytes[..4] != magic {
        return Err(LogError::BadMagic {
            file: "container",
            found: bytes[..bytes.len().min(4)].to_vec(),
        });
    }
    if bytes[4] != version {
        return Err(LogError::UnsupportedVersion {
            file: "container",
            found: bytes[4],
            supported: version,
        });
    }
    let mut sections = Vec::new();
    let mut file_sum = Checksum::new();
    let mut at = 5usize;
    loop {
        if bytes.len() - at < FRAME_BYTES {
            return Err(LogError::corrupt(
                "unsealed container: input ends without a footer",
            ));
        }
        let frame: &[u8; FRAME_BYTES] = bytes[at..at + FRAME_BYTES].try_into().unwrap();
        match parse_frame(frame)? {
            Frame::Footer(foot) => {
                at += FRAME_BYTES;
                if at != bytes.len() {
                    return Err(LogError::corrupt("trailing bytes after container footer"));
                }
                if foot.total_records != sections.len() as u64 {
                    return Err(LogError::corrupt(format!(
                        "container footer declares {} sections, found {}",
                        foot.total_records,
                        sections.len()
                    )));
                }
                if foot.file_sum != file_sum.finish() {
                    return Err(LogError::corrupt("container stream checksum mismatch"));
                }
                return Ok(sections);
            }
            Frame::Block(head) => {
                let body_at = at + FRAME_BYTES;
                let len = head.payload_len as usize;
                if bytes.len() - body_at < len {
                    return Err(LogError::corrupt(
                        "container section payload extends past end of input",
                    ));
                }
                let payload = &bytes[body_at..body_at + len];
                if crate::checksum::checksum(payload) != head.payload_sum {
                    return Err(LogError::corrupt("container section checksum mismatch"));
                }
                file_sum.update(frame);
                file_sum.update(payload);
                sections.push(ContainerSection {
                    id: head.sync_count,
                    item_count: head.record_count,
                    payload,
                });
                at = body_at + len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"LRT\x01";
    const VERSION: u8 = 1;

    fn sealed(sections: &[(u32, u32, &[u8])]) -> Vec<u8> {
        let mut w = ContainerWriter::new(Vec::new(), MAGIC, VERSION).unwrap();
        for &(id, items, payload) in sections {
            w.section(id, items, payload).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_sections_in_order() {
        let bytes = sealed(&[(7, 3, b"alpha"), (9, 0, b""), (7, 1, b"beta")]);
        let sections = read_container(&bytes, MAGIC, VERSION, "test").unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(
            sections
                .iter()
                .map(|s| (s.id, s.item_count, s.payload))
                .collect::<Vec<_>>(),
            vec![
                (7, 3, b"alpha".as_slice()),
                (9, 0, b"".as_slice()),
                (7, 1, b"beta".as_slice())
            ]
        );
    }

    #[test]
    fn empty_container_is_valid() {
        let bytes = sealed(&[]);
        assert!(read_container(&bytes, MAGIC, VERSION, "test").unwrap().is_empty());
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let bytes = sealed(&[(1, 1, b"x")]);
        assert!(matches!(
            read_container(&bytes, *b"ZZZZ", VERSION, "test"),
            Err(LogError::BadMagic { .. })
        ));
        assert!(matches!(
            read_container(&bytes, MAGIC, VERSION + 1, "test"),
            Err(LogError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn missing_footer_is_unsealed() {
        let mut w = ContainerWriter::new(Vec::new(), MAGIC, VERSION).unwrap();
        w.section(1, 1, b"payload").unwrap();
        let bytes = w.sink; // drop without finish: no footer
        let err = read_container(&bytes, MAGIC, VERSION, "test").unwrap_err();
        assert!(err.to_string().contains("unsealed"), "{err}");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sealed(&[(1, 2, b"hello world"), (2, 1, b"tail")]);
        for cut in 0..bytes.len() {
            let err = read_container(&bytes[..cut], MAGIC, VERSION, "test").unwrap_err();
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sealed(&[(1, 2, b"hello world"), (2, 1, b"tail")]);
        for off in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[off] ^= bit;
                assert!(
                    read_container(&bad, MAGIC, VERSION, "test").is_err(),
                    "flip at {off} mask {bit:#x} must not verify"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_after_footer_are_rejected() {
        let mut bytes = sealed(&[(1, 1, b"x")]);
        bytes.push(0);
        let err = read_container(&bytes, MAGIC, VERSION, "test").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
