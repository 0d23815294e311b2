//! The v1 record reader over `std::io`.
//!
//! The paper writes its event stream to disk and detects offline (§4.4).
//! v1 is the seed's fixed-width format. The tool no longer writes it to
//! a file (v2's [`LogWriterV2`](crate::LogWriterV2) is the one log
//! writer), but it still reads v1 logs back, and
//! [`encode_all`](crate::encode_all) makes v1 bytes for fixtures.
//! [`ChunkedRecords`] decodes them for the one log reader,
//! [`RecordBlocks`](crate::RecordBlocks), over files and in-memory
//! buffers alike.

use std::io::Read;

use crate::codec::{decode, tag_len};
use crate::error::{LogError, LogResult};
use crate::record::Record;
use crate::salvage::drain_bytes;

/// Bytes a v1 read pulls from its source per refill.
const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Streaming v1 record iterator over a byte source.
///
/// Records are decoded out of a reusable chunk-sized buffer; a record
/// spanning a chunk boundary is carried over to the next fill. Yields
/// `LogResult<Record>`; iteration fuses after the first error.
#[derive(Debug)]
pub(crate) struct ChunkedRecords<R> {
    source: R,
    /// Undecoded bytes: `buf[pos..]` is pending input, `buf[..pos]` is
    /// already consumed and reclaimed on the next refill.
    buf: Vec<u8>,
    pos: usize,
    chunk_bytes: usize,
    eof: bool,
    done: bool,
}

impl<R: Read> ChunkedRecords<R> {
    /// Decodes `source`, reading it [`DEFAULT_CHUNK_BYTES`] at a time.
    pub(crate) fn new(source: R) -> ChunkedRecords<R> {
        ChunkedRecords::with_chunk(source, DEFAULT_CHUNK_BYTES)
    }

    fn with_chunk(source: R, chunk_bytes: usize) -> ChunkedRecords<R> {
        ChunkedRecords {
            source,
            buf: Vec::with_capacity(chunk_bytes.max(1)),
            pos: 0,
            chunk_bytes: chunk_bytes.max(1),
            eof: false,
            done: false,
        }
    }

    /// Discards the rest of the input, from the first record not yet
    /// decoded to the end of the source, and returns its length: what a
    /// salvage read drops after the first error.
    pub(crate) fn drop_rest(&mut self) -> u64 {
        let buffered = (self.buf.len() - self.pos) as u64;
        self.buf.clear();
        self.pos = 0;
        buffered + drain_bytes(&mut self.source)
    }

    /// Pulls one more chunk from the source, compacting consumed bytes
    /// first so a partial record at the tail survives the refill.
    fn refill(&mut self) -> LogResult<()> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let old = self.buf.len();
        self.buf.resize(old + self.chunk_bytes, 0);
        let mut filled = old;
        while filled < self.buf.len() {
            match self.source.read(&mut self.buf[filled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.buf.truncate(filled);
                    return Err(LogError::Io(e));
                }
            }
        }
        self.buf.truncate(filled);
        Ok(())
    }
}

impl<R: Read> Iterator for ChunkedRecords<R> {
    type Item = LogResult<Record>;

    fn next(&mut self) -> Option<LogResult<Record>> {
        if self.done {
            return None;
        }
        loop {
            let avail = self.buf.len() - self.pos;
            // How many buffered bytes the next record needs: at least the
            // tag, then the tag's fixed record length. Unknown tags fall
            // through to decode, which reports them as corrupt.
            let need = match self.buf.get(self.pos).copied().map(tag_len) {
                None => 1,
                Some(Some(len)) => len,
                Some(None) => {
                    self.done = true;
                    let mut slice = &self.buf[self.pos..];
                    let record = decode(&mut slice);
                    if let Err(e) = &record {
                        crate::error::count_error(e);
                    }
                    return Some(record);
                }
            };
            if avail < need {
                if self.eof {
                    self.done = true;
                    if avail == 0 {
                        return None;
                    }
                    let mut slice = &self.buf[self.pos..];
                    let record = decode(&mut slice);
                    if let Err(e) = &record {
                        crate::error::count_error(e);
                    }
                    return Some(record);
                }
                if let Err(e) = self.refill() {
                    self.done = true;
                    crate::error::count_error(&e);
                    return Some(Err(e));
                }
                continue;
            }
            let mut slice = &self.buf[self.pos..self.pos + need];
            let record = decode(&mut slice);
            self.pos += need;
            if let Err(e) = &record {
                self.done = true;
                // Leave the failed record unconsumed, as every other
                // error does, so `drop_rest` counts its bytes.
                self.pos -= need;
                crate::error::count_error(e);
            }
            return Some(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::{Addr, FuncId, Pc, ThreadId};

    use crate::codec::encode_all;
    use crate::record::{EventLog, SamplerMask};
    use crate::stream::read_log_auto;

    /// Every record of a v1 byte source, read `chunk` bytes at a time.
    fn read_chunked(source: impl Read, chunk: usize) -> LogResult<Vec<Record>> {
        ChunkedRecords::with_chunk(source, chunk).collect()
    }

    fn some_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(i % 5), i),
                addr: Addr::global((i % 7) as u64),
                is_write: i % 2 == 0,
                mask: SamplerMask((i % 16) as u32),
            })
            .collect()
    }

    #[test]
    fn writer_reader_round_trip() {
        // More records than one re-batched block holds.
        let records = some_records(10_000);
        let bytes = encode_all(&records);
        let log = read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log.records(), &records[..]);
    }

    #[test]
    fn event_log_byte_round_trip() {
        let log: EventLog = some_records(100).into_iter().collect();
        let bytes = encode_all(log.records());
        let back = read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn chunked_read_splits_records_across_chunk_boundaries() {
        let records = some_records(1_000);
        let bytes = encode_all(&records);
        // Chunk sizes that never align with the 26-byte Mem record force a
        // carried-over partial record on almost every refill.
        for chunk in [1, 7, 25, 26, 27, 1024] {
            let read = read_chunked(&bytes[..], chunk).unwrap();
            assert_eq!(read, records, "chunk={chunk}");
        }
    }

    /// A reader that returns at most one byte per `read` call, exercising
    /// short reads inside a single refill.
    struct TrickleReader<'a>(&'a [u8]);
    impl std::io::Read for TrickleReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn chunked_read_tolerates_short_reads() {
        let records = some_records(50);
        let bytes = encode_all(&records);
        let read = read_chunked(TrickleReader(&bytes), 64).unwrap();
        assert_eq!(read, records);
    }

    #[test]
    fn chunked_iterator_reports_truncation_and_fuses() {
        let records = some_records(4);
        let bytes = encode_all(&records);
        let cut = &bytes[..bytes.len() - 3];
        let mut it = ChunkedRecords::with_chunk(cut, 16);
        for expected in &records[..3] {
            assert_eq!(&it.next().unwrap().unwrap(), expected);
        }
        let err = it.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn chunked_iterator_reports_unknown_tag() {
        let mut bytes = encode_all(&some_records(2)).to_vec();
        bytes.push(0xFF);
        let errs: Vec<_> = ChunkedRecords::with_chunk(&bytes[..], 8)
            .filter_map(Result::err)
            .collect();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].to_string().contains("unknown record tag"), "{}", errs[0]);
    }
}
