//! The v1 log writer and record decoder over `std::io`.
//!
//! The paper writes its event stream to disk and detects offline (§4.4).
//! [`LogWriter`] writes the fixed-width v1 format; [`ChunkedRecords`]
//! decodes it for the one log reader,
//! [`RecordBlocks`](crate::RecordBlocks). Both also work over in-memory
//! buffers, which is what the test suite uses.

use std::io::{Read, Write};

use bytes::BytesMut;

use crate::codec::{decode, encode, tag_len};
use crate::error::{LogError, LogResult};
use crate::record::Record;

/// Bytes a v1 read pulls from its source per refill.
const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Writes records to an underlying byte sink.
///
/// Pass a `&mut` reference if you need the writer back (readers and writers
/// are taken by value per the standard-library convention).
///
/// Records are encoded into a buffer that flushes every 48 KiB. The
/// first sink error wins: the writer keeps it, writes nothing after it
/// (not even on drop), and [`finish`](LogWriter::finish) returns it —
/// the rule of the v2 writer. A writer dropped without `finish` flushes
/// its buffer best-effort, so going out of scope early cannot silently
/// truncate the log.
#[derive(Debug)]
pub struct LogWriter<W: Write> {
    /// Taken by `finish`.
    sink: Option<W>,
    buf: BytesMut,
    records_written: u64,
    bytes_written: u64,
    /// Records already reported to telemetry (counted per flush, so the
    /// per-record path stays untouched).
    records_reported: u64,
    /// The first sink error; once set, nothing more reaches the sink.
    error: Option<LogError>,
}

impl<W: Write> LogWriter<W> {
    /// Creates a writer over `sink`.
    pub fn new(sink: W) -> LogWriter<W> {
        LogWriter {
            sink: Some(sink),
            buf: BytesMut::with_capacity(64 * 1024),
            records_written: 0,
            bytes_written: 0,
            records_reported: 0,
            error: None,
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// None are raised here: a failed sink write is kept, nothing is
    /// written after it, and [`finish`](LogWriter::finish) returns it. The
    /// `Result` matches [`LogWriterV2`](crate::LogWriterV2), so callers
    /// drive both formats alike.
    pub fn write_record(&mut self, record: &Record) -> LogResult<()> {
        self.records_written += 1;
        if self.error.is_none() {
            encode(record, &mut self.buf);
            if self.buf.len() >= 48 * 1024 {
                self.flush_buf();
            }
        }
        Ok(())
    }

    /// Writes the buffer to the sink unless an earlier write failed.
    fn flush_buf(&mut self) {
        let Some(sink) = self.sink.as_mut().filter(|_| self.error.is_none()) else {
            return;
        };
        match sink.write_all(&self.buf) {
            Ok(()) => {
                self.bytes_written += self.buf.len() as u64;
                if literace_telemetry::enabled() {
                    let m = literace_telemetry::metrics();
                    m.log_encode_v1_bytes.add(self.buf.len() as u64);
                    m.log_encode_v1_records
                        .add(self.records_written - self.records_reported);
                    self.records_reported = self.records_written;
                }
            }
            Err(e) => self.error = Some(LogError::Io(e)),
        }
        self.buf.clear();
    }

    /// Flushes buffered bytes and returns the sink.
    ///
    /// # Errors
    ///
    /// The first sink I/O error, from any earlier flush or this one.
    pub fn finish(mut self) -> LogResult<W> {
        self.flush_buf();
        let mut sink = self.sink.take().expect("the sink lives until finish");
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        sink.flush()?;
        Ok(sink)
    }

    /// Records written so far (including any after an error).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Bytes written so far, including still-buffered bytes.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written + self.buf.len() as u64
    }
}

impl<W: Write> Drop for LogWriter<W> {
    /// Best-effort flush of buffered bytes, unless a write already failed.
    /// Errors are swallowed here — call [`finish`](LogWriter::finish) to
    /// observe them.
    fn drop(&mut self) {
        self.flush_buf();
        if let Some(sink) = self.sink.as_mut().filter(|_| self.error.is_none()) {
            let _ = sink.flush();
        }
    }
}

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
        let records = some_records(10_000);
        let mut w = LogWriter::new(Vec::new());
        for r in &records {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.records_written(), 10_000);
        let bytes = w.finish().unwrap();
        let log = read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log.records(), &records[..]);
    }

    #[test]
    fn bytes_written_counts_buffered_bytes() {
        let mut w = LogWriter::new(Vec::new());
        let r = some_records(1);
        w.write_record(&r[0]).unwrap();
        assert_eq!(w.bytes_written(), crate::codec::MEM_RECORD_BYTES as u64);
    }

    #[test]
    fn writer_drop_flushes_buffered_records() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        /// A sink whose bytes outlive the writer that owns it.
        #[derive(Clone)]
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let records = some_records(100);
        let sink = SharedSink(Arc::new(Mutex::new(Vec::new())));
        {
            let mut w = LogWriter::new(sink.clone());
            for r in &records {
                w.write_record(r).unwrap();
            }
            // Dropped without finish(): 100 records fit well inside the
            // 48 KiB buffer, so nothing has reached the sink yet.
        }
        let bytes = sink.0.lock().unwrap().clone();
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
        let mut w = LogWriter::new(Vec::new());
        for r in &records {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
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
