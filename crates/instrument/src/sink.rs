//! Where instrumentation records go.
//!
//! The observers in this crate historically pushed into a heap-resident
//! [`EventLog`]; the [`RecordSink`] trait makes the destination pluggable
//! so a simulation can emit compact v2 log blocks straight to a file (or
//! any `Write`) while it runs, never materializing the log. Write errors
//! cannot interrupt the simulator's observer callbacks, so the file sinks
//! keep the first error and surface it from `finish`.

use std::io::Write;

use literace_log::{EventLog, LogError, LogResult, LogWriter, LogWriterV2, Record};

/// A destination for instrumentation records.
pub trait RecordSink {
    /// Appends one record.
    fn push(&mut self, record: Record);
}

impl RecordSink for EventLog {
    fn push(&mut self, record: Record) {
        EventLog::push(self, record);
    }
}

/// Streams records into a v2 log as they are produced, so the simulation
/// emits encoded blocks instead of a materialized [`EventLog`]. This is
/// the log writer itself: [`LogWriterV2::new`] encodes on the producing
/// thread, [`LogWriterV2::with_opts`] can move encoding to a worker pool,
/// and the bytes are the same either way.
pub type V2Sink<W> = LogWriterV2<W>;

/// The v2 writer is a sink as-is: `write_record` never interrupts the
/// producer (its committer keeps the first sink error for
/// [`finish`](LogWriterV2::finish)).
impl<W: Write> RecordSink for LogWriterV2<W> {
    fn push(&mut self, record: Record) {
        let _ = self.write_record(&record);
    }
}

/// Like [`V2Sink`], but writing the fixed-width v1 format — for callers
/// that still need logs readable by pre-v2 tools.
#[derive(Debug)]
pub struct V1Sink<W: Write> {
    writer: Option<LogWriter<W>>,
    error: Option<LogError>,
    records: u64,
}

impl<W: Write> V1Sink<W> {
    /// Creates a sink writing a v1 log to `sink`.
    pub fn new(sink: W) -> V1Sink<W> {
        V1Sink {
            writer: Some(LogWriter::new(sink)),
            error: None,
            records: 0,
        }
    }

    /// Flushes and returns the underlying writer's sink.
    ///
    /// # Errors
    ///
    /// Surfaces the first error stashed by [`push`](RecordSink::push), or
    /// any error from the final flush.
    pub fn finish(mut self) -> LogResult<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.take().ok_or(LogError::WriterFinished)?.finish()
    }

    /// Records pushed so far (including any dropped after an error).
    pub fn records_written(&self) -> u64 {
        self.records
    }
}

impl<W: Write> RecordSink for V1Sink<W> {
    fn push(&mut self, record: Record) {
        self.records += 1;
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = writer.write_record(&record) {
                self.error = Some(e);
                self.writer = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_log::{encode_v2, log_to_bytes, read_log_auto, SamplerMask};
    use literace_sim::{Addr, FuncId, Pc, ThreadId};

    fn some_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(i % 5), i),
                addr: Addr::global((i % 7) as u64),
                is_write: i % 2 == 0,
                mask: SamplerMask::bit(0),
            })
            .collect()
    }

    #[test]
    fn v2_sink_emits_the_same_bytes_as_materialize_then_encode() {
        let records = some_records(5_000);
        let mut sink = V2Sink::new(Vec::new());
        for r in &records {
            sink.push(*r);
        }
        assert_eq!(sink.records_written(), 5_000);
        let direct = sink.finish().unwrap();
        assert_eq!(&direct[..], &encode_v2(&records)[..]);
    }

    #[test]
    fn v1_sink_emits_the_same_bytes_as_materialize_then_encode() {
        let records = some_records(1_000);
        let mut sink = V1Sink::new(Vec::new());
        for r in &records {
            sink.push(*r);
        }
        let direct = sink.finish().unwrap();
        let log: EventLog = records.into_iter().collect();
        assert_eq!(&direct[..], &log_to_bytes(&log)[..]);
    }

    #[test]
    fn sink_output_decodes_back() {
        let records = some_records(500);
        let mut sink = V2Sink::new(Vec::new());
        for r in &records {
            sink.push(*r);
        }
        let bytes = sink.finish().unwrap();
        let log = read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log.records(), &records[..]);
    }

    /// A writer that fails after `ok` bytes.
    #[derive(Debug)]
    struct FailingWriter {
        ok: usize,
    }
    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.ok);
            self.ok -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_surface_at_finish_not_push() {
        let mut sink = V2Sink::new(FailingWriter { ok: 16 });
        // Tiny blocks force flushes; pushes must not panic.
        for r in some_records(100_000) {
            sink.push(r);
        }
        let err = sink.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }
}
