//! Where instrumentation records go: any [`RecordSink`]. An
//! [`EventLog`](literace_log::EventLog) materializes them, the v2 log
//! writer emits log blocks straight to a file while the simulation runs,
//! and an `HbDetector` detects races online as they arrive.

use literace_log::LogWriterV2;
pub use literace_log::RecordSink;

/// Streams records into a v2 log as they are produced, so the simulation
/// emits encoded blocks instead of a materialized log. This is the log
/// writer itself: [`LogWriterV2::new`] encodes on the producing thread,
/// [`LogWriterV2::with_opts`] can move encoding to a worker pool, and the
/// bytes are the same either way.
pub type V2Sink<W> = LogWriterV2<W>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    use literace_log::{encode_v2, read_log_auto, Record, SamplerMask};
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
