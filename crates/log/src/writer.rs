//! The v2 log writer: one block encoder and one committer, run inline on
//! the caller or split across an encode pool, with the same bytes out.
//!
//! ```text
//! records ──▶ BlockEnc ──sealed block──▶ Committer ──▶ sink (Write)
//!             push, then seal every      sequence order; 5-byte header,
//!             block_records records:     running file checksum, footer
//!             per-thread deltas, group   at finish, first error wins,
//!             varint, checksums, frame   drop leaves the log unsealed
//!
//! 0 workers = the same stages inline on the caller
//! N workers = raw Vec<Record> append ─submit─▶ ordered stage:
//!             BlockEnc × N ─▶ Committer on the delivery thread
//! ```
//!
//! [`EncodeOpts::threads`] decides only *where* the stages run. At **0
//! workers** the caller encodes each record into the open block and
//! commits each sealed block on the spot. At **N ≥ 1 workers**, which
//! take encoding off the monitored program's hot path, the caller only
//! appends each record to a raw block builder and submits every full
//! builder to the ordered stage of `crate::ordered`. It waits while
//! `depth + threads` blocks are not yet committed, so a stalled worker
//! bounds the blocks held, not the log, and spent builders recycle back
//! to it, so steady state reuses warm pages.
//!
//! **Placement.** [`EncodeOpts::default`], which [`LogWriterV2::new`]
//! uses, is one encode worker when the host has a second CPU and inline
//! on one CPU, where a worker could only take turns with the producer.
//! One worker is enough: the producer, not the encoder, sets the pace of
//! a pooled run (DESIGN §8). If the worker cannot be spawned, `new`
//! writes inline instead.
//!
//! Blocks seal at the same record counts either way, and the delta state
//! restarts at every block, so a log's bytes are identical at every
//! worker count (pinned by `tests/pipelined_equivalence.rs`). The
//! [`Committer`] is the only code that touches the sink: it writes the
//! header with the first block, feeds every committed block to the
//! running file checksum, and writes the footer only from
//! [`finish`](LogWriterV2::finish). A dropped writer flushes its blocks
//! but withholds the footer, so the log reads back
//! [`Unsealed`](crate::SealState::Unsealed). After the first error
//! nothing more reaches the sink (the pool stops taking blocks), and
//! `finish` returns that error.

use std::io::Write;
use std::sync::mpsc::{sync_channel, Receiver};

use bytes::Bytes;

use crate::checksum::Checksum;
use crate::error::{LogError, LogResult};
use crate::ordered::{self, Stage};
use crate::record::Record;
use crate::stream::{auto_stream_depth, V1_BLOCK_RECORDS};
use crate::v2::{file_header, make_footer, BlockEnc, FRAME_BYTES};

/// Default records per block: the size of a re-batched v1 block, so a
/// decoded block of either format holds the same bounded number of
/// records between decode and detect. EXPERIMENTS.md has the
/// measurements against 8,192 and 16,384.
pub const DEFAULT_BLOCK_RECORDS: usize = V1_BLOCK_RECORDS;

/// Where a [`LogWriterV2`] runs its stages and how big its blocks are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOpts {
    /// Encode worker threads: 0 encodes and commits on the caller; N ≥ 1
    /// runs N encode workers and a committer thread.
    pub threads: usize,
    /// Records per block.
    pub block_records: usize,
}

impl EncodeOpts {
    /// `threads` encode workers (0 = inline) with the default block size.
    pub fn with_threads(threads: usize) -> EncodeOpts {
        EncodeOpts {
            threads,
            block_records: DEFAULT_BLOCK_RECORDS,
        }
    }

    /// Overrides the records-per-block seal point (clamped to at least 1).
    pub fn block_records(self, block_records: usize) -> EncodeOpts {
        EncodeOpts {
            block_records: block_records.max(1),
            ..self
        }
    }
}

impl Default for EncodeOpts {
    /// The placement rule: one encode worker when a second CPU is
    /// available, inline (0 workers) on one; [`DEFAULT_BLOCK_RECORDS`]
    /// per block.
    fn default() -> EncodeOpts {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        EncodeOpts::with_threads(default_workers(cpus))
    }
}

/// Encode workers on a host with `cpus` CPUs: one from two CPUs up, none
/// on one.
fn default_workers(cpus: usize) -> usize {
    usize::from(cpus >= 2)
}

/// Owns the sink: commits sealed blocks in sequence order and seals the
/// file. Every v2 byte a writer emits goes through here.
#[derive(Debug)]
struct Committer<W> {
    sink: W,
    header_written: bool,
    /// Running checksum over every byte after the 5-byte header,
    /// finalized into the footer.
    file_sum: Checksum,
    records: u64,
    /// The first failure; once set, nothing more reaches the sink.
    error: Option<LogError>,
}

impl<W: Write> Committer<W> {
    fn new(sink: W) -> Committer<W> {
        Committer {
            sink,
            header_written: false,
            file_sum: Checksum::new(),
            records: 0,
            error: None,
        }
    }

    /// Writes the next sealed block (frame + payload) holding `records`
    /// records, preceded by the file header if this is the first write.
    fn commit(&mut self, block: &[u8], records: u64) {
        if self.error.is_some() {
            return;
        }
        literace_telemetry::trace_begin("commit.block");
        let written = self
            .header()
            .and_then(|()| self.sink.write_all(block).map_err(LogError::Io));
        match written {
            Ok(()) => {
                self.file_sum.update(block);
                self.records += records;
            }
            Err(e) => self.error = Some(e),
        }
        literace_telemetry::trace_end("commit.block");
    }

    /// Records `e` unless an earlier error already won.
    fn fail(&mut self, e: LogError) {
        self.error.get_or_insert(e);
    }

    /// Commits the pool's next block in sequence order; `false` once the
    /// log has failed, so the pool stops taking blocks.
    fn deliver(&mut self, records: u64, block: LogResult<Vec<u8>>) -> bool {
        match block {
            Ok(block) => self.commit(&block, records),
            Err(e) => self.fail(e),
        }
        self.error.is_none()
    }

    fn header(&mut self) -> LogResult<()> {
        if !self.header_written {
            let header = file_header();
            self.sink.write_all(&header)?;
            self.header_written = true;
            if literace_telemetry::enabled() {
                literace_telemetry::metrics()
                    .log_encode_v2_bytes
                    .add(header.len() as u64);
            }
        }
        Ok(())
    }

    /// Seals the log: the header if no block carried it, the footer, a
    /// flush. Returns the first error instead if there was one.
    fn finish(mut self) -> LogResult<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.header()?;
        let footer = make_footer(self.records, self.file_sum.finish());
        self.sink.write_all(&footer)?;
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .log_encode_v2_bytes
                .add(FRAME_BYTES as u64);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// The drop rule: committed blocks are flushed but the footer is
    /// withheld, so the log reads back unsealed. A failed sink is left
    /// alone.
    fn abandon(mut self) {
        if self.error.is_none() {
            let _ = self.sink.flush();
        }
    }
}

/// Where a writer's stages run.
#[derive(Debug)]
enum Stages<W> {
    /// 0 workers: the open block and the committer, both on the caller;
    /// `block` is the sealed block being committed, reused.
    Inline {
        enc: BlockEnc,
        block: Vec<u8>,
        committer: Committer<W>,
    },
    /// N ≥ 1 workers: the caller's raw block builder, the spent builders
    /// coming back, and the ordered stage that encodes each block on a
    /// worker and commits it on the delivery thread.
    Pool {
        builder: Vec<Record>,
        recycle: Receiver<Vec<Record>>,
        stage: Stage<u64, Vec<Record>, Committer<W>>,
    },
}

impl<W: Write + Send + 'static> Stages<W> {
    /// The encode pool, or the spawn error with the sink handed back.
    fn pool(sink: W, threads: usize, block_records: usize) -> Result<Stages<W>, (LogError, W)> {
        let depth = auto_stream_depth(threads, 0);
        let (recycle_tx, recycle) = sync_channel(depth.max(threads) + 1);
        let encode = move |enc: &mut BlockEnc, _: &u64, mut records: Vec<Record>| {
            let mut block = Vec::new();
            records.iter().for_each(|r| enc.push(r));
            enc.seal(&mut block);
            // Hand the spent raw buffer back to the producer for reuse.
            // Best-effort: a full return lane just drops the buffer.
            records.clear();
            let _ = recycle_tx.try_send(records);
            Ok(block)
        };
        let (pool, committer) = (ordered::Pool::Encode, Committer::new(sink));
        let stage = Stage::spawn(pool, threads, depth, encode, committer, Committer::deliver)
            .map_err(|(e, committer)| (e, committer.sink))?;
        let builder = Vec::with_capacity(block_records);
        Ok(Stages::Pool { builder, recycle, stage })
    }
}

impl<W: Write> Stages<W> {
    /// Seals the open block, if any: commits it inline, or hands it to
    /// the encode workers, first waiting while the stage's window is full.
    fn seal(&mut self, block_records: usize) {
        match self {
            Stages::Inline { enc, block, committer } => {
                if enc.len() > 0 {
                    let records = enc.seal(block);
                    committer.commit(block, records);
                    block.clear();
                }
            }
            Stages::Pool { builder, recycle, stage } => {
                if builder.is_empty() {
                    return;
                }
                let fresh = recycle
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(block_records));
                let records = std::mem::replace(builder, fresh);
                // A halted stage hands the block back: the committer
                // already holds the error `finish` returns, or a worker
                // died and `close` reports the lost block.
                let _ = stage.submit(records.len() as u64, records);
            }
        }
    }

    /// Seals the open block, stops the pool if there is one, and returns
    /// the committer with every block committed.
    fn close(mut self, block_records: usize) -> LogResult<Committer<W>> {
        self.seal(block_records);
        match self {
            Stages::Inline { committer, .. } => Ok(committer),
            Stages::Pool { stage, .. } => {
                let (mut committer, complete) = stage.finish().map_err(|message| {
                    LogError::corrupt(format!("encode committer panicked: {message}"))
                })?;
                if !complete {
                    committer.fail(LogError::corrupt("encode worker dropped a block"));
                }
                Ok(committer)
            }
        }
    }
}

/// Writes records as a v2 log: the file header, a block every
/// `block_records` records, and a footer at [`finish`](LogWriterV2::finish).
///
/// The bytes depend only on the records and `block_records`, never on
/// the worker count. A writer dropped without `finish` flushes its
/// blocks but never seals; only `finish` reports errors.
#[derive(Debug)]
pub struct LogWriterV2<W: Write> {
    block_records: usize,
    records: u64,
    /// Taken by `finish` or drop.
    stages: Option<Stages<W>>,
}

impl<W: Write> LogWriterV2<W> {
    fn inline(sink: W, block_records: usize) -> LogWriterV2<W> {
        LogWriterV2 {
            block_records: block_records.max(1),
            records: 0,
            stages: Some(Stages::Inline {
                enc: BlockEnc::default(),
                block: Vec::new(),
                committer: Committer::new(sink),
            }),
        }
    }

    /// Appends one record, sealing a block every `block_records` records.
    ///
    /// # Errors
    ///
    /// None are raised here, at any worker count: a failed sink write is
    /// kept by the committer, which writes nothing after it, and
    /// [`finish`](LogWriterV2::finish) returns it.
    #[inline]
    pub fn write_record(&mut self, record: &Record) -> LogResult<()> {
        self.records += 1;
        let stages = self.stages.as_mut().expect("the stages live until finish or drop");
        let open = match stages {
            Stages::Inline { enc, .. } => {
                enc.push(record);
                enc.len()
            }
            Stages::Pool { builder, .. } => {
                builder.push(*record);
                builder.len()
            }
        };
        if open >= self.block_records {
            stages.seal(self.block_records);
        }
        Ok(())
    }

    /// Records written so far (including any after an error).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Seals the open block, drains the pool, writes the footer, flushes
    /// and returns the sink. A log finished here reads back as
    /// [`Sealed`](crate::SealState::Sealed).
    ///
    /// # Errors
    ///
    /// The first sink I/O error or contained encode panic, from anywhere
    /// in the writer.
    pub fn finish(mut self) -> LogResult<W> {
        let stages = self.stages.take().expect("the stages live until finish");
        stages.close(self.block_records)?.finish()
    }
}

impl<W: Write + Send + 'static> LogWriterV2<W> {
    /// A writer placed by [`EncodeOpts::default`]: one encode worker and
    /// a committer thread when a second CPU is available, inline on one.
    /// If the worker cannot be spawned, the writer runs inline; the bytes
    /// are the same either way.
    pub fn new(sink: W) -> LogWriterV2<W> {
        LogWriterV2::placed(sink, EncodeOpts::default()).unwrap_or_else(|(_, sink)| {
            LogWriterV2::inline(sink, DEFAULT_BLOCK_RECORDS)
        })
    }

    /// A writer running its stages where `opts` says: inline at 0
    /// workers, on an encode pool and a committer thread at N ≥ 1.
    ///
    /// # Errors
    ///
    /// Surfaces thread-spawn failures.
    pub fn with_opts(sink: W, opts: EncodeOpts) -> LogResult<LogWriterV2<W>> {
        LogWriterV2::placed(sink, opts).map_err(|(e, _)| e)
    }

    /// [`with_opts`](LogWriterV2::with_opts), handing the sink back with
    /// a spawn error.
    fn placed(sink: W, opts: EncodeOpts) -> Result<LogWriterV2<W>, (LogError, W)> {
        let block_records = opts.block_records.max(1);
        if opts.threads == 0 {
            return Ok(LogWriterV2::inline(sink, block_records));
        }
        Ok(LogWriterV2 {
            block_records,
            records: 0,
            stages: Some(Stages::pool(sink, opts.threads, block_records)?),
        })
    }
}

impl<W: Write> Drop for LogWriterV2<W> {
    /// Commits the open block and stops the pool, but withholds the
    /// footer: the log reads back [`Unsealed`](crate::SealState::Unsealed).
    /// Errors are swallowed here; call `finish` to observe them.
    fn drop(&mut self) {
        if let Some(stages) = self.stages.take() {
            if let Ok(committer) = stages.close(self.block_records) {
                committer.abandon();
            }
        }
    }
}

/// Serializes records as a complete, finalized v2 byte stream (header +
/// blocks + footer) with the default block size.
pub fn encode_v2<'a>(records: impl IntoIterator<Item = &'a Record>) -> Bytes {
    let mut w = LogWriterV2::new(Vec::new());
    for r in records {
        w.write_record(r).expect("Vec sink cannot fail");
    }
    Bytes::from(w.finish().expect("Vec sink cannot fail"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SamplerMask;
    use crate::salvage::read_log_salvage;
    use crate::stream::{read_log_auto, DecodeOpts, RecordStream};
    use crate::v2::{SealState, V2_MAGIC};
    use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};
    use std::sync::{Arc, Mutex};

    fn mixed_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Record::Sync {
                        tid: ThreadId::from_index(i % 4),
                        pc: Pc::new(FuncId::from_index(1), i),
                        kind: SyncOpKind::LockAcquire,
                        var: SyncVar(i as u64 % 3),
                        timestamp: i as u64,
                    }
                } else {
                    Record::Mem {
                        tid: ThreadId::from_index(i % 4),
                        pc: Pc::new(FuncId::from_index(i % 5), i),
                        addr: Addr::global((i % 13) as u64 * 8),
                        is_write: i % 2 == 0,
                        mask: SamplerMask::bit(0),
                    }
                }
            })
            .collect()
    }

    fn pipelined_bytes(records: &[Record], opts: EncodeOpts) -> Vec<u8> {
        let mut sink = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
        for r in records {
            sink.write_record(r).unwrap();
        }
        assert_eq!(sink.records_written(), records.len() as u64);
        sink.finish().unwrap()
    }

    #[test]
    fn pipelined_log_round_trips_across_threads_and_block_sizes() {
        let records = mixed_records(5000);
        for threads in [0, 1, 2, 4] {
            for block_records in [1, 3, 256, DEFAULT_BLOCK_RECORDS] {
                let bytes = pipelined_bytes(
                    &records,
                    EncodeOpts::with_threads(threads).block_records(block_records),
                );
                let log = read_log_auto(&bytes[..]).unwrap();
                assert_eq!(
                    log.records(),
                    &records[..],
                    "threads {threads} block_records {block_records}"
                );
            }
        }
    }

    #[test]
    fn pipelined_log_is_sealed_and_readable_by_every_reader() {
        let records = mixed_records(3000);
        let bytes = pipelined_bytes(&records, EncodeOpts::with_threads(4).block_records(64));
        // Strict pooled reader.
        let stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes.clone()),
            DecodeOpts::with_threads(4),
        )
        .unwrap();
        let pooled: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
        assert_eq!(pooled, records);
        // Salvage reader: a clean log salvages losslessly and is Sealed.
        let (salvaged, report) = read_log_salvage(&bytes[..]);
        assert_eq!(salvaged.records(), &records[..]);
        assert_eq!(report.seal, SealState::Sealed);
        assert_eq!(report.blocks_skipped, 0);
        assert!(!report.sync_tainted);
    }

    #[test]
    fn decoded_log_matches_the_inline_writer_record_for_record() {
        let records = mixed_records(4000);
        let inline_bytes = pipelined_bytes(&records, EncodeOpts::with_threads(0));
        let inline_log = read_log_auto(&inline_bytes[..]).unwrap();
        for threads in [1, 2, 4] {
            let bytes = pipelined_bytes(&records, EncodeOpts::with_threads(threads));
            assert_eq!(bytes, inline_bytes, "threads {threads}");
            let pipelined_log = read_log_auto(&bytes[..]).unwrap();
            assert_eq!(pipelined_log, inline_log, "threads {threads}");
        }
    }

    #[test]
    fn empty_pipelined_log_is_a_valid_sealed_v2_log() {
        let bytes = pipelined_bytes(&[], EncodeOpts::with_threads(1));
        assert_eq!(bytes.len(), V2_MAGIC.len() + 1 + FRAME_BYTES);
        let log = read_log_auto(&bytes[..]).unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn dropped_sink_flushes_blocks_but_never_seals() {
        let shared = Recording::default();
        let records = mixed_records(1000);
        {
            let mut sink =
                LogWriterV2::with_opts(shared.clone(), EncodeOpts::with_threads(2)).unwrap();
            for r in &records {
                sink.write_record(r).unwrap();
            }
            // dropped without finish
        }
        let (salvaged, report) = read_log_salvage(&shared.bytes()[..]);
        assert_eq!(salvaged.records(), &records[..], "blocks flushed on drop");
        assert_eq!(report.seal, SealState::Unsealed, "drop must not seal");
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
        let mut sink = LogWriterV2::with_opts(
            FailingWriter { ok: 64 },
            EncodeOpts::with_threads(2).block_records(16),
        )
        .unwrap();
        for r in mixed_records(10_000) {
            sink.write_record(&r).unwrap();
        }
        let err = sink.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    /// What reached a [`Recording`] sink, its byte budget, and its
    /// failed writes.
    #[derive(Debug, Default)]
    struct Tape {
        bytes: Vec<u8>,
        budget: Option<usize>,
        failures: usize,
    }

    /// A sink whose bytes survive the writer's drop. With a budget it
    /// fails every write past it, numbering its failures.
    #[derive(Debug, Clone, Default)]
    struct Recording(Arc<Mutex<Tape>>);

    impl Recording {
        fn failing_after(budget: usize) -> Recording {
            let tape = Tape { budget: Some(budget), ..Tape::default() };
            Recording(Arc::new(Mutex::new(tape)))
        }

        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().bytes.clone()
        }

        fn failures(&self) -> usize {
            self.0.lock().unwrap().failures
        }
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let Tape { bytes, budget, failures } = &mut *self.0.lock().unwrap();
            let room = budget.map_or(buf.len(), |b| b.saturating_sub(bytes.len()));
            if room == 0 {
                *failures += 1;
                return Err(std::io::Error::other(format!("disk full #{failures}")));
            }
            let n = buf.len().min(room);
            bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Writes `records` through `writer`, then finishes or drops it;
    /// returns `finish`'s error, if any.
    fn write_through(
        mut writer: LogWriterV2<Recording>,
        records: &[Record],
        finish: bool,
    ) -> Option<String> {
        for r in records {
            writer.write_record(r).unwrap();
        }
        if finish {
            writer.finish().err().map(|e| e.to_string())
        } else {
            drop(writer);
            None
        }
    }

    #[test]
    fn the_default_placement_writes_the_inline_bytes() {
        // One encode worker from two CPUs up, none on one CPU.
        assert_eq!([1, 2, 3, 64].map(default_workers), [0, 1, 1, 1]);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(EncodeOpts::default(), EncodeOpts::with_threads(default_workers(cpus)));
        assert_eq!(EncodeOpts::default().block_records, DEFAULT_BLOCK_RECORDS);

        // `new` writes what a 0-worker writer writes: sealed, dropped
        // without `finish`, and into a sink that dies mid-log.
        let records = mixed_records(3 * DEFAULT_BLOCK_RECORDS + 100);
        let inline = |sink| LogWriterV2::with_opts(sink, EncodeOpts::with_threads(0)).unwrap();
        let mut sealed_len = 0;
        for finish in [true, false] {
            let (placed, zero) = (Recording::default(), Recording::default());
            assert_eq!(write_through(LogWriterV2::new(placed.clone()), &records, finish), None);
            assert_eq!(write_through(inline(zero.clone()), &records, finish), None);
            assert!(placed.bytes() == zero.bytes(), "finish {finish}: bytes differ");
            let (salvaged, report) = read_log_salvage(&placed.bytes()[..]);
            assert_eq!(salvaged.records(), &records[..], "finish {finish}");
            let seal = if finish { SealState::Sealed } else { SealState::Unsealed };
            assert_eq!(report.seal, seal, "finish {finish}");
            sealed_len = sealed_len.max(placed.bytes().len());
        }
        // The sink dies halfway through the second of four blocks.
        let budget = sealed_len * 3 / 8;
        let (placed, zero) = (Recording::failing_after(budget), Recording::failing_after(budget));
        let placed_err = write_through(LogWriterV2::new(placed.clone()), &records, true);
        let zero_err = write_through(inline(zero.clone()), &records, true);
        assert_eq!(placed_err.as_deref(), Some("log i/o error: disk full #1"));
        assert_eq!(placed_err, zero_err);
        assert!(placed.bytes() == zero.bytes(), "bytes before the failure differ");
        assert_eq!(placed.bytes().len(), budget);
        assert_eq!((placed.failures(), zero.failures()), (1, 1), "written after the error");
    }

    #[test]
    fn fault_injected_device_death_surfaces_cleanly() {
        let sink = crate::fault::FaultySink::new(Vec::new(), Some(200), true, 7);
        let mut pipelined =
            LogWriterV2::with_opts(sink, EncodeOpts::with_threads(2).block_records(32)).unwrap();
        for r in mixed_records(5_000) {
            pipelined.write_record(&r).unwrap();
        }
        let err = pipelined.finish().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }
}
