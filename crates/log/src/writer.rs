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
//! 0 workers = the same stages inline on the caller (the default)
//! N workers = raw Vec<Record> append ─jobs(bounded)─▶ BlockEnc × N
//!             ─results─▶ BTreeMap reorder ─▶ committer thread
//! ```
//!
//! [`EncodeOpts::threads`] decides only *where* the stages run; a pool
//! takes encoding off the monitored program's hot path, which the paper
//! wants cheap:
//!
//! * At **0 workers** ([`LogWriterV2::new`]) the caller encodes each
//!   record into the open block and, every `block_records` records,
//!   seals it and commits it on the spot.
//! * At **N ≥ 1 workers** the caller only appends the record to a raw
//!   block builder. Every `block_records` records the builder is handed
//!   over a bounded channel to N encode workers, which seal blocks in
//!   any order (panics contained per block). A committer thread restores
//!   sequence order with a reorder buffer. Spent builders recycle back
//!   to the caller, so steady state reuses warm pages.
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
//! nothing more reaches the sink, and `finish` returns that error.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;

use crate::checksum::Checksum;
use crate::error::{LogError, LogResult};
use crate::record::Record;
use crate::stream::{auto_stream_depth, panic_message, V1_BLOCK_RECORDS};
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

    /// One encode worker per available core.
    pub fn auto() -> EncodeOpts {
        EncodeOpts::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
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
    /// Inline (0 workers), [`DEFAULT_BLOCK_RECORDS`] per block.
    fn default() -> EncodeOpts {
        EncodeOpts::with_threads(0)
    }
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

/// A raw block heading into the encode pool, tagged with its sequence
/// index in the stream.
struct RawBlock {
    seq: u64,
    records: Vec<Record>,
}

/// A worker's result: the sealed frame + payload, or a contained panic.
struct Sealed {
    seq: u64,
    records: u64,
    result: Result<Vec<u8>, String>,
}

/// One encode worker: pulls raw blocks and seals them through its own
/// [`BlockEnc`]. Panics are contained per block.
fn encode_worker(
    jobs: &Mutex<Receiver<RawBlock>>,
    out: &SyncSender<Sealed>,
    recycle: &SyncSender<Vec<Record>>,
    queued: &AtomicU64,
) {
    let mut enc = BlockEnc::default();
    loop {
        let idle_start = literace_telemetry::enabled().then(std::time::Instant::now);
        let job = {
            let guard = jobs.lock().expect("encode job queue poisoned");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        queued.fetch_sub(1, Ordering::AcqRel);
        if let Some(t0) = idle_start {
            literace_telemetry::metrics()
                .log_encode_worker_idle_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        let busy_start = literace_telemetry::enabled().then(std::time::Instant::now);
        literace_telemetry::trace_begin("encode.block");
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut block = Vec::new();
            for r in &job.records {
                enc.push(r);
            }
            enc.seal(&mut block);
            block
        }))
        .map_err(|payload| {
            enc = BlockEnc::default();
            panic_message(payload.as_ref())
        });
        literace_telemetry::trace_end("encode.block");
        if let Some(t0) = busy_start {
            literace_telemetry::metrics()
                .log_encode_worker_busy_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        let done = Sealed {
            seq: job.seq,
            records: job.records.len() as u64,
            result,
        };
        // Hand the spent raw buffer back to the producer for reuse.
        // Best-effort: a full return lane just drops the buffer.
        let mut spent = job.records;
        spent.clear();
        let _ = recycle.try_send(spent);
        if out.send(done).is_err() {
            return;
        }
    }
}

/// The committer thread: commits worker results in sequence order and
/// returns the committer with the number of blocks it saw.
fn commit_in_order<W: Write>(
    mut committer: Committer<W>,
    results: Receiver<Sealed>,
    inflight: &AtomicU64,
) -> (Committer<W>, u64) {
    let mut pending = BTreeMap::new();
    let mut next = 0u64;
    while let Ok(sealed) = results.recv() {
        pending.insert(sealed.seq, sealed);
        while let Some(sealed) = pending.remove(&next) {
            next += 1;
            inflight.fetch_sub(1, Ordering::AcqRel);
            match sealed.result {
                Ok(block) => committer.commit(&block, sealed.records),
                Err(message) => committer.fail(LogError::corrupt(format!(
                    "encode worker panicked: {message}"
                ))),
            }
        }
    }
    (committer, next)
}

/// The stages at 0 workers: the open block and the committer, both on
/// the caller.
#[derive(Debug)]
struct Inline<W> {
    enc: BlockEnc,
    /// The sealed block being committed (reused across blocks).
    block: Vec<u8>,
    committer: Committer<W>,
}

impl<W: Write> Inline<W> {
    /// Seals the open block (if any) and commits it.
    fn seal(&mut self) {
        if self.enc.len() > 0 {
            let records = self.enc.seal(&mut self.block);
            self.committer.commit(&self.block, records);
            self.block.clear();
        }
    }
}

/// The stages at N ≥ 1 workers: the caller's raw block builder and the
/// handles of the encode workers and the committer thread.
#[derive(Debug)]
struct Pool<W> {
    builder: Vec<Record>,
    /// Blocks handed to the workers so far.
    seq: u64,
    /// Spent raw buffers coming back from the workers.
    recycle: Receiver<Vec<Record>>,
    jobs: Option<SyncSender<RawBlock>>,
    workers: Vec<JoinHandle<()>>,
    committer: JoinHandle<(Committer<W>, u64)>,
    queued: Arc<AtomicU64>,
    inflight: Arc<AtomicU64>,
}

impl<W: Write + Send + 'static> Pool<W> {
    fn spawn(sink: W, threads: usize, block_records: usize) -> LogResult<Pool<W>> {
        let depth = auto_stream_depth(threads, 0);
        let (job_tx, job_rx) = sync_channel::<RawBlock>(depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = sync_channel::<Sealed>(depth.max(threads));
        let (recycle_tx, recycle_rx) = sync_channel::<Vec<Record>>(depth.max(threads) + 1);
        let queued = Arc::new(AtomicU64::new(0));
        let inflight = Arc::new(AtomicU64::new(0));
        let workers = (0..threads)
            .map(|i| {
                let (jobs, out) = (job_rx.clone(), res_tx.clone());
                let (recycle, queued) = (recycle_tx.clone(), queued.clone());
                std::thread::Builder::new()
                    .name(format!("literace-encode-{i}"))
                    .spawn(move || encode_worker(&jobs, &out, &recycle, &queued))
                    .map_err(LogError::Io)
            })
            .collect::<LogResult<_>>()?;
        // The committer's results loop must end when the workers do.
        drop(res_tx);
        let committer = {
            let inflight = inflight.clone();
            std::thread::Builder::new()
                .name("literace-log-commit".to_owned())
                .spawn(move || commit_in_order(Committer::new(sink), res_rx, &inflight))
                .map_err(LogError::Io)?
        };
        Ok(Pool {
            builder: Vec::with_capacity(block_records),
            seq: 0,
            recycle: recycle_rx,
            jobs: Some(job_tx),
            workers,
            committer,
            queued,
            inflight,
        })
    }
}

impl<W: Write> Pool<W> {
    /// Hands the open raw block (if any) to the encode workers.
    fn seal(&mut self, block_records: usize) {
        if self.builder.is_empty() {
            return;
        }
        let fresh = self
            .recycle
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(block_records));
        let records = std::mem::replace(&mut self.builder, fresh);
        let seq = self.seq;
        self.seq += 1;
        let queued = self.queued.fetch_add(1, Ordering::AcqRel) + 1;
        let in_flight = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.log_encode_sealed_blocks_hwm.record(queued);
            m.log_encode_blocks_inflight_hwm.record(in_flight);
        }
        if let Some(jobs) = &self.jobs {
            if jobs.send(RawBlock { seq, records }).is_err() {
                // Every worker is gone; the committer's block count
                // surfaces this from `finish`.
                self.jobs = None;
            }
        }
    }

    /// Closes the job channel, joins every pool thread and returns the
    /// committer with every block committed.
    fn join(mut self) -> LogResult<Committer<W>> {
        drop(self.jobs.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let (mut committer, committed) = self.committer.join().map_err(|payload| {
            LogError::corrupt(format!(
                "encode committer panicked: {}",
                panic_message(payload.as_ref())
            ))
        })?;
        if committed < self.seq {
            committer.fail(LogError::corrupt("encode worker dropped a block"));
        }
        Ok(committer)
    }
}

/// Where a writer's stages run.
#[derive(Debug)]
enum Stages<W> {
    Inline(Inline<W>),
    Pool(Pool<W>),
}

impl<W: Write> Stages<W> {
    /// Seals the open block, stops the pool if there is one, and returns
    /// the committer with every block committed.
    fn close(self, block_records: usize) -> LogResult<Committer<W>> {
        match self {
            Stages::Inline(mut inline) => {
                inline.seal();
                Ok(inline.committer)
            }
            Stages::Pool(mut pool) => {
                pool.seal(block_records);
                pool.join()
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
    /// A writer that encodes and commits on the caller (0 workers) with
    /// [`DEFAULT_BLOCK_RECORDS`] per block. Any sink will do.
    pub fn new(sink: W) -> LogWriterV2<W> {
        LogWriterV2::inline(sink, DEFAULT_BLOCK_RECORDS)
    }

    fn inline(sink: W, block_records: usize) -> LogWriterV2<W> {
        LogWriterV2 {
            block_records: block_records.max(1),
            records: 0,
            stages: Some(Stages::Inline(Inline {
                enc: BlockEnc::default(),
                block: Vec::new(),
                committer: Committer::new(sink),
            })),
        }
    }

    /// Appends one record, sealing a block every `block_records` records.
    ///
    /// # Errors
    ///
    /// None are raised here, at any worker count: a failed sink write is
    /// kept by the committer, which writes nothing after it, and
    /// [`finish`](LogWriterV2::finish) returns it. The `Result` matches
    /// the v1 [`LogWriter`](crate::LogWriter), so callers drive both
    /// formats alike.
    #[inline]
    pub fn write_record(&mut self, record: &Record) -> LogResult<()> {
        self.records += 1;
        match self.stages.as_mut() {
            Some(Stages::Inline(inline)) => {
                inline.enc.push(record);
                if inline.enc.len() >= self.block_records {
                    inline.seal();
                }
            }
            Some(Stages::Pool(pool)) => {
                pool.builder.push(*record);
                if pool.builder.len() >= self.block_records {
                    pool.seal(self.block_records);
                }
            }
            None => unreachable!("the stages live until finish or drop"),
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
    /// A writer running its stages where `opts` says: inline at 0
    /// workers, on an encode pool and a committer thread at N ≥ 1.
    ///
    /// # Errors
    ///
    /// Surfaces thread-spawn failures.
    pub fn with_opts(sink: W, opts: EncodeOpts) -> LogResult<LogWriterV2<W>> {
        let block_records = opts.block_records.max(1);
        if opts.threads == 0 {
            return Ok(LogWriterV2::inline(sink, block_records));
        }
        let pool = Pool::spawn(sink, opts.threads, block_records)?;
        Ok(LogWriterV2 {
            block_records,
            records: 0,
            stages: Some(Stages::Pool(pool)),
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
        let mut inline = LogWriterV2::new(Vec::new());
        for r in &records {
            inline.write_record(r).unwrap();
        }
        let inline_bytes = inline.finish().unwrap();
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

    /// A shared Vec sink so the written bytes survive the sink's drop.
    #[derive(Debug, Clone, Default)]
    struct SharedVec(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dropped_sink_flushes_blocks_but_never_seals() {
        let shared = SharedVec::default();
        let records = mixed_records(1000);
        {
            let mut sink =
                LogWriterV2::with_opts(shared.clone(), EncodeOpts::with_threads(2)).unwrap();
            for r in &records {
                sink.write_record(r).unwrap();
            }
            // dropped without finish
        }
        let bytes = shared.0.lock().unwrap().clone();
        let (salvaged, report) = read_log_salvage(&bytes[..]);
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
