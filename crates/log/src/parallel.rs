//! The v2 log reader: one frame walk, one decode step and one in-order
//! consumer, for strict and salvage reads at any worker count.
//!
//! ```text
//! Scanner ──Job──▶ decode_job ──Done──▶ Consumer ──▶ blocks downstream
//!  frame walk,      payload checksum,    sequence order, footer checks,
//!  payload read,    record decode        strict errors, salvage
//!  file checksum    (out of order on     skip/taint/drop rules
//!                    N pool workers)
//!
//! 0 workers = the same stages inline on one thread (`Inline`)
//! ```
//!
//! v2 blocks are independently decodable by design: each 24-byte frame
//! carries its own header checksum, record/sync counts and payload
//! checksum, and the per-thread delta state resets at every block start.
//!
//! * The [`Scanner`] walks the stream — frame headers are cheap fixed
//!   24-byte reads — validates each frame, reads the raw payload, and
//!   yields one [`Job`] per block or the [`Terminal`] event that ended the
//!   walk. Its source is any `Read`: a payload is copied once, into an
//!   owned buffer that travels with its job, so a read holds the blocks in
//!   flight and never the whole file. It reads in file order, so it keeps
//!   the running file checksum and hands it over with the footer.
//! * [`decode_job`] verifies the payload checksum and decodes the
//!   records, containing a panic as a typed error. The payload is dropped
//!   there: a decoded block travels on as its records alone.
//! * The [`Consumer`] takes the results in sequence order and owns every
//!   policy decision: the footer checks, the strict error texts and — in
//!   salvage mode — the skip/taint/drop rules of [`crate::salvage`]. It
//!   returns what to deliver; the driver delivers it.
//!
//! Two drivers run these stages. [`Inline`] runs them on the caller's
//! thread (`RecordBlocks`, and `RecordStream` at one decode thread).
//! [`spawn_pool`] runs the scanner, the workers and the consumer on
//! threads of their own, with a reorder buffer in front of the consumer
//! that a [`Window`] bounds: only the payload decode runs out of order,
//! so delivery is identical at every worker count. The consumer thread joins every other pool thread,
//! and [`RecordStream`] joins the consumer thread on drop, so no pool
//! thread outlives the stream.

use std::collections::BTreeMap;
use std::io::Read;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::checksum::Checksum;
use crate::error::{count_error, LogError, LogResult};
use crate::record::Record;
use crate::salvage::{drain_bytes, tally_skip, SalvageReport};
use crate::stream::{panic_message, push_output, DecodeOpts, LogFormat, RecordStream};
use crate::v2::{
    decode_block_with, parse_frame, read_exact_or_eof, BlockFrame, BlockState, FooterFrame, Frame,
    SealState, FRAME_BYTES,
};

/// Most a payload read allocates ahead of the bytes that arrive. A frame's
/// length is only a claim: a torn or hostile file can claim up to the
/// 1 GiB cap while holding a few bytes.
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// Reads up to `len` payload bytes from `src`, growing the buffer as the
/// bytes arrive; the result is short only at EOF (a torn final block).
fn read_payload(src: &mut impl Read, len: usize) -> LogResult<Vec<u8>> {
    let mut payload = Vec::new();
    loop {
        let start = payload.len();
        let want = (len - start).min(PAYLOAD_CHUNK);
        payload.resize(start + want, 0);
        let got = read_exact_or_eof(src, &mut payload[start..])?;
        payload.truncate(start + got);
        if got < want || payload.len() == len {
            return Ok(payload);
        }
    }
}

/// One scanned block, tagged with its sequence index in the stream.
struct Job {
    seq: u64,
    head: BlockFrame,
    payload: Vec<u8>,
}

/// A decoded job: the outcome, with the sequence index and frame header
/// the consumer orders and accounts by. It holds no payload, so a worker
/// frees each payload as soon as the block is decoded.
struct Done {
    seq: u64,
    head: BlockFrame,
    result: LogResult<Vec<Record>>,
}

/// How the frame walk ended.
enum Terminal {
    /// Clean EOF without a footer (an unsealed log).
    Eof,
    /// A verified footer frame; `file_sum` is the checksum of every block
    /// frame and payload before it, and `trailing` is what followed it
    /// (strict mode probes one byte, salvage drains and counts).
    Footer {
        foot: FooterFrame,
        file_sum: u64,
        trailing: LogResult<u64>,
    },
    /// EOF inside a frame header: `got` of 24 bytes.
    TornHeader { got: usize },
    /// An unparseable frame: block boundaries are lost. `rest` is the
    /// byte count salvage drained after it (0 in strict mode).
    BadFrame { error: LogError, rest: u64 },
    /// EOF inside a block payload: `got` of the declared bytes.
    TornPayload { head: BlockFrame, got: usize },
    /// The source itself failed.
    Io(LogError),
    /// The consumer wanted no more blocks (error delivered, sync taint or
    /// downstream gone); `drained` counts bytes salvage consumed past the
    /// abort point.
    Aborted { drained: u64 },
    /// The scanner (or pool plumbing) panicked.
    Panicked { message: String },
}

impl Terminal {
    /// Raw bytes the scanner consumed for this terminal event — the rest
    /// of a suffix that a sync-tainted block already dropped.
    fn raw_bytes(&self) -> u64 {
        match self {
            Terminal::Eof | Terminal::Io(_) | Terminal::Panicked { .. } => 0,
            Terminal::Footer { trailing, .. } => {
                FRAME_BYTES as u64 + trailing.as_ref().copied().unwrap_or(0)
            }
            Terminal::TornHeader { got } => *got as u64,
            Terminal::BadFrame { rest, .. } => FRAME_BYTES as u64 + rest,
            Terminal::TornPayload { got, .. } => (FRAME_BYTES + got) as u64,
            Terminal::Aborted { drained } => *drained,
        }
    }
}

/// The frame walk: validates frames and reads payloads, never decoding
/// one. This is the only place the v2 block stream is framed.
struct Scanner<R> {
    src: R,
    /// Sequence index of the next block.
    seq: u64,
    /// Salvage drains and counts what follows a terminal frame.
    salvage: bool,
    /// Running checksum of every block frame and payload read so far.
    file_sum: Checksum,
}

impl<R: Read> Scanner<R> {
    /// The next block, or the event that ended the walk. Not called again
    /// after a terminal.
    fn next(&mut self) -> Result<Job, Terminal> {
        let mut frame = [0u8; FRAME_BYTES];
        let got = read_exact_or_eof(&mut self.src, &mut frame).map_err(Terminal::Io)?;
        if got == 0 {
            return Err(Terminal::Eof);
        }
        if got < FRAME_BYTES {
            return Err(Terminal::TornHeader { got });
        }
        let head = match parse_frame(&frame) {
            Err(error) => {
                let rest = self.drain();
                return Err(Terminal::BadFrame { error, rest });
            }
            Ok(Frame::Footer(foot)) => {
                let trailing = if self.salvage {
                    Ok(drain_bytes(&mut self.src))
                } else {
                    read_exact_or_eof(&mut self.src, &mut [0u8; 1]).map(|n| n as u64)
                };
                let file_sum = self.file_sum.finish();
                return Err(Terminal::Footer {
                    foot,
                    file_sum,
                    trailing,
                });
            }
            Ok(Frame::Block(head)) => head,
        };
        let payload =
            read_payload(&mut self.src, head.payload_len as usize).map_err(Terminal::Io)?;
        if payload.len() < head.payload_len as usize {
            let got = payload.len();
            return Err(Terminal::TornPayload { head, got });
        }
        self.file_sum.update(&frame);
        self.file_sum.update(&payload);
        let seq = self.seq;
        self.seq += 1;
        Ok(Job { seq, head, payload })
    }

    /// Ends the walk early.
    fn abort(&mut self) -> Terminal {
        Terminal::Aborted {
            drained: self.drain(),
        }
    }

    fn drain(&mut self) -> u64 {
        if self.salvage {
            drain_bytes(&mut self.src)
        } else {
            0
        }
    }
}

/// The decode step of every driver: payload checksum, then the records,
/// with a panic contained as a typed error. Consumes the payload.
fn decode_job(state: &mut BlockState, job: Job) -> Done {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if crate::checksum::checksum(&job.payload) != job.head.payload_sum {
            return Err(LogError::corrupt("block payload checksum mismatch"));
        }
        decode_block_with(state, &job.payload, job.head.record_count)
    }))
    .unwrap_or_else(|payload| {
        Err(LogError::DecoderPanicked {
            message: panic_message(payload.as_ref()),
        })
    });
    Done {
        seq: job.seq,
        head: job.head,
        result,
    }
}

/// Publishes a block decoded in strict mode to the `log.decode.v2.*`
/// counters (salvage reads do not publish them).
fn count_decoded(done: &Done, ns: u64) {
    let m = literace_telemetry::metrics();
    m.log_decode_v2_blocks.add(1);
    m.log_decode_v2_bytes
        .add((FRAME_BYTES as u32 + done.head.payload_len) as u64);
    m.log_decode_v2_records
        .add(u64::from(done.head.record_count));
    m.log_decode_v2_ns.add(ns);
}

/// Byte accounting for a sync-tainted suffix drop in flight: everything
/// after the tainted block is counted, then tallied once at the end.
struct Taint {
    records: u64,
    block_bytes: u64,
    rest: u64,
}

/// What a read does at a fault: strict reads stop and deliver the error;
/// salvage reads record it in the shared report and keep what the rules
/// of [`crate::salvage`] allow.
pub(crate) enum Mode {
    Strict,
    Salvage(Arc<Mutex<SalvageReport>>),
}

/// The in-order consumer: every policy decision of the reader.
struct Consumer {
    mode: Mode,
    records_seen: u64,
    /// Delivery is over: an error delivered (strict) or downstream gone.
    stopped: bool,
    taint: Option<Taint>,
    /// The footer verdict, shared with the reader handle.
    seal: Arc<Mutex<SealState>>,
}

impl Consumer {
    fn new(mode: Mode) -> Consumer {
        Consumer {
            mode,
            records_seen: 0,
            stopped: false,
            taint: None,
            seal: Arc::default(),
        }
    }

    fn strict(&self) -> bool {
        matches!(self.mode, Mode::Strict)
    }

    /// No more blocks are wanted: the driver may stop the walk.
    fn halted(&self) -> bool {
        self.stopped || self.taint.is_some()
    }

    /// Downstream is gone: deliver nothing more.
    fn stop(&mut self) {
        self.stopped = true;
    }

    /// Ends delivery with `e`, the strict read's last item.
    fn fail(&mut self, e: LogError) -> LogError {
        count_error(&e);
        self.stopped = true;
        e
    }

    /// Takes the next block in sequence order and returns what to
    /// deliver downstream, if anything.
    fn accept(&mut self, done: Done) -> Option<LogResult<Vec<Record>>> {
        let Done { head, result, .. } = done;
        if let Some(t) = &mut self.taint {
            // Suffix already dropped: only the byte count matters.
            t.rest += FRAME_BYTES as u64 + u64::from(head.payload_len);
            return None;
        }
        if self.stopped {
            return None;
        }
        let block = match (result, &self.mode) {
            (Ok(block), _) => block,
            (Err(e), Mode::Strict) => return Some(Err(self.fail(e))),
            (Err(e), Mode::Salvage(report)) => {
                // A job's payload is always whole: a torn one ends the walk.
                let dropped = FRAME_BYTES as u64 + u64::from(head.payload_len);
                let records = u64::from(head.record_count);
                let mut r = report.lock().expect("salvage report poisoned");
                r.blocks_skipped += 1;
                r.records_dropped_known += records;
                r.bytes_dropped += dropped;
                r.note_error(e.to_string());
                if head.sync_count > 0 {
                    // Sync records lost: a happens-before edge between
                    // surviving accesses may be gone, so nothing after
                    // this block can be trusted not to race falsely. The
                    // tally waits until the dropped byte count is known.
                    r.sync_tainted = true;
                    r.suffix_dropped = true;
                    self.taint = Some(Taint {
                        records,
                        block_bytes: dropped,
                        rest: 0,
                    });
                } else {
                    // Memory-only block: dropping it can only hide races,
                    // never invent them. Resync at the next frame.
                    drop(r);
                    tally_skip(1, records, dropped);
                }
                return None;
            }
        };
        self.records_seen += u64::from(head.record_count);
        if let Mode::Salvage(report) = &self.mode {
            let mut r = report.lock().expect("salvage report poisoned");
            r.blocks_decoded += 1;
            r.records_salvaged += block.len() as u64;
        }
        Some(Ok(block))
    }

    /// Ends the read with the event that ended the walk; returns the
    /// error to deliver, if any (strict mode only).
    fn finish(mut self, term: Terminal) -> Option<LogError> {
        let Mode::Salvage(report) = &self.mode else {
            return self.finish_strict(term);
        };
        self.finish_salvage(report, term);
        None
    }

    fn set_seal(&self, seal: SealState) {
        *self.seal.lock().expect("seal state poisoned") = seal;
    }

    fn finish_strict(&mut self, term: Terminal) -> Option<LogError> {
        if self.stopped {
            return None;
        }
        let error = match term {
            Terminal::Aborted { .. } => return None,
            Terminal::Eof => {
                self.set_seal(SealState::Unsealed);
                return None;
            }
            Terminal::Footer {
                foot,
                file_sum,
                trailing,
            } => {
                if foot.total_records != self.records_seen {
                    LogError::corrupt(format!(
                        "footer record count mismatch: footer says {}, decoded {}",
                        foot.total_records, self.records_seen
                    ))
                } else if foot.file_sum != file_sum {
                    LogError::corrupt("footer stream checksum mismatch")
                } else {
                    match trailing {
                        Err(e) => e,
                        Ok(0) => {
                            self.set_seal(SealState::Sealed);
                            return None;
                        }
                        Ok(_) => LogError::corrupt("trailing bytes after footer"),
                    }
                }
            }
            Terminal::TornHeader { got } => LogError::corrupt(format!(
                "truncated block header: {got} of {FRAME_BYTES} bytes"
            )),
            Terminal::BadFrame { error, .. } => error,
            Terminal::TornPayload { head, got } => LogError::corrupt(format!(
                "truncated block: {got} of {} payload bytes",
                head.payload_len
            )),
            Terminal::Io(e) => e,
            Terminal::Panicked { message } => LogError::DecoderPanicked { message },
        };
        Some(self.fail(error))
    }

    fn finish_salvage(&self, report: &Mutex<SalvageReport>, term: Terminal) {
        if let Some(t) = &self.taint {
            // The dropped byte count is now complete; tally it once. The
            // seal stays unknown: the walk never reached the footer.
            let rest = t.rest + term.raw_bytes();
            report.lock().expect("salvage report poisoned").bytes_dropped += rest;
            tally_skip(1, t.records, t.block_bytes + rest);
            return;
        }
        let mut r = report.lock().expect("salvage report poisoned");
        match term {
            // An abandoned read never reaches a verdict.
            Terminal::Aborted { .. } => {}
            Terminal::Eof => {
                // The writer never finalized, but every block was intact.
                if r.seal == SealState::Unknown {
                    r.seal = SealState::Unsealed;
                }
            }
            Terminal::Footer {
                foot,
                file_sum,
                trailing,
            } => {
                // foot_sum verified in parse_frame: the writer did
                // finalize this log, whatever happened to its middle.
                let trailing = trailing.unwrap_or(0);
                r.seal = SealState::Sealed;
                if trailing > 0 {
                    r.bytes_dropped += trailing;
                    r.note_error(format!("{trailing} trailing bytes after footer"));
                    tally_skip(0, 0, trailing);
                }
                // A mismatch is expected when blocks were skipped (and
                // noted first); on an otherwise clean read it means damage
                // the block checks missed.
                let totals_match =
                    foot.total_records == self.records_seen && foot.file_sum == file_sum;
                if !totals_match && r.first_error.is_none() {
                    r.note_error(format!(
                        "footer totals mismatch: footer says {} records, decoded {}",
                        foot.total_records, self.records_seen
                    ));
                }
            }
            Terminal::TornHeader { got } => {
                // Fewer than 24 bytes cannot hold a record, so nothing
                // decodable (and no sync record) is lost.
                r.bytes_dropped += got as u64;
                r.note_error(format!(
                    "truncated block header: {got} of {FRAME_BYTES} bytes"
                ));
                r.seal = SealState::Unsealed;
                tally_skip(0, 0, got as u64);
            }
            Terminal::BadFrame { error, rest } => {
                // Framing lost: the block boundaries after this point
                // cannot be found, so the whole suffix goes.
                let dropped = FRAME_BYTES as u64 + rest;
                r.bytes_dropped += dropped;
                r.suffix_dropped = true;
                r.sync_tainted = true;
                r.note_error(error.to_string());
                tally_skip(0, 0, dropped);
            }
            Terminal::TornPayload { head, got } => {
                // Torn final block: the trusted header says how many
                // records went with it, and whether sync edges did.
                let dropped = (FRAME_BYTES + got) as u64;
                r.blocks_skipped += 1;
                r.records_dropped_known += u64::from(head.record_count);
                r.bytes_dropped += dropped;
                r.seal = SealState::Unsealed;
                if head.sync_count > 0 {
                    r.sync_tainted = true;
                }
                r.note_error(format!(
                    "truncated block: {got} of {} payload bytes",
                    head.payload_len
                ));
                tally_skip(1, u64::from(head.record_count), dropped);
            }
            Terminal::Io(e) => {
                // Whatever follows is unreachable, and it may have held
                // sync records.
                r.note_error(e.to_string());
                r.suffix_dropped = true;
                r.sync_tainted = true;
            }
            Terminal::Panicked { message } => {
                r.note_error(message);
                r.suffix_dropped = true;
                r.sync_tainted = true;
            }
        }
        self.set_seal(r.seal);
    }
}

/// The reader stages run inline on the caller's thread: the pool's
/// degenerate case at zero workers. Yields what the consumer delivers.
pub(crate) struct Inline<R> {
    scanner: Scanner<R>,
    state: BlockState,
    /// `None` once the walk has ended.
    consumer: Option<Consumer>,
}

impl<R: Read> Inline<R> {
    /// A reader over `src`, positioned at the first block frame.
    pub(crate) fn new(src: R, mode: Mode) -> Inline<R> {
        Inline {
            scanner: Scanner {
                src,
                seq: 0,
                salvage: matches!(mode, Mode::Salvage(_)),
                file_sum: Checksum::new(),
            },
            state: BlockState::default(),
            consumer: Some(Consumer::new(mode)),
        }
    }

    /// The footer verdict, filled in when the walk ends.
    pub(crate) fn seal(&self) -> Arc<Mutex<SealState>> {
        let consumer = self.consumer.as_ref().expect("the reader has not started");
        consumer.seal.clone()
    }
}

impl<R: Read> Iterator for Inline<R> {
    type Item = LogResult<Vec<Record>>;

    fn next(&mut self) -> Option<LogResult<Vec<Record>>> {
        loop {
            let consumer = self.consumer.as_mut()?;
            let step = if consumer.halted() {
                // After a sync taint this drains the rest, so the salvage
                // tally is computed by the same code the pool uses.
                Err(self.scanner.abort())
            } else {
                self.scanner.next()
            };
            match step {
                Ok(job) => {
                    let start = (consumer.strict() && literace_telemetry::enabled())
                        .then(std::time::Instant::now);
                    let done = decode_job(&mut self.state, job);
                    if let (Some(t0), true) = (start, done.result.is_ok()) {
                        count_decoded(&done, t0.elapsed().as_nanos() as u64);
                    }
                    if let Some(item) = consumer.accept(done) {
                        return Some(item);
                    }
                }
                Err(term) => return self.consumer.take()?.finish(term).map(Err),
            }
        }
    }
}

/// The pool's reorder window: blocks the scanner has issued that the
/// consumer has not yet taken in sequence order. Both pool channels are
/// bounded, but the reorder buffer in front of the consumer is not: while
/// one worker stalls on a block, the others would fill it with the rest
/// of the file. The scanner waits instead while `limit` blocks are out.
struct Window {
    /// Blocks out. A plain count, valid after every update, so a
    /// poisoned lock is recovered rather than propagated.
    out: Mutex<u64>,
    taken: Condvar,
    limit: u64,
}

impl Window {
    /// Waits until fewer than `limit` blocks are out or `abort` is set,
    /// then counts one more block out; returns the new count.
    fn admit(&self, abort: &AtomicBool) -> u64 {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        while *out >= self.limit && !abort.load(Ordering::Acquire) {
            out = self.taken.wait(out).unwrap_or_else(PoisonError::into_inner);
        }
        *out += 1;
        *out
    }

    /// The consumer took the next block in order.
    fn take(&self) {
        *self.out.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.taken.notify_one();
    }

    /// Wakes the scanner once `abort` is set by a thread that will take
    /// no more blocks (the lock orders the wake after its abort check).
    fn wake(&self) {
        let _out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        self.taken.notify_all();
    }
}

/// The pool's scanner thread: walks frames and feeds the workers until
/// the walk ends or the consumer asks it to stop.
fn scan<R: Read>(
    scanner: &mut Scanner<R>,
    jobs: &SyncSender<Job>,
    abort: &AtomicBool,
    issued: &AtomicU64,
    window: &Window,
) -> Terminal {
    literace_telemetry::trace_begin("scan");
    let term = loop {
        if abort.load(Ordering::Acquire) {
            break scanner.abort();
        }
        let job = match scanner.next() {
            Ok(job) => job,
            Err(term) => break term,
        };
        let in_flight = window.admit(abort);
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .log_decode_blocks_inflight_hwm
                .record(in_flight);
        }
        literace_telemetry::trace_counter("decode.blocks_inflight", in_flight);
        let seq = job.seq;
        if jobs.send(job).is_err() {
            // Every worker is gone (pool panic); the consumer's
            // missing-block check surfaces this.
            break Terminal::Panicked {
                message: "decode worker pool disconnected".to_owned(),
            };
        }
        issued.store(seq + 1, Ordering::Release);
    };
    literace_telemetry::trace_end("scan");
    term
}

/// One decode worker: pulls scanned blocks, decodes them and sends them
/// on. Decode panics are contained per block.
fn worker(jobs: &Mutex<Receiver<Job>>, out: &SyncSender<Done>, abort: &AtomicBool, strict: bool) {
    let mut state = BlockState::default();
    loop {
        let idle_start = literace_telemetry::enabled().then(std::time::Instant::now);
        let job = {
            let guard = jobs.lock().expect("decode job queue poisoned");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        if let Some(t0) = idle_start {
            literace_telemetry::metrics()
                .log_decode_worker_idle_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        let busy_start = literace_telemetry::enabled().then(std::time::Instant::now);
        literace_telemetry::trace_begin("decode.block");
        let done = if abort.load(Ordering::Acquire) {
            // The consumer only needs the head for byte accounting now;
            // skip the decode work.
            Done {
                seq: job.seq,
                head: job.head,
                result: Ok(Vec::new()),
            }
        } else {
            decode_job(&mut state, job)
        };
        literace_telemetry::trace_end("decode.block");
        if let Some(t0) = busy_start {
            let ns = t0.elapsed().as_nanos() as u64;
            literace_telemetry::metrics().log_decode_worker_busy_ns.add(ns);
            if strict && done.result.is_ok() {
                count_decoded(&done, ns);
            }
        }
        if out.send(done).is_err() {
            return;
        }
    }
}

/// The pool's consumer thread: restores sequence order in front of the
/// [`Consumer`] and delivers what it returns.
fn consume(
    mut consumer: Consumer,
    results: Receiver<Done>,
    terminal: Receiver<(u64, Terminal)>,
    out: SyncSender<LogResult<Vec<Record>>>,
    abort: &AtomicBool,
    window: &Window,
) {
    let mut pending: BTreeMap<u64, Done> = BTreeMap::new();
    let mut next = 0u64;
    while let Ok(done) = results.recv() {
        if done.seq != next {
            if literace_telemetry::enabled() {
                literace_telemetry::metrics()
                    .log_decode_ooo_reorder_depth
                    .record(pending.len() as u64 + 1);
            }
            literace_telemetry::trace_instant("consume.reorder");
        }
        pending.insert(done.seq, done);
        while let Some(done) = pending.remove(&next) {
            next += 1;
            window.take();
            literace_telemetry::trace_begin("consume.block");
            if let Some(item) = consumer.accept(done) {
                if !push_output(&out, item) {
                    consumer.stop();
                }
            }
            if consumer.halted() {
                abort.store(true, Ordering::Release);
            }
            literace_telemetry::trace_end("consume.block");
        }
    }
    // Workers have all exited, so the scanner is finished too and its
    // terminal is waiting (or it died before sending one).
    let (issued, term) = terminal.recv().unwrap_or((
        next,
        Terminal::Panicked {
            message: "decode scanner exited without a terminal event".to_owned(),
        },
    ));
    let term = if next < issued || !pending.is_empty() {
        // A worker died without sending its block on.
        Terminal::Panicked {
            message: "decode worker dropped a block".to_owned(),
        }
    } else {
        term
    };
    if let Some(e) = consumer.finish(term) {
        let _ = push_output(&out, Err(e));
    }
}

/// Runs an unstarted reader's stages on threads: the scanner,
/// `opts.threads` decode workers and the in-order consumer. Returns the
/// stream the consumer feeds.
pub(crate) fn spawn_pool<R: Read + Send + 'static>(
    reader: Inline<R>,
    opts: DecodeOpts,
) -> LogResult<RecordStream> {
    let Inline {
        mut scanner,
        consumer,
        ..
    } = reader;
    let consumer = consumer.expect("the pool takes an unstarted reader");
    let strict = consumer.strict();
    let seal = consumer.seal.clone();
    let threads = opts.threads;
    let depth = opts.depth.max(1);

    let (out_tx, out_rx) = sync_channel(depth);
    let (job_tx, job_rx) = sync_channel::<Job>(depth);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (res_tx, res_rx) = sync_channel::<Done>(depth.max(threads));
    let (term_tx, term_rx) = std::sync::mpsc::channel::<(u64, Terminal)>();
    let abort = Arc::new(AtomicBool::new(false));
    let window = Arc::new(Window {
        out: Mutex::new(0),
        taken: Condvar::new(),
        limit: (depth + threads) as u64,
    });

    let scanner = {
        let abort = abort.clone();
        let window = window.clone();
        std::thread::Builder::new()
            .name("literace-decode-scan".to_owned())
            .spawn(move || {
                let issued = AtomicU64::new(0);
                let term = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    scan(&mut scanner, &job_tx, &abort, &issued, &window)
                }))
                .unwrap_or_else(|payload| Terminal::Panicked {
                    message: panic_message(payload.as_ref()),
                });
                let _ = term_tx.send((issued.load(Ordering::Acquire), term));
            })
            .map_err(LogError::Io)?
    };

    let workers: Vec<_> = (0..threads)
        .map(|i| {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let abort = abort.clone();
            let window = window.clone();
            std::thread::Builder::new()
                .name(format!("literace-decode-{i}"))
                .spawn(move || {
                    let run = AssertUnwindSafe(|| worker(&job_rx, &res_tx, &abort, strict));
                    if std::panic::catch_unwind(run).is_err() {
                        // Its block never reaches the consumer, so the
                        // window would never drain: end the walk. The
                        // consumer reports the missing block.
                        abort.store(true, Ordering::Release);
                        window.wake();
                    }
                })
                .map_err(LogError::Io)
        })
        .collect::<LogResult<_>>()?;
    // The consumer's results loop must end when the workers do.
    drop(res_tx);

    let handle = std::thread::Builder::new()
        .name("literace-log-decode".to_owned())
        .spawn(move || {
            let out = out_tx.clone();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                consume(consumer, res_rx, term_rx, out, &abort, &window);
            }));
            if let Err(payload) = outcome {
                abort.store(true, Ordering::Release);
                window.wake();
                let e = LogError::DecoderPanicked {
                    message: panic_message(payload.as_ref()),
                };
                count_error(&e);
                let _ = out_tx.send(Err(e));
            }
            let _ = scanner.join();
            for w in workers {
                let _ = w.join();
            }
        })
        .map_err(LogError::Io)?;
    Ok(RecordStream::from_parts(out_rx, handle, LogFormat::V2, seal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SamplerMask;
    use crate::salvage::read_log_salvage;
    use crate::writer::{encode_v2, EncodeOpts, LogWriterV2};
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

    fn multi_block(records: &[Record]) -> Vec<u8> {
        let opts = EncodeOpts::default().block_records(48);
        let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap()
    }

    fn collect_parallel(bytes: Vec<u8>, threads: usize) -> LogResult<Vec<Record>> {
        let stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes),
            DecodeOpts::with_threads(threads),
        )?;
        let mut out = Vec::new();
        for block in stream {
            out.extend(block?);
        }
        Ok(out)
    }

    #[test]
    fn parallel_round_trips_both_revisions() {
        let records = mixed_records(5000);
        let bytes = multi_block(&records);
        for threads in [2, 4] {
            let decoded = collect_parallel(bytes.clone(), threads).unwrap();
            assert_eq!(decoded, records, "threads {threads}");
        }
    }

    #[test]
    fn parallel_bytes_source_round_trips() {
        let records = mixed_records(5000);
        let bytes: Vec<u8> = multi_block(&records);
        let stream = RecordStream::spawn_bytes(bytes.into(), DecodeOpts::with_threads(4)).unwrap();
        let decoded: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn parallel_strict_errors_match_sequential() {
        let records = mixed_records(3000);
        let clean = multi_block(&records);
        // Corruptions: truncated header, truncated payload, flipped payload
        // byte, flipped frame byte, trailing garbage after the footer.
        let mut torn_header = clean.clone();
        torn_header.truncate(5 + 7);
        let mut torn_payload = clean.clone();
        torn_payload.truncate(5 + FRAME_BYTES + 10);
        let mut bad_payload = clean.clone();
        bad_payload[5 + FRAME_BYTES + 3] ^= 0x40;
        let mut bad_frame = clean.clone();
        bad_frame[5 + 2] ^= 0xFF;
        let mut trailing = clean.clone();
        trailing.push(0xAB);
        for bytes in [torn_header, torn_payload, bad_payload, bad_frame, trailing] {
            let seq: Vec<_> = crate::RecordBlocks::open(&bytes[..]).unwrap().collect();
            let par_stream = RecordStream::spawn_with(
                std::io::Cursor::new(bytes),
                DecodeOpts::with_threads(4),
            )
            .unwrap();
            let par: Vec<_> = par_stream.collect();
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(par.iter()) {
                match (s, p) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    _ => panic!("sequential {s:?} vs parallel {p:?}"),
                }
            }
        }
    }

    fn salvage_parallel(bytes: Vec<u8>, threads: usize) -> (Vec<Record>, SalvageReport) {
        let (stream, handle) = RecordStream::spawn_salvage_with(
            std::io::Cursor::new(bytes),
            DecodeOpts::with_threads(threads),
        )
        .unwrap();
        let mut out = Vec::new();
        for block in stream {
            out.extend(block.expect("salvage streams never yield Err"));
        }
        (out, handle.report())
    }

    #[track_caller]
    fn assert_reports_match(seq: &SalvageReport, par: &SalvageReport) {
        assert_eq!(seq.format, par.format);
        assert_eq!(seq.blocks_decoded, par.blocks_decoded);
        assert_eq!(seq.blocks_skipped, par.blocks_skipped);
        assert_eq!(seq.records_salvaged, par.records_salvaged);
        assert_eq!(seq.records_dropped_known, par.records_dropped_known);
        assert_eq!(seq.bytes_dropped, par.bytes_dropped);
        assert_eq!(seq.suffix_dropped, par.suffix_dropped);
        assert_eq!(seq.sync_tainted, par.sync_tainted);
        assert_eq!(seq.seal, par.seal);
        assert_eq!(seq.first_error, par.first_error);
    }

    #[test]
    fn parallel_salvage_matches_sequential() {
        let records = mixed_records(3000);
        let clean = multi_block(&records);
        // Mem-only records so a flipped payload is a skippable block.
        let mem_only: Vec<Record> = mixed_records(3000)
            .into_iter()
            .filter(|r| matches!(r, Record::Mem { .. }))
            .collect();
        let mem_bytes = multi_block(&mem_only);
        let mut cases = vec![clean.clone()];
        let mut torn = clean.clone();
        torn.truncate(clean.len() / 2);
        cases.push(torn);
        let mut sync_taint = clean.clone();
        sync_taint[5 + FRAME_BYTES + 3] ^= 0x40;
        cases.push(sync_taint);
        let mut mem_skip = mem_bytes.clone();
        mem_skip[5 + FRAME_BYTES + 3] ^= 0x40;
        cases.push(mem_skip);
        let mut bad_frame = clean.clone();
        bad_frame[5 + 2] ^= 0xFF;
        cases.push(bad_frame);
        let mut trailing = clean;
        trailing.extend_from_slice(&[1, 2, 3]);
        cases.push(trailing);
        for (i, bytes) in cases.into_iter().enumerate() {
            let (seq_log, seq_report) = read_log_salvage(&bytes[..]);
            for threads in [2, 4] {
                let (par, par_report) = salvage_parallel(bytes.clone(), threads);
                assert_eq!(seq_log.records(), &par[..], "case {i} threads {threads}");
                assert_reports_match(&seq_report, &par_report);
            }
        }
    }

    #[test]
    fn parallel_salvage_dead_header_matches_sequential() {
        let mut bytes = encode_v2(&mixed_records(10)).to_vec();
        bytes[4] = 9; // unsupported revision
        let (_, seq_report) = read_log_salvage(&bytes[..]);
        let (par, par_report) = salvage_parallel(bytes, 4);
        assert!(par.is_empty());
        assert_reports_match(&seq_report, &par_report);
    }

    /// A source that counts the bytes it has served.
    struct Counted {
        inner: std::io::Cursor<Vec<u8>>,
        served: Arc<AtomicU64>,
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.served.fetch_add(n as u64, Ordering::SeqCst);
            Ok(n)
        }
    }

    /// A log's block frames and payloads, without header and footer.
    fn body(records: &[Record], block_records: usize) -> Vec<u8> {
        let opts = EncodeOpts::default().block_records(block_records);
        let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        bytes[5..bytes.len() - FRAME_BYTES].to_vec()
    }

    #[test]
    fn a_slow_block_holds_back_the_scan() {
        // One block that takes long to decode, then thousands of identical
        // one-record blocks (an unsealed log). While one worker decodes
        // the first, the other finishes small blocks that must wait for it
        // in the reorder buffer: without the window the scanner reads on
        // through the file.
        let slow = mixed_records(200_000);
        let small = vec![mixed_records(2)[1]; 20_000];
        let mut bytes = crate::v2::file_header().to_vec();
        bytes.extend(body(&slow, slow.len()));
        let before_small = bytes.len() as u64;
        let small_body = body(&small, 1);
        let per_block = (small_body.len() / small.len()) as u64;
        bytes.extend(&small_body);
        let served = Arc::new(AtomicU64::new(0));
        let source = Counted {
            inner: std::io::Cursor::new(bytes),
            served: served.clone(),
        };
        let opts = DecodeOpts::with_threads(2);
        let mut stream = RecordStream::spawn_with(source, opts).unwrap();
        assert_eq!(stream.next().unwrap().unwrap().len(), slow.len());
        let read_ahead = (served.load(Ordering::SeqCst) - before_small) / per_block;
        // Past the slow block the consumer has delivered at most the
        // output channel's depth plus the one it is sending, and the
        // scanner has issued at most the window past those plus the one
        // it holds.
        let bound = (opts.depth + 2 + (opts.depth + opts.threads)) as u64;
        assert!(read_ahead <= bound, "scanned {read_ahead} blocks ahead");
        drop(stream);
    }

    #[test]
    fn dropping_parallel_stream_midway_does_not_hang() {
        let records = mixed_records(50_000);
        let bytes = multi_block(&records);
        let mut stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes),
            DecodeOpts::with_threads(4).depth(1),
        )
        .unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_empty());
        drop(stream); // must stop the scanner, workers and consumer
    }

    #[test]
    fn seal_state_tracks_the_footer() {
        let records = mixed_records(2000);
        let sealed = multi_block(&records);
        let mut torn = sealed.clone();
        torn.truncate(sealed.len() - FRAME_BYTES - 3); // cut footer + tail
        for (bytes, expect_err, expect_seal) in [
            (sealed, false, SealState::Sealed),
            (torn, true, SealState::Unknown), // strict error: no verdict
        ] {
            for threads in [1, 2, 4] {
                let mut stream = RecordStream::spawn_with(
                    std::io::Cursor::new(bytes.clone()),
                    DecodeOpts::with_threads(threads),
                )
                .unwrap();
                assert_eq!(stream.seal_state(), SealState::Unknown);
                let saw_err = stream.by_ref().any(|b| b.is_err());
                assert_eq!(saw_err, expect_err, "{threads} threads");
                assert!(stream.next().is_none());
                assert_eq!(stream.seal_state(), expect_seal, "{threads} threads");
            }
        }
    }
}
