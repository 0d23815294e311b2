//! Streaming, format-auto-detecting log ingest.
//!
//! The offline detector should never need the whole encoded log — or the
//! whole decoded log — in memory at once. This module provides the pieces:
//!
//! * [`LogFormat`] detection from the first bytes (v1 logs start with a
//!   record tag in `1..=4`, v2 with the [`V2_MAGIC`] header);
//! * [`RecordBlocks`], a synchronous iterator of decoded record blocks
//!   over either format, strict or salvage: v2 blocks come from the
//!   reader stages of [`crate::parallel`] run inline, v1 records are
//!   re-batched into fixed-size blocks;
//! * [`RecordStream`], the same blocks pulled through a **bounded
//!   channel**, so decoding overlaps whatever the consumer does with the
//!   blocks (sync replay, shard routing, shard replay — see
//!   `literace_detector::detect_stream`). One decode thread runs
//!   [`RecordBlocks`]; two or more run the v2 stages as a worker pool.
//!
//! [`V2_MAGIC`]: crate::v2::V2_MAGIC

use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use crate::error::{count_error, LogError, LogResult};
use crate::io::ChunkedRecords;
use crate::parallel::{spawn_pool, Inline, Mode};
use crate::record::{EventLog, Record};
use crate::retry::{RetryPolicy, RetryReader};
use crate::salvage::{tally_skip, SalvageHandle, SalvageReport};
use crate::v2::{SealState, V2_MAGIC, V2_VERSION};

/// Number of records per re-batched block when streaming a v1 log.
pub const V1_BLOCK_RECORDS: usize = 4096;

/// Default bound (in blocks) of the decode channel: enough to keep the
/// decoder busy, small enough that in-flight decoded records stay bounded.
pub const DEFAULT_STREAM_DEPTH: usize = 8;

/// Upper bound on auto-sized stream depth: beyond this, extra queue slots
/// only add memory (a decoded block holds one written block's records,
/// [`DEFAULT_BLOCK_RECORDS`](crate::DEFAULT_BLOCK_RECORDS) by default),
/// never throughput.
pub const MAX_STREAM_DEPTH: usize = 64;

/// Sizes the decode→detect channel from the pipeline's thread counts.
///
/// The fixed [`DEFAULT_STREAM_DEPTH`] stalls decoders at high shard
/// counts (visible as `detector.stream.stalls`): with many consumers a
/// burst of routing work can drain or fill an 8-slot queue faster than
/// one side can react. Two slots per active thread keeps both sides busy
/// across a scheduling hiccup, clamped to
/// [`DEFAULT_STREAM_DEPTH`]`..=`[`MAX_STREAM_DEPTH`].
pub fn auto_stream_depth(decode_threads: usize, detect_threads: usize) -> usize {
    (2 * (decode_threads + detect_threads)).clamp(DEFAULT_STREAM_DEPTH, MAX_STREAM_DEPTH)
}

/// Tuning for a [`RecordStream`]: how many decode workers to run and how
/// deep the bounded handoff channels are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOpts {
    /// Decode worker threads. `1` runs the reader inline on one decoder
    /// thread; `2+` runs the v2 reader stages as an out-of-order block
    /// pool (v1 logs always decode on one thread — the fixed-width stream
    /// has no block framing to parallelize over).
    pub threads: usize,
    /// Bound, in blocks, of each handoff channel.
    pub depth: usize,
}

impl DecodeOpts {
    /// One decoder thread, default depth — the classic streaming layout.
    pub fn sequential() -> DecodeOpts {
        DecodeOpts {
            threads: 1,
            depth: DEFAULT_STREAM_DEPTH,
        }
    }

    /// `threads` decode workers with an [`auto_stream_depth`]-sized
    /// channel (no detect threads assumed; callers that know their detect
    /// fan-out should override with [`depth`](DecodeOpts::depth)).
    pub fn with_threads(threads: usize) -> DecodeOpts {
        let threads = threads.max(1);
        DecodeOpts {
            threads,
            depth: auto_stream_depth(threads, 0),
        }
    }

    /// Sizes the pool to the host's available parallelism.
    pub fn auto() -> DecodeOpts {
        DecodeOpts::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Overrides the channel depth (clamped to at least 1).
    pub fn depth(self, depth: usize) -> DecodeOpts {
        DecodeOpts {
            depth: depth.max(1),
            ..self
        }
    }
}

impl Default for DecodeOpts {
    fn default() -> DecodeOpts {
        DecodeOpts::sequential()
    }
}

/// On-disk log format revision, as the reader detects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Fixed-width tagged records, no header (the seed format, read but
    /// no longer written).
    V1,
    /// Blocked varint-delta records behind a magic+version header (the
    /// format [`LogWriterV2`](crate::LogWriterV2) writes).
    V2,
}

impl std::fmt::Display for LogFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogFormat::V1 => write!(f, "v1"),
            LogFormat::V2 => write!(f, "v2"),
        }
    }
}

/// Reads up to 5 header bytes and classifies the stream, returning the
/// format and the bytes consumed while peeking (to be replayed in front
/// of the remaining source for v1).
///
/// A source with **zero bytes** is classified as a valid, empty v1 log —
/// v1 has no header, so "no records" is a legal encoding. Every entry
/// point built on this sniff ([`read_log_auto`], [`RecordBlocks::open`],
/// [`RecordStream::spawn_with`]) therefore treats empty input as an empty log,
/// never as an error.
///
/// # Errors
///
/// Returns [`LogError::UnsupportedVersion`] for a v2 magic with an
/// unknown version byte and [`LogError::Io`] on read failure. A stream
/// that merely *starts like* the magic but diverges is treated as v1 and
/// left for the v1 decoder to judge.
pub(crate) fn sniff_format(source: &mut impl Read) -> LogResult<(LogFormat, Vec<u8>)> {
    let mut head = [0u8; 5];
    let mut filled = 0;
    while filled < head.len() {
        match source.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(LogError::Io(e)),
        }
    }
    let head = &head[..filled];
    if filled == 0 {
        // Empty input: a valid empty v1 log by definition.
        return Ok((LogFormat::V1, Vec::new()));
    }
    if filled >= 4 && head[..4] == V2_MAGIC {
        if filled < 5 {
            return Err(LogError::corrupt("v2 header truncated before version byte"));
        }
        if head[4] != V2_VERSION {
            return Err(LogError::UnsupportedVersion {
                file: "log",
                found: head[4],
                supported: V2_VERSION,
            });
        }
        Ok((LogFormat::V2, Vec::new()))
    } else {
        Ok((LogFormat::V1, head.to_vec()))
    }
}

/// A `Read` source with a replayed prefix (the bytes consumed by format
/// sniffing).
type Replayed<R> = std::io::Chain<std::io::Cursor<Vec<u8>>, R>;

enum Blocks<R: Read> {
    V1(V1Blocks<Replayed<R>>),
    V2(Inline<R>),
    /// A salvage read whose header was unreadable: nothing to read.
    Dead,
}

/// v1 records re-batched into blocks of [`V1_BLOCK_RECORDS`]. v1 has no
/// framing to resync on: a strict read ends at the first error, a salvage
/// read keeps the clean prefix (a global prefix is always sound) and
/// drops the rest.
struct V1Blocks<R> {
    records: ChunkedRecords<R>,
    mode: Mode,
    done: bool,
}

impl<R: Read> Iterator for V1Blocks<R> {
    type Item = LogResult<Vec<Record>>;

    fn next(&mut self) -> Option<LogResult<Vec<Record>>> {
        if self.done {
            return None;
        }
        let start = literace_telemetry::enabled().then(std::time::Instant::now);
        let mut block = Vec::with_capacity(V1_BLOCK_RECORDS);
        let mut error = None;
        while block.len() < V1_BLOCK_RECORDS {
            match self.records.next() {
                Some(Ok(r)) => block.push(r),
                Some(Err(e)) => {
                    error = Some(e);
                    break;
                }
                None => break,
            }
        }
        self.done = block.len() < V1_BLOCK_RECORDS;
        match &self.mode {
            Mode::Strict => {
                if let Some(start) = start {
                    let m = literace_telemetry::metrics();
                    m.log_decode_v1_records.add(block.len() as u64);
                    m.log_decode_v1_ns.add(start.elapsed().as_nanos() as u64);
                }
                if let Some(e) = error {
                    return Some(Err(e));
                }
            }
            Mode::Salvage(report) => {
                let mut r = report.lock().expect("salvage report poisoned");
                if let Some(e) = error {
                    // The failed record and everything after it go.
                    let dropped = self.records.drop_rest();
                    r.bytes_dropped += dropped;
                    r.note_error(e.to_string());
                    r.suffix_dropped = true;
                    r.sync_tainted = true;
                    tally_skip(0, 0, dropped);
                }
                if !block.is_empty() {
                    r.blocks_decoded += 1;
                    r.records_salvaged += block.len() as u64;
                }
            }
        }
        (!block.is_empty()).then_some(Ok(block))
    }
}

/// Synchronous block iterator over either log format.
///
/// Yields `LogResult<Vec<Record>>`; fuses after the first error. A
/// salvage iterator ([`open_salvage`](RecordBlocks::open_salvage)) never
/// yields `Err`.
pub struct RecordBlocks<R: Read> {
    inner: Blocks<R>,
    format: LogFormat,
    seal: Arc<Mutex<SealState>>,
}

impl<R: Read> std::fmt::Debug for RecordBlocks<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordBlocks")
            .field("format", &self.format)
            .finish_non_exhaustive()
    }
}

impl<R: Read> RecordBlocks<R> {
    /// Opens a block iterator over `source`, auto-detecting the format.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnsupportedVersion`] for an unreadable v2
    /// version and [`LogError::Io`] on read failure.
    pub fn open(source: R) -> LogResult<RecordBlocks<R>> {
        RecordBlocks::with_mode(source, Mode::Strict).inspect_err(count_error)
    }

    /// Opens a **salvage** iterator over `source`: a best-effort decode
    /// that never yields an error, skipping corrupt v2 blocks where that
    /// is provably safe and dropping the suffix where it is not. See
    /// [`crate::salvage`] for the soundness rule. Infallible: even an
    /// unreadable header just yields nothing, with the failure recorded
    /// in the report.
    pub fn open_salvage(source: R) -> (RecordBlocks<R>, SalvageHandle) {
        if literace_telemetry::enabled() {
            literace_telemetry::metrics().log_salvage_runs.add(1);
        }
        let report = Arc::new(Mutex::new(SalvageReport::default()));
        let blocks = RecordBlocks::with_mode(source, Mode::Salvage(report.clone()))
            .unwrap_or_else(|e| {
                let mut r = report.lock().expect("salvage report poisoned");
                r.note_error(e.to_string());
                r.suffix_dropped = true;
                RecordBlocks {
                    inner: Blocks::Dead,
                    format: match e {
                        LogError::UnsupportedVersion { .. } => LogFormat::V2,
                        _ => LogFormat::V1,
                    },
                    seal: Arc::default(),
                }
            });
        report.lock().expect("salvage report poisoned").format = Some(blocks.format);
        (blocks, SalvageHandle(report))
    }

    fn with_mode(mut source: R, mode: Mode) -> LogResult<RecordBlocks<R>> {
        let (format, replay) = sniff_format(&mut source)?;
        Ok(match format {
            LogFormat::V1 => RecordBlocks {
                inner: Blocks::V1(V1Blocks {
                    records: ChunkedRecords::new(std::io::Cursor::new(replay).chain(source)),
                    mode,
                    done: false,
                }),
                format,
                seal: Arc::default(),
            },
            LogFormat::V2 => {
                let reader = Inline::new(source, mode);
                RecordBlocks {
                    seal: reader.seal(),
                    inner: Blocks::V2(reader),
                    format,
                }
            }
        })
    }

    /// The detected on-disk format (best guess when a salvage read found
    /// the header unreadable).
    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// Footer state of the stream: meaningful once iteration has finished,
    /// [`SealState::Unknown`] for v1 logs (which have no footer).
    pub fn seal_state(&self) -> SealState {
        *self.seal.lock().expect("seal state poisoned")
    }
}

impl<R: Read> Iterator for RecordBlocks<R> {
    type Item = LogResult<Vec<Record>>;

    fn next(&mut self) -> Option<LogResult<Vec<Record>>> {
        match &mut self.inner {
            Blocks::V1(blocks) => blocks.next(),
            Blocks::V2(blocks) => blocks.next(),
            Blocks::Dead => None,
        }
    }
}

/// Decoded blocks pulled through a bounded channel from a decoder thread
/// (or, at two or more decode threads over a v2 log, from the worker
/// pool's in-order consumer).
///
/// Dropping the stream early stops the decoder at its next send and
/// **joins** the thread (no leak, no panic); exhausting it also joins.
/// A panic inside the decoder is contained and surfaced as a final
/// [`LogError::DecoderPanicked`] stream item instead of a hung channel.
/// Transient I/O errors (`WouldBlock`, `TimedOut`) on the underlying
/// source are retried with bounded exponential backoff (the crate's
/// default `RetryPolicy`: four retries from 200 µs).
#[derive(Debug)]
pub struct RecordStream {
    receiver: Option<Receiver<LogResult<Vec<Record>>>>,
    handle: Option<std::thread::JoinHandle<()>>,
    format: LogFormat,
    /// Footer state, shared with the thread that runs the consumer.
    seal: Arc<Mutex<SealState>>,
}

impl RecordStream {
    /// Assembles a stream from a consuming channel end and the thread that
    /// feeds it.
    pub(crate) fn from_parts(
        receiver: Receiver<LogResult<Vec<Record>>>,
        handle: std::thread::JoinHandle<()>,
        format: LogFormat,
        seal: Arc<Mutex<SealState>>,
    ) -> RecordStream {
        RecordStream {
            receiver: Some(receiver),
            handle: Some(handle),
            format,
            seal,
        }
    }

    /// Footer state of a v2 stream: meaningful once the stream is
    /// exhausted, [`SealState::Unknown`] before that and for v1 logs.
    pub fn seal_state(&self) -> SealState {
        *self.seal.lock().expect("seal state poisoned")
    }

    /// Spawns the decoder over `source` and returns the consuming end:
    /// one decoder thread at `opts.threads <= 1`, and for v2 logs at
    /// `threads >= 2` the parallel worker pool (frame scan stays
    /// sequential, payloads decode out of order, blocks are delivered
    /// strictly in order). `opts.depth` bounds each channel in blocks.
    ///
    /// # Errors
    ///
    /// Format sniffing happens synchronously, so header errors
    /// ([`LogError::UnsupportedVersion`], I/O) surface here; decode
    /// errors surface as items of the stream.
    pub fn spawn_with<R: Read + Send + 'static>(
        source: R,
        opts: DecodeOpts,
    ) -> LogResult<RecordStream> {
        let blocks = RecordBlocks::open(RetryReader::new(source, RetryPolicy::default()))?;
        spawn_blocks(blocks, opts)
    }

    /// Like [`spawn_with`](RecordStream::spawn_with), but the stream
    /// never yields `Err`: corrupt regions are skipped or dropped per the
    /// soundness rule in [`crate::salvage`], and the damage tally is
    /// available through the returned [`SalvageHandle`] (final once the
    /// stream is exhausted) — the same at every thread count.
    ///
    /// # Errors
    ///
    /// Only thread-spawn failure; corrupt headers do not error here.
    pub fn spawn_salvage_with<R: Read + Send + 'static>(
        source: R,
        opts: DecodeOpts,
    ) -> LogResult<(RecordStream, SalvageHandle)> {
        let (blocks, handle) =
            RecordBlocks::open_salvage(RetryReader::new(source, RetryPolicy::default()));
        Ok((spawn_blocks(blocks, opts)?, handle))
    }

    /// Streams a log already held whole in memory: exactly
    /// [`spawn_with`](RecordStream::spawn_with) over a cursor on `bytes`.
    /// It and [`map_or_read`] remain as perfbench's entry point (its
    /// `open_stream`); a reader with a path streams the file.
    ///
    /// # Errors
    ///
    /// Same as [`spawn_with`](RecordStream::spawn_with).
    pub fn spawn_bytes(bytes: Bytes, opts: DecodeOpts) -> LogResult<RecordStream> {
        RecordStream::spawn_with(std::io::Cursor::new(bytes), opts)
    }

    /// The detected on-disk format.
    pub fn format(&self) -> LogFormat {
        self.format
    }
}

/// Reads the whole file at `path` into one [`Bytes`] buffer for
/// [`RecordStream::spawn_bytes`]. Nothing is mapped: the name stays for
/// perfbench, its one caller. Every other reader streams the file.
///
/// # Errors
///
/// Returns [`LogError::Io`] when the file cannot be opened or read.
pub fn map_or_read(path: impl AsRef<std::path::Path>) -> LogResult<Bytes> {
    std::fs::read(path).map(Bytes::from).map_err(LogError::Io)
}

/// Runs `blocks` on one decoder thread, or a v2 reader on the decode pool
/// when `opts` asks for two or more threads.
fn spawn_blocks<R: Read + Send + 'static>(
    blocks: RecordBlocks<R>,
    opts: DecodeOpts,
) -> LogResult<RecordStream> {
    if opts.threads > 1 {
        if let Blocks::V2(reader) = blocks.inner {
            return spawn_pool(reader, opts);
        }
    }
    let (format, seal) = (blocks.format, blocks.seal.clone());
    let (sender, receiver): (SyncSender<_>, Receiver<_>) = sync_channel(opts.depth.max(1));
    let panic_sender = sender.clone();
    let handle = std::thread::Builder::new()
        .name("literace-log-decode".to_owned())
        .spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                decode_loop(blocks, sender);
            }));
            if let Err(payload) = outcome {
                let e = LogError::DecoderPanicked {
                    message: panic_message(payload.as_ref()),
                };
                count_error(&e);
                // Best effort: the consumer may already be gone.
                let _ = panic_sender.send(Err(e));
            }
        })
        .map_err(LogError::Io)?;
    Ok(RecordStream::from_parts(receiver, handle, format, seal))
}

fn decode_loop<I>(mut blocks: I, sender: SyncSender<LogResult<Vec<Record>>>)
where
    I: Iterator<Item = LogResult<Vec<Record>>>,
{
    loop {
        literace_telemetry::trace_begin("stream.decode_block");
        let block = blocks.next();
        literace_telemetry::trace_end("stream.decode_block");
        let Some(block) = block else { return };
        if !push_output(&sender, block) {
            // Consumer dropped the stream; stop decoding.
            return;
        }
    }
}

/// Sends one stream item downstream with the backpressure-stall telemetry
/// the decode thread publishes (`log.stream.{blocks,stalls,queue}`).
/// Returns `false` when the consumer is gone.
pub(crate) fn push_output(
    sender: &SyncSender<LogResult<Vec<Record>>>,
    item: LogResult<Vec<Record>>,
) -> bool {
    if literace_telemetry::enabled() {
        let m = literace_telemetry::metrics();
        m.log_stream_blocks.add(1);
        // Probe first so a full channel registers as a backpressure stall
        // before the blocking send.
        match sender.try_send(item) {
            Ok(()) => {
                m.log_stream_queue.inc(0);
                true
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => false,
            Err(std::sync::mpsc::TrySendError::Full(item)) => {
                m.log_stream_stalls.add(1);
                literace_telemetry::trace_instant("stream.send.stall");
                if sender.send(item).is_err() {
                    return false;
                }
                m.log_stream_queue.inc(0);
                true
            }
        }
    } else {
        sender.send(item).is_ok()
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl Iterator for RecordStream {
    type Item = LogResult<Vec<Record>>;

    fn next(&mut self) -> Option<LogResult<Vec<Record>>> {
        let receiver = self.receiver.as_ref()?;
        match receiver.recv() {
            Ok(item) => {
                if literace_telemetry::enabled() {
                    literace_telemetry::metrics().log_stream_queue.dec(0);
                }
                Some(item)
            }
            Err(_) => {
                // Channel closed: the decoder is done. Fuse and join.
                self.receiver = None;
                if let Some(handle) = self.handle.take() {
                    let _ = handle.join();
                }
                None
            }
        }
    }
}

impl Drop for RecordStream {
    fn drop(&mut self) {
        // Stop the decoder and reap it. Draining unparks a sender blocked
        // on a full channel; dropping the receiver makes its next send
        // fail so the thread exits, and the join guarantees no thread
        // outlives the stream.
        if let Some(receiver) = self.receiver.take() {
            while receiver.try_recv().is_ok() {}
            drop(receiver);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads an entire log of either format into an [`EventLog`].
///
/// # Errors
///
/// Returns the first decoding or I/O error.
pub fn read_log_auto(source: impl Read) -> LogResult<EventLog> {
    let mut log = EventLog::new();
    for block in RecordBlocks::open(source)? {
        log.extend(block?);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_all;
    use crate::record::SamplerMask;
    use crate::writer::encode_v2;
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
    fn auto_detects_v1() {
        let records = some_records(10);
        let bytes = encode_all(&records);
        let blocks = RecordBlocks::open(&bytes[..]).unwrap();
        assert_eq!(blocks.format(), LogFormat::V1);
        let decoded: Vec<Record> = blocks.flat_map(|b| b.unwrap()).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn auto_detects_v2() {
        let records = some_records(10_000);
        let bytes = encode_v2(&records);
        let blocks = RecordBlocks::open(&bytes[..]).unwrap();
        assert_eq!(blocks.format(), LogFormat::V2);
        let decoded: Vec<Record> = blocks.flat_map(|b| b.unwrap()).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn v1_blocks_are_bounded() {
        let records = some_records(V1_BLOCK_RECORDS + 7);
        let bytes = encode_all(&records);
        let sizes: Vec<usize> = RecordBlocks::open(&bytes[..])
            .unwrap()
            .map(|b| b.unwrap().len())
            .collect();
        assert_eq!(sizes, vec![V1_BLOCK_RECORDS, 7]);
    }

    #[test]
    fn empty_source_is_an_empty_v1_log() {
        let log = read_log_auto(std::io::empty()).unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn empty_source_is_an_empty_v1_log_via_record_blocks() {
        let mut blocks = RecordBlocks::open(std::io::empty()).unwrap();
        assert_eq!(blocks.format(), LogFormat::V1);
        assert!(blocks.next().is_none());
    }

    #[test]
    fn empty_source_is_an_empty_v1_log_via_record_stream() {
        let mut stream =
            RecordStream::spawn_with(std::io::empty(), DecodeOpts::sequential()).unwrap();
        assert_eq!(stream.format(), LogFormat::V1);
        assert!(stream.next().is_none());
    }

    #[test]
    fn short_v1_logs_survive_sniffing() {
        // 1–4 byte logs are shorter than the magic peek; the replay path
        // must hand every byte back to the v1 decoder.
        let records = vec![Record::ThreadBegin {
            tid: ThreadId::MAIN,
        }];
        let bytes = encode_all(&records);
        assert!(bytes.len() < 5 + 1);
        let log = read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log.records(), &records[..]);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = encode_v2(&some_records(3)).to_vec();
        bytes[4] = 9;
        let err = RecordBlocks::open(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, LogError::UnsupportedVersion { found: 9, .. }),
            "{err}"
        );
    }

    #[test]
    fn stream_round_trips_both_formats() {
        let records = some_records(10_000);
        for bytes in [encode_all(&records), encode_v2(&records)] {
            let owned: Vec<u8> = bytes.to_vec();
            let stream =
                RecordStream::spawn_with(std::io::Cursor::new(owned), DecodeOpts::sequential())
                    .unwrap();
            let decoded: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
            assert_eq!(decoded, records);
        }
    }

    #[test]
    fn dropping_stream_midway_does_not_hang() {
        let records = some_records(100_000);
        let bytes: Vec<u8> = encode_v2(&records).to_vec();
        let mut stream =
            RecordStream::spawn_with(std::io::Cursor::new(bytes), DecodeOpts::sequential().depth(1))
                .unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_empty());
        drop(stream); // must not deadlock on the full channel
    }

    /// A reader whose `Drop` flips a flag — the decoder thread owns the
    /// source, so the flag proves the thread (and the source with it) was
    /// reaped, not leaked.
    struct DropFlagged<R> {
        inner: R,
        dropped: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl<R: Read> Read for DropFlagged<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl<R> Drop for DropFlagged<R> {
        fn drop(&mut self) {
            self.dropped
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_stream_midway_joins_the_decoder_thread() {
        let records = some_records(100_000);
        let bytes: Vec<u8> = encode_v2(&records).to_vec();
        let dropped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let source = DropFlagged {
            inner: std::io::Cursor::new(bytes),
            dropped: dropped.clone(),
        };
        let mut stream =
            RecordStream::spawn_with(source, DecodeOpts::sequential().depth(1)).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_empty());
        drop(stream);
        // Drop joins the decoder, so by now the thread has released its
        // source. Without the join this assertion races (and the thread
        // leaks past the test).
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
    }

    /// A reader that serves a prefix, then panics — exercising panic
    /// containment in the decoder thread.
    struct PanicAfter {
        prefix: std::io::Cursor<Vec<u8>>,
    }

    impl Read for PanicAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.prefix.read(buf)?;
            if n == 0 {
                panic!("injected decoder panic");
            }
            Ok(n)
        }
    }

    #[test]
    fn decoder_panic_is_contained_as_a_typed_error() {
        let records = some_records(10_000);
        let bytes: Vec<u8> = encode_v2(&records).to_vec();
        // Serve only half the file, then panic mid-decode.
        let half = bytes.len() / 2;
        let source = PanicAfter {
            prefix: std::io::Cursor::new(bytes[..half].to_vec()),
        };
        let stream = RecordStream::spawn_with(source, DecodeOpts::sequential()).unwrap();
        let mut saw_panic = false;
        for item in stream {
            if let Err(e) = item {
                assert!(
                    matches!(e, LogError::DecoderPanicked { .. }),
                    "unexpected error: {e}"
                );
                assert!(e.to_string().contains("injected decoder panic"), "{e}");
                saw_panic = true;
            }
        }
        assert!(saw_panic, "panic was swallowed");
    }

    #[test]
    fn read_log_auto_reads_v2() {
        let records = some_records(500);
        let bytes = encode_v2(&records);
        let log = read_log_auto(&bytes[..]).unwrap();
        assert_eq!(log.records(), &records[..]);
    }

    fn scratch(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("literace-read-{}-{name}.bin", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn map_or_read_round_trips_a_log() {
        let records = some_records(5000);
        let bytes = encode_v2(&records);
        let path = scratch("roundtrip", &bytes);
        let buf = map_or_read(&path).unwrap();
        assert_eq!(&buf[..], &bytes[..]);
        let stream = RecordStream::spawn_bytes(buf, DecodeOpts::with_threads(4)).unwrap();
        let decoded: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
        assert_eq!(decoded, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn map_or_read_handles_an_empty_file() {
        let path = scratch("empty", b"");
        let buf = map_or_read(&path).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = map_or_read("/nonexistent/literace-definitely-missing").unwrap_err();
        assert!(matches!(err, LogError::Io(_)));
    }
}
