//! The sharded detection engine: routing, shard replay and merge,
//! overlapped with whatever produces the records.
//!
//! [`detect_stream_from`] consumes *blocks* of records — decoded blocks
//! from a [`RecordStream`](literace_log::RecordStream) whose decoder is
//! still running, or borrowed chunks of an in-memory
//! [`EventLog`](literace_log::EventLog) — and never materializes more than
//! it is handed. A router on the calling thread runs the replay stage's
//! one step (see [`hb`](crate::hb)) over every record, routes each access
//! to its shard's bounded channel (see [`sharded`](crate::sharded) for the
//! partition and the shard stage, and `crate::report` for the merge), and
//! the shard workers replay concurrently with the routing and the decode.
//! Peak memory is bounded by the channel depths, not the log size, and the
//! shard count by [`MAX_SHARDS`](crate::sharded::MAX_SHARDS). At one shard
//! the engine is an [`HbDetector`] run inline on the calling thread.
//!
//! **Eager clock freezing.** Workers start before the log is fully read,
//! so an access carries its clock with it: the first time a thread's
//! clock is referenced at its current generation (an access stamp or a
//! compaction pin), the value is cloned once into an `Arc<VectorClock>`,
//! and that `Arc` is shared until the generation moves. Clocks change only
//! at sync operations, and every change bumps the generation (see
//! [`clocks`](crate::clocks)), so each access sees exactly the clock the
//! inline detector would. Per access this costs one atomic refcount bump
//! instead of a clock clone.
//!
//! Positions are carried as `u64` and a compaction point is its own
//! stream item, so the engine has no log-length ceiling. A seal point
//! (see [`detect_stream_checkpointed`]) is one too.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;

use literace_log::{LogResult, Record};
use literace_sim::{Addr, Pc, ThreadId};

use crate::checkpoint::Checkpoint;
use crate::clocks::ClockState;
use crate::hb::{Downstream, HbConfig, HbDetector, Replay};
use crate::report::{merge, report, PairMap, RaceReport};
use crate::sharded::{shard_of, DetectConfig, Shard, ShardState};
use crate::vector_clock::VectorClock;

/// Stream items buffered per shard before a batch is sent. Large enough
/// to amortize channel synchronization, small enough that in-flight
/// batches stay a rounding error next to the frontier state.
const BATCH_RECORDS: usize = 4096;

/// Bound (in messages) of each shard channel. With the batch the router is
/// filling and the one the worker is replaying, a shard holds at most six
/// `BATCH_RECORDS`-sized batches: about 1 MB of 48-byte events.
const CHANNEL_DEPTH: usize = 4;

/// One routed access, self-contained: the clock is resolved at routing
/// time (an `Arc` share of the eager freeze), not looked up by the worker.
struct StreamEvent {
    /// Global record index: a pair's first occurrence keeps it, so the
    /// merge can take the earliest example address.
    pos: u64,
    tid: ThreadId,
    is_write: bool,
    pc: Pc,
    addr: Addr,
    clock: Arc<VectorClock>,
    /// The thread's clock generation at routing time: the frontier memo
    /// token (see [`clocks`](crate::clocks)). The `Arc`'s address would
    /// be unsound there, as a recycled allocation could alias a dead
    /// generation.
    generation: u64,
}

/// One entry of a shard's stream, which flows to the worker in batches.
enum ShardItem {
    /// An owned access.
    Access(StreamEvent),
    /// A frontier-compaction point with the live-clock set at that moment.
    /// Broadcast into every shard's stream in order with the accesses, so
    /// reclamation happens at the inline detector's stream positions.
    /// Carried in-band, so a thread exit costs no channel message of its
    /// own.
    Compact(Arc<[Arc<VectorClock>]>),
    /// A seal point: the shard answers on the sender with its index and
    /// its state after every item before this one. Every reply sender
    /// travels inside a `Seal`, so a shard that dies first drops its own
    /// and the router's wait ends.
    Seal(Sender<(usize, ShardState)>),
}

/// The shared snapshots behind eager freezing: per thread, the
/// generation a snapshot was taken at and the snapshot itself.
#[derive(Default)]
struct Pinned(Vec<Option<(u64, Arc<VectorClock>)>>);

impl Pinned {
    /// Thread `i`'s present clock as a shared snapshot, with its
    /// generation. Clones the clock at most once per generation.
    fn pin(&mut self, clocks: &ClockState, i: usize) -> (Arc<VectorClock>, u64) {
        let thread = clocks.thread(i);
        let generation = thread.generation;
        if self.0.len() <= i {
            self.0.resize(i + 1, None);
        }
        match &self.0[i] {
            Some((g, clock)) if *g == generation => (clock.clone(), generation),
            _ => {
                let clock = Arc::new(thread.clock.clone());
                self.0[i] = Some((generation, clock.clone()));
                (clock, generation)
            }
        }
    }
}

/// The routing half of the engine, downstream of the replay stage:
/// stamps and batches accesses, and broadcasts compaction points. Owns the
/// shard senders; dropping it closes every channel.
struct Router {
    shards: usize,
    pinned: Pinned,
    buffers: Vec<Vec<ShardItem>>,
    senders: Vec<SyncSender<Vec<ShardItem>>>,
}

impl Router {
    fn new(senders: Vec<SyncSender<Vec<ShardItem>>>) -> Router {
        Router {
            shards: senders.len(),
            pinned: Pinned::default(),
            buffers: (0..senders.len())
                .map(|_| Vec::with_capacity(BATCH_RECORDS))
                .collect(),
            senders,
        }
    }

    fn push(&mut self, shard: usize, item: ShardItem) {
        self.buffers[shard].push(item);
        if self.buffers[shard].len() >= BATCH_RECORDS {
            self.flush(shard);
        }
    }

    fn flush(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        let batch = std::mem::replace(
            &mut self.buffers[shard],
            Vec::with_capacity(BATCH_RECORDS),
        );
        if literace_telemetry::enabled() {
            let accesses = batch
                .iter()
                .filter(|item| matches!(item, ShardItem::Access(_)))
                .count() as u64;
            literace_telemetry::metrics()
                .detector_shard_events
                .add(shard, accesses);
        }
        send_batch(&self.senders[shard], shard, batch);
    }

    /// Flushes whatever is still buffered; call once at end of input.
    fn finish(mut self) {
        for shard in 0..self.shards {
            self.flush(shard);
        }
        // Dropping `self` drops the senders, closing every channel.
    }
}

impl Downstream for Router {
    #[inline]
    fn on_access(
        &mut self,
        clocks: &ClockState,
        pos: u64,
        tid: ThreadId,
        pc: Pc,
        addr: Addr,
        is_write: bool,
    ) {
        let (clock, generation) = self.pinned.pin(clocks, tid.index());
        let event = StreamEvent {
            pos,
            tid,
            is_write,
            pc,
            addr,
            clock,
            generation,
        };
        self.push(shard_of(addr, self.shards), ShardItem::Access(event));
    }

    /// Appends a compaction point pinning the live-clock set to every
    /// shard's stream — the same bound, at the same stream position, as
    /// the inline detector's compaction.
    fn on_compact(&mut self, clocks: &ClockState) {
        let live: Arc<[Arc<VectorClock>]> = clocks
            .live()
            .map(|i| self.pinned.pin(clocks, i).0)
            .collect();
        for shard in 0..self.shards {
            self.push(shard, ShardItem::Compact(live.clone()));
        }
    }

    /// Sends every shard its buffered items with a `Seal` behind them,
    /// each holding a clone of one fresh reply sender, drops the original,
    /// and collects the answers in shard order.
    fn seal(&mut self) -> Option<Vec<ShardState>> {
        let (reply, replies) = channel();
        for shard in 0..self.shards {
            self.push(shard, ShardItem::Seal(reply.clone()));
            self.flush(shard);
        }
        drop(reply);
        let mut states: Vec<Option<ShardState>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            let (index, state) = replies.recv().ok()?;
            states[index] = Some(state);
        }
        states.into_iter().collect()
    }
}

/// Sends one batch to a shard channel, accounting backpressure: a full
/// channel counts as a stall before the blocking send, and a delivered
/// batch raises the shard's queue-occupancy gauge (the matching decrement
/// is in [`run_stream_shard`]). A send fails only if the worker panicked;
/// the panic resurfaces at join, so losing the batch is moot.
fn send_batch(sender: &SyncSender<Vec<ShardItem>>, shard: usize, batch: Vec<ShardItem>) {
    if !literace_telemetry::enabled() {
        let _ = sender.send(batch);
        return;
    }
    let m = literace_telemetry::metrics();
    let delivered = match sender.try_send(batch) {
        Ok(()) => true,
        Err(std::sync::mpsc::TrySendError::Disconnected(_)) => false,
        Err(std::sync::mpsc::TrySendError::Full(batch)) => {
            m.detector_stream_stalls.add(1);
            literace_telemetry::trace_instant("shard.send.stall");
            sender.send(batch).is_ok()
        }
    };
    if delivered {
        m.detector_shard_queue.inc(shard);
    }
}

/// One shard worker: drains its channel, replaying batches against its
/// shard stage. Pure frontier work — no sync replay, no clock mutation,
/// no cloning.
fn run_stream_shard(index: usize, rx: Receiver<Vec<ShardItem>>, mut shard: Shard) -> PairMap {
    let _span = literace_telemetry::metrics().phase_shard_replay.span();
    loop {
        let idle = literace_telemetry::enabled().then(std::time::Instant::now);
        let batch = match rx.recv() {
            Ok(batch) => batch,
            Err(_) => break,
        };
        let busy = idle.map(|idle| {
            let now = std::time::Instant::now();
            literace_telemetry::metrics()
                .detector_worker_idle_ns
                .add((now - idle).as_nanos() as u64);
            now
        });
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .detector_shard_queue
                .dec(index);
        }
        literace_telemetry::trace_begin("shard.batch");
        for item in &batch {
            match item {
                ShardItem::Access(ev) => shard.access(
                    ev.pos,
                    ev.tid,
                    ev.pc,
                    ev.addr,
                    ev.is_write,
                    &ev.clock,
                    ev.generation,
                ),
                ShardItem::Compact(clocks) => {
                    literace_telemetry::trace_instant("shard.compact");
                    let live: Vec<&VectorClock> = clocks.iter().map(Arc::as_ref).collect();
                    shard.compact(&live);
                }
                ShardItem::Seal(reply) => {
                    // Fails only if the router is gone, which makes the
                    // answer moot.
                    let _ = reply.send((index, shard.state()));
                }
            }
        }
        literace_telemetry::trace_end("shard.batch");
        if let Some(busy) = busy {
            literace_telemetry::metrics()
                .detector_worker_busy_ns
                .add(busy.elapsed().as_nanos() as u64);
        }
    }
    shard.finish()
}

/// Detects races from a stream of record blocks without materializing an
/// event log, producing a report byte-identical to the inline
/// [`detect`](crate::detect): [`detect_stream_from`] without a checkpoint.
///
/// # Errors
///
/// Returns the first decode/I-O error the stream yields. Shard workers
/// are joined (and their partial work discarded) before the error is
/// returned, so no threads leak.
///
/// # Examples
///
/// ```
/// use literace_detector::{detect, detect_stream, DetectConfig};
/// use literace_log::{encode_v2, DecodeOpts, EventLog, RecordStream};
///
/// let log = EventLog::new();
/// let bytes = encode_v2(log.records()).to_vec();
/// let stream = RecordStream::spawn_with(std::io::Cursor::new(bytes), DecodeOpts::sequential())?;
/// let report = detect_stream(stream, 0, &DetectConfig::with_threads(4))?;
/// assert_eq!(report, detect(&log, 0));
/// # Ok::<(), literace_log::LogError>(())
/// ```
pub fn detect_stream<I>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<Vec<Record>>>,
{
    detect_stream_from(blocks, non_stack_accesses, cfg, None)
}

/// The detection engine: detects races over `blocks`, optionally resuming
/// from a [`Checkpoint`], with a report byte-identical to one-shot
/// [`detect`](crate::detect) over the whole stream.
///
/// `blocks` is any iterator of record blocks — most usefully a
/// [`RecordStream`](literace_log::RecordStream), in which case decoding,
/// routing, and shard replay all overlap, or borrowed slices of an
/// in-memory log. With `cfg.threads <= 1` the engine is one shard, run
/// inline: the records feed an [`HbDetector`] on the calling thread.
/// Otherwise `cfg.threads` shard workers (at most 64, `MAX_SHARDS`)
/// replay the accesses they own.
///
/// With `resume`, `blocks` must carry the records *after* the
/// checkpointed position. The replay stage restarts from the checkpoint's
/// state, each shard's frontier is seeded with the checkpoint locations
/// it owns, and the checkpoint's pairs are carried as a prefix into the
/// merge, at any shard count. The happens-before tuning then comes from
/// the checkpoint; `cfg` contributes only the worker count.
///
/// # Errors
///
/// As [`detect_stream`]: the first decode/I-O error the stream yields.
pub fn detect_stream_from<I, B>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
    resume: Option<&Checkpoint>,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]>,
{
    engine(blocks, non_stack_accesses, cfg, resume, None)
}

/// [`detect_stream_from`] with periodic checkpointing: every
/// `checkpoint_every_blocks` input blocks the detector's full state is
/// sealed into a [`Checkpoint`] and handed to `on_checkpoint` (which
/// typically writes it via [`Checkpoint::write_to`]). Once the stream
/// drains, the final state is sealed and emitted too (unless a periodic
/// save already landed exactly at the end), so the caller always holds a
/// checkpoint covering everything processed — resume it against records
/// appended later for incremental detection. Pass `resume` to continue
/// from a previously saved checkpoint; pass `0` to checkpoint only at
/// end of stream.
///
/// Seals run at any `cfg.threads`: at N shards the router flushes every
/// shard's stream with an in-band seal behind it and assembles one
/// checkpoint from its replay state and the shards' answers. While no
/// pair reaches `max_dynamic_per_pair` distinct addresses, every shard
/// count seals the same bytes; past that cap the retained address subset
/// may differ, and every checkpoint still resumes to the one-shot report.
///
/// # Errors
///
/// The first decode/I-O error the stream yields, or the error returned by
/// `on_checkpoint`; at N shards, after every worker is joined.
pub fn detect_stream_checkpointed<I, B, F>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
    resume: Option<&Checkpoint>,
    checkpoint_every_blocks: u64,
    mut on_checkpoint: F,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]>,
    F: FnMut(&Checkpoint) -> std::io::Result<()>,
{
    let seal = Seal {
        every_blocks: checkpoint_every_blocks,
        on_checkpoint: &mut on_checkpoint,
    };
    engine(blocks, non_stack_accesses, cfg, resume, Some(seal))
}

/// Where the engine hands its checkpoints, and how often it seals one.
struct Seal<'a> {
    every_blocks: u64,
    on_checkpoint: &'a mut dyn FnMut(&Checkpoint) -> std::io::Result<()>,
}

impl Seal<'_> {
    /// Seals the state behind `replay` and `down` into one checkpoint and
    /// hands it on.
    fn emit<D: Downstream>(
        &mut self,
        replay: &Replay,
        down: &mut D,
        hb: HbConfig,
        non_stack_accesses: u64,
    ) -> LogResult<()> {
        let shards = down
            .seal()
            .ok_or_else(|| std::io::Error::other("a shard worker died before sealing"))?;
        let checkpoint = Checkpoint::assemble(replay, hb, shards, non_stack_accesses);
        (self.on_checkpoint)(&checkpoint)?;
        Ok(())
    }
}

/// The engine body, at every shard count and with or without seals: one
/// inline shard, or N shard workers behind the router.
fn engine<I, B>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
    resume: Option<&Checkpoint>,
    seal: Option<Seal<'_>>,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]>,
{
    let hb = resume.map_or(cfg.hb, |cp| cp.cfg);
    let shards = cfg.shards();
    if shards == 1 {
        let mut detector = HbDetector::start(hb, resume);
        let HbDetector { replay, shard } = &mut detector;
        drive(blocks, replay, shard, seal, hb, non_stack_accesses)?;
        return Ok(detector.finish(non_stack_accesses));
    }

    std::thread::scope(|s| {
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for (index, shard) in Shard::seeded(shards, hb, resume).into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Vec<ShardItem>>(CHANNEL_DEPTH);
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("literace-shard-{index}"))
                    .spawn_scoped(s, move || run_stream_shard(index, rx, shard))
                    .expect("spawning shard worker"),
            );
        }

        let mut replay = Replay::resume(resume);
        let mut router = Router::new(senders);
        let driven = drive(
            blocks,
            &mut replay,
            &mut router,
            seal,
            hb,
            non_stack_accesses,
        );
        router.finish();

        let parts: Vec<PairMap> = handles
            .into_iter()
            .map(|h| h.join().expect("stream shard worker panicked"))
            .collect();
        driven?;
        let _span = literace_telemetry::metrics().phase_merge.span();
        Ok(report(
            merge(parts, hb.max_dynamic_per_pair),
            non_stack_accesses,
        ))
    })
}

/// Replays every block into `down`, counting its records into
/// `detector.records.routed`, sealing every `seal.every_blocks` blocks
/// and once more at end of stream, unless a periodic seal just landed
/// there. Stops at the first stream or seal error.
fn drive<I, B, D>(
    blocks: I,
    replay: &mut Replay,
    down: &mut D,
    mut seal: Option<Seal<'_>>,
    hb: HbConfig,
    non_stack_accesses: u64,
) -> LogResult<()>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]>,
    D: Downstream,
{
    let mut blocks_seen = 0u64;
    let mut sealed_at = None;
    for block in blocks {
        let block = block?;
        for record in block.as_ref() {
            replay.step(record, down);
        }
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .detector_records_routed
                .add(block.as_ref().len() as u64);
        }
        blocks_seen += 1;
        if let Some(seal) = seal.as_mut() {
            if seal.every_blocks > 0 && blocks_seen.is_multiple_of(seal.every_blocks) {
                seal.emit(replay, down, hb, non_stack_accesses)?;
                sealed_at = Some(blocks_seen);
            }
        }
    }
    match seal {
        Some(mut seal) if sealed_at != Some(blocks_seen) => {
            seal.emit(replay, down, hb, non_stack_accesses)
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mem, sync, t};
    use crate::{detect, detect_sharded};
    use literace_log::{encode_v2, DecodeOpts, EventLog, RecordStream};
    use literace_sim::{SyncOpKind, SyncVar};

    /// Races on many addresses plus lock edges and a thread retirement,
    /// so shards, HB edges, and compaction all get exercised.
    fn mixed_log() -> EventLog {
        let mut records = Vec::new();
        records.push(Record::ThreadBegin { tid: t(2) });
        for round in 0..50u64 {
            for addr in 0..16u64 {
                records.push(mem(t(0), 1 + addr as usize, addr, true));
                records.push(mem(t(1), 100 + addr as usize, addr, round % 3 == 0));
                records.push(mem(t(2), 200 + addr as usize, addr + 100, true));
            }
            records.push(sync(t(0), SyncOpKind::LockRelease, 7, 2 * round + 1));
            records.push(sync(t(1), SyncOpKind::LockAcquire, 7, 2 * round + 2));
        }
        records.push(Record::ThreadEnd { tid: t(2) });
        for addr in 0..16u64 {
            records.push(mem(t(0), 300 + addr as usize, addr + 100, true));
        }
        records.into_iter().collect()
    }

    fn blocks_of(log: &EventLog, block: usize) -> Vec<LogResult<Vec<Record>>> {
        log.records()
            .chunks(block.max(1))
            .map(|c| Ok(c.to_vec()))
            .collect()
    }

    #[test]
    fn empty_stream_matches_sequential() {
        for threads in [1, 2, 4, 8] {
            let cfg = DetectConfig::with_threads(threads);
            let report = detect_stream(Vec::new(), 5, &cfg).unwrap();
            assert_eq!(report, detect(&EventLog::new(), 5));
        }
    }

    #[test]
    fn streamed_blocks_are_byte_identical_across_thread_counts() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        assert!(seq.static_count() > 0, "log should race");
        // 70 000 exceeds MAX_SHARDS: clamped, not one OS thread each.
        for threads in [1, 2, 3, 4, 8, 70_000] {
            for block in [1, 7, 4096] {
                let cfg = DetectConfig::with_threads(threads);
                let report = detect_stream(blocks_of(&log, block), 1000, &cfg).unwrap();
                assert_eq!(report, seq, "threads={threads} block={block}");
            }
        }
    }

    #[test]
    fn streamed_matches_sharded_with_caps() {
        let log = mixed_log();
        for cap in [0, 3] {
            let hb = crate::HbConfig {
                max_dynamic_per_pair: cap,
                ..crate::HbConfig::default()
            };
            let cfg = DetectConfig { threads: 4, hb };
            let streamed = detect_stream(blocks_of(&log, 512), 9, &cfg).unwrap();
            assert_eq!(streamed, detect_sharded(&log, 9, &cfg), "cap={cap}");
        }
    }

    #[test]
    fn consumes_a_record_stream_end_to_end() {
        let log = mixed_log();
        let bytes = encode_v2(log.records()).to_vec();
        let stream =
            RecordStream::spawn_with(std::io::Cursor::new(bytes), DecodeOpts::sequential())
                .unwrap();
        let cfg = DetectConfig::with_threads(4);
        let report = detect_stream(stream, 77, &cfg).unwrap();
        assert_eq!(report, detect(&log, 77));
    }

    #[test]
    fn decode_error_propagates_and_joins_workers() {
        let log = mixed_log();
        let mut bytes = encode_v2(log.records()).to_vec();
        bytes.truncate(bytes.len() / 2); // mid-block truncation
        let stream =
            RecordStream::spawn_with(std::io::Cursor::new(bytes), DecodeOpts::sequential())
                .unwrap();
        let cfg = DetectConfig::with_threads(4);
        let err = detect_stream(stream, 0, &cfg).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn resumed_stream_matches_one_shot_at_any_shard_count() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        let records = log.records();
        for split in [0, 1, records.len() / 2, records.len()] {
            let mut first = HbDetector::new();
            for r in &records[..split] {
                first.process(r);
            }
            let cp = first.save_checkpoint(1000);
            for threads in [1, 2, 4, 8] {
                let cfg = DetectConfig::with_threads(threads);
                let suffix: Vec<LogResult<Vec<Record>>> = records[split..]
                    .chunks(64)
                    .map(|c| Ok(c.to_vec()))
                    .collect();
                let report = detect_stream_from(suffix, 1000, &cfg, Some(&cp)).unwrap();
                assert_eq!(report, seq, "split={split} threads={threads}");
            }
        }
    }

    #[test]
    fn checkpointed_driver_emits_resumable_checkpoints() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        // Every shard count seals the same checkpoints, byte for byte.
        let mut one_shard: Vec<(u64, Checkpoint)> = Vec::new();
        for threads in [1, 2, 4, 8] {
            let mut saved: Vec<(u64, Checkpoint)> = Vec::new();
            let report = detect_stream_checkpointed(
                blocks_of(&log, 100),
                1000,
                &DetectConfig::with_threads(threads),
                None,
                2,
                |cp| {
                    saved.push((cp.records_processed(), cp.clone()));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(report, seq, "checkpointing must not perturb detection");
            assert!(saved.len() > 1, "every-2-blocks must have fired");
            if threads == 1 {
                one_shard = saved;
                continue;
            }
            assert_eq!(saved.len(), one_shard.len(), "threads={threads}");
            for ((at, cp), (one_at, one)) in saved.iter().zip(&one_shard) {
                assert_eq!(at, one_at, "threads={threads}");
                assert_eq!(cp.to_bytes(), one.to_bytes(), "threads={threads} at {at}");
            }
        }
        // Every emitted checkpoint resumes to the one-shot report, on the
        // sequential core and at 2 and 4 shards alike, from one whole
        // block or from 64-record blocks.
        for (processed, cp) in &one_shard {
            let rest = &log.records()[*processed as usize..];
            for threads in [1, 2, 4] {
                let cfg = DetectConfig::with_threads(threads);
                assert_eq!(
                    detect_stream_from([Ok(rest)], 1000, &cfg, Some(cp)).unwrap(),
                    seq
                );
                let blocks = rest.chunks(64).map(Ok);
                assert_eq!(
                    detect_stream_from(blocks, 1000, &cfg, Some(cp)).unwrap(),
                    seq
                );
            }
        }
        // A round-trip through bytes resumes identically (the CLI path).
        let (processed, cp) = &one_shard[one_shard.len() / 2];
        let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        let rest = &log.records()[*processed as usize..];
        let cfg = DetectConfig::default();
        assert_eq!(
            detect_stream_from([Ok(rest)], 1000, &cfg, Some(&back)).unwrap(),
            seq
        );
    }

    #[test]
    fn checkpoint_callback_errors_propagate() {
        let log = mixed_log();
        for threads in [1, 2, 4, 8] {
            let err = detect_stream_checkpointed(
                blocks_of(&log, 10),
                0,
                &DetectConfig::with_threads(threads),
                None,
                1,
                |_| Err(std::io::Error::other("disk full")),
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("disk full"),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn a_shard_that_dies_before_its_seal_cannot_hang_the_router() {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..4).map(|_| sync_channel(CHANNEL_DEPTH)).unzip();
        let mut router = Router::new(senders);
        let mut replay = Replay::default();
        for record in mixed_log().records() {
            replay.step(record, &mut router);
        }
        std::thread::scope(|s| {
            for (index, rx) in receivers.into_iter().enumerate() {
                if index == 2 {
                    // Shard 2 is gone: its queued items, the seal among
                    // them, are dropped with its receiver.
                    drop(rx);
                    continue;
                }
                let shard = Shard::seeded(1, crate::HbConfig::default(), None)
                    .pop()
                    .unwrap();
                s.spawn(move || run_stream_shard(index, rx, shard));
            }
            assert!(
                router.seal().is_none(),
                "three answers of four make no checkpoint"
            );
            router.finish();
        });
    }

    #[test]
    fn eager_freeze_shares_one_arc_per_generation() {
        let mut clocks = ClockState::default();
        let mut pinned = Pinned::default();
        let i = clocks.ensure_thread(t(0));
        let (a, gen_a) = pinned.pin(&clocks, i);
        let (b, gen_b) = pinned.pin(&clocks, i);
        assert!(Arc::ptr_eq(&a, &b), "same generation must share one Arc");
        assert_eq!(gen_a, gen_b);
        clocks.sync(t(0), SyncOpKind::LockRelease, SyncVar(7), 1);
        let (c, gen_c) = pinned.pin(&clocks, i);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(gen_a, gen_c);
        assert!(c.get(t(0)) > a.get(t(0)));
    }
}
