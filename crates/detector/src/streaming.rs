//! The sharded detection engine: replicated replay, shard checks and
//! merge, overlapped with whatever produces the records.
//!
//! [`detect_stream_from`] consumes *blocks* of records — decoded blocks
//! from a [`RecordStream`](literace_log::RecordStream) whose decoder is
//! still running, or borrowed chunks of an in-memory
//! [`EventLog`](literace_log::EventLog) — and never materializes more than
//! it is handed. The engine picks its form once, when it starts, and
//! keeps it for the whole stream. At one shard it is an [`HbDetector`]
//! run inline on the calling thread. At N shards (at most
//! [`MAX_SHARDS`](crate::sharded::MAX_SHARDS)) it is N replicas, and every
//! block goes to all of them: the caller wraps each block in one `Arc` and
//! sends it down every worker's bounded channel. Each replica is an
//! [`HbDetector`] whose replay stage (see [`hb`](crate::hb)) replays every
//! record of every block, so it holds every thread's clock itself, and
//! whose shard (see [`sharded`](crate::sharded) for the partition and the
//! shard stage, and `crate::report` for the merge) checks only the
//! accesses the address hash assigns it, with the clock in place. Workers
//! replay concurrently with the decode and with each other; peak memory is
//! bounded by the channel depth, not the log size.
//!
//! **When replicas pay.** Replicas ship no clock across threads: nothing
//! is frozen, cloned or shared per access, and the caller touches a block
//! once, not once per record. In exchange every replica replays every
//! sync record, so N replicas do N times the sync work to split the
//! access work N ways, and hold N copies of every clock. That can pay
//! only where accesses are the bulk of the records, as in full logs (5–27%
//! sync records on the paper-scale programs); it loses where sync is:
//! TL-Ad keeps every sync record and a few percent of the accesses, so
//! sync is 60–98% of a sampled log. The engine does not look at the
//! blocks to choose: the caller's shard count does, which is why the CLI
//! runs one shard.
//!
//! Positions are carried as `u64` and every replica keeps its own, so the
//! engine has no log-length ceiling. A seal point (see
//! [`detect_stream_checkpointed`]) is one in-band item per worker.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

use literace_log::{LogResult, Record};

use crate::checkpoint::Checkpoint;
use crate::epoch::TidCeilingExceeded;
use crate::hb::{HbConfig, HbDetector, Replay};
use crate::report::{merge, report, PairMap, RaceReport};
use crate::sharded::{DetectConfig, ShardState};

/// Bound (in blocks) of each worker's channel. Blocks are shared, so the
/// replicas hold at most `CHANNEL_DEPTH + 2` distinct blocks between them:
/// the slowest worker's queue, the block it is replaying, and the one the
/// caller is sending.
const CHANNEL_DEPTH: usize = 4;

/// One entry of a worker's stream.
enum Item<B> {
    /// A block of records, shared by every replica.
    Block(Arc<B>),
    /// A seal point: the worker answers on the sender with its state after
    /// every block before this one. Every reply sender travels inside a
    /// `Seal`, so a worker that dies first drops its own and the caller's
    /// wait ends.
    Seal(Sender<Sealed>),
}

/// One worker's answer to a seal.
struct Sealed {
    index: usize,
    shard: ShardState,
    /// Worker 0's replay stage; every replica's is the same.
    replay: Option<Replay>,
}

/// The caller's side of N replicas: one bounded channel per worker, and
/// the workers' handles. Dropping the senders closes every channel.
struct Replicas<'scope, B> {
    hb: HbConfig,
    senders: Vec<SyncSender<Item<B>>>,
    workers: Vec<ScopedJoinHandle<'scope, Replicated>>,
}

/// What a replica ends with: its shard's races, or the first record past
/// the tid ceiling, where it stopped.
type Replicated = Result<PairMap, TidCeilingExceeded>;

impl<'scope, B: AsRef<[Record]> + Send + Sync + 'scope> Replicas<'scope, B> {
    /// Spawns one replica per detector in `scope`: replica `i` runs
    /// `detectors[i]`, whose shard is shard `i`. Every detector runs under
    /// one configuration, and there is at least one.
    fn spawn(scope: &'scope Scope<'scope, '_>, detectors: Vec<HbDetector>) -> Replicas<'scope, B> {
        let hb = detectors[0].shard.cfg;
        let mut senders = Vec::with_capacity(detectors.len());
        let mut workers = Vec::with_capacity(detectors.len());
        for (index, det) in detectors.into_iter().enumerate() {
            let (tx, rx) = sync_channel(CHANNEL_DEPTH);
            senders.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("literace-shard-{index}"))
                    .spawn_scoped(scope, move || run_replica(index, rx, det))
                    .expect("spawning shard worker"),
            );
        }
        Replicas {
            hb,
            senders,
            workers,
        }
    }

    /// Closes every channel and joins every worker, in shard order. A
    /// worker's panic resurfaces here with its own payload, as it would
    /// have on the caller at one shard. Every replica replays the same
    /// records, so all of them stop at the same tid ceiling, which comes
    /// back once.
    fn join(self) -> Result<Vec<PairMap>, TidCeilingExceeded> {
        drop(self.senders);
        let joined: Vec<Replicated> = self
            .workers
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        joined.into_iter().collect()
    }

    /// Sends one item to worker `index`, accounting backpressure: a full
    /// channel counts as a stall before the blocking send, and a delivered
    /// item raises the worker's queue-occupancy gauge (the matching
    /// decrement is in [`run_replica`]). Returns whether the item was
    /// delivered: a send fails only if the worker is gone, and a worker
    /// ends early only by panicking or at the tid ceiling, both of which
    /// resurface at join.
    fn send(&self, index: usize, item: Item<B>) -> bool {
        let sender = &self.senders[index];
        if !literace_telemetry::enabled() {
            return sender.send(item).is_ok();
        }
        let m = literace_telemetry::metrics();
        let delivered = match sender.try_send(item) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => false,
            Err(TrySendError::Full(item)) => {
                m.detector_stream_stalls.add(1);
                literace_telemetry::trace_instant("shard.send.stall");
                sender.send(item).is_ok()
            }
        };
        if delivered {
            m.detector_shard_queue.inc(index);
        }
        delivered
    }

    /// Shares `block` with every worker. A dead worker ends the stream
    /// here, so the caller reads no further before joining it.
    fn feed(&mut self, block: B) -> LogResult<()> {
        let block = Arc::new(block);
        for index in 0..self.senders.len() {
            if !self.send(index, Item::Block(block.clone())) {
                return Err(std::io::Error::other("a shard worker died").into());
            }
        }
        Ok(())
    }

    /// Sends every worker a `Seal`, each holding a clone of one fresh
    /// reply sender, drops the original, and assembles the answers: every
    /// worker's shard state, in shard order, and worker 0's replay stage.
    fn seal(&mut self, non_stack_accesses: u64) -> LogResult<Checkpoint> {
        let (reply, replies) = channel();
        for index in 0..self.senders.len() {
            self.send(index, Item::Seal(reply.clone()));
        }
        drop(reply);
        let mut shards: Vec<Option<ShardState>> = self.senders.iter().map(|_| None).collect();
        let mut replay = None;
        for sealed in replies {
            shards[sealed.index] = Some(sealed.shard);
            replay = replay.or(sealed.replay);
        }
        let died = || std::io::Error::other("a shard worker died before sealing");
        let shards: Vec<ShardState> = shards.into_iter().collect::<Option<_>>().ok_or_else(died)?;
        let replay = replay.ok_or_else(died)?;
        Ok(Checkpoint::assemble(
            &replay,
            self.hb,
            shards,
            non_stack_accesses,
        ))
    }
}

/// One replica: drains its channel into its own [`HbDetector`], whose
/// replay stage replays every record of every block and whose shard
/// checks only the accesses it owns. It stops at the first record past
/// the tid ceiling, dropping its channel.
fn run_replica<B: AsRef<[Record]>>(
    index: usize,
    rx: Receiver<Item<B>>,
    mut det: HbDetector,
) -> Replicated {
    let _span = literace_telemetry::metrics().phase_shard_replay.span();
    loop {
        let idle = literace_telemetry::enabled().then(std::time::Instant::now);
        let Ok(item) = rx.recv() else {
            break;
        };
        let busy = idle.map(|idle| {
            let now = std::time::Instant::now();
            let m = literace_telemetry::metrics();
            m.detector_worker_idle_ns
                .add((now - idle).as_nanos() as u64);
            m.detector_shard_queue.dec(index);
            now
        });
        match item {
            Item::Block(block) => {
                literace_telemetry::trace_begin("shard.block");
                let replayed = det.process_block((*block).as_ref());
                literace_telemetry::trace_end("shard.block");
                replayed?;
            }
            Item::Seal(reply) => {
                // Fails only if the caller is gone, which makes the
                // answer moot.
                let _ = reply.send(Sealed {
                    index,
                    shard: det.shard.state(),
                    replay: (index == 0).then(|| det.replay.clone()),
                });
            }
        }
        if let Some(busy) = busy {
            literace_telemetry::metrics()
                .detector_worker_busy_ns
                .add(busy.elapsed().as_nanos() as u64);
        }
    }
    Ok(det.shard.finish())
}

/// The engine, in the form it started as: one inline detector at one
/// shard, N replicas that take every block at N ≥ 2 (see the module
/// docs). Either form reports and seals what the other would.
enum Engine<'scope, B> {
    Inline(Box<HbDetector>),
    Replicas(Replicas<'scope, B>),
}

impl<'scope, B: AsRef<[Record]> + Send + Sync + 'scope> Engine<'scope, B> {
    /// Starts `cfg`'s shard count in `scope`, fresh under `cfg.hb` or
    /// resumed from `resume` (one resume at any shard count).
    fn start(
        scope: &'scope Scope<'scope, '_>,
        cfg: &DetectConfig,
        resume: Option<&Checkpoint>,
    ) -> Engine<'scope, B> {
        let mut detectors = HbDetector::start(cfg.shards(), cfg.hb, resume);
        if detectors.len() == 1 {
            Engine::Inline(Box::new(detectors.pop().expect("one shard was asked for")))
        } else {
            Engine::Replicas(Replicas::spawn(scope, detectors))
        }
    }

    /// Feeds every block, counting its records into
    /// `detector.records.routed`, sealing every `seal.every_blocks` blocks
    /// and once more at end of stream, unless a periodic seal just landed
    /// there. Stops at the first stream or seal error.
    fn drive<I>(
        &mut self,
        blocks: I,
        non_stack_accesses: u64,
        mut seal: Option<Seal<'_>>,
    ) -> LogResult<()>
    where
        I: IntoIterator<Item = LogResult<B>>,
    {
        let mut blocks_seen = 0u64;
        let mut sealed_at = None;
        for block in blocks {
            let block = block?;
            let records = block.as_ref().len() as u64;
            self.feed(block)?;
            if literace_telemetry::enabled() {
                literace_telemetry::metrics()
                    .detector_records_routed
                    .add(records);
            }
            blocks_seen += 1;
            if let Some(seal) = seal.as_mut() {
                if seal.every_blocks > 0 && blocks_seen.is_multiple_of(seal.every_blocks) {
                    (seal.on_checkpoint)(&self.seal(non_stack_accesses)?)?;
                    sealed_at = Some(blocks_seen);
                }
            }
        }
        if let Some(seal) = seal {
            if sealed_at != Some(blocks_seen) {
                (seal.on_checkpoint)(&self.seal(non_stack_accesses)?)?;
            }
        }
        Ok(())
    }

    /// Replays one block. Fails if a replica is gone, or inline at the tid
    /// ceiling.
    fn feed(&mut self, block: B) -> LogResult<()> {
        match self {
            Engine::Inline(det) => Ok(det.process_block(block.as_ref())?),
            Engine::Replicas(replicas) => replicas.feed(block),
        }
    }

    /// The detector's state after every block fed so far, as one
    /// checkpoint.
    fn seal(&mut self, non_stack_accesses: u64) -> LogResult<Checkpoint> {
        match self {
            Engine::Inline(det) => Ok(det.save_checkpoint(non_stack_accesses)),
            Engine::Replicas(replicas) => replicas.seal(non_stack_accesses),
        }
    }

    /// Joins whatever runs and, unless `driven` failed, merges the races
    /// found. Replicas are joined before the error returns, so a worker's
    /// panic or tid-ceiling stop outranks the error its death caused.
    fn finish(self, non_stack_accesses: u64, driven: LogResult<()>) -> LogResult<RaceReport> {
        match self {
            Engine::Inline(det) => {
                driven?;
                Ok(det.finish(non_stack_accesses))
            }
            Engine::Replicas(replicas) => {
                let cap = replicas.hb.max_dynamic_per_pair;
                let parts = replicas.join()?;
                driven?;
                let _span = literace_telemetry::metrics().phase_merge.span();
                Ok(report(merge(parts, cap), non_stack_accesses))
            }
        }
    }
}

/// Detects races from a stream of record blocks without materializing an
/// event log, producing a report byte-identical to the inline
/// [`detect`](crate::detect): [`detect_stream_from`] without a checkpoint.
///
/// # Errors
///
/// Returns the first decode/I-O error the stream yields, or a corrupt-log
/// error at the first record naming a thread above
/// [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX), where detection stops.
/// Shard workers are joined (and their partial work discarded) before
/// the error is returned, so no threads leak, and the ceiling is
/// reported once at any shard count.
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
/// [`RecordStream`](literace_log::RecordStream), in which case decoding
/// and replay overlap, or borrowed slices of an in-memory log. With
/// `cfg.threads <= 1` the engine is one shard, run inline: the records
/// feed an [`HbDetector`] on the calling thread. Otherwise every block is
/// shared with `cfg.threads` shard workers (at most 64, `MAX_SHARDS`),
/// each of which replays every record and checks the accesses it owns.
/// The form is chosen once, from `cfg` alone: N replicas replay every
/// sync record N times, so on a log mostly of sync records, as a sampled
/// one is, one shard is the faster choice.
///
/// With `resume`, `blocks` must carry the records *after* the
/// checkpointed position. The replay stage restarts from the checkpoint's
/// state, each shard's frontier is seeded with the checkpoint locations
/// it owns, and the checkpoint's pairs are carried as a prefix into the
/// merge, at any shard count; the run counts one resume into
/// `detector.checkpoint.resumes`. The happens-before tuning then comes
/// from the checkpoint; `cfg` contributes only the worker count.
///
/// # Errors
///
/// As [`detect_stream`]: the first decode/I-O error the stream yields, or
/// the tid ceiling.
pub fn detect_stream_from<I, B>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
    resume: Option<&Checkpoint>,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]> + Send + Sync,
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
/// Seals run at any `cfg.threads`. At N ≥ 2 shards every worker's
/// stream gets an in-band seal behind the blocks before it, every worker
/// answers its shard's state and worker 0 its replay stage as well, and
/// the caller assembles one checkpoint from the answers; at one shard the
/// inline detector is sealed. While no
/// pair reaches `max_dynamic_per_pair` distinct addresses, every shard
/// count seals the same bytes; past that cap the retained address subset
/// may differ, and every checkpoint still resumes to the one-shot report.
///
/// # Errors
///
/// The first decode/I-O error the stream yields, the tid ceiling, or the
/// error returned by `on_checkpoint`; at N shards, after every worker is
/// joined.
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
    B: AsRef<[Record]> + Send + Sync,
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

/// The engine body, at every shard count and with or without seals.
fn engine<I, B>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &DetectConfig,
    resume: Option<&Checkpoint>,
    seal: Option<Seal<'_>>,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]> + Send + Sync,
{
    std::thread::scope(|scope| {
        let mut engine = Engine::start(scope, cfg, resume);
        let driven = engine.drive(blocks, non_stack_accesses, seal);
        engine.finish(non_stack_accesses, driven)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mem, sync, t};
    use crate::{detect, detect_sharded};
    use literace_log::{encode_v2, DecodeOpts, EventLog, RecordStream};
    use literace_sim::SyncOpKind;

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

    /// `mixed_log` in 40-record blocks, each followed by a 40-record
    /// block of lock handoffs on a variable of its own: the blocks
    /// alternate between mostly accesses and only sync records.
    fn alternating_log() -> EventLog {
        let mut records = Vec::new();
        let mut timestamp = 0;
        for chunk in mixed_log().records().chunks(40) {
            records.extend_from_slice(chunk);
            for k in 0..40u64 {
                let kind = if k % 2 == 0 {
                    SyncOpKind::LockAcquire
                } else {
                    SyncOpKind::LockRelease
                };
                timestamp += 1;
                records.push(sync(t((k / 2 % 3) as usize), kind, 9, timestamp));
            }
        }
        records.into_iter().collect()
    }

    /// At N ≥ 2 shards every block goes to every replica, whatever its
    /// make-up: in 60-record blocks of `alternating_log`, every other
    /// block is mostly sync records yet holds accesses, and each replica
    /// checks exactly the accesses `shard_of` gives it, in its own slot of
    /// `detector.shard.events`. The report and every per-block seal are
    /// one shard's.
    #[test]
    fn every_replica_takes_every_block() {
        // The registry is process-wide and this binary's other tests run
        // concurrently, so the counting runs in a child process that runs
        // this test alone.
        const CHILD: &str = "LITERACE_DETECTOR_TEST_ALONE";
        if std::env::var_os(CHILD).is_none() {
            let name = module_path!().split_once("::").expect("crate::module").1;
            let name = format!("{name}::every_replica_takes_every_block");
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([name.as_str(), "--exact", "--test-threads", "1"])
                .env(CHILD, "1")
                .output()
                .unwrap();
            let text = format!(
                "{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success() && text.contains("1 passed"), "{text}");
            return;
        }
        let log = alternating_log();
        let want = detect(&log, 1000);
        assert!(want.static_count() > 0, "log should race");
        let mut one_shard = Vec::new();
        for threads in [1, 2, 4, 8] {
            literace_telemetry::metrics().reset();
            literace_telemetry::set_enabled(true);
            let mut saved = Vec::new();
            let report = detect_stream_checkpointed(
                blocks_of(&log, 60),
                1000,
                &DetectConfig::with_threads(threads),
                None,
                1,
                |cp| {
                    saved.push(cp.to_bytes());
                    Ok(())
                },
            );
            literace_telemetry::set_enabled(false);
            assert_eq!(report.unwrap(), want, "threads={threads}");
            let events = &literace_telemetry::metrics().snapshot().slots["detector.shard.events"];
            let mut owned = vec![0; events.len()];
            for record in log.records() {
                if let Record::Mem { addr, .. } = record {
                    owned[crate::sharded::shard_of(*addr, threads)] += 1;
                }
            }
            assert_eq!(events, &owned, "threads={threads}");
            if threads == 1 {
                one_shard = saved;
            } else {
                assert!(saved == one_shard, "threads={threads}");
            }
        }
    }

    #[test]
    fn a_thread_past_the_ceiling_stops_detection_with_one_error_at_every_shard_count() {
        let over = t(crate::MAX_THREAD_INDEX + 1);
        let fork = sync(t(0), SyncOpKind::Fork, over.index() as u64, 1);
        // The bad record lands in the last block: the inline detector
        // meets it at one shard, every replica at N ≥ 2.
        for bad in [mem(over, 1, 5, true), sync(over, SyncOpKind::LockAcquire, 3, 1), fork] {
            let mut records = mixed_log().records().to_vec();
            records.insert(records.len() - 8, bad);
            let log: EventLog = records.into_iter().collect();
            for threads in [1, 2, 4] {
                let cfg = DetectConfig::with_threads(threads);
                let every_block = detect_stream_checkpointed(
                    blocks_of(&log, 64),
                    0,
                    &cfg,
                    None,
                    1,
                    |_| Ok(()),
                );
                for result in [detect_stream(blocks_of(&log, 64), 0, &cfg), every_block] {
                    match result {
                        Err(literace_log::LogError::Corrupt { file: "log", reason }) => assert!(
                            reason.starts_with(&format!("thread index {} exceeds", over.index())),
                            "threads={threads}: {reason}"
                        ),
                        other => panic!("threads={threads} {bad:?}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn a_replica_that_dies_before_its_seal_fails_the_seal_without_a_hang() {
        let log = mixed_log();
        let hb = crate::HbConfig::default();
        for dead in [0, 2] {
            let (senders, mut receivers): (Vec<_>, Vec<_>) =
                (0..4).map(|_| sync_channel(CHANNEL_DEPTH)).unzip();
            let mut replicas = Replicas {
                hb,
                senders,
                workers: Vec::new(),
            };
            let gone = receivers.remove(dead);
            std::thread::scope(|s| {
                for (det, (index, rx)) in HbDetector::start(4, hb, None)
                    .into_iter()
                    .zip((0..4).filter(|&index| index != dead).zip(receivers))
                {
                    s.spawn(move || run_replica(index, rx, det));
                }
                replicas.feed(log.records()).unwrap();
                // Worker `dead` never ran: its queued block is dropped with
                // its receiver, and the seal sent after finds it gone.
                drop(gone);
                let err = replicas.seal(0).unwrap_err();
                assert!(
                    err.to_string()
                        .contains("a shard worker died before sealing"),
                    "dead={dead}: {err}"
                );
                drop(replicas);
            });
        }
    }
}
