//! One ordered worker stage, under both v2 pools: numbered jobs go
//! through one bounded queue to N workers, and one delivery thread hands
//! their results to the caller's `deliver` in job order.
//!
//! ```text
//! submit ─(seq, key, job)─▶ worker × N ─(seq, key, result)─▶ delivery thread
//!  waits while depth +       own state each      reorder buffer, then
//!  threads jobs are not      (BlockState or      deliver(key, result)
//!  yet delivered             BlockEnc)           in job order
//! ```
//!
//! The window bounds the reorder buffer: a worker stalled on one job
//! cannot let the others run on through the input. A panic inside a job
//! comes back as that job's typed error, with its key, and the worker
//! starts over from a fresh state. A `deliver` that returns `false`
//! halts the stage, and `submit` then hands every job back.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use literace_telemetry::{enabled, metrics, Counter};

use crate::error::{LogError, LogResult};
use crate::stream::panic_message;

/// Which pool a stage runs: its names, its panic error and its telemetry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pool {
    /// Scanned payloads in, decoded records out.
    Decode,
    /// Raw record blocks in, sealed frames out.
    Encode,
}

impl Pool {
    /// Worker thread prefix, delivery thread and per-job span.
    fn names(self) -> [&'static str; 3] {
        match self {
            Pool::Decode => ["literace-decode", "literace-log-decode", "decode.block"],
            Pool::Encode => ["literace-encode", "literace-log-commit", "encode.block"],
        }
    }

    /// The workers' busy and idle nanosecond counters.
    fn busy_idle(self) -> [&'static Counter; 2] {
        let m = metrics();
        match self {
            Pool::Decode => [&m.log_decode_worker_busy_ns, &m.log_decode_worker_idle_ns],
            Pool::Encode => [&m.log_encode_worker_busy_ns, &m.log_encode_worker_idle_ns],
        }
    }

    fn panicked(self, message: String) -> LogError {
        match self {
            Pool::Decode => LogError::DecoderPanicked { message },
            Pool::Encode => LogError::corrupt(format!("encode worker panicked: {message}")),
        }
    }

    /// A job was admitted: `in_flight` are not yet delivered, `queued` of
    /// them not yet taken by a worker.
    fn admitted(self, in_flight: u64, queued: u64) {
        match self {
            Pool::Decode => {
                if enabled() {
                    metrics().log_decode_blocks_inflight_hwm.record(in_flight);
                }
                literace_telemetry::trace_counter("decode.blocks_inflight", in_flight);
            }
            Pool::Encode if enabled() => {
                metrics().log_encode_sealed_blocks_hwm.record(queued);
                metrics().log_encode_blocks_inflight_hwm.record(in_flight);
            }
            Pool::Encode => {}
        }
    }

    /// A result arrived out of order; `held` now wait to be delivered.
    fn reordered(self, held: u64) {
        if let Pool::Decode = self {
            if enabled() {
                metrics().log_decode_ooo_reorder_depth.record(held);
            }
            literace_telemetry::trace_instant("consume.reorder");
        }
    }
}

/// Runs `job` on `state` under the panic rule of every driver, inline or
/// pooled: a panic comes back as `pool`'s typed error, and `state`, which
/// it may have left half-updated, starts over.
pub(crate) fn contained<S: Default, R>(
    pool: Pool,
    state: &mut S,
    job: impl FnOnce(&mut S) -> LogResult<R>,
) -> LogResult<R> {
    std::panic::catch_unwind(AssertUnwindSafe(|| job(state))).unwrap_or_else(|payload| {
        *state = S::default();
        Err(pool.panicked(panic_message(payload.as_ref())))
    })
}

/// The window, shared by the submitter, the workers and the delivery
/// thread.
#[derive(Debug)]
struct Shared {
    /// Jobs admitted and not yet delivered, at most `limit`. A plain
    /// count, so a poisoned lock is recovered, not propagated.
    in_flight: Mutex<u64>,
    delivered: Condvar,
    limit: u64,
    /// Jobs admitted and not yet taken by a worker.
    queued: AtomicU64,
    /// `deliver` wants no more, or a stage thread died.
    halted: AtomicBool,
}

impl Shared {
    /// Waits for room, then counts one more job in flight; `None` once
    /// the stage has halted.
    fn admit(&self) -> Option<u64> {
        let mut n = self.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        while *n >= self.limit && !self.halted.load(Ordering::Acquire) {
            n = self.delivered.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        if self.halted.load(Ordering::Acquire) {
            return None;
        }
        *n += 1;
        Some(*n)
    }

    fn release(&self) {
        *self.in_flight.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.delivered.notify_one();
    }

    /// Wakes a waiting submitter; the lock orders the wake after its
    /// halt check.
    fn halt(&self) {
        self.halted.store(true, Ordering::Release);
        let _n = self.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        self.delivered.notify_all();
    }
}

/// The submitting end of an ordered stage. `K` travels beside each job
/// `J` and comes back with its result; the delivery thread owns the
/// deliverer `D` until [`finish`](Stage::finish).
#[derive(Debug)]
pub(crate) struct Stage<K, J, D> {
    pool: Pool,
    jobs: SyncSender<(u64, K, J)>,
    /// Jobs admitted: the next job's number.
    submitted: u64,
    shared: Arc<Shared>,
    /// Each says whether it ran to the end.
    workers: Vec<JoinHandle<bool>>,
    /// The deliverer and the jobs delivered, or a panic in `deliver`.
    delivery: JoinHandle<Result<(D, u64), String>>,
}

impl<K: Send + 'static, J: Send + 'static, D: Send + 'static> Stage<K, J, D> {
    /// Starts `threads` workers, each running `work` on its own state,
    /// and the delivery thread. The queue holds `depth` jobs, the results
    /// channel `depth.max(threads)`, the window `depth + threads`.
    ///
    /// # Errors
    ///
    /// A thread-spawn failure, with the deliverer handed back: the
    /// threads already started are stopped and joined first.
    pub(crate) fn spawn<S: Default, R: Send + 'static>(
        pool: Pool,
        threads: usize,
        depth: usize,
        work: impl Fn(&mut S, &K, J) -> LogResult<R> + Send + Sync + 'static,
        deliverer: D,
        deliver: fn(&mut D, K, LogResult<R>) -> bool,
    ) -> Result<Stage<K, J, D>, (LogError, D)> {
        let [worker_name, delivery_name, _] = pool.names();
        let (jobs, job_rx) = sync_channel(depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = sync_channel(depth.max(threads));
        let shared = Arc::new(Shared {
            in_flight: Mutex::new(0),
            delivered: Condvar::new(),
            limit: (depth + threads) as u64,
            queued: AtomicU64::new(0),
            halted: AtomicBool::new(false),
        });
        let work = Arc::new(work);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let (job_rx, results) = (job_rx.clone(), res_tx.clone());
            let (shared, work) = (shared.clone(), work.clone());
            let spawned = std::thread::Builder::new()
                .name(format!("{worker_name}-{i}"))
                .spawn(move || {
                    let run = || run_jobs(pool, &job_rx, &results, &shared, &*work);
                    let ran = std::panic::catch_unwind(AssertUnwindSafe(run)).is_ok();
                    if !ran {
                        // Its job never arrives: nobody may wait on it.
                        shared.halt();
                    }
                    ran
                });
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => return Err((stop(jobs, workers, e), deliverer)),
            }
        }
        // The delivery loop ends when the workers do.
        drop(res_tx);
        // The deliverer crosses over only once every thread is up, so a
        // failed spawn can still hand it back.
        let (handoff, deliverer_rx) = sync_channel::<D>(1);
        let halt = shared.clone();
        let spawned = std::thread::Builder::new()
            .name(delivery_name.to_owned())
            .spawn(move || {
                let mut deliverer = deliverer_rx
                    .recv()
                    .map_err(|_| String::from("the stage never started"))?;
                let run = || deliver_in_order(pool, &res_rx, &halt, &mut deliverer, deliver);
                match std::panic::catch_unwind(AssertUnwindSafe(run)) {
                    Ok(delivered) => Ok((deliverer, delivered)),
                    Err(payload) => {
                        halt.halt();
                        Err(panic_message(payload.as_ref()))
                    }
                }
            });
        let delivery = match spawned {
            Ok(delivery) => delivery,
            Err(e) => return Err((stop(jobs, workers, e), deliverer)),
        };
        // One slot and a waiting receiver: the send cannot block or fail.
        let _ = handoff.send(deliverer);
        Ok(Stage { pool, jobs, submitted: 0, shared, workers, delivery })
    }
}

impl<K, J, D> Stage<K, J, D> {
    /// Queues `job`, first waiting while the window is full. A halted
    /// stage hands the key and job back.
    pub(crate) fn submit(&mut self, key: K, job: J) -> Result<(), (K, J)> {
        let Some(in_flight) = self.shared.admit() else {
            return Err((key, job));
        };
        let queued = self.shared.queued.fetch_add(1, Ordering::AcqRel) + 1;
        self.pool.admitted(in_flight, queued);
        if let Err(std::sync::mpsc::SendError((_, key, job))) =
            self.jobs.send((self.submitted, key, job))
        {
            // Every worker is gone.
            self.shared.halt();
            return Err((key, job));
        }
        self.submitted += 1;
        Ok(())
    }

    /// `deliver` wants no more, or a stage thread died.
    pub(crate) fn halted(&self) -> bool {
        self.shared.halted.load(Ordering::Acquire)
    }

    /// Closes the queue, lets the workers finish it, joins every stage
    /// thread and returns the deliverer, with whether every admitted job
    /// was delivered by a worker that lived.
    ///
    /// # Errors
    ///
    /// The message of a panic in `deliver`, which loses the deliverer.
    pub(crate) fn finish(self) -> Result<(D, bool), String> {
        drop(self.jobs);
        let mut complete = true;
        for worker in self.workers {
            complete &= worker.join().unwrap_or(false);
        }
        let (deliverer, delivered) = self
            .delivery
            .join()
            .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))?;
        Ok((deliverer, complete && delivered == self.submitted))
    }
}

/// Unwinds a stage whose spawn failed with `e`: closes the queue, joins
/// the workers already started, and returns `e`.
fn stop<T>(jobs: SyncSender<T>, workers: Vec<JoinHandle<bool>>, e: std::io::Error) -> LogError {
    drop(jobs);
    for worker in workers {
        let _ = worker.join();
    }
    LogError::Io(e)
}

/// One worker: runs jobs until the queue closes or delivery is gone.
fn run_jobs<S: Default, K, J, R>(
    pool: Pool,
    jobs: &Mutex<Receiver<(u64, K, J)>>,
    results: &SyncSender<(u64, K, LogResult<R>)>,
    shared: &Shared,
    work: &impl Fn(&mut S, &K, J) -> LogResult<R>,
) {
    let ([busy, idle], span) = (pool.busy_idle(), pool.names()[2]);
    let mut state = S::default();
    loop {
        let idle_start = enabled().then(std::time::Instant::now);
        let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok((seq, key, job)) = next else { return };
        shared.queued.fetch_sub(1, Ordering::AcqRel);
        if let Some(t0) = idle_start {
            idle.add(t0.elapsed().as_nanos() as u64);
        }
        let busy_start = enabled().then(std::time::Instant::now);
        literace_telemetry::trace_begin(span);
        let result = contained(pool, &mut state, |state| work(state, &key, job));
        literace_telemetry::trace_end(span);
        if let Some(t0) = busy_start {
            busy.add(t0.elapsed().as_nanos() as u64);
        }
        if results.send((seq, key, result)).is_err() {
            return;
        }
    }
}

/// The delivery thread's loop; returns the jobs delivered once every
/// worker is gone.
fn deliver_in_order<K, R, D>(
    pool: Pool,
    results: &Receiver<(u64, K, LogResult<R>)>,
    shared: &Shared,
    deliverer: &mut D,
    deliver: fn(&mut D, K, LogResult<R>) -> bool,
) -> u64 {
    // The window keeps at most `limit` jobs pending.
    let mut pending = BTreeMap::new();
    let mut next = 0u64;
    while let Ok((seq, key, result)) = results.recv() {
        if seq != next {
            pool.reordered(pending.len() as u64 + 1);
        }
        pending.insert(seq, (key, result));
        while let Some((key, result)) = pending.remove(&next) {
            next += 1;
            shared.release();
            if !deliver(deliverer, key, result) {
                shared.halt();
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// Delivered keys and outcomes, in delivery order.
    type Log = Vec<(u64, LogResult<u64>)>;

    fn record(log: &mut Log, key: u64, result: LogResult<u64>) -> bool {
        log.push((key, result));
        true
    }

    #[test]
    fn a_stalled_job_holds_the_submitter_at_the_window() {
        let (threads, depth) = (2, 3);
        let limit = (depth + threads) as u64;
        // Job 0 waits for the test's release; every other job is instant.
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let work = move |_: &mut (), key: &u64, (): ()| {
            if *key == 0 {
                release_rx.lock().unwrap().recv().unwrap();
            }
            Ok(*key)
        };
        let mut stage =
            Stage::spawn(Pool::Decode, threads, depth, work, Log::new(), record).unwrap();
        // A full window is admitted without waiting.
        for key in 0..limit {
            stage.submit(key, ()).unwrap();
        }
        // The next job waits until job 0 is delivered.
        let (admitted_tx, admitted_rx) = channel();
        let submitter = std::thread::spawn(move || {
            stage.submit(limit, ()).unwrap();
            admitted_tx.send(()).unwrap();
            stage
        });
        assert!(
            admitted_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "admitted job {limit} while job 0 was stalled"
        );
        release_tx.send(()).unwrap();
        admitted_rx.recv().unwrap();
        let (log, complete) = submitter.join().unwrap().finish().unwrap();
        assert!(complete);
        let keys: Vec<u64> = log.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..=limit).collect::<Vec<_>>());
        assert!(log.iter().all(|(k, r)| r.as_ref().ok() == Some(k)));
    }

    #[test]
    fn a_panicking_job_is_delivered_in_order_as_its_error() {
        // One worker, so the state is deterministic: a count of the jobs
        // it ran since it last started over.
        let work = |ran: &mut u64, key: &u64, (): ()| {
            *ran += 1;
            if *key == 2 {
                panic!("job {key} panics");
            }
            Ok(*ran)
        };
        let mut stage = Stage::spawn(Pool::Decode, 1, 2, work, Log::new(), record).unwrap();
        for key in 0..5 {
            stage.submit(key, ()).unwrap();
        }
        let (log, complete) = stage.finish().unwrap();
        assert!(complete, "a contained panic loses no job");
        assert_eq!(log.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        match &log[2].1 {
            Err(LogError::DecoderPanicked { message }) => assert_eq!(message, "job 2 panics"),
            other => panic!("job 2 delivered {other:?}"),
        }
        // The worker started over from a fresh state after the panic.
        let ran: Vec<u64> = [0, 1, 3, 4].map(|i| *log[i].1.as_ref().unwrap()).to_vec();
        assert_eq!(ran, [1, 2, 1, 2]);
    }

    #[test]
    fn a_deliverer_that_wants_no_more_halts_the_submitter() {
        fn first_two(log: &mut Log, key: u64, result: LogResult<u64>) -> bool {
            log.push((key, result));
            log.len() < 2
        }
        let work = |_: &mut (), key: &u64, (): ()| Ok(*key);
        let mut stage = Stage::spawn(Pool::Encode, 2, 1, work, Log::new(), first_two).unwrap();
        let mut key = 0;
        while stage.submit(key, ()).is_ok() {
            key += 1;
            assert!(key < 1_000, "a halted stage kept taking jobs");
        }
        assert!(stage.halted());
        let (log, complete) = stage.finish().unwrap();
        // Every admitted job still reaches the deliverer, in order.
        assert!(complete);
        assert_eq!(log.len() as u64, key);
    }
}
