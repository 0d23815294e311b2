//! One program run through the user's pipeline, untimed-checked against
//! its reference: the end-to-end form (`literace run --streaming --log`
//! followed by the default `literace detect`) and the traced form that
//! calls each layer's public function as its own stage.

use std::fs::File;
use std::path::Path;
use std::time::{Duration, Instant};

use literace::detector::{detect_stream, DetectConfig, RaceReport};
use literace::instrument::{InstrStats, Instrumenter, RecordSink, V2Sink};
use literace::log::{map_or_read, DecodeOpts, LogResult, LogWriterV2, Record, RecordStream};
use literace::pipeline::RunConfig;
use literace::samplers::SamplerKind;
use literace::sim::{ChunkedRandomScheduler, Machine, NullObserver, RunSummary};
use literace::telemetry;

use crate::alloc;
use crate::spans::Spans;
use crate::workload::{Prepared, Reference};

/// The run-wide settings shared by every program run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub sampler: SamplerKind,
    pub seed: u64,
    pub detect: DetectConfig,
    pub decode: DecodeOpts,
}

/// Opens the log the way `literace detect` does: read whole for the
/// parallel decode pool, streamed from the file otherwise.
fn open_stream(path: &Path, opts: DecodeOpts) -> Result<RecordStream, String> {
    let stream = if opts.threads > 1 {
        let bytes = map_or_read(path).map_err(|e| format!("read log: {e}"))?;
        RecordStream::spawn_bytes(bytes, opts)
    } else {
        let file = File::open(path).map_err(|e| format!("open log: {e}"))?;
        RecordStream::spawn_with(file, opts)
    };
    stream.map_err(|e| format!("open log stream: {e}"))
}

fn check(
    r: &Reference,
    summary: &RunSummary,
    stats: &InstrStats,
    report: &RaceReport,
) -> Result<(), String> {
    if summary != &r.summary || stats != &r.stats {
        return Err("execution differs from the reference".into());
    }
    if report != &r.report {
        return Err(format!(
            "race report differs from the reference ({} vs {} static races)",
            report.static_count(),
            r.report.static_count()
        ));
    }
    Ok(())
}

/// Timings of one end-to-end program run, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub run_s: f64,
    pub detect_s: f64,
    pub e2e_s: f64,
    pub peak_mb: f64,
    pub log_bytes: u64,
}

/// Instrumented run writing a v2 log file, then streaming detection from
/// that file; the report must equal the reference.
pub fn run_e2e(p: &Prepared, r: &Reference, ctx: &Ctx, path: &Path) -> Result<E2e, String> {
    let cfg = RunConfig::seeded(ctx.seed);
    let base = alloc::start_peak();
    let t0 = Instant::now();
    let file = File::create(path).map_err(|e| format!("create log: {e}"))?;
    let mut inst = Instrumenter::with_sink(
        ctx.sampler.build(ctx.seed),
        p.icfg.clone(),
        V2Sink::new(file),
    );
    let mut sched = ChunkedRandomScheduler::seeded(ctx.seed, cfg.sched_quantum);
    let summary = Machine::new(&p.compiled, cfg.machine)
        .run(&mut sched, &mut inst)
        .map_err(|e| format!("execute: {e}"))?;
    let out = inst.finish();
    drop(out.log.finish().map_err(|e| format!("write log: {e}"))?);
    let t1 = Instant::now();
    let blocks = open_stream(path, ctx.decode)?;
    let report = detect_stream(blocks, summary.non_stack_accesses, &ctx.detect)
        .map_err(|e| format!("detect: {e}"))?;
    let t2 = Instant::now();
    let peak_mb = alloc::peak_mb_since(base);
    check(r, &summary, &out.stats, &report)?;
    let log_bytes = std::fs::metadata(path)
        .map_err(|e| format!("stat log: {e}"))?
        .len();
    Ok(E2e {
        run_s: (t1 - t0).as_secs_f64(),
        detect_s: (t2 - t1).as_secs_f64(),
        e2e_s: (t2 - t0).as_secs_f64(),
        peak_mb,
        log_bytes,
    })
}

/// Counts records and drops them: the instrumented run with no log
/// encoding or I/O behind it.
struct Discard(u64);

impl RecordSink for Discard {
    fn push(&mut self, record: Record) {
        std::hint::black_box(record);
        self.0 += 1;
    }
}

/// Measures how long the consumer of an iterator waits inside `next`.
struct Waited<I> {
    inner: I,
    waited: Duration,
}

impl<I: Iterator> Iterator for Waited<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let t = Instant::now();
        let item = self.inner.next();
        self.waited += t.elapsed();
        item
    }
}

/// Stage times (seconds) and counts of one traced program run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traced {
    /// Uninstrumented execution (its own root span, outside the pipeline).
    pub sim_s: f64,
    /// Instrumented execution into a discarding sink; includes `sim_s`
    /// worth of simulation.
    pub instrument_s: f64,
    pub encode_s: f64,
    pub write_s: f64,
    pub decode_s: f64,
    pub replay_s: f64,
    /// The `pipeline` root span: instrument through replay.
    pub e2e_s: f64,
    /// Root-span time no stage span covers.
    pub gaps_s: f64,
    pub records: u64,
    pub sync_records: u64,
    pub dispatch_checks: u64,
    pub mem_total: u64,
    pub mem_logged: u64,
    pub bytes: u64,
    /// Records decoded, from the telemetry registry.
    pub decoded: u64,
    /// Epoch escalations, from the telemetry registry.
    pub escalations: u64,
    pub worker_busy_s: f64,
    pub worker_idle_s: f64,
    pub replay_peak_mb: f64,
}

/// The traced program run: baseline execute, then under one `pipeline`
/// span instrumented execute → encode → write → decode → replay, each its
/// own child span. The telemetry registry must be enabled by the caller.
pub fn run_traced(
    p: &Prepared,
    r: &Reference,
    ctx: &Ctx,
    path: &Path,
    spans: &mut Spans,
    run: u64,
) -> Result<Traced, String> {
    let cfg = RunConfig::seeded(ctx.seed);
    let log = r.log.as_ref().expect("traced runs keep the reference log");
    let m = telemetry::metrics();
    let mut t = Traced::default();

    let (baseline, sim_s) = spans.time("sim.execute", run, || {
        let mut sched = ChunkedRandomScheduler::seeded(ctx.seed, cfg.sched_quantum);
        Machine::new(&p.compiled, cfg.machine).run(&mut sched, &mut NullObserver)
    });
    t.sim_s = sim_s;
    let baseline = baseline.map_err(|e| format!("baseline execute: {e}"))?;

    let root = spans.begin("pipeline", run);
    let result = (|| {
        let (out, secs) = spans.time("instrument.execute", run, || {
            let mut inst =
                Instrumenter::with_sink(ctx.sampler.build(ctx.seed), p.icfg.clone(), Discard(0));
            let mut sched = ChunkedRandomScheduler::seeded(ctx.seed, cfg.sched_quantum);
            let summary = Machine::new(&p.compiled, cfg.machine).run(&mut sched, &mut inst);
            summary.map(|s| (s, inst.finish()))
        });
        t.instrument_s = secs;
        let (summary, out) = out.map_err(|e| format!("instrumented execute: {e}"))?;
        if summary != baseline {
            return Err("instrumentation perturbed the execution".to_owned());
        }
        t.records = out.log.0;
        t.sync_records = out.stats.sync_records;
        t.dispatch_checks = out.stats.dispatch_checks;
        t.mem_total = out.stats.total_mem;
        t.mem_logged = out.stats.logged_mem;
        if t.records != log.len() as u64 {
            return Err("discarded record count differs from the reference log".to_owned());
        }

        let (bytes, secs) = spans.time("log.encode", run, || -> LogResult<Vec<u8>> {
            let mut w = LogWriterV2::new(Vec::new());
            for record in log {
                w.write_record(record)?;
            }
            w.finish()
        });
        t.encode_s = secs;
        let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
        t.bytes = bytes.len() as u64;

        let (written, secs) = spans.time("log.write", run, || std::fs::write(path, &bytes));
        t.write_s = secs;
        written.map_err(|e| format!("write log: {e}"))?;
        drop(bytes);

        let decoded_before = m.log_decode_v2_records.get();
        let (blocks, secs) = spans.time("log.decode", run, || {
            open_stream(path, ctx.decode)?
                .collect::<LogResult<Vec<Vec<Record>>>>()
                .map_err(|e| format!("decode: {e}"))
        });
        t.decode_s = secs;
        let blocks = blocks?;
        t.decoded = m.log_decode_v2_records.get() - decoded_before;

        let busy_before = m.detector_worker_busy_ns.get();
        let idle_before = m.detector_worker_idle_ns.get();
        let escalations_before = m.detector_epoch_escalations.get();
        let base = alloc::start_peak();
        let mut source = Waited {
            inner: blocks.into_iter().map(Ok),
            waited: Duration::ZERO,
        };
        let (report, secs) = spans.time("detector.replay", run, || {
            detect_stream(&mut source, summary.non_stack_accesses, &ctx.detect)
        });
        t.replay_s = secs;
        t.replay_peak_mb = alloc::peak_mb_since(base);
        t.escalations = m.detector_epoch_escalations.get() - escalations_before;
        if ctx.detect.threads > 1 {
            t.worker_busy_s = (m.detector_worker_busy_ns.get() - busy_before) as f64 / 1e9;
            t.worker_idle_s = (m.detector_worker_idle_ns.get() - idle_before) as f64 / 1e9;
        } else {
            // The sequential core runs on the calling thread, which the
            // registry does not instrument: its idle time is the wait for
            // the next block.
            t.worker_idle_s = source.waited.as_secs_f64();
            t.worker_busy_s = t.replay_s - t.worker_idle_s;
        }
        let report = report.map_err(|e| format!("replay: {e}"))?;
        check(r, &summary, &out.stats, &report)
    })();
    t.e2e_s = spans.end(root);
    result?;
    t.gaps_s = t.e2e_s - (t.instrument_s + t.encode_s + t.write_s + t.decode_s + t.replay_s);
    Ok(t)
}
