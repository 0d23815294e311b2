//! Paper-scale run→detect benchmark with per-layer attribution.
//!
//! Drives the pipeline a `literace` user runs, one program at a time from
//! one process (a closed loop with a single client): generate and lower
//! the workload, run it instrumented into a v2 log file, stream-detect that
//! file, and check the race report against a reference computed untimed
//! during set-up. With `--trace 1` it also runs each layer's public call
//! as its own span-timed stage and reports per-layer metrics.
//!
//! Usage: `perfbench --workload sampled-apps|full-log|sync-heavy|all
//! --seed N --seconds S --trace 0|1 [--work-dir DIR]`
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The end-to-end metrics without `--trace`, the per-layer ones with it.

mod alloc;
mod pipeline;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use literace::detector::DetectConfig;
use literace::log::{auto_stream_depth, DecodeOpts};
use literace::pipeline::RunConfig;
use literace::telemetry;

use pipeline::{run_e2e, run_traced, Ctx, Traced};
use spans::Spans;
use stats::{geomean, median, quartiles, tail};
use workload::{prepare, reference, Prepared, Reference, SetupTimes, Spec, SPECS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed rounds per workload even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 5;
/// Samples that must lie beyond the reported tail percentile.
const TAIL_MARGIN: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} is missing its value", pair[0]));
        };
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One untraced pass over a workload's programs.
#[derive(Debug, Clone)]
struct Round {
    /// Mean per-program times, seconds.
    e2e_s: f64,
    run_s: f64,
    detect_s: f64,
    events_per_s: f64,
    /// Largest per-program peak heap, MB.
    peak_mb: f64,
    /// Each program's `e2e_s`, for the tail.
    per_program_e2e: Vec<f64>,
}

/// Everything measured for one workload in this run.
struct Bench {
    spec: &'static Spec,
    ctx: Ctx,
    progs: Vec<Prepared>,
    refs: Vec<Reference>,
    setups: Vec<SetupTimes>,
    rounds: Vec<Round>,
    /// Per-program `Traced` results, one vector per traced round.
    traced: Vec<Vec<Traced>>,
    /// v2 log size of each program, fixed by the first run.
    log_bytes: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(
        spec: &'static Spec,
        args: &Args,
        cpus: usize,
        spans: &mut Spans,
    ) -> Result<Bench, String> {
        let (progs, setup) = prepare(spec, spans);
        let refs = progs
            .iter()
            .map(|p| reference(p, spec.sampler, args.seed, args.trace))
            .collect::<Result<Vec<_>, _>>()?;
        // `literace detect` defaults to one decode worker per CPU; capped at
        // two, as are the detection workers, so no run asks for more
        // threads than a 2-CPU host has.
        let decode_threads = cpus.min(2);
        let detect_threads = spec.detect_threads.min(cpus);
        let ctx = Ctx {
            sampler: spec.sampler,
            seed: args.seed,
            detect: DetectConfig {
                threads: detect_threads,
                hb: RunConfig::default().detector,
            },
            decode: DecodeOpts::with_threads(decode_threads)
                .depth(auto_stream_depth(decode_threads, detect_threads)),
        };
        Ok(Bench {
            spec,
            ctx,
            log_bytes: vec![None; progs.len()],
            progs,
            refs,
            setups: vec![setup],
            rounds: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    fn log_path(&self, args: &Args, i: usize) -> PathBuf {
        args.work_dir.join(format!("{}-{i}.v2", self.spec.name))
    }

    /// Program indices for round `k`: rotated so each program takes each
    /// position equally often.
    fn order(&self, k: usize) -> Vec<usize> {
        let n = self.progs.len();
        (0..n).map(|i| (i + k) % n).collect()
    }

    fn fail(&mut self, i: usize, what: &str, e: &str) {
        self.failed += 1;
        eprintln!(
            "{} {:?}: {what} failed: {e}",
            self.spec.name, self.progs[i].id
        );
    }

    /// One untraced round; `None` if any program run failed.
    fn round(&mut self, args: &Args, k: usize) -> Option<Round> {
        let mut runs = Vec::new();
        for i in self.order(k) {
            self.attempted += 1;
            let path = self.log_path(args, i);
            let run = run_e2e(&self.progs[i], &self.refs[i], &self.ctx, &path).and_then(|e| {
                let first = *self.log_bytes[i].get_or_insert(e.log_bytes);
                if first == e.log_bytes {
                    Ok(e)
                } else {
                    Err(format!("log size {} differs from {first}", e.log_bytes))
                }
            });
            match run {
                Ok(e) => runs.push((i, e)),
                Err(e) => self.fail(i, "run", &e),
            }
        }
        if runs.len() < self.progs.len() {
            return None;
        }
        let n = runs.len() as f64;
        let sum = |f: fn(&pipeline::E2e) -> f64| runs.iter().map(|(_, e)| f(e)).sum::<f64>();
        let events: u64 = runs.iter().map(|&(i, _)| self.refs[i].events()).sum();
        Some(Round {
            e2e_s: sum(|e| e.e2e_s) / n,
            run_s: sum(|e| e.run_s) / n,
            detect_s: sum(|e| e.detect_s) / n,
            events_per_s: events as f64 / sum(|e| e.e2e_s),
            peak_mb: runs.iter().map(|(_, e)| e.peak_mb).fold(0.0, f64::max),
            per_program_e2e: runs.iter().map(|(_, e)| e.e2e_s).collect(),
        })
    }

    /// A timed set-up pass (its programs dropped) and a timed round, so
    /// set-up time is sampled across the run like everything else.
    fn record_round(&mut self, args: &Args, k: usize, spans: &mut Spans) {
        self.setups.push(prepare(self.spec, spans).1);
        if let Some(r) = self.round(args, k) {
            self.rounds.push(r);
        }
    }

    /// One traced round, with the telemetry registry on for its duration.
    fn traced_round(&mut self, args: &Args, k: usize, spans: &mut Spans, run_id: &mut u64) {
        telemetry::set_enabled(true);
        let mut out: Vec<Option<Traced>> = vec![None; self.progs.len()];
        for i in self.order(k) {
            self.attempted += 1;
            *run_id += 1;
            let path = self.log_path(args, i);
            match run_traced(
                &self.progs[i],
                &self.refs[i],
                &self.ctx,
                &path,
                spans,
                *run_id,
            ) {
                Ok(t) => out[i] = Some(t),
                Err(e) => self.fail(i, "traced run", &e),
            }
        }
        telemetry::set_enabled(false);
        if let Some(all) = out.into_iter().collect::<Option<Vec<_>>>() {
            self.traced.push(all);
        }
    }
}

/// A named value ready to print.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Spread or provenance for the human-readable listing.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// The median of `samples`, with their quartiles and count noted.
fn med(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    let (q1, _, q3) = quartiles(samples);
    Metric {
        note: format!("q1 {q1:.6} q3 {q3:.6}, n={}", samples.len()),
        ..metric(name, median(samples), unit)
    }
}

fn end_to_end(b: &Bench) -> Vec<Metric> {
    let col = |f: fn(&Round) -> f64| b.rounds.iter().map(f).collect::<Vec<f64>>();
    let events: u64 = b.refs.iter().map(Reference::events).sum();
    let bytes: u64 = b.log_bytes.iter().map(|x| x.unwrap_or(0)).sum();
    let per_program: Vec<f64> = b
        .rounds
        .iter()
        .flat_map(|r| r.per_program_e2e.iter().copied())
        .collect();
    let tail_metric = match tail(&per_program, TAIL_MARGIN) {
        Some(t) => Metric {
            note: format!(
                "p{} of {} per-program samples, {} beyond",
                t.percentile, t.count, t.beyond
            ),
            ..metric("e2e_s_tail", t.value, "s")
        },
        None => Metric {
            note: format!(
                "max: only {} per-program samples, fewer than {} beyond any percentile",
                per_program.len(),
                TAIL_MARGIN
            ),
            ..metric(
                "e2e_s_tail",
                per_program.iter().copied().fold(0.0, f64::max),
                "s",
            )
        },
    };
    let found: usize = b.refs.iter().map(|r| r.found_of_full).sum();
    let full: usize = b.refs.iter().map(|r| r.full_races).sum();
    let slowdowns: Vec<f64> = b.refs.iter().map(|r| r.slowdown).collect();
    let setup: Vec<f64> = b.setups.iter().map(SetupTimes::total).collect();
    vec![
        med("e2e_events_per_s", &col(|r| r.events_per_s), "events/s"),
        med("e2e_s", &col(|r| r.e2e_s), "s"),
        tail_metric,
        med("run_s", &col(|r| r.run_s), "s"),
        med("detect_s", &col(|r| r.detect_s), "s"),
        metric(
            "log_bytes_per_event",
            bytes as f64 / events as f64,
            "B/event",
        ),
        metric("modeled_slowdown", geomean(&slowdowns), "x"),
        Metric {
            note: format!("{found} of {full} static races"),
            ..metric("detection_rate", found as f64 / full as f64, "ratio")
        },
        med("peak_heap_mb", &col(|r| r.peak_mb), "MB"),
        med("setup_s", &setup, "s"),
    ]
}

fn per_layer(b: &Bench) -> Vec<Metric> {
    // Per traced round: the mean over programs, or the sum for counts.
    let mean = |f: fn(&Traced) -> f64| -> Vec<f64> {
        b.traced
            .iter()
            .map(|ts| ts.iter().map(f).sum::<f64>() / ts.len() as f64)
            .collect()
    };
    let total = |f: fn(&Traced) -> f64| -> Vec<f64> {
        b.traced.iter().map(|ts| ts.iter().map(f).sum()).collect()
    };
    let ratio = |num: fn(&Traced) -> f64, den: fn(&Traced) -> f64| -> Vec<f64> {
        b.traced
            .iter()
            .map(|ts| ts.iter().map(num).sum::<f64>() / ts.iter().map(den).sum::<f64>())
            .collect()
    };
    let traced_e2e = mean(|t| t.e2e_s);
    let untraced_e2e: Vec<f64> = b.rounds.iter().map(|r| r.e2e_s).collect();
    let setup = |f: fn(&SetupTimes) -> f64| b.setups.iter().map(f).collect::<Vec<f64>>();
    let replay_peak: Vec<f64> = b
        .traced
        .iter()
        .map(|ts| ts.iter().map(|t| t.replay_peak_mb).fold(0.0, f64::max))
        .collect();
    vec![
        med("workloads.build_s", &setup(|s| s.build_s), "s"),
        med("sim.lower_s", &setup(|s| s.lower_s), "s"),
        med("sim.execute_s", &mean(|t| t.sim_s), "s"),
        med(
            "instrument.self_s",
            &mean(|t| t.instrument_s - t.sim_s),
            "s",
        ),
        med(
            "instrument.dispatch_checks",
            &total(|t| t.dispatch_checks as f64),
            "count",
        ),
        med("instrument.records", &total(|t| t.records as f64), "count"),
        med(
            "samplers.esr",
            &ratio(|t| t.mem_logged as f64, |t| t.mem_total as f64),
            "ratio",
        ),
        med(
            "instrument.sync_share",
            &ratio(|t| t.sync_records as f64, |t| t.records as f64),
            "ratio",
        ),
        med("log.encode_s", &mean(|t| t.encode_s), "s"),
        med("log.write_s", &mean(|t| t.write_s), "s"),
        med("log.bytes", &total(|t| t.bytes as f64), "B"),
        med("log.decode_s", &mean(|t| t.decode_s), "s"),
        med("detector.replay_s", &mean(|t| t.replay_s), "s"),
        med(
            "detector.records_per_s",
            &ratio(|t| t.decoded as f64, |t| t.replay_s),
            "records/s",
        ),
        med(
            "detector.epoch_escalations",
            &total(|t| t.escalations as f64),
            "count",
        ),
        med("detector.worker_busy_s", &mean(|t| t.worker_busy_s), "s"),
        med("detector.worker_idle_s", &mean(|t| t.worker_idle_s), "s"),
        med("detector.peak_heap_mb", &replay_peak, "MB"),
        med("unattributed_s", &mean(|t| t.gaps_s), "s"),
        med("trace.e2e_s", &traced_e2e, "s"),
        Metric {
            note: format!(
                "traced {:.6} s vs untraced {:.6} s per program",
                median(&traced_e2e),
                median(&untraced_e2e)
            ),
            ..metric(
                "trace.overhead_pct",
                (median(&traced_e2e) / median(&untraced_e2e) - 1.0) * 100.0,
                "%",
            )
        },
    ]
}

/// Each layer's share of the traced pipeline time, summed over every
/// traced program run; the shares add up to 1.
fn layer_shares(b: &Bench) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&Traced) -> f64| -> f64 { b.traced.iter().flatten().map(f).sum() };
    let e2e = sum(|t| t.e2e_s);
    [
        ("sim.execute", sum(|t| t.sim_s)),
        ("instrument.self", sum(|t| t.instrument_s - t.sim_s)),
        ("log.encode", sum(|t| t.encode_s)),
        ("log.write", sum(|t| t.write_s)),
        ("log.decode", sum(|t| t.decode_s)),
        ("detector.replay", sum(|t| t.replay_s)),
        ("unattributed", sum(|t| t.gaps_s)),
    ]
    .into_iter()
    .map(|(name, secs)| (name, secs / e2e))
    .collect()
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    println!("{heading}");
    for m in metrics {
        println!(
            "  {:<28} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<&'static Spec> = match args.workload.as_str() {
        "all" => SPECS.iter().collect(),
        name => match SPECS.iter().find(|s| s.name == name) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "perfbench: --workload expects sampled-apps, full-log, sync-heavy or all, \
                     got `{name}`"
                );
                return ExitCode::from(2);
            }
        },
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut spans = Spans::new();
    let mut benches = Vec::new();
    for spec in specs {
        match Bench::new(spec, &args, cpus, &mut spans) {
            Ok(b) => benches.push(b),
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }

    // Warm caches and lazy set-up with one checked, untimed round each.
    for b in &mut benches {
        b.round(&args, 0);
    }
    // Workloads and programs interleave, so host noise falls on all.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut run_id = 0;
    let mut k = 0;
    while k < MIN_ROUNDS || start.elapsed() < budget {
        let n = benches.len();
        for j in 0..n {
            let b = &mut benches[(j + k) % n];
            b.record_round(&args, k, &mut spans);
            if args.trace {
                b.traced_round(&args, k, &mut spans, &mut run_id);
            }
        }
        k += 1;
    }

    let mut json_metrics = String::new();
    let (mut attempted, mut failed) = (0, 0);
    let prefix = benches.len() > 1;
    for b in &benches {
        attempted += b.attempted;
        failed += b.failed;
        let e2e = end_to_end(b);
        println!(
            "workload {} (seed {}): {} rounds of {} programs, sampler {}, {} detect / {} \
             decode threads, {cpus} CPUs, closed loop, 1 client",
            b.spec.name,
            args.seed,
            b.rounds.len(),
            b.progs.len(),
            b.spec.sampler.short_name(),
            b.ctx.detect.threads,
            b.ctx.decode.threads,
        );
        print_metrics("end-to-end (untraced):", &e2e);
        println!(
            "  {:<28} {:>16.6} {:<9} {} of {} program runs",
            "failed_ratio",
            b.failed as f64 / b.attempted.max(1) as f64,
            "ratio",
            b.failed,
            b.attempted
        );
        let reported = if args.trace {
            let layers = per_layer(b);
            print_metrics(
                &format!("per-layer ({} traced rounds):", b.traced.len()),
                &layers,
            );
            println!("layer shares of traced pipeline time:");
            for (name, share) in layer_shares(b) {
                println!("  {name:<28} {:>7.2}%", share * 100.0);
            }
            layers
        } else {
            e2e
        };
        for m in reported {
            let name = if prefix {
                format!("{}/{}", b.spec.name, m.name)
            } else {
                m.name.to_owned()
            };
            let sep = if json_metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                json_metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        for i in 0..b.progs.len() {
            let _ = std::fs::remove_file(b.log_path(&args, i));
        }
    }
    if args.trace {
        let path = args
            .work_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match std::fs::File::create(&path)
            .and_then(|f| spans.write_json(std::io::BufWriter::new(f)))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json_metrics}}}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
