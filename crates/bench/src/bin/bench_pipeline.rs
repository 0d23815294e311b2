//! Measures the log pipeline end to end and writes `BENCH_pipeline.json`
//! so future PRs can track codec density and ingest overlap.
//!
//! Per workload, over identical full-logging event logs:
//!
//! * **codec density** — encoded bytes and bytes/record for the v1
//!   fixed-width format vs the v2 blocked varint-delta format, and the
//!   resulting compression ratio;
//! * **decode throughput** — MB/s and records/s materializing an
//!   [`EventLog`] from each encoding: v1 fixed-width, v2 single-threaded,
//!   and v2 through the out-of-order decode pool at `--decode-threads`
//!   workers;
//! * **encode throughput** — records/s and MB/s pushing the same log
//!   through `LogWriterV2` at 0 encode workers (encode and commit on the
//!   caller's thread) vs the same writer at each `--encode-threads`
//!   worker count (raw block builders → background encode pool →
//!   in-order committer), both sealing every `--block-records` records;
//! * **run overhead** — wall-clock delta of a fully-logged run
//!   (`run_literace_with_sink`, always-on sampling) over the unlogged
//!   baseline (`run_baseline`), for the default `V2Sink` (0 workers) and
//!   the writer at the largest `--encode-threads` count — the number the
//!   encode pool exists to shrink;
//! * **end-to-end detection** — events/s for materialize-then-detect
//!   (`read_log_auto` + `detect_sharded`) vs streaming ingest (the decode
//!   pool + `detect_stream`, decode overlapping shard routing and
//!   replay), both over the v2 encoding at 4 worker threads, with the
//!   reports asserted byte-identical.
//!
//! Numbers are best-of-`repeats` wall-clock. On a single-core host the
//! streaming, pool and encode-pool rows measure pipelining overhead
//! rather than overlap gain — the `host_cpus` field records the context.
//!
//! With `--check-decode-vs-v1` the run exits nonzero unless pooled v2
//! decode sustains at least 0.9× the v1 *record* throughput on every
//! measured workload (records/s, not MB/s: v2 is ~3× denser, so equal
//! record throughput means ~3× fewer bytes read per record).
//!
//! With `--check-encode-vs-inline` the run exits nonzero unless the
//! writer at one encode worker sustains at least 0.9× its own 0-worker
//! record throughput on every measured workload (the handoff tax must
//! stay under 10%). The gate compares back-to-back
//! sample pairs and takes the best pair, so shared-runner noise hits
//! both sides of the ratio; scaling at the remaining worker counts is
//! reported but not gated — on a shared 1-CPU CI host the extra workers
//! have nowhere to run.
//!
//! Usage: `bench_pipeline [--scale smoke|paper] [--seeds N]
//! [--workloads a,b,c] [--out PATH] [--repeats N] [--threads N]
//! [--decode-threads N] [--encode-threads a,b,c] [--block-records N]
//! [--check-decode-vs-v1] [--check-encode-vs-inline]`

use std::time::Instant;

use literace::detector::{detect_sharded, detect_stream, DetectConfig, RaceReport};
use literace::instrument::{InstrumentConfig, Instrumenter, V2Sink};
use literace::log::{
    encode_v2, log_to_bytes, read_log_auto, DecodeOpts, EncodeOpts, LogWriterV2, RecordStream,
    DEFAULT_BLOCK_RECORDS,
};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig};

fn workload_log(id: WorkloadId, scale: Scale, seed: u64) -> (EventLog, u64) {
    let w = build(id, scale);
    let compiled = lower(&w.program);
    let mut inst =
        Instrumenter::new(SamplerKind::Always.build(seed), InstrumentConfig::default());
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 64), &mut inst)
        .expect("workload runs");
    (inst.finish().log, summary.non_stack_accesses)
}

/// Best-of-`repeats` wall-clock seconds for `f`.
fn time_best<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn per_sec(amount: f64, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        amount / secs
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".to_owned()
    }
}

struct Row {
    name: String,
    records: usize,
    v1_bytes: usize,
    v2_bytes: usize,
    v1_decode_mb_s: f64,
    v1_decode_rps: f64,
    v2_gv_decode_mb_s: f64,
    v2_gv_decode_rps: f64,
    v2_pool_decode_mb_s: f64,
    v2_pool_decode_rps: f64,
    materialized_eps: f64,
    streaming_eps: f64,
    inline_encode_rps: f64,
    inline_encode_mb_s: f64,
    /// (encode workers, records/s, MB/s) per measured thread count.
    pipe_encode: Vec<(usize, f64, f64)>,
    /// Best back-to-back ×1-vs-inline throughput ratio (the gate metric).
    pipe1_vs_inline_best: f64,
    inline_run_overhead_pct: f64,
    pipelined_run_overhead_pct: f64,
}

impl Row {
    fn compression(&self) -> f64 {
        self.v1_bytes as f64 / self.v2_bytes as f64
    }

    fn pipe_encode_rps(&self, threads: usize) -> f64 {
        self.pipe_encode
            .iter()
            .find(|(t, _, _)| *t == threads)
            .map_or(0.0, |(_, rps, _)| *rps)
    }
}

fn main() {
    let mut out_path = "BENCH_pipeline.json".to_owned();
    let mut repeats = 5usize;
    let mut scale = Scale::Smoke;
    let mut seeds = vec![1u64];
    let mut threads = 4usize;
    let mut decode_threads =
        std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let mut check_decode = false;
    let mut check_encode = false;
    let mut encode_threads = vec![1usize, 2, 4];
    let mut block_records = DEFAULT_BLOCK_RECORDS;
    let mut workloads: Option<Vec<WorkloadId>> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out expects a path").clone();
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--repeats expects a number");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads expects a number");
            }
            "--decode-threads" => {
                i += 1;
                decode_threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--decode-threads expects a number");
            }
            "--check-decode-vs-v1" => check_decode = true,
            "--check-encode-vs-inline" => check_encode = true,
            "--encode-threads" => {
                i += 1;
                let list = args.get(i).expect("--encode-threads expects a list");
                encode_threads = list
                    .split(',')
                    .map(|s| {
                        let n: usize = s
                            .parse()
                            .unwrap_or_else(|_| panic!("bad encode thread count {s}"));
                        assert!(n > 0, "--encode-threads counts must be > 0");
                        n
                    })
                    .collect();
            }
            "--block-records" => {
                i += 1;
                block_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--block-records expects a number > 0");
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => panic!("--scale expects smoke|paper, got {other:?}"),
                };
            }
            "--seeds" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds expects a number");
                seeds = (1..=n).collect();
            }
            "--workloads" => {
                i += 1;
                let list = args.get(i).expect("--workloads expects a list");
                workloads = Some(
                    list.split(',')
                        .map(|s| {
                            literace_bench::parse_workload(s)
                                .unwrap_or_else(|| panic!("unknown workload {s}"))
                        })
                        .collect(),
                );
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    if check_encode && !encode_threads.contains(&1) {
        // The gate is defined at one worker; make sure it gets measured.
        encode_threads.insert(0, 1);
    }
    let workloads = workloads.unwrap_or_else(|| {
        vec![
            WorkloadId::Apache1,
            WorkloadId::Apache2,
            WorkloadId::Dryad,
            WorkloadId::DryadStdlib,
        ]
    });

    let mut rows = Vec::new();
    for &id in &workloads {
        // Concatenate one full log per seed so the measured stream is big
        // enough to dominate timer noise.
        let mut log = EventLog::new();
        let mut non_stack = 0u64;
        for &seed in &seeds {
            let (l, ns) = workload_log(id, scale, seed);
            for r in &l {
                log.push(*r);
            }
            non_stack += ns;
        }
        let records = log.len();
        let v1: Vec<u8> = log_to_bytes(&log).to_vec();
        let v2: Vec<u8> = encode_v2(&log).to_vec();

        eprintln!(
            "[bench_pipeline] {id}: {records} records, v1 {} B, v2 {} B…",
            v1.len(),
            v2.len()
        );

        let v1_secs = time_best(repeats, || {
            let decoded = read_log_auto(&v1[..]).expect("v1 decodes");
            assert_eq!(decoded.len(), records);
        });
        let v2_secs = time_best(repeats, || {
            let decoded = read_log_auto(&v2[..]).expect("v2 decodes");
            assert_eq!(decoded.len(), records);
        });
        // The out-of-order pool, scanning an in-memory copy of the log
        // through the same stages `literace detect --decode-threads N` runs
        // over the file.
        let pool_bytes = literace::log::Bytes::from(v2.clone());
        let pool_secs = time_best(repeats, || {
            let stream = RecordStream::spawn_bytes(
                pool_bytes.clone(),
                DecodeOpts::with_threads(decode_threads),
            )
            .expect("pool spawns");
            let mut n = 0usize;
            for block in stream {
                n += block.expect("v2 decodes").len();
            }
            assert_eq!(n, records);
        });

        let cfg = DetectConfig::with_threads(threads);
        let mut mat_report: Option<RaceReport> = None;
        let mat_secs = time_best(repeats, || {
            let decoded = read_log_auto(&v2[..]).expect("v2 decodes");
            mat_report = Some(detect_sharded(&decoded, non_stack, &cfg));
        });
        let mat_report = mat_report.expect("materialized ran");

        let mut stream_report: Option<RaceReport> = None;
        let stream_secs = time_best(repeats, || {
            let stream = RecordStream::spawn_bytes(
                pool_bytes.clone(),
                DecodeOpts::with_threads(decode_threads),
            )
            .expect("pool spawns");
            stream_report = Some(
                detect_stream(stream, non_stack, &cfg).expect("stream detects"),
            );
        });
        assert_eq!(
            mat_report,
            stream_report.expect("streaming ran"),
            "{id}: streaming must be byte-identical to materialize-then-detect"
        );

        // Encode rows: the same record stream through the writer at 0
        // workers (encode and commit on the caller's thread) vs N workers
        // (raw blocks handed to a background encode pool, committed in
        // order); both seal every block_records records. Smoke-scale logs
        // encode in single-digit milliseconds — too short to time
        // reliably on a shared host — so the encode rows cycle the log
        // up to a 1M-record floor.
        const ENCODE_FLOOR: usize = 1_000_000;
        let encode_log: EventLog = if records >= ENCODE_FLOOR {
            log.clone()
        } else {
            let mut big = EventLog::new();
            while big.len() < ENCODE_FLOOR {
                for r in &log {
                    big.push(*r);
                }
            }
            big
        };
        let encode_records = encode_log.len();
        let encode_bytes = encode_v2(&encode_log).len();
        // Pool construction (thread spawn) happens once per sink and
        // amortizes over a real run's whole log, so the timed region is
        // the steady state: push through finish. Inline and pipelined
        // samples are interleaved within one repeat loop — the gate is a
        // ratio, and interleaving makes host-wide slowdowns (shared CI
        // runners) hit both sides instead of whichever phase ran second.
        let time_inline_once = || {
            let opts = EncodeOpts::default().block_records(block_records);
            let mut w = LogWriterV2::with_opts(Vec::with_capacity(encode_bytes), opts)
                .expect("inline writer");
            let t0 = Instant::now();
            for r in &encode_log {
                w.write_record(r).expect("vec write");
            }
            let out = w.finish().expect("vec sink");
            let secs = t0.elapsed().as_secs_f64();
            assert!(out.len() >= encode_bytes / 2, "inline writer produced a runt log");
            secs
        };
        let time_pipelined_once = |t: usize| {
            let opts = EncodeOpts::with_threads(t).block_records(block_records);
            let mut sink = LogWriterV2::with_opts(Vec::with_capacity(encode_bytes), opts)
                .expect("pool spawns");
            let t0 = Instant::now();
            for r in &encode_log {
                sink.write_record(r).expect("vec write");
            }
            let out = sink.finish().expect("vec sink");
            let secs = t0.elapsed().as_secs_f64();
            assert!(
                out.len() >= encode_bytes / 2,
                "pooled writer produced a runt log"
            );
            secs
        };
        let mut inline_secs = f64::INFINITY;
        let mut pipe_secs = vec![f64::INFINITY; encode_threads.len()];
        // Gate metric: per repeat, the ×1 sample is taken back-to-back
        // with the inline sample, and the gate takes the best *paired*
        // ratio — both sides of a pair see the same host conditions, so
        // a noisy neighbor mid-run cannot fail the gate on its own.
        let mut pipe1_vs_inline_best = 0.0f64;
        for _ in 0..repeats.max(5) {
            let inline_once = time_inline_once();
            inline_secs = inline_secs.min(inline_once);
            for (k, &t) in encode_threads.iter().enumerate() {
                let once = time_pipelined_once(t);
                pipe_secs[k] = pipe_secs[k].min(once);
                if t == 1 {
                    pipe1_vs_inline_best = pipe1_vs_inline_best.max(inline_once / once);
                }
            }
        }
        let pipe_encode: Vec<(usize, f64, f64)> = encode_threads
            .iter()
            .zip(&pipe_secs)
            .map(|(&t, &secs)| {
                (
                    t,
                    per_sec(encode_records as f64, secs),
                    per_sec(encode_bytes as f64 / 1e6, secs),
                )
            })
            .collect();

        // Run overhead: wall-clock tax of logging every event during the
        // run, relative to the unlogged baseline over the identical
        // schedule. This is the end-to-end number the pipelined path is
        // meant to shrink by moving encode off the hot thread.
        let run_cfg = RunConfig::seeded(seeds[0]);
        let workload = build(id, scale);
        let base_secs = time_best(repeats, || {
            run_baseline(&workload.program, &run_cfg).expect("baseline runs");
        });
        let inline_run_secs = time_best(repeats, || {
            let (_, out) = run_literace_with_sink(
                &workload.program,
                SamplerKind::Always,
                &run_cfg,
                V2Sink::new(Vec::new()),
            )
            .expect("inline run");
            out.log.finish().expect("vec sink");
        });
        let pipelined_run_secs = time_best(repeats, || {
            let sink = LogWriterV2::with_opts(
                Vec::new(),
                EncodeOpts::with_threads(*encode_threads.last().unwrap())
                    .block_records(block_records),
            )
            .expect("pool spawns");
            let (_, out) = run_literace_with_sink(
                &workload.program,
                SamplerKind::Always,
                &run_cfg,
                sink,
            )
            .expect("pipelined run");
            out.log.finish().expect("vec sink");
        });
        let overhead_pct = |logged: f64| {
            if base_secs > 0.0 {
                (logged / base_secs - 1.0) * 100.0
            } else {
                f64::NAN
            }
        };

        rows.push(Row {
            name: id.name().to_owned(),
            records,
            v1_bytes: v1.len(),
            v2_bytes: v2.len(),
            v1_decode_mb_s: per_sec(v1.len() as f64 / 1e6, v1_secs),
            v1_decode_rps: per_sec(records as f64, v1_secs),
            v2_gv_decode_mb_s: per_sec(v2.len() as f64 / 1e6, v2_secs),
            v2_gv_decode_rps: per_sec(records as f64, v2_secs),
            v2_pool_decode_mb_s: per_sec(v2.len() as f64 / 1e6, pool_secs),
            v2_pool_decode_rps: per_sec(records as f64, pool_secs),
            materialized_eps: per_sec(records as f64, mat_secs),
            streaming_eps: per_sec(records as f64, stream_secs),
            inline_encode_rps: per_sec(encode_records as f64, inline_secs),
            inline_encode_mb_s: per_sec(encode_bytes as f64 / 1e6, inline_secs),
            pipe_encode,
            pipe1_vs_inline_best,
            inline_run_overhead_pct: overhead_pct(inline_run_secs),
            pipelined_run_overhead_pct: overhead_pct(pipelined_run_secs),
        });
    }

    // Hand-rolled JSON: the vendored serde stand-in doesn't serialize.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"pipeline\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!("  \"seeds\": {},\n", seeds.len()));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!("  \"detect_threads\": {threads},\n"));
    json.push_str(&format!("  \"v2_decode_threads\": {decode_threads},\n"));
    json.push_str(&format!(
        "  \"encode_threads\": [{}],\n",
        encode_threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"encode_block_records\": {block_records},\n"));
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(
        "  \"notes\": \"identical full logs per workload; best of N runs. \
         Codec rows compare the fixed-width v1 encoding against blocked v2 \
         (group-varint payloads). Decode rows materialize \
         an EventLog: v1/gv via the sequential auto reader, pool via \
         the out-of-order worker pool at v2_decode_threads. End-to-end \
         rows feed the v2 encoding to the hb detector: 'materialized' \
         decodes the whole log then runs detect_sharded; 'streaming' \
         overlaps the decode pool, shard routing and replay via \
         detect_stream (byte-identical reports, asserted during the run). \
         Encode rows push the identical record stream through LogWriterV2 \
         at 0 encode workers vs the same writer (block builders, background \
         encode pool, in-order committer) at each encode_threads count; \
         both seal every encode_block_records records, so both emit the \
         same bytes. \
         Run-overhead rows compare a fully-logged always-sampled run \
         against the unlogged baseline over the same schedule. On a 1-CPU \
         host neither the pools nor streaming is expected to beat the \
         sequential paths.\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (wi, row) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"workload\": \"{}\",\n", row.name));
        json.push_str(&format!("      \"records\": {},\n", row.records));
        json.push_str(&format!("      \"v1_bytes\": {},\n", row.v1_bytes));
        json.push_str(&format!("      \"v2_bytes\": {},\n", row.v2_bytes));
        json.push_str(&format!(
            "      \"v1_bytes_per_record\": {},\n",
            json_f64(row.v1_bytes as f64 / row.records.max(1) as f64)
        ));
        json.push_str(&format!(
            "      \"v2_bytes_per_record\": {},\n",
            json_f64(row.v2_bytes as f64 / row.records.max(1) as f64)
        ));
        json.push_str(&format!(
            "      \"v1_over_v2_compression\": {},\n",
            json_f64(row.compression())
        ));
        json.push_str(&format!(
            "      \"v1_decode_mb_per_sec\": {},\n",
            json_f64(row.v1_decode_mb_s)
        ));
        json.push_str(&format!(
            "      \"v1_decode_records_per_sec\": {},\n",
            json_f64(row.v1_decode_rps)
        ));
        json.push_str(&format!(
            "      \"v2_gv_decode_mb_per_sec\": {},\n",
            json_f64(row.v2_gv_decode_mb_s)
        ));
        json.push_str(&format!(
            "      \"v2_gv_decode_records_per_sec\": {},\n",
            json_f64(row.v2_gv_decode_rps)
        ));
        json.push_str(&format!(
            "      \"v2_pool_decode_mb_per_sec\": {},\n",
            json_f64(row.v2_pool_decode_mb_s)
        ));
        json.push_str(&format!(
            "      \"v2_pool_decode_records_per_sec\": {},\n",
            json_f64(row.v2_pool_decode_rps)
        ));
        json.push_str(&format!(
            "      \"materialized_events_per_sec\": {},\n",
            json_f64(row.materialized_eps)
        ));
        json.push_str(&format!(
            "      \"streaming_events_per_sec\": {},\n",
            json_f64(row.streaming_eps)
        ));
        json.push_str(&format!(
            "      \"streaming_speedup\": {},\n",
            json_f64(row.streaming_eps / row.materialized_eps)
        ));
        json.push_str(&format!(
            "      \"inline_encode_records_per_sec\": {},\n",
            json_f64(row.inline_encode_rps)
        ));
        json.push_str(&format!(
            "      \"inline_encode_mb_per_sec\": {},\n",
            json_f64(row.inline_encode_mb_s)
        ));
        json.push_str("      \"pipelined_encode\": [\n");
        for (ei, (t, rps, mb_s)) in row.pipe_encode.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"threads\": {t}, \"records_per_sec\": {}, \
                 \"mb_per_sec\": {}, \"vs_inline\": {}}}{}\n",
                json_f64(*rps),
                json_f64(*mb_s),
                json_f64(rps / row.inline_encode_rps),
                if ei + 1 < row.pipe_encode.len() { "," } else { "" }
            ));
        }
        json.push_str("      ],\n");
        json.push_str(&format!(
            "      \"pipelined_x1_vs_inline_best_pair\": {},\n",
            json_f64(row.pipe1_vs_inline_best)
        ));
        json.push_str(&format!(
            "      \"inline_run_overhead_pct\": {},\n",
            json_f64(row.inline_run_overhead_pct)
        ));
        json.push_str(&format!(
            "      \"pipelined_run_overhead_pct\": {}\n",
            json_f64(row.pipelined_run_overhead_pct)
        ));
        json.push_str("    }");
        if wi + 1 < rows.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("output file is writable");
    eprintln!("[bench_pipeline] wrote {out_path}");
    for row in &rows {
        println!(
            "{:<16} v1 {:>9} B  v2 {:>9} B ({:.2}x)   decode v1 {:>7.1} MB/s  gv {:>6.1}  pool×{decode_threads} {:>6.1} MB/s   e2e mat {:>11.0} ev/s  stream {:>11.0} ev/s ({:.2}x)",
            row.name,
            row.v1_bytes,
            row.v2_bytes,
            row.compression(),
            row.v1_decode_mb_s,
            row.v2_gv_decode_mb_s,
            row.v2_pool_decode_mb_s,
            row.materialized_eps,
            row.streaming_eps,
            row.streaming_eps / row.materialized_eps,
        );
        let scaling = row
            .pipe_encode
            .iter()
            .map(|(t, rps, _)| format!("×{t} {:.0}", rps))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "{:<16} encode inline {:>9.0} rec/s ({:>6.1} MB/s)   pipe {scaling} rec/s   run overhead inline {:>+6.1}%  pipelined {:>+6.1}%",
            "", row.inline_encode_rps, row.inline_encode_mb_s,
            row.inline_run_overhead_pct, row.pipelined_run_overhead_pct,
        );
    }

    if check_decode {
        // CI gate: pooled v2 decode must sustain ≥ 0.9× the v1 record
        // throughput. Records/s, not MB/s — v2 reads ~3× fewer bytes for
        // the same records, so equal record rates at 0.3× the bytes is
        // already a clear win for the dense format.
        let mut failed = false;
        for row in &rows {
            let ratio = row.v2_pool_decode_rps / row.v1_decode_rps;
            let verdict = if ratio >= 0.9 { "ok" } else { "FAIL" };
            eprintln!(
                "[bench_pipeline] check {}: pool {:.0} rec/s vs v1 {:.0} rec/s ({ratio:.2}x) {verdict}",
                row.name, row.v2_pool_decode_rps, row.v1_decode_rps,
            );
            failed |= ratio < 0.9;
        }
        if failed {
            eprintln!(
                "[bench_pipeline] --check-decode-vs-v1 FAILED: parallel v2 \
                 decode fell below 0.9x v1 record throughput"
            );
            std::process::exit(1);
        }
        eprintln!("[bench_pipeline] --check-decode-vs-v1 passed");
    }

    if check_encode {
        // CI gate: the writer at ONE encode worker must sustain ≥ 0.9×
        // its own 0-worker record throughput — the block
        // handoff, channel and committer tax must stay under 10%. The
        // gate is self-relative (same host, same log, same run) so it is
        // stable on slow shared runners. Scaling at >1 workers is
        // reported but not gated: a 1-CPU host has nowhere to run them.
        let mut failed = false;
        for row in &rows {
            let pipe1 = row.pipe_encode_rps(1);
            let ratio = row.pipe1_vs_inline_best;
            let verdict = if ratio >= 0.9 { "ok" } else { "FAIL" };
            let scaling = row
                .pipe_encode
                .iter()
                .filter(|(t, _, _)| *t > 1)
                .map(|(t, rps, _)| format!("×{t} {:.2}x", rps / pipe1.max(1.0)))
                .collect::<Vec<_>>()
                .join(" ");
            eprintln!(
                "[bench_pipeline] check {}: pipelined×1 {:.0} rec/s vs inline {:.0} rec/s (best pair {ratio:.2}x) {verdict}  scaling vs ×1: {scaling}",
                row.name, pipe1, row.inline_encode_rps,
            );
            failed |= ratio < 0.9;
        }
        if failed {
            eprintln!(
                "[bench_pipeline] --check-encode-vs-inline FAILED: the \
                 writer at 1 encode worker fell below 0.9x its 0-worker \
                 record throughput"
            );
            std::process::exit(1);
        }
        eprintln!("[bench_pipeline] --check-encode-vs-inline passed");
    }
}
