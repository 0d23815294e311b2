//! Measures per-sampler instrumentation overhead and writes
//! `BENCH_sampling.json` so future PRs can track what the dispatch check,
//! the memory log and the static prefilter each cost.
//!
//! Per workload × sampler (the §5.3 study set plus the `Full`/`None`
//! endpoints), over the identical schedule:
//!
//! * **modeled slowdown** — `(baseline + overhead) / baseline` from the
//!   instrumentation cost model (Table 5's metric), decomposed into the
//!   dispatch, memory-logging and sync-logging components;
//! * **sampling overhead** — the dispatch + memory-logging share alone.
//!   Sync logging is sampler-*independent* by design (never sampling sync
//!   ops is what keeps LiteRace sound, Figure 2), so this is the part a
//!   better sampler can actually shrink;
//! * **effective sampling rate** and logged-record counts;
//! * **prefilter activity** — statically skipped/residual access sites,
//!   skip-table size, and the run's skipped/residual access counts (only
//!   the `Prefiltered` sampler carries a table by default);
//! * **wall-clock** — best-of-`repeats` seconds for the instrumented run
//!   (execute + log into an in-memory v2 sink, no detection) next to the
//!   unobserved baseline, for context. Modeled numbers are deterministic;
//!   wall-clock on a shared 1-CPU host is noise-prone and never gated.
//!
//! With `--check-prefilter-overhead` the run exits nonzero unless the
//! `Prefiltered` sampler's *sampling* overhead (dispatch + memory logging)
//! stays at or below 0.9× plain TL-Ad's on every measured lock-heavy
//! workload (`apache-1`, `apache-2`). The gate is self-relative — both
//! sides come from the same deterministic cost model over the same
//! schedule — so it cannot flake on a slow shared runner.
//!
//! Usage: `bench_sampling [--scale smoke|paper] [--seed N]
//! [--workloads a,b,c] [--out PATH] [--repeats N]
//! [--check-prefilter-overhead]`

use std::time::Instant;

use literace::instrument::V2Sink;
use literace::prelude::*;
use literace::sim::{lower, PrefilterTable};
use literace::workloads::WorkloadId;

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

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_owned()
    }
}

struct SamplerRow {
    name: &'static str,
    esr: f64,
    logged_mem: u64,
    slowdown: f64,
    dispatch_cost: u64,
    mem_cost: u64,
    sync_cost: u64,
    /// (dispatch + mem_logging) / baseline — the sampler-attributable part.
    sampling_overhead: f64,
    prefilter_skipped: u64,
    prefilter_residual: u64,
    wall_secs: f64,
}

struct WorkloadRows {
    id: WorkloadId,
    baseline_cost: u64,
    baseline_secs: f64,
    total_mem: u64,
    /// Static classification of the workload's access sites.
    table: PrefilterTable,
    rows: Vec<SamplerRow>,
}

impl WorkloadRows {
    fn row(&self, name: &str) -> &SamplerRow {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no row for sampler {name}"))
    }
}

fn main() {
    let mut out_path = "BENCH_sampling.json".to_owned();
    let mut repeats = 3usize;
    let mut scale = Scale::Smoke;
    let mut seed = 1u64;
    let mut check_prefilter = false;
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
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed expects a number");
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => panic!("--scale expects smoke|paper, got {other:?}"),
                };
            }
            "--check-prefilter-overhead" => check_prefilter = true,
            "--workloads" => {
                i += 1;
                let list = args.get(i).expect("--workloads expects a list");
                workloads = Some(
                    list.split(',')
                        .map(|s| {
                            WorkloadId::from_name(s)
                                .unwrap_or_else(|| panic!("unknown workload {s}"))
                        })
                        .collect(),
                );
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let workloads = workloads.unwrap_or_else(|| {
        vec![
            WorkloadId::Apache1,
            WorkloadId::Apache2,
            WorkloadId::FirefoxRender,
            WorkloadId::LkrHash,
        ]
    });
    let mut samplers = SamplerKind::study_set().to_vec();
    samplers.push(SamplerKind::Always);
    samplers.push(SamplerKind::Never);

    let mut results: Vec<WorkloadRows> = Vec::new();
    for &id in &workloads {
        let w = build(id, scale);
        let cfg = RunConfig::seeded(seed);
        let table = PrefilterTable::build(&lower(&w.program));

        let mut baseline_cost = 0u64;
        let baseline_secs = time_best(repeats, || {
            let summary = run_baseline(&w.program, &cfg).expect("baseline runs");
            baseline_cost = summary.baseline_cost;
        });
        eprintln!(
            "[bench_sampling] {id}: baseline cost {baseline_cost}, \
             {} of {} sites statically ordered…",
            table.stats().skipped_sites,
            table.stats().total_sites,
        );

        let mut rows = Vec::new();
        for &kind in &samplers {
            // Modeled numbers are deterministic: one run suffices. The
            // execute-and-log wall clock is timed separately (no
            // detection; in-memory v2 sink as `run --log` would use).
            let (summary, out) = run_literace_with_sink(
                &w.program,
                kind,
                &cfg,
                V2Sink::new(Vec::new()),
            )
            .expect("instrumented run");
            out.log.finish().expect("vec sink");
            let wall_secs = time_best(repeats, || {
                let (_, out) = run_literace_with_sink(
                    &w.program,
                    kind,
                    &cfg,
                    V2Sink::new(Vec::new()),
                )
                .expect("instrumented run");
                out.log.finish().expect("vec sink");
            });
            let base = summary.baseline_cost.max(1) as f64;
            rows.push(SamplerRow {
                name: kind.short_name(),
                esr: out.stats.esr(),
                logged_mem: out.stats.logged_mem,
                slowdown: out.overhead.slowdown(summary.baseline_cost),
                dispatch_cost: out.overhead.dispatch,
                mem_cost: out.overhead.mem_logging,
                sync_cost: out.overhead.sync_logging,
                sampling_overhead: (out.overhead.dispatch + out.overhead.mem_logging) as f64
                    / base,
                prefilter_skipped: out.stats.prefilter_skipped,
                prefilter_residual: out.stats.prefilter_residual,
                wall_secs,
            });
            if rows.len() == 1 {
                // Every sampler sees the identical schedule; record the
                // shared denominator once.
                results.push(WorkloadRows {
                    id,
                    baseline_cost,
                    baseline_secs,
                    total_mem: out.stats.total_mem,
                    table: table.clone(),
                    rows: Vec::new(),
                });
            }
        }
        results.last_mut().expect("pushed above").rows = rows;
    }

    // Hand-rolled JSON: the vendored serde stand-in doesn't serialize.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sampling\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(
        "  \"notes\": \"Per workload x sampler over the identical schedule. \
         Modeled slowdown is (baseline + overhead) / baseline from the \
         instrumentation cost model and is deterministic; its dispatch / \
         mem_logging / sync_logging components are modeled instruction \
         counts. sampling_overhead_pct is the dispatch + memory-logging \
         share alone — sync logging is sampler-independent by design, so \
         this is the part a sampler or the static prefilter can shrink. \
         The prefilter fields report the static skip table (sites the \
         ordering analysis proved stack-private, consistently \
         lock-protected, or confined to single-threaded phases) and the \
         run's skipped/residual access counts; only the Prefiltered \
         sampler installs the table by default. Wall-clock rows time \
         execute+log into an in-memory v2 sink, best of N, and are \
         context only — on a shared 1-CPU host they are noise-prone and \
         never gated.\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (wi, wr) in results.iter().enumerate() {
        let ps = wr.table.stats();
        json.push_str("    {\n");
        json.push_str(&format!("      \"workload\": \"{}\",\n", wr.id.name()));
        json.push_str(&format!("      \"baseline_cost\": {},\n", wr.baseline_cost));
        json.push_str(&format!(
            "      \"baseline_secs\": {},\n",
            json_f64(wr.baseline_secs)
        ));
        json.push_str(&format!("      \"total_mem\": {},\n", wr.total_mem));
        json.push_str("      \"prefilter\": {\n");
        json.push_str(&format!("        \"total_sites\": {},\n", ps.total_sites));
        json.push_str(&format!("        \"skipped_sites\": {},\n", ps.skipped_sites));
        json.push_str(&format!("        \"stack_sites\": {},\n", ps.stack_sites));
        json.push_str(&format!("        \"lock_sites\": {},\n", ps.lock_sites));
        json.push_str(&format!("        \"phase_sites\": {},\n", ps.phase_sites));
        json.push_str(&format!(
            "        \"fully_skipped_functions\": {},\n",
            ps.fully_skipped_functions
        ));
        json.push_str(&format!(
            "        \"total_functions\": {},\n",
            ps.total_functions
        ));
        json.push_str(&format!(
            "        \"table_bytes\": {}\n",
            wr.table.table_bytes()
        ));
        json.push_str("      },\n");
        json.push_str("      \"samplers\": [\n");
        for (si, r) in wr.rows.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"sampler\": \"{}\", \"esr_pct\": {}, \
                 \"logged_mem\": {}, \"modeled_slowdown\": {}, \
                 \"dispatch_cost\": {}, \"mem_logging_cost\": {}, \
                 \"sync_logging_cost\": {}, \"sampling_overhead_pct\": {}, \
                 \"prefilter_skipped\": {}, \"prefilter_residual\": {}, \
                 \"wall_secs\": {}}}{}\n",
                r.name,
                json_f64(r.esr * 100.0),
                r.logged_mem,
                json_f64(r.slowdown),
                r.dispatch_cost,
                r.mem_cost,
                r.sync_cost,
                json_f64(r.sampling_overhead * 100.0),
                r.prefilter_skipped,
                r.prefilter_residual,
                json_f64(r.wall_secs),
                if si + 1 < wr.rows.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str("    }");
        if wi + 1 < results.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("output file is writable");
    eprintln!("[bench_sampling] wrote {out_path}");
    for wr in &results {
        let ps = wr.table.stats();
        println!(
            "{:<12} baseline {:>12}  {} sites ({} skipped: {} stack, {} lock, {} phase), table {} B",
            wr.id.name(),
            wr.baseline_cost,
            ps.total_sites,
            ps.skipped_sites,
            ps.stack_sites,
            ps.lock_sites,
            ps.phase_sites,
            wr.table.table_bytes(),
        );
        for r in &wr.rows {
            println!(
                "  {:<12} esr {:>7.3}%  slowdown {:>6.3}x  sampling ovh {:>7.3}%  (dispatch {:>10}, mem {:>10}, sync {:>10})  skipped {:>8}",
                r.name,
                r.esr * 100.0,
                r.slowdown,
                r.sampling_overhead * 100.0,
                r.dispatch_cost,
                r.mem_cost,
                r.sync_cost,
                r.prefilter_skipped,
            );
        }
    }

    if check_prefilter {
        // CI gate: on lock-heavy workloads the Prefiltered sampler's
        // dispatch + memory-logging overhead must be ≤ 0.9× plain TL-Ad's.
        // Both numbers come from the same deterministic cost model over
        // the identical schedule, so the gate cannot flake on host noise.
        let lock_heavy = [WorkloadId::Apache1, WorkloadId::Apache2];
        let mut failed = false;
        let mut gated = 0;
        for wr in &results {
            if !lock_heavy.contains(&wr.id) {
                continue;
            }
            gated += 1;
            let tl = wr.row("TL-Ad").sampling_overhead;
            let pf = wr.row("Prefiltered").sampling_overhead;
            let ratio = if tl > 0.0 { pf / tl } else { 0.0 };
            let verdict = if ratio <= 0.9 { "ok" } else { "FAIL" };
            eprintln!(
                "[bench_sampling] check {}: Prefiltered {:.3}% vs TL-Ad {:.3}% sampling overhead ({ratio:.2}x) {verdict}",
                wr.id.name(),
                pf * 100.0,
                tl * 100.0,
            );
            failed |= ratio > 0.9;
        }
        assert!(
            gated > 0,
            "--check-prefilter-overhead needs apache-1 or apache-2 in --workloads"
        );
        if failed {
            eprintln!(
                "[bench_sampling] --check-prefilter-overhead FAILED: the \
                 prefiltered sampler's dispatch+mem overhead exceeded 0.9x \
                 plain TL-Ad on a lock-heavy workload"
            );
            std::process::exit(1);
        }
        eprintln!("[bench_sampling] --check-prefilter-overhead passed");
    }
}
