//! Drivers that regenerate every table and figure of the paper's
//! evaluation (§5), printing paper-reference values next to measured ones.
//!
//! * [`SamplerStudy`] (one set of marked runs over the detection benchmarks)
//!   renders **Table 3** (effective sampling rates), **Table 4** (races
//!   found, rare/frequent), **Figure 4** (detection rate per sampler per
//!   benchmark) and **Figure 5** (rare vs frequent detection rates).
//! * [`OverheadStudy`] renders **Table 5** (slowdowns and log rates) and
//!   **Figure 6** (stacked overhead decomposition).

use serde::{Deserialize, Serialize};

use literace_samplers::SamplerKind;
use literace_sim::SimError;
use literace_workloads::{build, Scale, WorkloadId};

use crate::eval::{evaluate_program, EvalConfig, ProgramEval};
use crate::overhead::{measure_overhead, OverheadReport};
use crate::pipeline::RunConfig;
use crate::charts::BarChart;
use crate::tables::{mb_s, pct, slowdown, Table};

/// Renders Table 1: how each synchronization-operation class maps to its
/// `SyncVar` and whether additional synchronization is required for atomic
/// timestamping (§4.2). This is a design table; the mapping itself lives in
/// `literace-sim` and is exercised by every detection test.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: logging synchronization operations",
        &["Synchronization Op", "SyncVar", "Add'l Sync?"],
    );
    t.row(vec![
        "Lock / Unlock".into(),
        "lock object address".into(),
        "no".into(),
    ]);
    t.row(vec![
        "Wait / Notify".into(),
        "event handle".into(),
        "no".into(),
    ]);
    t.row(vec![
        "Fork / Join".into(),
        "child thread id".into(),
        "no".into(),
    ]);
    t.row(vec![
        "Atomic machine ops".into(),
        "target memory address".into(),
        "yes".into(),
    ]);
    t.row(vec![
        "Semaphore P / V (extension)".into(),
        "semaphore address".into(),
        "no".into(),
    ]);
    t.row(vec![
        "Barrier wait (extension)".into(),
        "barrier address".into(),
        "no".into(),
    ]);
    t.row(vec![
        "Alloc / Free (§4.3)".into(),
        "containing page number".into(),
        "no".into(),
    ]);
    t
}

/// Renders Table 2: the benchmark inventory with *measured* function counts
/// from the generated programs next to the paper's (the paper also reports
/// binary sizes, which have no analog here).
pub fn table2(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 2: benchmarks used",
        &["Benchmark", "Description", "#Fns", "(paper #Fns)"],
    );
    let paper_fns = |id: WorkloadId| match id {
        WorkloadId::DryadStdlib | WorkloadId::Dryad => "4788",
        WorkloadId::ConcrtMessaging | WorkloadId::ConcrtScheduling => "1889",
        WorkloadId::Apache1 | WorkloadId::Apache2 => "2178",
        WorkloadId::FirefoxStart | WorkloadId::FirefoxRender => "8192",
        WorkloadId::LkrHash | WorkloadId::LfList => "—",
    };
    for id in WorkloadId::all() {
        let w = build(id, scale);
        t.row(vec![
            id.name().to_owned(),
            w.spec.description.to_owned(),
            w.program.functions().len().to_string(),
            paper_fns(id).to_owned(),
        ]);
    }
    t
}

/// Results of the §5.3 sampler study over the detection benchmark set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplerStudy {
    /// Sampler kinds evaluated, in column order.
    pub samplers: Vec<SamplerKind>,
    /// Per-workload evaluation results.
    pub per_workload: Vec<(WorkloadId, ProgramEval)>,
}

/// Runs the sampler study over the paper's detection benchmarks.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_sampler_study(scale: Scale, seeds: &[u64]) -> Result<SamplerStudy, SimError> {
    run_sampler_study_on(scale, seeds, &WorkloadId::detection_set())
}

/// Runs the sampler study over an explicit workload list. The workloads
/// are independent, so each is built and evaluated on its own scoped OS
/// thread; generation and evaluation are deterministic, so the results do
/// not depend on the interleaving.
///
/// # Errors
///
/// Propagates the first simulator error, in workload order.
pub fn run_sampler_study_on(
    scale: Scale,
    seeds: &[u64],
    workloads: &[WorkloadId],
) -> Result<SamplerStudy, SimError> {
    let samplers = SamplerKind::study_set().to_vec();
    let cfg = EvalConfig {
        seeds: seeds.to_vec(),
        samplers: samplers.clone(),
        ..EvalConfig::default()
    };
    // Slot per workload, filled from worker threads; parking_lot's mutex is
    // cheap enough to take per completed workload.
    let results: parking_lot::Mutex<Vec<Option<Result<ProgramEval, SimError>>>> =
        parking_lot::Mutex::new((0..workloads.len()).map(|_| None).collect());
    crossbeam::thread::scope(|scope| {
        for (slot, &id) in workloads.iter().enumerate() {
            let cfg = &cfg;
            let results = &results;
            scope.spawn(move |_| {
                let w = build(id, scale);
                let eval = evaluate_program(&w.program, cfg);
                results.lock()[slot] = Some(eval);
            });
        }
    })
    .expect("evaluation workers do not panic");
    let mut per_workload = Vec::with_capacity(workloads.len());
    for (slot, &id) in workloads.iter().enumerate() {
        let eval = results.lock()[slot]
            .take()
            .expect("every worker fills its slot")?;
        per_workload.push((id, eval));
    }
    Ok(SamplerStudy {
        samplers,
        per_workload,
    })
}

impl SamplerStudy {
    /// Weighted-average effective sampling rate for sampler `i` — weights
    /// are each benchmark's executed memory-access count (Table 3).
    pub fn weighted_esr(&self, i: usize) -> f64 {
        let total: u64 = self.per_workload.iter().map(|(_, e)| e.total_mem).sum();
        if total == 0 {
            return 0.0;
        }
        let logged: u64 = self
            .per_workload
            .iter()
            .map(|(_, e)| e.samplers[i].logged_mem)
            .sum();
        logged as f64 / total as f64
    }

    /// Unweighted average ESR for sampler `i` (Table 3's second column).
    pub fn average_esr(&self, i: usize) -> f64 {
        if self.per_workload.is_empty() {
            return 0.0;
        }
        self.per_workload
            .iter()
            .map(|(_, e)| e.samplers[i].esr)
            .sum::<f64>()
            / self.per_workload.len() as f64
    }

    /// Average overall detection rate for sampler `i` (Figure 4's Average).
    pub fn average_detection(&self, i: usize) -> f64 {
        if self.per_workload.is_empty() {
            return 0.0;
        }
        self.per_workload
            .iter()
            .map(|(_, e)| e.samplers[i].detection_rate)
            .sum::<f64>()
            / self.per_workload.len() as f64
    }

    fn average_rate(&self, i: usize, rare: bool) -> f64 {
        if self.per_workload.is_empty() {
            return 0.0;
        }
        self.per_workload
            .iter()
            .map(|(_, e)| {
                let s = &e.samplers[i];
                if rare {
                    s.rare_detection_rate
                } else {
                    s.frequent_detection_rate
                }
            })
            .sum::<f64>()
            / self.per_workload.len() as f64
    }

    /// Renders Table 3: sampler descriptions and effective sampling rates.
    /// The paper's reference ESRs are shown alongside.
    pub fn table3(&self) -> Table {
        let paper_weighted = [1.8, 5.2, 1.3, 10.0, 9.9, 24.8, 98.9];
        let paper_avg = [8.2, 11.5, 2.9, 10.3, 9.6, 24.0, 92.3];
        let mut t = Table::new(
            "Table 3: samplers and effective sampling rates",
            &[
                "Sampler",
                "Weighted ESR",
                "(paper)",
                "Average ESR",
                "(paper)",
            ],
        );
        for (i, k) in self.samplers.iter().enumerate() {
            t.row(vec![
                k.short_name().to_owned(),
                pct(self.weighted_esr(i)),
                paper_weighted
                    .get(i)
                    .map(|p| format!("{p}%"))
                    .unwrap_or_default(),
                pct(self.average_esr(i)),
                paper_avg
                    .get(i)
                    .map(|p| format!("{p}%"))
                    .unwrap_or_default(),
            ]);
        }
        t
    }

    /// Renders Table 4: static races found under full logging (median over
    /// seeds), split rare/frequent, with the paper's counts.
    pub fn table4(&self) -> Table {
        let mut t = Table::new(
            "Table 4: static data races found (full logging)",
            &[
                "Benchmark",
                "races",
                "(paper)",
                "rare",
                "(paper)",
                "freq",
                "(paper)",
            ],
        );
        for (id, e) in &self.per_workload {
            let spec = literace_workloads::spec(*id);
            let fmt_opt = |o: Option<u32>| o.map(|v| v.to_string()).unwrap_or_else(|| "—".into());
            t.row(vec![
                id.name().to_owned(),
                e.truth.static_races_median.to_string(),
                fmt_opt(spec.paper.races),
                e.truth.rare_median.to_string(),
                fmt_opt(spec.paper.rare),
                e.truth.frequent_median.to_string(),
                fmt_opt(spec.paper.frequent),
            ]);
        }
        t
    }

    /// Renders Figure 4: per-benchmark detection rate for every sampler,
    /// plus the average row and each sampler's weighted ESR.
    pub fn fig4(&self) -> Table {
        let mut headers: Vec<&str> = vec!["Benchmark"];
        let names: Vec<String> = self
            .samplers
            .iter()
            .map(|k| k.short_name().to_owned())
            .collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        let mut t = Table::new(
            "Figure 4: proportion of static data races found by sampler",
            &headers,
        );
        for (id, e) in &self.per_workload {
            let mut row = vec![id.name().to_owned()];
            row.extend(e.samplers.iter().map(|s| pct(s.detection_rate)));
            t.row(row);
        }
        let mut avg = vec!["Average".to_owned()];
        avg.extend((0..self.samplers.len()).map(|i| pct(self.average_detection(i))));
        t.row(avg);
        let mut esr = vec!["Weighted Avg Eff Sampling Rate".to_owned()];
        esr.extend((0..self.samplers.len()).map(|i| pct(self.weighted_esr(i))));
        t.row(esr);
        t
    }

    /// Renders a stability companion to Figure 4: each sampler's average
    /// detection rate with its per-seed minimum and maximum across the
    /// study's runs, pooled over benchmarks — how much a single deployment
    /// can deviate from the average (the paper reports only averages of
    /// three runs).
    pub fn fig4_stability(&self) -> Table {
        let mut t = Table::new(
            "Figure 4 companion: per-seed detection-rate spread",
            &["Sampler", "average", "min seed", "max seed"],
        );
        for (i, k) in self.samplers.iter().enumerate() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, e) in &self.per_workload {
                lo = lo.min(e.samplers[i].detection_rate_min);
                hi = hi.max(e.samplers[i].detection_rate_max);
            }
            t.row(vec![
                k.short_name().to_owned(),
                pct(self.average_detection(i)),
                pct(lo.min(1.0)),
                pct(hi.max(0.0)),
            ]);
        }
        t
    }

    /// Renders Figure 4 as a bar chart (the paper's presentation).
    pub fn fig4_chart(&self) -> BarChart {
        let mut c = BarChart::new(
            "Figure 4 (chart): proportion of static data races found",
            48,
        );
        for (id, e) in &self.per_workload {
            let mut g = c.group(id.name());
            for s in &e.samplers {
                g = g.bar(&s.name, s.detection_rate);
            }
        }
        let mut g = c.group("Average");
        for i in 0..self.samplers.len() {
            let name = self.samplers[i].short_name().to_owned();
            g = g.bar(&name, self.average_detection(i));
        }
        c
    }

    /// Renders Figure 5 as two bar charts (rare, frequent averages).
    pub fn fig5_charts(&self) -> (BarChart, BarChart) {
        let make = |rare: bool| {
            let title = if rare {
                "Figure 5 (chart, left): rare race detection rate (average)"
            } else {
                "Figure 5 (chart, right): frequent race detection rate (average)"
            };
            let mut c = BarChart::new(title, 48);
            let mut g = c.group("Average over benchmarks");
            for i in 0..self.samplers.len() {
                let name = self.samplers[i].short_name().to_owned();
                g = g.bar(&name, self.average_rate(i, rare));
            }
            c
        };
        (make(true), make(false))
    }

    /// Renders Figure 5: detection rates split into rare and frequent.
    pub fn fig5(&self) -> (Table, Table) {
        let make = |rare: bool| {
            let title = if rare {
                "Figure 5 (left): rare data-race detection rate"
            } else {
                "Figure 5 (right): frequent data-race detection rate"
            };
            let mut headers: Vec<&str> = vec!["Benchmark"];
            let names: Vec<String> = self
                .samplers
                .iter()
                .map(|k| k.short_name().to_owned())
                .collect();
            headers.extend(names.iter().map(|s| s.as_str()));
            let mut t = Table::new(title, &headers);
            for (id, e) in &self.per_workload {
                let mut row = vec![id.name().to_owned()];
                row.extend(e.samplers.iter().map(|s| {
                    pct(if rare {
                        s.rare_detection_rate
                    } else {
                        s.frequent_detection_rate
                    })
                }));
                t.row(row);
            }
            let mut avg = vec!["Average".to_owned()];
            avg.extend((0..self.samplers.len()).map(|i| pct(self.average_rate(i, rare))));
            t.row(avg);
            t
        };
        (make(true), make(false))
    }
}

impl SamplerStudy {
    /// Renders the complete detection side of the evaluation (Tables 3–4,
    /// Figures 4–5 with charts) as a markdown document fragment, for
    /// writing regenerated artifacts to disk.
    pub fn to_markdown(&self) -> String {
        let (rare, frequent) = self.fig5();
        let (rare_chart, frequent_chart) = self.fig5_charts();
        format!(
            "## Sampler study (§5.3)\n\n```text\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n```\n",
            self.table3(),
            self.table4(),
            self.fig4(),
            self.fig4_chart(),
            self.fig4_stability(),
            rare,
            frequent,
            format_args!("{rare_chart}\n{frequent_chart}"),
        )
    }
}

/// Results of the §5.4 overhead study over all ten workloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadStudy {
    /// Per-workload overhead reports.
    pub rows: Vec<(WorkloadId, OverheadReport)>,
}

/// Runs the overhead study over all workloads (micro-benchmarks included).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_overhead_study(scale: Scale, seed: u64) -> Result<OverheadStudy, SimError> {
    run_overhead_study_on(scale, seed, &WorkloadId::all())
}

/// Runs the overhead study over an explicit workload list.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_overhead_study_on(
    scale: Scale,
    seed: u64,
    workloads: &[WorkloadId],
) -> Result<OverheadStudy, SimError> {
    let cfg = RunConfig::seeded(seed);
    let mut rows = Vec::new();
    for &id in workloads {
        let w = build(id, scale);
        let report = measure_overhead(&w.program, &cfg)?;
        rows.push((id, report));
    }
    Ok(OverheadStudy { rows })
}

impl OverheadStudy {
    /// Renders Table 5: slowdowns and log rates, LiteRace vs full logging,
    /// with the paper's reference values.
    pub fn table5(&self) -> Table {
        let mut t = Table::new(
            "Table 5: performance and log-size overhead",
            &[
                "Benchmark",
                "LiteRace slow",
                "(paper)",
                "Full slow",
                "(paper)",
                "LR MB/s",
                "(paper)",
                "Full MB/s",
                "(paper)",
            ],
        );
        let mut lr_sum = 0.0;
        let mut full_sum = 0.0;
        for (id, r) in &self.rows {
            let paper = literace_workloads::spec(*id).paper;
            lr_sum += r.literace_slowdown();
            full_sum += r.full_logging_slowdown();
            t.row(vec![
                id.name().to_owned(),
                slowdown(r.literace_slowdown()),
                slowdown(paper.literace_slowdown),
                slowdown(r.full_logging_slowdown()),
                slowdown(paper.full_logging_slowdown),
                mb_s(r.literace.log_mb_per_s()),
                mb_s(paper.literace_mb_s),
                mb_s(r.full_logging.log_mb_per_s()),
                mb_s(paper.full_logging_mb_s),
            ]);
        }
        let n = self.rows.len().max(1) as f64;
        t.row(vec![
            "Average".to_owned(),
            slowdown(lr_sum / n),
            "1.47x".to_owned(),
            slowdown(full_sum / n),
            "9.09x".to_owned(),
            String::new(),
            "28.6".to_owned(),
            String::new(),
            "396.5".to_owned(),
        ]);
        t
    }

    /// Renders Figure 6 as a bar chart of LiteRace slowdowns.
    pub fn fig6_chart(&self) -> BarChart {
        let mut c = BarChart::new(
            "Figure 6 (chart): LiteRace slowdown over uninstrumented baseline",
            48,
        );
        let mut g = c.group("Slowdown (x)");
        for (id, r) in &self.rows {
            g = g.bar(id.name(), r.literace_slowdown());
        }
        c.raw_values()
    }

    /// Renders Figure 6: the stacked overhead decomposition, as each
    /// configuration's slowdown over baseline.
    pub fn fig6(&self) -> Table {
        let mut t = Table::new(
            "Figure 6: LiteRace overhead decomposition (slowdown over baseline)",
            &[
                "Benchmark",
                "baseline",
                "+dispatch",
                "+sync log",
                "+mem log (LiteRace)",
            ],
        );
        for (id, r) in &self.rows {
            t.row(vec![
                id.name().to_owned(),
                "1.00x".to_owned(),
                slowdown(r.dispatch_only.slowdown(r.baseline_cost)),
                slowdown(r.dispatch_sync.slowdown(r.baseline_cost)),
                slowdown(r.literace.slowdown(r.baseline_cost)),
            ]);
        }
        t
    }
}

impl OverheadStudy {
    /// Renders the overhead side of the evaluation (Table 5, Figure 6) as a
    /// markdown document fragment.
    pub fn to_markdown(&self) -> String {
        format!(
            "## Overhead study (§5.4)\n\n```text\n{}\n{}\n{}\n```\n",
            self.table5(),
            self.fig6(),
            self.fig6_chart(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sampler_study_renders_all_tables() {
        let study =
            run_sampler_study_on(Scale::Smoke, &[1], &[WorkloadId::Dryad]).unwrap();
        assert!(study.table3().to_string().contains("TL-Ad"));
        assert!(study.table4().to_string().contains("Dryad"));
        assert!(study.fig4().to_string().contains("Average"));
        let (rare, freq) = study.fig5();
        assert!(rare.to_string().contains("rare"));
        assert!(freq.to_string().contains("frequent"));
    }

    #[test]
    fn table1_and_table2_render() {
        let t1 = table1().to_string();
        assert!(t1.contains("Atomic machine ops"));
        assert!(t1.contains("child thread id"));
        let t2 = table2(Scale::Smoke).to_string();
        assert!(t2.contains("Firefox Render"));
        assert!(t2.contains("4788"));
    }

    #[test]
    fn parallel_study_matches_sequential() {
        // The study evaluates its workloads on parallel threads; each one
        // evaluated alone, one after another, gives the same results.
        let ids = [WorkloadId::Dryad, WorkloadId::LkrHash];
        let par = run_sampler_study_on(Scale::Smoke, &[1], &ids).unwrap();
        let cfg = EvalConfig {
            seeds: vec![1],
            samplers: par.samplers.clone(),
            ..EvalConfig::default()
        };
        let seq = SamplerStudy {
            samplers: par.samplers.clone(),
            per_workload: ids
                .iter()
                .map(|&id| {
                    (
                        id,
                        evaluate_program(&build(id, Scale::Smoke).program, &cfg).unwrap(),
                    )
                })
                .collect(),
        };
        for (table, want) in [(par.table3(), seq.table3()), (par.table4(), seq.table4())] {
            assert_eq!(table.to_string(), want.to_string());
        }
        assert_eq!(par.fig4().to_string(), seq.fig4().to_string());
    }

    #[test]
    fn markdown_fragments_render() {
        let study =
            run_sampler_study_on(Scale::Smoke, &[1], &[WorkloadId::Dryad]).unwrap();
        let md = study.to_markdown();
        assert!(md.contains("## Sampler study"));
        assert!(md.contains("Table 4"));
        let os = run_overhead_study_on(Scale::Smoke, 1, &[WorkloadId::Dryad]).unwrap();
        let md = os.to_markdown();
        assert!(md.contains("Table 5"));
        assert!(md.contains("Figure 6"));
    }

    #[test]
    fn smoke_overhead_study_renders() {
        let study =
            run_overhead_study_on(Scale::Smoke, 1, &[WorkloadId::LkrHash]).unwrap();
        let t5 = study.table5().to_string();
        assert!(t5.contains("LKRHash"));
        let f6 = study.fig6().to_string();
        assert!(f6.contains("+dispatch"));
    }
}
