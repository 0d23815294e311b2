//! The §5.3 sampler-effectiveness methodology.
//!
//! One marked run ([`Instrumenter::marked`]) produces a full log where
//! every memory record carries a bitmask of the samplers that would have
//! logged it. Ground truth is detection over the full log; each sampler's
//! result is detection over its subset, which is that sampler's production
//! log on the same schedule, under the same instrumentation config.
//! Rates are averaged over several scheduler seeds (the paper runs each
//! benchmark three times and averages).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use literace_detector::{DetectConfig, RaceReport};
use literace_instrument::{InstrumentConfig, Instrumenter};
use literace_log::SamplerMask;
use literace_samplers::SamplerKind;
use literace_sim::{
    lower, ChunkedRandomScheduler, Machine, MachineConfig, Pc, Program, SimError,
};

use crate::pipeline::{instrument_config_for, runs_behind_prefilter};

/// Configuration for a sampler-comparison evaluation.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Scheduler seeds; one marked run per seed.
    pub seeds: Vec<u64>,
    /// The samplers to compare (≤ 32).
    pub samplers: Vec<SamplerKind>,
    /// Scheduler chunk size.
    pub sched_quantum: u32,
    /// Machine limits.
    pub machine: MachineConfig,
    /// Instrumentation knobs (alloc-sync etc.).
    pub instrument: InstrumentConfig,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            seeds: vec![1, 2, 3],
            samplers: SamplerKind::paper_set().to_vec(),
            sched_quantum: 64,
            machine: MachineConfig::default(),
            instrument: InstrumentConfig::default(),
        }
    }
}

/// Per-sampler aggregate over all seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplerEval {
    /// Sampler short name.
    pub name: String,
    /// Effective sampling rate: logged / executed memory ops, pooled over
    /// seeds (Table 3).
    pub esr: f64,
    /// Fraction of ground-truth static races detected, averaged per seed
    /// (Figure 4).
    pub detection_rate: f64,
    /// Lowest per-seed detection rate (stability across interleavings).
    pub detection_rate_min: f64,
    /// Highest per-seed detection rate.
    pub detection_rate_max: f64,
    /// Detection rate over ground-truth *rare* races (Figure 5, left).
    pub rare_detection_rate: f64,
    /// Detection rate over ground-truth *frequent* races (Figure 5, right).
    pub frequent_detection_rate: f64,
    /// Total memory records this sampler would have logged (all seeds).
    pub logged_mem: u64,
}

/// Ground-truth statistics, pooled over seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Static races found by full logging, median over seeds (Table 4).
    pub static_races_median: u64,
    /// Rare static races, median over seeds.
    pub rare_median: u64,
    /// Frequent static races, median over seeds.
    pub frequent_median: u64,
    /// Static races per seed.
    pub per_seed: Vec<u64>,
}

/// The result of evaluating all samplers on one program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramEval {
    /// Ground-truth race statistics.
    pub truth: GroundTruth,
    /// Per-sampler aggregates, index-aligned with the config's samplers.
    pub samplers: Vec<SamplerEval>,
    /// Memory accesses executed, summed over seeds.
    pub total_mem: u64,
    /// Non-stack memory accesses executed, summed over seeds.
    pub non_stack: u64,
}

fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// Runs the marked-run evaluation on one program.
///
/// # Errors
///
/// Propagates simulator errors from any seed's run.
pub fn evaluate_program(program: &Program, cfg: &EvalConfig) -> Result<ProgramEval, SimError> {
    let compiled = lower(program);
    let n = cfg.samplers.len();
    let mut per_sampler_logged = vec![0u64; n];
    let mut per_sampler_det = vec![0.0f64; n];
    let mut per_sampler_det_min = vec![f64::INFINITY; n];
    let mut per_sampler_det_max = vec![f64::NEG_INFINITY; n];
    let mut per_sampler_rare = vec![(0u64, 0u64); n]; // (found, truth)
    let mut per_sampler_freq = vec![(0u64, 0u64); n];
    let mut truth_counts = Vec::new();
    let mut rare_counts = Vec::new();
    let mut freq_counts = Vec::new();
    let mut total_mem = 0u64;
    let mut non_stack = 0u64;

    // Each sampler runs behind the static prefilter exactly when its
    // production run would.
    let prefiltered = cfg
        .samplers
        .iter()
        .enumerate()
        .filter(|(_, k)| runs_behind_prefilter(**k, &cfg.instrument))
        .fold(SamplerMask::EMPTY, |m, (i, _)| m.union(SamplerMask::bit(i)));
    let icfg = instrument_config_for(&compiled, &cfg.samplers, &cfg.instrument);

    for &seed in &cfg.seeds {
        let samplers = cfg.samplers.iter().map(|k| k.build(seed)).collect();
        let mut inst = Instrumenter::marked(samplers, icfg.clone(), prefiltered);
        let mut sched = ChunkedRandomScheduler::seeded(seed, cfg.sched_quantum);
        let summary = Machine::new(&compiled, cfg.machine).run(&mut sched, &mut inst)?;
        let out = inst.finish();
        total_mem += out.stats.total_mem;
        non_stack += summary.non_stack_accesses;

        // Ground truth: full log.
        let truth = detect_log(&out.log, summary.non_stack_accesses);
        let (truth_rare, truth_freq) = truth.split_by_rarity();
        let rare_keys: HashSet<(Pc, Pc)> = truth_rare.iter().map(|s| s.pcs).collect();
        let freq_keys: HashSet<(Pc, Pc)> = truth_freq.iter().map(|s| s.pcs).collect();
        truth_counts.push(truth.static_count() as u64);
        rare_counts.push(rare_keys.len() as u64);
        freq_counts.push(freq_keys.len() as u64);

        for i in 0..n {
            let subset = out.log.sampler_subset(i);
            per_sampler_logged[i] += subset.mem_count() as u64;
            let found = detect_log(&subset, summary.non_stack_accesses);
            let rate = found.detection_rate_against(&truth);
            per_sampler_det[i] += rate;
            per_sampler_det_min[i] = per_sampler_det_min[i].min(rate);
            per_sampler_det_max[i] = per_sampler_det_max[i].max(rate);
            let found_keys = found.static_keys();
            per_sampler_rare[i].0 +=
                rare_keys.iter().filter(|k| found_keys.contains(*k)).count() as u64;
            per_sampler_rare[i].1 += rare_keys.len() as u64;
            per_sampler_freq[i].0 +=
                freq_keys.iter().filter(|k| found_keys.contains(*k)).count() as u64;
            per_sampler_freq[i].1 += freq_keys.len() as u64;
        }
    }

    let seeds = cfg.seeds.len().max(1) as f64;
    let samplers = cfg
        .samplers
        .iter()
        .enumerate()
        .map(|(i, k)| SamplerEval {
            name: k.short_name().to_owned(),
            esr: if total_mem == 0 {
                0.0
            } else {
                per_sampler_logged[i] as f64 / total_mem as f64
            },
            detection_rate: per_sampler_det[i] / seeds,
            detection_rate_min: per_sampler_det_min[i].min(1.0),
            detection_rate_max: per_sampler_det_max[i].max(0.0),
            rare_detection_rate: ratio(per_sampler_rare[i]),
            frequent_detection_rate: ratio(per_sampler_freq[i]),
            logged_mem: per_sampler_logged[i],
        })
        .collect();
    Ok(ProgramEval {
        truth: GroundTruth {
            static_races_median: median(truth_counts.clone()),
            rare_median: median(rare_counts),
            frequent_median: median(freq_counts),
            per_seed: truth_counts,
        },
        samplers,
        total_mem,
        non_stack,
    })
}

fn ratio((found, total): (u64, u64)) -> f64 {
    if total == 0 {
        1.0
    } else {
        found as f64 / total as f64
    }
}

fn detect_log(log: &literace_log::EventLog, non_stack: u64) -> RaceReport {
    crate::pipeline::detect_event_log(log, non_stack, &DetectConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::{ProgramBuilder, Rvalue};

    /// A small program with one cold race (TL should catch, UCP should not)
    /// and one hot race.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let cold_g = b.global_word("cold");
        let hot_g = b.global_word("hot");
        let shared = b.function("shared_util", 0, move |f| {
            f.compute(1);
            f.write(cold_g);
        });
        // One thread makes shared_util hot; a late thread calls it once.
        let hot_caller = b.function("hot_caller", 0, move |f| {
            f.loop_(5_000, |f| {
                f.call(shared);
            });
        });
        let cold_caller = b.function("cold_caller", 0, move |f| {
            f.loop_(60, |f| {
                f.write_stack(0);
            });
            f.call(shared);
        });
        // The racy hot access lives in a function *called* per iteration,
        // as in real programs — inline loop bodies would be fully logged
        // whenever their (single) enclosing function execution is sampled.
        let hot_step = b.function("hot_step", 0, move |f| {
            f.write(hot_g);
            f.compute(2);
        });
        let hot_racer = b.function("hot_racer", 0, move |f| {
            f.loop_(2_000, |f| {
                f.call(hot_step);
            });
        });
        b.entry_fn("main", move |f| {
            let mut hs = vec![];
            hs.push(f.spawn(hot_caller, Rvalue::Const(0)));
            hs.push(f.spawn(hot_racer, Rvalue::Const(0)));
            hs.push(f.spawn(hot_racer, Rvalue::Const(0)));
            hs.push(f.spawn(cold_caller, Rvalue::Const(0)));
            for h in hs {
                f.join(h);
            }
        });
        b.build().unwrap()
    }

    #[test]
    fn ground_truth_finds_both_races() {
        let eval = evaluate_program(&mixed_program(), &EvalConfig::default()).unwrap();
        assert_eq!(eval.truth.static_races_median, 2);
    }

    #[test]
    fn full_sampler_detects_everything() {
        let cfg = EvalConfig {
            samplers: vec![SamplerKind::Always],
            ..EvalConfig::default()
        };
        let eval = evaluate_program(&mixed_program(), &cfg).unwrap();
        assert!((eval.samplers[0].detection_rate - 1.0).abs() < 1e-9);
        assert!((eval.samplers[0].esr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tl_ad_beats_global_adaptive_and_ucp_on_the_cold_race() {
        let cfg = EvalConfig {
            samplers: vec![
                SamplerKind::TlAdaptive,
                SamplerKind::GlobalAdaptive,
                SamplerKind::UnCold,
            ],
            seeds: vec![1, 2, 3, 4, 5],
            ..EvalConfig::default()
        };
        let eval = evaluate_program(&mixed_program(), &cfg).unwrap();
        let tl = &eval.samplers[0];
        let gad = &eval.samplers[1];
        let ucp = &eval.samplers[2];
        assert!(
            tl.detection_rate > gad.detection_rate,
            "TL-Ad {} vs G-Ad {}",
            tl.detection_rate,
            gad.detection_rate
        );
        assert!(
            tl.detection_rate > ucp.detection_rate,
            "TL-Ad {} vs UCP {}",
            tl.detection_rate,
            ucp.detection_rate
        );
        // And it does so while logging far less than UCP.
        assert!(tl.esr < 0.2);
        assert!(ucp.esr > 0.9);
    }

    #[test]
    fn prefiltered_logs_no_more_than_plain_tl_ad() {
        // mixed_program's cold_caller burns 60 stack writes before its racy
        // call; the prefilter skips them, so the Prefiltered sampler's ESR
        // is at most TL-Ad's while the racy sites stay detectable.
        let cfg = EvalConfig {
            samplers: vec![SamplerKind::TlAdaptive, SamplerKind::Prefiltered],
            seeds: vec![1, 2, 3],
            ..EvalConfig::default()
        };
        let eval = evaluate_program(&mixed_program(), &cfg).unwrap();
        let tl = &eval.samplers[0];
        let pf = &eval.samplers[1];
        assert!(
            pf.logged_mem < tl.logged_mem,
            "Prefiltered {} vs TL-Ad {}",
            pf.logged_mem,
            tl.logged_mem
        );
        assert!(
            pf.detection_rate >= tl.detection_rate,
            "Prefiltered {} vs TL-Ad {}",
            pf.detection_rate,
            tl.detection_rate
        );
    }

    #[test]
    fn never_sampler_detects_nothing() {
        let cfg = EvalConfig {
            samplers: vec![SamplerKind::Never],
            seeds: vec![1],
            ..EvalConfig::default()
        };
        let eval = evaluate_program(&mixed_program(), &cfg).unwrap();
        assert_eq!(eval.samplers[0].detection_rate, 0.0);
        assert_eq!(eval.samplers[0].esr, 0.0);
    }
}
