//! The Table 5 / Figure 6 overhead model.
//!
//! Execution time is modeled in abstract instructions (see
//! [`CostModel`](literace_sim::CostModel)); instrumentation overhead comes
//! from the instrumentation layer's accounting. The four configurations of
//! Figure 6 are measured by toggling instrumentation features, and the
//! full-logging comparison of Table 5 uses
//! [`InstrumentConfig::full_logging`].
//!
//! Log rates in MB/s use a nominal simulated clock of
//! [`SIM_INSTRUCTIONS_PER_SECOND`] abstract instructions per second.

use serde::{Deserialize, Serialize};

use literace_instrument::InstrumentConfig;
use literace_log::{EventLog, LogStats};
use literace_samplers::SamplerKind;
use literace_sim::{Program, SimError};

use crate::pipeline::{run_literace_with_sink, RunConfig};

/// Nominal simulated clock: abstract instructions per second. Used only to
/// express log volume as MB/s, as the paper does.
pub const SIM_INSTRUCTIONS_PER_SECOND: f64 = 1.0e9;

/// One configuration's modeled cost and log volume.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ConfigCost {
    /// Total modeled cost (baseline + overhead), abstract instructions.
    pub total_cost: u64,
    /// Overhead attributable to dispatch checks.
    pub dispatch: u64,
    /// Overhead attributable to synchronization logging.
    pub sync_logging: u64,
    /// Overhead attributable to memory-access logging.
    pub mem_logging: u64,
    /// Encoded log bytes produced.
    pub log_bytes: u64,
}

impl ConfigCost {
    /// Slowdown over a baseline cost.
    pub fn slowdown(&self, baseline: u64) -> f64 {
        if baseline == 0 {
            return 1.0;
        }
        self.total_cost as f64 / baseline as f64
    }

    /// Log rate in MB/s at the nominal clock, over this configuration's own
    /// modeled wall time.
    pub fn log_mb_per_s(&self) -> f64 {
        let seconds = self.total_cost as f64 / SIM_INSTRUCTIONS_PER_SECOND;
        if seconds <= 0.0 {
            return 0.0;
        }
        self.log_bytes as f64 / (1024.0 * 1024.0) / seconds
    }
}

/// The full overhead decomposition for one program (one row of Table 5 and
/// one bar group of Figure 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Uninstrumented baseline cost.
    pub baseline_cost: u64,
    /// Baseline in nominal seconds.
    pub baseline_secs: f64,
    /// Dispatch checks only (Figure 6, second configuration).
    pub dispatch_only: ConfigCost,
    /// Dispatch + synchronization logging (third configuration).
    pub dispatch_sync: ConfigCost,
    /// Complete LiteRace with the thread-local adaptive sampler.
    pub literace: ConfigCost,
    /// Full logging (no dispatch, everything logged) — Table 5's comparison.
    pub full_logging: ConfigCost,
    /// LiteRace effective sampling rate in this run.
    pub literace_esr: f64,
}

impl OverheadReport {
    /// LiteRace slowdown (Table 5 column 3).
    pub fn literace_slowdown(&self) -> f64 {
        self.literace.slowdown(self.baseline_cost)
    }

    /// Full-logging slowdown (Table 5 column 4).
    pub fn full_logging_slowdown(&self) -> f64 {
        self.full_logging.slowdown(self.baseline_cost)
    }
}

/// Runs one configuration, returning the baseline cost, the
/// configuration's cost and its effective sampling rate.
fn run_config(
    program: &Program,
    sampler: SamplerKind,
    cfg: &RunConfig,
    instrument: InstrumentConfig,
) -> Result<(u64, ConfigCost, f64), SimError> {
    let cfg = RunConfig {
        instrument,
        ..cfg.clone()
    };
    let (summary, out) = run_literace_with_sink(program, sampler, &cfg, EventLog::new())?;
    let stats = LogStats::of(&out.log);
    Ok((
        summary.baseline_cost,
        ConfigCost {
            total_cost: summary.baseline_cost + out.overhead.total(),
            dispatch: out.overhead.dispatch,
            sync_logging: out.overhead.sync_logging,
            mem_logging: out.overhead.mem_logging,
            log_bytes: stats.bytes,
        },
        out.stats.esr(),
    ))
}

/// Measures the four Figure 6 configurations plus full logging.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_overhead(program: &Program, cfg: &RunConfig) -> Result<OverheadReport, SimError> {
    // Configuration 2: dispatch checks only.
    let dispatch_cfg = InstrumentConfig {
        sync_logging: false,
        alloc_sync: false,
        log_markers: false,
        ..cfg.instrument.clone()
    };
    let (baseline, dispatch_only, _) =
        run_config(program, SamplerKind::Never, cfg, dispatch_cfg)?;
    // Configuration 3: dispatch + synchronization logging.
    let (_, dispatch_sync, _) =
        run_config(program, SamplerKind::Never, cfg, cfg.instrument.clone())?;
    // Configuration 4: complete LiteRace (TL-Ad).
    let (_, literace, literace_esr) =
        run_config(program, SamplerKind::TlAdaptive, cfg, cfg.instrument.clone())?;
    // Table 5 comparison: full logging, no dispatch checks or cloned code.
    let (_, full_logging, _) = run_config(
        program,
        SamplerKind::Always,
        cfg,
        InstrumentConfig::full_logging(),
    )?;

    Ok(OverheadReport {
        baseline_cost: baseline,
        baseline_secs: baseline as f64 / SIM_INSTRUCTIONS_PER_SECOND,
        dispatch_only,
        dispatch_sync,
        literace,
        full_logging,
        literace_esr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::{ProgramBuilder, Rvalue};

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let m = b.mutex("m");
        let hot = b.function("hot", 0, move |f| {
            f.read(g);
        });
        let w = b.function("w", 0, move |f| {
            f.loop_(2_000, |f| {
                f.lock(m);
                f.write(g);
                f.unlock(m);
                f.call(hot);
            });
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        b.build().unwrap()
    }

    #[test]
    fn overhead_configurations_are_ordered() {
        let r = measure_overhead(&program(), &RunConfig::seeded(3)).unwrap();
        // Figure 6: each configuration adds overhead on top of the previous.
        assert!(r.dispatch_only.total_cost > r.baseline_cost);
        assert!(r.dispatch_sync.total_cost > r.dispatch_only.total_cost);
        assert!(r.literace.total_cost > r.dispatch_sync.total_cost);
        // Full logging is the most expensive of all.
        assert!(
            r.full_logging_slowdown() > r.literace_slowdown(),
            "full {} vs literace {}",
            r.full_logging_slowdown(),
            r.literace_slowdown()
        );
    }

    #[test]
    fn literace_logs_less_than_full_logging() {
        let r = measure_overhead(&program(), &RunConfig::seeded(3)).unwrap();
        assert!(r.literace.log_bytes < r.full_logging.log_bytes);
        assert!(r.literace.log_mb_per_s() < r.full_logging.log_mb_per_s());
    }

    #[test]
    fn dispatch_only_has_no_logging_overhead() {
        let r = measure_overhead(&program(), &RunConfig::seeded(3)).unwrap();
        assert_eq!(r.dispatch_only.sync_logging, 0);
        assert_eq!(r.dispatch_only.mem_logging, 0);
        assert_eq!(r.dispatch_only.log_bytes, 0);
        assert!(r.dispatch_only.dispatch > 0);
    }

    #[test]
    fn full_logging_has_no_dispatch_overhead() {
        let r = measure_overhead(&program(), &RunConfig::seeded(3)).unwrap();
        assert_eq!(r.full_logging.dispatch, 0);
        assert!(r.full_logging.mem_logging > 0);
    }
}
