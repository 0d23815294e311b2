//! # literace
//!
//! A reproduction of **"LiteRace: Effective Sampling for Lightweight
//! Data-Race Detection"** (Marino, Musuvathi, Narayanasamy — PLDI 2009) as
//! a Rust library.
//!
//! LiteRace makes dynamic data-race detection cheap enough for routine use
//! by *sampling* memory accesses with a **thread-local adaptive bursty
//! sampler** — cold code is logged at 100%, hot code backs off to 0.1% —
//! while logging *every* synchronization operation so that no false race is
//! ever reported. This crate ties together the whole reproduction:
//!
//! * [`pipeline`] — instrument a program, execute it, collect the event
//!   log, detect races offline (sequentially, or on the sharded engine
//!   with `detect_threads` ≥ 2);
//! * [`eval`] — the paper's §5.3 methodology: evaluate many samplers
//!   against one identical interleaving via a marked full-logging run;
//! * [`overhead`] — the Table 5 / Figure 6 cost model;
//! * [`experiments`] — drivers regenerating every table and figure of the
//!   paper's evaluation;
//! * re-exports of the substrate crates (simulator, samplers, instrument,
//!   detectors, logs, workloads).
//!
//! ## Quickstart
//!
//! ```
//! use literace::pipeline::{run_literace, RunConfig};
//! use literace::samplers::SamplerKind;
//! use literace::sim::{ProgramBuilder, Rvalue};
//!
//! // Two threads write a global without synchronization.
//! let mut b = ProgramBuilder::new();
//! let shared = b.global_word("shared");
//! let worker = b.function("worker", 0, move |f| {
//!     f.write(shared);
//! });
//! b.entry_fn("main", move |f| {
//!     let t1 = f.spawn(worker, Rvalue::Const(0));
//!     let t2 = f.spawn(worker, Rvalue::Const(1));
//!     f.join(t1);
//!     f.join(t2);
//! });
//! let program = b.build()?;
//!
//! let outcome = run_literace(&program, SamplerKind::TlAdaptive,
//!                            &RunConfig::seeded(42))?;
//! assert_eq!(outcome.report.static_count(), 1);
//! # Ok::<(), literace::sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod charts;
pub mod eval;
pub mod experiments;
pub mod overhead;
pub mod pipeline;
pub mod render;
pub mod tables;

/// The simulator substrate (programs, machine, schedulers, events).
pub use literace_sim as sim;

/// Event-log records, codec and statistics.
pub use literace_log as log;

/// The sampling strategies of Table 3.
pub use literace_samplers as samplers;

/// The instrumentation pass (dispatch checks, timestamps, logging).
pub use literace_instrument as instrument;

/// Happens-before and lockset detectors; an `HbDetector` is also the
/// instrumenter's record sink for online detection.
pub use literace_detector as detector;

/// The paper's benchmark workloads.
pub use literace_workloads as workloads;

/// The pipeline-wide metrics registry, phase spans and snapshot exporters.
pub use literace_telemetry as telemetry;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::eval::{evaluate_program, EvalConfig, ProgramEval};
    pub use crate::experiments::{
        run_overhead_study, run_sampler_study, OverheadStudy, SamplerStudy,
    };
    pub use crate::overhead::{measure_overhead, OverheadReport};
    pub use crate::pipeline::{
        run_baseline, run_literace, run_literace_with_sink, RunConfig, RunOutcome,
    };
    pub use literace_detector::{detect, HbDetector, RaceReport, StaticRace};
    pub use literace_instrument::{InstrumentConfig, Instrumenter};
    pub use literace_log::{EventLog, Record, SamplerMask};
    pub use literace_samplers::{Dispatch, Sampler, SamplerKind};
    pub use literace_sim::{
        lower, Machine, MachineConfig, Program, ProgramBuilder, RandomScheduler, Rvalue,
        SimError,
    };
    pub use literace_workloads::{build, Scale, Workload, WorkloadId};
}
