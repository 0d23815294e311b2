//! # literace-instrument
//!
//! The LiteRace instrumentation pass over the simulator substrate: the
//! dispatch check and two-copy function semantics of Figure 3, logical
//! timestamps from a 128-counter bank (§4.2), unconditional synchronization
//! logging (the no-false-positive invariant of §3.2), allocation-as-
//! synchronization (§4.3), and modeled overhead accounting (Table 5 /
//! Figure 6). One observer, [`Instrumenter`], does all of it; the §5.3
//! marked run that compares samplers on one schedule is its N-sampler
//! case, [`Instrumenter::marked`].
//!
//! ## Example
//!
//! ```
//! use literace_instrument::{Instrumenter, InstrumentConfig};
//! use literace_samplers::SamplerKind;
//! use literace_sim::{lower, Machine, MachineConfig, ProgramBuilder, RandomScheduler};
//!
//! let mut b = ProgramBuilder::new();
//! let g = b.global_word("g");
//! b.entry_fn("main", |f| {
//!     f.write(g);
//! });
//! let compiled = lower(&b.build()?);
//! let mut inst = Instrumenter::new(SamplerKind::TlAdaptive.build(0),
//!                                  InstrumentConfig::default());
//! Machine::new(&compiled, MachineConfig::default())
//!     .run(&mut RandomScheduler::seeded(0), &mut inst)?;
//! let out = inst.finish();
//! assert_eq!(out.stats.total_mem, 1);
//! # Ok::<(), literace_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod observer;
mod sink;
mod timestamps;

pub use config::{
    AccessPolicy, InstrStats, InstrumentConfig, InstrumentCosts, LoopPolicy, OverheadBreakdown,
};
pub use observer::{InstrumentOutput, Instrumenter};
pub use sink::{RecordSink, V2Sink};
pub use timestamps::{TimestampBank, PAPER_COUNTER_COUNT};
