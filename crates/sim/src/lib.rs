//! # literace-sim
//!
//! A deterministic multithreaded program simulator — the instrumentation
//! substrate of this LiteRace (PLDI 2009) reproduction.
//!
//! The paper instruments x86 binaries with the Phoenix compiler. This crate
//! plays that role in a memory-safe setting: programs are written in a small
//! structured IR ([`Op`]) through a [`ProgramBuilder`], lowered
//! ([`lower()`](lower())) to flat bytecode, and interpreted by a [`Machine`] under a
//! deterministic [`Scheduler`]. The machine emits a runtime [`Event`] stream
//! to an [`Observer`] — function entries (the dispatch-check points), data
//! memory accesses, synchronization operations, allocations — which is
//! exactly the information the LiteRace instrumentation consumes.
//!
//! Determinism matters: a `(program, scheduler)` pair fixes the interleaving,
//! so different sampling strategies can be compared on *the same execution*,
//! which is the paper's §5.3 evaluation methodology.
//!
//! ## Example
//!
//! ```
//! use literace_sim::{lower, Machine, MachineConfig, ProgramBuilder, RandomScheduler,
//!                    RecordingObserver, Rvalue};
//!
//! // Two threads race on a global, no lock.
//! let mut b = ProgramBuilder::new();
//! let shared = b.global_word("shared");
//! let worker = b.function("worker", 0, |f| {
//!     f.write(shared);
//! });
//! b.entry_fn("main", |f| {
//!     let t1 = f.spawn(worker, Rvalue::Const(0));
//!     let t2 = f.spawn(worker, Rvalue::Const(1));
//!     f.join(t1);
//!     f.join(t2);
//! });
//! let compiled = lower(&b.build()?);
//!
//! let mut obs = RecordingObserver::default();
//! let summary = Machine::new(&compiled, MachineConfig::default())
//!     .run(&mut RandomScheduler::seeded(42), &mut obs)?;
//! assert_eq!(summary.mem_writes, 2);
//! assert_eq!(summary.threads, 3);
//! # Ok::<(), literace_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod builder;
mod cost;
pub mod disasm;
mod error;
mod event;
mod ids;
pub mod lower;
mod machine;
mod op;
mod prefilter;
mod program;
mod sched;
mod stats;
mod summary;

pub use addr::{
    stack_base, Addr, AddrClass, GLOBAL_BASE, HEAP_BASE, PAGE_BYTES, STACK_BASE,
    STACK_BYTES_PER_THREAD, WORD_BYTES,
};
pub use builder::{FunctionBuilder, GlobalVar, ProgramBuilder};
pub use cost::CostModel;
pub use error::{SimError, SimResult};
pub use event::{
    Event, NullObserver, Observer, ObserverPair, RecordingObserver, SyncOpKind,
};
pub use ids::{FuncId, LocalSlot, Pc, SyncId, SyncVar, ThreadId};
pub use lower::{lower, CompiledFunction, CompiledProgram, Instr};
pub use machine::{
    alloc_page_var, pages_of, sync_obj_addr, sync_obj_var, thread_var, Heap, Machine,
    MachineConfig, FRAME_WORDS, SYNC_OBJ_BASE, SYNC_OBJ_STRIDE,
};
pub use op::{AddrExpr, Op, Rvalue, SyncRef};
pub use prefilter::{PrefilterStats, PrefilterTable};
pub use program::{Function, Program, SyncDecl, SyncKind};
pub use sched::{ChunkedRandomScheduler, PctScheduler, RandomScheduler, RoundRobinScheduler, Scheduler};
pub use stats::ProgramStats;
pub use summary::RunSummary;
