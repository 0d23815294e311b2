//! # literace-detector
//!
//! Data-race detectors for the LiteRace reproduction:
//!
//! * [`HbDetector`] — the paper's offline happens-before detector over
//!   event logs (vector clocks; no false positives by construction): the
//!   replay stage feeding one shard inline (see [`sharded`]). It is also a
//!   [`RecordSink`](literace_log::RecordSink), so the §4.4 "spare core"
//!   online detector is the instrumenter writing into one;
//! * [`LocksetDetector`] — an Eraser-style baseline that demonstrates the
//!   false positives the paper's design avoids. Both detectors count each
//!   race into one per-pair aggregate and build their [`RaceReport`] from
//!   it the same way;
//! * [`detect_stream_from`] — the sharded engine: address-sharded parallel
//!   offline detection over record blocks, in which every shard worker
//!   replays the sync records itself (blocks mostly of sync records run
//!   once, inline), byte-identical to [`detect`] at any
//!   shard count, optionally resuming from a [`Checkpoint`] (see
//!   [`sharded`]); its one-shard case is an inline [`HbDetector`].
//!   [`detect_stream`] feeds it from a decoding log stream,
//!   [`detect_sharded`] from an in-memory log, and
//!   [`detect_stream_checkpointed`] seals checkpoints as it goes, at any
//!   shard count;
//! * [`Checkpoint`] — a sealed, self-validating snapshot of full detector
//!   state, one record per fact as the detector holds it (format LRCP
//!   v2: each thread's clock, the retired set, each sync variable's clock
//!   and last timestamp, the frontier, one aggregate per race pair);
//!   resuming from one yields reports byte-identical to one-shot
//!   detection;
//! * [`merge`] utilities reconstructing a global order from per-thread logs
//!   using the §4.2 logical timestamps.
//!
//! ## Example
//!
//! ```
//! use literace_detector::detect;
//! use literace_log::{EventLog, Record, SamplerMask};
//! use literace_sim::{Addr, FuncId, Pc, ThreadId};
//!
//! let mut log = EventLog::new();
//! for (t, site) in [(0usize, 1usize), (1, 2)] {
//!     log.push(Record::Mem {
//!         tid: ThreadId::from_index(t),
//!         pc: Pc::new(FuncId::from_index(0), site),
//!         addr: Addr::global(0),
//!         is_write: true,
//!         mask: SamplerMask::FULL,
//!     });
//! }
//! let report = detect(&log, 2);
//! assert_eq!(report.static_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod checkpoint;
mod clocks;
mod epoch;
pub mod fast_hash;
mod frontier;
mod hb;
mod lockset;
pub mod merge;
mod provenance;
mod report;
pub mod sharded;
mod streaming;
mod suppress;
#[cfg(test)]
mod testkit;
mod vector_clock;

pub use checkpoint::{Checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use epoch::{check_thread_index, TidCeilingExceeded, MAX_THREAD_INDEX};
pub use hb::{detect, HbConfig, HbDetector};
pub use lockset::{detect_lockset, LocksetDetector};
pub use provenance::{AccessEvidence, ProvenanceReport, RaceEvidence, SyncEdge};
pub use sharded::{detect_sharded, DetectConfig};
pub use streaming::{detect_stream, detect_stream_checkpointed, detect_stream_from};
pub use report::{RaceReport, StaticRace};
pub use suppress::Suppressions;
pub use vector_clock::VectorClock;
