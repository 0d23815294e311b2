//! # literace-log
//!
//! The event-log substrate of the LiteRace reproduction: record types for
//! synchronization operations and sampled memory accesses (§3.2 of the
//! paper), one log writer ([`LogWriterV2`], the compact blocked v2
//! format), one streaming reader for v2 and the seed's fixed-width v1
//! format, and log-volume statistics sized as v1, used by the Table 5
//! overhead model. [`encode_all`] makes v1 bytes in memory for fixtures.
//!
//! ## Example
//!
//! ```
//! use literace_log::{encode_all, read_log_auto, EventLog, Record, SamplerMask};
//! use literace_sim::{Addr, FuncId, Pc, ThreadId};
//!
//! let mut log = EventLog::new();
//! log.push(Record::Mem {
//!     tid: ThreadId::MAIN,
//!     pc: Pc::new(FuncId::from_index(0), 3),
//!     addr: Addr::global(7),
//!     is_write: true,
//!     mask: SamplerMask::FULL,
//! });
//! let bytes = encode_all(log.records());
//! let back = read_log_auto(&bytes[..])?;
//! assert_eq!(log, back);
//! # Ok::<(), literace_log::LogError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atomic;
mod checksum;
mod codec;
mod container;
mod dir;
mod error;
pub mod fault;
mod gv;
mod io;
mod ordered;
mod parallel;
mod record;
mod retry;
pub mod salvage;
mod stats;
mod stream;
mod v2;
mod varint;
mod writer;

pub use atomic::AtomicFile;
pub use checksum::{checksum, checksum32, Checksum};
pub use container::{read_container, ContainerSection, ContainerWriter};
pub use codec::{
    encode_all, encoded_len, MARKER_RECORD_BYTES, MEM_RECORD_BYTES, SYNC_RECORD_BYTES,
};
pub use dir::{read_thread_logs, write_thread_logs};
pub use error::{LogError, LogResult};
pub use fault::{FaultPlan, FaultyReader, FaultySink, SplitMix64};
pub use bytes::Bytes;
pub use record::{EventLog, Record, RecordSink, SamplerMask};
pub use salvage::{read_log_salvage, SalvageHandle, SalvageReport};
pub use stats::LogStats;
pub use stream::{
    auto_stream_depth, map_or_read, read_log_auto, DecodeOpts, LogFormat, RecordBlocks,
    RecordStream, DEFAULT_STREAM_DEPTH, MAX_STREAM_DEPTH, V1_BLOCK_RECORDS,
};
pub use v2::{decode_block, peek_sealed_total, SealState, V2_MAGIC, V2_VERSION};
pub use varint::{
    get_delta_slice, get_varint, get_varint_slice, put_delta, put_varint, zigzag,
};
pub use writer::{encode_v2, EncodeOpts, LogWriterV2, DEFAULT_BLOCK_RECORDS};
