//! Log record types.
//!
//! A LiteRace run produces a stream of records (§3.2 of the paper):
//!
//! * **synchronization records** for *every* synchronization operation —
//!   sampling these would cause false positives (Figure 2), so they are
//!   unconditional — carrying the `SyncVar` and a logical timestamp, and
//! * **memory-access records** for the *sampled* subset of data accesses.
//!
//! In the multi-sampler evaluation mode (§5.3) every memory access is logged
//! and annotated with a bitmask saying which of the concurrently simulated
//! samplers would have logged it; detection is then run on per-sampler
//! subsets of one identical execution.

use std::io::Write;

use serde::{Deserialize, Serialize};

use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};

use crate::writer::LogWriterV2;

/// Bitmask of samplers that would have logged a memory access.
///
/// Bit *i* corresponds to sampler *i* in the evaluation's sampler list. A
/// single-sampler run uses [`SamplerMask::FULL`] semantics with bit 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SamplerMask(pub u32);

impl SamplerMask {
    /// No sampler logged the access.
    pub const EMPTY: SamplerMask = SamplerMask(0);
    /// Every sampler slot set — used for ground-truth (full) logs.
    pub const FULL: SamplerMask = SamplerMask(u32::MAX);

    /// Mask with only bit `i` set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn bit(i: usize) -> SamplerMask {
        assert!(i < 32, "sampler index {i} out of mask range");
        SamplerMask(1 << i)
    }

    /// Whether sampler `i`'s bit is set.
    pub fn contains(self, i: usize) -> bool {
        i < 32 && self.0 & (1 << i) != 0
    }

    /// Union of two masks.
    pub fn union(self, other: SamplerMask) -> SamplerMask {
        SamplerMask(self.0 | other.0)
    }

    /// Bits set in `self` but not in `other`.
    pub fn minus(self, other: SamplerMask) -> SamplerMask {
        SamplerMask(self.0 & !other.0)
    }

    /// Whether no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// One record of the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Record {
    /// A synchronization operation (always logged).
    Sync {
        /// Executing thread.
        tid: ThreadId,
        /// Static site.
        pc: Pc,
        /// Operation kind (happens-before role).
        kind: SyncOpKind,
        /// The synchronization variable (Table 1).
        var: SyncVar,
        /// Logical timestamp from the hashed counter bank (§4.2): orders
        /// operations on the same `var`.
        timestamp: u64,
    },
    /// A data memory access (logged when sampled).
    Mem {
        /// Executing thread.
        tid: ThreadId,
        /// Static site — the "program counter value" the paper logs.
        pc: Pc,
        /// Target address.
        addr: Addr,
        /// Whether the access is a write.
        is_write: bool,
        /// Which evaluated samplers would have logged this access.
        mask: SamplerMask,
    },
    /// Start-of-thread marker (orders a thread's records after its fork).
    ThreadBegin {
        /// The thread that began.
        tid: ThreadId,
    },
    /// End-of-thread marker.
    ThreadEnd {
        /// The thread that ended.
        tid: ThreadId,
    },
}

impl Record {
    /// The thread this record belongs to.
    pub fn tid(&self) -> ThreadId {
        match *self {
            Record::Sync { tid, .. }
            | Record::Mem { tid, .. }
            | Record::ThreadBegin { tid }
            | Record::ThreadEnd { tid } => tid,
        }
    }

    /// Whether this is a memory-access record.
    pub fn is_mem(&self) -> bool {
        matches!(self, Record::Mem { .. })
    }

    /// Whether this is a synchronization record.
    pub fn is_sync(&self) -> bool {
        matches!(self, Record::Sync { .. })
    }
}

/// An in-memory event log: the unit the offline detector consumes.
///
/// Records appear in the global linearization order of the run (which embeds
/// each thread's program order).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    records: Vec<Record>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// The records in order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over records.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }

    /// Number of memory-access records.
    pub fn mem_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_mem()).count()
    }

    /// Number of synchronization records.
    pub fn sync_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_sync()).count()
    }

    /// Splits this log into per-thread logs, preserving each thread's
    /// order — the shape the paper's instrumentation actually writes (one
    /// buffer per thread, §4.1). Reassemble a global order with the
    /// timestamp-directed merge in the detector crate.
    pub fn split_by_thread(&self) -> Vec<(literace_sim::ThreadId, EventLog)> {
        let mut map: std::collections::HashMap<literace_sim::ThreadId, EventLog> =
            std::collections::HashMap::new();
        let mut order: Vec<literace_sim::ThreadId> = Vec::new();
        for r in &self.records {
            let tid = r.tid();
            if !map.contains_key(&tid) {
                order.push(tid);
            }
            map.entry(tid).or_default().push(*r);
        }
        order
            .into_iter()
            .map(|tid| {
                let l = map.remove(&tid).expect("tid recorded in order");
                (tid, l)
            })
            .collect()
    }

    /// A copy of this log keeping only memory accesses whose mask contains
    /// sampler `i` (synchronization and marker records are always kept) —
    /// the per-sampler subset detection of §5.3.
    pub fn sampler_subset(&self, i: usize) -> EventLog {
        let records = self
            .records
            .iter()
            .filter(|r| match r {
                Record::Mem { mask, .. } => mask.contains(i),
                _ => true,
            })
            .copied()
            .collect();
        EventLog { records }
    }
}

impl FromIterator<Record> for EventLog {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> EventLog {
        EventLog {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<Record> for EventLog {
    fn extend<I: IntoIterator<Item = Record>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// A destination for records as they are produced: a heap-resident
/// [`EventLog`], the log writer streaming blocks to a file (or any
/// `Write`), or a detector consuming them live. A producer's callbacks
/// cannot be interrupted by a failed write, so the log writer keeps the
/// first write error, writes nothing after it, and returns it from
/// `finish`.
pub trait RecordSink {
    /// Appends one record.
    fn push(&mut self, record: Record);
}

impl RecordSink for EventLog {
    #[inline]
    fn push(&mut self, record: Record) {
        EventLog::push(self, record);
    }
}

impl<W: Write> RecordSink for LogWriterV2<W> {
    #[inline]
    fn push(&mut self, record: Record) {
        let _ = self.write_record(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::FuncId;

    fn mem(i: usize, mask: SamplerMask) -> Record {
        Record::Mem {
            tid: ThreadId::MAIN,
            pc: Pc::new(FuncId::from_index(0), i),
            addr: Addr::global(i as u64),
            is_write: true,
            mask,
        }
    }

    #[test]
    fn mask_bits() {
        let m = SamplerMask::bit(3).union(SamplerMask::bit(5));
        assert!(m.contains(3));
        assert!(m.contains(5));
        assert!(!m.contains(4));
        assert!(!SamplerMask::EMPTY.contains(0));
        assert!(SamplerMask::FULL.contains(31));
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn mask_bit_bounds() {
        let _ = SamplerMask::bit(32);
    }

    #[test]
    fn sampler_subset_filters_only_mem_records() {
        let mut log = EventLog::new();
        log.push(Record::ThreadBegin {
            tid: ThreadId::MAIN,
        });
        log.push(mem(0, SamplerMask::bit(0)));
        log.push(mem(1, SamplerMask::bit(1)));
        log.push(Record::Sync {
            tid: ThreadId::MAIN,
            pc: Pc::new(FuncId::from_index(0), 9),
            kind: SyncOpKind::LockAcquire,
            var: SyncVar(1),
            timestamp: 1,
        });
        let s0 = log.sampler_subset(0);
        assert_eq!(s0.len(), 3);
        assert_eq!(s0.mem_count(), 1);
        assert_eq!(s0.sync_count(), 1);
        let s1 = log.sampler_subset(1);
        assert_eq!(s1.mem_count(), 1);
        // Different subsets kept different accesses.
        assert_ne!(s0.records()[1], s1.records()[1]);
    }

    #[test]
    fn collect_and_extend() {
        let log: EventLog = (0..4).map(|i| mem(i, SamplerMask::FULL)).collect();
        assert_eq!(log.len(), 4);
        let mut log2 = EventLog::new();
        log2.extend(log.iter().copied());
        assert_eq!(log, log2);
    }
}
