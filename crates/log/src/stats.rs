//! Log volume accounting.
//!
//! Table 5 of the paper reports log generation rates in MB/s for LiteRace
//! versus full logging. [`LogStats`] computes the encoded size of a log and,
//! combined with a modeled baseline execution time, the MB/s figure.

use std::collections::BTreeMap;

use literace_sim::ThreadId;
use serde::{Deserialize, Serialize};

use crate::codec::encoded_len;
use crate::record::{EventLog, Record};

/// Size and composition statistics of a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogStats {
    /// Total records.
    pub records: u64,
    /// Memory-access records.
    pub mem_records: u64,
    /// Synchronization records.
    pub sync_records: u64,
    /// Thread marker records.
    pub marker_records: u64,
    /// Total encoded bytes.
    pub bytes: u64,
}

impl LogStats {
    /// Counts one record.
    pub fn add(&mut self, r: &Record) {
        self.records += 1;
        self.bytes += encoded_len(r) as u64;
        match r {
            Record::Mem { .. } => self.mem_records += 1,
            Record::Sync { .. } => self.sync_records += 1,
            Record::ThreadBegin { .. } | Record::ThreadEnd { .. } => self.marker_records += 1,
        }
    }

    /// Counts `r` into its thread's row of `rows`. Rows are keyed by
    /// thread, so a thread that never logged has none, and a log naming
    /// thread 4 billion costs one row, not four billion.
    pub fn add_by_thread(rows: &mut BTreeMap<ThreadId, LogStats>, r: &Record) {
        rows.entry(r.tid()).or_default().add(r);
    }

    /// Computes statistics over a log.
    pub fn of(log: &EventLog) -> LogStats {
        let mut s = LogStats::default();
        log.iter().for_each(|r| s.add(r));
        s
    }

    /// Per-thread statistics of a log (see [`add_by_thread`](LogStats::add_by_thread)).
    pub fn per_thread(log: &EventLog) -> BTreeMap<ThreadId, LogStats> {
        let mut rows = BTreeMap::new();
        log.iter().for_each(|r| LogStats::add_by_thread(&mut rows, r));
        rows
    }

    /// Log generation rate in MB/s given an execution time in seconds.
    ///
    /// Returns 0 for a non-positive duration.
    pub fn mb_per_sec(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / (1024.0 * 1024.0) / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{MARKER_RECORD_BYTES, MEM_RECORD_BYTES, SYNC_RECORD_BYTES};
    use crate::record::SamplerMask;
    use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

    #[test]
    fn stats_count_by_kind() {
        let mut log = EventLog::new();
        log.push(Record::ThreadBegin {
            tid: ThreadId::MAIN,
        });
        log.push(Record::Sync {
            tid: ThreadId::MAIN,
            pc: Pc::new(FuncId::from_index(0), 0),
            kind: SyncOpKind::Notify,
            var: SyncVar(3),
            timestamp: 1,
        });
        log.push(Record::Mem {
            tid: ThreadId::MAIN,
            pc: Pc::new(FuncId::from_index(0), 1),
            addr: Addr::global(0),
            is_write: false,
            mask: SamplerMask::FULL,
        });
        let s = LogStats::of(&log);
        assert_eq!(s.records, 3);
        assert_eq!(s.mem_records, 1);
        assert_eq!(s.sync_records, 1);
        assert_eq!(s.marker_records, 1);
        assert_eq!(
            s.bytes,
            (MARKER_RECORD_BYTES + SYNC_RECORD_BYTES + MEM_RECORD_BYTES) as u64
        );
    }

    #[test]
    fn per_thread_attributes_by_kind_and_skips_gaps() {
        let mut log = EventLog::new();
        log.push(Record::ThreadBegin {
            tid: ThreadId::MAIN,
        });
        log.push(Record::Mem {
            tid: ThreadId::from_index(2),
            pc: Pc::new(FuncId::from_index(0), 1),
            addr: Addr::global(0),
            is_write: true,
            mask: SamplerMask::FULL,
        });
        log.push(Record::Sync {
            tid: ThreadId::from_index(2),
            pc: Pc::new(FuncId::from_index(0), 0),
            kind: SyncOpKind::Notify,
            var: SyncVar(3),
            timestamp: 1,
        });
        let per = LogStats::per_thread(&log);
        let tids: Vec<usize> = per.keys().map(|t| t.index()).collect();
        assert_eq!(tids, [0, 2], "rows in thread order, none for the gap");
        assert_eq!(per[&ThreadId::MAIN].marker_records, 1);
        let t2 = &per[&ThreadId::from_index(2)];
        assert_eq!(t2.records, 2);
        assert_eq!(t2.mem_records, 1);
        assert_eq!(t2.sync_records, 1);
        // The per-thread rows partition the totals.
        let totals = LogStats::of(&log);
        assert_eq!(per.values().map(|t| t.records).sum::<u64>(), totals.records);
    }

    #[test]
    fn a_huge_thread_id_costs_one_row() {
        let tid = ThreadId::from_index(0xFFFF_FFF0);
        let mut rows = BTreeMap::new();
        LogStats::add_by_thread(&mut rows, &Record::ThreadBegin { tid });
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[&tid].marker_records, 1);
    }

    #[test]
    fn mb_per_sec_guards_zero_duration() {
        let s = LogStats {
            bytes: 1024 * 1024,
            ..LogStats::default()
        };
        assert_eq!(s.mb_per_sec(0.0), 0.0);
        assert!((s.mb_per_sec(1.0) - 1.0).abs() < 1e-9);
        assert!((s.mb_per_sec(2.0) - 0.5).abs() < 1e-9);
    }
}
