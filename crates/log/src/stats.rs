//! Log volume accounting.
//!
//! Table 5 of the paper reports log generation rates in MB/s for LiteRace
//! versus full logging. [`LogStats`] computes the encoded size of a log and,
//! combined with a modeled baseline execution time, the MB/s figure.

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

    /// Counts `r` into its thread's row of `rows`, indexed by thread id
    /// (threads that never logged get zero rows).
    pub fn add_by_thread(rows: &mut Vec<LogStats>, r: &Record) {
        let i = r.tid().index();
        if i >= rows.len() {
            rows.resize(i + 1, LogStats::default());
        }
        rows[i].add(r);
    }

    /// Computes statistics over a log.
    pub fn of(log: &EventLog) -> LogStats {
        let mut s = LogStats::default();
        log.iter().for_each(|r| s.add(r));
        s
    }

    /// Per-thread statistics of a log (see [`add_by_thread`](LogStats::add_by_thread)).
    pub fn per_thread(log: &EventLog) -> Vec<LogStats> {
        let mut rows = Vec::new();
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
    fn per_thread_attributes_by_kind_and_pads_gaps() {
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
        assert_eq!(per.len(), 3);
        assert_eq!(per[0].marker_records, 1);
        assert_eq!(per[1], LogStats::default(), "gap thread is zeroed");
        assert_eq!(per[2].records, 2);
        assert_eq!(per[2].mem_records, 1);
        assert_eq!(per[2].sync_records, 1);
        // The per-thread rows partition the totals.
        let totals = LogStats::of(&log);
        assert_eq!(
            per.iter().map(|t| t.records).sum::<u64>(),
            totals.records
        );
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
