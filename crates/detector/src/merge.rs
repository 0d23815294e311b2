//! Per-thread log splitting and timestamp-directed merging.
//!
//! The real LiteRace writes one log buffer per thread (§4.1) and the offline
//! detector must reconstruct a global order from them using the logical
//! timestamps (§4.2). Our pipeline produces a globally ordered log directly,
//! but this module implements the faithful path: [`split_by_thread`]
//! produces per-thread logs, and [`merge_thread_logs`] re-linearizes them
//! using only program order and per-variable timestamp order — the exact
//! information the paper's logs contain.
//!
//! Any linearization consistent with those two orders induces the same
//! happens-before relation, so detection over a merged log equals detection
//! over the original (tested in the crate's integration tests).

use std::collections::HashMap;

use literace_log::{EventLog, Record};
use literace_sim::{SyncVar, ThreadId};

/// Error produced when per-thread logs cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Description of the inconsistency.
    pub reason: String,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot merge thread logs: {}", self.reason)
    }
}

impl std::error::Error for MergeError {}

/// Splits a global log into per-thread logs, preserving each thread's
/// order. (Delegates to [`EventLog::split_by_thread`].)
pub fn split_by_thread(log: &EventLog) -> Vec<(ThreadId, EventLog)> {
    log.split_by_thread()
}

/// Merges per-thread logs into one global log consistent with program order
/// and per-`SyncVar` timestamp order.
///
/// # Errors
///
/// Returns [`MergeError`] if the logs admit no consistent linearization
/// (e.g. duplicate or out-of-order timestamps on one variable), which in the
/// paper's setting would indicate broken atomic timestamping (§4.2).
pub fn merge_thread_logs(logs: &[(ThreadId, EventLog)]) -> Result<EventLog, MergeError> {
    // Pre-compute, per variable, the sorted timestamp sequence. A sync
    // record is "enabled" when its timestamp is the smallest not-yet-consumed
    // timestamp of its variable.
    let mut per_var: HashMap<SyncVar, Vec<u64>> = HashMap::new();
    for (_, log) in logs {
        for r in log {
            if let Record::Sync { var, timestamp, .. } = r {
                per_var.entry(*var).or_default().push(*timestamp);
            }
        }
    }
    for (var, ts) in per_var.iter_mut() {
        ts.sort_unstable();
        if ts.windows(2).any(|w| w[0] == w[1]) {
            return Err(MergeError {
                reason: format!("duplicate timestamp on {var}"),
            });
        }
    }
    let mut cursor: HashMap<SyncVar, usize> = per_var.keys().map(|v| (*v, 0)).collect();

    let mut heads: Vec<usize> = vec![0; logs.len()];
    let total: usize = logs.iter().map(|(_, l)| l.len()).sum();
    let mut out = EventLog::new();

    while out.len() < total {
        let mut progressed = false;
        for (i, (_, log)) in logs.iter().enumerate() {
            // Consume as many enabled records from this thread as possible.
            while heads[i] < log.len() {
                let r = log.records()[heads[i]];
                let enabled = match r {
                    Record::Sync { var, timestamp, .. } => {
                        let c = cursor.get_mut(&var).expect("var precomputed");
                        if per_var[&var][*c] == timestamp {
                            *c += 1;
                            true
                        } else {
                            false
                        }
                    }
                    _ => true,
                };
                if !enabled {
                    break;
                }
                out.push(r);
                heads[i] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Err(MergeError {
                reason: "no thread has an enabled head record (timestamp order broken)"
                    .to_owned(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pc, t};
    use literace_log::SamplerMask;
    use literace_sim::{Addr, SyncOpKind};

    fn mem(tid: ThreadId, i: usize) -> Record {
        Record::Mem {
            tid,
            pc: pc(i),
            addr: Addr::global(0),
            is_write: true,
            mask: SamplerMask::FULL,
        }
    }

    fn sync(tid: ThreadId, var: u64, kind: SyncOpKind, ts: u64) -> Record {
        Record::Sync {
            tid,
            pc: pc(0),
            kind,
            var: SyncVar(var),
            timestamp: ts,
        }
    }

    #[test]
    fn split_preserves_thread_order() {
        let log: EventLog = vec![mem(t(0), 1), mem(t(1), 2), mem(t(0), 3)]
            .into_iter()
            .collect();
        let split = split_by_thread(&log);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].0, t(0));
        assert_eq!(split[0].1.len(), 2);
        assert_eq!(split[1].1.len(), 1);
    }

    #[test]
    fn merge_respects_sync_timestamps() {
        // t1's acquire (ts 2) must come after t0's release (ts 1), even when
        // t1's log is listed first.
        let t1_log: EventLog = vec![
            sync(t(1), 7, SyncOpKind::LockAcquire, 2),
            mem(t(1), 10),
        ]
        .into_iter()
        .collect();
        let t0_log: EventLog = vec![
            mem(t(0), 20),
            sync(t(0), 7, SyncOpKind::LockRelease, 1),
        ]
        .into_iter()
        .collect();
        let merged = merge_thread_logs(&[(t(1), t1_log), (t(0), t0_log)]).unwrap();
        let rel_pos = merged
            .iter()
            .position(|r| matches!(r, Record::Sync { timestamp: 1, .. }))
            .unwrap();
        let acq_pos = merged
            .iter()
            .position(|r| matches!(r, Record::Sync { timestamp: 2, .. }))
            .unwrap();
        assert!(rel_pos < acq_pos);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn split_then_merge_round_trips_detection_input() {
        let log: EventLog = vec![
            mem(t(0), 1),
            sync(t(0), 3, SyncOpKind::LockRelease, 1),
            sync(t(1), 3, SyncOpKind::LockAcquire, 2),
            mem(t(1), 2),
        ]
        .into_iter()
        .collect();
        let split = split_by_thread(&log);
        let merged = merge_thread_logs(&split).unwrap();
        assert_eq!(merged.len(), log.len());
        // Same multiset of records.
        let mut a: Vec<String> = log.iter().map(|r| format!("{r:?}")).collect();
        let mut b: Vec<String> = merged.iter().map(|r| format!("{r:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_timestamps_are_rejected() {
        let l0: EventLog = vec![sync(t(0), 1, SyncOpKind::LockRelease, 5)]
            .into_iter()
            .collect();
        let l1: EventLog = vec![sync(t(1), 1, SyncOpKind::LockAcquire, 5)]
            .into_iter()
            .collect();
        let err = merge_thread_logs(&[(t(0), l0), (t(1), l1)]).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn out_of_order_program_timestamps_are_rejected() {
        // One thread logs ts 2 then ts 1 on the same var: impossible.
        let l0: EventLog = vec![
            sync(t(0), 1, SyncOpKind::LockAcquire, 2),
            sync(t(0), 1, SyncOpKind::LockRelease, 1),
        ]
        .into_iter()
        .collect();
        let err = merge_thread_logs(&[(t(0), l0)]).unwrap_err();
        assert!(err.to_string().contains("no thread"), "{err}");
    }

    #[test]
    fn empty_input_merges_to_empty() {
        let merged = merge_thread_logs(&[]).unwrap();
        assert!(merged.is_empty());
    }
}
