//! An Eraser-style lockset detector (Savage et al. 1997).
//!
//! The paper (§2, §4.4) deliberately chooses happens-before detection over
//! lockset because lockset reports false positives on non-lock
//! synchronization (fork/join, events) — this module exists to make that
//! trade-off demonstrable, and because the paper notes its sampling approach
//! "could equally well be applied to a lockset-based algorithm".
//!
//! Implementation: the classic state machine per location
//! (Virgin → Exclusive → Shared → Shared-Modified) with candidate-lockset
//! intersection; a race is reported when the candidate set becomes empty in
//! the Shared-Modified state. Races are counted into the same per-pair
//! aggregate as the happens-before detector's (see `crate::report`).

use std::collections::{HashMap, HashSet};

use literace_log::{EventLog, Record};
use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};

use crate::fast_hash::FastMap;
use crate::report::{count_race, report, PairMap, RaceReport, DEFAULT_PAIR_ADDR_CAP};

/// Per-location state of the Eraser state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LocState {
    /// Never accessed.
    Virgin,
    /// Accessed by exactly one thread so far.
    Exclusive {
        tid: ThreadId,
        last_pc: Pc,
        written: bool,
    },
    /// Read-shared by several threads; candidate set tracked but violations
    /// not yet reported.
    Shared { candidates: HashSet<SyncVar>, last_pc: Pc },
    /// Written by several threads; empty candidate set is a race.
    SharedModified {
        candidates: HashSet<SyncVar>,
        last_pc: Pc,
        reported: bool,
    },
}

/// The lockset detector.
#[derive(Debug)]
pub struct LocksetDetector {
    /// Each thread's held locks, keyed by thread: a record naming a huge
    /// thread id costs one entry.
    held: FastMap<ThreadId, HashSet<SyncVar>>,
    locations: HashMap<u64, LocState>,
    pairs: PairMap,
    /// Records processed: the next record's position.
    pos: u64,
}

impl LocksetDetector {
    /// Creates an empty detector.
    pub fn new() -> LocksetDetector {
        LocksetDetector {
            held: FastMap::default(),
            locations: HashMap::new(),
            pairs: PairMap::default(),
            pos: 0,
        }
    }

    fn held_mut(&mut self, tid: ThreadId) -> &mut HashSet<SyncVar> {
        self.held.entry(tid).or_default()
    }

    /// Processes one log record.
    pub fn process(&mut self, record: &Record) {
        match *record {
            Record::Sync { tid, kind, var, .. } => match kind {
                SyncOpKind::LockAcquire => {
                    self.held_mut(tid).insert(var);
                }
                SyncOpKind::LockRelease => {
                    self.held_mut(tid).remove(&var);
                }
                // Lockset ignores every non-lock synchronization — the
                // source of its false positives.
                _ => {}
            },
            Record::Mem {
                tid,
                pc,
                addr,
                is_write,
                ..
            } => self.access(tid, pc, addr, is_write),
            Record::ThreadBegin { .. } | Record::ThreadEnd { .. } => {}
        }
        self.pos += 1;
    }

    fn access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool) {
        // The thread's held locks, borrowed: a location copies them only
        // when it first becomes shared.
        let held = self.held.get(&tid);
        let holds = |v: &SyncVar| held.is_some_and(|h| h.contains(v));
        let state = self
            .locations
            .entry(addr.raw())
            .or_insert(LocState::Virgin);
        let mut race_with: Option<Pc> = None;
        let next = match std::mem::replace(state, LocState::Virgin) {
            LocState::Virgin => LocState::Exclusive {
                tid,
                last_pc: pc,
                written: is_write,
            },
            LocState::Exclusive {
                tid: owner,
                last_pc,
                written,
            } => {
                if owner == tid {
                    LocState::Exclusive {
                        tid,
                        last_pc: pc,
                        written: written || is_write,
                    }
                } else if is_write || written {
                    // Second thread with a write involved: shared-modified.
                    let candidates = held.cloned().unwrap_or_default();
                    if candidates.is_empty() {
                        race_with = Some(last_pc);
                    }
                    LocState::SharedModified {
                        reported: candidates.is_empty(),
                        candidates,
                        last_pc: pc,
                    }
                } else {
                    LocState::Shared {
                        candidates: held.cloned().unwrap_or_default(),
                        last_pc: pc,
                    }
                }
            }
            LocState::Shared {
                mut candidates,
                last_pc,
            } => {
                candidates.retain(holds);
                if is_write {
                    if candidates.is_empty() {
                        race_with = Some(last_pc);
                    }
                    LocState::SharedModified {
                        reported: candidates.is_empty(),
                        candidates,
                        last_pc: pc,
                    }
                } else {
                    LocState::Shared {
                        candidates,
                        last_pc: pc,
                    }
                }
            }
            LocState::SharedModified {
                mut candidates,
                last_pc,
                reported,
            } => {
                candidates.retain(holds);
                let newly_empty = candidates.is_empty() && !reported;
                if newly_empty {
                    race_with = Some(last_pc);
                }
                LocState::SharedModified {
                    reported: reported || newly_empty,
                    candidates,
                    last_pc: pc,
                }
            }
        };
        *state = next;
        if let Some(prior_pc) = race_with {
            count_race(&mut self.pairs, prior_pc, pc, self.pos, addr, DEFAULT_PAIR_ADDR_CAP);
        }
    }

    /// Processes a whole log.
    pub fn process_log(&mut self, log: &EventLog) {
        for r in log {
            self.process(r);
        }
    }

    /// Finishes, producing a report.
    pub fn finish(self, non_stack_accesses: u64) -> RaceReport {
        report(self.pairs, non_stack_accesses)
    }
}

impl Default for LocksetDetector {
    fn default() -> LocksetDetector {
        LocksetDetector::new()
    }
}

/// One-shot convenience: run the lockset detector on a log.
pub fn detect_lockset(log: &EventLog, non_stack_accesses: u64) -> RaceReport {
    let mut d = LocksetDetector::new();
    d.process_log(log);
    d.finish(non_stack_accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pc, t};
    use literace_log::SamplerMask;

    fn a(i: u64) -> Addr {
        Addr::global(i)
    }
    fn v(i: u64) -> SyncVar {
        SyncVar(0x2000_0000 + i)
    }

    fn mem(tid: ThreadId, pcv: usize, addr: Addr, w: bool) -> Record {
        Record::Mem {
            tid,
            pc: pc(pcv),
            addr,
            is_write: w,
            mask: SamplerMask::FULL,
        }
    }

    fn sync(tid: ThreadId, kind: SyncOpKind, var: SyncVar) -> Record {
        Record::Sync {
            tid,
            pc: pc(99),
            kind,
            var,
            timestamp: 0,
        }
    }

    #[test]
    fn consistently_locked_accesses_are_clean() {
        let log: EventLog = vec![
            sync(t(0), SyncOpKind::LockAcquire, v(0)),
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::LockRelease, v(0)),
            sync(t(1), SyncOpKind::LockAcquire, v(0)),
            mem(t(1), 2, a(0), true),
            sync(t(1), SyncOpKind::LockRelease, v(0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect_lockset(&log, 2).static_count(), 0);
    }

    #[test]
    fn unlocked_shared_write_is_reported() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect_lockset(&log, 2).static_count(), 1);
    }

    #[test]
    fn lockset_false_positive_on_fork_join() {
        // Parent writes, forks; child writes. Happens-before says no race;
        // lockset (ignoring fork) reports one. This is the paper's reason
        // for choosing happens-before.
        let child_var = SyncVar(1);
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::Fork, child_var),
            sync(t(1), SyncOpKind::ThreadStart, child_var),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        let hb = crate::hb::detect(&log, 2);
        let ls = detect_lockset(&log, 2);
        assert_eq!(hb.static_count(), 0, "happens-before is precise here");
        assert_eq!(ls.static_count(), 1, "lockset reports a false positive");
    }

    #[test]
    fn read_sharing_without_writes_is_clean() {
        let log: EventLog = vec![
            mem(t(0), 1, a(0), false),
            mem(t(1), 2, a(0), false),
            mem(t(2), 3, a(0), false),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect_lockset(&log, 3).static_count(), 0);
    }

    #[test]
    fn exclusive_phase_does_not_report() {
        // Initialization by one thread without locks is fine (Eraser's
        // point: report only once truly shared).
        let log: EventLog = vec![
            mem(t(0), 1, a(0), true),
            mem(t(0), 2, a(0), true),
            mem(t(0), 3, a(0), false),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect_lockset(&log, 3).static_count(), 0);
    }

    #[test]
    fn each_location_reports_at_most_once() {
        let mut records = vec![];
        for i in 0..10 {
            records.push(mem(t(i % 2), i, a(0), true));
        }
        let log: EventLog = records.into_iter().collect();
        let r = detect_lockset(&log, 10);
        assert_eq!(r.dynamic_races, 1, "Eraser reports once per location");
    }

    #[test]
    fn a_huge_thread_id_holds_one_lock_set() {
        let mut d = LocksetDetector::new();
        d.process(&sync(t(0xFFFF_FFF0), SyncOpKind::LockAcquire, v(0)));
        assert_eq!(d.held.len(), 1);
        assert_eq!(d.finish(0).static_count(), 0);
    }

    #[test]
    fn partial_lock_discipline_is_caught() {
        // t0 uses the lock, t1 does not.
        let log: EventLog = vec![
            sync(t(0), SyncOpKind::LockAcquire, v(0)),
            mem(t(0), 1, a(0), true),
            sync(t(0), SyncOpKind::LockRelease, v(0)),
            mem(t(1), 2, a(0), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(detect_lockset(&log, 2).static_count(), 1);
    }
}
