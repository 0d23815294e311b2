//! Online race detection (§4.4's future direction, implemented).
//!
//! The paper writes the event stream to disk and detects offline, noting
//! that an online detector consuming the stream "on a spare core" would
//! avoid the I/O. [`OnlineDetector`] is that detector for our substrate: it
//! implements [`Observer`] and runs the happens-before core directly on the
//! simulator's live event stream — no log materialization at all.
//!
//! It synthesizes §4.3 allocation-as-synchronization from `Alloc`/`Free`
//! events, exactly as the offline instrumentation layer does, so online and
//! offline detection produce identical reports on the same execution (an
//! integration test asserts this).

use literace_sim::{alloc_page_var, pages_of, Event, Observer, SyncOpKind};

use crate::hb::{HbConfig, HbCore, COMPACT_INTERVAL};
use crate::report::RaceReport;

/// An [`Observer`] that performs full happens-before detection during the
/// run.
#[derive(Debug)]
pub struct OnlineDetector {
    core: HbCore,
    non_stack_accesses: u64,
    events_seen: u64,
    events_since_compact: u64,
}

impl OnlineDetector {
    /// Creates an online detector with default configuration.
    pub fn new() -> OnlineDetector {
        OnlineDetector::with_config(HbConfig::default())
    }

    /// Creates an online detector with an explicit core configuration.
    pub fn with_config(cfg: HbConfig) -> OnlineDetector {
        OnlineDetector {
            core: HbCore::new(cfg),
            non_stack_accesses: 0,
            events_seen: 0,
            events_since_compact: 0,
        }
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Finishes, producing the race report.
    pub fn finish(self) -> RaceReport {
        self.core.finish(self.non_stack_accesses)
    }
}

impl Default for OnlineDetector {
    fn default() -> OnlineDetector {
        OnlineDetector::new()
    }
}

impl Observer for OnlineDetector {
    fn on_event(&mut self, event: &Event) {
        self.events_seen += 1;
        match *event {
            Event::MemRead { tid, pc, addr } => {
                if addr.class().is_non_stack() {
                    self.non_stack_accesses += 1;
                }
                self.core.access(tid, pc, addr, false);
            }
            Event::MemWrite { tid, pc, addr } => {
                if addr.class().is_non_stack() {
                    self.non_stack_accesses += 1;
                }
                self.core.access(tid, pc, addr, true);
            }
            Event::Sync { tid, kind, var, .. } => self.core.sync(tid, kind, var),
            Event::Alloc {
                tid, base, words, ..
            }
            | Event::Free {
                tid, base, words, ..
            } => {
                for page in pages_of(base, words) {
                    self.core
                        .sync(tid, SyncOpKind::AllocPage, alloc_page_var(page));
                }
            }
            Event::ThreadExit { tid } => {
                self.core.retire_thread(tid);
                self.core.compact();
                self.events_since_compact = 0;
            }
            Event::ThreadStart { .. }
            | Event::FunctionEntry { .. }
            | Event::FunctionExit { .. }
            | Event::LoopIter { .. } => {}
        }
        self.events_since_compact += 1;
        if self.events_since_compact >= COMPACT_INTERVAL {
            self.events_since_compact = 0;
            self.core.compact();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::{
        lower, Machine, MachineConfig, ProgramBuilder, RandomScheduler, Rvalue,
    };

    fn run_online(
        build: impl FnOnce(&mut ProgramBuilder),
        seed: u64,
    ) -> RaceReport {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let compiled = lower(&b.build().unwrap());
        let mut det = OnlineDetector::new();
        Machine::new(&compiled, MachineConfig::default())
            .run(&mut RandomScheduler::seeded(seed), &mut det)
            .unwrap();
        det.finish()
    }

    #[test]
    fn detects_simple_race_online() {
        let report = run_online(
            |b| {
                let g = b.global_word("g");
                let w = b.function("w", 0, |f| {
                    f.write(g);
                });
                b.entry_fn("main", |f| {
                    let t1 = f.spawn(w, Rvalue::Const(0));
                    let t2 = f.spawn(w, Rvalue::Const(0));
                    f.join(t1);
                    f.join(t2);
                });
            },
            0,
        );
        assert_eq!(report.static_count(), 1);
    }

    #[test]
    fn locked_program_is_clean_online() {
        let report = run_online(
            |b| {
                let g = b.global_word("g");
                let m = b.mutex("m");
                let w = b.function("w", 0, |f| {
                    f.lock(m);
                    f.write(g);
                    f.unlock(m);
                });
                b.entry_fn("main", |f| {
                    let t1 = f.spawn(w, Rvalue::Const(0));
                    let t2 = f.spawn(w, Rvalue::Const(0));
                    f.join(t1);
                    f.join(t2);
                });
            },
            0,
        );
        assert_eq!(report.static_count(), 0);
    }

    #[test]
    fn heap_reuse_does_not_false_positive_online() {
        // Worker allocs, writes, frees. Two workers run sequentially via
        // join, so the second may get the same address; §4.3 page sync must
        // order them even though no lock is involved.
        let report = run_online(
            |b| {
                let w = b.function("w", 0, |f| {
                    let p = f.alloc(8);
                    f.write(literace_sim::AddrExpr::Indirect { base: p, offset: 0 });
                    f.free(p);
                });
                b.entry_fn("main", |f| {
                    let t1 = f.spawn(w, Rvalue::Const(0));
                    f.join(t1);
                    let t2 = f.spawn(w, Rvalue::Const(0));
                    f.join(t2);
                });
            },
            0,
        );
        assert_eq!(report.static_count(), 0);
    }

    #[test]
    fn fork_join_edges_respected_online() {
        let report = run_online(
            |b| {
                let g = b.global_word("g");
                let w = b.function("w", 0, |f| {
                    f.write(g);
                });
                b.entry_fn("main", |f| {
                    f.write(g);
                    let t = f.spawn(w, Rvalue::Const(0));
                    f.join(t);
                    f.write(g);
                });
            },
            0,
        );
        assert_eq!(report.static_count(), 0);
    }

    #[test]
    fn event_count_advances() {
        let mut det = OnlineDetector::new();
        assert_eq!(det.events_seen(), 0);
        det.on_event(&Event::ThreadExit {
            tid: literace_sim::ThreadId::MAIN,
        });
        assert_eq!(det.events_seen(), 1);
    }
}
