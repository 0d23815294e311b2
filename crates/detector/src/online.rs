//! Online race detection (§4.4's future direction, implemented).
//!
//! The paper writes the event stream to disk and detects offline, noting
//! that an online detector consuming the stream "on a spare core" would
//! avoid the I/O. [`OnlineDetector`] is that detector for our substrate: an
//! [`Observer`] adapter that turns each simulator event into the record
//! full logging would write for it — every access, every sync operation,
//! the §4.3 allocation-page syncs of each `Alloc`/`Free`, and the thread
//! markers — and feeds it straight to an [`HbDetector`]. No log is
//! materialized, and online and offline detection produce identical
//! reports on the same execution (an integration test asserts this).

use literace_log::{Record, SamplerMask};
use literace_sim::{alloc_page_var, pages_of, Event, Observer, SyncOpKind};

use crate::hb::{HbConfig, HbDetector};
use crate::report::RaceReport;

/// An [`Observer`] that performs full happens-before detection during the
/// run.
#[derive(Debug)]
pub struct OnlineDetector {
    detector: HbDetector,
    /// Non-stack accesses executed: the report's rarity denominator.
    non_stack_accesses: u64,
}

impl OnlineDetector {
    /// Creates an online detector with default configuration.
    pub fn new() -> OnlineDetector {
        OnlineDetector::with_config(HbConfig::default())
    }

    /// Creates an online detector with an explicit configuration.
    pub fn with_config(cfg: HbConfig) -> OnlineDetector {
        OnlineDetector {
            detector: HbDetector::with_config(cfg),
            non_stack_accesses: 0,
        }
    }

    /// Number of addresses with live frontier state (memory footprint).
    pub fn tracked_locations(&self) -> usize {
        self.detector.tracked_locations()
    }

    /// Finishes, producing the race report.
    pub fn finish(self) -> RaceReport {
        self.detector.finish(self.non_stack_accesses)
    }
}

impl Default for OnlineDetector {
    fn default() -> OnlineDetector {
        OnlineDetector::new()
    }
}

impl Observer for OnlineDetector {
    fn on_event(&mut self, event: &Event) {
        // Events arrive in one global order, so the record position is a
        // valid §4.2 timestamp for every sync record.
        let timestamp = self.detector.records_processed();
        match *event {
            Event::MemRead { tid, pc, addr } | Event::MemWrite { tid, pc, addr } => {
                if addr.class().is_non_stack() {
                    self.non_stack_accesses += 1;
                }
                self.detector.process(&Record::Mem {
                    tid,
                    pc,
                    addr,
                    is_write: matches!(event, Event::MemWrite { .. }),
                    mask: SamplerMask::FULL,
                });
            }
            Event::Sync { tid, pc, kind, var } => self.detector.process(&Record::Sync {
                tid,
                pc,
                kind,
                var,
                timestamp,
            }),
            Event::Alloc {
                tid,
                pc,
                base,
                words,
            }
            | Event::Free {
                tid,
                pc,
                base,
                words,
            } => {
                for page in pages_of(base, words) {
                    self.detector.process(&Record::Sync {
                        tid,
                        pc,
                        kind: SyncOpKind::AllocPage,
                        var: alloc_page_var(page),
                        timestamp,
                    });
                }
            }
            Event::ThreadStart { tid, .. } => self.detector.process(&Record::ThreadBegin { tid }),
            Event::ThreadExit { tid } => self.detector.process(&Record::ThreadEnd { tid }),
            Event::FunctionEntry { .. } | Event::FunctionExit { .. } | Event::LoopIter { .. } => {}
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
    fn each_event_feeds_the_record_full_logging_writes() {
        let tid = literace_sim::ThreadId::MAIN;
        let pc = literace_sim::Pc::new(literace_sim::FuncId::from_index(0), 0);
        let mut det = OnlineDetector::new();
        assert_eq!(det.detector.records_processed(), 0);
        det.on_event(&Event::FunctionEntry {
            tid,
            func: literace_sim::FuncId::from_index(0),
        });
        assert_eq!(det.detector.records_processed(), 0, "no record for a call");
        // Two words straddling a page boundary touch two pages.
        let base = literace_sim::Addr(literace_sim::HEAP_BASE + literace_sim::PAGE_BYTES - 8);
        det.on_event(&Event::Alloc {
            tid,
            pc,
            base,
            words: 2,
        });
        assert_eq!(det.detector.records_processed(), 2, "one sync per page");
        det.on_event(&Event::ThreadExit { tid });
        assert_eq!(det.detector.records_processed(), 3);
    }
}
