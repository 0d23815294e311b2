//! The runtime event stream and observer hooks.
//!
//! The machine emits one [`Event`] for every observable action. Observers —
//! the LiteRace instrumentation, the online detector, statistics collectors —
//! receive events in the machine's global step order, which is a legal
//! linearization of the execution: per-thread order is program order, and
//! per-synchronization-variable order is the true synchronization order. The
//! instrumentation layer relies on this to produce timestamps consistent with
//! §4.2 of the paper.
//!
//! # The dispatch check
//!
//! LiteRace clones every function and runs a dispatch check at each entry
//! that picks the instrumented or the uninstrumented copy (§3.3, §4.1).
//! Here the check is the observer's [`Observer::on_entry`] hook, and its
//! [`Dispatch`] answer is stored in the new frame. A frame that runs the
//! uninstrumented copy ([`Dispatch::Skip`]) delivers none of its data
//! accesses or loop iterations: they update only the [`RunSummary`] and
//! the baseline cost, as the uninstrumented clone pays nothing past its
//! check. Its synchronization operations, allocations and exit are
//! delivered from both copies. An observed frame's accesses arrive through
//! [`Observer::on_access`] with the observer's word for the frame.
//!
//! Every hook has a provided default that emits the events it stands in
//! for, and the default entry hook observes every frame, so an observer
//! that implements only [`Observer::on_event`] sees the complete stream.

use serde::{Deserialize, Serialize};

use crate::addr::Addr;
use crate::ids::{FuncId, Pc, SyncVar, ThreadId};
use crate::summary::RunSummary;

/// The kind of synchronization operation, with its happens-before role.
///
/// *Release-like* operations publish the executing thread's history to the
/// synchronization variable; *acquire-like* operations import it. Atomic
/// read-modify-writes do both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncOpKind {
    /// Mutex acquire (acquire role).
    LockAcquire,
    /// Mutex release (release role).
    LockRelease,
    /// Event signal (release role).
    Notify,
    /// Completed event wait (acquire role).
    WaitReturn,
    /// Event reset (no happens-before role; logged for completeness).
    Reset,
    /// Semaphore increment (release role).
    SemRelease,
    /// Completed semaphore decrement (acquire role).
    SemAcquire,
    /// Barrier arrival (release role on the barrier).
    BarrierArrive,
    /// Barrier departure (acquire role on the barrier) — the all-to-all
    /// rendezvous edge comes from every arrival preceding every departure.
    BarrierDepart,
    /// Thread creation, in the parent (release role on the child's id).
    Fork,
    /// First action of a new thread (acquire role on its own id).
    ThreadStart,
    /// Last action of an exiting thread (release role on its own id).
    ThreadExit,
    /// Completed join (acquire role on the joined thread's id).
    Join,
    /// Atomic read-modify-write on a data address (acquire + release).
    AtomicRmw,
    /// Allocation-as-synchronization on a heap page, §4.3 (acquire+release).
    AllocPage,
}

impl SyncOpKind {
    /// Whether the operation imports history from the sync variable.
    pub fn is_acquire(self) -> bool {
        matches!(
            self,
            SyncOpKind::LockAcquire
                | SyncOpKind::WaitReturn
                | SyncOpKind::SemAcquire
                | SyncOpKind::BarrierDepart
                | SyncOpKind::ThreadStart
                | SyncOpKind::Join
                | SyncOpKind::AtomicRmw
                | SyncOpKind::AllocPage
        )
    }

    /// Whether the operation publishes history to the sync variable.
    pub fn is_release(self) -> bool {
        matches!(
            self,
            SyncOpKind::LockRelease
                | SyncOpKind::Notify
                | SyncOpKind::SemRelease
                | SyncOpKind::BarrierArrive
                | SyncOpKind::Fork
                | SyncOpKind::ThreadExit
                | SyncOpKind::AtomicRmw
                | SyncOpKind::AllocPage
        )
    }
}

/// One observable runtime action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A thread began executing (its entry function is about to run).
    ThreadStart {
        /// The new thread.
        tid: ThreadId,
        /// The spawning thread (`None` for the main thread).
        parent: Option<ThreadId>,
        /// The thread's entry function.
        func: FuncId,
    },
    /// A thread finished (its entry function returned).
    ThreadExit {
        /// The exiting thread.
        tid: ThreadId,
    },
    /// Control entered a function (the dispatch-check point, §3.3).
    FunctionEntry {
        /// Executing thread.
        tid: ThreadId,
        /// The function being entered.
        func: FuncId,
    },
    /// Control left a function.
    FunctionExit {
        /// Executing thread.
        tid: ThreadId,
        /// The function being left.
        func: FuncId,
    },
    /// A loop iteration began (emitted at loop entry and at each back-edge).
    /// Supports the paper's §7 future-work extension: sampling at loop
    /// granularity inside a single function execution.
    LoopIter {
        /// Executing thread.
        tid: ThreadId,
        /// The function containing the loop.
        func: FuncId,
        /// The loop-head instruction site (identifies the loop).
        head: Pc,
    },
    /// A data read.
    MemRead {
        /// Executing thread.
        tid: ThreadId,
        /// Static site of the access.
        pc: Pc,
        /// Target address.
        addr: Addr,
    },
    /// A data write.
    MemWrite {
        /// Executing thread.
        tid: ThreadId,
        /// Static site of the access.
        pc: Pc,
        /// Target address.
        addr: Addr,
    },
    /// A synchronization operation (Table 1).
    Sync {
        /// Executing thread.
        tid: ThreadId,
        /// Static site of the operation.
        pc: Pc,
        /// Kind and happens-before role.
        kind: SyncOpKind,
        /// The synchronization variable (Table 1 mapping).
        var: SyncVar,
    },
    /// A heap allocation (also triggers §4.3 page synchronization, which the
    /// instrumentation layer derives from this event).
    Alloc {
        /// Executing thread.
        tid: ThreadId,
        /// Static site.
        pc: Pc,
        /// Base address of the allocation.
        base: Addr,
        /// Size in words.
        words: u64,
    },
    /// A heap free.
    Free {
        /// Executing thread.
        tid: ThreadId,
        /// Static site.
        pc: Pc,
        /// Base address of the allocation.
        base: Addr,
        /// Size in words.
        words: u64,
    },
}

impl Event {
    /// The thread that performed this event.
    pub fn tid(&self) -> ThreadId {
        match *self {
            Event::ThreadStart { tid, .. }
            | Event::ThreadExit { tid }
            | Event::FunctionEntry { tid, .. }
            | Event::FunctionExit { tid, .. }
            | Event::LoopIter { tid, .. }
            | Event::MemRead { tid, .. }
            | Event::MemWrite { tid, .. }
            | Event::Sync { tid, .. }
            | Event::Alloc { tid, .. }
            | Event::Free { tid, .. } => tid,
        }
    }

    /// Whether this is a data memory access (the sampled event class).
    pub fn is_data_access(&self) -> bool {
        matches!(self, Event::MemRead { .. } | Event::MemWrite { .. })
    }
}

/// An observer's answer at a function entry: which copy of the function
/// the new frame runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// The uninstrumented copy: the frame's data accesses and loop
    /// iterations reach no observer.
    Skip,
    /// The instrumented copy. The word is the observer's own tag for the
    /// frame (the instrumenter's sampler mask); the machine hands it back
    /// with each of the frame's accesses.
    Observe(u32),
}

/// Receives the event stream of a run.
///
/// Observers must not assume anything beyond the linearization guarantee
/// documented at the module level. To feed several observers one run,
/// run the (deterministic) schedule once per observer.
pub trait Observer {
    /// Called for every event, in the machine's global step order.
    fn on_event(&mut self, event: &Event);

    /// The dispatch check: called at every function entry, in place of the
    /// [`Event::FunctionEntry`] event. The machine stores the [`Dispatch`]
    /// answer in the new frame; a skipped frame's data accesses and loop
    /// iterations reach no hook, while its sync operations, allocations and
    /// exit are still delivered.
    ///
    /// The default delivers the `FunctionEntry` event and observes every
    /// frame, so the stream is complete unless an observer opts out. Like
    /// `Scheduler::keep_current`, it is always correct to keep.
    fn on_entry(&mut self, tid: ThreadId, func: FuncId) -> Dispatch {
        self.on_event(&Event::FunctionEntry { tid, func });
        Dispatch::Observe(0)
    }

    /// Called for every data access of an observed frame, in place of its
    /// [`Event::MemRead`] or [`Event::MemWrite`] event, with the word the
    /// frame's [`on_entry`](Observer::on_entry) answered. The default
    /// delivers the event.
    fn on_access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool, word: u32) {
        let _ = word;
        self.on_event(&if is_write {
            Event::MemWrite { tid, pc, addr }
        } else {
            Event::MemRead { tid, pc, addr }
        });
    }

    /// Called once as a run ends, completed or not, with the machine's
    /// counters so far: every access executed, observed or not, is in
    /// them. The default does nothing.
    fn on_run_end(&mut self, summary: &RunSummary) {
        let _ = summary;
    }
}

/// An observer that discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &Event) {}
}

/// An observer that buffers every event (useful in tests).
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    /// Events in arrival order.
    pub events: Vec<Event>,
}

impl Observer for RecordingObserver {
    fn on_event(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_event(&mut self, event: &Event) {
        (**self).on_event(event);
    }

    fn on_entry(&mut self, tid: ThreadId, func: FuncId) -> Dispatch {
        (**self).on_entry(tid, func)
    }

    fn on_access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool, word: u32) {
        (**self).on_access(tid, pc, addr, is_write, word);
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        (**self).on_run_end(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roles_cover_every_kind() {
        use SyncOpKind::*;
        for kind in [
            LockAcquire,
            LockRelease,
            Notify,
            WaitReturn,
            Reset,
            SemRelease,
            SemAcquire,
            BarrierArrive,
            BarrierDepart,
            Fork,
            ThreadStart,
            ThreadExit,
            Join,
            AtomicRmw,
            AllocPage,
        ] {
            // Reset is the only kind with no HB role at all.
            if kind == Reset {
                assert!(!kind.is_acquire() && !kind.is_release());
            } else {
                assert!(kind.is_acquire() || kind.is_release(), "{kind:?}");
            }
        }
    }

    #[test]
    fn release_acquire_pairs_match() {
        assert!(SyncOpKind::LockRelease.is_release());
        assert!(SyncOpKind::LockAcquire.is_acquire());
        assert!(SyncOpKind::Fork.is_release());
        assert!(SyncOpKind::ThreadStart.is_acquire());
        assert!(SyncOpKind::AtomicRmw.is_acquire() && SyncOpKind::AtomicRmw.is_release());
    }

    #[test]
    fn default_hooks_deliver_the_events_they_replace() {
        let mut obs = RecordingObserver::default();
        let (tid, func) = (ThreadId::MAIN, FuncId::from_index(2));
        let (pc, addr) = (Pc::new(func, 1), Addr(0x1000_0008));
        assert_eq!(obs.on_entry(tid, func), Dispatch::Observe(0));
        obs.on_access(tid, pc, addr, false, 7);
        // Through the `&mut O` impl, which forwards every hook.
        Observer::on_access(&mut &mut obs, tid, pc, addr, true, 0);
        obs.on_run_end(&RunSummary::default());
        assert_eq!(
            obs.events,
            [
                Event::FunctionEntry { tid, func },
                Event::MemRead { tid, pc, addr },
                Event::MemWrite { tid, pc, addr },
            ]
        );
    }
}
