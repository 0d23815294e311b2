//! Thread and sync-variable clock state: the §2.1 clock algebra and the
//! §4.2 timestamp monitor, written once for every detection path.
//!
//! The replay stage (see `crate::hb`) owns one [`ClockState`] and
//! replays every synchronization record through it, whether it feeds the
//! inline shard or one of the sharded engine's replicas, each of which
//! keeps its own copy. It keeps one record per fact:
//!
//! * each thread `t` has one [`ThreadClock`]: its clock `C(t)`,
//!   materialized on first sight — together with every lower thread id —
//!   at `{t: 1}`, behind the tid ceiling of [`check_thread_index`], and
//!   its generation;
//! * each synchronization variable `v` has one [`SyncClock`]: its clock
//!   `L(v)` and the last timestamp logged on it, created by its first
//!   record, so a sync record probes the variable table once;
//! * an acquire-like operation joins `L(v)` into `C(t)`; a release-like
//!   one joins `C(t)` into `L(v)` and then increments `C(t)[t]`;
//! * a fork materializes the child at once, so its initial clock pins the
//!   compaction bound until the child starts;
//! * an exited thread joins the retired set and no longer bounds
//!   compaction. The set is keyed by thread, so a thread can retire
//!   before it is materialized and stays retired once it is.
//!
//! **Generations.** A thread's generation is bumped exactly when its
//! clock value changes: on every release, and on an acquire only when the
//! join raised a component. Equal `(thread, generation)` therefore
//! implies an equal clock value. That is the token the frontier's
//! same-epoch memo keys on (see `crate::epoch`). Every replica replays
//! the same records, so a `(thread, generation)` names the same clock
//! value in every replica.
//!
//! **Timestamp order (§4.2).** Operations on one variable must be logged
//! in timestamp order; a sync record whose timestamp is below its
//! variable's last one counts as a violation (zero on a sound log).

use literace_sim::{SyncOpKind, SyncVar, ThreadId};

use crate::epoch::{check_thread_index, TidCeilingExceeded};
use crate::fast_hash::{FastMap, FastSet};
use crate::vector_clock::VectorClock;

/// One thread's clock `C(t)` and its generation, the count of the
/// clock's value changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ThreadClock {
    pub(crate) clock: VectorClock,
    pub(crate) generation: u64,
}

/// One synchronization variable's clock `L(v)` and the last timestamp
/// logged on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SyncClock {
    pub(crate) clock: VectorClock,
    pub(crate) last_ts: u64,
}

/// Every thread's and every sync variable's clock state, the retired set
/// and the §4.2 monitor: the replay stage's clock half, which a
/// checkpoint stores as it is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ClockState {
    /// By thread index; every index below the highest seen is present.
    pub(crate) threads: Vec<ThreadClock>,
    /// Indices of the threads known to have exited. May name threads past
    /// `threads`: a thread can end without ever having been materialized.
    pub(crate) retired: FastSet<usize>,
    /// Every variable a sync record has named.
    pub(crate) syncvars: FastMap<SyncVar, SyncClock>,
    /// Sync records logged below their variable's last timestamp.
    pub(crate) timestamp_violations: u64,
}

impl ClockState {
    /// Makes sure `tid`'s clock (and those of all lower thread ids) is
    /// materialized, and returns its index.
    ///
    /// # Errors
    ///
    /// [`TidCeilingExceeded`] when the index exceeds
    /// [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX): beyond it the memo
    /// keys' access-kind bit packing would silently corrupt race
    /// classification (see `crate::epoch`), and materializing billions of
    /// backfilled clocks would exhaust memory long before that. Only a
    /// corrupt or hostile log can reach this. Nothing is materialized
    /// then, and the caller stops replaying.
    #[inline]
    pub(crate) fn ensure_thread(&mut self, tid: ThreadId) -> Result<usize, TidCeilingExceeded> {
        let i = tid.index();
        if i >= self.threads.len() {
            self.materialize(i)?;
        }
        Ok(i)
    }

    #[cold]
    #[inline(never)]
    fn materialize(&mut self, i: usize) -> Result<(), TidCeilingExceeded> {
        check_thread_index(i)?;
        for j in self.threads.len()..=i {
            let mut clock = VectorClock::new();
            clock.set(ThreadId::from_index(j), 1);
            self.threads.push(ThreadClock {
                clock,
                generation: 0,
            });
        }
        Ok(())
    }

    /// Applies one synchronization operation by `tid`, logged at
    /// `timestamp`: one probe of the variable table serves the timestamp
    /// check and both joins. For a releasing operation, returns the
    /// thread's own clock component before the increment: the epoch a
    /// later acquire of `var` imports.
    ///
    /// # Errors
    ///
    /// [`TidCeilingExceeded`] from [`ensure_thread`](Self::ensure_thread),
    /// for `tid` or a forked child; the operation is not applied.
    #[inline]
    pub(crate) fn sync(
        &mut self,
        tid: ThreadId,
        kind: SyncOpKind,
        var: SyncVar,
        timestamp: u64,
    ) -> Result<Option<u64>, TidCeilingExceeded> {
        if kind == SyncOpKind::Fork {
            // Until the child starts, its initial clock must pin the
            // compaction bound: the child will begin from the parent's
            // fork-time snapshot, which may be older than every live
            // thread's current clock.
            self.ensure_thread(ThreadId::from_index(var.0 as usize))?;
        }
        let i = self.ensure_thread(tid)?;
        let ThreadClock { clock, generation } = &mut self.threads[i];
        let sv = self.syncvars.entry(var).or_default();
        if timestamp < sv.last_ts {
            self.timestamp_violations += 1;
        }
        sv.last_ts = sv.last_ts.max(timestamp);
        let mut changed = kind.is_acquire() && clock.join(&sv.clock);
        let mut released = None;
        if kind.is_release() {
            sv.clock.join(clock);
            released = Some(clock.get(tid));
            clock.increment(tid);
            changed = true;
        }
        if changed {
            *generation += 1;
        }
        Ok(released)
    }

    /// Marks `tid` as exited: it makes no further accesses, so its clock
    /// no longer bounds compaction.
    pub(crate) fn retire(&mut self, tid: ThreadId) {
        self.retired.insert(tid.index());
    }

    /// Thread `i`'s present clock and generation. `i` must be
    /// materialized.
    #[inline]
    pub(crate) fn thread(&self, i: usize) -> &ThreadClock {
        &self.threads[i]
    }

    /// Indices of the materialized threads that have not exited — the
    /// clocks every future access inherits, hence the compaction bound.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.threads.len()).filter(|i| !self.retired.contains(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::hb::{HbConfig, Replay};
    use crate::testkit::t;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Value equality: missing components are zero, so `[1]` equals
    /// `[1, 0]` — the equality the frontier's clock checks observe.
    fn same_value(a: &VectorClock, b: &VectorClock) -> bool {
        a.le(b) && b.le(a)
    }

    fn generation(clocks: &ClockState, i: usize) -> u64 {
        clocks.thread(i).generation
    }

    /// `sync` on a state no test drives past the tid ceiling.
    fn sync(
        clocks: &mut ClockState,
        tid: usize,
        kind: SyncOpKind,
        var: u64,
        ts: u64,
    ) -> Option<u64> {
        clocks.sync(t(tid), kind, SyncVar(var), ts).unwrap()
    }

    #[test]
    fn materializes_lower_threads_at_their_initial_clocks() {
        let mut clocks = ClockState::default();
        assert_eq!(clocks.ensure_thread(t(2)), Ok(2));
        for i in 0..3 {
            assert_eq!(clocks.thread(i).clock.get(t(i)), 1);
            assert_eq!(generation(&clocks, i), 0);
        }
        assert_eq!(clocks.live().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn tid_ceiling_is_enforced_at_materialization() {
        let mut clocks = ClockState::default();
        let over = crate::MAX_THREAD_INDEX + 1;
        assert_eq!(clocks.ensure_thread(t(over)), Err(TidCeilingExceeded { index: over }));
        let fork = clocks.sync(t(0), SyncOpKind::Fork, SyncVar(over as u64), 1);
        assert_eq!(fork, Err(TidCeilingExceeded { index: over }));
        assert_eq!(clocks, ClockState::default(), "a rejected thread materializes nothing");
    }

    #[test]
    fn acquire_before_any_release_leaves_the_generation() {
        let mut clocks = ClockState::default();
        assert_eq!(sync(&mut clocks, 0, SyncOpKind::LockAcquire, 7, 1), None);
        assert_eq!(generation(&clocks, 0), 0);
        assert_eq!(sync(&mut clocks, 0, SyncOpKind::LockRelease, 7, 2), Some(1));
        assert_eq!(generation(&clocks, 0), 1);
        // Re-acquiring a lock whose clock the thread already covers
        // changes nothing either.
        sync(&mut clocks, 0, SyncOpKind::LockAcquire, 7, 3);
        assert_eq!(generation(&clocks, 0), 1);
    }

    #[test]
    fn one_record_per_variable_keeps_its_clock_and_last_timestamp() {
        let mut clocks = ClockState::default();
        // An acquire-only variable gets its record too, with an empty clock.
        sync(&mut clocks, 0, SyncOpKind::LockAcquire, 3, 4);
        sync(&mut clocks, 1, SyncOpKind::LockRelease, 5, 9);
        sync(&mut clocks, 0, SyncOpKind::LockAcquire, 5, 7);
        assert_eq!(clocks.syncvars.len(), 2);
        let v3 = &clocks.syncvars[&SyncVar(3)];
        assert_eq!((v3.clock.len(), v3.last_ts), (0, 4));
        let v5 = &clocks.syncvars[&SyncVar(5)];
        assert_eq!((v5.clock.get(t(1)), v5.last_ts), (1, 9));
        assert_eq!(clocks.timestamp_violations, 1, "7 after 9 on one variable");
        assert_eq!(clocks.thread(0).clock.get(t(1)), 1, "the acquire imported t1");
    }

    #[test]
    fn fork_materializes_the_child_and_retirement_drops_it_from_live() {
        let mut clocks = ClockState::default();
        sync(&mut clocks, 0, SyncOpKind::Fork, 3, 1);
        assert_eq!(clocks.live().count(), 4);
        sync(&mut clocks, 3, SyncOpKind::ThreadStart, 3, 2);
        assert_eq!(clocks.thread(3).clock.get(t(0)), 1, "child inherits the fork");
        assert_eq!(generation(&clocks, 3), 1);
        clocks.retire(t(3));
        clocks.retire(t(9));
        assert_eq!(clocks.live().collect::<Vec<_>>(), vec![0, 1, 2]);
        // A thread retired before it was materialized stays retired once
        // it is.
        clocks.ensure_thread(t(9)).unwrap();
        assert_eq!(
            clocks.live().collect::<Vec<_>>(),
            vec![0, 1, 2, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn retiring_a_huge_thread_id_keeps_one_flag() {
        let mut clocks = ClockState::default();
        clocks.retire(t(0xFFFF_FFF0));
        assert_eq!(clocks.retired.len(), 1);
        assert_eq!(clocks.live().count(), 0);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Sync(usize, SyncOpKind, u64, u64),
        Exit(usize),
        Checkpoint,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let kinds = vec![
            SyncOpKind::LockAcquire,
            SyncOpKind::LockRelease,
            SyncOpKind::Fork,
            SyncOpKind::ThreadStart,
            SyncOpKind::ThreadExit,
            SyncOpKind::Join,
            SyncOpKind::AtomicRmw,
            SyncOpKind::Notify,
            SyncOpKind::WaitReturn,
            SyncOpKind::Reset,
        ];
        prop_oneof![
            8 => (0usize..6, prop::sample::select(kinds), 0u64..6, 0u64..20)
                .prop_map(|(tid, kind, var, ts)| Op::Sync(tid, kind, var, ts)),
            1 => (0usize..8).prop_map(Op::Exit),
            1 => Just(Op::Checkpoint),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random sync sequences — acquires before any release,
        /// releases, forks of unseen children, joins, exits of threads
        /// not yet materialized, and restarts from a sealed checkpoint —
        /// a thread's generation moves exactly when its clock value does,
        /// so equal `(thread, generation)` always names one clock value,
        /// and a checkpoint round trip restores the whole state.
        #[test]
        fn generation_tracks_every_clock_change(ops in prop::collection::vec(arb_op(), 0..80)) {
            let mut clocks = ClockState::default();
            let mut seen: HashMap<(usize, u64), VectorClock> = HashMap::new();
            for op in ops {
                let before = clocks.threads.clone();
                match op {
                    Op::Sync(tid, kind, var, ts) => {
                        sync(&mut clocks, tid, kind, var, ts);
                    }
                    Op::Exit(tid) => clocks.retire(t(tid)),
                    Op::Checkpoint => {
                        let replay = Replay { clocks, ..Replay::default() };
                        let cp = Checkpoint::assemble(&replay, HbConfig::default(), Vec::new(), 0);
                        let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
                        prop_assert_eq!(&back.replay, &replay);
                        clocks = back.replay.clocks;
                    }
                }
                for (i, old) in before.iter().enumerate() {
                    let changed = !same_value(&old.clock, &clocks.thread(i).clock);
                    let moved = generation(&clocks, i) != old.generation;
                    prop_assert_eq!(changed, moved, "thread {}", i);
                    prop_assert!(generation(&clocks, i) >= old.generation);
                }
                for (i, thread) in clocks.threads.iter().enumerate() {
                    let prior = seen
                        .entry((i, thread.generation))
                        .or_insert_with(|| thread.clock.clone());
                    prop_assert!(same_value(prior, &thread.clock), "thread {} gen reused", i);
                }
            }
        }
    }
}
