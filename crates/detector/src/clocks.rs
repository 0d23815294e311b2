//! Thread and sync-variable clock state: the §2.1 clock algebra, written
//! once for every detection path.
//!
//! The replay stage (see [`hb`](crate::hb)) owns one [`ClockState`] and
//! replays every synchronization record through it, whether it feeds an
//! inline shard or the sharded engine's router:
//!
//! * each thread `t` carries a clock `C(t)`, materialized on first sight —
//!   together with every lower thread id — at `{t: 1}`, behind the tid
//!   ceiling of [`check_thread_index`];
//! * each synchronization variable `v` carries a clock `L(v)`;
//! * an acquire-like operation joins `L(v)` into `C(t)`; a release-like
//!   one joins `C(t)` into `L(v)` and then increments `C(t)[t]`;
//! * a fork materializes the child at once, so its initial clock pins the
//!   compaction bound until the child starts;
//! * an exited thread is retired and no longer bounds compaction.
//!
//! **Generations.** Each thread also carries a generation counter, bumped
//! exactly when its clock value changes: on every release, and on an
//! acquire only when the join raised a component. Equal
//! `(thread, generation)` therefore implies an equal clock value. That is
//! the token the frontier's same-epoch memo keys on (see
//! [`epoch`](crate::epoch)), and the key under which the router shares one
//! frozen snapshot of a clock across every access made under it.

use literace_sim::{SyncOpKind, SyncVar, ThreadId};

use crate::epoch::check_thread_index;
use crate::fast_hash::{FastMap, FastSet};
use crate::vector_clock::VectorClock;

/// One thread's clock state in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ThreadState {
    /// The thread's vector clock, as its dense component slice.
    pub components: Vec<u64>,
    /// The thread's clock generation (the frontier memo token).
    pub clock_gen: u64,
    /// Whether the thread has exited.
    pub retired: bool,
}

/// Per-thread and per-sync-variable vector clocks, with the generation
/// counters and retirement flags every detection path needs.
#[derive(Debug, Default)]
pub(crate) struct ClockState {
    threads: Vec<VectorClock>,
    /// `generation[t]` counts the changes of `threads[t]`'s value.
    generation: Vec<u64>,
    /// Indices of the threads known to have exited. May name threads past
    /// `threads`: a thread can end without ever having been materialized,
    /// and is retired once it is.
    retired: FastSet<usize>,
    syncvars: FastMap<SyncVar, VectorClock>,
}

impl ClockState {
    /// Rebuilds the clock state captured in a checkpoint. Each thread
    /// resumes at its saved generation.
    pub(crate) fn restore(threads: &[ThreadState], syncvars: &[(SyncVar, Vec<u64>)]) -> ClockState {
        ClockState {
            threads: threads
                .iter()
                .map(|t| VectorClock::from_components(t.components.clone()))
                .collect(),
            generation: threads.iter().map(|t| t.clock_gen).collect(),
            retired: (0..threads.len()).filter(|&i| threads[i].retired).collect(),
            syncvars: syncvars
                .iter()
                .map(|(var, c)| (*var, VectorClock::from_components(c.clone())))
                .collect(),
        }
    }

    /// The per-thread states and the sync-variable clocks (sorted by
    /// variable), for a checkpoint.
    pub(crate) fn snapshot(&self) -> (Vec<ThreadState>, Vec<(SyncVar, Vec<u64>)>) {
        let threads = (0..self.threads.len())
            .map(|i| ThreadState {
                components: self.threads[i].components().to_vec(),
                clock_gen: self.generation[i],
                retired: self.is_retired(i),
            })
            .collect();
        let mut syncvars: Vec<(SyncVar, Vec<u64>)> = self
            .syncvars
            .iter()
            .map(|(&var, clock)| (var, clock.components().to_vec()))
            .collect();
        syncvars.sort_unstable_by_key(|&(var, _)| var);
        (threads, syncvars)
    }

    /// Makes sure `tid`'s clock (and those of all lower thread ids) is
    /// materialized, and returns its index.
    ///
    /// # Panics
    ///
    /// Panics with [`TidCeilingExceeded`](crate::TidCeilingExceeded)'s
    /// message when the index exceeds
    /// [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX): beyond it the memo
    /// keys' access-kind bit packing would silently corrupt race
    /// classification (see `crate::epoch`), and materializing billions of
    /// backfilled clocks would exhaust memory long before that. Only a
    /// corrupt or hostile log can reach this.
    #[inline]
    pub(crate) fn ensure_thread(&mut self, tid: ThreadId) -> usize {
        let i = tid.index();
        if i >= self.threads.len() {
            self.materialize(i);
        }
        i
    }

    #[cold]
    #[inline(never)]
    fn materialize(&mut self, i: usize) {
        if let Err(e) = check_thread_index(i) {
            panic!("{e}");
        }
        for j in self.threads.len()..=i {
            let mut c = VectorClock::new();
            c.set(ThreadId::from_index(j), 1);
            self.threads.push(c);
            self.generation.push(0);
        }
    }

    /// Applies one synchronization operation by `tid`. For a releasing
    /// operation, returns the thread's own clock component before the
    /// increment: the epoch a later acquire of `var` imports.
    #[inline]
    pub(crate) fn sync(&mut self, tid: ThreadId, kind: SyncOpKind, var: SyncVar) -> Option<u64> {
        if kind == SyncOpKind::Fork {
            // Until the child starts, its initial clock must pin the
            // compaction bound: the child will begin from the parent's
            // fork-time snapshot, which may be older than every live
            // thread's current clock.
            self.ensure_thread(ThreadId::from_index(var.0 as usize));
        }
        let i = self.ensure_thread(tid);
        let clock = &mut self.threads[i];
        let mut changed = false;
        if kind.is_acquire() {
            if let Some(l) = self.syncvars.get(&var) {
                changed = clock.join(l);
            }
        }
        let mut released = None;
        if kind.is_release() {
            self.syncvars.entry(var).or_default().join(clock);
            released = Some(clock.get(tid));
            clock.increment(tid);
            changed = true;
        }
        if changed {
            self.generation[i] += 1;
        }
        released
    }

    /// Marks `tid` as exited: it makes no further accesses, so its clock
    /// no longer bounds compaction.
    pub(crate) fn retire(&mut self, tid: ThreadId) {
        self.retired.insert(tid.index());
    }

    fn is_retired(&self, i: usize) -> bool {
        self.retired.contains(&i)
    }

    /// Thread `i`'s present clock. `i` must be materialized.
    #[inline]
    pub(crate) fn clock(&self, i: usize) -> &VectorClock {
        &self.threads[i]
    }

    /// Thread `i`'s present generation. `i` must be materialized.
    #[inline]
    pub(crate) fn generation(&self, i: usize) -> u64 {
        self.generation[i]
    }

    /// Indices of the materialized threads that have not exited — the
    /// clocks every future access inherits, hence the compaction bound.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.threads.len()).filter(|&i| !self.is_retired(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::t;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Value equality: missing components are zero, so `[1]` equals
    /// `[1, 0]` — the equality the frontier's clock checks observe.
    fn same_value(a: &VectorClock, b: &VectorClock) -> bool {
        a.le(b) && b.le(a)
    }

    #[test]
    fn materializes_lower_threads_at_their_initial_clocks() {
        let mut clocks = ClockState::default();
        assert_eq!(clocks.ensure_thread(t(2)), 2);
        for i in 0..3 {
            assert_eq!(clocks.clock(i).get(t(i)), 1);
            assert_eq!(clocks.generation(i), 0);
        }
        assert_eq!(clocks.live().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn tid_ceiling_is_enforced_at_materialization() {
        ClockState::default().ensure_thread(t(crate::MAX_THREAD_INDEX + 1));
    }

    #[test]
    fn acquire_before_any_release_leaves_the_generation() {
        let mut clocks = ClockState::default();
        assert_eq!(clocks.sync(t(0), SyncOpKind::LockAcquire, SyncVar(7)), None);
        assert_eq!(clocks.generation(0), 0);
        assert_eq!(clocks.sync(t(0), SyncOpKind::LockRelease, SyncVar(7)), Some(1));
        assert_eq!(clocks.generation(0), 1);
        // Re-acquiring a lock whose clock the thread already covers
        // changes nothing either.
        clocks.sync(t(0), SyncOpKind::LockAcquire, SyncVar(7));
        assert_eq!(clocks.generation(0), 1);
    }

    #[test]
    fn fork_materializes_the_child_and_retirement_drops_it_from_live() {
        let mut clocks = ClockState::default();
        clocks.sync(t(0), SyncOpKind::Fork, SyncVar(3));
        assert_eq!(clocks.live().count(), 4);
        clocks.sync(t(3), SyncOpKind::ThreadStart, SyncVar(3));
        assert_eq!(clocks.clock(3).get(t(0)), 1, "child inherits the fork");
        assert_eq!(clocks.generation(3), 1);
        clocks.retire(t(3));
        clocks.retire(t(9));
        assert_eq!(clocks.live().collect::<Vec<_>>(), vec![0, 1, 2]);
        // A thread retired before it was materialized stays retired once
        // it is.
        clocks.ensure_thread(t(9));
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
        Sync(usize, SyncOpKind, u64),
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
            8 => (0usize..6, prop::sample::select(kinds), 0u64..6)
                .prop_map(|(tid, kind, var)| Op::Sync(tid, kind, var)),
            1 => (0usize..6).prop_map(Op::Exit),
            1 => Just(Op::Checkpoint),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random sync sequences — acquires before any release,
        /// releases, forks of unseen children, joins, exits, and restarts
        /// from a checkpoint snapshot — a thread's generation moves exactly
        /// when its clock value does, so equal `(thread, generation)`
        /// always names one clock value.
        #[test]
        fn generation_tracks_every_clock_change(ops in prop::collection::vec(arb_op(), 0..80)) {
            let mut clocks = ClockState::default();
            let mut seen: HashMap<(usize, u64), VectorClock> = HashMap::new();
            for op in ops {
                let before: Vec<(VectorClock, u64)> = (0..clocks.threads.len())
                    .map(|i| (clocks.clock(i).clone(), clocks.generation(i)))
                    .collect();
                match op {
                    Op::Sync(tid, kind, var) => {
                        clocks.sync(t(tid), kind, SyncVar(var));
                    }
                    Op::Exit(tid) => clocks.retire(t(tid)),
                    Op::Checkpoint => {
                        let (threads, syncvars) = clocks.snapshot();
                        let restored = ClockState::restore(&threads, &syncvars);
                        prop_assert_eq!(restored.snapshot(), clocks.snapshot());
                        prop_assert_eq!(
                            restored.live().collect::<Vec<_>>(),
                            clocks.live().collect::<Vec<_>>()
                        );
                        clocks = restored;
                    }
                }
                for (i, (old, old_gen)) in before.iter().enumerate() {
                    let changed = !same_value(old, clocks.clock(i));
                    prop_assert_eq!(changed, clocks.generation(i) != *old_gen, "thread {}", i);
                    prop_assert!(clocks.generation(i) >= *old_gen);
                }
                for i in 0..clocks.threads.len() {
                    let clock = clocks.clock(i);
                    let prior = seen.entry((i, clocks.generation(i))).or_insert_with(|| clock.clone());
                    prop_assert!(same_value(prior, clock), "thread {} generation reused", i);
                }
            }
        }
    }
}
