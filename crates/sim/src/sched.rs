//! Deterministic thread schedulers.
//!
//! A scheduler picks which runnable thread steps next. All provided
//! schedulers are deterministic functions of their construction parameters,
//! so a `(program, scheduler seed)` pair identifies an interleaving exactly —
//! this is what lets the evaluation compare samplers on *the same
//! interleaving* (§5.3 of the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ids::ThreadId;

/// Chooses the next thread to step.
///
/// [`Machine::run`](crate::Machine::run) runs the picked thread for its
/// whole slice: while the thread that just stepped is still runnable it
/// calls [`keep_current`](Scheduler::keep_current) instead of `pick`, and
/// picks only once that returns `false` or the thread blocks or exits.
pub trait Scheduler {
    /// Returns the index (into `runnable`) of the thread to run next.
    ///
    /// `runnable` is never empty and is sorted by thread id.
    fn pick(&mut self, runnable: &[ThreadId]) -> usize;

    /// Continues the current slice. Called instead of `pick` when the
    /// thread returned by the last `pick` or `keep_current` has just
    /// stepped and is still runnable.
    ///
    /// Returns `true` only if `pick` would return that thread again,
    /// whatever else is runnable, and then updates the scheduler's state
    /// exactly as that `pick` would. Returning `false` makes the machine
    /// call `pick`, so the default is correct for every scheduler, and a
    /// wrapper that forwards only `pick` still schedules identically.
    fn keep_current(&mut self) -> bool {
        false
    }
}

/// Uniform random scheduling from a fixed seed.
///
/// This is the workhorse scheduler: it context-switches at every step, which
/// maximizes the interleavings explored for a given seed set.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed; equal seeds give equal schedules.
    pub fn seeded(seed: u64) -> RandomScheduler {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, runnable: &[ThreadId]) -> usize {
        self.rng.gen_range(0..runnable.len())
    }
}

/// Round-robin with a fixed quantum: each thread runs `quantum` consecutive
/// steps before yielding.
///
/// [`keep_current`](Scheduler::keep_current) answers from the steps left
/// in the quantum.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    quantum: u32,
    remaining: u32,
    last: Option<ThreadId>,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: u32) -> RoundRobinScheduler {
        assert!(quantum > 0, "quantum must be positive");
        RoundRobinScheduler {
            quantum,
            remaining: 0,
            last: None,
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, runnable: &[ThreadId]) -> usize {
        if let Some(last) = self.last {
            if self.remaining > 0 {
                if let Ok(idx) = runnable.binary_search(&last) {
                    self.remaining -= 1;
                    return idx;
                }
            }
            // Quantum expired or thread no longer runnable: next thread id
            // after `last`, wrapping.
            let idx = runnable.partition_point(|&t| t <= last);
            let idx = if idx == runnable.len() { 0 } else { idx };
            self.last = Some(runnable[idx]);
            self.remaining = self.quantum - 1;
            return idx;
        }
        self.last = Some(runnable[0]);
        self.remaining = self.quantum - 1;
        0
    }

    fn keep_current(&mut self) -> bool {
        // `pick`'s first branch, which the still-runnable `last` passes.
        if self.remaining > 0 {
            self.remaining -= 1;
            return true;
        }
        false
    }
}

/// A scheduler that preempts only at synchronization-ish boundaries would be
/// less adversarial; the random scheduler with a small quantum approximates
/// coarse scheduling instead.
///
/// `ChunkedRandomScheduler` runs a randomly chosen thread for a random
/// quantum in `1..=max_quantum`, mimicking timeslice scheduling on a few
/// cores (the paper's testbed had four). The random draws happen only when
/// a slice starts, so [`keep_current`](Scheduler::keep_current) answers
/// from the steps left in the slice.
#[derive(Debug, Clone)]
pub struct ChunkedRandomScheduler {
    rng: StdRng,
    max_quantum: u32,
    remaining: u32,
    current: Option<ThreadId>,
}

impl ChunkedRandomScheduler {
    /// Creates a chunked scheduler from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `max_quantum` is zero.
    pub fn seeded(seed: u64, max_quantum: u32) -> ChunkedRandomScheduler {
        assert!(max_quantum > 0, "max_quantum must be positive");
        ChunkedRandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            max_quantum,
            remaining: 0,
            current: None,
        }
    }
}

impl Scheduler for ChunkedRandomScheduler {
    fn pick(&mut self, runnable: &[ThreadId]) -> usize {
        if self.remaining > 0 {
            if let Some(cur) = self.current {
                if let Ok(idx) = runnable.binary_search(&cur) {
                    self.remaining -= 1;
                    return idx;
                }
            }
        }
        let idx = self.rng.gen_range(0..runnable.len());
        self.current = Some(runnable[idx]);
        self.remaining = self.rng.gen_range(1..=self.max_quantum) - 1;
        idx
    }

    fn keep_current(&mut self) -> bool {
        // `pick`'s first branch, which the still-runnable `current` passes.
        if self.remaining > 0 {
            self.remaining -= 1;
            return true;
        }
        false
    }
}

/// A PCT-style priority scheduler (Burckhardt et al., "A Randomized
/// Scheduler with Probabilistic Guarantees of Finding Bugs").
///
/// Each thread gets a random priority; the highest-priority runnable thread
/// always runs. At `depth − 1` pre-drawn random step indices, the currently
/// running thread's priority is demoted below everything else. For a bug of
/// *depth* `d`, one run finds it with probability ≥ `1/(n·k^{d−1})` — a much
/// stronger exploration guarantee than uniform random scheduling, useful for
/// shaking out schedule-dependent behaviour in the workloads and detectors.
#[derive(Debug, Clone)]
pub struct PctScheduler {
    rng: StdRng,
    /// Priority per thread id (higher runs first); lazily extended.
    priorities: Vec<u64>,
    /// Remaining demotion points, as absolute step indices, descending.
    change_points: Vec<u64>,
    steps: u64,
    /// Next priority value to hand out on demotion (counts down, so demoted
    /// threads are ordered below all initial priorities among themselves).
    next_low: u64,
}

impl PctScheduler {
    /// Creates a PCT scheduler.
    ///
    /// `depth` is the bug depth budget (number of priority change points
    /// plus one); `expected_steps` bounds the range the change points are
    /// drawn from and should be of the order of the run's step count.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or `expected_steps` is zero.
    pub fn seeded(seed: u64, depth: u32, expected_steps: u64) -> PctScheduler {
        assert!(depth > 0, "depth must be positive");
        assert!(expected_steps > 0, "expected_steps must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut change_points: Vec<u64> = (1..depth)
            .map(|_| rng.gen_range(0..expected_steps))
            .collect();
        change_points.sort_unstable_by(|a, b| b.cmp(a));
        PctScheduler {
            rng,
            priorities: Vec::new(),
            change_points,
            steps: 0,
            next_low: depth as u64,
        }
    }

    fn priority_mut(&mut self, tid: ThreadId) -> &mut u64 {
        let i = tid.index();
        while self.priorities.len() <= i {
            // Initial priorities are large random values, far above the
            // demotion range [1, depth].
            let p = self.rng.gen_range(1_000_000..2_000_000);
            self.priorities.push(p);
        }
        &mut self.priorities[i]
    }
}

impl Scheduler for PctScheduler {
    fn pick(&mut self, runnable: &[ThreadId]) -> usize {
        // Materialize priorities for all runnable threads.
        for &t in runnable {
            let _ = self.priority_mut(t);
        }
        let (idx, &winner) = runnable
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| self.priorities[t.index()])
            .expect("runnable is never empty");
        self.steps += 1;
        if let Some(&cp) = self.change_points.last() {
            if self.steps >= cp {
                self.change_points.pop();
                // Demote the winner below every initial priority.
                self.next_low = self.next_low.saturating_sub(1).max(1);
                *self.priority_mut(winner) = self.next_low;
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tids(v: &[u32]) -> Vec<ThreadId> {
        v.iter().map(|&i| ThreadId::from_index(i as usize)).collect()
    }

    #[test]
    fn random_scheduler_is_deterministic() {
        let runnable = tids(&[0, 1, 2]);
        let picks = |seed| {
            let mut s = RandomScheduler::seeded(seed);
            (0..32).map(|_| s.pick(&runnable)).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn round_robin_honors_quantum() {
        let mut s = RoundRobinScheduler::new(3);
        let runnable = tids(&[0, 1]);
        let picks: Vec<usize> = (0..8).map(|_| s.pick(&runnable)).collect();
        assert_eq!(picks, vec![0, 0, 0, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn round_robin_skips_unrunnable_threads() {
        let mut s = RoundRobinScheduler::new(2);
        assert_eq!(s.pick(&tids(&[0, 1, 2])), 0);
        // Thread 0 blocks; the scheduler must move on.
        let idx = s.pick(&tids(&[1, 2]));
        assert_eq!(idx, 0); // picks T1
    }

    #[test]
    fn chunked_scheduler_is_deterministic() {
        let runnable = tids(&[0, 1, 2, 3]);
        let picks = |seed| {
            let mut s = ChunkedRandomScheduler::seeded(seed, 16);
            (0..64).map(|_| s.pick(&runnable)).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
    }

    #[test]
    fn pct_is_deterministic_and_mostly_sticky() {
        let runnable = tids(&[0, 1, 2, 3]);
        let picks = |seed| {
            let mut s = PctScheduler::seeded(seed, 3, 1_000);
            (0..200).map(|_| s.pick(&runnable)).collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        // Priority scheduling: long runs of the same thread, punctuated by
        // at most depth-1 switches (when all threads stay runnable).
        let p = picks(5);
        let switches = p.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 2, "PCT depth 3 made {switches} switches");
    }

    #[test]
    fn pct_demotions_change_the_running_thread() {
        let runnable = tids(&[0, 1, 2]);
        // With depth 8 over a short horizon, demotions must occur.
        let mut s = PctScheduler::seeded(11, 8, 64);
        let picks: Vec<usize> = (0..64).map(|_| s.pick(&runnable)).collect();
        let distinct: std::collections::HashSet<_> = picks.iter().collect();
        assert!(distinct.len() >= 2, "demotions never switched threads");
    }

    #[test]
    fn pct_machine_runs_complete() {
        use crate::{lower, Machine, MachineConfig, NullObserver, ProgramBuilder, Rvalue};
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let m = b.mutex("m");
        let w = b.function("w", 0, move |f| {
            f.loop_(30, |f| {
                f.lock(m);
                f.write(g);
                f.unlock(m);
            });
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let compiled = lower(&b.build().unwrap());
        for seed in 0..10 {
            let mut sched = PctScheduler::seeded(seed, 5, 2_000);
            let summary = Machine::new(&compiled, MachineConfig::default())
                .run(&mut sched, &mut NullObserver)
                .unwrap();
            assert_eq!(summary.mem_writes, 60, "seed {seed}");
        }
    }

    /// Driven as `Machine::run` drives it, `keep_current` while the last
    /// thread stays runnable and `pick` otherwise, a scheduler chooses
    /// exactly what it chooses when asked to `pick` before every step.
    fn assert_slices_match_picks<S: Scheduler + Clone>(sched: S) {
        let all = tids(&[0, 1, 2, 3, 4]);
        let (mut every_step, mut slices) = (sched.clone(), sched);
        let mut last: Option<ThreadId> = None;
        for step in 0..500usize {
            // One thread in seven steps is unrunnable, so slices also end
            // by blocking, not only by running out.
            let runnable: Vec<ThreadId> =
                all.iter().copied().filter(|t| t.index() != step % 7).collect();
            let want = runnable[every_step.pick(&runnable)];
            let got = match last {
                Some(t) if runnable.contains(&t) && slices.keep_current() => t,
                _ => runnable[slices.pick(&runnable)],
            };
            assert_eq!(got, want, "step {step}");
            last = Some(got);
        }
    }

    #[test]
    fn keep_current_continues_exactly_the_slice_pick_would() {
        assert_slices_match_picks(RandomScheduler::seeded(3));
        assert_slices_match_picks(RoundRobinScheduler::new(3));
        assert_slices_match_picks(ChunkedRandomScheduler::seeded(3, 16));
        assert_slices_match_picks(ChunkedRandomScheduler::seeded(4, 64));
        assert_slices_match_picks(PctScheduler::seeded(3, 4, 500));
    }

    #[test]
    fn chunked_scheduler_runs_bursts() {
        let mut s = ChunkedRandomScheduler::seeded(3, 8);
        let runnable = tids(&[0, 1, 2, 3]);
        let picks: Vec<usize> = (0..64).map(|_| s.pick(&runnable)).collect();
        // Bursty: adjacent picks repeat more often than uniform picking would.
        let repeats = picks.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 16, "expected bursty schedule, got {repeats} repeats");
    }
}
