//! Logical timestamps for synchronization operations (§4.2).
//!
//! The paper needs, for every pair `a → b` of operations on the same
//! `SyncVar`, that `a`'s logged timestamp is smaller than `b`'s. A single
//! global counter would do, but its cache-line contention "can dramatically
//! slow down" instrumented programs on multiprocessors, so LiteRace uses
//! **one of 128 counters selected by a hash of the SyncVar**. Counters are
//! monotonic, so the per-variable order is still strict; unrelated variables
//! merely share counters (which inflates, never reorders, their timestamps).
//!
//! The bank also models the *cost* of timestamping: stamping through a
//! counter that the previous stamp (by a different thread) also used is
//! charged a contention penalty, which lets the ablation benchmark
//! demonstrate why 128 counters beat 1.

use literace_sim::{SyncVar, ThreadId};

/// The paper's counter-bank size.
pub const PAPER_COUNTER_COUNT: usize = 128;

/// Width of the sliding window used to model concurrent demand on a
/// counter's cache line. A power of two, so the ring index wraps by mask.
const RECENT_WINDOW: usize = 16;

/// The counter index of an empty window slot: no counter has it, because
/// [`TimestampBank::with_counters`] keeps the bank smaller.
const EMPTY_SLOT: u32 = u32::MAX;

/// A bank of logical-timestamp counters indexed by a hash of the `SyncVar`.
///
/// # Examples
///
/// ```
/// use literace_instrument::TimestampBank;
/// use literace_sim::{SyncVar, ThreadId};
///
/// let mut bank = TimestampBank::paper();
/// let v = SyncVar(0x2000_0040);
/// let a = bank.stamp(ThreadId::from_index(0), v);
/// let b = bank.stamp(ThreadId::from_index(1), v);
/// assert!(b > a, "per-variable timestamps strictly increase");
/// ```
#[derive(Debug, Clone)]
pub struct TimestampBank {
    counters: Vec<u64>,
    /// `counters.len() - 1` when the count is a power of two, so a hash
    /// picks its counter with a mask instead of a division.
    pow2_mask: Option<usize>,
    /// The last [`RECENT_WINDOW`] stamps, as (counter index, thread
    /// index), in a ring; slots not yet written hold [`EMPTY_SLOT`].
    recent: [(u32, u32); RECENT_WINDOW],
    /// The ring slot the next stamp overwrites (its oldest).
    next: usize,
    /// Stamps that found at least one recent stamp by another thread on the
    /// same counter.
    pub contended_stamps: u64,
    /// Modeled cache-line transfers: for each stamp, the number of recent
    /// stamps by *other* threads on the *same* counter — concurrent demand
    /// that would serialize on the line. With one global counter all
    /// synchronization in flight piles onto one line; with 128 hashed
    /// counters concurrent stamps usually target different lines. This is
    /// the §4.2 performance argument.
    pub contention_units: u64,
    /// Total stamps issued.
    pub total_stamps: u64,
}

impl TimestampBank {
    /// A bank with the paper's 128 counters.
    pub fn paper() -> TimestampBank {
        TimestampBank::with_counters(PAPER_COUNTER_COUNT)
    }

    /// A bank with a custom number of counters (1 = the naive global
    /// counter the paper rejects).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not below `u32::MAX`.
    pub fn with_counters(n: usize) -> TimestampBank {
        assert!(n > 0, "need at least one counter");
        assert!(
            n < EMPTY_SLOT as usize,
            "{n} counters exceed the bank's index width"
        );
        TimestampBank {
            counters: vec![0; n],
            pow2_mask: n.is_power_of_two().then(|| n - 1),
            recent: [(EMPTY_SLOT, 0); RECENT_WINDOW],
            next: 0,
            contended_stamps: 0,
            contention_units: 0,
            total_stamps: 0,
        }
    }

    /// Number of counters in the bank.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// Issues the next timestamp for `var`, on behalf of `tid`.
    ///
    /// Timestamps for one variable are strictly increasing. The first stamp
    /// issued by any counter is 1, so 0 can serve as "before everything".
    pub fn stamp(&mut self, tid: ThreadId, var: SyncVar) -> u64 {
        let hash = hash_var(var) as usize;
        let idx = match self.pow2_mask {
            Some(mask) => hash & mask,
            None => hash % self.counters.len(),
        };
        self.counters[idx] += 1;
        self.total_stamps += 1;
        let me = tid.index() as u32;
        // A branch-free count over the whole ring: empty slots never match.
        let others = self
            .recent
            .iter()
            .map(|&(i, t)| u64::from(i == idx as u32 && t != me))
            .sum::<u64>();
        if others > 0 {
            self.contended_stamps += 1;
            self.contention_units += others;
        }
        self.recent[self.next] = (idx as u32, me);
        self.next = (self.next + 1) & (RECENT_WINDOW - 1);
        self.counters[idx]
    }

    /// Fraction of stamps that were contended (different thread than the
    /// previous stamp on the same counter).
    pub fn contention_rate(&self) -> f64 {
        if self.total_stamps == 0 {
            return 0.0;
        }
        self.contended_stamps as f64 / self.total_stamps as f64
    }
}

/// Fibonacci-style multiplicative hash of a sync variable.
fn hash_var(var: SyncVar) -> u64 {
    var.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    #[test]
    fn per_var_timestamps_strictly_increase() {
        let mut bank = TimestampBank::paper();
        let v = SyncVar(0x2000_0040);
        let mut last = 0;
        for _ in 0..1000 {
            let ts = bank.stamp(t(0), v);
            assert!(ts > last);
            last = ts;
        }
    }

    #[test]
    fn interleaved_vars_still_increase_per_var() {
        let mut bank = TimestampBank::paper();
        let vars: Vec<SyncVar> = (0..50).map(|i| SyncVar(0x2000_0000 + i * 64)).collect();
        let mut last: Vec<u64> = vec![0; vars.len()];
        for round in 0..200 {
            for (i, v) in vars.iter().enumerate() {
                let ts = bank.stamp(t(round % 3), *v);
                assert!(ts > last[i], "var {i} regressed");
                last[i] = ts;
            }
        }
    }

    #[test]
    fn single_counter_bank_is_a_total_order() {
        let mut bank = TimestampBank::with_counters(1);
        let a = bank.stamp(t(0), SyncVar(1));
        let b = bank.stamp(t(1), SyncVar(2));
        assert!(b > a, "one counter totally orders everything");
    }

    #[test]
    fn contention_is_lower_with_more_counters() {
        // Two threads alternating on two different vars: with one counter
        // every stamp contends; with 128 the vars usually hash apart.
        let run = |n| {
            let mut bank = TimestampBank::with_counters(n);
            for i in 0..10_000u64 {
                let tid = t((i % 2) as usize);
                let var = SyncVar(0x2000_0000 + (i % 2) * 64);
                bank.stamp(tid, var);
            }
            bank.contention_rate()
        };
        let one = run(1);
        let many = run(PAPER_COUNTER_COUNT);
        assert!(one > 0.9, "single counter contends: {one}");
        assert!(many < one, "128 counters must contend less: {many} vs {one}");
    }

    #[test]
    fn hash_spreads_sync_object_addresses() {
        // Sync objects are 64 bytes apart; they must not all collapse onto
        // a few counters.
        let mut used = std::collections::HashSet::new();
        for i in 0..256u64 {
            let v = SyncVar(0x2000_0000 + i * 64);
            used.insert(hash_var(v) as usize % PAPER_COUNTER_COUNT);
        }
        assert!(used.len() > 64, "only {} counters used", used.len());
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_counters_rejected() {
        let _ = TimestampBank::with_counters(0);
    }

    /// The straightforward bank: a `VecDeque` window and a `%` on every
    /// stamp. The reference for the proptest below.
    struct DequeBank {
        counters: Vec<u64>,
        recent: std::collections::VecDeque<(u32, u32)>,
        contended_stamps: u64,
        contention_units: u64,
    }

    impl DequeBank {
        fn stamp(&mut self, tid: ThreadId, var: SyncVar) -> u64 {
            let idx = hash_var(var) as usize % self.counters.len();
            self.counters[idx] += 1;
            let me = tid.index() as u32;
            let others = self
                .recent
                .iter()
                .filter(|(i, t)| *i == idx as u32 && *t != me)
                .count() as u64;
            if others > 0 {
                self.contended_stamps += 1;
                self.contention_units += others;
            }
            self.recent.push_back((idx as u32, me));
            if self.recent.len() > RECENT_WINDOW {
                self.recent.pop_front();
            }
            self.counters[idx]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Stamps and contention counts equal the `VecDeque` bank's after
        /// every stamp, at one counter, a count that is not a power of two
        /// (the `%` path) and the paper's 128 (the mask path). Few threads
        /// and vars, so counters collide and windows fill.
        #[test]
        fn ring_bank_matches_the_deque_bank(
            counters in proptest::prelude::prop_oneof![
                proptest::prelude::Just(1usize),
                proptest::prelude::Just(3usize),
                proptest::prelude::Just(128usize),
            ],
            stream in proptest::prop::collection::vec((0usize..4, 0u64..24), 0..300),
        ) {
            let mut ring = TimestampBank::with_counters(counters);
            let mut deque = DequeBank {
                counters: vec![0; counters],
                recent: std::collections::VecDeque::new(),
                contended_stamps: 0,
                contention_units: 0,
            };
            for (i, &(tid, var)) in stream.iter().enumerate() {
                let var = SyncVar(0x2000_0000 + var * 64);
                proptest::prop_assert_eq!(ring.stamp(t(tid), var), deque.stamp(t(tid), var));
                proptest::prop_assert_eq!(ring.contended_stamps, deque.contended_stamps);
                proptest::prop_assert_eq!(ring.contention_units, deque.contention_units);
                proptest::prop_assert_eq!(ring.total_stamps, i as u64 + 1);
            }
        }
    }
}
