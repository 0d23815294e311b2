//! Scalar epoch access records and the same-epoch memo keys used by the
//! adaptive access history in [`frontier`](crate::frontier).
//!
//! The FastTrack insight (Flanagan & Freund, PLDI 2009; also the basis of
//! the sampling-era timestamping work in PAPERS.md): accesses to one
//! location are almost always totally ordered, so a scalar `clock@thread`
//! pair — an *epoch* — is enough state until a genuinely concurrent pair
//! shows up. This module holds the epoch record itself plus the memo key
//! that lets a repeat of the immediately preceding access (same thread,
//! same clock generation, same site, same kind) prove itself a no-op
//! without touching the history at all.

use literace_sim::{Pc, ThreadId};

/// Highest thread index the detector registers. One below the memo-key
/// packing limit: the frontier's same-epoch memo key folds the access
/// kind into bit 31 of a `u32`, so index `0x7FFF_FFFF` with the write bit
/// set would collide with the key's invalid sentinel, and anything ≥ 2³¹
/// would silently flip the recorded access kind. Rather than let a hostile or corrupt log reach
/// either state (or OOM materializing billions of clocks on the way
/// there), registration rejects the index outright — see
/// [`check_thread_index`].
pub const MAX_THREAD_INDEX: usize = (u32::MAX >> 1) as usize - 1;

/// A thread index above [`MAX_THREAD_INDEX`] was presented for
/// registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TidCeilingExceeded {
    /// The rejected thread index.
    pub index: usize,
}

impl std::fmt::Display for TidCeilingExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread index {} exceeds the detector ceiling of {MAX_THREAD_INDEX} \
             (indices ≥ 2^31 would corrupt the access-kind bit packing)",
            self.index
        )
    }
}

impl std::error::Error for TidCeilingExceeded {}

/// Detection over a log stops at its first thread past the ceiling: the
/// log is corrupt (or hostile), so the detection engine reports it as a
/// corrupt log.
impl From<TidCeilingExceeded> for literace_log::LogError {
    fn from(e: TidCeilingExceeded) -> literace_log::LogError {
        literace_log::LogError::Corrupt {
            file: "log",
            reason: e.to_string(),
        }
    }
}

/// Validates a thread index against [`MAX_THREAD_INDEX`]. Every detection
/// path calls this at thread-registration time (the first record naming a
/// thread), so the memo-key bit packing above can never see an index it
/// would mis-encode.
#[inline]
pub fn check_thread_index(index: usize) -> Result<(), TidCeilingExceeded> {
    if index > MAX_THREAD_INDEX {
        Err(TidCeilingExceeded { index })
    } else {
        Ok(())
    }
}

/// One remembered access: the accessing thread, its own clock component at
/// the access (the epoch scalar), and the instruction site for reports.
/// Whether it was a read or a write is encoded by where it is stored.
///
/// An absent access is encoded as `epoch == 0`: every thread clock starts
/// at `{t: 1}` and own components only grow, so a real epoch is always
/// ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    /// Accessing thread.
    pub tid: ThreadId,
    /// The accessing thread's own clock component at the access.
    pub epoch: u64,
    /// Instruction site.
    pub pc: Pc,
}

impl Access {
    /// The "no access" sentinel (see the type docs).
    #[inline]
    pub fn none() -> Access {
        Access {
            tid: ThreadId::from_index(0),
            epoch: 0,
            pc: Pc(0),
        }
    }

    /// Whether this slot holds a real access.
    #[inline]
    pub fn present(self) -> bool {
        self.epoch != 0
    }
}

/// Identity of one access for memoization: thread (with the access kind
/// packed into the top bit), site, and the thread's *clock generation* — a
/// counter every detection path bumps whenever the thread's clock value
/// may have changed. Two accesses with equal keys are handled under
/// identical clocks, so if the first fired no conflicts, the repeat is a
/// provable no-op (it would re-drop its own superseded entry and re-insert
/// itself, firing nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoKey {
    /// `tid.index()` with the write flag in bit 31; [`Self::INVALID`]'s
    /// value is unreachable for real keys (indices ≥ 2³¹ − 1 disable
    /// memoization instead of risking a collision).
    tid_rw: u32,
    /// The thread's clock generation at the access.
    generation: u64,
    /// Instruction site (a different site must refresh the stored PC).
    pc: u64,
}

impl MemoKey {
    /// A key that matches nothing — the "no memo" state.
    pub const INVALID: MemoKey = MemoKey {
        tid_rw: u32::MAX,
        generation: 0,
        pc: 0,
    };

    /// Builds the key for one access. Returns [`Self::INVALID`] (memo
    /// disabled) for thread indices too large to pack beside the kind bit.
    #[inline]
    pub fn new(tid: ThreadId, pc: Pc, is_write: bool, generation: u64) -> MemoKey {
        let i = tid.index();
        if i >= (u32::MAX >> 1) as usize {
            return MemoKey::INVALID;
        }
        MemoKey {
            tid_rw: (i as u32) | ((is_write as u32) << 31),
            generation,
            pc: pc.0,
        }
    }

    /// Whether this key can ever match (i.e. is not the sentinel).
    #[inline]
    pub fn is_valid(self) -> bool {
        self.tid_rw != u32::MAX
    }
}

/// Frontier-local event counters, flushed to the telemetry registry in one
/// batch at the end of a detection run (the hot path never touches the
/// shared atomics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochStats {
    /// Inline → full-history escalations (a concurrent pair forced the
    /// location onto the arena).
    pub escalations: u64,
    /// Full-history → inline de-escalations (an ordered write or a
    /// compaction shrank the history back to scalar epochs).
    pub deescalations: u64,
    /// Accesses short-circuited by the same-epoch memo.
    pub memo_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_absent_and_real_epochs_are_present() {
        assert!(!Access::none().present());
        let a = Access {
            tid: ThreadId::from_index(3),
            epoch: 1,
            pc: Pc(9),
        };
        assert!(a.present());
    }

    #[test]
    fn memo_keys_distinguish_kind_site_and_generation() {
        let t = ThreadId::from_index(2);
        let base = MemoKey::new(t, Pc(5), false, 7);
        assert!(base.is_valid());
        assert_eq!(base, MemoKey::new(t, Pc(5), false, 7));
        assert_ne!(base, MemoKey::new(t, Pc(5), true, 7));
        assert_ne!(base, MemoKey::new(t, Pc(6), false, 7));
        assert_ne!(base, MemoKey::new(t, Pc(5), false, 8));
        assert_ne!(base, MemoKey::new(ThreadId::from_index(3), Pc(5), false, 7));
    }

    #[test]
    fn oversized_thread_indices_disable_memoization() {
        let huge = ThreadId::from_index((u32::MAX >> 1) as usize);
        assert!(!MemoKey::new(huge, Pc(0), true, 0).is_valid());
        assert!(!MemoKey::INVALID.is_valid());
    }

    #[test]
    fn thread_index_ceiling_sits_exactly_at_the_packing_boundary() {
        // The last accepted index must still produce a valid memo key with
        // the write bit set (i.e. it cannot alias INVALID), and the first
        // rejected index is exactly the one the memo packing cannot carry.
        assert!(check_thread_index(0).is_ok());
        assert!(check_thread_index(MAX_THREAD_INDEX).is_ok());
        let key = MemoKey::new(ThreadId::from_index(MAX_THREAD_INDEX), Pc(1), true, 1);
        assert!(key.is_valid(), "ceiling index must still memoize");

        let over = MAX_THREAD_INDEX + 1;
        assert_eq!(check_thread_index(over), Err(TidCeilingExceeded { index: over }));
        assert!(check_thread_index(1 << 31).is_err());
        let msg = TidCeilingExceeded { index: over }.to_string();
        assert!(msg.contains("2^31"), "{msg}");
    }
}
