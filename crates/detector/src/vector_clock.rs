//! Vector clocks: the representation of the happens-before partial order.
//!
//! A vector clock maps each thread to the number of release operations that
//! thread had performed at the time the clock was snapshotted. `a ≤ b`
//! pointwise iff everything `a` knew, `b` knows — i.e. `a` happens-before or
//! equals `b` (HB1–HB3 of §2.1).

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use literace_sim::ThreadId;

/// A vector clock, stored densely and indexed by thread id.
///
/// Missing components are implicitly zero, so clocks over different thread
/// counts compare correctly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    components: Vec<u64>,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// The component for `tid` (zero if never set).
    pub fn get(&self, tid: ThreadId) -> u64 {
        self.components.get(tid.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `tid`.
    pub fn set(&mut self, tid: ThreadId, value: u64) {
        let i = tid.index();
        if i >= self.components.len() {
            self.components.resize(i + 1, 0);
        }
        self.components[i] = value;
    }

    /// Increments the component for `tid` and returns the new value.
    pub fn increment(&mut self, tid: ThreadId) -> u64 {
        let i = tid.index();
        if i >= self.components.len() {
            self.components.resize(i + 1, 0);
        }
        let slot = &mut self.components[i];
        *slot += 1;
        *slot
    }

    /// Pointwise maximum: afterwards `self` knows everything `other` knew.
    /// Returns whether any component of `self` grew.
    pub fn join(&mut self, other: &VectorClock) -> bool {
        let overlap = self.components.len().min(other.components.len());
        let mut grew = false;
        for (s, &o) in self.components[..overlap]
            .iter_mut()
            .zip(&other.components[..overlap])
        {
            grew |= o > *s;
            *s = (*s).max(o);
        }
        // Joining into the larger clock (the common case on the detector
        // hot path) ends here; otherwise adopt other's tail outright — the
        // max against our implicit zeros is just a copy.
        if other.components.len() > overlap {
            let tail = &other.components[overlap..];
            grew |= tail.iter().any(|&c| c > 0);
            self.components.extend_from_slice(tail);
        }
        grew
    }

    /// Whether `self ≤ other` pointwise (self happens-before-or-equals).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.components
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= other.components.get(i).copied().unwrap_or(0))
    }

    /// Whether the clocks are incomparable (concurrent).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Number of explicitly stored components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether no component is stored (the zero clock).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The dense component slice, for state serialization.
    pub(crate) fn components(&self) -> &[u64] {
        &self.components
    }

    /// Rebuilds a clock from a dense component slice (the inverse of
    /// [`components`](VectorClock::components)).
    pub(crate) fn from_components(components: Vec<u64>) -> VectorClock {
        VectorClock { components }
    }
}

impl PartialOrd for VectorClock {
    fn partial_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        let le = self.le(other);
        let ge = other.le(self);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    fn vc(vals: &[u64]) -> VectorClock {
        let mut c = VectorClock::new();
        for (i, &v) in vals.iter().enumerate() {
            c.set(t(i), v);
        }
        c
    }

    #[test]
    fn missing_components_read_as_zero() {
        let c = vc(&[1]);
        assert_eq!(c.get(t(5)), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = vc(&[1, 5, 0]);
        a.join(&vc(&[3, 2, 0, 7]));
        assert_eq!(a, vc(&[3, 5, 0, 7]));
    }

    #[test]
    fn join_into_larger_keeps_tail() {
        let mut a = vc(&[1, 5, 2, 9]);
        a.join(&vc(&[3, 2]));
        assert_eq!(a, vc(&[3, 5, 2, 9]));
    }

    #[test]
    fn join_from_empty_copies() {
        let mut a = VectorClock::new();
        a.join(&vc(&[4, 0, 7]));
        assert_eq!(a, vc(&[4, 0, 7]));
    }

    #[test]
    fn join_reports_whether_anything_grew() {
        let mut a = vc(&[3, 5]);
        assert!(!a.join(&vc(&[3, 2])));
        assert!(!a.join(&vc(&[1, 0, 0])), "zero tail adds nothing");
        assert!(a.join(&vc(&[0, 0, 0, 1])));
        assert!(a.join(&vc(&[4])));
        assert_eq!(a, vc(&[4, 5, 0, 1]));
    }

    #[test]
    fn le_handles_length_mismatch() {
        assert!(vc(&[1]).le(&vc(&[1, 2])));
        assert!(!vc(&[1, 1]).le(&vc(&[1])));
        // Trailing zeros don't matter.
        assert!(vc(&[1, 0]).le(&vc(&[1])));
    }

    #[test]
    fn concurrency_is_mutual_incomparability() {
        let a = vc(&[2, 0]);
        let b = vc(&[0, 2]);
        assert!(a.concurrent(&b));
        assert!(b.concurrent(&a));
        assert!(!a.concurrent(&a));
        assert!(!vc(&[1, 1]).concurrent(&vc(&[2, 2])));
    }

    #[test]
    fn partial_ord_agrees_with_le() {
        let a = vc(&[1, 2]);
        let b = vc(&[2, 2]);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp(&a), Some(Ordering::Equal));
        assert_eq!(vc(&[1, 0]).partial_cmp(&vc(&[0, 1])), None);
    }

    #[test]
    fn increment_bumps_own_component() {
        let mut c = VectorClock::new();
        assert_eq!(c.increment(t(2)), 1);
        assert_eq!(c.increment(t(2)), 2);
        assert_eq!(c.get(t(2)), 2);
        assert_eq!(c.get(t(0)), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", vc(&[1, 2])), "⟨1,2⟩");
        assert_eq!(format!("{}", VectorClock::new()), "⟨⟩");
    }
}
