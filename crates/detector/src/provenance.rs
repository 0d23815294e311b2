//! Race provenance: *why* the detector reported each race.
//!
//! A happens-before report says two sites raced; provenance says what the
//! algorithm actually saw — the two access epochs, program counters and
//! thread ids, the racing thread's view of the prior thread's clock at
//! the moment of the conflict, and the last release-like operation the
//! prior thread performed after the access (the sync-chain edge that
//! *would* have ordered the pair, had the racing thread acquired it).
//!
//! Capture is opt-in ([`HbDetector::enable_provenance`](crate::HbDetector::enable_provenance))
//! and inline-only: the shard workers of the engine never enable it, and
//! an enabled detector produces a byte-identical [`RaceReport`](crate::RaceReport)
//! — evidence rides alongside the report, it never feeds back into it.
//! `literace explain` re-runs inline detection with capture on and
//! renders one [`RaceEvidence`] per static pair.

use std::fmt;

use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};

use crate::fast_hash::FastMap;

/// One side of a racing pair, as the detector saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvidence {
    /// Thread that performed the access.
    pub tid: ThreadId,
    /// The thread's own clock component at the access (its epoch).
    pub epoch: u64,
    /// Site of the access.
    pub pc: Pc,
    /// Whether the access was a write.
    pub is_write: bool,
}

/// The sync-chain edge that failed to order a racing pair: the prior
/// thread's last release-like operation at capture time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncEdge {
    /// The synchronization variable released.
    pub var: SyncVar,
    /// What kind of release it was.
    pub kind: SyncOpKind,
    /// The releasing thread's clock component at the release (before the
    /// post-release increment) — an acquire of `var` after this release
    /// would have imported every epoch up to and including it.
    pub release_epoch: u64,
}

/// Evidence for one static race pair: captured at the first dynamic
/// occurrence, never updated after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceEvidence {
    /// Normalized (smaller-first) PC pair — the static-race key, matching
    /// [`StaticRace::pcs`](crate::StaticRace::pcs).
    pub pcs: (Pc, Pc),
    /// Address both accesses touched at the first occurrence.
    pub addr: Addr,
    /// The remembered (earlier) access.
    pub prior: AccessEvidence,
    /// The access that collided with it.
    pub current: AccessEvidence,
    /// `current.tid`'s clock entry for `prior.tid` at the conflict — the
    /// failed ordering check is `clock_seen < prior.epoch`.
    pub clock_seen: u64,
    /// The prior thread's last release covering the access, if any: the
    /// edge the racing thread failed to acquire. `None` means the prior
    /// thread had performed no release after the access at all — there was
    /// no sync chain to miss.
    pub failed_edge: Option<SyncEdge>,
}

impl fmt::Display for RaceEvidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = |w: bool| if w { "write" } else { "read" };
        writeln!(f, "race {} ↔ {} at {}", self.pcs.0, self.pcs.1, self.addr)?;
        writeln!(
            f,
            "  prior:   t{} {} {} at epoch {}",
            self.prior.tid.index(),
            kind(self.prior.is_write),
            self.prior.pc,
            self.prior.epoch
        )?;
        writeln!(
            f,
            "  current: t{} {} {} at epoch {}",
            self.current.tid.index(),
            kind(self.current.is_write),
            self.current.pc,
            self.current.epoch
        )?;
        writeln!(
            f,
            "  ordering check: C(t{})[t{}] = {} < {} — unordered",
            self.current.tid.index(),
            self.prior.tid.index(),
            self.clock_seen,
            self.prior.epoch
        )?;
        match self.failed_edge {
            Some(edge) => write!(
                f,
                "  failed edge: t{} released {} ({:?}) at epoch {}, \
                 never acquired by t{} before its access",
                self.prior.tid.index(),
                edge.var,
                edge.kind,
                edge.release_epoch,
                self.current.tid.index()
            ),
            None => write!(
                f,
                "  failed edge: none — t{} performed no release after the \
                 access, so no sync chain could have ordered the pair",
                self.prior.tid.index()
            ),
        }
    }
}

/// Evidence for every static pair of one detection pass, sorted by PC
/// pair for deterministic output and binary-search lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceReport {
    /// One entry per static race pair, sorted by `pcs`.
    pub races: Vec<RaceEvidence>,
}

impl ProvenanceReport {
    /// Looks up the evidence for a static pair (as reported in
    /// [`StaticRace::pcs`](crate::StaticRace::pcs)).
    pub fn find(&self, pcs: (Pc, Pc)) -> Option<&RaceEvidence> {
        self.races
            .binary_search_by(|e| e.pcs.cmp(&pcs))
            .ok()
            .map(|i| &self.races[i])
    }
}

/// Mutable capture state carried by the inline shard of an
/// [`HbDetector`](crate::HbDetector) with provenance enabled. Boxed
/// behind an `Option` so the default (provenance off) costs one
/// pointer-sized field and one branch per pair's first occurrence.
#[derive(Debug, Default)]
pub(crate) struct ProvenanceState {
    /// Per-thread last release-like operation, indexed by thread id.
    last_release: Vec<Option<SyncEdge>>,
    /// First-occurrence evidence per static pair.
    evidence: FastMap<(Pc, Pc), RaceEvidence>,
}

impl ProvenanceState {
    /// Records a release-like sync op by thread index `i`.
    pub(crate) fn record_release(&mut self, i: usize, edge: SyncEdge) {
        if i >= self.last_release.len() {
            self.last_release.resize(i + 1, None);
        }
        self.last_release[i] = Some(edge);
    }

    /// Captures first-occurrence evidence for `key`, if not already held.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        &mut self,
        key: (Pc, Pc),
        addr: Addr,
        prior: AccessEvidence,
        current: AccessEvidence,
        clock_seen: u64,
    ) {
        let failed_edge = self
            .last_release
            .get(prior.tid.index())
            .and_then(|e| *e)
            // A release *covers* the access only if it happened at or
            // after it: earlier releases could not have published it.
            .filter(|e| e.release_epoch >= prior.epoch);
        self.evidence.entry(key).or_insert(RaceEvidence {
            pcs: key,
            addr,
            prior,
            current,
            clock_seen,
            failed_edge,
        });
    }

    /// Finalizes into the public report.
    pub(crate) fn into_report(self) -> ProvenanceReport {
        let mut races: Vec<RaceEvidence> = self.evidence.into_values().collect();
        races.sort_by_key(|e| e.pcs);
        ProvenanceReport { races }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pc, t};

    fn evidence(failed_edge: Option<SyncEdge>) -> RaceEvidence {
        RaceEvidence {
            pcs: (pc(1), pc(2)),
            addr: Addr::global(7),
            prior: AccessEvidence {
                tid: t(0),
                epoch: 3,
                pc: pc(1),
                is_write: true,
            },
            current: AccessEvidence {
                tid: t(1),
                epoch: 1,
                pc: pc(2),
                is_write: false,
            },
            clock_seen: 0,
            failed_edge,
        }
    }

    #[test]
    fn display_names_both_accesses_and_the_check() {
        let text = evidence(Some(SyncEdge {
            var: SyncVar(42),
            kind: SyncOpKind::LockRelease,
            release_epoch: 3,
        }))
        .to_string();
        assert!(text.contains("t0 write"), "{text}");
        assert!(text.contains("t1 read"), "{text}");
        assert!(text.contains("C(t1)[t0] = 0 < 3"), "{text}");
        assert!(text.contains("LockRelease"), "{text}");
    }

    #[test]
    fn display_explains_a_missing_edge() {
        let text = evidence(None).to_string();
        assert!(text.contains("no release after the"), "{text}");
    }

    #[test]
    fn capture_keeps_only_the_first_occurrence() {
        let mut st = ProvenanceState::default();
        let prior = AccessEvidence {
            tid: t(0),
            epoch: 1,
            pc: pc(1),
            is_write: true,
        };
        let current = AccessEvidence {
            tid: t(1),
            epoch: 1,
            pc: pc(2),
            is_write: true,
        };
        st.capture((pc(1), pc(2)), Addr::global(1), prior, current, 0);
        let second = AccessEvidence {
            epoch: 9,
            ..current
        };
        st.capture((pc(1), pc(2)), Addr::global(2), prior, second, 0);
        let report = st.into_report();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].addr, Addr::global(1));
        assert_eq!(report.races[0].current.epoch, 1);
    }

    #[test]
    fn stale_releases_do_not_count_as_edges() {
        let mut st = ProvenanceState::default();
        // Release at epoch 2, then an access at epoch 5: the release
        // predates the access and could not have published it.
        st.record_release(
            0,
            SyncEdge {
                var: SyncVar(1),
                kind: SyncOpKind::LockRelease,
                release_epoch: 2,
            },
        );
        let prior = AccessEvidence {
            tid: t(0),
            epoch: 5,
            pc: pc(1),
            is_write: true,
        };
        let current = AccessEvidence {
            tid: t(1),
            epoch: 1,
            pc: pc(2),
            is_write: true,
        };
        st.capture((pc(1), pc(2)), Addr::global(1), prior, current, 0);
        assert_eq!(st.into_report().races[0].failed_edge, None);
    }

    #[test]
    fn find_locates_by_pair() {
        let report = ProvenanceReport {
            races: vec![evidence(None)],
        };
        assert!(report.find((pc(1), pc(2))).is_some());
        assert!(report.find((pc(1), pc(3))).is_none());
    }
}
