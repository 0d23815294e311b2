//! Phase spans: scoped wall-clock timers with thread attribution.
//!
//! A [`PhaseStats`] is one named pipeline phase (execution, detection,
//! shard replay, merge, …). Calling [`span`](PhaseStats::span) returns a drop
//! guard; when the guard drops, the elapsed nanoseconds are folded into the
//! phase's totals, its maximum, and a per-thread-slot attribution row.
//! The guard also opens and closes the trace span of the phase's name, so
//! a phase is timed and traced by one guard under one name. Each half is
//! inert while its own runtime gate is off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metrics::{thread_slot, MaxGauge, SlotCounters, SLOTS};

/// Aggregated timings for one named pipeline phase.
#[derive(Debug)]
pub struct PhaseStats {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: MaxGauge,
    by_slot: SlotCounters<SLOTS>,
}

impl PhaseStats {
    /// A zeroed phase with its canonical name, which its trace span
    /// shares.
    pub const fn new(name: &'static str) -> PhaseStats {
        PhaseStats {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: MaxGauge::new(),
            by_slot: SlotCounters::new(),
        }
    }

    /// Starts a span of this phase on the calling thread, timed while
    /// telemetry is enabled and traced while tracing is. Inert (and
    /// effectively free) when both are off.
    #[inline]
    pub fn span(&'static self) -> SpanGuard {
        crate::trace_begin(self.name);
        SpanGuard {
            stats: self,
            start: crate::enabled().then(Instant::now),
        }
    }

    /// Records one completed span of `ns` nanoseconds directly.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.record(ns);
        self.by_slot.add(thread_slot(), ns);
    }

    /// Completed spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across spans.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest single span, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.get()
    }

    /// Nanoseconds attributed to each thread slot.
    pub fn by_thread(&self) -> Vec<u64> {
        self.by_slot.values()
    }

    /// Zeroes the phase.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.reset();
        self.by_slot.reset();
    }
}

/// Drop guard returned by [`PhaseStats::span`]; records and closes the
/// trace span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    stats: &'static PhaseStats,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.stats
                .record_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        crate::trace_end(self.stats.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_ns_accumulates_and_attributes() {
        let p = PhaseStats::new("test.phase");
        p.record_ns(10);
        p.record_ns(30);
        assert_eq!(p.count(), 2);
        assert_eq!(p.total_ns(), 40);
        assert_eq!(p.max_ns(), 30);
        assert_eq!(p.by_thread().iter().sum::<u64>(), 40);
        p.reset();
        assert_eq!(p.count(), 0);
    }

    #[test]
    fn inert_guard_records_nothing() {
        // A guard with no start time (what `span()` returns while
        // telemetry is disabled) must not touch the stats on drop.
        let _g = crate::tests::serial();
        static P: PhaseStats = PhaseStats::new("test.phase");
        drop(SpanGuard {
            stats: &P,
            start: None,
        });
        assert_eq!(P.count(), 0);
    }

    #[test]
    fn live_guard_records_on_drop() {
        let _g = crate::tests::serial();
        static P: PhaseStats = PhaseStats::new("test.phase");
        drop(SpanGuard {
            stats: &P,
            start: Some(Instant::now()),
        });
        assert_eq!(P.count(), 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn guard_traces_a_span_of_the_phase_name() {
        use crate::trace::TraceKind;
        let _g = crate::tests::serial();
        static P: PhaseStats = PhaseStats::new("test.traced_phase");
        crate::set_trace_enabled(true);
        crate::reset_trace();
        drop(P.span());
        crate::set_trace_enabled(false);
        let events: Vec<(TraceKind, &str)> = crate::drain_tracks()
            .iter()
            .flat_map(|t| &t.events)
            .map(|e| (e.kind, e.name))
            .collect();
        assert_eq!(
            events,
            [
                (TraceKind::Begin, "test.traced_phase"),
                (TraceKind::End, "test.traced_phase")
            ]
        );
        crate::reset_trace();
    }
}
