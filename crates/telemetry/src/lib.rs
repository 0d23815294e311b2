//! Pipeline telemetry: a lock-free metrics registry with phase spans and
//! exporters, built for a race detector that cannot afford to perturb the
//! thing it is measuring.
//!
//! # Design
//!
//! * **One global registry.** [`metrics()`] returns the process-wide
//!   [`Metrics`] — a plain `static` of atomics, usable from any thread with
//!   no locks, allocation, or lazy initialization.
//! * **Double gating.** The compile-time `enabled` feature (forwarded by
//!   consumer crates as their `telemetry` feature) removes every recording
//!   site from the binary; at runtime, recording additionally stays off
//!   until [`set_enabled`]`(true)`. Hot paths guard with [`enabled()`],
//!   which is `const false` when the feature is off — a branch the
//!   optimizer deletes.
//! * **One declaration per metric.** Each metric is one entry of the
//!   registry's table: doc, type, snapshot section, canonical name, and
//!   whether `metrics --validate` requires it. The [`Metrics`] struct, the
//!   exporters' names, [`Metrics::reset`] and the required list all come
//!   from it.
//! * **One atomic per counter.** A [`Counter`] is one relaxed `AtomicU64`:
//!   every add site runs once per block, batch, run, error or retry, never
//!   once per record, so there is no hot line to spread. [`SlotCounters`]
//!   keeps a slot visible for per-thread / per-shard attribution.
//! * **One guard per phase.** A [`PhaseStats`] carries its canonical name;
//!   its [`span`](PhaseStats::span) guard both times the phase and traces
//!   it as a span of that name.
//! * **Batched hot paths.** Per-access costs are kept off the atomics
//!   entirely: tight loops record into a plain [`LocalHistogram`] (or local
//!   integer counters) and flush once at the end of the run or worker.
//! * **Neutrality by construction.** Nothing in this crate feeds back into
//!   sampling or detection; enabling telemetry can never change a race
//!   report. The workspace's `telemetry_neutrality` suite asserts this
//!   byte-for-byte across the sequential, sharded and streaming paths.
//!
//! # Metric naming
//!
//! Metric names are lowercase, dot-separated, `layer.subsystem.quantity`
//! (e.g. `detector.shard.events`, `log.decode.v2.bytes`). Durations are
//! suffixed `_ns`; high-water marks `_hwm`. The JSON snapshot groups
//! metrics by kind and carries [`SCHEMA_VERSION`]; the Prometheus
//! exporter rewrites dots to underscores and prefixes `literace_`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod json;
mod metrics;
mod registry;
pub mod snapshot;
mod span;
pub mod trace;
pub mod trace_export;

pub use json::{parse_json, JsonValue};
pub use metrics::{
    thread_slot, Counter, Histogram, LevelGauges, LocalHistogram, MaxGauge, ScanSampler,
    SlotCounters, BURST_SLOTS, HIST_BUCKETS, SLOTS,
};
pub use registry::{metrics, Metrics};
pub use snapshot::{HistogramSnapshot, PhaseSnapshot, Snapshot, SCHEMA_VERSION};
pub use span::{PhaseStats, SpanGuard};
pub use trace::{
    drain_tracks, reset_trace, trace_begin, trace_counter, trace_end, trace_flush_local,
    trace_instant, trace_instant_detail, trace_now_ns, TraceBuf, TraceEvent, TraceKind,
    TrackData,
};
pub use trace_export::{
    chrome_trace_json, render_trace_summary, validate_chrome_trace, SpanStat, TraceSummary,
    TrackSummary,
};

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "enabled")]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry recording is on, both at compile time and at runtime.
///
/// Hot paths should check this once (hoisted out of the loop when possible)
/// before touching the registry. With the `enabled` feature off this is
/// `const false` and guarded recording sites compile away.
#[cfg(feature = "enabled")]
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether telemetry recording is on (the `enabled` feature is off, so: no).
#[cfg(not(feature = "enabled"))]
#[inline]
pub const fn enabled() -> bool {
    false
}

/// Turns runtime recording on or off. No-op when the feature is off.
#[cfg(feature = "enabled")]
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Turns runtime recording on or off (no-op: the `enabled` feature is off).
#[cfg(not(feature = "enabled"))]
pub fn set_enabled(_on: bool) {}

#[cfg(feature = "enabled")]
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether event tracing is on, both at compile time and at runtime.
///
/// Independent of [`enabled`] — `--metrics-out` alone records no trace
/// events, and `--trace-out` does not switch the metrics registry on.
/// `const false` without the `enabled` feature, so guarded recording sites
/// compile away.
#[cfg(feature = "enabled")]
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Whether event tracing is on (the `enabled` feature is off, so: no).
#[cfg(not(feature = "enabled"))]
#[inline]
pub const fn trace_enabled() -> bool {
    false
}

/// Turns runtime event tracing on or off. Enabling pins the trace clock
/// base, so timestamps count from (roughly) this call. No-op when the
/// feature is off.
#[cfg(feature = "enabled")]
pub fn set_trace_enabled(on: bool) {
    if on {
        trace::init_clock_base();
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Turns runtime event tracing on or off (no-op: the `enabled` feature is
/// off).
#[cfg(not(feature = "enabled"))]
pub fn set_trace_enabled(_on: bool) {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that record trace events: they share the
    /// process-global trace flag and collector, so they take one lock
    /// rather than fight the parallel runner.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn runtime_flag_toggles() {
        // Other tests in this crate don't read the flag, so toggling here
        // is safe even under the parallel test runner.
        set_enabled(true);
        #[cfg(feature = "enabled")]
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
