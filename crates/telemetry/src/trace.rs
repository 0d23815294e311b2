//! Event tracing: per-thread bounded buffers of timestamped trace events.
//!
//! Where the metrics registry answers *how much* (counters, gauges,
//! histograms), tracing answers *when and where wall-clock went*: every
//! pipeline actor — the run thread, each encode worker, the in-order
//! committer, the decode scanner/workers/consumer, each detector shard —
//! records span begin/end, instant, and counter events into a thread-local
//! [`TraceBuf`], and the buffers are drained at exit into Chrome
//! trace-event JSON (see [`trace_export`](crate::trace_export)).
//!
//! # Design
//!
//! * **Per-thread buffers, no sharing.** Each thread appends to its own
//!   bounded `Vec` — no atomics, no locks, no allocation per event beyond
//!   amortized `Vec` growth. The only lock is a short [`Mutex`] push when a
//!   finished buffer is handed to the global collector (thread exit or
//!   explicit flush) — never on the event path.
//! * **Bounded.** A buffer holds at most [`TraceBuf::DEFAULT_CAP`] events;
//!   beyond that new spans and instants are counted as dropped instead of
//!   recorded. Span balance survives overflow: a suppressed `begin` also
//!   suppresses its matching `end`, so exported tracks always have
//!   balanced begin/end sequences.
//! * **Monotonic clock base.** Timestamps are nanoseconds since a
//!   process-wide [`Instant`] captured when tracing is first enabled, so
//!   all tracks share one timeline and per-track timestamps are
//!   monotonically non-decreasing.
//! * **Double gating, like metrics.** Compile-time the `enabled` feature
//!   removes every recording site ([`trace_enabled`](crate::trace_enabled)
//!   is `const false` without it); at runtime tracing additionally stays
//!   off until [`set_trace_enabled`](crate::set_trace_enabled)`(true)` —
//!   independent of the metrics flag, so `--metrics-out` alone records no
//!   events. A buffer snapshots the flag at creation: toggling mid-run
//!   never produces half-open spans.
//! * **Named tracks.** A buffer's track name defaults to the OS thread
//!   name (every pipeline worker is spawned named: `literace-encode-0`,
//!   `literace-shard-3`, …), so one track per actor falls out of the
//!   existing thread naming.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-track event capacity (events beyond it are dropped and
/// counted).
pub const TRACE_TRACK_CAP: usize = 1 << 16;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opens on this track.
    Begin,
    /// The most recent unclosed span on this track closes.
    End,
    /// A point event.
    Instant,
    /// A counter sample with the given value.
    Counter(u64),
}

/// One timestamped event on one track.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace clock base.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Event name. Static so the hot path never allocates for it.
    pub name: &'static str,
    /// Optional free-form payload for rare events (race provenance,
    /// overflow notes); `None` on the hot path.
    pub detail: Option<Box<str>>,
}

/// A finished track: every event one actor recorded, in order.
#[derive(Debug)]
pub struct TrackData {
    /// Track (actor) name, e.g. `literace-encode-0`.
    pub track: String,
    /// Events in recording order; timestamps are non-decreasing.
    pub events: Vec<TraceEvent>,
    /// Events lost to the capacity bound.
    pub dropped: u64,
}

/// A bounded per-actor event buffer.
///
/// Usually managed implicitly through the thread-local free functions
/// ([`trace_begin`] & co.); constructed directly only when an actor wants
/// a track name different from its thread's.
#[derive(Debug)]
pub struct TraceBuf {
    active: bool,
    track: String,
    events: Vec<TraceEvent>,
    cap: usize,
    /// Open spans whose `Begin` was dropped at capacity; their `End`s are
    /// dropped too, preserving balance.
    suppressed: usize,
    dropped: u64,
}

impl TraceBuf {
    /// Default per-buffer capacity, re-exported for docs/tests.
    pub const DEFAULT_CAP: usize = TRACE_TRACK_CAP;

    /// A buffer for the named track. Inert (records nothing) unless
    /// tracing is enabled at the time of the call.
    pub fn new(track: impl Into<String>) -> TraceBuf {
        TraceBuf::with_capacity(track, TRACE_TRACK_CAP)
    }

    /// A buffer with an explicit event capacity.
    pub fn with_capacity(track: impl Into<String>, cap: usize) -> TraceBuf {
        let active = crate::trace_enabled();
        TraceBuf {
            active,
            track: track.into(),
            events: Vec::new(),
            cap: cap.max(1),
            suppressed: 0,
            dropped: 0,
        }
    }

    /// Whether this buffer records (tracing was enabled when it was made).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    #[inline]
    fn push(&mut self, kind: TraceKind, name: &'static str, detail: Option<Box<str>>) {
        self.events.push(TraceEvent {
            ts_ns: trace_now_ns(),
            kind,
            name,
            detail,
        });
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.active {
            return;
        }
        if self.events.len() >= self.cap {
            self.suppressed += 1;
            self.dropped += 1;
            return;
        }
        self.push(TraceKind::Begin, name, None);
    }

    /// Closes the most recent open span. Always recorded when its `begin`
    /// was (even at capacity), so tracks stay balanced.
    #[inline]
    pub fn end(&mut self, name: &'static str) {
        if !self.active {
            return;
        }
        if self.suppressed > 0 {
            self.suppressed -= 1;
            self.dropped += 1;
            return;
        }
        self.push(TraceKind::End, name, None);
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&mut self, name: &'static str) {
        self.instant_opt(name, None);
    }

    /// Records a point event with a payload string (rare path; allocates).
    pub fn instant_detail(&mut self, name: &'static str, detail: String) {
        self.instant_opt(name, Some(detail.into_boxed_str()));
    }

    fn instant_opt(&mut self, name: &'static str, detail: Option<Box<str>>) {
        if !self.active {
            return;
        }
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.push(TraceKind::Instant, name, detail);
    }

    /// Records a counter sample.
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if !self.active {
            return;
        }
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.push(TraceKind::Counter(value), name, None);
    }

    /// Hands the recorded events to the global collector now (also done by
    /// `Drop`). A no-op for inactive or empty buffers.
    pub fn submit(mut self) {
        self.submit_inner();
    }

    fn submit_inner(&mut self) {
        if !self.active || (self.events.is_empty() && self.dropped == 0) {
            return;
        }
        let data = TrackData {
            track: std::mem::take(&mut self.track),
            events: std::mem::take(&mut self.events),
            dropped: std::mem::replace(&mut self.dropped, 0),
        };
        collector().lock().expect("trace collector poisoned").push(data);
    }
}

impl Drop for TraceBuf {
    fn drop(&mut self) {
        self.submit_inner();
    }
}

/// The global collector of finished tracks. `OnceLock` rather than a
/// `static Mutex` so thread-exit destructors can still reach it during
/// process teardown.
fn collector() -> &'static Mutex<Vec<TrackData>> {
    static COLLECTOR: OnceLock<Mutex<Vec<TrackData>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide trace clock base, pinned the first time it is read
/// (enabling tracing reads it eagerly so timestamps start near zero).
fn clock_base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Pins the clock base; called by [`set_trace_enabled`](crate::set_trace_enabled).
#[cfg(feature = "enabled")]
pub(crate) fn init_clock_base() {
    let _ = clock_base();
}

/// Nanoseconds since the trace clock base.
#[inline]
pub fn trace_now_ns() -> u64 {
    u64::try_from(clock_base().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static LOCAL: RefCell<Option<TraceBuf>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's trace buffer, creating it (named after
/// the thread) on first use. Events recorded while the thread-local slot is
/// unavailable (thread teardown re-entry) are silently skipped.
#[inline]
fn with_local(f: impl FnOnce(&mut TraceBuf)) {
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{}", crate::thread_slot()));
            TraceBuf::new(name)
        });
        f(buf);
    });
}

/// Opens a span on the calling thread's track. Free when tracing is off.
#[inline]
pub fn trace_begin(name: &'static str) {
    if !crate::trace_enabled() {
        return;
    }
    with_local(|b| b.begin(name));
}

/// Closes the calling thread's most recent open span.
#[inline]
pub fn trace_end(name: &'static str) {
    if !crate::trace_enabled() {
        return;
    }
    with_local(|b| b.end(name));
}

/// Records a point event on the calling thread's track.
#[inline]
pub fn trace_instant(name: &'static str) {
    if !crate::trace_enabled() {
        return;
    }
    with_local(|b| b.instant(name));
}

/// Records a point event with a payload (allocates; keep off hot paths).
pub fn trace_instant_detail(name: &'static str, detail: String) {
    if !crate::trace_enabled() {
        return;
    }
    with_local(|b| b.instant_detail(name, detail));
}

/// Records a counter sample on the calling thread's track.
#[inline]
pub fn trace_counter(name: &'static str, value: u64) {
    if !crate::trace_enabled() {
        return;
    }
    with_local(|b| b.counter(name, value));
}

/// Flushes the calling thread's buffer into the collector now. Worker
/// threads flush automatically on exit; the main thread calls this (via
/// [`drain_tracks`]) before exporting.
pub fn trace_flush_local() {
    let _ = LOCAL.try_with(|slot| {
        if let Some(buf) = slot.borrow_mut().take() {
            buf.submit();
        }
    });
}

/// Takes every collected track, merging repeat submissions of the same
/// track name (one actor across several runs) and sorting tracks by name
/// for deterministic export. Flushes the calling thread's buffer first.
pub fn drain_tracks() -> Vec<TrackData> {
    trace_flush_local();
    let raw = std::mem::take(&mut *collector().lock().expect("trace collector poisoned"));
    let mut merged: Vec<TrackData> = Vec::new();
    for data in raw {
        match merged.iter_mut().find(|t| t.track == data.track) {
            Some(t) => {
                t.events.extend(data.events);
                t.dropped += data.dropped;
            }
            None => merged.push(data),
        }
    }
    merged.sort_by(|a, b| a.track.cmp(&b.track));
    merged
}

/// Discards every collected track and the calling thread's buffer
/// (test/reset hook).
pub fn reset_trace() {
    let _ = LOCAL.try_with(|slot| {
        if let Some(buf) = slot.borrow_mut().as_mut() {
            buf.active = false;
            buf.events.clear();
            buf.dropped = 0;
            buf.suppressed = 0;
        }
        *slot.borrow_mut() = None;
    });
    collector().lock().expect("trace collector poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace tests share the process-global runtime flag and collector, so
    // they serialize on one lock rather than fight the parallel runner.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn explicit_buffer_records_and_drains() {
        let _g = serial();
        crate::set_trace_enabled(true);
        reset_trace();
        let mut buf = TraceBuf::new("test-track");
        buf.begin("work");
        buf.instant("tick");
        buf.counter("depth", 3);
        buf.end("work");
        buf.submit();
        crate::set_trace_enabled(false);
        let tracks = drain_tracks();
        let t = tracks.iter().find(|t| t.track == "test-track").expect("track");
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.events[0].kind, TraceKind::Begin);
        assert_eq!(t.events[3].kind, TraceKind::End);
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        reset_trace();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn capacity_overflow_keeps_spans_balanced() {
        let _g = serial();
        crate::set_trace_enabled(true);
        reset_trace();
        let mut buf = TraceBuf::with_capacity("tiny", 3);
        buf.begin("a"); // 1
        buf.begin("b"); // 2
        buf.end("b"); // 3 (at cap now)
        buf.begin("c"); // suppressed
        buf.instant("x"); // dropped
        buf.end("c"); // suppressed end matches suppressed begin
        buf.end("a"); // closes "a" even though the buffer is at capacity
        assert_eq!(buf.dropped, 3);
        let begins = buf.events.iter().filter(|e| e.kind == TraceKind::Begin).count();
        let ends = buf.events.iter().filter(|e| e.kind == TraceKind::End).count();
        assert_eq!(begins, ends);
        crate::set_trace_enabled(false);
        drop(buf);
        let _ = drain_tracks();
        reset_trace();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn thread_local_api_names_track_after_thread() {
        let _g = serial();
        crate::set_trace_enabled(true);
        reset_trace();
        std::thread::Builder::new()
            .name("trace-test-worker".to_owned())
            .spawn(|| {
                trace_begin("job");
                trace_end("job");
            })
            .expect("spawn")
            .join()
            .expect("join");
        crate::set_trace_enabled(false);
        let tracks = drain_tracks();
        assert!(
            tracks.iter().any(|t| t.track == "trace-test-worker"),
            "tracks: {:?}",
            tracks.iter().map(|t| &t.track).collect::<Vec<_>>()
        );
        reset_trace();
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        crate::set_trace_enabled(false);
        reset_trace();
        let mut buf = TraceBuf::new("off");
        buf.begin("a");
        buf.end("a");
        assert!(!buf.is_active());
        drop(buf);
        trace_begin("b");
        trace_end("b");
        assert!(drain_tracks().is_empty());
    }
}
