//! The primitive metric types: counters, slot-attributed counters,
//! monotonic gauges, level gauges with high-water marks, and log2
//! histograms (global atomic and thread-local batched forms).
//!
//! All types are `const`-constructible so the whole registry can live in a
//! plain `static`. Recording methods are not internally gated: call sites
//! guard with [`crate::enabled()`] (which compiles to `false` when the
//! `enabled` feature is off, removing the site entirely).

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Slots for per-thread / per-shard attribution; higher indices clamp into
/// the last slot (which therefore aggregates "slot 15 and beyond").
pub const SLOTS: usize = 16;

/// Slots for burst back-off level attribution (the LiteRace schedule has 4
/// levels; extras beyond the schedule clamp into the last slot).
pub const BURST_SLOTS: usize = 8;

/// Buckets in a log2 histogram: bucket 0 holds value 0, bucket `b > 0`
/// holds values in `[2^(b-1), 2^b - 1]`.
pub const HIST_BUCKETS: usize = 64;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread, assigned on first use.
///
/// Attributes phase time to threads and names unnamed trace tracks; ids
/// keep growing process-wide, so attribution clamps into [`SLOTS`].
#[inline]
pub fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}

/// A monotonically increasing counter: one relaxed atomic. Every add site
/// runs once per block, batch, run, error or retry, never once per
/// record, so threads seldom meet on it.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
const ZERO_I64: AtomicI64 = AtomicI64::new(0);

/// A family of counters indexed by a small slot (thread, shard, or burst
/// level). Indices at or beyond `N` clamp into the last slot, which thus
/// aggregates the overflow.
#[derive(Debug)]
pub struct SlotCounters<const N: usize> {
    slots: [AtomicU64; N],
}

impl<const N: usize> SlotCounters<N> {
    /// A zeroed family.
    pub const fn new() -> SlotCounters<N> {
        SlotCounters {
            slots: [ZERO_U64; N],
        }
    }

    /// Adds `n` to `slot` (clamped into the last slot).
    #[inline]
    pub fn add(&self, slot: usize, n: u64) {
        self.slots[slot.min(N - 1)].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `slot` (clamped).
    pub fn get(&self, slot: usize) -> u64 {
        self.slots[slot.min(N - 1)].load(Ordering::Relaxed)
    }

    /// All slot values, in slot order.
    pub fn values(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum over all slots.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes every slot.
    pub fn reset(&self) {
        for s in &self.slots {
            s.store(0, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Default for SlotCounters<N> {
    fn default() -> SlotCounters<N> {
        SlotCounters::new()
    }
}

/// A gauge that only moves up: `record` keeps the maximum value seen.
#[derive(Debug)]
pub struct MaxGauge {
    value: AtomicU64,
}

impl MaxGauge {
    /// A zeroed gauge.
    pub const fn new() -> MaxGauge {
        MaxGauge {
            value: AtomicU64::new(0),
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the current maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The maximum recorded so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for MaxGauge {
    fn default() -> MaxGauge {
        MaxGauge::new()
    }
}

/// Per-slot occupancy gauges with high-water marks — models queue depths:
/// the producer [`inc`](LevelGauges::inc)s on send, the consumer
/// [`dec`](LevelGauges::dec)s on receive, and the high-water mark keeps the
/// deepest the queue ever got.
///
/// Levels are signed internally so a consumer that observes a send before
/// the producer's increment (or a mid-run enable) cannot wrap.
#[derive(Debug)]
pub struct LevelGauges<const N: usize> {
    level: [AtomicI64; N],
    hwm: [AtomicU64; N],
}

impl<const N: usize> LevelGauges<N> {
    /// A zeroed family.
    pub const fn new() -> LevelGauges<N> {
        LevelGauges {
            level: [ZERO_I64; N],
            hwm: [ZERO_U64; N],
        }
    }

    /// Raises `slot`'s level by one and folds it into the high-water mark.
    #[inline]
    pub fn inc(&self, slot: usize) {
        let i = slot.min(N - 1);
        let now = self.level[i].fetch_add(1, Ordering::Relaxed) + 1;
        if now > 0 {
            self.hwm[i].fetch_max(now as u64, Ordering::Relaxed);
        }
    }

    /// Lowers `slot`'s level by one.
    #[inline]
    pub fn dec(&self, slot: usize) {
        self.level[slot.min(N - 1)].fetch_sub(1, Ordering::Relaxed);
    }

    /// Current level of `slot` (clamped at zero for reporting).
    pub fn level(&self, slot: usize) -> u64 {
        self.level[slot.min(N - 1)].load(Ordering::Relaxed).max(0) as u64
    }

    /// High-water mark of `slot`.
    pub fn hwm(&self, slot: usize) -> u64 {
        self.hwm[slot.min(N - 1)].load(Ordering::Relaxed)
    }

    /// All high-water marks, in slot order.
    pub fn hwm_values(&self) -> Vec<u64> {
        self.hwm.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }

    /// Zeroes levels and marks.
    pub fn reset(&self) {
        for l in &self.level {
            l.store(0, Ordering::Relaxed);
        }
        for h in &self.hwm {
            h.store(0, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Default for LevelGauges<N> {
    fn default() -> LevelGauges<N> {
        LevelGauges::new()
    }
}

/// Bucket index for value `v`: 0 for 0, else `floor(log2(v)) + 1`, with
/// the top two powers sharing the last bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    ((HIST_BUCKETS as u32 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last).
pub(crate) fn bucket_bound(b: usize) -> u64 {
    if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1 // b = 0 → 0
    }
}

/// A fixed-bucket log2 histogram over `u64` values, with total count and
/// sum, safe for concurrent recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [ZERO_U64; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, in bucket order.
    pub fn bucket_values(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Empties the histogram.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A thread-local histogram for per-access hot loops: recording is a plain
/// array increment (no atomics); [`flush_into`](LocalHistogram::flush_into)
/// merges the whole batch into a shared [`Histogram`] once, at the end of
/// the run or worker.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl LocalHistogram {
    /// An empty local histogram.
    pub const fn new() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (non-atomic; a few arithmetic ops).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Observations recorded locally.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges this batch into `target` and clears the local state.
    pub fn flush_into(&mut self, target: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (b, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                target.buckets[b].fetch_add(n, Ordering::Relaxed);
            }
        }
        target.count.fetch_add(self.count, Ordering::Relaxed);
        target.sum.fetch_add(self.sum, Ordering::Relaxed);
        *self = LocalHistogram::new();
    }
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

/// Systematic 1-in-[`SAMPLE_RATE`](ScanSampler::SAMPLE_RATE) sampler over
/// a [`LocalHistogram`], for observations arriving on paths too hot to
/// histogram every event (the detector's per-access frontier scan costs a
/// few nanoseconds per record — histogramming each one would exceed the
/// telemetry overhead budget). Sampling is deterministic — every N-th
/// observation is recorded — so the captured distribution is reproducible
/// for a given input; multiply counts by the rate to estimate totals.
#[derive(Debug, Clone)]
pub struct ScanSampler {
    hist: LocalHistogram,
    tick: u32,
}

impl ScanSampler {
    /// One in this many observations is recorded (a power of two).
    pub const SAMPLE_RATE: u32 = 16;

    /// An empty sampler.
    pub const fn new() -> ScanSampler {
        ScanSampler {
            hist: LocalHistogram::new(),
            tick: 0,
        }
    }

    /// Counts one observation, recording every
    /// [`SAMPLE_RATE`](ScanSampler::SAMPLE_RATE)-th into the histogram.
    ///
    /// Call this unguarded: the tick test runs first, so the hot path is
    /// one local add and a predictable branch, and [`enabled()`](crate::enabled)
    /// is consulted only on the sampled 1-in-N path. With the `enabled`
    /// feature off the whole body compiles away.
    #[inline]
    pub fn record(&mut self, v: u64) {
        #[cfg(feature = "enabled")]
        {
            self.tick = self.tick.wrapping_add(1);
            if self.tick & (Self::SAMPLE_RATE - 1) == 0 && crate::enabled() {
                self.hist.record(v);
            }
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Merges the sampled histogram into `target` and resets.
    pub fn flush_into(&mut self, target: &Histogram) {
        self.hist.flush_into(target);
        self.tick = 0;
    }
}

impl Default for ScanSampler {
    fn default() -> ScanSampler {
        ScanSampler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        static C: Counter = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.add(1);
                    }
                });
            }
        });
        assert_eq!(C.get(), 8000);
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn slot_counters_clamp_overflow_into_last_slot() {
        let s: SlotCounters<4> = SlotCounters::new();
        s.add(0, 1);
        s.add(3, 2);
        s.add(17, 5); // clamps to slot 3
        assert_eq!(s.values(), vec![1, 0, 0, 7]);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn max_gauge_keeps_the_maximum() {
        let g = MaxGauge::new();
        g.record(3);
        g.record(10);
        g.record(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn level_gauges_track_depth_and_high_water() {
        let q: LevelGauges<2> = LevelGauges::new();
        q.inc(0);
        q.inc(0);
        q.dec(0);
        q.inc(0);
        assert_eq!(q.level(0), 2);
        assert_eq!(q.hwm(0), 2);
        // A stray dec (consumer ahead of producer) can't wrap the report.
        q.dec(1);
        assert_eq!(q.level(1), 0);
    }

    #[test]
    fn histogram_buckets_values_by_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let b = h.bucket_values();
        assert_eq!(b[0], 1); // value 0
        assert_eq!(b[1], 1); // value 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[3], 1); // 4
        assert_eq!(b[10], 1); // 1023 ∈ [512, 1023]
        assert_eq!(b[11], 1); // 1024 ∈ [1024, 2047]
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2057);
    }

    #[test]
    fn bucket_bounds_are_inclusive_uppers() {
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(4), 15);
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn local_histogram_flushes_batches() {
        let global = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in 0..100u64 {
            local.record(v);
        }
        assert_eq!(local.count(), 100);
        local.flush_into(&global);
        assert_eq!(local.count(), 0);
        assert_eq!(global.count(), 100);
        assert_eq!(global.sum(), 4950);
    }
}
