//! Race accounting is per static pair, not per dynamic race: a log with
//! one racing pair and a million dynamic races must be detected in the
//! same heap as one with a quarter of them, at every shard count.
//!
//! The binary tracks live heap bytes through its global allocator, so it
//! holds a single test: no other test shares the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use literace_detector::{detect_stream, DetectConfig};
use literace_log::{LogResult, Record, SamplerMask};
use literace_sim::{Addr, FuncId, Pc, ThreadId};

/// Tracks live and peak heap bytes, then defers to the system allocator.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded as-is; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: forwarded as-is; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            shrank(layout.size() - new_size);
        }
        // SAFETY: forwarded as-is; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The highest heap use above the starting level while `f` runs.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - start)
}

const BLOCK: usize = 4096;

/// `n` records, generated a block at a time: threads 0 and 1 alternately
/// write one address from two sites, so every record after the first
/// completes a race of the one static pair.
fn alternating_writes(n: usize) -> impl Iterator<Item = LogResult<Vec<Record>>> {
    (0..n).step_by(BLOCK).map(move |start| {
        Ok((start..n.min(start + BLOCK))
            .map(|i| Record::Mem {
                tid: ThreadId::from_index(i % 2),
                pc: Pc::new(FuncId::from_index(0), i % 2),
                addr: Addr::global(0),
                is_write: true,
                mask: SamplerMask::FULL,
            })
            .collect())
    })
}

#[test]
fn race_memory_does_not_grow_with_dynamic_races() {
    for threads in [1, 2, 4] {
        let cfg = DetectConfig::with_threads(threads);
        let peaks: Vec<usize> = [250_000, 1_000_000]
            .into_iter()
            .map(|n| {
                let (report, peak) =
                    peak_above_start(|| detect_stream(alternating_writes(n), 0, &cfg).unwrap());
                assert_eq!(report.static_count(), 1, "threads={threads} n={n}");
                assert_eq!(
                    report.dynamic_races,
                    n as u64 - 1,
                    "threads={threads} n={n}"
                );
                peak
            })
            .collect();
        let growth = peaks[1].saturating_sub(peaks[0]);
        assert!(
            growth < 1 << 20,
            "threads={threads}: peak heap {} → {} bytes from 250k to 1M records",
            peaks[0],
            peaks[1]
        );
    }
}
