//! A block frame's payload length is a claim, not an allocation size: a
//! 39-byte log whose one frame claims a 1 GiB payload must be read in
//! bounded memory by every reader, strict and salvage, inline and pooled.
//!
//! The binary tracks live heap bytes through its global allocator, so it
//! holds a single test: no other test shares the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use literace_log::{
    checksum32, salvage::SalvageReport, DecodeOpts, LogResult, Record, RecordBlocks, RecordStream,
    SealState, V2_MAGIC, V2_VERSION,
};

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

const CLAIM: u32 = 1 << 30;
const TORN: &str = "truncated block: 10 of 1073741824 payload bytes";

/// Header, one frame claiming a 1 GiB payload behind a valid header
/// checksum (3 records, 1 of them sync), then 10 payload bytes.
fn claiming_log() -> Vec<u8> {
    let mut frame = [0u8; 24];
    frame[..4].copy_from_slice(&CLAIM.to_le_bytes());
    frame[4..8].copy_from_slice(&3u32.to_le_bytes());
    frame[8..12].copy_from_slice(&1u32.to_le_bytes());
    let head_sum = checksum32(&frame[..12]);
    frame[12..16].copy_from_slice(&head_sum.to_le_bytes());
    let mut bytes = V2_MAGIC.to_vec();
    bytes.push(V2_VERSION);
    bytes.extend_from_slice(&frame);
    bytes.extend_from_slice(&[0xAB; 10]);
    assert_eq!(bytes.len(), 39);
    bytes
}

/// The strict reader's one item must be the torn-block error.
fn assert_torn(blocks: impl Iterator<Item = LogResult<Vec<Record>>>, path: &str) {
    let items: Vec<_> = blocks.collect();
    assert_eq!(items.len(), 1, "{path}: {items:?}");
    let err = items[0].as_ref().expect_err(path);
    assert_eq!(err.to_string(), format!("corrupt log: {TORN}"), "{path}");
}

/// Salvage drops the torn block and its claimed records, nothing more.
fn assert_salvaged(
    blocks: impl Iterator<Item = LogResult<Vec<Record>>>,
    report: impl FnOnce() -> SalvageReport,
    path: &str,
) {
    assert_eq!(
        blocks.map(|b| b.expect(path).len()).sum::<usize>(),
        0,
        "{path}"
    );
    let r = report();
    assert_eq!(r.blocks_skipped, 1, "{path}: {r}");
    assert_eq!(r.records_dropped_known, 3, "{path}: {r}");
    assert_eq!(r.bytes_dropped, 34, "{path}: {r}");
    assert!(r.sync_tainted, "{path}: {r}");
    assert_eq!(r.seal, SealState::Unsealed, "{path}: {r}");
    assert_eq!(r.first_error.as_deref(), Some(TORN), "{path}: {r}");
}

#[test]
fn a_huge_payload_claim_is_read_in_bounded_memory() {
    let bytes: &[u8] = &claiming_log();
    let cursor = || std::io::Cursor::new(bytes.to_vec());
    let mut reads: Vec<(String, Box<dyn FnOnce() + '_>)> = vec![
        (
            "RecordBlocks::open".into(),
            Box::new(|| assert_torn(RecordBlocks::open(bytes).unwrap(), "open")),
        ),
        (
            "RecordBlocks::open_salvage".into(),
            Box::new(|| {
                let (blocks, handle) = RecordBlocks::open_salvage(bytes);
                assert_salvaged(blocks, || handle.report(), "open_salvage");
            }),
        ),
    ];
    for threads in [1, 4] {
        let opts = DecodeOpts::with_threads(threads);
        reads.push((
            format!("spawn_with at {threads} threads"),
            Box::new(move || {
                assert_torn(
                    RecordStream::spawn_with(cursor(), opts).unwrap(),
                    "spawn_with",
                )
            }),
        ));
        reads.push((
            format!("spawn_salvage_with at {threads} threads"),
            Box::new(move || {
                let (stream, handle) = RecordStream::spawn_salvage_with(cursor(), opts).unwrap();
                assert_salvaged(stream, || handle.report(), "spawn_salvage_with");
            }),
        ));
        reads.push((
            format!("spawn_bytes at {threads} threads"),
            Box::new(move || {
                let stream = RecordStream::spawn_bytes(bytes.to_vec().into(), opts).unwrap();
                assert_torn(stream, "spawn_bytes");
            }),
        ));
    }
    for (path, read) in reads {
        let ((), peak) = peak_above_start(read);
        assert!(peak < 1 << 20, "{path} peaked at {peak} heap bytes");
    }
}
