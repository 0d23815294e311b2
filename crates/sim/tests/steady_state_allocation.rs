//! Steady-state stepping allocates nothing: once each thread's frame stacks
//! and each object's waiter list have grown to their working size, calls,
//! returns, loops and contended lock hand-offs reuse that memory.
//!
//! The binary counts every heap allocation through its global allocator,
//! so it holds a single test: no other test shares the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use literace_sim::{
    lower, ChunkedRandomScheduler, CompiledProgram, Machine, MachineConfig, NullObserver,
    ProgramBuilder, RoundRobinScheduler, RunSummary, Rvalue, Scheduler,
};

/// Counts allocations and reallocations, then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as-is; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as-is; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Three detached workers, each running `iterations` rounds of a call into
/// a helper with locals and a loop, then a critical section longer than a
/// scheduler slice on one shared mutex.
fn program(iterations: u32) -> CompiledProgram {
    let mut b = ProgramBuilder::new();
    let g = b.global_word("g");
    let m = b.mutex("m");
    let helper = b.function("helper", 1, |f| {
        let x = f.local();
        let arg = f.arg();
        f.set_local(x, Rvalue::LocalPlus(arg, 1));
        f.loop_(2, |f| {
            f.add_local(x, Rvalue::Local(arg));
            f.write_stack(1);
        });
    });
    let worker = b.function("worker", 0, move |f| {
        f.loop_(iterations, |f| {
            f.call_with(helper, Rvalue::Const(7));
            f.lock(m);
            f.write(g);
            f.compute(1);
            f.compute(1);
            f.unlock(m);
        });
    });
    b.entry_fn("main", move |f| {
        for _ in 0..3 {
            f.spawn_detached(worker, Rvalue::Const(0));
        }
    });
    lower(&b.build().expect("the program validates"))
}

/// Runs `prog` and returns its summary with the allocations made by
/// creating and running the machine.
fn run_counted(prog: &CompiledProgram, sched: &mut impl Scheduler) -> (RunSummary, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = Machine::new(prog, MachineConfig::default())
        .run(sched, &mut NullObserver)
        .expect("the workers finish");
    (summary, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn calls_returns_and_wakes_allocate_nothing_in_steady_state() {
    const N: u32 = 300;
    let mut counts = Vec::new();
    for iterations in [N, 2 * N] {
        let prog = program(iterations);
        // Each worker runs its rounds uninterrupted: no lock is contended.
        let (alone, _) = run_counted(&prog, &mut RoundRobinScheduler::new(u32::MAX));
        let (summary, allocations) = run_counted(&prog, &mut ChunkedRandomScheduler::seeded(1, 4));
        assert_eq!(summary.func_entries, 4 + 3 * u64::from(iterations));
        // A blocked `Lock` costs one step and is retried once woken, so the
        // extra steps count the contended acquires.
        let blocked = summary.steps - alone.steps;
        assert!(
            blocked >= u64::from(iterations) / 4,
            "{iterations} rounds blocked only {blocked} times"
        );
        counts.push(allocations);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations grew with the number of calls and hand-offs: {counts:?}"
    );
}
