//! Per-thread runtime state: frames, locals, blocking status.

use crate::addr::{stack_base, Addr, STACK_BYTES_PER_THREAD, WORD_BYTES};
use crate::ids::{FuncId, LocalSlot, SyncId, ThreadId};

/// Words of simulated stack per frame (stack accesses wrap within this).
pub const FRAME_WORDS: u64 = 64;

/// Frames that fit in one thread's stack region. `Program::validate`
/// rejects longer call chains, so a frame never reaches into the next
/// thread's region.
pub(crate) const MAX_FRAMES: u64 = STACK_BYTES_PER_THREAD / WORD_BYTES / FRAME_WORDS;

/// Why a thread cannot currently run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// Waiting to acquire a mutex.
    Mutex(SyncId),
    /// Waiting for an event to be signaled.
    Event(SyncId),
    /// Waiting for a semaphore count.
    Semaphore(SyncId),
    /// Waiting at a barrier rendezvous.
    Barrier(SyncId),
    /// Waiting for a thread to exit.
    Join(ThreadId),
}

impl BlockReason {
    /// Human-readable description used in deadlock reports.
    pub(crate) fn describe(self) -> String {
        match self {
            BlockReason::Mutex(s) => format!("mutex {s}"),
            BlockReason::Event(s) => format!("event {s}"),
            BlockReason::Semaphore(s) => format!("semaphore {s}"),
            BlockReason::Barrier(s) => format!("barrier {s}"),
            BlockReason::Join(t) => format!("join of {t}"),
        }
    }
}

/// Scheduling status of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    /// Can be scheduled.
    Runnable,
    /// Blocked; will be retried after being woken.
    Blocked(BlockReason),
    /// Finished.
    Exited,
}

/// One call frame. Its locals and loop counters live on its thread's
/// stacks, from `locals_base` and `loops_base` up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// The executing function.
    pub(crate) func: FuncId,
    /// Index of the next instruction to execute.
    pub(crate) pc: usize,
    /// Where this frame's local slots start in `ThreadState::locals`.
    locals_base: usize,
    /// Where this frame's loop counters start in `ThreadState::loops`.
    loops_base: usize,
}

/// Full state of one simulated thread.
///
/// Frames keep their locals and loop counters on two stacks owned by the
/// thread, so a call pushes and a return truncates, and once the stacks
/// have grown to the thread's deepest call neither allocates.
#[derive(Debug, Clone)]
pub(crate) struct ThreadState {
    /// This thread's id.
    pub(crate) tid: ThreadId,
    /// Scheduling status.
    pub(crate) status: ThreadStatus,
    /// Call stack, innermost frame last. Empty once exited.
    frames: Vec<Frame>,
    /// Local slots of every live frame, innermost frame's last.
    locals: Vec<u64>,
    /// Live loop counters of every frame, innermost last.
    loops: Vec<u32>,
}

impl ThreadState {
    /// Creates a thread about to run `func(arg)`.
    pub(crate) fn new(tid: ThreadId, func: FuncId, locals: u16, arg: u64) -> ThreadState {
        let mut t = ThreadState {
            tid,
            status: ThreadStatus::Runnable,
            frames: Vec::new(),
            locals: Vec::new(),
            loops: Vec::new(),
        };
        t.push_frame(func, locals, arg);
        t
    }

    /// Enters `func`: a new innermost frame with `locals` slots (at least
    /// one), the argument in slot 0 and the rest zero.
    pub(crate) fn push_frame(&mut self, func: FuncId, locals: u16, arg: u64) {
        let locals_base = self.locals.len();
        self.locals.resize(locals_base + locals.max(1) as usize, 0);
        self.locals[locals_base] = arg;
        self.frames.push(Frame {
            func,
            pc: 0,
            locals_base,
            loops_base: self.loops.len(),
        });
    }

    /// Leaves the innermost frame, dropping its locals and loop counters.
    /// Returns whether a frame remains.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub(crate) fn pop_frame(&mut self) -> bool {
        let frame = self.frames.pop().expect("thread has no frames");
        self.locals.truncate(frame.locals_base);
        self.loops.truncate(frame.loops_base);
        !self.frames.is_empty()
    }

    /// The innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub(crate) fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has no frames")
    }

    /// The innermost frame, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub(crate) fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has no frames")
    }

    /// Reads a local slot of the innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the slot is outside the innermost frame.
    pub(crate) fn local(&self, slot: LocalSlot) -> u64 {
        self.locals[self.frame().locals_base..][slot.index()]
    }

    /// Writes a local slot of the innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the slot is outside the innermost frame.
    pub(crate) fn set_local(&mut self, slot: LocalSlot, value: u64) {
        let base = self.frame().locals_base;
        self.locals[base..][slot.index()] = value;
    }

    /// Enters a loop of `trips` iterations in the innermost frame.
    pub(crate) fn push_loop(&mut self, trips: u32) {
        self.loops.push(trips);
    }

    /// Counts down the innermost frame's innermost loop. Returns whether
    /// another iteration runs; the counter is dropped when none does.
    ///
    /// # Panics
    ///
    /// Panics if the innermost frame has no live loop.
    pub(crate) fn loop_back(&mut self) -> bool {
        let base = self.frame().loops_base;
        let top = self.loops[base..]
            .last_mut()
            .expect("LoopBack without live loop counter");
        *top -= 1;
        if *top > 0 {
            return true;
        }
        self.loops.pop();
        false
    }

    /// The stack address of word `offset` in the innermost frame.
    ///
    /// Offsets wrap within the frame's [`FRAME_WORDS`]-word window; frames
    /// occupy disjoint windows within the thread's stack region.
    pub(crate) fn stack_addr(&self, offset: u64) -> Addr {
        let depth = self.frames.len() as u64 - 1;
        let base = stack_base(self.tid.index());
        Addr(base.raw() + (depth * FRAME_WORDS + offset % FRAME_WORDS) * WORD_BYTES)
    }

    /// Whether the thread can be scheduled.
    pub(crate) fn is_runnable(&self) -> bool {
        self.status == ThreadStatus::Runnable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(locals: u16, arg: u64) -> ThreadState {
        ThreadState::new(ThreadId::MAIN, FuncId::from_index(0), locals, arg)
    }

    #[test]
    fn frame_slot_zero_holds_argument() {
        let t = thread(4, 99);
        assert_eq!(t.local(LocalSlot(0)), 99);
        assert_eq!(t.local(LocalSlot(3)), 0);
    }

    #[test]
    fn zero_local_functions_still_get_an_arg_slot() {
        let t = thread(0, 7);
        assert_eq!(t.local(LocalSlot(0)), 7);
    }

    #[test]
    fn stack_addresses_differ_by_frame_depth() {
        let mut t = thread(1, 0);
        let outer = t.stack_addr(0);
        t.push_frame(FuncId::from_index(1), 1, 0);
        let inner = t.stack_addr(0);
        assert_ne!(outer, inner);
        assert_eq!(inner.raw() - outer.raw(), FRAME_WORDS * WORD_BYTES);
    }

    #[test]
    fn stack_addresses_differ_by_thread() {
        let a = ThreadState::new(ThreadId::from_index(0), FuncId::from_index(0), 1, 0);
        let b = ThreadState::new(ThreadId::from_index(1), FuncId::from_index(0), 1, 0);
        assert_ne!(a.stack_addr(0), b.stack_addr(0));
    }

    #[test]
    fn stack_offsets_wrap_within_frame() {
        let t = thread(1, 0);
        assert_eq!(t.stack_addr(0), t.stack_addr(FRAME_WORDS));
    }

    #[test]
    fn frames_see_only_their_own_locals_and_loops() {
        let mut t = thread(2, 5);
        t.set_local(LocalSlot(1), 6);
        t.push_loop(3);
        t.push_frame(FuncId::from_index(1), 1, 9);
        assert_eq!(t.local(LocalSlot(0)), 9);
        let inner_slot_one = std::panic::catch_unwind(|| t.local(LocalSlot(1)));
        assert!(inner_slot_one.is_err(), "slot 1 belongs to the caller");
        t.push_loop(1);
        assert!(!t.loop_back(), "a one-trip loop ends");
        let no_loop = std::panic::catch_unwind(|| t.clone().loop_back());
        assert!(no_loop.is_err(), "the caller's loop is not the callee's");
        assert!(t.pop_frame());
        assert_eq!((t.local(LocalSlot(0)), t.local(LocalSlot(1))), (5, 6));
        assert!(t.loop_back(), "the caller's loop resumes at 2 trips left");
        assert!(!t.pop_frame());
    }
}
