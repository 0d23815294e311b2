//! The execution engine.
//!
//! [`Machine::run`] interprets a [`CompiledProgram`] under a
//! [`Scheduler`](crate::Scheduler), emitting an [`Event`] stream to an
//! [`Observer`](crate::Observer) and collecting a [`RunSummary`]. Execution
//! is deterministic given the program and the scheduler.

mod memory;
mod sync;
mod thread;

pub use memory::Heap;
pub use sync::{sync_obj_addr, sync_obj_var, SYNC_OBJ_BASE, SYNC_OBJ_STRIDE};
pub use thread::FRAME_WORDS;
pub(crate) use thread::MAX_FRAMES;

use serde::{Deserialize, Serialize};

use crate::addr::{Addr, GLOBAL_BASE, WORD_BYTES};
use crate::cost::CostModel;
use crate::error::{SimError, SimResult};
use crate::event::{Event, Observer, SyncOpKind};
use crate::ids::{FuncId, Pc, SyncId, SyncVar, ThreadId};
use crate::lower::{CompiledProgram, Instr};
use crate::op::{AddrExpr, Rvalue, SyncRef};
use crate::program::SyncKind;
use crate::sched::Scheduler;
use crate::summary::RunSummary;

use self::sync::SyncState;
use self::thread::{BlockReason, ThreadState, ThreadStatus};

/// Limits and cost calibration for a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Maximum live + exited threads (spawn beyond this errors).
    pub max_threads: usize,
    /// Maximum scheduler steps before aborting with
    /// [`SimError::StepLimitExceeded`].
    pub step_limit: u64,
    /// Baseline instruction costs.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            max_threads: 512,
            step_limit: 500_000_000,
            cost: CostModel::DEFAULT,
        }
    }
}

/// The interpreter.
///
/// # Examples
///
/// ```
/// use literace_sim::{lower, Machine, MachineConfig, ProgramBuilder, RandomScheduler,
///                    NullObserver};
///
/// let mut b = ProgramBuilder::new();
/// let g = b.global_word("g");
/// b.entry_fn("main", |f| {
///     f.write(g);
/// });
/// let compiled = lower(&b.build()?);
/// let mut machine = Machine::new(&compiled, MachineConfig::default());
/// let summary = machine.run(&mut RandomScheduler::seeded(0), &mut NullObserver)?;
/// assert_eq!(summary.mem_writes, 1);
/// # Ok::<(), literace_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Machine<'p> {
    prog: &'p CompiledProgram,
    cfg: MachineConfig,
    threads: Vec<ThreadState>,
    /// Parent and started-flag per thread (parallel to `threads`).
    meta: Vec<ThreadMeta>,
    syncs: Vec<SyncState>,
    heap: Heap,
    summary: RunSummary,
    /// Ids of the `Runnable` threads, ascending. Kept across steps and
    /// rebuilt only when `runnable_stale` is set and a pick needs it.
    runnable: Vec<ThreadId>,
    /// Set by [`set_status`](Machine::set_status), the only writer of a
    /// thread's status, so no transition can leave `runnable` out of date.
    runnable_stale: bool,
}

#[derive(Debug, Clone, Copy)]
struct ThreadMeta {
    parent: Option<ThreadId>,
    started: bool,
}

impl<'p> Machine<'p> {
    /// Creates a machine ready to run `prog` from its entry function.
    pub fn new(prog: &'p CompiledProgram, cfg: MachineConfig) -> Machine<'p> {
        let entry = prog.entry;
        let locals = prog.function(entry).locals;
        let main = ThreadState::new(ThreadId::MAIN, entry, locals, 0);
        let syncs = prog
            .syncs
            .iter()
            .map(|d| SyncState::new(d.kind))
            .collect();
        let mut summary = RunSummary {
            per_func_entries: vec![0; prog.functions.len()],
            per_thread_cost: vec![0],
            threads: 1,
            ..RunSummary::default()
        };
        summary.per_func_entries.iter_mut().for_each(|c| *c = 0);
        Machine {
            prog,
            cfg,
            threads: vec![main],
            meta: vec![ThreadMeta {
                parent: None,
                started: false,
            }],
            syncs,
            heap: Heap::new(),
            summary,
            runnable: Vec::new(),
            runnable_stale: true,
        }
    }

    /// Runs to completion (every thread exited).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if all live threads block,
    /// [`SimError::StepLimitExceeded`] or [`SimError::ThreadLimitExceeded`]
    /// when limits are hit, and [`SimError::Fault`] /
    /// [`SimError::UnlockNotHeld`] on runtime misuse.
    pub fn run<S: Scheduler, O: Observer>(
        &mut self,
        sched: &mut S,
        obs: &mut O,
    ) -> SimResult<RunSummary> {
        // The thread that stepped last. While it stays runnable, the
        // scheduler is asked to continue its slice before any pick.
        let mut current: Option<ThreadId> = None;
        loop {
            let running = current.filter(|t| self.threads[t.index()].is_runnable());
            if running.is_none() && self.runnable_threads().is_empty() {
                return self.finish();
            }
            if self.summary.steps >= self.cfg.step_limit {
                return Err(SimError::StepLimitExceeded {
                    limit: self.cfg.step_limit,
                });
            }
            let tid = match running {
                Some(tid) if sched.keep_current() => tid,
                _ => {
                    let runnable = self.runnable_threads();
                    runnable[sched.pick(runnable)]
                }
            };
            current = Some(tid);
            self.summary.steps += 1;
            self.step(tid, obs)?;
        }
    }

    /// The runnable threads, ascending by id, rebuilt first if a status
    /// changed since the last rebuild.
    fn runnable_threads(&mut self) -> &[ThreadId] {
        if self.runnable_stale {
            self.runnable.clear();
            self.runnable.extend(
                self.threads
                    .iter()
                    .filter(|t| t.is_runnable())
                    .map(|t| t.tid),
            );
            self.runnable_stale = false;
        }
        &self.runnable
    }

    /// Ends a run that has no runnable thread: the summary if every thread
    /// has exited, otherwise a deadlock naming the blocked threads.
    fn finish(&mut self) -> SimResult<RunSummary> {
        let blocked: Vec<_> = self
            .threads
            .iter()
            .filter_map(|t| match t.status {
                ThreadStatus::Blocked(reason) => Some((t.tid, reason.describe())),
                _ => None,
            })
            .collect();
        if blocked.is_empty() {
            Ok(std::mem::take(&mut self.summary))
        } else {
            Err(SimError::Deadlock { blocked })
        }
    }

    /// The one place a thread's status changes. Marks the runnable set
    /// stale, so `run` rebuilds it before the next pick.
    fn set_status(&mut self, tid: ThreadId, status: ThreadStatus) {
        self.threads[tid.index()].status = status;
        self.runnable_stale = true;
    }

    /// The scheduling loop before the runnable set was kept across steps
    /// and slices ran without a pick: it rescans every thread and calls
    /// `pick` before every step. Tests compare [`run`](Machine::run)
    /// against it.
    #[cfg(test)]
    fn run_rescanning<S: Scheduler, O: Observer>(
        &mut self,
        sched: &mut S,
        obs: &mut O,
    ) -> SimResult<RunSummary> {
        let mut runnable: Vec<ThreadId> = Vec::new();
        loop {
            runnable.clear();
            let mut any_live = false;
            for t in &self.threads {
                match t.status {
                    ThreadStatus::Runnable => {
                        runnable.push(t.tid);
                        any_live = true;
                    }
                    ThreadStatus::Blocked(_) => any_live = true,
                    ThreadStatus::Exited => {}
                }
            }
            if runnable.is_empty() {
                if !any_live {
                    return Ok(std::mem::take(&mut self.summary));
                }
                let blocked = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.status {
                        ThreadStatus::Blocked(reason) => Some((t.tid, reason.describe())),
                        _ => None,
                    })
                    .collect();
                return Err(SimError::Deadlock { blocked });
            }
            if self.summary.steps >= self.cfg.step_limit {
                return Err(SimError::StepLimitExceeded {
                    limit: self.cfg.step_limit,
                });
            }
            let tid = runnable[sched.pick(&runnable)];
            self.summary.steps += 1;
            self.step(tid, obs)?;
        }
    }

    /// Executes one instruction of thread `tid`, which must be runnable.
    fn step<O: Observer>(&mut self, tid: ThreadId, obs: &mut O) -> SimResult<()> {
        let ti = tid.index();
        let frame = self.threads[ti].frame();
        let func = frame.func;
        let pc_idx = frame.pc;
        if !self.meta[ti].started {
            self.start_thread(tid, func, obs);
        }
        let instr = self.prog.function(func).code[pc_idx];
        let pc = Pc::new(func, pc_idx);

        // Blocking instructions charge no cost while parked; everything else
        // is charged up front.
        match instr {
            Instr::Read(a) => {
                let addr = self.resolve_addr(tid, &a)?;
                self.charge(tid, self.cfg.cost.read);
                self.summary.mem_reads += 1;
                self.count_access_class(addr);
                obs.on_event(&Event::MemRead { tid, pc, addr });
                self.advance(tid);
            }
            Instr::Write(a) => {
                let addr = self.resolve_addr(tid, &a)?;
                self.charge(tid, self.cfg.cost.write);
                self.summary.mem_writes += 1;
                self.count_access_class(addr);
                obs.on_event(&Event::MemWrite { tid, pc, addr });
                self.advance(tid);
            }
            Instr::AtomicRmw(a) => {
                let addr = self.resolve_addr(tid, &a)?;
                self.charge(tid, self.cfg.cost.atomic_rmw);
                self.emit_sync(obs, tid, pc, SyncOpKind::AtomicRmw, SyncVar(addr.raw()));
                self.advance(tid);
            }
            Instr::Lock(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let st = &mut self.syncs[sid.index()];
                debug_assert_eq!(st.kind, SyncKind::Mutex);
                match st.owner {
                    None => {
                        st.owner = Some(tid);
                        self.charge(tid, self.cfg.cost.lock);
                        self.emit_sync(obs, tid, pc, SyncOpKind::LockAcquire, sync_obj_var(sid));
                        self.advance(tid);
                    }
                    Some(owner) if owner == tid => {
                        return Err(SimError::fault(
                            tid,
                            format!("recursive acquire of mutex {sid}"),
                        ));
                    }
                    Some(_) => {
                        st.waiters.push(tid);
                        self.set_status(tid, ThreadStatus::Blocked(BlockReason::Mutex(sid)));
                    }
                }
            }
            Instr::Unlock(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let st = &mut self.syncs[sid.index()];
                if st.owner != Some(tid) {
                    return Err(SimError::UnlockNotHeld { thread: tid, sync: sid });
                }
                st.owner = None;
                self.wake_waiters(sid);
                self.charge(tid, self.cfg.cost.unlock);
                self.emit_sync(obs, tid, pc, SyncOpKind::LockRelease, sync_obj_var(sid));
                self.advance(tid);
            }
            Instr::Wait(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let st = &mut self.syncs[sid.index()];
                debug_assert_eq!(st.kind, SyncKind::Event);
                if st.signaled {
                    self.charge(tid, self.cfg.cost.wait);
                    self.emit_sync(obs, tid, pc, SyncOpKind::WaitReturn, sync_obj_var(sid));
                    self.advance(tid);
                } else {
                    st.waiters.push(tid);
                    self.set_status(tid, ThreadStatus::Blocked(BlockReason::Event(sid)));
                }
            }
            Instr::Notify(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let st = &mut self.syncs[sid.index()];
                st.signaled = true;
                self.wake_waiters(sid);
                self.charge(tid, self.cfg.cost.notify);
                self.emit_sync(obs, tid, pc, SyncOpKind::Notify, sync_obj_var(sid));
                self.advance(tid);
            }
            Instr::Reset(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                self.syncs[sid.index()].signaled = false;
                self.charge(tid, self.cfg.cost.notify);
                self.emit_sync(obs, tid, pc, SyncOpKind::Reset, sync_obj_var(sid));
                self.advance(tid);
            }
            Instr::SemAcquire(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let st = &mut self.syncs[sid.index()];
                debug_assert!(matches!(st.kind, SyncKind::Semaphore { .. }));
                if st.count > 0 {
                    st.count -= 1;
                    self.charge(tid, self.cfg.cost.wait);
                    self.emit_sync(obs, tid, pc, SyncOpKind::SemAcquire, sync_obj_var(sid));
                    self.advance(tid);
                } else {
                    st.waiters.push(tid);
                    self.set_status(tid, ThreadStatus::Blocked(BlockReason::Semaphore(sid)));
                }
            }
            Instr::SemRelease(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let st = &mut self.syncs[sid.index()];
                st.count += 1;
                self.wake_waiters(sid);
                self.charge(tid, self.cfg.cost.notify);
                self.emit_sync(obs, tid, pc, SyncOpKind::SemRelease, sync_obj_var(sid));
                self.advance(tid);
            }
            Instr::BarrierWait(s) => {
                let sid = self.resolve_sync(tid, &s)?;
                let parties = match self.syncs[sid.index()].kind {
                    SyncKind::Barrier { parties } => parties,
                    _ => unreachable!("validated as a barrier"),
                };
                let st = &mut self.syncs[sid.index()];
                if let Some(i) = st.departing.iter().position(|&t| t == tid) {
                    // Woken after a completed rendezvous: depart.
                    st.departing.swap_remove(i);
                    self.charge(tid, self.cfg.cost.wait);
                    self.emit_sync(obs, tid, pc, SyncOpKind::BarrierDepart, sync_obj_var(sid));
                    self.advance(tid);
                } else {
                    debug_assert!(
                        !st.arrived.contains(&tid),
                        "thread arrived twice at one rendezvous"
                    );
                    st.arrived.push(tid);
                    self.emit_sync(obs, tid, pc, SyncOpKind::BarrierArrive, sync_obj_var(sid));
                    let st = &mut self.syncs[sid.index()];
                    if st.arrived.len() as u32 == parties {
                        // Last arriver: open the barrier for this generation
                        // and depart immediately. The other arrivals become
                        // the departing set; both lists keep their buffers.
                        std::mem::swap(&mut st.arrived, &mut st.departing);
                        st.arrived.clear();
                        st.departing.retain(|&t| t != tid);
                        self.wake_waiters(sid);
                        self.charge(tid, self.cfg.cost.wait);
                        self.emit_sync(
                            obs,
                            tid,
                            pc,
                            SyncOpKind::BarrierDepart,
                            sync_obj_var(sid),
                        );
                        self.advance(tid);
                    } else {
                        st.waiters.push(tid);
                        self.set_status(tid, ThreadStatus::Blocked(BlockReason::Barrier(sid)));
                    }
                }
            }
            Instr::Alloc { words, dst } => {
                let base = self.heap.alloc(words);
                self.threads[ti].set_local(dst, base.raw());
                self.charge(tid, self.cfg.cost.alloc);
                self.summary.allocs += 1;
                obs.on_event(&Event::Alloc {
                    tid,
                    pc,
                    base,
                    words,
                });
                self.advance(tid);
            }
            Instr::Free { src } => {
                let base = Addr(self.threads[ti].local(src));
                let words = self.heap.free(tid, base)?;
                self.charge(tid, self.cfg.cost.free);
                self.summary.frees += 1;
                obs.on_event(&Event::Free {
                    tid,
                    pc,
                    base,
                    words,
                });
                self.advance(tid);
            }
            Instr::Spawn { func, arg, dst } => {
                if self.threads.len() >= self.cfg.max_threads {
                    return Err(SimError::ThreadLimitExceeded {
                        limit: self.cfg.max_threads,
                    });
                }
                let child = ThreadId::from_index(self.threads.len());
                let arg = self.eval(tid, arg);
                let locals = self.prog.function(func).locals;
                self.threads.push(ThreadState::new(child, func, locals, arg));
                // The child joins the runnable set.
                self.set_status(child, ThreadStatus::Runnable);
                self.meta.push(ThreadMeta {
                    parent: Some(tid),
                    started: false,
                });
                self.summary.per_thread_cost.push(0);
                self.summary.threads += 1;
                if let Some(dst) = dst {
                    self.threads[ti].set_local(dst, child.index() as u64);
                }
                self.charge(tid, self.cfg.cost.spawn);
                self.emit_sync(obs, tid, pc, SyncOpKind::Fork, thread_var(child));
                self.advance(tid);
            }
            Instr::Join { src } => {
                let raw = self.threads[ti].local(src);
                let target = raw as usize;
                if target >= self.threads.len() {
                    return Err(SimError::fault(tid, format!("join of invalid thread {raw}")));
                }
                let target_tid = ThreadId::from_index(target);
                if self.threads[target].status == ThreadStatus::Exited {
                    self.charge(tid, self.cfg.cost.join);
                    self.emit_sync(obs, tid, pc, SyncOpKind::Join, thread_var(target_tid));
                    self.advance(tid);
                } else {
                    self.set_status(tid, ThreadStatus::Blocked(BlockReason::Join(target_tid)));
                }
            }
            Instr::Call { func, arg } => {
                let arg = self.eval(tid, arg);
                self.charge(tid, self.cfg.cost.call);
                let locals = self.prog.function(func).locals;
                let thread = &mut self.threads[ti];
                thread.frame_mut().pc += 1;
                thread.push_frame(func, locals, arg);
                self.summary.func_entries += 1;
                self.summary.per_func_entries[func.index()] += 1;
                obs.on_event(&Event::FunctionEntry { tid, func });
            }
            Instr::Compute { cost } => {
                self.charge(tid, cost as u64);
                self.advance(tid);
            }
            Instr::SetLocal { dst, val } => {
                let v = self.eval(tid, val);
                self.threads[ti].set_local(dst, v);
                self.charge(tid, self.cfg.cost.scalar);
                self.advance(tid);
            }
            Instr::AddLocal { dst, val } => {
                let v = self.eval(tid, val);
                let thread = &mut self.threads[ti];
                let cur = thread.local(dst);
                thread.set_local(dst, cur.wrapping_add(v));
                self.charge(tid, self.cfg.cost.scalar);
                self.advance(tid);
            }
            Instr::LoopHead { trips, exit } => {
                self.charge(tid, self.cfg.cost.scalar);
                let thread = &mut self.threads[ti];
                if trips == 0 {
                    thread.frame_mut().pc = exit;
                } else {
                    thread.push_loop(trips);
                    thread.frame_mut().pc += 1;
                    obs.on_event(&Event::LoopIter {
                        tid,
                        func,
                        head: pc,
                    });
                }
            }
            Instr::LoopBack { body } => {
                self.charge(tid, self.cfg.cost.scalar);
                let thread = &mut self.threads[ti];
                if thread.loop_back() {
                    thread.frame_mut().pc = body;
                    let head = Pc::new(func, body - 1);
                    obs.on_event(&Event::LoopIter { tid, func, head });
                } else {
                    thread.frame_mut().pc += 1;
                }
            }
            Instr::Return => {
                self.charge(tid, self.cfg.cost.scalar);
                obs.on_event(&Event::FunctionExit { tid, func });
                if !self.threads[ti].pop_frame() {
                    self.set_status(tid, ThreadStatus::Exited);
                    self.emit_sync(
                        obs,
                        tid,
                        Pc::new(func, pc_idx),
                        SyncOpKind::ThreadExit,
                        thread_var(tid),
                    );
                    obs.on_event(&Event::ThreadExit { tid });
                    let joining = ThreadStatus::Blocked(BlockReason::Join(tid));
                    for i in 0..self.threads.len() {
                        if self.threads[i].status == joining {
                            self.set_status(ThreadId::from_index(i), ThreadStatus::Runnable);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn advance(&mut self, tid: ThreadId) {
        self.threads[tid.index()].frame_mut().pc += 1;
    }

    fn charge(&mut self, tid: ThreadId, cost: u64) {
        self.summary.baseline_cost += cost;
        self.summary.per_thread_cost[tid.index()] += cost;
    }

    /// Makes every thread blocked on `sid` runnable; each retries the
    /// instruction it blocked on. The waiter list is cleared in place, so
    /// its buffer serves the next blockers.
    fn wake_waiters(&mut self, sid: SyncId) {
        for i in 0..self.syncs[sid.index()].waiters.len() {
            let t = self.syncs[sid.index()].waiters[i];
            self.set_status(t, ThreadStatus::Runnable);
        }
        self.syncs[sid.index()].waiters.clear();
    }

    /// Emits a thread's start events ahead of its first instruction, whose
    /// frame runs `func`.
    #[cold]
    fn start_thread<O: Observer>(&mut self, tid: ThreadId, func: FuncId, obs: &mut O) {
        let meta = &mut self.meta[tid.index()];
        meta.started = true;
        let parent = meta.parent;
        obs.on_event(&Event::ThreadStart { tid, parent, func });
        if parent.is_some() {
            self.emit_sync(
                obs,
                tid,
                Pc::new(func, 0),
                SyncOpKind::ThreadStart,
                thread_var(tid),
            );
        }
        self.summary.func_entries += 1;
        self.summary.per_func_entries[func.index()] += 1;
        obs.on_event(&Event::FunctionEntry { tid, func });
    }

    fn count_access_class(&mut self, addr: Addr) {
        if addr.class().is_non_stack() {
            self.summary.non_stack_accesses += 1;
        } else {
            self.summary.stack_accesses += 1;
        }
    }

    fn emit_sync<O: Observer>(
        &mut self,
        obs: &mut O,
        tid: ThreadId,
        pc: Pc,
        kind: SyncOpKind,
        var: SyncVar,
    ) {
        self.summary.sync_ops += 1;
        obs.on_event(&Event::Sync { tid, pc, kind, var });
    }

    fn eval(&self, tid: ThreadId, val: Rvalue) -> u64 {
        let thread = &self.threads[tid.index()];
        match val {
            Rvalue::Const(c) => c,
            Rvalue::Local(s) => thread.local(s),
            Rvalue::LocalPlus(s, k) => thread.local(s).wrapping_add(k),
        }
    }

    fn resolve_addr(&self, tid: ThreadId, a: &AddrExpr) -> SimResult<Addr> {
        let t = &self.threads[tid.index()];
        match *a {
            AddrExpr::Global { offset } => Ok(Addr::global(offset)),
            AddrExpr::Stack { offset } => Ok(t.stack_addr(offset)),
            AddrExpr::Indirect { base, offset } => {
                let p = t.local(base);
                if p < GLOBAL_BASE {
                    return Err(SimError::fault(
                        tid,
                        format!("indirect access through bad pointer {p:#x}"),
                    ));
                }
                Ok(Addr(p + offset * WORD_BYTES))
            }
            AddrExpr::IndirectIndexed {
                base,
                index,
                modulus,
            } => {
                let p = t.local(base);
                if p < GLOBAL_BASE {
                    return Err(SimError::fault(
                        tid,
                        format!("indexed access through bad pointer {p:#x}"),
                    ));
                }
                let i = t.local(index) % modulus;
                Ok(Addr(p + i * WORD_BYTES))
            }
        }
    }

    fn resolve_sync(&self, tid: ThreadId, s: &SyncRef) -> SimResult<SyncId> {
        match *s {
            SyncRef::Static(id) => Ok(id),
            SyncRef::Striped { base, index, count } => {
                let i = self.threads[tid.index()].local(index) % count as u64;
                let id = SyncId::from_index(base.index() + i as usize);
                if id.index() >= self.syncs.len() {
                    return Err(SimError::fault(tid, format!("stripe {id} out of range")));
                }
                Ok(id)
            }
        }
    }
}

/// The `SyncVar` for fork/join edges: the child thread id (Table 1).
pub fn thread_var(tid: ThreadId) -> SyncVar {
    SyncVar(tid.index() as u64)
}

/// The `SyncVar` for allocation-as-synchronization on a heap page (§4.3).
///
/// Tagged with the top bit so page variables can never collide with
/// address-based or thread-id-based `SyncVar`s.
pub fn alloc_page_var(page: u64) -> SyncVar {
    SyncVar(page | (1 << 63))
}

/// The pages overlapped by an allocation of `words` words at `base`.
pub fn pages_of(base: Addr, words: u64) -> std::ops::RangeInclusive<u64> {
    let first = base.page();
    let last = Addr(base.raw() + words * WORD_BYTES - 1).page();
    first..=last
}

#[cfg(test)]
mod tests {
    //! `Machine::run` keeps its runnable set across steps and runs each
    //! scheduler slice without a pick; these tests hold it to the loop it
    //! replaced, which rescans every thread and picks before every step,
    //! over every scheduler.

    use proptest::prelude::*;

    use super::*;
    use crate::builder::{FunctionBuilder, GlobalVar, ProgramBuilder};
    use crate::event::{NullObserver, RecordingObserver};
    use crate::ids::LocalSlot;
    use crate::lower::lower;
    use crate::sched::{
        ChunkedRandomScheduler, PctScheduler, RandomScheduler, RoundRobinScheduler,
    };

    /// Runs `prog` under both loops from identical scheduler states and
    /// requires the same events, summary or error. Returns the outcome.
    fn assert_same_as_oracle<S: Scheduler + Clone>(
        prog: &CompiledProgram,
        cfg: MachineConfig,
        sched: S,
    ) -> SimResult<RunSummary> {
        let mut fast_events = RecordingObserver::default();
        let fast = Machine::new(prog, cfg).run(&mut sched.clone(), &mut fast_events);
        let mut oracle_events = RecordingObserver::default();
        let oracle = Machine::new(prog, cfg).run_rescanning(&mut sched.clone(), &mut oracle_events);
        assert_eq!(fast, oracle);
        assert_eq!(fast_events.events, oracle_events.events);
        fast
    }

    /// Every scheduler, each from a state derived from `seed` and `quantum`.
    fn assert_all_schedulers(
        prog: &CompiledProgram,
        cfg: MachineConfig,
        seed: u64,
        quantum: u32,
    ) -> [SimResult<RunSummary>; 4] {
        [
            assert_same_as_oracle(prog, cfg, RandomScheduler::seeded(seed)),
            assert_same_as_oracle(prog, cfg, RoundRobinScheduler::new(quantum)),
            assert_same_as_oracle(prog, cfg, ChunkedRandomScheduler::seeded(seed, quantum)),
            assert_same_as_oracle(prog, cfg, PctScheduler::seeded(seed, 1 + quantum % 4, 300)),
        ]
    }

    #[derive(Debug, Clone)]
    enum GenOp {
        Access { write: bool, word: u64 },
        Locked(usize, Vec<GenOp>),
        Notify,
        Wait,
        Reset,
        SemAcquire,
        SemRelease,
        Barrier,
        Atomic,
        Compute(u32),
        Loop(u32, Vec<GenOp>),
        /// Calls the next helper down with `x + k`; a no-op in the deepest.
        Call(u64),
        /// `x = arg + k`.
        SetLocal(u64),
        /// `x += arg`, or `x += k`.
        AddLocal(Option<u64>),
        /// A read or write of this frame's stack word.
        Stack { write: bool, offset: u64 },
        /// Allocates `words`, accesses the block at a fixed offset
        /// (`Some`) or at `x mod words` (`None`), then frees it.
        Heap {
            words: u64,
            accesses: Vec<(bool, Option<u64>)>,
        },
    }

    #[derive(Debug, Clone)]
    struct GenProgram {
        workers: Vec<Vec<GenOp>>,
        /// Bodies of the helpers `h0 → h1 → h2`: `Call` in a worker or
        /// `main` enters `h0`, and in `hi` enters `hi+1`.
        helpers: [Vec<GenOp>; 3],
        main: Vec<GenOp>,
        /// `(worker, argument, joined)` per spawn from `main`.
        spawns: Vec<(usize, u64, bool)>,
        /// `(worker, position)` of a read through a non-pointer, a fault.
        fault_at: Option<(usize, usize)>,
        /// `(semaphore initial count, barrier parties)`.
        sync_shape: (u32, u32),
        step_limit: u64,
        max_threads: usize,
    }

    #[derive(Debug, Clone, Copy)]
    struct Objects {
        g: GlobalVar,
        mutexes: [SyncId; 2],
        event: SyncId,
        sem: SyncId,
        barrier: SyncId,
    }

    /// What a generated body refers to in its own function.
    #[derive(Debug, Clone, Copy)]
    struct Scope {
        /// The scratch local: `arg + 1` on entry.
        x: LocalSlot,
        /// The helper `Call` enters, if any.
        callee: Option<FuncId>,
    }

    fn arb_ops(depth: u32) -> BoxedStrategy<Vec<GenOp>> {
        let leaf = prop_oneof![
            4 => (any::<bool>(), 0u64..4).prop_map(|(write, word)| GenOp::Access { write, word }),
            1 => Just(GenOp::Notify),
            1 => Just(GenOp::Wait),
            1 => Just(GenOp::Reset),
            1 => Just(GenOp::SemAcquire),
            2 => Just(GenOp::SemRelease),
            1 => Just(GenOp::Barrier),
            1 => Just(GenOp::Atomic),
            1 => (1u32..20).prop_map(GenOp::Compute),
            2 => (0u64..8).prop_map(GenOp::Call),
            1 => (0u64..8).prop_map(GenOp::SetLocal),
            1 => prop_oneof![Just(None), (0u64..8).prop_map(Some)].prop_map(GenOp::AddLocal),
            2 => (any::<bool>(), 0u64..80).prop_map(|(write, offset)| GenOp::Stack { write, offset }),
            1 => (
                1u64..5,
                prop::collection::vec(
                    (any::<bool>(), prop_oneof![Just(None), (0u64..5).prop_map(Some)]),
                    1..4,
                ),
            )
                .prop_map(|(words, accesses)| GenOp::Heap { words, accesses }),
        ];
        if depth == 0 {
            return prop::collection::vec(leaf, 0..5).boxed();
        }
        prop::collection::vec(
            prop_oneof![
                5 => leaf,
                3 => (0usize..2, arb_ops(depth - 1)).prop_map(|(m, body)| GenOp::Locked(m, body)),
                1 => (0u32..4, arb_ops(depth - 1)).prop_map(|(n, body)| GenOp::Loop(n, body)),
            ],
            0..6,
        )
        .boxed()
    }

    fn arb_program() -> impl Strategy<Value = GenProgram> {
        let code = (
            prop::collection::vec(arb_ops(2), 1..4),
            (arb_ops(1), arb_ops(1), arb_ops(1)),
            arb_ops(1),
            prop::collection::vec((0usize..3, 1u64..16, any::<bool>()), 0..7),
        );
        let shape = (
            prop_oneof![7 => Just(None), 1 => (0usize..3, 0usize..6).prop_map(Some)],
            (0u32..3, 1u32..4),
            prop_oneof![3 => Just(1_000_000u64), 1 => 1u64..100],
            prop_oneof![3 => Just(64usize), 1 => 1usize..6],
        );
        (code, shape).prop_map(
            |((workers, helpers, main, spawns), (fault_at, sync_shape, step_limit, max_threads))| {
                GenProgram {
                    workers,
                    helpers: [helpers.0, helpers.1, helpers.2],
                    main,
                    spawns,
                    fault_at,
                    sync_shape,
                    step_limit,
                    max_threads,
                }
            },
        )
    }

    fn emit(f: &mut FunctionBuilder, ops: &[GenOp], o: Objects, sc: Scope) {
        for op in ops {
            match op {
                GenOp::Access { write: true, word } => {
                    f.write(o.g.at(*word));
                }
                GenOp::Access { write: false, word } => {
                    f.read(o.g.at(*word));
                }
                GenOp::Locked(m, body) => {
                    f.lock(o.mutexes[*m]);
                    emit(f, body, o, sc);
                    f.unlock(o.mutexes[*m]);
                }
                GenOp::Notify => {
                    f.notify(o.event);
                }
                GenOp::Wait => {
                    f.wait(o.event);
                }
                GenOp::Reset => {
                    f.reset(o.event);
                }
                GenOp::SemAcquire => {
                    f.sem_acquire(o.sem);
                }
                GenOp::SemRelease => {
                    f.sem_release(o.sem);
                }
                GenOp::Barrier => {
                    f.barrier_wait(o.barrier);
                }
                GenOp::Atomic => {
                    f.atomic_rmw(o.g.at(0));
                }
                GenOp::Compute(c) => {
                    f.compute(*c);
                }
                GenOp::Loop(n, body) => {
                    f.loop_(*n, |f| emit(f, body, o, sc));
                }
                GenOp::Call(k) => {
                    if let Some(callee) = sc.callee {
                        f.call_with(callee, Rvalue::LocalPlus(sc.x, *k));
                    }
                }
                GenOp::SetLocal(k) => {
                    let arg = f.arg();
                    f.set_local(sc.x, Rvalue::LocalPlus(arg, *k));
                }
                GenOp::AddLocal(k) => {
                    let val = k.map_or(Rvalue::Local(f.arg()), Rvalue::Const);
                    f.add_local(sc.x, val);
                }
                GenOp::Stack { write: true, offset } => {
                    f.write_stack(*offset);
                }
                GenOp::Stack { write: false, offset } => {
                    f.read_stack(*offset);
                }
                GenOp::Heap { words, accesses } => {
                    let p = f.alloc(*words);
                    for &(write, at) in accesses {
                        let addr = match at {
                            Some(k) => AddrExpr::Indirect {
                                base: p,
                                offset: k % words,
                            },
                            None => AddrExpr::IndirectIndexed {
                                base: p,
                                index: sc.x,
                                modulus: *words,
                            },
                        };
                        if write {
                            f.write(addr);
                        } else {
                            f.read(addr);
                        }
                    }
                    f.free(p);
                }
            }
        }
    }

    /// Defines a generated function: `x = arg + 1`, then `ops`, with a read
    /// through `x` as a pointer inserted at `fault_at`.
    fn define(
        b: &mut ProgramBuilder,
        id: FuncId,
        ops: &[GenOp],
        o: Objects,
        callee: Option<FuncId>,
        fault_at: Option<usize>,
    ) {
        b.define_function(id, 1, |f| {
            let x = f.local();
            let arg = f.arg();
            f.set_local(x, Rvalue::LocalPlus(arg, 1));
            let sc = Scope { x, callee };
            let at = fault_at.map_or(ops.len(), |i| i.min(ops.len()));
            emit(f, &ops[..at], o, sc);
            if fault_at.is_some() {
                f.read(AddrExpr::Indirect { base: x, offset: 0 });
            }
            emit(f, &ops[at..], o, sc);
        });
    }

    fn compile(p: &GenProgram) -> CompiledProgram {
        let mut b = ProgramBuilder::new();
        let o = Objects {
            g: b.global_array("g", 4),
            mutexes: [b.mutex("m0"), b.mutex("m1")],
            event: b.event("e"),
            sem: b.semaphore("s", p.sync_shape.0),
            barrier: b.barrier("bar", p.sync_shape.1),
        };
        let helpers: Vec<FuncId> = (0..p.helpers.len())
            .map(|i| b.declare_function(&format!("h{i}")))
            .collect();
        for (i, ops) in p.helpers.iter().enumerate() {
            define(&mut b, helpers[i], ops, o, helpers.get(i + 1).copied(), None);
        }
        let workers: Vec<FuncId> = p
            .workers
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let id = b.declare_function(&format!("w{i}"));
                let fault_at = p.fault_at.filter(|&(w, _)| w == i).map(|(_, at)| at);
                define(&mut b, id, ops, o, Some(helpers[0]), fault_at);
                id
            })
            .collect();
        let main = b.declare_function("main");
        b.define_function(main, 1, |f| {
            let x = f.local();
            let handles: Vec<_> = p
                .spawns
                .iter()
                .map(|&(w, arg, joined)| {
                    let worker = workers[w % workers.len()];
                    (f.spawn(worker, Rvalue::Const(arg)), joined)
                })
                .collect();
            let sc = Scope {
                x,
                callee: Some(helpers[0]),
            };
            emit(f, &p.main, o, sc);
            for (h, joined) in handles {
                if joined {
                    f.join(h);
                }
            }
        });
        b.set_entry(main);
        lower(&b.build().expect("generated programs validate"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Contended mutexes, events, semaphores, barriers, spawn/join,
        /// exits, calls three deep with locals and loops in every frame,
        /// stack accesses at every depth, heap blocks and faults, under
        /// quanta up to the pipeline's 64 and tight step and thread limits:
        /// running each slice without a pick, on the cached runnable set,
        /// schedules exactly as picking before every step on a fresh rescan.
        #[test]
        fn cached_runnable_set_matches_rescanning_oracle(
            p in arb_program(),
            seed: u64,
            quantum in 1u32..=64,
        ) {
            let cfg = MachineConfig {
                max_threads: p.max_threads,
                step_limit: p.step_limit,
                ..MachineConfig::default()
            };
            let _outcomes = assert_all_schedulers(&compile(&p), cfg, seed, quantum);
        }
    }

    /// Each terminal outcome is reached, identically, by both loops.
    #[test]
    fn oracle_agrees_on_every_terminal_outcome() {
        let ops = |write| {
            vec![
                GenOp::Locked(0, vec![GenOp::Access { write, word: 1 }]),
                GenOp::Call(2),
            ]
        };
        let base = GenProgram {
            workers: vec![ops(true), ops(false)],
            helpers: [
                vec![GenOp::Loop(2, vec![GenOp::Stack { write: true, offset: 0 }, GenOp::Call(1)])],
                vec![GenOp::Heap {
                    words: 3,
                    accesses: vec![(true, None), (false, Some(2))],
                }],
                vec![GenOp::AddLocal(None), GenOp::Stack { write: false, offset: 0 }],
            ],
            main: ops(true),
            spawns: vec![(0, 1, true), (1, 2, true), (0, 3, false)],
            fault_at: None,
            sync_shape: (0, 2),
            step_limit: 1_000_000,
            max_threads: 64,
        };
        let deadlock = GenProgram {
            workers: vec![vec![GenOp::Wait], vec![GenOp::SemAcquire]],
            ..base.clone()
        };
        let step_limit = GenProgram {
            step_limit: 10,
            ..base.clone()
        };
        let thread_limit = GenProgram {
            max_threads: 3,
            ..base.clone()
        };
        let fault = GenProgram {
            fault_at: Some((1, 1)),
            ..base.clone()
        };
        type Expected = fn(&SimResult<RunSummary>) -> bool;
        let cases: [(&GenProgram, Expected); 5] = [
            (&base, |r| r.is_ok()),
            (&deadlock, |r| matches!(r, Err(SimError::Deadlock { .. }))),
            (&step_limit, |r| {
                matches!(r, Err(SimError::StepLimitExceeded { .. }))
            }),
            (&thread_limit, |r| {
                matches!(r, Err(SimError::ThreadLimitExceeded { .. }))
            }),
            (&fault, |r| matches!(r, Err(SimError::Fault { .. }))),
        ];
        for (p, expected) in cases {
            let cfg = MachineConfig {
                max_threads: p.max_threads,
                step_limit: p.step_limit,
                ..MachineConfig::default()
            };
            for seed in 0..8 {
                for quantum in [1 + seed as u32, 64] {
                    for outcome in assert_all_schedulers(&compile(p), cfg, seed, quantum) {
                        assert!(expected(&outcome), "{p:?} seed {seed}: {outcome:?}");
                    }
                }
            }
        }
    }

    /// A wake makes the waiters runnable and empties their list in place:
    /// the buffer stays with the object for the next blockers.
    #[test]
    fn wakes_drain_waiters_in_place() {
        let p = GenProgram {
            workers: vec![vec![GenOp::Loop(
                20,
                vec![GenOp::Locked(0, vec![GenOp::Compute(1), GenOp::Compute(1)])],
            )]],
            helpers: [vec![], vec![], vec![]],
            main: vec![],
            spawns: vec![(0, 1, true), (0, 2, true), (0, 3, true)],
            fault_at: None,
            sync_shape: (0, 1),
            step_limit: 1_000_000,
            max_threads: 64,
        };
        let prog = compile(&p);
        let mut machine = Machine::new(&prog, MachineConfig::default());
        machine
            .run(&mut RoundRobinScheduler::new(2), &mut NullObserver)
            .expect("the workers finish");
        let mutex = &machine.syncs[0];
        assert!(mutex.waiters.is_empty());
        assert!(mutex.waiters.capacity() > 0, "no thread ever waited");
    }
}
