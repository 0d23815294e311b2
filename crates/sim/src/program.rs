//! Program representation and validation.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{SimError, SimResult};
use crate::ids::{FuncId, LocalSlot, SyncId};
use crate::machine::MAX_FRAMES;
use crate::op::{AddrExpr, Op, Rvalue, SyncRef};

/// The kind of a declared synchronization object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncKind {
    /// A mutual-exclusion lock.
    Mutex,
    /// A manual-reset event (wait/notify).
    Event,
    /// A counting semaphore with the given initial count.
    Semaphore {
        /// Initial count.
        initial: u32,
    },
    /// A cyclic barrier for the given number of parties.
    Barrier {
        /// Threads per rendezvous (must be non-zero).
        parties: u32,
    },
}

/// A declared synchronization object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncDecl {
    /// Human-readable name (for reports).
    pub name: String,
    /// Mutex or event.
    pub kind: SyncKind,
}

/// One function: a name, a number of local slots, and a structured body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Human-readable name (for reports).
    pub name: String,
    /// Number of local slots (slot 0 receives the call/spawn argument).
    pub locals: u16,
    /// Structured body.
    pub body: Vec<Op>,
}

/// A complete, validated program.
///
/// Build one with [`ProgramBuilder`](crate::ProgramBuilder); the builder's
/// `build` method validates and returns a `Program`. Programs are immutable
/// once built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    pub(crate) functions: Vec<Function>,
    pub(crate) syncs: Vec<SyncDecl>,
    pub(crate) global_words: u64,
    pub(crate) entry: FuncId,
}

impl Program {
    /// The program's functions, indexed by [`FuncId`].
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this program.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// The declared synchronization objects, indexed by [`SyncId`].
    pub fn syncs(&self) -> &[SyncDecl] {
        &self.syncs
    }

    /// Number of words of global (static) data.
    pub fn global_words(&self) -> u64 {
        self.global_words
    }

    /// The entry function executed by the main thread.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Looks up a function id by name (first match).
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }

    /// Validates internal consistency: every referenced function, sync
    /// object, local slot and global offset exists, stripes stay in range,
    /// the call graph is acyclic (the simulator has no recursion), and no
    /// call chain is deeper than one thread's stack region holds:
    /// [`STACK_BYTES_PER_THREAD`](crate::STACK_BYTES_PER_THREAD) /
    /// [`WORD_BYTES`](crate::WORD_BYTES) /
    /// [`FRAME_WORDS`](crate::FRAME_WORDS) = 2048 frames, so frames never
    /// alias another thread's stack.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] describing the first violation.
    pub fn validate(&self) -> SimResult<()> {
        if self.entry.index() >= self.functions.len() {
            return Err(SimError::invalid_program("entry function out of range"));
        }
        for (idx, f) in self.functions.iter().enumerate() {
            let id = FuncId::from_index(idx);
            self.validate_block(id, f, &f.body)?;
        }
        self.check_call_chains()?;
        Ok(())
    }

    fn validate_block(&self, id: FuncId, f: &Function, body: &[Op]) -> SimResult<()> {
        let ctx = |msg: String| SimError::InvalidProgram {
            reason: format!("function `{}` ({}): {msg}", f.name, id),
        };
        for op in body {
            match op {
                Op::Read(a) | Op::Write(a) | Op::AtomicRmw(a) => {
                    self.validate_addr(f, a).map_err(&ctx)?;
                }
                Op::Lock(s)
                | Op::Unlock(s)
                | Op::Wait(s)
                | Op::Notify(s)
                | Op::Reset(s)
                | Op::SemAcquire(s)
                | Op::SemRelease(s)
                | Op::BarrierWait(s) => {
                    self.validate_sync(f, op, s).map_err(&ctx)?;
                }
                Op::Alloc { words, dst } => {
                    if *words == 0 {
                        return Err(ctx("zero-sized allocation".into()));
                    }
                    self.validate_slot(f, *dst).map_err(&ctx)?;
                }
                Op::Free { src } => self.validate_slot(f, *src).map_err(&ctx)?,
                Op::Spawn { func, arg, dst } => {
                    self.validate_func(*func).map_err(&ctx)?;
                    self.validate_rvalue(f, arg).map_err(&ctx)?;
                    if let Some(dst) = dst {
                        self.validate_slot(f, *dst).map_err(&ctx)?;
                    }
                }
                Op::Join { src } => self.validate_slot(f, *src).map_err(&ctx)?,
                Op::Call { func, arg } => {
                    self.validate_func(*func).map_err(&ctx)?;
                    self.validate_rvalue(f, arg).map_err(&ctx)?;
                }
                Op::Compute { .. } => {}
                Op::SetLocal { dst, val } | Op::AddLocal { dst, val } => {
                    self.validate_slot(f, *dst).map_err(&ctx)?;
                    self.validate_rvalue(f, val).map_err(&ctx)?;
                }
                Op::Loop { body, .. } => self.validate_block(id, f, body)?,
            }
        }
        Ok(())
    }

    fn validate_func(&self, func: FuncId) -> Result<(), String> {
        if func.index() >= self.functions.len() {
            return Err(format!("call target {func} out of range"));
        }
        Ok(())
    }

    fn validate_slot(&self, f: &Function, slot: LocalSlot) -> Result<(), String> {
        if slot.index() >= f.locals as usize {
            return Err(format!("local slot {slot} out of range (<{})", f.locals));
        }
        Ok(())
    }

    fn validate_rvalue(&self, f: &Function, val: &Rvalue) -> Result<(), String> {
        match val {
            Rvalue::Const(_) => Ok(()),
            Rvalue::Local(slot) | Rvalue::LocalPlus(slot, _) => self.validate_slot(f, *slot),
        }
    }

    fn validate_addr(&self, f: &Function, addr: &AddrExpr) -> Result<(), String> {
        match addr {
            AddrExpr::Global { offset } => {
                if *offset >= self.global_words {
                    return Err(format!(
                        "global offset {offset} out of range (<{})",
                        self.global_words
                    ));
                }
                Ok(())
            }
            AddrExpr::Stack { .. } => Ok(()),
            AddrExpr::Indirect { base, .. } => self.validate_slot(f, *base),
            AddrExpr::IndirectIndexed {
                base,
                index,
                modulus,
            } => {
                if *modulus == 0 {
                    return Err("indexed access with zero modulus".into());
                }
                self.validate_slot(f, *base)?;
                self.validate_slot(f, *index)
            }
        }
    }

    fn validate_sync(&self, f: &Function, op: &Op, s: &SyncRef) -> Result<(), String> {
        let (id, span) = match s {
            SyncRef::Static(id) => (*id, 1),
            SyncRef::Striped { base, index, count } => {
                if *count == 0 {
                    return Err("striped sync with zero count".into());
                }
                self.validate_slot(f, *index)?;
                (*base, *count)
            }
        };
        let last = id.index() + span as usize;
        if last > self.syncs.len() {
            return Err(format!("sync object {id} (+{span}) out of range"));
        }
        let matches = |k: &SyncKind| match op {
            Op::Lock(_) | Op::Unlock(_) => matches!(k, SyncKind::Mutex),
            Op::Wait(_) | Op::Notify(_) | Op::Reset(_) => matches!(k, SyncKind::Event),
            Op::SemAcquire(_) | Op::SemRelease(_) => matches!(k, SyncKind::Semaphore { .. }),
            Op::BarrierWait(_) => matches!(k, SyncKind::Barrier { .. }),
            _ => true,
        };
        for i in id.index()..last {
            if !matches(&self.syncs[i].kind) {
                return Err(format!(
                    "sync object {} (`{}`) is a {:?}, which op {:?} cannot target",
                    SyncId::from_index(i),
                    self.syncs[i].name,
                    self.syncs[i].kind,
                    op,
                ));
            }
            if let SyncKind::Barrier { parties } = self.syncs[i].kind {
                if parties == 0 {
                    return Err(format!(
                        "barrier `{}` declared with zero parties",
                        self.syncs[i].name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Rejects call cycles, which the machine does not model, and call
    /// chains of more than [`MAX_FRAMES`] frames.
    fn check_call_chains(&self) -> SimResult<()> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        fn callees(body: &[Op], out: &mut Vec<FuncId>) {
            for op in body {
                match op {
                    Op::Call { func, .. } => out.push(*func),
                    Op::Loop { body, .. } => callees(body, out),
                    _ => {}
                }
            }
        }
        let mut marks = vec![Mark::White; self.functions.len()];
        // Frames in the longest chain starting at each finished function.
        let mut frames = vec![0u64; self.functions.len()];
        // Iterative DFS with an explicit stack to avoid recursion limits.
        for start in 0..self.functions.len() {
            if marks[start] != Mark::White {
                continue;
            }
            let mut stack: Vec<(usize, Vec<FuncId>, usize)> = Vec::new();
            let mut cs = Vec::new();
            callees(&self.functions[start].body, &mut cs);
            marks[start] = Mark::Grey;
            stack.push((start, cs, 0));
            while let Some((node, cs, next)) = stack.last_mut() {
                if *next >= cs.len() {
                    // Every callee has finished, so its chain is known.
                    let deepest = cs.iter().map(|c| frames[c.index()]).max();
                    frames[*node] = 1 + deepest.unwrap_or(0);
                    if frames[*node] > MAX_FRAMES {
                        return Err(SimError::invalid_program(format!(
                            "call chain of {} frames from function `{}` exceeds the \
                             {MAX_FRAMES} frames of a thread's stack",
                            frames[*node], self.functions[*node].name
                        )));
                    }
                    marks[*node] = Mark::Black;
                    stack.pop();
                    continue;
                }
                let child = cs[*next].index();
                *next += 1;
                match marks[child] {
                    Mark::Grey => {
                        return Err(SimError::invalid_program(format!(
                            "recursive call cycle through function `{}`",
                            self.functions[child].name
                        )))
                    }
                    Mark::White => {
                        marks[child] = Mark::Grey;
                        let mut ccs = Vec::new();
                        callees(&self.functions[child].body, &mut ccs);
                        stack.push((child, ccs, 0));
                    }
                    Mark::Black => {}
                }
            }
        }
        Ok(())
    }

    /// Returns a map from function name to id for every function, useful in
    /// tests and reports. Later declarations shadow earlier ones of the same
    /// name.
    pub fn name_table(&self) -> HashMap<&str, FuncId> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), FuncId::from_index(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    #[test]
    fn rejects_out_of_range_global() {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0, |f| {
            f.push(Op::Read(AddrExpr::Global { offset: 99 }));
        });
        b.entry_fn("main", |fb| {
            fb.call(f);
        });
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("global offset"), "{err}");
    }

    #[test]
    fn rejects_recursion() {
        let mut b = ProgramBuilder::new();
        let f = b.declare_function("f");
        b.define_function(f, 0, |fb| {
            fb.call(f);
        });
        b.entry_fn("main", |fb| {
            fb.call(f);
        });
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("recursive"), "{err}");
    }

    /// A chain of `frames` nested calls, the innermost writing the stack.
    fn call_chain(frames: u64) -> SimResult<Program> {
        let mut b = ProgramBuilder::new();
        let mut head = b.function("innermost", 0, |f| {
            f.write_stack(0);
        });
        for _ in 1..frames {
            let callee = head;
            head = b.function("link", 0, move |f| {
                f.call(callee);
            });
        }
        b.set_entry(head);
        b.build()
    }

    #[test]
    fn call_chains_are_bounded_by_the_stack_region() {
        assert_eq!(MAX_FRAMES, 2048);
        call_chain(MAX_FRAMES).expect("the deepest chain that fits");
        let err = call_chain(MAX_FRAMES + 1).unwrap_err();
        assert!(err.to_string().contains("call chain of 2049 frames"), "{err}");
    }

    #[test]
    fn rejects_kind_mismatch() {
        let mut b = ProgramBuilder::new();
        let m = b.mutex("m");
        b.entry_fn("main", |f| {
            f.push(Op::Wait(SyncRef::Static(m)));
        });
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("cannot target"), "{err}");
    }

    #[test]
    fn rejects_zero_alloc() {
        let mut b = ProgramBuilder::new();
        b.entry_fn("main", |f| {
            let p = f.local();
            f.push(Op::Alloc { words: 0, dst: p });
        });
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("zero-sized"), "{err}");
    }

    #[test]
    fn name_table_maps_every_function() {
        let mut b = ProgramBuilder::new();
        b.function("worker", 0, |f| {
            f.compute(1);
        });
        b.entry_fn("main", |f| {
            f.compute(1);
        });
        let p = b.build().unwrap();
        let t = p.name_table();
        assert_eq!(t.len(), 2);
        assert_eq!(p.function(t["worker"]).name, "worker");
    }

    #[test]
    fn validates_nested_loop_bodies() {
        let mut b = ProgramBuilder::new();
        b.entry_fn("main", |f| {
            f.loop_(3, |f| {
                f.loop_(2, |f| {
                    f.push(Op::Write(AddrExpr::Global { offset: 5 }));
                });
            });
        });
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("global offset"), "{err}");
    }
}
