//! Static ordering prefilter: proves data-access sites ordered before the
//! program ever runs.
//!
//! LiteRace pays a dispatch check per function entry and a logging cost per
//! sampled access — even for accesses that can never participate in a data
//! race. HardRace ("HardRace: A Dynamic Data Race Monitor for Production
//! Use") shows that a static pre-pass can discharge a large share of the
//! monitoring budget up front; this module is that pass for the sim IR. It
//! classifies each `(function, pc)` data-access site into one of three
//! *provably ordered* classes and emits a compact per-PC skip table
//! ([`PrefilterTable`]) that the instrumentation fast path consults with a
//! single bitset probe before any sampler call:
//!
//! 1. **Stack sites** — [`AddrExpr::Stack`] accesses land in the accessing
//!    thread's private stack window, so no other thread can touch the same
//!    address (conflicts require distinct threads).
//! 2. **Lock-dominated globals** — a global word whose *every* access site
//!    (program-wide) executes with some common mutex held. Mutual exclusion
//!    plus the always-logged lock/unlock records order all critical
//!    sections on that mutex, so the detector can never report the word.
//! 3. **Single-threaded phases** — sites reachable only while exactly one
//!    thread exists: before the first fork, after the last join, or in
//!    functions called exclusively from such program points (cold start-up
//!    libraries). Fork/ThreadStart/ThreadExit/Join sync records give
//!    happens-before edges covering every such access.
//!
//! # Soundness contract
//!
//! With `Always` sampling and default instrumentation (sync logging on),
//! the race report with the prefilter on is **byte-identical** to the
//! report with it off, on every program. The argument, class by class:
//!
//! * A skipped record never *creates* a conflict: stack records are only
//!   ever racy against forged cross-thread pointers (ruled out by the alias
//!   guard below), lock-dominated and phase records are happens-before
//!   ordered against every other access of their location.
//! * A skipped record never *hides* a conflict elsewhere: the lock class
//!   removes whole locations (the detector keeps independent per-location
//!   history), and stack/phase records are HB-covered at the moment any
//!   later access to the same location is processed, so their presence or
//!   absence leaves the detector's retained history identical. Capacity
//!   eviction cannot diverge either: that would need ~[`128`] concurrent
//!   unordered accessors of one location, impossible while single-threaded.
//!
//! The classes are guarded by conservative whole-program checks:
//!
//! * **Alias guard** (stack + lock classes): every indirect access must go
//!   through a local that provably holds a live heap-allocation base (a
//!   dataflow pass over the flat code), and a call-graph bound on total
//!   heap growth must keep every reachable heap address below
//!   [`STACK_BASE`](crate::STACK_BASE). Together these prove indirect
//!   accesses can never alias a global word or a stack window.
//! * **Depth guard** (stack class): the longest call chain must fit a
//!   thread's stack region, so one thread's frames can never spill into
//!   another's window. Recursion disables the class.
//!
//! Programs that fail a guard simply lose that class — the table degrades
//! to fewer skips, never to unsoundness. The equivalence suite
//! (`tests/prefilter_equivalence.rs`) pins the contract across every
//! workload and a random-program proptest.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::addr::{HEAP_BASE, STACK_BASE, WORD_BYTES};
use crate::ids::{FuncId, Pc};
use crate::lower::{CompiledProgram, Instr};
use crate::machine::MAX_FRAMES;
use crate::op::{AddrExpr, SyncRef};

/// A set of statically declared mutexes, by sync-object index.
type LockSet = BTreeSet<u32>;

/// Classification counters and guard outcomes from one prefilter build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefilterStats {
    /// Static data-access sites in the program.
    pub total_sites: usize,
    /// Sites skipped as thread-private stack accesses.
    pub stack_sites: usize,
    /// Sites skipped as consistently lock-dominated global accesses.
    pub lock_sites: usize,
    /// Sites skipped as single-threaded-phase accesses.
    pub phase_sites: usize,
    /// Total distinct sites skipped (classes may overlap).
    pub skipped_sites: usize,
    /// Functions whose every data-access site is skipped (their dispatch
    /// check is elided entirely — no instrumented copy needs to exist).
    pub fully_skipped_functions: usize,
    /// Functions in the program.
    pub total_functions: usize,
    /// Whether the stack class passed its guards (alias + call depth).
    pub stack_class_enabled: bool,
    /// Whether the lock class passed its guard (alias).
    pub lock_class_enabled: bool,
    /// Whether the phase class ran (entry never called or spawned).
    pub phase_class_enabled: bool,
}

impl PrefilterStats {
    /// Sites the sampler still has to consider.
    pub fn residual_sites(&self) -> usize {
        self.total_sites - self.skipped_sites
    }
}

/// The compact per-PC skip table consulted by the instrumentation fast
/// path. One bit per lowered instruction, indexed by
/// [`Pc`](crate::Pc)'s `(function, offset)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefilterTable {
    /// Per-function bitset over instruction offsets; bit set = provably
    /// ordered, skip the sampler and the log.
    bits: Vec<Vec<u64>>,
    /// Per-function flag: every data-access site is skipped, so the
    /// dispatch check itself can be elided.
    fully_skipped: Vec<bool>,
    stats: PrefilterStats,
}

impl PrefilterTable {
    /// Runs the static analysis over a lowered program.
    pub fn build(prog: &CompiledProgram) -> PrefilterTable {
        Analysis::new(prog).run()
    }

    /// Whether the access site at `pc` is provably ordered. A single
    /// bitset probe — no branches on the classification itself.
    #[inline]
    pub fn skips(&self, pc: Pc) -> bool {
        let f = pc.func().index();
        let o = pc.offset();
        self.bits
            .get(f)
            .and_then(|w| w.get(o >> 6))
            .is_some_and(|word| (word >> (o & 63)) & 1 == 1)
    }

    /// Whether every data-access site of `func` is skipped — the dispatch
    /// check for such functions is elided (models not cloning the function
    /// at instrumentation time).
    #[inline]
    pub fn fully_skips(&self, func: FuncId) -> bool {
        self.fully_skipped.get(func.index()).copied().unwrap_or(false)
    }

    /// Size of the skip table in bytes (bitsets + per-function flags).
    pub fn table_bytes(&self) -> usize {
        self.bits.iter().map(|w| w.len() * 8).sum::<usize>() + self.fully_skipped.len()
    }

    /// Classification counters and guard outcomes.
    pub fn stats(&self) -> &PrefilterStats {
        &self.stats
    }
}

/// Whole-program analysis state.
struct Analysis<'a> {
    prog: &'a CompiledProgram,
    n: usize,
    /// Functions that appear as a `Spawn` target.
    spawned: Vec<bool>,
    /// Transitively-may-spawn, over the call graph.
    may_spawn: Vec<bool>,
    /// Transitive set of mutexes each function may release.
    may_unlock: Vec<LockSet>,
    /// Call-graph edges: `callers[f]` = functions containing a call to `f`.
    callers: Vec<Vec<usize>>,
    bits: Vec<Vec<u64>>,
    stats: PrefilterStats,
}

impl<'a> Analysis<'a> {
    fn new(prog: &'a CompiledProgram) -> Analysis<'a> {
        let n = prog.functions.len();
        let mut spawned = vec![false; n];
        let mut callers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut direct_spawn = vec![false; n];
        let mut direct_unlock: Vec<LockSet> = vec![LockSet::new(); n];
        for (fi, f) in prog.functions.iter().enumerate() {
            for instr in &f.code {
                match instr {
                    Instr::Spawn { func, .. } => {
                        spawned[func.index()] = true;
                        direct_spawn[fi] = true;
                    }
                    Instr::Call { func, .. } => {
                        callers[func.index()].insert(fi);
                    }
                    Instr::Unlock(SyncRef::Static(s)) => {
                        direct_unlock[fi].insert(s.index() as u32);
                    }
                    Instr::Unlock(SyncRef::Striped { base, count, .. }) => {
                        for k in 0..*count {
                            direct_unlock[fi].insert(base.index() as u32 + k);
                        }
                    }
                    _ => {}
                }
            }
        }
        // Transitive closures over the call graph (monotone; iterate to a
        // fixpoint — call graphs are tiny).
        let mut may_spawn = direct_spawn;
        let mut may_unlock = direct_unlock;
        loop {
            let mut changed = false;
            for (fi, f) in prog.functions.iter().enumerate() {
                for instr in &f.code {
                    if let Instr::Call { func, .. } = instr {
                        let ci = func.index();
                        if may_spawn[ci] && !may_spawn[fi] {
                            may_spawn[fi] = true;
                            changed = true;
                        }
                        if !may_unlock[ci].is_subset(&may_unlock[fi]) {
                            let extra: Vec<u32> = may_unlock[ci].iter().copied().collect();
                            may_unlock[fi].extend(extra);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let bits = prog
            .functions
            .iter()
            .map(|f| vec![0u64; f.code.len().div_ceil(64)])
            .collect();
        Analysis {
            prog,
            n,
            spawned,
            may_spawn,
            may_unlock,
            callers: callers.into_iter().map(|s| s.into_iter().collect()).collect(),
            bits,
            stats: PrefilterStats {
                total_sites: prog.total_data_access_sites(),
                total_functions: n,
                ..PrefilterStats::default()
            },
        }
    }

    fn mark(&mut self, fi: usize, offset: usize) -> bool {
        let word = &mut self.bits[fi][offset >> 6];
        let bit = 1u64 << (offset & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn run(mut self) -> PrefilterTable {
        let alias_ok = self.alias_guard();
        let depth_ok = self.depth_guard();
        self.stats.stack_class_enabled = alias_ok && depth_ok;
        self.stats.lock_class_enabled = alias_ok;
        if self.stats.stack_class_enabled {
            self.mark_stack_sites();
        }
        if self.stats.lock_class_enabled {
            self.mark_lock_dominated();
        }
        self.mark_single_threaded_phases();
        let skipped: usize = self
            .bits
            .iter()
            .map(|w| w.iter().map(|x| x.count_ones() as usize).sum::<usize>())
            .sum();
        self.stats.skipped_sites = skipped;
        let fully_skipped: Vec<bool> = (0..self.n)
            .map(|fi| {
                self.prog.functions[fi]
                    .code
                    .iter()
                    .enumerate()
                    .all(|(i, instr)| {
                        !instr.is_data_access() || self.bits[fi][i >> 6] >> (i & 63) & 1 == 1
                    })
            })
            .collect();
        self.stats.fully_skipped_functions = fully_skipped.iter().filter(|b| **b).count();
        PrefilterTable {
            bits: self.bits,
            fully_skipped,
            stats: self.stats,
        }
    }

    /// Alias guard: proves that no indirect access can touch a global word
    /// or a stack window. Two parts: (1) a per-function dataflow pass
    /// showing every indirect base is a live heap-allocation pointer at the
    /// access, and (2) a call-graph bound on total heap growth keeping
    /// every reachable heap address (plus the largest static displacement)
    /// below the stack region.
    fn alias_guard(&self) -> bool {
        let mut has_indirect = false;
        let mut max_disp_words: u64 = 0;
        for f in &self.prog.functions {
            for instr in &f.code {
                if let Instr::Read(a) | Instr::Write(a) = instr {
                    match a {
                        AddrExpr::Indirect { offset, .. } => {
                            has_indirect = true;
                            max_disp_words = max_disp_words.max(*offset);
                        }
                        AddrExpr::IndirectIndexed { modulus, .. } => {
                            has_indirect = true;
                            max_disp_words = max_disp_words.max(*modulus);
                        }
                        _ => {}
                    }
                }
            }
        }
        if !has_indirect {
            return true;
        }
        for f in &self.prog.functions {
            let mut ok = true;
            let entry = vec![false; f.locals as usize];
            alloc_walk(&f.code, 0, f.code.len(), entry, &mut ok);
            if !ok {
                return false;
            }
        }
        let Some(total_alloc_words) = self.heap_growth_bound() else {
            return false;
        };
        let heap_top = (HEAP_BASE as u128)
            .saturating_add(total_alloc_words.saturating_mul(WORD_BYTES as u128))
            .saturating_add(max_disp_words as u128 * WORD_BYTES as u128);
        heap_top < STACK_BASE as u128
    }

    /// A conservative bound on total words the heap can ever hand out:
    /// per-function execution counts propagated through the call/spawn
    /// graph with static loop multipliers. Returns `None` when the graph
    /// is cyclic (recursion — unbounded).
    fn heap_growth_bound(&self) -> Option<u128> {
        // out_edges[f] = (callee-or-spawnee, loop multiplier at the site);
        // alloc_per_exec[f] = words allocated per execution of f.
        let mut out_edges: Vec<Vec<(usize, u128)>> = vec![Vec::new(); self.n];
        let mut alloc_per_exec: Vec<u128> = vec![0; self.n];
        for (fi, f) in self.prog.functions.iter().enumerate() {
            walk_mults(&f.code, |_, instr, mult| match instr {
                Instr::Call { func, .. } | Instr::Spawn { func, .. } => {
                    out_edges[fi].push((func.index(), mult));
                }
                Instr::Alloc { words, .. } => {
                    alloc_per_exec[fi] =
                        alloc_per_exec[fi].saturating_add((*words as u128).saturating_mul(mult));
                }
                _ => {}
            });
        }
        let mut exec: Vec<u128> = vec![0; self.n];
        exec[self.prog.entry.index()] = 1;
        // Relax for |functions| rounds; one more changing round = cycle.
        for round in 0..=self.n {
            let mut next: Vec<u128> = vec![0; self.n];
            next[self.prog.entry.index()] = 1;
            for fi in 0..self.n {
                for &(callee, mult) in &out_edges[fi] {
                    next[callee] =
                        next[callee].saturating_add(exec[fi].saturating_mul(mult));
                }
            }
            if next == exec {
                break;
            }
            if round == self.n {
                return None;
            }
            exec = next;
        }
        let mut total: u128 = 0;
        for fi in 0..self.n {
            total = total.saturating_add(exec[fi].saturating_mul(alloc_per_exec[fi]));
        }
        Some(total)
    }

    /// Depth guard for the stack class: the longest call chain must fit in
    /// one thread's stack region. Recursion (a call-graph cycle) fails.
    fn depth_guard(&self) -> bool {
        let mut depth: Vec<Option<u64>> = vec![None; self.n];
        let mut on_stack = vec![false; self.n];
        for f in 0..self.n {
            if longest_chain(self.prog, f, &mut depth, &mut on_stack).is_none() {
                return false;
            }
        }
        depth
            .iter()
            .all(|d| d.expect("computed for every function") <= MAX_FRAMES)
    }

    fn mark_stack_sites(&mut self) {
        for fi in 0..self.n {
            for i in 0..self.prog.functions[fi].code.len() {
                if let Instr::Read(AddrExpr::Stack { .. })
                | Instr::Write(AddrExpr::Stack { .. }) = self.prog.functions[fi].code[i]
                {
                    if self.mark(fi, i) {
                        self.stats.stack_sites += 1;
                    }
                }
            }
        }
    }

    /// Lock-dominated globals: computes, for every global access site, the
    /// set of mutexes provably held at that site (interprocedurally — a
    /// callee inherits the intersection of its call sites' held sets, and
    /// calls give up any mutex the callee may release). A global word all
    /// of whose sites share a common mutex is removed wholesale.
    fn mark_lock_dominated(&mut self) {
        let all_locks: LockSet = self
            .prog
            .functions
            .iter()
            .flat_map(|f| f.code.iter())
            .filter_map(|instr| match instr {
                Instr::Lock(SyncRef::Static(s)) => Some(vec![s.index() as u32]),
                Instr::Lock(SyncRef::Striped { base, count, .. }) => {
                    Some((0..*count).map(|k| base.index() as u32 + k).collect())
                }
                _ => None,
            })
            .flatten()
            .collect();
        if all_locks.is_empty() {
            return;
        }
        // Interprocedural fixpoint on function-entry held sets, starting
        // optimistic (everything held) and narrowing. Entry and spawned
        // functions start with nothing held; a spawned thread inherits no
        // locks from its parent.
        let mut entry_locks: Vec<LockSet> = (0..self.n)
            .map(|fi| {
                if fi == self.prog.entry.index() || self.spawned[fi] {
                    LockSet::new()
                } else {
                    all_locks.clone()
                }
            })
            .collect();
        loop {
            let mut callee_entry: Vec<Option<LockSet>> = vec![None; self.n];
            for (fi, f) in self.prog.functions.iter().enumerate() {
                lock_walk(
                    &f.code,
                    0,
                    f.code.len(),
                    entry_locks[fi].clone(),
                    &self.may_unlock,
                    &mut |_, instr, held| {
                        if let Instr::Call { func, .. } = instr {
                            let slot = &mut callee_entry[func.index()];
                            *slot = Some(match slot.take() {
                                None => held.clone(),
                                Some(prev) => prev.intersection(held).copied().collect(),
                            });
                        }
                    },
                );
            }
            let mut changed = false;
            for fi in 0..self.n {
                if fi == self.prog.entry.index() || self.spawned[fi] {
                    continue;
                }
                let new = callee_entry[fi].take().unwrap_or_else(|| all_locks.clone());
                if new != entry_locks[fi] {
                    entry_locks[fi] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Per-global-offset: collect every site and intersect held sets.
        type OffsetSites = (LockSet, Vec<(usize, usize)>, bool);
        let mut per_offset: BTreeMap<u64, OffsetSites> = BTreeMap::new();
        for (fi, f) in self.prog.functions.iter().enumerate() {
            lock_walk(
                &f.code,
                0,
                f.code.len(),
                entry_locks[fi].clone(),
                &self.may_unlock,
                &mut |i, instr, held| {
                    if let Instr::Read(AddrExpr::Global { offset })
                    | Instr::Write(AddrExpr::Global { offset }) = instr
                    {
                        let e = per_offset
                            .entry(*offset)
                            .or_insert_with(|| (all_locks.clone(), Vec::new(), true));
                        e.0 = e.0.intersection(held).copied().collect();
                        e.1.push((fi, i));
                        e.2 &= !held.is_empty();
                    }
                },
            );
        }
        for (_, (common, sites, _)) in per_offset {
            if common.is_empty() {
                continue;
            }
            for (fi, i) in sites {
                if self.mark(fi, i) {
                    self.stats.lock_sites += 1;
                }
            }
        }
    }

    /// Single-threaded phases: walks the entry function tracking the set
    /// of outstanding (spawned, not yet joined) thread handles, marking
    /// accesses made while none exist. Functions *called only* from such
    /// points (and unable to spawn) are marked wholesale — this is what
    /// skips cold start-up libraries entirely.
    fn mark_single_threaded_phases(&mut self) {
        let entry = self.prog.entry.index();
        // A called or spawned entry would run concurrently with itself;
        // nothing would be provably single-threaded.
        if self.spawned[entry] || !self.callers[entry].is_empty() {
            return;
        }
        self.stats.phase_class_enabled = true;
        let mut entry_call_single = vec![true; self.n];
        let code = &self.prog.functions[entry].code;
        let mut outstanding: BTreeSet<u16> = BTreeSet::new();
        let mut poisoned = false;
        let mut marks: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < code.len() {
            if let Instr::LoopHead { trips, exit } = code[i] {
                if trips == 0 {
                    i = exit;
                    continue;
                }
                let body = (i + 1, exit - 1);
                if region_disturbs(code, body, &outstanding, &self.may_spawn) {
                    // Conservatively give up from here on; still record
                    // that calls inside lose their single-threaded context.
                    for instr in &code[body.0..body.1] {
                        if let Instr::Call { func, .. } = instr {
                            entry_call_single[func.index()] = false;
                        }
                    }
                    poisoned = true;
                } else {
                    let single = !poisoned && outstanding.is_empty();
                    for (j, instr) in code.iter().enumerate().take(body.1).skip(body.0) {
                        match instr {
                            Instr::Read(_) | Instr::Write(_) if single => marks.push(j),
                            Instr::Call { func, .. } => {
                                entry_call_single[func.index()] &= single;
                            }
                            _ => {}
                        }
                    }
                }
                i = exit;
                continue;
            }
            let single = !poisoned && outstanding.is_empty();
            match &code[i] {
                Instr::Read(_) | Instr::Write(_) if single => marks.push(i),
                Instr::Spawn { func, dst, .. } => match dst {
                    Some(d) if !self.may_spawn[func.index()] && !outstanding.contains(&d.0) => {
                        outstanding.insert(d.0);
                    }
                    _ => poisoned = true,
                },
                Instr::Join { src } => {
                    poisoned |= !outstanding.remove(&src.0);
                }
                Instr::SetLocal { dst, .. }
                | Instr::AddLocal { dst, .. }
                | Instr::Alloc { dst, .. } => {
                    poisoned |= outstanding.contains(&dst.0);
                }
                Instr::Call { func, .. } => {
                    entry_call_single[func.index()] &= single;
                    if self.may_spawn[func.index()] {
                        poisoned = true;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        for i in marks {
            if self.mark(entry, i) {
                self.stats.phase_sites += 1;
            }
        }
        // Functions reachable only from single-threaded points: start from
        // every candidate and narrow until each surviving function's
        // non-entry callers all survive too.
        let mut in_set: Vec<bool> = (0..self.n)
            .map(|fi| {
                fi != entry
                    && !self.spawned[fi]
                    && !self.may_spawn[fi]
                    && entry_call_single[fi]
            })
            .collect();
        loop {
            let mut changed = false;
            for fi in 0..self.n {
                if !in_set[fi] {
                    continue;
                }
                let bad = self.callers[fi]
                    .iter()
                    .any(|&c| c != entry && !in_set[c]);
                if bad {
                    in_set[fi] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for fi in (0..self.n).filter(|&fi| in_set[fi]) {
            for i in 0..self.prog.functions[fi].code.len() {
                if self.prog.functions[fi].code[i].is_data_access() && self.mark(fi, i) {
                    self.stats.phase_sites += 1;
                }
            }
        }
    }
}

/// Whether executing `range` of `code` could change the thread population
/// or corrupt a tracked handle slot.
fn region_disturbs(
    code: &[Instr],
    (start, end): (usize, usize),
    outstanding: &BTreeSet<u16>,
    may_spawn: &[bool],
) -> bool {
    code[start..end].iter().any(|instr| match instr {
        Instr::Spawn { .. } | Instr::Join { .. } => true,
        Instr::Call { func, .. } => may_spawn[func.index()],
        Instr::SetLocal { dst, .. } | Instr::AddLocal { dst, .. } | Instr::Alloc { dst, .. } => {
            outstanding.contains(&dst.0)
        }
        _ => false,
    })
}

/// Longest call chain (in frames) rooted at `f`; `None` on recursion.
fn longest_chain(
    prog: &CompiledProgram,
    f: usize,
    depth: &mut Vec<Option<u64>>,
    on_stack: &mut Vec<bool>,
) -> Option<u64> {
    if let Some(d) = depth[f] {
        return Some(d);
    }
    if on_stack[f] {
        return None;
    }
    on_stack[f] = true;
    let mut best: u64 = 1;
    for instr in &prog.functions[f].code {
        if let Instr::Call { func, .. } = instr {
            best = best.max(1 + longest_chain(prog, func.index(), depth, on_stack)?);
        }
    }
    on_stack[f] = false;
    depth[f] = Some(best);
    Some(best)
}

/// Abstract interpretation of held-mutex sets over a flat code range.
/// `visit` sees every non-loop instruction with the set held *before* its
/// effect. Loop bodies run to a fixpoint on the entry set (meet =
/// intersection), then a final visiting pass classifies the body.
fn lock_walk(
    code: &[Instr],
    start: usize,
    end: usize,
    mut held: LockSet,
    may_unlock: &[LockSet],
    visit: &mut dyn FnMut(usize, &Instr, &LockSet),
) -> LockSet {
    let mut i = start;
    while i < end {
        if let Instr::LoopHead { trips, exit } = code[i] {
            if trips == 0 {
                i = exit;
                continue;
            }
            let body_end = exit - 1; // the LoopBack slot
            let mut entry = held;
            loop {
                let out = lock_walk(code, i + 1, body_end, entry.clone(), may_unlock, &mut |_,
                       _,
                       _| {});
                let met: LockSet = entry.intersection(&out).copied().collect();
                if met == entry {
                    break;
                }
                entry = met;
            }
            held = lock_walk(code, i + 1, body_end, entry, may_unlock, visit);
            i = exit;
            continue;
        }
        visit(i, &code[i], &held);
        match &code[i] {
            Instr::Lock(SyncRef::Static(s)) => {
                held.insert(s.index() as u32);
            }
            Instr::Unlock(SyncRef::Static(s)) => {
                held.remove(&(s.index() as u32));
            }
            Instr::Unlock(SyncRef::Striped { base, count, .. }) => {
                for k in 0..*count {
                    held.remove(&(base.index() as u32 + k));
                }
            }
            Instr::Call { func, .. } => {
                for s in &may_unlock[func.index()] {
                    held.remove(s);
                }
            }
            _ => {}
        }
        i += 1;
    }
    held
}

/// Dataflow pass proving every indirect base holds a heap-allocation
/// pointer at the access. `state[slot]` = "definitely alloc-derived";
/// `Alloc` establishes it, any other write to the slot kills it, and an
/// indirect access through a dead slot clears `ok`.
fn alloc_walk(
    code: &[Instr],
    start: usize,
    end: usize,
    mut state: Vec<bool>,
    ok: &mut bool,
) -> Vec<bool> {
    let mut i = start;
    while i < end {
        if let Instr::LoopHead { trips, exit } = code[i] {
            if trips == 0 {
                i = exit;
                continue;
            }
            let body_end = exit - 1;
            let mut entry = state;
            loop {
                let mut scratch = true;
                let out = alloc_walk(code, i + 1, body_end, entry.clone(), &mut scratch);
                let met: Vec<bool> =
                    entry.iter().zip(&out).map(|(a, b)| *a && *b).collect();
                if met == entry {
                    break;
                }
                entry = met;
            }
            state = alloc_walk(code, i + 1, body_end, entry, ok);
            i = exit;
            continue;
        }
        let slot_ok = |state: &[bool], s: u16| state.get(s as usize).copied().unwrap_or(false);
        match &code[i] {
            Instr::Read(a) | Instr::Write(a) => match a {
                AddrExpr::Indirect { base, .. } | AddrExpr::IndirectIndexed { base, .. }
                    if !slot_ok(&state, base.0) =>
                {
                    *ok = false;
                }
                _ => {}
            },
            Instr::Alloc { dst, .. } => {
                let idx = dst.0 as usize;
                if idx >= state.len() {
                    state.resize(idx + 1, false);
                }
                state[idx] = true;
            }
            Instr::SetLocal { dst, .. } | Instr::AddLocal { dst, .. } => {
                if let Some(s) = state.get_mut(dst.0 as usize) {
                    *s = false;
                }
            }
            Instr::Spawn { dst: Some(d), .. } => {
                if let Some(s) = state.get_mut(d.0 as usize) {
                    *s = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    state
}

/// Linear walk delivering each non-loop instruction with the product of
/// its enclosing static loop trip counts (saturating).
fn walk_mults(code: &[Instr], mut visit: impl FnMut(usize, &Instr, u128)) {
    let mut mult: u128 = 1;
    let mut stack: Vec<u128> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        match code[i] {
            Instr::LoopHead { trips, exit } => {
                if trips == 0 {
                    i = exit;
                    continue;
                }
                stack.push(mult);
                mult = mult.saturating_mul(trips as u128);
                i += 1;
            }
            Instr::LoopBack { .. } => {
                mult = stack.pop().expect("balanced loop structure");
                i += 1;
            }
            ref instr => {
                visit(i, instr, mult);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::{AddrExpr, ProgramBuilder, Rvalue};

    fn table(build: impl FnOnce(&mut ProgramBuilder)) -> PrefilterTable {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        PrefilterTable::build(&lower(&b.build().unwrap()))
    }

    fn site_pcs(prog: &CompiledProgram, fi: usize) -> Vec<Pc> {
        prog.functions[fi]
            .code
            .iter()
            .enumerate()
            .filter(|(_, instr)| instr.is_data_access())
            .map(|(i, _)| Pc::new(FuncId::from_index(fi), i))
            .collect()
    }

    #[test]
    fn stack_sites_are_skipped() {
        let t = table(|b| {
            b.entry_fn("main", |f| {
                f.read_stack(0);
                f.write_stack(1);
            });
        });
        assert_eq!(t.stats().stack_sites, 2);
        assert_eq!(t.stats().skipped_sites, 2);
        assert!(t.stats().stack_class_enabled);
        assert!(t.fully_skips(FuncId::from_index(0)));
    }

    #[test]
    fn consistently_locked_global_is_skipped_inconsistent_is_not() {
        let mut b = ProgramBuilder::new();
        let locked = b.global_word("locked");
        let bare = b.global_word("bare");
        let m = b.mutex("m");
        let w = b.function("w", 0, move |f| {
            f.lock(m);
            f.read(locked);
            f.write(locked);
            f.unlock(m);
            f.write(bare);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let prog = lower(&b.build().unwrap());
        let t = PrefilterTable::build(&prog);
        assert_eq!(t.stats().lock_sites, 2);
        let sites = site_pcs(&prog, 0);
        assert_eq!(sites.len(), 3);
        assert!(t.skips(sites[0]), "locked read");
        assert!(t.skips(sites[1]), "locked write");
        assert!(!t.skips(sites[2]), "unprotected write");
        assert!(!t.fully_skips(FuncId::from_index(0)));
    }

    #[test]
    fn global_with_one_unlocked_site_anywhere_is_not_skipped() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let m = b.mutex("m");
        let locked = b.function("locked", 0, move |f| {
            f.lock(m);
            f.write(g);
            f.unlock(m);
        });
        let bare = b.function("bare", 0, move |f| {
            f.write(g);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(locked, Rvalue::Const(0));
            let t2 = f.spawn(bare, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let t = PrefilterTable::build(&lower(&b.build().unwrap()));
        assert_eq!(t.stats().lock_sites, 0);
    }

    #[test]
    fn lock_held_across_call_protects_callee_sites() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let m = b.mutex("m");
        let inner = b.function("inner", 0, move |f| {
            f.write(g);
        });
        let outer = b.function("outer", 0, move |f| {
            f.lock(m);
            f.call(inner);
            f.unlock(m);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(outer, Rvalue::Const(0));
            let t2 = f.spawn(outer, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let prog = lower(&b.build().unwrap());
        let t = PrefilterTable::build(&prog);
        assert_eq!(t.stats().lock_sites, 1);
        assert!(t.fully_skips(FuncId::from_index(0)), "inner is protected");
    }

    #[test]
    fn callee_that_unlocks_breaks_protection_after_the_call() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let m = b.mutex("m");
        let unlocker = b.function("unlocker", 0, move |f| {
            f.unlock(m);
        });
        let w = b.function("w", 0, move |f| {
            f.lock(m);
            f.call(unlocker);
            f.write(g);
            f.lock(m);
            f.unlock(m);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let t = PrefilterTable::build(&lower(&b.build().unwrap()));
        assert_eq!(t.stats().lock_sites, 0, "write after callee released m");
    }

    #[test]
    fn striped_locks_are_conservatively_unprotected() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let stripes = b.mutex_stripes("stripe", 4);
        let w = b.function("w", 1, move |f| {
            f.lock_striped(stripes, crate::LocalSlot(0), 4);
            f.write(g);
            f.unlock_striped(stripes, crate::LocalSlot(0), 4);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(1));
            f.join(t1);
            f.join(t2);
        });
        let t = PrefilterTable::build(&lower(&b.build().unwrap()));
        assert_eq!(t.stats().lock_sites, 0);
    }

    #[test]
    fn pre_fork_and_post_join_accesses_are_skipped() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let w = b.function("w", 0, move |f| {
            f.write(g);
        });
        b.entry_fn("main", move |f| {
            f.write(g); // pre-fork: skippable
            let t1 = f.spawn(w, Rvalue::Const(0));
            f.write(g); // concurrent: not skippable
            f.join(t1);
            f.read(g); // post-join: skippable
        });
        let prog = lower(&b.build().unwrap());
        let t = PrefilterTable::build(&prog);
        assert!(t.stats().phase_class_enabled);
        assert_eq!(t.stats().phase_sites, 2);
        let main = prog.entry.index();
        let sites = site_pcs(&prog, main);
        assert!(t.skips(sites[0]));
        assert!(!t.skips(sites[1]));
        assert!(t.skips(sites[2]));
        // w itself runs concurrently with main: not skippable.
        assert_eq!(t.stats().skipped_sites, 2);
    }

    #[test]
    fn cold_startup_library_called_pre_fork_is_fully_skipped() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let init = b.function("init", 0, move |f| {
            f.loop_(50, |f| {
                f.write(g);
                f.read(g);
            });
        });
        let w = b.function("w", 0, move |f| {
            f.write(g);
        });
        b.entry_fn("main", move |f| {
            f.call(init);
            let t1 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
        });
        let prog = lower(&b.build().unwrap());
        let t = PrefilterTable::build(&prog);
        assert_eq!(t.stats().phase_sites, 2);
        assert!(t.fully_skips(FuncId::from_index(0)), "init only runs pre-fork");
        assert!(!t.fully_skips(FuncId::from_index(1)));
    }

    #[test]
    fn function_called_both_pre_fork_and_concurrently_is_not_skipped() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let helper = b.function("helper", 0, move |f| {
            f.write(g);
        });
        let w = b.function("w", 0, move |f| {
            f.call(helper);
        });
        b.entry_fn("main", move |f| {
            f.call(helper); // single-threaded call site…
            let t1 = f.spawn(w, Rvalue::Const(0)); // …but w also calls it
            f.join(t1);
        });
        let t = PrefilterTable::build(&lower(&b.build().unwrap()));
        assert_eq!(t.stats().phase_sites, 0);
    }

    #[test]
    fn spawn_inside_loop_poisons_the_phase_analysis() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let w = b.function("w", 0, move |f| {
            f.write(g);
        });
        b.entry_fn("main", move |f| {
            f.write(g); // pre-fork: still skippable
            f.loop_(3, |f| {
                let t = f.spawn(w, Rvalue::Const(0));
                f.join(t);
            });
            f.write(g); // after a spawning loop: conservatively kept
        });
        let t = PrefilterTable::build(&lower(&b.build().unwrap()));
        assert_eq!(t.stats().phase_sites, 1);
    }

    #[test]
    fn alloc_derived_indirection_keeps_the_alias_guard() {
        let t = table(|b| {
            let g = b.global_word("g");
            b.entry_fn("main", move |f| {
                let p = f.alloc(8);
                f.write(AddrExpr::Indirect { base: p, offset: 3 });
                f.write(g);
                f.free(p);
            });
        });
        assert!(t.stats().stack_class_enabled);
        assert!(t.stats().lock_class_enabled);
        // All of main is single-threaded, so everything is skipped.
        assert_eq!(t.stats().phase_sites, 2);
    }

    #[test]
    fn forged_pointer_disables_stack_and_lock_classes() {
        let mut b = ProgramBuilder::new();
        let g = b.global_word("g");
        let m = b.mutex("m");
        let w = b.function("w", 1, move |f| {
            f.set_local(crate::LocalSlot(0), Rvalue::Const(crate::GLOBAL_BASE));
            f.write(AddrExpr::Indirect {
                base: crate::LocalSlot(0),
                offset: 0,
            });
            f.lock(m);
            f.write(g);
            f.unlock(m);
            f.write_stack(0);
        });
        b.entry_fn("main", move |f| {
            let t1 = f.spawn(w, Rvalue::Const(0));
            let t2 = f.spawn(w, Rvalue::Const(0));
            f.join(t1);
            f.join(t2);
        });
        let t = PrefilterTable::build(&lower(&b.build().unwrap()));
        assert!(!t.stats().stack_class_enabled);
        assert!(!t.stats().lock_class_enabled);
        assert_eq!(t.stats().stack_sites + t.stats().lock_sites, 0);
    }

    #[test]
    fn unknown_pcs_are_never_skipped() {
        let t = table(|b| {
            b.entry_fn("main", |f| {
                f.write_stack(0);
            });
        });
        assert!(!t.skips(Pc::new(FuncId::from_index(9), 3)));
        assert!(!t.skips(Pc::new(FuncId::from_index(0), 1 << 20)));
        assert!(!t.fully_skips(FuncId::from_index(9)));
    }

    #[test]
    fn table_bytes_is_small_and_nonzero() {
        let t = table(|b| {
            let g = b.global_word("g");
            b.entry_fn("main", move |f| {
                f.loop_(100, |f| {
                    f.write(g);
                });
            });
        });
        assert!(t.table_bytes() > 0);
        assert!(t.table_bytes() < 64, "one tiny function: {}", t.table_bytes());
    }

    #[test]
    fn stats_residual_accounting_adds_up() {
        let t = table(|b| {
            let g = b.global_word("g");
            b.entry_fn("main", move |f| {
                f.write(g);
                f.write_stack(0);
            });
        });
        let s = *t.stats();
        assert_eq!(s.total_sites, 2);
        assert_eq!(s.skipped_sites + s.residual_sites(), s.total_sites);
    }

    #[test]
    fn building_twice_is_deterministic() {
        let build = || {
            table(|b| {
                let g = b.global_word("g");
                let m = b.mutex("m");
                let w = b.function("w", 0, move |f| {
                    f.lock(m);
                    f.write(g);
                    f.unlock(m);
                    f.write_stack(0);
                });
                b.entry_fn("main", move |f| {
                    let t1 = f.spawn(w, Rvalue::Const(0));
                    f.join(t1);
                });
            })
        };
        assert_eq!(build(), build());
    }
}
