//! The automatic transformations: PIR loop nests → executable parallel
//! plans over the real runtime crates.
//!
//! * [`DomorePlan`] — the DOMORE transformation of §3.3: validate the nest,
//!   run the scheduler/worker partitioner, extract the `computeAddr` slice,
//!   and produce a plan whose execution drives
//!   [`crossinvoc_domore::DomoreRuntime`] with the interpreter as the
//!   kernel. This is the generated code of Fig. 3.7, with the structured IR
//!   playing the role of MTCG's block-level output (rules 2–3 of §3.3.2 —
//!   block creation and branch-target repair — are no-ops on structured
//!   code; rule 4's value communication becomes the per-invocation
//!   environment snapshot).
//! * [`SpecCrossPlan`] — the SPECCROSS transformation of §4.3/Alg. 5:
//!   detect a region of consecutive parallelizable invocations, verify each
//!   inner loop is barrier-free parallel, mark the speculative accesses,
//!   and produce a plan whose execution drives
//!   [`crossinvoc_speccross::SpecCrossEngine`].
//!
//! Both plans execute the *entire* program (sequential prefix, parallel
//! region, sequential suffix) and are validated in tests against sequential
//! interpretation.

use std::collections::HashSet;
use std::fmt;

use parking_lot::Mutex;

use crossinvoc_domore::prelude::*;
use crossinvoc_domore::runtime::{DomoreConfig, DomoreError, DomoreRuntime, ExecutionReport};
use crossinvoc_runtime::pool::{RegionExecutor, ScopedExecutor};
use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_runtime::spin_for;
use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine, SpecError, SpecReport};
use crossinvoc_speccross::profile::ProfileReport;
use crossinvoc_speccross::workload::{AccessRecorder, SpecWorkload};

use crate::analysis::collect_accesses;
use crate::elide::ElisionPlan;
use crate::interp::{Env, Interp, Memory, TraceEvent};
use crate::ir::{ArrayId, Expr, Program, Stmt, StmtId};
use crate::pdg::Pdg;
use crate::scc::Partition;
use crate::slice::{compute_addr_slice, AddrSlice, AddrTarget, SliceError};
use crate::techniques::{classify_loop, Technique};

/// Why a transformation could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The designated statement is not a `For` loop.
    NotALoop(StmtId),
    /// The inner loop is not the final statement of the outer loop's body
    /// (sequential code *after* the parallel invocation would race with
    /// overlapped iterations).
    UnsupportedShape,
    /// `computeAddr` extraction failed (§3.3.4's abort conditions).
    Slice(SliceError),
    /// The partitioner pulled inner-loop body statements to the scheduler:
    /// the body participates in a cycle with the sequential code (the
    /// Fig. 4.1 pathology) and DOMORE cannot pipeline it.
    InnerBodyOnScheduler(StmtId),
    /// The outer loop's sequential code conflicts with worker memory, so
    /// overlapping it with trailing invocations would race.
    PrologueConflictsWithWorkers(ArrayId),
    /// An inner loop of the SPECCROSS region is not barrier-free parallel.
    InnerNotParallelizable(StmtId),
    /// A statement between the region's parallel loops is not a pure scalar
    /// assignment and cannot be privatized/replicated (§4.3).
    RegionPrologueNotPure(StmtId),
    /// The region contains no parallel loops.
    EmptyRegion,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotALoop(s) => write!(f, "statement #{} is not a loop", s.0),
            TransformError::UnsupportedShape => {
                write!(f, "inner loop must be the last statement of the outer body")
            }
            TransformError::Slice(e) => write!(f, "computeAddr extraction failed: {e}"),
            TransformError::InnerBodyOnScheduler(s) => write!(
                f,
                "inner-loop statement #{} is forced onto the scheduler",
                s.0
            ),
            TransformError::PrologueConflictsWithWorkers(a) => write!(
                f,
                "sequential code and workers both touch array #{} with a write",
                a.0
            ),
            TransformError::InnerNotParallelizable(s) => {
                write!(f, "inner loop #{} carries dependences", s.0)
            }
            TransformError::RegionPrologueNotPure(s) => write!(
                f,
                "statement #{} between parallel loops is not a pure scalar assignment",
                s.0
            ),
            TransformError::EmptyRegion => write!(f, "region contains no parallel loops"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<SliceError> for TransformError {
    fn from(e: SliceError) -> Self {
        TransformError::Slice(e)
    }
}

fn arrays_written(program: &Program, roots: &[StmtId]) -> HashSet<ArrayId> {
    collect_accesses(program, roots)
        .into_iter()
        .filter(|a| a.kind == crossinvoc_runtime::signature::AccessKind::Write)
        .map(|a| a.array)
        .collect()
}

fn arrays_touched(program: &Program, roots: &[StmtId]) -> HashSet<ArrayId> {
    collect_accesses(program, roots)
        .into_iter()
        .map(|a| a.array)
        .collect()
}

/// Splits the top-level body around a statement: `(prefix, suffix)`.
fn split_body(program: &Program, pivot: StmtId) -> (Vec<StmtId>, Vec<StmtId>) {
    let mut prefix = Vec::new();
    let mut suffix = Vec::new();
    let mut seen = false;
    for &s in program.body() {
        if s == pivot {
            seen = true;
        } else if seen {
            suffix.push(s);
        } else {
            prefix.push(s);
        }
    }
    (prefix, suffix)
}

// ---------------------------------------------------------------------------
// DOMORE
// ---------------------------------------------------------------------------

/// A validated DOMORE parallelization of one loop nest.
#[derive(Debug)]
pub struct DomorePlan<'p> {
    program: &'p Program,
    outer: StmtId,
    inner: StmtId,
    /// Outer-body statements before the inner loop (the sequential
    /// prologue, scheduler-side).
    prologue: Vec<StmtId>,
    /// The `computeAddr` slice.
    slice: AddrSlice,
    /// The §3.3.1 partition (kept for inspection; the plan requires the
    /// whole inner body on the worker side).
    partition: Partition,
}

/// Per-invocation context captured by the scheduler's prologue.
#[derive(Debug, Clone)]
struct InvCtx {
    env: Env,
    from: i64,
    to: i64,
}

impl<'p> DomorePlan<'p> {
    /// Builds the DOMORE plan for the nest `outer`/`inner` of `program`.
    ///
    /// `outer` must be a top-level `For`; `inner` must be the final
    /// statement of its body and itself a `For`.
    ///
    /// # Errors
    ///
    /// Any of the [`TransformError`] conditions: malformed nest, partition
    /// pulling the body onto the scheduler, `computeAddr` abort, or a
    /// prologue/worker memory conflict.
    pub fn build(
        program: &'p Program,
        outer: StmtId,
        inner: StmtId,
    ) -> Result<DomorePlan<'p>, TransformError> {
        let Stmt::For {
            body: outer_body, ..
        } = program.stmt(outer)
        else {
            return Err(TransformError::NotALoop(outer));
        };
        let Stmt::For {
            body: inner_body, ..
        } = program.stmt(inner)
        else {
            return Err(TransformError::NotALoop(inner));
        };
        if outer_body.last() != Some(&inner) {
            return Err(TransformError::UnsupportedShape);
        }
        let prologue: Vec<StmtId> = outer_body[..outer_body.len() - 1].to_vec();
        // §3.3.1: the partition must leave the entire inner body on the
        // worker side, or the nest cannot be pipelined.
        let pdg = Pdg::build(program, outer);
        let partition = Partition::scheduler_worker(program, &pdg, inner);
        for &s in &program.subtrees(inner_body) {
            if partition.scheduler.contains(&s) {
                return Err(TransformError::InnerBodyOnScheduler(s));
            }
        }
        // §3.3.4: extract computeAddr.
        let region_writes = arrays_written(program, &program.subtree(outer));
        let slice = compute_addr_slice(program, inner, &region_writes)?;
        // Overlap soundness: the sequential prologue of invocation k+1 runs
        // while workers still execute invocation k, so the two must not
        // conflict on any array.
        let worker_touched = arrays_touched(program, inner_body);
        let worker_written = arrays_written(program, inner_body);
        let prologue_touched = arrays_touched(program, &prologue);
        let prologue_written = arrays_written(program, &prologue);
        for &a in &prologue_written {
            if worker_touched.contains(&a) {
                return Err(TransformError::PrologueConflictsWithWorkers(a));
            }
        }
        for &a in &worker_written {
            if prologue_touched.contains(&a) {
                return Err(TransformError::PrologueConflictsWithWorkers(a));
            }
        }
        Ok(DomorePlan {
            program,
            outer,
            inner,
            prologue,
            slice,
            partition,
        })
    }

    /// The extracted `computeAddr` slice.
    pub fn slice(&self) -> &AddrSlice {
        &self.slice
    }

    /// The sequential prologue statements (outer-loop body before the inner
    /// loop), scheduler-side.
    pub fn prologue_stmts(&self) -> &[StmtId] {
        &self.prologue
    }

    /// The inner loop's body statement sequence (worker-side).
    pub fn inner_body(&self) -> &[StmtId] {
        match self.program.stmt(self.inner) {
            Stmt::For { body, .. } => body,
            _ => unreachable!("validated at build time"),
        }
    }

    /// The inner loop's induction variable.
    pub fn inner_iv(&self) -> crate::ir::VarId {
        match self.program.stmt(self.inner) {
            Stmt::For { var, .. } => *var,
            _ => unreachable!("validated at build time"),
        }
    }

    /// The §3.3.1 scheduler/worker partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Executes the whole program — sequential prefix, the nest under the
    /// threaded DOMORE runtime with `workers` workers, sequential suffix.
    ///
    /// # Errors
    ///
    /// Propagates [`DomoreError`] from the runtime (zero workers).
    pub fn execute(
        &self,
        mem: &mut Memory,
        workers: usize,
    ) -> Result<ExecutionReport, DomoreError> {
        self.execute_with(mem, DomoreConfig::with_workers(workers))
    }

    /// Like [`DomorePlan::execute`], but under a caller-supplied runtime
    /// configuration (fault plans, watchdog, schedule memoization toggle —
    /// the knobs the differential fuzzer sweeps).
    ///
    /// # Errors
    ///
    /// Propagates [`DomoreError`] from the runtime.
    pub fn execute_with(
        &self,
        mem: &mut Memory,
        config: DomoreConfig,
    ) -> Result<ExecutionReport, DomoreError> {
        self.execute_with_on(mem, config, &ScopedExecutor)
    }

    /// Like [`DomorePlan::execute_with`], but running the worker gang on a
    /// caller-supplied executor — a shared
    /// [`crossinvoc_runtime::pool::WorkerPool`] when many regions run
    /// concurrently in region-server mode.
    ///
    /// # Errors
    ///
    /// Propagates [`DomoreError`] from the runtime.
    pub fn execute_with_on(
        &self,
        mem: &mut Memory,
        config: DomoreConfig,
        exec: &dyn RegionExecutor,
    ) -> Result<ExecutionReport, DomoreError> {
        let interp = Interp::new(self.program);
        let mut env = vec![0; self.program.vars().len()];
        let (prefix, suffix) = split_body(self.program, self.outer);
        // SAFETY: exclusive &mut Memory; single-threaded here.
        unsafe { interp.exec_stmts(&prefix, &mut env, mem, &mut None) };

        let Stmt::For {
            var: outer_iv,
            from,
            to,
            ..
        } = self.program.stmt(self.outer)
        else {
            unreachable!("validated at build time");
        };
        let outer_from = interp.eval(from, &env);
        let outer_to = interp.eval(to, &env);
        let num_inv = (outer_to - outer_from).max(0) as usize;

        let adapter = DomoreAdapter {
            plan: self,
            interp,
            mem: &*mem,
            outer_iv: outer_iv.0,
            outer_from,
            num_inv,
            sched_env: Mutex::new(env.clone()),
            inv_ctx: (0..num_inv).map(|_| Mutex::new(None)).collect(),
        };
        let report = DomoreRuntime::new(config).execute_on(&adapter, exec)?;

        // Suffix: the outer IV holds its final value, as after a real loop.
        let mut env = adapter.sched_env.into_inner();
        env[outer_iv.0] = outer_to.max(outer_from);
        // SAFETY: all workers joined inside `execute`; exclusive again.
        unsafe { interp.exec_stmts(&suffix, &mut env, mem, &mut None) };
        Ok(report)
    }

    /// Runs the program sequentially (the validation baseline).
    pub fn execute_sequential(&self, mem: &mut Memory) {
        Interp::new(self.program).run(mem);
    }
}

/// Adapts a [`DomorePlan`] to the DOMORE runtime's workload contract.
struct DomoreAdapter<'a, 'p> {
    plan: &'a DomorePlan<'p>,
    interp: Interp<'p>,
    mem: &'a Memory,
    outer_iv: usize,
    outer_from: i64,
    num_inv: usize,
    /// Scheduler-side persistent environment (scheduler thread only).
    sched_env: Mutex<Env>,
    /// Per-invocation context published by `prologue`, consumed by workers
    /// (the value communication of MTCG rule 4).
    inv_ctx: Vec<Mutex<Option<InvCtx>>>,
}

impl<'a, 'p> DomoreAdapter<'a, 'p> {
    fn inner_parts(&self) -> (usize, &'p [StmtId], &'p Expr, &'p Expr) {
        let Stmt::For {
            var,
            from,
            to,
            body,
        } = self.plan.program.stmt(self.plan.inner)
        else {
            unreachable!("validated at build time");
        };
        (var.0, body, from, to)
    }

    fn ctx(&self, inv: usize) -> InvCtx {
        self.inv_ctx[inv]
            .lock()
            .clone()
            .expect("runtime dispatches iterations only after the invocation's prologue")
    }
}

impl DomoreWorkload for DomoreAdapter<'_, '_> {
    fn num_invocations(&self) -> usize {
        self.num_inv
    }

    fn prologue(&self, inv: usize) {
        let (_, _, from, to) = self.inner_parts();
        let mut env = self.sched_env.lock();
        env[self.outer_iv] = self.outer_from + inv as i64;
        // SAFETY: prologue arrays are disjoint from worker arrays
        // (validated at build), so racing trailing invocations is safe.
        unsafe {
            self.interp
                .exec_stmts(&self.plan.prologue, &mut env, self.mem, &mut None)
        };
        let lo = self.interp.eval(from, &env);
        let hi = self.interp.eval(to, &env);
        *self.inv_ctx[inv].lock() = Some(InvCtx {
            env: env.clone(),
            from: lo,
            to: hi,
        });
    }

    fn num_iterations(&self, inv: usize) -> usize {
        let ctx = self.ctx(inv);
        (ctx.to - ctx.from).max(0) as usize
    }

    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
        let (inner_iv, _, _, _) = self.inner_parts();
        let mut ctx = self.ctx(inv);
        ctx.env[inner_iv] = ctx.from + iter as i64;
        // SAFETY: the slice is pure and reads only region-read-only arrays
        // (enforced by `compute_addr_slice`).
        unsafe {
            self.interp
                .exec_stmts(&self.plan.slice.stmts, &mut ctx.env, self.mem, &mut None)
        };
        let program = self.plan.program;
        for target in &self.plan.slice.targets {
            match target {
                AddrTarget::Element { array, index } => {
                    let idx = self.interp.eval(index, &ctx.env);
                    if idx >= 0 && (idx as usize) < program.arrays()[array.0].len {
                        out.push(program.array_base(*array) + idx as usize);
                    }
                }
                AddrTarget::CallElement { array, selector } => {
                    let len = program.arrays()[array.0].len as i64;
                    let sel = selector
                        .as_ref()
                        .map_or(0, |s| self.interp.eval(s, &ctx.env));
                    out.push(program.array_base(*array) + sel.rem_euclid(len.max(1)) as usize);
                }
            }
        }
    }

    fn execute_iteration(&self, inv: usize, iter: usize, _tid: usize) {
        let (inner_iv, body, _, _) = self.inner_parts();
        let mut ctx = self.ctx(inv);
        ctx.env[inner_iv] = ctx.from + iter as i64;
        // SAFETY: the DOMORE runtime orders every pair of iterations whose
        // `touched_addrs` sets intersect; `touched_addrs` covers all the
        // body's shared accesses (slice targets are a superset).
        unsafe {
            self.interp
                .exec_stmts(body, &mut ctx.env, self.mem, &mut None)
        };
    }

    fn prologue_is_replicable(&self) -> bool {
        self.plan.prologue.is_empty()
    }

    fn address_space(&self) -> Option<usize> {
        Some(self.plan.program.memory_len())
    }
}

// ---------------------------------------------------------------------------
// SPECCROSS
// ---------------------------------------------------------------------------

/// A validated SPECCROSS parallelization of a region of consecutive
/// parallel loop invocations (the code regions of Fig. 4.5).
#[derive(Debug)]
pub struct SpecCrossPlan<'p> {
    program: &'p Program,
    outer: StmtId,
    /// The region schedule: for each outer iteration, these items run in
    /// order. Scalar assignments accumulate into the epoch environment;
    /// each loop is one epoch.
    items: Vec<RegionItem>,
    /// Inner loops (epoch sources), in body order.
    loops: Vec<StmtId>,
    /// Arrays whose accesses must be reported to the speculation engine
    /// (written somewhere in the region).
    watched: HashSet<ArrayId>,
    /// Per-loop static conflict-freedom verdicts (the `pir::elide`
    /// analysis), threaded into the engine as a proven-epoch mask.
    elision: ElisionPlan,
    /// Busy work added to every engine task, in nanoseconds.
    grain_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegionItem {
    Scalar(StmtId),
    Loop(StmtId),
}

impl<'p> SpecCrossPlan<'p> {
    /// Builds the SPECCROSS plan for the top-level outer loop `outer`,
    /// whose body must consist of parallelizable `For` loops optionally
    /// separated by pure scalar assignments (§4.3's candidate test).
    ///
    /// # Errors
    ///
    /// * [`TransformError::InnerNotParallelizable`] if any inner loop
    ///   carries intra-invocation dependences.
    /// * [`TransformError::RegionPrologueNotPure`] if inter-loop code is
    ///   not a scalar assignment.
    /// * [`TransformError::EmptyRegion`] if there is no inner loop.
    pub fn build(program: &'p Program, outer: StmtId) -> Result<SpecCrossPlan<'p>, TransformError> {
        let Stmt::For {
            body: outer_body, ..
        } = program.stmt(outer)
        else {
            return Err(TransformError::NotALoop(outer));
        };
        let mut items = Vec::new();
        let mut loops = Vec::new();
        for &s in outer_body {
            match program.stmt(s) {
                Stmt::For { .. } => {
                    // Each inner loop must be barrier-free parallel
                    // within one invocation (DOALL after classification).
                    let pdg = Pdg::build(program, s);
                    let applicability = classify_loop(program, &pdg);
                    if applicability.best() != Technique::Doall {
                        return Err(TransformError::InnerNotParallelizable(s));
                    }
                    items.push(RegionItem::Loop(s));
                    loops.push(s);
                }
                Stmt::Assign { .. } => items.push(RegionItem::Scalar(s)),
                _ => return Err(TransformError::RegionPrologueNotPure(s)),
            }
        }
        if loops.is_empty() {
            return Err(TransformError::EmptyRegion);
        }
        let watched = arrays_written(program, &program.subtree(outer));
        let Stmt::For { var: outer_iv, .. } = program.stmt(outer) else {
            unreachable!("validated above");
        };
        let elision = crate::elide::analyze(program, &items, &loops, &watched, *outer_iv);
        Ok(SpecCrossPlan {
            program,
            outer,
            items,
            loops,
            watched,
            elision,
            grain_ns: 0,
        })
    }

    /// Adds `ns` of busy work to every task the engine runs (0, the
    /// default, adds none). The differential fuzzer gives a share of its
    /// cases this grain, so that their SPECCROSS passes run wide: a pass
    /// widens only when its tasks are long enough to pay for the
    /// cross-core traffic (`speccross::engine::WIDE_CHUNK_NS`).
    pub fn task_grain(mut self, ns: u64) -> Self {
        self.grain_ns = ns;
        self
    }

    /// The inner loops forming the region's epochs (per outer iteration).
    pub fn epoch_loops(&self) -> &[StmtId] {
        &self.loops
    }

    /// Arrays whose accesses are instrumented (`spec_access` insertion,
    /// Alg. 5).
    pub fn watched_arrays(&self) -> &HashSet<ArrayId> {
        &self.watched
    }

    /// The static conflict-freedom analysis of the region's loops: which
    /// accesses (and whole loops) are proven disjoint across all compared
    /// task pairs. The engine consults this — gated by
    /// [`SpecConfig::elide`] — to skip signature generation and checker
    /// admission for proven epochs.
    pub fn elision(&self) -> &ElisionPlan {
        &self.elision
    }

    /// Profiles the region's minimum cross-epoch dependence distance
    /// (§4.4). `mem` should hold the training input; profiling executes
    /// the program's prefix and the whole region once.
    pub fn profile(&self, mem: &mut Memory, window_epochs: u32) -> ProfileReport {
        let (base_env, _) = self.run_prefix(mem);
        let adapter = self.make_adapter(&*mem, base_env);
        SpecCrossEngine::<RangeSignature>::profile(&adapter, window_epochs)
    }

    /// Executes the whole program: sequential prefix, the region under the
    /// SPECCROSS engine, sequential suffix.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from the engine.
    pub fn execute(&self, mem: &mut Memory, config: SpecConfig) -> Result<SpecReport, SpecError> {
        self.execute_sig::<RangeSignature>(mem, config)
    }

    /// Like [`SpecCrossPlan::execute`], but with a caller-chosen access
    /// signature type (e.g. `BloomSignature`, whose false positives the
    /// differential fuzzer must tolerate without state divergence).
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from the engine.
    pub fn execute_sig<S: AccessSignature>(
        &self,
        mem: &mut Memory,
        config: SpecConfig,
    ) -> Result<SpecReport, SpecError> {
        self.execute_sig_on::<S>(mem, config, &ScopedExecutor)
    }

    /// Like [`SpecCrossPlan::execute_sig`], but running the region's gangs
    /// on a caller-supplied executor — a shared
    /// [`crossinvoc_runtime::pool::WorkerPool`] when many regions run
    /// concurrently in region-server mode.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from the engine.
    pub fn execute_sig_on<S: AccessSignature>(
        &self,
        mem: &mut Memory,
        config: SpecConfig,
        exec: &dyn RegionExecutor,
    ) -> Result<SpecReport, SpecError> {
        let (base_env, mut exit_env) = self.run_prefix(mem);
        let report = {
            let adapter = self.make_adapter(&*mem, base_env);
            SpecCrossEngine::<S>::new(config).execute_on(&adapter, exec)?
        };
        let (_, suffix) = split_body(self.program, self.outer);
        // SAFETY: the engine joined all workers; this thread is exclusive.
        unsafe { Interp::new(self.program).exec_stmts(&suffix, &mut exit_env, mem, &mut None) };
        Ok(report)
    }

    /// Executes the whole program with the region under *non-speculative*
    /// barriers — the conventional plan the thesis compares against.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from the engine.
    pub fn execute_with_barriers(
        &self,
        mem: &mut Memory,
        config: SpecConfig,
    ) -> Result<SpecReport, SpecError> {
        self.execute_with_barriers_on(mem, config, &ScopedExecutor)
    }

    /// Like [`SpecCrossPlan::execute_with_barriers`], but running the worker
    /// gang on a caller-supplied executor (see
    /// [`SpecCrossPlan::execute_sig_on`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from the engine.
    pub fn execute_with_barriers_on(
        &self,
        mem: &mut Memory,
        config: SpecConfig,
        exec: &dyn RegionExecutor,
    ) -> Result<SpecReport, SpecError> {
        let (base_env, mut exit_env) = self.run_prefix(mem);
        let report = {
            let adapter = self.make_adapter(&*mem, base_env);
            SpecCrossEngine::<RangeSignature>::new(config)
                .execute_with_barriers_on(&adapter, exec)?
        };
        let (_, suffix) = split_body(self.program, self.outer);
        // SAFETY: the engine joined all workers; this thread is exclusive.
        unsafe { Interp::new(self.program).exec_stmts(&suffix, &mut exit_env, mem, &mut None) };
        Ok(report)
    }

    /// Executes the prefix and region *sequentially* (epoch-major, task
    /// order — exactly program order), capturing the instrumented accesses
    /// each task reports, per epoch. The suffix is not run; pass a scratch
    /// memory. This is the state-capture hook the differential fuzzer uses
    /// to replay a region through the deterministic simulators.
    pub fn record_region(&self, mem: &mut Memory) -> Vec<Vec<Vec<(usize, AccessKind)>>> {
        let (base_env, _) = self.run_prefix(mem);
        let adapter = self.make_adapter(&*mem, base_env);
        let mut epochs = Vec::with_capacity(adapter.num_epochs());
        for epoch in 0..adapter.num_epochs() {
            let mut tasks = Vec::with_capacity(adapter.num_tasks(epoch));
            for task in 0..adapter.num_tasks(epoch) {
                let mut rec = CollectRecorder::default();
                adapter.execute_task(epoch, task, 0, &mut rec);
                tasks.push(rec.0);
            }
            epochs.push(tasks);
        }
        epochs
    }

    /// Runs the program sequentially (the validation baseline).
    pub fn execute_sequential(&self, mem: &mut Memory) {
        Interp::new(self.program).run(mem);
    }

    /// Runs the sequential prefix; returns the environment at region entry
    /// and the environment for the program suffix.
    fn run_prefix(&self, mem: &mut Memory) -> (Env, Env) {
        let interp = Interp::new(self.program);
        let mut env = vec![0; self.program.vars().len()];
        let (prefix, _) = split_body(self.program, self.outer);
        // SAFETY: exclusive &mut Memory.
        unsafe { interp.exec_stmts(&prefix, &mut env, mem, &mut None) };
        let Stmt::For {
            var: outer_iv,
            from,
            to,
            ..
        } = self.program.stmt(self.outer)
        else {
            unreachable!("validated at build time");
        };
        let outer_from = interp.eval(from, &env);
        let outer_to = interp.eval(to, &env);
        let mut exit_env = env.clone();
        exit_env[outer_iv.0] = outer_to.max(outer_from);
        (env, exit_env)
    }

    fn make_adapter<'a>(&'a self, mem: &'a Memory, base_env: Env) -> SpecAdapter<'a, 'p> {
        let Stmt::For {
            var: outer_iv,
            from,
            to,
            ..
        } = self.program.stmt(self.outer)
        else {
            unreachable!("validated at build time");
        };
        let interp = Interp::new(self.program);
        let outer_from = interp.eval(from, &base_env);
        let outer_to = interp.eval(to, &base_env);
        SpecAdapter {
            plan: self,
            interp,
            mem,
            base_env,
            outer_iv: outer_iv.0,
            outer_from,
            num_outer: (outer_to - outer_from).max(0) as usize,
            proven: self.elision.proven_mask(),
        }
    }
}

/// Collects reported accesses verbatim (the `record_region` sink).
#[derive(Default)]
struct CollectRecorder(Vec<(usize, AccessKind)>);

impl AccessRecorder for CollectRecorder {
    fn record(&mut self, addr: usize, kind: AccessKind) {
        self.0.push((addr, kind));
    }
}

/// Adapts a [`SpecCrossPlan`] to the SPECCROSS engine's workload contract.
struct SpecAdapter<'a, 'p> {
    plan: &'a SpecCrossPlan<'p>,
    interp: Interp<'p>,
    mem: &'a Memory,
    base_env: Env,
    outer_iv: usize,
    outer_from: i64,
    num_outer: usize,
    /// Per-ordinal proven mask from the elision analysis.
    proven: Vec<bool>,
}

impl<'a, 'p> SpecAdapter<'a, 'p> {
    /// Environment at the entry of epoch `epoch`: the outer IV plus all
    /// scalar assignments preceding the epoch's loop in the body —
    /// recomputed deterministically, which is the "privatize and
    /// duplicate" of §4.3.
    fn epoch_env(&self, epoch: usize) -> (Env, StmtId) {
        let per_outer = self.plan.loops.len();
        let outer_iter = epoch / per_outer;
        let loop_ordinal = epoch % per_outer;
        let mut env = self.base_env.clone();
        env[self.outer_iv] = self.outer_from + outer_iter as i64;
        let mut seen_loops = 0;
        for item in &self.plan.items {
            match item {
                RegionItem::Scalar(s) => {
                    // Pure scalar assignment: no memory access possible.
                    // SAFETY: no memory is touched.
                    unsafe {
                        self.interp.exec_stmts(
                            std::slice::from_ref(s),
                            &mut env,
                            self.mem,
                            &mut None,
                        )
                    };
                }
                RegionItem::Loop(l) => {
                    if seen_loops == loop_ordinal {
                        return (env, *l);
                    }
                    seen_loops += 1;
                }
            }
        }
        unreachable!("epoch ordinal within region");
    }
}

impl SpecWorkload for SpecAdapter<'_, '_> {
    type State = Vec<i64>;

    fn num_epochs(&self) -> usize {
        self.num_outer * self.plan.loops.len()
    }

    fn num_tasks(&self, epoch: usize) -> usize {
        let (env, l) = self.epoch_env(epoch);
        let Stmt::For { from, to, .. } = self.plan.program.stmt(l) else {
            unreachable!("epoch sources are loops");
        };
        (self.interp.eval(to, &env) - self.interp.eval(from, &env)).max(0) as usize
    }

    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        _tid: usize,
        recorder: &mut dyn AccessRecorder,
    ) {
        let (mut env, l) = self.epoch_env(epoch);
        let Stmt::For {
            var, from, body, ..
        } = self.plan.program.stmt(l)
        else {
            unreachable!("epoch sources are loops");
        };
        let lo = self.interp.eval(from, &env);
        env[var.0] = lo + task as i64;
        let program = self.plan.program;
        let watched = &self.plan.watched;
        let mut sink = |e: TraceEvent| {
            // Alg. 5: only accesses to region-written arrays participate in
            // cross-invocation dependences.
            let array_of = |addr: usize| {
                watched.iter().any(|&a| {
                    let base = program.array_base(a);
                    addr >= base && addr < base + program.arrays()[a.0].len
                })
            };
            if array_of(e.addr) {
                recorder.record(e.addr, e.kind);
            }
        };
        let mut sink: Option<&mut dyn FnMut(TraceEvent)> = Some(&mut sink);
        // SAFETY: same-epoch tasks are independent (DOALL-verified at
        // build); cross-epoch conflicts are detected and rolled back by the
        // engine, which re-executes from a quiesced checkpoint.
        unsafe { self.interp.exec_stmts(body, &mut env, self.mem, &mut sink) };
        spin_for(self.plan.grain_ns);
    }

    fn snapshot(&self) -> Vec<i64> {
        // SAFETY: the engine calls this only at quiesced rendezvous.
        unsafe { self.mem.snapshot_quiesced() }
    }

    fn restore(&self, state: &Vec<i64>) {
        // SAFETY: the engine calls this only during quiesced recovery.
        unsafe { self.mem.restore_quiesced(state) };
    }

    fn epoch_is_proven(&self, epoch: usize) -> bool {
        self.proven[epoch % self.plan.loops.len()]
    }
}
