//! The threaded DOMORE runtime (§3.2, Fig. 3.4).
//!
//! The separate plan: one scheduler (the calling thread) plus `num_workers`
//! worker threads. The scheduler executes the sequential prologue of each
//! invocation, runs the `computeAddr` oracle and the pure scheduling logic
//! for every inner iteration, and forwards messages over per-worker SPSC
//! queues: synchronization conditions first, then the iteration itself.
//! Workers obey Alg. 2: stall on each condition until the named predecessor
//! retires (as observed through the `latestFinished` status array), run the
//! iteration, and publish their own progress. The replicated plan
//! ([`DomoreRuntime::execute_replicated`], §3.4) shares the region frame,
//! the condition wait and the iteration runner, but has no scheduler.
//!
//! # Hand-off
//!
//! Run-length and batched, deciding nothing: a worker's condition-free
//! iterations of one invocation at a common stride travel as one `Run`; a
//! `Sync` closes a run. A buffer is flushed at `SCHED_BATCH` iterations,
//! before a `Sync` naming its worker (ruling out deadlock) and at region
//! end or abort — not per invocation. Workers take up to `SCHED_BATCH`
//! messages per pickup and expand runs locally; the abort check, the fault
//! probe, `catch_unwind` and the `latestFinished` publish stay per
//! iteration, since a condition may name any iteration of a run. The trace
//! records runs: one `TaskAssign` per `Run` when the scheduler flushes it,
//! and on the worker one queue wake, one dispatch and one retire counting
//! the iterations it executed. A replica runs each of its iterations as a
//! run of one.
//!
//! # Failure model
//!
//! The first failure — an iteration panic (organic or from an injected
//! [`FaultPlan`]: [`DomoreError::IterationPanicked`]), a scheduler or
//! replica panic ([`DomoreError::SchedulerPanicked`]) or a condition wait
//! past the [`DomoreConfig::watchdog`] deadline
//! ([`DomoreError::WatchdogTimeout`]) — records its error and raises the
//! abort flag. Every thread then skips execution but still publishes each
//! iteration it is handed, waits return at once, and workers drain their
//! queues to the `END_TOKEN` the scheduler always sends: nothing is left
//! waiting. The error is surfaced once, after the join; memory holds the
//! effects of exactly the iterations that ran.
//!
//! # Waiting discipline
//!
//! Condition waits (the progress board's bounded await) and full
//! queues use the shared spin-then-park policy
//! ([`crossinvoc_runtime::wait`]): a bounded adaptive spin for the common
//! short wait, then timed parks of [`PARK_SLICE`] so abort flags and
//! watchdog deadlines are still observed promptly while a long wait burns
//! no CPU. Publishers skip the wake entirely while no worker is parked, so
//! the hot retire path stays a store plus one relaxed-ish load.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;
use crossinvoc_runtime::fault::{FaultPlan, TaskFault};
use crossinvoc_runtime::metrics::{Metrics, MetricsSummary};
use crossinvoc_runtime::pool::{GangStats, RegionExecutor, Role, ScopedExecutor};
use crossinvoc_runtime::spsc::Queue;
use crossinvoc_runtime::stats::{RegionStats, StatsSummary};
use crossinvoc_runtime::telemetry::RegionTelemetry;
use crossinvoc_runtime::trace::{Event, Trace, TraceCollector, TraceSink, WakeEdge, MANAGER_TID};
use crossinvoc_runtime::wait::{AdaptiveSpin, Parker, PARK_SLICE};
use crossinvoc_runtime::{IterNum, ThreadId};
use parking_lot::Mutex;

use crate::logic::SyncCondition;
use crate::policy::{Dispatch, Policy, RoundRobin};
use crate::schedule::ScheduleCore;
use crate::workload::DomoreWorkload;

/// Iterations the scheduler buffers per worker before flushing them to the
/// SPSC queue in one batched enqueue (single tail publication), and the
/// most messages a worker takes per pickup.
const SCHED_BATCH: usize = 32;

/// Message from the scheduler to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    /// Wait for a predecessor iteration before proceeding. `inv` is the
    /// invocation the condition guards (trace/metrics attribution only).
    Sync { cond: SyncCondition, inv: u32 },
    /// Execute a run of iterations: the thesis' per-iteration `(NO_SYNC,
    /// iterNum)` tokens, same numbers and order, in one message.
    Run(Run),
    /// No more work (the paper's `END_TOKEN`).
    End,
}

/// Iterations `iter + k·stride` of invocation `inv`, numbered
/// `iter_num + k·stride`, for `k < count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    inv: u32,
    count: u32,
    iter: usize,
    iter_num: IterNum,
    stride: usize,
}

/// The scheduler's per-worker message buffers and their flush rule.
///
/// Invariant: before a `Sync` naming worker `d` is buffered for another
/// worker, `d`'s buffer is flushed. By induction on enqueue order, every
/// condition a worker can block on then names an iteration already in its
/// owner's queue, so the region cannot deadlock on an unflushed dependency.
struct Outbox {
    pending: Vec<Vec<Msg>>,
    /// Iterations (not messages) in each buffer.
    iters: Vec<usize>,
}

impl Outbox {
    fn new(num_workers: usize) -> Self {
        Self {
            pending: vec![Vec::new(); num_workers],
            iters: vec![0; num_workers],
        }
    }

    /// Buffers worker `tid`'s next iteration after its conditions, extending
    /// the buffer's last message if that is a run of the same invocation on
    /// whose stride it lands (the second iteration fixes the stride).
    /// `flush(t, buf)` must send and empty worker `t`'s buffer; every run a
    /// flush sends is recorded in `sink` as one `TaskAssign`.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        inv: usize,
        iter: usize,
        tid: ThreadId,
        iter_num: IterNum,
        conds: &[SyncCondition],
        sink: &mut TraceSink,
        flush: &mut impl FnMut(ThreadId, &mut Vec<Msg>),
    ) {
        let inv = inv as u32;
        for &cond in conds {
            if cond.dep_tid != tid {
                self.flush(cond.dep_tid, sink, flush);
            }
            self.pending[tid].push(Msg::Sync { cond, inv });
        }
        // A `Sync` closes a run: it is the buffer's last message then.
        match self.pending[tid].last_mut() {
            Some(Msg::Run(run))
                if run.inv == inv
                    && (run.count == 1 || iter == run.iter + run.count as usize * run.stride) =>
            {
                run.stride = (iter - run.iter) / run.count as usize;
                run.count += 1;
            }
            _ => self.pending[tid].push(Msg::Run(Run {
                inv,
                count: 1,
                iter,
                iter_num,
                stride: 0,
            })),
        }
        self.iters[tid] += 1;
        if self.iters[tid] >= SCHED_BATCH {
            self.flush(tid, sink, flush);
        }
    }

    /// Sends worker `tid`'s buffer if it holds anything, recording each of
    /// its runs in `sink`.
    fn flush(
        &mut self,
        tid: ThreadId,
        sink: &mut TraceSink,
        flush: &mut impl FnMut(ThreadId, &mut Vec<Msg>),
    ) {
        if !self.pending[tid].is_empty() {
            if sink.is_enabled() {
                for msg in &self.pending[tid] {
                    if let Msg::Run(run) = msg {
                        sink.emit(Event::TaskAssign {
                            epoch: run.inv,
                            task: run.iter as u64,
                            worker: tid,
                            count: run.count,
                        });
                    }
                }
            }
            flush(tid, &mut self.pending[tid]);
            debug_assert!(self.pending[tid].is_empty());
            self.iters[tid] = 0;
        }
    }
}

/// Counts kept off the `RegionStats` line all the region's threads write,
/// folded per pickup or invocation (an empty fold writes nothing) and on
/// drop, so every way out — completion, abort, unwind — counts exactly.
struct Tally<'a> {
    stats: &'a RegionStats,
    tasks: u64,
    sync_conditions: u64,
}

impl<'a> Tally<'a> {
    fn new(stats: &'a RegionStats) -> Self {
        Self {
            stats,
            tasks: 0,
            sync_conditions: 0,
        }
    }

    fn fold(&mut self) {
        if self.tasks > 0 {
            self.stats.add_tasks(std::mem::take(&mut self.tasks));
        }
        if self.sync_conditions > 0 {
            self.stats
                .add_sync_conditions(std::mem::take(&mut self.sync_conditions));
        }
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.fold();
    }
}

/// The `latestFinished` array of Alg. 2.
///
/// Each slot stores *one past* the last combined iteration number the worker
/// has retired (so the zero initial value means "nothing finished", avoiding
/// a sentinel).
#[derive(Debug)]
struct ProgressBoard {
    finished: Box<[CachePadded<AtomicU64>]>,
    /// One parker per worker; a waiter parks on *its own* slot and every
    /// publisher wakes all registered parkers. Parks are timed
    /// ([`PARK_SLICE`]) so a lost wake costs at most one slice of latency,
    /// never liveness.
    parkers: Box<[Parker]>,
    /// Workers currently inside a park window. Publishers skip the wake
    /// entirely while this is zero — the common case on the retire path.
    waiters: CachePadded<AtomicUsize>,
}

impl ProgressBoard {
    fn new(num_workers: usize) -> Self {
        Self {
            finished: (0..num_workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            parkers: (0..num_workers).map(|_| Parker::new()).collect(),
            waiters: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Marks `iter_num` retired by `tid` and wakes any parked waiters.
    fn publish(&self, tid: ThreadId, iter_num: IterNum) {
        self.finished[tid].store(iter_num + 1, Ordering::Release);
        if self.waiters.load(Ordering::SeqCst) != 0 {
            for parker in self.parkers.iter() {
                parker.unpark();
            }
        }
    }

    /// Whether `cond` is already satisfied.
    fn satisfied(&self, cond: SyncCondition) -> bool {
        self.finished[cond.dep_tid].load(Ordering::Acquire) > cond.dep_iter
    }

    /// Waits (spin, then timed park on `tid`'s slot) until `cond` is
    /// satisfied, the abort flag rises, or `deadline` passes.
    fn await_condition_bounded(
        &self,
        tid: ThreadId,
        cond: SyncCondition,
        abort: &AtomicBool,
        deadline: Option<Instant>,
    ) -> AwaitOutcome {
        let mut spin = AdaptiveSpin::new();
        loop {
            if self.satisfied(cond) {
                return AwaitOutcome::Satisfied;
            }
            if abort.load(Ordering::Acquire) {
                return AwaitOutcome::Aborted;
            }
            if !spin.should_park() {
                continue;
            }
            // Spin budget exhausted: check the deadline once per slice (a
            // slice is 200µs, far below any watchdog resolution we accept),
            // then register as a waiter. The re-check between registration
            // and the park closes the publish race down to one timed slice.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return AwaitOutcome::TimedOut;
            }
            self.waiters.fetch_add(1, Ordering::SeqCst);
            if !self.satisfied(cond) && !abort.load(Ordering::Acquire) {
                self.parkers[tid].park_timeout(PARK_SLICE);
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Outcome of [`ProgressBoard::await_condition_bounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AwaitOutcome {
    Satisfied,
    Aborted,
    TimedOut,
}

/// Configuration for [`DomoreRuntime`].
#[derive(Debug)]
pub struct DomoreConfig {
    num_workers: usize,
    queue_capacity: usize,
    fault_plan: Option<FaultPlan>,
    watchdog: Option<Duration>,
    trace_capacity: Option<usize>,
    schedule_memo: bool,
    region_id: u64,
    telemetry: Option<Arc<RegionTelemetry>>,
}

impl DomoreConfig {
    /// Configuration with `num_workers` worker threads and default queue
    /// capacity.
    pub fn with_workers(num_workers: usize) -> Self {
        Self {
            num_workers,
            queue_capacity: 1 << 12,
            fault_plan: None,
            watchdog: None,
            trace_capacity: None,
            schedule_memo: false,
            region_id: 0,
            telemetry: None,
        }
    }

    /// Sets the per-worker SPSC queue capacity (in messages) of the
    /// separate plan; replicas pass no messages. A zero capacity is
    /// rejected with [`DomoreError::InvalidConfig`] at run time.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Installs a deterministic fault schedule (testing). Coordinates map as
    /// epoch = invocation, task = iteration, thread = worker id.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Bounds every synchronization-condition wait by a wall-clock deadline
    /// measured from the start of the execution.
    pub fn watchdog(mut self, limit: Duration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Enables execution tracing with per-thread rings of `capacity`
    /// records (see [`ExecutionReport::trace`]).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The configured worker-thread count (the region's pool-slot demand).
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Enables tracing with `capacity` only when tracing is off — the
    /// region server uses this to arm always-on flight-recorder rings
    /// without overriding an explicitly configured capacity.
    pub fn trace_default(mut self, capacity: usize) -> Self {
        self.trace_capacity.get_or_insert(capacity);
        self
    }

    /// Enables or disables cross-invocation schedule memoization
    /// ([`crate::memo::ScheduleMemo`]) in the separate plan's scheduler;
    /// replicas never memoize. Off by default; turn it on for periodic
    /// access streams (JACOBI and FDTD replay from it) — elsewhere it only
    /// adds work. Replayed and recomputed schedules are
    /// decision-for-decision identical: this trades speed, not correctness.
    pub fn schedule_memo(mut self, enabled: bool) -> Self {
        self.schedule_memo = enabled;
        self
    }

    /// Attributes the region's trace to a region-server submission id
    /// (the `region_id` JSONL field; default 0 = solo, wire-invisible).
    pub fn region(mut self, region_id: u64) -> Self {
        self.region_id = region_id;
        self
    }

    /// Attaches a live telemetry cell (region-server mode; see
    /// `crossinvoc_runtime::telemetry`). The runtime then writes its
    /// metrics through the cell — live registry snapshots and the final
    /// [`ExecutionReport::metrics`] read the same counters — and drives the
    /// cell's lifecycle. `None` (the default, solo mode) costs nothing.
    pub fn telemetry(mut self, cell: Arc<RegionTelemetry>) -> Self {
        self.telemetry = Some(cell);
        self
    }
}

/// Errors reported by the DOMORE runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomoreError {
    /// The configuration requested zero workers.
    NoWorkers,
    /// The configuration is inconsistent (message says how).
    InvalidConfig(String),
    /// The workload declared its prologue non-replicable but the replicated
    /// plan was requested.
    PrologueNotReplicable,
    /// An iteration body panicked; the runtime aborted the region after
    /// releasing every worker.
    IterationPanicked {
        /// Invocation of the panicking iteration.
        inv: usize,
        /// Iteration index within the invocation.
        iter: usize,
    },
    /// The scheduler body, or a replica's (prologue or scheduling logic),
    /// panicked.
    SchedulerPanicked,
    /// The watchdog deadline elapsed while a worker waited on a
    /// synchronization condition.
    WatchdogTimeout,
}

impl fmt::Display for DomoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomoreError::NoWorkers => write!(f, "at least one worker thread is required"),
            DomoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DomoreError::PrologueNotReplicable => write!(
                f,
                "workload prologue has side effects; duplicated scheduler is unsound"
            ),
            DomoreError::IterationPanicked { inv, iter } => {
                write!(f, "iteration {iter} of invocation {inv} panicked")
            }
            DomoreError::SchedulerPanicked => write!(f, "scheduler body panicked"),
            DomoreError::WatchdogTimeout => write!(f, "watchdog deadline elapsed"),
        }
    }
}

impl std::error::Error for DomoreError {}

/// Outcome of a DOMORE execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Counter snapshot (tasks, synchronization conditions, stalls, …).
    pub stats: StatsSummary,
    /// Wall-clock time of the parallel region.
    pub elapsed: Duration,
    /// The configured worker count (the replicated plan adds the caller).
    pub num_workers: usize,
    /// Counters plus wait-time histograms (exact: snapshotted after the
    /// worker scope joined).
    pub metrics: MetricsSummary,
    /// Merged execution trace when [`DomoreConfig::trace`] was enabled.
    pub trace: Option<Trace>,
}

/// One region's shared state, owned by [`region`] and lent to whichever
/// plan runs in it.
struct Frame<'a> {
    metrics: &'a Metrics,
    /// One shared fault budget for the whole execution.
    fault: FaultPlan,
    deadline: Option<Instant>,
    collector: TraceCollector,
    board: ProgressBoard,
    abort: CachePadded<AtomicBool>,
    /// First error wins; it is surfaced exactly once, after the join.
    error: Mutex<Option<DomoreError>>,
}

impl Frame<'_> {
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Records the region's first failure and aborts everyone. Cold, so
    /// that the iteration runner's call stays out of the hot loop.
    #[cold]
    #[inline(never)]
    fn fail(&self, err: DomoreError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.abort.store(true, Ordering::Release);
    }

    /// Worker `tid` waits for `cond`, which guards an iteration of
    /// invocation `inv`. Under abort the wait is skipped: the result is
    /// already condemned, and the condition may name an iteration that
    /// will now never execute.
    fn await_condition(&self, tid: ThreadId, cond: SyncCondition, inv: u32, sink: &mut TraceSink) {
        if self.aborted() || self.board.satisfied(cond) {
            return;
        }
        self.metrics.stats().add_stall();
        sink.emit(Event::BarrierEnter { epoch: inv });
        let entered = Instant::now();
        let outcome = self
            .board
            .await_condition_bounded(tid, cond, &self.abort, self.deadline);
        if outcome == AwaitOutcome::TimedOut {
            self.fail(DomoreError::WatchdogTimeout);
        }
        let wait_ns = entered.elapsed().as_nanos() as u64;
        self.metrics.record_stall_wait(wait_ns);
        sink.emit(Event::BarrierLeave {
            epoch: inv,
            wait_ns,
        });
        if outcome == AwaitOutcome::Satisfied {
            // The predecessor's retire released this condition wait.
            sink.emit(Event::Wake {
                edge: WakeEdge::Barrier,
                src_tid: cond.dep_tid,
                seq: cond.dep_iter,
            });
        }
    }

    /// Worker `tid` executes `run`, with fault injection and panic
    /// containment per iteration, and publishes every iteration of it —
    /// also the ones it skipped under abort, so that no dependent is left
    /// waiting. Returns the iterations executed.
    #[inline]
    fn execute_run<W: DomoreWorkload>(
        &self,
        workload: &W,
        tid: ThreadId,
        run: Run,
        sink: &mut TraceSink,
    ) -> u64 {
        let inv = run.inv as usize;
        if !self.aborted() {
            sink.emit(Event::TaskDispatch {
                epoch: run.inv,
                task: run.iter as u64,
                count: run.count,
            });
        }
        // Abort never clears, so the executed iterations are a prefix of
        // the run.
        let mut executed = 0u32;
        for k in 0..run.count as usize {
            let iter = run.iter + k * run.stride;
            let iter_num = run.iter_num + (k * run.stride) as u64;
            if !self.aborted() {
                let injected = self.fault.task_start(run.inv, iter as u64, tid);
                if let Some(f) = injected {
                    sink.emit(Event::FaultInjected {
                        kind: f.kind(),
                        epoch: run.inv,
                        task: iter as u64,
                    });
                }
                if let Some(TaskFault::Delay(d)) = injected {
                    std::thread::sleep(d);
                }
                let inject = injected == Some(TaskFault::Panic);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if inject {
                        panic!(
                            "injected fault: worker panic at invocation {inv}, iteration {iter}"
                        );
                    }
                    workload.execute_iteration(inv, iter, tid);
                }));
                match outcome {
                    Ok(()) => executed += 1,
                    Err(_) => self.fail(DomoreError::IterationPanicked { inv, iter }),
                }
            }
            self.board.publish(tid, iter_num);
        }
        if executed > 0 {
            sink.emit(Event::TaskRetire {
                epoch: run.inv,
                task: run.iter as u64,
                count: executed,
            });
        }
        u64::from(executed)
    }

    /// Replica `tid` of `width`: replays the whole scheduling loop with its
    /// own `policy` and core, and executes the iterations assigned to it.
    /// Its body is contained like the scheduler's, so a panicking prologue
    /// or oracle fails the region instead of unwinding through the gang.
    fn replica<W: DomoreWorkload>(
        &self,
        workload: &W,
        tid: ThreadId,
        width: usize,
        mut policy: Box<dyn Policy>,
    ) {
        let stats = self.metrics.stats();
        let mut tally = Tally::new(stats);
        let mut sink = self.collector.sink(tid);
        let mut core = ScheduleCore::new(workload.address_space());
        let body = catch_unwind(AssertUnwindSafe(|| {
            for inv in 0..workload.num_invocations() {
                if self.aborted() {
                    break;
                }
                workload.prologue(inv);
                if tid == 0 {
                    stats.add_epoch();
                }
                // Replicas never memoize: each pays the full scheduling
                // stream, as §3.4 describes.
                let scheduled = core.run_invocation(
                    workload.num_iterations(inv),
                    false,
                    |iter, writes, reads| workload.touched(inv, iter, writes, reads),
                    |iter_num, addrs| {
                        (!self.aborted()).then(|| policy.assign(iter_num, addrs, width))
                    },
                    |iter, assigned, iter_num, conds, _replayed| {
                        if assigned != tid {
                            return;
                        }
                        tally.sync_conditions += conds.len() as u64;
                        for &cond in conds {
                            self.await_condition(tid, cond, inv as u32, &mut sink);
                        }
                        let run = Run {
                            inv: inv as u32,
                            count: 1,
                            iter,
                            iter_num,
                            stride: 0,
                        };
                        tally.tasks += self.execute_run(workload, tid, run, &mut sink);
                    },
                );
                tally.fold();
                // `None`: aborted.
                if scheduled.is_none() {
                    break;
                }
            }
        }));
        self.collector.absorb(sink);
        if body.is_err() {
            self.fail(DomoreError::SchedulerPanicked);
        }
    }
}

/// The region frame both plans share: validates the configuration, sets up
/// a [`Frame`] with a progress board of `width` slots, runs `body` (the
/// gang), and reports — or fails the telemetry cell with the trace that led
/// to the error.
fn region(
    config: &DomoreConfig,
    exec: &dyn RegionExecutor,
    width: usize,
    body: impl FnOnce(&Frame<'_>) -> GangStats,
) -> Result<ExecutionReport, DomoreError> {
    let num_workers = config.num_workers;
    if num_workers == 0 {
        return Err(DomoreError::NoWorkers);
    }
    if config.queue_capacity == 0 {
        return Err(DomoreError::InvalidConfig(
            "queue capacity must be positive".to_string(),
        ));
    }
    // The calling thread is the scheduler or a replica, so the gang demand
    // is the worker count alone in either plan.
    if let Some(cap) = exec.capacity().filter(|&cap| num_workers > cap) {
        return Err(DomoreError::InvalidConfig(format!(
            "region needs a gang of {num_workers} workers but the executor caps gangs at {cap}"
        )));
    }
    let fault = config.fault_plan.clone().unwrap_or_default();
    let deadline = config.watchdog.map(|w| Instant::now() + w);
    let telemetry = config.telemetry.as_deref();
    if let Some(cell) = telemetry {
        cell.mark_running();
    }
    // In region-server mode the metrics live in the telemetry cell, so
    // live registry snapshots and the final report read the same
    // counters and cannot disagree.
    let owned_metrics;
    let metrics: &Metrics = match telemetry {
        Some(cell) => cell.metrics(),
        None => {
            owned_metrics = Metrics::new();
            &owned_metrics
        }
    };
    // Started before the trace origin: every stamp lies within `elapsed`.
    let start = Instant::now();
    let frame = Frame {
        metrics,
        fault,
        deadline,
        collector: TraceCollector::with_region(
            config.trace_capacity.unwrap_or(0),
            config.region_id,
        ),
        board: ProgressBoard::new(width),
        abort: CachePadded::new(AtomicBool::new(false)),
        error: Mutex::new(None),
    };
    let gang = body(&frame);
    if let Some(cell) = telemetry {
        cell.add_queue_wait(gang.queue_wait_ns);
    }
    let elapsed = start.elapsed();
    let trace = frame.collector.finish();
    if let Some(err) = frame.error.into_inner() {
        // Hard failure: deposit the trace with the telemetry cell so the
        // flight recorder can dump the window that led here.
        if let Some(cell) = telemetry {
            cell.fail(trace.as_ref());
        }
        return Err(err);
    }
    // The gang has joined: snapshots are exact per the RegionStats
    // ordering contract.
    let metrics = metrics.snapshot();
    if let Some(cell) = telemetry {
        cell.complete(0, false, trace.as_ref());
    }
    Ok(ExecutionReport {
        stats: metrics.stats,
        elapsed,
        num_workers,
        metrics,
        trace,
    })
}

/// The DOMORE engine: the separate plan (scheduler and workers) and the
/// replicated plan (§3.4).
///
/// See the crate-level example for end-to-end usage.
pub struct DomoreRuntime {
    config: DomoreConfig,
    policy: Box<dyn Policy>,
}

impl fmt::Debug for DomoreRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomoreRuntime")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl DomoreRuntime {
    /// Creates a runtime with round-robin scheduling.
    pub fn new(config: DomoreConfig) -> Self {
        Self {
            config,
            policy: Box::new(RoundRobin),
        }
    }

    /// Replaces the scheduling policy.
    pub fn with_policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the scheduling policy by name via the [`Dispatch`] enum —
    /// the configuration-friendly surface used by the bench harness.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> Self {
        self.policy = dispatch.policy();
        self
    }

    /// Executes `workload` to completion: all invocations, in semantic order
    /// where dependences demand it, overlapped otherwise.
    ///
    /// The calling thread acts as the scheduler; `num_workers` additional
    /// threads are spawned for the duration of the call.
    ///
    /// # Errors
    ///
    /// [`DomoreError::NoWorkers`] / [`DomoreError::InvalidConfig`] for a bad
    /// configuration; [`DomoreError::IterationPanicked`],
    /// [`DomoreError::SchedulerPanicked`] and
    /// [`DomoreError::WatchdogTimeout`] when the region failed (all workers
    /// are released and joined before the error is returned — no thread is
    /// leaked and no queue left jammed).
    pub fn execute<W: DomoreWorkload>(
        &mut self,
        workload: &W,
    ) -> Result<ExecutionReport, DomoreError> {
        self.execute_on(workload, &ScopedExecutor)
    }

    /// Like [`DomoreRuntime::execute`], but running the worker gang on the
    /// given executor — a shared [`crossinvoc_runtime::pool::WorkerPool`] in
    /// region-server mode, or [`ScopedExecutor`] for the classic
    /// thread-per-worker behaviour. The calling thread stays the scheduler
    /// either way, and all per-region state (shadow memory, schedule memo,
    /// progress board, metrics, trace sinks, fault budget) lives in this
    /// call frame, so concurrent regions on one pool cannot observe each
    /// other.
    pub fn execute_on<W: DomoreWorkload>(
        &mut self,
        workload: &W,
        exec: &dyn RegionExecutor,
    ) -> Result<ExecutionReport, DomoreError> {
        let (config, policy) = (&self.config, self.policy.as_mut());
        let num_workers = config.num_workers;
        region(config, exec, num_workers, |frame| {
            let mut core = ScheduleCore::new(workload.address_space());
            let mut producers = Vec::with_capacity(num_workers);
            let mut roles: Vec<Role<'_>> = Vec::with_capacity(num_workers);
            for tid in 0..num_workers {
                let (tx, rx) = Queue::<Msg>::with_capacity(config.queue_capacity);
                producers.push(tx);
                roles.push(Box::new(move || {
                    let mut tally = Tally::new(frame.metrics.stats());
                    let mut sink = frame.collector.sink(tid);
                    let mut inbox = Vec::with_capacity(SCHED_BATCH);
                    'region: loop {
                        rx.consume_batch_wait(&mut inbox, SCHED_BATCH);
                        for msg in inbox.drain(..) {
                            match msg {
                                Msg::Sync { cond, inv } => {
                                    frame.await_condition(tid, cond, inv, &mut sink)
                                }
                                Msg::Run(run) => {
                                    if !frame.aborted() {
                                        // SPSC produce → consume: the
                                        // scheduler's enqueue is what this
                                        // run's dispatch picks up.
                                        sink.emit(Event::Wake {
                                            edge: WakeEdge::Queue,
                                            src_tid: MANAGER_TID,
                                            seq: run.iter_num,
                                        });
                                    }
                                    tally.tasks += frame.execute_run(workload, tid, run, &mut sink)
                                }
                                Msg::End => break 'region,
                            }
                        }
                        tally.fold();
                    }
                    frame.collector.absorb(sink);
                }));
            }

            // ---- Scheduler (this thread, the executor's `local` role) ----
            // The body is contained so a panicking prologue / oracle cannot
            // strand the gang before the end tokens are sent. The sink
            // lives outside the unwind boundary so events emitted before a
            // scheduler panic survive into the trace.
            let scheduler = move || {
                let mut sched_sink = frame.collector.sink(MANAGER_TID);
                let stats = frame.metrics.stats();
                let mut tally = Tally::new(stats);
                let sched = catch_unwind(AssertUnwindSafe(|| {
                    let mut outbox = Outbox::new(num_workers);
                    let mut flush = |tid: ThreadId, buf: &mut Vec<Msg>| {
                        producers[tid].produce_batch(buf);
                    };
                    for inv in 0..workload.num_invocations() {
                        if frame.aborted() {
                            break;
                        }
                        workload.prologue(inv);
                        stats.add_epoch();
                        sched_sink.emit(Event::EpochBegin { epoch: inv as u32 });
                        let scheduled = core.run_invocation(
                            workload.num_iterations(inv),
                            config.schedule_memo,
                            |iter, writes, reads| workload.touched(inv, iter, writes, reads),
                            |iter_num, addrs| {
                                (!frame.aborted())
                                    .then(|| policy.assign(iter_num, addrs, num_workers))
                            },
                            |iter, tid, iter_num, conds, _replayed| {
                                tally.sync_conditions += conds.len() as u64;
                                outbox.push(
                                    inv,
                                    iter,
                                    tid,
                                    iter_num,
                                    conds,
                                    &mut sched_sink,
                                    &mut flush,
                                );
                            },
                        );
                        tally.fold();
                        // `None`: aborted.
                        let Some(hit) = scheduled else { break };
                        if hit {
                            stats.add_schedule_cache_hit();
                            sched_sink.emit(Event::ScheduleCacheHit { epoch: inv as u32 });
                        }
                        sched_sink.emit(Event::EpochEnd { epoch: inv as u32 });
                    }
                    (0..num_workers).for_each(|tid| outbox.flush(tid, &mut sched_sink, &mut flush));
                }));
                frame.collector.absorb(sched_sink);
                if sched.is_err() {
                    frame.fail(DomoreError::SchedulerPanicked);
                }
                // Always send the end tokens — workers drain their queues even
                // under abort, so this cannot jam and every worker terminates.
                for tx in &producers {
                    tx.produce(Msg::End);
                }
            };
            exec.run_gang(roles, Box::new(scheduler))
        })
    }

    /// Executes `workload` under the replicated plan, the thesis'
    /// duplicated scheduler (§3.4): `num_workers + 1` replicas — the gang
    /// plus the calling thread — each run the whole scheduling loop on
    /// private state with a [`Policy::replicate`] of the policy, and execute
    /// only the iterations assigned to themselves. Scheduling is
    /// deterministic, so at `with_workers(n - 1)` it makes the decisions
    /// [`DomoreRuntime::execute`] makes at `with_workers(n)`. Replicas never
    /// memoize and pass no messages.
    ///
    /// # Errors
    ///
    /// As for [`DomoreRuntime::execute`] (a panicking replica is
    /// [`DomoreError::SchedulerPanicked`]), and
    /// [`DomoreError::PrologueNotReplicable`] for a workload whose prologue
    /// may not be re-executed ([`DomoreWorkload::prologue_is_replicable`]).
    pub fn execute_replicated<W: DomoreWorkload>(
        &mut self,
        workload: &W,
    ) -> Result<ExecutionReport, DomoreError> {
        if !workload.prologue_is_replicable() {
            return Err(DomoreError::PrologueNotReplicable);
        }
        let width = self.config.num_workers + 1;
        let policy = &*self.policy;
        region(&self.config, &ScopedExecutor, width, |frame| {
            let roles: Vec<Role<'_>> = (0..width - 1)
                .map(|tid| {
                    let policy = policy.replicate();
                    Box::new(move || frame.replica(workload, tid, width, policy)) as Role<'_>
                })
                .collect();
            let policy = policy.replicate();
            ScopedExecutor.run_gang(
                roles,
                Box::new(move || frame.replica(workload, width - 1, width, policy)),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LocalWrite;
    use crossinvoc_runtime::trace::TraceReport;
    use crossinvoc_runtime::SharedSlice;

    /// Invocation k writes cell (i + k) % n for iteration i: shifting
    /// conflicts across invocations, heavy cross-invocation dependences.
    struct Rotating {
        data: SharedSlice<u64>,
        invocations: usize,
    }

    impl Rotating {
        fn new(n: usize, invocations: usize) -> Self {
            Self {
                data: SharedSlice::from_vec(vec![0; n]),
                invocations,
            }
        }
        fn cell(&self, inv: usize, iter: usize) -> usize {
            (iter + inv) % self.data.len()
        }
    }

    impl DomoreWorkload for Rotating {
        fn num_invocations(&self) -> usize {
            self.invocations
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.data.len()
        }
        fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.push(self.cell(inv, iter));
        }
        fn execute_iteration(&self, inv: usize, iter: usize, _tid: ThreadId) {
            let cell = self.cell(inv, iter);
            // SAFETY: the runtime serializes conflicting iterations; each
            // iteration touches exactly the reported cell.
            unsafe { self.data.update(cell, |v| *v = v.wrapping_mul(31) + 1) };
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    fn expected_rotating(n: usize, invocations: usize) -> Vec<u64> {
        let mut data = vec![0u64; n];
        for _ in 0..invocations {
            for v in data.iter_mut() {
                *v = v.wrapping_mul(31) + 1;
            }
        }
        data
    }

    #[test]
    fn matches_sequential_result_under_contention() {
        for workers in [1, 2, 3, 5] {
            let mut w = Rotating::new(17, 12);
            let report = DomoreRuntime::new(DomoreConfig::with_workers(workers))
                .execute(&w)
                .unwrap();
            assert_eq!(w.data.snapshot(), expected_rotating(17, 12));
            assert_eq!(report.stats.tasks, 17 * 12);
            assert_eq!(report.stats.epochs, 12);
        }
    }

    #[test]
    fn localwrite_policy_produces_no_sync_conditions_for_owned_cells() {
        // Same cell always maps to the same owner, so every cross-invocation
        // dependence stays within one worker: zero conditions.
        struct Fixed {
            data: SharedSlice<u64>,
        }
        impl DomoreWorkload for Fixed {
            fn num_invocations(&self) -> usize {
                8
            }
            fn num_iterations(&self, _inv: usize) -> usize {
                16
            }
            fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
                out.push(iter);
            }
            fn execute_iteration(&self, _inv: usize, iter: usize, _tid: ThreadId) {
                unsafe { self.data.update(iter, |v| *v += 1) };
            }
            fn address_space(&self) -> Option<usize> {
                Some(16)
            }
        }
        let w = Fixed {
            data: SharedSlice::from_vec(vec![0; 16]),
        };
        let report = DomoreRuntime::new(DomoreConfig::with_workers(4))
            .with_policy(Box::new(LocalWrite::new(16)))
            .execute(&w)
            .unwrap();
        assert_eq!(report.stats.sync_conditions, 0);
        let mut w = w;
        assert!(w.data.snapshot().iter().all(|&v| v == 8));
    }

    #[test]
    fn round_robin_generates_conditions_for_repeated_cells() {
        let mut w = Rotating::new(8, 4);
        let report = DomoreRuntime::new(DomoreConfig::with_workers(4))
            .execute(&w)
            .unwrap();
        assert!(
            report.stats.sync_conditions > 0,
            "rotating cells across round-robin workers must conflict"
        );
        assert_eq!(w.data.snapshot(), expected_rotating(8, 4));
    }

    #[test]
    fn zero_workers_is_an_error() {
        let w = Rotating::new(4, 1);
        let err = DomoreRuntime::new(DomoreConfig::with_workers(0))
            .execute(&w)
            .unwrap_err();
        assert_eq!(err, DomoreError::NoWorkers);
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn small_queue_capacity_still_completes() {
        let mut w = Rotating::new(9, 6);
        DomoreRuntime::new(DomoreConfig::with_workers(3).queue_capacity(2))
            .execute(&w)
            .unwrap();
        assert_eq!(w.data.snapshot(), expected_rotating(9, 6));
    }

    /// Every invocation touches the identical address stream: iteration i
    /// writes cell i and reads its ring neighbours — the steady-state shape
    /// schedule memoization exists for.
    struct Steady {
        data: SharedSlice<u64>,
        invocations: usize,
    }

    impl DomoreWorkload for Steady {
        fn num_invocations(&self) -> usize {
            self.invocations
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.data.len()
        }
        fn touched_addrs(&self, _inv: usize, _iter: usize, _out: &mut Vec<usize>) {
            unreachable!("touched() is overridden");
        }
        fn touched(
            &self,
            _inv: usize,
            iter: usize,
            writes: &mut Vec<usize>,
            reads: &mut Vec<usize>,
        ) {
            let n = self.data.len();
            writes.push(iter);
            reads.push((iter + n - 1) % n);
            reads.push((iter + 1) % n);
        }
        fn execute_iteration(&self, _inv: usize, iter: usize, _tid: ThreadId) {
            unsafe { self.data.update(iter, |v| *v = v.wrapping_mul(31) + 1) };
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    #[test]
    fn steady_invocations_replay_from_the_schedule_memo() {
        // 16 iterations round-robin over 4 workers: assignments are
        // shift-stable, so invocation 0 seeds the hash, 1 records the
        // matching candidate, and 2.. replay.
        let mut w = Steady {
            data: SharedSlice::from_vec(vec![0; 16]),
            invocations: 8,
        };
        let report = DomoreRuntime::new(DomoreConfig::with_workers(4).schedule_memo(true))
            .execute(&w)
            .unwrap();
        assert_eq!(report.stats.schedule_cache_hits, 6);
        assert_eq!(w.data.snapshot(), expected_rotating(16, 8));
        assert_eq!(report.stats.tasks, 16 * 8);
    }

    #[test]
    fn schedule_memo_off_matches_memo_on() {
        let run = |memo: bool| {
            let mut w = Steady {
                data: SharedSlice::from_vec(vec![0; 12]),
                invocations: 6,
            };
            let report = DomoreRuntime::new(DomoreConfig::with_workers(3).schedule_memo(memo))
                .execute(&w)
                .unwrap();
            (w.data.snapshot(), report.stats)
        };
        let (on_data, on_stats) = run(true);
        let (off_data, off_stats) = run(false);
        assert_eq!(on_data, off_data);
        assert_eq!(on_stats.sync_conditions, off_stats.sync_conditions);
        assert_eq!(on_stats.tasks, off_stats.tasks);
        assert!(on_stats.schedule_cache_hits > 0);
        assert_eq!(off_stats.schedule_cache_hits, 0);
    }

    #[test]
    fn rotating_streams_never_hit_the_memo() {
        let mut w = Rotating::new(8, 6);
        let report = DomoreRuntime::new(DomoreConfig::with_workers(4).schedule_memo(true))
            .execute(&w)
            .unwrap();
        assert_eq!(report.stats.schedule_cache_hits, 0);
        assert_eq!(w.data.snapshot(), expected_rotating(8, 6));
    }

    #[test]
    fn replicated_plan_matches_sequential_result() {
        for workers in [1, 2, 4] {
            let mut w = Rotating::new(13, 9);
            let report = DomoreRuntime::new(DomoreConfig::with_workers(workers))
                .execute_replicated(&w)
                .unwrap();
            assert_eq!(w.data.snapshot(), expected_rotating(13, 9));
            assert_eq!(report.stats.tasks, 13 * 9);
            assert_eq!(report.stats.epochs, 9);
        }
    }

    #[test]
    fn replicated_plan_composes_with_localwrite() {
        let mut w = Rotating::new(16, 5);
        DomoreRuntime::new(DomoreConfig::with_workers(3))
            .with_policy(Box::new(LocalWrite::new(16)))
            .execute_replicated(&w)
            .unwrap();
        assert_eq!(w.data.snapshot(), expected_rotating(16, 5));
    }

    #[test]
    fn replicated_plan_rejects_a_non_replicable_prologue() {
        struct Bad;
        impl DomoreWorkload for Bad {
            fn num_invocations(&self) -> usize {
                1
            }
            fn num_iterations(&self, _inv: usize) -> usize {
                1
            }
            fn touched_addrs(&self, _inv: usize, _iter: usize, _out: &mut Vec<usize>) {}
            fn execute_iteration(&self, _inv: usize, _iter: usize, _tid: ThreadId) {}
            fn prologue_is_replicable(&self) -> bool {
                false
            }
        }
        let mut runtime = DomoreRuntime::new(DomoreConfig::with_workers(1));
        assert_eq!(
            runtime.execute_replicated(&Bad).unwrap_err(),
            DomoreError::PrologueNotReplicable
        );
        // The separate plan runs the prologue once, on the scheduler.
        runtime.execute(&Bad).unwrap();
    }

    #[test]
    fn replicated_plan_rejects_zero_workers() {
        let w = Rotating::new(4, 1);
        assert_eq!(
            DomoreRuntime::new(DomoreConfig::with_workers(0))
                .execute_replicated(&w)
                .unwrap_err(),
            DomoreError::NoWorkers
        );
    }

    /// The replicated plan at `n - 1` workers runs `n` replicas: the same
    /// assignment width, hence the same schedule, as the separate plan at
    /// `n` workers.
    #[test]
    fn replicated_plan_agrees_with_the_separate_plan() {
        let mut a = Rotating::new(11, 7);
        let mut b = Rotating::new(11, 7);
        let separate = DomoreRuntime::new(DomoreConfig::with_workers(3))
            .execute(&a)
            .unwrap();
        let replicated = DomoreRuntime::new(DomoreConfig::with_workers(2))
            .execute_replicated(&b)
            .unwrap();
        assert_eq!(a.data.snapshot(), b.data.snapshot());
        assert_eq!(separate.stats.tasks, replicated.stats.tasks);
        assert_eq!(separate.stats.epochs, replicated.stats.epochs);
        assert_eq!(
            separate.stats.sync_conditions,
            replicated.stats.sync_conditions
        );
        assert!(replicated.stats.sync_conditions > 0);
    }

    #[test]
    fn progress_board_condition_semantics() {
        let board = ProgressBoard::new(2);
        let cond = SyncCondition {
            dep_tid: 1,
            dep_iter: 3,
        };
        assert!(!board.satisfied(cond));
        board.publish(1, 2);
        assert!(!board.satisfied(cond), "iter 3 not yet finished");
        board.publish(1, 3);
        assert!(board.satisfied(cond));
    }

    #[test]
    fn empty_workload_reports_zero_tasks() {
        struct Empty;
        impl DomoreWorkload for Empty {
            fn num_invocations(&self) -> usize {
                0
            }
            fn num_iterations(&self, _inv: usize) -> usize {
                0
            }
            fn touched_addrs(&self, _inv: usize, _iter: usize, _out: &mut Vec<usize>) {}
            fn execute_iteration(&self, _inv: usize, _iter: usize, _tid: ThreadId) {}
        }
        let report = DomoreRuntime::new(DomoreConfig::with_workers(2))
            .execute(&Empty)
            .unwrap();
        assert_eq!(report.stats.tasks, 0);
        assert_eq!(report.stats.epochs, 0);
    }

    /// Drives the pure scheduling step and the outbox over `w`'s stream the
    /// way the threaded scheduler does, and returns every message each
    /// worker receives, in order.
    fn dispatched(w: &impl DomoreWorkload, workers: usize, dispatch: Dispatch) -> Vec<Vec<Msg>> {
        let (mut core, mut policy) = (ScheduleCore::new(w.address_space()), dispatch.policy());
        let (mut outbox, mut sent) = (Outbox::new(workers), vec![Vec::new(); workers]);
        let mut sink = TraceSink::disabled();
        let mut flush = |t: ThreadId, buf: &mut Vec<Msg>| sent[t].append(buf);
        for inv in 0..w.num_invocations() {
            core.run_invocation(
                w.num_iterations(inv),
                false,
                |iter, writes, reads| w.touched(inv, iter, writes, reads),
                |iter_num, addrs| Some(policy.assign(iter_num, addrs, workers)),
                |iter, tid, iter_num, conds, _| {
                    outbox.push(inv, iter, tid, iter_num, conds, &mut sink, &mut flush)
                },
            );
        }
        (0..workers).for_each(|t| outbox.flush(t, &mut sink, &mut flush));
        sent
    }

    /// What a worker must observe: per iteration, its conditions and then
    /// the iteration `(inv, iter, iter_num)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Wait(SyncCondition),
        Iter(u32, usize, IterNum),
    }

    fn expand(msgs: &[Msg]) -> Vec<Step> {
        let mut steps = Vec::new();
        for msg in msgs {
            match *msg {
                Msg::Sync { cond, .. } => steps.push(Step::Wait(cond)),
                Msg::Run(r) => steps.extend((0..r.count as usize).map(|k| {
                    Step::Iter(
                        r.inv,
                        r.iter + k * r.stride,
                        r.iter_num + (k * r.stride) as u64,
                    )
                })),
                Msg::End => unreachable!("the outbox never buffers an end token"),
            }
        }
        steps
    }

    proptest::proptest! {
        /// The run-length hand-off is transparent: over random assignment
        /// streams (round-robin, owner-computes and chunked decisions,
        /// random conditions on earlier iterations of other workers,
        /// invocation boundaries, flushes at random points), expanding what
        /// each worker receives reproduces exactly the iterations assigned
        /// to it, in order, once, each preceded by exactly its own
        /// conditions — and a `Sync` naming `d` is only ever buffered while
        /// `d`'s buffer is empty, the invariant that rules out deadlock. The
        /// `TaskAssign` records the flushes write (one per run) credit each
        /// worker with exactly its iterations.
        #[test]
        fn the_outbox_delivers_every_workers_stream_in_order(
            seed in proptest::prelude::any::<u64>(),
            workers in 1usize..=4,
            kind in 0u8..3,
        ) {
            use crate::policy::Chunked;
            use crossinvoc_runtime::hash::SplitMix64;
            let mut rng = SplitMix64::new(seed);
            let mut policy: Box<dyn Policy> = match kind {
                0 => Box::new(RoundRobin),
                1 => Box::new(LocalWrite::new(64)),
                _ => Box::new(Chunked::new(1 + rng.next_below(6))),
            };
            let mut outbox = Outbox::new(workers);
            let mut sink = TraceSink::with_capacity(MANAGER_TID, 1 << 12);
            let mut sent = vec![Vec::new(); workers];
            let mut expected = vec![Vec::new(); workers];
            let mut history: Vec<(ThreadId, IterNum)> = Vec::new();
            for inv in 0..1 + rng.next_below(5) as usize {
                for iter in 0..rng.next_below(100) as usize {
                    let iter_num = history.len() as IterNum;
                    let tid = policy.assign(iter_num, &[rng.next_below(64) as usize], workers);
                    let mut conds: Vec<SyncCondition> = Vec::new();
                    for _ in 0..rng.next_below(4).saturating_sub(1) {
                        if history.is_empty() {
                            break;
                        }
                        let (dep_tid, dep_iter) =
                            history[rng.next_below(history.len() as u64) as usize];
                        if dep_tid != tid && conds.iter().all(|c| c.dep_tid != dep_tid) {
                            conds.push(SyncCondition { dep_tid, dep_iter });
                        }
                    }
                    expected[tid].extend(conds.iter().map(|&c| Step::Wait(c)));
                    expected[tid].push(Step::Iter(inv as u32, iter, iter_num));
                    let mut flush = |t: ThreadId, buf: &mut Vec<Msg>| sent[t].append(buf);
                    outbox.push(inv, iter, tid, iter_num, &conds, &mut sink, &mut flush);
                    for c in &conds {
                        proptest::prop_assert!(outbox.pending[c.dep_tid].is_empty());
                    }
                    proptest::prop_assert!(outbox.iters.iter().all(|&n| n < SCHED_BATCH));
                    if rng.next_below(10) == 0 {
                        outbox.flush(rng.next_below(workers as u64) as usize, &mut sink, &mut flush);
                    }
                    history.push((tid, iter_num));
                }
            }
            let mut flush = |t: ThreadId, buf: &mut Vec<Msg>| sent[t].append(buf);
            (0..workers).for_each(|t| outbox.flush(t, &mut sink, &mut flush));
            for tid in 0..workers {
                proptest::prop_assert_eq!(expand(&sent[tid]), expected[tid].clone());
            }
            let runs: usize = sent.iter().flatten().filter(|m| matches!(m, Msg::Run(_))).count();
            let trace = Trace::from_sinks([sink]);
            proptest::prop_assert_eq!(trace.records().len(), runs);
            let report = TraceReport::from_trace(&trace);
            for (tid, steps) in expected.iter().enumerate() {
                let iters = steps.iter().filter(|s| matches!(s, Step::Iter(..))).count() as u64;
                let assigned = report.threads.iter().find(|t| t.tid == tid).map_or(0, |t| t.assigned);
                proptest::prop_assert_eq!(assigned, iters);
            }
        }
    }

    #[test]
    fn a_condition_free_stream_travels_as_one_run_per_batch() {
        // `(first iter, count, stride)` of a run; `None` for a `Sync`.
        let shapes = |msgs: &[Msg]| -> Vec<_> {
            msgs.iter()
                .map(|m| match *m {
                    Msg::Run(r) => Some((r.iter, r.count, r.stride)),
                    _ => None,
                })
                .collect()
        };
        let w = Rotating::new(64, 1);
        // One worker: the whole invocation at stride 1, split only by the
        // batch trigger.
        let one = dispatched(&w, 1, Dispatch::RoundRobin);
        assert_eq!(shapes(&one[0]), [Some((0, 32, 1)), Some((32, 32, 1))]);
        // Round-robin over four workers: one stride-4 run each.
        for (tid, msgs) in dispatched(&w, 4, Dispatch::RoundRobin).iter().enumerate() {
            assert_eq!(shapes(msgs), [Some((tid, 16, 4))]);
        }
        // Rotating cells put a condition on every later iteration, and
        // each one closes the run before it.
        let two = dispatched(&Rotating::new(4, 2), 2, Dispatch::RoundRobin);
        let after_sync = Some((0, 1, 0));
        assert_eq!(shapes(&two[0])[..3], [Some((0, 2, 2)), None, after_sync]);
    }

    /// Iteration `i` writes cell `i`, and every eighth (`i % 8 == 7`) also
    /// touches cell `i + 1`. With 48 cells each cell stays on one worker
    /// across invocations under round-robin and chunk-4 dispatch at one or
    /// three workers, so most iterations are condition-free and coalesce
    /// into runs, and the eighths put cross-worker conditions between them.
    struct Sparse {
        data: SharedSlice<u64>,
        invocations: usize,
        executed: Mutex<Vec<(usize, usize)>>,
    }

    const SPARSE_CELLS: usize = 48;

    fn sparse_step(cells: &mut [u64], inv: usize, iter: usize) {
        let read = if iter % 8 == 7 {
            cells[(iter + 1) % SPARSE_CELLS]
        } else {
            0
        };
        cells[iter] = cells[iter].wrapping_mul(31) ^ read ^ (inv * SPARSE_CELLS + iter) as u64;
    }

    impl DomoreWorkload for Sparse {
        fn num_invocations(&self) -> usize {
            self.invocations
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            SPARSE_CELLS
        }
        fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.push(iter);
            if iter % 8 == 7 {
                out.push((iter + 1) % SPARSE_CELLS);
            }
        }
        fn execute_iteration(&self, inv: usize, iter: usize, _tid: ThreadId) {
            self.executed.lock().push((inv, iter));
            // SAFETY: the runtime orders the iterations touching the two
            // cells reported for this one; it touches nothing else.
            let read = if iter % 8 == 7 {
                unsafe { self.data.read((iter + 1) % SPARSE_CELLS) }
            } else {
                0
            };
            unsafe {
                self.data.update(iter, |v| {
                    *v = v.wrapping_mul(31) ^ read ^ (inv * SPARSE_CELLS + iter) as u64
                })
            };
        }
        fn address_space(&self) -> Option<usize> {
            Some(SPARSE_CELLS)
        }
    }

    /// An injected panic strictly inside a coalesced run: the error names
    /// the exact iteration, and memory is the sequential image of exactly
    /// the iterations that ran — the first failure aborts the region, and
    /// the later iterations of the run are published without running, so a
    /// worker waiting on one is released rather than left to the watchdog.
    fn panic_inside_a_run(workers: usize, dispatch: Dispatch, at: (usize, usize)) {
        const INVOCATIONS: usize = 6;
        let mut w = Sparse {
            data: SharedSlice::from_vec(vec![0; SPARSE_CELLS]),
            invocations: INVOCATIONS,
            executed: Mutex::new(Vec::new()),
        };
        let at_num = (at.0 * SPARSE_CELLS + at.1) as IterNum;
        let owner = dispatch.policy().assign(at_num, &[at.1], workers);
        let inside = dispatched(&w, workers, dispatch)[owner]
            .iter()
            .any(|m| match *m {
                Msg::Run(run) => {
                    let last = run.iter_num + ((run.count as usize - 1) * run.stride) as u64;
                    run.iter_num < at_num && at_num < last
                }
                _ => false,
            });
        assert!(
            inside,
            "{dispatch:?}/{workers}: {at:?} must sit inside a run"
        );

        let err = DomoreRuntime::new(
            DomoreConfig::with_workers(workers)
                .fault_plan(FaultPlan::new().worker_panic_at(at.0 as u32, at.1 as u64))
                .watchdog(Duration::from_secs(30)),
        )
        .with_dispatch(dispatch)
        .execute(&w)
        .unwrap_err();
        assert_eq!(
            err,
            DomoreError::IterationPanicked {
                inv: at.0,
                iter: at.1
            }
        );

        let mut ran = std::mem::take(&mut *w.executed.lock());
        ran.sort_unstable();
        assert!(
            ran.binary_search(&at).is_err(),
            "the panicked iteration never ran"
        );
        let mut image = vec![0; SPARSE_CELLS];
        for &(inv, iter) in &ran {
            sparse_step(&mut image, inv, iter);
        }
        assert_eq!(w.data.snapshot(), image, "{dispatch:?}/{workers}");
    }

    #[test]
    fn a_panic_inside_a_run_names_its_iteration_and_releases_the_rest() {
        // One worker: the region's only runs are stride-1 batches.
        panic_inside_a_run(1, Dispatch::RoundRobin, (1, 5));
        // Three workers, strided runs: worker 0 gets 0, 3, ..., 12 of an
        // invocation as one run (15 carries a condition).
        panic_inside_a_run(3, Dispatch::RoundRobin, (2, 6));
        // Three workers, contiguous runs: 12, 13, 14 of a chunk.
        panic_inside_a_run(3, Dispatch::Chunked { chunk: 4 }, (2, 13));
    }
}
