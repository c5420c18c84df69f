//! The threaded SPECCROSS engine (§4.2, Fig. 4.5).
//!
//! One manager (the calling thread) and a gang of `num_workers + 1` worker
//! threads, every one of which runs tasks; there is no checker thread (the
//! thesis' §4.2.1 design, which the simulator keeps billing). Workers
//! execute epochs back-to-back, crossing barrier boundaries speculatively.
//! An epoch's tasks are dealt block-cyclically in *chunks* of K consecutive
//! tasks ([`crate::chunk`]; K follows from the region's shape and is 1 — the
//! thesis' per-iteration protocol — for small epochs and short speculative
//! ranges), and the worker protocol runs once per chunk: one frontier
//! publish, one gate on the chunk's last task, one position snapshot, one
//! position advance. The chunk's signatures, folded into maximal exact
//! runs, are admitted with that start-time snapshot by the worker itself,
//! into the pass's one epoch-bucketed log of [`crate::check`] behind a lock
//! (docs/CHECKER.md, "Inline admission"); a conflict ends the pass at once.
//!
//! **Width.** A pass does not always widen. Worker 0 runs its first epoch
//! alone and times it; only when a chunk of the wide chunk length carries
//! at least [`WIDE_CHUNK_NS`] of work do the others join, at the next
//! epoch. Otherwise they return and worker 0 finishes the pass alone — and
//! since no task then overlaps another, those *narrow* epochs run with no
//! signatures and no admission at all.
//!
//! Every `checkpoint_every` epochs the running workers rendezvous and the
//! workload state is snapshotted. On misspeculation all workers unwind
//! cooperatively, the last checkpoint is restored, the misspeculated epochs
//! re-execute under non-speculative barriers, and speculation resumes
//! (substitution S3 of DESIGN.md replaces the thesis' `fork`/`kill`
//! mechanics with snapshot/restore + cooperative cancellation; the recovery
//! *sequence* is identical). Like `fork`'s copy-on-write, checkpoints and
//! rollbacks copy only what tasks wrote: workers report the blocks they
//! dirtied ([`crate::checkpoint`]).
//!
//! **One task loop, one rendezvous.** Every task the engine runs goes
//! through one chunk runner, which probes the fault plan, contains the
//! task's panic, records the chunk's dispatch/retire pair and tallies it.
//! Most epochs are *unchecked*: their tasks only mark the blocks they
//! write. That covers a narrow pass, an irreversible epoch and every epoch
//! of a barrier range — barrier mode, the re-execution after a panic, the
//! roll-forward after a conflict and the degraded tail, all `num_workers`
//! threads wide. A wide pass's other epochs are *checked*: they hook their
//! signature, elision and admission step in after each task. Running
//! threads meet at one [`SpinBarrier`]: after every epoch of a barrier
//! range, and at a pass's checkpoints.
//!
//! # Failure model
//!
//! Everything that can go wrong inside the region is funnelled through the
//! same cooperative-abort machinery as ordinary misspeculation:
//!
//! * A **task panic** (organic or injected via [`FaultPlan`]) is caught at
//!   the `execute_task` call site, recorded, and converted into a
//!   poisoned-pass abort. The engine restores the last checkpoint and
//!   re-executes the range under non-speculative barriers; a *second* panic
//!   of the same task there surfaces as [`SpecError::TaskPanicked`]. A
//!   panic outside any task body — in the engine itself, or an injected
//!   checker death at an admission — is contained the same way and blamed
//!   on no task.
//! * A **misspeculation storm** (e.g. a faulty signature scheme forcing
//!   conflicts on every pass) trips the [`DegradePolicy`] thresholds and
//!   downgrades the region to barrier execution instead of thrashing on
//!   rollback, reported via [`SpecReport::degraded`].
//! * **Snapshot failures** keep the previous checkpoint (recovery just
//!   rolls back further); **restore failures** are retried once and then
//!   surface as [`SpecError::RestoreFailed`].
//! * A **watchdog deadline** ([`SpecConfig::watchdog`]) bounds every spin
//!   loop — barrier waits, checkpoint rendezvous, speculative-range gates,
//!   the wait for a pass's width, injected checker stalls — so a lost peer
//!   yields [`SpecError::WatchdogTimeout`] instead of a livelock.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::{Backoff, CachePadded};
use parking_lot::Mutex;

use crossinvoc_runtime::barrier::{BarrierWait, SpinBarrier};
use crossinvoc_runtime::fault::{CheckFault, FaultKind, FaultPlan, TaskFault};
use crossinvoc_runtime::metrics::{Metrics, MetricsSummary};
use crossinvoc_runtime::pool::{RegionExecutor, Role, ScopedExecutor};
use crossinvoc_runtime::signature::{AccessSignature, RangeSignature};
use crossinvoc_runtime::stats::{RegionStats, StatsSummary};
use crossinvoc_runtime::telemetry::RegionTelemetry;
use crossinvoc_runtime::trace::{Event, Trace, TraceCollector, TraceSink, WakeEdge, MANAGER_TID};

use crate::check::{CheckerState, Conflict};
use crate::checkpoint::{Checkpoint, DirtyBlocks};
use crate::chunk::{self, ExactRuns};
use crate::position::{Position, PositionBoard};
use crate::profile::{DistanceProfiler, ProfileReport};
use crate::workload::{AccessRecorder, CountingRecorder, SigRecorder, SpecWorkload};

/// When to give up on speculation and finish a region under plain barriers.
///
/// Rollback-and-retry is only worth it while misspeculation stays rare. When
/// it is not — a signature scheme gone pathological, a checker forcing false
/// positives, an input far from the profiled one — repeated recovery costs
/// more than the barriers SPECCROSS was built to elide. This policy draws
/// that line: exceed either threshold and the engine restores the last
/// checkpoint, runs every remaining epoch non-speculatively, and flags the
/// region via [`SpecReport::degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Number of most-recent speculative passes inspected.
    pub window: usize,
    /// Degrade when at least this many passes within the window ended in
    /// misspeculation.
    pub max_misspeculations: u32,
    /// Degrade after this many *consecutive* failed speculative attempts
    /// (passes that rolled back without completing the region).
    pub max_consecutive_failures: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        Self {
            window: 8,
            max_misspeculations: 4,
            max_consecutive_failures: 3,
        }
    }
}

/// Configuration for [`SpecCrossEngine`].
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Worker count as the thesis accounts it (§5.2: workers plus one
    /// checker). The engine's gang is `num_workers + 1` threads, and every
    /// one of them may run tasks: see [`SpecConfig::with_workers`].
    pub num_workers: usize,
    /// Take a checkpoint every this many epochs (thesis default: 1000).
    /// Must be positive; validated by [`SpecCrossEngine::execute`].
    pub checkpoint_every: usize,
    /// Speculative range in tasks, normally the profiled minimum dependence
    /// distance ([`ProfileReport::min_distance`]). `None` disables gating.
    pub spec_distance: Option<u64>,
    /// Deterministic fault schedule exercised by the region (testing).
    pub fault_plan: Option<FaultPlan>,
    /// When set, switch to non-speculative execution once speculation
    /// misbehaves persistently.
    pub degrade: Option<DegradePolicy>,
    /// Upper bound on the region's wall-clock time: every spin loop checks
    /// it, turning a lost peer into [`SpecError::WatchdogTimeout`] instead
    /// of an unbounded spin.
    pub watchdog: Option<Duration>,
    /// When set, record structured execution events into per-thread rings of
    /// this many records each, surfaced as [`SpecReport::trace`]. `None`
    /// (the default) keeps tracing off — workers then pay one predicted
    /// branch per would-be event, nothing more.
    pub trace_capacity: Option<usize>,
    /// Whether the checker may use per-epoch aggregate signatures to skip
    /// whole buckets (the PR 5 pruning fast path). `false` forces the
    /// member-by-member scan; conflict verdicts are identical either way —
    /// the differential fuzzer runs regions through both settings.
    pub epoch_summaries: bool,
    /// Whether statically-proven epochs skip the checker entirely. When set,
    /// every epoch for which [`SpecWorkload::epoch_is_proven`] returns `true`
    /// runs its tasks without signature generation and without checker
    /// admission — the `pir::elide` analysis has already proven the compared
    /// task pairs conflict-free, so the runtime check is redundant. Unproven
    /// epochs stay on the full admission path; `false` (the default) checks
    /// everything, byte-identical to the pre-elision engine.
    ///
    /// [`SpecWorkload::epoch_is_proven`]: crate::workload::SpecWorkload::epoch_is_proven
    pub elide: bool,
    /// Region-server submission id stamped on the region's trace (the
    /// `region_id` JSONL field; see `docs/OBSERVABILITY.md`). `0` (the
    /// default) marks a solo run and keeps trace output byte-identical to
    /// the pre-region schema.
    pub region_id: u64,
    /// Live telemetry cell for this region (region-server mode; see
    /// `crossinvoc_runtime::telemetry`). When set, the engine writes its
    /// metrics *through the cell* — so live registry snapshots and the
    /// final [`SpecReport::metrics`] read the same counters — and drives
    /// the cell's lifecycle (running → done/faulted, degrade events, queue
    /// waits, flight-recorder dumps). `None` (the default, solo mode) costs
    /// nothing.
    pub telemetry: Option<Arc<RegionTelemetry>>,
}

impl SpecConfig {
    /// Configuration with `num_workers` workers and thesis defaults. The
    /// region runs on a gang of `num_workers + 1` threads — the thesis'
    /// workers plus the thread its checker would take — and a pass runs up
    /// to `num_workers + 1` task-running threads: all of them when its
    /// tasks pay for the cross-core traffic, one otherwise (see the
    /// module docs, "Width").
    pub fn with_workers(num_workers: usize) -> Self {
        Self {
            num_workers,
            checkpoint_every: 1000,
            spec_distance: None,
            fault_plan: None,
            degrade: None,
            watchdog: None,
            trace_capacity: None,
            epoch_summaries: true,
            elide: false,
            region_id: 0,
            telemetry: None,
        }
    }

    /// Sets the checkpoint interval in epochs. A zero interval is rejected
    /// with [`SpecError::InvalidConfig`] when the region runs.
    pub fn checkpoint_every(mut self, epochs: usize) -> Self {
        self.checkpoint_every = epochs;
        self
    }

    /// Sets the speculative range (minimum dependence distance) in tasks.
    pub fn spec_distance(mut self, distance: Option<u64>) -> Self {
        self.spec_distance = distance;
        self
    }

    /// Installs a deterministic fault schedule (testing).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables graceful degradation with the given thresholds.
    pub fn degrade(mut self, policy: DegradePolicy) -> Self {
        self.degrade = Some(policy);
        self
    }

    /// Bounds the region's wall-clock time (liveness watchdog).
    pub fn watchdog(mut self, limit: Duration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Enables execution tracing with per-thread rings of `capacity`
    /// records (see [`SpecReport::trace`]).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables tracing with `capacity` only when tracing is off — the
    /// region server uses this to arm always-on flight-recorder rings
    /// without overriding an explicitly configured capacity.
    pub fn trace_default(mut self, capacity: usize) -> Self {
        self.trace_capacity.get_or_insert(capacity);
        self
    }

    /// Toggles the checker's per-epoch aggregate fast path (on by default).
    pub fn epoch_summaries(mut self, enabled: bool) -> Self {
        self.epoch_summaries = enabled;
        self
    }

    /// Lets statically-proven epochs skip signature generation and checker
    /// admission (off by default). See [`SpecConfig::elide`].
    pub fn elide(mut self, enabled: bool) -> Self {
        self.elide = enabled;
        self
    }

    /// Attributes the region's trace to a region-server submission id
    /// (default 0 = solo).
    pub fn region(mut self, region_id: u64) -> Self {
        self.region_id = region_id;
        self
    }

    /// Attaches a live telemetry cell (region-server mode). See
    /// [`SpecConfig::telemetry`].
    pub fn telemetry(mut self, cell: Arc<RegionTelemetry>) -> Self {
        self.telemetry = Some(cell);
        self
    }
}

/// Errors reported by the SPECCROSS engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The configuration requested zero workers.
    NoWorkers,
    /// The configuration is inconsistent (message says how).
    InvalidConfig(String),
    /// A task panicked during non-speculative (re-)execution, where no
    /// rollback can mask it. `epoch`/`task` of `u32::MAX`/`u64::MAX` mean
    /// the panic struck outside any task body.
    TaskPanicked {
        /// Epoch of the panicking task.
        epoch: u32,
        /// Index of the panicking task within its epoch.
        task: u64,
    },
    /// Restoring the recovery checkpoint failed twice.
    RestoreFailed {
        /// Epoch of the checkpoint that could not be restored.
        epoch: u32,
    },
    /// The watchdog deadline elapsed before the region completed.
    WatchdogTimeout,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoWorkers => write!(f, "at least one worker thread is required"),
            SpecError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SpecError::TaskPanicked { epoch, task } => {
                write!(
                    f,
                    "task {task} of epoch {epoch} panicked during non-speculative execution"
                )
            }
            SpecError::RestoreFailed { epoch } => {
                write!(f, "restoring the epoch-{epoch} checkpoint failed twice")
            }
            SpecError::WatchdogTimeout => write!(f, "watchdog deadline elapsed"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A fault the engine absorbed without failing the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainedFault {
    /// A task panicked during speculation; the pass was rolled back and the
    /// range re-executed non-speculatively.
    WorkerPanic {
        /// Epoch of the panicking task (`u32::MAX`: outside any task).
        epoch: u32,
        /// Task index within the epoch (`u64::MAX`: outside any task).
        task: u64,
    },
    /// A checkpoint snapshot failed; the previous checkpoint was kept, so a
    /// later rollback merely rewinds further.
    SnapshotSkipped {
        /// Epoch whose snapshot was skipped.
        epoch: u32,
    },
    /// Restoring the checkpoint failed once and succeeded on retry.
    RestoreRetried {
        /// Epoch of the checkpoint.
        epoch: u32,
    },
}

/// Outcome of a SPECCROSS execution.
#[derive(Debug, Clone)]
pub struct SpecReport {
    /// Counter snapshot (tasks, epochs, checking requests, …).
    pub stats: StatsSummary,
    /// Wall-clock time of the region.
    pub elapsed: Duration,
    /// The configured [`SpecConfig::num_workers`]; a wide pass ran one more
    /// task-running thread.
    pub num_workers: usize,
    /// Signature comparisons the checker performed.
    pub comparisons: u64,
    /// Conflicts that triggered recovery, in detection order.
    pub conflicts: Vec<Conflict>,
    /// Whether the region fell back to non-speculative barriers mid-run.
    pub degraded: bool,
    /// Checkpoint epoch from which the degraded (barrier) tail ran.
    pub degraded_at_epoch: Option<u32>,
    /// Faults absorbed without failing the region, in occurrence order.
    pub contained_faults: Vec<ContainedFault>,
    /// Counters plus wait-time histograms (exact: snapshotted after every
    /// region thread joined; see `RegionStats::snapshot`).
    pub metrics: MetricsSummary,
    /// Merged execution trace when [`SpecConfig::trace`] was enabled.
    pub trace: Option<Trace>,
}

/// The work, in nanoseconds, a chunk of the wide chunk length must carry
/// for a pass to run on every gang thread. Worker 0 times the pass's first
/// epoch alone and takes `t̂`, the smallest per-task time over its chunks
/// (the smallest, so that a cold cache or a preemption cannot widen a pass);
/// the pass widens when `K_wide · t̂ ≥ WIDE_CHUNK_NS`, `K_wide` the
/// [`chunk::chunk_len`] at `num_workers + 1` workers. Below it, the
/// cross-core traffic a second task-running thread brings (frontier and
/// position lines, the admission lock, signatures) costs more than the
/// thread adds: on 2 vCPUs the benchmark's fine kernels ran 1.4–9× slower
/// per task wide than narrow, at `K_wide · t̂` ≤ 1.8 µs, while its ≈ 1 µs
/// tasks, at ≥ 4.0 µs, ran 1.5–1.7× faster (EXPERIMENTS.md, "SPECCROSS
/// without a checker thread").
pub const WIDE_CHUNK_NS: u64 = 3_000;

/// A per-task cost at which every pass widens whatever its chunk length
/// (`K_wide · t̂ ≥ t̂ ≥ WIDE_TASK_NS > WIDE_CHUNK_NS`, since `K_wide ≥ 1`).
/// Tests of cross-worker behaviour give their tasks this much busy work
/// ([`crossinvoc_runtime::spin_for`]) rather than reaching for a width
/// override, which does not exist.
pub const WIDE_TASK_NS: u64 = 10_000;

/// A worker's task and check-request counts since its last fold. Counting
/// here keeps the per-task path off the `RegionStats` line every thread of
/// the region writes; the counts are folded in at each epoch boundary — and
/// on drop, so every way out of a worker's loop, speculative or barrier
/// (completion, abort, timeout, unwind), leaves the region's counters exact.
struct Tally<'a> {
    stats: &'a RegionStats,
    tasks: u64,
    check_requests: u64,
}

impl Tally<'_> {
    fn fold(&mut self) {
        self.stats.add_tasks(std::mem::take(&mut self.tasks));
        self.stats
            .add_check_requests(std::mem::take(&mut self.check_requests));
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.fold();
    }
}

/// What one task-running thread of a pass or a barrier range owns.
struct Worker<'a> {
    tid: usize,
    metrics: &'a Metrics,
    sink: TraceSink,
    /// Blocks this thread wrote since it last handed them over.
    dirty: DirtyBlocks,
    tally: Tally<'a>,
}

impl<'a> Worker<'a> {
    fn new(tid: usize, metrics: &'a Metrics, collector: &TraceCollector) -> Self {
        Self {
            tid,
            metrics,
            sink: collector.sink(tid),
            dirty: DirtyBlocks::new(),
            tally: Tally {
                stats: metrics.stats(),
                tasks: 0,
                check_requests: 0,
            },
        }
    }
}

/// What the chunk runner ([`Crew::run_chunk`]) does for one task besides
/// running it: which recorder the task writes into, and the step after it.
trait TaskHook {
    /// The recorder for the next task, given the worker's dirty blocks.
    fn recorder<'r>(&'r mut self, dirty: &'r mut DirtyBlocks) -> &'r mut dyn AccessRecorder;

    /// Follows `task`'s completion; `false` ends the chunk and the run.
    fn retired(&mut self, worker: &mut Worker<'_>, task: usize) -> bool;
}

/// An unchecked epoch's tasks overlap no other running task: they only mark
/// the blocks they write, and nothing follows them.
struct Unchecked;

impl TaskHook for Unchecked {
    fn recorder<'r>(&'r mut self, dirty: &'r mut DirtyBlocks) -> &'r mut dyn AccessRecorder {
        dirty
    }

    fn retired(&mut self, _: &mut Worker<'_>, _: usize) -> bool {
        true
    }
}

/// An abnormal end of a crew's run, as [`Crew::record_failure`] records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// A task body panicked (contained by the worker).
    TaskPanic { epoch: u32, task: u64 },
    /// The watchdog deadline elapsed.
    Timeout,
}

/// Outcome of one speculative pass.
enum PassEnd {
    Completed,
    Aborted {
        /// First epoch to run speculatively again; `[checkpoint_epoch,
        /// resume_epoch)` re-executes under non-speculative barriers.
        resume_epoch: usize,
        /// The crew's failure, or `None` for a conflict: an admission that
        /// detected (or was forced to report) one.
        failure: Option<Failure>,
    },
}

/// Everything a speculative pass hands back to the recovery loop.
struct PassResult<St> {
    end: PassEnd,
    comparisons: u64,
    /// The conflict that condemned the pass.
    conflict: Option<Conflict>,
    /// The checkpoint to restore on abort, and the pass's other state
    /// buffer if it took a second checkpoint; the next pass reuses both.
    checkpoint: Checkpoint<St>,
    contained: Vec<ContainedFault>,
}

/// What a region's body runs with: everything [`SpecCrossEngine::execute_on`]
/// and [`SpecCrossEngine::execute_with_barriers_on`] set up alike.
struct Frame<'a> {
    metrics: &'a Metrics,
    /// One shared fault budget for the whole execution: a single-shot fault
    /// consumed during speculation must not re-fire in recovery.
    fault: FaultPlan,
    deadline: Option<Instant>,
    collector: TraceCollector,
    exec: &'a dyn RegionExecutor,
}

/// What a region's body reports besides its counters.
#[derive(Default)]
struct Outcome {
    comparisons: u64,
    conflicts: Vec<Conflict>,
    degraded_at_epoch: Option<u32>,
    contained: Vec<ContainedFault>,
}

/// The thread-facing half of a run — a speculative pass or a barrier range:
/// what its task-running threads share to stop together and to meet.
struct Crew {
    /// Raised (by [`Crew::raise_abort`]) to end the run: a conflict, a
    /// failure or the watchdog. On a line of its own, as workers read it
    /// twice per task.
    abort: CachePadded<AtomicBool>,
    /// The run's first failure; `None` with `abort` raised means an
    /// ordinary conflict.
    failure: Mutex<Option<Failure>>,
    /// Shared-budget handle onto the execution's fault plan.
    fault: FaultPlan,
    deadline: Option<Instant>,
    /// The one rendezvous: after every epoch of a barrier range, and at a
    /// pass's checkpoints. A pass's worker 0 sets its participant count
    /// while it runs alone.
    rendezvous: SpinBarrier,
}

impl Crew {
    fn new(fault: &FaultPlan, deadline: Option<Instant>, threads: usize) -> Self {
        Self {
            abort: CachePadded::new(AtomicBool::new(false)),
            failure: Mutex::new(None),
            fault: fault.share(),
            deadline,
            rendezvous: SpinBarrier::new(threads),
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Aborts everyone: raises `abort` and wakes the peers parked at the
    /// rendezvous, so they see it now rather than after a timed park slice.
    fn raise_abort(&self) {
        self.abort.store(true, Ordering::Release);
        self.rendezvous.wake_parked();
    }

    /// Records the run's first failure and aborts everyone. Cold, so that
    /// the task loop's call in [`Crew::contained_task`] stays out of line.
    #[cold]
    fn record_failure(&self, failure: Failure) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(failure);
        }
        drop(slot);
        self.raise_abort();
    }

    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Executes one task body with fault injection and panic containment.
    /// Returns `false` if the run must abort (the failure is recorded).
    fn contained_task<W: SpecWorkload>(
        &self,
        workload: &W,
        epoch: usize,
        task: usize,
        tid: usize,
        recorder: &mut dyn AccessRecorder,
        sink: &mut TraceSink,
    ) -> bool {
        let fault = self.fault.task_start(epoch as u32, task as u64, tid);
        if let Some(f) = fault {
            sink.emit(Event::FaultInjected {
                kind: f.kind(),
                epoch: epoch as u32,
                task: task as u64,
            });
        }
        if let Some(TaskFault::Delay(d)) = fault {
            std::thread::sleep(d);
        }
        let inject = fault == Some(TaskFault::Panic);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected fault: worker panic at epoch {epoch}, task {task}");
            }
            workload.execute_task(epoch, task, tid, recorder);
        }));
        if outcome.is_err() {
            self.record_failure(Failure::TaskPanic {
                epoch: epoch as u32,
                task: task as u64,
            });
            return false;
        }
        true
    }

    /// The one task loop: runs the chunk `tasks` of `epoch` on `worker`,
    /// each task through [`Crew::contained_task`] and then `hook`, under
    /// one trace record pair — a chunk cut short retires the prefix that
    /// completed. Returns `false` if the chunk was cut short (an abort, a
    /// panic, or the hook ending the run).
    fn run_chunk<W: SpecWorkload>(
        &self,
        workload: &W,
        worker: &mut Worker<'_>,
        epoch: usize,
        tasks: Range<usize>,
        hook: &mut impl TaskHook,
    ) -> bool {
        if self.aborted() {
            return false;
        }
        worker.sink.emit(Event::TaskDispatch {
            epoch: epoch as u32,
            task: tasks.start as u64,
            count: tasks.len() as u32,
        });
        let mut done = 0u32;
        let completed = tasks.clone().all(|task| {
            if self.aborted() {
                return false;
            }
            let (tid, recorder) = (worker.tid, hook.recorder(&mut worker.dirty));
            if !self.contained_task(workload, epoch, task, tid, recorder, &mut worker.sink) {
                // A panicking task may have written anything.
                worker.dirty.mark_all();
                return false;
            }
            done += 1;
            hook.retired(worker, task)
        });
        worker.tally.tasks += u64::from(done);
        if done > 0 {
            worker.sink.emit(Event::TaskRetire {
                epoch: epoch as u32,
                task: tasks.start as u64,
                count: done,
            });
        }
        completed
    }

    /// Runs `worker`'s share of an epoch whose tasks overlap no other
    /// running task — a barrier range's epoch, a narrow pass's (`width` 1),
    /// or an irreversible one between its two rendezvous — dealt in chunks
    /// of `chunk`, with no signatures and no admission. `after_chunk` gets
    /// each completed chunk's first task. While `fastest` is given, it takes
    /// the smallest per-task time of any chunk. Returns `false` if the run
    /// must end.
    fn unchecked_epoch<W: SpecWorkload>(
        &self,
        workload: &W,
        worker: &mut Worker<'_>,
        epoch: usize,
        (chunk, width): (usize, usize),
        mut after_chunk: impl FnMut(&mut Worker<'_>, usize) -> bool,
        mut fastest: Option<&mut Option<u64>>,
    ) -> bool {
        for tasks in chunk::share(workload.num_tasks(epoch), chunk, width, worker.tid) {
            let began = fastest.is_some().then(Instant::now);
            if !self.run_chunk(workload, worker, epoch, tasks.clone(), &mut Unchecked) {
                return false;
            }
            if let (Some(fastest), Some(began)) = (fastest.as_deref_mut(), began) {
                let per_task = began.elapsed().as_nanos() as u64 / tasks.len() as u64;
                *fastest = Some(fastest.map_or(per_task, |t| t.min(per_task)));
            }
            if !after_chunk(worker, tasks.start) {
                return false;
            }
        }
        true
    }

    /// Meets the run's other threads at the rendezvous, recorded as one
    /// wait at `epoch`. With a `serial` step, the last to arrive runs it
    /// unless the run was aborted, and everyone waits again until it is
    /// done. Returns `false` if the run ended instead.
    fn meet(
        &self,
        worker: &mut Worker<'_>,
        epoch: usize,
        serial: Option<&mut dyn FnMut(&mut TraceSink)>,
    ) -> bool {
        let tid = worker.tid;
        worker.sink.emit(Event::BarrierEnter {
            epoch: epoch as u32,
        });
        let entered = Instant::now();
        let wait = || {
            self.rendezvous
                .wait_abortable(tid, &self.abort, self.deadline)
        };
        let mut outcome = wait();
        if let (Some(serial), BarrierWait::Released(last)) = (serial, outcome) {
            if last && !self.aborted() {
                serial(&mut worker.sink);
            }
            outcome = wait();
        }
        match outcome {
            BarrierWait::Released(_) => {}
            BarrierWait::Aborted => return false,
            BarrierWait::TimedOut => {
                self.record_failure(Failure::Timeout);
                return false;
            }
        }
        let wait_ns = entered.elapsed().as_nanos() as u64;
        worker.metrics.record_barrier_wait(wait_ns);
        worker.sink.emit(Event::BarrierLeave {
            epoch: epoch as u32,
            wait_ns,
        });
        let releaser = self.rendezvous.last_releaser();
        if releaser != tid {
            worker.sink.emit(Event::Wake {
                edge: WakeEdge::Barrier,
                src_tid: releaser,
                seq: epoch as u64,
            });
        }
        true
    }
}

/// The pass's checker: the one log every worker admits into, under the
/// lock around it, and how much of its fast-path counters the trace and
/// the region's stats have already been told.
struct Admission<S> {
    log: CheckerState<S>,
    reported_skips: u64,
    reported_comparisons: u64,
}

impl<S: AccessSignature> Admission<S> {
    /// Folds the fast-path counters accumulated since the last summary into
    /// `stats` and the trace, attributed to the checkpoint at `epoch` that
    /// began the interval: once per checkpoint interval and once at the end
    /// of the pass, so the flight-recorder rings see one low-volume record
    /// per interval instead of one per admit.
    fn fold_summary(&mut self, epoch: usize, stats: &RegionStats, sink: &mut TraceSink) {
        let skips = self.log.epoch_skips() - self.reported_skips;
        let comparisons = self.log.comparisons() - self.reported_comparisons;
        if skips == 0 && comparisons == 0 {
            return;
        }
        self.reported_skips = self.log.epoch_skips();
        self.reported_comparisons = self.log.comparisons();
        stats.add_checker_epoch_skips(skips);
        sink.emit(Event::CheckerSummary {
            epoch: epoch as u32,
            skips,
            comparisons,
        });
    }
}

/// Shared state of one speculative pass.
struct PassShared<St, S> {
    crew: Crew,
    board: PositionBoard,
    /// Task-running threads of the pass: 0 until worker 0 has decided, then
    /// 1 (narrow) or `num_workers + 1` (wide). Stored with `Release` after
    /// everything the joiners need (their frontiers and positions,
    /// `join_epoch`, the rendezvous' participant count). On a line of its
    /// own: the joiners poll it while worker 0 runs the first epoch.
    width: CachePadded<AtomicUsize>,
    /// The epoch the joiners of a wide pass start at.
    join_epoch: AtomicUsize,
    checker: Mutex<Admission<S>>,
    /// The first conflict an admission found (or was forced to report).
    conflict: Mutex<Option<Conflict>>,
    /// Faults absorbed during this pass.
    contained: Mutex<Vec<ContainedFault>>,
    checkpoint: Mutex<Checkpoint<St>>,
    /// Global task index of the first task of each epoch (prefix sums).
    prefix: Vec<u64>,
    /// Tasks per chunk of a wide epoch ([`chunk::chunk_len`] of the whole
    /// region at `num_workers + 1` workers) …
    chunk: usize,
    /// … and of a narrow one (at one worker).
    narrow_chunk: usize,
}

impl<St, S: AccessSignature> PassShared<St, S> {
    /// Records `conflict` as the pass's verdict unless an earlier one
    /// already is — the one the misspeculation ledger then names, from the
    /// finder's timeline — and aborts everyone.
    fn record_conflict(&self, conflict: Conflict, sink: &mut TraceSink) {
        let mut slot = self.conflict.lock();
        if slot.is_none() {
            *slot = Some(conflict);
            sink.emit(Event::Misspeculation {
                earlier_tid: conflict.earlier.0,
                earlier_epoch: conflict.earlier.1.epoch,
                earlier_task: conflict.earlier.1.task as u64,
                later_tid: conflict.later.0,
                later_epoch: conflict.later.1.epoch,
                later_task: conflict.later.1.task as u64,
            });
        }
        drop(slot);
        self.crew.raise_abort();
    }

    /// The fault plan's check site for worker `tid`'s request at `pos`,
    /// probed at every admission and once per chunk of a narrow epoch. An
    /// injected stall is slept out in slices, so that an abort — or the
    /// watchdog expiring — during it still ends the pass promptly; an
    /// injected checker death panics, to be contained like any panic
    /// outside a task body; a forced false positive becomes the pass's
    /// conflict. Returns `false` if the pass must end.
    fn probe_check(&self, tid: usize, pos: Position, sink: &mut TraceSink) -> bool {
        let Some(fault) = self.crew.fault.check(pos.epoch, pos.task as u64, tid) else {
            return true;
        };
        sink.emit(Event::FaultInjected {
            kind: fault.kind(),
            epoch: pos.epoch,
            task: pos.task as u64,
        });
        match fault {
            CheckFault::Stall(d) => {
                let until = Instant::now() + d;
                loop {
                    if self.crew.aborted() {
                        return false;
                    }
                    if self.crew.deadline_passed() {
                        self.crew.record_failure(Failure::Timeout);
                        return false;
                    }
                    let now = Instant::now();
                    if now >= until {
                        return true;
                    }
                    std::thread::sleep(Duration::from_millis(5).min(until - now));
                }
            }
            CheckFault::Die => panic!("injected fault: checker death at epoch {}", pos.epoch),
            CheckFault::ForceConflict => {
                self.record_conflict(
                    Conflict {
                        earlier: (tid, pos),
                        later: (tid, pos),
                    },
                    sink,
                );
                false
            }
        }
    }

    /// exit_task: admits worker `tid`'s exact run at `pos` — `snapshot` the
    /// board as its chunk began — into the pass's log. Returns `false` if
    /// the pass must end (a conflict, found or injected, or an abort during
    /// an injected stall).
    fn admit(
        &self,
        tid: usize,
        pos: Position,
        snapshot: &[Position],
        sig: S,
        sink: &mut TraceSink,
    ) -> bool {
        if !self.probe_check(tid, pos, sink) {
            return false;
        }
        let conflict = self.checker.lock().log.admit_parts(tid, pos, snapshot, sig);
        match conflict {
            Some(c) => {
                self.record_conflict(c, sink);
                false
            }
            None => true,
        }
    }

    /// A joiner's wait for worker 0's verdict on the pass's width: the
    /// epoch to start at if the pass widened, `None` if it stayed narrow or
    /// ended first. While it waits the joiner is the pass's watchdog, as
    /// worker 0 may be inside a task no spin loop bounds.
    fn await_join(&self) -> Option<usize> {
        let backoff = Backoff::new();
        loop {
            match self.width.load(Ordering::Acquire) {
                0 => {}
                1 => return None,
                _ => return Some(self.join_epoch.load(Ordering::Relaxed)),
            }
            if self.crew.aborted() {
                return None;
            }
            if backoff.is_completed() {
                if self.crew.deadline_passed() {
                    self.crew.record_failure(Failure::Timeout);
                    return None;
                }
                std::thread::yield_now();
            } else {
                backoff.snooze();
            }
        }
    }
}

/// A checked epoch's step after each task (exit_task): the task's signature
/// joins the chunk's open exact run, and a run that cannot grow is admitted
/// with the chunk-start snapshot. In a statically proven epoch
/// (`pir::elide`) the proof stands in for all of it: its tasks cannot
/// conflict with any compared task, so they run with a counting recorder
/// (metrics only) and are never admitted.
struct Checked<'p, St, S> {
    shared: &'p PassShared<St, S>,
    proven: bool,
    /// The board as the current chunk began …
    snapshot: &'p mut [Position],
    /// … the chunk's position, and the index of its first task.
    chunk_pos: Position,
    chunk_start: usize,
    recorder: SigRecorder<S>,
    counting: CountingRecorder,
    runs: ExactRuns<S>,
    /// Tasks of the current proven epoch with speculative accesses, and
    /// those accesses.
    elided: (u64, u64),
}

impl<St, S: AccessSignature> Checked<'_, St, S> {
    /// Admits one check request — an exact run of the chunk's signatures at
    /// task number `at` — after marking its address span dirty. `false` if
    /// the pass must end.
    fn ship(&mut self, worker: &mut Worker<'_>, (at, sig): (u32, S)) -> bool {
        worker.dirty.mark_sig(&sig);
        worker.tally.check_requests += 1;
        let pos = Position {
            epoch: self.chunk_pos.epoch,
            task: at,
        };
        self.shared
            .admit(worker.tid, pos, self.snapshot, sig, &mut worker.sink)
    }
}

impl<St, S: AccessSignature> TaskHook for Checked<'_, St, S> {
    fn recorder<'r>(&'r mut self, _: &'r mut DirtyBlocks) -> &'r mut dyn AccessRecorder {
        if self.proven {
            &mut self.counting
        } else {
            &mut self.recorder
        }
    }

    fn retired(&mut self, worker: &mut Worker<'_>, task: usize) -> bool {
        if self.proven {
            let accesses = self.counting.take();
            if accesses > 0 {
                let stats = worker.tally.stats;
                stats.add_elided_signature();
                stats.add_elided_admit();
                stats.add_proven_accesses(accesses);
                self.elided.0 += 1;
                self.elided.1 += accesses;
            }
            return true;
        }
        // A signature that cannot join the chunk's open run exactly admits
        // it and opens the next.
        let at = self.chunk_pos.task + (task - self.chunk_start) as u32;
        match self.runs.push(at, self.recorder.take()) {
            Some(run) => self.ship(worker, run),
            None => true,
        }
    }
}

/// The software-only speculative-barrier engine.
///
/// Generic over the signature scheme `S` (default: the thesis'
/// [`RangeSignature`]).
///
/// # Example
///
/// ```
/// use crossinvoc_speccross::prelude::*;
/// use crossinvoc_runtime::SharedSlice;
///
/// // 6 epochs of 8 independent tasks; task t of each epoch bumps cell t.
/// // No cross-epoch task ever touches a *different* cell, so the only
/// // cross-invocation dependences are per-cell chains — and dealing every
/// // epoch's tasks to the workers by the same block-cyclic map keeps each
/// // chain on one worker: speculation never misses.
/// struct Steps {
///     data: SharedSlice<u64>,
/// }
/// impl SpecWorkload for Steps {
///     type State = Vec<u64>;
///     fn num_epochs(&self) -> usize { 6 }
///     fn num_tasks(&self, _epoch: usize) -> usize { 8 }
///     fn execute_task(&self, _e: usize, t: usize, _tid: usize,
///                     rec: &mut dyn AccessRecorder) {
///         rec.write(t);
///         unsafe { self.data.update(t, |v| *v += 1) };
///     }
///     fn snapshot(&self) -> Vec<u64> {
///         (0..self.data.len()).map(|i| unsafe { self.data.read(i) }).collect()
///     }
///     fn restore(&self, s: &Vec<u64>) {
///         for (i, v) in s.iter().enumerate() {
///             unsafe { self.data.write(i, *v) };
///         }
///     }
/// }
///
/// let mut w = Steps { data: SharedSlice::from_vec(vec![0; 8]) };
/// let engine: SpecCrossEngine = SpecCrossEngine::new(SpecConfig::with_workers(2));
/// let report = engine.execute(&w).unwrap();
/// assert_eq!(report.stats.misspeculations, 0);
/// assert!(!report.degraded);
/// assert!(w.data.snapshot().iter().all(|&v| v == 6));
/// ```
#[derive(Debug)]
pub struct SpecCrossEngine<S = RangeSignature> {
    config: SpecConfig,
    _sig: std::marker::PhantomData<fn() -> S>,
}

impl<S: AccessSignature> SpecCrossEngine<S> {
    /// Creates an engine from `config`.
    pub fn new(config: SpecConfig) -> Self {
        Self {
            config,
            _sig: std::marker::PhantomData,
        }
    }

    /// Runs `workload` with speculative barriers, recovering from
    /// misspeculation (and contained faults — see the module docs) until the
    /// region completes or degrades to barrier execution.
    ///
    /// # Errors
    ///
    /// [`SpecError::NoWorkers`] / [`SpecError::InvalidConfig`] for a bad
    /// configuration; [`SpecError::TaskPanicked`],
    /// [`SpecError::RestoreFailed`] and
    /// [`SpecError::WatchdogTimeout`] for failures the engine could not
    /// absorb.
    pub fn execute<W: SpecWorkload>(&self, workload: &W) -> Result<SpecReport, SpecError> {
        self.execute_on(workload, &ScopedExecutor)
    }

    /// Like [`SpecCrossEngine::execute`], but running the region's gangs
    /// (`num_workers + 1` threads) on the given executor — a shared
    /// [`crossinvoc_runtime::pool::WorkerPool`] in region-server mode, or
    /// [`ScopedExecutor`] for the classic thread-per-role behaviour. The
    /// calling thread stays the region's manager either way; all per-region
    /// state (checker logs, checkpoints, metrics, trace sinks, fault budget)
    /// lives in this call frame, so concurrent regions on one pool cannot
    /// observe each other.
    pub fn execute_on<W: SpecWorkload>(
        &self,
        workload: &W,
        exec: &dyn RegionExecutor,
    ) -> Result<SpecReport, SpecError> {
        self.region(exec, self.config.num_workers + 1, |frame| {
            let mut manager_sink = frame.collector.sink(MANAGER_TID);
            let outcome = self.speculate(workload, frame, &mut manager_sink);
            frame.collector.absorb(manager_sink);
            outcome
        })
    }

    /// Executes `workload` entirely under non-speculative barriers — the
    /// `pthread_barrier` baseline of Figs. 5.1/5.2 and the NON-SPECULATIVE
    /// mode of Table 4.1.
    ///
    /// # Errors
    ///
    /// Configuration errors as for [`SpecCrossEngine::execute`];
    /// [`SpecError::TaskPanicked`] if a task panics (barrier mode has no
    /// rollback to absorb it); [`SpecError::WatchdogTimeout`] on deadline.
    pub fn execute_with_barriers<W: SpecWorkload>(
        &self,
        workload: &W,
    ) -> Result<SpecReport, SpecError> {
        self.execute_with_barriers_on(workload, &ScopedExecutor)
    }

    /// Like [`SpecCrossEngine::execute_with_barriers`], but running the
    /// worker gang on the given executor (see
    /// [`SpecCrossEngine::execute_on`]). Barrier mode has no checker, so the
    /// gang demand is `num_workers` alone.
    pub fn execute_with_barriers_on<W: SpecWorkload>(
        &self,
        workload: &W,
        exec: &dyn RegionExecutor,
    ) -> Result<SpecReport, SpecError> {
        self.region(exec, self.config.num_workers, |frame| {
            self.run_barrier_range(workload, frame, 0, workload.num_epochs())?;
            Ok(Outcome::default())
        })
    }

    /// The region frame both entry points share: validates the
    /// configuration against a gang of `demand` threads, sets up the
    /// metrics (in the telemetry cell, in region-server mode), fault budget,
    /// watchdog and trace, runs `body`, and reports — or fails the
    /// telemetry cell with the trace that led to the error.
    fn region(
        &self,
        exec: &dyn RegionExecutor,
        demand: usize,
        body: impl FnOnce(&Frame<'_>) -> Result<Outcome, SpecError>,
    ) -> Result<SpecReport, SpecError> {
        if self.config.num_workers == 0 {
            return Err(SpecError::NoWorkers);
        }
        if self.config.checkpoint_every == 0 {
            return Err(SpecError::InvalidConfig(
                "checkpoint interval must be positive".to_string(),
            ));
        }
        // A region wider than the executor's gang capacity could never be
        // admitted (and would wedge a shared pool's FIFO queue).
        if let Some(cap) = exec.capacity().filter(|&cap| demand > cap) {
            return Err(SpecError::InvalidConfig(format!(
                "region needs a gang of {demand} threads but the executor caps gangs at {cap}"
            )));
        }
        let fault = self.config.fault_plan.clone().unwrap_or_default();
        let deadline = self.config.watchdog.map(|w| Instant::now() + w);
        let telemetry = self.config.telemetry.as_deref();
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
                self.config.trace_capacity.unwrap_or(0),
                self.config.region_id,
            ),
            exec,
        };
        let outcome = body(&frame);
        let elapsed = start.elapsed();
        let trace = frame.collector.finish();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => {
                // Hard failure: deposit the trace with the telemetry cell
                // so the flight recorder can dump the window that led here.
                if let Some(cell) = telemetry {
                    cell.fail(trace.as_ref());
                }
                return Err(err);
            }
        };
        // Every region thread has joined (thread::scope or pool latch) by
        // this point, so the snapshot is exact per the RegionStats ordering
        // contract.
        let metrics = metrics.snapshot();
        let degraded = outcome.degraded_at_epoch.is_some();
        if let Some(cell) = telemetry {
            cell.complete(outcome.contained.len() as u64, degraded, trace.as_ref());
        }
        Ok(SpecReport {
            stats: metrics.stats,
            elapsed,
            num_workers: self.config.num_workers,
            comparisons: outcome.comparisons,
            conflicts: outcome.conflicts,
            degraded,
            degraded_at_epoch: outcome.degraded_at_epoch,
            contained_faults: outcome.contained,
            metrics,
            trace,
        })
    }

    /// The recovery loop: speculative passes from `start_epoch` on, each
    /// abort restored and its range re-executed under barriers, until the
    /// region completes or degrades to barrier execution.
    fn speculate<W: SpecWorkload>(
        &self,
        workload: &W,
        frame: &Frame<'_>,
        manager_sink: &mut TraceSink,
    ) -> Result<Outcome, SpecError> {
        let stats = frame.metrics.stats();
        let mut out = Outcome::default();
        // Degradation bookkeeping: recent pass outcomes + consecutive fails.
        let mut recent = VecDeque::new();
        let mut consecutive_failures = 0u32;
        let mut start_epoch = 0usize;
        let num_epochs = workload.num_epochs();
        // State buffers of the previous pass, for the next one to checkpoint
        // into.
        let mut recycled = None;
        while start_epoch < num_epochs {
            let mut pass = self.speculative_pass(workload, frame, start_epoch, recycled.take());
            out.comparisons += pass.comparisons;
            out.contained.extend(pass.contained.iter().copied());

            let (resume_epoch, failure) = match pass.end {
                PassEnd::Completed => break,
                PassEnd::Aborted {
                    resume_epoch,
                    failure,
                } => (resume_epoch, failure),
            };
            consecutive_failures += 1;
            if let Some(policy) = self.config.degrade {
                recent.push_back(failure.is_none());
                while recent.len() > policy.window {
                    recent.pop_front();
                }
            }

            match failure {
                Some(Failure::Timeout) => return Err(SpecError::WatchdogTimeout),
                // Re-executed non-speculatively below; a repeat panic there
                // is no longer maskable and surfaces as TaskPanicked.
                Some(Failure::TaskPanic { epoch, task }) => {
                    out.contained
                        .push(ContainedFault::WorkerPanic { epoch, task });
                    self.restore_with_retry(workload, &mut pass.checkpoint, frame, &mut out)?;
                }
                None => {
                    stats.add_misspeculation();
                    out.conflicts.extend(pass.conflict);
                    self.restore_with_retry(workload, &mut pass.checkpoint, frame, &mut out)?;
                    let give_up = self.config.degrade.is_some_and(|policy| {
                        let in_window = recent.iter().filter(|&&m| m).count() as u32;
                        in_window >= policy.max_misspeculations
                            || consecutive_failures >= policy.max_consecutive_failures
                    });
                    if give_up {
                        let epoch = pass.checkpoint.epoch();
                        manager_sink.emit(Event::Degradation {
                            epoch: epoch as u32,
                        });
                        if let Some(cell) = self.config.telemetry.as_deref() {
                            cell.add_degrade_event();
                        }
                        self.run_barrier_range(workload, frame, epoch, num_epochs)?;
                        out.degraded_at_epoch = Some(epoch as u32);
                        break;
                    }
                    // Roll forward the misspeculated epochs with real
                    // barriers (§4.2.2), then speculate again.
                }
            }
            let written =
                self.run_barrier_range(workload, frame, pass.checkpoint.epoch(), resume_epoch)?;
            pass.checkpoint.fold(&written);
            start_epoch = resume_epoch;
            recycled = Some(pass.checkpoint);
        }
        Ok(out)
    }

    /// Restores the pass checkpoint, retrying once if the restore itself is
    /// scheduled to fail; a second failure is terminal.
    fn restore_with_retry<W: SpecWorkload>(
        &self,
        workload: &W,
        checkpoint: &mut Checkpoint<W::State>,
        frame: &Frame<'_>,
        out: &mut Outcome,
    ) -> Result<(), SpecError> {
        let epoch = checkpoint.epoch() as u32;
        if frame.fault.restore_fails(epoch) {
            out.contained.push(ContainedFault::RestoreRetried { epoch });
            if frame.fault.restore_fails(epoch) {
                return Err(SpecError::RestoreFailed { epoch });
            }
        }
        let copied = checkpoint.roll_back(workload);
        frame.metrics.stats().add_checkpoint_blocks(copied as u64);
        Ok(())
    }

    /// Profiles `workload` sequentially, returning the minimum cross-epoch
    /// dependence distance (§4.4). `window_epochs` bounds how far apart
    /// conflicting epochs may be to be observed (Table 5.3 used the whole
    /// program; a window of a few epochs is sufficient for every workload in
    /// the suite). Each task is compared against at most `window_epochs`
    /// epoch summaries, the 16-task block summaries of the epochs it
    /// overlaps and the members of the blocks it overlaps, stopping at its
    /// nearest conflict ([`DistanceProfiler`]): at worst, when every summary
    /// overlaps and no member conflicts, every task of the window.
    pub fn profile<W: SpecWorkload>(workload: &W, window_epochs: u32) -> ProfileReport {
        let mut profiler = DistanceProfiler::<S>::new(window_epochs);
        let mut recorder = SigRecorder::<S>::new();
        for epoch in 0..workload.num_epochs() {
            for task in 0..workload.num_tasks(epoch) {
                workload.execute_task(epoch, task, 0, &mut recorder);
                profiler.record_task(recorder.take());
            }
            profiler.epoch_boundary();
        }
        profiler.report()
    }

    /// Runs one gang of `roles` on the region's executor.
    fn run_gang(&self, exec: &dyn RegionExecutor, roles: Vec<Role<'_>>) {
        let gang_stats = exec.run_gang(roles, Box::new(|| {}));
        if let Some(cell) = self.config.telemetry.as_deref() {
            cell.add_queue_wait(gang_stats.queue_wait_ns);
        }
    }

    /// One speculative attempt from `start_epoch`.
    fn speculative_pass<W: SpecWorkload>(
        &self,
        workload: &W,
        frame: &Frame<'_>,
        start_epoch: usize,
        recycled: Option<Checkpoint<W::State>>,
    ) -> PassResult<W::State> {
        let (metrics, collector) = (frame.metrics, &frame.collector);
        let stats = metrics.stats();
        let gang = self.config.num_workers + 1;
        let num_epochs = workload.num_epochs();
        let mut prefix = Vec::with_capacity(num_epochs + 1);
        let mut acc = 0u64;
        for e in 0..num_epochs {
            prefix.push(acc);
            acc += workload.num_tasks(e) as u64;
        }
        prefix.push(acc);

        // The first pass of an execution copies the whole state; a pass
        // after a recovery refreshes the previous pass's durable buffer.
        let checkpoint = match recycled {
            Some(mut checkpoint) => {
                stats.add_checkpoint_blocks(checkpoint.restart(workload, start_epoch) as u64);
                checkpoint
            }
            None => Checkpoint::new(workload, start_epoch),
        };
        let chunk_at =
            |workers| chunk::chunk_len(acc, num_epochs, workers, self.config.spec_distance);
        let shared = PassShared {
            crew: Crew::new(&frame.fault, frame.deadline, gang),
            board: PositionBoard::new(gang),
            width: CachePadded::new(AtomicUsize::new(0)),
            join_epoch: AtomicUsize::new(0),
            checker: Mutex::new(Admission {
                log: CheckerState::with_aggregates(gang, self.config.epoch_summaries),
                reported_skips: 0,
                reported_comparisons: 0,
            }),
            conflict: Mutex::new(None),
            contained: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(checkpoint),
            prefix,
            chunk: chunk_at(gang),
            narrow_chunk: chunk_at(1),
        };
        // Worker 0 starts alone.
        shared.crew.rendezvous.set_num_threads(1);
        stats.add_checkpoint();
        // The manager's records of the pass: this checkpoint, and the
        // log's last summary once the gang has joined.
        let mut pass_sink = collector.sink(MANAGER_TID);
        pass_sink.emit(Event::Checkpoint {
            epoch: start_epoch as u32,
        });

        // Each worker's start-time snapshot buffer, allocated here so that
        // the gang's threads allocate nothing for it.
        let mut snapshots = vec![Position::ZERO; gang * gang];
        let shared_ref = &shared;
        // The whole worker loop runs under catch_unwind so a panic anywhere
        // in a worker poisons the pass instead of killing the gang (and on a
        // shared pool, neighbouring regions).
        let roles = snapshots
            .chunks_mut(gang)
            .enumerate()
            .map(|(tid, snapshot)| -> Role<'_> {
                let shared = shared_ref;
                Box::new(move || {
                    // Outside the unwind boundary, so that a pass that
                    // dies still reports what it wrote.
                    let mut worker = Worker::new(tid, metrics, collector);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        self.worker_pass(workload, shared, &mut worker, start_epoch, snapshot);
                    }));
                    collector.absorb(worker.sink);
                    if outcome.is_err() {
                        // A panic that escaped the per-task containment:
                        // engine-internal or an injected checker death, so
                        // no task coordinate to blame, and no account of
                        // what it wrote.
                        worker.dirty.mark_all();
                        shared.crew.record_failure(Failure::TaskPanic {
                            epoch: u32::MAX,
                            task: u64::MAX,
                        });
                    }
                    if tid == 0 {
                        // Worker 0 left before deciding the width (the pass
                        // ended first): the joiners stay out.
                        let _ = shared.width.compare_exchange(
                            0,
                            1,
                            Ordering::Release,
                            Ordering::Relaxed,
                        );
                    }
                    shared.checkpoint.lock().fold(&worker.dirty);
                    // A finished worker never gates anyone again.
                    shared.board.set_frontier(tid, u64::MAX);
                })
            })
            .collect();
        self.run_gang(frame.exec, roles);

        let resume_epoch = (shared.board.max_epoch() as usize + 1)
            .max(start_epoch + 1)
            .min(num_epochs);
        // Every failure raised `abort`; `abort` alone is a conflict.
        let end = if shared.crew.aborted() {
            PassEnd::Aborted {
                resume_epoch,
                failure: shared.crew.failure.lock().take(),
            }
        } else {
            PassEnd::Completed
        };

        // Every gang thread has joined: the pass's state is ours again.
        let checkpoint = shared.checkpoint.into_inner();
        // Whatever the log accrued since the last checkpoint still needs
        // surfacing.
        let mut admission = shared.checker.into_inner();
        admission.fold_summary(checkpoint.epoch(), stats, &mut pass_sink);
        collector.absorb(pass_sink);
        PassResult {
            end,
            comparisons: admission.log.comparisons(),
            conflict: shared.conflict.into_inner(),
            checkpoint,
            contained: shared.contained.into_inner(),
        }
    }

    /// The per-worker driver (Fig. 4.7's worker pseudo-code, plus the
    /// checkpoint rendezvous, misspeculation polling and the pass's width:
    /// worker 0 starts alone, and the others run only if it widens the
    /// pass).
    fn worker_pass<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State, S>,
        worker: &mut Worker<'_>,
        start_epoch: usize,
        snapshot: &mut [Position],
    ) {
        let crew = &shared.crew;
        let (tid, metrics) = (worker.tid, worker.metrics);
        let stats = metrics.stats();
        let gang = self.config.num_workers + 1;
        let num_epochs = workload.num_epochs();
        let (mut width, first_epoch) = if tid == 0 {
            (1, start_epoch)
        } else {
            match shared.await_join() {
                Some(epoch) => (gang, epoch),
                None => return,
            }
        };
        // Worker 0 decides the width, from the smallest per-task time of
        // the epochs it ran alone so far.
        let mut deciding = tid == 0;
        let mut fastest: Option<u64> = None;
        let mut checked = Checked {
            shared,
            proven: false,
            snapshot,
            chunk_pos: Position::ZERO,
            chunk_start: 0,
            recorder: SigRecorder::new(),
            counting: CountingRecorder::default(),
            runs: ExactRuns::default(),
            elided: (0, 0),
        };

        for epoch in first_epoch..num_epochs {
            if crew.aborted() {
                return;
            }
            let irreversible = workload.epoch_is_irreversible(epoch);
            let periodic = epoch > start_epoch
                && (epoch - start_epoch).is_multiple_of(self.config.checkpoint_every);
            // Synchronize and snapshot (§4.2.2).
            if (irreversible || periodic)
                && !self.checkpoint_rendezvous(workload, shared, worker, epoch)
            {
                return; // aborted by misspeculation / fault / timeout
            }

            // enter_barrier: cross the invocation boundary speculatively.
            shared.board.set_position(
                tid,
                Position {
                    epoch: epoch as u32,
                    task: 0,
                },
            );
            if tid == 0 {
                stats.add_epoch();
                worker.sink.emit(Event::EpochBegin {
                    epoch: epoch as u32,
                });
            }

            if width == 1 || irreversible {
                // Alone in the epoch, a worker's task number is the task's
                // index; the check site is probed once per chunk, so that
                // injected false positives fire in narrow passes too.
                let probe = |worker: &mut Worker<'_>, first: usize| {
                    let pos = Position {
                        epoch: epoch as u32,
                        task: first as u32,
                    };
                    irreversible || shared.probe_check(worker.tid, pos, &mut worker.sink)
                };
                let deal = match width {
                    1 => (shared.narrow_chunk, 1),
                    _ => (shared.chunk, gang),
                };
                let timing = deciding.then_some(&mut fastest);
                if !crew.unchecked_epoch(workload, worker, epoch, deal, probe, timing) {
                    return;
                }
                worker.tally.fold();
                if irreversible {
                    // Checkpoint straight after: nothing may roll it back.
                    if !self.checkpoint_rendezvous(workload, shared, worker, epoch + 1) {
                        return;
                    }
                } else if tid == 0 {
                    worker.sink.emit(Event::EpochEnd {
                        epoch: epoch as u32,
                    });
                }
                if let (true, Some(fastest)) = (deciding, fastest) {
                    deciding = false;
                    width = self.widen(shared, epoch, fastest, num_epochs, stats);
                }
                continue;
            }

            // Static elision (`pir::elide`). Positions and frontiers still
            // advance exactly as on the full path — unproven tasks'
            // snapshots must keep observing this worker's progress.
            checked.proven = self.config.elide && workload.epoch_is_proven(epoch);
            checked.elided = (0, 0);
            if checked.proven {
                // No signature, so no span: the next copies are full.
                worker.dirty.mark_all();
            }

            // Tasks of this epoch started so far (the position's task number).
            let mut local_counter = 0u32;
            for tasks in chunk::share(workload.num_tasks(epoch), shared.chunk, gang, tid) {
                // enter_task, once per chunk: publish the frontier (the
                // chunk's first task, this worker's smallest unfinished one),
                // then gate the chunk's *last* task on the speculative range,
                // which puts every task of the chunk inside it.
                shared
                    .board
                    .set_frontier(tid, shared.prefix[epoch] + tasks.start as u64);
                if let Some(distance) = self.config.spec_distance {
                    let last = shared.prefix[epoch] + tasks.end as u64 - 1;
                    let mut stalled_at: Option<Instant> = None;
                    let backoff = Backoff::new();
                    while let Some(min) = shared.board.min_other_frontier(tid) {
                        // Strict: any still-unfinished task g1 satisfies
                        // g1 >= min, so last - g1 < distance — closer than
                        // the closest profiled dependence, hence safe.
                        if last < min.saturating_add(distance) {
                            break;
                        }
                        if crew.aborted() {
                            return;
                        }
                        if stalled_at.is_none() {
                            stalled_at = Some(Instant::now());
                            stats.add_stall();
                        }
                        if backoff.is_completed() {
                            if crew.deadline_passed() {
                                crew.record_failure(Failure::Timeout);
                                return;
                            }
                            std::thread::yield_now();
                        } else {
                            backoff.snooze();
                        }
                    }
                    if let Some(since) = stalled_at {
                        metrics.record_stall_wait(since.elapsed().as_nanos() as u64);
                    }
                }
                // Positions count tasks but move at chunk boundaries only,
                // and the whole chunk shares one start-time snapshot: both
                // can make a peer look less retired than it was when a task
                // began — more pairs compared — and never more.
                let pos = Position {
                    epoch: epoch as u32,
                    task: local_counter,
                };
                shared.board.set_position(tid, pos);
                if !checked.proven {
                    shared.board.snapshot_into(checked.snapshot);
                }
                (checked.chunk_pos, checked.chunk_start) = (pos, tasks.start);
                if !crew.run_chunk(workload, worker, epoch, tasks.clone(), &mut checked) {
                    // The open run and a task cut short by a panic were
                    // never admitted, but what they wrote is in memory.
                    if let Some((_, sig)) = checked.runs.finish() {
                        worker.dirty.mark_sig(&sig);
                    }
                    worker.dirty.mark_sig(&checked.recorder.take());
                    return;
                }
                if let (false, Some(run)) = (checked.proven, checked.runs.finish()) {
                    if !checked.ship(worker, run) {
                        return;
                    }
                }
                // Advance the position past the completed chunk so that
                // later-starting tasks' snapshots observe it as retired;
                // leaving it at the started coordinate would make every
                // finished-but-idle worker look like a racing overlap.
                local_counter += tasks.len() as u32;
                shared.board.set_position(
                    tid,
                    Position {
                        epoch: epoch as u32,
                        task: local_counter,
                    },
                );
            }
            worker.tally.fold();
            if let (tasks @ 1.., accesses) = checked.elided {
                // Once per (worker, epoch): how much admission work the
                // static proof saved on this worker.
                worker.sink.emit(Event::CheckElided {
                    epoch: epoch as u32,
                    tasks,
                    accesses,
                });
            }
            if tid == 0 {
                worker.sink.emit(Event::EpochEnd {
                    epoch: epoch as u32,
                });
            }
        }
    }

    /// Worker 0's verdict on the pass's width, once it has timed a chunk:
    /// `fastest` is the smallest per-task time of the epochs it ran alone,
    /// up to `epoch`. Wide when a wide chunk of such tasks carries
    /// [`WIDE_CHUNK_NS`] and an epoch is left to widen into. A wide verdict
    /// first hands the joiners all they start from — every frontier at the
    /// next epoch's first task, their positions at its start, the
    /// rendezvous' participant count — and only then publishes the width
    /// (`Release`): a joiner whose frontier is not yet set gates no one, and
    /// worker 0 would run ungated past it. Returns the width.
    fn widen<St>(
        &self,
        shared: &PassShared<St, S>,
        epoch: usize,
        fastest: u64,
        num_epochs: usize,
        stats: &RegionStats,
    ) -> usize {
        let next = epoch + 1;
        if next >= num_epochs || (shared.chunk as u64).saturating_mul(fastest) < WIDE_CHUNK_NS {
            shared.width.store(1, Ordering::Release);
            return 1;
        }
        let gang = self.config.num_workers + 1;
        for tid in 0..gang {
            shared.board.set_frontier(tid, shared.prefix[next]);
            if tid > 0 {
                let start = Position {
                    epoch: next as u32,
                    task: 0,
                };
                shared.board.set_position(tid, start);
            }
        }
        shared.crew.rendezvous.set_num_threads(gang);
        shared.join_epoch.store(next, Ordering::Relaxed);
        shared.width.store(gang, Ordering::Release);
        stats.add_wide_pass();
        gang
    }

    /// Rendezvous of the pass's running workers, then the serial worker
    /// snapshots the workload as the new checkpoint and retires the log
    /// below it. Returns `false` if the pass was aborted (misspeculation,
    /// fault, or timeout).
    fn checkpoint_rendezvous<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State, S>,
        worker: &mut Worker<'_>,
        epoch: usize,
    ) -> bool {
        let stats = worker.metrics.stats();
        // Hand over the blocks written since the last rendezvous before
        // arriving: once everyone has, the serial worker's refresh sees
        // them all.
        shared.checkpoint.lock().fold(&worker.dirty);
        worker.dirty.clear();
        // While parked here this worker's frontier must not gate leaders
        // forever: everything below `epoch` is finished, so advertise the
        // epoch's first global task index (every not-yet-arrived worker's
        // next task is below it, so none of them can be gated by us).
        shared.board.set_frontier(worker.tid, shared.prefix[epoch]);
        // Every worker admits its own requests before arriving, so the log
        // is complete at the serial step: the snapshot is known-good
        // (§4.2.2) unless an admission aborted the pass.
        let mut snapshot = |sink: &mut TraceSink| {
            if shared.crew.fault.snapshot_fails(epoch as u32) {
                sink.emit(Event::FaultInjected {
                    kind: FaultKind::SnapshotFail,
                    epoch: epoch as u32,
                    task: 0,
                });
                // Keep the previous checkpoint: correctness is unaffected,
                // a later rollback just rewinds further.
                let skipped = ContainedFault::SnapshotSkipped {
                    epoch: epoch as u32,
                };
                shared.contained.lock().push(skipped);
                return;
            }
            let copied = shared.checkpoint.lock().advance(workload, epoch);
            stats.add_checkpoint();
            stats.add_checkpoint_blocks(copied as u64);
            sink.emit(Event::Checkpoint {
                epoch: epoch as u32,
            });
            // Every worker is parked here with its admissions done: nothing
            // logged before `epoch` can race with anything after it.
            let mut checker = shared.checker.lock();
            checker.log.retire_before(epoch as u32);
            checker.fold_summary(epoch, stats, sink);
        };
        shared.crew.meet(worker, epoch, Some(&mut snapshot))
    }

    /// Executes epochs `[from, to)` under non-speculative barriers: each of
    /// `num_workers` threads runs its share of every epoch as an unchecked
    /// epoch and meets the others at the rendezvous after it. The task-level
    /// panic containment is the speculative path's, but here there is no
    /// checkpoint to rescue a panicking task, so the first panic fails the
    /// range with [`SpecError::TaskPanicked`]. Returns the blocks the range
    /// wrote.
    fn run_barrier_range<W: SpecWorkload>(
        &self,
        workload: &W,
        frame: &Frame<'_>,
        from: usize,
        to: usize,
    ) -> Result<DirtyBlocks, SpecError> {
        if from >= to {
            return Ok(DirtyBlocks::new());
        }
        let num_workers = self.config.num_workers;
        // Same region, same configuration: the speculative passes' map.
        let chunk = chunk::chunk_len(
            workload.total_tasks(),
            workload.num_epochs(),
            num_workers,
            self.config.spec_distance,
        );
        let crew = Crew::new(&frame.fault, frame.deadline, num_workers);
        let written = Mutex::new(DirtyBlocks::new());
        let (crew_ref, written_ref) = (&crew, &written);
        let roles = (0..num_workers)
            .map(|tid| -> Role<'_> {
                let (crew, written) = (crew_ref, written_ref);
                Box::new(move || {
                    let mut worker = Worker::new(tid, frame.metrics, &frame.collector);
                    let completed = (from..to).all(|epoch| {
                        if tid == 0 {
                            frame.metrics.stats().add_epoch();
                            worker.sink.emit(Event::EpochBegin {
                                epoch: epoch as u32,
                            });
                        }
                        let deal = (chunk, num_workers);
                        let ran = crew.unchecked_epoch(
                            workload,
                            &mut worker,
                            epoch,
                            deal,
                            |_, _| true,
                            None,
                        );
                        worker.tally.fold();
                        ran && crew.meet(&mut worker, epoch, None)
                    });
                    // An incomplete range fails and discards `written`.
                    if completed {
                        written.lock().union(&worker.dirty);
                    }
                    frame.collector.absorb(worker.sink);
                })
            })
            .collect();
        self.run_gang(frame.exec, roles);
        match crew.failure.into_inner() {
            None => Ok(written.into_inner()),
            Some(Failure::TaskPanic { epoch, task }) => {
                Err(SpecError::TaskPanicked { epoch, task })
            }
            Some(Failure::Timeout) => Err(SpecError::WatchdogTimeout),
        }
    }
}
