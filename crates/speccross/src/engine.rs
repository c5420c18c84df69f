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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::{Backoff, CachePadded};
use parking_lot::Mutex;

use crossinvoc_runtime::barrier::BarrierWait;
use crossinvoc_runtime::fault::{CheckFault, FaultKind, FaultPlan, TaskFault};
use crossinvoc_runtime::metrics::{Metrics, MetricsSummary};
use crossinvoc_runtime::pool::{RegionExecutor, Role, ScopedExecutor};
use crossinvoc_runtime::signature::{AccessSignature, RangeSignature};
use crossinvoc_runtime::stats::{RegionStats, StatsSummary};
use crossinvoc_runtime::telemetry::RegionTelemetry;
use crossinvoc_runtime::trace::{Event, Trace, TraceCollector, TraceSink, WakeEdge, MANAGER_TID};
use crossinvoc_runtime::SpinBarrier;

use crate::check::{CheckerState, Conflict};
use crate::checkpoint::{Checkpoint, DirtyBlocks};
use crate::chunk::{self, ExactRuns};
use crate::position::{Position, PositionBoard};
use crate::profile::{DistanceProfiler, ProfileReport};
use crate::workload::{CountingRecorder, SigRecorder, SpecWorkload};

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

/// Closes a chunk's trace record: one `TaskRetire` for the `done` tasks that
/// completed from `start` on — all of them, or the prefix before a panic or
/// abort cut the chunk short (none: no record).
fn retire_prefix(sink: &mut TraceSink, epoch: usize, start: usize, done: u32) {
    if done > 0 {
        sink.emit(Event::TaskRetire {
            epoch: epoch as u32,
            task: start as u64,
            count: done,
        });
    }
}

/// Why a speculative pass aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortReason {
    /// An admission detected (or was forced to report) a conflict.
    Conflict,
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
        reason: AbortReason,
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

/// Interruptible rendezvous used at checkpoints.
///
/// Like a barrier, but every wait polls the misspeculation flag and the
/// watchdog deadline: when either trips, all participants abandon the pass
/// (the structure is discarded with the pass, so the dirty counter is
/// harmless).
struct SyncPoint {
    /// Participants: the pass's width. Set by worker 0 while it is the only
    /// one, and published to the others by the width's `Release`.
    n: AtomicUsize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Worker id of the last arrival of the most recent release — the
    /// source of the checkpoint-release causality edge. Written before the
    /// generation bump, so a released waiter reads its own generation's
    /// releaser.
    releaser: AtomicUsize,
}

enum WaitOutcome {
    /// Released; `true` on the serial (last-arriving) participant.
    Released(bool),
    Aborted,
    TimedOut,
}

impl SyncPoint {
    fn new(n: usize) -> Self {
        Self {
            n: AtomicUsize::new(n),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            releaser: AtomicUsize::new(0),
        }
    }

    /// Worker id of the last arrival that performed the most recent
    /// release. Race-free for a waiter reading it right after its own
    /// released wait (the store precedes the generation bump).
    fn last_releaser(&self) -> usize {
        self.releaser.load(Ordering::Relaxed)
    }

    fn wait(&self, tid: usize, abort: &AtomicBool, deadline: Option<Instant>) -> WaitOutcome {
        if abort.load(Ordering::Acquire) {
            return WaitOutcome::Aborted;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n.load(Ordering::Relaxed) {
            self.arrived.store(0, Ordering::Relaxed);
            self.releaser.store(tid, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::Release);
            WaitOutcome::Released(true)
        } else {
            let backoff = Backoff::new();
            loop {
                if self.generation.load(Ordering::Acquire) != gen {
                    return WaitOutcome::Released(false);
                }
                if abort.load(Ordering::Acquire) {
                    return WaitOutcome::Aborted;
                }
                if backoff.is_completed() {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return WaitOutcome::TimedOut;
                    }
                    std::thread::yield_now();
                } else {
                    backoff.snooze();
                }
            }
        }
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
    board: PositionBoard,
    // `misspec` and `width` are each on a line of their own: workers read
    // `misspec` twice per task, and the joiners poll `width` while worker 0
    // runs the first epoch.
    misspec: CachePadded<AtomicBool>,
    /// Task-running threads of the pass: 0 until worker 0 has decided, then
    /// 1 (narrow) or `num_workers + 1` (wide). Stored with `Release` after
    /// everything the joiners need (their frontiers and positions,
    /// `join_epoch`, the rendezvous' participant count).
    width: CachePadded<AtomicUsize>,
    /// The epoch the joiners of a wide pass start at.
    join_epoch: AtomicUsize,
    checker: Mutex<Admission<S>>,
    /// The first conflict an admission found (or was forced to report).
    conflict: Mutex<Option<Conflict>>,
    /// First abnormal-abort reason (panic, timeout); `None` with `misspec`
    /// raised means an ordinary conflict.
    failure: Mutex<Option<AbortReason>>,
    /// Faults absorbed during this pass.
    contained: Mutex<Vec<ContainedFault>>,
    checkpoint: Mutex<Checkpoint<St>>,
    sync: SyncPoint,
    /// Shared-budget handle onto the execution's fault plan.
    fault: FaultPlan,
    deadline: Option<Instant>,
    /// Global task index of the first task of each epoch (prefix sums).
    prefix: Vec<u64>,
    /// Tasks per chunk of a wide epoch ([`chunk::chunk_len`] of the whole
    /// region at `num_workers + 1` workers) …
    chunk: usize,
    /// … and of a narrow one (at one worker).
    narrow_chunk: usize,
}

impl<St, S: AccessSignature> PassShared<St, S> {
    /// Records the pass's first abnormal failure and aborts everyone.
    fn record_failure(&self, reason: AbortReason) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        self.misspec.store(true, Ordering::Release);
    }

    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

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
        self.misspec.store(true, Ordering::Release);
    }

    /// The fault plan's check site for worker `tid`'s request at `pos`,
    /// probed at every admission and once per chunk of a narrow epoch. An
    /// injected stall is slept out in slices, so that an abort — or the
    /// watchdog expiring — during it still ends the pass promptly; an
    /// injected checker death panics, to be contained like any panic
    /// outside a task body; a forced false positive becomes the pass's
    /// conflict. Returns `false` if the pass must end.
    fn probe_check(&self, tid: usize, pos: Position, sink: &mut TraceSink) -> bool {
        let Some(fault) = self.fault.check(pos.epoch, pos.task as u64, tid) else {
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
                    if self.misspec.load(Ordering::Acquire) {
                        return false;
                    }
                    if self.deadline_passed() {
                        self.record_failure(AbortReason::Timeout);
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
            if self.misspec.load(Ordering::Acquire) {
                return None;
            }
            if backoff.is_completed() {
                if self.deadline_passed() {
                    self.record_failure(AbortReason::Timeout);
                    return None;
                }
                std::thread::yield_now();
            } else {
                backoff.snooze();
            }
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

    fn validate(&self) -> Result<(), SpecError> {
        if self.config.num_workers == 0 {
            return Err(SpecError::NoWorkers);
        }
        if self.config.checkpoint_every == 0 {
            return Err(SpecError::InvalidConfig(
                "checkpoint interval must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// A region wider than the executor's gang capacity could never be
    /// admitted (and would wedge a shared pool's FIFO queue), so it is
    /// rejected up front as a configuration error.
    fn validate_capacity(&self, exec: &dyn RegionExecutor, demand: usize) -> Result<(), SpecError> {
        if let Some(cap) = exec.capacity() {
            if demand > cap {
                return Err(SpecError::InvalidConfig(format!(
                    "region needs a gang of {demand} threads but the executor caps gangs at {cap}"
                )));
            }
        }
        Ok(())
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
        self.validate()?;
        self.validate_capacity(exec, self.config.num_workers + 1)?;
        // One shared fault budget for the whole execution: a single-shot
        // fault consumed during speculation must not re-fire in recovery.
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
        let stats = metrics.stats();
        // Started before the trace origin: every stamp lies within `elapsed`.
        let start = Instant::now();
        let collector = TraceCollector::with_region(
            self.config.trace_capacity.unwrap_or(0),
            self.config.region_id,
        );
        let mut manager_sink = collector.sink(MANAGER_TID);
        let mut conflicts = Vec::new();
        let mut comparisons = 0;
        let mut contained: Vec<ContainedFault> = Vec::new();
        let mut degraded = false;
        let mut degraded_at_epoch = None;
        // Degradation bookkeeping: recent pass outcomes + consecutive fails.
        let mut recent = VecDeque::new();
        let mut consecutive_failures = 0u32;
        let mut start_epoch = 0usize;
        let num_epochs = workload.num_epochs();
        // State buffers of the previous pass, for the next one to checkpoint
        // into.
        let mut recycled = None;

        // The recovery loop runs inside an immediately-invoked closure so
        // every failure path funnels through one exit below — where the
        // manager sink is absorbed, the trace finished, and the telemetry
        // cell finalised (flight dumps must happen on hard errors too).
        let outcome: Result<(), SpecError> = (|| {
            while start_epoch < num_epochs {
                let mut pass = self.speculative_pass(
                    workload,
                    start_epoch,
                    recycled.take(),
                    metrics,
                    &fault,
                    deadline,
                    &collector,
                    exec,
                );
                comparisons += pass.comparisons;
                contained.extend(pass.contained.iter().copied());

                let (resume_epoch, reason) = match pass.end {
                    PassEnd::Completed => break,
                    PassEnd::Aborted {
                        resume_epoch,
                        reason,
                    } => (resume_epoch, reason),
                };
                consecutive_failures += 1;
                if let Some(policy) = self.config.degrade {
                    recent.push_back(matches!(reason, AbortReason::Conflict));
                    while recent.len() > policy.window {
                        recent.pop_front();
                    }
                }

                match reason {
                    AbortReason::Timeout => return Err(SpecError::WatchdogTimeout),
                    AbortReason::TaskPanic { epoch, task } => {
                        contained.push(ContainedFault::WorkerPanic { epoch, task });
                        self.restore_with_retry(
                            workload,
                            &mut pass.checkpoint,
                            &fault,
                            &mut contained,
                            stats,
                        )?;
                        // Re-execute non-speculatively; a repeat panic there is
                        // no longer maskable and surfaces as TaskPanicked.
                        let written = self.run_barrier_range(
                            workload,
                            pass.checkpoint.epoch(),
                            resume_epoch,
                            metrics,
                            &fault,
                            deadline,
                            &collector,
                            exec,
                        )?;
                        pass.checkpoint.fold(&written);
                        start_epoch = resume_epoch;
                    }
                    AbortReason::Conflict => {
                        stats.add_misspeculation();
                        if let Some(c) = pass.conflict {
                            conflicts.push(c);
                        }
                        self.restore_with_retry(
                            workload,
                            &mut pass.checkpoint,
                            &fault,
                            &mut contained,
                            stats,
                        )?;
                        let give_up = self.config.degrade.is_some_and(|policy| {
                            let in_window = recent.iter().filter(|&&m| m).count() as u32;
                            in_window >= policy.max_misspeculations
                                || consecutive_failures >= policy.max_consecutive_failures
                        });
                        if give_up {
                            manager_sink.emit(Event::Degradation {
                                epoch: pass.checkpoint.epoch() as u32,
                            });
                            if let Some(cell) = telemetry {
                                cell.add_degrade_event();
                            }
                            self.run_barrier_range(
                                workload,
                                pass.checkpoint.epoch(),
                                num_epochs,
                                metrics,
                                &fault,
                                deadline,
                                &collector,
                                exec,
                            )?;
                            degraded = true;
                            degraded_at_epoch = Some(pass.checkpoint.epoch() as u32);
                            break;
                        }
                        // Roll forward the misspeculated epochs with real
                        // barriers (§4.2.2), then speculate again.
                        let written = self.run_barrier_range(
                            workload,
                            pass.checkpoint.epoch(),
                            resume_epoch,
                            metrics,
                            &fault,
                            deadline,
                            &collector,
                            exec,
                        )?;
                        pass.checkpoint.fold(&written);
                        start_epoch = resume_epoch;
                    }
                }
                recycled = Some(pass.checkpoint);
            }
            Ok(())
        })();

        collector.absorb(manager_sink);
        let elapsed = start.elapsed();
        let trace = collector.finish();
        if let Err(err) = outcome {
            // Hard failure: deposit the trace with the telemetry cell so
            // the flight recorder can dump the window that led here.
            if let Some(cell) = telemetry {
                cell.fail(trace.as_ref());
            }
            return Err(err);
        }
        // Every region thread has joined (thread::scope or pool latch) by
        // this point, so the snapshot is exact per the RegionStats ordering
        // contract.
        let metrics = metrics.snapshot();
        if let Some(cell) = telemetry {
            cell.complete(contained.len() as u64, degraded, trace.as_ref());
        }
        Ok(SpecReport {
            stats: metrics.stats,
            elapsed,
            num_workers: self.config.num_workers,
            comparisons,
            conflicts,
            degraded,
            degraded_at_epoch,
            contained_faults: contained,
            metrics,
            trace,
        })
    }

    /// Restores the pass checkpoint, retrying once if the restore itself is
    /// scheduled to fail; a second failure is terminal.
    fn restore_with_retry<W: SpecWorkload>(
        &self,
        workload: &W,
        checkpoint: &mut Checkpoint<W::State>,
        fault: &FaultPlan,
        contained: &mut Vec<ContainedFault>,
        stats: &RegionStats,
    ) -> Result<(), SpecError> {
        let epoch = checkpoint.epoch() as u32;
        if fault.restore_fails(epoch) {
            contained.push(ContainedFault::RestoreRetried { epoch });
            if fault.restore_fails(epoch) {
                return Err(SpecError::RestoreFailed { epoch });
            }
        }
        stats.add_checkpoint_blocks(checkpoint.roll_back(workload) as u64);
        Ok(())
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
        self.validate()?;
        self.validate_capacity(exec, self.config.num_workers)?;
        let fault = self.config.fault_plan.clone().unwrap_or_default();
        let deadline = self.config.watchdog.map(|w| Instant::now() + w);
        let telemetry = self.config.telemetry.as_deref();
        if let Some(cell) = telemetry {
            cell.mark_running();
        }
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
        let collector = TraceCollector::with_region(
            self.config.trace_capacity.unwrap_or(0),
            self.config.region_id,
        );
        let outcome = self.run_barrier_range(
            workload,
            0,
            workload.num_epochs(),
            metrics,
            &fault,
            deadline,
            &collector,
            exec,
        );
        let elapsed = start.elapsed();
        let trace = collector.finish();
        if let Err(err) = outcome {
            if let Some(cell) = telemetry {
                cell.fail(trace.as_ref());
            }
            return Err(err);
        }
        let metrics = metrics.snapshot();
        if let Some(cell) = telemetry {
            cell.complete(0, false, trace.as_ref());
        }
        Ok(SpecReport {
            stats: metrics.stats,
            elapsed,
            num_workers: self.config.num_workers,
            comparisons: 0,
            conflicts: Vec::new(),
            degraded: false,
            degraded_at_epoch: None,
            contained_faults: Vec::new(),
            metrics,
            trace,
        })
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

    /// One speculative attempt from `start_epoch`.
    #[allow(clippy::too_many_arguments)]
    fn speculative_pass<W: SpecWorkload>(
        &self,
        workload: &W,
        start_epoch: usize,
        recycled: Option<Checkpoint<W::State>>,
        metrics: &Metrics,
        fault: &FaultPlan,
        deadline: Option<Instant>,
        collector: &TraceCollector,
        exec: &dyn RegionExecutor,
    ) -> PassResult<W::State> {
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
            board: PositionBoard::new(gang),
            misspec: CachePadded::new(AtomicBool::new(false)),
            width: CachePadded::new(AtomicUsize::new(0)),
            join_epoch: AtomicUsize::new(0),
            checker: Mutex::new(Admission {
                log: CheckerState::with_aggregates(gang, self.config.epoch_summaries),
                reported_skips: 0,
                reported_comparisons: 0,
            }),
            conflict: Mutex::new(None),
            failure: Mutex::new(None),
            contained: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(checkpoint),
            // Worker 0 starts alone.
            sync: SyncPoint::new(1),
            fault: fault.share(),
            deadline,
            prefix,
            chunk: chunk_at(gang),
            narrow_chunk: chunk_at(1),
        };
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
        {
            let shared = &shared;
            // The whole worker loop runs under catch_unwind so a panic anywhere
            // in a worker poisons the pass instead of killing the gang
            // (and on a shared pool, neighbouring regions).
            let roles: Vec<Role<'_>> = snapshots
                .chunks_mut(gang)
                .enumerate()
                .map(|(tid, snapshot)| -> Role<'_> {
                    Box::new(move || {
                        let mut sink = collector.sink(tid);
                        // Blocks this worker wrote since it last folded
                        // them into the checkpoint; kept outside the unwind
                        // boundary so a pass that dies still reports what
                        // it wrote.
                        let mut dirty = DirtyBlocks::new();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            self.worker_pass(
                                workload,
                                shared,
                                tid,
                                start_epoch,
                                metrics,
                                &mut sink,
                                &mut dirty,
                                snapshot,
                            );
                        }));
                        collector.absorb(sink);
                        if outcome.is_err() {
                            // A panic that escaped the per-task containment:
                            // engine-internal or an injected checker death,
                            // so no task coordinate to blame, and no account
                            // of what it wrote.
                            dirty.mark_all();
                            shared.record_failure(AbortReason::TaskPanic {
                                epoch: u32::MAX,
                                task: u64::MAX,
                            });
                        }
                        if tid == 0 {
                            // Worker 0 left before deciding the width (the
                            // pass ended first): the joiners stay out.
                            let _ = shared.width.compare_exchange(
                                0,
                                1,
                                Ordering::Release,
                                Ordering::Relaxed,
                            );
                        }
                        shared.checkpoint.lock().fold(&dirty);
                        // A finished worker never gates anyone again.
                        shared.board.set_frontier(tid, u64::MAX);
                    })
                })
                .collect();
            let gang_stats = exec.run_gang(roles, Box::new(|| {}));
            if let Some(cell) = self.config.telemetry.as_deref() {
                cell.add_queue_wait(gang_stats.queue_wait_ns);
            }
        }

        let resume_epoch = (shared.board.max_epoch() as usize + 1)
            .max(start_epoch + 1)
            .min(num_epochs);
        let failure = shared.failure.lock().take();
        let conflict = *shared.conflict.lock();
        let contained = std::mem::take(&mut *shared.contained.lock());
        let end = if let Some(reason) = failure {
            PassEnd::Aborted {
                resume_epoch,
                reason,
            }
        } else if shared.misspec.load(Ordering::Acquire) {
            PassEnd::Aborted {
                resume_epoch,
                reason: AbortReason::Conflict,
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
            conflict,
            checkpoint,
            contained,
        }
    }

    /// Executes one task body with fault injection and panic containment.
    /// Returns `false` if the pass must abort (the failure is recorded).
    #[allow(clippy::too_many_arguments)]
    fn contained_task<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State, S>,
        epoch: usize,
        task: usize,
        tid: usize,
        recorder: &mut dyn crate::workload::AccessRecorder,
        sink: &mut TraceSink,
    ) -> bool {
        let fault = shared.fault.task_start(epoch as u32, task as u64, tid);
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
            shared.record_failure(AbortReason::TaskPanic {
                epoch: epoch as u32,
                task: task as u64,
            });
            return false;
        }
        true
    }

    /// The per-worker driver (Fig. 4.7's worker pseudo-code, plus the
    /// checkpoint rendezvous, misspeculation polling and the pass's width:
    /// worker 0 starts alone, and the others run only if it widens the
    /// pass).
    #[allow(clippy::too_many_arguments)]
    fn worker_pass<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State, S>,
        tid: usize,
        start_epoch: usize,
        metrics: &Metrics,
        sink: &mut TraceSink,
        dirty: &mut DirtyBlocks,
        snapshot: &mut [Position],
    ) {
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
        let mut tally = Tally {
            stats,
            tasks: 0,
            check_requests: 0,
        };
        let mut recorder = SigRecorder::<S>::new();
        let mut counting = CountingRecorder::default();
        let mut runs = ExactRuns::<S>::default();
        // exit_task: admits one check request — an exact run of a chunk's
        // signatures at task number `at`, with the chunk-start snapshot.
        // The run's address span goes into the dirty blocks. `false` if
        // the pass must end.
        let ship = |tally: &mut Tally<'_>,
                    dirty: &mut DirtyBlocks,
                    snapshot: &[Position],
                    sink: &mut TraceSink,
                    epoch: usize,
                    (at, sig): (u32, S)| {
            dirty.mark_sig(&sig);
            tally.check_requests += 1;
            let pos = Position {
                epoch: epoch as u32,
                task: at,
            };
            shared.admit(tid, pos, snapshot, sig, sink)
        };

        for epoch in first_epoch..num_epochs {
            if shared.misspec.load(Ordering::Acquire) {
                return;
            }
            let irreversible = workload.epoch_is_irreversible(epoch);
            let periodic = epoch > start_epoch
                && (epoch - start_epoch).is_multiple_of(self.config.checkpoint_every);
            if irreversible || periodic {
                // Synchronize and snapshot (§4.2.2).
                if !self.checkpoint_rendezvous(workload, shared, tid, epoch, metrics, sink, dirty) {
                    return; // aborted by misspeculation / fault / timeout
                }
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
                sink.emit(Event::EpochBegin {
                    epoch: epoch as u32,
                });
            }

            if width == 1 || irreversible {
                let timing = deciding.then_some(&mut fastest);
                if !self.unchecked_epoch(
                    workload,
                    shared,
                    tid,
                    epoch,
                    width,
                    irreversible,
                    timing,
                    &mut tally,
                    sink,
                    dirty,
                ) {
                    return;
                }
                tally.fold();
                if irreversible {
                    // Checkpoint straight after: nothing may roll it back.
                    if !self.checkpoint_rendezvous(
                        workload,
                        shared,
                        tid,
                        epoch + 1,
                        metrics,
                        sink,
                        dirty,
                    ) {
                        return;
                    }
                } else if tid == 0 {
                    sink.emit(Event::EpochEnd {
                        epoch: epoch as u32,
                    });
                }
                if let (true, Some(fastest)) = (deciding, fastest) {
                    deciding = false;
                    width = self.widen(shared, epoch, fastest, num_epochs, stats);
                }
                continue;
            }

            // Static elision (`pir::elide`): a proven epoch's tasks cannot
            // conflict with any compared task, so signature generation and
            // admission are both redundant. Such tasks run with a counting
            // recorder (metrics only) and are never admitted. Positions and
            // frontiers still advance exactly as on the full path —
            // unproven tasks' snapshots must keep observing this worker's
            // progress.
            let proven = self.config.elide && workload.epoch_is_proven(epoch);
            if proven {
                // No signature, so no span: the next copies are full.
                dirty.mark_all();
            }
            let mut elided_tasks = 0u64;
            let mut elided_accesses = 0u64;

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
                        if shared.misspec.load(Ordering::Acquire) {
                            return;
                        }
                        if stalled_at.is_none() {
                            stalled_at = Some(Instant::now());
                            stats.add_stall();
                        }
                        if backoff.is_completed() {
                            if shared.deadline_passed() {
                                shared.record_failure(AbortReason::Timeout);
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
                if !proven {
                    shared.board.snapshot_into(snapshot);
                }

                // One trace record pair per chunk; a chunk cut short retires
                // the prefix that completed.
                sink.emit(Event::TaskDispatch {
                    epoch: epoch as u32,
                    task: tasks.start as u64,
                    count: tasks.len() as u32,
                });
                let mut done = 0u32;
                let completed = 'chunk: {
                    for task in tasks.clone() {
                        if shared.misspec.load(Ordering::Acquire) {
                            break 'chunk false;
                        }
                        let rec: &mut dyn crate::workload::AccessRecorder =
                            if proven { &mut counting } else { &mut recorder };
                        if !self.contained_task(workload, shared, epoch, task, tid, rec, sink) {
                            // A panicking task may have written anything.
                            dirty.mark_all();
                            break 'chunk false;
                        }
                        done += 1;
                        if proven {
                            // exit_task (elided): the static proof stands in
                            // for the admission this task would otherwise
                            // have made.
                            let accesses = counting.take();
                            if accesses > 0 {
                                stats.add_elided_signature();
                                stats.add_elided_admit();
                                stats.add_proven_accesses(accesses);
                                elided_tasks += 1;
                                elided_accesses += accesses;
                            }
                            continue;
                        }
                        // exit_task: a signature that cannot join the chunk's
                        // open run exactly admits it and opens the next.
                        let at = local_counter + (task - tasks.start) as u32;
                        if let Some(run) = runs.push(at, recorder.take()) {
                            if !ship(&mut tally, dirty, snapshot, sink, epoch, run) {
                                break 'chunk false;
                            }
                        }
                    }
                    true
                };
                tally.tasks += u64::from(done);
                retire_prefix(sink, epoch, tasks.start, done);
                if !completed {
                    // The open run and a task cut short by a panic were
                    // never admitted, but what they wrote is in memory.
                    if let Some((_, sig)) = runs.finish() {
                        dirty.mark_sig(&sig);
                    }
                    dirty.mark_sig(&recorder.take());
                    return;
                }
                if let (false, Some(run)) = (proven, runs.finish()) {
                    if !ship(&mut tally, dirty, snapshot, sink, epoch, run) {
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
            tally.fold();
            if elided_tasks > 0 {
                // Once per (worker, epoch): how much admission work the
                // static proof saved on this worker.
                sink.emit(Event::CheckElided {
                    epoch: epoch as u32,
                    tasks: elided_tasks,
                    accesses: elided_accesses,
                });
            }
            if tid == 0 {
                sink.emit(Event::EpochEnd {
                    epoch: epoch as u32,
                });
            }
        }
    }

    /// Runs worker `tid`'s share of an epoch whose tasks overlap no other
    /// worker's — an epoch of a narrow pass (`width` 1), or an irreversible
    /// one between its two rendezvous — with no signatures and no
    /// admission: writes only mark their blocks. Unless the epoch is
    /// `irreversible`, the fault plan's check site is still probed once per
    /// chunk, so that injected false positives fire in narrow passes too.
    /// While `fastest` is given, it takes the smallest per-task time of any
    /// chunk. Returns `false` if the pass must end.
    #[allow(clippy::too_many_arguments)]
    fn unchecked_epoch<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State, S>,
        tid: usize,
        epoch: usize,
        width: usize,
        irreversible: bool,
        mut fastest: Option<&mut Option<u64>>,
        tally: &mut Tally<'_>,
        sink: &mut TraceSink,
        dirty: &mut DirtyBlocks,
    ) -> bool {
        let chunk = if width == 1 {
            shared.narrow_chunk
        } else {
            shared.chunk
        };
        for tasks in chunk::share(workload.num_tasks(epoch), chunk, width, tid) {
            if shared.misspec.load(Ordering::Acquire) {
                return false;
            }
            sink.emit(Event::TaskDispatch {
                epoch: epoch as u32,
                task: tasks.start as u64,
                count: tasks.len() as u32,
            });
            let began = fastest.is_some().then(Instant::now);
            let mut done = 0u32;
            let completed = tasks.clone().all(|task| {
                let ok = self.contained_task(workload, shared, epoch, task, tid, dirty, sink);
                if !ok {
                    // A panicking task may have written anything.
                    dirty.mark_all();
                }
                done += u32::from(ok);
                ok
            });
            tally.tasks += u64::from(done);
            retire_prefix(sink, epoch, tasks.start, done);
            if !completed {
                return false;
            }
            if let (Some(fastest), Some(began)) = (fastest.as_deref_mut(), began) {
                let per_task = began.elapsed().as_nanos() as u64 / tasks.len() as u64;
                *fastest = Some(fastest.map_or(per_task, |t| t.min(per_task)));
            }
            // Alone in the epoch, a worker's task number is the task's index.
            let pos = Position {
                epoch: epoch as u32,
                task: tasks.start as u32,
            };
            if !irreversible && !shared.probe_check(tid, pos, sink) {
                return false;
            }
        }
        true
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
        shared.sync.n.store(gang, Ordering::Relaxed);
        shared.join_epoch.store(next, Ordering::Relaxed);
        shared.width.store(gang, Ordering::Release);
        stats.add_wide_pass();
        gang
    }

    /// Rendezvous of the pass's running workers, then the serial worker
    /// snapshots the workload as the new checkpoint and retires the log
    /// below it. Returns `false` if the pass was aborted (misspeculation,
    /// fault, or timeout).
    #[allow(clippy::too_many_arguments)]
    fn checkpoint_rendezvous<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State, S>,
        tid: usize,
        epoch: usize,
        metrics: &Metrics,
        sink: &mut TraceSink,
        dirty: &mut DirtyBlocks,
    ) -> bool {
        let stats = metrics.stats();
        // Hand over the blocks written since the last rendezvous before
        // arriving: once everyone has, the serial worker's refresh sees
        // them all.
        shared.checkpoint.lock().fold(dirty);
        dirty.clear();
        // While parked here this worker's frontier must not gate leaders
        // forever: everything below `epoch` is finished, so advertise the
        // epoch's first global task index (every not-yet-arrived worker's
        // next task is below it, so none of them can be gated by us).
        shared.board.set_frontier(tid, shared.prefix[epoch]);
        sink.emit(Event::BarrierEnter {
            epoch: epoch as u32,
        });
        let entered = Instant::now();
        let serial = match shared.sync.wait(tid, &shared.misspec, shared.deadline) {
            WaitOutcome::Released(serial) => serial,
            WaitOutcome::Aborted => return false,
            WaitOutcome::TimedOut => {
                shared.record_failure(AbortReason::Timeout);
                return false;
            }
        };
        // Every worker admits its own requests before arriving, so the log
        // is complete here: the snapshot is known-good (§4.2.2) unless an
        // admission raised `misspec`.
        if serial && !shared.misspec.load(Ordering::Acquire) {
            if shared.fault.snapshot_fails(epoch as u32) {
                sink.emit(Event::FaultInjected {
                    kind: FaultKind::SnapshotFail,
                    epoch: epoch as u32,
                    task: 0,
                });
                // Keep the previous checkpoint: correctness is
                // unaffected, a later rollback just rewinds further.
                shared
                    .contained
                    .lock()
                    .push(ContainedFault::SnapshotSkipped {
                        epoch: epoch as u32,
                    });
            } else {
                let copied = shared.checkpoint.lock().advance(workload, epoch);
                stats.add_checkpoint();
                stats.add_checkpoint_blocks(copied as u64);
                sink.emit(Event::Checkpoint {
                    epoch: epoch as u32,
                });
                // Every worker is parked here with its admissions done:
                // nothing logged before `epoch` can race with anything
                // after it.
                let mut checker = shared.checker.lock();
                checker.log.retire_before(epoch as u32);
                checker.fold_summary(epoch, stats, sink);
            }
        }
        let released = matches!(
            shared.sync.wait(tid, &shared.misspec, shared.deadline),
            WaitOutcome::Released(_)
        );
        if released {
            let wait_ns = entered.elapsed().as_nanos() as u64;
            metrics.record_barrier_wait(wait_ns);
            sink.emit(Event::BarrierLeave {
                epoch: epoch as u32,
                wait_ns,
            });
            // With no checker to drain, the rendezvous is a plain barrier,
            // and its wake a `barrier` edge.
            let releaser = shared.sync.last_releaser();
            if releaser != tid {
                sink.emit(Event::Wake {
                    edge: WakeEdge::Barrier,
                    src_tid: releaser,
                    seq: epoch as u64,
                });
            }
        }
        released
    }

    /// Executes epochs `[from, to)` under non-speculative barriers, with the
    /// same task-level panic containment as the speculative path — but here
    /// there is no checkpoint to rescue a panicking task, so the first panic
    /// fails the range with [`SpecError::TaskPanicked`]. Returns the blocks
    /// the range wrote.
    #[allow(clippy::too_many_arguments)]
    fn run_barrier_range<W: SpecWorkload>(
        &self,
        workload: &W,
        from: usize,
        to: usize,
        metrics: &Metrics,
        fault: &FaultPlan,
        deadline: Option<Instant>,
        collector: &TraceCollector,
        exec: &dyn RegionExecutor,
    ) -> Result<DirtyBlocks, SpecError> {
        if from >= to {
            return Ok(DirtyBlocks::new());
        }
        let stats = metrics.stats();
        let num_workers = self.config.num_workers;
        // Same region, same configuration: the speculative passes' map.
        let chunk = chunk::chunk_len(
            workload.total_tasks(),
            workload.num_epochs(),
            num_workers,
            self.config.spec_distance,
        );
        let barrier = SpinBarrier::new(num_workers);
        let written = Mutex::new(DirtyBlocks::new());
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<SpecError>> = Mutex::new(None);
        let fail = |err: SpecError| {
            let mut slot = failure.lock();
            if slot.is_none() {
                *slot = Some(err);
            }
            drop(slot);
            abort.store(true, Ordering::Release);
        };
        {
            let mut roles: Vec<Role<'_>> = Vec::with_capacity(num_workers);
            for tid in 0..num_workers {
                let (barrier, abort, fail, fault) = (&barrier, &abort, &fail, fault);
                let written = &written;
                roles.push(Box::new(move || {
                    let mut sink = collector.sink(tid);
                    let mut dirty = DirtyBlocks::new();
                    let mut tally = Tally {
                        stats,
                        tasks: 0,
                        check_requests: 0,
                    };
                    for epoch in from..to {
                        if tid == 0 {
                            stats.add_epoch();
                            sink.emit(Event::EpochBegin {
                                epoch: epoch as u32,
                            });
                        }
                        let ntasks = workload.num_tasks(epoch);
                        for tasks in chunk::share(ntasks, chunk, num_workers, tid) {
                            if abort.load(Ordering::Acquire) {
                                collector.absorb(sink);
                                return;
                            }
                            sink.emit(Event::TaskDispatch {
                                epoch: epoch as u32,
                                task: tasks.start as u64,
                                count: tasks.len() as u32,
                            });
                            let mut done = 0u32;
                            let completed = tasks.clone().all(|task| {
                                if abort.load(Ordering::Acquire) {
                                    return false;
                                }
                                let injected = fault.task_start(epoch as u32, task as u64, tid);
                                if let Some(f) = injected {
                                    sink.emit(Event::FaultInjected {
                                        kind: f.kind(),
                                        epoch: epoch as u32,
                                        task: task as u64,
                                    });
                                }
                                if let Some(TaskFault::Delay(d)) = injected {
                                    std::thread::sleep(d);
                                }
                                let inject = injected == Some(TaskFault::Panic);
                                let outcome = catch_unwind(AssertUnwindSafe(|| {
                                    if inject {
                                        panic!(
                                            "injected fault: worker panic at epoch {epoch}, task {task} (barrier mode)"
                                        );
                                    }
                                    workload.execute_task(epoch, task, tid, &mut dirty);
                                }));
                                if outcome.is_err() {
                                    fail(SpecError::TaskPanicked {
                                        epoch: epoch as u32,
                                        task: task as u64,
                                    });
                                    return false;
                                }
                                done += 1;
                                true
                            });
                            tally.tasks += u64::from(done);
                            retire_prefix(&mut sink, epoch, tasks.start, done);
                            if !completed {
                                collector.absorb(sink);
                                return;
                            }
                        }
                        tally.fold();
                        sink.emit(Event::BarrierEnter {
                            epoch: epoch as u32,
                        });
                        let entered = Instant::now();
                        match barrier.wait_abortable(tid, abort, deadline) {
                            BarrierWait::Released(_) => {
                                let wait_ns = entered.elapsed().as_nanos() as u64;
                                metrics.record_barrier_wait(wait_ns);
                                sink.emit(Event::BarrierLeave {
                                    epoch: epoch as u32,
                                    wait_ns,
                                });
                                let releaser = barrier.last_releaser();
                                if releaser != tid {
                                    sink.emit(Event::Wake {
                                        edge: WakeEdge::Barrier,
                                        src_tid: releaser,
                                        seq: epoch as u64,
                                    });
                                }
                            }
                            BarrierWait::Aborted => {
                                collector.absorb(sink);
                                return;
                            }
                            BarrierWait::TimedOut => {
                                fail(SpecError::WatchdogTimeout);
                                collector.absorb(sink);
                                return;
                            }
                        }
                    }
                    // Every early return above is an abort, whose range
                    // fails and discards `written`.
                    written.lock().union(&dirty);
                    collector.absorb(sink);
                }));
            }
            let gang_stats = exec.run_gang(roles, Box::new(|| {}));
            if let Some(cell) = self.config.telemetry.as_deref() {
                cell.add_queue_wait(gang_stats.queue_wait_ns);
            }
        }
        match failure.into_inner() {
            Some(err) => Err(err),
            None => Ok(written.into_inner()),
        }
    }
}
