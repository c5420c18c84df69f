//! The threaded SPECCROSS engine (§4.2, Fig. 4.5).
//!
//! One manager (the calling thread), `num_workers` worker threads and one
//! checker thread. Workers execute epochs back-to-back, crossing barrier
//! boundaries speculatively. An epoch's tasks are dealt block-cyclically in
//! *chunks* of K consecutive tasks ([`crate::chunk`]; K follows from the
//! region's shape and is 1 — the thesis' per-iteration protocol — for small
//! epochs and short speculative ranges), and the worker protocol runs once
//! per chunk: one frontier publish, one gate on the chunk's last task, one
//! position snapshot, one position advance. The chunk's signatures, folded
//! into maximal exact runs, go with that start-time snapshot to the checker
//! — buffered locally and published to a per-worker SPSC ring in batches,
//! so the checker admits requests in bursts against the epoch-bucketed log
//! of [`crate::check`] instead of waking once per task. Checkpoint pruning
//! rides an atomic epoch watermark rather than an in-band message. Every
//! `checkpoint_every` epochs the workers rendezvous, the checker is
//! drained, and the workload state is snapshotted. On
//! misspeculation all workers unwind cooperatively, the last checkpoint is
//! restored, the misspeculated epochs re-execute under non-speculative
//! barriers, and speculation resumes (substitution S3 of DESIGN.md replaces
//! the thesis' `fork`/`kill` mechanics with snapshot/restore + cooperative
//! cancellation; the recovery *sequence* is identical). Like `fork`'s
//! copy-on-write, checkpoints and rollbacks copy only what tasks wrote:
//! workers report the blocks they dirtied ([`crate::checkpoint`]).
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
//!   of the same task there surfaces as [`SpecError::TaskPanicked`].
//! * **Checker loss** (the checker thread dying) releases all workers,
//!   counts the in-flight check requests it stranded, and either fails the
//!   region with [`SpecError::CheckerFailed`] or — when a [`DegradePolicy`]
//!   is configured — finishes the remaining epochs non-speculatively.
//! * A **misspeculation storm** (e.g. a faulty signature scheme forcing
//!   conflicts on every pass) trips the [`DegradePolicy`] thresholds and
//!   downgrades the region to barrier execution instead of thrashing on
//!   rollback, reported via [`SpecReport::degraded`].
//! * **Snapshot failures** keep the previous checkpoint (recovery just
//!   rolls back further); **restore failures** are retried once and then
//!   surface as [`SpecError::RestoreFailed`].
//! * A **watchdog deadline** ([`SpecConfig::watchdog`]) bounds every spin
//!   loop — barrier waits, checkpoint rendezvous, speculative-range gates,
//!   checker idling — so a lost peer yields [`SpecError::WatchdogTimeout`]
//!   instead of a livelock.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::{Backoff, CachePadded};
use parking_lot::Mutex;

use crossinvoc_runtime::barrier::BarrierWait;
use crossinvoc_runtime::fault::{CheckFault, FaultKind, FaultPlan, TaskFault};
use crossinvoc_runtime::metrics::{Metrics, MetricsSummary};
use crossinvoc_runtime::pool::{RegionExecutor, Role, ScopedExecutor};
use crossinvoc_runtime::signature::{AccessSignature, RangeSignature};
use crossinvoc_runtime::spsc;
use crossinvoc_runtime::stats::{RegionStats, StatsSummary};
use crossinvoc_runtime::telemetry::RegionTelemetry;
use crossinvoc_runtime::trace::{
    Event, Trace, TraceCollector, TraceSink, WakeEdge, CHECKER_TID, MANAGER_TID,
};
use crossinvoc_runtime::{SpinBarrier, ThreadId};

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
    /// Worker thread count (the checker thread is additional, matching the
    /// thesis' accounting in §5.2).
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
    /// Configuration with `num_workers` workers and thesis defaults.
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
    /// The checker thread died; this many in-flight check requests were
    /// stranded unverified.
    CheckerFailed {
        /// Check requests sent but never processed.
        unprocessed: u64,
    },
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
            SpecError::CheckerFailed { unprocessed } => write!(
                f,
                "checker thread died with {unprocessed} unverified check request(s)"
            ),
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
        /// Epoch of the panicking task.
        epoch: u32,
        /// Task index within the epoch (`u64::MAX`: outside any task).
        task: u64,
    },
    /// The checker thread died, stranding this many in-flight requests; the
    /// region finished under the degradation policy.
    CheckerLoss {
        /// Check requests sent but never processed.
        unprocessed: u64,
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
    /// Worker threads used (excluding the checker).
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

/// Capacity of each worker→checker SPSC ring, in check requests.
const CHECK_RING: usize = 1024;

/// Worker-side flush threshold: a worker buffers up to this many check
/// requests locally and ships them to its ring with one batched publish,
/// so the checker is woken in bursts instead of once per task.
const CHECK_BATCH: usize = 16;

/// Checker-side burst size: how many requests the checker drains from one
/// worker's ring per pickup.
const CHECK_PICKUP: usize = 64;

/// Snapshot slots a [`CheckMsg`] carries inline; a wider gang's snapshots
/// spill to the heap, one box per task as before. A constant, not an
/// option, and sized so that a message with a [`RangeSignature`] is exactly
/// one 64-byte cache line: every message crosses between two cores' caches,
/// and `spec_fine` pays about 10 ns per task for the second line (64 B
/// 82 ns/task; 72 B, 96 B and 104 B 92–97 ns). Three workers plus the
/// checker is as wide as the benchmark's thread rule goes.
const INLINE_SNAPSHOT: usize = 3;

/// The start-time position snapshot of a [`CheckMsg`].
#[derive(Debug, Clone)]
enum SnapshotBuf {
    /// The first `num_workers` slots are meaningful.
    Inline([Position; INLINE_SNAPSHOT]),
    Spilled(Box<[Position]>),
}

impl SnapshotBuf {
    /// Where every worker is as a chunk of tasks starts
    /// (`collect_other_threads()` of Fig. 4.7).
    fn at_start(board: &PositionBoard) -> Self {
        let workers = board.num_workers();
        if workers > INLINE_SNAPSHOT {
            return SnapshotBuf::Spilled(board.snapshot());
        }
        let mut slots = [Position::ZERO; INLINE_SNAPSHOT];
        board.snapshot_into(&mut slots[..workers]);
        SnapshotBuf::Inline(slots)
    }

    /// Sets slot `tid`, which a message reads as its own position.
    fn stamp(&mut self, tid: ThreadId, pos: Position) {
        match self {
            SnapshotBuf::Inline(slots) => slots[tid] = pos,
            SnapshotBuf::Spilled(slots) => slots[tid] = pos,
        }
    }

    fn positions(&self, workers: usize) -> &[Position] {
        match self {
            SnapshotBuf::Inline(slots) => &slots[..workers],
            SnapshotBuf::Spilled(slots) => slots,
        }
    }
}

/// What a worker puts on a check ring per exact run of a chunk (per task
/// when chunks are one task long): a
/// [`CheckRequest`](crate::check::CheckRequest) cut down to what the ring
/// does not already say — the worker is the ring's only producer, and the
/// request's position is the worker's own slot of the snapshot. With the
/// snapshot inline the hand-off allocates on neither thread (a boxed
/// snapshot was `malloc`ed by the worker and freed by the checker, and that
/// cross-thread `free` was the dearest part of the path).
#[derive(Debug)]
struct CheckMsg<S> {
    snapshot: SnapshotBuf,
    sig: S,
}

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

/// Adds the requests of one ring pickup to the `processed` ledger when it
/// goes out of scope — once per pickup instead of once per request, and on
/// every way out of the admission loop (drained, conflict, abort, injected
/// checker death), so `sent - processed` stays the exact count of
/// unverified requests.
struct Pickup<'a> {
    processed: &'a AtomicU64,
    admitted: u64,
}

impl Drop for Pickup<'_> {
    fn drop(&mut self) {
        self.processed.fetch_add(self.admitted, Ordering::Release);
    }
}

/// Why a speculative pass aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortReason {
    /// The checker detected (or was forced to report) a conflict.
    Conflict,
    /// A task body panicked (contained by the worker).
    TaskPanic { epoch: u32, task: u64 },
    /// The checker thread died.
    CheckerLoss { unprocessed: u64 },
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
    n: usize,
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
            n,
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
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
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

/// Shared state of one speculative pass.
struct PassShared<St> {
    board: PositionBoard,
    // The five atomics below are each on a line of their own: workers read
    // `misspec` twice per task and the checker adds to `processed` once per
    // pickup, so sharing a line would have every pickup evict the line the
    // workers poll.
    misspec: CachePadded<AtomicBool>,
    /// The conflict the checker found (it stops admitting at the first).
    conflict: Mutex<Option<Conflict>>,
    /// First abnormal-abort reason (panic, checker loss, timeout); `None`
    /// with `misspec` raised means an ordinary conflict.
    failure: Mutex<Option<AbortReason>>,
    /// Faults absorbed during this pass.
    contained: Mutex<Vec<ContainedFault>>,
    checkpoint: Mutex<Checkpoint<St>>,
    /// Check requests counted towards the rings: a worker adds a whole
    /// batch *before* publishing any of it, so `sent` is never below
    /// in-ring + processed.
    sent: CachePadded<AtomicU64>,
    /// Check requests the checker is done with, added once per pickup.
    processed: CachePadded<AtomicU64>,
    done_workers: CachePadded<AtomicUsize>,
    /// Epoch below which the checker may discard its logs. Written (with
    /// Release) only by the checkpoint serial worker, *after* the drain
    /// observed `processed == sent`, so by the time the checker reads a new
    /// watermark every pre-checkpoint request has already been admitted.
    /// Monotone: checkpoints happen at increasing epochs.
    prune_epoch: CachePadded<AtomicU32>,
    sync: SyncPoint,
    /// Shared-budget handle onto the execution's fault plan.
    fault: FaultPlan,
    deadline: Option<Instant>,
    /// Global task index of the first task of each epoch (prefix sums).
    prefix: Vec<u64>,
    /// Tasks per chunk ([`chunk::chunk_len`] of the whole region).
    chunk: usize,
}

impl<St> PassShared<St> {
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
    /// configuration; [`SpecError::CheckerFailed`],
    /// [`SpecError::TaskPanicked`], [`SpecError::RestoreFailed`] and
    /// [`SpecError::WatchdogTimeout`] for failures the engine could not
    /// absorb.
    pub fn execute<W: SpecWorkload>(&self, workload: &W) -> Result<SpecReport, SpecError> {
        self.execute_on(workload, &ScopedExecutor)
    }

    /// Like [`SpecCrossEngine::execute`], but running the region's gangs
    /// (workers + checker) on the given executor — a shared
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
        let mut misspec_ordinal: u64 = 0;
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
                    AbortReason::CheckerLoss { unprocessed } => {
                        if self.config.degrade.is_some() {
                            contained.push(ContainedFault::CheckerLoss { unprocessed });
                            self.restore_with_retry(
                                workload,
                                &mut pass.checkpoint,
                                &fault,
                                &mut contained,
                                stats,
                            )?;
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
                        return Err(SpecError::CheckerFailed { unprocessed });
                    }
                    AbortReason::Conflict => {
                        stats.add_misspeculation();
                        // The checker's verdict causes the rollback + redo that
                        // the manager performs next.
                        manager_sink.emit(Event::Wake {
                            edge: WakeEdge::Checker,
                            src_tid: CHECKER_TID,
                            seq: misspec_ordinal,
                        });
                        misspec_ordinal += 1;
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
        let num_workers = self.config.num_workers;
        let num_epochs = workload.num_epochs();
        let mut prefix = Vec::with_capacity(num_epochs + 1);
        let mut acc = 0u64;
        for e in 0..num_epochs {
            prefix.push(acc);
            acc += workload.num_tasks(e) as u64;
        }
        prefix.push(acc);

        // One dedicated SPSC ring per worker: single-writer/single-reader
        // cache behaviour on the exit_task → checker path (the channel this
        // replaces serialized every worker through one shared queue). The
        // checker drains ring w of worker w.
        let (check_txs, check_rxs): (Vec<_>, Vec<_>) = (0..num_workers)
            .map(|_| spsc::Queue::<CheckMsg<S>>::with_capacity(CHECK_RING))
            .unzip();
        // The first pass of an execution copies the whole state; a pass
        // after a recovery refreshes the previous pass's durable buffer.
        let checkpoint = match recycled {
            Some(mut checkpoint) => {
                stats.add_checkpoint_blocks(checkpoint.restart(workload, start_epoch) as u64);
                checkpoint
            }
            None => Checkpoint::new(workload, start_epoch),
        };
        let shared = PassShared {
            board: PositionBoard::new(num_workers),
            misspec: CachePadded::new(AtomicBool::new(false)),
            conflict: Mutex::new(None),
            failure: Mutex::new(None),
            contained: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(checkpoint),
            sent: CachePadded::new(AtomicU64::new(0)),
            processed: CachePadded::new(AtomicU64::new(0)),
            done_workers: CachePadded::new(AtomicUsize::new(0)),
            prune_epoch: CachePadded::new(AtomicU32::new(0)),
            sync: SyncPoint::new(num_workers),
            fault: fault.share(),
            deadline,
            prefix,
            chunk: chunk::chunk_len(acc, num_epochs, num_workers, self.config.spec_distance),
        };
        stats.add_checkpoint();
        let mut pass_sink = collector.sink(MANAGER_TID);
        pass_sink.emit(Event::Checkpoint {
            epoch: start_epoch as u32,
        });
        collector.absorb(pass_sink);

        let (comparisons, checker_dead) = {
            // The result slot stands in for the scoped-join return value the
            // pre-executor code used: initialized to "dead" so a checker
            // role that never ran to completion (however it died) reads as
            // a lost checker.
            let checker_result: Mutex<(u64, bool)> = Mutex::new((0, true));
            let shared_ref = &shared;
            let checker_slot = &checker_result;
            let mut roles: Vec<Role<'_>> = Vec::with_capacity(1 + num_workers);
            // The checker role may be killed by an injected fault (or an
            // organic bug); contain the unwind and convert it into a
            // cooperative abort so no worker spins on a dead checker. The
            // sink lives outside the unwind boundary so events emitted
            // before an injected death survive into the trace. The consumer
            // endpoints move into the role (they are single-reader by
            // construction).
            roles.push(Box::new(move || {
                let mut sink = collector.sink(CHECKER_TID);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.checker_loop(shared_ref, &check_rxs, metrics, &mut sink)
                }));
                collector.absorb(sink);
                *checker_slot.lock() = match outcome {
                    Ok(count) => (count, false),
                    Err(_) => {
                        shared_ref.misspec.store(true, Ordering::Release);
                        (0, true)
                    }
                };
            }));
            // Worker roles. The whole driver runs under catch_unwind so a
            // panic anywhere in a worker poisons the pass instead of killing
            // the gang (and on a shared pool, neighbouring regions). Each
            // worker owns the producer endpoint of its check-request ring.
            for (tid, check_tx) in check_txs.into_iter().enumerate() {
                let shared = &shared;
                roles.push(Box::new(move || {
                    let mut sink = collector.sink(tid);
                    // Blocks this worker wrote since it last folded them
                    // into the checkpoint; kept outside the unwind boundary
                    // so a pass that dies still reports what it wrote.
                    let mut dirty = DirtyBlocks::new();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        self.worker_pass(
                            workload,
                            shared,
                            &check_tx,
                            tid,
                            start_epoch,
                            metrics,
                            &mut sink,
                            &mut dirty,
                        );
                    }));
                    collector.absorb(sink);
                    if outcome.is_err() {
                        // A panic that escaped the per-task containment:
                        // engine-internal, so no task coordinate to blame,
                        // and no account of what it wrote.
                        dirty.mark_all();
                        shared.record_failure(AbortReason::TaskPanic {
                            epoch: u32::MAX,
                            task: u64::MAX,
                        });
                    }
                    shared.checkpoint.lock().fold(&dirty);
                    shared.done_workers.fetch_add(1, Ordering::Release);
                    // A finished worker never gates anyone again.
                    shared.board.set_frontier(tid, u64::MAX);
                }));
            }
            let gang_stats = exec.run_gang(roles, Box::new(|| {}));
            if let Some(cell) = self.config.telemetry.as_deref() {
                cell.add_queue_wait(gang_stats.queue_wait_ns);
            }
            let result = *checker_result.lock();
            result
        };

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
        } else if checker_dead {
            // Checker loss: every sent-but-unprocessed request is an
            // in-flight check that was never verified. Draining here is
            // counting — the channel died with the checker, and the pass is
            // condemned regardless of what the requests contained.
            let unprocessed = shared
                .sent
                .load(Ordering::Acquire)
                .saturating_sub(shared.processed.load(Ordering::Acquire));
            PassEnd::Aborted {
                resume_epoch,
                reason: AbortReason::CheckerLoss { unprocessed },
            }
        } else if shared.misspec.load(Ordering::Acquire) {
            PassEnd::Aborted {
                resume_epoch,
                reason: AbortReason::Conflict,
            }
        } else {
            PassEnd::Completed
        };

        PassResult {
            end,
            comparisons,
            conflict,
            // Every gang thread has joined: the pass's state is ours again.
            checkpoint: shared.checkpoint.into_inner(),
            contained,
        }
    }

    /// Executes one task body with fault injection and panic containment.
    /// Returns `false` if the pass must abort (the failure is recorded).
    #[allow(clippy::too_many_arguments)]
    fn contained_task<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State>,
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

    /// Ships the worker's locally-buffered check requests into its SPSC
    /// ring. [`spsc::Producer::produce_batch`] would park unconditionally on
    /// a full ring, and a dead checker never frees slots — so the wait here
    /// interleaves non-blocking batch publishes with abort/deadline checks.
    /// Returns `false` if the pass aborted mid-flush (remaining requests are
    /// dropped; the raised `misspec` flag is what ends the checker, not the
    /// `sent`/`processed` ledger).
    ///
    /// The whole batch is added to `sent` up front, before the first
    /// publish: the checker can then never have processed more than was
    /// counted, which is all the checkpoint drain and the checker's exit
    /// test (`processed == sent`) need.
    fn flush_checks<St>(
        shared: &PassShared<St>,
        check_tx: &spsc::Producer<CheckMsg<S>>,
        batch: &mut Vec<CheckMsg<S>>,
    ) -> bool {
        if batch.is_empty() {
            return true;
        }
        shared.sent.fetch_add(batch.len() as u64, Ordering::Release);
        let backoff = Backoff::new();
        while !batch.is_empty() {
            if check_tx.try_produce_batch(batch) > 0 {
                backoff.reset();
                continue;
            }
            if shared.misspec.load(Ordering::Acquire) {
                return false;
            }
            if backoff.is_completed() {
                if shared.deadline_passed() {
                    shared.record_failure(AbortReason::Timeout);
                    return false;
                }
                std::thread::yield_now();
            } else {
                backoff.snooze();
            }
        }
        true
    }

    /// The per-worker driver (Fig. 4.7's worker pseudo-code, plus the
    /// checkpoint rendezvous and misspeculation polling).
    #[allow(clippy::too_many_arguments)]
    fn worker_pass<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State>,
        check_tx: &spsc::Producer<CheckMsg<S>>,
        tid: usize,
        start_epoch: usize,
        metrics: &Metrics,
        sink: &mut TraceSink,
        dirty: &mut DirtyBlocks,
    ) {
        let stats = metrics.stats();
        let mut tally = Tally {
            stats,
            tasks: 0,
            check_requests: 0,
        };
        let num_workers = self.config.num_workers;
        let num_epochs = workload.num_epochs();
        let mut recorder = SigRecorder::<S>::new();
        let mut counting = CountingRecorder::default();
        // Local check-request buffer: flushed at the CHECK_BATCH threshold
        // and at every epoch boundary, so it is empty at each rendezvous
        // (the checkpoint drain counts on every `sent` request being in a
        // ring by the time all workers have arrived).
        let mut batch: Vec<CheckMsg<S>> = Vec::with_capacity(CHECK_BATCH);
        let mut runs = ExactRuns::<S>::default();
        // exit_task: buffers one check request — an exact run of a chunk's
        // signatures at task number `at`, with the chunk-start snapshot; a
        // full buffer is published to the checker's ring as one batch.
        // The run's address span goes into the dirty blocks. `false` if the
        // pass aborted mid-flush.
        let ship = |batch: &mut Vec<CheckMsg<S>>,
                    tally: &mut Tally<'_>,
                    dirty: &mut DirtyBlocks,
                    mut snapshot: SnapshotBuf,
                    epoch: usize,
                    (at, sig): (u32, S)| {
            dirty.mark_sig(&sig);
            tally.check_requests += 1;
            snapshot.stamp(
                tid,
                Position {
                    epoch: epoch as u32,
                    task: at,
                },
            );
            batch.push(CheckMsg { snapshot, sig });
            batch.len() < CHECK_BATCH || Self::flush_checks(shared, check_tx, batch)
        };

        for epoch in start_epoch..num_epochs {
            if shared.misspec.load(Ordering::Acquire) {
                return;
            }
            let irreversible = workload.epoch_is_irreversible(epoch);
            let periodic = epoch > start_epoch
                && (epoch - start_epoch).is_multiple_of(self.config.checkpoint_every);
            if irreversible || periodic {
                // Synchronize, drain the checker, snapshot (§4.2.2).
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

            let ntasks = workload.num_tasks(epoch);
            let share = chunk::share(ntasks, shared.chunk, num_workers, tid);
            if irreversible {
                // Runs between two full synchronizations: plain parallel
                // execution, no signatures (writes still mark their
                // blocks), then checkpoint.
                for tasks in share {
                    sink.emit(Event::TaskDispatch {
                        epoch: epoch as u32,
                        task: tasks.start as u64,
                        count: tasks.len() as u32,
                    });
                    let mut done = 0u32;
                    let completed = tasks.clone().all(|task| {
                        let ok =
                            self.contained_task(workload, shared, epoch, task, tid, dirty, sink);
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
                        return;
                    }
                }
                tally.fold();
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
                continue;
            }

            // Static elision (`pir::elide`): a proven epoch's tasks cannot
            // conflict with any compared task, so signature generation and
            // checker admission are both redundant. Such tasks run with a
            // counting recorder (metrics only) and never touch the check
            // rings; `sent` is untouched, so every drain / completion
            // invariant holds unchanged. Positions and frontiers still
            // advance exactly as on the full path — unproven tasks' snapshots
            // must keep observing this worker's progress.
            let proven = self.config.elide && workload.epoch_is_proven(epoch);
            if proven {
                // No signature, so no span: the next copies are full.
                dirty.mark_all();
            }
            let mut elided_tasks = 0u64;
            let mut elided_accesses = 0u64;

            // Tasks of this epoch started so far (the position's task number).
            let mut local_counter = 0u32;
            for tasks in share {
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
                let snapshot = (!proven).then(|| SnapshotBuf::at_start(&shared.board));

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
                        let Some(snapshot) = &snapshot else {
                            // exit_task (elided): the static proof stands in
                            // for the admission this task would otherwise
                            // have queued.
                            let accesses = counting.take();
                            if accesses > 0 {
                                stats.add_elided_signature();
                                stats.add_elided_admit();
                                stats.add_proven_accesses(accesses);
                                elided_tasks += 1;
                                elided_accesses += accesses;
                            }
                            continue;
                        };
                        // exit_task: a signature that cannot join the chunk's
                        // open run exactly ships it and opens the next.
                        let at = local_counter + (task - tasks.start) as u32;
                        if let Some(run) = runs.push(at, recorder.take()) {
                            if !ship(&mut batch, &mut tally, dirty, snapshot.clone(), epoch, run) {
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
                    // never shipped, but what they wrote is in memory.
                    if let Some((_, sig)) = runs.finish() {
                        dirty.mark_sig(&sig);
                    }
                    dirty.mark_sig(&recorder.take());
                    return;
                }
                if let (Some(snapshot), Some(run)) = (snapshot, runs.finish()) {
                    if !ship(&mut batch, &mut tally, dirty, snapshot, epoch, run) {
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
            // Epoch boundary: fold the local counts, and drain the local
            // buffers so the rendezvous / completion invariants hold (every
            // request this worker generated is counted in `sent` and in a
            // ring whenever it is parked or finished).
            tally.fold();
            if !Self::flush_checks(shared, check_tx, &mut batch) {
                return;
            }
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
        // send_end_token: completion is signalled via `done_workers` by the
        // caller; nothing further to do here.
    }

    /// All-worker rendezvous: drain the checker, then have the serial worker
    /// snapshot the workload as the new checkpoint. Returns `false` if the
    /// pass was aborted (misspeculation, fault, or timeout).
    #[allow(clippy::too_many_arguments)]
    fn checkpoint_rendezvous<W: SpecWorkload>(
        &self,
        workload: &W,
        shared: &PassShared<W::State>,
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
        if serial {
            // Wait for the checker to finish all requests before the
            // checkpoint, so the snapshot is known-good (§4.2.2).
            let backoff = Backoff::new();
            while shared.processed.load(Ordering::Acquire) < shared.sent.load(Ordering::Acquire) {
                if shared.misspec.load(Ordering::Acquire) {
                    break;
                }
                if backoff.is_completed() {
                    if shared.deadline_passed() {
                        shared.record_failure(AbortReason::Timeout);
                        break;
                    }
                    std::thread::yield_now();
                } else {
                    backoff.snooze();
                }
            }
            if !shared.misspec.load(Ordering::Acquire) {
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
                    // Everything below this epoch is durably checkpointed
                    // and fully checked (the drain above saw processed ==
                    // sent): let the checker truncate its logs.
                    shared.prune_epoch.store(epoch as u32, Ordering::Release);
                }
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
            let releaser = shared.sync.last_releaser();
            if releaser != tid {
                sink.emit(Event::Wake {
                    edge: WakeEdge::Checkpoint,
                    src_tid: releaser,
                    seq: epoch as u64,
                });
            }
        }
        released
    }

    /// Folds the checker's fast-path counters accumulated since the last
    /// summary into `stats` and the trace. Called at prune boundaries and on
    /// checker exit, so the flight-recorder rings see one low-volume record
    /// per checkpoint interval instead of one per admit.
    fn fold_checker_summary(
        state: &CheckerState<S>,
        epoch: u32,
        reported_skips: &mut u64,
        reported_comparisons: &mut u64,
        stats: &RegionStats,
        sink: &mut TraceSink,
    ) {
        let skips = state.epoch_skips() - *reported_skips;
        let comparisons = state.comparisons() - *reported_comparisons;
        if skips == 0 && comparisons == 0 {
            return;
        }
        *reported_skips = state.epoch_skips();
        *reported_comparisons = state.comparisons();
        stats.add_checker_epoch_skips(skips);
        sink.emit(Event::CheckerSummary {
            epoch,
            skips,
            comparisons,
        });
    }

    /// The checker thread (Fig. 4.7's checker pseudo-code). Drains every
    /// worker's SPSC ring in bursts and admits each request against its
    /// epoch-bucketed log. Returns the number of signature comparisons
    /// performed. May panic when the fault plan schedules a checker death;
    /// the spawn wrapper contains it.
    fn checker_loop<St>(
        &self,
        shared: &PassShared<St>,
        check_rxs: &[spsc::Consumer<CheckMsg<S>>],
        metrics: &Metrics,
        sink: &mut TraceSink,
    ) -> u64 {
        let stats = metrics.stats();
        let num_workers = self.config.num_workers;
        let mut state =
            CheckerState::<S>::with_aggregates(num_workers, self.config.epoch_summaries);
        let backoff = Backoff::new();
        let mut picked: u64 = 0;
        let mut last_pruned: u32 = 0;
        let mut reported_skips: u64 = 0;
        let mut reported_comparisons: u64 = 0;
        let mut inbox: Vec<CheckMsg<S>> = Vec::with_capacity(CHECK_PICKUP);
        'run: loop {
            // Apply a new checkpoint watermark before the next burst. The
            // serial worker publishes it only after the drain, so every
            // request below it has already been admitted (never pruned
            // unchecked).
            let watermark = shared.prune_epoch.load(Ordering::Acquire);
            if watermark > last_pruned {
                state.retire_before(watermark);
                last_pruned = watermark;
                Self::fold_checker_summary(
                    &state,
                    watermark,
                    &mut reported_skips,
                    &mut reported_comparisons,
                    stats,
                    sink,
                );
            }
            let mut drained = 0usize;
            // Ring `tid` is worker `tid`'s.
            for (tid, rx) in check_rxs.iter().enumerate() {
                drained += rx.consume_batch(&mut inbox, CHECK_PICKUP);
                let mut pickup = Pickup {
                    processed: &shared.processed,
                    admitted: 0,
                };
                for req in inbox.drain(..) {
                    let snapshot = req.snapshot.positions(num_workers);
                    let pos = snapshot[tid];
                    backoff.reset();
                    // SPSC produce → consume: the worker's exit_task flush is
                    // the causal source of this pickup.
                    sink.emit(Event::Wake {
                        edge: WakeEdge::Queue,
                        src_tid: tid,
                        seq: picked,
                    });
                    picked += 1;
                    let mut forced = false;
                    let check_fault = shared.fault.check(pos.epoch, pos.task as u64, tid);
                    if let Some(f) = check_fault {
                        sink.emit(Event::FaultInjected {
                            kind: f.kind(),
                            epoch: pos.epoch,
                            task: pos.task as u64,
                        });
                    }
                    match check_fault {
                        Some(CheckFault::Stall(d)) => {
                            // Sleep in slices so an abort — or the watchdog
                            // expiring — during the injected stall still ends
                            // the pass promptly instead of waiting it out.
                            let until = Instant::now() + d;
                            loop {
                                if shared.misspec.load(Ordering::Acquire) {
                                    break;
                                }
                                if shared.deadline_passed() {
                                    shared.record_failure(AbortReason::Timeout);
                                    break;
                                }
                                let now = Instant::now();
                                if now >= until {
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(5).min(until - now));
                            }
                            if shared.misspec.load(Ordering::Acquire) {
                                break 'run;
                            }
                        }
                        Some(CheckFault::Die) => {
                            panic!("injected fault: checker death at epoch {}", pos.epoch)
                        }
                        Some(CheckFault::ForceConflict) => forced = true,
                        None => {}
                    }
                    let conflict = if forced {
                        Some(Conflict {
                            earlier: (tid, pos),
                            later: (tid, pos),
                        })
                    } else {
                        state.admit_parts(tid, pos, snapshot, req.sig)
                    };
                    pickup.admitted += 1;
                    if let Some(c) = conflict {
                        *shared.conflict.lock() = Some(c);
                        sink.emit(Event::Misspeculation {
                            earlier_tid: c.earlier.0,
                            earlier_epoch: c.earlier.1.epoch,
                            earlier_task: c.earlier.1.task as u64,
                            later_tid: c.later.0,
                            later_epoch: c.later.1.epoch,
                            later_task: c.later.1.task as u64,
                        });
                        shared.misspec.store(true, Ordering::Release);
                        break 'run;
                    }
                }
            }
            if drained == 0 {
                if shared.misspec.load(Ordering::Acquire) {
                    break;
                }
                if shared.done_workers.load(Ordering::Acquire) == num_workers
                    && shared.processed.load(Ordering::Acquire)
                        == shared.sent.load(Ordering::Acquire)
                {
                    break;
                }
                if backoff.is_completed() {
                    if shared.deadline_passed() {
                        // The checker doubles as watchdog: if workers
                        // are stuck somewhere uninstrumented, condemn
                        // the pass rather than idle forever.
                        shared.record_failure(AbortReason::Timeout);
                        break;
                    }
                    std::thread::yield_now();
                } else {
                    backoff.snooze();
                }
            }
        }
        // Whatever accrued since the last checkpoint still needs surfacing.
        Self::fold_checker_summary(
            &state,
            last_pruned,
            &mut reported_skips,
            &mut reported_comparisons,
            stats,
            sink,
        );
        state.comparisons()
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
