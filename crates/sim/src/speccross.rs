//! Simulated SPECCROSS execution (§4.2).
//!
//! Tasks are distributed round-robin within each epoch; workers cross epoch
//! boundaries freely, subject only to the speculative-range gate (a task may
//! start once every task more than `spec_distance` ahead of it in the
//! sequential order has finished). The checker is modelled as one single
//! server whose clock bounds checkpoint rendezvous and the region's
//! completion — which is how the checker-bottleneck effect of §5.2 emerges
//! at high thread counts.
//!
//! Conflicts are *detected, not assumed*, and by the engine's own checker:
//! each task's accesses are folded into a real [`RangeSignature`] and
//! admitted through one [`CheckerState`], with the [`Position`]
//! and start-time snapshot the task would have had on the virtual timeline
//! (what every other worker's `PositionBoard` slot shows at its start: the
//! first task of that worker's share still running, else one past its
//! last). The simulator holds no signature log and runs no conflict test of
//! its own; the checker's service time is billed from the state's own
//! comparison counter. Recovery replays the thesis' sequence: roll back to
//! the last checkpoint, re-execute the misspeculated epochs under
//! non-speculative barriers, resume speculation.
//!
//! One worker-side rule is the simulator's own (docs/CHECKER.md): a check
//! *request* is filed — and the checker billed — only for a task that
//! starts while some worker sits in a different epoch; lockstep interiors
//! are admitted for free.

use crossinvoc_runtime::fault::{CheckFault, FaultKind, FaultPlan, TaskFault};
use crossinvoc_runtime::signature::{AccessSignature, RangeSignature};
use crossinvoc_runtime::stats::RegionStats;
use crossinvoc_runtime::trace::{Event, WakeEdge, CHECKER_TID};
use crossinvoc_speccross::{CheckerState, Position};

use crate::barrier::barrier_epoch;
use crate::cost::CostModel;
use crate::result::SimResult;
use crate::tracing::SimSinks;
use crate::workload::SimWorkload;

/// Parameters of a simulated SPECCROSS execution.
#[derive(Debug, Clone)]
pub struct SpecSimParams {
    /// Worker thread count (the checker is additional).
    pub threads: usize,
    /// Speculative range in tasks (profiled minimum dependence distance);
    /// `None` disables gating.
    pub spec_distance: Option<u64>,
    /// Checkpoint every this many epochs.
    pub checkpoint_every: usize,
    /// Force a misspeculation when this global task index is admitted
    /// (the Fig. 5.3 experiment's "randomly triggered" misspeculation).
    pub inject_misspec_at_task: Option<u64>,
    /// Deterministic fault schedule, sharing [`FaultPlan`] semantics with
    /// the threaded engine: worker panics roll back to the checkpoint and
    /// re-execute under barriers, checker death degrades the remaining
    /// region to barriers, forced false positives misspeculate, stalls and
    /// delays advance the respective clocks, and snapshot/restore failures
    /// skip a checkpoint / pay an extra recovery.
    pub fault_plan: Option<FaultPlan>,
    /// Ring capacity per simulated thread for execution tracing; `None`
    /// disables it. Traced runs stamp events with virtual time, producing
    /// the same JSONL schema as the threaded engine (see
    /// `docs/OBSERVABILITY.md`), deterministically.
    pub trace_capacity: Option<usize>,
    /// Model the checker's per-epoch aggregate-signature fast path (the
    /// threaded checker's epoch-summary pruning): one aggregate test per
    /// epoch bucket replaces the per-entry scan whenever the aggregate is
    /// disjoint from the probe. Verdicts are identical either way — the
    /// conflict test is monotone under signature union — only the
    /// comparison count (and with it the checker's service time) changes.
    /// On by default; turn off for the pre-summary baseline.
    pub epoch_summaries: bool,
    /// Region-server attribution id stamped onto the trace, mirroring the
    /// threaded engine's `SpecConfig::region`; 0 (the default, solo) keeps
    /// the JSONL wire format byte-identical to the pre-region schema.
    pub region: u64,
}

impl SpecSimParams {
    /// Defaults matching the thesis: checkpoint every 1000 epochs, no
    /// injection, no gating.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            spec_distance: None,
            checkpoint_every: 1000,
            inject_misspec_at_task: None,
            fault_plan: None,
            trace_capacity: None,
            epoch_summaries: true,
            region: 0,
        }
    }

    /// Sets the speculative range.
    pub fn spec_distance(mut self, d: Option<u64>) -> Self {
        self.spec_distance = d;
        self
    }

    /// Sets the checkpoint interval in epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn checkpoint_every(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "checkpoint interval must be positive");
        self.checkpoint_every = epochs;
        self
    }

    /// Forces a misspeculation at a global task index.
    pub fn inject_misspec_at_task(mut self, task: Option<u64>) -> Self {
        self.inject_misspec_at_task = task;
        self
    }

    /// Installs a deterministic fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables execution tracing with `capacity` records per thread.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables or disables the checker's epoch-summary fast path.
    pub fn epoch_summaries(mut self, enabled: bool) -> Self {
        self.epoch_summaries = enabled;
        self
    }

    /// Attributes the simulated region's trace to a region-server
    /// submission id (default 0 = solo).
    pub fn region(mut self, region_id: u64) -> Self {
        self.region = region_id;
        self
    }
}

/// What a worker's `PositionBoard` slot shows at virtual time `at`, given
/// the `(finish, position)` of every task it has run this pass: the first
/// one still running, else one past its last.
fn position_at(timeline: &[(u64, Position)], at: u64) -> Position {
    let retired = timeline.partition_point(|&(finish, _)| finish <= at);
    match (timeline.get(retired), timeline.last()) {
        (Some(&(_, running)), _) => running,
        (None, Some(&(_, last))) => Position {
            task: last.task + 1,
            ..last
        },
        (None, None) => Position::ZERO,
    }
}

/// The checker of a pass: the engine's checker state, the virtual clock of
/// the single server running it, and the fast-path tallies its trace rows
/// report.
struct Checker {
    state: CheckerState<RangeSignature>,
    clock: u64,
    /// `(skips, comparisons)` billed since the last `CheckerSummary`.
    unreported: (u64, u64),
}

impl Checker {
    /// Flushes the unreported fast-path accounting as a delta-encoded
    /// `CheckerSummary` (at epoch boundaries and on every pass exit, like
    /// the threaded checker's retirement-boundary summaries).
    fn report(&mut self, sinks: &mut SimSinks, stats: &RegionStats, epoch: usize) {
        if self.unreported != (0, 0) {
            let (skips, comparisons) = std::mem::take(&mut self.unreported);
            stats.add_checker_epoch_skips(skips);
            sinks.checker.emit_at(
                self.clock,
                Event::CheckerSummary {
                    epoch: epoch as u32,
                    skips,
                    comparisons,
                },
            );
        }
    }
}

/// Why a simulated speculative pass aborted.
enum AbortCause {
    /// Signature conflict (organic or forced false positive): the one
    /// abort that counts as a misspeculation.
    Conflict,
    /// An injected worker panic; rolls back like a conflict but is not a
    /// misspeculation.
    Panic,
    /// The checker died; the remaining region degrades to barriers.
    CheckerDeath,
}

/// Outcome of one simulated speculative pass.
enum PassEnd {
    /// Ran to the last epoch; `end` is the later of the worker and checker
    /// clocks.
    Completed { end: u64 },
    Aborted {
        detect_time: u64,
        checkpoint_epoch: usize,
        resume_epoch: usize,
        cause: AbortCause,
    },
}

/// Simulates SPECCROSS over `workload`.
///
/// # Panics
///
/// Panics if `params.threads` is zero.
pub fn speccross<W: SimWorkload + ?Sized>(
    workload: &W,
    params: &SpecSimParams,
    cost: &CostModel,
) -> SimResult {
    assert!(params.threads > 0, "at least one thread is required");
    let stats = RegionStats::new();
    let num_epochs = workload.num_invocations();
    let mut busy = vec![0u64; params.threads];
    let mut idle = vec![0u64; params.threads];
    let mut now = 0u64;
    let mut start_epoch = 0usize;
    let mut degraded = false;
    // Cloning replays the plan with a fresh budget, so repeated `speccross`
    // calls over the same params are deterministic.
    let fault = params.fault_plan.clone().unwrap_or_default();
    let mut sinks = SimSinks::with_checker(params.threads, params.trace_capacity.unwrap_or(0))
        .region(params.region);
    let mut misspec_ordinal = 0u64;

    while start_epoch < num_epochs {
        match speculative_pass(
            workload,
            params,
            cost,
            &fault,
            start_epoch,
            now,
            &stats,
            &mut busy,
            &mut idle,
            &mut sinks,
        ) {
            PassEnd::Completed { end } => {
                now = end;
                start_epoch = num_epochs;
            }
            PassEnd::Aborted {
                detect_time,
                checkpoint_epoch,
                resume_epoch,
                cause,
            } => {
                if matches!(cause, AbortCause::Conflict) {
                    stats.add_misspeculation();
                    // Checker verdict → rollback: the recovery the manager
                    // now performs was caused by the checker's decision at
                    // `detect_time`.
                    sinks.manager.emit_at(
                        detect_time,
                        Event::Wake {
                            edge: WakeEdge::Checker,
                            src_tid: CHECKER_TID,
                            seq: misspec_ordinal,
                        },
                    );
                    misspec_ordinal += 1;
                }
                now = detect_time + cost.recovery_ns;
                if fault.restore_fails(checkpoint_epoch as u32) {
                    // First restore attempt failed; the retry costs another
                    // recovery round-trip.
                    sinks.manager.emit_at(
                        now,
                        Event::FaultInjected {
                            kind: FaultKind::RestoreFail,
                            epoch: checkpoint_epoch as u32,
                            task: 0,
                        },
                    );
                    now += cost.recovery_ns;
                }
                // Re-execute the aborted epochs under real barriers; after a
                // checker death there is no one left to validate speculation,
                // so the rest of the region runs under barriers too.
                let to = if matches!(cause, AbortCause::CheckerDeath) {
                    degraded = true;
                    sinks.manager.emit_at(
                        now,
                        Event::Degradation {
                            epoch: checkpoint_epoch as u32,
                        },
                    );
                    num_epochs
                } else {
                    resume_epoch
                };
                let mut clocks = vec![now; params.threads];
                for epoch in checkpoint_epoch..to {
                    barrier_epoch(
                        workload,
                        cost,
                        epoch,
                        &mut clocks,
                        &mut busy,
                        &mut idle,
                        &stats,
                        &mut sinks,
                    );
                }
                now = clocks.into_iter().max().unwrap_or(now);
                start_epoch = to;
            }
        }
    }

    SimResult {
        total_ns: now,
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded,
        trace: sinks.finish(),
    }
}

/// Simulates one speculative pass from `start_epoch` beginning at `t0`.
#[allow(clippy::too_many_arguments)]
fn speculative_pass<W: SimWorkload + ?Sized>(
    workload: &W,
    params: &SpecSimParams,
    cost: &CostModel,
    fault: &FaultPlan,
    start_epoch: usize,
    t0: u64,
    stats: &RegionStats,
    busy: &mut [u64],
    idle: &mut [u64],
    sinks: &mut SimSinks,
) -> PassEnd {
    let threads = params.threads;
    let num_epochs = workload.num_invocations();

    // Global task numbering across the remaining epochs.
    let mut prefix = Vec::with_capacity(num_epochs + 1 - start_epoch);
    let mut acc = 0u64;
    for e in start_epoch..num_epochs {
        prefix.push(acc);
        acc += workload.num_iterations(e) as u64;
    }
    prefix.push(acc);

    let mut clocks = vec![t0; threads];
    let mut checker = Checker {
        state: CheckerState::with_aggregates(threads, params.epoch_summaries),
        clock: t0,
        unreported: (0, 0),
    };
    stats.add_checkpoint(); // pass-entry checkpoint
    sinks.manager.emit_at(
        t0,
        Event::Checkpoint {
            epoch: start_epoch as u32,
        },
    );
    let mut checkpoint_epoch = start_epoch;
    let mut max_epoch_started = start_epoch;
    // Current epoch per worker: when all workers sit in the same epoch,
    // its tasks are mutually independent by construction and their
    // signatures are "safely skipped" (§4.2.1) — no checking request.
    let mut cur_epoch = vec![start_epoch; threads];

    // Finish times in global order, for the gate's prefix maximum.
    let mut finish_prefix_max: Vec<u64> = Vec::with_capacity(acc as usize);
    // Per worker, the (finish, position) of every task it ran this pass —
    // the virtual timeline start-time snapshots are read off.
    let mut timeline: Vec<Vec<(u64, Position)>> = vec![Vec::new(); threads];
    let mut snapshot = vec![Position::ZERO; threads];
    let mut pairs = Vec::new();

    for epoch in start_epoch..num_epochs {
        stats.add_epoch();
        let periodic =
            epoch > start_epoch && (epoch - start_epoch).is_multiple_of(params.checkpoint_every);
        if periodic {
            // Rendezvous: all workers synchronize, the checker drains, the
            // state is snapshotted.
            let worker_max = clocks.iter().copied().max().expect("threads > 0");
            let sync = worker_max.max(checker.clock) + cost.checkpoint_ns;
            // The release's causal source: the checker when its drain bound
            // the rendezvous, else the slowest worker.
            let releaser = if checker.clock > worker_max {
                CHECKER_TID
            } else {
                clocks
                    .iter()
                    .position(|&c| c == worker_max)
                    .expect("nonempty")
            };
            for (tid, (clock, i)) in clocks.iter_mut().zip(idle.iter_mut()).enumerate() {
                let wait = sync - *clock;
                sinks.workers[tid].emit_at(
                    *clock,
                    Event::BarrierEnter {
                        epoch: epoch as u32,
                    },
                );
                *i += wait;
                *clock = sync;
                sinks.workers[tid].emit_at(
                    sync,
                    Event::BarrierLeave {
                        epoch: epoch as u32,
                        wait_ns: wait,
                    },
                );
                if wait > 0 && tid != releaser {
                    sinks.workers[tid].emit_at(
                        sync,
                        Event::Wake {
                            edge: WakeEdge::Checkpoint,
                            src_tid: releaser,
                            seq: epoch as u64,
                        },
                    );
                }
            }
            if fault.snapshot_fails(epoch as u32) {
                // Snapshot failed: the rendezvous still happened, but the
                // previous checkpoint stays the rollback target.
                sinks.manager.emit_at(
                    sync,
                    Event::FaultInjected {
                        kind: FaultKind::SnapshotFail,
                        epoch: epoch as u32,
                        task: 0,
                    },
                );
            } else {
                stats.add_checkpoint();
                checkpoint_epoch = epoch;
                sinks.manager.emit_at(
                    sync,
                    Event::Checkpoint {
                        epoch: epoch as u32,
                    },
                );
            }
            // The checker has drained. Nothing before the rendezvous can
            // race past it; this is the prune watermark the threaded
            // checker retires by.
            checker.clock = sync;
            checker.state.retire_before(epoch as u32);
        }

        let ntasks = workload.num_iterations(epoch);
        sinks.workers[0].emit_at(
            clocks[0],
            Event::EpochBegin {
                epoch: epoch as u32,
            },
        );
        for task in 0..ntasks {
            let tid = task % threads;
            let global = prefix[epoch - start_epoch] + task as u64;
            // Speculative-range gate: wait until every task more than
            // `spec_distance` behind has finished.
            let mut release = clocks[tid];
            if let Some(d) = params.spec_distance {
                // Distance d: every task at least d behind must have
                // finished (d = 0 degenerates to full serialization).
                let back = d.max(1);
                if global >= back {
                    let gate = finish_prefix_max[(global - back) as usize];
                    if gate > release {
                        stats.add_stall();
                        release = gate;
                    }
                }
            }
            let task_fault = fault.task_start(epoch as u32, task as u64, tid);
            if let Some(f) = task_fault {
                sinks.workers[tid].emit_at(
                    release,
                    Event::FaultInjected {
                        kind: f.kind(),
                        epoch: epoch as u32,
                        task: task as u64,
                    },
                );
            }
            match task_fault {
                Some(TaskFault::Delay(d)) => {
                    stats.add_stall();
                    release += d.as_nanos() as u64;
                }
                Some(TaskFault::Panic) => {
                    // The panic is contained at the task boundary; the pass
                    // aborts immediately and rolls back to the checkpoint.
                    idle[tid] += release - clocks[tid];
                    clocks[tid] = release;
                    checker.report(sinks, stats, epoch);
                    return PassEnd::Aborted {
                        detect_time: release,
                        checkpoint_epoch,
                        resume_epoch: (max_epoch_started.max(epoch) + 1).min(num_epochs),
                        cause: AbortCause::Panic,
                    };
                }
                None => {}
            }
            idle[tid] += release - clocks[tid];
            let work = cost.task_overhead_ns + workload.iteration_cost(epoch, task);
            let start = release;
            let finish = start + work;
            busy[tid] += work;
            clocks[tid] = finish;
            stats.add_task();
            sinks.workers[tid].emit_at(
                start,
                Event::TaskDispatch {
                    epoch: epoch as u32,
                    task: task as u64,
                    count: 1,
                },
            );
            sinks.workers[tid].emit_at(
                finish,
                Event::TaskRetire {
                    epoch: epoch as u32,
                    task: task as u64,
                    count: 1,
                },
            );

            let last_max = finish_prefix_max.last().copied().unwrap_or(0);
            finish_prefix_max.push(last_max.max(finish));
            max_epoch_started = max_epoch_started.max(epoch);
            let pos = Position {
                epoch: epoch as u32,
                task: (task / threads) as u32,
            };
            timeline[tid].push((finish, pos));

            // Build the signature and admit it through the engine's checker
            // with the snapshot the task took at its start.
            pairs.clear();
            workload.accesses(epoch, task, &mut pairs);
            let mut sig = RangeSignature::empty();
            for &(addr, kind) in &pairs {
                sig.record(addr, kind);
            }
            for (slot, ran) in snapshot.iter_mut().zip(&timeline) {
                *slot = position_at(ran, start);
            }
            let nonempty = !sig.is_empty();
            let mut conflicted = params.inject_misspec_at_task == Some(global);
            // The earlier half of the conflicting pair, for the trace's
            // misspeculation ledger; forced/injected conflicts have no real
            // partner, so both sides name the admitted task.
            let mut conflict_with = (tid, pos);
            let before = (checker.state.comparisons(), checker.state.epoch_skips());
            if let Some(conflict) = checker.state.admit_parts(tid, pos, &snapshot, sig) {
                conflicted = true;
                conflict_with = conflict.earlier;
            }
            let comparisons = checker.state.comparisons() - before.0;
            let skips = checker.state.epoch_skips() - before.1;
            // Checker server: one request per non-empty signature from a
            // task whose execution overlaps a different epoch.
            cur_epoch[tid] = epoch;
            let epochs_overlap = cur_epoch.iter().any(|&e| e != epoch);
            if (nonempty && epochs_overlap) || conflicted {
                stats.add_check_request();
                // Checker-side faults fire once per request (the shared
                // single-shot budget of the threaded plan).
                let check_fault = fault.check(epoch as u32, task as u64, tid);
                checker.unreported.0 += skips;
                checker.unreported.1 += comparisons;
                // SPSC produce → consume: the checker picks the request up
                // once it is both sent (task finished) and the server is
                // free.
                let pickup = checker.clock.max(finish);
                sinks.checker.emit_at(
                    pickup,
                    Event::Wake {
                        edge: WakeEdge::Queue,
                        src_tid: tid,
                        seq: global,
                    },
                );
                checker.clock =
                    pickup + cost.check_request_ns + cost.check_compare_ns * comparisons;
                if let Some(f) = check_fault {
                    sinks.checker.emit_at(
                        checker.clock,
                        Event::FaultInjected {
                            kind: f.kind(),
                            epoch: epoch as u32,
                            task: task as u64,
                        },
                    );
                }
                match check_fault {
                    Some(CheckFault::ForceConflict) => conflicted = true,
                    Some(CheckFault::Stall(d)) => checker.clock += d.as_nanos() as u64,
                    Some(CheckFault::Die) => {
                        checker.report(sinks, stats, epoch);
                        return PassEnd::Aborted {
                            detect_time: checker.clock,
                            checkpoint_epoch,
                            resume_epoch: (max_epoch_started + 1).min(num_epochs),
                            cause: AbortCause::CheckerDeath,
                        };
                    }
                    None => {}
                }
            }
            if conflicted {
                let (e_tid, earlier) = conflict_with;
                let detect_time = checker.clock;
                sinks.checker.emit_at(
                    detect_time,
                    Event::Misspeculation {
                        earlier_tid: e_tid,
                        earlier_epoch: earlier.epoch,
                        earlier_task: earlier.task as u64 * threads as u64 + e_tid as u64,
                        later_tid: tid,
                        later_epoch: epoch as u32,
                        later_task: task as u64,
                    },
                );
                checker.report(sinks, stats, epoch);
                return PassEnd::Aborted {
                    detect_time,
                    checkpoint_epoch,
                    resume_epoch: (max_epoch_started + 1).min(num_epochs),
                    cause: AbortCause::Conflict,
                };
            }
        }
        checker.report(sinks, stats, epoch);
        sinks.workers[0].emit_at(
            clocks[0],
            Event::EpochEnd {
                epoch: epoch as u32,
            },
        );
    }

    checker.report(sinks, stats, num_epochs);
    PassEnd::Completed {
        end: clocks.into_iter().max().unwrap_or(t0).max(checker.clock),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::barrier;
    use crate::seq::sequential;
    use crate::workload::{SimWorkload, UniformWorkload};
    use crossinvoc_runtime::signature::AccessKind;

    #[test]
    fn independent_work_scales_past_barriers() {
        let w = UniformWorkload::independent(500, 24, 2_000);
        let seq = sequential(&w, &CostModel::default());
        let bar = barrier(&w, 8, &CostModel::default());
        let spec = speccross(&w, &SpecSimParams::with_threads(8), &CostModel::default());
        assert_eq!(spec.stats.misspeculations, 0);
        assert!(
            spec.speedup_over(seq.total_ns) > bar.speedup_over(seq.total_ns),
            "speccross {} vs barrier {}",
            spec.speedup_over(seq.total_ns),
            bar.speedup_over(seq.total_ns)
        );
    }

    /// Epoch e's task t writes cell t; epoch e+1's task t reads cell t:
    /// same worker owns the chain, so overlap never conflicts — but a
    /// *shifted* pattern does.
    struct Shifted {
        epochs: usize,
        tasks: usize,
    }
    impl SimWorkload for Shifted {
        fn num_invocations(&self) -> usize {
            self.epochs
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.tasks
        }
        fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
            1_000 + (iter as u64 % 7) * 300
        }
        fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
            out.push(((iter + inv) % self.tasks, AccessKind::Write));
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.tasks)
        }
    }

    #[test]
    fn ungated_conflicting_workload_misspeculates() {
        let w = Shifted {
            epochs: 40,
            tasks: 16,
        };
        let r = speccross(&w, &SpecSimParams::with_threads(8), &CostModel::default());
        assert!(
            r.stats.misspeculations > 0,
            "shifted writes across workers must conflict when ungated"
        );
        // All tasks still execute (possibly more than once after recovery).
        assert!(r.stats.tasks >= 40 * 16);
    }

    #[test]
    fn gating_at_one_epoch_distance_prevents_misspeculation() {
        let w = Shifted {
            epochs: 40,
            tasks: 16,
        };
        // Closest conflicting pair is one epoch minus one task apart.
        let params = SpecSimParams::with_threads(8).spec_distance(Some(15));
        let r = speccross(&w, &params, &CostModel::default());
        assert_eq!(r.stats.misspeculations, 0);
        assert_eq!(r.stats.tasks, 40 * 16);
        assert!(r.stats.stalls > 0, "the gate must have engaged");
    }

    #[test]
    fn epoch_summaries_preserve_misspeculation_verdicts() {
        // A genuinely conflicting workload: the fast path must not change
        // what the checker decides, only how much it scans.
        let w = Shifted {
            epochs: 40,
            tasks: 16,
        };
        let on = speccross(&w, &SpecSimParams::with_threads(8), &CostModel::default());
        let off = speccross(
            &w,
            &SpecSimParams::with_threads(8).epoch_summaries(false),
            &CostModel::default(),
        );
        assert_eq!(on.stats.misspeculations, off.stats.misspeculations);
        assert_eq!(on.stats.tasks, off.stats.tasks);
        assert_eq!(on.stats.check_requests, off.stats.check_requests);
    }

    #[test]
    fn injected_misspeculation_recovers_and_completes() {
        let w = UniformWorkload::independent(100, 16, 1_000);
        let clean = speccross(&w, &SpecSimParams::with_threads(4), &CostModel::default());
        let params = SpecSimParams::with_threads(4).inject_misspec_at_task(Some(800));
        let r = speccross(&w, &params, &CostModel::default());
        assert_eq!(r.stats.misspeculations, 1);
        assert!(r.total_ns > clean.total_ns, "recovery has a cost");
    }

    #[test]
    fn more_checkpoints_cost_more_without_misspeculation() {
        let w = UniformWorkload::independent(100, 16, 1_000);
        let sparse = speccross(
            &w,
            &SpecSimParams::with_threads(4).checkpoint_every(50),
            &CostModel::default(),
        );
        let dense = speccross(
            &w,
            &SpecSimParams::with_threads(4).checkpoint_every(2),
            &CostModel::default(),
        );
        assert!(dense.total_ns > sparse.total_ns);
        assert!(dense.stats.checkpoints > sparse.stats.checkpoints);
    }

    #[test]
    fn more_checkpoints_reduce_reexecution_after_misspeculation() {
        // Kernel cost dominates checkpoint cost, as in the paper's
        // programs, so saved re-execution outweighs extra checkpoints.
        let w = UniformWorkload::independent(100, 16, 50_000);
        let inject = Some(95 * 16 + 3); // late misspeculation
        let sparse = speccross(
            &w,
            &SpecSimParams::with_threads(4)
                .checkpoint_every(1000)
                .inject_misspec_at_task(inject),
            &CostModel::default(),
        );
        let dense = speccross(
            &w,
            &SpecSimParams::with_threads(4)
                .checkpoint_every(10)
                .inject_misspec_at_task(inject),
            &CostModel::default(),
        );
        // With one checkpoint at epoch 0, recovery re-executes ~95 epochs;
        // with checkpoints every 10 epochs it re-executes at most ~15.
        assert!(
            dense.total_ns < sparse.total_ns,
            "dense {} vs sparse {}",
            dense.total_ns,
            sparse.total_ns
        );
    }

    #[test]
    fn checker_requests_require_signatures_and_epoch_overlap() {
        let w = UniformWorkload::same_cell(10, 8, 1_000);
        let r = speccross(&w, &SpecSimParams::with_threads(4), &CostModel::default());
        assert!(
            r.stats.check_requests > 0 && r.stats.check_requests <= 80,
            "epoch-boundary overlaps must check, lockstep interiors may skip: {}",
            r.stats.check_requests
        );
        let w2 = UniformWorkload::independent(10, 8, 1_000);
        let r2 = speccross(&w2, &SpecSimParams::with_threads(4), &CostModel::default());
        assert_eq!(r2.stats.check_requests, 0, "empty signatures are skipped");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let w = UniformWorkload::independent(1, 1, 1);
        speccross(&w, &SpecSimParams::with_threads(0), &CostModel::default());
    }

    #[test]
    fn injected_worker_panic_rolls_back_without_misspeculation() {
        let w = UniformWorkload::independent(60, 16, 1_000);
        let clean = speccross(&w, &SpecSimParams::with_threads(4), &CostModel::default());
        let params =
            SpecSimParams::with_threads(4).fault_plan(FaultPlan::default().worker_panic_at(40, 3));
        let r = speccross(&w, &params, &CostModel::default());
        assert_eq!(
            r.stats.misspeculations, 0,
            "a panic is not a misspeculation"
        );
        assert!(!r.degraded);
        assert!(r.stats.tasks >= 60 * 16, "rollback re-executes epochs");
        assert!(r.total_ns > clean.total_ns, "recovery has a cost");
    }

    #[test]
    fn checker_death_degrades_rest_of_region_to_barriers() {
        let w = UniformWorkload::same_cell(40, 8, 1_000);
        let params =
            SpecSimParams::with_threads(4).fault_plan(FaultPlan::default().checker_death_at(10));
        let r = speccross(&w, &params, &CostModel::default());
        assert!(r.degraded, "losing the checker must degrade the region");
        assert!(r.stats.tasks >= 40 * 8, "every epoch still executes");
    }

    #[test]
    fn forced_false_positive_counts_as_misspeculation() {
        let w = UniformWorkload::same_cell(40, 8, 1_000);
        let params =
            SpecSimParams::with_threads(4).fault_plan(FaultPlan::default().false_positive_at(20));
        let r = speccross(&w, &params, &CostModel::default());
        assert!(r.stats.misspeculations >= 1);
        assert!(!r.degraded);
        assert!(r.stats.tasks >= 40 * 8);
    }

    #[test]
    fn snapshot_failure_keeps_previous_checkpoint() {
        let w = UniformWorkload::independent(30, 8, 1_000);
        let clean = speccross(
            &w,
            &SpecSimParams::with_threads(4).checkpoint_every(10),
            &CostModel::default(),
        );
        let params = SpecSimParams::with_threads(4)
            .checkpoint_every(10)
            .fault_plan(FaultPlan::default().snapshot_failure_at(10));
        let r = speccross(&w, &params, &CostModel::default());
        assert_eq!(r.stats.checkpoints, clean.stats.checkpoints - 1);
    }

    #[test]
    fn restore_failure_costs_an_extra_recovery() {
        let w = UniformWorkload::independent(60, 16, 1_000);
        let base = SpecSimParams::with_threads(4).inject_misspec_at_task(Some(500));
        let plain = speccross(&w, &base, &CostModel::default());
        let faulty = speccross(
            &w,
            &base
                .clone()
                .fault_plan(FaultPlan::default().restore_failure()),
            &CostModel::default(),
        );
        assert_eq!(
            faulty.total_ns,
            plain.total_ns + CostModel::default().recovery_ns,
            "one failed restore retries once at one extra recovery cost"
        );
    }

    #[test]
    fn traced_run_reconstructs_misspeculation_ledger() {
        use crossinvoc_runtime::trace::TraceReport;
        let w = UniformWorkload::independent(100, 16, 1_000);
        let params = SpecSimParams::with_threads(4)
            .inject_misspec_at_task(Some(800))
            .trace(1 << 14);
        let r = speccross(&w, &params, &CostModel::default());
        let trace = r.trace.expect("tracing was requested");
        // Round-trips through the JSONL wire format losslessly.
        let parsed =
            crossinvoc_runtime::trace::Trace::from_jsonl(&trace.to_jsonl()).expect("valid JSONL");
        assert_eq!(parsed, trace);
        let report = TraceReport::from_trace(&trace);
        assert_eq!(report.misspeculations.len(), 1);
        // Task 800 = epoch 50, task 0 on worker 0 (round-robin over 4).
        let m = &report.misspeculations[0];
        assert_eq!(m.later.1, 50);
        assert_eq!(m.later.2, 0);
        assert!(!report.threads.is_empty());
    }

    #[test]
    fn untraced_run_has_no_trace() {
        let w = UniformWorkload::independent(10, 8, 1_000);
        let r = speccross(&w, &SpecSimParams::with_threads(4), &CostModel::default());
        assert!(r.trace.is_none());
    }

    #[test]
    fn traced_runs_are_deterministic() {
        let w = UniformWorkload::same_cell(50, 8, 1_000);
        let plan = FaultPlan::random(0xC0FFEE, 50, 8, 4);
        let p1 = SpecSimParams::with_threads(4)
            .fault_plan(plan.clone())
            .trace(1 << 14);
        let p2 = SpecSimParams::with_threads(4)
            .fault_plan(plan)
            .trace(1 << 14);
        let a = speccross(&w, &p1, &CostModel::default());
        let b = speccross(&w, &p2, &CostModel::default());
        assert_eq!(a, b, "virtual-time traces must replay identically");
        assert!(a.trace.is_some());
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let w = UniformWorkload::same_cell(50, 8, 1_000);
        let plan = FaultPlan::random(0xC0FFEE, 50, 8, 4);
        let p1 = SpecSimParams::with_threads(4).fault_plan(plan.clone());
        let p2 = SpecSimParams::with_threads(4).fault_plan(plan);
        let a = speccross(&w, &p1, &CostModel::default());
        let b = speccross(&w, &p2, &CostModel::default());
        assert_eq!(a, b, "the same plan must replay identically");
    }
}
