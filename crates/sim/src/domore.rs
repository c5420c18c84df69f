//! Simulated DOMORE execution (Fig. 3.2(b)/(c), §3.4).
//!
//! The scheduler timeline drives the *same* scheduling core as the threaded
//! runtime ([`crossinvoc_domore::ScheduleCore`]: shadow-memory logic, memo
//! replay and fallback) with the real assignment policy over the workload's
//! actual address streams, so the synchronization conditions — and
//! therefore who waits on whom — are exactly what the threaded runtime
//! would produce. The simulator only adds time; the three public plans
//! (separate scheduler, barriered, duplicated scheduler) are one loop that
//! differs in who is billed the scheduling cost, whether a barrier is
//! restored per invocation, and whether the memo is usable.

use crossinvoc_domore::policy::Policy;
use crossinvoc_domore::ScheduleCore;
use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_runtime::stats::RegionStats;
use crossinvoc_runtime::trace::{Event, WakeEdge, MANAGER_TID};

use crate::barrier::bill_all;
use crate::cost::CostModel;
use crate::result::SimResult;
use crate::tracing::SimSinks;
use crate::workload::SimWorkload;

/// The DOMORE plans the one virtual-clock loop models. They differ only in
/// who is billed the scheduling cost, whether a barrier is restored per
/// invocation, and whether the schedule memo is usable.
#[derive(Clone, Copy, PartialEq)]
enum Plan {
    /// A dedicated scheduler clock pays prologue and scheduling cost and
    /// dispatches over a queue; invocations overlap freely.
    Separate { memo: bool },
    /// [`Plan::Separate`] without the memo, plus a global barrier at every
    /// invocation boundary.
    Barriered,
    /// Every worker runs the scheduling loop itself (§3.4): prologue and
    /// scheduling cost are billed to all worker clocks, no queue hop, no
    /// memo.
    Duplicated,
}

/// Simulates DOMORE with a dedicated scheduler thread and `workers` worker
/// threads (the final plan of Fig. 3.2(c)).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
) -> SimResult {
    domore_configured(workload, workers, policy, cost, None, true)
}

/// Like [`domore`], but optionally records a virtual-time execution trace
/// (the shared JSONL schema of `docs/OBSERVABILITY.md`) with
/// `trace_capacity` records per simulated thread — scheduler events carry
/// the manager pseudo thread-id; worker condition waits appear as
/// barrier-enter/leave pairs, exactly as in the threaded runtime — and with
/// the cross-invocation schedule memo switchable (`schedule_memo = false`
/// is the recompute-every-invocation baseline). Replayed invocations skip
/// the shadow walk — the scheduler pays only the `computeAddr`/verification
/// half of its per-iteration cost — and emit one
/// [`Event::ScheduleCacheHit`]; decisions are identical either way.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_configured<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
    trace_capacity: Option<usize>,
    schedule_memo: bool,
) -> SimResult {
    let plan = Plan::Separate {
        memo: schedule_memo,
    };
    simulate(workload, workers, policy, cost, trace_capacity, plan)
}

/// Simulates DOMORE applied *within* invocations only: the scheduler
/// pipeline runs as in [`domore`], but a global barrier is restored at every
/// invocation boundary (the "DOMORE + Barrier" plan of the Fig. 5.6 case
/// study — runtime scheduling without cross-invocation overlap).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_barriered<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
) -> SimResult {
    simulate(workload, workers, policy, cost, None, Plan::Barriered)
}

/// Simulates the duplicated-scheduler variant (§3.4): every worker replays
/// the full scheduling loop (prologue and per-iteration scheduling cost are
/// paid redundantly by all workers) and executes only its own iterations.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_duplicated<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
) -> SimResult {
    simulate(workload, workers, policy, cost, None, Plan::Duplicated)
}

/// The virtual-clock loop around the shared scheduling core. The core makes
/// every decision — worker, combined iteration number, synchronization
/// conditions, replay or recompute — exactly as it does for the threaded
/// runtime; this loop only adds time: prologue and per-iteration scheduling
/// cost on whoever `plan` says schedules, queue latency on dispatch, kernel
/// cost on the assigned worker's clock, and a dependence stall whenever a
/// condition's source has not yet finished.
fn simulate<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
    trace_capacity: Option<usize>,
    plan: Plan,
) -> SimResult {
    assert!(workers > 0, "at least one worker is required");
    let stats = RegionStats::new();
    let mut sinks = SimSinks::new(workers, 0, trace_capacity.unwrap_or(0));
    let mut core = ScheduleCore::new(workload.address_space());
    let replicated = plan == Plan::Duplicated;
    // Stays zero under a replicated scheduler.
    let mut sched_clock = 0u64;
    let mut clocks = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut idle = vec![0u64; workers];
    // Finish time per combined iteration number.
    let mut finish_times: Vec<u64> = Vec::new();
    let mut pairs = Vec::new();

    for inv in 0..workload.num_invocations() {
        stats.add_epoch();
        let prologue = workload.prologue_cost(inv);
        if replicated {
            bill_all(&mut clocks, &mut busy, prologue);
        } else {
            sched_clock += prologue;
        }
        sinks
            .manager
            .emit_at(sched_clock, Event::EpochBegin { epoch: inv as u32 });
        let hit = core
            .run_invocation(
                workload.num_iterations(inv),
                plan == Plan::Separate { memo: true },
                |iter, writes, reads| {
                    pairs.clear();
                    workload.accesses(inv, iter, &mut pairs);
                    for &(addr, kind) in &pairs {
                        match kind {
                            AccessKind::Write => writes.push(addr),
                            AccessKind::Read => reads.push(addr),
                        }
                    }
                },
                |iter_num, addrs| Some(policy.assign(iter_num, addrs, workers)),
                |iter, tid, iter_num, conds, replayed| {
                    // computeAddr + conflict detection; a replayed iteration
                    // skips the shadow walk but still runs `computeAddr` and
                    // the fingerprint verification.
                    let sched = workload.sched_cost(inv, iter) / if replayed { 2 } else { 1 };
                    let arrival = if replicated {
                        bill_all(&mut clocks, &mut busy, sched);
                        // The worker dispatches to itself: no queue hop.
                        clocks[tid]
                    } else {
                        // ... + the produce() call, then the queue latency.
                        sched_clock += sched + cost.queue_ns;
                        sched_clock + cost.queue_ns
                    };
                    sinks.manager.emit_at(
                        sched_clock,
                        Event::TaskAssign {
                            epoch: inv as u32,
                            task: iter as u64,
                            worker: tid,
                            count: 1,
                        },
                    );
                    let sink = &mut sinks.workers[tid];
                    let wait_from = arrival.max(clocks[tid]);
                    let mut release = wait_from;
                    // The condition whose source finished last binds the
                    // wait — the source of the release causality edge.
                    let mut binding = None;
                    for cond in conds {
                        stats.add_sync_condition();
                        let dep_finish = finish_times[cond.dep_iter as usize];
                        if dep_finish > release {
                            stats.add_stall();
                            release = dep_finish;
                            binding = Some(cond);
                        }
                    }
                    if let Some(cond) = binding {
                        // A synchronization-condition wait: the threaded
                        // worker's barrier-enter/leave pair around
                        // `await_condition`.
                        sink.emit_at(wait_from, Event::BarrierEnter { epoch: inv as u32 });
                        sink.emit_at(
                            release,
                            Event::BarrierLeave {
                                epoch: inv as u32,
                                wait_ns: release - wait_from,
                            },
                        );
                        sink.emit_at(
                            release,
                            Event::Wake {
                                edge: WakeEdge::Barrier,
                                src_tid: cond.dep_tid,
                                seq: cond.dep_iter,
                            },
                        );
                    }
                    let work = cost.task_overhead_ns + workload.iteration_cost(inv, iter);
                    idle[tid] += release - clocks[tid];
                    busy[tid] += work;
                    // SPSC produce → consume: the worker picks the
                    // scheduler's message up at dispatch.
                    sink.emit_at(
                        release,
                        Event::Wake {
                            edge: WakeEdge::Queue,
                            src_tid: MANAGER_TID,
                            seq: iter_num,
                        },
                    );
                    sink.emit_at(
                        release,
                        Event::TaskDispatch {
                            epoch: inv as u32,
                            task: iter as u64,
                            count: 1,
                        },
                    );
                    clocks[tid] = release + work;
                    sink.emit_at(
                        clocks[tid],
                        Event::TaskRetire {
                            epoch: inv as u32,
                            task: iter as u64,
                            count: 1,
                        },
                    );
                    finish_times.push(clocks[tid]);
                    stats.add_task();
                },
            )
            .expect("simulated workers never die");
        if hit {
            stats.add_schedule_cache_hit();
            sinks
                .manager
                .emit_at(sched_clock, Event::ScheduleCacheHit { epoch: inv as u32 });
        }
        sinks
            .manager
            .emit_at(sched_clock, Event::EpochEnd { epoch: inv as u32 });
        if plan == Plan::Barriered {
            // The restored barrier: everyone (the scheduler included) waits.
            let slowest = clocks.iter().copied().max().unwrap_or(0).max(sched_clock);
            let resume = slowest + cost.barrier_ns(workers + 1);
            for (clock, i) in clocks.iter_mut().zip(idle.iter_mut()) {
                *i += slowest - *clock;
                *clock = resume;
            }
            sched_clock = resume;
        }
    }

    SimResult {
        total_ns: clocks.iter().copied().max().unwrap_or(0).max(sched_clock),
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded: false,
        trace: sinks.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::barrier;
    use crate::seq::sequential;
    use crate::workload::UniformWorkload;
    use crossinvoc_domore::policy::{LocalWrite, RoundRobin};

    #[test]
    fn independent_work_scales() {
        let w = UniformWorkload::independent(50, 64, 10_000).with_sched_cost(50);
        let seq = sequential(&w, &CostModel::default());
        let r = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        let speedup = r.speedup_over(seq.total_ns);
        assert!(speedup > 6.0, "near-linear expected, got {speedup}");
        assert_eq!(r.stats.sync_conditions, 0);
    }

    #[test]
    fn beats_barrier_on_many_small_invocations() {
        // The motivating scenario: many invocations, iterations that can
        // flow across invocation boundaries.
        let w = UniformWorkload::same_cell(500, 24, 2_000).with_sched_cost(50);
        let seq = sequential(&w, &CostModel::default());
        let bar = barrier(&w, 8, &CostModel::default());
        let dom = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        assert!(
            dom.speedup_over(seq.total_ns) > bar.speedup_over(seq.total_ns),
            "DOMORE {} must beat barrier {}",
            dom.speedup_over(seq.total_ns),
            bar.speedup_over(seq.total_ns)
        );
    }

    #[test]
    fn rotating_conflicts_generate_conditions_and_stalls() {
        let w = UniformWorkload::rotating(50, 16, 3_000);
        let r = domore(&w, 4, &mut RoundRobin, &CostModel::default());
        assert!(r.stats.sync_conditions > 0);
    }

    #[test]
    fn localwrite_policy_eliminates_conditions_for_fixed_cells() {
        let w = UniformWorkload::same_cell(50, 16, 3_000);
        let r = domore(&w, 4, &mut LocalWrite::new(16), &CostModel::default());
        assert_eq!(r.stats.sync_conditions, 0);
    }

    #[test]
    fn heavy_scheduler_limits_scaling() {
        // Scheduler slice ≈ kernel cost: the scheduler serializes the region
        // (the ECLAT/FLUIDANIMATE observation of §5.1).
        let w = UniformWorkload::independent(100, 24, 1_000).with_sched_cost(900);
        let seq = sequential(&w, &CostModel::default());
        let s8 = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        let s16 = domore(&w, 16, &mut RoundRobin, &CostModel::default());
        let (a, b) = (
            s8.speedup_over(seq.total_ns),
            s16.speedup_over(seq.total_ns),
        );
        assert!(b < a * 1.2, "scheduler-bound: {a} vs {b}");
    }

    #[test]
    fn barriered_domore_is_no_faster_than_full_domore() {
        let w = UniformWorkload::same_cell(200, 24, 2_000).with_sched_cost(50);
        let full = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        let barriered = domore_barriered(&w, 8, &mut RoundRobin, &CostModel::default());
        assert!(barriered.total_ns >= full.total_ns);
        assert_eq!(barriered.stats.tasks, full.stats.tasks);
    }

    #[test]
    fn duplicated_scheduler_pays_redundant_scheduling() {
        let w = UniformWorkload::independent(50, 32, 1_000).with_sched_cost(400);
        let seq = sequential(&w, &CostModel::default());
        let sep = domore(&w, 6, &mut RoundRobin, &CostModel::default());
        let dup = domore_duplicated(&w, 6, &mut RoundRobin, &CostModel::default());
        // Redundant scheduling makes the duplicated variant slower here
        // (every worker pays the full scheduling stream).
        assert!(dup.total_ns >= sep.total_ns);
        assert!(dup.speedup_over(seq.total_ns) > 1.0);
    }

    #[test]
    fn single_worker_matches_serialized_cost() {
        let w = UniformWorkload::independent(3, 4, 100).with_sched_cost(10);
        let free = CostModel::free();
        let r = domore(&w, 1, &mut RoundRobin, &free);
        // Scheduler and worker pipeline: worker finishes after all work.
        assert!(r.total_ns >= 12 * 100);
        assert_eq!(r.stats.tasks, 12);
    }

    #[test]
    fn traced_run_emits_dispatches_and_condition_waits() {
        use crossinvoc_runtime::trace::{Event, Trace, TraceReport};
        let w = UniformWorkload::rotating(50, 16, 3_000);
        let cost = CostModel::default();
        let r = domore_configured(&w, 4, &mut RoundRobin, &cost, Some(1 << 14), true);
        let trace = r.trace.expect("tracing was requested");
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("valid JSONL");
        assert_eq!(parsed, trace);
        let report = TraceReport::from_trace(&trace);
        let tasks: u64 = report.threads.iter().map(|t| t.tasks).sum();
        assert_eq!(tasks, r.stats.tasks);
        if r.stats.stalls > 0 {
            assert!(trace
                .records()
                .iter()
                .any(|rec| matches!(rec.event, Event::BarrierLeave { .. })));
        }
        // The untraced entry point stays trace-free.
        assert!(domore(&w, 4, &mut RoundRobin, &CostModel::default())
            .trace
            .is_none());
    }

    #[test]
    fn steady_invocations_replay_from_the_memo() {
        use crossinvoc_runtime::trace::TraceReport;
        // Scheduler-bound, identical stream every invocation, iteration
        // count divisible by the worker count: invocation 0 seeds the
        // fingerprint, 1 records, 2.. replay at half the scheduling cost.
        let w = UniformWorkload::same_cell(50, 16, 1_000).with_sched_cost(900);
        let cost = CostModel::default();
        let on = domore_configured(&w, 8, &mut RoundRobin, &cost, Some(1 << 15), true);
        let off = domore_configured(&w, 8, &mut RoundRobin, &cost, None, false);
        assert_eq!(on.stats.schedule_cache_hits, 48);
        assert_eq!(off.stats.schedule_cache_hits, 0);
        assert_eq!(on.stats.tasks, off.stats.tasks);
        assert_eq!(on.stats.sync_conditions, off.stats.sync_conditions);
        assert!(
            on.total_ns < off.total_ns,
            "replay must relieve the scheduler bottleneck: {} vs {}",
            on.total_ns,
            off.total_ns
        );
        let report = TraceReport::from_trace(on.trace.as_ref().unwrap());
        assert_eq!(report.schedule_cache_hits, 48);
    }

    #[test]
    fn rotating_streams_never_replay() {
        // Rotation period 40 exceeds the memo's MAX_PERIOD (32): the
        // stream never promotes and every invocation schedules live.
        let w = UniformWorkload::rotating(90, 40, 3_000);
        let r = domore(&w, 4, &mut RoundRobin, &CostModel::default());
        assert_eq!(r.stats.schedule_cache_hits, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let w = UniformWorkload::independent(1, 1, 1);
        domore(&w, 0, &mut RoundRobin, &CostModel::default());
    }
}
