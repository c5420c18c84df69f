//! Barrier-synchronized parallel executor (the `pthread barrier` baseline).
//!
//! The conventional plan of Fig. 1.3(b): the inner loop's iterations are
//! distributed round-robin over the workers; after every invocation all
//! workers meet at a global barrier; the sequential prologue is executed
//! redundantly by every worker (as the thesis' generated `par_f` does).
//! Per-thread idle time — the gap between a thread's arrival at the barrier
//! and the slowest thread's — is what Fig. 4.3 reports as barrier overhead.

use crossinvoc_runtime::stats::RegionStats;
use crossinvoc_runtime::trace::{Event, WakeEdge};

use crate::cost::CostModel;
use crate::result::SimResult;
use crate::tracing::SimSinks;
use crate::workload::SimWorkload;

/// Simulates barrier-synchronized parallel execution on `threads` workers.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn barrier<W: SimWorkload + ?Sized>(
    workload: &W,
    threads: usize,
    cost: &CostModel,
) -> SimResult {
    barrier_traced(workload, threads, cost, None)
}

/// Like [`barrier`], but optionally records a virtual-time execution trace
/// with `trace_capacity` records per thread — the same JSONL schema the
/// engines emit (see `docs/OBSERVABILITY.md`), so the barrier-idle
/// breakdown of Fig. 4.3 can be reconstructed from the trace alone.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn barrier_traced<W: SimWorkload + ?Sized>(
    workload: &W,
    threads: usize,
    cost: &CostModel,
    trace_capacity: Option<usize>,
) -> SimResult {
    assert!(threads > 0, "at least one thread is required");
    let stats = RegionStats::new();
    let mut sinks = SimSinks::new(threads, trace_capacity.unwrap_or(0));
    let mut clocks = vec![0u64; threads];
    let mut busy = vec![0u64; threads];
    let mut idle = vec![0u64; threads];

    for inv in 0..workload.num_invocations() {
        // The sequential prologue is executed redundantly by every worker.
        bill_all(&mut clocks, &mut busy, workload.prologue_cost(inv));
        barrier_epoch(
            workload,
            cost,
            inv,
            &mut clocks,
            &mut busy,
            &mut idle,
            &stats,
            &mut sinks,
        );
        sinks.workers[0].emit_at(clocks[0], Event::EpochEnd { epoch: inv as u32 });
    }

    SimResult {
        total_ns: clocks.into_iter().max().unwrap_or(0),
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded: false,
        trace: sinks.finish(),
    }
}

/// Adds `ns` of work every thread executes redundantly to all clocks.
pub(crate) fn bill_all(clocks: &mut [u64], busy: &mut [u64], ns: u64) {
    for (clock, b) in clocks.iter_mut().zip(busy.iter_mut()) {
        *clock += ns;
        *b += ns;
    }
}

/// One epoch under a non-speculative barrier, on `clocks.len()` threads:
/// iterations round-robin, then everyone waits for the slowest and pays the
/// barrier release cost. Shared by the barrier baseline above and by
/// SPECCROSS's non-speculative re-execution after a rollback (which has no
/// prologue cost or epoch-end event of its own).
#[allow(clippy::too_many_arguments)]
pub(crate) fn barrier_epoch<W: SimWorkload + ?Sized>(
    workload: &W,
    cost: &CostModel,
    inv: usize,
    clocks: &mut [u64],
    busy: &mut [u64],
    idle: &mut [u64],
    stats: &RegionStats,
    sinks: &mut SimSinks,
) {
    let threads = clocks.len();
    stats.add_epoch();
    sinks.workers[0].emit_at(clocks[0], Event::EpochBegin { epoch: inv as u32 });
    for iter in 0..workload.num_iterations(inv) {
        let tid = iter % threads;
        let work = workload.iteration_cost(inv, iter);
        sinks.workers[tid].emit_at(
            clocks[tid],
            Event::TaskDispatch {
                epoch: inv as u32,
                task: iter as u64,
                count: 1,
            },
        );
        clocks[tid] += work;
        busy[tid] += work;
        sinks.workers[tid].emit_at(
            clocks[tid],
            Event::TaskRetire {
                epoch: inv as u32,
                task: iter as u64,
                count: 1,
            },
        );
        stats.add_task();
    }
    // Global synchronization: everyone waits for the slowest, then pays
    // the barrier release cost.
    let slowest = *clocks.iter().max().expect("threads > 0");
    // The slowest arrival (smallest tid on ties, deterministically) is
    // the release's causal source.
    let releaser = clocks.iter().position(|&c| c == slowest).expect("nonempty");
    for (tid, (clock, i)) in clocks.iter_mut().zip(idle.iter_mut()).enumerate() {
        let wait = slowest - *clock;
        sinks.workers[tid].emit_at(*clock, Event::BarrierEnter { epoch: inv as u32 });
        *i += wait;
        *clock = slowest + cost.barrier_ns(threads);
        sinks.workers[tid].emit_at(
            *clock,
            Event::BarrierLeave {
                epoch: inv as u32,
                wait_ns: wait,
            },
        );
        if wait > 0 {
            sinks.workers[tid].emit_at(
                *clock,
                Event::Wake {
                    edge: WakeEdge::Barrier,
                    src_tid: releaser,
                    seq: inv as u64,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::sequential;
    use crate::workload::{SimWorkload, UniformWorkload};
    use crossinvoc_runtime::signature::AccessKind;

    #[test]
    fn balanced_work_scales_nearly_linearly() {
        let w = UniformWorkload::independent(10, 64, 10_000);
        let seq = sequential(&w, &CostModel::free());
        let par = barrier(&w, 8, &CostModel::free());
        let speedup = par.speedup_over(seq.total_ns);
        assert!((speedup - 8.0).abs() < 1e-9, "frictionless: {speedup}");
    }

    #[test]
    fn barrier_cost_caps_scaling_for_many_invocations() {
        // Tiny invocations: barrier cost dominates, so 24 threads are no
        // better than 8 — the motivating observation of Chapter 1.
        let w = UniformWorkload::independent(1_000, 24, 500);
        let seq = sequential(&w, &CostModel::default());
        let s8 = barrier(&w, 8, &CostModel::default()).speedup_over(seq.total_ns);
        let s24 = barrier(&w, 24, &CostModel::default()).speedup_over(seq.total_ns);
        assert!(
            s24 < s8 * 2.0,
            "tripling threads must not triple speedup: {s8} vs {s24}"
        );
    }

    /// Uneven task costs: one straggler per invocation forces everyone else
    /// to idle at the barrier.
    struct Straggler;
    impl SimWorkload for Straggler {
        fn num_invocations(&self) -> usize {
            20
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            8
        }
        fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
            if iter == 0 {
                10_000
            } else {
                1_000
            }
        }
        fn accesses(&self, _inv: usize, _iter: usize, _out: &mut Vec<(usize, AccessKind)>) {}
    }

    #[test]
    fn imbalance_shows_up_as_idle_time() {
        let r = barrier(&Straggler, 8, &CostModel::free());
        assert!(r.idle_fraction() > 0.5, "idle {}", r.idle_fraction());
        // Thread 0 (the straggler owner) never waits.
        assert_eq!(r.idle_ns[0], 0);
    }

    #[test]
    fn traced_barrier_reconstructs_the_idle_fraction() {
        use crossinvoc_runtime::trace::TraceReport;
        let r = barrier_traced(&Straggler, 8, &CostModel::free(), Some(1 << 14));
        let trace = r.trace.as_ref().expect("tracing was requested");
        let report = TraceReport::from_trace(trace);
        // Barrier waits in the trace reproduce the timeline's idle fraction
        // (free cost model: no release cost, so the two accountings agree).
        assert!((report.barrier_idle_fraction() - r.idle_fraction()).abs() < 1e-9);
    }

    #[test]
    fn single_thread_has_no_imbalance_idle() {
        let r = barrier(&Straggler, 1, &CostModel::free());
        assert_eq!(r.idle_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        barrier(&Straggler, 0, &CostModel::free());
    }
}
