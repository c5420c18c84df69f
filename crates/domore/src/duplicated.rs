//! The duplicated-scheduler DOMORE variant (§3.4, Figs. 3.8–3.9).
//!
//! To compose DOMORE-parallelized loops with SPECCROSS's speculative
//! barriers, the thesis trades the dedicated scheduler thread for
//! *replication*: every worker runs the complete scheduling loop — prologue,
//! `computeAddr`, shadow-memory update, assignment — on private state, but
//! executes only the iterations assigned to itself. Because the scheduling
//! logic and policy are deterministic, all replicas compute identical
//! schedules and identical synchronization conditions; the shared
//! `latestFinished` board is the only cross-thread state.
//!
//! Replication is sound only when the prologue may be re-executed by every
//! worker (no side effects beyond its own locals); workloads declare this via
//! [`DomoreWorkload::prologue_is_replicable`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crossinvoc_runtime::metrics::Metrics;
use parking_lot::Mutex;

use crate::policy::{Policy, RoundRobin};
use crate::runtime::{DomoreError, ExecutionReport, ProgressBoard, Tally};
use crate::schedule::ScheduleCore;
use crate::workload::DomoreWorkload;

/// DOMORE execution without a dedicated scheduler thread.
///
/// All `num_workers` threads are workers; each replays the scheduling loop.
///
/// # Example
///
/// ```
/// use crossinvoc_domore::prelude::*;
/// use crossinvoc_runtime::SharedSlice;
///
/// struct Nest { data: SharedSlice<u64> }
/// impl DomoreWorkload for Nest {
///     fn num_invocations(&self) -> usize { 3 }
///     fn num_iterations(&self, _inv: usize) -> usize { 6 }
///     fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
///         out.push(iter % 3);
///     }
///     fn execute_iteration(&self, _inv: usize, iter: usize, _tid: usize) {
///         unsafe { self.data.update(iter % 3, |v| *v += 1) };
///     }
///     fn address_space(&self) -> Option<usize> { Some(3) }
/// }
///
/// let mut nest = Nest { data: SharedSlice::from_vec(vec![0; 3]) };
/// DuplicatedScheduler::new(2).execute(&nest).unwrap();
/// assert_eq!(nest.data.snapshot(), vec![6, 6, 6]);
/// ```
#[derive(Debug)]
pub struct DuplicatedScheduler {
    num_workers: usize,
    policy_factory: PolicyFactory,
}

/// Deterministic policy replicator.
///
/// Each worker gets its own replica so assignment decisions never cross
/// threads; [`crate::policy::Policy::replicate`] guarantees agreement.
struct PolicyFactory(Box<dyn Policy>);

impl std::fmt::Debug for PolicyFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PolicyFactory(..)")
    }
}

impl DuplicatedScheduler {
    /// Creates the variant with `num_workers` workers and round-robin
    /// assignment.
    pub fn new(num_workers: usize) -> Self {
        Self {
            num_workers,
            policy_factory: PolicyFactory(Box::new(RoundRobin)),
        }
    }

    /// Replaces the scheduling policy (must be deterministic; see
    /// [`crate::policy::Policy`]).
    pub fn with_policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy_factory = PolicyFactory(policy);
        self
    }

    /// Executes `workload` with scheduler code replicated on every worker.
    ///
    /// # Errors
    ///
    /// * [`DomoreError::NoWorkers`] if `num_workers` is zero.
    /// * [`DomoreError::PrologueNotReplicable`] if the workload's prologue
    ///   cannot be re-executed by each worker.
    pub fn execute<W: DomoreWorkload>(&self, workload: &W) -> Result<ExecutionReport, DomoreError> {
        if self.num_workers == 0 {
            return Err(DomoreError::NoWorkers);
        }
        if !workload.prologue_is_replicable() {
            return Err(DomoreError::PrologueNotReplicable);
        }

        let board = ProgressBoard::new(self.num_workers);
        let metrics = Metrics::new();
        let abort = AtomicBool::new(false);
        let error: Mutex<Option<DomoreError>> = Mutex::new(None);
        let fail = |err: DomoreError| {
            let mut slot = error.lock();
            if slot.is_none() {
                *slot = Some(err);
            }
            drop(slot);
            abort.store(true, Ordering::Release);
        };
        let start = Instant::now();

        std::thread::scope(|scope| {
            for tid in 0..self.num_workers {
                let mut policy = self.policy_factory.0.replicate();
                let mut core = ScheduleCore::new(workload.address_space());
                let board = &board;
                let metrics = &metrics;
                let (abort, fail) = (&abort, &fail);
                let num_workers = self.num_workers;
                scope.spawn(move || {
                    let stats = metrics.stats();
                    let mut tally = Tally::new(stats);
                    // Contain the replicated scheduling loop: a panic in the
                    // prologue or oracle must not tear down the scope while
                    // peers spin on this worker's conditions.
                    let body = catch_unwind(AssertUnwindSafe(|| {
                        for inv in 0..workload.num_invocations() {
                            workload.prologue(inv);
                            if tid == 0 {
                                stats.add_epoch();
                            }
                            // Replicas never memoize: each pays the full
                            // scheduling stream, as §3.4 describes.
                            core.run_invocation(
                                workload.num_iterations(inv),
                                false,
                                |iter, writes, reads| workload.touched(inv, iter, writes, reads),
                                |iter_num, addrs| Some(policy.assign(iter_num, addrs, num_workers)),
                                |iter, assigned, iter_num, conds, _replayed| {
                                    if assigned != tid {
                                        return;
                                    }
                                    // Only the owning worker waits and executes;
                                    // the replicas merely keep their shadow state
                                    // warm. Under abort the replay continues but
                                    // execution is skipped — every owned
                                    // iteration is still published so peers
                                    // blocked on it are released.
                                    if !abort.load(Ordering::Acquire) {
                                        tally.sync_conditions += conds.len() as u64;
                                        for &cond in conds {
                                            if !board.satisfied(cond) {
                                                stats.add_stall();
                                                let entered = Instant::now();
                                                board.await_condition_bounded(
                                                    tid, cond, abort, None,
                                                );
                                                metrics.record_stall_wait(
                                                    entered.elapsed().as_nanos() as u64,
                                                );
                                            }
                                        }
                                    }
                                    if !abort.load(Ordering::Acquire) {
                                        let run = catch_unwind(AssertUnwindSafe(|| {
                                            workload.execute_iteration(inv, iter, tid);
                                        }));
                                        match run {
                                            Ok(()) => tally.tasks += 1,
                                            Err(_) => {
                                                fail(DomoreError::IterationPanicked { inv, iter })
                                            }
                                        }
                                    }
                                    board.publish(tid, iter_num);
                                },
                            );
                            tally.fold();
                        }
                    }));
                    if body.is_err() {
                        fail(DomoreError::SchedulerPanicked);
                        // Release every peer that may wait on this worker.
                        board.publish(tid, u64::MAX - 1);
                    }
                });
            }
        });

        if let Some(err) = error.into_inner() {
            return Err(err);
        }
        // Worker scope joined: the snapshot is exact.
        let metrics = metrics.snapshot();
        Ok(ExecutionReport {
            stats: metrics.stats,
            elapsed: start.elapsed(),
            num_workers: self.num_workers,
            metrics,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LocalWrite;
    use crossinvoc_runtime::{SharedSlice, ThreadId};

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
            (iter * 7 + inv * 3) % self.data.len()
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
            // SAFETY: conflicting iterations are ordered by the runtime.
            unsafe { self.data.update(cell, |v| *v = v.wrapping_mul(131) ^ 7) };
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    fn expected(n: usize, invocations: usize) -> Vec<u64> {
        let mut data = vec![0u64; n];
        for inv in 0..invocations {
            for iter in 0..n {
                let cell = (iter * 7 + inv * 3) % n;
                data[cell] = data[cell].wrapping_mul(131) ^ 7;
            }
        }
        data
    }

    #[test]
    fn matches_sequential_result() {
        for workers in [1, 2, 4] {
            let mut w = Rotating::new(13, 9);
            let report = DuplicatedScheduler::new(workers).execute(&w).unwrap();
            assert_eq!(w.data.snapshot(), expected(13, 9));
            assert_eq!(report.stats.tasks, 13 * 9);
        }
    }

    #[test]
    fn localwrite_policy_composes() {
        let mut w = Rotating::new(16, 5);
        DuplicatedScheduler::new(4)
            .with_policy(Box::new(LocalWrite::new(16)))
            .execute(&w)
            .unwrap();
        assert_eq!(w.data.snapshot(), expected(16, 5));
    }

    #[test]
    fn non_replicable_prologue_is_rejected() {
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
        assert_eq!(
            DuplicatedScheduler::new(2).execute(&Bad).unwrap_err(),
            DomoreError::PrologueNotReplicable
        );
    }

    #[test]
    fn zero_workers_is_rejected() {
        let w = Rotating::new(4, 1);
        assert_eq!(
            DuplicatedScheduler::new(0).execute(&w).unwrap_err(),
            DomoreError::NoWorkers
        );
    }

    #[test]
    fn agrees_with_separate_scheduler_runtime() {
        use crate::runtime::{DomoreConfig, DomoreRuntime};
        let mut a = Rotating::new(11, 7);
        let mut b = Rotating::new(11, 7);
        DuplicatedScheduler::new(3).execute(&a).unwrap();
        DomoreRuntime::new(DomoreConfig::with_workers(3))
            .execute(&b)
            .unwrap();
        assert_eq!(a.data.snapshot(), b.data.snapshot());
    }
}
