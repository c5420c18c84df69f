//! Concurrency stress tests for the runtime substrate: queue transfer
//! under contention and varying capacities, barrier phase integrity over
//! many generations, progress-board monotonicity, and checker admission
//! order independence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_runtime::spsc::Queue;
use crossinvoc_runtime::SpinBarrier;
use crossinvoc_speccross::{CheckRequest, CheckerState, Position};

#[test]
fn spsc_transfer_is_lossless_across_capacities() {
    for capacity in [1usize, 2, 7, 64, 1024] {
        let (tx, rx) = Queue::with_capacity(capacity);
        const N: u64 = 20_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.produce(i * i);
            }
        });
        let mut sum = 0u64;
        for _ in 0..N {
            sum = sum.wrapping_add(rx.consume());
        }
        producer.join().unwrap();
        let expected = (0..N).map(|i| i * i).fold(0u64, u64::wrapping_add);
        assert_eq!(sum, expected, "capacity {capacity}");
    }
}

#[test]
fn barrier_keeps_phases_aligned_for_thousands_of_generations() {
    const THREADS: usize = 3;
    const GENERATIONS: u64 = 5_000;
    let barrier = Arc::new(SpinBarrier::new(THREADS));
    let phase = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let barrier = Arc::clone(&barrier);
        let phase = Arc::clone(&phase);
        handles.push(thread::spawn(move || {
            for g in 0..GENERATIONS {
                if barrier.wait(tid) {
                    // Exactly one serial thread per generation advances.
                    phase.store(g + 1, Ordering::SeqCst);
                }
                barrier.wait(tid);
                assert_eq!(phase.load(Ordering::SeqCst), g + 1, "thread {tid}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(barrier.generations(), GENERATIONS * 2);
}

fn req(
    tid: usize,
    epoch: u32,
    task: u32,
    snapshot: &[(u32, u32)],
    addr: usize,
) -> CheckRequest<RangeSignature> {
    let mut sig = RangeSignature::empty();
    sig.record(addr, AccessKind::Write);
    CheckRequest {
        tid,
        pos: Position { epoch, task },
        snapshot: snapshot
            .iter()
            .map(|&(e, t)| Position { epoch: e, task: t })
            .collect(),
        sig,
    }
}

/// The symmetric admit rule: a racing cross-epoch pair is caught no matter
/// which side's request reaches the checker first.
#[test]
fn checker_catches_conflicts_in_either_admission_order() {
    // Worker 0 runs <1,0>, worker 1 runs <2,0> concurrently; both write
    // address 9; each observed the other in flight.
    let early = req(0, 1, 0, &[(1, 0), (2, 0)], 9);
    let late = req(1, 2, 0, &[(1, 0), (2, 0)], 9);

    let mut forward = CheckerState::new(2);
    assert!(forward.admit(early.clone()).is_none());
    let c1 = forward.admit(late.clone()).expect("forward order");

    let mut backward = CheckerState::new(2);
    assert!(backward.admit(late).is_none());
    let c2 = backward.admit(early).expect("backward order");

    assert_eq!(c1, c2, "the detected pair is order-independent");
}

/// Pruning at a checkpoint epoch never removes entries that could still
/// race with requests from at or after that epoch. The stream keeps
/// `admit`'s invariant — each worker's view of the other only ever moves
/// forward — which the log's self-retirement relies on.
#[test]
fn checker_pruning_is_safe_at_checkpoint_boundaries() {
    let mut state = CheckerState::new(2);
    for epoch in 0..9u32 {
        let tid = (epoch % 2) as usize;
        let mut snapshot = [(0u32, 0u32); 2];
        // Barrier-equivalent history: the other worker is observed past
        // its epoch-(epoch-1) work.
        snapshot[1 - tid] = (epoch, u32::MAX);
        snapshot[tid] = (epoch, 0);
        assert!(state.admit(req(tid, epoch, 0, &snapshot, 5)).is_none());
    }
    // Worker 0's odd-numbered history retired on its own as worker 1 was
    // seen past it; the checkpoint prune takes the rest below epoch 8.
    assert!(state.logged() < 9);
    state.retire_before(8);
    assert_eq!(state.logged(), 1, "only worker 0's epoch-8 task is left");
    // Worker 1 last saw worker 0 at <7,MAX>; it now starts epoch 9 seeing
    // it at <8,0> — still inside that leftover task. The race must be
    // caught after pruning.
    let conflict = state.admit(req(1, 9, 0, &[(8, 0), (9, 0)], 5));
    assert!(conflict.is_some(), "post-prune race still detected");
}

/// Monotone combined-iteration numbering survives interleaved scheduling
/// from the pure logic under concurrent-looking streams.
#[test]
fn scheduler_numbers_are_strictly_monotone() {
    use crossinvoc_domore::logic::SchedulerLogic;
    let mut logic = SchedulerLogic::with_sparse_shadow();
    let mut conds = Vec::new();
    let mut last = None;
    for i in 0..1000usize {
        conds.clear();
        let n = logic.schedule_rw(i % 5, &[i % 13], &[(i * 7) % 13], &mut conds);
        if let Some(prev) = last {
            assert_eq!(n, prev + 1);
        }
        last = Some(n);
    }
}

/// The fault matrix: every injectable fault kind, driven through both
/// engines, must terminate within the watchdog deadline with either the
/// sequential result or a typed error — never an abort or a hang.
mod fault_matrix {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    use crossinvoc_domore::prelude::*;
    use crossinvoc_domore::runtime::{DomoreError, ExecutionReport};
    use crossinvoc_runtime::fault::FaultPlan;
    use crossinvoc_runtime::{RangeSignature, ThreadId};
    use crossinvoc_speccross::checkpoint::DirtyBlocks;
    use crossinvoc_speccross::prelude::*;
    use crossinvoc_speccross::WIDE_TASK_NS;
    // The conflict-free grid (either runtime): a clean run never conflicts,
    // so every misspeculation below is injected.
    use crossinvoc_workloads::synthetic::IncGrid;

    const WATCHDOG: Duration = Duration::from_secs(30);

    /// The grid the SPECCROSS rows run: tasks heavy enough that every pass
    /// runs wide, so the faults strike a gang of task-running threads.
    fn grid(units: usize, rounds: usize) -> IncGrid {
        IncGrid::new(units, rounds).with_spin(WIDE_TASK_NS)
    }

    fn engine(plan: FaultPlan) -> SpecCrossEngine {
        SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(plan)
                .watchdog(WATCHDOG),
        )
    }

    #[test]
    fn worker_panic_is_contained_and_rolled_back() {
        let w = grid(8, 6);
        let report = engine(FaultPlan::default().worker_panic_at(2, 3))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert!(
            report
                .contained_faults
                .iter()
                .any(|f| matches!(f, ContainedFault::WorkerPanic { epoch: 2, task: 3 })),
            "the contained panic must be reported: {:?}",
            report.contained_faults
        );
        assert!(!report.degraded);
    }

    #[test]
    fn checker_stall_only_slows_the_run() {
        let w = grid(8, 6);
        let report = engine(FaultPlan::default().checker_stall_at(1, 30))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert_eq!(report.stats.misspeculations, 0);
    }

    /// There is no checker thread to lose: an injected checker death
    /// panics at an admission and is contained like any panic outside a
    /// task body, blamed on no task.
    #[test]
    fn checker_death_is_contained_like_an_engine_panic() {
        let w = grid(8, 6);
        let report = engine(FaultPlan::default().checker_death_at(1))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert_eq!(
            report.contained_faults,
            [ContainedFault::WorkerPanic {
                epoch: u32::MAX,
                task: u64::MAX
            }]
        );
        assert!(!report.degraded);
    }

    /// A contained panic is no misspeculation, so a degradation policy
    /// does not count it: the region finishes speculatively.
    #[test]
    fn checker_death_with_policy_finishes_speculatively() {
        let w = grid(8, 6);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(FaultPlan::default().checker_death_at(1))
                .degrade(DegradePolicy::default())
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert!(!report.degraded, "a contained panic does not degrade");
        assert_eq!(report.stats.misspeculations, 0);
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn forced_false_positive_recovers_like_a_real_conflict() {
        let w = grid(8, 6);
        let report = engine(FaultPlan::default().false_positive_at(3))
            .execute(&w)
            .unwrap();
        assert!(report.stats.misspeculations >= 1);
        assert!(!report.degraded);
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn false_positive_storm_trips_the_degrade_policy() {
        let w = grid(8, 12);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(FaultPlan::default().false_positive_storm(32))
                .degrade(DegradePolicy {
                    window: 4,
                    max_misspeculations: 2,
                    max_consecutive_failures: 2,
                })
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert!(report.degraded, "a storm of false positives must degrade");
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn snapshot_failure_keeps_the_previous_checkpoint() {
        let w = grid(8, 6);
        let report = engine(FaultPlan::default().snapshot_failure_at(2))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert!(
            report
                .contained_faults
                .iter()
                .any(|f| matches!(f, ContainedFault::SnapshotSkipped { epoch: 2 })),
            "the skipped snapshot must be reported: {:?}",
            report.contained_faults
        );
    }

    #[test]
    fn restore_failure_retries_once_then_succeeds() {
        let w = grid(8, 6);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(FaultPlan::default().false_positive_at(3).restore_failure())
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert!(
            report
                .contained_faults
                .iter()
                .any(|f| matches!(f, ContainedFault::RestoreRetried { .. })),
            "the retried restore must be reported: {:?}",
            report.contained_faults
        );
    }

    #[test]
    fn restore_failing_twice_is_a_typed_error() {
        let w = grid(8, 6);
        let err = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(
                    FaultPlan::default()
                        .false_positive_at(3)
                        .restore_failure()
                        .restore_failure(),
                )
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap_err();
        assert!(
            matches!(err, SpecError::RestoreFailed { .. }),
            "expected RestoreFailed, got {err:?}"
        );
    }

    /// [`IncGrid`] with two probes: how many task bodies really ran, and a
    /// `refresh` that can be armed to die halfway through its copy.
    struct Probed {
        grid: IncGrid,
        executed: AtomicU64,
        refresh_panics: AtomicBool,
    }

    impl Probed {
        fn new(units: usize, rounds: usize) -> Self {
            Probed {
                grid: grid(units, rounds),
                executed: AtomicU64::new(0),
                refresh_panics: AtomicBool::new(false),
            }
        }
    }

    impl SpecWorkload for Probed {
        type State = Vec<u64>;
        fn num_epochs(&self) -> usize {
            self.grid.num_epochs()
        }
        fn num_tasks(&self, epoch: usize) -> usize {
            self.grid.num_tasks(epoch)
        }
        fn execute_task(
            &self,
            epoch: usize,
            task: usize,
            tid: ThreadId,
            recorder: &mut dyn AccessRecorder,
        ) {
            self.executed.fetch_add(1, Ordering::Relaxed);
            self.grid.execute_task(epoch, task, tid, recorder);
        }
        fn snapshot(&self) -> Vec<u64> {
            self.grid.snapshot()
        }
        fn refresh(&self, state: &mut Vec<u64>, stale: &DirtyBlocks) -> usize {
            if self.refresh_panics.swap(false, Ordering::Relaxed) {
                let cells = self.grid.cells();
                state.clear();
                state.extend(&cells[..cells.len() / 2]);
                panic!("probe: refresh dies mid-copy");
            }
            self.grid.refresh(state, stale)
        }
        fn restore(&self, state: &Vec<u64>) {
            self.grid.restore(state);
        }
        fn restore_dirty(&self, state: &Vec<u64>, dirty: &DirtyBlocks) -> usize {
            self.grid.restore_dirty(state, dirty)
        }
    }

    /// The checkpoint at epoch 4 is the pass's third, the first one built
    /// in a reused buffer — and its `refresh` dies halfway. The
    /// half-written buffer must never become the checkpoint: the region
    /// rolls back to the intact epoch-2 state and still ends byte-identical
    /// to the sequential result.
    #[test]
    fn snapshot_into_panicking_mid_copy_keeps_the_previous_checkpoint() {
        let w = Probed::new(8, 10);
        w.refresh_panics.store(true, Ordering::Relaxed);
        let report = engine(FaultPlan::default()).execute(&w).unwrap();
        assert!(
            !w.refresh_panics.load(Ordering::Relaxed),
            "the armed refresh ran"
        );
        assert_eq!(w.grid.cells(), w.grid.expected());
        assert!(
            report
                .contained_faults
                .contains(&ContainedFault::WorkerPanic {
                    epoch: u32::MAX,
                    task: u64::MAX
                }),
            "a panic outside any task body: {:?}",
            report.contained_faults
        );
        assert!(!report.degraded);
    }

    /// Workers count tasks locally and fold at epoch boundaries; the fold
    /// also runs on every way out of a pass, so the final report is exact —
    /// it equals the task bodies that really ran — on clean, misspeculating,
    /// panicking and degraded runs alike.
    #[test]
    fn task_counter_is_exact_on_every_exit_path() {
        let plans = [
            FaultPlan::default(),
            FaultPlan::default().false_positive_at(3),
            FaultPlan::default().worker_panic_at(2, 3),
            FaultPlan::default().checker_death_at(1),
            FaultPlan::default().false_positive_storm(32),
        ];
        for plan in plans {
            let text = plan.to_text();
            let w = Probed::new(8, 12);
            let report = SpecCrossEngine::<RangeSignature>::new(
                SpecConfig::with_workers(2)
                    .checkpoint_every(2)
                    .fault_plan(plan)
                    .degrade(DegradePolicy {
                        window: 4,
                        max_misspeculations: 2,
                        max_consecutive_failures: 2,
                    })
                    .watchdog(WATCHDOG),
            )
            .execute(&w)
            .unwrap();
            assert_eq!(w.grid.cells(), w.grid.expected(), "{text}");
            assert_eq!(
                report.stats.tasks,
                w.executed.load(Ordering::Relaxed),
                "{text}"
            );
            assert!(report.stats.tasks >= 8 * 12, "{text}");
        }
    }

    /// One worker and bare tasks: the pass stays narrow, where the check
    /// site is probed once per chunk. The death planned for the last epoch
    /// fires there and is contained; the region still ends sequential.
    #[test]
    fn checker_death_in_a_narrow_pass_is_contained() {
        let w = IncGrid::new(4, 6);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(1)
                .fault_plan(FaultPlan::default().checker_death_at(5))
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(report.stats.wide_passes, 0);
        assert_eq!(
            report.contained_faults,
            [ContainedFault::WorkerPanic {
                epoch: u32::MAX,
                task: u64::MAX
            }]
        );
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn task_delay_changes_timing_not_results() {
        let w = grid(8, 6);
        let report = engine(FaultPlan::default().delay_at(1, 2, 200))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert_eq!(report.stats.misspeculations, 0);
    }

    /// Runs `w` under one of the two DOMORE plans at assignment width
    /// `width`: the separate plan on `width` workers, or the replicated
    /// plan on `width - 1` workers plus the calling thread.
    fn run_domore<W: DomoreWorkload>(
        replicated: bool,
        width: usize,
        config: impl FnOnce(DomoreConfig) -> DomoreConfig,
        w: &W,
    ) -> Result<ExecutionReport, DomoreError> {
        let workers = width - usize::from(replicated);
        let mut runtime = DomoreRuntime::new(config(DomoreConfig::with_workers(workers)));
        if replicated {
            runtime.execute_replicated(w)
        } else {
            runtime.execute(w)
        }
    }

    /// An [`IncGrid`] that logs the iterations it runs and panics
    /// organically in the prologue of invocation `bad_prologue` or in
    /// iteration `bad_iteration`.
    struct Organic {
        inner: IncGrid,
        bad_prologue: Option<usize>,
        bad_iteration: Option<(usize, usize)>,
        executed: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl Organic {
        fn new(inner: IncGrid) -> Self {
            Self {
                inner,
                bad_prologue: None,
                bad_iteration: None,
                executed: Default::default(),
            }
        }
    }

    impl DomoreWorkload for Organic {
        fn num_invocations(&self) -> usize {
            self.inner.num_invocations()
        }
        fn prologue(&self, inv: usize) {
            assert_ne!(Some(inv), self.bad_prologue, "organic prologue failure");
        }
        fn num_iterations(&self, inv: usize) -> usize {
            self.inner.num_iterations(inv)
        }
        fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
            self.inner.touched_addrs(inv, iter, out);
        }
        fn execute_iteration(&self, inv: usize, iter: usize, tid: ThreadId) {
            assert_ne!(Some((inv, iter)), self.bad_iteration, "organic failure");
            self.executed.lock().unwrap().push((inv, iter));
            self.inner.execute_iteration(inv, iter, tid);
        }
        fn address_space(&self) -> Option<usize> {
            self.inner.address_space()
        }
    }

    #[test]
    fn domore_iteration_panic_is_a_typed_error_not_a_hang() {
        for replicated in [false, true] {
            let w = IncGrid::new(8, 5);
            let err = run_domore(
                replicated,
                3,
                |c| {
                    c.fault_plan(FaultPlan::default().worker_panic_at(1, 3))
                        .watchdog(WATCHDOG)
                },
                &w,
            )
            .unwrap_err();
            assert_eq!(
                err,
                DomoreError::IterationPanicked { inv: 1, iter: 3 },
                "replicated: {replicated}"
            );
        }
    }

    /// The first panic aborts the region: the error names the iteration,
    /// the rest of the region is skipped, and memory is the sequential
    /// image of exactly the iterations that ran — every other worker stops
    /// cleanly, with nothing half-applied.
    #[test]
    fn domore_first_panic_aborts_with_the_image_of_what_ran() {
        const CELLS: usize = 8;
        const INVOCATIONS: usize = 50;
        for replicated in [false, true] {
            let w = Organic::new(IncGrid::new(CELLS, INVOCATIONS));
            let err = run_domore(
                replicated,
                3,
                |c| {
                    c.queue_capacity(4)
                        .fault_plan(FaultPlan::default().worker_panic_at(0, 3))
                        .watchdog(WATCHDOG)
                },
                &w,
            )
            .unwrap_err();
            assert_eq!(
                err,
                DomoreError::IterationPanicked { inv: 0, iter: 3 },
                "replicated: {replicated}"
            );
            let ran = w.executed.into_inner().unwrap();
            assert!(!ran.contains(&(0, 3)), "the panicked iteration never ran");
            assert!(ran.len() < CELLS * INVOCATIONS);
            // Each IncGrid iteration increments its own cell once.
            let mut image = vec![0u64; CELLS];
            for &(_, iter) in &ran {
                image[iter] += 1;
            }
            assert_eq!(w.inner.cells(), image, "replicated: {replicated}");
        }
    }

    /// A lone worker's panic leaves nobody to run the rest: the region
    /// must end with the panic error instead of waiting on it.
    #[test]
    fn domore_all_workers_dead_terminates_with_the_panic_error() {
        let w = IncGrid::new(8, 50);
        let err = DomoreRuntime::new(
            DomoreConfig::with_workers(1)
                .fault_plan(FaultPlan::default().worker_panic_at(0, 2))
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap_err();
        assert_eq!(err, DomoreError::IterationPanicked { inv: 0, iter: 2 });
    }

    #[test]
    fn domore_delay_changes_timing_not_results() {
        for replicated in [false, true] {
            let w = IncGrid::new(8, 5);
            let report = run_domore(
                replicated,
                3,
                |c| {
                    c.fault_plan(FaultPlan::default().delay_at(2, 4, 200))
                        .watchdog(WATCHDOG)
                },
                &w,
            )
            .unwrap();
            assert_eq!(w.cells(), w.expected(), "replicated: {replicated}");
            assert_eq!(report.stats.tasks, 8 * 5);
        }
    }

    /// A panicking prologue — the scheduler's, or any replica's — fails
    /// the region as a scheduler panic, after every thread has stopped.
    #[test]
    fn domore_prologue_panic_is_a_scheduler_panic() {
        for replicated in [false, true] {
            let w = Organic {
                bad_prologue: Some(2),
                ..Organic::new(IncGrid::new(8, 5))
            };
            let err = run_domore(replicated, 3, |c| c.watchdog(WATCHDOG), &w).unwrap_err();
            assert_eq!(
                err,
                DomoreError::SchedulerPanicked,
                "replicated: {replicated}"
            );
        }
    }

    // With nine cells and three round-robin workers every cell stays on one
    // worker, so no iteration carries a condition and each worker receives
    // an invocation as one stride-3 run (1, 4, 7 for worker 1); with one
    // worker, as stride-1 runs of up to 32 iterations.

    #[test]
    fn domore_delay_inside_a_run_changes_timing_not_results() {
        for (workers, cells, at) in [(3, 9, 4), (1, 64, 40)] {
            let w = IncGrid::new(cells, 5);
            let report = DomoreRuntime::new(
                DomoreConfig::with_workers(workers)
                    .fault_plan(FaultPlan::default().delay_at(2, at, 2_000))
                    .watchdog(WATCHDOG),
            )
            .execute(&w)
            .unwrap();
            assert_eq!(w.cells(), w.expected(), "{workers} workers");
            assert_eq!(report.stats.tasks, (cells * 5) as u64);
        }
    }

    /// Runs of up to 32 iterations through a two-slot ring: a run is one
    /// message, so the ring holds far more iterations than slots, and the
    /// scheduler blocks on a full ring mid-region without losing any.
    #[test]
    fn domore_runs_longer_than_the_ring_complete() {
        for (workers, cells) in [(1, 64), (2, 64), (3, 63)] {
            let w = IncGrid::new(cells, 40);
            let report = DomoreRuntime::new(
                DomoreConfig::with_workers(workers)
                    .queue_capacity(2)
                    .watchdog(WATCHDOG),
            )
            .execute(&w)
            .unwrap();
            assert_eq!(w.cells(), w.expected(), "{workers} workers");
            assert_eq!(report.stats.tasks, (cells * 40) as u64);
        }
    }

    /// Two round-robin workers over nine cells: invocation 0 reaches worker
    /// 1 as the run 1, 3, 5, 7, and invocation 1's iteration 0 — the next
    /// thing worker 1 receives — waits on worker 0's iteration 0, which an
    /// injected delay holds far past the watchdog. The wait behind the run
    /// must become a typed timeout, not a hang. Two replicas make the same
    /// schedule, so the replicated plan waits on the same condition.
    #[test]
    fn domore_watchdog_fires_on_a_sync_behind_a_run() {
        for replicated in [false, true] {
            let w = IncGrid::new(9, 3);
            let err = run_domore(
                replicated,
                2,
                |c| {
                    c.fault_plan(FaultPlan::default().delay_at(0, 0, 300_000))
                        .watchdog(Duration::from_millis(50))
                },
                &w,
            )
            .unwrap_err();
            assert_eq!(
                err,
                DomoreError::WatchdogTimeout,
                "replicated: {replicated}"
            );
        }
    }

    /// Region isolation: a faulting region served by a [`RegionServer`]
    /// must leave a concurrently running clean neighbour *byte-identical*
    /// to a solo run — same misspeculation count, same conflict list, same
    /// degradation flag, same contained-fault ledger, same final memory.
    /// One matrix case per fault class the server must firewall: a worker
    /// panic, a checker death in a region that then degrades, and a forced
    /// misspeculation; plus a DOMORE neighbour case (the other runtime
    /// drawing from the same pool while SPECCROSS region A recovers).
    mod region_isolation {
        use std::sync::Arc;

        use super::*;
        use crossinvoc::server::{RegionReport, RegionServer};

        fn spec_config() -> SpecConfig {
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .watchdog(WATCHDOG)
        }

        /// The order-insensitive observable outcome of a SPECCROSS region.
        fn digest(w: &IncGrid, report: &crossinvoc_speccross::engine::SpecReport) -> String {
            format!(
                "misspec={} conflicts={:?} degraded={} contained={:?} cells={:?}",
                report.stats.misspeculations,
                report.conflicts,
                report.degraded,
                report.contained_faults,
                w.cells()
            )
        }

        /// Solo baseline: the clean grid through the classic scoped entry
        /// point, no pool, no neighbours.
        fn solo_digest() -> String {
            let w = grid(8, 6);
            let report = SpecCrossEngine::<RangeSignature>::new(spec_config())
                .execute(&w)
                .unwrap();
            digest(&w, &report)
        }

        /// Runs clean region B concurrently with region A under `fault`,
        /// checks A's outcome with `check_a`, and returns B's digest.
        fn neighbour_digest(
            fault: FaultPlan,
            a_config: SpecConfig,
            check_a: impl FnOnce(&IncGrid, &RegionReport),
        ) -> String {
            // 3 slots per spec region (a gang of `num_workers + 1`).
            let server = RegionServer::new(6);
            let a = Arc::new(grid(8, 6));
            let b = Arc::new(grid(8, 6));
            let ha = server.submit_spec::<RangeSignature, _>(
                1,
                a_config.fault_plan(fault),
                Arc::clone(&a),
            );
            let hb = server.submit_spec::<RangeSignature, _>(2, spec_config(), Arc::clone(&b));
            let ra = ha.join().expect("the faulting region must be contained");
            let rb = hb.join().expect("the clean region");
            check_a(&a, &ra);
            digest(&b, rb.spec().unwrap())
        }

        #[test]
        fn neighbour_unaffected_by_worker_panic_next_door() {
            let baseline = solo_digest();
            let b = neighbour_digest(
                FaultPlan::default().worker_panic_at(2, 3),
                spec_config(),
                |a, ra| {
                    let report = ra.spec().unwrap();
                    assert!(
                        report.contained_faults.iter().any(|f| matches!(
                            f,
                            ContainedFault::WorkerPanic { epoch: 2, task: 3 }
                        )),
                        "region A must contain its panic: {:?}",
                        report.contained_faults
                    );
                    assert_eq!(a.cells(), a.expected(), "region A still converges");
                },
            );
            assert_eq!(b, baseline, "worker panic in A must not leak into B");
        }

        /// Region A loses its checker (a contained panic) and then
        /// degrades under a storm of false positives.
        #[test]
        fn neighbour_unaffected_by_checker_death_and_degrade_next_door() {
            let baseline = solo_digest();
            let b = neighbour_digest(
                FaultPlan::default()
                    .checker_death_at(1)
                    .false_positive_storm(32),
                spec_config().degrade(DegradePolicy::default()),
                |a, ra| {
                    let report = ra.spec().unwrap();
                    assert!(report.degraded, "region A must degrade to barriers");
                    assert_eq!(a.cells(), a.expected(), "region A still converges");
                },
            );
            assert_eq!(b, baseline, "A's degradation must not leak into B");
        }

        #[test]
        fn neighbour_unaffected_by_forced_misspeculation_next_door() {
            let baseline = solo_digest();
            let b = neighbour_digest(
                FaultPlan::default().false_positive_at(3),
                spec_config(),
                |a, ra| {
                    let report = ra.spec().unwrap();
                    assert!(report.stats.misspeculations >= 1, "A must roll back");
                    assert_eq!(a.cells(), a.expected(), "region A still converges");
                },
            );
            assert_eq!(b, baseline, "A's rollback must not leak into B");
        }

        /// Cross-runtime case: a clean DOMORE region keeps its solo result
        /// while a SPECCROSS neighbour on the same pool panics and recovers.
        #[test]
        fn domore_neighbour_unaffected_by_speccross_panic() {
            // Solo DOMORE baseline.
            let solo = IncGrid::new(8, 6);
            let solo_report = DomoreRuntime::new(DomoreConfig::with_workers(2).watchdog(WATCHDOG))
                .execute(&solo)
                .unwrap();
            let baseline = format!(
                "tasks={} sync={} cells={:?}",
                solo_report.stats.tasks,
                solo_report.stats.sync_conditions,
                solo.cells()
            );

            // 3 slots for the spec region (a gang of `num_workers + 1`) + 2
            // for the DOMORE workers.
            let server = RegionServer::new(5);
            let a = Arc::new(grid(8, 6));
            let b = Arc::new(IncGrid::new(8, 6));
            let ha = server.submit_spec::<RangeSignature, _>(
                1,
                spec_config().fault_plan(FaultPlan::default().worker_panic_at(2, 3)),
                Arc::clone(&a),
            );
            let hb = server.submit_domore(
                2,
                DomoreConfig::with_workers(2).watchdog(WATCHDOG),
                Arc::clone(&b),
            );
            ha.join().expect("the panicking spec region is contained");
            let rb = hb.join().expect("the clean domore region");
            let report = rb.domore().unwrap();
            let got = format!(
                "tasks={} sync={} cells={:?}",
                report.stats.tasks,
                report.stats.sync_conditions,
                b.cells()
            );
            assert_eq!(got, baseline, "A's panic must not leak into DOMORE B");
        }
    }

    /// The duplicated scheduler — the replicated plan — contains an
    /// organically panicking iteration like an injected one.
    #[test]
    fn duplicated_scheduler_contains_organic_panics() {
        let w = Organic {
            bad_iteration: Some((2, 5)),
            ..Organic::new(IncGrid::new(8, 5))
        };
        let err = DomoreRuntime::new(DomoreConfig::with_workers(2).watchdog(WATCHDOG))
            .execute_replicated(&w)
            .unwrap_err();
        assert_eq!(err, DomoreError::IterationPanicked { inv: 2, iter: 5 });
    }
}
