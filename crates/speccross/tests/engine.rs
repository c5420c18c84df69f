//! End-to-end tests of the SPECCROSS engine: correctness under speculation,
//! deterministic recovery, checkpointing, irreversible epochs, profiling and
//! the width of a pass.
//!
//! Tests of cross-worker behaviour (gating, admission, snapshots) give their
//! tasks [`WIDE_TASK_NS`] of busy work, which makes every pass wide: worker
//! 0 runs each pass's first epoch alone, and all gang threads run the rest.

use std::sync::atomic::{AtomicU64, Ordering};

use crossinvoc_runtime::{spin_for, FaultPlan, SharedSlice};
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::{SpecError, SpecWorkload, WIDE_TASK_NS};

/// A ping-pong stencil: epoch e reads cells of the (e-1)-parity array and
/// writes the e-parity array; task t of epoch e writes cell t and reads
/// cells t-1, t, t+1 of the other array. Real cross-epoch dependences with
/// distance ≈ one epoch of tasks.
struct PingPong {
    a: SharedSlice<u64>,
    b: SharedSlice<u64>,
    epochs: usize,
    /// Busy work per task, in nanoseconds.
    spin_ns: u64,
}

impl PingPong {
    fn new(n: usize, epochs: usize) -> Self {
        Self {
            a: SharedSlice::from_vec((0..n as u64).collect()),
            b: SharedSlice::from_vec(vec![0; n]),
            epochs,
            spin_ns: 0,
        }
    }

    /// The same stencil with tasks heavy enough for every pass to widen.
    fn wide(n: usize, epochs: usize) -> Self {
        Self {
            spin_ns: WIDE_TASK_NS,
            ..Self::new(n, epochs)
        }
    }

    fn n(&self) -> usize {
        self.a.len()
    }

    fn sequential(n: usize, epochs: usize) -> Vec<u64> {
        let mut a: Vec<u64> = (0..n as u64).collect();
        let mut b = vec![0u64; n];
        for _ in 0..epochs {
            for t in 0..n {
                let left = a[t.saturating_sub(1)];
                let right = a[(t + 1).min(n - 1)];
                b[t] = left.wrapping_add(a[t]).wrapping_add(right) / 3 + 1;
            }
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    fn result(&mut self) -> Vec<u64> {
        if self.epochs.is_multiple_of(2) {
            self.a.snapshot()
        } else {
            self.b.snapshot()
        }
    }
}

impl SpecWorkload for PingPong {
    type State = (Vec<u64>, Vec<u64>);

    fn num_epochs(&self) -> usize {
        self.epochs
    }

    fn num_tasks(&self, _epoch: usize) -> usize {
        self.n()
    }

    fn execute_task(&self, epoch: usize, task: usize, _tid: usize, rec: &mut dyn AccessRecorder) {
        let n = self.n();
        let (src, dst, base_src, base_dst) = if epoch.is_multiple_of(2) {
            (&self.a, &self.b, 0usize, n)
        } else {
            (&self.b, &self.a, n, 0usize)
        };
        let lo = task.saturating_sub(1);
        let hi = (task + 1).min(n - 1);
        spin_for(self.spin_ns);
        rec.read(base_src + lo);
        rec.read(base_src + hi);
        rec.write(base_dst + task);
        // SAFETY: same-epoch tasks write disjoint cells of `dst` and only
        // read `src`; cross-epoch conflicts are the engine's concern.
        unsafe {
            let left = src.read(lo);
            let mid = src.read(task);
            let right = src.read(hi);
            dst.write(task, left.wrapping_add(mid).wrapping_add(right) / 3 + 1);
        }
    }

    fn snapshot(&self) -> Self::State {
        let read_all = |s: &SharedSlice<u64>| {
            (0..s.len())
                .map(|i| unsafe { s.read(i) })
                .collect::<Vec<_>>()
        };
        (read_all(&self.a), read_all(&self.b))
    }

    fn restore(&self, state: &Self::State) {
        for (i, v) in state.0.iter().enumerate() {
            unsafe { self.a.write(i, *v) };
        }
        for (i, v) in state.1.iter().enumerate() {
            unsafe { self.b.write(i, *v) };
        }
    }
}

#[test]
fn speculative_matches_sequential_when_gated() {
    for workers in [1, 2, 4] {
        let mut w = PingPong::wide(32, 10);
        // The profiled distance for this stencil is about one epoch of
        // tasks; gate accordingly so dependences never misspeculate.
        let profile = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(
            &PingPong::new(32, 4),
            4,
        );
        assert!(profile.min_distance.is_some());
        let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
            SpecConfig::with_workers(workers).spec_distance(profile.min_distance),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(
            report.stats.misspeculations, 0,
            "gated run never rolls back"
        );
        assert_eq!(report.stats.wide_passes, 1, "one pass, run wide");
        assert_eq!(w.result(), PingPong::sequential(32, 10));
        assert_eq!(report.stats.tasks, 32 * 10);
        assert_eq!(report.stats.epochs, 10);
    }
}

#[test]
fn ungated_speculation_recovers_to_correct_result() {
    // Without a gate the engine may or may not misspeculate depending on
    // interleaving; either way the final state must be sequential.
    for seed in 0..3 {
        let mut w = PingPong::wide(16 + seed, 8);
        let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
            SpecConfig::with_workers(3 + seed),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(w.result(), PingPong::sequential(16 + seed, 8));
        assert!(report.stats.tasks >= (16 + seed as u64) * 8);
    }
}

#[test]
fn barrier_baseline_matches_sequential() {
    let mut w = PingPong::new(24, 7);
    let report =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(SpecConfig::with_workers(3))
            .execute_with_barriers(&w)
            .unwrap();
    assert_eq!(w.result(), PingPong::sequential(24, 7));
    assert_eq!(report.stats.tasks, 24 * 7);
    assert_eq!(report.comparisons, 0);
}

/// Barrier mode, and the non-speculative re-execution that recovery and
/// degrade share with it: no rollback can mask a failure there, so the
/// region ends with the failure's own error.
mod barrier_mode {
    use std::time::{Duration, Instant};

    use super::*;
    use crossinvoc_runtime::fault::{FaultKind, FaultSite, FaultSpec};
    use crossinvoc_runtime::{Event, RangeSignature};

    fn engine(config: SpecConfig) -> SpecCrossEngine {
        SpecCrossEngine::<RangeSignature>::new(config)
    }

    #[test]
    fn a_task_panic_fails_the_region_and_names_its_task() {
        for workers in [1, 2, 3] {
            let err = engine(
                SpecConfig::with_workers(workers)
                    .fault_plan(FaultPlan::default().worker_panic_at(3, 17)),
            )
            .execute_with_barriers(&PingPong::new(24, 6))
            .unwrap_err();
            assert_eq!(
                err,
                SpecError::TaskPanicked { epoch: 3, task: 17 },
                "{workers} workers"
            );
        }
    }

    /// A panic with a second hit left fires in the speculative pass, is
    /// contained there, and fires again when the range re-executes.
    #[test]
    fn a_task_panic_that_recurs_in_the_re_execution_fails_the_region() {
        for (workers, make) in [
            (1, PingPong::new as fn(usize, usize) -> PingPong),
            (2, PingPong::new),
            (2, PingPong::wide),
        ] {
            let plan = FaultPlan::from_specs(vec![FaultSpec {
                site: FaultSite::task(2, 5),
                kind: FaultKind::WorkerPanic,
                max_hits: 2,
            }]);
            let err = engine(
                SpecConfig::with_workers(workers)
                    .fault_plan(plan)
                    .watchdog(Duration::from_secs(30)),
            )
            .execute(&make(16, 5))
            .unwrap_err();
            assert_eq!(
                err,
                SpecError::TaskPanicked { epoch: 2, task: 5 },
                "{workers} workers"
            );
        }
    }

    /// The task that holds epoch 1 up sleeps far past the deadline; the
    /// other worker, waiting at the barrier, is the watchdog.
    #[test]
    fn the_watchdog_fires_while_a_worker_waits_at_the_barrier() {
        let started = Instant::now();
        let err = engine(
            SpecConfig::with_workers(2)
                .fault_plan(FaultPlan::default().delay_at(1, 5, 400_000))
                .watchdog(Duration::from_millis(100)),
        )
        .execute_with_barriers(&PingPong::new(16, 4))
        .unwrap_err();
        assert_eq!(err, SpecError::WatchdogTimeout);
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn each_worker_meets_the_others_once_per_epoch() {
        let (n, epochs) = (24, 7);
        for workers in [1, 2, 3] {
            let mut w = PingPong::new(n, epochs);
            let report = engine(SpecConfig::with_workers(workers).trace(1 << 14))
                .execute_with_barriers(&w)
                .unwrap();
            assert_eq!(w.result(), PingPong::sequential(n, epochs));
            let trace = report.trace.expect("traced");
            assert_eq!(trace.dropped(), 0);
            let mut retired = 0u64;
            for tid in 0..workers {
                let mut meetings = Vec::new();
                for rec in trace.records().iter().filter(|r| r.tid == tid) {
                    match rec.event {
                        Event::BarrierEnter { epoch } => meetings.push(("enter", epoch)),
                        Event::BarrierLeave { epoch, .. } => meetings.push(("leave", epoch)),
                        Event::TaskRetire { count, .. } => retired += u64::from(count),
                        _ => {}
                    }
                }
                let expected: Vec<_> = (0..epochs as u32)
                    .flat_map(|e| [("enter", e), ("leave", e)])
                    .collect();
                assert_eq!(meetings, expected, "worker {tid} of {workers}");
            }
            assert_eq!(retired, report.stats.tasks, "{workers} workers");
            assert_eq!(report.stats.tasks, (n * epochs) as u64);
        }
    }
}

#[test]
fn injected_conflict_triggers_exactly_one_recovery() {
    let mut w = PingPong::wide(16, 9);
    let d =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(&PingPong::new(16, 4), 4)
            .min_distance;
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(2)
            .spec_distance(d)
            .fault_plan(FaultPlan::default().false_positive_at(4)),
    )
    .execute(&w)
    .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    assert_eq!(report.conflicts.len(), 1);
    assert_eq!(w.result(), PingPong::sequential(16, 9));
}

#[test]
fn frequent_checkpoints_bound_reexecution() {
    let mut w = PingPong::wide(16, 20);
    let d =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(&PingPong::new(16, 4), 4)
            .min_distance;
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .spec_distance(d)
            .fault_plan(FaultPlan::default().false_positive_at(10)),
    )
    .execute(&w)
    .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    // Pass-start checkpoints plus periodic ones: with an interval of 2 over
    // 20 epochs there must be many.
    assert!(
        report.stats.checkpoints >= 5,
        "expected frequent checkpoints, got {}",
        report.stats.checkpoints
    );
    assert_eq!(w.result(), PingPong::sequential(16, 20));
}

/// Wraps PingPong, marking one epoch irreversible and counting how many
/// times its tasks run.
struct WithIrreversible {
    inner: PingPong,
    irreversible_epoch: usize,
    irreversible_runs: AtomicU64,
}

impl SpecWorkload for WithIrreversible {
    type State = <PingPong as SpecWorkload>::State;

    fn num_epochs(&self) -> usize {
        self.inner.num_epochs()
    }
    fn num_tasks(&self, epoch: usize) -> usize {
        self.inner.num_tasks(epoch)
    }
    fn execute_task(&self, epoch: usize, task: usize, tid: usize, rec: &mut dyn AccessRecorder) {
        if epoch == self.irreversible_epoch {
            self.irreversible_runs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.execute_task(epoch, task, tid, rec);
    }
    fn snapshot(&self) -> Self::State {
        self.inner.snapshot()
    }
    fn restore(&self, state: &Self::State) {
        self.inner.restore(state);
    }
    fn epoch_is_irreversible(&self, epoch: usize) -> bool {
        epoch == self.irreversible_epoch
    }
}

#[test]
fn irreversible_epoch_is_never_reexecuted() {
    let n = 16;
    let epochs = 10;
    let mut w = WithIrreversible {
        inner: PingPong::wide(n, epochs),
        irreversible_epoch: 3,
        irreversible_runs: AtomicU64::new(0),
    };
    let d = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(&PingPong::new(n, 4), 4)
        .min_distance;
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(2)
            .spec_distance(d)
            .fault_plan(FaultPlan::default().false_positive_at(7)),
    )
    .execute(&w)
    .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    assert_eq!(
        w.irreversible_runs.load(Ordering::Relaxed),
        n as u64,
        "the irreversible epoch must run its tasks exactly once"
    );
    assert_eq!(w.inner.result(), PingPong::sequential(n, epochs));
}

#[test]
fn zero_workers_is_an_error() {
    let w = PingPong::new(4, 2);
    let engine =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(SpecConfig::with_workers(0));
    assert_eq!(engine.execute(&w).unwrap_err(), SpecError::NoWorkers);
    assert_eq!(
        engine.execute_with_barriers(&w).unwrap_err(),
        SpecError::NoWorkers
    );
}

#[test]
fn empty_region_completes_immediately() {
    let mut w = PingPong::new(4, 0);
    let report =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(SpecConfig::with_workers(2))
            .execute(&w)
            .unwrap();
    assert_eq!(report.stats.tasks, 0);
    assert_eq!(w.result(), PingPong::sequential(4, 0));
}

#[test]
fn profile_reports_stencil_distance() {
    let w = PingPong::new(32, 6);
    let profile = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(&w, 4);
    // Task t of epoch e writes cell t of one array; task t' of epoch e+1
    // reads cells t'-1..t'+1 of that array. With range signatures the whole
    // epoch overlaps, so the profiled distance is small but positive.
    let d = profile.min_distance.expect("stencil must conflict");
    assert!((1..=64).contains(&d), "distance {d} out of expected range");
    assert!(profile.conflicts > 0);
    assert_eq!(profile.tasks, 32 * 6);
}

#[test]
fn check_requests_are_counted() {
    let w = PingPong::wide(8, 5);
    let d = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(&PingPong::new(8, 4), 4)
        .min_distance;
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(2).spec_distance(d),
    )
    .execute(&w)
    .unwrap();
    // Every task records accesses, so every task of a wide epoch files a
    // request: eight tasks per epoch on three threads is below the chunking
    // threshold, and a chunk of one task is the per-iteration protocol. The
    // first epoch ran alone, unchecked.
    assert_eq!(report.stats.check_requests, 8 * 4);
}

#[test]
fn engine_works_with_bloom_signatures() {
    use crossinvoc_runtime::BloomSignature;
    let mut w = PingPong::wide(16, 6);
    let d = SpecCrossEngine::<BloomSignature>::profile(&PingPong::new(16, 4), 4).min_distance;
    let report =
        SpecCrossEngine::<BloomSignature>::new(SpecConfig::with_workers(2).spec_distance(d))
            .execute(&w)
            .unwrap();
    assert_eq!(w.result(), PingPong::sequential(16, 6));
    // Bloom filters may add false-positive conflicts but never unsoundness;
    // a gated run still recovers to the right answer either way.
    assert!(report.stats.tasks >= 16 * 6);
}

#[test]
fn single_worker_speculation_is_trivially_sound() {
    let mut w = PingPong::new(8, 5);
    let report =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(SpecConfig::with_workers(1))
            .execute(&w)
            .unwrap();
    assert_eq!(w.result(), PingPong::sequential(8, 5));
    assert_eq!(report.stats.misspeculations, 0, "one worker cannot race");
}

/// Recovery on chunked regions: 256-task epochs run wide in chunks of 32
/// on a gang of two, 21 on three and 16 on four (`chunk::chunk_len`; the
/// stencil's profiled distance, 255, is no tighter).
mod chunked {
    use std::time::{Duration, Instant};

    use super::*;
    use crossinvoc_runtime::RangeSignature;
    use crossinvoc_speccross::ContainedFault;

    const N: usize = 256;

    fn distance() -> Option<u64> {
        SpecCrossEngine::<RangeSignature>::profile(&PingPong::new(N, 4), 4).min_distance
    }

    fn engine(config: SpecConfig) -> SpecCrossEngine {
        SpecCrossEngine::<RangeSignature>::new(config.watchdog(Duration::from_secs(30)))
    }

    #[test]
    fn gated_chunks_fold_their_requests_and_never_roll_back() {
        assert_eq!(distance(), Some(N as u64 - 1));
        for (workers, chunk) in [(1, 32), (2, 21), (3, 16)] {
            let mut w = PingPong::wide(N, 10);
            let report = engine(SpecConfig::with_workers(workers).spec_distance(distance()))
                .execute(&w)
                .unwrap();
            assert_eq!(report.stats.misspeculations, 0, "{workers} workers");
            assert_eq!(w.result(), PingPong::sequential(N, 10));
            assert_eq!(report.stats.tasks, (N * 10) as u64);
            // Neighbouring stencil tasks touch neighbouring cells, so every
            // chunk is one exact run: one request per chunk of the nine
            // wide epochs.
            let chunks = N.div_ceil(chunk) * 9;
            assert_eq!(
                report.stats.check_requests, chunks as u64,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn an_ungated_race_inside_chunks_is_detected_and_recovered() {
        for workers in [1, 2] {
            // Task 40 is mid-chunk on gang thread 1 either way; asleep
            // there, it leaves epoch 1 unfinished while the ungated others
            // run on through the epochs that read what it has yet to write.
            let mut w = PingPong::wide(N, 8);
            let report = engine(
                SpecConfig::with_workers(workers)
                    .fault_plan(FaultPlan::default().delay_at(1, 40, 20_000)),
            )
            .execute(&w)
            .unwrap();
            assert!(report.stats.misspeculations >= 1, "{workers} workers");
            assert_eq!(w.result(), PingPong::sequential(N, 8), "{workers} workers");
        }
    }

    /// A conflict between two workers is flagged by the admission that
    /// sees it: both sides of the first recorded conflict are real tasks,
    /// from different epochs, on different gang threads.
    #[test]
    fn a_planted_cross_worker_conflict_is_flagged_at_inline_admission() {
        let mut w = PingPong::wide(N, 8);
        let report = engine(
            SpecConfig::with_workers(1).fault_plan(FaultPlan::default().delay_at(1, 40, 20_000)),
        )
        .execute(&w)
        .unwrap();
        let first = report.conflicts.first().expect("the race is detected");
        assert_ne!(first.earlier.0, first.later.0, "{first:?}");
        assert!(first.earlier.1.epoch < first.later.1.epoch, "{first:?}");
        assert_eq!(w.result(), PingPong::sequential(N, 8));
    }

    #[test]
    fn an_injected_false_positive_recovers_exactly_once() {
        for workers in [1, 2] {
            let mut w = PingPong::wide(N, 9);
            let report = engine(
                SpecConfig::with_workers(workers)
                    .spec_distance(distance())
                    .fault_plan(FaultPlan::default().false_positive_at(4)),
            )
            .execute(&w)
            .unwrap();
            assert_eq!(report.stats.misspeculations, 1, "{workers} workers");
            assert_eq!(report.conflicts.len(), 1);
            assert_eq!(w.result(), PingPong::sequential(N, 9));
        }
    }

    /// Cells of the bare grids below: eight tasks per epoch make every
    /// chunk one task long, and one bare task stays far below
    /// `WIDE_CHUNK_NS` even in an unoptimized build, so their passes are
    /// always narrow.
    const BARE: usize = 8;

    /// Narrow passes have no admissions, but the check site is probed once
    /// per chunk: a planned false positive still fires, exactly once.
    #[test]
    fn an_injected_false_positive_fires_once_in_a_narrow_pass() {
        let mut w = PingPong::new(BARE, 9);
        let report = engine(
            SpecConfig::with_workers(1).fault_plan(FaultPlan::default().false_positive_at(4)),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(report.stats.wide_passes, 0, "bare tasks stay narrow");
        assert_eq!(report.stats.misspeculations, 1);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.stats.check_requests, 0, "nothing is admitted");
        assert_eq!(w.result(), PingPong::sequential(BARE, 9));
    }

    /// The width rule: bare one-task chunks never carry `WIDE_CHUNK_NS`,
    /// and tasks of `WIDE_TASK_NS` always do — every pass of a recovering
    /// region then runs wide.
    #[test]
    fn bare_tasks_run_narrow_and_heavy_tasks_run_wide() {
        for workers in [1, 2] {
            let config = || {
                SpecConfig::with_workers(workers)
                    .spec_distance(distance())
                    .fault_plan(FaultPlan::default().false_positive_at(3))
            };
            let mut w = PingPong::new(BARE, 6);
            let bare = engine(config()).execute(&w).unwrap();
            assert_eq!(bare.stats.wide_passes, 0, "{workers} workers");
            assert_eq!(w.result(), PingPong::sequential(BARE, 6));

            let mut w = PingPong::wide(N, 6);
            let heavy = engine(config()).execute(&w).unwrap();
            assert_eq!(heavy.stats.misspeculations, 1, "{workers} workers");
            assert_eq!(heavy.stats.wide_passes, 2, "both passes, {workers} workers");
            assert_eq!(w.result(), PingPong::sequential(N, 6));
        }
    }

    #[test]
    fn a_panic_mid_chunk_is_contained_and_blames_its_own_task() {
        for workers in [1, 2] {
            let mut w = PingPong::wide(N, 6);
            let report = engine(
                SpecConfig::with_workers(workers)
                    .spec_distance(distance())
                    .fault_plan(FaultPlan::default().worker_panic_at(2, 40)),
            )
            .execute(&w)
            .unwrap();
            assert_eq!(
                report.contained_faults,
                [ContainedFault::WorkerPanic { epoch: 2, task: 40 }],
                "{workers} workers"
            );
            assert_eq!(w.result(), PingPong::sequential(N, 6));
        }
    }

    /// An injected checker death panics at the admission site. With no
    /// checker thread to lose, it is contained like any panic outside a
    /// task body — rolled back and re-executed, never a degraded region —
    /// in wide passes and narrow ones alike.
    #[test]
    fn an_injected_checker_death_is_contained_like_an_engine_panic() {
        for (workers, n, make) in [
            (1, BARE, PingPong::new as fn(usize, usize) -> PingPong),
            (1, N, PingPong::wide),
            (2, N, PingPong::wide),
        ] {
            let mut w = make(n, 6);
            let report = engine(
                SpecConfig::with_workers(workers)
                    .spec_distance(distance())
                    .degrade(DegradePolicy::default())
                    .fault_plan(FaultPlan::default().checker_death_at(3)),
            )
            .execute(&w)
            .unwrap();
            assert!(!report.degraded, "{workers} workers");
            assert_eq!(
                report.contained_faults,
                [ContainedFault::WorkerPanic {
                    epoch: u32::MAX,
                    task: u64::MAX
                }],
                "{workers} workers"
            );
            assert_eq!(w.result(), PingPong::sequential(n, 6));
        }
    }

    /// Gang thread 1 sleeps in epoch 1 far past the deadline; worker 0 runs
    /// on until its next chunk's last task would be a whole speculative
    /// range ahead and parks in the chunk gate. The region must end with
    /// the watchdog's error as soon as the sleeper wakes, not hang in the
    /// gate.
    #[test]
    fn the_watchdog_fires_while_a_worker_waits_in_a_chunk_gate() {
        let started = Instant::now();
        let err = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(1)
                .spec_distance(distance())
                .fault_plan(FaultPlan::default().delay_at(1, 32, 400_000))
                .watchdog(Duration::from_millis(100)),
        )
        .execute(&PingPong::wide(N, 6))
        .unwrap_err();
        assert_eq!(err, SpecError::WatchdogTimeout);
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
