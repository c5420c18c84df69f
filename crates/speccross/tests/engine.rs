//! End-to-end tests of the SPECCROSS engine: correctness under speculation,
//! deterministic recovery, checkpointing, irreversible epochs and profiling.

use std::sync::atomic::{AtomicU64, Ordering};

use crossinvoc_runtime::{FaultPlan, SharedSlice};
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::{SpecError, SpecWorkload};

/// A ping-pong stencil: epoch e reads cells of the (e-1)-parity array and
/// writes the e-parity array; task t of epoch e writes cell t and reads
/// cells t-1, t, t+1 of the other array. Real cross-epoch dependences with
/// distance ≈ one epoch of tasks.
struct PingPong {
    a: SharedSlice<u64>,
    b: SharedSlice<u64>,
    epochs: usize,
}

impl PingPong {
    fn new(n: usize, epochs: usize) -> Self {
        Self {
            a: SharedSlice::from_vec((0..n as u64).collect()),
            b: SharedSlice::from_vec(vec![0; n]),
            epochs,
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
        let mut w = PingPong::new(32, 10);
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
        assert_eq!(w.result(), PingPong::sequential(32, 10));
        assert_eq!(report.stats.tasks, 32 * 10);
        assert_eq!(report.stats.epochs, 10);
    }
}

#[test]
fn ungated_speculation_recovers_to_correct_result() {
    // Without a gate the engine may or may not misspeculate depending on
    // interleaving; either way the final state must be sequential. Three
    // workers' position snapshots ride inline in the check messages; the
    // wider gangs' spill to the heap.
    for seed in 0..3 {
        let mut w = PingPong::new(16 + seed, 8);
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

#[test]
fn injected_conflict_triggers_exactly_one_recovery() {
    let mut w = PingPong::new(16, 9);
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
    let mut w = PingPong::new(16, 20);
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
        inner: PingPong::new(n, epochs),
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
    let w = PingPong::new(8, 5);
    let d = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::profile(&PingPong::new(8, 4), 4)
        .min_distance;
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(2).spec_distance(d),
    )
    .execute(&w)
    .unwrap();
    // Every task records accesses, so every task files a request: eight
    // tasks per epoch on two workers is below the chunking threshold, and a
    // chunk of one task is the per-iteration protocol.
    assert_eq!(report.stats.check_requests, 8 * 5);
}

#[test]
fn engine_works_with_bloom_signatures() {
    use crossinvoc_runtime::BloomSignature;
    let mut w = PingPong::new(16, 6);
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

/// Per-epoch address clusters with a same-index chain across epochs: epoch e
/// task t writes cell `e*tasks + t`, reading its own cell from epoch e-1.
/// The chain stays on one worker — every epoch is dealt by the same map — so the
/// `pir::elide` analysis would prove every access — modelled here by the
/// `proven` mask.
struct ClusteredChain {
    data: SharedSlice<u64>,
    epochs: usize,
    tasks: usize,
    proven: fn(usize) -> bool,
}

impl ClusteredChain {
    fn new(epochs: usize, tasks: usize, proven: fn(usize) -> bool) -> Self {
        Self {
            data: SharedSlice::from_vec(vec![0; epochs * tasks]),
            epochs,
            tasks,
            proven,
        }
    }

    fn expected(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.epochs * self.tasks];
        for e in 0..self.epochs {
            for t in 0..self.tasks {
                v[e * self.tasks + t] = if e == 0 {
                    t as u64
                } else {
                    v[(e - 1) * self.tasks + t] + 1
                };
            }
        }
        v
    }
}

impl SpecWorkload for ClusteredChain {
    type State = Vec<u64>;

    fn num_epochs(&self) -> usize {
        self.epochs
    }
    fn num_tasks(&self, _epoch: usize) -> usize {
        self.tasks
    }
    fn execute_task(&self, epoch: usize, task: usize, _tid: usize, rec: &mut dyn AccessRecorder) {
        let dst = epoch * self.tasks + task;
        rec.write(dst);
        let value = if epoch == 0 {
            task as u64
        } else {
            let src = (epoch - 1) * self.tasks + task;
            rec.read(src);
            // SAFETY: the same-index chain is owned by this worker; the
            // engine checks (or statically proves) cross-epoch safety.
            unsafe { self.data.read(src) + 1 }
        };
        unsafe { self.data.write(dst, value) };
    }
    fn snapshot(&self) -> Self::State {
        (0..self.data.len())
            .map(|i| unsafe { self.data.read(i) })
            .collect()
    }
    fn restore(&self, state: &Self::State) {
        for (i, v) in state.iter().enumerate() {
            unsafe { self.data.write(i, *v) };
        }
    }
    fn epoch_is_proven(&self, epoch: usize) -> bool {
        (self.proven)(epoch)
    }
}

#[test]
fn elision_skips_all_checks_on_a_fully_proven_region() {
    let mut w = ClusteredChain::new(10, 12, |_| true);
    let expected = w.expected();
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(3).elide(true).trace(1 << 14),
    )
    .execute(&w)
    .unwrap();
    assert_eq!(w.data.snapshot(), expected);
    assert_eq!(report.stats.misspeculations, 0);
    assert_eq!(
        report.stats.check_requests, 0,
        "nothing reaches the checker"
    );
    assert_eq!(report.stats.tasks, 10 * 12);
    assert_eq!(report.stats.elided_signatures, 10 * 12);
    assert_eq!(report.stats.elided_admits, 10 * 12);
    // Epoch 0 tasks record one access, later tasks two.
    assert_eq!(report.stats.proven_accesses, 12 + 9 * 12 * 2);
    let trace = report.trace.expect("tracing was configured");
    let elided: u64 = trace
        .records()
        .iter()
        .filter_map(|r| match r.event {
            crossinvoc_runtime::trace::Event::CheckElided { tasks, .. } => Some(tasks),
            _ => None,
        })
        .sum();
    assert_eq!(elided, 10 * 12, "check_elided rows account for every task");
}

#[test]
fn elision_keeps_unproven_epochs_on_the_full_path() {
    let mut w = ClusteredChain::new(10, 12, |e| e.is_multiple_of(2));
    let expected = w.expected();
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(3).elide(true),
    )
    .execute(&w)
    .unwrap();
    assert_eq!(w.data.snapshot(), expected);
    assert_eq!(report.stats.misspeculations, 0);
    // Odd epochs (5 of 10) keep filing one request per task.
    assert_eq!(report.stats.check_requests, 5 * 12);
    assert_eq!(report.stats.elided_signatures, 5 * 12);
}

#[test]
fn proven_mask_is_inert_without_config_elide() {
    let mut w = ClusteredChain::new(8, 10, |_| true);
    let expected = w.expected();
    let report =
        SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(SpecConfig::with_workers(3))
            .execute(&w)
            .unwrap();
    assert_eq!(w.data.snapshot(), expected);
    assert_eq!(report.stats.check_requests, 8 * 10, "default stays checked");
    assert_eq!(report.stats.elided_signatures, 0);
}

#[test]
fn elision_composes_with_recovery() {
    // Unproven epochs + an injected conflict: elision must not disturb
    // rollback or barrier re-execution.
    let mut w = ClusteredChain::new(12, 8, |e| e < 6);
    let expected = w.expected();
    let report = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
        SpecConfig::with_workers(2)
            .elide(true)
            .fault_plan(FaultPlan::default().false_positive_at(8)),
    )
    .execute(&w)
    .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    assert_eq!(w.data.snapshot(), expected);
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

/// Recovery on chunked regions: 256-task epochs run in chunks of 32 on two
/// workers and of 21 on three (`chunk::chunk_len`; the stencil's profiled
/// distance, 255, is no tighter).
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
        for (workers, chunk) in [(1, 32), (2, 32), (3, 21)] {
            let mut w = PingPong::new(N, 10);
            let report = engine(SpecConfig::with_workers(workers).spec_distance(distance()))
                .execute(&w)
                .unwrap();
            assert_eq!(report.stats.misspeculations, 0, "{workers} workers");
            assert_eq!(w.result(), PingPong::sequential(N, 10));
            assert_eq!(report.stats.tasks, (N * 10) as u64);
            // Neighbouring stencil tasks touch neighbouring cells, so every
            // chunk is one exact run: one request per chunk.
            let chunks = N.div_ceil(chunk) * 10;
            assert_eq!(
                report.stats.check_requests, chunks as u64,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn an_ungated_race_inside_chunks_is_detected_and_recovered() {
        for workers in [2, 3] {
            // Task 40 is mid-chunk on worker 1 either way; asleep
            // there, it leaves epoch 1 unfinished while the ungated others
            // run on through the epochs that read what it has yet to write.
            let mut w = PingPong::new(N, 8);
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

    #[test]
    fn an_injected_false_positive_recovers_exactly_once() {
        for workers in [2, 3] {
            let mut w = PingPong::new(N, 9);
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

    #[test]
    fn a_panic_mid_chunk_is_contained_and_blames_its_own_task() {
        for workers in [2, 3] {
            let mut w = PingPong::new(N, 6);
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

    /// One worker, the checker dying on the first request of the last
    /// epoch: the worker's last flush counted that epoch's eight chunk
    /// requests as sent, none was admitted, and exactly those are stranded.
    #[test]
    fn checker_death_strands_exactly_the_unadmitted_chunk_requests() {
        let err = engine(
            SpecConfig::with_workers(1).fault_plan(FaultPlan::default().checker_death_at(5)),
        )
        .execute(&PingPong::new(N, 6))
        .unwrap_err();
        assert_eq!(err, SpecError::CheckerFailed { unprocessed: 8 });
    }

    #[test]
    fn checker_death_degrades_chunked_regions_to_barriers() {
        for workers in [2, 3] {
            let mut w = PingPong::new(N, 6);
            let report = engine(
                SpecConfig::with_workers(workers)
                    .spec_distance(distance())
                    .degrade(DegradePolicy::default())
                    .fault_plan(FaultPlan::default().checker_death_at(3)),
            )
            .execute(&w)
            .unwrap();
            assert!(report.degraded, "{workers} workers");
            assert_eq!(w.result(), PingPong::sequential(N, 6));
        }
    }

    /// Worker 1 sleeps in epoch 1 far past the deadline; worker 0 runs on
    /// until its next chunk's last task would be a whole speculative range
    /// ahead and parks in the chunk gate. The region must end with the
    /// watchdog's error as soon as the sleeper wakes, not hang in the gate.
    #[test]
    fn the_watchdog_fires_while_a_worker_waits_in_a_chunk_gate() {
        let started = Instant::now();
        let err = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .spec_distance(distance())
                .fault_plan(FaultPlan::default().delay_at(1, 32, 400_000))
                .watchdog(Duration::from_millis(100)),
        )
        .execute(&PingPong::new(N, 6))
        .unwrap_err();
        assert_eq!(err, SpecError::WatchdogTimeout);
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
