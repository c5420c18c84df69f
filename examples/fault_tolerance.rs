//! Fault tolerance: inject failures into a speculative region and watch it
//! recover, degrade, or fail with a typed error — never hang.
//!
//! Exercises the deterministic fault-injection harness
//! (`crossinvoc::runtime::fault::FaultPlan`) against the threaded SPECCROSS
//! engine: a contained worker panic, a contained checker death, a
//! misspeculation storm under a degradation policy, and the typed-error
//! paths for malformed configurations and unabsorbable faults.
//!
//! Run with: `cargo run --example fault_tolerance`

use std::time::Duration;

use crossinvoc::runtime::fault::FaultPlan;
use crossinvoc::runtime::{RangeSignature, SharedSlice};
use crossinvoc::speccross::prelude::*;

/// Task `t` of every epoch increments cell `t`: the sequential reference is
/// `epochs` in every cell, and a clean run never misspeculates.
struct Grid {
    data: SharedSlice<u64>,
    epochs: usize,
}

impl Grid {
    fn new(n: usize, epochs: usize) -> Self {
        Self {
            data: SharedSlice::from_vec(vec![0; n]),
            epochs,
        }
    }

    fn cells(&self) -> Vec<u64> {
        (0..self.data.len())
            .map(|i| unsafe { self.data.read(i) })
            .collect()
    }
}

impl SpecWorkload for Grid {
    type State = Vec<u64>;

    fn num_epochs(&self) -> usize {
        self.epochs
    }
    fn num_tasks(&self, _epoch: usize) -> usize {
        self.data.len()
    }
    fn execute_task(&self, _epoch: usize, task: usize, _tid: usize, rec: &mut dyn AccessRecorder) {
        rec.write(task);
        // SAFETY: same-epoch tasks write disjoint cells; cross-epoch
        // revisits of a cell are ordered by the engine.
        unsafe { self.data.update(task, |v| *v += 1) };
    }
    fn snapshot(&self) -> Self::State {
        self.cells()
    }
    fn restore(&self, state: &Self::State) {
        for (i, v) in state.iter().enumerate() {
            unsafe { self.data.write(i, *v) };
        }
    }
}

fn engine(config: SpecConfig) -> SpecCrossEngine {
    SpecCrossEngine::<RangeSignature>::new(config.watchdog(Duration::from_secs(30)))
}

fn main() {
    let (n, epochs) = (16usize, 10usize);
    let reference = vec![epochs as u64; n];

    // --- 1. A worker panic mid-region is contained: the engine rolls back
    //        to the last checkpoint and re-executes under real barriers.
    let w = Grid::new(n, epochs);
    let report = engine(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .fault_plan(FaultPlan::default().worker_panic_at(4, 7)),
    )
    .execute(&w)
    .expect("a single worker panic must be absorbed");
    assert_eq!(w.cells(), reference);
    println!(
        "worker panic at epoch 4, task 7: absorbed, contained faults {:?}, state correct",
        report.contained_faults
    );

    // --- 2. Losing the checker: workers admit their own signatures, so an
    //        injected checker death is a panic at an admission, contained
    //        like any panic outside a task body.
    let w = Grid::new(n, epochs);
    let report = engine(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .fault_plan(FaultPlan::default().checker_death_at(3)),
    )
    .execute(&w)
    .expect("a checker death must be absorbed");
    assert!(!report.degraded);
    assert_eq!(w.cells(), reference);
    println!(
        "checker death at epoch 3: absorbed, contained faults {:?}, state correct",
        report.contained_faults
    );

    // --- 3. A storm of false positives under a degradation policy: the
    //        region finishes under plain barriers and says so.
    let w = Grid::new(n, epochs);
    let report = engine(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .fault_plan(FaultPlan::default().false_positive_storm(32))
            .degrade(DegradePolicy::default()),
    )
    .execute(&w)
    .expect("a misspeculation storm degrades under a policy");
    assert!(report.degraded, "the report must flag the downgrade");
    assert_eq!(w.cells(), reference);
    println!(
        "false-positive storm: degraded to barriers at epoch {:?}, state correct",
        report.degraded_at_epoch
    );

    // --- 4. Malformed configurations are reportable too.
    let err = engine(SpecConfig::with_workers(2).checkpoint_every(0))
        .execute(&Grid::new(n, epochs))
        .expect_err("a zero checkpoint interval is invalid");
    println!("checkpoint_every(0): {err}");

    // --- 5. The same seeded plan replays identically: run a randomized
    //        plan twice and compare outcomes.
    let plan = FaultPlan::random(42, epochs as u32, n as u64, 2);
    let run = |plan: FaultPlan| {
        let w = Grid::new(n, epochs);
        let out = engine(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(plan)
                .degrade(DegradePolicy::default()),
        )
        .execute(&w);
        (
            out.map(|r| (r.degraded, r.stats.misspeculations)),
            w.cells(),
        )
    };
    let (a, cells_a) = run(plan.clone());
    let (b, cells_b) = run(plan);
    assert_eq!(a, b, "seeded plans are deterministic");
    assert_eq!(cells_a, cells_b);
    println!("seeded plan (seed 42) replayed identically: {a:?}");

    // --- 6. The watchdog turns would-be hangs into errors: stall the
    //        checker far past a short deadline and the region still ends.
    let w = Grid::new(n, epochs);
    let err = SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .fault_plan(FaultPlan::default().checker_stall_at(1, 60_000))
            .watchdog(Duration::from_millis(250)),
    )
    .execute(&w)
    .expect_err("a 60s stall against a 250ms deadline must time out");
    assert_eq!(err, SpecError::WatchdogTimeout);
    println!("60s checker stall vs 250ms watchdog: {err}");

    println!("fault tolerance example passed");
}
