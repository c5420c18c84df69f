//! Cross-crate integration tests: benchmark models through the real
//! threaded runtimes, the automatic driver over PIR programs, and the
//! sim/runtime consistency guarantee (both consume the same decision
//! logic, so their synchronization decisions must agree).

use crossinvoc_domore::prelude::*;
use crossinvoc_runtime::{FaultPlan, RangeSignature};
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::SpecCrossEngine;
use crossinvoc_workloads::kernel::{profile_distance, AccessKernel};
use crossinvoc_workloads::{registry, Scale};

mod support;
use support::Wide;

/// Every DOMORE benchmark of Table 5.1 executes on the real threaded
/// DOMORE runtime and reproduces the sequential checksum.
#[test]
fn all_domore_benchmarks_run_correctly_on_real_threads() {
    for info in registry().into_iter().filter(|b| b.domore) {
        let kernel = AccessKernel::from_model(info.model(Scale::Test));
        let expected = kernel.sequential_checksum();
        let report = DomoreRuntime::new(DomoreConfig::with_workers(3))
            .execute(&kernel)
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        assert_eq!(kernel.checksum(), expected, "{} diverged", info.name);
        assert!(report.stats.tasks > 0, "{}", info.name);
    }
}

/// Every SPECCROSS benchmark executes on the real speculative engine,
/// gated by its own profile, and reproduces the sequential checksum
/// without misspeculation — at every gang width, so under every chunk
/// length the kernels' shapes produce (1 to 4 tasks at this scale): a
/// chunk is gated as a whole and ships exact runs only, so neither its
/// coarser timing nor its folded signatures may cost a gated kernel a
/// rollback. The tasks carry busy work so that every pass runs on the
/// whole gang.
#[test]
fn all_speccross_benchmarks_run_correctly_on_real_threads() {
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Test);
        let distance = profile_distance(model.as_ref(), 6).min_distance;
        for workers in [2, 3, 4] {
            let kernel = Wide(AccessKernel::from_model(info.model(Scale::Test)));
            let expected = kernel.0.sequential_checksum();
            let report = SpecCrossEngine::<RangeSignature>::new(
                SpecConfig::with_workers(workers).spec_distance(distance),
            )
            .execute(&kernel)
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
            assert_eq!(kernel.0.checksum(), expected, "{} diverged", info.name);
            assert_eq!(
                report.stats.misspeculations, 0,
                "{} misspeculated on {workers} workers despite profiling",
                info.name
            );
        }
    }
}

/// The simulator and the threaded runtime share the scheduling logic, so
/// for a given model and worker count they must produce the *same*
/// synchronization conditions.
#[test]
fn simulated_and_real_domore_agree_on_synchronization_conditions() {
    for info in registry().into_iter().filter(|b| b.domore) {
        let model = info.model(Scale::Test);
        let workers = 3;
        let simulated = domore(
            model.as_ref(),
            workers,
            &mut crossinvoc_domore::policy::RoundRobin,
            &CostModel::default(),
        );
        let kernel = AccessKernel::from_model(info.model(Scale::Test));
        let real = DomoreRuntime::new(DomoreConfig::with_workers(workers))
            .execute(&kernel)
            .unwrap();
        assert_eq!(
            simulated.stats.sync_conditions, real.stats.sync_conditions,
            "{}: simulated and real scheduling disagree",
            info.name
        );
        assert_eq!(simulated.stats.tasks, real.stats.tasks, "{}", info.name);
    }
}

/// Misspeculation recovery end-to-end on a real benchmark kernel: inject a
/// conflict, verify rollback re-produces the sequential result.
#[test]
fn injected_misspeculation_recovers_on_benchmark_kernels() {
    let info = crossinvoc_workloads::registry::by_name("JACOBI");
    let model = info.model(Scale::Test);
    let distance = profile_distance(model.as_ref(), 6).min_distance;
    let kernel = Wide(AccessKernel::from_model(info.model(Scale::Test)));
    let expected = kernel.0.sequential_checksum();
    let report = SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .spec_distance(distance)
            .checkpoint_every(4)
            .fault_plan(FaultPlan::default().false_positive_at(7)),
    )
    .execute(&kernel)
    .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    assert_eq!(kernel.0.checksum(), expected);
}

/// The duplicated-scheduler variant matches the separate-scheduler result
/// on a benchmark kernel (§3.4's transformation is semantics-preserving).
#[test]
fn duplicated_scheduler_matches_separate_scheduler_on_benchmarks() {
    let info = crossinvoc_workloads::registry::by_name("CG");
    let a = AccessKernel::from_model(info.model(Scale::Test));
    let b = AccessKernel::from_model(info.model(Scale::Test));
    DomoreRuntime::new(DomoreConfig::with_workers(3))
        .execute(&a)
        .unwrap();
    DuplicatedScheduler::new(3).execute(&b).unwrap();
    assert_eq!(a.checksum(), b.checksum());
}

/// The full automatic pipeline (profile → plan → threaded execution →
/// verification) on the two flagship nest shapes.
#[test]
fn automatic_driver_parallelizes_both_nest_families() {
    use crossinvoc::driver::{AutoParallelizer, Strategy};
    use crossinvoc::pir::interp::Memory;
    use crossinvoc::pir::ir::{Expr, ProgramBuilder};

    // Stencil: far dependences → SPECCROSS.
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 48);
    let t = b.var("t");
    let i = b.var("i");
    let x = b.var("x");
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(12), |b| {
        b.for_loop(i, Expr::Const(0), Expr::Const(48), |b| {
            b.load(x, a, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::add(Expr::Var(x), Expr::Var(t)));
        });
    });
    let p = b.finish();
    let decision = AutoParallelizer::new(3).plan(&p, outer).unwrap();
    assert_eq!(decision.strategy(), Strategy::SpecCross);
    let mut mem = Memory::zeroed(&p);
    decision.execute(&mut mem).unwrap();
    let mut expected = Memory::zeroed(&p);
    decision.execute_sequential(&mut expected);
    assert_eq!(mem.snapshot(), expected.snapshot());
}

/// A nest `pir::elide` proves conflict-free still runs every wide task
/// through the checker: run through `AutoParallelizer`, its wide passes
/// file check requests, and memory ends identical to the independent
/// sequential oracle.
#[test]
fn automatic_driver_checks_a_provable_nest_at_run_time() {
    use crossinvoc::driver::{AutoParallelizer, Strategy};
    use crossinvoc::pir::interp::Memory;
    use crossinvoc::pir::ir::{Expr, ProgramBuilder};
    use crossinvoc_fuzz::oracle::run_oracle;

    // A[i] += t over a fixed range: task i of every epoch touches only
    // cell i, the affine shape `pir::elide` proves for every epoch. The
    // increment is spelled as t plus 512 terms (t - t), which gives each
    // task microseconds of interpreted work, enough for the pass to run
    // wide; a narrow pass admits nothing.
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 48);
    let t = b.var("t");
    let i = b.var("i");
    let x = b.var("x");
    let increment = (0..512).fold(Expr::Var(t), |sum, _| {
        Expr::add(sum, Expr::sub(Expr::Var(t), Expr::Var(t)))
    });
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(12), |b| {
        b.for_loop(i, Expr::Const(0), Expr::Const(48), |b| {
            b.load(x, a, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::add(Expr::Var(x), increment));
        });
    });
    let p = b.finish();
    let proof = crossinvoc::pir::SpecCrossPlan::build(&p, outer).unwrap();
    assert!(proof.elision().fully_proven(), "the nest is provable");
    let decision = AutoParallelizer::new(3).plan(&p, outer).unwrap();
    assert_eq!(decision.strategy(), Strategy::SpecCross);
    let mut mem = Memory::zeroed(&p);
    let report = decision.execute(&mut mem).unwrap();
    assert!(
        report.stats.wide_passes > 0,
        "tasks this long run wide: {:?}",
        report.stats
    );
    assert!(
        report.stats.check_requests > 0,
        "a proof does not exempt a wide pass from the checker: {:?}",
        report.stats
    );
    assert_eq!(report.stats.misspeculations, 0);
    assert!(!report.degraded);
    let oracle = run_oracle(&p).expect("the oracle terminates");
    assert_eq!(mem.snapshot(), oracle);
}

/// SPECCROSS beats the barrier plan on a barrier-bound workload in the
/// simulator — the thesis' core performance claim, checked as an invariant
/// rather than a number.
#[test]
fn speccross_beats_barriers_on_barrier_bound_workloads() {
    for name in ["JACOBI", "LLUBENCH", "LOOPDEP"] {
        let info = crossinvoc_workloads::registry::by_name(name);
        let model = info.model(Scale::Figure);
        let cost = CostModel::default();
        let seq = sequential(model.as_ref(), &cost).total_ns;
        let bar = barrier(model.as_ref(), 16, &cost).speedup_over(seq);
        // LLUBENCH's profile is clean, but only out to the 6 epochs it
        // looked back over: gate at that horizon rather than run ungated.
        let range = profile_distance(model.as_ref(), 6).speculative_range();
        let params = SpecSimParams::with_threads(15).spec_distance(Some(range));
        let spec = speccross(model.as_ref(), &params, &cost).speedup_over(seq);
        assert!(
            spec > bar,
            "{name}: SPECCROSS {spec:.2}x must beat barriers {bar:.2}x"
        );
    }
}
