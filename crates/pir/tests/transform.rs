//! End-to-end validation of the automatic transformations: PIR programs
//! are parallelized by `DomorePlan`/`SpecCrossPlan` and executed on the
//! *real* threaded runtimes; the resulting memory must be byte-identical to
//! sequential interpretation.

use crossinvoc_pir::interp::Memory;
use crossinvoc_pir::ir::{CallEffect, Expr, Program, ProgramBuilder, StmtId};
use crossinvoc_pir::transform::{DomorePlan, SpecCrossPlan, TransformError};
use crossinvoc_runtime::FaultPlan;
use crossinvoc_speccross::engine::SpecConfig;

/// Builds the CG-style nest of Fig. 3.1: irregular inner bounds read from
/// arrays, inner loop updating `C[j]` — DOALL inner, dependence-laden
/// outer. Returns (program, outer, inner).
fn cg_nest(rows: usize, cells: usize) -> (Program, StmtId, StmtId) {
    let mut b = ProgramBuilder::new();
    let starts = b.array("starts", rows);
    let ends = b.array("ends", rows);
    let c = b.array("C", cells);
    let i = b.var("i");
    let j = b.var("j");
    let start = b.var("start");
    let end = b.var("end");
    let t = b.var("t");
    let k = b.var("k");
    // Initialize irregular (overlapping) row extents:
    // starts[i] = (i*3) % cells, ends[i] = starts[i] + 5 (clamped).
    b.for_loop(k, Expr::Const(0), Expr::Const(rows as i64), |b| {
        let s = Expr::rem(
            Expr::mul(Expr::Var(k), Expr::Const(3)),
            Expr::Const(cells as i64),
        );
        b.store(starts, Expr::Var(k), s.clone());
        let e = Expr::add(s, Expr::Const(5));
        b.store(
            ends,
            Expr::Var(k),
            // min(e, cells) via e - (e >= cells) * (e - cells)
            Expr::sub(
                e.clone(),
                Expr::mul(
                    Expr::sub(
                        Expr::Const(1),
                        Expr::lt(e.clone(), Expr::Const(cells as i64)),
                    ),
                    Expr::sub(e, Expr::Const(cells as i64)),
                ),
            ),
        );
    });
    let mut inner = StmtId(0);
    let outer = b.for_loop(i, Expr::Const(0), Expr::Const(rows as i64), |b| {
        b.load(start, starts, Expr::Var(i));
        b.load(end, ends, Expr::Var(i));
        inner = b.for_loop(j, Expr::Var(start), Expr::Var(end), |b| {
            b.load(t, c, Expr::Var(j));
            b.store(
                c,
                Expr::Var(j),
                Expr::add(Expr::mul(Expr::Var(t), Expr::Const(31)), Expr::Const(7)),
            );
        });
    });
    (b.finish(), outer, inner)
}

#[test]
fn domore_plan_matches_sequential_on_cg_nest() {
    let (p, outer, inner) = cg_nest(24, 32);
    let plan = DomorePlan::build(&p, outer, inner).expect("CG nest is DOMORE-able");
    let mut reference = Memory::zeroed(&p);
    plan.execute_sequential(&mut reference);
    for workers in [1, 2, 4] {
        let mut mem = Memory::zeroed(&p);
        let report = plan.execute(&mut mem, workers).unwrap();
        assert_eq!(
            mem.snapshot(),
            reference.snapshot(),
            "{workers} workers diverged"
        );
        assert!(report.stats.tasks > 0);
        assert_eq!(report.stats.epochs, 24);
    }
}

#[test]
fn domore_plan_generates_sync_conditions_for_overlapping_rows() {
    let (p, outer, inner) = cg_nest(24, 32);
    let plan = DomorePlan::build(&p, outer, inner).unwrap();
    let mut mem = Memory::zeroed(&p);
    let report = plan.execute(&mut mem, 3).unwrap();
    // Rows overlap (stride 3, extent 5), so cross-invocation conflicts are
    // real and round-robin assignment must synchronize some of them.
    assert!(
        report.stats.sync_conditions > 0,
        "overlapping rows must produce synchronization conditions"
    );
}

#[test]
fn domore_plan_exposes_partition_and_slice() {
    let (p, outer, inner) = cg_nest(8, 16);
    let plan = DomorePlan::build(&p, outer, inner).unwrap();
    assert!(
        plan.slice().stmts.is_empty(),
        "C[j] addressing needs only j"
    );
    assert_eq!(plan.slice().targets.len(), 2, "load and store of C[j]");
    assert!(!plan.partition().worker.is_empty());
    assert!(!plan.partition().scheduler.is_empty());
}

/// The Fig. 4.1 pathology: the inner loop's index array is written by the
/// region itself, so `computeAddr` cannot run ahead and DOMORE must refuse.
#[test]
fn domore_plan_rejects_region_written_index_arrays() {
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 16);
    let idx = b.array("idx", 16);
    let i = b.var("i");
    let j = b.var("j");
    let k = b.var("k");
    let mut inner = StmtId(0);
    let outer = b.for_loop(i, Expr::Const(0), Expr::Const(4), |b| {
        // The prologue reshuffles the index array the inner loop uses.
        b.store(idx, Expr::rem(Expr::Var(i), Expr::Const(16)), Expr::Var(i));
        inner = b.for_loop(j, Expr::Const(0), Expr::Const(16), |b| {
            b.load(k, idx, Expr::Var(j));
            b.store(a, Expr::Var(k), Expr::Var(j));
        });
    });
    let p = b.finish();
    let err = DomorePlan::build(&p, outer, inner).unwrap_err();
    assert!(
        matches!(
            err,
            TransformError::Slice(_)
                | TransformError::PrologueConflictsWithWorkers(_)
                | TransformError::InnerBodyOnScheduler(_)
        ),
        "got {err:?}"
    );
}

#[test]
fn domore_plan_rejects_non_loop_inputs() {
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 4);
    let s = b.store(a, Expr::Const(0), Expr::Const(1));
    let i = b.var("i");
    let l = b.for_loop(i, Expr::Const(0), Expr::Const(2), |_| {});
    let p = b.finish();
    assert_eq!(
        DomorePlan::build(&p, s, l).unwrap_err(),
        TransformError::NotALoop(s)
    );
}

/// Builds the Fig. 1.3 / Fig. 4.2 two-loop region: L1 writes A from B,
/// L2 writes B from A, repeated `steps` times. Returns (program, outer).
fn two_loop_region(steps: usize, n: usize) -> (Program, StmtId) {
    let mut b = ProgramBuilder::new();
    let a = b.array("A", n + 1);
    let arr_b = b.array("B", n + 1);
    let t = b.var("t");
    let i = b.var("i");
    let j = b.var("j");
    let x = b.var("x");
    let y = b.var("y");
    let init = b.var("init");
    b.for_loop(init, Expr::Const(0), Expr::Const(n as i64 + 1), |b| {
        b.store(arr_b, Expr::Var(init), Expr::Var(init));
    });
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(steps as i64), |b| {
        // L1: A[i] = f(B[i], B[i+1])
        b.for_loop(i, Expr::Const(0), Expr::Const(n as i64), |b| {
            b.load(x, arr_b, Expr::Var(i));
            b.load(y, arr_b, Expr::add(Expr::Var(i), Expr::Const(1)));
            b.store(
                a,
                Expr::Var(i),
                Expr::add(
                    Expr::mul(Expr::Var(x), Expr::Const(3)),
                    Expr::mul(Expr::Var(y), Expr::Const(5)),
                ),
            );
        });
        // L2: B[j] = g(A[j-1], A[j])
        b.for_loop(j, Expr::Const(1), Expr::Const(n as i64 + 1), |b| {
            b.load(x, a, Expr::sub(Expr::Var(j), Expr::Const(1)));
            b.load(y, a, Expr::rem(Expr::Var(j), Expr::Const(n as i64)));
            b.store(
                arr_b,
                Expr::Var(j),
                Expr::add(Expr::Var(x), Expr::mul(Expr::Var(y), Expr::Const(7))),
            );
        });
    });
    (b.finish(), outer)
}

#[test]
fn speccross_plan_matches_sequential_on_two_loop_region() {
    let (p, outer) = two_loop_region(8, 24);
    let plan = SpecCrossPlan::build(&p, outer).expect("region is SPECCROSS-able");
    assert_eq!(plan.epoch_loops().len(), 2);

    let mut reference = Memory::zeroed(&p);
    plan.execute_sequential(&mut reference);

    // Profile on a fresh (training) memory, then execute gated.
    let mut training = Memory::zeroed(&p);
    let profile = plan.profile(&mut training, 4);
    assert!(profile.min_distance.is_some(), "the stencil must conflict");

    for workers in [1, 2, 3] {
        let mut mem = Memory::zeroed(&p);
        let report = plan
            .execute(
                &mut mem,
                SpecConfig::with_workers(workers).spec_distance(profile.min_distance),
            )
            .unwrap();
        assert_eq!(
            mem.snapshot(),
            reference.snapshot(),
            "{workers} workers diverged"
        );
        assert_eq!(
            report.stats.misspeculations, 0,
            "gated run never rolls back"
        );
        assert_eq!(report.stats.epochs, 16);
    }
}

#[test]
fn speccross_plan_recovers_from_injected_misspeculation() {
    let (p, outer) = two_loop_region(6, 16);
    let plan = SpecCrossPlan::build(&p, outer).unwrap();
    let mut reference = Memory::zeroed(&p);
    plan.execute_sequential(&mut reference);

    let mut training = Memory::zeroed(&p);
    let d = plan.profile(&mut training, 4).min_distance;

    let mut mem = Memory::zeroed(&p);
    let report = plan
        .execute(
            &mut mem,
            SpecConfig::with_workers(2)
                .spec_distance(d)
                .fault_plan(FaultPlan::default().false_positive_at(5)),
        )
        .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    assert_eq!(mem.snapshot(), reference.snapshot());
}

#[test]
fn speccross_plan_rejects_dependent_inner_loops() {
    // Inner loop with a genuine cross-iteration dependence (prefix sum).
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 8);
    let t = b.var("t");
    let i = b.var("i");
    let x = b.var("x");
    let y = b.var("y");
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(3), |b| {
        b.for_loop(i, Expr::Const(1), Expr::Const(8), |b| {
            b.load(x, a, Expr::sub(Expr::Var(i), Expr::Const(1)));
            b.load(y, a, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::add(Expr::Var(x), Expr::Var(y)));
        });
    });
    let p = b.finish();
    assert!(matches!(
        SpecCrossPlan::build(&p, outer).unwrap_err(),
        TransformError::InnerNotParallelizable(_)
    ));
}

#[test]
fn speccross_plan_rejects_impure_region_code() {
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 8);
    let t = b.var("t");
    let i = b.var("i");
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(3), |b| {
        // A store between the parallel loops cannot be privatized.
        b.store(a, Expr::Const(0), Expr::Var(t));
        b.for_loop(i, Expr::Const(0), Expr::Const(8), |b| {
            b.call("work", vec![Expr::Var(i)], CallEffect::default());
        });
    });
    let p = b.finish();
    assert!(matches!(
        SpecCrossPlan::build(&p, outer).unwrap_err(),
        TransformError::RegionPrologueNotPure(_)
    ));
}

#[test]
fn speccross_plan_rejects_empty_regions() {
    let mut b = ProgramBuilder::new();
    let t = b.var("t");
    let x = b.var("x");
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(3), |b| {
        b.assign(x, Expr::Var(t));
    });
    let p = b.finish();
    assert_eq!(
        SpecCrossPlan::build(&p, outer).unwrap_err(),
        TransformError::EmptyRegion
    );
}

#[test]
fn speccross_plan_handles_scalar_prologues_between_loops() {
    // Scalar assignments feeding the second loop's bound.
    let mut b = ProgramBuilder::new();
    let a = b.array("A", 16);
    let t = b.var("t");
    let i = b.var("i");
    let bound = b.var("bound");
    let x = b.var("x");
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(4), |b| {
        b.for_loop(i, Expr::Const(0), Expr::Const(8), |b| {
            b.load(x, a, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::add(Expr::Var(x), Expr::Const(1)));
        });
        b.assign(
            bound,
            Expr::add(Expr::rem(Expr::Var(t), Expr::Const(8)), Expr::Const(8)),
        );
        b.for_loop(i, Expr::Const(8), Expr::Var(bound), |b| {
            b.store(a, Expr::Var(i), Expr::Var(t));
        });
    });
    let p = b.finish();
    let plan = SpecCrossPlan::build(&p, outer).unwrap();
    let mut reference = Memory::zeroed(&p);
    plan.execute_sequential(&mut reference);
    let mut mem = Memory::zeroed(&p);
    plan.execute(&mut mem, SpecConfig::with_workers(2)).unwrap();
    assert_eq!(mem.snapshot(), reference.snapshot());
}
