//! Delta-debugging: shrinks a diverging case to a minimal counterexample.
//!
//! The shrinker is a greedy fixed-point loop over structural reductions,
//! each of which strictly simplifies the case:
//!
//! 1. drop individual fault specs;
//! 2. collapse engine knobs (workers → 1, checkpoint interval → 1, Bloom →
//!    Range signatures, distance gating and degradation off, task grain →
//!    0);
//! 3. drop individual statements (whole subtrees) anywhere in the program;
//! 4. bisect constant `for` trip counts toward the loop's lower bound.
//!
//! A candidate is kept when the caller's predicate still holds for it —
//! for real counterexamples, "some engine path still diverges from the
//! oracle" ([`still_diverges`]). Candidates whose program the oracle
//! rejects are never kept, so a minimized case is always a *valid*
//! program. The loop stops at a fixed point or when the candidate budget
//! runs out (divergent cases can be slow; the budget bounds total work).

use std::collections::HashSet;

use crossinvoc_pir::ir::{Expr, Program, ProgramBuilder, Stmt, StmtId};
use crossinvoc_runtime::FaultPlan;

use crate::diff::run_case;
use crate::gen::{FuzzCase, SigKind};
use crate::oracle::run_oracle;

/// Default candidate budget for [`minimize`].
pub const DEFAULT_BUDGET: usize = 400;

/// The real-counterexample predicate: the case still makes some engine
/// path diverge from the oracle. Oracle rejections do not count — a
/// shrink that breaks the program's validity is not a smaller failure.
pub fn still_diverges(case: &FuzzCase) -> bool {
    match run_case(case).divergence {
        Some(d) => d.path != "oracle",
        None => false,
    }
}

/// Shrinks `case` while [`still_diverges`] holds, with the default
/// candidate budget. Returns the case unchanged if it does not diverge.
pub fn minimize(case: &FuzzCase) -> FuzzCase {
    minimize_with(case, DEFAULT_BUDGET, &mut still_diverges)
}

/// Shrinks `case` while `fails` keeps returning `true`, evaluating at most
/// `budget` candidates. The predicate is also consulted once up front: if
/// the original case does not fail, it is returned untouched.
pub fn minimize_with(
    case: &FuzzCase,
    mut budget: usize,
    fails: &mut dyn FnMut(&FuzzCase) -> bool,
) -> FuzzCase {
    if !fails(case) {
        return case.clone();
    }
    let mut best = case.clone();

    // One accepted candidate restarts the pass (statement ids change when
    // the program is rebuilt); a full pass with no acceptance is the fixed
    // point.
    'outer: loop {
        for candidate in candidates(&best) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if run_oracle(&candidate.program).is_err() {
                continue;
            }
            if fails(&candidate) {
                best = candidate;
                continue 'outer;
            }
        }
        break;
    }
    best.note = format!("minimized: {}", case.note);
    best
}

/// Enumerates every single-step reduction of `case`, simplest first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();

    // 1. Fault-spec drops.
    let specs = case.faults.specs();
    for i in 0..specs.len() {
        let mut kept = specs.to_vec();
        kept.remove(i);
        let mut c = case.clone();
        c.faults = FaultPlan::from_specs(kept);
        out.push(c);
    }

    // 2. Knob collapses.
    if case.workers > 1 {
        let mut c = case.clone();
        c.workers = 1;
        out.push(c);
    }
    if case.checkpoint_every > 1 {
        let mut c = case.clone();
        c.checkpoint_every = 1;
        out.push(c);
    }
    if case.signature == SigKind::Bloom {
        let mut c = case.clone();
        c.signature = SigKind::Range;
        out.push(c);
    }
    if case.gate_distance {
        let mut c = case.clone();
        c.gate_distance = false;
        out.push(c);
    }
    if case.degrade {
        let mut c = case.clone();
        c.degrade = false;
        out.push(c);
    }
    if case.task_grain_ns > 0 {
        let mut c = case.clone();
        c.task_grain_ns = 0;
        out.push(c);
    }

    // 3. Statement drops — every subtree root in the program.
    for id in case.program.subtrees(case.program.body()) {
        let mut drop = HashSet::new();
        drop.insert(id);
        let mut c = case.clone();
        c.program = rebuild(&case.program, &drop, &[]);
        out.push(c);
    }

    // 4. Trip bisection on constant-bound loops.
    for id in case.program.subtrees(case.program.body()) {
        let Stmt::For { from, to, .. } = case.program.stmt(id) else {
            continue;
        };
        let (Expr::Const(f), Expr::Const(t)) = (from, to) else {
            continue;
        };
        if t - f > 1 {
            let mid = f + (t - f) / 2;
            let mut c = case.clone();
            c.program = rebuild(&case.program, &HashSet::new(), &[(id, mid)]);
            out.push(c);
        }
    }

    out
}

/// Re-emits `program` through a fresh [`ProgramBuilder`], skipping the
/// subtrees rooted in `drop` and overriding the `to` bound of the listed
/// loops. Declarations are reproduced in order, so `VarId`/`ArrayId`
/// values carry over unchanged.
fn rebuild(program: &Program, drop: &HashSet<StmtId>, trips: &[(StmtId, i64)]) -> Program {
    let mut b = ProgramBuilder::new();
    for decl in program.arrays() {
        b.array(&decl.name, decl.len);
    }
    for name in program.vars() {
        b.var(name);
    }
    emit(&mut b, program, program.body(), drop, trips);
    b.finish()
}

fn emit(
    b: &mut ProgramBuilder,
    program: &Program,
    ids: &[StmtId],
    drop: &HashSet<StmtId>,
    trips: &[(StmtId, i64)],
) {
    for &id in ids {
        if drop.contains(&id) {
            continue;
        }
        match program.stmt(id) {
            Stmt::Assign { var, expr } => {
                b.assign(*var, expr.clone());
            }
            Stmt::Load { var, array, index } => {
                b.load(*var, *array, index.clone());
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                b.store(*array, index.clone(), value.clone());
            }
            Stmt::Call { name, args, effect } => {
                b.call(name, args.clone(), effect.clone());
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                b.if_else(
                    cond.clone(),
                    |b| emit(b, program, then_body, drop, trips),
                    |b| emit(b, program, else_body, drop, trips),
                );
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let to = trips
                    .iter()
                    .find(|&&(t, _)| t == id)
                    .map_or_else(|| to.clone(), |&(_, v)| Expr::Const(v));
                b.for_loop(*var, from.clone(), to, |b| {
                    emit(b, program, body, drop, trips);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};

    /// Synthetic failure: the program still writes array "A" somewhere.
    /// The minimizer should strip the case down to (almost) nothing but
    /// one such store, with every knob collapsed and faults gone.
    fn writes_a(case: &FuzzCase) -> bool {
        let a = case.program.arrays().iter().position(|d| d.name == "A");
        let Some(a) = a else { return false };
        case.program
            .subtrees(case.program.body())
            .iter()
            .any(|&id| matches!(case.program.stmt(id), Stmt::Store { array, .. } if array.0 == a))
    }

    #[test]
    fn shrinks_to_a_small_core_under_a_synthetic_predicate() {
        // Pick a spec-family seed (has an array "A") with non-trivial size.
        let params = GenParams::default();
        let case = (0..50)
            .map(|s| generate(s, &params))
            .find(|c| writes_a(c) && c.workers > 1 && !c.faults.is_empty())
            .expect("some seed yields a multi-worker faulty case writing A");

        let min = minimize_with(&case, 2000, &mut writes_a);
        assert!(writes_a(&min), "the failure must be preserved");
        assert_eq!(min.workers, 1);
        assert_eq!(min.checkpoint_every, 1);
        assert!(min.faults.is_empty(), "irrelevant faults must be dropped");
        assert!(
            min.program.num_stmts() < case.program.num_stmts(),
            "program must shrink ({} -> {})",
            case.program.num_stmts(),
            min.program.num_stmts()
        );
        // The oracle still accepts the minimized program.
        run_oracle(&min.program).unwrap();
    }

    #[test]
    fn non_failing_cases_are_returned_unchanged() {
        let case = generate(1, &GenParams::default());
        let min = minimize_with(&case, 100, &mut |_| false);
        assert_eq!(min.program, case.program);
        assert_eq!(min.note, case.note);
    }

    #[test]
    fn rebuild_is_identity_with_no_reductions() {
        for seed in 0..20 {
            let case = generate(seed, &GenParams::default());
            let same = rebuild(&case.program, &HashSet::new(), &[]);
            assert_eq!(same, case.program, "seed {seed}");
        }
    }
}
