//! Static check elision: proving cross-invocation accesses conflict-free.
//!
//! The SPECCROSS checker compares the access signatures of tasks that ran
//! on *different workers* in *different epochs* (docs/CHECKER.md). Both
//! facts are static properties of the Fig. 4.9 codegen: task `τ` of every
//! epoch runs on worker `(τ / K) mod W` for one region-wide chunk length
//! `K` (the engine's block-cyclic map; the thesis' `τ mod W` is `K = 1`),
//! and an epoch is `outer_iter × num_loops + loop_ordinal`. This module
//! exploits them to prove, per inner loop, that *no compared pair of tasks
//! can ever touch the same cell* — in which case the loop's tasks need no
//! signatures and no checker admission at all (the engine's "elided" fast
//! path).
//!
//! For every watched-array access of every region loop we try to resolve
//! the index to the affine form
//!
//! ```text
//! index = k + a·o + b·τ + Σ cᵥ·v
//! ```
//!
//! over the outer iteration `o`, the task number `τ` (the inner induction
//! variable shifted by the loop's constant lower bound) and region-invariant
//! symbols `v` (prefix-computed scalars: their values are fixed before the
//! region runs, hence equal across all epochs). Pure scalar assignments
//! between the region's loops are substituted through (the "privatize and
//! duplicate" environment of §4.3); a scalar whose right-hand side is not
//! affine in the outer iteration — `s = t % m` and friends — poisons every
//! index that reads it (*impure prologue*). Indirect accesses (an index
//! through a loop-variant load, or an opaque call's `may_read`/`may_write`
//! effect) have no resolvable form at all.
//!
//! Two resolved accesses `(k₁,a,b)` and `(k₂,a,b)` on the same array (at
//! least one a write, equal coefficients and symbol residues — anything
//! else is conservatively unproven) can conflict on a compared pair only if
//!
//! ```text
//! (k₁ − k₂) + a·Δo + b·Δτ = 0
//! ```
//!
//! has a solution with `Δτ ∈ [1−T₂, T₁−1] \ {0}` (compared tasks run on
//! different workers, and equal task numbers share a worker whatever the
//! epoch, hence `τ₁ ≠ τ₂`) and, for two
//! accesses of the *same* loop, `Δo ≠ 0` (same-loop tasks share an epoch
//! unless the outer iteration differs; same-epoch pairs are DOALL-verified
//! independent and never checked). If no such solution exists for any pair
//! the access — and, when all its accesses are proven, the whole loop — is
//! *proven disjoint*: skipping its checks can never change a verdict.
//!
//! The test covers the classic shapes: same-index chains (`A[τ]` every
//! epoch: a compared pair has `Δτ ≠ 0`, so the cells differ — the revisits
//! land on the *same worker* and are ordered by program order), disjoint
//! strides (`A[2τ+c]` vs `A[2τ+1−c]`: odd constant gap, even stride),
//! clustered footprints (`A[C·o + τ]`, `|Δτ| < C`), disjoint invariant
//! bases (`A[τ]` vs `A[τ+T]`), and producer/consumer loop pairs (`A[τ]`
//! written by one loop and read by the next: only `Δτ = 0` collides, which
//! is the same worker again). Everything indirect, non-affine, impure or
//! overlapping stays on the full runtime admission path.
//!
//! Soundness does **not** depend on faults, degradation, Bloom false
//! positives or rollback timing: a proven loop's checks are no-ops on every
//! schedule (they could only ever report "no conflict"), so removing them
//! never changes the verdict — only the work.

use std::collections::{BTreeMap, HashMap, HashSet};

use crossinvoc_runtime::signature::AccessKind;

use crate::analysis::{collect_accesses, loop_variant_vars, AffineForm};
use crate::ir::{ArrayId, Program, Stmt, StmtId, VarId};
use crate::transform::RegionItem;

/// Why an access could not be proven conflict-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnprovenReason {
    /// Opaque call effect or an index through a loop-variant value
    /// (`computeAddr`-style indirection).
    Indirect,
    /// The index expression is not affine (`%`, `/`, products of
    /// variables).
    NonAffine,
    /// The index reads a scalar whose inter-loop assignment is not affine
    /// in the outer iteration (the impure-prologue case, `s = t % m`).
    ImpureScalar,
    /// The loop's bounds do not resolve to compile-time constants, so the
    /// task range — and with it the set of compared pairs — is unknown.
    UnknownBounds,
    /// The loop's static trip count is zero or negative: the loop
    /// contributes no tasks and the footprint model does not apply.
    ZeroTrip,
    /// A compared pair of tasks may touch the same cell (straddling or
    /// overlapping strides, or a pair with an unresolvable partner).
    MayOverlap,
}

impl UnprovenReason {
    /// Short stable label (used by reports and tests).
    pub fn as_str(self) -> &'static str {
        match self {
            UnprovenReason::Indirect => "indirect",
            UnprovenReason::NonAffine => "non-affine",
            UnprovenReason::ImpureScalar => "impure-scalar",
            UnprovenReason::UnknownBounds => "unknown-bounds",
            UnprovenReason::ZeroTrip => "zero-trip",
            UnprovenReason::MayOverlap => "may-overlap",
        }
    }
}

/// Classification of one watched-array access site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessClass {
    /// The load/store/call statement performing the access.
    pub stmt: StmtId,
    /// Array touched.
    pub array: ArrayId,
    /// Read or write.
    pub kind: AccessKind,
    /// `None` = proven disjoint; `Some` = kept on the runtime check path.
    pub unproven: Option<UnprovenReason>,
}

impl AccessClass {
    /// Whether the access is proven conflict-free.
    pub fn proven(&self) -> bool {
        self.unproven.is_none()
    }
}

/// Per-loop elision verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopElision {
    /// The inner loop (epoch source) this verdict covers.
    pub loop_stmt: StmtId,
    /// Every watched-array access site of the loop, classified.
    pub accesses: Vec<AccessClass>,
    /// Whether *every* access is proven: the loop's tasks skip signature
    /// generation and checker admission entirely.
    pub proven: bool,
}

/// The region-level elision plan: one verdict per inner loop, in loop
/// (ordinal) order. Produced by [`crate::transform::SpecCrossPlan::build`]
/// and threaded into the engine/simulator as a per-ordinal mask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ElisionPlan {
    /// Per-loop verdicts, indexed by loop ordinal.
    pub loops: Vec<LoopElision>,
}

impl ElisionPlan {
    /// Whether loop `ordinal`'s tasks are proven conflict-free.
    pub fn loop_is_proven(&self, ordinal: usize) -> bool {
        self.loops.get(ordinal).is_some_and(|l| l.proven)
    }

    /// Per-ordinal proven mask (`mask[epoch % num_loops]` at runtime).
    pub fn proven_mask(&self) -> Vec<bool> {
        self.loops.iter().map(|l| l.proven).collect()
    }

    /// Number of access sites proven disjoint.
    pub fn proven_accesses(&self) -> usize {
        self.loops
            .iter()
            .flat_map(|l| &l.accesses)
            .filter(|a| a.proven())
            .count()
    }

    /// Total watched access sites considered.
    pub fn total_accesses(&self) -> usize {
        self.loops.iter().map(|l| l.accesses.len()).sum()
    }

    /// Whether every loop of the region is proven.
    pub fn fully_proven(&self) -> bool {
        !self.loops.is_empty() && self.loops.iter().all(|l| l.proven)
    }
}

/// Cap on the enumerated `Δτ` range of the pair test; pairs over larger
/// task ranges are conservatively unproven.
const MAX_DELTA_RANGE: i64 = 1 << 16;

/// An access index resolved against the epoch environment:
/// `k + a·o + b·τ + Σ cᵥ·v` with `τ` the 0-based task number.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Resolved {
    /// Outer-iteration coefficient.
    a: i64,
    /// Task-number coefficient.
    b: i64,
    /// Constant term (inner lower bound folded in).
    k: i64,
    /// Region-invariant symbolic residue (prefix-computed scalars).
    syms: BTreeMap<VarId, i64>,
}

/// The value a pure inter-loop scalar holds at epoch entry, as an affine
/// form over the outer IV and region-invariant symbols; `None` = the
/// assignment was not affine (poisoned — any index reading it is impure).
type ScalarEnv = HashMap<VarId, Option<AffineForm>>;

/// Substitutes `env` into `form`; `None` if a poisoned scalar is read.
fn substitute(form: &AffineForm, env: &ScalarEnv) -> Option<AffineForm> {
    let mut out = AffineForm {
        constant: form.constant,
        terms: BTreeMap::new(),
    };
    for (&v, &c) in &form.terms {
        match env.get(&v) {
            Some(Some(f)) => {
                out.constant = out.constant.checked_add(c.checked_mul(f.constant)?)?;
                for (&sv, &sc) in &f.terms {
                    let entry = out.terms.entry(sv).or_insert(0);
                    *entry = entry.checked_add(c.checked_mul(sc)?)?;
                    if *entry == 0 {
                        out.terms.remove(&sv);
                    }
                }
            }
            Some(None) => return None,
            None => {
                let entry = out.terms.entry(v).or_insert(0);
                *entry = entry.checked_add(c)?;
                if *entry == 0 {
                    out.terms.remove(&v);
                }
            }
        }
    }
    Some(out)
}

/// One loop's static context: constant bounds and the scalar environment
/// accumulated before it.
struct LoopCtx {
    iv: VarId,
    lo: i64,
    trip: i64,
    variant: HashSet<VarId>,
    env: ScalarEnv,
    bounds_known: bool,
}

/// Resolves one index expression inside loop `ctx` of the region with
/// outer IV `outer_iv`.
fn resolve_index(
    index: &crate::ir::Expr,
    ctx: &LoopCtx,
    outer_iv: VarId,
) -> Result<Resolved, UnprovenReason> {
    let form = AffineForm::of(index).ok_or(UnprovenReason::NonAffine)?;
    // Split off the inner IV before looking at variance: the IV itself is
    // the one variant term the footprint model understands.
    let b = form.coefficient(ctx.iv);
    let rest = form.without(ctx.iv);
    if rest
        .terms
        .keys()
        .any(|v| *v != outer_iv && ctx.variant.contains(v))
    {
        return Err(UnprovenReason::Indirect);
    }
    let rest = substitute(&rest, &ctx.env).ok_or(UnprovenReason::ImpureScalar)?;
    let a = rest.coefficient(outer_iv);
    let syms = rest.without(outer_iv).terms;
    // env[iv] = lo + τ: fold b·lo into the constant.
    let k = rest
        .constant
        .checked_add(b.checked_mul(ctx.lo).ok_or(UnprovenReason::NonAffine)?)
        .ok_or(UnprovenReason::NonAffine)?;
    Ok(Resolved { a, b, k, syms })
}

/// Whether a compared pair of tasks — `r1` from a loop with `t1` tasks,
/// `r2` from a loop with `t2` tasks — may touch the same cell. Compared
/// pairs have `Δτ ≠ 0` (different workers) and, when both accesses belong
/// to the same loop, `Δo ≠ 0` (different epochs of one loop differ in the
/// outer iteration).
fn pair_may_conflict(r1: &Resolved, t1: i64, r2: &Resolved, t2: i64, same_loop: bool) -> bool {
    if r1.syms != r2.syms || r1.a != r2.a || r1.b != r2.b {
        return true;
    }
    let (a, b) = (r1.a, r1.b);
    let Some(k) = r1.k.checked_sub(r2.k) else {
        return true;
    };
    // Δτ = τ₁ − τ₂ with τ₁ ∈ [0, t1), τ₂ ∈ [0, t2), τ₁ ≠ τ₂.
    let (lo, hi) = (1 - t2, t1 - 1);
    if hi.saturating_sub(lo) > MAX_DELTA_RANGE {
        return true;
    }
    for dt in lo..=hi {
        if dt == 0 {
            continue;
        }
        // Need a·Δo = −(k + b·Δτ) for some admissible Δo.
        let Some(rhs) = b
            .checked_mul(dt)
            .and_then(|v| k.checked_add(v))
            .and_then(i64::checked_neg)
        else {
            return true;
        };
        if a == 0 {
            if rhs == 0 {
                return true;
            }
        } else if rhs % a == 0 && (!same_loop || rhs / a != 0) {
            return true;
        }
    }
    false
}

/// Classifies every watched access of the region's loops. `items` is the
/// region schedule (scalars interleaved with loops, body order), `loops`
/// the epoch-source loops and `watched` the instrumented arrays — exactly
/// the fields [`crate::transform::SpecCrossPlan::build`] validated.
pub(crate) fn analyze(
    program: &Program,
    items: &[RegionItem],
    loops: &[StmtId],
    watched: &HashSet<ArrayId>,
    outer_iv: VarId,
) -> ElisionPlan {
    // Walk the schedule once, accumulating the pure-scalar environment and
    // snapshotting it (plus bounds) at each loop.
    let mut env: ScalarEnv = HashMap::new();
    let mut ctxs: Vec<LoopCtx> = Vec::with_capacity(loops.len());
    for item in items {
        match *item {
            RegionItem::Scalar(s) => {
                let Stmt::Assign { var, expr } = program.stmt(s) else {
                    unreachable!("region scalars are assignments (validated at build)");
                };
                let value = AffineForm::of(expr).and_then(|f| substitute(&f, &env));
                env.insert(*var, value);
            }
            RegionItem::Loop(l) => {
                let Stmt::For { var, from, to, .. } = program.stmt(l) else {
                    unreachable!("epoch sources are loops (validated at build)");
                };
                let bound = |e: &crate::ir::Expr| {
                    AffineForm::of(e)
                        .and_then(|f| substitute(&f, &env))
                        .filter(|f| f.terms.is_empty())
                        .map(|f| f.constant)
                };
                let (lo, hi) = (bound(from), bound(to));
                let bounds_known = lo.is_some() && hi.is_some();
                let lo = lo.unwrap_or(0);
                let trip = hi.unwrap_or(0).saturating_sub(lo);
                ctxs.push(LoopCtx {
                    iv: *var,
                    lo,
                    trip,
                    variant: loop_variant_vars(program, l),
                    env: env.clone(),
                    bounds_known,
                });
            }
        }
    }

    // Phase 1: per-access resolution.
    struct Site {
        ordinal: usize,
        class: AccessClass,
        resolved: Option<Resolved>,
    }
    let mut sites: Vec<Site> = Vec::new();
    for (ordinal, (&l, ctx)) in loops.iter().zip(&ctxs).enumerate() {
        let Stmt::For { body, .. } = program.stmt(l) else {
            unreachable!("epoch sources are loops");
        };
        for access in collect_accesses(program, body) {
            if !watched.contains(&access.array) {
                continue;
            }
            let (resolved, unproven) = if !ctx.bounds_known {
                (None, Some(UnprovenReason::UnknownBounds))
            } else if ctx.trip <= 0 {
                (None, Some(UnprovenReason::ZeroTrip))
            } else {
                match &access.index {
                    None => (None, Some(UnprovenReason::Indirect)),
                    Some(index) => match resolve_index(index, ctx, outer_iv) {
                        Ok(r) => (Some(r), None),
                        Err(reason) => (None, Some(reason)),
                    },
                }
            };
            sites.push(Site {
                ordinal,
                class: AccessClass {
                    stmt: access.stmt,
                    array: access.array,
                    kind: access.kind,
                    unproven,
                },
                resolved,
            });
        }
    }

    // Phase 2: pairwise footprint test, self-pairs included (an access
    // conflicts with its own image in other epochs unless proven). A pair
    // with an unresolvable partner poisons the resolved side too: an
    // indirect access to an array may reach any of its cells.
    for i in 0..sites.len() {
        for j in i..sites.len() {
            if sites[i].class.array != sites[j].class.array {
                continue;
            }
            if sites[i].class.kind == AccessKind::Read && sites[j].class.kind == AccessKind::Read {
                continue;
            }
            let same_loop = sites[i].ordinal == sites[j].ordinal;
            let conflict = match (&sites[i].resolved, &sites[j].resolved) {
                (Some(r1), Some(r2)) => pair_may_conflict(
                    r1,
                    ctxs[sites[i].ordinal].trip,
                    r2,
                    ctxs[sites[j].ordinal].trip,
                    same_loop,
                ),
                _ => true,
            };
            if conflict {
                for s in [i, j] {
                    if sites[s].class.unproven.is_none() {
                        sites[s].class.unproven = Some(UnprovenReason::MayOverlap);
                    }
                }
            }
        }
    }

    let mut plan = ElisionPlan {
        loops: loops
            .iter()
            .map(|&l| LoopElision {
                loop_stmt: l,
                accesses: Vec::new(),
                proven: true,
            })
            .collect(),
    };
    for site in sites {
        let entry = &mut plan.loops[site.ordinal];
        entry.proven &= site.class.proven();
        entry.accesses.push(site.class);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CallEffect, Expr, ProgramBuilder};
    use crate::transform::SpecCrossPlan;

    const fn e(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Builds the plan for the last top-level loop and returns its
    /// per-ordinal proven mask.
    fn mask(program: &Program) -> Vec<bool> {
        let outer = *program.body().last().expect("program has a region loop");
        SpecCrossPlan::build(program, outer)
            .expect("region builds")
            .elision()
            .proven_mask()
    }

    fn reasons(program: &Program) -> Vec<Option<UnprovenReason>> {
        let outer = *program.body().last().expect("program has a region loop");
        SpecCrossPlan::build(program, outer)
            .expect("region builds")
            .elision()
            .loops
            .iter()
            .flat_map(|l| l.accesses.iter().map(|a| a.unproven))
            .collect()
    }

    #[test]
    fn same_index_chain_is_proven() {
        // for t { for i { A[i] = A[i]*3 + i } }: a compared pair has
        // different task numbers, hence different cells.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 8);
        let (t, i, x) = (b.var("t"), b.var("i"), b.var("x"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.load(x, a, Expr::Var(i));
                b.store(a, Expr::Var(i), Expr::mul(Expr::Var(x), e(3)));
            });
        });
        assert_eq!(mask(&b.finish()), vec![true]);
    }

    #[test]
    fn disjoint_strides_are_proven() {
        // store A[2i], load A[2i+1]: odd gap, even stride — no compared
        // pair collides in any epoch.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 16);
        let (t, i, x) = (b.var("t"), b.var("i"), b.var("x"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(7), |b| {
                b.load(x, a, Expr::add(Expr::mul(e(2), Expr::Var(i)), e(1)));
                b.store(a, Expr::mul(e(2), Expr::Var(i)), Expr::Var(x));
            });
        });
        assert_eq!(mask(&b.finish()), vec![true]);
    }

    #[test]
    fn clustered_footprint_is_proven() {
        // store E[8t + i], i < 8: per-epoch clusters never overlap.
        let mut b = ProgramBuilder::new();
        let arr = b.array("E", 32);
        let (t, i) = (b.var("t"), b.var("i"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                let cell = Expr::add(Expr::mul(Expr::Var(t), e(8)), Expr::Var(i));
                b.store(arr, cell, Expr::Var(i));
            });
        });
        assert_eq!(mask(&b.finish()), vec![true]);
    }

    #[test]
    fn producer_consumer_pair_is_proven() {
        // Loop 0 writes A[i]; loop 1 reads A[i] and writes B[i]. Only
        // Δτ = 0 collides, which is the same worker — never compared.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 8);
        let d = b.array("B", 8);
        let (t, i, x) = (b.var("t"), b.var("i"), b.var("x"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::Var(i), Expr::add(Expr::Var(i), Expr::Var(t)));
            });
            b.for_loop(i, e(0), e(8), |b| {
                b.load(x, a, Expr::Var(i));
                b.store(d, Expr::Var(i), Expr::mul(Expr::Var(x), e(5)));
            });
        });
        assert_eq!(mask(&b.finish()), vec![true, true]);
    }

    #[test]
    fn disjoint_invariant_bases_are_proven() {
        // Loop 0 writes A[i], loop 1 writes A[i+8] (i < 8): halves never
        // meet (the required Δτ = ±8 is outside the task range).
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 16);
        let (t, i) = (b.var("t"), b.var("i"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::Var(i), Expr::Var(t));
            });
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::add(Expr::Var(i), e(8)), Expr::Var(t));
            });
        });
        assert_eq!(mask(&b.finish()), vec![true, true]);
    }

    #[test]
    fn overlapping_strides_across_loops_are_unproven() {
        // Loop 0 writes A[2i], loop 1 writes A[2i+2]: tasks τ and τ+1 of
        // different epochs collide — both loops stay checked.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 20);
        let (t, i) = (b.var("t"), b.var("i"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::mul(e(2), Expr::Var(i)), Expr::Var(t));
            });
            b.for_loop(i, e(0), e(8), |b| {
                b.store(
                    a,
                    Expr::add(Expr::mul(e(2), Expr::Var(i)), e(2)),
                    Expr::Var(t),
                );
            });
        });
        let p = b.finish();
        assert_eq!(mask(&p), vec![false, false]);
        assert!(reasons(&p)
            .iter()
            .all(|r| *r == Some(UnprovenReason::MayOverlap)));
    }

    #[test]
    fn zero_trip_loop_is_unproven() {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 8);
        let (t, i) = (b.var("t"), b.var("i"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(0), |b| {
                b.store(a, Expr::Var(i), Expr::Var(t));
            });
        });
        let p = b.finish();
        assert_eq!(mask(&p), vec![false]);
        assert_eq!(reasons(&p), vec![Some(UnprovenReason::ZeroTrip)]);
    }

    #[test]
    fn indirect_compute_addr_is_unproven_and_poisons_partners() {
        // Loop 0 writes A[i] (affine); loop 1 reads A[IDX[i]] — the
        // indirect read may touch any cell, so the write side cannot be
        // elided either.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 8);
        let d = b.array("B", 8);
        let idx = b.array("IDX", 8);
        let (t, i, v, x) = (b.var("t"), b.var("i"), b.var("v"), b.var("x"));
        b.for_loop(i, e(0), e(8), |b| {
            b.store(idx, Expr::Var(i), Expr::Var(i));
        });
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::Var(i), Expr::add(Expr::Var(i), Expr::Var(t)));
            });
            b.for_loop(i, e(0), e(8), |b| {
                b.load(v, idx, Expr::Var(i));
                b.load(x, a, Expr::Var(v));
                b.store(d, Expr::Var(i), Expr::mul(Expr::Var(x), e(3)));
            });
        });
        let p = b.finish();
        assert_eq!(mask(&p), vec![false, false]);
        let outer = *p.body().last().unwrap();
        let plan = SpecCrossPlan::build(&p, outer).unwrap();
        let flat: Vec<_> = plan
            .elision()
            .loops
            .iter()
            .flat_map(|l| &l.accesses)
            .collect();
        // A[i] write: poisoned by the indirect partner; A[IDX[i]] read:
        // indirect; B[i] write: still proven (different array).
        assert!(flat
            .iter()
            .any(|c| c.unproven == Some(UnprovenReason::MayOverlap)));
        assert!(flat
            .iter()
            .any(|c| c.unproven == Some(UnprovenReason::Indirect)));
        assert!(flat.iter().any(|c| c.proven()));
    }

    #[test]
    fn impure_prologue_scalar_is_unproven() {
        // s = t % 3 between the loops: the shifted window A[i+s] cannot be
        // resolved affinely across epochs.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 16);
        let (t, i, s, x) = (b.var("t"), b.var("i"), b.var("s"), b.var("x"));
        b.for_loop(t, e(0), e(4), |b| {
            b.assign(s, Expr::rem(Expr::Var(t), e(3)));
            b.for_loop(i, e(0), e(8), |b| {
                let at = Expr::add(Expr::Var(i), Expr::Var(s));
                b.load(x, a, at.clone());
                b.store(a, at, Expr::mul(Expr::Var(x), e(3)));
            });
        });
        let p = b.finish();
        assert_eq!(mask(&p), vec![false]);
        assert!(reasons(&p)
            .iter()
            .all(|r| *r == Some(UnprovenReason::ImpureScalar)));
    }

    #[test]
    fn pure_affine_prologue_scalar_substitutes_through() {
        // s = t*8 between the loops: A[i+s] is the clustered footprint in
        // disguise and must be proven.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 40);
        let (t, i, s) = (b.var("t"), b.var("i"), b.var("s"));
        b.for_loop(t, e(0), e(4), |b| {
            b.assign(s, Expr::mul(Expr::Var(t), e(8)));
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::add(Expr::Var(i), Expr::Var(s)), Expr::Var(t));
            });
        });
        assert_eq!(mask(&b.finish()), vec![true]);
    }

    #[test]
    fn opaque_call_write_is_indirect() {
        // A read-only loop body plus an opaque call that may write A:
        // the call's access has no index and stays checked. (The call must
        // be commutativity-free yet DOALL — use a call that only reads.)
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 8);
        let d = b.array("B", 8);
        let (t, i) = (b.var("t"), b.var("i"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.store(a, Expr::Var(i), Expr::Var(t));
            });
            b.for_loop(i, e(0), e(8), |b| {
                b.call(
                    "peek",
                    vec![Expr::Var(i)],
                    CallEffect {
                        may_read: vec![a],
                        ..CallEffect::default()
                    },
                );
                b.store(d, Expr::Var(i), Expr::Var(i));
            });
        });
        let p = b.finish();
        assert_eq!(mask(&p), vec![false, false]);
        assert!(reasons(&p).contains(&Some(UnprovenReason::Indirect)));
    }

    #[test]
    fn unknown_bounds_are_unproven() {
        // Inner bound read from a prefix-computed scalar: value unknown
        // statically, so the task range cannot be bounded.
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 64);
        let (t, i, n, x) = (b.var("t"), b.var("i"), b.var("n"), b.var("x"));
        b.assign(n, e(8));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), Expr::Var(n), |b| {
                b.load(x, a, Expr::Var(i));
                b.store(a, Expr::Var(i), Expr::mul(Expr::Var(x), e(3)));
            });
        });
        let p = b.finish();
        assert_eq!(mask(&p), vec![false]);
        assert_eq!(
            reasons(&p),
            vec![
                Some(UnprovenReason::UnknownBounds),
                Some(UnprovenReason::UnknownBounds)
            ]
        );
    }

    #[test]
    fn mixed_region_masks_only_the_proven_loop() {
        // Clustered loop on E (proven) + impure shifted loop on A
        // (unproven): the mask is per-ordinal.
        let mut b = ProgramBuilder::new();
        let arr = b.array("E", 32);
        let a = b.array("A", 16);
        let (t, i, s, x) = (b.var("t"), b.var("i"), b.var("s"), b.var("x"));
        b.for_loop(t, e(0), e(4), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                let cell = Expr::add(Expr::mul(Expr::Var(t), e(8)), Expr::Var(i));
                b.store(arr, cell, Expr::Var(i));
            });
            b.assign(s, Expr::rem(Expr::Var(t), e(4)));
            b.for_loop(i, e(0), e(8), |b| {
                let at = Expr::add(Expr::Var(i), Expr::Var(s));
                b.load(x, a, at.clone());
                b.store(a, at, Expr::mul(Expr::Var(x), e(3)));
            });
        });
        let plan_mask = mask(&b.finish());
        assert_eq!(plan_mask, vec![true, false]);
    }

    #[test]
    fn counters_count_sites_not_loops() {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 8);
        let (t, i, x) = (b.var("t"), b.var("i"), b.var("x"));
        b.for_loop(t, e(0), e(2), |b| {
            b.for_loop(i, e(0), e(8), |b| {
                b.load(x, a, Expr::Var(i));
                b.store(a, Expr::Var(i), Expr::mul(Expr::Var(x), e(3)));
            });
        });
        let p = b.finish();
        let outer = *p.body().last().unwrap();
        let plan = SpecCrossPlan::build(&p, outer).unwrap();
        assert_eq!(plan.elision().total_accesses(), 2);
        assert_eq!(plan.elision().proven_accesses(), 2);
        assert!(plan.elision().fully_proven());
    }
}
