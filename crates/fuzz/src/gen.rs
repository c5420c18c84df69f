//! Seeded generation of random PIR loop nests and fault schedules.
//!
//! Every case derives from one `u64` master seed through
//! [`crossinvoc_runtime::hash::SplitMix64`] sub-streams, so a seed
//! reproduces the program, the fault plan, and every engine knob exactly.
//!
//! The grammar generates two families:
//!
//! * **Spec-friendly regions** — an outer loop whose body is optional pure
//!   scalar assignments plus 1–3 DOALL inner loops, drawing per-loop
//!   dependence patterns from: same-index read-modify-write (`A[i]`),
//!   invariant-shifted windows (`A[i+s]` with `s` recomputed per
//!   invocation), disjoint strides (`A[2i+c]` written, `A[2i+1−c]` read),
//!   producer/consumer loop pairs (`A[i]` written by one loop, read by the
//!   next), indirect reads through an index array (`D2[IDX[i]]`), and
//!   half-split wide spans (`A[i]` read, `A[i+trip]` written — every task's
//!   signature spans `trip + 1` addresses). All
//!   are accepted by `SpecCrossPlan::build`; single-loop shapes are also
//!   accepted by `DomorePlan::build`, so those cases run through every
//!   engine path.
//! * **DOMORE-only nests** — a prologue `load` (impure for SPECCROSS's
//!   region test) feeding overlapping iteration windows, optionally with a
//!   loop-carried store (`C[j+1]`) or indirect addressing through a
//!   read-only index array (the `computeAddr` slice pattern).
//!
//! A separate elision sub-stream can override a spec-friendly region with
//! one of two static-elision families: **cluster-disjoint** (every loop
//! writes per-epoch address clusters of a private array — `pir::elide`
//! proves the whole region, so elision retires every check) and **mixed**
//! (a proven cluster loop interleaved with a producer and an indirect
//! consumer the analysis must refuse to prove). The override rides its own
//! SplitMix64 stream so pre-elision corpus seeds keep their programs.
//!
//! Index expressions are kept structurally in-bounds (lengths are computed
//! from the chosen trip counts and shifts), so any out-of-bounds access
//! reported by the [`crate::oracle`] is a generator bug and is surfaced as
//! a divergence. Stored values always have the form `x*K + h(i, t)` with
//! odd `K ≥ 3`: compositions of such maps do not commute, so executing
//! conflicting accesses in the wrong order changes the final memory image.

use crossinvoc_pir::ir::{Expr, Program, ProgramBuilder, Stmt, StmtId};
use crossinvoc_runtime::hash::SplitMix64;
use crossinvoc_runtime::FaultPlan;
use crossinvoc_speccross::WIDE_TASK_NS;

/// Access-signature kind a case runs the SPECCROSS paths with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// Exact interval signatures: no false conflicts.
    Range,
    /// Bloom-filter signatures: false positives possible (and must be
    /// absorbed by rollback without changing the final state).
    Bloom,
}

impl SigKind {
    /// The corpus-format token.
    pub fn as_str(self) -> &'static str {
        match self {
            SigKind::Range => "range",
            SigKind::Bloom => "bloom",
        }
    }
}

/// Generator bounds. The defaults keep single-case runtime in the low
/// milliseconds while still covering multi-epoch, multi-worker schedules.
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Maximum outer-loop trip count (invocations / epochs).
    pub max_outer: u64,
    /// Maximum inner-loop trip count (tasks per epoch).
    pub max_tasks: u64,
    /// Maximum worker threads.
    pub max_workers: u64,
    /// Percent of cases that carry a non-empty fault plan.
    pub fault_percent: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        Self {
            max_outer: 6,
            max_tasks: 10,
            max_workers: 4,
            fault_percent: 50,
        }
    }
}

/// One generated differential-testing case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Master seed the case derives from (printed in every failure).
    pub seed: u64,
    /// Worker threads for every engine path.
    pub workers: usize,
    /// SPECCROSS checkpoint interval in epochs.
    pub checkpoint_every: usize,
    /// Signature kind for the SPECCROSS paths.
    pub signature: SigKind,
    /// Whether to gate speculation by the profiled minimum dependence
    /// distance (the paper's deployment mode) or leave it ungated.
    pub gate_distance: bool,
    /// Whether SPECCROSS runs with a degradation policy installed.
    pub degrade: bool,
    /// Whether the threaded SPECCROSS paths run with static check elision
    /// enabled ([`crossinvoc_speccross::engine::SpecConfig::elide`]). The
    /// dedicated `spec-elide` diff lane runs regardless; this
    /// knob additionally turns elision on inside every other SPECCROSS
    /// path, so elision is exercised under faults, degradation and
    /// shared-pool pairing too.
    pub elide: bool,
    /// Busy work per SPECCROSS task, in nanoseconds
    /// ([`crossinvoc_pir::SpecCrossPlan::task_grain`]). Nonzero grains are
    /// long enough for every pass to run wide; zero leaves the generated
    /// tasks bare, and their passes narrow.
    pub task_grain_ns: u64,
    /// The program: sequential prefix, one outermost region loop (the last
    /// top-level `for`), optional sequential suffix.
    pub program: Program,
    /// The fault schedule (may be empty).
    pub faults: FaultPlan,
    /// Human-readable description of the chosen grammar family/patterns.
    pub note: String,
}

impl FuzzCase {
    /// The region's outer loop: the last top-level `for` statement.
    pub fn outer(&self) -> Option<StmtId> {
        self.program
            .body()
            .iter()
            .rev()
            .find(|&&s| matches!(self.program.stmt(s), Stmt::For { .. }))
            .copied()
    }

    /// The region's inner loop for the DOMORE transformation: the last
    /// statement of the outer body, when it is a `for`.
    pub fn inner(&self) -> Option<StmtId> {
        let outer = self.outer()?;
        let Stmt::For { body, .. } = self.program.stmt(outer) else {
            return None;
        };
        let &last = body.last()?;
        matches!(self.program.stmt(last), Stmt::For { .. }).then_some(last)
    }
}

struct Rng(SplitMix64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0.next_below(bound.max(1))
    }

    fn range(&mut self, lo: u64, hi_incl: u64) -> u64 {
        lo + self.below(hi_incl - lo + 1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const fn e(v: i64) -> Expr {
    Expr::Const(v)
}

/// Percent of cases whose SPECCROSS tasks get [`WIDE_TASK_NS`] of busy
/// work: the generated tasks are far too short for a pass to widen on its
/// own, so without a grain no case would exercise wide passes.
const GRAIN_PERCENT: u64 = 35;

/// Generates the case for `seed` under the given bounds.
pub fn generate(seed: u64, params: &GenParams) -> FuzzCase {
    // Independent sub-streams: engine knobs, program shape, fault plan.
    let mut knobs = Rng(SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15));
    let mut shape = Rng(SplitMix64::new(seed ^ 0x5851_F42D_4C95_7F2D));
    // Its own sub-stream for the static-elision epoch: the elide knob and
    // the two elision-focused program families (cluster-disjoint and mixed
    // proven+indirect) must not reshuffle pre-elision seeds.
    let mut elision = Rng(SplitMix64::new(seed ^ 0x6C2E_A417_B99D_E255));
    // And one for the task grain, which came later still.
    let mut grain = Rng(SplitMix64::new(seed ^ 0x2545_F491_4F6C_DD1D));

    let workers = knobs.range(1, params.max_workers) as usize;
    let checkpoint_every = knobs.range(1, 4) as usize;
    let signature = if knobs.chance(25) {
        SigKind::Bloom
    } else {
        SigKind::Range
    };
    let gate_distance = knobs.chance(40);
    let degrade = knobs.chance(50);
    let elide = elision.chance(60);
    let task_grain_ns = if grain.chance(GRAIN_PERCENT) {
        WIDE_TASK_NS
    } else {
        0
    };
    let family = match elision.below(5) {
        0 => ElideShape::Cluster,
        1 => ElideShape::Mixed,
        _ => ElideShape::Legacy,
    };

    let domore_only = shape.chance(30);
    let (program, note, epochs, tasks) = if domore_only {
        gen_domore_nest(&mut shape, params)
    } else {
        gen_spec_region(&mut shape, params, family)
    };

    let faults = if knobs.chance(params.fault_percent) {
        FaultPlan::random(
            seed ^ 0xFEED_FACE_CAFE_BEEF,
            epochs.max(1) as u32,
            tasks.max(1),
            workers,
        )
    } else {
        FaultPlan::new()
    };

    FuzzCase {
        seed,
        workers,
        checkpoint_every,
        signature,
        gate_distance,
        degrade,
        elide,
        task_grain_ns,
        program,
        faults,
        note,
    }
}

/// Program-family override drawn from the elision sub-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ElideShape {
    /// The original spec-region grammar, untouched.
    Legacy,
    /// Every loop writes its own per-epoch address cluster
    /// (`E_l[trip*t + i]`): `pir::elide` proves the whole region
    /// conflict-free, so elision retires every check.
    Cluster,
    /// Loop 0 is a provable cluster loop; the remaining loops read loop
    /// 0's array *indirectly* through an index array, which the analysis
    /// cannot resolve — proven and unproven epochs interleave.
    Mixed,
}

/// Per-loop dependence pattern of the spec-friendly family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecPattern {
    /// `load x = D[i]; store D[i] = mix(x)` — per-address chains across
    /// invocations (every epoch revisits the same cells).
    SameIndex,
    /// `load/store D[i+s]` with `s = t % K` recomputed per invocation —
    /// overlapping windows slide across epochs.
    Shifted,
    /// `store D[2i+c]; load D[2i+(1−c)]` with a generation-time constant
    /// `c` — intra-loop disjoint, cross-epoch write/write + read/write.
    Strided,
    /// `load v = IDX[i]; load y = SRC[v]; store D[i] = mix(y, v)` —
    /// indirect reads through a read-only index array.
    Indirect,
    /// First loop of a producer/consumer pair: `store SHARED[i]`.
    Producer,
    /// Second loop of the pair: `load SHARED[i]; store D[i]`.
    Consumer,
    /// `load x = D[i]; store D[i+trip] = mix(x)` — reads the low half,
    /// writes the high half. Every task's signature spans `trip + 1`
    /// addresses; cross-epoch write/write conflicts on the high half
    /// must still be found however wide the span is.
    WideSpan,
    /// `load x = E[trip*t + i]; store E[trip*t + i] = mix(x)` over a
    /// per-loop array sized `trip * epochs` — every epoch owns a disjoint
    /// address cluster, so `pir::elide` proves the loop conflict-free and
    /// elision retires every check it would have filed.
    Cluster,
    /// `load v = IDX[i]; load x = A[v]; store D[i] = mix(x + v)` — an
    /// indirect read of the *watched* array `A` a sibling `Producer` loop
    /// writes. The analysis cannot resolve `A[v]`, which poisons every
    /// access to `A`, so this loop (and the producer) stay on the full
    /// admission path while the cluster loop (on its private array) still
    /// elides. Still DOALL within one invocation: the unprovenness is
    /// purely cross-invocation.
    IndirectWatched,
}

/// Builds a SPECCROSS-acceptable region: outer loop over scalars + DOALL
/// inner loops. Returns (program, note, epochs, max tasks per epoch).
///
/// All shape draws happen before the `family` override is applied, so a
/// `Legacy` call is draw-for-draw identical to the pre-elision generator
/// and pinned corpus seeds keep their programs.
fn gen_spec_region(
    rng: &mut Rng,
    params: &GenParams,
    family: ElideShape,
) -> (Program, String, u64, u64) {
    let outer_trip = if rng.chance(8) {
        0 // zero-trip region: every engine must handle an empty schedule
    } else {
        rng.range(1, params.max_outer)
    };
    // Mostly single-loop regions (those also pass the DOMORE build and run
    // through all four engine paths); sometimes 2–3 loops for
    // producer/consumer and richer epoch interleavings.
    let num_loops = if rng.chance(65) { 1 } else { rng.range(2, 3) } as usize;
    let shift_mod = rng.range(1, 4) as i64; // s = t % shift_mod ∈ [0, shift_mod)
    let use_shift = rng.chance(50);

    let mut trips = Vec::new();
    let mut patterns = Vec::new();
    let mut producer_pending = false;
    for l in 0..num_loops {
        trips.push(rng.range(1, params.max_tasks));
        let p = if producer_pending {
            producer_pending = false;
            SpecPattern::Consumer
        } else {
            match rng.below(if l + 1 < num_loops { 7 } else { 5 } as u64) {
                0 => SpecPattern::SameIndex,
                1 => {
                    if use_shift {
                        SpecPattern::Shifted
                    } else {
                        SpecPattern::SameIndex
                    }
                }
                2 => SpecPattern::Strided,
                3 => SpecPattern::Indirect,
                4 => SpecPattern::WideSpan,
                _ => {
                    producer_pending = true;
                    SpecPattern::Producer
                }
            }
        };
        patterns.push(p);
    }

    // Elision-family override (after every legacy draw, so `Legacy` seeds
    // are untouched; the extra trip draw below only happens for `Mixed`).
    match family {
        ElideShape::Legacy => {}
        ElideShape::Cluster => {
            patterns.iter_mut().for_each(|p| *p = SpecPattern::Cluster);
        }
        ElideShape::Mixed => {
            // Cluster (proven) + producer of A + indirect consumer of A
            // (both unproven: the unresolved `A[v]` read poisons `A`).
            while trips.len() < 3 {
                trips.push(rng.range(1, params.max_tasks));
            }
            trips.truncate(3);
            patterns = vec![
                SpecPattern::Cluster,
                SpecPattern::Producer,
                SpecPattern::IndirectWatched,
            ];
        }
    }
    let num_loops = trips.len();

    let max_trip = trips.iter().copied().max().unwrap_or(1);
    // Lengths sized so every generated index stays in bounds:
    //   shifted:   i + s       < trip + shift_mod
    //   strided:   2i + 1      ≤ 2(trip−1) + 1 < 2·trip
    //   widespan:  i + trip    ≤ 2·trip − 1    < 2·trip
    let data_len = (2 * max_trip + shift_mod as u64 + 2) as usize;
    let idx_len = max_trip.max(1) as usize;

    let mut b = ProgramBuilder::new();
    let a = b.array("A", data_len);
    let d2 = b.array("B", data_len);
    let src = b.array("SRC", data_len);
    let idx = b.array("IDX", idx_len);
    // Per-loop cluster arrays: `E_l[trip*t + i]` stays strictly below
    // `trip * outer_trip` (length 1 when the region is zero-trip).
    let cluster_arrays: Vec<_> = patterns
        .iter()
        .enumerate()
        .map(|(l, &p)| {
            (p == SpecPattern::Cluster)
                .then(|| b.array(&format!("E{l}"), (trips[l] * outer_trip).max(1) as usize))
        })
        .collect();
    let t = b.var("t");
    let i = b.var("i");
    let x = b.var("x");
    let v = b.var("v");
    let s = b.var("s");

    // Prefix: seed the data arrays with distinct non-zero values and fill
    // IDX with in-bounds indices into SRC.
    let idx_stride = (1 + 2 * rng.below(4)) as i64; // odd
    b.for_loop(i, e(0), e(data_len as i64), |b| {
        b.store(
            a,
            Expr::Var(i),
            Expr::add(Expr::mul(Expr::Var(i), e(7)), e(3)),
        );
        b.store(
            d2,
            Expr::Var(i),
            Expr::add(Expr::mul(Expr::Var(i), e(5)), e(11)),
        );
        b.store(
            src,
            Expr::Var(i),
            Expr::add(Expr::mul(Expr::Var(i), e(9)), e(1)),
        );
    });
    b.for_loop(i, e(0), e(idx_len as i64), |b| {
        b.store(
            idx,
            Expr::Var(i),
            Expr::rem(
                Expr::add(Expr::mul(Expr::Var(i), e(idx_stride)), e(2)),
                e(data_len as i64),
            ),
        );
    });

    // Region: the last top-level loop.
    let loop_arrays: Vec<_> = (0..num_loops)
        .map(|l| if l % 2 == 0 { a } else { d2 })
        .collect();
    let k_mix = (3 + 2 * rng.below(3)) as i64; // odd ≥ 3: order-sensitive
    b.for_loop(t, e(0), e(outer_trip as i64), |b| {
        if use_shift {
            b.assign(s, Expr::rem(Expr::Var(t), e(shift_mod)));
        }
        for (l, &pat) in patterns.iter().enumerate() {
            let d = loop_arrays[l];
            let trip = trips[l] as i64;
            b.for_loop(i, e(0), e(trip), |b| {
                let mix = |val: Expr| {
                    Expr::add(
                        Expr::mul(val, e(k_mix)),
                        Expr::add(Expr::Var(i), Expr::mul(Expr::Var(t), e(4))),
                    )
                };
                match pat {
                    SpecPattern::SameIndex => {
                        b.load(x, d, Expr::Var(i));
                        b.store(d, Expr::Var(i), mix(Expr::Var(x)));
                    }
                    SpecPattern::Shifted => {
                        let at = Expr::add(Expr::Var(i), Expr::Var(s));
                        b.load(x, d, at.clone());
                        b.store(d, at, mix(Expr::Var(x)));
                    }
                    SpecPattern::Strided => {
                        let c = trip % 2; // deterministic 0/1
                        let wr = Expr::add(Expr::mul(e(2), Expr::Var(i)), e(c));
                        let rd = Expr::add(Expr::mul(e(2), Expr::Var(i)), e(1 - c));
                        b.load(x, d, rd);
                        b.store(d, wr, mix(Expr::Var(x)));
                    }
                    SpecPattern::Indirect => {
                        b.load(v, idx, Expr::Var(i));
                        b.load(x, src, Expr::Var(v));
                        b.store(d, Expr::Var(i), mix(Expr::add(Expr::Var(x), Expr::Var(v))));
                    }
                    SpecPattern::Producer => {
                        b.store(a, Expr::Var(i), mix(Expr::Var(i)));
                    }
                    SpecPattern::Consumer => {
                        b.load(x, a, Expr::Var(i));
                        b.store(d2, Expr::Var(i), mix(Expr::Var(x)));
                    }
                    SpecPattern::WideSpan => {
                        b.load(x, d, Expr::Var(i));
                        b.store(d, Expr::add(Expr::Var(i), e(trip)), mix(Expr::Var(x)));
                    }
                    SpecPattern::Cluster => {
                        let earr = cluster_arrays[l].expect("cluster loop has its array");
                        let at = Expr::add(Expr::mul(Expr::Var(t), e(trip)), Expr::Var(i));
                        b.load(x, earr, at.clone());
                        b.store(earr, at, mix(Expr::Var(x)));
                    }
                    SpecPattern::IndirectWatched => {
                        b.load(v, idx, Expr::Var(i));
                        b.load(x, a, Expr::Var(v));
                        b.store(d2, Expr::Var(i), mix(Expr::add(Expr::Var(x), Expr::Var(v))));
                    }
                }
            });
        }
    });

    // Optional sequential suffix (exercises the post-region split).
    if rng.chance(25) {
        b.for_loop(i, e(0), e(4.min(data_len as i64)), |b| {
            b.load(x, a, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::mul(Expr::Var(x), e(5)));
        });
    }

    let note = format!(
        "spec region: {outer_trip} epochs x {num_loops} loops {patterns:?} trips {trips:?}"
    );
    let epochs = outer_trip * num_loops as u64;
    (b.finish(), note, epochs, max_trip)
}

/// Per-iteration pattern of the DOMORE-only family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DomorePattern {
    /// `load x = C[j]; store C[j] = mix(x)` over overlapping windows.
    Window,
    /// `load x = C[j]; store C[j+1] = mix(x)` — loop-carried within the
    /// invocation (DOMORE's sync conditions must order the chain).
    Carried,
    /// `load v = IDX[j]; load x = C[v]; store C[v] = mix(x)` — the
    /// `computeAddr` slice reads a region-read-only index array.
    Indirect,
}

/// Builds a nest SPECCROSS must reject (impure region prologue: a `load`
/// in the outer body) but DOMORE accepts. Returns (program, note, epochs,
/// max tasks per epoch).
fn gen_domore_nest(rng: &mut Rng, params: &GenParams) -> (Program, String, u64, u64) {
    let outer_trip = rng.range(1, params.max_outer);
    let window = rng.range(1, params.max_tasks);
    let pattern = match rng.below(3) {
        0 => DomorePattern::Window,
        1 => DomorePattern::Carried,
        _ => DomorePattern::Indirect,
    };
    // start ∈ [0, span) from STARTS, j ∈ [start, start+window),
    // worst index j+1 ≤ span−1 + window  ⇒  len = span + window + 1.
    let span = rng.range(1, 6);
    let len = (span + window + 1) as usize;

    let mut b = ProgramBuilder::new();
    let c = b.array("C", len);
    let starts = b.array("STARTS", outer_trip as usize);
    let idx = b.array("IDX", len);
    let t = b.var("t");
    let j = b.var("j");
    let x = b.var("x");
    let v = b.var("v");
    let start = b.var("start");

    let k_mix = (3 + 2 * rng.below(3)) as i64;
    let start_stride = (1 + rng.below(4)) as i64;
    let idx_stride = (1 + 2 * rng.below(4)) as i64;

    // Prefix: seed C, overlapping start offsets, in-bounds IDX.
    b.for_loop(j, e(0), e(len as i64), |b| {
        b.store(
            c,
            Expr::Var(j),
            Expr::add(Expr::mul(Expr::Var(j), e(5)), e(1)),
        );
        b.store(
            idx,
            Expr::Var(j),
            Expr::rem(
                Expr::add(Expr::mul(Expr::Var(j), e(idx_stride)), e(1)),
                e(len as i64),
            ),
        );
    });
    b.for_loop(j, e(0), e(outer_trip as i64), |b| {
        b.store(
            starts,
            Expr::Var(j),
            Expr::rem(Expr::mul(Expr::Var(j), e(start_stride)), e(span as i64)),
        );
    });

    // The nest: outer body = prologue load (impure for SPECCROSS) + inner
    // loop over the invocation's window.
    b.for_loop(t, e(0), e(outer_trip as i64), |b| {
        b.load(start, starts, Expr::Var(t));
        b.for_loop(
            j,
            Expr::Var(start),
            Expr::add(Expr::Var(start), e(window as i64)),
            |b| {
                let mix = |val: Expr| {
                    Expr::add(
                        Expr::mul(val, e(k_mix)),
                        Expr::add(Expr::Var(j), Expr::mul(Expr::Var(t), e(4))),
                    )
                };
                match pattern {
                    DomorePattern::Window => {
                        b.load(x, c, Expr::Var(j));
                        b.store(c, Expr::Var(j), mix(Expr::Var(x)));
                    }
                    DomorePattern::Carried => {
                        b.load(x, c, Expr::Var(j));
                        b.store(c, Expr::add(Expr::Var(j), e(1)), mix(Expr::Var(x)));
                    }
                    DomorePattern::Indirect => {
                        b.load(v, idx, Expr::Var(j));
                        b.load(x, c, Expr::Var(v));
                        b.store(c, Expr::Var(v), mix(Expr::Var(x)));
                    }
                }
            },
        );
    });

    let note =
        format!("domore nest: {outer_trip} invocations, window {window}, span {span}, {pattern:?}");
    (b.finish(), note, outer_trip, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_oracle;
    use crossinvoc_pir::{DomorePlan, SpecCrossPlan};

    #[test]
    fn generation_is_seed_deterministic() {
        let p = GenParams::default();
        for seed in 0..40 {
            let a = generate(seed, &p);
            let b = generate(seed, &p);
            assert_eq!(a.program, b.program, "seed {seed}");
            assert_eq!(a.faults.specs(), b.faults.specs(), "seed {seed}");
            assert_eq!(a.workers, b.workers, "seed {seed}");
            assert_eq!(a.signature, b.signature, "seed {seed}");
        }
    }

    #[test]
    fn generated_programs_stay_in_bounds() {
        let p = GenParams::default();
        for seed in 0..300 {
            let case = generate(seed, &p);
            run_oracle(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: oracle rejected the case: {e}"));
        }
    }

    #[test]
    fn elision_families_classify_as_designed() {
        // Cluster regions must come out fully proven, mixed regions must
        // interleave a proven cluster loop with unproven indirect loops —
        // otherwise the elide diff lanes degenerate to no-ops.
        let p = GenParams::default();
        let (mut clusters, mut mixeds) = (0, 0);
        for seed in 0..400 {
            let case = generate(seed, &p);
            if !case.note.contains("Cluster") || case.note.contains("spec region: 0 epochs") {
                continue;
            }
            let outer = case.outer().expect("spec case has a region loop");
            // A sequential suffix displaces the region as the last
            // top-level loop; such cases are not spec-applicable (same
            // rule as the diff harness) and prove nothing about elision.
            let Ok(plan) = SpecCrossPlan::build(&case.program, outer) else {
                continue;
            };
            let elision = plan.elision();
            if case.note.contains("IndirectWatched") {
                mixeds += 1;
                assert!(
                    elision.loop_is_proven(0),
                    "seed {seed}: mixed loop 0 is the provable cluster loop"
                );
                assert!(
                    (1..elision.loops.len()).all(|l| !elision.loop_is_proven(l)),
                    "seed {seed}: indirect reads of a watched array must stay unproven"
                );
            } else {
                clusters += 1;
                assert!(
                    elision.fully_proven(),
                    "seed {seed}: cluster region must prove every access"
                );
            }
        }
        assert!(clusters > 20, "cluster family is common (got {clusters})");
        assert!(mixeds > 20, "mixed family is common (got {mixeds})");
    }

    #[test]
    fn grammar_reaches_both_engine_builds() {
        let p = GenParams::default();
        let (mut spec_ok, mut domore_ok, mut both) = (0, 0, 0);
        for seed in 0..300 {
            let case = generate(seed, &p);
            let outer = case.outer().expect("every case has a region loop");
            let s = SpecCrossPlan::build(&case.program, outer).is_ok();
            let d = case
                .inner()
                .is_some_and(|inner| DomorePlan::build(&case.program, outer, inner).is_ok());
            spec_ok += s as u32;
            domore_ok += d as u32;
            both += (s && d) as u32;
        }
        assert!(spec_ok > 100, "spec plans build often (got {spec_ok})");
        assert!(
            domore_ok > 100,
            "domore plans build often (got {domore_ok})"
        );
        assert!(both > 50, "four-path cases are common (got {both})");
    }
}
