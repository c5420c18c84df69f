//! The automatic parallelization driver — the decision flow of Fig. 1.5.
//!
//! Given a top-level loop nest, the driver:
//!
//! 1. profiles the outer loop's cross-invocation dependences on a training
//!    run ([`crossinvoc_pir::pdg::ManifestProfile`], the 72.4%-style rates
//!    of Fig. 3.1);
//! 2. if conflicts are *rare*, builds a SPECCROSS plan and profiles its
//!    minimum dependence distance for the speculative-range gate (§4.4);
//! 3. if conflicts are *frequent* — speculation would thrash — builds a
//!    DOMORE plan instead (the complementarity claim of §1.2);
//! 4. falls back to barrier-synchronized parallel execution when the nest
//!    defeats both transformations, or to sequential execution when the
//!    inner loops cannot be parallelized at all.

use std::fmt;

use crossinvoc_domore::runtime::DomoreError;
use crossinvoc_pir::interp::{Interp, Memory};
use crossinvoc_pir::ir::{Program, Stmt, StmtId};
use crossinvoc_pir::pdg::ManifestProfile;
use crossinvoc_pir::transform::{DomorePlan, SpecCrossPlan};
use crossinvoc_runtime::stats::StatsSummary;
use crossinvoc_speccross::engine::{SpecConfig, SpecError};

/// How a nest ends up being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Speculative barriers (rare cross-invocation conflicts).
    SpecCross,
    /// DOMORE runtime scheduling (frequent conflicts).
    Domore,
    /// Parallel inner loops behind non-speculative barriers.
    Barrier,
    /// No profitable parallelization found.
    Sequential,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::SpecCross => write!(f, "SPECCROSS"),
            Strategy::Domore => write!(f, "DOMORE"),
            Strategy::Barrier => write!(f, "barrier"),
            Strategy::Sequential => write!(f, "sequential"),
        }
    }
}

/// Errors from planning or executing an automatic parallelization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoError {
    /// The designated statement is not a top-level `For` loop of the
    /// program (profiling and plan execution need the whole-program
    /// context).
    NotATopLevelLoop(StmtId),
    /// The DOMORE runtime rejected the execution.
    Domore(DomoreError),
    /// The SPECCROSS engine rejected the execution.
    Spec(SpecError),
}

impl fmt::Display for AutoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoError::NotATopLevelLoop(s) => {
                write!(f, "statement #{} is not a top-level loop", s.0)
            }
            AutoError::Domore(e) => write!(f, "DOMORE execution failed: {e}"),
            AutoError::Spec(e) => write!(f, "SPECCROSS execution failed: {e}"),
        }
    }
}

impl std::error::Error for AutoError {}

impl From<DomoreError> for AutoError {
    fn from(e: DomoreError) -> Self {
        AutoError::Domore(e)
    }
}

impl From<SpecError> for AutoError {
    fn from(e: SpecError) -> Self {
        AutoError::Spec(e)
    }
}

/// Execution summary, unified across strategies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Runtime counters (tasks, epochs, sync conditions, misspeculations).
    pub stats: StatsSummary,
    /// Whether a SPECCROSS execution abandoned speculation mid-run and
    /// finished the region under non-speculative barriers (see
    /// `DegradePolicy`); always `false` for the other strategies.
    pub degraded: bool,
}

/// The driver configuration.
#[derive(Debug, Clone)]
pub struct AutoParallelizer {
    workers: usize,
    /// Manifest-rate ceiling below which speculation is chosen (§4.4's
    /// "high-confidence" threshold; the thesis' default partitions exactly
    /// as Fig. 1.5 describes).
    speculation_ceiling: f64,
    /// Profiling window, in epochs, for the dependence-distance profiler.
    profile_window: u32,
}

impl AutoParallelizer {
    /// Creates a driver targeting `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            speculation_ceiling: 0.05,
            profile_window: 4,
        }
    }

    /// Overrides the speculation manifest-rate ceiling.
    pub fn speculation_ceiling(mut self, ceiling: f64) -> Self {
        self.speculation_ceiling = ceiling;
        self
    }

    /// Plans the parallelization of the top-level loop `outer`.
    ///
    /// Profiling runs execute the program on zeroed training memory; plans
    /// never modify the program.
    ///
    /// # Errors
    ///
    /// Returns [`AutoError::NotATopLevelLoop`] if `outer` is not a
    /// top-level `For` of `program`.
    pub fn plan<'p>(&self, program: &'p Program, outer: StmtId) -> Result<Decision<'p>, AutoError> {
        if !program.body().contains(&outer) || !matches!(program.stmt(outer), Stmt::For { .. }) {
            return Err(AutoError::NotATopLevelLoop(outer));
        }

        // Step 1: profile the outer loop's cross-invocation dependences on
        // a training run (diagnostic; reported on the decision).
        let mut training = Memory::zeroed(program);
        let manifest = ManifestProfile::collect(program, outer, &mut training);
        let rate = manifest.max_rate();

        // Step 2: if the region is SPECCROSS-shaped, profile its minimum
        // dependence distance and apply §4.4's rule: speculate unless the
        // closest conflict is nearer than the worker count (the thesis'
        // default threshold) — such conflicts would gate speculation into
        // near-serial execution, which is DOMORE territory (§1.2).
        let spec_plan = SpecCrossPlan::build(program, outer).ok();
        let mut distance = None;
        let speculate = match &spec_plan {
            Some(plan) => {
                let mut training = Memory::zeroed(program);
                distance = plan
                    .profile(&mut training, self.profile_window)
                    .min_distance;
                match distance {
                    None => true,
                    Some(d) => d >= self.workers as u64,
                }
            }
            None => false,
        };
        if speculate {
            let plan = spec_plan.expect("speculate implies a SPECCROSS plan");
            return Ok(Decision {
                program,
                workers: self.workers,
                manifest_rate: rate,
                plan: Plan::SpecCross { plan, distance },
            });
        }

        // Step 3: frequent/near conflicts — synchronize them precisely.
        if let Some(inner) = last_inner_loop(program, outer) {
            if let Ok(plan) = DomorePlan::build(program, outer, inner) {
                return Ok(Decision {
                    program,
                    workers: self.workers,
                    manifest_rate: rate,
                    plan: Plan::Domore(plan),
                });
            }
        }
        // Step 4: fall back — barriers if the region is at least
        // inner-parallelizable, else sequential.
        match spec_plan {
            Some(plan) => Ok(Decision {
                program,
                workers: self.workers,
                manifest_rate: rate,
                plan: Plan::Barrier(plan),
            }),
            None => Ok(Decision {
                program,
                workers: self.workers,
                manifest_rate: rate,
                plan: Plan::Sequential,
            }),
        }
    }
}

fn last_inner_loop(program: &Program, outer: StmtId) -> Option<StmtId> {
    let Stmt::For { body, .. } = program.stmt(outer) else {
        return None;
    };
    body.last()
        .copied()
        .filter(|&s| matches!(program.stmt(s), Stmt::For { .. }))
}

/// A planned parallelization, ready to execute.
#[derive(Debug)]
pub struct Decision<'p> {
    program: &'p Program,
    workers: usize,
    manifest_rate: f64,
    plan: Plan<'p>,
}

#[derive(Debug)]
enum Plan<'p> {
    Domore(DomorePlan<'p>),
    SpecCross {
        plan: SpecCrossPlan<'p>,
        distance: Option<u64>,
    },
    Barrier(SpecCrossPlan<'p>),
    Sequential,
}

impl Decision<'_> {
    /// The chosen strategy.
    pub fn strategy(&self) -> Strategy {
        match &self.plan {
            Plan::Domore(_) => Strategy::Domore,
            Plan::SpecCross { .. } => Strategy::SpecCross,
            Plan::Barrier(_) => Strategy::Barrier,
            Plan::Sequential => Strategy::Sequential,
        }
    }

    /// The profiled cross-invocation manifest rate that drove the choice.
    pub fn manifest_rate(&self) -> f64 {
        self.manifest_rate
    }

    /// The profiled speculative range, if the strategy is SPECCROSS.
    pub fn spec_distance(&self) -> Option<u64> {
        match &self.plan {
            Plan::SpecCross { distance, .. } => *distance,
            _ => None,
        }
    }

    /// Executes the whole program under the chosen strategy.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors ([`AutoError::Domore`]/[`AutoError::Spec`]).
    pub fn execute(&self, mem: &mut Memory) -> Result<Report, AutoError> {
        match &self.plan {
            Plan::Domore(plan) => {
                let report = plan.execute(mem, self.workers)?;
                Ok(Report {
                    stats: report.stats,
                    degraded: false,
                })
            }
            Plan::SpecCross { plan, distance } => {
                // The plan carries `pir::elide`'s per-loop proofs; without
                // `elide(true)` the engine never consults them.
                let report = plan.execute(
                    mem,
                    SpecConfig::with_workers(self.workers)
                        .spec_distance(*distance)
                        .elide(true),
                )?;
                Ok(Report {
                    stats: report.stats,
                    degraded: report.degraded,
                })
            }
            Plan::Barrier(plan) => {
                let report =
                    plan.execute_with_barriers(mem, SpecConfig::with_workers(self.workers))?;
                Ok(Report {
                    stats: report.stats,
                    degraded: false,
                })
            }
            Plan::Sequential => {
                Interp::new(self.program).run(mem);
                Ok(Report::default())
            }
        }
    }

    /// Runs the program sequentially (the validation baseline).
    pub fn execute_sequential(&self, mem: &mut Memory) {
        Interp::new(self.program).run(mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_pir::ir::{Expr, ProgramBuilder};

    /// Independent inner loops: rare conflicts → SPECCROSS.
    fn clean_nest() -> (Program, StmtId) {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", 32);
        let t = b.var("t");
        let i = b.var("i");
        let x = b.var("x");
        let outer = b.for_loop(t, Expr::Const(0), Expr::Const(6), |b| {
            b.for_loop(i, Expr::Const(0), Expr::Const(32), |b| {
                b.load(x, a, Expr::Var(i));
                b.store(a, Expr::Var(i), Expr::add(Expr::Var(x), Expr::Const(1)));
            });
        });
        (b.finish(), outer)
    }

    /// CG-shaped nest: overlapping extents → frequent conflicts → DOMORE.
    fn conflicting_nest() -> (Program, StmtId) {
        let mut b = ProgramBuilder::new();
        let starts = b.array("starts", 16);
        let c = b.array("C", 24);
        let k = b.var("k");
        let i = b.var("i");
        let j = b.var("j");
        let start = b.var("start");
        let x = b.var("x");
        b.for_loop(k, Expr::Const(0), Expr::Const(16), |b| {
            b.store(
                starts,
                Expr::Var(k),
                Expr::rem(Expr::mul(Expr::Var(k), Expr::Const(3)), Expr::Const(18)),
            );
        });
        let outer = b.for_loop(i, Expr::Const(0), Expr::Const(16), |b| {
            b.load(start, starts, Expr::Var(i));
            b.for_loop(
                j,
                Expr::Var(start),
                Expr::add(Expr::Var(start), Expr::Const(6)),
                |b| {
                    b.load(x, c, Expr::Var(j));
                    b.store(c, Expr::Var(j), Expr::add(Expr::Var(x), Expr::Const(1)));
                },
            );
        });
        (b.finish(), outer)
    }

    #[test]
    fn rare_conflicts_choose_speccross() {
        let (p, outer) = clean_nest();
        let decision = AutoParallelizer::new(2).plan(&p, outer).unwrap();
        assert_eq!(decision.strategy(), Strategy::SpecCross);
        let mut mem = Memory::zeroed(&p);
        let report = decision.execute(&mut mem).unwrap();
        assert!(!report.degraded, "a clean run must not degrade");
        let mut expected = Memory::zeroed(&p);
        decision.execute_sequential(&mut expected);
        assert_eq!(mem.snapshot(), expected.snapshot());
    }

    #[test]
    fn frequent_conflicts_choose_domore() {
        let (p, outer) = conflicting_nest();
        // Overlapping extents put the closest conflict a handful of tasks
        // away — below an 8-worker threshold, so speculation is rejected.
        let decision = AutoParallelizer::new(8).plan(&p, outer).unwrap();
        assert!(
            decision.manifest_rate() > 0.5,
            "overlapping extents manifest often, got {}",
            decision.manifest_rate()
        );
        assert_eq!(decision.strategy(), Strategy::Domore);
        let mut mem = Memory::zeroed(&p);
        decision.execute(&mut mem).unwrap();
        let mut expected = Memory::zeroed(&p);
        decision.execute_sequential(&mut expected);
        assert_eq!(mem.snapshot(), expected.snapshot());
    }

    #[test]
    fn non_loop_target_is_rejected() {
        let (p, _) = clean_nest();
        let not_a_loop = p.body()[0];
        let nested = StmtId(1);
        let err = AutoParallelizer::new(2).plan(&p, nested).unwrap_err();
        assert!(matches!(err, AutoError::NotATopLevelLoop(_)));
        let _ = not_a_loop;
    }

    #[test]
    fn strategy_displays_readably() {
        assert_eq!(Strategy::SpecCross.to_string(), "SPECCROSS");
        assert_eq!(Strategy::Domore.to_string(), "DOMORE");
    }
}
