//! Fig. 5.6 — the FLUIDANIMATE case study (§5.4): five parallelization
//! plans for the eight-phase frame loop of Fig. 5.5.
//!
//! Only the two neighbour-scatter phases (the thesis' `ComputeDensities` /
//! `ComputeForces`, its L4 and L6) need anything beyond DOALL; every plan
//! differs only in how it handles them:
//!
//! * MANUAL — PARSEC's hand parallelization: DOANY (fine-grained locks) on
//!   the scatter phases, barriers everywhere.
//! * LOCALWRITE + Barrier — owner-computes with thread-scaled redundant
//!   traversal on the scatter phases.
//! * LOCALWRITE + SPECCROSS — same inner plan, speculative barriers.
//! * DOMORE + Barrier — runtime scheduling inside invocations only.
//! * DOMORE + SPECCROSS — the duplicated-scheduler composition (§3.4),
//!   which the thesis finds best overall.

use crossinvoc_bench::{doany_barrier, localwrite_factor_pct, Col, Table, THREADS};
use crossinvoc_domore::policy::ModuloWrite;
use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::fluidanimate::Fluidanimate;
use crossinvoc_workloads::kernel::profile_distance;
use crossinvoc_workloads::Scale;

/// Critical fraction the manual DOANY locks serialize in scatter phases.
const DOANY_CRITICAL_PCT: u64 = 30;

/// Inflates kernel cost on the scatter phases only, by a fixed factor.
#[derive(Debug)]
struct ScatterCost {
    inner: Fluidanimate,
    factor_pct: u64,
}

impl SimWorkload for ScatterCost {
    fn num_invocations(&self) -> usize {
        self.inner.num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.inner.num_iterations(inv)
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        let base = self.inner.iteration_cost(inv, iter);
        if Fluidanimate::is_scatter_phase(inv) {
            base * self.factor_pct / 100
        } else {
            base
        }
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        self.inner.accesses(inv, iter, out)
    }
    fn address_space(&self) -> Option<usize> {
        self.inner.address_space()
    }
}

/// Adds the §3.4 duplicated-scheduler overhead on the scatter phases:
/// every worker re-runs the scheduling slice for *all* of the phase's
/// tasks, so each of its own tasks carries `workers ×` the per-task cost.
#[derive(Debug)]
struct DuplicatedSchedulingCost {
    inner: Fluidanimate,
    workers: usize,
}

impl SimWorkload for DuplicatedSchedulingCost {
    fn num_invocations(&self) -> usize {
        self.inner.num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.inner.num_iterations(inv)
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        let base = self.inner.iteration_cost(inv, iter);
        if Fluidanimate::is_scatter_phase(inv) {
            base + self.inner.sched_cost(inv, iter) * self.workers as u64
        } else {
            base
        }
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        self.inner.accesses(inv, iter, out)
    }
    fn address_space(&self) -> Option<usize> {
        self.inner.address_space()
    }
}

fn main() {
    println!("Fig. 5.6: FLUIDANIMATE under five parallelization plans");
    let mut table = Table::new(&[
        Col::text("threads", 7),
        Col::num("manual", 9, 2, 4),
        Col::num("localwrite_barrier", 18, 2, 4),
        Col::num("localwrite_speccross", 20, 2, 4),
        Col::num("domore_barrier", 14, 2, 4),
        Col::num("domore_speccross", 16, 2, 4),
    ]);
    let model = Fluidanimate::new(Scale::Figure, 0xC0FFEE ^ 14);
    let cells = model.cells();
    let cost = CostModel::default();
    let seq = sequential(&model, &cost).total_ns;
    let distance = profile_distance(&model, 9).min_distance;
    let mut dm_spec_best = 0.0f64;
    let mut others_best = 0.0f64;
    for threads in THREADS {
        let workers = threads.saturating_sub(1).max(1);
        let manual = doany_barrier(
            &model,
            threads,
            &|inv| {
                if Fluidanimate::is_scatter_phase(inv) {
                    DOANY_CRITICAL_PCT
                } else {
                    0
                }
            },
            &cost,
        )
        .speedup_over(seq);
        let lw = ScatterCost {
            inner: model.clone(),
            factor_pct: localwrite_factor_pct(threads),
        };
        let lw_bar = barrier(&lw, threads, &cost).speedup_over(seq);
        let params = SpecSimParams::with_threads(workers).spec_distance(distance);
        let lw_spec_model = ScatterCost {
            inner: model.clone(),
            factor_pct: localwrite_factor_pct(workers),
        };
        let lw_spec = speccross(&lw_spec_model, &params, &cost).speedup_over(seq);
        let dm_bar = domore_barriered(&model, workers, &mut ModuloWrite::new(cells), &cost)
            .speedup_over(seq);
        let dm_spec_model = DuplicatedSchedulingCost {
            inner: model.clone(),
            workers,
        };
        let dm_spec = speccross(&dm_spec_model, &params, &cost).speedup_over(seq);
        table.row(&[&threads, &manual, &lw_bar, &lw_spec, &dm_bar, &dm_spec]);
        dm_spec_best = dm_spec_best.max(dm_spec);
        others_best = others_best.max(manual).max(lw_bar).max(lw_spec).max(dm_bar);
    }
    println!(
        "\nDOMORE+SPECCROSS best {dm_spec_best:.2}x vs best other plan {others_best:.2}x \
         (thesis: the combination wins)"
    );
    table.finish("fig5_6");
}
