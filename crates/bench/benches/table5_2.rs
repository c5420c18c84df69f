//! Table 5.2 — scheduler/worker ratio for the DOMORE benchmarks.
//!
//! The ratio of the scheduler slice's work (prologue + `computeAddr` +
//! conflict detection + dispatch, per iteration) to the worker kernels'
//! work. The thesis reports BLACKSCHOLES 4.5%, CG 4.1%, ECLAT 12.5%,
//! FLUIDANIMATE-1 21.5%, LLUBENCH 1.7%, SYMM 1.5% — programs whose ratio is
//! large (ECLAT, FLUIDANIMATE) are exactly the ones whose DOMORE scaling
//! saturates early in Fig. 5.1.

use crossinvoc_bench::{Col, Table};
use crossinvoc_workloads::{registry, Scale};

/// Thesis-reported ratios for comparison.
fn paper_ratio(name: &str) -> Option<f64> {
    match name {
        "BLACKSCHOLES" => Some(4.5),
        "CG" => Some(4.1),
        "ECLAT" => Some(12.5),
        "FLUIDANIMATE-1" => Some(21.5),
        "LLUBENCH" => Some(1.7),
        "SYMM" => Some(1.5),
        _ => None,
    }
}

fn main() {
    println!("Table 5.2: Scheduler/worker ratio for benchmarks");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::num("measured_pct", 12, 1, 2),
        Col::text("paper_pct", 12),
    ]);
    for info in registry().into_iter().filter(|b| b.domore) {
        let model = info.model(Scale::Figure);
        let mut sched = 0u64;
        let mut worker = 0u64;
        for inv in 0..model.num_invocations() {
            sched += model.prologue_cost(inv);
            for iter in 0..model.num_iterations(inv) {
                sched += model.sched_cost(inv, iter);
                worker += model.iteration_cost(inv, iter);
            }
        }
        let measured = 100.0 * sched as f64 / worker as f64;
        let paper = paper_ratio(info.name);
        table.row(&[
            &info.name,
            &measured,
            &paper.map_or(String::new(), |p| p.to_string()),
        ]);
    }
    table.finish("table5_2");
}
