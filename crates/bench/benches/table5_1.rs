//! Table 5.1 — details of the evaluated benchmark programs.
//!
//! Prints the registry in the thesis' column layout and records, for each
//! program, the instance shape the harness actually runs.

use crossinvoc_bench::{Col, Table};
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Table 5.1: Details about evaluated benchmark programs");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::text("suite", 10),
        Col::text("function", 16),
        Col::text("exec_pct", 8),
        Col::text("inner_plan", 11),
        Col::text("domore", 6),
        Col::text("speccross", 9),
        Col::text("invocations", 11),
        Col::text("iterations", 10),
    ]);
    for info in registry() {
        let model = info.model(Scale::Figure);
        table.row(&[
            &info.name,
            &info.suite,
            &info.function,
            &info.exec_pct,
            &info.inner_plan,
            &info.domore,
            &info.speccross,
            &model.num_invocations(),
            &model.total_iterations(),
        ]);
    }
    table.finish("table5_1");
}
