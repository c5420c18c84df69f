//! Table 5.3 — SPECCROSS execution details at 24 threads.
//!
//! Per program: number of tasks, number of epochs, number of checking
//! requests sent to the checker, and the profiled minimum dependence
//! distance (train and ref inputs; `*` = no conflict observed). LOOPDEP is
//! the one program whose train/ref inputs differ structurally, matching
//! the thesis' 500 vs. 800.

use crossinvoc_bench::{spec_params, Col, Table};
use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::kernel::profile_distance;
use crossinvoc_workloads::loopdep::Loopdep;
use crossinvoc_workloads::{registry, Scale};

fn fmt_distance(d: Option<u64>) -> String {
    d.map_or("*".to_owned(), |v| v.to_string())
}

fn main() {
    println!("Table 5.3: Details of benchmark programs (24 threads)");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::text("tasks", 9),
        Col::text("epochs", 8),
        Col::text("check_requests", 10),
        Col::text("min_distance_train", 8),
        Col::text("min_distance_ref", 8),
    ]);
    let cost = CostModel::default();
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Figure);
        let params = spec_params(&info, Scale::Figure, 24);
        let result = speccross(model.as_ref(), &params, &cost);
        let train = profile_distance(model.as_ref(), 6).min_distance;
        // Only LOOPDEP ships a structurally different reference input; the
        // other programs' ref inputs keep the train dependence pattern.
        let reference = if info.name == "LOOPDEP" {
            profile_distance(&Loopdep::reference(Scale::Figure, 0xC0FFEE ^ 7), 6).min_distance
        } else {
            train
        };
        table.row(&[
            &info.name,
            &result.stats.tasks,
            &result.stats.epochs,
            &result.stats.check_requests,
            &fmt_distance(train),
            &fmt_distance(reference),
        ]);
    }
    table.finish("table5_3");
}
