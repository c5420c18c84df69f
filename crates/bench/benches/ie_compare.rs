//! Ablation — DOMORE vs. the Inspector-Executor baseline (§3.5.3).
//!
//! IE also uses runtime dependence information, but (1) its inspection is
//! serialized with execution and (2) it still barriers at every invocation
//! boundary. This target quantifies both gaps on the DOMORE benchmark set:
//! the same address streams, the same per-iteration inspection cost, only
//! the overlap discipline differs.

use crossinvoc_bench::{domore_policy, Col, Table};
use crossinvoc_sim::inspector::inspector_executor;
use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Ablation: DOMORE vs Inspector-Executor (8 and 24 threads)");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::num("ie_8", 9, 2, 4),
        Col::num("domore_8", 9, 2, 4),
        Col::num("ie_24", 9, 2, 4),
        Col::num("domore_24", 9, 2, 4),
    ]);
    let cost = CostModel::default();
    let mut domore_wins = 0usize;
    let mut total = 0usize;
    for info in registry().into_iter().filter(|b| b.domore) {
        let model = info.model(Scale::Figure);
        let seq = sequential(model.as_ref(), &cost).total_ns;
        let mut vals = Vec::new();
        for threads in [8usize, 24] {
            let ie = inspector_executor(model.as_ref(), threads, &cost).speedup_over(seq);
            let mut policy = domore_policy(&info, Scale::Figure);
            let dm = domore(
                model.as_ref(),
                threads.saturating_sub(1).max(1),
                policy.as_mut(),
                &cost,
            )
            .speedup_over(seq);
            vals.push((ie, dm));
        }
        table.row(&[&info.name, &vals[0].0, &vals[0].1, &vals[1].0, &vals[1].1]);
        total += 1;
        domore_wins += usize::from(vals[1].1 > vals[1].0);
    }
    println!("(DOMORE beats IE at 24 threads on {domore_wins}/{total} programs)");
    table.finish("ie_compare");
}
