//! Fig. 5.1 — DOMORE vs. pthread-barrier speedup for the six DOMORE
//! benchmarks, swept over thread counts.
//!
//! Also prints the §1.2 headline aggregates: DOMORE's geomean speedup over
//! the barrier plan and over sequential execution at 24 threads (the thesis
//! reports 2.1× and 3.2×).

use crossinvoc_bench::{domore_pair, geomean, Col, Table, THREADS};
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Fig. 5.1: DOMORE vs pthread barrier (speedup over sequential)");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::text("threads", 7),
        Col::num("barrier_speedup", 16, 2, 4),
        Col::num("domore_speedup", 14, 2, 4),
    ]);
    let mut at24_domore = Vec::new();
    let mut at24_barrier = Vec::new();
    for info in registry().into_iter().filter(|b| b.domore) {
        for threads in THREADS {
            let pair = domore_pair(&info, Scale::Figure, threads);
            table.row(&[&info.name, &threads, &pair.barrier, &pair.technique]);
            if threads == 24 {
                at24_domore.push(pair.technique);
                at24_barrier.push(pair.barrier);
            }
        }
    }
    let over_seq = geomean(&at24_domore);
    let over_barrier = geomean(
        &at24_domore
            .iter()
            .zip(&at24_barrier)
            .map(|(d, b)| d / b)
            .collect::<Vec<_>>(),
    );
    println!("\nheadline (24 threads):");
    println!("  DOMORE geomean over sequential: {over_seq:.2}x (thesis: 3.2x)");
    println!("  DOMORE geomean over barrier plan: {over_barrier:.2}x (thesis: 2.1x)");
    table.finish("fig5_1");
}
