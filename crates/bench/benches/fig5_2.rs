//! Fig. 5.2 — SPECCROSS vs. pthread-barrier speedup for the eight
//! SPECCROSS benchmarks, swept over thread counts.
//!
//! Prints the §1.2 headline aggregates at 24 threads (the thesis reports a
//! geomean of 4.6× over sequential vs. 1.3× for the barrier plan at the
//! whole-program level).

use crossinvoc_bench::{geomean, speccross_pair, Col, Table, THREADS};
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Fig. 5.2: SPECCROSS vs pthread barrier (speedup over sequential)");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::text("threads", 7),
        Col::num("barrier_speedup", 16, 2, 4),
        Col::num("speccross_speedup", 17, 2, 4),
    ]);
    let mut at24_spec = Vec::new();
    let mut at24_barrier = Vec::new();
    for info in registry().into_iter().filter(|b| b.speccross) {
        for threads in THREADS {
            let pair = speccross_pair(&info, Scale::Figure, threads);
            table.row(&[&info.name, &threads, &pair.barrier, &pair.technique]);
            if threads == 24 {
                at24_spec.push(pair.technique);
                at24_barrier.push(pair.barrier);
            }
        }
    }
    println!("\nheadline (24 threads):");
    println!(
        "  SPECCROSS geomean over sequential: {:.2}x (thesis: 4.6x)",
        geomean(&at24_spec)
    );
    println!(
        "  barrier-plan geomean over sequential: {:.2}x (thesis: 1.3x whole-program)",
        geomean(&at24_barrier)
    );
    table.finish("fig5_2");
}
