//! Fig. 3.3 — CG loop speedup with and without DOMORE.
//!
//! The thesis' headline DOMORE figure: with pthread barriers CG's 9-task
//! epochs make synchronization dominate and performance *degrades* with
//! thread count; DOMORE's cross-invocation overlap scales it.

use crossinvoc_bench::{domore_pair, Col, Table, THREADS};
use crossinvoc_workloads::registry::by_name;
use crossinvoc_workloads::Scale;

fn main() {
    println!("Fig. 3.3: performance improvement of CG with and without DOMORE");
    let mut table = Table::new(&[
        Col::text("threads", 7),
        Col::num("barrier_speedup", 16, 2, 4),
        Col::num("domore_speedup", 14, 2, 4),
    ]);
    let info = by_name("CG");
    let mut crossover_seen = false;
    for threads in THREADS {
        let pair = domore_pair(&info, Scale::Figure, threads);
        crossover_seen |= pair.technique > pair.barrier;
        table.row(&[&threads, &pair.barrier, &pair.technique]);
    }
    assert!(
        crossover_seen,
        "DOMORE must beat the barrier plan somewhere in the sweep"
    );
    table.finish("fig3_3");
}
