//! Fig. 2.5 — DOACROSS vs. DSWP on a cyclic-dependence loop, swept over
//! communication latency.
//!
//! The background claim the thesis builds on (from the DSWP line of work):
//! DOACROSS places the cross-thread forwarding latency on the dependence
//! chain's critical path once per iteration, while DSWP's pipeline pays it
//! only to fill — so DOACROSS degrades with latency and DSWP does not.

use crossinvoc_bench::{Col, Table};
use crossinvoc_sim::pipeline::{doacross, dswp, StagedLoop};

fn main() {
    println!("Fig. 2.5: DOACROSS vs DSWP under communication latency");
    let mut table = Table::new(&[
        Col::text("comm_ns", 12),
        Col::num("doacross_speedup", 16, 2, 4),
        Col::num("dswp_speedup", 12, 2, 4),
    ]);
    // The Fig. 2.4 loop: a short pointer-chase stage feeding a heavy
    // work stage, split 2 ways.
    let staged = StagedLoop::new(20_000, vec![300, 700]);
    let seq = staged.sequential_ns();
    let mut first_da = 0.0f64;
    let mut last_da = f64::MAX;
    for comm in [0u64, 100, 300, 700, 1_500, 3_000] {
        let da = doacross(&staged, 2, comm).speedup_over(seq);
        let ds = dswp(&staged, comm).speedup_over(seq);
        table.row(&[&comm, &da, &ds]);
        if comm == 0 {
            first_da = da;
        }
        last_da = da;
    }
    assert!(
        last_da < first_da / 1.5,
        "DOACROSS must degrade with latency"
    );
    table.finish("fig2_5");
}
