//! Fig. 5.4 — best performance of this work vs. previous work.
//!
//! Per program: the best speedup DOMORE/SPECCROSS reach anywhere in the
//! thread sweep, against the best the conventional (barrier-synchronized
//! intra-invocation) plan reaches — the strongest baseline this
//! reproduction implements for the systems the thesis compares against
//! (substitution S5 of DESIGN.md).

use crossinvoc_bench::{domore_pair, speccross_pair, Col, Table, THREADS};
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Fig. 5.4: best speedup, this work vs previous work");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::num("this_work_best", 14, 2, 4),
        Col::num("previous_work_best", 18, 2, 4),
        Col::text("technique", 10),
    ]);
    for info in registry() {
        let mut best_ours = 0.0f64;
        let mut best_prev = 0.0f64;
        let mut which = "-";
        for threads in THREADS {
            if info.domore {
                let pair = domore_pair(&info, Scale::Figure, threads);
                best_prev = best_prev.max(pair.barrier);
                if pair.technique > best_ours {
                    best_ours = pair.technique;
                    which = "DOMORE";
                }
            }
            if info.speccross {
                let pair = speccross_pair(&info, Scale::Figure, threads);
                best_prev = best_prev.max(pair.barrier);
                if pair.technique > best_ours {
                    best_ours = pair.technique;
                    which = "SPECCROSS";
                }
            }
        }
        table.row(&[&info.name, &best_ours, &best_prev, &which]);
    }
    table.finish("fig5_4");
}
