//! Fig. 4.3 — barrier synchronization overhead at 8 and 24 threads.
//!
//! For each of the eight SPECCROSS benchmarks, the fraction of aggregate
//! thread time spent idling at barriers when the program runs under the
//! conventional plan. The thesis measures >30% for most programs at 24
//! threads — an Amdahl ceiling of ≈3.3× that motivates barrier removal.
//!
//! With `CROSSINVOC_TRACE` set it writes each program's traced 24-thread
//! barrier run, plus one real-thread region per engine
//! ([`crossinvoc_bench::write_engine_traces`]).

use crossinvoc_bench::{
    trace_capacity, write_engine_traces, write_trace, Col, Table, FIG4_3_THREADS,
};
use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Fig. 4.3: barrier overhead (% of parallel runtime)");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::num("overhead_pct_8", 14, 1, 3),
        Col::num("overhead_pct_24", 15, 1, 3),
    ]);
    let cost = CostModel::default();
    let trace_cap = trace_capacity();
    let mut grows = 0usize;
    let mut programs = 0usize;
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Figure);
        let overheads: Vec<f64> = FIG4_3_THREADS
            .iter()
            .map(|&t| 100.0 * barrier(model.as_ref(), t, &cost).idle_fraction())
            .collect();
        if let Some(cap) = trace_cap {
            // The same 24-thread run, with the per-thread barrier waits
            // recorded: trace-report's "barrier idle" reproduces this row.
            let traced = barrier_traced(model.as_ref(), FIG4_3_THREADS[1], &cost, Some(cap));
            if let Some(trace) = traced.trace {
                write_trace(&format!("fig4_3.{}", info.name.to_lowercase()), &trace);
            }
        }
        table.row(&[&info.name, &overheads[0], &overheads[1]]);
        programs += 1;
        grows += usize::from(overheads[1] > overheads[0]);
    }
    println!("(overhead grows with thread count for {grows}/{programs} programs)");
    table.finish("fig4_3");
    if let Some(cap) = trace_cap {
        // Real-thread companions of the simulated traces above.
        write_engine_traces(cap);
    }
}
