//! Fig. 5.3 — loop speedup vs. number of checkpoints, with and without a
//! randomly triggered misspeculation (24 threads).
//!
//! More checkpoints cost more when speculation succeeds, but bound the
//! re-execution window when it fails; the two curves cross, which is the
//! figure's point. Geomean over the eight SPECCROSS benchmarks.

use crossinvoc_bench::{geomean, spec_params, trace_capacity, write_trace, Col, Table};
use crossinvoc_runtime::critpath::what_if;
use crossinvoc_runtime::hash::SplitMix64;
use crossinvoc_runtime::trace::WakeEdge;
use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::{registry, Scale};

fn main() {
    println!("Fig. 5.3: speedup vs checkpoint count (24 threads)");
    let mut table = Table::new(&[
        Col::text("checkpoints", 12),
        Col::num("speedup_no_misspec", 18, 2, 4),
        Col::num("speedup_with_misspec", 20, 2, 4),
    ]);
    let cost = CostModel::default();
    let threads = 24;
    let mut rng = SplitMix64::new(0x5EED);
    for checkpoints in [2usize, 5, 10, 25, 50, 100] {
        let mut clean = Vec::new();
        let mut faulty = Vec::new();
        for info in registry().into_iter().filter(|b| b.speccross) {
            let model = info.model(Scale::Figure);
            let seq = sequential(model.as_ref(), &cost).total_ns;
            let epochs = model.num_invocations();
            let every = (epochs / checkpoints).max(1);
            let params = spec_params(&info, Scale::Figure, threads).checkpoint_every(every);
            clean.push(speccross(model.as_ref(), &params, &cost).speedup_over(seq));
            // One misspeculation at a random task, as the thesis does.
            let total = model.total_iterations();
            let inject = rng.next_below(total.max(1));
            let params = params.inject_misspec_at_task(Some(inject));
            faulty.push(speccross(model.as_ref(), &params, &cost).speedup_over(seq));
        }
        table.row(&[&checkpoints, &geomean(&clean), &geomean(&faulty)]);
    }
    table.finish("fig5_3");

    // Companion table: per benchmark, the *measured* barrier-vs-SPECCROSS
    // ratio next to the ratio the what-if analysis *predicts* by replaying
    // the traced barrier run with its barrier edges zeroed (see
    // docs/OBSERVABILITY.md). Test scale keeps every record in the ring, so
    // the replay sees the full DAG.
    println!("what-if: predicted vs measured barrier-removal speedup");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::num("measured_barrier_over_speccross", 31, 3, 4),
        Col::num("whatif_predicted_barrier_removal", 32, 3, 4),
    ]);
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Test);
        let params = spec_params(&info, Scale::Test, threads);
        let spec = speccross(model.as_ref(), &params, &cost);
        let bar = barrier_traced(model.as_ref(), threads, &cost, Some(1 << 16));
        let measured = bar.total_ns as f64 / spec.total_ns.max(1) as f64;
        let trace = bar.trace.expect("tracing was requested");
        let predicted = what_if(&trace, &[WakeEdge::Barrier]).predicted_speedup();
        table.row(&[&info.name, &measured, &predicted]);
    }
    table.finish("fig5_3_whatif");
    if let Some(cap) = trace_capacity() {
        // One exemplar trace: the first SPECCROSS benchmark with a single
        // mid-region misspeculation, from which trace-report reconstructs
        // the misspeculation ledger and the recovery's barrier tail.
        if let Some(info) = registry().into_iter().find(|b| b.speccross) {
            let model = info.model(Scale::Figure);
            let epochs = model.num_invocations();
            let inject = model.total_iterations() / 2;
            let params = spec_params(&info, Scale::Figure, threads)
                .checkpoint_every((epochs / 10).max(1))
                .inject_misspec_at_task(Some(inject))
                .trace(cap);
            let r = speccross(model.as_ref(), &params, &cost);
            if let Some(trace) = r.trace {
                write_trace(&format!("fig5_3.{}", info.name.to_lowercase()), &trace);
            }
        }
    }
}
