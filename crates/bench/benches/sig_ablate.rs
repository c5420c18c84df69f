//! Ablation — range vs. Bloom access signatures (§4.2.1).
//!
//! The signature scheme trades size for false positives: ranges summarize
//! clustered accesses exactly but cover untouched cells between scattered
//! extremes; Bloom filters track scattered sets but can collide. This
//! ablation profiles every SPECCROSS benchmark under both schemes and
//! reports the conflict count and minimum distance each observes — a
//! smaller distance under a scheme is a *false-positive-driven* tightening
//! of the speculative range (extra gating, never unsoundness).

use crossinvoc_bench::{Col, Table};
use crossinvoc_runtime::signature::{AccessSignature, BloomSignature, RangeSignature};
use crossinvoc_sim::SimWorkload;
use crossinvoc_speccross::DistanceProfiler;
use crossinvoc_workloads::{registry, Scale};

fn profile_with<S: AccessSignature>(model: &dyn SimWorkload) -> (Option<u64>, u64) {
    let mut profiler = DistanceProfiler::<S>::new(6);
    let mut pairs = Vec::new();
    for inv in 0..model.num_invocations() {
        for iter in 0..model.num_iterations(inv) {
            pairs.clear();
            model.accesses(inv, iter, &mut pairs);
            let mut sig = S::empty();
            for &(addr, kind) in &pairs {
                sig.record(addr, kind);
            }
            profiler.record_task(sig);
        }
        profiler.epoch_boundary();
    }
    let report = profiler.report();
    (report.min_distance, report.conflicts)
}

fn fmt(d: Option<u64>) -> String {
    d.map_or("*".to_owned(), |v| v.to_string())
}

fn main() {
    println!("Signature ablation: range vs Bloom (profiled conflicts)");
    let mut table = Table::new(&[
        Col::text("benchmark", 16),
        Col::text("range_distance", 14),
        Col::text("range_conflicts", 15),
        Col::text("bloom_distance", 14),
        Col::text("bloom_conflicts", 15),
    ]);
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Test);
        let (rd, rc) = profile_with::<RangeSignature>(model.as_ref());
        let (bd, bc) = profile_with::<BloomSignature>(model.as_ref());
        table.row(&[&info.name, &fmt(rd), &rc, &fmt(bd), &bc]);
    }
    table.finish("sig_ablate");
}
