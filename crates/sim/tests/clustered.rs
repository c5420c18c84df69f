//! The simulated SPECCROSS checker on the clustered-epoch shape the
//! BENCH_5 gate measures (`crossinvoc_workloads::synthetic::Clustered`):
//! the epoch-summary fast path cuts checker work without moving a
//! verdict. (Integration tests rather
//! than unit tests because the shape lives in the workloads crate, which
//! depends on this one.)

use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::synthetic::Clustered;

#[test]
fn epoch_summaries_skip_disjoint_buckets_without_changing_verdicts() {
    // Eight tasks per (worker, epoch): the checker buckets its log by
    // (worker, epoch), so with one task per bucket an aggregate test is the
    // member test and summaries cannot beat the member scan.
    let w = Clustered {
        epochs: 60,
        tasks: 64,
    };
    let on = speccross(
        &w,
        &SpecSimParams::with_threads(8).trace(1 << 17),
        &CostModel::default(),
    );
    let off = speccross(
        &w,
        &SpecSimParams::with_threads(8)
            .trace(1 << 17)
            .epoch_summaries(false),
        &CostModel::default(),
    );
    assert_eq!(on.stats.misspeculations, 0);
    assert_eq!(off.stats.misspeculations, 0);
    assert_eq!(on.stats.tasks, off.stats.tasks);
    assert!(on.stats.checker_epoch_skips > 0, "buckets must be skipped");
    assert_eq!(off.stats.checker_epoch_skips, 0);
    let comparisons = |r: &SimResult| {
        crossinvoc_runtime::trace::TraceReport::from_trace(r.trace.as_ref().unwrap())
            .checker_comparisons
    };
    let (c_on, c_off) = (comparisons(&on), comparisons(&off));
    assert!(
        c_on * 5 <= c_off,
        "aggregate tests must replace per-entry scans: {c_on} vs {c_off}"
    );
    assert!(
        on.total_ns <= off.total_ns,
        "a faster checker can only help"
    );
}
