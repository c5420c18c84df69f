//! The simulated SPECCROSS checker on the clustered-epoch shape the
//! BENCH_5/7/10 gates measure (`crossinvoc_workloads::synthetic::Clustered`):
//! the epoch-summary fast path, checker sharding and static elision each
//! cut checker work without moving a verdict. (Integration tests rather
//! than unit tests because the shape lives in the workloads crate, which
//! depends on this one.)

use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::synthetic::Clustered;

/// Epochs touch disjoint address clusters, so cross-epoch overlaps never
/// conflict and every bucket aggregate is disjoint from every probe.
fn clustered() -> Clustered {
    Clustered {
        epochs: 60,
        tasks: 32,
        proven: true,
    }
}

#[test]
fn epoch_summaries_skip_disjoint_buckets_without_changing_verdicts() {
    // Eight tasks per (worker, epoch): the checker buckets its log by
    // (worker, epoch), so with one task per bucket an aggregate test is the
    // member test and summaries cannot beat the member scan.
    let w = Clustered {
        epochs: 60,
        tasks: 64,
        proven: false,
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

#[test]
fn sharding_preserves_verdicts_on_clustered_epochs() {
    // Disjoint per-epoch address clusters: no conflicts at any shard
    // count, and splitting the admission work can only shorten the
    // checker's critical path.
    let w = clustered();
    let one = speccross(&w, &SpecSimParams::with_threads(32), &CostModel::default());
    for shards in [2, 4, 8] {
        let n = speccross(
            &w,
            &SpecSimParams::with_threads(32).checker_shards(shards),
            &CostModel::default(),
        );
        assert_eq!(n.stats.misspeculations, 0);
        assert_eq!(n.stats.tasks, one.stats.tasks);
        assert_eq!(n.stats.check_requests, one.stats.check_requests);
        assert!(
            n.total_ns <= one.total_ns,
            "sharding the checker can only help here: {} vs {}",
            n.total_ns,
            one.total_ns
        );
    }
}

#[test]
fn elision_skips_proven_invocations_without_changing_verdicts() {
    let w = clustered();
    let off = speccross(
        &w,
        &SpecSimParams::with_threads(32).trace(1 << 17),
        &CostModel::default(),
    );
    let on = speccross(
        &w,
        &SpecSimParams::with_threads(32).trace(1 << 17).elide(true),
        &CostModel::default(),
    );
    assert_eq!(on.stats.misspeculations, off.stats.misspeculations);
    assert_eq!(on.stats.tasks, off.stats.tasks);
    assert_eq!(on.stats.check_requests, 0, "fully-proven region");
    assert!(on.stats.elided_signatures > 0);
    assert_eq!(on.stats.elided_admits, on.stats.elided_signatures);
    assert!(on.stats.proven_accesses >= on.stats.elided_signatures);
    assert_eq!(off.stats.elided_signatures, 0, "off by default");
    assert!(
        on.total_ns <= off.total_ns,
        "a checker with no work can only help"
    );
    let report = crossinvoc_runtime::trace::TraceReport::from_trace(on.trace.as_ref().unwrap());
    assert_eq!(report.elided_tasks, on.stats.elided_signatures);
    assert_eq!(report.elided_accesses, on.stats.proven_accesses);
}
