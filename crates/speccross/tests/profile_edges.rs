//! Edge cases of the dependence-distance profiler and the
//! recommendation rule of §4.4.

use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_speccross::{DistanceProfiler, ProfileReport};

fn sig(addr: usize, kind: AccessKind) -> RangeSignature {
    let mut s = RangeSignature::empty();
    s.record(addr, kind);
    s
}

#[test]
fn recommendation_follows_the_worker_threshold() {
    let conflicting = ProfileReport {
        min_distance: Some(23),
        conflicts: 4,
        tasks: 100,
        epochs: 10,
        horizon: 100,
    };
    assert!(!conflicting.recommends_speculation(24));
    assert!(conflicting.recommends_speculation(23));
    let clean = ProfileReport {
        min_distance: None,
        conflicts: 0,
        tasks: 100,
        epochs: 10,
        horizon: 100,
    };
    assert!(clean.recommends_speculation(u64::MAX));
}

#[test]
fn write_after_read_counts_as_a_dependence() {
    // Epoch 0 reads cell 5; epoch 1 writes it: an anti-dependence a barrier
    // would have ordered, so the profiler must see it.
    let mut p = DistanceProfiler::<RangeSignature>::new(4);
    p.record_task(sig(5, AccessKind::Read));
    p.epoch_boundary();
    p.record_task(sig(5, AccessKind::Write));
    let r = p.report();
    assert_eq!(r.min_distance, Some(1));
}

#[test]
fn read_after_read_is_not_a_dependence() {
    let mut p = DistanceProfiler::<RangeSignature>::new(4);
    p.record_task(sig(5, AccessKind::Read));
    p.epoch_boundary();
    p.record_task(sig(5, AccessKind::Read));
    assert_eq!(p.report().conflicts, 0);
}

#[test]
fn distances_accumulate_across_multiple_epoch_gaps() {
    // Conflicts at 1-epoch and 3-epoch lags: the minimum wins.
    let mut p = DistanceProfiler::<RangeSignature>::new(8);
    p.record_task(sig(1, AccessKind::Write)); // task 0
    p.record_task(sig(2, AccessKind::Write)); // task 1
    p.epoch_boundary();
    p.record_task(sig(9, AccessKind::Write)); // task 2
    p.record_task(sig(1, AccessKind::Write)); // task 3: distance 3 to task 0
    p.epoch_boundary();
    p.record_task(sig(2, AccessKind::Write)); // task 4: distance 3 to task 1
    p.epoch_boundary();
    p.record_task(sig(9, AccessKind::Write)); // task 5: distance 3 to task 2
    let r = p.report();
    assert_eq!(r.min_distance, Some(3));
    assert_eq!(r.conflicts, 3);
}

#[test]
fn a_task_counts_its_nearest_conflict_only() {
    // Task 2 writes a cell both tasks of epoch 0 read: two conflicting
    // pairs, one counted — the nearest, which sets the minimum.
    let mut p = DistanceProfiler::<RangeSignature>::new(4);
    p.record_task(sig(5, AccessKind::Read)); // task 0
    p.record_task(sig(5, AccessKind::Read)); // task 1
    p.epoch_boundary();
    p.record_task(sig(5, AccessKind::Write)); // task 2
    let r = p.report();
    assert_eq!(r.min_distance, Some(1));
    assert_eq!(r.conflicts, 1);
}

#[test]
fn tasks_and_epochs_are_counted_exactly() {
    let mut p = DistanceProfiler::<RangeSignature>::new(2);
    for epoch in 0..5 {
        for task in 0..7 {
            p.record_task(sig(epoch * 7 + task, AccessKind::Write));
        }
        p.epoch_boundary();
    }
    let r = p.report();
    assert_eq!(r.tasks, 35);
    assert_eq!(r.epochs, 5);
}

#[test]
fn empty_profile_reports_cleanly() {
    let p = DistanceProfiler::<RangeSignature>::new(2);
    let r = p.report();
    assert_eq!(r.tasks, 0);
    assert_eq!(r.min_distance, None);
    assert!(r.recommends_speculation(1));
}
