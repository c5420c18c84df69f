//! Dependence-distance profiling (§4.4, Table 5.3).
//!
//! Before speculating, SPECCROSS profiles the program on a training input:
//! every task's signature is compared against tasks of earlier epochs, and
//! for each conflicting pair the *dependence distance* — the number of tasks
//! separating them in the sequential (epoch-major) order — is recorded. The
//! minimum observed distance parameterizes the speculative-range gate at
//! run time: the leading thread is never allowed to run more than that many
//! tasks ahead of the trailing thread, so profiled dependences cannot
//! manifest as misspeculation. If no conflict is ever observed the table
//! prints `*` — but "no conflict within the profiled window" is not
//! "unbounded": the profile vouches only for pairs as close as the window
//! looked back, and [`ProfileReport::speculative_range`] gates at that
//! horizon.

use crossinvoc_runtime::signature::AccessSignature;

/// Outcome of a profiling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReport {
    /// Minimum tasks between two cross-epoch conflicting tasks, or `None`
    /// if no conflict manifested (Table 5.3 prints `*`).
    pub min_distance: Option<u64>,
    /// Number of conflicting cross-epoch pairs observed.
    pub conflicts: u64,
    /// Tasks profiled.
    pub tasks: u64,
    /// Epochs profiled.
    pub epochs: u64,
    /// Task horizon the sliding window covered: `window_epochs` epochs of
    /// the profile's mean size, or all of `tasks` when nothing ever slid
    /// out. Pairs farther apart went unexamined.
    pub horizon: u64,
}

impl ProfileReport {
    /// The speculative range to gate with: the closest profiled conflict,
    /// else the horizon the profile covered — a clean profile says nothing
    /// about pairs it never compared, so the leader may run that far ahead
    /// and no farther.
    pub fn speculative_range(&self) -> u64 {
        self.min_distance.unwrap_or(self.horizon)
    }

    /// Whether speculation is recommended: either no conflict manifested or
    /// the closest one is farther than `threshold` tasks apart (the thesis
    /// defaults the threshold to the worker count, §4.4).
    pub fn recommends_speculation(&self, threshold: u64) -> bool {
        match self.min_distance {
            None => true,
            Some(d) => d >= threshold,
        }
    }
}

/// Streaming minimum-dependence-distance profiler.
///
/// Feed tasks in sequential order with [`DistanceProfiler::epoch_boundary`]
/// between epochs; read the result with [`DistanceProfiler::report`].
///
/// Signatures are retained for a sliding window of epochs
/// (`window_epochs`). Conflicts farther apart than the window are never
/// seen: the reported minimum can only be too large, never too small, and
/// a clean report (`min_distance: None`) is clean only out to
/// [`ProfileReport::horizon`] — run ungated, a region may drift far past
/// that and hit a dependence the profile never looked at.
#[derive(Debug)]
pub struct DistanceProfiler<S> {
    window_epochs: u32,
    /// `(epoch, global_task_index, signature)` for retained tasks.
    history: Vec<(u32, u64, S)>,
    current_epoch: u32,
    next_task: u64,
    tasks_in_current_epoch: u64,
    min_distance: Option<u64>,
    conflicts: u64,
}

impl<S: AccessSignature> DistanceProfiler<S> {
    /// Creates a profiler comparing each task against the previous
    /// `window_epochs` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `window_epochs` is zero.
    pub fn new(window_epochs: u32) -> Self {
        assert!(window_epochs > 0, "window must cover at least one epoch");
        Self {
            window_epochs,
            history: Vec::new(),
            current_epoch: 0,
            next_task: 0,
            tasks_in_current_epoch: 0,
            min_distance: None,
            conflicts: 0,
        }
    }

    /// Records the end of the current epoch.
    pub fn epoch_boundary(&mut self) {
        self.current_epoch += 1;
        self.tasks_in_current_epoch = 0;
        let keep_from = self.current_epoch.saturating_sub(self.window_epochs);
        self.history.retain(|&(e, _, _)| e >= keep_from);
    }

    /// Records the next task in sequential order.
    ///
    /// The history is scanned newest-first and abandoned once every
    /// remaining entry is strictly farther than the current minimum — the
    /// reported minimum is exact, and `conflicts` counts every pair at
    /// distances up to (and including) it.
    pub fn record_task(&mut self, sig: S) {
        let index = self.next_task;
        self.next_task += 1;
        self.tasks_in_current_epoch += 1;
        if !sig.is_empty() {
            for (epoch, past_index, past_sig) in self.history.iter().rev() {
                let distance = index - past_index;
                if let Some(d) = self.min_distance {
                    if distance > d {
                        break; // older entries are farther still
                    }
                }
                if *epoch != self.current_epoch && sig.conflicts_with(past_sig) {
                    self.conflicts += 1;
                    self.min_distance = Some(match self.min_distance {
                        Some(d) => d.min(distance),
                        None => distance,
                    });
                }
            }
        }
        self.history.push((self.current_epoch, index, sig));
    }

    /// Finalizes the profile.
    pub fn report(&self) -> ProfileReport {
        let epochs = self.current_epoch as u64 + u64::from(self.tasks_in_current_epoch > 0);
        ProfileReport {
            min_distance: self.min_distance,
            conflicts: self.conflicts,
            tasks: self.next_task,
            epochs,
            horizon: (self.window_epochs as u64 * self.next_task / epochs.max(1))
                .min(self.next_task),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::{AccessKind, RangeSignature};

    fn sig(addr: usize) -> RangeSignature {
        let mut s = RangeSignature::empty();
        s.record(addr, AccessKind::Write);
        s
    }

    #[test]
    fn no_conflicts_reports_unbounded_distance() {
        let mut p = DistanceProfiler::new(4);
        for epoch in 0..3 {
            for task in 0..5 {
                p.record_task(sig(epoch * 5 + task));
            }
            p.epoch_boundary();
        }
        let r = p.report();
        assert_eq!(r.min_distance, None);
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.tasks, 15);
        assert!(r.recommends_speculation(24));
    }

    #[test]
    fn adjacent_epoch_conflict_distance() {
        let mut p = DistanceProfiler::new(4);
        // Epoch 0: tasks 0..4 write cells 0..4.
        for task in 0..4 {
            p.record_task(sig(task));
        }
        p.epoch_boundary();
        // Epoch 1: task 4 (global) writes cell 1 → conflicts with global
        // task 1 at distance 3.
        p.record_task(sig(1));
        let r = p.report();
        assert_eq!(r.min_distance, Some(3));
        assert_eq!(r.conflicts, 1);
        assert!(!r.recommends_speculation(8));
        assert!(r.recommends_speculation(3));
    }

    #[test]
    fn same_epoch_conflicts_are_ignored() {
        let mut p = DistanceProfiler::new(4);
        p.record_task(sig(7));
        p.record_task(sig(7)); // same epoch: never a barrier violation
        assert_eq!(p.report().conflicts, 0);
    }

    #[test]
    fn minimum_is_kept_over_many_conflicts() {
        let mut p = DistanceProfiler::new(8);
        for task in 0..10 {
            p.record_task(sig(task));
        }
        p.epoch_boundary();
        p.record_task(sig(0)); // distance 10
        p.record_task(sig(9)); // distance 2
        let r = p.report();
        assert_eq!(r.min_distance, Some(2));
        assert_eq!(r.conflicts, 2);
    }

    #[test]
    fn window_limits_comparisons() {
        let mut p = DistanceProfiler::new(1);
        p.record_task(sig(5));
        p.epoch_boundary();
        p.record_task(sig(42));
        p.epoch_boundary();
        // Epoch 2 conflicts only with epoch 0, which fell out of the window.
        p.record_task(sig(5));
        assert_eq!(p.report().conflicts, 0);
    }

    #[test]
    fn clean_profile_is_clean_only_out_to_the_window() {
        // Epoch e conflicts with epoch e + 3 only; a 1-epoch window never
        // sees it, and says so through the horizon instead of "unbounded".
        let mut p = DistanceProfiler::new(1);
        for epoch in 0..6 {
            for task in 0..5 {
                p.record_task(sig((epoch % 3) * 5 + task));
            }
            p.epoch_boundary();
        }
        let r = p.report();
        assert_eq!(r.min_distance, None);
        assert_eq!(r.horizon, 5, "one epoch of five tasks");
        assert_eq!(r.speculative_range(), 5);
        // A window that never slides has compared every pair.
        let mut all = DistanceProfiler::new(8);
        for task in 0..7 {
            all.record_task(sig(task));
            all.epoch_boundary();
        }
        assert_eq!(all.report().speculative_range(), 7);
        // A profiled conflict is the range, whatever the horizon.
        let mut near = DistanceProfiler::new(1);
        near.record_task(sig(3));
        near.epoch_boundary();
        near.record_task(sig(3));
        assert_eq!(near.report().speculative_range(), 1);
    }

    #[test]
    fn empty_signatures_are_cheap() {
        let mut p: DistanceProfiler<RangeSignature> = DistanceProfiler::new(2);
        p.record_task(RangeSignature::empty());
        p.epoch_boundary();
        p.record_task(RangeSignature::empty());
        assert_eq!(p.report().conflicts, 0);
        assert_eq!(p.report().tasks, 2);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = DistanceProfiler::<RangeSignature>::new(0);
    }
}
