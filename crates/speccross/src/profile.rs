//! Dependence-distance profiling (§4.4, Table 5.3).
//!
//! Before speculating, SPECCROSS profiles the program on a training input:
//! every task's signature is compared against tasks of earlier epochs, and
//! the *dependence distance* of its nearest conflict — the number of tasks
//! separating them in the sequential (epoch-major) order — is recorded. The
//! minimum observed distance parameterizes the speculative-range gate at
//! run time: the leading thread is never allowed to run more than that many
//! tasks ahead of the trailing thread, so profiled dependences cannot
//! manifest as misspeculation. If no conflict is ever observed the table
//! prints `*` — but "no conflict within the profiled window" is not
//! "unbounded": the profile vouches only for pairs as close as the window
//! looked back, and [`ProfileReport::speculative_range`] gates at that
//! horizon.
//!
//! # The summarised scan
//!
//! The retained history is logged at three levels: each closed epoch's
//! union signature ([`AccessSignature::merge`]) with its first and last
//! global task index, the same for each block of at most `BLOCK = 16`
//! consecutive tasks of one epoch, and the member signatures themselves.
//! A task is scanned newest-first, never touching its own epoch: an epoch
//! whose newest member is already farther than the running minimum ends
//! the scan, an epoch whose union is disjoint from the task is skipped
//! whole, and inside an epoch its blocks get the same two rules; inside a
//! block the members are compared newest-first and the first conflict is
//! counted and ends the scan. This is exactly the member-by-member scan:
//! `merge` is monotone under conflict — a member conflicting with the task
//! makes its union conflict too, the property the checker's epoch-bucket
//! skip rests on (docs/CHECKER.md) — so a skipped summary hides no
//! conflict; and distances strictly grow along a newest-first scan that
//! stops once past the minimum, so the member-by-member scan also counts
//! at most one conflict per task, the nearest, and lowers the minimum to it.

use std::collections::VecDeque;

use crossinvoc_runtime::signature::AccessSignature;

/// Tasks per block summary: a block never straddles an epoch boundary.
const BLOCK: u64 = 16;

/// Outcome of a profiling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReport {
    /// Minimum tasks between two cross-epoch conflicting tasks, or `None`
    /// if no conflict manifested (Table 5.3 prints `*`).
    pub min_distance: Option<u64>,
    /// Tasks whose nearest conflicting task of an earlier epoch inside the
    /// window lay no farther than the minimum distance found so far (ties
    /// included) — at most one per task, not every conflicting pair.
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

/// The union of consecutive tasks `first..=last` (global indices).
#[derive(Debug)]
struct Summary<S> {
    union: S,
    first: u64,
    last: u64,
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
///
/// The window is logged as epoch summaries, 16-task block summaries and
/// member signatures (the module docs' summarised scan), and retired whole
/// epochs at a time from the front at each boundary. A task costs one
/// comparison per retained epoch nearer than the minimum, plus one per
/// block of the epochs whose union it overlaps, plus one per member of the
/// blocks whose union it overlaps.
#[derive(Debug)]
pub struct DistanceProfiler<S> {
    window_epochs: u32,
    /// Retained task signatures, oldest first, ending with the newest task.
    members: VecDeque<S>,
    /// Retained blocks, oldest first; the last `open_blocks` are the
    /// current epoch's.
    blocks: VecDeque<Summary<S>>,
    open_blocks: usize,
    /// Retained non-empty closed epochs, oldest first: number, summary and
    /// how many of `blocks` are theirs.
    epochs: VecDeque<(u32, Summary<S>, usize)>,
    current_epoch: u32,
    next_task: u64,
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
            members: VecDeque::new(),
            blocks: VecDeque::new(),
            open_blocks: 0,
            epochs: VecDeque::new(),
            current_epoch: 0,
            next_task: 0,
            min_distance: None,
            conflicts: 0,
        }
    }

    /// Records the end of the current epoch.
    pub fn epoch_boundary(&mut self) {
        let open = self.blocks.len() - self.open_blocks;
        if let Some(first) = self.blocks.get(open).map(|b| b.first) {
            let mut union = S::empty();
            for block in self.blocks.range(open..) {
                union.merge(&block.union);
            }
            let last = self.next_task - 1;
            let summary = Summary { union, first, last };
            self.epochs
                .push_back((self.current_epoch, summary, self.open_blocks));
        }
        self.open_blocks = 0;
        self.current_epoch += 1;
        let keep_from = self.current_epoch.saturating_sub(self.window_epochs);
        while let Some((number, summary, blocks)) = self.epochs.front() {
            if *number >= keep_from {
                break;
            }
            self.members
                .drain(..(summary.last - summary.first + 1) as usize);
            self.blocks.drain(..*blocks);
            self.epochs.pop_front();
        }
    }

    /// Records the next task in sequential order.
    ///
    /// The retained earlier epochs are scanned newest-first through their
    /// summaries (see the module docs) and abandoned at the first conflict
    /// or once every remaining task is strictly farther than the current
    /// minimum — the reported minimum is exact.
    pub fn record_task(&mut self, sig: S) {
        let index = self.next_task;
        if !sig.is_empty() {
            self.scan(index, &sig);
        }
        match self.blocks.back_mut() {
            Some(block) if self.open_blocks > 0 && index - block.first < BLOCK => {
                block.union.merge(&sig);
                block.last = index;
            }
            _ => {
                let (union, first, last) = (sig.clone(), index, index);
                self.blocks.push_back(Summary { union, first, last });
                self.open_blocks += 1;
            }
        }
        self.members.push_back(sig);
        self.next_task += 1;
    }

    /// Counts task `index`'s nearest earlier-epoch conflict if it lies
    /// within the running minimum, and lowers the minimum to it.
    fn scan(&mut self, index: u64, sig: &S) {
        let beyond = |last: u64| self.min_distance.is_some_and(|d| index - last > d);
        let base = index - self.members.len() as u64;
        let mut end = self.blocks.len() - self.open_blocks;
        for (_, epoch, count) in self.epochs.iter().rev() {
            let blocks = self.blocks.range(end - count..end);
            end -= count;
            if beyond(epoch.last) {
                return;
            }
            if !epoch.union.conflicts_with(sig) {
                continue;
            }
            for block in blocks.rev() {
                if beyond(block.last) {
                    return;
                }
                if !block.union.conflicts_with(sig) {
                    continue;
                }
                for past in (block.first..=block.last).rev() {
                    if beyond(past) {
                        return;
                    }
                    if self.members[(past - base) as usize].conflicts_with(sig) {
                        self.conflicts += 1;
                        self.min_distance = Some(index - past);
                        return;
                    }
                }
            }
        }
    }

    /// Finalizes the profile.
    pub fn report(&self) -> ProfileReport {
        let epochs = self.current_epoch as u64 + u64::from(self.open_blocks > 0);
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

    /// The member-by-member scan the summarised one must reproduce: every
    /// retained task, newest first, own epoch included but never counted.
    struct Reference<S> {
        window_epochs: u32,
        history: Vec<(u32, u64, S)>,
        current_epoch: u32,
        next_task: u64,
        tasks_in_current_epoch: u64,
        min_distance: Option<u64>,
        conflicts: u64,
    }

    impl<S: AccessSignature> Reference<S> {
        fn new(window_epochs: u32) -> Self {
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

        fn epoch_boundary(&mut self) {
            self.current_epoch += 1;
            self.tasks_in_current_epoch = 0;
            let keep_from = self.current_epoch.saturating_sub(self.window_epochs);
            self.history.retain(|&(e, _, _)| e >= keep_from);
        }

        fn record_task(&mut self, sig: S) {
            let index = self.next_task;
            self.next_task += 1;
            self.tasks_in_current_epoch += 1;
            if !sig.is_empty() {
                for (epoch, past_index, past_sig) in self.history.iter().rev() {
                    let distance = index - past_index;
                    if self.min_distance.is_some_and(|d| distance > d) {
                        break;
                    }
                    if *epoch != self.current_epoch && sig.conflicts_with(past_sig) {
                        self.conflicts += 1;
                        self.min_distance =
                            Some(self.min_distance.map_or(distance, |d| d.min(distance)));
                    }
                }
            }
            self.history.push((self.current_epoch, index, sig));
        }

        fn report(&self) -> ProfileReport {
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

    /// A random task stream: epochs of 0 to 40 tasks (shorter and longer
    /// than a block), each task empty, one access, or a few accesses spread
    /// over the whole address space (a wide range).
    fn stream(seed: u64) -> Vec<Vec<Vec<(usize, AccessKind)>>> {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let space = 2 + pick(300);
        let kind = |bit: usize| {
            if bit == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            }
        };
        (0..1 + pick(30))
            .map(|_| {
                let len = [0, 1 + pick(15), 16, 17 + pick(24)][pick(4)];
                (0..len)
                    .map(|_| match pick(8) {
                        0 => Vec::new(),
                        1 | 2 => (0..2 + pick(3))
                            .map(|_| (pick(space), kind(pick(2))))
                            .collect(),
                        _ => vec![(pick(space), kind(pick(2)))],
                    })
                    .collect()
            })
            .collect()
    }

    /// Feeds `epochs` to both profilers, comparing reports at every
    /// boundary; the last epoch is left open.
    fn agrees_with_reference<S: AccessSignature>(
        epochs: &[Vec<Vec<(usize, AccessKind)>>],
        window: u32,
    ) {
        let mut fast = DistanceProfiler::<S>::new(window);
        let mut slow = Reference::<S>::new(window);
        for (e, tasks) in epochs.iter().enumerate() {
            if e > 0 {
                fast.epoch_boundary();
                slow.epoch_boundary();
            }
            for accesses in tasks {
                let mut sig = S::empty();
                for &(addr, kind) in accesses {
                    sig.record(addr, kind);
                }
                fast.record_task(sig.clone());
                slow.record_task(sig);
            }
            assert_eq!(fast.report(), slow.report(), "window {window}, epoch {e}");
        }
    }

    proptest::proptest! {
        #[test]
        fn summarised_scan_equals_the_member_scan(seed in proptest::prelude::any::<u64>()) {
            let epochs = stream(seed);
            for window in 1..=8 {
                agrees_with_reference::<RangeSignature>(&epochs, window);
                agrees_with_reference::<crossinvoc_runtime::BloomSignature>(&epochs, window);
            }
        }
    }
}
