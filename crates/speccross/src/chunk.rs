//! Chunked speculation: the pure rules. The unit of the worker protocol is
//! a *chunk* of `K` consecutive tasks of one epoch — one frontier publish,
//! one gate, one board snapshot and one position advance per chunk, one
//! check request per maximal *exact run* of its signatures; `K = 1` is the
//! thesis' per-iteration protocol. What each rule buys and why it is sound:
//! docs/CHECKER.md, "Chunked speculation".

use std::ops::Range;

use crossinvoc_runtime::signature::AccessSignature;

/// Largest chunk [`chunk_len`] ever picks.
pub const MAX_CHUNK: usize = 32;

/// The chunk length `K` of a region of `total_tasks` tasks in `num_epochs`
/// epochs run by `workers` workers under the speculative range
/// `spec_distance`: `min(mean / 4W, d / 2W)` clamped to `1..=`[`MAX_CHUNK`],
/// `mean` the tasks per epoch — about four chunks per worker per epoch, and
/// a gang of in-flight chunks plus one of slack inside the range. A function
/// of the whole region (not of where a pass starts), so task `t` of every
/// epoch, in every pass, runs on the same worker.
pub fn chunk_len(
    total_tasks: u64,
    num_epochs: usize,
    workers: usize,
    spec_distance: Option<u64>,
) -> usize {
    let workers = workers.max(1) as u64;
    let mean = total_tasks / num_epochs.max(1) as u64;
    let by_gate = spec_distance.map_or(u64::MAX, |d| d / (2 * workers));
    (mean / (4 * workers))
        .min(by_gate)
        .clamp(1, MAX_CHUNK as u64) as usize
}

/// Worker `tid`'s share of an `ntasks`-task epoch, chunk by chunk in
/// increasing order: tasks are dealt block-cyclically,
/// `worker(t) = (t / chunk) % workers`, every task to exactly one worker.
///
/// # Panics
///
/// Panics if `chunk` or `workers` is zero.
pub fn share(
    ntasks: usize,
    chunk: usize,
    workers: usize,
    tid: usize,
) -> impl Iterator<Item = Range<usize>> {
    (tid * chunk..ntasks)
        .step_by(chunk * workers)
        .map(move |start| start..(start + chunk).min(ntasks))
}

/// Splits a chunk's task signatures into maximal *exact runs*: consecutive
/// signatures fold into one while [`AccessSignature::merge_is_exact`] holds,
/// so a run conflicts with exactly what its members conflict with. A run is
/// reported with the per-thread task number of its first non-empty member;
/// empty signatures join any run and start none.
#[derive(Debug)]
pub struct ExactRuns<S> {
    open: (u32, S),
}

impl<S: AccessSignature> ExactRuns<S> {
    /// Adds the signature of the task at per-thread task number `at`.
    /// Returns the run it ended, if it could not join the open one.
    pub fn push(&mut self, at: u32, sig: S) -> Option<(u32, S)> {
        if self.open.1.is_empty() {
            self.open = (at, sig);
        } else if self.open.1.merge_is_exact(&sig) {
            self.open.1.merge(&sig);
        } else {
            return Some(std::mem::replace(&mut self.open, (at, sig)));
        }
        None
    }

    /// Ends the chunk: the open run, unless nothing was recorded in it.
    pub fn finish(&mut self) -> Option<(u32, S)> {
        (!self.open.1.is_empty()).then(|| std::mem::take(self).open)
    }
}

impl<S: AccessSignature> Default for ExactRuns<S> {
    /// A splitter with no run open.
    fn default() -> Self {
        Self {
            open: (0, S::empty()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::{AccessKind, RangeSignature};
    use proptest::prelude::*;

    #[test]
    fn chunk_rule_on_known_shapes() {
        // The benchmark's JACOBI at T = 2: 1,000 epochs of 100 tasks, one
        // worker, speculative range 99 — the epoch term decides.
        assert_eq!(chunk_len(100_000, 1000, 1, Some(99)), 25);
        // Two workers, range 22: the gate term decides (22 / 4).
        assert_eq!(chunk_len(66_000, 100, 2, Some(22)), 5);
        // Ungated and large: the cap.
        assert_eq!(chunk_len(1 << 20, 4, 2, None), MAX_CHUNK);
        // Degenerate regions still get a chunk of one.
        assert_eq!(chunk_len(0, 0, 0, None), 1);
        assert_eq!(chunk_len(10, 0, 1, Some(0)), 1);
    }

    proptest! {
        /// `chunk_len` takes the region's totals and nothing else, so it
        /// cannot depend on where a pass starts; what is left to check is
        /// the thresholds, the gang-fits-the-range bound and the cap.
        #[test]
        fn chunk_rule_respects_its_bounds(
            total in 0u64..1 << 20,
            epochs in 0usize..2000,
            workers in 1usize..=8,
            distance in 0u64..4096,
            gated in any::<bool>(),
        ) {
            let distance = gated.then_some(distance);
            let k = chunk_len(total, epochs, workers, distance) as u64;
            let w = workers as u64;
            let mean = total / epochs.max(1) as u64;
            prop_assert!((1..=MAX_CHUNK as u64).contains(&k));
            if mean < 8 * w || distance.is_some_and(|d| d < 4 * w) {
                prop_assert_eq!(k, 1);
            }
            if k > 1 {
                prop_assert!(4 * w * k <= mean);
                prop_assert!(distance.is_none_or(|d| 2 * w * k <= d));
            }
        }

        #[test]
        fn shares_deal_every_task_once_in_increasing_order(
            ntasks in 0usize..400,
            chunk in 1usize..=MAX_CHUNK,
            workers in 1usize..=6,
        ) {
            let mut owner = vec![None; ntasks];
            for tid in 0..workers {
                let mut next = 0;
                for tasks in share(ntasks, chunk, workers, tid) {
                    prop_assert!(!tasks.is_empty() && tasks.len() <= chunk);
                    prop_assert!(tasks.start >= next, "chunks come in increasing order");
                    next = tasks.end;
                    for task in tasks {
                        prop_assert_eq!((task / chunk) % workers, tid);
                        prop_assert_eq!(owner[task].replace(tid), None, "task {} dealt twice", task);
                    }
                }
            }
            prop_assert!(owner.iter().all(Option::is_some));
        }
    }

    fn sig(reads: &[usize], writes: &[usize]) -> RangeSignature {
        let mut s = RangeSignature::empty();
        for &a in reads {
            s.record(a, AccessKind::Read);
        }
        for &a in writes {
            s.record(a, AccessKind::Write);
        }
        s
    }

    /// Every run a chunk of `sigs` starting at task number 10 splits into.
    fn runs<S: AccessSignature>(sigs: Vec<S>) -> Vec<(u32, S)> {
        let mut splitter = ExactRuns::default();
        let mut out = Vec::new();
        for (i, s) in sigs.into_iter().enumerate() {
            out.extend(splitter.push(10 + i as u32, s));
        }
        out.extend(splitter.finish());
        assert!(splitter.finish().is_none(), "finish leaves no run open");
        out
    }

    #[test]
    fn a_chunk_of_one_is_its_task() {
        assert_eq!(runs(vec![sig(&[3], &[9])]), vec![(10, sig(&[3], &[9]))]);
        assert_eq!(runs(vec![RangeSignature::empty()]), vec![]);
    }

    #[test]
    fn adjacent_signatures_fold_and_gaps_split() {
        // Writes 4, 5, 6 join; 8 leaves a gap of one.
        let split = runs(vec![
            sig(&[], &[4]),
            sig(&[], &[5]),
            sig(&[], &[6]),
            sig(&[], &[8]),
        ]);
        assert_eq!(split, vec![(10, sig(&[], &[4, 6])), (13, sig(&[], &[8]))]);
        // Both kinds must join: the writes touch, the reads do not.
        let split = runs(vec![sig(&[0], &[4]), sig(&[2], &[5])]);
        assert_eq!(split, vec![(10, sig(&[0], &[4])), (11, sig(&[2], &[5]))]);
    }

    #[test]
    fn empty_signatures_join_any_run_and_start_none() {
        let e = RangeSignature::empty;
        let split = runs(vec![e(), sig(&[], &[4]), e(), sig(&[], &[5]), e()]);
        assert_eq!(split, vec![(11, sig(&[], &[4, 5]))]);
    }

    /// A scheme that keeps the trait's default `merge_is_exact`.
    #[derive(Debug, Clone, PartialEq)]
    struct Opaque(RangeSignature);

    impl AccessSignature for Opaque {
        fn empty() -> Self {
            Opaque(RangeSignature::empty())
        }
        fn record(&mut self, addr: usize, kind: AccessKind) {
            self.0.record(addr, kind);
        }
        fn conflicts_with(&self, other: &Self) -> bool {
            self.0.conflicts_with(&other.0)
        }
        fn is_empty(&self) -> bool {
            self.0.is_empty()
        }
        fn merge(&mut self, other: &Self) {
            self.0.merge(&other.0);
        }
        fn addr_span(&self) -> Option<(usize, usize)> {
            self.0.addr_span()
        }
    }

    #[test]
    fn a_scheme_without_an_exactness_test_never_folds() {
        let tasks = vec![
            Opaque(sig(&[], &[4])),
            Opaque(sig(&[], &[4])),
            Opaque(sig(&[], &[5])),
        ];
        let split = runs(tasks.clone());
        assert_eq!(
            split,
            vec![
                (10, tasks[0].clone()),
                (11, tasks[1].clone()),
                (12, tasks[2].clone())
            ]
        );
    }
}
