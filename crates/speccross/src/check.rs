//! The pure misspeculation-detection algorithm (§4.2.1).
//!
//! Barrier semantics demand that every task of epoch *e−1* happen before
//! every task of epoch *e*. SPECCROSS lets epochs overlap and detects, after
//! the fact, whether any pair of tasks whose relative order speculation may
//! have changed actually conflicted. A pair needs checking exactly when
//!
//! 1. the tasks ran on different workers,
//! 2. their epochs differ (same-epoch tasks are independent by the inner
//!    loop's DOALL property — the key saving over TM-style schemes,
//!    Fig. 4.4), and
//! 3. they *overlapped*: the earlier-epoch task had not retired when the
//!    later-epoch task began (observed through the position snapshot the
//!    later task records at start; Fig. 4.6's timing diagram).
//!
//! [`CheckerState::admit`] realises this symmetrically: an arriving task is
//! compared both against logged earlier-epoch tasks that overlapped it, and
//! against logged later-epoch tasks it overlapped (covering stragglers whose
//! requests arrive late).
//!
//! The structure is pure — no threads, no channels, no clock — so the
//! threaded engine's workers (which admit into one shared log under a
//! lock), the discrete-event simulator
//! (`crossinvoc_sim::speccross`, which admits every simulated task through
//! [`CheckerState::admit_parts`] with the position and snapshot read off its
//! virtual timeline) and the tests all drive the same code: there is one
//! definition of which pairs race.

use std::collections::VecDeque;

use crossinvoc_runtime::signature::AccessSignature;
use crossinvoc_runtime::ThreadId;

use crate::position::Position;

/// One task's checking request: who ran it, where, what it touched, and the
/// position every other worker was at when it started.
#[derive(Debug, Clone)]
pub struct CheckRequest<S> {
    /// Worker that executed the task.
    pub tid: ThreadId,
    /// The task's position (epoch, per-thread task number).
    pub pos: Position,
    /// Positions of *all* workers observed at task start (`snapshot[tid]`
    /// is the task's own slot and is ignored).
    pub snapshot: Box<[Position]>,
    /// The task's access signature.
    pub sig: S,
}

/// A detected dependence violation between two overlapping tasks from
/// different epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Worker/position of the earlier-epoch task.
    pub earlier: (ThreadId, Position),
    /// Worker/position of the later-epoch task.
    pub later: (ThreadId, Position),
}

impl Conflict {
    /// Epoch of the earlier participant of *this* conflict.
    ///
    /// Note that [`CheckerState::admit`] returns the first conflict in scan
    /// order, so when several logged tasks conflict with one request this is
    /// **not** necessarily the globally smallest conflicting epoch. That is
    /// fine for recovery: the engine rolls back to the last *checkpoint*,
    /// and a checkpoint only completes once every worker has reached it,
    /// each having admitted its own tasks inline — so every conflict still
    /// live involves epochs after that checkpoint and
    /// the rollback target is the same whichever conflict is reported
    /// first. The value is informational (which pair tripped), not the
    /// recovery bound.
    pub fn earliest_epoch(&self) -> u32 {
        self.earlier.1.epoch
    }
}

/// One logged task: where it ran and what it touched. Its start-time
/// snapshot lives in the owning bucket's flat `snapshots` array.
#[derive(Debug)]
struct Entry<S> {
    pos: Position,
    sig: S,
}

/// One epoch's slice of a worker's signature log, summarized by the union
/// of its members' signatures.
///
/// The conflict test is monotone under signature union (see
/// [`AccessSignature::merge`]): a request disjoint from the aggregate is
/// disjoint from every member, so the whole bucket can be skipped with one
/// comparison instead of one per member.
///
/// Stored struct-of-arrays: the members' snapshots sit in one flat vector,
/// `workers` positions per member, so logging a task boxes nothing and a
/// retired bucket's two vectors are reused whole (`CheckerState::spare`).
#[derive(Debug)]
struct EpochBucket<S> {
    epoch: u32,
    /// Union of every member signature (empty members contribute nothing).
    agg: S,
    /// Members in arrival (= position) order; never empty while logged.
    entries: Vec<Entry<S>>,
    /// Member `i`'s start-time snapshot is `snapshots[i * workers..][..workers]`.
    snapshots: Vec<Position>,
}

impl<S: AccessSignature> EpochBucket<S> {
    fn push(&mut self, pos: Position, snapshot: &[Position], sig: S) {
        self.agg.merge(&sig);
        self.entries.push(Entry { pos, sig });
        self.snapshots.extend_from_slice(snapshot);
    }

    fn newest(&self) -> &Entry<S> {
        self.entries.last().expect("epoch buckets are never empty")
    }
}

/// Append-only signature log plus the conflict test (the Signature Log of
/// Fig. 4.8 merged with `check_request` of Fig. 4.7).
///
/// Each worker's log is bucketed by epoch and every bucket carries an
/// *aggregate* signature — the union of its members'. [`CheckerState::admit`]
/// tests an arriving request against a bucket's aggregate first and skips
/// the whole bucket when disjoint, which turns the common no-conflict case
/// from O(in-flight tasks) into O(in-flight epochs) comparisons.
///
/// The log retires itself: a bucket every other worker has been seen past
/// is popped as soon as that is known (see `retire_observed`), so memory is
/// O(in-flight window) rather than O(epochs since the last checkpoint).
#[derive(Debug)]
pub struct CheckerState<S> {
    /// Per-worker epoch buckets, ordered by epoch (workers log in order).
    logs: Vec<VecDeque<EpochBucket<S>>>,
    /// Epoch of each worker's latest epoch-opening request (`None` until it
    /// sends one) …
    seen_epoch: Vec<Option<u32>>,
    /// … and that request's snapshot, `workers` positions per worker.
    seen_snapshots: Vec<Position>,
    /// Retired buckets, kept for their allocations.
    spare: Vec<EpochBucket<S>>,
    comparisons: u64,
    epoch_skips: u64,
    /// Whether `admit` may use the per-bucket aggregate short-circuit.
    /// Disabling it forces the member-by-member scan — verdicts must be
    /// identical either way (the differential fuzzer exercises both).
    aggregates: bool,
    /// Whether the log retires buckets on its own (always, outside the
    /// reference constructor the transparency proptest uses).
    self_retiring: bool,
}

impl<S: AccessSignature> CheckerState<S> {
    /// Creates an empty checker for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self::with_aggregates(num_workers, true)
    }

    /// Creates an empty checker, choosing whether the per-epoch aggregate
    /// fast path is `enabled`. With it disabled every request is compared
    /// member-by-member; conflict verdicts are unchanged, only the
    /// comparison counts differ.
    pub fn with_aggregates(num_workers: usize, enabled: bool) -> Self {
        Self {
            logs: (0..num_workers).map(|_| VecDeque::new()).collect(),
            seen_epoch: vec![None; num_workers],
            seen_snapshots: vec![Position::ZERO; num_workers * num_workers],
            spare: Vec::new(),
            comparisons: 0,
            epoch_skips: 0,
            aggregates: enabled,
            self_retiring: true,
        }
    }

    /// The reference the self-retiring log is held equal to: nothing leaves
    /// the log except through [`CheckerState::retire_before`]. Test-only.
    #[doc(hidden)]
    pub fn without_self_retirement(num_workers: usize, aggregates: bool) -> Self {
        Self {
            self_retiring: false,
            ..Self::with_aggregates(num_workers, aggregates)
        }
    }

    /// Number of signature comparisons performed so far (reported in the
    /// checking-overhead discussion of §5.2). Aggregate tests count as one
    /// comparison each.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of whole-epoch buckets skipped because the request was
    /// disjoint from the bucket's aggregate signature.
    pub fn epoch_skips(&self) -> u64 {
        self.epoch_skips
    }

    /// Requests currently held in the log (admitted and not yet retired).
    pub fn logged(&self) -> usize {
        self.logs
            .iter()
            .map(|buckets| buckets.iter().map(|b| b.entries.len()).sum::<usize>())
            .sum()
    }

    /// [`CheckerState::admit_parts`] on an owned request.
    pub fn admit(&mut self, req: CheckRequest<S>) -> Option<Conflict> {
        self.admit_parts(req.tid, req.pos, &req.snapshot, req.sig)
    }

    /// Logs the task worker `tid` ran at `pos` — `snapshot` the positions of
    /// all workers observed at its start (`snapshot[tid]` is ignored), `sig`
    /// what it touched — and tests it against every logged task it may have
    /// raced with. The snapshot is copied into the log, so the caller keeps
    /// its buffer: an engine worker passes the one it refills per chunk,
    /// and nothing is allocated per task.
    ///
    /// **Contract:** returns the *first* conflict in scan order — workers in
    /// ascending id, each worker's log newest-to-oldest — not the conflict
    /// with the globally earliest epoch. See [`Conflict::earliest_epoch`]
    /// for why recovery does not depend on which conflict is reported.
    ///
    /// **Invariant:** one worker's requests must be admitted in position
    /// order with monotone snapshots (checked in debug builds); the
    /// self-retiring log relies on it. The engine guarantees both: a worker
    /// admits its own runs in the order it ran them, and it fills each snapshot
    /// from the [`PositionBoard`](crate::position::PositionBoard), whose
    /// slots are atomics their owners only ever move forward — successive
    /// acquire loads of one atomic by one thread never go backwards.
    ///
    /// Empty signatures are logged but never compared (they cannot conflict).
    ///
    /// # Panics
    ///
    /// Panics unless `snapshot` has one position per worker.
    pub fn admit_parts(
        &mut self,
        tid: ThreadId,
        pos: Position,
        snapshot: &[Position],
        sig: S,
    ) -> Option<Conflict> {
        let workers = self.logs.len();
        assert_eq!(snapshot.len(), workers, "one snapshot slot per worker");
        let mut found = None;
        if !sig.is_empty() {
            'outer: for (other_tid, buckets) in self.logs.iter().enumerate() {
                if other_tid == tid {
                    continue;
                }
                for bucket in buckets.iter().rev() {
                    // What member `i` of this bucket saw of `tid` at start.
                    let saw = |i: usize| bucket.snapshots[i * workers + tid];
                    match bucket.epoch.cmp(&pos.epoch) {
                        // Same epoch: independent by the DOALL property.
                        std::cmp::Ordering::Equal => continue,
                        std::cmp::Ordering::Greater => {
                            // The request is the earlier-epoch straggler: a
                            // logged task raced it iff it had not retired
                            // when the logged task began. Snapshots are
                            // monotone within a worker's log, so if even the
                            // oldest member observed it retired, none raced.
                            if pos < saw(0) {
                                continue;
                            }
                            if self.aggregates {
                                self.comparisons += 1;
                                if !bucket.agg.conflicts_with(&sig) {
                                    self.epoch_skips += 1;
                                    continue;
                                }
                            }
                            for (i, logged) in bucket.entries.iter().enumerate().rev() {
                                if pos >= saw(i) {
                                    self.comparisons += 1;
                                    if logged.sig.conflicts_with(&sig) {
                                        found = Some(Conflict {
                                            earlier: (tid, pos),
                                            later: (other_tid, logged.pos),
                                        });
                                        break 'outer;
                                    }
                                }
                            }
                        }
                        std::cmp::Ordering::Less => {
                            // `logged` tasks are earlier-epoch: they raced
                            // the request iff not yet retired when it began.
                            let snap = snapshot[other_tid];
                            if bucket.newest().pos < snap {
                                // The whole bucket (and everything older)
                                // retired before the request began.
                                break;
                            }
                            // Entries below `snap` end the scan of this
                            // worker once reached; remember whether the
                            // bucket contains any.
                            let has_retired_tail = bucket.entries[0].pos < snap;
                            if self.aggregates {
                                self.comparisons += 1;
                                if !bucket.agg.conflicts_with(&sig) {
                                    self.epoch_skips += 1;
                                    if has_retired_tail {
                                        break;
                                    }
                                    continue;
                                }
                            }
                            for logged in bucket.entries.iter().rev() {
                                if logged.pos < snap {
                                    break;
                                }
                                self.comparisons += 1;
                                if logged.sig.conflicts_with(&sig) {
                                    found = Some(Conflict {
                                        earlier: (other_tid, logged.pos),
                                        later: (tid, pos),
                                    });
                                    break 'outer;
                                }
                            }
                            if has_retired_tail {
                                break;
                            }
                        }
                    }
                }
            }
        }
        let buckets = &mut self.logs[tid];
        if let Some(last) = buckets.back() {
            debug_assert!(
                last.newest().pos < pos,
                "per-worker requests must be admitted in position order"
            );
            debug_assert!(
                last.snapshots[last.snapshots.len() - workers..]
                    .iter()
                    .zip(snapshot)
                    .enumerate()
                    .all(|(slot, (before, now))| slot == tid || before <= now),
                "a worker's snapshots must be monotone in every other worker's slot"
            );
        }
        match buckets.back_mut() {
            Some(last) if last.epoch == pos.epoch => last.push(pos, snapshot, sig),
            _ => {
                let mut bucket = self.spare.pop().unwrap_or_else(|| EpochBucket {
                    epoch: pos.epoch,
                    agg: S::empty(),
                    entries: Vec::new(),
                    snapshots: Vec::new(),
                });
                bucket.epoch = pos.epoch;
                bucket.push(pos, snapshot, sig);
                buckets.push_back(bucket);
                // The first request of a new epoch from `tid`: every later
                // one carries an epoch and a snapshot at least this far on.
                self.seen_epoch[tid] = Some(pos.epoch);
                self.seen_snapshots[tid * workers..][..workers].copy_from_slice(snapshot);
                if self.self_retiring {
                    self.retire_observed();
                }
            }
        }
        found
    }

    /// Pops every front bucket `B` of every worker `w` that no future
    /// request can reach: `w` has moved on to a later bucket, and every
    /// other worker `v` opened an epoch `>= B.epoch` with a snapshot that
    /// showed `w` past `B`'s newest member. By `admit_parts`' invariant a
    /// later request from `v` has an epoch no smaller (so it is never `B`'s
    /// earlier-epoch straggler) and a view of `w` no older (so for a later
    /// epoch it takes the `newest.pos < snap` early-out at `B`, which
    /// compares nothing and ends the scan of `w` exactly as running off the
    /// front of the log does). Verdicts, first-conflict order, `comparisons`
    /// and `epoch_skips` are therefore what they would be had `B` stayed.
    fn retire_observed(&mut self) {
        let workers = self.logs.len();
        for w in 0..workers {
            while self.logs[w].len() > 1 {
                let front = &self.logs[w][0];
                let (epoch, newest) = (front.epoch, front.newest().pos);
                let passed_by_all = (0..workers).filter(|&v| v != w).all(|v| {
                    self.seen_epoch[v].is_some_and(|seen| seen >= epoch)
                        && self.seen_snapshots[v * workers + w] > newest
                });
                if !passed_by_all {
                    break;
                }
                self.retire_front(w);
            }
        }
    }

    /// Pops worker `w`'s oldest bucket, keeping its vectors for reuse.
    fn retire_front(&mut self, w: usize) {
        if let Some(mut bucket) = self.logs[w].pop_front() {
            bucket.agg.clear();
            bucket.entries.clear();
            bucket.snapshots.clear();
            self.spare.push(bucket);
        }
    }

    /// Discards all requests from epochs before `epoch` by popping whole
    /// buckets off the front of each worker's log — O(retired epochs), no
    /// per-entry scan. The checkpoint backstop of the self-retiring log: a
    /// worker that never sends never advances what it was
    /// "seen past", so only this retires the others' buckets.
    ///
    /// Sound at checkpoint boundaries: a checkpoint fully synchronizes every
    /// worker, and workers admit their own tasks inline, so nothing logged
    /// before it can race with anything admitted after it.
    pub fn retire_before(&mut self, epoch: u32) {
        for w in 0..self.logs.len() {
            while self.logs[w].front().is_some_and(|b| b.epoch < epoch) {
                self.retire_front(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::{AccessKind, RangeSignature};

    fn sig(addrs: &[usize]) -> RangeSignature {
        let mut s = RangeSignature::empty();
        for &a in addrs {
            s.record(a, AccessKind::Write);
        }
        s
    }

    fn req(
        tid: ThreadId,
        epoch: u32,
        task: u32,
        snapshot: &[(u32, u32)],
        addrs: &[usize],
    ) -> CheckRequest<RangeSignature> {
        CheckRequest {
            tid,
            pos: Position { epoch, task },
            snapshot: snapshot
                .iter()
                .map(|&(e, t)| Position { epoch: e, task: t })
                .collect(),
            sig: sig(addrs),
        }
    }

    #[test]
    fn same_epoch_tasks_are_never_compared() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (1, 0)], &[5])).is_none());
        // Same epoch, same address: DOALL guarantees independence, so no
        // conflict may be raised.
        assert!(c.admit(req(1, 1, 0, &[(1, 1), (1, 0)], &[5])).is_none());
        assert_eq!(c.comparisons(), 0);
    }

    #[test]
    fn overlapping_cross_epoch_conflict_is_detected() {
        let mut c = CheckerState::new(2);
        // Worker 0 runs task <1,0> touching address 5.
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5])).is_none());
        // Worker 1 starts task <2,0> while worker 0 is still at <1,0>
        // (snapshot records worker 0 at (1,0)) and touches address 5.
        let conflict = c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[5])).unwrap();
        assert_eq!(conflict.earlier, (0, Position { epoch: 1, task: 0 }));
        assert_eq!(conflict.later, (1, Position { epoch: 2, task: 0 }));
        assert_eq!(conflict.earliest_epoch(), 1);
    }

    #[test]
    fn retired_predecessor_does_not_race() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5])).is_none());
        // Worker 1 starts <2,0> having already observed worker 0 past that
        // task (snapshot (1,1)): barrier-equivalent order, no race.
        assert!(c.admit(req(1, 2, 0, &[(1, 1), (2, 0)], &[5])).is_none());
    }

    #[test]
    fn straggler_conflict_is_detected_on_late_arrival() {
        let mut c = CheckerState::new(2);
        // Worker 1 raced ahead into epoch 2 and its request arrives FIRST.
        // It began while worker 0 was still at <1,0>.
        assert!(c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[9])).is_none());
        // Worker 0's earlier-epoch task now arrives; it is position <1,0>,
        // which the logged task observed as still running.
        let conflict = c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[9])).unwrap();
        assert_eq!(conflict.earlier, (0, Position { epoch: 1, task: 0 }));
        assert_eq!(conflict.later, (1, Position { epoch: 2, task: 0 }));
    }

    #[test]
    fn disjoint_addresses_never_conflict() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5])).is_none());
        assert!(c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[6])).is_none());
        assert!(c.comparisons() > 0, "the racing pair was compared");
    }

    #[test]
    fn empty_signatures_are_skipped() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[])).is_none());
        assert!(c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[])).is_none());
        assert_eq!(c.comparisons(), 0);
    }

    #[test]
    fn same_worker_tasks_are_never_compared() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5])).is_none());
        assert!(c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[5])).is_none());
    }

    #[test]
    fn prune_discards_old_epochs() {
        let mut c = CheckerState::new(2);
        c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5]));
        c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[6]));
        assert_eq!(c.logged(), 2);
        c.retire_before(2);
        assert_eq!(c.logged(), 1);
    }

    #[test]
    fn epoch_gap_of_two_is_still_checked() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[7])).is_none());
        // Worker 1 jumped to epoch 3 while worker 0 still in epoch 1.
        let conflict = c.admit(req(1, 3, 0, &[(1, 0), (3, 0)], &[7]));
        assert!(conflict.is_some());
    }

    #[test]
    fn multiple_conflicts_report_first_in_scan_order() {
        // Regression test pinning the admit contract: when several logged
        // tasks conflict with one request, the FIRST conflict in scan order
        // (ascending worker id) is returned — not the one with the earliest
        // epoch. Worker 1 logged an epoch-3 task and worker 2 an epoch-1
        // task; both overlap and conflict with the request, and the report
        // names worker 1's pair, so `earliest_epoch()` is 3 even though a
        // conflicting epoch-1 task exists.
        let mut c = CheckerState::new(3);
        assert!(c
            .admit(req(1, 3, 0, &[(0, 0), (3, 0), (0, 0)], &[7]))
            .is_none());
        assert!(c
            .admit(req(2, 1, 0, &[(0, 0), (4, 0), (1, 0)], &[9]))
            .is_none());
        // Request from worker 0 at epoch 5, overlapping both logged tasks
        // (snapshot shows neither retired) and touching both addresses.
        let conflict = c
            .admit(req(0, 5, 0, &[(5, 0), (3, 0), (1, 0)], &[7, 8, 9]))
            .expect("both logged tasks conflict");
        assert_eq!(conflict.earlier, (1, Position { epoch: 3, task: 0 }));
        assert_eq!(conflict.later, (0, Position { epoch: 5, task: 0 }));
        assert_eq!(conflict.earliest_epoch(), 3, "scan order, not min epoch");
    }

    #[test]
    fn disjoint_epoch_buckets_are_skipped_via_aggregate() {
        // Worker 0 logs many epoch-1 tasks clustered in [0, 100); a later
        // epoch-2 request touching [200, 300) skips the whole bucket with
        // one aggregate comparison.
        let mut c = CheckerState::new(2);
        for task in 0..16u32 {
            assert!(c
                .admit(req(0, 1, task, &[(1, task), (0, 0)], &[task as usize * 4]))
                .is_none());
        }
        let before = c.comparisons();
        assert!(c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[250])).is_none());
        assert_eq!(c.comparisons() - before, 1, "one aggregate test only");
        assert_eq!(c.epoch_skips(), 1);
    }

    #[test]
    fn aggregate_hit_falls_back_to_member_scan() {
        // The aggregate overlaps but only one member really conflicts: the
        // per-member scan still runs and finds the right pair.
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[10])).is_none());
        assert!(c.admit(req(0, 1, 1, &[(1, 1), (0, 0)], &[50])).is_none());
        let conflict = c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[50])).unwrap();
        assert_eq!(conflict.earlier, (0, Position { epoch: 1, task: 1 }));
        assert_eq!(c.epoch_skips(), 0);
    }

    #[test]
    fn retire_before_pops_whole_buckets() {
        let mut c = CheckerState::new(2);
        c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5]));
        c.admit(req(0, 1, 1, &[(1, 1), (0, 0)], &[5]));
        c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[6]));
        c.admit(req(1, 1, 0, &[(1, 0), (1, 0)], &[7]));
        assert_eq!(c.logged(), 4);
        c.retire_before(2);
        assert_eq!(c.logged(), 1);
        c.retire_before(3);
        assert_eq!(c.logged(), 0);
    }

    #[test]
    fn retire_at_epoch_boundary_keeps_that_epoch() {
        // `retire_before(e)` is strict: a bucket AT epoch `e` survives and
        // still participates in conflict detection afterwards.
        let mut c = CheckerState::new(2);
        c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5]));
        c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[6]));
        c.retire_before(2);
        assert_eq!(c.logged(), 1, "epoch-2 bucket survives its own boundary");
        let conflict = c.admit(req(1, 3, 0, &[(2, 0), (3, 0)], &[6]));
        assert!(conflict.is_some(), "surviving bucket still detects races");
    }

    #[test]
    fn retire_all_empties_every_log_and_admission_restarts() {
        let mut c = CheckerState::new(3);
        for tid in 0..3 {
            c.admit(req(tid, 1, 0, &[(1, 0), (1, 0), (1, 0)], &[tid * 8]));
        }
        assert_eq!(c.logged(), 3);
        c.retire_before(u32::MAX);
        assert_eq!(c.logged(), 0);
        // Admission after a full retire starts fresh buckets; the wiped log
        // cannot produce phantom conflicts against pre-retire tasks.
        assert!(c
            .admit(req(0, 9, 0, &[(9, 0), (1, 0), (1, 0)], &[0]))
            .is_none());
        assert!(c
            .admit(req(1, 9, 0, &[(9, 0), (9, 0), (1, 0)], &[0]))
            .is_none());
        assert_eq!(c.logged(), 2);
    }

    #[test]
    fn retire_with_in_flight_batch_pops_the_whole_bucket_at_once() {
        // A worker batches several requests into one epoch bucket; a retire
        // strictly past that epoch drops ALL of them in one pop, while a
        // retire at the boundary drops none — there is no partial state.
        let mut c = CheckerState::new(2);
        for task in 0..5u32 {
            c.admit(req(0, 3, task, &[(3, task), (0, 0)], &[task as usize]));
        }
        c.admit(req(1, 3, 0, &[(3, 0), (3, 0)], &[40]));
        assert_eq!(c.logged(), 6);
        c.retire_before(3);
        assert_eq!(c.logged(), 6, "boundary retire keeps the in-flight batch");
        c.retire_before(4);
        assert_eq!(c.logged(), 0, "one epoch later the whole batch retires");
        // In-flight work admitted after the truncation is checked only
        // against post-truncation entries.
        assert!(c.admit(req(0, 5, 0, &[(5, 0), (3, 0)], &[2])).is_none());
    }

    #[test]
    fn retire_interleaved_with_stragglers_keeps_verdicts() {
        // Retire runs between two admissions of a racing pair: as long as
        // the logged side survives the truncation, the verdict is unchanged.
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(1, 4, 0, &[(2, 0), (4, 0)], &[9])).is_none());
        c.retire_before(3); // drops nothing from worker 1 (epoch 4 >= 3)
        let conflict = c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[9]));
        assert!(conflict.is_some(), "straggler still conflicts after retire");
    }

    #[test]
    fn buckets_every_other_worker_was_seen_past_retire_themselves() {
        // Two workers alternate epochs in barrier order, each seeing the
        // other past all it has logged. A bucket goes as soon as its owner
        // has moved on and the other worker opens an epoch from which it
        // was seen finished — the log holds the window, not the history.
        let mut c = CheckerState::new(2);
        for epoch in 0..40u32 {
            let tid = (epoch % 2) as usize;
            let mut snapshot = [(epoch, 0); 2];
            snapshot[1 - tid] = (epoch, u32::MAX);
            assert!(c.admit(req(tid, epoch, 0, &snapshot, &[5])).is_none());
            assert!(c.logged() <= 3, "epoch {epoch}: {} logged", c.logged());
        }
        // The newest bucket of each worker always stays: its owner may
        // still add to it.
        assert_eq!(c.logged(), 2);
    }

    #[test]
    fn a_bucket_seen_in_flight_stays_and_still_conflicts() {
        let mut c = CheckerState::new(2);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[5])).is_none());
        assert!(c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[6])).is_none());
        // Worker 1 opens epoch 3 having seen worker 0 still *at* <1,0>:
        // not past it, so the epoch-1 bucket must stay — and conflict.
        let conflict = c.admit(req(1, 3, 0, &[(1, 0), (3, 0)], &[5])).unwrap();
        assert_eq!(conflict.earlier, (0, Position { epoch: 1, task: 0 }));
        assert_eq!(c.logged(), 3);
        // Each now opens an epoch seeing the other past everything logged:
        // all closed buckets go, the two just opened stay.
        assert!(c.admit(req(0, 4, 0, &[(4, 0), (3, 1)], &[7])).is_none());
        assert!(c.admit(req(1, 5, 0, &[(4, 0), (5, 0)], &[8])).is_none());
        assert_eq!(c.logged(), 2);
    }

    #[test]
    fn a_worker_that_never_sends_leaves_retirement_to_retire_before() {
        // Worker 2 never sends: nobody knows what it has
        // seen, so nothing of workers 0 and 1 may retire on its own …
        let mut c = CheckerState::new(3);
        for epoch in 0..10u32 {
            for tid in 0..2 {
                let done = (epoch, u32::MAX);
                let mut snapshot = [done, done, (0, 0)];
                snapshot[tid] = (epoch, 0);
                assert!(c.admit(req(tid, epoch, 0, &snapshot, &[tid])).is_none());
            }
        }
        assert_eq!(c.logged(), 20);
        // … and the checkpoint backstop is what bounds the log.
        c.retire_before(9);
        assert_eq!(c.logged(), 2);
    }

    #[test]
    fn aggregates_off_reaches_identical_verdicts() {
        // The epoch-summary fast path is an optimization only: the same
        // admission stream must produce the same verdict sequence with the
        // aggregate short-circuit disabled (member-by-member scanning).
        let streams: Vec<Vec<CheckRequest<RangeSignature>>> = vec![
            vec![
                req(0, 1, 0, &[(1, 0), (0, 0)], &[5]),
                req(1, 2, 0, &[(1, 0), (2, 0)], &[5]),
            ],
            vec![
                req(0, 1, 0, &[(1, 0), (0, 0)], &[5]),
                req(1, 2, 0, &[(1, 0), (2, 0)], &[6]),
                req(0, 2, 0, &[(2, 0), (2, 0)], &[7]),
            ],
            vec![
                req(1, 2, 0, &[(1, 0), (2, 0)], &[9]),
                req(0, 1, 0, &[(1, 0), (0, 0)], &[9]),
            ],
        ];
        for (i, stream) in streams.into_iter().enumerate() {
            let mut fast = CheckerState::with_aggregates(2, true);
            let mut slow = CheckerState::with_aggregates(2, false);
            for (j, r) in stream.into_iter().enumerate() {
                let a = fast.admit(r.clone());
                let b = slow.admit(r);
                assert_eq!(a, b, "stream {i}, request {j}");
            }
            assert_eq!(slow.epoch_skips(), 0, "no skips without aggregates");
        }
    }

    #[test]
    fn conflicting_but_non_overlapping_many_tasks() {
        // A long fully-ordered chain: each task observes the previous worker
        // already past the dependence; no conflicts anywhere.
        let mut c = CheckerState::new(2);
        for epoch in 0..20u32 {
            let tid = (epoch % 2) as usize;
            let other_done = Position {
                epoch,
                task: u32::MAX, // predecessor long retired
            };
            let mut snapshot = [Position::ZERO; 2];
            snapshot[1 - tid] = other_done;
            snapshot[tid] = Position { epoch, task: 0 };
            let r = CheckRequest {
                tid,
                pos: Position { epoch, task: 0 },
                snapshot: snapshot.to_vec().into_boxed_slice(),
                sig: sig(&[3]),
            };
            assert!(c.admit(r).is_none(), "epoch {epoch} must not conflict");
        }
    }
}
