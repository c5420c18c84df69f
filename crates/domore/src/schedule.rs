//! The one DOMORE scheduling step (§3.2–3.4): `computeAddr` → policy →
//! shadow-memory conflict detection → dispatch, with cross-invocation
//! schedule memoization.
//!
//! [`ScheduleCore`] is pure — no threads, clocks, trace sinks or counters.
//! Every agent that plays the scheduler role drives it: the threaded
//! runtime's separate plan wraps it in SPSC batching, its replicated plan
//! runs it on every replica, and the simulator bills virtual time around
//! it. Memo replay, per-iteration verification and divergence
//! catch-up therefore exist exactly once, and replayed and recomputed
//! invocations are decision-for-decision identical for all three (a
//! property the suite's proptests pin down on this type directly).

use crossinvoc_runtime::{IterNum, ThreadId};

use crate::logic::{SchedulerLogic, SyncCondition};
use crate::memo::ScheduleMemo;

/// Scheduler state of one DOMORE region: shadow memory, the combined
/// iteration counter, the schedule memo and the per-iteration scratch.
#[derive(Debug)]
pub struct ScheduleCore {
    logic: SchedulerLogic,
    memo: ScheduleMemo,
    /// `writes ++ reads` — writes first, because LOCALWRITE-style policies
    /// assign ownership by the first address and owner-computes means the
    /// *written* cell's owner. `touched` fills the write set in place.
    addrs: Vec<usize>,
    /// The write set is `addrs[..nw]`.
    nw: usize,
    /// Where `touched` puts the read set before it joins `addrs`.
    reads: Vec<usize>,
    conds: Vec<SyncCondition>,
}

impl ScheduleCore {
    /// Creates the core for a workload whose addresses lie in
    /// `0..address_space` (dense shadow), or anywhere (`None`, sparse).
    pub fn new(address_space: Option<usize>) -> Self {
        Self {
            logic: match address_space {
                Some(n) => SchedulerLogic::with_dense_shadow(n),
                None => SchedulerLogic::with_sparse_shadow(),
            },
            memo: ScheduleMemo::new(),
            addrs: Vec::new(),
            nw: 0,
            reads: Vec::new(),
            conds: Vec::new(),
        }
    }

    /// The combined iteration number the next scheduled iteration gets.
    pub fn next_iter_num(&self) -> IterNum {
        self.logic.next_iter_num()
    }

    /// The schedule memo (hit count, promotion state).
    pub fn memo(&self) -> &ScheduleMemo {
        &self.memo
    }

    /// Schedules one invocation of `iters` iterations, in order.
    ///
    /// Per iteration: `touched(iter, writes, reads)` appends the access
    /// sets (the `computeAddr` oracle; it must be pure — after a replay
    /// divergence it is asked again for the already-dispatched prefix);
    /// `assign(iter_num, addrs)` picks the worker — the policy's decision —
    /// and is consulted exactly once per iteration, replayed or not, so
    /// stateful policies stay in step; `emit(iter, tid, iter_num, conds, replayed)`
    /// receives the decision. `replayed` says the shadow walk was skipped
    /// (the conditions came from the memo); the decisions themselves are
    /// identical either way.
    ///
    /// Pass `memo_usable = false` when the invocation must neither be
    /// recorded nor replayed (memoization disabled, as in the replicated
    /// plan); the memo invalidates and stays out of the way.
    ///
    /// Returns `Some(true)` when the whole invocation was replayed from the
    /// memo (a cache hit), `Some(false)` when any of it was recomputed, and
    /// `None` as soon as `assign` returns `None` (the region aborted): the
    /// region is over and the core must not be used again.
    pub fn run_invocation(
        &mut self,
        iters: usize,
        memo_usable: bool,
        mut touched: impl FnMut(usize, &mut Vec<usize>, &mut Vec<usize>),
        mut assign: impl FnMut(IterNum, &[usize]) -> Option<ThreadId>,
        mut emit: impl FnMut(usize, ThreadId, IterNum, &[SyncCondition], bool),
    ) -> Option<bool> {
        let base = self.logic.next_iter_num();
        let mut replaying = self.memo.begin_invocation(iters, base, memo_usable);
        for iter in 0..iters {
            self.load(iter, &mut touched);
            // While replaying, `logic` has not advanced; either way this is
            // the number the iteration will carry.
            let iter_num = base + iter as u64;
            let tid = assign(iter_num, &self.addrs)?;
            if replaying {
                let (writes, reads) = self.addrs.split_at(self.nw);
                if let Some(conds) = self.memo.replay_step(iter, writes, reads, tid) {
                    emit(iter, tid, iter_num, conds, true);
                    continue;
                }
                // Diverged: bring the shadow up to date for the dispatched
                // prefix. Its conditions were emitted correctly during
                // replay (they depend only on the start-of-invocation
                // shadow and the verified prefix), so they are discarded
                // here. `tid` is kept: the policy has already advanced
                // past this iteration.
                for k in 0..iter {
                    self.load(k, &mut touched);
                    self.conds.clear();
                    let (writes, reads) = self.addrs.split_at(self.nw);
                    let _ = self.logic.schedule_rw(
                        self.memo.recorded_tid(k),
                        writes,
                        reads,
                        &mut self.conds,
                    );
                }
                self.load(iter, &mut touched);
                replaying = false;
            }
            self.conds.clear();
            let (writes, reads) = self.addrs.split_at(self.nw);
            let scheduled = self.logic.schedule_rw(tid, writes, reads, &mut self.conds);
            debug_assert_eq!(scheduled, iter_num);
            self.memo.record_step(writes, reads, tid, &self.conds);
            emit(iter, tid, iter_num, &self.conds, false);
        }
        Some(self.memo.end_invocation(&mut self.logic))
    }

    /// Refills the scratch access sets for iteration `iter`: the write set
    /// lands in `addrs` directly and the read set is appended once.
    fn load(
        &mut self,
        iter: usize,
        touched: &mut impl FnMut(usize, &mut Vec<usize>, &mut Vec<usize>),
    ) {
        self.addrs.clear();
        self.reads.clear();
        touched(iter, &mut self.addrs, &mut self.reads);
        self.nw = self.addrs.len();
        self.addrs.extend_from_slice(&self.reads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unassignable_iteration_ends_the_invocation() {
        // The region aborts at iteration 3: nothing further is emitted and
        // the caller is told the region is over, on the recompute path and
        // in the middle of a replay alike.
        let mut core = ScheduleCore::new(Some(8));
        let run = |core: &mut ScheduleCore, live_iters: usize| {
            let base = core.next_iter_num();
            let mut emitted = 0;
            let result = core.run_invocation(
                8,
                true,
                |iter, writes, _| writes.push(iter),
                |iter_num, _| ((iter_num - base) < live_iters as u64).then_some(0),
                |_, _, _, _, _| emitted += 1,
            );
            (result, emitted)
        };
        assert_eq!(run(&mut core, 8), (Some(false), 8));
        assert_eq!(run(&mut core, 8), (Some(false), 8));
        assert_eq!(run(&mut core, 8), (Some(true), 8), "steady stream replays");
        assert_eq!(run(&mut core, 3), (None, 3), "stopped mid-replay");
        assert_eq!(run(&mut ScheduleCore::new(Some(8)), 3), (None, 3));
    }
}
