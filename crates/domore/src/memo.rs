//! Cross-invocation schedule memoization.
//!
//! DOMORE's scheduler redoes identical work on every invocation of a
//! steady-state loop nest: stencil codes (jacobi, fdtd, symm) touch the
//! same addresses with the same per-iteration pattern on every outer
//! iteration, so the shadow walk of [`SchedulerLogic::schedule_rw`]
//! recomputes the same worker assignments and the same synchronization
//! conditions — merely shifted by one invocation's worth of combined
//! iteration numbers. [`ScheduleMemo`] detects this with a streaming
//! fingerprint of each invocation's `(writes, reads, tid)` stream and,
//! once the fingerprint sequence repeats, replays the cached schedule for
//! subsequent matching invocations instead of recomputing it.
//!
//! # Periodic patterns, not just constant ones
//!
//! Many steady-state nests are periodic rather than constant: jacobi
//! ping-pongs between two grids (its access stream repeats every *second*
//! invocation), and fdtd cycles three field sweeps (period three). The
//! memo therefore keeps a short history of invocation fingerprints and a
//! rolling window of full recordings; when the last `2p` fingerprints are
//! periodic with period `p ≤` [`MAX_PERIOD`], the `p` most recent
//! recordings are promoted together as the replay *slots* of one period,
//! and subsequent invocations replay them cyclically. A constant stream is
//! simply the `p = 1` case, promoted after two consecutive identical
//! invocations exactly as before.
//!
//! # Why a full observed period, and what exactly is replayed
//!
//! A condition emitted during invocation *k* may name a dependence in an
//! earlier invocation (that is the whole point of DOMORE). Such a
//! condition only shifts by the period's combined-iteration span when the
//! predecessor invocations it reaches into were themselves part of the
//! repeating pattern — so promotion requires the fingerprint sequence to
//! have completed two full periods, and is additionally refused when any
//! recorded condition reaches *further* back than one period: such a
//! dependence comes from a stale shadow entry (e.g. the last write of a
//! cell that is only read in steady state) that does **not** shift across
//! invocations, so shifting it on replay would name an iteration that may
//! never retire.
//!
//! Replay is verified, not trusted: every iteration's touched sets are
//! re-derived from the workload oracle (which is pure and deterministic)
//! and re-fingerprinted, and the policy is consulted as usual so stateful
//! policies stay in sync — the memo only skips the shadow walk and
//! condition generation. The conditions of a replayed *prefix* depend only
//! on the start-of-invocation shadow and the verified prefix of the
//! stream, so they remain correct even when a later iteration diverges;
//! [`crate::schedule::ScheduleCore`] then rebuilds the shadow for the
//! dispatched prefix and falls back to full scheduling. Any
//! divergence invalidates the whole period: replay only ever resumes after
//! the pattern has re-established itself over two fresh periods.
//!
//! On a completed replay the shadow is patched with the slot's recorded
//! final-owner state (shifted to the current base) and the combined
//! iteration counter advances by the invocation length, so a later
//! fallback sees exactly the shadow full scheduling would have produced.
//! Slot finals are captured at each slot's own end of invocation, so
//! patches compose across a period the same way live scheduling would
//! have updated the shadow.

use std::collections::{HashSet, VecDeque};

use crossinvoc_runtime::hash::splitmix64;
use crossinvoc_runtime::{IterNum, ThreadId};

use crate::logic::{FreshState, SchedulerLogic, SyncCondition};

/// Longest fingerprint period the memo will detect. The effective period
/// of a steady-state nest is the least common multiple of its access
/// pattern's period (1 for constant stencils, 2 for ping-pong grids like
/// jacobi, 3 for multi-sweep kernels like fdtd) and the assignment
/// rotation of the policy: round-robin over combined iteration numbers
/// shifts by `iters % workers` each invocation, rotating with period
/// `workers / gcd(iters % workers, workers)`. 32 covers a three-sweep
/// kernel whose rows don't divide an 8-worker pool (lcm(3, 8) = 24);
/// longer pseudo-periods fall back to full scheduling.
pub const MAX_PERIOD: usize = 32;

/// Fingerprints one iteration's access sets and worker assignment.
///
/// The separator constants keep `writes=[1], reads=[]` distinct from
/// `writes=[], reads=[1]`; folding the assigned worker in makes the
/// invocation fingerprint cover the full schedule, not just the stream
/// (round-robin assignments, for instance, shift across invocations unless
/// the iteration count divides evenly by the worker count — a shift that
/// simply shows up as a longer fingerprint period).
fn iter_fingerprint(writes: &[usize], reads: &[usize], tid: ThreadId) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in writes {
        h = splitmix64(h ^ w as u64);
    }
    h = splitmix64(h ^ 0xD1B5_4A32_D192_ED03);
    for &r in reads {
        h = splitmix64(h ^ r as u64);
    }
    splitmix64(h ^ tid as u64)
}

/// One iteration of a recorded invocation.
#[derive(Debug, Clone)]
struct IterRecord {
    fingerprint: u64,
    tid: ThreadId,
    /// `(dep_tid, dep_iter − base)`; negative offsets reach into earlier
    /// invocations of the (repeating) pattern.
    conds: Vec<(ThreadId, i64)>,
}

/// The candidate being recorded during a non-replayed invocation.
#[derive(Debug, Default)]
struct Candidate {
    iters: Vec<IterRecord>,
    /// Every address the invocation touched (for final-owner export).
    touched: HashSet<usize>,
    /// Running fold of the per-iteration fingerprints.
    inv_hash: u64,
}

/// One completed invocation, retained in the rolling recording window.
/// (Its fingerprint lives in the parallel `history` queue.)
#[derive(Debug)]
struct Recorded {
    iters: Vec<IterRecord>,
    /// Fresh end-of-invocation shadow state per touched address, offsets
    /// relative to this invocation's base. Captured only when the
    /// invocation's fingerprint had already appeared in the recent history
    /// (i.e. promotion is plausible), so one-shot streams pay nothing.
    finals: Option<Vec<(usize, FreshState)>>,
}

/// One promoted slot of a replayable period.
#[derive(Debug)]
struct Slot {
    iters: Vec<IterRecord>,
    /// Fresh end-of-invocation shadow state per touched address, offsets
    /// relative to the slot's recording base.
    final_owners: Vec<(usize, FreshState)>,
}

/// A promoted, replayable period: one slot per invocation, cycled in
/// recording order.
#[derive(Debug)]
struct ReplaySet {
    slots: Vec<Slot>,
    /// Slot the next invocation replays.
    next: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Idle,
    Recording,
    Replaying,
    /// Replay diverged (or the invocation was unusable): no recording, no
    /// replaying; the memo invalidates at the invocation's end.
    Fallback,
}

/// Detects steady-state (possibly periodic) invocation patterns and
/// replays their cached schedules.
///
/// Driven only by [`crate::schedule::ScheduleCore`], which the threaded
/// runtime and the simulator share; all scheduling *decisions* flow through
/// here or through [`SchedulerLogic`], so replayed and recomputed
/// invocations are byte-identical (a property the suite's proptests pin
/// down).
#[derive(Debug)]
pub struct ScheduleMemo {
    /// Fingerprints of recently completed invocations, newest last.
    history: VecDeque<u64>,
    /// Full recordings of the last [`MAX_PERIOD`] completed invocations.
    window: VecDeque<Recorded>,
    candidate: Candidate,
    replay: Option<ReplaySet>,
    mode: Mode,
    /// Base combined iteration number of the current invocation.
    base: IterNum,
    /// Iteration count of the current invocation.
    iters: usize,
    /// Scratch buffer for resolved replay conditions.
    resolved: Vec<SyncCondition>,
    hits: u64,
}

impl Default for ScheduleMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl ScheduleMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self {
            history: VecDeque::new(),
            window: VecDeque::new(),
            candidate: Candidate::default(),
            replay: None,
            mode: Mode::Idle,
            base: 0,
            iters: 0,
            resolved: Vec::new(),
            hits: 0,
        }
    }

    /// Number of invocations replayed from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Whether a promoted schedule is currently held.
    pub fn is_replayable(&self) -> bool {
        self.replay.is_some()
    }

    /// Begins an invocation of `iters` iterations whose first combined
    /// iteration number is `base`. Returns `true` when the invocation will
    /// be replayed (drive it with [`ScheduleMemo::replay_step`]); `false`
    /// means the caller schedules normally and feeds every iteration to
    /// [`ScheduleMemo::record_step`]. Pass `usable = false` when this
    /// invocation must not be memoized or replayed (memoization disabled):
    /// the memo invalidates and stays out of the way.
    pub(crate) fn begin_invocation(&mut self, iters: usize, base: IterNum, usable: bool) -> bool {
        self.base = base;
        self.iters = iters;
        if !usable {
            self.invalidate();
            self.mode = Mode::Fallback;
            return false;
        }
        if let Some(r) = &self.replay {
            if r.slots[r.next].iters.len() == iters {
                self.mode = Mode::Replaying;
                return true;
            }
            // The iteration count changed: the stream cannot match.
            self.invalidate();
        }
        self.candidate.iters.clear();
        self.candidate.touched.clear();
        self.candidate.inv_hash = splitmix64(iters as u64);
        self.mode = Mode::Recording;
        false
    }

    /// Feeds one normally-scheduled iteration into the candidate recording.
    /// No-op outside recording mode.
    pub(crate) fn record_step(
        &mut self,
        writes: &[usize],
        reads: &[usize],
        tid: ThreadId,
        conds: &[SyncCondition],
    ) {
        if self.mode != Mode::Recording {
            return;
        }
        let fp = iter_fingerprint(writes, reads, tid);
        self.candidate.inv_hash = splitmix64(self.candidate.inv_hash ^ fp);
        self.candidate.touched.extend(writes.iter().copied());
        self.candidate.touched.extend(reads.iter().copied());
        let base = self.base as i64;
        self.candidate.iters.push(IterRecord {
            fingerprint: fp,
            tid,
            conds: conds
                .iter()
                .map(|c| (c.dep_tid, c.dep_iter as i64 - base))
                .collect(),
        });
    }

    /// Verifies and replays iteration `iter`: the recorded conditions,
    /// shifted to the current invocation. `assigned` is the policy's live
    /// decision; a mismatch with the
    /// recording — of assignment or of access stream — returns `None` and
    /// switches the memo to fallback: the caller must rebuild the shadow
    /// for the already-dispatched prefix (using
    /// [`ScheduleMemo::recorded_tid`]) and schedule the rest normally.
    pub(crate) fn replay_step(
        &mut self,
        iter: usize,
        writes: &[usize],
        reads: &[usize],
        assigned: ThreadId,
    ) -> Option<&[SyncCondition]> {
        debug_assert_eq!(self.mode, Mode::Replaying);
        let r = self.replay.as_ref().expect("replaying without a memo");
        let rec = &r.slots[r.next].iters[iter];
        if rec.tid != assigned || rec.fingerprint != iter_fingerprint(writes, reads, assigned) {
            self.mode = Mode::Fallback;
            return None;
        }
        let base = self.base as i64;
        self.resolved.clear();
        self.resolved
            .extend(rec.conds.iter().map(|&(dep_tid, off)| SyncCondition {
                dep_tid,
                dep_iter: (base + off) as u64,
            }));
        Some(&self.resolved)
    }

    /// Worker the recording assigned to iteration `iter` — the catch-up
    /// handle after a divergence: the caller re-runs
    /// [`SchedulerLogic::schedule_rw`] for the dispatched prefix with these
    /// assignments (discarding the conditions, which were already emitted
    /// correctly) to bring the shadow up to date.
    pub(crate) fn recorded_tid(&self, iter: usize) -> ThreadId {
        let r = self.replay.as_ref().expect("no recorded schedule");
        r.slots[r.next].iters[iter].tid
    }

    /// Completes the invocation. On a finished replay, patches `logic`'s
    /// shadow with the slot's recorded final-owner state, advances its
    /// combined iteration counter past the invocation, cycles to the next
    /// slot of the period, and returns `true` (the caller counts the cache
    /// hit). On the record path, pushes the recording into the rolling
    /// window and promotes the most recent period when the fingerprint
    /// history shows two full repetitions and every condition stays within
    /// one period of history (see the module docs for why both gates are
    /// required).
    pub(crate) fn end_invocation(&mut self, logic: &mut SchedulerLogic) -> bool {
        let mode = std::mem::replace(&mut self.mode, Mode::Idle);
        match mode {
            Mode::Replaying => {
                let r = self.replay.as_mut().expect("replaying without a memo");
                let slot = &r.slots[r.next];
                for (addr, fresh) in &slot.final_owners {
                    logic.apply_fresh(*addr, self.base, fresh);
                }
                logic.skip_iterations(self.iters as u64);
                r.next = (r.next + 1) % r.slots.len();
                self.hits += 1;
                true
            }
            Mode::Recording => {
                let hash = self.candidate.inv_hash;
                // Only pay the final-owner export when this fingerprint has
                // recurred recently — a necessary condition for it to ever
                // become a slot of a promoted period.
                let finals = self.history.contains(&hash).then(|| {
                    self.candidate
                        .touched
                        .iter()
                        .map(|&addr| (addr, logic.export_fresh(addr, self.base)))
                        .collect()
                });
                self.window.push_back(Recorded {
                    iters: std::mem::take(&mut self.candidate.iters),
                    finals,
                });
                if self.window.len() > MAX_PERIOD {
                    self.window.pop_front();
                }
                self.history.push_back(hash);
                if self.history.len() > 2 * MAX_PERIOD {
                    self.history.pop_front();
                }
                self.try_promote();
                false
            }
            Mode::Fallback => {
                self.invalidate();
                false
            }
            Mode::Idle => false,
        }
    }

    /// Promotes the `p` most recent recordings when the fingerprint history
    /// ends in two full periods of the smallest period `p ≤ MAX_PERIOD`
    /// and the recordings pass the stale-dependence (shift-stability) gate.
    fn try_promote(&mut self) {
        let n = self.history.len();
        let Some(p) = (1..=MAX_PERIOD).find(|&p| {
            n >= 2 * p && (0..p).all(|i| self.history[n - 1 - i] == self.history[n - 1 - p - i])
        }) else {
            return;
        };
        if self.window.len() < p {
            return;
        }
        let slots_start = self.window.len() - p;
        let window = self.window.make_contiguous();
        let period = &window[slots_start..];
        // Every slot needs captured finals, and every condition must stay
        // within one period's combined-iteration span: anything older is a
        // stale, non-shifting dependence.
        let span: i64 = period.iter().map(|r| r.iters.len() as i64).sum();
        let promotable = period.iter().all(|r| {
            r.finals.is_some()
                && r.iters
                    .iter()
                    .all(|it| it.conds.iter().all(|&(_, off)| off >= -span))
        });
        if !promotable {
            return;
        }
        let slots = self
            .window
            .drain(slots_start..)
            .map(|r| Slot {
                iters: r.iters,
                final_owners: r.finals.expect("checked above"),
            })
            .collect();
        self.replay = Some(ReplaySet { slots, next: 0 });
        self.history.clear();
        self.window.clear();
    }

    fn invalidate(&mut self) {
        self.history.clear();
        self.window.clear();
        self.replay = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleCore;

    /// Schedules one invocation of `stream` (per-iteration `(tid, writes,
    /// reads)`) through the production core, collecting the emitted
    /// `(tid, iter_num, conds)` tuples and the cache-hit verdict.
    fn drive_with(
        core: &mut ScheduleCore,
        stream: &[(ThreadId, Vec<usize>, Vec<usize>)],
        usable: bool,
    ) -> (Vec<(ThreadId, IterNum, Vec<SyncCondition>)>, bool) {
        let base = core.next_iter_num();
        let mut out = Vec::new();
        let hit = core
            .run_invocation(
                stream.len(),
                usable,
                |iter, writes, reads| {
                    writes.extend_from_slice(&stream[iter].1);
                    reads.extend_from_slice(&stream[iter].2);
                },
                |iter_num, _| Some(stream[(iter_num - base) as usize].0),
                |_, tid, iter_num, conds, _| out.push((tid, iter_num, conds.to_vec())),
            )
            .expect("every iteration is assigned");
        (out, hit)
    }

    fn drive(
        core: &mut ScheduleCore,
        stream: &[(ThreadId, Vec<usize>, Vec<usize>)],
    ) -> (Vec<(ThreadId, IterNum, Vec<SyncCondition>)>, bool) {
        drive_with(core, stream, true)
    }

    /// The reference: the same stream scheduled with a plain
    /// `SchedulerLogic` and no memo.
    fn run_reference(
        logic: &mut SchedulerLogic,
        stream: &[(ThreadId, Vec<usize>, Vec<usize>)],
    ) -> Vec<(ThreadId, IterNum, Vec<SyncCondition>)> {
        stream
            .iter()
            .map(|(tid, writes, reads)| {
                let mut conds = Vec::new();
                let iter_num = logic.schedule_rw(*tid, writes, reads, &mut conds);
                (*tid, iter_num, conds)
            })
            .collect()
    }

    /// A jacobi-like steady stream: iteration i writes cell i and reads its
    /// neighbours, round-robin across `workers` (with `iters % workers ==
    /// 0` so assignments are shift-stable).
    fn stencil_stream(iters: usize, workers: usize) -> Vec<(ThreadId, Vec<usize>, Vec<usize>)> {
        (0..iters)
            .map(|i| {
                let reads = vec![(i + iters - 1) % iters, (i + 1) % iters];
                (i % workers, vec![i], reads)
            })
            .collect()
    }

    #[test]
    fn replay_is_byte_identical_to_recomputation() {
        let stream = stencil_stream(12, 3);
        let mut core = ScheduleCore::new(Some(12));
        let mut reference = SchedulerLogic::with_dense_shadow(12);
        for inv in 0..6 {
            let (got, hit) = drive(&mut core, &stream);
            let want = run_reference(&mut reference, &stream);
            assert_eq!(got, want, "invocation {inv} diverged");
            // Invocation 0 seeds, 1 records a matching candidate, 2.. replay.
            assert_eq!(hit, inv >= 2, "invocation {inv}");
        }
        assert_eq!(core.memo().hits(), 4);
    }

    #[test]
    fn divergent_invocation_falls_back_and_recovers() {
        let steady = stencil_stream(8, 2);
        let mut changed = steady.clone();
        changed[5].1 = vec![0]; // different write set mid-invocation
        let mut core = ScheduleCore::new(Some(8));
        let mut reference = SchedulerLogic::with_dense_shadow(8);
        let script = [
            &steady, &steady, &steady, &changed, &steady, &steady, &steady,
        ];
        let mut hits = 0;
        for stream in script {
            let (got, hit) = drive(&mut core, stream);
            let want = run_reference(&mut reference, stream);
            assert_eq!(got, want);
            hits += u64::from(hit);
        }
        // Replays: invocation 2 and (after re-warming on 4 and 5) 6.
        assert_eq!(hits, 2);
        assert_eq!(core.memo().hits(), hits);
    }

    #[test]
    fn alternating_assignments_promote_at_period_two() {
        // 5 iterations round-robin on 2 workers: assignments shift by one
        // every invocation, so the fingerprint sequence alternates A B A B
        // and the memo promotes the two-invocation period after seeing it
        // twice (end of invocation 3); invocations 4.. replay.
        let mut core = ScheduleCore::new(Some(8));
        let mut reference = SchedulerLogic::with_dense_shadow(8);
        let mut hits = 0u64;
        for inv in 0..8u64 {
            let stream: Vec<_> = (0..5)
                .map(|i| (((inv * 5 + i) % 2) as usize, vec![i as usize], vec![]))
                .collect();
            let (got, hit) = drive(&mut core, &stream);
            assert_eq!(got, run_reference(&mut reference, &stream));
            assert_eq!(hit, inv >= 4, "invocation {inv}");
            hits += u64::from(hit);
        }
        assert_eq!(hits, 4);
    }

    #[test]
    fn three_phase_streams_promote_at_period_three() {
        // An fdtd-like sweep cycle: three distinct access phases repeating
        // every third invocation. Promotion needs two full periods
        // (invocations 0..=5); invocations 6.. replay their phase's slot.
        let phase = |j: usize| -> Vec<(ThreadId, Vec<usize>, Vec<usize>)> {
            (0..4)
                .map(|i| {
                    let w = (j * 4 + i) % 12;
                    let r = ((j + 1) * 4 + i) % 12;
                    (i % 2, vec![w], vec![r])
                })
                .collect()
        };
        let mut core = ScheduleCore::new(Some(12));
        let mut reference = SchedulerLogic::with_dense_shadow(12);
        let mut hits = 0u64;
        for inv in 0..12usize {
            let stream = phase(inv % 3);
            let (got, hit) = drive(&mut core, &stream);
            assert_eq!(
                got,
                run_reference(&mut reference, &stream),
                "invocation {inv}"
            );
            assert_eq!(hit, inv >= 6, "invocation {inv}");
            hits += u64::from(hit);
        }
        assert_eq!(core.memo().hits(), hits);
        assert_eq!(hits, 6);
    }

    #[test]
    fn aperiodic_streams_never_promote() {
        // Iteration 0 of invocation k additionally reads cell k, so every
        // invocation fingerprints differently: the history never shows a
        // repetition, no finals are ever exported, and nothing promotes.
        let mut core = ScheduleCore::new(Some(64));
        let mut reference = SchedulerLogic::with_dense_shadow(64);
        for inv in 0..12usize {
            let stream: Vec<(ThreadId, Vec<usize>, Vec<usize>)> = (0..5)
                .map(|i| {
                    let reads = if i == 0 { vec![32 + inv] } else { vec![] };
                    (i % 2, vec![i], reads)
                })
                .collect();
            let (got, hit) = drive(&mut core, &stream);
            assert_eq!(got, run_reference(&mut reference, &stream));
            assert!(!hit);
        }
        assert!(!core.memo().is_replayable());
    }

    #[test]
    fn rotations_beyond_max_period_never_promote() {
        // Iteration i of invocation k writes cell (i + k) % 37: the
        // fingerprint period is 37 > MAX_PERIOD, so the memo never
        // promotes no matter how long the run.
        let mut core = ScheduleCore::new(Some(37));
        let mut reference = SchedulerLogic::with_dense_shadow(37);
        for inv in 0..(2 * MAX_PERIOD + 8) {
            let stream: Vec<(ThreadId, Vec<usize>, Vec<usize>)> = (0..5)
                .map(|i| (i % 2, vec![(i + inv) % 37], vec![]))
                .collect();
            let (got, hit) = drive(&mut core, &stream);
            assert_eq!(got, run_reference(&mut reference, &stream), "inv {inv}");
            assert!(!hit);
        }
        assert!(!core.memo().is_replayable());
    }

    #[test]
    fn stale_dependences_block_promotion() {
        // Cell 7 is written once up front and only *read* afterwards: every
        // steady-state invocation emits a condition on that never-shifting
        // write, which must disqualify replay (shifting it would name an
        // iteration that never retires).
        let mut core = ScheduleCore::new(Some(8));
        let mut reference = SchedulerLogic::with_dense_shadow(8);
        let warmup: Vec<(ThreadId, Vec<usize>, Vec<usize>)> =
            vec![(0, vec![7], vec![]), (1, vec![3], vec![])];
        let steady: Vec<(ThreadId, Vec<usize>, Vec<usize>)> =
            vec![(0, vec![0], vec![7]), (1, vec![1], vec![7])];
        let (got, _) = drive(&mut core, &warmup);
        assert_eq!(got, run_reference(&mut reference, &warmup));
        for _ in 0..5 {
            let (got, hit) = drive(&mut core, &steady);
            assert_eq!(got, run_reference(&mut reference, &steady));
            assert!(!hit, "stale-dep schedule must never replay");
        }
    }

    #[test]
    fn unusable_invocation_invalidates() {
        let stream = stencil_stream(6, 2);
        let mut core = ScheduleCore::new(Some(6));
        for _ in 0..3 {
            drive(&mut core, &stream);
        }
        assert!(core.memo().is_replayable());
        // An invocation with memoization off: scheduled normally, memo
        // told to stand down.
        let (_, hit) = drive_with(&mut core, &stream, false);
        assert!(!hit);
        assert!(
            !core.memo().is_replayable(),
            "unusable invocation invalidates"
        );
        // Two further clean invocations re-warm it.
        drive(&mut core, &stream);
        drive(&mut core, &stream);
        let (_, hit) = drive(&mut core, &stream);
        assert!(hit);
    }

    /// Warms `core` until `stream` replays, mirroring every invocation
    /// into `reference`.
    fn warm(
        core: &mut ScheduleCore,
        reference: &mut SchedulerLogic,
        stream: &[(ThreadId, Vec<usize>, Vec<usize>)],
    ) {
        for _ in 0..3 {
            let (got, _) = drive(core, stream);
            assert_eq!(got, run_reference(reference, stream));
        }
        assert!(core.memo().is_replayable());
    }

    #[test]
    fn fingerprint_divergence_at_first_iteration_falls_back() {
        // The very first replayed iteration already mismatches (no
        // dispatched prefix to catch up): the fallback must still schedule
        // the whole invocation byte-identically to the reference.
        let steady = stencil_stream(8, 2);
        let mut core = ScheduleCore::new(Some(8));
        let mut reference = SchedulerLogic::with_dense_shadow(8);
        warm(&mut core, &mut reference, &steady);
        let mut changed = steady.clone();
        changed[0].2 = vec![5]; // different read set at iteration 0
        let (got, hit) = drive(&mut core, &changed);
        assert_eq!(got, run_reference(&mut reference, &changed));
        assert!(!hit, "a diverged invocation is not a cache hit");
        assert!(
            !core.memo().is_replayable(),
            "divergence invalidates the memo"
        );
    }

    #[test]
    fn fingerprint_divergence_at_last_iteration_falls_back() {
        // Divergence on the final iteration: the longest possible
        // dispatched prefix must be caught up through `recorded_tid` and
        // the shadow must end bit-identical to plain scheduling —
        // observable through the *next* invocation's conditions.
        let steady = stencil_stream(8, 2);
        let mut core = ScheduleCore::new(Some(8));
        let mut reference = SchedulerLogic::with_dense_shadow(8);
        warm(&mut core, &mut reference, &steady);
        let mut changed = steady.clone();
        let last = changed.len() - 1;
        changed[last].1 = vec![2]; // write set differs only at the end
        let (got, hit) = drive(&mut core, &changed);
        assert_eq!(got, run_reference(&mut reference, &changed));
        assert!(!hit);
        // The shadow state after fallback must drive identical sync
        // conditions on the following invocations.
        for inv in 0..3 {
            let (got, _) = drive(&mut core, &steady);
            assert_eq!(
                got,
                run_reference(&mut reference, &steady),
                "post-fallback invocation {inv}"
            );
        }
    }

    #[test]
    fn assignment_divergence_falls_back_like_a_fingerprint_mismatch() {
        // Same access stream, different live policy decision (a stateful
        // policy such as `Adaptive` may change its mind): `replay_step`
        // must treat the tid mismatch exactly like a fingerprint mismatch.
        let steady = stencil_stream(8, 2);
        let mut core = ScheduleCore::new(Some(8));
        let mut reference = SchedulerLogic::with_dense_shadow(8);
        warm(&mut core, &mut reference, &steady);
        let mut moved = steady.clone();
        moved[3].0 = (moved[3].0 + 1) % 2;
        let (got, hit) = drive(&mut core, &moved);
        assert_eq!(got, run_reference(&mut reference, &moved));
        assert!(!hit);
        assert!(!core.memo().is_replayable());
        // Re-warms and replays again afterwards.
        warm(&mut core, &mut reference, &steady);
        let (_, hit) = drive(&mut core, &steady);
        assert!(hit);
    }

    #[test]
    fn changed_iteration_count_is_not_replayed() {
        let stream = stencil_stream(6, 2);
        let mut core = ScheduleCore::new(Some(6));
        let mut reference = SchedulerLogic::with_dense_shadow(6);
        for _ in 0..3 {
            drive(&mut core, &stream);
            run_reference(&mut reference, &stream);
        }
        assert!(core.memo().is_replayable());
        let short: Vec<_> = stream[..4].to_vec();
        let (got, hit) = drive(&mut core, &short);
        assert_eq!(got, run_reference(&mut reference, &short));
        assert!(!hit);
    }
}
