//! Property-based tests of the system's core invariants.
//!
//! The correctness argument of both techniques reduces to a handful of
//! invariants — signature conservativeness, scheduling-condition
//! well-formedness, runtime/sequential equivalence, simulator determinism.
//! These are checked here over randomized inputs with `proptest`.

use proptest::prelude::*;

use crossinvoc_domore::logic::SchedulerLogic;
use crossinvoc_domore::prelude::*;
use crossinvoc_runtime::json::{self, Json};
use crossinvoc_runtime::signature::{AccessKind, AccessSignature, BloomSignature, RangeSignature};
use crossinvoc_runtime::telemetry::{RegionState, ServerRegistry};
use crossinvoc_runtime::trace::{Event, Trace, TraceSink};
use crossinvoc_runtime::SharedSlice;
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::Position;
use crossinvoc_workloads::synthetic::IncGrid;

mod support;

/// An access list: (address, is_write) pairs over a small address space.
fn accesses() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0usize..64, any::<bool>()), 0..12)
}

fn fill<S: AccessSignature>(list: &[(usize, bool)]) -> S {
    let mut s = S::empty();
    for &(addr, w) in list {
        s.record(
            addr,
            if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        );
    }
    s
}

/// Exact conflict semantics: some address touched by both, with at least
/// one write on each... (write/any overlap).
fn exact_conflict(a: &[(usize, bool)], b: &[(usize, bool)]) -> bool {
    a.iter()
        .any(|&(addr, aw)| b.iter().any(|&(baddr, bw)| addr == baddr && (aw || bw)))
}

/// Range merges are exact when, per access kind, the two intervals leave no
/// address between them: adjacent intervals join, a gap of one does not, an
/// absent side joins anything.
#[test]
fn range_merge_exactness_witnesses() {
    let range = |list: &[(usize, bool)]| fill::<RangeSignature>(list);
    let (r, w) = (false, true);
    assert!(range(&[(4, w), (5, w)]).merge_is_exact(&range(&[(6, w)])));
    assert!(range(&[(6, w)]).merge_is_exact(&range(&[(4, w), (5, w)])));
    assert!(!range(&[(4, w), (5, w)]).merge_is_exact(&range(&[(7, w)])));
    // The hull [4, 7] would cover 6, which neither member wrote.
    let mut hull = range(&[(4, w), (5, w)]);
    hull.merge(&range(&[(7, w)]));
    assert!(hull.conflicts_with(&range(&[(6, r)])));
    // Kinds are judged separately: the writes touch, the reads do not.
    assert!(!range(&[(0, r), (4, w)]).merge_is_exact(&range(&[(2, r), (5, w)])));
    // A side with no reads (or nothing at all) joins any reads.
    assert!(range(&[(4, w)]).merge_is_exact(&range(&[(40, r), (5, w)])));
    assert!(range(&[]).merge_is_exact(&range(&[(9, r), (30, w)])));
    assert!(range(&[(9, r), (30, w)]).merge_is_exact(&range(&[])));
    // OR-ing Bloom filters is always exact.
    assert!(fill::<BloomSignature>(&[(1, w)]).merge_is_exact(&fill(&[(50, r)])));
}

proptest! {
    /// Signatures are conservative: a real conflict is never missed.
    #[test]
    fn range_signature_never_misses_conflicts(a in accesses(), b in accesses()) {
        if exact_conflict(&a, &b) {
            let sa: RangeSignature = fill(&a);
            let sb: RangeSignature = fill(&b);
            prop_assert!(sa.conflicts_with(&sb));
        }
    }

    /// Same soundness property for the Bloom scheme.
    #[test]
    fn bloom_signature_never_misses_conflicts(a in accesses(), b in accesses()) {
        if exact_conflict(&a, &b) {
            let sa: BloomSignature = fill(&a);
            let sb: BloomSignature = fill(&b);
            prop_assert!(sa.conflicts_with(&sb));
        }
    }

    /// Conflict detection is symmetric for both schemes.
    #[test]
    fn signature_conflicts_are_symmetric(a in accesses(), b in accesses()) {
        let (ra, rb): (RangeSignature, RangeSignature) = (fill(&a), fill(&b));
        prop_assert_eq!(ra.conflicts_with(&rb), rb.conflicts_with(&ra));
        let (ba, bb): (BloomSignature, BloomSignature) = (fill(&a), fill(&b));
        prop_assert_eq!(ba.conflicts_with(&bb), bb.conflicts_with(&ba));
    }

    /// Where a scheme calls a merge exact, the union conflicts with exactly
    /// what a member conflicts with — the licence for folding consecutive
    /// tasks of a chunk into one check request. Short lists over a narrow
    /// space, so touching, gapped and one-sided pairs all come up.
    #[test]
    fn exact_merges_conflict_with_nothing_their_members_do_not(
        a in prop::collection::vec((0usize..24, any::<bool>()), 0..3),
        b in prop::collection::vec((0usize..24, any::<bool>()), 0..3),
        q in prop::collection::vec((0usize..24, any::<bool>()), 0..3),
    ) {
        fn holds<S: AccessSignature>(a: &[(usize, bool)], b: &[(usize, bool)], q: &[(usize, bool)]) {
            let (a, b, q): (S, S, S) = (fill(a), fill(b), fill(q));
            if a.merge_is_exact(&b) {
                let mut merged = a.clone();
                merged.merge(&b);
                assert_eq!(
                    merged.conflicts_with(&q),
                    a.conflicts_with(&q) || b.conflicts_with(&q),
                    "{a:?} + {b:?} against {q:?}"
                );
            }
        }
        holds::<RangeSignature>(&a, &b, &q);
        holds::<BloomSignature>(&a, &b, &q);
    }

    /// Scheduler conditions are well-formed: they reference strictly
    /// earlier combined iterations, never the assigned worker itself, and
    /// at most one condition per predecessor worker.
    #[test]
    fn scheduler_conditions_are_well_formed(
        stream in prop::collection::vec((0usize..4, prop::collection::vec(0usize..32, 0..4)), 1..80)
    ) {
        let mut logic = SchedulerLogic::with_dense_shadow(32);
        let mut conds = Vec::new();
        for (tid, addrs) in stream {
            conds.clear();
            let iter = logic.schedule(tid, &addrs, &mut conds);
            for c in &conds {
                prop_assert!(c.dep_iter < iter, "conditions look backwards");
                prop_assert_ne!(c.dep_tid, tid, "no self-waits");
            }
            let mut tids: Vec<_> = conds.iter().map(|c| c.dep_tid).collect();
            tids.sort_unstable();
            tids.dedup();
            prop_assert_eq!(tids.len(), conds.len(), "one condition per worker");
        }
    }

    /// Position packing round-trips and preserves order.
    #[test]
    fn position_pack_is_order_preserving(e1 in 0u32..1000, t1 in 0u32..1000,
                                         e2 in 0u32..1000, t2 in 0u32..1000) {
        let a = Position { epoch: e1, task: t1 };
        let b = Position { epoch: e2, task: t2 };
        prop_assert_eq!(Position::unpack(a.pack()), a);
        prop_assert_eq!(a < b, a.pack() < b.pack());
    }

    /// The simulator is a pure function: identical inputs, identical
    /// timelines.
    #[test]
    fn simulator_is_deterministic(invs in 1usize..12, iters in 1usize..16,
                                  cost_ns in 1u64..10_000, threads in 1usize..9) {
        let w = UniformWorkload::rotating(invs, iters, cost_ns);
        let model = CostModel::default();
        let a = barrier(&w, threads, &model);
        let b = barrier(&w, threads, &model);
        prop_assert_eq!(&a, &b);
        let params = SpecSimParams::with_threads(threads);
        let sa = speccross(&w, &params, &model);
        let sb = speccross(&w, &params, &model);
        prop_assert_eq!(sa.total_ns, sb.total_ns);
    }

    /// Simulated parallel executions respect the work lower bound
    /// (total time ≥ total work / threads) and never beat it.
    #[test]
    fn simulated_time_respects_work_conservation(invs in 1usize..10, iters in 1usize..16,
                                                 cost_ns in 100u64..5_000, threads in 1usize..9) {
        let w = UniformWorkload::independent(invs, iters, cost_ns);
        let work = w.total_work_ns();
        let r = barrier(&w, threads, &CostModel::free());
        prop_assert!(r.total_ns >= work / threads as u64);
        prop_assert!(r.total_ns <= work, "parallel never slower than serial work");
    }
}

proptest! {
    /// The robustness invariant: a run under *any* seeded fault plan ends,
    /// within the watchdog deadline, in either the sequential reference
    /// state or a typed error — never a deadlock, never an abort.
    #[test]
    fn any_seeded_fault_plan_ends_sequential_or_typed_error(seed in any::<u64>()) {
        use crossinvoc_runtime::fault::FaultPlan;
        use crossinvoc_speccross::{DegradePolicy, SpecConfig, SpecCrossEngine};

        let (epochs, tasks, workers) = (6usize, 6usize, 2usize);
        let plan = FaultPlan::random(seed, epochs as u32, tasks as u64, workers);
        // Conflict-free grid: the sequential reference is `epochs` in
        // every cell, and a clean run never conflicts. Its tasks are heavy
        // enough for every pass to run wide.
        let w = IncGrid::new(tasks, epochs).with_spin(crossinvoc_speccross::WIDE_TASK_NS);
        let result = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(workers)
                .checkpoint_every(2)
                .fault_plan(plan)
                .degrade(DegradePolicy::default())
                .watchdog(std::time::Duration::from_secs(60)),
        )
        .execute(&w);
        match result {
            // Absorbed (possibly degraded): the state must be sequential.
            Ok(report) => {
                prop_assert_eq!(w.cells(), w.expected());
                prop_assert_eq!(report.stats.epochs >= epochs as u64, true);
            }
            // Not absorbable: a typed error is the contract; reaching this
            // arm at all means no hang and no process abort.
            Err(e) => {
                let _: crossinvoc_speccross::SpecError = e;
            }
        }
    }
}

/// Randomized DOMORE executions on real threads match sequential
/// semantics. Kept outside `proptest!` iteration-count defaults: thread
/// spawning is expensive, so a handful of seeded cases suffice.
#[test]
fn randomized_domore_matches_sequential() {
    struct Random {
        data: SharedSlice<u64>,
        cells: Vec<Vec<usize>>, // per (inv, iter) address sets
        invs: usize,
        iters: usize,
    }
    impl DomoreWorkload for Random {
        fn num_invocations(&self) -> usize {
            self.invs
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.iters
        }
        fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.extend(&self.cells[inv * self.iters + iter]);
        }
        fn execute_iteration(&self, inv: usize, iter: usize, _tid: usize) {
            for &addr in &self.cells[inv * self.iters + iter] {
                // SAFETY: the runtime orders conflicting iterations.
                unsafe {
                    self.data.update(addr, |v| {
                        *v = crossinvoc_runtime::hash::splitmix64(*v ^ (inv * 31 + iter) as u64)
                    })
                };
            }
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    for seed in 0..6u64 {
        let mut rng = crossinvoc_runtime::hash::SplitMix64::new(seed);
        let (invs, iters, space) = (6, 10, 24);
        let cells: Vec<Vec<usize>> = (0..invs * iters)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| rng.next_below(space as u64) as usize)
                    .collect()
            })
            .collect();
        let make = |cells: Vec<Vec<usize>>| Random {
            data: SharedSlice::from_vec(vec![0; space]),
            cells,
            invs,
            iters,
        };
        let mut reference = make(cells.clone());
        for inv in 0..invs {
            for iter in 0..iters {
                reference.execute_iteration(inv, iter, 0);
            }
        }
        let expected = reference.data.snapshot();
        let mut parallel = make(cells);
        DomoreRuntime::new(DomoreConfig::with_workers(3))
            .execute(&parallel)
            .unwrap();
        assert_eq!(parallel.data.snapshot(), expected, "seed {seed}");
    }
}

/// A seeded random DOMORE nest over a small address space, shared by the
/// dispatch-equivalence property below.
struct RandomNest {
    data: SharedSlice<u64>,
    cells: Vec<Vec<usize>>, // per (inv, iter) address sets
    invs: usize,
    iters: usize,
}

impl RandomNest {
    fn generate(seed: u64, invs: usize, iters: usize, space: usize) -> Vec<Vec<usize>> {
        let mut rng = crossinvoc_runtime::hash::SplitMix64::new(seed);
        (0..invs * iters)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| rng.next_below(space as u64) as usize)
                    .collect()
            })
            .collect()
    }

    fn new(cells: Vec<Vec<usize>>, invs: usize, iters: usize, space: usize) -> Self {
        Self {
            data: SharedSlice::from_vec(vec![0; space]),
            cells,
            invs,
            iters,
        }
    }
}

impl DomoreWorkload for RandomNest {
    fn num_invocations(&self) -> usize {
        self.invs
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.iters
    }
    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
        out.extend(&self.cells[inv * self.iters + iter]);
    }
    fn execute_iteration(&self, inv: usize, iter: usize, _tid: usize) {
        for &addr in &self.cells[inv * self.iters + iter] {
            // SAFETY: the runtime orders conflicting iterations.
            unsafe {
                self.data.update(addr, |v| {
                    *v = crossinvoc_runtime::hash::splitmix64(*v ^ (inv * 31 + iter) as u64)
                })
            };
        }
    }
    fn address_space(&self) -> Option<usize> {
        Some(self.data.len())
    }
}

proptest! {
    /// Dispatch-policy transparency: round-robin and adaptive dispatch are
    /// different *placements* of the same dependence-ordered iteration
    /// stream, so both must land in exactly the sequential state — policy
    /// choice can change timing, never observable results.
    #[test]
    fn round_robin_and_adaptive_dispatch_agree_with_sequential(
        seed in any::<u64>(),
        workers in 1usize..=3,
    ) {
        let (invs, iters, space) = (4usize, 8usize, 16usize);
        let cells = RandomNest::generate(seed, invs, iters, space);

        let mut reference = RandomNest::new(cells.clone(), invs, iters, space);
        for inv in 0..invs {
            for iter in 0..iters {
                reference.execute_iteration(inv, iter, 0);
            }
        }
        let expected = reference.data.snapshot();

        for dispatch in [Dispatch::RoundRobin, Dispatch::Adaptive] {
            let mut nest = RandomNest::new(cells.clone(), invs, iters, space);
            DomoreRuntime::new(DomoreConfig::with_workers(workers))
                .with_dispatch(dispatch)
                .execute(&nest)
                .unwrap();
            prop_assert_eq!(
                nest.data.snapshot(),
                expected.clone(),
                "dispatch {:?} diverged (seed {}, {} workers)",
                dispatch,
                seed,
                workers
            );
        }
    }
}

/// Inspector-Executor wavefront soundness: two iterations placed in the
/// same wavefront never conflict (write/any overlap) — checked over random
/// access patterns.
#[test]
fn inspector_wavefronts_are_conflict_free() {
    use crossinvoc_runtime::hash::SplitMix64;
    use crossinvoc_runtime::signature::AccessKind;
    use crossinvoc_sim::inspector::wavefronts;

    #[derive(Debug)]
    struct RandomAccesses {
        cells: Vec<Vec<(usize, AccessKind)>>,
    }
    impl SimWorkload for RandomAccesses {
        fn num_invocations(&self) -> usize {
            1
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.cells.len()
        }
        fn iteration_cost(&self, _inv: usize, _iter: usize) -> u64 {
            1
        }
        fn accesses(&self, _inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
            out.extend_from_slice(&self.cells[iter]);
        }
        fn address_space(&self) -> Option<usize> {
            Some(16)
        }
    }

    for seed in 0..20u64 {
        let mut rng = SplitMix64::new(seed);
        let cells: Vec<Vec<(usize, AccessKind)>> = (0..40)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| {
                        let addr = rng.next_below(16) as usize;
                        let kind = if rng.next_below(2) == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        (addr, kind)
                    })
                    .collect()
            })
            .collect();
        let w = RandomAccesses { cells };
        let fronts = wavefronts(&w, 0);
        for a in 0..40 {
            for b in (a + 1)..40 {
                if fronts[a] != fronts[b] {
                    continue;
                }
                let conflict = w.cells[a].iter().any(|&(addr, ka)| {
                    w.cells[b].iter().any(|&(baddr, kb)| {
                        addr == baddr && (ka == AccessKind::Write || kb == AccessKind::Write)
                    })
                });
                assert!(
                    !conflict,
                    "seed {seed}: iterations {a} and {b} share wavefront {} but conflict",
                    fronts[a]
                );
            }
        }
    }
}

/// Decodes a thread id from raw bits, including the service-thread
/// sentinels that exercise the JSONL writer's special cases.
fn tid_from(raw: u64) -> usize {
    use crossinvoc_runtime::trace::{CHECKER_TID, MANAGER_TID};
    match raw % 10 {
        8 => CHECKER_TID,
        9 => MANAGER_TID,
        n => n as usize,
    }
}

/// Decodes a task record's `count ≥ 1` from raw bits: one task (the form
/// with no `count` on the wire) a third of the time, else any `u32` but 0.
fn count_from(raw: u64) -> u32 {
    if raw.is_multiple_of(3) {
        1
    } else {
        ((raw >> 2) as u32).max(1)
    }
}

/// Builds one arbitrary trace [`Event`]: `sel` picks the variant and the
/// raw words fill its fields. (The vendored proptest shim has no
/// `prop_oneof!`, so variant choice is an explicit decode; callers sweep
/// `sel` over `0..14` to guarantee every variant appears in every case.)
fn event_from(
    sel: usize,
    x: (u64, u64, u64),
    y: (u64, u64, u64),
) -> crossinvoc_runtime::trace::Event {
    use crossinvoc_runtime::fault::FaultKind;
    use crossinvoc_runtime::trace::{Event, WakeEdge};
    let (a, b, c) = x;
    let (d, e, f) = y;
    let epoch = a as u32;
    match sel % 14 {
        0 => Event::EpochBegin { epoch },
        1 => Event::EpochEnd { epoch },
        2 => Event::TaskAssign {
            epoch,
            task: b,
            worker: tid_from(c),
            count: count_from(f),
        },
        3 => Event::TaskDispatch {
            epoch,
            task: b,
            count: count_from(f),
        },
        4 => Event::TaskRetire {
            epoch,
            task: b,
            count: count_from(f),
        },
        5 => Event::BarrierEnter { epoch },
        6 => Event::BarrierLeave { epoch, wait_ns: b },
        7 => Event::Checkpoint { epoch },
        8 => Event::Misspeculation {
            earlier_tid: tid_from(a),
            earlier_epoch: b as u32,
            earlier_task: c,
            later_tid: tid_from(d),
            later_epoch: e as u32,
            later_task: f,
        },
        9 => Event::Degradation { epoch },
        10 => Event::FaultInjected {
            kind: match b % 7 {
                0 => FaultKind::WorkerPanic,
                1 => FaultKind::CheckerStall(c),
                2 => FaultKind::CheckerDeath,
                3 => FaultKind::FalsePositive,
                4 => FaultKind::SnapshotFail,
                5 => FaultKind::RestoreFail,
                _ => FaultKind::Delay(c),
            },
            epoch,
            task: d,
        },
        11 => Event::CheckerSummary {
            epoch,
            skips: b,
            comparisons: c,
        },
        12 => Event::ScheduleCacheHit { epoch },
        _ => Event::Wake {
            edge: WakeEdge::ALL[(b % 4) as usize],
            src_tid: tid_from(c),
            seq: d,
        },
    }
}

proptest! {
    /// The JSONL wire schema is lossless over *every* event variant,
    /// including `Wake` over all four edge classes, the service-thread tids
    /// and full-range `u64` fields: a trace built from arbitrary records
    /// round-trips through `to_jsonl`/`from_jsonl` unchanged. At least 14
    /// records per case and an `i % 14` variant sweep guarantee
    /// full variant coverage in every case, not just in expectation.
    #[test]
    fn trace_jsonl_round_trips_every_event_variant(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u64>(),
             (any::<u64>(), any::<u64>(), any::<u64>()),
             (any::<u64>(), any::<u64>(), any::<u64>())),
            14..40)
    ) {
        use crossinvoc_runtime::trace::{Trace, TraceRecord};
        let records: Vec<TraceRecord> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (t_ns, tid, x, y))| TraceRecord {
                t_ns,
                tid: tid_from(tid),
                event: event_from(i, x, y),
            })
            .collect();
        let trace = Trace::from_records(records);
        let parsed = Trace::from_jsonl(&trace.to_jsonl());
        prop_assert_eq!(parsed.expect("round-trip must parse"), trace);
    }

    /// Run-level task records are transparent to the report: a stream of
    /// per-task assign / dispatch / retire records and the same stream
    /// folded into one record per contiguous run (`count` = its length)
    /// credit every thread with the same `tasks` and `assigned`, and give
    /// the same scheduler load balance.
    #[test]
    fn folding_task_records_into_runs_keeps_the_report(
        runs in prop::collection::vec((0usize..4, 1u32..9, 0u32..3), 1..24)
    ) {
        use crossinvoc_runtime::trace::{TraceRecord, TraceReport, MANAGER_TID};
        let (mut per_task, mut folded) = (Vec::new(), Vec::new());
        let mut t = 0u64;
        let mut rec = |out: &mut Vec<TraceRecord>, tid, event| {
            t += 1;
            out.push(TraceRecord { t_ns: t, tid, event });
        };
        let mut next_task = [0u64; 4];
        for &(worker, len, epoch) in &runs {
            let first = next_task[worker];
            next_task[worker] += u64::from(len);
            for task in first..first + u64::from(len) {
                rec(&mut per_task, MANAGER_TID, Event::TaskAssign { epoch, task, worker, count: 1 });
                rec(&mut per_task, worker, Event::TaskDispatch { epoch, task, count: 1 });
                rec(&mut per_task, worker, Event::TaskRetire { epoch, task, count: 1 });
            }
            let task = first;
            rec(&mut folded, MANAGER_TID, Event::TaskAssign { epoch, task, worker, count: len });
            rec(&mut folded, worker, Event::TaskDispatch { epoch, task, count: len });
            rec(&mut folded, worker, Event::TaskRetire { epoch, task, count: len });
        }
        let a = TraceReport::from_trace(&Trace::from_records(per_task));
        let b = TraceReport::from_trace(&Trace::from_records(folded));
        let counts = |r: &TraceReport| -> Vec<(usize, u64, u64)> {
            r.threads.iter().map(|t| (t.tid, t.tasks, t.assigned)).collect()
        };
        prop_assert_eq!(counts(&a), counts(&b));
        prop_assert_eq!(a.dispatch_balance(), b.dispatch_balance());
    }
}

/// The exact overlap-race predicate the checker implements, restated
/// pointwise for the naive reference below: two logged tasks race iff they
/// ran on different workers in different epochs and the earlier-epoch task
/// had not retired when the later-epoch task began.
fn races(
    a: &crossinvoc_speccross::CheckRequest<RangeSignature>,
    b: &crossinvoc_speccross::CheckRequest<RangeSignature>,
) -> bool {
    if a.tid == b.tid || a.pos.epoch == b.pos.epoch {
        return false;
    }
    let (earlier, later) = if a.pos.epoch < b.pos.epoch {
        (a, b)
    } else {
        (b, a)
    };
    earlier.pos >= later.snapshot[earlier.tid] && a.sig.conflicts_with(&b.sig)
}

type Request = crossinvoc_speccross::CheckRequest<RangeSignature>;

/// Turns random `steps` into an admission stream that keeps
/// `CheckerState::admit`'s invariant — each worker's requests in position
/// order, its snapshots (a lagging view of a monotone progress board)
/// monotone in every slot. Every request may come with an epoch all
/// workers have reached: a legal `retire_before` argument at that point.
fn monotone_stream(workers: usize, steps: Vec<(u64, Vec<usize>)>) -> Vec<(Request, Option<u32>)> {
    let mut board = vec![Position::ZERO; workers]; // latest started pos
    let mut observed = vec![Position::ZERO; workers]; // lagging view
    let mut live = vec![false; workers];
    steps
        .into_iter()
        .map(|(r, addrs)| {
            let w = (r % workers as u64) as usize;
            // Advance worker `w` to its next position: a fresh epoch with
            // probability 1/3, the next task of the current epoch otherwise.
            let pos = if !live[w] {
                live[w] = true;
                board[w]
            } else if (r >> 4) % 3 == 0 {
                Position {
                    epoch: board[w].epoch + 1,
                    task: 0,
                }
            } else {
                Position {
                    epoch: board[w].epoch,
                    task: board[w].task + 1,
                }
            };
            board[w] = pos;
            // Occasionally publish some worker's progress into the lagging
            // view; both moves keep every log's snapshots monotone.
            if (r >> 16) % 2 == 0 {
                let v = ((r >> 20) % workers as u64) as usize;
                observed[v] = board[v];
            }
            observed[w] = pos;
            let mut sig = RangeSignature::empty();
            for &a in &addrs {
                sig.record(a, AccessKind::Write);
            }
            let req = Request {
                tid: w,
                pos,
                snapshot: observed.clone().into_boxed_slice(),
                sig,
            };
            let retire =
                ((r >> 24) % 8 == 0).then(|| board.iter().map(|p| p.epoch).min().unwrap_or(0));
            (req, retire)
        })
        .collect()
}

proptest! {
    /// The epoch-bucketed checker with its aggregate fast path reaches the
    /// same verdict as a naive reference that compares the arriving request
    /// against *every* logged task with the pure race predicate — over
    /// randomized interleavings with monotone progress boards, lagging
    /// snapshot views and interleaved retirement. When the bucketed checker
    /// reports a conflict, the named pair must really race. The naive log
    /// only shrinks at `retire_before`; the checker's also retires itself,
    /// so it holds a subset.
    #[test]
    fn bucketed_checker_matches_naive_reference(
        workers in 2usize..5,
        steps in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0usize..24, 0..4)), 1..100),
    ) {
        use crossinvoc_speccross::CheckerState;

        let mut bucketed = CheckerState::<RangeSignature>::new(workers);
        let mut naive: Vec<Request> = Vec::new();

        for (req, retire) in monotone_stream(workers, steps) {
            let expect = naive.iter().any(|logged| races(logged, &req));
            let got = bucketed.admit(req.clone());
            prop_assert_eq!(got.is_some(), expect, "verdicts diverged");
            if let Some(c) = got {
                let find = |(tid, pos): (usize, Position)| {
                    if req.tid == tid && req.pos == pos {
                        req.clone()
                    } else {
                        naive
                            .iter()
                            .find(|q| q.tid == tid && q.pos == pos)
                            .expect("conflict names a logged task")
                            .clone()
                    }
                };
                let (earlier, later) = (find(c.earlier), find(c.later));
                prop_assert!(earlier.pos.epoch < later.pos.epoch);
                prop_assert!(races(&earlier, &later), "reported pair must race");
            }
            naive.push(req);

            // Occasional retirement at a globally-passed epoch.
            if let Some(e) = retire {
                bucketed.retire_before(e);
                naive.retain(|q| q.pos.epoch >= e);
            }
            prop_assert!(bucketed.logged() <= naive.len());
        }
    }

    /// The log's self-retirement is invisible: routed over 1–9 shards, every
    /// shard's self-retiring `CheckerState` returns the verdict and the
    /// named pair of a twin that only ever retires at `retire_before`, and
    /// has counted the same comparisons and epoch skips, at every admission
    /// — with the aggregate fast path on and off.
    #[test]
    fn self_retiring_log_is_verdict_transparent(
        workers in 2usize..5,
        shards in 1usize..10,
        aggregates in any::<bool>(),
        steps in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0usize..24, 0..4)), 1..100),
    ) {
        use crossinvoc_speccross::{CheckerState, ShardMap};

        let map = ShardMap::new(shards);
        let mut twins: Vec<_> = (0..shards)
            .map(|_| (
                CheckerState::<RangeSignature>::with_aggregates(workers, aggregates),
                CheckerState::<RangeSignature>::without_self_retirement(workers, aggregates),
            ))
            .collect();

        for (req, retire) in monotone_stream(workers, steps) {
            for shard in map.shards_for_span(req.sig.addr_span()).iter() {
                let (retiring, reference) = &mut twins[shard];
                prop_assert_eq!(
                    retiring.admit(req.clone()),
                    reference.admit(req.clone()),
                    "verdict or named pair diverged at {:?} on shard {}", req.pos, shard
                );
                prop_assert_eq!(retiring.comparisons(), reference.comparisons());
                prop_assert_eq!(retiring.epoch_skips(), reference.epoch_skips());
                prop_assert!(retiring.logged() <= reference.logged());
            }
            if let Some(e) = retire {
                for (retiring, reference) in &mut twins {
                    retiring.retire_before(e);
                    reference.retire_before(e);
                }
            }
        }
    }

    /// Sharding the checker is verdict-transparent for Range signatures:
    /// over randomized request streams — multi-address spans that straddle
    /// shards, lagging snapshot views, interleaved retirement — every shard
    /// count issues exactly the unsharded verdict at every admission. (The
    /// merge rule under test: a straddling task is admitted iff every
    /// touched shard admits it, and any shard's conflict is the verdict.)
    #[test]
    fn sharded_checker_matches_unsharded_verdicts(
        workers in 2usize..5,
        shards in 2usize..10,
        steps in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0usize..24, 0..4)), 1..100),
    ) {
        use crossinvoc_speccross::{CheckerState, ShardedChecker};

        let mut plain = CheckerState::<RangeSignature>::new(workers);
        let mut sharded = ShardedChecker::<RangeSignature>::new(workers, shards);

        for (req, retire) in monotone_stream(workers, steps) {
            let pos = req.pos;
            prop_assert_eq!(
                sharded.admit(req.clone()).is_some(),
                plain.admit(req).is_some(),
                "verdicts diverged at {:?} with {} shards",
                pos,
                shards
            );
            if let Some(e) = retire {
                plain.retire_before(e);
                sharded.retire_before(e);
            }
        }
    }
}

/// On round-robin streams with fresh snapshots the self-retiring log holds
/// an in-flight window, not a history: with every worker running
/// `tasks_per_epoch` tasks per epoch and worker `w` starting `w × lag` tasks
/// late, it never holds more than workers × tasks-per-epoch × (max epoch
/// lag + 2) requests, however many epochs go by — and it reaches the
/// verdicts of a log that keeps them all.
#[test]
fn self_retiring_log_is_bounded_on_round_robin_streams() {
    use crossinvoc_speccross::CheckerState;

    for (workers, tasks_per_epoch, lag) in [(2, 4, 1), (3, 5, 7), (4, 3, 10), (2, 1, 3)] {
        let epochs = 60u32;
        let mut retiring = CheckerState::<RangeSignature>::new(workers);
        let mut reference = CheckerState::<RangeSignature>::without_self_retirement(workers, true);
        let mut board = vec![Position::ZERO; workers];
        let mut started = vec![false; workers];
        let (mut max_lag, mut peak) = (0u32, 0usize);
        let per_worker = epochs as usize * tasks_per_epoch;
        for step in 0..per_worker + lag * workers {
            for w in 0..workers {
                let Some(i) = step.checked_sub(w * lag).filter(|&i| i < per_worker) else {
                    continue;
                };
                let pos = Position {
                    epoch: (i / tasks_per_epoch) as u32,
                    task: (i % tasks_per_epoch) as u32,
                };
                board[w] = pos;
                started[w] = true;
                let live = || {
                    board
                        .iter()
                        .zip(&started)
                        .filter(|s| *s.1)
                        .map(|s| s.0.epoch)
                };
                max_lag = max_lag.max(live().max().unwrap() - live().min().unwrap());
                let mut sig = RangeSignature::empty();
                // Epoch-private cells: speculation never fails here.
                sig.record(i * workers + w, AccessKind::Write);
                let req = Request {
                    tid: w,
                    pos,
                    snapshot: board.clone().into_boxed_slice(),
                    sig,
                };
                assert_eq!(retiring.admit(req.clone()), reference.admit(req));
                assert_eq!(retiring.comparisons(), reference.comparisons());
                assert_eq!(retiring.epoch_skips(), reference.epoch_skips());
                peak = peak.max(retiring.logged());
            }
        }
        let bound = workers * tasks_per_epoch * (max_lag as usize + 2);
        assert!(
            peak <= bound,
            "{workers} workers × {tasks_per_epoch} tasks, lag {lag}: peak {peak} > bound {bound}"
        );
        assert_eq!(
            reference.logged(),
            workers * per_worker,
            "the reference keeps everything"
        );
        assert!(
            peak < reference.logged() / 4,
            "the window is not the history"
        );
    }
}

/// One invocation's per-iteration `(policy tid, writes, reads)`.
type Stream = Vec<(usize, Vec<usize>, Vec<usize>)>;
/// The `(tid, iter_num, conditions)` a scheduler emitted, per iteration.
type Emitted = Vec<(usize, u64, Vec<SyncCondition>)>;

/// Schedules one invocation of `stream` through the production core
/// ([`crossinvoc_domore::ScheduleCore`] — the step the threaded runtime, the
/// duplicated scheduler and the simulator all drive), collecting what it
/// emits. `reroute(iter, policy_tid)` is the post-policy stage of `assign`
/// (identity, or a dead-worker reroute). Returns the emitted decisions,
/// which of them were replayed, and the cache-hit verdict.
fn schedule_through_core(
    core: &mut crossinvoc_domore::ScheduleCore,
    stream: &Stream,
    memo_usable: bool,
    mut reroute: impl FnMut(usize, usize) -> usize,
) -> (Emitted, Vec<bool>, bool) {
    let base = core.next_iter_num();
    let mut out = Vec::new();
    let mut replayed = Vec::new();
    let hit = core
        .run_invocation(
            stream.len(),
            memo_usable,
            |iter, writes, reads| {
                writes.extend_from_slice(&stream[iter].1);
                reads.extend_from_slice(&stream[iter].2);
            },
            |iter_num, _| {
                let iter = (iter_num - base) as usize;
                Some(reroute(iter, stream[iter].0))
            },
            |_, tid, iter_num, conds, was_replayed| {
                out.push((tid, iter_num, conds.to_vec()));
                replayed.push(was_replayed);
            },
        )
        .expect("every iteration is assigned");
    (out, replayed, hit)
}

/// The reference: `stream` scheduled by a plain [`SchedulerLogic`] that
/// never memoizes, with worker `tid_of(iter, policy_tid)`.
fn schedule_plainly(
    reference: &mut SchedulerLogic,
    stream: &Stream,
    tid_of: impl Fn(usize, usize) -> usize,
) -> Emitted {
    stream
        .iter()
        .enumerate()
        .map(|(iter, (policy_tid, writes, reads))| {
            let tid = tid_of(iter, *policy_tid);
            let mut conds = Vec::new();
            let n = reference.schedule_rw(tid, writes, reads, &mut conds);
            (tid, n, conds)
        })
        .collect()
}

/// A random invocation over a 16-cell address space; the raw placement is
/// folded onto the worker count by [`place`].
fn raw_stream() -> impl Strategy<Value = Vec<(u64, Vec<usize>, Vec<usize>)>> {
    prop::collection::vec(
        (
            any::<u64>(),
            prop::collection::vec(0usize..16, 0..3),
            prop::collection::vec(0usize..16, 0..3),
        ),
        2..24,
    )
}

fn place(raw: Vec<(u64, Vec<usize>, Vec<usize>)>, workers: usize) -> Stream {
    raw.into_iter()
        .map(|(t, w, r)| ((t % workers as u64) as usize, w, r))
        .collect()
}

proptest! {
    /// Cross-invocation schedule memoization is *transparent*: over any
    /// randomized steady stream — arbitrary per-iteration read/write sets
    /// and worker placements, repeated across invocations with one randomly
    /// perturbed invocation in the middle — the scheduling core emits
    /// byte-identical `(tid, iter_num, conditions)` streams to a plain
    /// [`SchedulerLogic`] that never memoizes, through warm-up, replay,
    /// mid-replay divergence and re-warming alike.
    #[test]
    fn memoized_schedule_is_byte_identical_to_recomputation(
        workers in 1usize..4,
        raw in raw_stream(),
        divergence in any::<u64>(),
    ) {
        let stream = place(raw, workers);
        let mut core = crossinvoc_domore::ScheduleCore::new(Some(16));
        let mut reference = SchedulerLogic::with_dense_shadow(16);
        let mut hits = 0u64;
        for inv in 0..7usize {
            // One invocation (picked by `divergence`) perturbs a single
            // iteration's write set, exercising the fallback path.
            let mut s = stream.clone();
            if inv == (divergence % 7) as usize {
                let k = (divergence >> 8) as usize % s.len();
                s[k].1 = vec![(divergence >> 16) as usize % 16];
            }
            let (got, _, hit) = schedule_through_core(&mut core, &s, true, |_, tid| tid);
            let want = schedule_plainly(&mut reference, &s, |_, tid| tid);
            prop_assert_eq!(got, want, "invocation {} diverged", inv);
            hits += u64::from(hit);
        }
        prop_assert_eq!(core.memo().hits(), hits);
    }

    /// A worker dies at a random iteration of a random invocation of a
    /// steady (hence replaying) stream — the path only racy stress tests
    /// reach on real threads. From that point `assign` reroutes the dead
    /// worker's iterations to its successor, and from the next invocation
    /// the memo is declared unusable, exactly as the threaded scheduler
    /// does. The emitted stream must equal a plain [`SchedulerLogic`]
    /// driven with the same rerouted workers — so nothing is assigned to
    /// the worker after its death and every condition names the worker its
    /// dependence was really dispatched to — and the policy is consulted
    /// exactly once per iteration, including the one a replay diverged on.
    #[test]
    fn dead_worker_reroute_matches_plain_scheduling(
        workers in 2usize..5,
        raw in raw_stream(),
        death in any::<u64>(),
    ) {
        let stream = place(raw, workers);
        let dead = death as usize % workers;
        let death_inv = (death >> 8) as usize % 7;
        let death_iter = (death >> 16) as usize % stream.len();
        let live_tid = |inv: usize, iter: usize, tid: usize| {
            if tid == dead && (inv, iter) >= (death_inv, death_iter) {
                (tid + 1) % workers
            } else {
                tid
            }
        };
        let mut core = crossinvoc_domore::ScheduleCore::new(Some(16));
        let mut reference = SchedulerLogic::with_dense_shadow(16);
        for inv in 0..7usize {
            let mut consulted = vec![0u32; stream.len()];
            let (got, replayed, hit) =
                schedule_through_core(&mut core, &stream, inv <= death_inv, |iter, tid| {
                    consulted[iter] += 1;
                    live_tid(inv, iter, tid)
                });
            let want = schedule_plainly(&mut reference, &stream, |iter, tid| live_tid(inv, iter, tid));
            prop_assert_eq!(&got, &want, "invocation {} diverged", inv);
            prop_assert!(
                consulted.iter().all(|&n| n == 1),
                "invocation {}: policy consultations per iteration {:?}",
                inv,
                consulted
            );
            for (iter, (tid, _, _)) in got.iter().enumerate() {
                prop_assert!(
                    *tid != dead || (inv, iter) < (death_inv, death_iter),
                    "iteration {} of invocation {} went to the dead worker",
                    iter,
                    inv
                );
            }
            // A replay never resumes once it diverged, and only a fully
            // replayed invocation counts as a hit.
            prop_assert!(replayed.windows(2).all(|w| w[0] || !w[1]));
            prop_assert_eq!(hit, replayed.iter().all(|&r| r));
            prop_assert!(!hit || inv <= death_inv);
        }
    }
}

/// Restoring DOMORE's barrier at every invocation can only slow it down:
/// the barriered executor is never faster than the cross-invocation one.
#[test]
fn barriered_domore_never_beats_full_domore() {
    use crossinvoc_domore::policy::RoundRobin;
    for (invs, iters, cost_ns) in [(20, 8, 500), (5, 64, 3_000), (50, 3, 10_000)] {
        let w = UniformWorkload::rotating(invs, iters, cost_ns);
        let model = CostModel::default();
        let full = domore(&w, 4, &mut RoundRobin, &model);
        let barriered = domore_barriered(&w, 4, &mut RoundRobin, &model);
        assert!(
            barriered.total_ns >= full.total_ns,
            "({invs},{iters},{cost_ns}): {} < {}",
            barriered.total_ns,
            full.total_ns
        );
    }
}

proptest! {
    /// The differential fuzzer's acceptance property: a randomly generated
    /// case with a randomly injected fault schedule always terminates
    /// (watchdog-bounded inside `run_case`) and every engine path either
    /// reproduces the sequential oracle's memory image byte for byte or
    /// fails with a typed error / degraded report — never a hang, never
    /// silent corruption.
    #[test]
    fn fault_injected_cases_terminate_with_clean_outcomes(seed in 0u64..1_000_000) {
        let params = crossinvoc_fuzz::GenParams {
            fault_percent: 100,
            ..crossinvoc_fuzz::GenParams::default()
        };
        let case = crossinvoc_fuzz::generate(seed, &params);
        let report = crossinvoc_fuzz::run_case(&case);
        prop_assert!(
            report.divergence.is_none(),
            "seed {} ({}): {:?}",
            seed,
            case.note,
            report.divergence
        );
    }

    /// Fault-free cases are exact: every applicable path must agree with
    /// the oracle, including the Bloom-signature configurations whose
    /// false positives trigger rollbacks.
    #[test]
    fn fault_free_cases_are_oracle_exact(seed in 0u64..1_000_000) {
        let params = crossinvoc_fuzz::GenParams {
            fault_percent: 0,
            ..crossinvoc_fuzz::GenParams::default()
        };
        let case = crossinvoc_fuzz::generate(seed, &params);
        let report = crossinvoc_fuzz::run_case(&case);
        prop_assert!(
            report.divergence.is_none(),
            "seed {} ({}): {:?}",
            seed,
            case.note,
            report.divergence
        );
    }
}

proptest! {
    /// The flight-recorder substrate: a trace ring of capacity `c` handed
    /// `n` records keeps exactly the newest `min(n, c)` in emission order
    /// and accounts every eviction — `dropped()` is `n - min(n, c)`
    /// *exactly*, on the sink and on the merged [`Trace`] alike, so a
    /// post-mortem dump can always say how much history it is missing.
    #[test]
    fn trace_ring_drop_accounting_is_exact(capacity in 1usize..48, n in 0usize..128) {
        let mut sink = TraceSink::with_capacity(0, capacity);
        for i in 0..n {
            sink.emit_at(i as u64, Event::EpochBegin { epoch: i as u32 });
        }
        let kept = n.min(capacity);
        let evicted = (n - kept) as u64;
        prop_assert_eq!(sink.len(), kept);
        prop_assert_eq!(sink.dropped(), evicted);
        let trace = Trace::from_sinks([sink]);
        prop_assert_eq!(trace.records().len(), kept);
        prop_assert_eq!(trace.dropped(), evicted);
        // Survivors are exactly the newest `kept` records, oldest first.
        for (j, rec) in trace.records().iter().enumerate() {
            prop_assert_eq!(rec.t_ns, evicted + j as u64);
        }
    }

    /// Registry snapshots are consistent at every step of an arbitrary
    /// interleaving of registrations and cell lifecycle mutations: row
    /// counts and counters reflect exactly the operations applied so far,
    /// and a finish is terminal — replaying every cell with the *opposite*
    /// outcome afterwards changes nothing.
    #[test]
    fn registry_snapshots_reflect_applied_operations(
        specs in prop::collection::vec(
            (1usize..5, any::<bool>(), 0u64..4, 0u64..3), 1..8)
    ) {
        let registry = std::sync::Arc::new(ServerRegistry::new(8));
        let mut cells = Vec::new();
        for (i, &(gang, hard_fail, degrades, waits)) in specs.iter().enumerate() {
            let cell = registry.register(i as u64 + 1, "prop", gang);
            // Snapshot mid-registration: earlier regions present, in order.
            prop_assert_eq!(registry.snapshot().regions.len(), i + 1);
            cell.mark_running();
            for _ in 0..waits {
                cell.add_queue_wait(7);
            }
            for _ in 0..degrades {
                cell.add_degrade_event();
            }
            if hard_fail {
                cell.fail(None);
            } else {
                cell.complete(0, false, None);
            }
            cells.push(cell);
        }
        let snap = registry.snapshot();
        prop_assert_eq!(snap.pool.slots, 8);
        prop_assert_eq!(snap.regions.len(), specs.len());
        for (row, &(gang, hard_fail, degrades, waits)) in snap.regions.iter().zip(&specs) {
            prop_assert_eq!(row.gang, gang);
            prop_assert_eq!(row.queue_wait_ns, waits * 7);
            prop_assert_eq!(row.degrade_events, degrades);
            prop_assert_eq!(row.faults, u64::from(hard_fail));
            let want = if hard_fail { RegionState::Faulted } else { RegionState::Done };
            prop_assert_eq!(row.state, want);
        }
        // Terminality: contradicting finishes must be no-ops.
        for (cell, &(_, hard_fail, _, _)) in cells.iter().zip(&specs) {
            if hard_fail {
                cell.complete(5, true, None);
            } else {
                cell.fail(None);
            }
        }
        prop_assert_eq!(registry.snapshot().regions, snap.regions);
    }
}

/// Snapshots taken *while* a cell is mutated from another thread are
/// always internally consistent: the degrade counter only moves forward,
/// never exceeds what the mutator has applied, a snapshot that observes
/// the terminal state also observes every prior counter update, and the
/// post-join snapshot is exact. (Threaded companion to the sequential
/// `registry_snapshots_reflect_applied_operations` property, following the
/// suite's convention of keeping threaded checks outside `proptest!`.)
#[test]
fn registry_snapshots_stay_consistent_under_concurrent_mutation() {
    const EVENTS: u64 = 10_000;
    let registry = std::sync::Arc::new(ServerRegistry::new(4));
    let cell = registry.register(1, "prop-threaded", 2);
    std::thread::scope(|scope| {
        let mutator = {
            let cell = std::sync::Arc::clone(&cell);
            scope.spawn(move || {
                cell.mark_running();
                for _ in 0..EVENTS {
                    cell.add_degrade_event();
                }
                cell.complete(0, false, None);
            })
        };
        let mut last = 0u64;
        loop {
            let snap = registry.snapshot();
            assert_eq!(snap.regions.len(), 1);
            let row = &snap.regions[0];
            assert!(row.degrade_events >= last, "degrade counter went backwards");
            assert!(row.degrade_events <= EVENTS, "counter overshot the mutator");
            last = row.degrade_events;
            if row.state == RegionState::Done {
                // The terminal-state store releases every prior update.
                assert_eq!(row.degrade_events, EVENTS);
                break;
            }
            std::hint::spin_loop();
        }
        mutator.join().unwrap();
    });
    let row = &registry.snapshot().regions[0];
    assert_eq!(row.degrade_events, EVENTS);
    assert_eq!(row.faults, 0);
    assert_eq!(row.state, RegionState::Done);
}

/// A random JSON tree from one seed: every scalar kind, strings drawing on
/// the characters the writer must escape (quotes, backslashes, control
/// characters) plus multi-byte UTF-8, integers up to the exact-`f64` limit,
/// fractions and exponents, and nested containers including empty ones.
fn json_tree(rng: &mut proptest::test_runner::TestRng, depth: u32) -> Json {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'µ', '😀',
    ];
    let string = |rng: &mut proptest::test_runner::TestRng| -> String {
        (0..rng.next_u64() % 6)
            .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
            .collect()
    };
    let scalars = if depth == 0 { 6 } else { 8 };
    match rng.next_u64() % scalars {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 0),
        // Integers across the whole exactly-representable range.
        2 => Json::Num(
            (rng.next_u64() >> 11) as f64 * if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 },
        ),
        // Fractions (what `Json::fixed` produces) …
        3 => Json::fixed(
            (rng.next_u64() % 2_000_000) as f64 / 1e6 - 1.0,
            (rng.next_u64() % 7) as usize,
        ),
        // … and arbitrary finite doubles, exponents included.
        4 => {
            let x = f64::from_bits(rng.next_u64());
            Json::Num(if x.is_finite() { x } else { 0.5 })
        }
        5 => Json::Str(string(rng)),
        6 => Json::Arr(
            (0..rng.next_u64() % 4)
                .map(|_| json_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.next_u64() % 4)
                .map(|_| (string(rng), json_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    /// `parse ∘ render` is the identity on JSON trees, for both renderings —
    /// the contract that lets gate reports and telemetry snapshots be built
    /// as data and still read back exactly. Integer *literals* at or above
    /// 2^53 are the pinned exception: the parser rejects them rather than
    /// round them (the writer emits such magnitudes in float notation, so
    /// trees holding them still round-trip).
    #[test]
    fn json_parse_inverts_render(seed in any::<u64>()) {
        let tree = json_tree(&mut proptest::test_runner::TestRng::new(seed), 3);
        prop_assert_eq!(&json::parse(&tree.render()).unwrap(), &tree);
        prop_assert_eq!(&json::parse(&tree.pretty()).unwrap(), &tree);
        prop_assert!(!tree.render().contains('\n'), "the compact form is one line");
    }
}

#[test]
fn json_rejects_integer_literals_it_cannot_hold_exactly() {
    assert!(json::parse("[9007199254740991]").is_ok());
    assert!(json::parse("[9007199254740992]").is_err());
    assert!(json::parse("{\"n\": -18446744073709551615}").is_err());
    // The writer never emits such a literal: float notation round-trips.
    for big in [Json::Num(2f64.powi(53)), Json::from(u64::MAX)] {
        assert!(big.render().contains(['.', 'e']), "{}", big.render());
        assert_eq!(json::parse(&big.render()).unwrap(), big);
    }
}

// ---------------------------------------------------------------------------
// O(dirty) checkpoints: dirty-block refreshes and rollbacks against full
// copies.
// ---------------------------------------------------------------------------

mod dirty_checkpoints {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;
    use crossinvoc_runtime::fault::FaultPlan;
    use crossinvoc_runtime::ThreadId;
    use crossinvoc_speccross::checkpoint::{Checkpoint, DirtyBlocks, BLOCK_CELLS};
    use crossinvoc_speccross::workload::{AccessRecorder, NullRecorder, SigRecorder};
    use crossinvoc_speccross::{ContainedFault, SpecConfig, SpecCrossEngine, SpecWorkload};
    use crossinvoc_workloads::kernel::profile_distance;
    use crossinvoc_workloads::{registry, AccessKernel, Scale};

    /// A write stream as a model: invocation `i` writes each address of
    /// `batches[i]` once, after reading its neighbour.
    #[derive(Debug)]
    struct Stream {
        batches: Vec<Vec<usize>>,
    }

    impl SimWorkload for Stream {
        fn num_invocations(&self) -> usize {
            self.batches.len()
        }
        fn num_iterations(&self, inv: usize) -> usize {
            self.batches[inv].len()
        }
        fn iteration_cost(&self, _inv: usize, _iter: usize) -> u64 {
            1
        }
        fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
            let addr = self.batches[inv][iter];
            out.push((addr ^ 1, AccessKind::Read));
            out.push((addr, AccessKind::Write));
        }
    }

    /// `AccessKernel` whose next dirty refresh, once armed, copies half of
    /// what it should, scribbles over the buffer and panics.
    struct Tearing<'a> {
        kernel: &'a AccessKernel<Stream>,
        armed: AtomicBool,
    }

    impl SpecWorkload for Tearing<'_> {
        type State = Vec<i64>;
        fn num_epochs(&self) -> usize {
            self.kernel.num_epochs()
        }
        fn num_tasks(&self, epoch: usize) -> usize {
            self.kernel.num_tasks(epoch)
        }
        fn execute_task(&self, e: usize, t: usize, tid: ThreadId, r: &mut dyn AccessRecorder) {
            self.kernel.execute_task(e, t, tid, r);
        }
        fn snapshot(&self) -> Vec<i64> {
            self.kernel.snapshot()
        }
        fn restore(&self, state: &Vec<i64>) {
            self.kernel.restore(state);
        }
        fn refresh(&self, state: &mut Vec<i64>, stale: &DirtyBlocks) -> usize {
            if !self.armed.swap(false, Ordering::Relaxed) {
                return self.kernel.refresh(state, stale);
            }
            let mut half = DirtyBlocks::new();
            for cells in stale.ranges(state.len()).step_by(2) {
                half.mark_span(cells.start, cells.end - 1);
            }
            self.kernel.refresh(state, &half);
            state.iter_mut().step_by(7).for_each(|v| *v ^= 0x5A5A);
            panic!("refresh torn midway");
        }
        fn restore_dirty(&self, state: &Vec<i64>, dirty: &DirtyBlocks) -> usize {
            self.kernel.restore_dirty(state, dirty)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Run the next batch, marking blocks as a speculative chunk does
        /// (`true`: signature spans) or as barrier execution does.
        Write(bool),
        Checkpoint,
        /// A refresh into the spare that panics midway.
        TornCheckpoint,
        Rollback,
        /// A pass after a recovery: the durable buffer refreshed in place.
        Restart,
    }

    fn op(raw: u8) -> Op {
        match raw % 10 {
            0..=2 => Op::Write(true),
            3..=4 => Op::Write(false),
            5..=6 => Op::Checkpoint,
            7 => Op::TornCheckpoint,
            8 => Op::Rollback,
            _ => Op::Restart,
        }
    }

    /// Drives one kernel through `ops` with dirty-block copies and a twin
    /// through the same `ops` with full copies, and checks after every step
    /// that live memory, the durable buffer and — unless a torn refresh
    /// left it undefined — the spare agree.
    fn check_against_full_copies(cells: usize, batches: Vec<Vec<usize>>, ops: &[Op]) {
        let len = batches.len();
        let kernel = AccessKernel::new(
            Stream {
                batches: batches.clone(),
            },
            cells,
        );
        let twin = AccessKernel::new(Stream { batches }, cells);
        let tearing = Tearing {
            kernel: &kernel,
            armed: AtomicBool::new(false),
        };
        let mut checkpoint = Checkpoint::new(&kernel, 0);
        let (mut durable, mut spare) = (twin.snapshot(), None::<Vec<i64>>);
        let mut written = DirtyBlocks::new();
        let mut next = 0;
        for (step, &op) in ops.iter().enumerate() {
            if !matches!(op, Op::Write(_)) {
                checkpoint.fold(&written);
                written.clear();
            }
            match op {
                Op::Write(spans) => {
                    let batch = next % len;
                    next += 1;
                    for task in 0..kernel.num_tasks(batch) {
                        if spans {
                            let mut sig = SigRecorder::<RangeSignature>::new();
                            kernel.execute_task(batch, task, 0, &mut sig);
                            written.mark_sig(&sig.take());
                        } else {
                            kernel.execute_task(batch, task, 0, &mut written);
                        }
                        twin.execute_task(batch, task, 0, &mut NullRecorder);
                    }
                }
                Op::Checkpoint => {
                    checkpoint.advance(&kernel, step);
                    spare = Some(std::mem::replace(&mut durable, twin.snapshot()));
                }
                Op::TornCheckpoint => {
                    tearing.armed.store(true, Ordering::Relaxed);
                    let torn =
                        catch_unwind(AssertUnwindSafe(|| checkpoint.advance(&tearing, step)));
                    // With no spare yet, the advance snapshots afresh and
                    // never reaches a refresh.
                    if torn.is_err() {
                        spare = None;
                    } else {
                        tearing.armed.store(false, Ordering::Relaxed);
                        spare = Some(std::mem::replace(&mut durable, twin.snapshot()));
                    }
                }
                Op::Rollback => {
                    checkpoint.roll_back(&kernel);
                    twin.restore(&durable);
                }
                Op::Restart => {
                    checkpoint.restart(&kernel, step);
                    durable = twin.snapshot();
                }
            }
            assert_eq!(
                kernel.snapshot(),
                twin.snapshot(),
                "memory after step {step} {op:?}"
            );
            assert_eq!(
                checkpoint.state(),
                &durable,
                "durable buffer after step {step} {op:?}"
            );
            if let Some(spare) = &spare {
                assert_eq!(
                    checkpoint.spare(),
                    Some(spare),
                    "spare after step {step} {op:?}"
                );
            }
        }
    }

    proptest! {
        /// Random write streams over 8⅓ blocks (the last one partial) under
        /// random checkpoint, rollback, restart and torn-refresh schedules,
        /// empty intervals and empty batches included.
        #[test]
        fn dirty_copies_equal_full_copies(
            batches in prop::collection::vec(
                prop::collection::vec(0usize..(8 * BLOCK_CELLS + 100), 0..10), 1..8),
            ops in prop::collection::vec(any::<u8>(), 1..40),
        ) {
            let ops: Vec<Op> = ops.into_iter().map(op).collect();
            check_against_full_copies(8 * BLOCK_CELLS + 100, batches, &ops);
        }
    }

    /// Writes past the bitmap's capacity turn an interval into a full copy,
    /// in both directions and through a torn refresh.
    #[test]
    fn writes_past_the_bitmap_capacity_fall_back_to_full_copies() {
        let cells = DirtyBlocks::CAPACITY * BLOCK_CELLS + 3 * BLOCK_CELLS;
        let past = DirtyBlocks::CAPACITY * BLOCK_CELLS + 700;
        let batches = vec![vec![5, 9000], vec![past, 77], vec![cells - 1], vec![]];
        use Op::*;
        let ops = [
            Write(true),
            Checkpoint,
            Write(true),
            Checkpoint,
            Write(false),
            Rollback,
            Write(false),
            TornCheckpoint,
            Write(true),
            Checkpoint,
            Write(true),
            Rollback,
            Restart,
            Write(true),
            Write(true),
            Checkpoint,
            Rollback,
        ];
        check_against_full_copies(cells, batches, &ops);
    }

    /// The whole engine on the kernels `spec_recover` runs, at Test scale,
    /// with their addresses spread over many blocks: false positives, a
    /// contained worker panic and frequent checkpoints still end in the
    /// sequential memory image, with one misspeculation per false positive
    /// and checkpoints that copied only some blocks.
    #[test]
    fn engine_recovers_with_dirty_checkpoints_on_spread_kernels() {
        /// Address `a` of the model becomes `a * STRIDE`: the same conflict
        /// structure, a block apart every few cells.
        const STRIDE: usize = 97;
        struct Spread(Box<dyn SimWorkload + Send + Sync>);
        impl SimWorkload for Spread {
            fn num_invocations(&self) -> usize {
                self.0.num_invocations()
            }
            fn num_iterations(&self, inv: usize) -> usize {
                self.0.num_iterations(inv)
            }
            fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
                self.0.iteration_cost(inv, iter)
            }
            fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
                let from = out.len();
                self.0.accesses(inv, iter, out);
                out[from..].iter_mut().for_each(|(addr, _)| *addr *= STRIDE);
            }
            fn address_space(&self) -> Option<usize> {
                self.0.address_space().map(|n| (n - 1) * STRIDE + 1)
            }
        }

        for name in ["JACOBI", "FDTD", "EQUAKE"] {
            let info = registry::by_name(name);
            let model = Spread(info.model(Scale::Test));
            let distance = profile_distance(&model, 6).min_distance;
            let kernel = AccessKernel::from_model(model);
            let expected = kernel.sequential_checksum();
            let epochs = kernel.num_epochs() as u32;
            let false_positives = [epochs / 5, 3 * epochs / 5, 4 * epochs / 5];
            let plan = false_positives.iter().fold(
                FaultPlan::new().worker_panic_at(2 * epochs / 5, 1),
                |plan, &e| plan.false_positive_at(e),
            );
            let report = SpecCrossEngine::<RangeSignature>::new(
                SpecConfig::with_workers(2)
                    .spec_distance(distance)
                    .checkpoint_every(3)
                    .fault_plan(plan),
            )
            .execute(&kernel)
            .unwrap();
            assert_eq!(kernel.checksum(), expected, "{name}");
            assert_eq!(
                report.stats.misspeculations, 3,
                "{name}: one per false positive"
            );
            assert!(
                report
                    .contained_faults
                    .iter()
                    .any(|f| matches!(f, ContainedFault::WorkerPanic { .. })),
                "{name}: {:?}",
                report.contained_faults
            );
            // Every checkpoint after the first, every rollback and every
            // restart after one copies at most the whole state.
            let recoveries = report.stats.misspeculations + 1;
            let copies = report.stats.checkpoints - 1 + 2 * recoveries;
            let whole = kernel.snapshot().len().div_ceil(BLOCK_CELLS) as u64;
            assert!(
                report.stats.checkpoint_blocks > 0
                    && report.stats.checkpoint_blocks <= copies * whole,
                "{name}: {} blocks copied by {copies} copies of {whole}",
                report.stats.checkpoint_blocks,
            );
        }
    }

    /// Copies are O(dirty): each epoch writes one block of a 256-block
    /// state, so with no panic to mark everything, checkpoints, rollbacks
    /// and restarts together copy a small fraction of what full copies
    /// would. Dirty marks that fell back to "every block" — at shipping,
    /// folding or in barrier re-execution — would copy it all.
    #[test]
    fn engine_copies_only_the_blocks_tasks_wrote() {
        const BLOCKS: usize = 256;
        let batches = (0..40)
            .map(|e| {
                let block = (e * 37) % BLOCKS;
                (0..8).map(|t| block * BLOCK_CELLS + 64 * t).collect()
            })
            .collect();
        let kernel = AccessKernel::new(Stream { batches }, BLOCKS * BLOCK_CELLS);
        let expected = kernel.sequential_checksum();
        let plan = [7, 18, 31]
            .into_iter()
            .fold(FaultPlan::new(), |plan, e| plan.false_positive_at(e));
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(5)
                .fault_plan(plan),
        )
        .execute(&kernel)
        .unwrap();
        assert_eq!(kernel.checksum(), expected);
        assert_eq!(report.stats.misspeculations, 3);
        let recoveries = report.stats.misspeculations + 1;
        let copies = report.stats.checkpoints - 1 + 2 * recoveries;
        let full = copies * BLOCKS as u64;
        assert!(
            report.stats.checkpoint_blocks > 0 && 8 * report.stats.checkpoint_blocks < full,
            "{} blocks copied; full copies would be {full}",
            report.stats.checkpoint_blocks,
        );
    }
}

/// Wide passes on the Table 5.1 kernels the benchmark runs at about a
/// microsecond per task (here with more busy work still): worker 0 times
/// the first epoch alone, and the others join at the next one. A joiner whose frontier worker 0 had not
/// set before publishing the width would let worker 0 run ungated past it
/// — real, correctly detected misspeculations on a gated region — so a
/// gated region must stay clean and sequential, run after run.
mod wide_passes {
    use super::support::Wide;
    use super::*;
    use crossinvoc_speccross::{SpecConfig, SpecCrossEngine};
    use crossinvoc_workloads::kernel::profile_distance;
    use crossinvoc_workloads::{registry, AccessKernel, Scale};

    #[test]
    fn gated_coarse_kernels_run_wide_without_misspeculating() {
        for name in ["JACOBI", "EQUAKE"] {
            let model = registry::by_name(name).model(Scale::Test);
            let distance = profile_distance(model.as_ref(), 6).min_distance;
            let kernel = Wide(AccessKernel::from_model(model));
            let expected = kernel.0.sequential_checksum();
            for run in 0..4 {
                kernel.0.reset();
                let report = SpecCrossEngine::<RangeSignature>::new(
                    SpecConfig::with_workers(1).spec_distance(distance),
                )
                .execute(&kernel)
                .unwrap();
                assert_eq!(report.stats.wide_passes, 1, "{name} run {run}");
                assert_eq!(report.stats.misspeculations, 0, "{name} run {run}");
                assert_eq!(kernel.0.checksum(), expected, "{name} run {run}");
            }
        }
    }
}
