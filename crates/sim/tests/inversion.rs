//! The simulator's misspeculation verdicts are the engine checker's.
//!
//! `Inversion` is the cross-epoch write-write *inversion* that told the two
//! apart while the simulator still carried its own checker mirror. Two
//! workers. Epoch 0 has four tasks — worker 0's cost 100 000 ns each,
//! worker 1's 10 ns — and epoch 1 has two. Task `(0,2)` (epoch 0, worker
//! 0's second task) and task `(1,1)` (epoch 1, worker 1's first) both write
//! cell 7. Worker 1 races through its epoch-0 share and *finishes* `(1,1)`
//! at 30 ns, long before lagging worker 0 even *starts* `(0,2)` at
//! 100 000 ns: the two writes commit in the opposite of program order, a
//! genuine misspeculation. The engine's test is "the earlier-epoch task had
//! not retired when the later-epoch task began" and catches it; the deleted
//! mirror tested interval overlap (`e.start < finish && start < e.finish`)
//! and never compared the pair.
//!
//! The proptest at the bottom generalises the one shape: on random
//! timelines the simulator misspeculates exactly when a brute-force scan of
//! rules 1–3 of `speccross::check` over its own traced task times finds a
//! racing, conflicting pair.

use std::collections::HashMap;

use crossinvoc_runtime::hash::splitmix64;
use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_runtime::trace::Event;
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::{CheckerState, Position};

const WORKERS: usize = 2;

struct Inversion;

impl SimWorkload for Inversion {
    fn num_invocations(&self) -> usize {
        2
    }
    fn num_iterations(&self, inv: usize) -> usize {
        [4, 2][inv]
    }
    fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
        if iter % WORKERS == 0 {
            100_000
        } else {
            10
        }
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        if matches!((inv, iter), (0, 2) | (1, 1)) {
            out.push((7, AccessKind::Write));
        } else {
            // Everything else stays out of the way on its own cell.
            out.push((100 + inv * 10 + iter, AccessKind::Write));
        }
    }
}

/// One task on the ungated, frictionless virtual timeline: tasks go
/// round-robin to workers, each worker runs its share back to back.
struct Timed {
    tid: usize,
    pos: Position,
    start: u64,
    finish: u64,
    sig: RangeSignature,
}

fn timeline(w: &Inversion) -> Vec<Timed> {
    let mut clocks = [0u64; WORKERS];
    let mut tasks = Vec::new();
    let mut pairs = Vec::new();
    for inv in 0..w.num_invocations() {
        for iter in 0..w.num_iterations(inv) {
            let tid = iter % WORKERS;
            let start = clocks[tid];
            clocks[tid] += w.iteration_cost(inv, iter);
            pairs.clear();
            w.accesses(inv, iter, &mut pairs);
            let mut sig = RangeSignature::empty();
            for &(addr, kind) in &pairs {
                sig.record(addr, kind);
            }
            tasks.push(Timed {
                tid,
                pos: Position {
                    epoch: inv as u32,
                    task: (iter / WORKERS) as u32,
                },
                start,
                finish: clocks[tid],
                sig,
            });
        }
    }
    tasks
}

/// The independent reference for the simulator's snapshot derivation: its
/// own timeline, its own `position_at`, requests admitted in *finish* order
/// (the straggler direction — `(1,1)` is logged long before `(0,2)` arrives)
/// through [`CheckerState::admit_parts`], the call both the threaded
/// checker and the simulator admit every request with.
#[test]
fn engine_checker_flags_the_inversion() {
    let tasks = timeline(&Inversion);
    // The position a worker's board slot shows at virtual time `t`: the
    // task it is running, or one past its last once it has none left.
    let position_at = |tid: usize, t: u64| {
        tasks
            .iter()
            .filter(|task| task.tid == tid)
            .find(|task| task.finish > t)
            .map_or(
                Position {
                    epoch: Inversion.num_invocations() as u32,
                    task: 0,
                },
                |task| task.pos,
            )
    };
    // Requests reach the checker as tasks finish.
    let mut order: Vec<&Timed> = tasks.iter().collect();
    order.sort_by_key(|task| task.finish);
    let mut checker = CheckerState::<RangeSignature>::new(WORKERS);
    let conflict = order.into_iter().find_map(|task| {
        let snapshot: Vec<Position> = (0..WORKERS)
            .map(|tid| position_at(tid, task.start))
            .collect();
        checker.admit_parts(task.tid, task.pos, &snapshot, task.sig.clone())
    });
    let conflict = conflict.expect("the engine's checker must flag the write-write inversion");
    assert_eq!(conflict.earlier, (0, Position { epoch: 0, task: 1 }));
    assert_eq!(conflict.later, (1, Position { epoch: 1, task: 0 }));
}

#[test]
fn simulated_checker_flags_the_inversion() {
    let r = speccross(
        &Inversion,
        &SpecSimParams::with_threads(WORKERS).trace(1 << 8),
        &CostModel::free(),
    );
    assert!(
        r.stats.misspeculations >= 1,
        "the simulated checker never compared (0,2) with (1,1)"
    );
    let trace = r.trace.expect("tracing was requested");
    let first = trace.records().iter().find_map(|rec| match rec.event {
        Event::Misspeculation {
            earlier_tid,
            earlier_epoch,
            earlier_task,
            later_tid,
            later_epoch,
            later_task,
        } => Some((
            (earlier_tid, earlier_epoch, earlier_task),
            (later_tid, later_epoch, later_task),
        )),
        _ => None,
    });
    assert_eq!(first, Some(((0, 0, 2), (1, 1, 1))), "the inverted pair");
}

/// A random region: per-epoch task counts, per-worker-lane speeds (slow
/// lanes lag whole epochs behind fast ones, which is what makes inversions)
/// and one cell per task drawn from a small pool, all hashed from `seed`.
/// With `disjoint` every task touches a cell of its own instead — the same
/// timeline with nothing to conflict on.
struct Random {
    seed: u64,
    workers: usize,
    epochs: usize,
    disjoint: bool,
}

impl Random {
    fn hash(&self, salt: u64, a: usize, b: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt ^ ((a as u64) << 32 | b as u64)))
    }

    fn signature(&self, inv: usize, iter: usize) -> RangeSignature {
        let mut pairs = Vec::new();
        self.accesses(inv, iter, &mut pairs);
        let mut sig = RangeSignature::empty();
        for &(addr, kind) in &pairs {
            sig.record(addr, kind);
        }
        sig
    }
}

impl SimWorkload for Random {
    fn num_invocations(&self) -> usize {
        self.epochs
    }
    fn num_iterations(&self, inv: usize) -> usize {
        1 + (self.hash(1, inv, 0) % (2 * self.workers as u64)) as usize
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        let slow_lane = self.hash(2, iter % self.workers, 0).is_multiple_of(2);
        let jitter = 1 + self.hash(3, inv, iter) % 20;
        if slow_lane {
            jitter * 100
        } else {
            jitter
        }
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        if self.disjoint {
            out.push((1_000 + inv * 100 + iter, AccessKind::Write));
            return;
        }
        let h = self.hash(4, inv, iter);
        let kind = if h.is_multiple_of(3) {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        out.push(((h >> 8) as usize % (3 * self.workers), kind));
    }
}

proptest::proptest! {
    /// `misspeculations > 0` ⇔ some pair of tasks (1) on different workers,
    /// (2) from different epochs, (3) with the earlier-epoch one not yet
    /// retired when the later-epoch one was dispatched, has conflicting
    /// signatures. Task times come from the simulator's own trace of the
    /// disjoint twin: ungated and frictionless, a task's times do not
    /// depend on what anything touches, and the twin never rolls back, so
    /// its trace is the whole speculative timeline.
    #[test]
    fn simulated_verdict_matches_brute_force_over_traced_times(
        seed in proptest::any::<u64>(),
        workers in 2usize..=4,
        epochs in 2usize..=5,
    ) {
        let region = |disjoint| Random { seed, workers, epochs, disjoint };
        let timing = speccross(
            &region(true),
            &SpecSimParams::with_threads(workers).trace(1 << 12),
            &CostModel::free(),
        );
        assert_eq!(timing.stats.misspeculations, 0, "disjoint cells cannot conflict");
        // (epoch, task) → (dispatch, retire).
        let mut times: HashMap<(u32, u64), (u64, u64)> = HashMap::new();
        for rec in timing.trace.expect("tracing was requested").records() {
            match rec.event {
                Event::TaskDispatch { epoch, task, .. } => times.entry((epoch, task)).or_default().0 = rec.t_ns,
                Event::TaskRetire { epoch, task, .. } => times.entry((epoch, task)).or_default().1 = rec.t_ns,
                _ => {}
            }
        }
        let w = region(false);
        let tasks: Vec<(usize, usize)> = (0..epochs)
            .flat_map(|inv| (0..w.num_iterations(inv)).map(move |iter| (inv, iter)))
            .collect();
        assert_eq!(times.len(), tasks.len(), "every task is traced exactly once");
        let racing_conflict = tasks.iter().any(|&(e_inv, e_iter)| {
            tasks.iter().any(|&(l_inv, l_iter)| {
                let (_, earlier_retire) = times[&(e_inv as u32, e_iter as u64)];
                let (later_dispatch, _) = times[&(l_inv as u32, l_iter as u64)];
                e_iter % workers != l_iter % workers
                    && e_inv < l_inv
                    && earlier_retire > later_dispatch
                    && w.signature(e_inv, e_iter).conflicts_with(&w.signature(l_inv, l_iter))
            })
        });
        let r = speccross(&w, &SpecSimParams::with_threads(workers), &CostModel::free());
        assert_eq!(
            r.stats.misspeculations > 0,
            racing_conflict,
            "seed {seed:#x}, {workers} workers, {epochs} epochs: {} misspeculations",
            r.stats.misspeculations
        );
    }
}
