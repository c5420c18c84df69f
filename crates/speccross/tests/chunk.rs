//! Chunked speculation never drops a true conflict.
//!
//! The engine's workers publish their position, take a board snapshot and
//! gate once per *chunk* of `K` tasks, and ship one check request per exact
//! run of the chunk's signatures (`crossinvoc_speccross::chunk`). Here the
//! requests such workers would file are derived — by that rule, with the
//! crate's own `share` and `ExactRuns` — from random *true* timelines, fed to
//! `CheckerState::admit_parts`, and held against a brute-force scan of rules
//! 1–3 of `check.rs` over the true task intervals: whenever two tasks on
//! different workers, from different epochs, with the earlier-epoch one
//! still unfinished when the later-epoch one began, have conflicting
//! signatures, some admission must report a conflict. In the other
//! direction a reported pair of requests must hold two member tasks whose
//! own signatures conflict — folding never invents an address — and `K = 1`
//! must file the per-task protocol's request stream, request for request.

use crossinvoc_runtime::hash::splitmix64;
use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_speccross::chunk::{share, ExactRuns};
use crossinvoc_speccross::{CheckRequest, CheckerState, Conflict, Position};

/// A random region on an ungated, frictionless timeline: every worker runs
/// its block-cyclic share of each epoch back to back, never waiting. Slow
/// workers lag whole epochs behind fast ones, which is what makes races.
struct Region {
    seed: u64,
    workers: usize,
    epochs: usize,
    chunk: usize,
}

/// One executed task: who ran it, as which of its tasks of the epoch, and
/// its true times.
struct Timed {
    tid: usize,
    /// Index in its epoch.
    index: usize,
    pos: Position,
    start: u64,
    finish: u64,
    sig: RangeSignature,
}

/// One executed chunk: where the worker stood when it began, how many tasks
/// it holds, when it began and ended, and the runs its signatures split
/// into.
struct Chunk {
    tid: usize,
    pos: Position,
    len: u32,
    start: u64,
    finish: u64,
    runs: Vec<(u32, RangeSignature)>,
}

impl Region {
    fn hash(&self, salt: u64, a: usize, b: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt ^ ((a as u64) << 32 | b as u64)))
    }

    fn num_tasks(&self, epoch: usize) -> usize {
        1 + (self.hash(1, epoch, 0) % (3 * self.workers * self.chunk) as u64) as usize
    }

    fn cost(&self, tid: usize, epoch: usize, task: usize) -> u64 {
        let jitter = 1 + self.hash(3, epoch, task) % 20;
        if self.hash(2, tid, 0).is_multiple_of(2) {
            jitter * 100
        } else {
            jitter
        }
    }

    /// At most one cell per task: mostly the one after the previous task's —
    /// so consecutive tasks fold into runs — from an epoch-dependent offset,
    /// so the same cell comes back on another worker an epoch or two later.
    fn signature(&self, epoch: usize, task: usize) -> RangeSignature {
        let cells = 4 * self.workers * self.chunk;
        let h = self.hash(4, epoch, task);
        let cell = if h.is_multiple_of(4) {
            (h >> 8) as usize % cells
        } else {
            (task + (self.hash(5, epoch, 0) % cells as u64) as usize) % cells
        };
        let mut sig = RangeSignature::empty();
        if !h.is_multiple_of(7) {
            let kind = if (h >> 4).is_multiple_of(3) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            sig.record(cell, kind);
        }
        sig
    }

    /// Every task and every chunk of the region, with true times.
    fn timeline(&self) -> (Vec<Timed>, Vec<Chunk>) {
        let mut tasks = Vec::new();
        let mut chunks = Vec::new();
        for tid in 0..self.workers {
            let mut clock = 0u64;
            for epoch in 0..self.epochs {
                let mut started = 0u32;
                for members in share(self.num_tasks(epoch), self.chunk, self.workers, tid) {
                    let start = clock;
                    let mut splitter = ExactRuns::default();
                    let mut runs = Vec::new();
                    for (i, task) in members.clone().enumerate() {
                        let sig = self.signature(epoch, task);
                        let begun = clock;
                        clock += self.cost(tid, epoch, task);
                        let pos = Position {
                            epoch: epoch as u32,
                            task: started + i as u32,
                        };
                        tasks.push(Timed {
                            tid,
                            index: task,
                            pos,
                            start: begun,
                            finish: clock,
                            sig: sig.clone(),
                        });
                        runs.extend(splitter.push(pos.task, sig));
                    }
                    runs.extend(splitter.finish());
                    let len = members.len() as u32;
                    chunks.push(Chunk {
                        tid,
                        pos: Position {
                            epoch: epoch as u32,
                            task: started,
                        },
                        len,
                        start,
                        finish: clock,
                        runs,
                    });
                    started += len;
                }
            }
        }
        (tasks, chunks)
    }

    /// Rules 1–3 of `check.rs` over the true intervals.
    fn has_racing_conflict(&self, tasks: &[Timed]) -> bool {
        tasks.iter().any(|earlier| {
            tasks.iter().any(|later| {
                earlier.tid != later.tid
                    && earlier.pos.epoch < later.pos.epoch
                    && earlier.finish > later.start
                    && earlier.sig.conflicts_with(&later.sig)
            })
        })
    }

    /// The requests chunked workers file, in the order the checker receives
    /// them: positions move at chunk boundaries only, every request of a
    /// chunk carries the snapshot taken when the chunk began (`at_end`: when
    /// it ended — the unsound variant), and requests arrive as chunks end.
    fn requests(&self, chunks: &[Chunk], at_end: bool) -> Vec<CheckRequest<RangeSignature>> {
        // What worker `tid`'s board slot shows at time `t`: the start of the
        // chunk it is in, or one past the region once it has none left.
        let position_at = |tid: usize, t: u64| {
            chunks
                .iter()
                .filter(|c| c.tid == tid)
                .find(|c| c.finish > t)
                .map_or(
                    Position {
                        epoch: self.epochs as u32,
                        task: 0,
                    },
                    |c| c.pos,
                )
        };
        let mut order: Vec<&Chunk> = chunks.iter().collect();
        order.sort_by_key(|c| c.finish);
        let mut out = Vec::new();
        for c in order {
            let taken = if at_end { c.finish } else { c.start };
            for (at, sig) in &c.runs {
                let pos = Position {
                    epoch: c.pos.epoch,
                    task: *at,
                };
                let mut snapshot: Box<[Position]> =
                    (0..self.workers).map(|t| position_at(t, taken)).collect();
                snapshot[c.tid] = pos;
                out.push(CheckRequest {
                    tid: c.tid,
                    pos,
                    snapshot,
                    sig: sig.clone(),
                });
            }
        }
        out
    }

    /// The first conflict the checker reports on `requests`, if any.
    fn first_conflict(&self, requests: Vec<CheckRequest<RangeSignature>>) -> Option<Conflict> {
        let mut checker = CheckerState::new(self.workers);
        requests
            .into_iter()
            .find_map(|r| checker.admit_parts(r.tid, r.pos, &r.snapshot, r.sig))
    }
}

/// The tasks folded into the request worker `tid` filed at `pos`: from the
/// run's first task up to the next run of its chunk, or the chunk's end.
fn members<'a>(
    tasks: &'a [Timed],
    chunks: &[Chunk],
    (tid, pos): (usize, Position),
) -> impl Iterator<Item = &'a Timed> {
    let chunk = chunks
        .iter()
        .find(|c| {
            c.tid == tid
                && c.pos.epoch == pos.epoch
                && (c.pos.task..c.pos.task + c.len).contains(&pos.task)
        })
        .expect("a reported position lies in a chunk");
    let end = chunk
        .runs
        .iter()
        .map(|&(at, _)| at)
        .find(|&at| at > pos.task)
        .unwrap_or(chunk.pos.task + chunk.len);
    tasks.iter().filter(move |t| {
        t.tid == tid && t.pos.epoch == pos.epoch && (pos.task..end).contains(&t.pos.task)
    })
}

proptest::proptest! {
    #[test]
    fn chunked_requests_never_drop_a_true_conflict(
        seed in proptest::any::<u64>(),
        workers in 2usize..=4,
        epochs in 2usize..=5,
        chunk in 1usize..=8,
    ) {
        let region = Region { seed, workers, epochs, chunk };
        let (tasks, chunks) = region.timeline();
        let racing = region.has_racing_conflict(&tasks);
        let conflict = region.first_conflict(region.requests(&chunks, false));
        assert!(
            conflict.is_some() || !racing,
            "seed {seed:#x}, {workers} workers, {epochs} epochs, K = {chunk}: \
             a racing, conflicting pair went unreported"
        );
        if let Some(c) = conflict {
            // Never through addresses: two of the tasks behind the reported
            // requests conflict by their own signatures.
            assert!(
                members(&tasks, &chunks, c.earlier).any(|a| {
                    members(&tasks, &chunks, c.later).any(|b| a.sig.conflicts_with(&b.sig))
                }),
                "seed {seed:#x}, K = {chunk}: {c:?} names runs none of whose tasks conflict"
            );
        }
        if chunk == 1 {
            // One task per request, so nothing is coarser in time either:
            // the verdict is exactly the ground truth.
            assert_eq!(
                conflict.is_some(),
                racing,
                "seed {seed:#x}: K = 1 reported a pair that does not race"
            );
        }
    }

    /// `K = 1` is the per-task protocol: task `t` on worker `t % W` at
    /// `<epoch, t / W>`, its own start-time snapshot, its own signature.
    #[test]
    fn chunks_of_one_file_the_per_task_request_stream(
        seed in proptest::any::<u64>(),
        workers in 2usize..=4,
        epochs in 2usize..=5,
    ) {
        let region = Region { seed, workers, epochs, chunk: 1 };
        let (tasks, chunks) = region.timeline();
        let requests = region.requests(&chunks, false);
        // The per-task derivation of `crates/sim/tests/inversion.rs`.
        let position_at = |tid: usize, t: u64| {
            tasks
                .iter()
                .filter(|task| task.tid == tid)
                .find(|task| task.finish > t)
                .map_or(Position { epoch: epochs as u32, task: 0 }, |task| task.pos)
        };
        let mut order: Vec<&Timed> = tasks.iter().filter(|task| !task.sig.is_empty()).collect();
        order.sort_by_key(|task| task.finish);
        assert_eq!(requests.len(), order.len());
        for (request, task) in requests.iter().zip(order) {
            assert_eq!(task.tid, task.index % workers);
            assert_eq!(task.pos.task as usize, task.index / workers);
            assert_eq!(request.tid, task.tid);
            assert_eq!(request.pos, position_at(task.tid, task.start));
            assert_eq!(request.sig, task.sig);
            for tid in (0..workers).filter(|&tid| tid != task.tid) {
                assert_eq!(request.snapshot[tid], position_at(tid, task.start));
            }
        }
    }
}

/// The property above has teeth: snapshot a chunk when it *ends* instead of
/// when it begins and a peer can look retired that was still running when
/// one of the chunk's tasks started — the checker then skips a true race.
#[test]
fn chunk_end_snapshots_would_drop_a_true_conflict() {
    let dropped = (0..256u64).any(|seed| {
        let region = Region {
            seed,
            workers: 2,
            epochs: 3,
            chunk: 4,
        };
        let (tasks, chunks) = region.timeline();
        region.has_racing_conflict(&tasks)
            && region
                .first_conflict(region.requests(&chunks, true))
                .is_none()
    });
    assert!(
        dropped,
        "no seed separates chunk-end from chunk-start snapshots"
    );
}
