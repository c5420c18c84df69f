//! Epoch/task position tracking (§4.2.1).
//!
//! Every worker publishes its current *epoch number* (speculative barriers
//! passed) and *task number* (tasks started since the last barrier). The pair
//! must update atomically — the thesis packs them into one 64-bit word
//! written with a single store on TSO hardware; we do the same with an
//! `AtomicU64` (which additionally gives well-defined cross-architecture
//! semantics via release/acquire ordering).

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// A worker's progress coordinate: `(epoch, task)` with lexicographic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Speculative barriers passed (the `A` of the thesis' `<A,B>` labels).
    pub epoch: u32,
    /// Tasks started within the current epoch (the `B`).
    pub task: u32,
}

impl Position {
    /// The origin position: epoch 0, task 0.
    pub const ZERO: Position = Position { epoch: 0, task: 0 };

    /// Packs into the 64-bit representation (epoch in the high bits so the
    /// packed integers order the same way the positions do).
    pub fn pack(self) -> u64 {
        ((self.epoch as u64) << 32) | self.task as u64
    }

    /// Inverse of [`Position::pack`].
    pub fn unpack(word: u64) -> Self {
        Position {
            epoch: (word >> 32) as u32,
            task: word as u32,
        }
    }
}

impl std::fmt::Display for Position {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{},{}>", self.epoch, self.task)
    }
}

/// Shared table of every worker's current [`Position`] plus its global task
/// index (used for speculative-range gating).
#[derive(Debug)]
pub struct PositionBoard {
    positions: Box<[CachePadded<AtomicU64>]>,
    global_tasks: Box<[CachePadded<AtomicU64>]>,
}

impl PositionBoard {
    /// Creates a board for `num_workers` workers, all at [`Position::ZERO`].
    pub fn new(num_workers: usize) -> Self {
        let mk = || {
            (0..num_workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        Self {
            positions: mk(),
            global_tasks: mk(),
        }
    }

    /// Number of tracked workers.
    pub fn num_workers(&self) -> usize {
        self.positions.len()
    }

    /// Publishes worker `tid`'s new position and frontier together.
    pub fn publish(&self, tid: usize, pos: Position, global_task: u64) {
        self.set_frontier(tid, global_task);
        self.set_position(tid, pos);
    }

    /// Publishes worker `tid`'s *frontier*: the global index of the smallest
    /// task it has not yet finished. Published **before** the
    /// speculative-range gate, so the globally slowest worker is always
    /// visible to leaders (this is what makes the gate deadlock-free: the
    /// minimum-frontier worker never waits on anyone).
    /// `Release`, pairing with the `Acquire` load in
    /// [`PositionBoard::global_task`]: a worker that passes its gate on this
    /// frontier has synchronised with every task `tid` finished below it.
    pub fn set_frontier(&self, tid: usize, global_task: u64) {
        self.global_tasks[tid].store(global_task, Ordering::Release);
    }

    /// Publishes worker `tid`'s position. Published at task start (after the
    /// gate), which is what other tasks' overlap snapshots must observe.
    pub fn set_position(&self, tid: usize, pos: Position) {
        self.positions[tid].store(pos.pack(), Ordering::Release);
    }

    /// Reads worker `tid`'s current position.
    pub fn position(&self, tid: usize) -> Position {
        Position::unpack(self.positions[tid].load(Ordering::Acquire))
    }

    /// Reads worker `tid`'s current frontier. `Acquire`, pairing with
    /// [`PositionBoard::set_frontier`]: for a dependence whose source and
    /// sink are at least the speculative range apart — exactly the pairs the
    /// checker is entitled never to compare — the gate is the *only*
    /// happens-before edge between the two workers.
    pub fn global_task(&self, tid: usize) -> u64 {
        self.global_tasks[tid].load(Ordering::Acquire)
    }

    /// Snapshot of every worker's position into a caller-owned slice (the
    /// `collect_other_threads()` of Fig. 4.7 — callers ignore their own
    /// slot). An engine worker refills one buffer, allocated once per pass,
    /// at every chunk start, so a chunk start allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `out` has exactly one slot per worker.
    pub fn snapshot_into(&self, out: &mut [Position]) {
        assert_eq!(out.len(), self.num_workers(), "one slot per worker");
        for (slot, cell) in out.iter_mut().zip(self.positions.iter()) {
            *slot = Position::unpack(cell.load(Ordering::Acquire));
        }
    }

    /// Minimum frontier over all workers except `exclude`, each read with
    /// `Acquire` (see [`PositionBoard::global_task`]): the tasks below
    /// every frontier read happen before whatever the gate lets through.
    ///
    /// With a single worker there are no others, so `None` is returned and
    /// the caller should not gate.
    pub fn min_other_frontier(&self, exclude: usize) -> Option<u64> {
        (0..self.num_workers())
            .filter(|&t| t != exclude)
            .map(|t| self.global_task(t))
            .min()
    }

    /// Maximum epoch any worker has entered.
    pub fn max_epoch(&self) -> u32 {
        (0..self.num_workers())
            .map(|t| self.position(t).epoch)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for pos in [
            Position::ZERO,
            Position { epoch: 1, task: 2 },
            Position {
                epoch: u32::MAX,
                task: u32::MAX,
            },
        ] {
            assert_eq!(Position::unpack(pos.pack()), pos);
        }
    }

    #[test]
    fn packed_order_matches_lexicographic_order() {
        let a = Position { epoch: 1, task: 9 };
        let b = Position { epoch: 2, task: 0 };
        assert!(a < b);
        assert!(a.pack() < b.pack());
    }

    #[test]
    fn display_matches_thesis_notation() {
        assert_eq!(Position { epoch: 3, task: 1 }.to_string(), "<3,1>");
    }

    #[test]
    fn board_publishes_and_snapshots() {
        let board = PositionBoard::new(3);
        board.publish(1, Position { epoch: 2, task: 5 }, 17);
        let mut snap = [Position { epoch: 9, task: 9 }; 3];
        board.snapshot_into(&mut snap);
        assert_eq!(snap[0], Position::ZERO);
        assert_eq!(snap[1], Position { epoch: 2, task: 5 });
        assert_eq!(snap[2], Position::ZERO);
        assert_eq!(board.global_task(1), 17);
        assert_eq!(board.max_epoch(), 2);
    }

    #[test]
    fn min_other_frontier_excludes_caller() {
        let board = PositionBoard::new(3);
        board.publish(0, Position { epoch: 9, task: 0 }, 100);
        board.publish(1, Position { epoch: 1, task: 0 }, 10);
        board.publish(2, Position { epoch: 0, task: 3 }, 3);
        assert_eq!(board.min_other_frontier(0), Some(3));
        assert_eq!(board.min_other_frontier(2), Some(10));
    }

    #[test]
    fn single_worker_has_no_others() {
        let board = PositionBoard::new(1);
        assert_eq!(board.min_other_frontier(0), None);
    }
}
