//! The workload contract consumed by the SPECCROSS engine.
//!
//! A [`SpecWorkload`] is the code region the SPECCROSS compiler targets
//! (§4.3): a sequence of *epochs* (parallelizable inner-loop invocations),
//! each a bag of independent *tasks* (iterations). The instrumentation the
//! compiler inserts (Alg. 5) appears here as the [`AccessRecorder`] passed to
//! every task: the task reports the shared accesses that participate in
//! cross-invocation dependences (the `spec_access` calls), and the engine
//! folds them into that task's signature.

use crossinvoc_runtime::signature::{AccessKind, AccessSignature};
use crossinvoc_runtime::ThreadId;

use crate::checkpoint::DirtyBlocks;

/// Sink for a task's speculative memory accesses.
///
/// Tasks need only report accesses that may participate in cross-invocation
/// dependences — exactly the loads/stores `Alg. 5` instruments. Reporting a
/// superset is always sound (more false conflicts, never missed ones).
pub trait AccessRecorder {
    /// Reports one access.
    fn record(&mut self, addr: usize, kind: AccessKind);

    /// Reports a read (convenience for `record(addr, AccessKind::Read)`).
    fn read(&mut self, addr: usize) {
        self.record(addr, AccessKind::Read);
    }

    /// Reports a write (convenience for `record(addr, AccessKind::Write)`).
    fn write(&mut self, addr: usize) {
        self.record(addr, AccessKind::Write);
    }
}

/// Records into an [`AccessSignature`].
#[derive(Debug, Default)]
pub struct SigRecorder<S> {
    sig: S,
}

impl<S: AccessSignature> SigRecorder<S> {
    /// Creates a recorder with an empty signature.
    pub fn new() -> Self {
        Self { sig: S::empty() }
    }

    /// Extracts the accumulated signature, leaving the recorder empty.
    pub fn take(&mut self) -> S {
        std::mem::replace(&mut self.sig, S::empty())
    }
}

impl<S: AccessSignature> AccessRecorder for SigRecorder<S> {
    fn record(&mut self, addr: usize, kind: AccessKind) {
        self.sig.record(addr, kind);
    }
}

/// Counts accesses without retaining them. Statically-proven (elided) tasks
/// run with this recorder: no signature is ever checked, but the engine still
/// reports how much admission work the proof saved (the `check_elided` trace
/// event and the elision counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingRecorder {
    count: u64,
}

impl CountingRecorder {
    /// Returns the accumulated access count, leaving the recorder at zero.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.count)
    }
}

impl AccessRecorder for CountingRecorder {
    fn record(&mut self, _addr: usize, _kind: AccessKind) {
        self.count += 1;
    }
}

/// Discards all accesses (used by non-speculative re-execution, where no
/// checking happens).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl AccessRecorder for NullRecorder {
    fn record(&mut self, _addr: usize, _kind: AccessKind) {}
}

/// A barrier-synchronized parallel region eligible for SPECCROSS.
///
/// # Contract
///
/// * Tasks within one epoch must be mutually independent (the inner loop is
///   DOALL/LOCALWRITE-parallelizable — this is what the SPECCROSS compiler
///   verifies before transforming, §4.3).
/// * Every access that may conflict with a task of a *different* epoch must
///   be reported through the recorder; missing one can let a real dependence
///   violation go undetected (the analogue of a compiler instrumentation
///   bug).
/// * [`snapshot`](Self::snapshot)/[`restore`](Self::restore) are invoked
///   only while no task is executing (all workers quiesced at a checkpoint
///   or recovery rendezvous), and must capture/reinstate *all* state that
///   tasks mutate.
/// * Overriding [`refresh`](Self::refresh)/[`restore_dirty`](Self::restore_dirty)
///   is a further promise: *every* write a task makes — not only those that
///   may conflict — is reported through the recorder, at the address it
///   mutates, and address `a` is cell `a` of the state. The engine derives
///   the blocks to copy from the recorded writes, so one unreported write
///   would survive a rollback.
pub trait SpecWorkload: Sync {
    /// Checkpointable state: everything tasks mutate.
    type State: Send;

    /// Number of epochs (loop invocations) in the region.
    fn num_epochs(&self) -> usize;

    /// Number of tasks in epoch `epoch`.
    fn num_tasks(&self, epoch: usize) -> usize;

    /// Executes one task, reporting speculative accesses to `recorder`.
    ///
    /// `tid` identifies the executing worker. Tasks are dealt
    /// block-cyclically: task `t` of every epoch runs on worker
    /// `(t / K) % W`, in increasing `t` on each worker, with one chunk
    /// length `K` for the whole region ([`crate::chunk::chunk_len`]) — so a
    /// given task index stays on one worker from epoch to epoch, in
    /// speculative, irreversible and barrier execution alike. `K = 1` is
    /// the `for (i = threadID; i < M; i += THREADNUM)` codegen of Fig. 4.9.
    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    );

    /// Captures all mutable state (quiesced; see the trait contract).
    fn snapshot(&self) -> Self::State;

    /// Reinstates previously captured state (quiesced; see the trait
    /// contract).
    fn restore(&self, state: &Self::State);

    /// Brings `state` — an earlier snapshot of this workload — up to date,
    /// given that it can differ from live memory only in the blocks of
    /// `stale` (quiesced). Returns the blocks copied. The engine takes
    /// every checkpoint after an execution's first two this way, so an
    /// override that refills `state` in place pays no state-sized
    /// allocation per checkpoint.
    ///
    /// `stale` may be [every block](DirtyBlocks::is_all), and then `state`
    /// may be a buffer a panicking call left half-written: copy it whole.
    /// The default always replaces it with a fresh
    /// [`snapshot`](Self::snapshot) and returns 0 — a workload that cannot
    /// promise the trait contract's "every write is recorded" keeps full
    /// copies.
    fn refresh(&self, state: &mut Self::State, stale: &DirtyBlocks) -> usize {
        let _ = stale;
        *state = self.snapshot();
        0
    }

    /// [`restore`](Self::restore), given that live memory can differ from
    /// `state` only in the blocks of `dirty` (quiesced). Returns the blocks
    /// copied. The default restores everything and returns 0; override it
    /// together with [`refresh`](Self::refresh) or not at all.
    fn restore_dirty(&self, state: &Self::State, dirty: &DirtyBlocks) -> usize {
        let _ = dirty;
        self.restore(state);
        0
    }

    /// Whether `epoch` contains irreversible operations (I/O, …). Such
    /// epochs are executed non-speculatively between two full
    /// synchronizations, and a fresh checkpoint is taken after them
    /// (§4.2.2).
    fn epoch_is_irreversible(&self, epoch: usize) -> bool {
        let _ = epoch;
        false
    }

    /// Whether every access of `epoch`'s tasks is statically proven
    /// conflict-free against all compared tasks (the `pir::elide`
    /// analysis). When the engine runs with
    /// [`crate::engine::SpecConfig::elide`], such tasks skip signature
    /// generation and checker admission entirely; the default keeps every
    /// epoch on the full check path.
    fn epoch_is_proven(&self, epoch: usize) -> bool {
        let _ = epoch;
        false
    }

    /// Total tasks across all epochs.
    fn total_tasks(&self) -> u64
    where
        Self: Sized,
    {
        (0..self.num_epochs())
            .map(|e| self.num_tasks(e) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::RangeSignature;

    #[test]
    fn sig_recorder_accumulates_and_takes() {
        let mut r = SigRecorder::<RangeSignature>::new();
        r.write(4);
        r.read(9);
        let sig = r.take();
        assert!(!sig.is_empty());
        assert!(r.take().is_empty(), "take resets the recorder");
    }

    #[test]
    fn null_recorder_ignores_everything() {
        let mut r = NullRecorder;
        r.write(1);
        r.read(2);
        // Nothing observable; this test simply exercises the paths.
    }

    struct Toy;
    impl SpecWorkload for Toy {
        type State = ();
        fn num_epochs(&self) -> usize {
            3
        }
        fn num_tasks(&self, epoch: usize) -> usize {
            epoch + 2
        }
        fn execute_task(
            &self,
            _epoch: usize,
            _task: usize,
            _tid: ThreadId,
            _recorder: &mut dyn AccessRecorder,
        ) {
        }
        fn snapshot(&self) -> Self::State {}
        fn restore(&self, _state: &Self::State) {}
    }

    #[test]
    fn total_tasks_sums_epochs() {
        assert_eq!(Toy.total_tasks(), 2 + 3 + 4);
        assert!(!Toy.epoch_is_irreversible(0));
    }
}
