//! Test support shared by the integration tests that run workloads wide.

use crossinvoc_runtime::{spin_for, ThreadId};
use crossinvoc_speccross::checkpoint::DirtyBlocks;
use crossinvoc_speccross::workload::{AccessRecorder, SpecWorkload};
use crossinvoc_speccross::WIDE_TASK_NS;

/// A SPECCROSS workload with [`WIDE_TASK_NS`] of busy work added to each
/// task, so that every pass of it runs wide
/// (`crossinvoc_speccross::engine::WIDE_CHUNK_NS`): how tests of gating,
/// admission and snapshots run workloads — the Table 5.1 kernels at test
/// scale, say — whose own tasks are too short for a pass to widen.
#[derive(Debug)]
pub struct Wide<W>(pub W);

impl<W: SpecWorkload> SpecWorkload for Wide<W> {
    type State = W::State;

    fn num_epochs(&self) -> usize {
        self.0.num_epochs()
    }

    fn num_tasks(&self, epoch: usize) -> usize {
        self.0.num_tasks(epoch)
    }

    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        spin_for(WIDE_TASK_NS);
        self.0.execute_task(epoch, task, tid, recorder);
    }

    fn snapshot(&self) -> W::State {
        self.0.snapshot()
    }

    fn restore(&self, state: &W::State) {
        self.0.restore(state);
    }

    fn refresh(&self, state: &mut W::State, stale: &DirtyBlocks) -> usize {
        self.0.refresh(state, stale)
    }

    fn restore_dirty(&self, state: &W::State, dirty: &DirtyBlocks) -> usize {
        self.0.restore_dirty(state, dirty)
    }

    fn epoch_is_irreversible(&self, epoch: usize) -> bool {
        self.0.epoch_is_irreversible(epoch)
    }

    fn epoch_is_proven(&self, epoch: usize) -> bool {
        self.0.epoch_is_proven(epoch)
    }
}
