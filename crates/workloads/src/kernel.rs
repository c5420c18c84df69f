//! [`AccessKernel`]: executes any simulation model on *real* shared memory
//! through the real runtimes.
//!
//! The kernel gives a [`SimWorkload`]'s declared accesses operational
//! meaning: each task folds the values it reads into an accumulator and
//! writes an order-sensitive mix into each cell it writes. Conflicting
//! accesses executed in the wrong order therefore produce a different final
//! memory image — exactly the signal needed to validate that DOMORE's
//! synchronization conditions and SPECCROSS's speculation/rollback preserve
//! sequential semantics on every benchmark of the suite.

use std::cell::Cell;

use crossinvoc_runtime::hash::splitmix64;
use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_runtime::{SharedSlice, ThreadId};
use crossinvoc_sim::SimWorkload;
use crossinvoc_speccross::checkpoint::{copy_runs, refresh_cells, DirtyBlocks};
use crossinvoc_speccross::workload::{AccessRecorder, SpecWorkload};

thread_local! {
    /// Scratch for one task's declared accesses: every kernel entry point
    /// that asks the model for them runs once per task, and a fresh `Vec`
    /// there was an allocation per task.
    static ACCESSES: Cell<Vec<(usize, AccessKind)>> = const { Cell::new(Vec::new()) };
}

/// A memory-mutating kernel derived from a workload model.
///
/// Implements both [`crossinvoc_domore::DomoreWorkload`] (invocations =
/// model invocations) and [`SpecWorkload`] (epochs = model invocations), so
/// one construction serves both runtimes.
///
/// # Example
///
/// ```
/// use crossinvoc_workloads::AccessKernel;
/// use crossinvoc_sim::UniformWorkload;
/// use crossinvoc_domore::prelude::*;
///
/// let model = UniformWorkload::same_cell(6, 8, 100);
/// let kernel = AccessKernel::new(model, 8);
/// let expected = kernel.sequential_checksum();
/// DomoreRuntime::new(DomoreConfig::with_workers(2))
///     .execute(&kernel)
///     .unwrap();
/// assert_eq!(kernel.checksum(), expected);
/// ```
pub struct AccessKernel<W> {
    model: W,
    data: SharedSlice<i64>,
}

impl<W: std::fmt::Debug> std::fmt::Debug for AccessKernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessKernel")
            .field("model", &self.model)
            .field("cells", &self.data.len())
            .finish()
    }
}

impl<W: SimWorkload> AccessKernel<W> {
    /// Wraps `model` over `cells` memory cells. Addresses the model reports
    /// must be below `cells`.
    pub fn new(model: W, cells: usize) -> Self {
        Self {
            model,
            data: SharedSlice::from_vec(vec![0; cells]),
        }
    }

    /// Wraps `model`, sizing memory from its address space.
    ///
    /// # Panics
    ///
    /// Panics if the model declares no address space.
    pub fn from_model(model: W) -> Self {
        let cells = model
            .address_space()
            .expect("model must declare an address space");
        Self::new(model, cells)
    }

    /// The underlying model.
    pub fn model(&self) -> &W {
        &self.model
    }

    /// Runs `f` on the accesses the model declares for task `(inv, iter)`,
    /// collected in the calling thread's scratch vector. The vector is taken
    /// out of its cell for the call, so a nested call (or one that unwinds)
    /// merely starts from an empty one.
    fn with_accesses<R>(
        &self,
        inv: usize,
        iter: usize,
        f: impl FnOnce(&[(usize, AccessKind)]) -> R,
    ) -> R {
        ACCESSES.with(|scratch| {
            let mut pairs = scratch.take();
            pairs.clear();
            self.model.accesses(inv, iter, &mut pairs);
            let result = f(&pairs);
            scratch.set(pairs);
            result
        })
    }

    /// Performs one task's declared accesses, reporting them to `recorder`.
    ///
    /// # Safety
    ///
    /// Caller's runtime must order conflicting tasks (the shared-memory
    /// contract of [`SharedSlice`]).
    unsafe fn perform(&self, inv: usize, iter: usize, recorder: &mut dyn AccessRecorder) {
        self.with_accesses(inv, iter, |pairs| {
            let mut acc = splitmix64((inv as u64) << 32 | iter as u64) as i64;
            for &(addr, kind) in pairs {
                recorder.record(addr, kind);
                // SAFETY: the caller orders conflicting tasks.
                match kind {
                    AccessKind::Read => acc ^= unsafe { self.data.read(addr) },
                    AccessKind::Write => unsafe {
                        let old = self.data.read(addr);
                        self.data
                            .write(addr, splitmix64(acc as u64 ^ old as u64) as i64);
                    },
                }
            }
        })
    }

    /// Runs the whole workload sequentially (invocation-major order) and
    /// returns the checksum — the reference value parallel executions must
    /// reproduce.
    pub fn sequential_checksum(&self) -> u64 {
        self.reset();
        let mut sink = crossinvoc_speccross::workload::NullRecorder;
        for inv in 0..self.model.num_invocations() {
            for iter in 0..self.model.num_iterations(inv) {
                // SAFETY: single-threaded here.
                unsafe { self.perform(inv, iter, &mut sink) };
            }
        }
        let sum = self.checksum();
        self.reset();
        sum
    }

    /// Checksum of the current memory image.
    ///
    /// Quiescence contract: no task may be executing.
    pub fn checksum(&self) -> u64 {
        let mut h = 0u64;
        for i in 0..self.data.len() {
            // SAFETY: quiescent per the method contract.
            h = splitmix64(h ^ unsafe { self.data.read(i) } as u64);
        }
        h
    }

    /// Zeroes memory (quiescence contract as for [`Self::checksum`]).
    pub fn reset(&self) {
        for i in 0..self.data.len() {
            // SAFETY: quiescent per the method contract.
            unsafe { self.data.write(i, 0) };
        }
    }
}

impl<W: SimWorkload + Sync> crossinvoc_domore::DomoreWorkload for AccessKernel<W> {
    fn num_invocations(&self) -> usize {
        self.model.num_invocations()
    }

    fn num_iterations(&self, inv: usize) -> usize {
        self.model.num_iterations(inv)
    }

    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
        self.with_accesses(inv, iter, |pairs| {
            // Writes first: ownership policies key on the first address.
            for wanted in [AccessKind::Write, AccessKind::Read] {
                out.extend(pairs.iter().filter(|p| p.1 == wanted).map(|p| p.0));
            }
        })
    }

    fn touched(&self, inv: usize, iter: usize, writes: &mut Vec<usize>, reads: &mut Vec<usize>) {
        self.with_accesses(inv, iter, |pairs| {
            for &(addr, kind) in pairs {
                match kind {
                    AccessKind::Write => writes.push(addr),
                    AccessKind::Read => reads.push(addr),
                }
            }
        })
    }

    fn execute_iteration(&self, inv: usize, iter: usize, _tid: ThreadId) {
        // SAFETY: DOMORE orders iterations with intersecting address sets,
        // and `touched_addrs` reports exactly the performed accesses.
        unsafe { self.perform(inv, iter, &mut crossinvoc_speccross::workload::NullRecorder) };
    }

    fn address_space(&self) -> Option<usize> {
        Some(self.data.len())
    }
}

impl<W: SimWorkload + Sync> SpecWorkload for AccessKernel<W> {
    type State = Vec<i64>;

    fn num_epochs(&self) -> usize {
        self.model.num_invocations()
    }

    fn num_tasks(&self, epoch: usize) -> usize {
        self.model.num_iterations(epoch)
    }

    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        _tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        // SAFETY: same-invocation tasks of the suite's models touch
        // disjoint write sets (their inner loops are DOALL/LOCALWRITE
        // parallelizable); cross-epoch conflicts are SPECCROSS's job.
        unsafe { self.perform(epoch, task, recorder) };
    }

    // The engine calls the four copies below only while every worker is
    // quiesced at a checkpoint or rollback rendezvous. `perform` records
    // every access, at the cell it touches, before making it: the promise
    // the dirty-block pair needs.

    fn snapshot(&self) -> Vec<i64> {
        // SAFETY: quiesced (see above).
        unsafe { self.data.as_slice() }.to_vec()
    }

    fn restore(&self, state: &Vec<i64>) {
        // SAFETY: quiesced (see above).
        unsafe { self.data.write_slice(0, state) };
    }

    fn refresh(&self, state: &mut Vec<i64>, stale: &DirtyBlocks) -> usize {
        // SAFETY: quiesced (see above).
        refresh_cells(unsafe { self.data.as_slice() }, state, stale)
    }

    fn restore_dirty(&self, state: &Vec<i64>, dirty: &DirtyBlocks) -> usize {
        copy_runs(dirty, state.len(), |cells| {
            // SAFETY: quiesced (see above).
            unsafe { self.data.write_slice(cells.start, &state[cells]) }
        })
    }
}

/// Profiles the model's minimum cross-epoch dependence distance (the
/// Table 5.3 "Minimum Distance" column) without touching real memory.
pub fn profile_distance<W: SimWorkload + ?Sized>(
    model: &W,
    window_epochs: u32,
) -> crossinvoc_speccross::ProfileReport {
    use crossinvoc_runtime::signature::{AccessSignature, RangeSignature};
    let mut profiler = crossinvoc_speccross::DistanceProfiler::<RangeSignature>::new(window_epochs);
    let mut pairs = Vec::new();
    for inv in 0..model.num_invocations() {
        for iter in 0..model.num_iterations(inv) {
            pairs.clear();
            model.accesses(inv, iter, &mut pairs);
            let mut sig = RangeSignature::empty();
            for &(addr, kind) in &pairs {
                sig.record(addr, kind);
            }
            profiler.record_task(sig);
        }
        profiler.epoch_boundary();
    }
    profiler.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_domore::prelude::*;
    use crossinvoc_sim::UniformWorkload;
    use crossinvoc_speccross::prelude::*;

    #[test]
    fn sequential_checksum_is_deterministic() {
        let k = AccessKernel::from_model(UniformWorkload::rotating(6, 8, 10));
        assert_eq!(k.sequential_checksum(), k.sequential_checksum());
    }

    #[test]
    fn domore_execution_preserves_the_checksum() {
        let k = AccessKernel::from_model(UniformWorkload::rotating(10, 12, 10));
        let expected = k.sequential_checksum();
        for workers in [1, 3] {
            k.reset();
            DomoreRuntime::new(DomoreConfig::with_workers(workers))
                .execute(&k)
                .unwrap();
            assert_eq!(k.checksum(), expected, "{workers} workers");
        }
    }

    #[test]
    fn speccross_execution_preserves_the_checksum() {
        let model = UniformWorkload::rotating(10, 12, 10);
        let d = profile_distance(&model, 4).min_distance;
        let k = AccessKernel::from_model(model);
        let expected = k.sequential_checksum();
        let engine = SpecCrossEngine::<crossinvoc_runtime::RangeSignature>::new(
            SpecConfig::with_workers(2).spec_distance(d),
        );
        let report = engine.execute(&k).unwrap();
        assert_eq!(k.checksum(), expected);
        assert_eq!(report.stats.misspeculations, 0, "gated by profile");
    }

    #[test]
    fn profile_distance_sees_rotating_conflicts() {
        let model = UniformWorkload::rotating(6, 16, 10);
        let p = profile_distance(&model, 4);
        assert_eq!(p.min_distance, Some(15), "one epoch minus one task");
        let none = profile_distance(&UniformWorkload::independent(6, 16, 10), 4);
        assert_eq!(none.min_distance, None);
    }

    #[test]
    fn conflicting_order_changes_the_checksum() {
        // Sanity for the mixing function: executing two conflicting tasks
        // in the wrong order must change memory.
        let k = AccessKernel::from_model(UniformWorkload::same_cell(2, 1, 10));
        k.reset();
        let mut sink = crossinvoc_speccross::workload::NullRecorder;
        unsafe {
            k.perform(0, 0, &mut sink);
            k.perform(1, 0, &mut sink);
        }
        let in_order = k.checksum();
        k.reset();
        unsafe {
            k.perform(1, 0, &mut sink);
            k.perform(0, 0, &mut sink);
        }
        assert_ne!(k.checksum(), in_order);
    }
}
