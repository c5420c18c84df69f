//! Synthetic conflict-free workloads shared by the gate harness
//! (`bench-suite`) and the workspace's tests.
//!
//! Unlike the Table 5.1 models these reproduce no benchmark: each is the
//! smallest shape that isolates one runtime behaviour, so a gate or a fault
//! test exercises exactly that behaviour and every deviation from the
//! expected memory image is the runtime's doing.
//!
//! * [`IncGrid`] — the real-thread grid, for the SPECCROSS engine and the
//!   DOMORE runtime alike: unit `u` of every round increments cell `u`, so a
//!   clean run never conflicts, the final image is known in closed form,
//!   and every misspeculation is an injected one.
//! * [`Clustered`] / [`MixedElide`] — simulator shapes for the checker-side
//!   gates (BENCH_5/7/10): epoch-private address clusters with staggered
//!   task costs, fully or partly provable by static elision.

use crossinvoc_domore::DomoreWorkload;
use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_runtime::{spin_for, SharedSlice, ThreadId};
use crossinvoc_sim::SimWorkload;
use crossinvoc_speccross::checkpoint::{copy_runs, refresh_cells, DirtyBlocks};
use crossinvoc_speccross::workload::{AccessRecorder, SpecWorkload};

/// Conflict-free grid for both runtimes: unit `u` (SPECCROSS task, DOMORE
/// iteration) of every round (epoch, invocation) touches address `u` and
/// increments cell `u`. Same-round units are disjoint and a cell is always
/// revisited by the same worker, so clean runs never misspeculate and the
/// final image is [`IncGrid::expected`]. Every increment is recorded at
/// its cell, so checkpoints copy only the blocks a pass wrote.
#[derive(Debug)]
pub struct IncGrid {
    cells: SharedSlice<u64>,
    rounds: usize,
    /// Busy-spin per unit in nanoseconds (0 = bare increment).
    pub spin_ns: u64,
}

impl IncGrid {
    /// A zeroed grid of `units` cells run for `rounds` rounds.
    pub fn new(units: usize, rounds: usize) -> Self {
        Self {
            cells: SharedSlice::from_vec(vec![0; units]),
            rounds,
            spin_ns: 0,
        }
    }

    /// The same grid with `ns` of busy work per unit.
    pub fn with_spin(mut self, ns: u64) -> Self {
        self.spin_ns = ns;
        self
    }

    /// Current cell values.
    ///
    /// Quiescence contract: no unit may be executing.
    pub fn cells(&self) -> Vec<u64> {
        // SAFETY: quiescent per the method contract.
        unsafe { self.cells.as_slice() }.to_vec()
    }

    /// The image any correct execution leaves: every cell equals the round
    /// count.
    pub fn expected(&self) -> Vec<u64> {
        vec![self.rounds as u64; self.cells.len()]
    }

    fn run_unit(&self, unit: usize) {
        spin_for(self.spin_ns);
        // SAFETY: same-round units touch distinct cells, and both runtimes
        // order a cell's rounds (one worker per unit under SPECCROSS,
        // synchronization conditions on `touched_addrs` under DOMORE).
        unsafe { self.cells.update(unit, |c| *c += 1) };
    }
}

impl SpecWorkload for IncGrid {
    type State = Vec<u64>;

    fn num_epochs(&self) -> usize {
        self.rounds
    }

    fn num_tasks(&self, _epoch: usize) -> usize {
        self.cells.len()
    }

    fn execute_task(
        &self,
        _epoch: usize,
        task: usize,
        _tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        recorder.write(task);
        self.run_unit(task);
    }

    // The engine calls the copies below only while every worker is
    // quiesced at a checkpoint or rollback rendezvous; `execute_task`
    // records its one write.

    fn snapshot(&self) -> Vec<u64> {
        self.cells()
    }

    fn restore(&self, state: &Vec<u64>) {
        // SAFETY: quiesced (see above).
        unsafe { self.cells.write_slice(0, state) };
    }

    fn refresh(&self, state: &mut Vec<u64>, stale: &DirtyBlocks) -> usize {
        // SAFETY: quiesced (see above).
        refresh_cells(unsafe { self.cells.as_slice() }, state, stale)
    }

    fn restore_dirty(&self, state: &Vec<u64>, dirty: &DirtyBlocks) -> usize {
        copy_runs(dirty, state.len(), |cells| {
            // SAFETY: quiesced (see above).
            unsafe { self.cells.write_slice(cells.start, &state[cells]) }
        })
    }
}

impl DomoreWorkload for IncGrid {
    fn num_invocations(&self) -> usize {
        self.rounds
    }

    fn num_iterations(&self, _inv: usize) -> usize {
        self.cells.len()
    }

    fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
        out.push(iter);
    }

    fn execute_iteration(&self, _inv: usize, iter: usize, _tid: ThreadId) {
        self.run_unit(iter);
    }

    fn address_space(&self) -> Option<usize> {
        Some(self.cells.len())
    }
}

/// Staggered task cost shared by the checker-side shapes: admissions from
/// many epochs are in flight at once, so the checker actually faces deep
/// logs.
fn staggered_cost(iter: usize) -> u64 {
    500 + (iter % 5) as u64 * 1000
}

/// The clustered-access SPECCROSS shape of the BENCH_5/7/10 checker gates:
/// task `t` of epoch `e` writes cell `e * tasks + t`, so every epoch's
/// signature aggregate is disjoint from every other epoch's — the shape the
/// per-epoch aggregate test prunes best.
#[derive(Debug, Clone, Copy)]
pub struct Clustered {
    /// Invocations (epochs).
    pub epochs: usize,
    /// Tasks per epoch.
    pub tasks: usize,
    /// Whether every invocation carries the static conflict-freedom
    /// verdict. The cluster shape is exactly the `E[trip·t + i]` family
    /// `pir::elide` proves, so BENCH_10 runs it proven; BENCH_5/7 keep it on
    /// the full check path.
    pub proven: bool,
}

impl SimWorkload for Clustered {
    fn num_invocations(&self) -> usize {
        self.epochs
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.tasks
    }
    fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
        staggered_cost(iter)
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        out.push((inv * self.tasks + iter, AccessKind::Write));
    }
    fn address_space(&self) -> Option<usize> {
        Some(self.epochs * self.tasks)
    }
    fn invocation_is_proven(&self, _inv: usize) -> bool {
        self.proven
    }
}

/// The mixed proven/unproven shape of the BENCH_10 elision criteria: most
/// epochs are the [`Clustered`] shape static analysis proves; every
/// `unproven_every`-th epoch scatters its writes through a coprime
/// permutation of the same epoch-private block — disjoint in fact, indirect
/// in form, so a sound static analysis must keep it on the full admission
/// path.
#[derive(Debug, Clone, Copy)]
pub struct MixedElide {
    /// Invocations (epochs).
    pub epochs: usize,
    /// Tasks per epoch.
    pub tasks: usize,
    /// Period of the unproven epochs (`inv % unproven_every == 0` stays on
    /// the full check path; everything else is proven).
    pub unproven_every: usize,
}

impl MixedElide {
    /// Whether invocation `inv` carries the static proof.
    pub fn proven(&self, inv: usize) -> bool {
        !inv.is_multiple_of(self.unproven_every)
    }
}

impl SimWorkload for MixedElide {
    fn num_invocations(&self) -> usize {
        self.epochs
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.tasks
    }
    fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
        staggered_cost(iter)
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        let slot = if self.proven(inv) {
            iter
        } else {
            (iter * 7 + inv) % self.tasks
        };
        out.push((inv * self.tasks + slot, AccessKind::Write));
    }
    fn address_space(&self) -> Option<usize> {
        Some(self.epochs * self.tasks)
    }
    fn invocation_is_proven(&self, inv: usize) -> bool {
        self.proven(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_domore::runtime::{DomoreConfig, DomoreRuntime};
    use crossinvoc_runtime::RangeSignature;
    use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine, WIDE_TASK_NS};

    #[test]
    fn the_grid_reaches_its_closed_form_image_on_both_runtimes() {
        let spec = IncGrid::new(8, 6).with_spin(WIDE_TASK_NS);
        let report = SpecCrossEngine::<RangeSignature>::new(SpecConfig::with_workers(2))
            .execute(&spec)
            .unwrap();
        assert_eq!(report.stats.misspeculations, 0);
        assert_eq!(spec.cells(), spec.expected());

        let mut dom = IncGrid::new(8, 5);
        dom.spin_ns = 1_000;
        DomoreRuntime::new(DomoreConfig::with_workers(2))
            .execute(&dom)
            .unwrap();
        assert_eq!(dom.cells(), dom.expected());
    }

    #[test]
    fn sim_shapes_touch_one_private_cell_per_task() {
        let mixed = MixedElide {
            epochs: 12,
            tasks: 8,
            unproven_every: 6,
        };
        let clustered = Clustered {
            epochs: 12,
            tasks: 8,
            proven: true,
        };
        let mut out = Vec::new();
        for inv in 0..12 {
            // Each epoch's tasks cover its private block exactly once, in
            // identity order when proven and permuted when not.
            let mut slots = Vec::new();
            for iter in 0..8 {
                out.clear();
                mixed.accesses(inv, iter, &mut out);
                slots.push(out[0].0);
                out.clear();
                clustered.accesses(inv, iter, &mut out);
                assert_eq!(out, [(inv * 8 + iter, AccessKind::Write)]);
            }
            assert_eq!(mixed.invocation_is_proven(inv), inv % 6 != 0);
            slots.sort_unstable();
            assert_eq!(slots, (inv * 8..inv * 8 + 8).collect::<Vec<_>>());
        }
    }
}
