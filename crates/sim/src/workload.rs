//! The workload model consumed by the simulator.
//!
//! A [`SimWorkload`] describes a loop nest *as data*: how many invocations
//! (epochs), how many iterations (tasks) each has, how long each iteration
//! takes, which shared addresses it touches, and the cost of the sequential
//! prologue and of the per-iteration scheduling work (the `computeAddr` +
//! `schedule` slice DOMORE runs, whose weight Table 5.2 reports). The
//! benchmark crate derives these models from the same generated inputs its
//! real kernels run on, so the simulated dependence patterns are the real
//! ones.

use crossinvoc_runtime::signature::AccessKind;

/// A loop nest described for simulation.
pub trait SimWorkload {
    /// Number of outer-loop iterations (inner-loop invocations / epochs).
    fn num_invocations(&self) -> usize;

    /// Number of inner-loop iterations (tasks) in invocation `inv`.
    fn num_iterations(&self, inv: usize) -> usize;

    /// Cost, in simulated nanoseconds, of iteration `(inv, iter)`'s kernel.
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64;

    /// Shared accesses of iteration `(inv, iter)` that participate in
    /// cross-iteration/cross-invocation dependences. Appended to `out`
    /// (which arrives empty).
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>);

    /// Cost of the sequential code at the top of invocation `inv`
    /// (statements A–C of the CG example). Zero when the outer loop has no
    /// sequential section.
    fn prologue_cost(&self, inv: usize) -> u64 {
        let _ = inv;
        0
    }

    /// Cost of DOMORE's per-iteration scheduling slice (`computeAddr` +
    /// conflict detection + dispatch). Drives the scheduler/worker ratio of
    /// Table 5.2.
    fn sched_cost(&self, inv: usize, iter: usize) -> u64 {
        let _ = (inv, iter);
        50
    }

    /// Exclusive upper bound on reported addresses when dense shadow memory
    /// is profitable.
    fn address_space(&self) -> Option<usize> {
        None
    }

    /// Total iterations across all invocations.
    fn total_iterations(&self) -> u64 {
        (0..self.num_invocations())
            .map(|inv| self.num_iterations(inv) as u64)
            .sum()
    }

    /// Sum of all iteration costs, prologues excluded.
    fn total_work_ns(&self) -> u64 {
        (0..self.num_invocations())
            .map(|inv| {
                (0..self.num_iterations(inv))
                    .map(|i| self.iteration_cost(inv, i))
                    .sum::<u64>()
            })
            .sum()
    }
}

impl<W: SimWorkload + ?Sized> SimWorkload for Box<W> {
    fn num_invocations(&self) -> usize {
        (**self).num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        (**self).num_iterations(inv)
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        (**self).iteration_cost(inv, iter)
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        (**self).accesses(inv, iter, out)
    }
    fn prologue_cost(&self, inv: usize) -> u64 {
        (**self).prologue_cost(inv)
    }
    fn sched_cost(&self, inv: usize, iter: usize) -> u64 {
        (**self).sched_cost(inv, iter)
    }
    fn address_space(&self) -> Option<usize> {
        (**self).address_space()
    }
}

/// A synthetic workload with uniform structure, for tests and
/// micro-experiments.
#[derive(Debug, Clone)]
pub struct UniformWorkload {
    invocations: usize,
    iterations: usize,
    cost: u64,
    /// Address written by `(inv, iter)`; `None` means no shared accesses.
    addr_fn: AddrPattern,
    prologue: u64,
    sched: u64,
}

/// How iterations of a [`UniformWorkload`] touch shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddrPattern {
    /// No shared accesses: every iteration independent of every other.
    Independent,
    /// Iteration `i` of every invocation writes cell `i`: per-cell chains
    /// across invocations.
    SameCell,
    /// Iteration `i` of invocation `k` writes cell `(i + k) % n`:
    /// cross-invocation conflicts move across workers.
    Rotating,
}

impl UniformWorkload {
    /// All iterations independent.
    pub fn independent(invocations: usize, iterations: usize, cost: u64) -> Self {
        Self {
            invocations,
            iterations,
            cost,
            addr_fn: AddrPattern::Independent,
            prologue: 0,
            sched: 50,
        }
    }

    /// Iteration `i` of each invocation writes cell `i` (fixed chains).
    pub fn same_cell(invocations: usize, iterations: usize, cost: u64) -> Self {
        Self {
            addr_fn: AddrPattern::SameCell,
            ..Self::independent(invocations, iterations, cost)
        }
    }

    /// Iteration `i` of invocation `k` writes cell `(i + k) % n`.
    pub fn rotating(invocations: usize, iterations: usize, cost: u64) -> Self {
        Self {
            addr_fn: AddrPattern::Rotating,
            ..Self::independent(invocations, iterations, cost)
        }
    }

    /// Sets the sequential prologue cost per invocation.
    pub fn with_prologue(mut self, ns: u64) -> Self {
        self.prologue = ns;
        self
    }

    /// Sets the per-iteration scheduling cost.
    pub fn with_sched_cost(mut self, ns: u64) -> Self {
        self.sched = ns;
        self
    }
}

impl SimWorkload for UniformWorkload {
    fn num_invocations(&self) -> usize {
        self.invocations
    }

    fn num_iterations(&self, _inv: usize) -> usize {
        self.iterations
    }

    fn iteration_cost(&self, _inv: usize, _iter: usize) -> u64 {
        self.cost
    }

    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        match self.addr_fn {
            AddrPattern::Independent => {}
            AddrPattern::SameCell => out.push((iter, AccessKind::Write)),
            AddrPattern::Rotating => out.push(((iter + inv) % self.iterations, AccessKind::Write)),
        }
    }

    fn prologue_cost(&self, _inv: usize) -> u64 {
        self.prologue
    }

    fn sched_cost(&self, _inv: usize, _iter: usize) -> u64 {
        self.sched
    }

    fn address_space(&self) -> Option<usize> {
        Some(self.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_consistent() {
        let w = UniformWorkload::independent(10, 8, 100);
        assert_eq!(w.total_iterations(), 80);
        assert_eq!(w.total_work_ns(), 8000);
    }

    #[test]
    fn independent_reports_no_accesses() {
        let w = UniformWorkload::independent(2, 4, 1);
        let mut out = Vec::new();
        w.accesses(0, 3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rotating_shifts_by_invocation() {
        let w = UniformWorkload::rotating(3, 4, 1);
        let mut out = Vec::new();
        w.accesses(2, 3, &mut out);
        assert_eq!(out, vec![(1, AccessKind::Write)]);
    }

    #[test]
    fn builders_set_costs() {
        let w = UniformWorkload::same_cell(1, 1, 1)
            .with_prologue(7)
            .with_sched_cost(9);
        assert_eq!(w.prologue_cost(0), 7);
        assert_eq!(w.sched_cost(0, 0), 9);
    }
}
