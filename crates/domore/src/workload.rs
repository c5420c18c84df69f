//! The workload contract consumed by the DOMORE runtime.
//!
//! A [`DomoreWorkload`] describes the loop nest of §3.1: an outer loop whose
//! body consists of optional sequential code (the *prologue*, executed by the
//! scheduler thread) followed by one parallelizable inner-loop invocation.
//! The runtime never inspects the kernel itself; it only needs the iteration
//! space, the set of shared addresses each iteration touches (the
//! `computeAddr` function the compiler extracts by program slicing, §3.3.4)
//! and a way to run one iteration.

use crossinvoc_runtime::ThreadId;

/// A loop nest amenable to DOMORE parallelization.
///
/// Implementations must uphold two contracts the compiler establishes for
/// generated code:
///
/// 1. **Address completeness.** [`touched_addrs`](Self::touched_addrs) must
///    report (a superset of) every shared location
///    [`execute_iteration`](Self::execute_iteration) reads or writes that may
///    also be accessed by another iteration of *any* invocation. Missing
///    addresses produce unsynchronized conflicting accesses — the analogue of
///    a compiler bug, and undefined behaviour if the kernel uses
///    [`crossinvoc_runtime::SharedSlice`].
/// 2. **Purity of the oracle.** `touched_addrs` must be side-effect free and
///    must not depend on the kernel's own updates within the same invocation
///    (the thesis aborts the transformation otherwise, §3.3.4; Fig. 4.1 shows
///    a nest that fails this test and needs SPECCROSS instead).
pub trait DomoreWorkload: Sync {
    /// Number of outer-loop iterations (inner-loop invocations).
    fn num_invocations(&self) -> usize;

    /// Sequential code at the top of outer-loop iteration `inv`
    /// (statements A–C of the CG example, Fig. 3.1). Runs on the scheduler
    /// thread (on every replica, in the replicated plan), before any
    /// iteration of invocation `inv` is dispatched.
    fn prologue(&self, inv: usize) {
        let _ = inv;
    }

    /// Number of inner-loop iterations in invocation `inv`.
    ///
    /// Called after [`prologue`](Self::prologue)`(inv)`, so the bound may
    /// depend on prologue-computed state.
    fn num_iterations(&self, inv: usize) -> usize;

    /// The `computeAddr` oracle: appends every shared address iteration
    /// `(inv, iter)` may access to `out` (which arrives empty).
    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>);

    /// Read/write-aware `computeAddr`: appends written and read shared
    /// addresses separately (both arrive empty). The default treats every
    /// address as written — the thesis' conservative single-tuple shadow —
    /// which is always sound; overriding lets the scheduler skip read-read
    /// pairs (gather patterns are then never serialized).
    fn touched(&self, inv: usize, iter: usize, writes: &mut Vec<usize>, reads: &mut Vec<usize>) {
        let _ = reads;
        self.touched_addrs(inv, iter, writes);
    }

    /// Executes iteration `iter` of invocation `inv` on worker `tid`.
    fn execute_iteration(&self, inv: usize, iter: usize, tid: ThreadId);

    /// Whether the prologue may safely be re-executed by every replica.
    ///
    /// The replicated plan ([`crate::DomoreRuntime::execute_replicated`],
    /// §3.4) runs the scheduling loop — including prologues — on every
    /// replica; that is sound only when the prologue is idempotent and
    /// race-free under replication (e.g. it only computes loop bounds from
    /// read-only state). The thesis notes DOMORE's separate scheduler is the
    /// general solution precisely because this cannot always be guaranteed.
    fn prologue_is_replicable(&self) -> bool {
        true
    }

    /// Upper bound (exclusive) on addresses reported by
    /// [`touched_addrs`](Self::touched_addrs), if small enough for dense
    /// shadow memory. `None` selects sparse shadow memory.
    fn address_space(&self) -> Option<usize> {
        None
    }

    /// Total iterations across all invocations; useful for sizing.
    fn total_iterations(&self) -> usize
    where
        Self: Sized,
    {
        (0..self.num_invocations())
            .map(|inv| self.num_iterations(inv))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;
    impl DomoreWorkload for Toy {
        fn num_invocations(&self) -> usize {
            3
        }
        fn num_iterations(&self, inv: usize) -> usize {
            inv + 1
        }
        fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.push(iter);
        }
        fn execute_iteration(&self, _inv: usize, _iter: usize, _tid: ThreadId) {}
    }

    #[test]
    fn total_iterations_sums_invocations() {
        assert_eq!(Toy.total_iterations(), 1 + 2 + 3);
    }

    #[test]
    fn defaults_are_permissive() {
        assert!(Toy.prologue_is_replicable());
        assert_eq!(Toy.address_space(), None);
        Toy.prologue(0); // default prologue is a no-op
    }
}
