//! Fig. 1.4 — execution with and without barriers on the motivating
//! two-loop example of Fig. 1.3.
//!
//! Reports, for the L1/L2 alternation, how much aggregate thread time is
//! lost idling at barriers versus how much the barrier-free (speculative)
//! schedule recovers — the thesis' motivating observation that "tasks from
//! before and after a barrier may overlap, resulting in better
//! performance".

use crossinvoc_bench::{Col, Table};
use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_sim::prelude::*;

/// The Fig. 1.3 program: L1 writes A from B, L2 writes B from A, TIMESTEP
/// times; task costs vary so threads never reach barriers together.
#[derive(Debug)]
struct TwoLoop {
    n: usize,
    steps: usize,
}

impl SimWorkload for TwoLoop {
    fn num_invocations(&self) -> usize {
        2 * self.steps
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.n
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        4_000 + crossinvoc_runtime::hash::splitmix64((inv * 97 + iter) as u64) % 4_000
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        let (src, dst) = if inv.is_multiple_of(2) {
            (self.n, 0) // L1: A[i] = f(B[i], B[i+1])
        } else {
            (0, self.n) // L2: B[j] = g(A[j-1], A[j])
        };
        out.push((src + iter, AccessKind::Read));
        out.push((src + (iter + 1).min(self.n - 1), AccessKind::Read));
        out.push((dst + iter, AccessKind::Write));
    }
    fn address_space(&self) -> Option<usize> {
        Some(2 * self.n)
    }
}

fn main() {
    println!("Fig. 1.4: parallel execution with and without barriers");
    let w = TwoLoop { n: 64, steps: 100 };
    let cost = CostModel::default();
    let seq = sequential(&w, &cost).total_ns;
    let mut table = Table::new(&[
        Col::text("threads", 7),
        Col::num("barrier_speedup", 15, 2, 4),
        Col::num("barrier_idle", 12, 3, 4),
        Col::num("free_speedup", 12, 2, 4),
        Col::num("free_idle", 9, 3, 4),
    ]);
    for threads in [4, 8, 16, 24] {
        let with_barriers = barrier(&w, threads, &cost);
        let distance = crossinvoc_workloads::kernel::profile_distance(&w, 4).min_distance;
        let params = SpecSimParams::with_threads(threads).spec_distance(distance);
        let without = speccross(&w, &params, &cost);
        table.row(&[
            &threads,
            &with_barriers.speedup_over(seq),
            &with_barriers.idle_fraction(),
            &without.speedup_over(seq),
            &without.idle_fraction(),
        ]);
    }
    table.finish("fig1_4");
}
