//! A particle-on-grid simulation on the DOMORE runtime — the §5.4
//! FLUIDANIMATE shape, hand-written against the library API.
//!
//! Each frame scatters particle influence into grid cells whose ownership
//! is irregular (a cell's neighbourhood depends on runtime particle
//! positions), so static analysis cannot prove invocations independent.
//! DOMORE's scheduler observes the actual addresses per iteration and
//! synchronizes exactly the conflicting ones, letting frames overlap.
//!
//! Run with: `cargo run --example particle_sim`

use crossinvoc::domore::prelude::*;
use crossinvoc::runtime::hash::splitmix64;
use crossinvoc::runtime::SharedSlice;

const SIDE: usize = 24;
const CELLS: usize = SIDE * SIDE;
const FRAMES: usize = 30;

/// One frame per invocation; one cell update per iteration. Each cell
/// mixes its 4-neighbourhood into itself — the scatter/gather pattern of
/// the SPH force phase.
struct ParticleGrid {
    field: SharedSlice<i64>,
}

impl ParticleGrid {
    fn new() -> Self {
        Self {
            field: SharedSlice::from_vec(
                (0..CELLS as i64)
                    .map(|c| splitmix64(c as u64) as i64)
                    .collect(),
            ),
        }
    }

    fn neighbourhood(cell: usize) -> Vec<usize> {
        let (r, c) = (cell / SIDE, cell % SIDE);
        let mut out = vec![cell];
        if r > 0 {
            out.push(cell - SIDE);
        }
        if r + 1 < SIDE {
            out.push(cell + SIDE);
        }
        if c > 0 {
            out.push(cell - 1);
        }
        if c + 1 < SIDE {
            out.push(cell + 1);
        }
        out
    }

    fn checksum(&mut self) -> u64 {
        self.field
            .snapshot()
            .into_iter()
            .fold(0u64, |h, v| splitmix64(h ^ v as u64))
    }

    fn sequential_checksum() -> u64 {
        let mut grid = ParticleGrid::new();
        for frame in 0..FRAMES {
            for cell in 0..CELLS {
                grid.step(frame, cell);
            }
        }
        grid.checksum()
    }

    fn step(&self, frame: usize, cell: usize) {
        // SAFETY (parallel callers): DOMORE orders iterations whose
        // neighbourhoods intersect; see `touched_addrs`.
        unsafe {
            let mut acc = (frame as i64) << 32 | cell as i64;
            for n in Self::neighbourhood(cell) {
                acc = splitmix64(acc as u64 ^ self.field.read(n) as u64) as i64;
            }
            self.field.write(cell, acc);
        }
    }
}

impl DomoreWorkload for ParticleGrid {
    fn num_invocations(&self) -> usize {
        FRAMES
    }

    fn num_iterations(&self, _inv: usize) -> usize {
        CELLS
    }

    fn touched_addrs(&self, _inv: usize, cell: usize, out: &mut Vec<usize>) {
        out.extend(Self::neighbourhood(cell));
    }

    fn execute_iteration(&self, frame: usize, cell: usize, _tid: usize) {
        self.step(frame, cell);
    }

    fn address_space(&self) -> Option<usize> {
        Some(CELLS)
    }
}

fn main() {
    let expected = ParticleGrid::sequential_checksum();

    // Owner-computes assignment keeps most chains on one worker; the
    // scheduler synchronizes the neighbourhood overlaps that remain.
    let mut grid = ParticleGrid::new();
    let report = DomoreRuntime::new(DomoreConfig::with_workers(4))
        .with_policy(Box::new(LocalWrite::new(CELLS)))
        .execute(&grid)
        .expect("DOMORE execution");
    assert_eq!(grid.checksum(), expected, "results verified");
    println!(
        "separate scheduler: {} iterations across {} frames, \
         {} synchronization conditions, {} stalls",
        report.stats.tasks, report.stats.epochs, report.stats.sync_conditions, report.stats.stalls,
    );

    // The replicated plan, the duplicated scheduler of §3.4: three workers
    // and this thread each replay the scheduling loop — the form that
    // composes with SPECCROSS.
    let mut grid2 = ParticleGrid::new();
    let report = DomoreRuntime::new(DomoreConfig::with_workers(3))
        .with_policy(Box::new(LocalWrite::new(CELLS)))
        .execute_replicated(&grid2)
        .expect("replicated-plan execution");
    assert_eq!(grid2.checksum(), expected, "results verified");
    println!(
        "replicated plan: {} iterations, {} synchronization conditions",
        report.stats.tasks, report.stats.sync_conditions,
    );
}
