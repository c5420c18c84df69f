//! The benchmark suite of Table 5.1, reproduced as workload *models*.
//!
//! Each benchmark module describes its program's parallel structure — how
//! many invocations/epochs, how many iterations/tasks, their costs, and the
//! shared addresses each iteration touches — derived from seeded synthetic
//! inputs that reproduce the dependence characteristics the thesis reports
//! (substitution S4 of DESIGN.md: e.g. CG's irregular row extents whose
//! update dependence manifests in ≈72% of outer iterations, ECLAT's
//! transaction-id collisions, FLUIDANIMATE's particle↔neighbour-cell
//! scatter).
//!
//! A model is used three ways:
//!
//! 1. **Simulation** — every model implements
//!    [`crossinvoc_sim::SimWorkload`], so the figure harness can regenerate
//!    Chapter 5's scaling curves deterministically.
//! 2. **Real execution** — [`kernel::AccessKernel`] wraps any model into a
//!    memory-mutating kernel implementing both runtime contracts
//!    ([`crossinvoc_domore::DomoreWorkload`] and
//!    [`crossinvoc_speccross::SpecWorkload`]): the declared accesses are
//!    *performed* on real shared memory with an order-sensitive mixing
//!    function, so the threaded runtimes are exercised end-to-end and
//!    validated against the sequential checksum.
//! 3. **Profiling** — the models feed the SPECCROSS dependence-distance
//!    profiler to produce the Table 5.3 parameters.
//!
//! See [`mod@registry`] for the Table 5.1 index. [`synthetic`] holds the
//! non-benchmark shapes (conflict-free grids, clustered checker workloads)
//! the gate harness and the tests share.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod blackscholes;
pub mod cg;
pub mod eclat;
pub mod equake;
pub mod fdtd;
pub mod fluidanimate;
pub mod jacobi;
pub mod kernel;
pub mod llubench;
pub mod loopdep;
pub mod registry;
pub mod scale;
pub mod symm;
pub mod synthetic;

pub use kernel::AccessKernel;
pub use registry::{registry, BenchmarkInfo, InnerPlan};
pub use scale::Scale;
