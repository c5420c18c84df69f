//! PIR — a miniature parallelization IR and the compile-time side of the
//! crossinvoc reproduction (substitution S1 of DESIGN.md: this crate stands
//! in for the LLVM infrastructure the thesis builds on).
//!
//! The thesis' compile-time algorithms consume *structure*, not machine
//! detail: the program dependence graph of a loop nest, its strongly
//! connected components, induction/affine index forms, and program slices.
//! PIR provides exactly that structure over an explicit loop-nest IR:
//!
//! * [`ir`] — arrays, scalar variables, expressions and statements
//!   (assignments, explicit loads/stores, opaque calls with declared
//!   effects, `if`, counted `for` loops). Using a structured IR instead of a
//!   basic-block CFG removes MTCG's branch-target repair steps (§3.3.2,
//!   rules 2–3) without weakening any dependence-level algorithm; the
//!   correspondence is documented per module.
//! * [`interp`] — a sequential interpreter (the semantics of record) plus an
//!   access tracer used for dependence profiling (manifest rates, Fig. 3.1's
//!   72.4%).
//! * [`analysis`] — affine index analysis and the may-depend test between
//!   memory accesses, including loop-carried and cross-invocation
//!   classification and constant dependence distances (§4.5.6).
//! * [`elide`] — static conflict-freedom proofs for speculative regions:
//!   which affine cross-invocation footprints provably never collide on a
//!   compared task pair. A plan-time report; the runtime checks every
//!   task regardless, and the frozen benchmark is its one consumer.
//! * [`pdg`] — program dependence graphs over statements: register, memory
//!   and control edges (Fig. 3.1(b)/(c)).
//! * [`scc`] — Tarjan SCCs, the DAG-SCC, and the DOMORE scheduler/worker
//!   partitioner with its backedge-repair fixpoint (§3.3.1).
//! * [`mtcg`] — multi-threaded code generation (§3.3.2): emission of the
//!   scheduler/worker function pair of Fig. 3.7, including the live-in
//!   value-communication rule and the END_TOKEN protocol.
//! * [`mod@slice`] — reverse program slicing for `computeAddr` generation
//!   (Alg. 3), with the side-effect abort and the performance guard
//!   (§3.3.4).
//! * [`techniques`] — applicability tests for the intra-invocation baselines
//!   (DOALL, Spec-DOALL, DOANY, LOCALWRITE, DOACROSS, DSWP; §2.2) and the
//!   decision flow of Fig. 1.5.
//! * [`transform`] — the DOMORE transformation (partition + `computeAddr`
//!   extraction → an executable [`transform::DomorePlan`]) and the
//!   SPECCROSS region detection and instrumentation (Alg. 5 → an executable
//!   [`transform::SpecCrossPlan`]); both plans adapt the interpreted program
//!   to the real runtime crates, closing the loop from source-level IR to
//!   parallel execution.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod elide;
pub mod interp;
pub mod ir;
pub mod mtcg;
pub mod pdg;
pub mod scc;
pub mod slice;
pub mod techniques;
pub mod text;
pub mod transform;

pub use analysis::{AffineForm, DepTest};
pub use elide::{ElisionPlan, LoopElision, UnprovenReason};
pub use interp::{Interp, Memory, TraceEvent};
pub use ir::{ArrayId, BinOp, Expr, Program, ProgramBuilder, Stmt, StmtId, VarId};
pub use mtcg::{MtcgDisplay, MtcgOutput, SchedulerStep, WorkerStep};
pub use pdg::{DepKind, Pdg, PdgEdge};
pub use scc::{Partition, SccGraph};
pub use techniques::{Applicability, Technique};
pub use transform::{DomorePlan, SpecCrossPlan, TransformError};
