//! Differential fuzzing of the DOMORE and SPECCROSS engines against a
//! sequential oracle.
//!
//! The paper's correctness claim is *observational equivalence*: a region
//! parallelized by either transformation must leave memory exactly as
//! sequential execution would, and under injected faults it must either
//! still do so or fail with a typed error — never hang, never corrupt
//! silently. Hand-picked kernels cannot cover that claim's surface, so this
//! crate generates it:
//!
//! * [`gen`] — a seeded, deterministic generator of random PIR loop nests,
//!   parameterized over dependence patterns (affine, strided, indirect,
//!   cross-invocation carried), iteration counts, worker counts and
//!   signature kinds, plus random [`crossinvoc_runtime::FaultPlan`]s.
//! * [`oracle`] — an independent, bounds-checked, fueled reference
//!   evaluator (deliberately *not* the production interpreter, which is
//!   itself under test).
//! * [`diff`] — executes one case through every applicable path
//!   (sequential interpreter, barriers, `SpecCrossEngine`, `DomoreRuntime`
//!   with and without schedule memoization, and the deterministic
//!   simulators with and without their fast paths over a recorded access
//!   trace) and classifies the outcome; [`run_concurrent_pair`] runs two
//!   cases at once through one shared worker pool (the region-server
//!   deployment shape) and holds each to the same contract, and
//!   [`run_concurrent_pair_telemetry`] re-runs the pair with the live
//!   telemetry plane attached, asserting it is observationally invisible.
//! * [`mod@minimize`] — a delta-debugging shrinker that reduces a diverging
//!   case's program and fault schedule to a minimal counterexample.
//! * [`corpus`] — the stable textual case format and the `corpus/`
//!   directory protocol (every checked-in entry is replayed as a
//!   regression test).
//!
//! Everything is keyed by one `u64` master seed: `generate(seed)` →
//! program + fault plan + engine knobs, so `fuzz-diff --seed N` reproduces
//! any failure exactly.

#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use corpus::{case_from_text, case_to_text, load_corpus, write_counterexample};
pub use diff::{
    run_case, run_concurrent_pair, run_concurrent_pair_telemetry, DiffReport, Divergence,
};
pub use gen::{generate, FuzzCase, GenParams, SigKind};
pub use minimize::minimize;
pub use oracle::{run_oracle, OracleError};
