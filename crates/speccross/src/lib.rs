//! SPECCROSS — software-only speculative barriers for cross-invocation
//! parallelism (Chapter 4 of Huang, *Automatically Exploiting
//! Cross-Invocation Parallelism Using Runtime Information*, 2013).
//!
//! A barrier between two parallel loop invocations asserts that *every* pair
//! of tasks across the boundary might conflict. SPECCROSS bets the opposite:
//! workers run straight through invocation boundaries, a checker compares
//! per-task memory-access *signatures* across epochs after the fact (the
//! thesis' checker thread; here the workers admit their own signatures
//! into one shared log), and on the rare conflict the region rolls back to a checkpoint and
//! re-executes the affected epochs with real barriers. Profiling
//! ([`SpecCrossEngine::profile`]) bounds how far threads may run ahead so
//! that dependences seen on a training input never misspeculate.
//!
//! Module map (see DESIGN.md for the paper-section correspondence):
//!
//! * [`position`] — packed epoch/task progress coordinates (§4.2.1).
//! * [`check`] — the pure conflict-detection algorithm and signature log
//!   (Figs. 4.7–4.8).
//! * [`shard`] — address-interleaved partitioning of the checker and the
//!   merge rule for straddling signatures; measured by the benchmark's
//!   layer replay, used by no engine or simulator path.
//! * [`chunk`] — the pure rules of chunked speculation: chunk length,
//!   block-cyclic shares, exact signature runs.
//! * [`profile`] — minimum dependence-distance profiling (§4.4).
//! * [`workload`] — the [`workload::SpecWorkload`] contract: epochs, tasks,
//!   `spec_access` instrumentation, checkpointable state.
//! * [`checkpoint`] — dirty-block bitmaps and the two-buffer checkpoint
//!   whose refreshes and rollbacks copy only written blocks (S3).
//! * [`engine`] — the threaded engine: speculative passes, checkpoint
//!   rendezvous, cooperative recovery, barrier baseline (§4.2.2–4.2.3).
//!
//! # Runtime interface of Table 4.1
//!
//! The thesis exposes a C API; its operations map onto this crate as
//! follows:
//!
//! | Thesis function | Here |
//! |-----------------|------|
//! | `init` | [`SpecCrossEngine::new`] + the initial checkpoint taken at pass start |
//! | `create_threads` | worker gang spawning inside [`SpecCrossEngine::execute`] (no checker thread: workers admit inline) |
//! | `enter_barrier` | epoch entry in the worker driver (position epoch bump; checkpoint every Nth epoch) |
//! | `enter_task` | frontier publish + speculative-range gate + position snapshot |
//! | `spec_access` | [`workload::AccessRecorder`] passed to every task |
//! | `exit_task` | admission of the chunk's exact runs into the pass's log |
//! | `send_end_token` | worker completion signalling |
//! | `sync` / `checkpoint` | the rendezvous around irreversible epochs |
//! | `cleanup` | scope join at pass end |
//!
//! # Example
//!
//! See [`engine::SpecCrossEngine`] for an end-to-end example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod check;
pub mod checkpoint;
pub mod chunk;
pub mod engine;
pub mod position;
pub mod profile;
pub mod shard;
pub mod workload;

pub use check::{CheckRequest, CheckerState, Conflict};
pub use engine::{
    ContainedFault, DegradePolicy, SpecConfig, SpecCrossEngine, SpecError, SpecReport,
    WIDE_CHUNK_NS, WIDE_TASK_NS,
};
pub use position::{Position, PositionBoard};
pub use profile::{DistanceProfiler, ProfileReport};
pub use shard::{ShardMap, ShardSet, ShardedChecker, MAX_SHARDS};
pub use workload::{AccessRecorder, NullRecorder, SigRecorder, SpecWorkload};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::engine::{
        ContainedFault, DegradePolicy, SpecConfig, SpecCrossEngine, SpecError,
    };
    pub use crate::profile::ProfileReport;
    pub use crate::workload::{AccessRecorder, SpecWorkload};
}
