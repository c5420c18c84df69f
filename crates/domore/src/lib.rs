//! DOMORE — non-speculative cross-invocation parallelization (Chapter 3 of
//! Huang, *Automatically Exploiting Cross-Invocation Parallelism Using
//! Runtime Information*, 2013).
//!
//! DOMORE targets loop nests whose *inner* loop parallelizes cleanly but
//! whose *outer* loop carries dependences that would otherwise force a global
//! barrier after every inner-loop invocation. Instead of barriers, a
//! scheduler observes — at runtime, via shadow memory — which iterations
//! touch common memory, and forwards point-to-point *synchronization
//! conditions* to exactly the workers that need to wait. Iterations from
//! consecutive invocations overlap freely whenever they are dynamically
//! independent.
//!
//! The crate is split so that the scheduling protocol is reusable outside
//! real threads (the discrete-event simulator drives the same step):
//!
//! * [`schedule`] — the one scheduling step every scheduler-role agent
//!   drives ([`ScheduleCore`]): oracle → policy → conflict detection →
//!   emit, with memo replay, verification and divergence fallback inside.
//! * [`logic`] — the pure scheduler algorithm (Alg. 1 of the thesis):
//!   shadow-memory lookups and synchronization-condition generation.
//! * [`memo`] — cross-invocation schedule memoization, used only through
//!   the core.
//! * [`policy`] — iteration-to-thread assignment (§3.3.3): round-robin,
//!   LOCALWRITE-style memory partitioning, and locality-aware adaptive
//!   dispatch ([`policy::Adaptive`], selectable via [`policy::Dispatch`]).
//! * [`workload`] — the [`workload::DomoreWorkload`] trait a loop nest
//!   implements: the sequential prologue, the iteration space, the
//!   `computeAddr` address oracle (§3.3.4) and the worker body.
//! * [`runtime`] — the threaded runtime with its two plans: the separate
//!   plan (§3.2), a scheduler thread and N worker threads connected by SPSC
//!   queues, with the `latestFinished` status array (Alg. 2); and the
//!   replicated plan ([`DomoreRuntime::execute_replicated`], the duplicated
//!   scheduler of §3.4), in which every thread redundantly runs the
//!   scheduling loop, enabling composition with SPECCROSS.
//!
//! # Example
//!
//! ```
//! use crossinvoc_domore::prelude::*;
//! use crossinvoc_runtime::SharedSlice;
//!
//! // A toy nest: 4 invocations of 8 iterations, iteration i of each
//! // invocation increments cell i — every iteration of invocation k+1
//! // depends on the matching iteration of invocation k.
//! struct Nest {
//!     data: SharedSlice<u64>,
//! }
//! impl DomoreWorkload for Nest {
//!     fn num_invocations(&self) -> usize { 4 }
//!     fn num_iterations(&self, _inv: usize) -> usize { 8 }
//!     fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
//!         out.push(iter);
//!     }
//!     fn execute_iteration(&self, _inv: usize, iter: usize, _tid: usize) {
//!         // SAFETY: DOMORE orders the conflicting iterations across
//!         // invocations; no other iteration touches this cell.
//!         unsafe { self.data.update(iter, |v| *v += 1) };
//!     }
//! }
//!
//! let mut nest = Nest { data: SharedSlice::from_vec(vec![0; 8]) };
//! let report = DomoreRuntime::new(DomoreConfig::with_workers(3))
//!     .execute(&nest)
//!     .unwrap();
//! assert_eq!(report.stats.tasks, 32);
//! assert!(nest.data.snapshot().iter().all(|&v| v == 4));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod logic;
pub mod memo;
pub mod policy;
pub mod runtime;
pub mod schedule;
pub mod workload;

pub use logic::{SchedulerLogic, SyncCondition};
pub use memo::ScheduleMemo;
pub use policy::{Adaptive, Chunked, Dispatch, LocalWrite, ModuloWrite, Policy, RoundRobin};
pub use runtime::{DomoreConfig, DomoreError, DomoreRuntime, ExecutionReport};
pub use schedule::ScheduleCore;
pub use workload::DomoreWorkload;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::logic::{SchedulerLogic, SyncCondition};
    pub use crate::policy::{
        Adaptive, Chunked, Dispatch, LocalWrite, ModuloWrite, Policy, RoundRobin,
    };
    pub use crate::runtime::{DomoreConfig, DomoreRuntime};
    pub use crate::workload::DomoreWorkload;
}
