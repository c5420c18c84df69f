//! Shared runtime substrate for the crossinvoc reproduction of
//! *Automatically Exploiting Cross-Invocation Parallelism Using Runtime
//! Information* (Huang, 2012/2013).
//!
//! Both runtime engines described by the thesis — the non-speculative
//! DOMORE scheduler (`crossinvoc-domore`) and the speculative
//! SPECCROSS barrier (`crossinvoc-speccross`) — are built from a
//! small set of shared primitives, which this crate provides:
//!
//! * [`spsc`] — the lock-free single-producer/single-consumer queue used for
//!   the `produce`/`consume` primitives of §3.2.3 of the thesis (scheduler →
//!   worker synchronization conditions, worker → checker signature requests).
//! * [`barrier`] — a sense-reversing spinning barrier, standing in for the
//!   `pthread_barrier_wait` baseline the paper compares against, with idle-time
//!   accounting so the barrier-overhead experiment (Fig. 4.3) can be measured.
//! * [`shadow`] — the shadow memory of §3.2.1: one `(thread, iteration)` tuple
//!   per tracked memory location, used by DOMORE to detect dynamic dependences.
//! * [`signature`] — memory access signatures of §4.2.1: a summarising
//!   structure per task used by SPECCROSS to detect cross-epoch conflicts.
//!   Range-based (the paper's default) and Bloom-filter-based schemes are
//!   provided behind the [`signature::AccessSignature`] trait.
//! * [`shared`] — [`shared::SharedSlice`], the shared-memory view worker
//!   threads mutate concurrently. The *runtimes* guarantee conflicting
//!   iterations are ordered; the type encapsulates the `unsafe` needed to
//!   express that in Rust.
//! * [`stats`] — lightweight counters shared by runtimes and the simulator.
//! * [`metrics`] — the counters plus log₂ wait-time histograms, snapshotted
//!   once per execution into a [`metrics::MetricsSummary`].
//! * [`trace`] — structured execution tracing: per-thread ring-buffered
//!   [`trace::TraceSink`]s of typed [`trace::Event`]s, merged into a
//!   time-ordered JSONL [`trace::Trace`] with the same schema from the
//!   threaded engines and the simulator (see `docs/OBSERVABILITY.md`).
//! * [`critpath`] — the causal profiler over a trace: builds the
//!   cross-thread happens-before DAG from [`trace::Event::Wake`] edges,
//!   extracts the critical path with per-category time attribution, and
//!   answers what-if questions ("what if barrier waits were free?") by
//!   replaying the DAG with an edge class zeroed.
//! * [`chrome`] — Chrome/Perfetto `trace_event` JSON export
//!   ([`trace::Trace::to_chrome_json`]): one track per thread, flow events
//!   for every causality edge, counter tracks — open any trace in
//!   `ui.perfetto.dev`.
//! * [`fault`] — a deterministic fault-injection plan ([`fault::FaultPlan`])
//!   both engines and the simulator consult at well-defined points, so
//!   recovery and degradation paths can be exercised and replayed exactly.
//! * [`json`] — the workspace's one JSON value tree, reader and writer:
//!   gate reports and telemetry snapshots are built as [`json::Json`] trees,
//!   so what the suite writes is well-formed by construction.
//! * [`wait`] — adaptive spin-then-park waiting ([`wait::AdaptiveSpin`] +
//!   [`wait::Parker`]): bounded spin, bounded yields, then timed parks, so
//!   long waits stop burning a core while abort flags and watchdog deadlines
//!   keep being observed.
//! * [`pool`] — the region-server execution substrate: the
//!   [`pool::RegionExecutor`] boundary between engines and their threads,
//!   with [`pool::ScopedExecutor`] (a fresh scoped thread per role, the
//!   solo-region default) and [`pool::WorkerPool`] (long-lived threads with
//!   FIFO all-or-nothing gang admission serving many concurrent regions).
//! * [`telemetry`] — the live telemetry plane for the region server: a
//!   [`telemetry::ServerRegistry`] of pool-wide and per-region gauges
//!   updated from the hot paths and snapshotted without stopping workers, a
//!   [`telemetry::FlightRecorder`] that dumps the bounded trace rings as
//!   post-mortem JSONL when a region faults / degrades / blows a latency
//!   deadline, and Prometheus + JSON exposition
//!   ([`telemetry::RegistrySnapshot`]).
//!
//! # Example
//!
//! ```
//! use crossinvoc_runtime::spsc::Queue;
//!
//! let (tx, rx) = Queue::<u64>::with_capacity(8);
//! tx.produce(41);
//! tx.produce(42);
//! assert_eq!(rx.consume(), 41);
//! assert_eq!(rx.consume(), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod barrier;
pub mod chrome;
pub mod critpath;
pub mod fault;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod shadow;
pub mod shared;
pub mod signature;
pub mod spsc;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod wait;

pub use barrier::{BarrierWait, SpinBarrier};
pub use critpath::{critical_path, what_if, CritPathReport, PathCategory, WhatIfReport};
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use metrics::{Metrics, MetricsSummary};
pub use pool::{RegionExecutor, Role, ScopedExecutor, WorkerPool};
pub use shadow::{ShadowEntry, ShadowMemory};
pub use shared::SharedSlice;
pub use signature::{AccessSignature, BloomSignature, RangeSignature};
pub use spsc::Queue;
pub use telemetry::{
    FlightRecorder, RegionState, RegionTelemetry, RegistrySnapshot, ServerRegistry,
};
pub use trace::{Event, Trace, TraceCollector, TraceRecord, TraceReport, TraceSink, WakeEdge};
pub use wait::{spin_for, AdaptiveSpin, Parker};

/// Identifier of a worker thread within a parallel region.
///
/// Thread ids are dense indices in `0..num_workers`, assigned by the runtime
/// that spawned the region. They are *not* OS thread ids.
pub type ThreadId = usize;

/// A global iteration (task) number.
///
/// DOMORE numbers iterations consecutively across *all* invocations of the
/// parallelized inner loop (the "combined iteration number" of Fig. 3.5), so a
/// single monotone counter totally orders every unit of scheduled work.
pub type IterNum = u64;

/// Sentinel iteration number meaning "no iteration yet" (the `⊥` entries of
/// the shadow-memory walkthrough in Fig. 3.5).
pub const NO_ITER: IterNum = IterNum::MAX;
