//! Live telemetry plane for the region server: per-region QoS registry,
//! flight recorder, and exposition.
//!
//! Everything the rest of the suite reports — [`crate::metrics`] summaries,
//! [`crate::trace`] JSONL — is *post-hoc*: it appears only after a region
//! joins. A long-lived [`crate::pool::WorkerPool`] serving many concurrent
//! regions needs the opposite: a cheap, always-on view of what is happening
//! *right now* (is the pool saturated? is a gang starving in the admission
//! queue? is one region misspeculating in a storm?). That signal is also the
//! prerequisite for adaptive technique re-promotion (ROADMAP): choosing
//! between DOMORE and SPECCROSS at runtime requires observed behaviour, not
//! end-of-run reports.
//!
//! Three pieces:
//!
//! * [`ServerRegistry`] — pool-wide and per-region gauges / counters /
//!   histograms. Hot-path updates are relaxed atomic adds (the engines keep
//!   writing the same [`Metrics`] they always did — when a region is
//!   registered, its [`RegionTelemetry`] *owns* that `Metrics`, so the live
//!   view and the final [`MetricsSummary`] are one object and cannot
//!   disagree). Pool-level rates use a [`ShardedCounter`] (one cache-padded
//!   slot per pool thread) so concurrent slots never contend on one line.
//!   Reading is [`ServerRegistry::snapshot`]: plain loads, no locks held
//!   across user code, workers never stop.
//! * [`FlightRecorder`] — the bounded [`crate::trace::TraceSink`] rings are
//!   already last-N-events recorders (oldest overwritten, drops counted).
//!   The recorder makes them *useful in anger*: when a region faults,
//!   degrades, or blows a latency deadline, its ring contents are dumped as
//!   post-mortem JSONL — with exact drop accounting — for exactly the
//!   window that mattered.
//! * Exposition — [`RegistrySnapshot::to_json`] (one line, schema
//!   `crossinvoc-telemetry-1`) and [`RegistrySnapshot::to_prometheus`]
//!   (text format 0.0.4). The snapshot structs have public fields so the
//!   virtual-time simulator can emit the identical schema without an
//!   `Instant` in sight.
//!
//! # Consistency contract
//!
//! Mid-run snapshots are **approximate** exactly like
//! [`crate::stats::RegionStats::summary`]: counters may be mutually
//! inconsistent while writers run. Once a region has finished (its gang
//! joined), its snapshot is **exact** and equals the `MetricsSummary` in the
//! engine's report, because both read the same quiesced `Metrics`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use crossinvoc_runtime::telemetry::{FlightRecorder, ServerRegistry};
//!
//! let registry = Arc::new(ServerRegistry::new(4).with_recorder(FlightRecorder::new(256)));
//! let cell = registry.register(1, "speccross", 3);
//! cell.mark_running();
//! cell.metrics().stats().add_task();
//! cell.complete(0, false, None);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.regions.len(), 1);
//! assert_eq!(snap.regions[0].metrics.stats.tasks, 1);
//! println!("{}", snap.to_prometheus());
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::json::Json;
use crate::json_obj;
use crate::metrics::Histogram;
use crate::metrics::{HistogramSummary, Metrics, MetricsSummary};
use crate::trace::Trace;

/// Sentinel for "not yet" in the nanosecond-offset fields.
const NOT_YET: u64 = u64::MAX;

/// A counter sharded across cache-padded slots so concurrent writers (one
/// per pool thread) never contend on a single cache line.
///
/// [`ShardedCounter::add`] is one relaxed `fetch_add` on the caller's own
/// slot; [`ShardedCounter::sum`] folds all slots with acquire loads.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl ShardedCounter {
    /// A zeroed counter with `shards` slots (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedCounter {
            shards: (0..shards.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Adds `v` to slot `shard % shards` (relaxed).
    pub fn add(&self, shard: usize, v: u64) {
        self.shards[shard % self.shards.len()].fetch_add(v, Ordering::Relaxed);
    }

    /// Sum over all slots. Approximate while writers run, exact once they
    /// are quiesced (same contract as [`crate::stats::RegionStats`]).
    pub fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Acquire)).sum()
    }
}

/// Lifecycle state of a region as seen by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RegionState {
    /// Registered, gang not yet admitted / engine not yet running.
    Queued = 0,
    /// The engine is executing the region.
    Running = 1,
    /// Finished successfully (contained faults possible — see
    /// [`RegionSnapshot::faults`]).
    Done = 2,
    /// Finished with a hard error (the engine returned `Err`).
    Faulted = 3,
}

impl RegionState {
    fn from_u8(v: u8) -> RegionState {
        match v {
            1 => RegionState::Running,
            2 => RegionState::Done,
            3 => RegionState::Faulted,
            _ => RegionState::Queued,
        }
    }

    /// Lower-case wire name (`queued` / `running` / `done` / `faulted`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RegionState::Queued => "queued",
            RegionState::Running => "running",
            RegionState::Done => "done",
            RegionState::Faulted => "faulted",
        }
    }
}

impl fmt::Display for RegionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What tripped a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpTrigger {
    /// The region faulted: hard engine error, or contained worker faults.
    Fault,
    /// The region degraded to sequential re-execution (SPECCROSS give-up).
    Degrade,
    /// The region exceeded the recorder's latency deadline.
    Deadline,
}

impl DumpTrigger {
    /// Lower-case wire name (`fault` / `degrade` / `deadline`).
    pub fn as_str(&self) -> &'static str {
        match self {
            DumpTrigger::Fault => "fault",
            DumpTrigger::Degrade => "degrade",
            DumpTrigger::Deadline => "deadline",
        }
    }
}

impl fmt::Display for DumpTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One post-mortem dump captured by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Region the dump belongs to.
    pub region_id: u64,
    /// Why the dump was taken.
    pub trigger: DumpTrigger,
    /// Records captured (the last-N window that survived the ring).
    pub records: usize,
    /// Records lost to ring overflow before the dump — exact, from the
    /// sinks' own drop counters.
    pub dropped: u64,
    /// The window serialized as trace JSONL (schema per
    /// `docs/OBSERVABILITY.md`), parseable by
    /// [`Trace::from_jsonl`].
    pub jsonl: String,
}

/// Always-on last-N-events recorder dumped automatically on fault, degrade,
/// or deadline overrun.
///
/// The recorder does not capture events itself — the engines' per-thread
/// [`crate::trace::TraceSink`] rings already do, bounded, with drop
/// accounting. The recorder decides *when that window is worth keeping*:
/// [`RegionTelemetry::complete`] / [`RegionTelemetry::fail`] hand it the
/// region's merged trace and it stores (and optionally writes to disk) a
/// [`FlightDump`] when a trigger fires.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    deadline_ns: u64,
    dump_dir: Option<PathBuf>,
    dumps: Mutex<Vec<FlightDump>>,
    taken: AtomicU64,
}

impl FlightRecorder {
    /// A recorder asking for per-thread rings of `capacity` records and no
    /// latency deadline.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            deadline_ns: NOT_YET,
            dump_dir: None,
            dumps: Mutex::new(Vec::new()),
            taken: AtomicU64::new(0),
        }
    }

    /// Sets the region-latency deadline: a region whose wall-clock latency
    /// exceeds it dumps with [`DumpTrigger::Deadline`] even if it succeeded.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline_ns = deadline.as_nanos().min(u64::MAX as u128 - 1) as u64;
        self
    }

    /// Additionally writes each dump to
    /// `dir/region-<id>-<trigger>-<seq>.flight.jsonl` (best effort: I/O
    /// errors are swallowed, the in-memory dump is always kept).
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dump_dir = Some(dir.into());
        self
    }

    /// Ring capacity regions should record with (the server stamps this
    /// into engine configs that have tracing off, making the rings
    /// always-on recorders).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The latency deadline in nanoseconds, if one was set.
    pub fn deadline_ns(&self) -> Option<u64> {
        (self.deadline_ns != NOT_YET).then_some(self.deadline_ns)
    }

    /// Total dumps taken so far (cheap; no lock).
    pub fn dumps_taken(&self) -> u64 {
        self.taken.load(Ordering::Acquire)
    }

    /// Clones the dumps captured so far.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().clone()
    }

    /// Takes a dump of `trace` for `region_id`.
    pub fn record(&self, region_id: u64, trigger: DumpTrigger, trace: &Trace) {
        let dump = FlightDump {
            region_id,
            trigger,
            records: trace.records().len(),
            dropped: trace.dropped(),
            jsonl: trace.to_jsonl(),
        };
        let seq = self.taken.fetch_add(1, Ordering::AcqRel);
        if let Some(dir) = &self.dump_dir {
            let path = dir.join(format!(
                "region-{region_id}-{}-{seq}.flight.jsonl",
                trigger.as_str()
            ));
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, &dump.jsonl);
        }
        self.dumps.lock().push(dump);
    }
}

/// Live per-region telemetry cell.
///
/// Handed to an engine via its config (`SpecConfig::telemetry` /
/// `DomoreConfig::telemetry`); the engine then uses
/// [`RegionTelemetry::metrics`] as its metrics registry — the registry's
/// live view and the engine's final report read the *same* counters — and
/// drives the lifecycle: [`mark_running`](Self::mark_running) when
/// execution starts, [`complete`](Self::complete) /
/// [`fail`](Self::fail) exactly once at the end (later calls are ignored,
/// so an outer safety net can call them unconditionally).
#[derive(Debug)]
pub struct RegionTelemetry {
    region_id: u64,
    kind: &'static str,
    gang: usize,
    origin: Instant,
    state: AtomicU8,
    finished: AtomicBool,
    started_ns: AtomicU64,
    finished_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    degrade_events: AtomicU64,
    faults: AtomicU64,
    metrics: Metrics,
    registry: Weak<ServerRegistry>,
}

impl RegionTelemetry {
    /// The region-server submission id.
    pub fn region_id(&self) -> u64 {
        self.region_id
    }

    /// Engine kind label (`"speccross"`, `"speccross-barrier"`,
    /// `"domore"`, …).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Gang size (worker threads + service threads) the region demands.
    pub fn gang(&self) -> usize {
        self.gang
    }

    /// The metrics registry the engine should write into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RegionState {
        RegionState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Marks the engine as executing (first call wins; records the start
    /// time for latency accounting).
    pub fn mark_running(&self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if self
            .started_ns
            .compare_exchange(NOT_YET, now, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.state
                .store(RegionState::Running as u8, Ordering::Release);
        }
    }

    /// Accumulates gang-admission queue wait attributed to this region (the
    /// pool reports the same sample into the pool-wide histogram).
    pub fn add_queue_wait(&self, ns: u64) {
        self.queue_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Counts one degradation event (SPECCROSS falling back to sequential
    /// re-execution).
    pub fn add_degrade_event(&self) {
        self.degrade_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the region finished successfully. `contained_faults` counts
    /// worker faults the engine contained and recovered from; `degraded`
    /// says whether any part ran degraded. `trace` (when available) feeds
    /// the flight recorder if a dump trigger fires. Idempotent: only the
    /// first `complete`/`fail` takes effect.
    pub fn complete(&self, contained_faults: u64, degraded: bool, trace: Option<&Trace>) {
        self.finish(false, contained_faults, degraded, trace);
    }

    /// Marks the region failed (hard engine error). Idempotent: only the
    /// first `complete`/`fail` takes effect.
    pub fn fail(&self, trace: Option<&Trace>) {
        self.finish(true, 0, false, trace);
    }

    fn finish(
        &self,
        hard_fail: bool,
        contained_faults: u64,
        degraded: bool,
        trace: Option<&Trace>,
    ) {
        if self.finished.swap(true, Ordering::AcqRel) {
            return;
        }
        self.faults
            .fetch_add(contained_faults + u64::from(hard_fail), Ordering::Relaxed);
        if degraded && self.degrade_events.load(Ordering::Relaxed) == 0 {
            // Degradation reported only through the summary flag (e.g. a
            // path that never called add_degrade_event): still count one.
            self.degrade_events.fetch_add(1, Ordering::Relaxed);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.finished_ns.store(now, Ordering::Release);
        let state = if hard_fail {
            RegionState::Faulted
        } else {
            RegionState::Done
        };
        self.state.store(state as u8, Ordering::Release);
        let started = self.started_ns.load(Ordering::Acquire);
        let latency = if started == NOT_YET {
            0
        } else {
            now.saturating_sub(started)
        };
        let Some(registry) = self.registry.upgrade() else {
            return;
        };
        registry.region_latency_ns.record(latency);
        let Some(recorder) = &registry.recorder else {
            return;
        };
        let faulted = hard_fail || contained_faults > 0;
        let degraded = degraded || self.degrade_events.load(Ordering::Relaxed) > 0;
        let trigger = if faulted {
            Some(DumpTrigger::Fault)
        } else if degraded {
            Some(DumpTrigger::Degrade)
        } else if latency > recorder.deadline_ns {
            Some(DumpTrigger::Deadline)
        } else {
            None
        };
        if let (Some(trigger), Some(trace)) = (trigger, trace) {
            recorder.record(self.region_id, trigger, trace);
        }
    }

    /// Plain-value snapshot of this region (approximate while the region
    /// runs, exact once finished — see the [module docs](self)).
    pub fn snapshot(&self) -> RegionSnapshot {
        let now = self.origin.elapsed().as_nanos() as u64;
        let started = self.started_ns.load(Ordering::Acquire);
        let finished = self.finished_ns.load(Ordering::Acquire);
        let latency_ns = match (started, finished) {
            (NOT_YET, _) => 0,
            (s, NOT_YET) => now.saturating_sub(s),
            (s, f) => f.saturating_sub(s),
        };
        RegionSnapshot {
            region_id: self.region_id,
            kind: self.kind.to_string(),
            gang: self.gang,
            state: self.state(),
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Acquire),
            degrade_events: self.degrade_events.load(Ordering::Acquire),
            faults: self.faults.load(Ordering::Acquire),
            latency_ns,
            metrics: self.metrics.snapshot(),
        }
    }
}

/// The pool-wide + per-region registry behind the region server.
///
/// Constructed with the pool size, wrapped in an `Arc`, attached to the
/// [`crate::pool::WorkerPool`] (admission / busy-time hooks) and handed a
/// [`RegionTelemetry`] cell per submission via
/// [`ServerRegistry::register`].
#[derive(Debug)]
pub struct ServerRegistry {
    origin: Instant,
    pool_slots: usize,
    slots_busy: AtomicUsize,
    admissions: AtomicU64,
    queue_wait_ns: Histogram,
    busy_ns: ShardedCounter,
    region_latency_ns: Histogram,
    regions: Mutex<Vec<Arc<RegionTelemetry>>>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl ServerRegistry {
    /// A registry for a pool of `pool_slots` worker threads.
    pub fn new(pool_slots: usize) -> Self {
        ServerRegistry {
            origin: Instant::now(),
            pool_slots,
            slots_busy: AtomicUsize::new(0),
            admissions: AtomicU64::new(0),
            queue_wait_ns: Histogram::new(),
            busy_ns: ShardedCounter::new(pool_slots),
            region_latency_ns: Histogram::new(),
            regions: Mutex::new(Vec::new()),
            recorder: None,
        }
    }

    /// Attaches a flight recorder.
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(Arc::new(recorder));
        self
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Pool size this registry was built for.
    pub fn pool_slots(&self) -> usize {
        self.pool_slots
    }

    /// Registers a region and returns its telemetry cell.
    pub fn register(
        self: &Arc<Self>,
        region_id: u64,
        kind: &'static str,
        gang: usize,
    ) -> Arc<RegionTelemetry> {
        let cell = Arc::new(RegionTelemetry {
            region_id,
            kind,
            gang,
            origin: self.origin,
            state: AtomicU8::new(RegionState::Queued as u8),
            finished: AtomicBool::new(false),
            started_ns: AtomicU64::new(NOT_YET),
            finished_ns: AtomicU64::new(NOT_YET),
            queue_wait_ns: AtomicU64::new(0),
            degrade_events: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            metrics: Metrics::new(),
            registry: Arc::downgrade(self),
        });
        self.regions.lock().push(Arc::clone(&cell));
        cell
    }

    /// Pool hook: a gang of `gang` slots was admitted after waiting
    /// `wait_ns` in the admission queue.
    pub fn note_admission(&self, gang: usize, wait_ns: u64) {
        self.admissions.fetch_add(1, Ordering::Relaxed);
        self.queue_wait_ns.record(wait_ns);
        self.slots_busy.fetch_add(gang, Ordering::Relaxed);
    }

    /// Pool hook: one admitted slot was released.
    pub fn note_slot_release(&self) {
        self.slots_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Pool hook: pool thread `slot` spent `ns` nanoseconds running region
    /// work.
    pub fn add_busy_ns(&self, slot: usize, ns: u64) {
        self.busy_ns.add(slot, ns);
    }

    /// Snapshots the whole registry without stopping workers (plain loads;
    /// the region list lock is held only to clone the `Arc`s).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let cells: Vec<Arc<RegionTelemetry>> = self.regions.lock().clone();
        let regions: Vec<RegionSnapshot> = cells.iter().map(|c| c.snapshot()).collect();
        let in_flight = regions
            .iter()
            .filter(|r| r.state == RegionState::Running)
            .count();
        let uptime_ns = self.origin.elapsed().as_nanos() as u64;
        let busy_ns = self.busy_ns.sum();
        let denom = (self.pool_slots as u64).saturating_mul(uptime_ns);
        let utilization = if denom == 0 {
            0.0
        } else {
            (busy_ns as f64 / denom as f64).clamp(0.0, 1.0)
        };
        RegistrySnapshot {
            t_ns: uptime_ns,
            pool: PoolSnapshot {
                slots: self.pool_slots,
                slots_busy: self.slots_busy.load(Ordering::Acquire),
                in_flight,
                admissions: self.admissions.load(Ordering::Acquire),
                busy_ns,
                utilization,
                queue_wait: self.queue_wait_ns.snapshot(),
                region_latency: self.region_latency_ns.snapshot(),
            },
            regions,
            flight_dumps: self.recorder.as_ref().map_or(0, |r| r.dumps_taken()),
        }
    }
}

/// Plain-value snapshot of the pool-wide gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// Total worker slots in the pool.
    pub slots: usize,
    /// Slots currently admitted to gangs.
    pub slots_busy: usize,
    /// Regions currently in [`RegionState::Running`].
    pub in_flight: usize,
    /// Gangs admitted since the registry was created.
    pub admissions: u64,
    /// Total nanoseconds pool threads spent running region work.
    pub busy_ns: u64,
    /// `busy_ns / (slots × uptime)`, clamped to `0.0..=1.0`.
    pub utilization: f64,
    /// Gang-admission queue-wait distribution.
    pub queue_wait: HistogramSummary,
    /// End-to-end region latency distribution (SLO histogram).
    pub region_latency: HistogramSummary,
}

/// Plain-value snapshot of one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSnapshot {
    /// Region-server submission id.
    pub region_id: u64,
    /// Engine kind label.
    pub kind: String,
    /// Gang size demanded.
    pub gang: usize,
    /// Lifecycle state.
    pub state: RegionState,
    /// Total admission queue wait attributed to this region (ns).
    pub queue_wait_ns: u64,
    /// Degradation events (SPECCROSS sequential fallbacks).
    pub degrade_events: u64,
    /// Faults: worker faults contained by the engine, plus one if the
    /// region hard-failed.
    pub faults: u64,
    /// Wall-clock latency (ns): running → elapsed so far, finished →
    /// start-to-finish, queued → 0.
    pub latency_ns: u64,
    /// The engine's metrics (approximate while running, exact once
    /// finished).
    pub metrics: MetricsSummary,
}

impl RegionSnapshot {
    /// Misspeculations per executed task (0 when no tasks ran yet).
    pub fn misspec_rate(&self) -> f64 {
        if self.metrics.stats.tasks == 0 {
            0.0
        } else {
            self.metrics.stats.misspeculations as f64 / self.metrics.stats.tasks as f64
        }
    }

    /// Whether this row deserves a red flag in a live display: faulted
    /// state, any fault, or any degradation.
    pub fn red_flag(&self) -> bool {
        self.state == RegionState::Faulted || self.faults > 0 || self.degrade_events > 0
    }
}

/// One full registry snapshot: pool gauges plus a row per region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Nanoseconds since the registry was created (virtual time for the
    /// simulator's mirror).
    pub t_ns: u64,
    /// Pool-wide gauges.
    pub pool: PoolSnapshot,
    /// Per-region rows, in registration order.
    pub regions: Vec<RegionSnapshot>,
    /// Flight-recorder dumps taken so far.
    pub flight_dumps: u64,
}

fn hist_json(h: &HistogramSummary) -> Json {
    json_obj! {
        "count": h.count,
        "sum_ns": h.sum_ns,
        "mean_ns": Json::fixed(h.mean_ns(), 3),
        "p50_ns": h.quantile_upper_bound(0.50),
        "p95_ns": h.quantile_upper_bound(0.95),
        "p99_ns": h.quantile_upper_bound(0.99),
        "max_ns": h.max_ns,
    }
}

impl RegionSnapshot {
    /// One wire row: identity and lifecycle, then every
    /// [`crate::stats::COUNTERS`] entry under its own name, then the two
    /// wait histograms.
    fn to_json(&self) -> Json {
        let counters = self.metrics.stats.fields();
        json_obj! {
            "region_id": self.region_id,
            "kind": self.kind.as_str(),
            "gang": self.gang,
            "state": self.state.as_str(),
            "queue_wait_ns": self.queue_wait_ns,
            "degrade_events": self.degrade_events,
            "faults": self.faults,
            "latency_ns": self.latency_ns,
            "misspec_rate": Json::fixed(self.misspec_rate(), 6),
        }
        .merged(Json::Obj(
            counters
                .map(|(name, v)| (name.to_string(), v.into()))
                .into(),
        ))
        .merged(json_obj! {
            "barrier_wait": hist_json(&self.metrics.barrier_wait),
            "stall_wait": hist_json(&self.metrics.stall_wait),
        })
    }
}

impl RegistrySnapshot {
    /// Serializes as one line of JSON, schema `crossinvoc-telemetry-1`
    /// (the `server-stats` binary and the bench gates consume this). Built
    /// as a [`Json`] tree; region rows carry every counter of
    /// [`crate::stats::COUNTERS`].
    pub fn to_json(&self) -> String {
        json_obj! {
            "schema": "crossinvoc-telemetry-1",
            "t_ns": self.t_ns,
            "flight_dumps": self.flight_dumps,
            "pool": json_obj! {
                "slots": self.pool.slots,
                "slots_busy": self.pool.slots_busy,
                "in_flight": self.pool.in_flight,
                "admissions": self.pool.admissions,
                "busy_ns": self.pool.busy_ns,
                "utilization": Json::fixed(self.pool.utilization, 6),
                "queue_wait": hist_json(&self.pool.queue_wait),
                "region_latency": hist_json(&self.pool.region_latency),
            },
            "regions": self.regions.iter().map(RegionSnapshot::to_json).collect::<Vec<_>>(),
        }
        .render()
    }

    /// Serializes in Prometheus text exposition format 0.0.4. Per-region
    /// families: the lifecycle gauges below plus one `…_total` counter per
    /// [`crate::stats::COUNTERS`] entry.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024 + self.regions.len() * 2048);
        let mut scalar = |kind: &str, name: &str, help: &str, v: &dyn fmt::Display| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {v}"
            );
        };
        let pool = &self.pool;
        scalar(
            "gauge",
            "crossinvoc_pool_slots",
            "Total worker slots in the pool.",
            &pool.slots,
        );
        scalar(
            "gauge",
            "crossinvoc_pool_slots_busy",
            "Slots currently admitted to gangs.",
            &pool.slots_busy,
        );
        scalar(
            "gauge",
            "crossinvoc_pool_in_flight",
            "Regions currently running.",
            &pool.in_flight,
        );
        scalar(
            "counter",
            "crossinvoc_pool_admissions_total",
            "Gangs admitted since start.",
            &pool.admissions,
        );
        scalar(
            "counter",
            "crossinvoc_pool_busy_ns_total",
            "Nanoseconds pool threads spent running region work.",
            &pool.busy_ns,
        );
        scalar(
            "gauge",
            "crossinvoc_pool_utilization",
            "busy_ns / (slots x uptime), 0..1.",
            &format_args!("{:.6}", pool.utilization),
        );
        scalar(
            "counter",
            "crossinvoc_flight_dumps_total",
            "Flight-recorder dumps taken.",
            &self.flight_dumps,
        );
        for (name, help, h) in [
            (
                "crossinvoc_pool_queue_wait_ns",
                "Gang-admission queue wait (ns).",
                &pool.queue_wait,
            ),
            (
                "crossinvoc_region_latency_ns",
                "End-to-end region latency (ns).",
                &pool.region_latency,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "{name}{{quantile=\"{label}\"}} {}",
                    h.quantile_upper_bound(q)
                );
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum_ns, h.count);
        }
        if self.regions.is_empty() {
            return out;
        }
        let mut family =
            |kind: &str, name: &str, help: &str, get: &dyn Fn(&RegionSnapshot) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
                for r in &self.regions {
                    let _ = writeln!(
                        out,
                        "{name}{{region=\"{}\",kind=\"{}\"}} {}",
                        r.region_id,
                        r.kind,
                        get(r)
                    );
                }
            };
        family(
            "gauge",
            "crossinvoc_region_state",
            "Region state code: 0 queued, 1 running, 2 done, 3 faulted.",
            &|r| r.state as u64,
        );
        for (i, def) in crate::stats::COUNTERS.iter().enumerate() {
            family("counter", def.family, def.help, &|r| {
                r.metrics.stats.fields()[i].1
            });
        }
        family(
            "counter",
            "crossinvoc_region_degrade_events_total",
            "Degradations to sequential re-execution.",
            &|r| r.degrade_events,
        );
        family(
            "counter",
            "crossinvoc_region_faults_total",
            "Faults (contained + hard).",
            &|r| r.faults,
        );
        family(
            "counter",
            "crossinvoc_region_queue_wait_ns_total",
            "Admission queue wait attributed to the region (ns).",
            &|r| r.queue_wait_ns,
        );
        out.push_str("# HELP crossinvoc_region_latency_seconds Region latency so far (s).\n# TYPE crossinvoc_region_latency_seconds gauge\n");
        for r in &self.regions {
            let _ = writeln!(
                out,
                "crossinvoc_region_latency_seconds{{region=\"{}\",kind=\"{}\"}} {:.6}",
                r.region_id,
                r.kind,
                r.latency_ns as f64 / 1e9
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Event, TraceCollector};

    fn tiny_trace(region: u64) -> Trace {
        let collector = TraceCollector::with_region(8, region);
        let mut sink = collector.sink(0);
        sink.emit(Event::EpochBegin { epoch: 0 });
        sink.emit(Event::EpochEnd { epoch: 0 });
        collector.absorb(sink);
        collector
            .finish()
            .expect("enabled collector yields a trace")
    }

    #[test]
    fn sharded_counter_sums_across_shards() {
        let c = ShardedCounter::new(4);
        assert_eq!(c.shards(), 4);
        for slot in 0..8 {
            c.add(slot, 10);
        }
        assert_eq!(c.sum(), 80);
        // Zero shards clamps to one.
        let c = ShardedCounter::new(0);
        c.add(5, 7);
        assert_eq!(c.sum(), 7);
    }

    #[test]
    fn region_lifecycle_and_snapshot() {
        let reg = Arc::new(ServerRegistry::new(4));
        let cell = reg.register(3, "speccross", 3);
        assert_eq!(cell.state(), RegionState::Queued);
        assert_eq!(cell.snapshot().latency_ns, 0);

        cell.mark_running();
        assert_eq!(cell.state(), RegionState::Running);
        cell.metrics().stats().add_task();
        cell.metrics().stats().add_misspeculation();
        cell.add_queue_wait(250);

        cell.complete(0, false, None);
        assert_eq!(cell.state(), RegionState::Done);
        let snap = cell.snapshot();
        assert_eq!(snap.region_id, 3);
        assert_eq!(snap.kind, "speccross");
        assert_eq!(snap.gang, 3);
        assert_eq!(snap.queue_wait_ns, 250);
        assert_eq!(snap.metrics.stats.tasks, 1);
        assert!((snap.misspec_rate() - 1.0).abs() < 1e-12);
        assert!(!snap.red_flag());

        // Finished regions feed the pool-wide latency histogram.
        assert_eq!(reg.snapshot().pool.region_latency.count, 1);
    }

    #[test]
    fn finish_is_idempotent_first_call_wins() {
        let reg = Arc::new(ServerRegistry::new(2));
        let cell = reg.register(1, "domore", 2);
        cell.mark_running();
        cell.complete(0, false, None);
        cell.fail(None);
        assert_eq!(cell.state(), RegionState::Done);
        assert_eq!(cell.snapshot().faults, 0);
        assert_eq!(reg.snapshot().pool.region_latency.count, 1);
    }

    #[test]
    fn fail_marks_faulted_and_dumps_flight_trace() {
        let reg = Arc::new(ServerRegistry::new(2).with_recorder(FlightRecorder::new(64)));
        let cell = reg.register(7, "speccross", 2);
        cell.mark_running();
        cell.fail(Some(&tiny_trace(7)));
        assert_eq!(cell.state(), RegionState::Faulted);
        assert!(cell.snapshot().red_flag());
        let dumps = reg.flight_recorder().unwrap().dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].region_id, 7);
        assert_eq!(dumps[0].trigger, DumpTrigger::Fault);
        assert_eq!(dumps[0].records, 2);
        assert_eq!(dumps[0].dropped, 0);
        let parsed = Trace::from_jsonl(&dumps[0].jsonl).unwrap();
        assert_eq!(parsed.region(), 7);
        assert_eq!(parsed.records().len(), 2);
        assert_eq!(reg.snapshot().flight_dumps, 1);
    }

    #[test]
    fn contained_faults_and_degrade_trigger_dumps() {
        let reg = Arc::new(ServerRegistry::new(2).with_recorder(FlightRecorder::new(64)));
        let a = reg.register(1, "speccross", 2);
        a.mark_running();
        a.complete(2, false, Some(&tiny_trace(1)));
        assert_eq!(a.state(), RegionState::Done);
        assert_eq!(a.snapshot().faults, 2);

        let b = reg.register(2, "speccross", 2);
        b.mark_running();
        b.add_degrade_event();
        b.complete(0, true, Some(&tiny_trace(2)));

        let dumps = reg.flight_recorder().unwrap().dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].trigger, DumpTrigger::Fault);
        assert_eq!(dumps[1].trigger, DumpTrigger::Degrade);
        assert_eq!(dumps[1].region_id, 2);
    }

    #[test]
    fn deadline_overrun_triggers_dump() {
        let reg = Arc::new(
            ServerRegistry::new(2)
                .with_recorder(FlightRecorder::new(64).with_deadline(Duration::from_nanos(1))),
        );
        let cell = reg.register(9, "domore", 1);
        cell.mark_running();
        std::thread::sleep(Duration::from_millis(1));
        cell.complete(0, false, Some(&tiny_trace(9)));
        let dumps = reg.flight_recorder().unwrap().dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, DumpTrigger::Deadline);
    }

    #[test]
    fn healthy_fast_region_takes_no_dump() {
        let reg = Arc::new(
            ServerRegistry::new(2)
                .with_recorder(FlightRecorder::new(64).with_deadline(Duration::from_secs(3600))),
        );
        let cell = reg.register(1, "domore", 1);
        cell.mark_running();
        cell.complete(0, false, Some(&tiny_trace(1)));
        assert!(reg.flight_recorder().unwrap().dumps().is_empty());
    }

    #[test]
    fn pool_hooks_feed_the_pool_snapshot() {
        let reg = Arc::new(ServerRegistry::new(4));
        reg.note_admission(3, 1_000);
        reg.add_busy_ns(0, 500);
        reg.add_busy_ns(1, 700);
        let snap = reg.snapshot();
        assert_eq!(snap.pool.slots, 4);
        assert_eq!(snap.pool.slots_busy, 3);
        assert_eq!(snap.pool.admissions, 1);
        assert_eq!(snap.pool.busy_ns, 1_200);
        assert_eq!(snap.pool.queue_wait.count, 1);
        assert_eq!(snap.pool.queue_wait.sum_ns, 1_000);
        reg.note_slot_release();
        assert_eq!(reg.snapshot().pool.slots_busy, 2);
        assert!(snap.pool.utilization >= 0.0 && snap.pool.utilization <= 1.0);
    }

    #[test]
    fn in_flight_counts_running_regions_only() {
        let reg = Arc::new(ServerRegistry::new(4));
        let a = reg.register(1, "domore", 1);
        let b = reg.register(2, "domore", 1);
        let _queued = reg.register(3, "domore", 1);
        a.mark_running();
        b.mark_running();
        b.complete(0, false, None);
        let snap = reg.snapshot();
        assert_eq!(snap.pool.in_flight, 1);
        assert_eq!(snap.regions.len(), 3);
    }

    #[test]
    fn json_exposition_has_schema_and_region_rows() {
        let reg = Arc::new(ServerRegistry::new(2));
        let cell = reg.register(5, "speccross-barrier", 2);
        cell.mark_running();
        cell.metrics().stats().add_task();
        cell.complete(0, false, None);
        let line = reg.snapshot().to_json();
        assert!(line.starts_with("{\"schema\":\"crossinvoc-telemetry-1\""));
        assert!(line.contains("\"region_id\":5"));
        assert!(line.contains("\"kind\":\"speccross-barrier\""));
        assert!(line.contains("\"state\":\"done\""));
        assert!(line.contains("\"tasks\":1"));
        assert!(!line.contains('\n'));
        let parsed = crate::json::parse(&line).expect("the wire line parses");
        assert_eq!(
            parsed.at("pool.slots").and_then(Json::as_f64),
            Some(2.0),
            "{line}"
        );
    }

    /// Every counter of the `counters!` table reaches both expositions
    /// under its own name — a new counter cannot be forgotten in one.
    #[test]
    fn every_counter_appears_in_json_and_prometheus() {
        let reg = Arc::new(ServerRegistry::new(2));
        let cell = reg.register(1, "speccross", 2);
        cell.mark_running();
        cell.complete(0, false, None);
        let snap = reg.snapshot();
        let wire = crate::json::parse(&snap.to_json()).unwrap();
        let row = &wire.get("regions").and_then(Json::as_arr).unwrap()[0];
        let prom = snap.to_prometheus();
        for (def, (name, value)) in crate::stats::COUNTERS
            .iter()
            .zip(snap.regions[0].metrics.stats.fields())
        {
            assert_eq!(
                row.get(name).and_then(Json::as_f64),
                Some(value as f64),
                "JSON row lacks {name}"
            );
            let sample = format!("{}{{region=\"1\",kind=\"speccross\"}} {value}", def.family);
            assert!(prom.contains(&sample), "Prometheus lacks {sample}");
            assert!(prom.contains(&format!("# HELP {} {}", def.family, def.help)));
        }
    }

    #[test]
    fn prometheus_exposition_lists_expected_families() {
        let reg = Arc::new(ServerRegistry::new(2));
        let cell = reg.register(5, "domore", 2);
        cell.mark_running();
        cell.metrics().stats().add_task();
        let text = reg.snapshot().to_prometheus();
        for family in [
            "crossinvoc_pool_slots",
            "crossinvoc_pool_utilization",
            "crossinvoc_pool_queue_wait_ns_count",
            "crossinvoc_region_latency_ns_sum",
            "crossinvoc_flight_dumps_total",
            "crossinvoc_region_tasks_total{region=\"5\",kind=\"domore\"} 1",
            "crossinvoc_region_state{region=\"5\",kind=\"domore\"} 1",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn snapshot_equals_final_metrics_once_finished() {
        let reg = Arc::new(ServerRegistry::new(2));
        let cell = reg.register(1, "domore", 1);
        cell.mark_running();
        cell.metrics().stats().add_task();
        cell.metrics().record_barrier_wait(123);
        cell.complete(0, false, None);
        let final_summary = cell.metrics().snapshot();
        assert_eq!(cell.snapshot().metrics, final_summary);
    }
}
