//! Region-server mode: one long-lived worker pool serving many concurrent
//! speculative regions.
//!
//! The classic entry points ([`SpecCrossEngine::execute`],
//! [`DomoreRuntime::execute`]) spawn a fresh scoped gang per region — fine
//! for one region at a time, wasteful and oversubscribing when a program has
//! many independent parallelized loop nests in flight. The [`RegionServer`]
//! owns a single [`WorkerPool`] and admits whole regions through a
//! submission front door:
//!
//! ```text
//!   submit_spec ──┐                       ┌─ worker/checker roles ─┐
//!   submit_domore ─┼─► region manager ───►│  shared WorkerPool     │─► Report
//!   submit_spec ──┘   (one thread each)   └─ FIFO gang admission ──┘
//! ```
//!
//! Each submission spawns one cheap *manager* thread that runs the engine's
//! `execute_on` against the shared pool. All per-region state — checker
//! log, shadow memory, schedule memo, metrics, trace sinks, fault
//! budgets, degradation policy — lives in that manager's call frame, so a
//! panicking, degrading, or misspeculating region cannot poison its
//! neighbours: the pool's job wrapper contains role panics and re-raises
//! them only on the submitting manager, whose [`RegionHandle::join`] turns
//! them into [`RegionError::Panicked`].
//!
//! Fairness comes from the pool's all-or-nothing FIFO ticket admission:
//! gangs are granted in submission order and a wide region cannot be starved
//! by a stream of narrow ones (see [`crossinvoc_runtime::pool`]).
//!
//! Traces are attributed per region: the submitted `region_id` is stamped
//! into the engine config, and every JSONL record of that region's trace
//! carries a `region_id` field (id 0 stays wire-invisible, so solo traces
//! are byte-identical to the pre-region schema).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossinvoc_domore::runtime::{DomoreConfig, DomoreError, DomoreRuntime, ExecutionReport};
use crossinvoc_runtime::pool::WorkerPool;
use crossinvoc_runtime::signature::AccessSignature;
use crossinvoc_runtime::telemetry::{RegionTelemetry, RegistrySnapshot, ServerRegistry};
use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine, SpecError, SpecReport};
use crossinvoc_speccross::workload::SpecWorkload;

use crossinvoc_domore::workload::DomoreWorkload;

/// Outcome of a region served by the [`RegionServer`].
#[derive(Debug, Clone)]
pub enum RegionReport {
    /// The region ran on the SPECCROSS engine.
    Spec(SpecReport),
    /// The region ran on the DOMORE runtime.
    Domore(ExecutionReport),
}

impl RegionReport {
    /// The SPECCROSS report, if this was a SPECCROSS region.
    pub fn spec(&self) -> Option<&SpecReport> {
        match self {
            RegionReport::Spec(r) => Some(r),
            RegionReport::Domore(_) => None,
        }
    }

    /// The DOMORE report, if this was a DOMORE region.
    pub fn domore(&self) -> Option<&ExecutionReport> {
        match self {
            RegionReport::Spec(_) => None,
            RegionReport::Domore(r) => Some(r),
        }
    }
}

/// Failure of a region served by the [`RegionServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// The SPECCROSS engine reported an error.
    Spec(SpecError),
    /// The DOMORE runtime reported an error.
    Domore(DomoreError),
    /// The region's manager thread panicked (an uncontained role panic is
    /// re-raised there by the pool). The payload message is preserved when
    /// it was a string.
    Panicked(String),
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Spec(e) => write!(f, "speccross region failed: {e}"),
            RegionError::Domore(e) => write!(f, "domore region failed: {e}"),
            RegionError::Panicked(msg) => write!(f, "region manager panicked: {msg}"),
        }
    }
}

impl std::error::Error for RegionError {}

/// A joinable in-flight region submission.
#[derive(Debug)]
pub struct RegionHandle {
    region_id: u64,
    thread: thread::JoinHandle<Result<RegionReport, RegionError>>,
}

impl RegionHandle {
    /// The id this region's trace records are attributed to.
    pub fn region_id(&self) -> u64 {
        self.region_id
    }

    /// Blocks until the region completes and returns its report.
    ///
    /// # Errors
    ///
    /// [`RegionError::Spec`]/[`RegionError::Domore`] when the engine failed
    /// the region; [`RegionError::Panicked`] when the manager thread died.
    pub fn join(self) -> Result<RegionReport, RegionError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(RegionError::Panicked(msg))
            }
        }
    }
}

/// A long-lived server executing speculative regions on one shared pool.
///
/// See the [module docs](self) for the architecture; `tests/runtime_stress.rs`
/// exercises the fault-isolation matrix and `bench-suite --regions` gates
/// saturation behaviour in CI (BENCH_8).
#[derive(Debug, Clone)]
pub struct RegionServer {
    pool: Arc<WorkerPool>,
    next_region: Arc<std::sync::atomic::AtomicU64>,
    registry: Option<Arc<ServerRegistry>>,
}

impl RegionServer {
    /// Creates a server backed by a pool of `threads` workers.
    ///
    /// `threads` bounds the *sum of concurrently running gangs*, not the
    /// per-region width: a SPECCROSS region needs
    /// `num_workers + 1` slots (the checker), a DOMORE region `num_workers`
    /// (its scheduler rides the manager thread). A region demanding more
    /// than `threads` slots is rejected with `InvalidConfig` at submission
    /// execution time rather than deadlocking.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: Arc::new(WorkerPool::new(threads)),
            next_region: Arc::new(std::sync::atomic::AtomicU64::new(1)),
            registry: None,
        }
    }

    /// Creates a telemetry-enabled server: every submission is registered in
    /// `registry`, the pool's admission/busy hot paths feed its pool gauges,
    /// and — when the registry carries a
    /// [`crossinvoc_runtime::telemetry::FlightRecorder`] — regions with
    /// tracing off get their trace rings armed at the recorder's capacity so
    /// a post-mortem dump is always available.
    ///
    /// The registry's `pool_slots` should equal `threads`; the utilization
    /// gauge is computed against it.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_telemetry(threads: usize, registry: ServerRegistry) -> Self {
        let registry = Arc::new(registry);
        let pool = Arc::new(WorkerPool::new(threads));
        pool.attach_telemetry(Arc::clone(&registry));
        Self {
            pool,
            next_region: Arc::new(std::sync::atomic::AtomicU64::new(1)),
            registry: Some(registry),
        }
    }

    /// The live telemetry registry, when this server was built with
    /// [`RegionServer::with_telemetry`].
    pub fn registry(&self) -> Option<&Arc<ServerRegistry>> {
        self.registry.as_ref()
    }

    /// The one submission body: registers the region with the telemetry
    /// registry (arming the flight-recorder trace ring when the caller left
    /// tracing off), then spawns the manager thread that runs `run` against
    /// the shared pool.
    fn spawn_region<C: RegionConfig>(
        &self,
        region_id: u64,
        kind: &'static str,
        gang: usize,
        mut config: C,
        run: impl FnOnce(C, &WorkerPool) -> Result<RegionReport, RegionError> + Send + 'static,
    ) -> RegionHandle {
        let mut cell = None;
        if let Some(registry) = &self.registry {
            let registered = registry.register(region_id, kind, gang);
            let ring = registry.flight_recorder().map(|r| r.capacity());
            config = config.armed(ring, Arc::clone(&registered));
            cell = Some(registered);
        }
        let pool = Arc::clone(&self.pool);
        let thread = thread::Builder::new()
            .name(format!("crossinvoc-region-{region_id}"))
            .spawn(move || {
                let result = run(config, &pool);
                // Safety net for errors raised before the engine's own
                // lifecycle calls (e.g. config validation); the first
                // complete/fail wins, so this is a no-op on normal paths.
                if let (Err(_), Some(cell)) = (&result, &cell) {
                    cell.fail(None);
                }
                result
            })
            .expect("spawn region manager thread");
        RegionHandle { region_id, thread }
    }

    /// Spawns a snapshot pump: a background thread that snapshots the
    /// registry every `interval`, hands each [`RegistrySnapshot`] to `sink`
    /// (e.g. a JSONL writer feeding `server-stats --follow`), and emits one
    /// final snapshot when stopped. Returns `None` when the server has no
    /// telemetry registry.
    pub fn spawn_snapshot_pump<F>(&self, interval: Duration, mut sink: F) -> Option<TelemetryPump>
    where
        F: FnMut(RegistrySnapshot) + Send + 'static,
    {
        let registry = Arc::clone(self.registry.as_ref()?);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("crossinvoc-telemetry-pump".to_string())
            .spawn(move || loop {
                if stop_flag.load(Ordering::Acquire) {
                    sink(registry.snapshot());
                    return;
                }
                sink(registry.snapshot());
                thread::park_timeout(interval);
            })
            .expect("spawn telemetry pump thread");
        Some(TelemetryPump {
            stop,
            thread: Some(thread),
        })
    }

    /// The shared pool, for callers that want to run `execute_on` inline on
    /// the current thread instead of through a manager.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Allocates a fresh nonzero region id (process-unique per server).
    pub fn next_region_id(&self) -> u64 {
        self.next_region
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Submits a SPECCROSS region (speculative-barrier mode).
    ///
    /// The engine runs `config.region(region_id)`, so the region's trace is
    /// attributed to `region_id`. Returns immediately; the region executes
    /// concurrently with any other in-flight submissions.
    pub fn submit_spec<S, W>(
        &self,
        region_id: u64,
        config: SpecConfig,
        workload: Arc<W>,
    ) -> RegionHandle
    where
        S: AccessSignature + 'static,
        W: SpecWorkload + Send + Sync + 'static,
    {
        let gang = config.num_workers + 1;
        self.spawn_region(region_id, "speccross", gang, config, move |config, pool| {
            SpecCrossEngine::<S>::new(config.region(region_id))
                .execute_on(&*workload, pool)
                .map(RegionReport::Spec)
                .map_err(RegionError::Spec)
        })
    }

    /// Submits a SPECCROSS region in non-speculative barrier mode.
    pub fn submit_spec_barriers<S, W>(
        &self,
        region_id: u64,
        config: SpecConfig,
        workload: Arc<W>,
    ) -> RegionHandle
    where
        S: AccessSignature + 'static,
        W: SpecWorkload + Send + Sync + 'static,
    {
        let gang = config.num_workers;
        self.spawn_region(
            region_id,
            "speccross-barrier",
            gang,
            config,
            move |config, pool| {
                SpecCrossEngine::<S>::new(config.region(region_id))
                    .execute_with_barriers_on(&*workload, pool)
                    .map(RegionReport::Spec)
                    .map_err(RegionError::Spec)
            },
        )
    }

    /// Submits a DOMORE region. The manager thread doubles as the region's
    /// scheduler; only the workers draw from the shared pool.
    pub fn submit_domore<W>(
        &self,
        region_id: u64,
        config: DomoreConfig,
        workload: Arc<W>,
    ) -> RegionHandle
    where
        W: DomoreWorkload + Send + Sync + 'static,
    {
        let gang = config.num_workers();
        self.spawn_region(region_id, "domore", gang, config, move |config, pool| {
            DomoreRuntime::new(config.region(region_id))
                .execute_on(&*workload, pool)
                .map(RegionReport::Domore)
                .map_err(RegionError::Domore)
        })
    }
}

/// What [`RegionServer`] stamps onto either engine's configuration: the
/// telemetry cell, and flight-recorder trace rings of `ring` records when
/// the caller left tracing off.
trait RegionConfig: Send + 'static {
    fn armed(self, ring: Option<usize>, cell: Arc<RegionTelemetry>) -> Self;
}

impl RegionConfig for SpecConfig {
    fn armed(self, ring: Option<usize>, cell: Arc<RegionTelemetry>) -> Self {
        match ring {
            Some(capacity) => self.trace_default(capacity),
            None => self,
        }
        .telemetry(cell)
    }
}

impl RegionConfig for DomoreConfig {
    fn armed(self, ring: Option<usize>, cell: Arc<RegionTelemetry>) -> Self {
        match ring {
            Some(capacity) => self.trace_default(capacity),
            None => self,
        }
        .telemetry(cell)
    }
}

/// Handle to the background snapshot thread spawned by
/// [`RegionServer::spawn_snapshot_pump`].
///
/// Stopping (or dropping) the pump wakes the thread, emits one final
/// snapshot through the sink, and joins — so the last snapshot a consumer
/// sees always reflects every region's terminal state.
#[derive(Debug)]
pub struct TelemetryPump {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl TelemetryPump {
    /// Stops the pump, flushing one final snapshot, and joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for TelemetryPump {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::RangeSignature;
    use crossinvoc_workloads::synthetic::IncGrid;

    #[test]
    fn concurrent_spec_and_domore_regions_share_one_pool() {
        let server = RegionServer::new(6);
        let spec = Arc::new(IncGrid::new(2, 8));
        let dom = Arc::new(IncGrid::new(4, 5));
        let h1 = server.submit_spec::<RangeSignature, _>(
            1,
            SpecConfig::with_workers(2),
            Arc::clone(&spec),
        );
        let h2 = server.submit_domore(2, DomoreConfig::with_workers(2), Arc::clone(&dom));
        let r1 = h1.join().expect("spec region");
        let r2 = h2.join().expect("domore region");
        assert_eq!(r1.spec().unwrap().stats.misspeculations, 0);
        assert!(r2.domore().is_some());
        assert_eq!(spec.cells(), spec.expected());
        assert_eq!(dom.cells(), dom.expected());
    }

    #[test]
    fn oversized_region_is_rejected_not_deadlocked() {
        let server = RegionServer::new(2);
        let spec = Arc::new(IncGrid::new(2, 2));
        // Demand = 4 workers + the checker = 5 > pool of 2.
        let h = server.submit_spec::<RangeSignature, _>(7, SpecConfig::with_workers(4), spec);
        match h.join() {
            Err(RegionError::Spec(SpecError::InvalidConfig(msg))) => {
                assert!(msg.contains("caps gangs at 2"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_server_snapshots_agree_with_reports() {
        use crossinvoc_runtime::telemetry::{FlightRecorder, RegionState, ServerRegistry};

        let registry = ServerRegistry::new(6).with_recorder(FlightRecorder::new(256));
        let server = RegionServer::with_telemetry(6, registry);
        let spec = Arc::new(IncGrid::new(2, 8));
        let dom = Arc::new(IncGrid::new(4, 5));
        let h1 = server.submit_spec::<RangeSignature, _>(
            1,
            SpecConfig::with_workers(2),
            Arc::clone(&spec),
        );
        let h2 = server.submit_domore(2, DomoreConfig::with_workers(2), dom);
        let r1 = h1.join().expect("spec region");
        let r2 = h2.join().expect("domore region");

        let snap = server.registry().unwrap().snapshot();
        assert!(snap.pool.admissions >= 2, "{}", snap.pool.admissions);
        assert_eq!(snap.pool.in_flight, 0);
        assert_eq!(snap.regions.len(), 2);

        let spec_row = snap.regions.iter().find(|r| r.region_id == 1).unwrap();
        assert_eq!(spec_row.kind, "speccross");
        assert_eq!(spec_row.state, RegionState::Done);
        // Aliased metrics: the snapshot and the report read the same counters.
        assert_eq!(spec_row.metrics, r1.spec().unwrap().metrics);

        let dom_row = snap.regions.iter().find(|r| r.region_id == 2).unwrap();
        assert_eq!(dom_row.kind, "domore");
        assert_eq!(dom_row.state, RegionState::Done);
        assert_eq!(dom_row.metrics, r2.domore().unwrap().metrics);

        // Healthy regions never trip the flight recorder.
        assert_eq!(
            server
                .registry()
                .unwrap()
                .flight_recorder()
                .unwrap()
                .dumps_taken(),
            0
        );
    }

    #[test]
    fn contained_fault_triggers_flight_dump_with_armed_ring() {
        use crossinvoc_runtime::fault::FaultPlan;
        use crossinvoc_runtime::telemetry::{FlightRecorder, ServerRegistry};

        let registry = ServerRegistry::new(4).with_recorder(FlightRecorder::new(128));
        let server = RegionServer::with_telemetry(4, registry);
        let spec = Arc::new(IncGrid::new(2, 4));
        // Tracing is left off here: the server must arm the ring itself from
        // the recorder's capacity so the dump is non-empty.
        let h = server.submit_spec::<RangeSignature, _>(
            9,
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(FaultPlan::new().worker_panic_at(1, 0)),
            spec,
        );
        let report = h.join().expect("contained fault still completes");
        assert!(!report.spec().unwrap().contained_faults.is_empty());

        let registry = server.registry().unwrap();
        let recorder = registry.flight_recorder().unwrap();
        assert_eq!(recorder.dumps_taken(), 1);
        let dumps = recorder.dumps();
        assert_eq!(dumps[0].region_id, 9);
        assert_eq!(dumps[0].trigger.as_str(), "fault");
        assert!(dumps[0].records > 0, "armed ring must capture events");

        let snap = registry.snapshot();
        let row = snap.regions.iter().find(|r| r.region_id == 9).unwrap();
        assert!(row.faults > 0);
        assert_eq!(snap.flight_dumps, 1);
    }

    #[test]
    fn snapshot_pump_flushes_final_state_on_stop() {
        use crossinvoc_runtime::telemetry::ServerRegistry;
        use std::sync::mpsc;

        let server = RegionServer::with_telemetry(4, ServerRegistry::new(4));
        let spec = Arc::new(IncGrid::new(2, 4));
        let (tx, rx) = mpsc::channel();
        let pump = server
            .spawn_snapshot_pump(Duration::from_millis(5), move |snap| {
                let _ = tx.send(snap);
            })
            .expect("telemetry server has a pump");
        let h = server.submit_spec::<RangeSignature, _>(1, SpecConfig::with_workers(2), spec);
        h.join().expect("region");
        pump.stop();
        let last = rx.iter().last().expect("at least one snapshot");
        assert_eq!(last.regions.len(), 1);
        assert_eq!(last.regions[0].state.as_str(), "done");
    }

    #[test]
    fn untelemetered_server_has_no_registry_or_pump() {
        let server = RegionServer::new(2);
        assert!(server.registry().is_none());
        assert!(server
            .spawn_snapshot_pump(Duration::from_millis(5), |_| {})
            .is_none());
    }

    #[test]
    fn region_trace_is_stamped_with_its_id() {
        let server = RegionServer::new(4);
        let spec = Arc::new(IncGrid::new(2, 3));
        let h = server.submit_spec::<RangeSignature, _>(
            42,
            SpecConfig::with_workers(2).trace(256),
            spec,
        );
        let report = h.join().expect("region");
        let trace = report.spec().unwrap().trace.clone().expect("trace");
        assert_eq!(trace.region(), 42);
        assert!(trace.to_jsonl().contains("\"region_id\":42"));
    }
}
