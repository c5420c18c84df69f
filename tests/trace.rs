//! Integration tests for the structured execution-trace layer: the JSONL
//! schema round-trips, injected faults surface in the trace at their
//! planned coordinates, and the threaded engine and the simulator emit the
//! *same* schema — a trace from either side feeds the same `TraceReport`
//! reconstruction (misspeculation ledger, per-thread barrier-wait
//! breakdown). See `docs/OBSERVABILITY.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crossinvoc::server::{RegionReport, RegionServer};
use crossinvoc_bench::json::{self, Json};
use crossinvoc_domore::prelude::*;
use crossinvoc_runtime::critpath::{critical_path, what_if};
use crossinvoc_runtime::fault::{FaultKind, FaultPlan};
use crossinvoc_runtime::telemetry::{FlightRecorder, ServerRegistry};
use crossinvoc_runtime::trace::{Event, Trace, TraceReport, TraceSink, WakeEdge};
use crossinvoc_runtime::RangeSignature;
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::{SpecCrossEngine, WIDE_TASK_NS};
// `IncGrid` never misspeculates on a clean run — any conflict below is
// injected.
use crossinvoc_workloads::kernel::{profile_distance, AccessKernel};
use crossinvoc_workloads::synthetic::IncGrid;
use crossinvoc_workloads::{registry, Scale};

/// The grid the engine rows run: tasks heavy enough that every pass runs
/// wide, so each gang thread leaves records.
fn grid(units: usize, rounds: usize) -> IncGrid {
    IncGrid::new(units, rounds).with_spin(WIDE_TASK_NS)
}

fn traced_engine(plan: FaultPlan) -> SpecCrossEngine {
    SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .fault_plan(plan)
            .trace(1 << 14),
    )
}

/// An engine trace serializes to JSONL and parses back to an equal trace —
/// the schema is lossless over the wire.
#[test]
fn engine_trace_round_trips_through_jsonl() {
    let w = grid(8, 6);
    let report = traced_engine(FaultPlan::default()).execute(&w).unwrap();
    let trace = report.trace.expect("tracing was configured");
    assert!(!trace.records().is_empty());
    let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("engine JSONL must parse");
    assert_eq!(parsed, trace);
}

/// A seeded `FaultPlan` leaves its firings in the trace at the planned
/// (epoch, task, thread) coordinates: a wide epoch's tasks are assigned
/// round-robin, so task 3 on a gang of three runs — and fires — on thread
/// `3 % 3`.
#[test]
fn injected_faults_appear_at_planned_coordinates() {
    let w = grid(8, 6);
    let report = traced_engine(FaultPlan::default().delay_at(2, 3, 50))
        .execute(&w)
        .unwrap();
    let trace = report.trace.expect("tracing was configured");
    let firing = trace
        .records()
        .iter()
        .find(|r| matches!(r.event, Event::FaultInjected { .. }))
        .expect("the planned delay must be recorded");
    assert_eq!(
        firing.event,
        Event::FaultInjected {
            kind: FaultKind::Delay(50),
            epoch: 2,
            task: 3,
        }
    );
    assert_eq!(firing.tid, 3 % 3, "round-robin assignment places task 3");
}

/// The acceptance scenario: one injected misspeculation, traced through
/// the real engine *and* the simulator. Both traces parse under the same
/// closed schema, and the same `TraceReport` reconstruction yields a
/// one-entry misspeculation ledger and a per-thread barrier-wait breakdown
/// from each.
#[test]
fn engine_and_sim_traces_share_schema_and_reconstruct_the_ledger() {
    // Real engine: force one false-positive conflict at epoch 3.
    let w = grid(8, 6);
    let report = traced_engine(FaultPlan::default().false_positive_at(3))
        .execute(&w)
        .unwrap();
    assert_eq!(report.stats.misspeculations, 1);
    let engine_trace = report.trace.expect("tracing was configured");

    // Simulator: inject one misspeculation into an equivalent clean model.
    let model = UniformWorkload::independent(100, 16, 1_000);
    let params = SpecSimParams::with_threads(2)
        .checkpoint_every(2)
        .inject_misspec_at_task(Some(800))
        .trace(1 << 14);
    let sim = speccross(&model, &params, &CostModel::default());
    assert_eq!(sim.stats.misspeculations, 1);
    let sim_trace = sim.trace.expect("tracing was requested");

    for (label, trace) in [("engine", &engine_trace), ("sim", &sim_trace)] {
        // Same wire schema: one parser accepts both byte streams.
        let parsed = Trace::from_jsonl(&trace.to_jsonl())
            .unwrap_or_else(|e| panic!("{label} trace must parse: {e}"));
        assert_eq!(&parsed, trace, "{label}");
        // Same reconstruction: one misspeculation in the ledger, and a
        // breakdown row with barrier waits for every worker.
        let report = TraceReport::from_trace(trace);
        assert_eq!(report.misspeculations.len(), 1, "{label}");
        let workers: Vec<_> = report.threads.iter().filter(|t| t.tid < 2).collect();
        assert_eq!(workers.len(), 2, "{label}");
        assert!(
            workers.iter().any(|t| t.barrier_waits > 0),
            "{label}: checkpoint rendezvous must show up as barrier waits"
        );
        assert!(workers.iter().all(|t| t.tasks > 0), "{label}");
    }
}

/// The what-if estimator's acceptance bound: replaying a traced barrier
/// run of a Table 5.1 kernel with its barrier edges zeroed predicts the
/// *measured* barrier-vs-SPECCROSS simulator ratio within 10% on at least
/// one kernel. Free synchronization costs isolate exactly the waits the
/// estimator models, an over-long checkpoint interval keeps rendezvous
/// stalls out of the SPECCROSS run, and kernels whose speculative run
/// stalls or misspeculates are skipped — those measure more than barrier
/// removal.
#[test]
fn what_if_barrier_removal_predicts_sim_ratio_within_ten_percent() {
    let cost = CostModel::free();
    let threads = 4;
    let mut checked: Vec<(&str, f64, f64, f64)> = Vec::new();
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Test);
        let epochs = model.num_invocations();
        let params = SpecSimParams::with_threads(threads).checkpoint_every(epochs.max(1) * 2);
        let spec = speccross(model.as_ref(), &params, &cost);
        if spec.stats.misspeculations != 0 || spec.stats.stalls != 0 {
            continue;
        }
        let bar = barrier_traced(model.as_ref(), threads, &cost, Some(1 << 16));
        let trace = bar.trace.expect("tracing was requested");
        if trace.dropped() > 0 {
            continue; // a truncated DAG would bias the replay
        }
        let measured = bar.total_ns as f64 / spec.total_ns.max(1) as f64;
        let predicted = what_if(&trace, &[WakeEdge::Barrier]).predicted_speedup();
        let rel = (measured - predicted).abs() / measured;
        checked.push((info.name, measured, predicted, rel));
    }
    assert!(
        !checked.is_empty(),
        "at least one clean SPECCROSS kernel must be measurable at test scale"
    );
    let best = checked
        .iter()
        .cloned()
        .min_by(|a, b| a.3.total_cmp(&b.3))
        .unwrap();
    assert!(
        best.3 < 0.10,
        "no kernel within 10%: best was {} (measured {:.3}, predicted {:.3}, rel err {:.3}); all: {checked:?}",
        best.0,
        best.1,
        best.2,
        best.3
    );
}

/// Engine- and sim-emitted traces of the same plan both export to valid
/// Chrome `trace_event` JSON — parsed with a real JSON parser, every event
/// carries the required fields, and the flow (`s`/`f`) pairs cover every
/// causality-edge class each side emits — all four on the simulator, which
/// bills the thesis' checker thread; `barrier` on the engine — with
/// matching ids.
#[test]
fn chrome_export_is_schema_valid_with_flows_for_all_edge_classes() {
    // Engine: a forced false positive at epoch 3 exercises its one edge
    // class — the recovery barriers and the checkpoint rendezvous, both
    // plain barriers. With no checker thread there is no queue pickup, no
    // verdict hand-off and no checker drain to wait on.
    let w = grid(8, 6);
    let report = traced_engine(FaultPlan::default().false_positive_at(3))
        .execute(&w)
        .unwrap();
    let engine_trace = report.trace.expect("tracing was configured");

    // Simulator: 17 tasks over 2 threads keep every epoch imbalanced, so
    // barrier and rendezvous waits are nonzero and emit wakes; the injected
    // misspeculation supplies the queue pickup and the checker verdict.
    let model = UniformWorkload::independent(100, 17, 1_000);
    let params = SpecSimParams::with_threads(2)
        .checkpoint_every(2)
        .inject_misspec_at_task(Some(800))
        .trace(1 << 14);
    let sim = speccross(&model, &params, &CostModel::default());
    let sim_trace = sim.trace.expect("tracing was requested");

    let engine_edges: &[&str] = &["barrier"];
    let sim_edges: &[&str] = &["barrier", "queue", "checkpoint", "checker"];
    for (label, trace, edges) in [
        ("engine", &engine_trace, engine_edges),
        ("sim", &sim_trace, sim_edges),
    ] {
        let text = trace.to_chrome_json(None);
        let root = json::parse(&text)
            .unwrap_or_else(|e| panic!("{label}: chrome export must be valid JSON: {e}"));
        assert_eq!(
            root.get("displayTimeUnit").and_then(Json::as_str),
            Some("ns"),
            "{label}"
        );
        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{label}: traceEvents must be an array"));
        assert!(!events.is_empty(), "{label}");

        let mut starts: BTreeMap<u64, String> = BTreeMap::new();
        let mut finishes: BTreeMap<u64, String> = BTreeMap::new();
        for ev in events {
            for key in ["name", "ph", "pid", "tid", "ts"] {
                assert!(
                    ev.get(key).is_some(),
                    "{label}: every event carries \"{key}\""
                );
            }
            let ph = ev
                .get("ph")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{label}: ph must be a string"));
            if ev.get("cat").and_then(Json::as_str) == Some("wake") {
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{label}: flow events carry an edge name"))
                    .to_string();
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{label}: flow events carry a numeric id"))
                    as u64;
                match ph {
                    "s" => assert!(starts.insert(id, name).is_none(), "{label}: dup flow id"),
                    "f" => assert!(finishes.insert(id, name).is_none(), "{label}: dup flow id"),
                    other => panic!("{label}: wake events must be flow s/f, got {other}"),
                }
            }
        }
        assert_eq!(
            starts, finishes,
            "{label}: every flow start has a matching finish"
        );
        let flow_names: BTreeSet<&str> = starts.values().map(String::as_str).collect();
        for edge in edges {
            assert!(
                flow_names.contains(edge),
                "{label}: missing {edge} flows; present: {flow_names:?}"
            );
        }
    }
}

/// Region attribution: a nonzero `region_id` stamps every JSONL line from
/// both the threaded engine and the simulator, the stamped stream
/// round-trips, and region 0 stays wire-invisible — a solo trace is
/// byte-identical to the pre-region schema.
#[test]
fn region_id_stamps_every_line_and_zero_is_wire_invisible() {
    // Threaded engine, region 7.
    let w = grid(8, 6);
    let report = SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .checkpoint_every(2)
            .trace(1 << 14)
            .region(7),
    )
    .execute(&w)
    .unwrap();
    let engine_trace = report.trace.expect("tracing was configured");

    // Simulator, same region id.
    let model = UniformWorkload::independent(20, 16, 1_000);
    let params = SpecSimParams::with_threads(2)
        .checkpoint_every(2)
        .trace(1 << 14)
        .region(7);
    let sim = speccross(&model, &params, &CostModel::default());
    let sim_trace = sim.trace.expect("tracing was requested");

    for (label, trace) in [("engine", &engine_trace), ("sim", &sim_trace)] {
        assert_eq!(trace.region(), 7, "{label}");
        let jsonl = trace.to_jsonl();
        assert!(
            jsonl.lines().all(|l| l.contains("\"region_id\":7")),
            "{label}: every line carries the region id"
        );
        let parsed = Trace::from_jsonl(&jsonl).expect("stamped stream parses");
        assert_eq!(&parsed, trace, "{label}: stamped stream round-trips");
    }

    // Region 0 (the default) never appears on the wire.
    let w0 = grid(8, 6);
    let report0 = traced_engine(FaultPlan::default()).execute(&w0).unwrap();
    let jsonl0 = report0.trace.expect("tracing was configured").to_jsonl();
    assert!(
        !jsonl0.contains("region_id"),
        "solo traces keep the pre-region schema"
    );
}

/// Tasks the trace's `TaskRetire` records account for (each counts `count`).
fn retired_tasks(trace: &Trace) -> u64 {
    trace
        .records()
        .iter()
        .map(|r| match r.event {
            Event::TaskRetire { count, .. } => u64::from(count),
            _ => 0,
        })
        .sum()
}

/// A registry kernel at `scale` with its profiled speculative range.
fn kernel(name: &str, scale: Scale) -> (Arc<AccessKernel<Model>>, Option<u64>) {
    let info = crossinvoc_workloads::registry::by_name(name);
    let distance = profile_distance(info.model(scale).as_ref(), 6).min_distance;
    (
        Arc::new(AccessKernel::from_model(info.model(scale))),
        distance,
    )
}

type Model = Box<dyn SimWorkload + Send + Sync>;

/// The `server_mix` setting: a two-thread telemetry server whose flight
/// recorder arms 512-record rings on every region, serving Test-scale
/// JACOBI and EQUAKE under SPECCROSS and CG and ECLAT under DOMORE, one
/// worker each. One task record per chunk or run keeps each region inside
/// its window — nothing is dropped — and the records account for every task
/// the region ran.
#[test]
fn flight_windows_cover_whole_server_regions() {
    let registry = ServerRegistry::new(2).with_recorder(FlightRecorder::new(512));
    let server = RegionServer::with_telemetry(2, registry);
    for (id, name) in ["JACOBI", "EQUAKE", "CG", "ECLAT"].into_iter().enumerate() {
        let (kernel, distance) = kernel(name, Scale::Test);
        let id = id as u64 + 1;
        let report = if ["JACOBI", "EQUAKE"].contains(&name) {
            let config = SpecConfig::with_workers(1).spec_distance(distance);
            server.submit_spec::<RangeSignature, _>(id, config, kernel)
        } else {
            server.submit_domore(id, DomoreConfig::with_workers(1), kernel)
        }
        .join()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (trace, tasks) = match &report {
            RegionReport::Spec(r) => (r.trace.as_ref(), r.stats.tasks),
            RegionReport::Domore(r) => (r.trace.as_ref(), r.stats.tasks),
        };
        let trace = trace.unwrap_or_else(|| panic!("{name}: the server arms a ring"));
        assert_eq!(trace.dropped(), 0, "{name}: the window holds the region");
        assert_eq!(retired_tasks(trace), tasks, "{name}");
    }
}

/// A Figure-scale SPECCROSS region whose chunks are longer than one task
/// still retires every task exactly once in its records.
#[test]
fn chunked_speccross_records_account_for_every_task() {
    let (kernel, distance) = kernel("JACOBI", Scale::Figure);
    let report = SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .spec_distance(distance)
            .trace(1 << 16),
    )
    .execute(kernel.as_ref())
    .unwrap();
    let trace = report.trace.expect("tracing was configured");
    assert_eq!(trace.dropped(), 0);
    let longest = trace
        .records()
        .iter()
        .filter_map(|r| match r.event {
            Event::TaskRetire { count, .. } => Some(count),
            _ => None,
        })
        .max();
    assert!(longest > Some(1), "chunks of K > 1: {longest:?}");
    assert_eq!(retired_tasks(&trace), report.stats.tasks);
}

/// Stamps of real threaded regions, decoded at merge: every one lies in
/// `[0, elapsed]`, each thread's are non-decreasing, and the trace feeds
/// the critical-path walk and the Chrome export. DOMORE's replicated plan
/// retires every iteration it counts in its records.
#[test]
fn real_region_stamps_decode_within_the_region() {
    let (spec, distance) = kernel("JACOBI", Scale::Test);
    let spec_report = SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .spec_distance(distance)
            .checkpoint_every(4)
            .trace(1 << 14),
    )
    .execute(spec.as_ref())
    .unwrap();
    let (dom, _) = kernel("CG", Scale::Test);
    let dom_report = DomoreRuntime::new(DomoreConfig::with_workers(2).trace(1 << 14))
        .execute(dom.as_ref())
        .unwrap();
    let (dom, _) = kernel("CG", Scale::Test);
    let replicated_report = DomoreRuntime::new(DomoreConfig::with_workers(2).trace(1 << 14))
        .execute_replicated(dom.as_ref())
        .unwrap();
    let replicated_tasks = replicated_report.stats.tasks;
    for (label, trace, elapsed) in [
        ("speccross", spec_report.trace, spec_report.elapsed),
        ("domore", dom_report.trace, dom_report.elapsed),
        (
            "domore-replicated",
            replicated_report.trace,
            replicated_report.elapsed,
        ),
    ] {
        let trace = trace.expect("tracing was configured");
        if label == "domore-replicated" {
            assert_eq!(trace.dropped(), 0, "{label}");
            assert_eq!(retired_tasks(&trace), replicated_tasks, "{label}");
        }
        let elapsed = elapsed.as_nanos() as u64;
        let mut last: BTreeMap<usize, u64> = BTreeMap::new();
        for rec in trace.records() {
            assert!(rec.t_ns <= elapsed, "{label}: {} > {elapsed}", rec.t_ns);
            let prev = last.insert(rec.tid, rec.t_ns).unwrap_or(0);
            assert!(prev <= rec.t_ns, "{label}: tid {} went back", rec.tid);
        }
        assert!(critical_path(&trace).steps > 0, "{label}");
        json::parse(&trace.to_chrome_json(None))
            .unwrap_or_else(|e| panic!("{label}: chrome export must be valid JSON: {e}"));
    }
}

/// Overhead smoke: with tracing off the engine reports no trace, and a
/// disabled sink costs one branch — no ring allocation, no atomics (the
/// sink is a plain-field struct; see the ordering notes in
/// `crossinvoc_runtime::trace`).
#[test]
fn tracing_off_allocates_nothing_and_reports_no_trace() {
    let w = IncGrid::new(8, 4);
    let report = SpecCrossEngine::<RangeSignature>::new(SpecConfig::with_workers(2))
        .execute(&w)
        .unwrap();
    assert!(
        report.trace.is_none(),
        "untraced runs must not carry a trace"
    );

    let mut sink = TraceSink::disabled();
    for i in 0..10_000 {
        sink.emit_at(i, Event::Checkpoint { epoch: 0 });
    }
    assert_eq!(sink.ring_capacity(), 0, "disabled sinks never allocate");
    assert_eq!(sink.len(), 0);
}
