//! The per-layer cost ladder (`--trace 1`), measured from outside.
//!
//! Layer = module name. Timings come from calling a layer's public
//! functions with the *workload's own* access and signature stream
//! (recorded once through a benchmark-side `AccessRecorder`); counts come
//! from `SpecReport` / `ExecutionReport` / `GangStats` / the registry
//! snapshot; waits come from the engines' own `.trace(capacity)` output fed
//! to `runtime::critpath::critical_path`. Every call into a layer is
//! wrapped in a benchmark-side span.
//!
//! A workload's value is the geometric mean over its kernels when every
//! kernel's value is positive, and the arithmetic mean otherwise (counts
//! and differences that may be zero or negative). A metric whose layer is
//! not on the workload's path is not measured and reads 0.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crossinvoc::pir::interp::Memory;
use crossinvoc::pir::pdg::Pdg;
use crossinvoc::pir::transform::{DomorePlan, SpecCrossPlan};
use crossinvoc::server::RegionServer;
use crossinvoc::AutoParallelizer;
use crossinvoc_domore::runtime::ExecutionReport;
use crossinvoc_domore::{DomoreWorkload, SchedulerLogic};
use crossinvoc_runtime::critpath::{critical_path, PathCategory};
use crossinvoc_runtime::pool::{RegionExecutor, Role, ScopedExecutor, WorkerPool};
use crossinvoc_runtime::signature::{AccessKind, AccessSignature};
use crossinvoc_runtime::trace::Trace;
use crossinvoc_runtime::{Queue, RangeSignature, ShadowMemory, SpinBarrier, ThreadId};
use crossinvoc_sim::{CostModel, SimWorkload, SpecSimParams};
use crossinvoc_speccross::workload::{AccessRecorder, NullRecorder, SpecWorkload};
use crossinvoc_speccross::{
    CheckRequest, CheckerState, Position, ShardMap, ShardedChecker, SpecConfig, SpecReport,
};

use crate::auto::{self, Planned};
use crate::inputs::{self, BenchKernel, Case, EngineDef, Technique};
use crate::measure::{self, Measured, Observed};
use crate::regions;
use crate::server::{self, ServerCase};
use crate::spans::Spans;
use crate::{stats, Opts};

/// Metric name → value.
pub type Out = BTreeMap<&'static str, f64>;

/// Per-thread ring capacity of the traced engine regions.
const TRACE_CAPACITY: usize = 1 << 20;

/// Tasks of a kernel's stream the layer replays at most (whole epochs).
const STREAM_TASKS: usize = 20_000;

/// Logical workers of the checker and scheduler replays.
const REPLAY_WORKERS: usize = 4;

/// Shards of the sharded-checker replay.
const REPLAY_SHARDS: usize = 4;

/// Repetitions of each one-factor rerun (the fastest is reported: the first
/// decile of three).
const RERUNS: usize = 3;

/// Collects one value per kernel and folds them into the workload's value.
#[derive(Default)]
struct Agg(BTreeMap<&'static str, Vec<f64>>);

impl Agg {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn finish(self, out: &mut Out) {
        for (name, values) in self.0 {
            let value = if values.iter().all(|&v| v > 0.0) {
                stats::geomean(&values)
            } else {
                stats::mean(&values)
            };
            out.insert(name, value);
        }
    }
}

/// Times `pass` (which performs `calls` calls) until at least five passes
/// and 20 ms have been sampled; returns the first-decile ns per call.
fn ns_per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
    ns_per_call_fresh(calls, || (), |()| pass())
}

/// [`ns_per_call`] for passes that consume an input: `fresh` builds it and
/// whatever `pass` returns is dropped outside the timed window.
fn ns_per_call_fresh<I, O>(
    calls: usize,
    mut fresh: impl FnMut() -> I,
    mut pass: impl FnMut(I) -> O,
) -> f64 {
    assert!(calls > 0, "a pass performs at least one call");
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 5 || (begin.elapsed().as_millis() < 20 && samples.len() < 1000) {
        let input = fresh();
        let start = Instant::now();
        let output = pass(input);
        samples.push(start.elapsed().as_nanos() as f64 / calls as f64);
        drop(output);
    }
    stats::first_decile(&samples)
}

/// First-decile wall-clock of `f` over `n` calls, in nanoseconds.
fn decile_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    stats::first_decile(&samples)
}

// ---------------------------------------------------------------------------
// The workload's own access stream
// ---------------------------------------------------------------------------

/// A prefix of one kernel's access stream: epoch → task → accesses.
pub struct Stream {
    /// Exclusive upper bound on addresses.
    pub space: usize,
    /// The recorded accesses.
    pub epochs: Vec<Vec<Vec<(usize, AccessKind)>>>,
}

impl Stream {
    fn tasks(&self) -> usize {
        self.epochs.iter().map(Vec::len).sum()
    }

    fn accesses(&self) -> usize {
        self.epochs.iter().flatten().map(Vec::len).sum()
    }

    fn flat(&self) -> impl Iterator<Item = (usize, usize, &Vec<(usize, AccessKind)>)> {
        self.epochs
            .iter()
            .enumerate()
            .flat_map(|(e, tasks)| tasks.iter().enumerate().map(move |(t, a)| (e, t, a)))
    }
}

/// The benchmark-side recorder the stream is captured with.
#[derive(Default)]
struct Recorder(Vec<(usize, AccessKind)>);

impl AccessRecorder for Recorder {
    fn record(&mut self, addr: usize, kind: AccessKind) {
        self.0.push((addr, kind));
    }
}

/// Records the first [`STREAM_TASKS`] tasks (whole epochs, at least one) of
/// `kernel` by executing them sequentially.
fn record_stream<K: BenchKernel>(kernel: &K) -> Stream {
    kernel.access().reset();
    let mut epochs = Vec::new();
    let mut tasks = 0;
    for epoch in 0..kernel.num_epochs() {
        if tasks >= STREAM_TASKS {
            break;
        }
        let mut row = Vec::with_capacity(kernel.num_tasks(epoch));
        for task in 0..kernel.num_tasks(epoch) {
            let mut rec = Recorder::default();
            kernel.execute_task(epoch, task, 0, &mut rec);
            row.push(rec.0);
        }
        tasks += row.len();
        epochs.push(row);
    }
    kernel.access().reset();
    Stream {
        space: DomoreWorkload::address_space(kernel).expect("benchmark kernels are dense"),
        epochs,
    }
}

/// Per-kernel costs the derived rows (`*.runtime_ns_per_task`,
/// `*.unattributed_ns_per_task`, `domore.sched_share`) are computed from.
#[derive(Default, Clone, Copy)]
struct Costs {
    task_ns: f64,
    touched_ns: f64,
    record_ns: f64,
    accesses_per_task: f64,
    batch_ns_per_msg: f64,
    admit_ns: f64,
    schedule_ns: f64,
}

/// `kernel.*`: the task body, the `computeAddr` oracle, snapshot/restore.
fn kernel_layers<K: BenchKernel>(
    kernel: &K,
    stream: &Stream,
    agg: &mut Agg,
    costs: &mut Costs,
    spans: &mut Spans,
) {
    spans.scope("kernel.execute_task", 0, |_| {
        kernel.access().reset();
        costs.task_ns = ns_per_call(stream.tasks(), || {
            for (e, t, _) in stream.flat() {
                kernel.execute_task(e, t, 0, &mut NullRecorder);
            }
        });
        kernel.access().reset();
    });
    agg.push("kernel.task_ns", costs.task_ns);
    spans.scope("kernel.touched", 0, |_| {
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        costs.touched_ns = ns_per_call(stream.tasks(), || {
            for (e, t, _) in stream.flat() {
                writes.clear();
                reads.clear();
                kernel.touched(e, t, &mut writes, &mut reads);
                std::hint::black_box((&writes, &reads));
            }
        });
    });
    agg.push("kernel.touched_ns", costs.touched_ns);
    spans.scope("kernel.snapshot_restore", 0, |_| {
        let kib = (DomoreWorkload::address_space(kernel).expect("dense") * 8) as f64 / 1024.0;
        let mut state = kernel.snapshot();
        agg.push(
            "kernel.snapshot_ns_per_kib",
            ns_per_call(1, || state = std::hint::black_box(kernel.snapshot())) / kib,
        );
        agg.push(
            "kernel.restore_ns_per_kib",
            ns_per_call(1, || kernel.restore(&state)) / kib,
        );
        kernel.access().reset();
    });
}

/// Builds the checker requests of a replay of `stream` as
/// [`REPLAY_WORKERS`] logical workers running round-robin. Worker `w` runs
/// `w × lag` tasks behind worker 0 (lag = a quarter of a worker's share of
/// an epoch), so neighbouring epochs overlap and the checker has cross-epoch
/// pairs to compare, as it does under real skew.
fn replay_requests(stream: &Stream, sigs: &[RangeSignature]) -> Vec<CheckRequest<RangeSignature>> {
    let w = REPLAY_WORKERS;
    let mut lists: Vec<Vec<(Position, usize)>> = vec![Vec::new(); w];
    let mut index = 0;
    for (e, tasks) in stream.epochs.iter().enumerate() {
        let mut started = [0u32; REPLAY_WORKERS];
        for t in 0..tasks.len() {
            let tid = t % w;
            started[tid] += 1;
            lists[tid].push((
                Position {
                    epoch: e as u32,
                    task: started[tid],
                },
                index,
            ));
            index += 1;
        }
    }
    let lag = (stream.epochs[0].len() / w / 4).max(1);
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut board = [Position::ZERO; REPLAY_WORKERS];
    let mut requests = Vec::with_capacity(sigs.len());
    for step in 0..longest + lag * w {
        for tid in 0..w {
            let Some(&(pos, sig)) = step.checked_sub(tid * lag).and_then(|i| lists[tid].get(i))
            else {
                continue;
            };
            board[tid] = pos;
            requests.push(CheckRequest {
                tid,
                pos,
                snapshot: Box::from(board),
                sig: sigs[sig].clone(),
            });
        }
    }
    requests
}

/// `signature.*`, `spsc.batch_ns_per_msg`, `check.*`, `shard.*`,
/// `shadow.*`, `logic.*` on one kernel's stream.
fn stream_layers(stream: &Stream, agg: &mut Agg, costs: &mut Costs, spans: &mut Spans) {
    let tasks = stream.tasks();
    costs.accesses_per_task = stream.accesses() as f64 / tasks as f64;
    let mut sigs: Vec<RangeSignature> = Vec::with_capacity(tasks);
    spans.scope("signature.record", 0, |_| {
        costs.record_ns = ns_per_call(stream.accesses().max(1), || {
            sigs.clear();
            for (_, _, accesses) in stream.flat() {
                let mut sig = RangeSignature::empty();
                for &(addr, kind) in accesses {
                    sig.record(addr, kind);
                }
                sigs.push(sig);
            }
        });
    });
    agg.push("signature.record_ns", costs.record_ns);
    spans.scope("signature.conflicts_with", 0, |_| {
        let conflict_ns = ns_per_call(tasks.max(2) - 1, || {
            for pair in sigs.windows(2) {
                std::hint::black_box(pair[0].conflicts_with(&pair[1]));
            }
        });
        agg.push("signature.conflict_ns", conflict_ns);
    });

    spans.scope("spsc.batch", 0, |_| {
        costs.batch_ns_per_msg = spsc_batch_ns_per_msg(&sigs);
    });
    agg.push("spsc.batch_ns_per_msg", costs.batch_ns_per_msg);

    let requests = replay_requests(stream, &sigs);
    spans.scope("check.admit", 0, |_| {
        let (mut comparisons, mut skips) = (0, 0);
        costs.admit_ns = ns_per_call_fresh(
            requests.len(),
            || requests.clone(),
            |replay| {
                let mut checker =
                    CheckerState::<RangeSignature>::with_aggregates(REPLAY_WORKERS, true);
                for req in replay {
                    std::hint::black_box(checker.admit(req));
                }
                comparisons = checker.comparisons();
                skips = checker.epoch_skips();
                checker
            },
        );
        agg.push(
            "check.comparisons_per_admit",
            comparisons as f64 / requests.len() as f64,
        );
        agg.push(
            "check.epoch_skips_per_admit",
            skips as f64 / requests.len() as f64,
        );
    });
    agg.push("check.admit_ns", costs.admit_ns);
    spans.scope("shard.admit", 0, |_| {
        let shard_ns = ns_per_call_fresh(
            requests.len(),
            || requests.clone(),
            |replay| {
                let mut checker = ShardedChecker::<RangeSignature>::with_aggregates(
                    REPLAY_WORKERS,
                    REPLAY_SHARDS,
                    true,
                );
                for req in replay {
                    std::hint::black_box(checker.admit(req));
                }
                checker
            },
        );
        agg.push("shard.admit_ns", shard_ns);
        let map = ShardMap::new(REPLAY_SHARDS);
        let straddlers = sigs
            .iter()
            .filter(|s| map.shards_for_span(s.addr_span()).len() > 1)
            .count();
        agg.push(
            "shard.straddle_share",
            straddlers as f64 / sigs.len() as f64,
        );
    });

    spans.scope("shadow.update", 0, |_| {
        let mut shadow = ShadowMemory::dense(stream.space);
        let update_ns = ns_per_call(stream.accesses().max(1), || {
            for (iter, (_, t, accesses)) in stream.flat().enumerate() {
                for &(addr, _) in accesses {
                    std::hint::black_box(shadow.update(addr, t % REPLAY_WORKERS, iter as u64));
                }
            }
        });
        agg.push("shadow.update_ns", update_ns);
    });
    spans.scope("logic.schedule_rw", 0, |_| {
        let split: Vec<(ThreadId, Vec<usize>, Vec<usize>)> = stream
            .flat()
            .map(|(_, t, accesses)| {
                let pick = |kind| {
                    accesses
                        .iter()
                        .filter(move |a| a.1 == kind)
                        .map(|a| a.0)
                        .collect()
                };
                (
                    t % REPLAY_WORKERS,
                    pick(AccessKind::Write),
                    pick(AccessKind::Read),
                )
            })
            .collect();
        let mut conditions = Vec::new();
        let mut total_conditions = 0usize;
        costs.schedule_ns = ns_per_call(tasks, || {
            let mut logic = SchedulerLogic::with_dense_shadow(stream.space);
            total_conditions = 0;
            for (tid, writes, reads) in &split {
                conditions.clear();
                std::hint::black_box(logic.schedule_rw(*tid, writes, reads, &mut conditions));
                total_conditions += conditions.len();
            }
        });
        agg.push(
            "logic.sync_conditions_per_iter",
            total_conditions as f64 / tasks as f64,
        );
    });
    agg.push("logic.schedule_ns", costs.schedule_ns);
}

/// Two threads, the engine's batch shape: the producer publishes the
/// signatures 16 at a time, the consumer drains up to 64 per pickup.
fn spsc_batch_ns_per_msg(sigs: &[RangeSignature]) -> f64 {
    const MESSAGES: usize = 400_000;
    let passes = MESSAGES.div_ceil(sigs.len().max(1));
    let total = passes * sigs.len();
    let (tx, rx) = Queue::<RangeSignature>::with_capacity(1024);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut batch = Vec::with_capacity(16);
            for _ in 0..passes {
                for chunk in sigs.chunks(16) {
                    batch.extend_from_slice(chunk);
                    tx.produce_batch(&mut batch);
                }
            }
        });
        let mut received = 0;
        let mut out = Vec::with_capacity(64);
        while received < total {
            let n = rx.consume_batch(&mut out, 64);
            if n == 0 {
                std::hint::spin_loop();
            }
            received += n;
            out.clear();
        }
    });
    start.elapsed().as_nanos() as f64 / total as f64
}

// ---------------------------------------------------------------------------
// Layers that do not depend on the workload's stream
// ---------------------------------------------------------------------------

/// A region with no epochs: what is left is the server's fixed cost.
struct EmptyRegion;

impl SpecWorkload for EmptyRegion {
    type State = ();
    fn num_epochs(&self) -> usize {
        0
    }
    fn num_tasks(&self, _epoch: usize) -> usize {
        0
    }
    fn execute_task(&self, _: usize, _: usize, _: ThreadId, _: &mut dyn AccessRecorder) {}
    fn snapshot(&self) {}
    fn restore(&self, _: &()) {}
}

fn empty_roles<'s>(n: usize) -> Vec<Role<'s>> {
    (0..n).map(|_| Box::new(|| {}) as Role<'s>).collect()
}

/// `spsc.roundtrip_ns`, `barrier.wait_ns`, `pool.*`, `server.submit_join_us`
/// (and `server.regions_per_s` as the empty-region rate, which `server_mix`
/// overwrites with its own throughput).
fn generic_layers(threads: usize, smoke: bool, out: &mut Out, spans: &mut Spans) {
    let scale = if smoke { 20 } else { 1 };
    spans.scope("spsc.roundtrip", 0, |_| {
        let trips = 100_000 / scale;
        let (ping_tx, ping_rx) = Queue::<u64>::with_capacity(64);
        let (pong_tx, pong_rx) = Queue::<u64>::with_capacity(64);
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for _ in 0..trips {
                    pong_tx.produce(ping_rx.consume());
                }
            });
            for i in 0..trips as u64 {
                ping_tx.produce(i);
                std::hint::black_box(pong_rx.consume());
            }
        });
        out.insert(
            "spsc.roundtrip_ns",
            start.elapsed().as_nanos() as f64 / trips as f64,
        );
    });
    spans.scope("barrier.wait", 0, |_| {
        let waits = 100_000 / scale;
        let barrier = SpinBarrier::new(threads);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let barrier = &barrier;
                scope.spawn(move || {
                    for _ in 0..waits {
                        barrier.wait(tid);
                    }
                });
            }
        });
        out.insert(
            "barrier.wait_ns",
            start.elapsed().as_nanos() as f64 / waits as f64,
        );
    });
    spans.scope("pool.run_gang", 0, |_| {
        let pool = WorkerPool::new(threads);
        let mut waits_us = Vec::new();
        let admit = decile_ns(2_000 / scale, || {
            let gang = pool.run_gang(empty_roles(threads), Box::new(|| {}));
            waits_us.push(gang.queue_wait_ns as f64 / 1e3);
        });
        out.insert("pool.gang_admit_us", admit / 1e3);
        out.insert(
            "pool.queue_wait_us_p50",
            stats::percentile(&waits_us, 0.50).0,
        );
        out.insert(
            "pool.queue_wait_us_p90",
            stats::percentile(&waits_us, 0.90).0,
        );
    });
    spans.scope("pool.scoped_gang", 0, |_| {
        let scoped = decile_ns(500 / scale, || {
            ScopedExecutor.run_gang(empty_roles(threads), Box::new(|| {}));
        });
        out.insert("pool.scoped_gang_us", scoped / 1e3);
    });
    spans.scope("server.submit_join", 0, |_| {
        let server = RegionServer::new(threads);
        let region = std::sync::Arc::new(EmptyRegion);
        let submit_join = decile_ns(500 / scale, || {
            let id = server.next_region_id();
            let handle = server.submit_spec::<RangeSignature, _>(
                id,
                SpecConfig::with_workers(threads - 1),
                std::sync::Arc::clone(&region),
            );
            handle.join().expect("an empty region cannot fail");
        });
        out.insert("server.submit_join_us", submit_join / 1e3);
        out.insert("server.regions_per_s", 1e9 / submit_join);
    });
}

// ---------------------------------------------------------------------------
// Counts from reports and traces
// ---------------------------------------------------------------------------

fn spec_report_layers(tasks: u64, report: &SpecReport, agg: &mut Agg) {
    let t = tasks as f64;
    agg.push(
        "engine.check_requests_per_task",
        report.stats.check_requests as f64 / t,
    );
    agg.push("engine.checkpoints", report.stats.checkpoints as f64);
    agg.push(
        "engine.misspeculations",
        report.stats.misspeculations as f64,
    );
    agg.push(
        "engine.reexecuted_task_share",
        report.stats.tasks.saturating_sub(tasks) as f64 / t,
    );
    agg.push(
        "engine.barrier_wait_ns_per_task",
        report.metrics.barrier_wait.sum_ns as f64 / t,
    );
}

fn domore_report_layers(tasks: u64, report: &ExecutionReport, agg: &mut Agg) {
    let t = tasks as f64;
    agg.push("domore.stalls_per_iter", report.stats.stalls as f64 / t);
    agg.push(
        "domore.stall_wait_ns_per_iter",
        report.metrics.stall_wait.sum_ns as f64 / t,
    );
}

const CRITPATH: [(&str, PathCategory); 6] = [
    ("critpath.compute_share", PathCategory::Compute),
    ("critpath.barrier_wait_share", PathCategory::BarrierWait),
    ("critpath.spsc_stall_share", PathCategory::SpscStall),
    (
        "critpath.checker_latency_share",
        PathCategory::CheckerLatency,
    ),
    ("critpath.misspec_redo_share", PathCategory::MisspecRedo),
    ("critpath.overhead_share", PathCategory::Overhead),
];

fn trace_layers(tasks: u64, trace: &Trace, agg: &mut Agg, spans: &mut Spans) {
    let emitted = trace.records().len() as u64 + trace.dropped();
    agg.push("trace.events_per_task", emitted as f64 / tasks as f64);
    agg.push(
        "trace.dropped_share",
        trace.dropped() as f64 / emitted.max(1) as f64,
    );
    let report = spans.scope("critpath.critical_path", trace.region(), |_| {
        critical_path(trace)
    });
    let total = report.attribution.total().max(1) as f64;
    for (name, category) in CRITPATH {
        agg.push(name, report.attribution.get(category) as f64 / total);
    }
}

// ---------------------------------------------------------------------------
// Engine workloads
// ---------------------------------------------------------------------------

/// First-decile wall-clock (ns) and last report of `RERUNS` regions of `case`
/// under SPECCROSS with `config`; `None` if a rerun fails its gate.
fn rerun_spec<K: BenchKernel>(
    case: &Case<K>,
    config: &SpecConfig,
    misspecs: u64,
    measured: &mut Measured,
    spans: &mut Spans,
) -> Option<(f64, SpecReport)> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..RERUNS {
        let outcome = spans.scope("speccross.execute", 0, |_| {
            regions::run_spec(case, config.clone(), misspecs)
        });
        measured.attempted += 1;
        walls.push(outcome.wall_ns as f64);
        match outcome.result {
            Ok(regions::Report::Spec(r)) => last = Some(r),
            Ok(regions::Report::Domore(_)) => unreachable!("run_spec returns SPECCROSS reports"),
            Err(why) => {
                measured.fail(case.name, 0, &format!("one-factor rerun: {why}"));
                return None;
            }
        }
    }
    last.map(|r| (stats::first_decile(&walls), r))
}

/// A model whose modelled task cost is the measured reference cost, so the
/// simulator predicts overheads at the task size the threads really ran.
struct Calibrated<'a, W: ?Sized> {
    inner: &'a W,
    task_ns: u64,
}

impl<W: SimWorkload + ?Sized> SimWorkload for Calibrated<'_, W> {
    fn num_invocations(&self) -> usize {
        self.inner.num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.inner.num_iterations(inv)
    }
    fn iteration_cost(&self, _inv: usize, _iter: usize) -> u64 {
        self.task_ns
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        self.inner.accesses(inv, iter, out);
    }
    fn address_space(&self) -> Option<usize> {
        self.inner.address_space()
    }
}

/// The traced run of an engine workload.
pub fn engine<K: BenchKernel>(
    def: &EngineDef,
    cases: &[Case<K>],
    opts: &Opts,
    spans: &mut Spans,
) -> (Measured, Out) {
    let mut out = Out::new();
    let mut agg = Agg::default();
    let threads = opts.threads;

    // Interleaved untraced / traced rounds: counts, traces, trace overhead.
    let (mut measured, observed): (Measured, Observed) = measure::run_rounds(
        def,
        cases,
        opts,
        0.4 * opts.seconds,
        Some(TRACE_CAPACITY),
        spans,
    );

    for (k, case) in cases.iter().enumerate() {
        let row = measured.rows[k].clone();
        let stream = record_stream(&case.kernel);
        let mut costs = Costs::default();
        kernel_layers(&case.kernel, &stream, &mut agg, &mut costs, spans);
        stream_layers(&stream, &mut agg, &mut costs, spans);
        if case.technique == Technique::Spec {
            agg.push(
                "profile.distance_ns_per_task",
                case.profile_ns as f64 / case.tasks as f64,
            );
        }

        if let Some(traced) = observed.traced_ns_per_task[k] {
            agg.push("trace.overhead_x", traced / row.ns_per_task);
        }
        if let Some(trace) = &observed.trace[k] {
            trace_layers(case.tasks, trace, &mut agg, spans);
        }

        let model = case.kernel.access().model();
        let calibrated = Calibrated {
            inner: model,
            task_ns: (row.ref_ns_per_task.round() as u64).max(1),
        };
        let cost_model = CostModel::default();
        match case.technique {
            Technique::Spec => {
                if let Some(report) = &observed.spec[k] {
                    spec_report_layers(case.tasks, report, &mut agg);
                    let requests = report.stats.check_requests as f64 / case.tasks as f64;
                    let runtime = row.ns_per_task - costs.task_ns;
                    agg.push("engine.runtime_ns_per_task", runtime);
                    agg.push(
                        "engine.unattributed_ns_per_task",
                        runtime
                            - costs.record_ns * costs.accesses_per_task
                            - (costs.batch_ns_per_msg + costs.admit_ns) * requests,
                    );
                }
                // The paper's baseline on the same kernel: T workers, real
                // barriers. Only the SPECCROSS kernels have DOALL inner
                // loops; a LOCALWRITE or Spec-DOALL invocation run as a
                // barrier-separated DOALL would race.
                let barrier_ns = decile_ns(RERUNS, || {
                    let outcome = spans.scope("speccross.execute_with_barriers", 0, |_| {
                        regions::run_barrier(case, threads)
                    });
                    measured.attempted += 1;
                    if let Err(why) = outcome.result {
                        measured.fail(case.name, 0, &format!("barrier baseline: {why}"));
                    }
                });
                agg.push("barrier.ns_per_task", barrier_ns / case.tasks as f64);
                agg.push(
                    "barrier.speedup_vs_seq",
                    row.ref_ns_per_task * case.tasks as f64 / barrier_ns,
                );

                // One factor at a time, no injected faults unless stated:
                // checkpoint interval 50 vs 1000, then injected
                // misspeculations (8 at Figure scale) vs none.
                let base = SpecConfig::with_workers(threads - 1).spec_distance(case.distance);
                let inject = inputs::injection_epochs(case.kernel.num_epochs(), 8, 50);
                let sparse = rerun_spec(
                    case,
                    &base.clone().checkpoint_every(1000),
                    0,
                    &mut measured,
                    spans,
                );
                let dense = rerun_spec(
                    case,
                    &base.clone().checkpoint_every(50),
                    0,
                    &mut measured,
                    spans,
                );
                if let (Some((sparse_ns, sparse)), Some((dense_ns, dense))) = (&sparse, &dense) {
                    let extra = dense
                        .stats
                        .checkpoints
                        .saturating_sub(sparse.stats.checkpoints);
                    if extra > 0 {
                        agg.push(
                            "engine.checkpoint_us",
                            (dense_ns - sparse_ns) / extra as f64 / 1e3,
                        );
                    }
                }
                if !inject.is_empty() {
                    let faulty = rerun_spec(
                        case,
                        &base
                            .checkpoint_every(50)
                            .fault_plan(regions::false_positives(&inject)),
                        inject.len() as u64,
                        &mut measured,
                        spans,
                    );
                    if let (Some((dense_ns, _)), Some((faulty_ns, _))) = (&dense, &faulty) {
                        agg.push(
                            "engine.recovery_ms_per_misspec",
                            (faulty_ns - dense_ns) / inject.len() as f64 / 1e6,
                        );
                    }
                }

                let mut params = SpecSimParams::with_threads(threads - 1)
                    .spec_distance(case.distance)
                    .checkpoint_every(def.checkpoint_every);
                if !case.fault_epochs.is_empty() {
                    params = params.fault_plan(regions::false_positives(&case.fault_epochs));
                }
                let sim = spans.scope("sim.speccross", 0, |_| {
                    crossinvoc_sim::speccross(&calibrated, &params, &cost_model)
                });
                agg.push(
                    "sim.real_over_sim_x",
                    row.ns_per_task * case.tasks as f64 / sim.total_ns as f64,
                );
            }
            Technique::Domore => {
                if let Some(report) = &observed.domore[k] {
                    domore_report_layers(case.tasks, report, &mut agg);
                }
                let runtime = row.ns_per_task - costs.task_ns;
                agg.push("domore.runtime_ns_per_task", runtime);
                agg.push(
                    "domore.unattributed_ns_per_task",
                    runtime - costs.touched_ns - costs.schedule_ns - costs.batch_ns_per_msg,
                );
                agg.push(
                    "domore.sched_share",
                    (costs.schedule_ns + costs.touched_ns) / row.ns_per_task,
                );

                let mut hits = 0;
                let memo_ns = decile_ns(RERUNS, || {
                    let outcome = spans.scope("domore.execute_memo", 0, |_| {
                        regions::run_domore(
                            case,
                            regions::domore_runtime(case, threads, true, None),
                        )
                    });
                    measured.attempted += 1;
                    match outcome.result {
                        Ok(regions::Report::Domore(r)) => hits = r.stats.schedule_cache_hits,
                        Ok(regions::Report::Spec(_)) => {
                            unreachable!("run_domore returns DOMORE reports")
                        }
                        Err(why) => measured.fail(case.name, 0, &format!("memo rerun: {why}")),
                    }
                });
                agg.push("memo.ns_per_task", memo_ns / case.tasks as f64);
                agg.push(
                    "memo.hit_share",
                    hits as f64 / case.kernel.num_invocations() as f64,
                );

                let mut policy = case.dispatch.policy();
                let sim = spans.scope("sim.domore", 0, |_| {
                    crossinvoc_sim::domore(&calibrated, threads - 1, policy.as_mut(), &cost_model)
                });
                agg.push(
                    "sim.real_over_sim_x",
                    row.ns_per_task * case.tasks as f64 / sim.total_ns as f64,
                );
            }
        }
    }
    agg.finish(&mut out);
    generic_layers(threads, opts.smoke, &mut out, spans);
    (measured, out)
}

// ---------------------------------------------------------------------------
// server_mix
// ---------------------------------------------------------------------------

/// The traced run of `server_mix`.
pub fn server(
    clients: &[Vec<ServerCase>],
    opts: &Opts,
    spans: &mut Spans,
    out: &mut Out,
) -> Measured {
    let mut agg = Agg::default();
    generic_layers(opts.threads, opts.smoke, out, spans);

    // A: telemetry on, spans and reports kept (the traced run proper).
    // B: telemetry on, nothing kept.  C: no telemetry plane at all.
    let share = 0.25 * opts.seconds;
    let (mut measured, observed) = server::serve(clients, opts, share, true, true, spans);
    let (plain, _) = server::serve(clients, opts, share, true, false, &mut Spans::disabled());
    let (bare, _) = server::serve(clients, opts, share, false, false, &mut Spans::disabled());
    measured.attempted += plain.attempted + bare.attempted;
    measured.failed += plain.failed + bare.failed;
    let ns =
        |m: &Measured| stats::geomean(&m.rows.iter().map(|r| r.ns_per_task).collect::<Vec<_>>());
    out.insert("trace.overhead_x", ns(&measured) / ns(&plain));
    out.insert("telemetry.overhead_x", ns(&plain) / ns(&bare));
    out.insert("server.regions_per_s", observed.regions_per_s);
    out.insert(
        "telemetry.snapshot_us",
        stats::first_decile(&observed.snapshot_us),
    );
    if let Some(snapshot) = &observed.last_snapshot {
        let waits_us: Vec<f64> = snapshot
            .regions
            .iter()
            .map(|r| r.queue_wait_ns as f64 / 1e3)
            .collect();
        out.insert(
            "pool.queue_wait_us_p50",
            stats::percentile(&waits_us, 0.50).0,
        );
        out.insert(
            "pool.queue_wait_us_p90",
            stats::percentile(&waits_us, 0.90).0,
        );
    }

    let mut traced = 0;
    for (tasks, report) in &observed.reports {
        let trace = match report {
            crossinvoc::RegionReport::Spec(r) => {
                spec_report_layers(*tasks, r, &mut agg);
                &r.trace
            }
            crossinvoc::RegionReport::Domore(r) => {
                domore_report_layers(*tasks, r, &mut agg);
                &r.trace
            }
        };
        // The critical-path analysis of every region would dwarf the run;
        // a few dozen flight-recorder traces are a fair sample.
        if let (Some(trace), true) = (trace, traced < 64) {
            trace_layers(*tasks, trace, &mut agg, spans);
            traced += 1;
        }
    }
    for case in &clients[0] {
        let stream = record_stream(&*case.kernel);
        let mut costs = Costs::default();
        kernel_layers(&*case.kernel, &stream, &mut agg, &mut costs, spans);
        stream_layers(&stream, &mut agg, &mut costs, spans);
    }
    agg.finish(out);
    measured
}

// ---------------------------------------------------------------------------
// auto_pir
// ---------------------------------------------------------------------------

/// The traced run of `auto_pir`.
pub fn auto(planned: &[Planned<'_>], opts: &Opts, spans: &mut Spans, out: &mut Out) -> Measured {
    let mut agg = Agg::default();
    generic_layers(opts.threads, opts.smoke, out, spans);

    // `Decision::execute` exposes no engine tracing, so the traced run adds
    // only the benchmark's own spans; their overhead is measured the same
    // way as the engines': same loop, spans on ÷ spans off.
    let (mut measured, matched) = auto::run_rounds(planned, opts, 0.3 * opts.seconds, spans);
    let (plain, _) = auto::run_rounds(planned, opts, 0.3 * opts.seconds, &mut Spans::disabled());
    measured.attempted += plain.attempted;
    measured.failed += plain.failed;
    out.insert("driver.strategy_match_share", matched);
    for (row, plain_row) in measured.rows.iter().zip(&plain.rows) {
        agg.push("interp.seq_ns_per_task", row.ref_ns_per_task);
        agg.push("trace.overhead_x", row.ns_per_task / plain_row.ns_per_task);
    }

    let workers = opts.threads - 1;
    static SINK: AtomicU64 = AtomicU64::new(0);
    for p in planned {
        let (program, outer) = (&p.nest.program, p.nest.outer);
        let plan_ns = spans.scope("driver.plan", 0, |_| {
            decile_ns(5, || {
                let decision = AutoParallelizer::new(workers).plan(program, outer);
                SINK.fetch_add(decision.is_ok() as u64, Ordering::Relaxed);
            })
        });
        agg.push("driver.plan_ms", plan_ns / 1e6);
        let pdg_ns = spans.scope("pdg.build", 0, |_| {
            decile_ns(5, || {
                SINK.fetch_add(
                    Pdg::build(program, outer).edges().len() as u64,
                    Ordering::Relaxed,
                );
            })
        });
        agg.push("pdg.build_ms", pdg_ns / 1e6);

        if let Ok(plan) = SpecCrossPlan::build(program, outer) {
            let build_ns = spans.scope("transform.spec_build", 0, |_| {
                decile_ns(5, || {
                    SINK.fetch_add(
                        SpecCrossPlan::build(program, outer).is_ok() as u64,
                        Ordering::Relaxed,
                    );
                })
            });
            agg.push("transform.spec_build_ms", build_ns / 1e6);
            let profile_ns = spans.scope("transform.profile", 0, |_| {
                decile_ns(3, || {
                    let report = plan.profile(&mut Memory::zeroed(program), 4);
                    SINK.fetch_add(report.min_distance.unwrap_or(0), Ordering::Relaxed);
                })
            });
            agg.push("transform.profile_ms", profile_ns / 1e6);
            let elision = plan.elision();
            agg.push(
                "elide.proven_share",
                elision.proven_accesses() as f64 / elision.total_accesses().max(1) as f64,
            );
            // The nest's own access stream, for the layers below the driver.
            let mut epochs = plan.record_region(&mut Memory::zeroed(program));
            let mut kept = 0;
            epochs.retain(|tasks| {
                let keep = kept < STREAM_TASKS;
                kept += tasks.len();
                keep
            });
            let stream = Stream {
                space: program.memory_len(),
                epochs,
            };
            stream_layers(&stream, &mut agg, &mut Costs::default(), spans);
        }
        if let Some(inner) = p.nest.inner {
            let build_ns = spans.scope("transform.domore_build", 0, |_| {
                decile_ns(5, || {
                    SINK.fetch_add(
                        DomorePlan::build(program, outer, inner).is_ok() as u64,
                        Ordering::Relaxed,
                    );
                })
            });
            agg.push("transform.domore_build_ms", build_ns / 1e6);
        }
    }
    agg.finish(out);
    measured
}
