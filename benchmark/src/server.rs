//! `server_mix`: small regions through `RegionServer`, closed loop.
//!
//! `max(T/2, 1)` client threads each do submit → join → next over Test-scale
//! regions (~450 tasks) alternating SPECCROSS (JACOBI, EQUAKE) and DOMORE
//! (CG, ECLAT), against a telemetry-enabled server (registry + flight
//! recorder). At this size manager-thread spawn, gang admission, queue wait
//! and telemetry dominate — costs a 100k-task region hides completely.
//! Clients park in `join`, so runnable threads stay at `T` (see
//! [`num_clients`]).
//!
//! The registry keeps a cell per region for the server's lifetime, so a
//! server that lived for the whole run would make `peak_rss_mib` grow with
//! throughput. Regions therefore run in *generations*: a fresh server every
//! [`GENERATION`] regions, which pins peak memory to one generation's worth
//! regardless of how many regions the time budget admits.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crossinvoc::server::{RegionReport, RegionServer};
use crossinvoc_domore::runtime::DomoreConfig;
use crossinvoc_runtime::telemetry::{FlightRecorder, RegistrySnapshot, ServerRegistry};
use crossinvoc_runtime::RangeSignature;
use crossinvoc_speccross::workload::SpecWorkload;
use crossinvoc_speccross::SpecConfig;
use crossinvoc_workloads::{AccessKernel, Scale};

use crate::inputs::{self, EngineDef, Model, Technique};
use crate::json::RunResult;
use crate::measure::{technique_label, Budget, Measured, Row};
use crate::spans::Spans;
use crate::workloads::{end_to_end_result, per_layer_result, timed_setups};
use crate::{layers, reference, Opts};

/// Regions served by one server before it is replaced.
pub const GENERATION: usize = 8192;

/// Regions a full run must serve.
pub const MIN_REGIONS: usize = 2000;

/// Flight-recorder ring capacity (also arms per-region tracing).
const FLIGHT_CAPACITY: usize = 512;

const SERVER_DEF: EngineDef = EngineDef {
    kernels: inputs::SERVER_KERNELS,
    cells: None,
    checkpoint_every: 1000,
    injected_misspecs: 0,
};

/// One kernel of one client, shareable with the server's manager threads.
pub struct ServerCase {
    name: &'static str,
    technique: Technique,
    /// The kernel regions run on.
    pub kernel: Arc<AccessKernel<Model>>,
    tasks: u64,
    distance: Option<u64>,
    image: Vec<i64>,
    reference_agrees: bool,
}

/// Client `client`'s four kernels, built from the seed.
pub fn client_cases(seed: u64, client: usize) -> Vec<ServerCase> {
    inputs::build::<AccessKernel<Model>>(
        &SERVER_DEF,
        Scale::Test,
        reference::mix(seed ^ client as u64),
    )
    .into_iter()
    .map(|c| ServerCase {
        name: c.name,
        technique: c.technique,
        kernel: Arc::new(c.kernel),
        tasks: c.tasks,
        distance: c.distance,
        image: c.image,
        reference_agrees: c.reference_agrees,
    })
    .collect()
}

/// One served region.
struct Sample {
    kernel: usize,
    wall_ns: u64,
    ref_ns: u64,
    failure: Option<String>,
    report: Option<RegionReport>,
}

/// A server with or without the telemetry plane.
pub fn new_server(threads: usize, telemetry: bool) -> RegionServer {
    if telemetry {
        let registry =
            ServerRegistry::new(threads).with_recorder(FlightRecorder::new(FLIGHT_CAPACITY));
        RegionServer::with_telemetry(threads, registry)
    } else {
        RegionServer::new(threads)
    }
}

/// One client's closed loop over `regions` regions.
fn client_loop(
    server: &RegionServer,
    cases: &[ServerCase],
    regions: usize,
    threads: usize,
    keep_reports: bool,
    spans: &mut Spans,
) -> Vec<Sample> {
    let mut scratch: Vec<Vec<i64>> = cases.iter().map(|c| vec![0; c.image.len()]).collect();
    let mut samples = Vec::with_capacity(regions);
    for i in 0..regions {
        let k = i % cases.len();
        let case = &cases[k];
        let id = server.next_region_id();
        let mem = &mut scratch[k];
        mem.fill(0);
        let start = Instant::now();
        reference::run(case.kernel.model(), mem, |_, _| 0);
        let ref_ns = start.elapsed().as_nanos() as u64;
        let mut failure =
            (*mem != case.image).then(|| "reference loop is not reproducible".to_string());

        case.kernel.reset();
        let (wall_ns, result) = spans.scope("server.submit_join", id, |_| {
            let start = Instant::now();
            let handle = match case.technique {
                Technique::Spec => server.submit_spec::<RangeSignature, _>(
                    id,
                    SpecConfig::with_workers(threads - 1).spec_distance(case.distance),
                    Arc::clone(&case.kernel),
                ),
                Technique::Domore => server.submit_domore(
                    id,
                    DomoreConfig::with_workers(threads - 1).schedule_memo(false),
                    Arc::clone(&case.kernel),
                ),
            };
            let result = handle.join();
            (start.elapsed().as_nanos() as u64, result)
        });
        let report = match result {
            Err(e) => {
                failure = Some(e.to_string());
                None
            }
            Ok(report) => {
                if case.kernel.snapshot() != case.image {
                    failure =
                        Some("final memory differs from the independent reference".to_string());
                } else if let Some(spec) = report.spec() {
                    if spec.degraded || spec.stats.misspeculations != 0 {
                        failure = Some(format!(
                            "degraded={} misspeculations={}",
                            spec.degraded, spec.stats.misspeculations
                        ));
                    }
                }
                keep_reports.then_some(report)
            }
        };
        samples.push(Sample {
            kernel: k,
            wall_ns,
            ref_ns,
            failure,
            report,
        });
    }
    samples
}

/// What a run of generations produced, beyond the end-to-end report.
#[derive(Default)]
pub struct ServerObserved {
    /// Reports of the last generation (traced runs only).
    pub reports: Vec<(u64, RegionReport)>,
    /// Registry snapshot taken at the end of the last generation.
    pub last_snapshot: Option<RegistrySnapshot>,
    /// Wall-clock of `snapshot()` + `to_prometheus()` per generation, µs.
    pub snapshot_us: Vec<f64>,
    /// Regions completed per second of generation wall-clock.
    pub regions_per_s: f64,
}

/// Serves generations until the budget is spent (and, in an end-to-end run,
/// [`MIN_REGIONS`] regions have been served).
pub fn serve(
    clients: &[Vec<ServerCase>],
    opts: &Opts,
    seconds: f64,
    telemetry: bool,
    keep_reports: bool,
    spans: &mut Spans,
) -> (Measured, ServerObserved) {
    let mut measured = Measured::default();
    let mut observed = ServerObserved::default();
    let kernels = &clients[0];
    for case in clients.iter().flatten() {
        if !case.reference_agrees {
            measured.attempted += 1;
            measured.fail(
                case.name,
                0,
                "reference loop disagrees with sequential_checksum()",
            );
        }
    }
    let per_client = if opts.smoke {
        32
    } else {
        GENERATION / clients.len()
    };
    warm_up(clients, opts.threads, telemetry);

    let mut per_kernel: Vec<(Vec<f64>, Vec<f64>)> =
        kernels.iter().map(|_| Default::default()).collect();
    let budget = Budget::start(seconds, opts, MIN_REGIONS);
    let mut serving_s = 0.0;
    let (origin, enabled) = (spans.origin(), spans.is_enabled());
    // Client threads live for the whole call and receive one server per
    // generation: a region's registry cell is allocated on the submitting
    // thread, and a fresh client thread per generation would land in a fresh
    // allocator arena, so freed generations would pile up in `peak_rss_mib`
    // (observed: 21, 37 or 52 MiB for the same work).
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter()
            .map(|cases| {
                let (job_tx, job_rx) = mpsc::channel::<(RegionServer, u64)>();
                let (done_tx, done_rx) = mpsc::channel::<(Vec<Sample>, Spans)>();
                scope.spawn(move || {
                    for (server, first_id) in job_rx {
                        let mut spans = if enabled {
                            Spans::new(origin, first_id)
                        } else {
                            Spans::disabled()
                        };
                        let samples = client_loop(
                            &server,
                            cases,
                            per_client,
                            opts.threads,
                            keep_reports,
                            &mut spans,
                        );
                        drop(server);
                        if done_tx.send((samples, spans)).is_err() {
                            return;
                        }
                    }
                });
                (job_tx, done_rx)
            })
            .collect();

        let mut generation = 0usize;
        loop {
            let server = new_server(opts.threads, telemetry);
            let start = Instant::now();
            for (c, (job_tx, _)) in workers.iter().enumerate() {
                let first_id = (1 + generation * clients.len() + c) as u64 * 1_000_000;
                job_tx
                    .send((server.clone(), first_id))
                    .expect("client threads outlive the generations");
            }
            let results: Vec<(Vec<Sample>, Spans)> = workers
                .iter()
                .map(|(_, done_rx)| done_rx.recv().expect("client threads do not panic"))
                .collect();
            serving_s += start.elapsed().as_secs_f64();

            // Only the traced run snapshots the registry: a snapshot of every
            // region plus its Prometheus rendering is several times the
            // registry itself and would set `peak_rss_mib` instead of the
            // server.
            if let (Some(registry), true) = (server.registry(), keep_reports) {
                let start = Instant::now();
                let snapshot = registry.snapshot();
                std::hint::black_box(snapshot.to_prometheus());
                observed
                    .snapshot_us
                    .push(start.elapsed().as_nanos() as f64 / 1e3);
                observed.last_snapshot = Some(snapshot);
            }
            drop(server);
            observed.reports.clear();
            for (samples, client_spans) in results {
                spans.merge(client_spans);
                for s in samples {
                    measured.attempted += 1;
                    let case = &kernels[s.kernel];
                    if let Some(why) = &s.failure {
                        measured.fail(case.name, generation, why);
                    }
                    measured.latencies_ms.push(s.wall_ns as f64 / 1e6);
                    let (ns, ref_ns) = &mut per_kernel[s.kernel];
                    ns.push(s.wall_ns as f64 / case.tasks as f64);
                    ref_ns.push(s.ref_ns as f64 / case.tasks as f64);
                    if let Some(report) = s.report {
                        observed.reports.push((case.tasks, report));
                    }
                }
            }
            generation += 1;
            let regions = measured.latencies_ms.len();
            if opts.smoke || !budget.more(generation, regions) {
                break;
            }
        }
        // Dropping the job senders ends the client threads' loops.
    });
    measured.measured_s = budget.elapsed_s();
    observed.regions_per_s = measured.latencies_ms.len() as f64 / serving_s;
    for (case, (ns, ref_ns)) in kernels.iter().zip(&per_kernel) {
        measured.rows.push(Row::from_samples(
            case.name,
            technique_label(case.technique),
            case.tasks,
            ns,
            ref_ns,
        ));
    }
    (measured, observed)
}

/// Starts a server and serves a short unmeasured generation, so that lazy
/// set-up (pool threads, allocator arenas, page faults) is paid before the
/// measured phase. Part of `server_mix`'s set-up.
fn warm_up(clients: &[Vec<ServerCase>], threads: usize, telemetry: bool) {
    let server = new_server(threads, telemetry);
    std::thread::scope(|scope| {
        for cases in clients {
            let server = &server;
            scope.spawn(move || {
                client_loop(server, cases, 16, threads, false, &mut Spans::disabled())
            });
        }
    });
}

/// Client threads: every in-flight region keeps up to two threads runnable
/// (worker + checker, or worker + the DOMORE scheduler, which rides the
/// manager thread *outside* the pool), so `T / 2` clients keep runnable
/// threads at `T`. With two clients on two cores four threads compete, and
/// the interquartile range of region latency over ten runs reached 28 % of
/// its median.
pub fn num_clients(threads: usize) -> usize {
    (threads / 2).max(1)
}

/// The `server_mix` driver.
pub fn run(opts: &Opts) -> RunResult {
    let num_clients = num_clients(opts.threads);
    let (clients, setups_s) = timed_setups(opts, || {
        let clients: Vec<Vec<ServerCase>> = (0..num_clients)
            .map(|c| client_cases(opts.seed, c))
            .collect();
        warm_up(&clients, opts.threads, true);
        clients
    });
    println!(
        "closed loop: {num_clients} client(s), pool of {} threads, Test-scale regions, generations of {GENERATION} regions",
        opts.threads
    );
    if opts.trace {
        let mut spans = Spans::new(Instant::now(), 1);
        let mut out = BTreeMap::new();
        let mut measured = layers::server(&clients, opts, &mut spans, &mut out);
        measured.setups_s = setups_s;
        per_layer_result(opts, &measured, &out, &spans)
    } else {
        let (mut measured, _) = serve(
            &clients,
            opts,
            opts.seconds,
            true,
            false,
            &mut Spans::disabled(),
        );
        measured.setups_s = setups_s;
        end_to_end_result(opts, &measured)
    }
}
