//! The six workloads: what each is, and the dispatch from a name to its
//! driver.
//!
//! | name | why it exists |
//! |---|---|
//! | `spec_fine` | SPECCROSS on bare ~22 ns tasks: signature build, batched SPSC hand-off, checker admission and range gating are the whole cost |
//! | `domore_fine` | DOMORE on bare tasks: the scheduler thread (`touched`, `schedule_rw`, shadow update, SPSC dispatch) is the serial bottleneck |
//! | `coarse_mix` | both engines at ≈ 1 µs per task: the bypass workload for hand-off micro-optimisations, the one that moves with gating, sync waits and load balance |
//! | `spec_recover` | same engine, opposite use: 2 MiB of state, a checkpoint every 50 epochs and eight injected misspeculations make snapshot/restore and rollback do the work |
//! | `server_mix` | ~450-task regions through `RegionServer` with telemetry: manager spawn, gang admission, queue wait and telemetry dominate |
//! | `auto_pir` | `AutoParallelizer` on three PIR nests: the only path through `pir::{pdg,scc,transform,elide,interp}` and `core::driver` |

use std::collections::BTreeMap;
use std::time::Instant;

use crossinvoc_workloads::AccessKernel;

use crate::catalogue;
use crate::inputs::{self, BenchKernel, Coarse, EngineDef, Model};
use crate::json::RunResult;
use crate::measure::{self, Measured};
use crate::spans::Spans;
use crate::{auto, layers, reference, regions, server, Opts};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "spec_fine",
    "domore_fine",
    "coarse_mix",
    "spec_recover",
    "server_mix",
    "auto_pir",
];

/// Runs `setup` repeatedly, timing each run, and keeps the last result:
/// at least five set-ups, and more (up to 200) until a second of set-up time
/// has been sampled, so that `setup_s` is a first decile of many even for a
/// workload whose set-up takes milliseconds. Smoke and traced runs set up
/// once. Earlier results are dropped before the next build so peak memory is
/// one set-up's worth.
pub fn timed_setups<T>(opts: &Opts, setup: impl Fn() -> T) -> (T, Vec<f64>) {
    let (min_repeats, max_repeats) = if opts.smoke || opts.trace {
        (1, 1)
    } else {
        (5, 200)
    };
    let mut seconds = Vec::new();
    let mut kept = None;
    while seconds.len() < min_repeats
        || (seconds.len() < max_repeats && seconds.iter().sum::<f64>() < 1.0)
    {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), seconds)
}

/// Prints the run header every workload shares.
fn print_header(opts: &Opts) {
    let cores = regions::available_cores();
    println!(
        "workload {} seed {:#x} threads {} nproc {} oversubscribed: {} scale {:?} mode {}",
        opts.workload,
        opts.seed,
        opts.threads,
        cores,
        opts.threads > cores,
        opts.scale(),
        if opts.trace { "traced" } else { "end-to-end" },
    );
}

/// The contract's result object for `measured` with the given metrics.
fn run_result(measured: &Measured, metrics: BTreeMap<String, (f64, String)>) -> RunResult {
    RunResult {
        correct: measured.failed == 0,
        attempted: measured.attempted.max(1),
        failed: measured.failed,
        metrics,
    }
}

/// Turns an untraced measurement into the contract's result object.
pub fn end_to_end_result(opts: &Opts, measured: &Measured) -> RunResult {
    measured.print_rows(opts.smoke);
    let values = measured.end_to_end();
    let mut metrics = BTreeMap::new();
    for m in catalogue::END_TO_END {
        let value = values[m.name];
        println!("{:<18} {:>14.4} {}", m.name, value, m.unit);
        metrics.insert(m.name.to_string(), (value, m.unit.to_string()));
    }
    run_result(measured, metrics)
}

/// Turns a traced measurement into the contract's result object: every
/// per-layer metric of the catalogue, 0 where the layer was not measured.
pub fn per_layer_result(
    opts: &Opts,
    measured: &Measured,
    layers: &BTreeMap<&'static str, f64>,
    spans: &Spans,
) -> RunResult {
    measured.print_rows(true);
    for name in layers.keys() {
        assert!(
            catalogue::per_layer(name).is_some(),
            "{name} is not in the catalogue"
        );
    }
    let mut metrics = BTreeMap::new();
    for m in catalogue::PER_LAYER {
        let value = layers.get(m.name).copied().unwrap_or(0.0);
        println!("{:<36} {:>16.4} {}", m.name, value, m.unit);
        metrics.insert(m.name.to_string(), (value, m.unit.to_string()));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{}.spans.jsonl", opts.workload));
    match spans.write_jsonl(&path) {
        Ok(()) => println!("[{} spans -> {}]", spans.closed().len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    run_result(measured, metrics)
}

fn engine<K: BenchKernel>(def: &EngineDef, opts: &Opts) -> RunResult {
    let (cases, setups_s) = timed_setups(opts, || inputs::build::<K>(def, opts.scale(), opts.seed));
    for case in &cases {
        println!(
            "kernel {:<15} {:>7} tasks, {:>6} cells, speculative range {:?}, dispatch {}, input stream {:#018x}",
            case.name,
            case.tasks,
            case.image.len(),
            case.distance,
            case.dispatch.name(),
            reference::stream_hash(case.kernel.access().model()),
        );
    }
    if opts.trace {
        let mut spans = Spans::new(Instant::now(), 1);
        let (mut measured, layers) = layers::engine(def, &cases, opts, &mut spans);
        measured.setups_s = setups_s;
        per_layer_result(opts, &measured, &layers, &spans)
    } else {
        let (mut measured, _) = measure::run_rounds(
            def,
            &cases,
            opts,
            opts.seconds,
            None,
            &mut Spans::disabled(),
        );
        measured.setups_s = setups_s;
        end_to_end_result(opts, &measured)
    }
}

/// Runs the workload `opts` names and returns its result object.
///
/// # Panics
///
/// Panics on a name outside [`NAMES`] (the caller validates it).
pub fn run(opts: &Opts) -> RunResult {
    print_header(opts);
    match opts.workload.as_str() {
        "spec_fine" => engine::<AccessKernel<Model>>(&inputs::SPEC_FINE, opts),
        "domore_fine" => engine::<AccessKernel<Model>>(&inputs::DOMORE_FINE, opts),
        "coarse_mix" => engine::<Coarse>(&inputs::COARSE_MIX, opts),
        "spec_recover" => engine::<AccessKernel<Model>>(&inputs::SPEC_RECOVER, opts),
        "server_mix" => server::run(opts),
        "auto_pir" => auto::run(opts),
        other => panic!("unknown workload {other}"),
    }
}
