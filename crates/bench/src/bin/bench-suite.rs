//! `bench-suite`: the machine-readable regression gates behind
//! `target/figures/BENCH_*.json`. What each gate measures, its criteria and
//! its last measured values are written down once, in EXPERIMENTS.md (one
//! section per report); this file holds the harness and the measurements.
//!
//! * *(no flag)* → `BENCH_3.json`: DOMORE dispatch policies. Every
//!   DOMORE-evaluated Table 5.1 kernel under `seq`, `round_robin` and
//!   `adaptive` dispatch: simulated speedups (virtual time, deterministic —
//!   the criteria source; this host has two cores, so parallel wall-clock
//!   would measure noise, not scheduling), median wall time of real-thread
//!   [`AccessKernel`] runs (checksum-validated every repetition) and the
//!   stall-wait histograms from the runtime's [`Metrics`].
//! * `--fastpath` → `BENCH_5.json`: checker epoch summaries on a dense
//!   clustered SPECCROSS workload (comparisons per admit, checker-wait
//!   critical-path share) and DOMORE schedule-memo hit rates.
//! * `--regions` → `BENCH_8.json`: a mixed SPECCROSS/DOMORE batch through one
//!   shared [`WorkerPool`](crossinvoc_runtime::pool::WorkerPool) via the
//!   [`RegionServer`] — digest identity against solo runs, pooled makespan
//!   (FIFO gang-admission model, [`crossinvoc_sim::server`]) below
//!   region-at-a-time, and neighbour isolation under a worker-panic plan.
//! * `--telemetry` → `BENCH_9.json` (+ `BENCH_9.snapshots.jsonl`,
//!   `BENCH_9.prom`): the live telemetry plane over the BENCH_8 batch —
//!   throughput overhead, snapshot ≡ final report, one round-tripping flight
//!   dump per injected fault, digest identity (`docs/OBSERVABILITY.md`).
//!
//! `--smoke` keeps every run at test scale so CI stays under its time
//! budget; criteria calibrated at figure scale (BENCH_3/5's) are then
//! skipped — the JSON is still written and validated — while the
//! deterministic BENCH_8/9 criteria are evaluated at either scale.
//!
//! ```text
//! bench-suite [--smoke] [--out PATH] [--workers N] [--reps N]
//! bench-suite --fastpath [--smoke] [--out PATH] [--workers N]
//! bench-suite --regions [--smoke] [--out PATH]
//! bench-suite --telemetry [--smoke] [--out PATH]
//! bench-suite --validate PATH   # parse an existing BENCH_3/5/8/9 report
//! bench-suite --list            # one "FILE SCHEMA [FLAG]" line per gate
//! ```
//!
//! Every gate is one row of the [`GATES`] table — flag, schema id, default
//! file, run function, required key paths — and that table is the only
//! place a gate is named: it drives argument parsing, `--list` (which
//! `scripts/ci.sh` loops over), dispatch, and `--validate`. Reports are
//! built as [`Json`] trees and rendered by the one writer in
//! [`crossinvoc_runtime::json`], so they are well-formed by construction;
//! `--validate` looks the report's `schema` up in the table and checks that
//! every required path is present with its declared JSON type and that
//! `criteria.pass` is a bool. Adding a gate is adding a row and its run
//! function. Exit status is nonzero on panic, checksum mismatch, malformed
//! JSON, or failed criteria.
//!
//! [`AccessKernel`]: crossinvoc_workloads::AccessKernel
//! [`Metrics`]: crossinvoc_runtime::metrics::Metrics

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use crossinvoc::server::{RegionHandle, RegionReport, RegionServer};
use crossinvoc_bench::json::{self, Json};
use crossinvoc_bench::{domore_policy, out_dir};
use crossinvoc_domore::prelude::*;
use crossinvoc_domore::runtime::ExecutionReport;
use crossinvoc_runtime::fault::FaultPlan;
use crossinvoc_runtime::json_obj;
use crossinvoc_runtime::metrics::MetricsSummary;
use crossinvoc_runtime::signature::RangeSignature;
use crossinvoc_runtime::telemetry::{
    FlightDump, FlightRecorder, RegionState, RegistrySnapshot, ServerRegistry,
};
use crossinvoc_runtime::trace::Trace;
use crossinvoc_runtime::{critical_path, what_if, PathCategory, TraceReport, WakeEdge};
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine, SpecReport};
use crossinvoc_workloads::synthetic::{Clustered, IncGrid};
use crossinvoc_workloads::{registry, AccessKernel, Scale};

/// Minimum virtual-time win adaptive must show over round-robin on at
/// least one imbalanced kernel (full mode).
const WIN_THRESHOLD: f64 = 1.15;
/// Maximum virtual-time regression tolerated on each balanced kernel.
const BALANCED_TOLERANCE: f64 = 0.95;
/// Minimum reduction of signature comparisons per admitted task the
/// epoch-summary fast path must show on the dense clustered workload
/// (BENCH_5, full mode): 3.75 measured at [`SUMMARY_BUCKET_TASKS`] tasks
/// per bucket when the simulator began admitting through the engine's
/// `CheckerState`; the floor leaves the usual fifth of headroom.
const PRUNING_THRESHOLD: f64 = 3.0;
/// Tasks per (worker, epoch) in BENCH_5's summaries shape. The checker
/// buckets its log by (worker, epoch): with one task per bucket an
/// aggregate test *is* the member test and summaries cannot win.
const SUMMARY_BUCKET_TASKS: usize = 8;
/// Minimum schedule-cache hit rate on each periodic DOMORE kernel
/// (BENCH_5, full mode).
const HIT_RATE_THRESHOLD: f64 = 0.90;
/// Minimum telemetry-on / telemetry-off throughput the registry must keep
/// on the saturated spin batch (BENCH_9; best-of-N wall time either arm).
const TELEMETRY_MIN_RATIO: f64 = 0.97;

// ---- The gate table ----

/// JSON type a required report path must have.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Bool,
    Num,
    Str,
    Obj,
}

impl Kind {
    fn matches(self, value: &Json) -> bool {
        matches!(
            (self, value),
            (Kind::Bool, Json::Bool(_))
                | (Kind::Num, Json::Num(_))
                | (Kind::Str, Json::Str(_))
                | (Kind::Obj, Json::Obj(_))
        )
    }
}

/// What a gate's run function hands back to the shared harness.
struct Outcome {
    /// The report body: a [`Json::Obj`] holding everything below the
    /// `schema`/`version`/`smoke` header the harness adds, including the
    /// `criteria` object with its `evaluated` and `pass` bools.
    body: Json,
    /// Human-readable result lines, printed once the file is written.
    summary: String,
    /// Sibling files written next to the report: `(file name, contents)`.
    artifacts: Vec<(&'static str, String)>,
}

/// One regression gate.
struct Gate {
    /// Command-line flag selecting the gate (`""`: the default gate).
    flag: &'static str,
    /// The report's `schema` field; `--validate` dispatches on it.
    schema: &'static str,
    /// Default output file under `target/figures/`.
    file: &'static str,
    run: fn(&Args) -> Result<Outcome, String>,
    /// Paths `--validate` requires, with their JSON type. Segments are
    /// `.`-separated keys; `key[]` is a non-empty array (`key[N]`: at least
    /// `N` items) whose every element must match the rest of the path;
    /// `{a,b}` alternatives expand to one path each. `criteria.pass: Bool`
    /// is required of every gate and not repeated here.
    required: &'static [(&'static str, Kind)],
}

const GATES: [Gate; 4] = [
    Gate {
        flag: "",
        schema: "crossinvoc-bench-3",
        file: "BENCH_3.json",
        run: run_policy,
        required: &[
            ("kernels[].name", Kind::Str),
            ("kernels[].{sim,real}.configs[]", Kind::Obj),
        ],
    },
    Gate {
        flag: "--fastpath",
        schema: "crossinvoc-bench-5",
        file: "BENCH_5.json",
        run: run_fastpath,
        required: &[
            ("checker.pruning_ratio", Kind::Num),
            (
                "checker.{summaries_on,summaries_off}.{comparisons,check_requests}",
                Kind::Num,
            ),
            ("memo.kernels[].name", Kind::Str),
            ("memo.kernels[].hit_rate", Kind::Num),
        ],
    },
    Gate {
        flag: "--regions",
        schema: "crossinvoc-bench-8",
        file: "BENCH_8.json",
        run: run_regions,
        required: &[
            ("criteria.{identical,isolation}", Kind::Bool),
            ("criteria.ratio", Kind::Num),
            (
                "throughput.{makespan_ns,region_at_a_time_ns,ratio}",
                Kind::Num,
            ),
            ("isolation.contained", Kind::Bool),
            // One region is not a saturation batch.
            ("regions[2].{region_id,gang}", Kind::Num),
            ("regions[2].kind", Kind::Str),
            ("regions[2].{identical,isolated}", Kind::Bool),
        ],
    },
    Gate {
        flag: "--telemetry",
        schema: "crossinvoc-bench-9",
        file: "BENCH_9.json",
        run: run_telemetry,
        required: &[
            (
                "criteria.{identical,consistency,flight,overhead}",
                Kind::Bool,
            ),
            (
                "overhead.{best_off_ns,best_on_ns,throughput_ratio,min_ratio}",
                Kind::Num,
            ),
            ("consistency.snapshot_matches_final", Kind::Bool),
            ("flight.{dumps,region_id,records,dropped}", Kind::Num),
            ("flight.roundtrip", Kind::Bool),
        ],
    },
];

// ---- Arguments, dispatch and the shared run/validate harness ----

struct Args {
    smoke: bool,
    gate: &'static Gate,
    out: PathBuf,
    workers: usize,
    reps: usize,
}

enum Command {
    List,
    Validate(PathBuf),
    Run(Args),
}

fn parse_args() -> Result<Command, String> {
    let (mut smoke, mut list) = (false, false);
    let mut gates: Vec<&'static Gate> = Vec::new();
    let mut workers = 8usize;
    let mut reps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut validate: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--list" => list = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--reps" => {
                reps = Some(
                    value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--validate" => validate = Some(PathBuf::from(value("--validate")?)),
            flag => match GATES.iter().find(|g| !g.flag.is_empty() && g.flag == flag) {
                Some(gate) => gates.push(gate),
                None => return Err(format!("unknown argument {flag}")),
            },
        }
    }
    if list {
        return Ok(Command::List);
    }
    if let Some(path) = validate {
        return Ok(Command::Validate(path));
    }
    if gates.len() > 1 {
        let flags: Vec<&str> = GATES.iter().map(|g| g.flag).skip(1).collect();
        return Err(format!("{} are mutually exclusive", flags.join(", ")));
    }
    let gate = gates.first().copied().unwrap_or(&GATES[0]);
    let reps = reps.unwrap_or(if smoke { 1 } else { 5 });
    if workers == 0 || reps == 0 {
        return Err("--workers and --reps must be positive".into());
    }
    Ok(Command::Run(Args {
        smoke,
        gate,
        out: out.unwrap_or_else(|| out_dir().join(gate.file)),
        workers,
        reps,
    }))
}

fn main() -> ExitCode {
    let passed = parse_args().and_then(|command| match command {
        Command::List => {
            for gate in &GATES {
                println!("{} {} {}", gate.file, gate.schema, gate.flag);
            }
            Ok(true)
        }
        Command::Validate(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let desc =
                validate_report(&text).map_err(|e| format!("{}: invalid: {e}", path.display()))?;
            println!("{}: {desc}", path.display());
            Ok(true)
        }
        Command::Run(args) => run_gate(&args),
    });
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("criteria: FAIL");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-suite: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `args.gate`, writes its report (and artifacts) and prints the
/// summary. `Ok(false)` means the report was written but its criteria
/// failed; gates whose criteria need figure scale report
/// `criteria.evaluated: false` in smoke mode and pass vacuously.
fn run_gate(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let outcome = (args.gate.run)(args)?;
    let report = json_obj! {
        "schema": args.gate.schema,
        "version": 1u64,
        "smoke": args.smoke,
    }
    .merged(outcome.body);
    let text = report.pretty();
    let write = |path: PathBuf, text: &str| {
        std::fs::create_dir_all(path.parent().unwrap_or(&path))
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(args.out.clone(), &text)?;
    // Self-check: what was just written must satisfy the gate's own
    // contract. A violation is a bug in this harness and fails the run.
    validate_report(&text).map_err(|e| format!("produced a malformed report: {e}"))?;
    for (name, contents) in &outcome.artifacts {
        write(args.out.with_file_name(name), contents)?;
    }
    println!(
        "[wrote {}] in {:.1}s",
        args.out.display(),
        start.elapsed().as_secs_f64()
    );
    print!("{}", outcome.summary);
    let criterion = |key: &str| report.at(key).and_then(Json::as_bool) == Some(true);
    if !criterion("criteria.evaluated") {
        println!("smoke mode: criteria not evaluated (test-scale workload)");
        return Ok(true);
    }
    if criterion("criteria.pass") {
        println!("criteria: PASS");
    }
    Ok(criterion("criteria.pass"))
}

/// Parses `text`, finds its `schema` in [`GATES`] and checks that gate's
/// required paths. Returns a one-line description.
fn validate_report(text: &str) -> Result<String, String> {
    let root = json::parse(text)?;
    let schema = root.get("schema").and_then(Json::as_str);
    let gate = GATES
        .iter()
        .find(|g| Some(g.schema) == schema)
        .ok_or_else(|| format!("bad schema field: {schema:?}"))?;
    let mut checked = 0;
    for (pattern, kind) in gate.required.iter().chain(&[("criteria.pass", Kind::Bool)]) {
        for path in expand_alternatives(pattern) {
            check_path(&root, &path, *kind).map_err(|e| format!("{path}: {e}"))?;
            checked += 1;
        }
    }
    Ok(format!(
        "valid {} report ({checked} required paths)",
        gate.file.trim_end_matches(".json")
    ))
}

/// `a.{b,c}.d` → `a.b.d`, `a.c.d` (recursively, left to right).
fn expand_alternatives(pattern: &str) -> Vec<String> {
    let Some((head, tail)) = pattern.split_once('{') else {
        return vec![pattern.to_string()];
    };
    let (alternatives, rest) = tail.split_once('}').expect("GATES path closes its brace");
    alternatives
        .split(',')
        .flat_map(|alt| expand_alternatives(&format!("{head}{alt}{rest}")))
        .collect()
}

/// Walks `path` (see [`Gate::required`]) down from `node` and checks the
/// value(s) it reaches against `kind`.
fn check_path(node: &Json, path: &str, kind: Kind) -> Result<(), String> {
    let (segment, rest) = match path.split_once('.') {
        Some((segment, rest)) => (segment, Some(rest)),
        None => (path, None),
    };
    let descend = |child: &Json| match rest {
        Some(rest) => check_path(child, rest, kind),
        None if kind.matches(child) => Ok(()),
        None => Err(format!("must be a {kind:?}")),
    };
    let Some((key, min_len)) = segment.split_once('[') else {
        return descend(node.get(segment).ok_or(format!("missing {segment}"))?);
    };
    let min_len = min_len.trim_end_matches(']').parse().unwrap_or(1);
    node.get(key)
        .and_then(Json::as_arr)
        .filter(|items| items.len() >= min_len)
        .ok_or(format!("{key} must be an array of at least {min_len}"))?
        .iter()
        .try_for_each(descend)
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Figure => "figure",
    }
}

fn model_scale(smoke: bool) -> Scale {
    if smoke {
        Scale::Test
    } else {
        Scale::Figure
    }
}

// ---- BENCH_3: the scheduling-policy regression suite ----

fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

fn run_policy(args: &Args) -> Result<Outcome, String> {
    let sim_scale = model_scale(args.smoke);
    let cost = CostModel::default();
    let mut kernels = Vec::new();
    // (name, imbalanced, virtual-time round-robin / adaptive ratio)
    let mut ratios: Vec<(&'static str, bool, f64)> = Vec::new();

    for info in registry().into_iter().filter(|b| b.domore) {
        println!("[{}] simulating at {sim_scale:?} scale", info.name);
        let model = info.model(sim_scale);
        let seq_ns = sequential(model.as_ref(), &cost).total_ns;
        let mut sim = Vec::new();
        let mut sim_ns = [0u64; 2];
        for (slot, dispatch) in [Dispatch::RoundRobin, Dispatch::Adaptive]
            .into_iter()
            .enumerate()
        {
            let mut policy = dispatch.policy();
            let r = crossinvoc_sim::domore(model.as_ref(), args.workers, policy.as_mut(), &cost);
            sim_ns[slot] = r.total_ns;
            sim.push(json_obj! {
                "dispatch": dispatch.name(),
                "total_ns": r.total_ns,
                "speedup_vs_seq": Json::fixed(r.speedup_over(seq_ns), 4),
                "sync_conditions": r.stats.sync_conditions,
                "stalls": r.stats.stalls,
            });
        }
        let ratio = sim_ns[0] as f64 / sim_ns[1] as f64;

        // Real threads always run the test-scale kernel: wall time on this
        // host measures harness overhead, not parallel speedup, so small
        // checksum-validated runs are the honest configuration.
        println!(
            "[{}] executing on real threads ({} reps)",
            info.name, args.reps
        );
        let kernel = AccessKernel::from_model(info.model(Scale::Test));
        let expected = kernel.sequential_checksum();
        let real_row = |config: &str, walls: &[u64], seq_median: u64, stall_wait: Json| {
            json_obj! {
                "config": config,
                "median_wall_ns": median(walls),
                "speedup_vs_seq": Json::fixed(seq_median as f64 / median(walls).max(1) as f64, 4),
                "wall_ns": walls.to_vec(),
                "stall_wait": stall_wait,
            }
        };

        let mut seq_walls = Vec::with_capacity(args.reps);
        for _ in 0..args.reps {
            kernel.reset();
            let t = Instant::now();
            for inv in 0..DomoreWorkload::num_invocations(&kernel) {
                for iter in 0..DomoreWorkload::num_iterations(&kernel, inv) {
                    kernel.execute_iteration(inv, iter, 0);
                }
            }
            seq_walls.push(t.elapsed().as_nanos() as u64);
            if kernel.checksum() != expected {
                return Err(format!("[{}] sequential checksum mismatch", info.name));
            }
        }
        let seq_median = median(&seq_walls).max(1);
        let mut real = vec![real_row("seq", &seq_walls, seq_median, Json::Null)];

        for dispatch in [Dispatch::RoundRobin, Dispatch::Adaptive] {
            let mut walls = Vec::with_capacity(args.reps);
            let mut stall_wait = Json::Null;
            for _ in 0..args.reps {
                kernel.reset();
                let t = Instant::now();
                let report = DomoreRuntime::new(DomoreConfig::with_workers(args.workers))
                    .with_dispatch(dispatch)
                    .execute(&kernel);
                walls.push(t.elapsed().as_nanos() as u64);
                let report = report
                    .map_err(|e| format!("[{}] {} run failed: {e}", info.name, dispatch.name()))?;
                if kernel.checksum() != expected {
                    return Err(format!(
                        "[{}] checksum mismatch under {} dispatch",
                        info.name,
                        dispatch.name()
                    ));
                }
                let h = report.metrics.stall_wait;
                stall_wait = json_obj! {
                    "count": h.count,
                    "sum_ns": h.sum_ns,
                    "mean_ns": Json::fixed(h.mean_ns(), 1),
                    "p50_ns": h.quantile_upper_bound(0.50),
                    "p90_ns": h.quantile_upper_bound(0.90),
                    "p99_ns": h.quantile_upper_bound(0.99),
                    "log2_buckets": h.buckets.to_vec(),
                };
            }
            real.push(real_row(dispatch.name(), &walls, seq_median, stall_wait));
        }
        kernel.reset();

        ratios.push((info.name, info.imbalanced(), ratio));
        kernels.push(json_obj! {
            "name": info.name,
            "imbalanced": info.imbalanced(),
            "sim": json_obj! {
                "scale": scale_name(sim_scale),
                "seq_ns": seq_ns,
                "adaptive_over_round_robin": Json::fixed(ratio, 4),
                "configs": sim,
            },
            "real": json_obj! { "scale": "test", "configs": real },
        });
    }

    // Criteria (full mode only: smoke runs at test scale, where the models
    // are too small for the calibrated thresholds).
    let by_ratio = |a: &(&str, f64), b: &(&str, f64)| a.1.total_cmp(&b.1);
    let of = |imbalanced: bool| {
        ratios
            .iter()
            .filter(move |r| r.1 == imbalanced)
            .map(|&(name, _, ratio)| (name, ratio))
    };
    let best_win = of(true).max_by(by_ratio);
    let worst_balanced = of(false).min_by(by_ratio);
    let pass = !args.smoke
        && best_win.is_some_and(|(_, w)| w >= WIN_THRESHOLD)
        && worst_balanced.is_none_or(|(_, w)| w >= BALANCED_TOLERANCE);

    let mut summary = String::new();
    for (name, imbalanced, ratio) in &ratios {
        let _ = writeln!(
            summary,
            "  {name:<16} adaptive/round_robin (virtual) = {ratio:.3}{}",
            if *imbalanced { "  [imbalanced]" } else { "" }
        );
    }
    if let (false, Some((name, win))) = (args.smoke, best_win) {
        let _ = writeln!(
            summary,
            "best imbalanced win: {win:.3} on {name} (need ≥ {WIN_THRESHOLD})"
        );
    }
    if let (false, Some((name, worst))) = (args.smoke, worst_balanced) {
        let _ = writeln!(
            summary,
            "worst balanced ratio: {worst:.3} on {name} (need ≥ {BALANCED_TOLERANCE})"
        );
    }
    Ok(Outcome {
        body: json_obj! {
            "workers": args.workers,
            "reps": args.reps,
            "criteria": json_obj! {
                "evaluated": !args.smoke,
                "adaptive_min_win": WIN_THRESHOLD,
                "balanced_min_ratio": BALANCED_TOLERANCE,
                "best_imbalanced_win": best_win.map(|(_, w)| Json::fixed(w, 4)),
                "best_imbalanced_kernel": best_win.map(|(name, _)| name),
                "worst_balanced_ratio": worst_balanced.map(|(_, w)| Json::fixed(w, 4)),
                "worst_balanced_kernel": worst_balanced.map(|(name, _)| name),
                "pass": pass,
            },
            "kernels": kernels,
        },
        summary,
        artifacts: Vec::new(),
    })
}

// ---- BENCH_5: the fast-path regression suite ----

/// The clustered configuration of the checker-side gate:
/// `(epochs, threads, checkpoint_every)`, each epoch
/// [`SUMMARY_BUCKET_TASKS`] tasks per worker. The shape needs enough
/// concurrent cross-epoch candidates for the checker to face deep logs —
/// thread count, not `--workers`, sets that — and checkpoint rendezvous
/// drain the checker, which is how its service time reaches the critical
/// path.
fn checker_config(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (12, 8, 4)
    } else {
        (60, 32, 10)
    }
}

/// One traced clustered run's checker-side measurements.
struct CheckerSide {
    total_ns: u64,
    check_requests: u64,
    comparisons: u64,
    epoch_skips: u64,
    /// Fraction of the critical path spent waiting on the checker: the
    /// checkpoint-drain/verdict categories plus the SPSC stalls, which on
    /// this trace are exclusively workers' check requests sitting in the
    /// ring while the checker scans signatures (the speccross simulator
    /// emits queue wakes only at checker pickups).
    checker_share: f64,
    /// `what_if` speedup from zeroing the checker's pickup and verdict
    /// wake edges — how much faster the run would finish were signature
    /// checking free.
    zero_checker_speedup: f64,
}

impl CheckerSide {
    fn measure<W: SimWorkload>(
        w: &W,
        threads: usize,
        checkpoint_every: usize,
        summaries: bool,
    ) -> CheckerSide {
        let params = SpecSimParams::with_threads(threads)
            .trace(1 << 17)
            .checkpoint_every(checkpoint_every)
            .epoch_summaries(summaries);
        let r = crossinvoc_sim::speccross(w, &params, &CostModel::default());
        let trace = r.trace.as_ref().expect("tracing was requested");
        let report = TraceReport::from_trace(trace);
        let crit = critical_path(trace);
        let total = crit.attribution.total().max(1);
        let waiting_on_checker = crit.attribution.get(PathCategory::CheckerLatency)
            + crit.attribution.get(PathCategory::SpscStall);
        CheckerSide {
            total_ns: r.total_ns,
            check_requests: r.stats.check_requests,
            comparisons: report.checker_comparisons,
            epoch_skips: report.checker_epoch_skips,
            checker_share: waiting_on_checker as f64 / total as f64,
            zero_checker_speedup: what_if(trace, &[WakeEdge::Queue, WakeEdge::Checker])
                .predicted_speedup(),
        }
    }

    fn comparisons_per_admit(&self) -> f64 {
        self.comparisons as f64 / self.check_requests.max(1) as f64
    }

    fn json(&self) -> Json {
        json_obj! {
            "total_ns": self.total_ns,
            "check_requests": self.check_requests,
            "comparisons": self.comparisons,
            "epoch_skips": self.epoch_skips,
            "comparisons_per_admit": Json::fixed(self.comparisons_per_admit(), 4),
            "checker_wait_share": Json::fixed(self.checker_share, 6),
            "what_if_zero_checker_wait_speedup": Json::fixed(self.zero_checker_speedup, 4),
        }
    }
}

/// One periodic kernel's schedule-memo measurements.
struct MemoRow {
    name: &'static str,
    invocations: u64,
    cache_hits: u64,
    memo_ns: u64,
    no_memo_ns: u64,
}

impl MemoRow {
    fn measure(name: &'static str, scale: Scale, workers: usize) -> MemoRow {
        let info = crossinvoc_workloads::registry::by_name(name);
        let model = info.model(scale);
        let run = |memo: bool| {
            let mut policy = domore_policy(&info, scale);
            let cost = CostModel::default();
            domore_configured(model.as_ref(), workers, policy.as_mut(), &cost, None, memo)
        };
        let with_memo = run(true);
        MemoRow {
            name,
            invocations: model.num_invocations() as u64,
            cache_hits: with_memo.stats.schedule_cache_hits,
            memo_ns: with_memo.total_ns,
            no_memo_ns: run(false).total_ns,
        }
    }

    fn hit_rate(&self) -> f64 {
        self.cache_hits as f64 / self.invocations.max(1) as f64
    }
}

fn run_fastpath(args: &Args) -> Result<Outcome, String> {
    let scale = model_scale(args.smoke);
    let (epochs, threads, ckpt) = checker_config(args.smoke);
    let tasks = threads * SUMMARY_BUCKET_TASKS;
    let w = Clustered { epochs, tasks };
    println!(
        "[clustered] {epochs} epochs x {tasks} tasks on {threads} threads \
         ({SUMMARY_BUCKET_TASKS} per bucket), checkpoint every {ckpt}"
    );
    let on = CheckerSide::measure(&w, threads, ckpt, true);
    let off = CheckerSide::measure(&w, threads, ckpt, false);
    let pruning_ratio =
        off.comparisons_per_admit() / on.comparisons_per_admit().max(f64::MIN_POSITIVE);

    println!(
        "[memo] JACOBI + FDTD at {scale:?} scale, {} workers",
        args.workers
    );
    let memo_rows = ["JACOBI", "FDTD"].map(|name| MemoRow::measure(name, scale, args.workers));
    let worst_hit_rate = memo_rows
        .iter()
        .map(MemoRow::hit_rate)
        .fold(f64::INFINITY, f64::min);
    let share_shrank = on.checker_share < off.checker_share;
    let pass = !args.smoke
        && pruning_ratio >= PRUNING_THRESHOLD
        && worst_hit_rate >= HIT_RATE_THRESHOLD
        && share_shrank;

    let mut summary = format!(
        "  comparisons/admit: {:.2} with summaries, {:.2} without  (ratio {pruning_ratio:.2})\n  \
         checker-wait critical-path share: {:.4} with summaries, {:.4} without \
         (what-if free checks: {:.3}x vs {:.3}x)\n",
        on.comparisons_per_admit(),
        off.comparisons_per_admit(),
        on.checker_share,
        off.checker_share,
        on.zero_checker_speedup,
        off.zero_checker_speedup
    );
    for row in &memo_rows {
        let _ = writeln!(
            summary,
            "  {:<8} schedule-cache hit rate {:.3} ({}/{} invocations), {} -> {} ns",
            row.name,
            row.hit_rate(),
            row.cache_hits,
            row.invocations,
            row.no_memo_ns,
            row.memo_ns
        );
    }
    if !args.smoke {
        let _ = writeln!(
            summary,
            "pruning ratio {pruning_ratio:.2} (need >= {PRUNING_THRESHOLD}), worst hit rate \
             {worst_hit_rate:.3} (need >= {HIT_RATE_THRESHOLD}), checker share shrank: {share_shrank}"
        );
    }
    Ok(Outcome {
        body: json_obj! {
            "workers": args.workers,
            "checker": json_obj! {
                "workload": "clustered",
                "epochs": epochs,
                "tasks": tasks,
                "threads": threads,
                "pruning_ratio": Json::fixed(pruning_ratio, 4),
                "summaries_on": on.json(),
                "summaries_off": off.json(),
            },
            "memo": json_obj! {
                "scale": scale_name(scale),
                "kernels": memo_rows.iter().map(|row| json_obj! {
                    "name": row.name,
                    "invocations": row.invocations,
                    "cache_hits": row.cache_hits,
                    "hit_rate": Json::fixed(row.hit_rate(), 4),
                    "memo_total_ns": row.memo_ns,
                    "no_memo_total_ns": row.no_memo_ns,
                }).collect::<Vec<_>>(),
            },
            "criteria": json_obj! {
                "evaluated": !args.smoke,
                "min_pruning_ratio": PRUNING_THRESHOLD,
                "min_hit_rate": HIT_RATE_THRESHOLD,
                "pruning_ratio": Json::fixed(pruning_ratio, 4),
                "worst_hit_rate": Json::fixed(worst_hit_rate, 4),
                "checker_share_on": Json::fixed(on.checker_share, 6),
                "checker_share_off": Json::fixed(off.checker_share, 6),
                "pass": pass,
            },
        },
        summary,
        artifacts: Vec::new(),
    })
}

// ---- BENCH_8: the region-server saturation suite ----

/// Which engine a BENCH_8 region runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    Spec,
    Domore,
}

/// One region of the BENCH_8 batch.
#[derive(Debug, Clone, Copy)]
struct RegionDef {
    kind: RegionKind,
    workers: usize,
    epochs: usize,
    tasks: usize,
}

impl RegionDef {
    /// Pool slots the region's gang occupies (the SPECCROSS checker is
    /// one more; the DOMORE scheduler rides the submitting manager thread,
    /// so only its workers count).
    fn gang(&self) -> usize {
        match self.kind {
            RegionKind::Spec => self.workers + 1,
            RegionKind::Domore => self.workers,
        }
    }

    fn kind_name(&self) -> &'static str {
        match self.kind {
            RegionKind::Spec => "speccross",
            RegionKind::Domore => "domore",
        }
    }

    fn spec_config(&self) -> SpecConfig {
        SpecConfig::with_workers(self.workers).checkpoint_every(4)
    }
}

/// Canonical result digest of a SPECCROSS region: every deterministic
/// observable, including the verdict stream (conflicts in detection order,
/// misspeculation count) and the final memory image. Timing-dependent
/// fields (wall clock, stalls, comparison counts) are deliberately absent.
fn spec_digest(report: &SpecReport, grid: &IncGrid) -> String {
    format!(
        "spec tasks={} epochs={} misspec={} conflicts={:?} degraded={} contained={} cells={:?}",
        report.stats.tasks,
        report.stats.epochs,
        report.stats.misspeculations,
        report.conflicts,
        report.degraded,
        report.contained_faults.len(),
        grid.cells(),
    )
}

/// Canonical result digest of a DOMORE region (scheduling decisions are
/// deterministic, so the synchronization-condition count is too).
fn dom_digest(report: &ExecutionReport, grid: &IncGrid) -> String {
    format!(
        "domore tasks={} epochs={} sync={} cells={:?}",
        report.stats.tasks,
        report.stats.epochs,
        report.stats.sync_conditions,
        grid.cells(),
    )
}

/// Runs one region alone, the pre-region-server way: a fresh scoped gang
/// on dedicated threads. This is the baseline every pooled digest must
/// reproduce byte-for-byte.
fn run_region_solo(def: &RegionDef) -> Result<String, String> {
    match def.kind {
        RegionKind::Spec => {
            let w = IncGrid::new(def.tasks, def.epochs);
            let report = SpecCrossEngine::<RangeSignature>::new(def.spec_config())
                .execute(&w)
                .map_err(|e| format!("solo speccross region: {e}"))?;
            Ok(spec_digest(&report, &w))
        }
        RegionKind::Domore => {
            let w = IncGrid::new(def.tasks, def.epochs);
            let report = DomoreRuntime::new(DomoreConfig::with_workers(def.workers))
                .execute(&w)
                .map_err(|e| format!("solo domore region: {e}"))?;
            Ok(dom_digest(&report, &w))
        }
    }
}

/// A shared-pool server, with a live registry plus flight recorder when
/// `telemetry` is set.
fn new_server(pool_threads: usize, telemetry: bool) -> RegionServer {
    if telemetry {
        RegionServer::with_telemetry(
            pool_threads,
            ServerRegistry::new(pool_threads).with_recorder(FlightRecorder::new(512)),
        )
    } else {
        RegionServer::new(pool_threads)
    }
}

/// Submits the whole batch (region ids `1..`), each unit spinning for
/// `spin_ns`, and returns every handle with its grid (kept so digests can
/// read the final cells after the joins). With `fault_region0` the first
/// region (SPECCROSS by construction) runs under a worker-panic fault plan.
fn submit_batch(
    server: &RegionServer,
    defs: &[RegionDef],
    spin_ns: u64,
    fault_region0: bool,
) -> Vec<(RegionHandle, Arc<IncGrid>)> {
    defs.iter()
        .enumerate()
        .map(|(i, def)| {
            let region_id = (i + 1) as u64;
            let mut grid = IncGrid::new(def.tasks, def.epochs);
            grid.spin_ns = spin_ns;
            let grid = Arc::new(grid);
            let handle = match def.kind {
                RegionKind::Spec => {
                    let mut config = def.spec_config();
                    if fault_region0 && i == 0 {
                        config = config.fault_plan(FaultPlan::new().worker_panic_at(1, 0));
                    }
                    server.submit_spec::<RangeSignature, _>(region_id, config, Arc::clone(&grid))
                }
                RegionKind::Domore => server.submit_domore(
                    region_id,
                    DomoreConfig::with_workers(def.workers),
                    Arc::clone(&grid),
                ),
            };
            (handle, grid)
        })
        .collect()
}

/// What a telemetry-attached pooled run observed, for the BENCH_9 gates.
struct TelemetryOutcome {
    /// Every region's snapshot row equals the engine report's final
    /// `MetricsSummary` (the aliasing contract), with a terminal state.
    consistent: bool,
    /// Flight dumps taken.
    dumps: Vec<FlightDump>,
    /// The post-join registry snapshot.
    snapshot: RegistrySnapshot,
}

/// Pushes the whole batch through one shared-pool [`RegionServer`] and
/// joins every region. Returns the digests, whether a faulted region 0 was
/// contained, and — with `telemetry` — what the telemetry plane observed.
///
/// A faulted region 0's own digest is timing-dependent (how far the other
/// workers ran before the rollback varies), so its slot is left empty and
/// the returned bool instead reports whether the fault was contained *and*
/// the region's final cells are still exact — the neighbours' digests
/// remain byte-comparable either way. Digests are computed identically
/// with telemetry on or off; BENCH_9's identity criterion diffs them.
fn run_regions_pooled(
    defs: &[RegionDef],
    pool_threads: usize,
    fault_region0: bool,
    telemetry: bool,
) -> Result<(Vec<String>, bool, Option<TelemetryOutcome>), String> {
    let server = new_server(pool_threads, telemetry);
    let mut digests = Vec::new();
    let mut final_metrics: Vec<MetricsSummary> = Vec::new();
    let mut region0_ok = true;
    let batch = submit_batch(&server, defs, 0, fault_region0);
    for (i, (handle, grid)) in batch.into_iter().enumerate() {
        let report = handle
            .join()
            .map_err(|e| format!("pooled region {}: {e}", i + 1))?;
        final_metrics.push(match &report {
            RegionReport::Spec(r) => r.metrics,
            RegionReport::Domore(r) => r.metrics,
        });
        digests.push(match &report {
            RegionReport::Spec(r) if fault_region0 && i == 0 => {
                region0_ok = !r.contained_faults.is_empty() && grid.cells() == grid.expected();
                String::new()
            }
            RegionReport::Spec(r) => spec_digest(r, &grid),
            RegionReport::Domore(r) => dom_digest(r, &grid),
        });
    }
    let outcome = server.registry().map(|registry| {
        let snapshot = registry.snapshot();
        let consistent = snapshot.regions.len() == defs.len()
            && snapshot.regions.iter().zip(&final_metrics).all(|(row, m)| {
                row.metrics == *m && matches!(row.state, RegionState::Done | RegionState::Faulted)
            });
        TelemetryOutcome {
            consistent,
            dumps: registry
                .flight_recorder()
                .map(|rec| rec.dumps())
                .unwrap_or_default(),
            snapshot,
        }
    });
    Ok((digests, region0_ok, outcome))
}

/// Solo virtual-time duration of one region, for the throughput replay
/// (wall clock on this host would measure noise).
fn region_sim_duration(def: &RegionDef, cost: &CostModel) -> u64 {
    let w = UniformWorkload::independent(def.epochs, def.tasks, 10_000);
    match def.kind {
        RegionKind::Spec => {
            let params = SpecSimParams::with_threads(def.workers);
            crossinvoc_sim::speccross::speccross(&w, &params, cost).total_ns
        }
        RegionKind::Domore => domore(&w, def.workers, &mut RoundRobin, cost).total_ns,
    }
}

/// The BENCH_8 batch shapes, shared with the BENCH_9 telemetry gate:
/// `(pool threads, regions)`.
///
/// Gangs are sized so the pool can overlap at least two regions
/// (throughput must beat region-at-a-time strictly); region 0 is
/// SPECCROSS because the isolation/flight legs fault it via the spec fault
/// plan. Shapes are conflict-free grids, so every digest field is
/// deterministic and the criteria hold at either scale.
fn regions_batch(smoke: bool) -> (usize, Vec<RegionDef>) {
    let (pool, spec_workers, dom_workers, epochs, tasks, pairs) = if smoke {
        (6, 2, 2, 8, 8, 2)
    } else {
        (8, 3, 4, 24, 16, 3)
    };
    let spec = RegionDef {
        kind: RegionKind::Spec,
        workers: spec_workers,
        epochs,
        tasks,
    };
    let dom = RegionDef {
        kind: RegionKind::Domore,
        workers: dom_workers,
        ..spec
    };
    (pool, [spec, dom].repeat(pairs))
}

fn run_regions(args: &Args) -> Result<Outcome, String> {
    let (pool_threads, defs) = regions_batch(args.smoke);
    println!(
        "[regions] {} regions through a {pool_threads}-thread pool (gangs {:?})",
        defs.len(),
        defs.iter().map(RegionDef::gang).collect::<Vec<_>>()
    );

    // Criterion 1: pooled digests byte-identical to solo digests.
    let solo: Vec<String> = defs.iter().map(run_region_solo).collect::<Result<_, _>>()?;
    let (pooled, _, _) = run_regions_pooled(&defs, pool_threads, false, false)?;
    let identical: Vec<bool> = solo.iter().zip(&pooled).map(|(s, p)| s == p).collect();
    let all_identical = identical.iter().all(|&b| b);

    // Criterion 2: pooled throughput strictly beats region-at-a-time in
    // the FIFO gang-admission virtual-time replay.
    let cost = CostModel::default();
    let durations: Vec<u64> = defs.iter().map(|d| region_sim_duration(d, &cost)).collect();
    let specs: Vec<RegionSpec> = defs
        .iter()
        .zip(&durations)
        .map(|(d, &duration)| RegionSpec {
            gang: d.gang(),
            duration,
        })
        .collect();
    let sim = region_server(pool_threads, &specs);
    let ratio = sim.throughput_ratio();

    // Criterion 3: a faulted region 0 leaves every neighbour's digest —
    // verdict stream included — byte-identical to its solo run.
    let (faulted, region0_contained, _) = run_regions_pooled(&defs, pool_threads, true, false)?;
    let isolated: Vec<bool> = solo
        .iter()
        .zip(&faulted)
        .enumerate()
        .map(|(i, (s, f))| if i == 0 { region0_contained } else { s == f })
        .collect();
    let isolation = isolated.iter().all(|&b| b);

    let mut summary = String::new();
    let mut rows = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        let _ = writeln!(
            summary,
            "  region {} ({}, gang {}): identical={} isolated={} sim {} ns",
            i + 1,
            def.kind_name(),
            def.gang(),
            identical[i],
            isolated[i],
            durations[i],
        );
        rows.push(json_obj! {
            "region_id": i + 1,
            "kind": def.kind_name(),
            "gang": def.gang(),
            "epochs": def.epochs,
            "tasks": def.tasks,
            "sim_duration_ns": durations[i],
            "identical": identical[i],
            "isolated": isolated[i],
        });
    }
    let _ = writeln!(
        summary,
        "pooled makespan {} ns vs region-at-a-time {} ns = {ratio:.3}x (need > 1.0), \
         fault contained: {region0_contained}",
        sim.makespan, sim.sequential
    );
    Ok(Outcome {
        body: json_obj! {
            "pool": json_obj! { "threads": pool_threads },
            "regions": rows,
            "throughput": json_obj! {
                "makespan_ns": sim.makespan,
                "region_at_a_time_ns": sim.sequential,
                "ratio": Json::fixed(ratio, 4),
            },
            "isolation": json_obj! { "faulted_region": 1u64, "contained": region0_contained },
            // The criteria are deterministic (digest equality, virtual
            // time), so unlike the timing-calibrated suites they gate smoke
            // mode too.
            "criteria": json_obj! {
                "evaluated": true,
                "identical": all_identical,
                "min_ratio": 1.0,
                "ratio": Json::fixed(ratio, 4),
                "isolation": isolation,
                "pass": all_identical && ratio > 1.0 && isolation,
            },
        },
        summary,
        artifacts: Vec::new(),
    })
}

// ---- BENCH_9: the live-telemetry-plane suite ----

/// Wall time of one spin batch through the shared pool, submit to last
/// join, with or without the telemetry plane attached. CPU-heavy task
/// bodies, so per-task telemetry cost is measured against real work.
fn telemetry_batch_wall(
    defs: &[RegionDef],
    pool_threads: usize,
    spin_ns: u64,
    telemetry: bool,
) -> Result<u64, String> {
    let server = new_server(pool_threads, telemetry);
    let start = Instant::now();
    for (i, (handle, _)) in submit_batch(&server, defs, spin_ns, false)
        .into_iter()
        .enumerate()
    {
        handle
            .join()
            .map_err(|e| format!("spin region {}: {e}", i + 1))?;
    }
    Ok(start.elapsed().as_nanos() as u64)
}

fn run_telemetry(args: &Args) -> Result<Outcome, String> {
    let (pool_threads, defs) = regions_batch(args.smoke);
    println!(
        "[telemetry] {} regions through a {pool_threads}-thread pool, registry attached",
        defs.len(),
    );

    // Criterion 1: identity — telemetry-on digests byte-identical to
    // telemetry-off (verdict streams included).
    let (off_digests, _, _) = run_regions_pooled(&defs, pool_threads, false, false)?;
    let (on_digests, _, outcome) = run_regions_pooled(&defs, pool_threads, false, true)?;
    let outcome = outcome.expect("telemetry-attached run reports an outcome");
    let identical = off_digests == on_digests;

    // Criterion 2: consistency — every region's snapshot row equals its
    // report's final MetricsSummary, the pool saw every admission, and a
    // healthy batch takes no flight dumps.
    let admissions = outcome.snapshot.pool.admissions;
    let consistency =
        outcome.consistent && admissions >= defs.len() as u64 && outcome.dumps.is_empty();

    // Criterion 3: flight — rerun with region 1 under a worker panic; the
    // recorder must dump exactly that region's armed ring: one dump, on
    // region 1, trigger `fault`, non-empty, and its JSONL must round-trip
    // through the trace parser with record and drop counts intact.
    let (_, contained, fault_outcome) = run_regions_pooled(&defs, pool_threads, true, true)?;
    let fault_outcome = fault_outcome.expect("telemetry-attached run reports an outcome");
    let dump = match fault_outcome.dumps.as_slice() {
        [dump] => Some(dump),
        _ => None,
    };
    let roundtrip = dump.is_some_and(|d| {
        Trace::from_jsonl_region(&d.jsonl, d.region_id)
            .is_ok_and(|trace| trace.records().len() == d.records && trace.dropped() == d.dropped)
    });
    let trigger = dump.map_or(String::new(), |d| d.trigger.to_string());
    let flight_ok = contained
        && roundtrip
        && dump.is_some_and(|d| d.region_id == 1 && trigger == "fault" && d.records > 0);

    // Criterion 4: overhead — best-of-5 wall time over CPU-heavy spin
    // regions. The arms alternate which goes first in each rep (off→on,
    // then on→off), so neither always inherits the other's warm-up or a
    // service thread still spinning on a core.
    let spin_ns: u64 = if args.smoke { 200_000 } else { 100_000 };
    let reps: u64 = 5;
    // Indexed by telemetry on (1) or off (0).
    let mut best = [u64::MAX; 2];
    for rep in 0..reps {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for telemetry in order {
            let wall = telemetry_batch_wall(&defs, pool_threads, spin_ns, telemetry)?;
            best[telemetry as usize] = best[telemetry as usize].min(wall);
        }
    }
    let [best_off, best_on] = best;
    let ratio = best_off as f64 / best_on as f64;
    let overhead = ratio >= TELEMETRY_MIN_RATIO;

    let summary = format!(
        "  identity: telemetry-on digests identical to off = {identical}\n  \
         consistency: snapshot rows == final MetricsSummary = {} (admissions {admissions})\n  \
         flight: {} dump(s), region {}, trigger {trigger:?}, {} records, roundtrip={roundtrip}\n  \
         overhead: best off {best_off} ns vs on {best_on} ns = {ratio:.4}x \
         (need >= {TELEMETRY_MIN_RATIO})\n",
        outcome.consistent,
        fault_outcome.dumps.len(),
        dump.map_or(0, |d| d.region_id),
        dump.map_or(0, |d| d.records),
    );
    // Exposition artifacts: wire-schema snapshots for `server-stats`
    // (healthy batch, then the faulted batch) and Prometheus text format.
    let snapshots = format!(
        "{}\n{}\n",
        outcome.snapshot.to_json(),
        fault_outcome.snapshot.to_json()
    );
    Ok(Outcome {
        body: json_obj! {
            "pool": json_obj! { "threads": pool_threads, "regions": defs.len() },
            "overhead": json_obj! {
                "spin_ns": spin_ns,
                "reps": reps,
                "best_off_ns": best_off,
                "best_on_ns": best_on,
                "throughput_ratio": Json::fixed(ratio, 4),
                "min_ratio": TELEMETRY_MIN_RATIO,
            },
            "consistency": json_obj! {
                "regions": defs.len(),
                "snapshot_matches_final": outcome.consistent,
                "admissions": admissions,
                "clean_run_dumps": outcome.dumps.len(),
            },
            "flight": json_obj! {
                "dumps": fault_outcome.dumps.len(),
                "region_id": dump.map_or(0, |d| d.region_id),
                "trigger": trigger.as_str(),
                "records": dump.map_or(0, |d| d.records),
                "dropped": dump.map_or(0, |d| d.dropped),
                "roundtrip": roundtrip,
            },
            "criteria": json_obj! {
                "evaluated": true,
                "identical": identical,
                "consistency": consistency,
                "flight": flight_ok,
                "overhead": overhead,
                "pass": identical && consistency && flight_ok && overhead,
            },
        },
        summary,
        artifacts: vec![
            ("BENCH_9.snapshots.jsonl", snapshots),
            ("BENCH_9.prom", fault_outcome.snapshot.to_prometheus()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one table-driven gate test: every [`GATES`] row runs at smoke
    /// scale through the same harness `main` uses, the file it wrote
    /// re-parses, carries the row's schema, and satisfies the row's
    /// required paths — and breaking any one of those paths (dropping its
    /// top-level section, or giving `criteria.pass` the wrong type) is
    /// caught by the same generic validator.
    #[test]
    fn every_gate_runs_at_smoke_scale_and_satisfies_its_required_paths() {
        let dir = std::env::temp_dir().join(format!("bench-suite-gates-{}", std::process::id()));
        for gate in &GATES {
            let args = Args {
                smoke: true,
                gate,
                out: dir.join(gate.file),
                workers: 8,
                reps: 1,
            };
            // Ok(false) would be a failed wall-clock criterion (BENCH_9's
            // overhead ratio under a loaded test runner): a well-formed
            // report either way, which is what this test is about.
            run_gate(&args).unwrap_or_else(|e| panic!("{}: {e}", gate.file));
            let text = std::fs::read_to_string(&args.out).unwrap();
            let root = json::parse(&text).unwrap();
            assert_eq!(root.get("schema").and_then(Json::as_str), Some(gate.schema));
            assert_eq!(root.get("smoke"), Some(&Json::Bool(true)));
            let desc = validate_report(&text).unwrap();
            assert!(desc.contains(gate.file.trim_end_matches(".json")), "{desc}");

            let Json::Obj(pairs) = &root else {
                panic!("{}: report is not an object", gate.file);
            };
            for (pattern, _) in gate.required {
                let section = pattern.split(['.', '[']).next().unwrap();
                let without: Vec<_> = pairs
                    .iter()
                    .filter(|(k, _)| k != section)
                    .cloned()
                    .collect();
                let err = validate_report(&Json::Obj(without).render()).unwrap_err();
                assert!(err.contains(section), "{}: {pattern}: {err}", gate.file);
            }
            let bad_pass = text
                .replace("\"pass\": true", "\"pass\": \"yes\"")
                .replace("\"pass\": false", "\"pass\": \"no\"");
            let err = validate_report(&bad_pass).unwrap_err();
            assert!(err.contains("criteria.pass"), "{}: {err}", gate.file);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_rejects_malformed_and_foreign_documents() {
        for bad in ["{", "[1,]", "{\"a\": }", "{} trailing", "{\"a\"; 1}"] {
            assert!(validate_report(bad).is_err(), "{bad:?} should fail");
        }
        let err = validate_report(r#"{"schema": "crossinvoc-bench-4"}"#).unwrap_err();
        assert!(err.contains("bad schema"), "{err}");
        // Parses fine, but violates the report shape.
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-3", "kernels": []}"#).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
    }

    #[test]
    fn required_paths_check_arrays_minimum_lengths_and_types() {
        let doc = json::parse(r#"{"a": {"rows": [{"n": 1}, {"n": 2}]}, "s": "x"}"#).unwrap();
        assert!(check_path(&doc, "a.rows[].n", Kind::Num).is_ok());
        assert!(check_path(&doc, "a.rows[2].n", Kind::Num).is_ok());
        assert!(check_path(&doc, "a.rows[3].n", Kind::Num).is_err());
        assert!(check_path(&doc, "a.rows[].n", Kind::Bool).is_err());
        assert!(check_path(&doc, "a.rows[]", Kind::Obj).is_ok());
        assert!(check_path(&doc, "a.missing", Kind::Num).is_err());
        assert!(check_path(&doc, "s", Kind::Str).is_ok());
        assert_eq!(
            expand_alternatives("a.{b,c}.{d,e}"),
            ["a.b.d", "a.b.e", "a.c.d", "a.c.e"]
        );
    }

    #[test]
    fn gate_table_is_consistent() {
        for (i, gate) in GATES.iter().enumerate() {
            assert_eq!(
                gate.flag.is_empty(),
                i == 0,
                "only the first gate is the default"
            );
            assert!(gate.schema.starts_with("crossinvoc-bench-"));
            let n = gate.schema.trim_start_matches("crossinvoc-bench-");
            assert_eq!(gate.file, format!("BENCH_{n}.json"));
            assert_eq!(GATES.iter().filter(|g| g.schema == gate.schema).count(), 1);
            assert_eq!(GATES.iter().filter(|g| g.flag == gate.flag).count(), 1);
        }
    }
}
