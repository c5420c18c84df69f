//! `fuzz-diff`: the differential-fuzzing driver.
//!
//! Generates seeded random PIR regions plus fault schedules
//! ([`crossinvoc_fuzz::gen`]) and runs each through every applicable
//! engine path — sequential oracle, production interpreter, barriers,
//! SPECCROSS with and without epoch summaries, DOMORE with and without
//! schedule memoization, and the deterministic simulators over a recorded
//! trace — asserting byte-identical memory against the oracle and clean
//! typed-error degradation under injected faults.
//!
//! On a divergence the case is delta-debugged to a minimal counterexample
//! and written to the corpus directory; the run continues and exits
//! nonzero at the end. Checked-in corpus entries are replayed before
//! fresh generation, so the corpus doubles as a regression suite.
//!
//! ```text
//! fuzz-diff [--cases N] [--start SEED] [--seed SEED] [--emit] [--smoke]
//!           [--corpus DIR] [--out DIR] [--fault-percent P] [--max-tasks N]
//!           [--no-minimize]
//! ```
//!
//! * `--seed N` replays exactly one seed (the reproduction command every
//!   failure message prints); with `--emit` it instead prints the case in
//!   the corpus format (for pinning cases into `corpus/`).
//! * `--smoke` is the CI mode: a fixed seed window sized to finish well
//!   inside a minute, plus the corpus replay.
//! * `--max-tasks N` sets the generator's bound on tasks per epoch
//!   (default 10, which the corpus' seed → case mapping depends on); only
//!   epochs of dozens of tasks make SPECCROSS chunk its worker protocol.
//! * every failure line prints the command that reproduces it
//!   (`fuzz-diff --seed N --max-tasks M`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crossinvoc_fuzz::gen::{generate, FuzzCase, GenParams};
use crossinvoc_fuzz::{
    case_to_text, load_corpus, minimize, run_case, run_concurrent_pair,
    run_concurrent_pair_telemetry, write_counterexample,
};

struct Args {
    cases: u64,
    start: u64,
    seed: Option<u64>,
    emit: bool,
    smoke: bool,
    corpus: PathBuf,
    /// Where new counterexamples are written (defaults to the corpus
    /// directory; CI points it at an artifact-upload path instead).
    out: Option<PathBuf>,
    fault_percent: u64,
    max_tasks: u64,
    minimize: bool,
}

impl Args {
    fn out_dir(&self) -> &PathBuf {
        self.out.as_ref().unwrap_or(&self.corpus)
    }

    /// The command that regenerates and reruns the case of `seed`.
    fn repro(&self, seed: u64) -> String {
        format!("fuzz-diff --seed {seed} --max-tasks {}", self.max_tasks)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 500,
        start: 0,
        seed: None,
        emit: false,
        smoke: false,
        corpus: PathBuf::from("corpus"),
        out: None,
        fault_percent: 50,
        max_tasks: GenParams::default().max_tasks,
        minimize: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--start" => {
                args.start = value("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--emit" => args.emit = true,
            "--smoke" => args.smoke = true,
            "--corpus" => args.corpus = PathBuf::from(value("--corpus")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--fault-percent" => {
                args.fault_percent = value("--fault-percent")?
                    .parse()
                    .map_err(|e| format!("--fault-percent: {e}"))?
            }
            "--max-tasks" => {
                args.max_tasks = value("--max-tasks")?
                    .parse()
                    .map_err(|e| format!("--max-tasks: {e}"))?
            }
            "--no-minimize" => args.minimize = false,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.fault_percent > 100 {
        return Err("--fault-percent must be 0..=100".into());
    }
    if !(1..=4096).contains(&args.max_tasks) {
        return Err("--max-tasks must be 1..=4096".into());
    }
    if args.smoke {
        args.cases = args.cases.min(120);
    }
    Ok(args)
}

/// Runs one case; on divergence, minimizes (if enabled) and records the
/// counterexample. Returns whether the case was clean.
/// Runs one case through every path; `false` if it diverged. Counts it
/// in `wide` if a SPECCROSS path ran a wide pass.
fn run_one(case: &FuzzCase, args: &Args, origin: &str, wide: &mut u64) -> bool {
    let report = run_case(case);
    *wide += u64::from(report.wide);
    let Some(div) = report.divergence else {
        return true;
    };
    eprintln!(
        "FAIL seed {} ({origin}): path {} diverged: {}",
        case.seed, div.path, div.detail
    );
    let repro = args.repro(case.seed);
    eprintln!("     reproduce with: {repro}");
    let written = if args.minimize {
        eprintln!("     minimizing (seed {})...", case.seed);
        minimize(case)
    } else {
        case.clone()
    };
    let detail = format!(
        "divergence on path {}: {}\nfound by fuzz-diff ({origin}); reproduce: {repro}",
        div.path, div.detail
    );
    match write_counterexample(args.out_dir(), &written, &detail) {
        Ok(path) => eprintln!("     counterexample written to {}", path.display()),
        Err(e) => {
            eprintln!(
                "     could not write counterexample (seed {}): {e}",
                case.seed
            );
            // Last resort: dump the case to stderr so nothing is lost.
            if let Ok(text) = case_to_text(&written) {
                eprintln!("{text}");
            }
        }
    }
    false
}

/// Keeps injected-fault worker panics (caught by the engines by design)
/// from spamming stderr through the default panic hook; everything else
/// still prints.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str);
        let msg = msg.or_else(|| info.payload().downcast_ref::<&str>().copied());
        if msg.is_some_and(|m| m.contains("injected fault")) {
            return;
        }
        default(info);
    }));
}

fn main() -> ExitCode {
    quiet_injected_panics();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz-diff: {e}");
            eprintln!(
                "usage: fuzz-diff [--cases N] [--start SEED] [--seed SEED] [--smoke] \
                 [--corpus DIR] [--fault-percent P] [--max-tasks N] [--no-minimize]"
            );
            return ExitCode::from(2);
        }
    };
    let params = GenParams {
        fault_percent: args.fault_percent,
        max_tasks: args.max_tasks,
        ..GenParams::default()
    };
    let t0 = Instant::now();
    let mut failures = 0u64;

    // Single-seed replay mode.
    if let Some(seed) = args.seed {
        let case = generate(seed, &params);
        if args.emit {
            match case_to_text(&case) {
                Ok(text) => {
                    print!("# pinned from fuzz-diff --seed {seed}\n{text}");
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!("fuzz-diff: seed {seed}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("seed {seed}: {}", case.note);
        if run_one(&case, &args, "replay", &mut 0) {
            println!("seed {seed}: all paths agree with the oracle");
            return ExitCode::SUCCESS;
        }
        return ExitCode::FAILURE;
    }

    // Corpus replay: every checked-in counterexample must stay fixed.
    match load_corpus(&args.corpus) {
        Ok(entries) => {
            let n = entries.len();
            let mut wide = 0;
            for (path, case) in entries {
                if !run_one(
                    &case,
                    &args,
                    &format!("corpus {}", path.display()),
                    &mut wide,
                ) {
                    failures += 1;
                }
            }
            println!("corpus: {n} entries replayed ({wide} ran wide), {failures} regressed");
        }
        Err(e) => {
            eprintln!("fuzz-diff: corpus load failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Fresh generation over the seed window. Consecutive cases are also
    // paired through one shared worker pool (the region-server deployment
    // shape): the pool must be observationally invisible for fault-free
    // pairs and degrade to typed errors at worst under faults.
    let (mut spec, mut domore, mut faulty, mut pairs, mut wide) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut pending: Option<FuzzCase> = None;
    for seed in args.start..args.start + args.cases {
        let case = generate(seed, &params);
        let (s, d) = run_case_applicability(&case);
        spec += u64::from(s);
        domore += u64::from(d);
        faulty += u64::from(!case.faults.is_empty());
        if !run_one(&case, &args, "generated", &mut wide) {
            failures += 1;
        }
        match pending.take() {
            None => pending = Some(case),
            Some(prev) => {
                pairs += 1;
                if !run_pair(&prev, &case, &args) {
                    failures += 1;
                }
            }
        }
    }
    println!(
        "fuzz-diff: {} cases (seeds {}..{}), {} spec-applicable ({} ran wide, {:.0} %), \
         {} domore-applicable, {} fault-injected, {} concurrent pairs, {} divergences, {:.1}s",
        args.cases,
        args.start,
        args.start + args.cases,
        spec,
        wide,
        100.0 * wide as f64 / spec.max(1) as f64,
        domore,
        faulty,
        pairs,
        failures,
        t0.elapsed().as_secs_f64()
    );
    if failures > 0 {
        eprintln!(
            "fuzz-diff: {failures} diverging case(s); see {}",
            args.out_dir().display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs two consecutive generated cases concurrently through one shared
/// worker pool — first plain, then again with the live telemetry plane
/// attached (registry + flight recorder), which must be observationally
/// invisible: same region digests and verdict streams. Records the
/// diverging case (unminimized: a concurrency-sensitive divergence need
/// not reproduce under the shrinker's solo replays). Returns whether the
/// pair was clean.
fn run_pair(a: &FuzzCase, b: &FuzzCase, args: &Args) -> bool {
    let div = run_concurrent_pair(a, b)
        .divergence
        .or_else(|| run_concurrent_pair_telemetry(a, b).divergence);
    let Some(div) = div else {
        return true;
    };
    let offender = if div.path.starts_with("regions-a") {
        a
    } else {
        b
    };
    eprintln!(
        "FAIL pair (seeds {}, {}): path {} diverged: {}",
        a.seed, b.seed, div.path, div.detail
    );
    eprintln!(
        "     reproduce solo with: {} (shared-pool pairing: seeds {} + {})",
        args.repro(offender.seed),
        a.seed,
        b.seed
    );
    let detail = format!(
        "divergence on path {}: {}\nfound by fuzz-diff (concurrent pair, seeds {} + {})",
        div.path, div.detail, a.seed, b.seed
    );
    match write_counterexample(args.out_dir(), offender, &detail) {
        Ok(path) => eprintln!("     counterexample written to {}", path.display()),
        Err(e) => {
            eprintln!("     could not write counterexample: {e}");
            if let Ok(text) = case_to_text(offender) {
                eprintln!("{text}");
            }
        }
    }
    false
}

/// Cheap applicability probe for the coverage counters (does not execute).
fn run_case_applicability(case: &FuzzCase) -> (bool, bool) {
    let Some(outer) = case.outer() else {
        return (false, false);
    };
    let s = crossinvoc_pir::SpecCrossPlan::build(&case.program, outer).is_ok();
    let d = case.inner().is_some_and(|inner| {
        crossinvoc_pir::DomorePlan::build(&case.program, outer, inner).is_ok()
    });
    (s, d)
}
