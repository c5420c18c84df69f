//! Real-thread benchmark of the crossinvoc engines.
//!
//! ```text
//! benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!               [--threads T] [--smoke]
//! benchmark list
//! benchmark check [--seconds S] [--seed N] [--threads T]
//! ```
//!
//! `run` measures one workload in this process and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See `README.md` for the tables.

mod auto;
mod catalogue;
mod check;
mod inputs;
mod json;
mod layers;
mod measure;
mod reference;
mod regions;
mod server;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use crossinvoc_workloads::Scale;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xC602013;

/// Options of one `run`.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Engine threads `T`.
    pub threads: usize,
    /// Schema check: Test scale, two rounds, same metric names.
    pub smoke: bool,
}

impl Opts {
    /// Problem size of the kernel workloads.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Test
        } else {
            Scale::Figure
        }
    }
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        threads: regions::default_threads(),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = parse_u64(value()?)?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds {} is out of range", opts.seconds));
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => opts.trace = true,
            "--threads" => {
                opts.threads = parse_u64(value()?)? as usize;
                if !(2..=64).contains(&opts.threads) {
                    return Err("--threads must be between 2 and 64".to_string());
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1|--traced] [--threads T] [--smoke]\n       benchmark list\n       benchmark check [--seconds S] [--seed N] [--threads T]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let opts = match parse_opts(rest) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("error: {why}");
            return usage();
        }
    };
    match command.as_str() {
        "list" => {
            println!("workloads: {}", workloads::NAMES.join(" "));
            print!("{}", catalogue::render_list());
            ExitCode::SUCCESS
        }
        "run" => {
            if !workloads::NAMES.contains(&opts.workload.as_str()) {
                eprintln!("error: unknown workload {:?}", opts.workload);
                return usage();
            }
            let result = workloads::run(&opts);
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "check" => check::run(&opts),
        _ => usage(),
    }
}
