//! `check`: the A/A test. Runs every workload twice on the same build and
//! fails if any end-to-end metric disagrees with itself by more than its
//! regression bound — a benchmark that cannot pass this cannot judge a
//! change. The cure for a failure is more rounds, never a wider bound.
//!
//! Every run is a child process of its own (this executable, `run …`), as
//! the driver runs them: `peak_rss_mib` is a process high-water mark and
//! would only ever grow inside one process.

use std::process::{Command, ExitCode};

use crate::catalogue::{Better, END_TO_END};
use crate::json::RunResult;
use crate::{workloads, Opts};

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs one workload in a child process and parses its result line.
fn run_child(opts: &Opts, workload: &str) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["run", "--workload", workload, "--trace", "0"]);
    command.args(["--seed", &opts.seed.to_string()]);
    command.args(["--seconds", &opts.seconds.to_string()]);
    command.args(["--threads", &opts.threads.to_string()]);
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = RunResult::from_json(last)
        .map_err(|e| format!("{workload} printed no result ({}): {e}", output.status))?;
    if !output.status.success() {
        print!("{stdout}");
    }
    Ok(result)
}

/// Runs the A/A test with `opts`' seed, seconds and threads.
pub fn run(opts: &Opts) -> ExitCode {
    let mut ok = true;
    let mut table = Vec::new();
    for name in workloads::NAMES {
        println!("{name}: two runs of {} s ...", opts.seconds);
        let (first, second) = match (run_child(opts, name), run_child(opts, name)) {
            (Ok(first), Ok(second)) => (first, second),
            (Err(why), _) | (_, Err(why)) => {
                println!("error: {why}");
                ok = false;
                continue;
            }
        };
        ok &= first.correct && second.correct;
        for m in END_TO_END {
            let (a, b) = (first.metrics[m.name].0, second.metrics[m.name].0);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // Either order may be the "parent": the metric must agree with
            // itself both ways.
            let diff = worsening(m.better, a, b).max(worsening(m.better, b, a));
            let pass = diff <= bound;
            ok &= pass;
            table.push(format!(
                "{:<13} {:<16} {:>12.4} {:>12.4} {:>7.2}% of {:>4.0}%  {}",
                name,
                m.name,
                a,
                b,
                100.0 * diff,
                100.0 * bound,
                if pass { "ok" } else { "DISAGREES" }
            ));
        }
    }
    println!("\nA/A check: same build, same seed, two runs per workload");
    println!(
        "{:<13} {:<16} {:>12} {:>12} {:>17}",
        "workload", "metric", "first", "second", "difference"
    );
    for line in table {
        println!("{line}");
    }
    if ok {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        println!("check FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 2.0, 1.8) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 2.0, 2.2) < 0.0);
    }
}
