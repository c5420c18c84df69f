//! `trace-report` — renders JSONL execution traces into the barrier-idle
//! breakdown, per-thread utilization timeline, misspeculation ledger,
//! critical-path attribution, and what-if wait analysis (see
//! `docs/OBSERVABILITY.md`).
//!
//! Traces come from a figure bench run with `CROSSINVOC_TRACE=1` (written
//! to `target/figures/<name>.trace.jsonl`), or from any engine run whose
//! `SpecReport`/`ExecutionReport` trace was serialized with
//! `Trace::to_jsonl`. Usage:
//!
//! ```text
//! trace-report [--strict] [--region N] [--chrome OUT] <trace.jsonl>...
//! ```
//!
//! * `--strict` — exit nonzero when any trace dropped records to ring
//!   overflow (for CI: a truncated trace silently understates every total).
//! * `--region N` — keep only records of region `N` before reporting, for
//!   merged region-server traces and flight-recorder dumps (`N = 0` selects
//!   solo-schema records, which carry no `region_id` field on the wire).
//! * `--chrome OUT` — additionally export Chrome/Perfetto trace_event JSON:
//!   with one input, to the file `OUT`; with several, into the directory
//!   `OUT` as `<stem>.chrome.json`. Open the result at `ui.perfetto.dev`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crossinvoc_runtime::critpath::{critical_path, what_if};
use crossinvoc_runtime::metrics::Histogram;
use crossinvoc_runtime::trace::{Event, Trace, TraceReport, WakeEdge};

struct Args {
    strict: bool,
    region: Option<u64>,
    chrome: Option<PathBuf>,
    paths: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        strict: false,
        region: None,
        chrome: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strict" => args.strict = true,
            "--region" => {
                let n = it.next().ok_or("--region needs a region id")?;
                args.region = Some(
                    n.parse()
                        .map_err(|_| format!("--region: invalid region id {n:?}"))?,
                );
            }
            "--chrome" => {
                let out = it.next().ok_or("--chrome needs an output path")?;
                args.chrome = Some(PathBuf::from(out));
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            path => args.paths.push(path.to_string()),
        }
    }
    Ok(args)
}

/// Output path of one trace's Chrome export under `--chrome OUT`.
fn chrome_path(out: &Path, input: &str, multiple: bool) -> PathBuf {
    if !multiple {
        return out.to_path_buf();
    }
    let stem = Path::new(input)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let stem = stem.strip_suffix(".trace.jsonl").unwrap_or(&stem);
    out.join(format!("{stem}.chrome.json"))
}

/// Renders the critical-path and what-if sections for one trace.
fn render_analysis(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let report = critical_path(trace);
    if report.steps == 0 {
        return out;
    }
    out.push_str(&report.to_string());
    // Wait-time quantiles, rebuilt from the trace's own leave records so
    // the report stands alone (no MetricsSummary needed).
    let waits = Histogram::new();
    let mut any = false;
    for rec in trace.records() {
        if let Event::BarrierLeave { wait_ns, .. } = rec.event {
            waits.record(wait_ns);
            any = true;
        }
    }
    if any {
        let _ = writeln!(out, "wait quantiles: {}", waits.snapshot());
    }
    // One what-if row per causality-edge class present in the trace.
    let mut rows = Vec::new();
    for edge in WakeEdge::ALL {
        let present = trace
            .records()
            .iter()
            .any(|r| matches!(r.event, Event::Wake { edge: e, .. } if e == edge));
        if !present {
            continue;
        }
        let wi = what_if(trace, &[edge]);
        rows.push(format!("  zero {edge:<10} {wi}"));
    }
    if !rows.is_empty() {
        let _ = writeln!(out, "what-if (one edge class removed at a time):");
        for row in rows {
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trace-report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.paths.is_empty() {
        eprintln!("usage: trace-report [--strict] [--region N] [--chrome OUT] <trace.jsonl>...");
        eprintln!(
            "hint: run a figure bench with CROSSINVOC_TRACE=1 to write \
             target/figures/<name>.trace.jsonl"
        );
        return ExitCode::FAILURE;
    }
    let multiple = args.paths.len() > 1;
    if let (Some(out), true) = (&args.chrome, multiple) {
        if let Err(err) = std::fs::create_dir_all(out) {
            eprintln!("trace-report: creating {}: {err}", out.display());
            return ExitCode::FAILURE;
        }
    }
    let mut failed = false;
    let mut total_dropped = 0u64;
    for path in &args.paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("{path}: {err}");
                failed = true;
                continue;
            }
        };
        let parsed = match args.region {
            Some(region) => Trace::from_jsonl_region(&text, region),
            None => Trace::from_jsonl(&text),
        };
        match parsed {
            Ok(trace) => {
                let report = TraceReport::from_trace(&trace);
                match args.region {
                    Some(region) => println!("== {path} (region {region})"),
                    None => println!("== {path}"),
                }
                if trace.dropped() > 0 {
                    total_dropped += trace.dropped();
                    println!(
                        "*** WARNING: {} records dropped by ring overflow — every total \
                         below is a lower bound. Raise the per-thread ring with \
                         CROSSINVOC_TRACE_CAP=<records>. ***",
                        trace.dropped()
                    );
                }
                print!("{}", report.render(&trace));
                print!("{}", render_analysis(&trace));
                if let Some(out) = &args.chrome {
                    let target = chrome_path(out, path, multiple);
                    match std::fs::write(&target, trace.to_chrome_json(None)) {
                        Ok(()) => println!("[wrote {}]", target.display()),
                        Err(err) => {
                            eprintln!("{}: {err}", target.display());
                            failed = true;
                        }
                    }
                }
                println!();
            }
            Err(err) => {
                eprintln!("{path}: {err}");
                failed = true;
            }
        }
    }
    if args.strict && total_dropped > 0 {
        eprintln!(
            "trace-report: --strict: {total_dropped} records dropped across inputs; \
             rerun with a larger CROSSINVOC_TRACE_CAP"
        );
        return ExitCode::FAILURE;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
