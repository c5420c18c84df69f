//! `server-stats` — renders telemetry snapshot JSONL (schema
//! `crossinvoc-telemetry-1`, written by a [`RegionServer`] snapshot pump or
//! `bench-suite --telemetry`) as a `top`-style table: one row per
//! region (followed by its non-zero counters, every entry of the runtime's
//! `counters!` table by name), a pool summary line, and a red-flag column
//! for rows that faulted or degraded. See `docs/OBSERVABILITY.md`.
//!
//! ```text
//! server-stats [--follow] [--interval-ms N] <snapshots.jsonl>
//! ```
//!
//! * `--follow` — keep re-reading the file and re-rendering the latest
//!   snapshot every `--interval-ms` milliseconds (default 1000), like
//!   `top` over a live pump; without it, render the last snapshot once.
//! * `--interval-ms N` — refresh period for `--follow`.
//!
//! [`RegionServer`]: https://docs.rs/crossinvoc (crate docs; `crossinvoc::server`)

use std::process::ExitCode;
use std::time::Duration;

use crossinvoc_bench::json::{self, Json};
use crossinvoc_runtime::stats::COUNTERS;

struct Args {
    follow: bool,
    interval_ms: u64,
    path: String,
}

fn parse_args() -> Result<Args, String> {
    let mut follow = false;
    let mut interval_ms = 1000u64;
    let mut path = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--follow" => follow = true,
            "--interval-ms" => {
                let n = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = n
                    .parse()
                    .map_err(|_| format!("--interval-ms: invalid value {n:?}"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            p => {
                if path.replace(p.to_string()).is_some() {
                    return Err("expected exactly one snapshot JSONL path".into());
                }
            }
        }
    }
    Ok(Args {
        follow,
        interval_ms,
        path: path.ok_or("usage: server-stats [--follow] [--interval-ms N] <snapshots.jsonl>")?,
    })
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// Human-readable duration from nanoseconds: `970ns`, `12.3µs`, `45.6ms`, `1.2s`.
fn dur(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

fn hist_line(h: &Json) -> String {
    format!(
        "p50 {} p95 {} max {} (n={})",
        dur(num(h, "p50_ns")),
        dur(num(h, "p95_ns")),
        dur(num(h, "max_ns")),
        num(h, "count") as u64,
    )
}

/// Renders one snapshot object as the full table.
fn render(snap: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    static NULL: Json = Json::Null;
    let pool = snap.get("pool").unwrap_or(&NULL);
    let _ = writeln!(
        out,
        "crossinvoc region server — t +{}   slots {}/{} busy   util {:.1}%   in-flight {}   admissions {}   flight-dumps {}",
        dur(num(snap, "t_ns")),
        num(pool, "slots_busy") as u64,
        num(pool, "slots") as u64,
        num(pool, "utilization") * 100.0,
        num(pool, "in_flight") as u64,
        num(pool, "admissions") as u64,
        num(snap, "flight_dumps") as u64,
    );
    if let (Some(qw), Some(lat)) = (pool.get("queue_wait"), pool.get("region_latency")) {
        let _ = writeln!(
            out,
            "pool queue-wait {}   region-latency {}",
            hist_line(qw),
            hist_line(lat)
        );
    }
    let _ = writeln!(
        out,
        "{:>6}  {:<18} {:<8} {:>4}  {:>9}  {:>9}  {:>8}  {:>7}  {:>6}  FLAG",
        "REGION", "KIND", "STATE", "GANG", "QWAIT", "LATENCY", "MISSPEC%", "DEGRADE", "FAULTS"
    );
    let empty = Vec::new();
    let regions = snap.get("regions").and_then(Json::as_arr).unwrap_or(&empty);
    for r in regions {
        let faults = num(r, "faults") as u64;
        let degrades = num(r, "degrade_events") as u64;
        let state = text(r, "state");
        let flag = if state == "faulted" || faults > 0 || degrades > 0 {
            "!!"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:>6}  {:<18} {:<8} {:>4}  {:>9}  {:>9}  {:>8.2}  {:>7}  {:>6}  {}",
            num(r, "region_id") as u64,
            text(r, "kind"),
            state,
            num(r, "gang") as u64,
            dur(num(r, "queue_wait_ns")),
            dur(num(r, "latency_ns")),
            num(r, "misspec_rate") * 100.0,
            degrades,
            faults,
            flag,
        );
        // Every counter of the runtime's `counters!` table, by its wire
        // name; zeros are left out so the line stays readable.
        let counters: Vec<String> = COUNTERS
            .iter()
            .map(|def| (def.name, num(r, def.name) as u64))
            .filter(|&(_, v)| v > 0)
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "{:>8}{}", "", counters.join(" "));
        }
    }
    out
}

/// Parses the last well-formed snapshot line of the JSONL text.
fn last_snapshot(text: &str) -> Result<Json, String> {
    let mut last = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let parsed = json::parse(line)?;
        match parsed.get("schema").and_then(Json::as_str) {
            Some("crossinvoc-telemetry-1") => last = Some(parsed),
            other => {
                return Err(format!(
                    "not a telemetry snapshot (schema {:?})",
                    other.unwrap_or("<missing>")
                ))
            }
        }
    }
    last.ok_or_else(|| "no snapshots in input".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("server-stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        let outcome = std::fs::read_to_string(&args.path)
            .map_err(|e| e.to_string())
            .and_then(|text| last_snapshot(&text));
        match outcome {
            Ok(snap) => {
                if args.follow {
                    // Clear screen + home, like top.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render(&snap));
            }
            Err(err) if args.follow => eprintln!("server-stats: {}: {err} (retrying)", args.path),
            Err(err) => {
                eprintln!("server-stats: {}: {err}", args.path);
                return ExitCode::FAILURE;
            }
        }
        if !args.follow {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(10)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::metrics::MetricsSummary;
    use crossinvoc_runtime::stats::StatsSummary;
    use crossinvoc_runtime::telemetry::{
        PoolSnapshot, RegionSnapshot, RegionState, RegistrySnapshot,
    };

    fn sample() -> RegistrySnapshot {
        let mk = |id, state, faults| RegionSnapshot {
            region_id: id,
            kind: "speccross".to_string(),
            gang: 3,
            state,
            queue_wait_ns: 1_200,
            degrade_events: 0,
            faults,
            latency_ns: 45_600_000,
            metrics: MetricsSummary {
                stats: StatsSummary {
                    tasks: 64,
                    check_requests: 7,
                    ..Default::default()
                },
                ..Default::default()
            },
        };
        RegistrySnapshot {
            t_ns: 1_234_000_000,
            pool: PoolSnapshot {
                slots: 6,
                slots_busy: 3,
                in_flight: 1,
                admissions: 2,
                busy_ns: 100,
                utilization: 0.5,
                queue_wait: Default::default(),
                region_latency: Default::default(),
            },
            regions: vec![mk(1, RegionState::Done, 0), mk(9, RegionState::Faulted, 1)],
            flight_dumps: 1,
        }
    }

    #[test]
    fn renders_pool_line_region_rows_and_red_flags() {
        let snap = json::parse(&sample().to_json()).expect("wire snapshot parses");
        let table = render(&snap);
        assert!(table.contains("slots 3/6 busy"), "{table}");
        assert!(table.contains("flight-dumps 1"), "{table}");
        assert!(table.contains("tasks=64 check_requests=7"), "{table}");
        assert!(
            !table.contains("epochs="),
            "zero counters are omitted: {table}"
        );
        let faulted = table.lines().find(|l| l.contains("faulted")).unwrap();
        assert!(faulted.trim_end().ends_with("!!"), "{faulted}");
        let done = table.lines().find(|l| l.contains("done")).unwrap();
        assert!(!done.contains("!!"), "{done}");
    }

    #[test]
    fn last_snapshot_takes_the_newest_line_and_rejects_foreign_schemas() {
        let a = sample().to_json();
        let mut b = sample();
        b.flight_dumps = 7;
        let text = format!("{a}\n{}\n", b.to_json());
        let last = last_snapshot(&text).unwrap();
        assert_eq!(num(&last, "flight_dumps") as u64, 7);
        assert!(last_snapshot("{\"schema\":\"other\"}").is_err());
        assert!(last_snapshot("").is_err());
    }

    #[test]
    fn durations_render_across_scales() {
        assert_eq!(dur(970.0), "970ns");
        assert_eq!(dur(12_300.0), "12.3µs");
        assert_eq!(dur(45_600_000.0), "45.6ms");
        assert_eq!(dur(1_230_000_000.0), "1.23s");
    }
}
