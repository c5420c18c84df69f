//! The measured phase of the four engine workloads (`spec_fine`,
//! `domore_fine`, `coarse_mix`, `spec_recover`) and the report every
//! workload is summarized from.
//!
//! One round runs every kernel of the workload once, reference and
//! technique interleaved, so both sides of `speedup_vs_seq` see the same
//! machine state. A kernel's value is the first decile over rounds (see
//! [`stats::first_decile`] for why not the median); the workload's value is
//! the geometric mean over its kernels.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crossinvoc_domore::runtime::ExecutionReport;
use crossinvoc_runtime::trace::Trace;
use crossinvoc_speccross::SpecReport;

use crate::inputs::{BenchKernel, Case, EngineDef, Technique};
use crate::regions::{self, Outcome, Report};
use crate::spans::Spans;
use crate::stats;
use crate::{reference, Opts};

/// Regions a run must execute so that the 90th percentile has ten samples
/// beyond it, with some slack.
pub const MIN_REGIONS: usize = 110;

/// One kernel's row of the report.
#[derive(Debug, Clone)]
pub struct Row {
    /// Kernel (or nest) name.
    pub name: String,
    /// Technique label (`SPECCROSS`, `DOMORE`, `barrier`, …).
    pub technique: String,
    /// Tasks of the workload definition, per region.
    pub tasks: u64,
    /// Regions measured (= rounds for the engine workloads).
    pub regions: usize,
    /// First decile over regions of region wall-clock / tasks.
    pub ns_per_task: f64,
    /// Median of the same samples (printed, not reported: how disturbed the
    /// run was).
    pub ns_per_task_p50: f64,
    /// First decile over regions of reference wall / tasks.
    pub ref_ns_per_task: f64,
    /// `ref_ns_per_task / ns_per_task`: the undisturbed reference over the
    /// undisturbed technique, same kernel, same rounds.
    pub speedup_vs_seq: f64,
}

impl Row {
    /// Summarizes one kernel from its per-region samples (both in ns/task).
    pub fn from_samples(
        name: &str,
        technique: &str,
        tasks: u64,
        ns: &[f64],
        ref_ns: &[f64],
    ) -> Row {
        let (ns_per_task, ref_ns_per_task) = (stats::first_decile(ns), stats::first_decile(ref_ns));
        Row {
            name: name.to_string(),
            technique: technique.to_string(),
            tasks,
            regions: ns.len(),
            ns_per_task,
            ns_per_task_p50: stats::median(ns),
            ref_ns_per_task,
            speedup_vs_seq: ref_ns_per_task / ns_per_task,
        }
    }
}

/// Everything an untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Per-kernel rows.
    pub rows: Vec<Row>,
    /// Submit-to-result latency of every region, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Regions attempted.
    pub attempted: u64,
    /// Regions that failed the correctness gate.
    pub failed: u64,
    /// Wall-clock of each repeated set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Length of the measured phase.
    pub measured_s: f64,
}

impl Measured {
    /// Records a failed region and says which.
    pub fn fail(&mut self, kernel: &str, round: usize, why: &str) {
        self.failed += 1;
        println!("FAILED region: kernel {kernel}, round {round}: {why}");
    }

    /// The end-to-end metrics of the contract, by catalogue name.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let ns: Vec<f64> = self.rows.iter().map(|r| r.ns_per_task).collect();
        let speedup: Vec<f64> = self.rows.iter().map(|r| r.speedup_vs_seq).collect();
        BTreeMap::from([
            ("setup_s", stats::first_decile(&self.setups_s)),
            ("ns_per_task", stats::geomean(&ns)),
            ("speedup_vs_seq", stats::geomean(&speedup)),
            ("peak_rss_mib", peak_rss_mib()),
        ])
    }

    /// Prints the per-kernel rows, the failure share and the tail latency
    /// with its sample counts. A full end-to-end run (`partial == false`)
    /// must have ten samples beyond its p90; smoke and traced runs print
    /// whatever they have.
    pub fn print_rows(&self, partial: bool) {
        println!(
            "{:<16} {:<10} {:>9} {:>8} {:>12} {:>12} {:>12} {:>10}",
            "kernel",
            "technique",
            "tasks",
            "regions",
            "ns/task",
            "(median)",
            "ref ns/task",
            "speedup"
        );
        for r in &self.rows {
            println!(
                "{:<16} {:<10} {:>9} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>10.4}",
                r.name,
                r.technique,
                r.tasks,
                r.regions,
                r.ns_per_task,
                r.ns_per_task_p50,
                r.ref_ns_per_task,
                r.speedup_vs_seq
            );
        }
        println!(
            "regions: {} attempted, {} failed, failed_share {:.4}; measured phase {:.2} s; {} set-ups",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.measured_s,
            self.setups_s.len()
        );
        if self.latencies_ms.is_empty() {
            return;
        }
        let (p90, beyond) = stats::percentile(&self.latencies_ms, 0.90);
        let enough = beyond >= stats::MIN_TAIL_SAMPLES;
        assert!(
            partial || enough,
            "only {beyond} samples beyond the p90 of {} regions",
            self.latencies_ms.len()
        );
        println!(
            "region_ms_p90 {:.4} ms (median {:.4} ms) over {} regions, {} beyond it{}",
            p90,
            stats::median(&self.latencies_ms),
            self.latencies_ms.len(),
            beyond,
            if enough {
                ""
            } else {
                " -- too few for a percentile"
            }
        );
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Decides when the round loop stops: after the time budget and — in an
/// end-to-end run, whose p90 needs them — the minimum region count (smoke
/// runs: after two rounds).
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    limit: Duration,
    smoke: bool,
    min_regions: usize,
}

impl Budget {
    /// A budget of `seconds` starting now; an end-to-end run additionally
    /// needs `min_regions` regions.
    pub fn start(seconds: f64, opts: &Opts, min_regions: usize) -> Self {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
            smoke: opts.smoke,
            min_regions: if opts.trace { 0 } else { min_regions },
        }
    }

    /// Whether another round should run after `rounds` rounds and `regions`
    /// regions.
    pub fn more(&self, rounds: usize, regions: usize) -> bool {
        if self.smoke {
            return rounds < 2;
        }
        self.start.elapsed() < self.limit || regions < self.min_regions
    }

    /// Seconds since the budget started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Per-kernel sample store of the round loop.
#[derive(Debug, Default)]
struct Samples {
    ns_per_task: Vec<f64>,
    ref_ns_per_task: Vec<f64>,
    traced_ns_per_task: Vec<f64>,
}

/// What the traced variant of the loop keeps besides the rows.
#[derive(Debug, Default)]
pub struct Observed {
    /// Last successful untraced SPECCROSS report per kernel.
    pub spec: Vec<Option<SpecReport>>,
    /// Last successful untraced DOMORE report per kernel.
    pub domore: Vec<Option<ExecutionReport>>,
    /// First-decile traced ns/task per kernel (traced loop only).
    pub traced_ns_per_task: Vec<Option<f64>>,
    /// Last trace per kernel (traced loop only).
    pub trace: Vec<Option<Trace>>,
}

/// Runs one region of `case` under its technique.
pub fn run_case<K: BenchKernel>(
    def: &EngineDef,
    case: &Case<K>,
    threads: usize,
    trace: Option<usize>,
) -> Outcome {
    match case.technique {
        Technique::Spec => {
            let mut config = regions::spec_config(def, case, threads);
            if let Some(capacity) = trace {
                config = config.trace(capacity);
            }
            regions::run_spec(case, config, case.fault_epochs.len() as u64)
        }
        Technique::Domore => {
            regions::run_domore(case, regions::domore_runtime(case, threads, false, trace))
        }
    }
}

/// Label printed in the technique column.
pub fn technique_label(t: Technique) -> &'static str {
    match t {
        Technique::Spec => "SPECCROSS",
        Technique::Domore => "DOMORE",
    }
}

/// The round loop. With `trace_capacity` set, every round additionally runs
/// each kernel once with engine tracing on (the per-layer run); those
/// regions are verified and counted but contribute to no end-to-end number.
pub fn run_rounds<K: BenchKernel>(
    def: &EngineDef,
    cases: &[Case<K>],
    opts: &Opts,
    seconds: f64,
    trace_capacity: Option<usize>,
    spans: &mut Spans,
) -> (Measured, Observed) {
    let mut measured = Measured::default();
    let mut observed = Observed {
        spec: cases.iter().map(|_| None).collect(),
        domore: cases.iter().map(|_| None).collect(),
        traced_ns_per_task: cases.iter().map(|_| None).collect(),
        trace: cases.iter().map(|_| None).collect(),
    };
    for case in cases {
        if !case.reference_agrees {
            measured.attempted += 1;
            measured.fail(
                case.name,
                0,
                "reference loop disagrees with sequential_checksum()",
            );
        }
    }
    let mut samples: Vec<Samples> = cases.iter().map(|_| Samples::default()).collect();
    let mut scratch: Vec<Vec<i64>> = cases.iter().map(|c| vec![0; c.image.len()]).collect();
    let mut region_id = 0u64;

    // One unmeasured round lets caches fill and lazy set-up finish.
    for case in cases {
        let _ = run_case(def, case, opts.threads, None);
    }

    let budget = Budget::start(seconds, opts, MIN_REGIONS);
    let mut rounds = 0;
    while budget.more(rounds, measured.latencies_ms.len()) {
        spans.scope("round", 0, |spans| {
            for (k, case) in cases.iter().enumerate() {
                region_id += 1;
                let mem = &mut scratch[k];
                mem.fill(0);
                let ref_ns = spans.scope("reference.run", region_id, |_| {
                    let start = Instant::now();
                    reference::run(case.kernel.access().model(), mem, |i, j| {
                        case.kernel.grain(i, j)
                    });
                    start.elapsed().as_nanos() as f64
                });
                if *mem != case.image {
                    measured.attempted += 1;
                    measured.fail(case.name, rounds, "reference loop is not reproducible");
                }

                let name = match case.technique {
                    Technique::Spec => "speccross.execute",
                    Technique::Domore => "domore.execute",
                };
                let outcome =
                    spans.scope(name, region_id, |_| run_case(def, case, opts.threads, None));
                measured.attempted += 1;
                measured.latencies_ms.push(outcome.wall_ns as f64 / 1e6);
                samples[k]
                    .ns_per_task
                    .push(outcome.wall_ns as f64 / case.tasks as f64);
                samples[k].ref_ns_per_task.push(ref_ns / case.tasks as f64);
                match outcome.result {
                    Ok(Report::Spec(r)) => observed.spec[k] = Some(r),
                    Ok(Report::Domore(r)) => observed.domore[k] = Some(r),
                    Err(why) => measured.fail(case.name, rounds, &why),
                }

                if let Some(capacity) = trace_capacity {
                    region_id += 1;
                    let traced = spans.scope("traced.execute", region_id, |_| {
                        run_case(def, case, opts.threads, Some(capacity))
                    });
                    measured.attempted += 1;
                    samples[k]
                        .traced_ns_per_task
                        .push(traced.wall_ns as f64 / case.tasks as f64);
                    match traced.result {
                        Ok(Report::Spec(r)) => observed.trace[k] = r.trace,
                        Ok(Report::Domore(r)) => observed.trace[k] = r.trace,
                        Err(why) => measured.fail(case.name, rounds, &format!("traced: {why}")),
                    }
                }
            }
        });
        rounds += 1;
    }
    measured.measured_s = budget.elapsed_s();

    for (k, case) in cases.iter().enumerate() {
        let s = &samples[k];
        measured.rows.push(Row::from_samples(
            case.name,
            technique_label(case.technique),
            case.tasks,
            &s.ns_per_task,
            &s.ref_ns_per_task,
        ));
        if !s.traced_ns_per_task.is_empty() {
            observed.traced_ns_per_task[k] = Some(stats::first_decile(&s.traced_ns_per_task));
        }
    }
    (measured, observed)
}
