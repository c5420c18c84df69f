//! Running and verifying one region through the engines' public entry
//! points, under the benchmark's thread rule: with `T` engine threads
//! SPECCROSS gets `T-1` workers + 1 checker, DOMORE `T-1` workers + the
//! scheduler on the calling thread, the barrier reference `T` workers.

use std::time::Instant;

use crossinvoc_domore::runtime::{DomoreConfig, DomoreRuntime, ExecutionReport};
use crossinvoc_runtime::{FaultPlan, RangeSignature};
use crossinvoc_speccross::{SpecConfig, SpecCrossEngine, SpecReport};

use crate::inputs::{BenchKernel, Case, EngineDef};

/// `T = clamp(nproc, 2, 4)`: one more runnable thread than cores swung the
/// probe's medians by 30 %, `T` threads by at most 8 %.
pub fn default_threads() -> usize {
    available_cores().clamp(2, 4)
}

/// Cores this process may run on.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SPECCROSS configuration a case runs under: default `SpecConfig`,
/// profiled range, the workload's checkpoint interval and injected faults.
pub fn spec_config<K>(def: &EngineDef, case: &Case<K>, threads: usize) -> SpecConfig {
    let config = SpecConfig::with_workers(threads - 1)
        .spec_distance(case.distance)
        .checkpoint_every(def.checkpoint_every);
    if case.fault_epochs.is_empty() {
        return config;
    }
    config.fault_plan(false_positives(&case.fault_epochs))
}

/// A fault plan forcing one false-positive conflict at each of `epochs`.
pub fn false_positives(epochs: &[u32]) -> FaultPlan {
    epochs.iter().fold(FaultPlan::new(), |plan, &epoch| {
        plan.false_positive_at(epoch)
    })
}

/// The DOMORE configuration a case runs under: thesis-implied policy, memo
/// off unless the one-factor rerun asks for it.
pub fn domore_runtime<K>(
    case: &Case<K>,
    threads: usize,
    memo: bool,
    trace: Option<usize>,
) -> DomoreRuntime {
    let mut config = DomoreConfig::with_workers(threads - 1).schedule_memo(memo);
    if let Some(capacity) = trace {
        config = config.trace(capacity);
    }
    DomoreRuntime::new(config).with_dispatch(case.dispatch)
}

/// What one region returned.
#[derive(Debug)]
pub enum Report {
    /// A SPECCROSS (or barrier-mode) report.
    Spec(SpecReport),
    /// A DOMORE report.
    Domore(ExecutionReport),
}

/// One timed region: submit-to-result wall-clock and the verdict.
#[derive(Debug)]
pub struct Outcome {
    /// Wall-clock of the engine call.
    pub wall_ns: u64,
    /// The engine's report, or why the region failed.
    pub result: Result<Report, String>,
}

#[cfg(test)]
impl Outcome {
    /// The SPECCROSS report of a successful region.
    pub fn spec(&self) -> Option<&SpecReport> {
        match &self.result {
            Ok(Report::Spec(r)) => Some(r),
            _ => None,
        }
    }
}

/// Compares the kernel's memory with the reference image.
fn memory_matches<K: BenchKernel>(case: &Case<K>) -> Result<(), String> {
    if case.kernel.snapshot() == case.image {
        Ok(())
    } else {
        Err("final memory differs from the independent reference".to_string())
    }
}

/// Runs `case` under SPECCROSS with `config` and verifies memory, the
/// degraded flag and the misspeculation count.
pub fn run_spec<K: BenchKernel>(
    case: &Case<K>,
    config: SpecConfig,
    expect_misspecs: u64,
) -> Outcome {
    let engine = SpecCrossEngine::<RangeSignature>::new(config);
    case.kernel.access().reset();
    let start = Instant::now();
    let result = engine.execute(&case.kernel);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let result = result.map_err(|e| e.to_string()).and_then(|report| {
        memory_matches(case)?;
        if report.degraded {
            return Err("region degraded to barriers".to_string());
        }
        if report.stats.misspeculations != expect_misspecs {
            return Err(format!(
                "{} misspeculations, expected {expect_misspecs}",
                report.stats.misspeculations
            ));
        }
        Ok(Report::Spec(report))
    });
    Outcome { wall_ns, result }
}

/// Runs `case` under non-speculative barriers with `threads` workers (the
/// paper's baseline) and verifies memory.
pub fn run_barrier<K: BenchKernel>(case: &Case<K>, threads: usize) -> Outcome {
    let engine = SpecCrossEngine::<RangeSignature>::new(SpecConfig::with_workers(threads));
    case.kernel.access().reset();
    let start = Instant::now();
    let result = engine.execute_with_barriers(&case.kernel);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let result = result
        .map_err(|e| e.to_string())
        .and_then(|report| memory_matches(case).map(|()| Report::Spec(report)));
    Outcome { wall_ns, result }
}

/// Runs `case` under DOMORE and verifies memory.
pub fn run_domore<K: BenchKernel>(case: &Case<K>, mut runtime: DomoreRuntime) -> Outcome {
    case.kernel.access().reset();
    let start = Instant::now();
    let result = runtime.execute(&case.kernel);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let result = result
        .map_err(|e| e.to_string())
        .and_then(|report| memory_matches(case).map(|()| Report::Domore(report)));
    Outcome { wall_ns, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Model, Technique};
    use crossinvoc_workloads::{AccessKernel, Scale};

    #[test]
    fn spec_recover_reports_exactly_eight_misspeculations() {
        let def = inputs::SPEC_RECOVER;
        for case in inputs::build::<AccessKernel<Model>>(&def, Scale::Figure, 0xC602013) {
            for threads in [2, 3] {
                let outcome = run_spec(&case, spec_config(&def, &case, threads), 8);
                let report = outcome.spec().unwrap_or_else(|| {
                    panic!("{} at {threads} threads: {:?}", case.name, outcome.result)
                });
                assert_eq!(report.stats.misspeculations, 8);
                assert!(
                    report.stats.tasks > case.tasks,
                    "rollback re-executes tasks"
                );
            }
        }
    }

    #[test]
    fn every_engine_path_reproduces_the_reference() {
        let def = inputs::COARSE_MIX;
        for case in inputs::build::<inputs::Coarse>(&def, Scale::Test, 3) {
            let outcome = match case.technique {
                Technique::Spec => run_spec(&case, spec_config(&def, &case, 2), 0),
                Technique::Domore => run_domore(&case, domore_runtime(&case, 2, false, None)),
            };
            assert!(
                outcome.result.is_ok(),
                "{}: {:?}",
                case.name,
                outcome.result
            );
            // Only DOALL inner loops may run as barrier-separated epochs.
            if case.technique == Technique::Spec {
                let barrier = run_barrier(&case, 2);
                assert!(
                    barrier.result.is_ok(),
                    "{} barrier: {:?}",
                    case.name,
                    barrier.result
                );
            }
        }
    }

    #[test]
    fn a_corrupted_reference_image_is_reported_as_a_failure() {
        let def = inputs::SPEC_FINE;
        let mut case = inputs::build_case::<AccessKernel<Model>>(&def, 0, Scale::Test, 3);
        case.image[0] ^= 1;
        let outcome = run_spec(&case, spec_config(&def, &case, 2), 0);
        assert!(outcome.result.unwrap_err().contains("differs"));
    }
}
