//! `auto_pir`: the "automatically" of the title.
//!
//! `AutoParallelizer::new(T-1)` plans three `ProgramBuilder` nests of ~50k
//! inner iterations — a stencil (→ SPECCROSS), the CG-style nest of
//! `examples/auto_parallelize.rs` (→ DOMORE) and a nest that defeats both
//! (→ barriers) — and every region is one `Decision::execute`. Planning is
//! set-up; the oracle is `crossinvoc_fuzz::oracle`, an evaluator that shares
//! no code with `pir::interp`; the timing baseline is `Interp::run`. A
//! region also fails when the chosen `Strategy` is not the expected one.

use std::collections::BTreeMap;
use std::time::Instant;

use crossinvoc::driver::{AutoParallelizer, Decision, Strategy};
use crossinvoc::pir::interp::{Interp, Memory};
use crossinvoc_fuzz::oracle::run_oracle_fueled;

use crate::inputs::{self, Nest};
use crate::json::RunResult;
use crate::measure::{Budget, Measured, Row, MIN_REGIONS};
use crate::spans::Spans;
use crate::workloads::{end_to_end_result, per_layer_result, timed_setups};
use crate::{layers, Opts};

/// Step budget for the oracle: the nests run ~50k iterations of a few
/// statements each, far below this.
const ORACLE_FUEL: u64 = 200_000_000;

/// The strategy the driver must choose for `nest` with `workers` workers.
pub fn expected_strategy(nest: &Nest, workers: usize) -> Strategy {
    match (nest.name, nest.barrier_below_workers) {
        ("cg", _) => Strategy::Domore,
        (_, Some(distance)) if distance < workers as u64 => Strategy::Barrier,
        _ => Strategy::SpecCross,
    }
}

/// One nest after set-up.
pub struct Planned<'p> {
    /// The input.
    pub nest: &'p Nest,
    /// The driver's decision.
    pub decision: Decision<'p>,
    /// Final memory image according to the oracle.
    pub image: Vec<i64>,
    /// Wall-clock of `AutoParallelizer::plan`, in milliseconds.
    pub plan_ms: f64,
}

/// Plans every nest and runs the oracle on it (the set-up of `auto_pir`).
///
/// # Panics
///
/// Panics if a nest cannot be planned or the oracle rejects it: both are
/// bugs in the benchmark's own inputs.
pub fn plan_all(nests: &[Nest], workers: usize) -> Vec<Planned<'_>> {
    nests
        .iter()
        .map(|nest| {
            let start = Instant::now();
            let decision = AutoParallelizer::new(workers)
                .plan(&nest.program, nest.outer)
                .expect("benchmark nests are top-level loops");
            let plan_ms = start.elapsed().as_secs_f64() * 1e3;
            let image =
                run_oracle_fueled(&nest.program, ORACLE_FUEL).expect("oracle accepts the nest");
            Planned {
                nest,
                decision,
                image,
                plan_ms,
            }
        })
        .collect()
}

/// The round loop: per nest, `Interp::run` then `Decision::execute`.
pub fn run_rounds(
    planned: &[Planned<'_>],
    opts: &Opts,
    seconds: f64,
    spans: &mut Spans,
) -> (Measured, f64) {
    let workers = opts.threads - 1;
    let mut measured = Measured::default();
    let mut matches = 0usize;
    for p in planned {
        let expected = expected_strategy(p.nest, workers);
        if p.decision.strategy() == expected {
            matches += 1;
        } else {
            measured.attempted += 1;
            measured.fail(
                p.nest.name,
                0,
                &format!(
                    "driver chose {}, expected {expected}",
                    p.decision.strategy()
                ),
            );
        }
    }
    let mut samples: Vec<(Vec<f64>, Vec<f64>)> =
        planned.iter().map(|_| Default::default()).collect();
    let mut region_id = 0u64;
    for p in planned {
        let _ = p.decision.execute(&mut Memory::zeroed(&p.nest.program));
    }
    let budget = Budget::start(seconds, opts, MIN_REGIONS);
    let mut rounds = 0;
    while budget.more(rounds, measured.latencies_ms.len()) {
        spans.scope("round", 0, |spans| {
            for (k, p) in planned.iter().enumerate() {
                region_id += 1;
                let program = &p.nest.program;
                let mut seq = Memory::zeroed(program);
                let ref_ns = spans.scope("interp.run", region_id, |_| {
                    let start = Instant::now();
                    Interp::new(program).run(&mut seq);
                    start.elapsed().as_nanos() as f64
                });
                if seq.snapshot() != p.image {
                    measured.attempted += 1;
                    measured.fail(p.nest.name, rounds, "interpreter differs from the oracle");
                }

                let mut mem = Memory::zeroed(program);
                let (wall_ns, result) = spans.scope("driver.execute", region_id, |_| {
                    let start = Instant::now();
                    let result = p.decision.execute(&mut mem);
                    (start.elapsed().as_nanos() as f64, result)
                });
                measured.attempted += 1;
                measured.latencies_ms.push(wall_ns / 1e6);
                let (ns, ref_per_task) = &mut samples[k];
                ns.push(wall_ns / p.nest.tasks as f64);
                ref_per_task.push(ref_ns / p.nest.tasks as f64);
                match result {
                    Err(e) => measured.fail(p.nest.name, rounds, &e.to_string()),
                    Ok(report) if report.degraded => {
                        measured.fail(p.nest.name, rounds, "region degraded to barriers")
                    }
                    Ok(_) if mem.snapshot() != p.image => {
                        measured.fail(p.nest.name, rounds, "final memory differs from the oracle")
                    }
                    Ok(_) => {}
                }
            }
        });
        rounds += 1;
    }
    measured.measured_s = budget.elapsed_s();
    for (p, (ns, ref_per_task)) in planned.iter().zip(&samples) {
        measured.rows.push(Row::from_samples(
            p.nest.name,
            &p.decision.strategy().to_string(),
            p.nest.tasks,
            ns,
            ref_per_task,
        ));
    }
    (measured, matches as f64 / planned.len() as f64)
}

/// The `auto_pir` driver.
pub fn run(opts: &Opts) -> RunResult {
    let workers = opts.threads - 1;
    let nests = inputs::nests(opts.scale(), opts.seed);
    let (planned, setups_s) = timed_setups(opts, || {
        // Building the programs is part of set-up too; the kept plans borrow
        // the nests built once above.
        std::hint::black_box(inputs::nests(opts.scale(), opts.seed));
        plan_all(&nests, workers)
    });
    for p in &planned {
        println!(
            "nest {:<9} {} tasks, planned in {:.2} ms: {} (manifest rate {:.0}%, range {:?})",
            p.nest.name,
            p.nest.tasks,
            p.plan_ms,
            p.decision.strategy(),
            100.0 * p.decision.manifest_rate(),
            p.decision.spec_distance()
        );
    }
    if opts.trace {
        let mut spans = Spans::new(Instant::now(), 1);
        let mut out = BTreeMap::new();
        let mut measured = layers::auto(&planned, opts, &mut spans, &mut out);
        measured.setups_s = setups_s;
        per_layer_result(opts, &measured, &out, &spans)
    } else {
        let (mut measured, _) = run_rounds(&planned, opts, opts.seconds, &mut Spans::disabled());
        measured.setups_s = setups_s;
        end_to_end_result(opts, &measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_workloads::Scale;

    #[test]
    fn driver_chooses_the_expected_strategy_for_every_nest() {
        let nests = inputs::nests(Scale::Test, 0xC602013);
        for workers in [1, 2, 3] {
            for p in plan_all(&nests, workers) {
                assert_eq!(
                    p.decision.strategy(),
                    expected_strategy(p.nest, workers),
                    "{} with {workers} workers",
                    p.nest.name
                );
            }
        }
        let at_three: Vec<Strategy> = plan_all(&nests, 3)
            .iter()
            .map(|p| p.decision.strategy())
            .collect();
        assert_eq!(
            at_three,
            [Strategy::SpecCross, Strategy::Domore, Strategy::Barrier]
        );
    }

    #[test]
    fn planned_nests_execute_to_the_oracle_image() {
        let nests = inputs::nests(Scale::Test, 7);
        for p in plan_all(&nests, 2) {
            let mut mem = Memory::zeroed(&p.nest.program);
            p.decision.execute(&mut mem).unwrap();
            assert_eq!(mem.snapshot(), p.image, "{}", p.nest.name);
        }
    }

    #[test]
    fn nests_follow_the_seed() {
        let image = |seed| -> Vec<Vec<i64>> {
            let nests = inputs::nests(Scale::Test, seed);
            plan_all(&nests, 1).into_iter().map(|p| p.image).collect()
        };
        assert_eq!(image(1), image(1));
        assert_ne!(image(1), image(2));
    }
}
