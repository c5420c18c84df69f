//! Executes one case through every applicable engine path and diffs the
//! observable outcomes against the sequential oracle.
//!
//! Outcome contract (the acceptance property of the differential fuzzer):
//!
//! * A path that returns `Ok` — degraded or not — must leave memory
//!   **byte-identical** to the oracle's final image.
//! * A path that returns a typed error is acceptable **only when the case
//!   injects faults** (a fault-free typed error is a divergence).
//! * Panics that escape an engine, hangs (bounded by each engine's
//!   watchdog plus the harness timeout in CI), and oracle rejections of a
//!   generated program are divergences.
//!
//! Verdict streams of the *threaded* engines are timing-dependent (whether
//! a cross-epoch conflict materializes depends on actual overlap), so
//! verdict equality is asserted where it is deterministic: the discrete
//! simulators, replaying the region's recorded access trace, must produce
//! identical misspeculation counts and schedules with the epoch-summary
//! and schedule-memo fast paths on and off.
//!
//! The simulated `sim` path is also the fuzzer-driven virtual-time run of
//! the *engine's* checker: `crossinvoc_sim::speccross` admits every task
//! through `speccross::check::CheckerState`, so what the lane holds equal
//! is the real checker with and without its epoch summaries on a
//! deterministic timeline. The threaded engine always runs with them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossinvoc_domore::policy::RoundRobin;
use crossinvoc_domore::runtime::DomoreConfig;
use crossinvoc_pir::{DomorePlan, Memory, SpecCrossPlan};
use crossinvoc_runtime::metrics::MetricsSummary;
use crossinvoc_runtime::pool::WorkerPool;
use crossinvoc_runtime::signature::{AccessKind, BloomSignature, RangeSignature};
use crossinvoc_runtime::telemetry::{FlightRecorder, RegionState, RegionTelemetry, ServerRegistry};
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::engine::{DegradePolicy, SpecConfig};

use crate::gen::{FuzzCase, SigKind};
use crate::oracle::run_oracle;

/// Watchdog handed to every threaded engine run. Far above any legitimate
/// case runtime; far below the harness timeout in CI.
const WATCHDOG: Duration = Duration::from_secs(10);

/// One observed disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which execution path disagreed.
    pub path: &'static str,
    /// What was observed.
    pub detail: String,
}

/// Everything `run_case` learned about one case.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Paths that executed (for coverage accounting).
    pub paths_run: Vec<&'static str>,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
    /// Whether `SpecCrossPlan::build` accepted the region.
    pub spec_applicable: bool,
    /// Whether `DomorePlan::build` accepted the nest.
    pub domore_applicable: bool,
    /// Whether a threaded SPECCROSS path ran a wide pass (the case's task
    /// grain decides: see [`FuzzCase::task_grain_ns`]).
    pub wide: bool,
}

impl DiffReport {
    fn diverge(&mut self, path: &'static str, detail: String) {
        if self.divergence.is_none() {
            self.divergence = Some(Divergence { path, detail });
        }
    }
}

/// Replays a recorded region through the simulators.
struct RecordedWorkload {
    epochs: Vec<Vec<Vec<(usize, AccessKind)>>>,
    space: usize,
}

impl RecordedWorkload {
    fn new(epochs: Vec<Vec<Vec<(usize, AccessKind)>>>) -> Self {
        let space = epochs
            .iter()
            .flatten()
            .flatten()
            .map(|&(a, _)| a + 1)
            .max()
            .unwrap_or(1);
        Self { epochs, space }
    }
}

impl SimWorkload for RecordedWorkload {
    fn num_invocations(&self) -> usize {
        self.epochs.len()
    }

    fn num_iterations(&self, inv: usize) -> usize {
        self.epochs[inv].len()
    }

    fn iteration_cost(&self, _inv: usize, _iter: usize) -> u64 {
        90
    }

    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        out.extend(self.epochs[inv][iter].iter().copied());
    }

    fn address_space(&self) -> Option<usize> {
        Some(self.space)
    }
}

/// Runs every applicable path for `case` and returns the classified
/// outcome. Never panics; engine panics are caught and reported.
pub fn run_case(case: &FuzzCase) -> DiffReport {
    let mut report = DiffReport::default();
    let faults_empty = case.faults.is_empty();

    // Path 0: the independent oracle. A rejection here is a generator (or
    // corpus-entry) bug and is reported as a divergence on its own path.
    report.paths_run.push("oracle");
    let expected = match run_oracle(&case.program) {
        Ok(mem) => mem,
        Err(e) => {
            report.diverge("oracle", format!("oracle rejected the program: {e}"));
            return report;
        }
    };

    // Path 1: the production sequential interpreter vs the oracle.
    report.paths_run.push("seq");
    match exec_caught(
        "seq",
        |mem| {
            crossinvoc_pir::Interp::new(&case.program).run(mem);
            Ok::<(), String>(())
        },
        case,
    ) {
        Outcome::Ok(mem) => {
            if mem != expected {
                report.diverge("seq", first_mismatch(&expected, &mem));
            }
        }
        Outcome::Err(e) => report.diverge("seq", format!("interpreter error: {e}")),
        Outcome::Panicked(p) => report.diverge("seq", format!("interpreter panicked: {p}")),
    }
    if report.divergence.is_some() {
        return report;
    }

    let Some(outer) = case.outer() else {
        return report; // no region: sequential paths are the whole story
    };

    // SPECCROSS paths.
    if let Ok(plan) = SpecCrossPlan::build(&case.program, outer) {
        let plan = plan.task_grain(case.task_grain_ns);
        report.spec_applicable = true;
        let distance = if case.gate_distance {
            let mut scratch = Memory::zeroed(&case.program);
            plan.profile(&mut scratch, 4).min_distance
        } else {
            None
        };
        let base = || {
            let mut c = SpecConfig::with_workers(case.workers)
                .checkpoint_every(case.checkpoint_every)
                .spec_distance(distance)
                .fault_plan(case.faults.clone())
                .watchdog(WATCHDOG);
            if case.degrade {
                c = c.degrade(DegradePolicy::default());
            }
            c
        };

        report.paths_run.push("spec");
        let out = exec_caught(
            "spec",
            |mem| {
                let run = match case.signature {
                    SigKind::Range => plan.execute_sig::<RangeSignature>(mem, base()),
                    SigKind::Bloom => plan.execute_sig::<BloomSignature>(mem, base()),
                };
                run.map(|r| report.wide = r.stats.wide_passes > 0)
            },
            case,
        );
        check_outcome(&mut report, "spec", out, &expected, faults_empty);

        report.paths_run.push("barrier");
        let out = exec_caught(
            "barrier",
            |mem| plan.execute_with_barriers(mem, base()).map(|_| ()),
            case,
        );
        check_outcome(&mut report, "barrier", out, &expected, faults_empty);

        // Deterministic verdict streams: replay the recorded region through
        // the simulators with each fast path on and off.
        report.paths_run.push("sim");
        let mut scratch = Memory::zeroed(&case.program);
        let recorded = RecordedWorkload::new(plan.record_region(&mut scratch));
        let cost = CostModel::default();
        let params = || {
            SpecSimParams::with_threads(case.workers)
                .checkpoint_every(case.checkpoint_every)
                .spec_distance(distance)
                .fault_plan(case.faults.clone())
        };
        let sim_on = speccross(&recorded, &params().epoch_summaries(true), &cost);
        let sim_off = speccross(&recorded, &params().epoch_summaries(false), &cost);
        if sim_on.stats.misspeculations != sim_off.stats.misspeculations
            || sim_on.stats.tasks != sim_off.stats.tasks
            || sim_on.degraded != sim_off.degraded
        {
            report.diverge(
                "sim",
                format!(
                    "epoch summaries changed the sim verdict stream: \
                     on = {{misspec: {}, tasks: {}, degraded: {}}}, \
                     off = {{misspec: {}, tasks: {}, degraded: {}}}",
                    sim_on.stats.misspeculations,
                    sim_on.stats.tasks,
                    sim_on.degraded,
                    sim_off.stats.misspeculations,
                    sim_off.stats.tasks,
                    sim_off.degraded,
                ),
            );
        }
        let memo_on =
            domore_configured(&recorded, case.workers, &mut RoundRobin, &cost, None, true);
        let memo_off =
            domore_configured(&recorded, case.workers, &mut RoundRobin, &cost, None, false);
        if memo_on.stats.tasks != memo_off.stats.tasks
            || memo_on.stats.sync_conditions != memo_off.stats.sync_conditions
        {
            report.diverge(
                "sim",
                format!(
                    "schedule memo changed the sim schedule: \
                     on = {{tasks: {}, syncs: {}}}, off = {{tasks: {}, syncs: {}}}",
                    memo_on.stats.tasks,
                    memo_on.stats.sync_conditions,
                    memo_off.stats.tasks,
                    memo_off.stats.sync_conditions,
                ),
            );
        }
    }

    // DOMORE paths.
    if let Some(inner) = case.inner() {
        if let Ok(plan) = DomorePlan::build(&case.program, outer, inner) {
            report.domore_applicable = true;
            for (path, memo) in [("domore+memo", true), ("domore-memo", false)] {
                report.paths_run.push(path);
                let config = DomoreConfig::with_workers(case.workers)
                    .fault_plan(case.faults.clone())
                    .watchdog(WATCHDOG)
                    .schedule_memo(memo);
                let out = exec_caught(path, |mem| plan.execute_with(mem, config).map(|_| ()), case);
                check_outcome(&mut report, path, out, &expected, faults_empty);
            }
        }
    }

    report
}

/// Runs two generated cases *concurrently* through one shared
/// [`WorkerPool`] — the region-server deployment shape — and diffs each
/// against its own sequential oracle under the standard outcome contract
/// (`Ok` ⇒ byte-identical memory; a typed error only when *that* case
/// injects faults; escaped panics always diverge).
///
/// For a fault-free pair this is exactly the solo contract: the shared
/// pool must be observationally invisible. Under faults the outcome
/// *class* may legitimately differ from a solo replay (rollback windows
/// are timing-dependent), but the contract itself still binds. Each case
/// runs its preferred parallel plan — SPECCROSS when applicable, else
/// DOMORE, else the sequential interpreter (still on its own thread, so
/// the pairing pressure on the pool is preserved for the other case).
///
/// Divergences are attributed to path `regions-a` / `regions-b`.
pub fn run_concurrent_pair(a: &FuzzCase, b: &FuzzCase) -> DiffReport {
    let mut report = DiffReport::default();
    report.paths_run.push("regions-a");
    report.paths_run.push("regions-b");

    let mut oracles = Vec::new();
    for (path, case) in [("regions-a", a), ("regions-b", b)] {
        match run_oracle(&case.program) {
            Ok(mem) => oracles.push(mem),
            Err(e) => {
                report.diverge(path, format!("oracle rejected the program: {e}"));
                return report;
            }
        }
    }

    // Size the pool so both regions' gangs can be in flight at once:
    // spec demand = workers + the checker, domore demand = workers
    // (the scheduler rides the submitting thread).
    let demand = |case: &FuzzCase| case.workers + 1;
    let pool = WorkerPool::new(demand(a) + demand(b));

    let (out_a, out_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| run_pair_region(a, &pool, None).0);
        let hb = scope.spawn(|| run_pair_region(b, &pool, None).0);
        (
            ha.join()
                .unwrap_or_else(|p| Outcome::Panicked(panic_message(&*p))),
            hb.join()
                .unwrap_or_else(|p| Outcome::Panicked(panic_message(&*p))),
        )
    });

    check_outcome(
        &mut report,
        "regions-a",
        out_a,
        &oracles[0],
        a.faults.is_empty(),
    );
    check_outcome(
        &mut report,
        "regions-b",
        out_b,
        &oracles[1],
        b.faults.is_empty(),
    );
    report
}

/// Runs one case of a shared-pool pair through its preferred parallel plan
/// (SPECCROSS when applicable, else DOMORE, else the sequential
/// interpreter), optionally with a telemetry cell stamped into the engine
/// config. Returns the outcome plus the engine's final [`MetricsSummary`]
/// when a parallel plan completed (`None` for sequential fallbacks and
/// failed runs), so callers can hold the live registry to the engine's own
/// verdict stream.
///
/// When a cell is attached, the engine drives its lifecycle; the fallback
/// paths here finish it by hand so every registered cell reaches a
/// terminal state (the finish is idempotent — first writer wins).
fn run_pair_region(
    case: &FuzzCase,
    pool: &WorkerPool,
    cell: Option<&Arc<RegionTelemetry>>,
) -> (Outcome, Option<MetricsSummary>) {
    let sequential = |cell: Option<&Arc<RegionTelemetry>>| {
        let out = exec_caught(
            "regions",
            |mem| {
                crossinvoc_pir::Interp::new(&case.program).run(mem);
                Ok::<(), String>(())
            },
            case,
        );
        if let Some(cell) = cell {
            cell.mark_running();
            cell.complete(0, false, None);
        }
        (out, None)
    };
    let Some(outer) = case.outer() else {
        return sequential(cell);
    };
    let metrics = Mutex::new(None);
    let outcome = if let Ok(plan) = SpecCrossPlan::build(&case.program, outer) {
        let plan = plan.task_grain(case.task_grain_ns);
        let mut config = SpecConfig::with_workers(case.workers)
            .checkpoint_every(case.checkpoint_every)
            .fault_plan(case.faults.clone())
            .watchdog(WATCHDOG);
        if case.degrade {
            config = config.degrade(DegradePolicy::default());
        }
        if let Some(cell) = cell {
            config = config.telemetry(Arc::clone(cell));
        }
        match case.signature {
            SigKind::Range => exec_caught(
                "regions",
                |mem| {
                    plan.execute_sig_on::<RangeSignature>(mem, config, pool)
                        .map(|r| *metrics.lock().unwrap() = Some(r.metrics))
                },
                case,
            ),
            SigKind::Bloom => exec_caught(
                "regions",
                |mem| {
                    plan.execute_sig_on::<BloomSignature>(mem, config, pool)
                        .map(|r| *metrics.lock().unwrap() = Some(r.metrics))
                },
                case,
            ),
        }
    } else if let Some(plan) = case
        .inner()
        .and_then(|inner| DomorePlan::build(&case.program, outer, inner).ok())
    {
        let mut config = DomoreConfig::with_workers(case.workers)
            .fault_plan(case.faults.clone())
            .watchdog(WATCHDOG);
        if let Some(cell) = cell {
            config = config.telemetry(Arc::clone(cell));
        }
        exec_caught(
            "regions",
            |mem| {
                plan.execute_with_on(mem, config, pool)
                    .map(|r| *metrics.lock().unwrap() = Some(r.metrics))
            },
            case,
        )
    } else {
        return sequential(cell);
    };
    if let Some(cell) = cell {
        // Safety net for a panic that escaped before the engine finished
        // the cell; a no-op for normally-finished cells.
        match &outcome {
            Outcome::Ok(_) => cell.complete(0, false, None),
            _ => cell.fail(None),
        }
    }
    (outcome, metrics.into_inner().unwrap())
}

/// Runs the shared-pool pair of [`run_concurrent_pair`] twice — telemetry
/// plane detached, then attached (a [`ServerRegistry`] with an armed
/// [`FlightRecorder`] on the same pool shape) — and asserts the plane is
/// observationally invisible:
///
/// * each telemetry-on region still satisfies the standard oracle
///   contract (memory digest, typed-error policy, no escaped panics);
/// * for a fault-free pair the two settings must agree on outcome class
///   and final memory byte-for-byte (verdict *counts* of the threaded
///   engines are timing-dependent — see the module docs — so stream
///   equality is asserted where it is deterministic, next);
/// * within the telemetry-on run, every region's registry snapshot row
///   must carry exactly the [`MetricsSummary`] its engine reported — the
///   registry may not fork, dampen, or re-derive the verdict stream — and
///   every registered cell must reach a terminal state.
///
/// Divergences are attributed to `regions-a-telemetry` /
/// `regions-b-telemetry`.
pub fn run_concurrent_pair_telemetry(a: &FuzzCase, b: &FuzzCase) -> DiffReport {
    let mut report = DiffReport::default();
    report.paths_run.push("regions-a-telemetry");
    report.paths_run.push("regions-b-telemetry");

    let mut oracles = Vec::new();
    for (path, case) in [("regions-a-telemetry", a), ("regions-b-telemetry", b)] {
        match run_oracle(&case.program) {
            Ok(mem) => oracles.push(mem),
            Err(e) => {
                report.diverge(path, format!("oracle rejected the program: {e}"));
                return report;
            }
        }
    }

    let demand = |case: &FuzzCase| case.workers + 1;
    let slots = demand(a) + demand(b);

    // One full pair run per setting; pool and registry are rebuilt so both
    // settings start from identical state.
    let run_setting = |telemetry: bool| {
        let pool = WorkerPool::new(slots);
        let registry = telemetry.then(|| {
            let registry =
                Arc::new(ServerRegistry::new(slots).with_recorder(FlightRecorder::new(128)));
            pool.attach_telemetry(Arc::clone(&registry));
            registry
        });
        let cells: Vec<Option<Arc<RegionTelemetry>>> = [a, b]
            .into_iter()
            .enumerate()
            .map(|(i, case)| {
                registry
                    .as_ref()
                    .map(|r| r.register(i as u64 + 1, "fuzz-pair", demand(case)))
            })
            .collect();
        let (ra, rb) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| run_pair_region(a, &pool, cells[0].as_ref()));
            let hb = scope.spawn(|| run_pair_region(b, &pool, cells[1].as_ref()));
            (
                ha.join()
                    .unwrap_or_else(|p| (Outcome::Panicked(panic_message(&*p)), None)),
                hb.join()
                    .unwrap_or_else(|p| (Outcome::Panicked(panic_message(&*p)), None)),
            )
        });
        (ra, rb, registry)
    };

    let ((off_a, _), (off_b, _), _) = run_setting(false);
    let ((on_a, metrics_a), (on_b, metrics_b), registry) = run_setting(true);

    // Registry-side checks: terminal states and verdict-stream fidelity
    // (snapshot rows must mirror the engines' own reports exactly — the
    // metrics-aliasing guarantee of region-server mode).
    let registry = registry.expect("telemetry setting always builds a registry");
    let snapshot = registry.snapshot();
    for (path, row, metrics) in [
        ("regions-a-telemetry", &snapshot.regions[0], &metrics_a),
        ("regions-b-telemetry", &snapshot.regions[1], &metrics_b),
    ] {
        if !matches!(row.state, RegionState::Done | RegionState::Faulted) {
            report.diverge(
                path,
                format!("region cell never finished: state {:?}", row.state),
            );
        }
        if let Some(metrics) = metrics {
            if row.metrics != *metrics {
                report.diverge(
                    path,
                    format!(
                        "registry forked the verdict stream: snapshot {:?} != report {:?}",
                        row.metrics, metrics
                    ),
                );
            }
        }
    }

    // Cross-setting checks, deterministic only for a fault-free pair (see
    // run_concurrent_pair on why outcome classes may shift under faults).
    if a.faults.is_empty() && b.faults.is_empty() {
        for (path, off, on) in [
            ("regions-a-telemetry", &off_a, &on_a),
            ("regions-b-telemetry", &off_b, &on_b),
        ] {
            match (off, on) {
                (Outcome::Ok(off_mem), Outcome::Ok(on_mem)) if off_mem != on_mem => {
                    report.diverge(
                        path,
                        format!(
                            "telemetry changed the region digest: {}",
                            first_mismatch(off_mem, on_mem)
                        ),
                    );
                }
                (Outcome::Ok(_), Outcome::Ok(_)) => {}
                (Outcome::Ok(_), _) | (_, Outcome::Ok(_)) => {
                    report.diverge(
                        path,
                        "telemetry changed the outcome class of a fault-free region".to_string(),
                    );
                }
                _ => {}
            }
        }
    }

    check_outcome(
        &mut report,
        "regions-a-telemetry",
        on_a,
        &oracles[0],
        a.faults.is_empty(),
    );
    check_outcome(
        &mut report,
        "regions-b-telemetry",
        on_b,
        &oracles[1],
        b.faults.is_empty(),
    );
    report
}

/// What one engine execution produced.
enum Outcome {
    /// Completed; final memory image.
    Ok(Vec<i64>),
    /// Typed engine error.
    Err(String),
    /// A panic escaped the engine.
    Panicked(String),
}

fn exec_caught<E: std::fmt::Debug>(
    _path: &'static str,
    run: impl FnOnce(&mut Memory) -> Result<(), E>,
    case: &FuzzCase,
) -> Outcome {
    let mut mem = Memory::zeroed(&case.program);
    match catch_unwind(AssertUnwindSafe(|| run(&mut mem))) {
        Ok(Ok(())) => Outcome::Ok(mem.snapshot()),
        Ok(Err(e)) => Outcome::Err(format!("{e:?}")),
        Err(p) => Outcome::Panicked(panic_message(&p)),
    }
}

fn check_outcome(
    report: &mut DiffReport,
    path: &'static str,
    out: Outcome,
    expected: &[i64],
    faults_empty: bool,
) {
    match out {
        Outcome::Ok(mem) => {
            if mem != expected {
                report.diverge(path, first_mismatch(expected, &mem));
            }
        }
        Outcome::Err(e) => {
            if faults_empty {
                report.diverge(path, format!("typed error without injected faults: {e}"));
            }
        }
        Outcome::Panicked(p) => {
            report.diverge(path, format!("panic escaped the engine: {p}"));
        }
    }
}

fn first_mismatch(expected: &[i64], got: &[i64]) -> String {
    if expected.len() != got.len() {
        return format!(
            "memory size mismatch: expected {} cells, got {}",
            expected.len(),
            got.len()
        );
    }
    let diffs: Vec<usize> = (0..expected.len())
        .filter(|&i| expected[i] != got[i])
        .collect();
    let first = diffs.first().copied().unwrap_or(0);
    format!(
        "memory diverges at {} of {} cells, first at addr {first}: expected {}, got {}",
        diffs.len(),
        expected.len(),
        expected.get(first).copied().unwrap_or(0),
        got.get(first).copied().unwrap_or(0),
    )
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};

    #[test]
    fn fault_free_seeds_run_clean() {
        let params = GenParams {
            fault_percent: 0,
            ..GenParams::default()
        };
        for seed in 0..25 {
            let case = generate(seed, &params);
            let r = run_case(&case);
            assert!(
                r.divergence.is_none(),
                "seed {seed} ({}): {:?}",
                case.note,
                r.divergence
            );
        }
    }

    #[test]
    fn fault_free_pairs_share_a_pool_cleanly() {
        let params = GenParams {
            fault_percent: 0,
            ..GenParams::default()
        };
        for seed in (0..16).step_by(2) {
            let a = generate(seed, &params);
            let b = generate(seed + 1, &params);
            let r = run_concurrent_pair(&a, &b);
            assert!(
                r.divergence.is_none(),
                "pair ({seed}, {}) [{} | {}]: {:?}",
                seed + 1,
                a.note,
                b.note,
                r.divergence
            );
        }
    }

    #[test]
    fn telemetry_is_invisible_on_fault_free_pairs() {
        let params = GenParams {
            fault_percent: 0,
            ..GenParams::default()
        };
        for seed in (0..12).step_by(2) {
            let a = generate(seed, &params);
            let b = generate(seed + 1, &params);
            let r = run_concurrent_pair_telemetry(&a, &b);
            assert!(
                r.divergence.is_none(),
                "pair ({seed}, {}) [{} | {}]: {:?}",
                seed + 1,
                a.note,
                b.note,
                r.divergence
            );
        }
    }

    #[test]
    fn telemetry_pairs_hold_the_contract_under_faults() {
        let params = GenParams {
            fault_percent: 100,
            ..GenParams::default()
        };
        for seed in (0..8).step_by(2) {
            let a = generate(seed, &params);
            let b = generate(seed + 1, &params);
            let r = run_concurrent_pair_telemetry(&a, &b);
            assert!(
                r.divergence.is_none(),
                "pair ({seed}, {}): {:?}",
                seed + 1,
                r.divergence
            );
        }
    }

    #[test]
    fn faulty_pairs_terminate_with_clean_outcomes() {
        let params = GenParams {
            fault_percent: 100,
            ..GenParams::default()
        };
        for seed in (0..10).step_by(2) {
            let a = generate(seed, &params);
            let b = generate(seed + 1, &params);
            let r = run_concurrent_pair(&a, &b);
            assert!(
                r.divergence.is_none(),
                "pair ({seed}, {}): {:?}",
                seed + 1,
                r.divergence
            );
        }
    }

    #[test]
    fn faulty_seeds_terminate_with_clean_outcomes() {
        let params = GenParams {
            fault_percent: 100,
            ..GenParams::default()
        };
        for seed in 0..15 {
            let case = generate(seed, &params);
            let r = run_case(&case);
            assert!(
                r.divergence.is_none(),
                "seed {seed} ({}): {:?}",
                case.note,
                r.divergence
            );
        }
    }
}
