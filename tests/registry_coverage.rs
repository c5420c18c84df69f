//! Registry-wide coverage: every Table 5.1 model is internally consistent,
//! profiles deterministically, simulates with conserved task counts, and
//! (for the SPECCROSS set) runs correctly on the real engine under Bloom
//! signatures as well as the default ranges.

use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_runtime::BloomSignature;
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::SpecCrossEngine;
use crossinvoc_workloads::kernel::{profile_distance, AccessKernel};
use crossinvoc_workloads::{registry, Scale};

/// Models must declare address spaces that actually bound their accesses.
#[test]
fn declared_address_spaces_bound_all_accesses() {
    for info in registry() {
        let model = info.model(Scale::Test);
        let space = model.address_space().expect("all models declare space");
        let mut pairs = Vec::new();
        for inv in 0..model.num_invocations() {
            for iter in 0..model.num_iterations(inv) {
                pairs.clear();
                model.accesses(inv, iter, &mut pairs);
                for &(addr, _) in &pairs {
                    assert!(
                        addr < space,
                        "{}: address {addr} outside space {space}",
                        info.name
                    );
                }
            }
        }
    }
}

/// Same-invocation tasks never write-conflict on the SPECCROSS set: the
/// engine's precondition that inner loops are barrier-free parallel
/// (checked exhaustively at test scale). The Spec-DOALL programs (ECLAT,
/// BLACKSCHOLES) are exempt — their rare intra-invocation conflicts are
/// exactly why Table 5.1 assigns them Spec-DOALL and keeps them off the
/// SPECCROSS list, which a companion assertion pins down.
#[test]
fn same_invocation_writes_are_conflict_free() {
    use crossinvoc_workloads::InnerPlan;
    for info in registry() {
        if info.inner_plan == InnerPlan::SpecDoall {
            assert!(
                !info.speccross,
                "{}: Spec-DOALL inner loops cannot feed SPECCROSS",
                info.name
            );
            continue;
        }
        if !info.speccross {
            continue;
        }
        let model = info.model(Scale::Test);
        for inv in 0..model.num_invocations() {
            let mut writers: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            let mut pairs = Vec::new();
            for iter in 0..model.num_iterations(inv) {
                pairs.clear();
                model.accesses(inv, iter, &mut pairs);
                for &(addr, kind) in &pairs {
                    if kind == AccessKind::Write {
                        if let Some(&other) = writers.get(&addr) {
                            panic!(
                                "{}: invocation {inv} tasks {other} and {iter} both write {addr}",
                                info.name
                            );
                        }
                        writers.insert(addr, iter);
                    }
                }
            }
        }
    }
}

/// Simulated executors conserve the task count across techniques.
#[test]
fn simulated_task_counts_are_conserved() {
    let cost = CostModel::default();
    for info in registry() {
        let model = info.model(Scale::Test);
        let total = model.total_iterations();
        let seq = sequential(model.as_ref(), &cost);
        assert_eq!(seq.stats.tasks, total, "{} sequential", info.name);
        let bar = barrier(model.as_ref(), 4, &cost);
        assert_eq!(bar.stats.tasks, total, "{} barrier", info.name);
        let distance = profile_distance(model.as_ref(), 6).min_distance;
        let params = SpecSimParams::with_threads(4).spec_distance(distance);
        let spec = speccross(model.as_ref(), &params, &cost);
        assert!(
            spec.stats.tasks >= total,
            "{} speccross lost tasks",
            info.name
        );
        if spec.stats.misspeculations == 0 {
            assert_eq!(spec.stats.tasks, total, "{} speccross", info.name);
        }
    }
}

/// The real engine under Bloom signatures reproduces sequential results on
/// every SPECCROSS benchmark (false positives may trigger recovery; the
/// answer must survive it).
#[test]
fn bloom_signatures_preserve_results_on_the_speccross_set() {
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Test);
        let distance = profile_distance(model.as_ref(), 6).min_distance;
        let kernel = AccessKernel::from_model(info.model(Scale::Test));
        let expected = kernel.sequential_checksum();
        SpecCrossEngine::<BloomSignature>::new(SpecConfig::with_workers(2).spec_distance(distance))
            .execute(&kernel)
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        assert_eq!(kernel.checksum(), expected, "{} diverged", info.name);
    }
}

/// Profiling the same model twice gives identical reports (determinism of
/// the whole input-generation + profiling pipeline).
#[test]
fn profiles_are_deterministic_across_reconstruction() {
    for info in registry() {
        let a = profile_distance(info.model(Scale::Test).as_ref(), 6);
        let b = profile_distance(info.model(Scale::Test).as_ref(), 6);
        assert_eq!(a, b, "{}", info.name);
    }
}

/// The plain scan `profile_distance` must reproduce: every task against
/// every task of the `window` previous epochs, newest first, stopping once
/// past the running minimum; a conflict within it is counted and lowers it.
fn reference_profile(model: &dyn SimWorkload, window: u64) -> ProfileReport {
    let mut history: Vec<(u64, u64, RangeSignature)> = Vec::new();
    let (mut min_distance, mut conflicts, mut index) = (None::<u64>, 0, 0);
    let mut pairs = Vec::new();
    let epochs = model.num_invocations() as u64;
    for epoch in 0..epochs {
        history.retain(|&(e, _, _)| e + window >= epoch);
        for iter in 0..model.num_iterations(epoch as usize) {
            pairs.clear();
            model.accesses(epoch as usize, iter, &mut pairs);
            let mut sig = RangeSignature::empty();
            for &(addr, kind) in &pairs {
                sig.record(addr, kind);
            }
            if !sig.is_empty() {
                for (past_epoch, past, past_sig) in history.iter().rev() {
                    let distance = index - past;
                    if min_distance.is_some_and(|d| distance > d) {
                        break;
                    }
                    if *past_epoch != epoch && sig.conflicts_with(past_sig) {
                        conflicts += 1;
                        min_distance = Some(min_distance.map_or(distance, |d| d.min(distance)));
                    }
                }
            }
            history.push((epoch, index, sig));
            index += 1;
        }
    }
    ProfileReport {
        min_distance,
        conflicts,
        tasks: index,
        epochs,
        horizon: (window * index / epochs.max(1)).min(index),
    }
}

/// The summarised profiler returns the plain scan's report, field for
/// field, on every registry kernel and every window the harnesses use.
#[test]
fn profiles_equal_the_plain_scan_on_every_kernel() {
    for info in registry() {
        let model = info.model(Scale::Test);
        for window in [1, 4, 6, 9] {
            assert_eq!(
                profile_distance(model.as_ref(), window),
                reference_profile(model.as_ref(), u64::from(window)),
                "{} window {window}",
                info.name
            );
        }
    }
}
