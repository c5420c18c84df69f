//! The one declaration of every metric the benchmark reports: name, unit,
//! direction, regression bound and — for the per-layer rows — which
//! end-to-end metric on which workload the row is expected to move.
//! `list` prints this table, `run` refuses to report a name that is not in
//! it, and a test holds `BENCHMARK.json` to it.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (speed-ups, hit shares).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name (`layer.metric` for per-layer rows; layer = module name).
    pub name: &'static str,
    /// Unit, in the character set `BENCHMARK.json` allows.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; `None` for per-layer rows.
    pub bound: Option<f64>,
    /// Definition (end-to-end) or the end-to-end metric and workload this
    /// row should move (per-layer); elsewhere the prediction is no change.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; every workload reports all of them
/// from a run with tracing off. Times are first deciles over repetitions
/// (`stats::first_decile` says why). `region_ms_p90` and `failed_share` are
/// printed by every run but are not in this list: a high percentile is
/// burst-sensitive by construction and cannot be held to a bound on a shared
/// host, and the contract carries failures in `failed` / `attempted`.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "model construction + profile_distance / AutoParallelizer::plan + reference run (first decile of the repeated set-ups)",
    ),
    e2e(
        "ns_per_task",
        "ns",
        Lower,
        0.25,
        "region wall-clock / tasks of the workload definition; re-executed tasks are not credited",
    ),
    e2e(
        "speedup_vs_seq",
        "x",
        Higher,
        0.25,
        "reference-loop wall / technique wall, same kernel, same rounds",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        Lower,
        0.10,
        "VmHWM of the workload's process at exit",
    ),
];

/// Single-layer metrics from a traced run (`--trace 1`). A row reads 0 when
/// the layer is not on the workload's path and was therefore not measured.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "kernel.task_ns",
        "ns",
        Lower,
        "ns_per_task on spec_fine, domore_fine, server_mix",
    ),
    layer(
        "kernel.touched_ns",
        "ns",
        Lower,
        "ns_per_task on domore_fine (scheduler thread)",
    ),
    layer(
        "kernel.snapshot_ns_per_kib",
        "ns/KiB",
        Lower,
        "ns_per_task, peak_rss_mib on spec_recover",
    ),
    layer(
        "kernel.restore_ns_per_kib",
        "ns/KiB",
        Lower,
        "ns_per_task on spec_recover",
    ),
    layer(
        "profile.distance_ns_per_task",
        "ns",
        Lower,
        "setup_s on spec_fine, coarse_mix, spec_recover",
    ),
    layer(
        "signature.record_ns",
        "ns",
        Lower,
        "ns_per_task on spec_fine; nothing on domore_fine",
    ),
    layer(
        "signature.conflict_ns",
        "ns",
        Lower,
        "ns_per_task on spec_fine when T >= 3",
    ),
    layer(
        "spsc.batch_ns_per_msg",
        "ns",
        Lower,
        "ns_per_task on spec_fine, domore_fine",
    ),
    layer(
        "spsc.roundtrip_ns",
        "ns",
        Lower,
        "region_ms_p90 on spec_recover (abort/drain latency)",
    ),
    layer(
        "check.admit_ns",
        "ns",
        Lower,
        "ns_per_task on spec_fine when T >= 3",
    ),
    layer(
        "check.comparisons_per_admit",
        "count",
        Lower,
        "check.admit_ns",
    ),
    layer(
        "check.epoch_skips_per_admit",
        "count",
        Higher,
        "check.admit_ns (summaries prune whole epochs)",
    ),
    layer(
        "shard.admit_ns",
        "ns",
        Lower,
        "same as check.admit_ns, 4 shards",
    ),
    layer(
        "shard.straddle_share",
        "ratio",
        Lower,
        "shard.admit_ns (straddlers are admitted by every touched shard)",
    ),
    layer(
        "engine.check_requests_per_task",
        "count",
        Lower,
        "ns_per_task on spec_fine",
    ),
    layer(
        "engine.checkpoints",
        "count",
        Lower,
        "ns_per_task, peak_rss_mib on spec_recover",
    ),
    layer(
        "engine.misspeculations",
        "count",
        Lower,
        "must be 0 on spec_fine and 8 on spec_recover",
    ),
    layer(
        "engine.reexecuted_task_share",
        "ratio",
        Lower,
        "ns_per_task on spec_recover",
    ),
    layer(
        "engine.barrier_wait_ns_per_task",
        "ns",
        Lower,
        "ns_per_task on spec_recover, coarse_mix",
    ),
    layer(
        "engine.checkpoint_us",
        "us",
        Lower,
        "ns_per_task, region_ms_p90 on spec_recover",
    ),
    layer(
        "engine.recovery_ms_per_misspec",
        "ms",
        Lower,
        "ns_per_task, region_ms_p90 on spec_recover",
    ),
    layer(
        "engine.runtime_ns_per_task",
        "ns",
        Lower,
        "ns_per_task, speedup_vs_seq on spec_fine",
    ),
    layer(
        "engine.unattributed_ns_per_task",
        "ns",
        Lower,
        "what the signature/spsc/check rows do not explain",
    ),
    layer("barrier.wait_ns", "ns", Lower, "barrier.ns_per_task"),
    layer(
        "barrier.ns_per_task",
        "ns",
        Lower,
        "reference row for spec_fine / coarse_mix (the paper's baseline)",
    ),
    layer(
        "barrier.speedup_vs_seq",
        "x",
        Higher,
        "reference row; reported, not gated",
    ),
    layer("shadow.update_ns", "ns", Lower, "logic.schedule_ns"),
    layer(
        "logic.schedule_ns",
        "ns",
        Lower,
        "ns_per_task on domore_fine",
    ),
    layer(
        "logic.sync_conditions_per_iter",
        "count",
        Lower,
        "domore.stalls_per_iter",
    ),
    layer(
        "domore.stalls_per_iter",
        "count",
        Lower,
        "speedup_vs_seq on coarse_mix",
    ),
    layer(
        "domore.stall_wait_ns_per_iter",
        "ns",
        Lower,
        "speedup_vs_seq on coarse_mix",
    ),
    layer(
        "domore.sched_share",
        "ratio",
        Lower,
        "ns_per_task on domore_fine (serial bottleneck of Table 5.2)",
    ),
    layer(
        "domore.runtime_ns_per_task",
        "ns",
        Lower,
        "ns_per_task on domore_fine",
    ),
    layer(
        "domore.unattributed_ns_per_task",
        "ns",
        Lower,
        "what the touched/schedule/spsc rows do not explain",
    ),
    layer("memo.hit_share", "ratio", Higher, "memo.ns_per_task"),
    layer(
        "memo.ns_per_task",
        "ns",
        Lower,
        "ns_per_task on domore_fine if memo became the default there",
    ),
    layer(
        "pool.gang_admit_us",
        "us",
        Lower,
        "region_ms_p90, ns_per_task on server_mix",
    ),
    layer(
        "pool.scoped_gang_us",
        "us",
        Lower,
        "fixed cost of every solo region",
    ),
    layer(
        "pool.queue_wait_us_p50",
        "us",
        Lower,
        "region_ms_p90 on server_mix",
    ),
    layer(
        "pool.queue_wait_us_p90",
        "us",
        Lower,
        "region_ms_p90 on server_mix",
    ),
    layer(
        "server.submit_join_us",
        "us",
        Lower,
        "region_ms_p90 on server_mix",
    ),
    layer(
        "server.regions_per_s",
        "1/s",
        Higher,
        "ns_per_task on server_mix",
    ),
    layer(
        "telemetry.overhead_x",
        "x",
        Lower,
        "ns_per_task on server_mix",
    ),
    layer(
        "telemetry.snapshot_us",
        "us",
        Lower,
        "nothing end to end (snapshots are off the region path)",
    ),
    layer(
        "trace.overhead_x",
        "x",
        Lower,
        "none: bounds what the traced numbers are worth",
    ),
    layer("trace.events_per_task", "count", Lower, "trace.overhead_x"),
    layer(
        "trace.dropped_share",
        "ratio",
        Lower,
        "none: share of the trace the rings overwrote",
    ),
    layer(
        "critpath.compute_share",
        "ratio",
        Higher,
        "explains ns_per_task on every engine workload",
    ),
    layer(
        "critpath.barrier_wait_share",
        "ratio",
        Lower,
        "ns_per_task on coarse_mix, spec_recover",
    ),
    layer(
        "critpath.spsc_stall_share",
        "ratio",
        Lower,
        "ns_per_task on domore_fine",
    ),
    layer(
        "critpath.checker_latency_share",
        "ratio",
        Lower,
        "ns_per_task on spec_fine, spec_recover",
    ),
    layer(
        "critpath.misspec_redo_share",
        "ratio",
        Lower,
        "ns_per_task on spec_recover only",
    ),
    layer(
        "critpath.overhead_share",
        "ratio",
        Lower,
        "ns_per_task on every engine workload",
    ),
    layer("driver.plan_ms", "ms", Lower, "setup_s on auto_pir"),
    layer("pdg.build_ms", "ms", Lower, "setup_s on auto_pir"),
    layer(
        "transform.spec_build_ms",
        "ms",
        Lower,
        "setup_s on auto_pir",
    ),
    layer(
        "transform.domore_build_ms",
        "ms",
        Lower,
        "setup_s on auto_pir",
    ),
    layer("transform.profile_ms", "ms", Lower, "setup_s on auto_pir"),
    layer(
        "elide.proven_share",
        "ratio",
        Higher,
        "ns_per_task on auto_pir once elision is on by default",
    ),
    layer(
        "interp.seq_ns_per_task",
        "ns",
        Lower,
        "ns_per_task on auto_pir (speedup_vs_seq's denominator there)",
    ),
    layer(
        "driver.strategy_match_share",
        "ratio",
        Higher,
        "failed count on auto_pir",
    ),
    layer(
        "sim.real_over_sim_x",
        "x",
        Lower,
        "none: sim-vs-real error at the measured task size",
    ),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The `list` subcommand: every metric with unit, direction and bound.
pub fn render_list() -> String {
    let mut out = String::from("end-to-end (tracing off)\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<34} {:<7} {:<6} bound {:>4.0}%  {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound.expect("end-to-end metrics carry a bound"),
            m.note
        ));
    }
    out.push_str(
        "  failed / attempted                 count   lower  bound    0%  regions that returned Err, degraded unexpectedly or differ from the reference\n  region_ms_p90                      ms      lower  printed, not gated: 90th percentile of submit-to-result latency over all regions of the run\n",
    );
    out.push_str("per-layer (--trace 1; no bound; 0 = layer not on the workload's path)\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<34} {:<7} {:<6} moves: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        unit.len() <= 16
            && !unit.is_empty()
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn check_section(doc: &Json, key: &str, expected: &[Metric]) {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), expected.len(), "{key} length");
        for (entry, m) in listed.iter().zip(expected) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        check_section(&doc, "end_to_end", END_TO_END);
        check_section(&doc, "per_layer", PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
