//! Critical-path extraction and what-if wait analysis over a [`Trace`].
//!
//! A merged trace is a set of per-thread event sequences plus the
//! cross-thread causality edges recorded as [`Event::Wake`]. Together they
//! form the region's happens-before DAG: program order within a thread,
//! wake edges across threads. This module answers the two questions the
//! evaluation chapter keeps asking of that DAG:
//!
//! * **Where did the wall time go?** [`critical_path`] walks the DAG
//!   backward from the last event using the last-wakeup rule — at a wake,
//!   the chain jumps to the releasing thread — and attributes every
//!   nanosecond on the longest chain to a [`PathCategory`]: compute,
//!   barrier wait, SPSC stall, checker latency, misspeculation redo, or
//!   uncategorized overhead.
//! * **What would removing a wait buy?** [`what_if`] replays the DAG
//!   forward with one or more [`WakeEdge`] classes zeroed (the wait window
//!   collapses, the cross-thread constraint is dropped) and reports the
//!   predicted span and speedup. Zeroing the barrier class on a
//!   barrier-mode trace predicts the barrier-removal speedup that
//!   SPECCROSS measures — the validation in `tests/trace.rs` holds the two
//!   within 10% of each other on a Table 5.1 kernel.
//!
//! Both analyses run on traces from the threaded engines and from the
//! virtual-time simulators, because both emit the same schema.

use std::collections::BTreeMap;
use std::fmt;

use crate::trace::{Event, Trace, WakeEdge};
use crate::ThreadId;

/// Where a nanosecond on the critical path went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathCategory {
    /// Task execution (matched dispatch→retire run, first execution).
    Compute,
    /// Stalled at a barrier or on a DOMORE synchronization condition
    /// ([`WakeEdge::Barrier`]).
    BarrierWait,
    /// Waiting on an SPSC produce→consume handoff ([`WakeEdge::Queue`]).
    SpscStall,
    /// Waiting on the checker: checkpoint-rendezvous drains
    /// ([`WakeEdge::Checkpoint`]) and conflict-verdict recovery
    /// ([`WakeEdge::Checker`]).
    CheckerLatency,
    /// Re-executing tasks that had already retired once — the redo work a
    /// misspeculation rollback forces.
    MisspecRedo,
    /// Everything else on the path: prologues, scheduling, barrier service
    /// cost on the releasing thread, bookkeeping between events.
    Overhead,
}

impl PathCategory {
    /// All categories, in display order.
    pub const ALL: [PathCategory; 6] = [
        PathCategory::Compute,
        PathCategory::BarrierWait,
        PathCategory::SpscStall,
        PathCategory::CheckerLatency,
        PathCategory::MisspecRedo,
        PathCategory::Overhead,
    ];

    fn index(self) -> usize {
        match self {
            PathCategory::Compute => 0,
            PathCategory::BarrierWait => 1,
            PathCategory::SpscStall => 2,
            PathCategory::CheckerLatency => 3,
            PathCategory::MisspecRedo => 4,
            PathCategory::Overhead => 5,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PathCategory::Compute => "compute",
            PathCategory::BarrierWait => "barrier wait",
            PathCategory::SpscStall => "spsc stall",
            PathCategory::CheckerLatency => "checker latency",
            PathCategory::MisspecRedo => "misspec redo",
            PathCategory::Overhead => "overhead",
        }
    }
}

impl fmt::Display for PathCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

fn wait_category(edge: WakeEdge) -> PathCategory {
    match edge {
        WakeEdge::Barrier => PathCategory::BarrierWait,
        WakeEdge::Queue => PathCategory::SpscStall,
        WakeEdge::Checkpoint | WakeEdge::Checker => PathCategory::CheckerLatency,
    }
}

/// Nanoseconds per [`PathCategory`], indexed like [`PathCategory::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Per-category totals.
    pub ns: [u64; 6],
}

impl Attribution {
    /// Nanoseconds attributed to `cat`.
    pub fn get(&self, cat: PathCategory) -> u64 {
        self.ns[cat.index()]
    }

    fn add(&mut self, cat: PathCategory, ns: u64) {
        self.ns[cat.index()] += ns;
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// The critical path of one traced region: its length and where the time on
/// it went, overall and per epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPathReport {
    /// Trace span (timestamp of the last record) — the path's length.
    pub wall_ns: u64,
    /// Per-category attribution over the whole path.
    pub attribution: Attribution,
    /// Per-epoch attribution for path segments whose epoch is known
    /// (sorted by epoch).
    pub per_epoch: Vec<(u32, Attribution)>,
    /// Number of DAG nodes (records) the path visited.
    pub steps: usize,
}

impl fmt::Display for CritPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "critical path: {} ns over {} steps",
            self.wall_ns, self.steps
        )?;
        let total = self.attribution.total().max(1);
        for cat in PathCategory::ALL {
            let ns = self.attribution.get(cat);
            if ns == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<16} {:>14} ns  {:>5.1}%",
                cat.label(),
                ns,
                100.0 * ns as f64 / total as f64
            )?;
        }
        Ok(())
    }
}

/// Outcome of a [`what_if`] replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfReport {
    /// Observed span of the input trace.
    pub baseline_ns: u64,
    /// Predicted span with the chosen edge classes zeroed.
    pub predicted_ns: u64,
}

impl WhatIfReport {
    /// Predicted speedup (`baseline / predicted`; 1.0 when degenerate).
    pub fn predicted_speedup(&self) -> f64 {
        if self.predicted_ns == 0 || self.baseline_ns == 0 {
            1.0
        } else {
            self.baseline_ns as f64 / self.predicted_ns as f64
        }
    }
}

impl fmt::Display for WhatIfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ns -> {} ns ({:.2}x)",
            self.baseline_ns,
            self.predicted_ns,
            self.predicted_speedup()
        )
    }
}

/// Per-record derived facts shared by both analyses.
struct Dag<'a> {
    trace: &'a Trace,
    /// Index of the previous record on the same thread (`usize::MAX`: none).
    prev_same_tid: Vec<usize>,
    /// For a `BarrierLeave` followed by a `Wake` on the same thread: that
    /// wake's edge class. `None` for unwoken leaves (e.g. the releaser's).
    leave_class: Vec<Option<WakeEdge>>,
    /// `leave_class` with unwoken leaves filled in from woken leaves of the
    /// same epoch — the releaser participates in the same synchronization
    /// its waiters were woken from.
    leave_class_inferred: Vec<Option<WakeEdge>>,
    /// For each record: the index of the matching `BarrierEnter` if this is
    /// a `BarrierLeave` (`usize::MAX` otherwise / unmatched).
    leave_enter: Vec<usize>,
    /// `TaskRetire` records whose (epoch, first task) already retired
    /// earlier in the trace — re-execution after a rollback.
    redo: Vec<bool>,
}

impl<'a> Dag<'a> {
    fn build(trace: &'a Trace) -> Self {
        let records = trace.records();
        let n = records.len();
        let mut prev_same_tid = vec![usize::MAX; n];
        let mut leave_class = vec![None; n];
        let mut leave_enter = vec![usize::MAX; n];
        let mut redo = vec![false; n];

        let mut last_on: BTreeMap<ThreadId, usize> = BTreeMap::new();
        let mut open_enter: BTreeMap<ThreadId, usize> = BTreeMap::new();
        let mut retired: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        for (i, rec) in records.iter().enumerate() {
            if let Some(&p) = last_on.get(&rec.tid) {
                prev_same_tid[i] = p;
                // A wake directly after a leave (same thread) names the
                // wait's edge class.
                if let Event::Wake { edge, .. } = rec.event {
                    if matches!(records[p].event, Event::BarrierLeave { .. }) {
                        leave_class[p] = Some(edge);
                    }
                }
            }
            match rec.event {
                Event::BarrierEnter { .. } => {
                    open_enter.insert(rec.tid, i);
                }
                Event::BarrierLeave { .. } => {
                    if let Some(e) = open_enter.remove(&rec.tid) {
                        leave_enter[i] = e;
                    }
                }
                // A run-level record keys on its first task: SPECCROSS
                // re-executes a rolled-back epoch with the speculative
                // passes' chunk map, so a redone chunk starts where it did.
                Event::TaskRetire { epoch, task, .. } => {
                    let seen = retired.entry((epoch, task)).or_insert(0);
                    if *seen > 0 {
                        redo[i] = true;
                    }
                    *seen += 1;
                }
                _ => {}
            }
            last_on.insert(rec.tid, i);
        }
        // Classify unwoken leaves (the releasing participant has no wake)
        // by the class their epoch's woken leaves carry.
        let mut epoch_class: BTreeMap<u32, WakeEdge> = BTreeMap::new();
        for (i, rec) in records.iter().enumerate() {
            if let (Event::BarrierLeave { epoch, .. }, Some(c)) = (rec.event, leave_class[i]) {
                epoch_class.entry(epoch).or_insert(c);
            }
        }
        let mut leave_class_inferred = leave_class.clone();
        for (i, rec) in records.iter().enumerate() {
            if let Event::BarrierLeave { epoch, .. } = rec.event {
                if leave_class_inferred[i].is_none() {
                    leave_class_inferred[i] = epoch_class.get(&epoch).copied();
                }
            }
        }
        Dag {
            trace,
            prev_same_tid,
            leave_class,
            leave_class_inferred,
            leave_enter,
            redo,
        }
    }

    /// Latest record on `src` strictly before merged index `i`.
    fn anchor(&self, src: ThreadId, i: usize) -> Option<usize> {
        // Walk the destination's view backward: records are globally sorted,
        // so scan back from i for the nearest record of `src`. The scan is
        // short in practice (the anchor is the release that just happened),
        // and bounded by the trace length.
        let records = self.trace.records();
        (0..i).rev().find(|&j| records[j].tid == src)
    }

    /// Best-effort epoch of a record (for per-epoch attribution).
    fn epoch_hint(&self, i: usize) -> Option<u32> {
        match self.trace.records()[i].event {
            Event::EpochBegin { epoch }
            | Event::EpochEnd { epoch }
            | Event::BarrierEnter { epoch }
            | Event::BarrierLeave { epoch, .. }
            | Event::Checkpoint { epoch }
            | Event::Degradation { epoch }
            | Event::TaskAssign { epoch, .. }
            | Event::TaskDispatch { epoch, .. }
            | Event::TaskRetire { epoch, .. }
            | Event::FaultInjected { epoch, .. }
            | Event::CheckerSummary { epoch, .. }
            | Event::ScheduleCacheHit { epoch } => Some(epoch),
            Event::Misspeculation { later_epoch, .. } => Some(later_epoch),
            Event::Wake { edge, seq, .. } => match edge {
                // For barrier/checkpoint edges the sequence number *is* the
                // epoch.
                WakeEdge::Barrier | WakeEdge::Checkpoint => Some(seq as u32),
                WakeEdge::Queue | WakeEdge::Checker => None,
            },
        }
    }
}

/// Extracts the critical path of `trace` with per-category attribution.
///
/// The walk starts at the trace's last record and repeatedly steps to its
/// causal predecessor: at a [`Event::Wake`] it jumps to the releasing
/// thread (attributing the waited interval to the edge's wait category),
/// otherwise it follows program order on the same thread (attributing the
/// interval by the event that ends it). An empty trace yields a zeroed
/// report.
pub fn critical_path(trace: &Trace) -> CritPathReport {
    let records = trace.records();
    if records.is_empty() {
        return CritPathReport {
            wall_ns: 0,
            attribution: Attribution::default(),
            per_epoch: Vec::new(),
            steps: 0,
        };
    }
    let dag = Dag::build(trace);
    let mut attribution = Attribution::default();
    let mut per_epoch: BTreeMap<u32, Attribution> = BTreeMap::new();
    let mut steps = 0usize;
    fn attribute(
        attribution: &mut Attribution,
        per_epoch: &mut BTreeMap<u32, Attribution>,
        epoch: Option<u32>,
        cat: PathCategory,
        ns: u64,
    ) {
        attribution.add(cat, ns);
        if let Some(e) = epoch {
            per_epoch.entry(e).or_default().add(cat, ns);
        }
    }

    // Start at the latest record (the merged order puts it last).
    let mut cur = records.len() - 1;
    loop {
        steps += 1;
        let rec = &records[cur];
        if let Event::Wake { edge, src_tid, .. } = rec.event {
            if let Some(a) = dag.anchor(src_tid, cur) {
                // The wait ended because `src` reached its state at the
                // anchor: the whole interval since then was spent on this
                // edge.
                let ns = rec.t_ns.saturating_sub(records[a].t_ns);
                let epoch = dag.epoch_hint(cur).or_else(|| dag.epoch_hint(a));
                attribute(
                    &mut attribution,
                    &mut per_epoch,
                    epoch,
                    wait_category(edge),
                    ns,
                );
                cur = a;
                continue;
            }
        }
        let epoch = dag.epoch_hint(cur);
        let p = dag.prev_same_tid[cur];
        if p == usize::MAX {
            // Before a thread's first record: region startup / prologue.
            attribute(
                &mut attribution,
                &mut per_epoch,
                epoch,
                PathCategory::Overhead,
                rec.t_ns,
            );
            break;
        }
        let dt = rec.t_ns.saturating_sub(records[p].t_ns);
        match rec.event {
            Event::TaskRetire { .. } => {
                let cat = if dag.redo[cur] {
                    PathCategory::MisspecRedo
                } else {
                    PathCategory::Compute
                };
                attribute(&mut attribution, &mut per_epoch, epoch, cat, dt);
            }
            Event::BarrierLeave { wait_ns, .. } => {
                // Only reached for waits without a recorded wake (e.g. the
                // releasing thread itself): the slack is attributed to the
                // wait class, the remainder is synchronization service.
                let cat =
                    dag.leave_class_inferred[cur].map_or(PathCategory::BarrierWait, wait_category);
                let slack = wait_ns.min(dt);
                attribute(&mut attribution, &mut per_epoch, epoch, cat, slack);
                attribute(
                    &mut attribution,
                    &mut per_epoch,
                    epoch,
                    PathCategory::Overhead,
                    dt - slack,
                );
            }
            _ => attribute(
                &mut attribution,
                &mut per_epoch,
                epoch,
                PathCategory::Overhead,
                dt,
            ),
        }
        cur = p;
    }
    CritPathReport {
        wall_ns: trace.span_ns(),
        attribution,
        per_epoch: per_epoch.into_iter().collect(),
        steps,
    }
}

/// Replays the happens-before DAG with the given edge classes zeroed and
/// reports the predicted span.
///
/// Zeroing a class removes the *whole* enter→leave window of waits that end
/// in a wake of that class (slack plus synchronization service — "the
/// barrier is gone", not "the barrier is instant") and drops the
/// cross-thread constraint of its wake edges. Waits of other classes keep
/// their service cost but their slack is re-derived from the releaser's
/// replayed time, so removing one wait class correctly shortens (or fails
/// to shorten) waits downstream of it.
pub fn what_if(trace: &Trace, zeroed: &[WakeEdge]) -> WhatIfReport {
    let records = trace.records();
    let baseline_ns = trace.span_ns();
    if records.is_empty() {
        return WhatIfReport {
            baseline_ns,
            predicted_ns: 0,
        };
    }
    let dag = Dag::build(trace);
    let is_zeroed = |edge: WakeEdge| zeroed.contains(&edge);

    // Step weights: full program-order delta, minus the wait slack for
    // non-zeroed woken waits (re-imposed via the wake edge), or zero for
    // every step inside a zeroed wait window.
    let n = records.len();
    let mut zero_step = vec![false; n];
    let mut slack_sub = vec![0u64; n];
    for i in 0..n {
        if let Event::BarrierLeave { wait_ns, .. } = records[i].event {
            if dag.leave_class_inferred[i].is_some_and(is_zeroed) {
                // Zero every same-thread step inside the window (inferred
                // classes included: the releaser's service vanishes with
                // the synchronization itself).
                let enter = dag.leave_enter[i];
                let mut j = i;
                while j != usize::MAX && j != enter {
                    zero_step[j] = true;
                    j = dag.prev_same_tid[j];
                }
            } else if dag.leave_class[i].is_some() {
                // Only directly-woken waits get their slack re-derived from
                // the releaser (the wake edge re-imposes it); an unwoken
                // wait has no edge to restore it, so it keeps its span.
                slack_sub[i] = wait_ns;
            }
        } else if let Event::Wake { edge, .. } = records[i].event {
            if is_zeroed(edge) {
                zero_step[i] = true;
            }
        }
    }

    let mut rt = vec![0u64; n];
    let mut last_on: BTreeMap<ThreadId, usize> = BTreeMap::new();
    let mut predicted_ns = 0u64;
    for (i, rec) in records.iter().enumerate() {
        let mut t = match last_on.get(&rec.tid) {
            Some(&p) => {
                let dt = rec.t_ns.saturating_sub(records[p].t_ns);
                let w = if zero_step[i] {
                    0
                } else {
                    dt.saturating_sub(slack_sub[i])
                };
                rt[p] + w
            }
            // A thread's first record keeps its original offset (startup /
            // prologue time is not a wait).
            None => rec.t_ns,
        };
        if let Event::Wake { edge, src_tid, .. } = rec.event {
            if !is_zeroed(edge) {
                if let Some(&a) = last_on.get(&src_tid) {
                    let lag = rec.t_ns.saturating_sub(records[a].t_ns);
                    t = t.max(rt[a] + lag);
                }
            }
        }
        rt[i] = t;
        predicted_ns = predicted_ns.max(t);
        last_on.insert(rec.tid, i);
    }
    WhatIfReport {
        baseline_ns,
        predicted_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    /// Two workers, one epoch: worker 0 finishes its task at 10 and waits
    /// 20 ns for worker 1 (done at 30); the barrier costs 4 ns of service
    /// and releases both at 34, with a wake edge 1 → 0.
    fn barrier_trace() -> Trace {
        let rec = |t_ns, tid, event| TraceRecord { t_ns, tid, event };
        Trace::from_records(vec![
            rec(
                0,
                0,
                Event::TaskDispatch {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            rec(
                0,
                1,
                Event::TaskDispatch {
                    epoch: 0,
                    task: 1,
                    count: 1,
                },
            ),
            rec(
                10,
                0,
                Event::TaskRetire {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            rec(10, 0, Event::BarrierEnter { epoch: 0 }),
            rec(
                30,
                1,
                Event::TaskRetire {
                    epoch: 0,
                    task: 1,
                    count: 1,
                },
            ),
            rec(30, 1, Event::BarrierEnter { epoch: 0 }),
            rec(
                34,
                0,
                Event::BarrierLeave {
                    epoch: 0,
                    wait_ns: 20,
                },
            ),
            rec(
                34,
                0,
                Event::Wake {
                    edge: WakeEdge::Barrier,
                    src_tid: 1,
                    seq: 0,
                },
            ),
            rec(
                34,
                1,
                Event::BarrierLeave {
                    epoch: 0,
                    wait_ns: 0,
                },
            ),
        ])
    }

    #[test]
    fn critical_path_runs_through_the_slowest_thread() {
        let trace = barrier_trace();
        let report = critical_path(&trace);
        assert_eq!(report.wall_ns, 34);
        // The path ends at worker 1's leave (t=34), which waited 0: its
        // interval is 4 ns of barrier service, preceded by 30 ns of compute.
        assert_eq!(report.attribution.get(PathCategory::Compute), 30);
        assert_eq!(report.attribution.get(PathCategory::Overhead), 4);
        assert_eq!(report.attribution.get(PathCategory::BarrierWait), 0);
        assert_eq!(report.attribution.total(), 34);
        let (epoch, attr) = report.per_epoch[0];
        assert_eq!(epoch, 0);
        assert_eq!(attr.get(PathCategory::Compute), 30);
    }

    #[test]
    fn what_if_without_zeroed_classes_reproduces_the_span() {
        let trace = barrier_trace();
        let r = what_if(&trace, &[]);
        assert_eq!(r.baseline_ns, 34);
        assert_eq!(r.predicted_ns, 34);
        assert!((r.predicted_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zeroing_barrier_waits_predicts_the_barrier_free_span() {
        let trace = barrier_trace();
        let r = what_if(&trace, &[WakeEdge::Barrier]);
        // Without the barrier each worker is just its own compute: 10 and
        // 30 ns — the span collapses to the slowest worker.
        assert_eq!(r.predicted_ns, 30);
        assert!((r.predicted_speedup() - 34.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn wake_to_a_busy_releaser_keeps_the_wait_in_replay() {
        // Zeroing the *queue* class must not touch the barrier wait here.
        let trace = barrier_trace();
        let r = what_if(&trace, &[WakeEdge::Queue]);
        assert_eq!(r.predicted_ns, 34);
    }

    #[test]
    fn redo_work_is_attributed_separately() {
        let rec = |t_ns, tid, event| TraceRecord { t_ns, tid, event };
        let trace = Trace::from_records(vec![
            rec(
                0,
                0,
                Event::TaskDispatch {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            rec(
                10,
                0,
                Event::TaskRetire {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            // Rollback: the same task runs again.
            rec(
                20,
                0,
                Event::TaskDispatch {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            rec(
                35,
                0,
                Event::TaskRetire {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
        ]);
        let report = critical_path(&trace);
        assert_eq!(report.attribution.get(PathCategory::Compute), 10);
        assert_eq!(report.attribution.get(PathCategory::MisspecRedo), 15);
        assert_eq!(report.attribution.get(PathCategory::Overhead), 10);
    }

    #[test]
    fn empty_trace_yields_a_zeroed_report() {
        let trace = Trace::from_records(Vec::new());
        let report = critical_path(&trace);
        assert_eq!(report.wall_ns, 0);
        assert_eq!(report.attribution.total(), 0);
        let r = what_if(&trace, &[WakeEdge::Barrier]);
        assert_eq!(r.predicted_ns, 0);
    }
}
