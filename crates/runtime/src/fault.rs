//! Deterministic fault injection for the runtime engines.
//!
//! Task-based speculative runtimes live or die by disciplined rollback under
//! adverse conditions, and the only way to *test* the recovery paths of the
//! SPECCROSS and DOMORE engines is to schedule failures at exact execution
//! coordinates and replay them identically. A [`FaultPlan`] is such a
//! schedule: a list of [`FaultSpec`]s, each an `(epoch, task, thread)`
//! coordinate pattern (wildcards allowed) plus a [`FaultKind`] and a hit
//! budget. Engines probe the plan at well-defined injection points
//! ([`FaultPlan::task_start`], [`FaultPlan::check`],
//! [`FaultPlan::snapshot_fails`], [`FaultPlan::restore_fails`]); the plan
//! consumes one hit per firing, so a single-shot fault never re-fires
//! during recovery re-execution.
//!
//! Plans are clonable — a clone carries the same schedule with a fresh hit
//! budget, so the same plan replays identically in the threaded engines and
//! the simulator — and [`FaultPlan::random`] derives a schedule from a seed
//! for property-based robustness testing.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::hash::SplitMix64;

/// What goes wrong when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker executing the matched task panics mid-task.
    WorkerPanic,
    /// The checker stalls for this many milliseconds before serving the
    /// matched request.
    CheckerStall(u64),
    /// The checker thread dies (panics) at the matched request.
    CheckerDeath,
    /// The checker reports a conflict for the matched request even though
    /// the signatures do not conflict (a forced false positive).
    FalsePositive,
    /// Taking a checkpoint snapshot at the matched epoch fails.
    SnapshotFail,
    /// Restoring the checkpoint for recovery at the matched epoch fails.
    RestoreFail,
    /// The matched task is delayed by this many microseconds — exercises
    /// queue/barrier timing robustness.
    Delay(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::WorkerPanic => write!(f, "worker panic"),
            FaultKind::CheckerStall(ms) => write!(f, "checker stall ({ms} ms)"),
            FaultKind::CheckerDeath => write!(f, "checker death"),
            FaultKind::FalsePositive => write!(f, "forced false positive"),
            FaultKind::SnapshotFail => write!(f, "snapshot failure"),
            FaultKind::RestoreFail => write!(f, "restore failure"),
            FaultKind::Delay(us) => write!(f, "delay ({us} us)"),
        }
    }
}

/// An execution coordinate pattern. `None` components are wildcards.
///
/// Coordinates are interpreted uniformly across engines: `epoch` is the
/// SPECCROSS epoch / DOMORE invocation, `task` the per-epoch task index /
/// per-invocation iteration, `thread` the dense worker id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSite {
    /// Epoch (invocation) filter.
    pub epoch: Option<u32>,
    /// Per-epoch task (iteration) filter.
    pub task: Option<u64>,
    /// Worker thread filter.
    pub thread: Option<usize>,
}

impl FaultSite {
    /// Matches any coordinate (the first probe fires).
    pub const ANY: FaultSite = FaultSite {
        epoch: None,
        task: None,
        thread: None,
    };

    /// Matches any task of `epoch`.
    pub fn epoch(epoch: u32) -> Self {
        FaultSite {
            epoch: Some(epoch),
            ..Self::ANY
        }
    }

    /// Matches task `task` of `epoch` on any worker.
    pub fn task(epoch: u32, task: u64) -> Self {
        FaultSite {
            epoch: Some(epoch),
            task: Some(task),
            thread: None,
        }
    }

    fn matches(&self, epoch: u32, task: u64, thread: usize) -> bool {
        self.epoch.is_none_or(|e| e == epoch)
            && self.task.is_none_or(|t| t == task)
            && self.thread.is_none_or(|t| t == thread)
    }
}

/// One scheduled fault: where, what, and how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Coordinate pattern at which the fault fires.
    pub site: FaultSite,
    /// Failure mode.
    pub kind: FaultKind,
    /// Number of times the fault fires before exhausting (0 = never).
    pub max_hits: u32,
}

/// A fault that fired, as recorded by the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Failure mode that fired.
    pub kind: FaultKind,
    /// Epoch at which it fired.
    pub epoch: u32,
    /// Task at which it fired.
    pub task: u64,
    /// Worker at which it fired (checker-side faults report the requesting
    /// worker).
    pub thread: usize,
}

/// Action an engine takes at a task-start injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Panic inside the task body (must be contained by the engine).
    Panic,
    /// Sleep this long before executing.
    Delay(Duration),
}

impl TaskFault {
    /// The kind this action is reported as in `fault_injected` trace
    /// events (delays in whole microseconds, the unit plans are written in).
    pub fn kind(self) -> FaultKind {
        match self {
            TaskFault::Panic => FaultKind::WorkerPanic,
            TaskFault::Delay(d) => FaultKind::Delay(d.as_micros() as u64),
        }
    }
}

/// Action the checker takes at a check injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckFault {
    /// Report a conflict regardless of the signatures.
    ForceConflict,
    /// Sleep this long before serving the request.
    Stall(Duration),
    /// Panic (checker loss).
    Die,
}

impl CheckFault {
    /// The kind this action is reported as in `fault_injected` trace
    /// events (stalls in whole milliseconds, the unit plans are written in).
    pub fn kind(self) -> FaultKind {
        match self {
            CheckFault::ForceConflict => FaultKind::FalsePositive,
            CheckFault::Stall(d) => FaultKind::CheckerStall(d.as_millis() as u64),
            CheckFault::Die => FaultKind::CheckerDeath,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    specs: Vec<FaultSpec>,
    /// Remaining hits per spec, consumed atomically so concurrent probes of
    /// a shared plan never double-fire a single-shot fault.
    remaining: Vec<AtomicU32>,
}

/// A deterministic, replayable schedule of injected faults.
///
/// Cheap to share (`Arc` inside); [`Clone`] produces an *independent replay*
/// — same schedule, fresh hit budget. Engines clone the plan once per
/// execution so one run's consumed faults never leak into the next.
#[derive(Debug, Default)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        FaultPlan::from_specs(self.inner.specs.clone())
    }
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the *same* plan instance — hit budget shared with `self`,
    /// unlike [`Clone`], which starts a fresh replay. Engines use this to
    /// hand one budget to every pass of an execution, so a single-shot fault
    /// consumed during speculation does not re-fire during recovery.
    pub fn share(&self) -> Self {
        FaultPlan {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Builds a plan from explicit specs.
    pub fn from_specs(specs: Vec<FaultSpec>) -> Self {
        let remaining = specs.iter().map(|s| AtomicU32::new(s.max_hits)).collect();
        FaultPlan {
            inner: Arc::new(Inner { specs, remaining }),
        }
    }

    /// Derives a random single-shot fault schedule from `seed`, with
    /// coordinates bounded by the region shape. Identical seeds and bounds
    /// give identical plans.
    pub fn random(seed: u64, epochs: u32, tasks_per_epoch: u64, threads: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xFA17_1A17_FA17_1A17);
        let n = rng.next_below(4) as usize; // 0..=3 faults
        let mut specs = Vec::with_capacity(n);
        for _ in 0..n {
            let site = FaultSite {
                epoch: Some(rng.next_below(epochs.max(1) as u64) as u32),
                task: if rng.next_below(2) == 0 {
                    None
                } else {
                    Some(rng.next_below(tasks_per_epoch.max(1)))
                },
                thread: if rng.next_below(2) == 0 {
                    None
                } else {
                    Some(rng.next_below(threads.max(1) as u64) as usize)
                },
            };
            let kind = match rng.next_below(7) {
                0 => FaultKind::WorkerPanic,
                1 => FaultKind::CheckerStall(1 + rng.next_below(5)),
                2 => FaultKind::CheckerDeath,
                3 => FaultKind::FalsePositive,
                4 => FaultKind::SnapshotFail,
                5 => FaultKind::RestoreFail,
                _ => FaultKind::Delay(1 + rng.next_below(500)),
            };
            specs.push(FaultSpec {
                site,
                kind,
                max_hits: 1,
            });
        }
        Self::from_specs(specs)
    }

    /// The scheduled specs (diagnostics / test assertions).
    pub fn specs(&self) -> &[FaultSpec] {
        &self.inner.specs
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.inner.specs.is_empty()
    }

    /// Whether any scheduled fault has the given kind (regardless of hits).
    pub fn schedules(&self, kind: FaultKind) -> bool {
        self.inner.specs.iter().any(|s| s.kind == kind)
    }

    // ---- builder conveniences -------------------------------------------

    fn with(self, site: FaultSite, kind: FaultKind) -> Self {
        self.with_hits(site, kind, 1)
    }

    fn with_hits(self, site: FaultSite, kind: FaultKind, max_hits: u32) -> Self {
        let mut specs = self.inner.specs.clone();
        specs.push(FaultSpec {
            site,
            kind,
            max_hits,
        });
        Self::from_specs(specs)
    }

    /// Schedules a single worker panic at task `task` of `epoch`.
    pub fn worker_panic_at(self, epoch: u32, task: u64) -> Self {
        self.with(FaultSite::task(epoch, task), FaultKind::WorkerPanic)
    }

    /// Schedules the checker's death at the first request from `epoch`.
    pub fn checker_death_at(self, epoch: u32) -> Self {
        self.with(FaultSite::epoch(epoch), FaultKind::CheckerDeath)
    }

    /// Schedules a checker stall of `millis` at the first request from
    /// `epoch`.
    pub fn checker_stall_at(self, epoch: u32, millis: u64) -> Self {
        self.with(FaultSite::epoch(epoch), FaultKind::CheckerStall(millis))
    }

    /// Schedules a forced false-positive conflict at the first request from
    /// `epoch`.
    pub fn false_positive_at(self, epoch: u32) -> Self {
        self.with(FaultSite::epoch(epoch), FaultKind::FalsePositive)
    }

    /// Schedules `count` forced false positives, one per matching request,
    /// anywhere in the region (a misspeculation storm).
    pub fn false_positive_storm(self, count: u32) -> Self {
        self.with_hits(FaultSite::ANY, FaultKind::FalsePositive, count)
    }

    /// Schedules a snapshot failure at checkpoint epoch `epoch`.
    pub fn snapshot_failure_at(self, epoch: u32) -> Self {
        self.with(FaultSite::epoch(epoch), FaultKind::SnapshotFail)
    }

    /// Schedules one restore failure (first recovery attempt).
    pub fn restore_failure(self) -> Self {
        self.with(FaultSite::ANY, FaultKind::RestoreFail)
    }

    /// Schedules a task delay of `micros` at task `task` of `epoch`.
    pub fn delay_at(self, epoch: u32, task: u64, micros: u64) -> Self {
        self.with(FaultSite::task(epoch, task), FaultKind::Delay(micros))
    }

    // ---- injection points -----------------------------------------------

    /// Consumes one hit of the first armed spec matching the coordinate and
    /// kind filter.
    fn fire(
        &self,
        epoch: u32,
        task: u64,
        thread: usize,
        accept: impl Fn(FaultKind) -> bool,
    ) -> Option<FaultKind> {
        for (spec, remaining) in self.inner.specs.iter().zip(&self.inner.remaining) {
            if !accept(spec.kind) || !spec.site.matches(epoch, task, thread) {
                continue;
            }
            let armed = remaining
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1))
                .is_ok();
            if armed {
                return Some(spec.kind);
            }
        }
        None
    }

    /// Probed by workers immediately before executing a task.
    pub fn task_start(&self, epoch: u32, task: u64, thread: usize) -> Option<TaskFault> {
        match self.fire(epoch, task, thread, |k| {
            matches!(k, FaultKind::WorkerPanic | FaultKind::Delay(_))
        })? {
            FaultKind::WorkerPanic => Some(TaskFault::Panic),
            FaultKind::Delay(us) => Some(TaskFault::Delay(Duration::from_micros(us))),
            _ => unreachable!("filtered by accept"),
        }
    }

    /// Probed by the checker for each admitted request.
    pub fn check(&self, epoch: u32, task: u64, thread: usize) -> Option<CheckFault> {
        match self.fire(epoch, task, thread, |k| {
            matches!(
                k,
                FaultKind::FalsePositive | FaultKind::CheckerStall(_) | FaultKind::CheckerDeath
            )
        })? {
            FaultKind::FalsePositive => Some(CheckFault::ForceConflict),
            FaultKind::CheckerStall(ms) => Some(CheckFault::Stall(Duration::from_millis(ms))),
            FaultKind::CheckerDeath => Some(CheckFault::Die),
            _ => unreachable!("filtered by accept"),
        }
    }

    /// Probed when a checkpoint snapshot is about to be taken at `epoch`.
    pub fn snapshot_fails(&self, epoch: u32) -> bool {
        self.fire(epoch, 0, 0, |k| matches!(k, FaultKind::SnapshotFail))
            .is_some()
    }

    /// Probed when recovery is about to restore the checkpoint of `epoch`.
    pub fn restore_fails(&self, epoch: u32) -> bool {
        self.fire(epoch, 0, 0, |k| matches!(k, FaultKind::RestoreFail))
            .is_some()
    }

    // ---- textual round-trip ---------------------------------------------

    /// Renders the schedule in the diffable, hand-editable corpus format:
    /// one spec per line, `<kind> @ epoch=<n|*> task=<n|*> thread=<n|*>
    /// hits=<n>`. `#`-prefixed lines and blank lines are comments. The hit
    /// *budget* is serialized, not the consumed state — parsing the text
    /// always yields a fresh replay.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for spec in &self.inner.specs {
            let kind = match spec.kind {
                FaultKind::WorkerPanic => "panic".to_string(),
                FaultKind::CheckerStall(ms) => format!("stall:{ms}"),
                FaultKind::CheckerDeath => "death".to_string(),
                FaultKind::FalsePositive => "false-positive".to_string(),
                FaultKind::SnapshotFail => "snapshot-fail".to_string(),
                FaultKind::RestoreFail => "restore-fail".to_string(),
                FaultKind::Delay(us) => format!("delay:{us}"),
            };
            let coord = |name: &str, v: Option<String>| match v {
                Some(v) => format!("{name}={v}"),
                None => format!("{name}=*"),
            };
            out.push_str(&format!(
                "{kind} @ {} {} {} hits={}\n",
                coord("epoch", spec.site.epoch.map(|e| e.to_string())),
                coord("task", spec.site.task.map(|t| t.to_string())),
                coord("thread", spec.site.thread.map(|t| t.to_string())),
                spec.max_hits,
            ));
        }
        out
    }

    /// Parses the [`FaultPlan::to_text`] format. Returns a plan with a
    /// fresh hit budget.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_text(text: &str) -> Result<Self, String> {
        fn wild<T: std::str::FromStr>(v: &str, line: &str) -> Result<Option<T>, String> {
            if v == "*" {
                return Ok(None);
            }
            v.parse::<T>()
                .map(Some)
                .map_err(|_| format!("bad coordinate {v:?} in fault line {line:?}"))
        }
        let mut specs = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let kind_tok = parts.next().expect("non-empty line has a token");
            let kind = if let Some(ms) = kind_tok.strip_prefix("stall:") {
                FaultKind::CheckerStall(ms.parse().map_err(|_| format!("bad stall in {line:?}"))?)
            } else if let Some(us) = kind_tok.strip_prefix("delay:") {
                FaultKind::Delay(us.parse().map_err(|_| format!("bad delay in {line:?}"))?)
            } else {
                match kind_tok {
                    "panic" => FaultKind::WorkerPanic,
                    "death" => FaultKind::CheckerDeath,
                    "false-positive" => FaultKind::FalsePositive,
                    "snapshot-fail" => FaultKind::SnapshotFail,
                    "restore-fail" => FaultKind::RestoreFail,
                    other => return Err(format!("unknown fault kind {other:?} in {line:?}")),
                }
            };
            if parts.next() != Some("@") {
                return Err(format!("expected `@` after the kind in {line:?}"));
            }
            let mut site = FaultSite::ANY;
            let mut max_hits = 1u32;
            for field in parts {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {field:?} in {line:?}"))?;
                match key {
                    "epoch" => site.epoch = wild(value, line)?,
                    "task" => site.task = wild(value, line)?,
                    "thread" => site.thread = wild(value, line)?,
                    "hits" => {
                        max_hits = value.parse().map_err(|_| format!("bad hits in {line:?}"))?
                    }
                    other => return Err(format!("unknown field {other:?} in {line:?}")),
                }
            }
            specs.push(FaultSpec {
                site,
                kind,
                max_hits,
            });
        }
        Ok(Self::from_specs(specs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(p.task_start(0, 0, 0).is_none());
        assert!(p.check(0, 0, 0).is_none());
        assert!(!p.snapshot_fails(0));
        assert!(!p.restore_fails(0));
    }

    #[test]
    fn single_shot_fires_once_at_matching_site() {
        let p = FaultPlan::new().worker_panic_at(3, 5);
        assert!(p.task_start(3, 4, 0).is_none(), "wrong task");
        assert!(p.task_start(2, 5, 0).is_none(), "wrong epoch");
        assert_eq!(p.task_start(3, 5, 1), Some(TaskFault::Panic));
        assert!(p.task_start(3, 5, 1).is_none(), "hit budget consumed");
    }

    #[test]
    fn clone_replays_with_fresh_budget() {
        let p = FaultPlan::new().checker_death_at(2);
        assert_eq!(p.check(2, 0, 0), Some(CheckFault::Die));
        assert!(p.check(2, 1, 0).is_none());
        let replay = p.clone();
        assert_eq!(replay.check(2, 0, 0), Some(CheckFault::Die));
    }

    #[test]
    fn share_keeps_one_budget() {
        let p = FaultPlan::new().worker_panic_at(0, 0);
        let handle = p.share();
        assert_eq!(handle.task_start(0, 0, 0), Some(TaskFault::Panic));
        assert!(p.task_start(0, 0, 0).is_none(), "budget shared, not reset");
    }

    #[test]
    fn storm_fires_up_to_budget() {
        let p = FaultPlan::new().false_positive_storm(3);
        let mut fired = 0;
        for task in 0..10 {
            if p.check(0, task, 0).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
    }

    #[test]
    fn kinds_route_to_their_injection_points() {
        let p = FaultPlan::new()
            .false_positive_at(1)
            .worker_panic_at(1, 0)
            .snapshot_failure_at(4)
            .restore_failure();
        // The check probe must not consume the worker panic and vice versa.
        assert_eq!(p.check(1, 0, 0), Some(CheckFault::ForceConflict));
        assert_eq!(p.task_start(1, 0, 0), Some(TaskFault::Panic));
        assert!(p.snapshot_fails(4));
        assert!(!p.snapshot_fails(4), "consumed");
        assert!(p.restore_fails(9), "wildcard restore failure");
    }

    #[test]
    fn delays_surface_as_durations() {
        let p = FaultPlan::new().delay_at(0, 1, 250);
        assert_eq!(
            p.task_start(0, 1, 0),
            Some(TaskFault::Delay(Duration::from_micros(250)))
        );
    }

    #[test]
    fn actions_report_the_kind_that_scheduled_them() {
        // Plans are written in µs (delays) and ms (stalls); the actions
        // carry `Duration`s; `kind()` converts back to the plan's units.
        assert_eq!(TaskFault::Panic.kind(), FaultKind::WorkerPanic);
        assert_eq!(
            TaskFault::Delay(Duration::from_micros(1_500)).kind(),
            FaultKind::Delay(1_500)
        );
        assert_eq!(CheckFault::ForceConflict.kind(), FaultKind::FalsePositive);
        assert_eq!(
            CheckFault::Stall(Duration::from_millis(7)).kind(),
            FaultKind::CheckerStall(7)
        );
        assert_eq!(CheckFault::Die.kind(), FaultKind::CheckerDeath);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        for seed in 0..50u64 {
            let a = FaultPlan::random(seed, 10, 8, 4);
            let b = FaultPlan::random(seed, 10, 8, 4);
            assert_eq!(a.specs().len(), b.specs().len());
            for (x, y) in a.specs().iter().zip(b.specs()) {
                assert_eq!(x.site, y.site);
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.max_hits, y.max_hits);
            }
        }
    }

    #[test]
    fn random_plans_cover_multiple_kinds() {
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..200u64 {
            for s in FaultPlan::random(seed, 10, 8, 4).specs() {
                kinds.insert(std::mem::discriminant(&s.kind));
            }
        }
        assert!(kinds.len() >= 5, "seed sweep explores the fault palette");
    }

    #[test]
    fn concurrent_probes_fire_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let p = std::sync::Arc::new(FaultPlan::new().worker_panic_at(0, 0));
        let fired = std::sync::Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = std::sync::Arc::clone(&p);
            let fired = std::sync::Arc::clone(&fired);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    if p.task_start(0, 0, 0).is_some() {
                        fired.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn text_round_trip_preserves_every_spec() {
        for seed in 0..100u64 {
            let plan = FaultPlan::random(seed, 12, 9, 4);
            let text = plan.to_text();
            let back = FaultPlan::from_text(&text).expect("own output parses");
            assert_eq!(plan.specs(), back.specs(), "seed {seed}:\n{text}");
        }
        let builders = FaultPlan::new()
            .worker_panic_at(3, 5)
            .checker_stall_at(2, 4)
            .false_positive_storm(7)
            .restore_failure()
            .delay_at(0, 1, 250);
        let back = FaultPlan::from_text(&builders.to_text()).unwrap();
        assert_eq!(builders.specs(), back.specs());
    }

    #[test]
    fn from_text_accepts_comments_and_rejects_junk() {
        let plan =
            FaultPlan::from_text("# a comment\n\n  panic @ epoch=1 task=* thread=2 hits=3\n")
                .unwrap();
        assert_eq!(
            plan.specs(),
            &[FaultSpec {
                site: FaultSite {
                    epoch: Some(1),
                    task: None,
                    thread: Some(2),
                },
                kind: FaultKind::WorkerPanic,
                max_hits: 3,
            }]
        );
        assert!(FaultPlan::from_text("explode @ epoch=1").is_err());
        assert!(FaultPlan::from_text("panic epoch=1").is_err());
        assert!(FaultPlan::from_text("panic @ epoch=x").is_err());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(FaultKind::WorkerPanic.to_string(), "worker panic");
        assert!(FaultKind::CheckerStall(5).to_string().contains("5 ms"));
    }
}
