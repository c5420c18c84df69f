//! Structured execution tracing shared by the runtimes and the simulator.
//!
//! The evaluation chapter's claims — where time goes inside an epoch, why a
//! run degraded, which task pair misspeculated — are *runtime information*,
//! and the counters of [`crate::stats`] compress it beyond recovery. This
//! module is the uncompressed record: a typed [`Event`] stream, stamped with
//! the emitting thread and a timestamp (a raw cycle-counter reading where the
//! processor has an invariant one, decoded to nanoseconds at merge),
//! buffered per thread in a fixed-capacity ring ([`TraceSink`]) so the hot
//! path never allocates, locks, or touches an atomic, and merged after the
//! region joins into one time-ordered [`Trace`] that serializes to JSONL.
//! The threaded engines write one task record per SPECCROSS chunk and per
//! DOMORE run (`count` tasks each), not one per task.
//!
//! Both threaded engines (`crossinvoc-speccross`, `crossinvoc-domore`) and
//! both simulators (`crossinvoc-sim`) emit the *same schema*: a trace of a
//! simulated run and a trace of a real run differ only in their timestamps,
//! so every analysis — the barrier-idle breakdown of Fig. 4.3, the
//! misspeculation ledger of Table 5.3, the per-thread utilization timeline —
//! is written once, in [`TraceReport`], and works on either. The
//! `trace-report` binary (in `crates/bench`) is a thin wrapper around it.
//!
//! See `docs/OBSERVABILITY.md` for the JSONL schema, the overhead budget,
//! and a worked trace-to-figure example.
//!
//! # Example
//!
//! ```
//! use crossinvoc_runtime::trace::{Event, Trace, TraceSink};
//!
//! // A sink with virtual timestamps, as the simulator uses; the threaded
//! // engines use `TraceCollector` sinks that stamp wall-clock time.
//! let mut sink = TraceSink::with_capacity(0, 64);
//! sink.emit_at(10, Event::EpochBegin { epoch: 0 });
//! sink.emit_at(25, Event::TaskRetire { epoch: 0, task: 3, count: 1 });
//! let trace = Trace::from_sinks([sink]);
//! assert_eq!(trace.records().len(), 2);
//!
//! // JSONL round-trip is lossless.
//! let jsonl = trace.to_jsonl();
//! assert_eq!(Trace::from_jsonl(&jsonl).unwrap(), trace);
//! ```

use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

use crate::fault::FaultKind;
use crate::ThreadId;

/// Pseudo thread-id under which the manager/scheduler thread emits events.
///
/// Worker ids are dense `0..num_workers`; the two service threads use the
/// top of the id space so they can never collide with a worker.
pub const MANAGER_TID: ThreadId = usize::MAX;

/// Pseudo thread-id under which the SPECCROSS checker thread emits events.
pub const CHECKER_TID: ThreadId = usize::MAX - 1;

/// Whether `tid` is a service thread (manager or checker) rather than a
/// worker.
pub fn is_service_tid(tid: ThreadId) -> bool {
    tid == MANAGER_TID || tid == CHECKER_TID
}

/// Which kind of cross-thread causality a [`Event::Wake`] record encodes.
///
/// Each class names the mechanism whose release let the emitting thread
/// resume; together they are the edge set of the happens-before DAG that
/// [`crate::critpath`] walks. The wire names (`"edge"` field) are
/// `barrier` / `queue` / `checkpoint` / `checker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeEdge {
    /// Barrier (or DOMORE synchronization-condition) release → waiter
    /// resume: the predecessor that released the wait is `src_tid`.
    Barrier,
    /// SPSC produce → consume: the producer (`src_tid`) made the message
    /// available that the emitting thread just picked up.
    Queue,
    /// Checkpoint rendezvous release → resume: the participant that
    /// completed the rendezvous work (checker drain + snapshot) last.
    Checkpoint,
    /// Checker verdict → commit/rollback: the checker's conflict decision
    /// started the recovery the emitting (manager) thread performs.
    Checker,
}

impl WakeEdge {
    /// The edge's wire name (the `"edge"` field of the JSONL schema).
    pub fn name(&self) -> &'static str {
        match self {
            WakeEdge::Barrier => "barrier",
            WakeEdge::Queue => "queue",
            WakeEdge::Checkpoint => "checkpoint",
            WakeEdge::Checker => "checker",
        }
    }

    /// All edge classes, in a fixed order (used by reports and the what-if
    /// sweep in `trace-report`).
    pub const ALL: [WakeEdge; 4] = [
        WakeEdge::Barrier,
        WakeEdge::Queue,
        WakeEdge::Checkpoint,
        WakeEdge::Checker,
    ];

    /// This edge's position in [`WakeEdge::ALL`] (a stable dense index for
    /// per-class arrays).
    pub fn index(self) -> usize {
        match self {
            WakeEdge::Barrier => 0,
            WakeEdge::Queue => 1,
            WakeEdge::Checkpoint => 2,
            WakeEdge::Checker => 3,
        }
    }
}

impl fmt::Display for WakeEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured execution event.
///
/// `epoch` means the SPECCROSS epoch / DOMORE invocation; `task` is the
/// per-epoch task (iteration) index. Both engines and both simulators emit
/// exactly this set, so a trace consumer never needs to know which engine
/// produced the stream.
///
/// The three task events carry a `count ≥ 1`: one record stands for `count`
/// tasks in the engine's dealing order starting at `task` — a SPECCROSS
/// chunk (consecutive tasks) or a DOMORE run (a worker's strided iterations).
/// The simulators emit one record per task (`count: 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A parallel-loop invocation (epoch) began.
    EpochBegin {
        /// Epoch number.
        epoch: u32,
    },
    /// The epoch's last task (on the emitting thread's view) retired.
    EpochEnd {
        /// Epoch number.
        epoch: u32,
    },
    /// The scheduler *assigned* a task to a worker (DOMORE: the policy
    /// decision, recorded on the manager's timeline at enqueue time). The
    /// per-worker distribution of these events is the scheduler's load
    /// balance; compare with [`Event::TaskDispatch`], which marks when the
    /// worker actually picked the task up.
    TaskAssign {
        /// Epoch of the task.
        epoch: u32,
        /// Task index within the epoch (the first of `count`).
        task: u64,
        /// Worker the task was routed to.
        worker: ThreadId,
        /// Tasks this record assigns.
        count: u32,
    },
    /// A task was handed to a worker (DOMORE: scheduler dispatch; SPECCROSS:
    /// the worker admitted the task past the speculative-range gate).
    TaskDispatch {
        /// Epoch of the task.
        epoch: u32,
        /// Task index within the epoch (the first of `count`).
        task: u64,
        /// Tasks this record dispatches.
        count: u32,
    },
    /// A task finished executing.
    TaskRetire {
        /// Epoch of the task.
        epoch: u32,
        /// Task index within the epoch (the first of `count`).
        task: u64,
        /// Tasks this record retires: of a cut-short chunk or run, the
        /// prefix that completed.
        count: u32,
    },
    /// The emitting thread arrived at a synchronization point (a barrier, a
    /// checkpoint rendezvous, or a DOMORE synchronization-condition wait).
    BarrierEnter {
        /// Epoch at which the wait happened.
        epoch: u32,
    },
    /// The wait of the matching [`Event::BarrierEnter`] ended; `wait_ns` is
    /// the time the thread spent stalled — the quantity Fig. 4.3 aggregates.
    BarrierLeave {
        /// Epoch at which the wait happened.
        epoch: u32,
        /// Nanoseconds spent waiting.
        wait_ns: u64,
    },
    /// A recovery checkpoint was taken at this epoch.
    Checkpoint {
        /// Epoch of the snapshot.
        epoch: u32,
    },
    /// Aggregate fast-path summary from the SPECCROSS checker, emitted at
    /// retirement (checkpoint/prune) boundaries rather than per admit so the
    /// bounded flight-recorder rings are not flooded: how many whole-epoch
    /// log buckets the aggregate-signature test skipped and how many
    /// signature comparisons ran since the previous summary.
    CheckerSummary {
        /// Retirement epoch the summary was emitted at.
        epoch: u32,
        /// Whole-epoch bucket skips since the last summary.
        skips: u64,
        /// Signature comparisons (aggregate tests included) since the last
        /// summary.
        comparisons: u64,
    },
    /// The DOMORE scheduler replayed this invocation's schedule from the
    /// cross-invocation memo (one event per memoized invocation, on the
    /// manager's timeline) instead of running the scheduling logic.
    ScheduleCacheHit {
        /// The replayed invocation.
        epoch: u32,
    },
    /// A misspeculation was detected: the signatures of the two recorded
    /// tasks conflicted (for forced/injected conflicts both sides name the
    /// admitted task).
    Misspeculation {
        /// Worker of the earlier-epoch task.
        earlier_tid: ThreadId,
        /// Epoch of the earlier task.
        earlier_epoch: u32,
        /// Per-epoch index of the earlier task.
        earlier_task: u64,
        /// Worker of the later-epoch task.
        later_tid: ThreadId,
        /// Epoch of the later task.
        later_epoch: u32,
        /// Per-epoch index of the later task.
        later_task: u64,
    },
    /// The region abandoned speculation and fell back to non-speculative
    /// barriers from this epoch on.
    Degradation {
        /// First epoch of the degraded (barrier-mode) tail.
        epoch: u32,
    },
    /// An injected fault from a [`crate::fault::FaultPlan`] fired. The
    /// record's thread id is the worker at which it fired (checker-side
    /// faults report the requesting worker's coordinates).
    FaultInjected {
        /// The fault that fired.
        kind: FaultKind,
        /// Epoch coordinate of the firing.
        epoch: u32,
        /// Task coordinate of the firing.
        task: u64,
    },
    /// A cross-thread causality edge: the emitting thread resumed (or
    /// consumed) because `src_tid` released it. Recorded on the *destination*
    /// thread's timeline at resume/consume time, immediately after the
    /// matching [`Event::BarrierLeave`] when the edge ends a recorded wait.
    /// These edges are what turn a per-thread event stream into the
    /// happens-before DAG of [`crate::critpath`].
    Wake {
        /// Which mechanism's release this edge encodes.
        edge: WakeEdge,
        /// The releasing thread ([`MANAGER_TID`] / [`CHECKER_TID`] for the
        /// service threads).
        src_tid: ThreadId,
        /// Disambiguating sequence number: the epoch for barrier and
        /// checkpoint edges, the global task/request number for queue edges,
        /// the misspeculation ordinal for checker edges.
        seq: u64,
    },
}

impl Event {
    /// The event's wire name (the `"ev"` field of the JSONL schema).
    pub fn name(&self) -> &'static str {
        match self {
            Event::EpochBegin { .. } => "epoch_begin",
            Event::EpochEnd { .. } => "epoch_end",
            Event::TaskAssign { .. } => "task_assign",
            Event::TaskDispatch { .. } => "task_dispatch",
            Event::TaskRetire { .. } => "task_retire",
            Event::BarrierEnter { .. } => "barrier_enter",
            Event::BarrierLeave { .. } => "barrier_leave",
            Event::Checkpoint { .. } => "checkpoint",
            Event::CheckerSummary { .. } => "checker_summary",
            Event::ScheduleCacheHit { .. } => "schedule_cache_hit",
            Event::Misspeculation { .. } => "misspeculation",
            Event::Degradation { .. } => "degradation",
            Event::FaultInjected { .. } => "fault",
            Event::Wake { .. } => "wake",
        }
    }
}

/// One trace record: when, who, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the trace origin (region start for the threaded
    /// engines, virtual time zero for the simulators).
    pub t_ns: u64,
    /// Emitting thread ([`MANAGER_TID`] / [`CHECKER_TID`] for the service
    /// threads).
    pub tid: ThreadId,
    /// The event.
    pub event: Event,
}

/// Raw wall-clock stamps and their decoding.
///
/// Where the processor has an invariant cycle counter (x86_64 with CPUID
/// leaf `0x8000_0007` EDX bit 8), a collector's sinks store the raw counter
/// and [`TraceCollector::finish`] maps it to nanoseconds through two
/// `(Instant, counter)` anchors, one taken when the collector is created and
/// one in `finish`. Elsewhere sinks store `Instant` nanoseconds directly.
/// The choice is made once per process.
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// What a wall-clock sink's stamps are.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Clock {
        /// Raw cycle-counter readings, decoded at merge.
        Counter,
        /// Nanoseconds since the collector's origin.
        Instant,
    }

    /// The process's stamp source.
    pub(super) fn detected() -> Clock {
        static CLOCK: OnceLock<Clock> = OnceLock::new();
        *CLOCK.get_or_init(|| {
            if invariant_counter() {
                Clock::Counter
            } else {
                Clock::Instant
            }
        })
    }

    #[cfg(target_arch = "x86_64")]
    fn invariant_counter() -> bool {
        use std::arch::x86_64::__cpuid;
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn invariant_counter() -> bool {
        false
    }

    /// The cycle counter (zero where there is none; never read there, since
    /// [`detected`] then picks [`Clock::Instant`]).
    #[inline]
    pub(super) fn counter() -> u64 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `rdtsc` has no preconditions; it reads a register.
        unsafe {
            std::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        0
    }

    /// An `(Instant, counter)` pair read as close together as three tries
    /// allow: the counter is read on both sides of the `Instant` and the
    /// narrowest bracket's midpoint is kept, so an interrupt inside one try
    /// does not skew the map.
    pub(super) fn anchor() -> (Instant, u64) {
        let (_, now, mid) = (0..3)
            .map(|_| {
                let before = counter();
                let now = Instant::now();
                let width = counter().wrapping_sub(before);
                (width, now, before.wrapping_add(width / 2))
            })
            .min_by_key(|&(width, _, _)| width)
            .expect("three tries");
        (now, mid)
    }

    /// The linear map from counter readings to nanoseconds since the origin
    /// through two anchors: `(c0, 0)` and `(c1, ns1)`. Exact at both anchors
    /// and monotone; readings before `c0` decode to 0.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct CounterMap {
        c0: u64,
        /// Nanoseconds per tick in 64.64 fixed point, rounded to nearest.
        scale: u128,
    }

    impl CounterMap {
        pub(super) fn new(c0: u64, c1: u64, ns1: u64) -> Self {
            let ticks = u128::from(c1.saturating_sub(c0));
            // A counter that did not move maps everything to the origin.
            let scale = ((u128::from(ns1) << 64) + ticks / 2)
                .checked_div(ticks)
                .unwrap_or(0);
            Self { c0, scale }
        }

        /// `round(ticks · scale)`: within half a nanosecond of the exact
        /// line, and exactly `ns1` at `c1` (the rounding error of `scale`,
        /// times at most `2^64` ticks, stays below half of `2^64`).
        #[inline]
        pub(super) fn ns(&self, counter: u64) -> u64 {
            let ticks = u128::from(counter.saturating_sub(self.c0));
            (ticks.saturating_mul(self.scale).saturating_add(1 << 63) >> 64) as u64
        }
    }
}

use clock::{Clock, CounterMap};

/// How a sink's [`TraceSink::emit`] stamps a record.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// No wall clock: the simulators stamp virtual time via `emit_at`.
    Virtual,
    /// Raw cycle counter, decoded by the collector's `finish`.
    Counter,
    /// Nanoseconds since this origin.
    Since(Instant),
}

/// A per-thread, fixed-capacity event ring.
///
/// The hot path ([`TraceSink::emit`] / [`TraceSink::emit_at`]) is designed
/// to cost one predictable branch when tracing is disabled and one ring
/// write when enabled: no atomics, no locks, and no allocation after
/// construction (a disabled sink never allocates at all). A collector's
/// sinks stamp a raw cycle-counter reading where the processor has an
/// invariant one, and [`TraceCollector::finish`] turns it into nanoseconds.
/// When the ring overflows, the *oldest* records are overwritten and
/// counted in [`TraceSink::dropped`] — a bounded trace of the most recent
/// history, like a flight recorder.
///
/// # Example
///
/// ```
/// use crossinvoc_runtime::trace::{Event, TraceSink};
///
/// let mut sink = TraceSink::with_capacity(3, 2);
/// sink.emit_at(5, Event::Checkpoint { epoch: 0 });
/// sink.emit_at(9, Event::Checkpoint { epoch: 1 });
/// sink.emit_at(12, Event::Checkpoint { epoch: 2 }); // evicts the first
/// assert_eq!(sink.len(), 2);
/// assert_eq!(sink.dropped(), 1);
///
/// let disabled = TraceSink::disabled();
/// assert!(!disabled.is_enabled());
/// ```
#[derive(Debug)]
pub struct TraceSink {
    tid: ThreadId,
    /// Plain bool, *not* atomic: the sink is single-owner by construction
    /// (one per thread), so the disabled check is branch-predictable and
    /// free of synchronization. This is the "tracing off costs zero atomic
    /// operations" guarantee the overhead smoke test pins down.
    enabled: bool,
    capacity: usize,
    buf: Vec<TraceRecord>,
    /// Next write slot once the ring is full.
    next: usize,
    dropped: u64,
    /// What [`TraceSink::emit`] stamps.
    stamp: Stamp,
}

impl TraceSink {
    /// A sink for thread `tid` holding at most `capacity` records, stamped
    /// with caller-provided (virtual) timestamps via [`TraceSink::emit_at`].
    pub fn with_capacity(tid: ThreadId, capacity: usize) -> Self {
        Self {
            tid,
            enabled: capacity > 0,
            capacity,
            buf: Vec::with_capacity(capacity),
            next: 0,
            dropped: 0,
            stamp: Stamp::Virtual,
        }
    }

    /// Like [`TraceSink::with_capacity`], but [`TraceSink::emit`] stamps
    /// wall-clock nanoseconds since `origin`.
    pub fn with_origin(tid: ThreadId, capacity: usize, origin: Instant) -> Self {
        Self {
            stamp: Stamp::Since(origin),
            ..Self::with_capacity(tid, capacity)
        }
    }

    /// A permanently disabled sink: every emit is a single branch and the
    /// sink never allocates.
    pub fn disabled() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Whether emits are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `event` stamped with the wall clock (no-op when disabled; a
    /// virtual-time sink stamps 0). A collector's sink may store a raw
    /// cycle-counter reading here, which [`TraceCollector::finish`] decodes.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if !self.enabled {
            return;
        }
        let t_ns = match self.stamp {
            Stamp::Counter => clock::counter(),
            Stamp::Since(origin) => origin.elapsed().as_nanos() as u64,
            Stamp::Virtual => 0,
        };
        self.push(TraceRecord {
            t_ns,
            tid: self.tid,
            event,
        });
    }

    /// Records `event` at the explicit timestamp `t_ns` (virtual time).
    #[inline]
    pub fn emit_at(&mut self, t_ns: u64, event: Event) {
        if !self.enabled {
            return;
        }
        self.push(TraceRecord {
            t_ns,
            tid: self.tid,
            event,
        });
    }

    #[inline]
    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
            self.dropped += 1;
        }
    }

    /// Records currently held (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Allocated ring capacity (zero for a disabled sink — the allocation
    /// itself is skipped, which the overhead smoke test asserts).
    pub fn ring_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Records evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning its records in emission order.
    fn into_records(mut self) -> (Vec<TraceRecord>, u64) {
        // Rotate so the oldest surviving record comes first.
        if self.buf.len() == self.capacity && self.next > 0 {
            self.buf.rotate_left(self.next);
        }
        (self.buf, self.dropped)
    }
}

/// Shared factory/collection point for the sinks of one traced region.
///
/// The threaded engines create one collector per execution; each spawned
/// thread takes a sink ([`TraceCollector::sink`]), emits into it privately,
/// and hands it back ([`TraceCollector::absorb`]) before joining. The only
/// synchronization is the absorb-side mutex, which is touched once per
/// thread per pass — never on the event hot path.
#[derive(Debug)]
pub struct TraceCollector {
    capacity: usize,
    origin: Instant,
    /// The cycle-counter reading paired with `origin` when sinks stamp the
    /// counter; `None` when they stamp `Instant` nanoseconds.
    origin_counter: Option<u64>,
    region: u64,
    slots: Mutex<Vec<TraceSink>>,
}

impl TraceCollector {
    /// A collector handing out sinks of `capacity` records each; zero
    /// capacity disables tracing (sinks are inert and `finish` yields
    /// `None`).
    pub fn new(capacity: usize) -> Self {
        Self::with_region(capacity, 0)
    }

    /// A collector whose finished trace is attributed to `region` (the
    /// region-server submission id; `0` is the solo default and is omitted
    /// from the JSONL wire format for backward compatibility).
    pub fn with_region(capacity: usize, region: u64) -> Self {
        // A disabled collector stamps nothing, so it skips the anchor.
        let clock = if capacity == 0 {
            Clock::Instant
        } else {
            clock::detected()
        };
        Self::with_clock(capacity, region, clock)
    }

    fn with_clock(capacity: usize, region: u64, clock: Clock) -> Self {
        let (origin, origin_counter) = match clock {
            Clock::Counter => {
                let (origin, counter) = clock::anchor();
                (origin, Some(counter))
            }
            Clock::Instant => (Instant::now(), None),
        };
        Self {
            capacity,
            origin,
            origin_counter,
            region,
            slots: Mutex::new(Vec::new()),
        }
    }

    /// A disabled collector: every sink is inert, [`TraceCollector::finish`]
    /// returns `None`.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether sinks record events.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Nanoseconds since the collector's origin (for callers that need a
    /// timestamp outside a sink).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh sink for `tid`, stamping wall-clock time from the shared
    /// origin (as raw counter readings where `finish` decodes them).
    pub fn sink(&self, tid: ThreadId) -> TraceSink {
        if self.capacity == 0 {
            return TraceSink::disabled();
        }
        let stamp = match self.origin_counter {
            Some(_) => Stamp::Counter,
            None => Stamp::Since(self.origin),
        };
        TraceSink {
            stamp,
            ..TraceSink::with_capacity(tid, self.capacity)
        }
    }

    /// Returns a finished sink's records to the collector.
    pub fn absorb(&self, sink: TraceSink) {
        if sink.is_enabled() {
            self.slots
                .lock()
                .expect("trace collector poisoned")
                .push(sink);
        }
    }

    /// Merges every absorbed sink into a time-ordered [`Trace`]; `None` when
    /// tracing was disabled.
    ///
    /// Counter stamps are decoded here: a second `(Instant, counter)` anchor
    /// is read and each stamp is mapped linearly between it and the origin's
    /// anchor to nanoseconds since the origin. Within one sink a stamp never
    /// decodes earlier than the one before it.
    pub fn finish(self) -> Option<Trace> {
        if self.capacity == 0 {
            return None;
        }
        let map = self.origin_counter.map(|c0| {
            let (now, c1) = clock::anchor();
            CounterMap::new(c0, c1, now.duration_since(self.origin).as_nanos() as u64)
        });
        let sinks = self.slots.into_inner().expect("trace collector poisoned");
        let parts = sinks.into_iter().map(|sink| {
            let counter = matches!(sink.stamp, Stamp::Counter);
            let (mut records, dropped) = sink.into_records();
            if let (true, Some(map)) = (counter, &map) {
                let mut last = 0;
                for rec in &mut records {
                    last = map.ns(rec.t_ns).max(last);
                    rec.t_ns = last;
                }
            }
            (records, dropped)
        });
        Some(Trace::merge(parts).with_region(self.region))
    }
}

/// A complete, time-ordered execution trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    dropped: u64,
    region: u64,
}

impl Trace {
    /// Builds a trace from per-thread sinks, merging by timestamp (ties
    /// break by thread id, then emission order — deterministic for the
    /// simulators' virtual clocks).
    pub fn from_sinks(sinks: impl IntoIterator<Item = TraceSink>) -> Self {
        Self::merge(sinks.into_iter().map(TraceSink::into_records))
    }

    /// Merges per-thread record streams, each with its drop count.
    fn merge(parts: impl IntoIterator<Item = (Vec<TraceRecord>, u64)>) -> Self {
        let mut records = Vec::new();
        let mut dropped = 0;
        for (recs, drops) in parts {
            records.extend(recs);
            dropped += drops;
        }
        records.sort_by_key(|r| (r.t_ns, r.tid));
        Trace {
            records,
            dropped,
            region: 0,
        }
    }

    /// Builds a trace from loose records (sorts them).
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| (r.t_ns, r.tid));
        Trace {
            records,
            dropped: 0,
            region: 0,
        }
    }

    /// Attributes this trace to a region-server submission id. Region `0`
    /// (the default) marks a solo run and keeps the JSONL output
    /// byte-identical to the pre-region schema.
    pub fn with_region(mut self, region: u64) -> Self {
        self.region = region;
        self
    }

    /// The region-server submission id this trace is attributed to (`0` for
    /// solo runs).
    pub fn region(&self) -> u64 {
        self.region
    }

    /// The time-ordered records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records lost to ring overflow across all sinks.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Timestamp of the last record (the trace's span, since origins are 0).
    pub fn span_ns(&self) -> u64 {
        self.records.last().map_or(0, |r| r.t_ns)
    }

    /// Serializes to JSONL: one flat JSON object per record, schema per
    /// `docs/OBSERVABILITY.md`. Traces attributed to a non-zero region carry
    /// a `region_id` field on every line; region-0 (solo) output is
    /// byte-identical to the pre-region schema.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 64);
        for rec in &self.records {
            write_record(&mut out, rec, self.region);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL trace produced by [`Trace::to_jsonl`] (or any stream
    /// following the documented schema). Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] names the offending line and what was wrong.
    pub fn from_jsonl(input: &str) -> Result<Trace, TraceParseError> {
        let mut records = Vec::new();
        let mut region = 0;
        for (idx, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = parse_record(line).map_err(|msg| TraceParseError {
                line: idx + 1,
                message: msg,
            })?;
            if let Some((record, line_region)) = parsed {
                region = region.max(line_region);
                records.push(record);
            }
        }
        Ok(Trace::from_records(records).with_region(region))
    }

    /// Like [`Trace::from_jsonl`], but keeps only the lines attributed to
    /// `region` — the per-region filter for merged multi-region streams.
    /// Note that region-0 lines carry no `region_id` field on the wire, so
    /// `region == 0` selects exactly the solo-schema lines.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] names the offending line and what was wrong
    /// (every line is parsed, matching or not).
    pub fn from_jsonl_region(input: &str, region: u64) -> Result<Trace, TraceParseError> {
        let mut records = Vec::new();
        for (idx, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = parse_record(line).map_err(|msg| TraceParseError {
                line: idx + 1,
                message: msg,
            })?;
            if let Some((record, _)) = parsed.filter(|&(_, r)| r == region) {
                records.push(record);
            }
        }
        Ok(Trace::from_records(records).with_region(region))
    }
}

/// Why a JSONL trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

// ---- JSONL serialization ------------------------------------------------

fn fault_kind_wire(kind: FaultKind) -> (&'static str, Option<u64>) {
    match kind {
        FaultKind::WorkerPanic => ("worker_panic", None),
        FaultKind::CheckerStall(ms) => ("checker_stall", Some(ms)),
        FaultKind::CheckerDeath => ("checker_death", None),
        FaultKind::FalsePositive => ("false_positive", None),
        FaultKind::SnapshotFail => ("snapshot_fail", None),
        FaultKind::RestoreFail => ("restore_fail", None),
        FaultKind::Delay(us) => ("delay", Some(us)),
    }
}

fn fault_kind_parse(name: &str, param: Option<u64>) -> Result<FaultKind, String> {
    Ok(match name {
        "worker_panic" => FaultKind::WorkerPanic,
        "checker_stall" => FaultKind::CheckerStall(param.ok_or("checker_stall needs param")?),
        "checker_death" => FaultKind::CheckerDeath,
        "false_positive" => FaultKind::FalsePositive,
        "snapshot_fail" => FaultKind::SnapshotFail,
        "restore_fail" => FaultKind::RestoreFail,
        "delay" => FaultKind::Delay(param.ok_or("delay needs param")?),
        other => return Err(format!("unknown fault kind {other:?}")),
    })
}

fn write_record(out: &mut String, rec: &TraceRecord, region: u64) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"t\":{},\"tid\":{},\"ev\":\"{}\"",
        rec.t_ns,
        rec.tid,
        rec.event.name()
    );
    fn field(out: &mut String, key: &str, value: u64) {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    match rec.event {
        Event::EpochBegin { epoch }
        | Event::EpochEnd { epoch }
        | Event::BarrierEnter { epoch }
        | Event::Checkpoint { epoch }
        | Event::ScheduleCacheHit { epoch }
        | Event::Degradation { epoch } => field(out, "epoch", epoch as u64),
        Event::CheckerSummary {
            epoch,
            skips,
            comparisons,
        } => {
            field(out, "epoch", epoch as u64);
            field(out, "skips", skips);
            field(out, "comparisons", comparisons);
        }
        Event::BarrierLeave { epoch, wait_ns } => {
            field(out, "epoch", epoch as u64);
            field(out, "wait_ns", wait_ns);
        }
        Event::TaskDispatch { epoch, task, count } | Event::TaskRetire { epoch, task, count } => {
            field(out, "epoch", epoch as u64);
            field(out, "task", task);
            // One-task records keep the pre-run wire form.
            if count != 1 {
                field(out, "count", count as u64);
            }
        }
        Event::TaskAssign {
            epoch,
            task,
            worker,
            count,
        } => {
            field(out, "epoch", epoch as u64);
            field(out, "task", task);
            field(out, "worker", worker as u64);
            if count != 1 {
                field(out, "count", count as u64);
            }
        }
        Event::Misspeculation {
            earlier_tid,
            earlier_epoch,
            earlier_task,
            later_tid,
            later_epoch,
            later_task,
        } => {
            field(out, "earlier_tid", earlier_tid as u64);
            field(out, "earlier_epoch", earlier_epoch as u64);
            field(out, "earlier_task", earlier_task);
            field(out, "later_tid", later_tid as u64);
            field(out, "later_epoch", later_epoch as u64);
            field(out, "later_task", later_task);
        }
        Event::FaultInjected { kind, epoch, task } => {
            let (name, param) = fault_kind_wire(kind);
            let _ = write!(out, ",\"kind\":\"{name}\"");
            if let Some(p) = param {
                field(out, "param", p);
            }
            field(out, "epoch", epoch as u64);
            field(out, "task", task);
        }
        Event::Wake { edge, src_tid, seq } => {
            let _ = write!(out, ",\"edge\":\"{}\"", edge.name());
            field(out, "src_tid", src_tid as u64);
            field(out, "seq", seq);
        }
    }
    if region != 0 {
        field(out, "region_id", region);
    }
    out.push('}');
}

fn wake_edge_parse(name: &str) -> Result<WakeEdge, String> {
    Ok(match name {
        "barrier" => WakeEdge::Barrier,
        "queue" => WakeEdge::Queue,
        "checkpoint" => WakeEdge::Checkpoint,
        "checker" => WakeEdge::Checker,
        other => return Err(format!("unknown wake edge {other:?}")),
    })
}

/// Event kinds no emitter writes any more. Older traces and flight dumps
/// may still carry them: [`parse_record`] drops such lines instead of
/// rejecting the whole stream.
///
/// * `checker_shard` — the per-pass census row of the address-sharded
///   checker, removed in favour of the single checker thread.
/// * `check_elided` — a worker's per-epoch tally of tasks run without
///   admission under a static conflict-freedom proof, removed with static
///   check elision: every wide task is admitted.
const RETIRED_EVENTS: &[&str] = &["checker_shard", "check_elided"];

/// Minimal parser for one flat JSON object with unsigned-integer and string
/// values — exactly the shape [`write_record`] produces. Unknown keys are an
/// error (the schema is closed; see `docs/OBSERVABILITY.md`). Returns the
/// record plus the line's `region_id` attribution (`0` when absent), or
/// `None` for a line of a [`RETIRED_EVENTS`] kind.
fn parse_record(line: &str) -> Result<Option<(TraceRecord, u64)>, String> {
    let mut nums: Vec<(String, u64)> = Vec::new();
    let mut strs: Vec<(String, String)> = Vec::new();

    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // key
        if bytes[i] != b'"' {
            return Err(format!("expected key quote at byte {i}"));
        }
        let key_end = inner[i + 1..].find('"').ok_or("unterminated key")? + i + 1;
        let key = inner[i + 1..key_end].to_string();
        i = key_end + 1;
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        // value: string or unsigned integer
        if bytes.get(i) == Some(&b'"') {
            let val_end = inner[i + 1..]
                .find('"')
                .ok_or("unterminated string value")?
                + i
                + 1;
            strs.push((key, inner[i + 1..val_end].to_string()));
            i = val_end + 1;
        } else {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i == start {
                return Err(format!("expected number for key {key:?}"));
            }
            let v: u64 = inner[start..i]
                .parse()
                .map_err(|_| format!("number out of range for key {key:?}"))?;
            nums.push((key, v));
        }
        if bytes.get(i) == Some(&b',') {
            i += 1;
        } else if i != bytes.len() {
            return Err(format!("trailing garbage at byte {i}"));
        }
    }

    let num = |key: &str| -> Result<u64, String> {
        nums.iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    };
    let opt_num = |key: &str| nums.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    let str_field = |key: &str| -> Result<&str, String> {
        strs.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field {key:?}"))
    };

    let t_ns = num("t")?;
    let tid = num("tid")? as usize;
    let ev = str_field("ev")?;
    if RETIRED_EVENTS.contains(&ev) {
        return Ok(None);
    }
    let epoch = |key: &str| -> Result<u32, String> {
        u32::try_from(num(key)?).map_err(|_| format!("number out of range for key {key:?}"))
    };
    // Absent on one-task records.
    let count = || -> Result<u32, String> {
        match opt_num("count") {
            None => Ok(1),
            Some(0) => Err("count must be at least 1".to_string()),
            Some(n) => u32::try_from(n).map_err(|_| "count out of range".to_string()),
        }
    };
    let event = match ev {
        "epoch_begin" => Event::EpochBegin {
            epoch: epoch("epoch")?,
        },
        "epoch_end" => Event::EpochEnd {
            epoch: epoch("epoch")?,
        },
        "task_assign" => Event::TaskAssign {
            epoch: epoch("epoch")?,
            task: num("task")?,
            worker: num("worker")? as usize,
            count: count()?,
        },
        "task_dispatch" => Event::TaskDispatch {
            epoch: epoch("epoch")?,
            task: num("task")?,
            count: count()?,
        },
        "task_retire" => Event::TaskRetire {
            epoch: epoch("epoch")?,
            task: num("task")?,
            count: count()?,
        },
        "barrier_enter" => Event::BarrierEnter {
            epoch: epoch("epoch")?,
        },
        "barrier_leave" => Event::BarrierLeave {
            epoch: epoch("epoch")?,
            wait_ns: num("wait_ns")?,
        },
        "checkpoint" => Event::Checkpoint {
            epoch: epoch("epoch")?,
        },
        "checker_summary" => Event::CheckerSummary {
            epoch: epoch("epoch")?,
            skips: num("skips")?,
            comparisons: num("comparisons")?,
        },
        "schedule_cache_hit" => Event::ScheduleCacheHit {
            epoch: epoch("epoch")?,
        },
        "degradation" => Event::Degradation {
            epoch: epoch("epoch")?,
        },
        "misspeculation" => Event::Misspeculation {
            earlier_tid: num("earlier_tid")? as usize,
            earlier_epoch: epoch("earlier_epoch")?,
            earlier_task: num("earlier_task")?,
            later_tid: num("later_tid")? as usize,
            later_epoch: epoch("later_epoch")?,
            later_task: num("later_task")?,
        },
        "fault" => Event::FaultInjected {
            kind: fault_kind_parse(str_field("kind")?, opt_num("param"))?,
            epoch: epoch("epoch")?,
            task: num("task")?,
        },
        "wake" => Event::Wake {
            edge: wake_edge_parse(str_field("edge")?)?,
            src_tid: num("src_tid")? as usize,
            seq: num("seq")?,
        },
        other => return Err(format!("unknown event {other:?}")),
    };
    let region = opt_num("region_id").unwrap_or(0);
    Ok(Some((TraceRecord { t_ns, tid, event }, region)))
}

// ---- Trace analysis -----------------------------------------------------

/// One misspeculation as reconstructed from a trace: when it was detected
/// and which task pair conflicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisspecEntry {
    /// Detection timestamp.
    pub t_ns: u64,
    /// `(tid, epoch, task)` of the earlier-epoch participant.
    pub earlier: (ThreadId, u32, u64),
    /// `(tid, epoch, task)` of the later-epoch participant.
    pub later: (ThreadId, u32, u64),
}

/// Per-thread totals reconstructed from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadBreakdown {
    /// Thread id.
    pub tid: ThreadId,
    /// Tasks the scheduler routed to this worker (the `count`s of the
    /// [`Event::TaskAssign`] events naming it). Zero on engines that do not
    /// emit assignments.
    pub assigned: u64,
    /// Tasks retired (the `count`s of its [`Event::TaskRetire`] events).
    pub tasks: u64,
    /// Synchronization waits (barrier/rendezvous/condition) endured.
    pub barrier_waits: u64,
    /// Total nanoseconds spent in those waits.
    pub barrier_wait_ns: u64,
    /// Total nanoseconds spent executing tasks (sum of matched
    /// dispatch→retire intervals).
    pub busy_ns: u64,
}

/// An injected fault as it appears in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultFiring {
    /// Firing timestamp.
    pub t_ns: u64,
    /// Thread at which it fired.
    pub tid: ThreadId,
    /// The fault.
    pub kind: FaultKind,
    /// Epoch coordinate.
    pub epoch: u32,
    /// Task coordinate.
    pub task: u64,
}

/// Everything the `trace-report` tool derives from a [`Trace`]: the
/// barrier-idle breakdown (Fig. 4.3), the misspeculation ledger
/// (Table 5.3's checking story), the fault ledger, and a per-thread
/// utilization timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Trace span (timestamp of the last record).
    pub span_ns: u64,
    /// Per-thread totals, sorted by thread id (service threads last).
    pub threads: Vec<ThreadBreakdown>,
    /// Misspeculations in detection order.
    pub misspeculations: Vec<MisspecEntry>,
    /// Injected-fault firings in time order.
    pub faults: Vec<FaultFiring>,
    /// Checkpoint epochs in time order.
    pub checkpoints: Vec<u32>,
    /// Epochs at which the region degraded to barrier execution.
    pub degradations: Vec<u32>,
    /// Causality-edge counts per class, indexed like [`WakeEdge::ALL`].
    pub wakes: [u64; 4],
    /// Whole-epoch checker-log skips summed over every
    /// [`Event::CheckerSummary`] in the trace.
    pub checker_epoch_skips: u64,
    /// Signature comparisons summed over every [`Event::CheckerSummary`].
    pub checker_comparisons: u64,
    /// Invocations replayed from the DOMORE schedule memo
    /// ([`Event::ScheduleCacheHit`] count).
    pub schedule_cache_hits: u64,
    /// Records lost to ring overflow (analysis is approximate if nonzero).
    pub dropped: u64,
}

impl TraceReport {
    /// Reconstructs the report from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut threads: Vec<ThreadBreakdown> = Vec::new();
        let mut open_tasks: Vec<(ThreadId, u64)> = Vec::new(); // (tid, dispatch t)
        let mut misspeculations = Vec::new();
        let mut faults = Vec::new();
        let mut checkpoints = Vec::new();
        let mut degradations = Vec::new();
        let mut wakes = [0u64; 4];
        let mut checker_epoch_skips = 0u64;
        let mut checker_comparisons = 0u64;
        let mut schedule_cache_hits = 0u64;

        let slot = |threads: &mut Vec<ThreadBreakdown>, tid: ThreadId| -> usize {
            match threads.iter().position(|t| t.tid == tid) {
                Some(i) => i,
                None => {
                    threads.push(ThreadBreakdown {
                        tid,
                        ..Default::default()
                    });
                    threads.len() - 1
                }
            }
        };

        for rec in trace.records() {
            match rec.event {
                Event::TaskAssign { worker, count, .. } => {
                    // Credited to the *named* worker: the event itself sits
                    // on the scheduler's timeline.
                    let i = slot(&mut threads, worker);
                    threads[i].assigned += u64::from(count);
                }
                Event::TaskDispatch { .. } => {
                    // Remember the dispatch time; the matching retire (same
                    // tid, next retire) closes the busy interval.
                    open_tasks.push((rec.tid, rec.t_ns));
                }
                Event::TaskRetire { count, .. } => {
                    let i = slot(&mut threads, rec.tid);
                    threads[i].tasks += u64::from(count);
                    if let Some(pos) = open_tasks.iter().position(|&(t, _)| t == rec.tid) {
                        let (_, start) = open_tasks.swap_remove(pos);
                        threads[i].busy_ns += rec.t_ns.saturating_sub(start);
                    }
                }
                Event::BarrierLeave { wait_ns, .. } => {
                    let i = slot(&mut threads, rec.tid);
                    threads[i].barrier_waits += 1;
                    threads[i].barrier_wait_ns += wait_ns;
                }
                Event::Misspeculation {
                    earlier_tid,
                    earlier_epoch,
                    earlier_task,
                    later_tid,
                    later_epoch,
                    later_task,
                } => misspeculations.push(MisspecEntry {
                    t_ns: rec.t_ns,
                    earlier: (earlier_tid, earlier_epoch, earlier_task),
                    later: (later_tid, later_epoch, later_task),
                }),
                Event::FaultInjected { kind, epoch, task } => faults.push(FaultFiring {
                    t_ns: rec.t_ns,
                    tid: rec.tid,
                    kind,
                    epoch,
                    task,
                }),
                Event::Checkpoint { epoch } => checkpoints.push(epoch),
                Event::CheckerSummary {
                    skips, comparisons, ..
                } => {
                    checker_epoch_skips += skips;
                    checker_comparisons += comparisons;
                }
                Event::ScheduleCacheHit { .. } => schedule_cache_hits += 1,
                Event::Degradation { epoch } => degradations.push(epoch),
                Event::Wake { edge, .. } => wakes[edge.index()] += 1,
                Event::EpochBegin { .. } | Event::EpochEnd { .. } | Event::BarrierEnter { .. } => {}
            }
        }
        threads.sort_by_key(|t| t.tid);
        TraceReport {
            span_ns: trace.span_ns(),
            threads,
            misspeculations,
            faults,
            checkpoints,
            degradations,
            wakes,
            checker_epoch_skips,
            checker_comparisons,
            schedule_cache_hits,
            dropped: trace.dropped(),
        }
    }

    /// Fraction of aggregate worker time lost to synchronization waits —
    /// the Fig. 4.3 quantity, from the trace instead of counters. Service
    /// threads (manager/checker) are excluded, matching the figure's
    /// accounting.
    pub fn barrier_idle_fraction(&self) -> f64 {
        let workers = self.threads.iter().filter(|t| !is_service_tid(t.tid));
        let (mut busy, mut wait) = (0u64, 0u64);
        for t in workers {
            busy += t.busy_ns;
            wait += t.barrier_wait_ns;
        }
        if busy + wait == 0 {
            0.0
        } else {
            wait as f64 / (busy + wait) as f64
        }
    }

    /// Scheduler load balance from [`Event::TaskAssign`] events: the ratio
    /// of the most-assigned worker's task count to the mean over all worker
    /// rows (`1.0` is perfectly balanced, `num_workers` is fully serialized
    /// onto one worker). `None` when the trace carries no assignments (e.g.
    /// SPECCROSS, which has no scheduler).
    pub fn dispatch_balance(&self) -> Option<f64> {
        let workers: Vec<&ThreadBreakdown> = self
            .threads
            .iter()
            .filter(|t| !is_service_tid(t.tid))
            .collect();
        let total: u64 = workers.iter().map(|t| t.assigned).sum();
        if total == 0 || workers.is_empty() {
            return None;
        }
        let max = workers.iter().map(|t| t.assigned).max().unwrap_or(0);
        let mean = total as f64 / workers.len() as f64;
        Some(max as f64 / mean)
    }

    /// Per-thread busy fraction per time bucket: `timeline(n)[i][b]` is the
    /// fraction of bucket `b` that worker `i` (in [`TraceReport::threads`]
    /// order) spent executing tasks. Derived from matched dispatch→retire
    /// pairs, so a bucket with no completed task reads as idle.
    pub fn utilization_timeline(&self, trace: &Trace, buckets: usize) -> Vec<Vec<f64>> {
        let span = self.span_ns.max(1);
        let bucket_ns = span.div_ceil(buckets.max(1) as u64).max(1);
        let mut rows = vec![vec![0.0f64; buckets]; self.threads.len()];
        let row = |tid: ThreadId| self.threads.iter().position(|t| t.tid == tid);
        let mut open: Vec<(ThreadId, u64)> = Vec::new();
        for rec in trace.records() {
            match rec.event {
                Event::TaskDispatch { .. } => open.push((rec.tid, rec.t_ns)),
                Event::TaskRetire { .. } => {
                    let Some(pos) = open.iter().position(|&(t, _)| t == rec.tid) else {
                        continue;
                    };
                    let (_, start) = open.swap_remove(pos);
                    let Some(r) = row(rec.tid) else { continue };
                    // Spread the busy interval across the buckets it covers.
                    let (mut a, b) = (start, rec.t_ns.max(start));
                    while a < b {
                        let bucket = ((a / bucket_ns) as usize).min(buckets - 1);
                        let bucket_end = (bucket as u64 + 1) * bucket_ns;
                        let chunk = b.min(bucket_end) - a;
                        rows[r][bucket] += chunk as f64 / bucket_ns as f64;
                        a += chunk.max(1);
                    }
                }
                _ => {}
            }
        }
        for row in &mut rows {
            for v in row.iter_mut() {
                *v = v.min(1.0);
            }
        }
        rows
    }

    /// Renders the report as the human-readable text the `trace-report`
    /// binary prints.
    pub fn render(&self, trace: &Trace) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span: {} ns, {} records",
            self.span_ns,
            trace.records().len()
        );
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "warning: {} records dropped by ring overflow; totals are lower bounds",
                self.dropped
            );
        }
        let _ = writeln!(
            out,
            "barrier-idle fraction (workers): {:.1}%",
            100.0 * self.barrier_idle_fraction()
        );
        if let Some(balance) = self.dispatch_balance() {
            let _ = writeln!(out, "dispatch balance (max/mean assigned): {balance:.2}");
        }
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>8} {:>14} {:>14}",
            "thread", "assigned", "tasks", "waits", "wait_ns", "busy_ns"
        );
        for t in &self.threads {
            let name = match t.tid {
                MANAGER_TID => "manager".to_string(),
                CHECKER_TID => "checker".to_string(),
                tid => format!("worker-{tid}"),
            };
            let _ = writeln!(
                out,
                "{:<10} {:>10} {:>10} {:>8} {:>14} {:>14}",
                name, t.assigned, t.tasks, t.barrier_waits, t.barrier_wait_ns, t.busy_ns
            );
        }
        const BLOCKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let timeline = self.utilization_timeline(trace, 40);
        if timeline.iter().any(|row| row.iter().any(|&v| v > 0.0)) {
            let _ = writeln!(out, "utilization timeline (40 buckets):");
            for (t, row) in self.threads.iter().zip(&timeline) {
                if is_service_tid(t.tid) {
                    continue;
                }
                let bar: String = row
                    .iter()
                    .map(|&v| BLOCKS[((v * 8.0).round() as usize).min(8)])
                    .collect();
                let _ = writeln!(out, "  worker-{:<3} |{bar}|", t.tid);
            }
        }
        let _ = writeln!(out, "checkpoints: {:?}", self.checkpoints);
        if self.checker_epoch_skips > 0 || self.checker_comparisons > 0 {
            let _ = writeln!(
                out,
                "checker fast path: {} epoch skips, {} comparisons",
                self.checker_epoch_skips, self.checker_comparisons
            );
        }
        if self.schedule_cache_hits > 0 {
            let _ = writeln!(
                out,
                "schedule cache: {} invocations replayed from memo",
                self.schedule_cache_hits
            );
        }
        if self.wakes.iter().any(|&n| n > 0) {
            let counts: Vec<String> = WakeEdge::ALL
                .iter()
                .zip(self.wakes.iter())
                .filter(|(_, &n)| n > 0)
                .map(|(e, n)| format!("{e}={n}"))
                .collect();
            let _ = writeln!(out, "causality edges: {}", counts.join(" "));
        }
        if !self.misspeculations.is_empty() {
            let _ = writeln!(out, "misspeculation ledger:");
            for m in &self.misspeculations {
                let _ = writeln!(
                    out,
                    "  t={} earlier=(tid {}, epoch {}, task {}) later=(tid {}, epoch {}, task {})",
                    m.t_ns, m.earlier.0, m.earlier.1, m.earlier.2, m.later.0, m.later.1, m.later.2
                );
            }
        }
        if !self.faults.is_empty() {
            let _ = writeln!(out, "injected faults:");
            for f in &self.faults {
                let _ = writeln!(
                    out,
                    "  t={} tid={} {} at (epoch {}, task {})",
                    f.t_ns, f.tid, f.kind, f.epoch, f.task
                );
            }
        }
        for epoch in &self.degradations {
            let _ = writeln!(out, "degraded to barrier execution from epoch {epoch}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                t_ns: 0,
                tid: MANAGER_TID,
                event: Event::Checkpoint { epoch: 0 },
            },
            TraceRecord {
                t_ns: 5,
                tid: 0,
                event: Event::EpochBegin { epoch: 0 },
            },
            TraceRecord {
                t_ns: 10,
                tid: 0,
                event: Event::TaskDispatch {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            },
            TraceRecord {
                t_ns: 30,
                tid: 0,
                event: Event::TaskRetire {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            },
            TraceRecord {
                t_ns: 35,
                tid: 1,
                event: Event::BarrierEnter { epoch: 0 },
            },
            TraceRecord {
                t_ns: 60,
                tid: 1,
                event: Event::BarrierLeave {
                    epoch: 0,
                    wait_ns: 25,
                },
            },
            TraceRecord {
                t_ns: 60,
                tid: 1,
                event: Event::Wake {
                    edge: WakeEdge::Barrier,
                    src_tid: 0,
                    seq: 0,
                },
            },
            TraceRecord {
                t_ns: 70,
                tid: CHECKER_TID,
                event: Event::Misspeculation {
                    earlier_tid: 0,
                    earlier_epoch: 0,
                    earlier_task: 0,
                    later_tid: 1,
                    later_epoch: 1,
                    later_task: 2,
                },
            },
            TraceRecord {
                t_ns: 75,
                tid: 1,
                event: Event::FaultInjected {
                    kind: FaultKind::CheckerStall(5),
                    epoch: 1,
                    task: 2,
                },
            },
            TraceRecord {
                t_ns: 76,
                tid: CHECKER_TID,
                event: Event::CheckerSummary {
                    epoch: 1,
                    skips: 4,
                    comparisons: 9,
                },
            },
            TraceRecord {
                t_ns: 78,
                tid: MANAGER_TID,
                event: Event::ScheduleCacheHit { epoch: 1 },
            },
            TraceRecord {
                t_ns: 80,
                tid: MANAGER_TID,
                event: Event::Degradation { epoch: 1 },
            },
            TraceRecord {
                t_ns: 90,
                tid: 0,
                event: Event::EpochEnd { epoch: 1 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_preserves_every_event() {
        let trace = Trace::from_records(sample_records());
        let jsonl = trace.to_jsonl();
        let parsed = Trace::from_jsonl(&jsonl).expect("parse");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn region_id_round_trips_and_region_zero_is_wire_invisible() {
        let solo = Trace::from_records(sample_records());
        assert_eq!(solo.region(), 0);
        assert!(
            !solo.to_jsonl().contains("region_id"),
            "region-0 output must stay byte-identical to the pre-region schema"
        );

        let regioned = Trace::from_records(sample_records()).with_region(7);
        let jsonl = regioned.to_jsonl();
        assert!(
            jsonl.lines().all(|l| l.contains("\"region_id\":7")),
            "every line of a regioned trace carries the attribution"
        );
        let parsed = Trace::from_jsonl(&jsonl).expect("parse");
        assert_eq!(parsed.region(), 7);
        assert_eq!(parsed, regioned);
    }

    #[test]
    fn regioned_collector_stamps_its_trace() {
        let collector = TraceCollector::with_region(16, 42);
        let mut sink = collector.sink(0);
        sink.emit(Event::Checkpoint { epoch: 0 });
        collector.absorb(sink);
        let trace = collector.finish().expect("enabled");
        assert_eq!(trace.region(), 42);
    }

    #[test]
    fn every_fault_kind_round_trips() {
        let kinds = [
            FaultKind::WorkerPanic,
            FaultKind::CheckerStall(7),
            FaultKind::CheckerDeath,
            FaultKind::FalsePositive,
            FaultKind::SnapshotFail,
            FaultKind::RestoreFail,
            FaultKind::Delay(123),
        ];
        let records: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceRecord {
                t_ns: i as u64,
                tid: i,
                event: Event::FaultInjected {
                    kind,
                    epoch: i as u32,
                    task: i as u64 * 3,
                },
            })
            .collect();
        let trace = Trace::from_records(records);
        assert_eq!(Trace::from_jsonl(&trace.to_jsonl()).unwrap(), trace);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "not json",
            "{\"t\":1}",
            "{\"t\":1,\"tid\":0,\"ev\":\"no_such_event\"}",
            "{\"t\":1,\"tid\":0,\"ev\":\"task_retire\",\"epoch\":0}",
            "{\"t\":-5,\"tid\":0,\"ev\":\"checkpoint\",\"epoch\":0}",
            "{\"t\":1,\"tid\":0,\"ev\":\"wake\",\"edge\":\"mystery\",\"src_tid\":0,\"seq\":0}",
            "{\"t\":1,\"tid\":0,\"ev\":\"wake\",\"src_tid\":0,\"seq\":0}",
        ] {
            assert!(Trace::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn out_of_range_epochs_are_rejected_not_truncated() {
        // 4294967299 = 2^32 + 3: a plain `as u32` would read it back as 3.
        for (key, line) in [
            (
                "epoch",
                "{\"t\":1,\"tid\":0,\"ev\":\"checkpoint\",\"epoch\":4294967299}",
            ),
            (
                "later_epoch",
                "{\"t\":1,\"tid\":0,\"ev\":\"misspeculation\",\"earlier_tid\":0,\
                 \"earlier_epoch\":0,\"earlier_task\":0,\"later_tid\":1,\
                 \"later_epoch\":4294967299,\"later_task\":0}",
            ),
        ] {
            let err = Trace::from_jsonl(line).expect_err("truncated epoch accepted");
            assert_eq!(err.line, 1);
            assert_eq!(err.message, format!("number out of range for key {key:?}"));
        }
        let max = "{\"t\":1,\"tid\":0,\"ev\":\"checkpoint\",\"epoch\":4294967295}";
        let trace = Trace::from_jsonl(max).expect("u32::MAX is in range");
        assert_eq!(
            trace.records()[0].event,
            Event::Checkpoint { epoch: u32::MAX }
        );
    }

    /// Splices `retired` rows into the sample trace's JSONL (solo and with
    /// a region id) and checks that the parse equals the trace without them.
    fn assert_retired_rows_are_dropped(retired: &[String]) {
        for region in [0, 7] {
            let trace = Trace::from_records(sample_records()).with_region(region);
            let suffix = if region == 0 {
                String::new()
            } else {
                format!(",\"region_id\":{region}")
            };
            let mut old = String::new();
            for (i, line) in trace.to_jsonl().lines().enumerate() {
                if i == 3 {
                    for row in retired {
                        old.push_str(row.strip_suffix('}').unwrap());
                        old.push_str(&suffix);
                        old.push_str("}\n");
                    }
                }
                old.push_str(line);
                old.push('\n');
            }
            assert_eq!(Trace::from_jsonl(&old).expect("old trace parses"), trace);
            assert_eq!(Trace::from_jsonl_region(&old, region).unwrap(), trace);
        }
    }

    #[test]
    fn retired_checker_shard_rows_are_dropped() {
        // The per-shard census an address-sharded checker wrote at the end
        // of every pass, on the classic checker tid and on the band below it.
        assert_retired_rows_are_dropped(&[
            format!("{{\"t\":77,\"tid\":{CHECKER_TID},\"ev\":\"checker_shard\",\"shard\":0,\"shards\":2,\"requests\":6}}"),
            format!("{{\"t\":77,\"tid\":{},\"ev\":\"checker_shard\",\"shard\":1,\"shards\":2,\"requests\":3}}", CHECKER_TID - 1),
        ]);
    }

    #[test]
    fn retired_check_elided_rows_are_dropped() {
        // The per-(worker, epoch) tally a statically proven epoch wrote at
        // its boundary.
        assert_retired_rows_are_dropped(&[
            "{\"t\":77,\"tid\":0,\"ev\":\"check_elided\",\"epoch\":1,\"tasks\":3,\"accesses\":12}"
                .to_string(),
            "{\"t\":78,\"tid\":1,\"ev\":\"check_elided\",\"epoch\":1,\"tasks\":2,\"accesses\":8}"
                .to_string(),
        ]);
    }

    #[test]
    fn every_wake_edge_round_trips() {
        let records: Vec<_> = WakeEdge::ALL
            .iter()
            .enumerate()
            .map(|(i, &edge)| TraceRecord {
                t_ns: i as u64,
                tid: i,
                event: Event::Wake {
                    edge,
                    src_tid: if i % 2 == 0 { MANAGER_TID } else { CHECKER_TID },
                    seq: i as u64 * 7,
                },
            })
            .collect();
        let trace = Trace::from_records(records);
        assert_eq!(Trace::from_jsonl(&trace.to_jsonl()).unwrap(), trace);
    }

    #[test]
    fn sink_ring_keeps_most_recent_records() {
        let mut sink = TraceSink::with_capacity(0, 3);
        for i in 0..5u64 {
            sink.emit_at(i, Event::Checkpoint { epoch: i as u32 });
        }
        assert_eq!(sink.dropped(), 2);
        let trace = Trace::from_sinks([sink]);
        let epochs: Vec<u32> = trace
            .records()
            .iter()
            .map(|r| match r.event {
                Event::Checkpoint { epoch } => epoch,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(epochs, vec![2, 3, 4]);
        assert_eq!(trace.dropped(), 2);
    }

    #[test]
    fn disabled_sink_never_allocates_or_records() {
        let mut sink = TraceSink::disabled();
        for i in 0..10_000u64 {
            sink.emit_at(
                i,
                Event::TaskRetire {
                    epoch: 0,
                    task: i,
                    count: 1,
                },
            );
            sink.emit(Event::EpochBegin { epoch: 0 });
        }
        assert!(sink.is_empty());
        assert_eq!(sink.ring_capacity(), 0, "no buffer was ever allocated");
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn collector_merges_sinks_time_ordered() {
        let collector = TraceCollector::new(16);
        let mut a = collector.sink(0);
        let mut b = collector.sink(1);
        a.emit(Event::EpochBegin { epoch: 0 });
        b.emit(Event::EpochBegin { epoch: 0 });
        a.emit(Event::EpochEnd { epoch: 0 });
        collector.absorb(a);
        collector.absorb(b);
        let trace = collector.finish().expect("enabled");
        assert_eq!(trace.records().len(), 3);
        let ts: Vec<u64> = trace.records().iter().map(|r| r.t_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn disabled_collector_finishes_to_none() {
        let collector = TraceCollector::disabled();
        let mut sink = collector.sink(3);
        sink.emit(Event::EpochBegin { epoch: 0 });
        collector.absorb(sink);
        assert!(collector.finish().is_none());
    }

    /// Two sinks on two threads of one collector: the finished trace's
    /// stamps lie between the origin and the end of `finish`, and each
    /// thread's are non-decreasing.
    fn check_collector_clock(collector: TraceCollector) {
        let before = Instant::now();
        let origin = collector.origin;
        std::thread::scope(|s| {
            for tid in 0..2 {
                let collector = &collector;
                s.spawn(move || {
                    let mut sink = collector.sink(tid);
                    for epoch in 0..200 {
                        sink.emit(Event::EpochBegin { epoch });
                        std::hint::black_box(epoch);
                    }
                    collector.absorb(sink);
                });
            }
        });
        let trace = collector.finish().expect("enabled");
        let bound = origin.elapsed().as_nanos() as u64;
        assert!(origin <= before);
        assert_eq!(trace.records().len(), 400);
        for tid in 0..2 {
            let stamps: Vec<u64> = trace
                .records()
                .iter()
                .filter(|r| r.tid == tid)
                .map(|r| r.t_ns)
                .collect();
            assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
            assert!(stamps.iter().all(|&t| t <= bound), "{stamps:?} > {bound}");
        }
    }

    #[test]
    fn instant_stamps_decode_in_order_on_every_target() {
        check_collector_clock(TraceCollector::with_clock(512, 0, Clock::Instant));
    }

    #[test]
    fn detected_clock_stamps_decode_in_order() {
        let collector = TraceCollector::new(512);
        if clock::detected() == Clock::Counter {
            assert!(collector.origin_counter.is_some());
        }
        check_collector_clock(collector);
    }

    #[test]
    fn counter_map_is_exact_at_both_anchors() {
        for (c0, c1, ns1) in [
            (0, 1, 1),
            (1_000, 3_400, 1_000),
            (u64::MAX / 4, u64::MAX / 4 + 2_900_000_000, 1_000_000_000),
            (12_345, 12_345 + 7, 3),
            (5, 5 + 1_000_000, 2_999_999),
        ] {
            let map = CounterMap::new(c0, c1, ns1);
            assert_eq!(map.ns(c0), 0, "({c0}, {c1}, {ns1})");
            assert_eq!(map.ns(c1), ns1, "({c0}, {c1}, {ns1})");
            assert_eq!(map.ns(c0.saturating_sub(9)), 0, "before the origin");
        }
        // A counter that did not move maps everything to the origin.
        assert_eq!(CounterMap::new(7, 7, 50).ns(100), 0);
    }

    proptest::proptest! {
        #[test]
        fn counter_map_is_monotone_and_exact_at_anchors(
            c0 in 0u64..1 << 60,
            ticks in 1u64..1 << 40,
            ns1 in 0u64..1 << 40,
            probes in proptest::collection::vec(0u64..1 << 41, 0..16),
        ) {
            let map = CounterMap::new(c0, c0 + ticks, ns1);
            proptest::prop_assert_eq!(map.ns(c0), 0);
            proptest::prop_assert_eq!(map.ns(c0 + ticks), ns1);
            let mut probes = probes;
            probes.sort_unstable();
            let decoded: Vec<u64> = probes.iter().map(|&p| map.ns(c0 + p)).collect();
            proptest::prop_assert!(decoded.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn one_task_records_keep_the_pre_run_wire_form() {
        let rec = |event| TraceRecord {
            t_ns: 25,
            tid: 0,
            event,
        };
        let jsonl = |event| Trace::from_records(vec![rec(event)]).to_jsonl();
        assert_eq!(
            jsonl(Event::TaskRetire {
                epoch: 2,
                task: 3,
                count: 1
            }),
            "{\"t\":25,\"tid\":0,\"ev\":\"task_retire\",\"epoch\":2,\"task\":3}\n"
        );
        assert_eq!(
            jsonl(Event::TaskDispatch {
                epoch: 2,
                task: 3,
                count: 1
            }),
            "{\"t\":25,\"tid\":0,\"ev\":\"task_dispatch\",\"epoch\":2,\"task\":3}\n"
        );
        assert_eq!(
            jsonl(Event::TaskAssign {
                epoch: 2,
                task: 3,
                worker: 1,
                count: 1
            }),
            "{\"t\":25,\"tid\":0,\"ev\":\"task_assign\",\"epoch\":2,\"task\":3,\"worker\":1}\n"
        );
        // A run names its length; the parser defaults a missing one to 1.
        let run = Event::TaskRetire {
            epoch: 2,
            task: 3,
            count: 6,
        };
        assert_eq!(
            jsonl(run),
            "{\"t\":25,\"tid\":0,\"ev\":\"task_retire\",\"epoch\":2,\"task\":3,\"count\":6}\n"
        );
        assert_eq!(
            Trace::from_jsonl(&jsonl(run)).unwrap().records()[0].event,
            run
        );
        for bad in [
            "{\"t\":1,\"tid\":0,\"ev\":\"task_retire\",\"epoch\":0,\"task\":0,\"count\":0}",
            "{\"t\":1,\"tid\":0,\"ev\":\"task_retire\",\"epoch\":0,\"task\":0,\"count\":4294967296}",
        ] {
            assert!(Trace::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn report_reconstructs_breakdown_and_ledgers() {
        let trace = Trace::from_records(sample_records());
        let report = TraceReport::from_trace(&trace);
        assert_eq!(report.span_ns, 90);
        assert_eq!(report.misspeculations.len(), 1);
        assert_eq!(report.misspeculations[0].later, (1, 1, 2));
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.checkpoints, vec![0]);
        assert_eq!(report.degradations, vec![1]);
        assert_eq!(report.wakes, [1, 0, 0, 0]);
        assert_eq!(report.checker_epoch_skips, 4);
        assert_eq!(report.checker_comparisons, 9);
        assert_eq!(report.schedule_cache_hits, 1);
        let w0 = report.threads.iter().find(|t| t.tid == 0).unwrap();
        assert_eq!(w0.tasks, 1);
        assert_eq!(w0.busy_ns, 20);
        let w1 = report.threads.iter().find(|t| t.tid == 1).unwrap();
        assert_eq!(w1.barrier_waits, 1);
        assert_eq!(w1.barrier_wait_ns, 25);
        // Worker 1 did nothing but wait, worker 0 nothing but work.
        let frac = report.barrier_idle_fraction();
        assert!((frac - 25.0 / 45.0).abs() < 1e-9, "{frac}");
        let render = report.render(&trace);
        assert!(render.contains("misspeculation ledger"));
        assert!(render.contains("worker-0"));
    }

    #[test]
    fn service_tids_are_the_manager_and_the_checker() {
        assert!(is_service_tid(MANAGER_TID));
        assert!(is_service_tid(CHECKER_TID));
        assert!(!is_service_tid(CHECKER_TID - 1));
        assert!(!is_service_tid(7));
    }

    #[test]
    fn utilization_timeline_localizes_busy_intervals() {
        let trace = Trace::from_records(vec![
            TraceRecord {
                t_ns: 0,
                tid: 0,
                event: Event::TaskDispatch {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            },
            TraceRecord {
                t_ns: 50,
                tid: 0,
                event: Event::TaskRetire {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            },
            TraceRecord {
                t_ns: 100,
                tid: 0,
                event: Event::EpochEnd { epoch: 0 },
            },
        ]);
        let report = TraceReport::from_trace(&trace);
        let rows = report.utilization_timeline(&trace, 2);
        assert_eq!(rows.len(), 1);
        assert!(rows[0][0] > 0.9, "first half busy: {:?}", rows[0]);
        assert!(rows[0][1] < 0.1, "second half idle: {:?}", rows[0]);
    }
}
