//! Virtual-time trace sinks shared by the simulated executors.
//!
//! The simulators stamp events with their per-thread virtual clocks via
//! [`TraceSink::emit_at`], so two runs over the same inputs produce
//! byte-identical traces — the same JSONL schema the threaded engines emit
//! from wall-clock sinks (see `docs/OBSERVABILITY.md`).

use crossinvoc_runtime::trace::{Trace, TraceSink, CHECKER_TID, MANAGER_TID};

/// One sink per simulated thread plus the service pseudo-threads.
///
/// With capacity zero every sink is disabled and each emit is a single
/// branch, so untraced simulations pay nothing.
#[derive(Debug)]
pub(crate) struct SimSinks {
    /// Worker sinks, indexed by dense thread id.
    pub workers: Vec<TraceSink>,
    /// Sink for manager-level events (checkpoints, degradations).
    pub manager: TraceSink,
    /// Sink for the SPECCROSS checker (disabled in the other executors).
    pub checker: TraceSink,
    /// Region-server attribution id stamped onto the merged trace; 0 (solo)
    /// keeps the wire format byte-identical to the pre-region schema,
    /// mirroring the threaded engines' `region_id` config knob.
    region: u64,
}

impl SimSinks {
    /// Sinks for `threads` workers and the manager.
    pub fn new(threads: usize, capacity: usize) -> Self {
        Self {
            workers: (0..threads)
                .map(|tid| TraceSink::with_capacity(tid, capacity))
                .collect(),
            manager: TraceSink::with_capacity(MANAGER_TID, capacity),
            checker: TraceSink::disabled(),
            region: 0,
        }
    }

    /// Like [`SimSinks::new`], plus a checker sink.
    pub fn with_checker(threads: usize, capacity: usize) -> Self {
        Self {
            checker: TraceSink::with_capacity(CHECKER_TID, capacity),
            ..Self::new(threads, capacity)
        }
    }

    /// Attributes the merged trace to a region-server submission id.
    pub fn region(mut self, region: u64) -> Self {
        self.region = region;
        self
    }

    /// Merges every sink into a time-ordered trace; `None` when disabled.
    pub fn finish(self) -> Option<Trace> {
        if !self.manager.is_enabled() {
            return None;
        }
        let mut all = self.workers;
        all.push(self.manager);
        all.push(self.checker);
        Some(Trace::from_sinks(all).with_region(self.region))
    }
}
