//! Execution statistics shared by the runtimes and the simulator.
//!
//! The evaluation chapter reports several derived quantities — number of
//! tasks, epochs and checking requests (Table 5.3), scheduler/worker ratio
//! (Table 5.2), barrier overhead percentage (Fig. 4.3). [`RegionStats`] is
//! the common container those experiments read out of any executor.
//!
//! # Ordering contract
//!
//! Increments use `Ordering::Relaxed`: each counter is independent and the
//! hot path must not pay for inter-counter ordering. That makes mid-run
//! reads ([the per-counter getters](RegionStats::tasks) and
//! [`RegionStats::summary`]) *approximate* — they may observe one counter
//! ahead of a causally-earlier one (e.g. a task counted whose epoch is not
//! yet). They are fine for progress displays and watchdogs, which is all
//! the engines use them for mid-run.
//!
//! Final reporting must instead call [`RegionStats::snapshot`] **after
//! joining every thread that writes the counters**. Thread join establishes
//! a happens-before edge covering all of the joined thread's writes, so the
//! snapshot is exact and mutually consistent; `snapshot()` additionally
//! loads with `Ordering::Acquire` so the contract holds for writers
//! quiesced by any other synchronizing release operation (a channel
//! handoff, an `Arc` drop) rather than a join.

use std::sync::atomic::{AtomicU64, Ordering};

/// Static description of one [`RegionStats`] counter, generated from the
/// `counters!` table: the wire name (the `StatsSummary` field and JSON
/// key), the Prometheus family it is exposed as, and its help text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDef {
    /// Field / JSON key name (`"tasks"`).
    pub name: &'static str,
    /// Prometheus family (`"crossinvoc_region_tasks_total"`).
    pub family: &'static str,
    /// One-line description (rustdoc and Prometheus `# HELP`).
    pub help: &'static str,
}

/// The single declaration of the region counters. One line per counter —
/// `field: unit|bulk adder [unit|bulk adder], "help";` — generates the
/// [`RegionStats`] atomic cell, its adders (`unit` adds one, `bulk` adds `n`;
/// a counter bumped per task by some writers and folded per epoch by others
/// declares both) and getter, the
/// [`StatsSummary`] field, [`RegionStats::summary`]/[`RegionStats::snapshot`],
/// [`StatsSummary::fields`] and the [`COUNTERS`] metadata every exposition
/// (telemetry JSON, Prometheus, `server-stats`) iterates. Adding a counter
/// is adding a line here.
macro_rules! counters {
    ($($name:ident: $($kind:ident $add:ident)+, $help:literal;)*) => {
        /// Name, Prometheus family and help text of every counter, in
        /// declaration order (the order [`StatsSummary::fields`] yields).
        pub const COUNTERS: [CounterDef; [$(stringify!($name)),*].len()] = [$(CounterDef {
            name: stringify!($name),
            family: concat!("crossinvoc_region_", stringify!($name), "_total"),
            help: $help,
        }),*];

        /// Thread-safe counters describing one parallel region's execution.
        #[derive(Debug, Default)]
        pub struct RegionStats {
            $($name: AtomicU64,)*
        }

        impl RegionStats {
            $(
                $(counters!(@adder $kind $add $name $help);)+

                #[doc = concat!("Current value (approximate mid-run). ", $help)]
                pub fn $name(&self) -> u64 {
                    self.$name.load(Ordering::Relaxed)
                }
            )*

            /// Approximate mid-run view of all counters (Relaxed loads).
            ///
            /// Counters may be mutually inconsistent while writer threads
            /// are still running; see the [module docs](self) for the
            /// ordering contract. For final reporting, use
            /// [`RegionStats::snapshot`] after join.
            pub fn summary(&self) -> StatsSummary {
                StatsSummary { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            /// Exact end-of-run snapshot.
            ///
            /// **Contract:** call only after every thread that increments
            /// these counters has been joined (or otherwise quiesced through
            /// a release-synchronizing operation). Under that contract the
            /// returned values are exact and mutually consistent; the loads
            /// use `Ordering::Acquire` to pair with non-join release edges.
            /// See the [module docs](self).
            pub fn snapshot(&self) -> StatsSummary {
                StatsSummary { $($name: self.$name.load(Ordering::Acquire),)* }
            }
        }

        /// Plain-value snapshot of [`RegionStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSummary {
            $(#[doc = $help] pub $name: u64,)*
        }

        impl StatsSummary {
            /// Every counter as `(name, value)`, in [`COUNTERS`] order.
            pub fn fields(&self) -> [(&'static str, u64); COUNTERS.len()] {
                [$((stringify!($name), self.$name)),*]
            }
        }
    };
    (@adder unit $add:ident $name:ident $help:literal) => {
        #[doc = concat!("Adds one. ", $help)]
        pub fn $add(&self) {
            self.$name.fetch_add(1, Ordering::Relaxed);
        }
    };
    // Bulk adders exist where the writer accumulates locally and folds in
    // at a drain point (checker epoch skips, DOMORE tasks and conditions),
    // at an epoch boundary (the SPECCROSS workers' tasks and check requests)
    // or once per task (accesses).
    (@adder bulk $add:ident $name:ident $help:literal) => {
        #[doc = concat!("Adds `n`. ", $help)]
        pub fn $add(&self, n: u64) {
            self.$name.fetch_add(n, Ordering::Relaxed);
        }
    };
}

counters! {
    tasks: unit add_task bulk add_tasks, "Tasks (inner-loop iterations) executed.";
    epochs: unit add_epoch, "Epochs (loop invocations) entered.";
    check_requests: unit add_check_request bulk add_check_requests, "Signature-checking requests sent to the checker.";
    sync_conditions: unit add_sync_condition bulk add_sync_conditions, "Synchronization conditions produced by the DOMORE scheduler.";
    misspeculations: unit add_misspeculation, "Misspeculations detected (rollbacks).";
    checkpoints: unit add_checkpoint, "Checkpoints taken.";
    wide_passes: unit add_wide_pass, "Speculative passes that ran on every gang thread; the rest of a SPECCROSS region's passes ran on one (SPECCROSS).";
    checkpoint_blocks: bulk add_checkpoint_blocks, "State blocks (512 addresses) copied by SPECCROSS checkpoint refreshes and rollbacks of workloads that track dirty blocks, whole-state counts where they fall back to a full copy (0 for workloads that keep full copies).";
    stalls: unit add_stall, "Worker stalls on a synchronization condition or gate.";
    checker_epoch_skips: bulk add_checker_epoch_skips, "Whole-epoch checker log skips taken by the aggregate-signature fast path (SPECCROSS).";
    schedule_cache_hits: unit add_schedule_cache_hit, "Invocations whose DOMORE schedule was replayed from the cross-invocation memo.";
    elided_signatures: unit add_elided_signature, "Tasks whose signature generation was skipped under a static conflict-freedom proof (SPECCROSS elision).";
    elided_admits: unit add_elided_admit, "Checker admissions skipped for statically-proven tasks (SPECCROSS elision).";
    proven_accesses: bulk add_proven_accesses, "Speculative accesses executed under a static conflict-freedom proof (SPECCROSS elision).";
}

impl RegionStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_independently() {
        let s = RegionStats::new();
        s.add_task();
        s.add_tasks(1);
        s.add_epoch();
        s.add_check_requests(1);
        s.add_sync_condition();
        s.add_sync_conditions(2);
        s.add_misspeculation();
        s.add_checkpoint();
        s.add_checkpoint_blocks(4);
        s.add_wide_pass();
        s.add_stall();
        s.add_checker_epoch_skips(3);
        s.add_schedule_cache_hit();
        s.add_elided_signature();
        s.add_elided_admit();
        s.add_proven_accesses(5);
        let sum = s.summary();
        assert_eq!(sum.tasks, 2);
        assert_eq!(sum.epochs, 1);
        assert_eq!(sum.check_requests, 1);
        assert_eq!(sum.sync_conditions, 3);
        assert_eq!(sum.misspeculations, 1);
        assert_eq!(sum.checkpoints, 1);
        assert_eq!(sum.checkpoint_blocks, 4);
        assert_eq!(sum.wide_passes, 1);
        assert_eq!(sum.stalls, 1);
        assert_eq!(sum.checker_epoch_skips, 3);
        assert_eq!(sum.schedule_cache_hits, 1);
        assert_eq!(sum.elided_signatures, 1);
        assert_eq!(sum.elided_admits, 1);
        assert_eq!(sum.proven_accesses, 5);
    }

    #[test]
    fn fields_follow_the_counter_table() {
        let s = RegionStats::new();
        s.add_task();
        s.add_proven_accesses(5);
        let fields = s.summary().fields();
        assert_eq!(fields.len(), COUNTERS.len());
        for ((name, _), def) in fields.iter().zip(&COUNTERS) {
            assert_eq!(*name, def.name);
            assert_eq!(def.family, format!("crossinvoc_region_{name}_total"));
        }
        assert_eq!(fields[0], ("tasks", 1));
        assert_eq!(fields[COUNTERS.len() - 1], ("proven_accesses", 5));
    }

    #[test]
    fn summary_of_fresh_stats_is_zero() {
        assert_eq!(RegionStats::new().summary(), StatsSummary::default());
    }

    #[test]
    fn counters_are_thread_safe() {
        use std::sync::Arc;
        let s = Arc::new(RegionStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add_task();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All writers joined: snapshot() is exact per the ordering contract.
        assert_eq!(s.snapshot().tasks, 4000);
        assert_eq!(s.tasks(), 4000);
    }

    #[test]
    fn snapshot_matches_summary_when_quiescent() {
        let s = RegionStats::new();
        s.add_task();
        s.add_epoch();
        s.add_stall();
        assert_eq!(s.snapshot(), s.summary());
    }
}
