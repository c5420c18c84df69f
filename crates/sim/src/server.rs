//! Virtual-time model of the region server's shared worker pool.
//!
//! The threaded [`crossinvoc_runtime::pool::WorkerPool`] admits whole gangs
//! in FIFO ticket order, all-or-nothing: the oldest waiting gang is granted
//! as soon as enough slots are free, and no later gang may overtake it.
//! This module replays that admission discipline in virtual time, which is
//! how the BENCH_8 saturation gate scores throughput: CI machines
//! (frequently single-core) cannot observe real concurrent speedup, so the
//! gate feeds each region's *solo* simulated duration into this model and
//! compares the pooled makespan against region-at-a-time execution
//! (`sum` of the durations). The units are whatever the durations are in —
//! typically the `total_ns` of a [`crate::SimResult`].
//!
//! The model deliberately mirrors the pool's two scheduling properties:
//!
//! * **All-or-nothing**: a region occupies its whole gang for its whole
//!   duration; partial admission never happens (so a deadlock between
//!   half-admitted gangs is impossible — same argument as the real pool).
//! * **FIFO head-of-line**: a wide gang at the head blocks later narrow
//!   gangs even when they would fit — the price of starvation-freedom.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One region submitted to the simulated server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpec {
    /// Pool slots the region's gang occupies while running (for SPECCROSS:
    /// workers + checker shards; for DOMORE: workers — the scheduler rides
    /// the submitting manager thread).
    pub gang: usize,
    /// Virtual run time of the region once admitted (e.g. its solo
    /// simulated `total_ns`).
    pub duration: u64,
}

/// Timeline of a simulated region-server run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSimResult {
    /// Virtual completion time of the whole batch through the shared pool.
    pub makespan: u64,
    /// Region-at-a-time baseline: the sum of all durations (one region
    /// holds the pool at a time, as pre-region-server code would).
    pub sequential: u64,
    /// Per-region `(start, finish)` virtual times, in submission order.
    pub timeline: Vec<(u64, u64)>,
}

impl ServerSimResult {
    /// Aggregate throughput of the pooled run relative to region-at-a-time
    /// execution (`> 1.0` means the shared pool helped).
    pub fn throughput_ratio(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.sequential as f64 / self.makespan as f64
    }
}

/// Simulates `regions` (all submitted at time 0, in order) through a pool
/// of `pool_slots` workers under FIFO all-or-nothing gang admission.
///
/// # Panics
///
/// Panics if `pool_slots` is zero or any region's gang is zero or exceeds
/// `pool_slots` (the real pool rejects such regions with `InvalidConfig`
/// before they reach admission).
pub fn region_server(pool_slots: usize, regions: &[RegionSpec]) -> ServerSimResult {
    assert!(pool_slots > 0, "pool must have at least one slot");
    let mut free = pool_slots;
    let mut now = 0u64;
    // Pending slot releases as (finish_time, slots), popped earliest-first.
    let mut releases: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut timeline = Vec::with_capacity(regions.len());
    let mut makespan = 0u64;
    let mut sequential = 0u64;

    for region in regions {
        assert!(
            region.gang > 0 && region.gang <= pool_slots,
            "gang of {} on a pool of {pool_slots} slots",
            region.gang
        );
        // FIFO: this region is the head of the queue; retire finished gangs
        // until its whole gang fits. Later regions cannot overtake it.
        while free < region.gang {
            let Reverse((finish, slots)) = releases
                .pop()
                .expect("gang fits in the pool, so releases must cover the deficit");
            now = now.max(finish);
            free += slots;
        }
        let start = now;
        let finish = start + region.duration;
        free -= region.gang;
        releases.push(Reverse((finish, region.gang)));
        timeline.push((start, finish));
        makespan = makespan.max(finish);
        sequential += region.duration;
    }

    ServerSimResult {
        makespan,
        sequential,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(gang: usize, duration: u64) -> RegionSpec {
        RegionSpec { gang, duration }
    }

    #[test]
    fn independent_gangs_overlap_and_beat_region_at_a_time() {
        // Four 2-wide regions on 4 slots: two waves instead of four.
        let r = region_server(4, &[spec(2, 100), spec(2, 100), spec(2, 100), spec(2, 100)]);
        assert_eq!(r.makespan, 200);
        assert_eq!(r.sequential, 400);
        assert!(r.throughput_ratio() > 1.9);
    }

    #[test]
    fn fifo_head_of_line_blocks_even_fitting_gangs() {
        // The 4-wide head must wait for the whole pool; the narrow region
        // behind it waits too, despite one free slot, matching the pool's
        // starvation-free ticket order.
        let r = region_server(4, &[spec(3, 100), spec(4, 10), spec(1, 10)]);
        assert_eq!(r.timeline[0], (0, 100));
        assert_eq!(r.timeline[1], (100, 110));
        assert_eq!(r.timeline[2], (110, 120));
    }

    #[test]
    fn saturated_pool_serializes_exactly() {
        let r = region_server(2, &[spec(2, 50), spec(2, 70)]);
        assert_eq!(r.makespan, 120);
        assert_eq!(r.sequential, 120);
        assert!((r.throughput_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gang of 5")]
    fn oversized_gang_panics() {
        region_server(4, &[spec(5, 1)]);
    }
}
