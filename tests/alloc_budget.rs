//! Allocation budget of the SPECCROSS and DOMORE fast paths, counted by a
//! process-global allocator: in steady state a task allocates nothing on
//! either side of the worker → checker or scheduler → worker hand-off, and a
//! SPECCROSS pass allocates a constant number of workload states however many
//! checkpoints it takes.
//!
//! The counter sees every thread of the process, so the tests serialize on
//! [`MEASURING`] (CI additionally runs this file with `--test-threads=1`);
//! what the libtest harness itself allocates meanwhile is a handful of
//! strings, far inside the budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossinvoc_domore::prelude::*;
use crossinvoc_runtime::fault::FaultPlan;
use crossinvoc_runtime::RangeSignature;
use crossinvoc_speccross::prelude::*;
use crossinvoc_workloads::synthetic::IncGrid;

/// Allocations (and growing reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Those of exactly [`STATE_BYTES`] bytes: the workload states, given a
/// state size no growing vector passes through.
static STATE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static STATE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static MEASURING: Mutex<()> = Mutex::new(());

struct Counting;

impl Counting {
    fn count(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size == STATE_BYTES.load(Ordering::Relaxed) {
            STATE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every request is forwarded unchanged to `System`; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `grid` under `config` and returns (allocations, allocations of one
/// grid state) made while the engine ran.
fn allocations_of(grid: &IncGrid, config: SpecConfig) -> (u64, u64) {
    let engine = SpecCrossEngine::<RangeSignature>::new(config);
    STATE_BYTES.store(std::mem::size_of_val(&grid.cells()[..]), Ordering::Relaxed);
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        STATE_ALLOCS.load(Ordering::Relaxed),
    );
    let report = engine.execute(grid).expect("region completes");
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        STATE_ALLOCS.load(Ordering::Relaxed),
    );
    STATE_BYTES.store(usize::MAX, Ordering::Relaxed);
    assert!(!report.degraded);
    assert_eq!(grid.cells(), grid.expected());
    (after.0 - before.0, after.1 - before.1)
}

/// Two workers held within one epoch of each other: the in-flight window —
/// and with it the size the checker's log warms up to — does not depend on
/// how the host schedules the threads.
fn gated(units: usize) -> SpecConfig {
    SpecConfig::with_workers(2).spec_distance(Some(units as u64))
}

/// Two regions that differ only in length share their warm-up (threads,
/// rings, the log's first buckets); what the longer one allocates on top is
/// the steady state of its extra 200 epochs.
#[test]
fn a_task_allocates_nothing_in_steady_state() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    const UNITS: usize = 64;
    const WARM_UP: usize = 50;
    const STEADY: usize = 200;
    let config = || gated(UNITS);
    let (warm, _) = allocations_of(&IncGrid::new(UNITS, WARM_UP), config());
    let (full, _) = allocations_of(&IncGrid::new(UNITS, WARM_UP + STEADY), config());
    let tasks = (UNITS * STEADY) as f64;
    let per_task = full.saturating_sub(warm) as f64 / tasks;
    assert!(
        per_task < 0.05,
        "{per_task:.3} allocations per task in steady state ({warm} for {WARM_UP} epochs, \
         {full} for {} epochs)",
        WARM_UP + STEADY
    );
}

/// The DOMORE row: scheduler and workers reuse their scratch (access sets,
/// condition list, outbox, inbox) and messages travel inside the preallocated
/// rings, so — with the schedule memo off, its default — a steady-state
/// iteration allocates nothing. Two region lengths again: the longer one's
/// extra 200 invocations must cost no allocation at all.
#[test]
fn a_domore_iteration_allocates_nothing_in_steady_state() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    const CELLS: usize = 64;
    const WARM_UP: usize = 50;
    const STEADY: usize = 200;
    let allocations = |rounds: usize| {
        let grid = IncGrid::new(CELLS, rounds);
        let mut runtime = DomoreRuntime::new(DomoreConfig::with_workers(2).schedule_memo(false));
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = runtime.execute(&grid).expect("region completes");
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(grid.cells(), grid.expected());
        assert_eq!(report.stats.tasks, (CELLS * rounds) as u64);
        after - before
    };
    let warm = allocations(WARM_UP);
    let full = allocations(WARM_UP + STEADY);
    assert!(
        full <= warm,
        "{} allocations for {} extra iterations ({warm} for {WARM_UP} invocations, {full} for {})",
        full.saturating_sub(warm),
        CELLS * STEADY,
        WARM_UP + STEADY
    );
}

/// A pass owns two state buffers and checkpoints alternate between them;
/// the recovery loop hands both to the next pass. Checkpoints, their
/// dirty-block refreshes and rollbacks allocate nothing at all: a denser
/// schedule costs no allocation of any size (small per-checkpoint
/// allocations on worker threads once fragmented the allocator's arenas
/// enough to raise peak RSS by a quarter).
#[test]
fn checkpoints_reuse_their_buffers() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // 24,000-byte states: no element size of the engine's times a power of
    // two, so none of its doubling vectors passes through that size.
    const UNITS: usize = 3000;
    const EPOCHS: usize = 40;
    let config = |every| gated(UNITS).checkpoint_every(every);

    // 3 checkpoints or 7 after the initial one: two states either way.
    let (_, sparse) = allocations_of(&IncGrid::new(UNITS, EPOCHS), config(10));
    let (_, dense) = allocations_of(&IncGrid::new(UNITS, EPOCHS), config(5));
    assert_eq!(sparse, 2, "initial checkpoint + one spare");
    assert_eq!(dense, sparse, "per pass, not per checkpoint");

    // And the same allocations in all, with and without a rollback. One
    // worker (the benchmark's shape at two threads): with two, how many log
    // buckets the checker warms up to depends on thread timing.
    let solo = |every| SpecConfig::with_workers(1).checkpoint_every(every);
    let (sparse_all, _) = allocations_of(&IncGrid::new(UNITS, EPOCHS), solo(10));
    let (dense_all, _) = allocations_of(&IncGrid::new(UNITS, EPOCHS), solo(5));
    assert_eq!(dense_all, sparse_all, "a checkpoint allocates nothing");
    let rollback = |every| solo(every).fault_plan(FaultPlan::new().false_positive_at(17));
    let (sparse_all, _) = allocations_of(&IncGrid::new(UNITS, EPOCHS), rollback(10));
    let (dense_all, _) = allocations_of(&IncGrid::new(UNITS, EPOCHS), rollback(5));
    assert_eq!(dense_all, sparse_all, "nor does a rollback");

    // A rollback starts a second pass, which inherits the first one's
    // buffers instead of allocating its own.
    let recovering = config(5).fault_plan(FaultPlan::new().false_positive_at(17));
    let (_, two_passes) = allocations_of(&IncGrid::new(UNITS, EPOCHS), recovering);
    assert_eq!(two_passes, 2);
}
