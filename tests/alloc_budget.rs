//! Allocation budget of the SPECCROSS and DOMORE fast paths, counted by a
//! process-global allocator: in steady state a task allocates nothing on
//! either side of the worker → checker or scheduler → worker hand-off, and a
//! SPECCROSS pass allocates a constant number of workload states however many
//! checkpoints it takes.
//!
//! The counter sees only *tracked* threads: the measuring test's own and
//! the region threads the engines spawn through [`Tracked`]. The libtest
//! harness's threads stay out — while one test measures, the harness prints
//! the previous test's result and spawns the next test's thread, which once
//! added a timing-dependent handful of allocations to an exact count. The
//! tests also serialize on [`MEASURING`] (CI additionally runs this file
//! with `--test-threads=1`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossinvoc_domore::prelude::*;
use crossinvoc_runtime::fault::FaultPlan;
use crossinvoc_runtime::pool::{GangStats, RegionExecutor, Role, ScopedExecutor};
use crossinvoc_runtime::RangeSignature;
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::{WIDE_CHUNK_NS, WIDE_TASK_NS};
use crossinvoc_workloads::synthetic::IncGrid;

/// Allocations (and growing reallocations) by tracked threads since
/// process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Those of exactly [`STATE_BYTES`] bytes: the workload states, given a
/// state size no growing vector passes through.
static STATE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static STATE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static MEASURING: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's allocations count. Const-initialized and
    /// without a destructor, so reading it never allocates.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Holds [`MEASURING`] with the calling thread tracked.
fn measuring() -> std::sync::MutexGuard<'static, ()> {
    let guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    TRACKED.with(|t| t.set(true));
    guard
}

/// The engines' default executor — one scoped thread per role — with every
/// role's thread tracked.
struct Tracked;

impl RegionExecutor for Tracked {
    fn run_gang<'s>(&self, roles: Vec<Role<'s>>, local: Box<dyn FnOnce() + 's>) -> GangStats {
        let roles = roles
            .into_iter()
            .map(|role| -> Role<'s> {
                Box::new(move || {
                    TRACKED.with(|t| t.set(true));
                    role()
                })
            })
            .collect();
        ScopedExecutor.run_gang(roles, local)
    }
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        if !TRACKED.try_with(Cell::get).unwrap_or(false) {
            return;
        }
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
/// grid state) made while the engine ran. Grids with busy work run wide,
/// bare ones narrow.
fn allocations_of(grid: &IncGrid, config: SpecConfig) -> (u64, u64) {
    let engine = SpecCrossEngine::<RangeSignature>::new(config);
    STATE_BYTES.store(std::mem::size_of_val(&grid.cells()[..]), Ordering::Relaxed);
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        STATE_ALLOCS.load(Ordering::Relaxed),
    );
    let report = engine.execute_on(grid, &Tracked).expect("region completes");
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        STATE_ALLOCS.load(Ordering::Relaxed),
    );
    STATE_BYTES.store(usize::MAX, Ordering::Relaxed);
    assert!(!report.degraded);
    assert_eq!(report.stats.wide_passes > 0, grid.spin_ns > 0);
    assert_eq!(grid.cells(), grid.expected());
    (after.0 - before.0, after.1 - before.1)
}

/// Two workers held within one epoch of each other: the in-flight window —
/// and with it the size the checker's log warms up to in a wide pass — does
/// not depend on how the host schedules the threads.
fn gated(units: usize) -> SpecConfig {
    SpecConfig::with_workers(2).spec_distance(Some(units as u64))
}

/// Two wide regions that differ only in length share their warm-up
/// (threads, the log's first buckets); what the longer one allocates on top
/// is the steady state of its extra 200 epochs of admissions.
#[test]
fn a_task_allocates_nothing_in_steady_state() {
    let _serial = measuring();
    const UNITS: usize = 64;
    const WARM_UP: usize = 50;
    const STEADY: usize = 200;
    let config = || gated(UNITS);
    let grid = |rounds| IncGrid::new(UNITS, rounds).with_spin(WIDE_TASK_NS);
    let (warm, _) = allocations_of(&grid(WARM_UP), config());
    let (full, _) = allocations_of(&grid(WARM_UP + STEADY), config());
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
    let _serial = measuring();
    const CELLS: usize = 64;
    const WARM_UP: usize = 50;
    const STEADY: usize = 200;
    let allocations = |rounds: usize| {
        let grid = IncGrid::new(CELLS, rounds);
        let mut runtime = DomoreRuntime::new(DomoreConfig::with_workers(2).schedule_memo(false));
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = runtime
            .execute_on(&grid, &Tracked)
            .expect("region completes");
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
    let _serial = measuring();
    // 24,000-byte states: no element size of the engine's times a power of
    // two, so none of its doubling vectors passes through that size.
    const UNITS: usize = 3000;
    const EPOCHS: usize = 40;
    let config = |every| gated(UNITS).checkpoint_every(every);
    // Wide passes: `WIDE_CHUNK_NS` per task widens a pass whatever its
    // chunk length, and these states are costly to spin through at more.
    let wide = || IncGrid::new(UNITS, EPOCHS).with_spin(WIDE_CHUNK_NS);

    // 3 checkpoints or 7 after the initial one: two states either way.
    let (_, sparse) = allocations_of(&wide(), config(10));
    let (_, dense) = allocations_of(&wide(), config(5));
    assert_eq!(sparse, 2, "initial checkpoint + one spare");
    assert_eq!(dense, sparse, "per pass, not per checkpoint");

    // And the same allocations in all, with and without a rollback. Bare
    // one-task chunks (a speculative range of 1) keep the passes narrow in
    // any build: in a wide one, how many log buckets the checker warms up
    // to depends on thread timing.
    let solo = |every| {
        SpecConfig::with_workers(1)
            .spec_distance(Some(1))
            .checkpoint_every(every)
    };
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
    let (_, two_passes) = allocations_of(&wide(), recovering);
    assert_eq!(two_passes, 2);
}
