//! A shared worker pool serving concurrent speculative regions.
//!
//! Historically each engine invocation spawned its own gang of OS threads
//! inside a [`std::thread::scope`] and tore them down at region end. That is
//! fine for one region at a time, but region-server mode (see
//! `DESIGN.md` §"Region server") multiplexes *many* independent regions over
//! one long-lived pool, so thread creation moves out of the region hot path
//! and concurrent regions share a bounded set of cores.
//!
//! The abstraction boundary is [`RegionExecutor`]: a region hands the
//! executor a *gang* of role closures (workers) plus a *local* closure that
//! runs on the submitting thread (the DOMORE scheduler or last replica, or
//! nothing for SPECCROSS), and the call returns only when every role has
//! finished. Two implementations:
//!
//! * [`ScopedExecutor`] — spawns a fresh scoped thread per role, exactly the
//!   pre-pool behaviour. This is the default used by
//!   `SpecCrossEngine::execute` / `DomoreRuntime::execute`.
//! * [`WorkerPool`] — `N` long-lived threads. Gangs are admitted FIFO and
//!   *all-or-nothing*: a gang of `k` roles waits until `k` slots are free and
//!   it is at the head of the ticket queue, then occupies exactly `k` slots
//!   until its roles retire (each role frees its slot the moment it
//!   finishes). FIFO tickets give fairness — a wide gang cannot be starved by
//!   a stream of narrow ones — and all-or-nothing admission makes deadlock
//!   impossible: admitted gangs always run to completion because every
//!   admitted role has a dedicated slot.
//!
//! Role panics are contained: a pool thread catches the unwind, the gang
//! still completes, and the *first* captured payload is re-raised on the
//! submitting thread after the gang retires — the same observable behaviour
//! as a panicking scoped thread, without poisoning pool threads or
//! neighbouring regions.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::telemetry::ServerRegistry;
use crate::wait::{AdaptiveSpin, Parker, PARK_SLICE};

/// One member of a region's gang: a worker body. Boxed so the roles of one
/// pass travel in one `Vec`, bounded by the caller's stack lifetime `'s`.
pub type Role<'s> = Box<dyn FnOnce() + Send + 's>;

/// What one [`RegionExecutor::run_gang`] call observed, for telemetry
/// attribution. Engines forward `queue_wait_ns` to their region's
/// [`crate::telemetry::RegionTelemetry`] cell; executors without an
/// admission queue ([`ScopedExecutor`]) return zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GangStats {
    /// Nanoseconds this gang waited in the admission queue before its slots
    /// were claimed.
    pub queue_wait_ns: u64,
}

/// Executes one region *pass*: a gang of concurrent roles plus a closure for
/// the submitting thread. `run_gang` must not return before every role has
/// finished — engine code relies on this to keep borrowing pass-local state
/// from the stack, exactly as it did under [`std::thread::scope`].
///
/// If any role panics, implementations must re-raise the panic on the
/// submitting thread after the whole gang has retired (mirroring scoped-join
/// semantics). `local` runs concurrently with the roles on the calling
/// thread.
pub trait RegionExecutor: Sync {
    /// Runs `roles` concurrently, runs `local` on the calling thread, and
    /// returns once all of them have finished. The returned [`GangStats`]
    /// carry per-call telemetry (admission queue wait); callers that don't
    /// attribute telemetry simply ignore them.
    fn run_gang<'s>(&self, roles: Vec<Role<'s>>, local: Box<dyn FnOnce() + 's>) -> GangStats;

    /// Maximum gang width this executor can run concurrently, or `None` when
    /// unbounded (a fresh thread per role). Engines validate their gang
    /// demand (`num_workers + 1` for SPECCROSS) against this up front so an
    /// oversized region fails fast instead of wedging the admission queue.
    fn capacity(&self) -> Option<usize> {
        None
    }
}

/// The pre-pool execution strategy: one fresh scoped thread per role.
///
/// Semantically identical to the engines' original inline
/// [`std::thread::scope`] blocks (including panic propagation on join), kept
/// as the default so solo `execute()` calls behave exactly as before the
/// region-server refactor.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScopedExecutor;

impl RegionExecutor for ScopedExecutor {
    fn run_gang<'s>(&self, roles: Vec<Role<'s>>, local: Box<dyn FnOnce() + 's>) -> GangStats {
        std::thread::scope(|scope| {
            for role in roles {
                scope.spawn(role);
            }
            local();
        });
        GangStats::default()
    }
}

/// A job as stored on the pool's queue. Roles are lifetime-erased to
/// `'static` on submission; see the safety argument in
/// [`WorkerPool::run_gang`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Countdown latch the submitting thread blocks on until its gang retires,
/// using the repo-wide spin-then-park discipline ([`AdaptiveSpin`] +
/// bounded [`Parker`] slices) rather than a blocking join.
struct GangLatch {
    remaining: AtomicUsize,
    submitter: Parker,
    /// First panic payload captured from any role of this gang, re-raised on
    /// the submitter once the gang has fully retired.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl GangLatch {
    fn new(count: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(count),
            submitter: Parker::new(),
            panic: Mutex::new(None),
        }
    }

    /// Role retirement: decrement and wake the submitter on the last one.
    fn retire(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.submitter.unpark();
        }
    }

    /// Blocks until every role has retired. Spin-then-park: parks are timed,
    /// so a lost unpark costs one [`PARK_SLICE`], never liveness.
    fn wait(&self) {
        let mut spin = AdaptiveSpin::new();
        while self.remaining.load(Ordering::Acquire) != 0 {
            if spin.should_park() {
                self.submitter.park_timeout(PARK_SLICE);
            }
        }
    }
}

/// FIFO ticket lock over the pool's free slots: gangs are served strictly in
/// submission order, and a gang is admitted only when *all* of its slots are
/// available at once.
#[derive(Debug)]
struct Admission {
    free: usize,
    next_ticket: u64,
    now_serving: u64,
}

struct PoolShared {
    /// Pending role jobs; pool threads pop from the front.
    queue: Mutex<VecDeque<Job>>,
    /// Signals pool threads that the queue is non-empty (or shutting down).
    work_cv: Condvar,
    /// Gang admission state; `admit_cv` wakes ticket holders when slots free
    /// up or the serving counter advances.
    admission: Mutex<Admission>,
    admit_cv: Condvar,
    shutdown: std::sync::atomic::AtomicBool,
    /// Telemetry registry, set once by [`WorkerPool::attach_telemetry`].
    /// When unset every hook is a single relaxed-ish `OnceLock` load — the
    /// untelemetered hot path stays effectively free.
    telemetry: OnceLock<Arc<ServerRegistry>>,
}

/// A fixed-width pool of long-lived worker threads executing region gangs
/// with FIFO all-or-nothing admission.
///
/// The pool is the engine room of region-server mode: many independent
/// regions call [`WorkerPool::run_gang`] concurrently (one pass at a time
/// each), and passes interleave at gang granularity. Dropping the pool joins
/// every thread.
///
/// # Example
///
/// ```
/// use crossinvoc_runtime::pool::{RegionExecutor, Role, WorkerPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// let roles: Vec<Role<'_>> = (0..4)
///     .map(|_| {
///         let hits = &hits;
///         Box::new(move || {
///             hits.fetch_add(1, Ordering::Relaxed);
///         }) as Role<'_>
///     })
///     .collect();
/// pool.run_gang(roles, Box::new(|| {}));
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool of `size` long-lived worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` — a pool that can never admit a gang is a
    /// configuration error, not a runtime condition.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "WorkerPool requires at least one thread");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            admission: Mutex::new(Admission {
                free: size,
                next_ticket: 0,
                now_serving: 0,
            }),
            admit_cv: Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
            telemetry: OnceLock::new(),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crossinvoc-pool-{i}"))
                    .spawn(move || pool_thread(&shared, i))
                    .expect("spawn pool thread")
            })
            .collect();
        Self {
            shared,
            threads,
            size,
        }
    }

    /// Number of pool threads — the widest gang this pool can admit.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Attaches a telemetry registry: from now on every gang admission
    /// reports its queue wait, every slot release updates the busy gauge,
    /// and pool threads attribute their busy time to per-slot shards. First
    /// call wins (returns `false` if a registry was already attached); the
    /// registry should be sized with [`WorkerPool::size`] slots.
    pub fn attach_telemetry(&self, registry: Arc<ServerRegistry>) -> bool {
        self.shared.telemetry.set(registry).is_ok()
    }

    /// Blocks until `k` slots are free *and* this caller holds the oldest
    /// outstanding ticket, then claims the slots. FIFO tickets prevent a
    /// wide gang from being starved by narrow ones slipping past it.
    fn admit(&self, k: usize) {
        let mut adm = self.shared.admission.lock();
        let ticket = adm.next_ticket;
        adm.next_ticket += 1;
        while adm.now_serving != ticket || adm.free < k {
            self.shared.admit_cv.wait(&mut adm);
        }
        adm.free -= k;
        adm.now_serving += 1;
        // The next ticket holder may already be admissible (free slots
        // remain); condvar wakeups are broadcast because waiters filter on
        // their own ticket number.
        self.shared.admit_cv.notify_all();
    }

    /// Returns one slot to the pool (called as each role retires, so
    /// follow-on gangs start as soon as width allows, not at gang end).
    fn release_slot(shared: &PoolShared) {
        let mut adm = shared.admission.lock();
        adm.free += 1;
        drop(adm);
        shared.admit_cv.notify_all();
        if let Some(registry) = shared.telemetry.get() {
            registry.note_slot_release();
        }
    }
}

impl RegionExecutor for WorkerPool {
    /// Runs a gang on the shared pool.
    ///
    /// # Panics
    ///
    /// Panics if the gang is wider than the pool ([`WorkerPool::size`]) —
    /// such a gang could never be admitted and would wedge the FIFO queue.
    /// Engines translate [`RegionExecutor::capacity`] into a typed
    /// configuration error before reaching this point.
    ///
    /// If a role panics, the first captured payload is re-raised here after
    /// the whole gang has retired (scoped-join semantics).
    fn run_gang<'s>(&self, roles: Vec<Role<'s>>, local: Box<dyn FnOnce() + 's>) -> GangStats {
        let k = roles.len();
        if k == 0 {
            local();
            return GangStats::default();
        }
        assert!(
            k <= self.size,
            "gang of {k} roles exceeds pool capacity {}",
            self.size
        );
        let enqueued = Instant::now();
        self.admit(k);
        let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
        if let Some(registry) = self.shared.telemetry.get() {
            registry.note_admission(k, queue_wait_ns);
        }

        let latch = Arc::new(GangLatch::new(k));
        {
            let mut queue = self.shared.queue.lock();
            for role in roles {
                // SAFETY: the role borrows stack data of lifetime `'s`. The
                // erased box is only ever *run* (or dropped) by a pool thread
                // before `latch.retire()` for that role, and this function
                // does not return — not even by unwinding out of `local`,
                // thanks to the `WaitGuard` below — until every role has
                // retired. The borrowed data therefore strictly outlives
                // every use of the erased closure.
                let role: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Job>(role) };
                let latch = Arc::clone(&latch);
                let shared = Arc::clone(&self.shared);
                queue.push_back(Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(role));
                    if let Err(payload) = outcome {
                        let mut slot = latch.panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    // Free the slot before retiring the latch so a submitter
                    // woken by `retire` observes the slot available.
                    WorkerPool::release_slot(&shared);
                    latch.retire();
                }));
            }
        }
        self.shared.work_cv.notify_all();

        /// Blocks on the latch even if `local` unwinds: the soundness of the
        /// lifetime erasure above requires the stack frame to stay alive
        /// until every role has retired, panic or not.
        struct WaitGuard<'a>(&'a GangLatch);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }

        let guard = WaitGuard(&latch);
        local();
        drop(guard);

        let payload = latch.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        GangStats { queue_wait_ns }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.size)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Under the queue lock: a pool thread between its shutdown check and
        // its `wait` holds that lock, so it cannot miss this store and then
        // sleep through the notify.
        let queue = self.shared.queue.lock();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.work_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Pool thread main loop: pop a job, run it, repeat until shutdown. Jobs
/// arrive pre-wrapped in `catch_unwind`, so pool threads never die to a
/// region's panic. `slot` is this thread's index, used to attribute busy
/// time to its telemetry shard without cross-thread contention.
fn pool_thread(shared: &PoolShared, slot: usize) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.work_cv.wait(&mut queue);
            }
        };
        match shared.telemetry.get() {
            Some(registry) => {
                let started = Instant::now();
                job();
                registry.add_busy_ns(slot, started.elapsed().as_nanos() as u64);
            }
            None => job(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn gang<'s>(n: usize, f: impl Fn(usize) + Send + Sync + 's) -> Vec<Role<'s>> {
        let f = Arc::new(f);
        (0..n)
            .map(|i| {
                let f = Arc::clone(&f);
                Box::new(move || f(i)) as Role<'s>
            })
            .collect()
    }

    #[test]
    fn scoped_executor_runs_all_roles_and_local() {
        let hits = AtomicUsize::new(0);
        let local_ran = AtomicUsize::new(0);
        ScopedExecutor.run_gang(
            gang(3, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            }),
            Box::new(|| {
                local_ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        assert_eq!(local_ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_runs_gangs_borrowing_the_stack() {
        let pool = WorkerPool::new(4);
        let mut cells = vec![0u64; 4];
        {
            let slices: Vec<&mut u64> = cells.iter_mut().collect();
            let roles: Vec<Role<'_>> = slices
                .into_iter()
                .enumerate()
                .map(|(i, cell)| {
                    Box::new(move || {
                        *cell = i as u64 + 1;
                    }) as Role<'_>
                })
                .collect();
            pool.run_gang(roles, Box::new(|| {}));
        }
        assert_eq!(cells, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pool_serves_more_gangs_than_threads() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run_gang(
                gang(2, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }),
                Box::new(|| {}),
            );
        }
        assert_eq!(hits.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(3));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    for _ in 0..25 {
                        let hits = &hits;
                        pool.run_gang(
                            gang(2, move |_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            }),
                            Box::new(|| {}),
                        );
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 25 * 2);
    }

    #[test]
    fn role_panic_reraises_on_submitter_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_gang(
                gang(2, |i| {
                    if i == 1 {
                        panic!("role boom");
                    }
                }),
                Box::new(|| {}),
            );
        }));
        assert!(result.is_err(), "panic must re-raise on the submitter");
        // The pool threads survived the panic and serve the next gang.
        let ok = AtomicUsize::new(0);
        pool.run_gang(
            gang(2, |_| {
                ok.fetch_add(1, Ordering::Relaxed);
            }),
            Box::new(|| {}),
        );
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn local_runs_concurrently_with_roles() {
        // local and the role hand a token back and forth: only possible if
        // they genuinely overlap.
        let pool = WorkerPool::new(1);
        let stage = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&stage);
        let roles: Vec<Role<'_>> = vec![Box::new(move || {
            while s.load(Ordering::Acquire) != 1 {
                std::thread::yield_now();
            }
            s.store(2, Ordering::Release);
        })];
        pool.run_gang(
            roles,
            Box::new(|| {
                stage.store(1, Ordering::Release);
                while stage.load(Ordering::Acquire) != 2 {
                    std::thread::yield_now();
                }
            }),
        );
        assert_eq!(stage.load(Ordering::Acquire), 2);
    }

    #[test]
    fn oversized_gang_panics_fast() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_gang(gang(3, |_| {}), Box::new(|| {}));
        }));
        assert!(result.is_err());
        assert_eq!(pool.capacity(), Some(2));
    }

    #[test]
    fn empty_gang_runs_local_only() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        pool.run_gang(
            Vec::new(),
            Box::new(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn telemetry_hooks_observe_admissions_and_busy_time() {
        let pool = WorkerPool::new(2);
        let registry = Arc::new(ServerRegistry::new(pool.size()));
        assert!(pool.attach_telemetry(Arc::clone(&registry)));
        // Second attach is refused: first registry keeps the pool.
        assert!(!pool.attach_telemetry(Arc::new(ServerRegistry::new(2))));

        let stats = pool.run_gang(
            gang(2, |_| {
                std::thread::sleep(Duration::from_millis(2));
            }),
            Box::new(|| {}),
        );
        let snap = registry.snapshot();
        assert_eq!(snap.pool.admissions, 1);
        assert_eq!(snap.pool.queue_wait.count, 1);
        assert_eq!(snap.pool.slots_busy, 0, "all slots released after gang");
        assert!(
            snap.pool.busy_ns >= 2 * 1_000_000,
            "two 2ms roles must register busy time, got {}",
            snap.pool.busy_ns
        );
        assert!(stats.queue_wait_ns < 10_000_000_000, "sane queue wait");

        // Empty gangs skip admission entirely.
        let stats = pool.run_gang(Vec::new(), Box::new(|| {}));
        assert_eq!(stats, GangStats::default());
        assert_eq!(registry.snapshot().pool.admissions, 1);
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // A freshly spawned pool thread is usually between its shutdown
        // check and its first `wait` when the pool drops: the window a
        // shutdown stored outside the queue lock could be lost in.
        let (done, finished) = std::sync::mpsc::channel();
        let churn = std::thread::spawn(move || {
            for round in 0..3000 {
                drop(WorkerPool::new(1 + round % 3));
            }
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(120)).is_ok(),
            "a pool's drop hung joining its threads"
        );
        churn.join().expect("churn thread");
    }

    #[test]
    fn admission_is_fifo_all_or_nothing() {
        // A width-2 gang submitted while both slots are busy must still be
        // admitted ahead of a width-1 gang submitted after it.
        let pool = Arc::new(WorkerPool::new(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let release = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            // Occupy both slots.
            let p = Arc::clone(&pool);
            let r = Arc::clone(&release);
            scope.spawn(move || {
                let r2 = Arc::clone(&r);
                p.run_gang(
                    gang(2, move |_| {
                        while r2.load(Ordering::Acquire) == 0 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }),
                    Box::new(|| {}),
                );
            });
            std::thread::sleep(Duration::from_millis(20));

            // Wide gang first, narrow gang second.
            let p = Arc::clone(&pool);
            let o = Arc::clone(&order);
            scope.spawn(move || {
                let o2 = Arc::clone(&o);
                p.run_gang(
                    gang(2, move |i| {
                        if i == 0 {
                            o2.lock().push("wide");
                        }
                    }),
                    Box::new(|| {}),
                );
            });
            std::thread::sleep(Duration::from_millis(20));
            let p = Arc::clone(&pool);
            let o = Arc::clone(&order);
            scope.spawn(move || {
                let o2 = Arc::clone(&o);
                p.run_gang(
                    gang(1, move |_| {
                        o2.lock().push("narrow");
                    }),
                    Box::new(|| {}),
                );
            });
            std::thread::sleep(Duration::from_millis(20));
            release.store(1, Ordering::Release);
        });

        assert_eq!(*order.lock(), vec!["wide", "narrow"]);
    }
}
