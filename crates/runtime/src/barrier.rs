//! Non-speculative barrier synchronization.
//!
//! This is the baseline the thesis measures all cross-invocation techniques
//! against: a global barrier placed after every parallel loop invocation
//! (`pthread_barrier_wait` in Fig. 1.3(b)). The implementation is a classic
//! sense-reversing centralized barrier that waits adaptively — a bounded
//! spin, then timed parks (see [`crate::wait`]) — plus
//! per-thread idle-time accounting used by the barrier-overhead experiment
//! (Fig. 4.3): the time between a thread's arrival and the barrier's release
//! is pure synchronization loss.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::utils::CachePadded;

use crate::wait::{AdaptiveSpin, Parker, PARK_SLICE};

/// Outcome of [`SpinBarrier::wait_abortable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierWait {
    /// The barrier released normally; `true` on the serial (last-arriving)
    /// thread, as with [`SpinBarrier::wait`].
    Released(bool),
    /// The abort flag was observed while spinning.
    Aborted,
    /// The deadline elapsed while spinning (a liveness failure elsewhere —
    /// the caller should abort the pass rather than spin forever).
    TimedOut,
}

/// A reusable sense-reversing spinning barrier.
///
/// Its participants are the threads of ids `0..num_threads()`. The count is
/// fixed at creation unless [`SpinBarrier::set_num_threads`] lowers it (or
/// raises it back) between generations — how a SPECCROSS pass lets its
/// other workers join the one that started alone.
///
/// Unlike `std::sync::Barrier`, arrival order and waiting cost are observable
/// through [`SpinBarrier::idle_nanos`], which sums, over all waits, the time
/// each thread spent stalled at the barrier. The paper's Fig. 4.3 reports this
/// quantity as a percentage of total parallel runtime.
///
/// # Example
///
/// ```
/// use crossinvoc_runtime::SpinBarrier;
/// use std::sync::Arc;
///
/// let barrier = Arc::new(SpinBarrier::new(2));
/// let b = Arc::clone(&barrier);
/// let t = std::thread::spawn(move || {
///     b.wait(1);
/// });
/// barrier.wait(0);
/// t.join().unwrap();
/// assert_eq!(barrier.generations(), 1);
/// ```
#[derive(Debug)]
pub struct SpinBarrier {
    /// Participants: at most the count `new` was given, the length of
    /// `parkers` and `idle_nanos`.
    num_threads: AtomicUsize,
    arrived: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicBool>,
    generations: AtomicU64,
    /// Thread id of the last arrival of the most recent release — the
    /// source of the barrier-release causality edge. Written before the
    /// sense flip, so a released waiter always reads its own generation's
    /// releaser.
    releaser: CachePadded<AtomicUsize>,
    idle_nanos: Box<[CachePadded<AtomicU64>]>,
    /// Per-thread parking spots for waits that outlive the spin budget.
    parkers: Box<[Parker]>,
    /// How many threads are registered as (about to be) parked; the
    /// releasing thread only walks `parkers` when this is nonzero, keeping
    /// the all-spinning fast path free of parking traffic.
    parked: CachePadded<AtomicUsize>,
}

impl SpinBarrier {
    /// Creates a barrier for `num_threads` participants.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "barrier needs at least one thread");
        let idle = (0..num_threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            num_threads: AtomicUsize::new(num_threads),
            arrived: CachePadded::new(AtomicUsize::new(0)),
            sense: CachePadded::new(AtomicBool::new(false)),
            generations: AtomicU64::new(0),
            releaser: CachePadded::new(AtomicUsize::new(0)),
            idle_nanos: idle,
            parkers: (0..num_threads).map(|_| Parker::new()).collect(),
            parked: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Number of participating threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads.load(Ordering::Relaxed)
    }

    /// Sets the number of participants to `n`, at most the count the
    /// barrier was created with. Only valid between generations: no thread
    /// may be waiting, and every later wait must be ordered after this call
    /// (say, by a `Release` store its waiter reads with `Acquire`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the creation count.
    pub fn set_num_threads(&self, n: usize) {
        assert!(
            (1..=self.parkers.len()).contains(&n),
            "participant count {n} out of range"
        );
        self.num_threads.store(n, Ordering::Relaxed);
    }

    /// Wakes every thread parked in a wait, so it re-checks the barrier, its
    /// abort flag and its deadline now: the release calls it after the sense
    /// flip, and whoever raises an abort flag a wait watches, after the store.
    /// A racing park that misses the wakeup self-wakes after one timed slice.
    pub fn wake_parked(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        for p in self.parkers.iter() {
            p.unpark();
        }
    }

    /// One failed-predicate step of a spin-then-park wait: burns spin
    /// budget, then registers in `parked` and parks for one timed slice.
    fn spin_or_park(&self, tid: usize, spin: &mut AdaptiveSpin, sense: bool, abort: &AtomicBool) {
        if !spin.should_park() {
            return;
        }
        self.parked.fetch_add(1, Ordering::SeqCst);
        // Re-check after registering: a release or abort that happened in
        // between has already walked (or will walk) the parkers, and the
        // timed slice bounds the remaining race window.
        if self.sense.load(Ordering::Acquire) != sense && !abort.load(Ordering::Acquire) {
            self.parkers[tid].park_timeout(PARK_SLICE);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until all `num_threads` participants have called `wait`.
    ///
    /// `tid` is the caller's dense thread id, used only for idle accounting.
    /// Returns `true` on the *last* thread to arrive (the one that released
    /// the barrier), mirroring `pthread`'s serial-thread return value.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below the creation count.
    pub fn wait(&self, tid: usize) -> bool {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.wait_abortable(tid, &NEVER, None) == BarrierWait::Released(true)
    }

    /// Like [`SpinBarrier::wait`], but gives up when `abort` becomes `true`
    /// or `deadline` passes while spinning.
    ///
    /// An aborted or timed-out wait leaves the barrier's arrival count
    /// permanently short for the current generation — peers still spinning on
    /// it must be released by the same abort flag, and the barrier must not
    /// be reused afterwards. The engines here create a fresh barrier per
    /// run, so a poisoned generation dies with its run.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below the creation count.
    pub fn wait_abortable(
        &self,
        tid: usize,
        abort: &AtomicBool,
        deadline: Option<Instant>,
    ) -> BarrierWait {
        assert!(tid < self.parkers.len(), "thread id out of range");
        if abort.load(Ordering::Acquire) {
            return BarrierWait::Aborted;
        }
        let local_sense = !self.sense.load(Ordering::Relaxed);
        let arrival = Instant::now();
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.num_threads() {
            // Last arrival: reset the counter and flip the sense to release
            // every spinning thread.
            self.arrived.store(0, Ordering::Relaxed);
            self.generations.fetch_add(1, Ordering::Relaxed);
            self.releaser.store(tid, Ordering::Relaxed);
            self.sense.store(local_sense, Ordering::Release);
            self.wake_parked();
            BarrierWait::Released(true)
        } else {
            let mut spin = AdaptiveSpin::new();
            while self.sense.load(Ordering::Acquire) != local_sense {
                if abort.load(Ordering::Acquire) {
                    return BarrierWait::Aborted;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return BarrierWait::TimedOut;
                }
                // Timed parks re-check the abort flag and deadline at least
                // once per PARK_SLICE, preserving the pre-park semantics.
                self.spin_or_park(tid, &mut spin, local_sense, abort);
            }
            self.idle_nanos[tid].fetch_add(arrival.elapsed().as_nanos() as u64, Ordering::Relaxed);
            BarrierWait::Released(false)
        }
    }

    /// Total nanoseconds thread `tid` has spent stalled at this barrier.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below the creation count.
    pub fn idle_nanos(&self, tid: usize) -> u64 {
        self.idle_nanos[tid].load(Ordering::Relaxed)
    }

    /// Sum of [`SpinBarrier::idle_nanos`] over all threads.
    pub fn total_idle_nanos(&self) -> u64 {
        self.idle_nanos
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of times the barrier has been released (loop invocations
    /// completed, in the paper's usage).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Thread id of the last arrival that performed the most recent
    /// release — the `src_tid` of the barrier-release causality edge a
    /// freshly released waiter records. The write happens before the sense
    /// flip that releases the waiter, so reading it right after a released
    /// wait is race-free for that generation.
    pub fn last_releaser(&self) -> usize {
        self.releaser.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_thread_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait(0));
        }
        assert_eq!(b.generations(), 10);
        assert_eq!(b.idle_nanos(0), 0);
    }

    #[test]
    fn all_threads_reach_each_phase_before_any_proceeds() {
        const THREADS: usize = 4;
        const PHASES: usize = 50;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let phase_counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&phase_counter);
            handles.push(thread::spawn(move || {
                for phase in 0..PHASES {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait(tid);
                    // After the barrier every thread must observe all
                    // THREADS increments of this phase.
                    let seen = counter.load(Ordering::SeqCst);
                    assert!(seen >= ((phase + 1) * THREADS) as u64);
                    barrier.wait(tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(barrier.generations(), (PHASES * 2) as u64);
    }

    #[test]
    fn exactly_one_serial_thread_per_generation() {
        const THREADS: usize = 3;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let serial = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let barrier = Arc::clone(&barrier);
            let serial = Arc::clone(&serial);
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    if barrier.wait(tid) {
                        serial.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(serial.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn idle_time_accumulates_for_early_arrivals() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let b = Arc::clone(&barrier);
        let t = thread::spawn(move || {
            b.wait(1); // arrives first, waits for main
        });
        thread::sleep(std::time::Duration::from_millis(20));
        barrier.wait(0);
        t.join().unwrap();
        assert!(barrier.idle_nanos(1) >= 10_000_000, "early arrival idled");
        assert!(barrier.total_idle_nanos() >= barrier.idle_nanos(1));
        assert_eq!(barrier.last_releaser(), 0, "main thread arrived last");
    }

    #[test]
    fn abortable_wait_releases_normally_when_all_arrive() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let t = thread::spawn(move || b.wait_abortable(1, &a, None));
        let mine = barrier.wait_abortable(0, &abort, None);
        let theirs = t.join().unwrap();
        let serials = [mine, theirs]
            .iter()
            .filter(|o| matches!(o, BarrierWait::Released(true)))
            .count();
        assert_eq!(serials, 1);
        assert!([mine, theirs].contains(&BarrierWait::Released(false)));
    }

    #[test]
    fn abortable_wait_observes_abort_flag() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let t = thread::spawn(move || b.wait_abortable(1, &a, None));
        thread::sleep(std::time::Duration::from_millis(10));
        abort.store(true, Ordering::Release);
        assert_eq!(t.join().unwrap(), BarrierWait::Aborted);
        // A pre-set flag short-circuits without touching arrival counts.
        assert_eq!(
            barrier.wait_abortable(0, &abort, None),
            BarrierWait::Aborted
        );
    }

    #[test]
    fn a_parked_waiter_is_woken_to_see_an_abort() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let (b, a) = (Arc::clone(&barrier), Arc::clone(&abort));
        let t = thread::spawn(move || b.wait_abortable(1, &a, None));
        // Let the waiter spend its spin budget and register as parked.
        while barrier.parked.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        abort.store(true, Ordering::Release);
        barrier.wake_parked();
        assert_eq!(t.join().unwrap(), BarrierWait::Aborted);
        assert_eq!(barrier.generations(), 0);
    }

    #[test]
    fn abortable_wait_times_out_when_peer_never_arrives() {
        let barrier = SpinBarrier::new(2);
        let abort = AtomicBool::new(false);
        let deadline = Some(Instant::now() + std::time::Duration::from_millis(20));
        assert_eq!(
            barrier.wait_abortable(0, &abort, deadline),
            BarrierWait::TimedOut
        );
    }

    #[test]
    fn participants_can_join_between_generations() {
        let barrier = SpinBarrier::new(3);
        barrier.set_num_threads(1);
        assert!(barrier.wait(0), "alone, every wait releases");
        barrier.set_num_threads(3);
        let serials = AtomicU64::new(0);
        thread::scope(|scope| {
            for tid in 0..3 {
                let (barrier, serials) = (&barrier, &serials);
                scope.spawn(move || {
                    for _ in 0..20 {
                        if barrier.wait(tid) {
                            serials.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(serials.load(Ordering::SeqCst), 20);
        assert_eq!(barrier.generations(), 21);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn participants_cannot_exceed_the_creation_count() {
        SpinBarrier::new(2).set_num_threads(3);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn out_of_range_tid_panics() {
        SpinBarrier::new(1).wait(1);
    }
}
