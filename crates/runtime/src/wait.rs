//! Adaptive spin-then-park waiting.
//!
//! The runtimes' hot waits (a DOMORE worker stalled on a synchronization
//! condition, an SPSC endpoint on a full/empty ring, a thread at the
//! barrier) historically spun with [`Backoff`] and `yield_now` forever.
//! That is the right call for short waits — the paper's synchronization
//! conditions usually resolve within a few hundred cycles — but burns a
//! core for the long tail, which on oversubscribed machines actively steals
//! cycles from the thread being waited on.
//!
//! The policy here: spin briefly, yield a bounded number of times, then
//! *park* on a [`Parker`] in bounded slices. Parks are always timed
//! ([`PARK_SLICE`]), so abort flags and watchdog deadlines are re-checked at
//! a bounded interval even if a wakeup is missed — the existing
//! abort/watchdog semantics of every wait loop are preserved, and a lost
//! [`Parker::unpark`] costs at most one slice of latency, never liveness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crossbeam::utils::Backoff;
use parking_lot::{Condvar, Mutex};

/// Upper bound on one parked sleep. Every park wakes at least this often to
/// re-check its predicate, abort flag and deadline.
pub const PARK_SLICE: Duration = Duration::from_micros(200);

/// Number of `yield_now` rounds after the [`Backoff`] spin budget and before
/// the first park. Generous because yielding is how a waiter donates its
/// timeslice to the thread it waits on when cores are oversubscribed.
const YIELD_ROUNDS: u32 = 16;

/// Busy-spins for `ns` nanoseconds (a no-op for 0): a CPU-bound task body
/// of known length, for workloads that stand in for real work — the
/// synthetic grids, the differential fuzzer's task grain, and tests that
/// need every SPECCROSS pass to run wide.
pub fn spin_for(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// The spin phase of a spin-then-park wait.
///
/// Call [`AdaptiveSpin::should_park`] once per failed predicate check: it
/// spins (then yields) and returns `false` while the spin budget lasts, and
/// returns `true` — without blocking — once the caller should fall back to a
/// timed [`Parker::park_timeout`].
#[derive(Debug)]
pub struct AdaptiveSpin {
    backoff: Backoff,
    yields: u32,
}

impl AdaptiveSpin {
    /// A fresh spin budget.
    pub fn new() -> Self {
        Self {
            backoff: Backoff::new(),
            yields: 0,
        }
    }

    /// Burns one unit of spin budget; `true` means the budget is exhausted
    /// and the caller should park.
    pub fn should_park(&mut self) -> bool {
        if !self.backoff.is_completed() {
            self.backoff.snooze();
            return false;
        }
        if self.yields < YIELD_ROUNDS {
            self.yields += 1;
            std::thread::yield_now();
            return false;
        }
        true
    }
}

impl Default for AdaptiveSpin {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-thread parking spot with `std::thread::park`-style token semantics
/// built on the `parking_lot` mutex/condvar pair.
///
/// [`Parker::unpark`] deposits a token and wakes the parked owner;
/// [`Parker::park_timeout`] consumes a pending token immediately or blocks
/// until one arrives or the timeout elapses. `unpark` is cheap when the
/// owner is not parked (one relaxed-ish atomic load), which lets publishers
/// call it unconditionally on their hot paths.
///
/// Waiters are expected to re-check their predicate between registering
/// interest and parking, and to park only in bounded slices: the
/// `parked`-flag fast path may skip an unpark that races with park entry,
/// which a timed park converts from a lost wakeup into one slice of added
/// latency.
#[derive(Debug, Default)]
pub struct Parker {
    token: Mutex<bool>,
    cv: Condvar,
    parked: AtomicBool,
}

impl Parker {
    /// A parking spot with no pending token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks for at most `timeout`, or until an [`Parker::unpark`] token is
    /// available (a pending token returns immediately). Spurious returns are
    /// allowed, as with every parking primitive.
    pub fn park_timeout(&self, timeout: Duration) {
        let mut token = self.token.lock();
        if *token {
            *token = false;
            return;
        }
        self.parked.store(true, Ordering::SeqCst);
        self.cv.wait_for(&mut token, timeout);
        self.parked.store(false, Ordering::SeqCst);
        *token = false;
    }

    /// Deposits a wakeup token and wakes the owner if it is parked. A no-op
    /// fast path when the owner is not parked.
    pub fn unpark(&self) {
        if !self.parked.load(Ordering::SeqCst) {
            return;
        }
        let mut token = self.token.lock();
        *token = true;
        drop(token);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn park_timeout_returns_by_itself() {
        let p = Parker::new();
        let start = Instant::now();
        p.park_timeout(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn unpark_releases_a_parked_thread_early() {
        let p = Arc::new(Parker::new());
        let peer = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            // Generous timeout: the unpark below must end the park long
            // before it elapses.
            peer.park_timeout(Duration::from_secs(5));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        p.unpark();
        let waited = t.join().unwrap();
        assert!(waited < Duration::from_secs(5));
    }

    #[test]
    fn unpark_without_parked_owner_is_cheap_and_lossy() {
        // No owner parked: the fast path skips the token entirely, and a
        // later park simply waits out its (timed) slice.
        let p = Parker::new();
        p.unpark();
        let start = Instant::now();
        p.park_timeout(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn adaptive_spin_eventually_asks_to_park() {
        let mut spin = AdaptiveSpin::new();
        let mut rounds = 0u32;
        while !spin.should_park() {
            rounds += 1;
            assert!(rounds < 10_000, "spin budget must be bounded");
        }
        // Once exhausted it stays exhausted.
        assert!(spin.should_park());
    }
}
