//! Lock-free single-producer/single-consumer queue.
//!
//! DOMORE forwards synchronization conditions from the scheduler thread to
//! each worker over a dedicated queue (§3.2.3 cites the lock-free design of
//! Giacomoni et al.'s FastForward-style queues); the thesis' SPECCROSS
//! workers send checking requests to its checker thread the same way (the
//! threaded engine here admits them inline instead). The queue here is a
//! bounded ring buffer with a cached head/tail pair per endpoint, which gives
//! the same single-writer/single-reader cache behaviour the paper relies on
//! for low communication latency.
//!
//! Blocking `produce`/`consume` wait adaptively — a bounded spin, then timed
//! parks on the endpoint's [`Parker`] (woken by the opposite endpoint) — so a
//! long-idle endpoint stops burning its core. Non-blocking `try_*` variants
//! are provided for callers that poll, and
//! [`Producer::produce_batch`] / [`Consumer::consume_batch`] move runs of
//! messages with a single atomic publish per chunk to amortize queue traffic.

use std::cell::Cell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::wait::{AdaptiveSpin, Parker, PARK_SLICE};

/// Pads a field onto its own 64-byte cache line.
///
/// Each of the ring's four cross-thread fields lives in exactly one
/// endpoint's write set: the producer stores `tail` and pokes the consumer's
/// parker on every publish, the consumer stores `head` and pokes the
/// producer's parker on every free. Any two of them sharing a line would
/// make every operation on one endpoint invalidate the other's cached copy
/// (false sharing), which the batched produce/consume path makes hot enough
/// to matter.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Aligned<T>(T);

impl<T> std::ops::Deref for Aligned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

struct Ring<T> {
    buf: Box<[MaybeUninit<Cell<Option<T>>>]>,
    capacity: usize,
    /// `capacity - 1` when the capacity is a power of two (both engines'
    /// rings are): slot lookup is then a mask instead of a division by a
    /// runtime value.
    mask: Option<usize>,
    head: Aligned<AtomicUsize>,
    tail: Aligned<AtomicUsize>,
    /// Where the consumer sleeps when the ring stays empty; the producer
    /// unparks it after publishing.
    consumer_parker: Aligned<Parker>,
    /// Where the producer sleeps when the ring stays full; the consumer
    /// unparks it after freeing slots.
    producer_parker: Aligned<Parker>,
}

// SAFETY: the producer only writes slots in `tail..tail+1` and the consumer
// only reads slots in `head..head+1`; the head/tail atomics order those
// accesses (release on publish, acquire on observe), so no slot is accessed
// concurrently from both endpoints.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: (0..capacity)
                .map(|_| MaybeUninit::new(Cell::new(None)))
                .collect(),
            capacity,
            mask: capacity.is_power_of_two().then(|| capacity - 1),
            head: Aligned(AtomicUsize::new(0)),
            tail: Aligned(AtomicUsize::new(0)),
            consumer_parker: Aligned(Parker::new()),
            producer_parker: Aligned(Parker::new()),
        }
    }

    fn slot(&self, index: usize) -> *mut Option<T> {
        let wrapped = match self.mask {
            Some(mask) => index & mask,
            None => index % self.capacity,
        };
        // Each slot is logically owned by exactly one side at a time; see the
        // Send/Sync justification above.
        self.buf[wrapped].as_ptr() as *mut Option<T>
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: elements in head..tail were produced and never consumed.
            unsafe { std::ptr::drop_in_place(self.slot(i)) };
        }
    }
}

/// A bounded lock-free SPSC queue, split into its two endpoints.
///
/// Construct with [`Queue::with_capacity`]; the producer half is
/// [`Producer`], the consumer half [`Consumer`].
#[derive(Debug)]
pub struct Queue<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Send> Queue<T> {
    /// Creates a queue holding at most `capacity` in-flight elements and
    /// returns its two endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> (Producer<T>, Consumer<T>) {
        assert!(capacity > 0, "queue capacity must be positive");
        let ring = Arc::new(Ring::new(capacity));
        (
            Producer {
                ring: Arc::clone(&ring),
                cached_head: Cell::new(0),
            },
            Consumer {
                ring,
                cached_tail: Cell::new(0),
            },
        )
    }
}

/// The producing endpoint of a [`Queue`].
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Consumer position as last observed; refreshed only when the ring
    /// appears full, so the fast path touches a single cache line.
    cached_head: Cell<usize>,
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue `value` without blocking.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` if the queue is full.
    pub fn try_produce(&self, value: T) -> Result<(), T> {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        if tail - self.cached_head.get() >= self.ring.capacity {
            self.cached_head.set(self.ring.head.load(Ordering::Acquire));
            if tail - self.cached_head.get() >= self.ring.capacity {
                return Err(value);
            }
        }
        // SAFETY: slot `tail` is unoccupied (tail - head < capacity) and only
        // this producer writes it.
        unsafe { std::ptr::write(self.ring.slot(tail), Some(value)) };
        self.ring.tail.store(tail + 1, Ordering::Release);
        self.ring.consumer_parker.unpark();
        Ok(())
    }

    /// Enqueues `value`, waiting adaptively (spin, then timed parks) while
    /// the queue is full.
    pub fn produce(&self, mut value: T) {
        let mut spin = AdaptiveSpin::new();
        loop {
            match self.try_produce(value) {
                Ok(()) => return,
                Err(v) => {
                    value = v;
                    if spin.should_park() {
                        self.ring.producer_parker.park_timeout(PARK_SLICE);
                    }
                }
            }
        }
    }

    /// Enqueues every element of `values` in order (leaving it empty),
    /// writing each run of free slots with a single atomic tail publish —
    /// the batched half of the scheduler→worker fast path. Waits adaptively
    /// whenever the ring fills mid-batch.
    pub fn produce_batch(&self, values: &mut Vec<T>) {
        let mut spin = AdaptiveSpin::new();
        while !values.is_empty() {
            if self.try_produce_batch(values) == 0 {
                if spin.should_park() {
                    self.ring.producer_parker.park_timeout(PARK_SLICE);
                }
            } else {
                spin = AdaptiveSpin::new();
            }
        }
    }

    /// Enqueues as many front elements of `values` as currently fit, in
    /// order, publishing the whole run with a single atomic tail store.
    /// Returns how many were moved — zero when the ring is full (or
    /// `values` is empty); never blocks. This is the abortable counterpart
    /// of [`Producer::produce_batch`]: a caller whose consumer may die
    /// alternates this with a cancellation check instead of parking on a
    /// ring no one will ever drain.
    pub fn try_produce_batch(&self, values: &mut Vec<T>) -> usize {
        if values.is_empty() {
            return 0;
        }
        let tail = self.ring.tail.load(Ordering::Relaxed);
        if tail - self.cached_head.get() >= self.ring.capacity {
            self.cached_head.set(self.ring.head.load(Ordering::Acquire));
        }
        let free = self.ring.capacity - (tail - self.cached_head.get());
        if free == 0 {
            return 0;
        }
        let n = free.min(values.len());
        for (k, value) in values.drain(..n).enumerate() {
            // SAFETY: slots `tail..tail + n` are unoccupied
            // (tail + n - head <= capacity) and only this producer
            // writes them; the single Release store below publishes
            // the whole run.
            unsafe { std::ptr::write(self.ring.slot(tail + k), Some(value)) };
        }
        self.ring.tail.store(tail + n, Ordering::Release);
        self.ring.consumer_parker.unpark();
        n
    }

    /// Number of elements currently in flight (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Acquire);
        tail - head
    }

    /// Whether the queue appears empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Producer")
            .field("capacity", &self.ring.capacity)
            .finish()
    }
}

/// The consuming endpoint of a [`Queue`].
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Producer position as last observed; refreshed only when the ring
    /// appears empty.
    cached_tail: Cell<usize>,
}

impl<T: Send> Consumer<T> {
    /// Attempts to dequeue without blocking; returns `None` if empty.
    pub fn try_consume(&self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            self.cached_tail.set(self.ring.tail.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        // SAFETY: slot `head` was published by the producer (head < tail) and
        // only this consumer reads it.
        let value = unsafe { std::ptr::read(self.ring.slot(head)) };
        self.ring.head.store(head + 1, Ordering::Release);
        self.ring.producer_parker.unpark();
        value
    }

    /// Dequeues the next element, waiting adaptively (spin, then timed
    /// parks) while the queue is empty.
    pub fn consume(&self) -> T {
        let mut spin = AdaptiveSpin::new();
        loop {
            if let Some(v) = self.try_consume() {
                return v;
            }
            if spin.should_park() {
                self.ring.consumer_parker.park_timeout(PARK_SLICE);
            }
        }
    }

    /// Drains up to `max` available elements into `out` with a single atomic
    /// head publish, returning how many were moved (zero when the queue is
    /// empty — this never blocks).
    pub fn consume_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            self.cached_tail.set(self.ring.tail.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return 0;
            }
        }
        let n = (self.cached_tail.get() - head).min(max);
        out.reserve(n);
        for k in 0..n {
            // SAFETY: slots `head..head + n` were published by the producer
            // (head + n <= tail) and only this consumer reads them; the
            // single Release store below frees the whole run.
            let value = unsafe { std::ptr::read(self.ring.slot(head + k)) };
            out.extend(value);
        }
        self.ring.head.store(head + n, Ordering::Release);
        self.ring.producer_parker.unpark();
        n
    }

    /// [`Consumer::consume_batch`] that waits adaptively (spin, then timed
    /// parks) until it has moved at least one element, and returns how many
    /// it moved. Panics if `max` is zero.
    pub fn consume_batch_wait(&self, out: &mut Vec<T>, max: usize) -> usize {
        assert!(max > 0, "a pickup must be allowed at least one element");
        let mut spin = AdaptiveSpin::new();
        loop {
            match self.consume_batch(out, max) {
                0 if spin.should_park() => self.ring.consumer_parker.park_timeout(PARK_SLICE),
                0 => {}
                n => return n,
            }
        }
    }

    /// Number of elements currently in flight (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.ring.tail.load(Ordering::Acquire);
        let head = self.ring.head.load(Ordering::Relaxed);
        tail - head
    }

    /// Whether the queue appears empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Consumer")
            .field("capacity", &self.ring.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = Queue::with_capacity(4);
        for i in 0..4 {
            tx.produce(i);
        }
        for i in 0..4 {
            assert_eq!(rx.consume(), i);
        }
    }

    #[test]
    fn try_produce_fails_when_full() {
        let (tx, rx) = Queue::with_capacity(2);
        assert!(tx.try_produce(1).is_ok());
        assert!(tx.try_produce(2).is_ok());
        assert_eq!(tx.try_produce(3), Err(3));
        assert_eq!(rx.try_consume(), Some(1));
        assert!(tx.try_produce(3).is_ok());
    }

    #[test]
    fn try_consume_fails_when_empty() {
        let (tx, rx) = Queue::<i32>::with_capacity(2);
        assert_eq!(rx.try_consume(), None);
        tx.produce(9);
        assert_eq!(rx.try_consume(), Some(9));
        assert_eq!(rx.try_consume(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (tx, rx) = Queue::with_capacity(3);
        for i in 0..1000u32 {
            tx.produce(i);
            assert_eq!(rx.consume(), i);
        }
    }

    #[test]
    fn cross_thread_transfer_preserves_order_and_values() {
        const N: u64 = 100_000;
        let (tx, rx) = Queue::with_capacity(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.produce(i);
            }
        });
        let mut expected = 0;
        while expected < N {
            assert_eq!(rx.consume(), expected);
            expected += 1;
        }
        producer.join().unwrap();
    }

    #[test]
    fn batch_round_trip_preserves_order() {
        let (tx, rx) = Queue::with_capacity(8);
        let mut batch: Vec<u32> = (0..8).collect();
        tx.produce_batch(&mut batch);
        assert!(batch.is_empty());
        let mut out = Vec::new();
        assert_eq!(rx.consume_batch(&mut out, 8), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(rx.consume_batch(&mut out, 8), 0);
    }

    #[test]
    fn produce_batch_larger_than_capacity_completes_across_thread() {
        const N: u32 = 10_000;
        let (tx, rx) = Queue::with_capacity(16);
        let producer = thread::spawn(move || {
            let mut batch: Vec<u32> = (0..N).collect();
            tx.produce_batch(&mut batch);
        });
        let mut out = Vec::new();
        while out.len() < N as usize {
            if rx.consume_batch(&mut out, 64) == 0 {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(out, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn try_produce_batch_moves_only_what_fits() {
        let (tx, rx) = Queue::with_capacity(4);
        let mut batch: Vec<u32> = (0..6).collect();
        assert_eq!(tx.try_produce_batch(&mut batch), 4);
        assert_eq!(batch, vec![4, 5]);
        assert_eq!(tx.try_produce_batch(&mut batch), 0); // ring full
        let mut out = Vec::new();
        assert_eq!(rx.consume_batch(&mut out, 8), 4);
        assert_eq!(tx.try_produce_batch(&mut batch), 2);
        assert!(batch.is_empty());
        assert_eq!(rx.consume_batch(&mut out, 8), 2);
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(tx.try_produce_batch(&mut batch), 0); // nothing to move
    }

    /// Batches that straddle the end of the buffer many times over, through
    /// the mask path (`capacity` a power of two) or the modulo path.
    fn batches_wrap_the_ring(capacity: usize) {
        let (tx, rx) = Queue::with_capacity(capacity);
        let (mut next, mut expected) = (0u32, 0u32);
        let mut out = Vec::new();
        // A batch one short of the capacity starts one slot earlier on every
        // lap, so the wrap point lands on every offset of a batch. (The
        // producer's cached head is conservative, so one batch may take
        // several publishes.)
        for _ in 0..capacity * 3 {
            let mut batch: Vec<u32> = (next..next + capacity as u32 - 1).collect();
            next += batch.len() as u32;
            while !batch.is_empty() {
                assert!(tx.try_produce_batch(&mut batch) > 0, "ring never full");
                out.clear();
                rx.consume_batch(&mut out, capacity);
                for v in &out {
                    assert_eq!(*v, expected);
                    expected += 1;
                }
            }
        }
        assert_eq!(expected, next);
    }

    #[test]
    fn batches_wrap_a_power_of_two_ring() {
        batches_wrap_the_ring(8);
        batches_wrap_the_ring(2);
    }

    #[test]
    fn batches_wrap_a_non_power_of_two_ring() {
        batches_wrap_the_ring(3);
        batches_wrap_the_ring(6);
    }

    #[test]
    fn consume_batch_respects_max() {
        let (tx, rx) = Queue::with_capacity(8);
        let mut batch: Vec<u32> = (0..6).collect();
        tx.produce_batch(&mut batch);
        let mut out = Vec::new();
        assert_eq!(rx.consume_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.consume_batch(&mut out, 4), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn consume_batch_wait_respects_max() {
        let (tx, rx) = Queue::with_capacity(8);
        tx.produce_batch(&mut (0..5u32).collect());
        let mut out = Vec::new();
        assert_eq!(rx.consume_batch_wait(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(rx.consume_batch_wait(&mut out, 3), 2);
        assert_eq!(out, (0..5).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn consume_batch_wait_rejects_a_zero_max() {
        let (_tx, rx) = Queue::<u8>::with_capacity(1);
        rx.consume_batch_wait(&mut Vec::new(), 0);
    }

    #[test]
    fn parked_batch_consumer_is_woken_by_produce_batch() {
        // The consumer parks (nothing arrives for well over the spin
        // budget); a late batch must still reach it promptly, whole.
        let (tx, rx) = Queue::with_capacity(4);
        let consumer = thread::spawn(move || {
            let mut out = Vec::new();
            rx.consume_batch_wait(&mut out, 4);
            out
        });
        thread::sleep(std::time::Duration::from_millis(30));
        tx.produce_batch(&mut vec![7u32, 8, 9]);
        assert_eq!(consumer.join().unwrap(), vec![7, 8, 9]);
    }

    /// Batched pickups that straddle the end of the buffer on every offset,
    /// through the mask path (`capacity` a power of two) or the modulo path,
    /// against a producer on another thread.
    fn batch_waits_wrap_the_ring(capacity: usize) {
        const N: u32 = 5_000;
        let (tx, rx) = Queue::with_capacity(capacity);
        let producer = thread::spawn(move || {
            let mut next = 0;
            while next < N {
                // Batches of 1..=capacity+1, so some wait for room mid-batch.
                let len = (next as usize % (capacity + 1) + 1).min((N - next) as usize);
                tx.produce_batch(&mut (next..next + len as u32).collect());
                next += len as u32;
            }
        });
        let (mut out, mut expected) = (Vec::new(), 0u32);
        while expected < N {
            out.clear();
            let n = rx.consume_batch_wait(&mut out, capacity - 1 + expected as usize % 2);
            assert_eq!(n, out.len());
            assert!(n >= 1 && n <= capacity);
            for &v in &out {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    #[test]
    fn batch_waits_wrap_a_power_of_two_ring() {
        batch_waits_wrap_the_ring(8);
        batch_waits_wrap_the_ring(2);
    }

    #[test]
    fn batch_waits_wrap_a_non_power_of_two_ring() {
        batch_waits_wrap_the_ring(3);
        batch_waits_wrap_the_ring(7);
    }

    #[test]
    fn parked_consumer_is_woken_by_produce() {
        // The consumer parks (nothing to do for well over the spin budget);
        // a late produce must still reach it promptly.
        let (tx, rx) = Queue::with_capacity(4);
        let consumer = thread::spawn(move || rx.consume());
        thread::sleep(std::time::Duration::from_millis(30));
        tx.produce(7u32);
        assert_eq!(consumer.join().unwrap(), 7);
    }

    #[test]
    fn drops_unconsumed_elements() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (tx, _rx) = Queue::with_capacity(8);
            tx.produce(D);
            tx.produce(D);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn len_tracks_in_flight_elements() {
        let (tx, rx) = Queue::with_capacity(8);
        assert!(tx.is_empty() && rx.is_empty());
        tx.produce(1);
        tx.produce(2);
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.consume();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Queue::<u8>::with_capacity(0);
    }

    #[test]
    fn hot_fields_live_on_distinct_cache_lines() {
        assert_eq!(std::mem::align_of::<Aligned<AtomicUsize>>(), 64);
        assert_eq!(std::mem::align_of::<Aligned<Parker>>(), 64);
        let r = Ring::<u64>::new(1);
        let mut offsets = [
            std::ptr::addr_of!(r.head) as usize,
            std::ptr::addr_of!(r.tail) as usize,
            std::ptr::addr_of!(r.consumer_parker) as usize,
            std::ptr::addr_of!(r.producer_parker) as usize,
        ];
        offsets.sort_unstable();
        for pair in offsets.windows(2) {
            assert!(
                pair[1] - pair[0] >= 64,
                "cross-thread fields must not share a 64-byte line: {offsets:?}"
            );
        }
    }
}
