//! Iteration-to-worker assignment policies (§3.3.3).
//!
//! The thesis ships two schedulers and notes the design is pluggable
//! ("DOMORE allows for the easy integration of other smarter scheduling
//! techniques"): round-robin, and LOCALWRITE-style memory partitioning in
//! which each worker owns a region of the shared address space and
//! iterations run on the owner of the memory they touch.
//!
//! Policies must be *deterministic* functions of the iteration stream: the
//! runtime's replicated plan (the duplicated scheduler of §3.4) replays the
//! policy independently on every replica and relies on all of them
//! agreeing. The locality-aware
//! [`Adaptive`] policy keeps that property by deriving both its locality map
//! and its load estimate purely from the assignment stream itself, never
//! from runtime feedback.

use std::collections::HashMap;

use crossinvoc_runtime::{IterNum, ThreadId};

/// Deterministic assignment of iterations to workers.
pub trait Policy: Send {
    /// Chooses the worker for the iteration with combined number `iter`
    /// touching `addrs`, among `num_workers` workers.
    fn assign(&mut self, iter: IterNum, addrs: &[usize], num_workers: usize) -> ThreadId;

    /// A fresh replica with identical future behaviour, for scheduler
    /// duplication. Stateful policies must replicate their state.
    fn replicate(&self) -> Box<dyn Policy>;
}

/// Round-robin assignment: iteration `i` runs on worker `i % N`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl Policy for RoundRobin {
    fn assign(&mut self, iter: IterNum, _addrs: &[usize], num_workers: usize) -> ThreadId {
        (iter % num_workers as u64) as ThreadId
    }

    fn replicate(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// LOCALWRITE-style owner-computes assignment (§3.3.3, after Han & Tseng).
///
/// The shared address space `0..address_space` is split into `num_workers`
/// contiguous chunks; an iteration runs on the owner of its *first written*
/// address. (The thesis notes that when an iteration touches several owners
/// LOCALWRITE replicates it; DOMORE instead picks one owner and lets the
/// shadow-memory logic synchronize the rest, which is what this policy does.)
#[derive(Debug, Clone, Copy)]
pub struct LocalWrite {
    address_space: usize,
}

impl LocalWrite {
    /// Creates an owner-computes policy over addresses `0..address_space`.
    ///
    /// # Panics
    ///
    /// Panics if `address_space` is zero.
    pub fn new(address_space: usize) -> Self {
        assert!(address_space > 0, "address space must be positive");
        Self { address_space }
    }

    /// The worker owning `addr` among `num_workers` workers.
    pub fn owner(&self, addr: usize, num_workers: usize) -> ThreadId {
        let chunk = self.address_space.div_ceil(num_workers);
        (addr / chunk).min(num_workers - 1)
    }
}

impl Policy for LocalWrite {
    fn assign(&mut self, iter: IterNum, addrs: &[usize], num_workers: usize) -> ThreadId {
        match addrs.first() {
            Some(&addr) => self.owner(addr, num_workers),
            // Address-free iterations fall back to round-robin spreading.
            None => (iter % num_workers as u64) as ThreadId,
        }
    }

    fn replicate(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// Owner-computes over congruence classes: ownership of address `a` is
/// decided by `a % modulus`, so arrays laid out back-to-back over the same
/// logical grid (field arrays of a simulation, one per phase) share one
/// partition. This is how LOCALWRITE partitions FLUIDANIMATE's grid in the
/// §5.4 case study: a cell's densities, forces and velocities all belong
/// to the cell's owner.
#[derive(Debug, Clone, Copy)]
pub struct ModuloWrite {
    inner: LocalWrite,
    modulus: usize,
}

impl ModuloWrite {
    /// Creates a policy partitioning the congruence classes `0..modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn new(modulus: usize) -> Self {
        Self {
            inner: LocalWrite::new(modulus),
            modulus,
        }
    }
}

impl Policy for ModuloWrite {
    fn assign(&mut self, iter: IterNum, addrs: &[usize], num_workers: usize) -> ThreadId {
        match addrs.first() {
            Some(&addr) => self.inner.owner(addr % self.modulus, num_workers),
            None => (iter % num_workers as u64) as ThreadId,
        }
    }

    fn replicate(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// Chunked assignment: consecutive runs of `chunk` iterations share a worker.
///
/// This is the static-block schedule conventional DOALL codegen uses; it is
/// provided as a baseline for the scheduling-policy ablation.
#[derive(Debug, Clone, Copy)]
pub struct Chunked {
    chunk: u64,
}

impl Chunked {
    /// Creates a policy mapping iterations `[k*chunk, (k+1)*chunk)` to worker
    /// `k % N`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(chunk: u64) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        Self { chunk }
    }
}

impl Policy for Chunked {
    fn assign(&mut self, iter: IterNum, _addrs: &[usize], num_workers: usize) -> ThreadId {
        ((iter / self.chunk) % num_workers as u64) as ThreadId
    }

    fn replicate(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// Locality-aware dynamic dispatch: route an iteration to the worker that
/// last touched its `computeAddr` cell, falling back to the least-loaded
/// worker.
///
/// Two pieces of state, both pure functions of the assignment stream (so the
/// policy stays deterministic and replicable):
///
/// * a *locality map* from address to the worker most recently assigned an
///   iteration touching it — following it keeps dependence chains on one
///   worker, which turns would-be synchronization conditions into ordinary
///   program order (no stall, no `latestFinished` polling) and keeps the
///   touched cells hot in one cache;
/// * a per-worker *assigned-load* estimate (iterations weighted by their
///   access-list length). Locality is honoured only while the preferred
///   worker's load stays within [`Adaptive::with_imbalance_limit`] of the
///   least-loaded worker's; beyond that the iteration goes to the
///   least-loaded worker (lowest id on ties) and ownership migrates with it.
///
/// This is the "smarter scheduling" slot §3.3.3 leaves open: unlike
/// [`LocalWrite`] it needs no address-space partition up front, and unlike
/// [`RoundRobin`] it does not scatter dependence chains across workers.
#[derive(Debug, Clone)]
pub struct Adaptive {
    owner: HashMap<usize, ThreadId>,
    load: Vec<u64>,
    imbalance_limit: u64,
}

/// Default load gap (in weight units: one iteration costs `1 + #addrs`)
/// beyond which locality yields to balance.
const DEFAULT_IMBALANCE_LIMIT: u64 = 64;

impl Adaptive {
    /// Creates the policy with the default imbalance limit.
    pub fn new() -> Self {
        Self::with_imbalance_limit(DEFAULT_IMBALANCE_LIMIT)
    }

    /// Creates the policy with an explicit imbalance limit: the preferred
    /// (locality) worker is used only while its assigned load exceeds the
    /// least-loaded worker's by at most `limit` weight units. `0` makes the
    /// policy pure least-loaded; large values make it pure locality.
    pub fn with_imbalance_limit(limit: u64) -> Self {
        Self {
            owner: HashMap::new(),
            load: Vec::new(),
            imbalance_limit: limit,
        }
    }

    fn least_loaded(&self) -> ThreadId {
        let mut best = 0;
        for (tid, &load) in self.load.iter().enumerate() {
            if load < self.load[best] {
                best = tid;
            }
        }
        best
    }
}

impl Default for Adaptive {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Adaptive {
    fn assign(&mut self, _iter: IterNum, addrs: &[usize], num_workers: usize) -> ThreadId {
        if self.load.len() != num_workers {
            self.load.clear();
            self.load.resize(num_workers, 0);
            self.owner.clear();
        }
        let least = self.least_loaded();
        let tid = match addrs.first().and_then(|a| self.owner.get(a).copied()) {
            Some(owner)
                if owner < num_workers
                    && self.load[owner] <= self.load[least] + self.imbalance_limit =>
            {
                owner
            }
            _ => least,
        };
        for &addr in addrs {
            self.owner.insert(addr, tid);
        }
        self.load[tid] += 1 + addrs.len() as u64;
        tid
    }

    fn replicate(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

/// The dispatch policies a runtime can be configured with, as plain data —
/// the value-level mirror of the [`Policy`] objects, for configuration
/// surfaces (benchmark harnesses, CLI flags) that need to name a policy
/// before constructing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// [`RoundRobin`].
    #[default]
    RoundRobin,
    /// [`Chunked`] with the given chunk length.
    Chunked {
        /// Consecutive iterations sharing a worker.
        chunk: u64,
    },
    /// [`LocalWrite`] over the given address space.
    LocalWrite {
        /// Size of the partitioned address space.
        address_space: usize,
    },
    /// [`ModuloWrite`] with the given congruence modulus.
    ModuloWrite {
        /// Number of congruence classes.
        modulus: usize,
    },
    /// [`Adaptive`] with the default imbalance limit.
    Adaptive,
}

impl Dispatch {
    /// Instantiates the named policy.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero chunk, empty address space or
    /// zero modulus), exactly as the policy constructors do.
    pub fn policy(&self) -> Box<dyn Policy> {
        match *self {
            Dispatch::RoundRobin => Box::new(RoundRobin),
            Dispatch::Chunked { chunk } => Box::new(Chunked::new(chunk)),
            Dispatch::LocalWrite { address_space } => Box::new(LocalWrite::new(address_space)),
            Dispatch::ModuloWrite { modulus } => Box::new(ModuloWrite::new(modulus)),
            Dispatch::Adaptive => Box::new(Adaptive::new()),
        }
    }

    /// Stable lower-case name (used by bench output and trace tooling).
    pub fn name(&self) -> &'static str {
        match self {
            Dispatch::RoundRobin => "round_robin",
            Dispatch::Chunked { .. } => "chunked",
            Dispatch::LocalWrite { .. } => "local_write",
            Dispatch::ModuloWrite { .. } => "modulo_write",
            Dispatch::Adaptive => "adaptive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_workers() {
        let mut p = RoundRobin;
        let tids: Vec<_> = (0..6).map(|i| p.assign(i, &[], 3)).collect();
        assert_eq!(tids, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn local_write_partitions_address_space() {
        let mut p = LocalWrite::new(100);
        assert_eq!(p.assign(0, &[0], 4), 0);
        assert_eq!(p.assign(1, &[25], 4), 1);
        assert_eq!(p.assign(2, &[99], 4), 3);
    }

    #[test]
    fn local_write_clamps_last_chunk() {
        // 10 addresses over 3 workers → chunks of 4; address 9 is owner 2.
        let p = LocalWrite::new(10);
        assert_eq!(p.owner(9, 3), 2);
    }

    #[test]
    fn local_write_same_address_same_owner() {
        let mut p = LocalWrite::new(64);
        let a = p.assign(0, &[17], 8);
        let b = p.assign(5, &[17], 8);
        assert_eq!(a, b, "ownership is a pure function of the address");
    }

    #[test]
    fn local_write_without_addresses_spreads() {
        let mut p = LocalWrite::new(64);
        assert_eq!(p.assign(0, &[], 4), 0);
        assert_eq!(p.assign(1, &[], 4), 1);
    }

    #[test]
    fn modulo_write_unifies_field_arrays() {
        // Cell c of every field array (base + c) maps to one owner.
        let mut p = ModuloWrite::new(100);
        let a = p.assign(0, &[42], 4);
        let b = p.assign(1, &[100 + 42], 4);
        let c = p.assign(2, &[500 + 42], 4);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    #[should_panic(expected = "address space must be positive")]
    fn modulo_write_zero_panics() {
        ModuloWrite::new(0);
    }

    #[test]
    fn chunked_groups_consecutive_iterations() {
        let mut p = Chunked::new(2);
        let tids: Vec<_> = (0..8).map(|i| p.assign(i, &[], 2)).collect();
        assert_eq!(tids, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn replicas_agree_with_originals() {
        let mut original = LocalWrite::new(32);
        let mut replica = original.replicate();
        for i in 0..32 {
            assert_eq!(
                original.assign(i, &[i as usize], 4),
                replica.assign(i, &[i as usize], 4)
            );
        }
    }

    #[test]
    #[should_panic(expected = "address space must be positive")]
    fn local_write_zero_space_panics() {
        LocalWrite::new(0);
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn chunked_zero_panics() {
        Chunked::new(0);
    }

    #[test]
    fn adaptive_follows_the_last_toucher() {
        let mut p = Adaptive::new();
        let first = p.assign(0, &[7], 4);
        for i in 1..10 {
            assert_eq!(
                p.assign(i, &[7], 4),
                first,
                "the dependence chain on cell 7 stays on one worker"
            );
        }
    }

    #[test]
    fn adaptive_spreads_fresh_addresses_to_least_loaded() {
        let mut p = Adaptive::new();
        // Four never-seen addresses: each goes to the emptiest worker, so
        // the first four iterations cover all four workers.
        let tids: Vec<_> = (0..4)
            .map(|i| p.assign(i, &[100 + i as usize], 4))
            .collect();
        let mut sorted = tids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "got {tids:?}");
    }

    #[test]
    fn adaptive_abandons_locality_beyond_the_imbalance_limit() {
        let mut p = Adaptive::with_imbalance_limit(4);
        let hot = p.assign(0, &[1], 2);
        // Pile iterations onto the hot cell until the limit trips.
        let mut moved = false;
        for i in 1..32 {
            if p.assign(i, &[1], 2) != hot {
                moved = true;
                break;
            }
        }
        assert!(moved, "a bounded limit must eventually rebalance");
    }

    #[test]
    fn adaptive_is_deterministic_across_replicas() {
        let mut original = Adaptive::new();
        let mut replica = original.replicate();
        for i in 0..64 {
            let addrs = [(i as usize * 13) % 7, (i as usize * 5) % 11];
            assert_eq!(
                original.assign(i, &addrs, 4),
                replica.assign(i, &addrs, 4),
                "replicas diverged at iteration {i}"
            );
        }
    }

    #[test]
    fn adaptive_without_addresses_balances() {
        let mut p = Adaptive::new();
        let tids: Vec<_> = (0..4).map(|i| p.assign(i, &[], 4)).collect();
        let mut sorted = tids;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dispatch_constructs_each_policy() {
        let cases = [
            (Dispatch::RoundRobin, "round_robin"),
            (Dispatch::Chunked { chunk: 2 }, "chunked"),
            (Dispatch::LocalWrite { address_space: 8 }, "local_write"),
            (Dispatch::ModuloWrite { modulus: 8 }, "modulo_write"),
            (Dispatch::Adaptive, "adaptive"),
        ];
        for (dispatch, name) in cases {
            assert_eq!(dispatch.name(), name);
            let mut policy = dispatch.policy();
            let tid = policy.assign(0, &[3], 4);
            assert!(tid < 4, "{name} returned worker {tid}");
        }
        assert_eq!(Dispatch::default(), Dispatch::RoundRobin);
    }
}
