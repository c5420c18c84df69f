//! Address-range sharding of the misspeculation checker — a measurement
//! artifact, not an engine path.
//!
//! Neither the threaded engine nor the simulator routes through this
//! module: both admit every request into one [`CheckerState`], as the
//! thesis' single checker thread does (docs/CHECKER.md, "Why one checker").
//! It stays because the benchmark's per-layer replay measures it against
//! that single checker (its `shard.admit_ns` and `shard.straddle_share`
//! rows), and the property that sharded and unsharded verdicts agree stays
//! pinned by its tests.
//!
//! # Partition
//!
//! Addresses are interleaved over `n` shards: address `a` belongs to shard
//! `a % n` ([`ShardMap::shard_of`]). A request is *routed* to every shard
//! that owns at least one address of its signature's conservative
//! [`addr_span`](AccessSignature::addr_span) cover — one shard for a
//! single-address task, all of them once the span is at least `n` wide.
//! Each touched shard receives the **whole** signature (not a slice of it),
//! so a shard's conflict test is exactly the unsharded test restricted to
//! the requests routed to it.
//!
//! # Merge rule
//!
//! A task whose span touches several shards (*straddling* task) is admitted
//! only when **every** touched shard admits it; any shard's conflict is the
//! region verdict. [`ShardedChecker::admit`] logs the request into all
//! touched shards regardless, so later arrivals still see it, and returns
//! the first conflict in shard order.
//!
//! # Why verdicts are preserved
//!
//! For [`RangeSignature`](crossinvoc_runtime::signature::RangeSignature)s a
//! conflict between two signatures means two intervals overlap, so some
//! address `a` lies in both — and both spans cover `a`, so shard `a % n`
//! received both full signatures and reruns the exact unsharded test on
//! them. The overlap (racing) conditions depend only on positions and
//! snapshots, which every shard sees identically. Hence the sharded checker
//! conflicts exactly when the unsharded one does. Bloom filters weaken this
//! one-sidedly: a *false-positive* bit collision between span-disjoint
//! signatures reaches no common shard, so the sharded checker may report
//! strictly fewer (spurious) conflicts — fewer rollbacks, same final
//! memory. It never invents a conflict the unsharded checker would miss,
//! because each shard holds a subset of the unsharded log.

use crossinvoc_runtime::signature::AccessSignature;
use crossinvoc_runtime::ThreadId;

use crate::check::{CheckRequest, CheckerState, Conflict};
use crate::position::Position;

/// Upper bound on checker shards, fixed by the `u64` [`ShardSet`] bitmask.
pub const MAX_SHARDS: usize = 64;

/// The address → shard partition: interleaved modulo the shard count.
///
/// Interleaving (rather than contiguous blocking) keeps clustered access
/// patterns — exactly the workloads Range signatures serve — spread across
/// all shards instead of hammering one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// Creates a map over `shards` shards, clamped to `1..=`[`MAX_SHARDS`].
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning address `addr`.
    pub fn shard_of(&self, addr: usize) -> usize {
        addr % self.shards
    }

    /// Every shard owning at least one address of the inclusive span.
    ///
    /// `None` (an empty signature) routes to shard 0 by convention: empty
    /// signatures never conflict but are still logged, and pinning them to
    /// one shard keeps `shards == 1` byte-identical to the unsharded
    /// checker.
    pub fn shards_for_span(&self, span: Option<(usize, usize)>) -> ShardSet {
        let Some((lo, hi)) = span else {
            return ShardSet::single(0);
        };
        debug_assert!(lo <= hi, "address spans are inclusive and ordered");
        // A span at least `shards` wide covers every residue class.
        // (`hi - lo` cannot overflow; comparing against `shards - 1` avoids
        // the `hi - lo + 1` overflow at span (0, usize::MAX).)
        if hi - lo >= self.shards - 1 {
            return ShardSet::all(self.shards);
        }
        let mut set = ShardSet::empty();
        for addr in lo..=hi {
            set.insert(self.shard_of(addr));
        }
        set
    }
}

/// A set of shard indices, packed into a `u64` bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSet(u64);

impl ShardSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self(0)
    }

    /// The singleton `{shard}`.
    pub fn single(shard: usize) -> Self {
        debug_assert!(shard < MAX_SHARDS);
        Self(1u64 << shard)
    }

    /// The full set `{0, .., shards-1}`.
    pub fn all(shards: usize) -> Self {
        debug_assert!((1..=MAX_SHARDS).contains(&shards));
        if shards == MAX_SHARDS {
            Self(u64::MAX)
        } else {
            Self((1u64 << shards) - 1)
        }
    }

    /// Adds `shard` to the set.
    pub fn insert(&mut self, shard: usize) {
        debug_assert!(shard < MAX_SHARDS);
        self.0 |= 1u64 << shard;
    }

    /// Whether `shard` is in the set.
    pub fn contains(&self, shard: usize) -> bool {
        shard < MAX_SHARDS && self.0 & (1u64 << shard) != 0
    }

    /// Number of shards in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in ascending shard order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let shard = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(shard)
        })
    }
}

/// `n` independent [`CheckerState`]s behind one admission interface.
///
/// This is the *pure* sharded checker: no threads, no rings. The threaded
/// engine gives each shard its own thread and SPSC rings and only shares
/// the routing logic ([`ShardMap`]); this struct is what the unit tests
/// and the proptests reason about. (The simulator likewise routes with
/// [`ShardMap`] and keeps one [`CheckerState`] beside each shard's virtual
/// clock, so it can bill each shard its own comparisons.)
#[derive(Debug)]
pub struct ShardedChecker<S> {
    map: ShardMap,
    shards: Vec<CheckerState<S>>,
}

impl<S: AccessSignature> ShardedChecker<S> {
    /// Creates an empty sharded checker for `num_workers` workers over
    /// `shards` shards (clamped to `1..=`[`MAX_SHARDS`]).
    pub fn new(num_workers: usize, shards: usize) -> Self {
        Self::with_aggregates(num_workers, shards, true)
    }

    /// As [`ShardedChecker::new`], choosing whether each shard's per-epoch
    /// aggregate fast path is enabled.
    pub fn with_aggregates(num_workers: usize, shards: usize, enabled: bool) -> Self {
        let map = ShardMap::new(shards);
        Self {
            shards: (0..map.shards())
                .map(|_| CheckerState::with_aggregates(num_workers, enabled))
                .collect(),
            map,
        }
    }

    /// The address partition in use.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// [`ShardedChecker::admit_parts`] on an owned request.
    pub fn admit(&mut self, req: CheckRequest<S>) -> Option<Conflict> {
        self.admit_parts(req.tid, req.pos, &req.snapshot, req.sig)
    }

    /// Logs the task (see [`CheckerState::admit_parts`] for the arguments)
    /// into every shard its span touches and merges the shard verdicts: the
    /// task is admitted only when every touched shard admits; the first
    /// conflict in shard order is the region verdict.
    ///
    /// All touched shards are updated even after a conflict is found, so
    /// the logs stay complete for later arrivals (the engine aborts the
    /// pass on the first conflict anyway).
    pub fn admit_parts(
        &mut self,
        tid: ThreadId,
        pos: Position,
        snapshot: &[Position],
        sig: S,
    ) -> Option<Conflict> {
        let set = self.map.shards_for_span(sig.addr_span());
        let mut found = None;
        for shard in set.iter() {
            let verdict = self.shards[shard].admit_parts(tid, pos, snapshot, sig.clone());
            if found.is_none() {
                found = verdict;
            }
        }
        found
    }

    /// Discards requests from epochs before `epoch` in every shard.
    pub fn retire_before(&mut self, epoch: u32) {
        for shard in &mut self.shards {
            shard.retire_before(epoch);
        }
    }

    /// Total signature comparisons across shards. Straddling tasks are
    /// checked once per touched shard, so this can exceed the unsharded
    /// count — that duplication is the price of independent verdicts.
    pub fn comparisons(&self) -> u64 {
        self.shards.iter().map(|s| s.comparisons()).sum()
    }

    /// Total whole-epoch aggregate skips across shards.
    pub fn epoch_skips(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch_skips()).sum()
    }

    /// Total logged requests across shards (straddlers counted once per
    /// touched shard).
    pub fn logged(&self) -> usize {
        self.shards.iter().map(|s| s.logged()).sum()
    }

    /// The per-shard checker states, for inspection.
    pub fn shard_states(&self) -> &[CheckerState<S>] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::{AccessKind, RangeSignature};

    fn sig(addrs: &[usize]) -> RangeSignature {
        let mut s = RangeSignature::empty();
        for &a in addrs {
            s.record(a, AccessKind::Write);
        }
        s
    }

    fn req(
        tid: ThreadId,
        epoch: u32,
        task: u32,
        snapshot: &[(u32, u32)],
        addrs: &[usize],
    ) -> CheckRequest<RangeSignature> {
        CheckRequest {
            tid,
            pos: Position { epoch, task },
            snapshot: snapshot
                .iter()
                .map(|&(e, t)| Position { epoch: e, task: t })
                .collect(),
            sig: sig(addrs),
        }
    }

    #[test]
    fn shard_map_clamps_and_interleaves() {
        assert_eq!(ShardMap::new(0).shards(), 1);
        assert_eq!(ShardMap::new(1000).shards(), MAX_SHARDS);
        let m = ShardMap::new(4);
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(5), 1);
        assert_eq!(m.shard_of(7), 3);
    }

    #[test]
    fn span_routing_covers_every_owned_residue() {
        let m = ShardMap::new(4);
        // Empty signature → shard 0 by convention.
        assert_eq!(m.shards_for_span(None), ShardSet::single(0));
        // Single address → its owner only.
        assert_eq!(m.shards_for_span(Some((6, 6))), ShardSet::single(2));
        // Narrow straddle → exactly the covered residues.
        let set = m.shards_for_span(Some((6, 8)));
        assert_eq!(set.len(), 3);
        assert!(set.contains(2) && set.contains(3) && set.contains(0));
        assert!(!set.contains(1));
        // Width ≥ shards → broadcast.
        assert_eq!(m.shards_for_span(Some((10, 13))), ShardSet::all(4));
        assert_eq!(m.shards_for_span(Some((0, usize::MAX))), ShardSet::all(4));
    }

    #[test]
    fn shard_set_iterates_in_order() {
        let mut s = ShardSet::empty();
        assert!(s.is_empty());
        s.insert(5);
        s.insert(1);
        s.insert(63);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 63]);
        assert_eq!(ShardSet::all(64).len(), 64);
        assert_eq!(ShardSet::all(3).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn straddling_task_is_admitted_when_every_shard_admits() {
        // Two straddling tasks with overlapping spans but disjoint write
        // ranges per the full signature: every touched shard sees both full
        // signatures, finds them disjoint, and admits.
        let mut c = ShardedChecker::new(2, 4);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[0, 5])).is_none());
        assert!(c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[6, 9])).is_none());
        // Both spans are ≥ 4 wide → both broadcast to all 4 shards.
        assert_eq!(c.logged(), 8);
    }

    #[test]
    fn straddling_conflict_is_the_region_verdict() {
        // The straddler overlaps a narrow task on exactly one shard; that
        // shard's conflict must surface as the admit verdict.
        let mut c = ShardedChecker::new(2, 4);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[6])).is_none());
        let conflict = c
            .admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[5, 7]))
            .expect("write ranges [5,7] and [6,6] overlap");
        assert_eq!(conflict.earlier, (0, Position { epoch: 1, task: 0 }));
        assert_eq!(conflict.later, (1, Position { epoch: 2, task: 0 }));
    }

    #[test]
    fn disjoint_shards_admit_concurrent_epochs() {
        // Tasks pinned to different residues never meet in any shard: no
        // comparisons at all, even across overlapping epochs.
        let mut c = ShardedChecker::new(2, 4);
        assert!(c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[4])).is_none());
        assert!(c.admit(req(1, 2, 0, &[(1, 0), (2, 0)], &[5])).is_none());
        assert_eq!(c.comparisons(), 0, "requests never shared a shard");
    }

    #[test]
    fn single_shard_matches_unsharded_checker_exactly() {
        // shard-count = 1 must reproduce today's checker byte-for-byte:
        // same verdicts, same comparison and skip counters, same log size.
        let stream = vec![
            req(0, 1, 0, &[(1, 0), (0, 0)], &[5]),
            req(1, 2, 0, &[(1, 0), (2, 0)], &[6]),
            req(0, 2, 0, &[(2, 0), (0, 0)], &[]),
            req(1, 3, 0, &[(2, 0), (3, 0)], &[5, 9]),
            req(0, 3, 0, &[(3, 0), (3, 0)], &[7]),
        ];
        let mut sharded = ShardedChecker::new(2, 1);
        let mut plain = CheckerState::new(2);
        for (i, r) in stream.into_iter().enumerate() {
            let a = sharded.admit(r.clone());
            let b = plain.admit(r);
            assert_eq!(a, b, "request {i}");
        }
        assert_eq!(sharded.comparisons(), plain.comparisons());
        assert_eq!(sharded.epoch_skips(), plain.epoch_skips());
        assert_eq!(sharded.logged(), plain.logged());
    }

    #[test]
    fn sharded_verdicts_match_unsharded_on_range_signatures() {
        // Range conflicts always share a concrete address, so the owning
        // shard reruns the unsharded test — conflict/no-conflict must agree
        // admission by admission for every shard count.
        let stream = [
            req(0, 1, 0, &[(1, 0), (0, 0), (0, 0)], &[3, 10]),
            req(1, 2, 0, &[(1, 0), (2, 0), (0, 0)], &[11, 12]),
            req(2, 2, 0, &[(1, 0), (2, 0), (2, 0)], &[40]),
            req(1, 3, 0, &[(1, 0), (3, 0), (2, 0)], &[9, 11]),
            req(0, 2, 0, &[(2, 0), (3, 0), (2, 0)], &[40, 44]),
        ];
        let mut reference = CheckerState::new(3);
        let expected: Vec<bool> = stream
            .iter()
            .map(|r| reference.admit(r.clone()).is_some())
            .collect();
        for shards in [2, 3, 8, 64] {
            let mut c = ShardedChecker::new(3, shards);
            for (i, r) in stream.iter().enumerate() {
                assert_eq!(
                    c.admit(r.clone()).is_some(),
                    expected[i],
                    "{shards} shards, request {i}"
                );
            }
        }
    }

    #[test]
    fn retire_before_prunes_every_shard() {
        let mut c = ShardedChecker::new(2, 4);
        c.admit(req(0, 1, 0, &[(1, 0), (0, 0)], &[0, 7])); // broadcast
        c.admit(req(0, 2, 0, &[(2, 0), (0, 0)], &[2]));
        assert_eq!(c.logged(), 5);
        c.retire_before(2);
        assert_eq!(c.logged(), 1, "epoch-1 copies retired in all shards");
    }
}
