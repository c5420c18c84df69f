//! Shadow memory for dynamic dependence detection (§3.2.1).
//!
//! DOMORE's scheduler maintains one [`ShadowEntry`] — the `(thread,
//! iteration)` tuple of the thesis — per tracked memory location. Before
//! dispatching an iteration it looks up every address the iteration will
//! touch: a prior entry by a *different* thread is a dynamic dependence and
//! yields a synchronization condition; the entry is then overwritten with the
//! current `(thread, iteration)` pair.
//!
//! The shadow memory is accessed only by the scheduler (or, in DOMORE's
//! replicated plan — the duplicated scheduler of §3.4 — by each replica on
//! a private copy),
//! so no internal synchronization is needed.

use std::collections::HashMap;

use crate::{IterNum, ThreadId, NO_ITER};

/// The most recent accessor of a tracked memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShadowEntry {
    /// Worker thread that last touched the location.
    pub tid: ThreadId,
    /// Combined iteration number of that access ([`crate::NO_ITER`] if none).
    pub iter: IterNum,
}

impl ShadowEntry {
    /// The `⟨⊥,⊥⟩` entry: location not yet accessed.
    pub const EMPTY: ShadowEntry = ShadowEntry {
        tid: 0,
        iter: NO_ITER,
    };

    /// Whether the location has been accessed by any scheduled iteration.
    pub fn is_empty(&self) -> bool {
        self.iter == NO_ITER
    }
}

impl Default for ShadowEntry {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Address-indexed table of last accessors.
///
/// Two representations are provided because the thesis notes the time/space
/// trade-off explicitly (§3.2.1: "a more space efficient conflict detecting
/// scheme can also be used"): a dense array for workloads whose tracked
/// addresses are small integers (array indices), and a sparse hash map for
/// pointer-like address sets.
#[derive(Debug, Clone)]
pub enum ShadowMemory {
    /// Dense table over addresses `0..len`.
    Dense(Vec<ShadowEntry>),
    /// Sparse table for arbitrary `usize` addresses.
    Sparse(HashMap<usize, ShadowEntry>),
}

impl ShadowMemory {
    /// Creates a dense shadow memory covering addresses `0..len`.
    pub fn dense(len: usize) -> Self {
        ShadowMemory::Dense(vec![ShadowEntry::EMPTY; len])
    }

    /// Creates an empty sparse shadow memory.
    pub fn sparse() -> Self {
        ShadowMemory::Sparse(HashMap::new())
    }

    /// Returns the last accessor of `addr`.
    ///
    /// # Panics
    ///
    /// Dense shadow memories panic on out-of-range addresses; growing the
    /// table silently would hide workload description bugs.
    pub fn get(&self, addr: usize) -> ShadowEntry {
        match self {
            ShadowMemory::Dense(v) => v[addr],
            ShadowMemory::Sparse(m) => m.get(&addr).copied().unwrap_or_default(),
        }
    }

    /// Records that iteration `iter`, scheduled on thread `tid`, accesses
    /// `addr`, returning the previous entry.
    pub fn update(&mut self, addr: usize, tid: ThreadId, iter: IterNum) -> ShadowEntry {
        let entry = ShadowEntry { tid, iter };
        match self {
            ShadowMemory::Dense(v) => std::mem::replace(&mut v[addr], entry),
            ShadowMemory::Sparse(m) => m.insert(addr, entry).unwrap_or_default(),
        }
    }

    /// Clears every entry back to `⟨⊥,⊥⟩`.
    pub fn clear(&mut self) {
        match self {
            ShadowMemory::Dense(v) => v.fill(ShadowEntry::EMPTY),
            ShadowMemory::Sparse(m) => m.clear(),
        }
    }

    /// Number of locations with a recorded accessor.
    pub fn occupied(&self) -> usize {
        match self {
            ShadowMemory::Dense(v) => v.iter().filter(|e| !e.is_empty()).count(),
            ShadowMemory::Sparse(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut shadow: ShadowMemory) {
        assert!(shadow.get(3).is_empty());
        assert_eq!(shadow.occupied(), 0);

        let prev = shadow.update(3, 1, 10);
        assert!(prev.is_empty());
        assert_eq!(shadow.get(3), ShadowEntry { tid: 1, iter: 10 });
        assert_eq!(shadow.occupied(), 1);

        // Overwrite returns the prior accessor (the dependence source).
        let prev = shadow.update(3, 2, 11);
        assert_eq!(prev, ShadowEntry { tid: 1, iter: 10 });
        assert_eq!(shadow.get(3), ShadowEntry { tid: 2, iter: 11 });

        shadow.clear();
        assert!(shadow.get(3).is_empty());
        assert_eq!(shadow.occupied(), 0);
    }

    #[test]
    fn dense_tracks_last_accessor() {
        exercise(ShadowMemory::dense(8));
    }

    #[test]
    fn sparse_tracks_last_accessor() {
        exercise(ShadowMemory::sparse());
    }

    #[test]
    fn sparse_handles_large_addresses() {
        let mut s = ShadowMemory::sparse();
        s.update(usize::MAX - 1, 0, 0);
        assert_eq!(s.get(usize::MAX - 1).iter, 0);
    }

    #[test]
    #[should_panic]
    fn dense_out_of_range_panics() {
        ShadowMemory::dense(4).get(4);
    }

    #[test]
    fn empty_entry_matches_sentinel() {
        assert!(ShadowEntry::EMPTY.is_empty());
        assert!(!ShadowEntry { tid: 0, iter: 0 }.is_empty());
    }
}
