//! Memory access signatures for misspeculation detection (§4.2.1).
//!
//! SPECCROSS never logs individual accesses; each task instead folds the
//! addresses it touches into a small *signature*, and the checker declares
//! two tasks conflicting when their signatures overlap. Signatures
//! are conservative: overlap may be a false positive (triggering unnecessary
//! misspeculation recovery, which is safe) but disjoint signatures guarantee
//! independence.
//!
//! Two schemes are provided, matching the thesis:
//!
//! * [`RangeSignature`] — the default: the min/max of speculatively accessed
//!   addresses, split by reads and writes. Works well for clustered accesses
//!   (stencils, block updates).
//! * [`BloomSignature`] — a Bloom filter over addresses, better for random
//!   access patterns where a range would cover everything.
//!
//! The paper exposes the generator as a callback so each program can pick a
//! scheme; here that is the [`AccessSignature`] trait.

use crate::hash::splitmix64;

/// How an address was touched, for conflict purposes.
///
/// Two reads never conflict; any pairing involving a write does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The task only reads the location.
    Read,
    /// The task writes (or reads and writes) the location.
    Write,
}

/// A conservative summary of one task's memory accesses.
///
/// Implementations must satisfy: if task A performs a write to address `x`
/// and task B performs any access to `x`, then
/// `a.conflicts_with(&b) == true` after both accesses were
/// [`record`](AccessSignature::record)ed. The converse need not hold (false
/// positives are allowed).
pub trait AccessSignature: Clone + Send + std::fmt::Debug + 'static {
    /// Creates the empty signature (no accesses recorded).
    fn empty() -> Self;

    /// Folds one access into the signature.
    fn record(&mut self, addr: usize, kind: AccessKind);

    /// Whether the two summarized access sets may conflict
    /// (write/write or read/write overlap).
    fn conflicts_with(&self, other: &Self) -> bool;

    /// Whether no access has been recorded.
    fn is_empty(&self) -> bool;

    /// Folds `other` into `self` so that the result summarizes the union of
    /// both access sets.
    ///
    /// The union must stay conservative in both directions: for any
    /// signature `q`, if `other.conflicts_with(&q)` (or `self` before the
    /// call conflicted with `q`) then the merged `self.conflicts_with(&q)`.
    /// This is what lets a per-epoch *aggregate* signature stand in for
    /// every member of the epoch — a request disjoint from the aggregate is
    /// disjoint from each member individually.
    fn merge(&mut self, other: &Self);

    /// Whether [`merge`](AccessSignature::merge)-ing `other` into `self`
    /// would be *exact*: for every signature `q`, the union conflicts with
    /// `q` only if `self` or `other` does (the converse is `merge`'s own
    /// contract). SPECCROSS folds consecutive tasks' signatures into one
    /// check request only while this holds. The default, `false`, is always
    /// sound: nothing is ever folded.
    fn merge_is_exact(&self, other: &Self) -> bool {
        let _ = other;
        false
    }

    /// Resets to the empty signature, retaining any allocation.
    fn clear(&mut self) {
        *self = Self::empty();
    }

    /// A conservative inclusive address interval covering every recorded
    /// access (reads and writes), or `None` when the signature is empty.
    ///
    /// The span is used to *route* signatures (e.g. to checker shards) and
    /// to mark the blocks a checkpoint must refresh, not to detect
    /// conflicts, so it only needs to be a cover: every recorded address
    /// must lie inside it, but it may include untouched addresses.
    fn addr_span(&self) -> Option<(usize, usize)>;
}

/// Min/max address-range signature (the thesis default, §4.2.1).
///
/// Reads and writes are tracked as separate ranges so that two tasks that
/// only read a common region are not flagged.
///
/// ```
/// use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
///
/// let mut a = RangeSignature::empty();
/// let mut b = RangeSignature::empty();
/// a.record(10, AccessKind::Write);
/// b.record(100, AccessKind::Write);
/// assert!(!a.conflicts_with(&b));
/// b.record(10, AccessKind::Read);
/// assert!(a.conflicts_with(&b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSignature {
    read_min: usize,
    read_max: usize,
    write_min: usize,
    write_max: usize,
}

impl RangeSignature {
    fn has_reads(&self) -> bool {
        self.read_min <= self.read_max
    }

    fn has_writes(&self) -> bool {
        self.write_min <= self.write_max
    }

    /// The inclusive write range, if any write was recorded.
    pub fn write_range(&self) -> Option<(usize, usize)> {
        self.has_writes()
            .then_some((self.write_min, self.write_max))
    }

    /// The inclusive read range, if any read was recorded.
    pub fn read_range(&self) -> Option<(usize, usize)> {
        self.has_reads().then_some((self.read_min, self.read_max))
    }
}

fn ranges_overlap(a_min: usize, a_max: usize, b_min: usize, b_max: usize) -> bool {
    a_min <= b_max && b_min <= a_max
}

/// Whether the hull of two inclusive ranges is exactly their union: they
/// overlap or are adjacent, or one of them is absent.
fn ranges_join(a: Option<(usize, usize)>, b: Option<(usize, usize)>) -> bool {
    let (Some((a_min, a_max)), Some((b_min, b_max))) = (a, b) else {
        return true;
    };
    a_min <= b_max.saturating_add(1) && b_min <= a_max.saturating_add(1)
}

impl AccessSignature for RangeSignature {
    fn empty() -> Self {
        Self {
            read_min: usize::MAX,
            read_max: 0,
            write_min: usize::MAX,
            write_max: 0,
        }
    }

    fn record(&mut self, addr: usize, kind: AccessKind) {
        match kind {
            AccessKind::Read => {
                self.read_min = self.read_min.min(addr);
                self.read_max = self.read_max.max(addr);
            }
            AccessKind::Write => {
                self.write_min = self.write_min.min(addr);
                self.write_max = self.write_max.max(addr);
            }
        }
    }

    fn conflicts_with(&self, other: &Self) -> bool {
        let ww = self.has_writes()
            && other.has_writes()
            && ranges_overlap(
                self.write_min,
                self.write_max,
                other.write_min,
                other.write_max,
            );
        let wr = self.has_writes()
            && other.has_reads()
            && ranges_overlap(
                self.write_min,
                self.write_max,
                other.read_min,
                other.read_max,
            );
        let rw = self.has_reads()
            && other.has_writes()
            && ranges_overlap(
                self.read_min,
                self.read_max,
                other.write_min,
                other.write_max,
            );
        ww || wr || rw
    }

    fn is_empty(&self) -> bool {
        !self.has_reads() && !self.has_writes()
    }

    fn merge(&mut self, other: &Self) {
        // Empty ranges are (MAX, 0), so plain min/max folding absorbs them
        // without special-casing: min(MAX, x) = x and max(0, x) = x.
        self.read_min = self.read_min.min(other.read_min);
        self.read_max = self.read_max.max(other.read_max);
        self.write_min = self.write_min.min(other.write_min);
        self.write_max = self.write_max.max(other.write_max);
    }

    fn merge_is_exact(&self, other: &Self) -> bool {
        // `merge` takes each kind's hull.
        ranges_join(self.read_range(), other.read_range())
            && ranges_join(self.write_range(), other.write_range())
    }

    fn addr_span(&self) -> Option<(usize, usize)> {
        // The (MAX, 0) empty convention makes min/max folding across the
        // two ranges absorb whichever one is absent.
        if self.is_empty() {
            return None;
        }
        Some((
            self.read_min.min(self.write_min),
            self.read_max.max(self.write_max),
        ))
    }
}

/// Number of 64-bit words in a [`BloomSignature`] filter.
const BLOOM_WORDS: usize = 8;
/// Hash functions per recorded address.
const BLOOM_HASHES: u64 = 2;

/// Bloom-filter signature for scattered access patterns.
///
/// 512 bits, two hash functions. With the task sizes used in the thesis
/// (tens of accesses per task) the false-positive rate stays far below the
/// misspeculation budget; the `sig_ablate` bench quantifies the trade-off
/// against [`RangeSignature`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomSignature {
    reads: [u64; BLOOM_WORDS],
    writes: [u64; BLOOM_WORDS],
    // Inclusive bounds of every recorded address ((MAX, 0) when empty),
    // kept alongside the filters so the signature can be routed by span
    // (see `AccessSignature::addr_span`). Not consulted by
    // `conflicts_with`: the filters alone stay the conflict authority.
    addr_min: usize,
    addr_max: usize,
}

impl BloomSignature {
    fn set(bits: &mut [u64; BLOOM_WORDS], addr: usize) {
        for h in 0..BLOOM_HASHES {
            let hash = splitmix64(addr as u64 ^ (h.wrapping_mul(0xA5A5_A5A5_A5A5_A5A5)));
            let bit = (hash % (BLOOM_WORDS as u64 * 64)) as usize;
            bits[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    fn intersects(a: &[u64; BLOOM_WORDS], b: &[u64; BLOOM_WORDS]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }
}

impl AccessSignature for BloomSignature {
    fn empty() -> Self {
        Self {
            reads: [0; BLOOM_WORDS],
            writes: [0; BLOOM_WORDS],
            addr_min: usize::MAX,
            addr_max: 0,
        }
    }

    fn record(&mut self, addr: usize, kind: AccessKind) {
        match kind {
            AccessKind::Read => Self::set(&mut self.reads, addr),
            AccessKind::Write => Self::set(&mut self.writes, addr),
        }
        self.addr_min = self.addr_min.min(addr);
        self.addr_max = self.addr_max.max(addr);
    }

    fn conflicts_with(&self, other: &Self) -> bool {
        Self::intersects(&self.writes, &other.writes)
            || Self::intersects(&self.writes, &other.reads)
            || Self::intersects(&self.reads, &other.writes)
    }

    fn is_empty(&self) -> bool {
        self.reads.iter().all(|&w| w == 0) && self.writes.iter().all(|&w| w == 0)
    }

    fn merge(&mut self, other: &Self) {
        // Bitwise OR is exactly Bloom-filter union: a bit set in either
        // filter is set in the union, so membership queries stay
        // conservative.
        for (a, b) in self.reads.iter_mut().zip(&other.reads) {
            *a |= b;
        }
        for (a, b) in self.writes.iter_mut().zip(&other.writes) {
            *a |= b;
        }
        self.addr_min = self.addr_min.min(other.addr_min);
        self.addr_max = self.addr_max.max(other.addr_max);
    }

    fn merge_is_exact(&self, _other: &Self) -> bool {
        // A bit of the OR is a bit of an operand.
        true
    }

    fn clear(&mut self) {
        // The trait default (`*self = Self::empty()`) is correct but builds
        // a fresh value; zeroing the words in place honors the "retaining
        // any allocation" contract and keeps the per-task reset branchless.
        self.reads.fill(0);
        self.writes.fill(0);
        self.addr_min = usize::MAX;
        self.addr_max = 0;
    }

    fn addr_span(&self) -> Option<(usize, usize)> {
        (self.addr_min <= self.addr_max).then_some((self.addr_min, self.addr_max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soundness<S: AccessSignature>() {
        // Write/any overlap must be reported.
        let mut a = S::empty();
        let mut b = S::empty();
        a.record(7, AccessKind::Write);
        b.record(7, AccessKind::Read);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));

        let mut c = S::empty();
        c.record(7, AccessKind::Write);
        assert!(a.conflicts_with(&c));
    }

    fn read_read_never_conflicts<S: AccessSignature>() {
        let mut a = S::empty();
        let mut b = S::empty();
        for addr in 0..64 {
            a.record(addr, AccessKind::Read);
            b.record(addr, AccessKind::Read);
        }
        assert!(!a.conflicts_with(&b));
    }

    fn empty_conflicts_with_nothing<S: AccessSignature>() {
        let empty = S::empty();
        assert!(empty.is_empty());
        let mut busy = S::empty();
        busy.record(1, AccessKind::Write);
        assert!(!empty.conflicts_with(&busy));
        assert!(!busy.conflicts_with(&empty));
    }

    #[test]
    fn range_soundness() {
        soundness::<RangeSignature>();
    }

    #[test]
    fn bloom_soundness() {
        soundness::<BloomSignature>();
    }

    #[test]
    fn range_read_read() {
        read_read_never_conflicts::<RangeSignature>();
    }

    #[test]
    fn bloom_read_read() {
        read_read_never_conflicts::<BloomSignature>();
    }

    #[test]
    fn range_empty() {
        empty_conflicts_with_nothing::<RangeSignature>();
    }

    #[test]
    fn bloom_empty() {
        empty_conflicts_with_nothing::<BloomSignature>();
    }

    #[test]
    fn range_disjoint_writes_do_not_conflict() {
        let mut a = RangeSignature::empty();
        let mut b = RangeSignature::empty();
        for addr in 0..10 {
            a.record(addr, AccessKind::Write);
        }
        for addr in 20..30 {
            b.record(addr, AccessKind::Write);
        }
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn range_is_conservative_over_gaps() {
        // The range [0, 100] covers untouched addresses: a false positive.
        let mut a = RangeSignature::empty();
        a.record(0, AccessKind::Write);
        a.record(100, AccessKind::Write);
        let mut b = RangeSignature::empty();
        b.record(50, AccessKind::Write); // never actually touched by `a`
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn bloom_distinguishes_scattered_writes_better_than_range() {
        // Two tasks writing interleaved but disjoint scattered addresses:
        // range flags them, bloom (usually) does not.
        let mut ra = RangeSignature::empty();
        let mut rb = RangeSignature::empty();
        let mut ba = BloomSignature::empty();
        let mut bb = BloomSignature::empty();
        ra.record(0, AccessKind::Write);
        ra.record(1000, AccessKind::Write);
        ba.record(0, AccessKind::Write);
        ba.record(1000, AccessKind::Write);
        rb.record(500, AccessKind::Write);
        bb.record(500, AccessKind::Write);
        assert!(ra.conflicts_with(&rb));
        assert!(!ba.conflicts_with(&bb), "bloom should separate 3 addresses");
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut s = BloomSignature::empty();
        s.record(3, AccessKind::Write);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    fn merge_is_conservative_union<S: AccessSignature>() {
        let mut a = S::empty();
        a.record(10, AccessKind::Write);
        let mut b = S::empty();
        b.record(200, AccessKind::Read);
        let mut q_w = S::empty();
        q_w.record(10, AccessKind::Read);
        let mut q_r = S::empty();
        q_r.record(200, AccessKind::Write);

        let mut agg = a.clone();
        agg.merge(&b);
        // Anything conflicting with a member conflicts with the aggregate.
        assert!(agg.conflicts_with(&q_w));
        assert!(agg.conflicts_with(&q_r));

        // Merging an empty signature changes nothing.
        let before = format!("{agg:?}");
        agg.merge(&S::empty());
        assert_eq!(format!("{agg:?}"), before);

        // Merging into an empty signature adopts the member's conflicts.
        let mut from_empty = S::empty();
        from_empty.merge(&a);
        assert!(from_empty.conflicts_with(&q_w));
        assert!(!from_empty.is_empty());
    }

    #[test]
    fn range_merge_union() {
        merge_is_conservative_union::<RangeSignature>();
    }

    #[test]
    fn bloom_merge_union() {
        merge_is_conservative_union::<BloomSignature>();
    }

    #[test]
    fn range_merge_keeps_read_write_split() {
        let mut a = RangeSignature::empty();
        a.record(5, AccessKind::Read);
        let mut b = RangeSignature::empty();
        b.record(50, AccessKind::Read);
        a.merge(&b);
        // Two read-only signatures stay read-only after union: no conflict
        // against another reader of the same region.
        let mut reader = RangeSignature::empty();
        reader.record(20, AccessKind::Read);
        assert!(!a.conflicts_with(&reader));
        assert_eq!(a.read_range(), Some((5, 50)));
        assert_eq!(a.write_range(), None);
    }

    #[test]
    fn bloom_clear_zeroes_in_place() {
        let mut s = BloomSignature::empty();
        for addr in 0..128 {
            s.record(addr, AccessKind::Write);
            s.record(addr * 3 + 1, AccessKind::Read);
        }
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, BloomSignature::empty());
    }

    fn addr_span_covers_all_accesses<S: AccessSignature>() {
        let mut s = S::empty();
        assert_eq!(s.addr_span(), None);
        s.record(40, AccessKind::Read);
        assert_eq!(s.addr_span(), Some((40, 40)));
        s.record(7, AccessKind::Write);
        s.record(90, AccessKind::Read);
        assert_eq!(s.addr_span(), Some((7, 90)));

        let mut other = S::empty();
        other.record(3, AccessKind::Write);
        other.record(55, AccessKind::Read);
        s.merge(&other);
        assert_eq!(s.addr_span(), Some((3, 90)));

        s.clear();
        assert_eq!(s.addr_span(), None);
    }

    #[test]
    fn range_addr_span() {
        addr_span_covers_all_accesses::<RangeSignature>();
    }

    #[test]
    fn bloom_addr_span() {
        addr_span_covers_all_accesses::<BloomSignature>();
    }

    #[test]
    fn range_exposes_recorded_ranges() {
        let mut s = RangeSignature::empty();
        assert_eq!(s.read_range(), None);
        assert_eq!(s.write_range(), None);
        s.record(5, AccessKind::Read);
        s.record(9, AccessKind::Read);
        s.record(2, AccessKind::Write);
        assert_eq!(s.read_range(), Some((5, 9)));
        assert_eq!(s.write_range(), Some((2, 2)));
    }
}
