//! Checkpoints that cost O(dirty), not O(state): copy-on-write in user
//! space at block granularity (substitution S3 of DESIGN.md).
//!
//! The thesis checkpoints with `fork()`, whose copy-on-write pays only for
//! the pages a process writes. Here a pass's workers record which
//! [`BLOCK_CELLS`]-address blocks their tasks wrote in a fixed-capacity
//! [`DirtyBlocks`] bitmap each — from the address spans of the signatures
//! they ship, or write by write where no signature is built — and fold them
//! into the pass's [`Checkpoint`]. A checkpoint then refreshes, and a
//! rollback restores, only the blocks written since the buffer involved last
//! matched live memory ([`SpecWorkload::refresh`],
//! [`SpecWorkload::restore_dirty`]). A workload that does not override that
//! pair keeps full copies, whatever the bitmaps say.

use std::fmt;
use std::ops::Range;

use crossinvoc_runtime::signature::{AccessKind, AccessSignature};

use crate::workload::{AccessRecorder, SpecWorkload};

/// Addresses per block: 512 cells, 4 KiB of `i64`.
pub const BLOCK_CELLS: usize = 512;

/// Bitmap words of a [`DirtyBlocks`].
const WORDS: usize = 32;

/// A set of written blocks with a fixed capacity of
/// [`DirtyBlocks::CAPACITY`] blocks (2^20 addresses), held inline so that
/// marking, folding and clearing allocate nothing. An address past the
/// capacity turns the set into "every block", which a workload honours
/// with a full copy.
///
/// As an [`AccessRecorder`] it marks the block of every recorded write and
/// ignores reads: the write-span recorder of execution that builds no
/// signature (irreversible epochs, non-speculative re-execution).
///
/// ```
/// use crossinvoc_speccross::checkpoint::{DirtyBlocks, BLOCK_CELLS};
///
/// let mut dirty = DirtyBlocks::new();
/// dirty.mark_span(BLOCK_CELLS - 1, BLOCK_CELLS); // straddles blocks 0 and 1
/// dirty.mark_span(5 * BLOCK_CELLS, 5 * BLOCK_CELLS);
/// let ranges: Vec<_> = dirty.ranges(6 * BLOCK_CELLS - 7).collect();
/// assert_eq!(ranges, [0..2 * BLOCK_CELLS, 5 * BLOCK_CELLS..6 * BLOCK_CELLS - 7]);
/// dirty.mark_span(0, DirtyBlocks::CAPACITY * BLOCK_CELLS);
/// assert!(dirty.is_all());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DirtyBlocks {
    words: [u64; WORDS],
    /// Every block, including those past the capacity.
    all: bool,
}

impl DirtyBlocks {
    /// Blocks the bitmap can name one by one.
    pub const CAPACITY: usize = WORDS * 64;

    /// The empty set.
    pub const fn new() -> Self {
        Self {
            words: [0; WORDS],
            all: false,
        }
    }

    /// The set of every block.
    pub const fn everything() -> Self {
        Self {
            words: [0; WORDS],
            all: true,
        }
    }

    /// Whether the set is every block.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Marks every block.
    pub fn mark_all(&mut self) {
        self.all = true;
    }

    /// Marks every block holding an address of the inclusive span
    /// `lo..=hi`.
    pub fn mark_span(&mut self, lo: usize, hi: usize) {
        let (mut block, last) = (lo / BLOCK_CELLS, hi / BLOCK_CELLS);
        if last >= Self::CAPACITY {
            self.all = true;
            return;
        }
        while block <= last {
            let bit = block % 64;
            let n = (last - block + 1).min(64 - bit);
            self.words[block / 64] |= (u64::MAX >> (64 - n)) << bit;
            block += n;
        }
    }

    /// Marks the address span of `sig` ([`AccessSignature::addr_span`]):
    /// a cover of every address it recorded, reads included.
    pub fn mark_sig<S: AccessSignature>(&mut self, sig: &S) {
        if let Some((lo, hi)) = sig.addr_span() {
            self.mark_span(lo, hi);
        }
    }

    /// Adds every block of `other`.
    pub fn union(&mut self, other: &Self) {
        self.all |= other.all;
        for (word, theirs) in self.words.iter_mut().zip(&other.words) {
            *word |= theirs;
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    fn contains(&self, block: usize) -> bool {
        block < Self::CAPACITY && self.words[block / 64] & (1 << (block % 64)) != 0
    }

    /// The cells of a state of `len` cells that the set covers, as maximal
    /// runs of consecutive marked blocks clipped to `len`: `0..len` when
    /// the set is every block.
    pub fn ranges(&self, len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let blocks = len.div_ceil(BLOCK_CELLS).min(Self::CAPACITY);
        let mut next = 0;
        std::iter::from_fn(move || {
            if self.all {
                let whole = (next == 0 && len > 0).then_some(0..len);
                next = blocks.max(1);
                return whole;
            }
            let start = (next..blocks).find(|&b| self.contains(b))?;
            let end = (start + 1..blocks)
                .find(|&b| !self.contains(b))
                .unwrap_or(blocks);
            next = end;
            Some(start * BLOCK_CELLS..(end * BLOCK_CELLS).min(len))
        })
    }
}

impl Default for DirtyBlocks {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for DirtyBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blocks: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("DirtyBlocks")
            .field("blocks", &blocks)
            .field("all", &self.all)
            .finish()
    }
}

impl AccessRecorder for DirtyBlocks {
    fn record(&mut self, addr: usize, kind: AccessKind) {
        if kind == AccessKind::Write {
            self.mark_span(addr, addr);
        }
    }
}

/// Calls `copy` on each run of `dirty` within a state of `len` cells
/// ([`DirtyBlocks::ranges`]) and returns the blocks copied: the body of a
/// [`SpecWorkload::refresh`]/[`SpecWorkload::restore_dirty`] override.
pub fn copy_runs(dirty: &DirtyBlocks, len: usize, mut copy: impl FnMut(Range<usize>)) -> usize {
    dirty
        .ranges(len)
        .map(|cells| {
            let blocks = cells.len().div_ceil(BLOCK_CELLS);
            copy(cells);
            blocks
        })
        .sum()
}

/// [`SpecWorkload::refresh`] for a state that is one vector of cells:
/// copies the runs of `stale` from `live`, or all of it when `state` was
/// torn to another length. Returns the blocks copied.
pub fn refresh_cells<T: Copy>(live: &[T], state: &mut Vec<T>, stale: &DirtyBlocks) -> usize {
    if state.len() != live.len() {
        state.clear();
        state.extend_from_slice(live);
        return live.len().div_ceil(BLOCK_CELLS);
    }
    copy_runs(stale, live.len(), |cells| {
        state[cells.clone()].copy_from_slice(&live[cells]);
    })
}

/// The latest durable checkpoint of a speculative pass plus the buffer the
/// next one is built in. Checkpoints alternate between the two, so a pass
/// allocates at most two states however many checkpoints it takes, and the
/// durable one stays intact until its successor is complete.
///
/// Each buffer carries a *stale* set, and the invariant is: stale ⊇ the
/// blocks where the buffer differs from live memory. Written blocks reach
/// both sets through [`fold`](Self::fold); refreshing a buffer, or
/// restoring live memory from it, empties its set. The spare is the older
/// of the two buffers, so its set also covers the durable one's. Every
/// copy is then O(stale) for a workload that overrides
/// [`SpecWorkload::refresh`]/[`SpecWorkload::restore_dirty`], and a full
/// copy otherwise. The copy methods return the blocks they copied (0 for a
/// full-copy workload).
#[derive(Debug)]
pub struct Checkpoint<St> {
    epoch: usize,
    state: St,
    stale: DirtyBlocks,
    /// `None` until the pass's second checkpoint.
    spare: Option<St>,
    spare_stale: DirtyBlocks,
}

impl<St> Checkpoint<St> {
    /// A full snapshot of `workload` at `epoch`: the first checkpoint of an
    /// execution.
    pub fn new<W: SpecWorkload<State = St>>(workload: &W, epoch: usize) -> Self {
        Self {
            epoch,
            state: workload.snapshot(),
            stale: DirtyBlocks::new(),
            spare: None,
            spare_stale: DirtyBlocks::new(),
        }
    }

    /// Epoch the durable checkpoint was taken at.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The durable checkpoint (a test hook).
    #[doc(hidden)]
    pub fn state(&self) -> &St {
        &self.state
    }

    /// The buffer the next checkpoint is refreshed into, once there is one
    /// (a test hook).
    #[doc(hidden)]
    pub fn spare(&self) -> Option<&St> {
        self.spare.as_ref()
    }

    /// Records that `dirty` blocks of live memory were written: neither
    /// buffer may be trusted there any more.
    pub fn fold(&mut self, dirty: &DirtyBlocks) {
        self.stale.union(dirty);
        self.spare_stale.union(dirty);
    }

    /// Makes the durable buffer a checkpoint at `epoch` again by refreshing
    /// it in place — how a pass after a recovery reuses the previous pass's
    /// buffers.
    pub fn restart<W: SpecWorkload<State = St>>(&mut self, workload: &W, epoch: usize) -> usize {
        let copied = refresh(workload, &mut self.state, &mut self.stale);
        self.epoch = epoch;
        copied
    }

    /// Replaces the durable checkpoint with one of `workload` at `epoch`.
    /// The new one is built in the spare and swapped in only once complete:
    /// a refresh that panics midway leaves the previous checkpoint
    /// untouched and the spare marked stale everywhere.
    pub fn advance<W: SpecWorkload<State = St>>(&mut self, workload: &W, epoch: usize) -> usize {
        let copied = match &mut self.spare {
            Some(spare) => refresh(workload, spare, &mut self.spare_stale),
            None => {
                self.spare = Some(workload.snapshot());
                self.spare_stale.clear();
                0
            }
        };
        let spare = self.spare.as_mut().expect("filled above");
        std::mem::swap(&mut self.state, spare);
        std::mem::swap(&mut self.stale, &mut self.spare_stale);
        self.epoch = epoch;
        copied
    }

    /// Restores live memory from the durable checkpoint, which then
    /// matches it everywhere. The spare's set needs no update: it already
    /// covers every block written since the spare was taken, and so every
    /// block where the spare and the durable checkpoint differ.
    pub fn roll_back<W: SpecWorkload<State = St>>(&mut self, workload: &W) -> usize {
        let copied = workload.restore_dirty(&self.state, &self.stale);
        self.stale.clear();
        copied
    }
}

/// Refreshes `buffer` from its `stale` set and empties the set. The set
/// reads "everything" while the copy runs, so a refresh that panics midway
/// leaves a torn buffer that its next refresh copies whole — the contract
/// [`SpecWorkload::refresh`] states for a half-overwritten buffer.
fn refresh<W: SpecWorkload>(workload: &W, buffer: &mut W::State, stale: &mut DirtyBlocks) -> usize {
    let dirty = std::mem::replace(stale, DirtyBlocks::everything());
    let copied = workload.refresh(buffer, &dirty);
    stale.clear();
    copied
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs as (start, end) pairs.
    fn ranges(dirty: &DirtyBlocks, len: usize) -> Vec<(usize, usize)> {
        dirty.ranges(len).map(|r| (r.start, r.end)).collect()
    }

    const B: usize = BLOCK_CELLS;
    const CAP: usize = DirtyBlocks::CAPACITY * B;

    #[test]
    fn spans_mark_whole_words_and_coalesce() {
        let mut d = DirtyBlocks::new();
        assert_eq!(ranges(&d, 10 * B), []);
        // Blocks 60..=130 cross two word boundaries.
        d.mark_span(60 * B + 7, 130 * B);
        assert_eq!(ranges(&d, 1 << 20), [(60 * B, 131 * B)]);
        // Clipped to the state: a block past it is not copied.
        assert_eq!(ranges(&d, 100 * B + 3), [(60 * B, 100 * B + 3)]);
        let mut last = DirtyBlocks::new();
        last.mark_span(CAP - 1, CAP - 1);
        assert!(!last.is_all());
        d.union(&last);
        assert_eq!(ranges(&d, CAP).len(), 2);
    }

    #[test]
    fn past_capacity_is_everything() {
        let mut d = DirtyBlocks::new();
        d.write(CAP);
        assert!(d.is_all());
        assert_eq!(ranges(&d, 1000), [(0, 1000)]);
        assert_eq!(ranges(&d, 0), []);
        d.clear();
        assert_eq!(d, DirtyBlocks::new());
    }

    #[test]
    fn the_recorder_marks_writes_only() {
        let mut d = DirtyBlocks::new();
        d.read(3 * B);
        assert_eq!(d, DirtyBlocks::new());
        d.write(3 * B);
        assert_eq!(ranges(&d, 1 << 20), [(3 * B, 4 * B)]);
    }
}
