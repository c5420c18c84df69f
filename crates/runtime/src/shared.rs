//! Shared mutable memory for runtime-scheduled workers.
//!
//! The kernels parallelized by DOMORE and SPECCROSS mutate shared arrays from
//! multiple worker threads, with the *runtime* — not the type system —
//! guaranteeing that conflicting accesses are ordered (by synchronization
//! conditions, memory partitioning, or speculation with rollback). That
//! contract cannot be expressed to the borrow checker, so [`SharedSlice`]
//! provides raw indexed access behind an explicit `unsafe` surface, in the
//! same spirit as the internals of data-parallel libraries.

use std::cell::UnsafeCell;
use std::fmt;

/// A heap-allocated slice that may be read and written concurrently by
/// multiple threads under an external scheduling discipline.
///
/// # Safety contract
///
/// The unsafe accessors require that, for any two concurrent accesses to the
/// same index where at least one is a write, the caller's scheduler has
/// ordered them with a happens-before edge (DOMORE synchronization
/// conditions, LOCALWRITE ownership, epoch re-execution after rollback, …).
/// The safe [`SharedSlice::snapshot`] and [`SharedSlice::fill`] methods
/// require exclusive access via `&mut self`.
///
/// # Example
///
/// ```
/// use crossinvoc_runtime::SharedSlice;
///
/// let data = SharedSlice::from_vec(vec![0u64; 4]);
/// // Sole accessor, so unordered access is trivially race-free:
/// unsafe { data.write(2, 7) };
/// assert_eq!(unsafe { data.read(2) }, 7);
/// ```
pub struct SharedSlice<T> {
    cells: Box<[UnsafeCell<T>]>,
}

// SAFETY: all concurrent access goes through the unsafe read/write methods,
// whose contract (above) pushes data-race freedom onto the scheduling
// discipline of the calling runtime.
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wraps an owned vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        Self {
            cells: data
                .into_iter()
                .map(UnsafeCell::new)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads element `index`.
    ///
    /// # Safety
    ///
    /// No thread may be concurrently writing `index` without a
    /// happens-before edge to this read (see the type-level contract).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        *self.cells[index].get()
    }

    /// Writes element `index`.
    ///
    /// # Safety
    ///
    /// No thread may be concurrently accessing `index` without a
    /// happens-before edge (see the type-level contract).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        *self.cells[index].get() = value;
    }

    /// Applies `f` to element `index` in place.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedSlice::write`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub unsafe fn update(&self, index: usize, f: impl FnOnce(&mut T)) {
        f(&mut *self.cells[index].get())
    }

    /// A shared view of every element, for bulk copies out.
    ///
    /// # Safety
    ///
    /// No thread may write any element while the view is alive (the
    /// quiesced state of a checkpoint or rollback rendezvous).
    pub unsafe fn as_slice(&self) -> &[T] {
        // SAFETY: `UnsafeCell<T>` has the layout of `T`, and the caller
        // rules out writers for the view's lifetime.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr() as *const T, self.len()) }
    }

    /// Overwrites elements `start..start + src.len()` from `src` with one
    /// bulk copy.
    ///
    /// # Safety
    ///
    /// No other thread may be accessing any of those elements meanwhile
    /// (the quiesced state of a rollback rendezvous).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub unsafe fn write_slice(&self, start: usize, src: &[T])
    where
        T: Copy,
    {
        let cells = &self.cells[start..start + src.len()];
        // SAFETY: `UnsafeCell<T>` has the layout of `T`, and the caller
        // rules out every other access to these cells, so this is the only
        // live reference to them.
        let dst = unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut T, cells.len()) };
        dst.copy_from_slice(src);
    }

    /// Copies the contents into a fresh `Vec`.
    ///
    /// Takes `&mut self`, so the snapshot is quiescent by construction.
    pub fn snapshot(&mut self) -> Vec<T>
    where
        T: Clone,
    {
        self.cells.iter_mut().map(|c| c.get_mut().clone()).collect()
    }

    /// Overwrites the contents from `values`.
    ///
    /// Used by SPECCROSS recovery to restore a checkpoint. Takes `&mut self`,
    /// so no worker may be running.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn fill(&mut self, values: &[T])
    where
        T: Clone,
    {
        assert_eq!(values.len(), self.len(), "length mismatch in fill");
        for (cell, v) in self.cells.iter_mut().zip(values) {
            *cell.get_mut() = v.clone();
        }
    }

    /// Exclusive view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` guarantees exclusivity; UnsafeCell<T> has the
        // same layout as T.
        unsafe { std::slice::from_raw_parts_mut(self.cells.as_mut_ptr() as *mut T, self.len()) }
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSlice(len = {})", self.cells.len())
    }
}

impl<T> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn read_write_roundtrip() {
        let s = SharedSlice::from_vec(vec![0i64; 8]);
        unsafe {
            s.write(3, -5);
            assert_eq!(s.read(3), -5);
            s.update(3, |v| *v *= 2);
            assert_eq!(s.read(3), -10);
        }
    }

    #[test]
    fn snapshot_and_fill_roundtrip() {
        let mut s = SharedSlice::from_vec(vec![1u32, 2, 3]);
        let snap = s.snapshot();
        unsafe { s.write(0, 99) };
        assert_eq!(unsafe { s.read(0) }, 99);
        s.fill(&snap);
        assert_eq!(s.snapshot(), vec![1, 2, 3]);
    }

    #[test]
    fn bulk_copies_round_trip() {
        let s = SharedSlice::from_vec((0..10i64).collect());
        assert_eq!(unsafe { &s.as_slice()[3..7] }, [3, 4, 5, 6]);
        unsafe { s.write_slice(7, &[-1, -2, -3]) };
        assert_eq!(unsafe { s.as_slice() }, [0, 1, 2, 3, 4, 5, 6, -1, -2, -3]);
    }

    #[test]
    #[should_panic]
    fn bulk_copies_check_bounds() {
        unsafe { SharedSlice::from_vec(vec![0u8; 4]).write_slice(3, &[1, 2]) };
    }

    #[test]
    fn disjoint_parallel_writes_are_race_free() {
        let s = Arc::new(SharedSlice::from_vec(vec![0usize; 1024]));
        let mut handles = Vec::new();
        for tid in 0..4 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in (tid..1024).step_by(4) {
                    // Disjoint indices per thread: the LOCALWRITE discipline.
                    unsafe { s.write(i, i * 2) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut s = Arc::try_unwrap(s).unwrap();
        for (i, v) in s.snapshot().into_iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn as_mut_slice_reflects_writes() {
        let mut s = SharedSlice::from_vec(vec![0u8; 4]);
        s.as_mut_slice()[2] = 9;
        assert_eq!(unsafe { s.read(2) }, 9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fill_length_mismatch_panics() {
        SharedSlice::from_vec(vec![1]).fill(&[1, 2]);
    }
}
