//! Buffers: the unit of storage in the MRL framework.
//!
//! The algorithm manages `b` buffers, each able to hold `k` elements.
//! Buffers are always labelled *empty*, *partial* or *full* (§3), carry a
//! positive integer weight, and — once populated — an integer *level*
//! recording their position in the collapse tree (§3.5–3.6).

use crate::radix::{try_sort_fixed, RadixScratch};

/// Lifecycle label of a buffer (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferState {
    /// Holds no elements and may be given to `New`.
    Empty,
    /// Holds exactly `k` elements; eligible for `Collapse`.
    Full,
    /// Holds fewer than `k` elements because the stream ran dry mid-`New`.
    /// Participates only in `Output`.
    Partial,
}

/// A weighted, levelled buffer of sorted elements.
///
/// Invariant: when the state is `Full` or `Partial`, `data` is sorted in
/// non-decreasing order. Every element logically stands for `weight`
/// consecutive input elements.
#[derive(Clone, Debug)]
pub struct Buffer<T> {
    data: Vec<T>,
    weight: u64,
    level: u32,
    state: BufferState,
}

impl<T: Ord> Buffer<T> {
    /// A fresh empty buffer with storage reserved for `k` elements.
    // alloc: one reservation per buffer slot, at engine construction or
    // slot recycling (once per fill), never per element.
    pub fn empty(k: usize) -> Self {
        Self {
            data: Vec::with_capacity(k),
            weight: 0,
            level: 0,
            state: BufferState::Empty,
        }
    }

    /// Populate this buffer with `data` (sorted internally), `weight` and
    /// `level`, marking it `Full` if `data.len() == k` and `Partial`
    /// otherwise. Input that is already sorted is detected in `O(k)` and
    /// adopted without the `O(k log k)` sort.
    ///
    /// # Panics
    /// Panics if the buffer is not empty, `data` is empty, `data` exceeds
    /// `k`, or `weight == 0`.
    pub fn populate(&mut self, mut data: Vec<T>, weight: u64, level: u32, k: usize) {
        if !data.is_sorted() {
            data.sort_unstable();
        }
        self.populate_sorted(data, weight, level, k);
    }

    /// As [`Buffer::populate`] for input the caller guarantees is already
    /// sorted (collapse output, presorted seals, shipped buffers). Skips
    /// even the `O(k)` sortedness check in release builds.
    ///
    /// # Panics
    /// Panics if the buffer is not empty, `data` is empty, `data` exceeds
    /// `k`, or `weight == 0`. Debug builds also assert sortedness.
    pub fn populate_sorted(&mut self, data: Vec<T>, weight: u64, level: u32, k: usize) {
        debug_assert!(data.is_sorted(), "populate_sorted requires sorted data");
        self.populate_raw(data, weight, level, k);
    }

    /// Construct a populated buffer directly from sorted `data` (the §6
    /// shipping path and tests).
    ///
    /// # Panics
    /// As [`Buffer::populate_sorted`].
    pub fn from_sorted(data: Vec<T>, weight: u64, level: u32, k: usize) -> Self {
        let mut buf = Self::empty(0);
        buf.populate_sorted(data, weight, level, k);
        buf
    }

    /// As [`Buffer::populate_sorted`] but without the sortedness contract:
    /// the engine's deferred-seal path parks raw fill data here and tracks
    /// the obligation to [`Buffer::make_sorted`] it before the data is read.
    ///
    /// # Panics
    /// Panics if the buffer is not empty, `data` is empty, `data` exceeds
    /// `k`, or `weight == 0`.
    pub(crate) fn populate_raw(&mut self, data: Vec<T>, weight: u64, level: u32, k: usize) {
        assert_eq!(
            self.state,
            BufferState::Empty,
            "populate requires an empty buffer"
        );
        assert!(
            !data.is_empty(),
            "cannot populate a buffer with no elements"
        );
        assert!(data.len() <= k, "buffer over capacity");
        assert!(weight > 0, "buffer weight must be positive");
        self.state = if data.len() == k {
            BufferState::Full
        } else {
            BufferState::Partial
        };
        self.data = data;
        self.weight = weight;
        self.level = level;
    }

    /// Restore the sorted invariant for data parked by
    /// [`Buffer::populate_raw`], routing through the radix kernel when
    /// the element type is fixed-width (the engine threads its arena's
    /// radix scratch here from every deferred-seal sort site).
    pub(crate) fn make_sorted_with(&mut self, radix: &mut RadixScratch<T>)
    where
        T: 'static,
    {
        if !try_sort_fixed(&mut self.data, radix) {
            self.data.sort_unstable();
        }
    }

    /// Return the buffer to the `Empty` state, retaining its allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.weight = 0;
        self.level = 0;
        self.state = BufferState::Empty;
    }

    /// Take the (empty) backing storage out of the buffer, for reuse as
    /// scratch elsewhere. The buffer stays `Empty` and is left with no
    /// reserved capacity; `populate` hands it a vector again.
    ///
    /// # Panics
    /// Panics if the buffer is not empty.
    pub fn take_storage(&mut self) -> Vec<T> {
        assert_eq!(
            self.state,
            BufferState::Empty,
            "take_storage requires an empty buffer"
        );
        std::mem::take(&mut self.data)
    }
}

impl<T> Buffer<T> {
    /// The sorted contents.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The buffer weight `w(X)`: how many input elements each stored element
    /// represents.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The buffer's level in the collapse tree.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Raise the level (used by collapse policies that promote a lone
    /// lowest-level buffer, §3.6).
    ///
    /// # Panics
    /// Panics if `level` would decrease.
    pub fn promote(&mut self, level: u32) {
        assert!(level >= self.level, "buffer levels never decrease");
        self.level = level;
    }

    /// The lifecycle state.
    pub fn state(&self) -> BufferState {
        self.state
    }

    /// The weighted mass of the buffer: `len · weight`. Saturating —
    /// weight conservation keeps every mass ≤ the stream length, so
    /// saturation only defends against corrupted state.
    pub fn mass(&self) -> u64 {
        (self.data.len() as u64).saturating_mul(self.weight)
    }

    /// Snapshot of the scheduling-relevant metadata.
    pub fn meta(&self, index: usize) -> BufferMeta {
        BufferMeta {
            index,
            weight: self.weight,
            level: self.level,
            state: self.state,
        }
    }
}

/// Metadata describing one buffer to a collapse policy.
///
/// Policies decide *which* buffers to collapse purely from this view, which
/// lets `mrl-analysis` simulate collapse schedules without any data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferMeta {
    /// Position of the buffer in the engine's slot table.
    pub index: usize,
    /// Buffer weight `w(X)`.
    pub weight: u64,
    /// Level in the collapse tree.
    pub level: u32,
    /// Lifecycle state.
    pub state: BufferState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_sorts_and_labels() {
        let mut b = Buffer::empty(4);
        assert_eq!(b.state(), BufferState::Empty);
        b.populate(vec![3, 1, 2, 4], 2, 1, 4);
        assert_eq!(b.state(), BufferState::Full);
        assert_eq!(b.data(), &[1, 2, 3, 4]);
        assert_eq!(b.weight(), 2);
        assert_eq!(b.level(), 1);
        assert_eq!(b.mass(), 8);
    }

    #[test]
    fn short_fill_is_partial() {
        let mut b = Buffer::empty(4);
        b.populate(vec![5, 2], 8, 3, 4);
        assert_eq!(b.state(), BufferState::Partial);
        assert_eq!(b.len(), 2);
        assert_eq!(b.mass(), 16);
    }

    #[test]
    fn clear_recycles() {
        let mut b = Buffer::empty(2);
        b.populate(vec![1, 2], 1, 0, 2);
        b.clear();
        assert_eq!(b.state(), BufferState::Empty);
        assert!(b.is_empty());
        b.populate(vec![9, 8], 4, 2, 2);
        assert_eq!(b.data(), &[8, 9]);
    }

    #[test]
    fn take_storage_recycles_the_allocation() {
        let mut b = Buffer::empty(4);
        b.populate(vec![4, 3, 2, 1], 1, 0, 4);
        b.clear();
        let storage = b.take_storage();
        assert!(storage.is_empty());
        assert!(storage.capacity() >= 4);
        b.populate(vec![9], 2, 1, 4);
        assert_eq!(b.data(), &[9]);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn take_storage_of_populated_buffer_panics() {
        let mut b = Buffer::empty(2);
        b.populate(vec![1, 2], 1, 0, 2);
        let _ = b.take_storage();
    }

    #[test]
    fn from_sorted_adopts_without_sorting() {
        let b = Buffer::from_sorted(vec![1, 2, 3, 4], 2, 1, 4);
        assert_eq!(b.state(), BufferState::Full);
        assert_eq!(b.data(), &[1, 2, 3, 4]);
        assert_eq!(b.weight(), 2);
        let p = Buffer::from_sorted(vec![7], 8, 0, 4);
        assert_eq!(p.state(), BufferState::Partial);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted")]
    fn from_sorted_rejects_unsorted_in_debug() {
        let _ = Buffer::from_sorted(vec![3, 1], 1, 0, 4);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn double_populate_panics() {
        let mut b = Buffer::empty(2);
        b.populate(vec![1, 2], 1, 0, 2);
        b.populate(vec![3, 4], 1, 0, 2);
    }

    #[test]
    #[should_panic(expected = "never decrease")]
    fn demotion_panics() {
        let mut b = Buffer::empty(2);
        b.populate(vec![1, 2], 1, 5, 2);
        b.promote(3);
    }
}
