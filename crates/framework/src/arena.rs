//! The per-engine scratch arena: one owner for every buffer the
//! ingest→seal→collapse path reuses across operations.
//!
//! Steady-state streaming must not allocate (MRL-A003): each seal and each
//! collapse works entirely inside storage retained from earlier
//! operations. Historically that storage was a loose set of `*_scratch`
//! fields on [`crate::Engine`]; the arena gathers them into one struct so
//! the ownership story is visible in a single place, the borrow-splitting
//! idiom (`std::mem::take` a sub-buffer, use it, put it back) is applied
//! uniformly, and new hot-path code has an obvious home for its scratch
//! instead of a new ad-hoc field.
//!
//! All buffers hold their *capacity* across uses while logically empty
//! between operations; none of them carries engine state. Dropping the
//! arena (or replacing it with `Default::default()`) only costs future
//! re-reservations, never correctness.

use std::cell::RefCell;

use crate::merge::SelectScratch;
use crate::policy::CollapseDecision;
use crate::radix::RadixScratch;
use crate::spine::QuerySpine;

/// Scratch storage reused by the engine's seal and collapse paths.
///
/// See the field docs for which operation owns which buffer; the engine
/// threads these through the call graph by `&mut` (or `std::mem::take`
/// where a buffer must outlive a second `&mut self` borrow).
#[derive(Clone, Debug)]
pub struct ScratchArena<T> {
    /// Raw-collapse concatenation: the deferred-seal inputs are gathered
    /// here and sorted in one pass.
    pub(crate) concat: Vec<T>,
    /// Collapse output staging: the selection writes here, then the vector
    /// is swapped into the output buffer slot (whose retired storage
    /// becomes the next collapse's staging via `take_storage`).
    pub(crate) select_out: Vec<T>,
    /// Internals of the weighted-selection kernels: walk positions, the
    /// `(element, weight)` pair buffers of the multi-source merge path and
    /// their run bounds.
    pub(crate) select: SelectScratch<T>,
    /// Occupancy-by-level counts for the metrics gauges.
    pub(crate) occupancy: Vec<u64>,
    /// Staging buffer that batches `Engine::extend`'s iterator into
    /// `insert_batch` calls.
    pub(crate) stage: Vec<T>,
    /// The tree's collapse decision (`Tree::next_step`,
    /// `Tree::collapse_all_full`): the promotion and collapse-slot vectors
    /// are refilled each collapse.
    pub(crate) decision: CollapseDecision,
    /// Radix-seal ping-pong buffer (`radix::sort_fixed`), used by every
    /// seal and raw-collapse sort when the element type is fixed-width.
    pub(crate) radix: RadixScratch<T>,
    /// The epoch-cached query spine: the sealed part (every buffer's
    /// pairs, sorted and coalesced, kept while the buffer generation
    /// holds), the fill's sorted copy, and the merged view queries search.
    /// `RefCell` because queries take `&self` (Output never mutates sketch
    /// state, §3.7) but the first query after an ingest epoch bump
    /// refreshes the merged view here; a stale spine is never *wrong*,
    /// only rebuilt — dropping the arena still costs only re-reservations
    /// plus one rebuild of both parts.
    pub(crate) spine: RefCell<QuerySpine<T>>,
}

// Manual impl: the derive would demand `T: Default`, which empty vectors
// do not need.
impl<T> Default for ScratchArena<T> {
    fn default() -> Self {
        Self {
            concat: Vec::new(),
            select_out: Vec::new(),
            select: SelectScratch::default(),
            occupancy: Vec::new(),
            stage: Vec::new(),
            decision: CollapseDecision::default(),
            radix: RadixScratch::default(),
            spine: RefCell::new(QuerySpine::default()),
        }
    }
}
