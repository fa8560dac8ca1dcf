//! The `New` operation's front end (§3.1): block sampling a stream into
//! fills of `k` representatives.
//!
//! [`FillFront`] holds what `New` keeps between calls: the block sampler,
//! its RNG, the rate of the fill in progress and the fill's
//! representatives. [`sample_batch`] is the one loop that feeds it a slice
//! of the stream. It cuts the slice at fill boundaries, copies at rate 1,
//! samples one representative per block above it, and calls its
//! [`FillSink`] when a fill must begin and when one is full.
//!
//! Two owners drive the loop. The [`crate::Engine`] opens each fill by
//! stepping its [`crate::Tree`] (allocating or collapsing as the tree
//! decides) and seals each full fill into a buffer. The sharded pipeline's
//! producer runs one front per shard against a data-free replica of that
//! shard's tree and ships only the full fills; the shard's engine takes
//! them in with [`crate::Engine::insert_sampled`]. Because the sampler
//! makes the only random draws and both trees are the same function of
//! `(b, h, allocation)`, the shard ends up bit-for-bit where it would have
//! been had it sampled the same slices itself.

use mrl_sampling::{BlockSampler, SketchRng};

/// The sampler state of `New`: block sampler, RNG and the fill in
/// progress.
#[derive(Clone, Debug)]
pub struct FillFront<T> {
    k: usize,
    rate: u64,
    filling: bool,
    sampler: BlockSampler<T>,
    rng: SketchRng,
    filler: Vec<T>,
}

/// The owner of a [`FillFront`], as [`sample_batch`] sees it.
pub trait FillSink<T> {
    /// The front being fed.
    fn front(&mut self) -> &mut FillFront<T>;

    /// Open the next fill: secure a slot for it and call
    /// [`FillFront::start`] with its rate.
    fn begin_fill(&mut self);

    /// The front just appended `count` representatives to the open fill.
    fn sampled(&mut self, count: usize);

    /// The open fill holds `k` representatives: take them with
    /// [`FillFront::take_fill`].
    fn complete_fill(&mut self);
}

/// Feed `items` through `sink`'s front: the batch-sampling loop.
///
/// Each pass opens a fill if none is open, samples the prefix of the rest
/// the fill can still absorb, reports the representatives, and hands over
/// the fill once it holds `k`. The block sampler draws once per block (see
/// [`BlockSampler::offer_slice`]), so a seeded run reproduces only against
/// the same slicing of the stream.
// Out of line: this is the hot loop of every bulk ingest. Inlined into a
// caller's own loop (LLVM inlines a function with one call site whatever
// its size), the benchmark's `online` ingest measured about 9% slower on
// a 2-vCPU x86-64 host.
#[inline(never)]
pub fn sample_batch<T: Clone, S: FillSink<T>>(sink: &mut S, items: &[T]) {
    let mut rest = items;
    while !rest.is_empty() {
        if !sink.front().filling {
            sink.begin_fill();
        }
        let (count, tail) = sink.front().sample(rest);
        rest = tail;
        sink.sampled(count);
        if sink.front().is_full() {
            debug_assert_eq!(sink.front().sampler.pending(), 0);
            sink.complete_fill();
        }
    }
}

impl<T> FillFront<T> {
    /// A front for fills of `k` representatives whose sampler starts at
    /// `rate`, drawing from `rng`. `None` when `k == 0`.
    ///
    /// # Panics
    /// Panics if `rate == 0`.
    pub fn new(k: usize, rate: u64, rng: SketchRng) -> Option<Self> {
        (k >= 1).then(|| Self::build(k, rate, rng))
    }

    /// [`FillFront::new`] for a `k ≥ 1` the caller has checked.
    pub(crate) fn build(k: usize, rate: u64, rng: SketchRng) -> Self {
        Self {
            k,
            rate,
            filling: false,
            sampler: BlockSampler::new(rate),
            rng,
            filler: Vec::with_capacity(k),
        }
    }

    /// Representatives per fill.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sampling rate of the open fill, or of the last one.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// True while a fill is open.
    pub fn is_filling(&self) -> bool {
        self.filling
    }

    /// True when the open fill holds `k` representatives.
    pub fn is_full(&self) -> bool {
        self.filler.len() == self.k
    }

    /// The open fill's representatives so far, in stream order.
    pub fn filler(&self) -> &[T] {
        &self.filler
    }

    /// The incomplete block's representative and the elements it has seen.
    pub fn pending(&self) -> Option<(&T, u64)> {
        self.sampler.peek()
    }

    /// Elements seen by the incomplete block (0 when none is open).
    pub fn pending_count(&self) -> u64 {
        self.sampler.pending()
    }

    /// Random draws the sampler has consumed.
    pub fn draws(&self) -> u64 {
        self.sampler.draws()
    }

    /// Open a fill at `rate`.
    ///
    /// # Panics
    /// Panics if `rate == 0`.
    pub fn start(&mut self, rate: u64) {
        self.sampler.reset_with_rate(rate);
        self.rate = rate;
        self.filling = true;
    }

    /// End the fill and hand over its representatives, keeping `storage`
    /// (expected empty, with room for `k`) as the next fill's.
    pub fn take_fill(&mut self, storage: Vec<T>) -> Vec<T> {
        self.filling = false;
        std::mem::replace(&mut self.filler, storage)
    }

    /// Offer one stream element (the per-element path: one random draw per
    /// element, §3.1's size-one reservoir). True when it completed a block
    /// and the block's representative joined the fill.
    // alloc: the push lands in the fill's storage, which its owner reserved
    // for k representatives (a recycled buffer slot, or a spent fill).
    pub fn offer(&mut self, item: T) -> bool {
        match self.sampler.offer(item, &mut self.rng) {
            Some(repr) => {
                self.filler.push(repr);
                true
            }
            None => false,
        }
    }

    /// Take the incomplete block out of the front, as `(representative,
    /// elements seen)`; `None` when no block is open.
    pub fn take_pending(&mut self) -> Option<(T, u64)> {
        self.sampler.flush()
    }

    /// End of stream: the incomplete block's representative joins the
    /// fill. Returns the number of elements it stands for, or `None` when
    /// no block was open.
    // alloc: a pending block means the fill still has room, so the push
    // lands in reserved capacity.
    pub fn close(&mut self) -> Option<u64> {
        let (tail, seen) = self.take_pending()?;
        self.filler.push(tail);
        Some(seen)
    }

    /// Append representatives sampled elsewhere at the open fill's rate,
    /// and resume the incomplete block the stream ended in, if any, as
    /// `(representative, elements seen)`. An empty fill adopts `reps`'
    /// storage and leaves its own in `reps`; either way `reps` comes back
    /// empty.
    ///
    /// # Panics
    /// Panics if `reps` overflows the fill, if a block is already pending,
    /// or if `pending` accompanies a full fill or has a count outside
    /// `[1, rate)`.
    pub fn adopt(&mut self, reps: &mut Vec<T>, pending: Option<(T, u64)>) {
        let len = self.filler.len().saturating_add(reps.len());
        assert!(len <= self.k, "sampled fill overflows k");
        assert!(
            self.sampler.pending() == 0,
            "sampled fill arrived mid-block"
        );
        assert!(
            pending.is_none() || len < self.k,
            "a pending block belongs to an unfinished fill"
        );
        if self.filler.is_empty() {
            std::mem::swap(&mut self.filler, reps);
        } else {
            self.filler.append(reps);
        }
        self.sampler.set_pending(pending);
    }

    /// Overwrite the state from a snapshot.
    ///
    /// # Panics
    /// Panics if `rate == 0` or the pending count is outside `[1, rate)`.
    pub(crate) fn restore(
        &mut self,
        filler: Vec<T>,
        rate: u64,
        filling: bool,
        pending: Option<(T, u64)>,
    ) {
        self.filler = filler;
        self.rate = rate;
        self.filling = filling;
        self.sampler = BlockSampler::with_pending(rate, pending);
    }

    /// Sample the prefix of `rest` the open fill can still absorb. Returns
    /// how many representatives joined the fill and the unconsumed rest.
    // alloc: pushes land in the fill's storage, reserved for k
    // representatives by its owner; the absorb bound stops them at k.
    fn sample<'a>(&mut self, rest: &'a [T]) -> (usize, &'a [T])
    where
        T: Clone,
    {
        // Raw stream elements this fill can still absorb: each of the
        // `room` free slots stands for `rate` elements, less whatever the
        // pending block has already consumed. Saturating: room ≥ 1 while
        // a fill is open and the pending block never exceeds one fill's
        // worth (pending < rate), so absorb ≥ 1 in practice; saturation
        // only defends corrupted state from a wrapped subtraction.
        let room = self.k.saturating_sub(self.filler.len()) as u64;
        let absorb = room
            .saturating_mul(self.rate)
            .saturating_sub(self.sampler.pending());
        let take = absorb.min(rest.len() as u64) as usize;
        let (chunk, tail) = rest.split_at(take);
        let count = if self.rate == 1 {
            // Every element is its own block: bypass the sampler and
            // bulk-copy straight into the fill.
            self.filler.extend_from_slice(chunk);
            chunk.len()
        } else {
            let filler = &mut self.filler;
            self.sampler
                .offer_slice(chunk, &mut self.rng, &mut |repr| filler.push(repr))
        };
        (count, tail)
    }
}
