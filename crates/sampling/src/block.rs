//! Per-block sampling: one uniform representative from every block of `r`
//! consecutive stream elements.
//!
//! This is the sampler behind the paper's `New` operation (§3.1). Choosing
//! one element from each *disjoint* block is sampling **without replacement**
//! and, as the paper notes (§4.4), is much easier to implement online than
//! classical without-replacement schemes: no index bookkeeping is needed.
//!
//! The implementation uses a size-one reservoir per block (replace the
//! current representative of the `i`-th element of the block with probability
//! `1/i`). This is exactly uniform over the block and — unlike drawing the
//! winning offset up front — still yields a uniform representative of
//! whatever *prefix* of the final block has arrived when the stream runs dry,
//! which the partial-buffer logic relies on.

use mrl_obs::MetricsHandle;
use rand::Rng;

use crate::SketchRng;

/// Streaming sampler that emits one uniformly chosen representative per
/// block of `rate` input elements.
///
/// Feed elements with [`BlockSampler::offer`]; it returns `Some(repr)`
/// whenever a block completes. On end of stream, [`BlockSampler::flush`]
/// returns the representative of the trailing incomplete block (if any)
/// together with the number of elements it actually represents.
#[derive(Debug, Clone)]
pub struct BlockSampler<T> {
    rate: u64,
    seen_in_block: u64,
    current: Option<T>,
    /// Cumulative random draws consumed (one per reservoir decision on the
    /// scalar path, one per block on the batched path). Plain counter, not
    /// a recorder call: the sampler sits on the per-element hot loop, so
    /// totals are published in bulk via [`BlockSampler::publish_metrics`].
    draws: u64,
}

impl<T> BlockSampler<T> {
    /// Create a sampler with the given block size (`rate >= 1`).
    ///
    /// # Panics
    /// Panics if `rate == 0`.
    pub fn new(rate: u64) -> Self {
        assert!(rate >= 1, "block sampling rate must be at least 1");
        Self {
            rate,
            seen_in_block: 0,
            current: None,
            draws: 0,
        }
    }

    /// The block size `r`. Each emitted representative stands for `r`
    /// consecutive input elements.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Cumulative random draws consumed since construction. Survives
    /// [`BlockSampler::reset_with_rate`] (it tracks the sampler's lifetime,
    /// not the current block).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Publish the sampler's counters to a metrics sink (see
    /// [`crate::metrics`]). Intended to be called at buffer-seal
    /// granularity, never per element.
    pub fn publish_metrics(&self, metrics: &MetricsHandle) {
        metrics.gauge_set(crate::metrics::BLOCK_DRAWS, self.draws as f64);
    }

    /// Number of elements consumed from the current (incomplete) block.
    pub fn pending(&self) -> u64 {
        self.seen_in_block
    }

    /// Offer one stream element. Returns the block representative when this
    /// element completes a block of `rate` elements.
    pub fn offer(&mut self, item: T, rng: &mut SketchRng) -> Option<T> {
        self.seen_in_block += 1;
        // Size-one reservoir: the i-th element of the block replaces the
        // current representative with probability 1/i.
        let replace = self.seen_in_block == 1 || {
            self.draws += 1;
            rng.gen_range(0..self.seen_in_block) == 0
        };
        if replace {
            self.current = Some(item);
        }
        if self.seen_in_block == self.rate {
            self.seen_in_block = 0;
            self.current.take()
        } else {
            None
        }
    }

    /// Offer a whole slice of stream elements at once, invoking `emit` for
    /// each completed block's representative in stream order.
    ///
    /// Semantically identical to calling [`BlockSampler::offer`] once per
    /// element (each completed block's representative is uniform over the
    /// block, and the pending block's representative stays uniform over the
    /// arrived prefix), but draws **one** random number per block instead of
    /// one per element:
    ///
    /// * the block straddling the chunk boundary merges the already-seen
    ///   prefix (a uniform representative of `s` elements) with the chunk's
    ///   contribution in a single draw over `s + c` positions,
    /// * each block fully contained in the chunk picks its representative
    ///   with one `gen_range(0..rate)`,
    /// * at rate 1 every element is its own block and no randomness is
    ///   consumed at all.
    ///
    /// The consumed random stream differs from the per-element path, so a
    /// seeded run mixing `offer` and `offer_slice` is distributionally — not
    /// bitwise — equivalent to a pure per-element run.
    // panic-free: every index and range is bounded by construction —
    // u − s < c ≤ rest.len() in the straddle step (and u ≥ s there means a
    // chunk element was drawn, so `current` is Some when the block
    // completes); offset < rate ≤ rest.len() in the whole-block loops
    // (masked draws are < rate because rate is a power of two); and the
    // trailing draw is < rest.len().
    pub fn offer_slice(
        &mut self,
        chunk: &[T],
        rng: &mut SketchRng,
        emit: &mut dyn FnMut(T),
    ) -> usize
    where
        T: Clone,
    {
        if chunk.is_empty() {
            return 0;
        }
        if self.rate == 1 {
            // Degenerate blocks: every element is its own representative.
            for item in chunk {
                emit(item.clone());
            }
            return chunk.len();
        }
        let mut emitted = 0usize;
        let mut rest = chunk;
        // Finish the straddling block, if one is open: the current
        // representative stands uniformly for `s` seen elements; merging a
        // further `c` elements keeps uniformity with a single draw
        // u ∈ [0, s+c): keep the current representative when u < s, else
        // take the chunk element at offset u − s.
        if self.seen_in_block > 0 {
            let s = self.seen_in_block;
            let need = (self.rate - s) as usize;
            let c = rest.len().min(need);
            self.draws += 1;
            let u = rng.gen_range(0..s + c as u64);
            if u >= s {
                self.current = Some(rest[(u - s) as usize].clone());
            }
            self.seen_in_block += c as u64;
            if self.seen_in_block == self.rate {
                self.seen_in_block = 0;
                emit(self.current.take().expect("straddled block is nonempty"));
                emitted += 1;
            }
            rest = &rest[c..];
        }
        // Whole blocks contained in the chunk: one draw each. Rates are
        // powers of two on the paper's doubling schedule, so a masked raw
        // draw (exactly uniform, no rejection loop) covers the hot case.
        let rate = self.rate as usize;
        if self.rate.is_power_of_two() {
            let mask = self.rate - 1;
            while rest.len() >= rate {
                self.draws += 1;
                let offset = (rng.gen::<u64>() & mask) as usize;
                emit(rest[offset].clone());
                emitted += 1;
                rest = &rest[rate..];
            }
        } else {
            while rest.len() >= rate {
                self.draws += 1;
                let offset = rng.gen_range(0..self.rate) as usize;
                emit(rest[offset].clone());
                emitted += 1;
                rest = &rest[rate..];
            }
        }
        // Trailing partial block: a uniform representative of the prefix that
        // has arrived, exactly what the per-element reservoir would hold.
        if !rest.is_empty() {
            self.draws += 1;
            let offset = rng.gen_range(0..rest.len() as u64) as usize;
            self.current = Some(rest[offset].clone());
            self.seen_in_block = rest.len() as u64;
        }
        emitted
    }

    /// The representative of the current incomplete block, together with the
    /// number of elements it represents, without consuming it. Used for
    /// non-destructive mid-stream `Output`.
    pub fn peek(&self) -> Option<(&T, u64)> {
        self.current.as_ref().map(|v| (v, self.seen_in_block))
    }

    /// Close the current block early (end of stream). Returns the
    /// representative of the incomplete block and the number of elements it
    /// represents, or `None` if the block was empty.
    pub fn flush(&mut self) -> Option<(T, u64)> {
        let seen = self.seen_in_block;
        self.seen_in_block = 0;
        self.current.take().map(|item| (item, seen))
    }

    /// Reconstruct a sampler mid-block (snapshot restore): `pending` is the
    /// current block's representative and how many elements it has seen.
    ///
    /// # Panics
    /// Panics if `rate == 0` or the pending count is not below `rate`.
    pub fn with_pending(rate: u64, pending: Option<(T, u64)>) -> Self {
        // Draw accounting restarts at zero after a snapshot restore; the
        // counter describes this sampler instance, not the whole stream.
        let mut sampler = Self::new(rate);
        sampler.set_pending(pending);
        sampler
    }

    /// Replace the current block's state: `pending` is its representative
    /// and how many elements it has seen (`None`: no block is open). Used
    /// to resume a block sampled elsewhere — a snapshot, or a producer
    /// that sampled the stream ahead of its engine.
    ///
    /// # Panics
    /// Panics if the pending count is not below `rate` or is zero.
    pub fn set_pending(&mut self, pending: Option<(T, u64)>) {
        let (current, seen_in_block) = match pending {
            Some((repr, seen)) => {
                assert!(
                    seen >= 1 && seen < self.rate,
                    "pending count must lie in [1, rate)"
                );
                (Some(repr), seen)
            }
            None => (None, 0),
        };
        self.current = current;
        self.seen_in_block = seen_in_block;
    }

    /// Discard any partially accumulated block and change the block size.
    ///
    /// The MRL99 algorithm only changes the sampling rate on block
    /// boundaries aligned with buffer boundaries, so in practice the pending
    /// block is empty when this is called; the engine asserts as much.
    pub fn reset_with_rate(&mut self, rate: u64) {
        assert!(rate >= 1, "block sampling rate must be at least 1");
        self.rate = rate;
        self.seen_in_block = 0;
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn rate_one_is_identity() {
        let mut rng = rng_from_seed(7);
        let mut s = BlockSampler::new(1);
        for i in 0..100u32 {
            assert_eq!(s.offer(i, &mut rng), Some(i));
        }
        assert!(s.flush().is_none());
    }

    #[test]
    fn emits_one_per_block() {
        let mut rng = rng_from_seed(7);
        let mut s = BlockSampler::new(4);
        let mut out = Vec::new();
        for i in 0..17u32 {
            if let Some(v) = s.offer(i, &mut rng) {
                out.push(v);
            }
        }
        assert_eq!(out.len(), 4);
        // Representative of block j lies within that block.
        for (j, v) in out.iter().enumerate() {
            let lo = (j as u32) * 4;
            assert!((lo..lo + 4).contains(v), "repr {v} outside block {j}");
        }
        // One element pending in the trailing block.
        let (tail, seen) = s.flush().expect("trailing block has an element");
        assert_eq!(tail, 16);
        assert_eq!(seen, 1);
    }

    #[test]
    fn representative_is_uniform_within_block() {
        // Chi-square-style check: over many blocks of size 8, each offset
        // should win about 1/8 of the time.
        let mut rng = rng_from_seed(12345);
        let mut s = BlockSampler::new(8);
        let mut counts = [0u32; 8];
        let trials = 40_000u32;
        for i in 0..trials * 8 {
            if let Some(v) = s.offer(i, &mut rng) {
                counts[(v % 8) as usize] += 1;
            }
        }
        let expected = trials as f64 / 8.0;
        for (off, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "offset {off} frequency off by {dev:.3}");
        }
    }

    #[test]
    fn flush_of_partial_block_is_uniform_over_prefix() {
        let mut rng = rng_from_seed(99);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let mut s = BlockSampler::new(8);
            for i in 0..3u32 {
                assert!(s.offer(i, &mut rng).is_none());
            }
            let (v, seen) = s.flush().unwrap();
            assert_eq!(seen, 3);
            counts[v as usize] += 1;
        }
        let expected = 10_000.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.06, "prefix offset {i} frequency off by {dev:.3}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_rate_panics() {
        let _ = BlockSampler::<u32>::new(0);
    }

    #[test]
    fn slice_rate_one_is_identity_without_randomness() {
        let mut rng = rng_from_seed(7);
        let probe = rng.clone();
        let mut s = BlockSampler::new(1);
        let mut out = Vec::new();
        s.offer_slice(&(0..100u32).collect::<Vec<_>>(), &mut rng, &mut |v| {
            out.push(v)
        });
        assert_eq!(out, (0..100u32).collect::<Vec<_>>());
        assert_eq!(rng, probe, "rate 1 must not consume randomness");
        assert!(s.flush().is_none());
    }

    #[test]
    fn slice_emits_one_per_block_within_bounds() {
        let mut rng = rng_from_seed(3);
        let mut s = BlockSampler::new(4);
        let mut out = Vec::new();
        // Deliver 17 elements in ragged chunks: 3 + 9 + 5.
        let all: Vec<u32> = (0..17).collect();
        for chunk in [&all[0..3], &all[3..12], &all[12..17]] {
            s.offer_slice(chunk, &mut rng, &mut |v| out.push(v));
        }
        assert_eq!(out.len(), 4);
        for (j, v) in out.iter().enumerate() {
            let lo = (j as u32) * 4;
            assert!((lo..lo + 4).contains(v), "repr {v} outside block {j}");
        }
        let (tail, seen) = s.flush().expect("one element pending");
        assert_eq!(seen, 1);
        assert_eq!(tail, 16);
    }

    #[test]
    fn slice_whole_blocks_are_uniform() {
        // Same chi-square check as the per-element path, on the batched path.
        let mut rng = rng_from_seed(12345);
        let mut s = BlockSampler::new(8);
        let mut counts = [0u32; 8];
        let trials = 40_000u32;
        let data: Vec<u32> = (0..trials * 8).collect();
        for chunk in data.chunks(1024) {
            s.offer_slice(chunk, &mut rng, &mut |v| counts[(v % 8) as usize] += 1);
        }
        let expected = trials as f64 / 8.0;
        for (off, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "offset {off} frequency off by {dev:.3}");
        }
    }

    #[test]
    fn slice_straddled_blocks_are_uniform() {
        // Chunks of 3 against rate 8 force every block to straddle chunk
        // boundaries, exercising the reservoir-merge path.
        let mut rng = rng_from_seed(777);
        let mut counts = [0u32; 8];
        let trials = 30_000u32;
        let data: Vec<u32> = (0..trials * 8).collect();
        let mut s = BlockSampler::new(8);
        for chunk in data.chunks(3) {
            s.offer_slice(chunk, &mut rng, &mut |v| counts[(v % 8) as usize] += 1);
        }
        let expected = trials as f64 / 8.0;
        for (off, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "offset {off} frequency off by {dev:.3}");
        }
    }

    #[test]
    fn slice_partial_tail_is_uniform_over_prefix() {
        let mut rng = rng_from_seed(99);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let mut s = BlockSampler::new(8);
            s.offer_slice(&[0u32, 1, 2], &mut rng, &mut |_| {
                panic!("no block completes")
            });
            let (v, seen) = s.flush().unwrap();
            assert_eq!(seen, 3);
            counts[v as usize] += 1;
        }
        let expected = 10_000.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.06, "prefix offset {i} frequency off by {dev:.3}");
        }
    }

    #[test]
    fn slice_and_scalar_paths_interleave_consistently() {
        // Mixing offer and offer_slice must preserve block accounting: the
        // emitted count and pending size depend only on how many elements
        // arrived, never on the chunking.
        let mut rng = rng_from_seed(21);
        let mut s = BlockSampler::new(5);
        let mut emitted = 0usize;
        for i in 0..7u32 {
            if s.offer(i, &mut rng).is_some() {
                emitted += 1;
            }
        }
        emitted += s.offer_slice(&(7..23u32).collect::<Vec<_>>(), &mut rng, &mut |_| {});
        assert_eq!(emitted, 4); // 23 elements = 4 blocks of 5 + 3 pending
        assert_eq!(s.pending(), 3);
        let (v, seen) = s.flush().unwrap();
        assert_eq!(seen, 3);
        assert!((20..23).contains(&v), "pending repr {v} outside prefix");
    }

    #[test]
    fn draw_accounting_matches_randomness_consumption() {
        // Rate 1 consumes no randomness on either path.
        let mut rng = rng_from_seed(11);
        let mut s = BlockSampler::new(1);
        for i in 0..50u32 {
            s.offer(i, &mut rng);
        }
        s.offer_slice(&(0..50u32).collect::<Vec<_>>(), &mut rng, &mut |_| {});
        assert_eq!(s.draws(), 0);

        // Scalar path: one draw per element except each block's first.
        let mut s = BlockSampler::new(4);
        for i in 0..8u32 {
            s.offer(i, &mut rng);
        }
        assert_eq!(s.draws(), 6);

        // Batched path: one draw per whole block plus one for the partial
        // tail.
        let mut s = BlockSampler::new(4);
        s.offer_slice(&(0..10u32).collect::<Vec<_>>(), &mut rng, &mut |_| {});
        assert_eq!(s.draws(), 3);
    }

    #[test]
    fn publish_metrics_exports_draws() {
        use mrl_obs::{InMemoryRecorder, MetricsHandle};
        use std::sync::Arc;

        let mut rng = rng_from_seed(2);
        let mut s = BlockSampler::new(4);
        for i in 0..8u32 {
            s.offer(i, &mut rng);
        }
        let rec = Arc::new(InMemoryRecorder::new());
        s.publish_metrics(&MetricsHandle::new(rec.clone()));
        assert_eq!(rec.gauge_value(crate::metrics::BLOCK_DRAWS), Some(6.0));
    }

    #[test]
    fn slice_empty_chunk_is_a_noop() {
        let mut rng = rng_from_seed(1);
        let probe = rng.clone();
        let mut s = BlockSampler::<u32>::new(4);
        assert_eq!(
            s.offer_slice(&[], &mut rng, &mut |_| panic!("no emission")),
            0
        );
        assert_eq!(rng, probe);
        assert_eq!(s.pending(), 0);
    }
}
