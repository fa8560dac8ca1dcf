//! The coordinator ("Processor P₀") of §6.

use std::cell::RefCell;

use mrl_framework::{
    collapse_targets, output_position, select_weighted, Buffer, BufferState, QuerySpine,
    WeightedSource,
};
use mrl_sampling::{rng_from_seed, BlockSampler, SketchRng};

/// Merges buffers shipped by workers and answers quantile queries over the
/// aggregate of all their inputs.
///
/// Maintains `b` buffer slots of `k` elements plus the staging buffer `B₀`
/// for incoming partial buffers. `add_buffer` accepts each worker's final
/// full/partial buffers in any order; `query` may be called at any time.
#[derive(Debug)]
pub struct Coordinator<T> {
    k: usize,
    b: usize,
    /// Full buffers (weight, level, sorted data).
    full: Vec<(Vec<T>, u64, u32)>,
    /// Staging buffer B₀ for partial content: (unsorted data, weight).
    staging: Option<(Vec<T>, u64)>,
    collapse_high_phase: bool,
    collapses: u64,
    total_weight_shipped: u64,
    rng: SketchRng,
    /// Ingest epoch: bumped on every shipment so queries know when the
    /// cached spine below is stale (same scheme as the engine's).
    epoch: u64,
    /// Epoch-cached merged view of `full` + `staging`: the first query
    /// after a shipment materialises it once; repeated `query_many` /
    /// `rank_of` calls are then binary searches until the next shipment.
    spine: RefCell<QuerySpine<T>>,
}

impl<T: Ord + Clone + 'static> Coordinator<T> {
    /// Create a coordinator with `b ≥ 2` slots of `k` elements.
    ///
    /// # Panics
    /// Panics on `b < 2` or `k == 0`.
    pub fn new(b: usize, k: usize, seed: u64) -> Self {
        assert!(b >= 2, "coordinator needs at least two buffers (§6)");
        assert!(k >= 1, "buffer size must be positive");
        Self {
            k,
            b,
            full: Vec::new(),
            staging: None,
            collapse_high_phase: false,
            collapses: 0,
            total_weight_shipped: 0,
            rng: rng_from_seed(seed),
            epoch: 0,
            spine: RefCell::new(QuerySpine::default()),
        }
    }

    /// Assemble a coordinator from worker shipments (`(n, buffers)` pairs,
    /// as produced by `UnknownN::into_shipment`), returning it together
    /// with the summed element count. Full buffers are staged first and
    /// partials heaviest-first, so every §6 shrink ratio is integral even
    /// in mixed-rate runs (weights are powers of two) regardless of the
    /// order the shipments arrived in.
    pub fn from_shipments<I>(b: usize, k: usize, seed: u64, shipments: I) -> (Self, u64)
    where
        I: IntoIterator<Item = (u64, Vec<Buffer<T>>)>,
    {
        let mut coordinator = Self::new(b, k, seed);
        let mut total_n = 0u64;
        let mut partials: Vec<Buffer<T>> = Vec::new();
        for (n, buffers) in shipments {
            total_n += n;
            for buf in buffers {
                if buf.state() == BufferState::Full {
                    coordinator.add_buffer(buf);
                } else {
                    partials.push(buf);
                }
            }
        }
        partials.sort_by_key(|b| std::cmp::Reverse(b.weight()));
        for buf in partials {
            coordinator.add_buffer(buf);
        }
        (coordinator, total_n)
    }

    /// Accept one shipped buffer (full or partial) from a worker.
    ///
    /// # Panics
    /// Panics if the buffer is empty, oversized, or `Empty`-state.
    pub fn add_buffer(&mut self, buffer: Buffer<T>) {
        assert_ne!(
            buffer.state(),
            BufferState::Empty,
            "cannot ship empty buffers"
        );
        assert!(
            buffer.len() <= self.k,
            "shipped buffer exceeds coordinator k"
        );
        self.epoch = self.epoch.wrapping_add(1);
        self.total_weight_shipped += buffer.mass();
        // The entry assert rejected `Empty`, so a non-`Full` buffer here
        // can only be `Partial`.
        if buffer.state() == BufferState::Full {
            let data = buffer.data().to_vec();
            let w = buffer.weight();
            self.push_full(data, w);
        } else {
            self.add_partial(buffer.data().to_vec(), buffer.weight());
        }
    }

    /// Accept a full buffer's raw content (sorted internally). Shipped
    /// buffers and spilled staging runs are usually sorted already; the
    /// `O(k)` check skips the `O(k log k)` sort then.
    fn push_full(&mut self, mut data: Vec<T>, weight: u64) {
        if !data.is_sorted() {
            data.sort_unstable();
        }
        if self.full.len() >= self.b.saturating_sub(1) {
            // Keep one slot's worth of headroom for B₀ conversions; collapse
            // the lowest level like the single-stream policy.
            self.collapse_lowest();
        }
        // Incoming buffers are assigned level 0 (§6); collapse outputs keep
        // their own levels.
        self.full.push((data, weight, 0));
    }

    /// Fold a partial buffer into the staging buffer `B₀`, equalising
    /// weights by shrink-by-sampling (§6).
    fn add_partial(&mut self, data: Vec<T>, weight: u64) {
        assert!(weight > 0, "partial buffer weight must be positive");
        let (mut incoming, mut w_in) = (data, weight);
        let (mut staged, w0) = match self.staging.take() {
            None => {
                self.staging = Some((incoming, w_in));
                self.spill_staging_if_full();
                return;
            }
            Some(s) => s,
        };
        let mut w_eq = w0;
        if w_in != w_eq {
            // Shrink the lighter buffer at the integer ratio of weights.
            if w_in < w_eq {
                let ratio = exact_ratio(w_eq, w_in);
                incoming = shrink(incoming, ratio, &mut self.rng);
                w_in = w_eq;
            } else {
                let ratio = exact_ratio(w_in, w_eq);
                staged = shrink(staged, ratio, &mut self.rng);
                w_eq = w_in;
            }
        }
        debug_assert_eq!(w_in, w_eq);
        // Copy as many incoming elements as fit; spill B₀ to the full list
        // when it fills (§6).
        for item in incoming {
            staged.push(item);
            if staged.len() == self.k {
                let spill = std::mem::take(&mut staged);
                self.push_full(spill, w_eq);
            }
        }
        if staged.is_empty() {
            self.staging = None;
        } else {
            self.staging = Some((staged, w_eq));
        }
    }

    fn spill_staging_if_full(&mut self) {
        if let Some((staged, w)) = self.staging.take() {
            if staged.len() >= self.k {
                self.push_full(staged, w);
            } else {
                self.staging = Some((staged, w));
            }
        }
    }

    /// Collapse all full buffers at the lowest occupied level (promoting a
    /// lone lowest buffer, exactly like the single-stream policy).
    // panic-free: the len < 2 early return guarantees both min() calls see
    // a candidate (a lone lowest buffer implies a second, higher level),
    // and every index in `at` came from enumerate() over self.full.
    fn collapse_lowest(&mut self) {
        if self.full.len() < 2 {
            return;
        }
        let lowest = self
            .full
            .iter()
            .map(|&(_, _, l)| l)
            .min()
            .expect("nonempty");
        let mut at: Vec<usize> = self
            .full
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, l))| l == lowest)
            .map(|(i, _)| i)
            .collect();
        let mut level = lowest;
        if at.len() == 1 {
            let next = self
                .full
                .iter()
                .map(|&(_, _, l)| l)
                .filter(|&l| l > lowest)
                .min()
                .expect("two or more buffers exist");
            self.full[at[0]].2 = next;
            level = next;
            at = self
                .full
                .iter()
                .enumerate()
                .filter(|(_, &(_, _, l))| l == next)
                .map(|(i, _)| i)
                .collect();
        }
        let w: u64 = at.iter().map(|&i| self.full[i].1).sum();
        let merged = {
            let sources: Vec<WeightedSource<'_, T>> = at
                .iter()
                .map(|&i| WeightedSource::new(&self.full[i].0, self.full[i].1))
                .collect();
            let high = if w.is_multiple_of(2) {
                let phase = self.collapse_high_phase;
                self.collapse_high_phase = !self.collapse_high_phase;
                phase
            } else {
                false
            };
            let targets = collapse_targets(self.k, w, high);
            select_weighted(&sources, &targets)
        };
        // Remove collapsed buffers (descending index), push the output.
        at.sort_unstable_by(|a, b| b.cmp(a));
        for i in at {
            self.full.swap_remove(i);
        }
        self.full.push((merged, w, level + 1));
        self.collapses += 1;
    }

    /// The φ-quantile of the aggregate of everything shipped so far.
    /// `None` before any buffer arrives.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.query_many(&[phi]).map(|mut v| v.remove(0))
    }

    /// Several quantiles over the epoch-cached spine, in caller order.
    ///
    /// The first query after a shipment merges `full` + `staging` into the
    /// spine once (replacing the old per-call multi-source merge, which
    /// also re-sorted a clone of the staging buffer every call); every
    /// later query until the next shipment is one binary search per φ.
    pub fn query_many(&self, phis: &[f64]) -> Option<Vec<T>> {
        self.with_current_spine(|spine| {
            let s = spine.total();
            if s == 0 {
                return None;
            }
            let mut out = Vec::with_capacity(phis.len());
            for &phi in phis {
                out.push(spine.lookup(output_position(phi, s))?.clone());
            }
            Some(out)
        })
    }

    /// Approximate selectivities of `x < v` / `x <= v` over the aggregate
    /// (fractions of the total mass). `None` before any buffer arrives.
    /// Served from the same epoch-cached spine as [`Coordinator::query_many`].
    pub fn rank_of(&self, value: &T) -> Option<(f64, f64)> {
        self.with_current_spine(|spine| {
            let s = spine.total();
            if s == 0 {
                return None;
            }
            let (below, at_most) = spine.rank(value);
            Some((below as f64 / s as f64, at_most as f64 / s as f64))
        })
    }

    /// Run `f` against the spine, refreshing it first if a shipment has
    /// arrived since it was last materialised. The engine's spine builder:
    /// `full` is the sealed part, and `staging` the tail at its weight.
    /// Every shipment can change `full`, so the shipment epoch doubles as
    /// the buffer generation.
    fn with_current_spine<U>(&self, f: impl FnOnce(&QuerySpine<T>) -> U) -> U {
        let mut spine = self.spine.borrow_mut();
        if !spine.is_current(self.epoch) {
            let (staged, staged_weight): (&[T], u64) = match &self.staging {
                Some((staged, w)) => (staged, *w),
                None => (&[], 0),
            };
            let full = self.full.iter().map(|(data, w, _)| (data.as_slice(), *w));
            spine.refresh(self.epoch, self.epoch, full, staged, staged_weight, None);
        }
        f(&spine)
    }

    /// Total weighted mass currently represented.
    pub fn mass(&self) -> u64 {
        let mut m: u64 = self.full.iter().map(|(d, w, _)| d.len() as u64 * w).sum();
        if let Some((staged, w)) = &self.staging {
            m += staged.len() as u64 * w;
        }
        m
    }

    /// Total weighted mass shipped in (mass may differ after shrinks:
    /// shrink-by-sampling preserves weight·count only up to the final
    /// incomplete block).
    pub fn shipped_mass(&self) -> u64 {
        self.total_weight_shipped
    }

    /// Collapses performed at the coordinator.
    pub fn collapses(&self) -> u64 {
        self.collapses
    }

    /// Memory bound in elements: `b·k` plus the staging buffer.
    pub fn memory_bound_elements(&self) -> usize {
        (self.b + 1) * self.k
    }

    /// Tear down the coordinator into shippable buffers: its full buffers
    /// (weights retained) plus at most one partial from the staging area.
    /// Used by hierarchical merging (§6's processor groups) to forward a
    /// group's state to a higher-level coordinator.
    pub fn into_buffers(self) -> Vec<Buffer<T>> {
        let k = self.k;
        let mut out = Vec::with_capacity(self.full.len() + 1);
        for (data, weight, level) in self.full {
            // Full slots hold sorted data by construction (push_full sorts
            // on entry; collapse output comes out of the selection sorted).
            out.push(Buffer::from_sorted(data, weight, level, k));
        }
        if let Some((mut staged, weight)) = self.staging {
            if !staged.is_empty() {
                staged.sort_unstable();
                out.push(Buffer::from_sorted(staged, weight, 0, k));
            }
        }
        out
    }
}

/// Exact integer ratio `big / small`, asserting divisibility — worker
/// partial-buffer weights are powers of two (the final sampling rate), so
/// the §6 shrink ratio is always integral.
fn exact_ratio(big: u64, small: u64) -> u64 {
    assert!(big >= small && small > 0);
    assert_eq!(
        big % small,
        0,
        "shrink ratio must be integral (weights {big}/{small})"
    );
    big / small
}

/// Keep one uniformly random element from each consecutive block of
/// `ratio` elements (the §6 shrink).
fn shrink<T>(data: Vec<T>, ratio: u64, rng: &mut SketchRng) -> Vec<T> {
    if ratio == 1 {
        return data;
    }
    let mut sampler = BlockSampler::new(ratio);
    let mut out = Vec::with_capacity(data.len() / ratio as usize + 1);
    for item in data {
        if let Some(repr) = sampler.offer(item, rng) {
            out.push(repr);
        }
    }
    if let Some((tail, _)) = sampler.flush() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_buffer(data: Vec<u64>, weight: u64, k: usize) -> Buffer<u64> {
        let mut b = Buffer::empty(k);
        b.populate(data, weight, 0, k);
        b
    }

    #[test]
    fn single_full_buffer_roundtrips() {
        let mut c = Coordinator::<u64>::new(3, 4, 1);
        c.add_buffer(full_buffer(vec![1, 2, 3, 4], 2, 4));
        assert_eq!(c.mass(), 8);
        assert_eq!(c.query(0.5), Some(2));
        assert_eq!(c.query(1.0), Some(4));
    }

    #[test]
    fn partial_buffers_with_equal_weights_concatenate() {
        let mut c = Coordinator::<u64>::new(3, 4, 2);
        let mut p1 = Buffer::empty(4);
        p1.populate(vec![10, 20], 2, 0, 4);
        let mut p2 = Buffer::empty(4);
        p2.populate(vec![30], 2, 0, 4);
        c.add_buffer(p1);
        c.add_buffer(p2);
        assert_eq!(c.mass(), 6);
        assert_eq!(c.query(0.0), Some(10));
        assert_eq!(c.query(1.0), Some(30));
    }

    #[test]
    fn partial_spills_into_full_when_k_reached() {
        let mut c = Coordinator::<u64>::new(3, 2, 3);
        let mut p1 = Buffer::empty(2);
        p1.populate(vec![5], 1, 0, 2);
        let mut p2 = Buffer::empty(2);
        p2.populate(vec![7], 1, 0, 2);
        c.add_buffer(p1);
        c.add_buffer(p2); // staging reaches k=2 -> spills to full list
        assert_eq!(c.mass(), 2);
        assert_eq!(c.query(0.5), Some(5));
        assert_eq!(c.query(1.0), Some(7));
    }

    #[test]
    fn weight_equalisation_shrinks_the_lighter_buffer() {
        // W_in = 8, W_0 = 2: the staged buffer shrinks by 4 (the paper's
        // worked example).
        let mut c = Coordinator::<u64>::new(3, 16, 4);
        let mut p1 = Buffer::empty(16);
        p1.populate((0..8u64).collect(), 2, 0, 16);
        c.add_buffer(p1);
        let mut p2 = Buffer::empty(16);
        p2.populate(vec![100, 200], 8, 0, 16);
        c.add_buffer(p2);
        // Staged mass: 8 elems @2 shrunk to 2 elems @8 = 16, plus 2 @8 = 16.
        assert_eq!(c.mass(), 32);
        let q = c.query(1.0).unwrap();
        assert_eq!(q, 200);
    }

    #[test]
    fn many_full_buffers_trigger_collapse_and_stay_accurate() {
        let k = 64usize;
        let mut c = Coordinator::<u64>::new(4, k, 5);
        // 12 workers each ship one full buffer covering a slice of 0..768k.
        for wkr in 0..12u64 {
            let data: Vec<u64> = (0..k as u64).map(|i| wkr * 64 + i).collect();
            c.add_buffer(full_buffer(data, 1, k));
        }
        assert!(c.collapses() > 0);
        let med = c.query(0.5).unwrap() as f64;
        let n = 12.0 * 64.0;
        assert!((med - n / 2.0).abs() <= 0.15 * n, "median {med} of {n}");
    }

    #[test]
    #[should_panic(expected = "integral")]
    fn non_integral_shrink_ratio_panics() {
        let mut c = Coordinator::<u64>::new(3, 8, 6);
        let mut p1 = Buffer::empty(8);
        p1.populate(vec![1, 2, 3], 3, 0, 8);
        c.add_buffer(p1);
        let mut p2 = Buffer::empty(8);
        p2.populate(vec![4, 5], 2, 0, 8);
        c.add_buffer(p2);
    }

    #[test]
    fn empty_coordinator_returns_none() {
        let c = Coordinator::<u64>::new(2, 4, 7);
        assert_eq!(c.query(0.5), None);
        assert_eq!(c.mass(), 0);
        assert_eq!(c.rank_of(&5), None);
    }

    #[test]
    fn rank_of_over_merged_buffers() {
        let mut c = Coordinator::<u64>::new(3, 4, 8);
        c.add_buffer(full_buffer(vec![10, 20, 30, 40], 2, 4));
        c.add_buffer(full_buffer(vec![5, 15, 25, 35], 1, 4));
        // Mass 12; elements <= 20: {10,20}@2 + {5,15}@1 = 6.
        let (below, at_most) = c.rank_of(&20).unwrap();
        assert!((at_most - 6.0 / 12.0).abs() < 1e-12);
        assert!((below - 4.0 / 12.0).abs() < 1e-12);
    }
}
