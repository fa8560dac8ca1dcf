//! Radix sealing for fixed-width keys: the type-specialised sort that
//! closes the gap comparison sorting cannot.
//!
//! Every parked seal and every raw-collapse concatenation in the engine
//! funnels through one `sort`, and for uniformly random streams, whose
//! fills are all parked raw, that sort *is* the ingest hot path.
//! Comparison-based summaries carry a proven lower bound (Cormode &
//! Veselý 2019), but the
//! element types streamed in practice — integers, timestamps, floats —
//! have fixed-width keys, and an LSD radix sort over 8-bit digits touches
//! each element once per *live* byte column instead of once per
//! comparison level. This module provides:
//!
//! * [`FixedWidthKey`] — the order-preserving bit mapping (`u8`..`u64`,
//!   `i64` via sign-bit flip, [`OrderedF64`] via the standard sign-flip
//!   total-order mapping);
//! * [`sort_fixed`] — the LSD kernel: ping-pong scratch owned by the
//!   arena, per-digit histograms fused into the previous scatter pass,
//!   and constant byte columns skipped outright (a stream of values below
//!   2⁴⁰ costs five passes, not eight);
//! * [`try_sort_fixed`] — the dispatch shim the seal/collapse paths call:
//!   radix when the element type is fixed-width and the slice clears the
//!   measured crossover, `false` (caller falls back to `sort_unstable`)
//!   otherwise.
//!
//! The dispatch is a safe `dyn Any` downcast rather than specialisation
//! (stable Rust has none): the engine stays generic over `T: Ord`, and
//! the downcast resolves to a concrete key type — or to the comparison
//! fallback — at a cost of a few pointer compares per *sort call*, not
//! per element.

use std::any::Any;

use crate::types::OrderedF64;

/// An element type whose total order is realised by a fixed-width
/// unsigned key, making it radix-sortable.
///
/// The contract: `a < b ⇔ a.ordered_bits() < b.ordered_bits()` for all
/// `Ord`-distinct values, and only the low `BYTES` bytes of the key may
/// ever be non-constant across values (high bytes beyond `BYTES · 8`
/// bits must be zero). `Ord`-equal values may map to distinct keys (the
/// `OrderedF64` zeros do); the radix order is then one of the valid
/// unstable orders of the comparison sort.
pub trait FixedWidthKey: Ord + Copy + 'static {
    /// Number of low-order key bytes that can vary (1..=8).
    const BYTES: u32;
    /// The order-preserving key.
    fn ordered_bits(self) -> u64;
}

impl FixedWidthKey for u8 {
    const BYTES: u32 = 1;
    #[inline(always)]
    fn ordered_bits(self) -> u64 {
        self as u64
    }
}

impl FixedWidthKey for u16 {
    const BYTES: u32 = 2;
    #[inline(always)]
    fn ordered_bits(self) -> u64 {
        self as u64
    }
}

impl FixedWidthKey for u32 {
    const BYTES: u32 = 4;
    #[inline(always)]
    fn ordered_bits(self) -> u64 {
        self as u64
    }
}

impl FixedWidthKey for u64 {
    const BYTES: u32 = 8;
    #[inline(always)]
    fn ordered_bits(self) -> u64 {
        self
    }
}

impl FixedWidthKey for i64 {
    const BYTES: u32 = 8;
    #[inline(always)]
    fn ordered_bits(self) -> u64 {
        // Flipping the sign bit maps i64::MIN..=i64::MAX monotonically
        // onto 0..=u64::MAX.
        (self as u64) ^ (1 << 63)
    }
}

impl FixedWidthKey for OrderedF64 {
    const BYTES: u32 = 8;
    #[inline(always)]
    fn ordered_bits(self) -> u64 {
        // The standard IEEE-754 total-order mapping: positive floats get
        // their sign bit set (shifting them above every negative), and
        // negative floats are bitwise complemented (reversing their
        // magnitude order). NaN is rejected at OrderedF64 construction,
        // so the one non-monotone region of the mapping is unreachable.
        // -0.0 maps strictly below +0.0 — a valid unstable order for two
        // Ord-equal values.
        let b = self.get().to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1 << 63)
        }
    }
}

/// Reusable storage for [`sort_fixed`]: the ping-pong element buffer.
/// (The per-digit histograms are 256-entry stack arrays.) Capacity is
/// retained across calls, so a warm scratch makes the sort
/// allocation-free; it lives in the engine's [`crate::ScratchArena`].
#[derive(Clone, Debug)]
pub struct RadixScratch<T> {
    buf: Vec<T>,
}

// Manual impl: the derive would demand `T: Default`, which an empty
// vector does not need.
impl<T> Default for RadixScratch<T> {
    fn default() -> Self {
        Self { buf: Vec::new() }
    }
}

/// Minimum slice length at which the radix kernel beats `sort_unstable`
/// (crossover measurements in DESIGN.md §3.13). The window is narrower
/// than the asymptotic O(n) vs O(n log n) story suggests: below ~1K
/// elements the fixed per-pass overhead (histogram zeroing, the priming
/// pass) loses to pdqsort's branchless partitioning, and the gap only
/// closes once the log-factor passes pdqsort pays catch up. Measured on
/// the CI host (single core, 40-bit uniform u64): n=256 radix ≈ 1.4×
/// slower, n=1280 radix ≈ 1.1–1.2× faster, n=4096 ≈ tie. A single-buffer
/// seal (`k = 256` in the shipped configuration) therefore stays on
/// `sort_unstable`; the equal-weight concat collapse (`c·k ≈ 1280`) and
/// larger mixed collapses take the radix path.
///
/// The MSD bucket path (below) moved the lower crossover back down:
/// measured on the CI host, one bucket scatter plus insertion repair
/// beats `sort_unstable` from n≈64 (n=256: ~5 vs ~9 ns/elem) up to
/// `BUCKET_MAX_LEN` (2048), above which the LSD passes take over.
pub const RADIX_MIN_LEN: usize = 64;

/// Maximum slice length routed to the radix kernel. Above ~8K elements
/// the byte-wise scatter's random writes fall out of L1/L2 and
/// `sort_unstable`'s sequential partitioning wins again (measured: at
/// n=16384 radix is ~15–20% slower). Engine collapse slices are at most
/// a few multiples of `b·k`, so shipped configurations sit inside the
/// window; the cap only declines pathological ad-hoc sizes.
pub const RADIX_MAX_LEN: usize = 8192;

/// Longest slice the single-scatter MSD bucket path accepts. Up to here
/// the expected bucket occupancy (n/256 ≤ 8) keeps the insertion repair
/// near-linear and the whole sort at one scatter pass; beyond it the
/// multi-pass LSD path wins (measured crossover ≈ 2–4K: bucket 8.4 vs
/// LSD ~11 ns/elem at n=2048, but 16.4 vs ~12 at n=4096).
const BUCKET_MAX_LEN: usize = 2048;

/// Skew guard for the bucket path: if any single bucket would receive
/// more than this many keys, the insertion repair's inversion bound
/// (`Σ cᵢ²/2 ≤ max·n/2`) is no longer cheap, so the attempt is abandoned
/// in favour of the LSD passes (which cost the same on any
/// distribution). Uniform streams sit far below the guard — at n=2048
/// the mean occupancy is 8 — so the abandoned histogram pass is only
/// paid on genuinely skewed data.
const BUCKET_MAX_COUNT: u32 = 64;

/// Sort `data` by its fixed-width key.
///
/// One priming pass computes the bitwise OR and AND of every key, which
/// identifies the bit columns that actually vary. Slices up to
/// `BUCKET_MAX_LEN` (2048) then try the MSD bucket path: one scatter by
/// the 8-bit digit anchored at the highest varying bit (everything above
/// it is constant, so that digit alone orders the buckets), followed by an
/// insertion repair whose cost is exactly the surviving within-bucket
/// inversions — near-linear when keys spread across the buckets, which
/// the `BUCKET_MAX_COUNT` guard (64 keys per bucket) enforces before
/// committing.
///
/// Longer or guard-rejected slices fall back to LSD radix over 8-bit
/// digits: each varying byte column costs one counting-scatter pass
/// between `data` and the scratch buffer, with the next column's
/// histogram computed during the current scatter (so a column costs one
/// pass over the data, not two). Constant columns are skipped outright.
///
/// Output order: non-decreasing by `ordered_bits`, which refines the
/// `Ord` order (see [`FixedWidthKey`]) — a valid unstable sort.
// panic-free: every array index is structurally bounded — live ≤ 8
// because it increments once per byte column (BYTES ≤ 8), shifts[pass]
// reads pass < live ≤ 8, and histogram indices come from byte_of, which
// masks to 8 bits (< 256).
pub fn sort_fixed<K: FixedWidthKey>(data: &mut Vec<K>, scratch: &mut RadixScratch<K>) {
    let n = data.len();
    if n < 2 {
        return;
    }
    // Priming pass: which byte columns vary? A column is constant iff
    // every key agrees on it, i.e. the OR and AND accumulators match
    // there — so the varying columns are exactly the set bits of
    // `or ^ and`.
    let mut or_acc = 0u64;
    let mut and_acc = !0u64;
    for &x in data.iter() {
        let bits = x.ordered_bits();
        or_acc |= bits;
        and_acc &= bits;
    }
    let varying = or_acc ^ and_acc;
    let mut shifts = [0u32; 8];
    let mut live = 0usize;
    for d in 0..K::BYTES {
        let shift = d * 8;
        if (varying >> shift) & 0xFF != 0 {
            shifts[live] = shift;
            live += 1;
        }
    }
    if live == 0 {
        // All keys identical ⇒ all elements Ord-equal ⇒ already sorted.
        return;
    }
    // Ping-pong buffer: resized (never pushed) so steady-state sorts
    // reuse the retained capacity. The fill value is arbitrary — every
    // slot is overwritten by the first scatter.
    if scratch.buf.len() != n {
        let Some(&first) = data.first() else { return };
        scratch.buf.clear();
        scratch.buf.resize(n, first);
    }
    if n <= BUCKET_MAX_LEN && bucket_sort(data, &mut scratch.buf, varying) {
        return;
    }
    // Histogram of the first live column (the only separate counting
    // pass — later columns are counted during the preceding scatter).
    let mut cur_hist = [0u32; 256];
    let s0 = shifts[0];
    for &x in data.iter() {
        cur_hist[byte_of(x, s0)] += 1;
    }
    let mut from_data = true;
    for pass in 0..live {
        let shift = shifts[pass];
        let next_shift = if pass + 1 < live {
            shifts[pass + 1]
        } else {
            shift
        };
        let mut next_hist = [0u32; 256];
        // Exclusive prefix sums: histogram → starting offsets.
        let mut run = 0u32;
        for slot in cur_hist.iter_mut() {
            let c = *slot;
            *slot = run;
            run += c;
        }
        if from_data {
            scatter_count(
                data,
                &mut scratch.buf,
                &mut cur_hist,
                shift,
                next_shift,
                &mut next_hist,
            );
        } else {
            scatter_count(
                &scratch.buf,
                data,
                &mut cur_hist,
                shift,
                next_shift,
                &mut next_hist,
            );
        }
        from_data = !from_data;
        cur_hist = next_hist;
    }
    if !from_data {
        // Odd number of passes: the sorted order lives in the scratch
        // buffer; an O(1) pointer swap adopts it (the capacities trade
        // places, which is fine — both are seal-sized and reused).
        std::mem::swap(data, &mut scratch.buf);
    }
}

#[inline(always)]
fn byte_of<K: FixedWidthKey>(x: K, shift: u32) -> usize {
    ((x.ordered_bits() >> shift) & 0xFF) as usize
}

/// The MSD bucket path: scatter by the 8-bit digit whose MSB is the
/// highest varying key bit, then repair the surviving within-bucket
/// inversions with one insertion pass. Returns `false` without touching
/// `data` when the histogram shows a bucket over [`BUCKET_MAX_COUNT`]
/// (skewed keys — the repair bound would not be cheap); the caller then
/// owes the LSD passes. `buf` must already hold `n` slots.
///
/// Correctness does not depend on the digit choice: the scatter orders
/// buckets by a field that includes the topmost varying bit (all bits
/// above it are constant across keys), and the insertion pass is a full
/// sort of the scattered sequence — the digit only determines how few
/// inversions survive for it to repair.
// panic-free: histogram/cursor indices are masked to 8 bits (< 256);
// scatter cursors stay below n exactly as in scatter_count; the repair
// indexes j - 1 < j ≤ i < n with j > 0 guarded by the loop condition.
fn bucket_sort<K: FixedWidthKey>(data: &mut [K], buf: &mut [K], varying: u64) -> bool {
    let n = data.len();
    // varying != 0 (the caller handled the all-constant case), so the
    // subtraction cannot wrap; saturating keeps the expression total.
    let top = 63u32.saturating_sub(varying.leading_zeros());
    let shift = top.saturating_sub(7);
    let mut hist = [0u32; 256];
    for &x in data.iter() {
        hist[byte_of(x, shift)] += 1;
    }
    // Exclusive prefix sums + skew guard in one sweep over the 256 slots.
    let mut run = 0u32;
    let mut max = 0u32;
    for slot in hist.iter_mut() {
        let c = *slot;
        max = max.max(c);
        *slot = run;
        run += c;
    }
    if max > BUCKET_MAX_COUNT {
        return false;
    }
    for &x in data.iter() {
        let b = byte_of(x, shift);
        let p = hist[b] as usize;
        buf[p] = x;
        hist[b] = p as u32 + 1;
    }
    // Insertion repair: cost = number of within-bucket inversions,
    // bounded by max·n/2 via the guard and ~n/2 in the uniform case.
    for i in 1..n {
        let x = buf[i];
        let xb = x.ordered_bits();
        let mut j = i;
        while j > 0 && buf[j - 1].ordered_bits() > xb {
            buf[j] = buf[j - 1];
            j -= 1;
        }
        buf[j] = x;
    }
    data.copy_from_slice(buf);
    true
}

/// One scatter pass: distribute `src` into `dst` by the byte at `shift`
/// using `offs` (exclusive prefix sums, mutated into per-bucket write
/// cursors), while tallying the byte at `next_shift` into `next_hist`
/// for the following pass.
// panic-free: bucket indices are masked to 8 bits (< 256 = the array
// length), and every write cursor stays below src.len() == dst.len()
// because the offsets are exclusive prefix sums of a histogram of src —
// bucket b's cursor is incremented exactly hist[b] times starting at
// sum(hist[..b]).
fn scatter_count<K: FixedWidthKey>(
    src: &[K],
    dst: &mut [K],
    offs: &mut [u32; 256],
    shift: u32,
    next_shift: u32,
    next_hist: &mut [u32; 256],
) {
    for &x in src {
        let bits = x.ordered_bits();
        let b = ((bits >> shift) & 0xFF) as usize;
        let p = offs[b] as usize;
        dst[p] = x;
        offs[b] = p as u32 + 1;
        next_hist[((bits >> next_shift) & 0xFF) as usize] += 1;
    }
}

/// Radix-sort `data` if `T` is a fixed-width key type and the slice
/// length falls inside the measured win window
/// `[RADIX_MIN_LEN, RADIX_MAX_LEN]`.
/// Returns `true` when the data was sorted; on `false` the caller owes
/// the comparison fallback (`sort_unstable`).
///
/// Dispatch is a safe `dyn Any` downcast per concrete key type — no
/// unsafe, no specialisation, a handful of `TypeId` compares per call.
// The `&mut Vec` is load-bearing: `dyn Any` downcasting is keyed on the
// concrete `Vec<$ty>` type, and a slice's TypeId would never match.
#[allow(clippy::ptr_arg)]
pub fn try_sort_fixed<T: Ord + 'static>(data: &mut Vec<T>, scratch: &mut RadixScratch<T>) -> bool {
    if data.len() < RADIX_MIN_LEN || data.len() > RADIX_MAX_LEN {
        return false;
    }
    macro_rules! try_key {
        ($ty:ty) => {
            if let Some(d) = (data as &mut dyn Any).downcast_mut::<Vec<$ty>>() {
                // T = $ty here, so the scratch downcast always succeeds;
                // written as a conditional (not an expect) to keep the
                // dispatch panic-free by construction.
                if let Some(s) = (scratch as &mut dyn Any).downcast_mut::<RadixScratch<$ty>>() {
                    sort_fixed(d, s);
                    return true;
                }
                return false;
            }
        };
    }
    try_key!(u64);
    try_key!(u32);
    try_key!(i64);
    try_key!(OrderedF64);
    try_key!(u16);
    try_key!(u8);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn radixed<K: FixedWidthKey>(mut v: Vec<K>) -> Vec<K> {
        let mut scratch = RadixScratch::default();
        sort_fixed(&mut v, &mut scratch);
        v
    }

    #[test]
    fn matches_sort_unstable_on_u64_shapes() {
        let shapes: Vec<Vec<u64>> = vec![
            Vec::new(),
            vec![5],
            vec![3, 3, 3, 3],
            (0..1000).rev().collect(),
            (0..1000).map(|i| (i * 2654435761) % 997).collect(),
            (0..1000).map(|i| i % 7).collect(),
            (0..1000)
                .map(|i| if i % 2 == 0 { i } else { 1000 - i })
                .collect(),
            vec![u64::MAX, 0, u64::MAX, 1, u64::MAX - 1],
            (0..513).map(|i| (i * 48271) % (1 << 40)).collect(),
        ];
        for v in shapes {
            let mut expect = v.clone();
            expect.sort_unstable();
            assert_eq!(radixed(v), expect);
        }
    }

    #[test]
    fn matches_sort_unstable_on_narrow_and_signed_types() {
        let bytes: Vec<u8> = (0..2000u32).map(|i| (i * 167 % 251) as u8).collect();
        let mut expect = bytes.clone();
        expect.sort_unstable();
        assert_eq!(radixed(bytes), expect);

        let shorts: Vec<u16> = (0..2000u32).map(|i| (i * 40503 % 65521) as u16).collect();
        let mut expect = shorts.clone();
        expect.sort_unstable();
        assert_eq!(radixed(shorts), expect);

        let words: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut expect = words.clone();
        expect.sort_unstable();
        assert_eq!(radixed(words), expect);

        let signed: Vec<i64> = (0..2000i64)
            .map(|i| (i - 1000).wrapping_mul(2654435761))
            .collect();
        let mut expect = signed.clone();
        expect.sort_unstable();
        assert_eq!(radixed(signed), expect);
    }

    #[test]
    fn float_total_order_edges_sort_by_total_cmp() {
        let v: Vec<OrderedF64> = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest positive subnormal
            -5e-324,
            f64::MAX,
            f64::MIN,
        ]
        .into_iter()
        .map(OrderedF64::from_f64)
        .cycle()
        .take(300)
        .collect();
        let mut expect: Vec<f64> = v.iter().map(|x| x.get()).collect();
        expect.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<f64> = radixed(v).into_iter().map(f64::from).collect();
        // Bitwise identity against the total-order reference (radix
        // places -0.0 before +0.0, exactly like total_cmp).
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ordered_bits_is_monotone() {
        let signed: Vec<i64> = vec![i64::MIN, -2, -1, 0, 1, 2, i64::MAX];
        for w in signed.windows(2) {
            assert!(w[0].ordered_bits() < w[1].ordered_bits());
        }
        let floats: Vec<OrderedF64> = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ]
        .into_iter()
        .map(OrderedF64::from_f64)
        .collect();
        for w in floats.windows(2) {
            // Strict even across the Ord-equal zeros: the bit mapping
            // refines the order.
            assert!(w[0].ordered_bits() < w[1].ordered_bits());
        }
    }

    #[test]
    fn dispatch_sorts_fixed_width_and_declines_otherwise() {
        let mut ints: Vec<u64> = (0..RADIX_MIN_LEN as u64).rev().collect();
        let mut scratch = RadixScratch::default();
        assert!(try_sort_fixed(&mut ints, &mut scratch));
        assert!(ints.is_sorted());

        // Below the crossover: declined, caller falls back.
        let mut small: Vec<u64> = vec![3, 1, 2];
        assert!(!try_sort_fixed(&mut small, &mut scratch));
        assert_eq!(small, vec![3, 1, 2]);

        // Non-fixed-width element type: declined.
        let mut strings: Vec<String> = vec!["b".into(), "a".into()];
        let mut s_scratch = RadixScratch::default();
        assert!(!try_sort_fixed(&mut strings, &mut s_scratch));
        assert_eq!(strings, vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn constant_columns_are_skipped_without_breaking_order() {
        // Only the third byte varies: exactly one live pass.
        let v: Vec<u64> = (0..500u64).map(|i| 0xAA00_0000 | ((i % 7) << 16)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        assert_eq!(radixed(v), expect);
    }

    #[test]
    fn scratch_is_reused_across_calls_of_different_lengths() {
        let mut scratch = RadixScratch::default();
        for n in [100usize, 700, 300, 700] {
            let mut v: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 1013).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            sort_fixed(&mut v, &mut scratch);
            assert_eq!(v, expect);
        }
    }
}
