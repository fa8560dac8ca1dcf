//! Branchless merge/selection kernels for the collapse hot path.
//!
//! The classic two-pointer merge and the weighted-selection walk both spend
//! most of their time on one unpredictable branch per step: *which source's
//! head merges next*. On uniformly random data that branch is a coin flip,
//! and each mispredict costs more than the comparison itself — in situ the
//! walk runs ~2.5× slower than microbenchmarks (which quietly train the
//! predictor by replaying the same arrays) suggest. The kernels here
//! restate each step so the data-dependent choice becomes a conditional
//! move feeding an unconditional store:
//!
//! * [`merge_two`] — stable branchless merge, 4-wide unrolled main loop;
//! * [`select_two_weighted`] — fused merge + weighted selection over two
//!   sources, emitting via unconditional overwrite (`out[ti] = v; ti +=
//!   hit`) instead of a taken-or-not push branch.
//!
//! Every kernel has a scalar reference twin (`*_scalar`) whose output is
//! bitwise identical; the equivalence proptests call both directly so a
//! kernel regression shows up as a diff against its reference. `std::simd`
//! remains nightly-only, so portable chunking is done with fixed-width
//! manual unrolling, which the compiler autovectorises where profitable.

/// Width of the unrolled main loops. Eight merge steps touch at most
/// 8 × 8 bytes per source for primitive elements — one cache line — so
/// wider unrolling stops paying while narrower leaves bounds checks in
/// the loop body.
const UNROLL: usize = 8;

/// Stable two-pointer merge of sorted `a` and `b`, appended to `out`:
/// the scalar reference for [`merge_two`].
// i < a.len() and j < b.len() guard every index; the tail slices use the
// loop-exit values, which are ≤ the lengths.
// alloc: out is the caller's reserved scratch; pushes stay in capacity.
pub fn merge_two_scalar<T: Ord + Clone>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i].clone());
            i += 1;
        } else {
            out.push(b[j].clone());
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Stable merge of sorted `a` and `b`, appended to `out` (ties favour
/// `a`). Branchless: each step selects the next head with a conditional
/// move and advances both cursors arithmetically, so throughput does not
/// depend on how the inputs interleave. Identical output to
/// [`merge_two_scalar`].
// panic-free: the unrolled loop runs only while both sides have ≥ UNROLL
// unconsumed elements (each step consumes exactly one from either side);
// the remainder loop guards i/j individually, and the tails use the exit
// values.
// alloc: out is the caller's reserved scratch; the up-front reserve keeps
// every push in capacity.
pub fn merge_two<T: Ord + Clone>(a: &[T], b: &[T], out: &mut Vec<T>) {
    use std::hint::select_unpredictable as sel;
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i + UNROLL <= a.len() && j + UNROLL <= b.len() {
        for _ in 0..UNROLL {
            let take_a = a[i] <= b[j];
            out.push(sel(take_a, &a[i], &b[j]).clone());
            i += take_a as usize;
            j += usize::from(!take_a);
        }
    }
    while i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        out.push(sel(take_a, &a[i], &b[j]).clone());
        i += take_a as usize;
        j += usize::from(!take_a);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// True when `targets` is compatible with the single-crossing selection
/// kernels: strictly increasing with consecutive gaps of at least
/// `max_step` (the largest weight any one merge step can add), so each
/// merge step crosses at most one target and the kernels' `ti += hit`
/// emission cannot fall behind. Collapse targets (spacing `w = Σwᵢ`,
/// every step adding some `wᵢ < w`) always qualify.
// panic-free: windows(2) yields exactly-two-element slices, so w[0]/w[1]
// are in bounds; checked_sub rejects non-increasing pairs instead of
// wrapping.
pub fn targets_single_crossing(targets: &[u64], max_step: u64) -> bool {
    targets.first().is_none_or(|&t| t >= 1)
        && targets
            .windows(2)
            .all(|w| w[1].checked_sub(w[0]).is_some_and(|d| d >= max_step))
}

/// Select the elements at 1-indexed weighted positions `targets` of the
/// weighted merge of two sorted sources (`a` with per-element weight `wa`,
/// `b` with `wb`): the fused branchless form of the two-source dense
/// selection walk, with identical output.
///
/// Requires [`targets_single_crossing`]`(targets, wa.max(wb))`; the caller
/// (the dense dispatch in `select_weighted_with`) checks this and falls
/// back to the scalar walk otherwise. `out` is cleared first.
///
/// Each step overwrites `out[ti]` with the current head unconditionally
/// and advances `ti` only when the accumulated mass crossed the next
/// target — the emit decision becomes data flow instead of a mispredicted
/// branch. The overwritten prefix is discarded by the final truncate.
// panic-free: out is resized to targets.len() + 1 up front, and ti grows
// by at most one per step while bounded by targets.len() (the loop
// condition), so out[ti] and targets[ti] stay in range; the exhausted-
// source tail indexes rest[(t - cum - 1) / w], in bounds because every
// remaining target is ≤ the total mass cum + rest.len()·w.
// out is the caller's reused scratch; the resize stays within the
// capacity reserved by earlier collapses after the first.
pub fn select_two_weighted<T: Ord + Clone>(
    a: &[T],
    wa: u64,
    b: &[T],
    wb: u64,
    targets: &[u64],
    out: &mut Vec<T>,
) {
    use std::hint::select_unpredictable as sel;
    debug_assert!(targets_single_crossing(targets, wa.max(wb)));
    out.clear();
    if targets.is_empty() {
        return;
    }
    // Two empty sources cannot carry the ≥ 1 mass the first target
    // demands (targets are ≤ total mass), so the early return only fires
    // on a violated contract — and then emitting nothing beats panicking.
    let Some(seed) = a.first().or(b.first()).cloned() else {
        return;
    };
    // One slot of slack so the unconditional store stays in bounds on the
    // step that crosses the final target.
    out.resize(targets.len() + 1, seed);
    let (mut i, mut j) = (0usize, 0usize);
    let mut cum: u64 = 0;
    let mut ti = 0usize;
    while ti + UNROLL <= targets.len() && i + UNROLL <= a.len() && j + UNROLL <= b.len() {
        for _ in 0..UNROLL {
            let take_a = a[i] <= b[j];
            let v = sel(take_a, &a[i], &b[j]);
            cum += sel(take_a, wa, wb);
            out[ti] = v.clone();
            ti += usize::from(targets[ti] <= cum);
            i += take_a as usize;
            j += usize::from(!take_a);
        }
    }
    while ti < targets.len() && i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        let v = sel(take_a, &a[i], &b[j]);
        cum += sel(take_a, wa, wb);
        out[ti] = v.clone();
        ti += usize::from(targets[ti] <= cum);
        i += take_a as usize;
        j += usize::from(!take_a);
    }
    // One source exhausted (or all targets just hit): the survivor is a
    // single weighted run, so the remaining targets index it directly.
    let (rest, w) = if i < a.len() {
        (&a[i..], wa)
    } else {
        (&b[j..], wb)
    };
    while ti < targets.len() {
        let offset = ((targets[ti] - cum - 1) / w) as usize;
        out[ti] = rest[offset].clone();
        ti += 1;
    }
    out.truncate(targets.len());
}

/// As [`select_two_weighted`] for **evenly spaced** targets `first,
/// first + spacing, …` (`count` of them): the collapse shape, where the
/// spacing is the output weight `w` and `first` the §3.2 phase offset.
///
/// Dropping the target vector removes the `targets[ti]` load from the
/// emission dependency chain — the next-target bound lives in a register
/// and advances by a masked add — and lets the exhausted-source tail run
/// on strength-reduced index increments instead of one division per
/// target. Requires `spacing ≥ wa.max(wb)` and `first ≥ 1` (collapse
/// targets always qualify: spacing `w = Σwᵢ` > each `wᵢ`).
///
/// The main loop takes **two merge steps per iteration, speculatively**:
/// both candidate heads for the second step are loaded before the first
/// step's outcome is known, so every load address depends only on
/// `(i, j)` at block granularity and the second comparison resolves with
/// one conditional move. All data-dependent choices go through
/// [`std::hint::select_unpredictable`] — on a 50/50 merge the plain `if`
/// compiles to a branch that mispredicts every other step, which is the
/// dominant cost of the walk (measured ~5 ns/step branchy vs ~3.6 ns
/// speculative on uniform u64 collapses).
// All indexing happens inside `select_two_spaced_core`, justified
// there; out is the caller's reused scratch (resize only, within
// capacity after the first collapse).
#[allow(clippy::too_many_arguments)]
pub fn select_two_weighted_spaced<T: Ord + Clone>(
    a: &[T],
    wa: u64,
    b: &[T],
    wb: u64,
    first: u64,
    spacing: u64,
    count: usize,
    out: &mut Vec<T>,
) {
    debug_assert!(first >= 1 && spacing >= wa.max(wb));
    out.clear();
    if count == 0 {
        return;
    }
    // Contract (`first` ≤ total mass) guarantees a non-empty source;
    // on violation emit nothing instead of panicking.
    let Some(seed) = a.first().or(b.first()).cloned() else {
        return;
    };
    out.resize(count.saturating_add(1), seed);
    select_two_spaced_core(a, wa, b, wb, 0, first, spacing, count, 0, out);
    out.truncate(count);
}

/// Shared engine of the spaced two-source walks: runs the speculative
/// merge over `a`/`b` starting from accumulated mass `cum`, next target
/// `next_t` and output slot `ti`, into a pre-resized `out` (one slot of
/// slack past `count`). [`select_two_weighted_spaced`] enters it at the
/// origin; [`select_three_weighted_spaced`] enters it mid-walk once its
/// first source is exhausted.
// panic-free: as select_two_weighted_spaced — callers size out to
// count + 1 and pass ti ≤ count; both loops advance ti at most once per
// store under the `ti < count` bound, and the exhausted-source tail's
// running index stays within rest by the mass contract.
#[allow(clippy::too_many_arguments)]
fn select_two_spaced_core<T: Ord + Clone>(
    a: &[T],
    wa: u64,
    b: &[T],
    wb: u64,
    mut cum: u64,
    mut next_t: u64,
    spacing: u64,
    count: usize,
    mut ti: usize,
    out: &mut [T],
) {
    use std::hint::select_unpredictable as sel;
    let (mut i, mut j) = (0usize, 0usize);
    while ti + 2 <= count && i + 2 <= a.len() && j + 2 <= b.len() {
        let a0 = &a[i];
        let a1 = &a[i + 1];
        let b0 = &b[j];
        let b1 = &b[j + 1];
        let t1 = a0 <= b0;
        // Step 2 compares a[i + t1] with b[j + !t1]; both candidate
        // comparisons are computed eagerly, then the real one is picked.
        let t2 = sel(t1, a1 <= b0, a0 <= b1);
        let v1 = sel(t1, a0, b0);
        let w1 = sel(t1, wa, wb);
        let v2 = sel(t2, sel(t1, a1, a0), sel(t1, b0, b1));
        let w2 = sel(t2, wa, wb);
        let cum1 = cum + w1;
        cum = cum1 + w2;
        out[ti] = v1.clone();
        let hit1 = next_t <= cum1;
        ti += hit1 as usize;
        next_t += spacing & (hit1 as u64).wrapping_neg();
        out[ti] = v2.clone();
        let hit2 = next_t <= cum;
        ti += hit2 as usize;
        next_t += spacing & (hit2 as u64).wrapping_neg();
        let taken_a = t1 as usize + t2 as usize;
        i += taken_a;
        j += 2 - taken_a;
    }
    while ti < count && i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        let v = sel(take_a, &a[i], &b[j]);
        cum += sel(take_a, wa, wb);
        out[ti] = v.clone();
        let hit = next_t <= cum;
        ti += hit as usize;
        next_t += spacing & (hit as u64).wrapping_neg();
        i += take_a as usize;
        j += usize::from(!take_a);
    }
    // One source exhausted: the survivor is a single weighted run. The
    // remaining targets advance by a constant `spacing`, so their indices
    // advance by `spacing / w` with a `spacing % w` remainder carry — no
    // per-target division.
    let (rest, w) = if i < a.len() {
        (&a[i..], wa)
    } else {
        (&b[j..], wb)
    };
    if ti < count {
        let dq = (spacing / w) as usize;
        let dr = spacing % w;
        let mut off = ((next_t - cum - 1) / w) as usize;
        let mut rem = (next_t - cum - 1) % w;
        while ti < count {
            out[ti] = rest[off].clone();
            ti += 1;
            rem += dr;
            let carry = rem >= w;
            off += dq + carry as usize;
            rem -= w & (carry as u64).wrapping_neg();
        }
    }
}

/// As [`select_two_weighted_spaced`] for **three** sorted weighted
/// sources: the direct form of the 3-source collapse, which the adaptive
/// policy emits constantly at rate 1 (a parked level-0 pair plus one
/// higher-weight survivor, three distinct weights). The previous route —
/// materialise `(element, weight)` pairs, pair-merge them, then sweep —
/// moved every element through memory twice before selecting; this walk
/// reads each source in place.
///
/// Each step resolves the 3-way minimum with two comparisons through
/// [`std::hint::select_unpredictable`] (a 3-wide tournament mispredicts
/// on random merges just like the 2-way case), then advances exactly one
/// source. Once any source is exhausted the survivors continue on
/// `select_two_spaced_core` from the walk's accumulated state.
/// Requires `first ≥ 1` and `spacing ≥ wa.max(wb).max(wc)` (collapse
/// targets qualify: spacing `w = Σwᵢ` > each `wᵢ`).
// panic-free: out is resized to count + 1 up front and ti advances at
// most once per store under the `ti < count` bound; the handoff passes
// the same slack buffer and a ti ≤ count to the two-source core, whose
// own bounds argument then applies. At most one survivor slice can be
// empty, and the core reads an empty slice only through its exhausted-
// source tail guard.
// out is the caller's reused scratch (resize only, within capacity after
// the first collapse).
#[allow(clippy::too_many_arguments)]
pub fn select_three_weighted_spaced<T: Ord + Clone>(
    a: &[T],
    wa: u64,
    b: &[T],
    wb: u64,
    c: &[T],
    wc: u64,
    first: u64,
    spacing: u64,
    count: usize,
    out: &mut Vec<T>,
) {
    use std::hint::select_unpredictable as sel;
    debug_assert!(first >= 1 && spacing >= wa.max(wb).max(wc));
    out.clear();
    if count == 0 {
        return;
    }
    // Contract (`first` ≤ total mass) guarantees a non-empty source;
    // on violation emit nothing instead of panicking.
    let Some(seed) = a.first().or(b.first()).or(c.first()).cloned() else {
        return;
    };
    out.resize(count.saturating_add(1), seed);
    let (mut i, mut j, mut l) = (0usize, 0usize, 0usize);
    let mut cum: u64 = 0;
    let mut ti = 0usize;
    let mut next_t = first;
    while ti < count && i < a.len() && j < b.len() && l < c.len() {
        // All three pairwise comparisons issue independently (no compare
        // feeding another compare's operand), then two select levels pick
        // the minimum — the 3-way analogue of the speculative trick in
        // the two-source walk.
        let ab = a[i] <= b[j];
        let ac = a[i] <= c[l];
        let bc = b[j] <= c[l];
        let take_a = ab & ac;
        let take_b = !ab & bc;
        let v = sel(take_a, &a[i], sel(take_b, &b[j], &c[l]));
        cum += sel(take_a, wa, sel(take_b, wb, wc));
        out[ti] = v.clone();
        let hit = next_t <= cum;
        ti += hit as usize;
        next_t += spacing & (hit as u64).wrapping_neg();
        i += take_a as usize;
        j += take_b as usize;
        l += (!take_a & !take_b) as usize;
    }
    // First exhaustion: hand the two survivors (either may itself be
    // empty only if the mass contract already places every remaining
    // target in the other) to the two-source core, resuming at the
    // current mass and target.
    if i >= a.len() {
        select_two_spaced_core(
            &b[j..],
            wb,
            &c[l..],
            wc,
            cum,
            next_t,
            spacing,
            count,
            ti,
            out,
        );
    } else if j >= b.len() {
        select_two_spaced_core(
            &a[i..],
            wa,
            &c[l..],
            wc,
            cum,
            next_t,
            spacing,
            count,
            ti,
            out,
        );
    } else {
        select_two_spaced_core(
            &a[i..],
            wa,
            &b[j..],
            wb,
            cum,
            next_t,
            spacing,
            count,
            ti,
            out,
        );
    }
    out.truncate(count);
}

/// Select the elements at 1-indexed weighted positions `targets` of an
/// already merged sequence of `(element, weight)` pairs, under the same
/// single-crossing contract as [`select_two_weighted`]. This is the final
/// pass of the ≥ 3-source dense path: the sources are first pair-merged
/// into one weighted run (`merge_sorted_runs_with` over `(T, u64)` tuples),
/// then selected in one branchless sweep here.
// panic-free: as select_two_weighted — out holds targets.len() + 1 slots,
// ti advances at most once per pair and the loop stops at targets.len().
// out is the caller's reused scratch (resize only, within capacity after
// the first collapse).
pub fn select_merged_weighted<T: Ord + Clone>(
    pairs: &[(T, u64)],
    targets: &[u64],
    out: &mut Vec<T>,
) {
    out.clear();
    if targets.is_empty() {
        return;
    }
    let seed = match pairs.first() {
        Some((v, _)) => v.clone(),
        // Contract: targets ≤ total mass, so a non-empty target set
        // implies a non-empty merge.
        None => {
            assert!(
                targets.is_empty(),
                "ran out of mass before all targets were selected"
            );
            return;
        }
    };
    out.resize(targets.len() + 1, seed);
    let mut cum: u64 = 0;
    let mut ti = 0usize;
    let mut pi = 0usize;
    while ti + UNROLL <= targets.len() && pi + UNROLL <= pairs.len() {
        for _ in 0..UNROLL {
            let (v, w) = &pairs[pi];
            cum += w;
            out[ti] = v.clone();
            ti += usize::from(targets[ti] <= cum);
            pi += 1;
        }
    }
    while ti < targets.len() && pi < pairs.len() {
        let (v, w) = &pairs[pi];
        cum += w;
        out[ti] = v.clone();
        ti += usize::from(targets[ti] <= cum);
        pi += 1;
    }
    assert!(
        ti == targets.len(),
        "ran out of mass before all targets were selected"
    );
    out.truncate(targets.len());
}

/// As [`select_merged_weighted`] for evenly spaced targets `first,
/// first + spacing, …` (`count` of them) — the ≥ 3-source collapse shape.
/// The next-target bound advances by a masked register add instead of a
/// `targets[ti]` load on the emission chain.
// panic-free: as select_merged_weighted — out holds count + 1 slots and
// ti advances at most once per pair while bounded by count.
// out is the caller's reused scratch (resize only, within capacity after
// the first collapse).
pub fn select_merged_weighted_spaced<T: Ord + Clone>(
    pairs: &[(T, u64)],
    first: u64,
    spacing: u64,
    count: usize,
    out: &mut Vec<T>,
) {
    debug_assert!(first >= 1);
    out.clear();
    if count == 0 {
        return;
    }
    let seed = match pairs.first() {
        Some((v, _)) => v.clone(),
        // Contract: targets ≤ total mass, so a non-empty target set
        // implies a non-empty merge.
        None => {
            assert!(
                count == 0,
                "ran out of mass before all targets were selected"
            );
            return;
        }
    };
    out.resize(count.saturating_add(1), seed);
    let mut cum: u64 = 0;
    let mut ti = 0usize;
    let mut pi = 0usize;
    let mut next_t = first;
    while ti + UNROLL <= count && pi + UNROLL <= pairs.len() {
        for _ in 0..UNROLL {
            let (v, w) = &pairs[pi];
            cum += w;
            out[ti] = v.clone();
            let hit = next_t <= cum;
            ti += hit as usize;
            next_t += spacing & (hit as u64).wrapping_neg();
            pi += 1;
        }
    }
    while ti < count && pi < pairs.len() {
        let (v, w) = &pairs[pi];
        cum += w;
        out[ti] = v.clone();
        let hit = next_t <= cum;
        ti += hit as usize;
        next_t += spacing & (hit as u64).wrapping_neg();
        pi += 1;
    }
    assert!(
        ti == count,
        "ran out of mass before all targets were selected"
    );
    out.truncate(count);
}

/// Minimum and maximum of `data` in one pass: the scalar reference for
/// [`slice_min_max`].
pub fn slice_min_max_scalar<T: Ord + Clone>(data: &[T]) -> Option<(T, T)> {
    let (first, rest) = data.split_first()?;
    let mut lo = first.clone();
    let mut hi = first.clone();
    for x in rest {
        if *x < lo {
            lo = x.clone();
        }
        if *x > hi {
            hi = x.clone();
        }
    }
    Some((lo, hi))
}

/// Minimum and maximum of `data` in one chunked pass: eight independent
/// accumulator lanes over `chunks_exact(UNROLL)` blocks, reduced at the
/// end. Splitting the running min/max across lanes breaks the
/// loop-carried dependency on a single accumulator, and for primitive
/// element types the lane updates compile to vector min/max (the
/// `min_max_u64`/`min_max_u32` instantiations are asm-checked in CI).
/// Identical result to [`slice_min_max_scalar`]; `ExtremeValue` uses it
/// to screen whole batches against the heap thresholds before touching
/// the heaps.
pub fn slice_min_max<T: Ord + Clone>(data: &[T]) -> Option<(T, T)> {
    if data.len() < UNROLL * 2 {
        return slice_min_max_scalar(data);
    }
    let (first, rest) = data.split_first()?;
    let mut lo: [T; UNROLL] = std::array::from_fn(|_| first.clone());
    let mut hi: [T; UNROLL] = std::array::from_fn(|_| first.clone());
    let mut chunks = rest.chunks_exact(UNROLL);
    for c in chunks.by_ref() {
        for (slot, x) in lo.iter_mut().zip(c) {
            *slot = x.clone().min(slot.clone());
        }
        for (slot, x) in hi.iter_mut().zip(c) {
            *slot = x.clone().max(slot.clone());
        }
    }
    let mut best_lo = first.clone();
    let mut best_hi = first.clone();
    for x in chunks.remainder().iter().chain(lo.iter()).chain(hi.iter()) {
        if *x < best_lo {
            best_lo = x.clone();
        }
        if *x > best_hi {
            best_hi = x.clone();
        }
    }
    Some((best_lo, best_hi))
}

/// Concrete `u64` instantiation of [`slice_min_max`], exported so the CI
/// asm smoke check has a symbol whose codegen it can inspect for vector
/// min/max patterns.
pub fn min_max_u64(data: &[u64]) -> Option<(u64, u64)> {
    slice_min_max(data)
}

/// Concrete `u32` instantiation of [`slice_min_max`] for the CI asm
/// smoke check (`vpminud`/`vpmaxud` exist from SSE4.1/AVX2, making the
/// 32-bit lane pattern the easiest vectorisation witness).
pub fn min_max_u32(data: &[u32]) -> Option<(u32, u32)> {
    slice_min_max(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged_ref(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        merge_two_scalar(a, b, &mut out);
        out
    }

    #[test]
    fn branchless_merge_matches_scalar_on_adversarial_shapes() {
        let shapes: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![], vec![2]),
            ((0..100).collect(), (50..150).collect()),
            (vec![5; 40], vec![5; 17]),
            (
                (0..64).map(|i| i * 2).collect(),
                (0..64).map(|i| i * 2 + 1).collect(),
            ),
            ((0..31).collect(), (100..131).collect()),
            ((100..131).collect(), (0..31).collect()),
        ];
        for (a, b) in shapes {
            let mut out = Vec::new();
            merge_two(&a, &b, &mut out);
            assert_eq!(out, merged_ref(&a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn merge_is_stable_for_tied_keys() {
        // Tuples ordered by the first field only would need Ord overrides;
        // instead check stability with (key, tag) pairs whose Ord is
        // lexicographic but where all ties share a key prefix.
        let a = vec![(5u64, 0u8), (5, 1)];
        let b = vec![(5u64, 2u8)];
        let mut out = Vec::new();
        merge_two(&a, &b, &mut out);
        // a's elements sort before b's tied element here because the tag
        // participates in Ord; what matters is agreement with the scalar.
        let mut reference = Vec::new();
        merge_two_scalar(&a, &b, &mut reference);
        assert_eq!(out, reference);
    }

    #[test]
    fn single_crossing_check() {
        assert!(targets_single_crossing(&[2, 6, 10], 4));
        assert!(!targets_single_crossing(&[2, 5, 10], 4));
        assert!(!targets_single_crossing(&[0, 4], 4));
        assert!(targets_single_crossing(&[], 9));
        assert!(targets_single_crossing(&[7], 100));
    }

    #[test]
    fn select_two_matches_walk_on_skewed_weights() {
        let a: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..64).map(|i| i * 5 + 1).collect();
        for (wa, wb) in [(1u64, 1u64), (7, 1), (1, 7), (1000, 3)] {
            let w = wa + wb;
            let targets: Vec<u64> = (0..64u64).map(|j| j * (64 * w / 64) + w / 2 + 1).collect();
            assert!(targets_single_crossing(&targets, wa.max(wb)));
            let mut out = Vec::new();
            select_two_weighted(&a, wa, &b, wb, &targets, &mut out);
            let sources = [
                crate::merge::WeightedSource::new(&a, wa),
                crate::merge::WeightedSource::new(&b, wb),
            ];
            let reference = crate::merge::select_weighted(&sources, &targets);
            assert_eq!(out, reference, "wa={wa} wb={wb}");
        }
    }

    #[test]
    fn spaced_select_matches_target_vector_kernels() {
        // Collapse-shaped progressions: spacing = total weight, varying
        // phase offsets, sources of unequal length so one exhausts early
        // and the strength-reduced tail runs.
        let a: Vec<u64> = (0..96).map(|i| i * 7 % 251).collect();
        let b: Vec<u64> = (0..32).map(|i| i * 11 % 251).collect();
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        for (wa, wb) in [(1u64, 1u64), (3, 1), (1, 3), (4, 2)] {
            let spacing = wa + wb;
            let mass = wa * a.len() as u64 + wb * b.len() as u64;
            for first in [spacing / 2 + 1, spacing.div_ceil(2), 1, spacing] {
                let count = ((mass - first) / spacing + 1) as usize;
                let targets: Vec<u64> = (0..count as u64).map(|j| first + j * spacing).collect();
                assert!(targets_single_crossing(&targets, wa.max(wb)));
                let mut reference = Vec::new();
                select_two_weighted(&a, wa, &b, wb, &targets, &mut reference);
                let mut out = Vec::new();
                select_two_weighted_spaced(&a, wa, &b, wb, first, spacing, count, &mut out);
                assert_eq!(out, reference, "two-source wa={wa} wb={wb} first={first}");

                let mut pairs: Vec<(u64, u64)> = a
                    .iter()
                    .map(|&v| (v, wa))
                    .chain(b.iter().map(|&v| (v, wb)))
                    .collect();
                pairs.sort_by_key(|&(v, _)| v);
                let mut merged_ref = Vec::new();
                select_merged_weighted(&pairs, &targets, &mut merged_ref);
                let mut merged_out = Vec::new();
                select_merged_weighted_spaced(&pairs, first, spacing, count, &mut merged_out);
                assert_eq!(
                    merged_out, merged_ref,
                    "merged wa={wa} wb={wb} first={first}"
                );
            }
        }
    }

    #[test]
    fn spaced_select_empty_and_single() {
        let mut out = vec![99u64];
        select_two_weighted_spaced(&[1u64, 2], 1, &[3u64], 1, 1, 2, 0, &mut out);
        assert!(out.is_empty());
        select_two_weighted_spaced(&[5u64], 3, &[], 1, 2, 3, 1, &mut out);
        assert_eq!(out, vec![5]);
        select_merged_weighted_spaced(&[(7u64, 4u64)], 4, 4, 1, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn min_max_matches_scalar_on_all_lengths() {
        for n in 0..64usize {
            let v: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 97).collect();
            assert_eq!(slice_min_max(&v), slice_min_max_scalar(&v), "n={n}");
            if n > 0 {
                let expect = (*v.iter().min().unwrap_or(&0), *v.iter().max().unwrap_or(&0));
                assert_eq!(slice_min_max(&v), Some(expect));
            }
        }
        assert_eq!(slice_min_max::<u64>(&[]), None);
        assert_eq!(min_max_u64(&[9, 2, 7]), Some((2, 9)));
        assert_eq!(min_max_u32(&[5]), Some((5, 5)));
        // Non-Copy element type exercises the clone-based lanes.
        let words: Vec<String> = ["pear", "apple", "quince", "fig", "kiwi"]
            .iter()
            .cycle()
            .take(40)
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            slice_min_max(&words),
            Some(("apple".to_string(), "quince".to_string()))
        );
    }

    #[test]
    fn select_merged_matches_brute_force() {
        let pairs: Vec<(u64, u64)> = vec![(1, 3), (2, 1), (4, 5), (9, 2), (9, 2)];
        let mass: u64 = pairs.iter().map(|(_, w)| w).sum();
        let mut flat = Vec::new();
        for (v, w) in &pairs {
            for _ in 0..*w {
                flat.push(*v);
            }
        }
        let targets: Vec<u64> = vec![1, 7, mass];
        assert!(targets_single_crossing(&targets, 5));
        let mut out = Vec::new();
        select_merged_weighted(&pairs, &targets, &mut out);
        let reference: Vec<u64> = targets.iter().map(|&t| flat[(t - 1) as usize]).collect();
        assert_eq!(out, reference);
    }
}
