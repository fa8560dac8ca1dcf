//! The query spine: one merged weighted view serving many queries, kept
//! as a sealed part that survives fills and a tail merged in per fresh
//! query.
//!
//! `Output` "does not destroy or modify the state \[and\] can be invoked
//! as many times as required" (§3.7) — but every prior revision of the
//! engine paid the full cost of that invocation each time: clone and
//! sort the in-progress fill, re-sort every deferred-seal slot, walk the
//! weighted merge. A sketch that serves selectivity estimates to a query
//! optimizer answers orders of magnitude more queries than it absorbs
//! collapses, so the read path deserves the same treatment the write
//! path got: do the expensive merge **once per state change**, not once
//! per question.
//!
//! [`QuerySpine`] is that materialisation: every `(value, weight)` pair
//! the engine's `Output` would consult, sorted ascending, with the
//! weights folded into a cumulative array. Once built, each quantile
//! query is a binary search over the cumulative weights
//! ([`QuerySpine::lookup`]) and each rank/CDF query a binary search over
//! the values ([`QuerySpine::rank`]) — `O(log(bk))` against the previous
//! `O(bk log bk)`.
//!
//! The spine is built in two parts by one builder,
//! [`QuerySpine::refresh`], which every spine owner calls:
//!
//! * the **sealed part**: the pairs of every non-empty buffer, sorted and
//!   coalesced into `(value, cumulative weight)`. It is tagged with the
//!   owner's buffer *generation*, which changes only when buffer contents
//!   do (a seal, a collapse, `finish`, a restore), and is reused as long
//!   as the generation holds. Between two seals at sampling rate `r`,
//!   `k·r` elements arrive, so many fresh queries share one sealed part.
//! * the **tail**: the fill in progress (at most `k` values of one
//!   weight, copied and sorted per fresh query) and the pending block's
//!   representative. One linear pass merges both into the sealed part,
//!   writing the `values`/`cum` arrays queries search.
//!
//! Invalidation is by **epoch**: the owner increments a counter on
//! every mutation (insert, batch insert, collapse, finish, snapshot
//! restore), and the spine records the epoch it was built at. A spine
//! whose epoch does not match the owner's is stale and is refreshed on
//! the next query; nothing is eagerly recomputed during ingest, so
//! write-heavy workloads pay one untaken branch per insert and
//! query-heavy workloads amortise one refresh across an unbounded run of
//! reads. The spine lives in the engine's scratch arena and retains its
//! vectors across refreshes, so steady-state operation allocates nothing.

use crate::radix::{try_sort_fixed, RadixScratch};

/// A merged, weight-cumulated snapshot of a sketch's queryable contents,
/// tagged with the ingest epoch it was built from.
///
/// `values` is strictly ascending under `Ord` (ties are coalesced, their
/// weights summed) and `cum[i]` is the total weight of `values[..=i]` —
/// so the element at 1-indexed weighted position `t` is
/// `values[partition_point(cum < t)]`, exactly the element the engine's
/// weighted-merge selection would return.
#[derive(Clone, Debug)]
pub struct QuerySpine<T> {
    values: Vec<T>,
    cum: Vec<u64>,
    /// The sealed part: every buffer's pairs, sorted ascending with ties
    /// coalesced, as `(value, cumulative weight)`.
    sealed: Vec<(T, u64)>,
    /// Buffer generation the sealed part was built at.
    sealed_generation: u64,
    sealed_current: bool,
    /// The tail's sorted copy of the fill, and its radix scratch.
    tail: Vec<T>,
    tail_radix: RadixScratch<T>,
    built_epoch: u64,
    valid: bool,
}

// Manual impl: the derive would demand `T: Default`, which empty vectors
// do not need.
impl<T> Default for QuerySpine<T> {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            cum: Vec::new(),
            sealed: Vec::new(),
            sealed_generation: 0,
            sealed_current: false,
            tail: Vec::new(),
            tail_radix: RadixScratch::default(),
            built_epoch: 0,
            valid: false,
        }
    }
}

impl<T: Ord + Clone> QuerySpine<T> {
    /// True when the spine was built at `epoch` and can serve queries
    /// without a refresh.
    pub fn is_current(&self, epoch: u64) -> bool {
        self.valid && self.built_epoch == epoch
    }

    /// Drop both parts (the next query rebuilds the sealed part too).
    /// Vectors keep their capacity.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.sealed_current = false;
    }

    /// Refresh the spine at `epoch`: the one spine builder.
    ///
    /// `sealed` lists each non-empty buffer as `(data, weight)`; its data
    /// need not be sorted. It is read only when `generation` differs from
    /// the sealed part's, and then sorted and coalesced into a new sealed
    /// part. `tail` (any order, every value at `tail_weight`) and the
    /// `pending` block `(representative, weight)` are merged into the
    /// sealed part on every call. `Ord`-equal values coalesce, their
    /// weights summed (saturating).
    pub fn refresh<'a, I>(
        &mut self,
        epoch: u64,
        generation: u64,
        sealed: I,
        tail: &[T],
        tail_weight: u64,
        pending: Option<(&T, u64)>,
    ) where
        I: IntoIterator<Item = (&'a [T], u64)>,
        I::IntoIter: Clone,
        T: 'static,
    {
        // Each part is marked stale before it is rebuilt, so a panicking
        // `Ord` cannot leave a half-built part marked current.
        self.valid = false;
        if !self.sealed_current || self.sealed_generation != generation {
            self.rebuild_sealed(generation, sealed.into_iter());
        }
        self.tail.clear();
        self.tail.extend_from_slice(tail);
        if !self.tail.is_sorted() && !try_sort_fixed(&mut self.tail, &mut self.tail_radix) {
            self.tail.sort_unstable();
        }
        self.merge_tail(tail_weight, pending);
        self.built_epoch = epoch;
        self.valid = true;
    }

    /// Sort and coalesce every buffer's pairs into the sealed part.
    fn rebuild_sealed<'a, I>(&mut self, generation: u64, sources: I)
    where
        I: Iterator<Item = (&'a [T], u64)> + Clone,
        T: 'a,
    {
        self.sealed_current = false;
        self.sealed.clear();
        let count = sources.clone().map(|(data, _)| data.len()).sum();
        self.sealed.reserve_exact(count);
        for (data, w) in sources {
            self.sealed.extend(data.iter().map(|v| (v.clone(), w)));
        }
        self.sealed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.sealed.dedup_by(|next, kept| {
            let tie = next.0 == kept.0;
            if tie {
                kept.1 = kept.1.saturating_add(next.1);
            }
            tie
        });
        // Saturating: Σ weights is the stream mass, which weight
        // conservation keeps ≤ the stream length; clamp rather than wrap
        // if state is ever corrupted.
        let mut running: u64 = 0;
        for pair in &mut self.sealed {
            running = running.saturating_add(pair.1);
            pair.1 = running;
        }
        self.sealed_generation = generation;
        self.sealed_current = true;
    }

    /// Merge the sorted tail and the pending block into the sealed part,
    /// rewriting `values`/`cum` in one linear pass.
    fn merge_tail(&mut self, tail_weight: u64, pending: Option<(&T, u64)>) {
        self.values.clear();
        self.cum.clear();
        let bound = self.sealed.len() + self.tail.len() + usize::from(pending.is_some());
        self.values.reserve_exact(bound);
        self.cum.reserve_exact(bound);
        let mut merge = Merge {
            sealed: &self.sealed,
            sealed_cum: 0,
            tail_cum: 0,
            values: &mut self.values,
            cum: &mut self.cum,
        };
        let mut pending = pending;
        for v in &self.tail {
            if let Some((p, seen)) = pending.take_if(|(p, _)| *p < v) {
                merge.absorb(p, seen);
            }
            merge.absorb(v, tail_weight);
        }
        if let Some((p, seen)) = pending {
            merge.absorb(p, seen);
        }
        merge.finish();
    }

    /// Total weighted mass of the spine (0 when empty).
    pub fn total(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// Total weighted mass of the sealed part (0 when empty): what the
    /// invariant auditor checks against the buffers' mass.
    #[cfg(any(test, feature = "invariant-audit"))]
    pub(crate) fn sealed_mass(&self) -> u64 {
        self.sealed.last().map_or(0, |pair| pair.1)
    }

    /// Number of distinct stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the spine holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at 1-indexed weighted position `target` of the logical
    /// sorted-with-multiplicity stream: the first value whose cumulative
    /// weight reaches `target`. Targets beyond the total mass clamp to
    /// the maximum; `None` only when the spine is empty.
    pub fn lookup(&self, target: u64) -> Option<&T> {
        let i = self.cum.partition_point(|&c| c < target);
        self.values.get(i.min(self.values.len().saturating_sub(1)))
    }

    /// Weighted mass strictly below `value` and at-or-below `value` —
    /// the numerators of the `x < v` / `x <= v` selectivities.
    pub fn rank(&self, value: &T) -> (u64, u64) {
        let below_end = self.values.partition_point(|v| v < value);
        let at_most_end = self.values.partition_point(|v| v <= value);
        let mass_through = |end: usize| {
            end.checked_sub(1)
                .and_then(|i| self.cum.get(i))
                .copied()
                .unwrap_or(0)
        };
        (mass_through(below_end), mass_through(at_most_end))
    }

    /// Ascending `(value, cumulative weight)` pairs — the stepwise CDF
    /// in weighted-count form.
    pub fn points(&self) -> impl Iterator<Item = (&T, u64)> {
        self.values.iter().zip(self.cum.iter().copied())
    }
}

/// The state of one tail merge: tail values arrive in ascending order,
/// and each first flushes the sealed pairs at or below it.
struct Merge<'a, T> {
    /// The sealed pairs not yet emitted.
    sealed: &'a [(T, u64)],
    /// Cumulative weight of the sealed pairs emitted so far.
    sealed_cum: u64,
    /// Weight of the tail values absorbed so far.
    tail_cum: u64,
    values: &'a mut Vec<T>,
    cum: &'a mut Vec<u64>,
}

impl<T: Ord + Clone> Merge<'_, T> {
    /// Emit the sealed pairs at or below `v`, then `v` at weight `w`,
    /// coalesced into the last value when they are `Ord`-equal. A sealed
    /// value never ties with an earlier tail value: that tail value
    /// flushed every sealed value at or below it.
    fn absorb(&mut self, v: &T, w: u64) {
        let run = self.sealed.iter().take_while(|(s, _)| s <= v).count();
        self.emit_sealed(run);
        self.tail_cum = self.tail_cum.saturating_add(w);
        let running = self.sealed_cum.saturating_add(self.tail_cum);
        match (self.values.last(), self.cum.last_mut()) {
            (Some(last), Some(c)) if last == v => *c = running,
            _ => {
                self.values.push(v.clone());
                self.cum.push(running);
            }
        }
    }

    /// Emit the next `run` sealed pairs, shifted by the tail weight
    /// absorbed so far.
    fn emit_sealed(&mut self, run: usize) {
        let (head, rest) = self
            .sealed
            .split_at_checked(run)
            .unwrap_or((self.sealed, &[]));
        self.values.extend(head.iter().map(|(s, _)| s.clone()));
        let tail_cum = self.tail_cum;
        self.cum
            .extend(head.iter().map(|(_, c)| c.saturating_add(tail_cum)));
        if let Some((_, c)) = head.last() {
            self.sealed_cum = *c;
        }
        self.sealed = rest;
    }

    /// Emit the sealed pairs above every tail value.
    fn finish(mut self) {
        self.emit_sealed(self.sealed.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort-everything reference: every pair staged, sorted and
    /// coalesced in one pass, as `(values, cum)`.
    fn reference(
        sealed: &[(&[u64], u64)],
        tail: &[u64],
        tail_weight: u64,
        pending: Option<(u64, u64)>,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for &(data, w) in sealed {
            pairs.extend(data.iter().map(|&v| (v, w)));
        }
        pairs.extend(tail.iter().map(|&v| (v, tail_weight)));
        pairs.extend(pending);
        pairs.sort_unstable();
        let (mut values, mut cum) = (Vec::new(), Vec::new());
        let mut running = 0u64;
        for (v, w) in pairs {
            running += w;
            if values.last() == Some(&v) {
                *cum.last_mut().unwrap() = running;
            } else {
                values.push(v);
                cum.push(running);
            }
        }
        (values, cum)
    }

    fn contents(s: &QuerySpine<u64>) -> (Vec<u64>, Vec<u64>) {
        s.points().map(|(&v, c)| (v, c)).unzip()
    }

    /// Refresh a fresh spine and check it against the reference.
    fn check(
        sealed: &[(&[u64], u64)],
        tail: &[u64],
        tail_weight: u64,
        pending: Option<(u64, u64)>,
    ) {
        let mut s = QuerySpine::default();
        let p = pending.as_ref().map(|(v, w)| (v, *w));
        s.refresh(1, 1, sealed.iter().copied(), tail, tail_weight, p);
        assert_eq!(contents(&s), reference(sealed, tail, tail_weight, pending));
        let buffered: u64 = sealed.iter().map(|(d, w)| d.len() as u64 * w).sum();
        assert_eq!(s.sealed_mass(), buffered);
    }

    fn built(pairs: &[(u64, u64)]) -> QuerySpine<u64> {
        let mut s = QuerySpine::default();
        let singles: Vec<[u64; 1]> = pairs.iter().map(|&(v, _)| [v]).collect();
        let sources = singles.iter().zip(pairs).map(|(v, &(_, w))| (&v[..], w));
        s.refresh(1, 1, sources, &[], 1, None);
        s
    }

    #[test]
    fn coalesces_ties_and_accumulates() {
        let s = built(&[(5, 2), (3, 1), (5, 4), (9, 1)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.total(), 8);
        assert_eq!(
            s.points().collect::<Vec<_>>(),
            vec![(&3, 1), (&5, 7), (&9, 8)]
        );
    }

    #[test]
    fn lookup_matches_expanded_stream() {
        let s = built(&[(10, 3), (20, 2), (30, 1)]);
        // Expanded: 10,10,10,20,20,30 at positions 1..=6.
        let expanded = [10u64, 10, 10, 20, 20, 30];
        for (i, want) in expanded.iter().enumerate() {
            assert_eq!(s.lookup(i as u64 + 1), Some(want), "position {}", i + 1);
        }
        // Clamped beyond the mass; position 0 resolves to the minimum.
        assert_eq!(s.lookup(100), Some(&30));
        assert_eq!(s.lookup(0), Some(&10));
    }

    #[test]
    fn rank_splits_below_and_at_most() {
        let s = built(&[(10, 3), (20, 2), (30, 1)]);
        assert_eq!(s.rank(&5), (0, 0));
        assert_eq!(s.rank(&10), (0, 3));
        assert_eq!(s.rank(&15), (3, 3));
        assert_eq!(s.rank(&20), (3, 5));
        assert_eq!(s.rank(&30), (5, 6));
        assert_eq!(s.rank(&99), (6, 6));
    }

    #[test]
    fn epochs_gate_currency() {
        let mut s = built(&[(1, 1)]);
        assert!(s.is_current(1));
        assert!(!s.is_current(2));
        s.invalidate();
        assert!(!s.is_current(1));
        s.refresh(2, 2, [(&[7u64][..], 7)], &[], 1, None);
        assert!(s.is_current(2));
        assert_eq!(s.total(), 7);
    }

    #[test]
    fn empty_spine_answers_safely() {
        let s = built(&[]);
        assert_eq!(s.total(), 0);
        assert!(s.is_empty());
        assert_eq!(s.lookup(1), None);
        assert_eq!(s.rank(&5), (0, 0));
    }

    #[test]
    fn tail_only_spines_match_the_reference() {
        check(&[], &[], 1, None);
        check(&[], &[4, 1, 3, 1], 2, None);
        check(&[], &[4, 1, 3, 1], 2, Some((3, 1)));
        // The pending block alone.
        check(&[], &[], 4, Some((9, 3)));
    }

    #[test]
    fn sealed_only_spines_match_the_reference() {
        check(&[(&[5, 1, 3], 4), (&[2, 3, 8], 1)], &[], 8, None);
        check(&[(&[5, 1, 3], 4)], &[], 8, Some((0, 2)));
        check(&[(&[5, 1, 3], 4)], &[], 8, Some((9, 2)));
    }

    #[test]
    fn tail_and_pending_ties_with_sealed_values_coalesce() {
        let sealed: &[(&[u64], u64)] = &[(&[1, 3, 5, 7], 4), (&[3, 7, 9], 2)];
        check(sealed, &[3, 7, 7, 0, 10], 1, Some((5, 1)));
        check(sealed, &[3, 7, 7, 0, 10], 1, Some((7, 1)));
        check(sealed, &[1, 9], 1, Some((1, 1)));
        check(sealed, &[9, 9], 1, Some((9, 1)));
        check(sealed, &[2, 4, 6, 8], 1, Some((10, 1)));
    }

    #[test]
    fn all_equal_input_is_one_value() {
        let sealed: &[(&[u64], u64)] = &[(&[6, 6, 6], 4), (&[6, 6], 2)];
        check(sealed, &[6, 6, 6, 6], 1, Some((6, 1)));
        let mut s = QuerySpine::default();
        s.refresh(1, 1, sealed.iter().copied(), &[6; 4], 1, Some((&6, 1)));
        assert_eq!(contents(&s), (vec![6], vec![21]));
    }

    #[test]
    fn pseudo_random_spines_match_the_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        for case in 0..200 {
            // Small value ranges tie often; large ones rarely.
            let range = if case % 2 == 0 { 7 } else { 1 << 20 };
            let buffers: Vec<(Vec<u64>, u64)> = (0..next(5))
                .map(|_| ((0..next(40)).map(|_| next(range)).collect(), 1 << next(4)))
                .collect();
            let sealed: Vec<(&[u64], u64)> = buffers.iter().map(|(d, w)| (&d[..], *w)).collect();
            // Long enough tails take the radix sort.
            let tail: Vec<u64> = (0..next(200)).map(|_| next(range)).collect();
            let pending = (next(2) == 0).then(|| (next(range), 1 + next(8)));
            check(&sealed, &tail, 1 + next(8), pending);
        }
    }

    #[test]
    fn sealed_part_is_reused_until_the_generation_moves() {
        let mut s = QuerySpine::default();
        s.refresh(1, 1, [(&[10u64, 20][..], 2)], &[15], 1, None);
        assert_eq!(contents(&s), (vec![10, 15, 20], vec![2, 3, 5]));
        // Same generation: the sources are not read again, only the tail.
        s.refresh(2, 1, [(&[99u64][..], 99)], &[25, 5], 1, Some((&20, 1)));
        assert_eq!(contents(&s), (vec![5, 10, 20, 25], vec![1, 3, 6, 7]));
        // A new generation rebuilds the sealed part from the sources.
        s.refresh(3, 2, [(&[99u64][..], 99)], &[], 1, None);
        assert_eq!(contents(&s), (vec![99], vec![99]));
        // Invalidation drops the sealed part too.
        s.invalidate();
        s.refresh(4, 2, [(&[1u64][..], 1)], &[], 1, None);
        assert_eq!(contents(&s), (vec![1], vec![1]));
    }
}
