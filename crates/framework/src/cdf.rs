//! Inverse-quantile (rank) queries and CDF export.
//!
//! The paper's §1.1 motivates quantiles through query optimizers:
//! "Quantiles are used by query optimizers to provide selectivity
//! estimates for simple predicates on table values." A selectivity
//! estimate for `col <= v` is exactly an (approximate) **rank** query —
//! the inverse of `Output`. This module adds:
//!
//! * [`Engine::rank_of`] — the weighted fraction of elements `< v` and
//!   `<= v` (the predicate selectivities), with the same error structure
//!   as quantile queries;
//! * [`Engine::cdf`] — the full stepwise CDF of the sketch's weighted
//!   contents, for plotting or exporting to an optimizer's statistics
//!   catalogue.

use crate::buffer::BufferState;
use crate::engine::Engine;
use crate::merge::WeightedSource;
use crate::policy::CollapsePolicy;
use crate::schedule::RateSchedule;

/// One step of an exported CDF: everything `<= value` has cumulative
/// weighted fraction `cumulative`.
#[derive(Clone, Debug, PartialEq)]
pub struct CdfPoint<T> {
    /// Step value.
    pub value: T,
    /// Weighted fraction of the stream `<= value` (in `(0, 1]`).
    pub cumulative: f64,
}

impl<T, P, R> Engine<T, P, R>
where
    T: Ord + Clone + 'static,
    P: CollapsePolicy,
    R: RateSchedule,
{
    /// Approximate selectivities of the predicates `x < v` and `x <= v`:
    /// returns `(frac_below, frac_at_most)` as fractions of the stream.
    /// `None` before any element has arrived.
    ///
    /// The estimate's error has the same structure as a quantile query's:
    /// the deterministic tree contributes up to
    /// [`Engine::tree_error_bound`]` / N` and sampling the usual
    /// `(1−α)·ε` share.
    pub fn rank_of(&self, value: &T) -> Option<(f64, f64)> {
        // Cached read path: two binary searches over the spine instead of
        // a full weighted scan per call.
        if let Some(cached) = self.with_current_spine(|spine| {
            let s = spine.total();
            if s == 0 {
                return None;
            }
            let (below, at_most) = spine.rank(value);
            Some((below as f64 / s as f64, at_most as f64 / s as f64))
        }) {
            return cached;
        }
        let mass = self.output_mass();
        if mass == 0 {
            return None;
        }
        let mut below: u64 = 0;
        let mut at_most: u64 = 0;
        self.for_each_weighted(|v, w| {
            if v < value {
                below += w;
            }
            if v <= value {
                at_most += w;
            }
        });
        Some((below as f64 / mass as f64, at_most as f64 / mass as f64))
    }

    /// Export the stepwise CDF of the sketch's weighted contents: one
    /// point per distinct stored value, in ascending order, with strictly
    /// increasing cumulative fractions ending at 1.0. Empty before any
    /// element has arrived.
    ///
    /// At most `b·k + k` points — a bounded-size approximate description
    /// of the whole distribution (the "synopsis" of §1.5).
    pub fn cdf(&self) -> Vec<CdfPoint<T>> {
        // Cached read path: the spine *is* the stepwise CDF in weighted
        // form — emit it directly (only the returned Vec is allocated; the
        // sort-and-coalesce work is amortised across the epoch).
        if let Some(cached) = self.with_current_spine(|spine| {
            let s = spine.total();
            spine
                .points()
                .map(|(value, cum)| CdfPoint {
                    value: value.clone(),
                    cumulative: cum as f64 / s as f64,
                })
                .collect()
        }) {
            return cached;
        }
        let mass = self.output_mass();
        if mass == 0 {
            return Vec::new();
        }
        let mut weighted: Vec<(T, u64)> = Vec::new();
        self.for_each_weighted(|v, w| weighted.push((v.clone(), w)));
        weighted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<CdfPoint<T>> = Vec::with_capacity(weighted.len());
        let mut cum: u64 = 0;
        for (value, w) in weighted {
            cum += w;
            match out.last_mut() {
                Some(last) if last.value == value => {
                    last.cumulative = cum as f64 / mass as f64;
                }
                _ => out.push(CdfPoint {
                    value,
                    cumulative: cum as f64 / mass as f64,
                }),
            }
        }
        out
    }

    /// Visit every (element, weight) pair `Output` would consult.
    pub(crate) fn for_each_weighted<F: FnMut(&T, u64)>(&self, mut f: F) {
        for b in self.raw_buffers() {
            if b.state() != BufferState::Empty {
                for v in b.data() {
                    f(v, b.weight());
                }
            }
        }
        let (filler, rate, _, _) = self.fill_state();
        for v in filler {
            f(v, rate);
        }
        if let Some((v, seen)) = self.pending_block() {
            f(&v, seen);
        }
    }
}

/// Free-standing helper mirroring [`Engine::rank_of`] for already-merged
/// weighted sources (used by the parallel coordinator).
pub fn rank_of_sources<T: Ord>(sources: &[WeightedSource<'_, T>], value: &T) -> (u64, u64) {
    let mut below = 0u64;
    let mut at_most = 0u64;
    // Saturating: Σ weights over all elements is the total mass, which
    // weight conservation keeps ≤ the stream length, but a corrupted input
    // should clamp the rank rather than wrap it past the true value.
    for s in sources {
        for v in s.data {
            if v < value {
                below = below.saturating_add(s.weight);
            }
            if v <= value {
                at_most = at_most.saturating_add(s.weight);
            }
        }
    }
    (below, at_most)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveLowestLevel, EngineConfig, FixedRate, Mrl99Schedule};

    fn engine(n: u64) -> Engine<u64, AdaptiveLowestLevel, Mrl99Schedule> {
        let mut e = Engine::new(
            EngineConfig::new(4, 32),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(2),
            3,
        );
        for i in 0..n {
            e.insert((i * 2654435761) % n);
        }
        e
    }

    #[test]
    fn rank_of_tracks_uniform_values() {
        let n = 200_000u64;
        let e = engine(n);
        // This small ad-hoc config is not certified for any particular
        // epsilon; score against its own instantaneous bound plus sampling
        // slack.
        let tol = e.tree_error_bound() as f64 / n as f64 + 0.02;
        for frac in [0.1, 0.5, 0.9] {
            let v = (frac * n as f64) as u64;
            let (below, _) = e.rank_of(&v).unwrap();
            assert!(
                (below - frac).abs() < tol,
                "rank_of({v}) = {below}, expected ~{frac} (tol {tol:.4})"
            );
        }
    }

    #[test]
    fn rank_of_extremes() {
        let e = engine(10_000);
        let (below_min, _) = e.rank_of(&0).unwrap();
        assert_eq!(below_min, 0.0);
        let (_, at_most_max) = e.rank_of(&u64::MAX).unwrap();
        assert!((at_most_max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_of_is_inverse_of_query() {
        let e = engine(100_000);
        for phi in [0.2, 0.5, 0.8] {
            let q = e.query(phi).unwrap();
            let (below, at_most) = e.rank_of(&q).unwrap();
            // rank_of and query consult the same weighted contents, so
            // they must agree exactly (no extra approximation on top).
            assert!(
                below <= phi && at_most >= phi,
                "phi={phi}: rank interval [{below}, {at_most}] misses"
            );
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let e = engine(50_000);
        let cdf = e.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].value < w[1].value, "values not strictly ascending");
            assert!(w[0].cumulative < w[1].cumulative, "cdf not increasing");
        }
        assert!((cdf.last().unwrap().cumulative - 1.0).abs() < 1e-12);
        // Bounded size: at most b*k + k + 1 points.
        assert!(cdf.len() <= 4 * 32 + 32 + 1);
    }

    #[test]
    fn cdf_of_duplicates_merges_steps() {
        let mut e: Engine<u64, _, _> = Engine::new(
            EngineConfig::new(3, 8),
            AdaptiveLowestLevel,
            FixedRate::new(1),
            1,
        );
        for i in 0..100u64 {
            e.insert(i % 3);
        }
        let cdf = e.cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf[2].cumulative - 1.0).abs() < 1e-12);
        // Roughly a third each.
        assert!((cdf[0].cumulative - 1.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn empty_engine_has_no_cdf() {
        let e: Engine<u64, AdaptiveLowestLevel, FixedRate> = Engine::new(
            EngineConfig::new(2, 4),
            AdaptiveLowestLevel,
            FixedRate::new(1),
            1,
        );
        assert!(e.cdf().is_empty());
        assert!(e.rank_of(&5).is_none());
    }
}
