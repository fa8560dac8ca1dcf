//! The unknown-`N` quantile sketch (§3–§4).

use mrl_analysis::optimizer::{optimize_unknown_n_with, OptimizerOptions, UnknownNConfig};
use mrl_framework::{AdaptiveLowestLevel, Engine, EngineConfig, Mrl99Schedule, TreeStats};
use mrl_obs::MetricsHandle;

use crate::audit::EpsilonAudit;

/// Single-pass ε-approximate quantiles of a stream of unknown length.
///
/// The algorithm composes the paper's non-uniform sampling scheme (§3.7:
/// the sampling rate doubles each time the collapse tree grows past height
/// `h`) with the deterministic buffer/collapse framework of MRL98. At any
/// moment, [`UnknownN::query`] returns an element whose rank is within
/// `ε·N` of the exact φ-quantile with probability at least `1 − δ` — no
/// matter how many elements have arrived, and without `N` ever being known.
///
/// ```
/// use mrl_core::{OptimizerOptions, UnknownN};
///
/// // `UnknownN::new(0.01, 1e-4)` searches the full parameter grid (about a
/// // second, once per process, in release builds); the doc example uses the
/// // reduced grid so it stays fast under `cargo test`.
/// let mut sketch = UnknownN::<u64>::with_options(0.01, 1e-4, OptimizerOptions::fast())
///     .with_seed(1);
/// sketch.extend(0..500_000u64);
/// let p90 = sketch.query(0.9).unwrap();
/// assert!((p90 as f64 - 450_000.0).abs() <= 5_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct UnknownN<T> {
    engine: Engine<T, AdaptiveLowestLevel, Mrl99Schedule>,
    config: UnknownNConfig,
    seed: u64,
}

impl<T: Ord + Clone + 'static> UnknownN<T> {
    /// Create a sketch guaranteeing ε-approximate quantiles with
    /// probability `1 − δ`. Parameters `(b, k, h, α)` come from the
    /// certified optimizer (§4.5).
    ///
    /// # Panics
    /// Panics if `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        Self::with_options(epsilon, delta, OptimizerOptions::default())
    }

    /// As [`UnknownN::new`] with an explicit optimizer search space (e.g.
    /// [`OptimizerOptions::fast`] for debug builds).
    pub fn with_options(epsilon: f64, delta: f64, opts: OptimizerOptions) -> Self {
        let config = optimize_unknown_n_with(epsilon, delta, opts);
        Self::from_config(config, 0)
    }

    /// Build from an explicit certified configuration.
    pub fn from_config(config: UnknownNConfig, seed: u64) -> Self {
        #[cfg_attr(not(feature = "invariant-audit"), allow(unused_mut))]
        let mut engine = Engine::new(
            EngineConfig::new(config.b, config.k),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(config.h),
            seed,
        );
        // With the audit feature on, replay the schedule's certificate and
        // attach it: the engine then re-checks the certified bound on the
        // live tree at every seal/collapse. The replay is memoised per
        // (b, h), so repeated construction (proptests, shard pools) pays
        // for it once.
        #[cfg(feature = "invariant-audit")]
        {
            use mrl_analysis::simulate::{simulate_schedule_cached, SimOptions};
            if let Some(scalars) =
                simulate_schedule_cached(config.b, config.h, SimOptions::default())
            {
                engine.set_certified_schedule(mrl_framework::CertifiedSchedule {
                    g_pre: scalars.g_pre,
                    g_post: scalars.g_post,
                    alpha: config.alpha,
                    epsilon: config.epsilon,
                });
            }
        }
        Self {
            engine,
            config,
            seed,
        }
    }

    /// Re-seed the sampler (returns a fresh, empty sketch). Call before
    /// inserting data.
    ///
    /// # Panics
    /// Panics if data has already been inserted.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        assert_eq!(self.n(), 0, "with_seed on a non-empty sketch");
        Self::from_config(self.config, seed)
    }

    /// Insert one element.
    pub fn insert(&mut self, item: T) {
        self.engine.insert(item);
    }

    /// Insert a batch of elements through the engine's batched fast path
    /// (one random draw per sampled block instead of one per element).
    pub fn insert_batch(&mut self, items: &[T]) {
        self.engine.insert_batch(items);
    }

    /// Insert every element of an iterator (batched internally).
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.engine.extend(iter);
    }

    /// Take in block representatives sampled ahead of this sketch at its
    /// own fill rates — the sharded pipeline's hand-off (see
    /// [`Engine::insert_sampled`]). `reps` comes back empty, holding spare
    /// storage.
    ///
    /// # Panics
    /// As [`Engine::insert_sampled`].
    pub fn insert_sampled(&mut self, reps: &mut Vec<T>, pending: Option<(T, u64)>) {
        self.engine.insert_sampled(reps, pending);
    }

    /// Declare end-of-stream (optional — queries work at any prefix; this
    /// only seals the trailing partial buffer).
    pub fn finish(&mut self) {
        self.engine.finish();
    }

    /// Estimate the φ-quantile of everything inserted so far
    /// (non-destructive, repeatable — the online-aggregation property of
    /// §3.7). `None` before the first insert.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.engine.query(phi)
    }

    /// Estimate several quantiles in one merge pass; results in caller
    /// order. `None` before the first insert.
    pub fn query_many(&self, phis: &[f64]) -> Option<Vec<T>> {
        self.engine.query_many(phis)
    }

    /// Elements inserted so far.
    pub fn n(&self) -> u64 {
        self.engine.n()
    }

    /// The certified configuration in use.
    pub fn config(&self) -> &UnknownNConfig {
        &self.config
    }

    /// The seed the sampler was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current memory footprint in elements (allocated buffers × `k`).
    pub fn memory_elements(&self) -> usize {
        self.engine.memory_elements()
    }

    /// The worst-case memory footprint `b·k`.
    pub fn memory_bound_elements(&self) -> usize {
        self.config.memory
    }

    /// True once the non-uniform sampler has engaged (rate > 1).
    pub fn sampling_started(&self) -> bool {
        self.engine.sampling_started()
    }

    /// Current sampling rate (1 before onset, then 2, 4, 8, …).
    pub fn current_rate(&self) -> u64 {
        self.engine.current_rate()
    }

    /// Exact tree accounting (for diagnostics and tests).
    pub fn stats(&self) -> &TreeStats {
        self.engine.stats()
    }

    /// The deterministic component of the rank-error bound at this instant,
    /// in ranks (Lemma 4: `(W + w_max)/2`). The full guarantee adds the
    /// sampling term `(1−α)·ε·N` with probability `1 − δ`.
    pub fn tree_error_bound(&self) -> u64 {
        self.engine.tree_error_bound()
    }

    /// Attach a metrics sink: the engine publishes its seal/collapse
    /// counters through it (see [`mrl_framework::engine::metrics`]), and
    /// [`UnknownN::publish_audit`] its ε-audit gauges.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.engine.set_metrics(metrics);
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        self.engine.metrics()
    }

    /// Attach a flight-recorder journal: the engine emits structured
    /// seal/collapse/rate/spine lifecycle events through it (see
    /// [`mrl_obs::EventKind`]). Disabled by default.
    pub fn set_journal(&mut self, journal: mrl_obs::JournalHandle) {
        self.engine.set_journal(journal);
    }

    /// The attached journal handle (disabled by default).
    pub fn journal(&self) -> &mrl_obs::JournalHandle {
        self.engine.journal()
    }

    /// A point-in-time reading of the ε-budget consumption: the Lemma 4
    /// tree bound against the allowed `ε·N`, plus the Hoeffding `X` term
    /// governing the sampling error (see [`EpsilonAudit`]).
    pub fn audit(&self) -> EpsilonAudit {
        let stats = self.engine.stats();
        EpsilonAudit::from_parts(
            self.n(),
            self.config.epsilon,
            self.config.alpha,
            self.engine.tree_error_bound(),
            stats.hoeffding_x(),
            self.sampling_started(),
            self.current_rate(),
        )
    }

    /// Compute the current [`EpsilonAudit`] and publish it through the
    /// attached metrics handle (no-op when disabled). Returns the reading.
    pub fn publish_audit(&self) -> EpsilonAudit {
        let audit = self.audit();
        audit.publish(self.engine.metrics());
        audit
    }

    /// Approximate selectivity of the predicates `x < v` / `x <= v`
    /// (§1.1's query-optimizer use case): `(frac_below, frac_at_most)`.
    /// `None` before the first insert.
    pub fn rank_of(&self, value: &T) -> Option<(f64, f64)> {
        self.engine.rank_of(value)
    }

    /// The stepwise CDF of the sketch's weighted contents (at most
    /// `b·k + k` points) — a bounded-size synopsis of the whole
    /// distribution (§1.5).
    pub fn cdf(&self) -> Vec<mrl_framework::CdfPoint<T>> {
        self.engine.cdf()
    }

    /// Query with an explicit error bar: `(estimate, radius)` where the
    /// estimate's rank is within `radius·N` of `⌈φ·N⌉` with probability at
    /// least `1 − δ`. The radius combines the *instantaneous* deterministic
    /// tree bound (often far below `α·ε` early in the stream) with the
    /// sampling term `(1−α)·ε`; before sampling onset the radius is the
    /// exact tree bound alone.
    pub fn query_with_bound(&self, phi: f64) -> Option<(T, f64)> {
        let estimate = self.query(phi)?;
        let n = self.n() as f64;
        let tree = self.tree_error_bound() as f64 / n;
        let sampling = if self.sampling_started() {
            (1.0 - self.config.alpha) * self.config.epsilon
        } else {
            0.0
        };
        Some((estimate, (tree + sampling).min(1.0)))
    }

    /// Consume the sketch, returning its engine (for the parallel
    /// protocol's buffer shipping).
    pub fn into_engine(self) -> Engine<T, AdaptiveLowestLevel, Mrl99Schedule> {
        self.engine
    }

    /// Consume the sketch into the §6 shipment: the consumed element count
    /// plus the final buffers — full buffers collapsed down to at most one,
    /// plus at most one partial — ready for a parallel coordinator.
    pub fn into_shipment(self) -> (u64, Vec<mrl_framework::Buffer<T>>) {
        let (n, _, buffers) = self.into_shipment_with_stats();
        (n, buffers)
    }

    /// As [`UnknownN::into_shipment`], additionally returning the final
    /// exact tree accounting so a coordinator can aggregate per-worker
    /// telemetry (elements, leaves, collapses, `W`) alongside the buffers.
    pub fn into_shipment_with_stats(self) -> (u64, TreeStats, Vec<mrl_framework::Buffer<T>>) {
        let n = self.n();
        let mut engine = self.into_engine();
        engine.finish();
        engine.collapse_all_full();
        let stats = engine.stats().clone();
        (n, stats, engine.into_buffers())
    }

    /// Borrow the underlying engine (snapshot support).
    pub(crate) fn engine_ref(&self) -> &Engine<T, AdaptiveLowestLevel, Mrl99Schedule> {
        &self.engine
    }

    /// Reassemble a sketch from a restored engine and its configuration
    /// (snapshot support).
    pub(crate) fn from_parts(
        engine: Engine<T, AdaptiveLowestLevel, Mrl99Schedule>,
        config: UnknownNConfig,
        seed: u64,
    ) -> Self {
        Self {
            engine,
            config,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> OptimizerOptions {
        OptimizerOptions::fast()
    }

    #[test]
    fn median_of_uniform_stream_is_accurate() {
        let mut s = UnknownN::<u64>::with_options(0.02, 0.001, fast()).with_seed(7);
        let n = 300_000u64;
        s.extend((0..n).map(|i| (i * 2654435761) % n));
        let med = s.query(0.5).unwrap() as f64;
        assert!(
            (med - n as f64 / 2.0).abs() <= 0.02 * n as f64,
            "median {med} too far from {}",
            n / 2
        );
        assert!(s.sampling_started());
        assert!(s.memory_elements() <= s.memory_bound_elements());
    }

    #[test]
    fn queries_work_at_every_prefix() {
        let mut s = UnknownN::<u64>::with_options(0.05, 0.01, fast()).with_seed(3);
        for i in 0..50_000u64 {
            s.insert(i);
            if i % 9_999 == 0 && i > 0 {
                let q = s.query(0.5).unwrap() as f64;
                let expect = i as f64 / 2.0;
                assert!(
                    (q - expect).abs() <= 0.05 * (i + 1) as f64 + 1.0,
                    "prefix {i}: median {q} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn sorted_input_is_not_adversarial() {
        // §1.3: correctness must not depend on arrival order.
        let mut s = UnknownN::<u64>::with_options(0.02, 0.001, fast()).with_seed(11);
        let n = 200_000u64;
        s.extend(0..n);
        for (phi, expect) in [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)] {
            let q = s.query(phi).unwrap() as f64;
            assert!(
                (q - expect * n as f64).abs() <= 0.02 * n as f64,
                "phi={phi}: got {q}"
            );
        }
    }

    #[test]
    fn query_many_is_monotone() {
        let mut s = UnknownN::<u64>::with_options(0.05, 0.01, fast()).with_seed(5);
        s.extend((0..100_000u64).map(|i| (i * 48271) % 99_991));
        let qs = s.query_many(&[0.1, 0.3, 0.5, 0.7, 0.9]).unwrap();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
    }

    #[test]
    fn empty_sketch_returns_none() {
        let s = UnknownN::<u64>::with_options(0.1, 0.01, fast());
        assert_eq!(s.query(0.5), None);
        assert_eq!(s.n(), 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed| {
            let mut s = UnknownN::<u64>::with_options(0.05, 0.01, fast()).with_seed(seed);
            s.extend((0..80_000u64).map(|i| (i * 31) % 77_777));
            s.query(0.5).unwrap()
        };
        assert_eq!(run(42), run(42));
    }
}
