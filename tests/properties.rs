//! Property-based tests (proptest) on the core invariants:
//!
//! * weighted selection agrees with brute-force materialisation,
//! * collapse conserves mass and emits sorted output,
//! * the deterministic engine's Lemma-4 bound holds on arbitrary inputs,
//! * exact selectors agree on arbitrary inputs,
//! * sketch answers are always elements of the input (the paper's
//!   definition requires an approximate quantile to *belong to the input
//!   sequence*),
//! * batched ingestion (`insert_batch` over arbitrary chunkings) produces
//!   exactly the same deterministic accounting — `n`, output mass, tree
//!   stats — as per-element insertion, and identical answers when no
//!   randomness is consumed (rate 1).

use proptest::collection::vec;
use proptest::prelude::*;

use mrl::exact::{rank_error, sort_select};
use mrl::framework::{
    collapse_targets, select_weighted, total_mass, AdaptiveLowestLevel, Engine, EngineConfig,
    FixedRate, Mrl99Schedule, WeightedSource,
};

/// One certified unknown-`N` configuration shared by the sharded-pipeline
/// property (the reduced-grid optimizer run happens once per process).
fn fast_unknown_n_config() -> &'static mrl::analysis::optimizer::UnknownNConfig {
    static CONFIG: std::sync::OnceLock<mrl::analysis::optimizer::UnknownNConfig> =
        std::sync::OnceLock::new();
    CONFIG.get_or_init(|| {
        mrl::analysis::optimizer::optimize_unknown_n_with(
            0.05,
            0.01,
            mrl::analysis::optimizer::OptimizerOptions::fast(),
        )
    })
}

/// Brute-force weighted selection: materialise every copy.
fn select_brute(sources: &[(Vec<u32>, u64)], targets: &[u64]) -> Vec<u32> {
    let mut all = Vec::new();
    for (data, w) in sources {
        for v in data {
            for _ in 0..*w {
                all.push(*v);
            }
        }
    }
    all.sort_unstable();
    targets.iter().map(|&t| all[(t - 1) as usize]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weighted_selection_matches_brute_force(
        raw in vec((vec(0u32..1000, 1..12), 1u64..6), 1..5),
        picks in vec(0.0f64..1.0, 1..6),
    ) {
        let sources: Vec<(Vec<u32>, u64)> = raw
            .into_iter()
            .map(|(mut d, w)| {
                d.sort_unstable();
                (d, w)
            })
            .collect();
        let borrowed: Vec<WeightedSource<'_, u32>> = sources
            .iter()
            .map(|(d, w)| WeightedSource::new(d, *w))
            .collect();
        let mass = total_mass(&borrowed);
        let mut targets: Vec<u64> = picks
            .iter()
            .map(|p| ((p * mass as f64).ceil() as u64).clamp(1, mass))
            .collect();
        targets.sort_unstable();
        prop_assert_eq!(
            select_weighted(&borrowed, &targets),
            select_brute(&sources, &targets)
        );
    }

    #[test]
    fn collapse_positions_cover_all_offsets_in_range(
        k in 1usize..20,
        w in 1u64..40,
        high in any::<bool>(),
    ) {
        let t = collapse_targets(k, w, high);
        prop_assert_eq!(t.len(), k);
        prop_assert!(t[0] >= 1);
        prop_assert!(*t.last().unwrap() <= k as u64 * w);
        // Equal spacing w between consecutive targets.
        for pair in t.windows(2) {
            prop_assert_eq!(pair[1] - pair[0], w);
        }
    }

    #[test]
    fn deterministic_engine_respects_lemma4_on_arbitrary_input(
        data in vec(0u64..100_000, 20..800),
        b in 2usize..6,
        k in 4usize..32,
    ) {
        let mut e = Engine::new(
            EngineConfig::new(b, k),
            AdaptiveLowestLevel,
            FixedRate::new(1),
            7,
        );
        e.extend(data.iter().copied());
        let bound = e.tree_error_bound() as f64 / data.len() as f64;
        for phi in [0.0, 0.5, 1.0] {
            let ans = e.query(phi).unwrap();
            let err = rank_error(&data, &ans, phi);
            prop_assert!(
                err <= bound + 1e-12,
                "phi={}, err={}, bound={}", phi, err, bound
            );
        }
    }

    #[test]
    fn sketch_answers_belong_to_the_input(
        data in vec(0u64..1_000_000, 1..600),
    ) {
        let mut e = Engine::new(
            EngineConfig::new(3, 8),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(2),
            3,
        );
        e.extend(data.iter().copied());
        for phi in [0.0, 0.3, 0.77, 1.0] {
            let ans = e.query(phi).unwrap();
            prop_assert!(data.contains(&ans), "answer {} not in input", ans);
        }
    }

    #[test]
    fn exact_selectors_agree(
        data in vec(0u32..10_000, 1..200),
        pick in 0.0f64..1.0,
    ) {
        let r = ((pick * data.len() as f64).ceil() as usize).clamp(1, data.len());
        let expected = sort_select(&data, r);
        let mut rng = mrl::sampling::rng_from_seed(1);
        prop_assert_eq!(mrl::exact::quickselect(data.clone(), r, &mut rng), expected);
        prop_assert_eq!(mrl::exact::bfprt_select(data.clone(), r), expected);
        prop_assert_eq!(
            mrl::exact::two_pass_select(|| data.iter().copied(), r as u64, 2),
            expected
        );
    }

    #[test]
    fn mass_conservation_under_any_stream_length(
        n in 1u64..5_000,
    ) {
        let mut e = Engine::new(
            EngineConfig::new(3, 16),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(1),
            11,
        );
        for i in 0..n {
            e.insert(i);
        }
        prop_assert_eq!(e.output_mass(), n);
        prop_assert_eq!(e.n(), n);
    }

    #[test]
    fn batched_ingestion_matches_scalar_accounting(
        data in vec(0u64..1_000_000, 1..1_500),
        cuts in vec(0.0f64..1.0, 0..6),
        h in 1u32..3,
    ) {
        // Scalar reference.
        let mut scalar = Engine::new(
            EngineConfig::new(3, 8),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(h),
            17,
        );
        for &v in &data {
            scalar.insert(v);
        }
        // Batched run over an arbitrary chunking of the same stream.
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|c| (c * data.len() as f64) as usize)
            .collect();
        bounds.push(0);
        bounds.push(data.len());
        bounds.sort_unstable();
        let mut batched = Engine::new(
            EngineConfig::new(3, 8),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(h),
            17,
        );
        for w in bounds.windows(2) {
            batched.insert_batch(&data[w[0]..w[1]]);
        }
        // The block/leaf/collapse structure is a deterministic function of
        // the stream length, so every accounting statistic must agree even
        // though the two paths consume different random streams.
        prop_assert_eq!(batched.n(), scalar.n());
        prop_assert_eq!(batched.output_mass(), scalar.output_mass());
        prop_assert_eq!(batched.stats(), scalar.stats());
        prop_assert_eq!(batched.w_max(), scalar.w_max());
        prop_assert_eq!(batched.tree_error_bound(), scalar.tree_error_bound());
        // Answers come from the same weighted universe.
        for phi in [0.0, 0.5, 1.0] {
            let ans = batched.query(phi).unwrap();
            prop_assert!(data.contains(&ans), "batched answer {} not in input", ans);
        }
    }

    #[test]
    fn batched_ingestion_at_rate_one_is_bitwise_identical(
        data in vec(0i64..100_000, 1..700),
        cut in 0.0f64..1.0,
    ) {
        // Rate 1 consumes no randomness on either path, so the two engines
        // must agree exactly — answers included.
        let mut scalar = Engine::new(
            EngineConfig::new(4, 16),
            AdaptiveLowestLevel,
            FixedRate::new(1),
            23,
        );
        for &v in &data {
            scalar.insert(v);
        }
        let mut batched = Engine::new(
            EngineConfig::new(4, 16),
            AdaptiveLowestLevel,
            FixedRate::new(1),
            23,
        );
        let mid = (cut * data.len() as f64) as usize;
        batched.insert_batch(&data[..mid]);
        batched.insert_batch(&data[mid..]);
        let phis = [0.0, 0.25, 0.5, 0.75, 1.0];
        prop_assert_eq!(batched.query_many(&phis), scalar.query_many(&phis));
        prop_assert_eq!(batched.stats(), scalar.stats());
    }

    #[test]
    fn skip_ahead_selection_matches_brute_force_under_heavy_ties(
        raw in vec((vec(0u32..6, 1..15), 1u64..7), 1..6),
        picks in vec(0.0f64..1.0, 1..8),
    ) {
        // Tiny value domain forces long tied runs across sources — the
        // regime where the run-based skip merge must still agree with the
        // materialised reference at every position.
        let sources: Vec<(Vec<u32>, u64)> = raw
            .into_iter()
            .map(|(mut d, w)| {
                d.sort_unstable();
                (d, w)
            })
            .collect();
        let borrowed: Vec<WeightedSource<'_, u32>> = sources
            .iter()
            .map(|(d, w)| WeightedSource::new(d, *w))
            .collect();
        let mass = total_mass(&borrowed);
        let mut targets: Vec<u64> = picks
            .iter()
            .map(|p| ((p * mass as f64).ceil() as u64).clamp(1, mass))
            .collect();
        targets.sort_unstable();
        prop_assert_eq!(
            select_weighted(&borrowed, &targets),
            select_brute(&sources, &targets)
        );
    }

    #[test]
    fn run_merge_equals_sort_unstable_bitwise(
        runs in vec(vec(0u64..50, 1..30), 1..12),
    ) {
        // Arbitrary run partitions over a small value domain (long tied
        // runs): the bottom-up run merge must reproduce `sort_unstable`'s
        // output exactly, ties included.
        let mut data = Vec::new();
        let mut starts = Vec::new();
        for mut r in runs {
            r.sort_unstable();
            starts.push(data.len());
            data.extend(r);
        }
        let mut merged = data.clone();
        mrl::framework::merge_sorted_runs_with(
            &mut merged,
            &starts,
            &mut mrl::framework::MergeScratch::default(),
        );
        let mut sorted = data;
        sorted.sort_unstable();
        prop_assert_eq!(merged, sorted);
    }

    #[test]
    fn sortedness_checked_sealing_is_chunking_invariant_on_adversarial_inputs(
        pattern in 0usize..4,
        n in 1usize..900,
        chunk_sizes in vec(1usize..64, 1..24),
        tie_domain in 1u64..6,
    ) {
        // Descending, sawtooth, tie-heavy and run-structured streams drive
        // sealing through both routes (presorted adoption, raw parking
        // with its deferred sort). Ascending runs of 23 against k = 16
        // give fills with exactly one descent. At rate 1 no randomness is
        // consumed, so chunked ingestion must stay bitwise identical to
        // scalar insertion no matter where the seals and collapses land.
        let data: Vec<u64> = (0..n)
            .map(|i| match pattern {
                0 => (n - i) as u64,
                1 => {
                    let s = i % 16;
                    if s < 8 { s as u64 } else { (16 - s) as u64 }
                }
                2 => (i as u64).wrapping_mul(2654435761) % tie_domain,
                _ => (i % 23) as u64,
            })
            .collect();
        let engine = || {
            Engine::new(
                EngineConfig::new(4, 16),
                AdaptiveLowestLevel,
                FixedRate::new(1),
                29,
            )
        };
        let mut scalar = engine();
        let mut uncached = engine();
        uncached.set_query_cache_enabled(false);
        for &v in &data {
            scalar.insert(v);
            uncached.insert(v);
        }
        let mut batched = engine();
        let mut at = 0usize;
        for &c in chunk_sizes.iter().cycle() {
            if at >= data.len() {
                break;
            }
            let end = (at + c).min(data.len());
            batched.insert_batch(&data[at..end]);
            at = end;
        }
        let phis = [0.0, 0.25, 0.5, 0.75, 1.0];
        let answers = scalar.query_many(&phis);
        prop_assert_eq!(batched.query_many(&phis), answers.clone());
        // The uncached read path sorts unsorted fills and parked slots on
        // its own copies; it must pick the same elements as the spine.
        prop_assert_eq!(uncached.query_many(&phis), answers);
        prop_assert_eq!(batched.stats(), scalar.stats());
        prop_assert_eq!(batched.n(), scalar.n());
    }

    #[test]
    fn sharded_pipeline_accounts_mass_and_stays_within_epsilon(
        n in 1u64..20_000,
        shards in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let data: Vec<u64> = (0..n).map(|i| i.wrapping_mul(2654435761) % n.max(1)).collect();
        let config = fast_unknown_n_config();
        let mut sharded =
            mrl::parallel::ShardedSketch::<u64>::from_config(config.clone(), shards, seed)
                .with_batch_size(512);
        sharded.insert_batch(&data);
        let outcome = sharded.finish().expect("no shard panicked");
        // Exact element accounting survives the round-robin partition.
        prop_assert_eq!(outcome.total_n(), n);
        prop_assert_eq!(outcome.workers(), shards);
        // Shipped mass matches n up to one incomplete sampling block per
        // shard (the partial buffer's tail rounding).
        let slack = shards as u64 * 4096;
        let shipped = outcome.coordinator().shipped_mass();
        prop_assert!(
            shipped.abs_diff(n) <= slack,
            "shipped {} vs n {}", shipped, n
        );
        // Queries carry the per-shard epsilon guarantee through the merge;
        // allow the coordinator's own additive error on top.
        let mut sorted = data;
        sorted.sort_unstable();
        for phi in [0.1f64, 0.5, 0.9] {
            let q = outcome.query(phi).unwrap();
            let rank = sorted.partition_point(|v| *v <= q) as f64;
            let err = (rank - phi * n as f64).abs() / n as f64;
            prop_assert!(
                err <= 2.0 * config.epsilon + 2.0 / n as f64,
                "phi={}: rank error {}", phi, err
            );
        }
    }

    #[test]
    fn quantile_outputs_are_monotone_in_phi(
        data in vec(0u64..50_000, 10..500),
    ) {
        let mut e = Engine::new(
            EngineConfig::new(4, 8),
            AdaptiveLowestLevel,
            Mrl99Schedule::new(2),
            13,
        );
        e.extend(data.iter().copied());
        let qs = e.query_many(&[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]).unwrap();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }
}

/// Feature `invariant-audit`: the engine itself asserts weight
/// conservation, sortedness, occupancy legality and the analysis-certified
/// error bound after every seal/collapse — these properties just need to
/// drive data through and let the built-in oracle fire.
#[cfg(feature = "invariant-audit")]
mod invariant_audit {
    use super::*;

    #[test]
    fn certificate_is_attached_to_certified_configs() {
        let config = fast_unknown_n_config().clone();
        let s = mrl::sketch::UnknownN::<u64>::from_config(config.clone(), 1);
        let engine = s.into_engine();
        let cert = engine
            .certified_schedule()
            .expect("optimizer output must carry a certificate");
        assert!(cert.g_pre > 0.0 && cert.g_post >= cert.g_pre);
        assert_eq!(cert.epsilon, config.epsilon);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Stream arbitrary data through the audited sketch, querying and
        /// finishing along the way; any invariant violation panics inside
        /// the engine's own auditor.
        #[test]
        fn audited_sketch_survives_arbitrary_streams(
            data in vec(0u64..1_000_000, 1..6_000),
            seed in 0u64..1_000,
            chunk in 1usize..700,
        ) {
            let config = fast_unknown_n_config().clone();
            let mut s = mrl::sketch::UnknownN::<u64>::from_config(config, seed);
            for part in data.chunks(chunk) {
                s.insert_batch(part);
            }
            prop_assert_eq!(s.n(), data.len() as u64);
            prop_assert!(s.query(0.5).is_some());
            s.finish();
            prop_assert!(s.query(0.5).is_some());
        }
    }
}
