//! Engine instrumentation: the metric stream published through an attached
//! [`mrl_obs::Recorder`] must agree with the engine's own exact accounting
//! ([`mrl_framework::TreeStats`]), and a default (disabled) handle must
//! record nothing.

use std::sync::Arc;

use mrl_framework::engine::metrics;
use mrl_framework::{AdaptiveLowestLevel, Engine, EngineConfig, FixedRate, Mrl99Schedule};
use mrl_obs::{InMemoryRecorder, Key, MetricsHandle};

/// Deterministic pseudo-shuffled stream (LCG) so seals exercise the
/// parked-raw path rather than the presorted fast path.
fn scrambled(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|i| {
        i.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    })
}

#[test]
fn counters_match_tree_stats_at_rate_one() {
    let rec = Arc::new(InMemoryRecorder::new());
    let mut e = Engine::new(
        EngineConfig::new(5, 16),
        AdaptiveLowestLevel,
        FixedRate::new(1),
        7,
    );
    e.set_metrics(MetricsHandle::new(rec.clone()));
    // 800 = 50 exact buffers: finish() seals no partial fill, so seal
    // counters correspond 1:1 to leaves.
    for v in scrambled(800) {
        e.insert(v);
    }
    e.finish();

    let stats = e.stats().clone();
    assert_eq!(
        rec.counter_value(metrics::COLLAPSES),
        stats.collapses,
        "collapse counter must match exact accounting"
    );
    let leaves_by_level: u64 = stats
        .leaves_by_level
        .keys()
        .map(|&lvl| rec.counter_value(Key::labeled(metrics::LEAVES_BY_LEVEL, lvl)))
        .sum();
    assert_eq!(leaves_by_level, stats.leaves);
    let seals =
        rec.counter_value(metrics::SEAL_PRESORTED) + rec.counter_value(metrics::SEAL_PARKED_RAW);
    assert_eq!(seals, stats.leaves);
    assert_eq!(rec.gauge_value(metrics::ELEMENTS), Some(800.0));
    assert_eq!(
        rec.gauge_value(metrics::COLLAPSE_WEIGHT_SUM),
        Some(stats.collapse_weight_sum as f64)
    );
    assert_eq!(rec.dropped(), 0, "no updates may be lost");

    // Latency histograms observed one record per seal / collapse.
    let snap = rec.snapshot();
    let seal_ns = snap
        .histograms
        .get("engine.seal.ns")
        .expect("seal latency histogram present");
    assert_eq!(seal_ns.count, stats.leaves);
    let collapse_ns = snap
        .histograms
        .get("engine.collapse.ns")
        .expect("collapse latency histogram present");
    assert_eq!(collapse_ns.count, stats.collapses);
}

#[test]
#[cfg_attr(miri, ignore = "heavy interpreted loop; native jobs cover it")]
fn rate_transitions_and_onset_are_published() {
    let rec = Arc::new(InMemoryRecorder::new());
    let mut e = Engine::new(
        EngineConfig::new(4, 32),
        AdaptiveLowestLevel,
        Mrl99Schedule::new(3),
        11,
    );
    e.set_metrics(MetricsHandle::new(rec.clone()));
    for v in scrambled(50_000) {
        e.insert(v);
    }
    e.finish();

    assert!(e.sampling_started(), "stream long enough to start sampling");
    assert!(rec.counter_value(metrics::RATE_TRANSITIONS) >= 1);
    assert_eq!(
        rec.gauge_value(metrics::RATE_CURRENT),
        Some(e.current_rate() as f64)
    );
    let onset = e.stats().sampling_onset_n.expect("onset recorded");
    assert_eq!(
        rec.gauge_value(metrics::SAMPLING_ONSET_N),
        Some(onset as f64),
        "onset gauge set exactly once, at the recorded N"
    );
    let draws = rec
        .gauge_value(metrics::SAMPLER_DRAWS)
        .expect("sampler draws gauge");
    assert!(draws > 0.0, "sampling must have consumed randomness");
}

#[test]
fn disabled_handle_is_the_default_and_records_nothing() {
    let mut e = Engine::new(
        EngineConfig::new(4, 8),
        AdaptiveLowestLevel,
        FixedRate::new(1),
        3,
    );
    assert!(!e.metrics().is_enabled());
    for v in 0..200u64 {
        e.insert(v);
    }
    e.finish();
    // Attach a recorder only now: nothing retroactive appears.
    let rec = Arc::new(InMemoryRecorder::new());
    e.set_metrics(MetricsHandle::new(rec.clone()));
    assert_eq!(rec.snapshot().series_count(), 0);
}
