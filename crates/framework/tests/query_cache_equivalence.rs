//! Differential property tests for the epoch-cached query spine
//! (DESIGN.md §3.13): two engines fed the identical interleaved
//! insert/query sequence — one serving reads from the cached spine, one
//! with the cache force-disabled so every read re-runs the direct
//! weighted merge — must answer every `query_many`, `rank_of`, and `cdf`
//! call identically, at every prefix of the stream and after `finish`.
//!
//! The long-stream property reads far past sampling onset at short gaps,
//! so most reads fall inside one fill: there the spine reuses its sealed
//! part and merges in only the fill and the pending block.

use mrl_framework::{AdaptiveLowestLevel, Engine, EngineConfig, Mrl99Schedule};
use proptest::prelude::*;

type E = Engine<u64, AdaptiveLowestLevel, Mrl99Schedule>;

fn engines(b: usize, k: usize, seed: u64) -> (E, E) {
    let cached = Engine::new(
        EngineConfig::new(b, k),
        AdaptiveLowestLevel,
        Mrl99Schedule::new(2),
        seed,
    );
    let mut direct = Engine::new(
        EngineConfig::new(b, k),
        AdaptiveLowestLevel,
        Mrl99Schedule::new(2),
        seed,
    );
    direct.set_query_cache_enabled(false);
    (cached, direct)
}

fn assert_reads_agree(cached: &E, direct: &E, phis: &[f64], probe: u64) {
    assert_eq!(cached.query_many(phis), direct.query_many(phis));
    assert_eq!(cached.rank_of(&probe), direct.rank_of(&probe));
    assert_eq!(cached.cdf(), direct.cdf());
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `1..=max`.
fn draw(state: &mut u64, max: u64) -> usize {
    (1 + splitmix64(state) % max) as usize
}

/// Feed the same `len` stream values to both engines, as one batch, two
/// batches, or single inserts.
fn feed_both(cached: &mut E, direct: &mut E, state: &mut u64, len: usize, ties: bool) {
    let values: Vec<u64> = (0..len)
        .map(|_| {
            let v = splitmix64(state);
            if ties {
                v % 7
            } else {
                v
            }
        })
        .collect();
    match splitmix64(state) % 3 {
        0 => {
            cached.insert_batch(&values);
            direct.insert_batch(&values);
        }
        1 => {
            let (head, tail) = values.split_at(draw(state, len as u64) - 1);
            for part in [head, tail] {
                cached.insert_batch(part);
                direct.insert_batch(part);
            }
        }
        _ => {
            for &v in &values {
                cached.insert(v);
                direct.insert(v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleaved_inserts_and_reads_answer_identically(
        ops in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..500),
        b in 2usize..6,
        k_exp in 2u32..7,
        seed in any::<u64>(),
    ) {
        let k = 1usize << k_exp;
        let (mut cached, mut direct) = engines(b, k, seed);
        let phis = [0.01, 0.25, 0.5, 0.75, 0.99];
        for (value, op) in ops {
            // Mostly inserts, with reads sprinkled at arbitrary prefixes
            // (including mid-fill, right after seals, and after
            // collapses) and occasional batch inserts.
            match op % 8 {
                0 => assert_reads_agree(&cached, &direct, &phis, value),
                1 => {
                    let batch = [value, value ^ 0xFF, value % 97];
                    cached.insert_batch(&batch);
                    direct.insert_batch(&batch);
                }
                _ => {
                    cached.insert(value);
                    direct.insert(value);
                }
            }
        }
        assert_reads_agree(&cached, &direct, &phis, 42);
        // Repeated reads with no interleaved ingest hit the warm spine.
        assert_reads_agree(&cached, &direct, &phis, 7);
        cached.finish();
        direct.finish();
        assert_reads_agree(&cached, &direct, &phis, 42);
        prop_assert_eq!(cached.ingest_epoch(), direct.ingest_epoch());
    }

    #[test]
    fn reenabling_the_cache_rebuilds_a_fresh_spine(
        items in proptest::collection::vec(any::<u64>(), 1..300),
        seed in any::<u64>(),
    ) {
        let (mut cached, mut direct) = engines(3, 32, seed);
        for chunk in items.chunks(3) {
            cached.insert_batch(chunk);
            direct.insert_batch(chunk);
        }
        // Warm the spine, disable (dropping it), re-enable, and read
        // again: the rebuilt spine must match the direct path.
        let phis = [0.1, 0.5, 0.9];
        prop_assert_eq!(cached.query_many(&phis), direct.query_many(&phis));
        cached.set_query_cache_enabled(false);
        prop_assert_eq!(cached.query_many(&phis), direct.query_many(&phis));
        cached.set_query_cache_enabled(true);
        prop_assert_eq!(cached.query_many(&phis), direct.query_many(&phis));
        prop_assert_eq!(cached.cdf(), direct.cdf());
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy interpreted loop; native jobs cover it")]
    fn long_streams_read_inside_fills_answer_identically(
        b in 2usize..5,
        k_exp in 2u32..5,
        len in 2_000usize..20_001,
        ties in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 1usize << k_exp;
        let (mut cached, mut direct) = engines(b, k, seed);
        // In half the cases values fall in 0..7, so fill values, the
        // pending representative and sealed values tie.
        let mut state = seed;
        let phis = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
        let (mut collapsed, mut toggled, mut restored) = (false, false, false);
        let mut fed = 0;
        while fed < len {
            // A read every 1–64 elements, fed in random chunk sizes.
            let gap = draw(&mut state, 64).min(len - fed);
            feed_both(&mut cached, &mut direct, &mut state, gap, ties);
            fed += gap;
            let probe = if ties { splitmix64(&mut state) % 8 } else { splitmix64(&mut state) };
            assert_reads_agree(&cached, &direct, &phis, probe);
            if !collapsed && fed >= len / 4 {
                collapsed = true;
                cached.collapse_all_full();
                direct.collapse_all_full();
                assert_reads_agree(&cached, &direct, &phis, probe);
            }
            if !toggled && fed >= len / 2 {
                // Disabling drops both parts of the warm spine; ingest
                // while disabled, then re-enable mid-fill.
                toggled = true;
                cached.set_query_cache_enabled(false);
                assert_reads_agree(&cached, &direct, &phis, probe);
                let more = draw(&mut state, 8).min(len - fed);
                feed_both(&mut cached, &mut direct, &mut state, more, ties);
                fed += more;
                assert_reads_agree(&cached, &direct, &phis, probe);
                cached.set_query_cache_enabled(true);
                assert_reads_agree(&cached, &direct, &phis, probe);
            }
            if !restored && fed >= 3 * len / 4 {
                // Restore both twins from snapshots taken mid-fill, with
                // one seed, and keep the restored direct twin uncached.
                let snapshot = cached.snapshot();
                if snapshot.filling && !snapshot.filler.is_empty() {
                    restored = true;
                    let restore_seed = splitmix64(&mut state);
                    cached = Engine::restore(snapshot, AdaptiveLowestLevel, restore_seed);
                    direct = Engine::restore(direct.snapshot(), AdaptiveLowestLevel, restore_seed);
                    direct.set_query_cache_enabled(false);
                    assert_reads_agree(&cached, &direct, &phis, probe);
                }
            }
        }
        prop_assert!(collapsed && toggled && restored);
        cached.finish();
        direct.finish();
        assert_reads_agree(&cached, &direct, &phis, 3);
        assert_reads_agree(&cached, &direct, &phis, 3);
    }
}
