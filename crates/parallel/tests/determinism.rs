//! Golden determinism test: two same-seed runs must be bitwise
//! identical even when worker timing is deliberately perturbed. This is
//! the dynamic half of the MRL-A008 contract — the pass certifies no
//! unseeded RNG / hash iteration / clock read / recv completion order
//! reaches the results statically; this test drives the sharded
//! pipeline and the §6 runner under staggered sleeps and background CPU
//! churn (exactly the schedule noise that would expose a surviving
//! completion-order dependence) and pins the full observable surface:
//! a 99-point quantile grid, `rank_of`, `total_n`, and a canonical byte
//! serialization of the coordinator's final buffers.
//!
//! A second oracle pins the pipeline to its definition: one
//! `UnknownN` per shard, fed round-robin slices of the stream and merged
//! at a coordinator. The pipeline samples on the producer and ships only
//! the fills; its answers must match that hand-built pipeline byte for
//! byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mrl_core::{OptimizerOptions, UnknownN, UnknownNConfig};
use mrl_framework::{
    AdaptiveLowestLevel, Buffer, BufferState, CollapseDecision, Mrl99Schedule, Tree, TreeStats,
};
use mrl_parallel::{parallel_quantiles, Coordinator, ShardedSketch, DEFAULT_SHARD_BATCH};

/// Canonical little-endian serialization of the coordinator's buffers:
/// per buffer its state tag, weight, length, then the elements. Two
/// runs agree on these bytes only if every buffer's contents, weight,
/// and order match exactly.
fn canonical_bytes(buffers: &[Buffer<u64>]) -> Vec<u8> {
    let mut out = Vec::new();
    for buf in buffers {
        out.push(match buf.state() {
            BufferState::Empty => 0u8,
            BufferState::Partial => 1,
            BufferState::Full => 2,
        });
        out.extend_from_slice(&buf.weight().to_le_bytes());
        out.extend_from_slice(&(buf.data().len() as u64).to_le_bytes());
        for v in buf.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Threads that burn CPU until dropped, stealing cycles from the shard
/// workers so their completion order varies between runs.
struct Churn {
    stop: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Churn {
    fn start(threads: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..threads)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        std::hint::black_box(x);
                    }
                })
            })
            .collect();
        Self { stop, handles }
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            h.join().ok();
        }
    }
}

/// Everything a sharded run exposes, pinned for bitwise comparison.
#[derive(PartialEq, Debug)]
struct Observed {
    grid: Vec<u64>,
    total_n: u64,
    rank: Option<(f64, f64)>,
    buffer_bytes: Vec<u8>,
}

/// One sharded-pipeline run. The caller-side chunk sequence is fixed
/// (chunking is part of the input); `perturb` adds scheduling noise
/// only — staggered sleeps between dispatched chunks and CPU churn.
fn sharded_run(data: &[u64], seed: u64, perturb: bool) -> Observed {
    let _churn = perturb.then(|| Churn::start(4));
    let mut sketch = ShardedSketch::<u64>::new(3, 0.05, 0.01, OptimizerOptions::fast(), seed);
    for (i, chunk) in data.chunks(997).enumerate() {
        sketch.insert_batch(chunk);
        if perturb && i % 11 == 0 {
            thread::sleep(Duration::from_micros(300));
        }
    }
    let outcome = sketch.finish().expect("no worker panics");
    let phis: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
    let grid = outcome.query_many(&phis).expect("non-empty input");
    let total_n = outcome.total_n();
    let rank = outcome.rank_of(&(data.len() as u64 / 2));
    let buffer_bytes = canonical_bytes(&outcome.into_coordinator().into_buffers());
    Observed {
        grid,
        total_n,
        rank,
        buffer_bytes,
    }
}

fn skewed_data(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 2654435761) % n).collect()
}

#[test]
fn same_seed_sharded_runs_are_bitwise_identical_under_timing_noise() {
    let data = skewed_data(120_000);
    let calm = sharded_run(&data, 0xD5EA_D001, false);
    let noisy = sharded_run(&data, 0xD5EA_D001, true);
    let noisy2 = sharded_run(&data, 0xD5EA_D001, true);
    assert_eq!(calm, noisy, "timing perturbation changed the results");
    assert_eq!(noisy, noisy2, "two perturbed runs disagree");
    assert_eq!(calm.total_n, 120_000);
}

#[test]
fn different_seeds_actually_change_the_sampled_state() {
    // Guards the test above against vacuous equality (e.g. the seed
    // being ignored): with sampling engaged, different seeds must
    // produce different coordinator buffers.
    let data = skewed_data(120_000);
    let a = sharded_run(&data, 1, false);
    let b = sharded_run(&data, 2, false);
    assert_eq!(a.total_n, b.total_n);
    assert_ne!(
        a.buffer_bytes, b.buffer_bytes,
        "seed must reach the samplers"
    );
}

#[test]
fn same_seed_runner_is_identical_despite_uneven_worker_finish_order() {
    // §6 runner: wildly unbalanced inputs finish in arbitrary order;
    // the indexed shipment sort must make the merge order — and thus
    // the answers — a pure function of (inputs, seed).
    let inputs: Vec<Vec<u64>> = vec![
        (0..200_000u64).map(|i| (i * 48271) % 500_000).collect(),
        (0..500u64).map(|i| i * 7).collect(),
        vec![42u64],
        (0..60_000u64).map(|i| (i * 2654435761) % 500_000).collect(),
    ];
    let phis = [0.05, 0.25, 0.5, 0.75, 0.95];
    let run = |perturb: bool| {
        let _churn = perturb.then(|| Churn::start(4));
        parallel_quantiles(
            inputs.clone(),
            0.05,
            0.01,
            &phis,
            OptimizerOptions::fast(),
            7,
        )
        .expect("non-empty input")
    };
    let calm = run(false);
    let noisy = run(true);
    let noisy2 = run(true);
    assert_eq!(calm.quantiles, noisy.quantiles);
    assert_eq!(noisy.quantiles, noisy2.quantiles);
    assert_eq!(calm.total_n, noisy.total_n);
}

/// The certified configuration both sides of the oracle run.
fn oracle_config() -> UnknownNConfig {
    mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast())
}

/// What the oracle compares: elements, each shard's exact accounting,
/// and the coordinator's final buffers.
#[derive(PartialEq, Debug)]
struct Merged {
    total_n: u64,
    per_shard: Vec<TreeStats>,
    buffer_bytes: Vec<u8>,
}

/// How a shard's stream ended, as seen by the reference engines.
#[derive(Default, Debug)]
struct Endings {
    mid_block: bool,
    fill_boundary: bool,
}

/// The pipeline built by hand: one `UnknownN` per shard, seeded as the
/// pipeline seeds shard `i`, fed round-robin `batch`-sized slices of the
/// stream through `insert_batch`, shipped with
/// `into_shipment_with_stats` and merged by `Coordinator::from_shipments`.
fn reference(data: &[u64], shards: usize, batch: usize, seed: u64) -> (Merged, Endings) {
    let config = oracle_config();
    let mut sketches: Vec<UnknownN<u64>> = (0..shards)
        .map(|i| {
            let shard_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            UnknownN::from_config(config.clone(), shard_seed)
        })
        .collect();
    for (j, slice) in data.chunks(batch).enumerate() {
        sketches[j % shards].insert_batch(slice);
    }
    let mut endings = Endings::default();
    let mut per_shard = Vec::new();
    let mut shipments = Vec::new();
    for sketch in sketches {
        if sketch.n() > 0 {
            endings.mid_block |= sketch.n() != sketch.stats().elements;
            endings.fill_boundary |= sketch.n() == sketch.stats().elements
                && sketch.n()
                    == sketch
                        .stats()
                        .leaves_by_level
                        .iter()
                        .map(|(&level, &count)| count * config.k as u64 * (1u64 << level))
                        .sum::<u64>();
        }
        let (n, stats, buffers) = sketch.into_shipment_with_stats();
        per_shard.push(stats);
        shipments.push((n, buffers));
    }
    let (coordinator, total_n) =
        Coordinator::from_shipments(config.b, config.k, seed ^ 0x00C0_FFEE, shipments);
    let merged = Merged {
        total_n,
        per_shard,
        buffer_bytes: canonical_bytes(&coordinator.into_buffers()),
    };
    (merged, endings)
}

/// How the caller hands the stream to the pipeline.
#[derive(Clone, Copy, Debug)]
enum Feed {
    Chunks(usize),
    Insert,
    Extend,
}

const FEEDS: [Feed; 7] = [
    Feed::Chunks(1),
    Feed::Chunks(33),
    Feed::Chunks(997),
    Feed::Chunks(4096),
    Feed::Chunks(10_000),
    Feed::Insert,
    Feed::Extend,
];

fn pipeline(data: &[u64], shards: usize, batch: usize, seed: u64, feed: Feed) -> Merged {
    let mut sketch = ShardedSketch::<u64>::from_config(oracle_config(), shards, seed);
    if batch != DEFAULT_SHARD_BATCH {
        sketch = sketch.with_batch_size(batch);
    }
    match feed {
        Feed::Chunks(chunk) => data.chunks(chunk).for_each(|c| sketch.insert_batch(c)),
        Feed::Insert => data.iter().for_each(|&v| sketch.insert(v)),
        Feed::Extend => sketch.extend(data.iter().copied()),
    }
    let outcome = sketch.finish().expect("no worker panics");
    let total_n = outcome.total_n();
    let per_shard = outcome.telemetry().per_shard.clone();
    Merged {
        total_n,
        per_shard,
        buffer_bytes: canonical_bytes(&outcome.into_coordinator().into_buffers()),
    }
}

/// Stream elements a lone shard has consumed when its `fills`-th fill
/// completes, and the rate of the fill after it: read off a bare tree,
/// which assigns each fill of `k` its rate.
fn fill_boundary(config: &UnknownNConfig, fills: u64) -> (u64, u64) {
    let mut tree = Tree::new(config.b, AdaptiveLowestLevel, Mrl99Schedule::new(config.h))
        .expect("certified configs build a tree");
    let mut decision = CollapseDecision::default();
    let mut elements = 0;
    for _ in 0..fills {
        elements += config.k as u64 * tree.begin_fill(&mut decision).rate;
        tree.complete_fill();
    }
    (elements, tree.begin_fill(&mut decision).rate)
}

fn oracle_data(n: u64, seed: u64) -> Vec<u64> {
    (0..n)
        .map(|i| i.wrapping_mul(6364136223846793005).wrapping_add(seed) >> 20)
        .collect()
}

#[test]
fn pipeline_matches_the_hand_built_parent_for_every_feed() {
    for seed in [3u64, 0xBEEF] {
        // Long enough that every shard samples at rates above 1, ending
        // mid-block.
        let data = oracle_data(400_001, seed);
        for shards in [1usize, 2, 3] {
            for batch in [DEFAULT_SHARD_BATCH, 64] {
                let (want, endings) = reference(&data, shards, batch, seed);
                assert!(endings.mid_block, "shards={shards} batch={batch}");
                for feed in FEEDS {
                    assert_eq!(
                        pipeline(&data, shards, batch, seed, feed),
                        want,
                        "seed={seed} shards={shards} batch={batch} feed={feed:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn pipeline_matches_the_hand_built_parent_at_every_stream_ending() {
    let config = oracle_config();
    let (boundary, next_rate) = fill_boundary(&config, 300);
    assert!(next_rate > 1, "the boundary lies past the sampling onset");
    let lengths = [
        0,
        1,
        3_000_000,
        // A lone shard ends mid-block, a few blocks into the next fill.
        boundary + 5 * next_rate + next_rate / 2,
        // A lone shard ends exactly where its 300th fill completes.
        boundary,
    ];
    for seed in [5u64, 0xF00D] {
        for (i, &n) in lengths.iter().enumerate() {
            let data = oracle_data(n, seed);
            for shards in [1usize, 2, 3] {
                let (want, endings) = reference(&data, shards, DEFAULT_SHARD_BATCH, seed);
                if shards == 1 && i == 3 {
                    assert!(endings.mid_block && !endings.fill_boundary, "{endings:?}");
                }
                if shards == 1 && i == 4 {
                    assert!(endings.fill_boundary && !endings.mid_block, "{endings:?}");
                }
                for feed in [Feed::Chunks(997), Feed::Chunks(4096)] {
                    assert_eq!(
                        pipeline(&data, shards, DEFAULT_SHARD_BATCH, seed, feed),
                        want,
                        "seed={seed} n={n} shards={shards} feed={feed:?}"
                    );
                }
            }
        }
    }
}
