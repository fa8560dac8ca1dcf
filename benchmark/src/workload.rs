//! The five workloads: inputs generated from the seed, and the runner of
//! one unit of work (a sketch, a group, or a pipeline run).
//!
//! Every workload feeds uniform `u64` values below 2^40 to sketches built
//! from one certified `UnknownNConfig` (ε = 0.01, δ = 1e-4), in
//! `insert_batch` chunks of 4096, closed-loop from one thread (`sharded_1`
//! adds its one worker thread). Only calls into the public API are timed;
//! generating inputs and checking answers happen outside the timers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mrl_core::{EpsilonAudit, UnknownN, UnknownNConfig};
use mrl_obs::{JournalHandle, MetricsHandle};
use mrl_parallel::ShardedSketch;

use crate::stats::rank_error;

pub const EPSILON: f64 = 0.01;
pub const DELTA: f64 = 1e-4;
/// Elements per `insert_batch` call.
pub const CHUNK: usize = 4096;
/// The φ grid of every fresh and cached `query_many`.
pub const PHIS: [f64; 11] = [
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999,
];
/// Values are uniform below 2^40: five live radix digits, as in the
/// repository's other throughput measurements.
const VALUE_BITS: u32 = 40;
/// Repeated `query_many` calls per cached-query sample.
const CACHED_BATCH: u32 = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2^32-element sketches replaying the buffer: the sampling rate climbs
    /// to 32768, so ingest is block-sampler draws plus high-level collapses.
    Bulk,
    /// Many 2^18-element sketches below sampling onset (GROUP-BY shape):
    /// parked-raw seals and every collapse route, no sampler.
    Groups,
    /// As `Groups`, but each group arrives as ascending runs of 4096:
    /// presorted and run-merge seals, walk collapses.
    GroupsRuns,
    /// 2^27-element sketches queried after every 2^13 elements: each fresh
    /// query rebuilds the query spine.
    Online,
    /// `ShardedSketch` with one shard over 2^29 elements: the pipeline
    /// hand-off against `Bulk` as its single-thread baseline. The first
    /// few steps of a stream, while the worker samples at low rates, are
    /// the slowest; at 2^29 they are about 1% of the steps, so p99 lands
    /// among them rather than on the edge between them and steps slowed
    /// by other load, where it jumps from run to run.
    Sharded1,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Bulk,
        Workload::Groups,
        Workload::GroupsRuns,
        Workload::Online,
        Workload::Sharded1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Groups => "groups",
            Workload::GroupsRuns => "groups_runs",
            Workload::Online => "online",
            Workload::Sharded1 => "sharded_1",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size parameters the benchmark runs.
    pub fn params(self) -> Params {
        let (unit_len, segment, query_every, cached_every) = match self {
            Workload::Bulk => (1 << 32, 1 << 20, 1 << 32, 1),
            Workload::Groups | Workload::GroupsRuns => (1 << 18, 1 << 18, 1 << 18, 1),
            Workload::Online => (1 << 27, 1 << 13, 1 << 13, 64),
            Workload::Sharded1 => (1 << 29, 1 << 20, 1 << 29, 1),
        };
        Params {
            buffer_len: 1 << 24,
            unit_len,
            segment,
            query_every,
            cached_every,
        }
    }

    /// The operation whose latency the workload reports: the one its user
    /// waits for, and one a run has well over a thousand of, so that p99
    /// has at least ten samples beyond it.
    pub fn latency_op(self) -> LatencyOp {
        match self {
            Workload::Bulk | Workload::Sharded1 => LatencyOp::Segment,
            Workload::Groups | Workload::GroupsRuns => LatencyOp::Unit,
            Workload::Online => LatencyOp::Query,
        }
    }

    /// Journal ring capacity for one traced unit: room for every event
    /// the unit records, so the fold sees each exactly once.
    pub fn journal_capacity(self) -> usize {
        match self {
            Workload::Bulk => 1 << 16,
            Workload::Groups | Workload::GroupsRuns => 1 << 13,
            Workload::Online => 1 << 18,
            Workload::Sharded1 => 1 << 20,
        }
    }

    fn is_grouped(self) -> bool {
        matches!(self, Workload::Groups | Workload::GroupsRuns)
    }
}

/// What `latency_p50_us` and `latency_p99_us` time on a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyOp {
    /// One timed ingest step of `Params::segment` elements: how long the
    /// producer of a long stream waits for the sketch to take it.
    Segment,
    /// One unit (construction, ingest and its fresh query): one group.
    Unit,
    /// One fresh `query_many`, the first after new data.
    Query,
}

impl LatencyOp {
    pub fn name(self) -> &'static str {
        match self {
            LatencyOp::Segment => "segment",
            LatencyOp::Unit => "unit",
            LatencyOp::Query => "query",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Length of the generated buffer. Replaying workloads cycle through
    /// it; grouped workloads cut it into windows of `unit_len`.
    pub buffer_len: usize,
    /// Elements one unit ingests.
    pub unit_len: u64,
    /// Elements per timed ingest step; divides `query_every`.
    pub segment: u64,
    /// Elements between two fresh queries (`unit_len`: one, at the end).
    pub query_every: u64,
    /// Fresh queries between two batches of repeated, cached queries.
    pub cached_every: u64,
}

/// SplitMix64: the input generator, fixed here so that a seed names the
/// same inputs whatever the repository's RNG does.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Inputs {
    /// The stream source, in arrival order.
    pub data: Vec<u64>,
    /// The rank oracle: `data` sorted, per window for grouped workloads.
    pub oracle: Vec<u64>,
}

impl Inputs {
    pub fn generate(workload: Workload, params: &Params, seed: u64) -> Self {
        assert!(params.buffer_len.is_multiple_of(CHUNK));
        let mut state = seed;
        let mut data: Vec<u64> = (0..params.buffer_len)
            .map(|_| splitmix64(&mut state) >> (64 - VALUE_BITS))
            .collect();
        if workload == Workload::GroupsRuns {
            for run in data.chunks_mut(CHUNK) {
                run.sort_unstable();
            }
        }
        let window = if workload.is_grouped() {
            params.unit_len as usize
        } else {
            data.len()
        };
        let mut oracle = data.clone();
        for w in oracle.chunks_mut(window) {
            w.sort_unstable();
        }
        Self { data, oracle }
    }
}

/// What one unit measured, beyond the samples it pushed.
#[derive(Clone, Debug)]
pub struct UnitEnd {
    /// Wall time of the whole unit, checks included.
    pub wall: Duration,
    pub onset_n: u64,
    pub leaves: u64,
    pub collapses: u64,
    /// Fraction of the ε budget the deterministic tree has spent.
    pub headroom: f64,
}

/// End-to-end samples gathered over a run's units.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per unit: elements over the time spent ingesting them.
    pub ingest_melem_s: Vec<f64>,
    /// Per ingest step of `Params::segment` elements.
    pub segment_us: Vec<f64>,
    /// Per unit: construction, ingest and fresh queries.
    pub unit_us: Vec<f64>,
    /// Per fresh `query_many`.
    pub query_us: Vec<f64>,
    /// Per batch of repeated `query_many` calls, the mean call.
    pub cached_ns: Vec<f64>,
    /// Quantile answers checked against the oracle.
    pub checked: u64,
    /// Answers whose rank error exceeded εN.
    pub failed: u64,
    /// Largest rank error seen, in units of εN.
    pub worst_error: f64,
}

impl Samples {
    /// Empty samples with room for one unit's, so that recording them
    /// allocates nothing while that unit's heap is measured.
    pub fn with_room_for_one_unit(p: &Params) -> Self {
        let queries = (p.unit_len / p.query_every) as usize;
        Self {
            ingest_melem_s: Vec::with_capacity(1),
            segment_us: Vec::with_capacity((p.unit_len / p.segment) as usize),
            unit_us: Vec::with_capacity(1),
            query_us: Vec::with_capacity(queries),
            cached_ns: Vec::with_capacity(queries / p.cached_every as usize),
            ..Self::default()
        }
    }

    /// Drop the timings, keeping the checked answers: for a unit run
    /// before timing starts.
    pub fn discard_timings(&mut self) {
        for v in [
            &mut self.ingest_melem_s,
            &mut self.segment_us,
            &mut self.unit_us,
            &mut self.query_us,
            &mut self.cached_ns,
        ] {
            v.clear();
        }
    }

    pub fn latency_us(&self, op: LatencyOp) -> &[f64] {
        match op {
            LatencyOp::Segment => &self.segment_us,
            LatencyOp::Unit => &self.unit_us,
            LatencyOp::Query => &self.query_us,
        }
    }

    fn check(&mut self, answers: &[u64], sorted: &[u64], passes: u64) {
        let allowed = EPSILON * (sorted.len() as u64 * passes) as f64;
        for (&phi, &answer) in PHIS.iter().zip(answers) {
            let err = rank_error(sorted, passes, phi, answer) as f64 / allowed;
            self.worst_error = self.worst_error.max(err);
            self.checked += 1;
            if err > 1.0 {
                self.failed += 1;
            }
        }
    }
}

/// Insert `len` elements of `src`, starting at stream position `from` and
/// wrapping around, in `CHUNK`-element calls.
fn feed(mut insert: impl FnMut(&[u64]), src: &[u64], from: u64, len: u64) {
    let mut pos = (from % src.len() as u64) as usize;
    let mut left = len;
    while left > 0 {
        let take = (src.len() - pos).min(CHUNK).min(left as usize);
        insert(&src[pos..pos + take]);
        pos = (pos + take) % src.len();
        left -= take as u64;
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean nanoseconds of one repeated `query_many` against unchanged state.
fn cached_batch(query: impl Fn() -> Option<Vec<u64>>) -> f64 {
    let started = Instant::now();
    for _ in 0..CACHED_BATCH {
        black_box(query());
    }
    started.elapsed().as_nanos() as f64 / f64::from(CACHED_BATCH)
}

pub struct Runner<'a> {
    pub workload: Workload,
    pub params: Params,
    pub inputs: &'a Inputs,
    pub config: &'a UnknownNConfig,
    pub seed: u64,
}

impl Runner<'_> {
    /// Run unit `unit`, recording into `journal` (disabled for untimed
    /// tracing-free runs: every span then costs one branch).
    pub fn run_unit(&self, unit: u64, journal: &JournalHandle, samples: &mut Samples) -> UnitEnd {
        match self.workload {
            Workload::Sharded1 => self.pipeline_unit(unit, journal, samples),
            _ => self.sketch_unit(unit, journal, samples),
        }
    }

    /// Sketch seed of a unit: detached and traced runs of one unit do the
    /// same work.
    fn unit_seed(&self, unit: u64) -> u64 {
        let mut state = self.seed ^ unit.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix64(&mut state)
    }

    /// The stream source and rank oracle of a unit.
    fn source(&self, unit: u64) -> (&[u64], &[u64]) {
        let Inputs { data, oracle } = self.inputs;
        if self.workload.is_grouped() {
            let len = self.params.unit_len as usize;
            let at = (unit as usize % (data.len() / len)) * len;
            (&data[at..at + len], &oracle[at..at + len])
        } else {
            (data, oracle)
        }
    }

    fn sketch_unit(&self, unit: u64, journal: &JournalHandle, s: &mut Samples) -> UnitEnd {
        let p = &self.params;
        let (src, oracle) = self.source(unit);
        let oracle_len = oracle.len() as u64;
        let started = Instant::now();
        let mut sketch = UnknownN::from_config(self.config.clone(), self.unit_seed(unit));
        sketch.set_journal(journal.clone());
        // Construction, ingest and fresh queries: what a user waits for.
        let mut busy = started.elapsed();
        let mut ingest = Duration::ZERO;
        let mut fed = 0u64;
        let mut queries = 0u64;
        while fed < p.unit_len {
            let t = Instant::now();
            {
                let _span = journal.span("ingest");
                feed(|c| sketch.insert_batch(c), src, fed, p.segment);
            }
            let dt = t.elapsed();
            ingest += dt;
            busy += dt;
            s.segment_us.push(micros(dt));
            fed += p.segment;
            if !fed.is_multiple_of(p.query_every) {
                continue;
            }

            let t = Instant::now();
            let answers = {
                let _span = journal.span("query");
                sketch.query_many(&PHIS)
            }
            .expect("a sketch with input answers queries");
            let dt = t.elapsed();
            busy += dt;
            s.query_us.push(micros(dt));
            queries += 1;

            if fed.is_multiple_of(oracle_len) {
                s.check(&answers, oracle, fed / oracle_len);
            }
            if queries.is_multiple_of(p.cached_every) {
                s.cached_ns.push(cached_batch(|| sketch.query_many(&PHIS)));
            }
        }
        s.ingest_melem_s
            .push(fed as f64 / ingest.as_secs_f64() / 1e6);
        s.unit_us.push(micros(busy));
        let stats = sketch.stats();
        UnitEnd {
            wall: started.elapsed(),
            onset_n: stats.sampling_onset_n.unwrap_or(0),
            leaves: stats.leaves,
            collapses: stats.collapses,
            headroom: sketch.audit().headroom,
        }
    }

    fn pipeline_unit(&self, unit: u64, journal: &JournalHandle, s: &mut Samples) -> UnitEnd {
        let p = &self.params;
        let (src, oracle) = self.source(unit);
        let started = Instant::now();
        let outcome = {
            let _span = journal.span("ingest");
            let mut sharded = ShardedSketch::from_config_with_obs(
                self.config.clone(),
                1,
                self.unit_seed(unit),
                MetricsHandle::disabled(),
                journal.clone(),
            );
            let mut fed = 0;
            while fed < p.unit_len {
                let t = Instant::now();
                feed(|c| sharded.insert_batch(c), src, fed, p.segment);
                s.segment_us.push(micros(t.elapsed()));
                fed += p.segment;
            }
            let _finish = journal.span("finish");
            sharded.finish().expect("no shard worker panics")
        };
        let ingest = started.elapsed();

        let t = Instant::now();
        let answers = {
            let _span = journal.span("query");
            outcome.query_many(&PHIS)
        }
        .expect("a sketch with input answers queries");
        let query = t.elapsed();
        s.query_us.push(micros(query));
        s.ingest_melem_s
            .push(p.unit_len as f64 / ingest.as_secs_f64() / 1e6);
        s.unit_us.push(micros(ingest + query));
        s.check(&answers, oracle, p.unit_len / oracle.len() as u64);
        s.cached_ns.push(cached_batch(|| outcome.query_many(&PHIS)));

        let stats = &outcome.telemetry().merged;
        // The coordinator keeps no buffer weights, so the tree bound is
        // taken with w_max = 0: a lower bound on the spent budget.
        let audit = EpsilonAudit::from_parts(
            stats.elements,
            EPSILON,
            self.config.alpha,
            stats.tree_error_bound(0),
            stats.hoeffding_x(),
            stats.sampling_onset_n.is_some(),
            1,
        );
        UnitEnd {
            wall: started.elapsed(),
            onset_n: stats.sampling_onset_n.unwrap_or(0),
            leaves: stats.leaves,
            collapses: stats.collapses,
            headroom: audit.headroom,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The certified configuration `UnknownN::new(0.01, 1e-4)` picks, fixed
    /// so that debug-build tests skip the optimizer search.
    pub(crate) fn config() -> UnknownNConfig {
        UnknownNConfig {
            b: 5,
            k: 726,
            h: 8,
            alpha: 0.606_032_732_925_166_2,
            epsilon: EPSILON,
            delta: DELTA,
            memory: 5 * 726,
        }
    }

    /// Toy parameters with the same shape as the full-size ones.
    pub(crate) fn toy(workload: Workload) -> Params {
        let full = workload.params();
        let shrink = |n: u64| (n >> 10).max(CHUNK as u64);
        let (unit_len, segment, query_every) = match workload {
            Workload::Groups | Workload::GroupsRuns => (1 << 13, 1 << 13, 1 << 13),
            Workload::Online => (shrink(full.unit_len), 2 * CHUNK as u64, 2 * CHUNK as u64),
            Workload::Bulk | Workload::Sharded1 => (
                shrink(full.unit_len),
                shrink(full.segment),
                shrink(full.unit_len),
            ),
        };
        Params {
            buffer_len: 1 << 16,
            unit_len,
            segment,
            query_every,
            cached_every: full.cached_every.min(4),
        }
    }

    #[test]
    fn full_size_steps_divide_the_unit() {
        for w in Workload::ALL {
            let p = w.params();
            assert!(p.query_every.is_multiple_of(p.segment), "{}", w.name());
            assert!(p.unit_len.is_multiple_of(p.query_every), "{}", w.name());
            assert!(p.segment.is_multiple_of(CHUNK as u64), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let p = toy(Workload::Bulk);
        let a = Inputs::generate(Workload::Bulk, &p, 7);
        let b = Inputs::generate(Workload::Bulk, &p, 7);
        let c = Inputs::generate(Workload::Bulk, &p, 8);
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, c.data);
        assert!(a.data.iter().all(|&v| v < 1 << VALUE_BITS));
        assert!(a.oracle.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn grouped_runs_are_ascending_and_share_the_window_oracle() {
        let p = toy(Workload::GroupsRuns);
        let runs = Inputs::generate(Workload::GroupsRuns, &p, 3);
        let random = Inputs::generate(Workload::Groups, &p, 3);
        assert!(runs
            .data
            .chunks(CHUNK)
            .all(|r| r.windows(2).all(|w| w[0] <= w[1])));
        assert_ne!(runs.data, random.data);
        assert_eq!(runs.oracle, random.oracle);
    }

    #[test]
    fn feed_wraps_around_in_chunks() {
        let src: Vec<u64> = (0..3 * CHUNK as u64).collect();
        let mut calls = Vec::new();
        feed(
            |c| calls.push((c[0], c.len())),
            &src,
            2 * CHUNK as u64,
            2 * CHUNK as u64,
        );
        assert_eq!(calls, vec![(2 * CHUNK as u64, CHUNK), (0, CHUNK)]);
    }

    #[test]
    fn every_workload_runner_answers_within_epsilon_at_toy_size() {
        let config = config();
        for w in Workload::ALL {
            let params = toy(w);
            let inputs = Inputs::generate(w, &params, 11);
            let runner = Runner {
                workload: w,
                params,
                inputs: &inputs,
                config: &config,
                seed: 11,
            };
            // The first unit records into exactly the room reserved for one.
            let mut s = Samples::with_room_for_one_unit(&params);
            let room = [
                s.ingest_melem_s.capacity(),
                s.segment_us.capacity(),
                s.unit_us.capacity(),
                s.query_us.capacity(),
                s.cached_ns.capacity(),
            ];
            runner.run_unit(0, &JournalHandle::disabled(), &mut s);
            let name = w.name();
            let filled = [
                s.ingest_melem_s.len(),
                s.segment_us.len(),
                s.unit_us.len(),
                s.query_us.len(),
                s.cached_ns.len(),
            ];
            assert_eq!(filled, room, "{name}");
            let last = runner.run_unit(1, &JournalHandle::disabled(), &mut s);
            assert!(s.checked >= 2 * PHIS.len() as u64, "{name}: {s:?}");
            assert_eq!(s.failed, 0, "{name}: {s:?}");
            assert_eq!(s.ingest_melem_s.len(), 2, "{name}");
            assert_eq!(s.unit_us.len(), 2, "{name}");
            let segments = params.unit_len / params.segment;
            assert_eq!(s.segment_us.len() as u64, 2 * segments, "{name}");
            let fresh = params.unit_len / params.query_every;
            assert_eq!(s.query_us.len() as u64, 2 * fresh, "{name}");
            assert_eq!(
                s.cached_ns.len() as u64,
                2 * (fresh / params.cached_every),
                "{name}"
            );
            assert!(!s.latency_us(w.latency_op()).is_empty(), "{name}");
            assert!(last.leaves > 0 && last.collapses > 0, "{name}: {last:?}");
            let checked = s.checked;
            s.discard_timings();
            assert!(s.segment_us.is_empty() && s.query_us.is_empty(), "{name}");
            assert_eq!(s.checked, checked, "{name}");
        }
    }
}
