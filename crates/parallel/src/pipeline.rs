//! Sharded multi-core ingestion: a fixed worker pool fed round-robin
//! slices of one stream, sampled before the channel.
//!
//! [`crate::parallel_quantiles`] implements §6's literal setting — one
//! worker per pre-existing input sequence. [`ShardedSketch`] covers the
//! complementary case: **one** logical stream whose ingestion should use
//! several cores. The stream is cut into fixed-size slices dealt
//! round-robin to `P` shards; each shard runs the single-stream
//! unknown-`N` algorithm on the subsequence it receives, and the final
//! shipments are merged by the same [`Coordinator`] protocol. Because §6
//! allows *any* partition of the input into per-processor sequences, the
//! round-robin partition inherits the full `(ε, δ)` guarantee.
//!
//! `New` keeps one element per block of `r` (§3.1), and the rate of every
//! fill is a function of `(b, h)` alone (see [`Tree`]). So the producer
//! samples each slice in place, with the shard's own RNG and a data-free
//! replica of the shard's tree, and sends the shard only its completed
//! fills of `k` representatives, plus one end-of-stream tail. The shard's
//! engine takes them in at its own tree's rates
//! ([`UnknownN::insert_sampled`]) and ends up bit-for-bit where sampling
//! the slices itself would have put it: the block sampler makes the only
//! random draws, and both trees step alike.
//!
//! The channels are bounded ([`sync_channel`] with a small depth), so a
//! producer that outruns the workers blocks instead of buffering the
//! stream in memory — ingestion stays `O(shards · b · k)` no matter how
//! fast the input arrives.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use mrl_core::{OptimizerOptions, UnknownN, UnknownNConfig};
use mrl_framework::{
    sample_batch, AdaptiveLowestLevel, Buffer, CollapseDecision, FillFront, FillSink,
    Mrl99Schedule, Tree, TreeStats,
};
use mrl_obs::{EventKind, JournalHandle, Key, MetricsHandle};
use mrl_sampling::rng_from_seed;
use serde::{Deserialize, Serialize};

use crate::Coordinator;

/// Metric keys the sharded pipeline emits (on message granularity — one
/// message per completed fill of `k` representatives, plus one
/// end-of-stream tail per shard — so an attached recorder costs a few
/// atomic ops per fill).
pub mod metrics {
    use mrl_obs::Key;

    /// Gauge, labelled by shard: messages currently in flight on that
    /// shard's bounded channel.
    pub const QUEUE_DEPTH: &str = "pipeline.queue.depth";
    /// Counter: dispatches that found the target queue full and had to
    /// block (backpressure engagements).
    pub const DISPATCH_STALLS: Key = Key::new("pipeline.dispatch.stalls");
    /// Histogram: nanoseconds spent blocked per backpressure stall.
    pub const STALL_NS: Key = Key::new("pipeline.dispatch.stall_ns");
    /// Counter, labelled by shard: messages (sampled fills and the
    /// end-of-stream tail) that worker took in.
    pub const BATCHES: &str = "pipeline.shard.batches";
    /// Histogram, labelled by shard: nanoseconds per message taken in.
    pub const BATCH_NS: &str = "pipeline.shard.batch_ns";
    /// Gauge, labelled by shard: elements that worker has consumed.
    pub const SHARD_ELEMENTS: &str = "pipeline.shard.elements";
    /// Gauge: total stream elements the producer has sampled for the
    /// shards.
    pub const DISPATCHED: Key = Key::new("pipeline.dispatched");
}

/// Why a sharded ingestion run failed.
///
/// A worker that panics poisons only its own shard: the producer notices
/// (its channel disconnects), stops dispatching, and the failure surfaces
/// as a clean error from [`ShardedSketch::finish`] instead of aborting the
/// coordinator with a propagated panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardedError {
    /// The worker thread of `shard` panicked; the elements routed to it are
    /// lost, so no `(ε, δ)`-certified answer exists for this run.
    WorkerPanicked {
        /// Index of the poisoned shard, in `0..shards`.
        shard: usize,
    },
}

impl fmt::Display for ShardedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanicked { shard } => {
                write!(f, "shard {shard} worker panicked; sharded query aborted")
            }
        }
    }
}

impl std::error::Error for ShardedError {}

impl From<ShardedError> for std::io::Error {
    fn from(err: ShardedError) -> Self {
        std::io::Error::other(err)
    }
}

/// Default elements per round-robin slice: each shard samples one slice
/// of this many consecutive stream elements before the next shard's turn.
/// The producer samples slices in place; only completed fills cross the
/// channel, so the slice sets the partition of the stream, not the unit of
/// hand-off.
pub const DEFAULT_SHARD_BATCH: usize = 4096;

/// Bounded messages in flight per shard: enough to hide scheduling
/// jitter, small enough that backpressure engages before memory does. A
/// message is one fill of at most `k` representatives, so a channel holds
/// at most `QUEUE_DEPTH · k` elements.
const QUEUE_DEPTH: usize = 4;

/// What a worker thread returns when joined: elements ingested, the
/// shard's exact tree accounting, and its surviving buffers.
type ShardShipment<T> = (u64, TreeStats, Vec<Buffer<T>>);

/// One hand-off to a shard worker: a completed fill of `k`
/// representatives, or the shard's end-of-stream tail — the partial fill
/// and the incomplete block as `(representative, elements seen)`.
struct FillMessage<T> {
    reps: Vec<T>,
    pending: Option<(T, u64)>,
}

/// The seed of shard `i`'s sampler, on the producer and in its engine.
fn shard_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A shard's sampling state on the producer: the `New` front its engine
/// would run, seeded alike, and a replica of its engine's tree, which
/// gives every fill its rate.
#[derive(Debug)]
struct ShardFront<T> {
    front: FillFront<T>,
    tree: Tree<AdaptiveLowestLevel, Mrl99Schedule>,
    decision: CollapseDecision,
}

impl<T> ShardFront<T> {
    /// `None` for a configuration the shard's engine rejects (`b < 2`,
    /// `k = 0`, `h = 0`): its worker panics on it, and the producer must
    /// not.
    fn new(config: &UnknownNConfig, seed: u64) -> Option<Self> {
        if config.h == 0 {
            return None;
        }
        let tree = Tree::new(config.b, AdaptiveLowestLevel, Mrl99Schedule::new(config.h))?;
        let front = FillFront::new(config.k, tree.rate(), rng_from_seed(seed))?;
        Some(Self {
            front,
            tree,
            decision: CollapseDecision::default(),
        })
    }
}

/// The producer's end of every shard channel.
#[derive(Debug)]
struct Dispatch<T> {
    senders: Vec<SyncSender<FillMessage<T>>>,
    /// Messages in flight per shard channel (producer increments on send,
    /// worker decrements on receive); feeds the queue-depth gauges.
    queue_depths: Vec<Arc<AtomicU64>>,
    /// Spent fill storage returned by the workers; the next fill takes
    /// its storage from here, so the steady state recycles a fixed pool
    /// of fill allocations instead of allocating one per fill.
    recycle: Receiver<Vec<T>>,
    /// First shard observed dead (its channel disconnected, i.e. its worker
    /// panicked, or its tree could not be built). Once set, sampling and
    /// dispatch stop and `finish` reports the error.
    dead_shard: Option<usize>,
    metrics: MetricsHandle,
    journal: JournalHandle,
}

impl<T> Dispatch<T> {
    /// Storage for the next fill: a spent fill a worker sent back, or a
    /// fresh one while the pool warms up.
    // alloc: a fresh vector only until the recycle pool warms up; after
    // that every fill reuses storage a worker returned.
    // nondet: which spent vector (or none) arrives here varies with worker
    // timing, but every one comes back empty — only spare capacity
    // differs, never the representatives sent.
    fn spare(&self, k: usize) -> Vec<T> {
        self.recycle
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(k))
    }

    /// Hand `message` to `shard`, blocking while that shard's queue is full
    /// (the pipeline's backpressure). A disconnected channel means the
    /// worker panicked: the shard is marked dead, further dispatch stops,
    /// and [`ShardedSketch::finish`] reports the failure.
    // panic-free: `shard` is a round-robin index reduced modulo
    // senders.len(), and queue_depths has one slot per sender.
    fn send(&mut self, shard: usize, message: FillMessage<T>) {
        if self.dead_shard.is_some() {
            // The run is already doomed; dropping the message keeps the
            // producer non-blocking until the error surfaces at finish().
            return;
        }
        // Count the message as in flight *before* the send: the worker's
        // decrement is ordered after its receive, which is ordered after
        // this send, so the counter never goes below zero.
        // ordering: Relaxed suffices — the gauge is monitoring-only and the
        // channel send/receive provides the producer→worker happens-before.
        let depth = self.queue_depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        let delivered = if self.metrics.is_enabled() || self.journal.is_enabled() {
            let len = message.reps.len() as u64 + u64::from(message.pending.is_some());
            // Distinguish a clean hand-off from a backpressure stall: only
            // the blocking fallback is timed, so the stall histogram
            // measures time actually spent waiting on the slow consumer.
            let delivered = match self.senders[shard].try_send(message) {
                Ok(()) => true,
                Err(TrySendError::Full(message)) => {
                    self.metrics.counter_add(metrics::DISPATCH_STALLS, 1);
                    let stall_begin = self.journal.now_ns();
                    let timer = self.metrics.timer(metrics::STALL_NS);
                    let sent = self.senders[shard].send(message).is_ok();
                    timer.stop();
                    if let Some(begin) = stall_begin {
                        let end = self.journal.now_ns().unwrap_or(begin);
                        self.journal.record_at(
                            end,
                            EventKind::ShardStall {
                                shard: shard as u32,
                                dur_ns: end.saturating_sub(begin),
                            },
                        );
                    }
                    sent
                }
                Err(TrySendError::Disconnected(_)) => false,
            };
            self.journal.record(EventKind::ShardDispatch {
                shard: shard as u32,
                len,
                depth,
            });
            self.metrics.gauge_set(
                Key::labeled(metrics::QUEUE_DEPTH, shard as u32),
                depth as f64,
            );
            delivered
        } else {
            self.senders[shard].send(message).is_ok()
        };
        if !delivered {
            self.dead_shard = Some(shard);
        }
    }
}

/// One shard's front as the batch-sampling loop's sink: each fill opens
/// at the rate the tree replica gives it, and each full fill goes straight
/// to the shard's channel.
struct ShardSink<'a, T> {
    shard: usize,
    front: &'a mut ShardFront<T>,
    dispatch: &'a mut Dispatch<T>,
}

impl<T: Clone> FillSink<T> for ShardSink<'_, T> {
    fn front(&mut self) -> &mut FillFront<T> {
        &mut self.front.front
    }

    fn begin_fill(&mut self) {
        let fill = self.front.tree.begin_fill(&mut self.front.decision);
        self.front.front.start(fill.rate);
    }

    fn sampled(&mut self, _count: usize) {}

    fn complete_fill(&mut self) {
        self.front.tree.complete_fill();
        let storage = self.dispatch.spare(self.front.front.k());
        let reps = self.front.front.take_fill(storage);
        self.dispatch.send(
            self.shard,
            FillMessage {
                reps,
                pending: None,
            },
        );
    }
}

/// A quantile sketch whose ingestion is sharded across a fixed pool of
/// worker threads.
///
/// Feed it with [`ShardedSketch::insert`] / [`ShardedSketch::insert_batch`]
/// from one producer thread; call [`ShardedSketch::finish`] to drain the
/// pipeline and obtain a queryable [`ShardedOutcome`].
///
/// ```
/// use mrl_core::OptimizerOptions;
/// use mrl_parallel::ShardedSketch;
///
/// let mut sketch =
///     ShardedSketch::<u64>::new(2, 0.05, 0.01, OptimizerOptions::fast(), 1);
/// sketch.insert_batch(&(0..100_000u64).collect::<Vec<_>>());
/// let outcome = sketch.finish().expect("no shard panicked");
/// let median = outcome.query(0.5).unwrap();
/// assert!((median as f64 - 50_000.0).abs() <= 0.05 * 100_000.0 + 1.0);
/// ```
#[derive(Debug)]
pub struct ShardedSketch<T> {
    dispatch: Dispatch<T>,
    /// One sampling front per shard; empty when the configuration cannot
    /// build one (shard 0 is then dead from the start).
    fronts: Vec<ShardFront<T>>,
    handles: Vec<JoinHandle<ShardShipment<T>>>,
    /// The slice being gathered across calls; slices that lie whole inside
    /// one `insert_batch` call are sampled in place and never staged, so
    /// this grows only for callers whose calls cut slices.
    staged: Vec<T>,
    next_shard: usize,
    batch: usize,
    /// Elements dealt to the shards (sampled, or dropped after a shard
    /// died).
    dealt: u64,
    config: UnknownNConfig,
    seed: u64,
}

impl<T: Ord + Clone + Send + 'static> ShardedSketch<T> {
    /// Create a pool of `shards` workers, each running the certified
    /// `(ε, δ)` single-stream configuration.
    ///
    /// # Panics
    /// Panics if `shards == 0`, `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    pub fn new(shards: usize, epsilon: f64, delta: f64, opts: OptimizerOptions, seed: u64) -> Self {
        Self::new_with_metrics(
            shards,
            epsilon,
            delta,
            opts,
            seed,
            MetricsHandle::disabled(),
        )
    }

    /// As [`ShardedSketch::new`] with a metrics sink (see [`metrics`]).
    ///
    /// # Panics
    /// Panics if `shards == 0`, `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    pub fn new_with_metrics(
        shards: usize,
        epsilon: f64,
        delta: f64,
        opts: OptimizerOptions,
        seed: u64,
        metrics: MetricsHandle,
    ) -> Self {
        let config = mrl_analysis::optimizer::optimize_unknown_n_with(epsilon, delta, opts);
        Self::from_config_with_metrics(config, shards, seed, metrics)
    }

    /// As [`ShardedSketch::new_with_metrics`] with a flight recorder
    /// attached as well (see [`ShardedSketch::from_config_with_obs`]).
    ///
    /// # Panics
    /// Panics if `shards == 0`, `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_obs(
        shards: usize,
        epsilon: f64,
        delta: f64,
        opts: OptimizerOptions,
        seed: u64,
        metrics: MetricsHandle,
        journal: JournalHandle,
    ) -> Self {
        let config = mrl_analysis::optimizer::optimize_unknown_n_with(epsilon, delta, opts);
        Self::from_config_with_obs(config, shards, seed, metrics, journal)
    }

    /// As [`ShardedSketch::new`] with an explicit certified configuration.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_config(config: UnknownNConfig, shards: usize, seed: u64) -> Self {
        Self::from_config_with_metrics(config, shards, seed, MetricsHandle::disabled())
    }

    /// As [`ShardedSketch::from_config`] with a metrics sink (see
    /// [`metrics`] for the emitted keys). The handle must be supplied at
    /// construction because the worker threads — which publish per-shard
    /// message latency and ingest counters — spawn here.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_config_with_metrics(
        config: UnknownNConfig,
        shards: usize,
        seed: u64,
        metrics: MetricsHandle,
    ) -> Self {
        Self::from_config_with_obs(config, shards, seed, metrics, JournalHandle::disabled())
    }

    /// As [`ShardedSketch::from_config_with_metrics`] with a flight
    /// recorder attached as well. Each worker names its journal ring
    /// `shard[i]`, wraps every message it takes in in a `shard.batch` span,
    /// and forwards the handle to its per-shard engine so seals and
    /// collapses carry the shard's track. The producer side records
    /// [`EventKind::ShardDispatch`] per message sent (`len` counts the
    /// representatives it carries) and [`EventKind::ShardStall`] when
    /// backpressure blocks it.
    ///
    /// A configuration the shard engines reject (`b < 2`, `k = 0`,
    /// `h = 0`) does not panic here: every worker panics on it, and
    /// [`ShardedSketch::finish`] reports [`ShardedError::WorkerPanicked`].
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_config_with_obs(
        config: UnknownNConfig,
        shards: usize,
        seed: u64,
        metrics: MetricsHandle,
        journal: JournalHandle,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut queue_depths = Vec::with_capacity(shards);
        // Unbounded return channel for spent fill storage: workers send
        // their emptied vectors back and the next fills reuse them, so at
        // most `shards · (QUEUE_DEPTH + 2)` fill allocations ever exist.
        let (recycle_tx, recycle) = channel::<Vec<T>>();
        for i in 0..shards {
            let (tx, rx) = sync_channel::<FillMessage<T>>(QUEUE_DEPTH);
            let config = config.clone();
            let shard_seed = shard_seed(seed, i);
            let depth = Arc::new(AtomicU64::new(0));
            let worker_depth = Arc::clone(&depth);
            let worker_metrics = metrics.clone();
            let worker_journal = journal.clone();
            let worker_recycle = recycle_tx.clone();
            handles.push(thread::spawn(move || {
                let shard = i as u32;
                worker_journal.name_thread("shard", Some(shard));
                let mut sketch = UnknownN::from_config(config, shard_seed);
                sketch.set_journal(worker_journal.clone());
                // nondet: single-producer FIFO — this shard's channel is
                // fed only by the producer's dispatch, so fills arrive in
                // the order they were sampled no matter how workers are
                // scheduled; the fills each shard takes in are
                // timing-invariant.
                while let Ok(FillMessage { mut reps, pending }) = rx.recv() {
                    // ordering: relaxed — monitoring gauge; the channel recv
                    // already ordered this after the producer's increment.
                    worker_depth.fetch_sub(1, Ordering::Relaxed);
                    let span = worker_journal.span("shard.batch");
                    let timer = worker_metrics.timer(Key::labeled(metrics::BATCH_NS, shard));
                    sketch.insert_sampled(&mut reps, pending);
                    timer.stop();
                    span.end();
                    worker_metrics.counter_add(Key::labeled(metrics::BATCHES, shard), 1);
                    // The engine left its spent fill storage in `reps`,
                    // empty; a closed return channel (producer gone) just
                    // drops it.
                    let _ = worker_recycle.send(reps);
                }
                worker_metrics.gauge_set(
                    Key::labeled(metrics::SHARD_ELEMENTS, shard),
                    sketch.n() as f64,
                );
                sketch.into_shipment_with_stats()
            }));
            senders.push(tx);
            queue_depths.push(depth);
        }
        // Every shard shares one configuration, so either every front
        // builds or none does.
        let fronts: Vec<ShardFront<T>> = (0..shards)
            .map(|i| ShardFront::new(&config, shard_seed(seed, i)))
            .collect::<Option<_>>()
            .unwrap_or_default();
        let dead_shard = fronts.is_empty().then_some(0);
        Self {
            dispatch: Dispatch {
                senders,
                queue_depths,
                recycle,
                dead_shard,
                metrics,
                journal,
            },
            fronts,
            handles,
            staged: Vec::new(),
            next_shard: 0,
            batch: DEFAULT_SHARD_BATCH,
            dealt: 0,
            config,
            seed,
        }
    }

    /// Override the slice size (before inserting data): the number of
    /// consecutive elements each shard samples before the next shard's
    /// turn.
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be positive");
        assert_eq!(self.n(), 0, "with_batch_size on a non-empty sketch");
        self.batch = batch;
        self
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.dispatch.senders.len()
    }

    /// Elements accepted so far (dealt plus staged).
    pub fn n(&self) -> u64 {
        self.dealt + self.staged.len() as u64
    }

    /// The certified per-shard configuration in use.
    pub fn config(&self) -> &UnknownNConfig {
        &self.config
    }

    /// The flight-recorder handle the pipeline (and every shard engine)
    /// records into; disabled unless constructed via
    /// [`ShardedSketch::from_config_with_obs`].
    pub fn journal(&self) -> &JournalHandle {
        &self.dispatch.journal
    }

    /// Worst-case memory of the shard sketches: `shards · b · k` elements.
    /// The pipeline holds at most `QUEUE_DEPTH + 1` fills of `k` per shard
    /// on top (its channel, plus the producer's open fill), and one staged
    /// slice; the coordinator's own bound comes on top at
    /// [`ShardedSketch::finish`].
    pub fn memory_bound_elements(&self) -> usize {
        self.shards() * self.config.memory
    }

    /// Insert one element.
    pub fn insert(&mut self, item: T) {
        self.insert_batch(std::slice::from_ref(&item));
    }

    /// Insert a slice of elements. Every whole slice inside `items` is
    /// sampled in place; only a slice that straddles calls is staged.
    pub fn insert_batch(&mut self, items: &[T]) {
        let mut rest = items;
        if !self.staged.is_empty() {
            let room = self.batch - self.staged.len();
            if rest.len() < room {
                self.staged.extend_from_slice(rest);
                return;
            }
            let (now, later) = rest.split_at(room);
            self.staged.extend_from_slice(now);
            self.deal_staged();
            rest = later;
        }
        let mut slices = rest.chunks_exact(self.batch);
        for slice in slices.by_ref() {
            self.deal(slice);
        }
        self.staged.extend_from_slice(slices.remainder());
    }

    /// Insert every element of an iterator.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }

    /// Deal the staged slice, keeping its storage for the next one.
    fn deal_staged(&mut self) {
        let mut staged = std::mem::take(&mut self.staged);
        self.deal(&staged);
        staged.clear();
        self.staged = staged;
    }

    /// Sample one slice into the next shard's front, which sends every
    /// fill it completes to the shard.
    fn deal(&mut self, slice: &[T]) {
        let shard = self.next_shard;
        self.next_shard = (shard + 1) % self.shards();
        self.dealt += slice.len() as u64;
        if self.dispatch.dead_shard.is_some() {
            // The run is already doomed; dropping the slice keeps the
            // producer non-blocking until the error surfaces at finish().
            return;
        }
        if let Some(front) = self.fronts.get_mut(shard) {
            sample_batch(
                &mut ShardSink {
                    shard,
                    front,
                    dispatch: &mut self.dispatch,
                },
                slice,
            );
        }
        self.dispatch
            .metrics
            .gauge_set(metrics::DISPATCHED, self.dealt as f64);
    }

    /// Drain the pipeline: sample the trailing slice, send every shard its
    /// end-of-stream tail (the open fill and the incomplete block), close
    /// every channel, join the workers, and merge their shipments at a
    /// [`Coordinator`].
    ///
    /// # Errors
    /// Returns [`ShardedError::WorkerPanicked`] if any shard's worker
    /// thread panicked: its elements are lost, so no certified answer
    /// exists. Every surviving worker is still joined first, so the pool
    /// is fully torn down either way.
    pub fn finish(mut self) -> Result<ShardedOutcome<T>, ShardedError> {
        if !self.staged.is_empty() {
            self.deal_staged();
        }
        for (shard, sf) in self.fronts.iter_mut().enumerate() {
            if sf.front.is_filling() {
                let pending = sf.front.take_pending();
                let reps = sf.front.take_fill(Vec::new());
                self.dispatch.send(shard, FillMessage { reps, pending });
            }
        }
        // Closing the channels ends each worker's receive loop.
        self.dispatch.senders.clear();
        let mut dead_shard = self.dispatch.dead_shard;
        let mut per_shard = Vec::with_capacity(self.handles.len());
        let mut shipments: Vec<(u64, Vec<Buffer<T>>)> = Vec::with_capacity(self.handles.len());
        for (shard, h) in self.handles.drain(..).enumerate() {
            match h.join() {
                Ok((n, stats, buffers)) => {
                    per_shard.push(stats);
                    shipments.push((n, buffers));
                }
                // Keep joining the rest: the pool must be fully reaped even
                // when the run is already doomed.
                Err(_) => {
                    dead_shard.get_or_insert(shard);
                }
            }
        }
        if let Some(shard) = dead_shard {
            return Err(ShardedError::WorkerPanicked { shard });
        }
        let workers = shipments.len();
        let (coordinator, total_n) = Coordinator::from_shipments(
            self.config.b,
            self.config.k,
            self.seed ^ 0x00C0_FFEE,
            shipments,
        );
        debug_assert_eq!(total_n, self.dealt);
        let telemetry = PipelineTelemetry::from_shards(total_n, per_shard);
        Ok(ShardedOutcome {
            coordinator,
            total_n,
            workers,
            telemetry,
        })
    }
}

/// Aggregated pipeline accounting: the exact [`TreeStats`] of every shard
/// worker plus their element-conserving merge. Serializable, so the CLI can
/// embed it in `--stats json` reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelineTelemetry {
    /// Total elements ingested across all shards.
    pub total_n: u64,
    /// Each worker's final exact tree accounting, in shard order.
    pub per_shard: Vec<TreeStats>,
    /// The shard accountings folded together ([`TreeStats::absorb`]):
    /// elements, leaves, collapses and `W` are sums, `max_level` the
    /// maximum, the sampling onset the earliest across shards.
    pub merged: TreeStats,
}

impl PipelineTelemetry {
    fn from_shards(total_n: u64, per_shard: Vec<TreeStats>) -> Self {
        let mut merged = TreeStats::default();
        for stats in &per_shard {
            merged.absorb(stats);
        }
        Self {
            total_n,
            per_shard,
            merged,
        }
    }
}

/// The queryable result of a sharded ingestion run.
#[derive(Debug)]
pub struct ShardedOutcome<T> {
    coordinator: Coordinator<T>,
    total_n: u64,
    workers: usize,
    telemetry: PipelineTelemetry,
}

impl<T: Ord + Clone + 'static> ShardedOutcome<T> {
    /// The φ-quantile of the whole stream. `None` for an empty stream.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.coordinator.query(phi)
    }

    /// Several quantiles in one merge pass, in caller order.
    pub fn query_many(&self, phis: &[f64]) -> Option<Vec<T>> {
        self.coordinator.query_many(phis)
    }

    /// Approximate selectivities of `x < v` / `x <= v` over the stream.
    pub fn rank_of(&self, value: &T) -> Option<(f64, f64)> {
        self.coordinator.rank_of(value)
    }

    /// Total elements ingested across all shards.
    pub fn total_n(&self) -> u64 {
        self.total_n
    }

    /// Number of shard workers that contributed.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-shard and merged exact tree accounting gathered at
    /// [`ShardedSketch::finish`].
    pub fn telemetry(&self) -> &PipelineTelemetry {
        &self.telemetry
    }

    /// The merged coordinator (mass accounting, memory bound, further
    /// hierarchical shipping).
    pub fn coordinator(&self) -> &Coordinator<T> {
        &self.coordinator
    }

    /// Tear down into the coordinator, e.g. to forward the merged state
    /// upward via [`Coordinator::into_buffers`].
    pub fn into_coordinator(self) -> Coordinator<T> {
        self.coordinator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> OptimizerOptions {
        OptimizerOptions::fast()
    }

    fn uniform(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i.wrapping_mul(2654435761)) % n).collect()
    }

    /// Messages a finished pipeline sent: one per completed fill (a leaf
    /// of its shard's tree), plus one end-of-stream tail per shard whose
    /// stream ended inside a fill. A leaf at level `l` holds `k` blocks of
    /// `2^l` elements.
    fn messages(config: &UnknownNConfig, per_shard: &[TreeStats]) -> u64 {
        per_shard
            .iter()
            .map(|st| {
                let in_fills: u64 = st
                    .leaves_by_level
                    .iter()
                    .map(|(&level, &count)| count * config.k as u64 * (1 << level))
                    .sum();
                st.leaves + u64::from(st.elements > in_fills)
            })
            .sum()
    }

    #[test]
    fn sharded_matches_sequential_mass_accounting() {
        let data = uniform(200_000);
        let mut sharded = ShardedSketch::<u64>::new(4, 0.05, 0.01, fast(), 11);
        for chunk in data.chunks(1000) {
            sharded.insert_batch(chunk);
        }
        assert_eq!(sharded.n(), data.len() as u64);
        let out = sharded.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), data.len() as u64);
        assert_eq!(out.workers(), 4);
        // The coordinator's represented mass equals the shipped mass, which
        // can differ from n only by sampling-tail rounding per shard.
        let mass = out.coordinator().mass();
        let slack = 4 * 1024; // one partial block per shard at the max rate
        assert!(
            (mass as i64 - data.len() as i64).unsigned_abs() <= slack,
            "mass {mass} vs n {}",
            data.len()
        );
    }

    #[test]
    fn sharded_queries_match_single_worker_within_epsilon() {
        let data = uniform(150_000);
        let eps = 0.05;
        let phis = [0.1, 0.25, 0.5, 0.75, 0.9];

        let mut single = ShardedSketch::<u64>::new(1, eps, 0.01, fast(), 3);
        single.insert_batch(&data);
        let single_q = single
            .finish()
            .expect("no shard panicked")
            .query_many(&phis)
            .unwrap();

        let mut sharded = ShardedSketch::<u64>::new(4, eps, 0.01, fast(), 3);
        sharded.insert_batch(&data);
        let sharded_q = sharded
            .finish()
            .expect("no shard panicked")
            .query_many(&phis)
            .unwrap();

        let mut sorted = data.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        for (qs, label) in [(&single_q, "single"), (&sharded_q, "sharded")] {
            for (q, phi) in qs.iter().zip(phis) {
                let rank = sorted.partition_point(|v| v <= q) as f64;
                let err = (rank - phi * n).abs() / n;
                assert!(err <= eps + 1.0 / n, "{label} phi={phi}: rank error {err}");
            }
        }
    }

    #[test]
    fn single_inserts_and_small_batches_agree_on_n() {
        let mut s = ShardedSketch::<u64>::new(2, 0.1, 0.01, fast(), 5).with_batch_size(100);
        for i in 0..1_234u64 {
            s.insert(i);
        }
        s.insert_batch(&[9, 9, 9]);
        assert_eq!(s.n(), 1_237);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 1_237);
        assert!(out.query(0.5).is_some());
    }

    #[test]
    fn telemetry_conserves_elements_and_reports_pipeline_metrics() {
        use mrl_obs::InMemoryRecorder;

        let rec = Arc::new(InMemoryRecorder::new());
        let config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast());
        let mut s = ShardedSketch::<u64>::from_config_with_metrics(
            config.clone(),
            3,
            9,
            MetricsHandle::new(rec.clone()),
        );
        let data = uniform(120_000);
        s.insert_batch(&data);
        let out = s.finish().expect("no shard panicked");

        let t = out.telemetry();
        assert_eq!(t.total_n, 120_000);
        assert_eq!(t.per_shard.len(), 3);
        let sum: u64 = t.per_shard.iter().map(|st| st.elements).sum();
        assert_eq!(sum, t.merged.elements);
        assert_eq!(t.merged.elements, 120_000);

        // Message counters: every fill and tail sent is accounted to the
        // shard that took it in.
        let batches: u64 = (0..3)
            .map(|i| rec.counter_value(Key::labeled(metrics::BATCHES, i)))
            .sum();
        assert_eq!(batches, messages(&config, &t.per_shard));
        // Per-shard element gauges match the shipped accounting.
        for (i, st) in t.per_shard.iter().enumerate() {
            assert_eq!(
                rec.gauge_value(Key::labeled(metrics::SHARD_ELEMENTS, i as u32)),
                Some(st.elements as f64)
            );
        }
        assert_eq!(rec.gauge_value(metrics::DISPATCHED), Some(120_000.0));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn journal_records_dispatches_shard_tracks_and_batch_spans() {
        use mrl_obs::EventJournal;

        let journal = Arc::new(EventJournal::with_capacity(8192));
        let handle = JournalHandle::new(Arc::clone(&journal));
        let config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast());
        let mut s = ShardedSketch::<u64>::from_config_with_obs(
            config.clone(),
            2,
            9,
            MetricsHandle::disabled(),
            handle,
        )
        .with_batch_size(64);
        let data = uniform(10_000);
        s.insert_batch(&data);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 10_000);

        let dump = journal.drain();
        assert_eq!(dump.lost(), 0);
        let events = || dump.rings.iter().flat_map(|r| r.events.iter());
        // Every message is journalled by the producer: one per completed
        // fill, plus each shard's end-of-stream tail.
        let sent = messages(&config, &out.telemetry().per_shard) as usize;
        let dispatches = events()
            .filter(|e| matches!(e.kind, EventKind::ShardDispatch { .. }))
            .count();
        assert_eq!(dispatches, sent);
        // Both workers named their rings `shard[i]`.
        let mut shard_labels: Vec<u32> = dump
            .rings
            .iter()
            .filter_map(|r| r.thread_name)
            .filter(|(name, _)| *name == "shard")
            .filter_map(|(_, label)| label)
            .collect();
        shard_labels.sort_unstable();
        assert_eq!(shard_labels, vec![0, 1]);
        // Each received message is wrapped in a balanced `shard.batch`
        // span, and the per-shard engines journalled their seals through
        // the forwarded handle.
        let begins = events()
            .filter(|e| matches!(e.kind, EventKind::SpanBegin { .. }))
            .count();
        let ends = events()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .count();
        assert_eq!(begins, ends);
        assert_eq!(begins, sent);
        assert!(events().any(|e| matches!(e.kind, EventKind::BufferSeal { .. })));
    }

    #[test]
    fn empty_stream_returns_none() {
        let s = ShardedSketch::<u64>::new(3, 0.1, 0.01, fast(), 1);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 0);
        assert_eq!(out.query(0.5), None);
        assert_eq!(out.rank_of(&7), None);
    }

    /// A configuration whose engine construction asserts (`b = 1` violates
    /// `EngineConfig::new`'s `b ≥ 2` requirement), so every worker panics
    /// the moment it starts. The panic must surface as a clean
    /// [`ShardedError::WorkerPanicked`], not abort the producer.
    fn poisoned_config() -> UnknownNConfig {
        let mut config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.1, 0.01, OptimizerOptions::fast());
        config.b = 1;
        config
    }

    #[test]
    fn worker_panic_surfaces_as_sharded_error() {
        let mut s = ShardedSketch::<u64>::from_config(poisoned_config(), 2, 7).with_batch_size(8);
        // Keep feeding past the panic: sends to the dead shard's
        // disconnected channel must degrade into `dead_shard`, never panic
        // or block the producer.
        for i in 0..10_000u64 {
            s.insert(i);
        }
        match s.finish() {
            Err(ShardedError::WorkerPanicked { shard }) => assert!(shard < 2),
            Ok(_) => panic!("poisoned run produced an outcome"),
        }
    }

    #[test]
    fn worker_panic_detected_even_without_dispatch() {
        // No data ever dispatched: the dead workers are only discovered at
        // join time, which must still report the lowest poisoned shard.
        let s = ShardedSketch::<u64>::from_config(poisoned_config(), 3, 1);
        assert_eq!(
            s.finish().map(|out| out.total_n()),
            Err(ShardedError::WorkerPanicked { shard: 0 })
        );
    }

    #[test]
    fn worker_panic_error_formats_and_converts() {
        let err = ShardedError::WorkerPanicked { shard: 5 };
        assert!(err.to_string().contains("shard 5"));
        let io: std::io::Error = err.clone().into();
        assert!(io.to_string().contains("shard 5"));
    }

    /// Shutdown/backpressure interleaving: a single-shard pipeline with a
    /// deliberately slow consumer is driven through every queue state
    /// (empty → full → blocked producer → drain → close). Exercises the
    /// bounded-channel protocol end to end: the producer must block (not
    /// drop) on a full queue, and `finish` must drain every in-flight batch
    /// before the worker's channel closes.
    #[test]
    fn backpressure_blocks_then_shutdown_drains_every_batch() {
        for round in 0..16u64 {
            let config = mrl_analysis::optimizer::optimize_unknown_n_with(
                0.1,
                0.01,
                OptimizerOptions::fast(),
            );
            let mut s = ShardedSketch::<u64>::from_config(config, 1, round).with_batch_size(1);
            // QUEUE_DEPTH + 1 batches saturate the queue and park the
            // producer at least once per round; varying the total count
            // shifts which send observes the full queue.
            let total = (QUEUE_DEPTH as u64 + 1) * 64 + round;
            for i in 0..total {
                s.insert(i);
            }
            let out = s.finish().expect("no shard panicked");
            assert_eq!(out.total_n(), total, "round {round} lost a batch");
        }
    }

    #[test]
    fn extend_round_robins_across_shards() {
        let mut s = ShardedSketch::<u64>::new(3, 0.1, 0.01, fast(), 2).with_batch_size(10);
        s.extend(0..95u64);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 95);
        assert_eq!(out.workers(), 3);
        let q = out.query(1.0).unwrap();
        assert_eq!(q, 94);
    }
}
