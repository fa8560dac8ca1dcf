//! The streaming engine: `New` / `Collapse` / `Output` composed under a
//! collapse policy and a sampling-rate schedule.
//!
//! The engine moves data; it decides nothing about the tree. Every
//! allocation, collapse and fill rate comes from its [`Tree`], and every
//! sampled element from its [`FillFront`].
//!
//! [`Engine`] is the common machinery behind every algorithm in the paper:
//!
//! * unknown-`N` (§3): [`crate::AdaptiveLowestLevel`] + [`crate::Mrl99Schedule`],
//! * known-`N` deterministic (MRL98/\[MP80\]/\[ARS97\]): any policy +
//!   [`crate::FixedRate`]`::new(1)`,
//! * known-`N` sampled: any policy + [`crate::FixedRate`]`::new(r)`.
//!
//! `Output` is non-destructive and may be invoked at any prefix of the
//! stream, which is what makes the algorithm suitable for online
//! aggregation (§3.7, \[Hel97\]).

use mrl_obs::{CollapsePath, EventKind, JournalHandle, Key, MetricsHandle, SealKernel};
use mrl_sampling::rng_from_seed;

use crate::arena::ScratchArena;
use crate::buffer::{Buffer, BufferState};
use crate::front::{sample_batch, FillFront, FillSink};
use crate::kernels::{
    select_merged_weighted_spaced, select_three_weighted_spaced, select_two_weighted_spaced,
};
use crate::merge::{
    collapse_first_target, merge_sorted_runs_with, output_position, select_weighted, total_mass,
    WeightedSource,
};
use crate::policy::{CollapseDecision, CollapsePolicy};
use crate::radix::try_sort_fixed;
use crate::schedule::RateSchedule;
use crate::spine::QuerySpine;
use crate::stats::TreeStats;
use crate::tree::{allocation_problem, CollapseStep, Fill, Tree, TreeRecorder, TreeStep};

/// Metric keys the engine emits (all on buffer-seal or collapse
/// granularity — once per `k` raw elements at most — so an attached
/// recorder costs a few atomic ops per buffer and a disabled
/// [`MetricsHandle`] costs one predicted branch per seal).
pub mod metrics {
    use mrl_obs::Key;

    /// Counter: seals adopted as-is because the fill arrived sorted.
    pub const SEAL_PRESORTED: Key = Key::new("engine.seal.presorted");
    /// Counter: seals parked raw (sort deferred to collapse/query time).
    pub const SEAL_PARKED_RAW: Key = Key::new("engine.seal.parked_raw");
    /// Histogram: nanoseconds per seal (`take_filler`).
    pub const SEAL_NS: Key = Key::new("engine.seal.ns");
    /// Counter, labelled by level: completed leaves per buffer level.
    pub const LEAVES_BY_LEVEL: &str = "engine.leaves";
    /// Counter: collapse operations (`C`).
    pub const COLLAPSES: Key = Key::new("engine.collapses");
    /// Histogram: nanoseconds per collapse.
    pub const COLLAPSE_NS: Key = Key::new("engine.collapse.ns");
    /// Counter: collapses through the all-raw equal-weight fast path.
    pub const COLLAPSE_RAW_FAST_PATH: Key = Key::new("engine.collapse.raw_fast_path");
    /// Gauge: the Lemma 4/5 weight sum `W` after the latest collapse.
    pub const COLLAPSE_WEIGHT_SUM: Key = Key::new("engine.collapse.weight_sum");
    /// Gauge, labelled by level: occupied (full/partial) buffers per level.
    pub const OCCUPANCY_BY_LEVEL: &str = "engine.buffers.occupied";
    /// Gauge: allocated buffer slots.
    pub const BUFFERS_ALLOCATED: Key = Key::new("engine.buffers.allocated");
    /// Counter: sampling-rate doublings.
    pub const RATE_TRANSITIONS: Key = Key::new("engine.rate.transitions");
    /// Gauge: the current sampling rate `r`.
    pub const RATE_CURRENT: Key = Key::new("engine.rate.current");
    /// Gauge: stream position `N` at sampling onset (set once).
    pub const SAMPLING_ONSET_N: Key = Key::new("engine.sampling.onset_n");
    /// Gauge: cumulative random draws consumed by the block sampler.
    pub const SAMPLER_DRAWS: Key = Key::new("engine.sampler.draws");
    /// Gauge: stream elements consumed (`N`), refreshed at each seal.
    pub const ELEMENTS: Key = Key::new("engine.elements");
}

/// Sizing of an engine: `b` buffers of `k` elements each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of buffers `b` (≥ 2).
    pub num_buffers: usize,
    /// Elements per buffer `k` (≥ 1).
    pub buffer_size: usize,
}

impl EngineConfig {
    /// Create a configuration, validating `b ≥ 2` and `k ≥ 1`.
    ///
    /// # Panics
    /// Panics on invalid sizes.
    pub fn new(num_buffers: usize, buffer_size: usize) -> Self {
        assert!(num_buffers >= 2, "need at least two buffers to collapse");
        assert!(buffer_size >= 1, "buffer size must be positive");
        Self {
            num_buffers,
            buffer_size,
        }
    }

    /// The paper's memory metric: `b · k` elements.
    pub fn memory_elements(&self) -> usize {
        self.num_buffers * self.buffer_size
    }
}

/// Single-pass approximate-quantile engine.
///
/// Generic over the element type `T`, the [`CollapsePolicy`] `P` and the
/// [`RateSchedule`] `R`. Elements are inserted one at a time with
/// [`Engine::insert`]; quantile estimates are available at any moment via
/// [`Engine::query`].
#[derive(Clone, Debug)]
pub struct Engine<T, P, R> {
    config: EngineConfig,
    /// Buffer slots, one per slot the tree has allocated (fewer than `b`
    /// under a lazy allocation schedule, §5): the data the tree's slot
    /// metadata describes.
    buffers: Vec<Buffer<T>>,
    /// The data-free control: slot metadata, allocation thresholds,
    /// collapse policy and rate schedule.
    tree: Tree<P, R>,
    /// `New`'s sampler state: block sampler, RNG and the fill in progress.
    front: FillFront<T>,
    /// Slots holding raw (deliberately unsorted) fill data. When a fill
    /// arrives out of order, sealing *defers* the sort: if the slot is
    /// later collapsed together with other raw equal-weight slots, one sort
    /// of the concatenation replaces the per-buffer sorts plus the merge
    /// walk. Read paths (`query_many`, snapshots, `into_buffers`) sort on
    /// demand, so the invariant "populated buffers are sorted" holds
    /// everywhere outside this engine. Stored as a per-slot mask (grown
    /// alongside the lazily allocated slot table) so marking a seal is a
    /// flag store, not a push.
    unsorted_mask: Vec<bool>,
    /// All scratch storage reused across seals, collapses, gauge
    /// publications and `extend` staging, so steady-state streaming
    /// allocates nothing (see [`ScratchArena`]).
    scratch: ScratchArena<T>,
    stats: TreeStats,
    metrics: MetricsHandle,
    /// Flight-recorder handle: structured lifecycle events (seals,
    /// collapses with provenance, rate transitions, spine rebuilds) at
    /// the same once-per-`k`-elements granularity as the metrics.
    /// Disabled by default — one predicted branch per site.
    journal: JournalHandle,
    sample_tap: Option<Vec<(T, u64)>>,
    finished: bool,
    /// Ingest epoch: incremented by every mutation that can change what a
    /// query observes (insert, batch insert, collapse, finish, snapshot
    /// restore). The cached query spine records the epoch it was built
    /// at; a mismatch marks it stale.
    epoch: u64,
    /// Buffer generation: incremented wherever buffer contents change (a
    /// seal, a collapse, `finish`, a snapshot restore). The spine's sealed
    /// part records the generation it was built at; while it holds, a
    /// fresh query merges only the fill into that part.
    generation: u64,
    /// Serve `query`/`query_many`/`rank_of`/`cdf` from the epoch-cached
    /// spine (the default). Disabled, every query re-runs the direct
    /// weighted merge — kept for differential testing of the cache.
    query_cache: bool,
    /// The offline-certified error coefficients this engine is audited
    /// against after every seal/collapse (feature `invariant-audit`).
    #[cfg(feature = "invariant-audit")]
    certified: Option<crate::invariant::CertifiedSchedule>,
}

impl<T, P, R> Engine<T, P, R>
where
    T: Ord + Clone + 'static,
    P: CollapsePolicy,
    R: RateSchedule,
{
    /// Create an engine with all buffers allocated up front.
    pub fn new(config: EngineConfig, policy: P, rate_schedule: R, seed: u64) -> Self {
        let allocation = vec![0; config.num_buffers];
        Self::with_allocation(config, policy, rate_schedule, allocation, seed)
    }

    /// Create an engine with a lazy buffer-allocation schedule (§5):
    /// `allocation[i]` is the number of leaves that must have been created
    /// before buffer `i` is allocated. Must be non-decreasing, with
    /// `allocation[0] == 0`.
    ///
    /// # Panics
    /// Panics if the sizes or the schedule are malformed, or the rate
    /// schedule starts at rate 0.
    pub fn with_allocation(
        config: EngineConfig,
        policy: P,
        rate_schedule: R,
        allocation: Vec<u64>,
        seed: u64,
    ) -> Self {
        let problem = allocation_problem(config.num_buffers, &allocation);
        assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        assert!(config.buffer_size >= 1, "buffer size must be positive");
        let front = FillFront::build(
            config.buffer_size,
            rate_schedule.rate(),
            rng_from_seed(seed),
        );
        let tree = Tree::build(config.num_buffers, policy, rate_schedule, allocation);
        Self {
            config,
            buffers: Vec::new(),
            tree,
            front,
            unsorted_mask: Vec::new(),
            scratch: ScratchArena::default(),
            stats: TreeStats::default(),
            metrics: MetricsHandle::disabled(),
            journal: JournalHandle::disabled(),
            sample_tap: None,
            finished: false,
            epoch: 0,
            generation: 0,
            query_cache: true,
            #[cfg(feature = "invariant-audit")]
            certified: None,
        }
    }

    /// Enable recording of the full collapse tree (Figures 2–3). Call before
    /// inserting data.
    pub fn enable_tree_recording(&mut self) {
        assert_eq!(self.stats.elements, 0, "enable recording before inserting");
        self.tree.enable_recording();
    }

    /// Enable recording of every emitted sample element and its weight
    /// (test support: lets tests compute the exact weighted quantile of the
    /// sample sequence fed to the deterministic tree).
    pub fn enable_sample_tap(&mut self) {
        assert_eq!(self.stats.elements, 0, "enable the tap before inserting");
        self.sample_tap = Some(Vec::new());
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Stream elements consumed so far.
    pub fn n(&self) -> u64 {
        // Saturating: both counters track disjoint parts of one stream, so
        // their sum is the stream length and cannot wrap unless the stream
        // itself exceeds u64 — degrade to a pinned count, never wrap.
        self.stats
            .elements
            .saturating_add(self.front.pending_count())
    }

    /// True once [`Engine::finish`] has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Tree statistics (exact accounting of `W`, `C`, leaves, `Σnᵢ²`).
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Attach a metrics sink (see [`metrics`] for the emitted keys). The
    /// default handle is disabled and costs one predicted branch per
    /// seal/collapse; may be attached or swapped at any point.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Attach a flight-recorder journal (see [`mrl_obs::EventKind`] for
    /// the emitted events). The default handle is disabled and costs one
    /// predicted branch per seal/collapse; may be attached or swapped at
    /// any point.
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.journal = journal;
    }

    /// The attached journal handle (disabled by default).
    pub fn journal(&self) -> &JournalHandle {
        &self.journal
    }

    /// The current ingest epoch (see the `epoch` field): changes exactly
    /// when a query could start observing different state.
    pub fn ingest_epoch(&self) -> u64 {
        self.epoch
    }

    /// Enable or disable the epoch-cached query spine (enabled by
    /// default). With the cache off, every query re-runs the direct
    /// weighted-merge path — useful for differential testing.
    pub fn set_query_cache_enabled(&mut self, enabled: bool) {
        self.query_cache = enabled;
        if !enabled {
            self.scratch.spine.borrow_mut().invalidate();
            self.journal
                .record(EventKind::SpineInvalidate { epoch: self.epoch });
        }
    }

    /// Mark queryable state as changed. Wrapping: only equality with the
    /// spine's build epoch matters, and 2⁶⁴ mutations cannot revisit a
    /// stale spine's epoch without 2⁶⁴ − 1 intervening queries missing.
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Mark buffer contents as changed, so the next fresh query rebuilds
    /// the spine's sealed part. Wrapping, like [`Engine::bump_epoch`].
    fn bump_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Run `f` over the current query spine, refreshing it first if the
    /// ingest epoch moved since it was last materialised. `None` when the
    /// cache is disabled (callers then take the direct merge path).
    pub(crate) fn with_current_spine<U>(&self, f: impl FnOnce(&QuerySpine<T>) -> U) -> Option<U> {
        if !self.query_cache {
            return None;
        }
        let mut spine = self.scratch.spine.borrow_mut();
        if !spine.is_current(self.epoch) {
            self.refresh_spine(&mut spine);
        }
        Some(f(&spine))
    }

    /// Refresh `spine` to the current epoch — the sealed part only if the
    /// buffer generation moved too, the fill always — and journal one
    /// `SpineRebuild`. Out of line, so that every cached query's
    /// `with_current_spine` keeps only the currency check.
    #[inline(never)]
    fn refresh_spine(&self, spine: &mut QuerySpine<T>) {
        let rebuild_begin = self.journal.now_ns();
        let sealed = self
            .buffers
            .iter()
            .filter(|b| b.state() != BufferState::Empty)
            .map(|b| (b.data(), b.weight()));
        spine.refresh(
            self.epoch,
            self.generation,
            sealed,
            self.front.filler(),
            self.front.rate(),
            self.front.pending(),
        );
        #[cfg(feature = "invariant-audit")]
        self.audit_spine(spine);
        if let Some(begin) = rebuild_begin {
            let end = self.journal.now_ns().unwrap_or(begin);
            self.journal.record_at(
                end,
                EventKind::SpineRebuild {
                    epoch: self.epoch,
                    pairs: spine.len() as u64,
                    dur_ns: end.saturating_sub(begin),
                },
            );
        }
    }

    /// The data-free tree this engine moves its data by.
    pub fn tree(&self) -> &Tree<P, R> {
        &self.tree
    }

    /// The recorded collapse tree, if recording was enabled.
    pub fn recorder(&self) -> Option<&TreeRecorder> {
        self.tree.recorder()
    }

    /// The recorded sample sequence, if the tap was enabled.
    pub fn sample_tap(&self) -> Option<&[(T, u64)]> {
        self.sample_tap.as_deref()
    }

    /// Node ids (into the recorder) of the current root buffers, if
    /// recording was enabled.
    pub fn root_nodes(&self) -> Vec<usize> {
        self.tree.root_nodes()
    }

    /// Buffer slots currently allocated.
    pub fn allocated_slots(&self) -> usize {
        self.buffers.len()
    }

    /// High-water mark of allocated slots. Slots are never released, so
    /// this equals [`Engine::allocated_slots`].
    pub fn max_allocated_slots(&self) -> usize {
        self.buffers.len()
    }

    /// Current memory footprint in elements (allocated slots × `k`).
    pub fn memory_elements(&self) -> usize {
        self.buffers.len() * self.config.buffer_size
    }

    /// Current sampling rate of the `New` operation.
    pub fn current_rate(&self) -> u64 {
        self.tree.rate()
    }

    /// True once the non-uniform sampler has moved past rate 1.
    pub fn sampling_started(&self) -> bool {
        self.tree.sampling_started()
    }

    /// Insert one stream element.
    ///
    /// # Panics
    /// Panics if called after [`Engine::finish`].
    pub fn insert(&mut self, item: T) {
        assert!(!self.finished, "cannot insert after finish()");
        self.bump_epoch();
        if !self.front.is_filling() {
            self.begin_fill();
        }
        if self.front.offer(item) {
            self.sampled(1);
            if self.front.is_full() {
                self.complete_fill();
            }
        }
    }

    /// Insert a batch of stream elements.
    ///
    /// Equivalent in distribution to inserting the elements one at a time,
    /// but the filling/finished checks are hoisted out of the per-element
    /// loop and the block sampler consumes one random draw per **block**
    /// instead of one per element (at rate 1, none at all) — see
    /// [`mrl_sampling::BlockSampler::offer_slice`]. The consumed random
    /// stream differs from the per-element path, so a seeded run is
    /// reproducible only against the same chunking of the input.
    ///
    /// # Panics
    /// Panics if called after [`Engine::finish`].
    pub fn insert_batch(&mut self, items: &[T]) {
        assert!(!self.finished, "cannot insert after finish()");
        if !items.is_empty() {
            self.bump_epoch();
        }
        sample_batch(&mut Ingest(self), items);
    }

    /// Take in block representatives sampled ahead of this engine, at the
    /// rates its own tree assigns: the hand-off of the sharded pipeline,
    /// whose producer runs each shard's [`FillFront`] against a replica of
    /// the shard's [`Tree`] and ships only what the sampler kept.
    ///
    /// `reps` continues the open fill, or opens the next one; a fill that
    /// reaches `k` is sealed here. `pending` is the incomplete block the
    /// stream ended in, as `(representative, elements seen)`, and may only
    /// accompany a fill that is not full. When the representatives come
    /// from a [`FillFront`] seeded like this engine and fed slices through
    /// [`crate::sample_batch`], the engine ends up exactly where
    /// [`Engine::insert_batch`] on the same slices would have put it. On
    /// return `reps` is empty, holding spare storage the caller may reuse.
    ///
    /// # Panics
    /// Panics if called after [`Engine::finish`], or as
    /// [`FillFront::adopt`] on a fill that does not fit.
    pub fn insert_sampled(&mut self, reps: &mut Vec<T>, pending: Option<(T, u64)>) {
        assert!(!self.finished, "cannot insert after finish()");
        if reps.is_empty() && pending.is_none() {
            return;
        }
        self.bump_epoch();
        if !self.front.is_filling() {
            self.begin_fill();
        }
        let count = reps.len();
        self.front.adopt(reps, pending);
        self.sampled(count);
        if self.front.is_full() {
            self.complete_fill();
        }
    }

    /// Insert every element of an iterator. Internally gathers elements
    /// into fixed-size batches and feeds them to [`Engine::insert_batch`],
    /// so bulk loading through `extend` gets the batched fast path. The
    /// staging buffer lives in the scratch arena: repeated `extend` calls
    /// reuse one CHUNK-capacity vector and allocate nothing.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        const CHUNK: usize = 1024;
        let mut iter = iter.into_iter();
        // Staging leaves the arena for the duration so insert_batch can
        // borrow `&mut self` while the batch is alive.
        let mut buf = std::mem::take(&mut self.scratch.stage);
        loop {
            buf.clear();
            buf.extend(iter.by_ref().take(CHUNK));
            if buf.is_empty() {
                break;
            }
            self.insert_batch(&buf);
            if buf.len() < CHUNK {
                break;
            }
        }
        buf.clear();
        self.scratch.stage = buf;
    }

    /// Declare end-of-stream: the partially filled buffer (if any) becomes a
    /// `Partial` buffer (§3.1). Queries remain available; further inserts
    /// panic.
    // panic-free: close_fill(state) is Some because begin_fill opened the
    // tree's fill (the front is filling on this branch) and reserved its
    // empty slot; the deferred-seal sweep indexes buffers by 0..len.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.bump_epoch();
        self.bump_generation();
        if self.front.is_filling() {
            if let Some(seen) = self.front.close() {
                // The trailing incomplete block still contributes its
                // representative; per the paper the partial buffer's
                // elements all carry the buffer weight `r` (the analysis
                // excludes the partial buffer from Lemma 5, §4.2).
                self.stats.record_block(seen);
                self.tap_recent(1);
            }
            if self.front.filler().is_empty() {
                self.front.take_fill(Vec::new());
                self.tree.close_fill(BufferState::Empty);
            } else {
                let level = self.tree.last_fill().level;
                let (mut data, sorted) = self.take_filler(Vec::new(), level);
                if !sorted && !try_sort_fixed(&mut data, &mut self.scratch.radix) {
                    data.sort_unstable();
                }
                // The tail block can take the fill's last place: the buffer
                // is then full, though no leaf.
                let state = if data.len() == self.config.buffer_size {
                    BufferState::Full
                } else {
                    BufferState::Partial
                };
                let fill = self
                    .tree
                    .close_fill(state)
                    .expect("begin_fill reserved an empty slot");
                self.buffers[fill.slot].populate_sorted(
                    data,
                    fill.rate,
                    fill.level,
                    self.config.buffer_size,
                );
            }
        }
        // Restore the sorted invariant on any slot whose seal was deferred:
        // once finished, every populated buffer is sorted and the engine can
        // be snapshotted, drained or queried with no special cases.
        for idx in 0..self.buffers.len() {
            if self.slot_is_unsorted(idx) {
                self.buffers[idx].make_sorted_with(&mut self.scratch.radix);
            }
        }
        self.unsorted_mask.fill(false);
        self.finished = true;
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants("finish");
    }

    /// Estimate the φ-quantile of everything inserted so far.
    ///
    /// Non-destructive: this is the paper's `Output` operation, which "does
    /// not destroy or modify the state \[and\] can be invoked as many times as
    /// required" (§3.7). Returns `None` before any element has arrived.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.query_many(&[phi]).map(|mut v| v.remove(0))
    }

    /// Estimate several quantiles at once from one merge pass. Results are
    /// returned in the order of `phis`. Returns `None` before any element
    /// has arrived.
    // panic-free: buffer indices come from enumerate(); out[original] and
    // the closing expect hold because `order` carries every index 0..len
    // exactly once, so every slot is filled before unwrapping.
    pub fn query_many(&self, phis: &[f64]) -> Option<Vec<T>> {
        // Cached read path: every phi is a binary search over the spine
        // (rebuilt at most once per ingest epoch). The spine's positional
        // lookup returns exactly the element the weighted-merge selection
        // below would pick, so the two paths answer identically.
        if let Some(cached) = self.with_current_spine(|spine| {
            let s = spine.total();
            if s == 0 {
                return None;
            }
            let mut out = Vec::with_capacity(phis.len());
            for &phi in phis {
                out.push(spine.lookup(output_position(phi, s))?.clone());
            }
            Some(out)
        }) {
            return cached;
        }
        // Only clone-and-sort the in-progress fill when it is actually out
        // of order; an ascending stream (or a freshly started fill) reads
        // straight from `filler`.
        let filler = self.front.filler();
        let sorted_holder: Option<Vec<T>> = if filler.is_sorted() {
            None
        } else {
            let mut v = filler.to_vec();
            v.sort_unstable();
            Some(v)
        };
        let filler_view: &[T] = sorted_holder.as_deref().unwrap_or(filler);
        // Deferred-seal slots hold raw data; queries read a sorted copy
        // (Output never mutates state, §3.7).
        let raw_copies: Vec<(usize, Vec<T>)> = (0..self.buffers.len())
            .filter(|&i| self.slot_is_unsorted(i))
            .map(|i| {
                let mut v = self.buffers[i].data().to_vec();
                v.sort_unstable();
                (i, v)
            })
            .collect();
        let pending = self.front.pending();
        let mut sources: Vec<WeightedSource<'_, T>> = Vec::new();
        for (i, b) in self.buffers.iter().enumerate() {
            if b.state() != BufferState::Empty {
                let data = raw_copies
                    .iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, v)| v.as_slice())
                    .unwrap_or_else(|| b.data());
                sources.push(WeightedSource::new(data, b.weight()));
            }
        }
        if !filler_view.is_empty() {
            sources.push(WeightedSource::new(filler_view, self.front.rate()));
        }
        let tail_holder;
        if let Some((tail, seen)) = pending {
            tail_holder = [tail.clone()];
            sources.push(WeightedSource::new(&tail_holder, seen));
        }
        let s = total_mass(&sources);
        if s == 0 {
            return None;
        }
        // Map each phi to its weighted position, select in sorted order,
        // then restore the caller's order. Callers overwhelmingly pass
        // ascending phis, whose positions are already sorted — skip the
        // per-call sort then.
        let mut order: Vec<(u64, usize)> = phis
            .iter()
            .map(|&phi| output_position(phi, s))
            .zip(0..)
            .collect();
        if !order.is_sorted() {
            order.sort_unstable();
        }
        let targets: Vec<u64> = order.iter().map(|&(p, _)| p).collect();
        let picked = select_weighted(&sources, &targets);
        let mut out: Vec<Option<T>> = vec![None; phis.len()];
        for ((_, original), value) in order.into_iter().zip(picked) {
            out[original] = Some(value);
        }
        Some(
            out.into_iter()
                .map(|v| v.expect("every slot filled"))
                .collect(),
        )
    }

    /// Total weighted mass visible to `Output` right now. Equals [`Engine::n`]
    /// while streaming; may exceed it by less than one block after
    /// [`Engine::finish`] (the partial buffer rounds its tail block's weight
    /// up to `r`).
    pub fn output_mass(&self) -> u64 {
        let mut s: u64 = self
            .buffers
            .iter()
            .filter(|b| b.state() != BufferState::Empty)
            .map(Buffer::mass)
            .sum();
        // Saturating like Buffer::mass: the total is the stream length by
        // weight conservation, so wrapping is impossible in a consistent
        // engine — pin rather than wrap if state is ever corrupted.
        let filler = (self.front.filler().len() as u64).saturating_mul(self.front.rate());
        s = s.saturating_add(filler);
        if let Some((_, seen)) = self.front.pending() {
            s = s.saturating_add(seen);
        }
        s
    }

    /// Greatest weight among the buffers `Output` would consult (the
    /// `w_max` of Lemma 4). Zero if no data.
    pub fn w_max(&self) -> u64 {
        let mut w = self
            .buffers
            .iter()
            .filter(|b| b.state() != BufferState::Empty)
            .map(Buffer::weight)
            .max()
            .unwrap_or(0);
        if !self.front.filler().is_empty() || self.front.pending().is_some() {
            w = w.max(self.front.rate());
        }
        w
    }

    /// The deterministic part of the rank-error guarantee at this instant:
    /// `(W + w_max)/2` weighted-rank units (weakened Lemma 4). The sampling
    /// error comes on top of this, controlled by ε, δ and the schedule.
    pub fn tree_error_bound(&self) -> u64 {
        self.stats.tree_error_bound(self.w_max())
    }

    /// Collapse **all** full buffers into one (used by the parallel
    /// protocol, §6, before shipping buffers to the coordinator). No-op if
    /// fewer than two buffers are full.
    pub fn collapse_all_full(&mut self) {
        self.bump_epoch();
        // The decision leaves the arena for the duration so
        // perform_collapse can borrow `&mut self` while it is alive.
        let mut decision = std::mem::take(&mut self.scratch.decision);
        if let Some(step) = self.tree.collapse_all_full(&mut decision) {
            self.perform_collapse(&decision, step);
        }
        decision.clear();
        self.scratch.decision = decision;
    }

    /// Tear down the engine and return its non-empty buffers
    /// (full-or-partial), e.g. for shipping to a parallel coordinator.
    pub fn into_buffers(mut self) -> Vec<Buffer<T>> {
        self.finish();
        self.buffers
            .drain(..)
            .filter(|b| b.state() != BufferState::Empty)
            .collect()
    }

    // ---- snapshot support (see crate::snapshot) --------------------------

    /// All buffer slots (including empty ones), for snapshotting.
    pub(crate) fn raw_buffers(&self) -> &[Buffer<T>] {
        &self.buffers
    }

    /// True when slot `idx` holds raw deferred-seal data; the snapshot
    /// writer sorts its copy of such a slot before serialising.
    pub(crate) fn slot_is_unsorted(&self, idx: usize) -> bool {
        self.unsorted_mask.get(idx).copied().unwrap_or(false)
    }

    /// Flag slot `idx` as holding raw deferred-seal data, growing the mask
    /// to cover lazily allocated slots.
    // panic-free: the resize directly above guarantees idx is in bounds.
    fn mark_unsorted(&mut self, idx: usize) {
        if self.unsorted_mask.len() <= idx {
            self.unsorted_mask.resize(idx + 1, false);
        }
        self.unsorted_mask[idx] = true;
    }

    /// Lazy-allocation thresholds.
    pub(crate) fn allocation_thresholds(&self) -> &[u64] {
        self.tree.allocation()
    }

    /// In-progress fill: (elements, rate, level, active?). Rate and level
    /// are the last fill's while none is active.
    pub(crate) fn fill_state(&self) -> (&[T], u64, u32, bool) {
        let fill = self.tree.last_fill();
        (
            self.front.filler(),
            fill.rate,
            fill.level,
            self.front.is_filling(),
        )
    }

    /// The pending (incomplete) block's representative and element count.
    pub(crate) fn pending_block(&self) -> Option<(T, u64)> {
        self.front.pending().map(|(v, seen)| (v.clone(), seen))
    }

    /// Even-weight collapse alternation phase.
    pub(crate) fn collapse_phase(&self) -> bool {
        self.tree.high_phase()
    }

    /// The rate schedule's current state.
    pub(crate) fn schedule_state(&self) -> &R {
        self.tree.schedule()
    }

    /// Overwrite the internals from a snapshot (called by
    /// [`Engine::restore`] on a freshly constructed engine).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_internals(
        &mut self,
        buffers: Vec<Buffer<T>>,
        filler: Vec<T>,
        fill_rate: u64,
        fill_level: u32,
        filling: bool,
        pending: Option<(T, u64)>,
        collapse_high_phase: bool,
        stats: TreeStats,
        finished: bool,
    ) {
        assert!(filler.len() < self.config.buffer_size || !filling);
        // Slot table: the restored buffers plus one empty slot when a fill
        // is in progress (begin_fill had reserved one).
        self.buffers = buffers;
        if filling {
            self.buffers.push(Buffer::empty(self.config.buffer_size));
        }
        assert!(
            self.buffers.len() <= self.config.num_buffers,
            "snapshot exceeds the buffer budget"
        );
        let fill = Fill {
            slot: self.buffers.len().saturating_sub(1),
            rate: fill_rate,
            level: fill_level,
        };
        self.tree.restore(
            self.buffers.iter().enumerate().map(|(i, b)| b.meta(i)),
            fill,
            filling,
            collapse_high_phase,
            stats.leaves,
        );
        // Snapshots always carry sorted buffer data (the writer sorts raw
        // slots' copies), so no deferred-seal marks survive a restore.
        self.unsorted_mask.fill(false);
        self.front.restore(filler, fill_rate, filling, pending);
        self.stats = stats;
        self.finished = finished;
        self.bump_epoch();
        self.bump_generation();
    }

    // ---- invariant auditor (feature "invariant-audit") -------------------

    /// Attach the offline-certified error coefficients: every subsequent
    /// seal/collapse/finish re-checks the live tree against them (see
    /// [`crate::invariant`]).
    #[cfg(feature = "invariant-audit")]
    pub fn set_certified_schedule(&mut self, certified: crate::invariant::CertifiedSchedule) {
        self.certified = Some(certified);
    }

    /// The attached certificate, if any.
    #[cfg(feature = "invariant-audit")]
    pub fn certified_schedule(&self) -> Option<&crate::invariant::CertifiedSchedule> {
        self.certified.as_ref()
    }

    /// Assert every MRL structural invariant plus the analysis-certified
    /// error bound on the live tree. Called after each seal, collapse and
    /// finish; also callable from tests at arbitrary quiescent points.
    ///
    /// # Panics
    /// Panics (with `context` in the message) on any violated invariant.
    // arith: the auditor recomputes accounting identities to *check* them;
    // `mass - n` is guarded by `mass >= n` in the same condition and the
    // sums mirror n()/output_mass(), whose bounds are established there.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_invariants(&self, context: &str) {
        let k = self.config.buffer_size;
        // Weight conservation: the mass `Output` sees is exactly the
        // elements consumed — except after finish, where the partial
        // buffer's tail block rounds its weight up by < one block.
        let mass = self.output_mass();
        let n = self.n();
        let fill = self.tree.last_fill();
        if self.finished {
            assert!(
                mass >= n && mass - n < fill.rate.max(1),
                "[{context}] finished mass {mass} must round n {n} up by < one block \
                 (rate {})",
                fill.rate
            );
        } else {
            assert_eq!(
                mass, n,
                "[{context}] weight conservation: output mass {mass} != elements {n}"
            );
        }
        // Occupancy legality and sortedness, per slot.
        assert!(
            self.buffers.len() <= self.config.num_buffers,
            "[{context}] {} slots allocated, budget is {}",
            self.buffers.len(),
            self.config.num_buffers
        );
        // The data follows the tree: every buffer carries exactly the
        // state, weight and level of its slot, and both agree on whether a
        // fill is open.
        assert_eq!(
            self.buffers.len(),
            self.tree.slots().len(),
            "[{context}] buffer slots and tree slots differ in number"
        );
        assert_eq!(
            self.front.is_filling(),
            self.tree.fill().is_some(),
            "[{context}] front and tree disagree on the open fill"
        );
        for (idx, (b, slot)) in self.buffers.iter().zip(self.tree.slots()).enumerate() {
            assert_eq!(
                b.meta(idx),
                *slot,
                "[{context}] buffer {idx} differs from its tree slot"
            );
        }
        for (idx, b) in self.buffers.iter().enumerate() {
            match b.state() {
                BufferState::Empty => continue,
                BufferState::Full => assert_eq!(
                    b.data().len(),
                    k,
                    "[{context}] full buffer {idx} holds {} of {k} elements",
                    b.data().len()
                ),
                BufferState::Partial => assert!(
                    !b.data().is_empty() && b.data().len() <= k,
                    "[{context}] partial buffer {idx} holds {} of {k} elements",
                    b.data().len()
                ),
            }
            assert!(
                b.weight() >= 1,
                "[{context}] buffer {idx} has weight {}",
                b.weight()
            );
            // The partial buffer sealed by finish() carries the in-progress
            // fill's level, which may not have a completed leaf yet — allow
            // `fill_level` alongside the deepest recorded level.
            let level_cap = self.stats.max_level.max(fill.level);
            assert!(
                b.level() <= level_cap,
                "[{context}] buffer {idx} at level {} above the tree's max {level_cap}",
                b.level()
            );
            if !self.slot_is_unsorted(idx) {
                assert!(
                    b.data().is_sorted(),
                    "[{context}] buffer {idx} (weight {}, level {}) is not sorted",
                    b.weight(),
                    b.level()
                );
            }
        }
        // The certified bound: the live Lemma-4 tree error must stay within
        // what the data-free replay proved for this (b, k, h) schedule. The
        // replay covers the *streaming* schedule only — once finished, the
        // §6 shipping collapse (`collapse_all_full`) merges across levels
        // in a way the certificate never modelled, and its error is
        // accounted by the coordinator's merge analysis instead.
        if let Some(cert) = &self.certified {
            if mass > 0 && !self.finished {
                let sampling = self.tree.sampling_started();
                let bound = self.tree_error_bound() as f64;
                let budget = cert.tree_budget(sampling, mass, k);
                assert!(
                    bound <= budget,
                    "[{context}] tree error {bound} exceeds certified g·mass/k = {budget} \
                     (sampling {sampling}, mass {mass}, k {k})"
                );
                let eps_budget = cert.epsilon_budget(mass);
                assert!(
                    bound <= eps_budget,
                    "[{context}] tree error {bound} exceeds ε·mass = {eps_budget} (mass {mass})"
                );
            }
        }
    }

    /// Assert that a freshly refreshed spine holds exactly the mass
    /// `Output` sees, and that its sealed part holds exactly the buffers'
    /// mass: a sealed part reused across a missed generation bump fails
    /// here.
    ///
    /// # Panics
    /// Panics on either mismatch.
    #[cfg(feature = "invariant-audit")]
    fn audit_spine(&self, spine: &QuerySpine<T>) {
        let buffered = self
            .buffers
            .iter()
            .filter(|b| b.state() != BufferState::Empty)
            .map(Buffer::mass)
            .fold(0u64, u64::saturating_add);
        assert_eq!(
            spine.sealed_mass(),
            buffered,
            "[spine] sealed part mass differs from the buffers' (generation {})",
            self.generation
        );
        assert_eq!(
            spine.total(),
            self.output_mass(),
            "[spine] spine mass differs from the output mass (epoch {})",
            self.epoch
        );
    }

    // ---- internals ------------------------------------------------------

    /// Open the next fill: carry out the tree's allocations and collapses
    /// until it frees a slot, then start the front at the fill's rate.
    // alloc: buffer-slot growth happens at most num_buffers times over the
    // engine's whole lifetime — the paper's b·k memory budget, not a
    // per-element cost.
    fn begin_fill(&mut self) {
        debug_assert!(!self.front.is_filling());
        debug_assert_eq!(self.front.pending_count(), 0);
        let previous = self.tree.last_fill().rate;
        // The decision leaves the arena for the duration so
        // perform_collapse can borrow `&mut self` while it is alive.
        let mut decision = std::mem::take(&mut self.scratch.decision);
        let fill = loop {
            match self.tree.next_step(&mut decision) {
                TreeStep::Allocate { .. } => {
                    self.buffers.push(Buffer::empty(self.config.buffer_size));
                }
                TreeStep::Collapse(step) => self.perform_collapse(&decision, step),
                TreeStep::Fill(fill) => break fill,
            }
        };
        decision.clear();
        self.scratch.decision = decision;
        if fill.rate != previous {
            self.metrics.counter_add(metrics::RATE_TRANSITIONS, 1);
            self.journal.record(EventKind::RateTransition {
                from: previous,
                to: fill.rate,
            });
        }
        self.metrics
            .gauge_set(metrics::RATE_CURRENT, fill.rate as f64);
        self.front.start(fill.rate);
    }

    /// Account for the `count` representatives the front just appended.
    fn sampled(&mut self, count: usize) {
        self.stats.record_blocks(self.front.rate(), count as u64);
        self.tap_recent(count);
    }

    /// Copy the fill's last `count` representatives into the sample tap,
    /// if it is on.
    fn tap_recent(&mut self, count: usize) {
        if let Some(tap) = &mut self.sample_tap {
            let filler = self.front.filler();
            let rate = self.front.rate();
            let recent = filler.iter().skip(filler.len().saturating_sub(count));
            tap.extend(recent.map(|v| (v.clone(), rate)));
        }
    }

    /// Take the completed fill out of the front, leaving `storage` as the
    /// next fill's: a sorted fill is adopted as-is, and any other fill is
    /// returned **unsorted** (`false` flag) so the sort can be deferred to
    /// collapse time, where raw siblings are sorted together in one pass.
    fn take_filler(&mut self, storage: Vec<T>, level: u32) -> (Vec<T>, bool) {
        let timer = self.metrics.timer(metrics::SEAL_NS);
        let seal_begin = self.journal.now_ns();
        let data = self.front.take_fill(storage);
        let sorted = data.is_sorted();
        // The event's run count only distinguishes one run from "at least
        // two": nothing counts the descents of a parked fill.
        let (seal_key, kernel, runs) = if sorted {
            (metrics::SEAL_PRESORTED, SealKernel::Presorted, 1)
        } else {
            (metrics::SEAL_PARKED_RAW, SealKernel::ParkedRaw, 2)
        };
        self.metrics.counter_add(seal_key, 1);
        timer.stop();
        if let Some(begin) = seal_begin {
            let end = self.journal.now_ns().unwrap_or(begin);
            self.journal.record_at(
                end,
                EventKind::BufferSeal {
                    level,
                    kernel,
                    k: data.len() as u64,
                    runs,
                    dur_ns: end.saturating_sub(begin),
                },
            );
        }
        (data, sorted)
    }

    /// Seal the full fill into the slot the tree puts it in.
    // panic-free: complete_fill is Some — begin_fill opened the tree's fill
    // and reserved its empty slot, which nothing between could occupy — and
    // the tree's slot indexes the buffer table, which mirrors its slots.
    fn complete_fill(&mut self) {
        debug_assert!(self.front.is_full());
        let fill = self
            .tree
            .complete_fill()
            .expect("begin_fill reserved an empty slot");
        self.bump_generation();
        let k = self.config.buffer_size;
        // Recycle the slot's retired allocation as the next fill's storage
        // instead of allocating a fresh vector per seal.
        let mut storage = self.buffers[fill.slot].take_storage();
        storage.reserve(k);
        let (data, sorted) = self.take_filler(storage, fill.level);
        self.buffers[fill.slot].populate_raw(data, fill.rate, fill.level, k);
        if !sorted {
            debug_assert!(!self.slot_is_unsorted(fill.slot));
            self.mark_unsorted(fill.slot);
        }
        self.stats.record_leaf(fill.level);
        self.metrics
            .counter_add(Key::labeled(metrics::LEAVES_BY_LEVEL, fill.level), 1);
        if self.metrics.is_enabled() {
            self.publish_state_gauges();
        }
        self.note_onset();
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants("seal");
    }

    /// Record the stream position of the sampling onset, the first time
    /// the tree reports it.
    fn note_onset(&mut self) {
        if self.tree.sampling_started() && self.stats.record_onset() {
            self.metrics
                .gauge_set(metrics::SAMPLING_ONSET_N, self.stats.elements as f64);
        }
    }

    /// Refresh the point-in-time gauges (buffer occupancy by level,
    /// allocation, stream position, sampler draws). Called once per sealed
    /// buffer, and only when a recorder is attached.
    // panic-free: occupied[level] is preceded by resize(level + 1, …) on
    // the same branch whenever it is out of range.
    fn publish_state_gauges(&mut self) {
        let occupied = &mut self.scratch.occupancy;
        occupied.clear();
        for b in &self.buffers {
            if b.state() != BufferState::Empty {
                let level = b.level() as usize;
                if occupied.len() <= level {
                    occupied.resize(level + 1, 0);
                }
                occupied[level] += 1;
            }
        }
        for (level, &count) in occupied.iter().enumerate() {
            if count > 0 {
                self.metrics.gauge_set(
                    Key::labeled(metrics::OCCUPANCY_BY_LEVEL, level as u32),
                    count as f64,
                );
            }
        }
        self.metrics
            .gauge_set(metrics::BUFFERS_ALLOCATED, self.buffers.len() as f64);
        self.metrics
            .gauge_set(metrics::ELEMENTS, self.stats.elements as f64);
        self.metrics
            .gauge_set(metrics::SAMPLER_DRAWS, self.front.draws() as f64);
    }

    /// Carry out a collapse the tree decided: apply its promotions, then
    /// select the output from the sources into the first source's slot.
    // panic-free: the tree hands over ≥ 2 valid, distinct slot indices (it
    // asserts the count; the policy picks them from its slot table, which
    // the buffer table mirrors); the raw fast path's strided gather stays in
    // bounds because its last index (first - 1)/w0 + (k - 1)·c < c·k =
    // |concat| (and iterator adapters cannot overrun regardless).
    // alloc: every path works inside the scratch arena, whose vectors keep
    // their capacity across collapses.
    fn perform_collapse(&mut self, decision: &CollapseDecision, step: CollapseStep) {
        self.bump_generation();
        for &(idx, level) in &decision.promotions {
            self.buffers[idx].promote(level);
        }
        let slots = decision.collapse.as_slice();
        let output_level = decision.output_level;
        let CollapseStep { weight: w, high } = step;
        let collapse_timer = self.metrics.timer(metrics::COLLAPSE_NS);
        let collapse_begin = self.journal.now_ns();
        if let Some(begin) = collapse_begin {
            // Full provenance, recorded while the sources are intact: one
            // event per source buffer, contiguously ahead of the collapse
            // event on the same thread's ring. All sources share the
            // already-taken begin timestamp — provenance is identity, not
            // timing, and skipping the per-source clock read keeps the
            // attached overhead low (the benchmark's `trace.overhead_pct`).
            for &i in slots {
                let b = &self.buffers[i];
                self.journal.record_at(
                    begin,
                    EventKind::CollapseSource {
                        slot: i as u32,
                        level: b.level(),
                        weight: b.weight(),
                        len: b.data().len() as u64,
                    },
                );
            }
        }
        // Collapse targets always form the arithmetic progression
        // `first + j·w` (§3.2); every path below consumes the progression
        // parameters directly and never materialises a target vector.
        let first = collapse_first_target(w, high);
        let k = self.config.buffer_size;
        let mut new_data = std::mem::take(&mut self.scratch.select_out);
        let w0 = self.buffers[slots[0]].weight();
        let equal_weights =
            slots.len() >= 2 && slots.iter().all(|&i| self.buffers[i].weight() == w0);
        let all_raw = slots.iter().all(|&i| self.slot_is_unsorted(i));
        // The concat path serves two shapes: every input raw (one sort of
        // the concatenation replaces the deferred per-buffer sorts plus
        // the merge walk), and any ≥ 3-way equal-weight collapse, where
        // one concat sort beats the pair-merge materialisation even though
        // the inputs are already sorted.
        let concat_path = equal_weights && (all_raw || slots.len() >= 3);
        if concat_path {
            // Equal weight `w0` everywhere: concatenate, sort once, and
            // index the evenly spaced targets directly. Position `t`
            // (1-based) of the weighted merged sequence is the sorted
            // concatenation's element `(t - 1) / w0`, and sorting the
            // concatenation yields the same value sequence as merging the
            // individually sorted inputs, so the selected elements are
            // identical to the general path's.
            let concat = &mut self.scratch.concat;
            concat.clear();
            for &i in slots {
                concat.extend_from_slice(self.buffers[i].data());
            }
            if !try_sort_fixed(concat, &mut self.scratch.radix) {
                concat.sort_unstable();
            }
            if all_raw {
                self.metrics.counter_add(metrics::COLLAPSE_RAW_FAST_PATH, 1);
            }
            // Target positions step by `w = c·w0`, so the indices step by
            // exactly `c` from `(first - 1) / w0` — a strided gather, no
            // per-target division.
            let start = ((first - 1) / w0) as usize;
            new_data.clear();
            new_data.extend(
                concat
                    .iter()
                    .skip(start)
                    .step_by(slots.len())
                    .take(k)
                    .cloned(),
            );
        } else {
            // Mixed weights: restore the sorted invariant on any raw input
            // first (the sort deferred from its seal happens here instead),
            // then run the weighted merge selection.
            for &i in slots {
                // Field access (not clear_unsorted) keeps the borrow
                // disjoint from the live metrics timer.
                let raw = self
                    .unsorted_mask
                    .get_mut(i)
                    .map(|m| std::mem::replace(m, false))
                    .unwrap_or(false);
                if raw {
                    self.buffers[i].make_sorted_with(&mut self.scratch.radix);
                }
            }
            // Collapse targets are spaced `w` apart while each merge step
            // adds some wᵢ ≤ w − 1, so the single-crossing contract of the
            // branchless kernels always holds here and they can run
            // directly over the buffers — no per-collapse source list. Two
            // and three sources — together all but a sliver of the mixed
            // collapses the adaptive policy emits — walk the buffers in
            // place; only ≥ 4 sources pay the pair-merge materialisation.
            if slots.len() == 2 {
                let (a, b) = (&self.buffers[slots[0]], &self.buffers[slots[1]]);
                select_two_weighted_spaced(
                    a.data(),
                    a.weight(),
                    b.data(),
                    b.weight(),
                    first,
                    w,
                    k,
                    &mut new_data,
                );
            } else if slots.len() == 3 {
                let (a, b, c) = (
                    &self.buffers[slots[0]],
                    &self.buffers[slots[1]],
                    &self.buffers[slots[2]],
                );
                select_three_weighted_spaced(
                    a.data(),
                    a.weight(),
                    b.data(),
                    b.weight(),
                    c.data(),
                    c.weight(),
                    first,
                    w,
                    k,
                    &mut new_data,
                );
            } else {
                // ≥ 4 sources: pair-merge the buffers into one weighted
                // run inside the arena, then one branchless sweep.
                let (pairs, starts, pair_merge) = self.scratch.select.pair_parts_mut();
                pairs.clear();
                starts.clear();
                for &i in slots {
                    starts.push(pairs.len());
                    let b = &self.buffers[i];
                    let w_i = b.weight();
                    pairs.extend(b.data().iter().map(|v| (v.clone(), w_i)));
                }
                merge_sorted_runs_with(pairs, starts, pair_merge);
                select_merged_weighted_spaced(pairs, first, w, k, &mut new_data);
            }
        }
        for &i in slots {
            self.buffers[i].clear();
        }
        // Cleared slots no longer hold raw data (fast-path inputs keep their
        // marks until here); the output below is sorted, so no new mark.
        for &i in slots {
            if let Some(m) = self.unsorted_mask.get_mut(i) {
                *m = false;
            }
        }
        // Recycle the cleared output slot's old allocation as the next
        // collapse's selection scratch: steady-state collapsing then swaps
        // two k-capacity vectors back and forth without allocating.
        self.scratch.select_out = self.buffers[slots[0]].take_storage();
        // Collapse output comes out of the weighted selection already
        // sorted — adopt it without a re-sort.
        self.buffers[slots[0]].populate_sorted(new_data, w, output_level, self.config.buffer_size);
        self.stats.record_collapse(w, output_level);
        self.metrics.counter_add(metrics::COLLAPSES, 1);
        self.metrics.gauge_set(
            metrics::COLLAPSE_WEIGHT_SUM,
            self.stats.collapse_weight_sum as f64,
        );
        collapse_timer.stop();
        if let Some(begin) = collapse_begin {
            let path = match slots.len() {
                _ if concat_path => CollapsePath::Concat,
                2 => CollapsePath::TwoSource,
                3 => CollapsePath::ThreeSource,
                _ => CollapsePath::PairMerge,
            };
            let end = self.journal.now_ns().unwrap_or(begin);
            self.journal.record_at(
                end,
                EventKind::Collapse {
                    output_level,
                    sources: slots.len() as u32,
                    path,
                    weight_sum: w,
                    dur_ns: end.saturating_sub(begin),
                },
            );
        }
        self.note_onset();
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants("collapse");
    }
}

/// The engine as the batch-sampling loop's [`FillSink`]. A private
/// wrapper, so the sink methods stay internal to the engine.
struct Ingest<'a, T, P, R>(&'a mut Engine<T, P, R>);

impl<T, P, R> FillSink<T> for Ingest<'_, T, P, R>
where
    T: Ord + Clone + 'static,
    P: CollapsePolicy,
    R: RateSchedule,
{
    fn front(&mut self) -> &mut FillFront<T> {
        &mut self.0.front
    }

    fn begin_fill(&mut self) {
        self.0.begin_fill();
    }

    fn sampled(&mut self, count: usize) {
        self.0.sampled(count);
    }

    fn complete_fill(&mut self) {
        self.0.complete_fill();
    }
}
