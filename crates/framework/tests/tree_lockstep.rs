//! Lockstep property: the engine moves data exactly as its tree decides.
//!
//! A bare [`Tree`], stepped one fill at a time with no data at all, must
//! open the same fills — as (slot, rate, level) — and decide the same
//! collapses — as (source slots, output level, weight) — as an [`Engine`]
//! fed random data in random chunks, for every collapse policy, onset
//! height and lazy allocation schedule (the `DynamicUnknownN` path). The
//! sharded pipeline's producer relies on this when it samples for a shard
//! with a replica of the shard's tree.

use std::sync::Arc;

use mrl_framework::{
    AdaptiveLowestLevel, AlsabtiRankaSingh, BufferState, CollapseDecision, CollapsePolicy, Engine,
    EngineConfig, Fill, Mrl99Schedule, MunroPaterson, Tree, TreeStep,
};
use mrl_obs::{EventJournal, EventKind, JournalHandle};
use proptest::prelude::*;

/// A collapse as (source slots, output level, weight).
type Collapse = (Vec<usize>, u32, u64);

/// The bare tree and the steps it has taken.
struct Bare<P> {
    tree: Tree<P, Mrl99Schedule>,
    decision: CollapseDecision,
    fills: Vec<Fill>,
    collapses: Vec<Collapse>,
}

impl<P: CollapsePolicy> Bare<P> {
    /// Step to the next fill, logging every collapse on the way.
    fn begin_fill(&mut self) {
        loop {
            match self.tree.next_step(&mut self.decision) {
                TreeStep::Allocate { .. } => {}
                TreeStep::Collapse(step) => self.collapses.push((
                    self.decision.collapse.clone(),
                    self.decision.output_level,
                    step.weight,
                )),
                TreeStep::Fill(fill) => {
                    self.fills.push(fill);
                    return;
                }
            }
        }
    }

    /// Catch up with an engine that has completed `leaves` fills and may
    /// have opened the next one.
    fn catch_up(&mut self, leaves: u64, open: bool) {
        while self.tree.leaves() < leaves {
            if self.tree.fill().is_none() {
                self.begin_fill();
            }
            self.tree.complete_fill();
        }
        if open && self.tree.fill().is_none() {
            self.begin_fill();
        }
    }
}

/// The engine's collapses, read off its journal: each collapse event is
/// preceded by one source event per source slot.
fn journaled_collapses(journal: &EventJournal) -> Vec<Collapse> {
    let dump = journal.drain();
    assert_eq!(dump.lost(), 0, "the journal must hold every event");
    let mut out = Vec::new();
    let mut sources = Vec::new();
    for ev in dump.rings.iter().flat_map(|r| r.events.iter()) {
        match ev.kind {
            EventKind::CollapseSource { slot, .. } => sources.push(slot as usize),
            EventKind::Collapse {
                output_level,
                weight_sum,
                ..
            } => out.push((std::mem::take(&mut sources), output_level, weight_sum)),
            _ => {}
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn lockstep<P: CollapsePolicy + Clone>(
    policy: P,
    b: usize,
    h: u32,
    k: usize,
    allocation: Vec<u64>,
    n: usize,
    chunks: &[usize],
    seed: u64,
) {
    let journal = Arc::new(EventJournal::with_capacity(1 << 17));
    let mut engine: Engine<u64, P, Mrl99Schedule> = Engine::with_allocation(
        EngineConfig::new(b, k),
        policy.clone(),
        Mrl99Schedule::new(h),
        allocation.clone(),
        seed,
    );
    engine.enable_tree_recording();
    engine.set_journal(JournalHandle::new(Arc::clone(&journal)));
    let mut tree = Tree::with_allocation(b, policy, Mrl99Schedule::new(h), allocation)
        .expect("a valid schedule builds a tree");
    tree.enable_recording();
    let mut bare = Bare {
        tree,
        decision: CollapseDecision::default(),
        fills: Vec::new(),
        collapses: Vec::new(),
    };

    let mut x = seed | 1;
    let data: Vec<u64> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        })
        .collect();
    let mut rest = data.as_slice();
    for &chunk in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(chunk.min(rest.len()));
        rest = later;
        if now.len() == 1 {
            engine.insert(now[0]);
        } else {
            engine.insert_batch(now);
        }
        let live = engine.tree();
        bare.catch_up(live.leaves(), live.fill().is_some());
        prop_assert_eq!(bare.tree.fill(), live.fill());
        prop_assert_eq!(bare.tree.slots(), live.slots());
    }

    // Fills: the bare tree's (rate, level) sequence is the engine's
    // recorded leaves; the open fill (slot included) was compared above.
    let recorded = engine.recorder().expect("recording on");
    prop_assert_eq!(recorded.nodes(), bare.tree.recorder().expect("on").nodes());
    let leaves: Vec<(u64, u32)> = recorded
        .nodes()
        .iter()
        .filter(|node| node.children.is_empty())
        .map(|node| (node.weight, node.level))
        .collect();
    let bare_leaves: Vec<(u64, u32)> = bare
        .fills
        .iter()
        .take(leaves.len())
        .map(|f| (f.rate, f.level))
        .collect();
    prop_assert_eq!(leaves, bare_leaves);
    // Collapses: the same sources, output level and weight, in order.
    prop_assert_eq!(journaled_collapses(&journal), bare.collapses);
    // The data follows: every buffer the engine holds has its slot's
    // weight and level.
    let held: Vec<(u64, u32)> = engine
        .snapshot()
        .buffers
        .iter()
        .map(|buf| (buf.weight, buf.level))
        .collect();
    let slots: Vec<(u64, u32)> = bare
        .tree
        .slots()
        .iter()
        .filter(|m| m.state != BufferState::Empty)
        .map(|m| (m.weight, m.level))
        .collect();
    prop_assert_eq!(held, slots);
}

/// A lazy allocation schedule from per-slot increments: slot 0 at once,
/// every later slot some leaves after the one before.
fn thresholds(increments: &[u64], lazy: bool) -> Vec<u64> {
    std::iter::once(0)
        .chain(increments.iter().scan(0, |at, &inc| {
            *at += if lazy { inc } else { 0 };
            Some(*at)
        }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bare_tree_steps_with_the_engine(
        b in 2usize..=12,
        h in 1u32..=6,
        policy in 0usize..3,
        k in 1usize..=4,
        lazy in any::<bool>(),
        increments in prop_vec(0u64..6, 11),
        n in 0usize..30_000,
        chunks in prop_vec(1usize..3_000, 1..6),
        seed in any::<u64>(),
    ) {
        let allocation = thresholds(&increments[..b - 1], lazy);
        match policy {
            0 => lockstep(AdaptiveLowestLevel, b, h, k, allocation, n, &chunks, seed),
            1 => lockstep(MunroPaterson, b, h, k, allocation, n, &chunks, seed),
            _ => lockstep(AlsabtiRankaSingh, b, h, k, allocation, n, &chunks, seed),
        }
    }
}
