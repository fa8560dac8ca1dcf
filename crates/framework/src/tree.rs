//! The data-free collapse tree (§3.5–3.7) and its optional recording.
//!
//! The order of `New` and `Collapse` steps is a function of `(b, h,
//! allocation)` alone: which slot a fill lands in, at what rate and level,
//! and which buffers a collapse merges never depend on the data. [`Tree`]
//! is that function. It owns the slot metadata (state, weight, level), the
//! lazy-allocation thresholds (§5), the leaf count, the even-weight
//! collapse phase (§3.2), the [`CollapsePolicy`] and the [`RateSchedule`],
//! and it hands out one [`TreeStep`] at a time. The engine moves data as
//! the steps say; the sharded pipeline's producer steps a replica of each
//! shard's tree with no data at all, to know the rate of every fill it
//! samples ahead of the shard (see `mrl_parallel::ShardedSketch`).
//!
//! The paper visualises algorithms as trees whose vertices are the logical
//! buffers produced during a run (Figures 2 and 3). [`TreeRecorder`]
//! reconstructs that tree from a live [`Tree`] so the `tree_shapes`
//! experiment binary can render it, and so tests can verify structural
//! properties (weights of internal nodes equal the sum of their children's,
//! leaf counts per level match the paper's formulas, ...).

use crate::buffer::{BufferMeta, BufferState};
use crate::policy::{CollapseDecision, CollapsePolicy};
use crate::schedule::RateSchedule;

/// One `New` operation as the tree schedules it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fill {
    /// The slot the fill's buffer lands in.
    pub slot: usize,
    /// The sampling rate `r`: one representative per block of `r` stream
    /// elements, so also the buffer's weight.
    pub rate: u64,
    /// The buffer's level in the tree.
    pub level: u32,
}

/// What the tree derived for a collapse it decided. The sources, their
/// promotions and the output level are in the [`CollapseDecision`] the
/// step was written into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollapseStep {
    /// Output weight: the sum of the sources' weights (§3.2).
    pub weight: u64,
    /// For an even weight, whether the output keeps the upper of the two
    /// middle positions of each block; successive even-weight collapses
    /// alternate (§3.2). Always `false` for an odd weight.
    pub high: bool,
}

/// The next thing the tree needs done before a fill can begin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeStep {
    /// Slot `slot` joined the slot table, empty (lazy allocation, §5).
    Allocate {
        /// Index of the new slot: the previous slot count.
        slot: usize,
    },
    /// Collapse the decision's `collapse` slots, after applying its
    /// `promotions`, into the first of them at its `output_level`.
    Collapse(CollapseStep),
    /// A slot is free: the next fill runs at this rate and level.
    Fill(Fill),
}

/// Why `(b, allocation)` cannot drive a tree, if it cannot.
pub(crate) fn allocation_problem(num_buffers: usize, allocation: &[u64]) -> Option<&'static str> {
    if num_buffers < 2 {
        Some("need at least two buffers to collapse")
    } else if allocation.len() != num_buffers {
        Some("allocation schedule must cover every buffer")
    } else if allocation.first() != Some(&0) {
        Some("the first buffer must be available immediately")
    } else if !allocation.is_sorted() {
        Some("allocation schedule must be non-decreasing")
    } else {
        None
    }
}

fn vacant(index: usize) -> BufferMeta {
    BufferMeta {
        index,
        weight: 0,
        level: 0,
        state: BufferState::Empty,
    }
}

/// The data-free control of an MRL engine: decides every allocation,
/// collapse and fill (see the module docs).
///
/// Step it with [`Tree::next_step`] until it yields [`TreeStep::Fill`],
/// then report the fill's end with [`Tree::complete_fill`] (a full
/// buffer) or [`Tree::close_fill`] (end of stream).
#[derive(Clone, Debug)]
pub struct Tree<P, R> {
    /// The slot table: `b` entries, of which the first `allocated` exist.
    slots: Vec<BufferMeta>,
    allocated: usize,
    /// `allocation[i]`: leaves that must exist before slot `i` may be
    /// allocated (all zero: allocate on demand from the start).
    allocation: Vec<u64>,
    leaves: u64,
    high_phase: bool,
    /// The open fill while `filling`, otherwise the last one.
    fill: Fill,
    filling: bool,
    policy: P,
    schedule: R,
    /// Full-slot metadata handed to the policy (reused scratch).
    metas: Vec<BufferMeta>,
    recorder: Option<TreeRecorder>,
    /// Recorder node of each slot's buffer, while recording.
    nodes: Vec<Option<usize>>,
}

impl<P: CollapsePolicy, R: RateSchedule> Tree<P, R> {
    /// A tree over `num_buffers` slots, each allocated when first needed.
    /// `None` when `num_buffers < 2`: with fewer than two buffers nothing
    /// can ever be collapsed.
    pub fn new(num_buffers: usize, policy: P, schedule: R) -> Option<Self> {
        Self::with_allocation(num_buffers, policy, schedule, vec![0; num_buffers])
    }

    /// A tree with the lazy allocation schedule of §5: `allocation[i]` is
    /// the number of leaves that must exist before slot `i` is allocated.
    /// `None` unless `num_buffers ≥ 2` and the schedule has one
    /// non-decreasing entry per slot, starting at 0.
    pub fn with_allocation(
        num_buffers: usize,
        policy: P,
        schedule: R,
        allocation: Vec<u64>,
    ) -> Option<Self> {
        if allocation_problem(num_buffers, &allocation).is_some() {
            return None;
        }
        Some(Self::build(num_buffers, policy, schedule, allocation))
    }

    /// [`Tree::with_allocation`] for arguments the caller has validated
    /// with [`allocation_problem`].
    pub(crate) fn build(num_buffers: usize, policy: P, schedule: R, allocation: Vec<u64>) -> Self {
        let fill = Fill {
            slot: 0,
            rate: schedule.rate(),
            level: 0,
        };
        Self {
            slots: (0..num_buffers).map(vacant).collect(),
            allocated: 0,
            allocation,
            leaves: 0,
            high_phase: false,
            fill,
            filling: false,
            policy,
            schedule,
            metas: Vec::with_capacity(num_buffers),
            recorder: None,
            nodes: Vec::new(),
        }
    }

    /// The next step toward a fill: a free slot gives
    /// [`TreeStep::Fill`] (and opens the fill); otherwise a slot is
    /// allocated when the schedule allows it or fewer than two buffers are
    /// full, and a collapse chosen by the policy frees one otherwise. A
    /// collapse's sources, promotions and output level are written into
    /// `decision`.
    ///
    /// # Panics
    /// Panics if no slot is free, none may be allocated and fewer than two
    /// buffers are full — only partial buffers, which exist after end of
    /// stream, can cause that.
    pub fn next_step(&mut self, decision: &mut CollapseDecision) -> TreeStep {
        if let Some(slot) = self.empty_slot() {
            self.fill = Fill {
                slot,
                rate: self.schedule.rate(),
                level: self.schedule.new_buffer_level(),
            };
            self.filling = true;
            return TreeStep::Fill(self.fill);
        }
        let may_allocate = self
            .allocation
            .get(self.allocated)
            .is_some_and(|&threshold| self.leaves >= threshold);
        let full = self
            .slots()
            .iter()
            .filter(|m| m.state == BufferState::Full)
            .count();
        if may_allocate || full < 2 {
            assert!(
                self.allocated < self.slots.len(),
                "no empty buffer, none allocatable, and fewer than two full buffers"
            );
            let slot = self.allocated;
            self.allocated += 1;
            return TreeStep::Allocate { slot };
        }
        let mut metas = std::mem::take(&mut self.metas);
        metas.clear();
        metas.extend(
            self.slots()
                .iter()
                .filter(|m| m.state == BufferState::Full)
                .copied(),
        );
        self.policy.choose_into(&metas, decision);
        self.metas = metas;
        TreeStep::Collapse(self.apply_collapse(decision))
    }

    /// Step until a fill opens, skipping the allocations and collapses on
    /// the way: what a replica that moves no data needs.
    pub fn begin_fill(&mut self, decision: &mut CollapseDecision) -> Fill {
        loop {
            if let TreeStep::Fill(fill) = self.next_step(decision) {
                return fill;
            }
        }
    }

    /// The open fill holds `k` representatives: it becomes a full leaf of
    /// weight `rate` at `level`, in the first free slot, and the rate
    /// schedule learns of the new leaf. Returns the fill, or `None` if no
    /// fill was open.
    pub fn complete_fill(&mut self) -> Option<Fill> {
        let fill = self.land(BufferState::Full)?;
        self.leaves = self.leaves.saturating_add(1);
        self.schedule.observe_level(fill.level);
        self.schedule.observe_leaves(self.leaves);
        Some(fill)
    }

    /// End of stream: close the open fill, whose buffer ends up in
    /// `state` — usually partial (§3.1), full when the stream's last block
    /// filled its last place, empty when the fill never received an
    /// element. The buffer is no leaf of the analysis (§4.2): the leaf
    /// count and the rate schedule do not change. Returns the fill unless
    /// `state` is empty.
    pub fn close_fill(&mut self, state: BufferState) -> Option<Fill> {
        if state == BufferState::Empty {
            self.filling = false;
            None
        } else {
            self.land(state)
        }
    }

    /// Collapse **every** full buffer into one, a level above the highest
    /// (the §6 shipping step). `None`, with nothing changed, when fewer
    /// than two buffers are full.
    pub fn collapse_all_full(&mut self, decision: &mut CollapseDecision) -> Option<CollapseStep> {
        decision.clear();
        let full = || self.slots().iter().filter(|m| m.state == BufferState::Full);
        if full().count() < 2 {
            return None;
        }
        decision.collapse.extend(full().map(|m| m.index));
        decision.output_level = full().map(|m| m.level).max().unwrap_or(0) + 1;
        Some(self.apply_collapse(decision))
    }

    // panic-free: the policy contract guarantees ≥ 2 distinct full slot
    // indices (asserted on entry), so `first` exists, and it indexes the
    // slot table, which `nodes` matches in length while recording.
    fn apply_collapse(&mut self, decision: &CollapseDecision) -> CollapseStep {
        assert!(
            decision.collapse.len() >= 2,
            "policy must collapse >= 2 buffers"
        );
        for &(slot, level) in &decision.promotions {
            if let Some(m) = self.slots.get_mut(slot) {
                assert!(level >= m.level, "buffer levels never decrease");
                m.level = level;
            }
        }
        let weight: u64 = decision
            .collapse
            .iter()
            .filter_map(|&i| self.slots.get(i))
            .map(|m| m.weight)
            .sum();
        let high = if weight.is_multiple_of(2) {
            let phase = self.high_phase;
            self.high_phase = !phase;
            phase
        } else {
            false
        };
        let first = decision.collapse[0];
        if let Some(rec) = &mut self.recorder {
            let nodes = &mut self.nodes;
            let children = decision
                .collapse
                .iter()
                .filter_map(|&i| nodes.get_mut(i).and_then(Option::take));
            let node = rec.add_collapse(weight, decision.output_level, children);
            nodes[first] = Some(node);
        }
        for &i in &decision.collapse {
            if let Some(m) = self.slots.get_mut(i) {
                *m = vacant(i);
            }
        }
        if let Some(m) = self.slots.get_mut(first) {
            *m = BufferMeta {
                index: first,
                weight,
                level: decision.output_level,
                state: BufferState::Full,
            };
        }
        self.schedule.observe_level(decision.output_level);
        CollapseStep { weight, high }
    }

    /// Put the open fill's buffer into the first free slot as `state`.
    fn land(&mut self, state: BufferState) -> Option<Fill> {
        if !self.filling {
            return None;
        }
        let slot = self.empty_slot()?;
        self.filling = false;
        self.fill.slot = slot;
        let Fill { rate, level, .. } = self.fill;
        if let Some(m) = self.slots.get_mut(slot) {
            *m = BufferMeta {
                index: slot,
                weight: rate,
                level,
                state,
            };
        }
        if let (Some(rec), Some(node)) = (&mut self.recorder, self.nodes.get_mut(slot)) {
            *node = Some(rec.add_leaf(rate, level));
        }
        Some(self.fill)
    }

    fn empty_slot(&self) -> Option<usize> {
        self.slots()
            .iter()
            .position(|m| m.state == BufferState::Empty)
    }
}

impl<P, R: RateSchedule> Tree<P, R> {
    /// The sampling rate the next fill would get now.
    pub fn rate(&self) -> u64 {
        self.schedule.rate()
    }

    /// True once the rate schedule has moved past rate 1 (§3.7).
    pub fn sampling_started(&self) -> bool {
        self.schedule.sampling_started()
    }
}

impl<P, R> Tree<P, R> {
    /// Metadata of every allocated slot, indexed by slot.
    pub fn slots(&self) -> &[BufferMeta] {
        self.slots.get(..self.allocated).unwrap_or_default()
    }

    /// Lazy-allocation thresholds (all zero for on-demand allocation).
    pub fn allocation(&self) -> &[u64] {
        &self.allocation
    }

    /// Completed leaves (full `New` buffers) so far.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// The open fill, if one is open.
    pub fn fill(&self) -> Option<Fill> {
        self.filling.then_some(self.fill)
    }

    /// The open fill, or the last one (before any fill: the initial rate at
    /// level 0).
    pub fn last_fill(&self) -> Fill {
        self.fill
    }

    /// The even-weight collapse alternation phase.
    pub fn high_phase(&self) -> bool {
        self.high_phase
    }

    /// The rate schedule's current state.
    pub fn schedule(&self) -> &R {
        &self.schedule
    }

    /// Record every leaf and collapse from now on (Figures 2–3).
    pub fn enable_recording(&mut self) {
        self.recorder = Some(TreeRecorder::new());
        self.nodes = vec![None; self.slots.len()];
    }

    /// The recorded tree, if recording is enabled.
    pub fn recorder(&self) -> Option<&TreeRecorder> {
        self.recorder.as_ref()
    }

    /// Recorder node ids of the buffers currently held (full or partial).
    pub fn root_nodes(&self) -> Vec<usize> {
        self.slots()
            .iter()
            .zip(&self.nodes)
            .filter(|(m, _)| m.state != BufferState::Empty)
            .filter_map(|(_, n)| *n)
            .collect()
    }

    /// Overwrite the state from a snapshot: the allocated slots' metadata
    /// in slot order, the fill (open when `filling`), the collapse phase
    /// and the leaf count. Slots beyond the budget are ignored.
    pub(crate) fn restore(
        &mut self,
        slots: impl IntoIterator<Item = BufferMeta>,
        fill: Fill,
        filling: bool,
        high_phase: bool,
        leaves: u64,
    ) {
        self.allocated = 0;
        for (m, restored) in self.slots.iter_mut().zip(slots) {
            *m = BufferMeta {
                index: self.allocated,
                ..restored
            };
            self.allocated += 1;
        }
        for (i, m) in self.slots.iter_mut().enumerate().skip(self.allocated) {
            *m = vacant(i);
        }
        self.fill = fill;
        self.filling = filling;
        self.high_phase = high_phase;
        self.leaves = leaves;
        self.nodes.iter_mut().for_each(|n| *n = None);
    }
}

/// What produced a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Populated from the stream by `New`.
    Leaf,
    /// Output of a `Collapse`.
    Collapse,
}

/// One logical buffer in the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// Buffer weight.
    pub weight: u64,
    /// Buffer level.
    pub level: u32,
    /// Children (indices into the recorder's node table); empty for leaves.
    pub children: Vec<usize>,
    /// Leaf or collapse output.
    pub kind: NodeKind,
}

/// Records every logical buffer created during a run.
#[derive(Clone, Debug, Default)]
pub struct TreeRecorder {
    nodes: Vec<TreeNode>,
}

impl TreeRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a leaf; returns its node id.
    // alloc: one node per completed buffer — once per k-element fill, not
    // per element.
    pub fn add_leaf(&mut self, weight: u64, level: u32) -> usize {
        self.nodes.push(TreeNode {
            weight,
            level,
            children: Vec::new(),
            kind: NodeKind::Leaf,
        });
        self.nodes.len() - 1
    }

    /// Record a collapse output over `children`; returns its node id.
    // alloc: one node and one child list per collapse — amortised over the
    // fills that filled the collapsed buffers.
    pub fn add_collapse(
        &mut self,
        weight: u64,
        level: u32,
        children: impl IntoIterator<Item = usize>,
    ) -> usize {
        let children: Vec<usize> = children.into_iter().collect();
        debug_assert!(children.iter().all(|&c| c < self.nodes.len()));
        self.nodes.push(TreeNode {
            weight,
            level,
            children,
            kind: NodeKind::Collapse,
        });
        self.nodes.len() - 1
    }

    /// All recorded nodes, in creation order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of leaves recorded.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Leaf)
            .count()
    }

    /// Render the subtrees rooted at `roots` as indented ASCII, one line per
    /// node, labelled with weight and level (the format of Figures 2–3).
    pub fn render(&self, roots: &[usize]) -> String {
        let mut out = String::new();
        for &r in roots {
            self.render_node(r, 0, &mut out);
        }
        out
    }

    fn render_node(&self, id: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[id];
        let kind = match n.kind {
            NodeKind::Leaf => "leaf",
            NodeKind::Collapse => "collapse",
        };
        out.push_str(&format!(
            "{:indent$}[w={} L{} {}]\n",
            "",
            n.weight,
            n.level,
            kind,
            indent = depth * 2
        ));
        for &c in &n.children {
            self.render_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let mut t = TreeRecorder::new();
        let a = t.add_leaf(1, 0);
        let b = t.add_leaf(1, 0);
        let c = t.add_collapse(2, 1, vec![a, b]);
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.nodes()[c].weight, 2);
        let s = t.render(&[c]);
        assert!(s.contains("[w=2 L1 collapse]"));
        assert!(s.contains("  [w=1 L0 leaf]"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn weights_of_internal_nodes_sum_children() {
        let mut t = TreeRecorder::new();
        let leaves: Vec<usize> = (0..3).map(|_| t.add_leaf(2, 1)).collect();
        let c = t.add_collapse(6, 2, leaves.clone());
        let sum: u64 = leaves.iter().map(|&l| t.nodes()[l].weight).sum();
        assert_eq!(t.nodes()[c].weight, sum);
    }
}
