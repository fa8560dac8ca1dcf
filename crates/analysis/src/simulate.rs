//! Exact, data-free replay of the collapse schedule.
//!
//! The sequence of `New`/`Collapse` operations performed by the engine is a
//! deterministic function of `(b, h)` alone — it depends neither on the
//! buffer size `k` nor on the data. Replaying it over buffer *metadata*
//! (weight, level) therefore lets us compute, exactly and per-prefix, the
//! quantities the paper bounds in closed form (§4.1–4.3):
//!
//! * the deterministic tree error `(W + w_max)/2` of Lemma 4, where `W` is
//!   the running sum of collapse-output weights (Lemma 5 equality: each
//!   collapse node's weight is the sum of its leaves' weights) and `w_max`
//!   is the heaviest buffer `Output` would consult,
//! * the Hoeffding quantity `X = (Σnᵢ)²/Σnᵢ²` of Lemma 2.
//!
//! Everything scales predictably with `k`: one completed leaf at rate `r`
//! contributes `k·r` mass and `k·r²` to `Σnᵢ²`, while `W` and `w_max` are
//! `k`-free. Working in *per-k units* (`m = mass/k`, `q = Σnᵢ²/k`) the
//! constraints for a candidate `(b, h)` collapse to three scalars:
//!
//! * `g_pre  = max over pre-onset prefixes of (W + w_max)/2m` — the
//!   deterministic phase needs `k ≥ g_pre / ε` (paper Eqn 3),
//! * `g_post = max over post-onset prefixes of (W + w_max)/2m` — the
//!   sampled phase needs `k ≥ g_post / (α·ε)` (paper Eqn 2),
//! * `x_min  = min over post-onset prefixes of m²/q` — the sampling step
//!   needs `k·x_min ≥ ln(2/δ)/(2(1−α)²ε²)` (paper Eqn 1).
//!
//! The within-leaf minimum of `X` is handled analytically (the fill is
//! linear in both `m` and `q`, so the minimum of `(m₀+tr)²/(q₀+tr²)` over
//! `t ∈ [0, 1]` is at an endpoint or the single interior critical point).
//!
//! The simulator keeps its own copy of the adaptive lowest-level policy and
//! of the allocate-or-collapse loop that [`mrl_framework::Tree`] runs for
//! the engine, specialised to this replay: the optimizer sweeps the whole
//! `(b, h)` grid through it at every cold start. Driving the replay through
//! `Tree` and `AdaptiveLowestLevel::choose_into` instead took 6–24% longer
//! over that grid. `tests/crosscheck.rs` pins the copy to a bare `Tree`
//! (`W`, height and onset at every leaf) and to real engines'
//! [`mrl_framework::TreeStats`].

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use mrl_framework::{Mrl99Schedule, RateSchedule};

/// Options controlling how far a schedule is replayed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOptions {
    /// Abort (return `None`) if sampling has not started after this many
    /// leaves: the combination is too large to certify exactly.
    pub leaf_cap: u64,
    /// How many sampled levels past onset to replay. The per-prefix extrema
    /// converge geometrically; 32 levels covers streams up to ~`2^32·L_s·k`
    /// elements and is indistinguishable from the limit in f64.
    pub extra_levels: u32,
    /// Hard budget on total `New` steps; a replay exceeding it aborts with
    /// `None` (defensive guard against pathological onset rules whose
    /// level-ups need combinatorially many leaves).
    pub max_steps: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            leaf_cap: 50_000,
            extra_levels: 32,
            max_steps: 20_000_000,
        }
    }
}

/// Scale-invariant constraint scalars extracted from one schedule replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleScalars {
    /// Number of buffers `b`.
    pub b: usize,
    /// Sampling-onset level `h`.
    pub h: u32,
    /// Leaves created before sampling onset (`L_d`).
    pub l_d: u64,
    /// Leaves created at the first sampled level (`L_s`).
    pub l_s: u64,
    /// Max of `(W + w_max)/(2m)` over pre-onset prefixes (per-k units).
    pub g_pre: f64,
    /// Max of `(W + w_max)/(2m)` over post-onset prefixes (per-k units).
    pub g_post: f64,
    /// Min of `m²/q` over post-onset prefixes (`X = k · x_min`).
    pub x_min: f64,
    /// Greatest level reached during the replay.
    pub max_level: u32,
    /// Memory growth profile under lazy allocation: `(leaves, slots)` at
    /// each allocation event. Single entry `(0, b)` for upfront allocation.
    pub alloc_profile: Vec<(u64, usize)>,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    weight: u64,
    level: u32,
}

struct Sim<R: RateSchedule> {
    b: usize,
    slots: Vec<Option<Slot>>,
    allocated: usize,
    /// `thresholds[i]`: leaves required before slot `i` may be allocated.
    thresholds: Vec<u64>,
    schedule: Option<R>,
    leaves: u64,
    /// Per-k mass and sum of squared block sizes.
    m: u128,
    q: u128,
    /// Lemma-5 running sum of collapse-output weights.
    w_sum: u128,
    onset_leaves: Option<u64>,
    onset_max_level: Option<u32>,
    l_s_level1: u64,
    g_pre: f64,
    g_post: f64,
    x_min: f64,
    max_level: u32,
    alloc_profile: Vec<(u64, usize)>,
}

impl<R: RateSchedule> Sim<R> {
    fn new(b: usize, schedule: Option<R>, thresholds: Vec<u64>) -> Self {
        assert!(b >= 2, "need at least two buffers");
        assert_eq!(thresholds.len(), b, "one threshold per buffer");
        assert_eq!(thresholds[0], 0, "first buffer must be immediate");
        assert!(thresholds.windows(2).all(|w| w[0] <= w[1]));
        Sim {
            b,
            slots: Vec::with_capacity(b),
            allocated: 0,
            thresholds,
            schedule,
            leaves: 0,
            m: 0,
            q: 0,
            w_sum: 0,
            onset_leaves: None,
            onset_max_level: None,
            l_s_level1: 0,
            g_pre: 0.0,
            g_post: 0.0,
            x_min: f64::INFINITY,
            max_level: 0,
            alloc_profile: Vec::new(),
        }
    }

    fn rate(&self) -> u64 {
        self.schedule.as_ref().map_or(1, RateSchedule::rate)
    }

    fn new_level(&self) -> u32 {
        self.schedule
            .as_ref()
            .map_or(0, RateSchedule::new_buffer_level)
    }

    fn sampling_started(&self) -> bool {
        self.schedule
            .as_ref()
            .is_some_and(RateSchedule::sampling_started)
    }

    fn observe(&mut self, level: u32) {
        self.max_level = self.max_level.max(level);
        if let Some(s) = &mut self.schedule {
            s.observe_level(level);
        }
        self.record_onset_if_started();
    }

    fn record_onset_if_started(&mut self) {
        if self.sampling_started() && self.onset_leaves.is_none() {
            self.onset_leaves = Some(self.leaves);
            self.onset_max_level = Some(self.max_level);
        }
    }

    fn w_max_slots(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.weight)
            .max()
            .unwrap_or(0)
    }

    /// Record the constraint extrema at an event boundary (just before the
    /// next fill begins).
    fn check_point(&mut self) {
        if self.m == 0 {
            return;
        }
        // Output mid-fill would also see the upcoming leaf's rate as a
        // buffer weight; cover it conservatively.
        let w_max = self.w_max_slots().max(self.rate());
        let e = (self.w_sum as f64 + w_max as f64) / 2.0;
        let g = e / self.m as f64;
        if self.sampling_started() {
            self.g_post = self.g_post.max(g);
        } else {
            self.g_pre = self.g_pre.max(g);
        }
    }

    /// Track the within-leaf minimum of `X/k = (m₀+tr)²/(q₀+tr²)`,
    /// `t ∈ [0, 1]`, for the leaf about to be filled at rate `r`. Only
    /// meaningful once sampling has begun.
    fn check_x_through_fill(&mut self, r: u64) {
        if !self.sampling_started() {
            return;
        }
        let m0 = self.m as f64;
        let q0 = self.q as f64;
        let r = r as f64;
        let x_at = |t: f64| -> f64 {
            let m = m0 + t * r;
            let q = q0 + t * r * r;
            if q == 0.0 {
                f64::INFINITY
            } else {
                m * m / q
            }
        };
        let mut lo = x_at(0.0).min(x_at(1.0));
        // Critical point: d/dt (m²/q) = 0  ⇔  2q = r·m  ⇔  t* = (r·m₀ − 2q₀)/r².
        let t_star = (r * m0 - 2.0 * q0) / (r * r);
        if t_star > 0.0 && t_star < 1.0 {
            lo = lo.min(x_at(t_star));
        }
        if m0 > 0.0 {
            self.x_min = self.x_min.min(lo);
        }
    }

    fn empty_slot(&self) -> Option<usize> {
        self.slots.iter().position(Option::is_none)
    }

    fn full_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// One `New` operation: secure a slot (allocating or collapsing as the
    /// engine would), then add a leaf at the current rate and level.
    fn step_new(&mut self) {
        while self.empty_slot().is_none() {
            let may_allocate =
                self.allocated < self.b && self.leaves >= self.thresholds[self.allocated];
            if may_allocate || self.full_count() < 2 {
                assert!(self.allocated < self.b, "cannot make progress");
                self.slots.push(None);
                self.allocated += 1;
                self.alloc_profile.push((self.leaves, self.allocated));
            } else {
                self.collapse();
            }
        }
        let r = self.rate();
        let level = self.new_level();
        self.check_x_through_fill(r);
        let idx = self.empty_slot().expect("secured above");
        self.slots[idx] = Some(Slot { weight: r, level });
        self.leaves += 1;
        if let Some(s) = &mut self.schedule {
            s.observe_leaves(self.leaves);
        }
        self.record_onset_if_started();
        self.m += u128::from(r);
        self.q += u128::from(r) * u128::from(r);
        // Leaves created at the first sampled rate (L_s of Figure 3).
        if r == 2 {
            self.l_s_level1 += 1;
        }
        self.observe(level);
        self.check_point();
    }

    /// Adaptive lowest-level collapse (inlined; cross-checked against
    /// `mrl_framework::AdaptiveLowestLevel` by tests).
    fn collapse(&mut self) {
        let lowest = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.level)
            .min()
            .expect("collapse requires full buffers");
        let count_at = |slots: &[Option<Slot>], l: u32| {
            slots.iter().flatten().filter(|s| s.level == l).count()
        };
        let mut level = lowest;
        if count_at(&self.slots, level) == 1 {
            // Promote the lone lowest buffer to the next occupied level.
            let next = self
                .slots
                .iter()
                .flatten()
                .map(|s| s.level)
                .filter(|&l| l > level)
                .min()
                .expect("at least two full buffers exist");
            for s in self.slots.iter_mut().flatten() {
                if s.level == level {
                    s.level = next;
                }
            }
            level = next;
        }
        let mut w: u64 = 0;
        let mut first: Option<usize> = None;
        for i in 0..self.slots.len() {
            if let Some(s) = self.slots[i] {
                if s.level == level {
                    w += s.weight;
                    if first.is_none() {
                        first = Some(i);
                    } else {
                        self.slots[i] = None;
                    }
                }
            }
        }
        let out_level = level + 1;
        self.slots[first.expect("at least two at level")] = Some(Slot {
            weight: w,
            level: out_level,
        });
        self.w_sum += u128::from(w);
        self.observe(out_level);
        self.check_point();
    }

    fn into_scalars(self, h: u32) -> ScheduleScalars {
        ScheduleScalars {
            b: self.b,
            h,
            l_d: self.onset_leaves.unwrap_or(self.leaves),
            l_s: self.l_s_level1,
            g_pre: self.g_pre,
            g_post: self.g_post,
            x_min: self.x_min,
            max_level: self.max_level,
            alloc_profile: self.alloc_profile,
        }
    }
}

/// Replay the unknown-`N` schedule for `(b, h)` with all buffers available
/// up front. Returns `None` if sampling has not begun within
/// `opts.leaf_cap` leaves (the combination is too large to certify).
pub fn simulate_schedule(b: usize, h: u32, opts: SimOptions) -> Option<ScheduleScalars> {
    let sim = Sim::new(b, Some(Mrl99Schedule::new(h)), vec![0; b]);
    drive(sim, opts).map(|s| s.into_scalars(h))
}

/// Replay the §5 dynamic-allocation algorithm: buffers allocated lazily
/// per `thresholds`, sampling onset when the tree reaches height `h` (as
/// in §3; under lazy allocation the early forced collapses deepen the
/// tree, so valid schedules pick `h` large enough that onset lands after
/// allocation completes — the paper's "use Eq 3 to limit h, the height to
/// which the tree is allowed to grow before we start sampling").
pub fn simulate_schedule_with_allocation(
    b: usize,
    h: u32,
    thresholds: Vec<u64>,
    opts: SimOptions,
) -> Option<ScheduleScalars> {
    let sim = Sim::new(b, Some(Mrl99Schedule::new(h)), thresholds);
    drive(sim, opts).map(|s| s.into_scalars(h))
}

/// Run a simulation through the pre-onset phase (abort at the leaf cap)
/// and `opts.extra_levels` tree levels beyond onset.
fn drive<R: RateSchedule>(mut sim: Sim<R>, opts: SimOptions) -> Option<Sim<R>> {
    while !sim.sampling_started() {
        if sim.leaves >= opts.leaf_cap || sim.leaves >= opts.max_steps {
            return None;
        }
        sim.step_new();
    }
    let target_level = sim.onset_max_level.expect("onset recorded") + opts.extra_levels;
    while sim.max_level < target_level {
        if sim.leaves >= opts.max_steps {
            return None;
        }
        sim.step_new();
    }
    Some(sim)
}

/// Replay a purely deterministic run (`rate = 1` forever) for exactly
/// `leaves` leaves and return the max of `(W + w_max)/(2m)` over all
/// prefixes — the per-k tree-error coefficient of the known-`N`
/// deterministic algorithm on `N = leaves·k` elements.
pub fn simulate_deterministic(b: usize, leaves: u64) -> f64 {
    let mut sim: Sim<Mrl99Schedule> = Sim::new(b, None, vec![0; b]);
    for _ in 0..leaves {
        sim.step_new();
    }
    sim.g_pre.max(sim.g_post)
}

/// Replay exactly `leaves` `New` operations of the unknown-`N` schedule and
/// return `(W, max_level, onset_leaves)` — the quantities a real engine
/// exposes through its `TreeStats`, for cross-checking the simulator
/// against real executions.
pub fn replay_prefix(b: usize, h: u32, leaves: u64) -> (u64, u32, Option<u64>) {
    let mut sim = Sim::new(b, Some(Mrl99Schedule::new(h)), vec![0; b]);
    for _ in 0..leaves {
        sim.step_new();
    }
    (
        u64::try_from(sim.w_sum).expect("W fits u64 for test-sized replays"),
        sim.max_level,
        sim.onset_leaves,
    )
}

/// Memoised [`simulate_schedule`] (the optimizer sweeps a `(b, h)` grid for
/// many `(ε, δ)` pairs; the replay depends only on `(b, h)` and the
/// options, which form the cache key).
pub fn simulate_schedule_cached(b: usize, h: u32, opts: SimOptions) -> Option<ScheduleScalars> {
    type Key = (usize, u32, u64, u32);
    static CACHE: OnceLock<Mutex<HashMap<Key, Option<ScheduleScalars>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (b, h, opts.leaf_cap, opts.extra_levels);
    if let Some(hit) = cache.lock().expect("cache poisoned").get(&key) {
        return hit.clone();
    }
    let result = simulate_schedule(b, h, opts);
    cache
        .lock()
        .expect("cache poisoned")
        .insert(key, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::{leaves_before_sampling, leaves_per_sampled_level};

    #[test]
    fn empirical_leaf_counts_match_binomial_formulas() {
        for b in 2..=7usize {
            for h in 1..=4u32 {
                let s = simulate_schedule(
                    b,
                    h,
                    SimOptions {
                        leaf_cap: 100_000,
                        extra_levels: 3,
                        ..SimOptions::default()
                    },
                )
                .expect("small combos always certify");
                assert_eq!(
                    s.l_d,
                    leaves_before_sampling(b as u64, u64::from(h)),
                    "L_d mismatch at b={b} h={h}"
                );
                assert_eq!(
                    s.l_s,
                    leaves_per_sampled_level(b as u64, u64::from(h)),
                    "L_s mismatch at b={b} h={h}"
                );
            }
        }
    }

    #[test]
    fn hand_simulated_b3_h2() {
        // Walked through in the combinatorics docs: onset after 6 leaves,
        // 3 leaves at level 1.
        let s = simulate_schedule(
            3,
            2,
            SimOptions {
                leaf_cap: 1000,
                extra_levels: 2,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.l_d, 6);
        assert_eq!(s.l_s, 3);
    }

    #[test]
    fn leaf_cap_aborts_oversized_combos() {
        assert!(simulate_schedule(
            30,
            10,
            SimOptions {
                leaf_cap: 1000,
                extra_levels: 1,
                ..SimOptions::default()
            }
        )
        .is_none());
    }

    #[test]
    fn g_pre_is_bounded_by_h_over_two_plus_slack() {
        // Paper Eqn 3: the deterministic phase satisfies
        // (W + w_max)/2 <= (h'/2)·m with h' the vertex-height; our g_pre
        // should be close to and bounded by ~ (h+1)/2.
        for b in 2..=6usize {
            for h in 1..=4u32 {
                let s = simulate_schedule(b, h, SimOptions::default()).unwrap();
                assert!(
                    s.g_pre <= f64::from(h + 1) / 2.0 + 1e-9,
                    "g_pre {} exceeds (h+1)/2 at b={b} h={h}",
                    s.g_pre
                );
                assert!(s.g_pre > 0.0);
            }
        }
    }

    #[test]
    fn x_min_close_to_closed_form_bound() {
        use crate::combinatorics::min_x_per_k;
        for (b, h) in [(4usize, 2u32), (5, 3), (6, 2)] {
            let s = simulate_schedule(b, h, SimOptions::default()).unwrap();
            let closed = min_x_per_k(s.l_d, s.l_s, 48);
            // The closed form minimises over a *relaxation* (continuous
            // leaf counts, arbitrary shape), so it must lower-bound the
            // exact minimum; and it should not be wildly loose.
            assert!(
                s.x_min >= closed * 0.99,
                "exact x_min {} below closed-form lower bound {closed} (b={b} h={h})",
                s.x_min
            );
            assert!(
                s.x_min <= closed * 10.0,
                "closed form unexpectedly loose: exact {} vs {closed} (b={b} h={h})",
                s.x_min
            );
        }
    }

    #[test]
    fn deterministic_g_grows_with_leaves() {
        let g1 = simulate_deterministic(4, 10);
        let g2 = simulate_deterministic(4, 1_000);
        let g3 = simulate_deterministic(4, 20_000);
        assert!(g1 <= g2 && g2 <= g3);
        // Still logarithmic-ish: even 20k leaves with b=4 keeps the tree
        // shallow.
        assert!(g3 < 20.0, "g3={g3}");
    }

    #[test]
    fn cached_simulation_equals_fresh() {
        let fresh = simulate_schedule(4, 3, SimOptions::default());
        let cached1 = simulate_schedule_cached(4, 3, SimOptions::default());
        let cached2 = simulate_schedule_cached(4, 3, SimOptions::default());
        assert_eq!(fresh, cached1);
        assert_eq!(cached1, cached2);
    }

    #[test]
    fn lazy_allocation_profile_is_recorded() {
        let s = simulate_schedule_with_allocation(
            4,
            8,
            vec![0, 2, 6, 12],
            SimOptions {
                leaf_cap: 100_000,
                extra_levels: 8,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert!(
            s.l_d >= 12,
            "onset (l_d = {}) must come after allocation completes for a valid schedule",
            s.l_d
        );
        assert!(s.alloc_profile.len() >= 2, "profile: {:?}", s.alloc_profile);
        assert!(s.alloc_profile.windows(2).all(|w| w[0].1 < w[1].1));
        // Thresholds respected (allowing forced allocation when fewer than
        // two buffers are full -- which for these thresholds only applies to
        // the first two).
        for &(leaves, slots) in &s.alloc_profile {
            if slots > 2 {
                assert!(
                    leaves >= [0u64, 2, 6, 12][slots - 1],
                    "slot {slots} at {leaves} leaves"
                );
            }
        }
    }

    #[test]
    fn lazy_allocation_replay_is_deterministic() {
        let a =
            simulate_schedule_with_allocation(5, 6, vec![0, 1, 4, 10, 20], SimOptions::default())
                .unwrap();
        let b =
            simulate_schedule_with_allocation(5, 6, vec![0, 1, 4, 10, 20], SimOptions::default())
                .unwrap();
        assert_eq!(a, b);
        // A staged start cannot *reduce* the total information seen by the
        // sampler: the post-onset Hoeffding mass stays positive and finite.
        assert!(a.x_min.is_finite() && a.x_min > 0.0);
    }
}
