//! The CSA approximation algorithm for the TIDE problem.
//!
//! CSA builds the victim route by **greedy cheapest insertion with
//! marginal-utility-per-cost ordering**: at each step it inserts the
//! (victim, position) pair maximising `weight / marginal energy cost` among
//! all insertions that keep the timed route feasible (travel, windows,
//! budget). The final schedule takes the best of the greedy route, the best
//! single-victim schedule, and two route-first fallbacks (travel-optimal and
//! weight-first orders), so CSA dominates the deterministic baselines by
//! construction. The greedy + best-singleton pair carries the classical
//! `(1 − 1/e)/2 ≈ 0.316` guarantee for budgeted monotone-modular coverage
//! (Khuller–Moss–Naor); the time-window constraint makes the bound heuristic
//! in general, and [`crate::exact`] measures the *empirical* ratio
//! (experiment `fig10`). Two post-passes sharpen it:
//!
//! * a feasibility-preserving **2-opt route repair** that shortens travel, and
//! * the **latest-start shift** ([`crate::schedule::latest_start_shift`]),
//!   which is pure stealth: starting each masquerade as late as its window
//!   allows means the victim dies as soon after the fake charge as possible,
//!   before it can file another energy report.
//!
//! Each component can be disabled through [`CsaOptions`] for the ablation
//! experiment (`tab3`).
//!
//! # Incremental insertion
//!
//! A naive greedy evaluates each candidate `(victim, position)` by rebuilding
//! the whole timed route — O(n) distance computations per candidate, O(n⁴)
//! overall. [`plan_with`] instead keeps an `IncrementalRoute` in the style
//! of Solomon's insertion heuristics: forward prefixes (departure time and
//! energy after the first `k` stops) plus backward latest-begin slacks make
//! each candidate check O(1), with an O(n) refresh per *accepted* insertion.
//! All geometry comes from one [`DistanceMatrix`]. The results are
//! **bit-identical** to the naive greedy — the prefixes are exactly the left
//! folds the naive code evaluates, so every comparison sees the very same
//! floats. The only approximate ingredient, the backward slack, is used
//! strictly outside a ±`SLACK_GUARD_S` guard band; inside the band the
//! suffix is re-simulated forward, which is the naive check verbatim
//! (`crates/core/tests/csa_bit_identity.rs` pins this equivalence down).

use wrsn_sim::obs::{Counter, NullRecorder, Recorder};

use crate::matrix::DistanceMatrix;
use crate::schedule::{self, AttackSchedule};
use crate::tide::TideInstance;

/// Half-width of the trust band around the backward latest-begin slack,
/// seconds.
///
/// The slack is a real-arithmetic bound; float evaluation puts it within
/// rounding error (≪ 1 ms for the second-to-megasecond horizons TIDE
/// instances use) of the true feasibility threshold, and forward feasibility
/// is monotone in the start time. A candidate whose suffix start clears the
/// slack by more than this margin is therefore decided immediately; anything
/// inside the band falls back to the exact forward re-simulation.
const SLACK_GUARD_S: f64 = 1e-3;

/// Knobs for the CSA planner (ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsaOptions {
    /// Rank insertions by utility *per marginal cost* (true) or by raw
    /// utility (false).
    pub ratio_ordering: bool,
    /// Run the 2-opt route repair after greedy construction.
    pub route_improvement: bool,
    /// Shift begins to the latest feasible instant (stealth).
    pub latest_start: bool,
}

impl Default for CsaOptions {
    fn default() -> Self {
        CsaOptions {
            ratio_ordering: true,
            route_improvement: true,
            latest_start: true,
        }
    }
}

/// Plans an attack schedule with the full CSA pipeline.
///
/// # Example
///
/// ```
/// use wrsn_core::prelude::*;
/// use wrsn_net::prelude::*;
///
/// let (_, nodes) = deploy::corridor(8, 3, 1);
/// let mut net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
/// for i in 0..net.node_count() {
///     let cap = net.capacities_j()[i];
///     net.energy_mut().set_level(i, cap * 0.3);
/// }
/// let inst = TideInstance::from_network(&net, &TideConfig::default());
/// let plan = csa::plan(&inst);
/// inst.validate(&plan).unwrap();
/// ```
pub fn plan(instance: &TideInstance) -> AttackSchedule {
    plan_with(instance, &CsaOptions::default())
}

/// Plans with explicit options (ablation entry point).
pub fn plan_with(instance: &TideInstance, opts: &CsaOptions) -> AttackSchedule {
    plan_with_obs(instance, opts, &mut NullRecorder)
}

/// Plans with explicit options, counting planner work into `rec`: candidate
/// probes, exact slack-band fallbacks, accepted insertions and 2-opt moves —
/// the counters that explain the incremental planner's speedup. A
/// [`NullRecorder`] makes this exactly [`plan_with`]; the recorder never
/// influences the plan.
pub fn plan_with_obs(
    instance: &TideInstance,
    opts: &CsaOptions,
    rec: &mut dyn Recorder,
) -> AttackSchedule {
    rec.add(Counter::PlannerRuns, 1);
    rec.span_enter("csa_plan");
    if instance.victims.is_empty() {
        // Degenerate instance: every candidate construction below yields an
        // empty schedule (and none of them touches a planner counter before
        // bailing on empty input), so skip the machinery. The adaptive
        // attack keeps replanning on idle decisions long after its victim
        // list has emptied, making this the planner's most-executed path.
        rec.span_exit("csa_plan");
        return AttackSchedule::empty();
    }
    let matrix = DistanceMatrix::new(instance);
    let n = instance.victims.len();
    let mut route = IncrementalRoute::new(instance, &matrix);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut current_cost = 0.0f64;

    loop {
        let mut best: Option<(f64, f64, usize, usize)> = None; // (score, mcost, vi, pos)
        for &vi in &remaining {
            let weight = instance.victims[vi].weight;
            for pos in 0..=route.len() {
                let Some(cost) = route.candidate_cost(vi, pos, rec) else {
                    continue;
                };
                if cost > instance.budget_j {
                    continue;
                }
                let mcost = (cost - current_cost).max(0.0);
                let score = if opts.ratio_ordering {
                    weight / (mcost + 1.0)
                } else {
                    weight
                };
                let better = match best {
                    None => true,
                    Some((bs, bc, _, _)) => {
                        score > bs + 1e-12 || (score > bs - 1e-12 && mcost < bc)
                    }
                };
                if better {
                    best = Some((score, mcost, vi, pos));
                }
            }
        }
        match best {
            Some((_, mcost, vi, pos)) => {
                rec.add(Counter::Insertions, 1);
                route.insert(vi, pos);
                remaining.retain(|&x| x != vi);
                current_cost += mcost;
            }
            None => break,
        }
    }
    let mut order = route.into_order();

    if opts.route_improvement {
        improve_route(instance, &matrix, &mut order, rec);
    }

    let greedy = schedule::earliest_times(instance, &order).unwrap_or_else(AttackSchedule::empty);

    // Candidate pool: the greedy route, the guarantee leg (best feasible
    // singleton — the Khuller–Moss–Naor construction), and two route-first
    // fallbacks (travel-optimal and weight-first orders with skip-infeasible
    // semantics). Taking the best makes CSA dominate the deterministic
    // baselines by construction on every instance, not just on average.
    let mut candidates = vec![greedy, best_singleton(instance)];
    let points: Vec<wrsn_net::Point> = instance.victims.iter().map(|v| v.position).collect();
    let (tsp_order, _) = wrsn_charge::tour::plan_tour_with(instance.start, &points, rec);
    candidates.push(schedule::from_order_skipping(instance, &tsp_order));
    let mut weight_order: Vec<usize> = (0..n).collect();
    weight_order.sort_by(|&a, &b| {
        instance.victims[b]
            .weight
            .partial_cmp(&instance.victims[a].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    candidates.push(schedule::from_order_skipping(instance, &weight_order));

    let mut chosen = AttackSchedule::empty();
    let mut best_key = (f64::NEG_INFINITY, f64::INFINITY);
    for c in candidates {
        let key = (instance.utility(&c), instance.energy_cost(&c));
        if key.0 > best_key.0 + 1e-12 || (key.0 > best_key.0 - 1e-12 && key.1 < best_key.1) {
            best_key = key;
            chosen = c;
        }
    }

    if opts.latest_start {
        chosen = schedule::latest_start_shift(instance, &chosen);
    }
    rec.span_exit("csa_plan");
    chosen
}

/// The best feasible single-victim schedule (empty if none is feasible).
pub fn best_singleton(instance: &TideInstance) -> AttackSchedule {
    let mut best = AttackSchedule::empty();
    let mut best_w = 0.0;
    for vi in 0..instance.victims.len() {
        if let Some(s) = schedule::earliest_times(instance, &[vi]) {
            if instance.energy_cost(&s) <= instance.budget_j && instance.victims[vi].weight > best_w
            {
                best_w = instance.victims[vi].weight;
                best = s;
            }
        }
    }
    best
}

/// Feasibility + exact energy cost of a fixed visit order in one pass.
///
/// Bit-identical to [`schedule::earliest_times`] followed by
/// [`TideInstance::energy_cost`]: the time and energy accumulators are
/// independent left folds, so interleaving them (and reading the per-leg
/// terms from the matrix) changes no rounding — it only removes the stop
/// allocation and the duplicate geometry.
fn route_cost(instance: &TideInstance, matrix: &DistanceMatrix, order: &[usize]) -> Option<f64> {
    let mut time = instance.now_s;
    let mut node = DistanceMatrix::START;
    let mut cost = 0.0f64;
    for &vi in order {
        let v = instance.victims.get(vi)?;
        let here = DistanceMatrix::vid(vi);
        let arrive = time + matrix.travel_s(node, here);
        let begin = arrive.max(v.window.open_s);
        if begin > v.window.close_s + 1e-9 {
            return None;
        }
        cost += matrix.leg_cost_j(node, here);
        cost += matrix.svc_cost_j(vi);
        time = begin + v.service_s;
        node = here;
    }
    (cost <= instance.budget_j).then_some(cost)
}

/// Feasibility-preserving 2-opt: reverse segments when that keeps the timed
/// route feasible and strictly reduces energy cost.
fn improve_route(
    instance: &TideInstance,
    matrix: &DistanceMatrix,
    order: &mut [usize],
    rec: &mut dyn Recorder,
) {
    let n = order.len();
    if n < 3 {
        return;
    }
    let Some(mut best_cost) = route_cost(instance, matrix, order) else {
        return;
    };
    for _ in 0..16 {
        rec.add(Counter::TwoOptPasses, 1);
        let mut improved = false;
        for i in 0..n - 1 {
            for j in i + 1..n {
                order[i..=j].reverse();
                match route_cost(instance, matrix, order) {
                    Some(c) if c + 1e-9 < best_cost => {
                        best_cost = c;
                        rec.add(Counter::TwoOptMoves, 1);
                        improved = true;
                    }
                    _ => order[i..=j].reverse(), // undo
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// The greedy's working route with the Solomon-style incremental state.
///
/// Prefix arrays after the first `k` stops: `node[k]` (matrix node the
/// charger occupies), `time_after[k]` (departure time) and `cost_after[k]`
/// (energy left fold, two adds per stop exactly as
/// [`TideInstance::energy_cost`]). `latest_begin[k]` is the backward slack:
/// the latest begin time of stop `k` for which the rest of the route stays
/// feasible, up to float rounding — see [`SLACK_GUARD_S`].
struct IncrementalRoute<'a> {
    instance: &'a TideInstance,
    matrix: &'a DistanceMatrix,
    order: Vec<usize>,
    node: Vec<usize>,
    time_after: Vec<f64>,
    cost_after: Vec<f64>,
    latest_begin: Vec<f64>,
}

impl<'a> IncrementalRoute<'a> {
    fn new(instance: &'a TideInstance, matrix: &'a DistanceMatrix) -> Self {
        IncrementalRoute {
            instance,
            matrix,
            order: Vec::new(),
            node: vec![DistanceMatrix::START],
            time_after: vec![instance.now_s],
            cost_after: vec![0.0],
            latest_begin: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn into_order(self) -> Vec<usize> {
        self.order
    }

    /// Evaluates inserting victim `vi` at position `pos`: `Some(cost)` with
    /// the exact energy cost of the candidate route when it is time-feasible,
    /// `None` otherwise. O(1) except for the energy refold over the suffix
    /// (pure adds) and the rare in-band exact fallback.
    fn candidate_cost(&self, vi: usize, pos: usize, rec: &mut dyn Recorder) -> Option<f64> {
        rec.add(Counter::CandidateProbes, 1);
        let v = &self.instance.victims[vi];
        let here = DistanceMatrix::vid(vi);
        let arrive = self.time_after[pos] + self.matrix.travel_s(self.node[pos], here);
        let begin = arrive.max(v.window.open_s);
        if begin > v.window.close_s + 1e-9 {
            return None;
        }
        if pos < self.order.len() {
            // The suffix keeps its sequence; only its start time moves. Its
            // first begin against the backward slack decides feasibility
            // outside the guard band, the exact re-simulation inside it.
            let succ = self.order[pos];
            let w = &self.instance.victims[succ];
            let depart = begin + v.service_s;
            let arrive2 = depart + self.matrix.travel_s(here, DistanceMatrix::vid(succ));
            let begin2 = arrive2.max(w.window.open_s);
            let slack = self.latest_begin[pos];
            if begin2 > slack + SLACK_GUARD_S {
                return None;
            }
            if begin2 > slack - SLACK_GUARD_S {
                rec.add(Counter::ExactFallbacks, 1);
                if !self.suffix_feasible(depart, here, pos) {
                    return None;
                }
            }
        }
        // Exact energy: resume the left fold from the prefix through the new
        // stop and the (position-shifted, otherwise unchanged) suffix.
        let mut cost = self.cost_after[pos];
        cost += self.matrix.leg_cost_j(self.node[pos], here);
        cost += self.matrix.svc_cost_j(vi);
        let mut prev = here;
        for &w in &self.order[pos..] {
            let wn = DistanceMatrix::vid(w);
            cost += self.matrix.leg_cost_j(prev, wn);
            cost += self.matrix.svc_cost_j(w);
            prev = wn;
        }
        Some(cost)
    }

    /// Exact forward window check of `order[pos..]` departing `from` at
    /// `time` — verbatim the naive recursion over the suffix.
    fn suffix_feasible(&self, mut time: f64, mut from: usize, pos: usize) -> bool {
        for &w in &self.order[pos..] {
            let v = &self.instance.victims[w];
            let here = DistanceMatrix::vid(w);
            let arrive = time + self.matrix.travel_s(from, here);
            let begin = arrive.max(v.window.open_s);
            if begin > v.window.close_s + 1e-9 {
                return false;
            }
            time = begin + v.service_s;
            from = here;
        }
        true
    }

    /// Accepts an insertion: O(n) prefix refresh from `pos` plus a full
    /// backward slack pass.
    fn insert(&mut self, vi: usize, pos: usize) {
        self.order.insert(pos, vi);
        let m = self.order.len();
        self.node.truncate(pos + 1);
        self.time_after.truncate(pos + 1);
        self.cost_after.truncate(pos + 1);
        for k in pos..m {
            let w = self.order[k];
            let v = &self.instance.victims[w];
            let prev = self.node[k];
            let here = DistanceMatrix::vid(w);
            let arrive = self.time_after[k] + self.matrix.travel_s(prev, here);
            let begin = arrive.max(v.window.open_s);
            let mut cost = self.cost_after[k];
            cost += self.matrix.leg_cost_j(prev, here);
            cost += self.matrix.svc_cost_j(w);
            self.node.push(here);
            self.time_after.push(begin + v.service_s);
            self.cost_after.push(cost);
        }
        self.latest_begin.resize(m, 0.0);
        for k in (0..m).rev() {
            let w = self.order[k];
            let v = &self.instance.victims[w];
            let mut latest = v.window.close_s;
            if k + 1 < m {
                let next = DistanceMatrix::vid(self.order[k + 1]);
                let chain = self.latest_begin[k + 1]
                    - self.matrix.travel_s(DistanceMatrix::vid(w), next)
                    - v.service_s;
                latest = latest.min(chain);
            }
            self.latest_begin[k] = latest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tide::{TideConfig, TideInstance, TimeWindow, Victim};
    use wrsn_net::{deploy, Network, NodeId, Point};

    fn drained_corridor_instance() -> TideInstance {
        let (_, nodes) = deploy::corridor(10, 4, 3);
        let mut net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
        for i in 0..net.node_count() {
            let cap = net.capacities_j()[i];
            net.energy_mut().set_level(i, cap * 0.3);
        }
        TideInstance::from_network(&net, &TideConfig::default())
    }

    fn synthetic(n: usize, window_len: f64, budget: f64) -> TideInstance {
        let victims = (0..n)
            .map(|i| {
                let open = 100.0 * i as f64;
                Victim {
                    node: NodeId(i),
                    position: Point::new(50.0 * (i as f64).cos(), 50.0 * (i as f64).sin()),
                    weight: 1.0 + (i % 3) as f64,
                    window: TimeWindow {
                        open_s: open,
                        close_s: open + window_len,
                    },
                    service_s: 30.0,
                    death_s: open + window_len + 30.0,
                }
            })
            .collect();
        TideInstance {
            victims,
            start: Point::ORIGIN,
            speed_mps: 5.0,
            budget_j: budget,
            move_cost_j_per_m: 1.0,
            radiated_power_w: 1.0,
            now_s: 0.0,
        }
    }

    #[test]
    fn plan_is_feasible_on_real_instance() {
        let inst = drained_corridor_instance();
        let plan = plan(&inst);
        inst.validate(&plan).unwrap();
        assert!(!plan.is_empty(), "CSA should attack something");
    }

    #[test]
    fn plan_serves_all_victims_when_resources_are_loose() {
        let inst = synthetic(6, 1.0e6, 1.0e9);
        let p = plan(&inst);
        inst.validate(&p).unwrap();
        assert_eq!(p.len(), 6, "loose instance must be fully served");
        assert!((inst.utility(&p) - inst.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn plan_respects_tight_budget() {
        let inst = synthetic(6, 1.0e6, 150.0);
        let p = plan(&inst);
        inst.validate(&p).unwrap();
        assert!(inst.energy_cost(&p) <= 150.0 + 1e-6);
        assert!(p.len() < 6);
        assert!(!p.is_empty(), "something must fit in 150 J");
    }

    #[test]
    fn plan_never_worse_than_best_singleton() {
        for &(wl, budget) in &[(50.0, 200.0), (10.0, 100.0), (1000.0, 400.0)] {
            let inst = synthetic(8, wl, budget);
            let p = plan(&inst);
            let single = best_singleton(&inst);
            assert!(
                inst.utility(&p) >= inst.utility(&single) - 1e-9,
                "wl={wl} budget={budget}"
            );
        }
    }

    #[test]
    fn ratio_ordering_helps_under_tight_budget() {
        // One heavy, far victim vs several light, near ones: with a tight
        // budget the ratio rule packs more total weight.
        let mut inst = synthetic(8, 1.0e6, 1.0e9);
        for (i, v) in inst.victims.iter_mut().enumerate() {
            v.window = TimeWindow {
                open_s: 0.0,
                close_s: 1.0e6,
            };
            v.position = Point::new(5.0 * i as f64, 0.0);
            v.weight = 1.0;
        }
        inst.victims[7].position = Point::new(2_000.0, 0.0);
        inst.victims[7].weight = 1.6;
        inst.budget_j = 600.0; // far victim alone: 2000 travel — unaffordable
        let with_ratio = plan_with(&inst, &CsaOptions::default());
        let without = plan_with(
            &inst,
            &CsaOptions {
                ratio_ordering: false,
                ..CsaOptions::default()
            },
        );
        inst.validate(&with_ratio).unwrap();
        inst.validate(&without).unwrap();
        assert!(inst.utility(&with_ratio) >= inst.utility(&without));
        assert!(
            inst.utility(&with_ratio) >= 7.0,
            "ratio rule should take the 7 near victims"
        );
    }

    #[test]
    fn latest_start_option_delays_begins() {
        let inst = synthetic(4, 10_000.0, 1.0e9);
        let early = plan_with(
            &inst,
            &CsaOptions {
                latest_start: false,
                ..CsaOptions::default()
            },
        );
        let late = plan_with(&inst, &CsaOptions::default());
        inst.validate(&late).unwrap();
        assert_eq!(early.order(), late.order());
        let sum_early: f64 = early.stops().iter().map(|s| s.begin_s).sum();
        let sum_late: f64 = late.stops().iter().map(|s| s.begin_s).sum();
        assert!(sum_late > sum_early, "{sum_late} !> {sum_early}");
    }

    #[test]
    fn planning_is_deterministic() {
        let inst = drained_corridor_instance();
        assert_eq!(plan(&inst), plan(&inst));
    }

    #[test]
    fn empty_instance_plans_empty_schedule() {
        let inst = TideInstance {
            victims: Vec::new(),
            start: Point::ORIGIN,
            speed_mps: 1.0,
            budget_j: 100.0,
            move_cost_j_per_m: 1.0,
            radiated_power_w: 1.0,
            now_s: 0.0,
        };
        assert!(plan(&inst).is_empty());
    }

    #[test]
    fn unreachable_windows_are_left_out() {
        let mut inst = synthetic(3, 1.0e6, 1.0e9);
        // Victim 1's window closes before anyone can get there.
        inst.victims[1].window = TimeWindow {
            open_s: 0.0,
            close_s: 0.001,
        };
        let p = plan(&inst);
        inst.validate(&p).unwrap();
        assert!(!p.order().contains(&1));
        assert_eq!(p.len(), 2);
    }
}
