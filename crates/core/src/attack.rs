//! Attack execution: carrying a TIDE schedule out in the simulated world.
//!
//! [`CsaAttackPolicy`] is the full paper pipeline as a
//! [`wrsn_sim::ChargerPolicy`]: derive the TIDE instance on first decision,
//! plan it with CSA ([`crate::csa::plan_with`]), then execute each stop — wait
//! for the window, drive over, radiate a full-length *spoofed* charge.
//!
//! [`EagerSpoofPolicy`] is the window-*oblivious* strawman: it spoofs every
//! charging request the moment it arrives. It exhausts nodes too, but its
//! victims linger long enough to file energy reports — the detector bait that
//! motivates TIDE's time windows (experiment `fig8`).

use wrsn_net::{keynode, NodeId};
use wrsn_sim::obs::{Counter, NullRecorder, Recorder};
use wrsn_sim::{ChargeMode, ChargerAction, ChargerPolicy, SimReport, World, WorldView};

use crate::csa::{self, CsaOptions};
use crate::schedule::AttackSchedule;
use crate::tide::{TideConfig, TideInstance};

/// The Charging Spoofing Attack as a charger policy.
///
/// By default the attack is **adaptive**: it replans the remaining TIDE
/// instance after every completed masquerade, because each kill reroutes
/// traffic and shifts the surviving victims' drain rates — and stealth
/// (dying before the next energy report) depends on accurate death
/// predictions. `with_static_plan` disables replanning for the ablation.
///
/// # Example
///
/// ```
/// use wrsn_core::prelude::*;
///
/// let policy = CsaAttackPolicy::new(TideConfig::default());
/// // run it: World::run(&mut policy)
/// # let _ = policy;
/// ```
pub struct CsaAttackPolicy {
    config: TideConfig,
    replan_every_stop: bool,
    /// Serve ordinary nodes' requests *honestly* between masquerades: the
    /// malicious MC is the network's charger, and a healthy-looking rest of
    /// the network is its best disguise.
    serve_decoys: bool,
    /// Replan when the current plan is older than this (drain predictions
    /// drift as the unserved network degrades), seconds.
    plan_age_limit_s: f64,
    plan_made_at_s: f64,
    plan: Option<(TideInstance, AttackSchedule)>,
    next_stop: usize,
    /// Victim currently being squatted on (masquerade in progress).
    squatting: Option<NodeId>,
    /// Stealth mode against the online audit: `Some(fraction)` makes every
    /// masquerade a *partial-power* spoof delivering `fraction` of the honest
    /// power — enough real energy to keep a challenge-response probe's
    /// residual above the detector's tolerance. `None` is the naive CSA
    /// (full cancellation, delivered ≈ 0).
    stealth_fraction: Option<f64>,
    served: std::collections::HashSet<NodeId>,
    /// Census victims not yet served, in census order — the filter
    /// `make_instance` would otherwise re-derive from `served` on each of the
    /// tens of thousands of replans, maintained instead at the (rare) serves.
    unserved: Vec<(NodeId, f64)>,
    /// Census ∪ served as a direct-indexed mask: nodes the decoy pass must
    /// never rescue. The request scan runs on nearly every idle decision, so
    /// it checks one bool per request instead of hashing and walking the
    /// census.
    decoy_excluded: Vec<bool>,
    /// Every victim actually spoofed, with its weight at targeting time.
    targets: Vec<(NodeId, f64)>,
    /// Instance snapshot at first decision — the key-node census used for the
    /// headline "fraction of key nodes exhausted".
    initial_instance: Option<TideInstance>,
    name: String,
}

impl std::fmt::Debug for CsaAttackPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsaAttackPolicy")
            .field("planner", &self.name)
            .field("adaptive", &self.replan_every_stop)
            .field("targets", &self.targets.len())
            .finish()
    }
}

impl CsaAttackPolicy {
    /// An adaptive attack driven by the CSA planner.
    pub fn new(config: TideConfig) -> Self {
        CsaAttackPolicy {
            config,
            replan_every_stop: true,
            serve_decoys: true,
            plan_age_limit_s: 3_600.0,
            plan_made_at_s: 0.0,
            plan: None,
            next_stop: 0,
            squatting: None,
            stealth_fraction: None,
            served: std::collections::HashSet::new(),
            unserved: Vec::new(),
            decoy_excluded: Vec::new(),
            targets: Vec::new(),
            initial_instance: None,
            name: "attack-csa".to_string(),
        }
    }

    /// Plan once at the first decision and never adapt (ablation switch).
    pub fn with_static_plan(mut self) -> Self {
        self.replan_every_stop = false;
        self
    }

    /// Never serve ordinary nodes honestly (ablation switch — the pure
    /// attack, at the price of a starving, alarm-ridden network).
    pub fn without_decoys(mut self) -> Self {
        self.serve_decoys = false;
        self
    }

    /// The **adaptive** arms-race attacker: masquerades become partial-power
    /// spoofs ([`ChargeMode::Partial`]) delivering `fraction` of the honest
    /// power, so a challenge-response probe measures a residual gain above a
    /// detector tolerance below `fraction`. The price is real: each stealth
    /// masquerade is a single bounded squat that *charges* its victim instead
    /// of killing it, trading exhaustion coverage (and joules actually
    /// delivered) for staying under the conviction threshold. Externally —
    /// radiated power, session length — it is indistinguishable from the
    /// naive spoof.
    pub fn with_stealth(mut self, fraction: f64) -> Self {
        self.stealth_fraction = Some(fraction);
        self.name.push_str("-stealth");
        self
    }

    /// The stealth fraction, if this attacker runs in stealth mode.
    pub fn stealth_fraction(&self) -> Option<f64> {
        self.stealth_fraction
    }

    /// The current instance/schedule, once the first decision has been made.
    pub fn plan(&self) -> Option<&(TideInstance, AttackSchedule)> {
        self.plan.as_ref()
    }

    /// The key-node census taken at the first decision.
    pub fn initial_instance(&self) -> Option<&TideInstance> {
        self.initial_instance.as_ref()
    }

    /// Every node actually spoofed so far, with its targeting weight.
    pub fn targets(&self) -> &[(NodeId, f64)] {
        &self.targets
    }

    fn live_config(&self, view: &WorldView<'_>) -> TideConfig {
        let mut cfg = self.config;
        cfg.start = view.charger.position();
        cfg.speed_mps = view.charger.speed_mps();
        cfg.budget_j = view.charger.energy_j();
        cfg.move_cost_j_per_m = view.charger.move_cost_j_per_m();
        cfg.now_s = view.time_s;
        cfg
    }

    fn make_instance(&self, view: &WorldView<'_>) -> TideInstance {
        let cfg = self.live_config(view);
        match &self.initial_instance {
            // The census is fixed at campaign start: these are the operator's
            // key nodes regardless of how the degrading graph reshuffles
            // centralities. Only windows/drains are re-derived.
            Some(_) => {
                // `unserved` is the census filtered by `served`, kept current
                // at serve time (see `decide`) so replans skip the filter.
                if cfg.radio == view.radio {
                    // The simulator's live power vector is computed under the
                    // same radio model, so reuse it instead of paying for a
                    // fresh shortest-path build on every replan.
                    TideInstance::for_targets_with_power(
                        view.net,
                        &cfg,
                        &self.unserved,
                        view.power_w,
                    )
                } else {
                    TideInstance::for_targets(view.net, &cfg, &self.unserved)
                }
            }
            // The first census: the engine's traffic load and power are
            // those of the live alive mask, so rank on them instead of
            // building two more shortest-path trees. Bitwise equal to
            // `TideInstance::from_network_excluding`.
            None => {
                let mask = view.net.alive_mask();
                let keys: Vec<(NodeId, f64)> =
                    keynode::identify_with_load(view.net, &mask, view.load, &cfg.keynode)
                        .into_iter()
                        .filter(|k| !self.served.contains(&k.id))
                        .map(|k| (k.id, k.weight))
                        .collect();
                if cfg.radio == view.radio {
                    TideInstance::for_targets_with_power(view.net, &cfg, &keys, view.power_w)
                } else {
                    TideInstance::for_targets(view.net, &cfg, &keys)
                }
            }
        }
    }

    fn replan(&mut self, view: &WorldView<'_>, rec: &mut dyn Recorder) {
        rec.add(Counter::Replans, 1);
        let instance = self.make_instance(view);
        let schedule = csa::plan_with(&instance, &CsaOptions::default(), rec);
        self.next_stop = 0;
        self.plan_made_at_s = view.time_s;
        self.plan = Some((instance, schedule));
    }
}

impl CsaAttackPolicy {
    /// A best-effort honest decoy charge that fits before `depart_at`:
    /// serve the nearest ordinary (non-victim) requester for a bounded slice,
    /// keeping an energy reserve for the masquerades. Returns `None` when no
    /// decoy fits.
    fn decoy_action(
        &self,
        view: &WorldView<'_>,
        depart_at: f64,
        next_victim_pos: wrsn_net::Point,
    ) -> Option<ChargerAction> {
        // Reserve a quarter of the budget for the attack itself.
        if view.charger.energy_j() < 0.25 * view.charger.capacity_j() {
            return None;
        }
        // Travel and service times are nonnegative, so when even an
        // instantaneous rescue misses the departure cushion no requester can
        // qualify — skip the scan entirely.
        if view.time_s + 60.0 > depart_at {
            return None;
        }
        let speed = view.charger.speed_mps();
        // Nearest live requester outside census ∪ served (`decoy_excluded`:
        // census members are the campaign's victims even when the degraded
        // graph no longer ranks them as key). First minimum wins on distance
        // ties, matching the former `min_by` scan node for node.
        let cpos = view.charger.position();
        let mut best: Option<(usize, f64)> = None;
        for (k, r) in view.requests.iter().enumerate() {
            if self.decoy_excluded.get(r.node.0).copied().unwrap_or(false) || !view.is_alive(r.node)
            {
                continue;
            }
            let d = view
                .net
                .node(r.node)
                .map(|n| cpos.distance_sq(n.position()))
                .unwrap_or(f64::INFINITY);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((k, d));
            }
        }
        let request = &view.requests[best?.0];
        let pos = view.net.node(request.node).ok()?.position();
        let slice = wrsn_charge::refill_duration_s(view, request.node)
            .unwrap_or(900.0)
            .min(900.0);
        let travel_there = view.charger.position().distance(pos) / speed;
        let travel_back = pos.distance(next_victim_pos) / speed;
        if view.time_s + travel_there + slice + travel_back + 60.0 > depart_at {
            return None;
        }
        Some(ChargerAction::Charge {
            node: request.node,
            duration_s: slice,
            mode: ChargeMode::Honest,
        })
    }

    /// A bounded squat chunk on `node`: the victim's residual life at its
    /// current drain, with a 10 % + 1 min cushion. Re-issued until the world
    /// reports the node dead, so drain drops (cascade deaths lighten traffic)
    /// only extend the squat by the actual extra life, never unboundedly.
    fn squat_chunk(&self, view: &WorldView<'_>, node: NodeId) -> ChargerAction {
        let drain = view.power_w.get(node.0).copied().unwrap_or(0.0);
        let level = view
            .net
            .node(node)
            .map(|n| n.battery().level_j())
            .unwrap_or(0.0);
        let residual = level / drain.max(1e-12);
        ChargerAction::Charge {
            node,
            duration_s: (residual * 1.1 + 60.0).min(view.time_left_s()),
            mode: match self.stealth_fraction {
                Some(fraction) => ChargeMode::Partial { fraction },
                None => ChargeMode::Spoofed,
            },
        }
    }
}

impl CsaAttackPolicy {
    fn decide(&mut self, view: &WorldView<'_>, rec: &mut dyn Recorder) -> ChargerAction {
        // A charger that lets its own battery die is conspicuous; swap at the
        // depot like the real one would — but never abandon a masquerade in
        // progress (the victim must not outlive the visit).
        if self.squatting.is_none() && view.should_recharge(0.15) {
            return ChargerAction::Recharge;
        }
        if self.initial_instance.is_none() {
            // The key-node census dominates the first decision; its own span
            // keeps it out of `policy_decide` self time.
            rec.span_enter("census");
            let census = self.make_instance(view);
            rec.span_exit("census");
            // `served` is necessarily empty here, so the whole census is
            // unserved and fair game for exclusion from decoy rescues.
            self.unserved = census.victims.iter().map(|v| (v.node, v.weight)).collect();
            self.decoy_excluded = vec![false; view.net.node_count()];
            for v in &census.victims {
                if let Some(slot) = self.decoy_excluded.get_mut(v.node.0) {
                    *slot = true;
                }
            }
            self.initial_instance = Some(census);
        }
        // Finish an in-progress masquerade before anything else: the charger
        // must stay parked until the victim is dead. A *stealth* masquerade
        // is the opposite deal — its partial-power delivery keeps the victim
        // alive by design, so it is a single bounded squat and moves on.
        if let Some(node) = self.squatting {
            if self.stealth_fraction.is_none()
                && view.is_alive(node)
                && !view.charger.is_exhausted()
                && view.time_left_s() > 0.0
            {
                rec.add(Counter::SquatChunks, 1);
                return self.squat_chunk(view, node);
            }
            self.squatting = None;
        }
        if self.plan.is_none()
            || (self.replan_every_stop && view.time_s - self.plan_made_at_s > self.plan_age_limit_s)
        {
            self.replan(view, rec);
        }
        let mut replanned_this_call = false;
        loop {
            let (instance, schedule) = self.plan.as_ref().expect("plan ensured");
            let Some(stop) = schedule.stops().get(self.next_stop).copied() else {
                // Plan exhausted: adaptive mode looks for fresh victims once
                // per decision; static mode is done.
                if self.replan_every_stop && !replanned_this_call {
                    replanned_this_call = true;
                    self.replan(view, rec);
                    let (_, fresh) = self.plan.as_ref().expect("plan ensured");
                    if !fresh.is_empty() {
                        continue;
                    }
                }
                // No (more) attackable victims. Keep up appearances: serve
                // ordinary requesters honestly until the run ends.
                if self.serve_decoys && view.time_left_s() > 0.0 {
                    if let Some(action) =
                        self.decoy_action(view, f64::INFINITY, view.charger.position())
                    {
                        rec.add(Counter::DecoyCharges, 1);
                        return action;
                    }
                    return ChargerAction::Wait(600.0_f64.min(view.time_left_s()));
                }
                return ChargerAction::Finish;
            };
            let Some(victim) = instance.victims.get(stop.victim).copied() else {
                self.next_stop += 1;
                continue;
            };
            if !view.is_alive(victim.node) || self.served.contains(&victim.node) {
                // Cascading deaths got there first; skip.
                self.next_stop += 1;
                continue;
            }
            // Leave just enough lead time to drive over; then the Charge
            // action's built-in travel makes the masquerade begin on schedule.
            let travel =
                view.charger.position().distance(victim.position) / view.charger.speed_mps();
            let depart_at = stop.begin_s - travel;
            if view.time_s + 1e-6 < depart_at {
                // Use the idle time to serve ordinary requesters honestly —
                // the network staying healthy is the attacker's camouflage.
                if self.serve_decoys {
                    if let Some(action) = self.decoy_action(view, depart_at, victim.position) {
                        rec.add(Counter::DecoyCharges, 1);
                        return action;
                    }
                }
                // Bound the wait so the plan is refreshed while idling: drain
                // predictions made hours ago would mistime the masquerade.
                let wait = (depart_at - view.time_s).min(if self.replan_every_stop {
                    self.plan_age_limit_s
                } else {
                    f64::INFINITY
                });
                return ChargerAction::Wait(wait);
            }
            self.served.insert(victim.node);
            self.unserved.retain(|&(n, _)| n != victim.node);
            if let Some(slot) = self.decoy_excluded.get_mut(victim.node.0) {
                *slot = true;
            }
            self.targets.push((victim.node, victim.weight));
            if self.replan_every_stop {
                self.plan = None; // force a replan after this masquerade
            } else {
                self.next_stop += 1;
            }
            // Squat until the victim dies: the masquerade must outlive the
            // victim so it never gets to file another energy report. The
            // world ends every session at the served node's death; squatting
            // is chunked so the cost tracks the victim's *actual* residual
            // life even when cascade deaths change its drain mid-masquerade.
            self.squatting = Some(victim.node);
            rec.add(Counter::SquatChunks, 1);
            return self.squat_chunk(view, victim.node);
        }
    }
}

impl ChargerPolicy for CsaAttackPolicy {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        self.decide(view, &mut NullRecorder)
    }

    fn next_action_observed(
        &mut self,
        view: &WorldView<'_>,
        rec: &mut dyn Recorder,
    ) -> ChargerAction {
        self.decide(view, rec)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Window-oblivious spoofer: answers every charging request immediately with
/// a fake charge, like a malicious NJNP.
#[derive(Debug, Clone)]
pub struct EagerSpoofPolicy {
    poll_s: f64,
    /// Pretend-refill duration per visit, seconds.
    service_s: f64,
    served: std::collections::HashSet<NodeId>,
}

impl EagerSpoofPolicy {
    /// An eager spoofer whose fake sessions last `service_s` seconds.
    pub fn new(service_s: f64) -> Self {
        EagerSpoofPolicy {
            poll_s: 60.0,
            service_s,
            served: std::collections::HashSet::new(),
        }
    }
}

impl ChargerPolicy for EagerSpoofPolicy {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        if view.should_recharge(0.15) {
            return ChargerAction::Recharge;
        }
        if view.charger.is_exhausted() {
            return ChargerAction::Finish;
        }
        let target = view
            .requests
            .iter()
            .find(|r| view.is_alive(r.node) && !self.served.contains(&r.node))
            .map(|r| r.node);
        match target {
            Some(node) => {
                self.served.insert(node);
                ChargerAction::Charge {
                    node,
                    duration_s: self.service_s,
                    mode: ChargeMode::Spoofed,
                }
            }
            None => {
                if view.time_left_s() <= 0.0 {
                    ChargerAction::Finish
                } else {
                    ChargerAction::Wait(self.poll_s.min(view.time_left_s()))
                }
            }
        }
    }

    fn name(&self) -> &str {
        "eager-spoof"
    }
}

/// The no-hardware strawman: *selective neglect*. The malicious charger
/// serves every ordinary request honestly and simply never comes for the key
/// nodes, starving them.
///
/// It needs no cancellation rig and beats the energy-report audit trivially
/// (no session, nothing to contradict) — but its victims die with requests
/// that aged far beyond the population norm, which is exactly what the
/// [`crate::detect::FairnessAudit`] flags. CSA's spoofed visits are what a
/// neglect attacker cannot fake (experiment `fig12`).
#[derive(Debug)]
pub struct SelectiveNeglectPolicy {
    keynode: wrsn_net::keynode::KeyNodeConfig,
    census: Option<std::collections::HashSet<NodeId>>,
    slice_s: f64,
    poll_s: f64,
}

impl SelectiveNeglectPolicy {
    /// A neglect attacker using the default key-node census.
    pub fn new() -> Self {
        SelectiveNeglectPolicy {
            keynode: wrsn_net::keynode::KeyNodeConfig::default(),
            census: None,
            slice_s: 900.0,
            poll_s: 60.0,
        }
    }

    /// The victims (the ignored key nodes), once the first decision was made.
    pub fn census(&self) -> Vec<NodeId> {
        self.census
            .as_ref()
            .map(|c| {
                let mut v: Vec<NodeId> = c.iter().copied().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }
}

impl Default for SelectiveNeglectPolicy {
    fn default() -> Self {
        SelectiveNeglectPolicy::new()
    }
}

impl ChargerPolicy for SelectiveNeglectPolicy {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        if view.should_recharge(0.15) {
            return ChargerAction::Recharge;
        }
        if view.charger.is_exhausted() {
            return ChargerAction::Finish;
        }
        let census = self.census.get_or_insert_with(|| {
            wrsn_net::keynode::identify_with_mask(view.net, &view.net.alive_mask(), &self.keynode)
                .into_iter()
                .map(|k| k.id)
                .collect()
        });
        // Serve the nearest non-victim requester, honestly (an NJNP that
        // pretends its victims' requests never arrive).
        let target = view
            .requests
            .iter()
            .filter(|r| view.is_alive(r.node) && !census.contains(&r.node))
            .min_by(|a, b| {
                let d = |n: NodeId| {
                    view.net
                        .node(n)
                        .map(|x| view.charger.position().distance_sq(x.position()))
                        .unwrap_or(f64::INFINITY)
                };
                d(a.node)
                    .partial_cmp(&d(b.node))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|r| r.node);
        match target {
            Some(node) => {
                let dur = wrsn_charge::refill_duration_s(view, node)
                    .unwrap_or(self.slice_s)
                    .min(self.slice_s);
                ChargerAction::Charge {
                    node,
                    duration_s: dur,
                    mode: ChargeMode::Honest,
                }
            }
            None => {
                if view.time_left_s() <= 0.0 {
                    ChargerAction::Finish
                } else {
                    ChargerAction::Wait(self.poll_s.min(view.time_left_s()))
                }
            }
        }
    }

    fn name(&self) -> &str {
        "selective-neglect"
    }
}

/// Post-run attack accounting against the planned instance.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttackOutcome {
    /// Victims the plan targeted.
    pub targeted: usize,
    /// Targeted victims that are dead at the end of the run.
    pub exhausted: usize,
    /// Total weight of exhausted targeted victims.
    pub utility: f64,
    /// `exhausted / targeted` (1.0 when nothing was targeted).
    pub exhausted_ratio: f64,
    /// Fraction of *all* key nodes (initial census) dead at the end —
    /// whether or not the attacker covered their death with a masquerade.
    pub key_node_exhausted_ratio: f64,
    /// The paper's headline: fraction of the key-node census exhausted
    /// *under a masquerade* (targeted and dead).
    pub covered_exhausted_ratio: f64,
}

/// Evaluates an executed attack: which targeted victims actually died, and
/// what fraction of the initial key-node census is gone.
pub fn evaluate_attack(world: &World, policy: &CsaAttackPolicy) -> AttackOutcome {
    let dead = |node: NodeId| {
        world
            .network()
            .node(node)
            .map(|n| !n.is_alive())
            .unwrap_or(false)
    };
    let targets = policy.targets();
    let targeted = targets.len();
    let exhausted = targets.iter().filter(|(n, _)| dead(*n)).count();
    let utility = targets
        .iter()
        .filter(|(n, _)| dead(*n))
        .map(|(_, w)| w)
        .sum();
    let census: &[crate::tide::Victim] = policy
        .initial_instance()
        .map(|i| i.victims.as_slice())
        .unwrap_or(&[]);
    let key_total = census.len();
    let key_dead = census.iter().filter(|v| dead(v.node)).count();
    let covered_dead = census
        .iter()
        .filter(|v| dead(v.node) && targets.iter().any(|(n, _)| *n == v.node))
        .count();
    AttackOutcome {
        targeted,
        exhausted,
        utility,
        exhausted_ratio: if targeted == 0 {
            1.0
        } else {
            exhausted as f64 / targeted as f64
        },
        key_node_exhausted_ratio: if key_total == 0 {
            1.0
        } else {
            key_dead as f64 / key_total as f64
        },
        covered_exhausted_ratio: if key_total == 0 {
            1.0
        } else {
            covered_dead as f64 / key_total as f64
        },
    }
}

/// Convenience: run a full CSA attack campaign on `world` and report both the
/// simulation outcome and the attack accounting.
///
/// # Errors
///
/// Propagates any [`wrsn_sim::SimError`] the engine surfaces (see
/// [`World::run`]).
pub fn run_attack(
    world: &mut World,
    config: TideConfig,
) -> Result<(SimReport, AttackOutcome), wrsn_sim::SimError> {
    let mut policy = CsaAttackPolicy::new(config);
    let report = world.run(&mut policy)?;
    let outcome = evaluate_attack(world, &policy);
    Ok((report, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_net::energy::Battery;
    use wrsn_net::node::SensorNode;
    use wrsn_net::{deploy, Network, Point};
    use wrsn_sim::{MobileCharger, WorldConfig};

    /// A corridor world, pre-drained so requests/windows are near-term, with
    /// small batteries so full runs stay fast. Levels are staggered so the
    /// victims' depletion deadlines — and hence their stealth windows — are
    /// spread out, as in a network that has been running for a while.
    fn attack_world(horizon: f64) -> World {
        let (_, nodes) = deploy::corridor(10, 4, 3);
        let nodes: Vec<SensorNode> = nodes
            .into_iter()
            .map(|n| SensorNode::with_battery(n.position(), Battery::new(400.0, 80.0)))
            .collect();
        let net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
        let charger = MobileCharger::standard(Point::new(10.0, 50.0));
        let mut world = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: horizon,
                ..WorldConfig::default()
            },
        );
        let n = world.network().node_count();
        for i in 0..n {
            let level = 120.0 + 10.0 * ((i * 7) % n) as f64;
            world.set_battery_level(NodeId(i), level).unwrap();
        }
        world
    }

    /// The first census ranks on the engine's tree and reuses its power
    /// vector; it must equal the from-scratch census bit for bit, in exact
    /// and in approximate mode, with some nodes already dead.
    #[test]
    fn first_census_equals_the_from_scratch_instance() {
        for max_exact_nodes in [usize::MAX, 0] {
            let nodes = deploy::uniform(&wrsn_net::Region::square(200.0), 200, 5);
            let net = Network::build(nodes, Point::new(100.0, 100.0), 30.0);
            let charger = MobileCharger::standard(Point::new(100.0, 100.0));
            let config = WorldConfig::default();
            let radio = config.radio;
            let mut world = World::new(net, charger, config);
            for i in 0..200 {
                let level = if i % 23 == 0 {
                    0.0
                } else {
                    200.0 + (i * 37 % 200) as f64
                };
                world.set_battery_level(NodeId(i), level).unwrap();
            }
            let load = wrsn_net::routing::traffic_load(
                world.network(),
                world.tree(),
                &world.network().alive_mask(),
            );
            let view = WorldView {
                time_s: world.time_s(),
                net: world.network(),
                tree: world.tree(),
                load: &load,
                power_w: world.power_w(),
                charger: world.charger(),
                requests: world.requests(),
                horizon_s: 1e6,
                depot: None,
                radio,
            };
            let mut tide = TideConfig::default();
            tide.keynode.max_exact_nodes = max_exact_nodes;
            let mut policy = CsaAttackPolicy::new(tide);
            policy.next_action(&view);
            let census = policy
                .initial_instance()
                .expect("the first decision takes a census");
            let reference = TideInstance::from_network_excluding(
                view.net,
                &policy.live_config(&view),
                &std::collections::HashSet::new(),
            );
            assert!(!census.victims.is_empty());
            assert_eq!(
                format!("{census:?}"),
                format!("{reference:?}"),
                "max_exact_nodes = {max_exact_nodes}"
            );
        }
    }

    #[test]
    fn csa_attack_survives_losing_a_victim_to_fault_injection() {
        use wrsn_sim::fault::{FaultEvent, FaultKind, FaultPlan};

        // Baseline campaign, to learn who gets attacked.
        let mut world = attack_world(400_000.0);
        let (_, baseline) = run_attack(&mut world, TideConfig::default()).expect("attack run");
        let victim = world
            .trace()
            .sessions()
            .first()
            .expect("baseline campaign charges someone")
            .node;

        // Same campaign, but the first-served victim hard-fails early: the
        // policy must keep executing against the degraded network instead of
        // erroring out, and the dead victim can no longer be exhausted by the
        // charger.
        let mut faulted =
            attack_world(400_000.0).with_fault_plan(FaultPlan::from_events(vec![FaultEvent {
                at_s: 1.0,
                kind: FaultKind::NodeFailure { node: victim },
            }]));
        let (_, outcome) = run_attack(&mut faulted, TideConfig::default()).expect("attack run");
        assert!(faulted.network().node(victim).unwrap().has_failed());
        assert!(outcome.targeted > 0, "campaign still targets the others");
        assert!(
            outcome.exhausted <= baseline.exhausted,
            "a crashed victim cannot add exhaustions: {} vs {}",
            outcome.exhausted,
            baseline.exhausted
        );
    }

    #[test]
    fn csa_attack_exhausts_most_key_nodes() {
        let mut world = attack_world(400_000.0);
        let (report, outcome) = run_attack(&mut world, TideConfig::default()).expect("attack run");
        assert!(outcome.targeted > 0, "attack must target someone");
        assert!(
            outcome.exhausted_ratio >= 0.8,
            "paper headline: ≥80% exhausted, got {:?} ({report:?})",
            outcome
        );
    }

    #[test]
    fn spoofed_victims_receive_essentially_nothing() {
        let mut world = attack_world(400_000.0);
        let (_, outcome) = run_attack(&mut world, TideConfig::default()).expect("attack run");
        assert!(outcome.targeted > 0);
        let mut spoofed = 0;
        for s in world.trace().sessions() {
            match s.mode {
                ChargeMode::Spoofed => {
                    spoofed += 1;
                    assert!(
                        s.delivered_j < 0.02 * s.radiated_j,
                        "session delivered {} of {} radiated",
                        s.delivered_j,
                        s.radiated_j
                    );
                }
                ChargeMode::Honest => {
                    // Decoy service delivers real energy.
                    assert!(s.delivered_j > 0.0 || s.duration_s < 1.0);
                }
                ChargeMode::Partial { .. } => {
                    panic!("naive CSA never issues partial-power sessions");
                }
            }
        }
        assert!(spoofed > 0, "attack must have spoofed sessions");
    }

    #[test]
    fn attack_policy_reports_plan() {
        let world = attack_world(1000.0);
        let mut policy = CsaAttackPolicy::new(TideConfig::default());
        assert!(policy.plan().is_none());
        // Trigger one decision.
        let tree = world.tree().clone();
        let load =
            wrsn_net::routing::traffic_load(world.network(), &tree, &world.network().alive_mask());
        let view = WorldView {
            time_s: 0.0,
            net: world.network(),
            tree: &tree,
            load: &load,
            power_w: world.power_w(),
            charger: world.charger(),
            requests: &[],
            horizon_s: 1000.0,
            depot: None,
            radio: wrsn_net::energy::RadioEnergyModel::classical(),
        };
        let _ = policy.next_action(&view);
        let (instance, schedule) = policy.plan().unwrap();
        instance.validate(schedule).unwrap();
    }

    #[test]
    fn eager_spoof_also_kills_but_serves_requests_immediately() {
        let mut world = attack_world(400_000.0);
        let report = world.run(&mut EagerSpoofPolicy::new(3_000.0)).expect("run");
        assert_eq!(report.policy_name, "eager-spoof");
        assert!(report.sessions > 0);
        // Spoofed sessions delivered nothing, so served nodes still died.
        assert!(report.dead_nodes > 0);
    }

    #[test]
    fn evaluate_attack_with_no_targets() {
        let world = attack_world(10.0);
        let policy = CsaAttackPolicy::new(TideConfig::default());
        let outcome = evaluate_attack(&world, &policy);
        assert_eq!(outcome.targeted, 0);
        assert_eq!(outcome.exhausted_ratio, 1.0);
        assert_eq!(outcome.key_node_exhausted_ratio, 1.0);
    }

    #[test]
    fn static_plan_ablation_still_runs() {
        let mut world = attack_world(400_000.0);
        let mut policy = CsaAttackPolicy::new(TideConfig::default()).with_static_plan();
        world.run(&mut policy).expect("run");
        let outcome = evaluate_attack(&world, &policy);
        // The static plan targets someone; adaptivity is about stealth and
        // yield, not about basic operation.
        assert!(outcome.targeted > 0);
    }
}
