//! The TIDE problem: charging uTility optImization with key noDe timE window
//! constraints.
//!
//! Given the network's key nodes, their battery states and drain rates, the
//! attacker derives for each potential victim a **time window** in which a
//! spoofed charging visit is both *plausible* (the node has requested
//! charging, so a visit looks legitimate) and *lethal* (the full-length
//! masquerade completes before the node would die — a node dying mid-"charge"
//! is an instant giveaway). TIDE asks for the visit schedule that maximises
//! total victim weight subject to these windows, the charger's travel speed
//! and its energy budget. It generalises orienteering with time windows and is
//! NP-hard; [`crate::csa`] approximates it, [`crate::exact`] solves small
//! instances.

use serde::{Deserialize, Serialize};

use wrsn_net::energy::RadioEnergyModel;
use wrsn_net::keynode::{self, KeyNodeConfig};
use wrsn_net::{Network, NodeId, Point};
use wrsn_sim::World;

use crate::error::CoreError;
use crate::schedule::AttackSchedule;

/// The interval of admissible *begin* times for a victim's spoofed visit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// Earliest admissible begin (the node's charging request), seconds.
    pub open_s: f64,
    /// Latest admissible begin (so the masquerade finishes before the node
    /// dies), seconds.
    pub close_s: f64,
}

impl TimeWindow {
    /// Whether `t` lies inside the window.
    pub fn contains(&self, t: f64) -> bool {
        (self.open_s..=self.close_s).contains(&t)
    }
}

/// One attackable key node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Victim {
    /// The key node's id in the network.
    pub node: NodeId,
    /// Its position.
    pub position: Point,
    /// Attack utility of exhausting it (the key-node criticality weight).
    pub weight: f64,
    /// Admissible begin-time window.
    pub window: TimeWindow,
    /// Duration a legitimate refill would take — the masquerade must run this
    /// long to look real, seconds.
    pub service_s: f64,
    /// Predicted depletion time if the node receives no energy, seconds.
    pub death_s: f64,
}

/// Parameters for deriving a [`TideInstance`] from a network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TideConfig {
    /// Key-node identification settings.
    pub keynode: KeyNodeConfig,
    /// Radio model used to predict node drain.
    pub radio: RadioEnergyModel,
    /// DC power a legitimate charger would deliver at service distance, watts
    /// (used to size the masquerade duration).
    pub charge_power_w: f64,
    /// RF power the attacker radiates during a spoofed session, watts.
    pub radiated_power_w: f64,
    /// Current time (all windows are absolute), seconds.
    pub now_s: f64,
    /// Period of the nodes' residual-energy reports, seconds. With
    /// `stealth_windows` on, each victim's window opens late enough that the
    /// masquerade ends after the victim's *last report before death* — so the
    /// spoof is never contradicted by a report.
    pub report_interval_s: f64,
    /// Tighten windows for stealth (ablation switch; see
    /// `report_interval_s`).
    pub stealth_windows: bool,
    /// Minimum plausible masquerade length, seconds. Since the attacker
    /// squats until the victim dies anyway, a *visit* only needs to look like
    /// a legitimate partial top-up (on-demand chargers slice their service);
    /// shorter masquerades mean narrower occupancy per victim and far more
    /// victims per campaign. Capped at the full-refill duration.
    pub min_masquerade_s: f64,
    /// Charger start position.
    pub start: Point,
    /// Charger speed, m/s.
    pub speed_mps: f64,
    /// Charger energy budget, joules.
    pub budget_j: f64,
    /// Locomotion cost, J/m.
    pub move_cost_j_per_m: f64,
}

impl Default for TideConfig {
    fn default() -> Self {
        let model = wrsn_em::ChargeModel::powercast();
        TideConfig {
            keynode: KeyNodeConfig::default(),
            radio: RadioEnergyModel::classical(),
            charge_power_w: model.power_at(wrsn_sim::charger::DEFAULT_SERVICE_DISTANCE_M),
            // Primary plus matched helper antenna.
            radiated_power_w: 2.0 * wrsn_em::constants::DEFAULT_TX_POWER_W,
            now_s: 0.0,
            start: Point::ORIGIN,
            speed_mps: wrsn_sim::charger::DEFAULT_MC_SPEED_MPS,
            budget_j: wrsn_sim::charger::DEFAULT_MC_ENERGY_J,
            move_cost_j_per_m: wrsn_sim::charger::DEFAULT_MOVE_COST_J_PER_M,
            report_interval_s: 1_800.0,
            stealth_windows: true,
            min_masquerade_s: 900.0,
        }
    }
}

/// A concrete TIDE instance: victims plus charger resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TideInstance {
    /// The attackable victims, sorted by descending weight.
    pub victims: Vec<Victim>,
    /// Charger start position.
    pub start: Point,
    /// Charger speed, m/s.
    pub speed_mps: f64,
    /// Charger energy budget, joules.
    pub budget_j: f64,
    /// Locomotion cost, J/m.
    pub move_cost_j_per_m: f64,
    /// RF power radiated while spoofing, watts.
    pub radiated_power_w: f64,
    /// The instance's reference time, seconds.
    pub now_s: f64,
}

impl TideInstance {
    /// Derives the instance from a network snapshot.
    ///
    /// Key nodes are identified with `config.keynode`; for each, the drain
    /// rate predicts the request time (window open), the depletion time, and
    /// the legitimate-refill duration (masquerade length). Victims whose
    /// masquerade cannot complete before death, or that are not draining, are
    /// excluded.
    pub fn from_network(net: &Network, config: &TideConfig) -> Self {
        TideInstance::from_network_excluding(net, config, &std::collections::HashSet::new())
    }

    /// [`TideInstance::from_network`] with some nodes excluded from the victim
    /// set (used by the adaptive attack to avoid re-targeting nodes it
    /// already spoofed).
    pub fn from_network_excluding(
        net: &Network,
        config: &TideConfig,
        excluded: &std::collections::HashSet<NodeId>,
    ) -> Self {
        let mask = net.alive_mask();
        let keys: Vec<(NodeId, f64)> = keynode::identify_with_mask(net, &mask, &config.keynode)
            .into_iter()
            .filter(|k| !excluded.contains(&k.id))
            .map(|k| (k.id, k.weight))
            .collect();
        TideInstance::for_targets(net, config, &keys)
    }

    /// Derives an instance for an *explicit* victim list with the given
    /// weights, computing fresh windows from the network's current state.
    ///
    /// This is what the adaptive attack replans with: the key-node census is
    /// fixed at campaign start (killing a cut vertex demotes its neighbours
    /// in the degraded graph, but they are still the *operator's* key nodes),
    /// while drains, request times and depletion deadlines are re-predicted
    /// from live battery state. Dead or drainless targets are skipped.
    pub fn for_targets(net: &Network, config: &TideConfig, targets: &[(NodeId, f64)]) -> Self {
        let mask = net.alive_mask();
        // Must match the simulator's drain model (including the
        // disconnected-drain floor), or stranded key nodes look drainless and
        // vanish from the victim set.
        let power = keynode::effective_power_draw(net, &mask, &config.radio);
        TideInstance::for_targets_with_power(net, config, targets, &power)
    }

    /// [`TideInstance::for_targets`] with the per-node power draw supplied by
    /// the caller instead of recomputed. The vector must come from the same
    /// drain model the simulator uses (`keynode::effective_power_draw` under
    /// `config.radio`); a live [`WorldView`](wrsn_sim::WorldView) whose
    /// radio matches `config.radio` provides exactly that, saving a full
    /// shortest-path rebuild per replan.
    pub fn for_targets_with_power(
        net: &Network,
        config: &TideConfig,
        targets: &[(NodeId, f64)],
        power: &[f64],
    ) -> Self {
        let mut victims = Vec::new();
        for &(id, weight) in targets {
            let Ok(node) = net.node(id) else {
                continue;
            };
            let i = id.0;
            let p = power[i];
            if p <= 0.0 || !node.is_alive() {
                continue;
            }
            let level = node.battery().level_j();
            let warning = node.battery().warning_j();
            let t_request = config.now_s + ((level - warning).max(0.0)) / p;
            let t_death = config.now_s + level / p;
            // A real charger refills from the warning level to capacity while
            // the node keeps draining. For a node already below its warning
            // threshold, refill its actual deficit.
            let net_in = (config.charge_power_w - p).max(config.charge_power_w * 0.1);
            let full_refill_s = (node.battery().capacity_j() - warning.min(level)) / net_in;
            let service_s = full_refill_s.min(config.min_masquerade_s.max(60.0));
            let close = t_death - service_s;
            let mut open = t_request;
            if config.stealth_windows && config.report_interval_s > 0.0 {
                // The masquerade must end at or after the victim's last
                // energy report strictly before its death, so no report ever
                // contradicts the "charge".
                let r = config.report_interval_s;
                let last_report = (((t_death / r).ceil() - 1.0) * r).max(0.0);
                open = open.max(last_report - service_s);
            }
            if close < open {
                continue; // no stealthy, completable visit exists
            }
            victims.push(Victim {
                node: id,
                position: node.position(),
                weight,
                window: TimeWindow {
                    open_s: open,
                    close_s: close,
                },
                service_s,
                death_s: t_death,
            });
        }
        victims.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        TideInstance {
            victims,
            start: config.start,
            speed_mps: config.speed_mps,
            budget_j: config.budget_j,
            move_cost_j_per_m: config.move_cost_j_per_m,
            radiated_power_w: config.radiated_power_w,
            now_s: config.now_s,
        }
    }

    /// Derives the instance from a live simulation, taking the charger's
    /// actual position, speed and remaining budget.
    pub fn from_world(world: &World, config: &TideConfig) -> Self {
        let mut cfg = *config;
        cfg.start = world.charger().position();
        cfg.speed_mps = world.charger().speed_mps();
        cfg.budget_j = world.charger().energy_j();
        cfg.move_cost_j_per_m = world.charger().move_cost_j_per_m();
        cfg.now_s = world.time_s();
        TideInstance::from_network(world.network(), &cfg)
    }

    /// Number of victims.
    pub fn victim_count(&self) -> usize {
        self.victims.len()
    }

    /// Sum of all victim weights — the utility upper bound.
    pub fn total_weight(&self) -> f64 {
        self.victims.iter().map(|v| v.weight).sum()
    }

    /// Travel time between two points at charger speed, seconds.
    pub fn travel_time(&self, from: Point, to: Point) -> f64 {
        from.distance(to) / self.speed_mps
    }

    /// Energy cost of a schedule: locomotion along the route plus RF radiated
    /// during every masquerade, joules.
    pub fn energy_cost(&self, schedule: &AttackSchedule) -> f64 {
        let mut pos = self.start;
        let mut cost = 0.0;
        for stop in schedule.stops() {
            if let Some(v) = self.victims.get(stop.victim) {
                cost += pos.distance(v.position) * self.move_cost_j_per_m;
                cost += v.service_s * self.radiated_power_w;
                pos = v.position;
            }
        }
        cost
    }

    /// Total utility (weight of served victims).
    pub fn utility(&self, schedule: &AttackSchedule) -> f64 {
        schedule
            .stops()
            .iter()
            .filter_map(|s| self.victims.get(s.victim))
            .map(|v| v.weight)
            .sum()
    }

    /// Checks that `schedule` is executable: victims exist and are unique,
    /// every begin time respects travel from the previous stop, every begin
    /// lies in its victim's window, and the energy budget holds.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`CoreError`].
    pub fn validate(&self, schedule: &AttackSchedule) -> Result<(), CoreError> {
        let mut seen = vec![false; self.victims.len()];
        let mut time = self.now_s;
        let mut pos = self.start;
        for (k, stop) in schedule.stops().iter().enumerate() {
            let Some(v) = self.victims.get(stop.victim) else {
                return Err(CoreError::UnknownVictim { index: stop.victim });
            };
            if seen[stop.victim] {
                return Err(CoreError::DuplicateVictim { index: stop.victim });
            }
            seen[stop.victim] = true;
            if !stop.begin_s.is_finite() || stop.begin_s < 0.0 {
                return Err(CoreError::InvalidTime { stop: k });
            }
            let earliest = time + self.travel_time(pos, v.position);
            if stop.begin_s + 1e-6 < earliest {
                return Err(CoreError::ArrivesLate {
                    stop: k,
                    earliest_s: earliest,
                    begin_s: stop.begin_s,
                });
            }
            let in_window_with_tolerance =
                stop.begin_s >= v.window.open_s - 1e-6 && stop.begin_s <= v.window.close_s + 1e-6;
            if !in_window_with_tolerance {
                return Err(CoreError::WindowViolated { stop: k });
            }
            time = stop.begin_s + v.service_s;
            pos = v.position;
        }
        let needed = self.energy_cost(schedule);
        if needed > self.budget_j + 1e-6 {
            return Err(CoreError::BudgetExceeded {
                needed_j: needed,
                budget_j: self.budget_j,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Stop;
    use wrsn_net::deploy;

    pub(crate) fn drained_corridor() -> Network {
        let (_, nodes) = deploy::corridor(10, 4, 3);
        let mut net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
        for i in 0..net.node_count() {
            let cap = net.capacities_j()[i];
            net.energy_mut().set_level(i, cap * 0.3);
        }
        net
    }

    #[test]
    fn instance_has_victims_with_sane_windows() {
        let net = drained_corridor();
        let inst = TideInstance::from_network(&net, &TideConfig::default());
        assert!(!inst.victims.is_empty());
        for v in &inst.victims {
            assert!(v.window.open_s >= 0.0);
            assert!(v.window.close_s >= v.window.open_s);
            assert!(v.service_s > 0.0);
            assert!(v.death_s > v.window.close_s - 1e-9);
            assert!(v.weight >= 1.0);
        }
        // Victims sorted by descending weight.
        for w in inst.victims.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
    }

    #[test]
    fn empty_network_gives_empty_instance() {
        let net = Network::build(Vec::new(), Point::ORIGIN, 10.0);
        let inst = TideInstance::from_network(&net, &TideConfig::default());
        assert_eq!(inst.victim_count(), 0);
        assert_eq!(inst.total_weight(), 0.0);
    }

    #[test]
    fn validate_accepts_a_feasible_single_stop() {
        let net = drained_corridor();
        let inst = TideInstance::from_network(&net, &TideConfig::default());
        let v = &inst.victims[0];
        let arrive = inst.now_s + inst.travel_time(inst.start, v.position);
        let begin = arrive.max(v.window.open_s);
        assert!(begin <= v.window.close_s, "test premise: window reachable");
        let s = AttackSchedule::new(vec![Stop {
            victim: 0,
            begin_s: begin,
        }]);
        inst.validate(&s).unwrap();
        assert_eq!(inst.utility(&s), v.weight);
        assert!(inst.energy_cost(&s) > 0.0);
    }

    #[test]
    fn validate_rejects_early_arrival_violation() {
        let net = drained_corridor();
        let inst = TideInstance::from_network(&net, &TideConfig::default());
        let s = AttackSchedule::new(vec![Stop {
            victim: 0,
            begin_s: 0.0, // cannot possibly have arrived at t=0
        }]);
        let err = inst.validate(&s).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::ArrivesLate { .. } | CoreError::WindowViolated { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn validate_rejects_duplicates_and_unknown() {
        let net = drained_corridor();
        let inst = TideInstance::from_network(&net, &TideConfig::default());
        let v = &inst.victims[0];
        let begin = (inst.now_s + inst.travel_time(inst.start, v.position)).max(v.window.open_s);
        let dup = AttackSchedule::new(vec![
            Stop {
                victim: 0,
                begin_s: begin,
            },
            Stop {
                victim: 0,
                begin_s: begin + v.service_s + 10.0,
            },
        ]);
        assert!(matches!(
            inst.validate(&dup),
            Err(CoreError::DuplicateVictim { index: 0 })
        ));
        let unknown = AttackSchedule::new(vec![Stop {
            victim: 999,
            begin_s: 1.0,
        }]);
        assert!(matches!(
            inst.validate(&unknown),
            Err(CoreError::UnknownVictim { index: 999 })
        ));
    }

    #[test]
    fn validate_rejects_budget_violation() {
        let net = drained_corridor();
        let cfg = TideConfig {
            budget_j: 1.0, // absurdly small
            ..TideConfig::default()
        };
        let inst = TideInstance::from_network(&net, &cfg);
        let v = &inst.victims[0];
        let begin = (inst.now_s + inst.travel_time(inst.start, v.position)).max(v.window.open_s);
        let s = AttackSchedule::new(vec![Stop {
            victim: 0,
            begin_s: begin,
        }]);
        assert!(matches!(
            inst.validate(&s),
            Err(CoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn fully_charged_network_yields_far_future_windows() {
        let (_, nodes) = deploy::corridor(10, 4, 3);
        let net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
        let inst = TideInstance::from_network(&net, &TideConfig::default());
        for v in &inst.victims {
            // Full batteries: requests are far in the future.
            assert!(v.window.open_s > 1000.0);
        }
    }

    #[test]
    fn window_contains_its_bounds() {
        let w = TimeWindow {
            open_s: 10.0,
            close_s: 20.0,
        };
        assert!(w.contains(10.0) && w.contains(20.0) && w.contains(15.0));
        assert!(!w.contains(9.9) && !w.contains(20.1));
    }
}
