//! Nearest Job Next (with Preemption) — the classic on-demand charging
//! discipline: among outstanding requests, always serve the one closest to
//! the charger's current position.
//!
//! Preemption is realised by re-deciding at every action boundary: sessions
//! are issued in bounded slices, so a request that arrives from a nearer node
//! takes over at the next slice boundary.

use wrsn_net::NodeId;
use wrsn_sim::obs::{Counter, NullRecorder, Recorder};
use wrsn_sim::{ChargeMode, ChargerAction, ChargerPolicy, WorldView};

use crate::refill_duration_s;

/// The NJNP policy.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Njnp {
    /// Maximum single charging slice, seconds; shorter slices preempt faster
    /// but spend more decision overhead.
    slice_s: f64,
    /// Idle poll interval while no requests are outstanding, seconds.
    poll_s: f64,
}

impl Njnp {
    /// NJNP with a 120 s preemption slice and 60 s idle poll.
    pub fn new() -> Self {
        Njnp {
            slice_s: 120.0,
            poll_s: 60.0,
        }
    }

    fn decide(&mut self, view: &WorldView<'_>, rec: &mut dyn Recorder) -> ChargerAction {
        if view.should_recharge(0.15) {
            return ChargerAction::Recharge;
        }
        if view.charger.is_exhausted() {
            return ChargerAction::Finish;
        }
        rec.add(Counter::RequestScans, view.requests.len() as u64);
        match self.nearest_request(view) {
            Some(node) => {
                let full = refill_duration_s(view, node).unwrap_or(self.slice_s);
                if full > self.slice_s {
                    rec.add(Counter::PolicySlices, 1);
                }
                ChargerAction::Charge {
                    node,
                    duration_s: full.min(self.slice_s),
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

    fn nearest_request(&self, view: &WorldView<'_>) -> Option<NodeId> {
        view.requests
            .iter()
            .filter(|r| view.is_alive(r.node))
            .min_by(|a, b| {
                let da = view
                    .net
                    .node(a.node)
                    .map(|n| view.charger.position().distance_sq(n.position()))
                    .unwrap_or(f64::INFINITY);
                let db = view
                    .net
                    .node(b.node)
                    .map(|n| view.charger.position().distance_sq(n.position()))
                    .unwrap_or(f64::INFINITY);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|r| r.node)
    }
}

impl Default for Njnp {
    fn default() -> Self {
        Njnp::new()
    }
}

impl ChargerPolicy for Njnp {
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
        "njnp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_net::prelude::*;
    use wrsn_sim::prelude::*;

    fn drained_world(horizon: f64) -> World {
        let nodes = deploy::grid(&Region::square(60.0), 3, 3, 0.0, 0);
        let net = Network::build(nodes, Point::new(30.0, 30.0), 25.0);
        let charger = MobileCharger::standard(Point::new(30.0, 30.0));
        let mut w = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: horizon,
                ..WorldConfig::default()
            },
        );
        // Put two nodes below their warning threshold so requests exist.
        let cap = w.network().capacities_j()[0];
        w.set_battery_level(NodeId(0), cap * 0.1).unwrap();
        w.set_battery_level(NodeId(8), cap * 0.05).unwrap();
        w
    }

    #[test]
    fn njnp_serves_outstanding_requests() {
        let mut w = drained_world(40_000.0);
        let report = w.run(&mut Njnp::new()).expect("run");
        assert!(report.sessions >= 2, "sessions = {}", report.sessions);
        let served: std::collections::HashSet<NodeId> =
            w.trace().sessions().iter().map(|s| s.node).collect();
        assert!(served.contains(&NodeId(0)));
        assert!(served.contains(&NodeId(8)));
        // Requests were satisfied: both nodes alive and above warning.
        assert!(w.network().levels_j()[0] > w.network().warnings_j()[0]);
    }

    #[test]
    fn njnp_keeps_network_alive_longer_than_idle() {
        // Small batteries so the horizon sees deaths under idle.
        let build = || {
            let nodes: Vec<SensorNode> = deploy::grid(&Region::square(60.0), 3, 3, 0.0, 0)
                .into_iter()
                .map(|n| {
                    let pos = n.position();
                    SensorNode::with_battery(pos, Battery::new(50.0, 15.0))
                })
                .collect();
            let net = Network::build(nodes, Point::new(30.0, 30.0), 25.0);
            World::new(
                net,
                MobileCharger::standard(Point::new(30.0, 30.0)),
                WorldConfig {
                    horizon_s: 100_000.0,
                    ..WorldConfig::default()
                },
            )
        };
        let idle_dead = build().run(&mut IdlePolicy).expect("run").dead_nodes;
        let njnp_dead = build().run(&mut Njnp::new()).expect("run").dead_nodes;
        assert!(
            njnp_dead < idle_dead,
            "njnp {njnp_dead} vs idle {idle_dead}"
        );
    }

    #[test]
    fn njnp_recharges_at_depot_instead_of_dying() {
        let nodes = deploy::grid(&Region::square(60.0), 3, 3, 0.0, 0);
        let net = Network::build(nodes, Point::new(30.0, 30.0), 25.0);
        // Tiny budget: without a depot NJNP would stall almost immediately.
        let charger = MobileCharger::standard(Point::new(30.0, 30.0)).with_energy(60_000.0);
        let mut w = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: 300_000.0,
                depot: Some(Point::new(30.0, 30.0)),
                ..WorldConfig::default()
            },
        );
        let cap = w.network().capacities_j()[0];
        for i in 0..9 {
            w.set_battery_level(NodeId(i), cap * 0.15).unwrap();
        }
        let report = w.run(&mut Njnp::new()).expect("run");
        assert!(report.depot_visits > 0, "NJNP never swapped batteries");
        assert!(
            report.charger_energy_used_j > 60_000.0,
            "depot swaps should let spending exceed one battery: {}",
            report.charger_energy_used_j
        );
    }

    #[test]
    fn njnp_waits_when_no_requests() {
        let nodes = deploy::grid(&Region::square(60.0), 2, 2, 0.0, 0);
        let net = Network::build(nodes, Point::new(30.0, 30.0), 40.0);
        let charger = MobileCharger::standard(Point::new(30.0, 30.0));
        let tree = wrsn_net::routing::RoutingTree::shortest_path(&net, &net.alive_mask());
        let load = wrsn_net::routing::traffic_load(&net, &tree, &net.alive_mask());
        let view = WorldView {
            time_s: 0.0,
            net: &net,
            tree: &tree,
            load: &load,
            power_w: &[0.0; 4],
            charger: &charger,
            requests: &[],
            horizon_s: 1000.0,
            depot: None,
            radio: wrsn_net::energy::RadioEnergyModel::classical(),
        };
        assert!(matches!(
            Njnp::new().next_action(&view),
            ChargerAction::Wait(_)
        ));
    }
}
