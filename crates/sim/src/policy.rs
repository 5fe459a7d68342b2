//! The charger-policy interface.
//!
//! Every charger behaviour — benign schedulers in `wrsn-charge`, the Charging
//! Spoofing Attack in `wrsn-core` — implements [`ChargerPolicy`]: the world
//! repeatedly asks the policy for its next [`ChargerAction`] and executes it.

use wrsn_net::energy::RadioEnergyModel;
use wrsn_net::routing::{RoutingTree, TrafficLoad};
use wrsn_net::{Network, NodeId, Point};

use crate::charger::{ChargeMode, MobileCharger};
use crate::obs::Recorder;
use crate::request::ChargeRequest;

/// One step of charger behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChargerAction {
    /// Drive to `dest` (the world clamps the move to the energy budget).
    MoveTo(Point),
    /// Park at the service point of `node` (moving there first if needed) and
    /// serve it for `duration_s` seconds in `mode`.
    Charge {
        /// The node to serve.
        node: NodeId,
        /// Service duration, seconds.
        duration_s: f64,
        /// Honest or spoofed service.
        mode: ChargeMode,
    },
    /// Drive to the depot and swap/refill the charger's own battery. A no-op
    /// (after the drive) if the world has no depot configured.
    Recharge,
    /// Do nothing for `duration_s` seconds.
    Wait(f64),
    /// The policy is done; the world free-runs the network to the horizon.
    Finish,
}

/// Read-only view of the world handed to a policy at each decision point.
#[derive(Debug)]
pub struct WorldView<'a> {
    /// Current simulation time, seconds.
    pub time_s: f64,
    /// The network (positions, batteries, topology).
    pub net: &'a Network,
    /// The current routing tree over alive nodes.
    pub tree: &'a RoutingTree,
    /// The traffic load of `tree`: what each node relays, bits per second.
    pub load: &'a TrafficLoad,
    /// Steady-state power draw of every node, watts.
    pub power_w: &'a [f64],
    /// The charger's current state.
    pub charger: &'a MobileCharger,
    /// Outstanding charging requests, oldest first.
    pub requests: &'a [ChargeRequest],
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// The depot where [`ChargerAction::Recharge`] swaps batteries, if the
    /// world has one.
    pub depot: Option<Point>,
    /// The radio energy model behind `power_w`. Lets a policy that simulates
    /// drain with the same model recognise that `power_w` is reusable as-is
    /// instead of recomputing the draw from scratch.
    pub radio: RadioEnergyModel,
}

impl WorldView<'_> {
    /// Time remaining until the horizon, seconds.
    pub fn time_left_s(&self) -> f64 {
        (self.horizon_s - self.time_s).max(0.0)
    }

    /// Whether the charger should head to the depot: a depot exists and the
    /// remaining budget is below `reserve_fraction` of capacity.
    pub fn should_recharge(&self, reserve_fraction: f64) -> bool {
        self.depot.is_some()
            && self.charger.energy_j() < reserve_fraction * self.charger.capacity_j()
    }

    /// Whether `node` is still alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.net.node(node).map(|n| n.is_alive()).unwrap_or(false)
    }
}

/// A charger behaviour driven by the world loop.
///
/// Implementations should be deterministic for reproducible experiments; seed
/// any randomness explicitly.
pub trait ChargerPolicy {
    /// Decides the next action given the current world state.
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction;

    /// Like [`ChargerPolicy::next_action`], but with a [`Recorder`] the
    /// policy may report counters and spans into. The default ignores the
    /// recorder, so existing policies are unaffected; instrumented policies
    /// override this and have `next_action` delegate with a
    /// [`crate::obs::NullRecorder`]. The world loop always calls this
    /// variant.
    fn next_action_observed(
        &mut self,
        view: &WorldView<'_>,
        rec: &mut dyn Recorder,
    ) -> ChargerAction {
        let _ = rec;
        self.next_action(view)
    }

    /// A short human-readable name used in reports and experiment tables.
    fn name(&self) -> &str {
        "unnamed"
    }
}

/// A policy that does nothing: the charger stays parked and the network drains
/// naturally. Useful as the "no charger" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdlePolicy;

impl ChargerPolicy for IdlePolicy {
    fn next_action(&mut self, _view: &WorldView<'_>) -> ChargerAction {
        ChargerAction::Finish
    }

    fn name(&self) -> &str {
        "idle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_net::deploy;
    use wrsn_net::Region;

    #[test]
    fn idle_policy_finishes_immediately() {
        let nodes = deploy::uniform(&Region::square(10.0), 3, 0);
        let net = Network::build(nodes, Point::ORIGIN, 5.0);
        let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
        let load = wrsn_net::routing::traffic_load(&net, &tree, &net.alive_mask());
        let charger = MobileCharger::standard(Point::ORIGIN);
        let view = WorldView {
            time_s: 0.0,
            net: &net,
            tree: &tree,
            load: &load,
            power_w: &[0.0; 3],
            charger: &charger,
            requests: &[],
            horizon_s: 100.0,
            depot: None,
            radio: RadioEnergyModel::classical(),
        };
        let mut p = IdlePolicy;
        assert_eq!(p.next_action(&view), ChargerAction::Finish);
        assert_eq!(p.name(), "idle");
    }

    #[test]
    fn view_helpers() {
        let nodes = deploy::uniform(&Region::square(10.0), 2, 0);
        let net = Network::build(nodes, Point::ORIGIN, 5.0);
        let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
        let load = wrsn_net::routing::traffic_load(&net, &tree, &net.alive_mask());
        let charger = MobileCharger::standard(Point::ORIGIN);
        let view = WorldView {
            time_s: 30.0,
            net: &net,
            tree: &tree,
            load: &load,
            power_w: &[0.0; 2],
            charger: &charger,
            requests: &[],
            horizon_s: 100.0,
            depot: None,
            radio: RadioEnergyModel::classical(),
        };
        assert_eq!(view.time_left_s(), 70.0);
        assert!(view.is_alive(NodeId(0)));
        assert!(!view.is_alive(NodeId(99)));
    }
}
