//! # wrsn-charge — benign mobile-charger scheduling
//!
//! The legitimate charging policies a WRSN operator runs, all implementing
//! [`wrsn_sim::ChargerPolicy`]:
//!
//! * [`njnp::Njnp`] — *Nearest Job Next (with Preemption)*: always serve the
//!   spatially closest outstanding request,
//! * [`periodic::PeriodicTsp`] — tour all nodes on a (2-opt improved) TSP
//!   cycle and top every battery up,
//! * [`edf::EarliestDeadlineFirst`] — serve the node that will die soonest.
//!
//! These policies matter to the attack twice over: they are the *victims'
//! expectation* of charger behaviour (the disguise CSA wears), and they are
//! the baselines the evaluation compares network lifetime against.
//!
//! The [`tour`] module's nearest-neighbour + 2-opt TSP heuristics are shared
//! with the attack planner in `wrsn-core`.
//!
//! # Example
//!
//! ```
//! use wrsn_net::prelude::*;
//! use wrsn_sim::prelude::*;
//! use wrsn_charge::njnp::Njnp;
//!
//! let nodes = deploy::uniform(&Region::square(60.0), 15, 2);
//! let net = Network::build(nodes, Point::new(30.0, 30.0), 25.0);
//! let mut world = World::new(net, MobileCharger::standard(Point::new(30.0, 30.0)),
//!                            WorldConfig { horizon_s: 3600.0, ..WorldConfig::default() });
//! let report = world.run(&mut Njnp::new()).expect("run");
//! assert_eq!(report.policy_name, "njnp");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edf;
pub mod njnp;
pub mod periodic;
pub mod tour;

pub use edf::EarliestDeadlineFirst;
pub use njnp::Njnp;
pub use periodic::PeriodicTsp;

use wrsn_net::NodeId;
use wrsn_sim::WorldView;

/// Seconds of service needed to refill `node` from the charger's standard
/// service distance, given its current deficit; `None` if the node is dead,
/// unknown, or out of charging range.
pub fn refill_duration_s(view: &WorldView<'_>, node: NodeId) -> Option<f64> {
    let n = view.net.node(node).ok()?;
    if !n.is_alive() {
        return None;
    }
    let model = view.charger.rig().primary().model();
    let p = model.power_at(view.charger.service_distance_m());
    if p <= 0.0 {
        return None;
    }
    // While charging, the node keeps draining; budget for that too.
    let drain = view.power_w.get(node.0).copied().unwrap_or(0.0);
    let net_in = (p - drain).max(p * 0.1);
    Some(n.battery().deficit_j() / net_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_net::prelude::*;
    use wrsn_sim::prelude::*;

    #[test]
    fn refill_duration_scales_with_deficit() {
        let nodes = deploy::uniform(&Region::square(40.0), 5, 3);
        let net = Network::build(nodes, Point::new(20.0, 20.0), 20.0);
        let charger = MobileCharger::standard(Point::new(20.0, 20.0));
        let mut world = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: 10.0,
                ..WorldConfig::default()
            },
        );
        world.set_battery_level(NodeId(0), 100.0).unwrap();
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
            horizon_s: 10.0,
            depot: None,
            radio: wrsn_net::energy::RadioEnergyModel::classical(),
        };
        let d_low = refill_duration_s(&view, NodeId(0)).unwrap();
        let d_full = refill_duration_s(&view, NodeId(1)).unwrap();
        assert!(
            d_low > d_full,
            "drained node needs longer: {d_low} vs {d_full}"
        );
        assert!(refill_duration_s(&view, NodeId(99)).is_none());
    }
}
