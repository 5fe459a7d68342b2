//! Property test: the struct-of-arrays battery columns mirror [`Battery`]
//! bit for bit.
//!
//! The simulation's segment kernel drains and charges batteries through
//! [`wrsn_net::EnergyColumnsMut`] rather than per-node [`Battery`] values,
//! and its documentation promises the column ops are exact copies of the
//! battery ops. Random `discharge`/`charge`/`set_level` sequences, spread
//! over several nodes with different capacities and thresholds, must give
//! bitwise-equal return values, levels, depletion latches and
//! `needs_charging` flags on both sides.

use proptest::prelude::*;

use wrsn_net::energy::Battery;
use wrsn_net::{Network, NodeId, Point, SensorNode};

/// Decodes one generated `(kind, source, x)` triple into an op kind and an
/// amount. Sources 4 and 5 scale with the node's current level, so sequences
/// hit exact depletion and exact saturation, not just the interior.
fn amount(source: u8, x: f64, level_j: f64) -> f64 {
    match source {
        0 => -100.0 + 200.0 * x,
        1 => 20_000.0 * x,
        2 => 0.0,
        3 => -0.0,
        4 => 1.5 * x * level_j,
        _ => level_j,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_ops_match_battery_ops_bitwise(
        cells in prop::collection::vec((1.0..20_000.0f64, 0.0..1.0f64, 0.0..1.0f64), 1..6),
        steps in prop::collection::vec((0usize..64, 0u8..3, 0u8..6, 0.0..1.0f64), 1..120),
    ) {
        let mut batteries: Vec<Battery> = cells
            .iter()
            .map(|&(capacity, warn, level)| {
                let mut b = Battery::new(capacity, capacity * warn);
                b.set_level(capacity * level);
                b
            })
            .collect();
        let n = batteries.len();
        let nodes = batteries
            .iter()
            .enumerate()
            .map(|(i, &b)| SensorNode::with_battery(Point::new(5.0 * i as f64, 0.0), b))
            .collect();
        let mut net = Network::build(nodes, Point::new(0.0, 0.0), 10.0);
        let mut cols = net.energy_mut();
        for (k, &(node, kind, source, x)) in steps.iter().enumerate() {
            let i = node % n;
            let b = &mut batteries[i];
            let e = amount(source, x, b.level_j());
            let (want, got) = match kind {
                0 => (b.discharge(e), cols.discharge(i, e)),
                1 => (b.charge(e), cols.charge(i, e)),
                _ => {
                    b.set_level(e);
                    cols.set_level(i, e);
                    (0.0, 0.0)
                }
            };
            prop_assert_eq!(want.to_bits(), got.to_bits(), "step {} {:?}: return value", k, steps[k]);
            for (j, b) in batteries.iter().enumerate() {
                prop_assert_eq!(
                    b.level_j().to_bits(),
                    cols.level_j[j].to_bits(),
                    "step {} node {}: level",
                    k,
                    j
                );
                prop_assert_eq!(b.is_depleted(), cols.depleted[j], "step {} node {}: depleted", k, j);
                prop_assert_eq!(
                    b.needs_charging(),
                    cols.needs_charging(j),
                    "step {} node {}: needs_charging",
                    k,
                    j
                );
            }
        }
        // The materialised node view reads the same columns back.
        for (i, b) in batteries.iter().enumerate() {
            let node = net.node(NodeId(i)).expect("node in range");
            prop_assert_eq!(node.battery(), b);
        }
    }
}
