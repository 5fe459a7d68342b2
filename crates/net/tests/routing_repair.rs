//! Property tests for incremental routing repair and the in-place refresh
//! around it.
//!
//! Over random deployments and random batches of simultaneous deaths, the
//! incrementally repaired [`RoutingTree`], the in-place [`TrafficLoad`] and
//! the dirty-set power update must equal the from-scratch
//! [`RoutingTree::shortest_path`], [`routing::traffic_load`] and
//! [`keynode::effective_power_draw`] results *exactly*: bitwise on parents
//! and reachability, 0 ulp on distances, loads and power. The loads are
//! compared against a freshly built tree, and with non-dyadic sensing rates
//! (`1000 / 3`) the summation order shows in the bits, so this holds only
//! if repaired child lists are in the same canonical order as fresh ones.
//! With whole rates the traffic delivered to the sink must equal the
//! traffic generated, exactly. The number of power entries recomputed must
//! equal every affected node plus every node whose load bits changed.
//! These tests pin all of that in release builds too (the `debug_assert`s
//! inside the repair and the load update only guard debug builds).

use proptest::prelude::*;

use wrsn_net::energy::RadioEnergyModel;
use wrsn_net::keynode;
use wrsn_net::routing::{self, RepairScratch, RoutingTree, TrafficLoad};
use wrsn_net::{deploy, Network, NodeId, Point, Region, SensorNode};

fn assert_tree_bitwise(incr: &RoutingTree, full: &RoutingTree, n: usize) {
    for i in 0..n {
        let id = NodeId(i);
        assert_eq!(incr.parent(id), full.parent(id), "parent of node {i}");
        assert_eq!(
            incr.is_reachable(id),
            full.is_reachable(id),
            "reachability of node {i}"
        );
        assert_eq!(
            incr.dist_to_sink(id).to_bits(),
            full.dist_to_sink(id).to_bits(),
            "distance of node {i}"
        );
    }
}

fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} of node {i}: {g} vs {w}");
    }
}

/// With whole sensing rates every sum is exact, so the traffic the
/// sink-adjacent nodes deliver must equal the traffic every routed node
/// generates, bit for bit.
fn assert_conserved(net: &Network, tree: &RoutingTree, mask: &[bool], load: &TrafficLoad) {
    let rates = net.sensing_rates_bps();
    if rates.iter().any(|r| r.fract() != 0.0) {
        return;
    }
    let routed: Vec<usize> = (0..net.node_count())
        .filter(|&i| mask[i] && tree.is_reachable(NodeId(i)))
        .collect();
    let generated: f64 = routed.iter().map(|&i| rates[i]).sum();
    let delivered: f64 = routed
        .iter()
        .filter(|&&i| tree.parent(NodeId(i)).is_none())
        .map(|&i| load.tx_bps[i])
        .sum();
    assert_eq!(delivered, generated, "traffic lost on the way to the sink");
}

/// Kills each batch of nodes at once, refreshing in place after each, and
/// asserts tree, load, power and recompute count against the from-scratch
/// computation at every step. A twin tree, serde round-tripped before each
/// repair, must repair to the same tree.
fn check_death_batches(net: &Network, batches: &[Vec<usize>]) {
    let n = net.node_count();
    let radio = RadioEnergyModel::classical();
    let mut mask = vec![true; n];
    let mut tree = RoutingTree::shortest_path(net, &mask);
    let mut load: TrafficLoad = routing::traffic_load(net, &tree, &mask);
    let mut power = keynode::effective_power_draw_with_tree(net, &mask, &radio, &tree, &load);
    let mut scratch = RepairScratch::default();
    let mut twin_scratch = RepairScratch::default();
    assert_conserved(net, &tree, &mask, &load);

    for batch in batches {
        let mut dead = Vec::new();
        for &d in batch {
            let d = d % n;
            if mask[d] {
                mask[d] = false;
                dead.push(NodeId(d));
            }
        }
        if dead.is_empty() {
            continue;
        }
        let alive = mask.iter().filter(|&&a| a).count();
        let prev_load = load.clone();
        let text = serde_json::to_string(&tree).expect("finite tree");
        let mut twin: RoutingTree = serde_json::from_str(&text).expect("tree round-trips");

        tree.repair_after_deaths(net, &mask, alive, &dead, &mut scratch);
        let full = RoutingTree::shortest_path(net, &mask);
        assert_tree_bitwise(&tree, &full, n);
        twin.repair_after_deaths(net, &mask, alive, &dead, &mut twin_scratch);
        assert_tree_bitwise(&twin, &full, n);

        load.update_after_repair(net, &tree, &mask, &mut scratch);
        let full_load = routing::traffic_load(net, &full, &mask);
        assert_bits_eq("rx", &load.rx_bps, &full_load.rx_bps);
        assert_bits_eq("tx", &load.tx_bps, &full_load.tx_bps);
        let twin_load = routing::traffic_load(net, &twin, &mask);
        assert_bits_eq("twin tx", &twin_load.tx_bps, &full_load.tx_bps);
        assert_conserved(net, &tree, &mask, &load);

        let expected = (0..n)
            .filter(|&i| {
                scratch.is_affected(i)
                    || prev_load.rx_bps[i].to_bits() != full_load.rx_bps[i].to_bits()
                    || prev_load.tx_bps[i].to_bits() != full_load.tx_bps[i].to_bits()
            })
            .count();
        let recomputed = keynode::update_effective_power(
            net,
            &mask,
            &radio,
            &tree,
            &load,
            scratch.dirty(),
            &mut power,
        );
        assert_eq!(recomputed, expected, "recompute count after {dead:?}");
        let full_power = keynode::effective_power_draw(net, &mask, &radio);
        assert_bits_eq("power", &power, &full_power);
    }
}

/// Extends `batch` (ids taken modulo `n`) with a descendant of its first
/// node and with a sink neighbour, when the current tree has them. Both
/// shapes must repair in one batch: a dead node below another dead node,
/// and a dead node with no parent chain at all.
fn with_descendant_and_sink_neighbor(net: &Network, batch: &[usize]) -> Vec<usize> {
    let n = net.node_count();
    let mut out: Vec<usize> = batch.iter().map(|d| d % n).collect();
    let tree = RoutingTree::shortest_path(net, &net.alive_mask());
    let first = NodeId(out[0]);
    if let Some(below) =
        (0..n).find(|&u| u != first.0 && tree.path_to_sink(NodeId(u)).contains(&first))
    {
        out.push(below);
    }
    if let Some(s) = net.sink_neighbors().first() {
        out.push(s.0);
    }
    out
}

/// Gives every third node a sensing rate of `1000 / 3` bps, which no sum
/// of binary fractions holds exactly, so summation order shows in the bits.
fn with_fractional_rates(nodes: Vec<SensorNode>) -> Vec<SensorNode> {
    nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            if i % 3 == 0 {
                node.with_sensing_rate(1000.0 / 3.0)
            } else {
                node
            }
        })
        .collect()
}

/// Moves every second node onto the previous node's position, shifted by
/// `offset` metres along x. An offset at or below half an ulp of the
/// coordinate makes the pair coincident; slightly larger ones leave edges
/// shorter than an ulp of the distances they are added to, so a child can
/// sit at its parent's exact distance.
fn with_close_pairs(nodes: Vec<SensorNode>, offset: f64) -> Vec<SensorNode> {
    let mut positions: Vec<Point> = nodes.iter().map(SensorNode::position).collect();
    for i in (1..positions.len()).step_by(2) {
        let p = positions[i - 1];
        positions[i] = Point::new(p.x + offset, p.y);
    }
    positions.into_iter().map(SensorNode::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_repair_matches_full_rebuild(
        n in 5usize..60,
        seed in 0u64..1_000,
        range in 15.0f64..35.0,
        deaths in proptest::collection::vec(0usize..60, 1..12),
    ) {
        let nodes = deploy::uniform(&Region::square(100.0), n, seed);
        let net = Network::build(nodes, Point::new(50.0, 50.0), range);
        let singles: Vec<Vec<usize>> = deaths.iter().map(|&d| vec![d]).collect();
        check_death_batches(&net, &singles);
    }

    #[test]
    fn batched_deaths_refresh_in_place(
        n in 8usize..80,
        seed in 0u64..1_000,
        range in 15.0f64..35.0,
        batches in proptest::collection::vec(
            proptest::collection::vec(0usize..80, 1..5), 1..6),
        first_nested in proptest::bool::ANY,
        fractional in proptest::bool::ANY,
        close_pairs in 0usize..10,
    ) {
        let mut nodes = deploy::uniform(&Region::square(100.0), n, seed);
        // Half the cases move node pairs together, from coincident up to a
        // few ulps apart.
        if let Some(&offset) = [0.0, 1e-15, 4e-15, 1e-14, 6e-14].get(close_pairs) {
            nodes = with_close_pairs(nodes, offset);
        }
        if fractional {
            nodes = with_fractional_rates(nodes);
        }
        let net = Network::build(nodes, Point::new(50.0, 50.0), range);
        let mut batches = batches;
        if first_nested {
            batches[0] = with_descendant_and_sink_neighbor(&net, &batches[0]);
        }
        check_death_batches(&net, &batches);
    }
}

/// A zero-jitter grid is maximally tie-heavy: many equal distances exercise
/// the Dijkstra tie-break (`(dist, id)` pop order) that the repair must
/// reproduce exactly.
#[test]
fn repair_preserves_tie_breaks_on_exact_grid() {
    let nodes = deploy::grid(&Region::square(60.0), 5, 5, 0.0, 0);
    let net = Network::build(nodes, Point::new(30.0, 30.0), 20.0);
    let singles: Vec<Vec<usize>> = [12, 6, 18, 0, 24, 7, 11, 13, 17]
        .iter()
        .map(|&d| vec![d])
        .collect();
    check_death_batches(&net, &singles);
}

/// A batch holding a relay, one of its descendants and a sink neighbour,
/// on a fixed deployment where all three exist.
#[test]
fn nested_and_sink_adjacent_deaths_in_one_batch() {
    let nodes = deploy::uniform(&Region::square(100.0), 60, 11);
    let net = Network::build(nodes, Point::new(50.0, 50.0), 22.0);
    let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
    // The parent of a node three or more hops out: a relay with a parent
    // of its own, so not a sink neighbour.
    let relay = (0..60)
        .map(|u| tree.path_to_sink(NodeId(u)))
        .find(|path| path.len() >= 3)
        .expect("a node three hops out")[1]
        .0;
    let batch = with_descendant_and_sink_neighbor(&net, &[relay]);
    assert_eq!(batch.len(), 3, "relay, descendant and sink neighbour");
    check_death_batches(&net, &[batch, vec![5, 17], vec![33]]);
}

/// Non-dyadic rates on a fixed deployment: the in-place load must still
/// equal the load of a freshly built tree bit for bit.
#[test]
fn fractional_rates_match_the_full_pass() {
    let nodes = with_fractional_rates(deploy::uniform(&Region::square(100.0), 50, 3));
    let net = Network::build(nodes, Point::new(50.0, 50.0), 25.0);
    check_death_batches(&net, &[vec![7], vec![1, 2, 3], vec![40]]);
}

/// A close pair that leaves node 29 routed through node 28 at node 28's
/// exact distance: an edge that a load summed in distance order meets
/// parent first. Killing the pair's parent, then each of the pair, must
/// refresh in place and keep the loads conserved, for whole and
/// non-dyadic rates.
#[test]
fn an_equal_distance_edge_refreshes_in_place() {
    let nodes = with_close_pairs(deploy::uniform(&Region::square(100.0), 60, 6), 4e-15);
    for nodes in [nodes.clone(), with_fractional_rates(nodes)] {
        let net = Network::build(nodes, Point::new(50.0, 50.0), 25.0);
        let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
        assert_eq!(tree.parent(NodeId(29)), Some(NodeId(28)));
        assert_eq!(
            tree.dist_to_sink(NodeId(29)).to_bits(),
            tree.dist_to_sink(NodeId(28)).to_bits()
        );
        let above = tree.parent(NodeId(28)).expect("node 28 relays").0;
        check_death_batches(&net, &[vec![above], vec![29], vec![28]]);
    }
}
