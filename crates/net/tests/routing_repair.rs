//! Property tests for incremental routing repair and the in-place refresh
//! around it.
//!
//! Over random deployments and random batches of simultaneous deaths, the
//! incrementally repaired [`RoutingTree`], the in-place [`TrafficLoad`] and
//! the dirty-set power update must equal the from-scratch
//! [`RoutingTree::shortest_path`], [`routing::traffic_load`] and
//! [`keynode::effective_power_draw`] results *exactly*: bitwise on parents
//! and reachability, 0 ulp on distances, loads and power. The number of
//! power entries recomputed must equal the rule the refresh replaced: every
//! affected node plus every node whose load bits changed. These tests pin
//! that in release builds too (the `debug_assert`s inside the repair and the
//! load update only guard debug builds).

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

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
        let mut twin = RoutingTree::from_value(&tree.to_value()).expect("tree round-trips");

        tree.repair_after_deaths(net, &mask, alive, &dead, &mut scratch);
        let full = RoutingTree::shortest_path(net, &mask);
        assert_tree_bitwise(&tree, &full, n);
        twin.repair_after_deaths(net, &mask, alive, &dead, &mut twin_scratch);
        assert_tree_bitwise(&twin, &full, n);

        load.update_after_repair(net, &tree, &mask, &mut scratch);
        let full_load = routing::traffic_load(net, &tree, &mask);
        assert_bits_eq("rx", &load.rx_bps, &full_load.rx_bps);
        assert_bits_eq("tx", &load.tx_bps, &full_load.tx_bps);

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        odd_rate in proptest::bool::ANY,
    ) {
        // One 512.5-bps node makes the rate sums inexact, which sends every
        // refresh through the full recompute; it must match all the same.
        let nodes: Vec<SensorNode> = deploy::uniform(&Region::square(100.0), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, node)| if odd_rate && i == n / 2 { node.with_sensing_rate(512.5) } else { node })
            .collect();
        let net = Network::build(nodes, Point::new(50.0, 50.0), range);
        prop_assert_eq!(net.rate_sums_are_exact(), !odd_rate);
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

/// Every refresh of a network with one fractional rate takes the full
/// recompute, and still matches.
#[test]
fn fractional_rate_takes_the_full_path() {
    let nodes: Vec<SensorNode> = deploy::uniform(&Region::square(100.0), 50, 3)
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            if i == 7 {
                node.with_sensing_rate(512.5)
            } else {
                node
            }
        })
        .collect();
    let net = Network::build(nodes, Point::new(50.0, 50.0), 25.0);
    assert!(!net.rate_sums_are_exact());
    check_death_batches(&net, &[vec![7], vec![1, 2, 3], vec![40]]);
}
