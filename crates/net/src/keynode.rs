//! Key-node identification.
//!
//! *Key nodes* are the nodes whose exhaustion hurts the network most: cut
//! vertices (their death partitions the graph) and high-traffic relays (their
//! death severs many routes and strands the most data). These are exactly the
//! targets the Charging Spoofing Attack goes after; the paper's headline
//! metric is the fraction of key nodes the attacker exhausts.

use serde::{Deserialize, Serialize};

use crate::energy::RadioEnergyModel;
use crate::graph::Network;
use crate::node::NodeId;
use crate::routing::{self, RoutingTree};

/// Why a node was classified as key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyReason {
    /// Removing the node disconnects the communication graph.
    CutVertex,
    /// The node is among the top traffic relays.
    TrafficHub,
    /// Both a cut vertex and a traffic hub.
    Both,
}

/// A key node with its criticality weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyNode {
    /// The node's id.
    pub id: NodeId,
    /// Why the node is key.
    pub reason: KeyReason,
    /// Criticality weight (≥ 1): the number of nodes stranded from the sink if
    /// this node dies, normalised by network size, plus a betweenness term.
    /// Used as the attack's per-victim utility.
    pub weight: f64,
}

/// Configuration for key-node identification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyNodeConfig {
    /// Fraction of nodes (by betweenness rank) labelled traffic hubs.
    pub hub_fraction: f64,
    /// Include cut vertices regardless of rank.
    pub include_cut_vertices: bool,
    /// Largest network for which the exact pipeline (Brandes betweenness,
    /// Tarjan articulation points, [`stranded_counts`]) runs.
    /// Beyond this, [`identify_with_mask`] switches to the near-linear
    /// approximation: hubs ranked by relayed traffic on the routing tree,
    /// cut vertices skipped. The default never approximates.
    pub max_exact_nodes: usize,
}

impl Default for KeyNodeConfig {
    fn default() -> Self {
        KeyNodeConfig {
            hub_fraction: 0.1,
            include_cut_vertices: true,
            max_exact_nodes: usize::MAX,
        }
    }
}

/// Number of alive nodes stranded from the sink if `victim` dies.
///
/// The one-node reference for [`stranded_counts`]: two full shortest-path
/// builds, with and without the victim.
pub fn stranded_if_dead(net: &Network, mask: &[bool], victim: NodeId) -> usize {
    let before = RoutingTree::shortest_path(net, mask).reachable_count();
    let mut m = mask.to_vec();
    if victim.0 < m.len() {
        m[victim.0] = false;
    }
    let after = RoutingTree::shortest_path(net, &m).reachable_count();
    // The victim itself no longer counts as reachable; subtract it out.
    before.saturating_sub(after).saturating_sub(1)
}

/// [`stranded_if_dead`] for every node at once, in O(n + m).
///
/// One iterative low-link DFS runs from a virtual sink joined to every
/// alive sink neighbour, so each sink neighbour has a back edge to the root
/// and starts with `low = 0`. Removing node `v` cuts off from the sink
/// exactly the DFS subtrees of its children `c` with `low[c] ≥ disc[v]`, so
/// `v` strands the sum of their sizes. Masked-out nodes and nodes that
/// cannot reach the sink strand nothing.
///
/// # Panics
///
/// Panics if `mask.len() != net.node_count()`.
pub fn stranded_counts(net: &Network, mask: &[bool]) -> Vec<usize> {
    net.assert_mask_len(mask);
    const UNSEEN: usize = usize::MAX;
    let n = net.node_count();
    let mut sink_adjacent = vec![false; n];
    for s in net.sink_neighbors() {
        sink_adjacent[s.0] = true;
    }
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut size = vec![1usize; n];
    let mut stranded = vec![0usize; n];
    // The virtual sink holds discovery time 0.
    let mut timer = 1usize;
    // Stack frames: (vertex, next-neighbour-index).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in net.sink_neighbors() {
        if !mask[root.0] || disc[root.0] != UNSEEN {
            continue;
        }
        disc[root.0] = timer;
        timer += 1;
        stack.push((root.0, 0));
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            let row = net.neighbors(NodeId(u));
            if let Some(v) = row.get(*idx) {
                *idx += 1;
                let v = v.0;
                if !mask[v] {
                    continue;
                }
                if disc[v] == UNSEEN {
                    disc[v] = timer;
                    low[v] = if sink_adjacent[v] { 0 } else { timer };
                    timer += 1;
                    stack.push((v, 0));
                } else {
                    // Includes the tree edge to the parent, which cannot
                    // lower `low[u]` below `disc[parent]` and so never
                    // changes a cut test.
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    size[p] += size[u];
                    if low[u] >= disc[p] {
                        stranded[p] += size[u];
                    }
                }
            }
        }
    }
    stranded
}

/// Identifies the key nodes of the subgraph induced by the alive mask.
///
/// Returns key nodes sorted by descending weight. Weights combine the number
/// of nodes stranded by the victim's death with its (normalised) betweenness,
/// so every key node has `weight ≥ 1`.
///
/// # Example
///
/// ```
/// use wrsn_net::prelude::*;
///
/// let (region, nodes) = deploy::corridor(12, 4, 1);
/// let sink = Point::new(10.0, 50.0);
/// let net = Network::build(nodes, sink, 30.0);
/// let keys = keynode::identify(&net, &KeyNodeConfig::default());
/// assert!(!keys.is_empty());
/// # let _ = region;
/// ```
pub fn identify(net: &Network, config: &KeyNodeConfig) -> Vec<KeyNode> {
    let mask = net.alive_mask();
    identify_with_mask(net, &mask, config)
}

/// [`identify`] over an explicit alive mask.
///
/// # Panics
///
/// Panics if `mask.len() != net.node_count()`.
#[allow(clippy::needless_range_loop)] // index form mirrors the matrix math
pub fn identify_with_mask(net: &Network, mask: &[bool], config: &KeyNodeConfig) -> Vec<KeyNode> {
    net.assert_mask_len(mask);
    let n = net.node_count();
    if n == 0 {
        return Vec::new();
    }
    if n > config.max_exact_nodes {
        let tree = RoutingTree::shortest_path(net, mask);
        return identify_approx(net, mask, &tree, config);
    }
    let cuts: std::collections::HashSet<NodeId> = if config.include_cut_vertices {
        net.articulation_points(mask).into_iter().collect()
    } else {
        std::collections::HashSet::new()
    };

    let cb = net.betweenness(mask);
    let max_cb = cb.iter().cloned().fold(0.0f64, f64::max);
    let mut ranked: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
    ranked.sort_by(|&a, &b| {
        cb[b]
            .partial_cmp(&cb[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let hub_count = ((n as f64 * config.hub_fraction).ceil() as usize).min(ranked.len());
    let hubs: std::collections::HashSet<NodeId> = ranked[..hub_count]
        .iter()
        .copied()
        .filter(|&i| cb[i] > 0.0)
        .map(NodeId)
        .collect();

    let stranded = stranded_counts(net, mask);
    let mut out = Vec::new();
    for i in 0..n {
        let id = NodeId(i);
        let is_cut = cuts.contains(&id);
        let is_hub = hubs.contains(&id);
        if !is_cut && !is_hub {
            continue;
        }
        let reason = match (is_cut, is_hub) {
            (true, true) => KeyReason::Both,
            (true, false) => KeyReason::CutVertex,
            _ => KeyReason::TrafficHub,
        };
        let cb_norm = if max_cb > 0.0 { cb[i] / max_cb } else { 0.0 };
        out.push(KeyNode {
            id,
            reason,
            weight: 1.0 + stranded[i] as f64 + cb_norm,
        });
    }
    out.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    out
}

/// [`identify_with_mask`] given the routing tree of `mask`, which must
/// equal `RoutingTree::shortest_path(net, mask)`, as a live simulator's
/// tree does. The approximation then ranks on that tree instead of building
/// its own; the exact pipeline does not use a tree and is unchanged.
///
/// # Panics
///
/// Panics if `mask.len() != net.node_count()`.
pub fn identify_with_tree(
    net: &Network,
    mask: &[bool],
    tree: &RoutingTree,
    config: &KeyNodeConfig,
) -> Vec<KeyNode> {
    net.assert_mask_len(mask);
    if net.node_count() > config.max_exact_nodes {
        identify_approx(net, mask, tree, config)
    } else {
        identify_with_mask(net, mask, config)
    }
}

/// Near-linear key-node identification for networks past
/// [`KeyNodeConfig::max_exact_nodes`]: the routing tree of `mask` ranks
/// alive nodes by relayed inbound traffic — the quantity betweenness is a
/// proxy for in a sink-rooted WRSN — and the top `hub_fraction` become hubs
/// with `weight = 1 + rx / max_rx`. Cut vertices and stranded counts are
/// skipped: the approximation ranks by relayed traffic alone.
fn identify_approx(
    net: &Network,
    mask: &[bool],
    tree: &RoutingTree,
    config: &KeyNodeConfig,
) -> Vec<KeyNode> {
    let n = net.node_count();
    let load = routing::traffic_load(net, tree, mask);
    let mut ranked: Vec<usize> = (0..n)
        .filter(|&i| mask.get(i).copied().unwrap_or(false) && load.rx_bps[i] > 0.0)
        .collect();
    ranked.sort_by(|&a, &b| {
        load.rx_bps[b]
            .partial_cmp(&load.rx_bps[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    let hub_count = ((n as f64 * config.hub_fraction).ceil() as usize).min(ranked.len());
    let max_rx = ranked.first().map(|&i| load.rx_bps[i]).unwrap_or(0.0);
    let mut out: Vec<KeyNode> = ranked[..hub_count]
        .iter()
        .map(|&i| KeyNode {
            id: NodeId(i),
            reason: KeyReason::TrafficHub,
            weight: 1.0
                + if max_rx > 0.0 {
                    load.rx_bps[i] / max_rx
                } else {
                    0.0
                },
        })
        .collect();
    out.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    out
}

/// Steady-state power draw (W) of each node under `mask`: relay power over
/// the hop to its parent (or the sink) for routed nodes, nothing for
/// masked-out ones, and the *disconnected-drain floor* for alive nodes
/// that cannot reach the sink. Those still idle-listen and beacon their
/// sensed data at full range looking for a route, so they drain
/// `idle + tx(sensing_rate, comm_range)` rather than nothing. This is the
/// drain model the simulator itself uses; depletion predictions (and the
/// attack's time windows) must match it, or stranded key nodes become
/// invisible to the planner.
pub fn effective_power_draw(net: &Network, mask: &[bool], radio: &RadioEnergyModel) -> Vec<f64> {
    let tree = RoutingTree::shortest_path(net, mask);
    let load = routing::traffic_load(net, &tree, mask);
    effective_power_draw_with_tree(net, mask, radio, &tree, &load)
}

/// [`effective_power_draw`] from a precomputed routing tree and traffic load
/// — the hot-path variant. The simulator keeps both current across topology
/// changes, so a refresh no longer pays for a second shortest-path build.
pub fn effective_power_draw_with_tree(
    net: &Network,
    mask: &[bool],
    radio: &RadioEnergyModel,
    tree: &RoutingTree,
    load: &routing::TrafficLoad,
) -> Vec<f64> {
    (0..net.node_count())
        .map(|i| effective_node_power(net, mask, radio, tree, load, i))
        .collect()
}

/// Effective power draw of a single node: relay power over the hop to its
/// parent when routed, the disconnected-drain floor when alive but stranded,
/// nothing when dead. Pure in `(mask, aliveness, parent, reachability, load)`
/// — recomputing it with unchanged inputs reproduces the exact same bits,
/// which is what lets [`update_effective_power`] skip untouched nodes.
pub fn effective_node_power(
    net: &Network,
    mask: &[bool],
    radio: &RadioEnergyModel,
    tree: &RoutingTree,
    load: &routing::TrafficLoad,
    i: usize,
) -> f64 {
    let masked_in = mask.get(i).copied().unwrap_or(false);
    let id = NodeId(i);
    if masked_in && tree.is_reachable(id) {
        let hop = match tree.parent(id) {
            Some(p) => net.positions()[i].distance(net.positions()[p.0]),
            None => net.positions()[i].distance(net.sink()),
        };
        radio.relay_power(load.rx_bps[i], load.tx_bps[i], hop)
    } else if masked_in && net.alive(i) {
        radio.idle_w + radio.tx_energy(net.sensing_rates_bps()[i], net.comm_range())
    } else {
        0.0
    }
}

/// Updates `power` in place after an incremental routing repair: only the
/// nodes in `dirty` are recomputed — [`routing::RepairScratch::dirty`]: the
/// affected set plus every node whose load bits changed. Every other entry
/// is bitwise-stable because its inputs are unchanged. Returns the number of
/// entries recomputed.
pub fn update_effective_power(
    net: &Network,
    mask: &[bool],
    radio: &RadioEnergyModel,
    tree: &RoutingTree,
    load: &routing::TrafficLoad,
    dirty: impl IntoIterator<Item = usize>,
    power: &mut [f64],
) -> usize {
    let mut recomputed = 0;
    for i in dirty {
        power[i] = effective_node_power(net, mask, radio, tree, load, i);
        recomputed += 1;
    }
    recomputed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;
    use crate::geom::{Point, Region};
    use crate::node::SensorNode;

    fn corridor_net() -> Network {
        let (_, nodes) = deploy::corridor(12, 4, 7);
        Network::build(nodes, Point::new(10.0, 50.0), 30.0)
    }

    #[test]
    fn corridor_bridge_nodes_are_key() {
        let net = corridor_net();
        let keys = identify(&net, &KeyNodeConfig::default());
        assert!(!keys.is_empty());
        // Bridge nodes are ids 24..28 (after 2×12 cluster nodes).
        let bridge_keys = keys.iter().filter(|k| k.id.0 >= 24).count();
        assert!(bridge_keys >= 2, "keys = {keys:?}");
    }

    #[test]
    fn weights_are_sorted_descending_and_at_least_one() {
        let net = corridor_net();
        let keys = identify(&net, &KeyNodeConfig::default());
        for w in keys.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        assert!(keys.iter().all(|k| k.weight >= 1.0));
    }

    #[test]
    fn stranded_counts_far_cluster() {
        let net = corridor_net();
        let mask = net.alive_mask();
        // Killing a mid-bridge node strands the far cluster plus the rest of
        // the bridge: at least 12 nodes.
        let keys = identify(&net, &KeyNodeConfig::default());
        let best = keys[0];
        let stranded = stranded_if_dead(&net, &mask, best.id);
        assert!(stranded >= 12, "stranded = {stranded}");
    }

    #[test]
    fn stranded_counts_on_a_path() {
        // 0 - 1 - 2 - 3 - 4, 10 m apart; the sink at node 0 reaches 0 and 1.
        let nodes = (0..5)
            .map(|i| SensorNode::new(Point::new(10.0 * i as f64, 0.0)))
            .collect();
        let net = Network::build(nodes, Point::ORIGIN, 12.0);
        let mut mask = net.alive_mask();
        assert_eq!(stranded_counts(&net, &mask), vec![0, 3, 2, 1, 0]);
        mask[1] = false;
        assert_eq!(stranded_counts(&net, &mask), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "alive mask has 3 entries but the network has 28 nodes")]
    fn stranded_counts_rejects_a_short_mask() {
        stranded_counts(&corridor_net(), &[true; 3]);
    }

    #[test]
    #[should_panic(expected = "alive mask has 27 entries but the network has 28 nodes")]
    fn identify_rejects_a_short_mask() {
        identify_with_mask(&corridor_net(), &[true; 27], &KeyNodeConfig::default());
    }

    #[test]
    fn dense_uniform_net_has_few_or_no_cut_vertices() {
        let nodes = deploy::uniform(&Region::square(50.0), 80, 2);
        let net = Network::build(nodes, Point::new(25.0, 25.0), 25.0);
        let keys = identify(&net, &KeyNodeConfig::default());
        // Hubs exist but the dense net should have almost no cut vertices.
        let cut_like = keys
            .iter()
            .filter(|k| matches!(k.reason, KeyReason::CutVertex | KeyReason::Both))
            .count();
        assert!(cut_like <= 8, "cut-like = {cut_like}");
    }

    #[test]
    fn empty_network_yields_no_keys() {
        let net = Network::build(Vec::new(), Point::ORIGIN, 10.0);
        assert!(identify(&net, &KeyNodeConfig::default()).is_empty());
    }

    #[test]
    fn hub_fraction_zero_keeps_only_cut_vertices() {
        let net = corridor_net();
        let cfg = KeyNodeConfig {
            hub_fraction: 0.0,
            include_cut_vertices: true,
            ..KeyNodeConfig::default()
        };
        let keys = identify(&net, &cfg);
        assert!(keys
            .iter()
            .all(|k| matches!(k.reason, KeyReason::CutVertex | KeyReason::Both)));
    }

    #[test]
    fn power_draw_positive_for_reachable_nodes() {
        let net = corridor_net();
        let mask = net.alive_mask();
        let power = effective_power_draw(&net, &mask, &RadioEnergyModel::classical());
        let tree = RoutingTree::shortest_path(&net, &mask);
        for id in net.ids() {
            if tree.is_reachable(id) {
                assert!(power[id.0] > 0.0);
            }
        }
    }

    #[test]
    fn approx_mode_ranks_relays_and_skips_cuts() {
        let net = corridor_net();
        let mask = net.alive_mask();
        let exact = identify_with_mask(&net, &mask, &KeyNodeConfig::default());
        let approx = identify_with_mask(
            &net,
            &mask,
            &KeyNodeConfig {
                max_exact_nodes: 0,
                ..KeyNodeConfig::default()
            },
        );
        assert!(!approx.is_empty());
        assert!(approx
            .iter()
            .all(|k| matches!(k.reason, KeyReason::TrafficHub)));
        for w in approx.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        assert!(approx.iter().all(|k| (1.0..=2.0).contains(&k.weight)));
        // The heaviest relays the exact pipeline finds are still found: the
        // bridge carries everything in a corridor net.
        let exact_ids: std::collections::HashSet<NodeId> = exact.iter().map(|k| k.id).collect();
        assert!(approx.iter().take(2).any(|k| exact_ids.contains(&k.id)));
    }

    #[test]
    fn isolated_node_is_not_key() {
        let mut nodes: Vec<SensorNode> = (0..4)
            .map(|i| SensorNode::new(Point::new(5.0 * i as f64, 0.0)))
            .collect();
        nodes.push(SensorNode::new(Point::new(500.0, 500.0))); // isolated
        let net = Network::build(nodes, Point::new(0.0, 0.0), 6.0);
        let keys = identify(&net, &KeyNodeConfig::default());
        assert!(keys.iter().all(|k| k.id != NodeId(4)));
    }
}
