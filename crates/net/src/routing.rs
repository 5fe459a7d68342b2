//! Data-gathering routing and per-node energy consumption.
//!
//! Nodes route sensed data to the sink along a shortest-path tree (Euclidean
//! edge weights, computed with a virtual sink source). The tree determines
//! each node's relayed traffic, and with the radio model, its *power draw* —
//! which is what the attacker needs to predict when each victim will die.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::energy::RadioEnergyModel;
use crate::graph::Network;
use crate::node::NodeId;

/// A shortest-path data-gathering tree rooted (virtually) at the sink.
///
/// # Example
///
/// ```
/// use wrsn_net::prelude::*;
///
/// let nodes = deploy::uniform(&Region::square(80.0), 30, 3);
/// let net = Network::build(nodes, Point::new(40.0, 40.0), 25.0);
/// let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
/// for id in net.ids() {
///     if tree.is_reachable(id) {
///         assert!(tree.dist_to_sink(id).is_finite());
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTree {
    /// Next hop toward the sink; `None` for sink-adjacent nodes (they deliver
    /// directly) and for unreachable nodes.
    parent: Vec<Option<NodeId>>,
    /// Shortest distance to the sink (m); `INFINITY` if unreachable.
    dist: Vec<f64>,
    /// Whether each node can reach the sink at all.
    reachable: Vec<bool>,
}

// Hand-written impls because `dist` holds `INFINITY` for unreachable nodes
// and JSON has no non-finite numbers: infinite entries round-trip as `null`.
impl Serialize for RoutingTree {
    fn to_value(&self) -> serde::Value {
        let dist: Vec<Option<f64>> = self
            .dist
            .iter()
            .map(|&d| if d.is_finite() { Some(d) } else { None })
            .collect();
        serde::Value::Map(vec![
            ("parent".to_string(), self.parent.to_value()),
            ("dist".to_string(), dist.to_value()),
            ("reachable".to_string(), self.reachable.to_value()),
        ])
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let mut map = serde::json::MapWriter::new(out);
        map.field("parent", &self.parent)?;
        let dist = map.key("dist");
        dist.push('[');
        for (i, &d) in self.dist.iter().enumerate() {
            if i > 0 {
                dist.push(',');
            }
            if d.is_finite() {
                serde::json::write_f64(d, dist)?;
            } else {
                dist.push_str("null");
            }
        }
        dist.push(']');
        map.field("reachable", &self.reachable)?;
        map.end();
        Ok(())
    }
}

impl Deserialize for RoutingTree {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "RoutingTree"))?;
        let dist: Vec<Option<f64>> = Deserialize::from_value(serde::map_get(entries, "dist")?)?;
        Ok(RoutingTree {
            parent: Deserialize::from_value(serde::map_get(entries, "parent")?)?,
            dist: dist
                .into_iter()
                .map(|d| d.unwrap_or(f64::INFINITY))
                .collect(),
            reachable: Deserialize::from_value(serde::map_get(entries, "reachable")?)?,
        })
    }
}

impl RoutingTree {
    /// Builds the shortest-path tree over the subgraph induced by `mask`.
    pub fn shortest_path(net: &Network, mask: &[bool]) -> Self {
        let n = net.node_count();
        let mut tree = RoutingTree {
            parent: vec![None; n],
            dist: vec![f64::INFINITY; n],
            reachable: Vec::new(),
        };
        let mut heap = BinaryHeap::new();
        tree.seed_sink_neighbors(net, |s| mask.get(s).copied().unwrap_or(false), &mut heap);
        tree.settle(net, mask, &mut heap, usize::MAX);
        tree.reachable = tree.dist.iter().map(|d| d.is_finite()).collect();
        tree
    }

    /// Pushes every sink neighbour `s` with `include(s)` at its direct
    /// distance to the sink.
    fn seed_sink_neighbors(
        &mut self,
        net: &Network,
        include: impl Fn(usize) -> bool,
        heap: &mut Heap,
    ) {
        for &s in net.sink_neighbors() {
            if !include(s.0) {
                continue;
            }
            let d0 = net.positions()[s.0].distance(net.sink());
            if d0 < self.dist[s.0] {
                self.dist[s.0] = d0;
                heap.push(key(d0, s.0));
            }
        }
    }

    /// Dijkstra from whatever `heap` holds over the subgraph induced by
    /// `mask`, relaxing the edge lengths precomputed in the topology.
    /// Returns the number of nodes settled, or `None` once more than
    /// `budget` settles would be needed (the tree is then half-relaxed).
    fn settle(
        &mut self,
        net: &Network,
        mask: &[bool],
        heap: &mut Heap,
        budget: usize,
    ) -> Option<usize> {
        let mut settled = 0usize;
        while let Some(Reverse((bits, v))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > self.dist[v] {
                continue;
            }
            settled += 1;
            if settled > budget {
                return None;
            }
            let (nbrs, lens) = net.neighbors_with_len(NodeId(v));
            for (&u, &w) in nbrs.iter().zip(lens) {
                if !mask[u.0] {
                    continue;
                }
                let nd = d + w;
                if nd < self.dist[u.0] {
                    self.dist[u.0] = nd;
                    self.parent[u.0] = Some(NodeId(v));
                    heap.push(key(nd, u.0));
                }
            }
        }
        Some(settled)
    }

    /// Repairs the tree in place after the nodes in `dead` left the alive
    /// set, touching only the invalidated subtrees instead of rebuilding from
    /// scratch.
    ///
    /// The *affected* set — the dead nodes plus their routing-tree
    /// descendants — is the only part of the tree a death can change: every
    /// other node keeps a shortest path that avoids the dead nodes, and its
    /// distance, parent and reachability (including Dijkstra tie-breaks) are
    /// provably bit-identical to a full [`RoutingTree::shortest_path`] run
    /// over the shrunken mask. Affected nodes are re-relaxed from the
    /// frontier: their alive, still-routed neighbours re-enter the heap at
    /// their existing distances, so pops interleave in the same global
    /// `(dist, id)` order a full build would produce.
    ///
    /// `mask` must already exclude the dead nodes. `affected` is an output
    /// buffer (reused across calls) set to the affected mask; callers use it
    /// to limit downstream power-draw recomputation. When a death
    /// invalidates most of the tree the repair falls back to a full rebuild
    /// (same result, cheaper) and reports it.
    ///
    /// Debug builds re-run the full computation and assert bitwise equality
    /// — the equality harness backing the `routing_repair` property tests.
    pub fn repair_after_deaths(
        &mut self,
        net: &Network,
        mask: &[bool],
        dead: &[NodeId],
        affected: &mut Vec<bool>,
    ) -> RepairReport {
        self.repair_after_deaths_budgeted(net, mask, dead, affected, None)
    }

    /// [`RoutingTree::repair_after_deaths`] with an explicit relaxation
    /// budget (`None` = the default `max(alive / 2, 4096)`). Exposed for the
    /// budget-fallback unit tests; production callers use the default.
    #[allow(clippy::needless_range_loop)] // `affected` co-indexes self.dist/parent/reachable
    fn repair_after_deaths_budgeted(
        &mut self,
        net: &Network,
        mask: &[bool],
        dead: &[NodeId],
        affected: &mut Vec<bool>,
        budget_override: Option<usize>,
    ) -> RepairReport {
        let n = net.node_count();
        debug_assert_eq!(self.dist.len(), n);
        affected.clear();
        affected.resize(n, false);

        // Classify every node: 0 = unknown, 1 = clean, 2 = affected,
        // 3 = on the current walk. Affected = dead ∪ descendants, found by
        // memoized parent-chain walks (O(n) amortized).
        let mut status = vec![0u8; n];
        for &d in dead {
            if d.0 < n {
                status[d.0] = 2;
            }
        }
        let mut path = Vec::new();
        for i in 0..n {
            if status[i] != 0 {
                continue;
            }
            path.clear();
            let mut cur = i;
            let verdict = loop {
                match status[cur] {
                    1 => break 1,
                    2 => break 2,
                    3 => break 1, // defensive: parent pointers form a forest
                    _ => {}
                }
                status[cur] = 3;
                path.push(cur);
                match self.parent[cur] {
                    Some(p) => cur = p.0,
                    // Chain root: sink-adjacent or unreachable — both keep
                    // their state when other nodes die.
                    None => break 1,
                }
            };
            for &v in &path {
                status[v] = verdict;
            }
        }
        let mut affected_count = 0usize;
        let mut alive_count = 0usize;
        for i in 0..n {
            if status[i] == 2 {
                affected[i] = true;
                affected_count += 1;
            }
            if mask.get(i).copied().unwrap_or(false) {
                alive_count += 1;
            }
        }

        // A death that guts most of the tree is repaired fastest by simply
        // rebuilding; the result is identical either way.
        if 2 * affected_count > alive_count {
            *self = RoutingTree::shortest_path(net, mask);
            return RepairReport {
                relaxed: 0,
                full_rebuild: true,
            };
        }

        for i in 0..n {
            if affected[i] {
                self.dist[i] = f64::INFINITY;
                self.parent[i] = None;
            }
        }
        let mut heap = BinaryHeap::new();
        // Re-seed affected sink-neighbours exactly as the full build does.
        self.seed_sink_neighbors(
            net,
            |s| affected[s] && mask.get(s).copied().unwrap_or(false),
            &mut heap,
        );
        // Frontier donors: clean, alive, routed neighbours of affected alive
        // nodes re-enter the heap at their final distances. Their own state
        // cannot improve (their distances are already shortest), but they
        // re-relax the affected region in full-build pop order.
        let mut seeded = vec![false; n];
        for i in 0..n {
            if !affected[i] || !mask[i] {
                continue;
            }
            for &u in net.neighbors(NodeId(i)) {
                if affected[u.0] || seeded[u.0] || !mask[u.0] || !self.dist[u.0].is_finite() {
                    continue;
                }
                seeded[u.0] = true;
                heap.push(key(self.dist[u.0], u.0));
            }
        }
        // Relaxation budget: the affected-fraction gate above bounds the
        // *invalidated* region, but frontier donors can still blow the
        // re-relaxation up to a large multiple of it at scale (13.2M settles
        // across a 1M-node run before this bound existed). Past the budget a
        // full rebuild is cheaper — and identical, full build being the
        // semantic reference — so abandon the repair mid-relax; the rebuild
        // overwrites all distance/parent/reachability state wholesale. Each
        // non-stale pop settles a node at its final distance once, so
        // `relaxed <= alive_count`: with the 4096 floor the budget can only
        // trigger above 4096 alive nodes, leaving the paper-scale figure
        // experiments (and their golden traces) untouched.
        let budget = budget_override.unwrap_or_else(|| (alive_count / 2).max(4096));
        let Some(relaxed) = self.settle(net, mask, &mut heap, budget) else {
            *self = RoutingTree::shortest_path(net, mask);
            return RepairReport {
                relaxed: 0,
                full_rebuild: true,
            };
        };
        for i in 0..n {
            if affected[i] {
                self.reachable[i] = self.dist[i].is_finite();
            }
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            self.bitwise_eq(&RoutingTree::shortest_path(net, mask)),
            "incremental routing repair diverged from the full recomputation"
        );
        RepairReport {
            relaxed,
            full_rebuild: false,
        }
    }

    /// Exact (bitwise on distances) equality — the repair harness oracle.
    #[cfg(debug_assertions)]
    fn bitwise_eq(&self, other: &RoutingTree) -> bool {
        self.parent == other.parent
            && self.reachable == other.reachable
            && self
                .dist
                .iter()
                .zip(&other.dist)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Next hop of `id` toward the sink (`None` = delivers directly to the
    /// sink, or is unreachable — check [`RoutingTree::is_reachable`]).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent.get(id.0).copied().flatten()
    }

    /// Shortest distance from `id` to the sink, metres (`INFINITY` if
    /// unreachable).
    pub fn dist_to_sink(&self, id: NodeId) -> f64 {
        self.dist.get(id.0).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether `id` can reach the sink.
    pub fn is_reachable(&self, id: NodeId) -> bool {
        self.reachable.get(id.0).copied().unwrap_or(false)
    }

    /// Number of nodes that can reach the sink.
    pub fn reachable_count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }

    /// The hop path from `id` to the sink (inclusive of `id`, exclusive of the
    /// sink); empty if unreachable.
    pub fn path_to_sink(&self, id: NodeId) -> Vec<NodeId> {
        if !self.is_reachable(id) {
            return Vec::new();
        }
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }
}

/// Outcome of [`RoutingTree::repair_after_deaths`].
#[derive(Debug, Clone, Copy)]
pub struct RepairReport {
    /// Nodes settled by the incremental re-relaxation (frontier donors plus
    /// re-routed affected nodes); `0` when a full rebuild ran instead.
    pub relaxed: usize,
    /// Whether the repair fell back to a full rebuild because the deaths
    /// invalidated most of the tree.
    pub full_rebuild: bool,
}

/// Per-node traffic derived from a routing tree, bits per second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficLoad {
    /// Inbound relayed traffic per node, b/s.
    pub rx_bps: Vec<f64>,
    /// Outbound traffic (own sensing + relayed) per node, b/s.
    pub tx_bps: Vec<f64>,
}

/// Computes each node's steady-state traffic under `tree`.
///
/// Unreachable or masked-out nodes carry no traffic.
pub fn traffic_load(net: &Network, tree: &RoutingTree, mask: &[bool]) -> TrafficLoad {
    let n = net.node_count();
    let mut rx = vec![0.0; n];
    let mut tx = vec![0.0; n];

    // Process nodes farthest-first so children are accumulated before
    // parents, ties by ascending id. Reachable distances are finite and
    // non-negative, so `!dist.to_bits()` orders them farthest-first.
    let mut order: Vec<(u64, usize)> = (0..n)
        .filter(|&i| mask.get(i).copied().unwrap_or(false) && tree.is_reachable(NodeId(i)))
        .map(|i| (!tree.dist[i].to_bits(), i))
        .collect();
    order.sort_unstable();
    for &(_, i) in &order {
        tx[i] += net.sensing_rates_bps()[i];
        if let Some(p) = tree.parent(NodeId(i)) {
            rx[p.0] += tx[i];
            tx[p.0] += tx[i];
        }
    }
    TrafficLoad {
        rx_bps: rx,
        tx_bps: tx,
    }
}

/// Steady-state power draw of every node (W): relay traffic over the hop to
/// its parent (or the sink for sink-adjacent nodes) plus idle power.
///
/// Dead/unreachable nodes draw nothing (their radios are down or they have
/// nothing to send — the conservative choice for lifetime estimates is made
/// in `wrsn-sim`, which still drains idle power from alive-but-disconnected
/// nodes).
#[allow(clippy::needless_range_loop)] // index form mirrors the matrix math
pub fn node_power(
    net: &Network,
    tree: &RoutingTree,
    load: &TrafficLoad,
    radio: &RadioEnergyModel,
    mask: &[bool],
) -> Vec<f64> {
    let n = net.node_count();
    let mut out = vec![0.0; n];
    for i in 0..n {
        if !mask.get(i).copied().unwrap_or(false) || !tree.is_reachable(NodeId(i)) {
            continue;
        }
        let hop = match tree.parent(NodeId(i)) {
            Some(p) => net.positions()[i].distance(net.positions()[p.0]),
            None => net.positions()[i].distance(net.sink()),
        };
        out[i] = radio.relay_power(load.rx_bps[i], load.tx_bps[i], hop);
    }
    out
}

/// Dijkstra's min-heap of `(distance bits, node)` keys.
type Heap = BinaryHeap<Reverse<(u64, usize)>>;

/// Heap key of node `v` at distance `d`. Distances are finite and
/// non-negative, where `to_bits` is monotone, so keys pop in `(d, v)` order
/// with the lowest id first among equal distances.
#[inline]
fn key(d: f64, v: usize) -> Reverse<(u64, usize)> {
    Reverse((d.to_bits(), v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;
    use crate::node::SensorNode;

    /// Path 0-1-2-3-4 with sink next to node 0.
    fn path_net() -> Network {
        let nodes = (0..5)
            .map(|i| SensorNode::new(Point::new(10.0 * (i + 1) as f64, 0.0)))
            .collect();
        Network::build(nodes, Point::new(0.0, 0.0), 12.0)
    }

    #[test]
    fn tree_points_toward_sink() {
        let net = path_net();
        let mask = net.alive_mask();
        let tree = RoutingTree::shortest_path(&net, &mask);
        assert_eq!(tree.parent(NodeId(0)), None); // direct to sink
        assert_eq!(tree.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent(NodeId(4)), Some(NodeId(3)));
        assert!((tree.dist_to_sink(NodeId(4)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn path_to_sink_lists_hops() {
        let net = path_net();
        let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
        assert_eq!(
            tree.path_to_sink(NodeId(3)),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn unreachable_after_cut() {
        let net = path_net();
        let mut mask = net.alive_mask();
        mask[1] = false;
        let tree = RoutingTree::shortest_path(&net, &mask);
        assert!(tree.is_reachable(NodeId(0)));
        assert!(!tree.is_reachable(NodeId(2)));
        assert!(tree.path_to_sink(NodeId(2)).is_empty());
        assert_eq!(tree.reachable_count(), 1);
        // Masked-out and cut-off nodes sit at infinity; the survivor keeps
        // its direct distance.
        assert!(tree.dist_to_sink(NodeId(1)).is_infinite());
        assert!(tree.dist_to_sink(NodeId(4)).is_infinite());
        assert!((tree.dist_to_sink(NodeId(0)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_accumulates_toward_sink() {
        let net = path_net();
        let mask = net.alive_mask();
        let tree = RoutingTree::shortest_path(&net, &mask);
        let load = traffic_load(&net, &tree, &mask);
        let rate = net.sensing_rates_bps()[0];
        // Node 0 relays everyone: tx = 5·rate, rx = 4·rate.
        assert!((load.tx_bps[0] - 5.0 * rate).abs() < 1e-9);
        assert!((load.rx_bps[0] - 4.0 * rate).abs() < 1e-9);
        // Leaf node 4: tx = rate, rx = 0.
        assert!((load.tx_bps[4] - rate).abs() < 1e-9);
        assert_eq!(load.rx_bps[4], 0.0);
    }

    #[test]
    fn sink_adjacent_node_burns_most_power() {
        let net = path_net();
        let mask = net.alive_mask();
        let tree = RoutingTree::shortest_path(&net, &mask);
        let load = traffic_load(&net, &tree, &mask);
        let power = node_power(&net, &tree, &load, &RadioEnergyModel::classical(), &mask);
        let max = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max, 0, "power = {power:?}");
        assert!(power.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn repair_after_tail_death_matches_full_rebuild() {
        let net = path_net();
        let mut mask = net.alive_mask();
        let mut tree = RoutingTree::shortest_path(&net, &mask);
        mask[3] = false;
        let mut affected = Vec::new();
        let report = tree.repair_after_deaths(&net, &mask, &[NodeId(3)], &mut affected);
        assert!(!report.full_rebuild, "small subtree should repair in place");
        let full = RoutingTree::shortest_path(&net, &mask);
        for i in 0..net.node_count() {
            let id = NodeId(i);
            assert_eq!(tree.parent(id), full.parent(id), "parent of {i}");
            assert_eq!(tree.is_reachable(id), full.is_reachable(id));
            assert_eq!(
                tree.dist_to_sink(id).to_bits(),
                full.dist_to_sink(id).to_bits()
            );
        }
        // The dead node and its downstream subtree are the affected set.
        assert_eq!(affected, vec![false, false, false, true, true]);
        assert!(!tree.is_reachable(NodeId(4)));
    }

    #[test]
    fn repair_of_sink_neighbor_death_reroutes_survivors() {
        // Two parallel chains to the sink; killing one sink-adjacent node
        // reroutes its child through the other chain's frontier.
        let nodes = vec![
            SensorNode::new(Point::new(10.0, 0.0)),  // 0: sink-adjacent
            SensorNode::new(Point::new(0.0, 10.0)),  // 1: sink-adjacent
            SensorNode::new(Point::new(10.0, 10.0)), // 2: tied child of 0/1
            SensorNode::new(Point::new(0.0, 20.0)),  // 3: child of 1
            SensorNode::new(Point::new(0.0, 30.0)),  // 4: child of 3
        ];
        let net = Network::build(nodes, Point::new(0.0, 0.0), 12.0);
        let mut mask = net.alive_mask();
        let mut tree = RoutingTree::shortest_path(&net, &mask);
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(0)));
        mask[0] = false;
        let mut affected = Vec::new();
        let report = tree.repair_after_deaths(&net, &mask, &[NodeId(0)], &mut affected);
        assert!(!report.full_rebuild);
        assert!(report.relaxed > 0, "frontier donors must re-relax");
        let full = RoutingTree::shortest_path(&net, &mask);
        for i in 0..net.node_count() {
            let id = NodeId(i);
            assert_eq!(tree.parent(id), full.parent(id));
            assert_eq!(
                tree.dist_to_sink(id).to_bits(),
                full.dist_to_sink(id).to_bits()
            );
        }
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn exhausted_relaxation_budget_falls_back_to_full_rebuild() {
        // Same topology as the reroute test: killing sink-adjacent node 0
        // re-relaxes node 2 through donor node 1 — normally in place, but a
        // zero budget forces the fallback, which must be bitwise identical.
        let nodes = vec![
            SensorNode::new(Point::new(10.0, 0.0)),
            SensorNode::new(Point::new(0.0, 10.0)),
            SensorNode::new(Point::new(10.0, 10.0)),
            SensorNode::new(Point::new(0.0, 20.0)),
            SensorNode::new(Point::new(0.0, 30.0)),
        ];
        let net = Network::build(nodes, Point::new(0.0, 0.0), 12.0);
        let mut mask = net.alive_mask();
        let mut tree = RoutingTree::shortest_path(&net, &mask);
        mask[0] = false;
        let mut affected = Vec::new();
        let report =
            tree.repair_after_deaths_budgeted(&net, &mask, &[NodeId(0)], &mut affected, Some(0));
        assert!(report.full_rebuild, "a zero budget must force the fallback");
        assert_eq!(report.relaxed, 0);
        let full = RoutingTree::shortest_path(&net, &mask);
        for i in 0..net.node_count() {
            let id = NodeId(i);
            assert_eq!(tree.parent(id), full.parent(id), "parent of {i}");
            assert_eq!(tree.is_reachable(id), full.is_reachable(id));
            assert_eq!(
                tree.dist_to_sink(id).to_bits(),
                full.dist_to_sink(id).to_bits()
            );
        }
    }

    #[test]
    fn default_budget_never_triggers_at_figure_scale() {
        // The default budget floor is 4096 settles and `relaxed` is bounded
        // by the alive count, so small worlds must always repair in place.
        let net = path_net();
        let mut mask = net.alive_mask();
        let mut tree = RoutingTree::shortest_path(&net, &mask);
        mask[3] = false;
        let mut affected = Vec::new();
        let report = tree.repair_after_deaths(&net, &mask, &[NodeId(3)], &mut affected);
        assert!(!report.full_rebuild);
    }

    #[test]
    fn masked_out_nodes_carry_no_traffic_or_power() {
        let net = path_net();
        let mut mask = net.alive_mask();
        mask[2] = false;
        let tree = RoutingTree::shortest_path(&net, &mask);
        let load = traffic_load(&net, &tree, &mask);
        let power = node_power(&net, &tree, &load, &RadioEnergyModel::classical(), &mask);
        assert_eq!(load.tx_bps[2], 0.0);
        assert_eq!(power[2], 0.0);
        // Downstream nodes are cut off, so they carry no deliverable traffic.
        assert_eq!(load.tx_bps[3], 0.0);
        assert_eq!(power[3], 0.0);
    }
}
