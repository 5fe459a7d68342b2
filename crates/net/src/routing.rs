//! Data-gathering routing and per-node energy consumption.
//!
//! Nodes route sensed data to the sink along a shortest-path tree (Euclidean
//! edge weights, computed with a virtual sink source). The tree determines
//! each node's relayed traffic, which the radio model turns into its *power
//! draw* (`keynode::effective_power_draw`) — what the attacker needs to
//! predict when each victim will die.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

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
    /// Next hop toward the sink, as a node index; [`NO_NODE`] for
    /// sink-adjacent nodes (they deliver directly) and for unreachable nodes.
    /// Serialized as `Option<NodeId>`.
    parent: Vec<u32>,
    /// Shortest distance to the sink (m); `INFINITY` if unreachable.
    dist: Vec<f64>,
    /// Whether each node can reach the sink at all.
    reachable: Vec<bool>,
    /// Child lists, derived from `parent`: `first_child[v]` heads a singly
    /// linked list of `v`'s children threaded through `next_sibling`, and
    /// [`NO_NODE`] ends it. Built wherever `reachable` is computed, rebuilt
    /// on deserialize and never serialized.
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
}

/// No node: the end of a child list, or no parent.
const NO_NODE: u32 = u32::MAX;

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
            (
                "parent".to_string(),
                serde::Value::Seq(
                    (0..self.parent.len())
                        .map(|v| self.up(v).map(NodeId).to_value())
                        .collect(),
                ),
            ),
            ("dist".to_string(), dist.to_value()),
            ("reachable".to_string(), self.reachable.to_value()),
        ])
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let mut map = serde::json::MapWriter::new(out);
        let parent = map.key("parent");
        parent.push('[');
        for v in 0..self.parent.len() {
            if v > 0 {
                parent.push(',');
            }
            self.up(v).map(NodeId).write_json(parent)?;
        }
        parent.push(']');
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
        let parent: Vec<Option<NodeId>> =
            Deserialize::from_value(serde::map_get(entries, "parent")?)?;
        let n = parent.len();
        if n >= NO_NODE as usize || parent.iter().flatten().any(|p| p.0 >= n) {
            return Err(serde::Error(
                "RoutingTree parent names a node out of range".to_string(),
            ));
        }
        let mut tree = RoutingTree {
            parent: parent
                .iter()
                .map(|p| p.map_or(NO_NODE, |p| p.0 as u32))
                .collect(),
            dist: dist
                .into_iter()
                .map(|d| d.unwrap_or(f64::INFINITY))
                .collect(),
            reachable: Deserialize::from_value(serde::map_get(entries, "reachable")?)?,
            first_child: Vec::new(),
            next_sibling: Vec::new(),
        };
        if tree.dist.len() != n || tree.reachable.len() != n {
            return Err(serde::Error(
                "RoutingTree columns have different lengths".to_string(),
            ));
        }
        tree.link_children();
        Ok(tree)
    }
}

impl RoutingTree {
    /// Builds the shortest-path tree over the subgraph induced by `mask`.
    pub fn shortest_path(net: &Network, mask: &[bool]) -> Self {
        let mut tree = RoutingTree {
            parent: Vec::new(),
            dist: Vec::new(),
            reachable: Vec::new(),
            first_child: Vec::new(),
            next_sibling: Vec::new(),
        };
        tree.rebuild(net, mask, &mut BinaryHeap::new());
        tree
    }

    /// [`RoutingTree::shortest_path`] in place, reusing this tree's
    /// buffers and `heap`.
    fn rebuild(&mut self, net: &Network, mask: &[bool], heap: &mut Heap) {
        let n = net.node_count();
        self.parent.clear();
        self.parent.resize(n, NO_NODE);
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        heap.clear();
        self.seed_sink_neighbors(net, |s| mask.get(s).copied().unwrap_or(false), heap);
        self.settle(net, mask, heap, usize::MAX);
        self.reachable.clear();
        self.reachable
            .extend(self.dist.iter().map(|d| d.is_finite()));
        self.link_children();
    }

    /// Rebuilds the child lists from `parent`, each in ascending id order.
    fn link_children(&mut self) {
        let n = self.parent.len();
        assert!(
            n < NO_NODE as usize,
            "routing trees hold at most {} nodes, got {n}",
            NO_NODE
        );
        self.first_child.clear();
        self.first_child.resize(n, NO_NODE);
        self.next_sibling.clear();
        self.next_sibling.resize(n, NO_NODE);
        for v in (0..n).rev() {
            if let Some(p) = self.up(v) {
                self.link(v, p);
            }
        }
    }

    /// The parent of `v`, if it has one.
    fn up(&self, v: usize) -> Option<usize> {
        let p = self.parent[v];
        (p != NO_NODE).then_some(p as usize)
    }

    /// Inserts `v` into the child list of `p` at its place in ascending id
    /// order, in O(children of `p`). Keeping every list sorted makes the
    /// lists of a repaired, a freshly built and a deserialized tree equal.
    fn link(&mut self, v: usize, p: usize) {
        let v32 = v as u32;
        let head = self.first_child[p];
        if head == NO_NODE || head > v32 {
            self.next_sibling[v] = head;
            self.first_child[p] = v32;
            return;
        }
        let mut c = head as usize;
        while self.next_sibling[c] < v32 {
            c = self.next_sibling[c] as usize;
        }
        self.next_sibling[v] = self.next_sibling[c];
        self.next_sibling[c] = v32;
    }

    /// Removes `v` from the child list of `p`, in O(children of `p`).
    fn unlink(&mut self, v: usize, p: usize) {
        let v32 = v as u32;
        if self.first_child[p] == v32 {
            self.first_child[p] = self.next_sibling[v];
            return;
        }
        let mut c = self.first_child[p];
        while c != NO_NODE {
            let next = self.next_sibling[c as usize];
            if next == v32 {
                self.next_sibling[c as usize] = self.next_sibling[v];
                return;
            }
            c = next;
        }
        debug_assert!(false, "node {v} is missing from the child list of {p}");
    }

    /// The children of `v` in the tree.
    fn children(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let mut c = self.first_child[v];
        std::iter::from_fn(move || {
            (c != NO_NODE).then(|| {
                let child = c as usize;
                c = self.next_sibling[child];
                child
            })
        })
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
                    self.parent[u.0] = v as u32;
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
    /// over the shrunken mask. The affected set is found by a DFS over the
    /// child lists from the dead nodes. Affected nodes are re-relaxed from
    /// the frontier: their alive, still-routed neighbours re-enter the heap
    /// at their existing distances, so pops interleave in the same global
    /// `(dist, id)` order a full build would produce.
    ///
    /// `mask` must already exclude the dead nodes, and `alive` is its number
    /// of `true` entries. `scratch` is reused across calls; afterwards it
    /// holds the affected set ([`RepairScratch::is_affected`]), and
    /// [`TrafficLoad::update_after_repair`] reads it to update the load.
    /// Every step costs O(affected + its neighbourhood), never O(n). When a
    /// death invalidates most of the tree the repair falls back to a full
    /// rebuild (same result, cheaper) and reports it.
    ///
    /// Debug builds re-run the full computation and assert bitwise equality
    /// — the equality harness backing the `routing_repair` property tests.
    pub fn repair_after_deaths(
        &mut self,
        net: &Network,
        mask: &[bool],
        alive: usize,
        dead: &[NodeId],
        scratch: &mut RepairScratch,
    ) -> RepairReport {
        self.repair_after_deaths_budgeted(net, mask, alive, dead, scratch, None)
    }

    /// [`RoutingTree::repair_after_deaths`] with an explicit relaxation
    /// budget (`None` = the default `max(alive / 2, 4096)`). Exposed for the
    /// budget-fallback unit tests; production callers use the default.
    fn repair_after_deaths_budgeted(
        &mut self,
        net: &Network,
        mask: &[bool],
        alive: usize,
        dead: &[NodeId],
        scratch: &mut RepairScratch,
        budget_override: Option<usize>,
    ) -> RepairReport {
        let n = net.node_count();
        debug_assert_eq!(self.dist.len(), n);
        scratch.reset(n);
        let s = scratch;

        // Affected = dead ∪ descendants, by a DFS over the child lists. A
        // dead node below another dead node is reached once, from either.
        for &NodeId(d) in dead {
            if d >= n || s.flags[d] & AFFECTED != 0 {
                continue;
            }
            s.flags[d] |= AFFECTED;
            s.affected.push(d as u32);
            s.stack.push(d as u32);
            while let Some(v) = s.stack.pop() {
                let v = v as usize;
                for c in self.children(v) {
                    if s.flags[c] & AFFECTED == 0 {
                        s.flags[c] |= AFFECTED;
                        s.affected.push(c as u32);
                        s.stack.push(c as u32);
                    }
                }
            }
        }
        // The roots of the affected subtrees are dead nodes under a clean
        // parent (or none). Their old parent chains are all clean, so they
        // survive the repair unchanged.
        for &NodeId(d) in dead {
            let Some(p) = (d < n).then(|| self.up(d)).flatten() else {
                continue;
            };
            if s.flags[p] & AFFECTED == 0 && s.flags[d] & ROOT == 0 {
                s.flags[d] |= ROOT;
                s.roots.push((d, p));
            }
        }

        // A death that guts most of the tree is repaired fastest by simply
        // rebuilding; the result is identical either way.
        if 2 * s.affected.len() > alive {
            self.rebuild(net, mask, &mut s.heap);
            return RepairReport {
                relaxed: 0,
                full_rebuild: true,
            };
        }

        for &(r, p) in &s.roots {
            self.unlink(r, p);
        }
        for v in s.affected() {
            self.dist[v] = f64::INFINITY;
            self.parent[v] = NO_NODE;
            self.first_child[v] = NO_NODE;
            self.next_sibling[v] = NO_NODE;
        }
        let flags = &mut s.flags;
        let heap = &mut s.heap;
        heap.clear();
        // Re-seed affected sink-neighbours exactly as the full build does.
        self.seed_sink_neighbors(net, |v| flags[v] & AFFECTED != 0 && mask[v], heap);
        // Frontier donors: clean, alive, routed neighbours of affected alive
        // nodes re-enter the heap at their final distances. Their own state
        // cannot improve (their distances are already shortest), but they
        // re-relax the affected region in full-build pop order. Keys are
        // unique per node, so the pop order does not depend on push order.
        for i in s.affected.iter().map(|&i| i as usize) {
            if !mask[i] {
                continue;
            }
            for &u in net.neighbors(NodeId(i)) {
                let u = u.0;
                if flags[u] & (AFFECTED | DONOR) != 0 || !mask[u] || !self.dist[u].is_finite() {
                    continue;
                }
                flags[u] |= DONOR;
                s.donors.push(u);
                heap.push(key(self.dist[u], u));
            }
        }
        for &u in &s.donors {
            flags[u] &= !DONOR;
        }
        s.donors.clear();
        // Relaxation budget: the affected-fraction gate above bounds the
        // *invalidated* region, but frontier donors can still blow the
        // re-relaxation up to a large multiple of it at scale (13.2M settles
        // across a 1M-node run before this bound existed). Past the budget a
        // full rebuild is cheaper — and identical, full build being the
        // semantic reference — so abandon the repair mid-relax; the rebuild
        // overwrites all distance/parent/reachability state wholesale. Each
        // non-stale pop settles a node at its final distance once, so
        // `relaxed <= alive`: with the 4096 floor the budget can only
        // trigger above 4096 alive nodes, leaving the paper-scale figure
        // experiments (and their golden traces) untouched.
        let budget = budget_override.unwrap_or_else(|| (alive / 2).max(4096));
        let Some(relaxed) = self.settle(net, mask, heap, budget) else {
            self.rebuild(net, mask, heap);
            return RepairReport {
                relaxed: 0,
                full_rebuild: true,
            };
        };
        // Clean nodes keep their parents, so only affected nodes join a
        // child list, and only affected nodes can have changed reachability.
        for v in s.affected() {
            self.reachable[v] = self.dist[v].is_finite();
            if let Some(p) = self.up(v) {
                self.link(v, p);
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

    /// Exact (bitwise on distances) equality — the repair harness oracle —
    /// including the child lists, which are canonical (ascending ids).
    #[cfg(debug_assertions)]
    fn bitwise_eq(&self, other: &RoutingTree) -> bool {
        self.parent == other.parent
            && self.reachable == other.reachable
            && self
                .dist
                .iter()
                .zip(&other.dist)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.first_child == other.first_child
            && self.next_sibling == other.next_sibling
    }

    /// Next hop of `id` toward the sink (`None` = delivers directly to the
    /// sink, or is unreachable — check [`RoutingTree::is_reachable`]).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent
            .get(id.0)
            .and_then(|&p| (p != NO_NODE).then_some(NodeId(p as usize)))
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

/// [`RepairScratch`] flag: the node is affected (dead or below a dead node).
const AFFECTED: u8 = 1;
/// [`RepairScratch`] flag: the node roots an affected subtree under a clean
/// parent.
const ROOT: u8 = 2;
/// [`RepairScratch`] flag: the node was pushed as a frontier donor.
const DONOR: u8 = 4;
/// [`RepairScratch`] flag: the traffic update recorded the node in
/// `touched`.
const TOUCHED: u8 = 8;

/// Reusable buffers of the post-death refresh:
/// [`RoutingTree::repair_after_deaths`] fills them and
/// [`TrafficLoad::update_after_repair`] reads them. Per-node flags are
/// cleared through the lists that set them, so a call costs what it
/// touches, not O(n).
#[derive(Debug, Clone, Default)]
pub struct RepairScratch {
    /// Per-node flag bits; zero except at nodes listed in `affected` or
    /// `touched`.
    flags: Vec<u8>,
    /// The affected set: dead nodes and their descendants, in DFS order.
    affected: Vec<u32>,
    /// Each affected-subtree root that had a parent, with that parent.
    roots: Vec<(usize, usize)>,
    /// DFS stack, then the breadth-first order of the new affected forests.
    stack: Vec<u32>,
    /// Frontier donors of the current repair.
    donors: Vec<usize>,
    /// The Dijkstra heap of the repair and of its full-rebuild fallback.
    heap: Heap,
    /// Clean nodes on a changed parent chain, with their loads before the
    /// change.
    touched: Vec<(usize, f64, f64)>,
    /// Nodes outside the affected set whose load bits changed.
    changed: Vec<usize>,
}

impl RepairScratch {
    /// Clears what the last call left, sized for `n` nodes.
    fn reset(&mut self, n: usize) {
        if self.flags.len() == n {
            for &v in &self.affected {
                self.flags[v as usize] = 0;
            }
            for &(v, _, _) in &self.touched {
                self.flags[v] = 0;
            }
        } else {
            self.flags.clear();
            self.flags.resize(n, 0);
        }
        self.affected.clear();
        self.roots.clear();
        self.stack.clear();
        self.touched.clear();
        self.changed.clear();
    }

    /// The affected set of the last repair: the dead nodes plus their
    /// routing-tree descendants before it.
    fn affected(&self) -> impl Iterator<Item = usize> + '_ {
        self.affected.iter().map(|&v| v as usize)
    }

    /// Whether node `i` is in the affected set of the last repair: a dead
    /// node or one of its routing-tree descendants before it.
    pub fn is_affected(&self, i: usize) -> bool {
        self.flags.get(i).is_some_and(|f| f & AFFECTED != 0)
    }

    /// After [`TrafficLoad::update_after_repair`]: every node whose power
    /// draw may have changed — the affected set plus each other node whose
    /// load bits changed — each once.
    pub fn dirty(&self) -> impl Iterator<Item = usize> + '_ {
        self.affected().chain(self.changed.iter().copied())
    }
}

/// Per-node traffic derived from a routing tree, bits per second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficLoad {
    /// Inbound relayed traffic per node, b/s.
    pub rx_bps: Vec<f64>,
    /// Outbound traffic (own sensing + relayed) per node, b/s.
    pub tx_bps: Vec<f64>,
}

impl TrafficLoad {
    /// Brings the load up to date after `tree.repair_after_deaths(…,
    /// scratch)`, and lists in [`RepairScratch::dirty`] every node whose
    /// power draw may have changed. The result is bitwise equal to
    /// [`traffic_load`] over the repaired tree, whatever the sensing rates.
    ///
    /// Each node's load is a function of its children's, so only two kinds
    /// of node can change:
    ///
    /// * the affected nodes, zeroed and then re-summed bottom-up over their
    ///   new forests (every child of an affected node is affected);
    /// * the clean ancestors of each affected subtree's old parent and of
    ///   each new forest root: clean nodes keep their parents, so these
    ///   chains to the sink are all the rest that can change. Their union
    ///   is re-summed children first, each node once.
    ///
    /// Cost: O((affected + chain nodes) × their children), never O(n).
    pub fn update_after_repair(
        &mut self,
        net: &Network,
        tree: &RoutingTree,
        mask: &[bool],
        scratch: &mut RepairScratch,
    ) {
        let s = scratch;
        for v in s.affected() {
            self.rx_bps[v] = 0.0;
            self.tx_bps[v] = 0.0;
        }
        // Forest roots: routed affected nodes under a clean parent or the
        // sink.
        let flags = &s.flags;
        s.stack.clear();
        s.stack.extend(s.affected.iter().copied().filter(|&v| {
            let v = v as usize;
            routed(tree, mask, v) && tree.up(v).is_none_or(|p| flags[p] & AFFECTED == 0)
        }));
        let forest_roots = s.stack.len();
        self.resum_subtrees(net, tree, mask, &mut s.stack);
        for k in 0..s.roots.len() {
            self.record_chain(tree, s.roots[k].1, s);
        }
        for k in 0..forest_roots {
            if let Some(p) = tree.up(s.stack[k] as usize) {
                self.record_chain(tree, p, s);
            }
        }
        // Each chain is stored sink-first and ends below a node of an
        // earlier chain (or at the sink), so in reverse every node comes
        // after all of its recorded children.
        for k in (0..s.touched.len()).rev() {
            self.resum(net, tree, mask, s.touched[k].0);
        }
        for &(i, rx, tx) in &s.touched {
            if rx.to_bits() != self.rx_bps[i].to_bits() || tx.to_bits() != self.tx_bps[i].to_bits()
            {
                s.changed.push(i);
            }
        }
        #[cfg(debug_assertions)]
        {
            let full = traffic_load(net, tree, mask);
            let same =
                |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            debug_assert!(
                same(&self.rx_bps, &full.rx_bps) && same(&self.tx_bps, &full.tx_bps),
                "in-place traffic update diverged from the full recomputation"
            );
        }
    }

    /// Sets `v`'s load from its children's: `rx` sums their `tx` in
    /// ascending id order, and `tx` adds `v`'s own sensing rate. A node
    /// that is masked out or cannot reach the sink carries nothing.
    fn resum(&mut self, net: &Network, tree: &RoutingTree, mask: &[bool], v: usize) {
        let (rx, tx) = if routed(tree, mask, v) {
            let rx = tree.children(v).fold(0.0, |sum, c| sum + self.tx_bps[c]);
            (rx, rx + net.sensing_rates_bps()[v])
        } else {
            (0.0, 0.0)
        };
        self.rx_bps[v] = rx;
        self.tx_bps[v] = tx;
    }

    /// Extends `order`, which holds tree roots, breadth-first over their
    /// subtrees, then re-sums every node in reverse, so that each child is
    /// final before its parent.
    fn resum_subtrees(
        &mut self,
        net: &Network,
        tree: &RoutingTree,
        mask: &[bool],
        order: &mut Vec<u32>,
    ) {
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            next += 1;
            order.extend(tree.children(v as usize).map(|c| c as u32));
        }
        for &v in order.iter().rev() {
            self.resum(net, tree, mask, v as usize);
        }
    }

    /// Records in `touched`, with its load before the update, `start` and
    /// each of its ancestors up to the first one already recorded, and
    /// stores this chain sink-first.
    fn record_chain(&self, tree: &RoutingTree, start: usize, s: &mut RepairScratch) {
        let first = s.touched.len();
        let mut next = Some(start);
        while let Some(v) = next {
            debug_assert_eq!(s.flags[v] & AFFECTED, 0, "chain node {v} is affected");
            if s.flags[v] & TOUCHED != 0 {
                break;
            }
            s.flags[v] |= TOUCHED;
            s.touched.push((v, self.rx_bps[v], self.tx_bps[v]));
            next = tree.up(v);
        }
        s.touched[first..].reverse();
    }
}

/// Whether `v` is masked in and can reach the sink under `tree`.
fn routed(tree: &RoutingTree, mask: &[bool], v: usize) -> bool {
    mask.get(v).copied().unwrap_or(false) && tree.reachable[v]
}

/// Computes each node's steady-state traffic under `tree`: a node sends its
/// own sensing rate plus everything its children send. One breadth-first
/// pass from the nodes that deliver to the sink, summed in reverse: O(n).
///
/// Unreachable or masked-out nodes carry no traffic.
pub fn traffic_load(net: &Network, tree: &RoutingTree, mask: &[bool]) -> TrafficLoad {
    let n = net.node_count();
    let mut load = TrafficLoad {
        rx_bps: vec![0.0; n],
        tx_bps: vec![0.0; n],
    };
    let mut order = Vec::with_capacity(n);
    order.extend(
        (0..n)
            .filter(|&v| routed(tree, mask, v) && tree.up(v).is_none())
            .map(|v| v as u32),
    );
    load.resum_subtrees(net, tree, mask, &mut order);
    load
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
    use crate::energy::RadioEnergyModel;
    use crate::geom::Point;
    use crate::keynode::effective_power_draw;
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
        let power = effective_power_draw(&net, &mask, &RadioEnergyModel::classical());
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
        let mut scratch = RepairScratch::default();
        let report = tree.repair_after_deaths(&net, &mask, 4, &[NodeId(3)], &mut scratch);
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
        let mut affected: Vec<usize> = scratch.affected().collect();
        affected.sort_unstable();
        assert_eq!(affected, vec![3, 4]);
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
        let mut scratch = RepairScratch::default();
        let report = tree.repair_after_deaths(&net, &mask, 4, &[NodeId(0)], &mut scratch);
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
        let mut scratch = RepairScratch::default();
        let report =
            tree.repair_after_deaths_budgeted(&net, &mask, 4, &[NodeId(0)], &mut scratch, Some(0));
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
        let mut scratch = RepairScratch::default();
        let report = tree.repair_after_deaths(&net, &mask, 4, &[NodeId(3)], &mut scratch);
        assert!(!report.full_rebuild);
    }

    /// Kills `dead` in `tree` and refreshes `load` in place; returns the
    /// scratch for inspection after checking the load against the full pass.
    fn refresh(
        net: &Network,
        mask: &mut [bool],
        tree: &mut RoutingTree,
        load: &mut TrafficLoad,
        dead: &[usize],
    ) -> RepairScratch {
        for &d in dead {
            mask[d] = false;
        }
        let alive = mask.iter().filter(|&&a| a).count();
        let ids: Vec<NodeId> = dead.iter().map(|&d| NodeId(d)).collect();
        let mut scratch = RepairScratch::default();
        tree.repair_after_deaths(net, mask, alive, &ids, &mut scratch);
        load.update_after_repair(net, tree, mask, &mut scratch);
        let full = traffic_load(net, tree, mask);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&load.rx_bps), bits(&full.rx_bps));
        assert_eq!(bits(&load.tx_bps), bits(&full.tx_bps));
        scratch
    }

    #[test]
    fn tail_death_updates_the_load_in_place() {
        let net = path_net();
        let mut mask = net.alive_mask();
        let mut tree = RoutingTree::shortest_path(&net, &mask);
        let mut load = traffic_load(&net, &tree, &mask);
        let scratch = refresh(&net, &mut mask, &mut tree, &mut load, &[3]);
        // The dead subtree {3, 4} leaves the chain 2 → 1 → 0, which is
        // re-summed and whose loads all drop: every touched node is dirty,
        // and nothing else is.
        let mut touched: Vec<usize> = scratch.touched.iter().map(|t| t.0).collect();
        touched.sort_unstable();
        assert_eq!(touched, vec![0, 1, 2]);
        let mut dirty: Vec<usize> = scratch.dirty().collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 1, 2, 3, 4]);
        let rate = net.sensing_rates_bps()[0];
        assert_eq!(load.tx_bps[0], 3.0 * rate);
        assert_eq!(load.tx_bps[4], 0.0);
    }

    #[test]
    fn a_sub_ulp_edge_conserves_traffic() {
        // Node 2 sits 6e-14 m past node 1, so it routes through node 1 at
        // node 1's exact distance (rounding hides the step). A load summed
        // in distance order would meet node 2 after node 1 and lose its
        // traffic above node 1; summed over the child lists it reaches the
        // sink whatever the distances say.
        let (r, a) = (600.00000548, 700.692);
        let nodes = vec![
            SensorNode::new(Point::new(0.0, -a)),
            SensorNode::new(Point::new(0.0, 0.0)),
            SensorNode::new(Point::new(0.0, 6e-14)),
        ];
        let net = Network::build(nodes, Point::new(0.0, -a - r), 750.0);
        let mut mask = net.alive_mask();
        let mut tree = RoutingTree::shortest_path(&net, &mask);
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(
            tree.dist_to_sink(NodeId(2)).to_bits(),
            tree.dist_to_sink(NodeId(1)).to_bits()
        );
        let rate = net.sensing_rates_bps()[0];
        let mut load = traffic_load(&net, &tree, &mask);
        assert_eq!(
            load.tx_bps[0],
            3.0 * rate,
            "node 0 carries node 2's traffic"
        );
        let before = load.clone();
        // `refresh` checks the in-place update against the full pass.
        let scratch = refresh(&net, &mut mask, &mut tree, &mut load, &[2]);
        assert_eq!(load.tx_bps[0], before.tx_bps[0] - rate);
        assert_eq!(load.tx_bps[1], rate);
        let mut dirty: Vec<usize> = scratch.dirty().collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 1, 2]);
    }

    #[test]
    fn masked_out_nodes_carry_no_traffic_or_power() {
        let net = path_net();
        let mut mask = net.alive_mask();
        mask[2] = false;
        let tree = RoutingTree::shortest_path(&net, &mask);
        let load = traffic_load(&net, &tree, &mask);
        let radio = RadioEnergyModel::classical();
        let power = effective_power_draw(&net, &mask, &radio);
        assert_eq!(load.tx_bps[2], 0.0);
        assert_eq!(power[2], 0.0);
        // Downstream nodes are cut off, so they carry no deliverable traffic
        // and drain only the disconnected floor while they look for a route.
        assert_eq!(load.tx_bps[3], 0.0);
        let floor = radio.idle_w + radio.tx_energy(net.sensing_rates_bps()[3], net.comm_range());
        assert_eq!(power[3], floor);
    }
}
