//! The communication graph of a WRSN and its core graph algorithms.
//!
//! Two nodes are neighbours when their Euclidean distance is at most the
//! communication range. The base station (*sink*) is a distinguished point;
//! nodes within range of it can deliver data directly.
//!
//! The graph is built once: its CSR adjacency and the Euclidean length of
//! every edge never change afterwards (deaths are masks over it), so clones
//! of a [`Network`] share one copy. Shortest paths over those lengths live in
//! [`crate::routing`].
//!
//! Algorithms provided: connectivity / components (BFS), articulation points
//! (Tarjan) and betweenness centrality (Brandes) — the latter two feed
//! key-node identification in [`crate::keynode`].

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::energy::Battery;
use crate::error::NetError;
use crate::geom::Point;
use crate::node::{node_json, NodeId, SensorNode};

/// A WRSN communication graph: nodes, a sink and range-derived adjacency.
///
/// Per-node state lives in struct-of-arrays columns (positions, sensing
/// rates, battery levels, status flags) rather than a `Vec<SensorNode>`:
/// the simulation engine's fused segment loop iterates dense parallel
/// slices.
/// [`SensorNode`] remains the construction/config view — [`Network::build`]
/// columnises a node list, and [`Network::node`] materialises a node back
/// from the columns on demand.
///
/// # Example
///
/// ```
/// use wrsn_net::{deploy, Network, Point, Region};
///
/// let nodes = deploy::uniform(&Region::square(100.0), 40, 1);
/// let net = Network::build(nodes, Point::new(50.0, 50.0), 20.0);
/// assert_eq!(net.node_count(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    positions: Vec<Point>,
    sensing_rate_bps: Vec<f64>,
    capacity_j: Vec<f64>,
    level_j: Vec<f64>,
    warning_j: Vec<f64>,
    depleted: Vec<bool>,
    failed: Vec<bool>,
    sink: Point,
    comm_range_m: f64,
    topology: Arc<Topology>,
}

/// The immutable communication graph: a CSR adjacency with the Euclidean
/// length of every directed edge, plus the sink's neighbours.
#[derive(Debug)]
struct Topology {
    /// Row `v` spans `nbr[off[v]..off[v + 1]]`; `off` has `n + 1` entries.
    off: Vec<usize>,
    /// Neighbour ids, ascending within each row.
    nbr: Vec<NodeId>,
    /// `len[k] = positions[v].distance(positions[nbr[k]])` for the row `v`
    /// holding `k` — the edge weight routing relaxes.
    len: Vec<f64>,
    sink_neighbors: Vec<NodeId>,
}

impl Topology {
    /// Scans the range-`comm_range_m` neighbourhoods of `positions` on
    /// `threads` workers (sequentially below [`PARALLEL_BUILD_MIN_NODES`]).
    ///
    /// Nodes are bucketed into a uniform grid with cell side
    /// `comm_range_m`, so each node only tests the nodes in its own and the
    /// eight surrounding cells: ~O(n) for bounded-density deployments
    /// instead of the O(n²) all-pairs scan. A first pass counts each row,
    /// so the CSR arrays are allocated once at their exact size; the second
    /// fills every row in place and sorts it ascending. Each worker owns a
    /// contiguous range of rows in both passes, so the result is identical
    /// to the all-pairs build at any thread count.
    fn build(positions: &[Point], sink: Point, comm_range_m: f64, threads: usize) -> Self {
        assert!(
            comm_range_m.is_finite() && comm_range_m > 0.0,
            "communication range must be positive, got {comm_range_m}"
        );
        let n = positions.len();
        let grid = Grid::new(positions, comm_range_m);
        let threads = threads.clamp(1, n.max(1));
        let chunk = if threads <= 1 || n < PARALLEL_BUILD_MIN_NODES {
            n.max(1)
        } else {
            n.div_ceil(threads)
        };

        let mut off = vec![0usize; n + 1];
        fan_out(
            off[1..].chunks_mut(chunk).enumerate().collect(),
            |(c, ends)| {
                let base = c * chunk;
                grid.for_each_candidate(&(base..base + ends.len()), |i, _, hit| {
                    ends[i - base] += usize::from(hit);
                });
            },
        );
        for i in 0..n {
            off[i + 1] += off[i];
        }

        let mut nbr = vec![NodeId(0); off[n]];
        let mut len = vec![0.0; off[n]];
        let mut parts = Vec::new();
        let (mut nbr_rest, mut len_rest) = (&mut nbr[..], &mut len[..]);
        for start in (0..n).step_by(chunk) {
            let rows = start..(start + chunk).min(n);
            let size = off[rows.end] - off[rows.start];
            let (nbr_part, nbr_tail) = nbr_rest.split_at_mut(size);
            let (len_part, len_tail) = len_rest.split_at_mut(size);
            parts.push((rows, nbr_part, len_part));
            (nbr_rest, len_rest) = (nbr_tail, len_tail);
        }
        fan_out(parts, |(rows, nbr_part, len_part)| {
            let base = off[rows.start];
            let mut next: Vec<usize> = off[rows.clone()].iter().map(|o| o - base).collect();
            grid.for_each_candidate(&rows, |i, j, hit| {
                if hit {
                    let slot = &mut next[i - rows.start];
                    nbr_part[*slot] = NodeId(j);
                    *slot += 1;
                }
            });
            for i in rows {
                let row = off[i] - base..off[i + 1] - base;
                nbr_part[row.clone()].sort_unstable();
                for (l, u) in len_part[row.clone()].iter_mut().zip(&nbr_part[row]) {
                    *l = positions[i].distance(positions[u.0]);
                }
            }
        });

        let sink_neighbors = (0..n)
            .filter(|&i| positions[i].distance_sq(sink) <= grid.r2)
            .map(NodeId)
            .collect();
        Topology {
            off,
            nbr,
            len,
            sink_neighbors,
        }
    }

    /// Rebuilds the CSR arrays from serialized adjacency rows, recomputing
    /// the edge lengths from `positions`.
    fn from_rows(
        rows: &[Vec<NodeId>],
        positions: &[Point],
        sink_neighbors: Vec<NodeId>,
    ) -> Result<Self, serde::Error> {
        let n = positions.len();
        if rows.len() != n {
            return Err(serde::Error(format!(
                "Network: {} adjacency rows for {n} nodes",
                rows.len()
            )));
        }
        if let Some(bad) = rows
            .iter()
            .flatten()
            .chain(&sink_neighbors)
            .find(|u| u.0 >= n)
        {
            return Err(serde::Error(format!(
                "Network: neighbour {} out of range for {n} nodes",
                bad.0
            )));
        }
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        let mut nbr = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        let mut len = Vec::with_capacity(nbr.capacity());
        for (v, row) in rows.iter().enumerate() {
            nbr.extend_from_slice(row);
            len.extend(row.iter().map(|u| positions[v].distance(positions[u.0])));
            off.push(nbr.len());
        }
        Ok(Topology {
            off,
            nbr,
            len,
            sink_neighbors,
        })
    }

    /// The adjacency row of node `v` (trusted index).
    fn row(&self, v: usize) -> Range<usize> {
        self.off[v]..self.off[v + 1]
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.off.len() - 1
    }
}

// Hand-written to keep the wire shape of the former array-of-structs layout
// (`nodes` as a list of SensorNode maps): checkpoints written before the
// column refactor stay loadable, and snapshots stay byte-identical.
impl Serialize for Network {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        NetworkEncoder::default().encode(self, out)
    }
}

/// Encodes a [`Network`] as JSON, keeping the parts that never change.
///
/// A built network only mutates its battery levels and its depletion and
/// failure flags. The encoder keeps everything else already encoded: each
/// node's position, capacity, warning threshold and sensing rate, and the
/// tail after the node list (`sink`, `comm_range_m`, `adj` and
/// `sink_neighbors`). Encoding a network again then formats three values per
/// node and copies the rest. Clones of one network share its topology and
/// its static columns, so the topology's identity keys the cache: any other
/// network is encoded afresh. The bytes are always those of
/// [`Serialize::write_json`], which runs a fresh encoder.
#[derive(Debug, Default)]
pub struct NetworkEncoder {
    /// The topology of the network the static parts were encoded from.
    topology: Option<Arc<Topology>>,
    /// Node `i`'s static parts are `statics[cuts[3i]..cuts[3i + 1]]`,
    /// `[cuts[3i + 1]..cuts[3i + 2]]` and `[cuts[3i + 2]..cuts[3i + 3]]`.
    statics: String,
    cuts: Vec<usize>,
    /// `,"sink":…,"comm_range_m":…,"adj":[…],"sink_neighbors":[…]}`.
    tail: String,
}

impl NetworkEncoder {
    /// Appends `net`'s JSON to `out`.
    ///
    /// # Errors
    ///
    /// Fails on a non-finite float; `out` then holds a partial document.
    pub fn encode(&mut self, net: &Network, out: &mut String) -> Result<(), serde::Error> {
        let cached = self
            .topology
            .as_ref()
            .is_some_and(|t| Arc::ptr_eq(t, &net.topology));
        if !cached {
            self.topology = None;
            self.encode_statics(net)?;
            self.topology = Some(Arc::clone(&net.topology));
        }
        out.push_str("{\"nodes\":[");
        for (i, part) in self.cuts.windows(4).step_by(3).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&self.statics[part[0]..part[1]]);
            serde::json::write_f64(net.level_j[i], out)?;
            out.push_str(&self.statics[part[1]..part[2]]);
            serde::json::write_bool(net.depleted[i], out);
            out.push_str(&self.statics[part[2]..part[3]]);
            node_json::end(net.failed[i], out);
        }
        out.push(']');
        out.push_str(&self.tail);
        Ok(())
    }

    fn encode_statics(&mut self, net: &Network) -> Result<(), serde::Error> {
        let (statics, cuts, tail) = (&mut self.statics, &mut self.cuts, &mut self.tail);
        statics.clear();
        cuts.clear();
        cuts.push(0);
        for i in 0..net.node_count() {
            node_json::head(net.positions[i], net.capacity_j[i], statics)?;
            cuts.push(statics.len());
            node_json::mid(net.warning_j[i], statics)?;
            cuts.push(statics.len());
            node_json::tail(net.sensing_rate_bps[i], statics)?;
            cuts.push(statics.len());
        }
        tail.clear();
        tail.push_str(",\"sink\":");
        net.sink.write_json(tail)?;
        tail.push_str(",\"comm_range_m\":");
        serde::json::write_f64(net.comm_range_m, tail)?;
        tail.push_str(",\"adj\":[");
        for id in net.ids() {
            if id.0 > 0 {
                tail.push(',');
            }
            net.neighbors(id).write_json(tail)?;
        }
        tail.push_str("],\"sink_neighbors\":");
        net.sink_neighbors().write_json(tail)?;
        tail.push('}');
        Ok(())
    }
}

impl Deserialize for Network {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "Network"))?;
        let nodes: Vec<SensorNode> = Deserialize::from_value(serde::map_get(entries, "nodes")?)?;
        let adj: Vec<Vec<NodeId>> = Deserialize::from_value(serde::map_get(entries, "adj")?)?;
        let positions: Vec<Point> = nodes.iter().map(SensorNode::position).collect();
        let topology = Topology::from_rows(
            &adj,
            &positions,
            Deserialize::from_value(serde::map_get(entries, "sink_neighbors")?)?,
        )?;
        Ok(Network::from_parts(
            nodes,
            Deserialize::from_value(serde::map_get(entries, "sink")?)?,
            Deserialize::from_value(serde::map_get(entries, "comm_range_m")?)?,
            topology,
        ))
    }
}

/// Mutable struct-of-arrays view of every node's battery state, borrowed
/// from [`Network::energy_mut`]. The ops mirror [`Battery`] exactly — same
/// f64 sequences, same saturation and depletion latch — so a column update
/// is bitwise identical to the equivalent per-node battery call.
pub struct EnergyColumnsMut<'a> {
    /// Battery capacities, joules (read-only: capacity never changes).
    pub capacity_j: &'a [f64],
    /// Warning thresholds, joules (read-only).
    pub warning_j: &'a [f64],
    /// Current levels, joules.
    pub level_j: &'a mut [f64],
    /// Depletion latches.
    pub depleted: &'a mut [bool],
}

impl EnergyColumnsMut<'_> {
    /// Column form of [`Battery::discharge`].
    #[inline]
    pub fn discharge(&mut self, i: usize, energy_j: f64) -> f64 {
        let e = energy_j.max(0.0).min(self.level_j[i]);
        self.level_j[i] -= e;
        if self.level_j[i] <= 0.0 {
            self.level_j[i] = 0.0;
            self.depleted[i] = true;
        }
        e
    }

    /// Column form of [`Battery::charge`].
    #[inline]
    pub fn charge(&mut self, i: usize, energy_j: f64) -> f64 {
        if self.depleted[i] {
            return 0.0;
        }
        let e = energy_j.max(0.0).min(self.capacity_j[i] - self.level_j[i]);
        self.level_j[i] += e;
        e
    }

    /// Column form of [`Battery::set_level`].
    #[inline]
    pub fn set_level(&mut self, i: usize, level_j: f64) {
        self.level_j[i] = level_j.clamp(0.0, self.capacity_j[i]);
        if self.level_j[i] <= 0.0 {
            self.depleted[i] = true;
        }
    }

    /// Column form of [`Battery::needs_charging`].
    #[inline]
    pub fn needs_charging(&self, i: usize) -> bool {
        !self.depleted[i] && self.level_j[i] <= self.warning_j[i]
    }
}

/// Below this node count the topology build runs on one worker: spawn
/// overhead would dominate the ~O(n) bucket scan.
const PARALLEL_BUILD_MIN_NODES: usize = 8192;

impl Network {
    /// Builds the network, computing adjacency from `comm_range_m`.
    ///
    /// Adjacency is found with a uniform grid bucketed at the communication
    /// range, so construction is ~O(n) for bounded-density deployments.
    /// Neighbour lists come out identical to the all-pairs build — sorted
    /// ascending by id — so every downstream traversal order (and thus every
    /// float accumulation order) is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `comm_range_m` is not finite and positive.
    pub fn build(nodes: Vec<SensorNode>, sink: Point, comm_range_m: f64) -> Self {
        Network::build_with_threads(nodes, sink, comm_range_m, 1)
    }

    /// Like [`Network::build`], but fans the per-node neighbour scan over
    /// `threads` scoped worker threads when the deployment is large enough
    /// to amortise the spawn cost. Each worker owns a contiguous range of
    /// adjacency rows, so the network is byte-for-byte the same at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `comm_range_m` is not finite and positive.
    pub fn build_with_threads(
        nodes: Vec<SensorNode>,
        sink: Point,
        comm_range_m: f64,
        threads: usize,
    ) -> Self {
        let positions: Vec<Point> = nodes.iter().map(SensorNode::position).collect();
        let topology = Topology::build(&positions, sink, comm_range_m, threads);
        Network::from_parts(nodes, sink, comm_range_m, topology)
    }

    /// Columnises a node list around its prebuilt topology.
    fn from_parts(
        nodes: Vec<SensorNode>,
        sink: Point,
        comm_range_m: f64,
        topology: Topology,
    ) -> Self {
        let n = nodes.len();
        debug_assert_eq!(topology.node_count(), n);
        let mut net = Network {
            positions: Vec::with_capacity(n),
            sensing_rate_bps: Vec::with_capacity(n),
            capacity_j: Vec::with_capacity(n),
            level_j: Vec::with_capacity(n),
            warning_j: Vec::with_capacity(n),
            depleted: Vec::with_capacity(n),
            failed: Vec::with_capacity(n),
            sink,
            comm_range_m,
            topology: Arc::new(topology),
        };
        for node in nodes {
            let (position, battery, sensing_rate_bps, failed) = node.into_parts();
            net.positions.push(position);
            net.sensing_rate_bps.push(sensing_rate_bps);
            net.capacity_j.push(battery.capacity_j());
            net.level_j.push(battery.level_j());
            net.warning_j.push(battery.warning_j());
            net.depleted.push(battery.is_depleted());
            net.failed.push(failed);
        }
        net
    }

    /// Reassembles node `i` from the columns (trusted index).
    fn materialize(&self, i: usize) -> SensorNode {
        SensorNode::from_parts(
            self.positions[i],
            Battery::from_parts(
                self.capacity_j[i],
                self.level_j[i],
                self.warning_j[i],
                self.depleted[i],
            ),
            self.sensing_rate_bps[i],
            self.failed[i],
        )
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The node with id `id`, materialised by value from the state columns.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<SensorNode, NetError> {
        if id.0 < self.node_count() {
            Ok(self.materialize(id.0))
        } else {
            Err(NetError::UnknownNode(id))
        }
    }

    /// All node positions, indexed by [`NodeId`].
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// All sensing data rates (bits per second), indexed by [`NodeId`].
    pub fn sensing_rates_bps(&self) -> &[f64] {
        &self.sensing_rate_bps
    }

    /// All battery levels (joules), indexed by [`NodeId`].
    pub fn levels_j(&self) -> &[f64] {
        &self.level_j
    }

    /// All battery capacities (joules), indexed by [`NodeId`].
    pub fn capacities_j(&self) -> &[f64] {
        &self.capacity_j
    }

    /// All battery warning thresholds (joules), indexed by [`NodeId`].
    pub fn warnings_j(&self) -> &[f64] {
        &self.warning_j
    }

    /// Whether node `i` is alive: neither hard-failed nor depleted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn alive(&self, i: usize) -> bool {
        !self.failed[i] && !self.depleted[i]
    }

    /// Whether node `i` should request charging (at or below its warning
    /// threshold, but not yet depleted).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn needs_charging(&self, i: usize) -> bool {
        !self.depleted[i] && self.level_j[i] <= self.warning_j[i]
    }

    /// Mutable view of the battery-state columns.
    pub fn energy_mut(&mut self) -> EnergyColumnsMut<'_> {
        EnergyColumnsMut {
            capacity_j: &self.capacity_j,
            warning_j: &self.warning_j,
            level_j: &mut self.level_j,
            depleted: &mut self.depleted,
        }
    }

    /// Marks a node hard-failed (see [`SensorNode::mark_failed`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for out-of-range ids.
    pub fn mark_failed(&mut self, id: NodeId) -> Result<(), NetError> {
        match self.failed.get_mut(id.0) {
            Some(f) => {
                *f = true;
                Ok(())
            }
            None => Err(NetError::UnknownNode(id)),
        }
    }

    /// The sink (base station) position.
    pub fn sink(&self) -> Point {
        self.sink
    }

    /// The communication range, metres.
    pub fn comm_range(&self) -> f64 {
        self.comm_range_m
    }

    /// Neighbours of `id`, ascending (empty for out-of-range ids).
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.neighbors_with_len(id).0
    }

    /// Neighbours of `id` with the Euclidean length of each edge,
    /// `positions[id].distance(positions[neighbor])`, computed once at build
    /// time (empty for out-of-range ids).
    #[inline]
    pub fn neighbors_with_len(&self, id: NodeId) -> (&[NodeId], &[f64]) {
        let topo = &*self.topology;
        if id.0 >= topo.node_count() {
            return (&[], &[]);
        }
        let row = topo.row(id.0);
        (&topo.nbr[row.clone()], &topo.len[row])
    }

    /// Nodes within communication range of the sink.
    pub fn sink_neighbors(&self) -> &[NodeId] {
        &self.topology.sink_neighbors
    }

    /// Iterator over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Euclidean distance between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] if either id is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Result<f64, NetError> {
        let pa = *self.positions.get(a.0).ok_or(NetError::UnknownNode(a))?;
        let pb = *self.positions.get(b.0).ok_or(NetError::UnknownNode(b))?;
        Ok(pa.distance(pb))
    }

    /// A mask of currently alive nodes.
    pub fn alive_mask(&self) -> Vec<bool> {
        (0..self.node_count()).map(|i| self.alive(i)).collect()
    }

    /// Connected components among nodes where `mask[i]` is true; each
    /// component is a sorted list of node ids. Masked-out nodes appear in no
    /// component.
    pub fn components(&self, mask: &[bool]) -> Vec<Vec<NodeId>> {
        let n = self.positions.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for s in 0..n {
            if seen[s] || !mask.get(s).copied().unwrap_or(false) {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(u) = stack.pop() {
                comp.push(NodeId(u));
                for &v in self.neighbors(NodeId(u)) {
                    if !seen[v.0] && mask[v.0] {
                        seen[v.0] = true;
                        stack.push(v.0);
                    }
                }
            }
            comp.sort();
            out.push(comp);
        }
        out
    }

    /// Whether the subgraph induced by `mask` is connected (vacuously true for
    /// zero or one alive node).
    pub fn is_connected(&self, mask: &[bool]) -> bool {
        self.components(mask).len() <= 1
    }

    /// Fraction of masked-in nodes that can reach the sink through masked-in
    /// nodes. Returns `1.0` when no node is masked in.
    pub fn sink_reachability(&self, mask: &[bool]) -> f64 {
        let alive: usize = mask.iter().filter(|&&a| a).count();
        if alive == 0 {
            return 1.0;
        }
        let n = self.positions.len();
        let mut reach = vec![false; n];
        let mut stack: Vec<usize> = self
            .sink_neighbors()
            .iter()
            .map(|id| id.0)
            .filter(|&i| mask[i])
            .collect();
        for &s in &stack {
            reach[s] = true;
        }
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(NodeId(u)) {
                if mask[v.0] && !reach[v.0] {
                    reach[v.0] = true;
                    stack.push(v.0);
                }
            }
        }
        reach.iter().filter(|&&r| r).count() as f64 / alive as f64
    }

    /// Panics unless `mask` has exactly one entry per node: the contract of
    /// every masked census algorithm ([`Network::articulation_points`],
    /// [`Network::betweenness`] and the key-node census built on them).
    #[track_caller]
    pub(crate) fn assert_mask_len(&self, mask: &[bool]) {
        assert!(
            mask.len() == self.node_count(),
            "alive mask has {} entries but the network has {} nodes",
            mask.len(),
            self.node_count()
        );
    }

    /// Articulation points (cut vertices) of the subgraph induced by `mask`,
    /// via Tarjan's low-link algorithm. Sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.node_count()`.
    pub fn articulation_points(&self, mask: &[bool]) -> Vec<NodeId> {
        self.assert_mask_len(mask);
        let n = self.positions.len();
        let mut disc = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut is_art = vec![false; n];
        let mut timer = 0usize;

        // Iterative DFS to avoid stack overflow on large nets.
        for root in 0..n {
            if disc[root] != usize::MAX || !mask[root] {
                continue;
            }
            // Stack frames: (vertex, parent, next-neighbour-index).
            let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
            let mut root_children = 0usize;
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            while let Some(&mut (u, parent, ref mut idx)) = stack.last_mut() {
                let row = self.neighbors(NodeId(u));
                if *idx < row.len() {
                    let v = row[*idx].0;
                    *idx += 1;
                    if !mask[v] {
                        continue;
                    }
                    if disc[v] == usize::MAX {
                        disc[v] = timer;
                        low[v] = timer;
                        timer += 1;
                        if u == root {
                            root_children += 1;
                        }
                        stack.push((v, u, 0));
                    } else if v != parent {
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    stack.pop();
                    if let Some(&mut (p, _, _)) = stack.last_mut() {
                        low[p] = low[p].min(low[u]);
                        if p != root && low[u] >= disc[p] {
                            is_art[p] = true;
                        }
                    }
                }
            }
            if root_children > 1 {
                is_art[root] = true;
            }
        }
        (0..n).filter(|&i| is_art[i]).map(NodeId).collect()
    }

    /// Unweighted betweenness centrality (Brandes) of the subgraph induced by
    /// `mask`; masked-out nodes score `0`.
    ///
    /// One BFS per alive source costs O(n·m) in total, and nothing is
    /// allocated per source: the masked adjacency is compacted into a `u32`
    /// CSR once, each node's predecessors fill its own slots of one flat
    /// buffer (one slot per masked in-edge), and `sigma`/`dist`/`delta` are
    /// reset only over the nodes the previous source reached. The result is
    /// bit-identical to the textbook per-source form: `delta[p]` receives
    /// exactly one term per successor `w`, added in reverse BFS order, and
    /// `cb` sums the sources in ascending order, so the order of
    /// predecessors within one `w` never reaches the bits.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.node_count()`.
    pub fn betweenness(&self, mask: &[bool]) -> Vec<f64> {
        self.assert_mask_len(mask);
        let n = self.positions.len();
        let (off, nbr) = self.masked_csr(mask);
        // In-edge slots: node `v` owns `preds[pred_off[v]..pred_off[v + 1]]`.
        let mut pred_off = vec![0u32; n + 1];
        for &v in &nbr {
            pred_off[v as usize + 1] += 1;
        }
        for v in 0..n {
            pred_off[v + 1] += pred_off[v];
        }
        let mut preds = vec![0u32; nbr.len()];
        let mut npred = vec![0u32; n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![u32::MAX; n];
        let mut delta = vec![0.0f64; n];
        // BFS queue and visit order at once: nodes are appended on discovery
        // and `head` walks them in FIFO order.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut cb = vec![0.0f64; n];
        for s in 0..n {
            if !mask[s] {
                continue;
            }
            sigma[s] = 1.0;
            dist[s] = 0;
            order.push(s as u32);
            let mut head = 0;
            while let Some(&u) = order.get(head) {
                head += 1;
                let u = u as usize;
                let next = dist[u] + 1;
                for &v in &nbr[off[u] as usize..off[u + 1] as usize] {
                    let v = v as usize;
                    if dist[v] == u32::MAX {
                        dist[v] = next;
                        order.push(v as u32);
                    }
                    if dist[v] == next {
                        sigma[v] += sigma[u];
                        preds[(pred_off[v] + npred[v]) as usize] = u as u32;
                        npred[v] += 1;
                    }
                }
            }
            // Accumulation in reverse BFS order.
            for &w in order.iter().rev() {
                let w = w as usize;
                let start = pred_off[w] as usize;
                for &p in &preds[start..start + npred[w] as usize] {
                    let p = p as usize;
                    delta[p] += sigma[p] / sigma[w] * (1.0 + delta[w]);
                }
                if w != s {
                    cb[w] += delta[w];
                }
            }
            for &v in &order {
                let v = v as usize;
                sigma[v] = 0.0;
                dist[v] = u32::MAX;
                delta[v] = 0.0;
                npred[v] = 0;
            }
            order.clear();
        }
        // Undirected graph: each pair counted twice.
        for c in &mut cb {
            *c /= 2.0;
        }
        cb
    }

    /// The subgraph induced by `mask` as a `u32` CSR `(off, nbr)`: row `v`
    /// is `nbr[off[v]..off[v + 1]]`, the masked-in neighbours of a
    /// masked-in `v` in adjacency order, and empty for a masked-out `v`.
    fn masked_csr(&self, mask: &[bool]) -> (Vec<u32>, Vec<u32>) {
        let topo = &*self.topology;
        let n = self.positions.len();
        assert!(
            u32::try_from(n.max(topo.nbr.len())).is_ok(),
            "graph too large for a u32 CSR"
        );
        let mut off = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(topo.nbr.len());
        off.push(0);
        for v in 0..n {
            if mask[v] {
                nbr.extend(
                    topo.nbr[topo.row(v)]
                        .iter()
                        .filter(|u| mask[u.0])
                        .map(|u| u.0 as u32),
                );
            }
            off.push(nbr.len() as u32);
        }
        (off, nbr)
    }
}

/// Nodes bucketed into a uniform grid with cell side = communication
/// range, so a node's neighbours lie in its own and the eight surrounding
/// cells.
struct Grid<'a> {
    positions: &'a [Point],
    /// Node ids per cell, ascending.
    buckets: HashMap<(i64, i64), Vec<usize>>,
    r2: f64,
}

impl<'a> Grid<'a> {
    fn new(positions: &'a [Point], comm_range_m: f64) -> Self {
        let (min_x, min_y) = grid_origin(positions);
        let inv_cell = 1.0 / comm_range_m;
        let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, &p) in positions.iter().enumerate() {
            buckets
                .entry(grid_cell(p, min_x, min_y, inv_cell))
                .or_default()
                .push(i);
        }
        Grid {
            positions,
            buckets,
            r2: comm_range_m * comm_range_m,
        }
    }

    /// Calls `f(i, j, in_range)` for every node `i` in `rows` and every node
    /// `j != i` in `i`'s 3×3 cells; `in_range` is whether `j` is within
    /// range of `i`. Nodes are visited cell by cell (in no fixed order), so
    /// a cell's nodes share its nine bucket lookups.
    fn for_each_candidate(&self, rows: &Range<usize>, mut f: impl FnMut(usize, usize, bool)) {
        const NONE: &[usize] = &[];
        for (&(cx, cy), members) in &self.buckets {
            if !members.iter().any(|i| rows.contains(i)) {
                continue;
            }
            let mut near = [NONE; 9];
            for (k, slot) in near.iter_mut().enumerate() {
                let cell = (cx + k as i64 / 3 - 1, cy + k as i64 % 3 - 1);
                if let Some(bucket) = self.buckets.get(&cell) {
                    *slot = bucket;
                }
            }
            for &i in members.iter().filter(|i| rows.contains(i)) {
                let p = self.positions[i];
                for &j in near.iter().copied().flatten() {
                    if j != i {
                        f(i, j, p.distance_sq(self.positions[j]) <= self.r2);
                    }
                }
            }
        }
    }
}

/// Runs `f` on every part, on one scoped worker per part when there is
/// more than one.
fn fan_out<P: Send>(parts: Vec<P>, f: impl Fn(P) + Sync) {
    if parts.len() <= 1 {
        parts.into_iter().for_each(f);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || f(part));
        }
    });
}

/// Origin (minimum x/y) of the uniform grid the adjacency build buckets
/// `positions` into.
///
/// Returns `(0.0, 0.0)` for an empty slice.
fn grid_origin(positions: &[Point]) -> (f64, f64) {
    if positions.is_empty() {
        return (0.0, 0.0);
    }
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    for p in positions {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
    }
    (min_x, min_y)
}

/// Cell coordinates of `p` in a uniform grid anchored at `(min_x, min_y)`
/// with cell side `1 / inv_cell`.
#[inline]
fn grid_cell(p: Point, min_x: f64, min_y: f64, inv_cell: f64) -> (i64, i64) {
    (
        ((p.x - min_x) * inv_cell).floor() as i64,
        ((p.y - min_y) * inv_cell).floor() as i64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Region;

    /// A 5-node path graph: 0 - 1 - 2 - 3 - 4 spaced 10 m apart, range 12 m.
    fn path_net() -> Network {
        let nodes = (0..5)
            .map(|i| SensorNode::new(Point::new(10.0 * i as f64, 0.0)))
            .collect();
        Network::build(nodes, Point::new(0.0, 0.0), 12.0)
    }

    fn all_mask(net: &Network) -> Vec<bool> {
        vec![true; net.node_count()]
    }

    /// Brute-force articulation points: removing v strictly increases the
    /// number of connected components among the remaining masked vertices.
    fn brute_articulation(net: &Network, mask: &[bool]) -> Vec<NodeId> {
        let before = net.components(mask).len();
        let mut out = Vec::new();
        for v in 0..net.node_count() {
            if !mask[v] {
                continue;
            }
            let mut m = mask.to_vec();
            m[v] = false;
            if net.components(&m).len() > before {
                out.push(NodeId(v));
            }
        }
        out
    }

    #[test]
    fn path_graph_interior_nodes_are_cut_vertices() {
        let net = path_net();
        let arts = net.articulation_points(&all_mask(&net));
        assert_eq!(arts, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn articulation_matches_brute_force_on_random_nets() {
        for seed in 0..10 {
            let nodes = crate::deploy::uniform(&Region::square(60.0), 25, seed);
            let net = Network::build(nodes, Point::new(30.0, 30.0), 18.0);
            let mask = all_mask(&net);
            let fast = net.articulation_points(&mask);
            let brute = brute_articulation(&net, &mask);
            assert_eq!(fast, brute, "seed {seed}");
        }
    }

    #[test]
    fn articulation_respects_mask() {
        let net = path_net();
        let mut mask = all_mask(&net);
        mask[4] = false; // path 0-1-2-3: arts are 1, 2
        assert_eq!(net.articulation_points(&mask), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn components_split_when_middle_dies() {
        let net = path_net();
        let mut mask = all_mask(&net);
        mask[2] = false;
        let comps = net.components(&mask);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(3), NodeId(4)]);
        assert!(!net.is_connected(&mask));
    }

    #[test]
    fn sink_reachability_drops_after_cut() {
        let net = path_net(); // sink at (0,0), neighbour of node 0 only
        let mask = all_mask(&net);
        assert_eq!(net.sink_reachability(&mask), 1.0);
        let mut cut = mask.clone();
        cut[1] = false;
        // Only node 0 can still reach the sink out of 4 alive.
        assert!((net.sink_reachability(&cut) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn betweenness_peaks_at_path_center() {
        let net = path_net();
        let cb = net.betweenness(&all_mask(&net));
        // Path P5 betweenness: [0, 3, 4, 3, 0].
        let expect = [0.0, 3.0, 4.0, 3.0, 0.0];
        for (got, want) in cb.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "cb = {cb:?}");
        }
    }

    #[test]
    #[should_panic(expected = "alive mask has 4 entries but the network has 5 nodes")]
    fn betweenness_rejects_a_short_mask() {
        path_net().betweenness(&[true; 4]);
    }

    #[test]
    #[should_panic(expected = "alive mask has 6 entries but the network has 5 nodes")]
    fn articulation_points_rejects_a_long_mask() {
        path_net().articulation_points(&[true; 6]);
    }

    #[test]
    fn unknown_node_errors() {
        let net = path_net();
        assert!(matches!(
            net.node(NodeId(99)),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn empty_network_is_trivially_connected() {
        let net = Network::build(Vec::new(), Point::ORIGIN, 10.0);
        assert!(net.is_connected(&[]));
        assert_eq!(net.sink_reachability(&[]), 1.0);
    }

    #[test]
    fn grid_adjacency_matches_all_pairs_scan() {
        for seed in 0..8 {
            let nodes = crate::deploy::uniform(&Region::square(120.0), 60, seed);
            let net = Network::build(nodes.clone(), Point::new(60.0, 60.0), 22.0);
            let n = nodes.len();
            let r2 = 22.0f64 * 22.0;
            let mut expect = vec![Vec::new(); n];
            for i in 0..n {
                for j in (i + 1)..n {
                    if nodes[i].position().distance_sq(nodes[j].position()) <= r2 {
                        expect[i].push(NodeId(j));
                        expect[j].push(NodeId(i));
                    }
                }
            }
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(net.neighbors(NodeId(i)), &want[..], "seed {seed} node {i}");
            }
        }
    }

    #[test]
    fn sink_neighbors_detected() {
        // Sink at (0,0), range 12: nodes 0 (d=0) and 1 (d=10) qualify.
        let net = path_net();
        assert_eq!(net.sink_neighbors(), &[NodeId(0), NodeId(1)]);
    }

    /// Bit patterns of a topology's CSR arrays, for exact comparison.
    fn csr_bits(net: &Network) -> (Vec<usize>, Vec<NodeId>, Vec<u64>, Vec<NodeId>) {
        let topo = &*net.topology;
        (
            topo.off.clone(),
            topo.nbr.clone(),
            topo.len.iter().map(|l| l.to_bits()).collect(),
            topo.sink_neighbors.clone(),
        )
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Above the parallel threshold so the threaded path actually runs.
        let n = PARALLEL_BUILD_MIN_NODES + 808;
        let nodes = crate::deploy::uniform(&Region::square(400.0), n, 42);
        let seq = Network::build(nodes.clone(), Point::new(200.0, 200.0), 12.0);
        let seq_csr = csr_bits(&seq);
        for threads in [2, 3, 8] {
            let par =
                Network::build_with_threads(nodes.clone(), Point::new(200.0, 200.0), 12.0, threads);
            assert!(csr_bits(&par) == seq_csr, "threads {threads}");
        }
    }

    #[test]
    fn edge_lengths_are_the_exact_euclidean_distances() {
        let nodes = crate::deploy::uniform(&Region::square(150.0), 200, 5);
        let net = Network::build(nodes, Point::new(75.0, 75.0), 25.0);
        let positions = net.positions();
        let mut edges = 0;
        for v in net.ids() {
            let (nbrs, lens) = net.neighbors_with_len(v);
            assert_eq!(nbrs, net.neighbors(v));
            assert_eq!(nbrs.len(), lens.len());
            for (u, len) in nbrs.iter().zip(lens) {
                let want = positions[v.0].distance(positions[u.0]);
                assert_eq!(len.to_bits(), want.to_bits(), "edge {} -> {}", v.0, u.0);
                edges += 1;
            }
        }
        assert!(edges > 0);
        assert_eq!(net.neighbors_with_len(NodeId(200)), (&[][..], &[][..]));
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let nodes = crate::deploy::uniform(&Region::square(90.0), 40, 9);
        let net = Network::build(nodes, Point::new(45.0, 45.0), 20.0);
        let streamed = serde_json::to_string(&net).unwrap();
        let back: Network = serde_json::from_str(&streamed).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), streamed);
        assert!(csr_bits(&back) == csr_bits(&net));
    }

    #[test]
    fn a_kept_encoder_tracks_levels_and_flags() {
        let nodes = crate::deploy::uniform(&Region::square(90.0), 40, 9);
        let mut net = Network::build(nodes, Point::new(45.0, 45.0), 20.0);
        let mut encoder = NetworkEncoder::default();
        let encode = |encoder: &mut NetworkEncoder, net: &Network| {
            let mut out = String::new();
            encoder.encode(net, &mut out).unwrap();
            assert_eq!(out, serde_json::to_string(net).unwrap());
            out
        };
        let first = encode(&mut encoder, &net);
        {
            let mut cols = net.energy_mut();
            cols.discharge(3, 17.25);
            cols.set_level(7, 0.0);
        }
        net.mark_failed(NodeId(11)).unwrap();
        let second = encode(&mut encoder, &net);
        assert_ne!(first, second);
        assert!(second.contains("\"depleted\":true"));
        assert!(second.contains("\"failed\":true"));
        // Another network of the same size is encoded afresh, and so is the
        // first again.
        let other = Network::build(
            crate::deploy::uniform(&Region::square(90.0), 40, 10),
            Point::new(45.0, 45.0),
            20.0,
        );
        encode(&mut encoder, &other);
        assert_eq!(encode(&mut encoder, &net), second);
    }

    #[test]
    fn malformed_adjacency_is_rejected() {
        let net = path_net();
        let with_adj = |rows: Vec<Vec<NodeId>>| {
            let text = serde_json::to_string(&net).unwrap();
            let Ok(Value::Map(mut entries)) = serde_json::from_str(&text) else {
                panic!("network encodes as a map")
            };
            let rows = serde_json::from_str(&serde_json::to_string(&rows).unwrap()).unwrap();
            entries.iter_mut().find(|(k, _)| k == "adj").unwrap().1 = rows;
            Network::from_value(&Value::Map(entries))
        };
        assert!(
            with_adj(vec![vec![NodeId(1)], vec![NodeId(0)]]).is_err(),
            "row count"
        );
        assert!(
            with_adj(vec![vec![NodeId(9)]; 5]).is_err(),
            "neighbour out of range"
        );
    }

    #[test]
    fn clones_share_the_topology() {
        let net = path_net();
        let copy = net.clone();
        assert!(Arc::ptr_eq(&net.topology, &copy.topology));
    }
}
