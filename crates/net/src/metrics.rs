//! Network-level health metrics: survival, coverage, connectivity.

use serde::{Deserialize, Serialize};

use crate::geom::Point;
use crate::graph::Network;

/// A snapshot of network health at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Number of alive nodes.
    pub alive: usize,
    /// Total number of nodes.
    pub total: usize,
    /// Fraction of alive nodes that can reach the sink.
    pub sink_reachability: f64,
    /// Fraction of the field covered by alive nodes' sensing disks.
    pub coverage: f64,
    /// Whether the alive subgraph is connected.
    pub connected: bool,
}

/// Computes a health snapshot of `net` with the given sensing radius used for
/// coverage estimation (`coverage_grid` sample points per axis).
pub fn snapshot(net: &Network, sensing_radius_m: f64, coverage_grid: usize) -> HealthSnapshot {
    let mask = net.alive_mask();
    let alive = mask.iter().filter(|&&a| a).count();
    HealthSnapshot {
        alive,
        total: net.node_count(),
        sink_reachability: net.sink_reachability(&mask),
        coverage: coverage(net, &mask, sensing_radius_m, coverage_grid),
        connected: net.is_connected(&mask),
    }
}

/// Monte-Carlo-free coverage estimate: fraction of a `grid × grid` lattice of
/// sample points (over the nodes' bounding box) within `sensing_radius_m` of
/// an alive node. A degenerate bounding-box axis (single node, collinear
/// deployment) is padded by `sensing_radius_m` on both sides so such
/// deployments still report the coverage their sensing disks provide.
/// Returns `0.0` for an empty network or a non-positive sensing radius.
///
/// Alive nodes are bucketed into square cells no smaller than the sensing
/// radius, so a sample point tests only the nodes in the (at most 3 × 3)
/// cells within reach. The per-node test is the same as a scan of every
/// node, so the count is too.
fn coverage(net: &Network, mask: &[bool], sensing_radius_m: f64, grid: usize) -> f64 {
    if net.node_count() == 0 || grid == 0 || sensing_radius_m <= 0.0 {
        return 0.0;
    }
    let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for p in net.positions() {
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    if x1 <= x0 {
        x0 -= sensing_radius_m;
        x1 += sensing_radius_m;
    }
    if y1 <= y0 {
        y0 -= sensing_radius_m;
        y1 += sensing_radius_m;
    }
    let r2 = sensing_radius_m * sensing_radius_m;
    let cells = Cells::new(net, mask, (x0, y0, x1, y1), sensing_radius_m);
    let mut covered = 0usize;
    for gy in 0..grid {
        for gx in 0..grid {
            let px = x0 + (x1 - x0) * (gx as f64 + 0.5) / grid as f64;
            let py = y0 + (y1 - y0) * (gy as f64 + 0.5) / grid as f64;
            let hit = cells.near(px, py).any(|p| {
                let dx = p.x - px;
                let dy = p.y - py;
                dx * dx + dy * dy <= r2
            });
            if hit {
                covered += 1;
            }
        }
    }
    covered as f64 / (grid * grid) as f64
}

/// The alive nodes of [`coverage`] bucketed into a uniform grid of cells,
/// in CSR form: cell `k` holds the node ids `ids[start[k]..start[k + 1]]`.
struct Cells<'a> {
    positions: &'a [Point],
    x0: f64,
    y0: f64,
    side: f64,
    nx: usize,
    ny: usize,
    /// How far a query looks: the sensing radius plus a margin for the
    /// rounding of the distance test and of the cell-index arithmetic.
    reach: f64,
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl<'a> Cells<'a> {
    fn new(net: &'a Network, mask: &[bool], bbox: (f64, f64, f64, f64), radius: f64) -> Self {
        let (x0, y0, x1, y1) = bbox;
        let magnitude = x0.abs().max(x1.abs()).max(y0.abs()).max(y1.abs());
        let reach = radius * (1.0 + 1e-9) + 4.0 * f64::EPSILON * magnitude;
        let n = net.node_count();
        let alive = |i: &usize| mask.get(*i).copied().unwrap_or(false);
        // Cells are never narrower than `reach`, so a query spans at most
        // three per axis. Their count is capped by widening them.
        let cap = (0..n).filter(alive).count() + 64;
        let mut side = reach;
        let span = |side: f64| {
            let nx = ((x1 - x0) / side) as usize;
            let ny = ((y1 - y0) / side) as usize;
            (nx.saturating_add(1), ny.saturating_add(1))
        };
        let (mut nx, mut ny) = span(side);
        while nx.saturating_mul(ny) > cap {
            side *= 2.0;
            (nx, ny) = span(side);
        }
        let mut cells = Cells {
            positions: net.positions(),
            x0,
            y0,
            side,
            nx,
            ny,
            reach,
            start: vec![0; nx * ny + 1],
            ids: Vec::new(),
        };
        // Counting sort: `start[k]` counts cell `k`, then holds the end of
        // its run, then (filled back to front) its start.
        for i in (0..n).filter(alive) {
            let k = cells.cell_of(i);
            cells.start[k] += 1;
        }
        for k in 1..=nx * ny {
            cells.start[k] += cells.start[k - 1];
        }
        cells.ids.resize(cells.start[nx * ny] as usize, 0);
        for i in (0..n).rev().filter(alive) {
            let k = cells.cell_of(i);
            cells.start[k] -= 1;
            cells.ids[cells.start[k] as usize] = i as u32;
        }
        cells
    }

    /// Column of `x`: monotone in `x`, clamped to the grid.
    fn col(&self, x: f64) -> usize {
        (((x - self.x0) / self.side) as usize).min(self.nx - 1)
    }

    /// Row of `y`: monotone in `y`, clamped to the grid.
    fn row(&self, y: f64) -> usize {
        (((y - self.y0) / self.side) as usize).min(self.ny - 1)
    }

    fn cell_of(&self, i: usize) -> usize {
        let p = self.positions[i];
        self.row(p.y) * self.nx + self.col(p.x)
    }

    /// Every bucketed node within `reach` of `(px, py)` on both axes, and
    /// possibly some farther ones.
    fn near(&self, px: f64, py: f64) -> impl Iterator<Item = Point> + '_ {
        let cols = self.col(px - self.reach)..=self.col(px + self.reach);
        (self.row(py - self.reach)..=self.row(py + self.reach)).flat_map(move |r| {
            let row = r * self.nx;
            let span = self.start[row + *cols.start()] as usize
                ..self.start[row + *cols.end() + 1] as usize;
            self.ids[span].iter().map(|&i| self.positions[i as usize])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;
    use crate::geom::Region;
    use crate::node::SensorNode;

    fn small_net() -> Network {
        let nodes = deploy::grid(&Region::square(40.0), 4, 4, 0.0, 0);
        Network::build(nodes, Point::new(20.0, 20.0), 15.0)
    }

    #[test]
    fn fresh_network_snapshot_is_healthy() {
        let net = small_net();
        let s = snapshot(&net, 10.0, 20);
        assert_eq!(s.alive, 16);
        assert_eq!(s.total, 16);
        assert_eq!(s.sink_reachability, 1.0);
        assert!(s.connected);
        assert!(s.coverage > 0.9, "coverage = {}", s.coverage);
    }

    #[test]
    fn killing_nodes_reduces_coverage_and_survival() {
        let mut net = small_net();
        for i in 0..8 {
            let cap = net.capacities_j()[i];
            net.energy_mut().discharge(i, cap);
        }
        let s = snapshot(&net, 10.0, 20);
        assert_eq!(s.alive, 8);
        assert_eq!(s.total, 16);
        assert!(s.coverage < 0.9);
    }

    #[test]
    fn coverage_zero_for_empty_net() {
        let net = Network::build(Vec::new(), Point::ORIGIN, 10.0);
        assert_eq!(coverage(&net, &[], 5.0, 10), 0.0);
    }

    #[test]
    fn coverage_positive_for_single_point_bbox() {
        // A lone node covers a disk; the padded bbox is a 2r × 2r square, so
        // the lattice estimate approaches π/4 ≈ 0.785.
        let net = Network::build(vec![SensorNode::new(Point::ORIGIN)], Point::ORIGIN, 10.0);
        let c = coverage(&net, &[true], 5.0, 40);
        assert!(
            (c - std::f64::consts::FRAC_PI_4).abs() < 0.05,
            "coverage = {c}"
        );
        // A dead lone node still covers nothing.
        assert_eq!(coverage(&net, &[false], 5.0, 40), 0.0);
    }

    #[test]
    fn coverage_positive_for_collinear_deployment() {
        // Five nodes on a horizontal line: the y-axis bbox is degenerate, but
        // the sensing disks obviously cover area. The padded band is
        // 60 m × 10 m; disks of radius 5 m every 10 m cover most of it.
        let nodes: Vec<SensorNode> = (0..5)
            .map(|i| SensorNode::new(Point::new(10.0 * i as f64, 20.0)))
            .collect();
        let net = Network::build(nodes, Point::new(20.0, 20.0), 15.0);
        let c = coverage(&net, &[true; 5], 5.0, 40);
        assert!(c > 0.5, "line deployment must report coverage, got {c}");
        assert!(c <= 1.0);
    }

    /// The scan [`coverage`] replaced: every sample point tests every node.
    fn coverage_by_scan(net: &Network, mask: &[bool], radius: f64, grid: usize) -> f64 {
        if net.node_count() == 0 || grid == 0 || radius <= 0.0 {
            return 0.0;
        }
        let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
        for p in net.positions() {
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
        if x1 <= x0 {
            x0 -= radius;
            x1 += radius;
        }
        if y1 <= y0 {
            y0 -= radius;
            y1 += radius;
        }
        let r2 = radius * radius;
        let mut covered = 0usize;
        for gy in 0..grid {
            for gx in 0..grid {
                let px = x0 + (x1 - x0) * (gx as f64 + 0.5) / grid as f64;
                let py = y0 + (y1 - y0) * (gy as f64 + 0.5) / grid as f64;
                let hit = net.positions().iter().enumerate().any(|(i, p)| {
                    mask.get(i).copied().unwrap_or(false) && {
                        let dx = p.x - px;
                        let dy = p.y - py;
                        dx * dx + dy * dy <= r2
                    }
                });
                if hit {
                    covered += 1;
                }
            }
        }
        covered as f64 / (grid * grid) as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Bucketed coverage counts exactly what the scan counts, over
        /// random masks, single nodes, collinear (degenerate) bounding
        /// boxes and radii from a sliver to more than the whole field.
        #[test]
        fn bucketed_coverage_equals_the_scan(
            n in 1usize..40,
            seed in 0u64..1_000,
            shape in 0usize..3,
            radius in 0.05f64..300.0,
            grid in 1usize..24,
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 40),
        ) {
            let n = if shape == 0 { 1 } else { n };
            let nodes: Vec<SensorNode> = deploy::uniform(&Region::square(100.0), n, seed)
                .into_iter()
                .map(|node| {
                    let p = node.position();
                    // Shape 2 puts every node on one horizontal line.
                    SensorNode::new(if shape == 2 { Point::new(p.x, 42.0) } else { p })
                })
                .collect();
            let net = Network::build(nodes, Point::new(50.0, 50.0), 20.0);
            let mask: Vec<bool> = mask_bits[..n].to_vec();
            let got = coverage(&net, &mask, radius, grid);
            let want = coverage_by_scan(&net, &mask, radius, grid);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn bucketed_coverage_equals_the_scan_on_a_dense_field() {
        // Many nodes per cell, and a sensing radius far below the field:
        // the cell cap widens the cells.
        let nodes = deploy::uniform(&Region::square(1000.0), 3000, 4);
        let net = Network::build(nodes, Point::new(500.0, 500.0), 30.0);
        let mask: Vec<bool> = (0..3000).map(|i| i % 3 != 0).collect();
        for radius in [0.01, 3.0, 12.5, 40.0, 2000.0] {
            assert_eq!(
                coverage(&net, &mask, radius, 30).to_bits(),
                coverage_by_scan(&net, &mask, radius, 30).to_bits(),
                "radius {radius}"
            );
        }
    }
}
