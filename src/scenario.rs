//! Shared experiment scenarios.
//!
//! Every evaluation run — examples, integration tests, and all `wrsn-bench`
//! experiments — builds its world through [`Scenario`], so parameters are
//! stated once and sweeps vary exactly one knob at a time. The defaults model
//! a *mature* network: batteries at staggered mid-life levels, as after weeks
//! of operation, which is when charging requests (and attack windows) are
//! spread out in time.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wrsn_core::tide::TideConfig;
use wrsn_net::energy::Battery;
use wrsn_net::node::SensorNode;
use wrsn_net::{deploy, Network, NodeId, Point, Region};
use wrsn_sim::{MobileCharger, World, WorldConfig};

/// How nodes are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// Uniform random over the field.
    Uniform,
    /// Gaussian clusters (`count`, `sigma` metres).
    Clustered {
        /// Number of clusters.
        count: usize,
        /// Cluster standard deviation, metres.
        sigma: f64,
    },
    /// Two clusters joined by a thin bridge (pronounced key nodes).
    Corridor,
}

/// A parameterised experiment world.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of sensor nodes.
    pub num_nodes: usize,
    /// Square field side, metres.
    pub field_side_m: f64,
    /// Node communication range, metres.
    pub comm_range_m: f64,
    /// Node battery capacity, joules.
    pub battery_capacity_j: f64,
    /// Initial battery level range as fractions of capacity.
    pub level_range: (f64, f64),
    /// Deployment shape.
    pub deployment: Deployment,
    /// Charger travel speed, m/s.
    pub mc_speed_mps: f64,
    /// Charger energy budget, joules.
    pub mc_energy_j: f64,
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// Whether the world has a depot (at the sink) where the charger can swap
    /// its own battery. Off by default: the classical TIDE formulation uses a
    /// finite MC energy budget.
    pub depot: bool,
    /// RNG seed (deployment and levels).
    pub seed: u64,
}

impl Scenario {
    /// The evaluation's default scale: `n` nodes at constant density
    /// (~1 node / 100 m²), 20 m radio range, 2 kJ batteries at staggered
    /// mid-life levels.
    pub fn paper_scale(n: usize, seed: u64) -> Self {
        Scenario {
            num_nodes: n,
            field_side_m: (n as f64 * 100.0).sqrt(),
            comm_range_m: 20.0,
            battery_capacity_j: 2_000.0,
            level_range: (0.25, 0.8),
            deployment: Deployment::Uniform,
            mc_speed_mps: 5.0,
            mc_energy_j: 2.0e6,
            horizon_s: 2.0e6,
            depot: false,
            seed,
        }
    }

    /// Enables the depot (battery swaps at the sink), returning the scenario.
    pub fn with_depot(mut self) -> Self {
        self.depot = true;
        self
    }

    /// The field region.
    fn region(&self) -> Region {
        Region::square(self.field_side_m)
    }

    /// The sink position (field centre).
    pub fn sink(&self) -> Point {
        self.region().center()
    }

    /// Builds the world: deployed nodes with staggered levels, charger parked
    /// at the sink.
    pub fn build(&self) -> World {
        let region = self.region();
        let raw = match self.deployment {
            Deployment::Uniform => deploy::uniform(&region, self.num_nodes, self.seed),
            Deployment::Clustered { count, sigma } => {
                deploy::clustered(&region, self.num_nodes, count, sigma, self.seed)
            }
            Deployment::Corridor => {
                let per = (self.num_nodes.saturating_sub(4)) / 2;
                deploy::corridor(
                    per.max(2),
                    self.num_nodes.saturating_sub(2 * per.max(2)).max(2),
                    self.seed,
                )
                .1
            }
        };
        let nodes: Vec<SensorNode> = raw
            .into_iter()
            .map(|n| {
                SensorNode::with_battery(
                    n.position(),
                    Battery::with_capacity(self.battery_capacity_j),
                )
            })
            .collect();
        let sink = match self.deployment {
            Deployment::Corridor => Point::new(10.0, 50.0),
            _ => self.sink(),
        };
        // Threaded adjacency build: identical network at any thread count,
        // ~linear speedup on the O(n) neighbour scan for large deployments.
        let net = Network::build_with_threads(
            nodes,
            sink,
            self.comm_range_m,
            wrsn_sim::parallel::threads(),
        );
        let charger = MobileCharger::standard(sink)
            .with_speed(self.mc_speed_mps)
            .with_energy(self.mc_energy_j);
        let mut world = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: self.horizon_s,
                depot: self.depot.then_some(sink),
                ..WorldConfig::default()
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(0x5eed));
        let (lo, hi) = self.level_range;
        for i in 0..world.network().node_count() {
            let frac = rng.gen_range(lo..hi);
            world
                .set_battery_level(NodeId(i), self.battery_capacity_j * frac)
                .expect("node exists");
        }
        world
    }

    /// The matching attack configuration (the charger fields are filled in at
    /// plan time from the live world).
    pub fn tide_config(&self) -> TideConfig {
        TideConfig {
            speed_mps: self.mc_speed_mps,
            budget_j: self.mc_energy_j,
            ..TideConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = Scenario::paper_scale(40, 1).build();
        let b = Scenario::paper_scale(40, 1).build();
        for i in 0..a.network().node_count() {
            assert_eq!(a.network().positions()[i], b.network().positions()[i]);
            assert_eq!(a.network().levels_j()[i], b.network().levels_j()[i]);
        }
    }

    #[test]
    fn levels_are_inside_the_requested_range() {
        let s = Scenario::paper_scale(50, 7);
        let w = s.build();
        let net = w.network();
        for i in 0..net.node_count() {
            let frac = net.levels_j()[i] / net.capacities_j()[i];
            assert!(
                (s.level_range.0 - 1e-9..s.level_range.1 + 1e-9).contains(&frac),
                "frac = {frac}"
            );
        }
    }

    #[test]
    fn density_is_constant_across_sizes() {
        let d = |n: usize| {
            let s = Scenario::paper_scale(n, 0);
            n as f64 / s.region().area()
        };
        assert!((d(100) - d(400)).abs() < 1e-12);
    }

    #[test]
    fn corridor_deployment_builds() {
        let w = Scenario {
            deployment: Deployment::Corridor,
            ..Scenario::paper_scale(24, 3)
        }
        .build();
        assert_eq!(w.network().node_count(), 24);
    }

    #[test]
    fn with_depot_enables_battery_swaps() {
        let s = Scenario::paper_scale(10, 3).with_depot();
        assert!(s.depot);
        let w = s.build();
        // The depot is at the sink; a recharge from anywhere succeeds.
        assert!(w.charger().capacity_j() > 0.0);
    }

    #[test]
    fn clustered_deployment_builds() {
        let w = Scenario {
            deployment: Deployment::Clustered {
                count: 3,
                sigma: 10.0,
            },
            ..Scenario::paper_scale(30, 3)
        }
        .build();
        assert_eq!(w.network().node_count(), 30);
    }
}
