//! `fig8` — detection ratio vs. detector threshold for honest charging, CSA
//! and the window-oblivious eager spoofer ("without being detected").
//!
//! Each policy runs once per seed; thresholds are swept *post hoc* over the
//! recorded traces, which is what a base station replaying its logs would do.

use wrsn::core::attack::{CsaAttackPolicy, EagerSpoofPolicy};
use wrsn::core::detect::{Detector, EnergyReportAudit, TrajectoryAudit};
use wrsn::net::NodeId;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::World;

use crate::stats::mean_std;
use crate::table::{f, Table};

/// Network size.
pub const NODES: usize = 100;
/// Seeds per policy.
pub const SEEDS: u64 = 3;

/// Energy-audit efficiency thresholds swept.
pub const EFFICIENCY_THRESHOLDS: &[f64] = &[0.1, 0.3, 0.5, 0.7, 0.9];
/// Trajectory-audit response deadlines swept, seconds.
pub const RESPONSE_DEADLINES: &[f64] = &[100e3, 300e3, 600e3, 1_000e3];

struct Run {
    world: World,
    /// Nodes whose detection status we evaluate (served/targeted nodes).
    victims: Vec<NodeId>,
}

fn runs_for(policy_kind: &str, seed: u64, rec: &mut dyn Recorder) -> Run {
    let scenario = Scenario::paper_scale(NODES, seed);
    let mut world = scenario.build();
    let victims = match policy_kind {
        "honest" => {
            world
                .run_with(&mut wrsn::charge::Njnp::new(), rec)
                .expect("run");
            world.trace().sessions().iter().map(|s| s.node).collect()
        }
        "csa" => {
            let mut p = CsaAttackPolicy::new(scenario.tide_config());
            world.run_with(&mut p, rec).expect("run");
            p.targets().iter().map(|&(n, _)| n).collect()
        }
        "eager" => {
            let mut p = EagerSpoofPolicy::new(3_000.0);
            world.run_with(&mut p, rec).expect("run");
            world.trace().sessions().iter().map(|s| s.node).collect()
        }
        other => unreachable!("unknown policy {other}"),
    };
    let mut victims: Vec<NodeId> = victims;
    victims.sort();
    victims.dedup();
    Run { world, victims }
}

/// Runs the experiment, observing every run through `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let policies = ["honest", "csa", "eager"];
    let runs: Vec<Vec<Run>> = policies
        .iter()
        .map(|p| (0..SEEDS).map(|s| runs_for(p, s, rec)).collect())
        .collect();

    let mut energy = Table::new(
        "fig8a: energy-report-audit detection ratio vs efficiency threshold",
        &["threshold", "honest-njnp", "csa", "eager-spoof"],
    );
    for &thr in EFFICIENCY_THRESHOLDS {
        let mut row = vec![f(thr, 1)];
        for policy_runs in &runs {
            let ratios: Vec<f64> = policy_runs
                .iter()
                .filter_map(|r| {
                    EnergyReportAudit {
                        efficiency_threshold: thr,
                        ..EnergyReportAudit::default()
                    }
                    .analyze(&r.world)
                    .detection_ratio(&r.victims)
                })
                .collect();
            row.push(f(mean_std(&ratios).0, 2));
        }
        energy.push(row);
    }

    let mut trajectory = Table::new(
        "fig8b: trajectory-audit detection ratio vs response deadline",
        &["deadline (s)", "honest-njnp", "csa", "eager-spoof"],
    );
    for &dl in RESPONSE_DEADLINES {
        let mut row = vec![f(dl, 0)];
        for policy_runs in &runs {
            let ratios: Vec<f64> = policy_runs
                .iter()
                .filter_map(|r| {
                    TrajectoryAudit { max_response_s: dl }
                        .analyze(&r.world)
                        .detection_ratio(&r.victims)
                })
                .collect();
            row.push(f(mean_std(&ratios).0, 2));
        }
        trajectory.push(row);
    }

    vec![energy, trajectory]
}
