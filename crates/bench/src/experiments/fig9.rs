//! `fig9` — dead-node count over time under different chargers: benign
//! policies keep the network alive; the spoofing charger presides over its
//! collapse while radiating like a model citizen.

use wrsn::core::attack::CsaAttackPolicy;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::{ChargerPolicy, IdlePolicy, World};

use crate::experiments::common::dead_at;
use crate::table::Table;

/// Network size.
pub const NODES: usize = 100;
/// Seed.
pub const SEED: u64 = 1;
/// Sample interval for the time series, hours.
pub const STEP_H: f64 = 48.0;

fn run_policy(label: &str, rec: &mut dyn Recorder) -> (String, World) {
    let scenario = Scenario::paper_scale(NODES, SEED);
    let mut world = scenario.build();
    match label {
        "absent" => {
            world.run_with(&mut IdlePolicy, rec).expect("run");
        }
        "njnp" => {
            world
                .run_with(&mut wrsn::charge::Njnp::new(), rec)
                .expect("run");
        }
        "edf" => {
            world
                .run_with(&mut wrsn::charge::EarliestDeadlineFirst::new(), rec)
                .expect("run");
        }
        "csa" => {
            let mut p = CsaAttackPolicy::new(scenario.tide_config());
            world.run_with(&mut p, rec).expect("run");
            return (p.name().to_string(), world);
        }
        other => unreachable!("unknown label {other}"),
    }
    (label.to_string(), world)
}

/// Runs the experiment, observing all four policy runs through `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let labels = ["absent", "njnp", "edf", "csa"];
    let runs: Vec<(String, World)> = labels.iter().map(|l| run_policy(l, rec)).collect();

    let horizon_h = Scenario::paper_scale(NODES, SEED).horizon_s / 3600.0;
    let mut table = Table::new(
        format!("fig9: dead nodes over time ({NODES} nodes, seed {SEED})"),
        &["time (h)", "absent", "njnp", "edf", "attack-csa"],
    );
    let mut t_h = 0.0;
    while t_h <= horizon_h + 1e-9 {
        let mut row = vec![format!("{t_h:.0}")];
        for (_, world) in &runs {
            row.push(dead_at(world.trace().death_times(), t_h * 3600.0).to_string());
        }
        table.push(row);
        t_h += STEP_H;
    }

    let mut lifetimes = Table::new(
        "fig9b: network lifetime (sink-reachability threshold crossing)",
        &["policy", "lifetime (h)"],
    );
    for (name, world) in &runs {
        lifetimes.push(vec![
            name.clone(),
            world
                .network_lifetime_s()
                .map(|t| format!("{:.1}", t / 3600.0))
                .unwrap_or_else(|| "survived".to_string()),
        ]);
    }

    vec![table, lifetimes]
}
