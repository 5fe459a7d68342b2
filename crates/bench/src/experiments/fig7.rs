//! `fig7` — sensitivity of the executed attack to the charger's speed and
//! energy budget.

use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;

use crate::experiments::common::run_csa_with;
use crate::stats::mean_std;
use crate::table::{f, pm, Table};

/// Network size used for the sweeps.
pub const NODES: usize = 100;
/// Seeds per point.
pub const SEEDS: u64 = 3;

/// Charger speeds swept, m/s. Sub-m/s speeds matter: stealth windows are
/// only minutes long, so a slow crawler starts missing them.
pub const SPEEDS: &[f64] = &[0.1, 0.25, 1.0, 5.0];
/// Charger budgets swept, joules. The masquerades themselves are cheap
/// (~5–20 kJ per victim); the sweep descends into the regime where the
/// budget caps the victim count.
pub const BUDGETS: &[f64] = &[2.0e4, 5.0e4, 1.0e5, 2.0e6];

fn sweep<F: Fn(&mut Scenario, f64)>(
    values: &[f64],
    label: &str,
    apply: F,
    rec: &mut dyn Recorder,
) -> Table {
    let mut table = Table::new(
        format!("fig7: executed attack vs {label} ({NODES} nodes)"),
        &[label, "targeted", "census covered", "utility"],
    );
    for &v in values {
        let mut targeted = Vec::new();
        let mut covered = Vec::new();
        let mut utility = Vec::new();
        for seed in 0..SEEDS {
            let mut scenario = Scenario::paper_scale(NODES, seed);
            apply(&mut scenario, v);
            let (_, _, _, outcome) = run_csa_with(&scenario, rec);
            targeted.push(outcome.targeted as f64);
            covered.push(outcome.covered_exhausted_ratio);
            utility.push(outcome.utility);
        }
        let (cm, cs) = mean_std(&covered);
        table.push(vec![
            f(v, 1),
            f(mean_std(&targeted).0, 1),
            pm(cm, cs, 2),
            f(mean_std(&utility).0, 1),
        ]);
    }
    table
}

/// Runs the experiment, observing every campaign through `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    vec![
        sweep(SPEEDS, "speed (m/s)", |s, v| s.mc_speed_mps = v, rec),
        sweep(BUDGETS, "budget (J)", |s, v| s.mc_energy_j = v, rec),
    ]
}
