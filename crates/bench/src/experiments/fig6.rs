//! `fig6` — the headline: fraction of key nodes exhausted (under a
//! masquerade) vs. network size, from full attack executions.

use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;

use crate::experiments::common::run_csa_with;
use crate::stats::mean_std;
use crate::table::{f, pm, Table};

/// Network sizes swept.
pub const SIZES: &[usize] = &[50, 100, 150, 200];
/// Seeds per size.
pub const SEEDS: u64 = 5;

/// Runs the experiment, observing every campaign through `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let mut table = Table::new(
        "fig6: key nodes exhausted by the executed attack vs network size (paper: ≥80 %)",
        &[
            "nodes",
            "targeted",
            "exhausted/targeted",
            "census covered",
            "charger energy (kJ)",
        ],
    );
    for &n in SIZES {
        let mut targeted = Vec::new();
        let mut exhausted_ratio = Vec::new();
        let mut covered = Vec::new();
        let mut energy = Vec::new();
        for seed in 0..SEEDS {
            let scenario = Scenario::paper_scale(n, seed);
            let (_, _, report, outcome) = run_csa_with(&scenario, rec);
            targeted.push(outcome.targeted as f64);
            exhausted_ratio.push(outcome.exhausted_ratio);
            covered.push(outcome.covered_exhausted_ratio);
            energy.push(report.charger_energy_used_j / 1e3);
        }
        let (tm, _) = mean_std(&targeted);
        let (em_, es) = mean_std(&exhausted_ratio);
        let (cm, cs) = mean_std(&covered);
        let (gm, _) = mean_std(&energy);
        table.push(vec![
            n.to_string(),
            f(tm, 1),
            pm(em_, es, 2),
            pm(cm, cs, 2),
            f(gm, 0),
        ]);
    }
    vec![table]
}
