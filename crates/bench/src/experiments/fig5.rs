//! `fig5` — attack utility vs. network size: CSA against the baseline
//! planners (greedy-utility, TSP-order, random) on identical TIDE instances.

use wrsn::core::baseline;
use wrsn::core::tide::TideInstance;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;

use crate::stats::mean_std;
use crate::table::{pm, Table};

/// Network sizes swept.
pub const SIZES: &[usize] = &[50, 100, 150, 200];
/// Seeds per size.
pub const SEEDS: u64 = 8;

/// Runs the experiment, counting planner work into `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let mut table = Table::new(
        "fig5: planned attack utility vs network size (mean ± std over seeds)",
        &["nodes", "victims", "csa", "greedy-utility", "tsp", "random"],
    );
    for &n in SIZES {
        let mut victims = Vec::new();
        let mut per_planner: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for seed in 0..SEEDS {
            let scenario = Scenario::paper_scale(n, seed);
            let world = scenario.build();
            let instance = TideInstance::from_world(&world, &scenario.tide_config());
            victims.push(instance.victim_count() as f64);
            for (k, planner) in baseline::standard_planners(seed).iter().enumerate() {
                let schedule = planner.plan(&instance, rec);
                debug_assert!(instance.validate(&schedule).is_ok());
                per_planner[k].push(instance.utility(&schedule));
            }
        }
        let (vm, _) = mean_std(&victims);
        let cells: Vec<String> = per_planner
            .iter()
            .map(|xs| {
                let (m, s) = mean_std(xs);
                pm(m, s, 1)
            })
            .collect();
        table.push(vec![
            n.to_string(),
            format!("{vm:.1}"),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    vec![table]
}
