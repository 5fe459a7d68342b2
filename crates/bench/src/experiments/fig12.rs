//! `fig12` (extension) — the attack-vs-detector payoff matrix.
//!
//! Four charger behaviours × four audits, detection ratio measured on each
//! behaviour's own victims (for honest operation, on the nodes it served).
//! The matrix shows what the spoofing hardware buys: CSA is the only attack
//! that passes every *live* audit — the neglect attacker needs no hardware
//! but leaves the targeted-starvation pattern the fairness audit reads, and
//! the eager spoofer's victims survive to contradict it. Only post-mortem
//! forensics (alarms after the victims are already dead) sees CSA.

use wrsn::core::attack::{CsaAttackPolicy, EagerSpoofPolicy, SelectiveNeglectPolicy};
use wrsn::core::detect::{
    Detector, EnergyReportAudit, FairnessAudit, PostMortemAudit, RadiatedPowerAudit,
};
use wrsn::net::NodeId;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::World;

use crate::stats::mean_std;
use crate::table::{f, Table};

/// Network size.
pub const NODES: usize = 100;
/// Seeds per behaviour.
pub const SEEDS: u64 = 3;

struct Run {
    world: World,
    victims: Vec<NodeId>,
}

fn behaviours() -> Vec<&'static str> {
    vec!["honest-edf", "csa", "eager-spoof", "selective-neglect"]
}

fn run_behaviour(label: &str, seed: u64, rec: &mut dyn Recorder) -> Run {
    let scenario = Scenario::paper_scale(NODES, seed);
    let mut world = scenario.build();
    match label {
        "honest-edf" => {
            world
                .run_with(&mut wrsn::charge::EarliestDeadlineFirst::new(), rec)
                .expect("run");
            let victims = world.trace().sessions().iter().map(|s| s.node).collect();
            Run { world, victims }
        }
        "csa" => {
            let mut p = CsaAttackPolicy::new(scenario.tide_config());
            world.run_with(&mut p, rec).expect("run");
            let victims = p.targets().iter().map(|&(n, _)| n).collect();
            Run { world, victims }
        }
        "eager-spoof" => {
            let mut p = EagerSpoofPolicy::new(3_000.0);
            world.run_with(&mut p, rec).expect("run");
            let victims = world
                .trace()
                .sessions()
                .iter()
                .filter(|s| s.mode == wrsn::sim::ChargeMode::Spoofed)
                .map(|s| s.node)
                .collect();
            Run { world, victims }
        }
        "selective-neglect" => {
            let mut p = SelectiveNeglectPolicy::new();
            world.run_with(&mut p, rec).expect("run");
            let victims = p.census();
            Run { world, victims }
        }
        other => unreachable!("unknown behaviour {other}"),
    }
}

/// Runs the experiment, observing every run through `rec`; the runs' records
/// merge in index order ([`crate::parallel::map_indexed_observed`]).
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let detectors: Vec<(&str, Box<dyn Detector>)> = vec![
        ("energy-report", Box::new(EnergyReportAudit::default())),
        ("radiated-power", Box::new(RadiatedPowerAudit::default())),
        ("fairness", Box::new(FairnessAudit::default())),
        ("post-mortem", Box::new(PostMortemAudit::default())),
    ];
    let mut table = Table::new(
        "fig12: detection ratio on each behaviour's victims (live audits | forensic)",
        &[
            "behaviour",
            "energy-report",
            "radiated-power",
            "fairness",
            "post-mortem (forensic)",
        ],
    );
    let mut kills = Table::new(
        "fig12b: what each behaviour achieves (key-node deaths)",
        &["behaviour", "victims", "victims dead at horizon"],
    );
    // All (behaviour, seed) simulations at once; the analysis below walks
    // them in the original order, so the table is unchanged.
    let labels = behaviours();
    let seeds = SEEDS as usize;
    let all = crate::parallel::map_indexed_observed(labels.len() * seeds, rec, |k, rec| {
        run_behaviour(labels[k / seeds], (k % seeds) as u64, rec)
    });
    for (bi, label) in labels.into_iter().enumerate() {
        let runs = &all[bi * seeds..(bi + 1) * seeds];
        let mut row = vec![label.to_string()];
        for (_, detector) in &detectors {
            let ratios: Vec<f64> = runs
                .iter()
                .filter_map(|r| detector.analyze(&r.world).detection_ratio(&r.victims))
                .collect();
            row.push(f(mean_std(&ratios).0, 2));
        }
        table.push(row);
        let victims: Vec<f64> = runs.iter().map(|r| r.victims.len() as f64).collect();
        let dead: Vec<f64> = runs
            .iter()
            .map(|r| {
                r.victims
                    .iter()
                    .filter(|v| {
                        r.world
                            .network()
                            .node(**v)
                            .map(|n| !n.is_alive())
                            .unwrap_or(false)
                    })
                    .count() as f64
            })
            .collect();
        kills.push(vec![
            label.to_string(),
            f(mean_std(&victims).0, 1),
            f(mean_std(&dead).0, 1),
        ]);
    }
    vec![table, kills]
}
