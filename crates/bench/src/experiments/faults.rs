//! `faults` — attack efficacy and detectability under injected faults.
//!
//! The robustness experiment: the CSA campaign runs against worlds with a
//! seeded [`FaultPlan`] installed — node crashes, charging-efficiency
//! degradation, charger stalls, request loss — at increasing intensity.
//! Every plan is derived deterministically from the trial seed, so the whole
//! table is byte-identical across runs and thread counts.
//!
//! Columns track both sides of the arms race as the substrate degrades: how
//! much of the attack still lands (targeted / exhausted victims), how much
//! collateral the faults add (dead nodes), and whether the post-mortem
//! auditor still attributes the kills (detection ratio over attacked nodes).

use wrsn::core::attack::{evaluate_attack, CsaAttackPolicy};
use wrsn::core::detect::{Detector, PostMortemAudit};
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::{FaultConfig, FaultPlan};

use crate::stats::mean_std;
use crate::table::{f, pm, Table};

/// Network size used for the sweep.
pub const NODES: usize = 60;
/// Seeds per intensity.
pub const SEEDS: u64 = 3;
/// Per-kind fault counts swept (0 = the fault-free control row).
pub const INTENSITIES: &[usize] = &[0, 1, 2, 4];

struct Trial {
    injected: f64,
    targeted: f64,
    exhausted: f64,
    lifetime_h: f64,
    delivered_kj: f64,
    detection: Option<f64>,
}

fn run_trial(intensity: usize, seed: u64, rec: &mut dyn Recorder) -> Trial {
    let scenario = Scenario::paper_scale(NODES, seed);
    let mut world = scenario.build();
    if intensity > 0 {
        let config = FaultConfig::uniform(intensity);
        world.set_fault_plan(FaultPlan::generate(
            seed,
            NODES,
            scenario.horizon_s,
            &config,
        ));
    }
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());
    let report = world
        .run_with(&mut policy, rec)
        .expect("faulted CSA campaign run failed");
    let outcome = evaluate_attack(&world, &policy);
    let attacked: Vec<_> = policy.targets().iter().map(|&(n, _)| n).collect();
    let audit = PostMortemAudit::default().analyze(&world);
    Trial {
        injected: world.fault_injector().map_or(0, |f| f.injected()) as f64,
        targeted: outcome.targeted as f64,
        exhausted: outcome.exhausted as f64,
        lifetime_h: report.network_lifetime_s.unwrap_or(report.final_time_s) / 3600.0,
        delivered_kj: report.total_delivered_j / 1.0e3,
        detection: audit.detection_ratio(&attacked),
    }
}

/// Runs the experiment, observing every campaign through `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let mut table = Table::new(
        format!("faults: CSA under fault injection ({NODES} nodes)"),
        &[
            "intensity",
            "faults",
            "targeted",
            "exhausted",
            "lifetime (h)",
            "delivered (kJ)",
            "detection",
        ],
    );
    for &intensity in INTENSITIES {
        let trials: Vec<Trial> = (0..SEEDS)
            .map(|seed| run_trial(intensity, seed, rec))
            .collect();
        let col = |get: fn(&Trial) -> f64| trials.iter().map(get).collect::<Vec<_>>();
        let (lm, ls) = mean_std(&col(|t| t.lifetime_h));
        let detections: Vec<f64> = trials.iter().filter_map(|t| t.detection).collect();
        let (dm, ds) = mean_std(&detections);
        table.push(vec![
            format!("{intensity}"),
            f(mean_std(&col(|t| t.injected)).0, 1),
            f(mean_std(&col(|t| t.targeted)).0, 1),
            f(mean_std(&col(|t| t.exhausted)).0, 1),
            pm(lm, ls, 1),
            f(mean_std(&col(|t| t.delivered_kj)).0, 1),
            pm(dm, ds, 2),
        ]);
    }
    vec![table]
}
