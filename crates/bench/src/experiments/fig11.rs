//! `fig11` (extension) — the post-mortem countermeasure.
//!
//! CSA is invisible to every *live* audit because its victims die before
//! contradicting the fake charge. The tombstone pattern — served, then dead
//! within hours — is visible to an operator replaying logs. This experiment
//! quantifies the countermeasure: true-positive ratio on CSA's victims,
//! false-positive count on honest operation (budget-limited and
//! depot-provisioned), and the alarm latency relative to the damage.

use wrsn::core::attack::CsaAttackPolicy;
use wrsn::core::detect::{Detector, PostMortemAudit};
use wrsn::net::NodeId;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::World;

use crate::stats::mean_std;
use crate::table::{f, Table};

/// Network size.
pub const NODES: usize = 100;
/// Seeds per condition.
pub const SEEDS: u64 = 3;
/// Grace periods swept, hours.
pub const GRACE_H: &[f64] = &[1.0, 3.0, 6.0, 12.0, 24.0];

struct Run {
    world: World,
    victims: Vec<NodeId>,
}

fn csa_run(seed: u64, rec: &mut dyn Recorder) -> Run {
    let scenario = Scenario::paper_scale(NODES, seed);
    let mut world = scenario.build();
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());
    world.run_with(&mut policy, rec).expect("run");
    let victims = policy.targets().iter().map(|&(n, _)| n).collect();
    Run { world, victims }
}

fn honest_run(seed: u64, depot: bool, rec: &mut dyn Recorder) -> Run {
    let mut scenario = Scenario::paper_scale(NODES, seed);
    scenario.depot = depot;
    let mut world = scenario.build();
    world
        .run_with(&mut wrsn::charge::EarliestDeadlineFirst::new(), rec)
        .expect("run");
    Run {
        world,
        victims: Vec::new(),
    }
}

/// Runs the experiment, observing every run through `rec`. The runs fan out
/// on [`crate::parallel::map_indexed_observed`], which merges their records
/// in index order, so the merged stream is independent of the worker count.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    // Every (condition, seed) simulation is independent — fan all of them
    // out at once; index order keeps the tables byte-identical.
    let seeds = SEEDS as usize;
    let mut all = crate::parallel::map_indexed_observed(3 * seeds, rec, |k, rec| {
        let seed = (k % seeds) as u64;
        match k / seeds {
            0 => csa_run(seed, rec),
            1 => honest_run(seed, false, rec),
            _ => honest_run(seed, true, rec),
        }
    });
    let depot_runs: Vec<Run> = all.split_off(2 * seeds);
    let honest_runs: Vec<Run> = all.split_off(seeds);
    let csa_runs: Vec<Run> = all;

    let mut sweep = Table::new(
        "fig11: post-mortem audit vs grace period",
        &[
            "grace (h)",
            "csa true-positive ratio",
            "honest false alarms",
            "honest+depot false alarms",
        ],
    );
    for &g in GRACE_H {
        let audit = PostMortemAudit {
            grace_period_s: g * 3600.0,
        };
        let tp: Vec<f64> = csa_runs
            .iter()
            .filter_map(|r| audit.analyze(&r.world).detection_ratio(&r.victims))
            .collect();
        let fp: Vec<f64> = honest_runs
            .iter()
            .map(|r| audit.analyze(&r.world).alarm_count() as f64)
            .collect();
        let fp_depot: Vec<f64> = depot_runs
            .iter()
            .map(|r| audit.analyze(&r.world).alarm_count() as f64)
            .collect();
        sweep.push(vec![
            f(g, 0),
            f(mean_std(&tp).0, 2),
            f(mean_std(&fp).0, 1),
            f(mean_std(&fp_depot).0, 1),
        ]);
    }

    // Latency: when do the alarms arrive relative to the campaign's damage?
    let audit = PostMortemAudit::default();
    let mut latency = Table::new(
        "fig11b: alarm timing vs damage (6 h grace, per seed)",
        &[
            "seed",
            "first alarm (h)",
            "key nodes already dead at first alarm",
            "total key nodes exhausted",
        ],
    );
    for (seed, r) in csa_runs.iter().enumerate() {
        let report = audit.analyze(&r.world);
        let first_alarm = report
            .alarms
            .iter()
            .map(|a| a.time_s)
            .fold(f64::INFINITY, f64::min);
        let dead_by_then = r
            .victims
            .iter()
            .filter(|v| {
                r.world
                    .trace()
                    .death_time_of(**v)
                    .map(|d| d <= first_alarm)
                    .unwrap_or(false)
            })
            .count();
        latency.push(vec![
            seed.to_string(),
            if first_alarm.is_finite() {
                f(first_alarm / 3600.0, 1)
            } else {
                "never".to_string()
            },
            dead_by_then.to_string(),
            r.victims.len().to_string(),
        ]);
    }

    vec![sweep, latency]
}
