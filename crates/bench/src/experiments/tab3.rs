//! `tab3` — ablation: what each CSA component buys.
//!
//! Planner-level knobs (ratio ordering, 2-opt route repair, latest-start
//! shifting) are measured as planned utility on identical instances;
//! execution-level knobs (stealth windows, adaptive replanning, decoy
//! service) are measured on full runs, including the detector's view.

use wrsn::core::attack::{evaluate_attack, CsaAttackPolicy};
use wrsn::core::csa::{self, CsaOptions};
use wrsn::core::detect::{Detector, EnergyReportAudit};
use wrsn::net::NodeId;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;

use crate::stats::mean_std;
use crate::table::{f, Table};

/// Network size.
pub const NODES: usize = 100;
/// Seeds per configuration.
pub const SEEDS: u64 = 3;

/// Synthetic-instance seeds for the planner ablation — real census instances
/// are too easy (every order serves everyone), so the knobs only separate on
/// contended instances: many victims, tight budget.
const PLANNER_SEEDS: u64 = 10;

fn planner_ablation(rec: &mut dyn Recorder) -> Table {
    let variants: &[(&str, CsaOptions)] = &[
        ("full CSA", CsaOptions::default()),
        (
            "no ratio ordering",
            CsaOptions {
                ratio_ordering: false,
                ..CsaOptions::default()
            },
        ),
        (
            "no 2-opt repair",
            CsaOptions {
                route_improvement: false,
                ..CsaOptions::default()
            },
        ),
        (
            "no latest-start shift",
            CsaOptions {
                latest_start: false,
                ..CsaOptions::default()
            },
        ),
    ];
    let mut table = Table::new(
        "tab3a: planner ablation on contended instances (20 victims, 800 J budget)",
        &[
            "variant",
            "utility",
            "energy (J)",
            "mean slack before death (s)",
        ],
    );
    for (label, opts) in variants {
        // One planner run per seed, fanned out; per-seed rows come back in
        // seed order, so the aggregated row is byte-identical.
        let rows = crate::parallel::map_indexed_observed(PLANNER_SEEDS as usize, rec, |k, rec| {
            let inst = crate::experiments::common::synthetic_instance(20, k as u64, 300.0, 800.0);
            let plan = csa::plan_with(&inst, opts, rec);
            debug_assert!(inst.validate(&plan).is_ok());
            // Slack = victim's residual life after the masquerade ends;
            // latest-start shifting exists to shrink this.
            let slacks: Vec<f64> = plan
                .stops()
                .iter()
                .filter_map(|s| {
                    inst.victims
                        .get(s.victim)
                        .map(|v| v.death_s - (s.begin_s + v.service_s))
                })
                .collect();
            (
                inst.utility(&plan),
                inst.energy_cost(&plan),
                mean_std(&slacks).0,
            )
        });
        let utility: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let energy: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let slack: Vec<f64> = rows.iter().map(|r| r.2).collect();
        table.push(vec![
            label.to_string(),
            f(mean_std(&utility).0, 1),
            f(mean_std(&energy).0, 0),
            f(mean_std(&slack).0, 0),
        ]);
    }
    table
}

fn execution_ablation(rec: &mut dyn Recorder) -> Table {
    let mut table = Table::new(
        "tab3b: execution ablation (full runs)",
        &[
            "variant",
            "targeted",
            "census covered",
            "energy-audit detection",
        ],
    );
    let variants: &[&str] = &[
        "full CSA",
        "no stealth windows",
        "static plan",
        "no decoy service",
    ];
    // Full (variant, seed) simulations are independent — run them all at
    // once and aggregate per variant afterwards, in the original order.
    let seeds = SEEDS as usize;
    let all = crate::parallel::map_indexed_observed(variants.len() * seeds, rec, |k, rec| {
        let label = variants[k / seeds];
        let seed = (k % seeds) as u64;
        let scenario = Scenario::paper_scale(NODES, seed);
        let mut cfg = scenario.tide_config();
        if label == "no stealth windows" {
            cfg.stealth_windows = false;
        }
        let mut policy = CsaAttackPolicy::new(cfg);
        if label == "static plan" {
            policy = policy.with_static_plan();
        }
        if label == "no decoy service" {
            policy = policy.without_decoys();
        }
        let mut world = scenario.build();
        world.run_with(&mut policy, rec).expect("run");
        let outcome = evaluate_attack(&world, &policy);
        let victims: Vec<NodeId> = policy.targets().iter().map(|&(n, _)| n).collect();
        (
            outcome.targeted as f64,
            outcome.covered_exhausted_ratio,
            EnergyReportAudit::default()
                .analyze(&world)
                .detection_ratio(&victims),
        )
    });
    for (vi, &label) in variants.iter().enumerate() {
        let rows = &all[vi * seeds..(vi + 1) * seeds];
        let targeted: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let covered: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let detection: Vec<f64> = rows.iter().filter_map(|r| r.2).collect();
        table.push(vec![
            label.to_string(),
            f(mean_std(&targeted).0, 1),
            f(mean_std(&covered).0, 2),
            f(mean_std(&detection).0, 2),
        ]);
    }
    table
}

/// Runs the experiment, observing planner and execution runs through `rec`;
/// their records merge in index order
/// ([`crate::parallel::map_indexed_observed`]).
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    vec![planner_ablation(rec), execution_ablation(rec)]
}
