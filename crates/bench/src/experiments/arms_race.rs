//! `arms_race` — online digital-twin auditing vs. the adaptive CSA.
//!
//! The detection arms race, fought on the parallel harness: a base-station
//! **digital twin** with stochastic challenge-response probes
//! ([`wrsn::sim::audit`]) runs *during* every campaign, and three attacker
//! postures run against it —
//!
//! * **benign**: an honest Earliest-Deadline-First charger (the
//!   false-positive control),
//! * **naive**: the paper's CSA, full-cancellation spoofs (delivered ≈ 0),
//! * **adaptive**: the stealth CSA ([`CsaAttackPolicy::with_stealth`]),
//!   partial-power spoofs that keep probed residuals above the detector's
//!   tolerance at real energy cost —
//!
//! swept over detector aggressiveness ([`wrsn::sim::AuditConfig`] presets
//! `lax`/`default`/`aggressive`) and fault-injection intensity (PR 4's
//! crashes/degradations are the noise floor that makes detection genuinely
//! hard). Each run is classified at run level: **detected** iff the twin
//! convicted at least one node before 80 % of the key-node census was
//! exhausted (a later conviction names the culprit but saves nothing).
//! Benign detections are false positives. The tables are the ROC surface:
//! detection rate, FPR, time-to-detection, probe overhead, and the adaptive
//! attacker's quantified real-energy bill.
//!
//! Every cell is seeded; the whole artifact is byte-identical at any
//! `WRSN_THREADS` setting (audits are serial in-world code).

use wrsn::core::attack::{evaluate_attack, CsaAttackPolicy};
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::{AuditConfig, FaultConfig, FaultPlan};

use crate::stats::mean_std;
use crate::table::{f, Table};

/// Network size used for the sweep.
pub const NODES: usize = 60;
/// Seeds per cell.
pub const SEEDS: u64 = 3;
/// Detector aggressiveness presets swept.
pub const PRESETS: &[&str] = &["lax", "default", "aggressive"];
/// Attacker postures swept.
pub const POLICIES: &[&str] = &["benign", "naive", "adaptive"];
/// Per-kind fault counts swept (0 = noise-free, 1 = the default intensity).
pub const INTENSITIES: &[usize] = &[0, 1, 4];
/// Stealth fraction the adaptive attacker runs at: above the `default`
/// tolerance (0.25), below `aggressive` (0.55) — it beats the detector it
/// was tuned against and loses to the harsher one.
pub const STEALTH_FRACTION: f64 = 0.35;
/// A run is "detected in time" when the first conviction lands before this
/// fraction of the key-node census is exhausted.
pub const EXHAUSTION_DEADLINE: f64 = 0.8;

struct Trial {
    /// Run-level verdict: convicted before the exhaustion deadline.
    detected: bool,
    /// Time of the first conviction, hours, if any fired at all.
    ttd_h: Option<f64>,
    convictions: f64,
    probes: f64,
    /// Probe overhead actually spent, joules.
    probe_j: f64,
    /// Fraction of the key-node census exhausted (attack rows only).
    key_exhausted: Option<f64>,
    /// Real energy delivered by attack-mode sessions, kilojoules — the
    /// adaptive attacker's stealth bill (0 for naive full-cancellation).
    attack_delivered_kj: f64,
}

fn run_trial(
    preset: &str,
    policy: &str,
    intensity: usize,
    seed: u64,
    rec: &mut dyn Recorder,
) -> Trial {
    let scenario = Scenario::paper_scale(NODES, seed);
    let audit = AuditConfig::preset(preset)
        .expect("known preset")
        .with_seed(seed);
    let mut world = scenario.build().with_audit(audit);
    if intensity > 0 {
        let config = FaultConfig::uniform(intensity);
        world.set_fault_plan(FaultPlan::generate(
            seed,
            NODES,
            scenario.horizon_s,
            &config,
        ));
    }
    // Run the posture; for attack rows, derive the key-node census deadline.
    let mut t80 = f64::INFINITY;
    let mut key_exhausted = None;
    match policy {
        "benign" => {
            world
                .run_with(&mut wrsn::charge::EarliestDeadlineFirst::new(), rec)
                .expect("benign campaign run failed");
        }
        _ => {
            let mut attack = CsaAttackPolicy::new(scenario.tide_config());
            if policy == "adaptive" {
                attack = attack.with_stealth(STEALTH_FRACTION);
            }
            world
                .run_with(&mut attack, rec)
                .expect("attack campaign run failed");
            let outcome = evaluate_attack(&world, &attack);
            key_exhausted = Some(outcome.key_node_exhausted_ratio);
            // The moment the census crossed the exhaustion deadline: the
            // k-th key-node death, k = ceil(deadline × census size).
            if let Some(instance) = attack.initial_instance() {
                let mut deaths: Vec<f64> = instance
                    .victims
                    .iter()
                    .filter_map(|v| world.trace().death_time_of(v.node))
                    .collect();
                deaths.sort_by(|a, b| a.partial_cmp(b).expect("finite death times"));
                let k = (EXHAUSTION_DEADLINE * instance.victims.len() as f64).ceil() as usize;
                if k > 0 && k <= deaths.len() {
                    t80 = deaths[k - 1];
                }
            }
        }
    }
    let audit = world.audit().expect("audit attached");
    let first = audit.first_conviction_s();
    Trial {
        detected: first.is_some_and(|t| t <= t80),
        ttd_h: first.map(|t| t / 3600.0),
        convictions: audit.convictions().len() as f64,
        probes: audit.probes().len() as f64,
        probe_j: audit.spent_j(),
        key_exhausted,
        // `+ 0.0` normalises the empty sum: float `sum()` has a `-0.0`
        // identity, which would print as "-0.00" on benign rows.
        attack_delivered_kj: (world
            .trace()
            .sessions()
            .iter()
            .filter(|s| s.mode.is_attack())
            .map(|s| s.delivered_j)
            .sum::<f64>()
            + 0.0)
            / 1.0e3,
    }
}

/// Runs the experiment, observing every campaign through `rec`. Cells fan
/// out on [`crate::parallel::map_indexed_observed`], which merges their
/// records in index order, so the artifact is byte-identical at any worker
/// count.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let seeds = SEEDS as usize;
    let cells = PRESETS.len() * POLICIES.len() * INTENSITIES.len();
    let trials = crate::parallel::map_indexed_observed(cells * seeds, rec, |k, rec| {
        let seed = (k % seeds) as u64;
        let cell = k / seeds;
        let intensity = INTENSITIES[cell % INTENSITIES.len()];
        let policy = POLICIES[(cell / INTENSITIES.len()) % POLICIES.len()];
        let preset = PRESETS[cell / (INTENSITIES.len() * POLICIES.len())];
        run_trial(preset, policy, intensity, seed, rec)
    });

    let mut roc = Table::new(
        format!(
            "arms_race: twin+probe audit vs CSA postures ({NODES} nodes, \
             stealth fraction {STEALTH_FRACTION})"
        ),
        &[
            "detector",
            "policy",
            "faults",
            "detect rate",
            "ttd (h)",
            "convictions",
            "probes",
            "probe cost (J)",
            "key exhausted",
            "attack delivered (kJ)",
        ],
    );
    for (cell, chunk) in trials.chunks(seeds).enumerate() {
        let intensity = INTENSITIES[cell % INTENSITIES.len()];
        let policy = POLICIES[(cell / INTENSITIES.len()) % POLICIES.len()];
        let preset = PRESETS[cell / (INTENSITIES.len() * POLICIES.len())];
        let rate = chunk.iter().filter(|t| t.detected).count() as f64 / chunk.len() as f64;
        let ttds: Vec<f64> = chunk.iter().filter_map(|t| t.ttd_h).collect();
        let key: Vec<f64> = chunk.iter().filter_map(|t| t.key_exhausted).collect();
        roc.push(vec![
            preset.to_string(),
            policy.to_string(),
            format!("{intensity}"),
            f(rate, 2),
            if ttds.is_empty() {
                "-".to_string()
            } else {
                f(mean_std(&ttds).0, 1)
            },
            f(
                mean_std(&chunk.iter().map(|t| t.convictions).collect::<Vec<_>>()).0,
                1,
            ),
            f(
                mean_std(&chunk.iter().map(|t| t.probes).collect::<Vec<_>>()).0,
                1,
            ),
            f(
                mean_std(&chunk.iter().map(|t| t.probe_j).collect::<Vec<_>>()).0,
                1,
            ),
            if key.is_empty() {
                "-".to_string()
            } else {
                f(mean_std(&key).0, 2)
            },
            f(
                mean_std(
                    &chunk
                        .iter()
                        .map(|t| t.attack_delivered_kj)
                        .collect::<Vec<_>>(),
                )
                .0,
                2,
            ),
        ]);
    }

    // The headline: per detector preset, true-positive rate on each attacker
    // vs. false-positive rate on benign runs, pooled over fault intensities.
    let mut summary = Table::new(
        "arms_race summary: ROC operating points (pooled over fault noise)",
        &["detector", "tpr naive", "tpr adaptive", "fpr benign"],
    );
    let per_policy = INTENSITIES.len() * seeds;
    for (p, preset) in PRESETS.iter().enumerate() {
        let base = p * POLICIES.len() * per_policy;
        let rate = |policy_idx: usize| {
            let lo = base + policy_idx * per_policy;
            let slice = &trials[lo..lo + per_policy];
            slice.iter().filter(|t| t.detected).count() as f64 / slice.len() as f64
        };
        summary.push(vec![
            preset.to_string(),
            f(rate(1), 2),
            f(rate(2), 2),
            f(rate(0), 2),
        ]);
    }

    vec![roc, summary]
}
