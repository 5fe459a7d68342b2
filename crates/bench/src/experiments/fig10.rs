//! `fig10` — CSA's empirical approximation ratio against the exact solver on
//! small instances ("bounded performance guarantee").

use wrsn::core::{csa, exact, theory};
use wrsn::sim::obs::Recorder;

use crate::experiments::common::synthetic_instance;
use crate::stats::{mean_std, min};
use crate::table::{f, Table};

/// Instances per configuration.
pub const INSTANCES: u64 = 50;
/// Victims per instance.
pub const VICTIMS: usize = 8;

/// Window-length / budget configurations swept (label, window seconds,
/// budget joules).
pub const CONFIGS: &[(&str, f64, f64)] = &[
    ("tight windows, tight budget", 120.0, 400.0),
    ("tight windows, loose budget", 120.0, 5_000.0),
    ("loose windows, tight budget", 800.0, 400.0),
    ("loose windows, loose budget", 800.0, 5_000.0),
];

/// Runs the experiment, counting CSA planner work into `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    let mut table = Table::new(
        format!(
            "fig10: CSA / exact utility ratio over {INSTANCES} random instances of {VICTIMS} victims \
             (theoretical floor {:.3})",
            theory::greedy_guarantee()
        ),
        &["configuration", "mean ratio", "min ratio", "ratio = 1 (%)"],
    );
    for &(label, window, budget) in CONFIGS {
        let mut ratios = Vec::new();
        let mut perfect = 0usize;
        for seed in 0..INSTANCES {
            let inst = synthetic_instance(VICTIMS, seed.wrapping_mul(7919) + 13, window, budget);
            let opt = inst.utility(&exact::solve(&inst));
            let got = inst.utility(&csa::plan_with(&inst, &csa::CsaOptions::default(), rec));
            let ratio = theory::approximation_ratio(got, opt);
            if ratio > 1.0 - 1e-9 {
                perfect += 1;
            }
            ratios.push(ratio);
        }
        let (m, s) = mean_std(&ratios);
        table.push(vec![
            label.to_string(),
            format!("{m:.3} ± {s:.3}"),
            // One ratio per seed, so the sample is never empty.
            f(min(&ratios).expect("INSTANCES > 0"), 3),
            f(100.0 * perfect as f64 / INSTANCES as f64, 0),
        ]);
    }
    vec![table]
}
