//! `scale` — million-node worlds: wall-clock cost of a full CSA campaign
//! vs. network size, on the struct-of-arrays engine.
//!
//! Unlike the paper-figure experiments this one sweeps *simulator* scale,
//! not attack efficacy: one fig6-class campaign per size at paper density
//! (1 node / 100 m²), horizon shrunk as `2e8 / n` seconds so the drained
//! sink ring produces a comparable death/repair workload at every size.
//! Key-node identification runs in approximate hub mode (`max_exact_nodes:
//! 0`) with the hub fraction tuned to select ~64 hubs regardless of size —
//! the exact Tarjan/Brandes census is quadratic and would dominate the
//! measurement above 10⁵ nodes.
//!
//! Not part of `--id all`: run explicitly with `exp --id scale`. Sizes can
//! be overridden via `WRSN_SCALE_SIZES=10000,100000` (comma-separated) for
//! smoke tests and CI.

use std::time::Instant;

use wrsn::core::tide::TideConfig;
use wrsn::net::prelude::KeyNodeConfig;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::{NullRecorder, Recorder};

use crate::experiments::common::run_csa_scaled_with;
use crate::parallel;
use crate::table::{f, Table};

/// Network sizes swept by the full experiment.
pub const SIZES: &[usize] = &[10_000, 100_000, 500_000, 1_000_000];
/// Env var overriding [`SIZES`] with a comma-separated list.
pub const SIZES_ENV: &str = "WRSN_SCALE_SIZES";
/// Single deployment seed — this experiment measures wall clock, not
/// attack-quality statistics, so one seed per size keeps 1M feasible.
pub const SEED: u64 = 7;
/// Approximate hub-census size held constant across the sweep.
const TARGET_HUBS: usize = 64;

/// Sizes to sweep: [`SIZES_ENV`] override or the built-in [`SIZES`].
pub fn sizes() -> Vec<usize> {
    match std::env::var(SIZES_ENV) {
        Ok(raw) => {
            let parsed: Vec<usize> = raw
                .split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .filter(|&n| n >= 2)
                .collect();
            if parsed.is_empty() {
                SIZES.to_vec()
            } else {
                parsed
            }
        }
        Err(_) => SIZES.to_vec(),
    }
}

/// Horizon for an `n`-node world: inversely proportional to size so the
/// total drain workload (node-seconds of discharge until the sink ring
/// dies and the network partitions) stays comparable across the sweep.
pub fn horizon_s(n: usize) -> f64 {
    2.0e8 / n as f64
}

/// The paper-density scenario at size `n` with the scaled horizon.
pub fn scenario(n: usize) -> Scenario {
    let mut scenario = Scenario::paper_scale(n, SEED);
    scenario.horizon_s = horizon_s(n);
    scenario
}

/// TIDE config for size `n`: the scenario's config with key-node
/// identification forced into approximate hub mode (~`TARGET_HUBS` hubs).
pub fn tide_config(n: usize) -> TideConfig {
    let scenario = scenario(n);
    TideConfig {
        keynode: KeyNodeConfig {
            hub_fraction: (TARGET_HUBS as f64 / n as f64).min(1.0),
            include_cut_vertices: false,
            max_exact_nodes: 0,
        },
        ..scenario.tide_config()
    }
}

/// One row of the scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRow {
    /// Network size.
    pub nodes: usize,
    /// Worker threads the world's graph build ran with.
    pub threads: usize,
    /// Seconds to deploy and build the world (graph, routing, grid).
    pub build_s: f64,
    /// Seconds to run the CSA campaign to the horizon.
    pub run_s: f64,
    /// Nodes dead at the end of the campaign.
    pub dead: usize,
    /// Victims the attack plan targeted.
    pub targeted: usize,
}

/// Builds and runs one campaign at size `n`, observed through `rec`.
///
/// Exposed so the golden-digest test and the CI smoke step can drive a
/// single small size directly instead of racing over [`SIZES_ENV`].
pub fn run_at_size_with(n: usize, rec: &mut dyn Recorder) -> ScaleRow {
    let scenario = scenario(n);
    let config = tide_config(n);
    let built = Instant::now();
    let mut world = scenario.build();
    let build_s = built.elapsed().as_secs_f64();
    let threads = parallel::threads();
    let ran = Instant::now();
    let (report, outcome) = run_csa_scaled_with(&mut world, config, rec);
    let run_s = ran.elapsed().as_secs_f64();
    ScaleRow {
        nodes: n,
        threads,
        build_s,
        run_s,
        dead: report.dead_nodes,
        targeted: outcome.targeted,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    run_with(&mut NullRecorder)
}

/// Runs the experiment, observing every campaign through `rec`.
pub fn run_with(rec: &mut dyn Recorder) -> Vec<Table> {
    let mut table = Table::new(
        "scale: CSA campaign wall-clock vs network size (SoA engine)",
        &[
            "nodes",
            "threads",
            "build (s)",
            "campaign (s)",
            "total (s)",
            "dead",
            "targeted",
        ],
    );
    for n in sizes() {
        let row = run_at_size_with(n, rec);
        table.push(vec![
            row.nodes.to_string(),
            row.threads.to_string(),
            f(row.build_s, 3),
            f(row.run_s, 3),
            f(row.build_s + row.run_s, 3),
            row.dead.to_string(),
            row.targeted.to_string(),
        ]);
    }
    vec![table]
}
