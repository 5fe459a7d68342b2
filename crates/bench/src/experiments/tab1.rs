//! `tab1` — planner runtime scaling with victim count.
//!
//! Wall-clock medians over a few repetitions; the Criterion benches in
//! `benches/microbench.rs` measure the same costs rigorously.

use std::time::Instant;

use wrsn::core::baseline;
use wrsn::core::exact;
use wrsn::sim::obs::NullRecorder;

use crate::experiments::common::synthetic_instance;
use crate::table::Table;

/// Victim counts swept.
pub const SIZES: &[usize] = &[5, 10, 20, 40, 80];
/// Repetitions per measurement (median reported).
pub const REPS: usize = 5;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "tab1: planner runtime vs victim count (median ms)",
        &["victims", "csa", "greedy-utility", "tsp", "random", "exact"],
    );
    for &n in SIZES {
        let inst = synthetic_instance(n, 42, 400.0, 1.0e9);
        let mut row = vec![n.to_string()];
        for planner in baseline::standard_planners(1) {
            let samples: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    let s = planner.plan(&inst, &mut NullRecorder);
                    std::hint::black_box(s);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            row.push(format!("{:.2}", median_ms(samples)));
        }
        if n <= 12 {
            let samples: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    let s = exact::solve(&inst);
                    std::hint::black_box(s);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            row.push(format!("{:.2}", median_ms(samples)));
        } else {
            row.push("—".to_string());
        }
        table.push(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_sample() {
        assert_eq!(median_ms(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
