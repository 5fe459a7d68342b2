//! `--compare <parent.json> <change.json>`: judges every (metric, workload)
//! row of two result files.
//!
//! A row **improved** when the change wins at least nine of every ten runs
//! paired by seed (ties count for neither) and the medians differ by more
//! than the parent's inter-quartile range. It **regressed** when the
//! change's median is worse than the parent's by more than the metric's
//! bound. It is **unresolved** when the parent's own spread is wider than the
//! bound, unless every change run reads better than every parent run.
//! Otherwise it is **unchanged**.

use std::collections::BTreeMap;

use serde::Value;

use crate::metrics::{self, Better};
use crate::stats;

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the parent's median.
    Relative(f64),
    /// An absolute amount.
    Absolute(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `parent` (negative when better).
fn worse_by(better: Better, parent: f64, change: f64) -> f64 {
    match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    }
}

fn over(bound: Bound, amount: f64, base: f64) -> bool {
    match bound {
        Bound::Relative(share) => amount > share * base.abs(),
        Bound::Absolute(limit) => amount > limit,
    }
}

/// Judges one row from the parent's and the change's runs and the
/// (parent, change) pairs among them.
pub fn judge(
    better: Better,
    bound: Bound,
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
) -> Verdict {
    let (p, c) = (stats::median(parent), stats::median(change));
    let spread = if parent.len() > 1 {
        stats::iqr(parent)
    } else {
        0.0
    };
    let wins = pairs
        .iter()
        .filter(|&&(a, b)| worse_by(better, a, b) < 0.0)
        .count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && -worse_by(better, p, c) > spread {
        return Verdict::Improved;
    }
    if over(bound, spread, p) {
        let all_better = change
            .iter()
            .all(|&b| parent.iter().all(|&a| worse_by(better, a, b) < 0.0));
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if over(bound, worse_by(better, p, c), p) {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// `(workload, metric) → seed → value` over a result file's untraced runs.
type Table = BTreeMap<(String, String), BTreeMap<u64, f64>>;

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    serde::map_get(v.as_map()?, key).ok()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Reads the untraced runs of a result file written with `--json`.
pub fn load(text: &str) -> Result<Table, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs = field(&doc, "runs")
        .and_then(Value::as_seq)
        .ok_or("no `runs` array")?;
    let mut table = Table::new();
    for run in runs {
        if field(run, "trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = match field(run, "workload") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("a run without `workload`".to_string()),
        };
        let seed = field(run, "seed")
            .and_then(number)
            .ok_or("a run without `seed`")? as u64;
        let values = field(run, "metrics")
            .and_then(Value::as_map)
            .ok_or("a run without `metrics`")?;
        for (name, entry) in values {
            if let Some(v) = field(entry, "value").and_then(number) {
                table
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .insert(seed, v);
            }
        }
    }
    Ok(table)
}

/// End-to-end bounds from `BENCHMARK.json`, plus the two rows that file
/// cannot carry: `failed_frac` may rise by 0.005, `max_rps_slo` may fall by
/// one ladder step.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for entry in field(&doc, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end")?
    {
        let name = match field(entry, "name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("an end_to_end entry without a name".to_string()),
        };
        let bound = field(entry, "bound")
            .and_then(number)
            .ok_or("missing bound")?;
        out.insert(name, Bound::Relative(bound));
    }
    out.insert(
        metrics::FAILED_FRAC.name.to_string(),
        Bound::Absolute(0.005),
    );
    out.insert(
        metrics::MAX_RPS_SLO.name.to_string(),
        Bound::Relative(1.0 - 1.0 / 1.25),
    );
    Ok(out)
}

/// Prints one line per row; returns whether any row regressed.
pub fn run(parent: &Table, change: &Table, bounds: &BTreeMap<String, Bound>) -> bool {
    let mut regressed = false;
    for ((workload, metric), p_runs) in parent {
        let (Some(bound), Some(m)) = (bounds.get(metric), metrics::find(metric)) else {
            continue;
        };
        let Some(c_runs) = change.get(&(workload.clone(), metric.clone())) else {
            println!("{workload} {metric}: missing from the change");
            continue;
        };
        let p: Vec<f64> = p_runs.values().copied().collect();
        let c: Vec<f64> = c_runs.values().copied().collect();
        let pairs: Vec<(f64, f64)> = p_runs
            .iter()
            .filter_map(|(seed, &a)| c_runs.get(seed).map(|&b| (a, b)))
            .collect();
        let verdict = judge(m.better, *bound, &p, &c, &pairs);
        regressed |= verdict == Verdict::Regressed;
        let (pm, cm) = (stats::median(&p), stats::median(&c));
        let delta = if pm != 0.0 {
            format!("{:+.1}%", 100.0 * (cm - pm) / pm.abs())
        } else {
            format!("{:+}", cm - pm)
        };
        println!(
            "{workload} {metric} parent {pm:.4} change {cm:.4} {} ({delta}, parent iqr {:.4}, n {}/{}) {}",
            m.unit,
            if p.len() > 1 { stats::iqr(&p) } else { 0.0 },
            p.len(),
            c.len(),
            verdict.name()
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: Bound = Bound::Relative(0.10);

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn a_clear_win_is_an_improvement() {
        let p = runs(100.0, 0.5);
        let c = runs(90.0, 0.5);
        assert_eq!(
            judge(Better::Lower, TEN, &p, &c, &paired(&p, &c)),
            Verdict::Improved
        );
        assert_eq!(
            judge(Better::Higher, TEN, &c, &p, &paired(&c, &p)),
            Verdict::Improved
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_enough() {
        let p = runs(100.0, 0.5);
        let mut c: Vec<f64> = p.iter().map(|v| v - 3.0).collect();
        c[0] += 10.0;
        c[1] += 10.0;
        assert_eq!(
            judge(Better::Lower, TEN, &p, &c, &paired(&p, &c)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn the_median_gap_must_exceed_the_parent_iqr() {
        let p = runs(100.0, 1.0);
        let c: Vec<f64> = p.iter().map(|v| v - 0.5).collect();
        assert_eq!(
            judge(Better::Lower, TEN, &p, &c, &paired(&p, &c)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        let p = runs(100.0, 0.5);
        let c = runs(115.0, 0.5);
        assert_eq!(
            judge(Better::Lower, TEN, &p, &c, &paired(&p, &c)),
            Verdict::Regressed
        );
        let c = runs(105.0, 0.5);
        assert_eq!(
            judge(Better::Lower, TEN, &p, &c, &paired(&p, &c)),
            Verdict::Unchanged
        );
        let abs = Bound::Absolute(0.005);
        assert_eq!(
            judge(Better::Lower, abs, &[0.0; 10], &[0.01; 10], &[]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, abs, &[0.0; 10], &[0.004; 10], &[]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let p = runs(50.0, 10.0);
        let c = runs(60.0, 10.0);
        assert_eq!(
            judge(Better::Lower, TEN, &p, &c, &paired(&p, &c)),
            Verdict::Unresolved
        );
        let c = vec![10.0; 10];
        assert_ne!(judge(Better::Lower, TEN, &p, &c, &[]), Verdict::Unresolved);
    }

    #[test]
    fn result_files_and_bounds_parse() {
        let file = r#"{"runs":[
            {"workload":"suite","seed":1,"trace":false,"metrics":{"setup_s":{"value":0.5,"unit":"s","samples":3}}},
            {"workload":"suite","seed":1,"trace":true,"metrics":{"sim.segments":{"value":9,"unit":"count","samples":1}}}]}"#;
        let table = load(file).unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(
            table[&("suite".to_string(), "setup_s".to_string())][&1],
            0.5
        );
        let b = bounds(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        assert_eq!(b["setup_s"], Bound::Relative(0.25));
        assert_eq!(b["failed_frac"], Bound::Absolute(0.005));
    }
}
