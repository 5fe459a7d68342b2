//! `wrsn-perf`: the end-to-end and per-layer benchmark of wrsn.
//!
//! ```text
//! run.sh [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!        [--runs <k>] [--json <path>]
//! run.sh --compare <parent.json> <change.json>
//! ```
//!
//! With `--workload`, runs that workload in this process, prints every
//! metric as `<workload> <metric> <value> <unit> n=<samples>`, and ends with
//! one JSON result line. Without it, runs every workload `--runs` times
//! (seeds `seed..seed+runs`), each in a child process so its memory is
//! measured alone. Exits nonzero when any output check fails. See
//! `README.md` for the workloads and metrics.

#![deny(unsafe_code)]

mod compare;
mod metrics;
mod stats;
#[allow(unsafe_code)]
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use metrics::Metric;
use trace::Tracer;
use workloads::{Ctx, Outcome, NAMES};

const USAGE: &str = "usage: wrsn-perf [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--runs <k>] [--json <path>]\n       \
                     wrsn-perf --compare <parent.json> <change.json>";

/// The repository this benchmark was built from.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../..");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        // `run_seconds` in BENCHMARK.json.
        seconds: 15.0,
        trace: false,
        runs: 1,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` ({})", NAMES.join(", ")));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => {
                out.runs = value()?.parse().map_err(|_| "--runs takes a count")?;
                if out.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--json" => out.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn git_rev() -> String {
    let root = Path::new(ROOT);
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Removes a directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload here and prints its result.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .to_path_buf();
    let perf_dir = bin_dir.parent().unwrap_or(&bin_dir).join("perf");
    let work = perf_dir.join(format!("work-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        bin_dir,
        work,
        tracer: Tracer::new(args.trace),
    };
    let mut out = match workload {
        "suite" => workloads::suite::run(&mut ctx),
        "campaign" => workloads::campaign::run(&mut ctx),
        "durable" => workloads::durable::run(&mut ctx),
        "daemon_low" => workloads::daemon::run(&mut ctx, false),
        _ => workloads::daemon::run(&mut ctx, true),
    };
    let reported: &[Metric] = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if args.trace {
        for m in reported {
            if !out.values.contains_key(m.name) {
                out.set(*m, 0.0, 0);
            }
        }
        let path = perf_dir.join(format!("trace-{workload}.jsonl"));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for (name, t) in ctx.tracer.totals() {
            out.notes.push(format!(
                "span {name} count={} total_s={:.6} self_s={:.6}",
                t.count,
                t.total.as_secs_f64(),
                t.own.as_secs_f64()
            ));
        }
        out.notes.push(format!(
            "trace written to {} ({} spans left out)",
            path.display(),
            ctx.tracer.dropped()
        ));
    }
    let attempted = out.attempted.max(1);
    out.set(
        metrics::FAILED_FRAC,
        out.failed as f64 / attempted as f64,
        out.attempted as usize,
    );
    let complete = reported
        .iter()
        .all(|m| out.values.get(m.name).is_some_and(|v| v.is_finite()));
    let correct = out.failed == 0 && out.attempted > 0 && complete;
    print_outcome(workload, &out);
    if let Some(path) = &args.json {
        let text = serde_json::to_string(&record(args, workload, &out, correct))
            .map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let metrics = reported
        .iter()
        .filter_map(|m| {
            let v = *out.values.get(m.name)?;
            v.is_finite().then(|| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(v)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(out.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn print_outcome(workload: &str, out: &Outcome) {
    for (name, value) in &out.values {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("{workload} {name} {value} {unit} n={}", out.samples[name]);
    }
    for note in &out.notes {
        println!("{workload} note {note}");
    }
}

/// The full record of one run, as `--json` writes it.
fn record(args: &Args, workload: &str, out: &Outcome, correct: bool) -> Value {
    let metrics = out
        .values
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, &v)| {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let entry = Value::Map(vec![
                ("value".to_string(), Value::F64(v)),
                ("unit".to_string(), Value::Str(unit.to_string())),
                ("samples".to_string(), Value::U64(out.samples[name] as u64)),
            ]);
            (name.clone(), entry)
        })
        .collect();
    Value::Map(vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(out.attempted)),
        ("failed".to_string(), Value::U64(out.failed)),
        ("host_cpus".to_string(), Value::U64(host_cpus() as u64)),
        (
            "threads".to_string(),
            Value::U64(wrsn_bench::parallel::threads() as u64),
        ),
        (
            "shards".to_string(),
            Value::U64(wrsn_bench::parallel::shards() as u64),
        ),
        ("git_rev".to_string(), Value::Str(git_rev())),
        ("metrics".to_string(), Value::Map(metrics)),
        (
            "notes".to_string(),
            Value::Seq(out.notes.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// Runs every workload `args.runs` times, each run in a child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no directory")?
        .join("perf")
        .join(format!("runs-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let _scratch = Scratch(scratch.clone());
    let mut all_ok = true;
    let mut records = Vec::new();
    for r in 0..args.runs {
        let seed = args.seed + r;
        for workload in NAMES {
            let json = scratch.join(format!("{workload}-{seed}.json"));
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--json")
                .arg(&json)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            all_ok &= output.status.success();
            match std::fs::read_to_string(&json) {
                Ok(text) => {
                    records.push(serde_json::from_str::<Value>(&text).map_err(|e| e.to_string())?)
                }
                Err(_) => eprintln!("wrsn-perf: {workload} (seed {seed}) left no result"),
            }
        }
    }
    if let Some(path) = &args.json {
        let doc = Value::Map(vec![
            ("schema".to_string(), Value::Str("wrsn-perf-v1".to_string())),
            ("runs".to_string(), Value::Seq(records)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

fn compare_files(parent: &str, change: &str) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = compare::bounds(&read(&Path::new(ROOT).join("BENCHMARK.json"))?)?;
    let parent = compare::load(&read(Path::new(parent))?).map_err(|e| format!("{parent}: {e}"))?;
    let change = compare::load(&read(Path::new(change))?).map_err(|e| format!("{change}: {e}"))?;
    Ok(!compare::run(&parent, &change, &bounds))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("--compare") => Err("--compare takes two result files".to_string()),
        _ => parse(&argv).and_then(|args| match &args.workload {
            Some(workload) => run_one(&args, workload),
            None => run_all(&args),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wrsn-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args(&[
            "--workload",
            "suite",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("suite"));
        assert_eq!((a.seed, a.seconds, a.trace, a.runs), (7, 20.0, true, 1));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert_eq!(args(&[]).unwrap().workload, None);
    }

    #[test]
    fn a_record_carries_the_host_and_build() {
        let mut out = Outcome::default();
        out.set(metrics::SETUP_S, 0.5, 3);
        let rec = record(&args(&[]).unwrap(), "suite", &out, true);
        let keys: Vec<&str> = rec
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for key in [
            "workload",
            "seed",
            "host_cpus",
            "threads",
            "shards",
            "git_rev",
            "metrics",
        ] {
            assert!(keys.contains(&key), "{key}");
        }
    }
}
