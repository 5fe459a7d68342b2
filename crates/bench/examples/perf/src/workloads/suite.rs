//! `suite`: the figure suite as paper reproducers run it, one
//! `exp --id all --out-dir <dir>` child process per pass.
//!
//! Inputs are the paper's fixed experiments, so the seed changes nothing.
//! Traced runs also time each id through `wrsn_bench::run_with`, in
//! sequence, in this process.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use wrsn::sim::obs::{Counter, NullRecorder, Recorder};

use super::{digest, expected, measure, setup_s, Ctx, EngineSample, Outcome};
use crate::metrics;
use crate::stats;
use crate::sys;
use crate::trace::HookRecorder;

const EXPECTED: &str = include_str!("../../expected/suite.txt");
/// 40 passes leave ten beyond the 75th percentile.
const TAIL_PCT: u32 = 75;
const WARMUPS: usize = 3;

/// `tab1` tabulates measured planner wall-clock, which differs every run.
fn is_timed(csv: &str) -> bool {
    csv.starts_with("tab1_")
}

/// `<csv name> <digest>` lines, sorted by name, of every deterministic CSV.
fn listing(csvs: impl Iterator<Item = (String, Vec<u8>)>) -> String {
    let mut lines: Vec<String> = csvs
        .filter(|(name, _)| !is_timed(name))
        .map(|(name, bytes)| format!("{name} {}", digest(&bytes)))
        .collect();
    lines.sort();
    lines.iter().map(|l| format!("{l}\n")).collect()
}

fn check_listing(out: &mut Outcome, got: &str, what: &str) {
    let wrong = EXPECTED.lines().count() != got.lines().count()
        || got.lines().any(|line| match line.split_once(' ') {
            Some((name, d)) => expected(EXPECTED, name) != Some(d),
            None => true,
        });
    out.check(!wrong, || {
        format!("{what}: CSV digests differ from expected/suite.txt:\n{got}")
    });
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
}

/// One `exp --id all` pass into a fresh output directory.
fn exp_pass(ctx: &Ctx, out: &mut Outcome, k: usize) -> Pass {
    let dir = ctx.work.join(format!("suite-{k}"));
    let started = Instant::now();
    let run = Command::new(ctx.bin_dir.join("exp"))
        .args(["--id", "all", "--out-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .and_then(sys::wait_with_usage);
    let wall_s = started.elapsed().as_secs_f64();
    let usage = match run {
        Ok((true, usage)) => {
            check_listing(out, &read_csvs(&dir), &format!("pass {k}"));
            Some(usage)
        }
        Ok((false, _)) => {
            out.fail(format!("pass {k}: exp failed"));
            None
        }
        Err(e) => {
            out.fail(format!("pass {k}: cannot run exp: {e}"));
            None
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    Pass {
        wall_s,
        cpu_s: usage.map_or(0.0, |u| u.cpu.as_secs_f64()),
        rss_mb: usage.map_or(0.0, |u| u.maxrss_kib as f64 / 1024.0),
    }
}

fn read_csvs(dir: &Path) -> String {
    let entries = std::fs::read_dir(dir).map(|rd| {
        rd.filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".csv"))
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap_or_default();
                (name, bytes)
            })
            .collect::<Vec<_>>()
    });
    listing(entries.unwrap_or_default().into_iter())
}

/// Every suite id through `run_with`, in sequence, in this process; returns
/// each id's seconds.
fn in_process_pass(out: &mut Outcome, rec: &mut dyn Recorder) -> Vec<f64> {
    let mut csvs = Vec::new();
    let mut seconds = Vec::new();
    for id in wrsn_bench::ALL_IDS {
        let started = Instant::now();
        rec.span_enter(id);
        let tables = wrsn_bench::run_with(id, rec).expect("suite ids are known");
        rec.span_exit(id);
        seconds.push(started.elapsed().as_secs_f64());
        csvs.extend(
            tables
                .iter()
                .enumerate()
                .map(|(k, t)| (format!("{id}_{k}.csv"), t.to_csv().into_bytes())),
        );
    }
    check_listing(out, &listing(csvs.into_iter()), "in-process pass");
    seconds
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup, _) = setup_s(WARMUPS, |k| exp_pass(ctx, &mut out, k));
    out.set(metrics::SETUP_S, setup, WARMUPS);

    let mut wall_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut peak_mb: f64 = 0.0;
    let mut ids_untraced: Vec<Vec<f64>> = Vec::new();
    let mut traced_total = Vec::new();
    let mut counts = Vec::new();
    let traced = ctx.traced();
    let min_ops = if traced {
        1
    } else {
        stats::min_samples(TAIL_PCT)
    };
    measure(ctx.seconds, min_ops, |k| {
        ctx.tracer.set_run(k as u64);
        ctx.tracer.enter("exp.pass");
        let pass = exp_pass(ctx, &mut out, WARMUPS + k);
        ctx.tracer.exit();
        wall_ms.push(pass.wall_s * 1e3);
        cpu_ms.push(pass.cpu_s * 1e3);
        peak_mb = peak_mb.max(pass.rss_mb);
        if traced {
            ids_untraced.push(in_process_pass(&mut out, &mut NullRecorder));
            let mut rec = HookRecorder::new(&mut ctx.tracer);
            rec.tracer().enter("suite.in_process");
            let ids = in_process_pass(&mut out, &mut rec);
            rec.tracer().exit();
            traced_total.push(ids.iter().sum::<f64>());
            let mut sample = EngineSample::default();
            sample.add_counters(&rec, 0);
            sample.calls = rec.counter(Counter::PolicyDecisions);
            counts.push((
                sample,
                rec.counter(Counter::AuditProbes),
                rec.counter(Counter::AuditConvictions),
                rec.counter(Counter::FaultsInjected),
            ));
        }
    });

    if !traced {
        out.latency(&wall_ms, TAIL_PCT);
        out.set(metrics::CPU_PER_OP, stats::median(&cpu_ms), cpu_ms.len());
        out.set(metrics::PEAK_RSS, peak_mb, wall_ms.len());
        return out;
    }
    let untraced_total: Vec<f64> = ids_untraced.iter().map(|ids| ids.iter().sum()).collect();
    for (i, id) in wrsn_bench::ALL_IDS.iter().enumerate() {
        let per: Vec<f64> = ids_untraced.iter().map(|ids| ids[i]).collect();
        out.median_of(&format!("experiments.{id}_s"), &per);
    }
    let threads = wrsn_bench::parallel::threads() as f64;
    let efficiency = stats::median(&untraced_total) / (stats::median(&wall_ms) / 1e3 * threads);
    out.set_named("sim.parallel.efficiency", efficiency, wall_ms.len());
    out.set_named(
        "trace.overhead_ms",
        (stats::median(&traced_total) - stats::median(&untraced_total)) * 1e3,
        traced_total.len(),
    );
    // Counters repeat exactly from pass to pass; timing-derived engine
    // numbers are left to the campaign and durable workloads, because
    // worlds inside parallel experiments report counters but no spans.
    let (engine, probes, convictions, faults) = counts[0];
    out.median_of("policy.calls", &[engine.calls as f64]);
    out.median_of("sim.segments", &[engine.segments as f64]);
    out.median_of("sim.refreshes", &[engine.refreshes as f64]);
    out.median_of("net.repair_relaxed", &[engine.relaxed as f64]);
    out.median_of("net.full_builds", &[engine.full_builds as f64]);
    out.median_of("sim.audit.probes", &[probes as f64]);
    out.median_of("sim.audit.convictions", &[convictions as f64]);
    out.median_of("sim.fault.injected", &[faults as f64]);
    let repeat = counts.iter().all(|c| c.0.segments == engine.segments);
    out.check(repeat, || {
        "suite counters differ between passes".to_string()
    });
    out
}
