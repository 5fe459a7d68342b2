//! `wrsn` — the command-line front end.
//!
//! ```text
//! wrsn simulate --nodes 100 --seed 7 --policy csa --save run.json
//! wrsn simulate --nodes 100 --seed 7 --policy edf --depot
//! wrsn plan     --nodes 100 --seed 7            # dump the TIDE instance + CSA plan
//! wrsn audit    --load run.json                 # offline forensics on a snapshot
//! wrsn trace-diff a.jsonl b.jsonl               # first differing trace record
//! ```
//!
//! `simulate` runs a scenario under a named charger policy and prints the
//! report (optionally snapshotting the finished world to JSON); `plan` shows
//! what the attacker would compute without executing anything; `audit`
//! reloads a snapshot and runs every detector over it — the operator's
//! incident-response workflow. `trace-diff` compares two JSONL traces
//! (`exp --trace`) record by record: it prints the first record that differs
//! and each side's record count per kind, and exits 0 when the traces are
//! identical, 1 when they differ and 2 when either cannot be read.

use std::process::ExitCode;

use wrsn::core::attack::{CsaAttackPolicy, EagerSpoofPolicy, SelectiveNeglectPolicy};
use wrsn::core::csa;
use wrsn::core::detect::{self, FairnessAudit, PostMortemAudit};
use wrsn::core::tide::TideInstance;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::{self, TraceRecord};
use wrsn::sim::{ChargerPolicy, IdlePolicy, World};

const USAGE: &str = "\
usage:
  wrsn simulate --nodes <n> --seed <s> --policy <idle|njnp|edf|periodic|csa|eager|neglect>
                [--horizon <seconds>] [--depot] [--save <world.json>]
  wrsn plan     --nodes <n> --seed <s>
  wrsn audit    --load <world.json> [--victims <n1,n2,...>]
  wrsn trace-diff <a.jsonl> <b.jsonl>
  wrsn list-policies";

#[derive(Debug, Default)]
struct Args {
    nodes: usize,
    seed: u64,
    policy: String,
    horizon_s: Option<f64>,
    depot: bool,
    save: Option<String>,
    load: Option<String>,
    victims: Vec<wrsn::net::NodeId>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        nodes: 100,
        seed: 0,
        policy: "csa".to_string(),
        ..Args::default()
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--nodes" => out.nodes = take(&mut i)?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--seed" => out.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--policy" => out.policy = take(&mut i)?,
            "--horizon" => {
                out.horizon_s = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--horizon: {e}"))?,
                )
            }
            "--depot" => out.depot = true,
            "--save" => out.save = Some(take(&mut i)?),
            "--load" => out.load = Some(take(&mut i)?),
            "--victims" => {
                out.victims = take(&mut i)?
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map(wrsn::net::NodeId))
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--victims: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(out)
}

fn make_policy(name: &str, scenario: &Scenario) -> Result<Box<dyn ChargerPolicy>, String> {
    Ok(match name {
        "idle" => Box::new(IdlePolicy),
        "njnp" => Box::new(wrsn::charge::Njnp::new()),
        "edf" => Box::new(wrsn::charge::EarliestDeadlineFirst::new()),
        "periodic" => Box::new(wrsn::charge::PeriodicTsp::new(scenario.sink(), 50_000.0)),
        "csa" => Box::new(CsaAttackPolicy::new(scenario.tide_config())),
        "eager" => Box::new(EagerSpoofPolicy::new(3_000.0)),
        "neglect" => Box::new(SelectiveNeglectPolicy::new()),
        other => {
            return Err(format!(
                "unknown policy `{other}`; try `wrsn list-policies`"
            ))
        }
    })
}

fn scenario_from(args: &Args) -> Scenario {
    let mut s = Scenario::paper_scale(args.nodes, args.seed);
    if let Some(h) = args.horizon_s {
        s.horizon_s = h;
    }
    s.depot = args.depot;
    s
}

fn simulate(args: &Args) -> Result<(), String> {
    let scenario = scenario_from(args);
    let mut world = scenario.build();
    let mut policy = make_policy(&args.policy, &scenario)?;
    let report = world
        .run(policy.as_mut())
        .map_err(|e| format!("simulation failed: {e}"))?;
    println!(
        "policy {:<18} nodes {:>4}  seed {:<4} horizon {:.1} h{}",
        report.policy_name,
        args.nodes,
        args.seed,
        report.horizon_s / 3600.0,
        if args.depot { "  (depot)" } else { "" }
    );
    println!(
        "  alive {}/{}  lifetime {}  sessions {}  depot visits {}",
        report.alive_nodes,
        report.alive_nodes + report.dead_nodes,
        report
            .network_lifetime_s
            .map(|t| format!("{:.1} h", t / 3600.0))
            .unwrap_or_else(|| "survived".into()),
        report.sessions,
        report.depot_visits,
    );
    println!(
        "  delivered {:.1} J  radiated {:.0} J  charger used {:.0} J",
        report.total_delivered_j, report.total_radiated_j, report.charger_energy_used_j
    );
    if let Some(path) = &args.save {
        let json = serde_json::to_string(&world).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("  snapshot saved to {path}");
    }
    Ok(())
}

fn plan(args: &Args) -> Result<(), String> {
    let scenario = scenario_from(args);
    let world = scenario.build();
    let instance = TideInstance::from_world(&world, &scenario.tide_config());
    println!(
        "TIDE instance: {} victims, total weight {:.1}, budget {:.0} kJ",
        instance.victim_count(),
        instance.total_weight(),
        instance.budget_j / 1e3
    );
    for v in &instance.victims {
        println!(
            "  {:>5}  weight {:>5.2}  window [{:>9.0}, {:>9.0}] s  masquerade {:>6.0} s  death {:>9.0} s",
            v.node.to_string(),
            v.weight,
            v.window.open_s,
            v.window.close_s,
            v.service_s,
            v.death_s
        );
    }
    let schedule = csa::plan(&instance);
    instance
        .validate(&schedule)
        .map_err(|e| format!("CSA emitted an invalid plan: {e}"))?;
    println!(
        "CSA plan: {} stops, utility {:.1}, energy {:.0} kJ",
        schedule.len(),
        instance.utility(&schedule),
        instance.energy_cost(&schedule) / 1e3
    );
    for (k, stop) in schedule.stops().iter().enumerate() {
        let v = &instance.victims[stop.victim];
        println!("  stop {k}: {} at t = {:.0} s", v.node, stop.begin_s);
    }
    Ok(())
}

fn audit(args: &Args) -> Result<(), String> {
    let path = args
        .load
        .as_ref()
        .ok_or("audit needs --load <world.json>")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let world: World = serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
    println!(
        "snapshot: t = {:.1} h, {} sessions, {} deaths",
        world.time_s() / 3600.0,
        world.trace().sessions().len(),
        world.trace().death_times().len()
    );
    let mut detectors = detect::standard_detectors();
    detectors.push(Box::new(FairnessAudit::default()));
    detectors.push(Box::new(PostMortemAudit::default()));
    for detector in detectors {
        let report = detector.analyze(&world);
        print!(
            "  {:<22} {:>4} alarms",
            detector.name(),
            report.alarm_count()
        );
        if let Some(ratio) = report.detection_ratio(&args.victims) {
            print!(
                "   detection ratio on given victims: {:.0} %",
                ratio * 100.0
            );
        }
        println!();
        for alarm in report.alarms.iter().take(5) {
            println!(
                "      {} @ {:.0} s — {}",
                alarm.node, alarm.time_s, alarm.detail
            );
        }
        if report.alarm_count() > 5 {
            println!("      … and {} more", report.alarm_count() - 5);
        }
    }
    Ok(())
}

/// The record kinds of a trace, in the order `trace-diff` reports them.
const RECORD_KINDS: [&str; 6] = ["Meta", "Event", "Session", "Snapshot", "Fault", "Counters"];

fn record_kind(record: &TraceRecord) -> usize {
    match record {
        TraceRecord::Meta { .. } => 0,
        TraceRecord::Event { .. } => 1,
        TraceRecord::Session { .. } => 2,
        TraceRecord::Snapshot { .. } => 3,
        TraceRecord::Fault { .. } => 4,
        TraceRecord::Counters { .. } => 5,
    }
}

/// One trace's lines, each checked to parse as a record, and its record
/// count per kind.
fn read_trace(path: &str) -> Result<(Vec<String>, [usize; 6]), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut counts = [0usize; 6];
    let lines = text
        .lines()
        .enumerate()
        .map(|(k, line)| {
            let record =
                obs::from_jsonl_line(line).map_err(|e| format!("{path}:{}: {}", k + 1, e.0))?;
            counts[record_kind(&record)] += 1;
            Ok(line.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((lines, counts))
}

/// `wrsn trace-diff`: `Ok(true)` when the traces are identical.
fn trace_diff(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("trace-diff takes two trace files\n{USAGE}"));
    };
    let (lines_a, counts_a) = read_trace(a)?;
    let (lines_b, counts_b) = read_trace(b)?;
    let first = (0..lines_a.len().max(lines_b.len())).find(|&k| lines_a.get(k) != lines_b.get(k));
    match first {
        None => println!("identical: {} records", lines_a.len()),
        Some(k) => {
            let side = |lines: &[String]| {
                lines
                    .get(k)
                    .cloned()
                    .unwrap_or_else(|| "(no record: the trace ends here)".to_string())
            };
            println!("first difference at line {}:", k + 1);
            println!("< {}", side(&lines_a));
            println!("> {}", side(&lines_b));
        }
    }
    println!("{:<10} {:>10} {:>10}", "kind", "a", "b");
    for (kind, (ca, cb)) in RECORD_KINDS.iter().zip(counts_a.iter().zip(&counts_b)) {
        println!("{kind:<10} {ca:>10} {cb:>10}");
    }
    Ok(first.is_none())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd == "trace-diff" {
        return match trace_diff(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result = match cmd.as_str() {
        "simulate" => parse(rest).and_then(|a| simulate(&a)),
        "plan" => parse(rest).and_then(|a| plan(&a)),
        "audit" => parse(rest).and_then(|a| audit(&a)),
        "list-policies" => {
            println!("idle njnp edf periodic csa eager neglect");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_simulate_flags() {
        let a = parse(&argv(
            "--nodes 60 --seed 4 --policy edf --depot --horizon 1000",
        ))
        .unwrap();
        assert_eq!(a.nodes, 60);
        assert_eq!(a.seed, 4);
        assert_eq!(a.policy, "edf");
        assert!(a.depot);
        assert_eq!(a.horizon_s, Some(1000.0));
    }

    #[test]
    fn parse_victims_list() {
        let a = parse(&argv("--victims 1,2,9")).unwrap();
        assert_eq!(
            a.victims,
            vec![
                wrsn::net::NodeId(1),
                wrsn::net::NodeId(2),
                wrsn::net::NodeId(9)
            ]
        );
    }

    #[test]
    fn parse_rejects_unknown_and_incomplete() {
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--nodes")).is_err());
        assert!(parse(&argv("--nodes abc")).is_err());
    }

    #[test]
    fn trace_diff_tells_identical_from_different_from_unreadable() {
        let dir = std::env::temp_dir().join(format!("wrsn-trace-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records = [
            TraceRecord::Meta {
                schema: "wrsn-trace".to_string(),
                scope: "t".to_string(),
            },
            TraceRecord::Counters {
                scope: "t".to_string(),
                counters: vec![("replans".to_string(), 3)],
            },
        ];
        let lines: Vec<String> = records
            .iter()
            .map(|r| obs::to_jsonl_line(r).unwrap())
            .collect();
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let full = write("full.jsonl", lines.join("\n") + "\n");
        let short = write("short.jsonl", lines[0].clone() + "\n");
        let bad = write("bad.jsonl", "{not json\n".to_string());
        assert_eq!(trace_diff(&[full.clone(), full.clone()]), Ok(true));
        assert_eq!(trace_diff(&[full.clone(), short]), Ok(false));
        assert!(trace_diff(&[full.clone(), bad]).is_err());
        assert!(trace_diff(&[full]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_listed_policy_constructs() {
        let scenario = Scenario::paper_scale(10, 0);
        for name in ["idle", "njnp", "edf", "periodic", "csa", "eager", "neglect"] {
            assert!(make_policy(name, &scenario).is_ok(), "{name}");
        }
        assert!(make_policy("nope", &scenario).is_err());
    }
}
