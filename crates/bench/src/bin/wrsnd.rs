//! `wrsnd` — the resident campaign daemon and its load generator.
//!
//! ```text
//! # Serve scenario requests over TCP (port 0 = pick a free port).
//! cargo run -p wrsn-bench --release --bin wrsnd -- serve --listen 127.0.0.1:0
//!
//! # Serve over stdin/stdout (for pipe-based harnesses).
//! cargo run -p wrsn-bench --release --bin wrsnd -- serve --stdin
//!
//! # Drive a running daemon with a deterministic mixed-size load.
//! cargo run -p wrsn-bench --release --bin wrsnd -- \
//!     load --connect 127.0.0.1:7878 --requests 1000 --conns 8 \
//!          --dup-frac 0.5 --shutdown
//! ```
//!
//! The wire protocol, dedupe semantics, and deadline behaviour are
//! documented in `wrsn_bench::service` (DESIGN.md has the prose version).
//! The load generator exits nonzero if any contract check fails: a request
//! unanswered or non-`ok`, duplicate digests served different bytes, or
//! (with `--verify-exp`) daemon output drifting from an in-process run.

use std::process::ExitCode;
use std::time::Duration;

use wrsn::sim::cancel::budget_from_secs;
use wrsn_bench::error::BenchError;
use wrsn_bench::service::chaos::{self, ChaosConfig};
use wrsn_bench::service::loadgen::{run_load, LoadConfig};
use wrsn_bench::service::server::{serve, ServeConfig};

fn usage() -> String {
    "usage: wrsnd serve [--listen <addr>|--stdin] [--store <dir>] [--workers <n>]\n\
     \x20                  [--deadline-s <s>] [--max-requests <n>] [--queue-cap <n>]\n\
     \x20                  [--cache-cap-bytes <n>] [--idle-timeout-s <s>]\n\
     \x20      wrsnd load --connect <addr> [--requests <n>] [--conns <n>] [--dup-frac <f>]\n\
     \x20                 [--stream-frac <f>] [--max-attempts <n>] [--deadline-s <s>]\n\
     \x20                 [--seed <n>] [--verify-exp <id>] [--shutdown]\n\
     \x20      wrsnd chaos --upstream <addr> [--listen <addr>] [--seed <n>]"
        .to_string()
}

fn invalid(flag: &'static str, detail: String) -> BenchError {
    BenchError::InvalidFlag { flag, detail }
}

/// Pulls the value of `flag` out of the argument stream.
fn take_value(
    args: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
    flag: &'static str,
) -> Result<String, BenchError> {
    args.next()
        .ok_or_else(|| invalid(flag, "missing value".to_string()))
}

/// Pulls `flag`'s value as a wall-clock budget: seconds that are positive,
/// finite and small enough for a [`Duration`]. Returns the seconds as given
/// and the budget.
fn take_secs(
    args: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
    flag: &'static str,
) -> Result<(f64, Duration), BenchError> {
    let raw = take_value(args, flag)?;
    let s: f64 = raw
        .parse()
        .map_err(|_| invalid(flag, format!("not a number: `{raw}`")))?;
    let budget = budget_from_secs(s)
        .ok_or_else(|| invalid(flag, format!("must be positive and below 1.8e19 s: {s}")))?;
    Ok((s, budget))
}

fn parse_serve(args: Vec<String>) -> Result<ServeConfig, BenchError> {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut config = ServeConfig {
        listen: Some("127.0.0.1:0".to_string()),
        store_dir: std::path::PathBuf::from(".wrsnd"),
        workers,
        default_deadline: Duration::from_secs(60),
        max_requests: None,
        queue_cap: 0, // resolved after flags: workers may change
        cache_cap_bytes: None,
        idle_timeout: None,
    };
    let mut queue_cap = None;
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--listen" => config.listen = Some(take_value(&mut args, "--listen")?),
            "--stdin" => config.listen = None,
            "--store" => {
                config.store_dir = std::path::PathBuf::from(take_value(&mut args, "--store")?)
            }
            "--workers" => {
                let raw = take_value(&mut args, "--workers")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| invalid("--workers", format!("not a count: `{raw}`")))?;
                if n == 0 {
                    return Err(invalid("--workers", "must be at least 1".to_string()));
                }
                config.workers = n;
            }
            "--deadline-s" => config.default_deadline = take_secs(&mut args, "--deadline-s")?.1,
            "--max-requests" => {
                let raw = take_value(&mut args, "--max-requests")?;
                config.max_requests = Some(
                    raw.parse()
                        .map_err(|_| invalid("--max-requests", format!("not a count: `{raw}`")))?,
                );
            }
            "--queue-cap" => {
                let raw = take_value(&mut args, "--queue-cap")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| invalid("--queue-cap", format!("not a count: `{raw}`")))?;
                if n == 0 {
                    return Err(invalid("--queue-cap", "must be at least 1".to_string()));
                }
                queue_cap = Some(n);
            }
            "--cache-cap-bytes" => {
                let raw = take_value(&mut args, "--cache-cap-bytes")?;
                let n: u64 = raw.parse().map_err(|_| {
                    invalid("--cache-cap-bytes", format!("not a byte count: `{raw}`"))
                })?;
                if n == 0 {
                    return Err(invalid(
                        "--cache-cap-bytes",
                        "must be at least 1".to_string(),
                    ));
                }
                config.cache_cap_bytes = Some(n);
            }
            "--idle-timeout-s" => {
                config.idle_timeout = Some(take_secs(&mut args, "--idle-timeout-s")?.1);
            }
            other => {
                return Err(invalid(
                    "serve",
                    format!("unknown flag `{other}`\n{}", usage()),
                ))
            }
        }
    }
    config.queue_cap = queue_cap.unwrap_or_else(|| ServeConfig::default_queue_cap(config.workers));
    Ok(config)
}

fn parse_chaos(args: Vec<String>) -> Result<ChaosConfig, BenchError> {
    let mut config = ChaosConfig {
        listen: "127.0.0.1:0".to_string(),
        upstream: String::new(),
        seed: 42,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--listen" => config.listen = take_value(&mut args, "--listen")?,
            "--upstream" => config.upstream = take_value(&mut args, "--upstream")?,
            "--seed" => {
                let raw = take_value(&mut args, "--seed")?;
                config.seed = raw
                    .parse()
                    .map_err(|_| invalid("--seed", format!("not a seed: `{raw}`")))?;
            }
            other => {
                return Err(invalid(
                    "chaos",
                    format!("unknown flag `{other}`\n{}", usage()),
                ))
            }
        }
    }
    if config.upstream.is_empty() {
        return Err(invalid("--upstream", "is required for `chaos`".to_string()));
    }
    Ok(config)
}

fn parse_load(args: Vec<String>) -> Result<LoadConfig, BenchError> {
    let mut config = LoadConfig {
        connect: String::new(),
        requests: 1000,
        conns: 8,
        dup_frac: 0.5,
        stream_frac: 0.0,
        deadline_s: 60.0,
        seed: 7,
        max_attempts: 8,
        verify_exp: None,
        shutdown: false,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => config.connect = take_value(&mut args, "--connect")?,
            "--requests" => {
                let raw = take_value(&mut args, "--requests")?;
                config.requests = raw
                    .parse()
                    .map_err(|_| invalid("--requests", format!("not a count: `{raw}`")))?;
                if config.requests == 0 {
                    return Err(invalid("--requests", "must be at least 1".to_string()));
                }
            }
            "--conns" => {
                let raw = take_value(&mut args, "--conns")?;
                config.conns = raw
                    .parse()
                    .map_err(|_| invalid("--conns", format!("not a count: `{raw}`")))?;
                if config.conns == 0 {
                    return Err(invalid("--conns", "must be at least 1".to_string()));
                }
            }
            "--dup-frac" => {
                let raw = take_value(&mut args, "--dup-frac")?;
                let f: f64 = raw
                    .parse()
                    .map_err(|_| invalid("--dup-frac", format!("not a number: `{raw}`")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(invalid("--dup-frac", format!("must be in 0..=1: {f}")));
                }
                config.dup_frac = f;
            }
            "--stream-frac" => {
                let raw = take_value(&mut args, "--stream-frac")?;
                let f: f64 = raw
                    .parse()
                    .map_err(|_| invalid("--stream-frac", format!("not a number: `{raw}`")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(invalid("--stream-frac", format!("must be in 0..=1: {f}")));
                }
                config.stream_frac = f;
            }
            "--max-attempts" => {
                let raw = take_value(&mut args, "--max-attempts")?;
                let n: u32 = raw
                    .parse()
                    .map_err(|_| invalid("--max-attempts", format!("not a count: `{raw}`")))?;
                if n == 0 {
                    return Err(invalid("--max-attempts", "must be at least 1".to_string()));
                }
                config.max_attempts = n;
            }
            "--deadline-s" => config.deadline_s = take_secs(&mut args, "--deadline-s")?.0,
            "--seed" => {
                let raw = take_value(&mut args, "--seed")?;
                config.seed = raw
                    .parse()
                    .map_err(|_| invalid("--seed", format!("not a seed: `{raw}`")))?;
            }
            "--verify-exp" => {
                let id = take_value(&mut args, "--verify-exp")?;
                if !wrsn_bench::is_known_id(&id) {
                    return Err(invalid(
                        "--verify-exp",
                        format!("unknown experiment `{id}`"),
                    ));
                }
                config.verify_exp = Some(id);
            }
            "--shutdown" => config.shutdown = true,
            other => {
                return Err(invalid(
                    "load",
                    format!("unknown flag `{other}`\n{}", usage()),
                ))
            }
        }
    }
    if config.connect.is_empty() {
        return Err(invalid("--connect", "is required for `load`".to_string()));
    }
    Ok(config)
}

fn send_shutdown(connect: &str) {
    use std::io::{BufRead, BufReader, Write};
    match std::net::TcpStream::connect(connect) {
        Ok(mut stream) => {
            let _ = stream.write_all(b"{\"op\":\"shutdown\"}\n");
            let _ = stream.flush();
            // Wait for the ack (or EOF) so the daemon is actually stopping
            // before we return.
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
        Err(e) => eprintln!("wrsnd: shutdown connect {connect}: {e}"),
    }
}

fn real_main() -> Result<(), BenchError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(invalid("wrsnd", usage()));
    }
    let mode = args.remove(0);
    match mode.as_str() {
        "serve" => serve(&parse_serve(args)?),
        "load" => {
            let config = parse_load(args)?;
            let report = run_load(&config);
            if config.shutdown {
                send_shutdown(&config.connect);
            }
            let report = report?;
            let opt = |x: Option<f64>| x.map_or("null".to_string(), |v| format!("{v:.2}"));
            eprintln!(
                "[load] {} requests over {} conns in {:.2} s — {:.0} ok/s; \
                 cache miss/hit/coalesced = {}/{}/{}; \
                 shed/retries/reconnects = {}/{}/{}; stream frames = {}; \
                 latency ms p50={} p99={} max={}",
                report.sent,
                config.conns,
                report.wall_s,
                report.throughput_rps,
                report.cache_paths.0,
                report.cache_paths.1,
                report.cache_paths.2,
                report.shed,
                report.retries,
                report.reconnects,
                report.stream_frames,
                opt(wrsn_bench::stats::p50(&report.latency_ms)),
                opt(wrsn_bench::stats::p99(&report.latency_ms)),
                opt(wrsn_bench::stats::max(&report.latency_ms)),
            );
            if report.violations.is_empty() && report.ok == report.sent {
                Ok(())
            } else {
                for violation in report.violations.iter().take(20) {
                    eprintln!("[load] VIOLATION: {violation}");
                }
                if report.violations.len() > 20 {
                    eprintln!("[load] … {} more", report.violations.len() - 20);
                }
                Err(invalid(
                    "load",
                    format!(
                        "{} violations, {}/{} ok",
                        report.violations.len(),
                        report.ok,
                        report.sent
                    ),
                ))
            }
        }
        "chaos" => chaos::serve(&parse_chaos(args)?),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(invalid(
            "wrsnd",
            format!("unknown mode `{other}`\n{}", usage()),
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wrsnd: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn rejected_flag(result: Result<impl Sized, BenchError>) -> (&'static str, String) {
        match result {
            Err(BenchError::InvalidFlag { flag, detail }) => (flag, detail),
            Err(other) => panic!("expected an invalid flag, got {other}"),
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn seconds_beyond_a_duration_are_rejected_not_a_panic() {
        for flag in ["--deadline-s", "--idle-timeout-s"] {
            let (named, detail) = rejected_flag(parse_serve(args(&[flag, "1e20"])));
            assert_eq!(named, flag);
            assert!(detail.contains("1.8e19"), "{detail}");
        }
        let (named, _) = rejected_flag(parse_load(args(&[
            "--connect",
            "127.0.0.1:1",
            "--deadline-s",
            "1e20",
        ])));
        assert_eq!(named, "--deadline-s");
        let (named, _) = rejected_flag(parse_serve(args(&["--deadline-s", "0"])));
        assert_eq!(named, "--deadline-s");
    }

    #[test]
    fn valid_seconds_parse() {
        let config = parse_serve(args(&["--deadline-s", "2.5", "--idle-timeout-s", "9"])).unwrap();
        assert_eq!(config.default_deadline, Duration::from_millis(2500));
        assert_eq!(config.idle_timeout, Some(Duration::from_secs(9)));
        let load = parse_load(args(&["--connect", "x:1", "--deadline-s", "0.25"])).unwrap();
        assert_eq!(load.deadline_s, 0.25);
    }
}
