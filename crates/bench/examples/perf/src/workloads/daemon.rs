//! `daemon_low` and `daemon_high`: a fresh `wrsnd` driven open-loop over one
//! connection, by one writer thread sending on schedule and the calling
//! thread reading responses.
//!
//! Scenario requests have {40, 80, 160, 320} nodes, and half of them repeat
//! an earlier request, so cache hits and misses interleave. Sizes stop at
//! 320 because the exact key-node census makes a miss cost grow steeply
//! with size. Every request is timed from when it was due, so a stall also
//! delays the requests queued behind it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;
use wrsn_bench::service::request::{self, DeploymentKind, ParsedResponse, Payload, ScenarioSpec};

use super::{Ctx, Outcome};
use crate::metrics;
use crate::stats;
use crate::sys;

const SIZES: [usize; 4] = [40, 80, 160, 320];
const HORIZON_S: f64 = 50_000.0;
/// Inside the client's 40 ms delayed-ACK window. The daemon writes a large
/// response in two pieces, and Nagle's algorithm holds the second until the
/// first is acknowledged; the ACK rides on the next request, 20 ms later at
/// this rate.
const LOW_RPS: f64 = 50.0;
const HIGH_RPS: f64 = 100.0;
const LADDER_START_RPS: f64 = 125.0;
const LADDER_FACTOR: f64 = 1.25;
/// Up to 596 req/s: four steps (to 244 req/s) never found the limit.
const LADDER_STEPS: usize = 8;
const TAIL_PCT: u32 = 99;
const SETUPS: usize = 11;
/// Shorter than the daemon's 5 ms accept poll, so with today's daemon the
/// pause adds no time to a start.
const CONNECT_PAUSE: Duration = Duration::from_millis(2);
/// Unique results recomputed in this process and compared byte for byte.
const CHECKED: usize = 64;
/// Longest silence from the daemon before a phase gives up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The service-level objective a rate must meet.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub p99_ms: f64,
    pub failed_frac: f64,
    /// Every response must arrive within this long of the last send.
    pub drain_s: f64,
    /// Generator lateness p99: above it the client, not the daemon, is late.
    pub late_p99_ms: f64,
}

pub const SLO: Slo = Slo {
    p99_ms: 200.0,
    failed_frac: 0.01,
    drain_s: 2.0,
    late_p99_ms: 5.0,
};

/// SplitMix64: a small seeded generator for the request stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded request stream. Every other request repeats a random earlier
/// one, and new requests take the sizes in turn, so every seed sends the
/// same mix and the seed picks only the deployments and which request
/// repeats. Drawing sizes and repeats at random instead made the few
/// expensive misses cluster differently per seed, and the p99 latency range
/// from 40 to 100 ms between seeds.
struct Mix {
    rng: Rng,
    sent: usize,
    unique: Vec<ScenarioSpec>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Mix {
            rng: Rng(seed),
            sent: 0,
            unique: Vec::new(),
        }
    }

    fn next(&mut self) -> ScenarioSpec {
        self.sent += 1;
        if self.sent.is_multiple_of(2) {
            return self.unique[self.rng.below(self.unique.len())].clone();
        }
        let spec = ScenarioSpec {
            nodes: SIZES[self.unique.len() % SIZES.len()],
            seed: self.rng.next() >> 32,
            horizon_s: HORIZON_S,
            deployment: DeploymentKind::Uniform,
        };
        self.unique.push(spec.clone());
        spec
    }
}

/// A running daemon and the one client connection to it.
struct Daemon {
    child: Child,
    /// Held so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Daemon {
    /// Spawns `wrsnd serve` on a free port and waits for its first `ping`.
    fn start(bin: &Path, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let connected = stdout
            .read_line(&mut banner)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                let addr = banner
                    .trim()
                    .strip_prefix("wrsnd listening on ")
                    .ok_or_else(|| format!("unexpected banner `{}`", banner.trim()))?;
                // The daemon polls for connections every 5 ms. Connecting at
                // once races its first poll, and a start then takes either
                // 1 or 6 ms by luck; after this pause the daemon is always
                // asleep, and the connection waits for the next poll.
                std::thread::sleep(CONNECT_PAUSE);
                TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
            });
        let conn = match connected {
            Ok(conn) => conn,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            conn,
            reader,
        };
        daemon.conn.set_nodelay(true).map_err(|e| e.to_string())?;
        daemon
            .conn
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let pong = daemon.control("ping")?;
        if !pong.contains("\"status\":\"ok\"") {
            return Err(format!("ping answered `{pong}`"));
        }
        Ok(daemon)
    }

    /// Sends a control op and returns its response line.
    fn control(&mut self, op: &str) -> Result<String, String> {
        writeln!(self.conn, "{{\"id\":\"{op}\",\"op\":\"{op}\"}}").map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("{op}: {e}"))?;
        Ok(line)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = self.control("shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("wrsnd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("wrsnd did not shut down".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One send of a request: first sends are scheduled at the request's due
/// time, resends at the retry time the daemon asked for.
#[derive(Debug, Clone, Copy)]
struct Send {
    idx: usize,
    scheduled: Instant,
    at: Instant,
}

/// A request's final response.
#[derive(Debug, Clone)]
struct Answer {
    recv: Instant,
    parsed: ParsedResponse,
    wall_ms: Option<f64>,
}

/// Everything one open-loop phase observed.
struct Phase {
    rate: f64,
    t0: Instant,
    specs: Vec<ScenarioSpec>,
    answers: Vec<Option<Answer>>,
    sends: Vec<Send>,
    shed: u64,
    cpu: Duration,
}

impl Phase {
    fn due(&self, idx: usize) -> Instant {
        due(self.t0, self.rate, idx)
    }

    fn ok(&self, idx: usize) -> Option<&Answer> {
        self.answers[idx]
            .as_ref()
            .filter(|a| a.parsed.status == "ok")
    }

    /// Latency of every answered request, from its due time.
    fn latency_ms(&self) -> Vec<f64> {
        (0..self.specs.len())
            .filter_map(|i| self.ok(i).map(|a| ms(a.recv - self.due(i))))
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.sends.iter().map(|s| ms(s.at - s.scheduled)).collect()
    }

    fn failed(&self) -> usize {
        (0..self.specs.len())
            .filter(|&i| self.ok(i).is_none())
            .count()
    }

    fn last_send(&self, idx: usize) -> Option<Instant> {
        self.sends
            .iter()
            .filter(|s| s.idx == idx)
            .map(|s| s.at)
            .max()
    }

    /// The parts of `slo` this phase missed; empty when it met the SLO.
    fn misses(&self, slo: &Slo) -> Vec<String> {
        let n = self.specs.len().max(1);
        let mut latency = self.latency_ms();
        latency.extend(std::iter::repeat_n(f64::INFINITY, self.failed()));
        let last_sent = self.sends.iter().map(|s| s.at).max();
        let last_recv = self.answers.iter().flatten().map(|a| a.recv).max();
        let drain_s = match (last_recv, last_sent) {
            (Some(recv), Some(sent)) => recv.saturating_duration_since(sent).as_secs_f64(),
            _ => f64::INFINITY,
        };
        let failed = self.failed() as f64 / n as f64;
        let p99 = stats::nearest_rank(&latency, 99);
        let late = stats::nearest_rank(&self.late_ms(), 99);
        let mut misses = Vec::new();
        if failed > slo.failed_frac {
            misses.push(format!("failed {failed:.3}"));
        }
        if p99 > slo.p99_ms {
            misses.push(format!("p99 {p99:.1} ms"));
        }
        if drain_s > slo.drain_s {
            misses.push(format!("drain {drain_s:.2} s"));
        }
        if late > slo.late_p99_ms {
            misses.push(format!("late p99 {late:.1} ms"));
        }
        misses
    }
}

fn due(t0: Instant, rate: f64, idx: usize) -> Instant {
    t0 + Duration::from_secs_f64(idx as f64 / rate)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn request_line(id: usize, spec: &ScenarioSpec) -> String {
    format!(
        "{{\"id\":\"q{id}\",\"scenario\":{}}}\n",
        serde_json::to_string(&spec.to_value()).expect("specs are finite")
    )
}

/// The envelope's `wall_ms`, which the shared response parser skips.
fn wall_ms(line: &str) -> Option<f64> {
    let rest = &line[line.find("\"wall_ms\":")? + "\"wall_ms\":".len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Sends `lines[i]` at its due time and each resend the reader asks for at
/// its retry time; stops once every first send is out and the reader has
/// hung up.
fn write_loop(
    conn: &mut TcpStream,
    lines: &[String],
    t0: Instant,
    rate: f64,
    retries: mpsc::Receiver<(Instant, usize)>,
) -> Vec<Send> {
    let mut sends = Vec::with_capacity(lines.len());
    let mut pending: Vec<(Instant, usize)> = Vec::new();
    let mut next = 0;
    let mut open = true;
    loop {
        let first = (next < lines.len()).then(|| due(t0, rate, next));
        let retry = pending.iter().copied().min();
        let (at, idx, is_retry) = match (first, retry) {
            (Some(f), Some((r, i))) if r < f => (r, i, true),
            (Some(f), _) => (f, next, false),
            (None, Some((r, i))) => (r, i, true),
            (None, None) if open => match retries.recv() {
                Ok(r) => {
                    pending.push(r);
                    continue;
                }
                Err(_) => break,
            },
            (None, None) => break,
        };
        let now = Instant::now();
        if at > now {
            if open {
                match retries.recv_timeout(at - now) {
                    Ok(r) => {
                        pending.push(r);
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                }
            }
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        if is_retry {
            pending.retain(|&p| p != (at, idx));
        } else {
            next += 1;
        }
        let sent = Instant::now();
        if conn.write_all(lines[idx].as_bytes()).is_err() {
            break;
        }
        sends.push(Send {
            idx,
            scheduled: at,
            at: sent,
        });
    }
    sends
}

/// Runs `rate` requests per second for `secs` seconds, then waits for every
/// answer.
fn run_phase(d: &mut Daemon, mix: &mut Mix, first_id: usize, rate: f64, secs: f64) -> Phase {
    let count = (rate * secs).round() as usize;
    let specs: Vec<ScenarioSpec> = (0..count).map(|_| mix.next()).collect();
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| request_line(first_id + i, s))
        .collect();
    let mut answers: Vec<Option<Answer>> = vec![None; count];
    let mut shed = 0;
    let cpu_before = sys::cpu_of(d.pid()).unwrap_or_default();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut writer = d.conn.try_clone().expect("clone the client socket");
    let sends = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let lines = &lines;
        let handle = scope.spawn(move || write_loop(&mut writer, lines, t0, rate, rx));
        let mut resolved = 0;
        while resolved < count {
            let mut line = String::new();
            match d.reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let recv = Instant::now();
            let Ok(parsed) = request::parse_response(line.trim_end()) else {
                continue;
            };
            let idx = parsed
                .id
                .strip_prefix('q')
                .and_then(|n| n.parse::<usize>().ok())
                .and_then(|n| n.checked_sub(first_id))
                .filter(|&i| i < count);
            let Some(idx) = idx else { continue };
            if parsed.status == "overloaded" {
                shed += 1;
                let wait = Duration::from_millis(parsed.retry_after_ms.unwrap_or(25));
                let _ = tx.send((recv + wait, idx));
                continue;
            }
            if answers[idx].is_none() {
                resolved += 1;
            }
            answers[idx] = Some(Answer {
                recv,
                wall_ms: wall_ms(&line),
                parsed,
            });
        }
        drop(tx);
        handle.join().expect("writer thread panicked")
    });
    let cpu = sys::cpu_of(d.pid())
        .unwrap_or_default()
        .saturating_sub(cpu_before);
    Phase {
        rate,
        t0,
        specs,
        answers,
        sends,
        shed,
        cpu,
    }
}

/// Runs `step(rate)` over increasing rates until one misses the objective;
/// returns the highest rate that met it before that (0 when the first
/// misses).
pub fn climb(rates: impl IntoIterator<Item = f64>, mut step: impl FnMut(f64) -> bool) -> f64 {
    let mut best = 0.0;
    for rate in rates {
        if !step(rate) {
            break;
        }
        best = rate;
    }
    best
}

/// Correctness over every phase: each request answered `ok` under the
/// digest of what was asked, duplicates byte-identical, and a sample of
/// unique results equal to an in-process computation.
fn check(out: &mut Outcome, phases: &[Phase], seed: u64) {
    let mut by_digest: HashMap<String, (&ScenarioSpec, &str)> = HashMap::new();
    for phase in phases {
        for (i, spec) in phase.specs.iter().enumerate() {
            let want = Payload::Scenario(spec.clone()).digest();
            let Some(answer) = phase.ok(i) else {
                out.check(false, || format!("request for {want} not answered ok"));
                continue;
            };
            let parsed = &answer.parsed;
            let result = parsed.result_canonical.as_deref().unwrap_or("");
            let same = match by_digest.get(&want) {
                Some(&(_, first)) => first == result,
                None => {
                    by_digest.insert(want.clone(), (spec, result));
                    true
                }
            };
            out.check(parsed.digest.as_deref() == Some(&want) && same, || {
                format!(
                    "{want}: digest {:?} or duplicate bytes differ",
                    parsed.digest
                )
            });
        }
    }
    let mut digests: Vec<&String> = by_digest.keys().collect();
    digests.sort();
    let mut rng = Rng(seed ^ 0x00c0_ffee);
    for _ in 0..CHECKED.min(digests.len()) {
        let digest = digests.swap_remove(rng.below(digests.len()));
        let (spec, served) = by_digest[digest];
        let local = request::execute(&Payload::Scenario(spec.clone()))
            .map_err(|e| format!("{e:?}"))
            .and_then(|raw| {
                let value: Value = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
                serde_json::to_string(&value).map_err(|e| e.to_string())
            });
        out.check(local.as_deref() == Ok(served), || {
            format!("{digest}: daemon result differs from in-process execute")
        });
    }
}

/// Per-layer service numbers of one phase, plus the daemon's own stats.
fn report_service(out: &mut Outcome, phase: &Phase, stats_line: &str) {
    let answers: Vec<(usize, &Answer)> = (0..phase.specs.len())
        .filter_map(|i| phase.ok(i).map(|a| (i, a)))
        .collect();
    let path = |a: &Answer| a.parsed.cache.clone().unwrap_or_default();
    let server = |cache: &str| -> Vec<f64> {
        answers
            .iter()
            .filter(|(_, a)| path(a) == cache)
            .filter_map(|(_, a)| a.wall_ms)
            .collect()
    };
    for cache in ["hit", "miss"] {
        let walls = server(cache);
        for pct in [50, 90] {
            if let Some(v) = stats::percentile(&walls, pct) {
                out.set_named(&format!("service.server_ms.{cache}.p{pct}"), v, walls.len());
            }
        }
    }
    for size in SIZES {
        let walls: Vec<f64> = answers
            .iter()
            .filter(|(i, a)| path(a) == "miss" && phase.specs[*i].nodes == size)
            .filter_map(|(_, a)| a.wall_ms)
            .collect();
        out.median_of(&format!("service.compute_ms.n{size}"), &walls);
    }
    let wire: Vec<f64> = answers
        .iter()
        .filter_map(|&(i, a)| Some(ms(a.recv - phase.last_send(i)?) - a.wall_ms?))
        .collect();
    for pct in [50, 99] {
        if let Some(v) = stats::percentile(&wire, pct) {
            out.set_named(&format!("service.wire_ms.p{pct}"), v, wire.len());
        }
    }
    let n = answers.len().max(1) as f64;
    let share = |cache: &str| answers.iter().filter(|(_, a)| path(a) == cache).count() as f64 / n;
    out.set_named("service.hit_ratio", share("hit"), answers.len());
    out.set_named("service.coalesced_ratio", share("coalesced"), answers.len());
    let attempts = phase.sends.len().max(1);
    out.set_named(
        "service.shed_ratio",
        phase.shed as f64 / attempts as f64,
        attempts,
    );
    out.set_named("service.retries", phase.shed as f64, 1);
    if let Some(late) = stats::percentile(&phase.late_ms(), 99) {
        out.set_named("client.late_ms.p99", late, phase.sends.len());
    }
    let stats: Option<Value> = serde_json::from_str(stats_line.trim()).ok();
    let result = stats
        .as_ref()
        .and_then(|v| v.as_map())
        .and_then(|m| serde::map_get(m, "result").ok())
        .and_then(|r| r.as_map());
    let counter = |key: &str| match result.and_then(|r| serde::map_get(r, key).ok()) {
        Some(Value::U64(v)) => *v as f64,
        _ => 0.0,
    };
    out.set_named("service.queue_hwm", counter("queue_high_watermark"), 1);
    out.set_named("service.cache_evictions", counter("cache_evictions"), 1);
    out.set_named("trace.overhead_ms", 0.0, 1);
}

/// Spans assembled after the phase from its own timestamps: one per
/// request, from due time to answer, with the generator's lateness and the
/// daemon's reported wall time as children. Building them costs the
/// measured requests nothing, so tracing overhead is zero by construction.
fn trace_phase(ctx: &mut Ctx, phase: &Phase) {
    for i in 0..phase.specs.len() {
        let Some(answer) = phase.ok(i) else { continue };
        let mut children = Vec::new();
        if let Some(first) = phase.sends.iter().find(|s| s.idx == i) {
            children.push(("client.late", phase.due(i), first.at));
        }
        if let Some(wall) = answer.wall_ms {
            let start = answer.recv - Duration::from_secs_f64(wall / 1e3);
            children.push(("service.server", start, answer.recv));
        }
        ctx.tracer.set_run(i as u64);
        ctx.tracer
            .record("request", phase.due(i), answer.recv, &children);
    }
}

/// Notes whether `phase` met the SLO and, if not, why; returns whether it
/// met it.
fn note_slo(out: &mut Outcome, phase: &Phase) -> bool {
    let misses = phase.misses(&SLO);
    let verdict = if misses.is_empty() {
        "met".to_string()
    } else {
        format!("missed ({})", misses.join(", "))
    };
    out.notes
        .push(format!("slo {:.1} req/s {verdict}", phase.rate));
    misses.is_empty()
}

/// `daemon_low`: one rate for the whole run. `daemon_high`: a higher rate,
/// then the ladder.
pub fn run(ctx: &mut Ctx, high: bool) -> Outcome {
    let mut out = Outcome::default();
    let bin = ctx.bin_dir.join("wrsnd");
    let mut times = Vec::with_capacity(SETUPS);
    let mut started: Option<Daemon> = None;
    for k in 0..SETUPS {
        if let Some(previous) = started.take() {
            if let Err(e) = previous.stop() {
                out.fail(format!("daemon set-up: {e}"));
            }
        }
        let t = Instant::now();
        match Daemon::start(&bin, &ctx.work.join(format!("store-{k}"))) {
            Ok(daemon) => started = Some(daemon),
            Err(e) => {
                out.fail(format!("daemon set-up: {e}"));
                return out;
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    out.set(metrics::SETUP_S, stats::median(&times), SETUPS);
    let mut daemon = started.expect("SETUPS is positive");

    let mut mix = Mix::new(ctx.seed);
    let mut phases: Vec<Phase> = Vec::new();
    let min_s = stats::min_samples(TAIL_PCT) as f64;
    let max_rps = if high {
        let step_s = ctx.seconds * 0.1;
        let fixed_s = (ctx.seconds * 0.6).max(min_s / HIGH_RPS);
        let ladder = (0..LADDER_STEPS).map(|k| LADDER_START_RPS * LADDER_FACTOR.powi(k as i32));
        climb(std::iter::once(HIGH_RPS).chain(ladder), |rate| {
            let secs = if phases.is_empty() { fixed_s } else { step_s };
            let first_id = phases.iter().map(|p| p.specs.len()).sum();
            let phase = run_phase(&mut daemon, &mut mix, first_id, rate, secs);
            let met = note_slo(&mut out, &phase);
            phases.push(phase);
            met
        })
    } else {
        let phase = run_phase(
            &mut daemon,
            &mut mix,
            0,
            LOW_RPS,
            ctx.seconds.max(min_s / LOW_RPS),
        );
        note_slo(&mut out, &phase);
        phases.push(phase);
        0.0
    };
    let measured = &phases[0];
    let stats_line = daemon.control("stats").unwrap_or_default();
    let peak = sys::peak_rss_mb(&daemon.pid().to_string()).unwrap_or(0.0);
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }
    check(&mut out, &phases, ctx.seed);

    if ctx.traced() {
        report_service(&mut out, measured, &stats_line);
        trace_phase(ctx, measured);
        return out;
    }
    let latency = measured.latency_ms();
    if latency.len() >= stats::min_samples(TAIL_PCT) {
        out.latency(&latency, TAIL_PCT);
    }
    let per_request = measured.cpu.as_secs_f64() * 1e3 / measured.specs.len().max(1) as f64;
    out.set(metrics::CPU_PER_OP, per_request, measured.specs.len());
    out.set(metrics::PEAK_RSS, peak, 1);
    if high {
        out.set(metrics::MAX_RPS_SLO, max_rps, phases.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(recv: Instant, cache: &str) -> Option<Answer> {
        Some(Answer {
            recv,
            parsed: request::parse_response(&format!(
                "{{\"v\":1,\"id\":\"q0\",\"status\":\"ok\",\"digest\":\"00\",\"cache\":\"{cache}\",\"wall_ms\":1.500,\"result\":{{}}}}"
            ))
            .unwrap(),
            wall_ms: Some(1.5),
        })
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_from_the_schedule() {
        let t0 = Instant::now();
        let at = |m: u64| t0 + Duration::from_millis(m);
        let spec = Mix::new(1).next();
        // 10 req/s: request 1 is due at 100 ms. The generator sent it 30 ms
        // late and the answer came 20 ms after the send, so it counts 50 ms,
        // not 20; request 0 was shed once and retried.
        let phase = Phase {
            rate: 10.0,
            t0,
            specs: vec![spec.clone(), spec],
            answers: vec![answer(at(60), "miss"), answer(at(150), "hit")],
            sends: vec![
                Send {
                    idx: 0,
                    scheduled: at(0),
                    at: at(1),
                },
                Send {
                    idx: 1,
                    scheduled: at(100),
                    at: at(130),
                },
                Send {
                    idx: 0,
                    scheduled: at(25),
                    at: at(27),
                },
            ],
            shed: 1,
            cpu: Duration::ZERO,
        };
        let latency = phase.latency_ms();
        assert!((latency[0] - 60.0).abs() < 1e-6);
        assert!((latency[1] - 50.0).abs() < 1e-6);
        let late = phase.late_ms();
        assert!((late[1] - 30.0).abs() < 1e-6);
        assert_eq!(phase.last_send(0), Some(at(27)));
        assert_eq!(phase.failed(), 0);
        // Lateness p99 of 30 ms breaks the objective on its own.
        assert_eq!(phase.misses(&SLO), ["late p99 30.0 ms"]);
        assert!(phase
            .misses(&Slo {
                late_p99_ms: 31.0,
                ..SLO
            })
            .is_empty());
        let mut out = Outcome::default();
        report_service(&mut out, &phase, "");
        assert_eq!(out.values["service.hit_ratio"], 0.5);
        assert_eq!(out.values["service.retries"], 1.0);
    }

    #[test]
    fn the_ladder_stops_at_the_first_missed_step() {
        let mut tried = Vec::new();
        let best = climb([100.0, 125.0, 156.25, 195.3125], |rate| {
            tried.push(rate);
            rate < 150.0
        });
        assert_eq!(best, 125.0);
        assert_eq!(tried, [100.0, 125.0, 156.25]);
        assert_eq!(climb([100.0, 125.0], |_| false), 0.0);
        assert_eq!(climb([100.0, 125.0], |_| true), 125.0);
    }

    #[test]
    fn the_stream_repeats_per_seed_and_mixes_duplicates() {
        let a: Vec<_> = (0..200).scan(Mix::new(3), |m, _| Some(m.next())).collect();
        let b: Vec<_> = (0..200).scan(Mix::new(3), |m, _| Some(m.next())).collect();
        assert_eq!(a, b);
        let mut unique = a.clone();
        unique.sort_by_key(|s| (s.nodes, s.seed));
        unique.dedup();
        assert_eq!(unique.len(), 100);
        for size in SIZES {
            assert_eq!(unique.iter().filter(|s| s.nodes == size).count(), 25);
        }
        assert_ne!(
            a,
            (0..200)
                .scan(Mix::new(4), |m, _| Some(m.next()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn wall_ms_is_read_from_the_envelope() {
        let line = r#"{"v":1,"id":"q1","status":"ok","digest":"ab","cache":"hit","wall_ms":0.031,"result":{}}"#;
        assert_eq!(wall_ms(line), Some(0.031));
        assert_eq!(wall_ms(r#"{"v":1,"id":"q1","status":"overloaded"}"#), None);
        assert_eq!(request_line(7, &Mix::new(1).next()).lines().count(), 1);
    }
}
