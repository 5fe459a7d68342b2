//! The synthetic load generator behind `wrsnd load`.
//!
//! Opens `conns` TCP connections to a running daemon and drives `requests`
//! scenario requests through them, pipelined (every connection keeps its
//! requests in flight without waiting for earlier responses). The request
//! mix is deterministic in `seed`: node counts drawn from a mixed-size
//! palette, a configurable fraction of *duplicates* — requests whose
//! canonical payload (and hence digest) repeats — to exercise the dedupe
//! path, and a configurable fraction of *streamed* requests
//! (`{"stream":true}`) whose progress frames are validated as they arrive.
//!
//! The generator is a resilient client, not a fire-and-forget cannon:
//!
//! - a typed `overloaded` response is retried with seeded, jittered
//!   exponential backoff that honours the daemon's `retry_after_ms` hint,
//!   up to `max_attempts` per request;
//! - a dropped or stalled connection (the chaos proxy's specialty) is
//!   reconnected and every unresolved request is resent — the daemon's
//!   content-addressed dedupe makes resending idempotent.
//!
//! Besides throughput/latency it **verifies** the daemon's contract and
//! fails loudly (nonzero exit from the CLI) when it is violated:
//!
//! - every request eventually resolves `ok` — shed requests after retries,
//!   resent requests after reconnects — exactly once;
//! - responses sharing a digest carry byte-identical `result` values,
//!   whatever mix of `miss`/`hit`/`coalesced` (or streamed/plain) served
//!   them;
//! - a streamed request's `progress` frames carry contiguous `seq` numbers
//!   and records that parse as PR 2 JSONL trace lines;
//! - with `--verify-exp <id>`, the daemon's result for that experiment must
//!   match this process's own in-process computation byte for byte — the
//!   daemon path and the `exp` single-shot path cannot drift apart.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wrsn::sim::cancel::budget_from_secs;
use wrsn::sim::store;

use super::request::{self, DeploymentKind, ParsedResponse, Payload, ScenarioSpec};
use crate::error::BenchError;

/// Node-count palette for the mixed-size request stream.
const NODE_SIZES: &[usize] = &[10, 20, 40, 80];

/// Scenario horizon used by generated requests — short enough that a single
/// request is milliseconds of compute, so the benchmark measures the
/// *service*, not one giant simulation.
const LOAD_HORIZON_S: f64 = 5_000.0;

/// Base retry delay when an `overloaded` response carries no usable hint.
const RETRY_BASE_MS: u64 = 25;

/// Upper clamp on any single backoff delay.
const RETRY_CAP_MS: u64 = 4_000;

/// Socket read timeout while polling for responses — short, so the state
/// machine stays responsive to due retries.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Silence this long with work in flight triggers a reconnect-and-resend
/// (a stalled proxy or half-dead daemon connection).
const STALL_RECONNECT_AFTER: Duration = Duration::from_secs(5);

/// Reconnect attempts before a connection gives up on its remaining work.
const MAX_RECONNECTS_PER_STALL: u32 = 5;

/// Load-run configuration (assembled by the `wrsnd load` CLI).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7878`.
    pub connect: String,
    /// Total work requests to send.
    pub requests: usize,
    /// Concurrent connections to spread them over.
    pub conns: usize,
    /// Fraction of requests that repeat an earlier digest (`0.0..=1.0`).
    pub dup_frac: f64,
    /// Fraction of requests sent with `{"stream":true}` (`0.0..=1.0`).
    pub stream_frac: f64,
    /// Per-request deadline sent with every request, seconds.
    pub deadline_s: f64,
    /// Stream seed.
    pub seed: u64,
    /// Attempts per request before an `overloaded` chain counts as a
    /// violation (first send included).
    pub max_attempts: u32,
    /// Also send this experiment id and compare against an in-process run.
    pub verify_exp: Option<String>,
    /// Send `{"op":"shutdown"}` after the run completes.
    pub shutdown: bool,
}

/// What a completed load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent (unique ids, not counting retries/resends).
    pub sent: usize,
    /// `ok` responses.
    pub ok: usize,
    /// Responses by cache path: `(miss, hit, coalesced)`.
    pub cache_paths: (usize, usize, usize),
    /// Wall-clock for the whole run, seconds.
    pub wall_s: f64,
    /// Sustained goodput, `ok` responses per second.
    pub throughput_rps: f64,
    /// Per-request latency samples (first send → final response), ms.
    pub latency_ms: Vec<f64>,
    /// `overloaded` responses observed (each one a shed admission).
    pub shed: usize,
    /// Retries sent after backoff.
    pub retries: usize,
    /// Reconnect-and-resend cycles after drops or stalls.
    pub reconnects: usize,
    /// `progress` frames received and validated.
    pub stream_frames: usize,
    /// Contract violations (empty for a passing run).
    pub violations: Vec<String>,
}

/// One planned request: the wire line, its payload digest, and whether it
/// opted into streaming.
#[derive(Debug, Clone)]
pub struct PlannedRequest {
    /// Correlation id (`q<k>`).
    pub id: String,
    /// The full request line.
    pub line: String,
    /// The payload's content digest.
    pub digest: String,
    /// Whether the line carries `"stream":true`.
    pub streamed: bool,
}

/// The deterministic request stream.
///
/// A pool of `ceil(requests * (1 - dup_frac))` unique scenarios is generated
/// first; the stream then samples from it so that roughly `dup_frac` of
/// requests repeat an earlier digest, interleaved across connections.
/// Roughly `stream_frac` of requests (chosen by the same seeded RNG) are
/// sent streamed — duplicates included, so streamed and plain requests
/// provably share digests and cache entries.
fn request_stream(config: &LoadConfig) -> Vec<PlannedRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x6c6f_6164);
    let dup_frac = config.dup_frac.clamp(0.0, 1.0);
    let stream_frac = config.stream_frac.clamp(0.0, 1.0);
    let unique = ((config.requests as f64 * (1.0 - dup_frac)).ceil() as usize)
        .clamp(1, config.requests.max(1));
    let pool: Vec<ScenarioSpec> = (0..unique)
        .map(|k| ScenarioSpec {
            nodes: NODE_SIZES[rng.gen_range(0..NODE_SIZES.len())],
            seed: k as u64, // distinct seeds keep pool entries distinct
            horizon_s: LOAD_HORIZON_S,
            deployment: DeploymentKind::Uniform,
        })
        .collect();
    (0..config.requests)
        .map(|k| {
            // First pass covers the pool in order (every unique scenario is
            // computed at least once); the tail re-samples — duplicates.
            let spec = if k < pool.len() {
                &pool[k]
            } else {
                &pool[rng.gen_range(0..pool.len())]
            };
            let streamed = rng.gen_range(0.0..1.0) < stream_frac;
            let payload = Payload::Scenario(spec.clone());
            let stream_field = if streamed { ",\"stream\":true" } else { "" };
            let line = format!(
                "{{\"id\":\"q{k}\",\"scenario\":{{\"nodes\":{},\"seed\":{},\"horizon_s\":{}}},\
                 \"deadline_s\":{}{stream_field}}}",
                spec.nodes, spec.seed, spec.horizon_s, config.deadline_s
            );
            PlannedRequest {
                id: format!("q{k}"),
                line,
                digest: payload.digest(),
                streamed,
            }
        })
        .collect()
}

struct ConnOutcome {
    /// One terminal response per request id, with first-send→final latency.
    responses: Vec<(ParsedResponse, f64)>,
    violations: Vec<String>,
    error: Option<String>,
    shed: usize,
    retries: usize,
    reconnects: usize,
    stream_frames: usize,
}

/// Runs the load, returning the measured report.
///
/// # Errors
///
/// [`BenchError::Io`] when the daemon cannot be reached at all; protocol
/// violations are collected in [`LoadReport::violations`] instead so one
/// bad response does not mask the rest of the run.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, BenchError> {
    let addr_path = std::path::Path::new(&config.connect);
    let stream_plan = request_stream(config);
    let conns = config.conns.clamp(1, stream_plan.len().max(1));

    let mut expected: HashMap<String, String> = HashMap::new(); // id → digest
    for planned in &stream_plan {
        expected.insert(planned.id.clone(), planned.digest.clone());
    }

    let started = Instant::now();
    let (result_tx, result_rx) = mpsc::channel::<ConnOutcome>();
    let mut handles = Vec::new();
    for conn_id in 0..conns {
        // Round-robin the stream across connections.
        let mut work: Vec<PlannedRequest> = stream_plan
            .iter()
            .enumerate()
            .filter(|(k, _)| k % conns == conn_id)
            .map(|(_, planned)| planned.clone())
            .collect();
        if conn_id == 0 {
            if let Some(id) = &config.verify_exp {
                work.push(PlannedRequest {
                    id: "verify".to_string(),
                    line: format!("{{\"id\":\"verify\",\"exp\":\"{id}\"}}"),
                    digest: String::new(),
                    streamed: false,
                });
            }
        }
        let connect = config.connect.clone();
        let deadline_s = config.deadline_s;
        let max_attempts = config.max_attempts.max(1);
        let rng_seed = config.seed ^ 0x7265_7472 ^ (conn_id as u64).wrapping_mul(0x9e37_79b9);
        let tx = result_tx.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("loadgen-conn-{conn_id}"))
                .spawn(move || {
                    let outcome =
                        drive_connection(&connect, work, deadline_s, max_attempts, rng_seed);
                    let _ = tx.send(outcome);
                })
                .map_err(|e| {
                    BenchError::io(
                        "spawn load connection",
                        std::path::Path::new("loadgen"),
                        &std::io::Error::other(e.to_string()),
                    )
                })?,
        );
    }
    drop(result_tx);

    let mut responses: Vec<(ParsedResponse, f64)> = Vec::new();
    let mut violations = Vec::new();
    let mut shed = 0usize;
    let mut retries = 0usize;
    let mut reconnects = 0usize;
    let mut stream_frames = 0usize;
    while let Ok(outcome) = result_rx.recv() {
        if let Some(error) = outcome.error {
            violations.push(error);
        }
        violations.extend(outcome.violations);
        responses.extend(outcome.responses);
        shed += outcome.shed;
        retries += outcome.retries;
        reconnects += outcome.reconnects;
        stream_frames += outcome.stream_frames;
    }
    for handle in handles {
        let _ = handle.join();
    }
    let wall_s = started.elapsed().as_secs_f64();
    if responses.is_empty() && !violations.is_empty() {
        // Nothing came back at all — surface connectivity as a hard error.
        return Err(BenchError::io(
            "drive load against daemon",
            addr_path,
            &std::io::Error::other(violations.join("; ")),
        ));
    }

    // --- Contract checks -------------------------------------------------
    let mut by_digest: HashMap<String, String> = HashMap::new(); // digest → result bytes
    let mut verify_result: Option<String> = None;
    let mut seen_ids: HashMap<String, u64> = HashMap::new();
    let mut ok = 0usize;
    let mut cache_paths = (0usize, 0usize, 0usize);
    let mut latency_ms = Vec::new();
    for (response, latency) in &responses {
        *seen_ids.entry(response.id.clone()).or_default() += 1;
        if response.id == "verify" {
            if response.status == "ok" {
                verify_result = response.result_canonical.clone();
            } else {
                violations.push(format!(
                    "verify request failed: {}",
                    response.error.clone().unwrap_or_default()
                ));
            }
            continue;
        }
        if response.status != "ok" {
            violations.push(format!(
                "{}: status {} ({})",
                response.id,
                response.status,
                response.error.clone().unwrap_or_default()
            ));
            continue;
        }
        ok += 1;
        latency_ms.push(*latency);
        match response.cache.as_deref() {
            Some("miss") => cache_paths.0 += 1,
            Some("hit") => cache_paths.1 += 1,
            Some("coalesced") => cache_paths.2 += 1,
            other => violations.push(format!("{}: bad cache tag {other:?}", response.id)),
        }
        let (Some(digest), Some(result)) = (&response.digest, &response.result_canonical) else {
            violations.push(format!(
                "{}: ok response missing digest/result",
                response.id
            ));
            continue;
        };
        if let Some(want) = expected.get(&response.id) {
            if want != digest {
                violations.push(format!(
                    "{}: digest {digest} != expected {want}",
                    response.id
                ));
            }
        }
        match by_digest.get(digest) {
            None => {
                by_digest.insert(digest.clone(), result.clone());
            }
            Some(first) if first != result => violations.push(format!(
                "{}: duplicate digest {digest} served different bytes",
                response.id
            )),
            Some(_) => {}
        }
    }
    for (id, digest) in &expected {
        match seen_ids.get(id) {
            Some(1) => {}
            Some(n) => violations.push(format!("{id}: answered {n} times")),
            None => violations.push(format!("{id}: never answered (digest {digest})")),
        }
    }
    if let Some(exp_id) = &config.verify_exp {
        match verify_result {
            None => violations.push(format!("verify-exp {exp_id}: no ok response")),
            Some(daemon_bytes) => {
                let local = request::execute(&Payload::Exp(exp_id.clone())).map_err(|e| {
                    BenchError::InvalidFlag {
                        flag: "--verify-exp",
                        detail: format!("local run of {exp_id} failed: {e:?}"),
                    }
                })?;
                if local != daemon_bytes {
                    violations.push(format!(
                        "verify-exp {exp_id}: daemon bytes (fnv {:016x}) != local bytes (fnv {:016x})",
                        store::fnv1a64(daemon_bytes.as_bytes()),
                        store::fnv1a64(local.as_bytes())
                    ));
                }
            }
        }
    }

    Ok(LoadReport {
        sent: stream_plan.len(),
        ok,
        cache_paths,
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            ok as f64 / wall_s
        } else {
            0.0
        },
        latency_ms,
        shed,
        retries,
        reconnects,
        stream_frames,
        violations,
    })
}

/// Seeded, jittered exponential backoff for retry `attempt` (0-based),
/// honouring the daemon's `retry_after_ms` hint as the base.
fn backoff_delay(rng: &mut ChaCha8Rng, attempt: u32, hint_ms: Option<u64>) -> Duration {
    let base = hint_ms.unwrap_or(RETRY_BASE_MS).max(1);
    let expo = base.saturating_mul(1u64 << attempt.min(6));
    let capped = expo.min(RETRY_CAP_MS) as f64;
    let jittered = capped * rng.gen_range(0.5..1.5);
    Duration::from_millis(jittered.max(1.0) as u64)
}

/// Per-request client state across retries and reconnects.
struct Tracked {
    planned: PlannedRequest,
    /// Completed send attempts.
    attempts: u32,
    /// Earliest instant the next (re)send may go out.
    due: Instant,
    /// Set while an attempt is in flight on the current connection.
    inflight: bool,
    /// First send (latency measurements run from here).
    first_sent: Option<Instant>,
    /// Next expected `progress` frame number.
    next_seq: u64,
}

/// One capped non-blocking-ish line poll; partial data survives timeouts in
/// `buf`. `Ok(None)` = nothing complete yet; `Err` = the connection is gone.
fn poll_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<Option<String>> {
    match reader.read_until(b'\n', buf) {
        Ok(0) => Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        )),
        Ok(_) => {
            if buf.last() == Some(&b'\n') {
                buf.pop();
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                Ok(Some(line))
            } else {
                Ok(None)
            }
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Err(e) => Err(e),
    }
}

fn connect_with_timeouts(connect: &str) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(connect)?;
    stream.set_read_timeout(Some(POLL_TIMEOUT))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let write_half = stream.try_clone()?;
    Ok((BufReader::new(stream), write_half))
}

/// Drives one connection's share of the plan to resolution: pipelined sends,
/// overload retries with backoff, reconnect-and-resend on drops and stalls,
/// and streamed-frame validation.
fn drive_connection(
    connect: &str,
    work: Vec<PlannedRequest>,
    deadline_s: f64,
    max_attempts: u32,
    rng_seed: u64,
) -> ConnOutcome {
    let mut outcome = ConnOutcome {
        responses: Vec::new(),
        violations: Vec::new(),
        error: None,
        shed: 0,
        retries: 0,
        reconnects: 0,
        stream_frames: 0,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let now = Instant::now();
    let mut tracked: HashMap<String, Tracked> = work
        .into_iter()
        .map(|planned| {
            (
                planned.id.clone(),
                Tracked {
                    planned,
                    attempts: 0,
                    due: now,
                    inflight: false,
                    first_sent: None,
                    next_seq: 0,
                },
            )
        })
        .collect();
    let mut open = tracked.len();

    let (mut reader, mut writer) = match connect_with_timeouts(connect) {
        Ok(pair) => pair,
        Err(e) => {
            outcome.error = Some(format!("connect {connect}: {e}"));
            return outcome;
        }
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();
    let mut stall_reconnects = 0u32;
    // Hard ceiling: the work deadline plus generous slack for retries. A run
    // that cannot finish by then reports the stragglers instead of hanging;
    // a ceiling past the clock's range is none.
    let give_up_at = budget_from_secs(deadline_s.max(1.0) * f64::from(max_attempts) + 60.0)
        .and_then(|ceiling| Instant::now().checked_add(ceiling));

    while open > 0 {
        if give_up_at.is_some_and(|at| Instant::now() > at) {
            for t in tracked.values() {
                if !is_done(t) {
                    outcome
                        .violations
                        .push(format!("{}: gave up after run ceiling", t.planned.id));
                }
            }
            break;
        }
        // Send everything due. Collect ids first to appease the borrow
        // checker, then write.
        let due_ids: Vec<String> = tracked
            .values()
            .filter(|t| !is_done(t) && !t.inflight && t.due <= Instant::now())
            .map(|t| t.planned.id.clone())
            .collect();
        let mut write_failed = false;
        for id in due_ids {
            let t = tracked.get_mut(&id).expect("tracked id");
            let send = writer
                .write_all(t.planned.line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if send.is_err() {
                write_failed = true;
                break;
            }
            t.inflight = true;
            t.next_seq = 0;
            if t.first_sent.is_none() {
                t.first_sent = Some(Instant::now());
            }
            last_activity = Instant::now();
        }
        if write_failed {
            if !reconnect(
                connect,
                &mut reader,
                &mut writer,
                &mut buf,
                &mut tracked,
                &mut outcome,
            ) {
                break;
            }
            last_activity = Instant::now();
            continue;
        }
        // Poll for one line (bounded by the socket timeout).
        match poll_line(&mut reader, &mut buf) {
            Ok(Some(line)) => {
                last_activity = Instant::now();
                stall_reconnects = 0;
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = match request::parse_response(&line) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        outcome
                            .violations
                            .push(format!("unparseable response: {e}: {line}"));
                        continue;
                    }
                };
                handle_response(
                    parsed,
                    &mut tracked,
                    &mut outcome,
                    &mut open,
                    &mut rng,
                    max_attempts,
                );
            }
            Ok(None) => {
                // Quiet. Distinguish "waiting on slow work" from "stalled".
                let inflight = tracked.values().any(|t| t.inflight);
                if inflight && last_activity.elapsed() > STALL_RECONNECT_AFTER {
                    stall_reconnects += 1;
                    if stall_reconnects > MAX_RECONNECTS_PER_STALL {
                        outcome.error = Some(format!(
                            "{connect}: still stalled after {MAX_RECONNECTS_PER_STALL} reconnects"
                        ));
                        break;
                    }
                    if !reconnect(
                        connect,
                        &mut reader,
                        &mut writer,
                        &mut buf,
                        &mut tracked,
                        &mut outcome,
                    ) {
                        break;
                    }
                    last_activity = Instant::now();
                }
            }
            Err(_) => {
                // Dropped mid-run (the chaos proxy's favourite move).
                if !reconnect(
                    connect,
                    &mut reader,
                    &mut writer,
                    &mut buf,
                    &mut tracked,
                    &mut outcome,
                ) {
                    break;
                }
                last_activity = Instant::now();
            }
        }
    }
    outcome
}

fn is_done(t: &Tracked) -> bool {
    // A request is resolved once a terminal response was recorded: we mark
    // that by clearing `inflight` *and* zeroing `due` far in the future.
    t.attempts == u32::MAX
}

fn mark_done(t: &mut Tracked) {
    t.attempts = u32::MAX;
    t.inflight = false;
}

/// Applies one parsed response line to the connection state.
fn handle_response(
    parsed: ParsedResponse,
    tracked: &mut HashMap<String, Tracked>,
    outcome: &mut ConnOutcome,
    open: &mut usize,
    rng: &mut ChaCha8Rng,
    max_attempts: u32,
) {
    let Some(t) = tracked.get_mut(&parsed.id) else {
        outcome
            .violations
            .push(format!("response for unknown id `{}`", parsed.id));
        return;
    };
    if is_done(t) {
        // A late duplicate final (e.g. the pre-reconnect attempt's answer
        // racing the resend's) — the daemon's dedupe makes the bytes
        // identical, so it is dropped rather than double-counted.
        return;
    }
    if parsed.status == "progress" {
        let seq = parsed.seq.unwrap_or(u64::MAX);
        if seq != t.next_seq && seq != 0 {
            outcome.violations.push(format!(
                "{}: progress seq {seq}, expected {}",
                parsed.id, t.next_seq
            ));
        }
        // seq 0 after a resend restarts the stream; otherwise advance.
        t.next_seq = seq.saturating_add(1);
        match &parsed.records {
            None => outcome
                .violations
                .push(format!("{}: progress frame without records", parsed.id)),
            Some(records) => {
                for record in records {
                    if let Err(e) = wrsn::sim::obs::from_jsonl_line(record) {
                        outcome.violations.push(format!(
                            "{}: progress record is not a valid trace line: {e}",
                            parsed.id
                        ));
                        break;
                    }
                }
            }
        }
        outcome.stream_frames += 1;
        return;
    }
    if parsed.status == "overloaded" {
        outcome.shed += 1;
        t.attempts += 1;
        t.inflight = false;
        if t.attempts >= max_attempts {
            // Exhausted: surface the overloaded response as the terminal
            // one; the aggregate contract check flags it.
            let latency = t
                .first_sent
                .map(|s| s.elapsed().as_secs_f64() * 1e3)
                .unwrap_or(0.0);
            outcome.responses.push((parsed, latency));
            mark_done(t);
            *open -= 1;
            return;
        }
        outcome.retries += 1;
        t.due = Instant::now() + backoff_delay(rng, t.attempts - 1, parsed.retry_after_ms);
        return;
    }
    // Terminal: ok / error / timeout / invalid.
    let latency = t
        .first_sent
        .map(|s| s.elapsed().as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    outcome.responses.push((parsed, latency));
    mark_done(t);
    *open -= 1;
}

/// Re-establishes the connection and resends every unresolved request
/// (in-flight and due alike). Returns `false` when the daemon stays
/// unreachable, recording the failure.
fn reconnect(
    connect: &str,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    buf: &mut Vec<u8>,
    tracked: &mut HashMap<String, Tracked>,
    outcome: &mut ConnOutcome,
) -> bool {
    for pause_ms in [50u64, 100, 250, 500, 1000] {
        thread::sleep(Duration::from_millis(pause_ms));
        match connect_with_timeouts(connect) {
            Ok((r, w)) => {
                *reader = r;
                *writer = w;
                buf.clear();
                outcome.reconnects += 1;
                let now = Instant::now();
                for t in tracked.values_mut() {
                    if !is_done(t) && t.inflight {
                        // Resend: the daemon's content-addressed dedupe makes
                        // this idempotent.
                        t.inflight = false;
                        t.due = now;
                        t.next_seq = 0;
                    }
                }
                return true;
            }
            Err(_) => continue,
        }
    }
    outcome.error = Some(format!("{connect}: reconnect failed repeatedly"));
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(requests: usize, dup_frac: f64, stream_frac: f64, seed: u64) -> LoadConfig {
        LoadConfig {
            connect: String::new(),
            requests,
            conns: 2,
            dup_frac,
            stream_frac,
            deadline_s: 30.0,
            seed,
            max_attempts: 8,
            verify_exp: None,
            shutdown: false,
        }
    }

    #[test]
    fn request_stream_is_deterministic_and_respects_fractions() {
        let a = request_stream(&config(100, 0.5, 0.3, 7));
        let b = request_stream(&config(100, 0.5, 0.3, 7));
        assert_eq!(a.len(), 100);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.line == y.line && x.digest == y.digest && x.streamed == y.streamed));
        let unique: std::collections::HashSet<_> = a.iter().map(|p| &p.digest).collect();
        assert!(unique.len() <= 51, "dup_frac bounds the unique pool");
        let streamed = a.iter().filter(|p| p.streamed).count();
        assert!(
            (10..=60).contains(&streamed),
            "~30% streamed, got {streamed}"
        );
        assert!(a
            .iter()
            .filter(|p| p.streamed)
            .all(|p| p.line.contains("\"stream\":true")));
        let c = request_stream(&config(100, 0.5, 0.3, 8));
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.line != y.line),
            "different seed, different stream"
        );
    }

    #[test]
    fn streamed_duplicates_share_digests_with_plain_requests() {
        let plan = request_stream(&config(200, 0.8, 0.5, 11));
        let mut by_digest: HashMap<&String, (bool, bool)> = HashMap::new();
        for p in &plan {
            let entry = by_digest.entry(&p.digest).or_default();
            if p.streamed {
                entry.0 = true;
            } else {
                entry.1 = true;
            }
        }
        assert!(
            by_digest.values().any(|&(s, p)| s && p),
            "the plan must exercise streamed+plain pairs of one digest"
        );
    }

    #[test]
    fn backoff_honours_the_hint_and_is_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for attempt in 0..12 {
            let d = backoff_delay(&mut rng, attempt, Some(100));
            assert!(d >= Duration::from_millis(50), "attempt {attempt}: {d:?}");
            assert!(
                d <= Duration::from_millis(RETRY_CAP_MS * 3 / 2),
                "attempt {attempt}: {d:?}"
            );
        }
        // Deterministic in the seed.
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(
            backoff_delay(&mut a, 2, None),
            backoff_delay(&mut b, 2, None)
        );
    }
}
