//! `overload` — the campaign service under a burst far past its capacity.
//!
//! Drives an in-process [`Scheduler`] sized deliberately small (2 workers,
//! queue cap 2, a ~4 KiB result cache) with a burst of scenario requests
//! several times the queue capacity, then retries every shed request until
//! it lands — the client contract from `wrsnd load`, exercised without
//! sockets so the experiment measures admission policy, not TCP. A quarter
//! of the requests opt into streamed responses; the request mix cycles a
//! handful of distinct scenario seeds so dedupe (hits + coalescing) and
//! cache eviction both fire.
//!
//! The row's `violations` column is the robustness verdict: it counts
//! requests that terminally failed (error/timeout) plus digests whose `ok`
//! results were not byte-identical across duplicates and retries. Overload
//! must delay work, never corrupt it, so the expected value is 0.
//!
//! Not part of `--id all`: run explicitly with `exp --id overload`. The
//! burst size can be overridden via `WRSN_OVERLOAD_REQUESTS=96` for longer
//! soaks. Under `exp --trace`, the shed/eviction/stream tallies also surface
//! as `requests_shed` / `cache_evictions` / `stream_frames` in the
//! experiment's closing `Counters` record.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};

use wrsn::sim::obs::{Counter, Recorder};

use crate::service::cache::ResultCache;
use crate::service::request::{parse_response, DeploymentKind, Payload, ScenarioSpec};
use crate::service::scheduler::{Reply, Scheduler};
use crate::table::{f, Table};

/// Worker threads in the scheduler under test.
pub const WORKERS: usize = 2;
/// Admission queue capacity — the burst is sized well past this.
pub const QUEUE_CAP: usize = 2;
/// Default burst size (requests submitted before any reply is read).
pub const REQUESTS: usize = 48;
/// Env var overriding [`REQUESTS`] for longer soaks.
pub const REQUESTS_ENV: &str = "WRSN_OVERLOAD_REQUESTS";
/// Distinct scenario seeds cycled through the burst (so ~6 duplicates per
/// digest exercise dedupe and single-flight under contention).
const DISTINCT_SPECS: usize = 8;
/// Result-cache byte budget — a few entries' worth, so [`DISTINCT_SPECS`]
/// distinct results cannot all fit and deterministic LRU eviction fires
/// mid-run.
const CACHE_CAP_BYTES: u64 = 1024;
/// Every `STREAM_EVERY`-th request asks for a streamed response.
const STREAM_EVERY: usize = 4;
/// Attempt ceiling per request before the run declares a liveness failure.
const MAX_ATTEMPTS: u32 = 1_000;
/// Scenario size: small enough that a request is milliseconds of work.
const NODES: usize = 16;
/// Scenario horizon, seconds of simulated time.
const HORIZON_S: f64 = 20_000.0;
/// Per-request wall-clock deadline (generous; nothing here should hit it).
const DEADLINE: Duration = Duration::from_secs(120);

/// Burst size: [`REQUESTS_ENV`] override or the built-in [`REQUESTS`].
fn requests() -> usize {
    std::env::var(REQUESTS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(REQUESTS)
}

/// The `k`-th request's payload: scenario seeds cycle so the burst carries
/// duplicates of `DISTINCT_SPECS` distinct digests.
fn payload(k: usize) -> Payload {
    Payload::Scenario(ScenarioSpec {
        nodes: NODES,
        seed: (k % DISTINCT_SPECS) as u64,
        horizon_s: HORIZON_S,
        deployment: DeploymentKind::Uniform,
    })
}

/// One in-flight request the driver is tracking.
struct Pending {
    k: usize,
    digest: String,
    stream: bool,
    attempts: u32,
    rx: Receiver<Reply>,
}

/// What the drive loop tallied.
struct Drive {
    ok: u64,
    shed_seen: u64,
    retries: u64,
    stream_requests: u64,
    stream_frames_seen: u64,
    violations: u64,
    wall_s: f64,
}

/// Runs the burst against `scheduler` and enforces the client contract:
/// every request retried until terminal, every terminal response `ok`, and
/// every `ok` for a digest byte-identical to the first.
fn drive(scheduler: &Scheduler, total: usize) -> Drive {
    let started = Instant::now();
    let mut pending: Vec<Pending> = Vec::with_capacity(total);
    for k in 0..total {
        let payload = payload(k);
        let stream = k % STREAM_EVERY == 0;
        let (tx, rx) = mpsc::channel();
        let digest = payload.digest();
        scheduler.submit(format!("burst-{k}"), payload, None, stream, None, tx);
        pending.push(Pending {
            k,
            digest,
            stream,
            attempts: 1,
            rx,
        });
    }
    let stream_requests = pending.iter().filter(|p| p.stream).count() as u64;
    let mut by_digest: HashMap<String, String> = HashMap::new();
    let mut drive = Drive {
        ok: 0,
        shed_seen: 0,
        retries: 0,
        stream_requests,
        stream_frames_seen: 0,
        violations: 0,
        wall_s: 0.0,
    };
    for mut req in pending {
        loop {
            let Ok(reply) = req.rx.recv() else {
                // Worker dropped the reply channel without answering —
                // exactly the corruption class this experiment exists to
                // rule out.
                drive.violations += 1;
                break;
            };
            let Ok(parsed) = parse_response(&reply.line) else {
                drive.violations += 1;
                break;
            };
            if parsed.status == "progress" {
                drive.stream_frames_seen += parsed.records.map_or(0, |r| r.len() as u64);
                continue;
            }
            if parsed.status == "overloaded" {
                drive.shed_seen += 1;
                if req.attempts >= MAX_ATTEMPTS {
                    drive.violations += 1;
                    break;
                }
                // Honour the daemon's hint the way `wrsnd load` does, minus
                // the jitter: determinism matters more than fairness here.
                let backoff = parsed.retry_after_ms.unwrap_or(25).clamp(1, 200);
                thread::sleep(Duration::from_millis(backoff));
                drive.retries += 1;
                req.attempts += 1;
                let (tx, rx) = mpsc::channel();
                scheduler.submit(
                    format!("burst-{}-r{}", req.k, req.attempts),
                    payload(req.k),
                    None,
                    false,
                    None,
                    tx,
                );
                req.rx = rx;
                continue;
            }
            if parsed.status == "ok" {
                drive.ok += 1;
                match (parsed.digest, parsed.result_canonical) {
                    (Some(digest), Some(result)) if digest == req.digest => {
                        let first = by_digest.entry(digest).or_insert_with(|| result.clone());
                        if *first != result {
                            drive.violations += 1;
                        }
                    }
                    _ => drive.violations += 1,
                }
            } else {
                drive.violations += 1;
            }
            break;
        }
    }
    drive.wall_s = started.elapsed().as_secs_f64();
    drive
}

/// A `u64` entry from the scheduler's `stats` map (0 when absent).
fn stat_u64(stats: &serde::Value, key: &str) -> u64 {
    stats
        .as_map()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map_or(0, |(_, v)| match v {
            serde::Value::U64(n) => *n,
            _ => 0,
        })
}

/// Runs the experiment, reporting shed/eviction/stream tallies into `rec`.
pub fn run(rec: &mut dyn Recorder) -> Vec<Table> {
    // Per-invocation store dir: the cache under test must start empty, and
    // parallel test runs in one process must not share it.
    static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
    let store_dir = std::env::temp_dir().join(format!(
        "wrsn-overload-{}-{}",
        std::process::id(),
        RUN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&store_dir).expect("create overload store dir");
    let cache = ResultCache::open_bounded(&store_dir, CACHE_CAP_BYTES).expect("open result cache");
    let scheduler = Scheduler::new(cache, WORKERS, DEADLINE, QUEUE_CAP);

    let total = requests();
    let drive = drive(&scheduler, total);

    let stats = scheduler.stats_value();
    let shed = stat_u64(&stats, Counter::RequestsShed.name());
    let evictions = stat_u64(&stats, Counter::CacheEvictions.name());
    let stream_frames = stat_u64(&stats, Counter::StreamFrames.name());
    let cache_hits = stat_u64(&stats, "cache_hits");
    let coalesced = stat_u64(&stats, "coalesced");
    let high_watermark = stat_u64(&stats, "queue_high_watermark");
    scheduler.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    rec.add(Counter::RequestsShed, shed);
    rec.add(Counter::CacheEvictions, evictions);
    rec.add(Counter::StreamFrames, stream_frames);

    let mut table = Table::new(
        format!(
            "overload: {total}-request burst vs {WORKERS} workers / queue cap {QUEUE_CAP} / {CACHE_CAP_BYTES} B cache"
        ),
        &[
            "requests",
            "distinct",
            "ok",
            "shed",
            "retries",
            "hwm",
            "hits",
            "coalesced",
            "evictions",
            "stream reqs",
            "stream frames",
            "violations",
            "wall (s)",
        ],
    );
    table.push(vec![
        total.to_string(),
        DISTINCT_SPECS.min(total).to_string(),
        drive.ok.to_string(),
        shed.to_string(),
        drive.retries.to_string(),
        high_watermark.to_string(),
        cache_hits.to_string(),
        coalesced.to_string(),
        evictions.to_string(),
        drive.stream_requests.to_string(),
        stream_frames.to_string(),
        drive.violations.to_string(),
        f(drive.wall_s, 3),
    ]);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn::sim::obs::NullRecorder;

    #[test]
    fn the_burst_is_shed_retried_and_resolved_without_violations() {
        let tables = run(&mut NullRecorder);
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), 1);
        let row = &table.rows[0];
        let col = |name: &str| -> u64 {
            let idx = table
                .columns
                .iter()
                .position(|c| c == name)
                .unwrap_or_else(|| panic!("missing column {name}"));
            row[idx].parse().unwrap()
        };
        assert_eq!(col("ok"), REQUESTS as u64, "every request resolves ok");
        assert_eq!(col("violations"), 0, "overload must never corrupt results");
        assert!(
            col("shed") > 0,
            "the burst must overrun queue cap {QUEUE_CAP}"
        );
        assert_eq!(col("shed"), col("retries"), "every shed is retried");
        assert!(
            col("evictions") > 0,
            "{DISTINCT_SPECS} distinct results must not fit in {CACHE_CAP_BYTES} bytes"
        );
        assert!(col("stream frames") > 0, "streamed leaders emit frames");
    }

    #[test]
    fn payloads_cycle_a_fixed_set_of_digests() {
        let digests: Vec<String> = (0..REQUESTS).map(|k| payload(k).digest()).collect();
        for (k, digest) in digests.iter().enumerate() {
            assert_eq!(digest, &digests[k % DISTINCT_SPECS]);
        }
        let mut distinct = digests.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), DISTINCT_SPECS);
    }
}
