//! The daemon's worker pool: bounded threads, per-request deadlines with
//! cooperative cancellation, and single-flight dedupe over the result cache.
//!
//! Lifecycle of a submitted request:
//!
//! 1. It joins a FIFO queue (its deadline clock starts at submission).
//! 2. A pooled worker pops it. Past its deadline already → `timeout`
//!    response without executing.
//! 3. Cache lookup by payload digest. Validated hit → replay the stored
//!    bytes (`"cache":"hit"`). A corrupt entry is counted, discarded and
//!    recomputed.
//! 4. Single-flight: if another worker is already computing this digest, the
//!    request parks as a *follower* and is answered from the leader's bytes
//!    (`"cache":"coalesced"`) — identical work is never computed twice
//!    concurrently.
//! 5. Otherwise this request leads: the worker runs the payload through
//!    [`cancel::supervise`] with the job's remaining time as its budget.
//!
//! The process-wide watchdog (the one the `exp` runner uses; an idle daemon
//! has no thread waking for it) cancels the run's token at the deadline; the
//! engine unwinds with `SimError::Cancelled` at the next poll and the worker
//! reports `timeout`. A panicked payload poisons nothing: the token's
//! id-keyed guard removes exactly its entry, the worker thread survives and
//! takes the next job — pinned by the panic-then-reuse tests below.
//!
//! **Admission is bounded**: the queue holds at most `queue_cap` jobs.
//! Step 1 above can therefore fail — a submission against a full queue is
//! *shed* immediately with a typed `overloaded` response carrying a
//! `retry_after_ms` hint scaled by queue depth, instead of growing the queue
//! without bound. Only fresh submissions are shed; followers requeued after
//! a leader timeout were already admitted and bypass the cap.
//!
//! **Streaming**: a job submitted with `stream = true` has its leader send
//! incremental `progress` frames through the same reply channel before the
//! final response. The reply channel doubles as the disconnect signal — when
//! the client's connection writer goes away the channel closes, the next
//! frame send fails, and the sink cancels the job's own
//! [`CancelToken`](wrsn::sim::CancelToken), so
//! the engine unwinds at its next segment poll. A disconnected stream sends
//! nothing further, saves nothing, and requeues its followers (their clients
//! may still be alive). Followers and cache hits never stream: they are
//! answered from the leader's (or cached) final bytes only.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;
use wrsn::sim::cancel::{self, Supervised};
use wrsn::sim::obs::{Counter, TraceRecord};

use super::cache::{CacheLookup, ResultCache};
use super::request::{self, AuditSummary, ExecError, Payload};

/// Bounds of the `retry_after_ms` backoff hint sent with shed responses.
const RETRY_AFTER_MIN_MS: u64 = 25;
/// Upper clamp of the backoff hint.
const RETRY_AFTER_MAX_MS: u64 = 2_000;

/// One response line bound for a client, tagged with whether it resolves its
/// request. Progress frames (`fin == false`) promise more lines for the same
/// id; everything else is final. The connection layer uses the tag to track
/// in-flight work (an idle sweep must not reap a client that is merely
/// waiting for a slow computation).
#[derive(Debug, Clone)]
pub struct Reply {
    /// The serialized response line (no trailing newline).
    pub line: String,
    /// Whether this line resolves the request.
    pub fin: bool,
}

impl Reply {
    /// A final, request-resolving line.
    pub fn fin(line: String) -> Self {
        Reply { line, fin: true }
    }

    /// An intermediate progress frame.
    pub fn frame(line: String) -> Self {
        Reply { line, fin: false }
    }
}

/// Monotonic service counters, exposed by the `stats` control op.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    received: AtomicU64,
    ok: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
    cache_rejected: AtomicU64,
    shed: AtomicU64,
    queue_high_watermark: AtomicU64,
    stream_frames: AtomicU64,
    stream_cancels: AtomicU64,
    oversized: AtomicU64,
    conns_reaped: AtomicU64,
}

impl ServiceCounters {
    fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests that completed with an `ok` response (any cache path).
    pub fn ok(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
    }

    /// Requests answered from a validated cache entry.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Requests that were computed fresh.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Requests answered from a concurrent leader's computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Requests that blew their deadline (queued or running).
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Requests that failed (engine error or payload panic).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Cache entries discarded as corrupt (and recomputed).
    pub fn cache_rejected(&self) -> u64 {
        self.cache_rejected.load(Ordering::Relaxed)
    }

    /// Requests shed at admission with a typed `overloaded` response.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been.
    pub fn queue_high_watermark(&self) -> u64 {
        self.queue_high_watermark.load(Ordering::Relaxed)
    }

    /// Streaming progress frames emitted.
    pub fn stream_frames(&self) -> u64 {
        self.stream_frames.load(Ordering::Relaxed)
    }

    /// Streamed computations cancelled by client disconnect.
    pub fn stream_cancels(&self) -> u64 {
        self.stream_cancels.load(Ordering::Relaxed)
    }

    /// Request lines rejected for exceeding the line-length cap (counted by
    /// the connection layer).
    pub fn oversized(&self) -> u64 {
        self.oversized.load(Ordering::Relaxed)
    }

    /// Idle connections reaped by the read-timeout sweep (counted by the
    /// connection layer).
    pub fn conns_reaped(&self) -> u64 {
        self.conns_reaped.load(Ordering::Relaxed)
    }

    /// Records an oversized request line (connection layer hook).
    pub fn note_oversized(&self) {
        ServiceCounters::inc(&self.oversized);
    }

    /// Records a reaped idle connection (connection layer hook).
    pub fn note_conn_reaped(&self) {
        ServiceCounters::inc(&self.conns_reaped);
    }

    /// A JSON snapshot for the `stats` control op. Alongside the request
    /// tallies it reports the effective execution strategy — the worker
    /// thread count — every payload's world runs with, so a campaign
    /// driver can record *how* its numbers were produced without parsing the
    /// daemon's environment.
    pub fn to_value(&self) -> Value {
        let u = |c: &AtomicU64| Value::U64(c.load(Ordering::Relaxed));
        Value::Map(vec![
            (
                "threads".to_string(),
                Value::U64(wrsn::sim::parallel::threads() as u64),
            ),
            ("received".to_string(), u(&self.received)),
            ("ok".to_string(), u(&self.ok)),
            ("cache_hits".to_string(), u(&self.cache_hits)),
            ("cache_misses".to_string(), u(&self.cache_misses)),
            ("coalesced".to_string(), u(&self.coalesced)),
            ("timeouts".to_string(), u(&self.timeouts)),
            ("errors".to_string(), u(&self.errors)),
            ("cache_rejected".to_string(), u(&self.cache_rejected)),
            // Degradation counters share names with their `wrsn_sim::obs`
            // twins so campaign reports and daemon stats speak one
            // vocabulary.
            (Counter::RequestsShed.name().to_string(), u(&self.shed)),
            (
                "queue_high_watermark".to_string(),
                u(&self.queue_high_watermark),
            ),
            (
                Counter::StreamFrames.name().to_string(),
                u(&self.stream_frames),
            ),
            (
                Counter::StreamCancels.name().to_string(),
                u(&self.stream_cancels),
            ),
            (
                Counter::RequestsOversized.name().to_string(),
                u(&self.oversized),
            ),
            (
                Counter::ConnsReaped.name().to_string(),
                u(&self.conns_reaped),
            ),
        ])
    }
}

/// A queued unit of work.
struct Job {
    id: String,
    payload: Payload,
    digest: String,
    deadline: Duration,
    enqueued: Instant,
    stream: bool,
    /// Detector preset to attach to the campaign (scenario payloads only).
    /// Envelope-only, like `stream`: it never enters the digest, so detector
    /// and plain requests share one cache entry. The audit summary is
    /// computed by a fresh run only — cache hits replay bytes without one.
    detector: Option<String>,
    reply: Sender<Reply>,
}

impl Job {
    /// Time this job has left before its deadline, if any.
    fn remaining(&self) -> Option<Duration> {
        self.deadline.checked_sub(self.enqueued.elapsed())
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Inner {
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ResultCache,
    /// digest → followers parked behind the leader computing that digest.
    inflight: Mutex<HashMap<String, Vec<Job>>>,
    counters: ServiceCounters,
    default_deadline: Duration,
    /// Admission bound: fresh submissions against a queue this deep are shed.
    queue_cap: usize,
    /// Pool size (scales the `retry_after_ms` hint).
    workers: usize,
}

/// The worker pool. Dropping without [`Scheduler::shutdown`] aborts the
/// queue without draining it; prefer an explicit shutdown.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` pooled threads. Fresh submissions beyond `queue_cap`
    /// waiting jobs are shed with a typed `overloaded` response.
    pub fn new(
        cache: ResultCache,
        workers: usize,
        default_deadline: Duration,
        queue_cap: usize,
    ) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cache,
            inflight: Mutex::new(HashMap::new()),
            counters: ServiceCounters::default(),
            default_deadline,
            queue_cap: queue_cap.max(1),
            workers,
        });
        let handles = (0..workers)
            .map(|k| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("wrsnd-worker-{k}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler {
            inner,
            workers: handles,
        }
    }

    /// Enqueues a work request. The deadline clock starts now; `None` uses
    /// the pool default. The response line (ok/timeout/error) is delivered
    /// on `reply` when the request resolves — preceded by `progress` frames
    /// when `stream` is set. A full queue sheds the request immediately with
    /// a typed `overloaded` line instead of admitting it.
    ///
    /// `detector` optionally names an online detector preset for scenario
    /// payloads. It never enters the digest: a fresh (leading) run attaches
    /// the audit and its summary rides in the `ok` envelope, while cache hits
    /// and followers are answered from the shared result bytes alone.
    pub fn submit(
        &self,
        id: String,
        payload: Payload,
        deadline: Option<Duration>,
        stream: bool,
        detector: Option<String>,
        reply: Sender<Reply>,
    ) {
        ServiceCounters::inc(&self.inner.counters.received);
        let job = Job {
            id,
            digest: payload.digest(),
            payload,
            deadline: deadline.unwrap_or(self.inner.default_deadline),
            enqueued: Instant::now(),
            stream,
            detector,
            reply,
        };
        let mut queue = self.inner.queue.lock().expect("queue lock");
        if queue.closed {
            let line = request::error_line(&job.id, "service is shutting down");
            let _ = job.reply.send(Reply::fin(line));
            return;
        }
        let depth = queue.jobs.len();
        if depth >= self.inner.queue_cap {
            drop(queue);
            ServiceCounters::inc(&self.inner.counters.shed);
            let line =
                request::overloaded_line(&job.id, retry_after_hint(depth, self.inner.workers));
            let _ = job.reply.send(Reply::fin(line));
            return;
        }
        queue.jobs.push_back(job);
        let depth = queue.jobs.len() as u64;
        self.inner
            .counters
            .queue_high_watermark
            .fetch_max(depth, Ordering::Relaxed);
        drop(queue);
        self.inner.available.notify_one();
    }

    /// The live counters (shared with the `stats` control op).
    pub fn counters(&self) -> &ServiceCounters {
        &self.inner.counters
    }

    /// Everything the `stats` control op reports: the monotonic counters
    /// plus instantaneous queue occupancy and (when the cache is bounded)
    /// the cache budget.
    pub fn stats_value(&self) -> Value {
        let Value::Map(mut entries) = self.inner.counters.to_value() else {
            unreachable!("counters serialize as a map");
        };
        let depth = self.inner.queue.lock().expect("queue lock").jobs.len();
        entries.push(("queue_depth".to_string(), Value::U64(depth as u64)));
        entries.push((
            "queue_cap".to_string(),
            Value::U64(self.inner.queue_cap as u64),
        ));
        if let Some(stats) = self.inner.cache.stats() {
            entries.push((
                Counter::CacheEvictions.name().to_string(),
                Value::U64(stats.evictions),
            ));
            entries.push(("cache_cap_bytes".to_string(), Value::U64(stats.cap_bytes)));
            entries.push(("cache_bytes".to_string(), Value::U64(stats.total_bytes)));
            entries.push(("cache_entries".to_string(), Value::U64(stats.entries)));
        }
        Value::Map(entries)
    }

    /// Closes the queue, drains every already-submitted job, and joins the
    /// pool. Submissions after this point are answered with an error.
    pub fn shutdown(mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("queue lock");
            queue.closed = true;
        }
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocks for the next job; `None` once the queue is closed and drained.
fn next_job(inner: &Inner) -> Option<Job> {
    let mut queue = inner.queue.lock().expect("queue lock");
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            return Some(job);
        }
        if queue.closed {
            return None;
        }
        queue = inner.available.wait(queue).expect("queue wait");
    }
}

/// Backoff hint for a shed response: scales with how far over capacity the
/// queue is relative to the pool that must drain it.
fn retry_after_hint(depth: usize, workers: usize) -> u64 {
    let scale = 1 + (depth / workers.max(1)) as u64;
    (RETRY_AFTER_MIN_MS * scale).clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS)
}

/// Answers `job` and the followers that coalesced behind it from one
/// computed outcome.
enum Outcome {
    /// Canonical result bytes plus, when the leader ran with a detector
    /// attached, the twin's envelope summary.
    Ok(String, Option<AuditSummary>),
    Timeout,
    Error(String),
    /// The streaming client went away mid-computation; there is nobody to
    /// answer, nothing was persisted, and followers get a fresh run.
    Disconnected,
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = next_job(inner) {
        // Deadline may already have passed while queued.
        let Some(budget) = job.remaining() else {
            ServiceCounters::inc(&inner.counters.timeouts);
            let _ = job.reply.send(Reply::fin(request::timeout_line(
                &job.id,
                job.deadline.as_secs_f64(),
            )));
            continue;
        };
        // Cache first: a validated entry answers without touching the pool's
        // compute budget at all.
        match inner.cache.lookup(&job.digest) {
            CacheLookup::Hit(result) => {
                ServiceCounters::inc(&inner.counters.cache_hits);
                ServiceCounters::inc(&inner.counters.ok);
                let line = request::ok_line(
                    &job.id,
                    &job.digest,
                    "hit",
                    job.enqueued.elapsed().as_secs_f64() * 1e3,
                    &result,
                    None,
                );
                let _ = job.reply.send(Reply::fin(line));
                continue;
            }
            CacheLookup::Rejected(_) => {
                ServiceCounters::inc(&inner.counters.cache_rejected);
            }
            CacheLookup::Miss => {}
        }
        // Single-flight: park behind an in-progress computation of the same
        // digest instead of duplicating it.
        {
            let mut inflight = inner.inflight.lock().expect("inflight lock");
            if let Some(followers) = inflight.get_mut(&job.digest) {
                followers.push(job);
                continue;
            }
            inflight.insert(job.digest.clone(), Vec::new());
        }
        // This job leads: it runs under a fresh token that the watchdog fires
        // once the job's remaining budget is spent.
        let disconnected = std::cell::Cell::new(false);
        let run = cancel::supervise(Some(budget), || {
            let token = cancel::current().expect("a budgeted run has a token");
            // A streaming leader forwards each drained record batch as a
            // `progress` frame. A failed send means the connection writer
            // (and with it the client) is gone — cancel our own token so the
            // engine unwinds at its next segment poll instead of computing
            // for nobody.
            let mut seq: u64 = 0;
            let mut frames = |t_s: f64, records: Vec<TraceRecord>| -> bool {
                if records.is_empty() {
                    return !token.is_cancelled();
                }
                let line = request::progress_line(&job.id, seq, t_s, &records);
                seq += 1;
                if job.reply.send(Reply::frame(line)).is_err() {
                    disconnected.set(true);
                    token.cancel();
                    return false;
                }
                ServiceCounters::inc(&inner.counters.stream_frames);
                true
            };
            let sink: Option<&mut dyn FnMut(f64, Vec<TraceRecord>) -> bool> =
                if job.stream { Some(&mut frames) } else { None };
            request::execute_with(&job.payload, job.detector.as_deref(), sink)
        });
        let outcome = match run {
            _ if disconnected.get() => Outcome::Disconnected,
            Supervised::Value(Ok((result, audit))) => Outcome::Ok(result, audit),
            // The supervisor reports a panic out of a cancelled run (the
            // engine unwinding past a poll point under load) as a timeout.
            Supervised::Value(Err(ExecError::Cancelled)) | Supervised::Timeout => Outcome::Timeout,
            Supervised::Value(Err(ExecError::Failed(detail))) => Outcome::Error(detail),
            Supervised::Panic(message) => Outcome::Error(format!("worker panicked: {message}")),
        };
        // Persist before taking the followers, so a request that misses the
        // follower window finds the cache entry instead of recomputing.
        if let Outcome::Ok(result, _) = &outcome {
            if let Err(e) = inner.cache.save(&job.digest, result) {
                eprintln!("wrsnd: cache save failed for {}: {e}", job.digest);
            }
        }
        let followers = inner
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&job.digest)
            .unwrap_or_default();
        match outcome {
            Outcome::Ok(result, audit) => {
                ServiceCounters::inc(&inner.counters.cache_misses);
                ServiceCounters::inc(&inner.counters.ok);
                let wall_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
                let _ = job.reply.send(Reply::fin(request::ok_line(
                    &job.id,
                    &job.digest,
                    "miss",
                    wall_ms,
                    &result,
                    audit.as_ref(),
                )));
                // Followers share the leader's result bytes, not its
                // envelope: the audit summary is the leader's fresh run.
                for follower in followers {
                    ServiceCounters::inc(&inner.counters.coalesced);
                    ServiceCounters::inc(&inner.counters.ok);
                    let wall_ms = follower.enqueued.elapsed().as_secs_f64() * 1e3;
                    let line = request::ok_line(
                        &follower.id,
                        &follower.digest,
                        "coalesced",
                        wall_ms,
                        &result,
                        None,
                    );
                    let _ = follower.reply.send(Reply::fin(line));
                }
            }
            Outcome::Timeout => {
                ServiceCounters::inc(&inner.counters.timeouts);
                let _ = job.reply.send(Reply::fin(request::timeout_line(
                    &job.id,
                    job.deadline.as_secs_f64(),
                )));
                // The leader's deadline is not the followers': give each a
                // fresh chance under its own clock.
                requeue(inner, followers);
            }
            Outcome::Error(detail) => {
                ServiceCounters::inc(&inner.counters.errors);
                let _ = job
                    .reply
                    .send(Reply::fin(request::error_line(&job.id, &detail)));
                for follower in followers {
                    ServiceCounters::inc(&inner.counters.errors);
                    let _ = follower
                        .reply
                        .send(Reply::fin(request::error_line(&follower.id, &detail)));
                }
            }
            Outcome::Disconnected => {
                // Nobody is listening for `job` any more; its followers'
                // clients may still be, so they re-run under their own
                // deadlines rather than inheriting the cancellation.
                ServiceCounters::inc(&inner.counters.stream_cancels);
                requeue(inner, followers);
            }
        }
    }
}

fn requeue(inner: &Inner, followers: Vec<Job>) {
    if followers.is_empty() {
        return;
    }
    let mut queue = inner.queue.lock().expect("queue lock");
    if queue.closed {
        for job in followers {
            ServiceCounters::inc(&inner.counters.errors);
            let _ = job.reply.send(Reply::fin(request::error_line(
                &job.id,
                "service is shutting down",
            )));
        }
        return;
    }
    let n = followers.len();
    for job in followers {
        queue.jobs.push_back(job);
    }
    drop(queue);
    for _ in 0..n {
        inner.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::request::{parse_response, TestOp};
    use std::sync::mpsc;

    fn temp_cache(tag: &str) -> (ResultCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "wrsn-sched-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultCache::open(&dir).unwrap(), dir)
    }

    fn echo(tag: u64, sleep_ms: u64) -> Payload {
        Payload::Test(TestOp::Echo { tag, sleep_ms })
    }

    #[test]
    fn work_round_trips_and_repeats_hit_the_cache() {
        let (cache, dir) = temp_cache("roundtrip");
        let scheduler = Scheduler::new(cache, 2, Duration::from_secs(10), 64);
        let (tx, rx) = mpsc::channel();
        scheduler.submit("a".to_string(), echo(1, 0), None, false, None, tx.clone());
        let first = parse_response(&rx.recv().unwrap().line).unwrap();
        assert_eq!(first.status, "ok");
        assert_eq!(first.cache.as_deref(), Some("miss"));
        scheduler.submit("b".to_string(), echo(1, 0), None, false, None, tx);
        let second = parse_response(&rx.recv().unwrap().line).unwrap();
        assert_eq!(second.cache.as_deref(), Some("hit"));
        assert_eq!(
            first.result_canonical, second.result_canonical,
            "hit replays the miss byte-identically"
        );
        assert_eq!(scheduler.counters().cache_hits(), 1);
        assert_eq!(scheduler.counters().cache_misses(), 1);
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_duplicates_coalesce_into_one_computation() {
        let (cache, dir) = temp_cache("coalesce");
        let scheduler = Scheduler::new(cache, 4, Duration::from_secs(10), 64);
        let (tx, rx) = mpsc::channel();
        for k in 0..6 {
            scheduler.submit(format!("q{k}"), echo(7, 150), None, false, None, tx.clone());
        }
        drop(tx);
        let mut results = Vec::new();
        while let Ok(reply) = rx.recv() {
            results.push(parse_response(&reply.line).unwrap());
        }
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == "ok"));
        let bytes: Vec<_> = results.iter().map(|r| r.result_canonical.clone()).collect();
        assert!(
            bytes.windows(2).all(|w| w[0] == w[1]),
            "every duplicate gets identical bytes"
        );
        // Exactly one real computation; the rest coalesced or (if they
        // arrived after the leader finished) hit the cache.
        assert_eq!(scheduler.counters().cache_misses(), 1);
        assert_eq!(
            scheduler.counters().coalesced() + scheduler.counters().cache_hits(),
            5
        );
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hung_payload_times_out_at_its_deadline() {
        let (cache, dir) = temp_cache("deadline");
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(10), 64);
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        scheduler.submit(
            "hang".to_string(),
            Payload::Test(TestOp::Hang),
            Some(Duration::from_millis(80)),
            false,
            None,
            tx,
        );
        let response = parse_response(&rx.recv().unwrap().line).unwrap();
        assert_eq!(response.status, "timeout");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "watchdog fired, not a test timeout"
        );
        assert_eq!(scheduler.counters().timeouts(), 1);
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_request_queued_past_its_deadline_never_executes() {
        let (cache, dir) = temp_cache("queued");
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(10), 64);
        let (tx, rx) = mpsc::channel();
        // Occupy the only worker…
        scheduler.submit(
            "slow".to_string(),
            echo(9, 250),
            None,
            false,
            None,
            tx.clone(),
        );
        // …so this 1 ms deadline is long gone by the time it is popped.
        scheduler.submit(
            "late".to_string(),
            echo(10, 0),
            Some(Duration::from_millis(1)),
            false,
            None,
            tx,
        );
        let mut by_id = HashMap::new();
        for _ in 0..2 {
            let r = parse_response(&rx.recv().unwrap().line).unwrap();
            by_id.insert(r.id.clone(), r);
        }
        assert_eq!(by_id["slow"].status, "ok");
        assert_eq!(by_id["late"].status, "timeout");
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_payload_reports_an_error_and_the_worker_thread_survives() {
        let (cache, dir) = temp_cache("panic");
        // One worker: the follow-up request runs on the *same* pooled
        // thread the panic unwound through.
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(10), 64);
        let (tx, rx) = mpsc::channel();
        scheduler.submit(
            "boom".to_string(),
            Payload::Test(TestOp::Panic),
            None,
            false,
            None,
            tx.clone(),
        );
        let boom = parse_response(&rx.recv().unwrap().line).unwrap();
        assert_eq!(boom.status, "error");
        assert!(boom.error.unwrap().contains("panicked"));
        // The reused thread must carry no stale cancel token: a fresh
        // request completes normally instead of being instantly "cancelled".
        scheduler.submit("after".to_string(), echo(11, 0), None, false, None, tx);
        let after = parse_response(&rx.recv().unwrap().line).unwrap();
        assert_eq!(after.status, "ok", "reused worker thread is clean");
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn followers_of_a_timed_out_leader_are_requeued_not_dropped() {
        let (cache, dir) = temp_cache("requeue");
        let scheduler = Scheduler::new(cache, 2, Duration::from_secs(10), 64);
        let (tx, rx) = mpsc::channel();
        // Leader hangs with a short deadline; follower (same digest) has a
        // generous one. After the leader times out the follower re-runs the
        // payload itself — Hang always hangs, so it times out on its *own*
        // deadline rather than being silently dropped.
        scheduler.submit(
            "leader".to_string(),
            Payload::Test(TestOp::Hang),
            Some(Duration::from_millis(60)),
            false,
            None,
            tx.clone(),
        );
        thread::sleep(Duration::from_millis(10));
        scheduler.submit(
            "follower".to_string(),
            Payload::Test(TestOp::Hang),
            Some(Duration::from_millis(300)),
            false,
            None,
            tx,
        );
        let mut statuses = HashMap::new();
        for _ in 0..2 {
            let r = parse_response(&rx.recv().unwrap().line).unwrap();
            statuses.insert(r.id.clone(), r.status);
        }
        assert_eq!(statuses["leader"], "timeout");
        assert_eq!(statuses["follower"], "timeout");
        assert_eq!(scheduler.counters().timeouts(), 2);
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_queue_sheds_with_a_typed_overloaded_response() {
        let (cache, dir) = temp_cache("shed");
        // One worker, queue of one: occupy the worker, fill the queue, and
        // the third submission must be shed at the door.
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(10), 1);
        let (tx, rx) = mpsc::channel();
        scheduler.submit(
            "busy".to_string(),
            echo(20, 250),
            None,
            false,
            None,
            tx.clone(),
        );
        // Give the worker time to pop "busy" off the queue.
        thread::sleep(Duration::from_millis(50));
        scheduler.submit(
            "queued".to_string(),
            echo(21, 0),
            None,
            false,
            None,
            tx.clone(),
        );
        scheduler.submit(
            "shed".to_string(),
            echo(22, 0),
            None,
            false,
            None,
            tx.clone(),
        );
        drop(tx);
        let mut by_id = HashMap::new();
        while let Ok(reply) = rx.recv() {
            let r = parse_response(&reply.line).unwrap();
            by_id.insert(r.id.clone(), r);
        }
        assert_eq!(by_id["busy"].status, "ok");
        assert_eq!(by_id["queued"].status, "ok");
        let shed = &by_id["shed"];
        assert_eq!(shed.status, "overloaded");
        let hint = shed.retry_after_ms.expect("shed response carries a hint");
        assert!((RETRY_AFTER_MIN_MS..=RETRY_AFTER_MAX_MS).contains(&hint));
        assert_eq!(scheduler.counters().shed(), 1);
        assert!(scheduler.counters().queue_high_watermark() >= 1);
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_streaming_job_emits_progress_frames_then_the_shared_cached_final() {
        let (cache, dir) = temp_cache("stream");
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(10), 8);
        let stream_op = || {
            Payload::Test(TestOp::Stream {
                frames: 3,
                sleep_ms: 0,
            })
        };
        let (tx, rx) = mpsc::channel();
        scheduler.submit("s".to_string(), stream_op(), None, true, None, tx);
        let mut frames = Vec::new();
        let fin = loop {
            let reply = rx.recv().unwrap();
            let r = parse_response(&reply.line).unwrap();
            if reply.fin {
                break r;
            }
            assert_eq!(r.status, "progress");
            frames.push(r);
        };
        assert_eq!(frames.len(), 3);
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.seq, Some(k as u64), "frames arrive in order");
            assert_eq!(frame.records.as_ref().unwrap().len(), 1);
        }
        assert_eq!(fin.status, "ok");
        assert_eq!(scheduler.counters().stream_frames(), 3);
        // The stream flag is envelope-only: the same payload submitted plain
        // hits the cache entry the streamed run saved, byte-identically.
        let (tx2, rx2) = mpsc::channel();
        scheduler.submit("p".to_string(), stream_op(), None, false, None, tx2);
        let plain = parse_response(&rx2.recv().unwrap().line).unwrap();
        assert_eq!(plain.status, "ok");
        assert_eq!(plain.cache.as_deref(), Some("hit"));
        assert_eq!(plain.result_canonical, fin.result_canonical);
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_a_fresh_detector_run_carries_the_audit_envelope() {
        let (cache, dir) = temp_cache("audit");
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(60), 8);
        let scenario = || {
            Payload::Scenario(request::ScenarioSpec {
                nodes: 24,
                seed: 7,
                horizon_s: 20_000.0,
                deployment: request::DeploymentKind::Uniform,
            })
        };
        let detector = || Some("aggressive".to_string());
        let (tx, rx) = mpsc::channel();
        scheduler.submit("fresh".to_string(), scenario(), None, false, detector(), tx);
        let fresh = parse_response(&rx.recv().unwrap().line).unwrap();
        assert_eq!(fresh.status, "ok");
        assert_eq!(fresh.cache.as_deref(), Some("miss"));
        let envelope = fresh
            .audit_canonical
            .expect("a fresh run carries the audit");
        assert!(envelope.contains("\"preset\":\"aggressive\""));
        // The duplicate replays the cached bytes without re-running the
        // campaign, so there is no audit to report.
        let (tx2, rx2) = mpsc::channel();
        scheduler.submit("dup".to_string(), scenario(), None, false, detector(), tx2);
        let dup = parse_response(&rx2.recv().unwrap().line).unwrap();
        assert_eq!(dup.status, "ok");
        assert_eq!(dup.cache.as_deref(), Some("hit"));
        assert_eq!(dup.audit_canonical, None);
        assert_eq!(dup.result_canonical, fresh.result_canonical);
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disconnected_stream_cancels_without_poisoning_worker_or_cache() {
        let (cache, dir) = temp_cache("discon");
        let scheduler = Scheduler::new(cache, 1, Duration::from_secs(10), 8);
        let gone_op = Payload::Test(TestOp::Stream {
            frames: 500,
            sleep_ms: 5,
        });
        let digest = gone_op.digest();
        let (tx, rx) = mpsc::channel();
        scheduler.submit("gone".to_string(), gone_op, None, true, None, tx);
        let first = rx.recv().unwrap();
        assert!(!first.fin, "first line is a progress frame");
        drop(rx); // the client vanishes mid-stream
                  // The worker notices on its next frame send, cancels its own run,
                  // and survives to serve a fresh request on the same thread.
        let (tx2, rx2) = mpsc::channel();
        scheduler.submit("next".to_string(), echo(30, 0), None, false, None, tx2);
        let next = parse_response(&rx2.recv().unwrap().line).unwrap();
        assert_eq!(next.status, "ok");
        assert_eq!(scheduler.counters().stream_cancels(), 1);
        assert!(scheduler.counters().stream_frames() >= 1);
        // The aborted computation persisted nothing under its digest.
        assert!(
            !dir.join(format!("{digest}.out.json")).exists(),
            "cancelled stream must not leave a cache entry"
        );
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_value_reports_queue_and_cache_occupancy() {
        let dir = std::env::temp_dir().join(format!(
            "wrsn-sched-stats-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open_bounded(&dir, 1 << 20).unwrap();
        let scheduler = Scheduler::new(cache, 2, Duration::from_secs(10), 7);
        let Value::Map(entries) = scheduler.stats_value() else {
            panic!("stats_value is a map");
        };
        let get = |key: &str| {
            entries
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("stats missing {key}"))
                .1
                .clone()
        };
        assert_eq!(get("queue_cap"), Value::U64(7));
        assert_eq!(get("queue_depth"), Value::U64(0));
        assert_eq!(get("cache_cap_bytes"), Value::U64(1 << 20));
        assert_eq!(get(Counter::CacheEvictions.name()), Value::U64(0));
        assert_eq!(get(Counter::RequestsShed.name()), Value::U64(0));
        scheduler.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
