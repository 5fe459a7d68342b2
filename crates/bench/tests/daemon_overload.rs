//! `wrsnd` through the real binary and real sockets. Durability: SIGKILL
//! mid-request, and the restarted daemon serves the same digest
//! byte-identically from its artifact store, with deadline enforcement and
//! worker-thread reuse after a payload panic. Overload and hostile clients:
//! typed shedding under a full queue with retry-to-success byte identity,
//! streamed responses cancelled by mid-stream client disconnects without
//! poisoning the cache, oversized and deeply nested request lines,
//! idle-connection reaping, and a full load run through the fault-injecting
//! chaos proxy.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wrsn_bench::service::chaos;
use wrsn_bench::service::loadgen::{run_load, LoadConfig};
use wrsn_bench::service::request::{parse_response, ParsedResponse};
use wrsn_bench::service::server::MAX_LINE_BYTES;

/// A fresh store directory, removed when the guard drops, so a test that
/// fails midway leaves nothing behind. Declare it before the [`Daemon`]
/// using it: locals drop in reverse order, so the daemon dies first.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wrsnd-ov-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// A running daemon plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots `wrsnd serve --listen 127.0.0.1:0` on `store` with `extra`
    /// flags (queue cap, cache cap, idle timeout) and waits for the banner.
    /// `envs` lets a test arm the fault hooks.
    fn spawn(store: &Path, workers: usize, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut command = Command::new(env!("CARGO_BIN_EXE_wrsnd"));
        command
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--store",
                &store.display().to_string(),
                "--workers",
                &workers.to_string(),
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("spawn wrsnd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("banner line").expect("readable banner");
        let addr = banner
            .strip_prefix("wrsnd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Daemon { child, addr }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    /// SIGKILL — the crash the artifact store must survive.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// A counter from a fresh `stats` request (0 when absent).
    fn stat_u64(&self, key: &str) -> u64 {
        let mut conn = self.connect();
        let stats = conn.request(r#"{"id":"s","op":"stats"}"#);
        assert_eq!(stats.status, "ok", "stats failed: {:?}", stats.error);
        let body = stats.result_canonical.expect("stats body");
        let value: serde::Value = serde_json::from_str(&body).expect("stats body parses");
        value
            .as_map()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key))
            .map_or(0, |(_, v)| match v {
                serde::Value::U64(n) => *n,
                _ => 0,
            })
    }

    /// Asks for a graceful shutdown and waits for the process to exit 0.
    fn shutdown(&mut self) {
        let mut conn = self.connect();
        let bye = conn.request(r#"{"id":"bye","op":"shutdown"}"#);
        assert_eq!(bye.status, "ok");
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exited {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .and_then(|()| self.stream.flush())
            .expect("send request");
    }

    fn recv(&mut self) -> ParsedResponse {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        parse_response(line.trim_end()).expect("parse response")
    }

    fn request(&mut self, line: &str) -> ParsedResponse {
        self.send(line);
        self.recv()
    }
}

#[test]
fn a_full_queue_sheds_typed_and_retries_land_byte_identically() {
    let store = temp_dir("shed");
    // One worker, one queue slot: wedge the worker (forced fig5 hang until
    // its 3 s deadline), fill the slot, and the next distinct request must
    // be shed with a typed `overloaded` + backoff hint.
    let mut daemon = Daemon::spawn(
        &store,
        1,
        &["--queue-cap", "1"],
        &[("WRSN_FORCE_HANG", "fig5")],
    );
    let mut busy = daemon.connect();
    busy.send(r#"{"id":"hang","exp":"fig5","deadline_s":3}"#);
    std::thread::sleep(Duration::from_millis(400)); // worker picks it up
    busy.send(r#"{"id":"fill","scenario":{"nodes":24,"seed":1,"horizon_s":20000}}"#);
    std::thread::sleep(Duration::from_millis(100)); // fill occupies the queue

    const SPEC_C: &str = r#"{"id":"c","scenario":{"nodes":24,"seed":2,"horizon_s":20000}}"#;
    let mut client = daemon.connect();
    let first = client.request(SPEC_C);
    assert_eq!(first.status, "overloaded", "error: {:?}", first.error);
    let hint = first.retry_after_ms.expect("overloaded carries a hint");
    assert!(hint >= 25, "hint {hint} below the floor");

    // The client contract: keep retrying on the daemon's hint and the
    // request eventually succeeds (the wedge times out at 3 s).
    let mut shed_seen = 1u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    let settled = loop {
        assert!(Instant::now() < deadline, "retries never landed");
        std::thread::sleep(Duration::from_millis(hint.min(200)));
        let attempt = client.request(SPEC_C);
        match attempt.status.as_str() {
            "overloaded" => shed_seen += 1,
            "ok" => break attempt,
            other => panic!("unexpected status {other}: {:?}", attempt.error),
        }
    };
    let bytes = settled.result_canonical.expect("ok has a result");
    let digest = settled.digest.expect("ok has a digest");

    // Byte identity across the shed/retry episode: a replay is a cache hit
    // with the same bytes.
    let replay = client.request(SPEC_C);
    assert_eq!(replay.status, "ok");
    assert_eq!(replay.cache.as_deref(), Some("hit"));
    assert_eq!(replay.digest.as_deref(), Some(digest.as_str()));
    assert_eq!(replay.result_canonical.as_deref(), Some(bytes.as_str()));

    // The wedged and queued requests resolved on their own connection.
    let wedged = busy.recv();
    assert_eq!(wedged.status, "timeout", "error: {:?}", wedged.error);
    let filled = busy.recv();
    assert_eq!(filled.status, "ok", "error: {:?}", filled.error);

    assert!(daemon.stat_u64("requests_shed") >= shed_seen);
    assert!(daemon.stat_u64("queue_high_watermark") >= 1);
    drop(client);
    drop(busy);
    daemon.shutdown();
}

/// A scenario slow enough (seconds, debug build) to stream many progress
/// frames — the disconnect below lands mid-stream with plenty of sim left.
const SLOW_STREAM: &str = r#"{"id":"slow","scenario":{"nodes":1000,"seed":7,"horizon_s":200000},"deadline_s":300,"stream":true}"#;
const SLOW_PLAIN: &str =
    r#"{"id":"plain","scenario":{"nodes":1000,"seed":7,"horizon_s":200000},"deadline_s":300}"#;

#[test]
fn a_mid_stream_disconnect_cancels_the_run_and_leaves_the_cache_valid() {
    let store = temp_dir("stream");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[]);

    // Start a streamed run, read one progress frame to prove we are
    // mid-stream, then vanish.
    let mut conn = daemon.connect();
    conn.send(SLOW_STREAM);
    let frame = conn.recv();
    assert_eq!(frame.status, "progress");
    assert_eq!(frame.seq, Some(0));
    assert!(frame.records.is_some_and(|r| !r.is_empty()));
    drop(conn);

    // The daemon notices the dead client at the next frame flush and
    // cancels the computation cooperatively.
    let deadline = Instant::now() + Duration::from_secs(60);
    while daemon.stat_u64("stream_cancels") == 0 {
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the streamed run"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The cancelled run must not have poisoned the store: the same spec
    // computes fresh, replays as a validated hit, byte-identically.
    let mut conn = daemon.connect();
    let fresh = conn.request(SLOW_PLAIN);
    assert_eq!(fresh.status, "ok", "error: {:?}", fresh.error);
    assert_eq!(fresh.cache.as_deref(), Some("miss"), "no partial artifact");
    let bytes = fresh.result_canonical.expect("ok has a result");
    let replay = conn.request(SLOW_PLAIN);
    assert_eq!(replay.cache.as_deref(), Some("hit"));
    assert_eq!(replay.result_canonical.as_deref(), Some(bytes.as_str()));
    drop(conn);
    daemon.shutdown();
}

#[test]
fn streamed_and_plain_responses_share_digest_and_final_bytes() {
    let store = temp_dir("streameq");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[]);
    const PLAIN: &str = r#"{"id":"p","scenario":{"nodes":80,"seed":3,"horizon_s":100000}}"#;
    const STREAMED: &str =
        r#"{"id":"q","scenario":{"nodes":80,"seed":3,"horizon_s":100000},"stream":true}"#;

    let mut conn = daemon.connect();
    let plain = conn.request(PLAIN);
    assert_eq!(plain.status, "ok", "error: {:?}", plain.error);

    // The streamed duplicate is a cache hit: final frame only, same bytes.
    let hit = conn.request(STREAMED);
    assert_eq!(hit.status, "ok");
    assert_eq!(hit.cache.as_deref(), Some("hit"));
    assert_eq!(hit.digest, plain.digest);
    assert_eq!(hit.result_canonical, plain.result_canonical);

    // On a cold store the same streamed request emits frames, then a final
    // whose digest and bytes still match the plain run.
    drop(conn);
    daemon.shutdown();
    let cold = temp_dir("streameq-cold");
    let mut daemon = Daemon::spawn(&cold, 1, &[], &[]);
    let mut conn = daemon.connect();
    conn.send(STREAMED);
    let mut frames = 0u64;
    let streamed = loop {
        let line = conn.recv();
        if line.status == "progress" {
            assert_eq!(line.seq, Some(frames));
            frames += 1;
            continue;
        }
        break line;
    };
    assert!(frames > 0, "a cold streamed run must emit progress frames");
    assert_eq!(streamed.status, "ok", "error: {:?}", streamed.error);
    assert_eq!(streamed.cache.as_deref(), Some("miss"));
    assert_eq!(streamed.digest, plain.digest);
    assert_eq!(streamed.result_canonical, plain.result_canonical);
    drop(conn);
    daemon.shutdown();
}

/// Pipelined cache hits on a 320-node result come back well inside the
/// client's delayed-ACK window. A reply sent while the previous one is still
/// unacknowledged is held by Nagle's algorithm until the client's delayed
/// ACK fires (about 40 ms on Linux) unless the daemon's socket is no-delay.
#[test]
fn pipelined_cache_hits_are_not_held_back_by_nagle() {
    const REQUEST: &str =
        "{\"id\":\"big\",\"scenario\":{\"nodes\":320,\"seed\":11,\"horizon_s\":50000}}\n";
    const ROUNDS: usize = 21;
    let store = temp_dir("nagle");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[]);
    let mut conn = daemon.connect();
    // The client sends each batch in one no-delay write, so only the
    // daemon's side of the exchange can stall.
    conn.stream.set_nodelay(true).expect("client no-delay");
    let mut round_trip = |batch: usize| {
        let started = Instant::now();
        conn.stream
            .write_all(REQUEST.repeat(batch).as_bytes())
            .expect("send requests");
        let replies: Vec<ParsedResponse> = (0..batch).map(|_| conn.recv()).collect();
        (started.elapsed(), replies)
    };

    let (_, first) = round_trip(1);
    assert_eq!(first[0].status, "ok", "error: {:?}", first[0].error);
    let mut rounds: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let (elapsed, hits) = round_trip(2);
            for hit in &hits {
                assert_eq!(hit.cache.as_deref(), Some("hit"));
                assert_eq!(hit.result_canonical, first[0].result_canonical);
            }
            elapsed
        })
        .collect();
    rounds.sort();
    let median = rounds[ROUNDS / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip of two pipelined hits {median:?} (all: {rounds:?})"
    );
    drop(conn);
    daemon.shutdown();
}

#[test]
fn an_oversized_request_line_is_rejected_typed_and_the_connection_closed() {
    let store = temp_dir("oversize");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[]);

    let mut conn = daemon.connect();
    let huge = vec![b'x'; MAX_LINE_BYTES + 64];
    conn.stream.write_all(&huge).expect("write oversized line");
    conn.stream.write_all(b"\n").expect("terminate line");
    conn.stream.flush().expect("flush");
    let reply = conn.recv();
    assert_eq!(reply.status, "invalid");
    assert!(
        reply.error.unwrap_or_default().contains("exceeds"),
        "typed rejection names the cap"
    );
    let mut rest = String::new();
    let n = conn.reader.read_line(&mut rest).expect("read after reject");
    assert_eq!(
        n, 0,
        "daemon must close the connection after an oversized line"
    );

    // The daemon itself is unharmed.
    let mut conn = daemon.connect();
    let pong = conn.request(r#"{"id":"p","op":"ping"}"#);
    assert_eq!(pong.status, "ok");
    assert!(daemon.stat_u64("requests_oversized") >= 1);
    drop(conn);
    daemon.shutdown();
}

#[test]
fn a_deadline_beyond_a_duration_is_a_typed_error_on_a_live_connection() {
    // `deadline_s` above ~1.8e19 s fits an f64 but no `Duration`: the
    // request is rejected as an error line and the connection keeps serving.
    let store = temp_dir("huge-deadline");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[]);
    let mut conn = daemon.connect();
    conn.stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let rejected = conn.request(r#"{"id":"h","exp":"fig2","deadline_s":1e20}"#);
    assert_eq!(rejected.status, "error");
    assert_eq!(rejected.id, "h", "the error answers the line's own id");
    let error = rejected.error.unwrap_or_default();
    assert!(
        error.contains("deadline_s"),
        "error names the field: {error}"
    );
    let pong = conn.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.status, "ok");
    drop(conn);
    daemon.shutdown();
}

#[test]
fn a_deeply_nested_line_is_a_typed_error_on_a_live_connection() {
    // 64 KB of `[`, far below the line cap, overflowed the connection
    // thread's stack and aborted the daemon before the parser's nesting cap.
    let store = temp_dir("nested");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[]);
    let mut conn = daemon.connect();
    let timeout = Some(Duration::from_secs(30));
    conn.stream
        .set_read_timeout(timeout)
        .expect("set read timeout");
    let line = format!(r#"{{"id":"deep","exp":{}"#, "[".repeat(64 * 1024));
    let rejected = conn.request(&line);
    assert_eq!(
        (rejected.status.as_str(), rejected.id.as_str()),
        ("error", "deep")
    );
    let error = rejected.error.unwrap_or_default();
    assert!(
        error.contains("nest deeper"),
        "error names the cap: {error}"
    );
    assert_eq!(conn.request(r#"{"op":"ping"}"#).status, "ok");
    drop(conn);
    daemon.shutdown();
}

#[test]
fn idle_connections_are_reaped_but_waiting_clients_are_not() {
    let store = temp_dir("idle");
    let mut daemon = Daemon::spawn(&store, 1, &["--idle-timeout-s", "0.3"], &[]);

    // A connection with a request in flight survives the idle window (the
    // forced hang holds the worker well past 0.3 s before the deadline).
    let mut waiting = daemon.connect();
    let slow = waiting.request(
        r#"{"id":"w","scenario":{"nodes":1000,"seed":9,"horizon_s":200000},"deadline_s":300}"#,
    );
    assert_eq!(slow.status, "ok", "error: {:?}", slow.error);
    drop(waiting);

    // A connection that goes quiet with nothing in flight is reaped: the
    // daemon closes it and counts it.
    let mut idle = daemon.connect();
    let pong = idle.request(r#"{"id":"p","op":"ping"}"#);
    assert_eq!(pong.status, "ok");
    let mut line = String::new();
    let started = Instant::now();
    let n = idle.reader.read_line(&mut line).expect("wait for reap");
    assert_eq!(n, 0, "reaped connection closes cleanly, got {line:?}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "reap must happen at the idle timeout"
    );
    assert!(daemon.stat_u64("conns_reaped") >= 1);
    daemon.shutdown();
}

#[test]
fn a_load_run_through_the_chaos_proxy_converges_with_zero_violations() {
    let store = temp_dir("chaos");
    // Small capacity so the chaos run exercises shedding too, not just
    // drops and stalls.
    let mut daemon = Daemon::spawn(&store, 2, &["--queue-cap", "4"], &[]);
    let (proxy_addr, proxy) = chaos::spawn(&daemon.addr, 42).expect("spawn chaos proxy");

    let config = LoadConfig {
        connect: proxy_addr.to_string(),
        requests: 24,
        conns: 3,
        dup_frac: 0.4,
        stream_frac: 0.25,
        deadline_s: 120.0,
        seed: 7,
        max_attempts: 10,
        verify_exp: None,
        shutdown: false,
    };
    let report = run_load(&config).expect("load run completes");
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "chaos must never produce wrong bytes"
    );
    assert_eq!(
        report.ok, report.sent,
        "every request eventually succeeds through drops and stalls"
    );
    proxy.stop();

    // The daemon shrugged it all off.
    let mut conn = daemon.connect();
    let pong = conn.request(r#"{"id":"p","op":"ping"}"#);
    assert_eq!(pong.status, "ok");
    drop(conn);
    daemon.shutdown();
}

const SCENARIO_A: &str =
    r#"{"id":"a","scenario":{"nodes":24,"seed":7,"horizon_s":20000},"deadline_s":120}"#;

#[test]
fn sigkill_mid_request_then_restart_serves_the_same_digest_byte_identically() {
    let store = temp_dir("sigkill");

    // Phase 1: a clean daemon computes scenario A and caches it.
    let mut daemon = Daemon::spawn(&store, 2, &[], &[]);
    let mut conn = daemon.connect();
    let first = conn.request(SCENARIO_A);
    assert_eq!(first.status, "ok", "error: {:?}", first.error);
    assert_eq!(first.cache.as_deref(), Some("miss"));
    let digest = first.digest.clone().expect("work response has a digest");
    let bytes = first.result_canonical.clone().expect("ok has a result");

    // Same scenario again: a validated cache hit, byte-identical.
    let again = conn.request(SCENARIO_A);
    assert_eq!(again.cache.as_deref(), Some("hit"));
    assert_eq!(again.digest.as_deref(), Some(digest.as_str()));
    assert_eq!(again.result_canonical.as_deref(), Some(bytes.as_str()));

    // Phase 2: wedge an in-flight request (the fig5 fault hook hangs its
    // worker until cancelled) and SIGKILL the daemon mid-request.
    daemon.kill();
    drop(conn);
    let mut daemon = Daemon::spawn(&store, 2, &[], &[("WRSN_FORCE_HANG", "fig5")]);
    let mut conn = daemon.connect();
    conn.send(r#"{"id":"wedged","exp":"fig5","deadline_s":600}"#);
    std::thread::sleep(Duration::from_millis(400));
    daemon.kill();
    drop(conn);

    // Phase 3: a restarted daemon on the same store must serve scenario A
    // from the artifact store — same digest, same bytes, no recompute — and
    // the store must contain no torn temp files from the kill.
    let mut daemon = Daemon::spawn(&store, 2, &[], &[]);
    let mut conn = daemon.connect();
    let replay = conn.request(SCENARIO_A);
    assert_eq!(replay.status, "ok", "error: {:?}", replay.error);
    assert_eq!(
        replay.cache.as_deref(),
        Some("hit"),
        "restart must serve from the store, not recompute"
    );
    assert_eq!(replay.digest.as_deref(), Some(digest.as_str()));
    assert_eq!(
        replay.result_canonical.as_deref(),
        Some(bytes.as_str()),
        "replayed artifact must be byte-identical across the crash"
    );
    for entry in std::fs::read_dir(&*store).expect("read store") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            name.ends_with(".out.json") && !name.contains(".tmp"),
            "unexpected store file after SIGKILL: {name}"
        );
    }

    // The daemon is fully functional after the crash: fresh work computes.
    let fresh = conn.request(r#"{"id":"b","scenario":{"nodes":10,"seed":1,"horizon_s":5000}}"#);
    assert_eq!(fresh.status, "ok");
    assert_eq!(fresh.cache.as_deref(), Some("miss"));
    drop(conn);
    daemon.shutdown();
}

#[test]
fn a_panicked_worker_thread_is_reused_cleanly() {
    // One worker: the request after the panic runs on the thread that just
    // unwound — the daemon-level pin for the id-keyed ScopedCancel restore.
    let store = temp_dir("panic");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[("WRSN_FORCE_PANIC", "fig2")]);
    let mut conn = daemon.connect();

    let boom = conn.request(r#"{"id":"boom","exp":"fig2"}"#);
    assert_eq!(boom.status, "error");
    assert!(
        boom.error.unwrap_or_default().contains("panicked"),
        "forced panic surfaces as a typed error"
    );

    let after = conn.request(r#"{"id":"after","scenario":{"nodes":10,"seed":3,"horizon_s":5000}}"#);
    assert_eq!(
        after.status, "ok",
        "reused worker thread must not carry stale cancellation: {:?}",
        after.error
    );
    drop(conn);
    daemon.shutdown();
}

#[test]
fn deadlines_cancel_hung_requests_without_taking_the_daemon_down() {
    let store = temp_dir("deadline");
    let mut daemon = Daemon::spawn(&store, 1, &[], &[("WRSN_FORCE_HANG", "fig5")]);
    let mut conn = daemon.connect();

    let started = Instant::now();
    let hung = conn.request(r#"{"id":"hung","exp":"fig5","deadline_s":0.5}"#);
    assert_eq!(hung.status, "timeout", "error: {:?}", hung.error);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog cancelled at the deadline, not at test timeout"
    );

    // The worker that was hung is free again: new work completes.
    let after = conn.request(r#"{"id":"ok","scenario":{"nodes":10,"seed":5,"horizon_s":5000}}"#);
    assert_eq!(after.status, "ok", "error: {:?}", after.error);
    drop(conn);
    daemon.shutdown();
}

#[test]
fn ping_and_stats_report_service_state() {
    let store = temp_dir("stats");
    let mut daemon = Daemon::spawn(&store, 2, &[], &[]);
    let mut conn = daemon.connect();
    let pong = conn.request(r#"{"id":"p","op":"ping"}"#);
    assert_eq!(pong.status, "ok");
    assert!(pong.result_canonical.unwrap().contains("ping"));

    let one = conn.request(r#"{"id":"w","scenario":{"nodes":10,"seed":9,"horizon_s":5000}}"#);
    assert_eq!(one.status, "ok");
    let stats = conn.request(r#"{"id":"s","op":"stats"}"#);
    let body = stats.result_canonical.expect("stats body");
    assert!(
        body.contains("\"cache_misses\":1"),
        "one computed request in {body}"
    );
    assert!(
        body.contains("\"threads\":"),
        "stats must report the effective execution strategy, got {body}"
    );
    drop(conn);
    daemon.shutdown();
}
