//! Daemon-level durability: SIGKILL `wrsnd` mid-request and prove the
//! restarted daemon serves the same scenario digest byte-identically from
//! its artifact store — no duplicate compute, no corrupt cache entry — plus
//! deadline enforcement and worker-thread reuse after a payload panic,
//! exercised through the real binary and real sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wrsn_bench::service::request::{parse_response, ParsedResponse};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wrsnd-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running daemon plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots `wrsnd serve --listen 127.0.0.1:0` on `store` and waits for
    /// its "listening on" banner. `envs` lets a test arm the fault hooks.
    fn spawn(store: &Path, workers: usize, envs: &[(&str, &str)]) -> Daemon {
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

const SCENARIO_A: &str =
    r#"{"id":"a","scenario":{"nodes":24,"seed":7,"horizon_s":20000},"deadline_s":120}"#;

#[test]
fn sigkill_mid_request_then_restart_serves_the_same_digest_byte_identically() {
    let store = temp_dir("sigkill");

    // Phase 1: a clean daemon computes scenario A and caches it.
    let mut daemon = Daemon::spawn(&store, 2, &[]);
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
    let mut daemon = Daemon::spawn(&store, 2, &[("WRSN_FORCE_HANG", "fig5")]);
    let mut conn = daemon.connect();
    conn.send(r#"{"id":"wedged","exp":"fig5","deadline_s":600}"#);
    std::thread::sleep(Duration::from_millis(400));
    daemon.kill();
    drop(conn);

    // Phase 3: a restarted daemon on the same store must serve scenario A
    // from the artifact store — same digest, same bytes, no recompute — and
    // the store must contain no torn temp files from the kill.
    let mut daemon = Daemon::spawn(&store, 2, &[]);
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
    for entry in std::fs::read_dir(&store).expect("read store") {
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
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_panicked_worker_thread_is_reused_cleanly() {
    // One worker: the request after the panic runs on the thread that just
    // unwound — the daemon-level pin for the id-keyed ScopedCancel restore.
    let store = temp_dir("panic");
    let mut daemon = Daemon::spawn(&store, 1, &[("WRSN_FORCE_PANIC", "fig2")]);
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
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn deadlines_cancel_hung_requests_without_taking_the_daemon_down() {
    let store = temp_dir("deadline");
    let mut daemon = Daemon::spawn(&store, 1, &[("WRSN_FORCE_HANG", "fig5")]);
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
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn ping_and_stats_report_service_state() {
    let store = temp_dir("stats");
    let mut daemon = Daemon::spawn(&store, 2, &[]);
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
    let _ = std::fs::remove_dir_all(&store);
}
