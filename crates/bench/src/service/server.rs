//! The daemon's frontends: a TCP listener and a stdin/stdout pipe mode, both
//! speaking the newline-delimited JSON protocol of [`super::request`].
//!
//! Each TCP connection gets a reader thread (parse → submit to the
//! scheduler, control ops answered inline) and a writer thread draining a
//! per-connection channel — so responses stream back in completion order
//! while later requests on the same connection are still being parsed
//! (pipelining). Stdin mode wires the same loop to the process's standard
//! streams for harnesses that prefer pipes to sockets.
//!
//! Accepted sockets are `TCP_NODELAY` and every reply line goes out, newline
//! included, in one write: with Nagle's algorithm a reply that follows an
//! unacknowledged one would wait for the client's delayed ACK.
//!
//! The frontends are hardened against hostile or broken clients:
//!
//! - **Line cap**: a request line longer than [`MAX_LINE_BYTES`] is answered
//!   with a typed `invalid` response and the connection is closed — the
//!   daemon never buffers an unbounded line.
//! - **Idle reaping**: with an idle timeout configured, socket reads and
//!   writes time out. A connection that has been silent past the timeout
//!   with no requests in flight (or that stalled mid-line) is reaped and
//!   counted; a client merely waiting on a slow computation is left alone.
//! - **In-flight tracking**: the reader counts every reply-expecting request
//!   up front and the writer counts final (`fin`) lines back down, so the
//!   idle sweep knows the difference between "quiet because waiting" and
//!   "quiet because gone". Streaming `progress` frames do not resolve a
//!   request and leave the count untouched.
//!
//! Shutdown (`{"op":"shutdown"}`) stops the accept loop (it blocks in
//! `accept`, so the stop request wakes it by connecting to the listener's
//! own address), half-closes every connection's read side so its reader
//! sees EOF, drains the scheduler queue, and joins everything — queued work
//! is answered, new work is refused.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use serde::Value;

use super::cache::ResultCache;
use super::request::{self, ControlOp, RequestKind};
use super::scheduler::{Reply, Scheduler};
use crate::error::BenchError;

/// Longest request line the daemon will buffer. Anything longer is rejected
/// with a typed `invalid` response and the connection is dropped.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// Daemon configuration (assembled by the `wrsnd serve` CLI).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (`None` for stdin mode).
    pub listen: Option<String>,
    /// Artifact store directory.
    pub store_dir: std::path::PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Default per-request deadline.
    pub default_deadline: Duration,
    /// Exit after this many work requests (`None` = run until shutdown).
    /// A load-test guard rail so an orphaned daemon cannot outlive its
    /// driver forever.
    pub max_requests: Option<u64>,
    /// Admission bound: submissions against a queue this deep are shed with
    /// a typed `overloaded` response.
    pub queue_cap: usize,
    /// Result-cache size bound (`None` = unbounded, the pre-hardening
    /// behaviour).
    pub cache_cap_bytes: Option<u64>,
    /// Reap connections silent for this long with nothing in flight
    /// (`None` = never; reads and writes then block indefinitely).
    pub idle_timeout: Option<Duration>,
}

impl ServeConfig {
    /// The default admission bound for a pool of `workers` threads: enough
    /// queue to keep every worker fed through scheduling jitter, small
    /// enough that queueing delay stays bounded.
    pub fn default_queue_cap(workers: usize) -> usize {
        workers.max(1) * 4
    }
}

/// Shared per-daemon state driving shutdown.
struct Control {
    stop: AtomicBool,
    /// Work requests accepted so far (for `max_requests`).
    accepted: AtomicU64,
    /// Read-half handles of live connections keyed by connection id,
    /// half-closed on shutdown. Each connection removes (and fully closes)
    /// its own entry on exit — a lingering clone here would hold the socket
    /// open after the protocol decided to close it.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// The TCP listener's address (unset in stdin mode). The accept loop
    /// blocks in `accept`; stopping wakes it with a connection to here.
    listener: OnceLock<SocketAddr>,
}

impl Control {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        {
            let conns = self.conns.lock().expect("conns lock");
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        if let Some(&addr) = self.listener.get() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Drops the registry clone for `conn_id` and tears the socket down, so
    /// the client observes EOF as soon as its connection thread finishes.
    fn release_conn(&self, conn_id: u64) {
        let removed = self.conns.lock().expect("conns lock").remove(&conn_id);
        if let Some(stream) = removed {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Runs the daemon until shutdown. In TCP mode prints
/// `wrsnd listening on <addr>` to stdout once the socket is bound (the
/// line load generators and tests wait for).
///
/// # Errors
///
/// [`BenchError::Io`] if the store directory or listen socket cannot be
/// set up. Per-connection I/O errors only end that connection.
pub fn serve(config: &ServeConfig) -> Result<(), BenchError> {
    let cache = match config.cache_cap_bytes {
        Some(cap) => ResultCache::open_bounded(&config.store_dir, cap),
        None => ResultCache::open(&config.store_dir),
    }
    .map_err(|e| BenchError::io("open artifact store", &config.store_dir, &e))?;
    let scheduler = Arc::new(Scheduler::new(
        cache,
        config.workers,
        config.default_deadline,
        config.queue_cap,
    ));
    let control = Arc::new(Control {
        stop: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
        listener: OnceLock::new(),
    });
    match &config.listen {
        Some(addr) => serve_tcp(addr, config, &scheduler, &control)?,
        None => serve_stdio(config, &scheduler, &control),
    }
    match Arc::try_unwrap(scheduler) {
        Ok(scheduler) => scheduler.shutdown(),
        Err(_) => unreachable!("all connection threads were joined"),
    }
    Ok(())
}

fn serve_tcp(
    addr: &str,
    config: &ServeConfig,
    scheduler: &Arc<Scheduler>,
    control: &Arc<Control>,
) -> Result<(), BenchError> {
    let path = std::path::Path::new(addr);
    let listener =
        TcpListener::bind(addr).map_err(|e| BenchError::io("bind listen socket", path, &e))?;
    let local: SocketAddr = listener
        .local_addr()
        .map_err(|e| BenchError::io("resolve listen socket", path, &e))?;
    let mut wake = local;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = control.listener.set(wake);
    println!("wrsnd listening on {local}");
    std::io::stdout().flush().ok();

    let mut conn_threads = Vec::new();
    let mut next_conn = 0u64;
    while !control.stop.load(Ordering::Acquire) {
        match listener.accept() {
            // The stop request's wake-up connection, or a client arriving
            // as the daemon stops: either way, not served.
            Ok(_) if control.stop.load(Ordering::Acquire) => break,
            Ok((stream, _peer)) => {
                // Replies are whole lines written at once; Nagle would hold
                // a reply's last segment until the client ACKs the previous.
                let _ = stream.set_nodelay(true);
                let conn_id = next_conn;
                next_conn += 1;
                if let Ok(read_half) = stream.try_clone() {
                    control
                        .conns
                        .lock()
                        .expect("conns lock")
                        .insert(conn_id, read_half);
                }
                let scheduler = Arc::clone(scheduler);
                let control = Arc::clone(control);
                let config = config.clone();
                conn_threads.push(
                    thread::Builder::new()
                        .name(format!("wrsnd-conn-{conn_id}"))
                        .spawn(move || {
                            serve_connection(stream, conn_id, &config, &scheduler, &control)
                        })
                        .expect("spawn connection thread"),
                );
            }
            Err(e) => {
                eprintln!("wrsnd: accept failed: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    for handle in conn_threads {
        let _ = handle.join();
    }
    Ok(())
}

/// One TCP connection: reader parses and submits on this thread, a writer
/// thread drains the reply channel. Returns when the client closes (or
/// shutdown half-closes, or the idle sweep reaps) the read side and all
/// pending replies have gone out.
fn serve_connection(
    stream: TcpStream,
    conn_id: u64,
    config: &ServeConfig,
    scheduler: &Arc<Scheduler>,
    control: &Arc<Control>,
) {
    if let Some(idle) = config.idle_timeout {
        let _ = stream.set_read_timeout(Some(idle));
        let _ = stream.set_write_timeout(Some(idle));
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wrsnd: cannot clone connection: {e}");
            return;
        }
    };
    let inflight = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer = {
        let inflight = Arc::clone(&inflight);
        thread::Builder::new()
            .name("wrsnd-conn-writer".to_string())
            .spawn(move || {
                let mut out = write_half;
                let mut line = Vec::new();
                // Ends when every sender (reader + in-flight jobs) is
                // dropped, or a write stalls past the socket timeout.
                while let Ok(reply) = rx.recv() {
                    // One write per reply, newline included.
                    line.clear();
                    line.extend_from_slice(reply.line.as_bytes());
                    line.push(b'\n');
                    let sent = out.write_all(&line).is_ok();
                    if reply.fin {
                        inflight.fetch_sub(1, Ordering::AcqRel);
                    }
                    if !sent {
                        break;
                    }
                }
            })
            .expect("spawn connection writer")
    };
    let reader = BufReader::new(stream);
    read_loop(reader, &tx, &inflight, config, scheduler, control);
    drop(tx);
    let _ = writer.join();
    control.release_conn(conn_id);
}

/// What one capped, timeout-aware line read produced.
enum LineRead {
    /// A complete line (without its `\n`), within the cap.
    Line(String),
    /// Clean end of stream (or the accumulated final unterminated line).
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] before a newline arrived.
    Oversized,
    /// The socket has been silent past its timeout; `mid_line` says whether
    /// a partial request was left hanging.
    Idle { mid_line: bool },
    /// Any other read error.
    Failed,
}

/// Reads the next newline-terminated line into `buf`, enforcing the length
/// cap. `buf` carries partial data across idle timeouts so a slow-but-live
/// client is never corrupted by the retry.
fn read_capped_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> LineRead {
    loop {
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
        if budget == 0 {
            return LineRead::Oversized;
        }
        match reader.by_ref().take(budget).read_until(b'\n', buf) {
            Ok(0) => {
                return if buf.is_empty() {
                    LineRead::Eof
                } else if buf.len() > MAX_LINE_BYTES {
                    LineRead::Oversized
                } else {
                    // Final line without a trailing newline: serve it.
                    let line = String::from_utf8_lossy(buf).into_owned();
                    buf.clear();
                    LineRead::Line(line)
                };
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.len() > MAX_LINE_BYTES {
                        return LineRead::Oversized;
                    }
                    let line = String::from_utf8_lossy(buf).into_owned();
                    buf.clear();
                    return LineRead::Line(line);
                }
                if buf.len() > MAX_LINE_BYTES {
                    return LineRead::Oversized;
                }
                // take() ran out before a newline: loop and keep reading.
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineRead::Idle {
                    mid_line: !buf.is_empty(),
                };
            }
            Err(_) => return LineRead::Failed,
        }
    }
}

/// The protocol loop shared by TCP connections and stdin mode.
fn read_loop<R: BufRead>(
    mut reader: R,
    reply: &mpsc::Sender<Reply>,
    inflight: &AtomicU64,
    config: &ServeConfig,
    scheduler: &Arc<Scheduler>,
    control: &Arc<Control>,
) {
    let mut seq = 0u64;
    let mut buf = Vec::new();
    loop {
        let line = match read_capped_line(&mut reader, &mut buf) {
            LineRead::Line(line) => line,
            LineRead::Eof | LineRead::Failed => break,
            LineRead::Oversized => {
                scheduler.counters().note_oversized();
                inflight.fetch_add(1, Ordering::AcqRel);
                let _ = reply.send(Reply::fin(request::invalid_line(
                    &format!("r{seq}"),
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )));
                break;
            }
            LineRead::Idle { mid_line } => {
                // A client waiting on a slow computation is quiet but not
                // idle; a client with nothing in flight (or one stalled
                // mid-line) gets reaped.
                if !mid_line && inflight.load(Ordering::Acquire) > 0 {
                    continue;
                }
                scheduler.counters().note_conn_reaped();
                if mid_line {
                    inflight.fetch_add(1, Ordering::AcqRel);
                    let _ = reply.send(Reply::fin(request::invalid_line(
                        &format!("r{seq}"),
                        "request line stalled past the idle timeout",
                    )));
                }
                break;
            }
        };
        if control.stop.load(Ordering::Acquire) {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match request::parse_line(trimmed, seq) {
            Ok(request) => request,
            Err(rejected) => {
                inflight.fetch_add(1, Ordering::AcqRel);
                let _ = reply.send(Reply::fin(request::error_line(
                    &rejected.id,
                    &rejected.detail,
                )));
                seq += 1;
                continue;
            }
        };
        seq += 1;
        // Every accepted request resolves with exactly one fin line; count
        // it before anything can answer, so the writer's decrement can
        // never race ahead of the increment.
        inflight.fetch_add(1, Ordering::AcqRel);
        match request.kind {
            RequestKind::Control(ControlOp::Ping) => {
                let pong = Value::Map(vec![("op".to_string(), Value::Str("ping".to_string()))]);
                let _ = reply.send(Reply::fin(request::control_line(&request.id, &pong)));
            }
            RequestKind::Control(ControlOp::Stats) => {
                let _ = reply.send(Reply::fin(request::control_line(
                    &request.id,
                    &scheduler.stats_value(),
                )));
            }
            RequestKind::Control(ControlOp::Shutdown) => {
                let bye = Value::Map(vec![("op".to_string(), Value::Str("shutdown".to_string()))]);
                let _ = reply.send(Reply::fin(request::control_line(&request.id, &bye)));
                control.request_stop();
                break;
            }
            RequestKind::Work(payload) => {
                let accepted = control.accepted.fetch_add(1, Ordering::Relaxed) + 1;
                scheduler.submit(
                    request.id,
                    payload,
                    request.deadline,
                    request.stream,
                    request.detector,
                    reply.clone(),
                );
                if let Some(max) = config.max_requests {
                    if accepted >= max {
                        eprintln!("wrsnd: reached max-requests={max}, shutting down");
                        control.request_stop();
                        break;
                    }
                }
            }
        }
    }
}

fn serve_stdio(config: &ServeConfig, scheduler: &Arc<Scheduler>, control: &Arc<Control>) {
    // The banner goes out before the writer thread exists: that thread holds
    // the stdout lock for its whole life, so a later `println!` here could
    // block forever behind it.
    println!("wrsnd listening on stdin");
    std::io::stdout().flush().ok();
    let inflight = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer = {
        let inflight = Arc::clone(&inflight);
        thread::Builder::new()
            .name("wrsnd-stdout".to_string())
            .spawn(move || {
                let stdout = std::io::stdout();
                let mut out = stdout.lock();
                while let Ok(reply) = rx.recv() {
                    let sent = writeln!(out, "{}", reply.line).is_ok() && out.flush().is_ok();
                    if reply.fin {
                        inflight.fetch_sub(1, Ordering::AcqRel);
                    }
                    if !sent {
                        break;
                    }
                }
            })
            .expect("spawn stdout writer")
    };
    let stdin = std::io::stdin();
    read_loop(stdin.lock(), &tx, &inflight, config, scheduler, control);
    drop(tx);
    let _ = writer.join();
}
