//! A deterministic network-chaos proxy for hardening tests (`wrsnd chaos`).
//!
//! Sits between a load generator and a `wrsnd` daemon and injects the
//! failures a hostile network produces, per connection, from a seeded plan:
//!
//! - **clean** pass-through (the control group);
//! - **drop**: after forwarding a byte budget of responses, both sides of
//!   the relay are torn down — from the client's view the daemon died
//!   mid-response (usually mid-*line*, which is what makes it interesting);
//!   from the daemon's view the client disconnected (cancelling any
//!   streamed computation);
//! - **stall**: after the budget, the relay goes silent for a while before
//!   dropping — the shape that distinguishes "slow" from "gone" and
//!   exercises client-side stall detection.
//!
//! The plan for connection `k` under seed `s` is a pure function of `(s, k)`
//! (`plan_for_conn`), so a chaos run is reproducible: same seed, same
//! faults in the same order. Requests (client→daemon) are forwarded
//! untouched — chaos corrupts *delivery*, never *content*, so any wrong
//! bytes surfacing downstream are the daemon's fault, which is the point of
//! the harness.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::BenchError;

/// Chaos-proxy configuration (assembled by the `wrsnd chaos` CLI).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// The real daemon to relay to.
    pub upstream: String,
    /// Fault-plan seed.
    pub seed: u64,
}

/// What one proxied connection has in store for its client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Forward everything faithfully.
    Clean,
    /// Forward `bytes` of responses, then tear the relay down. Budgets are
    /// deliberately not line-aligned, so drops usually truncate mid-line.
    DropAfter {
        /// Downstream byte budget before the teardown.
        bytes: usize,
    },
    /// Forward `bytes` of responses, go silent for `stall_ms`, then tear
    /// down.
    StallThenDrop {
        /// Downstream byte budget before the stall.
        bytes: usize,
        /// Silence before the teardown, milliseconds.
        stall_ms: u64,
    },
}

/// The deterministic fault plan for connection `conn_id` under `seed`.
/// Roughly half the connections are clean; the rest split between hard
/// drops and stall-then-drops.
fn plan_for_conn(seed: u64, conn_id: u64) -> FaultPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let roll: f64 = rng.gen_range(0.0..1.0);
    if roll < 0.5 {
        FaultPlan::Clean
    } else if roll < 0.8 {
        FaultPlan::DropAfter {
            bytes: rng.gen_range(64usize..16_384),
        }
    } else {
        FaultPlan::StallThenDrop {
            bytes: rng.gen_range(64usize..16_384),
            stall_ms: rng.gen_range(100u64..7_000),
        }
    }
}

/// Handle for an in-process proxy (integration tests); dropping it does not
/// stop the proxy — call [`ChaosHandle::stop`].
pub struct ChaosHandle {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ChaosHandle {
    /// Signals the accept loop to exit and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// Starts a proxy on an ephemeral port, returning its address. Used by
/// integration tests; the CLI path is [`serve`].
///
/// # Errors
///
/// Propagates socket setup failures.
pub fn spawn(upstream: &str, seed: u64) -> std::io::Result<(SocketAddr, ChaosHandle)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let upstream = upstream.to_string();
    let thread = {
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("wrsnd-chaos".to_string())
            .spawn(move || accept_loop(&listener, &upstream, seed, &stop))?
    };
    Ok((
        addr,
        ChaosHandle {
            stop,
            thread: Some(thread),
        },
    ))
}

/// Runs the proxy until the process is killed (the `wrsnd chaos` CLI).
///
/// # Errors
///
/// [`BenchError::Io`] when the listen socket cannot be set up.
pub fn serve(config: &ChaosConfig) -> Result<(), BenchError> {
    let path = std::path::Path::new(&config.listen);
    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| BenchError::io("bind chaos listener", path, &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| BenchError::io("resolve chaos listener", path, &e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| BenchError::io("configure chaos listener", path, &e))?;
    println!("wrsnd chaos listening on {addr} -> {}", config.upstream);
    std::io::stdout().flush().ok();
    let stop = AtomicBool::new(false);
    accept_loop(&listener, &config.upstream, config.seed, &stop);
    Ok(())
}

fn accept_loop(listener: &TcpListener, upstream: &str, seed: u64, stop: &AtomicBool) {
    let mut conn_id = 0u64;
    let mut relays = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let id = conn_id;
                conn_id += 1;
                let upstream = upstream.to_string();
                relays.push(
                    thread::Builder::new()
                        .name(format!("wrsnd-chaos-{id}"))
                        .spawn(move || relay(client, &upstream, plan_for_conn(seed, id)))
                        .expect("spawn chaos relay"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("wrsnd chaos: accept failed: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    for handle in relays {
        let _ = handle.join();
    }
}

/// Relays one client connection through its fault plan. Requests flow
/// untouched on a side thread; responses flow through the budget/stall
/// logic here. When the plan fires (or either side ends), both sockets are
/// torn down so the other pump exits too.
fn relay(client: TcpStream, upstream_addr: &str, plan: FaultPlan) {
    let Ok(upstream) = TcpStream::connect(upstream_addr) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let (Ok(client_r), Ok(upstream_w)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let up = thread::Builder::new()
        .name("wrsnd-chaos-up".to_string())
        .spawn(move || {
            pump_clean(client_r, upstream_w);
        })
        .expect("spawn upstream pump");
    pump_faulted(upstream.try_clone().ok(), client.try_clone().ok(), plan);
    let _ = client.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = up.join();
}

/// Byte-for-byte pump (the request direction).
fn pump_clean(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Budgeted pump (the response direction): forwards until the plan's byte
/// budget is spent, then stalls (if planned) and returns, at which point
/// [`relay`] tears both sockets down.
fn pump_faulted(from: Option<TcpStream>, to: Option<TcpStream>, plan: FaultPlan) {
    let (Some(mut from), Some(mut to)) = (from, to) else {
        return;
    };
    let (mut budget, stall_ms) = match plan {
        FaultPlan::Clean => (usize::MAX, 0),
        FaultPlan::DropAfter { bytes } => (bytes, 0),
        FaultPlan::StallThenDrop { bytes, stall_ms } => (bytes, stall_ms),
    };
    let mut buf = [0u8; 4096];
    loop {
        if budget == 0 {
            if stall_ms > 0 {
                thread::sleep(Duration::from_millis(stall_ms));
            }
            break;
        }
        let want = budget.min(buf.len());
        match from.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_deterministic_in_seed_and_conn() {
        for conn in 0..64 {
            assert_eq!(plan_for_conn(7, conn), plan_for_conn(7, conn));
        }
        assert!(
            (0..64).any(|c| plan_for_conn(7, c) != plan_for_conn(8, c)),
            "different seeds must produce different plans"
        );
    }

    #[test]
    fn fault_plans_cover_every_variant() {
        let plans: Vec<FaultPlan> = (0..200).map(|c| plan_for_conn(42, c)).collect();
        assert!(plans.iter().any(|p| matches!(p, FaultPlan::Clean)));
        assert!(plans
            .iter()
            .any(|p| matches!(p, FaultPlan::DropAfter { .. })));
        assert!(plans
            .iter()
            .any(|p| matches!(p, FaultPlan::StallThenDrop { .. })));
        for plan in &plans {
            match plan {
                FaultPlan::Clean => {}
                FaultPlan::DropAfter { bytes } => assert!((64..16_384).contains(bytes)),
                FaultPlan::StallThenDrop { bytes, stall_ms } => {
                    assert!((64..16_384).contains(bytes));
                    assert!((100..7_000).contains(stall_ms));
                }
            }
        }
    }

    #[test]
    fn a_clean_plan_relays_bytes_faithfully_end_to_end() {
        use std::io::{BufRead, BufReader};
        // A tiny upstream echo server: reads lines, echoes them back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (stream, _) = upstream.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                writer.write_all(line.as_bytes()).unwrap();
                writer.flush().unwrap();
                line.clear();
            }
        });
        // Seed 42's connection 0 happens to be Clean; pin that so the test
        // exercises the faithful path (the assertion below guards the pin).
        assert_eq!(plan_for_conn(42, 0), FaultPlan::Clean);
        let (proxy_addr, proxy) = spawn(&upstream_addr.to_string(), 42).unwrap();
        let mut client = TcpStream::connect(proxy_addr).unwrap();
        client.write_all(b"hello through the proxy\n").unwrap();
        client.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(client.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        assert_eq!(reply, "hello through the proxy\n");
        drop(client);
        proxy.stop();
        let _ = echo.join();
    }
}
