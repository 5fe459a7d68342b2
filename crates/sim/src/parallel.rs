//! Dependency-free data parallelism for simulation campaigns.
//!
//! Heavy experiments repeat independent deterministic trials (one RNG seed
//! per trial, or one scenario per condition), so they parallelize trivially:
//! [`map_indexed`] fans the trial indices out over scoped threads and
//! returns results **in index order**, which keeps every downstream table
//! byte-identical to a sequential run. [`map_indexed_observed`] does the same
//! for trials that report to a [`Recorder`].
//!
//! [`try_map_indexed_watched`] is the panic-safe variant the `exp` runner
//! uses, and the one body [`map_indexed`] runs on. Each attempt at an index
//! is one [`cancel::supervise`]d call, with the deadline (if any) as its
//! budget: a panic is retried with backoff, and a terminal failure comes
//! back as a typed [`WorkerError`] in that index's slot instead of tearing
//! down the whole campaign. A hung experiment unwinds at the engine's next
//! segment poll once the watchdog cancels its token, and is reported as a
//! [`FailureKind::Timeout`], never retried (that would only burn the
//! deadline again).
//!
//! Workers inherit the spawning thread's current cancellation token, so
//! nested fan-outs (an experiment calling [`map_indexed`] for its inner
//! trials) stay cancellable under their ancestor's deadline.
//!
//! The worker count comes from the `WRSN_THREADS` environment variable when
//! set (the `exp` runner's `--threads` flag sets it), otherwise from
//! [`std::thread::available_parallelism`]. `WRSN_THREADS=1` is the
//! determinism escape hatch: it degenerates to a plain sequential loop on
//! the calling thread — though order-preserving collection means the output
//! is the same either way.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::cancel::{self, ScopedCancel, Supervised};
use crate::obs::{NullRecorder, Recorder, StatsRecorder};

/// Environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "WRSN_THREADS";

/// Environment variable carrying a default per-work-item wall-clock deadline,
/// seconds (the `exp` runner's `--timeout-s` flag overrides it). Read by the
/// harness binaries, not by this module.
pub const TIMEOUT_ENV: &str = "WRSN_TIMEOUT_S";

/// The engine's spatial shard count, which is always 1: the segment kernel
/// runs one sequential pass over every node. Kept so run metadata writers
/// that record it keep building.
pub fn shards() -> usize {
    1
}

/// The worker thread count: `WRSN_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Why a work item terminally failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The item panicked on every allowed attempt.
    Panic,
    /// The watchdog cancelled the item at its wall-clock deadline.
    Timeout,
}

/// A work item that failed terminally: it kept panicking after every allowed
/// attempt, or the watchdog cancelled it at its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerError {
    /// The failed index in `0..count`.
    pub index: usize,
    /// Attempts made (1 initial + retries).
    pub attempts: usize,
    /// What killed it.
    pub kind: FailureKind,
    /// For [`FailureKind::Panic`]: the panic payload, stringified
    /// (`&str`/`String` payloads verbatim, anything else as a placeholder).
    /// For [`FailureKind::Timeout`]: the exceeded deadline.
    pub message: String,
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FailureKind::Panic => write!(
                f,
                "work item {} panicked after {} attempt{}: {}",
                self.index,
                self.attempts,
                if self.attempts == 1 { "" } else { "s" },
                self.message
            ),
            FailureKind::Timeout => {
                write!(f, "work item {} timed out: {}", self.index, self.message)
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// Runs `f(index)` with up to `retries` re-attempts after a panic, sleeping
/// `10ms << attempt` between attempts (transient-failure backoff). Each
/// attempt is one [`cancel::supervise`]d call with `deadline` as its budget;
/// a timed-out attempt is a terminal [`FailureKind::Timeout`] (no retry).
fn attempt_with_retries<T, F>(
    index: usize,
    retries: usize,
    deadline: Option<Duration>,
    f: &F,
) -> Result<T, WorkerError>
where
    F: Fn(usize) -> T + Sync,
{
    let mut last = String::new();
    for attempt in 0..=retries {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(10u64 << (attempt - 1).min(6)));
        }
        match cancel::supervise(deadline, || f(index)) {
            Supervised::Value(value) => return Ok(value),
            Supervised::Timeout => {
                return Err(WorkerError {
                    index,
                    attempts: attempt + 1,
                    kind: FailureKind::Timeout,
                    message: "cancelled at its wall-clock deadline".to_string(),
                });
            }
            Supervised::Panic(message) => last = message,
        }
    }
    Err(WorkerError {
        index,
        attempts: retries + 1,
        kind: FailureKind::Panic,
        message: last,
    })
}

/// Maps `f` over `0..count` on up to [`threads`] scoped worker threads and
/// returns the results in index order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven per-index
/// cost does not idle workers. With one worker (or one item) this is a plain
/// sequential loop. A panic in `f` is propagated to the caller; campaigns
/// that must survive a poisoned work item use [`try_map_indexed_watched`]
/// instead.
pub fn map_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_map_indexed_watched(count, 0, None, f)
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// [`map_indexed`] for work that reports to a recorder: `f(index, rec)`.
///
/// When `rec` is enabled each index records into a private
/// [`StatsRecorder`], and these merge into `rec` in index order, so the
/// merged stream is independent of the worker count. When it is not, every
/// index gets a [`NullRecorder`] and no recorder is allocated.
pub fn map_indexed_observed<T, F>(count: usize, rec: &mut dyn Recorder, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut dyn Recorder) -> T + Sync,
{
    if !rec.enabled() {
        return map_indexed(count, |index| f(index, &mut NullRecorder));
    }
    map_indexed(count, |index| {
        let mut worker = StatsRecorder::new();
        (f(index, &mut worker), worker)
    })
    .into_iter()
    .map(|(value, worker)| {
        worker.merge_into(rec);
        value
    })
    .collect()
}

/// Panic-safe [`map_indexed`]: catches worker panics, retries each failed
/// index up to `retries` more times with exponential backoff, and returns one
/// `Result` per index — in index order — so one poisoned work item cannot
/// take down the rest of the campaign.
///
/// The harness itself stays deterministic: results (and errors) land in index
/// order regardless of worker count or retry timing.
///
/// With `deadline` set, an attempt that outlives it has its cancellation
/// token fired and comes back as a typed [`FailureKind::Timeout`] failure;
/// the remaining items run to completion. Cancellation is cooperative (see
/// [`crate::cancel`]): code that never polls cannot be interrupted.
pub fn try_map_indexed_watched<T, F>(
    count: usize,
    retries: usize,
    deadline: Option<Duration>,
    f: F,
) -> Vec<Result<T, WorkerError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads().min(count);
    if workers <= 1 {
        return (0..count)
            .map(|index| attempt_with_retries(index, retries, deadline, &f))
            .collect();
    }
    let inherited = cancel::current();
    let cursor = AtomicUsize::new(0);
    let (inherited, cursor, f) = (&inherited, &cursor, &f);
    let mut indexed: Vec<(usize, Result<T, WorkerError>)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let _inherited = inherited.clone().map(ScopedCancel::install);
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        local.push((index, attempt_with_retries(index, retries, deadline, f)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                // Workers catch panics in `f`; a join failure means the
                // harness itself is broken, which is not survivable.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;

    #[test]
    fn results_come_back_in_index_order() {
        let out = map_indexed(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn uneven_workloads_preserve_order() {
        let out = map_indexed(20, |i| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_survives_a_panicking_index() {
        let out = try_map_indexed_watched(8, 0, None, |i| {
            if i == 3 {
                panic!("index three is poisoned");
            }
            i * 10
        });
        assert_eq!(out.len(), 8);
        for (i, result) in out.iter().enumerate() {
            if i == 3 {
                let e = result.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert_eq!(e.attempts, 1);
                assert_eq!(e.kind, FailureKind::Panic);
                assert!(e.message.contains("poisoned"), "message: {}", e.message);
            } else {
                assert_eq!(*result.as_ref().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn try_map_retries_transient_panics() {
        use std::sync::atomic::AtomicUsize;
        let attempts = AtomicUsize::new(0);
        let out = try_map_indexed_watched(1, 2, None, |_| {
            // Fails twice, then succeeds: a transient fault survives retries.
            if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            42
        });
        assert_eq!(out, vec![Ok(42)]);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn try_map_reports_attempt_count_on_terminal_failure() {
        let out = try_map_indexed_watched(1, 2, None, |_| -> usize { panic!("always") });
        let e = out[0].as_ref().unwrap_err();
        assert_eq!(e.attempts, 3);
        assert_eq!(e.kind, FailureKind::Panic);
        assert_eq!(e.message, "always");
        assert!(e.to_string().contains("3 attempts"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_indexed_still_propagates_panics() {
        map_indexed(4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn watchdog_cancels_a_cooperative_hang_and_spares_the_rest() {
        let out = try_map_indexed_watched(4, 3, Some(Duration::from_millis(80)), |i| {
            if i == 1 {
                // A cooperative hang: spins until its token fires, exactly
                // like a world polling between segments.
                while !cancel::cancelled() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                panic!("unwound after cancellation");
            }
            i * 10
        });
        let e = out[1].as_ref().unwrap_err();
        assert_eq!(e.kind, FailureKind::Timeout);
        assert_eq!(e.attempts, 1, "timeouts are terminal, never retried");
        assert!(e.to_string().contains("timed out"), "display: {e}");
        for (i, result) in out.iter().enumerate() {
            if i != 1 {
                assert_eq!(*result.as_ref().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn watchdog_leaves_fast_items_untouched() {
        let out = try_map_indexed_watched(6, 0, Some(Duration::from_secs(30)), |i| i + 1);
        for (i, result) in out.iter().enumerate() {
            assert_eq!(*result.as_ref().unwrap(), i + 1);
        }
    }

    #[test]
    fn workers_inherit_the_spawning_threads_cancel_token() {
        let token = CancelToken::new();
        token.cancel();
        let _guard = ScopedCancel::install(token);
        // Every worker (including nested spawns) must observe the ancestor's
        // cancelled token.
        let seen = try_map_indexed_watched(4, 0, None, |_| cancel::cancelled());
        assert!(seen.into_iter().all(|r| r.unwrap()));
    }

    #[test]
    fn panicking_worker_leaves_no_stale_token_on_its_thread() {
        // `count == 1` degenerates to the sequential path, so the work item
        // runs on *this* thread — the same thread the next request would
        // reuse in a pooled scheduler. The item installs its own (cancelled)
        // scope and panics; after the harness catches the unwind, this
        // thread's token state must be exactly what it was before.
        assert!(cancel::current().is_none());
        let out = try_map_indexed_watched(1, 0, None, |_| -> usize {
            let poisoned = CancelToken::new();
            poisoned.cancel();
            let _guard = ScopedCancel::install(poisoned);
            panic!("worker died holding a cancel scope");
        });
        assert_eq!(out[0].as_ref().unwrap_err().kind, FailureKind::Panic);
        assert!(
            cancel::current().is_none(),
            "a caught worker panic must not leave its cancel token installed"
        );
        // The "reused thread" then serves an unrelated item: it must not see
        // a stale cancellation.
        let seen = try_map_indexed_watched(1, 0, None, |_| cancel::cancelled());
        assert_eq!(seen[0].as_ref().unwrap(), &false);
    }

    #[test]
    fn a_panic_without_cancellation_is_still_a_panic_under_supervision() {
        let out = try_map_indexed_watched(1, 0, Some(Duration::from_secs(30)), |_| -> usize {
            panic!("genuine bug")
        });
        let e = out[0].as_ref().unwrap_err();
        assert_eq!(e.kind, FailureKind::Panic);
        assert!(e.message.contains("genuine bug"));
    }
}
