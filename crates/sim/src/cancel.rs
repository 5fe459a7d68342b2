//! Cooperative cancellation and the one supervisor for work items.
//!
//! A [`CancelToken`] is a shared atomic flag. [`crate::World::advance_by`]
//! and the run loop poll the thread's *current* token between integration
//! segments and return [`crate::SimError::Cancelled`], so a hung run unwinds
//! at the next segment boundary instead of blocking its caller forever.
//!
//! [`supervise`] runs one work item for both harnesses (the `exp` runner
//! through [`crate::parallel`], the daemon's workers directly): under a fresh
//! token with a wall-clock budget, the unwind caught, the end classified as
//! a value, a timeout (a panic after the token fired counts as one) or a
//! panic. Budgets are served by one process-wide **watchdog** thread,
//! started on first use, that sleeps on a condvar until the earliest
//! registered deadline: no polling period, so an idle process has no thread
//! waking for it. A deadline beyond [`Instant`]'s range never fires, and
//! [`budget_from_secs`] turns outside seconds into a budget without the
//! panic of [`Duration::from_secs_f64`].
//!
//! The current token is thread-local, installed with a [`ScopedCancel`] RAII
//! guard. [`crate::parallel`] propagates the spawning thread's token into its
//! workers, so nested fan-outs (an experiment that itself calls
//! [`crate::parallel::map_indexed`] for its inner trials) inherit their
//! ancestor's deadline.
//!
//! Installed tokens live on a per-thread *stack keyed by a unique guard id*,
//! not a saved-previous-value swap. The distinction matters on pooled threads
//! that outlive a request: with a plain swap, guards dropped out of LIFO
//! order (a panic payload carrying a guard across a
//! [`std::panic::catch_unwind`] boundary, a guard stored in a struct that
//! outlives its scope) would restore a *stale* token over a newer one, and a
//! long-lived worker thread would then cancel an unrelated later request.
//! With the id-keyed stack a guard can only ever remove its own entry, so
//! restoration is exact no matter how the unwind interleaves drops — pinned
//! by the out-of-order and panic tests below and by the daemon-level
//! worker-reuse tests in `wrsn-bench`.
//!
//! Cancellation is *cooperative*: code that never reaches a poll point (a
//! tight loop outside the simulation engine, blocking I/O) cannot be
//! interrupted. The simulation hot loop polls once per piecewise-linear
//! segment, which bounds the reaction latency to one segment of work.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning yields another handle to the *same*
/// flag; once cancelled, a token stays cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; visible to every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

thread_local! {
    /// The thread's stack of installed tokens, innermost last. Entries carry
    /// the unique id of the [`ScopedCancel`] guard that pushed them, so a
    /// drop removes exactly its own entry even when drops run out of order.
    static STACK: RefCell<Vec<(u64, CancelToken)>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide id source for guards and watchdog entries (never reused, so
/// an id identifies one install across every thread).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The token currently installed on this thread (the innermost live
/// [`ScopedCancel`]), if any.
pub fn current() -> Option<CancelToken> {
    STACK.with(|stack| stack.borrow().last().map(|(_, token)| token.clone()))
}

/// Whether this thread's current token (if any) has been cancelled. With no
/// token installed this is always `false`.
pub fn cancelled() -> bool {
    STACK.with(|stack| {
        stack
            .borrow()
            .last()
            .is_some_and(|(_, token)| token.is_cancelled())
    })
}

/// RAII guard that installs a token as this thread's current one and removes
/// it again on drop, so supervision scopes nest.
///
/// Removal is keyed by the guard's unique id: dropping a guard removes *its*
/// entry from the thread's token stack, wherever that entry sits. Guards
/// dropped in LIFO order behave like a classic save/restore; guards dropped
/// out of order (e.g. one smuggled through a panic payload across a
/// `catch_unwind` boundary) still cannot clobber a newer scope's token or
/// resurrect a stale one.
#[derive(Debug)]
pub struct ScopedCancel {
    id: u64,
}

impl ScopedCancel {
    /// Installs `token` as the thread's current token until the guard drops.
    pub fn install(token: CancelToken) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        STACK.with(|stack| stack.borrow_mut().push((id, token)));
        ScopedCancel { id }
    }
}

impl Drop for ScopedCancel {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(id, _)| *id == self.id) {
                stack.remove(pos);
            }
        });
    }
}

/// A wall-clock budget of `secs` seconds, for a value from outside the
/// program: `None` unless it is positive, finite and small enough for a
/// [`Duration`] (below about 1.8e19 s).
pub fn budget_from_secs(secs: f64) -> Option<Duration> {
    if secs > 0.0 {
        Duration::try_from_secs_f64(secs).ok()
    } else {
        None
    }
}

/// The registry the watchdog thread serves, keyed by deadline and then by a
/// unique id so equal deadlines stay distinct entries.
static WATCHDOG: Mutex<BTreeMap<(Instant, u64), CancelToken>> = Mutex::new(BTreeMap::new());
/// Signalled when an entry becomes the earliest deadline.
static REARM: Condvar = Condvar::new();
/// Spawns the watchdog thread on the first registration.
static START: Once = Once::new();

/// Cancels each registered token at its deadline. Runs forever on its own
/// thread, asleep until the earliest deadline (or indefinitely when nothing
/// is registered).
fn watchdog_thread() {
    let mut entries = WATCHDOG.lock().expect("watchdog lock");
    loop {
        let now = Instant::now();
        while let Some(entry) = entries.first_entry() {
            if entry.key().0 > now {
                break;
            }
            entry.remove().cancel();
        }
        entries = match entries.keys().next() {
            Some(&(due, _)) => {
                REARM
                    .wait_timeout(entries, due - now)
                    .expect("watchdog lock")
                    .0
            }
            None => REARM.wait(entries).expect("watchdog lock"),
        };
    }
}

/// A deadline registered with the watchdog; dropping it deregisters.
struct Watch((Instant, u64));

/// Registers `token` to be cancelled once `budget` has elapsed from now;
/// `None` (never fires) for a deadline past the end of [`Instant`]'s range.
fn watch(budget: Duration, token: &CancelToken) -> Option<Watch> {
    let due = Instant::now().checked_add(budget)?;
    START.call_once(|| {
        std::thread::Builder::new()
            .name("wrsn-watchdog".to_string())
            .spawn(watchdog_thread)
            .expect("spawn the watchdog thread");
    });
    let key = (due, NEXT_ID.fetch_add(1, Ordering::Relaxed));
    let mut entries = WATCHDOG.lock().expect("watchdog lock");
    let earliest = entries.keys().next().is_none_or(|first| key < *first);
    entries.insert(key, token.clone());
    drop(entries);
    if earliest {
        REARM.notify_one();
    }
    Some(Watch(key))
}

impl Drop for Watch {
    fn drop(&mut self) {
        WATCHDOG.lock().expect("watchdog lock").remove(&self.0);
    }
}

/// How a [`supervise`]d call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Supervised<T> {
    /// The call returned, even if its deadline passed as it did.
    Value(T),
    /// The call unwound after the watchdog cancelled its token.
    Timeout,
    /// The call panicked; the payload as text (`&str`/`String` payloads
    /// verbatim, anything else as a placeholder).
    Panic(String),
}

/// Runs `f` as one supervised work item. With a `budget`, `f` runs under a
/// fresh token installed as the thread's current one and registered with the
/// watchdog for that long; without one it runs under whatever token is
/// already current. The unwind of a panic is caught, so the calling thread
/// survives to take the next item.
pub fn supervise<T>(budget: Option<Duration>, f: impl FnOnce() -> T) -> Supervised<T> {
    let token = budget.map(|_| CancelToken::new());
    let scope = budget
        .zip(token.clone())
        .map(|(budget, token)| (watch(budget, &token), ScopedCancel::install(token)));
    let result = catch_unwind(AssertUnwindSafe(f));
    drop(scope);
    match result {
        Ok(value) => Supervised::Value(value),
        Err(_) if token.is_some_and(|token| token.is_cancelled()) => Supervised::Timeout,
        Err(payload) => Supervised::Panic(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_share_their_flag_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn no_token_means_never_cancelled() {
        assert!(current().is_none());
        assert!(!cancelled());
    }

    #[test]
    fn scoped_install_nests_and_restores() {
        let outer = CancelToken::new();
        let guard = ScopedCancel::install(outer.clone());
        assert!(!cancelled());
        {
            let inner = CancelToken::new();
            inner.cancel();
            let _inner_guard = ScopedCancel::install(inner);
            assert!(cancelled(), "inner token is current and cancelled");
        }
        assert!(!cancelled(), "outer token restored on drop");
        outer.cancel();
        assert!(cancelled());
        drop(guard);
        assert!(current().is_none());
    }

    #[test]
    fn out_of_order_drop_cannot_clobber_a_newer_token() {
        // Guard A (cancelled token), then guard B (live token). Dropping A
        // *first* — out of LIFO order — must leave B's token current; the
        // old swap-based restore would have reinstated A's saved `None` and
        // then B's drop would have resurrected A's cancelled token.
        let stale = CancelToken::new();
        stale.cancel();
        let guard_a = ScopedCancel::install(stale);
        let live = CancelToken::new();
        let guard_b = ScopedCancel::install(live.clone());
        drop(guard_a);
        assert!(
            !cancelled(),
            "dropping an outer guard out of order must not disturb the inner token"
        );
        drop(guard_b);
        assert!(current().is_none(), "stack is empty after both drops");
    }

    #[test]
    fn panic_across_catch_unwind_leaves_no_stale_token() {
        // A worker that installs its own scope and panics: the unwind caught
        // by `catch_unwind` must drop the guard and leave this thread's
        // token state exactly as before — the pooled-thread reuse hazard.
        let outer = CancelToken::new();
        let _outer_guard = ScopedCancel::install(outer.clone());
        let result = std::panic::catch_unwind(|| {
            let poisoned = CancelToken::new();
            poisoned.cancel();
            let _guard = ScopedCancel::install(poisoned);
            panic!("worker died mid-request");
        });
        assert!(result.is_err());
        assert!(
            !cancelled(),
            "the panicked scope's cancelled token must not survive the unwind"
        );
        assert!(
            current().is_some(),
            "the enclosing scope's token is still installed"
        );
    }

    /// Waits up to `limit` for `token` to fire; the time it took, if it did.
    fn fired_within(token: &CancelToken, limit: Duration) -> Option<Duration> {
        let start = Instant::now();
        while start.elapsed() < limit {
            if token.is_cancelled() {
                return Some(start.elapsed());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn an_earlier_deadline_fires_first() {
        // The watchdog sleeps until its earliest deadline: a 50-ms entry
        // registered after a 5-s one must re-arm it, not wait behind it.
        let slow = CancelToken::new();
        let fast = CancelToken::new();
        let _slow_watch = watch(Duration::from_secs(5), &slow);
        let _fast_watch = watch(Duration::from_millis(50), &fast);
        let took = fired_within(&fast, Duration::from_secs(2))
            .expect("the 50-ms token fires well before the 5-s one");
        assert!(took >= Duration::from_millis(40), "fired early: {took:?}");
        assert!(!slow.is_cancelled(), "the 5-s token is still pending");
    }

    #[test]
    fn a_dropped_watch_never_fires() {
        let token = CancelToken::new();
        drop(watch(Duration::from_millis(20), &token));
        assert_eq!(fired_within(&token, Duration::from_millis(150)), None);
    }

    #[test]
    fn a_deadline_beyond_the_clock_never_fires() {
        let token = CancelToken::new();
        assert!(
            watch(Duration::MAX, &token).is_none(),
            "an overflowing deadline is not registered"
        );
        assert_eq!(supervise(Some(Duration::MAX), || 7), Supervised::Value(7));
    }

    #[test]
    fn supervise_classifies_value_panic_and_timeout() {
        assert_eq!(supervise(None, || 1), Supervised::Value(1));
        assert_eq!(
            supervise(Some(Duration::from_secs(30)), || -> u8 {
                panic!("genuine bug")
            }),
            Supervised::Panic("genuine bug".to_string())
        );
        let hang = supervise(Some(Duration::from_millis(30)), || -> u8 {
            while !cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("unwound after cancellation");
        });
        assert_eq!(hang, Supervised::Timeout);
        assert!(current().is_none(), "the supervised token is uninstalled");
    }

    #[test]
    fn supervise_without_a_budget_keeps_the_current_token() {
        let outer = CancelToken::new();
        outer.cancel();
        let _guard = ScopedCancel::install(outer);
        assert_eq!(supervise(None, cancelled), Supervised::Value(true));
        assert_eq!(
            supervise(None, || -> u8 { panic!("bug") }),
            Supervised::Panic("bug".to_string()),
            "only a token the supervisor armed turns a panic into a timeout"
        );
        assert_eq!(
            supervise(Some(Duration::from_secs(30)), cancelled),
            Supervised::Value(false),
            "a budget runs under a fresh token"
        );
    }

    #[test]
    fn budgets_from_outside_must_fit_a_duration() {
        assert_eq!(budget_from_secs(0.5), Some(Duration::from_millis(500)));
        for bad in [0.0, -1.0, 1e20, f64::NAN, f64::INFINITY] {
            assert_eq!(budget_from_secs(bad), None, "{bad}");
        }
    }

    #[test]
    fn guard_smuggled_through_a_panic_payload_removes_only_its_entry() {
        // The pathological ordering: a guard escapes its scope inside the
        // panic payload, so it drops *after* the scopes that were entered
        // later have already been torn down and a fresh scope installed.
        let result = std::panic::catch_unwind(|| {
            let stale = CancelToken::new();
            stale.cancel();
            let guard = ScopedCancel::install(stale);
            std::panic::panic_any(guard);
        });
        let payload = result.expect_err("the closure panicked");
        // A new request's scope begins on the same (pooled) thread...
        let fresh = CancelToken::new();
        let _fresh_guard = ScopedCancel::install(fresh.clone());
        // ...and only now does the smuggled guard drop.
        drop(payload);
        assert!(
            !cancelled(),
            "late drop of the smuggled guard must not cancel the new request"
        );
        let now = current().expect("fresh token still installed");
        assert!(!now.is_cancelled());
    }
}
