//! `wrsnd` — the long-running campaign service.
//!
//! The single-shot `exp` binary pays process startup, thread-pool spin-up
//! and cache-cold simulation state for every invocation; sweeping a
//! parameter grid that way is thousands of process launches. `wrsnd` keeps
//! one process resident and serves *scenario requests* over newline-
//! delimited JSON (TCP or stdin), with:
//!
//! - a bounded worker pool with per-request wall-clock **deadlines**,
//!   enforced through the engine's cooperative cancellation
//!   ([`wrsn::sim::cancel`]) by the process-wide watchdog;
//! - **dedupe by content digest**: requests are canonicalised and FNV-hashed;
//!   a digest seen before is replayed byte-identically from the
//!   content-addressed artifact store, and concurrent duplicates coalesce
//!   behind a single computation (single-flight);
//! - **crash safety**: every artifact is written via same-directory
//!   temp-file + fsync + rename and validated (magic, length, checksum)
//!   before it is ever served, so a SIGKILL mid-write costs at most a
//!   recompute, never a wrong answer.
//!
//! The service is hardened against overload and hostile clients: bounded
//! admission with typed `overloaded` shedding, a size-bounded cache with
//! deterministic LRU eviction, capped request lines, idle-connection
//! reaping, and opt-in streamed responses with cooperative cancellation on
//! client disconnect (DESIGN.md, "Overload, streaming & shedding").
//!
//! Module map: [`request`] (wire schema + payload execution), [`cache`]
//! (the artifact store), [`scheduler`] (worker pool), [`server`] (TCP/stdin
//! frontends), [`loadgen`] (the contract-checking client behind `wrsnd load`),
//! [`chaos`] (the fault-injecting proxy the hardening is tested through).

pub mod cache;
pub mod chaos;
pub mod loadgen;
pub mod request;
pub mod scheduler;
pub mod server;
