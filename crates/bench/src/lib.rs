//! # wrsn-bench — the evaluation harness
//!
//! One module per experiment in `EXPERIMENTS.md`. Run them with
//!
//! ```text
//! cargo run -p wrsn-bench --release --bin exp -- --id fig6
//! cargo run -p wrsn-bench --release --bin exp -- --id all
//! ```
//!
//! Each experiment returns [`Table`]s that are printed as aligned ASCII and
//! exported as CSV under `target/experiments/`. Criterion micro-benchmarks
//! (`cargo bench -p wrsn-bench`) cover the algorithmic costs behind `tab1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod manifest;
pub mod service;
pub mod stats;
pub mod table;

pub use wrsn::sim::obs;
pub use wrsn::sim::parallel;

pub use error::BenchError;
pub use table::Table;

use obs::{Recorder, TraceRecord, SCHEMA_VERSION};

/// All experiment ids, in the order of `EXPERIMENTS.md`.
pub const ALL_IDS: &[&str] = &[
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "tab1", "tab2", "tab3", "faults",
];

/// Extra experiment ids runnable with an explicit `--id` but excluded from
/// `--id all` (and therefore from the paper-suite timing baselines): these
/// are scaling/engineering studies, not paper figures.
pub const EXTRA_IDS: &[&str] = &["scale", "overload", "arms_race"];

/// Whether `id` names a runnable experiment ([`ALL_IDS`] or [`EXTRA_IDS`]).
pub fn is_known_id(id: &str) -> bool {
    ALL_IDS.contains(&id) || EXTRA_IDS.contains(&id)
}

/// Environment variable naming an experiment id whose run should panic on
/// entry. A test/CI hook for the `exp` runner's panic-safe harness: set
/// `WRSN_FORCE_PANIC=fig2` and `exp --id all` must still deliver every other
/// experiment's output plus a per-experiment failure report.
pub const FORCE_PANIC_ENV: &str = "WRSN_FORCE_PANIC";

/// Environment variable naming an experiment id whose run should hang
/// forever (cooperatively: it spins polling its cancellation token, exactly
/// like a world between integration segments). A test/CI hook for the `exp`
/// runner's watchdog: set `WRSN_FORCE_HANG=fig5` with `--timeout-s 2` and
/// the campaign must cancel `fig5` as a typed timeout while every other
/// experiment completes.
pub const FORCE_HANG_ENV: &str = "WRSN_FORCE_HANG";

/// Runs one experiment by id.
///
/// # Errors
///
/// [`BenchError::UnknownId`] for unknown ids.
pub fn run(id: &str) -> Result<Vec<Table>, BenchError> {
    run_with(id, &mut obs::NullRecorder)
}

/// Runs one experiment by id, reporting counters, spans, and trace records
/// into `rec`. The stream opens with a [`TraceRecord::Meta`] header scoped to
/// `id`; close it afterwards with [`obs::StatsRecorder::emit_counters`].
///
/// With a [`obs::NullRecorder`] this is exactly [`run`]: the recorder is
/// never consulted on the hot path and every table stays byte-identical
/// (pinned by the `trace_identity` integration tests).
///
/// # Errors
///
/// [`BenchError::UnknownId`] for unknown ids.
pub fn run_with(id: &str, rec: &mut dyn Recorder) -> Result<Vec<Table>, BenchError> {
    if std::env::var(FORCE_PANIC_ENV).as_deref() == Ok(id) {
        panic!("forced panic in `{id}` ({FORCE_PANIC_ENV} is set)");
    }
    if std::env::var(FORCE_HANG_ENV).as_deref() == Ok(id) {
        // A cooperative hang: spin on the thread's cancellation token the
        // way the run loop does between segments. Under the watchdog this
        // unwinds as a timeout; without one it hangs forever (that is the
        // point — CI kills the process here to exercise `--resume`).
        loop {
            if wrsn::sim::cancel::cancelled() {
                panic!("forced hang in `{id}` cancelled ({FORCE_HANG_ENV} is set)");
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    if rec.enabled() {
        rec.emit(&TraceRecord::Meta {
            schema: format!("wrsn-trace-v{SCHEMA_VERSION}"),
            scope: id.to_string(),
        });
    }
    match id {
        "fig2" => Ok(experiments::fig2::run()),
        "fig3" => Ok(experiments::fig3::run()),
        "fig4" => Ok(experiments::fig4::run()),
        "fig5" => Ok(experiments::fig5::run(rec)),
        "fig6" => Ok(experiments::fig6::run(rec)),
        "fig7" => Ok(experiments::fig7::run(rec)),
        "fig8" => Ok(experiments::fig8::run(rec)),
        "fig9" => Ok(experiments::fig9::run(rec)),
        "fig10" => Ok(experiments::fig10::run(rec)),
        "fig11" => Ok(experiments::fig11::run(rec)),
        "fig12" => Ok(experiments::fig12::run(rec)),
        "fig13" => Ok(experiments::fig13::run()),
        "tab1" => Ok(experiments::tab1::run()),
        "tab2" => Ok(experiments::tab2::run()),
        "tab3" => Ok(experiments::tab3::run(rec)),
        "faults" => Ok(experiments::faults::run(rec)),
        "scale" => Ok(experiments::scale::run(rec)),
        "overload" => Ok(experiments::overload::run(rec)),
        "arms_race" => Ok(experiments::arms_race::run(rec)),
        other => Err(BenchError::unknown_id(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_an_error() {
        let err = run("fig99").unwrap_err();
        assert!(matches!(err, BenchError::UnknownId { .. }), "{err}");
        let text = err.to_string();
        assert!(text.contains("fig99"));
        assert!(text.contains("fig2"));
    }

    #[test]
    fn fast_experiments_produce_tables() {
        for id in ["fig2", "fig3", "fig4", "fig10", "fig13"] {
            let tables = run(id).unwrap_or_else(|e| panic!("experiment `{id}` failed: {e}"));
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
            }
        }
    }
}
