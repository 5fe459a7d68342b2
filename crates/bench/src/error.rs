//! Typed errors for the experiment harness.
//!
//! The `exp` runner used to thread `Result<_, String>` everywhere, which
//! flattened every failure into prose and lost the underlying cause. The
//! variants here keep their sources ([`std::error::Error::source`] chains
//! into [`WorkerError`] and [`SimError`]) so the runner can distinguish an
//! unknown id from a worker timeout from a half-written manifest — and exit
//! with a message that still reads exactly like the old one.

use std::fmt;
use std::path::PathBuf;

use wrsn::sim::SimError;

use crate::parallel::WorkerError;

/// Everything the experiment harness can fail with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BenchError {
    /// `--id` (or a manifest entry) named an experiment that does not exist.
    UnknownId {
        /// The offending id.
        id: String,
    },
    /// A command-line flag had a missing or invalid value.
    InvalidFlag {
        /// The flag, e.g. `--threads`.
        flag: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A work item failed terminally in the parallel harness (panicked out
    /// of retries, or was cancelled by the watchdog), annotated with the
    /// experiment id the index mapped to.
    Worker {
        /// The experiment that failed.
        id: String,
        /// The underlying worker failure.
        source: WorkerError,
    },
    /// The simulation engine returned a typed error.
    Sim {
        /// The experiment that failed.
        id: String,
        /// The underlying engine error.
        source: SimError,
    },
    /// A filesystem operation failed (CSV export, report writes, probes).
    Io {
        /// What the harness was doing, e.g. `"write CSV"`.
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The stringified [`std::io::Error`].
        detail: String,
    },
    /// A trace record could not be serialized to JSONL.
    Trace {
        /// The experiment whose record failed.
        id: String,
        /// The serializer's message.
        detail: String,
    },
    /// The run manifest was missing, unreadable, or inconsistent.
    Manifest {
        /// The manifest (or artifact) file involved.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl BenchError {
    /// An [`BenchError::Io`] from a raw [`std::io::Error`].
    pub fn io(op: &'static str, path: impl Into<PathBuf>, e: &std::io::Error) -> Self {
        BenchError::Io {
            op,
            path: path.into(),
            detail: e.to_string(),
        }
    }

    /// The unknown-id error with the canonical id listing.
    pub fn unknown_id(id: &str) -> Self {
        BenchError::UnknownId { id: id.to_string() }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownId { id } => write!(
                f,
                "unknown experiment id `{id}`; known ids: {}",
                crate::ALL_IDS.join(", ")
            ),
            BenchError::InvalidFlag { flag, detail } => write!(f, "{flag}: {detail}"),
            BenchError::Worker { id, source } => write!(f, "{id}: {source}"),
            BenchError::Sim { id, source } => write!(f, "{id}: simulation failed: {source}"),
            BenchError::Io { op, path, detail } => {
                write!(f, "cannot {op} {}: {detail}", path.display())
            }
            BenchError::Trace { id, detail } => {
                write!(f, "{id}: cannot serialize trace record: {detail}")
            }
            BenchError::Manifest { path, detail } => {
                write!(f, "manifest {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Worker { source, .. } => Some(source),
            BenchError::Sim { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::FailureKind;

    #[test]
    fn unknown_id_lists_known_ids() {
        let e = BenchError::unknown_id("fig99");
        let text = e.to_string();
        assert!(text.contains("fig99"));
        assert!(text.contains("fig2"));
        assert!(text.contains("faults"));
    }

    #[test]
    fn worker_and_sim_errors_chain_their_sources() {
        let e = BenchError::Worker {
            id: "fig5".to_string(),
            source: WorkerError {
                index: 4,
                attempts: 1,
                kind: FailureKind::Timeout,
                message: "cancelled at its wall-clock deadline".to_string(),
            },
        };
        assert!(e.to_string().contains("fig5"));
        assert!(e.to_string().contains("timed out"));
        assert!(std::error::Error::source(&e).is_some());

        let e = BenchError::Sim {
            id: "fig6".to_string(),
            source: SimError::Cancelled,
        };
        assert!(e.to_string().contains("cancelled"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn io_helper_keeps_op_and_path() {
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
        let e = BenchError::io("write CSV", "/tmp/x.csv", &io);
        let text = e.to_string();
        assert!(text.contains("write CSV"));
        assert!(text.contains("/tmp/x.csv"));
        assert!(text.contains("denied"));
    }
}
