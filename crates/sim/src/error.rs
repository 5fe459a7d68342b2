//! Error types for the simulation engine.
//!
//! The engine used to `expect`/panic on impossible-by-construction states
//! (stale node ids on the hot path, most prominently). Under fault injection
//! and checkpoint restore those states stop being impossible — a fault plan
//! or a hand-edited snapshot can reference nodes that are gone — so the run
//! loop now propagates a typed [`SimError`] instead of aborting the process.

use std::error::Error;
use std::fmt;

use wrsn_net::{NetError, NodeId};

use crate::store::StoreError;

/// Errors produced by the simulation run loop.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A network-level error (unknown node, disconnected graph, …) surfaced
    /// while the world was advancing.
    Net(NetError),
    /// A fault event referenced a node outside the network.
    FaultTarget(NodeId),
    /// A non-finite or negative duration reached the integrator.
    InvalidDuration {
        /// What requested the advance (action or API name).
        what: &'static str,
        /// The offending value, seconds.
        value: f64,
    },
    /// The run was cancelled through the thread's [`crate::cancel`] token —
    /// typically the watchdog in [`crate::cancel`] firing a wall-clock
    /// deadline on a hung experiment.
    Cancelled,
    /// An attached [`crate::store::Checkpointer`] could not persist the
    /// world.
    Store(StoreError),
    /// A loop kept iterating without moving the simulation clock: the run
    /// loop under a policy that issues zero-time actions forever, or a
    /// charging session that stopped advancing.
    NoProgress {
        /// Which loop stalled.
        what: &'static str,
        /// The instant it stalled at, seconds.
        t_s: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Net(e) => write!(f, "network error during simulation: {e}"),
            SimError::FaultTarget(id) => {
                write!(f, "fault event targets unknown node {id}")
            }
            SimError::InvalidDuration { what, value } => {
                write!(f, "{what}: invalid duration {value} s")
            }
            SimError::Cancelled => {
                write!(f, "run cancelled by its supervisor (deadline or shutdown)")
            }
            SimError::Store(e) => write!(f, "checkpoint store error: {e}"),
            SimError::NoProgress { what, t_s } => {
                write!(f, "{what} made no progress at t = {t_s} s")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Net(e) => Some(e),
            SimError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for SimError {
    fn from(e: NetError) -> Self {
        SimError::Net(e)
    }
}

impl From<StoreError> for SimError {
    fn from(e: StoreError) -> Self {
        SimError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SimError::from(NetError::UnknownNode(NodeId(7)));
        assert!(e.to_string().contains("n7"));
        let e = SimError::FaultTarget(NodeId(3));
        assert!(e.to_string().contains("n3"));
        let e = SimError::InvalidDuration {
            what: "advance_by",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("advance_by"));
        let e = SimError::NoProgress {
            what: "run loop",
            t_s: 12.5,
        };
        assert!(e
            .to_string()
            .contains("run loop made no progress at t = 12.5 s"));
    }

    #[test]
    fn net_errors_convert_and_chain() {
        let e: SimError = NetError::Disconnected.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn cancelled_and_store_errors_display_and_chain() {
        assert!(SimError::Cancelled.to_string().contains("cancelled"));
        let e: SimError = StoreError::ChecksumMismatch {
            path: std::path::PathBuf::from("x.ckpt"),
        }
        .into();
        assert!(e.to_string().contains("checksum"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
