//! # wrsn-sim — discrete-event WRSN simulation
//!
//! Glues the physics ([`wrsn_em`]) and the network substrate ([`wrsn_net`])
//! into a runnable world:
//!
//! * [`charger`]: the mobile charger — position, speed, energy budget, and the
//!   two-antenna **rig** whose [`charger::ChargeMode`] selects honest charging
//!   or phase-cancelled *spoofed* charging,
//! * [`policy`]: the [`policy::ChargerPolicy`] trait that benign schedulers
//!   (`wrsn-charge`) and the attack (`wrsn-core`) both implement,
//! * [`request`]: the charging-request queue nodes use to summon the charger,
//! * [`trace`]: session/event recording consumed by detectors and experiments,
//! * [`world`]: the simulation loop with exact piecewise-linear battery drain
//!   (node deaths are hit exactly, not stepped over), plus
//!   [`world::Checkpoint`] snapshot/restore,
//! * [`fault`]: seeded, fully reproducible fault injection — node crashes,
//!   charging-efficiency degradation, charger stalls, request loss,
//! * [`error`]: the typed [`error::SimError`] the run loop returns instead of
//!   panicking,
//! * [`parallel`]: order-preserving scoped-thread fan-out for independent
//!   simulation trials (`WRSN_THREADS` controls the worker count), with a
//!   panic-catching, retrying [`parallel::try_map_indexed_watched`] variant
//!   whose optional deadline cancels hung items at a wall-clock budget,
//! * [`cancel`]: the cooperative cancellation protocol — a thread-local
//!   [`cancel::CancelToken`] the run loop polls between integration
//!   segments — and [`cancel::supervise`], the one supervisor of a work item:
//!   a budget served by one process-wide watchdog thread that sleeps until
//!   the earliest deadline, a caught unwind, and a value/timeout/panic
//!   verdict,
//! * [`store`]: crash-safe disk persistence — atomic checksummed checkpoint
//!   files and the periodic [`store::Checkpointer`] a world carries,
//! * [`obs`]: structured observability — the [`obs::Recorder`] trait (typed
//!   counters, nested timing spans) and the versioned JSONL trace
//!   schema; the default [`obs::NullRecorder`] keeps uninstrumented runs
//!   byte-identical.
//!
//! # Example
//!
//! ```
//! use wrsn_net::prelude::*;
//! use wrsn_sim::prelude::*;
//!
//! let nodes = deploy::uniform(&Region::square(60.0), 20, 5);
//! let net = Network::build(nodes, Point::new(30.0, 30.0), 20.0);
//! let charger = MobileCharger::standard(Point::new(30.0, 30.0));
//! let mut world = World::new(net, charger, WorldConfig::default());
//! let report = world.run(&mut IdlePolicy).expect("run");
//! assert!(report.final_time_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cancel;
pub mod charger;
pub mod error;
pub mod fault;
pub mod obs;
pub mod parallel;
pub mod policy;
pub mod request;
pub mod store;
pub mod trace;
pub mod world;

pub use audit::{AuditConfig, AuditState, Conviction, ProbeOutcome, ProbeRecord};
pub use cancel::CancelToken;
pub use charger::{ChargeMode, ChargerRig, MobileCharger};
pub use error::SimError;
pub use fault::{FaultConfig, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use obs::{Counter, NullRecorder, Recorder, StatsRecorder, TraceRecord};
pub use policy::{ChargerAction, ChargerPolicy, IdlePolicy, WorldView};
pub use request::ChargeRequest;
pub use store::{CheckpointPolicy, Checkpointer, StoreError};
pub use trace::{ChargeSession, SimEvent, Trace};
pub use world::{Checkpoint, SimReport, World, WorldConfig};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::audit::{AuditConfig, AuditState, Conviction, ProbeOutcome, ProbeRecord};
    pub use crate::cancel::CancelToken;
    pub use crate::charger::{ChargeMode, ChargerRig, MobileCharger};
    pub use crate::error::SimError;
    pub use crate::fault::{FaultConfig, FaultEvent, FaultInjector, FaultKind, FaultPlan};
    pub use crate::obs::{Counter, NullRecorder, Recorder, StatsRecorder, TraceRecord};
    pub use crate::policy::{ChargerAction, ChargerPolicy, IdlePolicy, WorldView};
    pub use crate::request::ChargeRequest;
    pub use crate::store::{CheckpointPolicy, Checkpointer, StoreError};
    pub use crate::trace::{ChargeSession, SimEvent, Trace};
    pub use crate::world::{Checkpoint, SimReport, World, WorldConfig};
}
