//! # wrsn-net — wireless rechargeable sensor network substrate
//!
//! Everything the Charging Spoofing Attack needs from the *network* side of a
//! WRSN:
//!
//! * 2-D [`geom`]etry and field regions,
//! * seeded [`deploy`]ment generators (uniform, grid, clustered),
//! * [`energy`]: batteries with capacity/thresholds and the first-order radio
//!   energy model,
//! * [`node`]: sensor nodes with position, battery and sensing rate,
//! * [`graph`]: communication graphs (a shared CSR topology with precomputed
//!   edge lengths), articulation points (Tarjan), betweenness centrality
//!   (Brandes),
//! * [`routing`]: shortest-path data-gathering trees and per-node traffic /
//!   energy-consumption rates,
//! * [`keynode`]: identification of **key nodes** — the cut vertices and
//!   traffic hubs whose exhaustion partitions the network, which are exactly
//!   the attack's targets,
//! * [`metrics`]: lifetime, coverage and connectivity measures.
//!
//! # Example
//!
//! ```
//! use wrsn_net::prelude::*;
//!
//! let field = Region::square(100.0);
//! let nodes = deploy::uniform(&field, 50, 42);
//! let net = Network::build(nodes, Point::new(50.0, 50.0), 18.0);
//! let keys = keynode::identify(&net, &KeyNodeConfig::default());
//! assert!(keys.len() <= net.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod energy;
pub mod error;
pub mod geom;
pub mod graph;
pub mod keynode;
pub mod metrics;
pub mod node;
pub mod routing;

pub use error::NetError;
pub use geom::{Point, Region};
pub use graph::{EnergyColumnsMut, Network, NetworkEncoder};
pub use keynode::KeyNode;
pub use node::{NodeId, SensorNode};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::deploy;
    pub use crate::energy::{Battery, RadioEnergyModel};
    pub use crate::geom::{Point, Region};
    pub use crate::graph::Network;
    pub use crate::keynode::{self, KeyNode, KeyNodeConfig};
    pub use crate::metrics;
    pub use crate::node::{NodeId, SensorNode};
    pub use crate::routing::{self, RoutingTree};
}
