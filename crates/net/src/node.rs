//! Sensor node identity and state.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use crate::energy::Battery;
use crate::geom::Point;

/// Identifier of a sensor node: its index in the network's node vector.
///
/// Displayed as `n<index>`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// A rechargeable sensor node.
///
/// # Example
///
/// ```
/// use wrsn_net::{node::SensorNode, Point};
///
/// let n = SensorNode::new(Point::new(1.0, 2.0));
/// assert!(n.is_alive());
/// assert_eq!(n.battery().level_j(), n.battery().capacity_j());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorNode {
    position: Point,
    battery: Battery,
    /// Sensing data generation rate, bits per second.
    sensing_rate_bps: f64,
    /// Hard failure (crash, tamper, enclosure damage): the node is dead even
    /// though its battery may hold residual charge. Set by fault injection;
    /// never cleared — a crashed node stays down, like a depleted one.
    failed: bool,
}

// Hand-written so the `failed` flag stays out of snapshots of healthy nodes:
// the JSON shape is identical to the pre-fault-injection derived form unless
// a node actually hard-failed.
impl Serialize for SensorNode {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let battery = &self.battery;
        node_json::head(self.position, battery.capacity_j(), out)?;
        serde::json::write_f64(battery.level_j(), out)?;
        node_json::mid(battery.warning_j(), out)?;
        serde::json::write_bool(battery.is_depleted(), out);
        node_json::tail(self.sensing_rate_bps, out)?;
        node_json::end(self.failed, out);
        Ok(())
    }
}

/// A node's JSON, split around the state a simulation mutates: the battery
/// level, the depletion flag and the failure flag. Writing `head`, the level,
/// `mid`, the flag, `tail` and `end` in turn gives
/// `{"position":P,"battery":{"capacity_j":C,"level_j":L,"warning_j":W,"depleted":D},"sensing_rate_bps":S}`
/// plus `"failed":true` for a hard-failed node. The network encoder caches
/// `head`, `mid` and `tail` per node, since they never change once a network
/// is built.
pub(crate) mod node_json {
    use crate::geom::Point;
    use serde::Serialize as _;

    /// `{"position":P,"battery":{"capacity_j":C,"level_j":`
    pub(crate) fn head(
        position: Point,
        capacity_j: f64,
        out: &mut String,
    ) -> Result<(), serde::Error> {
        out.push_str("{\"position\":");
        position.write_json(out)?;
        out.push_str(",\"battery\":{\"capacity_j\":");
        serde::json::write_f64(capacity_j, out)?;
        out.push_str(",\"level_j\":");
        Ok(())
    }

    /// `,"warning_j":W,"depleted":`
    pub(crate) fn mid(warning_j: f64, out: &mut String) -> Result<(), serde::Error> {
        out.push_str(",\"warning_j\":");
        serde::json::write_f64(warning_j, out)?;
        out.push_str(",\"depleted\":");
        Ok(())
    }

    /// `},"sensing_rate_bps":S`
    pub(crate) fn tail(sensing_rate_bps: f64, out: &mut String) -> Result<(), serde::Error> {
        out.push_str("},\"sensing_rate_bps\":");
        serde::json::write_f64(sensing_rate_bps, out)
    }

    /// `,"failed":true}` for a hard-failed node, else `}`.
    pub(crate) fn end(failed: bool, out: &mut String) {
        out.push_str(if failed { ",\"failed\":true}" } else { "}" });
    }
}

impl Deserialize for SensorNode {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "SensorNode"))?;
        let failed = match entries.iter().find(|(k, _)| k == "failed") {
            Some((_, v)) => bool::from_value(v)?,
            None => false,
        };
        Ok(SensorNode {
            position: Deserialize::from_value(serde::map_get(entries, "position")?)?,
            battery: Deserialize::from_value(serde::map_get(entries, "battery")?)?,
            sensing_rate_bps: Deserialize::from_value(serde::map_get(
                entries,
                "sensing_rate_bps",
            )?)?,
            failed,
        })
    }
}

/// Default sensing data rate: 1 kb/s.
pub const DEFAULT_SENSING_RATE_BPS: f64 = 1_000.0;

impl SensorNode {
    /// Creates a node at `position` with the default battery and sensing rate.
    pub fn new(position: Point) -> Self {
        SensorNode {
            position,
            battery: Battery::default(),
            sensing_rate_bps: DEFAULT_SENSING_RATE_BPS,
            failed: false,
        }
    }

    /// Creates a node with an explicit battery.
    pub fn with_battery(position: Point, battery: Battery) -> Self {
        SensorNode {
            position,
            battery,
            sensing_rate_bps: DEFAULT_SENSING_RATE_BPS,
            failed: false,
        }
    }

    /// Sets the sensing rate (bits per second), returning the node.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or non-finite.
    pub fn with_sensing_rate(mut self, bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "sensing rate must be finite and non-negative"
        );
        self.sensing_rate_bps = bps;
        self
    }

    /// The node's fixed position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Immutable battery access.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Sensing data generation rate, bits per second.
    pub fn sensing_rate_bps(&self) -> f64 {
        self.sensing_rate_bps
    }

    /// Whether the node still has usable energy and has not hard-failed.
    pub fn is_alive(&self) -> bool {
        !self.failed && !self.battery.is_depleted()
    }

    /// Whether the node hard-failed (as opposed to draining its battery).
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Marks the node hard-failed: it drops out of the network immediately,
    /// keeping whatever battery charge it had. Irreversible, like depletion.
    /// Used by fault injection (`wrsn_sim::fault`) to model crashes that a
    /// detector must tell apart from attack-induced exhaustion — a crashed
    /// node leaves residual energy behind, an exhausted one dies at zero.
    pub fn mark_failed(&mut self) {
        self.failed = true;
    }

    /// Reassembles a node from the network's state columns. Parts are
    /// trusted; see [`Battery::from_parts`].
    pub(crate) fn from_parts(
        position: Point,
        battery: Battery,
        sensing_rate_bps: f64,
        failed: bool,
    ) -> Self {
        SensorNode {
            position,
            battery,
            sensing_rate_bps,
            failed,
        }
    }

    /// Decomposes the node into `(position, battery, sensing_rate_bps,
    /// failed)` — the inverse of [`SensorNode::from_parts`], used when a
    /// constructed node list is columnised into the network.
    pub(crate) fn into_parts(self) -> (Point, Battery, f64, bool) {
        (
            self.position,
            self.battery,
            self.sensing_rate_bps,
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(17);
        assert_eq!(id.to_string(), "n17");
        assert_eq!(id.index(), 17);
        assert_eq!(NodeId::from(17), id);
    }

    #[test]
    fn new_node_is_alive_and_full() {
        let n = SensorNode::new(Point::ORIGIN);
        assert!(n.is_alive());
        assert_eq!(n.battery().level_j(), n.battery().capacity_j());
    }

    #[test]
    fn draining_battery_kills_node() {
        let mut battery = Battery::default();
        battery.discharge(battery.capacity_j() * 2.0);
        let n = SensorNode::with_battery(Point::ORIGIN, battery);
        assert!(!n.is_alive());
    }

    #[test]
    fn sensing_rate_builder() {
        let n = SensorNode::new(Point::ORIGIN).with_sensing_rate(512.0);
        assert_eq!(n.sensing_rate_bps(), 512.0);
    }

    #[test]
    #[should_panic(expected = "sensing rate")]
    fn negative_sensing_rate_panics() {
        let _ = SensorNode::new(Point::ORIGIN).with_sensing_rate(-1.0);
    }

    #[test]
    fn hard_failure_kills_node_but_keeps_battery() {
        let mut n = SensorNode::new(Point::ORIGIN);
        n.mark_failed();
        assert!(!n.is_alive());
        assert!(n.has_failed());
        assert_eq!(n.battery().level_j(), n.battery().capacity_j());
    }

    #[test]
    fn serde_omits_failed_flag_on_healthy_nodes() {
        let healthy = SensorNode::new(Point::new(1.0, 2.0));
        let text = serde_json::to_string(&healthy).unwrap();
        assert!(
            text.starts_with(r#"{"position":{"x":1,"y":2},"battery":{"#),
            "{text}"
        );
        assert!(text.ends_with(r#"},"sensing_rate_bps":1000}"#), "{text}");
        assert_eq!(serde_json::from_str::<SensorNode>(&text).unwrap(), healthy);

        let mut crashed = healthy.clone();
        crashed.mark_failed();
        let text = serde_json::to_string(&crashed).unwrap();
        assert!(
            text.ends_with(r#","sensing_rate_bps":1000,"failed":true}"#),
            "{text}"
        );
        let back: SensorNode = serde_json::from_str(&text).unwrap();
        assert!(back.has_failed());
        assert_eq!(back, crashed);
    }
}
