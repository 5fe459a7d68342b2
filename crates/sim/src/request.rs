//! The charging-request queue.
//!
//! When a node's battery falls to its warning threshold it broadcasts a
//! charging request carrying its id, the time, and its energy deficit. The
//! charger's policy consumes this queue; the attacker uses it both as a target
//! list and as camouflage (it answers requests just like the real charger).

use serde::{Deserialize, Serialize};

use wrsn_net::NodeId;

/// A pending charging request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeRequest {
    /// The requesting node.
    pub node: NodeId,
    /// Simulation time the request was issued, seconds.
    pub issued_at_s: f64,
    /// Energy needed to refill the node, joules, at issue time.
    pub deficit_j: f64,
    /// The node's residual energy at issue time, joules.
    pub residual_j: f64,
}

/// FIFO queue of outstanding requests with one-request-per-node semantics.
///
/// A per-node membership bitmap answers [`RequestQueue::contains`] (and a
/// [`RequestQueue::withdraw`] of a node without a request) in O(1), so a
/// full rescan of every node costs O(n) rather than O(n × pending). The
/// bitmap is an index over `pending`: it is never serialized and is rebuilt
/// on deserialization, keeping the wire form `{"pending":[...]}`.
#[derive(Debug, Clone, Default)]
pub struct RequestQueue {
    pending: Vec<ChargeRequest>,
    /// `queued[i]` iff node `i` has a request in `pending`; grows on demand.
    queued: Vec<bool>,
}

impl Serialize for RequestQueue {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("pending".to_string(), self.pending.to_value())])
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let mut map = serde::json::MapWriter::new(out);
        map.field("pending", &self.pending)?;
        map.end();
        Ok(())
    }
}

impl Deserialize for RequestQueue {
    /// Trusts node ids up to `usize::MAX`; a [`World`](crate::World) load
    /// bounds them by its network with `RequestQueue::from_value_within`.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        RequestQueue::from_value_within(value, usize::MAX)
    }
}

impl RequestQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RequestQueue::default()
    }

    /// Deserializes a queue whose requests name nodes below `node_count`,
    /// at most one request each. The index is sized by the largest id, so
    /// ids read from outside the program are bounded before they allocate.
    pub(crate) fn from_value_within(
        value: &serde::Value,
        node_count: usize,
    ) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "RequestQueue"))?;
        let pending: Vec<ChargeRequest> =
            Deserialize::from_value(serde::map_get(entries, "pending")?)?;
        let mut queue = RequestQueue::new();
        for request in pending {
            let node = request.node.0;
            if node >= node_count {
                return Err(serde::Error(format!(
                    "RequestQueue: request for node {node} in a {node_count}-node network"
                )));
            }
            if !queue.issue(request) {
                return Err(serde::Error(format!(
                    "RequestQueue: node {node} has two pending requests"
                )));
            }
        }
        Ok(queue)
    }

    /// Outstanding requests in issue order.
    pub fn pending(&self) -> &[ChargeRequest] {
        &self.pending
    }

    /// Whether `node` has an outstanding request.
    pub fn contains(&self, node: NodeId) -> bool {
        self.queued.get(node.0).copied().unwrap_or(false)
    }

    /// Issues a request unless the node already has one outstanding. Returns
    /// whether the request was enqueued.
    pub fn issue(&mut self, request: ChargeRequest) -> bool {
        let i = request.node.0;
        if self.contains(request.node) {
            return false;
        }
        if i >= self.queued.len() {
            self.queued.resize(i + 1, false);
        }
        self.queued[i] = true;
        self.pending.push(request);
        true
    }

    /// Removes the request of `node` (e.g. after it was served or died).
    /// Returns the removed request if there was one.
    pub fn withdraw(&mut self, node: NodeId) -> Option<ChargeRequest> {
        if !self.contains(node) {
            return None;
        }
        self.queued[node.0] = false;
        let idx = self.pending.iter().position(|r| r.node == node)?;
        Some(self.pending.remove(idx))
    }

    /// Number of outstanding requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether there are no outstanding requests.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(node: usize, t: f64) -> ChargeRequest {
        ChargeRequest {
            node: NodeId(node),
            issued_at_s: t,
            deficit_j: 100.0,
            residual_j: 20.0,
        }
    }

    #[test]
    fn issue_is_fifo_and_deduplicated() {
        let mut q = RequestQueue::new();
        assert!(q.issue(req(1, 0.0)));
        assert!(q.issue(req(2, 1.0)));
        assert!(!q.issue(req(1, 2.0)), "duplicate must be rejected");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending()[0].node, NodeId(1));
        assert_eq!(q.pending()[1].node, NodeId(2));
    }

    #[test]
    fn withdraw_removes_only_target() {
        let mut q = RequestQueue::new();
        q.issue(req(1, 0.0));
        q.issue(req(2, 1.0));
        let w = q.withdraw(NodeId(1)).unwrap();
        assert_eq!(w.node, NodeId(1));
        assert!(!q.contains(NodeId(1)));
        assert!(q.contains(NodeId(2)));
        assert!(q.withdraw(NodeId(1)).is_none());
    }

    #[test]
    fn serde_round_trip_keeps_the_wire_form_and_the_index() {
        let mut q = RequestQueue::new();
        q.issue(req(7, 0.5));
        q.issue(req(2, 1.25));
        q.issue(req(40, 3.0));
        q.withdraw(NodeId(2));
        let text = serde_json::to_string(&q).unwrap();
        let mut via_tree = String::new();
        serde::json::write_value(&q.to_value(), &mut via_tree).unwrap();
        assert_eq!(text, via_tree);
        // The derived encoding of the bitmap-free shape is the wire form.
        #[derive(Serialize)]
        struct WireForm {
            pending: Vec<ChargeRequest>,
        }
        let wire = serde_json::to_string(&WireForm {
            pending: q.pending().to_vec(),
        })
        .unwrap();
        assert_eq!(text, wire);
        assert!(text.starts_with(r#"{"pending":[{"node":[7],"#), "{text}");
        let back: RequestQueue = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        assert_eq!(back.pending(), q.pending());
        assert!(back.contains(NodeId(7)) && back.contains(NodeId(40)));
        assert!(!back.contains(NodeId(2)) && !back.contains(NodeId(41)));
        let mut back = back;
        assert!(
            !back.issue(req(40, 9.0)),
            "restored index still deduplicates"
        );
        assert_eq!(back.withdraw(NodeId(7)).map(|r| r.node), Some(NodeId(7)));
    }

    #[test]
    fn duplicate_pending_requests_are_rejected_on_load() {
        let text = format!(
            r#"{{"pending":[{},{}]}}"#,
            serde_json::to_string(&req(3, 0.0)).unwrap(),
            serde_json::to_string(&req(3, 1.0)).unwrap()
        );
        assert!(serde_json::from_str::<RequestQueue>(&text).is_err());
    }

    #[test]
    fn load_rejects_requests_outside_the_network() {
        let mut q = RequestQueue::new();
        q.issue(req(3, 0.0));
        let value = q.to_value();
        assert!(RequestQueue::from_value_within(&value, 4).is_ok());
        assert!(RequestQueue::from_value_within(&value, 3).is_err());
    }

    proptest! {
        /// The queue agrees with a naive `Vec` model — linear membership
        /// scans, first-match removal — on every return value and on the
        /// pending order after every operation.
        #[test]
        fn queue_matches_naive_vec_model(ops in prop::collection::vec((0u8..3, 0usize..24), 0..200)) {
            let mut q = RequestQueue::new();
            let mut model: Vec<ChargeRequest> = Vec::new();
            for (t, (op, n)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let r = req(n, t as f64);
                        let want = !model.iter().any(|m| m.node == r.node);
                        if want {
                            model.push(r);
                        }
                        prop_assert_eq!(q.issue(r), want);
                    }
                    1 => {
                        let want = model
                            .iter()
                            .position(|m| m.node == NodeId(n))
                            .map(|i| model.remove(i));
                        prop_assert_eq!(q.withdraw(NodeId(n)), want);
                    }
                    _ => {
                        let want = model.iter().any(|m| m.node == NodeId(n));
                        prop_assert_eq!(q.contains(NodeId(n)), want);
                    }
                }
                prop_assert_eq!(q.pending(), &model[..]);
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q = RequestQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(!q.contains(NodeId(0)));
    }
}
