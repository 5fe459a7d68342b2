//! Deterministic fault injection: seeded fault plans and their runtime state.
//!
//! The paper's stealth claim is only meaningful if the attack's signature can
//! be told apart from ordinary operational noise — node crashes, degraded
//! harvesting circuits, a charger stuck in mud, lost request packets. This
//! module provides that noise *reproducibly*: a [`FaultPlan`] is derived from
//! a seed by a fixed RNG discipline, so two runs with the same seed inject
//! byte-identical fault sequences, and [`FaultPlan::none`] keeps a run
//! bit-for-bit identical to a world that never heard of faults.
//!
//! The plan is pure data (when/what); the [`FaultInjector`] carries the
//! runtime state the world mutates as events fire — the next-event cursor,
//! per-node charging-efficiency factors, the armed travel stall, and armed
//! request losses. Both halves serialize, so a [`crate::world::Checkpoint`]
//! captures fault state and a restored run replays the remaining events
//! exactly where the uninterrupted run would have.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use wrsn_net::NodeId;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node crashes: it drops out of the network immediately, keeping its
    /// residual battery charge (unlike exhaustion, which ends at zero).
    NodeFailure {
        /// The crashing node.
        node: NodeId,
    },
    /// The node's charging efficiency degrades: from now on it harvests only
    /// `factor` of the power a charger delivers to it. Repeated degradations
    /// compound multiplicatively.
    Degradation {
        /// The degraded node.
        node: NodeId,
        /// Multiplier in `(0, 1]` applied to delivered charging power.
        factor: f64,
    },
    /// The charger stalls: its next move takes `delay_s` extra seconds (the
    /// vehicle is stuck; the network keeps draining). Stalls accumulate.
    ChargerStall {
        /// Extra travel time, seconds.
        delay_s: f64,
    },
    /// The node's next charging request is lost in transit: the charger does
    /// not hear it until the node's battery state next changes and the
    /// request is re-issued.
    RequestLoss {
        /// The node whose request is dropped.
        node: NodeId,
    },
}

/// A fault scheduled at an absolute simulation instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time, seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// How many faults of each kind a generated plan contains, and the parameter
/// ranges they draw from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Node hard-failures (crash/dropout).
    pub node_failures: usize,
    /// Charging-efficiency degradations.
    pub degradations: usize,
    /// Charger travel stalls.
    pub charger_stalls: usize,
    /// Charging-request losses.
    pub request_losses: usize,
    /// Degradation factor range (fraction of delivered power kept).
    pub degradation_range: (f64, f64),
    /// Stall duration range, seconds.
    pub stall_range_s: (f64, f64),
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            node_failures: 0,
            degradations: 0,
            charger_stalls: 0,
            request_losses: 0,
            degradation_range: (0.3, 0.9),
            stall_range_s: (60.0, 600.0),
        }
    }
}

impl FaultConfig {
    /// A config with `intensity` faults of every kind — the one-knob sweep
    /// used by the `faults` experiment.
    pub fn uniform(intensity: usize) -> Self {
        FaultConfig {
            node_failures: intensity,
            degradations: intensity,
            charger_stalls: intensity,
            request_losses: intensity,
            ..FaultConfig::default()
        }
    }

    /// Total number of events this config generates.
    pub fn total(&self) -> usize {
        self.node_failures + self.degradations + self.charger_stalls + self.request_losses
    }
}

/// A reproducible schedule of fault events, sorted by injection time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    seed: u64,
    /// Events, ascending by time (ties keep generation order).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a world running under it is bit-identical to one with
    /// no fault machinery attached at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan for a network of `node_count` nodes over
    /// `[0, horizon_s)`. Fully determined by `(seed, node_count, horizon_s,
    /// config)`: the RNG is ChaCha8 seeded with `seed`, and each fault kind
    /// draws its events in a fixed order, so the same inputs always produce
    /// the same plan.
    pub fn generate(seed: u64, node_count: usize, horizon_s: f64, config: &FaultConfig) -> Self {
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "horizon must be positive, got {horizon_s}"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut events = Vec::with_capacity(config.total());
        if node_count > 0 {
            for _ in 0..config.node_failures {
                events.push(FaultEvent {
                    at_s: rng.gen_range(0.0..horizon_s),
                    kind: FaultKind::NodeFailure {
                        node: NodeId(rng.gen_range(0..node_count)),
                    },
                });
            }
            let (lo, hi) = config.degradation_range;
            for _ in 0..config.degradations {
                events.push(FaultEvent {
                    at_s: rng.gen_range(0.0..horizon_s),
                    kind: FaultKind::Degradation {
                        node: NodeId(rng.gen_range(0..node_count)),
                        factor: rng.gen_range(lo..hi),
                    },
                });
            }
            for _ in 0..config.request_losses {
                events.push(FaultEvent {
                    at_s: rng.gen_range(0.0..horizon_s),
                    kind: FaultKind::RequestLoss {
                        node: NodeId(rng.gen_range(0..node_count)),
                    },
                });
            }
        }
        let (lo, hi) = config.stall_range_s;
        for _ in 0..config.charger_stalls {
            events.push(FaultEvent {
                at_s: rng.gen_range(0.0..horizon_s),
                kind: FaultKind::ChargerStall {
                    delay_s: rng.gen_range(lo..hi),
                },
            });
        }
        let mut plan = FaultPlan { seed, events };
        plan.sort();
        plan
    }

    /// Builds a plan from explicit events (sorted by time on construction).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        let mut plan = FaultPlan { seed: 0, events };
        plan.sort();
        plan
    }

    fn sort(&mut self) {
        // Stable sort with a total float order: NaN times are rejected by
        // construction (gen_range never yields one), and ties keep the fixed
        // generation order, so the plan is fully deterministic.
        self.events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    }

    /// The scheduled events, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Runtime state of a fault plan attached to a running world.
///
/// The world pops due events out of the injector as simulation time crosses
/// them and mutates itself accordingly; the injector additionally carries the
/// *armed* state whose effect is deferred — degraded per-node efficiency,
/// the accumulated travel stall, and pending request losses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Index of the next un-injected event.
    next: usize,
    /// Per-node charging-efficiency factors; empty means "all 1.0" and the
    /// vector is only materialized by the first degradation.
    efficiency: Vec<f64>,
    /// Armed travel delay applied to (and cleared by) the charger's next
    /// move, seconds.
    pending_stall_s: f64,
    /// Nodes whose next charging request is dropped, arm order.
    armed_losses: Vec<NodeId>,
}

impl FaultInjector {
    /// Wraps a plan with fresh runtime state.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            next: 0,
            efficiency: Vec::new(),
            pending_stall_s: 0.0,
            armed_losses: Vec::new(),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Absolute time of the next un-injected event, if any.
    pub fn next_event_at(&self) -> Option<f64> {
        self.plan.events.get(self.next).map(|e| e.at_s)
    }

    /// Pops the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: f64) -> Option<FaultEvent> {
        let event = *self.plan.events.get(self.next)?;
        if event.at_s <= now {
            self.next += 1;
            Some(event)
        } else {
            None
        }
    }

    /// Events injected so far.
    pub fn injected(&self) -> usize {
        self.next
    }

    /// The charging-efficiency factor of `node` (1.0 unless degraded).
    pub fn efficiency(&self, node: NodeId) -> f64 {
        self.efficiency.get(node.0).copied().unwrap_or(1.0)
    }

    /// Compounds a degradation of `node` by `factor` (network of `n` nodes).
    pub fn degrade(&mut self, node: NodeId, factor: f64, n: usize) {
        if self.efficiency.is_empty() {
            self.efficiency.resize(n.max(node.0 + 1), 1.0);
        } else if self.efficiency.len() <= node.0 {
            self.efficiency.resize(node.0 + 1, 1.0);
        }
        self.efficiency[node.0] = (self.efficiency[node.0] * factor).max(0.0);
    }

    /// Arms `delay_s` of travel stall (accumulates until taken).
    pub fn arm_stall(&mut self, delay_s: f64) {
        self.pending_stall_s += delay_s.max(0.0);
    }

    /// Takes (and clears) the armed travel stall.
    pub fn take_stall(&mut self) -> f64 {
        std::mem::replace(&mut self.pending_stall_s, 0.0)
    }

    /// The armed (not yet taken) travel stall, seconds.
    pub fn pending_stall_s(&self) -> f64 {
        self.pending_stall_s
    }

    /// Arms a request loss for `node`.
    pub fn arm_request_loss(&mut self, node: NodeId) {
        self.armed_losses.push(node);
    }

    /// Consumes one armed request loss for `node`, if any.
    pub fn consume_request_loss(&mut self, node: NodeId) -> bool {
        match self.armed_losses.iter().position(|&n| n == node) {
            Some(idx) => {
                self.armed_losses.remove(idx);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = FaultConfig::uniform(5);
        let a = FaultPlan::generate(42, 30, 1.0e6, &cfg);
        let b = FaultPlan::generate(42, 30, 1.0e6, &cfg);
        let c = FaultPlan::generate(43, 30, 1.0e6, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different plans");
        assert_eq!(a.len(), cfg.total());
    }

    #[test]
    fn events_are_sorted_and_inside_horizon() {
        let plan = FaultPlan::generate(7, 50, 5_000.0, &FaultConfig::uniform(8));
        let mut last = 0.0;
        for e in plan.events() {
            assert!(e.at_s >= last, "events must ascend");
            assert!((0.0..5_000.0).contains(&e.at_s));
            last = e.at_s;
        }
    }

    #[test]
    fn none_plan_is_empty_and_injector_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(inj.plan().is_empty());
        assert_eq!(inj.next_event_at(), None);
        assert_eq!(inj.pop_due(f64::INFINITY), None);
        assert_eq!(inj.efficiency(NodeId(3)), 1.0);
        assert_eq!(inj.take_stall(), 0.0);
        assert!(!inj.consume_request_loss(NodeId(0)));
    }

    #[test]
    fn pop_due_respects_time_and_order() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at_s: 20.0,
                kind: FaultKind::ChargerStall { delay_s: 5.0 },
            },
            FaultEvent {
                at_s: 10.0,
                kind: FaultKind::NodeFailure { node: NodeId(1) },
            },
        ]);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.next_event_at(), Some(10.0));
        assert_eq!(inj.pop_due(5.0), None);
        let first = inj.pop_due(10.0).unwrap();
        assert_eq!(first.kind, FaultKind::NodeFailure { node: NodeId(1) });
        assert_eq!(inj.pop_due(15.0), None);
        assert!(inj.pop_due(25.0).is_some());
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn degradations_compound_and_stalls_accumulate() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        inj.degrade(NodeId(2), 0.5, 4);
        inj.degrade(NodeId(2), 0.5, 4);
        assert!((inj.efficiency(NodeId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(inj.efficiency(NodeId(0)), 1.0);
        inj.arm_stall(10.0);
        inj.arm_stall(20.0);
        assert_eq!(inj.pending_stall_s(), 30.0);
        assert_eq!(inj.take_stall(), 30.0);
        assert_eq!(inj.take_stall(), 0.0);
    }

    #[test]
    fn request_losses_are_consumed_once_per_arming() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        inj.arm_request_loss(NodeId(4));
        assert!(!inj.consume_request_loss(NodeId(3)));
        assert!(inj.consume_request_loss(NodeId(4)));
        assert!(!inj.consume_request_loss(NodeId(4)));
    }

    #[test]
    fn injector_serde_round_trips_runtime_state() {
        let plan = FaultPlan::generate(3, 10, 100.0, &FaultConfig::uniform(2));
        let mut inj = FaultInjector::new(plan);
        inj.pop_due(f64::INFINITY);
        inj.degrade(NodeId(1), 0.7, 10);
        inj.arm_stall(12.5);
        inj.arm_request_loss(NodeId(9));
        let text = serde_json::to_string(&inj).unwrap();
        let back: FaultInjector = serde_json::from_str(&text).unwrap();
        assert_eq!(back, inj);
    }
}
