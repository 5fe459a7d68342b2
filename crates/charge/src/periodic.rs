//! Periodic TSP charging: tour every node on a 2-opt-improved cycle, topping
//! each battery up, then return to the depot and wait out the rest of the
//! period. The deterministic, observable rhythm of this scheme is exactly the
//! behaviour a spoofing attacker can imitate.

use wrsn_net::{NodeId, Point};
use wrsn_sim::obs::{Counter, NullRecorder, Recorder};
use wrsn_sim::{ChargeMode, ChargerAction, ChargerPolicy, WorldView};

use crate::refill_duration_s;
use crate::tour::plan_tour;

/// State of the periodic tour.
#[derive(Debug, Clone)]
enum Phase {
    /// Waiting at the depot for the next round to start.
    AtDepot { next_round_at_s: f64 },
    /// Serving the tour; `queue` holds the remaining node visits.
    Touring { queue: Vec<NodeId> },
    /// Driving home after a round.
    Returning,
}

/// The periodic-TSP charging policy.
///
/// # Example
///
/// ```
/// use wrsn_net::Point;
/// use wrsn_charge::PeriodicTsp;
///
/// let policy = PeriodicTsp::new(Point::new(0.0, 0.0), 7200.0);
/// assert_eq!(policy.period_s(), 7200.0);
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicTsp {
    depot: Point,
    period_s: f64,
    phase: Phase,
    /// Only top up nodes whose level is below this fraction of capacity.
    topup_threshold: f64,
}

impl PeriodicTsp {
    /// A periodic tour from `depot` every `period_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not finite and positive.
    pub fn new(depot: Point, period_s: f64) -> Self {
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "period must be positive"
        );
        PeriodicTsp {
            depot,
            period_s,
            phase: Phase::AtDepot {
                next_round_at_s: 0.0,
            },
            topup_threshold: 0.95,
        }
    }

    /// The configured period, seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    fn plan_round(&self, view: &WorldView<'_>, rec: &mut dyn Recorder) -> Vec<NodeId> {
        rec.add(Counter::TourRebuilds, 1);
        let levels = view.net.levels_j();
        let caps = view.net.capacities_j();
        let candidates: Vec<NodeId> = view
            .net
            .ids()
            .filter(|&id| view.is_alive(id) && levels[id.0] / caps[id.0] < self.topup_threshold)
            .collect();
        let points: Vec<Point> = candidates
            .iter()
            .map(|id| view.net.positions()[id.0])
            .collect();
        let (order, _) = plan_tour(view.charger.position(), &points, rec);
        order.into_iter().map(|i| candidates[i]).collect()
    }

    fn decide(&mut self, view: &WorldView<'_>, rec: &mut dyn Recorder) -> ChargerAction {
        if view.should_recharge(0.15) {
            return ChargerAction::Recharge;
        }
        if view.charger.is_exhausted() {
            return ChargerAction::Finish;
        }
        loop {
            match &mut self.phase {
                Phase::AtDepot { next_round_at_s } => {
                    if view.time_s < *next_round_at_s {
                        let wait = (*next_round_at_s - view.time_s).min(view.time_left_s());
                        if wait <= 0.0 {
                            return ChargerAction::Finish;
                        }
                        return ChargerAction::Wait(wait);
                    }
                    let queue = self.plan_round(view, rec);
                    self.phase = Phase::Touring { queue };
                }
                Phase::Touring { queue } => {
                    // Skip nodes that died or refilled since planning.
                    while let Some(&next) = queue.first() {
                        if view.is_alive(next) {
                            break;
                        }
                        queue.remove(0);
                    }
                    match queue.first().copied() {
                        Some(node) => {
                            queue.remove(0);
                            let dur = refill_duration_s(view, node).unwrap_or(0.0);
                            if dur <= 0.0 {
                                continue;
                            }
                            return ChargerAction::Charge {
                                node,
                                duration_s: dur,
                                mode: ChargeMode::Honest,
                            };
                        }
                        None => {
                            self.phase = Phase::Returning;
                        }
                    }
                }
                Phase::Returning => {
                    let next_round =
                        view.time_s + view.charger.travel_time_to(self.depot).max(0.0) + 1.0;
                    // Schedule the next round one full period after this
                    // round's start would have ended, approximated from now.
                    let next_round_at_s = next_round.max(view.time_s + self.period_s * 0.1);
                    self.phase = Phase::AtDepot {
                        next_round_at_s: next_round_at_s
                            .max(round_start_after(view.time_s, self.period_s)),
                    };
                    return ChargerAction::MoveTo(self.depot);
                }
            }
        }
    }
}

impl ChargerPolicy for PeriodicTsp {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        self.decide(view, &mut NullRecorder)
    }

    fn next_action_observed(
        &mut self,
        view: &WorldView<'_>,
        rec: &mut dyn Recorder,
    ) -> ChargerAction {
        self.decide(view, rec)
    }

    fn name(&self) -> &str {
        "periodic-tsp"
    }
}

/// The next multiple of `period` strictly after `now`.
fn round_start_after(now: f64, period: f64) -> f64 {
    (now / period).floor() * period + period
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_net::prelude::*;
    use wrsn_sim::prelude::*;

    #[test]
    fn round_start_math() {
        assert_eq!(round_start_after(0.0, 100.0), 100.0);
        assert_eq!(round_start_after(250.0, 100.0), 300.0);
        assert_eq!(round_start_after(299.999, 100.0), 300.0);
    }

    #[test]
    fn periodic_tour_tops_up_drained_nodes() {
        // Small 200 J batteries so a ~0.11 W charger refills each in ~15 min.
        let nodes: Vec<SensorNode> = deploy::grid(&Region::square(40.0), 2, 2, 0.0, 0)
            .into_iter()
            .map(|n| SensorNode::with_battery(n.position(), Battery::new(200.0, 40.0)))
            .collect();
        let net = Network::build(nodes, Point::new(20.0, 20.0), 30.0);
        let mut w = World::new(
            net,
            MobileCharger::standard(Point::new(20.0, 20.0)),
            WorldConfig {
                horizon_s: 20_000.0,
                ..WorldConfig::default()
            },
        );
        for i in 0..4 {
            w.set_battery_level(NodeId(i), 100.0).unwrap();
        }
        let report = w
            .run(&mut PeriodicTsp::new(Point::new(20.0, 20.0), 10_000.0))
            .expect("run");
        assert!(report.sessions >= 4, "sessions = {}", report.sessions);
        for i in 0..4 {
            assert!(
                w.network().levels_j()[i] / w.network().capacities_j()[i] > 0.5,
                "node {i} not topped up"
            );
        }
    }

    #[test]
    fn periodic_policy_is_deterministic() {
        let build = || {
            let nodes = deploy::uniform(&Region::square(50.0), 8, 4);
            let net = Network::build(nodes, Point::new(25.0, 25.0), 25.0);
            let mut w = World::new(
                net,
                MobileCharger::standard(Point::new(25.0, 25.0)),
                WorldConfig {
                    horizon_s: 30_000.0,
                    ..WorldConfig::default()
                },
            );
            let cap = w.network().capacities_j()[0];
            for i in 0..8 {
                w.set_battery_level(NodeId(i), cap * 0.4).unwrap();
            }
            w
        };
        let mut w1 = build();
        let mut w2 = build();
        let r1 = w1
            .run(&mut PeriodicTsp::new(Point::new(25.0, 25.0), 8_000.0))
            .expect("run");
        let r2 = w2
            .run(&mut PeriodicTsp::new(Point::new(25.0, 25.0), 8_000.0))
            .expect("run");
        assert_eq!(r1.sessions, r2.sessions);
        assert_eq!(r1.total_delivered_j, r2.total_delivered_j);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = PeriodicTsp::new(Point::ORIGIN, 0.0);
    }
}
