//! Simulation-level invariants across policies, including failure injection.

use wrsn::charge::{EarliestDeadlineFirst, Njnp, PeriodicTsp};
use wrsn::core::attack::CsaAttackPolicy;
use wrsn::net::NodeId;
use wrsn::scenario::Scenario;
use wrsn::sim::{ChargerPolicy, IdlePolicy, SimEvent, World};

fn policies(scenario: &Scenario) -> Vec<Box<dyn ChargerPolicy>> {
    vec![
        Box::new(IdlePolicy),
        Box::new(Njnp::new()),
        Box::new(PeriodicTsp::new(scenario.sink(), 50_000.0)),
        Box::new(EarliestDeadlineFirst::new()),
        Box::new(CsaAttackPolicy::new(scenario.tide_config())),
    ]
}

fn run(scenario: &Scenario, policy: &mut dyn ChargerPolicy) -> World {
    let mut world = scenario.build();
    world.run(policy).expect("run");
    world
}

#[test]
fn batteries_never_leave_bounds_under_any_policy() {
    let scenario = Scenario::paper_scale(40, 17);
    for mut policy in policies(&scenario) {
        let world = run(&scenario, policy.as_mut());
        let net = world.network();
        for i in 0..net.node_count() {
            let level = net.levels_j()[i];
            assert!(
                (0.0..=net.capacities_j()[i] + 1e-9).contains(&level),
                "{}: level {level} out of bounds",
                policy.name()
            );
        }
    }
}

#[test]
fn charger_budget_is_never_overspent() {
    let scenario = Scenario::paper_scale(40, 19);
    for mut policy in policies(&scenario) {
        let world = run(&scenario, policy.as_mut());
        assert!(
            world.charger().energy_j() >= -1e-6,
            "{}: negative charger energy",
            policy.name()
        );
        let report = world.report(policy.name());
        assert!(report.charger_energy_used_j <= world.charger().capacity_j() + 1e-6);
    }
}

#[test]
fn death_events_are_time_ordered_and_unique() {
    let scenario = Scenario::paper_scale(50, 23);
    for mut policy in policies(&scenario) {
        let world = run(&scenario, policy.as_mut());
        let deaths = world.trace().death_times();
        for pair in deaths.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "{}: deaths out of order",
                policy.name()
            );
        }
        let mut ids: Vec<NodeId> = deaths.iter().map(|&(n, _)| n).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "{}: duplicate death", policy.name());
        // Dead nodes really are dead.
        for id in ids {
            assert!(!world.network().alive(id.0));
        }
    }
}

#[test]
fn sessions_are_consistent_with_events() {
    let scenario = Scenario::paper_scale(40, 29);
    let mut policy = Njnp::new();
    let world = run(&scenario, &mut policy);
    for s in world.trace().sessions() {
        assert!(s.duration_s >= 0.0);
        assert!(s.delivered_j >= -1e-9);
        assert!(s.radiated_j >= -1e-9);
        assert!(s.start_s + s.duration_s <= world.time_s() + 1e-6);
    }
    // Every session index mentioned by an event exists.
    for (_, event) in world.trace().events() {
        if let SimEvent::SessionEnded { session } = event {
            assert!(*session < world.trace().sessions().len());
        }
    }
}

#[test]
fn horizon_is_respected_exactly() {
    let mut scenario = Scenario::paper_scale(30, 31);
    scenario.horizon_s = 12_345.0;
    for mut policy in policies(&scenario) {
        let world = run(&scenario, policy.as_mut());
        assert!(
            (world.time_s() - 12_345.0).abs() < 1e-6,
            "{}: ended at {}",
            policy.name(),
            world.time_s()
        );
    }
}

#[test]
fn failure_injection_mid_run_is_survivable() {
    // Kill a batch of nodes at t=0 via direct battery writes, then run every
    // policy: no panics, and the dead stay dead.
    let scenario = Scenario::paper_scale(40, 37);
    for mut policy in policies(&scenario) {
        let mut world = scenario.build();
        for i in (0..40).step_by(5) {
            world.set_battery_level(NodeId(i), 0.0).unwrap();
        }
        world.run(policy.as_mut()).expect("run");
        for i in (0..40).step_by(5) {
            assert!(!world.network().alive(i));
        }
    }
}

#[test]
fn total_delivered_energy_is_bounded_by_radiated() {
    // A charger cannot deliver more DC than it radiates (efficiency ≤ 1 at
    // these geometries).
    let scenario = Scenario::paper_scale(40, 41);
    for mut policy in policies(&scenario) {
        let world = run(&scenario, policy.as_mut());
        let delivered = world.trace().total_delivered_j();
        let radiated = world.trace().total_radiated_j();
        assert!(
            delivered <= radiated + 1e-6,
            "{}: delivered {delivered} > radiated {radiated}",
            policy.name()
        );
    }
}

#[test]
fn world_snapshot_round_trips_through_json() {
    let scenario = Scenario::paper_scale(30, 43);
    let mut world = scenario.build();
    world.run(&mut Njnp::new()).expect("run");
    let json = serde_json::to_string(&world).expect("serialize");
    let back: World = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.time_s(), world.time_s());
    assert_eq!(back.trace().sessions(), world.trace().sessions());
    assert_eq!(back.trace().death_times(), world.trace().death_times());
    assert_eq!(back.network().node_count(), world.network().node_count());
    for (a, b) in back
        .network()
        .levels_j()
        .iter()
        .zip(world.network().levels_j())
    {
        assert_eq!(a, b);
    }
    // Derived routing state (with its INFINITY distances) survived too.
    for id in back.network().ids() {
        assert_eq!(back.tree().is_reachable(id), world.tree().is_reachable(id));
    }
    // Detectors work identically on the reloaded snapshot.
    for detector in wrsn::core::detect::standard_detectors() {
        assert_eq!(
            detector.analyze(&world).alarm_count(),
            detector.analyze(&back).alarm_count(),
            "{}",
            detector.name()
        );
    }
}
