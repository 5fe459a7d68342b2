//! Comparative behaviour across charger policies — the qualitative shapes
//! the evaluation section relies on.

use wrsn::charge::{EarliestDeadlineFirst, Njnp};
use wrsn::core::attack::CsaAttackPolicy;
use wrsn::core::baseline;
use wrsn::core::tide::TideInstance;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::NullRecorder;
use wrsn::sim::IdlePolicy;

#[test]
fn benign_charging_outlives_no_charging() {
    let scenario = Scenario::paper_scale(60, 2);
    let mut idle_world = scenario.build();
    idle_world.run(&mut IdlePolicy).expect("run");
    let mut edf_world = scenario.build();
    edf_world
        .run(&mut EarliestDeadlineFirst::new())
        .expect("run");

    let idle_life = idle_world.network_lifetime_s().unwrap_or(f64::INFINITY);
    let edf_life = edf_world.network_lifetime_s().unwrap_or(f64::INFINITY);
    assert!(
        edf_life > idle_life,
        "EDF lifetime {edf_life} not better than idle {idle_life}"
    );
}

#[test]
fn attack_kills_key_nodes_that_benign_charging_saves() {
    let scenario = Scenario::paper_scale(80, 4);

    let mut attack_world = scenario.build();
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());
    attack_world.run(&mut policy).expect("run");
    let census: Vec<_> = policy
        .initial_instance()
        .unwrap()
        .victims
        .iter()
        .map(|v| v.node)
        .collect();
    assert!(!census.is_empty());

    // Under the attack, (nearly) every census member is dead by the end of
    // the campaign; under EDF at the same instant, most are alive.
    let t_eval = attack_world
        .trace()
        .sessions()
        .iter()
        .map(|s| s.start_s + s.duration_s)
        .fold(0.0f64, f64::max);
    let mut benign_world = scenario.build();
    benign_world
        .run(&mut EarliestDeadlineFirst::new())
        .expect("run");

    let dead_at = |world: &wrsn::sim::World, t: f64| {
        census
            .iter()
            .filter(|n| {
                world
                    .trace()
                    .death_time_of(**n)
                    .map(|d| d <= t)
                    .unwrap_or(false)
            })
            .count()
    };
    let attacked = dead_at(&attack_world, t_eval);
    let benign = dead_at(&benign_world, t_eval);
    assert!(
        attacked > benign,
        "attack killed {attacked} key nodes by t={t_eval:.0}, benign lost {benign}"
    );
    assert!(
        attacked as f64 >= 0.8 * census.len() as f64,
        "attack only got {attacked}/{}",
        census.len()
    );
}

#[test]
fn csa_beats_every_baseline_on_real_instances() {
    for seed in 0..5u64 {
        let scenario = Scenario::paper_scale(120, seed);
        let world = scenario.build();
        let instance = TideInstance::from_world(&world, &scenario.tide_config());
        let planners = baseline::standard_planners(seed);
        let utilities: Vec<f64> = planners
            .iter()
            .map(|p| instance.utility(&p.plan(&instance, &mut NullRecorder)))
            .collect();
        for (k, u) in utilities.iter().enumerate().skip(1) {
            assert!(
                utilities[0] + 1e-9 >= *u,
                "seed {seed}: {} ({u}) beats CSA ({})",
                planners[k].name(),
                utilities[0]
            );
        }
    }
}

#[test]
fn attack_charger_spends_less_energy_per_dead_key_node_than_benign_saves() {
    // Economic sanity: the attack's cost per exhausted key node is finite and
    // far below the benign cost of keeping the network alive for the same
    // period (the attacker free-rides on radiation it never delivers).
    let scenario = Scenario::paper_scale(60, 8);
    let mut world = scenario.build();
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());
    let report = world.run(&mut policy).expect("run");
    let outcome = wrsn::core::attack::evaluate_attack(&world, &policy);
    assert!(outcome.exhausted > 0);
    let cost_per_kill = report.charger_energy_used_j / outcome.exhausted as f64;
    assert!(
        cost_per_kill < scenario.mc_energy_j,
        "cost per kill {cost_per_kill} exceeds the whole budget"
    );
}

#[test]
fn njnp_and_edf_both_serve_requesters() {
    let scenario = Scenario::paper_scale(40, 10);
    for (name, mut policy) in [
        (
            "njnp",
            Box::new(Njnp::new()) as Box<dyn wrsn::sim::ChargerPolicy>,
        ),
        ("edf", Box::new(EarliestDeadlineFirst::new())),
    ] {
        let mut world = scenario.build();
        world.run(policy.as_mut()).expect("run");
        assert!(
            !world.trace().sessions().is_empty(),
            "{name} never charged anyone"
        );
        assert!(world.trace().total_delivered_j() > 0.0);
    }
}
