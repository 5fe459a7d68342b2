//! Shared scaffolding for the experiments.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wrsn::core::attack::{evaluate_attack, AttackOutcome, CsaAttackPolicy};
use wrsn::core::tide::{TideConfig, TideInstance, TimeWindow, Victim};
use wrsn::net::{NodeId, Point};
use wrsn::scenario::Scenario;
use wrsn::sim::obs::Recorder;
use wrsn::sim::{SimReport, World};

/// Runs a full adaptive CSA campaign on `scenario`'s world, observed through
/// `rec`.
pub fn run_csa_with(
    scenario: &Scenario,
    rec: &mut dyn Recorder,
) -> (World, CsaAttackPolicy, SimReport, AttackOutcome) {
    let mut world = scenario.build();
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());
    // A `SimError` here means the experiment itself is broken (there is no
    // fault plan installed); panic and let the `exp` runner's panic-safe
    // harness report it per-experiment instead of threading Result through
    // every table builder.
    let report = world
        .run_with(&mut policy, rec)
        .expect("CSA campaign run failed");
    let outcome = evaluate_attack(&world, &policy);
    (world, policy, report, outcome)
}

/// Runs a CSA campaign on an already-built `world` with an explicit
/// `config` — the `scale` experiment's entry point, which needs to time
/// world construction separately and swap in an approximate key-node
/// census that stays tractable at 10⁶ nodes.
pub fn run_csa_scaled_with(
    world: &mut World,
    config: TideConfig,
    rec: &mut dyn Recorder,
) -> (SimReport, AttackOutcome) {
    let mut policy = CsaAttackPolicy::new(config);
    let report = world
        .run_with(&mut policy, rec)
        .expect("CSA campaign run failed");
    let outcome = evaluate_attack(world, &policy);
    (report, outcome)
}

/// A synthetic TIDE instance with `n` victims scattered around a 200 m disc,
/// windows of the given mean length — the workload for planner-only
/// experiments (`fig10`, `tab1`).
pub fn synthetic_instance(n: usize, seed: u64, window_len_s: f64, budget_j: f64) -> TideInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let victims = (0..n)
        .map(|i| {
            let open = rng.gen_range(0.0..600.0);
            let len = rng.gen_range(0.5 * window_len_s..1.5 * window_len_s);
            Victim {
                node: NodeId(i),
                position: Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)),
                weight: rng.gen_range(1.0..5.0),
                window: TimeWindow {
                    open_s: open,
                    close_s: open + len,
                },
                service_s: rng.gen_range(10.0..60.0),
                death_s: open + len + 60.0,
            }
        })
        .collect();
    TideInstance {
        victims,
        start: Point::new(100.0, 100.0),
        speed_mps: 5.0,
        budget_j,
        move_cost_j_per_m: 1.0,
        radiated_power_w: 1.0,
        now_s: 0.0,
    }
}

/// Dead-node count at time `t` from a run's death records.
pub fn dead_at(deaths: &[(NodeId, f64)], t: f64) -> usize {
    deaths.iter().filter(|&&(_, d)| d <= t).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_instance_is_deterministic_and_sized() {
        let a = synthetic_instance(12, 3, 300.0, 1e6);
        let b = synthetic_instance(12, 3, 300.0, 1e6);
        assert_eq!(a, b);
        assert_eq!(a.victim_count(), 12);
    }

    #[test]
    fn dead_at_counts_cumulatively() {
        let deaths = vec![(NodeId(0), 10.0), (NodeId(1), 20.0)];
        assert_eq!(dead_at(&deaths, 5.0), 0);
        assert_eq!(dead_at(&deaths, 10.0), 1);
        assert_eq!(dead_at(&deaths, 100.0), 2);
    }
}
