//! Property-based tests of the TIDE planners.

use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wrsn::core::schedule::{earliest_times, latest_start_shift};
use wrsn::core::tide::{TideInstance, TimeWindow, Victim};
use wrsn::core::{baseline, csa, exact, theory};
use wrsn::net::{NodeId, Point};
use wrsn::sim::obs::NullRecorder;

fn random_instance(n: usize, seed: u64, window: f64, budget: f64) -> TideInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let victims = (0..n)
        .map(|i| {
            let open = rng.gen_range(0.0..500.0);
            let len = rng.gen_range(0.2 * window..2.0 * window);
            Victim {
                node: NodeId(i),
                position: Point::new(rng.gen_range(0.0..150.0), rng.gen_range(0.0..150.0)),
                weight: rng.gen_range(1.0..5.0),
                window: TimeWindow {
                    open_s: open,
                    close_s: open + len,
                },
                service_s: rng.gen_range(10.0..80.0),
                death_s: open + len + 100.0,
            }
        })
        .collect();
    TideInstance {
        victims,
        start: Point::new(75.0, 75.0),
        speed_mps: 5.0,
        budget_j: budget,
        move_cost_j_per_m: 1.0,
        radiated_power_w: 1.0,
        now_s: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every planner always emits a schedule the instance validates.
    #[test]
    fn planners_emit_feasible_schedules(n in 1usize..12, seed in 0u64..100, window in 50.0..800.0f64, budget in 100.0..3000.0f64) {
        let inst = random_instance(n, seed, window, budget);
        for planner in baseline::standard_planners(seed) {
            let s = planner.plan(&inst, &mut NullRecorder);
            prop_assert!(inst.validate(&s).is_ok(), "{} emitted invalid schedule", planner.name());
            prop_assert!(inst.energy_cost(&s) <= inst.budget_j + 1e-6);
        }
    }

    /// CSA dominates the deterministic baselines on *every* instance — a
    /// structural guarantee, since their orders are in CSA's candidate pool.
    /// (The random baseline can only be dominated on average; `fig5` shows
    /// that.)
    #[test]
    fn csa_dominates_deterministic_baselines(n in 1usize..10, seed in 0u64..100) {
        let inst = random_instance(n, seed, 300.0, 800.0);
        let planners = baseline::standard_planners(seed);
        let csa_u = inst.utility(&planners[0].plan(&inst, &mut NullRecorder));
        for p in &planners[1..3] {
            prop_assert!(csa_u + 1e-9 >= inst.utility(&p.plan(&inst, &mut NullRecorder)), "beaten by {}", p.name());
        }
    }

    /// CSA never beats the exact optimum, and stays above the guarantee.
    #[test]
    fn csa_between_guarantee_and_optimum(n in 1usize..8, seed in 0u64..100) {
        let inst = random_instance(n, seed, 300.0, 600.0);
        let opt = inst.utility(&exact::solve(&inst));
        let got = inst.utility(&csa::plan(&inst));
        prop_assert!(got <= opt + 1e-6);
        prop_assert!(theory::approximation_ratio(got, opt) >= theory::greedy_guarantee() - 1e-9);
    }

    /// Latest-start shifting preserves feasibility and never starts earlier.
    #[test]
    fn latest_shift_is_sound(n in 1usize..10, seed in 0u64..100) {
        let inst = random_instance(n, seed, 400.0, 5000.0);
        let order: Vec<usize> = (0..inst.victim_count()).collect();
        if let Some(early) = earliest_times(&inst, &order) {
            let late = latest_start_shift(&inst, &early);
            prop_assert!(inst.validate(&late).is_ok());
            for (a, b) in early.stops().iter().zip(late.stops()) {
                prop_assert!(b.begin_s + 1e-9 >= a.begin_s);
            }
            // Same victims, same order.
            prop_assert_eq!(early.order(), late.order());
        }
    }

    /// Utility upper bound dominates everything any planner achieves.
    #[test]
    fn upper_bound_dominates(n in 1usize..10, seed in 0u64..100) {
        let inst = random_instance(n, seed, 250.0, 700.0);
        let ub = theory::utility_upper_bound(&inst);
        for planner in baseline::standard_planners(seed) {
            prop_assert!(ub + 1e-9 >= inst.utility(&planner.plan(&inst, &mut NullRecorder)));
        }
    }
}
