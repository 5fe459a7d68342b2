//! Bit-identity of the incremental CSA planner.
//!
//! The planner in `wrsn_core::csa` evaluates insertions incrementally
//! (prefix folds + backward slacks) instead of rebuilding every candidate
//! route. That optimization claims **bit-identical** output. Two enforcement
//! layers:
//!
//! 1. a golden test against `(order, begin-time bit patterns)` captured from
//!    the pre-optimization naive planner — any rounding or tie-break drift
//!    fails loudly;
//! 2. a property test comparing the planner against [`reference::plan_with`],
//!    a verbatim copy of the naive clone-and-rescore greedy, under every
//!    ablation option combination (`AttackSchedule`'s derived `PartialEq`
//!    compares `f64`s exactly, so equality here is equality of bits).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wrsn_core::csa::{self, CsaOptions};
use wrsn_core::tide::{TideInstance, TimeWindow, Victim};
use wrsn_net::{NodeId, Point};
use wrsn_sim::obs::NullRecorder;

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

/// The pre-optimization planner, kept verbatim as the comparison oracle.
mod reference {
    use wrsn_core::csa::CsaOptions;
    use wrsn_core::schedule::{self, AttackSchedule};
    use wrsn_core::tide::TideInstance;
    use wrsn_sim::obs::NullRecorder;

    pub fn plan_with(instance: &TideInstance, opts: &CsaOptions) -> AttackSchedule {
        let n = instance.victims.len();
        let mut order: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut current_cost = 0.0f64;

        loop {
            let mut best: Option<(f64, f64, usize, usize)> = None; // (score, mcost, vi, pos)
            for &vi in &remaining {
                let weight = instance.victims[vi].weight;
                for pos in 0..=order.len() {
                    let mut candidate = order.clone();
                    candidate.insert(pos, vi);
                    let Some(sched) = schedule::earliest_times(instance, &candidate) else {
                        continue;
                    };
                    let cost = instance.energy_cost(&sched);
                    if cost > instance.budget_j {
                        continue;
                    }
                    let mcost = (cost - current_cost).max(0.0);
                    let score = if opts.ratio_ordering {
                        weight / (mcost + 1.0)
                    } else {
                        weight
                    };
                    let better = match best {
                        None => true,
                        Some((bs, bc, _, _)) => {
                            score > bs + 1e-12 || (score > bs - 1e-12 && mcost < bc)
                        }
                    };
                    if better {
                        best = Some((score, mcost, vi, pos));
                    }
                }
            }
            match best {
                Some((_, mcost, vi, pos)) => {
                    order.insert(pos, vi);
                    remaining.retain(|&x| x != vi);
                    current_cost += mcost;
                }
                None => break,
            }
        }

        if opts.route_improvement {
            improve_route(instance, &mut order);
        }

        let greedy =
            schedule::earliest_times(instance, &order).unwrap_or_else(AttackSchedule::empty);

        let mut candidates = vec![greedy, wrsn_core::csa::best_singleton(instance)];
        let points: Vec<wrsn_net::Point> = instance.victims.iter().map(|v| v.position).collect();
        let (tsp_order, _) =
            wrsn_charge::tour::plan_tour(instance.start, &points, &mut NullRecorder);
        candidates.push(schedule::from_order_skipping(instance, &tsp_order));
        let mut weight_order: Vec<usize> = (0..n).collect();
        weight_order.sort_by(|&a, &b| {
            instance.victims[b]
                .weight
                .partial_cmp(&instance.victims[a].weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        candidates.push(schedule::from_order_skipping(instance, &weight_order));

        let mut chosen = AttackSchedule::empty();
        let mut best_key = (f64::NEG_INFINITY, f64::INFINITY);
        for c in candidates {
            let key = (instance.utility(&c), instance.energy_cost(&c));
            if key.0 > best_key.0 + 1e-12 || (key.0 > best_key.0 - 1e-12 && key.1 < best_key.1) {
                best_key = key;
                chosen = c;
            }
        }

        if opts.latest_start {
            chosen = schedule::latest_start_shift(instance, &chosen);
        }
        chosen
    }

    fn improve_route(instance: &TideInstance, order: &mut [usize]) {
        let n = order.len();
        if n < 3 {
            return;
        }
        let cost_of = |ord: &[usize]| -> Option<f64> {
            let s = schedule::earliest_times(instance, ord)?;
            let c = instance.energy_cost(&s);
            (c <= instance.budget_j).then_some(c)
        };
        let Some(mut best_cost) = cost_of(order) else {
            return;
        };
        for _ in 0..16 {
            let mut improved = false;
            for i in 0..n - 1 {
                for j in i + 1..n {
                    order[i..=j].reverse();
                    match cost_of(order) {
                        Some(c) if c + 1e-9 < best_cost => {
                            best_cost = c;
                            improved = true;
                        }
                        _ => order[i..=j].reverse(), // undo
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
}

/// `(n, seed, window_s, budget_j, order, begin_s bit patterns)` recorded from
/// the pre-optimization planner (default options).
#[allow(clippy::type_complexity)]
fn golden_cases() -> Vec<(usize, u64, f64, f64, Vec<usize>, Vec<u64>)> {
    vec![
        (
            6,
            1,
            300.0,
            800.0,
            vec![4, 3, 2, 5, 0, 1],
            vec![
                4645497049730212555,
                4646204802586791894,
                4647082345997206069,
                4647767215779413412,
                4648814611292302974,
                4649143760519206422,
            ],
        ),
        (
            10,
            7,
            400.0,
            1500.0,
            vec![5, 2, 0, 3, 1, 6, 4, 8, 9, 7],
            vec![
                4643669552196000676,
                4645081563275639145,
                4645699918388160215,
                4646208052793552050,
                4647778834571885823,
                4647994133009249285,
                4648226447010161002,
                4648886339775325078,
                4649081880998047710,
                4650427490707342590,
            ],
        ),
        (
            14,
            21,
            600.0,
            2500.0,
            vec![7, 13, 9, 10, 4, 11, 1, 12, 3, 0, 6, 8, 5, 2],
            vec![
                4641547225916245632,
                4643237203019677137,
                4644107526344763965,
                4644537980124103092,
                4645822501659314328,
                4646564658383264880,
                4647024081051567805,
                4647455132333508841,
                4648093096620545441,
                4648312629055188637,
                4648828091008875759,
                4649358082346133390,
                4649855730975615278,
                4650556472470958282,
            ],
        ),
        (
            20,
            5,
            500.0,
            4000.0,
            vec![7, 19, 14, 15, 4, 12, 18, 3, 0, 17, 11, 13, 10, 16, 9, 8, 6],
            vec![
                4641306294570795242,
                4642411610169990102,
                4643429218300643712,
                4643734200640404512,
                4645074198873223340,
                4645870650018427528,
                4646592769708582907,
                4647672125939461903,
                4648400817434646885,
                4648850533847513220,
                4648973806820287038,
                4649245331206014243,
                4649791727788982525,
                4650482894091112998,
                4650996807692790096,
                4651673630554542104,
                4653100939134491987,
            ],
        ),
        (
            30,
            97,
            700.0,
            8000.0,
            vec![
                8, 15, 22, 1, 4, 10, 0, 13, 26, 25, 19, 12, 7, 6, 9, 28, 18, 14, 5, 23, 27, 24, 17,
                11,
            ],
            vec![
                4639986790884612898,
                4641988805166587672,
                4643242237423519654,
                4643550509239403080,
                4644940485712485949,
                4645839563858170298,
                4646570764446525385,
                4646768127964204229,
                4647352735770141108,
                4647927090573289410,
                4648279118631066035,
                4648726547308664304,
                4649465441801798036,
                4650042447331177119,
                4650401777649904578,
                4650680575718139018,
                4651431150716585685,
                4651572850106910629,
                4652186490369632623,
                4652396060954120876,
                4652744091404396876,
                4653071441006859042,
                4653343288618185145,
                4654472374637493843,
            ],
        ),
    ]
}

#[test]
fn golden_plans_from_the_naive_planner_are_reproduced_bit_for_bit() {
    for (n, seed, window, budget, order, begin_bits) in golden_cases() {
        let inst = random_instance(n, seed, window, budget);
        let p = csa::plan(&inst);
        assert_eq!(p.order(), order, "order drifted on n={n} seed={seed}");
        let bits: Vec<u64> = p.stops().iter().map(|s| s.begin_s.to_bits()).collect();
        assert_eq!(
            bits, begin_bits,
            "begin-time bits drifted on n={n} seed={seed}"
        );
    }
}

#[test]
fn golden_instances_also_match_the_reference_under_all_option_combinations() {
    for (n, seed, window, budget, _, _) in golden_cases() {
        let inst = random_instance(n, seed, window, budget);
        for &ratio_ordering in &[false, true] {
            for &route_improvement in &[false, true] {
                for &latest_start in &[false, true] {
                    let opts = CsaOptions {
                        ratio_ordering,
                        route_improvement,
                        latest_start,
                    };
                    assert_eq!(
                        csa::plan_with(&inst, &opts, &mut NullRecorder),
                        reference::plan_with(&inst, &opts),
                        "divergence on n={n} seed={seed} opts={opts:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental insertion ≡ recompute-from-scratch, bitwise, on random
    /// instances and every ablation switch.
    #[test]
    fn incremental_plan_equals_naive_plan_bitwise(
        n in 0usize..13,
        seed in 0u64..10_000,
        window in 20.0..900.0f64,
        budget in 50.0..5000.0f64,
        ratio_ordering in proptest::bool::ANY,
        route_improvement in proptest::bool::ANY,
        latest_start in proptest::bool::ANY,
    ) {
        let inst = random_instance(n, seed, window, budget);
        let opts = CsaOptions { ratio_ordering, route_improvement, latest_start };
        let fast = csa::plan_with(&inst, &opts, &mut NullRecorder);
        let naive = reference::plan_with(&inst, &opts);
        prop_assert_eq!(fast, naive);
    }
}
