//! Property-based tests of the electromagnetic substrate.

use proptest::prelude::*;

use wrsn::em::{superposition, CancelController, ChargeModel, Phasor, Transmitter, Wave};

fn amplitude() -> impl Strategy<Value = f64> {
    0.0..10.0f64
}

fn phase() -> impl Strategy<Value = f64> {
    -10.0..10.0f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Coherent power always lies between 0 and the constructive bound.
    #[test]
    fn superposition_is_bounded(
        amps in prop::collection::vec(amplitude(), 0..6),
        phases in prop::collection::vec(phase(), 0..6),
    ) {
        let waves: Vec<Wave> = amps
            .iter()
            .zip(&phases)
            .map(|(&a, &p)| Wave::new(a, p))
            .collect();
        let power = superposition::received_power(&waves);
        // All phases aligned: (Σᵢ aᵢ)².
        let constructive = waves.iter().map(Wave::amplitude).sum::<f64>().powi(2);
        prop_assert!(power >= 0.0);
        prop_assert!(power <= constructive + 1e-9);
    }

    /// Adding a wave's exact antiphase removes its contribution entirely.
    #[test]
    fn antiphase_is_a_perfect_eraser(a in 0.01..5.0f64, p in phase(), others in prop::collection::vec((amplitude(), phase()), 0..4)) {
        let mut waves: Vec<Wave> = others.iter().map(|&(a, p)| Wave::new(a, p)).collect();
        let base = superposition::received_power(&waves);
        waves.push(Wave::new(a, p));
        waves.push(Wave::new(a, p).antiphase());
        let with_pair = superposition::received_power(&waves);
        prop_assert!((with_pair - base).abs() < 1e-6 * (1.0 + base));
    }

    /// Phasor addition is commutative and power is rotation-invariant.
    #[test]
    fn phasor_algebra(a in phase(), b in phase(), m1 in amplitude(), m2 in amplitude(), rot in phase()) {
        let p = Phasor::from_polar(m1, a);
        let q = Phasor::from_polar(m2, b);
        prop_assert!(((p + q) - (q + p)).magnitude() < 1e-12);
        prop_assert!(((p + q).rotate(rot).power() - (p + q).power()).abs() < 1e-9 * (1.0 + (p + q).power()));
    }

    /// The empirical charging model is non-negative and non-increasing.
    #[test]
    fn charge_model_monotone(alpha in 0.01..10.0f64, beta in 0.01..2.0f64, d1 in 0.0..5.0f64, d2 in 0.0..5.0f64) {
        let m = ChargeModel::new(alpha, beta, 5.0).unwrap();
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.power_at(near) >= m.power_at(far));
        prop_assert!(m.power_at(far) >= 0.0);
    }

    /// Cancellation never *increases* the victim's power, wherever the
    /// victim is, and residuals are monotone in phase error.
    #[test]
    fn cancellation_never_amplifies(x in -3.0..3.0f64, y in -3.0..3.0f64) {
        prop_assume!(x.hypot(y) > 0.2); // not on top of the antenna
        let primary = Transmitter::powercast().at(0.0, 0.0);
        let helper = Transmitter::powercast().at(0.1, 0.0);
        let c = CancelController::new(&primary, &helper);
        let sol = c.solve((x, y));
        prop_assert!(sol.residual_power_w <= sol.honest_power_w + 1e-12);
        let r_small = c.residual_with_errors((x, y), 0.01, 0.0);
        let r_big = c.residual_with_errors((x, y), 0.3, 0.0);
        prop_assert!(r_small <= r_big + 1e-12);
    }

    /// Fitting recovers parameters from exact samples of any valid model.
    #[test]
    fn fit_recovers_exact_models(alpha in 0.05..2.0f64, beta in 0.1..1.5f64) {
        let truth = ChargeModel::new(alpha, beta, 10.0).unwrap();
        let samples: Vec<(f64, f64)> = (1..40)
            .map(|k| {
                let d = k as f64 * 0.1;
                (d, truth.power_at(d))
            })
            .collect();
        let fit = wrsn::em::fit::fit_charge_model(&samples, 3.0).unwrap();
        prop_assert!((fit.alpha - alpha).abs() < 0.02 * alpha.max(0.1), "alpha {} vs {}", fit.alpha, alpha);
        prop_assert!((fit.beta - beta).abs() < 0.05, "beta {} vs {}", fit.beta, beta);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `m+1` antennas null `m` victims exactly, with weights within rated
    /// power, for arbitrary victim layouts in front of the array.
    #[test]
    fn beamforming_nulls_every_victim(
        m in 1usize..5,
        coords in prop::collection::vec((1.2..3.0f64, -1.5..1.5f64), 5),
        spacing in 0.2..0.5f64,
    ) {
        use wrsn::em::beamform;
        let victims: Vec<(f64, f64)> = coords.into_iter().take(m).collect();
        prop_assume!(victims.len() == m);
        // Degenerate layouts (two victims nearly coincident) make the channel
        // matrix ill-conditioned; skip them like a real attacker would.
        for i in 0..m {
            for j in (i + 1)..m {
                let d = (victims[i].0 - victims[j].0).hypot(victims[i].1 - victims[j].1);
                prop_assume!(d > 0.05);
            }
        }
        let antennas = beamform::linear_array(m + 1, 0.0, 0.0, spacing);
        let weights = beamform::null_weights(&antennas, &victims).expect("null space exists");
        for w in &weights {
            prop_assert!(w.magnitude() <= 1.0 + 1e-9);
        }
        for &v in &victims {
            let residual = beamform::received_power_with_weights(&antennas, &weights, v);
            prop_assert!(residual < 1e-10, "victim {v:?} residual {residual}");
        }
    }
}
