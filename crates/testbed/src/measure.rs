//! Section-II style measurement campaigns on the emulated bench.
//!
//! Each campaign produces the noisy sample series a power meter would log,
//! next to the ideal physical law, so the experiment harness can print both —
//! exactly how the paper's measurement figures juxtapose dots and fitted
//! curves.

use serde::{Deserialize, Serialize};

use wrsn_em::fit::{fit_charge_model, FitResult};
use wrsn_em::noise::MeasurementNoise;
use wrsn_em::{superposition, CancelController, Wave};

use crate::hardware::TestbedParams;

/// A measured series: `(x, ideal y, measured y)` triples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredSeries {
    /// What `x` is (e.g. "phase offset (rad)").
    pub x_label: String,
    /// What `y` is (e.g. "normalised received power").
    pub y_label: String,
    /// The samples.
    pub samples: Vec<(f64, f64, f64)>,
}

/// Received power vs. phase offset for two equal-amplitude coherent waves —
/// the paper's "the superposition is nonlinear" measurement (`fig2`).
pub fn phase_offset_campaign(params: &TestbedParams, samples: usize) -> MeasuredSeries {
    let mut meter = MeasurementNoise::new(params.seed, params.meter_noise);
    let ideal = superposition::phase_sweep(1.0, 1.0, samples);
    MeasuredSeries {
        x_label: "phase offset (rad)".to_string(),
        y_label: "normalised received power".to_string(),
        samples: ideal
            .into_iter()
            .map(|(x, y)| (x, y, meter.noisy_power(y)))
            .collect(),
    }
}

/// Received charging power vs. distance, with the `α/(d+β)²` model fitted to
/// the noisy measurements (`fig3`). Returns the series and the fit.
pub fn distance_campaign(
    params: &TestbedParams,
    distances_m: &[f64],
) -> (MeasuredSeries, FitResult) {
    let mut meter = MeasurementNoise::new(params.seed.wrapping_add(1), params.meter_noise);
    let tx = params.transmitter().at(0.0, 0.0);
    let samples: Vec<(f64, f64, f64)> = distances_m
        .iter()
        .map(|&d| {
            let ideal = tx.solo_power_at((d, 0.0));
            (d, ideal, meter.noisy_power(ideal))
        })
        .collect();
    let measured: Vec<(f64, f64)> = samples.iter().map(|&(d, _, m)| (d, m)).collect();
    let fit = fit_charge_model(&measured, 3.0).expect("campaign has enough samples");
    (
        MeasuredSeries {
            x_label: "distance (m)".to_string(),
            y_label: "received power (W)".to_string(),
            samples,
        },
        fit,
    )
}

/// Residual (suppressed) power fraction vs. the attacker's phase / amplitude
/// tuning error (`fig4`): how precise must the cancellation be?
pub fn cancellation_robustness_campaign(
    params: &TestbedParams,
    phase_errors_rad: &[f64],
    amplitude_errors: &[f64],
) -> Vec<(f64, f64, f64)> {
    let primary = params.transmitter().at(0.0, 0.0);
    let helper = params.transmitter().at(0.3, 0.0);
    let controller = CancelController::new(&primary, &helper);
    let victim = (1.0, 0.0);
    let honest = controller.solve(victim).honest_power_w;
    let mut rows = Vec::new();
    for &pe in phase_errors_rad {
        for &ae in amplitude_errors {
            let residual = controller.residual_with_errors(victim, pe, ae);
            rows.push((pe, ae, residual / honest));
        }
    }
    rows
}

/// The two-wave superposition check the bench can do directly: measure the
/// three powers (each wave alone, then together) and report how far the
/// coherent sum deviates from naive addition. Returns
/// `(p1, p2, together, naive_sum)`.
pub fn superposition_check(params: &TestbedParams, delta_phase: f64) -> (f64, f64, f64, f64) {
    let mut meter = MeasurementNoise::new(params.seed.wrapping_add(2), params.meter_noise);
    let w1 = Wave::new(1.0, 0.0);
    let w2 = Wave::new(1.0, delta_phase);
    let p1 = meter.noisy_power(w1.solo_power());
    let p2 = meter.noisy_power(w2.solo_power());
    let together = meter.noisy_power(superposition::received_power(&[w1, w2]));
    (p1, p2, together, p1 + p2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn params() -> TestbedParams {
        TestbedParams::default()
    }

    #[test]
    fn phase_campaign_shows_null_at_pi() {
        let series = phase_offset_campaign(&params(), 181);
        let (x, ideal, measured) = series.samples[90];
        assert!((x - PI).abs() < 0.05);
        assert!(ideal < 1e-9);
        assert!(measured < 0.05, "measured null {measured}");
        // Peak at zero offset.
        assert!((series.samples[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_campaign_noise_is_bounded() {
        let series = phase_offset_campaign(&params(), 100);
        let sq: f64 = series
            .samples
            .iter()
            .map(|&(_, ideal, m)| (ideal - m).powi(2))
            .sum();
        let rms = (sq / series.samples.len() as f64).sqrt();
        assert!(rms < 0.1, "rms {rms}");
        assert!(rms > 0.0, "noise must actually perturb");
    }

    #[test]
    fn distance_campaign_fit_recovers_the_model() {
        let ds: Vec<f64> = (2..=30).map(|k| k as f64 * 0.1).collect();
        let (series, fit) = distance_campaign(&params(), &ds);
        assert_eq!(series.samples.len(), 29);
        let truth = wrsn_em::ChargeModel::powercast();
        assert!(
            (fit.alpha - truth.alpha()).abs() < 0.1,
            "alpha {}",
            fit.alpha
        );
        assert!((fit.beta - truth.beta()).abs() < 0.2, "beta {}", fit.beta);
        assert!(fit.r_squared > 0.9);
    }

    #[test]
    fn cancellation_residual_grows_with_error() {
        let rows = cancellation_robustness_campaign(&params(), &[0.0, 0.1, 0.3], &[0.0]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].2 < rows[1].2 && rows[1].2 < rows[2].2);
        assert!(rows[0].2 < 1e-12, "perfect tuning → zero residual");
    }

    #[test]
    fn superposition_check_antiphase_destroys_power() {
        let (p1, p2, together, naive) = superposition_check(&params(), PI);
        assert!(p1 > 0.5 && p2 > 0.5);
        assert!(
            together < 0.1 * naive,
            "together {together} vs naive {naive}"
        );
    }

    #[test]
    fn superposition_check_in_phase_exceeds_naive() {
        let (_, _, together, naive) = superposition_check(&params(), 0.0);
        assert!(together > 1.5 * naive / 2.0, "constructive gain visible");
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = phase_offset_campaign(&params(), 50);
        let b = phase_offset_campaign(&params(), 50);
        assert_eq!(a, b);
    }
}
