//! Least-squares fitting of the empirical charging model.
//!
//! The paper's Section II fits `P(d) = α/(d+β)²` to measured `(d, P)` samples.
//! For a fixed `β` the model is linear in `α`, so the optimal `α` has a closed
//! form; the fitter grid-searches `β` and refines it by golden-section search.

use crate::error::EmError;

/// Result of fitting `P(d) = α/(d+β)²` to samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Fitted `α` (W·m²).
    pub alpha: f64,
    /// Fitted `β` (m).
    pub beta: f64,
    /// Residual sum of squares at the optimum.
    pub rss: f64,
    /// Coefficient of determination `R²` (1 = perfect fit).
    pub r_squared: f64,
}

/// For fixed `β`, the optimal `α` and resulting RSS.
fn solve_alpha(samples: &[(f64, f64)], beta: f64) -> (f64, f64) {
    // Model: P ≈ α·w(d) with w = 1/(d+β)². Least squares: α = Σ P·w / Σ w².
    let mut num = 0.0;
    let mut den = 0.0;
    for &(d, p) in samples {
        let w = 1.0 / ((d + beta) * (d + beta));
        num += p * w;
        den += w * w;
    }
    let alpha = if den > 0.0 { num / den } else { 0.0 };
    let rss = samples
        .iter()
        .map(|&(d, p)| {
            let w = 1.0 / ((d + beta) * (d + beta));
            let e = p - alpha * w;
            e * e
        })
        .sum();
    (alpha, rss)
}

/// Fits `P(d) = α/(d+β)²` to `(distance, power)` samples.
///
/// `β` is searched over `(0, beta_max]`.
///
/// # Errors
///
/// Returns [`EmError::TooFewSamples`] for fewer than 3 samples, or
/// [`EmError::NonFiniteParameter`] if any sample is non-finite or any distance
/// is negative.
///
/// # Example
///
/// ```
/// use wrsn_em::{fit::fit_charge_model, ChargeModel};
///
/// let truth = ChargeModel::powercast();
/// let samples: Vec<(f64, f64)> =
///     (1..20).map(|k| { let d = k as f64 * 0.2; (d, truth.power_at(d)) }).collect();
/// let fit = fit_charge_model(&samples, 2.0).unwrap();
/// assert!((fit.alpha - truth.alpha()).abs() < 1e-6);
/// assert!((fit.beta - truth.beta()).abs() < 1e-4);
/// ```
pub fn fit_charge_model(samples: &[(f64, f64)], beta_max: f64) -> Result<FitResult, EmError> {
    if samples.len() < 3 {
        return Err(EmError::TooFewSamples {
            got: samples.len(),
            need: 3,
        });
    }
    for &(d, p) in samples {
        if !d.is_finite() || !p.is_finite() || d < 0.0 {
            return Err(EmError::NonFiniteParameter { name: "samples" });
        }
    }

    // Coarse grid over β.
    let grid = 200;
    let mut best_beta = beta_max / grid as f64;
    let mut best_rss = f64::INFINITY;
    for k in 1..=grid {
        let beta = beta_max * k as f64 / grid as f64;
        let (_, rss) = solve_alpha(samples, beta);
        if rss < best_rss {
            best_rss = rss;
            best_beta = beta;
        }
    }

    // Golden-section refinement around the best grid cell.
    let step = beta_max / grid as f64;
    let (mut lo, mut hi) = ((best_beta - step).max(1e-9), best_beta + step);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    for _ in 0..60 {
        let m1 = hi - phi * (hi - lo);
        let m2 = lo + phi * (hi - lo);
        let r1 = solve_alpha(samples, m1).1;
        let r2 = solve_alpha(samples, m2).1;
        if r1 < r2 {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let beta = 0.5 * (lo + hi);
    let (alpha, rss) = solve_alpha(samples, beta);

    let mean_p = samples.iter().map(|s| s.1).sum::<f64>() / samples.len() as f64;
    let tss: f64 = samples
        .iter()
        .map(|s| (s.1 - mean_p) * (s.1 - mean_p))
        .sum();
    let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };

    Ok(FitResult {
        alpha,
        beta,
        rss,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charging::ChargeModel;
    use crate::noise::MeasurementNoise;

    fn exact_samples(model: &ChargeModel, n: usize) -> Vec<(f64, f64)> {
        (1..=n)
            .map(|k| {
                let d = k as f64 * 3.0 / n as f64;
                (d, model.power_at(d))
            })
            .collect()
    }

    #[test]
    fn recovers_exact_parameters() {
        let truth = ChargeModel::new(0.4, 0.8, 10.0).unwrap();
        let fit = fit_charge_model(&exact_samples(&truth, 30), 3.0).unwrap();
        assert!((fit.alpha - 0.4).abs() < 1e-6, "alpha = {}", fit.alpha);
        assert!((fit.beta - 0.8).abs() < 1e-4, "beta = {}", fit.beta);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn tolerates_measurement_noise() {
        let truth = ChargeModel::powercast();
        let mut noise = MeasurementNoise::new(1234, 0.03);
        let samples = noise.noisy_series(&exact_samples(&truth, 60));
        let fit = fit_charge_model(&samples, 3.0).unwrap();
        assert!((fit.alpha - truth.alpha()).abs() < 0.05);
        assert!((fit.beta - truth.beta()).abs() < 0.1);
        assert!(fit.r_squared > 0.95, "R² = {}", fit.r_squared);
    }

    #[test]
    fn too_few_samples_error() {
        assert!(matches!(
            fit_charge_model(&[(1.0, 0.1), (2.0, 0.05)], 3.0),
            Err(EmError::TooFewSamples { got: 2, need: 3 })
        ));
    }

    #[test]
    fn rejects_non_finite_samples() {
        let s = vec![(1.0, 0.1), (2.0, f64::NAN), (3.0, 0.01)];
        assert!(fit_charge_model(&s, 3.0).is_err());
    }

    #[test]
    fn rejects_negative_distance() {
        let s = vec![(-1.0, 0.1), (2.0, 0.2), (3.0, 0.01)];
        assert!(fit_charge_model(&s, 3.0).is_err());
    }
}
