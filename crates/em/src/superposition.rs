//! The nonlinear superposition law — the attack's enabling physics.
//!
//! Coherent fields add as *phasors*, not as powers. For incident waves with
//! amplitudes `aᵢ` and phases `φᵢ`, the harvested power is
//!
//! ```text
//! P = |Σᵢ aᵢ·e^{jφᵢ}|²
//! ```
//!
//! which ranges from `0` (perfect destructive interference) up to `(Σᵢ aᵢ)²`
//! (perfect constructive interference). Naive energy accounting would predict
//! `Σᵢ aᵢ²`; the discrepancy between the coherent and the naive sum is exactly
//! what a Charging Spoofing Attacker exploits — and what this module quantifies.

use crate::phasor::Phasor;
use crate::wave::Wave;

/// Coherent received power of a set of waves, in watts.
///
/// Returns `|Σᵢ aᵢ·e^{jφᵢ}|²`. An empty slice yields `0.0`.
///
/// # Example
///
/// ```
/// use wrsn_em::{superposition, Wave};
///
/// let w = Wave::new(1.0, 0.0);
/// assert!((superposition::received_power(&[w, w]) - 4.0).abs() < 1e-12);
/// assert!(superposition::received_power(&[w, w.antiphase()]) < 1e-12);
/// ```
pub fn received_power(waves: &[Wave]) -> f64 {
    let sum: Phasor = waves.iter().map(Wave::phasor).sum();
    sum.power()
}

/// The power an *incoherent* (naive) model would predict: `Σᵢ aᵢ²`.
///
/// This is what a receiver's energy ledger "expects" when it is told that `n`
/// chargers are serving it; the gap to [`received_power`] is the spoofing gain.
pub fn incoherent_power(waves: &[Wave]) -> f64 {
    waves.iter().map(|w| w.solo_power()).sum()
}

/// Closed-form two-wave superposition:
/// `P = a₁² + a₂² + 2·a₁·a₂·cos(Δφ)`.
///
/// This is the formula the paper's Section-II measurements fit; it is exactly
/// [`received_power`] specialised to two waves.
fn two_wave_power(a1: f64, a2: f64, delta_phase: f64) -> f64 {
    a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * delta_phase.cos()
}

/// Normalised two-wave interference pattern sampled over `Δφ ∈ [0, 2π]`.
///
/// Returns `(delta_phase, power / peak_power)` pairs with `samples` points;
/// used to regenerate the paper's "received power vs. phase offset" figure.
///
/// # Panics
///
/// Panics if `samples < 2`.
pub fn phase_sweep(a1: f64, a2: f64, samples: usize) -> Vec<(f64, f64)> {
    assert!(samples >= 2, "need at least 2 samples");
    let peak = (a1 + a2) * (a1 + a2);
    (0..samples)
        .map(|k| {
            let dphi = 2.0 * std::f64::consts::PI * k as f64 / (samples - 1) as f64;
            let p = two_wave_power(a1, a2, dphi);
            (dphi, if peak > 0.0 { p / peak } else { 0.0 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn empty_set_has_zero_power() {
        assert_eq!(received_power(&[]), 0.0);
        assert_eq!(incoherent_power(&[]), 0.0);
    }

    #[test]
    fn single_wave_matches_solo_power() {
        let w = Wave::new(1.3, 0.7);
        assert!((received_power(&[w]) - w.solo_power()).abs() < 1e-12);
    }

    #[test]
    fn two_wave_formula_matches_phasor_sum() {
        for &(a1, a2, dphi) in &[(1.0, 1.0, PI), (0.5, 2.0, 0.3), (1.0, 0.8, 2.0)] {
            let waves = [Wave::new(a1, 0.0), Wave::new(a2, dphi)];
            let direct = received_power(&waves);
            let formula = two_wave_power(a1, a2, dphi);
            assert!(
                (direct - formula).abs() < 1e-10,
                "a1={a1} a2={a2} dphi={dphi}"
            );
        }
    }

    #[test]
    fn phase_sweep_has_peak_at_zero_and_null_at_pi() {
        let sweep = phase_sweep(1.0, 1.0, 181);
        assert!((sweep[0].1 - 1.0).abs() < 1e-12);
        let null = sweep[90]; // Δφ = π
        assert!(null.1 < 1e-10, "null power = {}", null.1);
    }
}
