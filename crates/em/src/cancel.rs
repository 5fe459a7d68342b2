//! The attacker's phase-cancellation controller.
//!
//! A Charging Spoofing Attacker carries (at least) two transmit antennas. The
//! *primary* antenna behaves exactly like a benign charger — it is what makes
//! the attack look legitimate. The *helper* antenna transmits a wave tuned so
//! that, **at the victim's location**, it arrives with the same amplitude and
//! opposite phase as the primary's wave. The coherent sum vanishes and the
//! victim harvests (almost) nothing, while any external observer sees a charger
//! radiating at full power next to the node.

use serde::{Deserialize, Serialize};

use crate::antenna::Transmitter;
use crate::superposition::received_power;
use crate::wave::Wave;

/// Computes helper-antenna settings that cancel the primary's field at a
/// chosen victim location.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CancelController {
    primary: Transmitter,
    helper: Transmitter,
}

/// Outcome of tuning the helper antenna against a victim location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CancelSolution {
    /// Helper transmit phase ψ₂ (radians).
    pub helper_phase: f64,
    /// Helper power factor in `[0, 1]`.
    pub helper_power_factor: f64,
    /// Residual harvested power at the victim, watts.
    pub residual_power_w: f64,
    /// Power the victim would harvest from the primary alone, watts.
    pub honest_power_w: f64,
}

impl CancelSolution {
    /// Fraction of honest power suppressed: `1 − residual/honest`.
    ///
    /// `1.0` means the victim receives nothing; `0.0` means the attack failed
    /// entirely. Returns `1.0` when the honest power is already zero (nothing
    /// to suppress).
    pub fn suppression(&self) -> f64 {
        if self.honest_power_w <= 0.0 {
            1.0
        } else {
            (1.0 - self.residual_power_w / self.honest_power_w).max(0.0)
        }
    }
}

impl CancelController {
    /// Creates a controller for the given primary/helper antenna pair.
    pub fn new(primary: &Transmitter, helper: &Transmitter) -> Self {
        CancelController {
            primary: *primary,
            helper: *helper,
        }
    }

    /// The primary (disguise) transmitter.
    pub fn primary(&self) -> &Transmitter {
        &self.primary
    }

    /// The helper (cancelling) transmitter with its *current* settings.
    pub fn helper(&self) -> &Transmitter {
        &self.helper
    }

    /// Solves for the helper settings that minimise harvested power at
    /// `victim`.
    ///
    /// The required arrival wave is the antiphase of the primary's arrival
    /// wave. The helper's transmit phase is set so its arrival phase is
    /// `φ₁ + π`; its power factor is chosen to match amplitudes, clamped to 1
    /// if the helper cannot radiate enough power at that distance (partial
    /// cancellation).
    pub fn solve(&self, victim: (f64, f64)) -> CancelSolution {
        let honest = self.primary.wave_at(victim);
        let honest_power = honest.solo_power();
        let target = honest.antiphase();

        // Full-power helper arrival amplitude at the victim.
        let helper_full = self.helper.with_power_factor(1.0);
        let full_amp = helper_full.wave_at(victim).amplitude();

        if full_amp <= 0.0 {
            // Helper cannot reach the victim at all.
            return CancelSolution {
                helper_phase: self.helper.tx_phase(),
                helper_power_factor: 0.0,
                residual_power_w: honest_power,
                honest_power_w: honest_power,
            };
        }

        // Amplitude scales with √(power factor).
        let k = (target.amplitude() / full_amp).powi(2).min(1.0);
        // Arrival phase = ψ₂ − 2πd₂/λ; solve for ψ₂.
        let psi2 = target.phase() + helper_full.propagation_phase(victim);

        let tuned = helper_full.with_power_factor(k).with_phase(psi2);
        let residual = received_power(&[honest, tuned.wave_at(victim)]);

        CancelSolution {
            helper_phase: psi2,
            helper_power_factor: k,
            residual_power_w: residual,
            honest_power_w: honest_power,
        }
    }

    /// The helper's arrival wave at `victim` after tuning — the wave that
    /// (near-)cancels the primary's.
    pub fn cancelling_wave(&self, victim: (f64, f64)) -> Wave {
        let sol = self.solve(victim);
        self.helper
            .with_power_factor(sol.helper_power_factor)
            .with_phase(sol.helper_phase)
            .wave_at(victim)
    }

    /// Residual power at `victim` when the tuned helper suffers a phase error
    /// of `phase_err` radians and a relative amplitude error `amp_err`
    /// (e.g. `0.05` = 5 % too strong).
    ///
    /// Used to evaluate how robust the attack is to imperfect channel
    /// knowledge (experiment `fig4`).
    pub fn residual_with_errors(&self, victim: (f64, f64), phase_err: f64, amp_err: f64) -> f64 {
        let honest = self.primary.wave_at(victim);
        let ideal = self.cancelling_wave(victim);
        let perturbed = ideal.shifted(phase_err).scaled((1.0 + amp_err).max(0.0));
        received_power(&[honest, perturbed])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Transmitter, Transmitter) {
        (
            Transmitter::powercast().at(0.0, 0.0),
            Transmitter::powercast().at(0.3, 0.0),
        )
    }

    #[test]
    fn perfect_cancellation_when_helper_in_reach() {
        let (p, h) = setup();
        let sol = CancelController::new(&p, &h).solve((1.0, 0.0));
        assert!(sol.honest_power_w > 0.0);
        assert!(
            sol.residual_power_w < 1e-20 * sol.honest_power_w,
            "residual = {}",
            sol.residual_power_w
        );
        assert!((sol.suppression() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn helper_power_factor_within_bounds() {
        let (p, h) = setup();
        let sol = CancelController::new(&p, &h).solve((2.0, 1.0));
        assert!((0.0..=1.0).contains(&sol.helper_power_factor));
    }

    #[test]
    fn partial_cancellation_when_helper_too_far() {
        // Helper much farther from the victim than the primary: it cannot match
        // the primary's amplitude even at full power.
        let p = Transmitter::powercast().at(0.0, 0.0);
        let h = Transmitter::powercast().at(-3.0, 0.0);
        let sol = CancelController::new(&p, &h).solve((1.0, 0.0));
        assert!((sol.helper_power_factor - 1.0).abs() < 1e-12);
        assert!(sol.residual_power_w > 0.0);
        assert!(sol.residual_power_w < sol.honest_power_w);
    }

    #[test]
    fn unreachable_victim_leaves_honest_power() {
        let p = Transmitter::powercast().at(0.0, 0.0);
        let h = Transmitter::powercast().at(100.0, 0.0);
        let sol = CancelController::new(&p, &h).solve((1.0, 0.0));
        assert_eq!(sol.residual_power_w, sol.honest_power_w);
        assert_eq!(sol.helper_power_factor, 0.0);
        assert!(sol.suppression() < 1e-12);
    }

    #[test]
    fn phase_error_degrades_cancellation_smoothly() {
        let (p, h) = setup();
        let c = CancelController::new(&p, &h);
        let v = (1.0, 0.0);
        let r0 = c.residual_with_errors(v, 0.0, 0.0);
        let r1 = c.residual_with_errors(v, 0.1, 0.0);
        let r2 = c.residual_with_errors(v, 0.5, 0.0);
        assert!(r0 < r1 && r1 < r2, "r0={r0} r1={r1} r2={r2}");
        // Residual for phase error e is (2 − 2cos e)·honest; for e = 0.5 rad
        // that is ≈ 24.5 % — still suppressing three quarters of the power.
        let honest = c.solve(v).honest_power_w;
        assert!((r2 / honest - (2.0 - 2.0 * 0.5f64.cos())).abs() < 1e-9);
    }

    #[test]
    fn amplitude_error_degrades_cancellation() {
        let (p, h) = setup();
        let c = CancelController::new(&p, &h);
        let v = (1.0, 0.0);
        let r = c.residual_with_errors(v, 0.0, 0.10);
        let honest = c.solve(v).honest_power_w;
        // 10 % amplitude error → residual ≈ (0.1a)² = 1 % of honest power.
        assert!((r / honest - 0.01).abs() < 1e-6, "ratio = {}", r / honest);
    }
}
