//! Coherent waves arriving at a receiver.
//!
//! A [`Wave`] is the contribution of one transmit antenna to the field at a
//! specific receiver location: an amplitude (in `√W`, so that `amplitude²` is
//! the power that wave would deliver alone) and an arrival phase.

use serde::{Deserialize, Serialize};

use crate::phasor::Phasor;

/// One coherent wave incident on a receiver.
///
/// The amplitude convention is chosen so that a single wave in isolation
/// delivers `amplitude²` watts: [`Wave::solo_power`].
///
/// # Example
///
/// ```
/// use wrsn_em::Wave;
///
/// let w = Wave::new(2.0, 0.0);
/// assert_eq!(w.solo_power(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wave {
    amplitude: f64,
    phase: f64,
}

impl Wave {
    /// Creates a wave with the given amplitude (`√W`, must be ≥ 0 and finite)
    /// and arrival phase (radians).
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or either argument is not finite.
    pub fn new(amplitude: f64, phase: f64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "wave amplitude must be finite and non-negative, got {amplitude}"
        );
        assert!(phase.is_finite(), "wave phase must be finite, got {phase}");
        Wave { amplitude, phase }
    }

    /// Creates a wave directly from a field phasor.
    fn from_phasor(p: Phasor) -> Self {
        Wave::new(p.magnitude(), p.phase())
    }

    /// Amplitude in `√W`.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Arrival phase in radians.
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Power this wave would deliver if it were the only incident wave, in W.
    pub fn solo_power(&self) -> f64 {
        self.amplitude * self.amplitude
    }

    /// The wave's field phasor `a·e^{jφ}`.
    pub fn phasor(&self) -> Phasor {
        Phasor::from_polar(self.amplitude, self.phase)
    }

    /// Returns this wave with its phase shifted by `delta` radians.
    pub fn shifted(&self, delta: f64) -> Wave {
        Wave::new(self.amplitude, self.phase + delta)
    }

    /// Returns this wave with amplitude scaled by `k ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or non-finite.
    pub fn scaled(&self, k: f64) -> Wave {
        Wave::new(self.amplitude * k, self.phase)
    }

    /// The wave that exactly cancels this one (same amplitude, opposite phase).
    pub fn antiphase(&self) -> Wave {
        Wave::new(self.amplitude, self.phase + std::f64::consts::PI)
    }
}

impl From<Phasor> for Wave {
    fn from(p: Phasor) -> Self {
        Wave::from_phasor(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn solo_power_is_amplitude_squared() {
        assert!((Wave::new(3.0, 1.0).solo_power() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn antiphase_cancels() {
        let w = Wave::new(1.7, 0.4);
        let sum = w.phasor() + w.antiphase().phasor();
        assert!(sum.magnitude() < 1e-12);
    }

    #[test]
    fn phasor_roundtrip() {
        let w = Wave::new(0.8, -1.2);
        let back = Wave::from_phasor(w.phasor());
        assert!((back.amplitude() - 0.8).abs() < 1e-12);
        assert!((back.phase() + 1.2).abs() < 1e-12);
    }

    #[test]
    fn shifted_by_two_pi_is_same_field() {
        let w = Wave::new(1.0, 0.25);
        let s = w.shifted(2.0 * PI);
        assert!((w.phasor() - s.phasor()).magnitude() < 1e-12);
    }

    #[test]
    fn scaled_scales_power_quadratically() {
        let w = Wave::new(2.0, 0.0);
        assert!((w.scaled(0.5).solo_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn negative_amplitude_panics() {
        let _ = Wave::new(-1.0, 0.0);
    }
}
