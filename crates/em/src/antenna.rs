//! Transmit antennas and their field at a receiver location.
//!
//! A [`Transmitter`] combines the empirical power envelope
//! ([`crate::ChargeModel`]) with carrier-phase propagation: the wave arriving
//! at a receiver `d` metres away has amplitude `√P(d)` and phase
//! `ψ − 2πd/λ`, where `ψ` is the controllable transmit phase.

use serde::{Deserialize, Serialize};

use crate::charging::ChargeModel;
use crate::constants;
use crate::wave::Wave;

/// A phase- and power-controllable WPT transmit antenna at a fixed position.
///
/// # Example
///
/// ```
/// use wrsn_em::Transmitter;
///
/// let tx = Transmitter::powercast().at(0.0, 0.0);
/// let w = tx.wave_at((1.0, 0.0));
/// assert!(w.solo_power() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transmitter {
    model: ChargeModel,
    wavelength_m: f64,
    position: (f64, f64),
    /// Controllable transmit phase ψ, radians.
    tx_phase: f64,
    /// Power scaling in `[0, 1]` (1 = full rated power).
    power_factor: f64,
}

impl Transmitter {
    /// Creates a transmitter with the given power envelope and carrier
    /// frequency, placed at the origin.
    pub fn new(model: ChargeModel, freq_hz: f64) -> Self {
        Transmitter {
            model,
            wavelength_m: constants::wavelength(freq_hz),
            position: (0.0, 0.0),
            tx_phase: 0.0,
            power_factor: 1.0,
        }
    }

    /// A Powercast-class transmitter on the 915 MHz ISM band.
    pub fn powercast() -> Self {
        Transmitter::new(ChargeModel::powercast(), constants::ISM_915MHZ)
    }

    /// Returns this transmitter moved to `(x, y)` metres.
    pub fn at(mut self, x: f64, y: f64) -> Self {
        self.position = (x, y);
        self
    }

    /// Returns this transmitter with transmit phase `psi` radians.
    pub fn with_phase(mut self, psi: f64) -> Self {
        self.tx_phase = psi;
        self
    }

    /// Returns this transmitter with power factor `k ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `[0, 1]` or non-finite.
    pub fn with_power_factor(mut self, k: f64) -> Self {
        assert!(
            k.is_finite() && (0.0..=1.0).contains(&k),
            "power factor must be in [0, 1], got {k}"
        );
        self.power_factor = k;
        self
    }

    /// The transmitter's position in metres.
    pub fn position(&self) -> (f64, f64) {
        self.position
    }

    /// The controllable transmit phase, radians.
    pub fn tx_phase(&self) -> f64 {
        self.tx_phase
    }

    /// The current power factor in `[0, 1]`.
    pub fn power_factor(&self) -> f64 {
        self.power_factor
    }

    /// The power envelope model.
    pub fn model(&self) -> &ChargeModel {
        &self.model
    }

    /// Carrier wavelength, metres.
    pub fn wavelength(&self) -> f64 {
        self.wavelength_m
    }

    /// Euclidean distance from this transmitter to `(x, y)`, metres.
    fn distance_to(&self, point: (f64, f64)) -> f64 {
        let dx = self.position.0 - point.0;
        let dy = self.position.1 - point.1;
        dx.hypot(dy)
    }

    /// Propagation phase delay `2πd/λ` to `point`, radians.
    pub fn propagation_phase(&self, point: (f64, f64)) -> f64 {
        2.0 * std::f64::consts::PI * self.distance_to(point) / self.wavelength_m
    }

    /// The coherent wave this transmitter produces at `point`.
    ///
    /// Amplitude is `√(k·P(d))` (so a lone full-power transmitter delivers the
    /// empirical model's power); phase is `ψ − 2πd/λ`.
    pub fn wave_at(&self, point: (f64, f64)) -> Wave {
        let d = self.distance_to(point);
        let amp = (self.power_factor * self.model.power_at(d)).sqrt();
        Wave::new(amp, self.tx_phase - self.propagation_phase(point))
    }

    /// Power delivered at `point` if this transmitter acted alone, in watts.
    pub fn solo_power_at(&self, point: (f64, f64)) -> f64 {
        self.wave_at(point).solo_power()
    }
}

impl Default for Transmitter {
    fn default() -> Self {
        Transmitter::powercast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superposition::received_power;

    #[test]
    fn solo_power_matches_charge_model() {
        let tx = Transmitter::powercast().at(0.0, 0.0);
        let p = tx.solo_power_at((1.2, 0.0));
        assert!((p - tx.model().power_at(1.2)).abs() < 1e-12);
    }

    #[test]
    fn power_factor_scales_power_linearly() {
        let tx = Transmitter::powercast();
        let half = tx.with_power_factor(0.5);
        let ratio = half.solo_power_at((1.0, 0.0)) / tx.solo_power_at((1.0, 0.0));
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase_advances_with_distance() {
        let tx = Transmitter::powercast();
        let near = tx.propagation_phase((0.5, 0.0));
        let far = tx.propagation_phase((1.5, 0.0));
        assert!(far > near);
    }

    #[test]
    fn tx_phase_shifts_arrival_phase() {
        let base = Transmitter::powercast();
        let shifted = base.with_phase(0.7);
        let p = (1.0, 1.0);
        let dphi = shifted.wave_at(p).phase() - base.wave_at(p).phase();
        assert!((dphi - 0.7).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_receiver_gets_nothing() {
        let tx = Transmitter::powercast();
        assert_eq!(tx.solo_power_at((100.0, 0.0)), 0.0);
    }

    #[test]
    fn half_wavelength_offset_creates_null() {
        // Two identical in-phase transmitters whose path lengths differ by λ/2
        // produce a null at the receiver — a "natural" spoofing configuration.
        let tx1 = Transmitter::powercast().at(0.0, 0.0);
        let lambda = tx1.wavelength();
        let tx2 = Transmitter::powercast().at(-lambda / 2.0, 0.0);
        let victim = (1.0, 0.0);
        let w1 = tx1.wave_at(victim);
        let w2 = tx2.wave_at(victim);
        // Amplitudes differ slightly (different distances), so the null is deep
        // but not perfect.
        let residual = received_power(&[w1, w2]);
        let solo = w1.solo_power();
        assert!(residual < 0.02 * solo, "residual {residual} vs solo {solo}");
    }

    #[test]
    #[should_panic(expected = "power factor")]
    fn power_factor_above_one_panics() {
        let _ = Transmitter::powercast().with_power_factor(1.5);
    }
}
