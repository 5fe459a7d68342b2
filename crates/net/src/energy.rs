//! Battery and radio energy models.
//!
//! The battery follows the standard WRSN abstraction: capacity `E_max`, a
//! *warning threshold* below which the node requests charging, and a *depletion
//! floor* at which the node dies. The radio uses the classical first-order
//! model: transmitting `k` bits over distance `d` costs
//! `k·(e_elec + ε_amp·d²)`; receiving costs `k·e_elec`.

use serde::{Deserialize, Serialize};

/// A node battery with capacity, warning threshold and depletion tracking.
///
/// Charge and discharge are saturating: the level never leaves
/// `[0, capacity]`.
///
/// # Example
///
/// ```
/// use wrsn_net::energy::Battery;
///
/// let mut b = Battery::new(100.0, 20.0);
/// b.discharge(90.0);
/// assert!(b.needs_charging());
/// b.charge(50.0);
/// assert!(!b.needs_charging());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity_j: f64,
    level_j: f64,
    warning_j: f64,
    /// Set once the level first reaches zero; a depleted node never revives
    /// (matching the "exhausted in vain" semantics of the paper).
    depleted: bool,
}

/// Default battery capacity: 10.8 kJ (a 1000 mAh cell at 3 V).
pub const DEFAULT_CAPACITY_J: f64 = 10_800.0;

/// Default warning threshold as a fraction of capacity.
pub const DEFAULT_WARNING_FRACTION: f64 = 0.2;

impl Battery {
    /// Creates a full battery with the given capacity and warning threshold
    /// (both joules).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j ≤ 0`, `warning_j < 0`, `warning_j > capacity_j`,
    /// or either is non-finite.
    pub fn new(capacity_j: f64, warning_j: f64) -> Self {
        assert!(
            capacity_j.is_finite() && capacity_j > 0.0,
            "capacity must be positive, got {capacity_j}"
        );
        assert!(
            warning_j.is_finite() && (0.0..=capacity_j).contains(&warning_j),
            "warning threshold must be in [0, capacity], got {warning_j}"
        );
        Battery {
            capacity_j,
            level_j: capacity_j,
            warning_j,
            depleted: false,
        }
    }

    /// Creates a battery with the given capacity and the default 20 % warning
    /// threshold.
    pub fn with_capacity(capacity_j: f64) -> Self {
        Battery::new(capacity_j, capacity_j * DEFAULT_WARNING_FRACTION)
    }

    /// Battery capacity, joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Current level, joules.
    pub fn level_j(&self) -> f64 {
        self.level_j
    }

    /// Warning threshold, joules.
    pub fn warning_j(&self) -> f64 {
        self.warning_j
    }

    /// Current level as a fraction of capacity in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.level_j / self.capacity_j
    }

    /// Sets the level directly (clamped to `[0, capacity]`); marks the battery
    /// depleted if the clamped level is zero.
    pub fn set_level(&mut self, level_j: f64) {
        self.level_j = level_j.clamp(0.0, self.capacity_j);
        if self.level_j <= 0.0 {
            self.depleted = true;
        }
    }

    /// Removes `energy_j ≥ 0` joules; saturates at zero and latches the
    /// depleted flag. Returns the energy actually removed.
    pub fn discharge(&mut self, energy_j: f64) -> f64 {
        let e = energy_j.max(0.0).min(self.level_j);
        self.level_j -= e;
        if self.level_j <= 0.0 {
            self.level_j = 0.0;
            self.depleted = true;
        }
        e
    }

    /// Adds `energy_j ≥ 0` joules; saturates at capacity. Returns the energy
    /// actually stored. A depleted battery accepts no charge (the node's
    /// electronics are dead).
    pub fn charge(&mut self, energy_j: f64) -> f64 {
        if self.depleted {
            return 0.0;
        }
        let e = energy_j.max(0.0).min(self.capacity_j - self.level_j);
        self.level_j += e;
        e
    }

    /// Whether the level has ever reached zero.
    pub fn is_depleted(&self) -> bool {
        self.depleted
    }

    /// Whether the node should request charging (at or below the warning
    /// threshold, but not yet dead).
    pub fn needs_charging(&self) -> bool {
        !self.depleted && self.level_j <= self.warning_j
    }

    /// Energy needed to refill to capacity, joules.
    pub fn deficit_j(&self) -> f64 {
        self.capacity_j - self.level_j
    }

    /// Reassembles a battery from raw state columns. The parts are trusted
    /// (no clamping): they come from a battery that was previously
    /// decomposed, so re-validating would only mask column-update bugs.
    pub(crate) fn from_parts(
        capacity_j: f64,
        level_j: f64,
        warning_j: f64,
        depleted: bool,
    ) -> Self {
        Battery {
            capacity_j,
            level_j,
            warning_j,
            depleted,
        }
    }
}

impl Default for Battery {
    fn default() -> Self {
        Battery::with_capacity(DEFAULT_CAPACITY_J)
    }
}

/// First-order radio energy model.
///
/// * transmit `k` bits over `d` metres: `k·(e_elec + ε_amp·d²)` joules,
/// * receive `k` bits: `k·e_elec` joules,
/// * idle listening: `idle_w` watts continuously.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioEnergyModel {
    /// Electronics energy per bit, J/bit.
    pub e_elec: f64,
    /// Amplifier energy per bit per m², J/bit/m².
    pub eps_amp: f64,
    /// Idle listening power, watts.
    pub idle_w: f64,
}

impl RadioEnergyModel {
    /// The classical parameters used across the WSN literature:
    /// `e_elec = 50 nJ/bit`, `ε_amp = 100 pJ/bit/m²`, idle 1 mW.
    pub fn classical() -> Self {
        RadioEnergyModel {
            e_elec: 50e-9,
            eps_amp: 100e-12,
            idle_w: 1e-3,
        }
    }

    /// Energy to transmit `bits` over distance `d_m`, joules.
    pub fn tx_energy(&self, bits: f64, d_m: f64) -> f64 {
        bits * (self.e_elec + self.eps_amp * d_m * d_m)
    }

    /// Energy to receive `bits`, joules.
    fn rx_energy(&self, bits: f64) -> f64 {
        bits * self.e_elec
    }

    /// Power draw of a node relaying `rx_bps` inbound and `tx_bps` outbound
    /// bits per second over hop distance `d_m`, including idle power, watts.
    pub fn relay_power(&self, rx_bps: f64, tx_bps: f64, d_m: f64) -> f64 {
        self.rx_energy(rx_bps) + self.tx_energy(tx_bps, d_m) + self.idle_w
    }
}

impl Default for RadioEnergyModel {
    fn default() -> Self {
        RadioEnergyModel::classical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discharge_saturates_and_latches_depletion() {
        let mut b = Battery::new(10.0, 2.0);
        assert_eq!(b.discharge(4.0), 4.0);
        assert_eq!(b.level_j(), 6.0);
        assert_eq!(b.discharge(100.0), 6.0);
        assert!(b.is_depleted());
        assert_eq!(b.level_j(), 0.0);
    }

    #[test]
    fn depleted_battery_rejects_charge() {
        let mut b = Battery::new(10.0, 2.0);
        b.discharge(10.0);
        assert!(b.is_depleted());
        assert_eq!(b.charge(5.0), 0.0);
        assert_eq!(b.level_j(), 0.0);
    }

    #[test]
    fn charge_saturates_at_capacity() {
        let mut b = Battery::new(10.0, 2.0);
        b.discharge(3.0);
        assert_eq!(b.charge(100.0), 3.0);
        assert_eq!(b.level_j(), 10.0);
    }

    #[test]
    fn warning_threshold_behaviour() {
        let mut b = Battery::new(10.0, 2.0);
        assert!(!b.needs_charging());
        b.discharge(8.0);
        assert!(b.needs_charging());
        b.discharge(2.0);
        // Dead node no longer "needs charging" — it is past saving.
        assert!(!b.needs_charging());
    }

    #[test]
    fn negative_amounts_are_ignored() {
        let mut b = Battery::new(10.0, 2.0);
        assert_eq!(b.discharge(-5.0), 0.0);
        assert_eq!(b.charge(-5.0), 0.0);
        assert_eq!(b.level_j(), 10.0);
    }

    #[test]
    fn set_level_clamps_and_latches() {
        let mut b = Battery::new(10.0, 2.0);
        b.set_level(25.0);
        assert_eq!(b.level_j(), 10.0);
        b.set_level(-3.0);
        assert_eq!(b.level_j(), 0.0);
        assert!(b.is_depleted());
    }

    #[test]
    fn radio_tx_grows_with_distance_squared() {
        let r = RadioEnergyModel::classical();
        let e1 = r.tx_energy(1000.0, 10.0);
        let e2 = r.tx_energy(1000.0, 20.0);
        assert!(e2 > e1);
        // Amplifier part quadruples; electronics part constant.
        let amp1 = e1 - r.rx_energy(1000.0);
        let amp2 = e2 - r.rx_energy(1000.0);
        assert!((amp2 / amp1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn relay_power_includes_idle() {
        let r = RadioEnergyModel::classical();
        assert!((r.relay_power(0.0, 0.0, 0.0) - r.idle_w).abs() < 1e-15);
        assert!(r.relay_power(1000.0, 1000.0, 15.0) > r.idle_w);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Battery::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "warning threshold")]
    fn warning_above_capacity_panics() {
        let _ = Battery::new(10.0, 11.0);
    }
}
