//! Empirical wireless charging power model.
//!
//! The WRSN charging literature (and this paper's system model) uses the
//! empirical fit
//!
//! ```text
//! P(d) = α / (d + β)²      for d ≤ d_max,   0 otherwise
//! ```
//!
//! for the DC power a node harvests from a charger at distance `d`. This module
//! provides that model ([`ChargeModel`]); its `β` offset keeps the free-space
//! `1/d²` law finite at contact.

use serde::{Deserialize, Serialize};

use crate::error::{positive, EmError};

/// The empirical charging power model `P(d) = α/(d+β)²` with a cut-off range.
///
/// # Example
///
/// ```
/// use wrsn_em::ChargeModel;
///
/// let m = ChargeModel::powercast();
/// assert!(m.power_at(0.5) > m.power_at(1.0));
/// assert_eq!(m.power_at(100.0), 0.0); // beyond range
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeModel {
    alpha: f64,
    beta: f64,
    max_range_m: f64,
}

impl ChargeModel {
    /// Creates a model with the given `α` (W·m²), `β` (m) and cut-off range (m).
    ///
    /// # Errors
    ///
    /// Returns [`EmError`] if any parameter is non-finite or not strictly
    /// positive.
    pub fn new(alpha: f64, beta: f64, max_range_m: f64) -> Result<Self, EmError> {
        Ok(ChargeModel {
            alpha: positive("alpha", alpha)?,
            beta: positive("beta", beta)?,
            max_range_m: positive("max_range_m", max_range_m)?,
        })
    }

    /// A model representative of a Powercast TX91501-class 3 W transmitter:
    /// `α = 0.25 W·m²`, `β = 0.5 m`, effective range 5 m, so `P(0) = 1 W` and
    /// `P(1 m) ≈ 0.11 W`.
    pub fn powercast() -> Self {
        ChargeModel {
            alpha: 0.25,
            beta: 0.5,
            max_range_m: 5.0,
        }
    }

    /// The `α` parameter, in W·m².
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The `β` near-field offset, in metres.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Harvested DC power at distance `d` metres, in watts.
    ///
    /// Returns `0.0` beyond the cut-off range or for negative `d`.
    pub fn power_at(&self, d: f64) -> f64 {
        if !(0.0..=self.max_range_m).contains(&d) {
            return 0.0;
        }
        let s = d + self.beta;
        self.alpha / (s * s)
    }
}

impl Default for ChargeModel {
    fn default() -> Self {
        ChargeModel::powercast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_decreases_with_distance() {
        let m = ChargeModel::powercast();
        let mut prev = m.power_at(0.0);
        for k in 1..=50 {
            let d = k as f64 * 0.1;
            let p = m.power_at(d);
            assert!(p <= prev, "power not monotone at d={d}");
            prev = p;
        }
    }

    #[test]
    fn power_zero_beyond_range_and_for_negative_distance() {
        let m = ChargeModel::powercast();
        assert_eq!(m.power_at(5.0001), 0.0);
        assert_eq!(m.power_at(-0.1), 0.0);
    }

    #[test]
    fn powercast_delivers_one_watt_at_contact() {
        let m = ChargeModel::powercast();
        assert!((m.power_at(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ChargeModel::new(0.0, 0.5, 5.0).is_err());
        assert!(ChargeModel::new(0.25, -1.0, 5.0).is_err());
        assert!(ChargeModel::new(0.25, 0.5, f64::NAN).is_err());
    }
}
