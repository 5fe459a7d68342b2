//! Physical constants and representative hardware parameters.
//!
//! The defaults are chosen to match the commodity WPT hardware used in the WRSN
//! charging literature (Powercast TX91501-style 915 MHz ISM-band transmitters).

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Carrier frequency of the 915 MHz ISM band used by commodity WPT
/// transmitters, in hertz.
pub const ISM_915MHZ: f64 = 915.0e6;

/// Wavelength of a carrier at frequency `freq_hz`, in metres.
///
/// # Example
///
/// ```
/// let lambda = wrsn_em::constants::wavelength(wrsn_em::constants::ISM_915MHZ);
/// assert!((lambda - 0.3276).abs() < 1e-3);
/// ```
pub fn wavelength(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}

/// Default transmit power of a Powercast-class charger, in watts.
pub const DEFAULT_TX_POWER_W: f64 = 3.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_at_915mhz_is_about_33cm() {
        let lambda = wavelength(ISM_915MHZ);
        assert!((0.32..0.34).contains(&lambda), "lambda = {lambda}");
    }

    #[test]
    fn wavelength_scales_inversely_with_frequency() {
        assert!(wavelength(1.0e9) > wavelength(2.0e9));
        let ratio = wavelength(1.0e9) / wavelength(2.0e9);
        assert!((ratio - 2.0).abs() < 1e-12);
    }
}
