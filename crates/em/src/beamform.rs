//! Multi-antenna, multi-victim nulling — simultaneous spoofing.
//!
//! [`crate::cancel::CancelController`] nulls the field at *one* point with
//! two antennas. The general statement: `n` coherent antennas can place
//! `n − 1` independent nulls. Given antenna and victim positions, the
//! channel from antenna `i` to victim `j` is a complex gain `h_{ij}` (the
//! per-unit-drive arrival phasor); transmit weights `w` produce received
//! field `H·w`, so nulling every victim means solving `H·w = 0` for a
//! non-trivial `w` — a null-space computation done here with Gaussian
//! elimination over [`Phasor`] arithmetic.
//!
//! This is the physics behind the "can the attacker spoof several nodes at
//! once?" extension (experiment `fig13`): one parked multi-antenna rig can
//! masquerade-kill a whole cluster in a single visit.

use crate::antenna::Transmitter;
use crate::phasor::Phasor;
use crate::superposition;
use crate::wave::Wave;

/// The per-unit-drive channel matrix `H` (`victims × antennas`): entry
/// `(j, i)` is the arrival phasor at victim `j` when antenna `i` transmits
/// with unit power factor and zero phase.
fn channel_matrix(antennas: &[Transmitter], victims: &[(f64, f64)]) -> Vec<Vec<Phasor>> {
    victims
        .iter()
        .map(|&v| {
            antennas
                .iter()
                .map(|a| a.with_power_factor(1.0).with_phase(0.0).wave_at(v).phasor())
                .collect()
        })
        .collect()
}

/// Complex transmit weights that null the field at every victim, or `None`
/// if no non-trivial solution exists (needs `antennas > victims` in general
/// position).
///
/// The returned weights are scaled so the largest has unit magnitude (no
/// antenna is asked to exceed its rated power).
///
/// # Example
///
/// ```
/// use wrsn_em::antenna::Transmitter;
/// use wrsn_em::beamform;
///
/// let antennas: Vec<Transmitter> = (0..3)
///     .map(|i| Transmitter::powercast().at(0.3 * i as f64, 0.0))
///     .collect();
/// let victims = [(2.0, 0.5), (2.0, -0.5)];
/// let w = beamform::null_weights(&antennas, &victims).unwrap();
/// for &v in &victims {
///     assert!(beamform::received_power_with_weights(&antennas, &w, v) < 1e-20);
/// }
/// ```
#[allow(clippy::needless_range_loop)] // index form mirrors the matrix math
pub fn null_weights(antennas: &[Transmitter], victims: &[(f64, f64)]) -> Option<Vec<Phasor>> {
    let n = antennas.len();
    let m = victims.len();
    if n == 0 || m >= n {
        return None;
    }
    let mut h = channel_matrix(antennas, victims);

    // Gaussian elimination with partial pivoting over the m×n complex system.
    let mut pivot_cols = Vec::new();
    let mut row = 0usize;
    for col in 0..n {
        // Find the largest pivot in this column at or below `row`.
        let mut best = row;
        for r in row..m {
            if h[r][col].magnitude() > h[best][col].magnitude() {
                best = r;
            }
        }
        if row >= m || h[best][col].magnitude() < 1e-12 {
            continue;
        }
        h.swap(row, best);
        // Normalise the pivot row.
        let pivot = h[row][col];
        let inv = pivot.conj().scale(1.0 / pivot.power());
        for c in 0..n {
            h[row][c] = h[row][c] * inv;
        }
        // Eliminate the column elsewhere.
        for r in 0..m {
            if r != row {
                let factor = h[r][col];
                for c in 0..n {
                    let delta = factor * h[row][c];
                    h[r][c] = h[r][c] - delta;
                }
            }
        }
        pivot_cols.push(col);
        row += 1;
        if row == m {
            break;
        }
    }

    // A free column exists because n > rank; set it to 1 and back-substitute.
    let free_col = (0..n).find(|c| !pivot_cols.contains(c))?;
    let mut w = vec![Phasor::ZERO; n];
    w[free_col] = Phasor::new(1.0, 0.0);
    for (r, &pc) in pivot_cols.iter().enumerate() {
        // Row r reads: w[pc] + Σ_{free} h[r][c]·w[c] = 0.
        w[pc] = -(h[r][free_col]);
    }

    // Scale so max |w| = 1 (power-factor feasible).
    let max_mag = w.iter().map(Phasor::magnitude).fold(0.0f64, f64::max);
    if max_mag <= 0.0 {
        return None;
    }
    Some(w.iter().map(|p| p.scale(1.0 / max_mag)).collect())
}

/// The waves the weighted antenna array produces at `point`; weight `w_i`
/// sets antenna `i`'s power factor to `|w_i|²` and transmit phase to
/// `arg(w_i)`.
pub fn waves_with_weights(
    antennas: &[Transmitter],
    weights: &[Phasor],
    point: (f64, f64),
) -> Vec<Wave> {
    antennas
        .iter()
        .zip(weights)
        .map(|(a, w)| {
            a.with_power_factor((w.magnitude().min(1.0)).powi(2))
                .with_phase(w.phase())
                .wave_at(point)
        })
        .collect()
}

/// Received power at `point` under the weighted array, watts.
pub fn received_power_with_weights(
    antennas: &[Transmitter],
    weights: &[Phasor],
    point: (f64, f64),
) -> f64 {
    superposition::received_power(&waves_with_weights(antennas, weights, point))
}

/// Convenience: a linear array of `n` Powercast antennas spaced `spacing_m`
/// apart along x, starting at `(x0, y0)`.
pub fn linear_array(n: usize, x0: f64, y0: f64, spacing_m: f64) -> Vec<Transmitter> {
    (0..n)
        .map(|i| Transmitter::powercast().at(x0 + spacing_m * i as f64, y0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_antennas_null_one_victim() {
        let antennas = linear_array(2, 0.0, 0.0, 0.3);
        let victims = [(1.5, 0.2)];
        let w = null_weights(&antennas, &victims).unwrap();
        let p = received_power_with_weights(&antennas, &w, victims[0]);
        assert!(p < 1e-20, "residual {p}");
    }

    #[test]
    fn three_antennas_null_two_victims() {
        let antennas = linear_array(3, 0.0, 0.0, 0.3);
        let victims = [(2.0, 0.5), (1.8, -0.7)];
        let w = null_weights(&antennas, &victims).unwrap();
        for &v in &victims {
            assert!(received_power_with_weights(&antennas, &w, v) < 1e-18);
        }
    }

    #[test]
    fn five_antennas_null_four_victims() {
        let antennas = linear_array(5, 0.0, 0.0, 0.25);
        let victims = [(2.0, 0.5), (1.8, -0.7), (2.5, 0.0), (1.5, 1.0)];
        let w = null_weights(&antennas, &victims).unwrap();
        for &v in &victims {
            assert!(
                received_power_with_weights(&antennas, &w, v) < 1e-15,
                "victim {v:?}"
            );
        }
    }

    #[test]
    fn weights_respect_unit_power_factor() {
        let antennas = linear_array(4, 0.0, 0.0, 0.3);
        let victims = [(2.0, 0.5), (1.8, -0.7), (2.5, 0.0)];
        let w = null_weights(&antennas, &victims).unwrap();
        for p in &w {
            assert!(p.magnitude() <= 1.0 + 1e-12);
        }
        assert!(w.iter().any(|p| (p.magnitude() - 1.0).abs() < 1e-9));
    }

    #[test]
    fn too_few_antennas_yield_none() {
        let antennas = linear_array(2, 0.0, 0.0, 0.3);
        assert!(null_weights(&antennas, &[(1.0, 0.0), (1.0, 1.0)]).is_none());
        assert!(null_weights(&[], &[(1.0, 0.0)]).is_none());
    }

    #[test]
    fn nulled_array_still_radiates_elsewhere() {
        // The point of the attack: victims get nothing, but the field is live
        // (an RF auditor standing next to the rig measures plenty).
        let antennas = linear_array(3, 0.0, 0.0, 0.3);
        let victims = [(2.0, 0.5), (1.8, -0.7)];
        let w = null_weights(&antennas, &victims).unwrap();
        let elsewhere = received_power_with_weights(&antennas, &w, (1.0, 2.0));
        assert!(elsewhere > 1e-6, "field dead everywhere: {elsewhere}");
    }

    #[test]
    fn channel_matrix_dimensions() {
        let antennas = linear_array(3, 0.0, 0.0, 0.3);
        let h = channel_matrix(&antennas, &[(1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].len(), 3);
    }
}
