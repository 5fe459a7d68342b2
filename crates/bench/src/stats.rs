//! Small statistics helpers for multi-seed sweeps and latency reporting.
//!
//! Order statistics over an *empty* sample are explicit: [`min`], [`max`],
//! and `percentile` return `None` instead of a sentinel. The old contract
//! (`0.0` for empty input) read as a real measurement downstream — a latency
//! dashboard would show "0 ms worst-case" for a window that simply had no
//! samples. `Option<f64>` serializes as JSON `null` through the vendored
//! serde, which is what the `wrsnd` latency reports emit.

/// Mean of `xs` (0 for an empty slice).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation of `xs` (0 for fewer than two samples).
fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// `(mean, std_dev)` in one call.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    (mean(xs), std_dev(xs))
}

/// Minimum of `xs` (`NaN`-free input assumed); `None` for an empty slice.
pub fn min(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum of `xs` (`NaN`-free input assumed); `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// The `p`-th percentile of `xs` (`p` in `0..=100`), by linear interpolation
/// between closest ranks on a sorted copy — the convention most latency
/// tooling uses, so `percentile(xs, 50.0)` of two samples is their midpoint.
///
/// Returns `None` for an empty sample or a non-finite / out-of-range `p`.
fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !p.is_finite() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median (50th percentile); `None` for an empty sample.
pub fn p50(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// 99th percentile; `None` for an empty sample.
pub fn p99(xs: &[f64]) -> Option<f64> {
    percentile(xs, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic set is ~2.138.
        assert!((std_dev(&xs) - 2.1380899353).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        let (m, s) = mean_std(&[3.0, 3.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 7.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(7.0));
    }

    #[test]
    fn min_max_of_empty_slice_are_none() {
        // Empty-sample order statistics are explicit: `None`, never a 0.0
        // that a dashboard would read as "0 ms worst case" (and never the
        // ±infinity that used to leak into CSV cells as "inf"/"-inf").
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(p50(&xs), Some(25.0));
        // p99 of 4 samples: rank 2.97 → between 30 and 40.
        let p = p99(&xs).unwrap();
        assert!((p - 39.7).abs() < 1e-9, "p99 = {p}");
    }

    #[test]
    fn percentiles_are_order_independent() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        let shuffled = [4.0, 1.0, 5.0, 3.0, 2.0];
        assert_eq!(p50(&sorted), Some(3.0));
        assert_eq!(p50(&shuffled), Some(3.0));
        assert_eq!(p99(&sorted), p99(&shuffled));
    }

    #[test]
    fn percentile_rejects_empty_and_invalid_p() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(p50(&[]), None);
        assert_eq!(p99(&[]), None);
        assert_eq!(percentile(&[1.0], -1.0), None);
        assert_eq!(percentile(&[1.0], 100.5), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
        assert_eq!(percentile(&[1.0], 50.0), Some(1.0));
    }

    #[test]
    fn empty_order_statistics_serialize_as_null() {
        // The wire contract for daemon latency reports: an absent statistic
        // is JSON `null`, not a fake zero.
        let text = serde_json::to_string(&min(&[])).expect("serialize");
        assert_eq!(text, "null");
        let text = serde_json::to_string(&p99(&[4.0])).expect("serialize");
        assert_eq!(text, "4");
    }
}
