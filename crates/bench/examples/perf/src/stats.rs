//! Order statistics: the reported percentiles and the quartiles the
//! comparison rule uses.

/// Samples a percentile rests on: a tail percentile is reported only when at
/// least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank 1-based index of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `pct`.
pub fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct).min(n)
}

/// The fewest samples for which percentile `pct` has [`MIN_BEYOND`] samples
/// beyond it.
pub fn min_samples(pct: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .expect("some n suffices")
}

/// Nearest-rank percentile `pct` of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], pct: u32) -> Option<f64> {
    if values.is_empty() || beyond(values.len(), pct) < MIN_BEYOND {
        return None;
    }
    Some(nearest_rank(values, pct))
}

/// Nearest-rank percentile `pct` of `values` however few they are (infinite
/// when there are none): for pass/fail limits, not for reporting.
pub fn nearest_rank(values: &[f64], pct: u32) -> f64 {
    if values.is_empty() {
        return f64::INFINITY;
    }
    sorted(values)[rank(values.len(), pct) - 1]
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile range.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(75), 40);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 75), Some(30.0));
        assert_eq!(percentile(&v[..39], 75), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(990.0));
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(percentile(&v[..999], 99), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(iqr(&[5.0, 5.0, 5.0]), 0.0);
    }
}
