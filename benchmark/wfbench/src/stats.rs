//! Sample statistics: medians, quartiles, percentiles.

/// Sorted copy with NaNs dropped.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) computes them, because that is the rule
/// the acceptance runs are judged by. Fewer than two samples give the
/// sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread_frac(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 || q2.is_nan() {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest rank of the `p`-th percentile among `n` samples, 1-based:
/// `ceil(p% of n)`, with a hair of tolerance so that 99.9% of 10 000 is
/// 9990 and not, through binary rounding, 9991.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// The tail percentiles a latency report may quote.
pub const TAIL_PERCENTILES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest of [`TAIL_PERCENTILES`] with at least ten samples beyond
/// it, or `None` when not even p75 has them: a tail quoted from fewer
/// samples is the run's noise, not the system's.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.iter().copied().rfind(|&p| beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    /// "Highest percentile with >= 10 samples beyond it."
    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(15), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(1200), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
