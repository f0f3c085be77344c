//! Order statistics for timings and for comparing sets of runs.

/// Fewest samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: f64 = 10.0;

/// How many of `n` samples lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> f64 {
    n as f64 * (100.0 - p) / 100.0
}

/// The highest of `candidates` (ascending percentiles) that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Percentile `p` (0–100) of `values`, linearly interpolated between the
/// closest ranks. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// spreads read the same here as in any script that checks them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(
            percentile(&[7.0, 1.0], 50.0),
            4.0,
            "input order does not matter"
        );
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        let ladder = [50.0, 75.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_supported(1000, &ladder), Some(99.0));
        assert_eq!(
            highest_supported(999, &ladder),
            Some(95.0),
            "p99 of 999 leaves 9.99"
        );
        assert_eq!(highest_supported(200, &ladder), Some(95.0));
        assert_eq!(highest_supported(100, &ladder), Some(90.0));
        assert_eq!(highest_supported(40, &ladder), Some(75.0));
        assert_eq!(highest_supported(19, &ladder), None);
        assert!((samples_beyond(200, 95.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
