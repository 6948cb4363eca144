//! Summaries of repeated measurements.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer nanosecond samples, as f64.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// The tail of `values`: the highest percentile that still has at least
/// ten samples beyond it, as `(percentile, value)`. With 21 or fewer
/// samples that rank is at or below the median, and the median is
/// returned. The percentile depends only on the sample count, so callers
/// fix the count to compare tails across runs.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= 21 {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // 1-based rank r leaves n - r samples beyond it.
    let rank = n - 10;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let few: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 11.0));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&thirty).1, 20.0);
    }
}
