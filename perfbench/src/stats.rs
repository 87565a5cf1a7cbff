//! Order statistics used by every workload and by `compare`.

/// Nearest-rank index (1-based) of percentile `p` (in `0..=1`) in a
/// sample of `n`: the smallest rank whose share of the sample is at
/// least `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p * n` (0.95 × 200 is not
    // exactly 190) from pushing the rank up by one.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Whether percentile `p` of `n` samples has at least ten samples
/// beyond it — the benchmark reports no percentile less supported.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Nearest-rank percentile `p` of `values` (any order). `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The middle value (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Arithmetic mean; `0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads computed here match the ones the acceptance
/// procedure computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0, 3.0, 5.0], 0.5), Some(5.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 leaves exactly 10 above it; of 99 only 9.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert!(supported(100, 0.90));
        assert!(!supported(99, 0.90));
        // p99 needs a thousand samples, p95 two hundred.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        // The median needs twenty samples.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert_eq!(nearest_rank(200, 0.95), 190);
        assert_eq!(nearest_rank(1000, 0.99), 990);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
