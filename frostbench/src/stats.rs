//! Order statistics the benchmark reports.
//!
//! A timing is reported as its median and, for latency, a tail
//! percentile. A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it: with fewer, it is set by one or
//! two outliers and does not repeat from run to run.

use std::time::Instant;

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (the mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median wall time of `reps` calls of `f`, seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// 1-based nearest rank of the `p`-quantile of `n` samples, `p` in
/// `(0, 1]`: the smallest rank with at least `p·n` samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-quantile of `xs` if at least [`MIN_BEYOND`] samples lie above
/// its rank, else `None`.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let r = rank(v.len(), p);
    (v.len() - r >= MIN_BEYOND).then_some(v[r - 1])
}

/// The highest of the usual reporting percentiles that `n` samples
/// support under the [`MIN_BEYOND`] rule, as a fraction; `None` when not
/// even the median does.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_insensitive_and_interpolates() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        // 999 samples: rank 990, only nine above it.
        assert_eq!(tail_percentile(&xs[..999], 0.99), None);
        // The order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail_percentile(&rev, 0.99), Some(990.0));
    }

    #[test]
    fn every_reported_tail_keeps_ten_samples_beyond_it() {
        for n in 1..3000usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some(p) = highest_supported(n) {
                let v = tail_percentile(&xs, p).expect("supported percentile reports");
                let beyond = xs.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            } else {
                assert!(n < 2 * MIN_BEYOND + 1, "n={n} supports at least the median");
            }
        }
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(5), None);
    }
}
