//! Descriptive statistics and small-sample interval estimates.

/// Arithmetic mean. Returns `None` on empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation (n − 1). `None` with fewer than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some((xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt())
}

/// Percentile by linear interpolation, `p ∈ [0, 100]`.
///
/// Returns `None` on empty input or out-of-range `p`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let w = rank - lo as f64;
        Some(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// Wilson score interval for a binomial proportion at ~95 % confidence.
/// Returns `(low, high)`. Well-behaved at the tiny n of this study
/// (1 failure / 18 hosts), unlike the Wald interval.
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_985; // 97.5th percentile of the standard normal
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Streaming (Welford) mean/variance accumulator.
///
/// Numerically stable one-pass statistics with an exact-count `merge`
/// (Chan et al.'s parallel formula), so ensemble workers can each fold
/// their share and combine. **Merging is associative only up to floating
/// point** — different merge trees differ in the last ulps — which is why
/// the ensemble engine always folds summaries in seed order: a fixed fold
/// order makes the result bit-reproducible across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Absorb another accumulator (parallel merge).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let d = other.mean - self.mean;
        self.mean += d * other.n as f64 / n;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean. `None` on an empty accumulator.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (n − 1). `None` with fewer than two samples.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation. `None` with fewer than two samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

/// Streaming min/max tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MinMax {
    n: u64,
    min: f64,
    max: f64,
}

impl MinMax {
    /// Empty tracker.
    pub fn new() -> MinMax {
        MinMax::default()
    }

    /// Absorb one sample (NaNs are ignored).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
    }

    /// Absorb another tracker.
    pub fn merge(&mut self, other: &MinMax) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Smallest sample seen. `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample seen. `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// A fixed-width histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub min: f64,
    /// Bin width.
    pub width: f64,
    /// Counts per bin.
    pub counts: Vec<u64>,
    /// Samples below `min` / at-or-above the last edge.
    pub underflow: u64,
    /// See `underflow`.
    pub overflow: u64,
}

impl Histogram {
    /// Empty histogram over `[min, min + width·bins)` for streaming use.
    ///
    /// # Panics
    /// Panics if `width <= 0` or `bins == 0`.
    pub fn new(min: f64, width: f64, bins: usize) -> Histogram {
        assert!(width > 0.0 && bins > 0, "bad histogram geometry");
        Histogram {
            min,
            width,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Build a histogram over `[min, min + width·bins)`.
    ///
    /// # Panics
    /// Panics if `width <= 0` or `bins == 0`.
    pub fn build(xs: &[f64], min: f64, width: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(min, width, bins);
        for &x in xs {
            h.push(x);
        }
        h
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        if x < self.min {
            self.underflow += 1;
        } else {
            let b = ((x - self.min) / self.width) as usize;
            if b >= self.counts.len() {
                self.overflow += 1;
            } else {
                self.counts[b] += 1;
            }
        }
    }

    /// Absorb another histogram of identical geometry.
    ///
    /// # Panics
    /// Panics if the geometries (min, width, bin count) differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.min == other.min
                && self.width == other.width
                && self.counts.len() == other.counts.len(),
            "histogram geometry mismatch"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Percentile estimate from the binned counts, `p ∈ [0, 100]`,
    /// mirroring [`percentile`]'s scheme: linear interpolation between
    /// the samples at the floor and ceiling of the target rank, with
    /// each sample located at the centroid of its share of its bin.
    ///
    /// Both anchor estimates land inside the bin their sample fell in,
    /// so the result is within **one bin width** of what [`percentile`]
    /// would compute on the raw samples. Underflow samples clamp to
    /// `min`, overflow to the top edge. Returns `None` on an empty
    /// histogram or out-of-range `p`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !(0.0..=100.0).contains(&p) {
            return None;
        }
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = p / 100.0 * (total - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let vlo = self.value_at_rank(lo);
        if lo == hi {
            return Some(vlo);
        }
        let w = rank - lo as f64;
        Some(vlo * (1.0 - w) + self.value_at_rank(hi) * w)
    }

    /// Binned estimate of the `k`-th (0-based) sorted sample: the point
    /// `(k + ½ − samples before its bin) / bin count` of the way through
    /// the bin that holds it.
    fn value_at_rank(&self, k: u64) -> f64 {
        let mut seen = self.underflow;
        if k < seen {
            return self.min;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && k < seen + c {
                let frac = ((k - seen) as f64 + 0.5) / c as f64;
                return self.min + self.width * (i as f64 + frac);
            }
            seen += c;
        }
        self.min + self.width * self.counts.len() as f64
    }

    /// Total samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        let sd = std_dev(&xs).unwrap();
        assert!((sd - 2.138).abs() < 1e-3, "{sd}");
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[1.0]), None);
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert!((percentile(&xs, 50.0).unwrap() - 50.5).abs() < 1e-9);
        assert!((percentile(&xs, 95.0).unwrap() - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 100.5), None);
        assert_eq!(percentile(&xs, -1.0), None);
    }

    #[test]
    fn wilson_paper_case() {
        // 1 failing host of 18 → point estimate 5.6 %; the Wilson interval
        // must cover Intel's 4.46 % (the paper calls the rates comparable).
        let (lo, hi) = wilson_interval(1, 18);
        assert!(lo < 0.0446 && 0.0446 < hi, "[{lo}, {hi}] must cover 4.46 %");
        assert!(lo > 0.0, "lower bound should be positive-ish but small");
        assert!(hi < 0.30, "upper bound {hi}");
    }

    #[test]
    fn wilson_edge_cases() {
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 20);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.25);
        let (lo2, hi2) = wilson_interval(20, 20);
        assert!(lo2 > 0.75);
        assert_eq!(hi2, 1.0);
    }

    #[test]
    fn wilson_shrinks_with_n() {
        let (lo1, hi1) = wilson_interval(5, 100);
        let (lo2, hi2) = wilson_interval(50, 1000);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn welford_matches_offline() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((w.std_dev().unwrap() - std_dev(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(Welford::new().mean(), None);
        let mut one = Welford::new();
        one.push(3.0);
        assert_eq!(one.variance(), None);
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let (mut a, mut b) = (Welford::new(), Welford::new());
        for &x in &xs[..33] {
            a.push(x);
        }
        for &x in &xs[33..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        // Merging an empty accumulator is the identity in both directions.
        let mut e = Welford::new();
        e.merge(&whole);
        assert_eq!(e, whole);
        let before = whole;
        whole.merge(&Welford::new());
        assert_eq!(whole, before);
    }

    #[test]
    fn minmax_tracks_and_merges() {
        let mut m = MinMax::new();
        assert_eq!(m.min(), None);
        m.push(3.0);
        m.push(-1.5);
        m.push(f64::NAN); // ignored
        m.push(7.0);
        assert_eq!(m.min(), Some(-1.5));
        assert_eq!(m.max(), Some(7.0));
        assert_eq!(m.count(), 3);
        let mut other = MinMax::new();
        other.push(-9.0);
        m.merge(&other);
        assert_eq!(m.min(), Some(-9.0));
        assert_eq!(m.max(), Some(7.0));
    }

    #[test]
    fn histogram_streaming_merge_equals_build() {
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.13).fract() * 10.0 - 1.0)
            .collect();
        let whole = Histogram::build(&xs, 0.0, 0.5, 16);
        let mut a = Histogram::new(0.0, 0.5, 16);
        let mut b = Histogram::new(0.0, 0.5, 16);
        for &x in &xs[..200] {
            a.push(x);
        }
        for &x in &xs[200..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn histogram_percentile_within_bin_width() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let h = Histogram::build(&xs, 0.0, 1.0, 110);
        assert!(h.percentile(50.0).is_some());
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            let exact = percentile(&xs, p).unwrap();
            let est = h.percentile(p).unwrap();
            assert!(
                (est - exact).abs() <= h.width,
                "p{p}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(Histogram::new(0.0, 1.0, 4).percentile(50.0), None);
    }

    #[test]
    fn histogram_binning() {
        let xs = [-5.0, 0.1, 0.9, 1.5, 2.5, 2.6, 99.0];
        let h = Histogram::build(&xs, 0.0, 1.0, 3);
        assert_eq!(h.counts, vec![2, 1, 2]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 7);
    }
}
