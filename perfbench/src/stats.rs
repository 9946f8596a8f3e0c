//! Order statistics with the benchmark's sample-count rule: a timing is
//! reported as its median and the highest percentile (capped at p99) that
//! still leaves at least ten samples beyond it, together with the count.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The summary of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile in whole percent (99 at ≥ 1,000 samples).
    pub tail_pct: usize,
    pub tail: f64,
    pub max: f64,
}

/// Nearest-rank value at whole percentile `pct` of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest whole percentile ≤ 99 whose nearest-rank position leaves
/// [`TAIL_BEYOND`] samples above it, or `None` when `n` is too small for
/// that percentile to reach the median.
pub fn tail_percentile(n: usize) -> Option<usize> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    Some((100 * (n - TAIL_BEYOND) / n).min(99))
}

/// Median of unsorted values (upper median for even counts, matching the
/// nearest-rank rule everywhere else).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50)
}

/// Harrell–Davis estimate of the median: a weighted mean of every order
/// statistic, the `i`-th weighted by the mass a Beta((n+1)/2, (n+1)/2)
/// density puts on `[(i-1)/n, i/n]`. Where samples fall into separated
/// clusters and the plain median sits on a gap between two of them, one
/// sample crossing the gap moves this estimate by a fraction of the gap
/// instead of the whole of it.
pub fn harrell_davis_median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let a = (n as f64 + 1.0) / 2.0;
    // Beta density up to its normalizing constant, integrated over each
    // order statistic's interval by the midpoint rule.
    const STEPS: usize = 64;
    let h = 1.0 / (n * STEPS) as f64;
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let mut w = 0.0;
        for k in 0..STEPS {
            let t = ((i * STEPS + k) as f64 + 0.5) * h;
            w += ((a - 1.0) * (t.ln() + (1.0 - t).ln())).exp();
        }
        weighted += w * x;
        total += w;
    }
    weighted / total
}

/// Median, tail and max of `samples`; `None` when there are too few
/// samples for a tail percentile.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_pct = tail_percentile(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
        max: sorted[sorted.len() - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 90), 9.0);
        assert_eq!(percentile(&xs, 99), 10.0);
        assert_eq!(percentile(&xs, 0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(48), Some(79));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let pct = tail_percentile(n).unwrap();
            let rank = (pct * n).div_ceil(100);
            assert!(
                n - rank >= TAIL_BEYOND,
                "n={n} pct={pct} leaves {}",
                n - rank
            );
            // One percent higher would leave fewer than ten (unless capped).
            if pct < 99 {
                let next = ((pct + 1) * n).div_ceil(100);
                assert!(n - next < TAIL_BEYOND, "n={n}: p{} also fits", pct + 1);
            }
        }
    }

    #[test]
    fn harrell_davis_median_is_central_and_smooth() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert!((harrell_davis_median(&xs) - 5.5).abs() < 1e-9);
        assert_eq!(harrell_davis_median(&[7.0]), 7.0);
        // Two clusters with the median on the gap: one sample crossing it
        // moves the plain median by the whole gap, this by a fraction.
        let before: Vec<f64> = (0..48).map(|i| if i < 24 { 1.0 } else { 2.0 }).collect();
        let after: Vec<f64> = (0..48).map(|i| if i < 23 { 1.0 } else { 2.0 }).collect();
        assert_eq!(median(&after) - median(&before), 1.0);
        let moved = harrell_davis_median(&after) - harrell_davis_median(&before);
        assert!(moved > 0.0 && moved < 0.2, "moved {moved}");
    }

    #[test]
    fn summary_of_a_known_series() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.max, 1000.0);
        assert!(summarize(&xs[..10]).is_none());
    }
}
