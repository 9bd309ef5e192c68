//! Order statistics for every reported number.
//!
//! The benchmark computes its own nearest-rank percentiles over *all*
//! samples. It does not use `oi_support::stats::TimingStats`: that type
//! rejects IQR outliers (dropping exactly the tail a p99 must keep) and,
//! below four samples, returns min/median/max in arrival order.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Samples beyond the nearest-rank `pct` percentile of `n` samples.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// A sorted copy of `samples` (total order; samples are finite times).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Geometric mean of positive values (`NaN` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_support::rng::XorShift64;

    #[test]
    fn order_statistics_are_ordered_for_every_sample_count() {
        let mut rng = XorShift64::new(11);
        for n in 1..=400usize {
            let samples: Vec<f64> = (0..n)
                .map(|_| (rng.next_u64() % 10_000) as f64 / 7.0)
                .collect();
            let s = sorted(&samples);
            let (min, p50, p99, max) = (
                percentile(&s, 0.0),
                percentile(&s, 50.0),
                percentile(&s, 99.0),
                percentile(&s, 100.0),
            );
            assert!(
                min <= p50 && p50 <= p99 && p99 <= max,
                "n={n}: {min} {p50} {p99} {max}"
            );
            let true_min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let true_max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!((min, max), (true_min, true_max), "n={n}");
        }
    }

    #[test]
    fn nearest_rank_keeps_the_tail() {
        // One slow sample in a hundred is the p100, and p99 is the 99th.
        let mut samples: Vec<f64> = (1..=99).map(f64::from).collect();
        samples.push(1e6);
        let s = sorted(&samples);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 1e6);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
