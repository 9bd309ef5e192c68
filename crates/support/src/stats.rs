//! Robust statistics for wall-clock timing samples.
//!
//! Modeled metrics (cycles, allocations) are deterministic and gate at a
//! 0% threshold; wall-clock is not. Judging a duration therefore needs a
//! noise model, and this module is the one place it lives: every tool
//! that reports or compares a wall time ([`crate::trace`] consumers,
//! `oi-bench` snapshots, `oic prof`) goes through these functions.
//!
//! The model is deliberately order-statistic-based — median and MAD, not
//! mean and standard deviation — because timing samples on a shared
//! machine are heavy-tailed: one scheduler preemption produces an outlier
//! that would dominate a mean. The pieces:
//!
//! - [`median`] / [`mad`]: location and scale estimators with a 50%
//!   breakdown point.
//! - [`reject_outliers_iqr`]: Tukey-fence rejection (1.5×IQR beyond the
//!   quartiles) applied before a sample set is summarized.
//! - [`TimingStats::from_nanos`]: the one-stop summary — rejection, then
//!   order statistics, then a relative-spread figure.
//! - [`time_once`]: the one clock read behind every one-shot duration.
//! - [`ab_split_floor_pct`]: the calibrated noise floor. Samples taken in
//!   arrival order are split into interleaved A/B halves (A = even
//!   positions, B = odd); both halves ran the *same binary*, so any
//!   difference between their medians is pure measurement noise. The
//!   relative A/B delta is the smallest change the harness could possibly
//!   resolve — a real regression must clear it.

use crate::json::Json;
use std::time::Instant;

/// Times `f` once, returning its value and the elapsed wall-clock
/// nanoseconds. Every one-shot duration in the workspace reads the clock
/// here rather than through its own `Instant`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos())
}

/// Median of a **sorted** slice: the midpoint average for even lengths,
/// the middle element for odd. Zero on empty input.
pub fn median(sorted: &[u128]) -> u128 {
    match sorted.len() {
        0 => 0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
    }
}

/// Median absolute deviation from `center`. Zero on empty input and for
/// all-identical samples (any order accepted).
pub fn mad(samples: &[u128], center: u128) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    let mut devs: Vec<u128> = samples.iter().map(|&s| s.abs_diff(center)).collect();
    devs.sort_unstable();
    median(&devs)
}

/// Nearest-rank percentile of a **sorted** slice: the smallest sample
/// such that at least `pct` percent of the set is at or below it, so the
/// result is always an actual sample. `pct` is clamped to `[0, 100]`;
/// zero on empty input. `percentile(s, 50.0)` equals [`median`] for odd
/// lengths (nearest-rank never interpolates).
pub fn percentile(sorted: &[u128], pct: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartiles of a **sorted** slice: the nearest-rank
/// 25th and 75th [`percentile`]s, so the values are always actual
/// samples. `(0, 0)` on empty input.
pub fn quartiles(sorted: &[u128]) -> (u128, u128) {
    (percentile(sorted, 25.0), percentile(sorted, 75.0))
}

/// Drops samples outside the Tukey fences `[q1 - 1.5*IQR, q3 + 1.5*IQR]`
/// and reports how many were rejected. The kept samples come back sorted.
/// Sets of fewer than four samples keep every sample — quartiles are
/// meaningless there.
pub fn reject_outliers_iqr(mut samples: Vec<u128>) -> (Vec<u128>, usize) {
    samples.sort_unstable();
    if samples.len() < 4 {
        return (samples, 0);
    }
    let (q1, q3) = quartiles(&samples);
    let iqr = q3 - q1;
    let lo = q1.saturating_sub(iqr + iqr / 2);
    let hi = q3 + iqr + iqr / 2;
    let before = samples.len();
    samples.retain(|&s| (lo..=hi).contains(&s));
    let rejected = before - samples.len();
    (samples, rejected)
}

/// The robust summary of one timing-sample set, in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimingStats {
    /// Samples provided (before outlier rejection).
    pub n: usize,
    /// Samples rejected by the IQR fences.
    pub rejected: usize,
    /// Fastest kept sample.
    pub min: u128,
    /// Median of the kept samples.
    pub median: u128,
    /// Slowest kept sample.
    pub max: u128,
    /// Median absolute deviation of the kept samples.
    pub mad: u128,
    /// `100 * mad / median` — the relative spread, in percent. Zero when
    /// the median is zero.
    pub rel_mad_pct: f64,
}

impl TimingStats {
    /// Summarizes raw nanosecond samples (any order): IQR rejection, then
    /// order statistics on what survives. Empty input yields the zeroed
    /// summary rather than panicking — callers report "no samples", they
    /// don't crash.
    pub fn from_nanos(samples: Vec<u128>) -> TimingStats {
        let n = samples.len();
        let (kept, rejected) = reject_outliers_iqr(samples);
        if kept.is_empty() {
            return TimingStats {
                n,
                rejected,
                ..TimingStats::default()
            };
        }
        let med = median(&kept);
        let mad = mad(&kept, med);
        TimingStats {
            n,
            rejected,
            min: kept[0],
            median: med,
            max: kept[kept.len() - 1],
            mad,
            rel_mad_pct: if med == 0 {
                0.0
            } else {
                100.0 * mad as f64 / med as f64
            },
        }
    }

    /// The summary as a JSON object with a stable key order (embedded in
    /// `oi.bench.v1` rows and `oi.prof.v1` documents).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("n", (self.n as u64).into()),
            ("rejected", (self.rejected as u64).into()),
            ("min", (self.min as u64).into()),
            ("median", (self.median as u64).into()),
            ("max", (self.max as u64).into()),
            ("mad", (self.mad as u64).into()),
            ("rel_mad_pct", self.rel_mad_pct.into()),
        ])
    }
}

/// The calibrated noise floor from repeated same-binary runs, in percent.
///
/// `ordered` must be in **arrival order** (the order the runs actually
/// happened). It is split into interleaved halves — even positions form
/// group A, odd positions group B — so both groups sample the same
/// machine conditions over the same wall-clock window. Both groups ran
/// identical work, so `|median(A) - median(B)| / median(all)` measures
/// the harness's own resolution: a cross-build delta below this figure is
/// indistinguishable from noise. Returns zero when fewer than two samples
/// exist or the overall median is zero.
pub fn ab_split_floor_pct(ordered: &[u128]) -> f64 {
    if ordered.len() < 2 {
        return 0.0;
    }
    let mut a: Vec<u128> = ordered.iter().step_by(2).copied().collect();
    let mut b: Vec<u128> = ordered.iter().skip(1).step_by(2).copied().collect();
    a.sort_unstable();
    b.sort_unstable();
    let mut all: Vec<u128> = ordered.to_vec();
    all.sort_unstable();
    let overall = median(&all);
    if overall == 0 {
        return 0.0;
    }
    let delta = median(&a).abs_diff(median(&b));
    100.0 * delta as f64 / overall as f64
}

/// The noise floor for one sample set: the larger of the interleaved A/B
/// split delta and the relative MAD. Both are needed — the A/B split
/// catches drift over the sampling window (thermal ramp, background
/// load), the MAD catches per-run jitter.
pub fn noise_floor_pct(ordered: &[u128]) -> f64 {
    let stats = TimingStats::from_nanos(ordered.to_vec());
    ab_split_floor_pct(ordered).max(stats.rel_mad_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_empty_single_even_odd() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 3]), 2);
        assert_eq!(median(&[1, 3, 5]), 3);
        assert_eq!(median(&[1, 3, 5, 100]), 4);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        let s: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Odd lengths: p50 coincides with the median.
        let odd = [1, 3, 5];
        assert_eq!(percentile(&odd, 50.0), median(&odd));
    }

    #[test]
    fn mad_is_zero_for_identical_and_empty() {
        assert_eq!(mad(&[], 0), 0);
        assert_eq!(mad(&[5, 5, 5, 5], 5), 0);
        // {1, 2, 9}, center 2 -> deviations {1, 0, 7} -> median 1.
        assert_eq!(mad(&[1, 2, 9], 2), 1);
    }

    #[test]
    fn iqr_rejects_constructed_outliers() {
        // Tight cluster plus one wild point: the fence drops exactly it.
        let samples = vec![100, 101, 99, 102, 98, 100, 101, 5000];
        let (kept, rejected) = reject_outliers_iqr(samples);
        assert_eq!(rejected, 1);
        assert!(!kept.contains(&5000));
        assert_eq!(kept.len(), 7);
    }

    #[test]
    fn quartiles_are_nearest_rank_at_every_small_n() {
        assert_eq!(quartiles(&[]), (0, 0));
        assert_eq!(quartiles(&[7]), (7, 7));
        // n = 4: ranks ceil(1) = 1 and ceil(3) = 3, so Q3 is not the max.
        assert_eq!(quartiles(&[1, 2, 3, 4]), (1, 3));
        assert_eq!(quartiles(&[1, 2, 3, 4, 5]), (2, 4));
        assert_eq!(quartiles(&[1, 2, 3, 4, 5, 6, 7, 8]), (2, 6));
    }

    #[test]
    fn iqr_fences_out_the_slowest_of_four() {
        // Nearest-rank quartiles (100, 102): the upper fence is 105.
        let (kept, rejected) = reject_outliers_iqr(vec![100, 101, 102, 5000]);
        assert_eq!(rejected, 1);
        assert_eq!(kept, vec![100, 101, 102]);
    }

    #[test]
    fn time_once_returns_the_value_and_its_duration() {
        let (value, nanos) = time_once(|| 40 + 2);
        assert_eq!(value, 42);
        assert!(nanos < 1_000_000_000);
    }

    #[test]
    fn iqr_passes_small_sets_through() {
        let (kept, rejected) = reject_outliers_iqr(vec![1, 1_000_000, 2]);
        assert_eq!(rejected, 0);
        assert_eq!(kept, vec![1, 2, 1_000_000]);
    }

    #[test]
    fn timing_stats_order_statistics_hold_for_every_small_n() {
        // Descending and zig-zag arrival orders: the warm-up sample first
        // must never be reported as the minimum.
        for n in 0..=9u128 {
            let descending: Vec<u128> = (0..n).map(|i| 1_000 - i * 10).collect();
            let zigzag: Vec<u128> = (0..n).map(|i| 500 + (i % 2) * 300 - i).collect();
            for samples in [descending, zigzag] {
                let s = TimingStats::from_nanos(samples.clone());
                assert!(
                    s.min <= s.median && s.median <= s.max,
                    "n={n} {samples:?}: min {} median {} max {}",
                    s.min,
                    s.median,
                    s.max
                );
                if let (Some(lo), Some(hi)) = (samples.iter().min(), samples.iter().max()) {
                    if n < 4 {
                        assert_eq!((s.min, s.max), (*lo, *hi), "n={n} {samples:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn timing_stats_on_empty_input_is_zeroed() {
        let s = TimingStats::from_nanos(vec![]);
        assert_eq!(s.n, 0);
        assert_eq!(s.median, 0);
        assert_eq!(s.rel_mad_pct, 0.0);
    }

    #[test]
    fn timing_stats_on_single_sample() {
        let s = TimingStats::from_nanos(vec![42]);
        assert_eq!((s.n, s.min, s.median, s.max, s.mad), (1, 42, 42, 42, 0));
        assert_eq!(s.rejected, 0);
    }

    #[test]
    fn timing_stats_on_identical_samples_has_zero_spread() {
        let s = TimingStats::from_nanos(vec![10; 8]);
        assert_eq!(s.median, 10);
        assert_eq!(s.mad, 0);
        assert_eq!(s.rel_mad_pct, 0.0);
        assert_eq!(s.rejected, 0);
    }

    #[test]
    fn timing_stats_rejects_outliers_before_summarizing() {
        let s = TimingStats::from_nanos(vec![100, 101, 99, 102, 98, 100, 101, 5000]);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.max, 102);
        assert!(s.median >= 98 && s.median <= 102);
    }

    #[test]
    fn ab_split_floor_is_zero_for_stable_samples() {
        assert_eq!(ab_split_floor_pct(&[100; 10]), 0.0);
        assert_eq!(ab_split_floor_pct(&[100]), 0.0);
        assert_eq!(ab_split_floor_pct(&[]), 0.0);
    }

    #[test]
    fn ab_split_floor_sees_drift() {
        // First half fast, second half slow: the interleaved split keeps
        // both groups exposed to the drift, but an alternating pattern
        // (A always fast, B always slow) is fully resolved.
        let alternating = [100, 120, 100, 120, 100, 120];
        let floor = ab_split_floor_pct(&alternating);
        assert!(floor > 15.0, "floor {floor} should expose the A/B gap");
    }

    #[test]
    fn noise_floor_combines_split_and_mad() {
        let noisy = [100, 140, 90, 150, 95, 160];
        assert!(noise_floor_pct(&noisy) > 0.0);
        assert_eq!(noise_floor_pct(&[50; 6]), 0.0);
    }

    #[test]
    fn timing_stats_json_is_schema_stable() {
        let j = TimingStats::from_nanos(vec![10, 20, 30])
            .to_json()
            .to_string();
        let parsed = Json::parse(&j).unwrap();
        for key in [
            "n",
            "rejected",
            "min",
            "median",
            "max",
            "mad",
            "rel_mad_pct",
        ] {
            assert!(parsed.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(parsed.get("median").and_then(Json::as_i64), Some(20));
    }
}
