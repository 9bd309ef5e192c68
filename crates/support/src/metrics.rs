//! A metrics registry for long-lived services: counters, gauges, and
//! fixed-bucket latency histograms.
//!
//! The compile server (`oic serve`) and the load harness instrument every
//! service stage through one [`Registry`]; the whole registry exports as a
//! schema-stable `oi.metrics.v1` document ([`Registry::to_json`]) served
//! over the protocol's `stats` request and dumped by `--metrics-out`.
//!
//! Design points:
//!
//! - **Counters** are monotonic `u64` totals ([`Registry::add`]).
//!   [`Registry::set_counter`] mirrors an externally maintained monotonic
//!   total (e.g. the artifact cache's own hit/miss counts) into the
//!   registry so one document carries everything.
//! - **Gauges** are point-in-time `i64` values ([`Registry::gauge_set`],
//!   [`Registry::gauge_add`]) — requests in flight, cache bytes.
//! - **Histograms** use the fixed log-spaced nanosecond bucket bounds in
//!   [`DEFAULT_BOUNDS_NS`] *and* retain raw samples (capped at
//!   [`RAW_SAMPLE_CAP`]), so the p50/p90/p99 readout is computed by the
//!   same order-statistics code every wall-clock verdict in this workspace
//!   uses ([`crate::stats::percentile`]) rather than by lossy bucket
//!   interpolation. Past the cap the quantiles fall back to bucket upper
//!   bounds and the snapshot says so (`"raw_capped": true`).
//! - **Snapshot vs reset**: [`Registry::to_json`] is non-destructive —
//!   repeated snapshots with no recording in between are identical.
//!   [`Registry::reset`] zeroes counters and gauges and clears histogram
//!   state.
//!
//! The registry is internally synchronized (a poison-tolerant mutex), so
//! one instance can be shared across batch worker threads.

use crate::json::Json;
use crate::stats::{percentile, TimingStats};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Fixed histogram bucket upper bounds in nanoseconds, log-spaced (×4)
/// from 1µs to ~4s; an implicit overflow bucket catches the rest.
pub const DEFAULT_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_024_000_000,
    4_096_000_000,
];

/// Raw samples retained per histogram for exact quantiles, 8 bytes each
/// (512 KiB per full histogram). A long-lived server eventually overflows
/// this; quantiles then degrade to bucket upper bounds rather than growing
/// without bound.
pub const RAW_SAMPLE_CAP: usize = 65_536;

/// One fixed-bucket latency histogram with retained raw samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    /// Raw samples, saturated at `u64::MAX` ns (584 years).
    samples: Vec<u64>,
    capped: bool,
    count: u64,
    sum_ns: u128,
}

impl Histogram {
    /// An empty histogram over [`DEFAULT_BOUNDS_NS`].
    pub fn new() -> Histogram {
        Histogram::with_bounds(&DEFAULT_BOUNDS_NS)
    }

    /// An empty histogram over ascending `bounds` (upper bucket edges; an
    /// overflow bucket is always appended).
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            samples: Vec::new(),
            capped: false,
            count: 0,
            sum_ns: 0,
        }
    }

    /// Records one nanosecond sample: increments the first bucket whose
    /// upper bound is `>= ns` (the overflow bucket beyond the last bound)
    /// and retains the raw sample until [`RAW_SAMPLE_CAP`].
    pub fn record(&mut self, ns: u128) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| ns <= u128::from(b))
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ns += ns;
        if self.samples.len() < RAW_SAMPLE_CAP {
            self.samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
        } else {
            self.capped = true;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `pct` percentile in nanoseconds: exact (nearest-rank over the
    /// retained raw samples, via [`crate::stats::percentile`]) until the
    /// raw cap, then the upper bound of the first bucket holding the rank.
    pub fn quantile_ns(&self, pct: f64) -> u128 {
        if self.count == 0 {
            return 0;
        }
        if !self.capped {
            let mut sorted = self.wide_samples();
            sorted.sort_unstable();
            return percentile(&sorted, pct);
        }
        // Degraded path: walk the cumulative bucket counts.
        let rank = ((pct.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .map_or(u128::from(u64::MAX), u128::from);
            }
        }
        u128::from(u64::MAX)
    }

    /// The robust [`TimingStats`] summary of the retained raw samples.
    pub fn stats(&self) -> TimingStats {
        TimingStats::from_nanos(self.wide_samples())
    }

    /// The retained raw samples, widened for the order-statistics code.
    fn wide_samples(&self) -> Vec<u128> {
        self.samples.iter().map(|&ns| u128::from(ns)).collect()
    }

    /// Per-bucket `(upper bound, count)` pairs; the overflow bucket
    /// reports `None` as its bound.
    pub fn buckets(&self) -> Vec<(Option<u64>, u64)> {
        self.bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
            .collect()
    }

    /// The histogram as schema-stable JSON (embedded per-name in
    /// `oi.metrics.v1`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count.into()),
            (
                "sum_ns",
                (self.sum_ns.min(u128::from(u64::MAX)) as u64).into(),
            ),
            ("p50_ns", (self.quantile_ns(50.0) as u64).into()),
            ("p90_ns", (self.quantile_ns(90.0) as u64).into()),
            ("p99_ns", (self.quantile_ns(99.0) as u64).into()),
            ("raw_capped", self.capped.into()),
            (
                "buckets",
                Json::Arr(
                    self.buckets()
                        .into_iter()
                        .map(|(le, n)| {
                            Json::obj(vec![
                                ("le_ns", le.map_or(Json::Null, Json::from)),
                                ("count", n.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The named-metric registry. Cheap to create; meant to live as long as
/// the service it observes.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker that panicked inside `contained` while recording must
        // not wedge the whole registry: the data is monotone counters, so
        // continuing with the inner state is safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `delta` to the named monotonic counter (created at zero).
    pub fn add(&self, name: &str, delta: u64) {
        *self.locked().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named counter to an externally maintained monotonic total
    /// (mirroring, e.g., the artifact cache's own counters).
    pub fn set_counter(&self, name: &str, value: u64) {
        self.locked().counters.insert(name.to_string(), value);
    }

    /// The named counter's current value (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.locked().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.locked().gauges.insert(name.to_string(), value);
    }

    /// Adjusts the named gauge by `delta` (created at zero).
    pub fn gauge_add(&self, name: &str, delta: i64) {
        *self.locked().gauges.entry(name.to_string()).or_insert(0) += delta;
    }

    /// The named gauge's current value (zero when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.locked().gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one nanosecond sample into the named histogram (created
    /// with the default bounds).
    pub fn observe_ns(&self, name: &str, ns: u128) {
        self.locked()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// The `pct` percentile of the named histogram (zero when absent).
    pub fn quantile_ns(&self, name: &str, pct: f64) -> u128 {
        self.locked()
            .histograms
            .get(name)
            .map_or(0, |h| h.quantile_ns(pct))
    }

    /// Zeroes every counter and gauge and clears every histogram. The
    /// metric *names* survive (a post-reset snapshot keeps its shape).
    pub fn reset(&self) {
        let mut inner = self.locked();
        for v in inner.counters.values_mut() {
            *v = 0;
        }
        for v in inner.gauges.values_mut() {
            *v = 0;
        }
        for h in inner.histograms.values_mut() {
            *h = Histogram::with_bounds(&h.bounds.clone());
        }
    }

    /// The whole registry as a schema-stable `oi.metrics.v1` document.
    /// Non-destructive: snapshotting twice with no recording in between
    /// yields identical documents.
    pub fn to_json(&self) -> Json {
        let inner = self.locked();
        Json::obj(vec![
            ("schema", "oi.metrics.v1".into()),
            (
                "counters",
                Json::Obj(
                    inner
                        .counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), v.into()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    inner
                        .gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), v.into()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    inner
                        .histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A fixed-capacity sliding window of nanosecond samples with exact
/// order-statistics quantiles over the *recent* past only.
///
/// [`Histogram`] quantiles are cumulative over the whole run — right for
/// end-of-run verdicts, wrong for a feedback controller, which must see
/// latency *fall* once its own mitigation takes effect. `Window` keeps the
/// last `capacity` samples in a ring and forgets the rest, so the brownout
/// controller's p99 tracks current conditions and recovery is observable.
#[derive(Clone, Debug)]
pub struct Window {
    ring: Vec<u128>,
    capacity: usize,
    next: usize,
    filled: bool,
}

impl Window {
    /// An empty window retaining the last `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Window {
        Window {
            ring: Vec::new(),
            capacity: capacity.max(1),
            next: 0,
            filled: false,
        }
    }

    /// Records one sample, evicting the oldest once at capacity.
    pub fn record(&mut self, ns: u128) {
        if self.ring.len() < self.capacity {
            self.ring.push(ns);
        } else {
            self.ring[self.next] = ns;
            self.filled = true;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Samples currently held (saturates at the capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` until the first sample lands.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// `true` once the window has wrapped at least once.
    pub fn is_saturated(&self) -> bool {
        self.filled
    }

    /// The `pct` percentile (nearest-rank, [`crate::stats::percentile`])
    /// of the samples currently in the window; zero when empty.
    pub fn quantile_ns(&self, pct: f64) -> u128 {
        if self.ring.is_empty() {
            return 0;
        }
        let mut sorted = self.ring.clone();
        sorted.sort_unstable();
        percentile(&sorted, pct)
    }

    /// Forgets every sample (capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.next = 0;
        self.filled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_edges() {
        let mut h = Histogram::with_bounds(&[10, 100, 1000]);
        h.record(10); // lands in the <=10 bucket, not <=100
        h.record(11); // first value past an edge lands one bucket up
        h.record(100);
        h.record(1000);
        h.record(1001); // overflow bucket
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 4, "3 bounded buckets + overflow");
        assert_eq!(buckets[0], (Some(10), 1));
        assert_eq!(buckets[1], (Some(100), 2));
        assert_eq!(buckets[2], (Some(1000), 1));
        assert_eq!(buckets[3], (None, 1));
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn default_bounds_are_ascending_and_cover_microseconds_to_seconds() {
        assert!(DEFAULT_BOUNDS_NS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(DEFAULT_BOUNDS_NS[0], 1_000);
        assert!(*DEFAULT_BOUNDS_NS.last().unwrap() >= 4_000_000_000);
        let h = Histogram::new();
        assert_eq!(h.buckets().len(), DEFAULT_BOUNDS_NS.len() + 1);
    }

    #[test]
    fn quantiles_match_stats_order_statistics_on_the_same_samples() {
        // The satellite contract: histogram p50/p99 must agree with
        // oi_support::stats on the identical sample set.
        let samples: Vec<u128> = (1..=1000).rev().map(|i| i * 100).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(h.quantile_ns(50.0), stats::percentile(&sorted, 50.0));
        assert_eq!(h.quantile_ns(90.0), stats::percentile(&sorted, 90.0));
        assert_eq!(h.quantile_ns(99.0), stats::percentile(&sorted, 99.0));
        // Odd-length sets: nearest-rank p50 is exactly the median.
        let odd: Vec<u128> = vec![5, 1, 9, 3, 7];
        let mut ho = Histogram::new();
        for &s in &odd {
            ho.record(s);
        }
        let mut odd_sorted = odd.clone();
        odd_sorted.sort_unstable();
        assert_eq!(ho.quantile_ns(50.0), stats::median(&odd_sorted));
    }

    #[test]
    fn samples_beyond_u64_saturate() {
        let mut h = Histogram::with_bounds(&[10]);
        h.record(5);
        h.record(u128::from(u64::MAX) * 2);
        assert_eq!(h.quantile_ns(50.0), 5);
        assert_eq!(h.quantile_ns(100.0), u128::from(u64::MAX));
    }

    #[test]
    fn capped_histogram_degrades_to_bucket_bounds() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.samples = vec![0; RAW_SAMPLE_CAP]; // simulate a full reservoir
        h.count = RAW_SAMPLE_CAP as u64;
        h.counts[0] = RAW_SAMPLE_CAP as u64;
        h.record(50);
        assert!(h.capped);
        // Everything recorded so far ranks within the first two buckets.
        assert_eq!(h.quantile_ns(50.0), 10);
        assert_eq!(h.quantile_ns(100.0), 100);
    }

    #[test]
    fn snapshot_is_repeatable_and_reset_zeroes() {
        let r = Registry::new();
        r.add("serve.requests", 3);
        r.gauge_set("serve.in_flight", 2);
        r.observe_ns("serve.total_ns", 1_500);
        r.observe_ns("serve.total_ns", 2_500);
        let a = r.to_json().to_string();
        let b = r.to_json().to_string();
        assert_eq!(a, b, "snapshots are non-destructive");
        let doc = crate::Json::parse(&a).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.metrics.v1")
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(Json::as_i64),
            Some(3)
        );
        r.reset();
        assert_eq!(r.counter("serve.requests"), 0);
        assert_eq!(r.gauge("serve.in_flight"), 0);
        assert_eq!(r.quantile_ns("serve.total_ns", 99.0), 0);
        let after = crate::Json::parse(&r.to_json().to_string()).unwrap();
        assert!(
            after
                .get("histograms")
                .and_then(|h| h.get("serve.total_ns"))
                .is_some(),
            "names survive a reset"
        );
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        r.add("hits", 1);
        r.add("hits", 2);
        assert_eq!(r.counter("hits"), 3);
        r.set_counter("hits", 10);
        assert_eq!(r.counter("hits"), 10);
        r.gauge_add("in_flight", 1);
        r.gauge_add("in_flight", 1);
        r.gauge_add("in_flight", -1);
        assert_eq!(r.gauge("in_flight"), 1);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("absent"), 0);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        r.add("n", 1);
                        r.observe_ns("t", 10);
                    }
                });
            }
        });
        assert_eq!(r.counter("n"), 400);
        assert_eq!(r.quantile_ns("t", 50.0), 10);
    }

    #[test]
    fn window_quantiles_track_only_recent_samples() {
        let mut w = Window::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile_ns(99.0), 0);
        for ns in [1_000u128, 2_000, 3_000, 4_000] {
            w.record(ns);
        }
        assert_eq!(w.len(), 4);
        assert!(!w.is_saturated());
        assert_eq!(w.quantile_ns(50.0), 2_000);
        assert_eq!(w.quantile_ns(100.0), 4_000);
        // Four cheap samples evict the expensive past entirely: the p99
        // falls, which is exactly what a cumulative histogram cannot do.
        for _ in 0..4 {
            w.record(10);
        }
        assert!(w.is_saturated());
        assert_eq!(w.quantile_ns(99.0), 10);
        w.clear();
        assert!(w.is_empty());
        assert!(!w.is_saturated());
        // Capacity is floored at one and keeps only the latest sample.
        let mut tiny = Window::new(0);
        tiny.record(5);
        tiny.record(7);
        assert_eq!(tiny.len(), 1);
        assert_eq!(tiny.quantile_ns(50.0), 7);
    }

    /// A contained job that dies while recording poisons the registry
    /// mutex. The serve loop exports metrics after every request, so a
    /// poisoned registry must keep recording and exporting — a panicking
    /// reader must never take the metrics endpoint (or the server) down
    /// with it.
    #[test]
    fn poisoned_registry_keeps_recording_and_exporting() {
        let _quiet = crate::panic::silence_hook();
        let r = std::sync::Arc::new(Registry::new());
        r.add("serve.requests", 3);
        r.observe_ns("serve.total_ns", 1_000);

        let poisoner = r.clone();
        let worker = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().expect("first lock is clean");
            panic!("reader dies while holding the registry lock");
        });
        assert!(worker.join().is_err(), "the poisoner must panic");
        assert!(r.inner.lock().is_err(), "the mutex must be poisoned");

        // Export must not panic — and must still see the pre-poison data.
        let doc = crate::panic::contained(|| r.to_json()).expect("export must not panic");
        assert_eq!(
            doc.get("schema").and_then(crate::Json::as_str),
            Some("oi.metrics.v1")
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(crate::Json::as_i64),
            Some(3)
        );

        // And the registry keeps accepting writes afterwards.
        r.add("serve.requests", 1);
        r.gauge_set("serve.in_flight", 2);
        r.observe_ns("serve.total_ns", 2_000);
        assert_eq!(r.counter("serve.requests"), 4);
        assert_eq!(r.gauge("serve.in_flight"), 2);
        assert!(r.quantile_ns("serve.total_ns", 99.0) >= 1_000);
    }
}
