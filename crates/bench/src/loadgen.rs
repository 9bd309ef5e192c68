//! `oic bench loadgen` — deterministic replayed load against an
//! in-process compile server.
//!
//! The harness synthesizes `N` distinct compilable sources, replays a
//! seeded Zipf-skewed request trace over them against an in-process
//! [`crate::serve::Server`], and emits a schema-stable `oi.load.v1`
//! document with the achieved cache hit rate and p50/p99 service
//! latencies split by cache outcome.
//!
//! Everything is deterministic: the trace is drawn from
//! [`oi_support::rng::XorShift64`] with a fixed seed, so two runs with
//! the same flags replay byte-identical request sequences. The document
//! carries its own verdict (`ok`) so ci.sh can gate on it:
//!
//! - zero errored requests,
//! - hit rate at or above the trace's theoretical floor
//!   (`(requests - distinct sources sampled) / requests` — every distinct
//!   source must miss exactly once, nothing else may),
//! - hit latency distribution well-formed (p99 present and finite),
//! - the server's `oi.metrics.v1` counters reconcile exactly with the
//!   harness's own request/hit/miss/error tallies.

use crate::cli::{scan_flags, Output};
use crate::replay::{Line, Reply, Tally};
use crate::serve::{ServeConfig, Server};
use oi_support::rng::XorShift64;
use oi_support::stats::{percentile, TimingStats};
use oi_support::Json;
use std::collections::BTreeSet;

/// Loadgen knobs (flags of `oic bench loadgen`).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Requests to replay.
    pub requests: u64,
    /// Distinct synthetic sources the trace draws from.
    pub sources: u64,
    /// PRNG seed for the Zipf draw.
    pub seed: u64,
    /// Zipf skew exponent (`1.0` is the classic heavy head).
    pub zipf_s: f64,
    /// Server cache budget in bytes.
    pub cache_bytes: usize,
    /// Immediate re-attempts allowed per request when the server answers
    /// a typed retryable refusal (brownout sheds, quarantine). The
    /// synchronous replay never sleeps — this records retry *outcomes*,
    /// the paced backoff contract lives in `oic client`.
    pub retries: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 10_000,
            sources: 50,
            seed: 1,
            zipf_s: 1.0,
            cache_bytes: 64 << 20,
            retries: 0,
        }
    }
}

/// The replay's outcome — everything `oi.load.v1` carries.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The configuration replayed.
    pub config: LoadgenConfig,
    /// Distinct source indices the trace actually touched.
    pub sampled_sources: u64,
    /// Client-side tallies: hits, misses (fresh compiles), errors, and
    /// retry outcomes (`--retries`).
    pub tally: Tally,
    /// `hits / requests`.
    pub hit_rate: f64,
    /// The theoretical floor: `(requests - sampled_sources) / requests`.
    pub floor_hit_rate: f64,
    /// Robust summary of hit latencies (ns).
    pub hit_ns: TimingStats,
    /// Robust summary of miss (cold-compile) latencies (ns).
    pub miss_ns: TimingStats,
    /// Nearest-rank p50 of hit latencies (ns).
    pub hit_p50_ns: u128,
    /// Nearest-rank p99 of hit latencies (ns).
    pub hit_p99_ns: u128,
    /// Nearest-rank p50 of miss latencies (ns).
    pub miss_p50_ns: u128,
    /// Nearest-rank p99 of miss latencies (ns).
    pub miss_p99_ns: u128,
    /// `miss_p50 / hit_p99` — how much faster the *worst* typical hit is
    /// than the *median* cold compile.
    pub speedup_hit_p99_vs_miss_p50: f64,
    /// Whether the server's metrics counters match the harness tallies
    /// exactly.
    pub reconciled: bool,
    /// The server's final `oi.metrics.v1` document.
    pub metrics: Json,
    /// The gate verdict (see module docs).
    pub ok: bool,
}

impl LoadReport {
    /// The report as a schema-stable `oi.load.v1` document.
    pub fn to_json(&self) -> Json {
        let t = &self.tally;
        Json::obj(vec![
            ("schema", "oi.load.v1".into()),
            ("requests", self.config.requests.into()),
            ("distinct_sources", self.config.sources.into()),
            ("sampled_sources", self.sampled_sources.into()),
            ("seed", self.config.seed.into()),
            ("zipf_s", self.config.zipf_s.into()),
            ("cache_bytes", (self.config.cache_bytes as u64).into()),
            ("hits", t.hits.into()),
            ("misses", (t.disk_hits + t.misses).into()),
            ("errors", t.errors.into()),
            ("retried_requests", t.retried.into()),
            ("retry_attempts", t.retry_attempts().into()),
            ("give_ups", t.give_ups.into()),
            (
                "attempts_histogram",
                Json::Obj(
                    t.attempts_histogram
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("hit_rate", self.hit_rate.into()),
            ("floor_hit_rate", self.floor_hit_rate.into()),
            ("hit_ns", self.hit_ns.to_json()),
            ("miss_ns", self.miss_ns.to_json()),
            ("hit_p50_ns", (self.hit_p50_ns as u64).into()),
            ("hit_p99_ns", (self.hit_p99_ns as u64).into()),
            ("miss_p50_ns", (self.miss_p50_ns as u64).into()),
            ("miss_p99_ns", (self.miss_p99_ns as u64).into()),
            (
                "speedup_hit_p99_vs_miss_p50",
                self.speedup_hit_p99_vs_miss_p50.into(),
            ),
            ("reconciled", self.reconciled.into()),
            ("metrics", self.metrics.clone()),
            ("ok", self.ok.into()),
        ])
    }
}

/// One distinct, deterministically generated compilable source. Index
/// `i` varies class names and constants, so every source is
/// byte-distinct (distinct cache key) but lands on the same tier.
pub fn synthetic_source(i: u64) -> String {
    format!(
        "
        global KEEP;
        class Point{i} {{ field x; field y;
          method init(a, b) {{ self.x = a; self.y = b; }}
        }}
        class Rect{i} {{ field ll; field ur;
          method init(a, b) {{ self.ll = new Point{i}(a, a + {off}); self.ur = new Point{i}(b, b + 3); }}
          method span() {{ return self.ur.x - self.ll.x + self.ur.y - self.ll.y; }}
        }}
        fn main() {{
          var r = new Rect{i}({lo}, {hi});
          KEEP = r;
          print KEEP.span();
        }}",
        off = i % 5 + 1,
        lo = i % 7 + 1,
        hi = i % 11 + 10,
    )
}

/// A seeded Zipf(s) sampler over `{0, .., n-1}`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with skew `s`.
    pub fn new(n: u64, s: f64) -> ZipfSampler {
        let mut cumulative = Vec::with_capacity(n.max(1) as usize);
        let mut total = 0.0;
        for k in 0..n.max(1) {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfSampler { cumulative, total }
    }

    /// Draws one rank using `rng`.
    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        let u = (rng.next_u64() as f64 / u64::MAX as f64) * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(self.cumulative.len() as u64 - 1),
        }
    }
}

/// Replays the configured trace against a fresh in-process server and
/// returns the full report.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadReport {
    let server = Server::new(ServeConfig {
        cache_bytes: config.cache_bytes,
        ..ServeConfig::default()
    });
    run_loadgen_on(&server, config)
}

/// Replays the trace against a caller-provided server — the seam that
/// lets harnesses pre-condition the server (force a brownout tier, warm
/// the cache) before the replay.
pub fn run_loadgen_on(server: &Server, config: &LoadgenConfig) -> LoadReport {
    let sources: Vec<String> = (0..config.sources).map(synthetic_source).collect();
    let sampler = ZipfSampler::new(config.sources, config.zipf_s);
    let mut rng = XorShift64::new(config.seed);

    let mut sampled: BTreeSet<u64> = BTreeSet::new();
    let mut tally = Tally::default();
    let mut hit_samples: Vec<u128> = Vec::new();
    let mut miss_samples: Vec<u128> = Vec::new();

    for request_id in 0..config.requests {
        let rank = sampler.sample(&mut rng);
        sampled.insert(rank);
        let line = Line::compile(request_id, &sources[rank as usize]).to_string();
        let (response, wall_ns) = tally.send(server, &line, config.retries);
        let reply = Reply(&response);
        if reply.ok() {
            if reply.cache() == Some("hit") {
                hit_samples.push(wall_ns);
            } else {
                miss_samples.push(wall_ns);
            }
        }
    }

    hit_samples.sort_unstable();
    miss_samples.sort_unstable();
    let hit_p50_ns = percentile(&hit_samples, 50.0);
    let hit_p99_ns = percentile(&hit_samples, 99.0);
    let miss_p50_ns = percentile(&miss_samples, 50.0);
    let miss_p99_ns = percentile(&miss_samples, 99.0);

    let reconciled = tally.reconcile(server.metrics());
    let (hit_rate, floor_hit_rate) = if config.requests == 0 {
        (0.0, 0.0)
    } else {
        (
            tally.hits as f64 / config.requests as f64,
            (config.requests - sampled.len() as u64) as f64 / config.requests as f64,
        )
    };
    let ok = tally.errors == 0
        && hit_rate >= floor_hit_rate
        && (tally.hits == 0 || hit_p99_ns > 0)
        && reconciled;

    LoadReport {
        config: config.clone(),
        sampled_sources: sampled.len() as u64,
        tally,
        hit_rate,
        floor_hit_rate,
        hit_ns: TimingStats::from_nanos(hit_samples),
        miss_ns: TimingStats::from_nanos(miss_samples),
        hit_p50_ns,
        hit_p99_ns,
        miss_p50_ns,
        miss_p99_ns,
        speedup_hit_p99_vs_miss_p50: if hit_p99_ns == 0 {
            0.0
        } else {
            miss_p50_ns as f64 / hit_p99_ns as f64
        },
        reconciled,
        metrics: server.metrics().to_json(),
        ok,
    }
}

/// The `oic bench loadgen` usage text.
pub(crate) const USAGE: &str = "usage: oic bench loadgen [--requests N] [--sources K] [--seed S] \
     [--zipf-s X] [--cache-bytes B] [--retries N] [--json] [--out FILE]\n\
     \n\
     Replays a seeded Zipf-skewed compile trace against an in-process\n\
     server and emits oi.load.v1. --retries N re-attempts typed retryable\n\
     refusals up to N times per request and records the outcome (attempts\n\
     histogram, give-ups). Exits 1 when the gate fails (errored requests,\n\
     hit rate under the trace's floor, or counters that do not\n\
     reconcile).";

/// Entry point for `oic bench loadgen`. Returns the process exit code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = LoadgenConfig::default();
    let mut output = Output::default();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--requests" => config.requests = s.positive(flag)?,
            "--sources" => config.sources = s.positive(flag)?,
            "--seed" => config.seed = s.positive(flag)?,
            "--cache-bytes" => config.cache_bytes = s.positive(flag)? as usize,
            "--retries" => config.retries = s.positive(flag)?.min(u64::from(u32::MAX)) as u32,
            "--zipf-s" => config.zipf_s = s.non_negative(flag)?,
            _ => output.flag(flag, s)?,
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    let report = run_loadgen(&config);
    output.finish(|| report.to_json(), || render_text(&report), report.ok)
}

fn render_text(report: &LoadReport) -> String {
    let mut text = format!(
        "loadgen: {} requests over {} sources (seed {}, zipf {}): \
         {} hits / {} misses / {} errors, hit rate {:.4} (floor {:.4})\n\
         \x20 hit  p50 {} ns, p99 {} ns\n\
         \x20 miss p50 {} ns, p99 {} ns  (hit p99 is {:.1}x under miss p50)\n",
        report.config.requests,
        report.config.sources,
        report.config.seed,
        report.config.zipf_s,
        report.tally.hits,
        report.tally.disk_hits + report.tally.misses,
        report.tally.errors,
        report.hit_rate,
        report.floor_hit_rate,
        report.hit_p50_ns,
        report.hit_p99_ns,
        report.miss_p50_ns,
        report.miss_p99_ns,
        report.speedup_hit_p99_vs_miss_p50,
    );
    if report.config.retries > 0 {
        text += &format!(
            "  retried {} request(s) ({} re-attempts), {} give-up(s)\n",
            report.tally.retried,
            report.tally.retry_attempts(),
            report.tally.give_ups,
        );
    }
    text + &format!(
        "  counters reconciled: {}; gate: {}",
        report.reconciled,
        if report.ok { "ok" } else { "FAILED" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sources_are_distinct_and_compile() {
        let mut seen = BTreeSet::new();
        for i in 0..50 {
            let src = synthetic_source(i);
            assert!(seen.insert(src.clone()), "source {i} not distinct");
            oi_ir::lower::compile(&src).unwrap_or_else(|e| {
                panic!("source {i} must compile: {}", e.render(&src));
            });
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let sampler = ZipfSampler::new(50, 1.0);
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = XorShift64::new(seed);
            (0..1000).map(|_| sampler.sample(&mut rng)).collect()
        };
        assert_eq!(draw(1), draw(1), "same seed, same trace");
        assert_ne!(draw(1), draw(2), "different seed, different trace");
        let trace = draw(1);
        assert!(trace.iter().all(|&r| r < 50));
        let head = trace.iter().filter(|&&r| r == 0).count();
        let tail = trace.iter().filter(|&&r| r == 49).count();
        assert!(
            head > tail,
            "rank 0 ({head}) should dominate rank 49 ({tail})"
        );
    }

    #[test]
    fn small_replay_meets_the_gate() {
        let config = LoadgenConfig {
            requests: 200,
            sources: 5,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&config);
        assert_eq!(report.tally.errors, 0);
        assert_eq!(report.tally.hits + report.tally.misses, 200);
        assert_eq!(
            report.tally.misses, report.sampled_sources,
            "one miss per source"
        );
        assert!(report.hit_rate >= report.floor_hit_rate);
        assert!(report.reconciled, "metrics must reconcile with tallies");
        assert!(report.ok);
        let doc = report.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("oi.load.v1"));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("schema"))
                .and_then(Json::as_str),
            Some("oi.metrics.v1")
        );
    }

    #[test]
    fn replay_is_deterministic_in_shape() {
        let config = LoadgenConfig {
            requests: 100,
            sources: 4,
            seed: 3,
            ..LoadgenConfig::default()
        };
        let a = run_loadgen(&config);
        let b = run_loadgen(&config);
        assert_eq!(
            (
                a.tally.hits,
                a.tally.misses,
                a.tally.errors,
                a.sampled_sources
            ),
            (
                b.tally.hits,
                b.tally.misses,
                b.tally.errors,
                b.sampled_sources
            )
        );
    }

    /// Retry outcome recording: a server pinned to cache-only sheds
    /// every cold compile, so each request burns its full retry
    /// allowance and gives up — the histogram, give-up tally, and gate
    /// must all say so.
    #[test]
    fn forced_brownout_retries_record_outcomes() {
        let server = Server::new(ServeConfig {
            brownout_target_ms: Some(10_000),
            ..ServeConfig::default()
        });
        server.force_brownout(crate::overload::BrownoutLevel::CacheOnly);
        let config = LoadgenConfig {
            requests: 6,
            sources: 2,
            seed: 5,
            retries: 2,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen_on(&server, &config);
        assert_eq!(report.tally.errors, 6, "cold cache-only sheds everything");
        assert_eq!(report.tally.give_ups, 6);
        assert_eq!(report.tally.retried, 6);
        assert_eq!(
            report.tally.retry_attempts(),
            12,
            "two re-attempts per request"
        );
        assert_eq!(report.tally.attempts_histogram.get(&3), Some(&6));
        assert!(!report.ok, "a run that gave up must fail the gate");
        let doc = report.to_json();
        assert_eq!(doc.get("give_ups").and_then(Json::as_i64), Some(6));
        assert_eq!(
            doc.get("attempts_histogram")
                .and_then(|h| h.get("3"))
                .and_then(Json::as_i64),
            Some(6)
        );
    }

    /// With no retry allowance the new fields are inert zeros and the
    /// default gate is untouched.
    #[test]
    fn zero_retries_leaves_the_report_shape_inert() {
        let report = run_loadgen(&LoadgenConfig {
            requests: 50,
            sources: 3,
            seed: 2,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.tally.retried, 0);
        assert_eq!(report.tally.retry_attempts(), 0);
        assert_eq!(report.tally.give_ups, 0);
        assert_eq!(report.tally.attempts_histogram.get(&1), Some(&50));
        assert!(report.ok);
    }

    /// The acceptance-criteria replay: 10k requests, Zipf over 50
    /// sources — hit rate ≥ 0.9, hits ≥ 10x faster at p99 than the cold
    /// p50, zero errors, exact counter reconciliation.
    #[test]
    fn acceptance_ten_thousand_request_replay() {
        let report = run_loadgen(&LoadgenConfig::default());
        assert_eq!(report.tally.errors, 0, "zero errored requests");
        assert!(
            report.hit_rate >= 0.9,
            "hit rate {} under 0.9",
            report.hit_rate
        );
        assert!(
            report.hit_rate >= report.floor_hit_rate,
            "hit rate {} under floor {}",
            report.hit_rate,
            report.floor_hit_rate
        );
        assert!(report.hit_p99_ns > 0, "p99 must be a real latency");
        assert!(
            report.speedup_hit_p99_vs_miss_p50 >= 10.0,
            "cache hits must be >= 10x faster (p99 {} ns vs cold p50 {} ns)",
            report.hit_p99_ns,
            report.miss_p50_ns
        );
        assert!(report.reconciled, "metrics counters must reconcile exactly");
        assert!(report.ok);
    }
}
