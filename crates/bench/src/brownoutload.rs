//! `oic bench brownoutload` — the overload-control gate (`oi.brownout.v1`).
//!
//! Replays a seeded cold-compile burst against an in-process serve
//! session with adaptive brownout enabled, hard enough that the
//! controller must descend at least one rung, then retries every shed
//! through the typed `retry_after_ms` contract and paces liveness probes
//! until the service climbs back to `guarded-full`.
//!
//! The gate fails on any of:
//!
//! - a protocol error (unanswered or unparseable response line);
//! - an unexpected error (anything that is not `ok:true` or a typed
//!   retryable refusal);
//! - zero brownout descends (the burst did not exercise the ladder);
//! - a give-up (a retried request that never converged);
//! - queue-wait p99 *during brownout* above twice the target — degraded
//!   service must actually be faster, or the ladder is theater;
//! - missing recovery: final tier not `guarded-full`, recovers ≠
//!   descends, or an open circuit breaker;
//! - a reconciliation mismatch between client tallies and the server's
//!   `serve.requests` / `serve.shed_total` counters (every attempt
//!   answered exactly once, every shed accounted).

use crate::cli::{scan_flags, Output};
use crate::client::{with_pump_client, Transport};
use crate::overload::RetryPolicy;
use crate::replay::{flood_then_retry, Flood, Line, Reply};
use crate::serve::{ServeConfig, Server};
use oi_support::Json;
use std::time::Duration;

/// Tuning for one brownoutload run.
#[derive(Clone, Debug)]
pub struct BrownoutLoadConfig {
    /// Requests in the cold burst (pipelined, no pacing).
    pub burst: usize,
    /// Distinct sources the burst cycles through.
    pub sources: usize,
    /// Seed for retry jitter.
    pub seed: u64,
    /// The brownout controller's queue-wait p99 target (ms).
    pub target_ms: u64,
    /// Serve queue bound (small, so the burst builds real pressure).
    pub queue: usize,
    /// Pump workers.
    pub jobs: usize,
    /// Retries allowed per shed request.
    pub retries: u32,
}

impl Default for BrownoutLoadConfig {
    fn default() -> Self {
        BrownoutLoadConfig {
            burst: 40,
            sources: 12,
            seed: 1,
            target_ms: 50,
            queue: 6,
            jobs: 1,
            retries: 8,
        }
    }
}

/// Everything one run measured, plus the gate verdict.
#[derive(Debug)]
pub struct BrownoutLoadReport {
    config: BrownoutLoadConfig,
    /// What the burst and its retries (and the recovery probes) saw
    /// client-side.
    client: Flood,
    /// Probe round-trips spent waiting for recovery.
    recovery_probes: u64,
    /// Did the controller return to `guarded-full` before the probe
    /// budget ran out?
    recovered: bool,
    /// Server counters after the session drained.
    serve_requests: u64,
    serve_sheds: u64,
    descends: u64,
    recovers: u64,
    final_tier: &'static str,
    breaker_open: i64,
    /// Queue-wait p99 observed while degraded (ns; 0 = no samples).
    brownout_p99_ns: u128,
    degraded_compiles: u64,
}

impl BrownoutLoadReport {
    /// Gate failures, empty when the run is clean.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        if self.client.protocol_errors > 0 {
            fails.push(format!("{} protocol errors", self.client.protocol_errors));
        }
        if self.client.unexpected_errors > 0 {
            fails.push(format!(
                "{} unexpected errors",
                self.client.unexpected_errors
            ));
        }
        if self.descends == 0 {
            fails.push("burst never forced a brownout descend".to_string());
        }
        if self.client.give_ups > 0 {
            fails.push(format!("{} retried requests gave up", self.client.give_ups));
        }
        if self.client.completed + self.client.give_ups != self.config.burst as u64 {
            fails.push(format!(
                "burst accounting leak: {} completed + {} gave up != {} sent",
                self.client.completed, self.client.give_ups, self.config.burst
            ));
        }
        let bound_ns = u128::from(self.config.target_ms) * 2_000_000;
        if self.brownout_p99_ns > bound_ns {
            fails.push(format!(
                "brownout queue-wait p99 {}us exceeds 2x target ({}us)",
                self.brownout_p99_ns / 1_000,
                bound_ns / 1_000
            ));
        }
        if !self.recovered || self.final_tier != "guarded-full" {
            fails.push(format!(
                "service did not recover to guarded-full (final tier: {})",
                self.final_tier
            ));
        }
        if self.descends != self.recovers {
            fails.push(format!(
                "ladder did not unwind: {} descends vs {} recovers",
                self.descends, self.recovers
            ));
        }
        if self.breaker_open != 0 {
            fails.push(format!("{} circuit breakers left open", self.breaker_open));
        }
        if self.serve_requests != self.client.attempts - self.client.reader_sheds {
            fails.push(format!(
                "request reconciliation: server saw {} requests, client sent {} ({} shed at reader)",
                self.serve_requests, self.client.attempts, self.client.reader_sheds
            ));
        }
        if self.serve_sheds != self.client.shed_responses {
            fails.push(format!(
                "shed reconciliation: serve.shed_total {} != {} shed responses observed",
                self.serve_sheds, self.client.shed_responses
            ));
        }
        fails
    }

    /// The `oi.brownout.v1` document.
    pub fn to_json(&self) -> Json {
        let failures = self.gate_failures();
        Json::obj(vec![
            ("schema", "oi.brownout.v1".into()),
            (
                "config",
                Json::obj(vec![
                    ("burst", (self.config.burst as u64).into()),
                    ("sources", (self.config.sources as u64).into()),
                    ("seed", self.config.seed.into()),
                    ("target_ms", self.config.target_ms.into()),
                    ("queue", (self.config.queue as u64).into()),
                    ("jobs", (self.config.jobs as u64).into()),
                    ("retries", u64::from(self.config.retries).into()),
                ]),
            ),
            (
                "client",
                Json::obj(vec![
                    ("completed", self.client.completed.into()),
                    ("give_ups", self.client.give_ups.into()),
                    ("attempts", self.client.attempts.into()),
                    ("retries_used", self.client.retries_used.into()),
                    ("shed_responses", self.client.shed_responses.into()),
                    ("reader_sheds", self.client.reader_sheds.into()),
                    ("unexpected_errors", self.client.unexpected_errors.into()),
                    ("protocol_errors", self.client.protocol_errors.into()),
                    ("backoff_ms_total", self.client.backoff_ms_total.into()),
                    ("recovery_probes", self.recovery_probes.into()),
                ]),
            ),
            (
                "server",
                Json::obj(vec![
                    ("requests", self.serve_requests.into()),
                    ("shed_total", self.serve_sheds.into()),
                    ("brownout_descend_total", self.descends.into()),
                    ("brownout_recover_total", self.recovers.into()),
                    ("final_tier", self.final_tier.into()),
                    ("breaker_open", self.breaker_open.into()),
                    (
                        "brownout_queue_wait_p99_us",
                        ((self.brownout_p99_ns / 1_000).min(u128::from(u64::MAX)) as u64).into(),
                    ),
                    ("brownout_degraded_compiles", self.degraded_compiles.into()),
                ]),
            ),
            (
                "gate",
                Json::obj(vec![
                    ("passed", failures.is_empty().into()),
                    (
                        "failures",
                        Json::Arr(failures.into_iter().map(Json::from).collect()),
                    ),
                ]),
            ),
        ])
    }

    /// Human-readable summary table.
    pub fn render_text(&self) -> String {
        let failures = self.gate_failures();
        let mut s = String::new();
        s.push_str("brownoutload\n");
        s.push_str(&format!(
            "  burst {} over {} sources, target {}ms, queue {}, {} job(s), {} retries\n",
            self.config.burst,
            self.config.sources,
            self.config.target_ms,
            self.config.queue,
            self.config.jobs,
            self.config.retries
        ));
        s.push_str(&format!(
            "  completed {}  give-ups {}  attempts {}  retries {}  backoff {}ms\n",
            self.client.completed,
            self.client.give_ups,
            self.client.attempts,
            self.client.retries_used,
            self.client.backoff_ms_total
        ));
        s.push_str(&format!(
            "  sheds {} (reader {})  descends {}  recovers {}  final tier {}\n",
            self.client.shed_responses,
            self.client.reader_sheds,
            self.descends,
            self.recovers,
            self.final_tier
        ));
        s.push_str(&format!(
            "  brownout p99 {}us  degraded compiles {}  breaker open {}\n",
            self.brownout_p99_ns / 1_000,
            self.degraded_compiles,
            self.breaker_open
        ));
        if failures.is_empty() {
            s.push_str("  gate: PASS\n");
        } else {
            s.push_str("  gate: FAIL\n");
            for f in &failures {
                s.push_str(&format!("    - {f}\n"));
            }
        }
        s
    }
}

/// The i-th synthetic source: distinct class and constant pools so every
/// source is a distinct cache key with real (but small) compile work.
fn source(i: usize) -> String {
    format!(
        "class Inner{i} {{ field a; field b;
           method init(x, y) {{ self.a = x; self.b = y; }}
         }}
         class Outer{i} {{ field lo; field hi;
           method init(x, y) {{ self.lo = new Inner{i}(x, x + {i}); self.hi = new Inner{i}(y, y + {i}); }}
           method span() {{ return self.hi.a - self.lo.a + self.hi.b - self.lo.b; }}
         }}
         fn main() {{
           var o = new Outer{i}(1, {});
           print o.span();
         }}",
        i + 2
    )
}

/// Runs the burst, the retry convergence, and the recovery wait.
pub fn run_brownoutload(config: &BrownoutLoadConfig) -> BrownoutLoadReport {
    let server = Server::new(ServeConfig {
        brownout_target_ms: Some(config.target_ms),
        brownout_dwell_ms: 25,
        queue: config.queue.max(1),
        jobs: config.jobs.max(1),
        ..ServeConfig::default()
    });
    let mut recovery_probes = 0u64;
    let mut recovered = false;

    let client = with_pump_client(&server, |client| {
        // The burst: everything pipelined at once, cold cache, bounded
        // queue. The reader sheds the overflow `overloaded`, the queue
        // builds wait, and the controller must descend. Every shed then
        // converges lock-step under the typed retry contract; backoff
        // gives the service air and the cache warms as retries land.
        let lines: Vec<String> = (0..config.burst)
            .map(|i| Line::compile(i as u64, &source(i % config.sources.max(1))).to_string())
            .collect();
        let policy = RetryPolicy {
            max_attempts: config.retries.saturating_add(1),
            ..RetryPolicy::default()
        };
        let mut flood = flood_then_retry(client, &lines, policy, config.seed);

        // Recovery: paced liveness probes feed the controller calm
        // samples until it climbs back to guarded-full (or the probe
        // budget proves it never will).
        for probe in 0..2_000u64 {
            flood.attempts += 1;
            recovery_probes += 1;
            let Some(resp) = client.roundtrip(&Line::new(1_000_000 + probe, "health").to_string())
            else {
                flood.protocol_errors += 1;
                break;
            };
            if !Reply(&resp).ok() {
                flood.unexpected_errors += 1;
            }
            let tier = resp
                .get("payload")
                .and_then(|p| p.get("brownout_tier"))
                .and_then(Json::as_str);
            if tier == Some("guarded-full") {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        flood
    });

    let m = server.metrics();
    BrownoutLoadReport {
        config: config.clone(),
        client,
        recovery_probes,
        recovered,
        serve_requests: m.counter("serve.requests"),
        serve_sheds: m.counter("serve.shed_total"),
        descends: m.counter("serve.brownout_descend_total"),
        recovers: m.counter("serve.brownout_recover_total"),
        final_tier: server.brownout_level().name(),
        breaker_open: m.gauge("serve.breaker_open"),
        brownout_p99_ns: m.quantile_ns("serve.brownout_queue_wait_ns", 99.0),
        degraded_compiles: m.counter("serve.brownout_degraded_compiles"),
    }
}

/// The `oi-bench brownoutload` usage text.
pub(crate) const USAGE: &str = "usage: oi-bench brownoutload [--burst N] [--sources K] [--seed S] \
     [--target-ms N] [--queue N] [--jobs N] [--retries N] [--json] [--out FILE]\n\
     \n\
     Replay a seeded cold-compile burst against a brownout-enabled serve\n\
     session, retry every shed through the typed retry_after_ms contract,\n\
     and wait for recovery. Emits oi.brownout.v1 with --json; exit 1 when\n\
     the overload gate fails (no descend, any give-up or unexpected error,\n\
     unbounded brownout p99, missing recovery, or a shed/request\n\
     reconciliation mismatch).";

/// Entry point for `oic bench brownoutload`.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = BrownoutLoadConfig::default();
    let mut output = Output::default();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--burst" => config.burst = s.positive(flag)? as usize,
            "--sources" => config.sources = s.positive(flag)? as usize,
            "--seed" => config.seed = s.integer(flag)?,
            "--target-ms" => config.target_ms = s.positive(flag)?,
            "--queue" => config.queue = s.positive(flag)? as usize,
            "--jobs" => config.jobs = s.positive(flag)? as usize,
            "--retries" => config.retries = s.integer(flag)?.min(u64::from(u32::MAX)) as u32,
            _ => output.flag(flag, s)?,
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    let report = run_brownoutload(&config);
    output.finish(
        || report.to_json(),
        || report.render_text(),
        report.gate_failures().is_empty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brownoutload_gate_passes_and_reconciles() {
        let report = run_brownoutload(&BrownoutLoadConfig::default());
        assert!(
            report.gate_failures().is_empty(),
            "gate failures: {:?}\n{}",
            report.gate_failures(),
            report.render_text()
        );
        assert!(report.descends >= 1, "burst must force a descend");
        assert_eq!(report.client.completed, report.config.burst as u64);
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.brownout.v1")
        );
        assert_eq!(
            doc.get("gate")
                .and_then(|g| g.get("passed"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn a_gentle_trickle_fails_the_descend_gate() {
        // Tiny burst against a huge queue: no pressure, no descend — the
        // gate must notice the scenario proved nothing.
        let report = run_brownoutload(&BrownoutLoadConfig {
            burst: 2,
            sources: 2,
            queue: 512,
            target_ms: 10_000,
            ..BrownoutLoadConfig::default()
        });
        assert!(report
            .gate_failures()
            .iter()
            .any(|f| f.contains("never forced a brownout descend")));
    }
}
