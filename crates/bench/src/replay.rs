//! The replay core the service harnesses share (`loadgen`,
//! `restartload`, `brownoutload`, the service rows of `chaos`, and
//! `oic batch`).
//!
//! - [`Line`] builds `oi.serve.v1` request lines (compile, run, health,
//!   shutdown; optional tenant, budget `config` and `chaos` fault
//!   object).
//! - [`Reply`] reads a response: `ok`, cache tier, error kind, the
//!   retry contract ([`RETRYABLE_KINDS`], `retry_after_ms`), sheds.
//! - [`Tally`] replays requests synchronously through
//!   [`Server::handle_line`], counts every final answer by cache tier,
//!   and reconciles those counts exactly with the server's
//!   `oi.metrics.v1` counters.
//! - [`flood_then_retry`] pipelines a burst at a live serve session and
//!   then re-sends every refusal lock-step under the typed retry
//!   contract.
//! - [`pump_transcript`] runs a whole serve session over an in-memory
//!   transcript; [`scratch_dir`] names a fresh temp directory for a
//!   harness-owned store.
//!
//! Scenario logic (traces, kill points, probes, gates) stays with each
//! harness.

use crate::client::{request_with_retries, PumpClient};
use crate::overload::{RetryPolicy, RetrySession};
use crate::serve::{run_serve, Server};
use oi_support::metrics::Registry;
use oi_support::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The typed refusal kinds a client may retry. Everything else
/// (`panic`, `quota-exceeded`, `watchdog-killed`, compile errors) is a
/// property of the request, not of the server's current load.
pub const RETRYABLE_KINDS: [&str; 4] = [
    "overloaded",
    "shedding",
    "tenant-over-concurrency",
    "quarantined",
];

/// One `oi.serve.v1` request line; `to_string()` renders it.
#[derive(Clone, Debug)]
pub struct Line(Vec<(String, Json)>);

impl Line {
    /// A request for `op` carrying `id`.
    pub fn new(id: u64, op: &str) -> Line {
        Line(vec![("id".into(), id.into()), ("op".into(), op.into())])
    }

    /// A `compile` of `source`.
    pub fn compile(id: u64, source: &str) -> Line {
        Line::new(id, "compile").with("source", source.into())
    }

    /// A `run` of `source`.
    pub fn run(id: u64, source: &str) -> Line {
        Line::new(id, "run").with("source", source.into())
    }

    /// Bills the request to `tenant`.
    pub fn tenant(self, tenant: &str) -> Line {
        self.with("tenant", tenant.into())
    }

    /// Attaches a one-key `chaos` fault object, e.g.
    /// `{"wedge_compile_ms": 200}` (honored only by servers started with
    /// `allow_chaos_faults`).
    pub fn chaos(self, fault: &str, value: u64) -> Line {
        self.with("chaos", Json::obj(vec![(fault, value.into())]))
    }

    /// Attaches a `config` object carrying the analysis budget overrides
    /// that are set; an unset one keeps the server's default.
    pub fn budget(self, max_rounds: Option<u64>, deadline_ms: Option<u64>) -> Line {
        let knobs = [("max_rounds", max_rounds), ("deadline_ms", deadline_ms)]
            .into_iter()
            .filter_map(|(key, value)| Some((key, value?.into())))
            .collect();
        self.with("config", Json::obj(knobs))
    }

    fn with(mut self, key: &str, value: Json) -> Line {
        self.0.push((key.into(), value));
        self
    }
}

impl std::fmt::Display for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&Json::Obj(self.0.clone()), f)
    }
}

/// A read-only view over one `oi.serve.v1` response.
#[derive(Clone, Copy, Debug)]
pub struct Reply<'a>(pub &'a Json);

impl<'a> Reply<'a> {
    /// The request succeeded (`"ok": true`).
    pub fn ok(self) -> bool {
        self.0.get("ok").and_then(Json::as_bool) == Some(true)
    }

    /// The cache tier that answered (`hit`, `disk`, `miss`), if any.
    pub fn cache(self) -> Option<&'a str> {
        self.0.get("cache").and_then(Json::as_str)
    }

    /// The typed error kind; empty on success.
    pub fn error_kind(self) -> &'a str {
        self.0
            .get("error_kind")
            .and_then(Json::as_str)
            .unwrap_or("")
    }

    /// The human-readable error message, if any.
    pub fn error(self) -> Option<&'a str> {
        self.0.get("error").and_then(Json::as_str)
    }

    /// A refusal the client may retry ([`RETRYABLE_KINDS`]).
    pub fn retryable(self) -> bool {
        RETRYABLE_KINDS.contains(&self.error_kind())
    }

    /// A load shed (`overloaded`, `shedding`, `tenant-over-concurrency`):
    /// counted by `serve.shed_total`, unlike a `quarantined` refusal.
    pub fn shed(self) -> bool {
        matches!(
            self.error_kind(),
            "overloaded" | "shedding" | "tenant-over-concurrency"
        )
    }

    /// A shed answered by the reader before dispatch: it carries no id
    /// and never counts as a server-side request.
    pub fn reader_shed(self) -> bool {
        self.shed() && self.0.get("id").is_none_or(|id| *id == Json::Null)
    }

    /// The server's backoff hint, in milliseconds.
    pub fn retry_after_ms(self) -> Option<u64> {
        self.0
            .get("retry_after_ms")
            .and_then(Json::as_i64)
            .map(|n| n.max(0) as u64)
    }

    /// A `run` response's program output.
    pub fn output(self) -> Option<&'a str> {
        self.0
            .get("payload")
            .and_then(|p| p.get("output"))
            .and_then(Json::as_str)
    }

    /// The payload as JSON text (empty when absent) — what corrupt-serve
    /// checks compare byte for byte.
    pub fn payload(self) -> String {
        self.0
            .get("payload")
            .map(Json::to_string)
            .unwrap_or_default()
    }
}

/// Client-side tallies of a synchronous replay: every request lands in
/// exactly one of `hits`, `disk_hits`, `misses`, `errors`.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests answered.
    pub requests: u64,
    /// Lines sent, re-sends included.
    pub attempts: u64,
    /// Answered from the in-memory cache.
    pub hits: u64,
    /// Answered from the verified disk tier.
    pub disk_hits: u64,
    /// Compiled fresh.
    pub misses: u64,
    /// Final answers that were `ok:false`.
    pub errors: u64,
    /// Requests that needed at least one re-send.
    pub retried: u64,
    /// Requests whose final answer was still a retryable refusal (each
    /// also counts in `errors`).
    pub give_ups: u64,
    /// `attempts -> requests that needed exactly that many attempts`.
    pub attempts_histogram: BTreeMap<u32, u64>,
}

impl Tally {
    /// Sends `line`, re-sending a retryable refusal up to `retries` more
    /// times, and tallies the final answer. Returns that answer and its
    /// wall time in nanoseconds. The replay never sleeps: it records
    /// retry *outcomes*; the paced backoff contract is
    /// [`flood_then_retry`]'s and `oic client`'s.
    pub fn send(&mut self, server: &Server, line: &str, retries: u32) -> (Json, u128) {
        let mut attempts = 0u32;
        let (response, wall_ns) = loop {
            let start = Instant::now();
            let response = server.handle_line(line).response;
            let wall_ns = start.elapsed().as_nanos();
            attempts += 1;
            if !Reply(&response).retryable() || attempts > retries {
                break (response, wall_ns);
            }
        };
        self.requests += 1;
        self.attempts += u64::from(attempts);
        *self.attempts_histogram.entry(attempts).or_insert(0) += 1;
        if attempts > 1 {
            self.retried += 1;
        }
        let reply = Reply(&response);
        if !reply.ok() {
            self.errors += 1;
            self.give_ups += u64::from(reply.retryable());
        } else {
            match reply.cache() {
                Some("hit") => self.hits += 1,
                Some("disk") => self.disk_hits += 1,
                _ => self.misses += 1,
            }
        }
        (response, wall_ns)
    }

    /// Re-sends beyond each request's first try, summed.
    pub fn retry_attempts(&self) -> u64 {
        self.attempts - self.requests
    }

    /// Whether the server's counters agree exactly with these tallies,
    /// request for request. Every attempt is its own server-side request,
    /// and every attempt that was re-sent was a refusal the server counted
    /// as an error.
    pub fn reconcile(&self, metrics: &Registry) -> bool {
        metrics.counter("serve.requests") == self.attempts
            && metrics.counter("serve.errors") == self.errors + self.retry_attempts()
            && metrics.counter("cache.hits") == self.hits
            && metrics.counter("disk.load_hits") == self.disk_hits
            && metrics.counter("cache.misses") == self.disk_hits + self.misses
    }
}

/// What a pipelined flood and its lock-step retries observed
/// client-side.
#[derive(Clone, Debug, Default)]
pub struct Flood {
    /// Requests that ended `ok:true`.
    pub completed: u64,
    /// Requests whose retries ran out on a retryable refusal.
    pub give_ups: u64,
    /// Lines sent: the flood plus every retry attempt.
    pub attempts: u64,
    /// Retry attempts beyond each request's first try.
    pub retries_used: u64,
    /// First-wave answers that were retryable refusals.
    pub refused: u64,
    /// First-wave refusals that carried a positive `retry_after_ms`.
    pub hinted: u64,
    /// Shed answers observed at any attempt.
    pub shed_responses: u64,
    /// Sheds answered at the reader (id-less: never reached dispatch).
    pub reader_sheds: u64,
    /// Answers that were neither `ok:true` nor a retryable refusal.
    pub unexpected_errors: u64,
    /// Unanswered or unparseable response lines.
    pub protocol_errors: u64,
    /// Total backoff slept across all retried requests (ms).
    pub backoff_ms_total: u64,
}

/// Sends every line at once (pipelined, no pacing), collects the answers,
/// then re-sends each refused line one at a time under `policy`, honoring
/// the server's `retry_after_ms` hints. Lock-step retries keep one
/// request in flight, so retry traffic cannot itself overflow the queue.
/// Each retried line's jitter is seeded from `seed` and its index.
pub fn flood_then_retry(
    client: &mut PumpClient,
    lines: &[String],
    policy: RetryPolicy,
    seed: u64,
) -> Flood {
    let mut flood = Flood::default();
    for line in lines {
        client.send_line(line);
    }
    let mut refused: Vec<usize> = Vec::new();
    for i in 0..lines.len() {
        flood.attempts += 1;
        let Some(resp) = client.recv_line() else {
            flood.protocol_errors += 1;
            continue;
        };
        let reply = Reply(&resp);
        if reply.ok() {
            flood.completed += 1;
        } else if reply.retryable() {
            flood.refused += 1;
            flood.hinted += u64::from(reply.retry_after_ms().unwrap_or(0) > 0);
            flood.shed_responses += u64::from(reply.shed());
            flood.reader_sheds += u64::from(reply.reader_shed());
            refused.push(i);
        } else {
            flood.unexpected_errors += 1;
        }
    }

    for i in refused {
        let mut session = RetrySession::new(policy, seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let outcome = request_with_retries(client, &lines[i], &mut session);
        flood.attempts += u64::from(outcome.attempts);
        flood.retries_used += u64::from(outcome.attempts.saturating_sub(1));
        flood.backoff_ms_total += outcome.backoff_ms_total;
        flood.shed_responses += u64::from(outcome.sheds);
        match &outcome.response {
            None => flood.protocol_errors += 1,
            Some(resp) if Reply(resp).ok() => flood.completed += 1,
            Some(_) if outcome.gave_up => flood.give_ups += 1,
            Some(_) => flood.unexpected_errors += 1,
        }
    }
    flood
}

/// Drives one whole `run_serve` session on `server` over an in-memory
/// transcript and returns the raw response stream (one JSON line per
/// answer, in emission order) plus the session's exit code.
pub fn pump_transcript(server: &Server, requests: &[String]) -> (Vec<u8>, u8) {
    let input = std::io::Cursor::new(requests.join("\n").into_bytes());
    let mut out: Vec<u8> = Vec::new();
    let code = run_serve(server, input, &mut out);
    (out, code)
}

/// A fresh directory path under the system temp dir for a harness-owned
/// store, unique per process and call (concurrent runs, such as parallel
/// tests, never share one) and removed first if a stale one exists.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oi-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;

    #[test]
    fn lines_render_the_request_envelope() {
        assert_eq!(
            Line::compile(1, "src").to_string(),
            r#"{"id":1,"op":"compile","source":"src"}"#
        );
        assert_eq!(
            Line::run(2, "src")
                .tenant("t")
                .chaos("panic_at_slice", 1)
                .to_string(),
            r#"{"id":2,"op":"run","source":"src","tenant":"t","chaos":{"panic_at_slice":1}}"#
        );
        assert_eq!(
            Line::new(3, "health").to_string(),
            r#"{"id":3,"op":"health"}"#
        );
    }

    #[test]
    fn reply_reads_the_retry_contract() {
        let shed =
            Json::parse(r#"{"id":null,"ok":false,"error_kind":"overloaded","retry_after_ms":12}"#)
                .unwrap();
        let r = Reply(&shed);
        assert!(!r.ok() && r.retryable() && r.shed() && r.reader_shed());
        assert_eq!(r.retry_after_ms(), Some(12));
        let quarantined = Json::parse(r#"{"id":4,"ok":false,"error_kind":"quarantined"}"#).unwrap();
        let q = Reply(&quarantined);
        assert!(q.retryable() && !q.shed() && !q.reader_shed());
        let served = Json::parse(r#"{"id":5,"ok":true,"payload":{"output":"2\n"}}"#).unwrap();
        assert_eq!(Reply(&served).output(), Some("2\n"));
        assert_eq!(Reply(&served).error_kind(), "");
    }

    #[test]
    fn tally_reconciles_a_replay_with_the_server() {
        let server = Server::new(ServeConfig::default());
        let mut tally = Tally::default();
        for id in 0..6u64 {
            let source = format!("fn main() {{ print {}; }}", id % 2);
            tally.send(&server, &Line::compile(id, &source).to_string(), 0);
        }
        assert_eq!((tally.hits, tally.misses, tally.errors), (4, 2, 0));
        assert_eq!((tally.requests, tally.attempts), (6, 6));
        assert!(tally.reconcile(server.metrics()));
    }
}
