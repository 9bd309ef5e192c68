//! `oic serve` — a long-lived compile server over a JSON-lines protocol.
//!
//! The server reads one JSON request per stdin line and writes one JSON
//! response per stdout line, wrapped in a schema-stable `oi.serve.v1`
//! envelope. Compiles are fronted by the content-addressed artifact cache
//! ([`oi_core::cache`]): byte-identical source under an identical
//! configuration is served from memory without re-running the pipeline.
//!
//! Requests:
//!
//! ```text
//! {"id": 1, "op": "compile", "source": "fn main() { ... }"}
//! {"id": 2, "op": "run", "path": "tests/progs/rect.oi"}
//! {"id": 3, "op": "compile", "source": "...", "config": {"max_rounds": 64}}
//! {"id": 4, "op": "stats"}
//! {"id": 5, "op": "shutdown"}
//! ```
//!
//! `op` defaults to `"compile"`. Responses reuse the existing CLI payloads
//! (`oic.report.v1`-shaped for `compile`, `oic.run.v1`-shaped for `run`,
//! `oi.metrics.v1` for `stats`) inside the envelope:
//!
//! ```text
//! {"schema":"oi.serve.v1","id":1,"ok":true,"op":"compile",
//!  "cache":"miss","wall_us":1234,"payload":{...}}
//! ```
//!
//! Every service stage is instrumented through an [`oi_support::metrics`]
//! registry — requests/errors, in-flight gauge, cache hit/miss/eviction
//! counters and byte/entry gauges, per-stage latency histograms
//! (parse/analyze/optimize/execute/total) — served over the protocol as a
//! `stats` request and optionally dumped to `--metrics-out FILE` after
//! every request. Traces correlate with the metrics via a per-request
//! `request_id` field stamped on the `serve.*` spans.

use crate::cli::scan_flags;
use crate::overload::{
    Admission, BreakerConfig, Brownout, BrownoutConfig, BrownoutLevel, CircuitBreaker, Transition,
};
use crate::sched::{
    self, Completion, JobFault, JobSpec, ProgramRef, SchedConfig, Scheduler, SubmitError,
    TenantQuota, Verdict,
};
use oi_core::cache::store::DiskStore;
use oi_core::cache::{config_fingerprint, Artifact, ArtifactCache, CacheKey};
use oi_core::ladder::{optimize_with_ladder, LadderConfig};
use oi_support::metrics::Registry;
use oi_support::panic::contained;
use oi_support::stats::time_once;
use oi_support::trace::{self, kv, TraceMode, Tracer};
use oi_support::{Budget, Json};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serve-time configuration (flags of `oic serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// LRU byte budget for the artifact cache (`--cache-bytes`).
    pub cache_bytes: usize,
    /// Default per-request analysis round budget (`--max-rounds`).
    pub max_rounds: Option<u64>,
    /// Default per-request analysis deadline (`--deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Rewrite this file with the `oi.metrics.v1` document after every
    /// request (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Worker threads driving the request pump (`--jobs`).
    pub jobs: usize,
    /// Bounded request-queue depth; lines beyond it are shed with a
    /// typed `overloaded` rejection (`--queue`).
    pub queue: usize,
    /// Instructions per fuel slice for scheduled `run` requests
    /// (`--fuel-slice`).
    pub fuel_slice: u64,
    /// Maximum request line length in bytes; longer lines get a typed
    /// `request-too-large` rejection instead of unbounded buffering
    /// (`--max-line-bytes`).
    pub max_line_bytes: usize,
    /// Per-request instruction quota for `run` execution
    /// (`--max-instructions`; VM default when unset).
    pub max_instructions: Option<u64>,
    /// Per-request heap-words quota for `run` execution
    /// (`--max-heap-words`; VM default when unset).
    pub max_heap_words: Option<u64>,
    /// Per-request call-depth quota for `run` execution (`--max-depth`;
    /// VM default when unset).
    pub max_depth: Option<usize>,
    /// Concurrent in-flight `run` requests allowed per tenant
    /// (`--tenant-concurrent`).
    pub tenant_concurrent: usize,
    /// Wall-clock deadline for `run` execution, measured per request
    /// from admission (`--run-deadline-ms`).
    pub run_deadline_ms: Option<u64>,
    /// Honor `chaos` fault fields on requests. Never set from the CLI;
    /// only the chaos harness builds servers with injection enabled.
    pub allow_chaos_faults: bool,
    /// Directory of the persistent artifact tier (`--cache-dir`). When
    /// set, compiles are persisted write-behind and a restarted server
    /// warm-starts from verified on-disk artifacts.
    pub cache_dir: Option<String>,
    /// Byte budget of the persistent tier (`--disk-bytes`).
    pub disk_bytes: u64,
    /// Queue-wait p99 target steering the brownout controller
    /// (`--brownout-target-ms`). `None` disables adaptive brownout.
    pub brownout_target_ms: Option<u64>,
    /// Minimum time between brownout tier transitions
    /// (`--brownout-dwell-ms`) — the anti-flap dwell.
    pub brownout_dwell_ms: u64,
    /// Compile-phase wedge deadline (`--watchdog-ms`). `None` disables
    /// the worker watchdog.
    pub watchdog_ms: Option<u64>,
    /// Watchdog kills of one source fingerprint before its circuit
    /// breaker opens (`--watchdog-strikes`).
    pub watchdog_strikes: u32,
    /// How long an open (quarantined) fingerprint refuses compiles
    /// before one half-open probe is admitted
    /// (`--quarantine-cooldown-ms`).
    pub quarantine_cooldown_ms: u64,
    /// Chaos seam: per-artifact delay injected into the write-behind
    /// persister so its backlog builds. Never set from the CLI.
    pub chaos_persist_delay_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_bytes: 64 << 20,
            max_rounds: None,
            deadline_ms: None,
            metrics_out: None,
            jobs: 1,
            queue: 128,
            fuel_slice: 10_000,
            max_line_bytes: 4 << 20,
            max_instructions: None,
            max_heap_words: None,
            max_depth: None,
            tenant_concurrent: 64,
            run_deadline_ms: None,
            allow_chaos_faults: false,
            cache_dir: None,
            disk_bytes: 256 << 20,
            brownout_target_ms: None,
            brownout_dwell_ms: 250,
            watchdog_ms: None,
            watchdog_strikes: 3,
            quarantine_cooldown_ms: 1_000,
            chaos_persist_delay_ms: None,
        }
    }
}

/// The outcome of handling one request line.
#[derive(Clone, Debug)]
pub struct Handled {
    /// The JSON response to write back (one line).
    pub response: Json,
    /// `true` when the request asked the server to stop.
    pub shutdown: bool,
}

/// One unit of write-behind work: a keyed artifact bound for disk.
type PersistJob = (CacheKey, Arc<Artifact>);

/// The persistent tier attached to a server: the store plus the
/// write-behind persister keeping disk writes off the request path.
struct DiskTier {
    store: Arc<DiskStore>,
    /// Sender into the persister; `None` once flushed.
    tx: Mutex<Option<Sender<PersistJob>>>,
    /// The persister thread; joined by [`Server::flush_disk`].
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Set by [`Server::simulate_kill`]: suppresses the clean-shutdown
    /// journal compaction so the on-disk state stays exactly what an
    /// abrupt process death would leave behind.
    killed: AtomicBool,
    /// Artifacts handed to the persister and not yet written — the
    /// write-behind backlog (`serve.persist_backlog` gauge).
    pending: Arc<AtomicU64>,
    /// High-water mark of [`Self::pending`]
    /// (`serve.persist_backlog_peak`).
    peak: Arc<AtomicU64>,
}

impl DiskTier {
    /// Closes the persister's channel and joins its thread once it has
    /// drained the queue. Idempotent.
    fn stop_persister(&self) {
        drop(
            self.tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let worker = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

/// One in-process compile server: artifact cache + metrics registry +
/// the base ladder configuration requests are compiled under.
pub struct Server {
    cache: ArtifactCache,
    disk: Option<DiskTier>,
    metrics: Registry,
    ladder: LadderConfig,
    config: ServeConfig,
    /// The adaptive brownout controller; `None` when
    /// [`ServeConfig::brownout_target_ms`] is unset.
    brownout: Option<Brownout>,
    /// Per-source-fingerprint circuit breaker fed by watchdog strikes.
    breaker: CircuitBreaker,
}

impl Server {
    /// A server with an empty cache and zeroed metrics. When
    /// [`ServeConfig::cache_dir`] is set, the persistent tier is opened
    /// through crash recovery first; an unopenable directory degrades to
    /// memory-only serving (never a refusal to start), and whatever
    /// recovery found is exported as `serve.recovery_*` metrics.
    pub fn new(config: ServeConfig) -> Server {
        let metrics = Registry::new();
        let disk = config.cache_dir.as_ref().and_then(|dir| {
            match DiskStore::open(std::path::Path::new(dir), config.disk_bytes) {
                Ok(store) => {
                    let store = Arc::new(store);
                    let report = store.recovery();
                    metrics.set_counter("serve.recovery_entries_kept", report.entries_kept);
                    metrics.set_counter("serve.recovery_quarantined", report.quarantined);
                    metrics.set_counter("serve.recovery_stale_records", report.stale_records);
                    metrics
                        .set_counter("serve.recovery_duplicate_records", report.duplicate_records);
                    metrics.set_counter("serve.recovery_orphans_adopted", report.orphans_adopted);
                    metrics.set_counter("serve.recovery_torn_temps", report.torn_temps);
                    metrics.set_counter(
                        "serve.recovery_journal_truncated",
                        u64::from(report.journal_truncated),
                    );
                    let (tx, rx) = mpsc::channel::<(CacheKey, Arc<Artifact>)>();
                    let persister = Arc::clone(&store);
                    let pending = Arc::new(AtomicU64::new(0));
                    let peak = Arc::new(AtomicU64::new(0));
                    let drain_pending = Arc::clone(&pending);
                    let delay = config.chaos_persist_delay_ms.map(Duration::from_millis);
                    let worker = std::thread::spawn(move || {
                        for (key, artifact) in rx {
                            // Chaos seam: a slow disk builds write-behind
                            // backlog without ever blocking a request.
                            if let Some(d) = delay {
                                std::thread::sleep(d);
                            }
                            // Failures are counted in the store's stats and
                            // mirrored; the service keeps serving from memory.
                            let _ = persister.persist(&key, &artifact);
                            drain_pending.fetch_sub(1, Ordering::SeqCst);
                        }
                    });
                    Some(DiskTier {
                        store,
                        tx: Mutex::new(Some(tx)),
                        worker: Mutex::new(Some(worker)),
                        killed: AtomicBool::new(false),
                        pending,
                        peak,
                    })
                }
                Err(e) => {
                    eprintln!("oic serve: cannot open --cache-dir {dir}: {e}; serving memory-only");
                    metrics.add("serve.disk_open_failures", 1);
                    None
                }
            }
        });
        let brownout = config.brownout_target_ms.map(|target_ms| {
            let mut bc = BrownoutConfig::for_target_ms(target_ms, config.queue);
            bc.dwell = Duration::from_millis(config.brownout_dwell_ms);
            Brownout::new(bc)
        });
        let breaker = CircuitBreaker::new(BreakerConfig {
            strikes: config.watchdog_strikes.max(1),
            cooldown: Duration::from_millis(config.quarantine_cooldown_ms),
        });
        metrics.gauge_set("serve.brownout_tier", 0);
        Server {
            cache: ArtifactCache::new(config.cache_bytes),
            disk,
            metrics,
            ladder: LadderConfig::default(),
            config,
            brownout,
            breaker,
        }
    }

    /// The current brownout level (`guarded-full` when adaptive brownout
    /// is disabled).
    pub fn brownout_level(&self) -> BrownoutLevel {
        self.brownout
            .as_ref()
            .map_or(BrownoutLevel::GUARDED_FULL, Brownout::level)
    }

    /// Pins the brownout controller to `level` (harness hook; a no-op
    /// when brownout is disabled). `loadgen --retries` and the chaos
    /// matrix use it to exercise degraded paths deterministically.
    pub fn force_brownout(&self, level: BrownoutLevel) {
        if let Some(b) = &self.brownout {
            b.force(level);
            self.metrics
                .gauge_set("serve.brownout_tier", level.index() as i64);
        }
    }

    /// Feeds one dequeue observation `(queue depth, queue wait)` to the
    /// brownout controller and exports any resulting transition.
    fn brownout_note(&self, queue_depth: usize, wait_ns: u128) {
        let Some(b) = &self.brownout else { return };
        // Waits observed while degraded are the gate's "p99 during
        // brownout" signal — sampled before the transition decision, so
        // the sample that *triggers* a descend still counts as
        // guarded-full service.
        if b.level() != BrownoutLevel::GUARDED_FULL {
            self.metrics
                .observe_ns("serve.brownout_queue_wait_ns", wait_ns);
        }
        match b.note(queue_depth, wait_ns) {
            Some(Transition::Descend(level)) => {
                self.metrics.add("serve.brownout_descend_total", 1);
                self.metrics
                    .gauge_set("serve.brownout_tier", level.index() as i64);
                trace::counter("serve.brownout_descends", 1);
            }
            Some(Transition::Recover(level)) => {
                self.metrics.add("serve.brownout_recover_total", 1);
                self.metrics
                    .gauge_set("serve.brownout_tier", level.index() as i64);
            }
            None => {}
        }
    }

    /// The server's metrics registry (loadgen reconciles against it).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The server's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The persistent tier, when one is attached.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref().map(|d| &*d.store)
    }

    /// Flushes the persistent tier: stops admission to the write-behind
    /// persister, drains its queue, and rewrites the journal compacted —
    /// the disk half of the graceful-shutdown drain. Idempotent; also run
    /// on drop so unit-style servers flush too.
    pub fn flush_disk(&self) {
        let Some(disk) = &self.disk else { return };
        if disk.killed.load(Ordering::SeqCst) {
            return;
        }
        disk.stop_persister();
        let _ = disk.store.compact();
        self.mirror_cache_stats();
    }

    /// Simulates an abrupt process death for crash-recovery harnesses
    /// (`oic bench restartload`): the write-behind persister is drained
    /// and stopped, but the journal is **not** compacted — the next open
    /// of the same directory must recover from the append-only state an
    /// unclean exit leaves behind. After this, [`Server::flush_disk`]
    /// (including the one run on drop) is a no-op on the tier.
    pub fn simulate_kill(&self) {
        let Some(disk) = &self.disk else { return };
        disk.killed.store(true, Ordering::SeqCst);
        disk.stop_persister();
    }

    /// Hands an artifact to the write-behind persister. A full or closed
    /// channel silently drops the persist — the artifact stays served
    /// from memory and simply misses the disk tier later.
    fn persist_behind(&self, key: CacheKey, artifact: Arc<Artifact>) {
        if let Some(disk) = &self.disk {
            let tx = disk.tx.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(tx) = tx.as_ref() {
                // Count the persist before sending it: the persister may
                // finish (and decrement) before `send` even returns.
                let now = disk.pending.fetch_add(1, Ordering::SeqCst) + 1;
                if tx.send((key, artifact)).is_ok() {
                    disk.peak.fetch_max(now, Ordering::SeqCst);
                } else {
                    disk.pending.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Handles one request line and returns the response line. Never
    /// panics on malformed input — every failure mode is an `ok:false`
    /// response.
    pub fn handle_line(&self, line: &str) -> Handled {
        let started = self.begin();
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => return self.finish(Json::Null, "", Answer::error(e), started),
        };
        let answer = {
            let _span = trace::span_with(
                "serve.request",
                vec![
                    kv("request_id", id_label(&request.id)),
                    kv("op", request.op.as_str()),
                ],
            );
            match self.start(&request) {
                Start::Answer(answer) => answer,
                Start::Run(job) => self.execute(&request, &job),
            }
        };
        self.finish(request.id, &request.op, answer, started)
    }

    /// Counts a request that began processing (`serve.requests`, and
    /// `serve.in_flight` until [`Server::finish`]) and returns the
    /// instant its end-to-end latency is measured from.
    fn begin(&self) -> Instant {
        self.metrics.add("serve.requests", 1);
        self.metrics.gauge_add("serve.in_flight", 1);
        Instant::now()
    }

    /// Answers `request` now, or returns the `run` to execute: its
    /// artifact, where the artifact came from, and its quota.
    fn start(&self, request: &Request) -> Start {
        let answer = match request.op.as_str() {
            "compile" | "run" => {
                let (artifact, cache) = match self.artifact_for(request) {
                    Ok(pair) => pair,
                    Err(answer) => return Start::Answer(answer),
                };
                if request.op == "run" {
                    return Start::Run(RunJob {
                        artifact,
                        cache,
                        quota: self.run_quota(request),
                    });
                }
                Answer::Ok {
                    cache,
                    payload: Json::obj(vec![
                        ("schema", "oic.report.v1".into()),
                        ("tier", artifact.outcome.tier_name().into()),
                        ("report", artifact.outcome.optimized.report.to_json()),
                    ]),
                }
            }
            "stats" => {
                // A pumped `run` still executing has already looked its
                // artifact up; the counters include that lookup.
                self.mirror_cache_stats();
                Answer::Ok {
                    cache: "none",
                    payload: self.metrics.to_json(),
                }
            }
            // Liveness probes: cheap, never queued behind compile work
            // once admitted, and they carry the overload-control state a
            // retrying client steers by.
            "health" | "ping" => Answer::Ok {
                cache: "none",
                payload: Json::obj(vec![
                    ("status", "ok".into()),
                    ("brownout_tier", self.brownout_level().name().into()),
                    ("breaker_open", (self.breaker.open_count() as u64).into()),
                    ("in_flight", self.metrics.gauge("serve.in_flight").into()),
                ]),
            },
            "shutdown" => Answer::Ok {
                cache: "none",
                payload: Json::Null,
            },
            other => Answer::error(format!("unknown op `{other}`")),
        };
        Start::Answer(answer)
    }

    /// Effective quota for a `run` request: server-level limits, with a
    /// per-request `config.run_deadline_ms` override for the deadline.
    fn run_quota(&self, request: &Request) -> TenantQuota {
        let c = &self.config;
        let d = TenantQuota::default();
        TenantQuota {
            max_instructions: c.max_instructions.unwrap_or(d.max_instructions),
            max_heap_words: c.max_heap_words.unwrap_or(d.max_heap_words),
            max_depth: c.max_depth.unwrap_or(d.max_depth),
            max_concurrent: c.tenant_concurrent,
            deadline: request
                .run_deadline_ms
                .or(c.run_deadline_ms)
                .map(Duration::from_millis),
        }
    }

    /// Runs a `run` request's program on the calling thread under its
    /// quota's instruction, heap and depth limits. The wall deadline and
    /// tenant concurrency stay the scheduler's: a synchronous caller has
    /// one request in flight.
    fn execute(&self, request: &Request, job: &RunJob) -> Answer {
        let (result, execute) = {
            let _s = trace::span_with(
                "serve.execute",
                vec![kv("request_id", id_label(&request.id))],
            );
            time_once(|| {
                oi_vm::run(
                    &job.artifact.outcome.optimized.program,
                    &job.quota.vm_config(),
                )
            })
        };
        self.metrics.observe_ns("serve.execute_ns", execute);
        let (verdict, result) = match result {
            Ok(result) => (Verdict::Done, Some(result)),
            Err(e) => (sched::classify(e), None),
        };
        self.run_answer(verdict, result.as_ref(), &request.tenant, job)
    }

    /// The answer to an executed `run`, shared by the synchronous path and
    /// the pump's completion forwarder.
    fn run_answer(
        &self,
        verdict: Verdict,
        result: Option<&oi_vm::RunResult>,
        tenant: &str,
        job: &RunJob,
    ) -> Answer {
        match (verdict, result) {
            (Verdict::Done, Some(result)) => Answer::Ok {
                cache: job.cache,
                payload: run_payload(result, &job.artifact.outcome),
            },
            (Verdict::Done, None) => Answer::error("internal: completed run lost its result"),
            (Verdict::Quota(kind), _) => {
                self.metrics.add("serve.quota_kills_total", 1);
                Answer::typed(
                    "quota-exceeded",
                    format!("tenant `{tenant}` exceeded its {} quota", kind.name()),
                )
            }
            (Verdict::RuntimeError(e), _) => Answer::error(format!("runtime error: {e}")),
            (Verdict::Panicked(msg), _) => {
                Answer::typed("panic", format!("contained panic during execution: {msg}"))
            }
            (Verdict::Shed, _) => {
                self.metrics.add("serve.shed_total", 1);
                Answer::typed("shedding", "cancelled by shutdown drain")
            }
        }
    }

    /// Finishes a request [`Server::begin`] counted: builds its response
    /// (the envelope with `wall_us`, or an `ok:false` error), counts its
    /// error and its exit from `serve.in_flight`, observes its end-to-end
    /// latency (split by cache outcome), mirrors the cache counters and
    /// rewrites `--metrics-out`.
    fn finish(&self, id: Json, op: &str, answer: Answer, started: Instant) -> Handled {
        let wall_ns = started.elapsed().as_nanos();
        let m = &self.metrics;
        m.gauge_add("serve.in_flight", -1);
        m.observe_ns("serve.total_ns", wall_ns);
        let response = match answer {
            Answer::Ok { cache, payload } => {
                match cache {
                    "hit" => m.observe_ns("serve.hit_ns", wall_ns),
                    "miss" => m.observe_ns("serve.miss_ns", wall_ns),
                    "disk" => m.observe_ns("serve.disk_ns", wall_ns),
                    _ => {}
                }
                self.envelope(id, op, cache, payload, wall_ns)
            }
            Answer::Err { kind, message } => {
                m.add("serve.errors", 1);
                self.error_response(id, kind, &message)
            }
        };
        self.mirror_cache_stats();
        if let Some(path) = &self.config.metrics_out {
            let _ = std::fs::write(path, format!("{}\n", m.to_json()));
        }
        Handled {
            response,
            shutdown: op == "shutdown",
        }
    }

    /// Resolves a request to its compile artifact: cache hit or fresh
    /// compile (folding per-request budget overrides into the key).
    ///
    /// The brownout level shapes the answer: degraded levels start the
    /// compile ladder lower (under a *distinct* cache key — the start
    /// tier is part of [`config_fingerprint`], so degraded artifacts
    /// never alias full-tier ones), and `cache-only` serves hits but
    /// sheds misses. A quarantined source fingerprint is refused before
    /// any compile work is spent on it.
    fn artifact_for(&self, request: &Request) -> Result<(Arc<Artifact>, &'static str), Answer> {
        let source = request.text().map_err(Answer::error)?;
        // Per-request budget overrides fold into the cache key: an
        // artifact compiled under a tighter budget may be degraded, so it
        // must not alias an unbudgeted compile of the same bytes.
        let max_rounds = request.max_rounds.or(self.config.max_rounds);
        let deadline_ms = request.deadline_ms.or(self.config.deadline_ms);
        let level = self.brownout_level();
        // Any start tier at or above the brownout level is acceptable —
        // a cached guarded-full artifact is never worse than what a
        // degraded tier would compile — so probe keys best-first. At
        // guarded-full this is exactly one probe (the historical
        // behavior).
        let keys: Vec<CacheKey> = BrownoutLevel::ladder()
            .take(level.index() + 1)
            .filter_map(BrownoutLevel::start_tier)
            .map(|start| {
                let mut ladder = self.ladder;
                ladder.start = start;
                CacheKey::whole_program(
                    &source,
                    config_fingerprint(&ladder, max_rounds, deadline_ms),
                )
            })
            .collect();
        for key in &keys {
            if let Some(hit) = self.cache.get(key) {
                return Ok((hit, "hit"));
            }
        }
        // Between the memory miss and a cold compile sits the
        // persistent tier: a verified disk artifact is promoted
        // into memory and served as `disk`.
        if let Some(disk) = &self.disk {
            for key in &keys {
                if let Some(artifact) = disk.store.load(key) {
                    return Ok((self.cache.insert(*key, artifact), "disk"));
                }
            }
        }
        let Some(start) = level.start_tier() else {
            // cache-only brownout: the service survives on what it has.
            self.metrics.add("serve.shed_total", 1);
            self.metrics.add("serve.brownout_shed_total", 1);
            return Err(Answer::typed(
                "shedding",
                "brownout cache-only: compile shed, retry later",
            ));
        };
        let fp = source_fingerprint(&source);
        let admission = self.breaker.admit(fp);
        if let Admission::Refuse { retry_after_ms } = admission {
            self.metrics.add("serve.quarantined_total", 1);
            return Err(Answer::typed(
                "quarantined",
                format!(
                    "source quarantined after repeated watchdog kills; probe in {retry_after_ms}ms"
                ),
            ));
        }
        // Chaos seam: a compile-phase fixpoint that ignores its budget.
        // The sleep sits inside the worker's `compile` heartbeat stage,
        // so the watchdog sees exactly what a real wedge looks like; the
        // error afterwards models the artifact never materializing.
        if let (true, Some(ms)) = (self.config.allow_chaos_faults, request.wedge_compile_ms) {
            std::thread::sleep(Duration::from_millis(ms));
            return Err(Answer::error("chaos: compile wedged past its budget"));
        }
        let mut ladder = self.ladder;
        ladder.start = start;
        let built = self
            .compile_fresh(&source, &request.id, max_rounds, deadline_ms, &ladder)
            .map_err(Answer::error);
        // Any compile that *returned* (success or clean failure) did not
        // wedge: a half-open probe closes its circuit. A probe the
        // watchdog killed mid-compile was already re-opened by its
        // strike, which `success` leaves untouched.
        if admission == Admission::Probe {
            self.breaker.success(fp);
        }
        let built = built?;
        let key = CacheKey::whole_program(
            &source,
            config_fingerprint(&ladder, max_rounds, deadline_ms),
        );
        let shared = self.cache.insert(key, built);
        self.persist_behind(key, Arc::clone(&shared));
        if level != BrownoutLevel::GUARDED_FULL {
            self.metrics.add("serve.brownout_degraded_compiles", 1);
        }
        Ok((shared, "miss"))
    }

    /// A cold compile: parse + ladder, with per-stage latency recorded.
    /// Stage histograms only see cold compiles — a hit does no parse or
    /// analyze work, and zero-padding them would bury the real latencies.
    fn compile_fresh(
        &self,
        source: &str,
        id: &Json,
        max_rounds: Option<u64>,
        deadline_ms: Option<u64>,
        ladder: &LadderConfig,
    ) -> Result<Artifact, String> {
        let (parsed, parse) = {
            let _s = trace::span_with("serve.parse", vec![kv("request_id", id_label(id))]);
            time_once(|| oi_ir::lower::compile(source))
        };
        self.metrics.observe_ns("serve.parse_ns", parse);
        let program = parsed.map_err(|e| format!("compile error: {}", e.render(source)))?;

        let budget = Budget::from_limits(max_rounds, deadline_ms);
        // The analyze share of the ladder comes from the tracer's phase
        // aggregation (the pipeline's own `pipeline.analyze` spans), so
        // the histogram agrees with `--json` phase tables to the µs.
        let analyze_before = analyze_total_us();
        let (outcome, optimize) = {
            let _s = trace::span_with("serve.optimize", vec![kv("request_id", id_label(id))]);
            time_once(|| optimize_with_ladder(&program, ladder, &budget))
        };
        self.metrics.observe_ns("serve.optimize_ns", optimize);
        self.metrics.observe_ns(
            "serve.analyze_ns",
            (analyze_total_us() - analyze_before) * 1_000,
        );
        self.metrics
            .add(&format!("serve.tier.{}", outcome.tier_name()), 1);
        if outcome.optimized.report.degraded {
            self.metrics.add("serve.degraded", 1);
        }
        Ok(Artifact::new(outcome))
    }

    fn envelope(&self, id: Json, op: &str, cache: &str, payload: Json, wall_ns: u128) -> Json {
        Json::obj(vec![
            ("schema", "oi.serve.v1".into()),
            ("id", id),
            ("ok", true.into()),
            ("op", op.into()),
            ("cache", cache.into()),
            // Provenance: the service's brownout level when this
            // response was built — clients see degraded service without
            // digging through the payload.
            ("brownout_tier", self.brownout_level().name().into()),
            (
                "wall_us",
                ((wall_ns / 1_000).min(u128::from(u64::MAX)) as u64).into(),
            ),
            ("payload", payload),
        ])
    }

    /// The `retry_after_ms` hint stamped on backpressure responses: the
    /// retry contract (DESIGN §17). Deeper brownout doubles the hint per
    /// rung so retries thin out exactly when the service needs air.
    fn retry_hint_ms(&self, kind: &str) -> Option<u64> {
        let base: u64 = match kind {
            "overloaded" | "tenant-over-concurrency" => 25,
            "shedding" => 50,
            "quarantined" => 250,
            _ => return None,
        };
        Some(base << self.brownout_level().index().min(3))
    }

    /// An `ok:false` response. A `kind` adds the machine-readable
    /// `error_kind` (`overloaded`, `shedding`, `request-too-large`,
    /// `quota-exceeded`, `tenant-over-concurrency`, `panic`,
    /// `watchdog-killed`, `quarantined`) before the human message;
    /// backpressure kinds additionally carry a typed `retry_after_ms` hint.
    fn error_response(&self, id: Json, kind: Option<&str>, message: &str) -> Json {
        let mut fields = vec![
            ("schema", Json::from("oi.serve.v1")),
            ("id", id),
            ("ok", false.into()),
        ];
        if let Some(kind) = kind {
            fields.push(("error_kind", kind.into()));
        }
        fields.push(("error", message.into()));
        if let Some(ms) = kind.and_then(|kind| self.retry_hint_ms(kind)) {
            fields.push(("retry_after_ms", ms.into()));
        }
        Json::obj(fields)
    }

    /// Mirrors the cache's own counters into the registry so one
    /// `oi.metrics.v1` document carries the whole service state.
    fn mirror_cache_stats(&self) {
        let stats = self.cache.stats();
        self.metrics.set_counter("cache.hits", stats.hits);
        self.metrics.set_counter("cache.misses", stats.misses);
        self.metrics.set_counter("cache.evictions", stats.evictions);
        self.metrics
            .set_counter("cache.insertions", stats.insertions);
        self.metrics.gauge_set("cache.bytes", stats.bytes as i64);
        self.metrics
            .gauge_set("cache.entries", stats.entries as i64);
        self.metrics
            .gauge_set("cache.max_bytes", stats.max_bytes as i64);
        if let Some(disk) = &self.disk {
            let d = disk.store.stats();
            self.metrics.set_counter("disk.load_hits", d.load_hits);
            self.metrics.set_counter("disk.load_misses", d.load_misses);
            self.metrics.set_counter("disk.persists", d.persists);
            self.metrics
                .set_counter("disk.persist_failures", d.persist_failures);
            self.metrics.set_counter("disk.evictions", d.evictions);
            self.metrics
                .set_counter("serve.corrupt_quarantined_total", d.corrupt_quarantined);
            self.metrics.gauge_set("disk.bytes", d.bytes as i64);
            self.metrics.gauge_set("disk.entries", d.entries as i64);
            self.metrics.gauge_set("disk.max_bytes", d.max_bytes as i64);
            self.metrics.gauge_set(
                "serve.persist_backlog",
                disk.pending.load(Ordering::SeqCst) as i64,
            );
            self.metrics.set_counter(
                "serve.persist_backlog_peak",
                disk.peak.load(Ordering::SeqCst),
            );
        }
        self.metrics
            .gauge_set("serve.breaker_open", self.breaker.open_count() as i64);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Unit-style servers (tests, one-shot embedders) flush the
        // persistent tier too; `flush_disk` is idempotent, so servers
        // already drained by `run_serve` do nothing here.
        self.flush_disk();
    }
}

/// The `pipeline.analyze` phase total (µs) aggregated by the installed
/// tracer, or zero when no tracer is installed.
fn analyze_total_us() -> u128 {
    trace::current().map_or(0, |t| {
        t.phase_profile()
            .iter()
            .find(|(name, _)| name == "pipeline.analyze")
            .map_or(0, |(_, st)| u128::from(st.total_us))
    })
}

/// One request line, parsed once into every field its handling reads.
struct Request {
    id: Json,
    /// `compile` when absent.
    op: String,
    /// The `run` accounting identity; `anon` when absent.
    tenant: String,
    /// Inline program text; wins over `path`.
    source: Option<String>,
    path: Option<String>,
    /// `config` overrides: the analysis budget (folded into the cache
    /// key) and the `run` wall deadline.
    max_rounds: Option<u64>,
    deadline_ms: Option<u64>,
    run_deadline_ms: Option<u64>,
    /// `chaos` fields, honored only under
    /// [`ServeConfig::allow_chaos_faults`].
    wedge_compile_ms: Option<u64>,
    panic_at_slice: Option<u64>,
}

impl Request {
    fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let text = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
        let count = |group: &str, key: &str| {
            json.get(group)
                .and_then(|g| g.get(key))
                .and_then(Json::as_i64)
                .map(|n| n.max(0) as u64)
        };
        Ok(Request {
            id: json.get("id").cloned().unwrap_or(Json::Null),
            op: text("op").unwrap_or_else(|| "compile".to_string()),
            tenant: text("tenant").unwrap_or_else(|| "anon".to_string()),
            source: text("source"),
            path: text("path"),
            max_rounds: count("config", "max_rounds"),
            deadline_ms: count("config", "deadline_ms"),
            run_deadline_ms: count("config", "run_deadline_ms"),
            wedge_compile_ms: count("chaos", "wedge_compile_ms"),
            panic_at_slice: count("chaos", "panic_at_slice"),
        })
    }

    /// The program text: inline `source` wins, else `path` is read from
    /// disk.
    fn text(&self) -> Result<Cow<'_, str>, String> {
        if let Some(source) = &self.source {
            return Ok(Cow::Borrowed(source));
        }
        match &self.path {
            Some(path) => std::fs::read_to_string(path)
                .map(Cow::Owned)
                .map_err(|e| format!("cannot read {path}: {e}")),
            None => Err("request needs `source` or `path`".to_string()),
        }
    }
}

/// How a request ended, before [`Server::finish`] builds its response.
enum Answer {
    /// `ok:true`: `payload` in the envelope, served from `cache`.
    Ok { cache: &'static str, payload: Json },
    /// `ok:false`; see [`Server::error_response`] for `kind`.
    Err {
        kind: Option<&'static str>,
        message: String,
    },
}

impl Answer {
    /// A plain failure: `error` only.
    fn error(message: impl Into<String>) -> Answer {
        Answer::Err {
            kind: None,
            message: message.into(),
        }
    }

    /// A typed failure: `error_kind` and `error`.
    fn typed(kind: &'static str, message: impl Into<String>) -> Answer {
        Answer::Err {
            kind: Some(kind),
            message: message.into(),
        }
    }
}

/// What [`Server::start`] decided for one request.
enum Start {
    /// The answer is ready.
    Answer(Answer),
    /// A `run` whose program is ready to execute.
    Run(RunJob),
}

/// A `run` request's artifact, where it came from, and its quota.
struct RunJob {
    artifact: Arc<Artifact>,
    cache: &'static str,
    quota: TenantQuota,
}

/// The circuit-breaker key of a source text: both fingerprint lanes
/// folded to one word (the breaker needs identity, not collision-proof
/// addressing — the cache keeps the full fingerprint).
fn source_fingerprint(source: &str) -> u64 {
    let f = oi_support::hash::fingerprint(source.as_bytes());
    f.0 ^ f.1
}

/// A human-readable request id for trace span fields (string ids stay
/// bare, everything else renders as compact JSON).
fn id_label(id: &Json) -> String {
    match id.as_str() {
        Some(s) => s.to_string(),
        None => id.to_string(),
    }
}

/// The `oic.run.v1`-shaped payload of a served `run` request.
fn run_payload(result: &oi_vm::RunResult, outcome: &oi_core::ladder::LadderOutcome) -> Json {
    Json::obj(vec![
        ("schema", "oic.run.v1".into()),
        ("pipeline", "inline".into()),
        ("output", result.output.clone().into()),
        ("metrics", result.metrics.to_json()),
        (
            "allocation_census",
            Json::Arr(
                result
                    .allocation_census
                    .iter()
                    .map(|(class, n)| {
                        Json::obj(vec![
                            ("class", class.clone().into()),
                            ("count", (*n).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("heap_census", result.heap_census.to_json()),
        ("report", outcome.optimized.report.to_json()),
    ])
}

/// One request line admitted to the bounded queue.
struct QueuedReq {
    seq: u64,
    line: String,
    at: Instant,
}

/// Queue state guarded by one lock so admission, pops, and the worker
/// exit check all observe a consistent picture.
struct PumpQueue {
    q: VecDeque<QueuedReq>,
    /// Requests popped and currently being processed by a worker.
    busy: usize,
}

/// Shared coordination state of the request pump. `Arc`-held because the
/// reader thread is detached (it may stay blocked on a client that sends
/// `shutdown` but never closes stdin).
struct Pump {
    queue: Mutex<PumpQueue>,
    cv: Condvar,
    draining: AtomicBool,
    reader_done: AtomicBool,
    input_error: AtomicBool,
    cap: usize,
    max_line_bytes: usize,
}

impl Pump {
    fn new(cap: usize, max_line_bytes: usize) -> Pump {
        Pump {
            queue: Mutex::new(PumpQueue {
                q: VecDeque::new(),
                busy: 0,
            }),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            reader_done: AtomicBool::new(false),
            input_error: AtomicBool::new(false),
            cap: cap.max(1),
            max_line_bytes,
        }
    }

    fn lockq(&self) -> std::sync::MutexGuard<'_, PumpQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A response (or reader-side rejection) on its way to the writer.
enum Emit {
    /// A finished response for request `seq`.
    Response { seq: u64, response: Json },
    /// A reader-side rejection; the writer builds the response and
    /// counts the metrics (the reader has no access to the server).
    Shed {
        seq: u64,
        kind: &'static str,
        message: String,
    },
    /// End of stream: all producers have finished.
    Done,
}

/// Context for a `run` request whose execution is in the scheduler.
struct PendingRun {
    seq: u64,
    id: Json,
    tenant: String,
    job: RunJob,
    started: Instant,
}

/// What a worker is doing right now, stamped for the watchdog. Only the
/// compile phase is killable: VM execution is already fuel-sliced and
/// deadline-boxed by the scheduler, but a wedged compile holds a worker
/// hostage with no quota watching it.
struct ActiveStage {
    stage: &'static str,
    seq: u64,
    id: Json,
    /// Source fingerprint for the circuit breaker (0 = unknown source).
    fp: u64,
    started: Instant,
    /// Single-answer gate for this request: whoever swaps it to `true`
    /// first (worker or watchdog) owns the response.
    answered: Arc<AtomicBool>,
}

/// Supervision record for one pump worker.
#[derive(Default)]
struct WorkerSlot {
    /// The stage the worker is in, `None` while idle or in non-killable
    /// work. Guarded by a mutex so kill and stage-clear are atomic.
    active: Mutex<Option<ActiveStage>>,
    /// Set by the watchdog when it answers this worker's request on its
    /// behalf: the worker must exit after its current request (its
    /// replacement is already running), and must not answer again.
    killed: AtomicBool,
}

impl WorkerSlot {
    fn lock_active(&self) -> std::sync::MutexGuard<'_, Option<ActiveStage>> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The concurrent request pump: bounded admission, fuel-sliced fair
/// execution of `run` requests via [`Scheduler`], ordered responses, and
/// graceful drain. See DESIGN §15 for the protocol.
struct ServeLoop<'a> {
    server: &'a Server,
    sched: Scheduler,
    pending: Mutex<HashMap<u64, PendingRun>>,
    pump: Arc<Pump>,
    /// One supervision slot per live worker (the watchdog's scan list;
    /// grows when replacements are spawned, dead slots stay marked).
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
}

impl<'a> ServeLoop<'a> {
    /// Marks the pump as draining: admission stops, queued-unstarted
    /// requests are flushed with `shedding` responses, and in-flight work
    /// (including scheduled `run` jobs) finishes normally.
    fn start_drain(&self) {
        self.pump.draining.store(true, Ordering::SeqCst);
        self.pump.cv.notify_all();
    }

    /// Worker body: prefer admitting queued requests (FIFO start order),
    /// otherwise advance one fuel slice of scheduled work, otherwise
    /// idle. Exits when no request can ever arrive again and all work is
    /// done; the first worker out seals the scheduler so the completion
    /// forwarder observes end-of-stream.
    fn worker(&self, tx: &Sender<Emit>, slot: &WorkerSlot) {
        loop {
            // A watchdog-killed worker retires as soon as it regains
            // control: its replacement already owns its share of the
            // pool, and retiring here keeps the worker count stable.
            if slot.killed.load(Ordering::SeqCst) {
                // No seal: the replacement (or another live worker)
                // observes the real end of work and seals then.
                return;
            }
            // The depth left behind is read under the same lock as the
            // pop: a reader refill in between is not queue pressure.
            let popped = {
                let mut q = self.pump.lockq();
                match q.q.pop_front() {
                    Some(req) => {
                        q.busy += 1;
                        Some((req, q.q.len()))
                    }
                    None => None,
                }
            };
            if let Some((req, depth)) = popped {
                self.process_request(req, depth, tx, slot);
                self.pump.lockq().busy -= 1;
                self.pump.cv.notify_all();
                continue;
            }
            if self.sched.try_run_slice() {
                continue;
            }
            let q = self.pump.lockq();
            let no_more_input = self.pump.reader_done.load(Ordering::SeqCst)
                || self.pump.draining.load(Ordering::SeqCst);
            if q.q.is_empty() && q.busy == 0 && no_more_input && self.sched.live() == 0 {
                break;
            }
            // Re-check after a short nap: scheduled jobs may become
            // runnable again (they re-queue without signaling this cv).
            let _ = self.pump.cv.wait_timeout(q, Duration::from_millis(1));
        }
        self.sched.seal();
    }

    fn send(&self, tx: &Sender<Emit>, seq: u64, response: Json) {
        let _ = tx.send(Emit::Response { seq, response });
    }

    fn process_request(&self, req: QueuedReq, depth: usize, tx: &Sender<Emit>, slot: &WorkerSlot) {
        let server = self.server;
        let wait_ns = req.at.elapsed().as_nanos();
        server.metrics.observe_ns("serve.queue_wait_ns", wait_ns);
        // One brownout observation per dequeue: the depth left behind at
        // the pop and the wait this request just paid.
        server.brownout_note(depth, wait_ns);
        let parsed = Request::parse(&req.line);
        if self.pump.draining.load(Ordering::SeqCst) {
            server.metrics.add("serve.shed_total", 1);
            let id = parsed.map_or(Json::Null, |r| r.id);
            let resp = server.error_response(id, Some("shedding"), "server is draining");
            self.send(tx, req.seq, resp);
            return;
        }
        let started = server.begin();
        let request = match parsed {
            Ok(request) => request,
            Err(e) => {
                let handled = server.finish(Json::Null, "", Answer::error(e), started);
                self.send(tx, req.seq, handled.response);
                return;
            }
        };
        // Stamp the compile stage for ops that can wedge in the compiler
        // so the watchdog can answer on our behalf and replace us. The
        // `answered` flag gates every response for this seq: whoever
        // swaps it first owns the answer.
        let answered = Arc::new(AtomicBool::new(false));
        if matches!(request.op.as_str(), "run" | "compile") && server.config.watchdog_ms.is_some() {
            *slot.lock_active() = Some(ActiveStage {
                stage: "compile",
                seq: req.seq,
                id: request.id.clone(),
                fp: request.text().map_or(0, |s| source_fingerprint(&s)),
                started: Instant::now(),
                answered: Arc::clone(&answered),
            });
        }
        let start = contained(|| server.start(&request)).unwrap_or_else(|msg| {
            Start::Answer(Answer::typed("panic", format!("contained panic: {msg}")))
        });
        // Leave the watchdog's killable window (stage-clear and kill are
        // atomic under the slot lock), then claim the answer. Losing the
        // claim means the watchdog answered while the compile was wedged:
        // the request is still finished and counted here, as an error,
        // but nothing is sent and nothing runs (a compiled artifact stays
        // cached for future requests).
        *slot.lock_active() = None;
        let claimed = !answered.swap(true, Ordering::SeqCst);
        let answer = match start {
            _ if !claimed => Answer::typed("watchdog-killed", "answered by the watchdog"),
            Start::Answer(answer) => answer,
            Start::Run(job) => match self.submit(&request, job, req.seq, started) {
                // The completion forwarder finishes the request.
                Ok(()) => return,
                Err(refusal) => refusal,
            },
        };
        let handled = server.finish(request.id, &request.op, answer, started);
        if handled.shutdown {
            self.start_drain();
        }
        if claimed {
            self.send(tx, req.seq, handled.response);
        }
    }

    /// Hands a `run` to the scheduler, or returns the typed refusal to
    /// answer it with.
    fn submit(
        &self,
        request: &Request,
        job: RunJob,
        seq: u64,
        started: Instant,
    ) -> Result<(), Answer> {
        let fault = request
            .panic_at_slice
            .filter(|_| self.server.config.allow_chaos_faults)
            .map(JobFault::PanicAtSlice);
        let spec = JobSpec {
            tenant: request.tenant.clone(),
            program: ProgramRef::Artifact(Arc::clone(&job.artifact)),
            quota: job.quota.clone(),
            fault,
        };
        // Hold the pending lock across submit so the completion
        // forwarder cannot observe the job finishing before its context
        // is registered.
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        match self.sched.submit(spec) {
            Ok(job_seq) => {
                pending.insert(
                    job_seq,
                    PendingRun {
                        seq,
                        id: request.id.clone(),
                        tenant: request.tenant.clone(),
                        job,
                        started,
                    },
                );
                Ok(())
            }
            Err(e) => {
                self.server.metrics.add("serve.shed_total", 1);
                let message = match &e {
                    SubmitError::Overloaded { live } => {
                        format!("scheduler queue is full ({live} jobs live)")
                    }
                    SubmitError::TenantBusy { active } => format!(
                        "tenant `{}` is at its concurrency quota ({active} in flight)",
                        request.tenant
                    ),
                    SubmitError::Draining => "server is draining".to_string(),
                };
                Err(Answer::typed(e.name(), message))
            }
        }
    }

    fn lock_slots(&self) -> std::sync::MutexGuard<'_, Vec<Arc<WorkerSlot>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Supervisor body: scans worker slots for compiles wedged past the
    /// watchdog budget; answers the victim `watchdog-killed`, strikes
    /// its source fingerprint on the circuit breaker, and spawns a
    /// replacement worker so no pool slot is permanently lost. Only a
    /// *bounded* wedge frees the underlying thread (the chaos faults are
    /// bounded by construction); a truly unbounded wedge keeps its
    /// thread until process exit — but its requests get answered and its
    /// pool share is replaced either way.
    fn watchdog_loop<'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        tx: &Sender<Emit>,
    ) {
        let Some(ms) = self.server.config.watchdog_ms else {
            return;
        };
        let budget = Duration::from_millis(ms.max(1));
        let tick = budget
            .min(Duration::from_millis(5))
            .max(Duration::from_millis(1));
        loop {
            {
                let q = self.pump.lockq();
                let no_more_input = self.pump.reader_done.load(Ordering::SeqCst)
                    || self.pump.draining.load(Ordering::SeqCst);
                if q.q.is_empty() && q.busy == 0 && no_more_input && self.sched.live() == 0 {
                    return;
                }
            }
            self.kill_wedged(scope, tx, budget);
            std::thread::sleep(tick);
        }
    }

    /// One watchdog scan: kill every worker wedged in a compile past
    /// `budget` and replace it.
    fn kill_wedged<'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        tx: &Sender<Emit>,
        budget: Duration,
    ) {
        let slots: Vec<Arc<WorkerSlot>> = self.lock_slots().clone();
        for slot in slots {
            if slot.killed.load(Ordering::SeqCst) {
                continue;
            }
            let victim = {
                let mut active = slot.lock_active();
                // Taking the stage under the slot lock closes the
                // worker's killable window atomically with the kill
                // decision: the worker clears the stage under the same
                // lock before claiming its answer.
                match active.as_ref() {
                    Some(st) if st.stage == "compile" && st.started.elapsed() >= budget => {
                        active.take()
                    }
                    _ => None,
                }
            };
            let Some(st) = victim else { continue };
            if st.answered.swap(true, Ordering::SeqCst) {
                continue; // the worker answered at the last instant
            }
            slot.killed.store(true, Ordering::SeqCst);
            let m = self.server.metrics();
            m.add("serve.watchdog_kills_total", 1);
            let resp = self.server.error_response(
                st.id,
                Some("watchdog-killed"),
                &format!(
                    "compile wedged past its {} ms watchdog budget; worker replaced",
                    budget.as_millis()
                ),
            );
            self.send(tx, st.seq, resp);
            if st.fp != 0 {
                if self.server.breaker.strike(st.fp) {
                    m.add("serve.breaker_opened_total", 1);
                }
                m.gauge_set(
                    "serve.breaker_open",
                    self.server.breaker.open_count() as i64,
                );
            }
            // The wedged thread still holds its busy token; a fresh
            // worker takes over its share of the pool.
            m.add("serve.worker_replacements_total", 1);
            let fresh = Arc::new(WorkerSlot::default());
            self.lock_slots().push(Arc::clone(&fresh));
            let wtx = tx.clone();
            scope.spawn(move || self.worker(&wtx, &fresh));
        }
    }

    /// Converts scheduler completions into ordered responses. Runs until
    /// the scheduler is sealed.
    fn forward_completions(&self, rx: Receiver<Completion>, tx: &Sender<Emit>) {
        let server = self.server;
        for c in rx {
            let ctx = self
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&c.seq);
            let Some(ctx) = ctx else {
                server.metrics.add("serve.orphan_completions", 1);
                continue;
            };
            server
                .metrics
                .observe_ns("serve.execute_ns", c.run_time.as_nanos());
            let answer = server.run_answer(c.verdict, c.result.as_deref(), &ctx.tenant, &ctx.job);
            let handled = server.finish(ctx.id, "run", answer, ctx.started);
            self.send(tx, ctx.seq, handled.response);
        }
    }

    /// Emits responses in request order (a reorder buffer over the
    /// out-of-order completion stream). On a client hangup, keeps
    /// consuming so the pump can drain, but cancels scheduled work.
    fn writer_loop<W: Write>(&self, rx: Receiver<Emit>, output: &mut W) {
        let mut next = 0u64;
        let mut hold: BTreeMap<u64, Json> = BTreeMap::new();
        let mut hungup = false;
        for emit in rx {
            let (seq, response) = match emit {
                Emit::Done => break,
                Emit::Response { seq, response } => (seq, response),
                // An oversized line is a request the server rejects; the
                // other reader-side rejections are sheds.
                Emit::Shed { seq, kind, message } if kind == "request-too-large" => {
                    let started = self.server.begin();
                    let answer = Answer::typed(kind, message);
                    (
                        seq,
                        self.server.finish(Json::Null, "", answer, started).response,
                    )
                }
                Emit::Shed { seq, kind, message } => {
                    self.server.metrics.add("serve.shed_total", 1);
                    let resp = self.server.error_response(Json::Null, Some(kind), &message);
                    (seq, resp)
                }
            };
            hold.insert(seq, response);
            while let Some(resp) = hold.remove(&next) {
                next += 1;
                if hungup {
                    continue;
                }
                if writeln!(output, "{resp}")
                    .and_then(|()| output.flush())
                    .is_err()
                {
                    // Client hung up: no one is left to serve. Cancel
                    // queued work and let the pump drain.
                    hungup = true;
                    self.start_drain();
                    self.sched.begin_drain();
                }
            }
        }
        // Best-effort flush of any out-of-order stragglers.
        if !hungup {
            for (_, resp) in hold {
                let _ = writeln!(output, "{resp}").and_then(|()| output.flush());
            }
        }
    }
}

/// Reads request lines with a hard length bound and feeds the pump.
/// Detached from the serve scopes: a client that sends `shutdown` without
/// closing stdin leaves this thread blocked in `read`, and the server
/// must still exit cleanly.
fn reader_loop<R: BufRead>(mut input: R, pump: Arc<Pump>, tx: Sender<Emit>) {
    let mut seq = 0u64;
    loop {
        if pump.draining.load(Ordering::SeqCst) {
            break;
        }
        match read_bounded_line(&mut input, pump.max_line_bytes) {
            Err(e) => {
                eprintln!("oic serve: stdin error: {e}");
                pump.input_error.store(true, Ordering::SeqCst);
                break;
            }
            Ok(None) => break,
            Ok(Some(BoundedLine::TooLong)) => {
                let _ = tx.send(Emit::Shed {
                    seq,
                    kind: "request-too-large",
                    message: format!(
                        "request line exceeds --max-line-bytes ({} bytes)",
                        pump.max_line_bytes
                    ),
                });
                seq += 1;
            }
            Ok(Some(BoundedLine::Full(line))) => {
                if line.trim().is_empty() {
                    continue;
                }
                let mut q = pump.lockq();
                if pump.draining.load(Ordering::SeqCst) {
                    drop(q);
                    let _ = tx.send(Emit::Shed {
                        seq,
                        kind: "shedding",
                        message: "server is draining".to_string(),
                    });
                } else if q.q.len() >= pump.cap {
                    drop(q);
                    let _ = tx.send(Emit::Shed {
                        seq,
                        kind: "overloaded",
                        message: format!("request queue is full ({} queued)", pump.cap),
                    });
                } else {
                    q.q.push_back(QueuedReq {
                        seq,
                        line,
                        at: Instant::now(),
                    });
                    drop(q);
                    pump.cv.notify_one();
                }
                seq += 1;
            }
        }
    }
    pump.reader_done.store(true, Ordering::SeqCst);
    pump.cv.notify_all();
}

/// One bounded line of input.
enum BoundedLine {
    /// A complete line (newline stripped), within the bound.
    Full(String),
    /// The line exceeded the bound; its bytes were discarded, the stream
    /// is positioned after its newline.
    TooLong,
}

/// Reads one `\n`-terminated line without ever buffering more than `max`
/// bytes: an over-long line is discarded as it streams past and reported
/// as [`BoundedLine::TooLong`]. `Ok(None)` is end of input.
fn read_bounded_line<R: BufRead>(
    input: &mut R,
    max: usize,
) -> std::io::Result<Option<BoundedLine>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut too_long = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(match (buf.is_empty(), too_long) {
                (true, false) => None,
                (_, true) => Some(BoundedLine::TooLong),
                _ => Some(BoundedLine::Full(finish_line(buf))),
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if !too_long {
                    buf.extend_from_slice(&chunk[..i]);
                    if buf.len() > max {
                        too_long = true;
                    }
                }
                input.consume(i + 1);
                return Ok(Some(if too_long {
                    BoundedLine::TooLong
                } else {
                    BoundedLine::Full(finish_line(buf))
                }));
            }
            None => {
                let len = chunk.len();
                if !too_long {
                    buf.extend_from_slice(chunk);
                    if buf.len() > max {
                        too_long = true;
                        buf = Vec::new();
                    }
                }
                input.consume(len);
            }
        }
    }
}

fn finish_line(mut bytes: Vec<u8>) -> String {
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs the full serve pipeline over `input`/`output`: bounded admission,
/// `--jobs` pump workers interleaving request starts with fuel slices of
/// scheduled `run` executions, ordered responses, graceful drain on
/// `shutdown`/EOF/hangup. Returns the process exit code.
pub fn run_serve<R, W>(server: &Server, input: R, output: &mut W) -> u8
where
    R: BufRead + Send + 'static,
    W: Write + Send,
{
    let cfg = &server.config;
    let pump = Arc::new(Pump::new(cfg.queue, cfg.max_line_bytes));
    let (emit_tx, emit_rx) = mpsc::channel::<Emit>();
    let (comp_tx, comp_rx) = mpsc::channel::<Completion>();
    let serve_loop = ServeLoop {
        server,
        sched: Scheduler::new(
            SchedConfig {
                fuel_slice: cfg.fuel_slice.max(1),
                max_queue: cfg.queue.max(1),
            },
            comp_tx,
        ),
        pending: Mutex::new(HashMap::new()),
        pump: Arc::clone(&pump),
        slots: Mutex::new(Vec::new()),
    };
    let reader_tx = emit_tx.clone();
    let reader_pump = Arc::clone(&pump);
    std::thread::spawn(move || reader_loop(input, reader_pump, reader_tx));
    std::thread::scope(|outer| {
        let serve_loop = &serve_loop;
        let writer = outer.spawn(move || serve_loop.writer_loop(emit_rx, output));
        std::thread::scope(|inner| {
            for _ in 0..cfg.jobs.max(1) {
                let tx = emit_tx.clone();
                let slot = Arc::new(WorkerSlot::default());
                serve_loop.lock_slots().push(Arc::clone(&slot));
                inner.spawn(move || serve_loop.worker(&tx, &slot));
            }
            if cfg.watchdog_ms.is_some() {
                let wtx = emit_tx.clone();
                inner.spawn(move || serve_loop.watchdog_loop(inner, &wtx));
            }
            let ftx = emit_tx.clone();
            inner.spawn(move || serve_loop.forward_completions(comp_rx, &ftx));
        });
        // All response producers have finished; release the writer.
        let _ = emit_tx.send(Emit::Done);
        let _ = writer;
    });
    // Workers and writer are done: drain the write-behind persister and
    // compact the journal — the disk half of the graceful shutdown.
    server.flush_disk();
    u8::from(pump.input_error.load(Ordering::SeqCst))
}

const USAGE: &str = "usage: oic serve [--cache-bytes N] [--cache-dir DIR] [--disk-bytes N] \
     [--max-rounds N] [--deadline-ms N] \
     [--metrics-out FILE] [--jobs N] [--queue N] [--fuel-slice N] [--max-line-bytes N] \
     [--max-instructions N] [--max-heap-words N] [--max-depth N] [--tenant-concurrent N] \
     [--run-deadline-ms N] [--brownout-target-ms N] [--brownout-dwell-ms N] \
     [--watchdog-ms N] [--watchdog-strikes N] [--quarantine-cooldown-ms N] [--trace[=MODE]]\n\
     \n\
     Long-lived compile server: one JSON request per stdin line, one JSON\n\
     response per stdout line (`oi.serve.v1`). Ops: compile (default), run,\n\
     stats, shutdown. Compiles are cached content-addressed under an LRU\n\
     byte budget (--cache-bytes, default 64 MiB). With --cache-dir, artifacts\n\
     also persist to a crash-consistent disk tier (checksummed `oi.artifact.v1`\n\
     envelopes under --disk-bytes, default 256 MiB): a restarted server\n\
     recovers the store (quarantining anything corrupt, never serving it)\n\
     and answers repeats as `cache:\"disk\"` instead of recompiling.\n\
     Requests flow through a\n\
     bounded queue (--queue, shed with ok:false `overloaded` when full) and\n\
     `run` execution is fuel-sliced (--fuel-slice) and fairly scheduled\n\
     across tenants (request field `tenant`), each boxed by per-request\n\
     quotas (--max-instructions / --max-heap-words / --max-depth /\n\
     --tenant-concurrent / --run-deadline-ms).\n\
     \n\
     Overload control: --brownout-target-ms enables the adaptive brownout\n\
     ladder (guarded-full -> reduced-precision -> inlining-off -> cache-only;\n\
     hysteresis dwell --brownout-dwell-ms, default 250). --watchdog-ms arms\n\
     the worker watchdog: compiles wedged past the budget are answered\n\
     ok:false `watchdog-killed`, the worker is replaced, and the offending\n\
     source fingerprint is quarantined after --watchdog-strikes kills\n\
     (default 3) for --quarantine-cooldown-ms (default 1000), then probed\n\
     half-open. Backpressure refusals carry a typed `retry_after_ms` hint.";

/// Entry point for `oic serve`: parses flags, then pumps the JSON-lines
/// protocol until `shutdown` or EOF. Returns the process exit code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = ServeConfig::default();
    let mut trace_flag = None;
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--cache-bytes" => config.cache_bytes = s.positive(flag)? as usize,
            "--cache-dir" => config.cache_dir = Some(s.path(flag)?),
            "--disk-bytes" => config.disk_bytes = s.positive(flag)?,
            "--max-rounds" => config.max_rounds = Some(s.positive(flag)?),
            "--deadline-ms" => config.deadline_ms = Some(s.positive(flag)?),
            "--metrics-out" => config.metrics_out = Some(s.path(flag)?),
            "--jobs" => config.jobs = s.positive(flag)? as usize,
            "--queue" => config.queue = s.positive(flag)? as usize,
            "--fuel-slice" => config.fuel_slice = s.positive(flag)?,
            "--max-line-bytes" => config.max_line_bytes = s.positive(flag)? as usize,
            "--max-instructions" => config.max_instructions = Some(s.positive(flag)?),
            "--max-heap-words" => config.max_heap_words = Some(s.positive(flag)?),
            "--max-depth" => config.max_depth = Some(s.positive(flag)? as usize),
            "--tenant-concurrent" => config.tenant_concurrent = s.positive(flag)? as usize,
            "--run-deadline-ms" => config.run_deadline_ms = Some(s.positive(flag)?),
            "--brownout-target-ms" => config.brownout_target_ms = Some(s.positive(flag)?),
            "--brownout-dwell-ms" => config.brownout_dwell_ms = s.positive(flag)?,
            "--watchdog-ms" => config.watchdog_ms = Some(s.positive(flag)?),
            "--watchdog-strikes" => {
                config.watchdog_strikes = s.positive(flag)?.min(u64::from(u32::MAX)) as u32;
            }
            "--quarantine-cooldown-ms" => config.quarantine_cooldown_ms = s.positive(flag)?,
            "--trace" => trace_flag = Some(TraceMode::Text),
            _ => {
                let mode = flag
                    .strip_prefix("--trace=")
                    .ok_or_else(|| format!("unknown flag `{flag}`"))?;
                let parsed = TraceMode::parse(mode).ok_or_else(|| {
                    format!("unknown trace mode `{mode}` (expected text, json, or off)")
                })?;
                trace_flag = Some(parsed);
            }
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    let mode = trace_flag.unwrap_or_else(TraceMode::from_env);
    let tracer = Rc::new(Tracer::for_mode(mode));
    let _guard = trace::install(tracer);

    let server = Server::new(config);
    // Stdin/Stdout (not their locks) are Send, which the pump's reader
    // and writer threads require.
    let input = std::io::BufReader::new(std::io::stdin());
    let mut out = std::io::stdout();
    run_serve(&server, input, &mut out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{pump_transcript, scratch_dir, Line, Reply};
    use oi_support::trace::{EventKind, MemorySink};

    const SOURCE: &str = "
        global KEEP;
        class Point { field x; field y;
          method init(a, b) { self.x = a; self.y = b; }
        }
        class Rect { field ll; field ur;
          method init(a, b) { self.ll = new Point(a, a + 1); self.ur = new Point(b, b + 3); }
          method span() { return self.ur.x - self.ll.x + self.ur.y - self.ll.y; }
        }
        fn main() {
          var r = new Rect(1, 10);
          KEEP = r;
          print KEEP.span();
        }";

    #[test]
    fn repeated_compile_hits_the_cache() {
        let server = Server::new(ServeConfig::default());
        let first = server.handle_line(&Line::compile(1, SOURCE).to_string());
        let second = server.handle_line(&Line::compile(2, SOURCE).to_string());
        for (handled, expected) in [(&first, "miss"), (&second, "hit")] {
            let r = &handled.response;
            assert_eq!(r.get("schema").and_then(Json::as_str), Some("oi.serve.v1"));
            assert!(Reply(r).ok());
            assert_eq!(Reply(r).cache(), Some(expected));
            assert!(!handled.shutdown);
            let payload = r.get("payload").expect("payload");
            assert_eq!(
                payload.get("schema").and_then(Json::as_str),
                Some("oic.report.v1")
            );
            assert_eq!(
                payload.get("tier").and_then(Json::as_str),
                Some("guarded-full")
            );
        }
        assert_eq!(first.response.get("id").and_then(Json::as_i64), Some(1));
        assert_eq!(server.cache().stats().hits, 1);
    }

    #[test]
    fn run_op_executes_and_reports() {
        let server = Server::new(ServeConfig::default());
        let handled = server.handle_line(&Line::run(7, SOURCE).to_string());
        let payload = handled.response.get("payload").expect("payload");
        assert_eq!(
            payload.get("schema").and_then(Json::as_str),
            Some("oic.run.v1")
        );
        assert_eq!(payload.get("output").and_then(Json::as_str), Some("20\n"));
        assert!(payload.get("metrics").is_some());
        assert!(payload.get("report").is_some());
        // A second run hits the artifact cache but still executes.
        let again = server.handle_line(&Line::run(8, SOURCE).to_string());
        assert_eq!(Reply(&again.response).cache(), Some("hit"));
        assert_eq!(
            again
                .response
                .get("payload")
                .and_then(|p| p.get("output"))
                .and_then(Json::as_str),
            Some("20\n")
        );
    }

    #[test]
    fn stats_op_returns_reconciled_metrics() {
        let server = Server::new(ServeConfig::default());
        server.handle_line(&Line::compile(1, SOURCE).to_string());
        server.handle_line(&Line::compile(2, SOURCE).to_string());
        let handled = server.handle_line(&Line::new(3, "stats").to_string());
        let payload = handled.response.get("payload").expect("payload");
        assert_eq!(
            payload.get("schema").and_then(Json::as_str),
            Some("oi.metrics.v1")
        );
        let counter = |name: &str| {
            payload
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_i64)
        };
        assert_eq!(counter("serve.requests"), Some(3));
        assert_eq!(counter("cache.hits"), Some(1));
        assert_eq!(counter("cache.misses"), Some(1));
        assert_eq!(counter("serve.tier.guarded-full"), Some(1));
        assert_eq!(counter("serve.errors").unwrap_or(0), 0);
        assert_eq!(server.metrics().gauge("serve.in_flight"), 0);
    }

    #[test]
    fn failure_modes_are_ok_false_responses() {
        let server = Server::new(ServeConfig::default());
        let bad_json = server.handle_line("{not json");
        assert_eq!(
            bad_json.response.get("ok").and_then(Json::as_bool),
            Some(false)
        );
        let no_source = server.handle_line(&Line::new(1, "compile").to_string());
        assert!(no_source
            .response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("source"));
        let bad_op = server.handle_line(&Line::new(2, "launder").to_string());
        assert!(bad_op
            .response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown op"));
        let bad_program = server.handle_line(&Line::compile(3, "fn main( {").to_string());
        assert_eq!(
            bad_program.response.get("ok").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(server.metrics().counter("serve.errors"), 4);
        assert_eq!(server.metrics().counter("serve.requests"), 4);
        assert_eq!(server.metrics().gauge("serve.in_flight"), 0);
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let server = Server::new(ServeConfig::default());
        let handled = server.handle_line(&Line::new(9, "shutdown").to_string());
        assert!(handled.shutdown);
        assert!(Reply(&handled.response).ok());
    }

    #[test]
    fn per_request_budget_config_changes_the_cache_key() {
        let server = Server::new(ServeConfig::default());
        server.handle_line(&Line::compile(1, SOURCE).to_string());
        let budgeted = format!(
            "{}",
            Json::obj(vec![
                ("id", 2u64.into()),
                ("op", "compile".into()),
                ("source", SOURCE.into()),
                ("config", Json::obj(vec![("max_rounds", 64u64.into())])),
            ])
        );
        let handled = server.handle_line(&budgeted);
        assert_eq!(
            Reply(&handled.response).cache(),
            Some("miss"),
            "a budget override must not alias the unbudgeted artifact"
        );
    }

    #[test]
    fn request_id_is_stamped_on_served_spans() {
        let sink = Rc::new(MemorySink::default());
        let tracer = Rc::new(Tracer::new(vec![sink.clone()]));
        let _guard = trace::install(tracer);
        let server = Server::new(ServeConfig::default());
        server.handle_line(&Line::compile(42, SOURCE).to_string());
        let events = sink.snapshot();
        let span_with_id = |name: &str| {
            events.iter().any(|e| {
                e.kind == EventKind::SpanStart
                    && e.name == name
                    && e.fields
                        .iter()
                        .any(|(k, v)| k == "request_id" && v.as_str() == Some("42"))
            })
        };
        assert!(span_with_id("serve.request"), "request span carries the id");
        assert!(span_with_id("serve.parse"), "parse span carries the id");
        assert!(
            span_with_id("serve.optimize"),
            "optimize span carries the id"
        );
    }

    #[test]
    fn metrics_out_dumps_after_every_request() {
        let dir = std::env::temp_dir().join("oi-serve-test-metrics");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("metrics.json");
        let server = Server::new(ServeConfig {
            metrics_out: Some(path.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        server.handle_line(&Line::compile(1, SOURCE).to_string());
        let dumped = std::fs::read_to_string(&path).expect("metrics dump exists");
        let doc = Json::parse(dumped.trim()).expect("dump parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.metrics.v1")
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A finite but quota-busting loop (never pass a non-terminating
    /// program through serve: the ladder's firewall runs it empirically).
    const LONG_SOURCE: &str = "
        fn main() {
          var i = 0;
          var acc = 0;
          while (i < 50000) { acc = acc + i; i = i + 1; }
          print acc;
        }";

    /// Drives a full `run_serve` session over an in-memory transcript and
    /// returns the parsed response lines, in emission order.
    fn pump_session(server: &Server, requests: &[String]) -> Vec<Json> {
        let (out, code) = pump_transcript(server, requests);
        assert_eq!(code, 0, "serve exit code");
        String::from_utf8(out)
            .expect("utf8 output")
            .lines()
            .map(|l| Json::parse(l).expect("response json"))
            .collect()
    }

    #[test]
    fn concurrent_pump_preserves_protocol_order_and_results() {
        let server = Server::new(ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        });
        let responses = pump_session(
            &server,
            &[
                Line::compile(1, SOURCE).to_string(),
                Line::run(2, SOURCE).to_string(),
                Line::run(3, SOURCE).to_string(),
                Line::new(4, "stats").to_string(),
            ],
        );
        assert_eq!(responses.len(), 4);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(
                resp.get("id").and_then(Json::as_i64),
                Some(i as i64 + 1),
                "responses must come back in request order: {resp}"
            );
            assert!(Reply(resp).ok(), "unexpected failure: {resp}");
        }
        assert_eq!(Reply(&responses[1]).output(), Some("20\n"));
        assert_eq!(Reply(&responses[2]).output(), Some("20\n"));
        assert_eq!(server.metrics().gauge("serve.in_flight"), 0);
        assert_eq!(server.metrics().counter("serve.shed_total"), 0);
        assert!(server.metrics().quantile_ns("serve.queue_wait_ns", 50.0) > 0);
    }

    #[test]
    fn request_too_large_is_typed_and_survivable() {
        let server = Server::new(ServeConfig {
            max_line_bytes: 1024,
            ..ServeConfig::default()
        });
        let huge = format!("{{\"id\": 1, \"junk\": \"{}\"}}", "x".repeat(4096));
        let responses = pump_session(&server, &[huge, Line::compile(2, SOURCE).to_string()]);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(Reply(&responses[0]).error_kind(), "request-too-large");
        assert!(
            Reply(&responses[1]).ok(),
            "server must survive an oversized line: {}",
            responses[1]
        );
        assert_eq!(server.metrics().counter("serve.errors"), 1);
    }

    #[test]
    fn run_quota_kill_names_tenant_and_spares_neighbors() {
        let server = Server::new(ServeConfig {
            max_instructions: Some(1_000),
            ..ServeConfig::default()
        });
        let responses = pump_session(
            &server,
            &[
                Line::run(1, LONG_SOURCE).tenant("mallory").to_string(),
                Line::run(2, "fn main() { print 1 + 1; }")
                    .tenant("alice")
                    .to_string(),
            ],
        );
        assert_eq!(responses.len(), 2);
        let killed = &responses[0];
        assert_eq!(killed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(Reply(killed).error_kind(), "quota-exceeded");
        let msg = killed.get("error").and_then(Json::as_str).unwrap();
        assert!(
            msg.contains("mallory") && msg.contains("instructions"),
            "quota kill must name the guilty tenant and quota: {msg}"
        );
        assert_eq!(
            Reply(&responses[1]).output(),
            Some("2\n"),
            "neighbor must be unaffected: {}",
            responses[1]
        );
        assert_eq!(server.metrics().counter("serve.quota_kills_total"), 1);
        assert_eq!(server.metrics().gauge("serve.in_flight"), 0);
    }

    /// A synchronous `run` executes under the same quota and outcome
    /// mapping as a pumped one.
    #[test]
    fn synchronous_run_applies_the_quota_and_names_the_tenant() {
        let server = Server::new(ServeConfig {
            max_instructions: Some(1_000),
            ..ServeConfig::default()
        });
        let killed = server
            .handle_line(&Line::run(1, LONG_SOURCE).tenant("mallory").to_string())
            .response;
        assert_eq!(Reply(&killed).error_kind(), "quota-exceeded", "{killed}");
        let msg = killed.get("error").and_then(Json::as_str).unwrap();
        assert!(
            msg.contains("mallory") && msg.contains("instructions"),
            "quota kill must name the guilty tenant and quota: {msg}"
        );
        let neighbor = server.handle_line(&Line::run(2, "fn main() { print 1 + 1; }").to_string());
        assert_eq!(Reply(&neighbor.response).output(), Some("2\n"));
        let m = server.metrics();
        assert_eq!(m.counter("serve.quota_kills_total"), 1);
        assert_eq!(m.counter("serve.errors"), 1);
        assert_eq!(m.gauge("serve.in_flight"), 0);
    }

    /// `handle_line` one request at a time and the pump at one worker
    /// answer the same request list alike, up to `wall_us`, and count it
    /// alike.
    #[test]
    fn handle_line_and_pump_answer_and_count_alike() {
        let requests = [
            Line::compile(1, SOURCE).to_string(),
            Line::compile(2, SOURCE).to_string(),
            Line::run(3, SOURCE).to_string(),
            "{not json".to_string(),
            Line::new(4, "launder").to_string(),
            Line::new(5, "compile").to_string(),
        ];
        let without_wall = |response: &Json| {
            let Json::Obj(fields) = response else {
                panic!("not an object: {response}")
            };
            let kept = fields.iter().filter(|(k, _)| k != "wall_us").cloned();
            Json::Obj(kept.collect()).to_string()
        };
        let counters = |server: &Server| {
            let m = server.metrics();
            (
                m.counter("serve.requests"),
                m.counter("serve.errors"),
                m.gauge("serve.in_flight"),
            )
        };
        let direct = Server::new(ServeConfig::default());
        let answered: Vec<String> = requests
            .iter()
            .map(|line| without_wall(&direct.handle_line(line).response))
            .collect();
        let pumped = Server::new(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        });
        let piped: Vec<String> = pump_session(&pumped, &requests)
            .iter()
            .map(without_wall)
            .collect();
        assert_eq!(answered, piped);
        assert_eq!(counters(&direct), (6, 3, 0));
        assert_eq!(counters(&pumped), counters(&direct));
    }

    #[test]
    fn overload_sheds_with_typed_backpressure() {
        let server = Server::new(ServeConfig {
            jobs: 1,
            queue: 2,
            ..ServeConfig::default()
        });
        let requests: Vec<String> = (0..9)
            .map(|i| Line::run(i + 1, SOURCE).tenant("burst").to_string())
            .collect();
        let responses = pump_session(&server, &requests);
        assert_eq!(responses.len(), 9);
        let mut served = 0u64;
        let mut shed = 0u64;
        for resp in &responses {
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                assert_eq!(Reply(resp).output(), Some("20\n"));
                served += 1;
            } else {
                assert_eq!(
                    Reply(resp).error_kind(),
                    "overloaded",
                    "sheds must be typed: {resp}"
                );
                shed += 1;
            }
        }
        assert!(served >= 1, "some requests must be served");
        assert!(shed >= 1, "a 9-deep burst into a 2-deep queue must shed");
        assert_eq!(server.metrics().counter("serve.shed_total"), shed);
        assert_eq!(server.metrics().gauge("serve.in_flight"), 0);
    }

    #[test]
    fn drain_on_shutdown_finishes_in_flight_runs() {
        let server = Server::new(ServeConfig {
            jobs: 1,
            fuel_slice: 100,
            ..ServeConfig::default()
        });
        let responses = pump_session(
            &server,
            &[
                Line::run(1, SOURCE).tenant("steady").to_string(),
                Line::new(2, "shutdown").to_string(),
            ],
        );
        assert_eq!(responses.len(), 2);
        assert!(
            Reply(&responses[0]).ok(),
            "an admitted run must finish during drain: {}",
            responses[0]
        );
        assert_eq!(Reply(&responses[0]).output(), Some("20\n"));
        assert!(Reply(&responses[1]).ok());
        assert_eq!(server.metrics().counter("serve.shed_total"), 0);
        assert_eq!(server.metrics().gauge("serve.in_flight"), 0);
    }

    fn disk_config(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn restart_serves_from_the_disk_tier() {
        let dir = scratch_dir("serve-restart");
        {
            let server = Server::new(disk_config(&dir));
            let first = server.handle_line(&Line::compile(1, SOURCE).to_string());
            assert_eq!(Reply(&first.response).cache(), Some("miss"));
            server.flush_disk();
        }
        // A "restarted" server: fresh memory cache, same directory.
        let server = Server::new(disk_config(&dir));
        assert_eq!(server.metrics().counter("serve.recovery_entries_kept"), 1);
        let warm = server.handle_line(&Line::compile(2, SOURCE).to_string());
        assert_eq!(
            Reply(&warm.response).cache(),
            Some("disk"),
            "a restart must warm-start from disk: {}",
            warm.response
        );
        // Promotion: the next repeat is a plain memory hit.
        let hot = server.handle_line(&Line::compile(3, SOURCE).to_string());
        assert_eq!(Reply(&hot.response).cache(), Some("hit"));
        assert_eq!(server.metrics().counter("disk.load_hits"), 1);
        assert!(server.metrics().counter("disk.persists") <= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The persister may drain an artifact before `persist_behind`
    /// returns; the backlog counter must never wrap (debug builds panic
    /// on the overflow) and must read zero once the tier is flushed.
    #[test]
    fn write_behind_backlog_never_wraps_under_many_compiles() {
        let dir = scratch_dir("serve-backlog");
        let server = Server::new(disk_config(&dir));
        for i in 0..300u64 {
            let source = crate::loadgen::synthetic_source(i);
            let handled = server.handle_line(&Line::compile(i, &source).to_string());
            assert!(Reply(&handled.response).ok(), "{}", handled.response);
        }
        server.flush_disk();
        assert_eq!(server.metrics().gauge("serve.persist_backlog"), 0);
        assert_eq!(server.metrics().counter("disk.persists"), 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_quarantined_and_recompiled() {
        use oi_core::IoFault;
        let dir = scratch_dir("serve-corrupt");
        {
            let server = Server::new(disk_config(&dir));
            server.handle_line(&Line::compile(1, SOURCE).to_string());
        } // Drop flushes the persister and compacts.
        let server = Server::new(disk_config(&dir));
        // Corrupt the entry *after* recovery verified it: the load path
        // itself must catch it.
        DiskStore::inject_io_fault(&dir, IoFault::BitFlipBody).unwrap();
        let handled = server.handle_line(&Line::compile(2, SOURCE).to_string());
        assert_eq!(
            Reply(&handled.response).cache(),
            Some("miss"),
            "a corrupt entry must be recompiled, never served: {}",
            handled.response
        );
        assert!(Reply(&handled.response).ok());
        assert_eq!(
            server.metrics().counter("serve.corrupt_quarantined_total"),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unclean_kill_mid_session_still_recovers() {
        let dir = scratch_dir("serve-kill");
        {
            let server = Server::new(disk_config(&dir));
            server.handle_line(&Line::compile(1, SOURCE).to_string());
            // Simulate a kill: flush the persister so the artifact is on
            // disk, but skip compaction by leaking the tier's compact step
            // — here, the closest faithful stand-in is injecting a torn
            // journal tail after a clean flush.
            server.flush_disk();
        }
        use oi_core::IoFault;
        DiskStore::inject_io_fault(&dir, IoFault::TruncatedJournalTail).unwrap();
        let server = Server::new(disk_config(&dir));
        // Recovery truncated the tail and re-adopted the orphan entry.
        assert_eq!(
            server.metrics().counter("serve.recovery_journal_truncated"),
            1
        );
        let warm = server.handle_line(&Line::compile(2, SOURCE).to_string());
        assert_eq!(Reply(&warm.response).cache(), Some("disk"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_cache_dir_degrades_to_memory_only() {
        // A file where the directory should be: open fails, the server
        // must still serve.
        let dir = scratch_dir("serve-degrade");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"x").unwrap();
        let server = Server::new(disk_config(&blocker));
        assert_eq!(server.metrics().counter("serve.disk_open_failures"), 1);
        let handled = server.handle_line(&Line::compile(1, SOURCE).to_string());
        assert!(Reply(&handled.response).ok());
        assert_eq!(Reply(&handled.response).cache(), Some("miss"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pump_session_with_disk_tier_flushes_on_drain() {
        let dir = scratch_dir("serve-pump");
        {
            let server = Server::new(disk_config(&dir));
            let responses = pump_session(
                &server,
                &[
                    Line::compile(1, SOURCE).to_string(),
                    Line::new(2, "shutdown").to_string(),
                ],
            );
            assert_eq!(responses.len(), 2);
            assert!(Reply(&responses[0]).ok());
        }
        let server = Server::new(disk_config(&dir));
        assert!(
            !server.disk().unwrap().recovery().found_damage(),
            "drain must leave a clean store: {:?}",
            server.disk().unwrap().recovery()
        );
        assert_eq!(server.metrics().counter("serve.recovery_entries_kept"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_op_reports_overload_state() {
        let server = Server::new(ServeConfig::default());
        let handled = server.handle_line(&Line::new(1, "health").to_string());
        let r = &handled.response;
        assert!(Reply(r).ok());
        assert_eq!(
            r.get("brownout_tier").and_then(Json::as_str),
            Some("guarded-full")
        );
        let p = r.get("payload").expect("payload");
        assert_eq!(p.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            p.get("brownout_tier").and_then(Json::as_str),
            Some("guarded-full")
        );
        assert_eq!(p.get("breaker_open").and_then(Json::as_i64), Some(0));
        assert_eq!(p.get("in_flight").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn cache_only_brownout_serves_hits_and_sheds_misses() {
        let server = Server::new(ServeConfig {
            brownout_target_ms: Some(1_000),
            ..ServeConfig::default()
        });
        // Warm the cache at full service, then force the deepest rung.
        let warm = server.handle_line(&Line::compile(1, SOURCE).to_string());
        assert!(Reply(&warm.response).ok());
        server.force_brownout(BrownoutLevel::CacheOnly);
        let hit = server.handle_line(&Line::compile(2, SOURCE).to_string());
        assert_eq!(
            Reply(&hit.response).cache(),
            Some("hit"),
            "cache-only still serves hits: {}",
            hit.response
        );
        assert_eq!(
            hit.response.get("brownout_tier").and_then(Json::as_str),
            Some("cache-only")
        );
        let cold = server.handle_line(&Line::compile(3, "fn main() { print 1; }").to_string());
        let r = &cold.response;
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(Reply(r).error_kind(), "shedding");
        // shedding base 50ms, doubled per rung: 50 << 3 at cache-only.
        assert_eq!(r.get("retry_after_ms").and_then(Json::as_i64), Some(400));
        assert_eq!(server.metrics().counter("serve.brownout_shed_total"), 1);
        // Recovery restores compiles.
        server.force_brownout(BrownoutLevel::GUARDED_FULL);
        let again = server.handle_line(&Line::compile(4, "fn main() { print 1; }").to_string());
        assert!(Reply(&again.response).ok());
    }

    #[test]
    fn degraded_brownout_compiles_under_a_distinct_cache_key() {
        let server = Server::new(ServeConfig {
            brownout_target_ms: Some(1_000),
            ..ServeConfig::default()
        });
        server.force_brownout(BrownoutLevel::Compile(oi_core::Tier::InliningOff));
        let degraded = server.handle_line(&Line::compile(1, SOURCE).to_string());
        assert_eq!(
            degraded
                .response
                .get("payload")
                .and_then(|p| p.get("tier"))
                .and_then(Json::as_str),
            Some("inlining-off"),
            "brownout must start the ladder lower: {}",
            degraded.response
        );
        assert_eq!(
            server.metrics().counter("serve.brownout_degraded_compiles"),
            1
        );
        // Back at full service the same source recompiles at full tier —
        // the degraded artifact must not alias the full-tier key. The
        // degraded artifact remains a valid hit *while degraded*.
        server.force_brownout(BrownoutLevel::GUARDED_FULL);
        let full = server.handle_line(&Line::compile(2, SOURCE).to_string());
        assert_eq!(
            full.response
                .get("payload")
                .and_then(|p| p.get("tier"))
                .and_then(Json::as_str),
            Some("guarded-full")
        );
        assert_eq!(
            Reply(&full.response).cache(),
            Some("miss"),
            "degraded artifact must not serve full-tier requests"
        );
        // Degraded levels prefer the best available artifact: the
        // guarded-full artifact now outranks the inlining-off one.
        server.force_brownout(BrownoutLevel::Compile(oi_core::Tier::InliningOff));
        let best = server.handle_line(&Line::compile(3, SOURCE).to_string());
        assert_eq!(Reply(&best.response).cache(), Some("hit"));
        assert_eq!(
            best.response
                .get("payload")
                .and_then(|p| p.get("tier"))
                .and_then(Json::as_str),
            Some("guarded-full")
        );
    }

    #[test]
    fn watchdog_kills_wedged_compile_and_replaces_the_worker() {
        let server = Server::new(ServeConfig {
            jobs: 2,
            allow_chaos_faults: true,
            watchdog_ms: Some(25),
            watchdog_strikes: 10, // no quarantine in this test
            ..ServeConfig::default()
        });
        let responses = pump_session(
            &server,
            &[
                Line::compile(1, SOURCE)
                    .chaos("wedge_compile_ms", 300)
                    .to_string(),
                Line::compile(2, SOURCE).to_string(),
            ],
        );
        assert_eq!(responses.len(), 2);
        let killed = &responses[0];
        assert_eq!(killed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            Reply(killed).error_kind(),
            "watchdog-killed",
            "wedged compile must be answered by the watchdog: {killed}"
        );
        // The neighbor rode the replacement (or the second worker) to a
        // normal answer.
        assert!(Reply(&responses[1]).ok());
        let m = server.metrics();
        assert_eq!(m.counter("serve.watchdog_kills_total"), 1);
        assert_eq!(
            m.counter("serve.worker_replacements_total"),
            m.counter("serve.watchdog_kills_total"),
            "every kill must replace its worker slot"
        );
        assert_eq!(m.gauge("serve.in_flight"), 0);
    }

    #[test]
    fn repeated_wedges_quarantine_the_fingerprint_until_a_clean_probe() {
        let server = Server::new(ServeConfig {
            jobs: 1,
            allow_chaos_faults: true,
            watchdog_ms: Some(25),
            watchdog_strikes: 2,
            quarantine_cooldown_ms: 60_000,
            ..ServeConfig::default()
        });
        let responses = pump_session(
            &server,
            &[
                Line::compile(1, SOURCE)
                    .chaos("wedge_compile_ms", 300)
                    .to_string(),
                Line::compile(2, SOURCE)
                    .chaos("wedge_compile_ms", 300)
                    .to_string(),
                // Same source, no chaos: the fingerprint is quarantined,
                // so this is refused *before* any compile work.
                Line::compile(3, SOURCE).to_string(),
                // A different source is unaffected.
                Line::compile(4, "fn main() { print 7; }").to_string(),
            ],
        );
        assert_eq!(responses.len(), 4);
        for killed in &responses[..2] {
            assert_eq!(
                Reply(killed).error_kind(),
                "watchdog-killed",
                "unexpected: {killed}"
            );
        }
        let quarantined = &responses[2];
        assert_eq!(
            Reply(quarantined).error_kind(),
            "quarantined",
            "K strikes must stop recompiling the fingerprint: {quarantined}"
        );
        assert!(
            quarantined
                .get("retry_after_ms")
                .and_then(Json::as_i64)
                .unwrap_or(0)
                >= 1,
            "quarantine carries a typed retry hint: {quarantined}"
        );
        assert!(Reply(&responses[3]).ok());
        let m = server.metrics();
        assert_eq!(m.counter("serve.watchdog_kills_total"), 2);
        assert_eq!(m.counter("serve.worker_replacements_total"), 2);
        assert_eq!(m.counter("serve.breaker_opened_total"), 1);
        assert_eq!(m.counter("serve.quarantined_total"), 1);
        assert_eq!(m.gauge("serve.breaker_open"), 1);
        assert_eq!(m.gauge("serve.in_flight"), 0);
    }

    #[test]
    fn quarantine_cooldown_admits_a_clean_probe_that_closes_the_circuit() {
        let server = Server::new(ServeConfig {
            jobs: 1,
            allow_chaos_faults: true,
            watchdog_ms: Some(20),
            watchdog_strikes: 1,
            quarantine_cooldown_ms: 50,
            ..ServeConfig::default()
        });
        let responses = pump_session(
            &server,
            &[Line::compile(1, SOURCE)
                .chaos("wedge_compile_ms", 200)
                .to_string()],
        );
        assert_eq!(Reply(&responses[0]).error_kind(), "watchdog-killed");
        assert_eq!(server.metrics().gauge("serve.breaker_open"), 1);
        std::thread::sleep(Duration::from_millis(60));
        // Cooldown elapsed: one probe is admitted; it compiles cleanly
        // (no chaos field) and closes the circuit.
        let probe = server.handle_line(&Line::compile(2, SOURCE).to_string());
        assert!(
            Reply(&probe.response).ok(),
            "clean probe must be admitted: {}",
            probe.response
        );
        assert_eq!(server.metrics().gauge("serve.breaker_open"), 0);
        let again = server.handle_line(&Line::compile(3, SOURCE).to_string());
        assert_eq!(Reply(&again.response).cache(), Some("hit"));
    }
}
