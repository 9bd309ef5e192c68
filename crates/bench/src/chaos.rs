//! Systematic fault injection: `oic chaos`.
//!
//! Runs every [`Fault`] class against a curated sentinel corpus and
//! reports a detection table: which defense caught each fault
//! (sanitizer or differential oracle), whether the culprit decision was
//! retracted, and whether the repaired program's output was restored to
//! baseline-equal. The corpus is small by design — each sentinel is the
//! minimal program shape on which a fault class has *purchase* (a fault
//! that cannot bite a program is recorded as benign there, not escaped):
//!
//! - `rect`: non-contiguous inline layouts plus redirected loads — the
//!   bite surface for `compact-first-layout-slots`, `skip-use-redirect`,
//!   and `off-by-one-slot-rewrite`;
//! - `copy`: constructor-argument children stored by value — the bite
//!   surface for `drop-assign-copy`'s omitted field copy;
//! - `siblings`: two classes sharing a selector behind a container — the
//!   bite surface for `wrong-devirt-target`.
//!
//! A fault **escapes** when it changed the built program but neither the
//! sanitizer nor the oracle objected — the one outcome the soundness
//! story cannot tolerate. Exit 0 requires every fault class detected
//! somewhere, every detection repaired, and zero escapes anywhere.

use crate::cli::{scan_flags, Output};
use crate::client::with_pump_client;
use crate::overload::RetryPolicy;
use crate::replay::{flood_then_retry, pump_transcript, scratch_dir, Flood, Line, Reply};
use crate::serve::{ServeConfig, Server};
use oi_core::cache::store::DiskStore;
use oi_core::firewall::{optimize_guarded, Divergence, FirewallConfig};
use oi_core::pipeline::{optimize, InlineConfig};
use oi_core::{Fault, IoFault};
use oi_support::stats::time_once;
use oi_support::Json;
use std::fmt::Write as _;
use std::sync::Arc;

/// The sentinel corpus: `(name, source)`, one program per bite surface.
pub const SENTINELS: [(&str, &str); 3] = [
    (
        "rect",
        "global KEEP;
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
           print KEEP.ll.x;
           print KEEP.ll.y;
           print KEEP.span();
         }",
    ),
    (
        "copy",
        "global KEEP;
         class Point { field x; field y;
           method init(a, b) { self.x = a; self.y = b; }
         }
         class Rect { field ll; field ur;
           method init(a, b) { self.ll = a; self.ur = b; }
         }
         fn main() {
           var r = new Rect(new Point(1, 2), new Point(3, 4));
           KEEP = r;
           print KEEP.ll.x;
           print KEEP.ll.y;
           print KEEP.ur.x;
           print KEEP.ur.y;
         }",
    ),
    (
        "siblings",
        "global KEEP;
         class A { field v; method init(a) { self.v = a; } method get() { return self.v; } }
         class B { field w; method init(a) { self.w = a + 100; } method get() { return self.w; } }
         class Box { field a; field b;
           method init(x, y) { self.a = x; self.b = y; }
         }
         fn main() {
           var box = new Box(new A(1), new B(2));
           KEEP = box;
           print KEEP.a.get();
           print KEEP.b.get();
         }",
    ),
];

/// How one `(fault, sentinel)` cell resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Checked execution reported the corruption on the first probe.
    CaughtSanitizer,
    /// The differential oracle saw an output/status/census divergence.
    CaughtOracle,
    /// The fault had no purchase: the faulted build is identical to the
    /// clean build, so there was nothing to detect.
    Benign,
    /// The faulted build differs from the clean build and nothing
    /// objected — a hole in the detection lattice.
    Escaped,
}

impl Outcome {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::CaughtSanitizer => "caught-sanitizer",
            Outcome::CaughtOracle => "caught-oracle",
            Outcome::Benign => "benign",
            Outcome::Escaped => "escaped",
        }
    }
}

/// One `(fault, sentinel)` cell of the matrix.
#[derive(Clone, Debug)]
pub struct Case {
    /// Sentinel name from [`SENTINELS`].
    pub program: String,
    /// How the cell resolved.
    pub outcome: Outcome,
    /// Decision keys the firewall retracted to repair the fault.
    pub retracted: Vec<String>,
    /// `true` when the returned program runs baseline-equal (always true
    /// for benign cells; for caught cells it means repair succeeded).
    pub restored: bool,
    /// The first divergence the oracle saw, for the report.
    pub first_divergence: String,
    /// Wall-clock spent on the whole cell (inject, probe, classify), in
    /// milliseconds, via `stats::time_once`. Additive `oi.chaos.v1`
    /// field.
    pub wall_ms: u64,
}

/// One fault class's row: its cells plus the rollup the exit code uses.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// The injected fault.
    pub fault: Fault,
    /// Per-sentinel cells, in [`SENTINELS`] order.
    pub cases: Vec<Case>,
}

impl FaultRow {
    fn count(&self, o: Outcome) -> usize {
        self.cases.iter().filter(|c| c.outcome == o).count()
    }

    /// `true` when some sentinel detected this fault.
    pub fn detected(&self) -> bool {
        self.count(Outcome::CaughtSanitizer) + self.count(Outcome::CaughtOracle) > 0
    }

    /// Which defense caught it: `"sanitizer"`, `"oracle"`, or `"none"`.
    /// The sanitizer takes precedence when both fired on different
    /// sentinels (it is the earlier layer of the lattice).
    pub fn detected_by(&self) -> &'static str {
        if self.count(Outcome::CaughtSanitizer) > 0 {
            "sanitizer"
        } else if self.count(Outcome::CaughtOracle) > 0 {
            "oracle"
        } else {
            "none"
        }
    }

    /// `true` when the row meets the bar: detected somewhere, zero
    /// escapes, and every detection was repaired with the culprit
    /// decision retracted and output restored.
    pub fn ok(&self) -> bool {
        self.detected()
            && self.count(Outcome::Escaped) == 0
            && self.cases.iter().all(|c| {
                !matches!(c.outcome, Outcome::CaughtSanitizer | Outcome::CaughtOracle)
                    || (!c.retracted.is_empty() && c.restored)
            })
    }

    /// The row as schema-stable JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fault", self.fault.name().into()),
            ("detected", self.detected().into()),
            ("detected_by", self.detected_by().into()),
            (
                "caught_sanitizer",
                self.count(Outcome::CaughtSanitizer).into(),
            ),
            ("caught_oracle", self.count(Outcome::CaughtOracle).into()),
            ("benign", self.count(Outcome::Benign).into()),
            ("escaped", self.count(Outcome::Escaped).into()),
            ("ok", self.ok().into()),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("program", c.program.clone().into()),
                                ("outcome", c.outcome.name().into()),
                                ("retracted", c.retracted.len().into()),
                                ("restored", c.restored.into()),
                                ("first_divergence", c.first_divergence.clone().into()),
                                ("wall_ms", c.wall_ms.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A service-layer fault class injected into the multi-tenant execution
/// path (scheduler + `oic serve` pump) rather than the compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceFault {
    /// A hostile request whose program never terminates on its own; the
    /// fuel-sliced scheduler must preempt it and its instruction quota
    /// must kill it, with co-scheduled neighbors untouched.
    RequestNeverYields,
    /// A burst of requests that all bust their instruction quota at
    /// once; every one must die with a typed per-tenant kill through the
    /// full serve pipeline while well-behaved neighbors complete.
    FuelExhaustionStorm,
    /// A guest panic injected mid-execution (between fuel slices) of a
    /// served request; it must be contained to that one response.
    MidRequestPanic,
    /// A repeat-offender source wedges the only worker twice (the serve
    /// chaos seam, `chaos.wedge_compile_ms`): the watchdog must answer
    /// each victim `watchdog-killed`, replace the worker both times, and
    /// the circuit breaker must quarantine the fingerprint on the second
    /// strike — while interleaved neighbors are served by the
    /// replacements.
    WedgedWorker,
    /// A single transient compile spin on one of two workers: the
    /// watchdog kills it once, the sibling worker serves every neighbor
    /// during the wedge, and one strike must NOT open the breaker — a
    /// transient spin is not a repeat offender.
    CompileSpin,
    /// A pipelined flood against a tiny admission queue: every shed must
    /// carry a typed `retry_after_ms` hint, a backoff-honoring client
    /// must converge with zero give-ups, and the shed/request counters
    /// must reconcile exactly against what the client observed.
    RetryStorm,
    /// The write-behind persister slowed to a crawl (the serve chaos
    /// seam, `chaos_persist_delay_ms`): the backlog must build without
    /// ever blocking a response, drain to zero on graceful shutdown, and
    /// a restart over the same store must warm-start every artifact.
    PersisterBacklog,
}

impl ServiceFault {
    /// Every service-layer fault class, in report order.
    pub const ALL: [ServiceFault; 7] = [
        ServiceFault::RequestNeverYields,
        ServiceFault::FuelExhaustionStorm,
        ServiceFault::MidRequestPanic,
        ServiceFault::WedgedWorker,
        ServiceFault::CompileSpin,
        ServiceFault::RetryStorm,
        ServiceFault::PersisterBacklog,
    ];

    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ServiceFault::RequestNeverYields => "request-never-yields",
            ServiceFault::FuelExhaustionStorm => "fuel-exhaustion-storm",
            ServiceFault::MidRequestPanic => "mid-request-panic",
            ServiceFault::WedgedWorker => "wedged-worker",
            ServiceFault::CompileSpin => "compile-spin",
            ServiceFault::RetryStorm => "retry-storm",
            ServiceFault::PersisterBacklog => "persister-backlog",
        }
    }
}

/// One service-layer fault row: containment is binary — the fault either
/// resolved into its typed verdict with neighbors unharmed and fuel
/// accounting exact, or it escaped.
#[derive(Clone, Debug)]
pub struct ServiceRow {
    /// The injected fault.
    pub fault: ServiceFault,
    /// The fault resolved into its expected typed verdict.
    pub detected: bool,
    /// Co-scheduled well-behaved work finished normally.
    pub neighbors_ok: bool,
    /// Per-tenant fuel tallies reconciled exactly (scheduler-direct
    /// rows) / service counters matched (serve rows).
    pub reconciled: bool,
    /// Human-readable evidence for the report.
    pub detail: String,
    /// Wall-clock spent on the row, in milliseconds.
    pub wall_ms: u64,
}

impl ServiceRow {
    /// `true` when the fault was fully contained.
    pub fn ok(&self) -> bool {
        self.detected && self.neighbors_ok && self.reconciled
    }

    /// The row as schema-stable JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fault", self.fault.name().into()),
            ("detected", self.detected.into()),
            ("neighbors_ok", self.neighbors_ok.into()),
            ("reconciled", self.reconciled.into()),
            ("escaped", (!self.ok()).into()),
            ("ok", self.ok().into()),
            ("detail", self.detail.clone().into()),
            ("wall_ms", self.wall_ms.into()),
        ])
    }
}

/// One I/O fault class's row — the storage half of the chaos matrix,
/// injected against a persistent artifact store between two serve
/// sessions. The bar: the damage is *detected* by recovery, *quarantined*
/// (sidelined or dropped, never resident), the restarted server reaches a
/// *serving state*, and **zero** corrupt artifacts are served.
#[derive(Clone, Debug)]
pub struct IoRow {
    /// The injected storage fault.
    pub fault: IoFault,
    /// Recovery's counters show the damage was noticed.
    pub detected: bool,
    /// The damage was isolated: files sidelined to `quarantine/`, torn
    /// journal tails truncated, stale records dropped.
    pub quarantined: bool,
    /// The restarted server reached a serving state and answered every
    /// request `ok:true` — corruption degraded the cache, never the
    /// service.
    pub recovered: bool,
    /// Served payloads that differed from the pre-fault payloads. Must be
    /// zero: a corrupt artifact is recompiled, never served.
    pub corrupt_served: usize,
    /// Human-readable evidence for the report.
    pub detail: String,
    /// Wall-clock spent on the row, in milliseconds.
    pub wall_ms: u64,
}

impl IoRow {
    /// `true` when the fault was fully contained.
    pub fn ok(&self) -> bool {
        self.detected && self.quarantined && self.recovered && self.corrupt_served == 0
    }

    /// The row as schema-stable JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fault", self.fault.name().into()),
            ("detected", self.detected.into()),
            ("quarantined", self.quarantined.into()),
            ("recovered", self.recovered.into()),
            ("corrupt_served", self.corrupt_served.into()),
            ("escaped", (!self.ok()).into()),
            ("ok", self.ok().into()),
            ("detail", self.detail.clone().into()),
            ("wall_ms", self.wall_ms.into()),
        ])
    }
}

/// The whole matrix.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// One row per injected fault, in [`Fault::ALL`] order (or the single
    /// `--fault` row).
    pub rows: Vec<FaultRow>,
    /// Service-layer fault rows, in [`ServiceFault::ALL`] order (empty
    /// when a `--fault` filter restricted the run to one compiler fault).
    pub service_rows: Vec<ServiceRow>,
    /// Storage fault rows, in [`IoFault::ALL`] order (empty when a
    /// `--fault` filter restricted the run to a compiler fault, and the
    /// only rows when it named an I/O fault).
    pub io_rows: Vec<IoRow>,
}

impl ChaosReport {
    /// `true` when every row meets the bar ([`FaultRow::ok`],
    /// [`ServiceRow::ok`], [`IoRow::ok`]).
    pub fn ok(&self) -> bool {
        (!self.rows.is_empty() || !self.io_rows.is_empty())
            && self.rows.iter().all(FaultRow::ok)
            && self.service_rows.iter().all(ServiceRow::ok)
            && self.io_rows.iter().all(IoRow::ok)
    }

    /// Escapes across the whole matrix, service and I/O rows included.
    pub fn escapes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.count(Outcome::Escaped))
            .sum::<usize>()
            + self.service_rows.iter().filter(|r| !r.ok()).count()
            + self.io_rows.iter().filter(|r| !r.ok()).count()
    }

    /// The report as a schema-stable `oi.chaos.v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", "oi.chaos.v1".into()),
            (
                "corpus",
                Json::Arr(SENTINELS.iter().map(|&(n, _)| n.into()).collect()),
            ),
            (
                "faults",
                Json::Arr(self.rows.iter().map(FaultRow::to_json).collect()),
            ),
            (
                "service_faults",
                Json::Arr(self.service_rows.iter().map(ServiceRow::to_json).collect()),
            ),
            (
                "io_faults",
                Json::Arr(self.io_rows.iter().map(IoRow::to_json).collect()),
            ),
            (
                "detected",
                self.rows.iter().filter(|r| r.detected()).count().into(),
            ),
            ("escaped", self.escapes().into()),
            ("ok", self.ok().into()),
        ])
    }
}

/// Runs one `(fault, sentinel)` cell: inject, probe, classify.
fn run_case(name: &str, source: &str, fault: Fault) -> Case {
    let program = oi_ir::lower::compile(source).expect("sentinel programs compile");
    let inline = InlineConfig {
        fault: Some(fault),
        ..InlineConfig::default()
    };
    let fw = FirewallConfig::default();
    let g = match optimize_guarded(&program, &inline, &fw, &oi_support::Budget::unlimited()) {
        Ok(g) => g,
        Err(e) => {
            // The injected fault broke the build itself; the pipeline's
            // typed error is a detection by construction, but nothing was
            // retracted or restored, so report it as an unrepaired catch.
            return Case {
                program: name.to_owned(),
                outcome: Outcome::CaughtOracle,
                retracted: Vec::new(),
                restored: false,
                first_divergence: format!("pipeline error: {e}"),
                wall_ms: 0,
            };
        }
    };
    let first = g
        .initial_divergences
        .first()
        .map(|d| d.to_string())
        .unwrap_or_default();
    if !g.initial_divergences.is_empty() {
        let sanitizer = g.initial_divergences.iter().any(|d| {
            matches!(d, Divergence::Sanitizer { .. })
                || matches!(d, Divergence::Status { optimized, .. }
                    if optimized.contains("checked execution"))
        });
        return Case {
            program: name.to_owned(),
            outcome: if sanitizer {
                Outcome::CaughtSanitizer
            } else {
                Outcome::CaughtOracle
            },
            retracted: g.retracted.clone(),
            restored: g.is_equivalent(),
            first_divergence: first,
            wall_ms: 0,
        };
    }
    // Nothing objected. Since no retraction ran, `g.optimized` *is* the
    // faulted build: compare it against a clean build to tell a fault
    // with no purchase (benign) from one that silently changed the
    // program (escaped).
    let clean = optimize(&program, &inline);
    let escaped = format!("{:?}", g.optimized.program) != format!("{:?}", clean.program);
    Case {
        program: name.to_owned(),
        outcome: if escaped {
            Outcome::Escaped
        } else {
            Outcome::Benign
        },
        retracted: g.retracted.clone(),
        restored: g.is_equivalent(),
        first_divergence: first,
        wall_ms: 0,
    }
}

/// Runs the matrix: every fault in `faults` against every sentinel.
pub fn run_chaos(faults: &[Fault]) -> ChaosReport {
    let mut report = ChaosReport::default();
    for &fault in faults {
        let cases = SENTINELS
            .iter()
            .map(|&(name, source)| {
                let (mut case, wall) = time_once(|| run_case(name, source, fault));
                case.wall_ms = (wall / 1_000_000) as u64;
                case
            })
            .collect();
        report.rows.push(FaultRow { fault, cases });
    }
    report
}

/// Runs every [`ServiceFault`] against the multi-tenant execution path.
pub fn run_service_chaos() -> Vec<ServiceRow> {
    ServiceFault::ALL
        .iter()
        .map(|&fault| {
            let (mut row, wall) = time_once(|| match fault {
                ServiceFault::RequestNeverYields => service_never_yields(),
                ServiceFault::FuelExhaustionStorm => service_fuel_storm(),
                ServiceFault::MidRequestPanic => service_mid_request_panic(),
                ServiceFault::WedgedWorker => service_wedged_worker(),
                ServiceFault::CompileSpin => service_compile_spin(),
                ServiceFault::RetryStorm => service_retry_storm(),
                ServiceFault::PersisterBacklog => service_persister_backlog(),
            });
            row.wall_ms = (wall / 1_000_000) as u64;
            row
        })
        .collect()
}

/// A non-terminating request against the fuel-sliced scheduler: it must
/// be preempted across slices, die on its instruction quota, and leave a
/// co-scheduled neighbor's completion untouched. Drives the scheduler
/// directly — a program with no exit cannot pass through `serve`'s
/// compile path, whose firewall runs candidates empirically.
fn service_never_yields() -> ServiceRow {
    use crate::sched::{JobSpec, ProgramRef, SchedConfig, Scheduler, TenantQuota};
    let hostile = Arc::new(
        oi_ir::lower::compile("fn main() { var i = 0; while (0 < 1) { i = i + 1; } print i; }")
            .expect("hostile sentinel compiles"),
    );
    let neighbor = Arc::new(
        oi_ir::lower::compile(
            "fn main() { var i = 0; var acc = 0; while (i < 200) \
             { acc = acc + i; i = i + 1; } print acc; }",
        )
        .expect("neighbor sentinel compiles"),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    drop(rx);
    let sched = Scheduler::new(
        SchedConfig {
            fuel_slice: 1_000,
            max_queue: 8,
        },
        tx,
    );
    let quota = |max_instructions: u64| TenantQuota {
        max_instructions,
        ..TenantQuota::default()
    };
    let _ = sched.submit(JobSpec {
        tenant: "hostile".into(),
        program: ProgramRef::Bare(hostile),
        quota: quota(5_000),
        fault: None,
    });
    let _ = sched.submit(JobSpec {
        tenant: "neighbor".into(),
        program: ProgramRef::Bare(neighbor),
        quota: quota(1 << 20),
        fault: None,
    });
    sched.close();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| sched.worker_loop());
        }
    });
    let summaries = sched.tenant_summaries();
    let find = |name: &str| summaries.iter().find(|s| s.tenant == name);
    let hostile_s = find("hostile");
    let neighbor_s = find("neighbor");
    let detected = hostile_s.is_some_and(|s| {
        s.quota_kills.instructions == 1 && s.completed == 0 && s.panicked == 0 && s.slices > 1
    });
    let neighbors_ok = neighbor_s.is_some_and(|s| s.completed == 1 && s.quota_kills.total() == 0);
    let reconciled = summaries.iter().all(|s| s.reconciled());
    ServiceRow {
        fault: ServiceFault::RequestNeverYields,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "hostile: {} slices before instruction-quota kill; neighbor completed: {}",
            hostile_s.map_or(0, |s| s.slices),
            neighbors_ok,
        ),
        wall_ms: 0,
    }
}

/// Drives one full serve session over an in-memory transcript and
/// returns the parsed responses, the drained server (for its counters),
/// and whether the session exited cleanly.
fn serve_session(config: ServeConfig, requests: &[String]) -> (Vec<Json>, Server, bool) {
    let server = Server::new(config);
    let (out, code) = pump_transcript(&server, requests);
    // An unparseable line stays in place as `Null`, so the rows still see
    // one answer per request and count it as a failure.
    let responses = String::from_utf8_lossy(&out)
        .lines()
        .map(|l| Json::parse(l).unwrap_or(Json::Null))
        .collect();
    let clean_exit = code == 0 && server.metrics().gauge("serve.in_flight") == 0;
    (responses, server, clean_exit)
}

/// A quota-exhaustion storm through the full serve pipeline: a burst of
/// requests that all bust a tight instruction quota, interleaved across
/// tenants, with two well-behaved neighbors riding along.
fn service_fuel_storm() -> ServiceRow {
    const STORM: usize = 24;
    let storm_source = "fn main() { var i = 0; var acc = 0; while (i < 50000) \
                        { acc = acc + i; i = i + 1; } print acc; }";
    let mut requests: Vec<String> = (0..STORM)
        .map(|i| {
            Line::run(i as u64 + 1, storm_source)
                .tenant(&format!("storm{}", i % 6))
                .to_string()
        })
        .collect();
    for (i, tenant) in ["calm0", "calm1"].iter().enumerate() {
        requests.push(
            Line::run(100 + i as u64, "fn main() { print 1 + 1; }")
                .tenant(tenant)
                .to_string(),
        );
    }
    let (responses, server, clean_exit) = serve_session(
        ServeConfig {
            jobs: 2,
            max_instructions: Some(1_000),
            ..ServeConfig::default()
        },
        &requests,
    );
    let killed = responses
        .iter()
        .take(STORM)
        .map(Reply)
        .filter(|r| {
            r.error_kind() == "quota-exceeded"
                && r.error()
                    .is_some_and(|e| e.contains("storm") && e.contains("instructions"))
        })
        .count();
    let calm_ok = responses
        .iter()
        .skip(STORM)
        .map(Reply)
        .filter(|r| r.ok() && r.output() == Some("2\n"))
        .count();
    let detected = responses.len() == STORM + 2 && killed == STORM;
    let neighbors_ok = calm_ok == 2;
    let reconciled =
        clean_exit && server.metrics().counter("serve.quota_kills_total") == STORM as u64;
    ServiceRow {
        fault: ServiceFault::FuelExhaustionStorm,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "{killed}/{STORM} storm requests died with typed per-tenant kills; \
             {calm_ok}/2 neighbors served"
        ),
        wall_ms: 0,
    }
}

/// A panic injected between fuel slices of a served request (the serve
/// chaos seam, `chaos.panic_at_slice`): the blast radius must be exactly
/// one `ok:false panic` response.
fn service_mid_request_panic() -> ServiceRow {
    let _quiet = oi_support::panic::silence_hook();
    let source = "fn main() { var i = 0; var acc = 0; while (i < 5000) \
                  { acc = acc + i; i = i + 1; } print acc; }";
    let requests = vec![
        Line::run(1, source)
            .tenant("victim")
            .chaos("panic_at_slice", 1)
            .to_string(),
        Line::run(2, source).tenant("bystander").to_string(),
    ];
    let (responses, server, clean_exit) = serve_session(
        ServeConfig {
            allow_chaos_faults: true,
            fuel_slice: 1_000,
            ..ServeConfig::default()
        },
        &requests,
    );
    let reply = |i: usize| Reply(&responses[i]);
    let detected = responses.len() == 2 && !reply(0).ok() && reply(0).error_kind() == "panic";
    let neighbors_ok = responses.len() == 2 && reply(1).ok() && reply(1).output().is_some();
    let reconciled = clean_exit && server.metrics().counter("serve.errors") == 1;
    ServiceRow {
        fault: ServiceFault::MidRequestPanic,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "victim response: {}; bystander served afterwards: {neighbors_ok}",
            responses
                .first()
                .and_then(|r| Reply(r).error())
                .unwrap_or("<missing>"),
        ),
        wall_ms: 0,
    }
}

/// A repeat-offender source wedges the single worker twice: each victim
/// must be answered `watchdog-killed` by the watchdog (not the worker),
/// the worker must be replaced both times so interleaved neighbors keep
/// getting served, and the second strike must trip the circuit breaker —
/// the third submission of the same source is refused `quarantined` with
/// a `retry_after_ms` probe hint instead of wedging a third worker.
fn service_wedged_worker() -> ServiceRow {
    let offender = "class W { field a; method init(x) { self.a = x; } } \
                    fn main() { var w = new W(7); print w.a; }";
    let requests: Vec<String> = [
        Line::compile(1, offender).chaos("wedge_compile_ms", 200),
        Line::compile(2, "fn main() { print 1 + 1; }"),
        Line::compile(3, offender).chaos("wedge_compile_ms", 200),
        Line::compile(4, offender),
        Line::compile(5, "fn main() { print 2 + 2; }"),
    ]
    .iter()
    .map(Line::to_string)
    .collect();
    let (responses, server, clean_exit) = serve_session(
        ServeConfig {
            jobs: 1,
            allow_chaos_faults: true,
            watchdog_ms: Some(25),
            watchdog_strikes: 2,
            quarantine_cooldown_ms: 60_000,
            ..ServeConfig::default()
        },
        &requests,
    );
    let kind = |i: usize| responses.get(i).map_or("", |r| Reply(r).error_kind());
    let served = |i: usize| responses.get(i).is_some_and(|r| Reply(r).ok());
    let hint = responses
        .get(3)
        .and_then(|r| Reply(r).retry_after_ms())
        .unwrap_or(0);
    let m = server.metrics();
    let kills = m.counter("serve.watchdog_kills_total");
    let replacements = m.counter("serve.worker_replacements_total");
    let detected = responses.len() == 5
        && kind(0) == "watchdog-killed"
        && kind(2) == "watchdog-killed"
        && kind(3) == "quarantined"
        && hint > 0;
    let neighbors_ok = served(1) && served(4);
    let reconciled = clean_exit
        && kills == 2
        && replacements == 2
        && m.counter("serve.breaker_opened_total") == 1
        && m.counter("serve.quarantined_total") == 1;
    ServiceRow {
        fault: ServiceFault::WedgedWorker,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "victims: [{}, {}]; strike-2 verdict: {} (probe in {hint}ms); \
             kills/replacements: {kills}/{replacements}",
            kind(0),
            kind(2),
            kind(3),
        ),
        wall_ms: 0,
    }
}

/// One transient compile spin on one of two workers: the watchdog kills
/// it once and a replacement joins, the sibling worker serves every
/// neighbor during the wedge, one strike must NOT open the breaker, and
/// the wedged worker's late return is suppressed and accounted exactly
/// once (`serve.errors == 1`).
fn service_compile_spin() -> ServiceRow {
    let spinner = "class S { field a; method init(x) { self.a = x; } } \
                   fn main() { var s = new S(3); print s.a; }";
    let requests = vec![
        Line::compile(1, spinner)
            .chaos("wedge_compile_ms", 250)
            .to_string(),
        Line::compile(2, "fn main() { print 10 + 1; }").to_string(),
        Line::compile(3, "fn main() { print 10 + 2; }").to_string(),
        Line::compile(4, "fn main() { print 10 + 3; }").to_string(),
    ];
    let (responses, server, clean_exit) = serve_session(
        ServeConfig {
            jobs: 2,
            allow_chaos_faults: true,
            watchdog_ms: Some(30),
            watchdog_strikes: 10,
            ..ServeConfig::default()
        },
        &requests,
    );
    let victim_kind = responses.first().map_or("", |r| Reply(r).error_kind());
    let neighbors = responses.iter().skip(1).filter(|r| Reply(r).ok()).count();
    let m = server.metrics();
    let detected = responses.len() == 4 && victim_kind == "watchdog-killed";
    let neighbors_ok = neighbors == 3;
    let reconciled = clean_exit
        && m.counter("serve.watchdog_kills_total") == 1
        && m.counter("serve.worker_replacements_total") == 1
        && m.counter("serve.breaker_opened_total") == 0
        && m.counter("serve.quarantined_total") == 0
        && m.counter("serve.errors") == 1;
    ServiceRow {
        fault: ServiceFault::CompileSpin,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "victim verdict: {victim_kind}; {neighbors}/3 neighbors served during the \
             wedge; one strike left the breaker closed: {}",
            m.counter("serve.breaker_opened_total") == 0,
        ),
        wall_ms: 0,
    }
}

/// A pipelined flood against a two-slot admission queue: every shed in
/// the first wave must carry a typed `retry_after_ms` hint, a
/// backoff-honoring client must converge every shed with zero give-ups,
/// and the shed/request counters must reconcile exactly against what the
/// client observed (sheds answered at the reader are id-less and never
/// reach dispatch).
fn service_retry_storm() -> ServiceRow {
    const FLOOD: usize = 24;
    let source = |i: usize| {
        let n = i % 6;
        format!(
            "class R{n} {{ field a; field b; \
               method init(x) {{ self.a = x; self.b = x + {n}; }} }} \
             fn main() {{ var r = new R{n}(5); print r.a + r.b; }}"
        )
    };
    let lines: Vec<String> = (0..FLOOD)
        .map(|i| Line::compile(i as u64 + 1, &source(i)).to_string())
        .collect();
    let server = Server::new(ServeConfig {
        queue: 2,
        jobs: 1,
        ..ServeConfig::default()
    });
    let policy = RetryPolicy {
        max_attempts: 10,
        base_ms: 5,
        cap_ms: 50,
        budget_ms: 2_000,
    };
    let flood = with_pump_client(&server, |client| {
        flood_then_retry(client, &lines, policy, 7)
    });
    let Flood {
        completed,
        give_ups,
        attempts,
        refused,
        hinted,
        reader_sheds,
        ..
    } = flood;
    let m = server.metrics();
    let detected = refused >= 1 && hinted == refused;
    let neighbors_ok = completed == FLOOD as u64
        && give_ups == 0
        && flood.protocol_errors + flood.unexpected_errors == 0;
    let reconciled = m.counter("serve.requests") == attempts - reader_sheds
        && m.counter("serve.shed_total") == flood.shed_responses
        && m.gauge("serve.in_flight") == 0;
    ServiceRow {
        fault: ServiceFault::RetryStorm,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "{refused} first-wave sheds ({hinted} hinted, {reader_sheds} at the \
             reader); {completed}/{FLOOD} converged in {attempts} attempts, {give_ups} give-ups"
        ),
        wall_ms: 0,
    }
}

/// The write-behind persister slowed to a crawl: the backlog must build
/// (proof the requests did not wait for disk), drain to zero on graceful
/// shutdown with every artifact persisted, and a restart over the same
/// store must warm-start all of them from disk.
fn service_persister_backlog() -> ServiceRow {
    const FLEET: usize = 12;
    let dir = scratch_dir("chaos-persister-backlog");
    let source = |i: usize| {
        format!(
            "class P{i} {{ field a; method init(x) {{ self.a = x + {i}; }} }} \
             fn main() {{ var p = new P{i}(1); print p.a; }}"
        )
    };
    let config = |delay: Option<u64>| ServeConfig {
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        chaos_persist_delay_ms: delay,
        ..ServeConfig::default()
    };
    let requests = |first_id: u64| -> Vec<String> {
        (0..FLEET)
            .map(|i| Line::compile(first_id + i as u64, &source(i)).to_string())
            .collect()
    };
    let (cold, cold_server, cold_clean) = serve_session(config(Some(5)), &requests(1));
    let (warm, warm_server, warm_clean) = serve_session(config(None), &requests(101));
    let _ = std::fs::remove_dir_all(&dir);
    let ok_count = |rs: &[Json]| rs.iter().filter(|r| Reply(r).ok()).count();
    let cold_m = cold_server.metrics();
    let peak = cold_m.counter("serve.persist_backlog_peak");
    let residual = cold_m.gauge("serve.persist_backlog");
    let persisted = cold_m.counter("disk.persists");
    let warm_disk_hits = warm_server.metrics().counter("disk.load_hits");
    let (cold_ok, warm_ok) = (ok_count(&cold), ok_count(&warm));
    let detected = peak >= 2 && residual == 0 && persisted == FLEET as u64;
    let neighbors_ok = cold_ok == FLEET && warm_ok == FLEET;
    let reconciled = cold_clean
        && warm_clean
        && cold_m.counter("disk.persist_failures") == 0
        && warm_disk_hits == FLEET as u64;
    ServiceRow {
        fault: ServiceFault::PersisterBacklog,
        detected,
        neighbors_ok,
        reconciled,
        detail: format!(
            "backlog peaked at {peak} and drained to {residual}; {persisted}/{FLEET} \
             persisted; warm restart served {warm_ok}/{FLEET} ({warm_disk_hits} from disk)"
        ),
        wall_ms: 0,
    }
}

/// Runs every [`IoFault`] against the persistent artifact store: seed a
/// store through a real serve session, kill it cleanly, corrupt the
/// directory, restart, and require detected + quarantined + serving state
/// + zero corrupt serves.
pub fn run_io_chaos() -> Vec<IoRow> {
    IoFault::ALL
        .iter()
        .map(|&fault| timed_io_case(fault))
        .collect()
}

/// [`run_io_case`] with its wall time recorded on the row.
fn timed_io_case(fault: IoFault) -> IoRow {
    let (mut row, wall) = time_once(|| run_io_case(fault));
    row.wall_ms = (wall / 1_000_000) as u64;
    row
}

/// One I/O fault cell: seed, inject, restart, classify.
fn run_io_case(fault: IoFault) -> IoRow {
    let dir = scratch_dir(&format!("chaos-io-{}", fault.name()));
    let config = || ServeConfig {
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    // The same transcript drives both sessions: compile two sentinels,
    // then shut down (which drains the write-behind persister and
    // compacts the journal — the clean store the fault corrupts).
    let requests: Vec<String> = SENTINELS
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, &(_, source))| Line::compile(i as u64 + 1, source).to_string())
        .chain(std::iter::once(Line::new(99, "shutdown").to_string()))
        .collect();
    let (seeded, _, seed_clean) = serve_session(config(), &requests);
    let expected: Vec<String> = seeded.iter().take(2).map(|r| Reply(r).payload()).collect();

    let injected = match DiskStore::inject_io_fault(&dir, fault) {
        Ok(desc) => desc,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return IoRow {
                fault,
                detected: false,
                quarantined: false,
                recovered: false,
                corrupt_served: 0,
                detail: format!("injection failed: {e}"),
                wall_ms: 0,
            };
        }
    };

    let (responses, server, clean_exit) = serve_session(config(), &requests);
    let all_ok = responses.len() == requests.len() && responses.iter().all(|r| Reply(r).ok());
    let recovered = seed_clean && clean_exit && all_ok;
    // Zero corrupt serves: every compile answer must carry the exact
    // pre-fault payload, whether it came from disk or a recompile.
    let corrupt_served = responses
        .iter()
        .take(2)
        .zip(&expected)
        .filter(|(r, want)| r.get("payload").map(Json::to_string).as_deref() != Some(want.as_str()))
        .count();
    let served_states: Vec<&str> = responses
        .iter()
        .take(2)
        .map(|r| Reply(r).cache().unwrap_or("?"))
        .collect();

    let c = |name: &str| server.metrics().counter(name);
    let quarantine_files = std::fs::read_dir(dir.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0);
    let (detected, quarantined, evidence) = match fault {
        IoFault::TornWrite
        | IoFault::BitFlipBody
        | IoFault::BitFlipHeader
        | IoFault::VersionSkew => {
            let n = c("serve.recovery_quarantined");
            (
                n >= 1,
                quarantine_files >= 1,
                format!("recovery quarantined {n} entry(s), {quarantine_files} file(s) sidelined"),
            )
        }
        IoFault::TruncatedJournalTail => {
            let torn = c("serve.recovery_journal_truncated") == 1;
            let adopted = c("serve.recovery_orphans_adopted");
            (
                torn,
                torn,
                format!("torn tail truncated, {adopted} orphan(s) re-adopted"),
            )
        }
        IoFault::StaleManifestRecord => {
            let stale = c("serve.recovery_stale_records");
            let dup = c("serve.recovery_duplicate_records");
            (
                stale >= 1,
                stale >= 1 && dup >= 1,
                format!("{stale} stale + {dup} duplicate record(s) dropped"),
            )
        }
        IoFault::EnospcMidWrite => {
            let temps = c("serve.recovery_torn_temps");
            (
                temps >= 1,
                quarantine_files >= 1,
                format!("{temps} orphan temp(s) sidelined"),
            )
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    IoRow {
        fault,
        detected,
        quarantined,
        recovered,
        corrupt_served,
        detail: format!(
            "{injected}; {evidence}; restart served [{}]",
            served_states.join(", ")
        ),
        wall_ms: 0,
    }
}

const USAGE: &str = "usage: oic chaos [flags]

Injects every fault class from the systematic fault matrix into a
sentinel corpus and reports which defense layer caught each one
(heap sanitizer or differential oracle), whether the culprit decision
was retracted, and whether output was restored to baseline-equal.
Also runs the service-layer matrix (request-never-yields,
fuel-exhaustion-storm, mid-request-panic, wedged-worker, compile-spin,
retry-storm, persister-backlog) against the multi-tenant scheduler,
the serve pump, its watchdog/breaker self-healing and overload-control
paths, and the storage matrix (torn writes, torn
journal tails, bit flips, stale manifest records, device-full writes,
version skew) against the persistent artifact store across a
kill-and-restart, unless `--fault` restricts the run.
Exit 0 only when every fault class is detected and contained with zero
escapes and zero corrupt artifacts served; 1 otherwise; 2 on usage
errors.

  --fault NAME      run a single fault class, compiler or I/O
                    (see `--list`)
  --list            print the fault class names and exit
  --json            emit a schema-stable oi.chaos.v1 document
  --out FILE        write the report to FILE instead of stdout
";

/// Runs the `oic chaos` command-line interface on pre-split arguments and
/// returns the process exit code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut faults: Vec<Fault> = Fault::ALL.to_vec();
    let mut io_only: Option<IoFault> = None;
    let mut filtered = false;
    let mut list = false;
    let mut output = Output::default();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--fault" => {
                let v = s.value_for(flag).unwrap_or_default();
                match (Fault::parse(&v), IoFault::parse(&v)) {
                    (Some(f), _) => faults = vec![f],
                    (None, Some(f)) => {
                        faults = Vec::new();
                        io_only = Some(f);
                    }
                    (None, None) => {
                        return Err(format!("unknown fault `{v}` (try `oic chaos --list`)"))
                    }
                }
                filtered = true;
            }
            "--list" => list = true,
            _ => output.flag(flag, s)?,
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    if list {
        for f in Fault::ALL {
            println!("{}", f.name());
        }
        for f in IoFault::ALL {
            println!("{}", f.name());
        }
        return 0;
    }
    eprintln!(
        "chaos: {} fault class(es) x {} sentinel(s){}...",
        faults.len() + usize::from(io_only.is_some()),
        SENTINELS.len(),
        if filtered {
            ""
        } else {
            ", plus the service-layer and storage matrices"
        }
    );
    let mut report = run_chaos(&faults);
    if !filtered {
        report.service_rows = run_service_chaos();
        report.io_rows = run_io_chaos();
    } else if let Some(fault) = io_only {
        report.io_rows = vec![timed_io_case(fault)];
    }
    output.finish(|| report.to_json(), || render_text(&report), report.ok())
}

fn render_text(report: &ChaosReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:28} {:10} {:>4} {:>4} {:>4} {:>4}  verdict",
        "fault", "caught-by", "san", "orcl", "bngn", "esc"
    );
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:28} {:10} {:>4} {:>4} {:>4} {:>4}  {}",
            row.fault.name(),
            row.detected_by(),
            row.count(Outcome::CaughtSanitizer),
            row.count(Outcome::CaughtOracle),
            row.count(Outcome::Benign),
            row.count(Outcome::Escaped),
            if row.ok() { "ok" } else { "FAIL" }
        );
        for c in &row.cases {
            if matches!(c.outcome, Outcome::CaughtSanitizer | Outcome::CaughtOracle) {
                let _ = writeln!(
                    out,
                    "  {:9} {} retracted={} restored={}",
                    c.program,
                    c.outcome.name(),
                    c.retracted.len(),
                    c.restored
                );
                if !c.first_divergence.is_empty() {
                    let _ = writeln!(out, "            {}", c.first_divergence);
                }
            }
        }
    }
    for row in &report.service_rows {
        let _ = writeln!(
            out,
            "{:28} {:10} {:>19}  {}",
            row.fault.name(),
            "service",
            format!(
                "detected={} nbrs={}",
                u8::from(row.detected),
                u8::from(row.neighbors_ok)
            ),
            if row.ok() { "ok" } else { "FAIL" }
        );
        let _ = writeln!(out, "            {}", row.detail);
    }
    for row in &report.io_rows {
        let _ = writeln!(
            out,
            "{:28} {:10} {:>19}  {}",
            row.fault.name(),
            "storage",
            format!(
                "detected={} quar={} corrupt={}",
                u8::from(row.detected),
                u8::from(row.quarantined),
                row.corrupt_served
            ),
            if row.ok() { "ok" } else { "FAIL" }
        );
        let _ = writeln!(out, "            {}", row.detail);
    }
    let _ = write!(
        out,
        "{}/{} detected, {} escape(s): {}",
        report.rows.iter().filter(|r| r.detected()).count()
            + report.service_rows.iter().filter(|r| r.detected).count()
            + report.io_rows.iter().filter(|r| r.detected).count(),
        report.rows.len() + report.service_rows.len() + report.io_rows.len(),
        report.escapes(),
        if report.ok() { "OK" } else { "FINDINGS" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_class_is_detected_and_repaired_with_zero_escapes() {
        let report = run_chaos(&Fault::ALL);
        assert_eq!(report.rows.len(), Fault::ALL.len());
        for row in &report.rows {
            assert!(
                row.detected(),
                "{} escaped every sentinel: {:?}",
                row.fault.name(),
                row.cases
            );
            assert_eq!(
                row.count(Outcome::Escaped),
                0,
                "{} escaped on some sentinel: {:?}",
                row.fault.name(),
                row.cases
            );
            assert!(row.ok(), "{} row not ok: {:?}", row.fault.name(), row.cases);
        }
        assert!(report.ok());
    }

    #[test]
    fn sanitizer_owned_faults_are_credited_to_the_sanitizer() {
        // These two corruptions are invisible to output comparison on at
        // least one sentinel and exist precisely to exercise checked
        // execution; the detection table must credit the sanitizer.
        for fault in [Fault::OffByOneSlotRewrite, Fault::DropAssignCopy] {
            let report = run_chaos(&[fault]);
            assert_eq!(
                report.rows[0].detected_by(),
                "sanitizer",
                "{}: {:?}",
                fault.name(),
                report.rows[0].cases
            );
        }
    }

    #[test]
    fn healthy_sentinels_are_benign_under_no_fault_purchase() {
        // WrongDevirtTarget has no purchase on `copy` (no sibling
        // selectors), so that cell must classify as benign, not escaped.
        let report = run_chaos(&[Fault::WrongDevirtTarget]);
        let copy = report.rows[0]
            .cases
            .iter()
            .find(|c| c.program == "copy")
            .unwrap();
        assert_eq!(copy.outcome, Outcome::Benign, "{copy:?}");
    }

    #[test]
    fn inline_config_fault_reaches_the_oracle() {
        // The fault is set on the pipeline config alone; a default
        // firewall must probe the faulted build, not a clean one.
        let (_, source) = SENTINELS.iter().find(|(n, _)| *n == "rect").unwrap();
        let program = oi_ir::lower::compile(source).unwrap();
        let inline = InlineConfig {
            fault: Some(Fault::SkipUseRedirect),
            ..InlineConfig::default()
        };
        let fw = FirewallConfig::default();
        let g = optimize_guarded(&program, &inline, &fw, &oi_support::Budget::unlimited()).unwrap();
        assert!(!g.initial_divergences.is_empty(), "{:?}", g.retracted);
    }

    #[test]
    fn service_faults_are_all_contained_with_zero_escapes() {
        let rows = run_service_chaos();
        assert_eq!(rows.len(), ServiceFault::ALL.len());
        for row in &rows {
            assert!(
                row.detected,
                "{} not detected: {}",
                row.fault.name(),
                row.detail
            );
            assert!(
                row.neighbors_ok,
                "{} hurt neighbors: {}",
                row.fault.name(),
                row.detail
            );
            assert!(
                row.reconciled,
                "{} did not reconcile: {}",
                row.fault.name(),
                row.detail
            );
            assert!(row.ok(), "{} escaped: {}", row.fault.name(), row.detail);
        }
        let mut report = run_chaos(&[Fault::SkipUseRedirect]);
        report.service_rows = rows;
        let doc = report.to_json();
        assert_eq!(doc.get("escaped").and_then(Json::as_i64), Some(0));
        let service = doc.get("service_faults").unwrap().as_arr().unwrap();
        assert_eq!(service.len(), ServiceFault::ALL.len());
        for key in [
            "fault",
            "detected",
            "neighbors_ok",
            "reconciled",
            "escaped",
            "ok",
            "detail",
            "wall_ms",
        ] {
            assert!(
                service[0].get(key).is_some(),
                "missing service_faults[].{key}"
            );
        }
    }

    #[test]
    fn io_fault_matrix_detects_quarantines_and_serves_zero_corrupt() {
        let rows = run_io_chaos();
        assert_eq!(rows.len(), IoFault::ALL.len());
        for row in &rows {
            assert!(
                row.detected,
                "{} not detected: {}",
                row.fault.name(),
                row.detail
            );
            assert!(
                row.quarantined,
                "{} not quarantined: {}",
                row.fault.name(),
                row.detail
            );
            assert!(
                row.recovered,
                "{} did not reach a serving state: {}",
                row.fault.name(),
                row.detail
            );
            assert_eq!(
                row.corrupt_served,
                0,
                "{} served corrupt artifacts: {}",
                row.fault.name(),
                row.detail
            );
            assert!(row.ok(), "{} escaped: {}", row.fault.name(), row.detail);
        }
        // The io rows slot into the document additively.
        let mut report = run_chaos(&[Fault::SkipUseRedirect]);
        report.io_rows = rows;
        let doc = report.to_json();
        assert!(report.ok());
        assert_eq!(doc.get("escaped").and_then(Json::as_i64), Some(0));
        let io = doc.get("io_faults").unwrap().as_arr().unwrap();
        assert_eq!(io.len(), IoFault::ALL.len());
        for key in [
            "fault",
            "detected",
            "quarantined",
            "recovered",
            "corrupt_served",
            "escaped",
            "ok",
            "detail",
            "wall_ms",
        ] {
            assert!(io[0].get(key).is_some(), "missing io_faults[].{key}");
        }
    }

    #[test]
    fn a_failing_io_row_fails_the_whole_report() {
        let mut report = run_chaos(&[Fault::SkipUseRedirect]);
        assert!(report.ok());
        report.io_rows.push(IoRow {
            fault: IoFault::TornWrite,
            detected: true,
            quarantined: true,
            recovered: true,
            corrupt_served: 1,
            detail: "synthetic corrupt serve".into(),
            wall_ms: 0,
        });
        assert!(!report.ok());
        assert_eq!(report.escapes(), 1);
    }

    #[test]
    fn a_failing_service_row_fails_the_whole_report() {
        let mut report = run_chaos(&[Fault::SkipUseRedirect]);
        assert!(report.ok());
        report.service_rows.push(ServiceRow {
            fault: ServiceFault::MidRequestPanic,
            detected: false,
            neighbors_ok: true,
            reconciled: true,
            detail: "synthetic escape".into(),
            wall_ms: 0,
        });
        assert!(!report.ok());
        assert_eq!(report.escapes(), 1);
    }

    #[test]
    fn json_document_is_schema_stable() {
        let report = run_chaos(&[Fault::SkipUseRedirect]);
        let doc = report.to_json().to_string();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some("oi.chaos.v1"));
        for key in [
            "corpus",
            "faults",
            "service_faults",
            "detected",
            "escaped",
            "ok",
        ] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        let rows = parsed.get("faults").unwrap().as_arr().unwrap();
        for key in [
            "fault",
            "detected",
            "detected_by",
            "caught_sanitizer",
            "caught_oracle",
            "benign",
            "escaped",
            "ok",
            "cases",
        ] {
            assert!(rows[0].get(key).is_some(), "missing faults[].{key}");
        }
        let cases = rows[0].get("cases").unwrap().as_arr().unwrap();
        for key in [
            "program",
            "outcome",
            "retracted",
            "restored",
            "first_divergence",
            "wall_ms",
        ] {
            assert!(cases[0].get(key).is_some(), "missing cases[].{key}");
        }
    }
}
