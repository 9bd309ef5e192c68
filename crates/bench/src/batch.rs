//! Panic-isolated batch compilation: `oic batch`.
//!
//! Compiles a fleet of programs — `.oi` files, whole directories, and/or a
//! generated fuzz corpus — as a client of the compile service: each job is
//! one `compile` request ([`Line`]) to a batch-owned [`Server`], so it
//! takes `oic serve`'s path through the graceful-degradation ladder
//! ([`oi_core::ladder::optimize_with_ladder`]) under one resource
//! [`oi_support::Budget`] per request, behind the server's artifact cache
//! (duplicate sources compile once). No job can take the batch down:
//!
//! - the ladder contains a panic in any tier and descends past it, and
//!   the server answers a panic anywhere else in its compile path with a
//!   typed `panic` refusal, which lands the job on the synthetic
//!   `"panicked"` tier rather than crashing the driver;
//! - `--deadline-ms` arms a cooperative per-job deadline: the analysis
//!   polls it, freezes its contour set, and completes with a sound,
//!   coarser result flagged `degraded` instead of overrunning;
//! - `--max-rounds` bounds fixpoint rounds the same way (both travel in
//!   the request's `config` object);
//! - the oracle guards every inlining tier, so a miscompilation descends
//!   the ladder instead of reaching the user.
//!
//! The summary is a schema-stable `oi.batch.v1` document with per-job
//! tiers and fleet-level `tier_counts`. Exit 0 when every job landed on a
//! real tier, 1 when any finding survived (a panicked or non-compiling
//! job), 2 on usage errors.

use crate::cli::{load_source, scan_args, usage_error, Output};
use crate::replay::{Line, Reply};
use crate::serve::{ServeConfig, Server};
use oi_support::panic::silence_hook;
use oi_support::stats::time_once;
use oi_support::Json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Batch-driver parameters.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Per-job wall-clock deadline in milliseconds (`None` = unlimited).
    pub deadline_ms: Option<u64>,
    /// Per-job fixpoint-round budget (`None` = the analysis' own cap).
    pub max_rounds: Option<u64>,
    /// Workers, the calling thread included. All of them send their jobs
    /// to one shared server.
    pub jobs: usize,
    /// Keep compiling after a finding instead of draining the queue.
    pub keep_going: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            deadline_ms: None,
            max_rounds: None,
            jobs: 1,
            keep_going: false,
        }
    }
}

/// One unit of work: a display name and the source text.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// File path or synthetic `fuzz:` name, for the report.
    pub name: String,
    /// Izzy source.
    pub source: String,
}

/// The outcome of one job.
#[derive(Clone, Debug, Default)]
pub struct JobResult {
    /// The job's display name.
    pub name: String,
    /// Landing tier name (`"guarded-full"`, `"reduced-precision"`,
    /// `"inlining-off"`, `"identity"`), or the synthetic `"panicked"` /
    /// `"compile-error"` verdicts.
    pub tier: String,
    /// `true` when the analysis exhausted its budget and completed with
    /// globally widened contours.
    pub degraded: bool,
    /// Ladder descents taken (0 on a top-tier landing).
    pub descents: usize,
    /// Descents caused by an unrepaired oracle rejection.
    pub divergences: usize,
    /// Firewall retractions on the landing tier.
    pub retractions: usize,
    /// Ladder descents whose oracle rejection was a *sanitizer* finding
    /// (checked execution caught inline-state corruption the output
    /// comparison alone would have missed). Additive `oi.batch.v1` field.
    pub sanitizer_rejections: usize,
    /// Always `false`; kept so `oi.batch.v1` stays stable. Batch does not
    /// retry a panicked job from `inlining-off`: the ladder contains a
    /// panic in any tier, so a retry could only re-lower the same bytes,
    /// which panics again.
    pub retried_after_panic: bool,
    /// `true` when the server answered the job from its artifact cache
    /// (a duplicate corpus file compiled earlier in this invocation).
    /// Additive `oi.batch.v1` field.
    pub cache_hit: bool,
    /// Wall-clock time spent on the job (measured through
    /// [`oi_support::stats::time_once`], like every wall sample in this
    /// workspace).
    pub wall_ms: u64,
    /// Fields inlined on the landing tier.
    pub fields_inlined: usize,
    /// Failure detail for `"panicked"` / `"compile-error"` jobs.
    pub error: String,
}

impl JobResult {
    /// `true` when the job landed on a real tier: some program was
    /// produced, even if a degraded or baseline one.
    pub fn ok(&self) -> bool {
        !matches!(self.tier.as_str(), "panicked" | "compile-error")
    }

    /// The result as schema-stable JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("file", self.name.clone().into()),
            ("tier", self.tier.clone().into()),
            ("ok", self.ok().into()),
            ("degraded", self.degraded.into()),
            ("descents", self.descents.into()),
            ("divergences", self.divergences.into()),
            ("retractions", self.retractions.into()),
            ("sanitizer_rejections", self.sanitizer_rejections.into()),
            ("retried_after_panic", self.retried_after_panic.into()),
            ("cache_hit", self.cache_hit.into()),
            ("fields_inlined", self.fields_inlined.into()),
            ("wall_ms", self.wall_ms.into()),
            ("error", self.error.clone().into()),
        ])
    }
}

/// Tier names in the order `tier_counts` reports them (every key is
/// always present, so consumers can rely on the shape).
pub const TIER_NAMES: [&str; 6] = [
    "guarded-full",
    "reduced-precision",
    "inlining-off",
    "identity",
    "panicked",
    "compile-error",
];

/// The whole batch's outcome.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub results: Vec<JobResult>,
    /// Jobs skipped because an earlier finding stopped the queue
    /// (always 0 under `--keep-going`).
    pub skipped: usize,
}

impl BatchReport {
    /// `true` when every executed job landed on a real tier and nothing
    /// was skipped.
    pub fn ok(&self) -> bool {
        self.skipped == 0 && self.results.iter().all(JobResult::ok)
    }

    /// How many jobs landed on each tier, in [`TIER_NAMES`] order.
    pub fn tier_counts(&self) -> Vec<(&'static str, usize)> {
        TIER_NAMES
            .iter()
            .map(|&t| (t, self.results.iter().filter(|r| r.tier == t).count()))
            .collect()
    }

    /// The report as a schema-stable `oi.batch.v1` document.
    pub fn to_json(&self) -> Json {
        let degraded = self.results.iter().filter(|r| r.degraded).count();
        let sanitizer_rejections: usize = self.results.iter().map(|r| r.sanitizer_rejections).sum();
        let cache_hits = self.results.iter().filter(|r| r.cache_hit).count();
        Json::obj(vec![
            ("schema", "oi.batch.v1".into()),
            ("total", self.results.len().into()),
            ("skipped", self.skipped.into()),
            ("degraded", degraded.into()),
            // Additive fleet counter: sanitizer-caught oracle rejections.
            ("sanitizer_rejections", sanitizer_rejections.into()),
            // Additive fleet counter: jobs served from the artifact cache
            // (duplicate corpus files compile once per invocation).
            ("cache_hits", cache_hits.into()),
            (
                "tier_counts",
                Json::Obj(
                    self.tier_counts()
                        .into_iter()
                        .map(|(t, n)| (t.to_owned(), n.into()))
                        .collect(),
                ),
            ),
            (
                "jobs",
                Json::Arr(self.results.iter().map(JobResult::to_json).collect()),
            ),
            ("ok", self.ok().into()),
        ])
    }
}

/// Reads one job's verdict from the server's response to its `compile`
/// request. Success reads the `oic.report.v1` payload: its tier, its
/// report's counters, and one `tier-descent` provenance step per ladder
/// descent, whose detail is `"<from> -> <to>: <reason>"`. A typed
/// `panic` refusal is the `"panicked"` verdict; any other refusal is a
/// `"compile-error"` carrying the server's message.
fn result_from_response(response: &Json) -> JobResult {
    let reply = Reply(response);
    if !reply.ok() {
        let tier = if reply.error_kind() == "panic" {
            "panicked"
        } else {
            "compile-error"
        };
        return JobResult {
            tier: tier.to_owned(),
            error: reply.error().unwrap_or_default().to_owned(),
            ..JobResult::default()
        };
    }
    let payload = response.get("payload");
    let report = payload.and_then(|p| p.get("report"));
    let count = |key: &str| {
        report
            .and_then(|r| r.get(key))
            .and_then(Json::as_i64)
            .map_or(0, |n| n as usize)
    };
    let reasons: Vec<&str> = report
        .and_then(|r| r.get("provenance"))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|step| step.get("code").and_then(Json::as_str) == Some("tier-descent"))
        .map(|step| {
            let detail = step.get("detail").and_then(Json::as_str).unwrap_or("");
            detail.split_once(": ").map_or("", |(_, reason)| reason)
        })
        .collect();
    JobResult {
        tier: payload
            .and_then(|p| p.get("tier"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
        degraded: report
            .and_then(|r| r.get("degraded"))
            .and_then(Json::as_bool)
            .unwrap_or(false),
        descents: reasons.len(),
        divergences: reasons
            .iter()
            .filter(|r| r.starts_with("oracle rejection"))
            .count(),
        retractions: count("retractions"),
        sanitizer_rejections: reasons
            .iter()
            .filter(|r| r.contains("sanitizer reported"))
            .count(),
        cache_hit: reply.cache() == Some("hit"),
        fields_inlined: count("fields_inlined"),
        ..JobResult::default()
    }
}

/// Runs one job as request `id` to `server`, timed end to end.
fn run_job(server: &Server, id: usize, job: &BatchJob, config: &BatchConfig) -> JobResult {
    let line = Line::compile(id as u64, &job.source)
        .budget(config.max_rounds, config.deadline_ms)
        .to_string();
    // One timing path for every wall sample in the workspace.
    let (handled, wall) = time_once(|| server.handle_line(&line));
    let mut result = result_from_response(&handled.response);
    result.name = job.name.clone();
    result.wall_ms = (wall / 1_000_000) as u64;
    result
}

/// Runs the batch through one [`Server`], so duplicate sources compile
/// once. The calling thread is worker 0 (it keeps any thread-local
/// tracer); `config.jobs - 1` more workers pull jobs from a shared index.
/// Results keep submission order. A finding stops the queue unless
/// `keep_going`.
pub fn run_batch(jobs: &[BatchJob], config: &BatchConfig) -> BatchReport {
    // Contained panics would otherwise print a backtrace per job.
    let _hook = silence_hook();
    let server = Server::new(ServeConfig::default());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let workers = config.jobs.max(1).min(jobs.len().max(1));

    let worker = || {
        let mut got = Vec::new();
        while config.keep_going || !stop.load(Ordering::SeqCst) {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(job) = jobs.get(i) else { break };
            let r = run_job(&server, i, job, config);
            if !r.ok() {
                stop.store(true, Ordering::SeqCst);
            }
            got.push((i, r));
        }
        got
    };
    let mut results: Vec<(usize, JobResult)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let mut got = worker();
        for h in helpers {
            got.extend(h.join().expect("the server contains job panics"));
        }
        got
    });
    // Jobs are claimed in index order and every claimed job runs, so the
    // results cover a prefix of the queue; the rest were skipped.
    results.sort_by_key(|&(i, _)| i);
    BatchReport {
        skipped: jobs.len() - results.len(),
        results: results.into_iter().map(|(_, r)| r).collect(),
    }
}

/// Expands positional arguments into jobs: a directory contributes every
/// `*.oi` file inside it (sorted, non-recursive), any other argument
/// itself, read by [`load_source`].
pub fn collect_file_jobs(paths: &[String]) -> Result<Vec<BatchJob>, String> {
    let mut files: Vec<String> = Vec::new();
    for p in paths {
        if std::fs::metadata(p).is_ok_and(|meta| meta.is_dir()) {
            let mut found: Vec<String> = std::fs::read_dir(p)
                .map_err(|e| format!("cannot read {p}: {e}"))?
                .filter_map(|entry| {
                    let path = entry.ok()?.path();
                    (path.extension()? == "oi").then(|| path.to_string_lossy().into_owned())
                })
                .collect();
            found.sort();
            if found.is_empty() {
                return Err(format!("no .oi files in {p}"));
            }
            files.extend(found);
        } else {
            files.push(p.clone());
        }
    }
    files
        .into_iter()
        .map(|f| {
            let source = load_source(&f)?;
            Ok(BatchJob { name: f, source })
        })
        .collect()
}

/// Generates `n` fuzz-corpus jobs from `seed` (the same derivation as
/// `oic fuzz`, so findings cross-reference).
pub fn fuzz_corpus_jobs(n: usize, seed: u64) -> Vec<BatchJob> {
    (0..n)
        .map(|case| {
            let s = crate::fuzz::case_seed(seed, case);
            BatchJob {
                name: format!("fuzz:{case}:seed-{s}"),
                source: crate::fuzz::generate_adversarial(s),
            }
        })
        .collect()
}

const USAGE: &str = "usage: oic batch [flags] [<dir-or-file.oi>...]

Compiles every input through the graceful-degradation ladder with per-job
panic isolation and resource budgets. Exit 0 when every job lands on a
tier, 1 when any finding survives, 2 on usage errors.

  --deadline-ms N   cooperative per-job analysis deadline (degrades, not
                    fails: exhausted budgets widen the analysis soundly)
  --max-rounds N    per-job fixpoint-round budget (same degradation path)
  --jobs N          worker threads (default 1)
  --keep-going      drain the queue even after a finding
  --fuzz-corpus N   add N generated adversarial programs as jobs
  --seed S          base seed for --fuzz-corpus (default 1)
  --json            emit a schema-stable oi.batch.v1 document
  --out FILE        write the report to FILE instead of stdout
";

/// Runs the `oic batch` command-line interface on pre-split arguments and
/// returns the process exit code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = BatchConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut fuzz_corpus = 0usize;
    let mut seed = 1u64;
    let mut output = Output::default();
    let scanned = scan_args(
        args,
        USAGE,
        |flag, s| {
            match flag {
                "--deadline-ms" => config.deadline_ms = Some(s.positive(flag)?),
                "--max-rounds" => config.max_rounds = Some(s.positive(flag)?),
                "--jobs" => config.jobs = s.positive(flag)? as usize,
                "--fuzz-corpus" => fuzz_corpus = s.positive(flag)? as usize,
                "--seed" => seed = s.integer(flag)?,
                "--keep-going" => config.keep_going = true,
                _ => output.flag(flag, s)?,
            }
            Ok(())
        },
        |path| {
            paths.push(path);
            Ok(())
        },
    );
    if let Err(code) = scanned {
        return code;
    }
    if paths.is_empty() && fuzz_corpus == 0 {
        return usage_error(
            USAGE,
            "nothing to do: pass files, directories, or --fuzz-corpus N",
        );
    }
    let mut jobs = match collect_file_jobs(&paths) {
        Ok(jobs) => jobs,
        Err(msg) => return usage_error(USAGE, &msg),
    };
    jobs.extend(fuzz_corpus_jobs(fuzz_corpus, seed));
    eprintln!("batch: {} job(s)...", jobs.len());
    let report = run_batch(&jobs, &config);
    output.finish(|| report.to_json(), || render_text(&report), report.ok())
}

fn render_text(report: &BatchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "batch: {} job(s)", report.results.len());
    for (tier, n) in report.tier_counts() {
        if n > 0 {
            let _ = writeln!(out, "  {tier:17}: {n}");
        }
    }
    let degraded = report.results.iter().filter(|r| r.degraded).count();
    if degraded > 0 {
        let _ = writeln!(out, "  degraded         : {degraded}");
    }
    if report.skipped > 0 {
        let _ = writeln!(out, "  skipped          : {}", report.skipped);
    }
    for r in &report.results {
        let flags = format!(
            "{}{}",
            if r.degraded { " degraded" } else { "" },
            if r.descents > 0 {
                format!(" descents={}", r.descents)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "{:6} {:18} {:>5}ms{}  {}",
            if r.ok() { "ok" } else { "FAIL" },
            r.tier,
            r.wall_ms,
            flags,
            r.name
        );
        if !r.error.is_empty() {
            let _ = writeln!(out, "       {}", r.error.lines().next().unwrap_or_default());
        }
    }
    let _ = write!(out, "{}", if report.ok() { "OK" } else { "FINDINGS" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, source: &str) -> BatchJob {
        BatchJob {
            name: name.to_owned(),
            source: source.to_owned(),
        }
    }

    const HEALTHY: &str = "
        class P { field x; field y; method init(a, b) { self.x = a; self.y = b; } }
        class R { field ll; field ur;
          method init(a, b) { self.ll = new P(a, a + 1); self.ur = new P(b, b + 2); } }
        fn main() { var r = new R(1, 5); print r.ll.x + r.ur.y; }";

    #[test]
    fn healthy_jobs_land_on_the_top_tier() {
        let report = run_batch(
            &[job("a", HEALTHY), job("b", HEALTHY)],
            &BatchConfig::default(),
        );
        assert!(report.ok());
        assert_eq!(report.results.len(), 2);
        assert!(report.results.iter().all(|r| r.tier == "guarded-full"));
    }

    #[test]
    fn tiny_round_budget_degrades_every_job_but_fails_none() {
        let config = BatchConfig {
            max_rounds: Some(1),
            keep_going: true,
            ..Default::default()
        };
        let mut jobs = vec![job("healthy", HEALTHY)];
        jobs.extend(fuzz_corpus_jobs(8, 1));
        let report = run_batch(&jobs, &config);
        assert!(
            report.ok(),
            "findings: {:?}",
            report
                .results
                .iter()
                .filter(|r| !r.ok())
                .collect::<Vec<_>>()
        );
        assert!(report.results.iter().all(JobResult::ok));
        assert!(
            report.results.iter().any(|r| r.degraded),
            "a 1-round budget must exhaust on some job"
        );
    }

    #[test]
    fn compile_errors_are_findings_not_crashes() {
        let report = run_batch(
            &[job("bad", "fn main() { print }")],
            &BatchConfig::default(),
        );
        assert!(!report.ok());
        assert_eq!(report.results[0].tier, "compile-error");
        assert!(!report.results[0].error.is_empty());
    }

    #[test]
    fn queue_stops_after_a_finding_unless_keep_going() {
        let jobs = [
            job("bad", "class {"),
            job("good-1", HEALTHY),
            job("good-2", HEALTHY),
        ];
        let stopping = run_batch(&jobs, &BatchConfig::default());
        assert_eq!(stopping.results.len(), 1);
        assert_eq!(stopping.skipped, 2);
        assert!(!stopping.ok());
        let draining = run_batch(
            &jobs,
            &BatchConfig {
                keep_going: true,
                ..Default::default()
            },
        );
        assert_eq!(draining.results.len(), 3);
        assert_eq!(draining.skipped, 0);
    }

    #[test]
    fn parallel_workers_keep_submission_order() {
        let jobs: Vec<BatchJob> = (0..6).map(|i| job(&format!("j{i}"), HEALTHY)).collect();
        let report = run_batch(
            &jobs,
            &BatchConfig {
                jobs: 3,
                keep_going: true,
                ..Default::default()
            },
        );
        assert!(report.ok());
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["j0", "j1", "j2", "j3", "j4", "j5"]);
    }

    #[test]
    fn json_document_is_schema_stable() {
        let report = run_batch(&[job("a", HEALTHY)], &BatchConfig::default());
        let doc = report.to_json().to_string();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some("oi.batch.v1"));
        assert_eq!(parsed.get("ok").unwrap(), &Json::Bool(true));
        let counts = parsed.get("tier_counts").unwrap();
        for tier in TIER_NAMES {
            assert!(counts.get(tier).is_some(), "missing tier_counts.{tier}");
        }
        let jobs = parsed.get("jobs").unwrap().as_arr().unwrap();
        for key in [
            "file",
            "tier",
            "ok",
            "degraded",
            "descents",
            "divergences",
            "retractions",
            "sanitizer_rejections",
            "cache_hit",
            "wall_ms",
        ] {
            assert!(jobs[0].get(key).is_some(), "missing jobs[].{key}");
        }
        assert_eq!(
            parsed.get("sanitizer_rejections").and_then(Json::as_i64),
            Some(0),
            "healthy batch must have no sanitizer-caught rejections"
        );
        assert_eq!(
            parsed.get("cache_hits").and_then(Json::as_i64),
            Some(0),
            "a single-job batch has nothing to hit"
        );
    }

    #[test]
    fn duplicate_jobs_compile_once_and_hit_the_cache() {
        let report = run_batch(
            &[job("a", HEALTHY), job("b", HEALTHY), job("c", HEALTHY)],
            &BatchConfig::default(),
        );
        assert!(report.ok());
        let hits: Vec<bool> = report.results.iter().map(|r| r.cache_hit).collect();
        assert_eq!(hits, [false, true, true], "first compiles, copies hit");
        // Cached jobs report the same verdict as the compile they reused.
        assert!(report.results.iter().all(|r| r.tier == "guarded-full"));
        let inlined: Vec<usize> = report.results.iter().map(|r| r.fields_inlined).collect();
        assert_eq!(inlined[0], inlined[1]);
        assert_eq!(
            report.to_json().get("cache_hits").and_then(Json::as_i64),
            Some(2)
        );
    }

    #[test]
    fn cache_hits_survive_parallel_workers() {
        let jobs: Vec<BatchJob> = (0..8).map(|i| job(&format!("j{i}"), HEALTHY)).collect();
        let report = run_batch(
            &jobs,
            &BatchConfig {
                jobs: 4,
                keep_going: true,
                ..Default::default()
            },
        );
        assert!(report.ok());
        // At least one worker must have reused another's artifact; exact
        // counts depend on scheduling (several workers can miss the same
        // key concurrently and each compile it).
        assert!(
            report.results.iter().any(|r| r.cache_hit),
            "8 identical jobs over 4 workers must produce cache hits"
        );
        assert!(report.results.iter().all(|r| r.tier == "guarded-full"));
    }

    #[test]
    fn descents_read_from_the_response_match_the_ladder() {
        use crate::serve::compile_payload;
        use oi_core::fault::Fault;
        use oi_core::firewall::FirewallConfig;
        use oi_core::ladder::{optimize_with_ladder, LadderConfig};
        // The program and fault of the ladder's own one-descent test: with
        // repair off, the injected layout bug makes the oracle reject the
        // guarded-full build and the ladder lands on reduced-precision.
        let src = "
            global KEEP;
            class P { field x; field y; method init(a, b) { self.x = a; self.y = b; } }
            class Filler { field q; method init(a) { self.q = a; } }
            class MakeP { method make() { return new P(1, 2); } }
            class MakeF1 { method make() { return new Filler(3); } }
            class MakeF2 { method make() { return new Filler(4); } }
            class MakeF3 { method make() { return new Filler(5); } }
            class H { field pt; field z; method init(p, c) { self.pt = p; self.z = c; } }
            fn mk(f) { return f.make(); }
            fn main() {
              mk(new MakeF1());
              mk(new MakeF2());
              mk(new MakeF3());
              var h = new H(mk(new MakeP()), 7);
              KEEP = h;
              print KEEP.pt.x;
              print KEEP.pt.y;
              print KEEP.z;
            }";
        let program = oi_ir::lower::compile(src).unwrap();
        let mut ladder = LadderConfig {
            firewall: FirewallConfig {
                max_retractions: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        ladder.inline.fault = Some(Fault::CompactFirstLayoutSlots);
        ladder.inline.analysis.max_contours_per_method = 4;
        let out = optimize_with_ladder(&program, &ladder, &oi_support::Budget::unlimited());
        assert_eq!(out.descents.len(), 1, "{:?}", out.descents);
        // The envelope `oic serve` wraps a compile miss in.
        let response = Json::obj(vec![
            ("ok", true.into()),
            ("cache", "miss".into()),
            ("payload", compile_payload(&out)),
        ]);
        let r = result_from_response(&Json::parse(&response.to_string()).unwrap());
        let reasons = || out.descents.iter().map(|d| d.reason.as_str());
        assert_eq!(r.tier, "reduced-precision");
        assert_eq!(r.descents, out.descents.len());
        assert_eq!(
            r.divergences,
            reasons()
                .filter(|r| r.starts_with("oracle rejection"))
                .count()
        );
        assert!(r.divergences > 0, "the oracle rejected the fault");
        assert_eq!(
            r.sanitizer_rejections,
            reasons()
                .filter(|r| r.contains("sanitizer reported"))
                .count()
        );
        assert_eq!(r.fields_inlined, out.optimized.report.fields_inlined);
        assert!(!r.cache_hit);
    }

    #[test]
    fn panic_refusal_is_the_panicked_verdict() {
        let response = Json::obj(vec![
            ("ok", false.into()),
            ("error_kind", "panic".into()),
            ("error", "contained panic: boom".into()),
        ]);
        let r = result_from_response(&response);
        assert_eq!(r.tier, "panicked");
        assert_eq!(r.error, "contained panic: boom");
        assert!(!r.ok());
    }

    #[test]
    fn budget_knobs_partition_the_cache() {
        // The same source under a different round budget must not reuse
        // the unbudgeted artifact (it may be degraded).
        let unbudgeted = run_batch(&[job("a", HEALTHY)], &BatchConfig::default());
        assert!(!unbudgeted.results[0].cache_hit);
        let budgeted = run_batch(
            &[job("a", HEALTHY), job("b", HEALTHY)],
            &BatchConfig {
                max_rounds: Some(1),
                keep_going: true,
                ..Default::default()
            },
        );
        // Fresh invocation, fresh cache: first job misses even though an
        // earlier invocation compiled identical bytes.
        assert!(!budgeted.results[0].cache_hit);
        assert!(budgeted.results[1].cache_hit);
    }
}
