//! Panic-isolated batch compilation: `oic batch`.
//!
//! Compiles a fleet of programs — `.oi` files, whole directories, and/or a
//! generated fuzz corpus — through the graceful-degradation ladder
//! ([`oi_core::ladder::optimize_with_ladder`]), one resource
//! [`Budget`] per job. No job can take the batch down:
//!
//! - every job runs inside [`contained`], so a panic anywhere in the
//!   pipeline is a *result* (the job is retried once starting at the
//!   `inlining-off` tier; a second panic lands it on the synthetic
//!   `"panicked"` tier) rather than a crashed driver;
//! - `--deadline-ms` arms a cooperative per-job deadline: the analysis
//!   polls it, freezes its contour set, and completes with a sound,
//!   coarser result flagged `degraded` instead of overrunning;
//! - `--max-rounds` bounds fixpoint rounds the same way;
//! - the oracle guards every inlining tier, so a miscompilation descends
//!   the ladder instead of reaching the user.
//!
//! The summary is a schema-stable `oi.batch.v1` document with per-job
//! tiers and fleet-level `tier_counts`. Exit 0 when every job landed on a
//! real tier, 1 when any finding survived (a panicked or non-compiling
//! job), 2 on usage errors.

use crate::cli::{load_source, scan_args, usage_error, Output};
use oi_core::cache::{config_fingerprint, Artifact, ArtifactCache, CacheKey};
use oi_core::ladder::{optimize_with_ladder, LadderConfig, LadderOutcome, Tier};
use oi_support::panic::{contained, silence_hook};
use oi_support::stats::time_once;
use oi_support::{Budget, Json};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Batch-driver parameters.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Per-job wall-clock deadline in milliseconds (`None` = unlimited).
    pub deadline_ms: Option<u64>,
    /// Per-job fixpoint-round budget (`None` = the analysis' own cap).
    pub max_rounds: Option<u64>,
    /// Worker threads. Each worker compiles its own jobs from the shared
    /// source strings (programs are not shared across threads).
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
#[derive(Clone, Debug)]
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
    /// `true` when the job needed the panic-retry at `inlining-off`.
    pub retried_after_panic: bool,
    /// `true` when the job's artifact came from the batch-wide
    /// content-addressed cache (a duplicate corpus file compiled earlier
    /// in this invocation). Additive `oi.batch.v1` field.
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

/// LRU byte budget for the per-invocation artifact cache. Generous:
/// batch corpora are small programs, so this effectively means "every
/// distinct source compiles once".
const BATCH_CACHE_BYTES: usize = 64 << 20;

/// A job verdict derived from a ladder outcome (cached or fresh).
fn result_from_outcome(out: &LadderOutcome, cache_hit: bool) -> JobResult {
    let divergences = out
        .descents
        .iter()
        .filter(|d| d.reason.starts_with("oracle rejection"))
        .count();
    let sanitizer_rejections = out
        .descents
        .iter()
        .filter(|d| d.reason.contains("sanitizer reported"))
        .count();
    JobResult {
        name: String::new(),
        tier: out.tier_name().to_owned(),
        degraded: out.optimized.report.degraded,
        descents: out.descents.len(),
        divergences,
        retractions: out.optimized.report.retractions,
        sanitizer_rejections,
        retried_after_panic: false,
        cache_hit,
        wall_ms: 0,
        fields_inlined: out.optimized.report.fields_inlined,
        error: String::new(),
    }
}

/// A failure verdict (`"compile-error"` / `"panicked"`).
fn failed_result(tier: &str, retried: bool, error: String) -> JobResult {
    JobResult {
        name: String::new(),
        tier: tier.to_owned(),
        degraded: false,
        descents: 0,
        divergences: 0,
        retractions: 0,
        sanitizer_rejections: 0,
        retried_after_panic: retried,
        cache_hit: false,
        wall_ms: 0,
        fields_inlined: 0,
        error,
    }
}

/// Compiles and ladders one source, starting at `start`, through the
/// batch-wide artifact cache: a byte-identical source under an identical
/// configuration (start tier and budget knobs included) reuses the
/// earlier job's artifact. `Err` carries a compile diagnostic; panics are
/// the *caller's* to contain.
fn attempt(
    source: &str,
    start: Tier,
    config: &BatchConfig,
    cache: &ArtifactCache,
) -> Result<JobResult, String> {
    let ladder = LadderConfig {
        start,
        ..Default::default()
    };
    let key = CacheKey::whole_program(
        source,
        config_fingerprint(&ladder, config.max_rounds, config.deadline_ms),
    );
    if let Some(artifact) = cache.get(&key) {
        return Ok(result_from_outcome(&artifact.outcome, true));
    }
    let program = oi_ir::lower::compile(source).map_err(|e| e.render(source))?;
    let out = optimize_with_ladder(
        &program,
        &ladder,
        &Budget::from_limits(config.max_rounds, config.deadline_ms),
    );
    let result = result_from_outcome(&out, false);
    cache.insert(key, Artifact::new(out));
    Ok(result)
}

/// Runs one job with panic containment and the one-shot retry at
/// `inlining-off`.
fn run_job(job: &BatchJob, config: &BatchConfig, cache: &ArtifactCache) -> JobResult {
    // One timing path for every wall sample in the workspace: the whole
    // attempt (retry included) is measured through `stats::time_once`.
    let (mut result, wall) = time_once(|| {
        match contained(|| attempt(&job.source, Tier::GuardedFull, config, cache)) {
            Ok(Ok(r)) => r,
            Ok(Err(diag)) => failed_result("compile-error", false, diag),
            Err(panic_msg) => {
                // The ladder contains per-tier panics itself, so reaching this
                // arm means the driver machinery panicked. Retry once from the
                // bottom rung before giving up on the job.
                match contained(|| attempt(&job.source, Tier::InliningOff, config, cache)) {
                    Ok(Ok(mut r)) => {
                        r.retried_after_panic = true;
                        r
                    }
                    Ok(Err(diag)) => failed_result("compile-error", true, diag),
                    Err(second) => failed_result(
                        "panicked",
                        true,
                        format!("first: {panic_msg}; retry: {second}"),
                    ),
                }
            }
        }
    });
    result.name = job.name.clone();
    result.wall_ms = (wall / 1_000_000) as u64;
    result
}

/// Runs the batch. Workers pull jobs from a shared index; results keep
/// submission order. A finding stops the queue unless `keep_going`.
pub fn run_batch(jobs: &[BatchJob], config: &BatchConfig) -> BatchReport {
    // Contained panics would otherwise print a backtrace per job.
    let _hook = silence_hook();
    // One artifact cache per invocation, shared across workers: duplicate
    // corpus files compile once, later copies are cache hits.
    let cache = ArtifactCache::new(BATCH_CACHE_BYTES);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let workers = config.jobs.max(1).min(jobs.len().max(1));
    let mut slots: Vec<Option<JobResult>> = vec![None; jobs.len()];

    let claim = |_worker: usize| -> Option<usize> {
        if !config.keep_going && stop.load(Ordering::SeqCst) {
            return None;
        }
        let i = next.fetch_add(1, Ordering::SeqCst);
        (i < jobs.len()).then_some(i)
    };
    let work = |i: usize| -> JobResult {
        let r = run_job(&jobs[i], config, &cache);
        if !r.ok() {
            stop.store(true, Ordering::SeqCst);
        }
        r
    };

    if workers <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            if !config.keep_going && stop.load(Ordering::SeqCst) {
                break;
            }
            *slot = Some(work(i));
        }
    } else {
        let results: Vec<(usize, JobResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let claim = &claim;
                    let work = &work;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(i) = claim(w) {
                            got.push((i, work(i)));
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker threads contain their panics"))
                .collect()
        });
        for (i, r) in results {
            slots[i] = Some(r);
        }
    }

    let mut report = BatchReport::default();
    for slot in slots {
        match slot {
            Some(r) => report.results.push(r),
            None => report.skipped += 1,
        }
    }
    report
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
            "{}{}{}",
            if r.degraded { " degraded" } else { "" },
            if r.retried_after_panic {
                " retried"
            } else {
                ""
            },
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
