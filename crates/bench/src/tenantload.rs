//! `oic bench tenantload` — the multi-tenant metering gate.
//!
//! The harness submits a seeded, Zipf-skewed burst of thousands of small
//! programs across hundreds of tenants to a [`crate::sched::Scheduler`]
//! and drives it with a pool of workers. A configurable head of the Zipf
//! distribution is *rigged*: those tenants run a large program under a
//! deliberately tight instruction quota, so every one of their jobs must
//! die with a typed quota kill. The report is a schema-stable
//! `oi.tenantload.v1` document embedding the scheduler's own
//! `oi.tenant.v1` metering report, and it carries its own verdict (`ok`)
//! so ci.sh can gate on it:
//!
//! - **no panics** and no runtime errors anywhere in the run,
//! - **no cross-tenant kills**: every quota kill lands on a rigged
//!   tenant, every well-behaved tenant finishes all of its jobs,
//! - **exact fuel reconciliation**: the scheduler's per-slice fuel tally
//!   matches the VM's own instruction counters for every tenant,
//! - **no sheds or rejections**: the burst is sized to the scheduler's
//!   admission bounds, so nothing may be dropped,
//! - **throughput floor**: completed work per wall second stays above
//!   `--min-throughput`,
//! - **fairness (max-starvation) bound**: every tenant's first
//!   completion lands within `own_jobs * slice_bound * tenants + slack`
//!   global slice ticks — a loose upper bound for heavy tenants but a
//!   tight one for light tenants, which is exactly where hog-induced
//!   starvation would show.
//!
//! Everything is deterministic modulo worker interleaving: the tenant
//! draw is seeded, programs are lowered once and shared via
//! [`ProgramRef`], and the fairness clock is the scheduler's global
//! slice counter, not wall time.

use crate::cli::{scan_flags, usage_error, Output};
use crate::sched::{JobSpec, ProgramRef, SchedConfig, Scheduler, TenantQuota, TenantSummary};
use oi_ir::Program;
use oi_support::Json;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use crate::loadgen::ZipfSampler;

/// Tenantload knobs (flags of `oic bench tenantload`).
#[derive(Clone, Debug)]
pub struct TenantloadConfig {
    /// Jobs to submit.
    pub requests: u64,
    /// Distinct tenants the Zipf draw spreads jobs over.
    pub tenants: u64,
    /// Rigged quota-busting tenants at the head of the Zipf draw.
    pub hogs: u64,
    /// Worker threads driving the scheduler.
    pub workers: usize,
    /// Instructions per fuel slice.
    pub fuel_slice: u64,
    /// PRNG seed for the tenant draw.
    pub seed: u64,
    /// Zipf skew exponent over tenant ranks.
    pub zipf_s: f64,
    /// Throughput gate floor, in finished jobs per wall second.
    pub min_throughput: f64,
}

impl Default for TenantloadConfig {
    fn default() -> Self {
        TenantloadConfig {
            requests: 10_000,
            tenants: 200,
            hogs: 4,
            workers: 4,
            fuel_slice: 1_000,
            seed: 1,
            zipf_s: 1.0,
            // About a quarter of the slowest of five debug-build runs at
            // these defaults (28,207 jobs/s on 2 vCPUs; EXPERIMENTS.md).
            min_throughput: 7_000.0,
        }
    }
}

/// Iteration counts of the well-behaved program templates: small enough
/// that a 10k-job burst finishes in seconds, varied enough that tenants
/// need different slice counts.
const TEMPLATES: usize = 16;

fn template_iters(i: usize) -> u64 {
    120 + (i as u64 * 37) % 280
}

/// Instructions a rigged job may spend before its quota kills it. Less
/// than one fuel slice, so every hog job dies on its first slice and the
/// rigged head stays cheap no matter how many jobs land on it.
const HOG_INSTRUCTION_QUOTA: u64 = 500;

fn loop_source(iters: u64) -> String {
    format!(
        "fn main() {{ var i = 0; var acc = 0; while (i < {iters}) \
         {{ acc = acc + i; i = i + 1; }} print acc; }}"
    )
}

/// Lowers one bounded-loop program. The ladder is deliberately skipped:
/// its firewall runs programs empirically, and this gate measures the
/// scheduler, not the optimizer.
fn lowered(iters: u64) -> Arc<Program> {
    Arc::new(oi_ir::lower::compile(&loop_source(iters)).expect("template compiles"))
}

/// Per-tenant gate outcome embedded in the report.
#[derive(Clone, Debug)]
struct TenantVerdict {
    summary: TenantSummary,
    hog: bool,
    first_done_bound: u64,
}

impl TenantVerdict {
    /// A rigged tenant passes when every job died with a typed
    /// instruction-quota kill; a well-behaved tenant passes when every
    /// job completed untouched by any quota.
    fn clean(&self) -> bool {
        let s = &self.summary;
        let typed_ok = if self.hog {
            s.completed == 0
                && s.quota_kills.instructions == s.submitted
                && s.quota_kills.total() == s.submitted
        } else {
            s.completed == s.submitted && s.quota_kills.total() == 0
        };
        typed_ok && s.panicked == 0 && s.runtime_errors == 0 && s.shed == 0 && s.reconciled()
    }

    fn starved(&self) -> bool {
        match self.summary.first_done_tick {
            Some(t) => t > self.first_done_bound,
            None => self.summary.submitted > 0,
        }
    }
}

/// The gate's outcome — everything `oi.tenantload.v1` carries.
#[derive(Clone, Debug)]
pub struct TenantloadReport {
    /// The configuration driven.
    pub config: TenantloadConfig,
    /// Jobs accepted by the scheduler (must equal `requests`).
    pub submitted: u64,
    /// Typed admission rejections (gate requires zero).
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Typed quota kills, all of which must land on rigged tenants.
    pub quota_kills: u64,
    /// Quota kills that landed on a well-behaved tenant (gate: zero).
    pub cross_tenant_kills: u64,
    /// Contained panics anywhere in the run (gate: zero).
    pub panics: u64,
    /// Guest runtime errors (gate: zero — templates are well-formed).
    pub runtime_errors: u64,
    /// Jobs shed by a drain (gate: zero — nothing drains here).
    pub shed: u64,
    /// Whether every tenant's fuel tally matches its VM counters.
    pub reconciled: bool,
    /// Tenants whose first completion exceeded the starvation bound.
    pub starved_tenants: u64,
    /// Worst observed `first_done_tick / bound` ratio across tenants.
    pub max_starvation: f64,
    /// Execution wall time (submission excluded), milliseconds.
    pub elapsed_ms: u64,
    /// Finished jobs (completed + killed) per wall second.
    pub throughput: f64,
    /// The scheduler's embedded `oi.tenant.v1` report.
    pub tenant_report: Json,
    /// The gate verdict (see module docs).
    pub ok: bool,
}

impl TenantloadReport {
    /// The report as a schema-stable `oi.tenantload.v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", "oi.tenantload.v1".into()),
            ("requests", self.config.requests.into()),
            ("tenants", self.config.tenants.into()),
            ("hogs", self.config.hogs.into()),
            ("workers", (self.config.workers as u64).into()),
            ("fuel_slice", self.config.fuel_slice.into()),
            ("seed", self.config.seed.into()),
            ("zipf_s", self.config.zipf_s.into()),
            ("min_throughput", self.config.min_throughput.into()),
            ("submitted", self.submitted.into()),
            ("rejected", self.rejected.into()),
            ("completed", self.completed.into()),
            ("quota_kills", self.quota_kills.into()),
            ("cross_tenant_kills", self.cross_tenant_kills.into()),
            ("panics", self.panics.into()),
            ("runtime_errors", self.runtime_errors.into()),
            ("shed", self.shed.into()),
            ("reconciled", self.reconciled.into()),
            ("starved_tenants", self.starved_tenants.into()),
            ("max_starvation", self.max_starvation.into()),
            ("elapsed_ms", self.elapsed_ms.into()),
            ("throughput", self.throughput.into()),
            ("tenant_report", self.tenant_report.clone()),
            ("ok", self.ok.into()),
        ])
    }
}

/// Drives the configured burst against a fresh scheduler and returns the
/// full report.
pub fn run_tenantload(config: &TenantloadConfig) -> TenantloadReport {
    let templates: Vec<Arc<Program>> = (0..TEMPLATES).map(|i| lowered(template_iters(i))).collect();
    let hog_program = lowered(50_000);
    let ranks = ZipfSampler::new(config.tenants.max(1), config.zipf_s).draws(config.seed);

    // Completion delivery is best-effort and everything the gate needs
    // is in the scheduler's own accounting; drop the receiver.
    let (tx, rx) = mpsc::channel();
    drop(rx);
    let sched = Scheduler::new(
        SchedConfig {
            fuel_slice: config.fuel_slice.max(1),
            max_queue: config.requests.max(1) as usize,
        },
        tx,
    );

    let normal_quota = TenantQuota {
        max_concurrent: config.requests.max(1) as usize,
        ..TenantQuota::default()
    };
    let hog_quota = TenantQuota {
        max_instructions: HOG_INSTRUCTION_QUOTA,
        ..normal_quota.clone()
    };

    let mut rejected = 0u64;
    let mut hog_jobs = 0u64;
    for (i, rank) in (0..config.requests).zip(ranks) {
        let hog = rank < config.hogs;
        let spec = JobSpec {
            tenant: format!("t{rank:05}"),
            program: ProgramRef::Bare(if hog {
                hog_jobs += 1;
                Arc::clone(&hog_program)
            } else {
                Arc::clone(&templates[(i as usize) % TEMPLATES])
            }),
            quota: if hog {
                hog_quota.clone()
            } else {
                normal_quota.clone()
            },
            fault: None,
        };
        if sched.submit(spec).is_err() {
            rejected += 1;
        }
    }

    // Everything is queued before the first slice runs, so the global
    // slice counter is a clean fairness clock: every tenant is in the
    // rotation from tick zero.
    sched.close();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| sched.worker_loop());
        }
    });
    let elapsed = started.elapsed();

    // Upper bound on the fuel slices one template job can need: the
    // largest template, a generous instructions-per-iteration allowance,
    // plus setup/teardown slices.
    let max_iters = (0..TEMPLATES).map(template_iters).max().unwrap_or(0);
    let slice_bound = (max_iters * 16) / config.fuel_slice.max(1) + 4;
    let slack = config.tenants * 4 + 512;

    let verdicts: Vec<TenantVerdict> = sched
        .tenant_summaries()
        .into_iter()
        .map(|summary| {
            let hog = summary
                .tenant
                .strip_prefix('t')
                .and_then(|r| r.parse::<u64>().ok())
                .is_some_and(|rank| rank < config.hogs);
            let bound = summary.submitted.max(1) * slice_bound * config.tenants.max(1) + slack;
            TenantVerdict {
                summary,
                hog,
                first_done_bound: bound,
            }
        })
        .collect();

    let sum =
        |f: &dyn Fn(&TenantSummary) -> u64| -> u64 { verdicts.iter().map(|v| f(&v.summary)).sum() };
    let submitted = sum(&|s| s.submitted);
    let completed = sum(&|s| s.completed);
    let quota_kills = sum(&|s| s.quota_kills.total());
    let panics = sum(&|s| s.panicked);
    let runtime_errors = sum(&|s| s.runtime_errors);
    let shed = sum(&|s| s.shed);
    let cross_tenant_kills = verdicts
        .iter()
        .filter(|v| !v.hog)
        .map(|v| v.summary.quota_kills.total())
        .sum::<u64>();
    let reconciled = verdicts.iter().all(|v| v.summary.reconciled());
    let starved_tenants = verdicts.iter().filter(|v| v.starved()).count() as u64;
    let max_starvation = verdicts
        .iter()
        .filter_map(|v| {
            v.summary
                .first_done_tick
                .map(|t| t as f64 / v.first_done_bound as f64)
        })
        .fold(0.0, f64::max);
    let finished = completed + quota_kills;
    let secs = elapsed.as_secs_f64().max(1e-9);
    let throughput = finished as f64 / secs;

    let clean = verdicts.iter().all(TenantVerdict::clean);
    let ok = rejected == 0
        && submitted == config.requests
        && panics == 0
        && runtime_errors == 0
        && shed == 0
        && cross_tenant_kills == 0
        && clean
        && reconciled
        && starved_tenants == 0
        && hog_jobs == quota_kills
        && throughput >= config.min_throughput;

    TenantloadReport {
        config: config.clone(),
        submitted,
        rejected,
        completed,
        quota_kills,
        cross_tenant_kills,
        panics,
        runtime_errors,
        shed,
        reconciled,
        starved_tenants,
        max_starvation,
        elapsed_ms: elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
        throughput,
        tenant_report: sched.report_json(),
        ok,
    }
}

/// The `oic bench tenantload` usage text.
pub(crate) const USAGE: &str =
    "usage: oic bench tenantload [--requests N] [--tenants T] [--hogs H] \
     [--workers W] [--fuel-slice F] [--seed S] [--zipf-s X] [--min-throughput J] \
     [--json] [--out FILE]\n\
     \n\
     Submits a Zipf-skewed burst of small programs across T tenants (H\n\
     rigged quota-busters, H < T) to the fair scheduler and emits\n\
     oi.tenantload.v1. Exits 1 when the fairness/robustness gate fails:\n\
     any panic, cross-tenant kill, fuel mismatch, shed, starved tenant,\n\
     or throughput under J jobs per second.";

/// Runs `oic bench tenantload` on pre-split arguments and returns the
/// process exit code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = TenantloadConfig::default();
    let mut output = Output::default();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--requests" => config.requests = s.positive(flag)?,
            "--tenants" => config.tenants = s.positive(flag)?,
            "--hogs" => config.hogs = s.positive(flag)?,
            "--workers" => config.workers = s.positive(flag)? as usize,
            "--fuel-slice" => config.fuel_slice = s.positive(flag)?,
            "--seed" => config.seed = s.positive(flag)?,
            "--zipf-s" => config.zipf_s = s.non_negative(flag)?,
            "--min-throughput" => config.min_throughput = s.non_negative(flag)?,
            _ => output.flag(flag, s)?,
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    if config.hogs >= config.tenants {
        return usage_error(USAGE, "`--hogs` must be below `--tenants`");
    }
    let report = run_tenantload(&config);
    output.finish(|| report.to_json(), || render_text(&report), report.ok)
}

fn render_text(report: &TenantloadReport) -> String {
    format!(
        "tenantload: {} jobs over {} tenants ({} rigged, seed {}, zipf {}): \
         {} completed / {} quota-killed / {} panics / {} rejected\n\
         \x20 {} ms, {:.0} jobs/s (floor {:.0}); reconciled: {}; \
         cross-tenant kills: {}; starved tenants: {} (worst {:.3} of bound)\n\
         \x20 gate: {}",
        report.config.requests,
        report.config.tenants,
        report.config.hogs,
        report.config.seed,
        report.config.zipf_s,
        report.completed,
        report.quota_kills,
        report.panics,
        report.rejected,
        report.elapsed_ms,
        report.throughput,
        report.config.min_throughput,
        report.reconciled,
        report.cross_tenant_kills,
        report.starved_tenants,
        report.max_starvation,
        if report.ok { "ok" } else { "FAILED" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TenantloadConfig {
        TenantloadConfig {
            requests: 300,
            tenants: 20,
            hogs: 3,
            workers: 4,
            min_throughput: 1.0,
            ..TenantloadConfig::default()
        }
    }

    #[test]
    fn gate_passes_on_a_small_skewed_burst() {
        let report = run_tenantload(&small());
        assert!(report.ok, "gate failed: {}", report.to_json());
        assert_eq!(report.submitted, 300);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.panics, 0);
        assert_eq!(report.cross_tenant_kills, 0);
        assert_eq!(report.starved_tenants, 0);
        assert!(
            report.quota_kills > 0,
            "the rigged Zipf head must actually draw jobs"
        );
        assert_eq!(report.completed + report.quota_kills, 300);
        assert!(report.reconciled);
    }

    #[test]
    fn report_is_schema_stable_and_embeds_tenant_report() {
        let report = run_tenantload(&TenantloadConfig {
            requests: 60,
            tenants: 8,
            hogs: 1,
            workers: 2,
            min_throughput: 1.0,
            ..TenantloadConfig::default()
        });
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.tenantload.v1")
        );
        assert_eq!(
            doc.get("tenant_report")
                .and_then(|t| t.get("schema"))
                .and_then(Json::as_str),
            Some("oi.tenant.v1")
        );
        assert_eq!(
            doc.get("tenant_report")
                .and_then(|t| t.get("reconciled"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(report.ok));
    }

    #[test]
    fn identical_seeds_draw_identical_tenant_mixes() {
        let a = run_tenantload(&small());
        let b = run_tenantload(&small());
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.quota_kills, b.quota_kills);
        assert_eq!(a.completed, b.completed);
    }
}
