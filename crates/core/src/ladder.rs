//! The graceful-degradation ladder: a total, panic-contained compilation
//! strategy.
//!
//! Production drivers cannot afford a pipeline that aborts: one hostile
//! program must cost at most its own precision, never the session. The
//! ladder runs the pipeline at descending tiers until one succeeds:
//!
//! 1. **`guarded-full`** — the full pipeline behind the soundness
//!    firewall's differential oracle (paper-strength precision, checked
//!    empirically).
//! 2. **`reduced-precision`** — the same pipeline with halved contour caps,
//!    a shallower tag path, and a halved tag budget. Coarser analysis
//!    means fewer (but cheaper) inlining decisions.
//! 3. **`inlining-off`** — the baseline build: analysis-driven
//!    devirtualization and cleanups, no object inlining.
//!
//! A tier is abandoned — with a rule-6 `tier-descent` provenance entry and
//! a `pipeline.tier_descend` trace event — when its attempt panics,
//! returns a [`PipelineError`](crate::pipeline::PipelineError), or (with
//! the oracle enabled) leaves
//! divergences that retraction could not repair within the firewall's
//! retraction budget. Resource-budget exhaustion is *not* a descent
//! trigger: the analysis freezes and completes soundly (see
//! [`oi_analysis::try_analyze`]), so the tier's result stays
//! usable and is merely flagged degraded. Should even `inlining-off` fail,
//! the ladder ships the input program verbatim (`identity`) — no input can
//! make [`optimize_with_ladder`] fail.

use crate::firewall::{optimize_guarded, FirewallConfig};
use crate::pipeline::{try_baseline, try_optimize, InlineConfig, Optimized};
use crate::report::{EffectivenessReport, ProvenanceStep};
use oi_ir::Program;
use oi_support::panic::contained;
use oi_support::trace::{self, kv};
use oi_support::Budget;
use std::collections::BTreeSet;

/// The DESIGN §11 rule number recorded on `tier-descent` provenance steps
/// (rules 1–4 are decision rejections, rule 5 is firewall retraction).
pub const TIER_DESCENT_RULE: u8 = 6;

/// One rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Full pipeline behind the differential oracle.
    GuardedFull,
    /// Halved contour caps, shallower tag paths, halved tag budget.
    ReducedPrecision,
    /// Baseline build: devirtualization and cleanups only.
    InliningOff,
}

impl Tier {
    /// Stable kebab-case name used in reports, traces, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Tier::GuardedFull => "guarded-full",
            Tier::ReducedPrecision => "reduced-precision",
            Tier::InliningOff => "inlining-off",
        }
    }

    /// The next tier down, or `None` at the bottom rung.
    pub fn next_lower(self) -> Option<Tier> {
        match self {
            Tier::GuardedFull => Some(Tier::ReducedPrecision),
            Tier::ReducedPrecision => Some(Tier::InliningOff),
            Tier::InliningOff => None,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Ladder configuration.
#[derive(Clone, Copy, Debug)]
pub struct LadderConfig {
    /// Pipeline configuration for the top tier; lower tiers derive coarser
    /// analysis knobs from it (see [`reduced_precision_config`]).
    pub inline: InlineConfig,
    /// Firewall configuration used when [`Self::oracle`] is on.
    pub firewall: FirewallConfig,
    /// Run each inlining tier behind the differential oracle (two extra VM
    /// runs per attempt). Disable for benchmarking paths that validate
    /// elsewhere.
    pub oracle: bool,
    /// The tier to start from (a retry after a panic starts lower).
    pub start: Tier,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            inline: InlineConfig::default(),
            firewall: FirewallConfig::default(),
            oracle: true,
            start: Tier::GuardedFull,
        }
    }
}

/// One recorded tier descent.
#[derive(Clone, Debug)]
pub struct Descent {
    /// Tier that failed.
    pub from: Tier,
    /// Tier descended to (`from == to == InliningOff` marks the identity
    /// fallback).
    pub to: Tier,
    /// Human-readable failure description.
    pub reason: String,
}

/// The ladder's (always-produced) result.
#[derive(Clone, Debug)]
pub struct LadderOutcome {
    /// The program and report of the landing tier. `report.tier` carries
    /// [`Self::tier_name`], `report.degraded` the analysis-budget flag, and
    /// `report.provenance` one rule-6 step per descent.
    pub optimized: Optimized,
    /// The tier the compilation landed on.
    pub tier: Tier,
    /// Every descent taken, in order. Empty on a first-tier success.
    pub descents: Vec<Descent>,
    /// `true` when even the baseline build failed and the input program
    /// was shipped verbatim.
    pub identity_fallback: bool,
}

impl LadderOutcome {
    /// The landing tier's stable name (`"identity"` for the verbatim
    /// fallback below `inlining-off`).
    pub fn tier_name(&self) -> &'static str {
        if self.identity_fallback {
            "identity"
        } else {
            self.tier.name()
        }
    }
}

/// Derives the `reduced-precision` analysis knobs from the top tier's:
/// halved contour caps, one less tag-path segment, halved tag budget (all
/// floored at 1).
pub fn reduced_precision_config(inline: &InlineConfig) -> InlineConfig {
    let mut c = *inline;
    let a = &mut c.analysis;
    a.max_contours_per_method = (a.max_contours_per_method / 2).max(1);
    a.max_ocontours_per_site = (a.max_ocontours_per_site / 2).max(1);
    a.max_tag_path = a.max_tag_path.saturating_sub(1).max(1);
    a.max_tags_per_value = (a.max_tags_per_value / 2).max(1);
    c
}

/// Runs the degradation ladder from `config.start` downwards. Infallible:
/// some tier always lands (the identity fallback ships the input program
/// verbatim in the worst case).
pub fn optimize_with_ladder(
    program: &Program,
    config: &LadderConfig,
    budget: &Budget,
) -> LadderOutcome {
    let mut tier = config.start;
    let mut descents: Vec<Descent> = Vec::new();
    loop {
        match attempt_tier(program, config, tier, budget) {
            Ok(mut optimized) => {
                finish_report(&mut optimized.report, tier.name(), &descents, budget);
                return LadderOutcome {
                    optimized,
                    tier,
                    descents,
                    identity_fallback: false,
                };
            }
            Err(reason) => {
                let to = tier.next_lower();
                trace::counter("pipeline.tier_descents", 1);
                if trace::is_enabled() {
                    trace::event(
                        "pipeline.tier_descend",
                        vec![
                            kv("from", tier.name()),
                            kv("to", to.map_or("identity", Tier::name)),
                            kv("reason", reason.clone()),
                        ],
                    );
                }
                match to {
                    Some(lower) => {
                        descents.push(Descent {
                            from: tier,
                            to: lower,
                            reason,
                        });
                        tier = lower;
                    }
                    None => {
                        // Identity fallback: nothing below the baseline
                        // works, so ship the input unchanged.
                        descents.push(Descent {
                            from: tier,
                            to: Tier::InliningOff,
                            reason,
                        });
                        let mut optimized = Optimized {
                            program: program.clone(),
                            report: EffectivenessReport::default(),
                            passes: 0,
                            decisions: Vec::new(),
                        };
                        finish_report(&mut optimized.report, "identity", &descents, budget);
                        return LadderOutcome {
                            optimized,
                            tier,
                            descents,
                            identity_fallback: true,
                        };
                    }
                }
            }
        }
    }
}

/// Stamps the landing tier, the degradation flag, and per-descent rule-6
/// provenance onto the report.
fn finish_report(
    report: &mut EffectivenessReport,
    tier_name: &str,
    descents: &[Descent],
    budget: &Budget,
) {
    report.tier = tier_name.to_owned();
    report.degraded |= budget.is_exhausted();
    for d in descents {
        report.provenance.push(ProvenanceStep {
            pass: 0,
            field: "<pipeline>".to_owned(),
            inlined: false,
            code: "tier-descent".to_owned(),
            rule: Some(TIER_DESCENT_RULE),
            detail: format!("{} -> {}: {}", d.from, d.to, d.reason),
        });
    }
}

/// One tier attempt, panic-contained. `Err` carries the reason the tier
/// must be abandoned.
fn attempt_tier(
    program: &Program,
    config: &LadderConfig,
    tier: Tier,
    budget: &Budget,
) -> Result<Optimized, String> {
    match tier {
        Tier::InliningOff => match contained(|| try_baseline(program, budget)) {
            Ok(Ok(p)) => Ok(Optimized {
                program: p,
                report: EffectivenessReport::default(),
                passes: 0,
                decisions: Vec::new(),
            }),
            Ok(Err(e)) => Err(format!("pipeline error: {e}")),
            Err(panic_msg) => Err(format!("panic: {panic_msg}")),
        },
        Tier::GuardedFull | Tier::ReducedPrecision => {
            let inline = if tier == Tier::ReducedPrecision {
                reduced_precision_config(&config.inline)
            } else {
                config.inline
            };
            if config.oracle {
                match contained(|| optimize_guarded(program, &inline, &config.firewall, budget)) {
                    Ok(Ok(g)) if g.is_equivalent() => Ok(g.optimized),
                    Ok(Ok(g)) => Err(format!(
                        "oracle rejection unrepaired after {} retraction(s): {}",
                        g.retracted.len(),
                        g.divergences
                            .first()
                            .map_or_else(String::new, ToString::to_string)
                    )),
                    Ok(Err(e)) => Err(format!("pipeline error: {e}")),
                    Err(panic_msg) => Err(format!("panic: {panic_msg}")),
                }
            } else {
                match contained(|| try_optimize(program, &inline, &BTreeSet::new(), budget)) {
                    Ok(Ok(o)) => Ok(o),
                    Ok(Err(e)) => Err(format!("pipeline error: {e}")),
                    Err(panic_msg) => Err(format!("panic: {panic_msg}")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use oi_ir::lower::compile;
    use oi_vm::{run, VmConfig};

    const RECT: &str = "
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
          print KEEP.ll.x;
          print KEEP.ll.y;
          print KEEP.span();
        }";

    #[test]
    fn healthy_program_lands_on_the_top_tier() {
        let p = compile(RECT).unwrap();
        let budget = Budget::unlimited();
        let out = optimize_with_ladder(&p, &LadderConfig::default(), &budget);
        assert_eq!(out.tier, Tier::GuardedFull);
        assert_eq!(out.tier_name(), "guarded-full");
        assert!(out.descents.is_empty());
        assert!(!out.identity_fallback);
        assert_eq!(out.optimized.report.tier, "guarded-full");
        assert!(!out.optimized.report.degraded);
        assert_eq!(out.optimized.report.fields_inlined, 2);
    }

    #[test]
    fn starved_budget_degrades_but_stays_on_tier() {
        let p = compile(RECT).unwrap();
        let budget = Budget::unlimited().with_rounds(1).with_contours(1);
        let out = optimize_with_ladder(&p, &LadderConfig::default(), &budget);
        assert_eq!(out.tier, Tier::GuardedFull, "descents: {:?}", out.descents);
        assert!(out.optimized.report.degraded);
        let opt = run(&out.optimized.program, &VmConfig::default()).unwrap();
        let base = run(&p, &VmConfig::default()).unwrap();
        assert_eq!(base.output, opt.output);
    }

    #[test]
    fn unrepaired_fault_descends_exactly_one_tier_with_provenance() {
        // Repair disabled (max_retractions: 0): the injected layout bug
        // makes the oracle reject the guarded-full build outright. The
        // reduced-precision rebuild re-runs decisions from scratch, so
        // this needs a program where the coarser analysis no longer takes
        // the corruptible decision. Contour-cap sensitivity only shows
        // through call *returns* (instruction-level facts join over all
        // contours either way), hence the factory dispatch: at the full
        // cap (4) every `mk` call keeps its own contour, `H.pt` precisely
        // holds `P`, and inlining it yields the non-contiguous layout the
        // fault corrupts. At the halved cap (2) the last two calls share
        // the widened contour, `mk`'s return joins `{Filler, P}`, rule 1
        // (imprecise content) rejects the field, and the fault has no
        // layout left to corrupt — so the ladder lands one tier down.
        // Reads go through the global: global loads are rewritten to
        // interior references resolved through the layout table at run
        // time, which is where the corruption is observable (direct local
        // chains get their slot offsets baked in at rewrite time).
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
        let p = compile(src).unwrap();
        let mut config = LadderConfig {
            firewall: FirewallConfig {
                max_retractions: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        config.inline.fault = Some(Fault::CompactFirstLayoutSlots);
        config.inline.analysis.max_contours_per_method = 4;
        let budget = Budget::unlimited();
        let out = optimize_with_ladder(&p, &config, &budget);
        assert_eq!(
            out.descents.len(),
            1,
            "exactly one descent: {:?}",
            out.descents
        );
        assert_eq!(out.tier, Tier::ReducedPrecision);
        assert_eq!(out.optimized.report.tier, "reduced-precision");
        let step = out
            .optimized
            .report
            .provenance
            .iter()
            .find(|s| s.code == "tier-descent")
            .expect("descent provenance recorded");
        assert_eq!(step.rule, Some(TIER_DESCENT_RULE));
        assert!(
            step.detail.starts_with("guarded-full -> reduced-precision"),
            "{}",
            step.detail
        );
        // The landing tier's program is oracle-checked and equivalent.
        let opt = run(&out.optimized.program, &VmConfig::default()).unwrap();
        let base = run(&p, &VmConfig::default()).unwrap();
        assert_eq!(base.output, opt.output);
    }

    #[test]
    fn oracle_off_skips_the_vm_runs_but_still_lands() {
        let p = compile(RECT).unwrap();
        let config = LadderConfig {
            oracle: false,
            ..Default::default()
        };
        let budget = Budget::unlimited();
        let out = optimize_with_ladder(&p, &config, &budget);
        assert_eq!(out.tier, Tier::GuardedFull);
        assert_eq!(out.optimized.report.fields_inlined, 2);
    }

    #[test]
    fn reduced_precision_config_floors_at_one() {
        let mut inline = InlineConfig::default();
        inline.analysis.max_contours_per_method = 1;
        inline.analysis.max_ocontours_per_site = 1;
        inline.analysis.max_tag_path = 1;
        inline.analysis.max_tags_per_value = 1;
        let c = reduced_precision_config(&inline);
        assert_eq!(c.analysis.max_contours_per_method, 1);
        assert_eq!(c.analysis.max_ocontours_per_site, 1);
        assert_eq!(c.analysis.max_tag_path, 1);
        assert_eq!(c.analysis.max_tags_per_value, 1);
    }
}
