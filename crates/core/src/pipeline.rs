//! The end-to-end optimization pipelines.
//!
//! [`optimize`] is the paper's full system: analyze (with tags), decide,
//! restructure, rewrite, devirtualize, clean up — iterated so that children
//! whose own layout changed in pass *n* can be inlined into their containers
//! in pass *n + 1* (nested inlining, e.g. an array of rectangles whose
//! points were inlined first).
//!
//! [`baseline`] is "Concert without object inlining": the same analysis
//! framework (without tag sensitivity), devirtualization and cleanups, but
//! no inline allocation. Figure 17 normalizes against it.
//!
//! Each has one fallible form, [`try_optimize`] and [`try_baseline`], that
//! takes a resource [`Budget`]; the panicking forms run unbudgeted.

use crate::decision::{array_decision_key, decide, field_decision_key, InlinePlan};
use crate::report::EffectivenessReport;
use oi_analysis::{try_analyze, AnalysisConfig, AnalysisResult};
use oi_ir::opt::optimize as run_opts;
use oi_ir::{ArrayLayoutKind, Program};
use oi_support::trace::{self, kv};
use oi_support::{Budget, OiError};
use std::collections::BTreeSet;

/// A recoverable pipeline failure: the graceful-degradation path used by
/// the soundness firewall and the fuzz harness instead of panicking.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// The abstract interpretation did not converge.
    Analysis(OiError),
    /// A transformation stage produced IR that fails verification.
    InvalidIr {
        /// Stage that produced the bad program (`"transform"`,
        /// `"finalize"`, `"baseline"`).
        stage: &'static str,
        /// Rendered verifier diagnostics.
        errors: Vec<String>,
        /// Decision keys applied up to (and including) the failing pass —
        /// the candidate set the firewall bisects over.
        decisions: Vec<String>,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Analysis(e) => write!(f, "{e}"),
            PipelineError::InvalidIr { stage, errors, .. } => {
                write!(f, "{stage} produced invalid IR: {}", errors.join("; "))
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Runs `f` under a timed trace span that records the program's
/// instruction count before and after the stage.
fn staged<T>(name: &str, p: &mut Program, f: impl FnOnce(&mut Program) -> T) -> T {
    let mut span = trace::span(name);
    if trace::is_enabled() {
        span.field("instrs_before", p.total_instrs().into());
    }
    let out = f(p);
    if trace::is_enabled() {
        span.field("instrs_after", p.total_instrs().into());
    }
    out
}

/// Maximum transformation passes (nested inlining depth + 1).
const MAX_PASSES: usize = 3;

/// The post-pass cleanup configuration. It has no settings: the cleanup
/// thresholds are constants of [`oi_ir::opt`]. The type and
/// [`InlineConfig::opt`] remain only so callers of
/// `baseline(&program, &config.opt)`, the `perfbench/` benchmark among
/// them, keep compiling.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptConfig;

/// Configuration for the full object-inlining pipeline.
#[derive(Clone, Copy, Debug)]
pub struct InlineConfig {
    /// Inline object fields (§5.2–§5.4).
    pub object_fields: bool,
    /// Inline array elements (§5.3).
    pub array_elements: bool,
    /// Layout for inlined arrays; the paper's OOPACK result uses parallel
    /// ("Fortran style") layout.
    pub array_layout: ArrayLayoutKind,
    /// Verify the aliasing-safety of stores (disable only for ablation).
    pub check_assignments: bool,
    /// Post-pass cleanup configuration (no settings; see [`OptConfig`]).
    pub opt: OptConfig,
    /// Analysis sensitivity knobs.
    pub analysis: AnalysisConfig,
    /// Test-only fault injection (`None` in production); see
    /// [`crate::fault::Fault`]. Pass faults fire inside the pass they
    /// model, so the injected bug lives exactly where a real one would;
    /// layout faults corrupt the finished program.
    pub fault: Option<crate::fault::Fault>,
}

impl Default for InlineConfig {
    fn default() -> Self {
        Self {
            object_fields: true,
            array_elements: true,
            array_layout: ArrayLayoutKind::Interleaved,
            check_assignments: true,
            opt: OptConfig,
            analysis: AnalysisConfig::default(),
            fault: None,
        }
    }
}

/// The result of the object-inlining pipeline.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The transformed, cleaned-up program.
    pub program: Program,
    /// Effectiveness counters (Figure 14).
    pub report: EffectivenessReport,
    /// How many passes performed a transformation.
    pub passes: usize,
    /// Stable keys of every inlining decision that was applied, in
    /// application order — the set the soundness firewall bisects over
    /// when the differential oracle rejects this program.
    pub decisions: Vec<String>,
}

/// Runs the full object-inlining pipeline on a copy of `program`, with no
/// denylist and an unlimited budget.
///
/// # Panics
///
/// Panics if the transformation produces IR that fails verification — a
/// bug in the transformation, not a property of the input. Callers that
/// must survive such bugs (the soundness firewall, the fuzz harness) use
/// [`try_optimize`] instead.
pub fn optimize(program: &Program, config: &InlineConfig) -> Optimized {
    match try_optimize(program, config, &BTreeSet::new(), &Budget::unlimited()) {
        Ok(o) => o,
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking [`optimize`] with a firewall denylist, under a resource
/// [`Budget`] shared by every analysis pass.
///
/// Decisions named in `denied` (see [`field_decision_key`] /
/// [`array_decision_key`]) are withdrawn from every pass and recorded as
/// rule-5 retractions in the report's provenance. Budget exhaustion never
/// fails the pipeline: the analysis freezes and completes with globally
/// widened contours, the result is marked
/// [`EffectivenessReport::degraded`], and a `budget-exhausted` provenance
/// step names the exhausted dimension.
///
/// # Errors
///
/// Returns [`PipelineError`] when a transformation pass produces IR that
/// fails verification (carrying the decision keys applied so far for
/// bisection), or on an internal analysis bug.
pub fn try_optimize(
    program: &Program,
    config: &InlineConfig,
    denied: &BTreeSet<String>,
    budget: &Budget,
) -> Result<Optimized, PipelineError> {
    let mut p = program.clone();
    let mut report = EffectivenessReport::default();
    let (ideal, cxx) = EffectivenessReport::count_annotations(&p);
    report.ideal = ideal;
    report.cxx = cxx;

    let mut passes = 0;
    let mut inlined_fields: BTreeSet<String> = Default::default();
    let mut decisions: Vec<String> = Vec::new();
    let mut first_pass_total = None;
    let mut devirt_faulted = false;
    for pass in 0..MAX_PASSES {
        let _pass_span = trace::span_with("pipeline.pass", vec![kv("pass", pass)]);
        let result = {
            let _s = trace::span("pipeline.analyze");
            try_analyze(&p, &config.analysis, budget).map_err(PipelineError::Analysis)?
        };
        note_degraded(&result, &mut report, pass);
        if first_pass_total.is_none() {
            first_pass_total = Some(crate::decision::object_holding_fields(&p, &result).len());
        }
        let mut plan: InlinePlan = {
            let _s = trace::span("pipeline.decide");
            decide(&p, &result, config, denied)
        };
        if trace::is_enabled() {
            trace::event(
                "pipeline.plan",
                vec![
                    kv("pass", pass),
                    kv("fields_to_inline", plan.entries.len()),
                    kv("array_sites", plan.array_sites.len()),
                    kv("rejected", plan.rejected.len()),
                ],
            );
        }
        trace::counter("pipeline.fields_planned", plan.entries.len() as i64);
        trace::counter("pipeline.fields_rejected", plan.rejected.len() as i64);
        // Devirtualize with the same analysis (indices are preserved by
        // in-place replacement, so the plan's instruction facts stay valid).
        staged("pipeline.devirt", &mut p, |p| {
            crate::devirt::devirtualize(p, &result)
        });
        // Stop on an empty plan, or on the last pass when the plan only
        // revisits array sites an earlier pass already inlined.
        let only_pre_existing =
            plan.entries.is_empty() && plan.array_sites.values().all(|a| a.pre_existing);
        if plan.is_empty() || (only_pre_existing && pass + 1 == MAX_PASSES) {
            record_rejections(&p, &plan, &mut report, pass);
            staged("pipeline.cleanup", &mut p, run_opts);
            break;
        }
        for e in &plan.entries {
            let key = field_decision_key(&p, e.declaring, e.field);
            if inlined_fields.insert(key.clone()) {
                decisions.push(key);
            }
        }
        for (site, a) in &plan.array_sites {
            if !a.pre_existing {
                decisions.push(array_decision_key(*site));
            }
        }
        report.array_sites_inlined += plan
            .array_sites
            .values()
            .filter(|a| !a.pre_existing)
            .count();
        record_outcomes(&p, &plan, &mut report, pass);
        staged("pipeline.restructure", &mut p, |p| {
            crate::restructure::apply(p, &mut plan)
        });
        staged("pipeline.rewrite", &mut p, |p| {
            crate::rewrite::apply(p, &result, &plan, config.fault)
        });
        // The devirt fault fires here — after the pass produced static
        // calls (devirtualized sends and in-place constructor calls),
        // before cleanup can inline them away — and only on a pass that
        // inlines something, modeling a devirt bug triggered by
        // inline-exposed monomorphism (denying every decision therefore
        // heals it).
        if matches!(config.fault, Some(crate::fault::Fault::WrongDevirtTarget))
            && !devirt_faulted
            && !plan.entries.is_empty()
        {
            devirt_faulted = crate::fault::wrong_devirt_target(&mut p);
        }
        {
            let _s = trace::span("pipeline.verify");
            verified(&p, "transform", &decisions)?;
        }
        staged("pipeline.cleanup", &mut p, run_opts);
        passes = pass + 1;
    }
    // A final devirtualization round: inlining exposes monomorphic sends on
    // interior receivers.
    {
        let _s = trace::span("pipeline.finalize");
        let result = {
            let _s = trace::span("pipeline.analyze");
            try_analyze(&p, &config.analysis, budget).map_err(PipelineError::Analysis)?
        };
        note_degraded(&result, &mut report, passes);
        staged("pipeline.devirt", &mut p, |p| {
            crate::devirt::devirtualize(p, &result)
        });
        staged("pipeline.cleanup", &mut p, run_opts);
        let _v = trace::span("pipeline.verify");
        verified(&p, "finalize", &decisions)?;
    }
    crate::fault::corrupt_layouts(&mut p, config.fault);

    report.total_object_fields = first_pass_total.unwrap_or(0);
    report.fields_inlined = inlined_fields.len();
    Ok(Optimized {
        program: p,
        report,
        passes,
        decisions,
    })
}

/// Marks the report degraded (once) when an analysis pass exhausted its
/// budget, recording the dimension as an explainable provenance step.
fn note_degraded(result: &AnalysisResult, report: &mut EffectivenessReport, pass: usize) {
    if !result.degraded || report.degraded {
        return;
    }
    report.degraded = true;
    let dim = result.exhausted.map_or("rounds", |d| d.name());
    report.provenance.push(crate::report::ProvenanceStep {
        pass,
        field: "<pipeline>".to_owned(),
        inlined: false,
        code: "budget-exhausted".to_owned(),
        rule: None,
        detail: format!("analysis budget exhausted ({dim}); contours globally widened"),
    });
}

/// Checks `p` against the IR verifier, turning failures into a
/// [`PipelineError::InvalidIr`] carrying the decisions applied so far.
fn verified(p: &Program, stage: &'static str, decisions: &[String]) -> Result<(), PipelineError> {
    if let Err(errors) = oi_ir::verify::verify(p) {
        return Err(PipelineError::InvalidIr {
            stage,
            errors: errors.into_iter().map(|e| e.message).collect(),
            decisions: decisions.to_vec(),
        });
    }
    Ok(())
}

/// The comparison configuration: identical analysis framework and cleanups,
/// no object inlining, unlimited budget. The [`OptConfig`] has no
/// settings.
///
/// # Panics
///
/// Panics if the pipeline produces IR that fails verification; see
/// [`try_baseline`] for the non-panicking form.
pub fn baseline(program: &Program, _opt: &OptConfig) -> Program {
    match try_baseline(program, &Budget::unlimited()) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking [`baseline`] under a resource [`Budget`]; exhaustion
/// degrades the analysis (coarser devirtualization) instead of failing.
///
/// # Errors
///
/// Returns [`PipelineError`] when the cleaned-up program fails
/// verification or on an internal analysis bug.
pub fn try_baseline(program: &Program, budget: &Budget) -> Result<Program, PipelineError> {
    let mut p = program.clone();
    for round in 0..2usize {
        let _s = trace::span_with("pipeline.baseline_round", vec![kv("round", round)]);
        let result = {
            let _s = trace::span("pipeline.analyze");
            try_analyze(&p, &AnalysisConfig::without_tags(), budget)
                .map_err(PipelineError::Analysis)?
        };
        staged("pipeline.devirt", &mut p, |p| {
            crate::devirt::devirtualize(p, &result)
        });
        staged("pipeline.cleanup", &mut p, run_opts);
    }
    verified(&p, "baseline", &[])?;
    Ok(p)
}

fn record_outcomes(p: &Program, plan: &InlinePlan, report: &mut EffectivenessReport, pass: usize) {
    for e in &plan.entries {
        let name = format!(
            "{}.{}",
            p.interner.resolve(p.classes[e.declaring].name),
            p.interner.resolve(e.field)
        );
        report.provenance.push(crate::report::ProvenanceStep {
            pass,
            field: name.clone(),
            inlined: true,
            code: "inlined".to_owned(),
            rule: None,
            detail: format!(
                "child {} inlined into {} container(s)",
                p.interner.resolve(p.classes[e.child].name),
                e.containers.len()
            ),
        });
        report.outcomes.push(crate::report::FieldOutcome {
            name,
            inlined: true,
            reason: String::new(),
            code: String::new(),
            rule: None,
            detail: String::new(),
        });
    }
    record_rejections(p, plan, report, pass);
}

fn record_rejections(
    p: &Program,
    plan: &InlinePlan,
    report: &mut EffectivenessReport,
    pass: usize,
) {
    let _ = p;
    for r in &plan.rejected {
        report.provenance.push(crate::report::ProvenanceStep {
            pass,
            field: r.field.clone(),
            inlined: false,
            code: r.code.code().to_owned(),
            rule: Some(r.code.rule()),
            detail: r.detail.clone(),
        });
        if report.outcomes.iter().any(|o| o.name == r.field) {
            continue;
        }
        report.outcomes.push(crate::report::FieldOutcome {
            name: r.field.clone(),
            inlined: false,
            reason: r.code.summary().to_owned(),
            code: r.code.code().to_owned(),
            rule: Some(r.code.rule()),
            detail: r.detail.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_ir::lower::compile;
    use oi_vm::{run, VmConfig};

    const RECT_PROGRAM: &str = "
        class Point { field x; field y;
          method init(a, b) { self.x = a; self.y = b; }
          method area(p) { return abs2(self.x - p.x) * abs2(self.y - p.y); }
        }
        class Rectangle { field lower_left @inline_ideal @inline_cxx; field upper_right @inline_ideal @inline_cxx;
          method init(a, b) { self.lower_left = new Point(a, a); self.upper_right = new Point(b, b); }
          method area() { return self.lower_left.area(self.upper_right); }
        }
        fn abs2(v) { if (v < 0.0) { return 0.0 - v; } return v; }
        fn main() {
          var r = new Rectangle(1.0, 4.0);
          print r.area();
        }";

    #[test]
    fn optimize_preserves_output_and_reduces_memory_traffic() {
        let p = compile(RECT_PROGRAM).unwrap();
        let base = baseline(&p, &OptConfig);
        let opt = optimize(&p, &InlineConfig::default());
        let base_run = run(&base, &VmConfig::default()).unwrap();
        let opt_run = run(&opt.program, &VmConfig::default()).unwrap();
        assert_eq!(base_run.output, opt_run.output);
        assert_eq!(opt.report.fields_inlined, 2, "{:?}", opt.report.outcomes);
        assert!(
            opt_run.metrics.allocations < base_run.metrics.allocations,
            "inlining removes the Point allocations: {} vs {}",
            opt_run.metrics.allocations,
            base_run.metrics.allocations
        );
        assert!(opt_run.metrics.cycles < base_run.metrics.cycles);
    }

    #[test]
    fn nested_inlining_happens_across_passes() {
        // The global store keeps the container observable, so the nesting
        // cannot be scalar-replaced away and must inline across passes.
        let p = compile(
            "global KEEP;
             class Point { field x; method init(a) { self.x = a; } }
             class Rect { field ll; method init(a) { self.ll = new Point(a); } }
             class Boxy { field r; method init(a) { self.r = new Rect(a); } }
             fn main() {
               var b = new Boxy(7);
               KEEP = b;
               print b.r.ll.x;
               print KEEP.r.ll.x;
             }",
        )
        .unwrap();
        let opt = optimize(&p, &InlineConfig::default());
        assert!(
            opt.passes >= 2,
            "nested inlining takes two passes, got {}",
            opt.passes
        );
        assert_eq!(opt.report.fields_inlined, 2, "{:?}", opt.report.outcomes);
        let out = run(&opt.program, &VmConfig::default()).unwrap();
        assert_eq!(out.output, "7\n7\n");
    }

    #[test]
    fn baseline_and_optimized_agree_on_cons_lists() {
        let src = "
            class Cons { field head; field tail;
              method init(h, t) { self.head = h; self.tail = t; }
            }
            fn sum(l) { var t = 0; var c = l;
              while (!(c === nil)) { t = t + c.head; c = c.tail; }
              return t; }
            fn main() {
              var l = nil;
              var i = 0;
              while (i < 100) { l = new Cons(i, l); i = i + 1; }
              print sum(l);
            }";
        let p = compile(src).unwrap();
        let base = baseline(&p, &OptConfig);
        let opt = optimize(&p, &InlineConfig::default());
        assert_eq!(
            run(&base, &VmConfig::default()).unwrap().output,
            run(&opt.program, &VmConfig::default()).unwrap().output
        );
    }

    #[test]
    fn report_counts_annotations() {
        let p = compile(RECT_PROGRAM).unwrap();
        let opt = optimize(&p, &InlineConfig::default());
        assert_eq!(opt.report.ideal, 2);
        assert_eq!(opt.report.cxx, 2);
        assert!(opt.report.total_object_fields >= 2);
    }

    #[test]
    fn disabling_object_fields_inlines_nothing() {
        let p = compile(RECT_PROGRAM).unwrap();
        let config = InlineConfig {
            object_fields: false,
            array_elements: false,
            ..Default::default()
        };
        let opt = optimize(&p, &config);
        assert_eq!(opt.report.fields_inlined, 0);
        assert_eq!(opt.report.array_sites_inlined, 0);
    }
}
