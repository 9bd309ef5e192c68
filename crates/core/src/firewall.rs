//! The soundness firewall: a differential oracle plus graceful
//! per-decision retraction.
//!
//! Dolby's transformation is only legal when use specialization (§4.1) and
//! assignment specialization (§4.2) jointly prove that inlining cannot
//! change observable aliasing. This reproduction has no mechanized proof of
//! those analyses, so the firewall checks each compiled program
//! *empirically*: it runs the baseline and the inlined build under the
//! instrumented VM and compares observable behavior — printed output,
//! termination status, and a layout-independent allocation census. When the
//! builds disagree (or the transformed IR fails verification), it bisects
//! over the applied inlining decisions, retracts the culprit with rule-5
//! ([`ReasonCode::Retracted`]) provenance, re-runs the transformation, and
//! returns a correct program instead of aborting — precision degrades,
//! soundness does not.
//!
//! [`ReasonCode::Retracted`]: crate::decision::ReasonCode::Retracted

use crate::pipeline::{try_baseline, try_optimize, InlineConfig, Optimized, PipelineError};
use oi_ir::Program;
use oi_support::trace::{self, kv};
use oi_support::Budget;
use oi_vm::{run, CheckLevel, RunResult, VmConfig, VmError};
use std::collections::BTreeSet;

/// Firewall configuration.
#[derive(Clone, Copy, Debug)]
pub struct FirewallConfig {
    /// VM limits for the oracle runs. Keep the budgets tight when driving
    /// the firewall from a fuzzer.
    pub vm: VmConfig,
    /// Upper bound on retraction rounds (each round retracts at least one
    /// decision, so this also bounds pipeline re-runs). `0` disables
    /// repair entirely: the oracle still runs, but divergences surface in
    /// [`Guarded::divergences`] instead of being bisected away. That is
    /// how tests reach the degradation ladder's "unrepaired rejection →
    /// descend a tier" path.
    pub max_retractions: usize,
    /// Sanitizer level for the *inlined* oracle run. The baseline run is
    /// never checked (its heap has no inline regions to validate). Any
    /// sanitizer finding is an oracle rejection ([`Divergence::Sanitizer`])
    /// and is bisected/retracted like an output mismatch, so bugs that
    /// corrupt inline state without changing printed output cannot escape.
    pub checked: CheckLevel,
}

impl Default for FirewallConfig {
    fn default() -> Self {
        Self {
            vm: VmConfig::default(),
            max_retractions: 32,
            checked: CheckLevel::Full,
        }
    }
}

/// One observable disagreement between the baseline and inlined builds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// Printed output differs.
    Output {
        /// What the baseline printed.
        baseline: String,
        /// What the inlined build printed.
        optimized: String,
    },
    /// Termination status differs (ok vs. error, or different errors).
    Status {
        /// Baseline status description.
        baseline: String,
        /// Inlined-build status description.
        optimized: String,
    },
    /// The inlined build allocated *more* objects in total than the
    /// baseline — inlining and scalar replacement only ever merge or
    /// remove allocations, so growth is layout confusion, not
    /// optimization. (The check is deliberately total, not per-class:
    /// inlining legally *shifts* allocations between classes — an inlined
    /// child whose interior escapes can materialize a container the
    /// baseline scalar-replaced.)
    Census {
        /// Always `"<total>"` — kept as a field for schema stability.
        class: String,
        /// Baseline total allocation count.
        baseline: u64,
        /// Inlined-build total allocation count.
        optimized: u64,
    },
    /// The checked VM reported sanitizer findings in the inlined run —
    /// an inline-object invariant was violated even if the printed output
    /// happened to match.
    Sanitizer {
        /// Total findings (including those past the report cap).
        count: u64,
        /// Rendered first finding, for diagnostics.
        first: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Output {
                baseline,
                optimized,
            } => write!(
                f,
                "output mismatch: baseline {:?} vs inlined {:?}",
                truncated(baseline),
                truncated(optimized)
            ),
            Divergence::Status {
                baseline,
                optimized,
            } => write!(
                f,
                "status mismatch: baseline {baseline} vs inlined {optimized}"
            ),
            Divergence::Census {
                class,
                baseline,
                optimized,
            } => write!(
                f,
                "allocation census mismatch for {class}: baseline {baseline} vs inlined {optimized}"
            ),
            Divergence::Sanitizer { count, first } => {
                write!(f, "sanitizer reported {count} finding(s): {first}")
            }
        }
    }
}

fn truncated(s: &str) -> String {
    const LIMIT: usize = 120;
    if s.len() <= LIMIT {
        s.to_owned()
    } else {
        let cut = (0..=LIMIT)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

/// The firewall's verdict on one program.
#[derive(Clone, Debug)]
pub struct Guarded {
    /// The (possibly degraded) optimized build. When every decision had to
    /// be retracted this is effectively the baseline transformation.
    pub optimized: Optimized,
    /// The baseline build the oracle compared against.
    pub baseline_program: Program,
    /// The baseline run the oracle compared against.
    pub baseline_run: Result<RunResult, VmError>,
    /// Decision keys retracted, in retraction order. Empty on a healthy
    /// compile.
    pub retracted: Vec<String>,
    /// Divergences still observable in the returned program. Non-empty
    /// only when retraction could not repair the disagreement (a bug
    /// outside the decision set, e.g. in devirtualization) — the caller
    /// must fall back to the baseline program.
    pub divergences: Vec<Divergence>,
    /// What the oracle saw on the *first* probe, before any retraction —
    /// how the bug announced itself (a verification failure is synthesized
    /// into a status divergence). Empty on a healthy compile. The chaos
    /// driver classifies detections from this: the repaired program's
    /// [`Guarded::divergences`] are empty precisely when retraction
    /// succeeded.
    pub initial_divergences: Vec<Divergence>,
}

impl Guarded {
    /// `true` when the returned optimized program is observably equivalent
    /// to the baseline.
    pub fn is_equivalent(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Compares two runs and lists every observable divergence.
///
/// Runs that end in a resource limit (instruction budget, stack depth,
/// heap words) are indeterminate: a legal transformation shifts resource
/// use, so hitting a budget on either side proves nothing and yields no
/// divergence.
pub fn compare_runs(
    base: &Result<RunResult, VmError>,
    opt: &Result<RunResult, VmError>,
) -> Vec<Divergence> {
    if matches!(base, Err(e) if e.is_resource_limit())
        || matches!(opt, Err(e) if e.is_resource_limit())
    {
        return Vec::new();
    }
    match (base, opt) {
        (Ok(b), Ok(o)) => {
            let mut out = Vec::new();
            if let Some(san) = &o.sanitizer {
                if !san.is_clean() {
                    out.push(Divergence::Sanitizer {
                        count: san.total_findings,
                        first: san
                            .findings
                            .first()
                            .map(|f| f.to_string())
                            .unwrap_or_default(),
                    });
                }
            }
            if b.output != o.output {
                out.push(Divergence::Output {
                    baseline: b.output.clone(),
                    optimized: o.output.clone(),
                });
            }
            out.extend(compare_census(b, o));
            out
        }
        (Err(b), Err(o)) => {
            if b == o {
                Vec::new()
            } else {
                vec![Divergence::Status {
                    baseline: format!("error: {b}"),
                    optimized: format!("error: {o}"),
                }]
            }
        }
        (Ok(_), Err(o)) => vec![Divergence::Status {
            baseline: "ok".to_owned(),
            optimized: format!("error: {o}"),
        }],
        (Err(b), Ok(_)) => vec![Divergence::Status {
            baseline: format!("error: {b}"),
            optimized: "ok".to_owned(),
        }],
    }
}

/// Layout-independent census check: the inlined build may never allocate
/// *more* objects in total than the baseline. Inline allocation and
/// scalar replacement merge or remove allocations; nothing adds them.
/// The comparison is total rather than per-class because inlining shifts
/// allocations between classes legally (see [`Divergence::Census`]).
fn compare_census(base: &RunResult, opt: &RunResult) -> Vec<Divergence> {
    let total = |r: &RunResult| r.allocation_census.iter().map(|(_, n)| *n).sum::<u64>();
    let (b, o) = (total(base), total(opt));
    if o > b {
        vec![Divergence::Census {
            class: "<total>".to_owned(),
            baseline: b,
            optimized: o,
        }]
    } else {
        Vec::new()
    }
}

/// Applied decisions of a build that are still eligible for retraction.
fn candidates(opt: &Optimized, denied: &BTreeSet<String>) -> Vec<String> {
    opt.decisions
        .iter()
        .filter(|d| !denied.contains(*d))
        .cloned()
        .collect()
}

/// Runs the full pipeline behind the differential oracle.
///
/// On a healthy compile this is `baseline` + `optimize` + two VM runs. On
/// a divergence (or an IR verification failure in the transformed build),
/// the firewall bisects the applied decision set to isolate a culprit,
/// permanently denies it, and rebuilds, repeating until the oracle passes
/// or the decision set is exhausted.
///
/// `budget` is shared by every analysis pass, including the rebuilds
/// bisection performs. Analysis exhaustion degrades precision (the result
/// is marked degraded) rather than failing, so the retraction loop keeps
/// making progress on its remaining budget.
///
/// # Errors
///
/// Returns [`PipelineError`] only for failures retraction cannot reach: a
/// diverging analysis, an invalid *baseline* build, or a transformed build
/// that stays invalid with every decision denied.
pub fn optimize_guarded(
    program: &Program,
    config: &InlineConfig,
    fw: &FirewallConfig,
    budget: &Budget,
) -> Result<Guarded, PipelineError> {
    let baseline_program = try_baseline(program, budget)?;
    let baseline_run = run(&baseline_program, &fw.vm);

    let mut denied: BTreeSet<String> = BTreeSet::new();
    let mut retracted: Vec<String> = Vec::new();

    // The inlined probe runs under the configured sanitizer level; the
    // baseline stays unchecked (nothing inline to validate, and keeping it
    // plain preserves its metrics for callers that report them).
    let checked_vm = VmConfig {
        checked: fw.checked,
        ..fw.vm
    };

    // `healthy` = builds, verifies, and the oracle finds no divergence.
    // Returning the outcome lets the top loop reuse the probe's work.
    let probe = |denied: &BTreeSet<String>| -> Result<(Optimized, Vec<Divergence>), PipelineError> {
        let opt = try_optimize(program, config, denied, budget)?;
        let opt_run = run(&opt.program, &checked_vm);
        let divs = compare_runs(&baseline_run, &opt_run);
        Ok((opt, divs))
    };

    // Final (optimized build, remaining divergences) pair for the Guarded
    // result; `None` means the retraction budget ran out mid-bisection.
    let mut settled: Option<(Optimized, Vec<Divergence>)> = None;
    // First-probe divergences, before any retraction (for provenance and
    // the chaos detection table).
    let mut initial: Option<Vec<Divergence>> = None;
    for round in 0..fw.max_retractions {
        // Candidate set for retraction this round: from the build itself
        // when it runs, or from the InvalidIr error when it does not.
        let all: Vec<String> = match probe(&denied) {
            Ok((opt, divs)) => {
                if initial.is_none() {
                    initial = Some(divs.clone());
                }
                if divs.is_empty() {
                    settled = Some((opt, Vec::new()));
                    break;
                }
                let all = candidates(&opt, &denied);
                if all.is_empty() {
                    // Divergence with zero retractable decisions: the bug is
                    // outside the decision set — surface it, don't loop.
                    settled = Some((opt, divs));
                    break;
                }
                all
            }
            Err(PipelineError::InvalidIr {
                stage,
                errors,
                decisions,
            }) => {
                if initial.is_none() {
                    initial = Some(vec![Divergence::Status {
                        baseline: "ok".to_owned(),
                        optimized: format!("invalid IR at {stage}: {}", errors.join("; ")),
                    }]);
                }
                let all: Vec<String> = decisions
                    .iter()
                    .filter(|d| !denied.contains(*d))
                    .cloned()
                    .collect();
                if all.is_empty() {
                    // Even the fully-denied build fails verification —
                    // nothing left to retract; propagate the error.
                    return Err(PipelineError::InvalidIr {
                        stage,
                        errors,
                        decisions,
                    });
                }
                all
            }
            Err(e) => return Err(e),
        };
        let mut healthy = |extra: &[String]| -> bool {
            let mut trial = denied.clone();
            trial.extend(extra.iter().cloned());
            matches!(probe(&trial), Ok((_, divs)) if divs.is_empty())
        };
        // Precondition for the split search: denying every candidate heals.
        let culprits: Vec<String> = if healthy(&all) {
            isolate(&mut healthy, all)
        } else {
            // No subset of decisions explains the divergence (the fault is
            // elsewhere, e.g. devirt). Deny everything; the next round
            // returns the maximally-degraded program with its divergences.
            all
        };
        for c in &culprits {
            trace::event(
                "firewall.retract",
                vec![kv("decision", c.clone()), kv("round", round)],
            );
        }
        denied.extend(culprits.iter().cloned());
        retracted.extend(culprits);
    }
    let (opt, divergences) = match settled {
        Some(pair) => pair,
        // Retraction budget exhausted (or zero); return whatever the final
        // denylist produces, divergences and all.
        None => {
            let (opt, divs) = probe(&denied)?;
            if initial.is_none() {
                initial = Some(divs.clone());
            }
            (opt, divs)
        }
    };
    let mut guarded = Guarded {
        optimized: opt,
        baseline_program,
        baseline_run,
        retracted,
        divergences,
        initial_divergences: initial.unwrap_or_default(),
    };
    guarded.optimized.report.retractions = guarded.retracted.len();
    Ok(guarded)
}

/// Greedy delta-debugging over the decision set: repeatedly halve,
/// recursing into whichever half heals the program alone. When neither
/// half alone heals (multiple interacting culprits), the whole current set
/// is retracted — coarse, but sound and terminating.
fn isolate(healthy: &mut impl FnMut(&[String]) -> bool, mut set: Vec<String>) -> Vec<String> {
    while set.len() > 1 {
        let mid = set.len() / 2;
        let (a, b) = (set[..mid].to_vec(), set[mid..].to_vec());
        if healthy(&a) {
            set = a;
        } else if healthy(&b) {
            set = b;
        } else {
            return set;
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use oi_ir::lower::compile;

    // The global store keeps the Rect on the heap (otherwise scalar
    // replacement erases every allocation and the layout table is never
    // consulted, making layout faults unobservable).
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

    fn guarded(p: &Program, inline: &InlineConfig, fw: &FirewallConfig) -> Guarded {
        optimize_guarded(p, inline, fw, &Budget::unlimited()).unwrap()
    }

    fn faulted(fault: Fault) -> InlineConfig {
        InlineConfig {
            fault: Some(fault),
            ..Default::default()
        }
    }

    #[test]
    fn healthy_program_passes_without_retraction() {
        let p = compile(RECT).unwrap();
        let g = guarded(&p, &InlineConfig::default(), &FirewallConfig::default());
        assert!(g.is_equivalent());
        assert!(g.retracted.is_empty());
        assert_eq!(g.optimized.report.retractions, 0);
        assert_eq!(g.optimized.report.fields_inlined, 2);
    }

    #[test]
    fn injected_layout_bug_is_caught_and_retracted() {
        let p = compile(RECT).unwrap();
        let g = guarded(
            &p,
            &faulted(Fault::CompactFirstLayoutSlots),
            &FirewallConfig::default(),
        );
        // The oracle caught the miscompilation and the pipeline degraded
        // instead of aborting: the surviving program is equivalent.
        assert!(g.is_equivalent(), "divergences: {:?}", g.divergences);
        assert!(
            !g.retracted.is_empty(),
            "the culprit decision must be retracted"
        );
        assert_eq!(g.optimized.report.retractions, g.retracted.len());
        // The final build really runs like the baseline.
        let base = g.baseline_run.as_ref().unwrap();
        let opt = run(&g.optimized.program, &VmConfig::default()).unwrap();
        assert_eq!(base.output, opt.output);
        // Rule-5 provenance names the retracted decision.
        assert!(
            g.optimized
                .report
                .provenance
                .iter()
                .any(|s| s.code == "retracted" && s.rule == Some(5)),
            "{:?}",
            g.optimized.report.provenance
        );
    }

    #[test]
    fn retraction_is_minimal_for_a_single_culprit() {
        // Two independently inlinable fields; the fault corrupts exactly
        // one layout, so bisection must retract one decision and keep the
        // other inlined.
        let p = compile(RECT).unwrap();
        let g = guarded(
            &p,
            &faulted(Fault::CompactFirstLayoutSlots),
            &FirewallConfig::default(),
        );
        assert_eq!(g.retracted.len(), 1, "retracted: {:?}", g.retracted);
        assert_eq!(
            g.optimized.report.fields_inlined, 1,
            "the innocent field stays inlined: {:?}",
            g.optimized.report.outcomes
        );
    }

    #[test]
    fn starved_budget_still_yields_an_oracle_equivalent_program() {
        // One round and one contour: the analysis freezes almost at once
        // and completes with globally widened contours. The resulting
        // program must still run and match the baseline observably.
        let p = compile(RECT).unwrap();
        let budget = Budget::unlimited().with_rounds(1).with_contours(1);
        let g = optimize_guarded(
            &p,
            &InlineConfig::default(),
            &FirewallConfig::default(),
            &budget,
        )
        .unwrap();
        assert!(g.is_equivalent(), "divergences: {:?}", g.divergences);
        assert!(g.retracted.is_empty());
        assert!(g.optimized.report.degraded);
        assert!(
            g.optimized
                .report
                .provenance
                .iter()
                .any(|s| s.code == "budget-exhausted"),
            "{:?}",
            g.optimized.report.provenance
        );
        let opt = run(&g.optimized.program, &VmConfig::default()).unwrap();
        assert_eq!(g.baseline_run.as_ref().unwrap().output, opt.output);
    }

    #[test]
    fn zero_retraction_budget_surfaces_divergences() {
        let p = compile(RECT).unwrap();
        let fw = FirewallConfig {
            max_retractions: 0,
            ..Default::default()
        };
        let g = guarded(&p, &faulted(Fault::CompactFirstLayoutSlots), &fw);
        assert!(
            !g.is_equivalent(),
            "repair is disabled; the fault must show"
        );
        assert!(g.retracted.is_empty());
    }

    #[test]
    fn oracle_accepts_matching_runtime_errors() {
        // Both builds fail the same way at runtime; that is equivalence.
        let p = compile("fn main() { var x = nil; print x.f; }").unwrap();
        let g = guarded(&p, &InlineConfig::default(), &FirewallConfig::default());
        assert!(g.is_equivalent());
        assert!(g.baseline_run.is_err());
    }

    #[test]
    fn census_regression_is_a_divergence() {
        let mk = |census: Vec<(&str, u64)>| RunResult {
            output: String::new(),
            metrics: Default::default(),
            allocation_census: census.into_iter().map(|(c, n)| (c.to_owned(), n)).collect(),
            heap_census: Default::default(),
            profile: None,
            sanitizer: None,
        };
        let base = Ok(mk(vec![("Point", 2), ("<array>", 1)]));
        // Fewer or shifted allocations: not a divergence (inlining merges
        // allocations and can move them between classes).
        let opt = Ok(mk(vec![("Rect", 1), ("<array-inline>", 1)]));
        assert_eq!(compare_runs(&base, &opt), vec![]);
        // More allocations in total than the baseline: layout confusion.
        let opt = Ok(mk(vec![("Point", 4)]));
        let divs = compare_runs(&base, &opt);
        assert!(
            matches!(&divs[..], [Divergence::Census { class, baseline: 3, optimized: 4 }] if class == "<total>"),
            "{divs:?}"
        );
    }

    #[test]
    fn resource_limits_are_indeterminate() {
        let base = Err(VmError::InstructionLimit);
        let opt = Ok(RunResult {
            output: "1\n".into(),
            metrics: Default::default(),
            allocation_census: vec![],
            heap_census: Default::default(),
            profile: None,
            sanitizer: None,
        });
        assert_eq!(compare_runs(&base, &opt), vec![]);
    }

    // A Rect whose children arrive as constructor *arguments*: the stores
    // take the §5.4 pass-by-value copy path (no in-place construction),
    // which is where `Fault::DropAssignCopy` bites. Every child field is
    // read back so a dropped copy is observable.
    const COPY: &str = "
        global KEEP;
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
        }";

    /// Injects `fault`, asserts the combined sanitizer+oracle net catches
    /// it on the first probe, that retraction repairs the program, and
    /// that the repaired build runs baseline-equal. Returns the verdict
    /// for fault-specific assertions.
    fn catch_and_repair(src: &str, fault: Fault) -> Guarded {
        let p = compile(src).unwrap();
        let g = guarded(&p, &faulted(fault), &FirewallConfig::default());
        assert!(
            !g.initial_divergences.is_empty(),
            "{fault:?} escaped the oracle entirely"
        );
        assert!(
            g.is_equivalent(),
            "{fault:?} not repaired: {:?}",
            g.divergences
        );
        assert!(!g.retracted.is_empty(), "{fault:?}: no culprit retracted");
        let base = g.baseline_run.as_ref().unwrap();
        let opt = run(&g.optimized.program, &VmConfig::default()).unwrap();
        assert_eq!(
            base.output, opt.output,
            "{fault:?}: repair not baseline-equal"
        );
        g
    }

    #[test]
    fn skip_use_redirect_fault_is_caught_and_repaired() {
        // The stale load names a field restructuring removed, so the
        // faulted build dies at runtime: a status divergence.
        let g = catch_and_repair(RECT, Fault::SkipUseRedirect);
        assert!(
            g.initial_divergences
                .iter()
                .any(|d| matches!(d, Divergence::Status { .. })),
            "{:?}",
            g.initial_divergences
        );
    }

    #[test]
    fn off_by_one_slot_fault_is_caught_by_the_sanitizer() {
        // The shifted slot stays inside the container, so the canary
        // check — not a crash — is what notices the wrong offset.
        let g = catch_and_repair(RECT, Fault::OffByOneSlotRewrite);
        assert!(
            g.initial_divergences
                .iter()
                .any(|d| matches!(d, Divergence::Sanitizer { .. })),
            "expected a sanitizer finding, got {:?}",
            g.initial_divergences
        );
    }

    #[test]
    fn drop_assign_copy_fault_is_caught_by_poison_tracking() {
        // The uncopied slot reads back as nil, which diverges — but the
        // sanitizer additionally flags the read of a never-initialized
        // inline slot as poison, which would hold even if the output
        // happened to match.
        let g = catch_and_repair(COPY, Fault::DropAssignCopy);
        assert!(
            g.initial_divergences
                .iter()
                .any(|d| matches!(d, Divergence::Sanitizer { .. })),
            "expected a poison finding, got {:?}",
            g.initial_divergences
        );
    }

    // Two classes answering the same selector: the shape where a wrong
    // devirtualization target is expressible (retargeting `A::get` to
    // `B::get` reads a field the receiver's class does not have).
    const SIBLINGS: &str = "
        global KEEP;
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
        }";

    #[test]
    fn wrong_devirt_target_fault_is_caught_and_repaired() {
        catch_and_repair(SIBLINGS, Fault::WrongDevirtTarget);
    }

    #[test]
    fn checked_probe_finds_no_fault_in_healthy_compiles() {
        // The default firewall now probes under Full checking; a healthy
        // compile of both fixtures must stay finding-free.
        for src in [RECT, COPY] {
            let p = compile(src).unwrap();
            let g = guarded(&p, &InlineConfig::default(), &FirewallConfig::default());
            assert!(g.is_equivalent(), "{:?}", g.divergences);
            assert!(
                g.initial_divergences.is_empty(),
                "{:?}",
                g.initial_divergences
            );
            assert!(g.retracted.is_empty());
        }
    }

    #[test]
    fn resource_limits_in_checked_mode_stay_indeterminate() {
        // Starve the oracle runs of instructions under Full checking: both
        // builds hit the limit, the oracle calls it indeterminate, and no
        // spurious sanitizer finding surfaces as a divergence.
        let p = compile(RECT).unwrap();
        let fw = FirewallConfig {
            vm: VmConfig {
                max_instructions: 10,
                ..VmConfig::default()
            },
            ..Default::default()
        };
        let g = guarded(&p, &InlineConfig::default(), &fw);
        assert!(matches!(g.baseline_run, Err(VmError::InstructionLimit)));
        assert!(g.is_equivalent(), "{:?}", g.divergences);
        assert!(g.initial_divergences.is_empty());
        assert!(g.retracted.is_empty());
    }

    #[test]
    fn depth_and_heap_limits_in_checked_mode_stay_indeterminate() {
        // Same interplay through the two other resource axes: a recursion
        // that overflows the depth budget and an allocation loop that
        // overflows the heap budget, each compared under Full checking.
        let deep = "fn f(n) { return f(n + 1); } fn main() { print f(0); }";
        let hungry = "
            global KEEP;
            class P { field x; method init(a) { self.x = a; } }
            fn main() {
              var i = 0;
              while (i < 100000) { KEEP = new P(i); i = i + 1; }
              print KEEP.x;
            }";
        for (src, cfg) in [
            (
                deep,
                VmConfig {
                    max_depth: 16,
                    ..VmConfig::default()
                },
            ),
            (
                hungry,
                VmConfig {
                    max_heap_words: 64,
                    ..VmConfig::default()
                },
            ),
        ] {
            let p = compile(src).unwrap();
            let fw = FirewallConfig {
                vm: cfg,
                ..Default::default()
            };
            let g = guarded(&p, &InlineConfig::default(), &fw);
            assert!(
                g.baseline_run
                    .as_ref()
                    .is_err_and(|e| e.is_resource_limit()),
                "{:?}",
                g.baseline_run
            );
            assert!(g.is_equivalent(), "{:?}", g.divergences);
            assert!(g.initial_divergences.is_empty());
        }
    }
}
