//! Analysis-cost reporting (paper §6.2.2, Figure 16).
//!
//! The paper measures analysis cost as *method contours required per method*
//! with and without the object-inlining sensitivity, and notes that object
//! inlining required no additional object contours on their benchmarks.

use crate::contour::MCtxId;
use crate::result::AnalysisResult;
use oi_ir::{Instr, MethodId, Program};
use std::collections::{BTreeMap, BTreeSet};

/// Contour statistics for one analysis run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContourStats {
    /// Methods that received at least one contour (analyzed methods).
    pub analyzed_methods: usize,
    /// Total method contours created.
    pub method_contours: usize,
    /// Total object contours created.
    pub object_contours: usize,
    /// Method contours per analyzed method (the Figure 16 metric).
    pub contours_per_method: f64,
}

impl ContourStats {
    /// Computes statistics from an analysis result.
    pub fn from_result(result: &AnalysisResult) -> Self {
        let analyzed_methods = result.contours_of_method.len().max(1);
        let method_contours = result.method_contour_count();
        Self {
            analyzed_methods,
            method_contours,
            object_contours: result.object_contour_count(),
            contours_per_method: method_contours as f64 / analyzed_methods as f64,
        }
    }
}

/// Counts the method clones the paper's cloning stage (§5.1, Figure 10)
/// would materialize: contours of one method are *compatible* when they
/// agree on the resolved target set of every call in the body; each
/// incompatible group becomes a clone. Our runtime realizes the same
/// specialization through layouts and devirtualization, but the grouping is
/// still the paper's code-expansion driver, so we report it.
pub fn clone_groups(program: &Program, result: &AnalysisResult) -> usize {
    groups_per_method(program, result).map(|(_, n)| n).sum()
}

/// Per-method clone-group counts, for diagnostics.
pub fn clone_groups_by_method(
    program: &Program,
    result: &AnalysisResult,
) -> BTreeMap<String, usize> {
    groups_per_method(program, result)
        .map(|(method, n)| (program.method_display(method), n))
        .collect()
}

/// The clone-group count of every analyzed method, in no particular
/// order. A contour's signature is, for every call-shaped instruction,
/// the set of callee methods its recorded edges resolve to; each
/// distinct signature is one group.
fn groups_per_method<'a>(
    program: &'a Program,
    result: &'a AnalysisResult,
) -> impl Iterator<Item = (MethodId, usize)> + 'a {
    result
        .contours_of_method
        .iter()
        .map(move |(&method, contours)| {
            let signatures: BTreeSet<Vec<BTreeSet<usize>>> = contours
                .iter()
                .map(|&mctx| {
                    program.methods[method]
                        .instrs()
                        .filter(|(_, _, instr)| {
                            matches!(
                                instr,
                                Instr::Send { .. } | Instr::CallStatic { .. } | Instr::New { .. }
                            )
                        })
                        .map(|(bb, idx, _)| resolve_targets(result, mctx, bb, idx))
                        .collect()
                })
                .collect();
            (method, signatures.len().max(1))
        })
}

fn resolve_targets(
    result: &AnalysisResult,
    mctx: MCtxId,
    bb: oi_ir::BlockId,
    idx: usize,
) -> BTreeSet<usize> {
    result
        .call_edges
        .get(&(mctx, bb, idx))
        .map(|callees| {
            callees
                .iter()
                .map(|&c| result.mcontours[c].method.index())
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_ir::lower::compile;

    #[test]
    fn stats_count_contours() {
        let p = compile(
            "fn id(x) { return x; }
             fn main() { print id(1); print id(2.0); }",
        )
        .unwrap();
        let r = crate::engine::analyze(&p, &crate::engine::AnalysisConfig::default());
        let s = ContourStats::from_result(&r);
        assert_eq!(s.analyzed_methods, 2);
        assert_eq!(s.method_contours, 3); // main + id(int) + id(float)
        assert!((s.contours_per_method - 1.5).abs() < 1e-9);
    }

    #[test]
    fn tag_sensitivity_never_reduces_contours() {
        let p = compile(
            "class C { field d; method init(a) { self.d = a; }
               method get() { return self.d; } }
             class P { field x; method init(a) { self.x = a; }
               method val() { return self.x; } }
             fn main() {
               var c1 = new C(new P(1));
               var c2 = new C(new P(2));
               print c1.get().val();
               print c2.get().val();
             }",
        )
        .unwrap();
        let stats = |config| ContourStats::from_result(&crate::engine::analyze(&p, &config));
        let without = stats(crate::engine::AnalysisConfig::without_tags());
        let with = stats(crate::engine::AnalysisConfig::default());
        assert!(with.method_contours >= without.method_contours);
        assert!(with.contours_per_method >= without.contours_per_method);
    }
}
