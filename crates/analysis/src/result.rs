//! Analysis results and queries.

use crate::contour::{MContour, MCtxId, OContour, OCtxId};
use crate::types::{AbstractVal, TagTable};
use oi_ir::{BlockId, Instr, MethodId, Program, Temp};
use oi_support::{BudgetDimension, IdxVec};
use std::collections::{BTreeSet, HashMap};

/// The output of [`crate::engine::analyze`].
#[derive(Debug)]
pub struct AnalysisResult {
    /// Whether tags were tracked (object-inlining sensitivity).
    pub track_tags: bool,
    /// `true` when a resource budget (or the round cap) ran out and the
    /// engine froze its contour set, completing the fixpoint over globally
    /// widened contours. The result is sound but coarser than an
    /// unbudgeted run.
    pub degraded: bool,
    /// The budget dimension that forced the freeze, when [`Self::degraded`].
    pub exhausted: Option<BudgetDimension>,
    /// Interned tag table.
    pub tags: TagTable,
    /// All method contours; index 0 is the entry contour.
    pub mcontours: IdxVec<MCtxId, MContour>,
    /// All object contours.
    pub ocontours: IdxVec<OCtxId, OContour>,
    /// Contours grouped by method.
    pub contours_of_method: HashMap<MethodId, Vec<MCtxId>>,
    /// Callee contours per call-shaped instruction `(contour, block, index)`.
    pub call_edges: HashMap<(MCtxId, BlockId, usize), Vec<MCtxId>>,
    /// Global variable summaries.
    pub globals: Vec<AbstractVal>,
}

impl AnalysisResult {
    /// All possible callee *methods* of the `Send` at `(method, bb, idx)`,
    /// unioned across contours.
    pub fn send_targets(&self, method: MethodId, bb: BlockId, idx: usize) -> BTreeSet<MethodId> {
        let mut out = BTreeSet::new();
        if let Some(contours) = self.contours_of_method.get(&method) {
            for &c in contours {
                if let Some(callees) = self.call_edges.get(&(c, bb, idx)) {
                    for &callee in callees {
                        out.insert(self.mcontours[callee].method);
                    }
                }
            }
        }
        out
    }

    /// The unique devirtualization target of a send, if there is one.
    pub fn devirt_target(&self, method: MethodId, bb: BlockId, idx: usize) -> Option<MethodId> {
        let targets = self.send_targets(method, bb, idx);
        if targets.len() == 1 {
            targets.into_iter().next()
        } else {
            None
        }
    }

    /// Reverse call graph at method granularity: which `(method, bb, idx)`
    /// call instructions may invoke `callee`, and which argument temps they
    /// pass. Used by assignment specialization's `CallByValue`.
    pub fn callers_of(&self, program: &Program, callee: MethodId) -> Vec<CallerSite> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for ((mctx, bb, idx), callees) in &self.call_edges {
            if !callees.iter().any(|&c| self.mcontours[c].method == callee) {
                continue;
            }
            let caller = self.mcontours[*mctx].method;
            if !seen.insert((caller, *bb, *idx)) {
                continue;
            }
            let instr = &program.methods[caller].blocks[*bb].instrs[*idx];
            let (recv, args) = match instr {
                Instr::Send { recv, args, .. } | Instr::CallStatic { recv, args, .. } => {
                    (Some(*recv), args.clone())
                }
                // Constructor call: `self` is the fresh object, no temp.
                Instr::New { args, .. } => (None, args.clone()),
                _ => continue,
            };
            out.push(CallerSite {
                method: caller,
                bb: *bb,
                idx: *idx,
                recv,
                args,
            });
        }
        out.sort_by_key(|s| (s.method.index(), s.bb.index(), s.idx));
        out
    }

    /// Total number of method contours.
    pub fn method_contour_count(&self) -> usize {
        self.mcontours.len()
    }

    /// Total number of object contours (synthetic interior contours
    /// excluded from the per-site statistics would be a refinement; they
    /// only exist when re-analyzing transformed programs).
    pub fn object_contour_count(&self) -> usize {
        self.ocontours.len()
    }
}

/// One call site that may invoke some callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallerSite {
    /// The calling method.
    pub method: MethodId,
    /// Block of the call instruction.
    pub bb: BlockId,
    /// Instruction index within the block.
    pub idx: usize,
    /// The receiver temp; `None` for constructor calls, whose `self` is the
    /// freshly allocated object.
    pub recv: Option<Temp>,
    /// The declared-argument temps.
    pub args: Vec<Temp>,
}

#[cfg(test)]
mod tests {
    use crate::engine::{analyze, AnalysisConfig};
    use oi_ir::lower::compile;

    #[test]
    fn devirt_finds_monomorphic_target() {
        let p = compile(
            "class A { method m() { return 1; } }
             class B { method m() { return 2; } }
             fn main() { var a = new A(); print a.m(); }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let a_m = p.method_by_name("A", "m").unwrap();
        let mut found = false;
        for (bb, idx, instr) in p.methods[p.entry].instrs() {
            if matches!(instr, oi_ir::Instr::Send { .. }) {
                assert_eq!(r.devirt_target(p.entry, bb, idx), Some(a_m));
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn polymorphic_send_has_no_unique_target() {
        let p = compile(
            "class A { method m() { return 1; } }
             class B : A { method m() { return 2; } }
             fn pick(c) { return c.m(); }
             fn main() { print pick(new A()); print pick(new B()); }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let pick = p.method_by_name("$Main", "pick").unwrap();
        for (bb, idx, instr) in p.methods[pick].instrs() {
            if matches!(instr, oi_ir::Instr::Send { .. }) {
                assert_eq!(r.devirt_target(pick, bb, idx), None);
                assert_eq!(r.send_targets(pick, bb, idx).len(), 2);
            }
        }
    }

    #[test]
    fn callers_of_finds_sites() {
        let p = compile(
            "fn callee(x) { return x; }
             fn main() { print callee(1); print callee(2); }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let callee = p.method_by_name("$Main", "callee").unwrap();
        let sites = r.callers_of(&p, callee);
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.method == p.entry));
        assert!(sites.iter().all(|s| s.recv.is_some() && s.args.len() == 1));
    }

    #[test]
    fn constructor_callers_are_recorded() {
        let p = compile(
            "class P { field x; method init(a) { self.x = a; } }
             fn main() { var p = new P(5); print p.x; }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let init = p.method_by_name("P", "init").unwrap();
        let sites = r.callers_of(&p, init);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].method, p.entry);
    }
}
