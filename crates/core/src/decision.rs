//! The inlining decision: combining use and assignment specialization into a
//! per-field plan.
//!
//! Decisions are made per *(concrete class, field)* and grouped per
//! declaring class:
//!
//! - **uniform**: every instantiated class in the declaring class's subtree
//!   stores the same child class — the declaring class is restructured once
//!   and all subclasses share the layout (the Rectangle/Parallelogram case,
//!   Figure 11);
//! - **divergent**: different subtrees store different child classes — each
//!   concrete class gets its own layout over a shared replacement slot (the
//!   Richards private-data case, which C++ cannot express, §6.1).

use crate::assignspec::AssignSpec;
use crate::pipeline::InlineConfig;
use crate::usespec::{self, RecvInfo};
use oi_analysis::AnalysisResult;
use oi_ir::{ArrayLayoutKind, ClassId, Instr, LayoutId, Program, SiteId, Terminator};
use oi_support::trace::{self, kv};
use oi_support::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Machine-readable rejection reasons, each enforcing one of the inlining
/// decision rules of DESIGN §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReasonCode {
    /// Rule 1 (precise content): the field holds nil, a primitive, an
    /// array, more than one content class, or some contour never
    /// initializes it.
    ImpreciseContent,
    /// Rule 2 (use unambiguity): a dereference mixes inlined and
    /// non-inlined receivers, so no single specialized access works.
    AmbiguousUse,
    /// Rule 3 (assignment safety): a store cannot pass its value by value
    /// — the value escapes, is loaded from elsewhere, or is used after
    /// the store.
    UnsafeAssignment,
    /// Rule 3 (assignment safety): child objects take part in `===`
    /// identity comparisons, which inline copies cannot preserve.
    IdentityCompared,
    /// Rule 4 (no inline recursion): the child's layout changes this
    /// pass; the field is retried on the next pass.
    LayoutInFlux,
    /// Rule 5 (firewall retraction): the differential oracle or the IR
    /// verifier rejected a transformed program and bisection blamed this
    /// decision; it is withdrawn for the rest of the compilation.
    Retracted,
}

impl ReasonCode {
    /// Stable kebab-case identifier used in JSON output and traces.
    pub fn code(self) -> &'static str {
        match self {
            ReasonCode::ImpreciseContent => "imprecise-content",
            ReasonCode::AmbiguousUse => "ambiguous-use",
            ReasonCode::UnsafeAssignment => "unsafe-assignment",
            ReasonCode::IdentityCompared => "identity-compared",
            ReasonCode::LayoutInFlux => "layout-in-flux",
            ReasonCode::Retracted => "retracted",
        }
    }

    /// The DESIGN §4 decision rule this code enforces.
    pub fn rule(self) -> u8 {
        match self {
            ReasonCode::ImpreciseContent => 1,
            ReasonCode::AmbiguousUse => 2,
            ReasonCode::UnsafeAssignment | ReasonCode::IdentityCompared => 3,
            ReasonCode::LayoutInFlux => 4,
            ReasonCode::Retracted => 5,
        }
    }

    /// One-line human-readable summary.
    pub fn summary(self) -> &'static str {
        match self {
            ReasonCode::ImpreciseContent => {
                "some instantiated subclass does not always initialize the field with one class"
            }
            ReasonCode::AmbiguousUse => "a field access mixes inlined and non-inlined receivers",
            ReasonCode::UnsafeAssignment => "a stored value cannot be passed by value (aliasing)",
            ReasonCode::IdentityCompared => "child objects take part in identity comparisons",
            ReasonCode::LayoutInFlux => "child class layout changes this pass (retry next pass)",
            ReasonCode::Retracted => {
                "withdrawn by the soundness firewall after a failed equivalence check"
            }
        }
    }
}

/// A rejected field with its provenance: which rule fired and where.
#[derive(Clone, Debug)]
pub struct Rejection {
    /// `Class.field` the verdict applies to.
    pub field: String,
    /// Which DESIGN §4 rule rejected it.
    pub code: ReasonCode,
    /// The offending site, class, or value, for diagnostics (may be
    /// empty when the rule has no single culprit).
    pub detail: String,
}

/// A planned object-field inlining.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    /// Class that declares the field.
    pub declaring: ClassId,
    /// Concrete classes this entry covers (the whole instantiated subtree
    /// for uniform entries; a single class for divergent ones).
    pub containers: Vec<ClassId>,
    /// The inlined field.
    pub field: Symbol,
    /// The (single) class of objects stored in the field.
    pub child: ClassId,
    /// Whether the whole subtree shares this entry.
    pub uniform: bool,
    /// Filled in by `restructure`.
    pub layout: Option<LayoutId>,
}

/// A planned array-element inlining.
#[derive(Clone, Debug)]
pub struct ArrayEntry {
    /// Element class.
    pub child: ClassId,
    /// Element layout kind to use.
    pub kind: ArrayLayoutKind,
    /// Filled in by `restructure` (already set for pre-existing sites).
    pub layout: Option<LayoutId>,
    /// `true` when the site was inlined on an earlier pass; it is kept in
    /// the plan so later passes can apply in-place element construction,
    /// but it is not re-restructured or re-counted.
    pub pre_existing: bool,
}

/// The complete inlining plan for one pass.
#[derive(Clone, Debug, Default)]
pub struct InlinePlan {
    /// Object-field entries.
    pub entries: Vec<PlanEntry>,
    /// Concrete `(class, field)` → index into `entries`.
    pub by_class_field: HashMap<(ClassId, Symbol), usize>,
    /// Array allocation sites whose elements are inlined.
    pub array_sites: BTreeMap<SiteId, ArrayEntry>,
    /// Fields considered but rejected, with provenance (for reporting
    /// and `oic explain`).
    pub rejected: Vec<Rejection>,
}

impl InlinePlan {
    /// Returns `true` if nothing will be transformed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.array_sites.is_empty()
    }

    /// The entry covering `class`'s field `f`, if planned.
    pub fn entry_for(&self, class: ClassId, f: Symbol) -> Option<&PlanEntry> {
        self.by_class_field
            .get(&(class, f))
            .map(|&i| &self.entries[i])
    }
}

/// The stable key naming one inlining decision, used by the soundness
/// firewall's denylist: `Class.field` for object fields (declaring class)
/// and `array@siteN` for array-element sites.
pub fn field_decision_key(program: &Program, declaring: ClassId, field: Symbol) -> String {
    format!(
        "{}.{}",
        program.interner.resolve(program.classes[declaring].name),
        program.interner.resolve(field)
    )
}

/// The denylist key for an array-element inlining site.
pub fn array_decision_key(site: SiteId) -> String {
    format!("array@{site:?}")
}

/// Rule-1 support: `true` when the constructor reached by `new class(..)`
/// assigns `self.field` on **every** path from entry to return.
///
/// The contour field summaries only join the values that stores produce;
/// they carry no "may be unassigned" element, so a conditional
/// initialization is indistinguishable from an unconditional one at the
/// summary level. This syntactic must-assign dataflow closes that gap: a
/// class with no `init`, or an `init` with an unassigning path, leaves the
/// field nil at runtime — a state inline storage cannot represent.
fn ctor_definitely_assigns(program: &Program, class: ClassId, field: Symbol) -> bool {
    let Some(init) = program.interner.get("init") else {
        return false;
    };
    let Some(mid) = program.lookup_method(class, init) else {
        return false; // no constructor: the field starts (and may stay) nil
    };
    let method = &program.methods[mid];

    // Temps that definitely hold `self`: temp 0 when nothing redefines it,
    // plus temps all of whose definitions are moves from such temps.
    let n = method.temp_count as usize;
    let mut defs: Vec<Vec<&Instr>> = vec![Vec::new(); n];
    for (_, _, ins) in method.instrs() {
        if let Some(d) = ins.dst() {
            defs[d.index()].push(ins);
        }
    }
    let mut selfish = vec![false; n];
    selfish[method.self_temp().index()] = defs[method.self_temp().index()].is_empty();
    loop {
        let mut changed = false;
        for t in 0..n {
            if selfish[t] || defs[t].is_empty() {
                continue;
            }
            let all_self_moves = defs[t]
                .iter()
                .all(|i| matches!(i, Instr::Move { src, .. } if selfish[src.index()]));
            if all_self_moves {
                selfish[t] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Forward must-assign dataflow: a block's entry state is the meet
    // (conjunction) over its predecessors; a store to the field through a
    // definite-self temp generates the fact. All instructions precede the
    // terminator, so a block's exit state is the state at its `Return`.
    let nb = method.blocks.len();
    let mut gen = vec![false; nb];
    for (bb, _, ins) in method.instrs() {
        if let Instr::SetField { obj, field: f, .. } = ins {
            if *f == field && selfish[obj.index()] {
                gen[bb.index()] = true;
            }
        }
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (bb, block) in method.blocks.iter_enumerated() {
        for s in block.term.successors() {
            preds[s.index()].push(bb.index());
        }
    }
    let entry = method.entry().index();
    let mut out = vec![true; nb];
    out[entry] = gen[entry];
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            let inb = b != entry && preds[b].iter().all(|&p| out[p]);
            let o = inb || gen[b];
            if o != out[b] {
                out[b] = o;
                changed = true;
            }
        }
    }
    method
        .blocks
        .iter_enumerated()
        .all(|(bb, block)| !matches!(block.term, Terminator::Return(_)) || out[bb.index()])
}

/// Computes the inlining plan for one transformation pass, minus an
/// explicit denylist of decision keys (see [`field_decision_key`] /
/// [`array_decision_key`]).
///
/// Denied decisions are filtered out *before* the grouping step and the
/// demotion fixpoint, so rules that depend on the planned set — use
/// agreement across a hierarchy, divergent-sibling coverage — see the
/// retraction and stay sound. Each denied decision that would otherwise
/// have been considered is recorded as a [`ReasonCode::Retracted`]
/// rejection for provenance.
pub fn decide(
    program: &Program,
    result: &AnalysisResult,
    config: &InlineConfig,
    denied: &BTreeSet<String>,
) -> InlinePlan {
    let mut plan = InlinePlan::default();

    // ---- gather per-(concrete class, field) child information -------------
    // candidate_child[(class, field)] = Some(child) if every object contour
    // of `class` stores exactly that one class into `field`.
    let mut octx_by_class: HashMap<ClassId, Vec<oi_analysis::OCtxId>> = HashMap::new();
    for (id, oc) in result.ocontours.iter_enumerated() {
        if let Some(c) = oc.class {
            octx_by_class.entry(c).or_default().push(id);
        }
    }

    // Ordered: the member order of each group below decides layout ids
    // and fresh field names, so it must not follow a hash seed.
    let mut candidate_child: BTreeMap<(ClassId, Symbol), ClassId> = BTreeMap::new();
    let mut object_fields_seen: BTreeSet<(ClassId, Symbol)> = BTreeSet::new();
    if config.object_fields {
        for (&class, octxs) in &octx_by_class {
            for fid in program.layout_of(class) {
                let fname = program.fields[fid].name;
                let mut child: Option<ClassId> = None;
                let mut ok = true;
                let mut stores_objects = false;
                for &oc in octxs {
                    let Some(sum) = result.ocontours[oc].field(fname) else {
                        ok = false; // some contour never initializes the field
                        continue;
                    };
                    if sum.types.iter().any(|t| t.contour().is_some()) {
                        stores_objects = true;
                    }
                    for ty in &sum.types {
                        match ty {
                            oi_analysis::TypeElem::Obj(child_oc) => {
                                let Some(d) = result.ocontours[*child_oc].class else {
                                    ok = false;
                                    continue;
                                };
                                match child {
                                    None => child = Some(d),
                                    Some(prev) if prev == d => {}
                                    Some(_) => ok = false,
                                }
                            }
                            // nil, primitives or arrays in the field: cannot
                            // inline (the inline state cannot represent
                            // them).
                            _ => ok = false,
                        }
                    }
                }
                if stores_objects {
                    object_fields_seen.insert((program.fields[fid].owner, fname));
                }
                // Rule 1, definite assignment: the contour summary joins
                // stored values flow-insensitively, so a store inside a
                // conditional looks identical to an unconditional one. A
                // field the constructor may leave unassigned still holds
                // nil on some path, which inline storage cannot represent.
                if ok && child.is_some() && !ctor_definitely_assigns(program, class, fname) {
                    ok = false;
                }
                if ok {
                    if let Some(d) = child {
                        if !program.layout_of(d).is_empty() {
                            candidate_child.insert((class, fname), d);
                        }
                    }
                }
            }
        }
    }

    // ---- firewall denylist -------------------------------------------------
    // Retractions are applied to the candidate set, before grouping and
    // the demotion fixpoint, so downstream agreement rules account for
    // them exactly as they do for any other non-candidate field.
    if !denied.is_empty() {
        let mut retracted: BTreeSet<String> = BTreeSet::new();
        candidate_child.retain(|&(class, fname), _| {
            let Some(fid) = program.field_of(class, fname) else {
                return true;
            };
            let key = field_decision_key(program, program.fields[fid].owner, fname);
            if denied.contains(&key) {
                retracted.insert(key);
                false
            } else {
                true
            }
        });
        for key in retracted {
            push_rejection(
                &mut plan.rejected,
                key,
                ReasonCode::Retracted,
                "withdrawn after a failed equivalence or verification check".to_owned(),
            );
        }
    }

    // ---- group per declaring class -----------------------------------------
    // For each (declaring class, field): every *instantiated* class in the
    // subtree must be a candidate; uniform if they agree on the child.
    let mut groups: BTreeMap<(ClassId, Symbol), Vec<(ClassId, ClassId)>> = BTreeMap::new();
    let mut group_ok: HashMap<(ClassId, Symbol), bool> = HashMap::new();
    for (&(class, fname), &child) in &candidate_child {
        let Some(fid) = program.field_of(class, fname) else {
            continue;
        };
        let declaring = program.fields[fid].owner;
        groups
            .entry((declaring, fname))
            .or_default()
            .push((class, child));
    }
    for ((declaring, fname), members) in &groups {
        let instantiated: Vec<ClassId> = program
            .subclasses_of(*declaring)
            .into_iter()
            .filter(|c| octx_by_class.contains_key(c))
            .collect();
        let covered: BTreeSet<ClassId> = members.iter().map(|(c, _)| *c).collect();
        let all_covered = instantiated.iter().all(|c| covered.contains(c));
        group_ok.insert(
            (*declaring, *fname),
            all_covered && !instantiated.is_empty(),
        );
        if !all_covered {
            let missing: Vec<&str> = instantiated
                .iter()
                .filter(|c| !covered.contains(c))
                .map(|&c| program.interner.resolve(program.classes[c].name))
                .collect();
            push_rejection(
                &mut plan.rejected,
                format!(
                    "{}.{}",
                    program.interner.resolve(program.classes[*declaring].name),
                    program.interner.resolve(*fname)
                ),
                ReasonCode::ImpreciseContent,
                format!("imprecise in subclass(es) {}", missing.join(", ")),
            );
        }
    }

    // Seed plan entries.
    for ((declaring, fname), members) in &groups {
        if !group_ok[&(*declaring, *fname)] {
            continue;
        }
        let children: BTreeSet<ClassId> = members.iter().map(|(_, d)| *d).collect();
        if children.len() == 1 {
            let child = *children.iter().next().unwrap();
            let idx = plan.entries.len();
            plan.entries.push(PlanEntry {
                declaring: *declaring,
                containers: members.iter().map(|(c, _)| *c).collect(),
                field: *fname,
                child,
                uniform: true,
                layout: None,
            });
            for (c, _) in members {
                plan.by_class_field.insert((*c, *fname), idx);
            }
        } else {
            for (c, d) in members {
                let idx = plan.entries.len();
                plan.entries.push(PlanEntry {
                    declaring: *declaring,
                    containers: vec![*c],
                    field: *fname,
                    child: *d,
                    uniform: false,
                    layout: None,
                });
                plan.by_class_field.insert((*c, *fname), idx);
            }
        }
    }

    // ---- array candidates ----------------------------------------------------
    // Sites already inlined on an earlier pass keep their existing layout.
    let mut existing_inline: BTreeMap<SiteId, LayoutId> = BTreeMap::new();
    for m in program.methods.iter() {
        for block in m.blocks.iter() {
            for instr in &block.instrs {
                if let oi_ir::Instr::NewArrayInline { site, layout, .. } = instr {
                    existing_inline.insert(*site, *layout);
                }
            }
        }
    }
    for (&site, &layout) in &existing_inline {
        plan.array_sites.insert(
            site,
            ArrayEntry {
                child: program.layouts[layout].child_class,
                kind: program.layouts[layout]
                    .array_kind
                    .unwrap_or(config.array_layout),
                layout: Some(layout),
                pre_existing: true,
            },
        );
    }
    let mut array_child: BTreeMap<SiteId, Option<ClassId>> = BTreeMap::new();
    if config.array_elements {
        for oc in result.ocontours.iter() {
            if !oc.is_array() {
                continue;
            }
            // Synthetic interior contours have out-of-range sites; skip.
            if oc.site.index() >= program.site_count as usize {
                continue;
            }
            if existing_inline.contains_key(&oc.site) {
                continue;
            }
            let entry = array_child.entry(oc.site).or_insert(None);
            if oc.elem.is_bottom() {
                *entry = None;
                continue;
            }
            let mut site_child: Option<ClassId> = entry.as_mut().map(|d| *d);
            let mut ok = !oc.elem.types.is_empty();
            for ty in &oc.elem.types {
                match ty {
                    oi_analysis::TypeElem::Obj(child_oc) => {
                        let Some(d) = result.ocontours[*child_oc].class else {
                            ok = false;
                            continue;
                        };
                        match site_child {
                            None => site_child = Some(d),
                            Some(prev) if prev == d => {}
                            Some(_) => ok = false,
                        }
                    }
                    _ => ok = false,
                }
            }
            *entry = if ok { site_child } else { None };
        }
        // Note: a site whose contours disagree ends up with the last
        // verdict; re-check all contours agree.
        for (site, child) in array_child.clone() {
            let Some(child) = child else { continue };
            let consistent = result
                .ocontours
                .iter()
                .filter(|oc| oc.is_array() && oc.site == site)
                .all(|oc| {
                    !oc.elem.is_bottom()
                        && oc.elem.types.iter().all(|t| {
                            matches!(
                                t,
                                oi_analysis::TypeElem::Obj(c)
                                    if result.ocontours[*c].class == Some(child)
                            )
                        })
                });
            if consistent && !program.layout_of(child).is_empty() {
                if denied.contains(&array_decision_key(site)) {
                    push_rejection(
                        &mut plan.rejected,
                        array_decision_key(site),
                        ReasonCode::Retracted,
                        "withdrawn after a failed equivalence or verification check".to_owned(),
                    );
                    continue;
                }
                plan.array_sites.insert(
                    site,
                    ArrayEntry {
                        child,
                        kind: config.array_layout,
                        layout: None,
                        pre_existing: false,
                    },
                );
            }
        }
    }

    // ---- demotion fixpoint -----------------------------------------------
    let (identity_classes, accesses, astores) = {
        let _s = trace::span("decide.usespec");
        (
            usespec::identity_compared_classes(program, result),
            usespec::field_accesses(program),
            usespec::array_stores(program),
        )
    };
    let mut spec = {
        let _s = trace::span("decide.assignspec");
        AssignSpec::new(program, result)
    };
    let elem_sentinel = program.interner.get("$elem");

    loop {
        let mut demote_entries: BTreeSet<usize> = BTreeSet::new();
        let mut demote_arrays: BTreeSet<SiteId> = BTreeSet::new();
        let mut rejections: Vec<Rejection> = Vec::new();

        // (a) identity comparisons on child classes.
        for (i, e) in plan.entries.iter().enumerate() {
            if identity_classes.contains(&e.child) {
                demote_entries.insert(i);
                push_rejection(
                    &mut rejections,
                    describe_entry(program, e),
                    ReasonCode::IdentityCompared,
                    format!(
                        "`===` reaches objects of class {}",
                        program.interner.resolve(program.classes[e.child].name)
                    ),
                );
            }
        }
        for (&site, a) in &plan.array_sites {
            if identity_classes.contains(&a.child) {
                demote_arrays.insert(site);
            }
        }

        // (b) instruction agreement for every access to a planned field.
        for acc in &accesses {
            let info: RecvInfo = usespec::receiver_info(result, acc.method, acc.obj);
            let touched: Vec<usize> = info
                .classes
                .iter()
                .filter_map(|&c| plan.by_class_field.get(&(c, acc.field)).copied())
                .collect();
            if touched.is_empty() {
                continue;
            }
            let distinct: BTreeSet<usize> = touched.iter().copied().collect();
            let all_planned = info
                .classes
                .iter()
                .all(|&c| plan.by_class_field.contains_key(&(c, acc.field)));
            let live: Vec<usize> = distinct
                .iter()
                .copied()
                .filter(|i| !demote_entries.contains(i))
                .collect();
            // Note: provenance-tag overflow (`tag_top`) on the *receiver*
            // does not block the rewrite — the layout is determined by the
            // receiver's class set, and our runtime resolves inline layouts
            // through interior references where the paper binds specialized
            // clones statically. Class disagreement is what kills it.
            if !all_planned || live.len() > 1 || !info.array_sites.is_empty() {
                for i in distinct {
                    if demote_entries.insert(i) {
                        push_rejection(
                            &mut rejections,
                            describe_entry(program, &plan.entries[i]),
                            ReasonCode::AmbiguousUse,
                            format!(
                                "access to `{}` in {} (block {}, instr {})",
                                program.interner.resolve(acc.field),
                                program.method_display(acc.method),
                                acc.bb.index(),
                                acc.idx
                            ),
                        );
                    }
                }
            }
        }

        // (c) assignment safety at every store to a planned field.
        if config.check_assignments {
            for acc in &accesses {
                let Some(src) = acc.store_src else { continue };
                let info = usespec::receiver_info(result, acc.method, acc.obj);
                let touched: BTreeSet<usize> = info
                    .classes
                    .iter()
                    .filter_map(|&c| plan.by_class_field.get(&(c, acc.field)).copied())
                    .filter(|i| !demote_entries.contains(i))
                    .collect();
                if touched.is_empty() {
                    continue;
                }
                if !spec.store_ok(acc.method, (acc.bb, acc.idx), src, acc.field) {
                    for i in touched {
                        if demote_entries.insert(i) {
                            push_rejection(
                                &mut rejections,
                                describe_entry(program, &plan.entries[i]),
                                ReasonCode::UnsafeAssignment,
                                format!(
                                    "store to `{}` in {} (block {}, instr {})",
                                    program.interner.resolve(acc.field),
                                    program.method_display(acc.method),
                                    acc.bb.index(),
                                    acc.idx
                                ),
                            );
                        }
                    }
                }
            }
            if let Some(sentinel) = elem_sentinel {
                for st in &astores {
                    let info = usespec::receiver_info(result, st.method, st.arr);
                    let touched: Vec<SiteId> = info
                        .array_sites
                        .iter()
                        .copied()
                        .filter(|s| plan.array_sites.contains_key(s) && !demote_arrays.contains(s))
                        .collect();
                    if touched.is_empty() {
                        continue;
                    }
                    if !spec.store_ok(st.method, (st.bb, st.idx), st.src, sentinel) {
                        demote_arrays.extend(touched);
                    }
                }
            }
        }

        // (d) no same-pass nesting: a container's child must have a stable
        // layout this pass (nested inlining happens on the next pass).
        let layout_changing: BTreeSet<ClassId> = plan
            .entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !demote_entries.contains(i))
            .map(|(_, e)| e.declaring)
            .collect();
        let layout_affected = |class: ClassId| -> bool {
            // `class`'s layout changes if it or any ancestor is restructured.
            let mut cur = Some(class);
            while let Some(c) = cur {
                if layout_changing.contains(&c) {
                    return true;
                }
                cur = program.classes[c].parent;
            }
            false
        };
        for (i, e) in plan.entries.iter().enumerate() {
            if !demote_entries.contains(&i) && layout_affected(e.child) {
                demote_entries.insert(i);
                push_rejection(
                    &mut rejections,
                    describe_entry(program, e),
                    ReasonCode::LayoutInFlux,
                    format!(
                        "child class {} is restructured this pass",
                        program.interner.resolve(program.classes[e.child].name)
                    ),
                );
            }
        }
        let demote_array_children: Vec<SiteId> = plan
            .array_sites
            .iter()
            .filter(|(s, a)| !demote_arrays.contains(s) && layout_affected(a.child))
            .map(|(s, _)| *s)
            .collect();
        demote_arrays.extend(demote_array_children);

        // (e) a uniform group loses a member → whole group goes (entry is
        // shared, so this is automatic). A divergent group member going
        // away makes the hierarchy partially covered → demote siblings.
        let mut sibling_demotions: Vec<usize> = Vec::new();
        for &i in &demote_entries {
            let e = &plan.entries[i];
            if !e.uniform {
                for (j, other) in plan.entries.iter().enumerate() {
                    if j != i
                        && !demote_entries.contains(&j)
                        && !other.uniform
                        && other.declaring == e.declaring
                        && other.field == e.field
                    {
                        sibling_demotions.push(j);
                    }
                }
            }
        }
        demote_entries.extend(sibling_demotions);

        plan.rejected.extend(rejections);
        if demote_entries.is_empty() && demote_arrays.is_empty() {
            break;
        }
        // Apply demotions and re-run (agreement depends on the plan).
        let mut new_entries = Vec::new();
        let mut remap: HashMap<usize, usize> = HashMap::new();
        for (i, e) in plan.entries.iter().enumerate() {
            if !demote_entries.contains(&i) {
                remap.insert(i, new_entries.len());
                new_entries.push(e.clone());
            }
        }
        plan.by_class_field = plan
            .by_class_field
            .iter()
            .filter_map(|(k, v)| remap.get(v).map(|&nv| (*k, nv)))
            .collect();
        plan.entries = new_entries;
        for s in demote_arrays {
            plan.array_sites.remove(&s);
        }
    }

    // Rule 1 final sweep: object-holding fields that never became
    // candidates (nil/primitive/mixed-class stores or an uninitializing
    // constructor path) get a provenance record too, so `oic explain` can
    // name the rule that dropped them.
    for (declaring, fname) in &object_fields_seen {
        if !groups.contains_key(&(*declaring, *fname)) {
            let key = field_decision_key(program, *declaring, *fname);
            // Retracted fields already carry rule-5 provenance; do not
            // overwrite it with a rule-1 verdict.
            if plan
                .rejected
                .iter()
                .any(|r| r.field == key && r.code == ReasonCode::Retracted)
            {
                continue;
            }
            push_rejection(
                &mut plan.rejected,
                key,
                ReasonCode::ImpreciseContent,
                "stores of nil, primitives, or multiple classes reach the field".to_owned(),
            );
        }
    }
    plan
}

/// Records a rejection, mirroring it onto the trace stream so
/// `OIC_TRACE=json` shows decisions as they are made.
fn push_rejection(out: &mut Vec<Rejection>, field: String, code: ReasonCode, detail: String) {
    if trace::is_enabled() {
        trace::event(
            "decide.reject",
            vec![
                kv("field", field.clone()),
                kv("code", code.code()),
                kv("rule", u64::from(code.rule())),
                kv("detail", detail.clone()),
            ],
        );
    }
    out.push(Rejection {
        field,
        code,
        detail,
    });
}

fn describe_entry(program: &Program, e: &PlanEntry) -> String {
    field_decision_key(program, e.declaring, e.field)
}

/// Counts, per declared field, whether any object contour ever stores an
/// object into it — the denominator of Figure 14.
pub fn object_holding_fields(
    program: &Program,
    result: &AnalysisResult,
) -> BTreeSet<(ClassId, Symbol)> {
    let mut out = BTreeSet::new();
    for oc in result.ocontours.iter() {
        let Some(class) = oc.class else { continue };
        for (fname, sum) in &oc.fields {
            if sum.types.iter().any(|t| t.contour().is_some()) {
                if let Some(fid) = program.field_of(class, *fname) {
                    out.insert((program.fields[fid].owner, *fname));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_analysis::{analyze, AnalysisConfig};
    use oi_ir::lower::compile;

    fn plan_for(src: &str) -> (Program, InlinePlan) {
        let p = compile(src).unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let plan = decide(&p, &r, &InlineConfig::default(), &BTreeSet::new());
        (p, plan)
    }

    const RECT: &str = "
        class Point { field x; field y;
          method init(a, b) { self.x = a; self.y = b; }
        }
        class Rect { field ll; field ur;
          method init(a, b) { self.ll = a; self.ur = b; }
        }
        fn main() {
          var r = new Rect(new Point(1.0, 2.0), new Point(3.0, 4.0));
          print r.ll.x + r.ur.y;
        }";

    #[test]
    fn rectangle_fields_are_planned() {
        let (p, plan) = plan_for(RECT);
        assert_eq!(
            plan.entries.len(),
            2,
            "ll and ur should inline: {:?}",
            plan.rejected
        );
        let rect = p.class_by_name("Rect").unwrap();
        let ll = p.interner.get("ll").unwrap();
        let e = plan.entry_for(rect, ll).unwrap();
        assert_eq!(e.child, p.class_by_name("Point").unwrap());
        assert!(e.uniform);
    }

    #[test]
    fn denied_field_is_retracted_with_provenance() {
        let p = compile(RECT).unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let denied: BTreeSet<String> = ["Rect.ll".to_owned()].into_iter().collect();
        let plan = decide(&p, &r, &InlineConfig::default(), &denied);
        let rect = p.class_by_name("Rect").unwrap();
        let ll = p.interner.get("ll").unwrap();
        assert!(
            plan.entry_for(rect, ll).is_none(),
            "denied field must not plan"
        );
        assert!(
            plan.rejected
                .iter()
                .any(|r| r.field == "Rect.ll" && r.code == ReasonCode::Retracted),
            "{:?}",
            plan.rejected
        );
        // The sibling field is unaffected.
        let ur = p.interner.get("ur").unwrap();
        assert!(plan.entry_for(rect, ur).is_some(), "{:?}", plan.rejected);
    }

    #[test]
    fn denied_array_site_is_retracted() {
        let src = "class P { field x; field y; method init(a, b) { self.x = a; self.y = b; } }
             fn main() {
               var a = array(10);
               var i = 0;
               while (i < 10) { a[i] = new P(i, i); i = i + 1; }
               var s = 0; i = 0;
               while (i < 10) { s = s + a[i].x; i = i + 1; }
               print s;
             }";
        let p = compile(src).unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let plan = decide(&p, &r, &InlineConfig::default(), &BTreeSet::new());
        assert_eq!(plan.array_sites.len(), 1);
        let site = *plan.array_sites.keys().next().unwrap();
        let denied: BTreeSet<String> = [array_decision_key(site)].into_iter().collect();
        let plan = decide(&p, &r, &InlineConfig::default(), &denied);
        assert!(plan.array_sites.is_empty(), "{:?}", plan.array_sites);
        assert!(plan
            .rejected
            .iter()
            .any(|r| r.code == ReasonCode::Retracted));
    }

    #[test]
    fn nilable_field_is_not_planned() {
        let (_, plan) = plan_for(
            "class P { field x; method init(a) { self.x = a; } }
             class C { field d; method init(a) { self.d = a; } }
             fn main() {
               var c1 = new C(new P(1));
               var c2 = new C(nil);
               print 1;
             }",
        );
        assert!(plan.entries.is_empty(), "{:?}", plan.entries);
    }

    #[test]
    fn conditionally_initialized_field_is_not_planned() {
        // The store dominates nothing: when the branch is not taken the
        // field stays nil, which inline storage cannot represent. The
        // contour summary alone cannot see this (it joins stored values
        // only), so this exercises the definite-assignment check.
        let (_, plan) = plan_for(
            "class P { field x; method init(a) { self.x = a; } }
             class C { field d;
               method init(a) { if (a > 0) { self.d = new P(a); } }
               method read() { if (self.d === nil) { return 0 - 1; } return self.d.x; }
             }
             fn main() {
               print new C(1).read();
               print new C(0 - 5).read();
             }",
        );
        assert!(plan.entries.is_empty(), "{:?}", plan.entries);
        assert!(plan
            .rejected
            .iter()
            .any(|r| r.field == "C.d" && r.code == ReasonCode::ImpreciseContent));
    }

    #[test]
    fn unconditionally_initialized_field_stays_planned() {
        // Both arms assign: the meet over paths is "assigned", so the
        // definite-assignment check must not reject it.
        let (_, plan) = plan_for(
            "class P { field x; method init(a) { self.x = a; } }
             class C { field d;
               method init(a) {
                 if (a > 0) { self.d = new P(a); } else { self.d = new P(0 - a); }
               }
             }
             fn main() {
               var c = new C(3);
               print c.d.x;
             }",
        );
        assert_eq!(plan.entries.len(), 1, "rejected: {:?}", plan.rejected);
    }

    #[test]
    fn field_assigned_only_by_caller_is_not_planned() {
        // No constructor at all: the object is born with a nil field and
        // only the caller fills it in afterwards. Definite assignment in
        // the constructor is the boundary the analysis can certify.
        let (_, plan) = plan_for(
            "class P { field x; method init(a) { self.x = a; } }
             class C { field d; }
             fn main() {
               var c = new C();
               c.d = new P(7);
               print c.d.x;
             }",
        );
        assert!(plan.entries.is_empty(), "{:?}", plan.entries);
    }

    #[test]
    fn polymorphic_field_divergent_by_subclass() {
        // Richards-style: each Task subclass stores its own packet class.
        let (p, plan) = plan_for(
            "class Packet { field a; method init(v) { self.a = v; } }
             class DevPacket : Packet { }
             class HandPacket : Packet { }
             class Task { field data; }
             class DevTask : Task {
               method init() { self.data = new DevPacket(1); }
               method go() { return self.data.a; }
             }
             class HandTask : Task {
               method init() { self.data = new HandPacket(2); }
               method go() { return self.data.a; }
             }
             fn main() {
               var t1 = new DevTask(); var t2 = new HandTask();
               print t1.go() + t2.go();
             }",
        );
        assert_eq!(plan.entries.len(), 2, "rejected: {:?}", plan.rejected);
        assert!(plan.entries.iter().all(|e| !e.uniform));
        let dev = p.class_by_name("DevTask").unwrap();
        let data = p.interner.get("data").unwrap();
        assert_eq!(
            plan.entry_for(dev, data).unwrap().child,
            p.class_by_name("DevPacket").unwrap()
        );
    }

    #[test]
    fn aliased_store_is_rejected() {
        let (_, plan) = plan_for(
            "global KEEP;
             class P { field x; method init(a) { self.x = a; } }
             class C { field d; method init(a) { self.d = a; } }
             fn main() {
               var p = new P(1);
               KEEP = p;
               var c = new C(p);
               print c.d.x;
             }",
        );
        assert!(plan.entries.is_empty(), "{:?}", plan.entries);
        assert!(plan
            .rejected
            .iter()
            .any(|r| r.code == ReasonCode::UnsafeAssignment && r.detail.contains("store to")));
    }

    #[test]
    fn identity_comparison_rejects() {
        let (_, plan) = plan_for(
            "class P { field x; method init(a) { self.x = a; } }
             class C { field d; method init(a) { self.d = a; } }
             fn main() {
               var p = new P(1);
               var c = new C(p);
               print c.d === c.d;
             }",
        );
        assert!(plan.entries.is_empty());
    }

    #[test]
    fn array_of_points_is_planned() {
        let (_, plan) = plan_for(
            "class P { field x; field y; method init(a, b) { self.x = a; self.y = b; } }
             fn main() {
               var a = array(10);
               var i = 0;
               while (i < 10) { a[i] = new P(i, i); i = i + 1; }
               var s = 0; i = 0;
               while (i < 10) { s = s + a[i].x; i = i + 1; }
               print s;
             }",
        );
        assert_eq!(plan.array_sites.len(), 1, "{:?}", plan.array_sites);
    }

    #[test]
    fn mixed_element_array_is_not_planned() {
        let (_, plan) = plan_for(
            "class P { field x; method init(a) { self.x = a; } }
             class Q { field y; method init(a) { self.y = a; } }
             fn main() {
               var a = array(2);
               a[0] = new P(1);
               a[1] = new Q(2);
               print a[0].x;
             }",
        );
        assert!(plan.array_sites.is_empty());
    }

    #[test]
    fn recursive_class_is_not_planned() {
        // Cons cells with object tails would inline into themselves.
        let (_, plan) = plan_for(
            "class Cons { field head; field tail;
               method init(h, t) { self.head = h; self.tail = t; }
             }
             class P { field x; method init(a) { self.x = a; } }
             fn main() {
               var l = new Cons(new P(1), new Cons(new P(2), nil));
               print l.head.x;
             }",
        );
        // `tail` holds Cons-or-nil → rejected by the nil rule; `head` is
        // inlinable in principle.
        assert!(plan.entries.iter().all(|e| {
            let _ = e;
            true
        }));
        for e in &plan.entries {
            assert_ne!(e.child, e.declaring, "no self-nesting");
        }
    }

    #[test]
    fn same_pass_nesting_is_deferred() {
        // Rect inlines Point; Box inlines Rect — but not in the same pass.
        let (p, plan) = plan_for(
            "class Point { field x; method init(a) { self.x = a; } }
             class Rect { field ll; method init(a) { self.ll = a; } }
             class Box { field r; method init(a) { self.r = a; } }
             fn main() {
               var b = new Box(new Rect(new Point(1.0)));
               print b.r.ll.x;
             }",
        );
        let box_class = p.class_by_name("Box").unwrap();
        let r = p.interner.get("r").unwrap();
        assert!(
            plan.entry_for(box_class, r).is_none(),
            "Box.r must wait for pass 2"
        );
        let rect = p.class_by_name("Rect").unwrap();
        let ll = p.interner.get("ll").unwrap();
        assert!(
            plan.entry_for(rect, ll).is_some(),
            "rejected: {:?}",
            plan.rejected
        );
    }
}
