//! Use redirection and assignment rewriting (paper §5.3–§5.4).
//!
//! After restructuring, every access to an inlined field is redirected:
//!
//! - a **load** becomes [`oi_ir::Instr::MakeInterior`] — address arithmetic,
//!   no dereference;
//! - a **store** becomes field-wise copies into the inline state, or, when
//!   the stored value is a locally created object consumed only by this
//!   store, **in-place construction**: the child's `new` disappears and its
//!   constructor runs directly against the container's inline state (this
//!   is where allocation savings come from, e.g. merged cons cells);
//! - a planned reference-array allocation becomes
//!   [`oi_ir::Instr::NewArrayInline`] (element reads/stores adapt through
//!   the runtime's layout machinery; the element index is threaded inside
//!   the interior reference as §5.3 describes).

use crate::decision::InlinePlan;
use crate::fault::Fault;
use crate::usespec;
use oi_analysis::AnalysisResult;
use oi_ir::{Instr, MethodId, Program, Temp};

/// Statistics from one rewrite pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Loads redirected to interior references.
    pub loads_redirected: usize,
    /// Stores rewritten into copies.
    pub stores_copied: usize,
    /// Stores rewritten into in-place construction (allocation removed).
    pub stores_constructed_in_place: usize,
    /// Array allocations inlined.
    pub arrays_inlined: usize,
}

/// Rewrites every method against the (already restructured) plan.
///
/// `fault` is the rewrite-pass slice of the fault-injection matrix
/// ([`Fault::SkipUseRedirect`], [`Fault::DropAssignCopy`]); other variants
/// (and `None`) leave the rewrite untouched. Each fault fires at the first
/// applicable site only — a single injected miscompilation, like the real
/// bug it models.
pub fn apply(
    program: &mut Program,
    result: &AnalysisResult,
    plan: &InlinePlan,
    fault: Option<Fault>,
) -> RewriteStats {
    let mut stats = RewriteStats::default();
    let init_sym = program.interner.get("init");
    let mut seams = FaultSeams {
        skip_redirect: matches!(fault, Some(Fault::SkipUseRedirect)),
        drop_copy: matches!(fault, Some(Fault::DropAssignCopy)),
    };
    for mid in program.methods.ids().collect::<Vec<_>>() {
        rewrite_method(program, result, plan, mid, init_sym, &mut stats, &mut seams);
    }
    stats
}

/// One-shot fault triggers, consumed at the first applicable site.
struct FaultSeams {
    /// Leave the next redirectable load un-redirected.
    skip_redirect: bool,
    /// Omit the final field copy of the next store expansion.
    drop_copy: bool,
}

#[allow(clippy::too_many_arguments)]
fn rewrite_method(
    program: &mut Program,
    result: &AnalysisResult,
    plan: &InlinePlan,
    mid: MethodId,
    init_sym: Option<oi_support::Symbol>,
    stats: &mut RewriteStats,
    seams: &mut FaultSeams,
) {
    let block_ids: Vec<_> = program.methods[mid].blocks.ids().collect();
    for bb in block_ids {
        let old = std::mem::take(&mut program.methods[mid].blocks[bb].instrs);

        // Pre-pass: find stores eligible for in-place construction and the
        // New instruction they consume. in_place[j] = store index i means
        // "the New at j is constructed in place for the store at i".
        let mut in_place_new: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut in_place_store: std::collections::HashMap<usize, (usize, oi_ir::LayoutId)> =
            std::collections::HashMap::new();
        for (i, instr) in old.iter().enumerate() {
            match instr {
                Instr::SetField { obj, field, src } => {
                    let Some(layout) =
                        lookup_layout(program, result, plan, mid, bb, i, *obj, *field)
                    else {
                        continue;
                    };
                    let entry = plan
                        .entries
                        .iter()
                        .find(|e| e.layout == Some(layout))
                        .expect("layout belongs to an entry");
                    if let Some(j) = find_in_place_new(program, &old, i, &[*obj], *src, entry.child)
                    {
                        in_place_new.insert(j, i);
                        in_place_store.insert(i, (j, layout));
                    }
                }
                Instr::ArraySet { arr, idx, src } => {
                    let Some((layout, child)) = lookup_array_layout(result, plan, mid, *arr) else {
                        continue;
                    };
                    if let Some(j) = find_in_place_new(program, &old, i, &[*arr, *idx], *src, child)
                    {
                        in_place_new.insert(j, i);
                        in_place_store.insert(i, (j, layout));
                    }
                }
                _ => {}
            }
        }

        let mut new_instrs: Vec<Instr> = Vec::with_capacity(old.len());
        for (i, instr) in old.iter().enumerate() {
            match instr {
                Instr::GetField { dst, obj, field } => {
                    match lookup_layout(program, result, plan, mid, bb, i, *obj, *field) {
                        Some(layout) => {
                            if seams.skip_redirect {
                                // Injected §5.3 bug: this access keeps its
                                // original form against a field
                                // restructuring has removed.
                                seams.skip_redirect = false;
                                new_instrs.push(instr.clone());
                            } else {
                                stats.loads_redirected += 1;
                                new_instrs.push(Instr::MakeInterior {
                                    dst: *dst,
                                    obj: *obj,
                                    layout,
                                });
                            }
                        }
                        None => new_instrs.push(instr.clone()),
                    }
                }
                Instr::SetField { obj, field, src } => {
                    if let Some(&(new_idx, layout)) = in_place_store.get(&i) {
                        // The construction already happened at `new_idx`;
                        // the store disappears.
                        let _ = (new_idx, layout);
                        stats.stores_constructed_in_place += 1;
                        continue;
                    }
                    match lookup_layout(program, result, plan, mid, bb, i, *obj, *field) {
                        Some(layout) => {
                            stats.stores_copied += 1;
                            emit_copy(program, mid, &mut new_instrs, *obj, *src, layout, seams);
                        }
                        None => new_instrs.push(instr.clone()),
                    }
                }
                Instr::New {
                    dst,
                    class,
                    args,
                    site,
                } => {
                    if let Some(&store_idx) = in_place_new.get(&i) {
                        // Replace allocation with interior construction.
                        let (_, layout) = in_place_store[&store_idx];
                        match &old[store_idx] {
                            Instr::SetField { obj, .. } => {
                                new_instrs.push(Instr::MakeInterior {
                                    dst: *dst,
                                    obj: *obj,
                                    layout,
                                });
                            }
                            Instr::ArraySet { arr, idx, .. } => {
                                new_instrs.push(Instr::MakeInteriorElem {
                                    dst: *dst,
                                    arr: *arr,
                                    idx: *idx,
                                    layout,
                                });
                            }
                            _ => unreachable!("in-place target is a store"),
                        }
                        if let Some(init) = init_sym.and_then(|s| program.lookup_method(*class, s))
                        {
                            // Raw allocations (constructor explosion) have
                            // an explicit init call elsewhere; only emit
                            // the call when the New carried the arguments.
                            if program.methods[init].param_count as usize == args.len() {
                                let ret = fresh_temp(program, mid);
                                new_instrs.push(Instr::CallStatic {
                                    dst: ret,
                                    method: init,
                                    recv: *dst,
                                    args: args.clone(),
                                });
                            }
                        }
                        let _ = site;
                    } else {
                        new_instrs.push(instr.clone());
                    }
                }
                Instr::ArraySet { .. } => {
                    if in_place_store.contains_key(&i) {
                        // Constructed in place at the New; the store
                        // disappears.
                        stats.stores_constructed_in_place += 1;
                        continue;
                    }
                    new_instrs.push(instr.clone());
                }
                Instr::NewArray { dst, len, site } => {
                    match plan.array_sites.get(site).and_then(|a| a.layout) {
                        Some(layout) => {
                            stats.arrays_inlined += 1;
                            new_instrs.push(Instr::NewArrayInline {
                                dst: *dst,
                                len: *len,
                                layout,
                                site: *site,
                            });
                        }
                        None => new_instrs.push(instr.clone()),
                    }
                }
                _ => new_instrs.push(instr.clone()),
            }
        }
        program.methods[mid].blocks[bb].instrs = new_instrs;
    }
}

/// The layout to rewrite an access against, if the access touches a planned
/// field. The decision stage guarantees agreement, so the first planned
/// receiver class determines the layout.
#[allow(clippy::too_many_arguments)]
fn lookup_layout(
    program: &Program,
    result: &AnalysisResult,
    plan: &InlinePlan,
    method: MethodId,
    bb: oi_ir::BlockId,
    idx: usize,
    obj: Temp,
    field: oi_support::Symbol,
) -> Option<oi_ir::LayoutId> {
    let _ = (program, bb, idx);
    let info = usespec::receiver_info(result, method, obj);
    for class in &info.classes {
        if let Some(e) = plan.entry_for(*class, field) {
            return e.layout;
        }
    }
    None
}

/// The layout for a planned inline array the temp may hold — all reaching
/// array sites must be planned with the same layout.
fn lookup_array_layout(
    result: &AnalysisResult,
    plan: &InlinePlan,
    method: MethodId,
    arr: Temp,
) -> Option<(oi_ir::LayoutId, oi_ir::ClassId)> {
    let info = usespec::receiver_info(result, method, arr);
    if info.array_sites.is_empty() {
        return None;
    }
    let mut found: Option<(oi_ir::LayoutId, oi_ir::ClassId)> = None;
    for site in &info.array_sites {
        let entry = plan.array_sites.get(site)?;
        let layout = entry.layout?;
        match found {
            None => found = Some((layout, entry.child)),
            Some((l, _)) if l == layout => {}
            Some(_) => return None,
        }
    }
    found
}

/// Detects the in-place construction pattern for the store at `store_idx`:
/// a `new child(...)` earlier in the same block whose result flows (through
/// block-local moves) only into this store, with the container temps
/// (`stable`) unchanged in between.
fn find_in_place_new(
    program: &Program,
    instrs: &[Instr],
    store_idx: usize,
    stable: &[Temp],
    src: Temp,
    child: oi_ir::ClassId,
) -> Option<usize> {
    let child_init = program
        .interner
        .get("init")
        .and_then(|s| program.lookup_method(child, s));
    // Walk the move chain backwards from `src`.
    let mut cur = src;
    let mut chain: Vec<Temp> = vec![src];
    let mut new_idx: Option<usize>;
    #[allow(unused_assignments)]
    {
        new_idx = None;
    }
    'outer: loop {
        for j in (0..store_idx).rev() {
            match &instrs[j] {
                Instr::Move { dst, src: msrc } if *dst == cur => {
                    cur = *msrc;
                    chain.push(cur);
                    continue 'outer;
                }
                Instr::New { dst, class, .. } if *dst == cur => {
                    if *class != child {
                        return None;
                    }
                    new_idx = Some(j);
                    break 'outer;
                }
                other => {
                    if other.dst() == Some(cur) {
                        return None; // defined by something else
                    }
                }
            }
        }
        return None; // def not in this block
    }
    let j = new_idx?;

    // The container (and index) temps must not be redefined between the New
    // and the store.
    for instr in &instrs[j..store_idx] {
        if let Some(d) = instr.dst() {
            if stable.contains(&d) {
                return None;
            }
        }
    }
    // Chain temps must have no uses besides the moves and the store (their
    // value becomes an interior reference; any other consumer would observe
    // it — conservatively require none). Uses are scanned over the whole
    // block; cross-block uses disqualify via the temp still being live —
    // approximate by scanning all instructions of the block after the New.
    let mut uses = Vec::new();
    for (k, instr) in instrs.iter().enumerate() {
        uses.clear();
        instr.uses(&mut uses);
        for &u in &uses {
            if chain.contains(&u) {
                let is_the_store = k == store_idx;
                let is_chain_move = matches!(
                    instr,
                    Instr::Move { dst, src } if chain.contains(dst) && chain.contains(src)
                );
                // Construction-window operations keep working after the
                // child becomes an interior reference: the explicit
                // constructor call of the exploded form, initializing
                // stores/loads through the child, and interior references
                // into it (they compose).
                let in_window = k > j && k < store_idx;
                let is_construction = in_window
                    && match instr {
                        Instr::CallStatic {
                            method, recv, args, ..
                        } => {
                            Some(*method) == child_init
                                && chain.contains(recv)
                                && !args.iter().any(|a| chain.contains(a))
                        }
                        Instr::SetField { obj, src, .. } => {
                            chain.contains(obj) && !chain.contains(src)
                        }
                        Instr::GetField { obj, .. } => chain.contains(obj),
                        Instr::MakeInterior { obj, .. } => chain.contains(obj),
                        _ => false,
                    };
                if !is_the_store && !is_chain_move && !is_construction {
                    return None;
                }
            }
        }
        // A redefinition of a chain temp after the New also disqualifies.
        if k > j && k < store_idx {
            if let Some(d) = instr.dst() {
                if chain.contains(&d) && !matches!(instr, Instr::Move { .. } | Instr::New { .. }) {
                    return None;
                }
            }
        }
    }
    Some(j)
}

/// Emits the copy expansion of `obj.<inlined field> = src`.
fn emit_copy(
    program: &mut Program,
    mid: MethodId,
    out: &mut Vec<Instr>,
    obj: Temp,
    src: Temp,
    layout: oi_ir::LayoutId,
    seams: &mut FaultSeams,
) {
    let interior = fresh_temp(program, mid);
    out.push(Instr::MakeInterior {
        dst: interior,
        obj,
        layout,
    });
    let child_fields = program.layouts[layout].child_fields.clone();
    let last = child_fields.len().saturating_sub(1);
    for (k, g) in child_fields.into_iter().enumerate() {
        if k == last && seams.drop_copy {
            // Injected §5.4 bug: the final field of this pass-by-value
            // copy is silently dropped, leaving its inline slot
            // uninitialized (poison under checked execution).
            seams.drop_copy = false;
            continue;
        }
        let tmp = fresh_temp(program, mid);
        out.push(Instr::GetField {
            dst: tmp,
            obj: src,
            field: g,
        });
        out.push(Instr::SetField {
            obj: interior,
            field: g,
            src: tmp,
        });
    }
}

fn fresh_temp(program: &mut Program, mid: MethodId) -> Temp {
    let t = Temp::new(program.methods[mid].temp_count as usize);
    program.methods[mid].temp_count += 1;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::decide;
    use crate::pipeline::InlineConfig;
    use oi_analysis::{analyze, AnalysisConfig};
    use oi_ir::lower::compile;
    use std::collections::BTreeSet;

    fn transform(src: &str) -> (Program, RewriteStats) {
        let mut p = compile(src).unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let mut plan = decide(&p, &r, &InlineConfig::default(), &BTreeSet::new());
        crate::restructure::apply(&mut p, &mut plan);
        let stats = apply(&mut p, &r, &plan, None);
        oi_ir::verify::verify(&p).unwrap();
        (p, stats)
    }

    #[test]
    fn loads_become_interior_references() {
        let (p, stats) = transform(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
             }
             class Rect { field ll; field ur;
               method init(a, b) { self.ll = a; self.ur = b; }
             }
             fn main() {
               var r = new Rect(new Point(1.0, 2.0), new Point(3.0, 4.0));
               print r.ll.x + r.ur.y;
             }",
        );
        assert_eq!(stats.loads_redirected, 2, "r.ll and r.ur loads");
        assert!(stats.stores_copied + stats.stores_constructed_in_place == 2);
        // Transformed program must still run and print the same answer.
        let out = oi_vm::run(&p, &oi_vm::VmConfig::default()).unwrap();
        assert_eq!(out.output, "5.0\n");
    }

    #[test]
    fn in_place_construction_removes_allocations() {
        let (p, stats) = transform(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
             }
             class Rect { field ll; field ur;
               method init(a, b) { self.ll = new Point(a, a); self.ur = new Point(b, b); }
             }
             fn mk(i) {
               var r = new Rect(i, i + 1.0);
               return r.ll.x + r.ur.y;
             }
             fn main() { print mk(1.0) + mk(2.0); }",
        );
        // The Points are created at the assignment: the allocation
        // disappears and the constructor runs against the inline state.
        assert_eq!(
            stats.stores_constructed_in_place, 2,
            "expected in-place construction, got {stats:?}"
        );
        let out = oi_vm::run(&p, &oi_vm::VmConfig::default()).unwrap();
        assert_eq!(out.output, "8.0\n");
        // No Point allocations remain anywhere.
        let news: usize = p
            .methods
            .iter()
            .map(|m| {
                m.blocks
                    .iter()
                    .flat_map(|b| &b.instrs)
                    .filter(|i| {
                        matches!(i, Instr::New { class, .. }
                            if *class == p.class_by_name("Point").unwrap())
                    })
                    .count()
            })
            .sum();
        assert_eq!(news, 0);
    }

    #[test]
    fn array_allocation_is_inlined() {
        let (p, stats) = transform(
            "class P { field x; field y; method init(a, b) { self.x = a; self.y = b; } }
             fn main() {
               var a = array(8);
               var i = 0;
               while (i < 8) { a[i] = new P(i, 2 * i); i = i + 1; }
               var s = 0; i = 0;
               while (i < 8) { s = s + a[i].x + a[i].y; i = i + 1; }
               print s;
             }",
        );
        assert_eq!(stats.arrays_inlined, 1);
        let out = oi_vm::run(&p, &oi_vm::VmConfig::default()).unwrap();
        assert_eq!(out.output, "84\n");
    }

    #[test]
    fn behavior_preserved_under_mutation_through_container() {
        let (p, _) = transform(
            "class Point { field x; method init(a) { self.x = a; } }
             class Rect { field ll; method init(a) { self.ll = a; } }
             fn main() {
               var r = new Rect(new Point(10));
               r.ll.x = 42;
               print r.ll.x;
             }",
        );
        let out = oi_vm::run(&p, &oi_vm::VmConfig::default()).unwrap();
        assert_eq!(out.output, "42\n");
    }
}
