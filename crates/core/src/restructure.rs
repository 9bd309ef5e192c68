//! Class restructuring (paper §5.2).
//!
//! "Both constraints can be satisfied by replacing the inlined field with
//! one field from the inlined class, and adding the rest of the fields at
//! the end of the fields of the container class" — Figure 11. The
//! replacement slot sits in the declaring class's segment (so it has the
//! same index in every subclass), and the appended fields go at the end of
//! the declaring class's own segment for uniform entries (all subclasses
//! shift consistently and stay layout-conforming) or at the end of the
//! concrete class's own segment for divergent entries.

use crate::decision::InlinePlan;
use oi_ir::{Field, InlineLayout, Program};
use oi_support::Symbol;

/// Applies the plan's layout changes to `program`, filling in each entry's
/// [`oi_ir::LayoutId`].
///
/// # Panics
///
/// Panics if an entry's field is not present in its declaring class (plan
/// and program out of sync).
pub fn apply(program: &mut Program, plan: &mut InlinePlan) {
    // Phase 1: structural edits to own_fields.
    // For divergent groups, the shared replacement slot is created once per
    // (declaring, field).
    let mut entry_first_field: Vec<Option<oi_ir::FieldId>> = vec![None; plan.entries.len()];
    let mut entry_rest_fields: Vec<Vec<oi_ir::FieldId>> = vec![Vec::new(); plan.entries.len()];
    let mut divergent_slot: std::collections::HashMap<(oi_ir::ClassId, Symbol), oi_ir::FieldId> =
        std::collections::HashMap::new();

    for (i, entry) in plan.entries.iter().enumerate() {
        let child_layout = program.layout_of(entry.child);
        let child_names: Vec<Symbol> = child_layout
            .iter()
            .map(|&f| program.fields[f].name)
            .collect();
        assert!(
            !child_names.is_empty(),
            "zero-width child was filtered by the decision"
        );
        let fname_str = program.interner.resolve(entry.field).to_owned();

        if entry.uniform {
            // Replace the field in the declaring class and append the rest
            // to the declaring class's own segment.
            let declaring = entry.declaring;
            let pos = program.classes[declaring]
                .own_fields
                .iter()
                .position(|&f| program.fields[f].name == entry.field)
                .expect("declaring class owns the inlined field");
            let mut new_ids = Vec::new();
            for name in &child_names {
                let combined =
                    format!("{fname_str}${}", program.interner.resolve(*name).to_owned());
                let sym = program.interner.fresh(&combined);
                new_ids.push(program.fields.push(Field {
                    name: sym,
                    owner: declaring,
                    annotations: vec![],
                }));
            }
            program.classes[declaring].own_fields[pos] = new_ids[0];
            program.classes[declaring]
                .own_fields
                .extend(new_ids[1..].iter().copied());
            entry_first_field[i] = Some(new_ids[0]);
            entry_rest_fields[i] = new_ids[1..].to_vec();
        } else {
            // Divergent: shared replacement slot in the declaring class,
            // per-concrete-class extras.
            let declaring = entry.declaring;
            let slot_fid = *divergent_slot
                .entry((declaring, entry.field))
                .or_insert_with(|| {
                    let pos = program.classes[declaring]
                        .own_fields
                        .iter()
                        .position(|&f| program.fields[f].name == entry.field)
                        .expect("declaring class owns the inlined field");
                    let sym = program.interner.fresh(&format!("{fname_str}$inline"));
                    let fid = program.fields.push(Field {
                        name: sym,
                        owner: declaring,
                        annotations: vec![],
                    });
                    program.classes[declaring].own_fields[pos] = fid;
                    fid
                });
            entry_first_field[i] = Some(slot_fid);
            let concrete = entry.containers[0];
            let mut rest = Vec::new();
            for name in child_names.iter().skip(1) {
                let combined =
                    format!("{fname_str}${}", program.interner.resolve(*name).to_owned());
                let sym = program.interner.fresh(&combined);
                rest.push(program.fields.push(Field {
                    name: sym,
                    owner: concrete,
                    annotations: vec![],
                }));
            }
            program.classes[concrete]
                .own_fields
                .extend(rest.iter().copied());
            entry_rest_fields[i] = rest;
        }
    }

    // Phase 2: with all own_fields final, compute slot indices and create
    // the layouts.
    for (i, entry) in plan.entries.iter_mut().enumerate() {
        let child_names: Vec<Symbol> = program
            .layout_of(entry.child)
            .iter()
            .map(|&f| program.fields[f].name)
            .collect();
        // Slots are computed in a representative container's layout; for
        // uniform entries the new fields live in the declaring class's
        // segment, so indices agree across all subclasses.
        let container = if entry.uniform {
            entry.declaring
        } else {
            entry.containers[0]
        };
        let container_layout = program.layout_of(container);
        let slot_of = |fid: oi_ir::FieldId| -> usize {
            container_layout
                .iter()
                .position(|&f| f == fid)
                .expect("new field is in the container layout")
        };
        let mut slots = vec![slot_of(entry_first_field[i].expect("filled in phase 1"))];
        slots.extend(entry_rest_fields[i].iter().map(|&f| slot_of(f)));
        let layout = program.layouts.push(InlineLayout {
            child_class: entry.child,
            child_fields: child_names,
            slots,
            array_kind: None,
        });
        entry.layout = Some(layout);
    }

    // Array entries: pure layout-table additions, no class restructuring.
    for (_, a) in plan.array_sites.iter_mut() {
        if a.pre_existing {
            continue; // keeps its existing layout
        }
        let child_names: Vec<Symbol> = program
            .layout_of(a.child)
            .iter()
            .map(|&f| program.fields[f].name)
            .collect();
        let layout = program.layouts.push(InlineLayout {
            child_class: a.child,
            child_fields: child_names,
            slots: vec![],
            array_kind: Some(a.kind),
        });
        a.layout = Some(layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::decide;
    use crate::pipeline::InlineConfig;
    use oi_analysis::{analyze, AnalysisConfig};
    use oi_ir::lower::compile;
    use std::collections::BTreeSet;

    #[test]
    fn uniform_restructure_replaces_and_appends() {
        let mut p = compile(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
             }
             class Rect { field ll; field ur;
               method init(a, b) { self.ll = a; self.ur = b; }
             }
             class Para : Rect { field extra; }
             fn main() {
               var r = new Rect(new Point(1.0, 2.0), new Point(3.0, 4.0));
               print r.ll.x + r.ur.y;
             }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let mut plan = decide(&p, &r, &InlineConfig::default(), &BTreeSet::new());
        assert_eq!(plan.entries.len(), 2);
        apply(&mut p, &mut plan);

        let rect = p.class_by_name("Rect").unwrap();
        let para = p.class_by_name("Para").unwrap();
        // Rect layout: ll$x, ur$x(?), ... — 2 fields each → 4 slots.
        assert_eq!(p.layout_of(rect).len(), 4);
        // Para = Rect prefix + extra.
        let para_layout = p.layout_of(para);
        assert_eq!(para_layout.len(), 5);
        assert_eq!(&para_layout[..4], &p.layout_of(rect)[..]);
        // Old field names are gone.
        let ll = p.interner.get("ll").unwrap();
        assert!(p.slot_of(rect, ll).is_none());
        // Layouts point at valid slots.
        for e in &plan.entries {
            let layout = &p.layouts[e.layout.unwrap()];
            assert_eq!(layout.slots.len(), 2);
            assert!(layout.slots.iter().all(|&s| s < 4));
        }
        // The first child field replaced the original slot: slot 0 for ll.
        let e_ll = plan.entry_for(rect, ll).unwrap();
        assert_eq!(p.layouts[e_ll.layout.unwrap()].slots[0], 0);
        oi_ir::verify::verify(&p).unwrap();
    }

    #[test]
    fn divergent_restructure_shares_replacement_slot() {
        let mut p = compile(
            "class DevPacket { field a; method init(v) { self.a = v; } }
             class HandPacket { field b; field c; method init(v, w) { self.b = v; self.c = w; } }
             class Task { field data; field next; }
             class DevTask : Task {
               method init() { self.data = new DevPacket(1); self.next = 0; }
               method go() { return self.data.a; }
             }
             class HandTask : Task {
               method init() { self.data = new HandPacket(2, 3); self.next = 0; }
               method go() { return self.data.b + self.data.c; }
             }
             fn main() {
               var t1 = new DevTask(); var t2 = new HandTask();
               print t1.go() + t2.go();
             }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        let mut plan = decide(&p, &r, &InlineConfig::default(), &BTreeSet::new());
        assert_eq!(plan.entries.len(), 2, "rejected: {:?}", plan.rejected);
        apply(&mut p, &mut plan);

        let dev = p.class_by_name("DevTask").unwrap();
        let hand = p.class_by_name("HandTask").unwrap();
        let task = p.class_by_name("Task").unwrap();
        let data = p.interner.get("data").unwrap();
        let next = p.interner.get("next").unwrap();
        // `next` keeps the same slot in both subclasses (conformance).
        assert_eq!(p.slot_of(dev, next), p.slot_of(hand, next));
        // Both entries' first child field shares the replacement slot.
        let e_dev = plan.entry_for(dev, data).unwrap();
        let e_hand = plan.entry_for(hand, data).unwrap();
        assert_eq!(
            p.layouts[e_dev.layout.unwrap()].slots[0],
            p.layouts[e_hand.layout.unwrap()].slots[0]
        );
        // HandTask grew an extra word for HandPacket's second field.
        assert_eq!(p.layout_of(hand).len(), p.layout_of(task).len() + 1);
        assert_eq!(p.layout_of(dev).len(), p.layout_of(task).len());
    }
}
