//! Structural verification of IR programs.
//!
//! The verifier is run after lowering and after every transformation stage;
//! it catches malformed programs early rather than as interpreter panics.

use crate::cfg;
use crate::instr::{Instr, Terminator};
use crate::program::{ClassId, Method, MethodId, Program, Temp};
use oi_support::{Diagnostic, Span};

/// Checks the whole program for structural validity.
///
/// Verified properties:
/// - the class hierarchy is acyclic and parents are in-bounds,
/// - every method's temps are within `temp_count`, parameters fit,
/// - every reachable block is terminated and targets are in-bounds,
/// - call/new/layout references are in-bounds,
/// - the inline-layout table is well-formed: object layouts map each child
///   field to a distinct, in-range container slot; array layouts carry no
///   container slots; interior references agree with their layout's kind,
/// - the entry method exists and takes no parameters.
///
/// # Errors
///
/// Returns all problems found (never an empty `Err` vector).
pub fn verify(program: &Program) -> Result<(), Vec<Diagnostic>> {
    let mut errors = Vec::new();

    verify_classes(program, &mut errors);
    verify_layouts(program, &mut errors);
    for (mid, method) in program.methods.iter_enumerated() {
        verify_method(program, mid, method, &mut errors);
    }
    if program.methods.get(program.entry).is_none() {
        errors.push(err("entry method out of bounds"));
    } else if program.methods[program.entry].param_count != 0 {
        errors.push(err("entry method must take no parameters"));
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn err(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::error(msg, Span::dummy())
}

fn verify_classes(program: &Program, errors: &mut Vec<Diagnostic>) {
    for (cid, class) in program.classes.iter_enumerated() {
        if let Some(p) = class.parent {
            if !program.classes.contains_id(p) {
                errors.push(err(format!("{cid:?}: parent out of bounds")));
                continue;
            }
        }
        // Acyclicity via bounded walk.
        let mut cur = class.parent;
        let mut steps = 0;
        while let Some(c) = cur {
            steps += 1;
            if steps > program.classes.len() {
                errors.push(err(format!(
                    "inheritance cycle reachable from class `{}`",
                    program.interner.resolve(class.name)
                )));
                break;
            }
            cur = program.classes[c].parent;
        }
        for &f in &class.own_fields {
            if !program.fields.contains_id(f) {
                errors.push(err(format!("{cid:?}: field id out of bounds")));
            }
        }
        for (&sel, &m) in &class.methods {
            if !program.methods.contains_id(m) {
                errors.push(err(format!(
                    "class `{}` method `{}` out of bounds",
                    program.interner.resolve(class.name),
                    program.interner.resolve(sel)
                )));
            }
        }
    }
}

/// Checks the inline-layout table produced by restructuring.
///
/// The verifier cannot know which container class a layout will be applied
/// to (that is only manifest at `MakeInterior` sites whose receiver class
/// is an analysis fact, not an IR fact), so slot bounds are checked against
/// the widest class layout in the program: a slot no class can hold is
/// definitely a restructuring bug.
fn verify_layouts(program: &Program, errors: &mut Vec<Diagnostic>) {
    let max_width = program
        .classes
        .ids()
        .map(|c| program.layout_of(c).len())
        .max()
        .unwrap_or(0);
    for (lid, layout) in program.layouts.iter_enumerated() {
        if !program.classes.contains_id(layout.child_class) {
            errors.push(err(format!("{lid:?}: child class out of bounds")));
            continue;
        }
        if layout.array_kind.is_some() {
            // Array element state is addressed by (index, field) per the
            // layout kind; container slots are meaningless here.
            if !layout.slots.is_empty() {
                errors.push(err(format!(
                    "{lid:?}: array layout must not carry container slots"
                )));
            }
            continue;
        }
        if layout.slots.len() != layout.child_fields.len() {
            errors.push(err(format!(
                "{lid:?}: slot table has {} entries for {} child fields",
                layout.slots.len(),
                layout.child_fields.len()
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for &s in &layout.slots {
            if s >= max_width {
                errors.push(err(format!(
                    "{lid:?}: slot {s} out of range (widest class layout has {max_width} slots)"
                )));
            }
            if !seen.insert(s) {
                errors.push(err(format!(
                    "{lid:?}: duplicate container slot {s} (child fields would alias)"
                )));
            }
        }
    }
}

fn verify_method(program: &Program, mid: MethodId, method: &Method, errors: &mut Vec<Diagnostic>) {
    let name = program.method_display(mid);
    if method.temp_count < method.param_count + 1 {
        errors.push(err(format!("{name}: temp_count smaller than self+params")));
    }
    if method.blocks.is_empty() {
        errors.push(err(format!("{name}: no blocks")));
        return;
    }
    let check_temp = |t: Temp, errors: &mut Vec<Diagnostic>| {
        if t.index() >= method.temp_count as usize {
            errors.push(err(format!("{name}: temp {t:?} out of range")));
        }
    };
    let check_class = |c: ClassId, errors: &mut Vec<Diagnostic>| {
        if !program.classes.contains_id(c) {
            errors.push(err(format!("{name}: class {c:?} out of bounds")));
        }
    };
    for (bb, block) in method.blocks.iter_enumerated() {
        for instr in &block.instrs {
            if let Some(d) = instr.dst() {
                check_temp(d, errors);
            }
            let mut uses = Vec::new();
            instr.uses(&mut uses);
            for u in uses {
                check_temp(u, errors);
            }
            match instr {
                Instr::New {
                    class, args, site, ..
                } => {
                    check_class(*class, errors);
                    if site.index() >= program.site_count as usize {
                        errors.push(err(format!(
                            "{name}: allocation site {site:?} out of range"
                        )));
                    }
                    if let Some(init_sym) = program.interner.get("init") {
                        if let Some(init) = program.lookup_method(*class, init_sym) {
                            // Empty args are the "raw allocation" form used
                            // after constructor explosion: the constructor
                            // is invoked explicitly by a following call.
                            if !args.is_empty()
                                && program.methods[init].param_count as usize != args.len()
                            {
                                errors.push(err(format!("{name}: constructor arity mismatch")));
                            }
                        }
                    }
                }
                Instr::NewArray { site, .. } | Instr::NewArrayInline { site, .. } => {
                    if site.index() >= program.site_count as usize {
                        errors.push(err(format!(
                            "{name}: allocation site {site:?} out of range"
                        )));
                    }
                    if let Instr::NewArrayInline { layout, .. } = instr {
                        if !program.layouts.contains_id(*layout) {
                            errors.push(err(format!("{name}: layout {layout:?} out of bounds")));
                        } else if program.layouts[*layout].array_kind.is_none() {
                            errors.push(err(format!(
                                "{name}: inline array allocated with object layout {layout:?}"
                            )));
                        }
                    }
                }
                Instr::CallStatic {
                    method: target,
                    args,
                    ..
                } => {
                    if !program.methods.contains_id(*target) {
                        errors.push(err(format!("{name}: call target out of bounds")));
                    } else if program.methods[*target].param_count as usize != args.len() {
                        errors.push(err(format!(
                            "{name}: static call arity mismatch calling {}",
                            program.method_display(*target)
                        )));
                    }
                }
                Instr::GetGlobal { global, .. } | Instr::SetGlobal { global, .. }
                    if !program.globals.contains_id(*global) =>
                {
                    errors.push(err(format!("{name}: global {global:?} out of bounds")));
                }
                Instr::MakeInterior { layout, .. } => {
                    if !program.layouts.contains_id(*layout) {
                        errors.push(err(format!("{name}: layout {layout:?} out of bounds")));
                    } else if program.layouts[*layout].array_kind.is_some() {
                        errors.push(err(format!(
                            "{name}: object interior reference built from array layout \
                             {layout:?} (type-confused)"
                        )));
                    }
                }
                Instr::MakeInteriorElem { layout, .. } => {
                    if !program.layouts.contains_id(*layout) {
                        errors.push(err(format!("{name}: layout {layout:?} out of bounds")));
                    } else if program.layouts[*layout].array_kind.is_none() {
                        errors.push(err(format!(
                            "{name}: array-element interior reference built from object \
                             layout {layout:?} (type-confused)"
                        )));
                    }
                }
                _ => {}
            }
        }
        let mut term_uses = Vec::new();
        block.term.uses(&mut term_uses);
        for u in term_uses {
            check_temp(u, errors);
        }
        for succ in block.term.successors() {
            if !method.blocks.contains_id(succ) {
                errors.push(err(format!(
                    "{name}: {bb:?} jumps to out-of-bounds {succ:?}"
                )));
            }
        }
    }
    let reachable = cfg::reachable_blocks(method);
    for (bb, block) in method.blocks.iter_enumerated() {
        if reachable[bb.index()] && matches!(block.term, Terminator::Unterminated) {
            errors.push(err(format!("{name}: reachable {bb:?} is unterminated")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn lowered_programs_verify() {
        let p = compile(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
               method abs() { return sqrt(self.x * self.x + self.y * self.y); }
             }
             fn main() {
               var p = new Point(3.0, 4.0);
               print p.abs();
             }",
        )
        .unwrap();
        verify(&p).unwrap();
    }

    #[test]
    fn detects_out_of_range_temp() {
        let mut p = compile("fn main() { print 1; }").unwrap();
        let entry = p.entry;
        p.methods[entry].temp_count = 1; // too small for the consts used
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out of range")));
    }

    #[test]
    fn detects_bad_jump_target() {
        let mut p = compile("fn main() { print 1; }").unwrap();
        let entry = p.entry;
        let bb = p.methods[entry].entry();
        p.methods[entry].blocks[bb].term = Terminator::Jump(crate::program::BlockId::new(99));
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out-of-bounds")));
    }

    #[test]
    fn detects_unterminated_reachable_block() {
        let mut p = compile("fn main() { print 1; }").unwrap();
        let entry = p.entry;
        let bb = p.methods[entry].entry();
        p.methods[entry].blocks[bb].term = Terminator::Unterminated;
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unterminated")));
    }

    /// A two-class program plus a hand-built object layout, the shape
    /// restructuring produces for `Rect { ll: Point }`.
    fn program_with_layout() -> (crate::program::Program, crate::program::LayoutId) {
        let mut p = compile(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
             }
             class Rect { field ll; field ur;
               method init(a, b) { self.ll = a; self.ur = b; }
             }
             fn main() { print 1; }",
        )
        .unwrap();
        let x = p.interner.get("x").unwrap();
        let y = p.interner.get("y").unwrap();
        let point = p.class_by_name("Point").unwrap();
        let lid = p.layouts.push(crate::program::InlineLayout {
            child_class: point,
            child_fields: vec![x, y],
            slots: vec![0, 1],
            array_kind: None,
        });
        (p, lid)
    }

    #[test]
    fn well_formed_layout_verifies() {
        let (p, _) = program_with_layout();
        verify(&p).unwrap();
    }

    #[test]
    fn detects_dangling_layout_child_class() {
        let (mut p, lid) = program_with_layout();
        p.layouts[lid].child_class = ClassId::new(99);
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("child class")));
    }

    #[test]
    fn detects_slot_table_width_mismatch() {
        let (mut p, lid) = program_with_layout();
        p.layouts[lid].slots.pop(); // 1 slot for 2 child fields
        let errs = verify(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("entries for 2 child fields")));
    }

    #[test]
    fn detects_aliasing_duplicate_slots() {
        let (mut p, lid) = program_with_layout();
        p.layouts[lid].slots = vec![1, 1]; // x and y share a word
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("duplicate")));
    }

    #[test]
    fn detects_out_of_range_slot_after_restructuring() {
        let (mut p, lid) = program_with_layout();
        p.layouts[lid].slots = vec![0, 57]; // no class is 58 words wide
        let errs = verify(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("slot 57 out of range")));
    }

    #[test]
    fn detects_slots_on_array_layout() {
        let (mut p, lid) = program_with_layout();
        p.layouts[lid].array_kind = Some(crate::program::ArrayLayoutKind::Interleaved);
        let errs = verify(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("must not carry container slots")));
    }

    #[test]
    fn detects_type_confused_interior_references() {
        // An object interior reference built from an array layout, and an
        // array-element interior reference built from an object layout.
        let (mut p, object_layout) = program_with_layout();
        let x = p.interner.get("x").unwrap();
        let point = p.class_by_name("Point").unwrap();
        let array_layout = p.layouts.push(crate::program::InlineLayout {
            child_class: point,
            child_fields: vec![x],
            slots: vec![],
            array_kind: Some(crate::program::ArrayLayoutKind::Parallel),
        });
        let entry = p.entry;
        let method = &mut p.methods[entry];
        method.temp_count += 3;
        let t = |n| Temp::new(n);
        let bb = method.entry();
        method.blocks[bb].instrs.push(Instr::MakeInterior {
            dst: t(1),
            obj: t(0),
            layout: array_layout,
        });
        method.blocks[bb].instrs.push(Instr::MakeInteriorElem {
            dst: t(2),
            arr: t(0),
            idx: t(3),
            layout: object_layout,
        });
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e
            .message
            .contains("object interior reference built from array layout")));
        assert!(errs.iter().any(|e| e
            .message
            .contains("array-element interior reference built from object")));
    }

    #[test]
    fn detects_arity_mismatch_after_mutation() {
        let mut p = compile(
            "fn callee(a) { return a; }
             fn main() { print callee(1); }",
        )
        .unwrap();
        // Break the call by dropping the argument.
        let entry = p.entry;
        for block in p.methods[entry].blocks.iter_mut() {
            for instr in &mut block.instrs {
                if let Instr::CallStatic { args, .. } = instr {
                    args.clear();
                }
            }
        }
        let errs = verify(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("arity")));
    }
}
