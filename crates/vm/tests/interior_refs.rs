//! Direct tests of the interior-reference machinery: hand-built programs
//! with explicit layouts exercising object-in-object composition,
//! interleaved and parallel array addressing, and error paths — without
//! going through the optimizer.

use oi_ir::builder::FunctionBuilder;
use oi_ir::{
    ArrayLayoutKind, Class, ClassId, ConstValue, Field, InlineLayout, Instr, Method, Program,
    Terminator,
};
use oi_support::{IdxVec, Interner};
use oi_vm::{run, VmConfig, VmError};
use std::collections::HashMap;

/// Builds a program skeleton: `$Main` plus a `Flat` class whose layout is
/// `[a, b, c, d]` (standing for a container with two inlined two-field
/// children), plus layouts describing the children.
struct Fixture {
    interner: Interner,
    classes: IdxVec<ClassId, Class>,
    fields: IdxVec<oi_ir::FieldId, Field>,
    layouts: IdxVec<oi_ir::LayoutId, InlineLayout>,
}

impl Fixture {
    fn new() -> Self {
        let mut interner = Interner::new();
        let main_name = interner.intern("$Main");
        let mut classes = IdxVec::new();
        classes.push(Class {
            name: main_name,
            parent: None,
            own_fields: vec![],
            methods: HashMap::new(),
        });
        Self {
            interner,
            classes,
            fields: IdxVec::new(),
            layouts: IdxVec::new(),
        }
    }

    fn add_class(&mut self, name: &str, field_names: &[&str]) -> ClassId {
        let cname = self.interner.intern(name);
        let id = self.classes.push(Class {
            name: cname,
            parent: None,
            own_fields: vec![],
            methods: HashMap::new(),
        });
        for f in field_names {
            let fname = self.interner.intern(f);
            let fid = self.fields.push(Field {
                name: fname,
                owner: id,
                annotations: vec![],
            });
            self.classes[id].own_fields.push(fid);
        }
        id
    }

    fn finish(self, entry_body: Method, site_count: u32) -> Program {
        let mut methods = IdxVec::new();
        let entry = methods.push(entry_body);
        Program {
            interner: self.interner,
            classes: self.classes,
            methods,
            fields: self.fields,
            globals: IdxVec::new(),
            layouts: self.layouts,
            site_count,
            entry,
        }
    }
}

#[test]
fn object_layout_reads_and_writes_container_slots() {
    let mut fx = Fixture::new();
    // Container with 3 raw slots; child Pt(x, y) mapped to slots [0, 2]
    // (the paper's replace-first/append-rest shape).
    let container = fx.add_class("Container", &["s0", "s1", "s2"]);
    let pt = fx.add_class("Pt", &["x", "y"]);
    let x = fx.interner.intern("x");
    let y = fx.interner.intern("y");
    let layout = fx.layouts.push(InlineLayout {
        child_class: pt,
        child_fields: vec![x, y],
        slots: vec![0, 2],
        array_kind: None,
    });

    let mname = fx.interner.intern("main");
    let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
    let obj = b.new_temp();
    b.push(Instr::New {
        dst: obj,
        class: container,
        args: vec![],
        site: oi_ir::SiteId::new(0),
    });
    let interior = b.new_temp();
    b.push(Instr::MakeInterior {
        dst: interior,
        obj,
        layout,
    });
    let v1 = b.push_const(ConstValue::Int(41));
    b.push(Instr::SetField {
        obj: interior,
        field: x,
        src: v1,
    });
    let v2 = b.push_const(ConstValue::Int(1));
    b.push(Instr::SetField {
        obj: interior,
        field: y,
        src: v2,
    });
    let rx = b.new_temp();
    b.push(Instr::GetField {
        dst: rx,
        obj: interior,
        field: x,
    });
    let ry = b.new_temp();
    b.push(Instr::GetField {
        dst: ry,
        obj: interior,
        field: y,
    });
    let sum = b.new_temp();
    b.push(Instr::Binary {
        dst: sum,
        op: oi_ir::BinOp::Add,
        lhs: rx,
        rhs: ry,
    });
    b.push(Instr::Print { src: sum });
    // Also read slot s2 through the container's own field name: it must be
    // the child's y.
    let s2 = fx.interner.intern("s2");
    let raw = b.new_temp();
    b.push(Instr::GetField {
        dst: raw,
        obj,
        field: s2,
    });
    b.push(Instr::Print { src: raw });
    let r = b.push_const(ConstValue::Nil);
    b.terminate(Terminator::Return(r));

    let program = fx.finish(b.finish(), 1);
    oi_ir::verify::verify(&program).unwrap();
    let out = run(&program, &VmConfig::default()).unwrap();
    assert_eq!(out.output, "42\n1\n");
}

#[test]
fn interleaved_and_parallel_arrays_address_identically() {
    for kind in [ArrayLayoutKind::Interleaved, ArrayLayoutKind::Parallel] {
        let mut fx = Fixture::new();
        let pt = fx.add_class("Pt", &["x", "y"]);
        let x = fx.interner.intern("x");
        let y = fx.interner.intern("y");
        let layout = fx.layouts.push(InlineLayout {
            child_class: pt,
            child_fields: vec![x, y],
            slots: vec![],
            array_kind: Some(kind),
        });

        let mname = fx.interner.intern("main");
        let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
        let len = b.push_const(ConstValue::Int(4));
        let arr = b.new_temp();
        b.push(Instr::NewArrayInline {
            dst: arr,
            len,
            layout,
            site: oi_ir::SiteId::new(0),
        });
        // Write (i, 10i) into each element, then sum x + y over all.
        for i in 0..4 {
            let idx = b.push_const(ConstValue::Int(i));
            let elem = b.new_temp();
            b.push(Instr::MakeInteriorElem {
                dst: elem,
                arr,
                idx,
                layout,
            });
            let vx = b.push_const(ConstValue::Int(i));
            b.push(Instr::SetField {
                obj: elem,
                field: x,
                src: vx,
            });
            let vy = b.push_const(ConstValue::Int(10 * i));
            b.push(Instr::SetField {
                obj: elem,
                field: y,
                src: vy,
            });
        }
        let mut acc = b.push_const(ConstValue::Int(0));
        for i in 0..4 {
            let idx = b.push_const(ConstValue::Int(i));
            let elem = b.new_temp();
            b.push(Instr::MakeInteriorElem {
                dst: elem,
                arr,
                idx,
                layout,
            });
            let vx = b.new_temp();
            b.push(Instr::GetField {
                dst: vx,
                obj: elem,
                field: x,
            });
            let vy = b.new_temp();
            b.push(Instr::GetField {
                dst: vy,
                obj: elem,
                field: y,
            });
            let t = b.new_temp();
            b.push(Instr::Binary {
                dst: t,
                op: oi_ir::BinOp::Add,
                lhs: vx,
                rhs: vy,
            });
            let t2 = b.new_temp();
            b.push(Instr::Binary {
                dst: t2,
                op: oi_ir::BinOp::Add,
                lhs: acc,
                rhs: t,
            });
            acc = t2;
        }
        b.push(Instr::Print { src: acc });
        let r = b.push_const(ConstValue::Nil);
        b.terminate(Terminator::Return(r));

        let program = fx.finish(b.finish(), 1);
        oi_ir::verify::verify(&program).unwrap();
        let out = run(&program, &VmConfig::default()).unwrap();
        // sum of i + 10i for i in 0..4 = (0+1+2+3) * 11 = 66
        assert_eq!(out.output, "66\n", "{kind:?}");
    }
}

#[test]
fn interior_element_index_is_bounds_checked() {
    let mut fx = Fixture::new();
    let pt = fx.add_class("Pt", &["x"]);
    let x = fx.interner.intern("x");
    let layout = fx.layouts.push(InlineLayout {
        child_class: pt,
        child_fields: vec![x],
        slots: vec![],
        array_kind: Some(ArrayLayoutKind::Interleaved),
    });
    let mname = fx.interner.intern("main");
    let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
    let len = b.push_const(ConstValue::Int(2));
    let arr = b.new_temp();
    b.push(Instr::NewArrayInline {
        dst: arr,
        len,
        layout,
        site: oi_ir::SiteId::new(0),
    });
    let idx = b.push_const(ConstValue::Int(5));
    let elem = b.new_temp();
    b.push(Instr::MakeInteriorElem {
        dst: elem,
        arr,
        idx,
        layout,
    });
    let r = b.push_const(ConstValue::Nil);
    b.terminate(Terminator::Return(r));

    let program = fx.finish(b.finish(), 1);
    let err = run(&program, &VmConfig::default()).unwrap_err();
    assert_eq!(err, VmError::IndexOutOfBounds { index: 5, len: 2 });
}

#[test]
fn make_interior_on_nil_is_a_nil_dereference() {
    let mut fx = Fixture::new();
    let pt = fx.add_class("Pt", &["x"]);
    let x = fx.interner.intern("x");
    let layout = fx.layouts.push(InlineLayout {
        child_class: pt,
        child_fields: vec![x],
        slots: vec![0],
        array_kind: None,
    });
    let mname = fx.interner.intern("main");
    let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
    let nil = b.push_const(ConstValue::Nil);
    let interior = b.new_temp();
    b.push(Instr::MakeInterior {
        dst: interior,
        obj: nil,
        layout,
    });
    let r = b.push_const(ConstValue::Nil);
    b.terminate(Terminator::Return(r));

    let program = fx.finish(b.finish(), 1);
    let err = run(&program, &VmConfig::default()).unwrap_err();
    assert!(matches!(err, VmError::NilDereference { .. }));
}

#[test]
fn composed_interiors_reach_the_outermost_container() {
    // Array of "Rect" state where each element's layout slots [0..4] and
    // a nested "Pt" object layout over Rect mapping [x, y] -> rect slots
    // [0, 3] (non-contiguous). Composition must address the array.
    let mut fx = Fixture::new();
    let rect = fx.add_class("Rect", &["r0", "r1", "r2", "r3"]);
    let pt = fx.add_class("Pt", &["x", "y"]);
    let x = fx.interner.intern("x");
    let y = fx.interner.intern("y");
    let arr_layout = fx.layouts.push(InlineLayout {
        child_class: rect,
        child_fields: vec![
            fx.interner.intern("r0"),
            fx.interner.intern("r1"),
            fx.interner.intern("r2"),
            fx.interner.intern("r3"),
        ],
        slots: vec![],
        array_kind: Some(ArrayLayoutKind::Parallel),
    });
    let pt_layout = fx.layouts.push(InlineLayout {
        child_class: pt,
        child_fields: vec![x, y],
        slots: vec![0, 3],
        array_kind: None,
    });

    let mname = fx.interner.intern("main");
    let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
    let len = b.push_const(ConstValue::Int(3));
    let arr = b.new_temp();
    b.push(Instr::NewArrayInline {
        dst: arr,
        len,
        layout: arr_layout,
        site: oi_ir::SiteId::new(0),
    });
    // elem 2's nested point: write through the composed interior, read back
    // through the raw element fields.
    let idx = b.push_const(ConstValue::Int(2));
    let elem = b.new_temp();
    b.push(Instr::MakeInteriorElem {
        dst: elem,
        arr,
        idx,
        layout: arr_layout,
    });
    let nested = b.new_temp();
    b.push(Instr::MakeInterior {
        dst: nested,
        obj: elem,
        layout: pt_layout,
    });
    let vx = b.push_const(ConstValue::Int(7));
    b.push(Instr::SetField {
        obj: nested,
        field: x,
        src: vx,
    });
    let vy = b.push_const(ConstValue::Int(9));
    b.push(Instr::SetField {
        obj: nested,
        field: y,
        src: vy,
    });
    // Read back via the element's own field names r0 and r3.
    let r0 = fx.interner.intern("r0");
    let r3 = fx.interner.intern("r3");
    let a0 = b.new_temp();
    b.push(Instr::GetField {
        dst: a0,
        obj: elem,
        field: r0,
    });
    let a3 = b.new_temp();
    b.push(Instr::GetField {
        dst: a3,
        obj: elem,
        field: r3,
    });
    b.push(Instr::Print { src: a0 });
    b.push(Instr::Print { src: a3 });
    let r = b.push_const(ConstValue::Nil);
    b.terminate(Terminator::Return(r));

    let program = fx.finish(b.finish(), 1);
    oi_ir::verify::verify(&program).unwrap();
    let out = run(&program, &VmConfig::default()).unwrap();
    assert_eq!(out.output, "7\n9\n");
}

/// Runs `program` one-shot under the plain, profiled and fully checked
/// configurations; each must trap with the same error after the same
/// fuel, which is returned.
fn trap(program: &Program) -> (VmError, u64) {
    use oi_vm::{CheckLevel, FuelOutcome, VmSession};
    let configs = [
        VmConfig::default(),
        VmConfig {
            profile: true,
            ..Default::default()
        },
        VmConfig {
            checked: CheckLevel::Full,
            ..Default::default()
        },
    ];
    let mut seen: Option<(VmError, u64)> = None;
    for config in configs {
        let mut session = VmSession::new(program, &config).unwrap();
        let FuelOutcome::Trapped { fuel_spent, error } = session.run_fuel(program, u64::MAX) else {
            panic!("expected a trap under {config:?}");
        };
        assert_eq!(run(program, &config).unwrap_err(), error, "{config:?}");
        match &seen {
            Some(first) => assert_eq!(first, &(error, fuel_spent), "{config:?}"),
            None => seen = Some((error, fuel_spent)),
        }
    }
    seen.unwrap()
}

/// An interior formed over a nil container and read or written through by
/// the next instruction traps at the `MakeInterior*`, before the
/// `GetField`/`SetField` dispatches.
#[test]
fn access_through_interior_of_nil_container_traps_at_the_interior() {
    for read in [true, false] {
        let mut fx = Fixture::new();
        let pt = fx.add_class("Pt", &["x"]);
        let x = fx.interner.intern("x");
        let layout = fx.layouts.push(InlineLayout {
            child_class: pt,
            child_fields: vec![x],
            slots: vec![0],
            array_kind: None,
        });
        let mname = fx.interner.intern("main");
        let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
        let nil = b.push_const(ConstValue::Nil);
        let one = b.push_const(ConstValue::Int(1));
        let interior = b.new_temp();
        b.push(Instr::MakeInterior {
            dst: interior,
            obj: nil,
            layout,
        });
        push_access(&mut b, interior, x, one, read);
        let r = b.push_const(ConstValue::Nil);
        b.terminate(Terminator::Return(r));
        let program = fx.finish(b.finish(), 1);
        assert_eq!(
            trap(&program),
            (
                VmError::NilDereference {
                    context: "interior reference".to_owned()
                },
                3
            ),
            "read {read}"
        );
    }
    // The array form: a nil inline array.
    for read in [true, false] {
        let mut fx = Fixture::new();
        let pt = fx.add_class("Pt", &["x"]);
        let x = fx.interner.intern("x");
        let layout = fx.layouts.push(InlineLayout {
            child_class: pt,
            child_fields: vec![x],
            slots: vec![],
            array_kind: Some(ArrayLayoutKind::Interleaved),
        });
        let mname = fx.interner.intern("main");
        let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
        let nil = b.push_const(ConstValue::Nil);
        let idx = b.push_const(ConstValue::Int(0));
        let one = b.push_const(ConstValue::Int(1));
        let elem = b.new_temp();
        b.push(Instr::MakeInteriorElem {
            dst: elem,
            arr: nil,
            idx,
            layout,
        });
        push_access(&mut b, elem, x, one, read);
        let r = b.push_const(ConstValue::Nil);
        b.terminate(Terminator::Return(r));
        let program = fx.finish(b.finish(), 1);
        assert_eq!(
            trap(&program),
            (
                VmError::NilDereference {
                    context: "interior array reference".to_owned()
                },
                4
            ),
            "read {read}"
        );
    }
}

/// Reads (`read`) or writes `src` to field `field` through `obj`, as the
/// instruction right after the one that formed `obj`.
fn push_access(
    b: &mut FunctionBuilder,
    obj: oi_ir::Temp,
    field: oi_support::Symbol,
    src: oi_ir::Temp,
    read: bool,
) {
    if read {
        let dst = b.new_temp();
        b.push(Instr::GetField { dst, obj, field });
        b.push(Instr::Print { src: dst });
    } else {
        b.push(Instr::SetField { obj, field, src });
    }
}

/// A field the inline child does not have, named by a plain
/// `GetField`/`SetField` through a composed object-in-object layout (a
/// `Pt` inline in a `Rect` inline in a `Box`): the child-field search
/// misses and the access traps naming the child class.
#[test]
fn access_to_missing_field_through_composed_layout() {
    for read in [true, false] {
        let mut fx = Fixture::new();
        let boxc = fx.add_class("Box", &["b0", "b1", "b2", "b3"]);
        let rect = fx.add_class("Rect", &["r0", "r1", "r2", "r3"]);
        let pt = fx.add_class("Pt", &["x", "y"]);
        let x = fx.interner.intern("x");
        let y = fx.interner.intern("y");
        let z = fx.interner.intern("z");
        let rect_fields = ["r0", "r1", "r2", "r3"].map(|f| fx.interner.intern(f));
        let rect_layout = fx.layouts.push(InlineLayout {
            child_class: rect,
            child_fields: rect_fields.to_vec(),
            slots: vec![0, 1, 2, 3],
            array_kind: None,
        });
        let pt_layout = fx.layouts.push(InlineLayout {
            child_class: pt,
            child_fields: vec![x, y],
            slots: vec![0, 3],
            array_kind: None,
        });
        let mname = fx.interner.intern("main");
        let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
        let obj = b.new_temp();
        b.push(Instr::New {
            dst: obj,
            class: boxc,
            args: vec![],
            site: oi_ir::SiteId::new(0),
        });
        let r = b.new_temp();
        b.push(Instr::MakeInterior {
            dst: r,
            obj,
            layout: rect_layout,
        });
        let p = b.new_temp();
        b.push(Instr::MakeInterior {
            dst: p,
            obj: r,
            layout: pt_layout,
        });
        if read {
            let dst = b.new_temp();
            b.push(Instr::GetField {
                dst,
                obj: p,
                field: z,
            });
        } else {
            b.push(Instr::SetField {
                obj: p,
                field: z,
                src: obj,
            });
        }
        let ret = b.push_const(ConstValue::Nil);
        b.terminate(Terminator::Return(ret));
        let program = fx.finish(b.finish(), 1);
        assert_eq!(
            trap(&program),
            (
                VmError::NoSuchField {
                    class: "Pt".to_owned(),
                    field: "z".to_owned()
                },
                4
            ),
            "read {read}"
        );
    }
}

/// The same missing field, named by a plain access through an element of
/// a parallel inline array.
#[test]
fn access_to_missing_field_through_parallel_array() {
    for read in [true, false] {
        let mut fx = Fixture::new();
        let pt = fx.add_class("Pt", &["x", "y"]);
        let x = fx.interner.intern("x");
        let y = fx.interner.intern("y");
        let z = fx.interner.intern("z");
        let layout = fx.layouts.push(InlineLayout {
            child_class: pt,
            child_fields: vec![x, y],
            slots: vec![],
            array_kind: Some(ArrayLayoutKind::Parallel),
        });
        let mname = fx.interner.intern("main");
        let mut b = FunctionBuilder::new(mname, ClassId::new(0), 0);
        let len = b.push_const(ConstValue::Int(3));
        let arr = b.new_temp();
        b.push(Instr::NewArrayInline {
            dst: arr,
            len,
            layout,
            site: oi_ir::SiteId::new(0),
        });
        let idx = b.push_const(ConstValue::Int(2));
        let elem = b.new_temp();
        b.push(Instr::MakeInteriorElem {
            dst: elem,
            arr,
            idx,
            layout,
        });
        if read {
            let dst = b.new_temp();
            b.push(Instr::GetField {
                dst,
                obj: elem,
                field: z,
            });
        } else {
            b.push(Instr::SetField {
                obj: elem,
                field: z,
                src: idx,
            });
        }
        let ret = b.push_const(ConstValue::Nil);
        b.terminate(Terminator::Return(ret));
        let program = fx.finish(b.finish(), 1);
        assert_eq!(
            trap(&program),
            (
                VmError::NoSuchField {
                    class: "Pt".to_owned(),
                    field: "z".to_owned()
                },
                5
            ),
            "read {read}"
        );
    }
}
