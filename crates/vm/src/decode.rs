//! The pre-decoded form the interpreter runs.
//!
//! When a run starts, every method's blocks are flattened into one array
//! of [`Op`]s, one per instruction and one per block terminator, block
//! after block. Terminators are ops, and jump targets and method entries
//! are op indices, so control flow is an index assignment. Names are
//! resolved into small keys: a field access or a send carries one, and
//! its slot or target is found by hashing `(class, key)` into a table of
//! the pairs that exist, with no search of a class's names.
//!
//! The pair tables are filled straight from the program: a class's field
//! slots from its full layout, its send targets from its own and its
//! ancestors' methods, most-derived first, as [`Program::lookup_method`]
//! searches.

use crate::value::Value;
use oi_ir::{
    BinOp, BlockId, Builtin, ClassId, ConstValue, Instr, MethodId, Program, SiteId, Terminator,
    UnOp,
};
use oi_support::Symbol;
use std::collections::HashMap;

/// Marks an absent slot, target or `init` in a table or op.
pub(crate) const MISSING: u32 = u32::MAX;

/// A call's argument temps: `Code::args[start..start + len]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Args {
    start: u32,
    len: u32,
}

/// A field or selector name with its key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Key {
    pub(crate) key: u32,
    pub(crate) name: Symbol,
}

/// One decoded op. Temps are frame-relative indices.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    Const {
        dst: u32,
        value: Value,
    },
    Move {
        dst: u32,
        src: u32,
    },
    Unary {
        dst: u32,
        op: UnOp,
        src: u32,
    },
    Binary {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
    },
    /// `init` is the constructor to call, or [`MISSING`] when the class
    /// has none or its arity differs (a raw allocation).
    New {
        dst: u32,
        class: ClassId,
        site: SiteId,
        args: Args,
        init: u32,
    },
    NewArray {
        dst: u32,
        len: u32,
        site: SiteId,
    },
    NewArrayInline {
        dst: u32,
        len: u32,
        layout: u32,
        site: SiteId,
    },
    GetField {
        dst: u32,
        obj: u32,
        field: Key,
    },
    SetField {
        obj: u32,
        field: Key,
        src: u32,
    },
    ArrayGet {
        dst: u32,
        arr: u32,
        idx: u32,
    },
    ArraySet {
        arr: u32,
        idx: u32,
        src: u32,
    },
    GetGlobal {
        dst: u32,
        global: u32,
    },
    SetGlobal {
        global: u32,
        src: u32,
    },
    Send {
        dst: u32,
        recv: u32,
        selector: Key,
        args: Args,
    },
    CallStatic {
        dst: u32,
        recv: u32,
        method: MethodId,
        args: Args,
    },
    CallBuiltin {
        dst: u32,
        builtin: Builtin,
        args: Args,
    },
    MakeInterior {
        dst: u32,
        obj: u32,
        layout: u32,
    },
    MakeInteriorElem {
        dst: u32,
        arr: u32,
        idx: u32,
        layout: u32,
    },
    Print {
        src: u32,
    },
    Jump {
        target: u32,
    },
    Branch {
        cond: u32,
        then_ip: u32,
        else_ip: u32,
    },
    Return {
        src: u32,
    },
    /// A block the verifier would have rejected.
    Unterminated,
}

// Ops are dispatched from one array; keep two to a 64-byte cache line.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

/// Where a method's code starts, how many temps its frame holds and how
/// many arguments it takes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MethodCode {
    pub(crate) entry: u32,
    pub(crate) temps: u32,
    pub(crate) params: u32,
}

/// A program decoded for one run.
#[derive(Debug)]
pub(crate) struct Code {
    /// Every method's ops, method after method.
    pub(crate) ops: Vec<Op>,
    /// Indexed by [`MethodId`].
    pub(crate) methods: Vec<MethodCode>,
    /// Argument temps of every call op.
    args: Vec<u32>,
    /// `(class, field key)` → the field's slot in the class's layout.
    field_slots: PairTable,
    /// `(class, selector key)` → the method a send runs.
    targets: PairTable,
    /// Per program layout, its child fields as keys, in child-field order.
    pub(crate) layout_fields: Vec<Vec<Key>>,
    /// Indexed by [`ClassId`]: the method `init` resolves to, as `New`
    /// and the sanitizer look it up.
    pub(crate) init: Vec<Option<MethodId>>,
    /// Indexed by [`ClassId`]: the words of an instance.
    pub(crate) class_sizes: Vec<usize>,
}

impl Code {
    /// Decodes every method of `program`.
    pub(crate) fn new(program: &Program) -> Self {
        Self::decode(program, Keys::default(), Keys::default())
    }

    /// Decodes `program`, handing new keys out after those `fields` and
    /// `selectors` already hold.
    fn decode(program: &Program, fields: Keys, selectors: Keys) -> Self {
        let layouts: Vec<_> = program
            .classes
            .ids()
            .map(|c| program.layout_of(c))
            .collect();
        let init = program.interner.get("init");
        let mut decoder = Decoder {
            program,
            init: program
                .classes
                .ids()
                .map(|c| init.and_then(|s| program.lookup_method(c, s)))
                .collect(),
            fields,
            selectors,
            args: Vec::new(),
        };
        let layout_fields = program
            .layouts
            .iter()
            .map(|l| {
                l.child_fields
                    .iter()
                    .map(|&f| decoder.fields.key(f))
                    .collect()
            })
            .collect();
        let mut ops = Vec::new();
        let mut methods = Vec::with_capacity(program.methods.len());
        for m in program.methods.iter() {
            let entry = ops.len() as u32;
            methods.push(MethodCode {
                entry,
                temps: m.temp_count,
                params: m.param_count,
            });
            // Each block is its instructions plus its terminator.
            let mut starts = Vec::with_capacity(m.blocks.len());
            let mut next = entry;
            for block in m.blocks.iter() {
                starts.push(next);
                next += block.instrs.len() as u32 + 1;
            }
            for block in m.blocks.iter() {
                for instr in block.instrs.iter() {
                    ops.push(decoder.instr(instr));
                }
                // A target outside the method (unverified IR) indexes
                // past the ops: it fails only if taken, as before decoding.
                let target = |b: BlockId| *starts.get(b.index()).unwrap_or(&MISSING);
                ops.push(match block.term {
                    Terminator::Jump(b) => Op::Jump { target: target(b) },
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => Op::Branch {
                        cond: cond.index() as u32,
                        then_ip: target(then_bb),
                        else_ip: target(else_bb),
                    },
                    Terminator::Return(t) => Op::Return {
                        src: t.index() as u32,
                    },
                    Terminator::Unterminated => Op::Unterminated,
                });
            }
        }
        let Decoder {
            init,
            fields,
            selectors,
            args,
            ..
        } = decoder;
        // Only names an op or a layout was given a key for get pairs.
        // Within a class's row, the first pair listed for a key wins.
        let mut field_slots = Vec::new();
        let mut targets = Vec::new();
        let mut row = Vec::new();
        for (c, layout) in program.classes.ids().zip(&layouts) {
            // A name declared twice in one hierarchy (unverified IR)
            // resolves to its last slot, so the row lists slots last first.
            row.extend(layout.iter().enumerate().rev().filter_map(|(slot, &f)| {
                let key = fields.map.get(&program.fields[f].name)?;
                Some((*key, slot as u32))
            }));
            push_row(&mut field_slots, c, &mut row);
            // Own methods first, then each ancestor's: the most-derived
            // wins, as `Program::lookup_method` finds it.
            let mut cur = Some(c);
            while let Some(k) = cur {
                row.extend(program.classes[k].methods.iter().filter_map(|(s, m)| {
                    let key = selectors.map.get(s)?;
                    Some((*key, m.index() as u32))
                }));
                cur = program.classes[k].parent;
            }
            push_row(&mut targets, c, &mut row);
        }
        Code {
            ops,
            methods,
            args,
            field_slots: PairTable::new(&field_slots),
            targets: PairTable::new(&targets),
            layout_fields,
            init,
            class_sizes: layouts.iter().map(Vec::len).collect(),
        }
    }

    /// The argument temps of a call op.
    #[inline(always)]
    pub(crate) fn args(&self, args: Args) -> &[u32] {
        &self.args[args.start as usize..(args.start + args.len) as usize]
    }

    /// The slot of field `key` in an instance of `class`.
    #[inline(always)]
    pub(crate) fn field_slot(&self, class: ClassId, key: u32) -> Option<usize> {
        self.field_slots.get(class, key).map(|slot| slot as usize)
    }

    /// The method a send of selector `key` to an instance of `class` runs.
    #[inline(always)]
    pub(crate) fn target(&self, class: ClassId, key: u32) -> Option<MethodId> {
        self.targets
            .get(class, key)
            .map(|m| MethodId::new(m as usize))
    }
}

/// A `(class, key) → value` map over the pairs that exist, open-addressed
/// with linear probing. Its size is linear in the pairs; a dense
/// `classes × keys` matrix would grow with their product, which a program
/// with many classes and many field names makes quadratic.
#[derive(Debug)]
struct PairTable {
    /// `64 - log2(entries.len())`: a hash's top bits pick the first probe.
    shift: u32,
    /// `(class << 32 | key, value)`, or a tag of [`EMPTY`]. At most half
    /// are full, so every probe sequence meets an empty entry.
    entries: Vec<(u64, u32)>,
}

/// The tag of an empty [`PairTable`] entry; no class id reaches it.
const EMPTY: u64 = u64::MAX;

impl PairTable {
    fn new(pairs: &[(u32, u32, u32)]) -> Self {
        let len = (pairs.len() * 2).next_power_of_two().max(2);
        let mut table = PairTable {
            shift: 64 - len.trailing_zeros(),
            entries: vec![(EMPTY, 0); len],
        };
        for &(class, key, value) in pairs {
            let tag = Self::tag(class, key);
            let mut i = table.home(tag);
            while table.entries[i].0 != EMPTY {
                i = (i + 1) & (len - 1);
            }
            table.entries[i] = (tag, value);
        }
        table
    }

    fn tag(class: u32, key: u32) -> u64 {
        (u64::from(class) << 32) | u64::from(key)
    }

    /// The first probe for `tag`: Fibonacci hashing, which spreads the
    /// small, dense ids over the table.
    #[inline(always)]
    fn home(&self, tag: u64) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline(always)]
    fn get(&self, class: ClassId, key: u32) -> Option<u32> {
        let tag = Self::tag(class.index() as u32, key);
        let mask = self.entries.len() - 1;
        let mut i = self.home(tag);
        loop {
            let (t, value) = self.entries[i];
            if t == tag {
                return Some(value);
            }
            if t == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }
}

/// Appends class `class`'s `(key, value)` row to `pairs`, keeping the
/// first pair listed for each key, and empties the row.
fn push_row(pairs: &mut Vec<(u32, u32, u32)>, class: ClassId, row: &mut Vec<(u32, u32)>) {
    // Stable: among equal keys the first listed stays first.
    row.sort_by_key(|e| e.0);
    row.dedup_by_key(|e| e.0);
    let class = class.index() as u32;
    pairs.extend(row.drain(..).map(|(key, value)| (class, key, value)));
}

/// Small keys handed out to names in first-use order.
#[derive(Default)]
struct Keys {
    map: HashMap<Symbol, u32>,
}

impl Keys {
    fn key(&mut self, name: Symbol) -> Key {
        let next = self.map.len() as u32;
        let key = *self.map.entry(name).or_insert(next);
        Key { key, name }
    }
}

/// The decoding state: the keys handed out so far and the argument list.
struct Decoder<'a> {
    program: &'a Program,
    /// Indexed by [`ClassId`]: the method `init` resolves to.
    init: Vec<Option<MethodId>>,
    fields: Keys,
    selectors: Keys,
    args: Vec<u32>,
}

/// A temp as an op operand.
fn t(temp: oi_ir::Temp) -> u32 {
    temp.index() as u32
}

impl Decoder<'_> {
    fn args(&mut self, temps: &[oi_ir::Temp]) -> Args {
        let start = self.args.len() as u32;
        self.args.extend(temps.iter().map(|&a| t(a)));
        Args {
            start,
            len: temps.len() as u32,
        }
    }

    /// Decodes `instr` into its one op.
    fn instr(&mut self, instr: &Instr) -> Op {
        match *instr {
            Instr::Const { dst, value } => Op::Const {
                dst: t(dst),
                value: match value {
                    ConstValue::Int(n) => Value::Int(n),
                    ConstValue::Float(x) => Value::Float(x),
                    ConstValue::Bool(b) => Value::Bool(b),
                    ConstValue::Nil => Value::Nil,
                    ConstValue::Str(s) => Value::Str(s),
                },
            },
            Instr::Move { dst, src } => Op::Move {
                dst: t(dst),
                src: t(src),
            },
            Instr::Unary { dst, op, src } => Op::Unary {
                dst: t(dst),
                op,
                src: t(src),
            },
            Instr::Binary { dst, op, lhs, rhs } => Op::Binary {
                dst: t(dst),
                op,
                lhs: t(lhs),
                rhs: t(rhs),
            },
            Instr::New {
                dst,
                class,
                ref args,
                site,
            } => {
                // Raw allocations (constructor explosion) call `init`
                // explicitly, with a different arity; they skip the
                // implicit call.
                let init = self
                    .init
                    .get(class.index())
                    .copied()
                    .flatten()
                    .filter(|&m| self.program.methods[m].param_count as usize == args.len());
                Op::New {
                    dst: t(dst),
                    class,
                    site,
                    args: self.args(args),
                    init: init.map_or(MISSING, |m| m.index() as u32),
                }
            }
            Instr::NewArray { dst, len, site } => Op::NewArray {
                dst: t(dst),
                len: t(len),
                site,
            },
            Instr::NewArrayInline {
                dst,
                len,
                layout,
                site,
            } => Op::NewArrayInline {
                dst: t(dst),
                len: t(len),
                layout: layout.index() as u32,
                site,
            },
            Instr::GetField { dst, obj, field } => Op::GetField {
                dst: t(dst),
                obj: t(obj),
                field: self.fields.key(field),
            },
            Instr::SetField { obj, field, src } => Op::SetField {
                obj: t(obj),
                field: self.fields.key(field),
                src: t(src),
            },
            Instr::ArrayGet { dst, arr, idx } => Op::ArrayGet {
                dst: t(dst),
                arr: t(arr),
                idx: t(idx),
            },
            Instr::ArraySet { arr, idx, src } => Op::ArraySet {
                arr: t(arr),
                idx: t(idx),
                src: t(src),
            },
            Instr::GetGlobal { dst, global } => Op::GetGlobal {
                dst: t(dst),
                global: global.index() as u32,
            },
            Instr::SetGlobal { global, src } => Op::SetGlobal {
                global: global.index() as u32,
                src: t(src),
            },
            Instr::Send {
                dst,
                recv,
                selector,
                ref args,
            } => Op::Send {
                dst: t(dst),
                recv: t(recv),
                selector: self.selectors.key(selector),
                args: self.args(args),
            },
            Instr::CallStatic {
                dst,
                method,
                recv,
                ref args,
            } => Op::CallStatic {
                dst: t(dst),
                recv: t(recv),
                method,
                args: self.args(args),
            },
            Instr::CallBuiltin {
                dst,
                builtin,
                ref args,
            } => Op::CallBuiltin {
                dst: t(dst),
                builtin,
                args: self.args(args),
            },
            Instr::MakeInterior { dst, obj, layout } => Op::MakeInterior {
                dst: t(dst),
                obj: t(obj),
                layout: layout.index() as u32,
            },
            Instr::MakeInteriorElem {
                dst,
                arr,
                idx,
                layout,
            } => Op::MakeInteriorElem {
                dst: t(dst),
                arr: t(arr),
                idx: t(idx),
                layout: layout.index() as u32,
            },
            Instr::Print { src } => Op::Print { src: t(src) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_bench::synth::{generate, SynthParams};
    use oi_benchmarks::{all_benchmarks, BenchSize};
    use oi_core::pipeline::{baseline, optimize, InlineConfig};
    use oi_ir::lower::compile;

    /// Every name resolves through the decoded form exactly as through the
    /// program's own lookups, for every class, hits and misses alike: the
    /// field slot as `Program::layout_of` places it (the last of a name
    /// declared twice), the send target and `init` as
    /// `Program::lookup_method` finds them. Every IR instruction and block
    /// terminator decodes to exactly one op.
    fn check(name: &str, p: &Program) {
        // Every interned name plus one the interner never handed out,
        // keyed first so that symbol `symbols[k]` has key `k`.
        let symbols: Vec<Symbol> = (0..p.interner.len() as u32)
            .chain([u32::MAX])
            .map(Symbol::from_raw)
            .collect();
        let (mut fields, mut selectors) = (Keys::default(), Keys::default());
        for &s in &symbols {
            fields.key(s);
            selectors.key(s);
        }
        let code = Code::decode(p, fields, selectors);
        let init = p.interner.get("init");
        for c in p.classes.ids() {
            let slots: HashMap<Symbol, usize> = p
                .layout_of(c)
                .iter()
                .enumerate()
                .map(|(i, &f)| (p.fields[f].name, i))
                .collect();
            for (key, &s) in symbols.iter().enumerate() {
                assert_eq!(
                    code.target(c, key as u32),
                    p.lookup_method(c, s),
                    "{name}: class {c:?} selector {s:?}"
                );
                assert_eq!(
                    code.field_slot(c, key as u32),
                    slots.get(&s).copied(),
                    "{name}: class {c:?} field {s:?}"
                );
            }
            assert_eq!(
                code.init[c.index()],
                init.and_then(|s| p.lookup_method(c, s)),
                "{name}: class {c:?} init"
            );
        }
        // `New` calls the class's `init` when the arities agree.
        let expected: Vec<(ClassId, u32)> = p
            .methods
            .iter()
            .flat_map(|m| m.blocks.iter().flat_map(|b| b.instrs.iter()))
            .filter_map(|i| match *i {
                Instr::New {
                    class, ref args, ..
                } => {
                    let init = init
                        .and_then(|s| p.lookup_method(class, s))
                        .filter(|&m| p.methods[m].param_count as usize == args.len());
                    Some((class, init.map_or(MISSING, |m| m.index() as u32)))
                }
                _ => None,
            })
            .collect();
        let decoded: Vec<(ClassId, u32)> = code
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::New { class, init, .. } => Some((class, init)),
                _ => None,
            })
            .collect();
        assert_eq!(decoded, expected, "{name}: `New` targets");
        let ends = code.methods.iter().skip(1).map(|m| m.entry as usize);
        let ends = ends.chain([code.ops.len()]);
        for ((m, method), end) in code.methods.iter().zip(p.methods.ids()).zip(ends) {
            let ops: usize = p.methods[method]
                .blocks
                .iter()
                .map(|b| b.instrs.len() + 1)
                .sum();
            assert_eq!(
                end - m.entry as usize,
                ops,
                "{name}: ops of {}",
                p.method_display(method)
            );
        }
    }

    /// The lowered program and both builds of `source`.
    fn check_source(name: &str, source: &str) {
        let config = InlineConfig::default();
        let program = compile(source).expect("source lowers");
        check(&format!("{name}/lowered"), &program);
        check(
            &format!("{name}/baseline"),
            &baseline(&program, &config.opt),
        );
        check(
            &format!("{name}/inlined"),
            &optimize(&program, &config).program,
        );
    }

    #[test]
    fn lookups_match_program_on_fig17_builds() {
        for bench in all_benchmarks(BenchSize::Default) {
            check_source(bench.name, &bench.source);
        }
    }

    #[test]
    fn lookups_match_program_on_synth_builds() {
        for (class_pairs, call_depth) in [(2, 1), (5, 2), (12, 3)] {
            let source = generate(SynthParams {
                class_pairs,
                call_depth,
                ..Default::default()
            });
            check_source(&format!("synth-{class_pairs}x{call_depth}"), &source);
        }
    }

    /// The Fig-17 and synth hierarchies never override a method; these
    /// override at every level, `init` included.
    #[test]
    fn lookups_match_program_under_overrides() {
        check_source(
            "overrides",
            "class A { field x; method init(v) { self.x = v; } method tag() { return 1; }
               method base() { return self.tag(); } }
             class B : A { field y; method tag() { return 2; } }
             class C : B { field z; method init(v) { self.x = v; self.z = v; }
               method tag() { return 3; } method own() { return self.z; } }
             fn main() { var c = new C(4); var b = new B(5);
               print c.base() + b.base() + c.own(); }",
        );
        check_source(
            "overrides-own",
            "class A { field x; method init(v) { self.x = v; } method tag() { return 1; }
               method base() { return self.tag(); } }
             class B : A { field y; method tag() { return 2; } }
             class C : B { field z; method init(v) { self.x = v; self.z = v; }
               method tag() { return 3; } method own() { return self.z + self.y; } }
             fn main() { var c = new C(4); var b = new B(5);
               print c.base() + b.base() + c.own(); }",
        );
    }

    /// Enough classes and names that the pair tables probe past
    /// collisions.
    #[test]
    fn lookups_match_program_with_many_classes() {
        let mut source = String::new();
        let mut main = String::from("fn main() { var s = 0;");
        for k in 0..40 {
            source.push_str(&format!(
                "class K{k} {{ field f{k}; field g{k}; field shared;
                   method init() {{ self.f{k} = {k}; self.g{k} = 1; self.shared = 2; }}
                   method m{k}() {{ return self.f{k} + self.g{k} + self.shared; }}
                   method common() {{ return {k}; }} }}\n"
            ));
            main.push_str(&format!(
                " var o{k} = new K{k}(); s = s + o{k}.m{k}() + o{k}.common();"
            ));
        }
        main.push_str(" print s; }");
        source.push_str(&main);
        check_source("many-classes", &source);
    }
}
