//! The interpreter's per-run tables ([`oi_vm::RunTables`]) must resolve
//! every name exactly as the program's own lookups do, on real builds:
//! the baseline and inlined build of every Fig-17 program and a spread of
//! synthetic programs.

use oi_bench::synth::{generate, SynthParams};
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::Program;
use oi_support::Symbol;
use oi_vm::RunTables;
use std::collections::HashMap;

/// Both builds of `source`, named for failure messages.
fn builds(name: &str, source: &str) -> Vec<(String, Program)> {
    let config = InlineConfig::default();
    let program = oi_ir::lower::compile(source).expect("source lowers");
    vec![
        (format!("{name}/baseline"), baseline(&program, &config.opt)),
        (
            format!("{name}/inlined"),
            optimize(&program, &config).program,
        ),
    ]
}

fn check(name: &str, p: &Program) {
    let tables = RunTables::new(p);
    let init = p.interner.get("init");
    // Every interned name plus one the interner never handed out.
    let symbols: Vec<Symbol> = (0..p.interner.len() as u32)
        .chain([u32::MAX])
        .map(Symbol::from_raw)
        .collect();
    for c in p.classes.ids() {
        // The per-class map the field table replaced.
        let slots: HashMap<Symbol, usize> = p
            .layout_of(c)
            .iter()
            .enumerate()
            .map(|(i, &f)| (p.fields[f].name, i))
            .collect();
        for &s in &symbols {
            assert_eq!(
                tables.method(c, s),
                p.lookup_method(c, s),
                "{name}: class {c:?} selector {s:?}"
            );
            assert_eq!(
                tables.field_slot(c, s),
                slots.get(&s).copied(),
                "{name}: class {c:?} field {s:?}"
            );
        }
        assert_eq!(
            tables.init(c),
            init.and_then(|s| p.lookup_method(c, s)),
            "{name}: class {c:?} init"
        );
    }
}

#[test]
fn tables_match_program_lookups_on_fig17_builds() {
    for bench in all_benchmarks(BenchSize::Default) {
        for (name, p) in builds(bench.name, &bench.source) {
            check(&name, &p);
        }
    }
}

/// The Fig-17 and synth hierarchies never override a method; this one
/// overrides at every level, `init` included.
#[test]
fn tables_match_program_lookups_under_overrides() {
    let source = "class A { field x; method init(v) { self.x = v; } method tag() { return 1; }
                   method base() { return self.tag(); } }
                 class B : A { field y; method tag() { return 2; } }
                 class C : B { field z; method init(v) { self.x = v; self.z = v; }
                   method tag() { return 3; } method own() { return self.z; } }
                 fn main() { var c = new C(4); var b = new B(5);
                   print c.base() + b.base() + c.own(); }";
    for (name, p) in builds("overrides", source) {
        check(&name, &p);
    }
}

#[test]
fn tables_match_program_lookups_on_synth_builds() {
    for (class_pairs, call_depth) in [(2, 1), (5, 2), (12, 3)] {
        let source = generate(SynthParams {
            class_pairs,
            call_depth,
            ..Default::default()
        });
        for (name, p) in builds(&format!("synth-{class_pairs}x{call_depth}"), &source) {
            check(&name, &p);
        }
    }
}
