//! The contour analysis result is a function of the program alone, and it
//! is pinned.
//!
//! `analysis_golden.txt` holds one line per program: its name, then the
//! fingerprint of a canonical dump of `analyze` on the lowered program
//! with tags, then that of `analyze` without tags. The dump lists method
//! contours in id order (method, key, frame, return value, widened), object
//! contours in id order with their fields sorted by name, the tag table,
//! the sorted call edges and the globals. Any change to a contour id, a tag
//! id, a frame value or a call edge shows here. On a mismatch the test
//! prints the lines it computed.

mod common;

use oi_analysis::{analyze, AnalysisConfig, AnalysisResult, TagId};
use oi_ir::Program;
use oi_support::hash::fingerprint;
use std::fmt::Write;

const GOLDEN: &str = include_str!("analysis_golden.txt");

/// The canonical text form of `result`.
fn dump(program: &Program, result: &AnalysisResult) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(
        w,
        "tags={} degraded={} exhausted={:?}",
        result.track_tags, result.degraded, result.exhausted
    )
    .unwrap();
    for (id, c) in result.mcontours.iter_enumerated() {
        writeln!(
            w,
            "{id:?} {:?} widened={} key={:?}",
            c.method, c.widened, c.key
        )
        .unwrap();
        for (t, v) in c.frame.iter().enumerate() {
            writeln!(w, "  t{t} {v:?}").unwrap();
        }
        writeln!(w, "  ret {:?}", c.ret).unwrap();
    }
    for (id, o) in result.ocontours.iter_enumerated() {
        writeln!(
            w,
            "{id:?} {:?} class={:?} creator={:?} len_known={} elem={:?}",
            o.site, o.class, o.creator, o.len_known, o.elem
        )
        .unwrap();
        let mut fields: Vec<_> = o
            .fields
            .iter()
            .map(|(f, v)| (program.interner.resolve(*f), v))
            .collect();
        fields.sort_by_key(|&(name, _)| name);
        for (name, v) in fields {
            writeln!(w, "  .{name} {v:?}").unwrap();
        }
    }
    for i in 0..result.tags.len() {
        let id = TagId::new(i);
        writeln!(w, "{id:?} {:?}", result.tags.resolve(id)).unwrap();
    }
    let mut edges: Vec<_> = result.call_edges.iter().collect();
    edges.sort();
    for ((mctx, bb, idx), callees) in edges {
        writeln!(w, "edge {mctx:?} {bb:?}:{idx} -> {callees:?}").unwrap();
    }
    for (g, v) in result.globals.iter().enumerate() {
        writeln!(w, "global{g} {v:?}").unwrap();
    }
    out
}

/// The golden line for `source`.
fn line(name: &str, source: &str) -> String {
    let program = oi_ir::lower::compile(source).expect("source lowers");
    let tagged = dump(&program, &analyze(&program, &AnalysisConfig::default()));
    let untagged = dump(
        &program,
        &analyze(&program, &AnalysisConfig::without_tags()),
    );
    format!(
        "{name} {} {}",
        fingerprint(tagged.as_bytes()),
        fingerprint(untagged.as_bytes())
    )
}

#[test]
fn fig17_analyses_match_golden() {
    common::check(GOLDEN, "fig17", common::fig17(), line);
}

#[test]
fn synth_analyses_match_golden() {
    common::check(GOLDEN, "synth", common::synth(), line);
}

#[test]
fn loadgen_analyses_match_golden() {
    common::check(GOLDEN, "loadgen", common::loadgen(), line);
}
