//! The optimized program's bytes are a function of its source alone: the
//! same input optimizes to the same `serial::encode_program` output every
//! time, and that output is pinned.
//!
//! `cleanup_golden.txt` holds one line per program: its name, then the
//! fingerprint of the encoded `pipeline::optimize` program, then that of
//! the encoded `pipeline::baseline` program. The cleanup passes
//! (`oi_ir::opt`) run inside both, so any change to what they emit shows
//! here. On a mismatch the test prints the lines it computed.
//!
//! Both pipelines skip an analysis or a cleanup whose input is a program
//! they have already settled, so their outputs must be fixpoints:
//! `outputs_are_fixpoints` checks that over the same corpus.

mod common;

use oi_analysis::{analyze, AnalysisConfig};
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::devirt::devirtualize;
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::opt::Cleanup;
use oi_ir::serial::encode_program;
use oi_ir::Program;
use oi_support::hash::fingerprint;

const GOLDEN: &str = include_str!("cleanup_golden.txt");

/// The golden line for `source`.
fn line(name: &str, source: &str) -> String {
    let config = InlineConfig::default();
    let program = oi_ir::lower::compile(source).expect("source lowers");
    let optimized = encode_program(&optimize(&program, &config).program);
    let base = encode_program(&baseline(&program, &config.opt));
    format!("{name} {} {}", fingerprint(&optimized), fingerprint(&base))
}

#[test]
fn fig17_programs_match_golden() {
    common::check(GOLDEN, "fig17", common::fig17(), line);
}

#[test]
fn synth_grid_matches_golden() {
    common::check(GOLDEN, "synth", common::synth(), line);
}

#[test]
fn loadgen_sources_match_golden() {
    common::check(GOLDEN, "loadgen", common::loadgen(), line);
}

/// Richards has divergent inlining groups whose member order once
/// followed a hash seed, which changed layout ids and fresh field names
/// from one optimization to the next within a process.
#[test]
fn richards_optimizes_to_identical_bytes_every_time() {
    let config = InlineConfig::default();
    for size in [BenchSize::Small, BenchSize::Default] {
        let bench = all_benchmarks(size)
            .into_iter()
            .find(|b| b.name == "richards")
            .expect("richards is in the suite");
        let program = oi_ir::lower::compile(&bench.source).expect("richards lowers");
        let first = encode_program(&optimize(&program, &config).program);
        for round in 1..8 {
            let again = encode_program(&optimize(&program, &config).program);
            assert!(
                again == first,
                "{size:?}: optimization {round} differs from the first"
            );
        }
    }
}

/// Why `program` is not a fixpoint of a fresh analysis under `analysis`,
/// devirtualization and cleanup, if it is not.
fn not_a_fixpoint(program: &Program, analysis: &AnalysisConfig) -> Option<String> {
    let mut p = program.clone();
    let result = analyze(&p, analysis);
    let rewritten = devirtualize(&mut p, &result);
    if rewritten != 0 {
        return Some(format!("devirtualized {rewritten} more sends"));
    }
    let cleanup = oi_ir::opt::optimize(&mut p);
    let settled = Cleanup {
        changed: false,
        fixpoint: true,
    };
    (cleanup != settled).then(|| format!("cleanup reported {cleanup:?}"))
}

#[test]
fn outputs_are_fixpoints() {
    let config = InlineConfig::default();
    let corpus = [common::fig17(), common::synth(), common::loadgen()];
    let mut failures = Vec::new();
    for (name, source) in corpus.iter().flatten() {
        let program = oi_ir::lower::compile(source).expect("source lowers");
        let optimized = optimize(&program, &config).program;
        if let Some(why) = not_a_fixpoint(&optimized, &AnalysisConfig::default()) {
            failures.push(format!("{name} optimize: {why}"));
        }
        let base = baseline(&program, &config.opt);
        if let Some(why) = not_a_fixpoint(&base, &AnalysisConfig::without_tags()) {
            failures.push(format!("{name} baseline: {why}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
