//! The optimized program's bytes are a function of its source alone: the
//! same input optimizes to the same `serial::encode_program` output every
//! time, and that output is pinned.
//!
//! `cleanup_golden.txt` holds one line per program: its name, then the
//! fingerprint of the encoded `pipeline::optimize` program, then that of
//! the encoded `pipeline::baseline` program. The cleanup passes
//! (`oi_ir::opt`) run inside both, so any change to what they emit shows
//! here. On a mismatch the test prints the lines it computed.

mod common;

use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::serial::encode_program;
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
