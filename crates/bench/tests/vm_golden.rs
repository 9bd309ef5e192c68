//! What the VM computes for a program is pinned, build by build: its
//! output, every `Metrics` counter, the fuel a one-shot run spends and the
//! opcode histogram of a profiled run.
//!
//! `vm_golden.txt` holds one line per program of the `common` corpus:
//! its name, then for the baseline build and then the inlined build the
//! fingerprint of the output, the one-shot `fuel_spent`, the thirteen
//! `Metrics` counters in declaration order and the profiled opcode
//! histogram (`name:count:cycles`, hottest first). Any change to how the
//! interpreter dispatches, meters or charges shows here. On a mismatch the
//! test prints the lines it computed.
//!
//! A plain run takes the interpreter's hook-free loop; a profiled run and
//! a sanitizer-only (`CheckLevel::Full`) run take the observed one. Both
//! observed runs must print the plain run's output and report its
//! counters exactly.

mod common;

use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::Program;
use oi_support::hash::fingerprint;
use oi_vm::{CheckLevel, FuelOutcome, Metrics, VmConfig, VmSession};

const GOLDEN: &str = include_str!("vm_golden.txt");

/// The golden fields of one build.
fn build_fields(program: &Program) -> String {
    let config = VmConfig::default();
    let mut session = VmSession::new(program, &config).expect("entry frame");
    let (fuel, result) = match session.run_fuel(program, u64::MAX) {
        FuelOutcome::Done { fuel_spent, result } => (fuel_spent, result),
        other => panic!("one-shot run did not complete: {other:?}"),
    };
    let profiled = oi_vm::run(
        program,
        &VmConfig {
            profile: true,
            ..config
        },
    )
    .expect("profiled run");
    assert_eq!(profiled.output, result.output, "profiling changed output");
    assert_eq!(
        profiled.metrics, result.metrics,
        "profiling changed metrics"
    );
    let checked = oi_vm::run(
        program,
        &VmConfig {
            checked: CheckLevel::Full,
            ..config
        },
    )
    .expect("checked run");
    assert_eq!(checked.output, result.output, "checking changed output");
    assert_eq!(checked.metrics, result.metrics, "checking changed metrics");
    // Destructured so a new counter cannot be left out of the pin.
    let Metrics {
        cycles,
        instructions,
        heap_reads,
        heap_writes,
        allocations,
        words_allocated,
        dyn_dispatches,
        static_calls,
        interior_refs,
        cache_hits,
        cache_misses,
        inline_child_accesses,
        inline_child_hits,
    } = result.metrics;
    let counters = [
        cycles,
        instructions,
        heap_reads,
        heap_writes,
        allocations,
        words_allocated,
        dyn_dispatches,
        static_calls,
        interior_refs,
        cache_hits,
        cache_misses,
        inline_child_accesses,
        inline_child_hits,
    ]
    .map(|n| n.to_string())
    .join(",");
    let opcodes = profiled
        .profile
        .expect("profile requested")
        .opcodes
        .iter()
        .map(|o| format!("{}:{}:{}", o.name, o.count, o.cycles))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "out={} fuel={fuel} m={counters} ops={opcodes}",
        fingerprint(result.output.as_bytes())
    )
}

/// The golden line for `source`.
fn line(name: &str, source: &str) -> String {
    let config = InlineConfig::default();
    let program = oi_ir::lower::compile(source).expect("source lowers");
    let base = baseline(&program, &config.opt);
    let inlined = optimize(&program, &config).program;
    format!(
        "{name} baseline {} inlined {}",
        build_fields(&base),
        build_fields(&inlined)
    )
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
