//! The program corpus the golden tests pin, and the check that compares
//! one family of computed lines with a golden file.
//!
//! The corpus is the Fig-17 programs at both sizes, the synth grid
//! (pairs 2–64 × depth 1–4, default `SynthParams` otherwise) and
//! `loadgen::synthetic_source(0..40)`: 74 programs.

use oi_bench::loadgen::synthetic_source;
use oi_bench::synth::{generate, SynthParams};
use oi_benchmarks::{all_benchmarks, BenchSize};

/// `(name, source)` pairs of one program family.
pub type Family = Vec<(String, String)>;

/// The Fig-17 programs at small and default size.
pub fn fig17() -> Family {
    let mut sources = Vec::new();
    for size in [BenchSize::Small, BenchSize::Default] {
        for bench in all_benchmarks(size) {
            sources.push((format!("{size:?}/{}", bench.name), bench.source));
        }
    }
    sources
}

/// The synth grid: 2–64 class pairs × call depth 1–4.
pub fn synth() -> Family {
    let mut sources = Vec::new();
    for class_pairs in [2, 4, 8, 16, 32, 64] {
        for call_depth in 1..=4 {
            let source = generate(SynthParams {
                class_pairs,
                call_depth,
                ..Default::default()
            });
            sources.push((format!("{class_pairs}x{call_depth}"), source));
        }
    }
    sources
}

/// The first 40 loadgen sources.
pub fn loadgen() -> Family {
    (0..40)
        .map(|i| (i.to_string(), synthetic_source(i)))
        .collect()
}

/// Compares the lines `line(name, source)` computes for one family with
/// the golden file's lines for it (those starting with `family/`). On a
/// mismatch the assertion prints the computed lines.
pub fn check(golden: &str, family: &str, sources: Family, line: impl Fn(&str, &str) -> String) {
    let prefix = format!("{family}/");
    let expected: Vec<&str> = golden.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual: Vec<String> = sources
        .iter()
        .map(|(name, source)| line(&format!("{prefix}{name}"), source))
        .collect();
    assert!(
        expected == actual,
        "{family}: output changed; computed lines:\n{}",
        actual.join("\n")
    );
}
