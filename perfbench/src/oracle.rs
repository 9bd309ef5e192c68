//! The output oracle: expected program outputs that do not come from the
//! pipeline under test, and the tally that turns mismatches into failures.
//!
//! - Fig-17 programs: `expected.json`, committed next to this package. It
//!   holds what the *unoptimized* lowering of each program prints, checked
//!   equal to its hand-inlined variant when it was recorded.
//! - `loadgen::synthetic_source(i)`: a closed form over the constants the
//!   generator bakes in.
//! - `synth::generate(params)`: a closed form over the constants drawn from
//!   the same seeded `XorShift64` stream the generator draws from.

use oi_bench::synth::SynthParams;
use oi_benchmarks::BenchSize;
use oi_support::rng::XorShift64;
use oi_support::Json;

const EXPECTED: &str = include_str!("../expected.json");

/// Committed output of the Fig-17 program `name` at `size`.
pub fn fig17_output(size: BenchSize, name: &str) -> String {
    let size = match size {
        BenchSize::Small => "small",
        BenchSize::Default => "default",
        BenchSize::Large => panic!("no committed outputs at size large"),
    };
    let doc = Json::parse(EXPECTED).expect("expected.json parses");
    doc.get(size)
        .and_then(|s| s.get(name))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("expected.json has no {size}/{name}"))
        .to_string()
}

/// What `loadgen::synthetic_source(i)` prints: the span of its rectangle,
/// `(hi - lo) + (hi + 3 - lo - off)`.
pub fn synthetic_output(i: u64) -> String {
    let (off, lo, hi) = ((i % 5 + 1) as i64, (i % 7 + 1) as i64, (i % 11 + 10) as i64);
    format!("{}\n", 2 * (hi - lo) + 3 - off)
}

/// What `synth::generate(params)` prints: for every pair `k`, the driver
/// loop sums `score(i) = i + i * mult_k + i + bias_k` over `i < iters`.
pub fn synth_output(params: SynthParams) -> String {
    let mut rng = XorShift64::new(params.seed);
    let iters = params.loop_iters as i64;
    let tri = iters * (iters - 1) / 2;
    let mut acc = 0i64;
    for _ in 0..params.class_pairs {
        let mult = rng.range_i64(2, 7);
        let bias = rng.range_i64(0, 9);
        acc += (mult + 2) * tri + bias * iters;
    }
    format!("{acc}\n")
}

/// Attempted and failed operations of one measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is false for a failed, refused or
    /// wrong-output operation.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts one operation whose output must equal `expected`.
    pub fn check_output(&mut self, actual: Option<&str>, expected: &str) -> bool {
        self.record(actual == Some(expected))
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Correct operations over attempted ones (`1 - fail_share`).
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_benchmarks::all_benchmarks;
    use oi_vm::VmConfig;

    fn unoptimized_output(source: &str) -> String {
        let program = oi_ir::lower::compile(source).expect("source lowers");
        oi_vm::run(&program, &VmConfig::default())
            .expect("program runs")
            .output
    }

    #[test]
    fn closed_forms_match_the_unoptimized_programs() {
        for i in [0, 1, 6, 54, 1_000_003] {
            let src = oi_bench::loadgen::synthetic_source(i);
            assert_eq!(
                synthetic_output(i),
                unoptimized_output(&src),
                "synthetic {i}"
            );
        }
        for (pairs, depth, seed) in [(2, 1, 1), (5, 3, 77), (9, 4, 0xD01B)] {
            let params = SynthParams {
                class_pairs: pairs,
                loop_iters: 16,
                call_depth: depth,
                seed,
            };
            let src = oi_bench::synth::generate(params);
            assert_eq!(
                synth_output(params),
                unoptimized_output(&src),
                "synth {params:?}"
            );
        }
    }

    #[test]
    fn committed_fig17_outputs_match_the_small_programs() {
        for bench in all_benchmarks(BenchSize::Small) {
            assert_eq!(
                fig17_output(BenchSize::Small, bench.name),
                unoptimized_output(&bench.source),
                "{}",
                bench.name
            );
        }
    }

    #[test]
    fn a_corrupted_expected_value_counts_as_a_failure() {
        let bench = &all_benchmarks(BenchSize::Small)[0];
        let program = oi_ir::lower::compile(&bench.source).expect("source lowers");
        let optimized = oi_core::optimize(&program, &Default::default());
        let output = oi_vm::run(&optimized.program, &VmConfig::default())
            .expect("program runs")
            .output;
        let good = fig17_output(BenchSize::Small, bench.name);
        let corrupted = good.replacen('1', "2", 1);
        assert_ne!(good, corrupted);

        let mut tally = Tally::default();
        assert!(tally.check_output(Some(&output), &good));
        assert!(!tally.check_output(Some(&output), &corrupted));
        assert!(
            !tally.check_output(None, &good),
            "a missing output fails too"
        );
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        assert!((tally.ok_share() - 1.0 / 3.0).abs() < 1e-12);
    }
}
