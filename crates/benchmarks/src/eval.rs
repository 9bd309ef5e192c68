//! The evaluation harness: compile a benchmark three ways and measure.

use crate::programs::Benchmark;
use oi_analysis::{analyze, AnalysisConfig, ContourStats};
use oi_core::ladder::{optimize_with_ladder, LadderConfig};
use oi_core::pipeline::{baseline, InlineConfig, Optimized};
use oi_ir::size::SizeReport;
use oi_ir::Program;
use oi_support::Budget;
use oi_vm::{HeapCensusReport, Metrics, VmConfig};

/// Problem sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchSize {
    /// Seconds-scale CI runs.
    Small,
    /// The default measurement size.
    Default,
    /// Stress size.
    Large,
}

/// Everything measured about one benchmark.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Benchmark name.
    pub name: &'static str,
    /// Metrics of the baseline (Concert-without-inlining) build.
    pub baseline: Metrics,
    /// Metrics of the object-inlined build.
    pub inlined: Metrics,
    /// Metrics of the hand-inlined source (the `G++ -O2` stand-in).
    pub manual: Metrics,
    /// Heap census of the baseline run.
    pub baseline_census: HeapCensusReport,
    /// Heap census of the object-inlined run.
    pub inlined_census: HeapCensusReport,
    /// Effectiveness counters (Figure 14's measured column).
    pub report: oi_core::EffectivenessReport,
    /// Generated-code size of the baseline build (Figure 15).
    pub baseline_size: SizeReport,
    /// Generated-code size of the inlined build (Figure 15).
    pub inlined_size: SizeReport,
    /// Method contours without / with the inlining sensitivity (Figure 16).
    pub contours: (ContourStats, ContourStats),
    /// Method clone groups the paper's §5.1 cloning would materialize,
    /// with the inlining sensitivity.
    pub clone_groups: usize,
    /// Program output (identical across baseline and inlined builds).
    pub output: String,
}

impl Evaluation {
    /// Speedup of the inlined build over the baseline (Figure 17's main
    /// bar, normalized to baseline = 1.0).
    pub fn speedup(&self) -> f64 {
        self.inlined.speedup_over(&self.baseline)
    }

    /// Relative performance of the manual build (the `G++` bar).
    pub fn manual_speedup(&self) -> f64 {
        self.manual.speedup_over(&self.baseline)
    }
}

/// A benchmark's two Figure 17 builds, ready to run.
#[derive(Debug)]
pub struct Build {
    /// The lowered source, before any optimization.
    pub program: Program,
    /// The baseline (Concert-without-inlining) build.
    pub baseline: Program,
    /// The object-inlined build and its effectiveness report.
    pub inlined: Optimized,
}

/// Compiles a benchmark's baseline and object-inlined builds: lowering,
/// [`baseline`], then the degradation ladder with the oracle off. This is
/// the compile work the Figure 17 runs depend on, and the compile layer
/// that snapshots time.
///
/// # Panics
///
/// Panics if the source fails to lower.
pub fn build(bench: &Benchmark, inline_config: &InlineConfig) -> Build {
    let program = oi_ir::lower::compile(&bench.source)
        .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(&bench.source)));
    let baseline = baseline(&program, &inline_config.opt);
    // The degradation ladder (oracle off: `evaluate` checks outputs
    // itself) keeps a pathological configuration from panicking the
    // whole evaluation; a descent shows up as `report.tier`.
    let ladder = LadderConfig {
        inline: *inline_config,
        oracle: false,
        ..Default::default()
    };
    let inlined = optimize_with_ladder(&program, &ladder, &Budget::unlimited()).optimized;
    Build {
        program,
        baseline,
        inlined,
    }
}

/// Compiles and measures one benchmark: [`build`], the manual variant,
/// the Figure 16 analyses, and one run of each build.
///
/// # Panics
///
/// Panics if any variant fails to compile or run, or if the baseline and
/// object-inlined builds print different output (a correctness bug).
pub fn evaluate(bench: &Benchmark, vm: &VmConfig, inline_config: &InlineConfig) -> Evaluation {
    let Build {
        program,
        baseline: base,
        inlined: opt,
    } = build(bench, inline_config);
    let manual_program = oi_ir::lower::compile(&bench.manual_source)
        .unwrap_or_else(|e| panic!("{} manual: {}", bench.name, e.render(&bench.manual_source)));

    // Figure 16: the analysis without, then with, the inlining (tag)
    // sensitivity; the tagged result also groups the clones.
    let untagged = analyze(&program, &AnalysisConfig::without_tags());
    let tagged = analyze(&program, &AnalysisConfig::default());
    let clone_groups = oi_analysis::report::clone_groups(&program, &tagged);

    // The manual variant gets the same baseline cleanups (devirt, method
    // inlining) so the comparison isolates data layout.
    let manual = baseline(&manual_program, &inline_config.opt);

    let base_run = oi_vm::run(&base, vm).unwrap_or_else(|e| panic!("{} baseline: {e}", bench.name));
    let opt_run =
        oi_vm::run(&opt.program, vm).unwrap_or_else(|e| panic!("{} inlined: {e}", bench.name));
    let manual_run =
        oi_vm::run(&manual, vm).unwrap_or_else(|e| panic!("{} manual: {e}", bench.name));

    assert_eq!(
        base_run.output, opt_run.output,
        "{}: object inlining changed program output",
        bench.name
    );
    assert_eq!(
        base_run.output, manual_run.output,
        "{}: manual variant computes something different",
        bench.name
    );

    Evaluation {
        name: bench.name,
        baseline: base_run.metrics,
        inlined: opt_run.metrics,
        manual: manual_run.metrics,
        baseline_census: base_run.heap_census,
        inlined_census: opt_run.heap_census,
        report: opt.report,
        baseline_size: oi_ir::size::measure(&base),
        inlined_size: oi_ir::size::measure(&opt.program),
        contours: (
            ContourStats::from_result(&untagged),
            ContourStats::from_result(&tagged),
        ),
        clone_groups,
        output: base_run.output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::all_benchmarks;

    #[test]
    fn oopack_evaluates_with_speedup() {
        let bench = crate::programs::oopack::benchmark(BenchSize::Small);
        let eval = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
        assert!(
            eval.speedup() > 1.1,
            "oopack should speed up: {:.2} ({} vs {})",
            eval.speedup(),
            eval.inlined.cycles,
            eval.baseline.cycles,
        );
        assert!(eval.inlined.allocations < eval.baseline.allocations);
    }

    #[test]
    fn every_benchmark_preserves_output_under_inlining() {
        for bench in all_benchmarks(BenchSize::Small) {
            // `evaluate` asserts output equality internally.
            let eval = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
            assert!(!eval.output.is_empty());
        }
    }

    #[test]
    fn census_accounting_agrees_with_metrics_on_every_benchmark() {
        // The heap census and the interpreter's `words_allocated` counter
        // are independent accountings of the same bump allocator; they must
        // agree on programs that allocate objects, arrays, and (in the
        // inlined builds) inline children.
        let mut saw_inline_children = false;
        for bench in all_benchmarks(BenchSize::Small) {
            let eval = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
            assert_eq!(
                eval.baseline.words_allocated, eval.baseline_census.total_words,
                "{}: baseline metrics vs census drift",
                bench.name
            );
            assert_eq!(
                eval.inlined.words_allocated, eval.inlined_census.total_words,
                "{}: inlined metrics vs census drift",
                bench.name
            );
            assert_eq!(
                eval.baseline.allocations, eval.baseline_census.total_objects,
                "{}: baseline allocation count vs census drift",
                bench.name
            );
            // Inlining folds children into containers: fewer objects and
            // fewer header words, never more.
            assert!(
                eval.inlined_census.header_words <= eval.baseline_census.header_words,
                "{}: inlining must not add header words",
                bench.name
            );
            saw_inline_children |=
                eval.inlined_census.inline_elements > 0 || eval.inlined.inline_child_accesses > 0;
        }
        assert!(
            saw_inline_children,
            "suite should exercise inline children somewhere"
        );
    }

    #[test]
    fn effectiveness_matches_ground_truth() {
        for bench in all_benchmarks(BenchSize::Small) {
            let eval = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
            let auto = eval.report.fields_inlined + eval.report.array_sites_inlined;
            assert_eq!(
                auto, bench.ground_truth.expected_auto,
                "{}: expected {} automatic inlinings, got {} (fields {:?}, {} arrays); rejected: {:#?}",
                bench.name,
                bench.ground_truth.expected_auto,
                auto,
                eval.report
                    .outcomes
                    .iter()
                    .filter(|o| o.inlined)
                    .map(|o| o.name.clone())
                    .collect::<Vec<_>>(),
                eval.report.array_sites_inlined,
                eval.report
                    .outcomes
                    .iter()
                    .filter(|o| !o.inlined)
                    .collect::<Vec<_>>(),
            );
        }
    }
}
