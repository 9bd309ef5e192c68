//! Scalability of the analysis and the full pipeline with program size
//! (complements Figure 16's sensitivity metric with wall-clock cost).

use oi_analysis::{analyze, AnalysisConfig};
use oi_bench::harness::Group;
use oi_bench::synth::{generate, SynthParams};
use oi_core::pipeline::{optimize, InlineConfig};

fn main() {
    let group = Group::new("analysis_scaling").sample_size(10);
    for pairs in [2usize, 8, 24] {
        let src = generate(SynthParams {
            class_pairs: pairs,
            ..Default::default()
        });
        let program = oi_ir::lower::compile(&src).unwrap();
        group.bench(&format!("analyze/{pairs}"), || {
            analyze(&program, &AnalysisConfig::default());
        });
        group.bench(&format!("optimize/{pairs}"), || {
            optimize(&program, &InlineConfig::default());
        });
    }
}
