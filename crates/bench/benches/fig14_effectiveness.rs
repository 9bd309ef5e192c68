//! Times the effectiveness measurement (analysis + decision) per benchmark
//! and checks the Figure 14 counts as a side effect.

use oi_bench::harness::Group;
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{optimize, InlineConfig};

fn main() {
    let group = Group::new("fig14_effectiveness").sample_size(10);
    for b in all_benchmarks(BenchSize::Small) {
        let program = oi_ir::lower::compile(&b.source).unwrap();
        group.bench(b.name, || {
            let opt = optimize(&program, &InlineConfig::default());
            assert_eq!(
                opt.report.fields_inlined + opt.report.array_sites_inlined,
                b.ground_truth.expected_auto
            );
        });
    }
}
