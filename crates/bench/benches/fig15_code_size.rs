//! Measures code size with/without inlining (Figure 15) and times the
//! size model itself.

use oi_bench::harness::Group;
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{baseline, optimize, InlineConfig};

fn main() {
    let group = Group::new("fig15_code_size").sample_size(10);
    for b in all_benchmarks(BenchSize::Small) {
        let program = oi_ir::lower::compile(&b.source).unwrap();
        let base = baseline(&program, &Default::default());
        let opt = optimize(&program, &InlineConfig::default()).program;
        let without = oi_ir::size::measure(&base).kilobytes();
        let with = oi_ir::size::measure(&opt).kilobytes();
        assert!(
            with / without < 1.4,
            "{}: {with:.1}KB vs {without:.1}KB",
            b.name
        );
        group.bench(b.name, || {
            oi_ir::size::measure(&opt);
        });
    }
}
