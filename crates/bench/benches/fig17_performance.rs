//! Times the simulated execution of each benchmark in baseline and inlined
//! form (Figure 17's underlying measurement).

use oi_bench::harness::Group;
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_vm::VmConfig;

fn main() {
    let group = Group::new("fig17_performance").sample_size(10);
    for b in all_benchmarks(BenchSize::Small) {
        let program = oi_ir::lower::compile(&b.source).unwrap();
        let base = baseline(&program, &Default::default());
        let opt = optimize(&program, &InlineConfig::default()).program;
        group.bench(&format!("{}/baseline", b.name), || {
            oi_vm::run(&base, &VmConfig::default()).unwrap();
        });
        group.bench(&format!("{}/inlined", b.name), || {
            oi_vm::run(&opt, &VmConfig::default()).unwrap();
        });
    }
}
