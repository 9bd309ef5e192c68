//! Ablation: contribution of object-field vs. array-element inlining.

use oi_bench::harness::Group;
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{optimize, InlineConfig};
use oi_vm::VmConfig;

fn main() {
    let group = Group::new("ablation_passes").sample_size(10);
    for b in all_benchmarks(BenchSize::Small) {
        let program = oi_ir::lower::compile(&b.source).unwrap();
        let configs = [
            ("full", InlineConfig::default()),
            (
                "fields_only",
                InlineConfig {
                    array_elements: false,
                    ..Default::default()
                },
            ),
            (
                "arrays_only",
                InlineConfig {
                    object_fields: false,
                    ..Default::default()
                },
            ),
        ];
        for (label, config) in configs {
            let opt = optimize(&program, &config).program;
            group.bench(&format!("{}/{}", b.name, label), || {
                oi_vm::run(&opt, &VmConfig::default()).unwrap();
            });
        }
    }
}
