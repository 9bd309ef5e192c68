//! Fuel slicing is invisible on real builds: running either build of a
//! small Fig-17 program in slices of 1, 2, 3, 7 or 1000 dispatches gives
//! the one-shot run's output, `Metrics`, profile, sanitizer report and
//! fuel total.

use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::Program;
use oi_vm::{CheckLevel, FuelOutcome, RunResult, VmConfig, VmSession};

/// Runs `program` to completion in slices of `slice` dispatches; returns
/// the result and the summed fuel.
fn sliced(program: &Program, config: &VmConfig, slice: u64) -> (RunResult, u64) {
    let mut session = VmSession::new(program, config).expect("entry frame");
    let mut fuel = 0;
    loop {
        match session.run_fuel(program, slice) {
            FuelOutcome::Yielded { fuel_spent } => {
                assert!(fuel_spent <= slice, "slice overran: {fuel_spent}");
                fuel += fuel_spent;
            }
            FuelOutcome::Done { fuel_spent, result } => {
                fuel += fuel_spent;
                assert_eq!(session.instructions_executed(), fuel);
                return (*result, fuel);
            }
            FuelOutcome::Trapped { error, .. } => panic!("trapped: {error}"),
        }
    }
}

fn check(name: &str, program: &Program, config: &VmConfig) {
    let (oneshot, oneshot_fuel) = sliced(program, config, u64::MAX);
    for slice in [1, 2, 3, 7, 1000] {
        let (result, fuel) = sliced(program, config, slice);
        let what = format!("{name} slice {slice} {config:?}");
        assert_eq!(result.output, oneshot.output, "{what}");
        assert_eq!(result.metrics, oneshot.metrics, "{what}");
        assert_eq!(fuel, oneshot_fuel, "{what}");
        assert_eq!(
            result.allocation_census, oneshot.allocation_census,
            "{what}"
        );
        assert_eq!(result.profile, oneshot.profile, "{what}");
        assert_eq!(result.sanitizer, oneshot.sanitizer, "{what}");
    }
}

#[test]
fn fuel_slices_change_nothing_on_fig17_builds() {
    let inline = InlineConfig::default();
    let configs = [
        VmConfig::default(),
        VmConfig {
            profile: true,
            checked: CheckLevel::Full,
            ..Default::default()
        },
    ];
    for bench in all_benchmarks(BenchSize::Small) {
        let program = oi_ir::lower::compile(&bench.source).expect("source lowers");
        let builds = [
            ("baseline", baseline(&program, &inline.opt)),
            ("inlined", optimize(&program, &inline).program),
        ];
        for (build, p) in &builds {
            for config in &configs {
                check(&format!("{}/{build}", bench.name), p, config);
            }
        }
    }
}
