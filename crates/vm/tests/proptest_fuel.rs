//! Property test: a run cut into fuel slices of random sizes is the
//! one-shot run. Over synth programs of random shape, both builds, with
//! and without profiling and checking, every random slice sequence must
//! reproduce the one-shot output, `Metrics`, profile, sanitizer report and
//! fuel total. Slices of 0–3 dispatches land on block terminators.
//!
//! Cases come from the in-repo seeded PRNG, so a failure reproduces from
//! the seed in its message.

use oi_bench::synth::{generate, SynthParams};
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::Program;
use oi_support::rng::XorShift64;
use oi_vm::{CheckLevel, FuelOutcome, RunResult, VmConfig, VmSession};

/// Runs `program` in slices drawn from `rng` until it completes; returns
/// the result, the summed fuel and the number of slices.
fn sliced(program: &Program, config: &VmConfig, rng: &mut XorShift64) -> (RunResult, u64, u64) {
    let mut session = VmSession::new(program, config).expect("entry frame");
    let (mut fuel, mut slices) = (0, 0);
    loop {
        let slice = match rng.below(4) {
            0 => rng.below(4) as u64,
            1 => rng.below(64) as u64,
            2 => rng.below(4096) as u64,
            _ => 1 + rng.below(2) as u64,
        };
        slices += 1;
        match session.run_fuel(program, slice) {
            FuelOutcome::Yielded { fuel_spent } => {
                assert!(fuel_spent <= slice);
                fuel += fuel_spent;
            }
            FuelOutcome::Done { fuel_spent, result } => {
                fuel += fuel_spent;
                return (*result, fuel, slices);
            }
            FuelOutcome::Trapped { error, .. } => panic!("trapped: {error}"),
        }
    }
}

#[test]
fn random_slice_sequences_match_one_shot_runs() {
    let inline = InlineConfig::default();
    for seed in 0..64u64 {
        let mut rng = XorShift64::new(seed);
        let params = SynthParams {
            class_pairs: 1 + rng.below(5),
            loop_iters: 1 + rng.below(8),
            call_depth: 1 + rng.below(3),
            seed: rng.next_u64(),
        };
        let program = oi_ir::lower::compile(&generate(params)).expect("synth lowers");
        let config = VmConfig {
            profile: rng.chance(1, 2),
            checked: if rng.chance(1, 2) {
                CheckLevel::Full
            } else {
                CheckLevel::Off
            },
            ..Default::default()
        };
        for build in [
            baseline(&program, &inline.opt),
            optimize(&program, &inline).program,
        ] {
            let mut session = VmSession::new(&build, &config).expect("entry frame");
            let FuelOutcome::Done {
                fuel_spent: oneshot_fuel,
                result: oneshot,
            } = session.run_fuel(&build, u64::MAX)
            else {
                panic!("seed {seed}: one-shot run did not complete");
            };
            for round in 0..3 {
                let (result, fuel, slices) = sliced(&build, &config, &mut rng);
                let what = format!("seed {seed} round {round} ({slices} slices) {params:?}");
                assert_eq!(result.output, oneshot.output, "{what}");
                assert_eq!(result.metrics, oneshot.metrics, "{what}");
                assert_eq!(fuel, oneshot_fuel, "{what}");
                assert_eq!(result.profile, oneshot.profile, "{what}");
                assert_eq!(result.sanitizer, oneshot.sanitizer, "{what}");
            }
        }
    }
}
