//! `compile-mix`: repeated `lower::compile` + `pipeline::optimize` over a
//! seeded draw of programs.
//!
//! The pool is the five Fig-17 sources plus `synth::generate` programs on a
//! fixed grid of 2–64 class pairs and call depth 1–4, so compile sizes
//! spread from about 1 ms to about 35 ms. The seed shuffles the order of
//! every pass over the pool and seeds the synth constants; it does not
//! change the pool's shapes, so medians compare across seeds. The analysis
//! fixpoint and the transforms do nearly all the work; the VM runs only in
//! set-up, where each optimized program's output is checked.

use crate::calib::Calibration;
use crate::layers;
use crate::oracle::{self, Tally};
use crate::stats;
use crate::{Window, Workload};
use oi_bench::synth::{self, SynthParams};
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{optimize, InlineConfig};
use oi_support::rng::XorShift64;
use oi_support::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

const PAIRS: [usize; 6] = [2, 4, 8, 16, 32, 64];
const DEPTHS: [usize; 4] = [1, 2, 3, 4];
/// The tail percentile `tail_ms` reports: twenty or more of the 2,000+
/// compiles of a 25-second window lie beyond it.
const TAIL_PCT: f64 = 99.0;

pub struct CompileMix;

/// One program of the pool with what the oracle expects of it.
pub struct Entry {
    source: String,
    /// Object fields plus array sites the pipeline must inline.
    expected_auto: usize,
}

pub struct State {
    pool: Vec<Entry>,
    seed: u64,
    code_kb_inlined: f64,
    setup_tally: Tally,
}

/// The pool for `seed`: Fig-17 sources first, then the synth grid.
pub fn pool(seed: u64) -> Vec<(Entry, String)> {
    let mut pool = Vec::new();
    for bench in all_benchmarks(BenchSize::Default) {
        let expected = oracle::fig17_output(BenchSize::Default, bench.name);
        pool.push((
            Entry {
                source: bench.source,
                expected_auto: bench.ground_truth.expected_auto,
            },
            expected,
        ));
    }
    let mut rng = XorShift64::new(seed ^ 0xC0_4D11E);
    for pairs in PAIRS {
        for depth in DEPTHS {
            let params = SynthParams {
                class_pairs: pairs,
                loop_iters: 16,
                call_depth: depth,
                seed: rng.next_u64(),
            };
            // Every Holder.c field is inlinable by construction.
            let entry = Entry {
                source: synth::generate(params),
                expected_auto: pairs,
            };
            pool.push((entry, oracle::synth_output(params)));
        }
    }
    pool
}

/// The auto-inlined count the oracle checks for every compile.
fn auto(opt: &oi_core::Optimized) -> usize {
    opt.report.fields_inlined + opt.report.array_sites_inlined
}

impl Workload for CompileMix {
    type State = State;

    /// Builds the pool, compiles each program once and runs it once to
    /// check its output (the only VM work this workload does).
    fn setup(&self, seed: u64) -> State {
        let config = InlineConfig::default();
        let mut tally = Tally::default();
        let mut code_bytes = 0.0;
        let mut entries = Vec::new();
        for (entry, expected) in pool(seed) {
            let program = oi_ir::lower::compile(&entry.source).expect("pool sources lower");
            let opt = optimize(&program, &config);
            code_bytes += oi_ir::size::measure(&opt.program).kilobytes();
            tally.record(auto(&opt) == entry.expected_auto);
            let output = oi_vm::run(&opt.program, &Default::default()).ok();
            tally.check_output(output.as_ref().map(|r| r.output.as_str()), &expected);
            entries.push(entry);
        }
        State {
            pool: entries,
            seed,
            code_kb_inlined: code_bytes,
            setup_tally: tally,
        }
    }

    fn window(&self, state: State, seconds: f64, traced: bool) -> Window {
        let config = InlineConfig::default();
        let mut tally = state.setup_tally;
        let tracer = Rc::new(Tracer::new(Vec::new()));
        let guard = traced.then(|| trace::install(tracer.clone()));
        let mut rng = XorShift64::new(state.seed);
        let mut order: Vec<usize> = (0..state.pool.len()).collect();
        let (mut wall_ms, mut stamps, mut lower_ms) = (Vec::new(), Vec::new(), 0.0);
        let mut first_pass = BTreeMap::new();
        let mut calib = Calibration::new();
        let mut paused = 0.0;
        let start = Instant::now();
        'passes: for pass in 0.. {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let (mut fields, mut arrays) = (0, 0);
            for &i in &order {
                if start.elapsed().as_secs_f64() >= seconds {
                    break 'passes;
                }
                paused += calib.maybe_sample().as_secs_f64();
                let entry = &state.pool[i];
                let t0 = Instant::now();
                let program = oi_ir::lower::compile(black_box(&entry.source));
                let t1 = Instant::now();
                let ok = match program {
                    Ok(program) => {
                        let opt = black_box(optimize(&program, &config));
                        fields += opt.report.fields_inlined;
                        arrays += opt.report.array_sites_inlined;
                        auto(&opt) == entry.expected_auto
                    }
                    Err(_) => false,
                };
                let t2 = Instant::now();
                tally.record(ok);
                wall_ms.push((t2 - t0).as_secs_f64() * 1e3);
                stamps.push(t0);
                lower_ms += (t1 - t0).as_secs_f64() * 1e3;
            }
            if pass == 0 {
                // Counts over exactly one pass repeat bit for bit.
                layers::analysis_counts(&tracer, &mut first_pass);
                first_pass.insert("fields_inlined", fields as f64);
                first_pass.insert("array_sites_inlined", arrays as f64);
            }
        }
        let elapsed = start.elapsed().as_secs_f64() - paused;
        drop(guard);

        let scaled: Vec<f64> = wall_ms
            .iter()
            .zip(&stamps)
            .map(|(&ms, &t)| calib.scale(t, ms))
            .collect();
        let sorted = stats::sorted(&scaled);
        let n = sorted.len();
        let throughput = 1e3 * n as f64 / scaled.iter().sum::<f64>();
        let p50 = stats::percentile(&sorted, 50.0);
        let tail = stats::percentile(&sorted, TAIL_PCT);
        let mut layers_out = BTreeMap::new();
        if traced {
            let total: f64 = wall_ms.iter().sum();
            layers::stage_breakdown(&tracer, n, lower_ms, total, &mut layers_out);
            layers::scale_times(&mut layers_out, calib.factor());
            layers_out.extend(first_pass);
        }
        let raw = stats::sorted(&wall_ms);
        let beyond = stats::beyond(n, TAIL_PCT);
        println!("# compile-mix: {n} compiles in {elapsed:.3} s, {beyond} beyond p{TAIL_PCT}");
        Window {
            tally,
            e2e: vec![
                ("p50_ms", p50),
                ("tail_ms", tail),
                ("throughput_per_s", throughput),
                ("code_kb_inlined", state.code_kb_inlined),
            ],
            raw: vec![
                ("p50_ms", stats::percentile(&raw, 50.0)),
                ("tail_ms", stats::percentile(&raw, TAIL_PCT)),
                ("throughput_per_s", 1e3 * n as f64 / raw.iter().sum::<f64>()),
            ],
            layers: layers_out,
            named: vec![
                ("compile_ms_p50".into(), p50, "ms"),
                (format!("compile_ms_p{TAIL_PCT}"), tail, "ms"),
                ("code_kb_inlined".into(), state.code_kb_inlined, "KB"),
                ("compiles".into(), n as f64, "count"),
            ],
            calib,
        }
    }
}
