//! `fig17-run`: the five Fig-17 programs at `default` size, compiled in
//! set-up, then run on the VM in the timed window.
//!
//! Each round visits the programs in a seeded order and runs the baseline
//! and the inlined build back to back, in a seeded order too. Interleaving
//! matters: on a small shared VM absolute run times drift between rounds
//! far more than the baseline/inlined ratio does. The VM does nearly all
//! the work here (up to 8.3M dispatches per run); analysis does none.

use crate::calib::Calibration;
use crate::layers;
use crate::oracle::{self, Tally};
use crate::stats;
use crate::{Window, Workload};
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::pipeline::{baseline, optimize, InlineConfig};
use oi_ir::Program;
use oi_support::rng::XorShift64;
use oi_support::trace::{self, Tracer};
use oi_vm::{Metrics, VmConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The tail percentile `tail_ms` reports, over run times pooled across
/// programs relative to their own median: a 25-second window has over
/// 100 inlined runs, so 25 or more lie beyond p75.
const TAIL_PCT: f64 = 75.0;

/// The `vm.*` per-layer metrics of `[baseline, inlined]`.
const VM_METRICS: [[&str; 5]; 2] = [
    [
        "vm.baseline.dispatches",
        "vm.baseline.ns_per_dispatch",
        "vm.baseline.cycles",
        "vm.baseline.allocations",
        "vm.baseline.cache_misses",
    ],
    [
        "vm.inlined.dispatches",
        "vm.inlined.ns_per_dispatch",
        "vm.inlined.cycles",
        "vm.inlined.allocations",
        "vm.inlined.cache_misses",
    ],
];

pub struct Fig17Run;

/// The headline figures of one window's run times, `[program][build]` in ms.
struct Summary {
    /// Programs with at least one run of each build.
    complete: Vec<usize>,
    /// Geomean over `complete` of the per-program median baseline run.
    run_baseline: f64,
    /// The same of the inlined runs.
    run_inlined: f64,
    /// Geomean of the per-program baseline/inlined median ratios.
    wall_speedup: f64,
    /// `run_inlined` times the `TAIL_PCT` of the inlined runs over their
    /// own program's median, pooled.
    tail: f64,
    /// How many inlined runs that pool holds.
    pooled: usize,
    /// Runs of both builds per second of run time.
    throughput: f64,
}

impl Summary {
    fn of(times: &[[Vec<f64>; 2]]) -> Summary {
        let median = |p: usize, b: usize| stats::median(&times[p][b]);
        let complete: Vec<usize> = (0..times.len())
            .filter(|&p| !times[p][0].is_empty() && !times[p][1].is_empty())
            .collect();
        let geomean = |f: &dyn Fn(usize) -> f64| {
            stats::geomean(&complete.iter().map(|&p| f(p)).collect::<Vec<_>>())
        };
        let run_inlined = geomean(&|p| median(p, 1));
        let relative: Vec<f64> = complete
            .iter()
            .flat_map(|&p| times[p][1].iter().map(move |t| t / median(p, 1)))
            .collect();
        let runs: usize = times.iter().map(|t| t[0].len() + t[1].len()).sum();
        let total: f64 = times.iter().flatten().flatten().sum();
        Summary {
            run_baseline: geomean(&|p| median(p, 0)),
            run_inlined,
            wall_speedup: geomean(&|p| median(p, 0) / median(p, 1)),
            tail: run_inlined * stats::percentile(&stats::sorted(&relative), TAIL_PCT),
            pooled: relative.len(),
            throughput: 1e3 * runs as f64 / total,
            complete,
        }
    }
}

struct Compiled {
    name: &'static str,
    /// `[baseline, inlined]`.
    builds: [Program; 2],
    expected: String,
}

pub struct State {
    programs: Vec<Compiled>,
    seed: u64,
    code_kb_inlined: f64,
}

impl Workload for Fig17Run {
    type State = State;

    fn setup(&self, seed: u64) -> State {
        let config = InlineConfig::default();
        let mut code_kb = 0.0;
        let programs = all_benchmarks(BenchSize::Default)
            .into_iter()
            .map(|bench| {
                let program = oi_ir::lower::compile(&bench.source).expect("Fig-17 sources lower");
                let inlined = optimize(&program, &config).program;
                code_kb += oi_ir::size::measure(&inlined).kilobytes();
                Compiled {
                    name: bench.name,
                    builds: [baseline(&program, &config.opt), inlined],
                    expected: oracle::fig17_output(BenchSize::Default, bench.name),
                }
            })
            .collect();
        State {
            programs,
            seed,
            code_kb_inlined: code_kb,
        }
    }

    fn window(&self, state: State, seconds: f64, traced: bool) -> Window {
        let vm = VmConfig::default();
        let mut tally = Tally::default();
        let tracer = Rc::new(Tracer::new(Vec::new()));
        let guard = traced.then(|| trace::install(tracer.clone()));
        let mut rng = XorShift64::new(state.seed);
        let n = state.programs.len();
        // times[program][build]: (start, ms); metrics of the first run of each.
        let mut runs_at: Vec<[Vec<(Instant, f64)>; 2]> = vec![[Vec::new(), Vec::new()]; n];
        let mut metrics: Vec<[Option<Metrics>; 2]> = vec![[None, None]; n];
        let mut order: Vec<usize> = (0..n).collect();
        let mut calib = Calibration::new();
        let mut paused = 0.0;
        let start = Instant::now();
        'rounds: loop {
            for i in (1..n).rev() {
                order.swap(i, rng.below(i + 1));
            }
            for &p in &order {
                let first = rng.below(2);
                for build in [first, 1 - first] {
                    if start.elapsed().as_secs_f64() >= seconds {
                        break 'rounds;
                    }
                    paused += calib.maybe_sample().as_secs_f64();
                    let compiled = &state.programs[p];
                    let t = Instant::now();
                    let result = oi_vm::run(black_box(&compiled.builds[build]), &vm);
                    runs_at[p][build].push((t, t.elapsed().as_secs_f64() * 1e3));
                    let output = result.as_ref().ok().map(|r| r.output.as_str());
                    tally.check_output(output, &compiled.expected);
                    if let (Ok(r), None) = (&result, &metrics[p][build]) {
                        metrics[p][build] = Some(r.metrics);
                    }
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64() - paused;
        drop(guard);
        let times_by = |scale: &dyn Fn(Instant, f64) -> f64| -> Vec<[Vec<f64>; 2]> {
            runs_at
                .iter()
                .map(|builds| {
                    builds
                        .clone()
                        .map(|runs| runs.iter().map(|&(t, ms)| scale(t, ms)).collect())
                })
                .collect()
        };
        let times = times_by(&|t, ms| calib.scale(t, ms));
        let scaled = Summary::of(&times);
        let raw = Summary::of(&times_by(&|_, ms| ms));
        let median = |p: usize, b: usize| stats::median(&times[p][b]);
        let complete = scaled.complete.clone();
        if complete.len() < n {
            println!("# fig17-run: window too short to run every program twice");
            tally.record(false);
        }
        let Summary {
            run_baseline,
            run_inlined,
            wall_speedup,
            tail,
            ..
        } = scaled;
        let runs: usize = times.iter().map(|t| t[0].len() + t[1].len()).sum();

        let sum = |b: usize, f: fn(&Metrics) -> u64| -> f64 {
            metrics
                .iter()
                .filter_map(|m| m[b].as_ref())
                .map(|m| f(m) as f64)
                .sum()
        };
        let speedup_modeled = stats::geomean(
            &metrics
                .iter()
                .filter_map(|m| match m {
                    [Some(b), Some(i)] => Some(b.cycles as f64 / i.cycles as f64),
                    _ => None,
                })
                .collect::<Vec<_>>(),
        );
        let mut layers_out = BTreeMap::new();
        if traced {
            // The window compiles nothing: the tracer's pipeline totals are
            // the ≈0 check for every compile layer.
            for &(metric, spans) in layers::STAGES {
                let us: u64 = spans.iter().map(|s| layers::phase_us(&tracer, s)).sum();
                layers_out.insert(metric, us as f64 / 1e3);
            }
            layers::analysis_counts(&tracer, &mut layers_out);
            for (b, names) in VM_METRICS.iter().enumerate() {
                let [dispatches, ns_per_dispatch, cycles, allocations, cache_misses] = *names;
                let dispatches_one_each = sum(b, |m| m.instructions);
                let total_ns: f64 = runs_at
                    .iter()
                    .flat_map(|r| r[b].iter().map(|x| x.1))
                    .sum::<f64>()
                    * 1e6;
                let total_dispatches: f64 = (0..n)
                    .map(|p| {
                        metrics[p][b]
                            .as_ref()
                            .map_or(0.0, |m| m.instructions as f64)
                            * times[p][b].len() as f64
                    })
                    .sum();
                layers_out.insert(dispatches, dispatches_one_each);
                layers_out.insert(ns_per_dispatch, total_ns / total_dispatches);
                layers_out.insert(cycles, sum(b, |m| m.cycles));
                layers_out.insert(allocations, sum(b, |m| m.allocations));
                layers_out.insert(cache_misses, sum(b, |m| m.cache_misses));
            }
            layers::scale_times(&mut layers_out, calib.factor());
            layers_out.insert("run_baseline_ms", run_baseline);
            layers_out.insert("run_inlined_ms", run_inlined);
            layers_out.insert("wall_speedup", wall_speedup);
            layers_out.insert("speedup_modeled", speedup_modeled);
        }
        for &p in &complete {
            println!(
                "# fig17-run {:16} baseline {:9.3} ms  inlined {:9.3} ms  ({} + {} runs)",
                state.programs[p].name,
                median(p, 0),
                median(p, 1),
                times[p][0].len(),
                times[p][1].len()
            );
        }
        println!(
            "# fig17-run: {runs} runs in {elapsed:.3} s, {} inlined runs pooled beyond p{TAIL_PCT}",
            stats::beyond(scaled.pooled, TAIL_PCT)
        );
        Window {
            tally,
            e2e: vec![
                ("p50_ms", run_inlined),
                ("tail_ms", tail),
                ("throughput_per_s", scaled.throughput),
                ("code_kb_inlined", state.code_kb_inlined),
            ],
            raw: vec![
                ("p50_ms", raw.run_inlined),
                ("tail_ms", raw.tail),
                ("throughput_per_s", raw.throughput),
            ],
            layers: layers_out,
            named: vec![
                ("run_inlined_ms".into(), run_inlined, "ms"),
                ("run_baseline_ms".into(), run_baseline, "ms"),
                ("wall_speedup".into(), wall_speedup, "x"),
                ("speedup_modeled".into(), speedup_modeled, "x"),
                (format!("run_inlined_ms_p{TAIL_PCT}"), tail, "ms"),
            ],
            calib,
        }
    }
}
