//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload compile-mix|fig17-run|serve-zipf --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets its workload up several times (the median is `setup_s`),
//! then measures for `--seconds` with tracing off. With `--trace 1` a
//! second, traced window on a fresh set-up follows; it gives the per-layer
//! metrics and `trace.overhead_pct`. End-to-end metrics always come from
//! the untraced window. Every program output is checked against the
//! oracle (`oracle.rs`); the last stdout line is the JSON result and the
//! exit code is 1 when any output was wrong. See `README.md`.

mod calib;
mod compile_mix;
mod fig17;
mod layers;
mod oracle;
mod serve_zipf;
mod stats;

use calib::Calibration;
use oi_support::Json;
use oracle::Tally;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one measured window produced.
pub struct Window {
    pub tally: Tally,
    /// The workload's end-to-end metrics other than `setup_s`,
    /// `peak_rss_mb` and `ok_share`, which every workload shares; times
    /// already scaled to the reference speed (see `calib.rs`).
    pub e2e: Vec<(&'static str, f64)>,
    /// The timed ones among `e2e` as measured, before scaling; printed
    /// for people.
    pub raw: Vec<(&'static str, f64)>,
    /// Per-layer metrics this workload measures, times scaled to the
    /// reference speed; every other per-layer metric reads zero because
    /// the workload never enters that layer.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload-specific names of the headline numbers (`compile_ms_p50`,
    /// `wall_speedup`, `serve_p99_ms`, ...), as reported, printed for
    /// people.
    pub named: Vec<(String, f64, &'static str)>,
    /// Reference timings taken during the window.
    pub calib: Calibration,
}

impl Window {
    fn e2e(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// A workload: set up from a seed, then measure one window.
pub trait Workload {
    type State;
    fn setup(&self, seed: u64) -> Self::State;
    fn window(&self, state: Self::State, seconds: f64, traced: bool) -> Window;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `SETUPS` set-ups and one window (two with `--trace 1`, each on a
/// fresh set-up), and assembles the metrics `BENCHMARK.json` declares, in
/// its order.
fn measure<W: Workload>(w: &W, args: &Args) -> (Tally, Vec<(String, f64, String)>) {
    let mut setup_s = Vec::new();
    let mut setup_calib = Calibration::new();
    let mut states = Vec::new();
    let windows = if args.trace { 2 } else { 1 };
    for i in 0..SETUPS {
        let t = Instant::now();
        let state = w.setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_calib.sample();
        if i + windows >= SETUPS {
            states.push(state);
        }
    }
    let mut states = states.into_iter();
    let plain = w.window(
        states.next().expect("a set-up per window"),
        args.seconds,
        false,
    );
    let mut tally = plain.tally;
    let setup_raw = stats::median(&setup_s);
    println!(
        "# reference kernel {:.4} ms in the window, {:.4} ms in set-up; times are scaled to {} ms",
        plain.calib.median_ms(),
        setup_calib.median_ms(),
        calib::NOMINAL_MS,
    );
    println!("# raw setup_s = {setup_raw}");
    for (name, value) in &plain.raw {
        println!("# raw {name} = {value}");
    }
    for (name, value, unit) in &plain.named {
        println!("# {name} = {value} {unit}");
    }
    let mut out = Vec::new();
    if args.trace {
        let traced = w.window(
            states.next().expect("a set-up per window"),
            args.seconds,
            true,
        );
        tally.add(traced.tally);
        let overhead = 100.0 * (traced.e2e("p50_ms") / plain.e2e("p50_ms") - 1.0);
        let declared = layers::declared("per_layer");
        for name in traced.layers.keys() {
            assert!(
                declared.iter().any(|(n, _)| n == name),
                "{name} is not a per-layer metric of BENCHMARK.json"
            );
        }
        for (name, unit) in declared {
            let value = match name.as_str() {
                "trace.overhead_pct" => overhead,
                _ => traced.layers.get(name.as_str()).copied().unwrap_or(0.0),
            };
            out.push((name, value, unit));
        }
    } else {
        let mut values: BTreeMap<&str, f64> = plain.e2e.iter().copied().collect();
        values.insert("setup_s", setup_raw * setup_calib.factor());
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert("ok_share", tally.ok_share());
        for (name, unit) in layers::declared("end_to_end") {
            let value = *values
                .get(name.as_str())
                .unwrap_or_else(|| panic!("{} does not measure {name}", args.workload));
            out.push((name, value, unit));
        }
    }
    for (name, value, unit) in &out {
        println!("# {name} = {value} {unit}");
    }
    (tally, out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let (tally, metrics) = match args.workload.as_str() {
        "compile-mix" => measure(&compile_mix::CompileMix, &args),
        "fig17-run" => measure(&fig17::Fig17Run, &args),
        "serve-zipf" => measure(&serve_zipf::ServeZipf, &args),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (compile-mix, fig17-run, serve-zipf)");
            std::process::exit(2);
        }
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj(vec![
                                ("value", (*value).into()),
                                ("unit", unit.as_str().into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed or printed a wrong output",
            tally.failed, tally.attempted
        );
        std::process::exit(1);
    }
}
