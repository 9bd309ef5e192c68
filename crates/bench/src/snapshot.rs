//! Benchmark observatory: `oi.bench.v1` metric snapshots and the
//! `oi.benchdiff.v1` noise-aware comparator.
//!
//! [`take_snapshot`] runs every benchmark at one size and folds the
//! whole evaluation into a single schema-stable JSON document:
//!
//! - per-benchmark VM metrics for the baseline and inlined builds,
//! - Figure 14 effectiveness counts,
//! - analysis cost (contour statistics, worklist rounds, per-phase
//!   wall-clock from the `oi-trace` layer),
//! - a heap census per build, plus the derived header-elimination,
//!   inlining-coverage, and inline-locality figures,
//! - wall-clock order statistics per layer (the compile, the baseline
//!   run and the inlined run of each sample) and for their sum, with
//!   each sample visiting every benchmark in turn, and
//! - environment provenance (size, sample count, cost model, git rev).
//!
//! [`compare`] diffs two snapshots metric by metric. The modeled VM is
//! deterministic, so the *gated* metrics (cycles, allocation counts,
//! census words, contour counts, ...) default to exact-match thresholds.
//! Each gated metric gets a three-way verdict — `improved`,
//! `within_noise`, or `regressed` — by comparing the relative delta
//! (inclusive) against a per-metric threshold.
//!
//! Wall-clock is noisy but still gated, per layer, with a threshold the
//! snapshot itself calibrates (see [`oi_support::stats`]): each layer of
//! each row records the noise floor measured from its own interleaved
//! same-binary samples, and the comparator regresses a layer's median
//! only when the paired delta clears a multiple of both rows' floors
//! (never less than [`WALL_GATE_MIN_PCT`]) *and* the minimum corroborates
//! the shift. Gating the layers apart keeps a VM-only slowdown from being
//! diluted by compile time. Layers without calibration (a single sample,
//! or snapshots predating the layers) fall back to the advisory report,
//! as does every wall metric when the caller opts out for cross-host
//! compares (`--wall-advisory`). The whole-sample `wall_clock_ns` and
//! `wall_speedup` are always advisory.

use crate::size_name;
use oi_benchmarks::{BenchSize, Build};
use oi_support::stats;
use oi_support::trace::{self, TraceMode, Tracer};
use oi_support::Json;
use std::rc::Rc;

/// Schema tag of snapshot documents.
pub const SNAPSHOT_SCHEMA: &str = "oi.bench.v1";
/// Schema tag of comparison documents.
pub const DIFF_SCHEMA: &str = "oi.benchdiff.v1";

/// Default number of wall-clock samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 5;

/// Entries kept per profile table when `--profile` embeds a truncated
/// execution profile in each benchmark row.
pub const PROFILE_TOP_N: usize = 3;

/// Options for [`take_snapshot_with`] beyond size and sample count.
#[derive(Clone, Debug, Default)]
pub struct SnapshotOptions {
    /// VM configuration for every run. A checked (`CheckLevel::Full`)
    /// VM is a genuinely slower interpreter with unchanged modeled
    /// metrics, which is how the tests prove the run-layer wall gates
    /// fire.
    pub vm: oi_vm::VmConfig,
    /// Embed a truncated (top-[`PROFILE_TOP_N`]) execution profile per
    /// benchmark row (`oic bench snapshot --profile`). Additive to the
    /// `oi.bench.v1` schema: absent unless requested.
    pub profile: bool,
}

/// The wall-clock layers of one snapshot sample, in the order each
/// sample times them: [`oi_benchmarks::build`], the baseline run, and
/// the inlined run.
pub const WALL_LAYERS: [&str; 3] = ["compile", "baseline_run", "inlined_run"];

/// Takes a full-suite snapshot with default options. `samples` counts the
/// timed samples per benchmark (the metric-collecting evaluation is
/// extra and untimed). `git_rev` is recorded verbatim as provenance.
pub fn take_snapshot(size: BenchSize, samples: usize, git_rev: &str) -> Json {
    take_snapshot_with(size, samples, git_rev, &SnapshotOptions::default())
}

/// Takes a full-suite snapshot under explicit [`SnapshotOptions`].
pub fn take_snapshot_with(
    size: BenchSize,
    samples: usize,
    git_rev: &str,
    opts: &SnapshotOptions,
) -> Json {
    use oi_benchmarks::{all_benchmarks, build, evaluate};
    use oi_core::pipeline::InlineConfig;

    let vm = &opts.vm;
    let inline = InlineConfig::default();
    let samples = samples.max(1);
    let benches = all_benchmarks(size);
    // One traced evaluation per benchmark collects the deterministic
    // metrics and the analysis-cost aggregates. A fresh tracer per
    // benchmark keeps the counters benchmark-local.
    let evals: Vec<_> = benches
        .iter()
        .map(|bench| {
            let tracer = Rc::new(Tracer::for_mode(TraceMode::Off));
            let _guard = trace::install(tracer.clone());
            (evaluate(bench, vm, &inline), tracer)
        })
        .collect();
    // The wall-clock samples run untraced so span bookkeeping does not
    // perturb them. Each sample times the three layers of every benchmark
    // in turn, so a row's samples spread over the whole snapshot and its
    // noise floor sees the machine's drift; the arrival-order samples
    // feed that calibration.
    let mut layers = vec![<[Vec<u128>; 3]>::default(); benches.len()];
    let mut builds: Vec<Option<Build>> = benches.iter().map(|_| None).collect();
    for _ in 0..samples {
        for ((bench, times), built) in benches.iter().zip(&mut layers).zip(&mut builds) {
            let run = |program: &oi_ir::Program, what: &str| {
                let (result, nanos) = stats::time_once(|| oi_vm::run(program, vm));
                result.unwrap_or_else(|e| panic!("{} {what}: {e}", bench.name));
                nanos
            };
            let (sample, compile) = stats::time_once(|| build(bench, &inline));
            times[0].push(compile);
            times[1].push(run(&sample.baseline, "baseline"));
            times[2].push(run(&sample.inlined.program, "inlined"));
            *built = Some(sample);
        }
    }
    let mut rows = Vec::new();
    let mut tiers: Vec<String> = Vec::new();
    for (((bench, (eval, tracer)), layers), built) in
        benches.iter().zip(&evals).zip(&layers).zip(builds)
    {
        let built = built.expect("at least one sample");
        // Checked-execution cross-run: the inlined build must be
        // finding-free under the Full sanitizer. The measured metrics
        // above stay unchecked (`CheckLevel::Off`) so they are unaffected;
        // the checked run contributes a 0-pinned `sanitizer.findings`
        // gate and an advisory wall-clock overhead figure.
        let sanitizer = checked_cross_run(bench.name, &built, vm);
        let profile = opts
            .profile
            .then(|| profile_section(bench.name, &built, vm));
        tiers.push(eval.report.tier.clone());
        rows.push(benchmark_row(eval, tracer, layers, &sanitizer, profile));
    }
    // The fleet-level tier distribution mirrors `oic batch`'s
    // `tier_counts`: on a healthy tree every benchmark compiles at
    // `guarded-full`, and any other tier appearing here is a regression
    // the diff gate will catch via `effectiveness.degraded`.
    let tier_counts = Json::Obj(
        crate::batch::TIER_NAMES
            .iter()
            .map(|&t| {
                (
                    t.to_owned(),
                    tiers
                        .iter()
                        .filter(|have| have.as_str() == t)
                        .count()
                        .into(),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("schema", SNAPSHOT_SCHEMA.into()),
        ("size", size_name(size).into()),
        ("samples", (samples as u64).into()),
        ("cost_model", "default".into()),
        ("git_rev", git_rev.into()),
        ("batch", Json::obj(vec![("tier_counts", tier_counts)])),
        ("benchmarks", Json::Arr(rows)),
    ])
}

/// One checked (`Full`) run of a benchmark's inlined build: sanitizer
/// findings (0 on a healthy tree) and the checked run's wall-clock.
struct CheckedCrossRun {
    findings: u64,
    wall_ns: u64,
}

fn checked_cross_run(name: &str, built: &Build, vm: &oi_vm::VmConfig) -> CheckedCrossRun {
    let checked = oi_vm::VmConfig {
        checked: oi_vm::CheckLevel::Full,
        ..*vm
    };
    let (run, wall_ns) = stats::time_once(|| oi_vm::run(&built.inlined.program, &checked));
    let run = run.unwrap_or_else(|e| panic!("{name} checked: {e}"));
    CheckedCrossRun {
        findings: run.sanitizer.map_or(0, |s| s.total_findings),
        wall_ns: wall_ns as u64,
    }
}

/// The `--profile` row section: top-[`PROFILE_TOP_N`] method, opcode, and
/// access-site tables for the baseline and inlined builds. Tables are
/// sorted hottest-first by the VM, so truncation keeps the head.
fn profile_section(name: &str, built: &Build, vm: &oi_vm::VmConfig) -> Json {
    let profiled = oi_vm::VmConfig {
        profile: true,
        ..*vm
    };
    let tables = |p, what: &str| {
        let run = oi_vm::run(p, &profiled).unwrap_or_else(|e| panic!("{name} {what}: {e}"));
        let profile = run.profile.expect("profiling was enabled");
        truncate_tables(profile.to_json(), PROFILE_TOP_N)
    };
    Json::obj(vec![
        ("top_n", (PROFILE_TOP_N as u64).into()),
        ("baseline", tables(&built.baseline, "profiled baseline")),
        (
            "inlined",
            tables(&built.inlined.program, "profiled inlined"),
        ),
    ])
}

/// Truncates every array value in a JSON object to its first `n`
/// entries (profile tables are hottest-first, so this keeps the top-N).
fn truncate_tables(doc: Json, n: usize) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| match v {
                    Json::Arr(items) => (k, Json::Arr(items.into_iter().take(n).collect())),
                    other => (k, other),
                })
                .collect(),
        ),
        other => other,
    }
}

/// The wall-clock statistics of one arrival-ordered sample set. Order
/// statistics are post-IQR-rejection; `samples` counts what was taken,
/// `rejected` what the fences dropped. `noise_floor_pct` is the set's
/// own calibration (interleaved A/B split vs relative MAD, whichever is
/// larger) and is what arms the comparator's wall-clock gate.
fn wall_json(arrival: &[u128]) -> (stats::TimingStats, Json) {
    let wall = stats::TimingStats::from_nanos(arrival.to_vec());
    let doc = Json::obj(vec![
        ("min", (wall.min as u64).into()),
        ("median", (wall.median as u64).into()),
        ("max", (wall.max as u64).into()),
        ("samples", (wall.n as u64).into()),
        ("rejected", (wall.rejected as u64).into()),
        ("mad", (wall.mad as u64).into()),
        ("rel_mad_pct", wall.rel_mad_pct.into()),
        ("noise_floor_pct", stats::noise_floor_pct(arrival).into()),
    ]);
    (wall, doc)
}

fn benchmark_row(
    eval: &oi_benchmarks::Evaluation,
    tracer: &Tracer,
    layers: &[Vec<u128>; 3],
    sanitizer: &CheckedCrossRun,
    profile: Option<Json>,
) -> Json {
    let total: Vec<u128> = (0..layers[0].len())
        .map(|i| layers.iter().map(|layer| layer[i]).sum())
        .collect();
    let (_, wall_clock) = wall_json(&total);
    let layers: Vec<(stats::TimingStats, Json)> = layers.iter().map(|l| wall_json(l)).collect();
    let (base_median, inlined_median) = (layers[1].0.median, layers[2].0.median);
    let wall_speedup = if inlined_median == 0 {
        0.0
    } else {
        base_median as f64 / inlined_median as f64
    };
    let wall_layers = Json::Obj(
        WALL_LAYERS
            .iter()
            .zip(layers)
            .map(|(name, (_, doc))| (name.to_string(), doc))
            .collect(),
    );
    let (without, with) = &eval.contours;
    let census = &eval.inlined_census;
    let base_census = &eval.baseline_census;
    let base_allocs = eval.baseline.allocations;
    let inline_coverage = if base_allocs == 0 {
        0.0
    } else {
        (base_allocs - eval.inlined.allocations.min(base_allocs)) as f64 / base_allocs as f64
    };
    let counters = Json::Obj(
        tracer
            .counters()
            .into_iter()
            .map(|(name, value)| (name, Json::Int(value)))
            .collect(),
    );
    let phases = Json::Obj(
        tracer
            .phase_profile()
            .into_iter()
            .map(|(name, stat)| {
                (
                    name,
                    Json::obj(vec![
                        ("count", stat.count.into()),
                        ("total_us", stat.total_us.into()),
                    ]),
                )
            })
            .collect(),
    );
    let mut row = Json::obj(vec![
        ("benchmark", eval.name.into()),
        ("baseline", eval.baseline.to_json()),
        ("inlined", eval.inlined.to_json()),
        ("speedup", eval.speedup().into()),
        ("wall_speedup", wall_speedup.into()),
        ("manual_speedup", eval.manual_speedup().into()),
        (
            "effectiveness",
            Json::obj(vec![
                (
                    "total_object_fields",
                    eval.report.total_object_fields.into(),
                ),
                ("ideal", eval.report.ideal.into()),
                ("cxx", eval.report.cxx.into()),
                ("fields_inlined", eval.report.fields_inlined.into()),
                (
                    "array_sites_inlined",
                    eval.report.array_sites_inlined.into(),
                ),
                (
                    "auto",
                    (eval.report.fields_inlined + eval.report.array_sites_inlined).into(),
                ),
                ("retracted", eval.report.retractions.into()),
                ("tier", eval.report.tier.as_str().into()),
                // 0/1 rather than a bool so the numeric diff gate applies.
                ("degraded", u64::from(eval.report.degraded).into()),
            ]),
        ),
        (
            "heap_census",
            Json::obj(vec![
                ("baseline", base_census.to_json()),
                ("inlined", census.to_json()),
                (
                    "header_words_eliminated",
                    base_census
                        .header_words
                        .saturating_sub(census.header_words)
                        .into(),
                ),
                ("inline_coverage", inline_coverage.into()),
                (
                    "inline_locality",
                    eval.inlined.inline_locality_rate().into(),
                ),
            ]),
        ),
        (
            "analysis_cost",
            Json::obj(vec![
                (
                    "contours_per_method_without",
                    without.contours_per_method.into(),
                ),
                ("contours_per_method_with", with.contours_per_method.into()),
                ("object_contours_without", without.object_contours.into()),
                ("object_contours_with", with.object_contours.into()),
                ("clone_groups", eval.clone_groups.into()),
                ("counters", counters),
                ("phases", phases),
            ]),
        ),
        // Per-sample sum of the three layers; advisory in `compare`.
        ("wall_clock_ns", wall_clock),
        ("wall_layers", wall_layers),
        (
            // Additive section (older snapshots lack it; the comparator
            // skips absent metrics). `findings` is 0-pinned by the gate;
            // the checked wall-clock is advisory overhead only.
            "sanitizer",
            Json::obj(vec![
                ("level", "full".into()),
                ("findings", sanitizer.findings.into()),
                ("checked_wall_ns", sanitizer.wall_ns.into()),
            ]),
        ),
    ]);
    // `--profile` rows carry a truncated execution profile; the key is
    // absent otherwise, keeping plain snapshots byte-compatible.
    if let Some(profile) = profile {
        if let Json::Obj(pairs) = &mut row {
            pairs.push(("profile".to_string(), profile));
        }
    }
    row
}

/// Which direction is good for a gated metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Polarity {
    /// Smaller is better (cycles, misses, words).
    LowerIsBetter,
    /// Larger is better (speedup, coverage, locality).
    HigherIsBetter,
}

/// One gated metric: where it lives in a benchmark row, its polarity,
/// and its default noise threshold in percent.
///
/// The modeled VM is deterministic, so most defaults are `0.0`: any
/// change is a real change. A global `--threshold-pct` override loosens
/// every gate uniformly (CI smoke uses ±25%).
pub struct GateSpec {
    /// Dotted path below the benchmark row, e.g. `inlined.cycles`.
    pub path: &'static str,
    /// Good direction.
    pub polarity: Polarity,
    /// Default threshold, percent, compared inclusively.
    pub threshold_pct: f64,
}

/// The gated metric set. Wall-clock fields are deliberately absent —
/// they are reported in the diff's `advisory` section instead.
pub const GATES: &[GateSpec] = &[
    GateSpec {
        path: "baseline.cycles",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "inlined.cycles",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "speedup",
        polarity: Polarity::HigherIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "inlined.allocations",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "inlined.words_allocated",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "inlined.cache_misses",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "inlined.inline_locality_rate",
        polarity: Polarity::HigherIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "effectiveness.auto",
        polarity: Polarity::HigherIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        // Firewall retractions on benchmark programs mean the optimizer
        // shipped a decision the oracle had to withdraw: zero is the only
        // healthy value, and any appearance is a regression.
        path: "effectiveness.retracted",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        // A benchmark compiling on a degraded (budget-exhausted) analysis
        // with unlimited budgets means the analysis stopped converging —
        // zero is the only healthy value.
        path: "effectiveness.degraded",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "heap_census.header_words_eliminated",
        polarity: Polarity::HigherIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "heap_census.inline_coverage",
        polarity: Polarity::HigherIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        // Checked execution on the inlined build: zero findings is the
        // only healthy value, so this gate pins the metric at 0 — any
        // appearance means a transformation bug reached a benchmark.
        path: "sanitizer.findings",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "analysis_cost.counters.analysis.rounds",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
    GateSpec {
        path: "analysis_cost.counters.analysis.mcontours",
        polarity: Polarity::LowerIsBetter,
        threshold_pct: 0.0,
    },
];

/// Always-advisory wall-clock paths: the whole-sample sum, the wall
/// speedup and the checked-run overhead. Each layer's median in
/// `wall_layers` is gated when both rows calibrate it, and reported here
/// otherwise.
const ADVISORY: &[&str] = &[
    "wall_clock_ns.median",
    "wall_clock_ns.min",
    "wall_speedup",
    "sanitizer.checked_wall_ns",
];

/// The smallest threshold the wall-clock gate ever uses, in percent.
/// Below this, scheduler jitter on a shared machine outruns any
/// calibration the harness can do in a handful of samples.
pub const WALL_GATE_MIN_PCT: f64 = 10.0;

/// Headroom multiplier applied to the measured noise floors: the gate
/// demands a delta this many times the worse floor before it believes a
/// wall-clock shift (capped at 100% — a 2x slowdown always regresses).
const WALL_GATE_FLOOR_MULT: f64 = 4.0;

/// Arms and evaluates the wall-clock gate on one layer (`stats` is the
/// path of its statistics object, e.g. `wall_layers.compile`) of an
/// old/new row pair. Returns the median pair, the threshold and the
/// verdict, or `None` when either side lacks calibration: fewer than two
/// samples (no interleaved split exists) or no recorded noise floor.
/// Uncalibrated layers fall back to the advisory report. The noise model
/// owns this threshold — the global `--threshold-pct` override
/// deliberately does not apply.
fn wall_gate(old_row: &Json, new_row: &Json, stats: &str) -> Option<(f64, f64, f64, Verdict)> {
    let field = |row: &Json, key: &str| lookup(row, &format!("{stats}.{key}"));
    let old_v = field(old_row, "median")?;
    let new_v = field(new_row, "median")?;
    let old_floor = field(old_row, "noise_floor_pct")?;
    let new_floor = field(new_row, "noise_floor_pct")?;
    if field(old_row, "samples")? < 2.0 || field(new_row, "samples")? < 2.0 {
        return None;
    }
    let threshold_pct =
        (WALL_GATE_FLOOR_MULT * old_floor.max(new_floor)).clamp(WALL_GATE_MIN_PCT, 100.0);
    let mut verdict = classify(old_v, new_v, threshold_pct, Polarity::LowerIsBetter);
    // Corroboration: a genuine change moves the whole distribution, so
    // the minimum must agree with the median before a verdict leaves the
    // noise band. Noise is one-sided (preemption only adds time), which
    // makes the min the most stable location estimate available.
    if verdict != Verdict::WithinNoise {
        if let (Some(old_min), Some(new_min)) = (field(old_row, "min"), field(new_row, "min")) {
            if classify(old_min, new_min, threshold_pct, Polarity::LowerIsBetter) != verdict {
                verdict = Verdict::WithinNoise;
            }
        }
    }
    Some((old_v, new_v, threshold_pct, verdict))
}

/// Three-way comparison verdict for one gated metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Moved in the good direction beyond the threshold.
    Improved,
    /// |relative delta| within (inclusive) the threshold.
    WithinNoise,
    /// Moved in the bad direction beyond the threshold.
    Regressed,
}

impl Verdict {
    /// The verdict's JSON/text name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinNoise => "within_noise",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Classifies one old/new pair against an inclusive threshold (percent).
///
/// Zero baselines have no relative delta: `0 -> 0` is within noise, and
/// `0 -> x` is judged purely by polarity (something appeared where
/// nothing was — good or bad depending on the metric's direction).
pub fn classify(old: f64, new: f64, threshold_pct: f64, polarity: Polarity) -> Verdict {
    if old == 0.0 {
        return if new == 0.0 {
            Verdict::WithinNoise
        } else {
            match polarity {
                Polarity::LowerIsBetter => Verdict::Regressed,
                Polarity::HigherIsBetter => Verdict::Improved,
            }
        };
    }
    let delta_pct = (new - old) / old.abs() * 100.0;
    if delta_pct.abs() <= threshold_pct {
        return Verdict::WithinNoise;
    }
    let got_worse = match polarity {
        Polarity::LowerIsBetter => delta_pct > 0.0,
        Polarity::HigherIsBetter => delta_pct < 0.0,
    };
    if got_worse {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

/// The relative change from `old` to `new` in percent; null when `old`
/// is zero.
fn delta_pct(old: f64, new: f64) -> Json {
    if old == 0.0 {
        Json::Null
    } else {
        ((new - old) / old.abs() * 100.0).into()
    }
}

/// Looks up a dotted path inside a benchmark row. Counter names contain
/// dots themselves (`analysis.rounds`), so after descending into an
/// object whose next component does not exist, the remaining components
/// are retried joined back together.
fn lookup(row: &Json, path: &str) -> Option<f64> {
    fn descend<'j>(node: &'j Json, path: &str) -> Option<&'j Json> {
        if let Some(hit) = node.get(path) {
            return Some(hit);
        }
        let (head, rest) = path.split_once('.')?;
        descend(node.get(head)?, rest)
    }
    descend(row, path).and_then(Json::as_f64)
}

/// The outcome of [`compare`]: the rendered documents plus the verdict.
#[derive(Debug)]
pub struct Comparison {
    /// The `oi.benchdiff.v1` document.
    pub diff: Json,
    /// Human-readable report, one line per noteworthy metric.
    pub text: String,
    /// Whether any gated metric (or a missing benchmark) regressed.
    pub regressed: bool,
}

/// Compares two snapshot documents. `threshold_override_pct` replaces
/// every *deterministic* gate's default threshold when given (CI smoke
/// passes 25.0); the wall-clock gate's threshold comes from the rows' own
/// noise calibration and is never overridden. `wall_advisory` disarms the
/// wall-clock gate entirely (`--wall-advisory`) — the right mode when the
/// two snapshots came from different machines, where wall-clock deltas
/// mean nothing.
///
/// # Errors
///
/// Returns a message when either document is not an `oi.bench.v1`
/// snapshot or the two snapshots were taken at different sizes.
pub fn compare(
    old: &Json,
    new: &Json,
    threshold_override_pct: Option<f64>,
    wall_advisory: bool,
) -> Result<Comparison, String> {
    for (doc, which) in [(old, "OLD"), (new, "NEW")] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SNAPSHOT_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "{which}: expected schema {SNAPSHOT_SCHEMA}, got {other}"
                ))
            }
            None => return Err(format!("{which}: not an {SNAPSHOT_SCHEMA} document")),
        }
    }
    let old_size = old.get("size").and_then(Json::as_str).unwrap_or("?");
    let new_size = new.get("size").and_then(Json::as_str).unwrap_or("?");
    if old_size != new_size {
        return Err(format!(
            "size mismatch: OLD is --size {old_size}, NEW is --size {new_size}; compare like with like"
        ));
    }

    let empty = Vec::new();
    let old_rows = old
        .get("benchmarks")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let new_rows = new
        .get("benchmarks")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let row_name = |row: &Json| {
        row.get("benchmark")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let find = |rows: &[Json], name: &str| {
        rows.iter()
            .find(|r| row_name(r).as_deref() == Some(name))
            .cloned()
    };

    let mut bench_docs = Vec::new();
    let mut text = String::new();
    let mut regressed = false;

    for old_row in old_rows {
        let Some(name) = row_name(old_row) else {
            continue;
        };
        let Some(new_row) = find(new_rows, &name) else {
            regressed = true;
            text.push_str(&format!(
                "REGRESSED  {name}: benchmark missing from NEW snapshot\n"
            ));
            bench_docs.push(Json::obj(vec![
                ("benchmark", name.as_str().into()),
                ("missing", true.into()),
                ("verdict", Verdict::Regressed.name().into()),
            ]));
            continue;
        };

        let mut metric_docs = Vec::new();
        let mut advisory = ADVISORY.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        let mut worst = Verdict::WithinNoise;
        let mut judge = |path: &str, old_v: f64, new_v: f64, threshold_pct: f64, verdict| {
            match verdict {
                Verdict::Regressed => {
                    worst = Verdict::Regressed;
                    text.push_str(&format!(
                        "REGRESSED  {name} {path}: {old_v} -> {new_v} (threshold {threshold_pct:.1}%)\n"
                    ));
                }
                Verdict::Improved => {
                    if worst == Verdict::WithinNoise {
                        worst = Verdict::Improved;
                    }
                    text.push_str(&format!("improved   {name} {path}: {old_v} -> {new_v}\n"));
                }
                Verdict::WithinNoise => {}
            }
            metric_docs.push(Json::obj(vec![
                ("metric", path.into()),
                ("old", old_v.into()),
                ("new", new_v.into()),
                ("delta_pct", delta_pct(old_v, new_v)),
                ("threshold_pct", threshold_pct.into()),
                ("verdict", verdict.name().into()),
            ]));
        };
        for gate in GATES {
            let threshold = threshold_override_pct.unwrap_or(gate.threshold_pct);
            let (old_v, new_v) = (lookup(old_row, gate.path), lookup(&new_row, gate.path));
            let (Some(old_v), Some(new_v)) = (old_v, new_v) else {
                // A metric absent on either side is skipped, not gated:
                // older snapshots predate newer metrics.
                continue;
            };
            let verdict = classify(old_v, new_v, threshold, gate.polarity);
            judge(gate.path, old_v, new_v, threshold, verdict);
        }
        // The statistical wall-clock gate, per layer: armed only when
        // both rows calibrate the layer and the caller did not opt out.
        for layer in WALL_LAYERS {
            let stats = format!("wall_layers.{layer}");
            let median = format!("{stats}.median");
            match (!wall_advisory)
                .then(|| wall_gate(old_row, &new_row, &stats))
                .flatten()
            {
                Some((old_v, new_v, threshold, verdict)) => {
                    judge(&median, old_v, new_v, threshold, verdict)
                }
                None => advisory.push(median),
            }
        }
        regressed |= worst == Verdict::Regressed;

        let advisory_docs: Vec<Json> = advisory
            .iter()
            .filter_map(|path| {
                let (old_v, new_v) = (lookup(old_row, path)?, lookup(&new_row, path)?);
                Some(Json::obj(vec![
                    ("metric", path.as_str().into()),
                    ("old", old_v.into()),
                    ("new", new_v.into()),
                    ("delta_pct", delta_pct(old_v, new_v)),
                ]))
            })
            .collect();

        bench_docs.push(Json::obj(vec![
            ("benchmark", name.as_str().into()),
            ("verdict", worst.name().into()),
            ("metrics", Json::Arr(metric_docs)),
            ("advisory", Json::Arr(advisory_docs)),
        ]));
    }

    for new_row in new_rows {
        let Some(name) = row_name(new_row) else {
            continue;
        };
        if find(old_rows, &name).is_none() {
            // A benchmark new to NEW is informational, never a failure.
            text.push_str(&format!("note       {name}: new benchmark, no baseline\n"));
            bench_docs.push(Json::obj(vec![
                ("benchmark", name.as_str().into()),
                ("new", true.into()),
                ("verdict", Verdict::WithinNoise.name().into()),
            ]));
        }
    }

    text.push_str(if regressed {
        "verdict: REGRESSED\n"
    } else {
        "verdict: ok (all gated metrics improved or within noise)\n"
    });

    let diff = Json::obj(vec![
        ("schema", DIFF_SCHEMA.into()),
        ("size", old_size.into()),
        ("regressed", regressed.into()),
        ("benchmarks", Json::Arr(bench_docs)),
    ]);
    Ok(Comparison {
        diff,
        text,
        regressed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_is_inclusive_exactly_at_threshold() {
        // +10.0% against a 10% threshold sits exactly on the line: noise.
        let v = classify(100.0, 110.0, 10.0, Polarity::LowerIsBetter);
        assert_eq!(v, Verdict::WithinNoise);
        // A hair past the line regresses.
        let v = classify(100.0, 110.01, 10.0, Polarity::LowerIsBetter);
        assert_eq!(v, Verdict::Regressed);
        // Same magnitude in the good direction improves.
        let v = classify(100.0, 89.0, 10.0, Polarity::LowerIsBetter);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn classify_zero_baselines() {
        assert_eq!(
            classify(0.0, 0.0, 0.0, Polarity::LowerIsBetter),
            Verdict::WithinNoise
        );
        // Cost appearing from nothing is a regression...
        assert_eq!(
            classify(0.0, 5.0, 25.0, Polarity::LowerIsBetter),
            Verdict::Regressed
        );
        // ...benefit appearing from nothing is an improvement.
        assert_eq!(
            classify(0.0, 0.5, 25.0, Polarity::HigherIsBetter),
            Verdict::Improved
        );
        // Cost vanishing entirely is an improvement.
        assert_eq!(
            classify(7.0, 0.0, 25.0, Polarity::LowerIsBetter),
            Verdict::Improved
        );
    }

    #[test]
    fn classify_respects_polarity() {
        assert_eq!(
            classify(1.0, 2.0, 0.0, Polarity::HigherIsBetter),
            Verdict::Improved
        );
        assert_eq!(
            classify(2.0, 1.0, 0.0, Polarity::HigherIsBetter),
            Verdict::Regressed
        );
    }

    fn tiny_snapshot(cycles: u64) -> Json {
        Json::obj(vec![
            ("schema", SNAPSHOT_SCHEMA.into()),
            ("size", "small".into()),
            (
                "benchmarks",
                Json::Arr(vec![Json::obj(vec![
                    ("benchmark", "toy".into()),
                    ("inlined", Json::obj(vec![("cycles", cycles.into())])),
                ])]),
            ),
        ])
    }

    #[test]
    fn self_compare_is_clean() {
        let snap = tiny_snapshot(1000);
        let cmp = compare(&snap, &snap, None, false).unwrap();
        assert!(!cmp.regressed);
        assert_eq!(cmp.diff.get("schema").unwrap().as_str(), Some(DIFF_SCHEMA));
        assert!(cmp.text.contains("verdict: ok"));
    }

    #[test]
    fn cycle_bump_regresses_and_names_the_culprit() {
        let cmp = compare(&tiny_snapshot(1000), &tiny_snapshot(1400), None, false).unwrap();
        assert!(cmp.regressed);
        assert_eq!(cmp.diff.get("regressed").unwrap(), &Json::Bool(true));
        assert!(
            cmp.text.contains("toy"),
            "text must name the benchmark:\n{}",
            cmp.text
        );
        assert!(
            cmp.text.contains("inlined.cycles"),
            "text must name the metric:\n{}",
            cmp.text
        );
    }

    #[test]
    fn threshold_override_loosens_every_gate() {
        let cmp = compare(
            &tiny_snapshot(1000),
            &tiny_snapshot(1200),
            Some(25.0),
            false,
        )
        .unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn missing_benchmark_is_a_regression_but_new_one_is_not() {
        let old = tiny_snapshot(1000);
        let empty = Json::obj(vec![
            ("schema", SNAPSHOT_SCHEMA.into()),
            ("size", "small".into()),
            ("benchmarks", Json::Arr(vec![])),
        ]);
        let cmp = compare(&old, &empty, None, false).unwrap();
        assert!(cmp.regressed);
        assert!(cmp.text.contains("missing from NEW"));

        let cmp = compare(&empty, &old, None, false).unwrap();
        assert!(!cmp.regressed);
        assert!(cmp.text.contains("new benchmark"));
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let mut other = tiny_snapshot(1000);
        if let Json::Obj(pairs) = &mut other {
            for (k, v) in pairs.iter_mut() {
                if k == "size" {
                    *v = Json::Str("default".into());
                }
            }
        }
        let err = compare(&tiny_snapshot(1000), &other, None, false).unwrap_err();
        assert!(err.contains("size mismatch"), "{err}");
    }

    #[test]
    fn non_snapshot_documents_are_rejected() {
        let bogus = Json::obj(vec![("schema", "oi.figures.v1".into())]);
        assert!(compare(&bogus, &bogus, None, false).is_err());
        assert!(compare(&Json::Null, &Json::Null, None, false).is_err());
    }

    #[test]
    fn lookup_descends_and_rejoins_dotted_counter_names() {
        let row = Json::obj(vec![(
            "analysis_cost",
            Json::obj(vec![(
                "counters",
                Json::Obj(vec![("analysis.rounds".to_string(), Json::Int(4))]),
            )]),
        )]);
        assert_eq!(
            lookup(&row, "analysis_cost.counters.analysis.rounds"),
            Some(4.0)
        );
        assert_eq!(lookup(&row, "analysis_cost.counters.analysis.bogus"), None);
    }

    #[test]
    fn snapshot_document_is_schema_stable() {
        let snap = take_snapshot(BenchSize::Small, 1, "testrev");
        let parsed = Json::parse(&snap.to_string()).expect("snapshot must be valid JSON");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some(SNAPSHOT_SCHEMA)
        );
        assert_eq!(parsed.get("size").unwrap().as_str(), Some("small"));
        assert_eq!(parsed.get("git_rev").unwrap().as_str(), Some("testrev"));
        let rows = parsed.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 5, "snapshot covers the whole suite");
        let tier_counts = parsed.get("batch").unwrap().get("tier_counts").unwrap();
        assert_eq!(
            tier_counts.get("guarded-full").and_then(Json::as_i64),
            Some(rows.len() as i64),
            "every benchmark lands on the top tier: {tier_counts}"
        );
        for row in rows {
            for key in [
                "benchmark",
                "baseline",
                "inlined",
                "speedup",
                "manual_speedup",
                "effectiveness",
                "heap_census",
                "analysis_cost",
                "wall_clock_ns",
                "wall_layers",
                "wall_speedup",
                "sanitizer",
            ] {
                assert!(row.get(key).is_some(), "row missing {key}");
            }
            for layer in WALL_LAYERS {
                for key in [
                    "min",
                    "median",
                    "max",
                    "samples",
                    "rejected",
                    "mad",
                    "rel_mad_pct",
                    "noise_floor_pct",
                ] {
                    let path = format!("wall_layers.{layer}.{key}");
                    assert!(lookup(row, &path).is_some(), "row missing {path}");
                }
            }
            // One sample: the sum is exactly the three layers.
            let layer_sum: f64 = WALL_LAYERS
                .iter()
                .map(|l| lookup(row, &format!("wall_layers.{l}.median")).unwrap())
                .sum();
            assert_eq!(lookup(row, "wall_clock_ns.median"), Some(layer_sum));
            assert_eq!(
                lookup(row, "sanitizer.findings"),
                Some(0.0),
                "checked execution must be finding-free on benchmarks"
            );
            assert_eq!(
                lookup(row, "effectiveness.retracted"),
                Some(0.0),
                "benchmark programs must never need firewall retraction"
            );
            assert_eq!(
                lookup(row, "effectiveness.degraded"),
                Some(0.0),
                "unlimited budgets must never exhaust"
            );
            assert_eq!(
                row.get("effectiveness").unwrap().get("tier").unwrap(),
                &Json::Str("guarded-full".into()),
                "benchmarks must compile at full precision"
            );
            let cost = row.get("analysis_cost").unwrap();
            assert!(lookup(row, "analysis_cost.counters.analysis.rounds").unwrap_or(0.0) > 0.0);
            assert!(cost
                .get("phases")
                .unwrap()
                .get("pipeline.analyze")
                .is_some());
            let census = row.get("heap_census").unwrap();
            for key in [
                "baseline",
                "inlined",
                "header_words_eliminated",
                "inline_coverage",
                "inline_locality",
            ] {
                assert!(census.get(key).is_some(), "heap_census missing {key}");
            }
        }
    }

    #[test]
    fn snapshot_self_compare_is_within_noise_on_gated_metrics() {
        // Two snapshots of the same code: every gated metric is
        // deterministic, so the diff must be clean even at the exact
        // (0%) default thresholds. Wall-clock is single-sampled here, so
        // the wall gate stays disarmed (no calibration exists).
        let a = take_snapshot(BenchSize::Small, 1, "rev-a");
        let b = take_snapshot(BenchSize::Small, 1, "rev-b");
        let cmp = compare(&a, &b, None, false).unwrap();
        assert!(!cmp.regressed, "self-compare regressed:\n{}", cmp.text);
    }

    /// A snapshot whose one row carries calibrated wall-clock data for
    /// the inlined-run layer only.
    fn wall_snapshot(median: u64, min: u64, samples: u64, floor_pct: f64) -> Json {
        let stats = Json::obj(vec![
            ("min", min.into()),
            ("median", median.into()),
            ("max", (median * 2).into()),
            ("samples", samples.into()),
            ("noise_floor_pct", floor_pct.into()),
        ]);
        Json::obj(vec![
            ("schema", SNAPSHOT_SCHEMA.into()),
            ("size", "small".into()),
            (
                "benchmarks",
                Json::Arr(vec![Json::obj(vec![
                    ("benchmark", "toy".into()),
                    ("wall_clock_ns", stats.clone()),
                    ("wall_layers", Json::obj(vec![("inlined_run", stats)])),
                ])]),
            ),
        ])
    }

    #[test]
    fn wall_gate_flags_a_clear_slowdown() {
        let old = wall_snapshot(100_000, 95_000, 5, 2.0);
        let new = wall_snapshot(200_000, 190_000, 5, 2.0);
        let cmp = compare(&old, &new, None, false).unwrap();
        assert!(cmp.regressed, "{}", cmp.text);
        assert!(
            cmp.text.contains("wall_layers.inlined_run.median"),
            "text must name the layer:\n{}",
            cmp.text
        );
        // The whole-sample sum moved just as much, but only reports.
        assert!(!cmp.text.contains("wall_clock_ns"), "{}", cmp.text);
        let row = &cmp.diff.get("benchmarks").and_then(Json::as_arr).unwrap()[0];
        let advisory = row.get("advisory").and_then(Json::as_arr).unwrap();
        assert!(advisory
            .iter()
            .any(|m| m.get("metric").and_then(Json::as_str) == Some("wall_clock_ns.median")));
    }

    #[test]
    fn wall_gate_tolerates_deltas_under_the_calibrated_threshold() {
        // floor 2% -> threshold max(10, 4*2) = 10%; a 9% drift is noise.
        let old = wall_snapshot(100_000, 95_000, 5, 2.0);
        let new = wall_snapshot(109_000, 103_000, 5, 2.0);
        let cmp = compare(&old, &new, None, false).unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn wall_gate_scales_its_threshold_with_the_noise_floor() {
        // floor 20% on one side -> threshold 4*20 = 80%: a 50% delta that
        // would regress on a quiet machine is noise on a loud one.
        let old = wall_snapshot(100_000, 95_000, 5, 20.0);
        let new = wall_snapshot(150_000, 145_000, 5, 2.0);
        let cmp = compare(&old, &new, None, false).unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn wall_gate_requires_the_min_to_corroborate_the_median() {
        // Median doubled but the fastest run is unchanged: one-sided
        // scheduler noise, not a real slowdown.
        let old = wall_snapshot(100_000, 95_000, 5, 2.0);
        let new = wall_snapshot(200_000, 95_500, 5, 2.0);
        let cmp = compare(&old, &new, None, false).unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn wall_gate_stays_disarmed_without_calibration() {
        // Single-sample rows have no interleaved split to calibrate from:
        // a huge delta must fall back to the advisory report.
        let old = wall_snapshot(100_000, 100_000, 1, 0.0);
        let new = wall_snapshot(300_000, 300_000, 1, 0.0);
        let cmp = compare(&old, &new, None, false).unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
        let row = &cmp.diff.get("benchmarks").and_then(Json::as_arr).unwrap()[0];
        let advisory = row.get("advisory").and_then(Json::as_arr).unwrap();
        assert!(advisory
            .iter()
            .any(|m| m.get("metric").and_then(Json::as_str)
                == Some("wall_layers.inlined_run.median")));

        // Rows predating the floor field (legacy snapshots) likewise.
        let legacy = tiny_snapshot(1000);
        let cmp = compare(&legacy, &legacy, None, false).unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn wall_advisory_mode_never_gates_wall_clock() {
        let old = wall_snapshot(100_000, 95_000, 5, 2.0);
        let new = wall_snapshot(400_000, 390_000, 5, 2.0);
        let cmp = compare(&old, &new, None, true).unwrap();
        assert!(!cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn threshold_override_does_not_loosen_the_wall_gate() {
        // --threshold-pct loosens deterministic gates only: the wall
        // gate's threshold belongs to the noise model.
        let old = wall_snapshot(100_000, 95_000, 5, 2.0);
        let new = wall_snapshot(200_000, 190_000, 5, 2.0);
        let cmp = compare(&old, &new, Some(1000.0), false).unwrap();
        assert!(cmp.regressed, "{}", cmp.text);
    }

    #[test]
    fn snapshot_with_profile_embeds_truncated_tables() {
        let opts = SnapshotOptions {
            profile: true,
            ..SnapshotOptions::default()
        };
        let snap = take_snapshot_with(BenchSize::Small, 1, "rev", &opts);
        let rows = snap.get("benchmarks").and_then(Json::as_arr).unwrap();
        for row in rows {
            let profile = row.get("profile").expect("row missing profile section");
            assert_eq!(
                profile.get("top_n").and_then(Json::as_i64),
                Some(PROFILE_TOP_N as i64)
            );
            for build in ["baseline", "inlined"] {
                let tables = profile.get(build).unwrap();
                let methods = tables.get("methods").and_then(Json::as_arr).unwrap();
                assert!(!methods.is_empty(), "{build} profile has no methods");
                for table in ["methods", "sites", "opcodes", "accesses"] {
                    let len = tables.get(table).and_then(Json::as_arr).unwrap().len();
                    assert!(len <= PROFILE_TOP_N, "{build}.{table} not truncated");
                }
            }
        }
        // Plain snapshots must not carry the section.
        let plain = take_snapshot(BenchSize::Small, 1, "rev");
        let rows = plain.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert!(rows.iter().all(|r| r.get("profile").is_none()));
    }
}
