#![warn(missing_docs)]
//! Measurement, load and fault harnesses around the object-inlining
//! pipeline, plus the compile service they drive.
//!
//! **Paper figures (§6).** [`Figures::measure`] evaluates the suite once;
//! each method of [`Figures`] renders a text table from that measurement
//! whose rows correspond to the paper's figure:
//!
//! - [`Figures::fig14`] — inlinable field counts (effectiveness),
//! - [`Figures::fig15`] — generated code size with and without inlining,
//! - [`Figures::fig16`] — method contours required per method (analysis cost),
//! - [`Figures::fig17`] — performance normalized to Concert-without-inlining,
//! - [`Figures::ablations`] — array layout, pass toggles, memory-only cost model.
//!
//! The `figures` binary prints them ([`Figures::to_json`] emits the same
//! tables as a machine-readable `oi.figures.v1` document).
//!
//! **Snapshots and profiles.** [`snapshot`] writes and gates
//! `oi.bench.v1` documents (`oi-bench snapshot|compare`), with the wall
//! time of each row split into compile, baseline-run and inlined-run
//! layers; [`prof`] is
//! `oic prof`, the per-program stage tree and VM profile; [`synth`]
//! generates scalable synthetic programs.
//!
//! **Compile service.** [`serve`] is `oic serve`, the JSON-lines compile
//! server with its artifact cache and disk tier; [`sched`] is its
//! fuel-sliced multi-tenant scheduler, [`overload`] its brownout,
//! watchdog, breaker and retry policies, and [`client`] the transports
//! and the retrying `oic client`.
//!
//! **Load and fault harnesses.** [`replay`] is the core they share:
//! request lines, a response view, the synchronous replay tally that
//! reconciles with the server's counters, and the flood-then-retry
//! driver. On top of it, [`loadgen`], [`restartload`] and
//! [`brownoutload`] replay load against the service, [`tenantload`]
//! drives the scheduler directly, and [`chaos`], [`fuzz`] and [`batch`]
//! inject faults, fuzz the differential oracle and compile fleets.
//! [`cli`] is the `oi-bench` front and the flag/output helpers every
//! command shares.

pub mod batch;
pub mod brownoutload;
pub mod chaos;
pub mod cli;
pub mod client;
pub mod fuzz;
pub mod loadgen;
pub mod overload;
pub mod prof;
pub mod replay;
pub mod restartload;
pub mod sched;
pub mod serve;
pub mod snapshot;
pub mod synth;
pub mod tenantload;

use oi_benchmarks::{all_benchmarks, build, evaluate, BenchSize, Benchmark, Evaluation};
use oi_core::pipeline::InlineConfig;
use oi_ir::ArrayLayoutKind;
use oi_support::Json;
use oi_vm::VmConfig;

/// The suite measured once: each benchmark with its [`evaluate`] result
/// under the default VM and inlining configuration. Every table and the
/// `oi.figures.v1` document render from this one measurement; the
/// ablations build and run only the configurations that differ from it.
pub struct Figures {
    size: BenchSize,
    suite: Vec<(Benchmark, Evaluation)>,
}

impl Figures {
    /// Evaluates every benchmark at `size` once.
    pub fn measure(size: BenchSize) -> Self {
        let suite = all_benchmarks(size)
            .into_iter()
            .map(|bench| {
                let eval = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
                (bench, eval)
            })
            .collect();
        Self { size, suite }
    }

    /// Figure 14: inlinable field counts.
    ///
    /// Columns: object-holding slots (fields + array-content groups),
    /// ideal (hand analysis), declared inline in C++ (all three the
    /// benchmark's [`oi_benchmarks::GroundTruth`]), automatically
    /// inlined (measured). The paper's claim: the automatic column
    /// matches or beats the C++ column on every benchmark.
    pub fn fig14(&self) -> String {
        table(
            "Figure 14: Inlinable field counts",
            format!(
                "{:16} {:>6} {:>6} {:>9} {:>6}",
                "benchmark", "total", "ideal", "C++ decl", "auto"
            ),
            self.suite.iter().map(|(bench, eval)| {
                let truth = &bench.ground_truth;
                format!(
                    "{:16} {:>6} {:>6} {:>9} {:>6}",
                    bench.name,
                    truth.total,
                    truth.ideal,
                    truth.cxx,
                    auto_inlined(eval)
                )
            }),
        )
    }

    /// Figure 15: generated-code size (modeled KB over reachable
    /// methods), without vs. with object inlining. The paper's point:
    /// inlining does not grow the code — it usually shrinks a little.
    pub fn fig15(&self) -> String {
        table(
            "Figure 15: Object inlining code size (modeled KB)",
            format!(
                "{:16} {:>12} {:>12} {:>7}",
                "benchmark", "without", "with", "ratio"
            ),
            self.suite.iter().map(|(_, eval)| {
                let without = eval.baseline_size.kilobytes();
                let with = eval.inlined_size.kilobytes();
                format!(
                    "{:16} {:>10.1}KB {:>10.1}KB {:>6.2}x",
                    eval.name,
                    without,
                    with,
                    with / without
                )
            }),
        )
    }

    /// Figure 16: method contours required per method, without vs. with
    /// the object-inlining (tag) sensitivity; plus object contours,
    /// which the paper reports as unchanged.
    pub fn fig16(&self) -> String {
        table(
            "Figure 16: Method contours required per method",
            format!(
                "{:16} {:>9} {:>9} | {:>11} {:>11} | {:>7}",
                "benchmark", "w/o inl", "with inl", "octx w/o", "octx with", "clones"
            ),
            self.suite.iter().map(|(_, eval)| {
                let (without, with) = eval.contours;
                format!(
                    "{:16} {:>9.2} {:>9.2} | {:>11} {:>11} | {:>7}",
                    eval.name,
                    without.contours_per_method,
                    with.contours_per_method,
                    without.object_contours,
                    with.object_contours,
                    eval.clone_groups
                )
            }),
        )
    }

    /// Figure 17: performance normalized to Concert-without-inlining =
    /// 1.0. `manual` stands in for the paper's `G++ -O2` bars.
    pub fn fig17(&self) -> String {
        table(
            "Figure 17: Object inlining performance (baseline = 1.00)",
            format!(
                "{:16} {:>9} {:>9} {:>9}",
                "benchmark", "baseline", "inlined", "manual"
            ),
            self.suite.iter().map(|(_, eval)| {
                format!(
                    "{:16} {:>9.2} {:>9.2} {:>9.2}",
                    eval.name,
                    1.0,
                    eval.speedup(),
                    eval.manual_speedup()
                )
            }),
        )
    }

    /// Extra detail for Figure 17: the mechanism (allocations,
    /// dereferences, cache behavior).
    pub fn fig17_detail(&self) -> String {
        table(
            "Figure 17 mechanism detail (baseline -> inlined)",
            format!(
                "{:16} {:>22} {:>24} {:>22}",
                "benchmark", "allocations", "heap reads", "cache misses"
            ),
            self.suite.iter().map(|(_, eval)| {
                let (base, inl) = (&eval.baseline, &eval.inlined);
                format!(
                    "{:16} {:>10} -> {:>8} {:>12} -> {:>8} {:>10} -> {:>8}",
                    eval.name,
                    base.allocations,
                    inl.allocations,
                    base.heap_reads,
                    inl.heap_reads,
                    base.cache_misses,
                    inl.cache_misses
                )
            }),
        )
    }

    /// The ablations, each beside the default configuration's speedup:
    /// interleaved vs. parallel ("Fortran style") inline array layout,
    /// the design choice §6.3 credits for OOPACK's cache behavior; which
    /// parts of the optimization carry the win (object fields only,
    /// arrays only, or both); and the memory-only cost model, which
    /// isolates the data-layout effect from compute.
    pub fn ablations(&self) -> String {
        // The default configuration is the interleaved layout with both
        // passes on, so its speedup fills the `interleaved`, `full` and
        // `default` columns.
        let default_vm = VmConfig::default();
        let parallel = InlineConfig {
            array_layout: ArrayLayoutKind::Parallel,
            ..Default::default()
        };
        let layout = table(
            "Ablation: inline array layout (speedup over baseline)",
            format!(
                "{:16} {:>12} {:>10}",
                "benchmark", "interleaved", "parallel"
            ),
            self.suite
                .iter()
                .filter(|(bench, _)| matches!(bench.name, "oopack" | "polyover-array"))
                .map(|(bench, eval)| {
                    format!(
                        "{:16} {:>11.2}x {:>9.2}x",
                        bench.name,
                        eval.speedup(),
                        ablated_speedup(bench, eval, &parallel, &default_vm)
                    )
                }),
        );
        let fields_only = InlineConfig {
            array_elements: false,
            ..Default::default()
        };
        let arrays_only = InlineConfig {
            object_fields: false,
            ..Default::default()
        };
        let passes = table(
            "Ablation: optimization components (speedup over baseline)",
            format!(
                "{:16} {:>7} {:>12} {:>12}",
                "benchmark", "full", "fields only", "arrays only"
            ),
            self.suite.iter().map(|(bench, eval)| {
                format!(
                    "{:16} {:>6.2}x {:>11.2}x {:>11.2}x",
                    bench.name,
                    eval.speedup(),
                    ablated_speedup(bench, eval, &fields_only, &default_vm),
                    ablated_speedup(bench, eval, &arrays_only, &default_vm)
                )
            }),
        );
        let memory_only = VmConfig {
            cost: oi_vm::CostModel::memory_only(),
            ..Default::default()
        };
        let cost = table(
            "Ablation: memory-only cost model (speedup over baseline)",
            format!("{:16} {:>8} {:>12}", "benchmark", "default", "memory-only"),
            self.suite.iter().map(|(bench, eval)| {
                format!(
                    "{:16} {:>7.2}x {:>11.2}x",
                    bench.name,
                    eval.speedup(),
                    ablated_speedup(bench, eval, &InlineConfig::default(), &memory_only)
                )
            }),
        );
        [layout, passes, cost].join("\n")
    }

    /// Machine-readable Figure 14–17 tables: the `oi.figures.v1`
    /// document that `figures --json` writes.
    pub fn to_json(&self) -> Json {
        let fig14 = self.json_rows(|bench, eval| {
            let truth = &bench.ground_truth;
            vec![
                ("total", truth.total.into()),
                ("ideal", truth.ideal.into()),
                ("cxx", truth.cxx.into()),
                ("auto", auto_inlined(eval).into()),
            ]
        });
        let fig15 = self.json_rows(|_, e| {
            let without = e.baseline_size.kilobytes();
            let with = e.inlined_size.kilobytes();
            vec![
                ("without_kb", without.into()),
                ("with_kb", with.into()),
                ("ratio", (with / without).into()),
            ]
        });
        let fig16 = self.json_rows(|_, e| {
            let (without, with) = &e.contours;
            vec![
                (
                    "contours_per_method_without",
                    without.contours_per_method.into(),
                ),
                ("contours_per_method_with", with.contours_per_method.into()),
                ("object_contours_without", without.object_contours.into()),
                ("object_contours_with", with.object_contours.into()),
                ("clone_groups", e.clone_groups.into()),
            ]
        });
        let fig17 = self.json_rows(|_, e| {
            vec![
                ("baseline", 1.0.into()),
                ("inlined", e.speedup().into()),
                ("manual", e.manual_speedup().into()),
                ("baseline_metrics", e.baseline.to_json()),
                ("inlined_metrics", e.inlined.to_json()),
            ]
        });
        Json::obj(vec![
            ("schema", "oi.figures.v1".into()),
            ("size", size_name(self.size).into()),
            ("fig14", fig14),
            ("fig15", fig15),
            ("fig16", fig16),
            ("fig17", fig17),
        ])
    }

    /// One JSON row per benchmark: its name, then the fields of `row`.
    fn json_rows(
        &self,
        row: impl Fn(&Benchmark, &Evaluation) -> Vec<(&'static str, Json)>,
    ) -> Json {
        Json::Arr(
            self.suite
                .iter()
                .map(|(bench, eval)| {
                    let mut fields = vec![("benchmark", bench.name.into())];
                    fields.extend(row(bench, eval));
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

/// A text table: its title line, its heading line, then one line per
/// row.
fn table(title: &str, heading: String, rows: impl Iterator<Item = String>) -> String {
    let mut out = format!("{title}\n{heading}\n");
    for row in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Figure 14's automatic column: fields plus array sites inlined.
fn auto_inlined(eval: &Evaluation) -> usize {
    eval.report.fields_inlined + eval.report.array_sites_inlined
}

/// An ablation's speedup: `bench` built under `inline`, then its
/// baseline and inlined builds run once each under `vm`. Panics if a run
/// fails or prints other than the default evaluation.
fn ablated_speedup(
    bench: &Benchmark,
    eval: &Evaluation,
    inline: &InlineConfig,
    vm: &VmConfig,
) -> f64 {
    let built = build(bench, inline);
    let run = |program: &oi_ir::Program, what: &str| {
        let result =
            oi_vm::run(program, vm).unwrap_or_else(|e| panic!("{} {what}: {e}", bench.name));
        assert_eq!(
            result.output, eval.output,
            "{} {what}: the ablation changed program output",
            bench.name
        );
        result.metrics
    };
    let baseline = run(&built.baseline, "baseline");
    run(&built.inlined.program, "inlined").speedup_over(&baseline)
}

/// The canonical name of a `--size` value (inverse of [`parse_size`]).
pub fn size_name(size: BenchSize) -> &'static str {
    match size {
        BenchSize::Small => "small",
        BenchSize::Default => "default",
        BenchSize::Large => "large",
    }
}

/// Parses a `--size` argument value.
pub fn parse_size(s: &str) -> Option<BenchSize> {
    match s {
        "small" => Some(BenchSize::Small),
        "default" => Some(BenchSize::Default),
        "large" => Some(BenchSize::Large),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The small suite, measured once for every test here.
    fn small() -> &'static Figures {
        static SMALL: OnceLock<Figures> = OnceLock::new();
        SMALL.get_or_init(|| Figures::measure(BenchSize::Small))
    }

    #[test]
    fn fig14_contains_every_benchmark() {
        let t = small().fig14();
        for name in [
            "oopack",
            "richards",
            "silo",
            "polyover-array",
            "polyover-list",
        ] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }

    #[test]
    fn fig17_reports_speedups_of_at_least_one() {
        for (_, e) in &small().suite {
            assert!(
                e.speedup() > 0.95,
                "{} regressed under inlining: {:.2}",
                e.name,
                e.speedup()
            );
        }
    }

    #[test]
    fn fig15_inlining_does_not_bloat_code() {
        for (_, e) in &small().suite {
            let ratio = e.inlined_size.kilobytes() / e.baseline_size.kilobytes();
            assert!(ratio < 1.4, "{}: code grew {ratio:.2}x", e.name);
        }
    }

    #[test]
    fn fig16_tag_sensitivity_not_cheaper() {
        for (_, e) in &small().suite {
            let (without, with) = e.contours;
            assert!(with.contours_per_method + 1e-9 >= without.contours_per_method);
        }
    }

    #[test]
    fn parse_size_roundtrip() {
        assert_eq!(parse_size("small"), Some(BenchSize::Small));
        assert_eq!(parse_size("default"), Some(BenchSize::Default));
        assert_eq!(parse_size("bogus"), None);
        for size in [BenchSize::Small, BenchSize::Default, BenchSize::Large] {
            assert_eq!(parse_size(size_name(size)), Some(size));
        }
    }

    #[test]
    fn figures_json_has_every_table_and_parses() {
        let text = small().to_json().to_string();
        let parsed = Json::parse(&text).expect("figures output must be valid JSON");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("oi.figures.v1")
        );
        for table in ["fig14", "fig15", "fig16", "fig17"] {
            let rows = parsed.get(table).and_then(Json::as_arr).unwrap();
            assert!(!rows.is_empty(), "{table} must have rows");
            assert!(rows.iter().all(|r| r.get("benchmark").is_some()));
        }
        let row = &parsed.get("fig17").unwrap().as_arr().unwrap()[0];
        assert!(row.get("inlined_metrics").unwrap().get("cycles").is_some());
    }
}
