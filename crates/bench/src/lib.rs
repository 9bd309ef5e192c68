#![warn(missing_docs)]
//! Measurement, load and fault harnesses around the object-inlining
//! pipeline, plus the compile service they drive.
//!
//! **Paper figures (§6).** Each `fig*` function runs the measurement and
//! renders a text table whose rows correspond to the paper's figure:
//!
//! - [`fig14`] — inlinable field counts (effectiveness),
//! - [`fig15`] — generated code size with and without inlining,
//! - [`fig16`] — method contours required per method (analysis cost),
//! - [`fig17`] — performance normalized to Concert-without-inlining,
//! - [`ablations`] — array layout, pass toggles, memory-only cost model.
//!
//! The `figures` binary prints them (`--json` emits the same tables as a
//! machine-readable `oi.figures.v1` document).
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

use oi_benchmarks::{all_benchmarks, evaluate, BenchSize, Evaluation};
use oi_core::pipeline::InlineConfig;
use oi_ir::ArrayLayoutKind;
use oi_support::Json;
use oi_vm::VmConfig;
use std::fmt::Write as _;

/// Runs the standard evaluation over the whole suite.
pub fn evaluate_suite(size: BenchSize) -> Vec<Evaluation> {
    all_benchmarks(size)
        .iter()
        .map(|b| evaluate(b, &VmConfig::default(), &InlineConfig::default()))
        .collect()
}

/// Figure 14: inlinable field counts.
///
/// Columns: object-holding slots (fields + array-content groups), ideal
/// (hand analysis), declared inline in C++, automatically inlined. The
/// paper's claim: the automatic column matches or beats the C++ column on
/// every benchmark.
pub fn fig14(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 14: Inlinable field counts");
    let _ = writeln!(
        out,
        "{:16} {:>6} {:>6} {:>9} {:>6}",
        "benchmark", "total", "ideal", "C++ decl", "auto"
    );
    for bench in all_benchmarks(size) {
        let eval = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
        let auto = eval.report.fields_inlined + eval.report.array_sites_inlined;
        let _ = writeln!(
            out,
            "{:16} {:>6} {:>6} {:>9} {:>6}",
            bench.name,
            bench.ground_truth.total,
            bench.ground_truth.ideal,
            bench.ground_truth.cxx,
            auto
        );
    }
    out
}

/// Figure 15: generated-code size (modeled KB over reachable methods),
/// without vs. with object inlining. The paper's point: inlining does not
/// grow the code — it usually shrinks a little.
pub fn fig15(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 15: Object inlining code size (modeled KB)");
    let _ = writeln!(
        out,
        "{:16} {:>12} {:>12} {:>7}",
        "benchmark", "without", "with", "ratio"
    );
    for eval in evaluate_suite(size) {
        let without = eval.baseline_size.kilobytes();
        let with = eval.inlined_size.kilobytes();
        let _ = writeln!(
            out,
            "{:16} {:>10.1}KB {:>10.1}KB {:>6.2}x",
            eval.name,
            without,
            with,
            with / without
        );
    }
    out
}

/// Figure 16: method contours required per method, without vs. with the
/// object-inlining (tag) sensitivity; plus object contours, which the paper
/// reports as unchanged.
pub fn fig16(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 16: Method contours required per method");
    let _ = writeln!(
        out,
        "{:16} {:>9} {:>9} | {:>11} {:>11} | {:>7}",
        "benchmark", "w/o inl", "with inl", "octx w/o", "octx with", "clones"
    );
    for eval in evaluate_suite(size) {
        let (without, with) = eval.contours;
        let _ = writeln!(
            out,
            "{:16} {:>9.2} {:>9.2} | {:>11} {:>11} | {:>7}",
            eval.name,
            without.contours_per_method,
            with.contours_per_method,
            without.object_contours,
            with.object_contours,
            eval.clone_groups
        );
    }
    out
}

/// Figure 17: performance normalized to Concert-without-inlining = 1.0.
/// `manual` stands in for the paper's `G++ -O2` bars.
pub fn fig17(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 17: Object inlining performance (baseline = 1.00)"
    );
    let _ = writeln!(
        out,
        "{:16} {:>9} {:>9} {:>9}",
        "benchmark", "baseline", "inlined", "manual"
    );
    for eval in evaluate_suite(size) {
        let _ = writeln!(
            out,
            "{:16} {:>9.2} {:>9.2} {:>9.2}",
            eval.name,
            1.0,
            eval.speedup(),
            eval.manual_speedup()
        );
    }
    out
}

/// Extra detail for Figure 17: the mechanism (allocations, dereferences,
/// cache behavior).
pub fn fig17_detail(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 17 mechanism detail (baseline -> inlined)");
    let _ = writeln!(
        out,
        "{:16} {:>22} {:>24} {:>22}",
        "benchmark", "allocations", "heap reads", "cache misses"
    );
    for eval in evaluate_suite(size) {
        let _ = writeln!(
            out,
            "{:16} {:>10} -> {:>8} {:>12} -> {:>8} {:>10} -> {:>8}",
            eval.name,
            eval.baseline.allocations,
            eval.inlined.allocations,
            eval.baseline.heap_reads,
            eval.inlined.heap_reads,
            eval.baseline.cache_misses,
            eval.inlined.cache_misses
        );
    }
    out
}

/// Ablation: interleaved vs. parallel ("Fortran style") inline array
/// layout, the design choice §6.3 credits for OOPACK's cache behavior.
pub fn ablation_array_layout(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: inline array layout (speedup over baseline)");
    let _ = writeln!(
        out,
        "{:16} {:>12} {:>10}",
        "benchmark", "interleaved", "parallel"
    );
    for bench in all_benchmarks(size) {
        if !matches!(bench.name, "oopack" | "polyover-array") {
            continue;
        }
        let inter = evaluate(
            &bench,
            &VmConfig::default(),
            &InlineConfig {
                array_layout: ArrayLayoutKind::Interleaved,
                ..Default::default()
            },
        );
        let par = evaluate(
            &bench,
            &VmConfig::default(),
            &InlineConfig {
                array_layout: ArrayLayoutKind::Parallel,
                ..Default::default()
            },
        );
        let _ = writeln!(
            out,
            "{:16} {:>11.2}x {:>9.2}x",
            bench.name,
            inter.speedup(),
            par.speedup()
        );
    }
    out
}

/// Ablation: which parts of the optimization carry the win — object fields
/// only, arrays only, or both.
pub fn ablation_passes(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: optimization components (speedup over baseline)"
    );
    let _ = writeln!(
        out,
        "{:16} {:>7} {:>12} {:>12}",
        "benchmark", "full", "fields only", "arrays only"
    );
    for bench in all_benchmarks(size) {
        let full = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
        let fields_only = evaluate(
            &bench,
            &VmConfig::default(),
            &InlineConfig {
                array_elements: false,
                ..Default::default()
            },
        );
        let arrays_only = evaluate(
            &bench,
            &VmConfig::default(),
            &InlineConfig {
                object_fields: false,
                ..Default::default()
            },
        );
        let _ = writeln!(
            out,
            "{:16} {:>6.2}x {:>11.2}x {:>11.2}x",
            bench.name,
            full.speedup(),
            fields_only.speedup(),
            arrays_only.speedup()
        );
    }
    out
}

/// Ablation: the memory-only cost model isolates the data-layout effect
/// from compute.
pub fn ablation_memory_only(size: BenchSize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: memory-only cost model (speedup over baseline)"
    );
    let _ = writeln!(
        out,
        "{:16} {:>8} {:>12}",
        "benchmark", "default", "memory-only"
    );
    let mem_vm = VmConfig {
        cost: oi_vm::CostModel::memory_only(),
        ..Default::default()
    };
    for bench in all_benchmarks(size) {
        let default = evaluate(&bench, &VmConfig::default(), &InlineConfig::default());
        let memory = evaluate(&bench, &mem_vm, &InlineConfig::default());
        let _ = writeln!(
            out,
            "{:16} {:>7.2}x {:>11.2}x",
            bench.name,
            default.speedup(),
            memory.speedup()
        );
    }
    out
}

/// All ablations.
pub fn ablations(size: BenchSize) -> String {
    let mut out = ablation_array_layout(size);
    out.push('\n');
    out.push_str(&ablation_passes(size));
    out.push('\n');
    out.push_str(&ablation_memory_only(size));
    out
}

/// Machine-readable figure tables: the `oi.figures.v1` document that
/// `figures --json` writes. One evaluation pass feeds every table.
pub fn figures_json(size: BenchSize) -> Json {
    let evals = evaluate_suite(size);
    let fig14 = evals
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("benchmark", e.name.into()),
                ("total", e.report.total_object_fields.into()),
                ("ideal", e.report.ideal.into()),
                ("cxx", e.report.cxx.into()),
                (
                    "auto",
                    (e.report.fields_inlined + e.report.array_sites_inlined).into(),
                ),
            ])
        })
        .collect();
    let fig15 = evals
        .iter()
        .map(|e| {
            let without = e.baseline_size.kilobytes();
            let with = e.inlined_size.kilobytes();
            Json::obj(vec![
                ("benchmark", e.name.into()),
                ("without_kb", without.into()),
                ("with_kb", with.into()),
                ("ratio", (with / without).into()),
            ])
        })
        .collect();
    let fig16 = evals
        .iter()
        .map(|e| {
            let (without, with) = &e.contours;
            Json::obj(vec![
                ("benchmark", e.name.into()),
                (
                    "contours_per_method_without",
                    without.contours_per_method.into(),
                ),
                ("contours_per_method_with", with.contours_per_method.into()),
                ("object_contours_without", without.object_contours.into()),
                ("object_contours_with", with.object_contours.into()),
                ("clone_groups", e.clone_groups.into()),
            ])
        })
        .collect();
    let fig17 = evals
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("benchmark", e.name.into()),
                ("baseline", 1.0.into()),
                ("inlined", e.speedup().into()),
                ("manual", e.manual_speedup().into()),
                ("baseline_metrics", e.baseline.to_json()),
                ("inlined_metrics", e.inlined.to_json()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", "oi.figures.v1".into()),
        ("size", size_name(size).into()),
        ("fig14", Json::Arr(fig14)),
        ("fig15", Json::Arr(fig15)),
        ("fig16", Json::Arr(fig16)),
        ("fig17", Json::Arr(fig17)),
    ])
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

    #[test]
    fn fig14_contains_every_benchmark() {
        let t = fig14(BenchSize::Small);
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
        let evals = evaluate_suite(BenchSize::Small);
        for e in &evals {
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
        for e in evaluate_suite(BenchSize::Small) {
            let ratio = e.inlined_size.kilobytes() / e.baseline_size.kilobytes();
            assert!(ratio < 1.4, "{}: code grew {ratio:.2}x", e.name);
        }
    }

    #[test]
    fn fig16_tag_sensitivity_not_cheaper() {
        for e in evaluate_suite(BenchSize::Small) {
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
        let doc = figures_json(BenchSize::Small);
        let text = doc.to_string();
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
