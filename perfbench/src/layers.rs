//! The metric lists `BENCHMARK.json` declares, and the readout of the
//! phase totals and counters the pipeline's own oi-trace spans report to
//! an installed tracer.

use oi_support::trace::Tracer;
use oi_support::Json;
use std::collections::BTreeMap;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`
/// (`end_to_end` or `per_layer`), in its order. A workload that never
/// enters a layer reports zero for that layer's metrics.
pub fn declared(key: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("a {key} metric lacks its {k}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// The pipeline stages whose `pipeline.*` spans are disjoint siblings
/// inside a compile: `(metric, span names)`. Their self times, plus
/// lowering, should add up to the compile's wall time.
pub const STAGES: &[(&str, &[&str])] = &[
    ("analyze.ms", &["pipeline.analyze"]),
    ("decide.ms", &["pipeline.decide"]),
    (
        "transform.ms",
        &["pipeline.restructure", "pipeline.rewrite"],
    ),
    ("devirt.ms", &["pipeline.devirt"]),
    ("cleanup.ms", &["pipeline.cleanup"]),
    ("verify.ms", &["pipeline.verify"]),
];

/// Analysis counters: `(metric, tracer counter)`.
pub const ANALYSIS_COUNTERS: &[(&str, &str)] = &[
    ("analyze.rounds", "analysis.rounds"),
    ("analyze.mcontours", "analysis.mcontours"),
    ("analyze.mcontour_splits", "analysis.mcontour_splits"),
    ("analyze.ocontours", "analysis.ocontours"),
    ("analyze.tag_overflows", "analysis.tag_overflows"),
];

/// Scales the times among per-layer values measured over a whole window
/// by the window's reference `factor` (see `calib.rs`).
pub fn scale_times(out: &mut BTreeMap<&'static str, f64>, factor: f64) {
    let units = declared("per_layer");
    for (name, value) in out.iter_mut() {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |m| m.1.as_str());
        if matches!(unit, "ms" | "us" | "ns") {
            *value *= factor;
        }
    }
}

/// Total microseconds the tracer aggregated under span `name`.
pub fn phase_us(tracer: &Tracer, name: &str) -> u64 {
    tracer
        .phase_profile()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, stat)| stat.total_us)
}

/// The tracer's total for counter `name`.
pub fn counter(tracer: &Tracer, name: &str) -> i64 {
    tracer
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Per-compile stage costs from a tracer that saw `compiles` compiles with
/// `lower_ms` and `wall_ms` in total; fills the stage metrics, the
/// unattributed remainder and the compile reconciliation residual.
pub fn stage_breakdown(
    tracer: &Tracer,
    compiles: usize,
    lower_ms: f64,
    wall_ms: f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    if compiles == 0 {
        return;
    }
    let n = compiles as f64;
    let mut attributed = lower_ms;
    out.insert("lower.ms", lower_ms / n);
    for &(metric, spans) in STAGES {
        let ms: f64 = spans.iter().map(|s| phase_us(tracer, s) as f64 / 1e3).sum();
        attributed += ms;
        out.insert(metric, ms / n);
    }
    let other = wall_ms - attributed;
    out.insert("compile.other_ms", other / n);
    out.insert("compile.reconcile_residual_pct", 100.0 * other / wall_ms);
}

/// Copies the analysis counters out of `tracer`.
pub fn analysis_counts(tracer: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
    for &(metric, name) in ANALYSIS_COUNTERS {
        out.insert(metric, counter(tracer, name) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spec.json` tags every declared metric exactly once, as
    /// `deterministic` or `timed`, and tags nothing else.
    #[test]
    fn every_declared_metric_has_one_tag() {
        let spec = Json::parse(include_str!("../spec.json")).expect("spec.json parses");
        let tagged: Vec<&str> = ["deterministic", "timed"]
            .into_iter()
            .flat_map(|k| {
                spec.get("metrics")
                    .and_then(|m| m.get(k))
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| panic!("spec.json lacks metrics.{k}"))
            })
            .map(|n| n.as_str().expect("metric names are strings"))
            .collect();
        let mut names: Vec<String> = ["end_to_end", "per_layer"]
            .into_iter()
            .flat_map(declared)
            .map(|m| m.0)
            .collect();
        for name in &names {
            let tags = tagged.iter().filter(|&&t| t == name).count();
            assert_eq!(tags, 1, "{name} has {tags} tags in spec.json");
        }
        names.sort();
        let mut tagged: Vec<String> = tagged.into_iter().map(String::from).collect();
        tagged.sort();
        assert_eq!(names, tagged, "spec.json tags exactly the declared metrics");
    }
}
