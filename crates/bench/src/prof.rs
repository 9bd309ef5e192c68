//! `oic prof` — the hierarchical performance observatory for one program.
//!
//! One invocation answers "where does the time go?" on both axes at once:
//!
//! - **Compile time**: the whole pipeline runs under a root `compile`
//!   span with an in-memory trace sink; the span stream is folded back
//!   into a tree of stages, each with call count, total (inclusive) and
//!   self (exclusive) wall-clock microseconds. Same-named siblings
//!   aggregate, so repeated passes show up as one stage with `count > 1`.
//!   By construction the self times across the tree sum to the root's
//!   total (up to per-span microsecond rounding) — the report never
//!   loses or double-counts time.
//! - **Run time**: the baseline and object-inlined builds both execute
//!   under the VM's opt-in profiler, side by side: modeled metrics,
//!   per-method self cycles, per-opcode dispatch histograms, and the
//!   ranked field-access sites that name where inlining pays off.
//!
//! Output is a human report by default, the schema-stable `oi.prof.v1`
//! document under `--json`, or `--collapse` collapsed-stack lines
//! (`a;b;c value`) that flamegraph tooling consumes directly: compile
//! stages weighted by self microseconds, VM methods by self cycles.

use crate::cli::{emit, load_source, scan_args, usage_error};
use oi_support::stats;
use oi_support::trace::{self, Event, EventKind, MemorySink, Sink, Tracer};
use oi_support::Json;
use std::rc::Rc;

/// Schema tag of `oic prof --json` documents.
pub const PROF_SCHEMA: &str = "oi.prof.v1";

const USAGE: &str = "usage: oic prof <file.oi> [--json | --collapse] [--out FILE]

profile one program end to end: hierarchical compile-stage self/total
wall times plus baseline-vs-inlined VM execution profiles (methods,
opcode dispatch, field-access sites).

  --json      write the schema-stable oi.prof.v1 document
  --collapse  write collapsed stacks (`a;b;c value`) for flamegraph
              tooling: compile stages in self-us, VM methods in cycles
  --out FILE  write to FILE instead of stdout
";

/// One aggregated node of the compile-stage tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageNode {
    /// Span name (`pipeline.analyze`, ...).
    pub name: String,
    /// How many spans with this name closed at this tree position.
    pub count: u64,
    /// Inclusive wall-clock microseconds.
    pub total_us: u64,
    /// Exclusive microseconds: total minus the children's totals.
    pub self_us: u64,
    /// Child stages in first-seen order.
    pub children: Vec<StageNode>,
}

impl StageNode {
    /// The node (and subtree) as `oi.prof.v1` JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.as_str().into()),
            ("count", self.count.into()),
            ("total_us", self.total_us.into()),
            ("self_us", self.self_us.into()),
            (
                "children",
                Json::Arr(self.children.iter().map(StageNode::to_json).collect()),
            ),
        ])
    }

    /// Sum of `self_us` across this subtree. Equals `total_us` up to the
    /// per-span microsecond rounding the trace layer introduces.
    pub fn self_sum_us(&self) -> u64 {
        self.self_us
            + self
                .children
                .iter()
                .map(StageNode::self_sum_us)
                .sum::<u64>()
    }

    /// Number of nodes in this subtree (the rounding tolerance bound:
    /// each span can lose strictly less than 1us to truncation).
    pub fn node_count(&self) -> u64 {
        1 + self.children.iter().map(StageNode::node_count).sum::<u64>()
    }
}

/// Merges `node` into `list`, aggregating with an existing same-named
/// sibling (counts and times add; children merge recursively).
fn merge_into(list: &mut Vec<StageNode>, node: StageNode) {
    if let Some(existing) = list.iter_mut().find(|n| n.name == node.name) {
        existing.count += node.count;
        existing.total_us += node.total_us;
        existing.self_us += node.self_us;
        for child in node.children {
            merge_into(&mut existing.children, child);
        }
    } else {
        list.push(node);
    }
}

/// Folds a span event stream back into the aggregated stage tree.
///
/// Spans nest strictly (the trace layer is thread-local and guards are
/// scoped), so a start/end stack reconstructs the hierarchy exactly:
/// each `SpanEnd` carries its inclusive time, children subtract out to
/// give self time, and same-named siblings merge.
pub fn build_stage_tree(events: &[Event]) -> Vec<StageNode> {
    let mut roots: Vec<StageNode> = Vec::new();
    // One frame per open span: the children closed under it so far.
    let mut stack: Vec<Vec<StageNode>> = Vec::new();
    for event in events {
        match event.kind {
            EventKind::SpanStart => stack.push(Vec::new()),
            EventKind::SpanEnd => {
                let children = stack.pop().unwrap_or_default();
                let total_us = event.elapsed_us.unwrap_or(0);
                let child_total: u64 = children.iter().map(|c| c.total_us).sum();
                let node = StageNode {
                    name: event.name.clone(),
                    count: 1,
                    total_us,
                    // Saturating: children's rounded-down totals can
                    // exceed the parent's rounded-down total by < 1us
                    // per child.
                    self_us: total_us.saturating_sub(child_total),
                    children,
                };
                match stack.last_mut() {
                    Some(parent) => merge_into(parent, node),
                    None => merge_into(&mut roots, node),
                }
            }
            EventKind::Instant => {}
        }
    }
    // Unclosed spans (a panic mid-pipeline) leave frames behind; fold
    // their finished children up so no measured time disappears.
    while let Some(orphans) = stack.pop() {
        for node in orphans {
            match stack.last_mut() {
                Some(parent) => merge_into(parent, node),
                None => merge_into(&mut roots, node),
            }
        }
    }
    roots
}

/// One build's profiled execution.
struct VmSide {
    wall_ns: u64,
    run: oi_vm::RunResult,
}

/// Everything one `oic prof` invocation measures.
struct ProfReport {
    file: String,
    compile: StageNode,
    baseline: VmSide,
    inlined: VmSide,
}

/// Compiles and runs `source` under full instrumentation.
fn measure(path: &str, source: &str) -> Result<ProfReport, String> {
    use oi_core::pipeline::{try_baseline, try_optimize, InlineConfig};

    let sink = Rc::new(MemorySink::default());
    let sinks: Vec<Rc<dyn Sink>> = vec![sink.clone()];
    let tracer = Rc::new(Tracer::new(sinks));
    let inline = InlineConfig::default();
    let budget = oi_support::Budget::unlimited();
    let (base, opt) = {
        let _guard = trace::install(tracer.clone());
        let _root = trace::span("compile");
        let program = {
            let _s = trace::span("compile.frontend");
            oi_ir::lower::compile(source).map_err(|e| format!("{path}: {}", e.render(source)))?
        };
        let base = {
            let _s = trace::span("compile.baseline");
            try_baseline(&program, &budget)
                .map_err(|e| format!("{path}: baseline pipeline: {e}"))?
        };
        let opt = {
            let _s = trace::span("compile.inlined");
            try_optimize(&program, &inline, &Default::default(), &budget)
                .map_err(|e| format!("{path}: inlining pipeline: {e}"))?
        };
        (base, opt)
    };
    let trees = build_stage_tree(&sink.snapshot());
    let compile = trees
        .into_iter()
        .find(|n| n.name == "compile")
        .ok_or_else(|| "trace produced no compile span".to_string())?;

    let profiled = oi_vm::VmConfig {
        profile: true,
        ..oi_vm::VmConfig::default()
    };
    let run_side = |program: &oi_ir::Program, what: &str| -> Result<VmSide, String> {
        let (result, wall_ns) = stats::time_once(|| oi_vm::run(program, &profiled));
        let run = result.map_err(|e| format!("{path}: {what} runtime error: {e}"))?;
        Ok(VmSide {
            wall_ns: wall_ns as u64,
            run,
        })
    };
    let baseline = run_side(&base, "baseline")?;
    let inlined = run_side(&opt.program, "inlined")?;
    if baseline.run.output != inlined.run.output {
        return Err(format!(
            "{path}: OUTPUT MISMATCH between baseline and inlined builds — this is a compiler bug"
        ));
    }
    Ok(ProfReport {
        file: path.to_string(),
        compile,
        baseline,
        inlined,
    })
}

impl ProfReport {
    /// The `oi.prof.v1` document.
    fn to_json(&self) -> Json {
        let vm_side = |side: &VmSide| {
            Json::obj(vec![
                ("wall_ns", side.wall_ns.into()),
                ("metrics", side.run.metrics.to_json()),
                (
                    "profile",
                    side.run
                        .profile
                        .as_ref()
                        .map(|p| p.to_json())
                        .unwrap_or(Json::Null),
                ),
            ])
        };
        Json::obj(vec![
            ("schema", PROF_SCHEMA.into()),
            ("file", self.file.as_str().into()),
            (
                "compile",
                Json::obj(vec![
                    ("total_us", self.compile.total_us.into()),
                    ("self_sum_us", self.compile.self_sum_us().into()),
                    ("stages", Json::Arr(vec![self.compile.to_json()])),
                ]),
            ),
            (
                "vm",
                Json::obj(vec![
                    ("baseline", vm_side(&self.baseline)),
                    ("inlined", vm_side(&self.inlined)),
                    (
                        "speedup",
                        self.inlined
                            .run
                            .metrics
                            .speedup_over(&self.baseline.run.metrics)
                            .into(),
                    ),
                ]),
            ),
        ])
    }

    /// Collapsed-stack lines: compile stages weighted by self-us, VM
    /// methods by self cycles (`vm.baseline;Class::method 1234`).
    fn to_collapse(&self) -> String {
        let mut out = String::new();
        fn walk(node: &StageNode, prefix: &str, out: &mut String) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            if node.self_us > 0 {
                out.push_str(&format!("{path} {}\n", node.self_us));
            }
            for child in &node.children {
                walk(child, &path, out);
            }
        }
        walk(&self.compile, "", &mut out);
        for (tag, side) in [
            ("vm.baseline", &self.baseline),
            ("vm.inlined", &self.inlined),
        ] {
            if let Some(profile) = &side.run.profile {
                for m in &profile.methods {
                    if m.cycles > 0 {
                        out.push_str(&format!("{tag};{} {}\n", m.name, m.cycles));
                    }
                }
            }
        }
        out
    }

    /// The human report.
    fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== compile stages: {} ===\n", self.file));
        out.push_str(&format!(
            "{:>10} {:>10} {:>7}  stage\n",
            "total_us", "self_us", "count"
        ));
        fn walk(node: &StageNode, depth: usize, out: &mut String) {
            out.push_str(&format!(
                "{:>10} {:>10} {:>7}  {}{}\n",
                node.total_us,
                node.self_us,
                node.count,
                "  ".repeat(depth),
                node.name
            ));
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        walk(&self.compile, 0, &mut out);
        out.push_str(&format!(
            "=== vm: baseline vs inlined ({:.2}x cycle speedup) ===\n",
            self.inlined
                .run
                .metrics
                .speedup_over(&self.baseline.run.metrics)
        ));
        for (tag, side) in [("baseline", &self.baseline), ("inlined", &self.inlined)] {
            out.push_str(&format!(
                "--- {tag}: {} cycles, wall {} ---\n",
                side.run.metrics.cycles,
                format_nanos(side.wall_ns)
            ));
            if let Some(profile) = &side.run.profile {
                out.push_str(&profile.to_string());
            }
        }
        out
    }
}

/// Output format selected by flags.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Collapse,
}

/// Runs `oic prof` on pre-split arguments; returns the process exit code
/// (0 success, 1 compile/run/IO failure, 2 usage error).
pub fn cli_main(args: &[String]) -> u8 {
    let mut format = Format::Text;
    let mut out: Option<String> = None;
    let mut files = Vec::new();
    let scanned = scan_args(
        args,
        USAGE,
        |flag, s| {
            let wanted = match flag {
                "--json" => Format::Json,
                "--collapse" => Format::Collapse,
                "--out" => {
                    out = Some(s.path(flag)?);
                    return Ok(());
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            };
            if format != Format::Text && format != wanted {
                return Err("`--json` and `--collapse` are mutually exclusive".into());
            }
            format = wanted;
            Ok(())
        },
        |path| {
            files.push(path);
            Ok(())
        },
    );
    if let Err(code) = scanned {
        return code;
    }
    if files.len() != 1 {
        return usage_error(USAGE, "prof needs exactly one <file.oi>");
    }
    let path = &files[0];
    let source = match load_source(path) {
        Ok(source) => source,
        Err(msg) => {
            eprintln!("{msg}");
            return 1;
        }
    };
    let report = match measure(path, &source) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("{msg}");
            return 1;
        }
    };
    let rendered = match format {
        Format::Text => report.to_text(),
        Format::Json => report.to_json().to_string(),
        Format::Collapse => report.to_collapse(),
    };
    emit(&rendered, out.as_deref(), true)
}

/// Formats a nanosecond duration with an adaptive unit.
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_adaptive_units() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1_500), "1.500us");
        assert_eq!(format_nanos(2_000_000), "2.000ms");
        assert_eq!(format_nanos(3_500_000_000), "3.500s");
    }

    fn span_start(name: &str) -> Event {
        Event {
            kind: EventKind::SpanStart,
            name: name.to_string(),
            depth: 0,
            elapsed_us: None,
            fields: Vec::new(),
        }
    }

    fn span_end(name: &str, us: u64) -> Event {
        Event {
            kind: EventKind::SpanEnd,
            name: name.to_string(),
            depth: 0,
            elapsed_us: Some(us),
            fields: Vec::new(),
        }
    }

    #[test]
    fn stage_tree_computes_self_time_and_aggregates_siblings() {
        // root { a { leaf } a { leaf } b }
        let events = vec![
            span_start("root"),
            span_start("a"),
            span_start("leaf"),
            span_end("leaf", 10),
            span_end("a", 30),
            span_start("a"),
            span_start("leaf"),
            span_end("leaf", 5),
            span_end("a", 15),
            span_start("b"),
            span_end("b", 40),
            span_end("root", 100),
        ];
        let tree = build_stage_tree(&events);
        assert_eq!(tree.len(), 1);
        let root = &tree[0];
        assert_eq!(
            (root.name.as_str(), root.count, root.total_us),
            ("root", 1, 100)
        );
        // root self = 100 - (30 + 15 + 40)
        assert_eq!(root.self_us, 15);
        assert_eq!(root.children.len(), 2, "same-named siblings merge");
        let a = &root.children[0];
        assert_eq!(
            (a.name.as_str(), a.count, a.total_us, a.self_us),
            ("a", 2, 45, 30)
        );
        let leaf = &a.children[0];
        assert_eq!((leaf.count, leaf.total_us, leaf.self_us), (2, 15, 15));
        // The invariant the JSON consumers rely on: self times sum to
        // the root total exactly (no rounding in synthetic events).
        assert_eq!(root.self_sum_us(), root.total_us);
    }

    #[test]
    fn stage_tree_saturates_when_children_outround_the_parent() {
        let events = vec![
            span_start("p"),
            span_start("c"),
            span_end("c", 7),
            span_end("p", 6),
        ];
        let tree = build_stage_tree(&events);
        assert_eq!(tree[0].self_us, 0);
    }

    #[test]
    fn stage_tree_folds_orphans_of_unclosed_spans() {
        // `open` never ends (as after a contained panic): its finished
        // child must still surface at the root rather than vanish.
        let events = vec![span_start("open"), span_start("c"), span_end("c", 9)];
        let tree = build_stage_tree(&events);
        assert_eq!(tree.len(), 1);
        assert_eq!((tree[0].name.as_str(), tree[0].total_us), ("c", 9));
    }

    const PROGRAM: &str = "
class Pt { field x; method init(a) { self.x = a; } }
class Box { field p; method init(a) { self.p = new Pt(a); } }
global KEEP;
fn main() {
  var b = new Box(21);
  KEEP = b;
  print b.p.x * 2;
}
";

    fn write_temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oi-prof-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, PROGRAM).unwrap();
        path
    }

    #[test]
    fn prof_measures_a_real_program_end_to_end() {
        let path = write_temp("end_to_end.oi");
        let source = std::fs::read_to_string(&path).unwrap();
        let report = measure(path.to_str().unwrap(), &source).unwrap();
        // Hierarchy: the root span owns frontend + both pipelines.
        let names: Vec<&str> = report
            .compile
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["compile.frontend", "compile.baseline", "compile.inlined"]
        );
        fn subtree_has(node: &StageNode, name: &str) -> bool {
            node.name == name || node.children.iter().any(|c| subtree_has(c, name))
        }
        let inlined_stage = &report.compile.children[2];
        assert!(
            subtree_has(inlined_stage, "pipeline.analyze"),
            "inlining stage must expose pipeline phases"
        );
        // The accounting invariant: self times sum back to the total,
        // within the per-node microsecond-truncation tolerance.
        let (total, self_sum) = (report.compile.total_us, report.compile.self_sum_us());
        let tolerance = report.compile.node_count();
        assert!(
            total.abs_diff(self_sum) <= tolerance,
            "self/total accounting leaked time: total {total}us, self-sum {self_sum}us"
        );
        // Both VM sides carry full profiles and the inlined build wins.
        for side in [&report.baseline, &report.inlined] {
            let profile = side.run.profile.as_ref().unwrap();
            assert!(!profile.methods.is_empty());
            assert!(!profile.opcodes.is_empty());
            assert!(!profile.accesses.is_empty());
        }
        assert!(
            report.inlined.run.metrics.cycles <= report.baseline.run.metrics.cycles,
            "inlining should not slow this program down"
        );
    }

    #[test]
    fn prof_json_and_collapse_are_well_formed() {
        let path = write_temp("formats.oi");
        let source = std::fs::read_to_string(&path).unwrap();
        let report = measure(path.to_str().unwrap(), &source).unwrap();

        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(PROF_SCHEMA));
        let compile = doc.get("compile").unwrap();
        assert!(compile.get("total_us").and_then(Json::as_i64).is_some());
        let stages = compile.get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(
            stages[0].get("name").and_then(Json::as_str),
            Some("compile")
        );
        for build in ["baseline", "inlined"] {
            let side = doc.get("vm").unwrap().get(build).unwrap();
            assert!(side.get("metrics").unwrap().get("cycles").is_some());
            let profile = side.get("profile").unwrap();
            for table in ["methods", "sites", "opcodes", "accesses"] {
                assert!(profile.get(table).is_some(), "{build} missing {table}");
            }
        }

        let collapse = report.to_collapse();
        for line in collapse.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("`stack value` shape");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("numeric sample value");
        }
        assert!(
            collapse.lines().any(|l| l.starts_with("compile;")),
            "compile stacks missing:\n{collapse}"
        );
        assert!(
            collapse.lines().any(|l| l.starts_with("vm.inlined;")),
            "vm stacks missing:\n{collapse}"
        );
    }

    #[test]
    fn cli_rejects_bad_usage() {
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            cli_main(&args)
        };
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["a.oi", "b.oi"]), 2);
        assert_eq!(run(&["--wat", "a.oi"]), 2);
        assert_eq!(run(&["--json", "--collapse", "a.oi"]), 2);
        assert_eq!(run(&["/no/such/file.oi"]), 1);
    }
}
