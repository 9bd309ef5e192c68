//! Integration tests of the `oic` command-line driver.

use std::io::Write as _;
use std::process::Command;

fn oic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oic"))
}

fn write_temp(name: &str, source: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("oi-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(source.as_bytes()).unwrap();
    path
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

#[test]
fn run_executes_and_prints() {
    let path = write_temp("run.oi", PROGRAM);
    let out = oic()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");
}

#[test]
fn run_inline_matches_baseline_output() {
    let path = write_temp("run_inline.oi", PROGRAM);
    let base = oic()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    let inl = oic()
        .args(["run", "--inline", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(inl.status.success());
    assert_eq!(base.stdout, inl.stdout);
}

#[test]
fn compare_reports_inlined_fields() {
    let path = write_temp("compare.oi", PROGRAM);
    let out = oic()
        .args(["compare", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("outputs identical"), "{err}");
    assert!(err.contains("fields inlined: 1"), "{err}");
}

#[test]
fn report_lists_decisions() {
    let path = write_temp("report.oi", PROGRAM);
    let out = oic()
        .args(["report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INLINED  Box.p"), "{stdout}");
}

#[test]
fn dump_prints_ir() {
    let path = write_temp("dump.oi", PROGRAM);
    let out = oic()
        .args(["dump", "--inline", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("class Box"), "{stdout}");
    assert!(
        stdout.contains("layout"),
        "inlined dump should show layouts: {stdout}"
    );
}

#[test]
fn parse_errors_are_reported_with_position() {
    let path = write_temp("broken.oi", "fn main() { print 1 + ; }");
    let out = oic()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
    assert!(err.contains(':'), "position expected: {err}");
}

#[test]
fn unknown_subcommand_shows_usage() {
    let out = oic().args(["bogus", "x.oi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_flag_is_rejected() {
    let path = write_temp("badflag.oi", PROGRAM);
    let out = oic()
        .args(["run", "--wat", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--wat`"), "{err}");
}

#[test]
fn flag_command_mismatch_is_rejected() {
    let path = write_temp("mismatch.oi", PROGRAM);
    for (cmd, flag) in [
        ("report", "--inline"),
        ("compare", "--inline"),
        ("compare", "--profile"),
        ("dump", "--json"),
    ] {
        let out = oic()
            .args([cmd, flag, path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag} should exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{cmd} {flag}: {err}");
    }
}

#[test]
fn extra_positional_is_rejected() {
    let out = oic().args(["run", "a.oi", "b.oi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// Pins the `oic.run.v1` schema: any key removal or rename here is a
/// breaking change for downstream consumers.
#[test]
fn run_json_schema_is_stable() {
    use oi_support::Json;
    let path = write_temp("run_json.oi", PROGRAM);
    let out = oic()
        .args([
            "run",
            "--inline",
            "--profile",
            "--json",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("oic.run.v1"));
    assert_eq!(doc.get("pipeline").and_then(Json::as_str), Some("inline"));
    assert_eq!(doc.get("output").and_then(Json::as_str), Some("42\n"));
    let metrics = doc.get("metrics").expect("metrics object");
    for key in [
        "cycles",
        "instructions",
        "heap_reads",
        "allocations",
        "cache_hit_rate",
    ] {
        assert!(metrics.get(key).is_some(), "metrics.{key} missing");
    }
    let census = doc.get("allocation_census").and_then(Json::as_arr).unwrap();
    assert!(census
        .iter()
        .any(|e| e.get("class").and_then(Json::as_str) == Some("Box")));
    let profile = doc.get("profile").expect("profile present with --profile");
    assert!(profile.get("methods").and_then(Json::as_arr).is_some());
    assert!(profile.get("sites").and_then(Json::as_arr).is_some());
    // Phase timings are present even without OIC_TRACE.
    let phases = doc.get("phases").and_then(Json::as_arr).unwrap();
    assert!(
        phases
            .iter()
            .any(|p| p.get("name").and_then(Json::as_str) == Some("vm.run")),
        "expected a vm.run phase entry"
    );
    let report = doc.get("report").expect("report present with --inline");
    assert!(report.get("decisions").and_then(Json::as_arr).is_some());
}

/// Pins the `oic.compare.v1` schema, including per-field decisions with
/// provenance reason codes and per-phase wall-clock timings.
#[test]
fn compare_json_schema_is_stable() {
    use oi_support::Json;
    let path = write_temp("compare_json.oi", PROGRAM);
    let out = oic()
        .args(["compare", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oic.compare.v1")
    );
    let base = doc.get("baseline").expect("baseline metrics");
    let inl = doc.get("inlined").expect("inlined metrics");
    assert!(base.get("cycles").and_then(Json::as_i64).unwrap() > 0);
    assert!(
        inl.get("allocations").and_then(Json::as_i64).unwrap()
            < base.get("allocations").and_then(Json::as_i64).unwrap()
    );
    assert!(doc.get("speedup").and_then(Json::as_f64).unwrap() > 1.0);
    let decisions = doc
        .get("report")
        .and_then(|r| r.get("decisions"))
        .and_then(Json::as_arr)
        .unwrap();
    let boxp = decisions
        .iter()
        .find(|d| d.get("field").and_then(Json::as_str) == Some("Box.p"))
        .expect("Box.p decision");
    assert_eq!(boxp.get("code").and_then(Json::as_str), Some("inlined"));
    let phases = doc.get("phases").and_then(Json::as_arr).unwrap();
    let analyze = phases
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some("pipeline.analyze"))
        .expect("pipeline.analyze phase timing");
    assert!(analyze.get("total_us").and_then(Json::as_i64).is_some());
    assert!(analyze.get("count").and_then(Json::as_i64).unwrap() > 0);
    let counters = doc.get("counters").expect("counters object");
    assert!(
        counters
            .get("analysis.rounds")
            .and_then(Json::as_i64)
            .unwrap()
            > 0
    );
}

/// Pins `oic.report.v1` and `oic.explain.v1`.
#[test]
fn report_and_explain_json_schemas_are_stable() {
    use oi_support::Json;
    let path = write_temp("report_json.oi", PROGRAM);
    let out = oic()
        .args(["report", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oic.report.v1")
    );
    let report = doc.get("report").unwrap();
    assert!(report
        .get("total_object_fields")
        .and_then(Json::as_i64)
        .is_some());
    assert!(report.get("provenance").and_then(Json::as_arr).is_some());

    let out = oic()
        .args(["explain", "--json", path.to_str().unwrap(), "Box.p"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oic.explain.v1")
    );
    assert_eq!(doc.get("inlined"), Some(&Json::Bool(true)));
    let chain = doc.get("chain").and_then(Json::as_arr).unwrap();
    assert!(!chain.is_empty());
    assert_eq!(chain[0].get("code").and_then(Json::as_str), Some("inlined"));
}

#[test]
fn explain_unknown_field_fails_and_lists_known() {
    let path = write_temp("explain_unknown.oi", PROGRAM);
    let out = oic()
        .args(["explain", path.to_str().unwrap(), "Box.zzz"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no decision recorded"), "{err}");
    assert!(
        err.contains("Box.p"),
        "should list fields with decisions: {err}"
    );
}

#[test]
fn explain_names_the_rejecting_rule() {
    // `===` on the stored Pt keeps Box.p out-of-line (DESIGN §4 rule 3).
    let src = "
class Pt { field x; method init(a) { self.x = a; } }
class Box { field p; method init(a) { self.p = new Pt(a); } }
global KEEP;
fn main() {
  var b = new Box(21);
  KEEP = b;
  print b.p === b.p;
  print b.p.x * 2;
}
";
    let path = write_temp("explain_reject.oi", src);
    let out = oic()
        .args(["explain", path.to_str().unwrap(), "Box.p"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kept out-of-line"), "{stdout}");
    assert!(stdout.contains("rule 3"), "{stdout}");
}

/// `oic bench` forwards to the oi-bench CLI: same usage text, same
/// strict exit-2 discipline.
#[test]
fn bench_passthrough_shares_the_oi_bench_cli() {
    let out = oic().args(["bench"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("snapshot"), "{err}");
    assert!(err.contains("compare"), "{err}");

    let out = oic().args(["bench", "wat"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains(
        "unknown command `wat` (snapshot|compare|loadgen|tenantload|restartload|brownoutload)"
    ));

    let out = oic().args(["bench", "--help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("oi.bench.v1"));
}

/// A one-round analysis budget exhausts on any real program; the compile
/// must still land (globally widened, flagged `degraded`) with the
/// exhaustion recorded as explainable `<pipeline>` provenance.
#[test]
fn starved_budget_degrades_with_tier_and_provenance() {
    use oi_support::Json;
    let path = write_temp("degraded.oi", PROGRAM);
    let out = oic()
        .args([
            "report",
            "--json",
            "--max-rounds",
            "1",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let report = doc.get("report").unwrap();
    assert_eq!(report.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        report.get("tier").and_then(Json::as_str),
        Some("guarded-full"),
        "budget exhaustion degrades in place; it does not descend tiers"
    );
    let prov = report.get("provenance").and_then(Json::as_arr).unwrap();
    assert!(
        prov.iter().any(|s| {
            s.get("field").and_then(Json::as_str) == Some("<pipeline>")
                && s.get("code").and_then(Json::as_str) == Some("budget-exhausted")
        }),
        "expected a budget-exhausted provenance step: {prov:?}"
    );
    // The pseudo-field is explainable like any other decision subject.
    let out = oic()
        .args([
            "explain",
            "--max-rounds",
            "1",
            path.to_str().unwrap(),
            "<pipeline>",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget-exhausted"), "{stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget exhausted"), "{err}");
}

/// `oic batch` forwards to the panic-isolated batch driver and emits a
/// schema-stable `oi.batch.v1` document.
#[test]
fn batch_compiles_a_directory_and_reports_tiers() {
    use oi_support::Json;
    let dir = std::env::temp_dir().join("oi-cli-tests-batch");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("one.oi"), PROGRAM).unwrap();
    std::fs::write(dir.join("two.oi"), PROGRAM).unwrap();
    let out = oic()
        .args(["batch", "--json", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oi.batch.v1")
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("tier_counts")
            .and_then(|t| t.get("guarded-full"))
            .and_then(Json::as_i64),
        Some(2)
    );

    // A starved budget degrades jobs but fails none.
    let out = oic()
        .args([
            "batch",
            "--json",
            "--max-rounds",
            "1",
            "--keep-going",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert!(doc.get("degraded").and_then(Json::as_i64).unwrap() > 0);

    // Usage errors keep the strict exit-2 discipline.
    let out = oic().args(["batch"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = oic().args(["batch", "--wat"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// Unusable input arguments are usage errors (exit 2) with typed
/// diagnostics, not raw OS errors or panics.
#[test]
fn unusable_inputs_get_typed_exit_2_diagnostics() {
    // A directory where a file is expected.
    let dir = std::env::temp_dir().join("oi-cli-tests-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = oic().args(["run", dir.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("is a directory"), "{err}");
    assert!(err.contains("oic batch"), "should point at batch: {err}");

    // An empty path argument.
    let out = oic().args(["run", ""]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("empty file path"), "{err}");

    // A file that is not UTF-8.
    let path = std::env::temp_dir().join("oi-cli-tests-bin.oi");
    std::fs::write(&path, b"fn main\xff\xfe() {}").unwrap();
    let out = oic()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not valid UTF-8"), "{err}");
    assert!(err.contains("offset"), "should locate the bad byte: {err}");

    // A missing file stays a typed diagnostic too.
    let out = oic().args(["run", "no-such-file.oi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// `oic run --checked` validates inline-heap invariants; a clean checked
/// run exits 0, reports its check count, and the `--json` document grows
/// an additive `sanitizer` field.
#[test]
fn run_checked_reports_clean_execution() {
    use oi_support::Json;
    let path = write_temp("checked.oi", PROGRAM);
    let out = oic()
        .args(["run", "--inline", "--checked", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checked execution (full) clean"), "{err}");

    let out = oic()
        .args([
            "run",
            "--inline",
            "--checked=basic",
            "--json",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let san = doc
        .get("sanitizer")
        .expect("sanitizer field with --checked");
    assert_eq!(san.get("level").and_then(Json::as_str), Some("basic"));
    assert_eq!(san.get("total_findings").and_then(Json::as_i64), Some(0));
    assert_eq!(
        san.get("findings").and_then(Json::as_arr).map(|a| a.len()),
        Some(0)
    );

    // Unchecked runs keep the schema unchanged: no sanitizer field.
    let out = oic()
        .args(["run", "--inline", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert!(doc.get("sanitizer").is_none());

    // Flag discipline: a bad level and a non-run command both exit 2.
    let out = oic()
        .args(["run", "--checked=bogus", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown check level"));
    let out = oic()
        .args(["compare", "--checked", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checked"));
}

/// `oic chaos` forwards to the fault-injection driver: a single-fault
/// run detects and repairs it, emitting a schema-stable `oi.chaos.v1`
/// document, and usage errors keep the exit-2 discipline.
#[test]
fn chaos_passthrough_detects_an_injected_fault() {
    use oi_support::Json;
    let out = oic()
        .args(["chaos", "--fault", "skip-use-redirect", "--json"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oi.chaos.v1")
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("escaped").and_then(Json::as_i64), Some(0));
    let rows = doc.get("faults").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("detected"), Some(&Json::Bool(true)));

    let out = oic().args(["chaos", "--list"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 5 compiler fault classes plus the 7 storage I/O fault classes.
    assert_eq!(stdout.lines().count(), 12, "{stdout}");
    assert!(stdout.contains("wrong-devirt-target"), "{stdout}");
    assert!(stdout.contains("truncated-journal-tail"), "{stdout}");
    assert!(stdout.contains("torn-write"), "{stdout}");

    let out = oic().args(["chaos", "--fault", "wat"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fault"));
    let out = oic().args(["chaos", "extra.oi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A single storage I/O fault through `oic chaos`: the corrupted store
/// must be detected, quarantined, and re-served with zero corrupt
/// responses, reported under the additive `io_faults` key.
#[test]
fn chaos_single_io_fault_is_detected_and_quarantined() {
    use oi_support::Json;
    let out = oic()
        .args(["chaos", "--fault", "bit-flip-body", "--json"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    let rows = doc.get("io_faults").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0].get("fault").and_then(Json::as_str),
        Some("bit-flip-body")
    );
    assert_eq!(rows[0].get("detected"), Some(&Json::Bool(true)));
    assert_eq!(rows[0].get("quarantined"), Some(&Json::Bool(true)));
    assert_eq!(
        rows[0].get("corrupt_served").and_then(Json::as_i64),
        Some(0)
    );
}

/// `oic serve --cache-dir`: a second server process over the same
/// directory must answer the same source from the verified disk tier.
#[test]
fn serve_cache_dir_survives_a_restart() {
    use std::io::Write as _;
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("oic-cli-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = |requests: &str| -> String {
        let mut child = oic()
            .args(["serve", "--cache-dir", dir.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(requests.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let compile = r#"{"id": 1, "op": "compile", "source": "fn main() { print 6 * 7; }"}
{"id": 2, "op": "shutdown"}
"#;
    let first = session(compile);
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let second = session(compile);
    assert!(second.contains("\"cache\":\"disk\""), "{second}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `oic bench restartload`: usage errors keep the exit-2 discipline and
/// a scaled-down replay with one unclean kill meets its own gate.
#[test]
fn bench_restartload_gate_and_usage() {
    use oi_support::Json;
    let out = oic()
        .args(["bench", "restartload", "--wat"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: oic bench restartload"));

    let out = oic()
        .args([
            "bench",
            "restartload",
            "--requests",
            "60",
            "--sources",
            "4",
            "--kills",
            "1",
            "--seed",
            "5",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oi.restart.v1")
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("corrupt_total").and_then(Json::as_i64), Some(0));
    assert_eq!(doc.get("recovered"), Some(&Json::Bool(true)));
}

#[test]
fn trace_json_streams_events_to_stderr() {
    use oi_support::Json;
    let path = write_temp("trace.oi", PROGRAM);
    let out = oic()
        .args(["run", "--inline", "--trace=json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let mut saw_contour = false;
    for line in err.lines().filter(|l| l.starts_with('{')) {
        let ev = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        if ev.get("name").and_then(Json::as_str) == Some("contour.new") {
            saw_contour = true;
        }
    }
    assert!(saw_contour, "expected contour.new events in: {err}");
}

/// `OIC_TRACE` reaches the forwarded harnesses: a traced fuzz session
/// streams its pipeline spans, and its report on stdout is unchanged. A
/// one-worker batch compiles on the calling thread, so its spans reach
/// stderr too (its stdout carries wall times, so it is not compared).
#[test]
fn trace_env_reaches_forwarded_fuzz() {
    use oi_support::Json;
    let run = |args: &[&str], trace: Option<&str>| {
        let mut cmd = oic();
        cmd.args(args).env_remove("OIC_TRACE");
        if let Some(mode) = trace {
            cmd.env("OIC_TRACE", mode);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{out:?}");
        out
    };
    let pipeline_spans = |stderr: &[u8]| {
        let err = String::from_utf8_lossy(stderr);
        let spans = err
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}")))
            .filter(|ev| {
                ev.get("ev").and_then(Json::as_str) == Some("span")
                    && ev
                        .get("name")
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.starts_with("pipeline."))
            })
            .count();
        assert!(spans > 0, "expected pipeline spans in: {err}");
    };
    let fuzz = ["fuzz", "--runs", "2", "--seed", "1"];
    let (plain, traced) = (run(&fuzz, None), run(&fuzz, Some("json")));
    assert_eq!(plain.stdout, traced.stdout);
    pipeline_spans(&traced.stderr);
    assert!(!String::from_utf8_lossy(&plain.stderr).contains('{'));
    let batch = run(&["batch", "examples/rectangle_inline.oi"], Some("json"));
    pipeline_spans(&batch.stderr);
}

/// `oic prof` golden tests: the `oi.prof.v1` document (hierarchical
/// compile stages whose self times sum to the total, plus per-build VM
/// profiles), the collapsed-stack export, and the exit-2 flag discipline.
#[test]
fn prof_json_document_is_schema_stable_and_accounts_for_all_time() {
    use oi_support::Json;
    let path = write_temp("prof.oi", PROGRAM);
    let out = oic()
        .args(["prof", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("oi.prof.v1"));

    // Stage accounting: self_sum_us is computed over the whole tree and
    // must land within rounding distance of the measured total.
    let compile = doc.get("compile").unwrap();
    let total = compile.get("total_us").and_then(Json::as_i64).unwrap();
    let self_sum = compile.get("self_sum_us").and_then(Json::as_i64).unwrap();
    fn count_nodes(stage: &Json) -> i64 {
        1 + stage
            .get("children")
            .and_then(Json::as_arr)
            .map(|c| c.iter().map(count_nodes).sum())
            .unwrap_or(0)
    }
    let stages = compile.get("stages").and_then(Json::as_arr).unwrap();
    let root = &stages[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("compile"));
    let tolerance = count_nodes(root);
    assert!(
        (total - self_sum).abs() <= tolerance,
        "self/total leak: total {total}us, self-sum {self_sum}us (tolerance {tolerance}us)"
    );
    for key in ["count", "total_us", "self_us", "children"] {
        assert!(root.get(key).is_some(), "stage node missing {key}");
    }

    // Both builds ship metrics and the full profile tables.
    for build in ["baseline", "inlined"] {
        let side = doc.get("vm").unwrap().get(build).unwrap();
        assert!(side.get("wall_ns").and_then(Json::as_i64).is_some());
        assert!(side.get("metrics").unwrap().get("cycles").is_some());
        let profile = side.get("profile").unwrap();
        for table in ["methods", "sites", "opcodes", "accesses"] {
            assert!(profile.get(table).is_some(), "{build} missing {table}");
        }
        assert!(!profile
            .get("opcodes")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }
    assert!(doc.get("vm").unwrap().get("speedup").is_some());
}

#[test]
fn prof_collapse_emits_flamegraph_ready_stacks() {
    let path = write_temp("prof_collapse.oi", PROGRAM);
    let out = oic()
        .args(["prof", "--collapse", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.trim().is_empty());
    for line in stdout.lines() {
        // `frame;frame;... value` — exactly what flamegraph.pl takes.
        let (stack, value) = line.rsplit_once(' ').expect("stack + value");
        assert!(!stack.is_empty(), "empty stack in {line}");
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric value in {line}"));
    }
    assert!(stdout.lines().any(|l| l.starts_with("compile")), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("vm.baseline;")),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("vm.inlined;")),
        "{stdout}"
    );
}

/// `oic serve` golden test: pins the `oi.serve.v1` envelope and the
/// `oi.metrics.v1` stats payload over a real piped session — compile
/// (miss), run of the same bytes (hit), stats, shutdown.
#[test]
fn serve_session_pins_envelope_and_metrics_schemas() {
    use oi_support::Json;
    use std::process::Stdio;
    let path = write_temp("serve_cli.oi", PROGRAM);
    let p = path.to_str().unwrap();
    let mut child = oic()
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in [
            format!("{{\"id\": 1, \"op\": \"compile\", \"path\": \"{p}\"}}"),
            format!("{{\"id\": 2, \"op\": \"run\", \"path\": \"{p}\"}}"),
            "{\"id\": 3, \"op\": \"stats\"}".to_string(),
            "{\"id\": 4, \"op\": \"shutdown\"}".to_string(),
        ] {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line {l}: {e}")))
        .collect();
    assert_eq!(responses.len(), 4, "{stdout}");
    for (r, (id, op, cache)) in responses.iter().zip([
        (1, "compile", "miss"),
        (2, "run", "hit"),
        (3, "stats", "none"),
        (4, "shutdown", "none"),
    ]) {
        assert_eq!(r.get("schema").and_then(Json::as_str), Some("oi.serve.v1"));
        assert_eq!(r.get("id").and_then(Json::as_i64), Some(id));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("op").and_then(Json::as_str), Some(op));
        assert_eq!(r.get("cache").and_then(Json::as_str), Some(cache));
        assert_eq!(
            r.get("brownout_tier").and_then(Json::as_str),
            Some("guarded-full"),
            "an unstressed server serves every response at full tier"
        );
        assert!(r.get("wall_us").and_then(Json::as_i64).is_some());
        assert!(r.get("payload").is_some());
    }
    // The compile payload is oic.report.v1-shaped; the run payload is
    // oic.run.v1-shaped and executed the cached artifact.
    let compile = responses[0].get("payload").unwrap();
    assert_eq!(
        compile.get("schema").and_then(Json::as_str),
        Some("oic.report.v1")
    );
    assert!(compile
        .get("report")
        .and_then(|r| r.get("decisions"))
        .is_some());
    let run = responses[1].get("payload").unwrap();
    assert_eq!(run.get("schema").and_then(Json::as_str), Some("oic.run.v1"));
    assert_eq!(run.get("output").and_then(Json::as_str), Some("42\n"));
    assert!(run.get("metrics").and_then(|m| m.get("cycles")).is_some());
    // The stats payload is the oi.metrics.v1 registry export, and its
    // counters reflect the session so far: one miss, one hit.
    let metrics = responses[2].get("payload").unwrap();
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("oi.metrics.v1")
    );
    let counters = metrics.get("counters").expect("counters object");
    assert_eq!(counters.get("cache.hits").and_then(Json::as_i64), Some(1));
    assert_eq!(counters.get("cache.misses").and_then(Json::as_i64), Some(1));
    assert_eq!(
        counters.get("serve.requests").and_then(Json::as_i64),
        Some(3)
    );
    assert!(metrics.get("gauges").is_some());
    let hists = metrics.get("histograms").expect("histograms object");
    let parse = hists.get("serve.parse_ns").expect("parse histogram");
    for key in ["count", "sum_ns", "p50_ns", "p90_ns", "p99_ns", "buckets"] {
        assert!(parse.get(key).is_some(), "histogram missing {key}");
    }
}

/// Overload-control golden test: pins the `health` op payload and the
/// typed `retry_after_ms` hint on shed responses, over a real piped
/// session that floods a one-slot admission queue with a single worker.
#[test]
fn serve_overload_pins_health_op_and_retry_hints() {
    use oi_support::Json;
    use std::process::Stdio;
    const FLOOD: i64 = 16;
    let mut child = oic()
        .args([
            "serve",
            "--jobs",
            "1",
            "--queue",
            "1",
            "--brownout-target-ms",
            "10000",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        for i in 0..FLOOD {
            writeln!(
                stdin,
                "{{\"id\": {i}, \"op\": \"compile\", \
                 \"source\": \"fn main() {{ print {i} + 1; }}\"}}"
            )
            .unwrap();
        }
        // Let the queue drain before probing: the reader sheds *any*
        // line while the queue is full, health probes included.
        std::thread::sleep(std::time::Duration::from_millis(500));
        writeln!(stdin, "{{\"id\": 99, \"op\": \"health\"}}").unwrap();
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line {l}: {e}")))
        .collect();
    assert_eq!(responses.len(), FLOOD as usize + 1, "{stdout}");
    // The flood: every line is answered exactly once, as a compile or a
    // typed shed carrying the retry contract. With a one-slot queue and
    // sixteen requests written in one burst, at least one must shed.
    let mut served = 0;
    let mut shed = 0;
    for r in &responses[..FLOOD as usize] {
        assert_eq!(r.get("schema").and_then(Json::as_str), Some("oi.serve.v1"));
        if r.get("ok").and_then(Json::as_bool) == Some(true) {
            served += 1;
            continue;
        }
        shed += 1;
        let kind = r.get("error_kind").and_then(Json::as_str).unwrap_or("");
        assert_eq!(kind, "overloaded", "queue-full sheds are typed: {r}");
        // Reader-level sheds never reached dispatch, so they are id-less.
        assert_eq!(r.get("id"), Some(&Json::Null), "{r}");
        // The retry contract: at guarded-full, `overloaded` hints 25ms.
        assert_eq!(r.get("retry_after_ms").and_then(Json::as_i64), Some(25));
    }
    assert_eq!(served + shed, FLOOD);
    assert!(
        shed >= 1,
        "a one-slot queue must shed under a 16-line burst"
    );
    // The health probe: liveness without queueing semantics, pinned.
    let health = responses.last().unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(health.get("op").and_then(Json::as_str), Some("health"));
    assert_eq!(health.get("id").and_then(Json::as_i64), Some(99));
    let payload = health.get("payload").expect("health payload");
    assert_eq!(payload.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        payload.get("brownout_tier").and_then(Json::as_str),
        Some("guarded-full")
    );
    assert_eq!(payload.get("breaker_open").and_then(Json::as_i64), Some(0));
    assert!(payload.get("in_flight").and_then(Json::as_i64).is_some());
}

/// `oic bench loadgen` golden test: pins the `oi.load.v1` document on a
/// small deterministic replay and checks the gate passes (exit 0).
#[test]
fn loadgen_json_document_is_schema_stable() {
    use oi_support::Json;
    let out = oic()
        .args([
            "bench",
            "loadgen",
            "--requests",
            "60",
            "--sources",
            "5",
            "--seed",
            "7",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("oi.load.v1"));
    for key in [
        "requests",
        "distinct_sources",
        "sampled_sources",
        "seed",
        "zipf_s",
        "cache_bytes",
        "hits",
        "misses",
        "errors",
        "hit_rate",
        "floor_hit_rate",
        "hit_ns",
        "miss_ns",
        "hit_p50_ns",
        "hit_p99_ns",
        "miss_p50_ns",
        "miss_p99_ns",
        "speedup_hit_p99_vs_miss_p50",
        "reconciled",
        "metrics",
        "ok",
    ] {
        assert!(doc.get(key).is_some(), "oi.load.v1 missing {key}");
    }
    assert_eq!(doc.get("requests").and_then(Json::as_i64), Some(60));
    assert_eq!(doc.get("errors").and_then(Json::as_i64), Some(0));
    assert_eq!(doc.get("reconciled"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    // Every replayed request either hit or missed; misses equal the
    // distinct sources the trace actually touched.
    let hits = doc.get("hits").and_then(Json::as_i64).unwrap();
    let misses = doc.get("misses").and_then(Json::as_i64).unwrap();
    assert_eq!(hits + misses, 60);
    assert_eq!(
        Some(misses),
        doc.get("sampled_sources").and_then(Json::as_i64)
    );
    // The embedded registry export reconciles with the tallies.
    let metrics = doc.get("metrics").unwrap();
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("oi.metrics.v1")
    );
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("cache.hits"))
            .and_then(Json::as_i64),
        Some(hits)
    );

    // Flag discipline: bad values exit 2.
    let out = oic()
        .args(["bench", "loadgen", "--requests", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = oic()
        .args(["bench", "loadgen", "--zipf-s", "-1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn prof_rejects_bad_usage_with_exit_2() {
    let out = oic().args(["prof"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = oic().args(["prof", "--wat", "x.oi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let path = write_temp("prof_usage.oi", PROGRAM);
    let out = oic()
        .args(["prof", "--json", "--collapse", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    // Runtime failures (unreadable file) are exit 1, not usage errors.
    let out = oic().args(["prof", "/no/such/file.oi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // So are a directory and a file that is not UTF-8, each with its
    // typed diagnostic.
    let dir = std::env::temp_dir().join("oi-cli-tests-prof-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let binary = std::env::temp_dir().join("oi-cli-tests-prof-bin.oi");
    std::fs::write(&binary, b"fn main\xff() {}").unwrap();
    for (input, diagnostic) in [(&dir, "is a directory"), (&binary, "not valid UTF-8")] {
        let out = oic()
            .args(["prof", input.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{diagnostic}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(diagnostic), "{err}");
    }
}

/// Every command answers `--help` with its own usage on stdout and exit 0.
#[test]
fn every_command_answers_help() {
    for cmd in [
        "run", "compare", "report", "explain", "dump", "bench", "prof", "fuzz", "batch", "chaos",
        "serve", "client",
    ] {
        let out = oic().args([cmd, "--help"]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "oic {cmd} --help");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "oic {cmd} --help: {stdout}");
    }
}
