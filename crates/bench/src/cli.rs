//! The `oi-bench` command-line interface (also reachable as
//! `oic bench`): `snapshot` writes an `oi.bench.v1` document, `compare`
//! diffs two of them with the noise-aware gate, and the load harnesses
//! (`loadgen`, `tenantload`, `restartload`, `brownoutload`) are
//! dispatched to their modules.
//!
//! It also holds the front every `oic` command shares: `scan_args` /
//! `scan_flags` walk the arguments and answer `--help` and usage errors
//! with the command's usage, `usage_error` prints that usage with exit 2,
//! `Output` / `emit` handle `--json`, `--out` and the gate's exit code,
//! `load_source` is the one reader of `.oi` files named by an argument or
//! a request, and `run_fields` builds the `oic.run.v1` body that
//! `oic run --json` and a served `run` both answer with.
//!
//! Exit codes follow the workspace convention: `0` success (and, for
//! `compare`, no regression), `1` runtime failure or a regression, `2`
//! usage error.

use crate::snapshot::{compare, take_snapshot_with, SnapshotOptions, DEFAULT_SAMPLES};
use crate::{parse_size, size_name};
use oi_benchmarks::BenchSize;
use oi_core::EffectivenessReport;
use oi_support::cli::{Arg, ArgScanner};
use oi_support::Json;
use oi_vm::RunResult;

const SNAPSHOT_USAGE: &str = "usage: oi-bench snapshot [--size small|default|large] [--samples N] \
     [--profile] [--out FILE]\n\
     \n\
     Runs every benchmark and writes one oi.bench.v1 JSON document (stdout\n\
     by default); --profile embeds a truncated top-N execution profile per\n\
     row.";

const COMPARE_USAGE: &str = "usage: oi-bench compare OLD.json NEW.json [--threshold-pct P] \
     [--wall-advisory] [--json] [--out FILE]\n\
     \n\
     Diffs two snapshots; exits 1 when a gated metric regressed. Each\n\
     wall-clock layer (compile, baseline run, inlined run) gates\n\
     statistically (calibrated noise floors) when both snapshots carry\n\
     >= 2 samples; --wall-advisory disarms those gates for cross-machine\n\
     comparisons.";

/// The `oi-bench` help: every command's own usage text.
fn usage() -> String {
    let commands = [
        SNAPSHOT_USAGE,
        COMPARE_USAGE,
        crate::loadgen::USAGE,
        crate::tenantload::USAGE,
        crate::restartload::USAGE,
        crate::brownoutload::USAGE,
    ];
    format!(
        "usage: oi-bench <command> (also `oic bench <command>`)\n\n{}\n",
        commands.join("\n\n")
    )
}

/// Runs the CLI on pre-split arguments and returns the process exit
/// code. `oic bench ...` forwards here, so errors print program-agnostic
/// messages.
pub fn main(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("snapshot") => snapshot_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("loadgen") => crate::loadgen::cli_main(&args[1..]),
        Some("tenantload") => crate::tenantload::cli_main(&args[1..]),
        Some("restartload") => crate::restartload::cli_main(&args[1..]),
        Some("brownoutload") => crate::brownoutload::cli_main(&args[1..]),
        Some("--help") | Some("help") => {
            print!("{}", usage());
            0
        }
        Some(other) => {
            eprintln!(
                "unknown command `{other}` (snapshot|compare|loadgen|tenantload|restartload|brownoutload)"
            );
            2
        }
        None => {
            eprint!("{}", usage());
            2
        }
    }
}

/// Prints `msg` and the command's `usage` to stderr; returns exit code 2.
pub fn usage_error(usage: &str, msg: &str) -> u8 {
    eprintln!("{msg}\n\n{usage}");
    2
}

/// Walks `args` for the command whose usage text is `usage`. Each flag
/// goes to `on_flag` as written (`--name`, or `--name=value`), which
/// pulls and checks its value; each positional goes to `on_positional`.
/// `--help` prints `usage` to stdout and stops the walk with `Err(0)`; a
/// malformed token or an argument a callback rejects prints the error and
/// `usage` to stderr and stops it with `Err(2)`. `Err` holds the exit
/// code.
pub fn scan_args(
    args: &[String],
    usage: &str,
    mut on_flag: impl FnMut(&str, &mut ArgScanner) -> Result<(), String>,
    mut on_positional: impl FnMut(String) -> Result<(), String>,
) -> Result<(), u8> {
    let mut scanner = ArgScanner::new(args.to_vec());
    while let Some(arg) = scanner.next() {
        let step = match arg {
            Ok(Arg::Flag { name, value: None }) if name == "help" => {
                println!("{}", usage.trim_end());
                return Err(0);
            }
            Ok(Arg::Flag { name, value: None }) => on_flag(&format!("--{name}"), &mut scanner),
            Ok(Arg::Flag {
                name,
                value: Some(value),
            }) => on_flag(&format!("--{name}={value}"), &mut scanner),
            Ok(Arg::Positional(p)) => on_positional(p),
            Err(e) => Err(e),
        };
        step.map_err(|msg| usage_error(usage, &msg))?;
    }
    Ok(())
}

/// [`scan_args`] for a command that takes no positionals.
pub fn scan_flags(
    args: &[String],
    usage: &str,
    on_flag: impl FnMut(&str, &mut ArgScanner) -> Result<(), String>,
) -> Result<(), u8> {
    scan_args(args, usage, on_flag, |p| {
        Err(Arg::Positional(p).unexpected())
    })
}

/// `--json` and `--out FILE`, the flags every report command shares.
#[derive(Debug, Default)]
pub(crate) struct Output {
    json: bool,
    out: Option<String>,
}

impl Output {
    /// Takes `flag` when it is `--json` or `--out`; any other flag is
    /// unknown.
    pub(crate) fn flag(&mut self, flag: &str, scanner: &mut ArgScanner) -> Result<(), String> {
        match flag {
            "--json" => self.json = true,
            "--out" => self.out = Some(scanner.path(flag)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        Ok(())
    }

    /// Emits the report, `json` under `--json` and `text` otherwise (see
    /// [`emit`]).
    pub(crate) fn finish(
        &self,
        json: impl FnOnce() -> Json,
        text: impl FnOnce() -> String,
        passed: bool,
    ) -> u8 {
        let doc = if self.json {
            json().to_string()
        } else {
            text()
        };
        emit(&doc, self.out.as_deref(), passed)
    }
}

/// Writes `doc` and one newline to `out` (announced on stderr), or to
/// stdout. Returns the exit code: 1 when the write failed or the gate did
/// not pass, else 0.
pub fn emit(doc: &str, out: Option<&str>, passed: bool) -> u8 {
    let doc = doc.trim_end();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
    u8::from(!passed)
}

/// Reads a source file defensively, classifying the ways a path can be
/// unusable before the compiler ever sees it: an empty path, a directory,
/// an unreadable file, or bytes that are not UTF-8. Each gets a distinct
/// diagnostic; the caller picks the exit code or response.
pub fn load_source(path: &str) -> Result<String, String> {
    if path.is_empty() {
        return Err("empty file path (expected a .oi source file)".to_owned());
    }
    match std::fs::metadata(path) {
        Ok(meta) if meta.is_dir() => {
            return Err(format!(
                "{path}: is a directory (expected a .oi source file; \
                 directories are for `oic batch`)"
            ));
        }
        Ok(_) => {}
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    String::from_utf8(bytes).map_err(|e| {
        format!(
            "{path}: not valid UTF-8 (invalid byte at offset {}); \
             is this a binary file?",
            e.utf8_error().valid_up_to()
        )
    })
}

/// The `oic.run.v1` body of one run of the `pipeline` (`baseline` or
/// `inline`) build: schema, pipeline, output, metrics, the allocation
/// census, the heap census and, for an optimized build, its `report`.
/// Callers add their own fields to it.
pub fn run_fields(
    pipeline: &str,
    result: &RunResult,
    report: Option<&EffectivenessReport>,
) -> Vec<(&'static str, Json)> {
    let census = result
        .allocation_census
        .iter()
        .map(|(class, n)| {
            Json::obj(vec![
                ("class", class.clone().into()),
                ("count", (*n).into()),
            ])
        })
        .collect();
    let mut fields = vec![
        ("schema", "oic.run.v1".into()),
        ("pipeline", pipeline.into()),
        ("output", result.output.clone().into()),
        ("metrics", result.metrics.to_json()),
        ("allocation_census", Json::Arr(census)),
        ("heap_census", result.heap_census.to_json()),
    ];
    if let Some(report) = report {
        fields.push(("report", report.to_json()));
    }
    fields
}

fn snapshot_cmd(args: &[String]) -> u8 {
    let mut size = BenchSize::Default;
    let mut samples: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut profile = false;
    let scanned = scan_flags(args, SNAPSHOT_USAGE, |flag, s| {
        match flag {
            "--size" => {
                let v = s.value_for(flag).unwrap_or_default();
                size = parse_size(&v)
                    .ok_or_else(|| format!("unknown size `{v}` (small|default|large)"))?;
            }
            "--samples" => samples = Some(s.positive(flag)? as usize),
            "--profile" => profile = true,
            "--out" => out = Some(s.path(flag)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    let samples = samples.unwrap_or(DEFAULT_SAMPLES);

    eprintln!(
        "snapshotting {} suite ({samples} wall-clock samples per benchmark)...",
        size_name(size)
    );
    let opts = SnapshotOptions {
        profile,
        ..SnapshotOptions::default()
    };
    let doc = take_snapshot_with(size, samples, &git_rev(), &opts).to_string();
    emit(&doc, out.as_deref(), true)
}

fn compare_cmd(args: &[String]) -> u8 {
    let mut threshold: Option<f64> = None;
    let mut wall_advisory = false;
    let mut output = Output::default();
    let mut files = Vec::new();
    let scanned = scan_args(
        args,
        COMPARE_USAGE,
        |flag, s| {
            match flag {
                "--threshold-pct" => threshold = Some(s.non_negative(flag)?),
                "--wall-advisory" => wall_advisory = true,
                _ => output.flag(flag, s)?,
            }
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
    let [old_path, new_path] = files.as_slice() else {
        return usage_error(
            COMPARE_USAGE,
            "compare needs exactly two snapshot files: OLD.json NEW.json",
        );
    };

    let mut docs = Vec::new();
    for path in [old_path, new_path] {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 1;
            }
        };
        match Json::parse(&text) {
            Ok(doc) => docs.push(doc),
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                return 1;
            }
        }
    }

    match compare(&docs[0], &docs[1], threshold, wall_advisory) {
        Ok(cmp) => output.finish(|| cmp.diff, || cmp.text, !cmp.regressed),
        Err(msg) => usage_error(COMPARE_USAGE, &msg),
    }
}

/// The current git revision, for snapshot provenance. Best-effort: any
/// failure (no git, not a checkout) records `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> u8 {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        main(&args)
    }

    #[test]
    fn no_command_is_a_usage_error() {
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["wat"]), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&["--help"]), 0);
    }

    #[test]
    fn snapshot_rejects_bad_flags() {
        assert_eq!(run(&["snapshot", "--wat"]), 2);
        assert_eq!(run(&["snapshot", "--size", "huge"]), 2);
        assert_eq!(run(&["snapshot", "--samples", "0"]), 2);
        assert_eq!(run(&["snapshot", "stray"]), 2);
    }

    #[test]
    fn compare_rejects_bad_usage() {
        assert_eq!(run(&["compare"]), 2);
        assert_eq!(run(&["compare", "a.json"]), 2);
        assert_eq!(
            run(&["compare", "a.json", "b.json", "--threshold-pct", "-1"]),
            2
        );
    }

    #[test]
    fn compare_reports_unreadable_files() {
        assert_eq!(
            run(&["compare", "/no/such/old.json", "/no/such/new.json"]),
            1
        );
    }
}
