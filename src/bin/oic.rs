//! `oic` — the object-inlining compiler driver.
//!
//! ```text
//! oic run [--inline] [--profile] [--json] <file.oi>   execute and print metrics
//! oic compare [--json] <file.oi>                      run both pipelines, show the delta
//! oic report [--json] <file.oi>                       per-field inlining decisions
//! oic explain [--json] <file.oi> <Class.field>        decision provenance for one field
//! oic dump [--inline] <file.oi>                       print the (optimized) IR
//! oic prof [--json|--collapse] <file.oi>              hierarchical performance profile
//! ```
//!
//! All commands accept `--trace[=text|json]`; the `OIC_TRACE` environment
//! variable (`text`, `json`, `off`) does the same without a flag. `--json`
//! output is schema-stable (`oic.run.v1`, `oic.compare.v1`, `oic.report.v1`,
//! `oic.explain.v1`) and includes per-phase wall-clock timings.
//!
//! Every optimizing command compiles through the graceful-degradation
//! ladder: panics, pipeline errors, and oracle rejections descend a tier
//! instead of crashing, and `--max-rounds N` / `--deadline-ms N` arm an
//! analysis budget whose exhaustion soundly widens the analysis (the
//! report says `degraded`) rather than failing the compile. `oic batch`
//! applies the same machinery to whole directories with per-job panic
//! isolation.

use object_inlining::{baseline_default, compile, optimize_resilient};
use oi_core::ladder::LadderOutcome;
use oi_support::cli::{Arg, ArgScanner};
use oi_support::trace::{self, TraceMode, Tracer};
use oi_support::{Budget, Json};
use oi_vm::{run, CheckLevel, RunResult, VmConfig};
use std::process::ExitCode;
use std::rc::Rc;

const USAGE: &str =
    "usage: oic <run|compare|report|explain|dump|bench|prof|fuzz|batch|chaos|serve|client> [flags] <file.oi> [Class.field]\n\
    \n\
    run      execute the program (baseline pipeline; --inline for the\n\
    \x20        object-inlining pipeline) and print metrics\n\
    \x20        --profile  collect a per-method / per-site execution profile\n\
    \x20        --checked[=basic|full]\n\
    \x20                   checked execution: validate inline-heap invariants\n\
    \x20                   (findings go to stderr; any finding exits 1)\n\
    \x20        --max-heap-words N / --max-instructions N / --max-depth N\n\
    \x20                   override the VM's resource limits\n\
    compare  run both pipelines, check outputs match, show the delta\n\
    report   print per-field inlining decisions with reasons\n\
    explain  print the decision provenance chain for one Class.field\n\
    dump     print the IR (after --inline: the transformed program)\n\
    bench    benchmark observatory passthrough\n\
    \x20        (oic bench snapshot|compare|loadgen|tenantload|restartload|\n\
    \x20         brownoutload)\n\
    prof     hierarchical profiler: compile-stage self/total times plus\n\
    \x20        baseline-vs-inlined VM profiles (--json | --collapse)\n\
    fuzz     adversarial differential fuzzing (oic fuzz --runs N --seed S)\n\
    batch    panic-isolated fleet compilation (oic batch <dir> --deadline-ms N)\n\
    chaos    systematic fault injection against the detection lattice\n\
    \x20        (compiler faults, the service-layer matrix, and the\n\
    \x20         storage I/O fault matrix)\n\
    serve    long-lived compile server over a stdin/stdout JSON-lines\n\
    \x20        protocol with a content-addressed artifact cache and\n\
    \x20        fuel-sliced, quota-metered multi-tenant execution\n\
    \x20        (oic serve --jobs N --queue N --fuel-slice N\n\
    \x20         --max-instructions N --tenant-concurrent N\n\
    \x20         --cache-dir DIR --disk-bytes N ...; --cache-dir adds a\n\
    \x20         crash-safe persistent artifact tier with warm-restart\n\
    \x20         recovery; --brownout-target-ms / --watchdog-ms enable\n\
    \x20         adaptive overload control and wedge self-healing)\n\
    client   retrying JSON-lines client for a spawned serve child\n\
    \x20        (oic client --retries N --budget-ms N --serve-args \"...\";\n\
    \x20         request lines on stdin, honors typed retry_after_ms\n\
    \x20         hints with jittered exponential backoff)\n\
    \n\
    --json          machine-readable output (run, compare, report, explain)\n\
    --max-rounds N / --deadline-ms N\n\
    \x20              analysis resource budget; exhaustion degrades the\n\
    \x20              analysis (sound, coarser result) instead of failing\n\
    --trace[=MODE]  stream trace events to stderr (text or json);\n\
    \x20              the OIC_TRACE environment variable does the same";

struct Cli {
    command: String,
    path: String,
    field: Option<String>,
    inline: bool,
    json: bool,
    profile: bool,
    checked: Option<CheckLevel>,
    trace: Option<TraceMode>,
    max_heap_words: Option<u64>,
    max_instructions: Option<u64>,
    max_depth: Option<usize>,
    max_rounds: Option<u64>,
    deadline_ms: Option<u64>,
}

impl Cli {
    /// A fresh analysis budget from the `--max-rounds` / `--deadline-ms`
    /// flags (budgets are single-use: exhaustion is sticky).
    fn budget(&self) -> Budget {
        Budget::from_limits(self.max_rounds, self.deadline_ms)
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut command: Option<String> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut inline = false;
    let mut json = false;
    let mut profile = false;
    let mut checked: Option<CheckLevel> = None;
    let mut trace_flag: Option<TraceMode> = None;
    let mut max_heap_words: Option<u64> = None;
    let mut max_instructions: Option<u64> = None;
    let mut max_depth: Option<usize> = None;
    let mut max_rounds: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut scanner = ArgScanner::new(args.to_vec());
    while let Some(arg) = scanner.next() {
        match arg? {
            Arg::Flag { name, value: None } => match name.as_str() {
                "inline" => inline = true,
                "json" => json = true,
                "profile" => profile = true,
                "checked" => checked = Some(CheckLevel::Full),
                "trace" => trace_flag = Some(TraceMode::Text),
                "max-heap-words" => {
                    max_heap_words = Some(scanner.positive("--max-heap-words")?);
                }
                "max-instructions" => {
                    max_instructions = Some(scanner.positive("--max-instructions")?);
                }
                "max-depth" => {
                    max_depth = Some(scanner.positive("--max-depth")? as usize);
                }
                "max-rounds" => {
                    max_rounds = Some(scanner.positive("--max-rounds")?);
                }
                "deadline-ms" => {
                    deadline_ms = Some(scanner.positive("--deadline-ms")?);
                }
                _ => return Err(format!("unknown flag `--{name}`")),
            },
            Arg::Flag {
                name,
                value: Some(level),
            } if name == "checked" => {
                checked = Some(CheckLevel::parse(&level).ok_or_else(|| {
                    format!("unknown check level `{level}` (expected basic or full)")
                })?);
            }
            Arg::Flag {
                name,
                value: Some(mode),
            } if name == "trace" => {
                trace_flag = Some(TraceMode::parse(&mode).ok_or_else(|| {
                    format!("unknown trace mode `{mode}` (expected text, json, or off)")
                })?);
            }
            Arg::Flag {
                name,
                value: Some(value),
            } => return Err(format!("unknown flag `--{name}={value}`")),
            Arg::Positional(a) => {
                if command.is_none() {
                    command = Some(a);
                } else {
                    positionals.push(a);
                }
            }
        }
    }
    let command = command.ok_or("missing command")?;
    if !matches!(
        command.as_str(),
        "run" | "compare" | "report" | "explain" | "dump"
    ) {
        return Err(format!("unknown command `{command}`"));
    }
    if (max_heap_words.is_some() || max_instructions.is_some() || max_depth.is_some())
        && command != "run"
    {
        return Err("VM limit flags (`--max-heap-words`, `--max-instructions`, `--max-depth`) only apply to `run`".to_owned());
    }
    if inline && !matches!(command.as_str(), "run" | "dump") {
        return Err(format!(
            "`--inline` does not apply to `{command}` (it always runs the inlining pipeline)"
        ));
    }
    if json && command == "dump" {
        return Err("`--json` does not apply to `dump`".to_owned());
    }
    if profile && command != "run" {
        return Err("`--profile` only applies to `run`".to_owned());
    }
    if checked.is_some() && command != "run" {
        return Err(
            "`--checked` only applies to `run` (the oracle's probes are always checked)".to_owned(),
        );
    }
    let (path, field) = match command.as_str() {
        "explain" => {
            if positionals.len() != 2 {
                return Err("`explain` needs <file.oi> and <Class.field>".to_owned());
            }
            (positionals[0].clone(), Some(positionals[1].clone()))
        }
        _ => {
            if positionals.len() != 1 {
                return Err(format!("`{command}` needs exactly one <file.oi>"));
            }
            (positionals[0].clone(), None)
        }
    };
    Ok(Cli {
        command,
        path,
        field,
        inline,
        json,
        profile,
        checked,
        trace: trace_flag,
        max_heap_words,
        max_instructions,
        max_depth,
        max_rounds,
        deadline_ms,
    })
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("oic: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Reads a source file defensively, classifying the ways an argument can
/// be unusable before the compiler ever sees it: an empty path, a
/// directory, an unreadable file, or bytes that are not UTF-8. Each gets
/// a distinct diagnostic (the caller exits 2 — these are argument
/// problems, not compile or runtime failures).
fn load_source(path: &str) -> Result<String, String> {
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

/// Tells the user (on stderr, so pipelines stay clean) when a compile did
/// not land on the top tier at full precision.
fn note_tier(out: &LadderOutcome) {
    for d in &out.descents {
        eprintln!("oic: tier descent {} -> {}: {}", d.from, d.to, d.reason);
    }
    if out.optimized.report.degraded {
        eprintln!(
            "oic: analysis budget exhausted; completed with widened contours on tier `{}`",
            out.tier_name()
        );
    }
}

/// The tracer's aggregated per-phase wall-clock table as JSON.
fn phases_json(tracer: &Tracer) -> Json {
    Json::Arr(
        tracer
            .phase_profile()
            .into_iter()
            .map(|(name, st)| {
                Json::obj(vec![
                    ("name", name.into()),
                    ("count", st.count.into()),
                    ("total_us", st.total_us.into()),
                ])
            })
            .collect(),
    )
}

/// The tracer's counter totals as a JSON object.
fn counters_json(tracer: &Tracer) -> Json {
    Json::Obj(
        tracer
            .counters()
            .into_iter()
            .map(|(k, v)| (k, Json::Int(v)))
            .collect(),
    )
}

fn census_json(result: &RunResult) -> Json {
    Json::Arr(
        result
            .allocation_census
            .iter()
            .map(|(class, n)| {
                Json::obj(vec![
                    ("class", class.clone().into()),
                    ("count", (*n).into()),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The harness commands forward to their own drivers in oi-bench,
    // which parse their own flags.
    let forward: Option<fn(&[String]) -> u8> = match args.first().map(String::as_str) {
        Some("bench") => Some(oi_bench::cli::main),
        Some("fuzz") => Some(oi_bench::fuzz::cli_main),
        Some("batch") => Some(oi_bench::batch::cli_main),
        Some("chaos") => Some(oi_bench::chaos::cli_main),
        Some("prof") => Some(oi_bench::prof::cli_main),
        Some("serve") => Some(oi_bench::serve::cli_main),
        Some("client") => Some(oi_bench::client::cli_main),
        _ => None,
    };
    if let Some(cli_main) = forward {
        // `OIC_TRACE` reaches every harness. `serve`, `prof` and `bench`
        // install tracers of their own, which stack inside this one and
        // receive the events while they are installed.
        let mode = TraceMode::from_env();
        let _guard =
            (mode != TraceMode::Off).then(|| trace::install(Rc::new(Tracer::for_mode(mode))));
        return ExitCode::from(cli_main(&args[1..]));
    }
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(msg) => return usage_error(&msg),
    };
    let mode = cli.trace.unwrap_or_else(TraceMode::from_env);
    // Install a tracer even when the mode is Off: span aggregation feeds
    // the per-phase timing tables that `--json` output carries.
    let tracer = Rc::new(Tracer::for_mode(mode));
    let _guard = trace::install(tracer.clone());

    let source = match load_source(&cli.path) {
        Ok(s) => s,
        Err(msg) => {
            // Unusable inputs are *usage* errors (exit 2), with a typed
            // diagnostic naming what was wrong rather than a raw OS error.
            eprintln!("oic: {msg}");
            return ExitCode::from(2);
        }
    };
    let program = {
        let _s = trace::span("frontend.compile");
        match compile(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("oic: {}: {}", cli.path, e.render(&source));
                return ExitCode::FAILURE;
            }
        }
    };

    match cli.command.as_str() {
        "run" => {
            let (built, report) = if cli.inline {
                let o = optimize_resilient(&program, &cli.budget());
                note_tier(&o);
                (o.optimized.program, Some(o.optimized.report))
            } else {
                (baseline_default(&program), None)
            };
            let defaults = VmConfig::default();
            let vm_config = VmConfig {
                profile: cli.profile,
                checked: cli.checked.unwrap_or(defaults.checked),
                max_heap_words: cli.max_heap_words.unwrap_or(defaults.max_heap_words),
                max_instructions: cli.max_instructions.unwrap_or(defaults.max_instructions),
                max_depth: cli.max_depth.unwrap_or(defaults.max_depth),
                ..defaults
            };
            let result = {
                let _s = trace::span("vm.run");
                run(&built, &vm_config)
            };
            match result {
                Ok(r) => {
                    if cli.json {
                        let mut fields = vec![
                            ("schema", "oic.run.v1".into()),
                            ("file", cli.path.clone().into()),
                            (
                                "pipeline",
                                if cli.inline { "inline" } else { "baseline" }.into(),
                            ),
                            ("output", r.output.clone().into()),
                            ("metrics", r.metrics.to_json()),
                            ("allocation_census", census_json(&r)),
                            ("heap_census", r.heap_census.to_json()),
                        ];
                        if let Some(rep) = &report {
                            fields.push(("report", rep.to_json()));
                        }
                        if let Some(p) = &r.profile {
                            fields.push(("profile", p.to_json()));
                        }
                        if let Some(san) = &r.sanitizer {
                            fields.push(("sanitizer", san.to_json()));
                        }
                        fields.push(("phases", phases_json(&tracer)));
                        fields.push(("counters", counters_json(&tracer)));
                        println!("{}", Json::obj(fields));
                    } else {
                        print!("{}", r.output);
                        eprintln!("--- metrics ---\n{}", r.metrics);
                        if let Some(p) = &r.profile {
                            eprint!("{p}");
                        }
                    }
                    // Checked execution: findings are a failed run even
                    // though execution completed — corrupted inline state
                    // must not exit 0.
                    if let Some(san) = &r.sanitizer {
                        if !san.is_clean() {
                            for f in &san.findings {
                                eprintln!("oic: sanitizer: {f}");
                            }
                            eprintln!(
                                "oic: checked execution ({}) reported {} finding(s)",
                                san.level.name(),
                                san.total_findings
                            );
                            return ExitCode::FAILURE;
                        }
                        if !cli.json {
                            eprintln!(
                                "--- checked execution ({}) clean: {} check(s) ---",
                                san.level.name(),
                                san.checks
                            );
                        }
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("oic: runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "compare" => {
            let base = baseline_default(&program);
            let opt = {
                let o = optimize_resilient(&program, &cli.budget());
                note_tier(&o);
                o.optimized
            };
            let base_res = {
                let _s = trace::span("vm.run.baseline");
                run(&base, &VmConfig::default())
            };
            let base_run = match base_res {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("oic: baseline runtime error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let opt_res = {
                let _s = trace::span("vm.run.inlined");
                run(&opt.program, &VmConfig::default())
            };
            let opt_run = match opt_res {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("oic: inlined runtime error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if base_run.output != opt_run.output {
                eprintln!("oic: OUTPUT MISMATCH — this is a compiler bug");
                return ExitCode::FAILURE;
            }
            if cli.json {
                let j = Json::obj(vec![
                    ("schema", "oic.compare.v1".into()),
                    ("file", cli.path.clone().into()),
                    ("output", base_run.output.clone().into()),
                    ("baseline", base_run.metrics.to_json()),
                    ("inlined", opt_run.metrics.to_json()),
                    (
                        "speedup",
                        opt_run.metrics.speedup_over(&base_run.metrics).into(),
                    ),
                    ("report", opt.report.to_json()),
                    ("phases", phases_json(&tracer)),
                    ("counters", counters_json(&tracer)),
                ]);
                println!("{j}");
            } else {
                print!("{}", base_run.output);
                eprintln!("--- outputs identical ---");
                eprintln!(
                    "cycles      {:>12} -> {:>12}  ({:.2}x)",
                    base_run.metrics.cycles,
                    opt_run.metrics.cycles,
                    opt_run.metrics.speedup_over(&base_run.metrics)
                );
                eprintln!(
                    "allocations {:>12} -> {:>12}",
                    base_run.metrics.allocations, opt_run.metrics.allocations
                );
                eprintln!(
                    "heap reads  {:>12} -> {:>12}",
                    base_run.metrics.heap_reads, opt_run.metrics.heap_reads
                );
                eprintln!(
                    "cache miss  {:>12} -> {:>12}",
                    base_run.metrics.cache_misses, opt_run.metrics.cache_misses
                );
                eprintln!(
                    "fields inlined: {} (+{} array sites)",
                    opt.report.fields_inlined, opt.report.array_sites_inlined
                );
            }
            ExitCode::SUCCESS
        }
        "report" => {
            let opt = {
                let o = optimize_resilient(&program, &cli.budget());
                note_tier(&o);
                o.optimized
            };
            if cli.json {
                let j = Json::obj(vec![
                    ("schema", "oic.report.v1".into()),
                    ("file", cli.path.clone().into()),
                    ("report", opt.report.to_json()),
                    ("phases", phases_json(&tracer)),
                ]);
                println!("{j}");
            } else {
                println!(
                    "{} field(s) inlined, {} array site(s) inlined [tier: {}{}]",
                    opt.report.fields_inlined,
                    opt.report.array_sites_inlined,
                    opt.report.tier,
                    if opt.report.degraded {
                        ", degraded"
                    } else {
                        ""
                    }
                );
                for o in &opt.report.outcomes {
                    if o.inlined {
                        println!("  INLINED  {}", o.name);
                    } else if let Some(rule) = o.rule {
                        println!(
                            "  kept     {} — rule {rule} ({}): {}",
                            o.name, o.code, o.reason
                        );
                    } else {
                        println!("  kept     {} — {}", o.name, o.reason);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "explain" => {
            let field = cli
                .field
                .clone()
                .expect("parser guarantees a field for explain");
            let opt = {
                let o = optimize_resilient(&program, &cli.budget());
                note_tier(&o);
                o.optimized
            };
            let chain: Vec<_> = opt
                .report
                .provenance
                .iter()
                .filter(|s| s.field == field)
                .collect();
            let outcome = opt.report.outcomes.iter().find(|o| o.name == field);
            if chain.is_empty() && outcome.is_none() {
                eprintln!("oic: no decision recorded for `{field}` (not an object-holding field?)");
                let mut known: Vec<&str> = opt
                    .report
                    .outcomes
                    .iter()
                    .map(|o| o.name.as_str())
                    .collect();
                known.sort_unstable();
                known.dedup();
                if !known.is_empty() {
                    eprintln!("fields with decisions: {}", known.join(", "));
                }
                return ExitCode::FAILURE;
            }
            let inlined = outcome.map(|o| o.inlined).unwrap_or(false);
            if cli.json {
                let j = Json::obj(vec![
                    ("schema", "oic.explain.v1".into()),
                    ("file", cli.path.clone().into()),
                    ("field", field.clone().into()),
                    ("inlined", inlined.into()),
                    (
                        "chain",
                        Json::Arr(chain.iter().map(|s| s.to_json()).collect()),
                    ),
                ]);
                println!("{j}");
            } else {
                println!(
                    "{field}: {}",
                    if inlined {
                        "INLINED"
                    } else {
                        "kept out-of-line"
                    }
                );
                for s in &chain {
                    if s.inlined {
                        println!("  pass {}: inlined — {}", s.pass, s.detail);
                    } else {
                        println!(
                            "  pass {}: rejected by rule {} ({})",
                            s.pass,
                            s.rule.map(|r| r.to_string()).unwrap_or_else(|| "?".into()),
                            s.code
                        );
                        if !s.detail.is_empty() {
                            println!("          {}", s.detail);
                        }
                    }
                }
                if let Some(o) = outcome {
                    if !o.inlined && !o.reason.is_empty() {
                        println!("  summary: {}", o.reason);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "dump" => {
            let built = if cli.inline {
                let o = optimize_resilient(&program, &cli.budget());
                note_tier(&o);
                o.optimized.program
            } else {
                baseline_default(&program)
            };
            print!("{}", oi_ir::printer::print_program(&built));
            ExitCode::SUCCESS
        }
        _ => unreachable!("parser rejects unknown commands"),
    }
}
