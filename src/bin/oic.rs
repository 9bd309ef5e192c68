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
//! Every command scans its flags through the front all `oic` commands
//! share (`oi_bench::cli`) and answers `--help` with its own usage. `run`,
//! `compare`, `report`, `explain` and `dump` accept `--trace[=text|json]`;
//! the `OIC_TRACE` environment variable (`text`, `json`, `off`) does the
//! same without a flag. `--json` output is schema-stable (`oic.run.v1`,
//! `oic.compare.v1`, `oic.report.v1`, `oic.explain.v1`) and includes
//! per-phase wall-clock timings.
//!
//! Every optimizing command compiles through the graceful-degradation
//! ladder: panics, pipeline errors, and oracle rejections descend a tier
//! instead of crashing, and `--max-rounds N` / `--deadline-ms N` arm an
//! analysis budget whose exhaustion soundly widens the analysis (the
//! report says `degraded`) rather than failing the compile. `oic batch`
//! applies the same machinery to whole directories with per-job panic
//! isolation.

use object_inlining::{baseline_default, compile, optimize_resilient};
use oi_bench::cli::{load_source, run_fields, scan_args, usage_error};
use oi_core::ladder::LadderOutcome;
use oi_support::cli::ArgScanner;
use oi_support::trace::{self, TraceMode, Tracer};
use oi_support::{Budget, Json};
use oi_vm::{run, CheckLevel, VmConfig};
use std::process::ExitCode;
use std::rc::Rc;

const USAGE: &str =
    "usage: oic <run|compare|report|explain|dump|bench|prof|fuzz|batch|chaos|serve|client> [flags] ...\n\
    \n\
    run      execute the program and print metrics\n\
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
    `oic <command> --help` prints the command's own flags.";

/// The flags every single-file command takes; [`SHARED_USAGE`] describes
/// them.
const SHARED_FLAGS: [&str; 3] = ["--max-rounds", "--deadline-ms", "--trace"];
const SHARED_USAGE: &str = "\
    --max-rounds N / --deadline-ms N\n\
    \x20               analysis resource budget; exhaustion degrades the\n\
    \x20               analysis (sound, coarser result) instead of failing\n\
    --trace[=MODE]  stream trace events to stderr (text or json);\n\
    \x20               the OIC_TRACE environment variable does the same";

/// One single-file command: the flags it takes beyond [`SHARED_FLAGS`]
/// and its usage text (which [`SHARED_USAGE`] completes).
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    usage: &'static str,
}

const COMMANDS: [Command; 5] = [
    Command {
        name: "run",
        flags: &[
            "--inline",
            "--profile",
            "--json",
            "--checked",
            "--max-heap-words",
            "--max-instructions",
            "--max-depth",
        ],
        usage: "usage: oic run [--inline] [--profile] [--json] [--checked[=basic|full]] \
            [--max-heap-words N] [--max-instructions N] [--max-depth N] <file.oi>\n\
            \n\
            Executes the program (baseline pipeline; --inline for the\n\
            object-inlining pipeline): its output on stdout, metrics on stderr.\n\
            --json          one oic.run.v1 document on stdout\n\
            --profile       collect a per-method / per-site execution profile\n\
            --checked[=basic|full]\n\
            \x20               checked execution: validate inline-heap invariants\n\
            \x20               (findings go to stderr; any finding exits 1)\n\
            --max-heap-words N / --max-instructions N / --max-depth N\n\
            \x20               override the VM's resource limits\n",
    },
    Command {
        name: "compare",
        flags: &["--json"],
        usage: "usage: oic compare [--json] <file.oi>\n\
            \n\
            Runs both pipelines, checks their outputs match and shows the\n\
            delta (--json: one oic.compare.v1 document).\n",
    },
    Command {
        name: "report",
        flags: &["--json"],
        usage: "usage: oic report [--json] <file.oi>\n\
            \n\
            Prints per-field inlining decisions with reasons (--json: one\n\
            oic.report.v1 document).\n",
    },
    Command {
        name: "explain",
        flags: &["--json"],
        usage: "usage: oic explain [--json] <file.oi> <Class.field>\n\
            \n\
            Prints the decision provenance chain for one field (--json: one\n\
            oic.explain.v1 document).\n",
    },
    Command {
        name: "dump",
        flags: &["--inline"],
        usage: "usage: oic dump [--inline] <file.oi>\n\
            \n\
            Prints the IR (after --inline: the transformed program).\n",
    },
];

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
    // A single-file command may come after its flags, so it is the first
    // argument that names one; what precedes it must be flags.
    let Some((at, command)) = args
        .iter()
        .enumerate()
        .find_map(|(at, arg)| Some((at, COMMANDS.iter().find(|c| c.name == arg)?)))
    else {
        let scanned = scan_args(
            &args,
            USAGE,
            |flag, _| Err(format!("unknown flag `{flag}`")),
            |p| Err(format!("unknown command `{p}`")),
        );
        let code = scanned.map_or_else(|code| code, |()| usage_error(USAGE, "missing command"));
        return ExitCode::from(code);
    };
    let usage = format!("{}{SHARED_USAGE}", command.usage);
    let mut inline = false;
    let mut json = false;
    let mut trace_mode: Option<TraceMode> = None;
    let mut vm_config = VmConfig::default();
    let mut max_rounds: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut operands: Vec<String> = Vec::new();
    let mut on_flag = |flag: &str, s: &mut ArgScanner| -> Result<(), String> {
        let name = flag.split_once('=').map_or(flag, |(name, _)| name);
        if !command.flags.contains(&name) && !SHARED_FLAGS.contains(&name) {
            return Err(format!("unknown flag `{flag}`"));
        }
        match flag {
            "--inline" => inline = true,
            "--json" => json = true,
            "--profile" => vm_config.profile = true,
            "--checked" => vm_config.checked = CheckLevel::Full,
            "--trace" => trace_mode = Some(TraceMode::Text),
            "--max-heap-words" => vm_config.max_heap_words = s.positive(flag)?,
            "--max-instructions" => vm_config.max_instructions = s.positive(flag)?,
            "--max-depth" => vm_config.max_depth = s.positive(flag)? as usize,
            "--max-rounds" => max_rounds = Some(s.positive(flag)?),
            "--deadline-ms" => deadline_ms = Some(s.positive(flag)?),
            _ => match flag.split_once('=') {
                Some(("--checked", level)) => {
                    vm_config.checked = CheckLevel::parse(level).ok_or_else(|| {
                        format!("unknown check level `{level}` (expected basic or full)")
                    })?;
                }
                Some(("--trace", mode)) => {
                    trace_mode = Some(TraceMode::parse(mode).ok_or_else(|| {
                        format!("unknown trace mode `{mode}` (expected text, json, or off)")
                    })?);
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            },
        }
        Ok(())
    };
    let scanned = scan_args(&args[..at], &usage, &mut on_flag, |p| {
        Err(format!("unknown command `{p}`"))
    })
    .and_then(|()| {
        scan_args(&args[at + 1..], &usage, &mut on_flag, |p| {
            operands.push(p);
            Ok(())
        })
    });
    if let Err(code) = scanned {
        return ExitCode::from(code);
    }
    let (path, field) = match (command.name, operands.as_slice()) {
        ("explain", [path, field]) => (path, Some(field.as_str())),
        ("explain", _) => {
            let msg = "`explain` needs <file.oi> and <Class.field>";
            return ExitCode::from(usage_error(&usage, msg));
        }
        (_, [path]) => (path, None),
        (name, _) => {
            let msg = format!("`{name}` needs exactly one <file.oi>");
            return ExitCode::from(usage_error(&usage, &msg));
        }
    };
    let mode = trace_mode.unwrap_or_else(TraceMode::from_env);
    // Install a tracer even when the mode is Off: span aggregation feeds
    // the per-phase timing tables that `--json` output carries.
    let tracer = Rc::new(Tracer::for_mode(mode));
    let _guard = trace::install(tracer.clone());

    let source = match load_source(path) {
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
                eprintln!("oic: {path}: {}", e.render(&source));
                return ExitCode::FAILURE;
            }
        }
    };
    // Every optimizing command compiles once, through the ladder, under a
    // fresh analysis budget (budgets are single-use: exhaustion is sticky).
    let optimize = || {
        let o = optimize_resilient(&program, &Budget::from_limits(max_rounds, deadline_ms));
        note_tier(&o);
        o
    };

    match command.name {
        "run" => {
            let (built, report) = if inline {
                let o = optimize().optimized;
                (o.program, Some(o.report))
            } else {
                (baseline_default(&program), None)
            };
            let result = {
                let _s = trace::span("vm.run");
                run(&built, &vm_config)
            };
            match result {
                Ok(r) => {
                    if json {
                        let pipeline = if inline { "inline" } else { "baseline" };
                        let mut fields = run_fields(pipeline, &r, report.as_ref());
                        fields.insert(1, ("file", path.clone().into()));
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
                        if !json {
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
            let opt = optimize().optimized;
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
            if json {
                let j = Json::obj(vec![
                    ("schema", "oic.compare.v1".into()),
                    ("file", path.clone().into()),
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
            let opt = optimize().optimized;
            if json {
                let j = Json::obj(vec![
                    ("schema", "oic.report.v1".into()),
                    ("file", path.clone().into()),
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
            let field = field.expect("explain scans a field operand");
            let opt = optimize().optimized;
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
            if json {
                let j = Json::obj(vec![
                    ("schema", "oic.explain.v1".into()),
                    ("file", path.clone().into()),
                    ("field", field.into()),
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
            let built = if inline {
                optimize().optimized.program
            } else {
                baseline_default(&program)
            };
            print!("{}", oi_ir::printer::print_program(&built));
            ExitCode::SUCCESS
        }
        _ => unreachable!("COMMANDS names five commands"),
    }
}
