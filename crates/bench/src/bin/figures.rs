//! Prints the paper's tables and figures.
//!
//! ```text
//! figures [fig14|fig15|fig16|fig17|detail|ablations|all]
//!         [--size small|default|large] [--json] [--out FILE]
//! ```
//!
//! `--json` emits the Figure 14–17 tables as one schema-stable JSON
//! document (`oi.figures.v1`) instead of text; `--out` writes it to a
//! file instead of stdout.

use oi_bench::cli::{emit, scan_args, usage_error};
use oi_bench::{parse_size, Figures};
use oi_benchmarks::BenchSize;
use std::process::ExitCode;

/// Renders one table from the measured suite.
type Render = fn(&Figures) -> String;

/// The tables by name, in `all` order.
const TABLES: [(&str, Render); 6] = [
    ("fig14", Figures::fig14),
    ("fig15", Figures::fig15),
    ("fig16", Figures::fig16),
    ("fig17", Figures::fig17),
    ("detail", Figures::fig17_detail),
    ("ablations", Figures::ablations),
];

const USAGE: &str = "usage: figures [fig14|fig15|fig16|fig17|detail|ablations|all] \
     [--size small|default|large] [--json] [--out FILE]\n\
     \n\
     Prints the paper's tables; --json emits the Figure 14-17 tables as one\n\
     oi.figures.v1 document, written to --out FILE instead of stdout.";

fn main() -> ExitCode {
    let mut which = "all".to_owned();
    let mut size = BenchSize::Default;
    let mut json = false;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scanned = scan_args(
        &args,
        USAGE,
        |flag, s| {
            match flag {
                "--size" => {
                    let v = s.value_for(flag).unwrap_or_default();
                    size = parse_size(&v)
                        .ok_or_else(|| format!("unknown size `{v}` (small|default|large)"))?;
                }
                "--json" => json = true,
                "--out" => out = Some(s.path(flag)?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
            Ok(())
        },
        |figure| {
            which = figure;
            Ok(())
        },
    );
    if let Err(code) = scanned {
        return ExitCode::from(code);
    }
    if out.is_some() && !json {
        return ExitCode::from(usage_error(
            USAGE,
            "`--out` only applies to `--json` output",
        ));
    }
    if json && which != "all" {
        return ExitCode::from(usage_error(
            USAGE,
            &format!("`--json` emits all tables in one document; drop `{which}`"),
        ));
    }
    if which != "all" && !TABLES.iter().any(|(name, _)| *name == which) {
        return ExitCode::from(usage_error(
            USAGE,
            &format!("unknown figure `{which}` (fig14|fig15|fig16|fig17|detail|ablations|all)"),
        ));
    }

    let figures = Figures::measure(size);
    if json {
        return ExitCode::from(emit(&figures.to_json().to_string(), out.as_deref(), true));
    }
    for (name, render) in TABLES {
        if which == "all" {
            println!("{}", render(&figures));
        } else if name == which {
            print!("{}", render(&figures));
        }
    }
    ExitCode::SUCCESS
}
