//! Property test: the IR cleanup pipeline (constructor explosion, method
//! inlining, copy propagation, store forwarding, dead object/code
//! elimination, CFG simplification) preserves observable behavior.
//!
//! These passes run on *both* sides of every paper comparison, so their
//! soundness is foundational. Random programs come from the in-repo
//! seeded PRNG, so every failure reproduces from its printed seed.

use oi_support::rng::XorShift64;

#[derive(Clone, Debug)]
enum Op {
    New(u8, i8, i8),
    Mutate(u8, i8),
    PrintField(u8),
    PrintSum(u8, u8),
    Store(u8, u8),
    Call(u8),
    Cond(u8, i8),
    Loop(u8),
    Global(u8),
    PrintGlobalField,
}

fn random_op(rng: &mut XorShift64) -> Op {
    let k = rng.below(3) as u8;
    let a = rng.range_i64(-128, 128) as i8;
    let b = rng.range_i64(-128, 128) as i8;
    match rng.below(10) {
        0 => Op::New(k, a, b),
        1 => Op::Mutate(k, a),
        2 => Op::PrintField(k),
        3 => Op::PrintSum(k, rng.below(3) as u8),
        4 => Op::Store(k, rng.below(3) as u8),
        5 => Op::Call(k),
        6 => Op::Cond(k, a),
        7 => Op::Loop(1 + rng.below(4) as u8),
        8 => Op::Global(k),
        _ => Op::PrintGlobalField,
    }
}

fn random_ops(rng: &mut XorShift64, max: usize) -> Vec<Op> {
    (0..rng.below(max)).map(|_| random_op(rng)).collect()
}

fn render(ops: &[Op]) -> String {
    use std::fmt::Write;
    let mut body = String::new();
    for op in ops {
        match op {
            Op::New(k, a, b) => {
                let _ = writeln!(body, "  o{k} = new Pair({a}, {b});");
            }
            Op::Mutate(k, v) => {
                let _ = writeln!(body, "  o{k}.a = {v};");
            }
            Op::PrintField(k) => {
                let _ = writeln!(body, "  print o{k}.a - o{k}.b;");
            }
            Op::PrintSum(a, b) => {
                let _ = writeln!(body, "  print o{a}.a + o{b}.b;");
            }
            Op::Store(a, b) => {
                let _ = writeln!(body, "  o{a}.peer = o{b};");
            }
            Op::Call(k) => {
                let _ = writeln!(body, "  print combine(o{k});");
            }
            Op::Cond(k, v) => {
                let _ = writeln!(
                    body,
                    "  if (o{k}.a < {v}) {{ o{k}.b = o{k}.b + 1; }} else {{ o{k}.b = o{k}.b - 1; }}"
                );
            }
            Op::Loop(n) => {
                let _ = writeln!(
                    body,
                    "  i = 0;\n  while (i < {n}) {{ acc = acc + o0.a; i = i + 1; }}"
                );
            }
            Op::Global(k) => {
                let _ = writeln!(body, "  G = o{k};");
            }
            Op::PrintGlobalField => {
                let _ = writeln!(body, "  if (!(G === nil)) {{ print G.a; }}");
            }
        }
    }
    format!(
        "global G;
class Pair {{ field a; field b; field peer;
  method init(x, y) {{ self.a = x; self.b = y; self.peer = nil; }}
  method sum() {{ return self.a + self.b; }}
}}
fn combine(p) {{ return p.sum() * 2 - p.a; }}
fn main() {{
  var o0 = new Pair(1, 2);
  var o1 = new Pair(3, 4);
  var o2 = new Pair(5, 6);
  var i = 0;
  var acc = 0;
  G = nil;
{body}  print acc;
  print o0.sum() + o1.sum() + o2.sum();
}}
"
    )
}

#[test]
fn optimizer_preserves_behavior() {
    for seed in 0..64u64 {
        let mut rng = XorShift64::new(seed);
        let ops = random_ops(&mut rng, 20);
        let source = render(&ops);
        let program = oi_ir::lower::compile(&source).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: bad generator: {}\n{source}",
                e.render(&source)
            )
        });
        let mut optimized = program.clone();
        oi_ir::opt::optimize(&mut optimized);
        oi_ir::verify::verify(&optimized)
            .unwrap_or_else(|e| panic!("seed {seed}: optimizer broke the IR: {e:?}\n{source}"));

        let config = oi_vm::VmConfig::default();
        let before = oi_vm::run(&program, &config).expect("unoptimized runs");
        let after = oi_vm::run(&optimized, &config).expect("optimized runs");
        assert_eq!(
            before.output, after.output,
            "seed {seed}: optimizer changed output:\n{source}"
        );
        assert!(
            after.metrics.instructions <= before.metrics.instructions * 2,
            "seed {seed}: optimizer exploded the instruction count"
        );
    }
}

#[test]
fn optimizer_is_idempotent_enough() {
    // Running the pipeline twice must still verify and agree.
    for seed in 0..64u64 {
        let mut rng = XorShift64::new(seed);
        let ops = random_ops(&mut rng, 12);
        let source = render(&ops);
        let program = oi_ir::lower::compile(&source).unwrap();
        let mut once = program.clone();
        oi_ir::opt::optimize(&mut once);
        let mut twice = once.clone();
        oi_ir::opt::optimize(&mut twice);
        oi_ir::verify::verify(&twice).unwrap();
        let config = oi_vm::VmConfig::default();
        let a = oi_vm::run(&once, &config).unwrap();
        let b = oi_vm::run(&twice, &config).unwrap();
        assert_eq!(a.output, b.output, "seed {seed}");
    }
}
