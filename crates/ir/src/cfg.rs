//! Control-flow-graph utilities over [`Method`] bodies.

use crate::program::{Method, MethodId, Program};
use std::collections::HashSet;

/// Which blocks are reachable from the entry, indexed by block index.
pub fn reachable_blocks(method: &Method) -> Vec<bool> {
    let mut seen = vec![false; method.blocks.len()];
    let mut stack = vec![method.entry()];
    while let Some(bb) = stack.pop() {
        if std::mem::replace(&mut seen[bb.index()], true) {
            continue;
        }
        for succ in method.blocks[bb].term.successors() {
            // Out-of-bounds targets are a verifier error; stay robust here.
            if method.blocks.contains_id(succ) && !seen[succ.index()] {
                stack.push(succ);
            }
        }
    }
    seen
}

/// Methods reachable from the program entry following `CallStatic`, `Send`
/// (all possible receivers by selector) and `New` (constructor) edges.
///
/// Used by the code-size model: only generated (reachable) methods count.
pub fn reachable_methods(program: &Program) -> Vec<MethodId> {
    use crate::instr::Instr;
    let mut seen: HashSet<MethodId> = HashSet::new();
    let mut stack = vec![program.entry];
    let init_sym = program.interner.get("init");
    while let Some(m) = stack.pop() {
        if !seen.insert(m) {
            continue;
        }
        for (_, _, instr) in program.methods[m].instrs() {
            match instr {
                Instr::CallStatic { method, .. } => stack.push(*method),
                Instr::Send { selector, .. } => {
                    // Without type information, any class's method with this
                    // selector is a candidate.
                    for class in program.classes.ids() {
                        if let Some(&target) = program.classes[class].methods.get(selector) {
                            stack.push(target);
                        }
                    }
                }
                Instr::New { class, .. } => {
                    if let Some(init) = init_sym.and_then(|s| program.lookup_method(*class, s)) {
                        stack.push(init);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out: Vec<_> = seen.into_iter().collect();
    out.sort_by_key(|m| m.index());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn reachable_methods_follows_calls() {
        let p = compile(
            "class A { method ping() { return 1; } }
             fn helper() { return 2; }
             fn unused() { return 3; }
             fn main() { var a = new A(); print a.ping() + helper(); }",
        )
        .unwrap();
        let reach = reachable_methods(&p);
        let ping = p.method_by_name("A", "ping").unwrap();
        let helper = p.method_by_name("$Main", "helper").unwrap();
        let unused = p.method_by_name("$Main", "unused").unwrap();
        assert!(reach.contains(&ping));
        assert!(reach.contains(&helper));
        assert!(!reach.contains(&unused));
    }
}
