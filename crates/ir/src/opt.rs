//! Post-devirtualization optimizations.
//!
//! The paper notes (§6.2.1) that "most of the specialized methods are
//! inlined, so the cloned methods are not generated by themselves anyway" —
//! specialization does not bloat code because small statically-bound clones
//! disappear into their callers. This module provides that machinery:
//!
//! - [`inline_methods`]: splices small `CallStatic` callees into callers,
//! - [`copy_propagate`]: local copy and constant propagation,
//! - [`forward_stores`]: store-to-load forwarding on locally fresh objects
//!   (this is what lets a copied-from child allocation die),
//! - [`eliminate_dead_code`]: removes pure instructions with unused results
//!   and allocations of never-used objects with effect-free constructors,
//! - [`simplify_cfg`]: folds constant branches, merges straight-line blocks
//!   and drops unreachable ones.
//!
//! [`optimize`] runs them to a fixpoint.

use crate::cfg;
use crate::instr::{ConstValue, Instr, Terminator};
use crate::program::{Block, BlockId, Method, MethodId, Program, Temp};
use oi_support::IdxVec;
use std::collections::{HashMap, HashSet};

/// Inline `CallStatic` callees with at most this many instructions.
const INLINE_THRESHOLD: usize = 40;
/// Upper bound on inlining rounds (bounds code growth and guards against
/// mutual recursion blowup).
const MAX_INLINE_ROUNDS: usize = 4;
/// Only explode constructors with at most this many instructions.
const EXPLODE_THRESHOLD: usize = 48;

/// Runs the full cleanup pipeline over every method until nothing changes
/// (bounded by a fixed number of inlining rounds).
pub fn optimize(program: &mut Program) {
    for _ in 0..MAX_INLINE_ROUNDS {
        let mut changed = explode_constructors(program);
        changed |= inline_methods(program);
        let implicit_ctor = classes_with_implicit_ctor(program);
        for mid in program.methods.ids().collect::<Vec<_>>() {
            loop {
                let mut local = false;
                local |= copy_propagate(&mut program.methods[mid]);
                local |= forward_stores(&mut program.methods[mid], &implicit_ctor);
                local |= eliminate_dead_objects(&mut program.methods[mid], &implicit_ctor);
                local |= simplify_cfg(&mut program.methods[mid]);
                local |= eliminate_dead_code(program, mid);
                changed |= local;
                if !local {
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Method inlining
// ---------------------------------------------------------------------------

/// Inlines eligible `CallStatic` calls. Returns `true` if anything changed.
pub fn inline_methods(program: &mut Program) -> bool {
    let mut changed = false;
    let method_ids: Vec<MethodId> = program.methods.ids().collect();
    for caller in method_ids {
        // Inline one call at a time; re-scan after each splice.
        let mut budget = 32;
        while budget > 0 {
            budget -= 1;
            let Some((bb, idx, callee)) = find_inline_candidate(program, caller) else {
                break;
            };
            splice_call(program, caller, bb, idx, callee);
            changed = true;
        }
    }
    changed
}

fn find_inline_candidate(
    program: &Program,
    caller: MethodId,
) -> Option<(BlockId, usize, MethodId)> {
    let method = &program.methods[caller];
    for (bb, block) in method.blocks.iter_enumerated() {
        for (idx, instr) in block.instrs.iter().enumerate() {
            if let Instr::CallStatic { method: callee, .. } = instr {
                let callee = *callee;
                if callee == caller {
                    continue;
                }
                if program.methods[callee].instr_count() > INLINE_THRESHOLD {
                    continue;
                }
                if can_reach(program, callee, caller) {
                    continue; // would create runaway mutual-recursion growth
                }
                return Some((bb, idx, callee));
            }
        }
    }
    None
}

/// Returns `true` if `from` can transitively reach `to` via `CallStatic`.
fn can_reach(program: &Program, from: MethodId, to: MethodId) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![from];
    while let Some(m) = stack.pop() {
        if m == to {
            return true;
        }
        if !seen.insert(m) {
            continue;
        }
        for (_, _, instr) in program.methods[m].instrs() {
            if let Instr::CallStatic { method, .. } = instr {
                stack.push(*method);
            }
        }
    }
    false
}

/// Splices `callee`'s body in place of the call at `caller.blocks[bb][idx]`.
fn splice_call(program: &mut Program, caller: MethodId, bb: BlockId, idx: usize, callee: MethodId) {
    let callee_body = program.methods[callee].clone();
    let method = &mut program.methods[caller];
    let temp_offset = method.temp_count as usize;
    let block_offset = method.blocks.len();
    method.temp_count += callee_body.temp_count;

    let call = method.blocks[bb].instrs[idx].clone();
    let Instr::CallStatic {
        dst, recv, args, ..
    } = call
    else {
        panic!("splice target is not a static call");
    };

    // Split the call block: `bb` keeps instructions before the call; the
    // continuation gets the rest plus the original terminator.
    let tail: Vec<Instr> = method.blocks[bb].instrs.split_off(idx + 1);
    method.blocks[bb].instrs.pop(); // the call itself
    let original_term = std::mem::take(&mut method.blocks[bb].term);
    let cont = method.blocks.push(Block {
        instrs: tail,
        term: original_term,
    });

    // Copy callee blocks with temps and block ids offset.
    let remap_temp = |t: Temp| Temp::new(t.index() + temp_offset);
    let remap_block = |b: BlockId| BlockId::new(b.index() + block_offset + 1);
    for cb in callee_body.blocks.iter() {
        let mut block = cb.clone();
        for instr in &mut block.instrs {
            instr.map_temps(remap_temp);
        }
        block.term.map_temps(remap_temp);
        block.term.map_blocks(remap_block);
        if let Terminator::Return(t) = block.term {
            block.instrs.push(Instr::Move { dst, src: t });
            block.term = Terminator::Jump(cont);
        }
        method.blocks.push(block);
    }

    // Entry glue: bind self and parameters, then jump into the body.
    let entry_glue = &mut program.methods[caller].blocks[bb];
    entry_glue.instrs.push(Instr::Move {
        dst: remap_temp(Temp::new(0)),
        src: recv,
    });
    for (i, a) in args.iter().enumerate() {
        entry_glue.instrs.push(Instr::Move {
            dst: remap_temp(Temp::new(1 + i)),
            src: *a,
        });
    }
    entry_glue.term = Terminator::Jump(remap_block(callee_body.entry()));

    // Refresh allocation sites in the newly spliced blocks so every `new`
    // instruction keeps a program-unique site.
    let start = BlockId::new(block_offset + 1);
    let block_ids: Vec<BlockId> = program.methods[caller]
        .blocks
        .ids()
        .filter(|b| b.index() >= start.index())
        .collect();
    for b in block_ids {
        let len = program.methods[caller].blocks[b].instrs.len();
        for i in 0..len {
            let needs_site = matches!(
                program.methods[caller].blocks[b].instrs[i],
                Instr::New { .. } | Instr::NewArray { .. } | Instr::NewArrayInline { .. }
            );
            if needs_site {
                let site = program.fresh_site();
                match &mut program.methods[caller].blocks[b].instrs[i] {
                    Instr::New { site: s, .. }
                    | Instr::NewArray { site: s, .. }
                    | Instr::NewArrayInline { site: s, .. } => *s = site,
                    _ => unreachable!(),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Local copy / constant propagation
// ---------------------------------------------------------------------------

/// Per-block copy and constant propagation. Returns `true` on change.
///
/// Within a block, tracks `Move` chains and `Const` definitions; uses of a
/// copied temp are rewritten to the source while the source is not
/// redefined. Only block-local information is used, so the pass is sound
/// without SSA.
pub fn copy_propagate(method: &mut Method) -> bool {
    let mut changed = false;
    let mut facts = BlockFacts::new(method.temp_count as usize);
    for block in method.blocks.iter_mut() {
        facts.clear();
        for instr in &mut block.instrs {
            // Rewrite uses through the copy facts. `map_temps` visits the
            // dst too, and an operand equal to the dst is left alone.
            let dst = instr.dst();
            instr.map_temps(|t| {
                if Some(t) == dst {
                    return t;
                }
                match facts.copy_source(t) {
                    Some(s) => {
                        changed = true;
                        s
                    }
                    None => t,
                }
            });
            if let Some(d) = dst {
                facts.define(d);
            }
            match *instr {
                Instr::Move { dst, src } if dst != src => {
                    facts.record_copy(dst, src);
                    if let Some(c) = facts.constant(src) {
                        facts.record_const(dst, c);
                    }
                }
                Instr::Const { dst, value } => facts.record_const(dst, value),
                _ => {}
            }
        }
        // Terminator: rewrite the branch condition / return value and fold
        // constant branches.
        let mut term = std::mem::take(&mut block.term);
        term.map_temps(|t| match facts.copy_source(t) {
            Some(s) => {
                changed = true;
                s
            }
            None => t,
        });
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = term
        {
            if let Some(ConstValue::Bool(b)) = facts.constant(cond) {
                term = Terminator::Jump(if b { then_bb } else { else_bb });
                changed = true;
            }
        }
        block.term = term;
    }
    changed
}

/// Block-local copy and constant facts of [`copy_propagate`], in tables
/// indexed by temp. They are sized once per method and cleared per block
/// through `set`, the temps given a fact in that block; a temp at or past
/// the method's `temp_count` grows them.
struct BlockFacts {
    /// The temp each temp currently copies, with that source's `defs`
    /// count when the copy was made: the fact holds while it is unchanged.
    copy_of: Vec<Option<(Temp, u32)>>,
    /// The constant each temp currently holds.
    const_of: Vec<Option<ConstValue>>,
    /// How often each temp has been defined so far in the method.
    defs: Vec<u32>,
    set: Vec<Temp>,
}

impl BlockFacts {
    fn new(temps: usize) -> Self {
        Self {
            copy_of: vec![None; temps],
            const_of: vec![None; temps],
            defs: vec![0; temps],
            set: Vec::new(),
        }
    }

    fn grow(&mut self, t: Temp) {
        let len = t.index() + 1;
        if len > self.defs.len() {
            self.copy_of.resize(len, None);
            self.const_of.resize(len, None);
            self.defs.resize(len, 0);
        }
    }

    fn defs_of(&self, t: Temp) -> u32 {
        self.defs.get(t.index()).copied().unwrap_or(0)
    }

    fn copy_source(&self, t: Temp) -> Option<Temp> {
        let (src, defs) = self.copy_of.get(t.index()).copied().flatten()?;
        (self.defs_of(src) == defs).then_some(src)
    }

    fn constant(&self, t: Temp) -> Option<ConstValue> {
        self.const_of.get(t.index()).copied().flatten()
    }

    /// Kills the facts about `d` and every copy of it.
    fn define(&mut self, d: Temp) {
        self.grow(d);
        let i = d.index();
        self.copy_of[i] = None;
        self.const_of[i] = None;
        self.defs[i] += 1;
    }

    fn record_copy(&mut self, dst: Temp, src: Temp) {
        self.grow(dst);
        self.copy_of[dst.index()] = Some((src, self.defs_of(src)));
        self.set.push(dst);
    }

    fn record_const(&mut self, dst: Temp, c: ConstValue) {
        self.grow(dst);
        self.const_of[dst.index()] = Some(c);
        self.set.push(dst);
    }

    fn clear(&mut self) {
        for t in self.set.drain(..) {
            self.copy_of[t.index()] = None;
            self.const_of[t.index()] = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Store-to-load forwarding on fresh objects
// ---------------------------------------------------------------------------

/// Forwards `SetField(o, f, v)` to later `GetField(o, f)` loads within a
/// block when `o` is a raw allocation (no implicit constructor) made in the
/// same block that has not escaped. Returns `true` on change.
///
/// Together with constructor explosion and method inlining this
/// scalar-replaces non-escaping temporaries: after
/// `t = new Complex[]; init...; x = t.re` the load becomes a move and the
/// allocation dies.
pub fn forward_stores(
    method: &mut Method,
    implicit_ctor: &HashSet<crate::program::ClassId>,
) -> bool {
    let mut changed = false;
    for block in method.blocks.iter_mut() {
        // Token per fresh object; temps may alias a token through moves.
        // Interior views get a *derived* token per (object, layout) so two
        // inlined children with identical field names cannot collide.
        let mut next_token = 0u32;
        let mut token_of: HashMap<Temp, u32> = HashMap::new();
        let mut interior_token: HashMap<(u32, crate::program::LayoutId), u32> = HashMap::new();
        // (token, field) -> stored temp.
        let mut fields: HashMap<(u32, oi_support::Symbol), Temp> = HashMap::new();
        // Tokens that escaped (no further forwarding, ever).
        let mut poisoned: HashSet<u32> = HashSet::new();

        // Escaping any view of an object escapes every view: base and
        // derived interior tokens denote overlapping memory, so poisoning
        // must close over the (base, layout) -> view relation.
        fn escape(
            t: Temp,
            token_of: &HashMap<Temp, u32>,
            interior_token: &HashMap<(u32, crate::program::LayoutId), u32>,
            fields: &mut HashMap<(u32, oi_support::Symbol), Temp>,
            poisoned: &mut HashSet<u32>,
        ) {
            let Some(&tok) = token_of.get(&t) else { return };
            let mut victims = vec![tok];
            loop {
                let before = victims.len();
                for ((base, _), view) in interior_token.iter() {
                    if victims.contains(base) && !victims.contains(view) {
                        victims.push(*view);
                    }
                    if victims.contains(view) && !victims.contains(base) {
                        victims.push(*base);
                    }
                }
                if victims.len() == before {
                    break;
                }
            }
            for v in victims {
                poisoned.insert(v);
                fields.retain(|(o, _), _| *o != v);
            }
        }

        for instr in &mut block.instrs {
            // Forwarding rewrite first.
            if let Instr::GetField { dst, obj, field } = instr {
                if let Some(&tok) = token_of.get(obj) {
                    if !poisoned.contains(&tok) {
                        if let Some(&v) = fields.get(&(tok, *field)) {
                            if v != *dst {
                                *instr = Instr::Move { dst: *dst, src: v };
                                changed = true;
                            }
                        }
                    }
                }
            }

            // Escapes: the object leaks to code we cannot see, or a call
            // may mutate it.
            match instr {
                Instr::SetField { obj, src, .. } => {
                    escape(*src, &token_of, &interior_token, &mut fields, &mut poisoned);
                    let _ = obj;
                }
                Instr::ArraySet { src, .. } | Instr::SetGlobal { src, .. } => {
                    escape(*src, &token_of, &interior_token, &mut fields, &mut poisoned);
                }
                Instr::Send { recv, args, .. } | Instr::CallStatic { recv, args, .. } => {
                    escape(
                        *recv,
                        &token_of,
                        &interior_token,
                        &mut fields,
                        &mut poisoned,
                    );
                    for a in args.iter() {
                        escape(*a, &token_of, &interior_token, &mut fields, &mut poisoned);
                    }
                }
                Instr::New { args, .. } => {
                    for a in args.iter() {
                        escape(*a, &token_of, &interior_token, &mut fields, &mut poisoned);
                    }
                }
                Instr::Print { src } => {
                    escape(*src, &token_of, &interior_token, &mut fields, &mut poisoned);
                }
                _ => {}
            }

            // Record facts / track aliases, killing facts on redefinition.
            let dst = instr.dst();
            if let Some(d) = dst {
                // A redefinition drops the temp's old binding and any
                // stored-value facts naming it.
                token_of.remove(&d);
                fields.retain(|_, v| *v != d);
            }
            match instr {
                Instr::New {
                    dst, class, args, ..
                } if args.is_empty() && !implicit_ctor.contains(class) => {
                    // Raw allocation: no constructor ran, trackable.
                    token_of.insert(*dst, next_token);
                    next_token += 1;
                }
                Instr::Move { dst, src } => {
                    if let Some(&tok) = token_of.get(src) {
                        token_of.insert(*dst, tok);
                    }
                }
                // An interior reference into a fresh object views part of
                // the same memory; it gets a derived token per (base,
                // layout) so distinct children of one container stay
                // distinct even when their field names coincide.
                Instr::MakeInterior { dst, obj, layout } => {
                    if let Some(&base) = token_of.get(obj) {
                        let tok = *interior_token.entry((base, *layout)).or_insert_with(|| {
                            let t = next_token;
                            next_token += 1;
                            t
                        });
                        // The child view escapes when the base does: poison
                        // propagation is conservative (base poisoning does
                        // not retroactively poison views), so tie the view's
                        // validity to the base being unpoisoned now.
                        if !poisoned.contains(&base) {
                            token_of.insert(*dst, tok);
                        } else {
                            poisoned.insert(tok);
                        }
                    }
                }
                Instr::SetField { obj, field, src } => {
                    if let Some(&tok) = token_of.get(obj) {
                        if !poisoned.contains(&tok) {
                            fields.insert((tok, *field), *src);
                        }
                    }
                }
                _ => {}
            }
        }
        // Terminator uses (return of a fresh object) end the block anyway.
    }
    changed
}

/// Classes whose argless `new` still runs a constructor implicitly (their
/// `init` takes no parameters) — these allocations are never "raw".
pub fn classes_with_implicit_ctor(program: &Program) -> HashSet<crate::program::ClassId> {
    let Some(init_sym) = program.interner.get("init") else {
        return HashSet::new();
    };
    program
        .classes
        .ids()
        .filter(|&c| {
            program
                .lookup_method(c, init_sym)
                .is_some_and(|m| program.methods[m].param_count == 0)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Constructor explosion
// ---------------------------------------------------------------------------

/// Rewrites `dst = new C(args)` (args non-empty, small constructor) into
/// `dst = new C[]` followed by `init(dst, args)`, exposing the constructor
/// to method inlining and the allocation to scalar replacement. Returns
/// `true` on change.
pub fn explode_constructors(program: &mut Program) -> bool {
    let Some(init_sym) = program.interner.get("init") else {
        return false;
    };
    let mut changed = false;
    for mid in program.methods.ids().collect::<Vec<_>>() {
        let blocks: Vec<BlockId> = program.methods[mid].blocks.ids().collect();
        for bb in blocks {
            let mut i = 0;
            while i < program.methods[mid].blocks[bb].instrs.len() {
                let instr = &program.methods[mid].blocks[bb].instrs[i];
                if let Instr::New {
                    dst,
                    class,
                    args,
                    site,
                } = instr
                {
                    if !args.is_empty() {
                        if let Some(init) = program.lookup_method(*class, init_sym) {
                            if program.methods[init].param_count as usize == args.len()
                                && program.methods[init].instr_count() <= EXPLODE_THRESHOLD
                            {
                                let (dst, class, args, site) = (*dst, *class, args.clone(), *site);
                                let ret = Temp::new(program.methods[mid].temp_count as usize);
                                program.methods[mid].temp_count += 1;
                                let block = &mut program.methods[mid].blocks[bb];
                                block.instrs[i] = Instr::New {
                                    dst,
                                    class,
                                    args: vec![],
                                    site,
                                };
                                block.instrs.insert(
                                    i + 1,
                                    Instr::CallStatic {
                                        dst: ret,
                                        method: init,
                                        recv: dst,
                                        args,
                                    },
                                );
                                changed = true;
                                i += 1; // skip the inserted call
                            }
                        }
                    }
                }
                i += 1;
            }
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// Dead object elimination
// ---------------------------------------------------------------------------

/// Removes raw allocations whose objects are only ever stored into — all
/// uses are `SetField` in object position or internal moves — along with
/// those stores. Returns `true` on change.
///
/// This is the last step of scalar replacement: once `forward_stores` has
/// rewritten every load of the temporary, only the initializing stores
/// remain, and the whole object is unobservable.
pub fn eliminate_dead_objects(
    method: &mut Method,
    implicit_ctor: &HashSet<crate::program::ClassId>,
) -> bool {
    // Candidate groups: raw News and their move-aliases.
    let mut group_of: HashMap<Temp, usize> = HashMap::new();
    let mut group_count = 0usize;
    for (_, _, instr) in method.instrs() {
        if let Instr::New {
            dst, class, args, ..
        } = instr
        {
            if args.is_empty() && !implicit_ctor.contains(class) && !group_of.contains_key(dst) {
                group_of.insert(*dst, group_count);
                group_count += 1;
            }
        }
    }
    if group_count == 0 {
        return false;
    }
    // Close groups over moves (a few rounds suffice; bail if unstable).
    loop {
        let mut grew = false;
        for (_, _, instr) in method.instrs() {
            if let Instr::MakeInterior { dst, obj, .. } = instr {
                // The interior aliases the object; it lives and dies with
                // it.
                if let (None, Some(g)) = (group_of.get(dst).copied(), group_of.get(obj).copied()) {
                    group_of.insert(*dst, g);
                    grew = true;
                }
            }
            if let Instr::Move { dst, src } = instr {
                match (group_of.get(dst).copied(), group_of.get(src).copied()) {
                    (None, Some(g)) => {
                        group_of.insert(*dst, g);
                        grew = true;
                    }
                    (Some(g), None) => {
                        group_of.insert(*src, g);
                        grew = true;
                    }
                    (Some(a), Some(b)) if a != b => {
                        // Merge: relabel b as a.
                        for v in group_of.values_mut() {
                            if *v == b {
                                *v = a;
                            }
                        }
                        grew = true;
                    }
                    _ => {}
                }
            }
        }
        if !grew {
            break;
        }
    }

    // A group dies only if every use is benign. Multiple raw News can share
    // a group through moves; that is fine (all of them die together or not
    // at all).
    let mut bad: HashSet<usize> = HashSet::new();
    let mut uses = Vec::new();
    for (_, block) in method.blocks.iter_enumerated() {
        for instr in &block.instrs {
            uses.clear();
            instr.uses(&mut uses);
            for &u in &uses {
                let Some(&g) = group_of.get(&u) else { continue };
                let benign = match instr {
                    Instr::SetField { obj, src, .. } => *obj == u && group_of.get(src) != Some(&g),
                    Instr::Move { dst, src } => {
                        group_of.get(dst) == Some(&g) && group_of.get(src) == Some(&g)
                    }
                    Instr::MakeInterior { dst, obj, .. } => {
                        *obj == u && group_of.get(dst) == Some(&g)
                    }
                    _ => false,
                };
                if !benign {
                    bad.insert(g);
                }
            }
        }
        uses.clear();
        block.term.uses(&mut uses);
        for &u in &uses {
            if let Some(&g) = group_of.get(&u) {
                bad.insert(g);
            }
        }
    }

    let dead: HashSet<Temp> = group_of
        .iter()
        .filter(|(_, g)| !bad.contains(g))
        .map(|(t, _)| *t)
        .collect();
    if dead.is_empty() {
        return false;
    }
    let mut changed = false;
    for block in method.blocks.iter_mut() {
        block.instrs.retain(|instr| {
            let drop = match instr {
                Instr::New {
                    dst, class, args, ..
                } => args.is_empty() && !implicit_ctor.contains(class) && dead.contains(dst),
                Instr::SetField { obj, .. } => dead.contains(obj),
                Instr::Move { dst, src } => dead.contains(dst) && dead.contains(src),
                Instr::MakeInterior { dst, obj, .. } => dead.contains(dst) && dead.contains(obj),
                _ => false,
            };
            if drop {
                changed = true;
            }
            !drop
        });
    }
    changed
}

// ---------------------------------------------------------------------------
// Dead code elimination
// ---------------------------------------------------------------------------

/// Removes pure instructions whose results are unused, and `new C(...)`
/// instructions whose result is unused when `C`'s constructor is
/// effect-free. Returns `true` on change.
///
/// Each round marks the used temps, decides every removal against that
/// marking, and applies them with one `retain` per block; rounds repeat
/// while removals expose more dead values.
pub fn eliminate_dead_code(program: &mut Program, mid: MethodId) -> bool {
    let init_sym = program.interner.get("init");
    let mut used: Vec<bool> = Vec::new();
    let mut uses = Vec::new();
    let mut dead: Vec<bool> = Vec::new();
    let mut changed = false;
    loop {
        let method = &program.methods[mid];
        used.clear();
        used.resize(method.temp_count as usize, false);
        for block in method.blocks.iter() {
            for instr in &block.instrs {
                instr.uses(&mut uses);
            }
            block.term.uses(&mut uses);
        }
        for t in uses.drain(..) {
            if t.index() >= used.len() {
                used.resize(t.index() + 1, false);
            }
            used[t.index()] = true;
        }

        dead.clear();
        for block in method.blocks.iter() {
            dead.extend(block.instrs.iter().map(|instr| {
                let Some(dst) = instr.dst() else {
                    return false;
                };
                if used.get(dst.index()).copied().unwrap_or(false) {
                    return false;
                }
                instr.is_pure()
                    || matches!(instr, Instr::New { class, .. }
                        if ctor_is_effect_free(program, init_sym, *class))
            }));
        }
        if !dead.contains(&true) {
            break;
        }
        let mut dead = dead.iter();
        for block in program.methods[mid].blocks.iter_mut() {
            block
                .instrs
                .retain(|_| !*dead.next().expect("one flag per instruction"));
        }
        changed = true;
    }
    changed
}

/// Returns `true` when `class`'s constructor (if any) only initializes the
/// fresh object: every instruction is arithmetic/moves/loads or stores whose
/// target is `self`, and control flow is branch/return only. `init_sym` is
/// the program's interned `"init"`, if any.
fn ctor_is_effect_free(
    program: &Program,
    init_sym: Option<oi_support::Symbol>,
    class: crate::program::ClassId,
) -> bool {
    let Some(init_sym) = init_sym else {
        return true;
    };
    let Some(init) = program.lookup_method(class, init_sym) else {
        return true;
    };
    let method = &program.methods[init];
    let self_temp = method.self_temp();
    for block in method.blocks.iter() {
        for instr in &block.instrs {
            match instr {
                Instr::Const { .. }
                | Instr::Unary { .. }
                | Instr::Binary { .. }
                | Instr::GetField { .. }
                | Instr::ArrayGet { .. }
                | Instr::GetGlobal { .. } => {}
                Instr::Move { dst, src } => {
                    // Copying self around would defeat the self-store check.
                    if *src == self_temp || *dst == self_temp {
                        return false;
                    }
                }
                Instr::SetField { obj, .. } => {
                    if *obj != self_temp {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// CFG simplification
// ---------------------------------------------------------------------------

/// Threads jumps through empty forwarding blocks, merges single-predecessor
/// jump chains and drops unreachable blocks. Returns `true` on change.
pub fn simplify_cfg(method: &mut Method) -> bool {
    if method.blocks.len() <= 1 {
        return false;
    }
    let mut changed = thread_jumps(method);
    changed |= merge_jump_chains(method);
    changed |= compact_blocks(method);
    changed
}

/// Threads jumps to empty forwarding blocks: A -> B where B is empty and
/// just jumps to C becomes A -> C. Returns `true` on change.
///
/// Each block's landing block is resolved once: the first block of its
/// forwarding chain that is not an empty jump or, when the chain runs into
/// a cycle of empty jumps, the block at which it entered the cycle. Every
/// jump into a cycle therefore lands on one fixed block of it, which then
/// jumps to itself, so a second pass changes nothing.
fn thread_jumps(method: &mut Method) -> bool {
    let forward: Vec<Option<BlockId>> = method
        .blocks
        .iter()
        .map(|b| match (&b.instrs.is_empty(), &b.term) {
            (true, Terminator::Jump(t)) => Some(*t),
            _ => None,
        })
        .collect();
    let mut land: Vec<Option<BlockId>> = vec![None; forward.len()];
    let mut on_path = vec![false; forward.len()];
    let mut path = Vec::new();
    for start in method.blocks.ids() {
        let mut cur = start;
        let end = loop {
            if let Some(end) = land[cur.index()] {
                break end;
            }
            match forward[cur.index()] {
                Some(next) if !on_path[cur.index()] => {
                    on_path[cur.index()] = true;
                    path.push(cur);
                    cur = next;
                }
                _ => break cur,
            }
        };
        for b in path.drain(..) {
            on_path[b.index()] = false;
            land[b.index()] = Some(end);
        }
    }
    let mut changed = false;
    for block in method.blocks.iter_mut() {
        block.term.map_blocks(|b| {
            let end = land[b.index()].unwrap_or(b);
            changed |= end != b;
            end
        });
    }
    changed
}

/// Merges B into A when A ends `jump B`, B is neither A nor the entry, and
/// A is B's only predecessor. Returns `true` on change.
///
/// Predecessors are counted once, then one sweep in block order merges.
/// That makes exactly the merges, in the same order, of a loop that
/// restarts from block 0 after each merge: splicing B into A hands B's
/// out-edges to A, so no other block's count changes and B's drops to 0,
/// which leaves every block before A unmergeable.
fn merge_jump_chains(method: &mut Method) -> bool {
    let entry = method.entry();
    let mut preds = vec![0u32; method.blocks.len()];
    for block in method.blocks.iter() {
        for succ in block.term.successors() {
            preds[succ.index()] += 1;
        }
    }
    let mut changed = false;
    for a in method.blocks.ids() {
        while let Terminator::Jump(b) = method.blocks[a].term {
            if b == a || b == entry || preds[b.index()] != 1 {
                break;
            }
            let spliced = std::mem::take(&mut method.blocks[b]);
            method.blocks[a].instrs.extend(spliced.instrs);
            method.blocks[a].term = spliced.term;
            // Leave `b` as an empty unreachable block; compaction removes it.
            method.blocks[b].term = Terminator::Unterminated;
            preds[b.index()] = 0;
            changed = true;
        }
    }
    changed
}

/// Removes unreachable blocks, remapping block ids. Returns `true` on
/// change.
pub fn compact_blocks(method: &mut Method) -> bool {
    let reachable = cfg::reachable_blocks(method);
    if !reachable.contains(&false) {
        return false;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; reachable.len()];
    let mut new_blocks: IdxVec<BlockId, Block> = IdxVec::new();
    for (i, block) in std::mem::take(&mut method.blocks).into_iter().enumerate() {
        if reachable[i] {
            remap[i] = Some(new_blocks.push(block));
        }
    }
    for block in new_blocks.iter_mut() {
        block
            .term
            .map_blocks(|b| remap[b.index()].expect("a reachable block jumps to reachable ones"));
    }
    method.blocks = new_blocks;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;
    use oi_support::rng::XorShift64;

    /// The merge loop [`merge_jump_chains`] replaced: recount predecessors
    /// and restart from block 0 after every merge.
    fn merge_jump_chains_reference(method: &mut Method) -> bool {
        let mut changed = false;
        loop {
            let mut preds = vec![0usize; method.blocks.len()];
            for block in method.blocks.iter() {
                for succ in block.term.successors() {
                    preds[succ.index()] += 1;
                }
            }
            let mut merge: Option<(BlockId, BlockId)> = None;
            for (bb, block) in method.blocks.iter_enumerated() {
                if let Terminator::Jump(succ) = block.term {
                    if succ != bb && succ != method.entry() && preds[succ.index()] == 1 {
                        merge = Some((bb, succ));
                        break;
                    }
                }
            }
            let Some((a, b)) = merge else {
                return changed;
            };
            let spliced = std::mem::take(&mut method.blocks[b]);
            method.blocks[a].instrs.extend(spliced.instrs);
            method.blocks[a].term = spliced.term;
            method.blocks[b].term = Terminator::Unterminated;
            changed = true;
        }
    }

    /// A random CFG. Body blocks end in returns, jumps (to any body or
    /// chain block, to themselves, back to the entry) and branches (some
    /// with equal arms); a chain of empty forwarding blocks leads back into
    /// the body; a cycle of blocks follows that nothing jumps to. Body and
    /// cycle blocks may be empty.
    fn random_cfg(rng: &mut XorShift64) -> Method {
        let body = 1 + rng.below(10);
        let chain = rng.below(4);
        let cycle = rng.below(4);
        let mut next_temp = 1;
        let mut instrs = |rng: &mut XorShift64| -> Vec<Instr> {
            let count = if rng.chance(1, 2) {
                0
            } else {
                1 + rng.below(3)
            };
            (0..count)
                .map(|_| {
                    next_temp += 1;
                    Instr::Const {
                        dst: Temp::new(next_temp - 1),
                        value: ConstValue::Int(next_temp as i64),
                    }
                })
                .collect()
        };
        let mut blocks: IdxVec<BlockId, Block> = IdxVec::new();
        for i in 0..body {
            let any = |rng: &mut XorShift64| BlockId::new(rng.below(body + chain));
            let term = match rng.below(8) {
                0 => Terminator::Return(Temp::new(0)),
                1 => Terminator::Branch {
                    cond: Temp::new(0),
                    then_bb: any(rng),
                    else_bb: any(rng),
                },
                2 => {
                    let arm = any(rng);
                    Terminator::Branch {
                        cond: Temp::new(0),
                        then_bb: arm,
                        else_bb: arm,
                    }
                }
                3 => Terminator::Jump(BlockId::new(i)),
                4 => Terminator::Jump(BlockId::new(0)),
                _ => Terminator::Jump(any(rng)),
            };
            let instrs = instrs(rng);
            blocks.push(Block { instrs, term });
        }
        for i in 0..chain {
            let next = if i + 1 < chain {
                body + i + 1
            } else {
                rng.below(body)
            };
            blocks.push(Block {
                instrs: Vec::new(),
                term: Terminator::Jump(BlockId::new(next)),
            });
        }
        for i in 0..cycle {
            let next = BlockId::new(body + chain + (i + 1) % cycle);
            let term = if rng.chance(1, 4) {
                Terminator::Branch {
                    cond: Temp::new(0),
                    then_bb: next,
                    else_bb: BlockId::new(body + chain + rng.below(cycle)),
                }
            } else {
                Terminator::Jump(next)
            };
            let instrs = instrs(rng);
            blocks.push(Block { instrs, term });
        }
        Method {
            name: oi_support::Symbol::from_raw(0),
            class: crate::program::ClassId::new(0),
            param_count: 0,
            temp_count: next_temp as u32,
            blocks,
        }
    }

    #[test]
    fn merge_sweep_matches_restart_loop_on_random_cfgs() {
        let mut rng = XorShift64::new(0x5EED_CF61);
        let mut merged = 0;
        for case in 0..3000 {
            let m = random_cfg(&mut rng);
            // The merge step alone.
            let (mut sweep, mut reference) = (m.clone(), m.clone());
            let changed = merge_jump_chains(&mut sweep);
            assert_eq!(
                changed,
                merge_jump_chains_reference(&mut reference),
                "case {case}"
            );
            assert_eq!(
                format!("{sweep:?}"),
                format!("{reference:?}"),
                "case {case}"
            );
            merged += usize::from(changed);
            // The whole pass, against the old one: no one-block shortcut
            // and the reference merge.
            let (mut sweep, mut reference) = (m.clone(), m);
            let changed = simplify_cfg(&mut sweep);
            let reference_changed = thread_jumps(&mut reference)
                | merge_jump_chains_reference(&mut reference)
                | compact_blocks(&mut reference);
            assert_eq!(changed, reference_changed, "case {case}");
            assert_eq!(
                format!("{sweep:?}"),
                format!("{reference:?}"),
                "case {case}"
            );
        }
        assert!(merged > 500, "only {merged} of 3000 cases merged anything");
    }

    /// An entry block jumping into a cycle of `len` empty forwarding
    /// blocks: threading lands every jump into the cycle on one block of
    /// it, and a second pass finds nothing left to do.
    #[test]
    fn jump_threading_settles_on_cycles_of_empty_blocks() {
        for len in [3, 4] {
            let mut blocks: IdxVec<BlockId, Block> = IdxVec::new();
            blocks.push(Block {
                instrs: vec![Instr::Const {
                    dst: Temp::new(0),
                    value: ConstValue::Int(1),
                }],
                term: Terminator::Jump(BlockId::new(1)),
            });
            for i in 0..len {
                blocks.push(Block {
                    instrs: Vec::new(),
                    term: Terminator::Jump(BlockId::new(1 + (i + 1) % len)),
                });
            }
            let mut m = Method {
                name: oi_support::Symbol::from_raw(0),
                class: crate::program::ClassId::new(0),
                param_count: 0,
                temp_count: 1,
                blocks,
            };
            assert!(simplify_cfg(&mut m), "cycle of {len}");
            let settled = format!("{m:?}");
            assert!(!simplify_cfg(&mut m), "cycle of {len}: {settled}");
            assert_eq!(format!("{m:?}"), settled);
            // The entry now jumps to a block that jumps to itself.
            let Terminator::Jump(target) = m.blocks[m.entry()].term else {
                panic!("cycle of {len}: {settled}");
            };
            assert_eq!(m.blocks[target].term, Terminator::Jump(target));
        }
    }

    #[test]
    fn inlines_small_static_callee() {
        let mut p = compile(
            "fn add(a, b) { return a + b; }
             fn main() { print add(1, 2); }",
        )
        .unwrap();
        optimize(&mut p);
        crate::verify::verify(&p).unwrap();
        let m = &p.methods[p.entry];
        let calls = m
            .instrs()
            .filter(|(_, _, i)| matches!(i, Instr::CallStatic { .. }))
            .count();
        assert_eq!(
            calls,
            0,
            "call should be inlined:\n{}",
            crate::printer::print_method(&p, p.entry)
        );
    }

    #[test]
    fn recursion_is_not_inlined_forever() {
        let mut p = compile(
            "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             fn main() { print fact(5); }",
        )
        .unwrap();
        optimize(&mut p);
        crate::verify::verify(&p).unwrap();
        // fact still exists and still calls itself.
        let fact = p.method_by_name("$Main", "fact").unwrap();
        let self_calls = p.methods[fact]
            .instrs()
            .filter(|(_, _, i)| matches!(i, Instr::CallStatic { method, .. } if *method == fact))
            .count();
        assert!(self_calls >= 1);
    }

    /// Temps at or past `temp_count` (a verifier error) grow the per-temp
    /// tables of copy propagation and dead code elimination instead of
    /// indexing out of bounds, and change nothing about the result.
    #[test]
    fn temps_past_temp_count_grow_the_tables() {
        let source =
            "fn main() { var a = 1; var b = a; var unused = b + 2; if (true) { print b; } }";
        let mut expected = compile(source).unwrap();
        let mut p = compile(source).unwrap();
        let entry = p.entry;
        p.methods[entry].temp_count = 0;
        for q in [&mut expected, &mut p] {
            assert!(copy_propagate(&mut q.methods[entry]));
            assert!(eliminate_dead_code(q, entry));
        }
        assert_eq!(
            format!("{:?}", p.methods[entry].blocks),
            format!("{:?}", expected.methods[entry].blocks)
        );
    }

    #[test]
    fn copy_propagation_folds_constant_branch() {
        let mut p = compile("fn main() { if (true) { print 1; } else { print 2; } }").unwrap();
        let entry = p.entry;
        copy_propagate(&mut p.methods[entry]);
        let has_branch = p.methods[entry]
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { .. }));
        assert!(!has_branch, "constant branch should fold");
        simplify_cfg(&mut p.methods[entry]);
        crate::verify::verify(&p).unwrap();
    }

    #[test]
    fn dce_removes_unused_pure_values() {
        let mut p = compile("fn main() { var unused = 1 + 2; print 3; }").unwrap();
        let entry = p.entry;
        let before = p.methods[entry].instr_count();
        optimize(&mut p);
        let after = p.methods[entry].instr_count();
        assert!(after < before, "{before} -> {after}");
        crate::verify::verify(&p).unwrap();
    }

    #[test]
    fn dead_alloc_with_effect_free_ctor_is_removed() {
        let mut p = compile(
            "class P { field x; method init(a) { self.x = a; } }
             fn main() { var p = new P(1); print 2; }",
        )
        .unwrap();
        optimize(&mut p);
        let entry = p.entry;
        let news = p.methods[entry]
            .instrs()
            .filter(|(_, _, i)| matches!(i, Instr::New { .. }))
            .count();
        assert_eq!(news, 0, "dead allocation should be removed");
        crate::verify::verify(&p).unwrap();
    }

    #[test]
    fn alloc_with_printing_ctor_is_kept() {
        let mut p = compile(
            "class P { method init() { print 99; } }
             fn main() { var p = new P(); print 1; }",
        )
        .unwrap();
        optimize(&mut p);
        let entry = p.entry;
        // Either the New survives, or it was inlined — in which case the
        // print side effect must survive instead.
        let m = &p.methods[entry];
        let news = m
            .instrs()
            .filter(|(_, _, i)| matches!(i, Instr::New { .. }))
            .count();
        let prints = m
            .instrs()
            .filter(|(_, _, i)| matches!(i, Instr::Print { .. }))
            .count();
        assert!(news >= 1 || prints >= 2);
    }

    #[test]
    fn simplify_merges_blocks() {
        let mut p = compile("fn main() { if (1 < 2) { print 1; } print 2; }").unwrap();
        let entry = p.entry;
        let before = p.methods[entry].blocks.len();
        optimize(&mut p);
        let after = p.methods[entry].blocks.len();
        assert!(after <= before);
        crate::verify::verify(&p).unwrap();
    }

    #[test]
    fn optimize_preserves_verification_on_oo_program() {
        let mut p = compile(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
               method abs() { return sqrt(self.x * self.x + self.y * self.y); }
             }
             class Rect { field ll; field ur;
               method init(a, b) { self.ll = a; self.ur = b; }
               method diag() { return self.ll.abs() + self.ur.abs(); }
             }
             fn main() {
               var r = new Rect(new Point(1.0, 2.0), new Point(3.0, 4.0));
               print r.diag();
             }",
        )
        .unwrap();
        optimize(&mut p);
        crate::verify::verify(&p).unwrap();
    }

    #[test]
    fn forward_stores_enables_alloc_removal() {
        // Store then load on a constructor-less fresh object in one block.
        let mut p = compile(
            "class Cell { field v; }
             fn main() { var c = new Cell(); c.v = 41; print c.v + 1; }",
        )
        .unwrap();
        optimize(&mut p);
        let entry = p.entry;
        let m = &p.methods[entry];
        let gets = m
            .instrs()
            .filter(|(_, _, i)| matches!(i, Instr::GetField { .. }))
            .count();
        assert_eq!(
            gets,
            0,
            "load should be forwarded:\n{}",
            crate::printer::print_method(&p, entry)
        );
        crate::verify::verify(&p).unwrap();
    }
}
