//! The whole-program abstract interpretation engine.

use crate::contour::{CtxKey, MContour, MCtxId, OContour, OCtxId};
use crate::result::AnalysisResult;
use crate::types::{AbstractVal, PathSeg, Tag, TagTable, TypeElem, ValKey};
use oi_ir::{Builtin, ConstValue, Instr, LayoutId, MethodId, Program, SiteId, Temp, Terminator};
use oi_support::trace::{self, kv};
use oi_support::{Budget, BudgetDimension, IdxVec, OiError, Symbol};
use std::collections::{BTreeSet, HashMap};
use std::mem;

/// Rounds allowed to finish the fixpoint *after* the engine freezes its
/// contour set. With creation frozen the abstract domain is finite and
/// every transfer is a monotone join, so completion always converges;
/// exceeding this cap indicates a non-monotone transfer-function bug.
const COMPLETION_ROUNDS: usize = 10_000;

/// Knobs controlling analysis sensitivity.
///
/// `track_tags` toggles the object-inlining tag analysis of §4.1; Figure 16
/// compares contour counts with it on and off.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Track field tags (required for object inlining).
    pub track_tags: bool,
    /// Maximum method contours per method before widening.
    pub max_contours_per_method: usize,
    /// Maximum object contours per allocation site before widening.
    pub max_ocontours_per_site: usize,
    /// Maximum tag-path length (`MakeTag` nesting).
    pub max_tag_path: usize,
    /// Maximum tags per abstract value before `tag_top`.
    pub max_tags_per_value: usize,
    /// Safety bound on fixpoint rounds.
    pub max_rounds: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            track_tags: true,
            max_contours_per_method: 24,
            max_ocontours_per_site: 12,
            max_tag_path: 3,
            max_tags_per_value: 8,
            max_rounds: 1_000,
        }
    }
}

impl AnalysisConfig {
    /// The baseline configuration: Concert-style type inference without the
    /// object-inlining tag sensitivity.
    pub fn without_tags() -> Self {
        Self {
            track_tags: false,
            ..Self::default()
        }
    }
}

/// Runs the analysis to a fixpoint.
///
/// Exhausting `config.max_rounds` no longer fails: the engine freezes its
/// contour set (globally widening every later contour request to the
/// catch-all) and completes the fixpoint over the now-finite domain, so the
/// result is sound but flagged [`AnalysisResult::degraded`].
///
/// # Panics
///
/// Panics only if the frozen fixpoint itself fails to complete, which
/// would indicate a non-monotone transfer-function bug, not a property of
/// the input program.
pub fn analyze(program: &Program, config: &AnalysisConfig) -> AnalysisResult {
    match try_analyze(program, config) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Runs the analysis to a fixpoint with an unlimited resource [`Budget`].
///
/// # Errors
///
/// Returns [`OiError::AnalysisDivergence`] only when the frozen fixpoint
/// fails to complete (a transfer-function bug); round exhaustion degrades
/// instead of failing — see [`try_analyze_budgeted`].
pub fn try_analyze(program: &Program, config: &AnalysisConfig) -> Result<AnalysisResult, OiError> {
    let budget = Budget::unlimited();
    try_analyze_budgeted(program, config, &budget)
}

/// Runs the analysis to a fixpoint under a resource [`Budget`].
///
/// The budget is charged per interpreted abstract instruction (a round
/// skips the instructions of clean contours), per fixpoint round, and per
/// contour creation; its deadline is polled alongside. When
/// any dimension runs out — or `config.max_rounds` passes — the engine
/// *freezes*: no new contours are created (every later request lands on
/// the per-method / per-site catch-all contour, the same widening the
/// per-method caps already trigger) and the fixpoint completes over the
/// frozen, finite contour set. The completed result over-approximates the
/// unbudgeted one, so every downstream consumer (decision rules, devirt,
/// the verifier) stays sound; it is flagged via
/// [`AnalysisResult::degraded`] with the exhausted dimension in
/// [`AnalysisResult::exhausted`] for provenance.
///
/// # Errors
///
/// Returns [`OiError::AnalysisDivergence`] only when the frozen fixpoint
/// fails to complete within an internal safety cap, which indicates a
/// non-monotone transfer-function bug rather than a hostile input.
pub fn try_analyze_budgeted(
    program: &Program,
    config: &AnalysisConfig,
    budget: &Budget,
) -> Result<AnalysisResult, OiError> {
    let mut engine = Engine::new(program, config, budget);
    engine.run()?;
    Ok(engine.into_result())
}

struct Engine<'p> {
    program: &'p Program,
    config: &'p AnalysisConfig,
    budget: &'p Budget,
    /// Once set, contour creation stops and every request widens; the
    /// fixpoint then completes over the frozen, finite domain.
    frozen: bool,
    /// The budget dimension (or round cap) that forced the freeze.
    exhausted_dim: Option<BudgetDimension>,
    tags: TagTable,
    mcontours: IdxVec<MCtxId, MContour>,
    mctx_memo: HashMap<(MethodId, CtxKey), MCtxId>,
    mctx_count: HashMap<MethodId, usize>,
    widened_mctx: HashMap<MethodId, MCtxId>,
    ocontours: IdxVec<OCtxId, OContour>,
    octx_memo: HashMap<(SiteId, Option<MCtxId>), OCtxId>,
    octx_count: HashMap<SiteId, usize>,
    widened_octx: HashMap<SiteId, OCtxId>,
    /// Synthetic contours for interior references formed by `MakeInterior*`
    /// in already-transformed programs (iterative inlining).
    interior_octx: HashMap<LayoutId, OCtxId>,
    globals: Vec<AbstractVal>,
    changed: bool,
    init_sym: Option<Symbol>,
    /// Per method contour: whether an input it reads changed since its
    /// last transfer began. Only dirty contours are transferred.
    dirty: IdxVec<MCtxId, bool>,
    /// Contours that read each method contour's return value.
    ret_readers: IdxVec<MCtxId, Vec<MCtxId>>,
    /// Contours that read each object contour field.
    field_readers: HashMap<(OCtxId, Symbol), Vec<MCtxId>>,
    /// Contours that read each array contour's element summary.
    elem_readers: HashMap<OCtxId, Vec<MCtxId>>,
    /// Contours that read each global.
    global_readers: Vec<Vec<MCtxId>>,
}

/// One method a call-shaped instruction invokes, with the key of the
/// `self` it binds. A `Send` restricts the receiver to one object contour
/// per target (each receiver contour gets its own callee contour — the
/// framework's receiver splitting); `New` binds the fresh object.
struct CallTarget {
    method: MethodId,
    this: ValKey,
}

/// Records that `reader` read the input `readers` lists.
fn subscribe(readers: &mut Vec<MCtxId>, reader: MCtxId) {
    if !readers.contains(&reader) {
        readers.push(reader);
    }
}

/// Marks every contour in `readers` dirty.
fn wake(dirty: &mut IdxVec<MCtxId, bool>, readers: &[MCtxId]) {
    for &r in readers {
        dirty[r] = true;
    }
}

impl<'p> Engine<'p> {
    fn new(program: &'p Program, config: &'p AnalysisConfig, budget: &'p Budget) -> Self {
        Self {
            program,
            config,
            budget,
            frozen: false,
            exhausted_dim: None,
            tags: TagTable::new(),
            mcontours: IdxVec::new(),
            mctx_memo: HashMap::new(),
            mctx_count: HashMap::new(),
            widened_mctx: HashMap::new(),
            ocontours: IdxVec::new(),
            octx_memo: HashMap::new(),
            octx_count: HashMap::new(),
            widened_octx: HashMap::new(),
            interior_octx: HashMap::new(),
            globals: vec![AbstractVal::bottom(); program.globals.len()],
            changed: false,
            init_sym: program.interner.get("init"),
            dirty: IdxVec::new(),
            ret_readers: IdxVec::new(),
            field_readers: HashMap::new(),
            elem_readers: HashMap::new(),
            global_readers: vec![Vec::new(); program.globals.len()],
        }
    }

    fn run(&mut self) -> Result<(), OiError> {
        // Seed the entry contour; `self` of a free function is nil.
        let entry = self.mcontour_for(
            self.program.entry,
            vec![AbstractVal::fresh(TypeElem::Nil).key()],
        );
        debug_assert_eq!(entry.index(), 0);

        let mut round = 0usize;
        let mut frozen_rounds = 0usize;
        let mut transfers = 0;
        loop {
            if !self.frozen {
                if round >= self.config.max_rounds {
                    self.freeze(BudgetDimension::Rounds);
                } else if !self.budget.charge_round() {
                    self.freeze(
                        self.budget
                            .exhausted_dimension()
                            .unwrap_or(BudgetDimension::Rounds),
                    );
                }
            }
            if self.frozen {
                frozen_rounds += 1;
                if frozen_rounds > COMPLETION_ROUNDS {
                    return Err(OiError::AnalysisDivergence { rounds: round });
                }
            }
            self.changed = false;
            let mut i = 0;
            // The contour list can grow while we iterate; newly created
            // contours start dirty and are picked up in the same round. A
            // clean contour would read the inputs of its last transfer
            // again, so transferring it would change nothing.
            while i < self.mcontours.len() {
                let id = MCtxId::new(i);
                if mem::replace(&mut self.dirty[id], false) {
                    self.transfer(id);
                    transfers += 1;
                }
                i += 1;
            }
            trace::counter("analysis.rounds", 1);
            if trace::is_enabled() {
                trace::event(
                    "analysis.round",
                    vec![
                        kv("round", round),
                        kv("mcontours", self.mcontours.len()),
                        kv("ocontours", self.ocontours.len()),
                        kv("changed", self.changed),
                    ],
                );
            }
            if !self.changed {
                break;
            }
            round += 1;
        }
        trace::counter("analysis.transfers", transfers);
        Ok(())
    }

    /// Freezes the contour set: every later contour request widens to the
    /// catch-all, and the fixpoint completes over the frozen domain.
    fn freeze(&mut self, dim: BudgetDimension) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        self.exhausted_dim = Some(dim);
        trace::counter("analysis.global_widenings", 1);
        if trace::is_enabled() {
            trace::event(
                "analysis.global_widen",
                vec![
                    kv("exhausted", dim.name()),
                    kv("mcontours", self.mcontours.len()),
                    kv("ocontours", self.ocontours.len()),
                ],
            );
        }
    }

    /// Charges one contour creation against the budget; on exhaustion,
    /// freezes and reports `false` so the caller widens instead.
    fn charge_contour_or_freeze(&mut self) -> bool {
        if self.budget.charge_contour() {
            return true;
        }
        self.freeze(
            self.budget
                .exhausted_dimension()
                .unwrap_or(BudgetDimension::Contours),
        );
        false
    }

    /// `Class.selector` display name for trace events.
    fn method_label(&self, method: MethodId) -> String {
        let m = &self.program.methods[method];
        let class = self
            .program
            .interner
            .resolve(self.program.classes[m.class].name);
        format!("{}.{}", class, self.program.interner.resolve(m.name))
    }

    /// Emits the contour-creation/split event for the `nth` method contour.
    fn trace_method_contour(&self, method: MethodId, nth: usize) {
        if !trace::is_enabled() {
            return;
        }
        let label = self.method_label(method);
        if nth > 1 {
            // A second contour for the same method means distinct call
            // abstractions reached it: a call-confluence split.
            trace::event(
                "contour.split",
                vec![
                    kv("kind", "method"),
                    kv("cause", "call-confluence"),
                    kv("method", label),
                    kv("contours", nth),
                ],
            );
        } else {
            trace::event(
                "contour.new",
                vec![kv("kind", "method"), kv("method", label)],
            );
        }
    }

    /// Emits the contour-creation/split event for the `nth` object contour
    /// of an allocation site (`nth == 0` marks the widened catch-all).
    fn trace_object_contour(&self, site: SiteId, class: Option<oi_ir::ClassId>, nth: usize) {
        if !trace::is_enabled() {
            return;
        }
        let class_name = match class {
            Some(c) => self
                .program
                .interner
                .resolve(self.program.classes[c].name)
                .to_string(),
            None => "<array>".to_string(),
        };
        if nth == 0 {
            trace::event(
                "contour.widen",
                vec![
                    kv("kind", "object"),
                    kv("site", site.index()),
                    kv("class", class_name),
                ],
            );
        } else if nth > 1 {
            trace::event(
                "contour.split",
                vec![
                    kv("kind", "object"),
                    kv("cause", "creator-sensitivity"),
                    kv("site", site.index()),
                    kv("class", class_name),
                    kv("contours", nth),
                ],
            );
        } else {
            trace::event(
                "contour.new",
                vec![
                    kv("kind", "object"),
                    kv("site", site.index()),
                    kv("class", class_name),
                ],
            );
        }
    }

    fn into_result(self) -> AnalysisResult {
        // Record the contour-level call graph with the final state.
        let mut call_edges: HashMap<(MCtxId, oi_ir::BlockId, usize), Vec<MCtxId>> = HashMap::new();
        for (mctx, contour) in self.mcontours.iter_enumerated() {
            let body = &self.program.methods[contour.method];
            for (bb, idx, instr) in body.instrs() {
                let (args, targets) = self.call_targets(mctx, instr);
                // At fixpoint every callee contour exists: look them up.
                let callees: BTreeSet<MCtxId> = targets
                    .into_iter()
                    .filter_map(|t| {
                        let key = self.call_key(mctx, t.this, args);
                        self.mctx_memo
                            .get(&(t.method, key))
                            .or_else(|| self.widened_mctx.get(&t.method))
                            .copied()
                    })
                    .collect();
                if !callees.is_empty() {
                    call_edges.insert((mctx, bb, idx), callees.into_iter().collect());
                }
            }
        }
        let mut contours_of_method: HashMap<MethodId, Vec<MCtxId>> = HashMap::new();
        for (id, c) in self.mcontours.iter_enumerated() {
            contours_of_method.entry(c.method).or_default().push(id);
        }
        AnalysisResult {
            track_tags: self.config.track_tags,
            degraded: self.frozen,
            exhausted: self.exhausted_dim,
            tags: self.tags,
            mcontours: self.mcontours,
            ocontours: self.ocontours,
            contours_of_method,
            call_edges,
            globals: self.globals,
        }
    }

    /// The argument temps of the call-shaped `instr` and the methods it
    /// invokes from contour `mctx` (none for other instructions). `exec`
    /// and the call graph share this enumeration. Each target's `self` key
    /// is read here, before any of the calls runs; the argument keys are
    /// read when each call is made.
    fn call_targets<'i>(&self, mctx: MCtxId, instr: &'i Instr) -> (&'i [Temp], Vec<CallTarget>) {
        let mut out = Vec::new();
        match instr {
            Instr::Send {
                recv,
                selector,
                args,
                ..
            } => {
                let recv = &self.mcontours[mctx].frame[recv.index()];
                for oc in recv.object_contours() {
                    let Some(class) = self.ocontours[oc].class else {
                        continue;
                    };
                    let Some(method) = self.program.lookup_method(class, *selector) else {
                        continue;
                    };
                    // A call with the wrong argument count would trap at
                    // runtime.
                    if self.program.methods[method].param_count as usize == args.len() {
                        out.push(CallTarget {
                            method,
                            this: ValKey {
                                types: vec![TypeElem::Obj(oc)],
                                tags: recv.tags.iter().copied().collect(),
                                untagged: recv.untagged,
                                tag_top: recv.tag_top,
                            },
                        });
                    }
                }
                (args, out)
            }
            Instr::CallStatic {
                method, recv, args, ..
            } => {
                out.push(CallTarget {
                    method: *method,
                    this: self.mcontours[mctx].frame[recv.index()].key(),
                });
                (args, out)
            }
            Instr::New {
                class, args, site, ..
            } => {
                let init = self
                    .init_sym
                    .and_then(|s| self.program.lookup_method(*class, s));
                // The raw-allocation form (empty args, constructor invoked
                // explicitly) has no implicit init call.
                let Some(init) = init
                    .filter(|&init| self.program.methods[init].param_count as usize == args.len())
                else {
                    return (args, out);
                };
                // The object contour `ocontour_for` gives this allocation.
                let oc = self
                    .octx_memo
                    .get(&(*site, Some(mctx)))
                    .or_else(|| self.widened_octx.get(site));
                if let Some(&oc) = oc {
                    out.push(CallTarget {
                        method: init,
                        this: AbstractVal::fresh(TypeElem::Obj(oc)).key(),
                    });
                }
                (args, out)
            }
            _ => (&[], out),
        }
    }

    /// The context key of a call from contour `mctx`: the key of `self`,
    /// then those of the arguments, read straight from the caller's frame.
    fn call_key(&self, mctx: MCtxId, this: ValKey, args: &[Temp]) -> CtxKey {
        let frame = &self.mcontours[mctx].frame;
        let mut key = Vec::with_capacity(args.len() + 1);
        key.push(this);
        key.extend(args.iter().map(|a| frame[a.index()].key()));
        key
    }

    /// Finds or creates the contour of `method` for the call abstraction
    /// `key`, joining the abstraction into its frame.
    fn mcontour_for(&mut self, method: MethodId, key: CtxKey) -> MCtxId {
        let probe = (method, key);
        if let Some(&id) = self.mctx_memo.get(&probe) {
            // The key is lossless and was bound when the contour was
            // made, so the frame already holds these values.
            return id;
        }
        let (_, key) = probe;
        let id = if let Some(&w) = self.widened_mctx.get(&method) {
            w
        } else {
            let count = *self.mctx_count.get(&method).unwrap_or(&0);
            if !self.frozen
                && count < self.config.max_contours_per_method
                && self.charge_contour_or_freeze()
            {
                let nth = count + 1;
                self.mctx_count.insert(method, nth);
                let id = self.push_mcontour(method, key.clone(), false);
                self.mctx_memo.insert((method, key.clone()), id);
                trace::counter("analysis.mcontours", 1);
                if nth > 1 {
                    trace::counter("analysis.mcontour_splits", 1);
                }
                self.trace_method_contour(method, nth);
                id
            } else {
                // Widen: one catch-all contour absorbs everything else.
                let id = self.push_mcontour(method, vec![], true);
                self.widened_mctx.insert(method, id);
                trace::counter("analysis.mcontour_widenings", 1);
                if trace::is_enabled() {
                    trace::event(
                        "contour.widen",
                        vec![
                            kv("kind", "method"),
                            kv("method", self.method_label(method)),
                        ],
                    );
                }
                id
            }
        };
        // Bind the abstraction into the callee frame (monotone for the
        // widened contour).
        let mut changed = false;
        for (slot, k) in self.mcontours[id].frame.iter_mut().zip(&key) {
            changed |= slot.join_key(k);
        }
        if changed {
            self.frame_changed(id);
        }
        id
    }

    /// Appends a new, dirty method contour.
    fn push_mcontour(&mut self, method: MethodId, key: CtxKey, widened: bool) -> MCtxId {
        let temp_count = self.program.methods[method].temp_count as usize;
        let id = self
            .mcontours
            .push(MContour::new(method, key, temp_count, widened));
        self.dirty.push(true);
        self.ret_readers.push(Vec::new());
        self.changed = true;
        id
    }

    /// Finds or creates the object contour for an allocation.
    fn ocontour_for(
        &mut self,
        site: SiteId,
        class: Option<oi_ir::ClassId>,
        creator: MCtxId,
    ) -> OCtxId {
        if let Some(&id) = self.octx_memo.get(&(site, Some(creator))) {
            return id;
        }
        if let Some(&w) = self.widened_octx.get(&site) {
            return w;
        }
        let count = *self.octx_count.get(&site).unwrap_or(&0);
        if !self.frozen
            && count < self.config.max_ocontours_per_site
            && self.charge_contour_or_freeze()
        {
            let nth = count + 1;
            self.octx_count.insert(site, nth);
            let contour = match class {
                Some(c) => OContour::instance(site, c, Some(creator)),
                None => OContour::array(site, Some(creator)),
            };
            let id = self.ocontours.push(contour);
            self.octx_memo.insert((site, Some(creator)), id);
            self.changed = true;
            trace::counter("analysis.ocontours", 1);
            if nth > 1 {
                trace::counter("analysis.ocontour_splits", 1);
            }
            self.trace_object_contour(site, class, nth);
            id
        } else {
            let contour = match class {
                Some(c) => OContour::instance(site, c, None),
                None => OContour::array(site, None),
            };
            let id = self.ocontours.push(contour);
            self.widened_octx.insert(site, id);
            self.changed = true;
            trace::counter("analysis.ocontour_widenings", 1);
            self.trace_object_contour(site, class, 0);
            id
        }
    }

    /// Synthetic object contour standing for interior references of a
    /// layout (needed when re-analyzing an already-transformed program).
    fn interior_contour(&mut self, layout: LayoutId) -> OCtxId {
        if let Some(&id) = self.interior_octx.get(&layout) {
            return id;
        }
        let child = self.program.layouts[layout].child_class;
        // Synthetic site: interior children were never allocated.
        let id = self.ocontours.push(OContour::instance(
            SiteId::new(u32::MAX as usize),
            child,
            None,
        ));
        self.interior_octx.insert(layout, id);
        self.changed = true;
        id
    }

    // -- transfer -------------------------------------------------------------

    fn transfer(&mut self, mctx: MCtxId) {
        let program = self.program;
        let body = &program.methods[self.mcontours[mctx].method];
        for block in body.blocks.iter() {
            for instr in &block.instrs {
                self.exec(mctx, instr);
            }
            if let Terminator::Return(t) = block.term {
                let c = &mut self.mcontours[mctx];
                if c.ret.join(&c.frame[t.index()]) {
                    self.changed = true;
                    wake(&mut self.dirty, &self.ret_readers[mctx]);
                }
            }
        }
    }

    /// Notes a change to the frame of `mctx`, which only `mctx` reads.
    fn frame_changed(&mut self, mctx: MCtxId) {
        self.changed = true;
        self.dirty[mctx] = true;
    }

    fn join_temp(&mut self, mctx: MCtxId, t: Temp, v: &AbstractVal) {
        if self.mcontours[mctx].frame[t.index()].join(v) {
            self.frame_changed(mctx);
        }
    }

    fn join_temp_fresh(&mut self, mctx: MCtxId, t: Temp, ty: TypeElem) {
        if self.mcontours[mctx].frame[t.index()].join_fresh(ty) {
            self.frame_changed(mctx);
        }
    }

    /// Joins one frame slot into another of the same frame.
    fn join_within(&mut self, mctx: MCtxId, dst: Temp, src: Temp) {
        let (dst, src) = (dst.index(), src.index());
        let frame = &mut self.mcontours[mctx].frame;
        let changed = match dst.cmp(&src) {
            std::cmp::Ordering::Equal => false,
            std::cmp::Ordering::Less => {
                let (lo, hi) = frame.split_at_mut(src);
                lo[dst].join(&hi[0])
            }
            std::cmp::Ordering::Greater => {
                let (lo, hi) = frame.split_at_mut(dst);
                hi[0].join(&lo[src])
            }
        };
        if changed {
            self.frame_changed(mctx);
        }
    }

    /// Runs the calls of a call-shaped instruction, joining each callee's
    /// return value into `dst` when there is one.
    fn exec_call(&mut self, mctx: MCtxId, instr: &Instr, dst: Option<Temp>) {
        let (args, targets) = self.call_targets(mctx, instr);
        for target in targets {
            let key = self.call_key(mctx, target.this, args);
            let callee = self.mcontour_for(target.method, key);
            if let Some(dst) = dst {
                subscribe(&mut self.ret_readers[callee], mctx);
                // `callee` may be `mctx` itself: take the return value out
                // of its contour while joining it.
                let ret = mem::take(&mut self.mcontours[callee].ret);
                self.join_temp(mctx, dst, &ret);
                self.mcontours[callee].ret = ret;
            }
        }
    }

    fn exec(&mut self, mctx: MCtxId, instr: &Instr) {
        // One budget step per abstract instruction; exhaustion (or a passed
        // deadline, polled inside) freezes the contour set mid-round. Joins
        // keep flowing afterwards, so the frozen fixpoint still completes.
        if !self.frozen && !self.budget.charge_step() {
            self.freeze(
                self.budget
                    .exhausted_dimension()
                    .unwrap_or(BudgetDimension::Steps),
            );
        }
        match instr {
            Instr::Const { dst, value } => {
                let ty = match value {
                    ConstValue::Int(_) => TypeElem::Int,
                    ConstValue::Float(_) => TypeElem::Float,
                    ConstValue::Bool(_) => TypeElem::Bool,
                    ConstValue::Nil => TypeElem::Nil,
                    ConstValue::Str(_) => TypeElem::Str,
                };
                self.join_temp_fresh(mctx, *dst, ty);
            }
            Instr::Move { dst, src } => self.join_within(mctx, *dst, *src),
            Instr::Unary { dst, op, src } => match op {
                oi_ir::UnOp::Not => self.join_temp_fresh(mctx, *dst, TypeElem::Bool),
                oi_ir::UnOp::Neg => {
                    let types = &self.mcontours[mctx].frame[src.index()].types;
                    let (int, float) = (
                        types.contains(&TypeElem::Int),
                        types.contains(&TypeElem::Float),
                    );
                    if int {
                        self.join_temp_fresh(mctx, *dst, TypeElem::Int);
                    }
                    if float {
                        self.join_temp_fresh(mctx, *dst, TypeElem::Float);
                    }
                }
            },
            Instr::Binary { dst, op, lhs, rhs } => {
                if op.is_comparison() {
                    self.join_temp_fresh(mctx, *dst, TypeElem::Bool);
                } else {
                    let frame = &self.mcontours[mctx].frame;
                    let (l, r) = (&frame[lhs.index()].types, &frame[rhs.index()].types);
                    let has_float = l.contains(&TypeElem::Float) || r.contains(&TypeElem::Float);
                    let has_int = l.contains(&TypeElem::Int) && r.contains(&TypeElem::Int);
                    if has_float {
                        self.join_temp_fresh(mctx, *dst, TypeElem::Float);
                    }
                    if has_int {
                        self.join_temp_fresh(mctx, *dst, TypeElem::Int);
                    }
                }
            }
            Instr::New {
                dst, class, site, ..
            } => {
                let oc = self.ocontour_for(*site, Some(*class), mctx);
                self.join_temp_fresh(mctx, *dst, TypeElem::Obj(oc));
                self.exec_call(mctx, instr, None);
            }
            Instr::NewArray { dst, site, .. } => {
                let oc = self.ocontour_for(*site, None, mctx);
                self.join_temp_fresh(mctx, *dst, TypeElem::Arr(oc));
            }
            Instr::NewArrayInline { dst, site, .. } => {
                let oc = self.ocontour_for(*site, None, mctx);
                self.join_temp_fresh(mctx, *dst, TypeElem::Arr(oc));
            }
            Instr::GetField { dst, obj, field } => {
                let objv = &self.mcontours[mctx].frame[obj.index()];
                let mut result = AbstractVal::bottom();
                for oc in objv.object_contours() {
                    subscribe(self.field_readers.entry((oc, *field)).or_default(), mctx);
                    if let Some(sum) = self.ocontours[oc].field(*field) {
                        // The loaded value's *types* come from the summary;
                        // its provenance is the field itself.
                        for &t in &sum.types {
                            result.types.insert(t);
                        }
                    }
                    if self.config.track_tags {
                        let tag = self.tags.intern(Tag {
                            origin: oc,
                            path: vec![PathSeg::Field(*field)],
                        });
                        result.tags.insert(tag);
                    }
                }
                if self.config.track_tags {
                    // MakeTag transitivity: loads through tagged bases get
                    // extended tags (bounded by max_tag_path).
                    for &t in &objv.tags {
                        let tag = self.tags.resolve(t).clone();
                        if tag.path.len() < self.config.max_tag_path {
                            let ext = self.tags.intern(tag.extend(PathSeg::Field(*field)));
                            result.tags.insert(ext);
                        } else {
                            result.tag_top = true;
                        }
                    }
                    if objv.tag_top {
                        result.tag_top = true;
                    }
                    if result.tags.len() > self.config.max_tags_per_value {
                        result.tags.clear();
                        result.tag_top = true;
                        trace::counter("analysis.tag_overflows", 1);
                        if trace::is_enabled() {
                            let name = self.program.interner.resolve(*field);
                            trace::event(
                                "tag.overflow",
                                vec![kv("cause", "field-confluence"), kv("field", name)],
                            );
                        }
                    }
                }
                self.join_temp(mctx, *dst, &result);
            }
            Instr::SetField { obj, field, src } => {
                let frame = &self.mcontours[mctx].frame;
                let srcv = &frame[src.index()];
                for oc in frame[obj.index()].object_contours() {
                    if self.ocontours[oc].field_mut(*field).join(srcv) {
                        self.changed = true;
                        if let Some(readers) = self.field_readers.get(&(oc, *field)) {
                            wake(&mut self.dirty, readers);
                        }
                    }
                }
            }
            Instr::ArrayGet { dst, arr, .. } => {
                let arrv = &self.mcontours[mctx].frame[arr.index()];
                let mut result = AbstractVal::bottom();
                for oc in arrv.array_contours() {
                    subscribe(self.elem_readers.entry(oc).or_default(), mctx);
                    for &t in &self.ocontours[oc].elem.types {
                        result.types.insert(t);
                    }
                    if self.config.track_tags {
                        let tag = self.tags.intern(Tag {
                            origin: oc,
                            path: vec![PathSeg::Elem],
                        });
                        result.tags.insert(tag);
                    }
                }
                if self.config.track_tags {
                    for &t in &arrv.tags {
                        let tag = self.tags.resolve(t).clone();
                        if tag.path.len() < self.config.max_tag_path {
                            let ext = self.tags.intern(tag.extend(PathSeg::Elem));
                            result.tags.insert(ext);
                        } else {
                            result.tag_top = true;
                        }
                    }
                    if arrv.tag_top {
                        result.tag_top = true;
                    }
                    if result.tags.len() > self.config.max_tags_per_value {
                        result.tags.clear();
                        result.tag_top = true;
                        trace::counter("analysis.tag_overflows", 1);
                        if trace::is_enabled() {
                            trace::event(
                                "tag.overflow",
                                vec![kv("cause", "field-confluence"), kv("at", "array-element")],
                            );
                        }
                    }
                }
                self.join_temp(mctx, *dst, &result);
            }
            Instr::ArraySet { arr, src, .. } => {
                let frame = &self.mcontours[mctx].frame;
                let srcv = &frame[src.index()];
                for oc in frame[arr.index()].array_contours() {
                    if self.ocontours[oc].elem.join(srcv) {
                        self.changed = true;
                        if let Some(readers) = self.elem_readers.get(&oc) {
                            wake(&mut self.dirty, readers);
                        }
                    }
                }
            }
            Instr::GetGlobal { dst, global } => {
                // Values loaded from globals are NoField (globals are not
                // object fields) — this deliberately makes global-roundtrips
                // ambiguous at uses, which is what rejects the Silo event
                // list (§6.1).
                subscribe(&mut self.global_readers[global.index()], mctx);
                let mut v = self.globals[global.index()].clone();
                v.tags.clear();
                v.tag_top = false;
                v.untagged = true;
                self.join_temp(mctx, *dst, &v);
            }
            Instr::SetGlobal { global, src } => {
                let srcv = &self.mcontours[mctx].frame[src.index()];
                if self.globals[global.index()].join(srcv) {
                    self.changed = true;
                    wake(&mut self.dirty, &self.global_readers[global.index()]);
                }
            }
            Instr::Send { dst, .. } | Instr::CallStatic { dst, .. } => {
                self.exec_call(mctx, instr, Some(*dst));
            }
            Instr::CallBuiltin { dst, builtin, .. } => {
                let ty = match builtin {
                    Builtin::Sqrt | Builtin::ToFloat => TypeElem::Float,
                    Builtin::Len | Builtin::ToInt => TypeElem::Int,
                };
                self.join_temp_fresh(mctx, *dst, ty);
            }
            Instr::MakeInterior { dst, layout, .. } => {
                let oc = self.interior_contour(*layout);
                self.join_temp_fresh(mctx, *dst, TypeElem::Obj(oc));
            }
            Instr::MakeInteriorElem { dst, layout, .. } => {
                let oc = self.interior_contour(*layout);
                self.join_temp_fresh(mctx, *dst, TypeElem::Obj(oc));
            }
            Instr::Print { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_ir::lower::compile;

    fn analyze_src(src: &str) -> (Program, AnalysisResult) {
        let p = compile(src).unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        (p, r)
    }

    #[test]
    fn infers_concrete_types_through_calls() {
        let (p, r) = analyze_src(
            "fn id(x) { return x; }
             fn main() { print id(1); print id(2.0); }",
        );
        let id = p.method_by_name("$Main", "id").unwrap();
        // Two argument abstractions (int vs float) → two contours.
        assert_eq!(r.contours_of_method[&id].len(), 2);
        for &c in &r.contours_of_method[&id] {
            // Each contour is monomorphic in its argument.
            let v = &r.mcontours[c].frame[1];
            assert_eq!(v.types.len(), 1, "contour should be monomorphic: {v:?}");
        }
    }

    #[test]
    fn object_contours_per_site() {
        let (p, r) = analyze_src(
            "class P { field v; method init(a) { self.v = a; } }
             fn main() { var a = new P(1); var b = new P(2.0); print a.v; print b.v; }",
        );
        let _ = p;
        // Two allocation sites → two object contours.
        let instance_contours = r.ocontours.iter().filter(|o| !o.is_array()).count();
        assert_eq!(instance_contours, 2);
        // Each has a precise field type.
        for o in r.ocontours.iter() {
            if let Some(v) = o.fields.values().next() {
                assert_eq!(v.types.len(), 1);
            }
        }
    }

    #[test]
    fn field_loads_carry_tags() {
        let (p, r) = analyze_src(
            "class R { field ll; method init(a) { self.ll = a; } }
             class P { field x; method init(a) { self.x = a; } }
             fn main() { var r = new R(new P(1)); print r.ll.x; }",
        );
        let main = p.entry;
        let c = r.contours_of_method[&main][0];
        // Some temp in main carries a direct `ll` tag.
        let ll = p.interner.get("ll").unwrap();
        let has_ll_tag = r.mcontours[c].frame.iter().any(|v| {
            v.tags.iter().any(
                |&t| matches!(r.tags.resolve(t).path.as_slice(), [PathSeg::Field(f)] if *f == ll),
            )
        });
        assert!(has_ll_tag, "a value loaded from `ll` must carry its tag");
    }

    #[test]
    fn tags_disabled_in_baseline_config() {
        let p = compile(
            "class R { field ll; method init(a) { self.ll = a; } }
             class P { field x; method init(a) { self.x = a; } }
             fn main() { var r = new R(new P(1)); print r.ll.x; }",
        )
        .unwrap();
        let r = analyze(&p, &AnalysisConfig::without_tags());
        assert!(r.tags.is_empty());
    }

    #[test]
    fn polymorphic_container_splits_by_creator() {
        // The paper's do_rectangle situation: one call with Point, one with
        // Point3D. Creator sensitivity must keep the two Rectangle contours'
        // field types distinct.
        let (p, r) = analyze_src(
            "class Point { field x; method init(a) { self.x = a; } }
             class Point3D : Point { field z; method init3(a, b) { self.x = a; self.z = b; } }
             class Rect { field ll; method init(a) { self.ll = a; } }
             fn mk(p) { return new Rect(p); }
             fn main() {
               var p1 = new Point(1.0);
               var p3 = new Point3D(2.0);
               var r1 = mk(p1);
               var r2 = mk(p3);
               print r1.ll.x; print r2.ll.x;
             }",
        );
        let rect = p.class_by_name("Rect").unwrap();
        let rect_contours: Vec<_> = r
            .ocontours
            .iter()
            .filter(|o| o.class == Some(rect))
            .collect();
        assert_eq!(
            rect_contours.len(),
            2,
            "mk's two contours give two Rect contours"
        );
        let ll = p.interner.get("ll").unwrap();
        for o in rect_contours {
            let v = o.field(ll).unwrap();
            assert_eq!(
                v.types.len(),
                1,
                "each Rect contour has a precise ll type: {v:?}"
            );
        }
    }

    #[test]
    fn global_roundtrip_strips_tags() {
        let (p, r) = analyze_src(
            "global G;
             class C { field d; method init(a) { self.d = a; } }
             fn main() { var c = new C(1); G = c.d; print G; }",
        );
        let main = p.entry;
        let c = r.contours_of_method[&main][0];
        // The temp loaded from G must be untagged.
        let body = &p.methods[main];
        for (_, _, instr) in body.instrs() {
            if let Instr::GetGlobal { dst, .. } = instr {
                let v = &r.mcontours[c].frame[dst.index()];
                assert!(v.untagged);
                assert!(v.tags.is_empty());
            }
        }
    }

    #[test]
    fn recursion_converges() {
        let (_, r) = analyze_src(
            "class Cons { field head; field tail;
               method init(h, t) { self.head = h; self.tail = t; }
             }
             fn build(n) { if (n == 0) { return nil; } return new Cons(n, build(n - 1)); }
             fn main() { var l = build(10); print 1; }",
        );
        assert!(r.mcontours.len() < 50);
    }

    #[test]
    fn widening_caps_contours() {
        // 30 differently-typed call patterns can't exceed the cap.
        let mut src = String::from("fn id(x) { return x; } fn main() {\n");
        for i in 0..30 {
            // alternate arg types via fresh classes
            src.push_str(&format!("print id({i});\n"));
        }
        src.push('}');
        let p = compile(&src).unwrap();
        let cfg = AnalysisConfig {
            max_contours_per_method: 4,
            ..Default::default()
        };
        let r = analyze(&p, &cfg);
        let id = p.method_by_name("$Main", "id").unwrap();
        // All int calls share one contour anyway, but the cap must hold in
        // general.
        assert!(r.contours_of_method[&id].len() <= 5);
    }

    #[test]
    fn exhausted_round_cap_degrades_instead_of_failing() {
        let p = compile("fn main() { print 1; }").unwrap();
        let cfg = AnalysisConfig {
            max_rounds: 0,
            ..Default::default()
        };
        let r = try_analyze(&p, &cfg).expect("round exhaustion freezes, not fails");
        assert!(r.degraded);
        assert_eq!(r.exhausted, Some(BudgetDimension::Rounds));
        // A sane budget converges cleanly and matches the panicking wrapper.
        let ok = try_analyze(&p, &AnalysisConfig::default()).unwrap();
        assert!(!ok.degraded);
        assert_eq!(ok.exhausted, None);
        assert_eq!(
            ok.mcontours.len(),
            analyze(&p, &Default::default()).mcontours.len()
        );
    }

    const POLY_SRC: &str = "class A { method m() { return 1; } }
         class B { method m() { return 2.0; } }
         fn id(x) { return x; }
         fn main() {
           var a = new A(); var b = new B();
           print id(a).m(); print id(b).m();
           print id(1); print id(2.0);
         }";

    /// A degraded result must still over-approximate the precise one: every
    /// call target the precise analysis sees must survive global widening.
    fn assert_overapproximates(p: &Program, coarse: &AnalysisResult) {
        let precise = analyze(p, &AnalysisConfig::default());
        let precise_targets: BTreeSet<MethodId> = precise
            .call_edges
            .values()
            .flatten()
            .map(|&c| precise.mcontours[c].method)
            .collect();
        let coarse_targets: BTreeSet<MethodId> = coarse
            .call_edges
            .values()
            .flatten()
            .map(|&c| coarse.mcontours[c].method)
            .collect();
        assert!(
            precise_targets.is_subset(&coarse_targets),
            "widened analysis lost call targets: {precise_targets:?} vs {coarse_targets:?}"
        );
    }

    #[test]
    fn zero_contour_budget_widens_everything_soundly() {
        let p = compile(POLY_SRC).unwrap();
        let budget = Budget::unlimited().with_contours(0);
        let r = try_analyze_budgeted(&p, &AnalysisConfig::default(), &budget).unwrap();
        assert!(r.degraded);
        assert_eq!(r.exhausted, Some(BudgetDimension::Contours));
        // Every method contour is the widened catch-all; at most one per
        // method.
        assert!(r.mcontours.iter().all(|c| c.widened));
        let methods: Vec<_> = r.mcontours.iter().map(|c| c.method).collect();
        let distinct: BTreeSet<_> = methods.iter().copied().collect();
        assert_eq!(methods.len(), distinct.len());
        assert_overapproximates(&p, &r);
    }

    #[test]
    fn tiny_step_budget_degrades_but_completes() {
        let p = compile(POLY_SRC).unwrap();
        let budget = Budget::unlimited().with_steps(5);
        let r = try_analyze_budgeted(&p, &AnalysisConfig::default(), &budget).unwrap();
        assert!(r.degraded);
        assert_eq!(r.exhausted, Some(BudgetDimension::Steps));
        assert_overapproximates(&p, &r);
    }

    #[test]
    fn expired_deadline_degrades_but_completes() {
        let p = compile(POLY_SRC).unwrap();
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = try_analyze_budgeted(&p, &AnalysisConfig::default(), &budget).unwrap();
        assert!(r.degraded);
        assert_eq!(r.exhausted, Some(BudgetDimension::Deadline));
        assert_overapproximates(&p, &r);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_analysis() {
        let p = compile(POLY_SRC).unwrap();
        let budget = Budget::unlimited();
        let r = try_analyze_budgeted(&p, &AnalysisConfig::default(), &budget).unwrap();
        let plain = analyze(&p, &AnalysisConfig::default());
        assert!(!r.degraded);
        assert_eq!(r.mcontours.len(), plain.mcontours.len());
        assert_eq!(r.ocontours.len(), plain.ocontours.len());
    }

    /// A send whose argument count matches no target is never bound, so
    /// it has no call edge, not even to the method's widened contour.
    #[test]
    fn send_with_wrong_arity_has_no_call_edge() {
        let p = compile(
            "class A { method m(x) { return x; } }
             fn main() {
               var a = new A();
               print a.m(1); print a.m(2.0);
               if (false) { print a.m(); }
             }",
        )
        .unwrap();
        let cfg = AnalysisConfig {
            max_contours_per_method: 1,
            ..Default::default()
        };
        let r = analyze(&p, &cfg);
        let m = p.method_by_name("A", "m").unwrap();
        assert!(r.contours_of_method[&m]
            .iter()
            .any(|&c| r.mcontours[c].widened));
        let mut arities = Vec::new();
        for (bb, idx, instr) in p.methods[p.entry].instrs() {
            if let Instr::Send { args, .. } = instr {
                let edge = r.call_edges.get(&(MCtxId::new(0), bb, idx));
                arities.push((args.len(), edge.map_or(0, Vec::len)));
            }
        }
        assert_eq!(arities, vec![(1, 1), (1, 1), (0, 0)]);
    }

    /// `analysis.transfers` counts the contour transfers that ran. Worked
    /// by hand for `main` (mctx0) calling `id` (mctx1):
    /// round 0 transfers main, which creates and binds id, then id, which
    /// sets its return value and so wakes main; round 1 transfers main,
    /// whose call now returns an int into its frame; round 2 transfers
    /// main once more and nothing changes. id is clean after round 0.
    #[test]
    fn transfers_count_only_dirty_contours() {
        let p = compile("fn id(x) { return x; } fn main() { print id(1); }").unwrap();
        let tracer = std::rc::Rc::new(trace::Tracer::new(vec![]));
        {
            let _guard = trace::install(tracer.clone());
            analyze(&p, &AnalysisConfig::default());
        }
        let counters = tracer.counters();
        let count = |name: &str| counters.iter().find(|(n, _)| n == name).map(|c| c.1);
        assert_eq!(count("analysis.rounds"), Some(3));
        assert_eq!(count("analysis.mcontours"), Some(2));
        assert_eq!(count("analysis.transfers"), Some(4));
    }

    #[test]
    fn call_edges_are_recorded() {
        let (p, r) = analyze_src(
            "class A { method m() { return 1; } }
             fn main() { var a = new A(); print a.m(); }",
        );
        let main_contour = r.contours_of_method[&p.entry][0];
        let has_send_edge = r
            .call_edges
            .iter()
            .any(|((c, _, _), targets)| *c == main_contour && !targets.is_empty());
        assert!(has_send_edge);
    }
}
