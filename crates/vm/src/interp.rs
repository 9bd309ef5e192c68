//! The instrumented interpreter.

use crate::cache::{CacheConfig, CacheSim};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::heap::{Heap, HeapCensus, ObjKind};
use crate::metrics::Metrics;
use crate::sanitizer::{CheckLevel, Sanitizer, SanitizerReport};
use crate::tables::{Repr, RunTables};
use crate::value::{ObjId, Value};
use oi_ir::{
    ArrayLayoutKind, BinOp, BlockId, Builtin, ClassId, ConstValue, Instr, LayoutId, MethodId,
    Program, SiteId, Temp, Terminator, UnOp,
};
use oi_support::Symbol;
use std::collections::HashMap;

/// Interpreter configuration: cost model, cache geometry and resource
/// limits.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Cycle costs.
    pub cost: CostModel,
    /// Data-cache geometry.
    pub cache: CacheConfig,
    /// Abort after this many executed IR instructions.
    pub max_instructions: u64,
    /// Abort beyond this interpreter call depth.
    pub max_depth: usize,
    /// Heap budget in words.
    pub max_heap_words: u64,
    /// Per-object allocator overhead in words (header + padding).
    pub alloc_header_words: u64,
    /// Collect a per-method / per-allocation-site execution profile
    /// ([`RunResult::profile`]). Off by default: attribution adds a check
    /// to every cycle charge.
    pub profile: bool,
    /// Checked execution: validate inline-object invariants against a
    /// shadow heap map ([`RunResult::sanitizer`]). Off by default; checking
    /// never perturbs [`Metrics`] — a clean checked run reports the same
    /// counters as an unchecked one.
    pub checked: CheckLevel,
    /// Test-only wall-clock slowdown: busy-spin this many iterations per
    /// executed instruction. Exists so the benchmark observatory's gated
    /// wall-clock can prove it flags a genuinely slower interpreter;
    /// never perturbs modeled [`Metrics`]. Zero (off) by default.
    pub test_spin_per_instr: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            cache: CacheConfig::default(),
            max_instructions: 2_000_000_000,
            max_depth: 4_096,
            max_heap_words: 1 << 28,
            alloc_header_words: 2,
            profile: false,
            checked: CheckLevel::Off,
            test_spin_per_instr: 0,
        }
    }
}

/// The outcome of a successful run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Everything the program printed.
    pub output: String,
    /// Execution counters.
    pub metrics: Metrics,
    /// Per-class allocation counts (class name → objects allocated),
    /// sorted by descending count. Arrays appear as `<array>` /
    /// `<array-inline>`.
    pub allocation_census: Vec<(String, u64)>,
    /// End-of-run heap census with class names resolved: object and word
    /// footprints per class, header overhead, embedded inline elements.
    pub heap_census: HeapCensusReport,
    /// Per-method / per-site profile (`Some` iff [`VmConfig::profile`]).
    pub profile: Option<crate::profile::Profile>,
    /// Sanitizer report (`Some` iff [`VmConfig::checked`] is not `Off`).
    pub sanitizer: Option<SanitizerReport>,
}

impl RunResult {
    /// Allocation count for a class by name (0 when absent).
    pub fn allocations_of(&self, class: &str) -> u64 {
        self.allocation_census
            .iter()
            .find(|(name, _)| name == class)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// One row of the name-resolved heap census.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapCensusEntry {
    /// Class name, or `<array>` / `<array-inline>` for array groups.
    pub class: String,
    /// Objects in the group.
    pub count: u64,
    /// Words the group occupies, headers included.
    pub words: u64,
}

/// The end-of-run heap census with class ids resolved to names — the
/// observable "why" behind Figure 17: how many objects existed, how much
/// of the heap was allocator overhead, and how much child state was folded
/// into containers instead of being separately allocated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapCensusReport {
    /// Per-group rows, sorted by descending word footprint then name.
    pub classes: Vec<HeapCensusEntry>,
    /// Every object on the heap.
    pub total_objects: u64,
    /// Every word handed out, headers included. Always equals
    /// `Metrics::words_allocated` for the same run.
    pub total_words: u64,
    /// Total header/padding words paid across every object.
    pub header_words: u64,
    /// Elements embedded in inline arrays (children that never paid for
    /// their own allocation).
    pub inline_elements: u64,
}

impl HeapCensusReport {
    /// Resolves a raw [`HeapCensus`] against the program's class names.
    fn resolve(census: &HeapCensus, program: &Program) -> Self {
        let mut classes: Vec<HeapCensusEntry> = census
            .instances
            .iter()
            .map(|(c, b)| HeapCensusEntry {
                class: program
                    .interner
                    .resolve(program.classes[*c].name)
                    .to_owned(),
                count: b.count,
                words: b.words,
            })
            .collect();
        if census.arrays.count > 0 {
            classes.push(HeapCensusEntry {
                class: "<array>".to_owned(),
                count: census.arrays.count,
                words: census.arrays.words,
            });
        }
        if census.inline_arrays.count > 0 {
            classes.push(HeapCensusEntry {
                class: "<array-inline>".to_owned(),
                count: census.inline_arrays.count,
                words: census.inline_arrays.words,
            });
        }
        classes.sort_by(|a, b| b.words.cmp(&a.words).then_with(|| a.class.cmp(&b.class)));
        HeapCensusReport {
            classes,
            total_objects: census.total_objects,
            total_words: census.total_words,
            header_words: census.header_words,
            inline_elements: census.inline_elements,
        }
    }

    /// The census as schema-stable JSON.
    pub fn to_json(&self) -> oi_support::Json {
        use oi_support::Json;
        Json::obj(vec![
            (
                "classes",
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("class", e.class.clone().into()),
                                ("count", e.count.into()),
                                ("words", e.words.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_objects", self.total_objects.into()),
            ("total_words", self.total_words.into()),
            ("header_words", self.header_words.into()),
            ("inline_elements", self.inline_elements.into()),
        ])
    }
}

/// Runs `program` from its entry point.
///
/// # Errors
///
/// Returns a [`VmError`] on dynamic failures (nil dereference, missing
/// method/field, bad index, type confusion) or when a configured limit is
/// exceeded.
pub fn run(program: &Program, config: &VmConfig) -> Result<RunResult, VmError> {
    let mut session = VmSession::new(program, config)?;
    match session.run_fuel(program, u64::MAX) {
        FuelOutcome::Done { result, .. } => Ok(*result),
        FuelOutcome::Trapped { error, .. } => Err(error),
        // `run_fuel(u64::MAX)` meters against the remaining instruction
        // budget only, so the slice cannot end before the program does.
        FuelOutcome::Yielded { .. } => Err(VmError::Internal {
            context: "unbounded fuel slice yielded".to_owned(),
        }),
    }
}

/// Progress of one fuel slice (see [`VmSession::run_fuel`]).
#[derive(Debug)]
pub enum FuelOutcome {
    /// The fuel slice was exhausted with work remaining; resume with
    /// another [`VmSession::run_fuel`] call.
    Yielded {
        /// Instructions executed during this slice.
        fuel_spent: u64,
    },
    /// The program ran to completion during this slice.
    Done {
        /// Instructions executed during this slice.
        fuel_spent: u64,
        /// The completed run, identical to what [`run`] returns.
        result: Box<RunResult>,
    },
    /// The program failed during this slice; the session is finished.
    /// Resource-limit errors ([`VmError::is_resource_limit`]) are the
    /// typed quota-exceeded terminations a scheduler acts on.
    Trapped {
        /// Instructions executed during this slice.
        fuel_spent: u64,
        /// The failure, identical to what [`run`] returns.
        error: VmError,
    },
}

/// A resumable, fuel-metered interpreter session.
///
/// Owns every piece of interpreter state — the explicit frame stack, heap,
/// cache simulation and counters — so execution can suspend between any
/// two instructions and resume later: the substrate for preemptive
/// multi-tenant scheduling. The program is passed back in on every slice
/// (the session holds no borrows while suspended); it must be the same
/// object the session was created over, enforced by address.
///
/// Metering costs nothing beyond the interpreter's pre-existing
/// instruction-budget checkpoint: each dispatch decrements one fused
/// counter seeded with `min(slice, remaining max_instructions)`, so an
/// unmetered [`run`] — a single `u64::MAX` slice — performs identical
/// per-instruction work.
pub struct VmSession {
    /// Owned interpreter state; `None` once finished (done or trapped).
    state: Option<VmState>,
    config: VmConfig,
    /// Address of the program this session was created over.
    program_tag: usize,
    /// Instructions executed across all slices so far.
    executed: u64,
}

impl VmSession {
    /// Creates a suspended session positioned at `program`'s entry point.
    ///
    /// # Errors
    ///
    /// Fails when the entry frame itself violates a limit (a `max_depth`
    /// of zero) or the entry method's frame shape is malformed.
    pub fn new(program: &Program, config: &VmConfig) -> Result<Self, VmError> {
        let mut vm = Vm::new(program, config);
        vm.push_frame(program.entry, Value::Nil, &[], None)?;
        Ok(VmSession {
            state: Some(vm.into_state()),
            config: *config,
            program_tag: program as *const Program as usize,
            executed: 0,
        })
    }

    /// Runs at most `fuel` instructions, suspending the session when the
    /// slice is exhausted. Never panics on misuse: resuming a finished
    /// session or passing a different program traps with
    /// [`VmError::Internal`].
    pub fn run_fuel(&mut self, program: &Program, fuel: u64) -> FuelOutcome {
        if program as *const Program as usize != self.program_tag {
            return FuelOutcome::Trapped {
                fuel_spent: 0,
                error: VmError::Internal {
                    context: "session resumed against a different program".to_owned(),
                },
            };
        }
        let Some(state) = self.state.take() else {
            return FuelOutcome::Trapped {
                fuel_spent: 0,
                error: VmError::Internal {
                    context: "fuel slice on a finished session".to_owned(),
                },
            };
        };
        let budget = state.instr_budget;
        let mut quota = fuel.min(budget);
        let granted = quota;
        let mut vm = Vm::from_state(program, &self.config, state);
        let end = vm.drive(&mut quota);
        // Fuel is the quota delta, not `metrics.instructions`: the drive
        // loop meters block terminators too (an empty-loop cycle must not
        // spin for free), while the instructions metric stays a pure
        // instruction count.
        let fuel_spent = granted - quota;
        vm.instr_budget = budget - fuel_spent;
        self.executed += fuel_spent;
        match end {
            Ok(StepEnd::Done) => FuelOutcome::Done {
                fuel_spent,
                result: Box::new(vm.finish()),
            },
            Ok(StepEnd::OutOfFuel) => {
                if vm.instr_budget == 0 {
                    FuelOutcome::Trapped {
                        fuel_spent,
                        error: VmError::InstructionLimit,
                    }
                } else {
                    self.state = Some(vm.into_state());
                    FuelOutcome::Yielded { fuel_spent }
                }
            }
            Err(error) => FuelOutcome::Trapped { fuel_spent, error },
        }
    }

    /// Total fuel spent across every slice so far — dispatches, i.e.
    /// instructions plus block terminators — the VM-side half of a
    /// scheduler's fuel reconciliation. Valid in every state, including
    /// after a trap.
    pub fn instructions_executed(&self) -> u64 {
        self.executed
    }

    /// Whether the session has finished (done or trapped).
    pub fn is_finished(&self) -> bool {
        self.state.is_none()
    }
}

/// Folds raw per-index counters into a hottest-first [`crate::profile::Profile`],
/// resolving sites to their containing method and allocated class.
fn build_profile(program: &Program, state: &ProfileState) -> crate::profile::Profile {
    use crate::profile::{AccessSiteProfile, MethodProfile, OpcodeProfile, Profile, SiteProfile};
    // Static site → (containing method, allocated class) map.
    let mut site_info: HashMap<usize, (String, String)> = HashMap::new();
    for (mid, m) in program.methods.iter_enumerated() {
        for block in m.blocks.iter() {
            for instr in &block.instrs {
                let (site, class) = match instr {
                    Instr::New { class, site, .. } => (
                        *site,
                        program
                            .interner
                            .resolve(program.classes[*class].name)
                            .to_owned(),
                    ),
                    Instr::NewArray { site, .. } => (*site, "<array>".to_owned()),
                    Instr::NewArrayInline { site, .. } => (*site, "<array-inline>".to_owned()),
                    _ => continue,
                };
                site_info.insert(site.index(), (program.method_display(mid), class));
            }
        }
    }
    let mut methods: Vec<MethodProfile> = program
        .methods
        .ids()
        .filter(|m| state.method_calls[m.index()] > 0)
        .map(|m| MethodProfile {
            name: program.method_display(m),
            calls: state.method_calls[m.index()],
            cycles: state.method_cycles[m.index()],
            cache_misses: state.method_misses[m.index()],
        })
        .collect();
    methods.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
    let mut sites: Vec<SiteProfile> = state
        .site_allocs
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(site, &n)| {
            let (method, class) = site_info
                .get(&site)
                .cloned()
                .unwrap_or_else(|| ("<unknown>".to_owned(), "<unknown>".to_owned()));
            SiteProfile {
                site,
                method,
                class,
                allocations: n,
                words: state.site_words[site],
            }
        })
        .collect();
    sites.sort_by(|a, b| {
        b.allocations
            .cmp(&a.allocations)
            .then_with(|| a.site.cmp(&b.site))
    });
    let mut opcodes: Vec<OpcodeProfile> = OPCODE_NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| state.opcode_counts[i] > 0 || state.opcode_cycles[i] > 0)
        .map(|(i, &name)| OpcodeProfile {
            name: name.to_owned(),
            count: state.opcode_counts[i],
            cycles: state.opcode_cycles[i],
        })
        .collect();
    opcodes.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then_with(|| b.count.cmp(&a.count))
            .then_with(|| a.name.cmp(&b.name))
    });
    let mut accesses: Vec<AccessSiteProfile> = state
        .accesses
        .iter()
        .map(|(&(class, field, interior), counters)| AccessSiteProfile {
            class: program
                .interner
                .resolve(program.classes[class].name)
                .to_owned(),
            field: program.interner.resolve(field).to_owned(),
            interior,
            reads: counters.reads,
            writes: counters.writes,
            cycles: counters.cycles,
        })
        .collect();
    accesses.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then_with(|| (b.reads + b.writes).cmp(&(a.reads + a.writes)))
            .then_with(|| a.class.cmp(&b.class))
            .then_with(|| a.field.cmp(&b.field))
            .then_with(|| a.interior.cmp(&b.interior))
    });
    Profile {
        methods,
        sites,
        opcodes,
        accesses,
    }
}

/// Names for the per-opcode dispatch histogram, indexed by
/// [`opcode_index`]. The last two are pseudo-opcodes: `branch` receives
/// block-terminator charges, `other` any charge issued outside an
/// instruction dispatch (e.g. frame entry before the first opcode).
const OPCODE_NAMES: [&str; 21] = [
    "const",
    "move",
    "unary",
    "binary",
    "new",
    "new_array",
    "new_array_inline",
    "get_field",
    "set_field",
    "array_get",
    "array_set",
    "get_global",
    "set_global",
    "send",
    "call_static",
    "call_builtin",
    "make_interior",
    "make_interior_elem",
    "print",
    "branch",
    "other",
];
/// Pseudo-opcode index for block-terminator (branch) charges.
const OP_BRANCH: usize = 19;
/// Pseudo-opcode index for charges outside any dispatch.
const OP_OTHER: usize = 20;

/// The histogram slot for an instruction (see [`OPCODE_NAMES`]).
fn opcode_index(instr: &Instr) -> usize {
    match instr {
        Instr::Const { .. } => 0,
        Instr::Move { .. } => 1,
        Instr::Unary { .. } => 2,
        Instr::Binary { .. } => 3,
        Instr::New { .. } => 4,
        Instr::NewArray { .. } => 5,
        Instr::NewArrayInline { .. } => 6,
        Instr::GetField { .. } => 7,
        Instr::SetField { .. } => 8,
        Instr::ArrayGet { .. } => 9,
        Instr::ArraySet { .. } => 10,
        Instr::GetGlobal { .. } => 11,
        Instr::SetGlobal { .. } => 12,
        Instr::Send { .. } => 13,
        Instr::CallStatic { .. } => 14,
        Instr::CallBuiltin { .. } => 15,
        Instr::MakeInterior { .. } => 16,
        Instr::MakeInteriorElem { .. } => 17,
        Instr::Print { .. } => 18,
    }
}

/// Per-access-site raw counters (see
/// [`crate::profile::AccessSiteProfile`]).
#[derive(Default)]
struct AccessCounters {
    reads: u64,
    writes: u64,
    cycles: u64,
}

/// Raw profiling counters, indexed by method / site id.
struct ProfileState {
    method_calls: Vec<u64>,
    method_cycles: Vec<u64>,
    method_misses: Vec<u64>,
    site_allocs: Vec<u64>,
    site_words: Vec<u64>,
    /// Dispatch counts per [`OPCODE_NAMES`] slot.
    opcode_counts: Vec<u64>,
    /// Self cycles per [`OPCODE_NAMES`] slot (a call opcode's callee
    /// attributes to the callee's own opcodes).
    opcode_cycles: Vec<u64>,
    /// Field-access counters keyed by `(class, field, interior?)`.
    accesses: HashMap<(ClassId, Symbol, bool), AccessCounters>,
}

/// One activation record on the explicit call stack. Frames replace host
/// recursion so the interpreter can suspend mid-call-stack: a parked frame
/// holds plain ids and owned values, never borrows.
struct Frame {
    method: MethodId,
    /// Block the frame is executing.
    bb: BlockId,
    /// Index of the next instruction to dispatch within `bb`.
    ip: usize,
    locals: Vec<Value>,
    /// Caller temp receiving the return value (`None` discards it — the
    /// implicit constructor call from `New`, and the entry frame).
    ret: Option<Temp>,
}

/// What a dispatched instruction asked the drive loop to do next.
enum Flow {
    /// Fall through to the next instruction.
    Continue,
    /// Push a callee frame; the current frame resumes after it returns.
    Call {
        method: MethodId,
        recv: Value,
        argv: Vec<Value>,
        ret: Option<Temp>,
    },
}

/// Why [`Vm::drive`] stopped without an error.
enum StepEnd {
    /// Frame stack drained: the program completed.
    Done,
    /// Quota hit zero with frames still live.
    OutOfFuel,
}

/// The owned half of the interpreter — everything except the borrowed
/// program and config — parked between fuel slices. Field-for-field the
/// owned fields of [`Vm`]; conversion is a move in each direction.
struct VmState {
    heap: Heap,
    cache: CacheSim,
    metrics: Metrics,
    output: String,
    globals: Vec<Value>,
    tables: RunTables,
    frames: Vec<Frame>,
    instr_budget: u64,
    alloc_census: Vec<u64>,
    array_census: u64,
    inline_array_census: u64,
    profile: Option<ProfileState>,
    sanitizer: Option<Sanitizer>,
    mstack: Vec<MethodId>,
    cur_op: usize,
}

struct Vm<'p> {
    program: &'p Program,
    config: &'p VmConfig,
    heap: Heap,
    cache: CacheSim,
    metrics: Metrics,
    output: String,
    globals: Vec<Value>,
    /// Field slots, dispatch targets, `init`s and layouts, resolved once
    /// per run.
    tables: RunTables,
    /// Explicit call stack; its length is the interpreter call depth.
    frames: Vec<Frame>,
    instr_budget: u64,
    alloc_census: Vec<u64>,
    array_census: u64,
    inline_array_census: u64,
    /// Raw profiling counters (`Some` iff `config.profile`).
    profile: Option<ProfileState>,
    /// Shadow-heap sanitizer (`Some` iff `config.checked` is not `Off`).
    sanitizer: Option<Sanitizer>,
    /// Call stack of active methods, maintained while profiling or
    /// checking (the sanitizer attributes findings to the active method).
    mstack: Vec<MethodId>,
    /// Histogram slot of the opcode currently dispatching, maintained
    /// only while profiling ([`OP_OTHER`] outside any dispatch).
    cur_op: usize,
}

impl<'p> Vm<'p> {
    fn new(program: &'p Program, config: &'p VmConfig) -> Self {
        Self {
            program,
            config,
            heap: Heap::new(config.max_heap_words, config.alloc_header_words),
            cache: CacheSim::new(config.cache),
            metrics: Metrics::default(),
            output: String::new(),
            globals: vec![Value::Nil; program.globals.len()],
            tables: RunTables::new(program),
            frames: Vec::new(),
            instr_budget: config.max_instructions,
            alloc_census: vec![0; program.classes.len()],
            array_census: 0,
            inline_array_census: 0,
            profile: config.profile.then(|| ProfileState {
                method_calls: vec![0; program.methods.len()],
                method_cycles: vec![0; program.methods.len()],
                method_misses: vec![0; program.methods.len()],
                site_allocs: vec![0; program.site_count as usize],
                site_words: vec![0; program.site_count as usize],
                opcode_counts: vec![0; OPCODE_NAMES.len()],
                opcode_cycles: vec![0; OPCODE_NAMES.len()],
                accesses: HashMap::new(),
            }),
            sanitizer: Sanitizer::new(config.checked),
            mstack: Vec::new(),
            cur_op: OP_OTHER,
        }
    }

    // -- suspend / resume ---------------------------------------------------

    /// Rehydrates an interpreter over parked state. Every field move is a
    /// pointer-sized copy, so a resume costs nothing proportional to heap
    /// or stack size.
    fn from_state(program: &'p Program, config: &'p VmConfig, st: VmState) -> Self {
        Vm {
            program,
            config,
            heap: st.heap,
            cache: st.cache,
            metrics: st.metrics,
            output: st.output,
            globals: st.globals,
            tables: st.tables,
            frames: st.frames,
            instr_budget: st.instr_budget,
            alloc_census: st.alloc_census,
            array_census: st.array_census,
            inline_array_census: st.inline_array_census,
            profile: st.profile,
            sanitizer: st.sanitizer,
            mstack: st.mstack,
            cur_op: st.cur_op,
        }
    }

    /// Parks the interpreter's owned state, dropping the program borrow.
    fn into_state(self) -> VmState {
        VmState {
            heap: self.heap,
            cache: self.cache,
            metrics: self.metrics,
            output: self.output,
            globals: self.globals,
            tables: self.tables,
            frames: self.frames,
            instr_budget: self.instr_budget,
            alloc_census: self.alloc_census,
            array_census: self.array_census,
            inline_array_census: self.inline_array_census,
            profile: self.profile,
            sanitizer: self.sanitizer,
            mstack: self.mstack,
            cur_op: self.cur_op,
        }
    }

    /// Consumes a completed interpreter into its [`RunResult`].
    fn finish(mut self) -> RunResult {
        let program = self.program;
        let mut census: Vec<(String, u64)> = Vec::new();
        for (c, &n) in self.alloc_census.iter().enumerate() {
            if n > 0 {
                let name = program
                    .interner
                    .resolve(program.classes[oi_ir::ClassId::new(c)].name)
                    .to_owned();
                census.push((name, n));
            }
        }
        if self.array_census > 0 {
            census.push(("<array>".to_owned(), self.array_census));
        }
        if self.inline_array_census > 0 {
            census.push(("<array-inline>".to_owned(), self.inline_array_census));
        }
        census.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let profile = self
            .profile
            .take()
            .map(|state| build_profile(program, &state));
        let heap_census = HeapCensusReport::resolve(&self.heap.census(), program);
        let sanitizer = self.sanitizer.take().map(Sanitizer::into_report);
        RunResult {
            output: self.output,
            metrics: self.metrics,
            allocation_census: census,
            heap_census,
            profile,
            sanitizer,
        }
    }

    // -- cost helpers -------------------------------------------------------

    fn charge(&mut self, cycles: u64) {
        self.metrics.cycles += cycles;
        if let Some(p) = &mut self.profile {
            if let Some(&m) = self.mstack.last() {
                p.method_cycles[m.index()] += cycles;
            }
            p.opcode_cycles[self.cur_op] += cycles;
        }
    }

    /// Attributes one cache miss to the active method (profiling only).
    fn profile_miss(&mut self) {
        if let Some(p) = &mut self.profile {
            if let Some(&m) = self.mstack.last() {
                p.method_misses[m.index()] += 1;
            }
        }
    }

    /// A heap read at `addr`: base cost + cache penalty. Returns whether
    /// the access hit the cache.
    fn mem_read(&mut self, addr: u64) -> bool {
        self.metrics.heap_reads += 1;
        self.charge(self.config.cost.heap_read);
        if self.cache.access(addr) {
            self.metrics.cache_hits += 1;
            true
        } else {
            self.metrics.cache_misses += 1;
            self.profile_miss();
            self.charge(self.config.cost.cache_miss);
            false
        }
    }

    /// A heap write at `addr`: base cost + cache penalty (allocate-on-write).
    /// Returns whether the access hit the cache.
    fn mem_write(&mut self, addr: u64) -> bool {
        self.metrics.heap_writes += 1;
        self.charge(self.config.cost.heap_write);
        if self.cache.access(addr) {
            self.metrics.cache_hits += 1;
            true
        } else {
            self.metrics.cache_misses += 1;
            self.profile_miss();
            self.charge(self.config.cost.cache_miss);
            false
        }
    }

    /// Records an access to inline child state (through an interior
    /// reference) and whether it was served by the cache — the per-run
    /// locality evidence that colocated state shares lines with its
    /// container.
    fn note_inline_access(&mut self, hit: bool) {
        self.metrics.inline_child_accesses += 1;
        if hit {
            self.metrics.inline_child_hits += 1;
        }
    }

    // -- layout machinery ---------------------------------------------------

    /// Container slot index for child field `j` of the interior reference.
    fn interior_slot(&self, layout: u32, index: u32, j: usize, container_len: usize) -> usize {
        match &self.tables.layouts[layout as usize].repr {
            Repr::Object { slots } => slots[j],
            Repr::Array { kind, width, map } => match kind {
                ArrayLayoutKind::Interleaved => index as usize * *width + map[j],
                ArrayLayoutKind::Parallel => map[j] * container_len + index as usize,
            },
        }
    }

    // -- checked execution --------------------------------------------------

    /// Validates the establishment of an interior reference (checked mode).
    fn sanitize_interior(
        &mut self,
        obj: ObjId,
        index: u32,
        layout: u32,
        instruction: &'static str,
    ) {
        let method = self.mstack.last().copied();
        if let Some(san) = &mut self.sanitizer {
            san.on_interior(
                self.program,
                &self.heap,
                &self.tables.layouts,
                method,
                instruction,
                obj,
                index,
                layout,
            );
        }
    }

    /// Validates one resolved interior access (checked mode). Errors when
    /// the access resolves outside the container — the one condition the
    /// unchecked interpreter could not survive either.
    #[allow(clippy::too_many_arguments)]
    fn checked_access(
        &mut self,
        obj: ObjId,
        index: u32,
        layout: u32,
        j: usize,
        slot: usize,
        is_read: bool,
        instruction: &'static str,
    ) -> Result<(), VmError> {
        let method = self.mstack.last().copied();
        if let Some(san) = &mut self.sanitizer {
            san.on_access(
                self.program,
                &self.heap,
                &self.tables.layouts,
                method,
                instruction,
                obj,
                index,
                layout,
                j,
                slot,
                is_read,
            )?;
        }
        Ok(())
    }

    /// Cross-checks identity when `l === r` (or `==` on references) was
    /// false: two interior references into the same container designating
    /// the same region must compare identical (checked mode).
    fn sanitize_identity(&mut self, l: Value, r: Value) {
        if self.sanitizer.is_none() {
            return;
        }
        if let (
            Value::Interior {
                obj: lo,
                index: li,
                layout: ll,
            },
            Value::Interior {
                obj: ro,
                index: ri,
                layout: rl,
            },
        ) = (l, r)
        {
            if lo == ro {
                let method = self.mstack.last().copied();
                if let Some(san) = &mut self.sanitizer {
                    san.on_identity(
                        self.program,
                        &self.heap,
                        &self.tables.layouts,
                        method,
                        lo,
                        (ll.index() as u32, li),
                        (rl.index() as u32, ri),
                    );
                }
            }
        }
    }

    // -- dynamic typing helpers ---------------------------------------------

    fn class_name(&self, c: ClassId) -> String {
        self.program
            .interner
            .resolve(self.program.classes[c].name)
            .to_owned()
    }

    /// The name of a field or selector symbol. IR that never passed the
    /// verifier can carry a symbol the interner does not know; it names
    /// itself by its raw slot instead of panicking.
    fn sym_name(&self, s: Symbol) -> String {
        if (s.raw() as usize) < self.program.interner.len() {
            self.program.interner.resolve(s).to_owned()
        } else {
            format!("{s:?}")
        }
    }

    fn class_of(&self, v: Value) -> Option<ClassId> {
        match v {
            Value::Obj(o) => match self.heap.get(o).kind {
                ObjKind::Instance(c) => Some(c),
                _ => None,
            },
            Value::Interior { layout, .. } => Some(self.tables.layouts[layout.index()].child_class),
            _ => None,
        }
    }

    fn expect_int(&self, v: Value, what: &str) -> Result<i64, VmError> {
        match v {
            Value::Int(n) => Ok(n),
            other => Err(VmError::TypeError {
                expected: format!("int for {what}"),
                found: other.type_name().to_owned(),
            }),
        }
    }

    fn expect_bool(&self, v: Value, what: &str) -> Result<bool, VmError> {
        match v {
            Value::Bool(b) => Ok(b),
            other => Err(VmError::TypeError {
                expected: format!("bool for {what}"),
                found: other.type_name().to_owned(),
            }),
        }
    }

    // -- field access --------------------------------------------------------

    fn get_field(&mut self, recv: Value, field: Symbol) -> Result<Value, VmError> {
        match recv {
            Value::Obj(o) => {
                let kind = self.heap.get(o).kind;
                let ObjKind::Instance(c) = kind else {
                    return Err(VmError::NoSuchField {
                        class: "array".to_owned(),
                        field: self.sym_name(field),
                    });
                };
                let slot =
                    self.tables
                        .field_slot(c, field)
                        .ok_or_else(|| VmError::NoSuchField {
                            class: self.class_name(c),
                            field: self.sym_name(field),
                        })?;
                let addr = self.heap.get(o).slot_addr(slot);
                let hit = self.mem_read(addr);
                self.profile_access(c, field, false, false, hit);
                Ok(self.heap.get(o).slots[slot])
            }
            Value::Interior { obj, index, layout } => {
                let lid = layout.index() as u32;
                let resolved = &self.tables.layouts[lid as usize];
                let child = resolved.child_class;
                let j = resolved
                    .child_fields
                    .iter()
                    .position(|&f| f == field)
                    .ok_or_else(|| VmError::NoSuchField {
                        class: self.class_name(child),
                        field: self.sym_name(field),
                    })?;
                let container_len = self.heap.get(obj).array_len().unwrap_or(0);
                let slot = self.interior_slot(lid, index, j, container_len);
                if self.sanitizer.is_some() {
                    self.checked_access(obj, index, lid, j, slot, true, "GetField")?;
                }
                let addr = self.heap.get(obj).slot_addr(slot);
                let hit = self.mem_read(addr);
                self.note_inline_access(hit);
                self.profile_access(child, field, true, false, hit);
                Ok(self.heap.get(obj).slots[slot])
            }
            Value::Nil => Err(VmError::NilDereference {
                context: format!("field access `{}`", self.sym_name(field)),
            }),
            other => Err(VmError::TypeError {
                expected: "object for field access".to_owned(),
                found: other.type_name().to_owned(),
            }),
        }
    }

    fn set_field(&mut self, recv: Value, field: Symbol, value: Value) -> Result<(), VmError> {
        match recv {
            Value::Obj(o) => {
                let kind = self.heap.get(o).kind;
                let ObjKind::Instance(c) = kind else {
                    return Err(VmError::NoSuchField {
                        class: "array".to_owned(),
                        field: self.sym_name(field),
                    });
                };
                let slot =
                    self.tables
                        .field_slot(c, field)
                        .ok_or_else(|| VmError::NoSuchField {
                            class: self.class_name(c),
                            field: self.sym_name(field),
                        })?;
                let addr = self.heap.get(o).slot_addr(slot);
                let hit = self.mem_write(addr);
                self.profile_access(c, field, false, true, hit);
                self.heap.get_mut(o).slots[slot] = value;
                if let Some(san) = &mut self.sanitizer {
                    let len = self.heap.get(o).slots.len();
                    san.on_direct_write(o, slot, len);
                }
                Ok(())
            }
            Value::Interior { obj, index, layout } => {
                let lid = layout.index() as u32;
                let resolved = &self.tables.layouts[lid as usize];
                let child = resolved.child_class;
                let j = resolved
                    .child_fields
                    .iter()
                    .position(|&f| f == field)
                    .ok_or_else(|| VmError::NoSuchField {
                        class: self.class_name(child),
                        field: self.sym_name(field),
                    })?;
                let container_len = self.heap.get(obj).array_len().unwrap_or(0);
                let slot = self.interior_slot(lid, index, j, container_len);
                if self.sanitizer.is_some() {
                    self.checked_access(obj, index, lid, j, slot, false, "SetField")?;
                }
                let addr = self.heap.get(obj).slot_addr(slot);
                let hit = self.mem_write(addr);
                self.note_inline_access(hit);
                self.profile_access(child, field, true, true, hit);
                self.heap.get_mut(obj).slots[slot] = value;
                Ok(())
            }
            Value::Nil => Err(VmError::NilDereference {
                context: format!("field store `{}`", self.sym_name(field)),
            }),
            other => Err(VmError::TypeError {
                expected: "object for field store".to_owned(),
                found: other.type_name().to_owned(),
            }),
        }
    }

    // -- allocation ----------------------------------------------------------

    fn alloc_instance(&mut self, class: ClassId, site: SiteId) -> Result<ObjId, VmError> {
        let size = self.tables.class_sizes[class.index()];
        let id = self.heap.alloc(ObjKind::Instance(class), size)?;
        // Use the heap's effective (clamped) overhead so `words_allocated`
        // in the metrics agrees with the bump allocator's own accounting.
        let overhead = self.heap.header_words();
        self.alloc_census[class.index()] += 1;
        self.metrics.allocations += 1;
        self.metrics.words_allocated += size as u64 + overhead;
        self.profile_alloc(site, size as u64 + overhead);
        self.charge(
            self.config.cost.alloc_base + self.config.cost.alloc_word * (size as u64 + overhead),
        );
        // Zeroing warms the cache for the fresh object.
        let base = self.heap.get(id).addr;
        let line = self.cache.config().line_bytes as u64;
        let mut a = base;
        while a < base + (size as u64 + 1) * crate::heap::WORD {
            self.cache.access(a);
            a += line;
        }
        Ok(id)
    }

    /// Attributes one field access at `(class, field, interior?)` to its
    /// access site with its modeled cost — the base read/write charge
    /// plus the cache penalty it actually paid (profiling only).
    fn profile_access(
        &mut self,
        class: ClassId,
        field: Symbol,
        interior: bool,
        is_write: bool,
        hit: bool,
    ) {
        let cost = self.config.cost;
        if let Some(p) = &mut self.profile {
            let entry = p.accesses.entry((class, field, interior)).or_default();
            let base = if is_write {
                entry.writes += 1;
                cost.heap_write
            } else {
                entry.reads += 1;
                cost.heap_read
            };
            entry.cycles += base + if hit { 0 } else { cost.cache_miss };
        }
    }

    /// Attributes one allocation of `words` words to `site` (profiling
    /// only).
    fn profile_alloc(&mut self, site: SiteId, words: u64) {
        if let Some(p) = &mut self.profile {
            if site.index() < p.site_allocs.len() {
                p.site_allocs[site.index()] += 1;
                p.site_words[site.index()] += words;
            }
        }
    }

    fn alloc_array(&mut self, kind: ObjKind, slots: usize, site: SiteId) -> Result<ObjId, VmError> {
        let id = self.heap.alloc(kind, slots)?;
        match kind {
            ObjKind::ArrayInline { .. } => self.inline_array_census += 1,
            _ => self.array_census += 1,
        }
        let overhead = self.heap.header_words();
        self.metrics.allocations += 1;
        self.metrics.words_allocated += slots as u64 + overhead;
        self.profile_alloc(site, slots as u64 + overhead);
        self.charge(
            self.config.cost.alloc_base + self.config.cost.alloc_word * (slots as u64 + overhead),
        );
        Ok(id)
    }

    // -- calls ----------------------------------------------------------------

    /// Pushes a callee activation record: the limit check, profiling and
    /// sanitizer entry hooks formerly spread across the recursive
    /// `call`/`run_frame` pair. `max_depth` is enforced here — the single
    /// frame-push site — as a typed [`VmError::StackOverflow`], and the
    /// explicit stack means a hostile guest can never exhaust the host
    /// thread's stack.
    fn push_frame(
        &mut self,
        method: MethodId,
        recv: Value,
        args: &[Value],
        ret: Option<Temp>,
    ) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_depth {
            return Err(VmError::StackOverflow);
        }
        let m = &self.program.methods[method];
        debug_assert_eq!(args.len(), m.param_count as usize);
        let mut locals = vec![Value::Nil; m.temp_count as usize];
        // Verified IR guarantees `temp_count >= params + self`; unverified
        // IR must not be able to panic the host.
        if locals.len() < args.len() + 1 {
            return Err(VmError::Internal {
                context: format!(
                    "frame of {} temp(s) cannot hold self plus {} argument(s)",
                    locals.len(),
                    args.len()
                ),
            });
        }
        locals[0] = recv;
        locals[1..=args.len()].copy_from_slice(args);
        if let Some(p) = &mut self.profile {
            p.method_calls[method.index()] += 1;
        }
        if self.profile.is_some() || self.sanitizer.is_some() {
            self.mstack.push(method);
        }
        // A child constructor starting on an interior receiver marks its
        // region constructed: from this point the child object exists in
        // baseline semantics (`new` allocates before `init` runs), so its
        // unset fields read as legal nil, not poison.
        if self.sanitizer.is_some() {
            if let Value::Interior { obj, index, layout } = recv {
                let lid = layout.index() as u32;
                let child = self.tables.layouts[lid as usize].child_class;
                if self.tables.init(child) == Some(method) {
                    if let Some(san) = &mut self.sanitizer {
                        san.on_ctor_enter(&self.tables.layouts, &self.heap, obj, index, lid);
                    }
                }
            }
        }
        self.frames.push(Frame {
            method,
            bb: m.entry(),
            ip: 0,
            locals,
            ret,
        });
        Ok(())
    }

    /// Drives the frame stack until the program finishes, traps, or
    /// `quota` dispatches have been spent.
    ///
    /// This loop is the fuel/limit checkpoint: every dispatch — each
    /// instruction *and* each block terminator — decrements `quota`
    /// exactly once (the caller fuses the fuel slice with the remaining
    /// `max_instructions` budget), `max_depth` is enforced at the one
    /// frame-push site and `max_heap_words` at the one allocation site —
    /// there are no other limit branches. Terminators must be metered:
    /// a cycle of empty blocks (jump/branch only, zero instructions)
    /// would otherwise spin forever without ever touching the quota,
    /// escaping both `max_instructions` and fuel slicing.
    fn drive(&mut self, quota: &mut u64) -> Result<StepEnd, VmError> {
        'outer: while !self.frames.is_empty() {
            let top = self.frames.len() - 1;
            let (mid, mut bb, mut ip) = {
                let f = &self.frames[top];
                (f.method, f.bb, f.ip)
            };
            // Locals move out of the parked frame for the duration of the
            // activation so dispatch can borrow them alongside `self`.
            let mut locals = std::mem::take(&mut self.frames[top].locals);
            let method = &self.program.methods[mid];
            loop {
                let block = &method.blocks[bb];
                while ip < block.instrs.len() {
                    if *quota == 0 {
                        let f = &mut self.frames[top];
                        f.bb = bb;
                        f.ip = ip;
                        f.locals = locals;
                        return Ok(StepEnd::OutOfFuel);
                    }
                    *quota -= 1;
                    self.metrics.instructions += 1;
                    if self.config.test_spin_per_instr > 0 {
                        for i in 0..self.config.test_spin_per_instr {
                            std::hint::black_box(i);
                        }
                    }
                    let instr = &block.instrs[ip];
                    if let Some(p) = &mut self.profile {
                        let op = opcode_index(instr);
                        p.opcode_counts[op] += 1;
                        self.cur_op = op;
                    }
                    ip += 1;
                    match self.exec(instr, &mut locals)? {
                        Flow::Continue => {}
                        Flow::Call {
                            method,
                            recv,
                            argv,
                            ret,
                        } => {
                            let f = &mut self.frames[top];
                            f.bb = bb;
                            f.ip = ip;
                            f.locals = locals;
                            self.push_frame(method, recv, &argv, ret)?;
                            continue 'outer;
                        }
                    }
                }
                if *quota == 0 {
                    let f = &mut self.frames[top];
                    f.bb = bb;
                    f.ip = ip;
                    f.locals = locals;
                    return Ok(StepEnd::OutOfFuel);
                }
                *quota -= 1;
                if let Some(p) = &mut self.profile {
                    p.opcode_counts[OP_BRANCH] += 1;
                    self.cur_op = OP_BRANCH;
                }
                self.charge(self.config.cost.branch);
                match block.term {
                    Terminator::Jump(next) => {
                        bb = next;
                        ip = 0;
                    }
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.expect_bool(locals[cond.index()], "branch condition")?;
                        bb = if c { then_bb } else { else_bb };
                        ip = 0;
                    }
                    Terminator::Return(t) => {
                        let v = locals[t.index()];
                        let ret = self.frames.pop().and_then(|f| f.ret);
                        if self.profile.is_some() || self.sanitizer.is_some() {
                            self.mstack.pop();
                        }
                        match self.frames.last_mut() {
                            Some(parent) => {
                                if let Some(dst) = ret {
                                    parent.locals[dst.index()] = v;
                                }
                            }
                            None => return Ok(StepEnd::Done),
                        }
                        continue 'outer;
                    }
                    Terminator::Unterminated => {
                        // The verifier rejects unterminated reachable
                        // blocks; reaching one means the program was never
                        // verified.
                        return Err(VmError::Internal {
                            context: "executed an unterminated block".to_owned(),
                        });
                    }
                }
            }
        }
        Ok(StepEnd::Done)
    }

    fn exec(&mut self, instr: &Instr, locals: &mut [Value]) -> Result<Flow, VmError> {
        let get = |t: Temp, locals: &[Value]| locals[t.index()];
        match instr {
            Instr::Const { dst, value } => {
                self.charge(self.config.cost.mov);
                locals[dst.index()] = match *value {
                    ConstValue::Int(n) => Value::Int(n),
                    ConstValue::Float(x) => Value::Float(x),
                    ConstValue::Bool(b) => Value::Bool(b),
                    ConstValue::Nil => Value::Nil,
                    ConstValue::Str(s) => Value::Str(s),
                };
            }
            Instr::Move { dst, src } => {
                self.charge(self.config.cost.mov);
                locals[dst.index()] = get(*src, locals);
            }
            Instr::Unary { dst, op, src } => {
                let v = get(*src, locals);
                locals[dst.index()] = self.eval_unary(*op, v)?;
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                let l = get(*lhs, locals);
                let r = get(*rhs, locals);
                locals[dst.index()] = self.eval_binary(*op, l, r)?;
            }
            Instr::New {
                dst,
                class,
                args,
                site,
            } => {
                let id = self.alloc_instance(*class, *site)?;
                locals[dst.index()] = Value::Obj(id);
                if let Some(init) = self.tables.init(*class) {
                    // Raw allocations (constructor explosion) call init
                    // explicitly; skip the implicit call.
                    if self.program.methods[init].param_count as usize != args.len() {
                        return Ok(Flow::Continue);
                    }
                    let argv: Vec<Value> = args.iter().map(|&a| get(a, locals)).collect();
                    self.metrics.static_calls += 1;
                    self.charge(
                        self.config.cost.static_call
                            + self.config.cost.call_arg * argv.len() as u64,
                    );
                    return Ok(Flow::Call {
                        method: init,
                        recv: Value::Obj(id),
                        argv,
                        ret: None,
                    });
                }
            }
            Instr::NewArray { dst, len, site } => {
                let n = self.expect_int(get(*len, locals), "array length")?;
                if n < 0 {
                    return Err(VmError::TypeError {
                        expected: "non-negative array length".to_owned(),
                        found: n.to_string(),
                    });
                }
                let id = self.alloc_array(ObjKind::Array, n as usize, *site)?;
                locals[dst.index()] = Value::Obj(id);
            }
            Instr::NewArrayInline {
                dst,
                len,
                layout,
                site,
            } => {
                let n = self.expect_int(get(*len, locals), "array length")?;
                if n < 0 {
                    return Err(VmError::TypeError {
                        expected: "non-negative array length".to_owned(),
                        found: n.to_string(),
                    });
                }
                let lid = layout.index() as u32;
                let width = self.tables.layouts[lid as usize].child_fields.len();
                let id = self.alloc_array(
                    ObjKind::ArrayInline {
                        layout: lid,
                        len: n as usize,
                    },
                    n as usize * width,
                    *site,
                )?;
                locals[dst.index()] = Value::Obj(id);
            }
            Instr::GetField { dst, obj, field } => {
                locals[dst.index()] = self.get_field(get(*obj, locals), *field)?;
            }
            Instr::SetField { obj, field, src } => {
                self.set_field(get(*obj, locals), *field, get(*src, locals))?;
            }
            Instr::ArrayGet { dst, arr, idx } => {
                locals[dst.index()] = self.array_get(get(*arr, locals), get(*idx, locals))?;
            }
            Instr::ArraySet { arr, idx, src } => {
                self.array_set(get(*arr, locals), get(*idx, locals), get(*src, locals))?;
            }
            Instr::GetGlobal { dst, global } => {
                // Globals live in a dedicated segment; model the load.
                self.mem_read((1 << 40) + global.index() as u64 * crate::heap::WORD);
                locals[dst.index()] = self.globals[global.index()];
            }
            Instr::SetGlobal { global, src } => {
                self.mem_write((1 << 40) + global.index() as u64 * crate::heap::WORD);
                self.globals[global.index()] = get(*src, locals);
            }
            Instr::Send {
                dst,
                recv,
                selector,
                args,
            } => {
                let r = get(*recv, locals);
                let class = self.class_of(r).ok_or_else(|| match r {
                    Value::Nil => VmError::NilDereference {
                        context: format!("send of `{}`", self.sym_name(*selector)),
                    },
                    other => VmError::TypeError {
                        expected: "object receiver".to_owned(),
                        found: other.type_name().to_owned(),
                    },
                })?;
                let target =
                    self.tables
                        .method(class, *selector)
                        .ok_or_else(|| VmError::NoSuchMethod {
                            class: self.class_name(class),
                            selector: self.sym_name(*selector),
                        })?;
                let argv: Vec<Value> = args.iter().map(|&a| get(a, locals)).collect();
                self.metrics.dyn_dispatches += 1;
                self.charge(
                    self.config.cost.dyn_dispatch + self.config.cost.call_arg * argv.len() as u64,
                );
                return Ok(Flow::Call {
                    method: target,
                    recv: r,
                    argv,
                    ret: Some(*dst),
                });
            }
            Instr::CallStatic {
                dst,
                method,
                recv,
                args,
            } => {
                let r = get(*recv, locals);
                let argv: Vec<Value> = args.iter().map(|&a| get(a, locals)).collect();
                self.metrics.static_calls += 1;
                self.charge(
                    self.config.cost.static_call + self.config.cost.call_arg * argv.len() as u64,
                );
                return Ok(Flow::Call {
                    method: *method,
                    recv: r,
                    argv,
                    ret: Some(*dst),
                });
            }
            Instr::CallBuiltin { dst, builtin, args } => {
                let argv: Vec<Value> = args.iter().map(|&a| get(a, locals)).collect();
                locals[dst.index()] = self.eval_builtin(*builtin, &argv)?;
            }
            Instr::MakeInterior { dst, obj, layout } => {
                self.metrics.interior_refs += 1;
                self.charge(self.config.cost.lea);
                let v = match get(*obj, locals) {
                    Value::Obj(o) => Value::Interior {
                        obj: o,
                        index: 0,
                        layout: *layout,
                    },
                    Value::Interior {
                        obj,
                        index,
                        layout: outer,
                    } => {
                        let composed =
                            self.tables
                                .compose(self.program, outer.index() as u32, *layout);
                        Value::Interior {
                            obj,
                            index,
                            layout: LayoutId::new(composed as usize),
                        }
                    }
                    Value::Nil => {
                        return Err(VmError::NilDereference {
                            context: "interior reference".to_owned(),
                        });
                    }
                    other => {
                        return Err(VmError::TypeError {
                            expected: "object container".to_owned(),
                            found: other.type_name().to_owned(),
                        });
                    }
                };
                locals[dst.index()] = v;
                if self.sanitizer.is_some() {
                    if let Value::Interior { obj, index, layout } = v {
                        self.sanitize_interior(obj, index, layout.index() as u32, "MakeInterior");
                    }
                }
            }
            Instr::MakeInteriorElem {
                dst,
                arr,
                idx,
                layout,
            } => {
                self.metrics.interior_refs += 1;
                self.charge(self.config.cost.lea);
                let a = get(*arr, locals);
                let i = self.expect_int(get(*idx, locals), "inline element index")?;
                let Value::Obj(o) = a else {
                    return Err(match a {
                        Value::Nil => VmError::NilDereference {
                            context: "interior array reference".to_owned(),
                        },
                        other => VmError::TypeError {
                            expected: "array container".to_owned(),
                            found: other.type_name().to_owned(),
                        },
                    });
                };
                let len = self.heap.get(o).array_len().unwrap_or(0);
                if i < 0 || i as usize >= len {
                    return Err(VmError::IndexOutOfBounds { index: i, len });
                }
                locals[dst.index()] = Value::Interior {
                    obj: o,
                    index: i as u32,
                    layout: *layout,
                };
                if self.sanitizer.is_some() {
                    self.sanitize_interior(o, i as u32, layout.index() as u32, "MakeInteriorElem");
                }
            }
            Instr::Print { src } => {
                self.charge(self.config.cost.print);
                let text = self.format_value(get(*src, locals));
                self.output.push_str(&text);
                self.output.push('\n');
            }
        }
        Ok(Flow::Continue)
    }

    // -- arrays ---------------------------------------------------------------

    fn array_get(&mut self, arr: Value, idx: Value) -> Result<Value, VmError> {
        let i = self.expect_int(idx, "array index")?;
        let Value::Obj(o) = arr else {
            return Err(match arr {
                Value::Nil => VmError::NilDereference {
                    context: "array indexing".to_owned(),
                },
                other => VmError::TypeError {
                    expected: "array".to_owned(),
                    found: other.type_name().to_owned(),
                },
            });
        };
        match self.heap.get(o).kind {
            ObjKind::Array => {
                let len = self.heap.get(o).slots.len();
                if i < 0 || i as usize >= len {
                    return Err(VmError::IndexOutOfBounds { index: i, len });
                }
                let addr = self.heap.get(o).slot_addr(i as usize);
                self.mem_read(addr);
                Ok(self.heap.get(o).slots[i as usize])
            }
            ObjKind::ArrayInline { layout, len } => {
                if i < 0 || i as usize >= len {
                    return Err(VmError::IndexOutOfBounds { index: i, len });
                }
                // Whole-element read of an inline array degrades gracefully
                // to an interior reference (address arithmetic).
                self.metrics.interior_refs += 1;
                self.charge(self.config.cost.lea);
                if self.sanitizer.is_some() {
                    self.sanitize_interior(o, i as u32, layout, "ArrayGet");
                }
                Ok(Value::Interior {
                    obj: o,
                    index: i as u32,
                    layout: LayoutId::new(layout as usize),
                })
            }
            ObjKind::Instance(c) => Err(VmError::TypeError {
                expected: "array".to_owned(),
                found: format!("instance of {}", self.class_name(c)),
            }),
        }
    }

    fn array_set(&mut self, arr: Value, idx: Value, value: Value) -> Result<(), VmError> {
        let i = self.expect_int(idx, "array index")?;
        let Value::Obj(o) = arr else {
            return Err(match arr {
                Value::Nil => VmError::NilDereference {
                    context: "array store".to_owned(),
                },
                other => VmError::TypeError {
                    expected: "array".to_owned(),
                    found: other.type_name().to_owned(),
                },
            });
        };
        match self.heap.get(o).kind {
            ObjKind::Array => {
                let len = self.heap.get(o).slots.len();
                if i < 0 || i as usize >= len {
                    return Err(VmError::IndexOutOfBounds { index: i, len });
                }
                let addr = self.heap.get(o).slot_addr(i as usize);
                self.mem_write(addr);
                self.heap.get_mut(o).slots[i as usize] = value;
                Ok(())
            }
            ObjKind::ArrayInline { layout, len } => {
                if i < 0 || i as usize >= len {
                    return Err(VmError::IndexOutOfBounds { index: i, len });
                }
                // Whole-element store: copy the child's fields into the
                // element's inline state (assignment specialization's
                // runtime meaning — paper §5.4).
                if self.sanitizer.is_some() {
                    self.sanitize_interior(o, i as u32, layout, "ArraySet");
                }
                let fields = self.tables.layouts[layout as usize].child_fields.clone();
                for (j, f) in fields.iter().enumerate() {
                    let v = self.get_field(value, *f)?;
                    let slot = self.interior_slot(layout, i as u32, j, len);
                    if self.sanitizer.is_some() {
                        self.checked_access(o, i as u32, layout, j, slot, false, "ArraySet")?;
                    }
                    let addr = self.heap.get(o).slot_addr(slot);
                    let hit = self.mem_write(addr);
                    self.note_inline_access(hit);
                    self.heap.get_mut(o).slots[slot] = v;
                }
                Ok(())
            }
            ObjKind::Instance(c) => Err(VmError::TypeError {
                expected: "array".to_owned(),
                found: format!("instance of {}", self.class_name(c)),
            }),
        }
    }

    // -- operators --------------------------------------------------------------

    fn eval_unary(&mut self, op: UnOp, v: Value) -> Result<Value, VmError> {
        match op {
            UnOp::Neg => match v {
                Value::Int(n) => {
                    self.charge(self.config.cost.arith);
                    Ok(Value::Int(-n))
                }
                Value::Float(x) => {
                    self.charge(self.config.cost.float_arith);
                    Ok(Value::Float(-x))
                }
                other => Err(VmError::TypeError {
                    expected: "number for negation".to_owned(),
                    found: other.type_name().to_owned(),
                }),
            },
            UnOp::Not => {
                self.charge(self.config.cost.arith);
                let b = self.expect_bool(v, "logical not")?;
                Ok(Value::Bool(!b))
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, VmError> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Rem => self.eval_arith(op, l, r),
            Lt | Le | Gt | Ge => self.eval_compare(op, l, r),
            Eq | Ne => {
                self.charge(self.config.cost.arith);
                let same = match (l, r) {
                    (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                        a as f64 == b
                    }
                    _ => l.identical(r),
                };
                if !same && self.sanitizer.is_some() {
                    self.sanitize_identity(l, r);
                }
                Ok(Value::Bool(if op == Eq { same } else { !same }))
            }
            RefEq => {
                self.charge(self.config.cost.arith);
                let same = l.identical(r);
                if !same && self.sanitizer.is_some() {
                    self.sanitize_identity(l, r);
                }
                Ok(Value::Bool(same))
            }
        }
    }

    fn eval_arith(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, VmError> {
        use BinOp::*;
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                self.charge(self.config.cost.arith);
                Ok(Value::Int(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            return Err(VmError::DivisionByZero);
                        }
                        a.wrapping_div(b)
                    }
                    Rem => {
                        if b == 0 {
                            return Err(VmError::DivisionByZero);
                        }
                        a.wrapping_rem(b)
                    }
                    op => {
                        return Err(VmError::Internal {
                            context: format!("{op:?} dispatched to integer arithmetic"),
                        })
                    }
                }))
            }
            (Value::Float(_), _) | (_, Value::Float(_)) => {
                let a = self.as_float(l)?;
                let b = self.as_float(r)?;
                self.charge(self.config.cost.float_arith);
                Ok(Value::Float(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Rem => a % b,
                    op => {
                        return Err(VmError::Internal {
                            context: format!("{op:?} dispatched to float arithmetic"),
                        })
                    }
                }))
            }
            _ => Err(VmError::TypeError {
                expected: "numbers for arithmetic".to_owned(),
                found: format!("{} and {}", l.type_name(), r.type_name()),
            }),
        }
    }

    fn eval_compare(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, VmError> {
        use BinOp::*;
        let ord = match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                self.charge(self.config.cost.arith);
                a.partial_cmp(&b)
            }
            _ => {
                let a = self.as_float(l)?;
                let b = self.as_float(r)?;
                self.charge(self.config.cost.float_arith);
                a.partial_cmp(&b)
            }
        };
        let Some(ord) = ord else {
            // NaN comparisons are false.
            return Ok(Value::Bool(false));
        };
        Ok(Value::Bool(match op {
            Lt => ord.is_lt(),
            Le => ord.is_le(),
            Gt => ord.is_gt(),
            Ge => ord.is_ge(),
            op => {
                return Err(VmError::Internal {
                    context: format!("{op:?} dispatched to comparison"),
                })
            }
        }))
    }

    fn as_float(&self, v: Value) -> Result<f64, VmError> {
        match v {
            Value::Int(n) => Ok(n as f64),
            Value::Float(x) => Ok(x),
            other => Err(VmError::TypeError {
                expected: "number".to_owned(),
                found: other.type_name().to_owned(),
            }),
        }
    }

    fn eval_builtin(&mut self, builtin: Builtin, args: &[Value]) -> Result<Value, VmError> {
        // Every builtin is unary; lowering guarantees the arity, but
        // hand-mutated IR must degrade to an error, not an index panic.
        let [arg] = args else {
            return Err(VmError::Internal {
                context: format!("builtin called with {} argument(s)", args.len()),
            });
        };
        let arg = *arg;
        match builtin {
            Builtin::Sqrt => {
                self.charge(self.config.cost.sqrt);
                Ok(Value::Float(self.as_float(arg)?.sqrt()))
            }
            Builtin::Len => {
                let Value::Obj(o) = arg else {
                    return Err(VmError::TypeError {
                        expected: "array for len".to_owned(),
                        found: arg.type_name().to_owned(),
                    });
                };
                let len = self
                    .heap
                    .get(o)
                    .array_len()
                    .ok_or_else(|| VmError::TypeError {
                        expected: "array for len".to_owned(),
                        found: "object".to_owned(),
                    })?;
                // Length lives in the header word.
                let addr = self.heap.get(o).addr;
                self.mem_read(addr);
                Ok(Value::Int(len as i64))
            }
            Builtin::ToFloat => {
                self.charge(self.config.cost.arith);
                Ok(Value::Float(self.as_float(arg)?))
            }
            Builtin::ToInt => {
                self.charge(self.config.cost.arith);
                match arg {
                    Value::Int(n) => Ok(Value::Int(n)),
                    Value::Float(x) => Ok(Value::Int(x as i64)),
                    other => Err(VmError::TypeError {
                        expected: "number for int()".to_owned(),
                        found: other.type_name().to_owned(),
                    }),
                }
            }
        }
    }

    /// Deterministic, identity-free value formatting so baseline and
    /// transformed programs print byte-identical output.
    fn format_value(&self, v: Value) -> String {
        match v {
            Value::Int(n) => n.to_string(),
            Value::Float(x) => format!("{x:?}"),
            Value::Bool(b) => b.to_string(),
            Value::Nil => "nil".to_owned(),
            Value::Str(s) => self.program.interner.resolve(s).to_owned(),
            Value::Obj(o) => match self.heap.get(o).kind {
                ObjKind::Instance(c) => format!("<{}>", self.class_name(c)),
                ObjKind::Array => format!("<array[{}]>", self.heap.get(o).slots.len()),
                ObjKind::ArrayInline { len, .. } => format!("<array[{len}]>"),
            },
            Value::Interior { layout, .. } => {
                format!(
                    "<{}>",
                    self.class_name(self.tables.layouts[layout.index()].child_class)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_ir::lower::compile;

    fn run_src(src: &str) -> RunResult {
        let p = compile(src).unwrap();
        oi_ir::verify::verify(&p).unwrap();
        run(&p, &VmConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_print() {
        assert_eq!(run_src("fn main() { print 2 + 3 * 4; }").output, "14\n");
        assert_eq!(run_src("fn main() { print 7 / 2; }").output, "3\n");
        assert_eq!(run_src("fn main() { print 7.0 / 2.0; }").output, "3.5\n");
        assert_eq!(run_src("fn main() { print 7 % 3; }").output, "1\n");
        assert_eq!(run_src("fn main() { print -5; }").output, "-5\n");
    }

    #[test]
    fn float_formatting_is_debug_style() {
        assert_eq!(run_src("fn main() { print 2.0; }").output, "2.0\n");
        assert_eq!(run_src("fn main() { print 2.5; }").output, "2.5\n");
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(run_src("fn main() { print 1 < 2; }").output, "true\n");
        assert_eq!(run_src("fn main() { print 1 == 1.0; }").output, "true\n");
        assert_eq!(run_src("fn main() { print !(1 >= 2); }").output, "true\n");
    }

    #[test]
    fn control_flow_loops() {
        let out = run_src(
            "fn main() { var i = 0; var sum = 0;
               while (i < 5) { sum = sum + i; i = i + 1; }
               print sum; }",
        );
        assert_eq!(out.output, "10\n");
    }

    #[test]
    fn objects_fields_and_methods() {
        let out = run_src(
            "class Point { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
               method abs() { return sqrt(self.x * self.x + self.y * self.y); }
             }
             fn main() { var p = new Point(3.0, 4.0); print p.abs(); }",
        );
        assert_eq!(out.output, "5.0\n");
        assert!(out.metrics.allocations >= 1);
        assert!(out.metrics.dyn_dispatches >= 1);
    }

    #[test]
    fn inheritance_and_override() {
        let out = run_src(
            "class A { method tag() { return 1; } method describe() { return self.tag() * 10; } }
             class B : A { method tag() { return 2; } }
             fn main() { var a = new A(); var b = new B(); print a.describe(); print b.describe(); }",
        );
        assert_eq!(out.output, "10\n20\n");
    }

    #[test]
    fn arrays_work() {
        let out = run_src(
            "fn main() {
               var a = array(3);
               a[0] = 5; a[1] = 6; a[2] = 7;
               print a[0] + a[1] + a[2];
               print len(a);
             }",
        );
        assert_eq!(out.output, "18\n3\n");
    }

    #[test]
    fn globals_persist_across_calls() {
        let out = run_src(
            "global G;
             fn bump() { G = G + 1; return G; }
             fn main() { G = 0; bump(); bump(); print bump(); }",
        );
        assert_eq!(out.output, "3\n");
    }

    #[test]
    fn identity_semantics() {
        let out = run_src(
            "class P { field x; }
             fn main() {
               var a = new P(); var b = new P(); var c = a;
               print a === b; print a === c; print a === nil;
             }",
        );
        assert_eq!(out.output, "false\ntrue\nfalse\n");
    }

    #[test]
    fn nil_dereference_is_reported() {
        let p = compile("fn main() { var x = nil; print x.f; }").unwrap();
        let err = run(&p, &VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::NilDereference { .. }));
    }

    #[test]
    fn missing_method_is_reported() {
        let p = compile("class A { } fn main() { var a = new A(); a.nope(); }").unwrap();
        let err = run(&p, &VmConfig::default()).unwrap_err();
        assert_eq!(
            err,
            VmError::NoSuchMethod {
                class: "A".into(),
                selector: "nope".into()
            }
        );
    }

    #[test]
    fn unknown_symbols_are_typed_errors_not_panics() {
        let src = "class A { field x; method m() { return 1; } }
                   fn main() { var a = new A(); print a.x; print a.m(); }";
        let bogus = Symbol::from_raw(u32::MAX);
        let mut p = compile(src).unwrap();
        let main = p.entry;
        for block in p.methods[main].blocks.iter_mut() {
            for instr in &mut block.instrs {
                if let Instr::GetField { field, .. } = instr {
                    *field = bogus;
                }
            }
        }
        let err = run(&p, &VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::NoSuchField { .. }), "{err}");
        let mut p = compile(src).unwrap();
        for block in p.methods[main].blocks.iter_mut() {
            for instr in &mut block.instrs {
                if let Instr::Send { selector, .. } = instr {
                    *selector = bogus;
                }
            }
        }
        // Checked runs resolve `init` and fields through the same tables.
        for checked in [CheckLevel::Off, CheckLevel::Full] {
            let config = VmConfig {
                checked,
                ..Default::default()
            };
            let err = run(&p, &config).unwrap_err();
            assert!(matches!(err, VmError::NoSuchMethod { .. }), "{err}");
        }
    }

    #[test]
    fn index_bounds_checked() {
        let p = compile("fn main() { var a = array(2); print a[5]; }").unwrap();
        let err = run(&p, &VmConfig::default()).unwrap_err();
        assert_eq!(err, VmError::IndexOutOfBounds { index: 5, len: 2 });
    }

    #[test]
    fn division_by_zero_reported() {
        let p = compile("fn main() { print 1 / 0; }").unwrap();
        assert_eq!(
            run(&p, &VmConfig::default()).unwrap_err(),
            VmError::DivisionByZero
        );
    }

    #[test]
    fn instruction_limit_enforced() {
        let p = compile("fn main() { while (true) { } }").unwrap();
        let config = VmConfig {
            max_instructions: 10_000,
            ..Default::default()
        };
        assert_eq!(run(&p, &config).unwrap_err(), VmError::InstructionLimit);
    }

    #[test]
    fn recursion_depth_limited() {
        let p = compile("fn f(n) { return f(n + 1); } fn main() { print f(0); }").unwrap();
        let config = VmConfig {
            max_depth: 64,
            ..Default::default()
        };
        assert_eq!(run(&p, &config).unwrap_err(), VmError::StackOverflow);
    }

    #[test]
    fn heap_word_limit_enforced() {
        let p = compile(
            "class C { field a; field b; }
             fn main() { var i = 0; while (i < 100) { var c = new C(); i = i + 1; } print i; }",
        )
        .unwrap();
        let config = VmConfig {
            max_heap_words: 64,
            ..Default::default()
        };
        assert_eq!(run(&p, &config).unwrap_err(), VmError::OutOfMemory);
    }

    #[test]
    fn unverified_unterminated_block_errors_instead_of_panicking() {
        let mut p = compile("fn main() { print 1; }").unwrap();
        let entry = p.entry;
        let bb = p.methods[entry].entry();
        p.methods[entry].blocks[bb].term = oi_ir::Terminator::Unterminated;
        let err = run(&p, &VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::Internal { .. }), "{err}");
    }

    #[test]
    fn unverified_undersized_frame_errors_instead_of_panicking() {
        let mut p = compile("fn f(a, b) { return a + b; } fn main() { print f(1, 2); }").unwrap();
        // Shrink the callee's frame below self + params.
        let f = p.method_by_name("$Main", "f").unwrap();
        p.methods[f].temp_count = 1;
        let err = run(&p, &VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::Internal { .. }), "{err}");
    }

    #[test]
    fn recursion_works_within_limits() {
        assert_eq!(
            run_src("fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } fn main() { print fact(10); }")
                .output,
            "3628800\n"
        );
    }

    #[test]
    fn metrics_count_memory_traffic() {
        let m = run_src(
            "class C { field v; }
             fn main() { var c = new C(); c.v = 1; print c.v; }",
        )
        .metrics;
        assert!(m.heap_reads >= 1);
        assert!(m.heap_writes >= 1);
        assert_eq!(m.allocations, 1);
        assert!(m.cycles > 0);
    }

    #[test]
    fn cons_list_program() {
        let out = run_src(
            "class Cons { field head; field tail;
               method init(h, t) { self.head = h; self.tail = t; }
             }
             fn sum(l) { var total = 0; var cur = l;
               while (!(cur === nil)) { total = total + cur.head; cur = cur.tail; }
               return total; }
             fn main() {
               var l = new Cons(1, new Cons(2, new Cons(3, nil)));
               print sum(l);
             }",
        );
        assert_eq!(out.output, "6\n");
    }

    #[test]
    fn string_printing() {
        assert_eq!(run_src("fn main() { print \"hello\"; }").output, "hello\n");
    }
}

#[cfg(test)]
mod census_tests {
    use super::*;
    use oi_ir::lower::compile;

    #[test]
    fn census_counts_by_class() {
        let p = compile(
            "class A { } class B { }
             fn main() {
               var x = new A(); var y = new A(); var z = new B();
               var arr = array(3);
               print 1;
             }",
        )
        .unwrap();
        let r = run(&p, &VmConfig::default()).unwrap();
        assert_eq!(r.allocations_of("A"), 2);
        assert_eq!(r.allocations_of("B"), 1);
        assert_eq!(r.allocations_of("<array>"), 1);
        assert_eq!(r.allocations_of("Nope"), 0);
        // Census is sorted by descending count.
        assert!(r.allocation_census.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn heap_census_resolves_names_and_matches_metrics() {
        let p = compile(
            "class A { field x; } class B { }
             fn main() {
               var x = new A(); var y = new A(); var z = new B();
               var arr = array(3);
               print 1;
             }",
        )
        .unwrap();
        let r = run(&p, &VmConfig::default()).unwrap();
        let census = &r.heap_census;
        assert_eq!(census.total_objects, 4);
        assert_eq!(census.total_words, r.metrics.words_allocated);
        // Default config pays 2 header words per object.
        assert_eq!(census.header_words, 4 * 2);
        let a = census.classes.iter().find(|e| e.class == "A").unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.words, 2 * (1 + 2), "one slot + two header words each");
        assert!(census.classes.iter().any(|e| e.class == "<array>"));
        // Sorted by descending word footprint.
        assert!(census.classes.windows(2).all(|w| w[0].words >= w[1].words));
    }

    #[test]
    fn words_allocated_agrees_with_heap_even_with_zero_header_config() {
        // The heap clamps a configured overhead of 0 up to 1 word; the
        // metrics must follow the heap's accounting, not the raw config.
        let p = compile(
            "class A { field x; }
             fn main() { var a = new A(); var arr = array(5); print 1; }",
        )
        .unwrap();
        for header in [0, 1, 2, 3] {
            let config = VmConfig {
                alloc_header_words: header,
                ..Default::default()
            };
            let r = run(&p, &config).unwrap();
            assert_eq!(
                r.metrics.words_allocated, r.heap_census.total_words,
                "metrics vs heap accounting drifted at alloc_header_words = {header}"
            );
        }
    }

    #[test]
    fn heap_census_json_is_schema_stable() {
        use oi_support::Json;
        let p = compile("class A { } fn main() { var a = new A(); print 1; }").unwrap();
        let r = run(&p, &VmConfig::default()).unwrap();
        let doc = Json::parse(&r.heap_census.to_json().to_string()).unwrap();
        for key in [
            "classes",
            "total_objects",
            "total_words",
            "header_words",
            "inline_elements",
        ] {
            assert!(doc.get(key).is_some(), "heap_census.{key} missing");
        }
        let rows = doc.get("classes").and_then(Json::as_arr).unwrap();
        assert!(rows
            .iter()
            .any(|e| e.get("class").and_then(Json::as_str) == Some("A")));
    }

    #[test]
    fn profiling_attributes_every_cycle_and_allocation() {
        let p = compile(
            "class P { field x; method init(a) { self.x = a; }
               method get() { return self.x; }
             }
             fn main() {
               var i = 0;
               var s = 0;
               while (i < 10) { var q = new P(i); s = s + q.get(); i = i + 1; }
               print s;
             }",
        )
        .unwrap();
        let config = VmConfig {
            profile: true,
            ..Default::default()
        };
        let r = run(&p, &config).unwrap();
        let prof = r.profile.expect("profile requested");
        // Attribution is exhaustive: self cycles and site allocations sum
        // to the global metrics.
        let cycles: u64 = prof.methods.iter().map(|m| m.cycles).sum();
        assert_eq!(cycles, r.metrics.cycles);
        let misses: u64 = prof.methods.iter().map(|m| m.cache_misses).sum();
        assert_eq!(misses, r.metrics.cache_misses);
        let allocs: u64 = prof.sites.iter().map(|s| s.allocations).sum();
        assert_eq!(allocs, r.metrics.allocations);
        let hot = prof.sites.first().expect("one hot site");
        assert_eq!(hot.class, "P");
        assert_eq!(hot.allocations, 10);
        assert!(prof
            .methods
            .iter()
            .any(|m| m.name.ends_with("::get") && m.calls == 10));
        // The opcode histogram is exhaustive too: every executed
        // instruction lands in a real opcode bucket, every charged cycle
        // in some bucket (real or pseudo).
        let op_count: u64 = prof
            .opcodes
            .iter()
            .filter(|o| o.name != "branch" && o.name != "other")
            .map(|o| o.count)
            .sum();
        assert_eq!(op_count, r.metrics.instructions);
        let op_cycles: u64 = prof.opcodes.iter().map(|o| o.cycles).sum();
        assert_eq!(op_cycles, r.metrics.cycles);
        // Access sites attribute the field traffic: `P.x` is read by
        // `get()` ten times and written by `init()` ten times.
        let px = prof
            .accesses
            .iter()
            .find(|a| a.class == "P" && a.field == "x" && !a.interior)
            .expect("P.x access site");
        assert_eq!((px.reads, px.writes), (10, 10));
        assert!(px.cycles > 0);
        // And the baseline path carries no profile.
        let r2 = run(&p, &VmConfig::default()).unwrap();
        assert!(r2.profile.is_none());
    }

    #[test]
    fn test_spin_never_perturbs_metrics() {
        let p = compile(
            "class P { field x; method init(a) { self.x = a; } }
             fn main() {
               var i = 0;
               while (i < 5) { var q = new P(i); print q.x; i = i + 1; }
             }",
        )
        .unwrap();
        let plain = run(&p, &VmConfig::default()).unwrap();
        let slowed = run(
            &p,
            &VmConfig {
                test_spin_per_instr: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.metrics, slowed.metrics);
        assert_eq!(plain.output, slowed.output);
    }

    /// Drives a session to completion in fixed fuel slices, returning the
    /// result plus the number of yields and the summed per-slice fuel.
    fn run_sliced(p: &Program, config: &VmConfig, slice: u64) -> (RunResult, u64, u64) {
        let mut session = VmSession::new(p, config).unwrap();
        let (mut yields, mut fuel) = (0u64, 0u64);
        loop {
            match session.run_fuel(p, slice) {
                FuelOutcome::Yielded { fuel_spent } => {
                    assert!(fuel_spent <= slice);
                    yields += 1;
                    fuel += fuel_spent;
                }
                FuelOutcome::Done { fuel_spent, result } => {
                    fuel += fuel_spent;
                    assert!(session.is_finished());
                    assert_eq!(session.instructions_executed(), fuel);
                    return (*result, yields, fuel);
                }
                FuelOutcome::Trapped { error, .. } => panic!("trapped: {error}"),
            }
        }
    }

    #[test]
    fn fuel_slicing_is_observationally_identical_to_one_shot() {
        let p = compile(
            "class P { field x; field y;
               method init(a, b) { self.x = a; self.y = b; }
               method sum() { return self.x + self.y; } }
             fn main() {
               var i = 0; var acc = 0;
               while (i < 40) { var q = new P(i, i * 2); acc = acc + q.sum(); i = i + 1; }
               print acc;
             }",
        )
        .unwrap();
        let config = VmConfig::default();
        let oneshot = run(&p, &config).unwrap();
        // The one-shot fuel total: dispatches (instructions plus block
        // terminators), which is what every sliced run must reconcile to.
        let mut one = VmSession::new(&p, &config).unwrap();
        let FuelOutcome::Done {
            fuel_spent: oneshot_fuel,
            ..
        } = one.run_fuel(&p, u64::MAX)
        else {
            panic!("one-shot session must complete");
        };
        assert!(
            oneshot_fuel > oneshot.metrics.instructions,
            "fuel counts terminators on top of instructions"
        );
        for slice in [1, 7, 64] {
            let (sliced, yields, fuel) = run_sliced(&p, &config, slice);
            assert_eq!(sliced.output, oneshot.output, "slice {slice}");
            assert_eq!(sliced.metrics, oneshot.metrics, "slice {slice}");
            assert_eq!(sliced.allocation_census, oneshot.allocation_census);
            assert_eq!(fuel, oneshot_fuel, "fuel reconciles");
            assert!(yields > 0, "slice {slice} should preempt at least once");
        }
    }

    #[test]
    fn fuel_slicing_preserves_checked_and_profiled_runs() {
        let p = compile(
            "class P { field x; method init(a) { self.x = a; } }
             fn main() {
               var i = 0;
               while (i < 6) { var q = new P(i); print q.x; i = i + 1; }
             }",
        )
        .unwrap();
        let config = VmConfig {
            profile: true,
            checked: CheckLevel::Full,
            ..Default::default()
        };
        let oneshot = run(&p, &config).unwrap();
        let (sliced, _, _) = run_sliced(&p, &config, 5);
        assert_eq!(sliced.metrics, oneshot.metrics);
        assert_eq!(sliced.output, oneshot.output);
        let (a, b) = (sliced.sanitizer.unwrap(), oneshot.sanitizer.unwrap());
        assert_eq!(a.findings.len(), b.findings.len());
        let (pa, pb) = (sliced.profile.unwrap(), oneshot.profile.unwrap());
        assert_eq!(pa.methods.len(), pb.methods.len());
        assert_eq!(pa.opcodes.len(), pb.opcodes.len());
    }

    #[test]
    fn fuel_exhaustion_of_hard_budget_traps_typed() {
        let p = compile("fn main() { var i = 0; while (i >= 0) { i = i + 1; } }").unwrap();
        let config = VmConfig {
            max_instructions: 1_000,
            ..Default::default()
        };
        let mut session = VmSession::new(&p, &config).unwrap();
        let mut fuel = 0;
        let error = loop {
            match session.run_fuel(&p, 64) {
                FuelOutcome::Yielded { fuel_spent } => fuel += fuel_spent,
                FuelOutcome::Trapped { fuel_spent, error } => {
                    fuel += fuel_spent;
                    break error;
                }
                FuelOutcome::Done { .. } => panic!("infinite loop finished"),
            }
        };
        assert_eq!(error, VmError::InstructionLimit);
        assert!(error.is_resource_limit());
        assert_eq!(fuel, 1_000, "trap lands exactly on the budget");
        assert_eq!(session.instructions_executed(), 1_000);
    }

    #[test]
    fn fuel_session_misuse_traps_instead_of_panicking() {
        let p = compile("fn main() { print 1; }").unwrap();
        let config = VmConfig::default();
        // Resuming a finished session.
        let mut session = VmSession::new(&p, &config).unwrap();
        assert!(matches!(
            session.run_fuel(&p, u64::MAX),
            FuelOutcome::Done { .. }
        ));
        assert!(matches!(
            session.run_fuel(&p, 1),
            FuelOutcome::Trapped {
                error: VmError::Internal { .. },
                ..
            }
        ));
        // Resuming against a different program.
        let other = compile("fn main() { print 2; }").unwrap();
        let mut session = VmSession::new(&p, &config).unwrap();
        assert!(matches!(
            session.run_fuel(&other, 1),
            FuelOutcome::Trapped {
                error: VmError::Internal { .. },
                ..
            }
        ));
    }

    #[test]
    fn zero_fuel_slice_yields_without_progress() {
        let p = compile("fn main() { print 1; }").unwrap();
        let config = VmConfig::default();
        let mut session = VmSession::new(&p, &config).unwrap();
        match session.run_fuel(&p, 0) {
            FuelOutcome::Yielded { fuel_spent } => assert_eq!(fuel_spent, 0),
            other => panic!("expected yield, got {other:?}"),
        }
        assert!(matches!(
            session.run_fuel(&p, u64::MAX),
            FuelOutcome::Done { .. }
        ));
    }
}
