//! The instrumented interpreter.

use crate::cache::{CacheConfig, CacheSim};
use crate::cost::CostModel;
use crate::decode::{Code, Key, MethodCode, Op, MISSING};
use crate::error::VmError;
use crate::heap::{Heap, HeapCensus, ObjKind};
use crate::metrics::Metrics;
use crate::sanitizer::{CheckLevel, Sanitizer, SanitizerReport};
use crate::tables::{compose, resolve_layouts, ResolvedLayout};
use crate::value::{ObjId, Value};
use oi_ir::{BinOp, Builtin, ClassId, Instr, LayoutId, MethodId, Program, SiteId, UnOp};
use oi_support::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// The parked interpreter; `None` once finished (done or trapped).
    vm: Option<Vm>,
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
        vm.enter(program.entry)?;
        Ok(VmSession {
            vm: Some(vm),
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
        let Some(mut vm) = self.vm.take() else {
            return FuelOutcome::Trapped {
                fuel_spent: 0,
                error: VmError::Internal {
                    context: "fuel slice on a finished session".to_owned(),
                },
            };
        };
        let budget = vm.instr_budget;
        let mut quota = fuel.min(budget);
        let granted = quota;
        let end = vm.drive(program, &mut quota);
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
                result: Box::new(vm.finish(program)),
            },
            Ok(StepEnd::OutOfFuel) => {
                if vm.instr_budget == 0 {
                    FuelOutcome::Trapped {
                        fuel_spent,
                        error: VmError::InstructionLimit,
                    }
                } else {
                    self.vm = Some(vm);
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
        self.vm.is_none()
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

/// Names for the per-opcode dispatch histogram, indexed by the `OP_*`
/// slots below. The last two are pseudo-opcodes: `branch` receives
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
const OP_CONST: usize = 0;
const OP_MOVE: usize = 1;
const OP_UNARY: usize = 2;
const OP_BINARY: usize = 3;
const OP_NEW: usize = 4;
const OP_NEW_ARRAY: usize = 5;
const OP_NEW_ARRAY_INLINE: usize = 6;
const OP_GET_FIELD: usize = 7;
const OP_SET_FIELD: usize = 8;
const OP_ARRAY_GET: usize = 9;
const OP_ARRAY_SET: usize = 10;
const OP_GET_GLOBAL: usize = 11;
const OP_SET_GLOBAL: usize = 12;
const OP_SEND: usize = 13;
const OP_CALL_STATIC: usize = 14;
const OP_CALL_BUILTIN: usize = 15;
const OP_MAKE_INTERIOR: usize = 16;
const OP_MAKE_INTERIOR_ELEM: usize = 17;
const OP_PRINT: usize = 18;
/// Pseudo-opcode index for block-terminator (branch) charges.
const OP_BRANCH: usize = 19;
/// Pseudo-opcode index for charges outside any dispatch.
const OP_OTHER: usize = 20;

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

/// The parts of an interior reference: its container, the element index
/// (0 in an object container) and the resolved layout.
#[derive(Clone, Copy)]
struct Interior {
    obj: ObjId,
    index: u32,
    layout: u32,
}

impl Interior {
    fn value(self) -> Value {
        Value::Interior {
            obj: self.obj,
            index: self.index,
            layout: LayoutId::new(self.layout as usize),
        }
    }
}

/// One activation record on the explicit call stack. Frames replace host
/// recursion so the interpreter can suspend mid-call-stack: a parked frame
/// holds plain indices, never borrows. Its temps are the value stack from
/// `base` up to the temps of the frame it called, if any.
struct Frame {
    /// Index of the next op to dispatch in [`Code::ops`].
    ip: usize,
    /// Where the frame's temps start in the value stack.
    base: usize,
    /// Caller temp receiving the return value (`None` discards it — the
    /// implicit constructor call from `New`, and the entry frame).
    ret: Option<u32>,
}

/// Why [`Vm::drive`] stopped without an error.
enum StepEnd {
    /// Frame stack drained: the program completed.
    Done,
    /// Quota hit zero with frames still live.
    OutOfFuel,
}

/// The interpreter: everything a run owns. Every method that reads the
/// program takes it as an argument, so a [`VmSession`] parks the `Vm`
/// itself between fuel slices, holding no borrow.
struct Vm {
    config: VmConfig,
    heap: Heap,
    cache: CacheSim,
    metrics: Metrics,
    output: String,
    globals: Vec<Value>,
    /// The program decoded for this run: flat ops, resolved names.
    code: Arc<Code>,
    /// Resolved layouts; indices below `program.layouts.len()` mirror the
    /// program table, later entries are composed while running.
    layouts: Vec<ResolvedLayout>,
    /// Explicit call stack; its length is the interpreter call depth.
    frames: Vec<Frame>,
    /// Every live frame's temps, the top frame's last.
    stack: Vec<Value>,
    instr_budget: u64,
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

impl Vm {
    fn new(program: &Program, config: &VmConfig) -> Self {
        Self {
            config: *config,
            heap: Heap::new(config.max_heap_words, config.alloc_header_words),
            cache: CacheSim::new(config.cache),
            metrics: Metrics::default(),
            output: String::new(),
            globals: vec![Value::Nil; program.globals.len()],
            code: Arc::new(Code::new(program)),
            layouts: resolve_layouts(program),
            frames: Vec::new(),
            stack: Vec::new(),
            instr_budget: config.max_instructions,
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

    /// Consumes a completed interpreter into its [`RunResult`].
    fn finish(mut self, program: &Program) -> RunResult {
        let profile = self
            .profile
            .take()
            .map(|state| build_profile(program, &state));
        // The heap never frees, so its census counts every allocation.
        let heap_census = HeapCensusReport::resolve(&self.heap.census(), program);
        let mut census: Vec<(String, u64)> = heap_census
            .classes
            .iter()
            .map(|e| (e.class.clone(), e.count))
            .collect();
        census.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
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
    //
    // Every helper the dispatch loop reaches that reads `profile`,
    // `sanitizer` or `mstack` takes `OBSERVED`. With `OBSERVED = false` its
    // hooks compile away; that instantiation is correct only while both
    // `profile` and `sanitizer` are `None`, which `Vm::drive` checks once
    // per slice. `OBSERVED = true` is correct always.

    /// Charges `cycles` and, when profiling, attributes them to the active
    /// method and opcode.
    #[inline(always)]
    fn charge<const OBSERVED: bool>(&mut self, cycles: u64) {
        self.metrics.cycles += cycles;
        if !OBSERVED {
            return;
        }
        if let Some(p) = &mut self.profile {
            if let Some(&m) = self.mstack.last() {
                p.method_cycles[m.index()] += cycles;
            }
            p.opcode_cycles[self.cur_op] += cycles;
        }
    }

    /// Counts the dispatch of one instruction in histogram slot `op`
    /// (profiling only; [`Vm::drive`] derives `instructions`).
    #[inline(always)]
    fn dispatched<const OBSERVED: bool>(&mut self, op: usize) {
        if !OBSERVED {
            return;
        }
        if let Some(p) = &mut self.profile {
            p.opcode_counts[op] += 1;
            self.cur_op = op;
        }
    }

    /// Counts and charges the dispatch of one block terminator.
    #[inline(always)]
    fn branched<const OBSERVED: bool>(&mut self) {
        self.dispatched::<OBSERVED>(OP_BRANCH);
        self.charge::<OBSERVED>(self.config.cost.branch);
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
    #[inline(always)]
    fn mem_read<const OBSERVED: bool>(&mut self, addr: u64) -> bool {
        self.metrics.heap_reads += 1;
        self.charge::<OBSERVED>(self.config.cost.heap_read);
        self.cache_probe::<OBSERVED>(addr)
    }

    /// A heap write at `addr`: base cost + cache penalty (allocate-on-write).
    /// Returns whether the access hit the cache.
    #[inline(always)]
    fn mem_write<const OBSERVED: bool>(&mut self, addr: u64) -> bool {
        self.metrics.heap_writes += 1;
        self.charge::<OBSERVED>(self.config.cost.heap_write);
        self.cache_probe::<OBSERVED>(addr)
    }

    /// The cache half of a heap access: counts the hit or charges the miss.
    #[inline(always)]
    fn cache_probe<const OBSERVED: bool>(&mut self, addr: u64) -> bool {
        if self.cache.access(addr) {
            self.metrics.cache_hits += 1;
            true
        } else {
            self.metrics.cache_misses += 1;
            if OBSERVED {
                self.profile_miss();
            }
            self.charge::<OBSERVED>(self.config.cost.cache_miss);
            false
        }
    }

    /// Records an access to inline child state (through an interior
    /// reference) and whether it was served by the cache — the per-run
    /// locality evidence that colocated state shares lines with its
    /// container.
    #[inline(always)]
    fn note_inline_access(&mut self, hit: bool) {
        self.metrics.inline_child_accesses += 1;
        if hit {
            self.metrics.inline_child_hits += 1;
        }
    }

    // -- layout machinery ---------------------------------------------------

    /// Container slot index for child field `j` of the interior reference
    /// `at`.
    #[inline(always)]
    fn interior_slot(&self, at: Interior, j: usize) -> usize {
        let elem_len = self.heap.get(at.obj).array_len().unwrap_or(0);
        self.layouts[at.layout as usize].slot(j, at.index, elem_len)
    }

    /// Forms the interior reference `&container.<layout>`: address
    /// arithmetic, charged as one `lea`.
    #[inline(always)]
    fn make_interior<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        container: Value,
        layout: u32,
    ) -> Result<Interior, VmError> {
        self.metrics.interior_refs += 1;
        self.charge::<OBSERVED>(self.config.cost.lea);
        let interior = match container {
            Value::Obj(obj) => Interior {
                obj,
                index: 0,
                layout,
            },
            Value::Interior {
                obj,
                index,
                layout: outer,
            } => Interior {
                obj,
                index,
                layout: compose(
                    &mut self.layouts,
                    program,
                    outer.index() as u32,
                    LayoutId::new(layout as usize),
                ),
            },
            Value::Nil => {
                return Err(VmError::NilDereference {
                    context: "interior reference".to_owned(),
                })
            }
            other => {
                return Err(VmError::TypeError {
                    expected: "object container".to_owned(),
                    found: other.type_name().to_owned(),
                })
            }
        };
        if OBSERVED && self.sanitizer.is_some() {
            self.sanitize_interior(program, interior, "MakeInterior");
        }
        Ok(interior)
    }

    /// Forms the interior reference `&arr[idx].<layout>`, bounds-checked.
    #[inline(always)]
    fn make_interior_elem<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        arr: Value,
        idx: Value,
        layout: u32,
    ) -> Result<Interior, VmError> {
        self.metrics.interior_refs += 1;
        self.charge::<OBSERVED>(self.config.cost.lea);
        let i = self.expect_int(idx, "inline element index")?;
        let Value::Obj(obj) = arr else {
            return Err(match arr {
                Value::Nil => VmError::NilDereference {
                    context: "interior array reference".to_owned(),
                },
                other => VmError::TypeError {
                    expected: "array container".to_owned(),
                    found: other.type_name().to_owned(),
                },
            });
        };
        let len = self.heap.get(obj).array_len().unwrap_or(0);
        if i < 0 || i as usize >= len {
            return Err(VmError::IndexOutOfBounds { index: i, len });
        }
        let interior = Interior {
            obj,
            index: i as u32,
            layout,
        };
        if OBSERVED && self.sanitizer.is_some() {
            self.sanitize_interior(program, interior, "MakeInteriorElem");
        }
        Ok(interior)
    }

    // -- checked execution --------------------------------------------------

    /// Validates the establishment of an interior reference (checked mode).
    fn sanitize_interior(&mut self, program: &Program, at: Interior, instruction: &'static str) {
        let method = self.mstack.last().copied();
        if let Some(san) = &mut self.sanitizer {
            san.on_interior(
                program,
                &self.heap,
                &self.layouts,
                method,
                instruction,
                at.obj,
                at.index,
                at.layout,
            );
        }
    }

    /// Validates one resolved interior access (checked mode). Errors when
    /// the access resolves outside the container — the one condition the
    /// unchecked interpreter could not survive either.
    fn checked_access(
        &mut self,
        program: &Program,
        at: Interior,
        j: usize,
        slot: usize,
        is_read: bool,
        instruction: &'static str,
    ) -> Result<(), VmError> {
        let method = self.mstack.last().copied();
        if let Some(san) = &mut self.sanitizer {
            san.on_access(
                program,
                &self.heap,
                &self.layouts,
                method,
                instruction,
                at.obj,
                at.index,
                at.layout,
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
    fn sanitize_identity(&mut self, program: &Program, l: Value, r: Value) {
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
                        program,
                        &self.heap,
                        &self.layouts,
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

    fn class_of(&self, v: Value) -> Option<ClassId> {
        match v {
            Value::Obj(o) => match self.heap.get(o).kind {
                ObjKind::Instance(c) => Some(c),
                _ => None,
            },
            Value::Interior { layout, .. } => Some(self.layouts[layout.index()].child_class),
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

    /// Child field `name`'s index in the (possibly composed) layout of an
    /// interior reference, found by search.
    fn child_field(&self, layout: u32, name: Symbol) -> Option<usize> {
        self.layouts[layout as usize]
            .child_fields
            .iter()
            .position(|&f| f == name)
    }

    #[inline(always)]
    fn get_field<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        recv: Value,
        field: Key,
    ) -> Result<Value, VmError> {
        match recv {
            Value::Obj(o) => {
                let obj = self.heap.get(o);
                let ObjKind::Instance(c) = obj.kind else {
                    return Err(VmError::NoSuchField {
                        class: "array".to_owned(),
                        field: sym_name(program, field.name),
                    });
                };
                let slot = self
                    .code
                    .field_slot(c, field.key)
                    .ok_or_else(|| no_such_field(program, c, field.name))?;
                let addr = obj.slot_addr(slot);
                let hit = self.mem_read::<OBSERVED>(addr);
                self.profile_access::<OBSERVED>(c, field.name, false, false, hit);
                Ok(self.heap.get(o).slots[slot])
            }
            Value::Interior { obj, index, layout } => {
                let at = Interior {
                    obj,
                    index,
                    layout: layout.index() as u32,
                };
                let child = self.layouts[at.layout as usize].child_class;
                let j = self
                    .child_field(at.layout, field.name)
                    .ok_or_else(|| no_such_field(program, child, field.name))?;
                let slot = self.interior_slot(at, j);
                if OBSERVED && self.sanitizer.is_some() {
                    self.checked_access(program, at, j, slot, true, "GetField")?;
                }
                let addr = self.heap.get(obj).slot_addr(slot);
                let hit = self.mem_read::<OBSERVED>(addr);
                self.note_inline_access(hit);
                self.profile_access::<OBSERVED>(child, field.name, true, false, hit);
                Ok(self.heap.get(obj).slots[slot])
            }
            Value::Nil => Err(VmError::NilDereference {
                context: format!("field access `{}`", sym_name(program, field.name)),
            }),
            other => Err(VmError::TypeError {
                expected: "object for field access".to_owned(),
                found: other.type_name().to_owned(),
            }),
        }
    }

    #[inline(always)]
    fn set_field<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        recv: Value,
        field: Key,
        value: Value,
    ) -> Result<(), VmError> {
        match recv {
            Value::Obj(o) => {
                let obj = self.heap.get(o);
                let ObjKind::Instance(c) = obj.kind else {
                    return Err(VmError::NoSuchField {
                        class: "array".to_owned(),
                        field: sym_name(program, field.name),
                    });
                };
                let slot = self
                    .code
                    .field_slot(c, field.key)
                    .ok_or_else(|| no_such_field(program, c, field.name))?;
                let addr = obj.slot_addr(slot);
                let hit = self.mem_write::<OBSERVED>(addr);
                self.profile_access::<OBSERVED>(c, field.name, false, true, hit);
                let obj = self.heap.get_mut(o);
                obj.slots[slot] = value;
                if OBSERVED {
                    if let Some(san) = &mut self.sanitizer {
                        san.on_direct_write(o, slot, obj.slots.len());
                    }
                }
                Ok(())
            }
            Value::Interior { obj, index, layout } => {
                let at = Interior {
                    obj,
                    index,
                    layout: layout.index() as u32,
                };
                let child = self.layouts[at.layout as usize].child_class;
                let j = self
                    .child_field(at.layout, field.name)
                    .ok_or_else(|| no_such_field(program, child, field.name))?;
                let slot = self.interior_slot(at, j);
                if OBSERVED && self.sanitizer.is_some() {
                    self.checked_access(program, at, j, slot, false, "SetField")?;
                }
                let addr = self.heap.get(obj).slot_addr(slot);
                let hit = self.mem_write::<OBSERVED>(addr);
                self.note_inline_access(hit);
                self.profile_access::<OBSERVED>(child, field.name, true, true, hit);
                self.heap.get_mut(obj).slots[slot] = value;
                Ok(())
            }
            Value::Nil => Err(VmError::NilDereference {
                context: format!("field store `{}`", sym_name(program, field.name)),
            }),
            other => Err(VmError::TypeError {
                expected: "object for field store".to_owned(),
                found: other.type_name().to_owned(),
            }),
        }
    }

    // -- allocation ----------------------------------------------------------

    fn alloc_instance<const OBSERVED: bool>(
        &mut self,
        class: ClassId,
        site: SiteId,
    ) -> Result<ObjId, VmError> {
        let size = self.code.class_sizes[class.index()];
        let id = self.heap.alloc(ObjKind::Instance(class), size)?;
        // Use the heap's effective (clamped) overhead so `words_allocated`
        // in the metrics agrees with the bump allocator's own accounting.
        let overhead = self.heap.header_words();
        self.metrics.allocations += 1;
        self.metrics.words_allocated += size as u64 + overhead;
        if OBSERVED {
            self.profile_alloc(site, size as u64 + overhead);
        }
        self.charge::<OBSERVED>(
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
    #[inline(always)]
    fn profile_access<const OBSERVED: bool>(
        &mut self,
        class: ClassId,
        field: Symbol,
        interior: bool,
        is_write: bool,
        hit: bool,
    ) {
        if OBSERVED && self.profile.is_some() {
            self.record_access(class, field, interior, is_write, hit);
        }
    }

    fn record_access(
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

    fn alloc_array<const OBSERVED: bool>(
        &mut self,
        kind: ObjKind,
        slots: usize,
        site: SiteId,
    ) -> Result<ObjId, VmError> {
        let id = self.heap.alloc(kind, slots)?;
        let overhead = self.heap.header_words();
        self.metrics.allocations += 1;
        self.metrics.words_allocated += slots as u64 + overhead;
        if OBSERVED {
            self.profile_alloc(site, slots as u64 + overhead);
        }
        self.charge::<OBSERVED>(
            self.config.cost.alloc_base + self.config.cost.alloc_word * (slots as u64 + overhead),
        );
        Ok(id)
    }

    /// An array length operand, checked non-negative.
    fn length(&self, len: Value) -> Result<usize, VmError> {
        let n = self.expect_int(len, "array length")?;
        if n < 0 {
            return Err(VmError::TypeError {
                expected: "non-negative array length".to_owned(),
                found: n.to_string(),
            });
        }
        Ok(n as usize)
    }

    // -- calls ----------------------------------------------------------------

    /// Pushes a callee activation record: the limit check, the frame's
    /// temps, and the profiling and sanitizer entry hooks. Its receiver is
    /// `recv` and its arguments the caller's temps `args`, read from the
    /// caller's frame at `caller`. `max_depth` is enforced here — the
    /// single frame-push site — as a typed [`VmError::StackOverflow`], and
    /// the explicit stack means a hostile guest can never exhaust the host
    /// thread's stack.
    fn push_frame<const OBSERVED: bool>(
        &mut self,
        stack: &mut Vec<Value>,
        method: MethodId,
        recv: Value,
        caller: usize,
        args: &[u32],
        ret: Option<u32>,
    ) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_depth {
            return Err(VmError::StackOverflow);
        }
        let MethodCode {
            entry,
            temps,
            params,
        } = self.code.methods[method.index()];
        debug_assert_eq!(args.len(), params as usize);
        let temps = temps as usize;
        // Verified IR guarantees `temp_count >= params + self`; unverified
        // IR must not be able to panic the host.
        if temps < args.len() + 1 {
            return Err(VmError::Internal {
                context: format!(
                    "frame of {temps} temp(s) cannot hold self plus {} argument(s)",
                    args.len()
                ),
            });
        }
        let base = stack.len();
        stack.resize(base + temps, Value::Nil);
        stack[base] = recv;
        for (k, &a) in args.iter().enumerate() {
            stack[base + 1 + k] = stack[caller + a as usize];
        }
        if OBSERVED {
            if let Some(p) = &mut self.profile {
                p.method_calls[method.index()] += 1;
            }
            if self.profile.is_some() || self.sanitizer.is_some() {
                self.mstack.push(method);
            }
        }
        // A child constructor starting on an interior receiver marks its
        // region constructed: from this point the child object exists in
        // baseline semantics (`new` allocates before `init` runs), so its
        // unset fields read as legal nil, not poison.
        if OBSERVED && self.sanitizer.is_some() {
            if let Value::Interior { obj, index, layout } = recv {
                let lid = layout.index() as u32;
                let child = self.layouts[lid as usize].child_class;
                if self.code.init[child.index()] == Some(method) {
                    if let Some(san) = &mut self.sanitizer {
                        san.on_ctor_enter(&self.layouts, &self.heap, obj, index, lid);
                    }
                }
            }
        }
        self.frames.push(Frame {
            ip: entry as usize,
            base,
            ret,
        });
        Ok(())
    }

    /// Pushes the entry frame of `program`.
    fn enter(&mut self, method: MethodId) -> Result<(), VmError> {
        let mut stack = std::mem::take(&mut self.stack);
        let pushed = self.push_frame::<true>(&mut stack, method, Value::Nil, 0, &[], None);
        self.stack = stack;
        pushed
    }

    /// The method a send of `selector` to `recv` runs.
    fn resolve_send(
        &self,
        program: &Program,
        recv: Value,
        selector: Key,
    ) -> Result<MethodId, VmError> {
        let class = self.class_of(recv).ok_or_else(|| match recv {
            Value::Nil => VmError::NilDereference {
                context: format!("send of `{}`", sym_name(program, selector.name)),
            },
            other => VmError::TypeError {
                expected: "object receiver".to_owned(),
                found: other.type_name().to_owned(),
            },
        })?;
        self.code
            .target(class, selector.key)
            .ok_or_else(|| VmError::NoSuchMethod {
                class: class_name(program, class),
                selector: sym_name(program, selector.name),
            })
    }

    /// Records where the top frame resumes.
    #[inline(always)]
    fn park(&mut self, ip: usize) {
        if let Some(f) = self.frames.last_mut() {
            f.ip = ip;
        }
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
    fn drive(&mut self, program: &Program, quota: &mut u64) -> Result<StepEnd, VmError> {
        // The stack moves out of `self` for the slice so dispatch can
        // borrow the top frame's temps alongside `self`.
        let mut stack = std::mem::take(&mut self.stack);
        let code = Arc::clone(&self.code);
        // The loop's two counters are locals here so that, with the loop
        // inlined, they live in registers rather than memory.
        let (granted, mut left, mut terminators) = (*quota, *quota, 0);
        // One loop body, compiled twice: a plain run pays for no hooks.
        let end = if self.profile.is_none() && self.sanitizer.is_none() {
            self.dispatch::<false>(program, &code, &mut stack, &mut left, &mut terminators)
        } else {
            self.dispatch::<true>(program, &code, &mut stack, &mut left, &mut terminators)
        };
        self.stack = stack;
        *quota = left;
        // Every dispatch is an instruction or a terminator.
        self.metrics.instructions += granted - left - terminators;
        end
    }

    /// The dispatch loop of [`Vm::drive`]: spends `quota`, and counts the
    /// terminators it dispatches in `terminators`.
    #[inline(always)]
    fn dispatch<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        code: &Code,
        stack: &mut Vec<Value>,
        quota: &mut u64,
        terminators: &mut u64,
    ) -> Result<StepEnd, VmError> {
        let cost = self.config.cost;
        let ops = &code.ops[..];
        'frames: while let Some(frame) = self.frames.last() {
            let base = frame.base;
            let mut ip = frame.ip;
            let locals = &mut stack[base..];
            loop {
                if *quota == 0 {
                    self.park(ip);
                    return Ok(StepEnd::OutOfFuel);
                }
                *quota -= 1;
                let op = &ops[ip];
                ip += 1;
                match *op {
                    Op::Const { dst, value } => {
                        self.dispatched::<OBSERVED>(OP_CONST);
                        // Moves are free by default (see `CostModel::mov`),
                        // and a zero charge changes no counter.
                        if cost.mov != 0 {
                            self.charge::<OBSERVED>(cost.mov);
                        }
                        locals[dst as usize] = value;
                    }
                    Op::Move { dst, src } => {
                        self.dispatched::<OBSERVED>(OP_MOVE);
                        if cost.mov != 0 {
                            self.charge::<OBSERVED>(cost.mov);
                        }
                        locals[dst as usize] = locals[src as usize];
                    }
                    Op::Unary { dst, op, src } => {
                        self.dispatched::<OBSERVED>(OP_UNARY);
                        locals[dst as usize] =
                            self.eval_unary::<OBSERVED>(op, locals[src as usize])?;
                    }
                    Op::Binary { dst, op, lhs, rhs } => {
                        self.dispatched::<OBSERVED>(OP_BINARY);
                        let (l, r) = (locals[lhs as usize], locals[rhs as usize]);
                        locals[dst as usize] = self.eval_binary::<OBSERVED>(program, op, l, r)?;
                    }
                    Op::New {
                        dst,
                        class,
                        site,
                        args,
                        init,
                    } => {
                        self.dispatched::<OBSERVED>(OP_NEW);
                        let id = self.alloc_instance::<OBSERVED>(class, site)?;
                        locals[dst as usize] = Value::Obj(id);
                        if init != MISSING {
                            let args = code.args(args);
                            self.metrics.static_calls += 1;
                            self.charge::<OBSERVED>(
                                cost.static_call + cost.call_arg * args.len() as u64,
                            );
                            self.park(ip);
                            let init = MethodId::new(init as usize);
                            self.push_frame::<OBSERVED>(
                                stack,
                                init,
                                Value::Obj(id),
                                base,
                                args,
                                None,
                            )?;
                            continue 'frames;
                        }
                    }
                    Op::NewArray { dst, len, site } => {
                        self.dispatched::<OBSERVED>(OP_NEW_ARRAY);
                        let n = self.length(locals[len as usize])?;
                        let id = self.alloc_array::<OBSERVED>(ObjKind::Array, n, site)?;
                        locals[dst as usize] = Value::Obj(id);
                    }
                    Op::NewArrayInline {
                        dst,
                        len,
                        layout,
                        site,
                    } => {
                        self.dispatched::<OBSERVED>(OP_NEW_ARRAY_INLINE);
                        let n = self.length(locals[len as usize])?;
                        let width = self.layouts[layout as usize].child_fields.len();
                        let kind = ObjKind::ArrayInline { layout, len: n };
                        let id = self.alloc_array::<OBSERVED>(kind, n * width, site)?;
                        locals[dst as usize] = Value::Obj(id);
                    }
                    Op::GetField { dst, obj, field } => {
                        self.dispatched::<OBSERVED>(OP_GET_FIELD);
                        locals[dst as usize] =
                            self.get_field::<OBSERVED>(program, locals[obj as usize], field)?;
                    }
                    Op::SetField { obj, field, src } => {
                        self.dispatched::<OBSERVED>(OP_SET_FIELD);
                        let (o, v) = (locals[obj as usize], locals[src as usize]);
                        self.set_field::<OBSERVED>(program, o, field, v)?;
                    }
                    Op::ArrayGet { dst, arr, idx } => {
                        self.dispatched::<OBSERVED>(OP_ARRAY_GET);
                        let (a, i) = (locals[arr as usize], locals[idx as usize]);
                        locals[dst as usize] = self.array_get::<OBSERVED>(program, a, i)?;
                    }
                    Op::ArraySet { arr, idx, src } => {
                        self.dispatched::<OBSERVED>(OP_ARRAY_SET);
                        let (a, i) = (locals[arr as usize], locals[idx as usize]);
                        self.array_set::<OBSERVED>(program, code, a, i, locals[src as usize])?;
                    }
                    Op::GetGlobal { dst, global } => {
                        self.dispatched::<OBSERVED>(OP_GET_GLOBAL);
                        // Globals live in a dedicated segment; model the load.
                        self.mem_read::<OBSERVED>((1 << 40) + global as u64 * crate::heap::WORD);
                        locals[dst as usize] = self.globals[global as usize];
                    }
                    Op::SetGlobal { global, src } => {
                        self.dispatched::<OBSERVED>(OP_SET_GLOBAL);
                        self.mem_write::<OBSERVED>((1 << 40) + global as u64 * crate::heap::WORD);
                        self.globals[global as usize] = locals[src as usize];
                    }
                    Op::Send {
                        dst,
                        recv,
                        selector,
                        args,
                    } => {
                        self.dispatched::<OBSERVED>(OP_SEND);
                        let r = locals[recv as usize];
                        let target = self.resolve_send(program, r, selector)?;
                        let args = code.args(args);
                        self.metrics.dyn_dispatches += 1;
                        self.charge::<OBSERVED>(
                            cost.dyn_dispatch + cost.call_arg * args.len() as u64,
                        );
                        self.park(ip);
                        self.push_frame::<OBSERVED>(stack, target, r, base, args, Some(dst))?;
                        continue 'frames;
                    }
                    Op::CallStatic {
                        dst,
                        recv,
                        method,
                        args,
                    } => {
                        self.dispatched::<OBSERVED>(OP_CALL_STATIC);
                        let r = locals[recv as usize];
                        let args = code.args(args);
                        self.metrics.static_calls += 1;
                        self.charge::<OBSERVED>(
                            cost.static_call + cost.call_arg * args.len() as u64,
                        );
                        self.park(ip);
                        self.push_frame::<OBSERVED>(stack, method, r, base, args, Some(dst))?;
                        continue 'frames;
                    }
                    Op::CallBuiltin { dst, builtin, args } => {
                        self.dispatched::<OBSERVED>(OP_CALL_BUILTIN);
                        // Every builtin is unary; lowering guarantees the
                        // arity, but hand-mutated IR must degrade to an
                        // error, not an index panic.
                        let &[arg] = code.args(args) else {
                            return Err(VmError::Internal {
                                context: format!(
                                    "builtin called with {} argument(s)",
                                    code.args(args).len()
                                ),
                            });
                        };
                        locals[dst as usize] =
                            self.eval_builtin::<OBSERVED>(builtin, locals[arg as usize])?;
                    }
                    Op::MakeInterior { dst, obj, layout } => {
                        self.dispatched::<OBSERVED>(OP_MAKE_INTERIOR);
                        let at =
                            self.make_interior::<OBSERVED>(program, locals[obj as usize], layout)?;
                        locals[dst as usize] = at.value();
                    }
                    Op::MakeInteriorElem {
                        dst,
                        arr,
                        idx,
                        layout,
                    } => {
                        self.dispatched::<OBSERVED>(OP_MAKE_INTERIOR_ELEM);
                        let (a, i) = (locals[arr as usize], locals[idx as usize]);
                        let at = self.make_interior_elem::<OBSERVED>(program, a, i, layout)?;
                        locals[dst as usize] = at.value();
                    }
                    Op::Print { src } => {
                        self.dispatched::<OBSERVED>(OP_PRINT);
                        self.charge::<OBSERVED>(cost.print);
                        let text = self.format_value(program, locals[src as usize]);
                        self.output.push_str(&text);
                        self.output.push('\n');
                    }
                    Op::Jump { target } => {
                        *terminators += 1;
                        self.branched::<OBSERVED>();
                        ip = target as usize;
                    }
                    Op::Branch {
                        cond,
                        then_ip,
                        else_ip,
                    } => {
                        *terminators += 1;
                        self.branched::<OBSERVED>();
                        let c = self.expect_bool(locals[cond as usize], "branch condition")?;
                        ip = if c { then_ip } else { else_ip } as usize;
                    }
                    Op::Return { src } => {
                        *terminators += 1;
                        self.branched::<OBSERVED>();
                        let v = locals[src as usize];
                        let Some(done) = self.frames.pop() else {
                            return Ok(StepEnd::Done);
                        };
                        stack.truncate(done.base);
                        if OBSERVED && (self.profile.is_some() || self.sanitizer.is_some()) {
                            self.mstack.pop();
                        }
                        match self.frames.last() {
                            Some(caller) => {
                                if let Some(dst) = done.ret {
                                    stack[caller.base + dst as usize] = v;
                                }
                            }
                            None => return Ok(StepEnd::Done),
                        }
                        continue 'frames;
                    }
                    Op::Unterminated => {
                        *terminators += 1;
                        self.branched::<OBSERVED>();
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

    // -- arrays ---------------------------------------------------------------

    #[inline(always)]
    fn array_get<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        arr: Value,
        idx: Value,
    ) -> Result<Value, VmError> {
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
                self.mem_read::<OBSERVED>(addr);
                Ok(self.heap.get(o).slots[i as usize])
            }
            ObjKind::ArrayInline { layout, len } => {
                if i < 0 || i as usize >= len {
                    return Err(VmError::IndexOutOfBounds { index: i, len });
                }
                // Whole-element read of an inline array degrades gracefully
                // to an interior reference (address arithmetic).
                self.metrics.interior_refs += 1;
                self.charge::<OBSERVED>(self.config.cost.lea);
                let at = Interior {
                    obj: o,
                    index: i as u32,
                    layout,
                };
                if OBSERVED && self.sanitizer.is_some() {
                    self.sanitize_interior(program, at, "ArrayGet");
                }
                Ok(at.value())
            }
            ObjKind::Instance(c) => Err(VmError::TypeError {
                expected: "array".to_owned(),
                found: format!("instance of {}", class_name(program, c)),
            }),
        }
    }

    fn array_set<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        code: &Code,
        arr: Value,
        idx: Value,
        value: Value,
    ) -> Result<(), VmError> {
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
                self.mem_write::<OBSERVED>(addr);
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
                let at = Interior {
                    obj: o,
                    index: i as u32,
                    layout,
                };
                if OBSERVED && self.sanitizer.is_some() {
                    self.sanitize_interior(program, at, "ArraySet");
                }
                for (j, &field) in code.layout_fields[layout as usize].iter().enumerate() {
                    let v = self.get_field::<OBSERVED>(program, value, field)?;
                    let slot = self.interior_slot(at, j);
                    if OBSERVED && self.sanitizer.is_some() {
                        self.checked_access(program, at, j, slot, false, "ArraySet")?;
                    }
                    let addr = self.heap.get(o).slot_addr(slot);
                    let hit = self.mem_write::<OBSERVED>(addr);
                    self.note_inline_access(hit);
                    self.heap.get_mut(o).slots[slot] = v;
                }
                Ok(())
            }
            ObjKind::Instance(c) => Err(VmError::TypeError {
                expected: "array".to_owned(),
                found: format!("instance of {}", class_name(program, c)),
            }),
        }
    }

    // -- operators --------------------------------------------------------------

    #[inline(always)]
    fn eval_unary<const OBSERVED: bool>(&mut self, op: UnOp, v: Value) -> Result<Value, VmError> {
        match op {
            UnOp::Neg => match v {
                Value::Int(n) => {
                    self.charge::<OBSERVED>(self.config.cost.arith);
                    Ok(Value::Int(-n))
                }
                Value::Float(x) => {
                    self.charge::<OBSERVED>(self.config.cost.float_arith);
                    Ok(Value::Float(-x))
                }
                other => Err(VmError::TypeError {
                    expected: "number for negation".to_owned(),
                    found: other.type_name().to_owned(),
                }),
            },
            UnOp::Not => {
                self.charge::<OBSERVED>(self.config.cost.arith);
                let b = self.expect_bool(v, "logical not")?;
                Ok(Value::Bool(!b))
            }
        }
    }

    #[inline(always)]
    fn eval_binary<const OBSERVED: bool>(
        &mut self,
        program: &Program,
        op: BinOp,
        l: Value,
        r: Value,
    ) -> Result<Value, VmError> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Rem => self.eval_arith::<OBSERVED>(op, l, r),
            Lt | Le | Gt | Ge => self.eval_compare::<OBSERVED>(op, l, r),
            Eq | Ne => {
                self.charge::<OBSERVED>(self.config.cost.arith);
                let same = match (l, r) {
                    (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                        a as f64 == b
                    }
                    _ => l.identical(r),
                };
                if OBSERVED && !same && self.sanitizer.is_some() {
                    self.sanitize_identity(program, l, r);
                }
                Ok(Value::Bool(if op == Eq { same } else { !same }))
            }
            RefEq => {
                self.charge::<OBSERVED>(self.config.cost.arith);
                let same = l.identical(r);
                if OBSERVED && !same && self.sanitizer.is_some() {
                    self.sanitize_identity(program, l, r);
                }
                Ok(Value::Bool(same))
            }
        }
    }

    #[inline(always)]
    fn eval_arith<const OBSERVED: bool>(
        &mut self,
        op: BinOp,
        l: Value,
        r: Value,
    ) -> Result<Value, VmError> {
        use BinOp::*;
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                self.charge::<OBSERVED>(self.config.cost.arith);
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
                self.charge::<OBSERVED>(self.config.cost.float_arith);
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

    #[inline(always)]
    fn eval_compare<const OBSERVED: bool>(
        &mut self,
        op: BinOp,
        l: Value,
        r: Value,
    ) -> Result<Value, VmError> {
        use BinOp::*;
        let ord = match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                self.charge::<OBSERVED>(self.config.cost.arith);
                a.partial_cmp(&b)
            }
            _ => {
                let a = self.as_float(l)?;
                let b = self.as_float(r)?;
                self.charge::<OBSERVED>(self.config.cost.float_arith);
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

    fn eval_builtin<const OBSERVED: bool>(
        &mut self,
        builtin: Builtin,
        arg: Value,
    ) -> Result<Value, VmError> {
        match builtin {
            Builtin::Sqrt => {
                self.charge::<OBSERVED>(self.config.cost.sqrt);
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
                self.mem_read::<OBSERVED>(addr);
                Ok(Value::Int(len as i64))
            }
            Builtin::ToFloat => {
                self.charge::<OBSERVED>(self.config.cost.arith);
                Ok(Value::Float(self.as_float(arg)?))
            }
            Builtin::ToInt => {
                self.charge::<OBSERVED>(self.config.cost.arith);
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
    fn format_value(&self, program: &Program, v: Value) -> String {
        match v {
            Value::Int(n) => n.to_string(),
            Value::Float(x) => format!("{x:?}"),
            Value::Bool(b) => b.to_string(),
            Value::Nil => "nil".to_owned(),
            Value::Str(s) => program.interner.resolve(s).to_owned(),
            Value::Obj(o) => match self.heap.get(o).kind {
                ObjKind::Instance(c) => format!("<{}>", class_name(program, c)),
                ObjKind::Array => format!("<array[{}]>", self.heap.get(o).slots.len()),
                ObjKind::ArrayInline { len, .. } => format!("<array[{len}]>"),
            },
            Value::Interior { layout, .. } => {
                format!(
                    "<{}>",
                    class_name(program, self.layouts[layout.index()].child_class)
                )
            }
        }
    }
}

/// The name of class `c`.
pub(crate) fn class_name(program: &Program, c: ClassId) -> String {
    program.interner.resolve(program.classes[c].name).to_owned()
}

/// The name of a field or selector symbol. IR that never passed the
/// verifier can carry a symbol the interner does not know; it names
/// itself by its raw slot instead of panicking.
fn sym_name(program: &Program, s: Symbol) -> String {
    if (s.raw() as usize) < program.interner.len() {
        program.interner.resolve(s).to_owned()
    } else {
        format!("{s:?}")
    }
}

/// The error for a field an object of `class` does not have.
fn no_such_field(program: &Program, class: ClassId, field: Symbol) -> VmError {
    VmError::NoSuchField {
        class: class_name(program, class),
        field: sym_name(program, field),
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
        let mut p = compile(
            "class A { field x; } class B { }
             fn main() {
               var x = new A(); var y = new A(); var z = new B();
               var arr = array(3); var elems = array(2);
               print 1;
             }",
        )
        .unwrap();
        // Make the second array an inline array of `A`s, as the
        // transformation would.
        let layout = p.layouts.push(oi_ir::InlineLayout {
            child_class: p.class_by_name("A").unwrap(),
            child_fields: vec![p.interner.get("x").unwrap()],
            slots: vec![],
            array_kind: Some(oi_ir::ArrayLayoutKind::Interleaved),
        });
        let entry = p.entry;
        let second = p.methods[entry]
            .blocks
            .iter_mut()
            .flat_map(|b| b.instrs.iter_mut())
            .filter(|i| matches!(i, Instr::NewArray { .. }))
            .nth(1)
            .unwrap();
        if let Instr::NewArray { dst, len, site } = *second {
            *second = Instr::NewArrayInline {
                dst,
                len,
                layout,
                site,
            };
        }
        let r = run(&p, &VmConfig::default()).unwrap();
        assert_eq!(r.allocations_of("A"), 2);
        assert_eq!(r.allocations_of("B"), 1);
        assert_eq!(r.allocations_of("<array>"), 1);
        assert_eq!(r.allocations_of("<array-inline>"), 1);
        assert_eq!(r.allocations_of("Nope"), 0);
        // Census is sorted by descending count.
        assert!(r.allocation_census.windows(2).all(|w| w[0].1 >= w[1].1));
        // It counts the same groups as the heap census.
        let mut groups: Vec<(String, u64)> = r
            .heap_census
            .classes
            .iter()
            .map(|e| (e.class.clone(), e.count))
            .collect();
        groups.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(r.allocation_census, groups);
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
