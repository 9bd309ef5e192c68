//! Checked execution: an ASan-style heap sanitizer for inline objects.
//!
//! The differential oracle (the soundness firewall in `oi-core`) only sees
//! a miscompile when it changes *printed output*, termination status, or
//! the allocation census. A transformation bug that corrupts inline state
//! without reaching a `print` escapes it. Checked execution closes that
//! gap at the instruction level: the interpreter maintains a **shadow heap
//! map** alongside the real heap and validates every inline-object
//! invariant the §5 transformation (class restructuring, use redirection,
//! assignment specialization) is supposed to preserve:
//!
//! - **Interior bounds**: a `MakeInterior` / `MakeInteriorElem` result must
//!   stay inside its container's slot array, per the resolved layout.
//! - **Kind and class-of-slot agreement**: the container slot a child field
//!   resolves to must be the slot class restructuring created for it. The
//!   restructurer names spliced fields `<field>$<childfield>` (shared
//!   divergent slots `<field>$inline`), so the slot's *name* is redundant
//!   with the layout table and acts as ground truth even when the layout
//!   table itself was corrupted.
//! - **Canary words**: the words bracketing an inline region must never be
//!   addressed through that region. An off-by-one in slot arithmetic
//!   resolves a child field exactly one word outside its true region — the
//!   canary position — and is reported as a clobber, distinct from general
//!   slot confusion. For inline arrays the canary is the neighboring
//!   element's state: a field map entry at or beyond the element width
//!   overruns the bracket.
//! - **Region overlap**: two distinct inline regions on the same object
//!   must be equal, disjoint, or properly nested (nested inlining).
//!   Partial overlap means two children share storage — the §5.2
//!   Figure-11 bug class.
//! - **Poison**: an inline slot that was never written and never covered
//!   by a completed child constructor holds *poison*; reading it through
//!   an interior reference is a finding, distinct from reading a legal
//!   `nil` that was actually stored.
//! - **Identity integrity**: two live interior references into the same
//!   inline region must agree on the base object and compare identical
//!   under `===`.
//!
//! Findings are structured data ([`SanitizerReport`]), not panics: the run
//! continues (only an out-of-bounds access that the unchecked interpreter
//! could not survive halts it, as [`crate::VmError::CheckedAccessViolation`])
//! and the report rides on [`crate::RunResult::sanitizer`]. The firewall
//! treats any finding in the inlined build as an oracle rejection and
//! bisects/retracts exactly as for an output divergence.
//!
//! The sanitizer never touches [`crate::Metrics`], the cache simulation,
//! or the heap itself, so a clean checked run reports byte-identical
//! metrics to an unchecked run; only wall-clock overhead differs.

use crate::heap::{Heap, ObjKind};
use crate::interp::class_name;
use crate::tables::{Repr, ResolvedLayout};
use crate::value::ObjId;
use oi_ir::{ClassId, MethodId, Program};
use std::collections::{HashMap, HashSet};

/// How much checking the interpreter performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckLevel {
    /// No checking (production default; zero overhead).
    #[default]
    Off,
    /// Layout validation only: interior bounds, kind/class-of-slot
    /// agreement, canary brackets. No per-object shadow state.
    Basic,
    /// Everything in `Basic` plus the shadow heap map: region overlap,
    /// poison tracking, identity integrity.
    Full,
}

impl CheckLevel {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CheckLevel::Off => "off",
            CheckLevel::Basic => "basic",
            CheckLevel::Full => "full",
        }
    }

    /// Parses a [`CheckLevel::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(CheckLevel::Off),
            "basic" => Some(CheckLevel::Basic),
            "full" => Some(CheckLevel::Full),
            _ => None,
        }
    }
}

/// The invariant a [`Finding`] violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// An interior reference resolved outside the container's slot array.
    InteriorBounds,
    /// A container slot disagrees with the layout's promise: wrong kind of
    /// container, or a slot whose restructured name belongs to a different
    /// field or child.
    SlotKindMismatch,
    /// An access landed exactly on a word bracketing its true inline
    /// region — the off-by-one signature (object regions), or an array
    /// field map overrunning the element width into the neighboring
    /// element.
    CanaryClobber,
    /// Two inline regions on the same object partially overlap: neither
    /// equal, disjoint, nor nested.
    RegionOverlap,
    /// Two inline regions claim the same storage for different child
    /// classes.
    ClassMismatch,
    /// A read through an interior reference observed a slot that was never
    /// initialized (neither written nor covered by a completed child
    /// constructor).
    PoisonRead,
    /// Two interior references designate the same inline region but do not
    /// compare identical under `===`.
    IdentityMismatch,
}

impl FindingKind {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::InteriorBounds => "interior-bounds",
            FindingKind::SlotKindMismatch => "slot-kind-mismatch",
            FindingKind::CanaryClobber => "canary-clobber",
            FindingKind::RegionOverlap => "region-overlap",
            FindingKind::ClassMismatch => "class-mismatch",
            FindingKind::PoisonRead => "poison-read",
            FindingKind::IdentityMismatch => "identity-mismatch",
        }
    }
}

/// One invariant violation observed during a checked run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Violated invariant.
    pub kind: FindingKind,
    /// Instruction family that tripped the check (`MakeInterior`,
    /// `GetField`, …).
    pub instruction: String,
    /// `Class::method` executing when the check tripped.
    pub method: String,
    /// Heap address of the container object.
    pub address: u64,
    /// The field the finding is about — the container's restructured slot
    /// name where known (provenance-linked: it embeds the inlined field's
    /// name), otherwise the child field.
    pub field: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at {} in {} (field `{}`, container @{}): {}",
            self.kind.name(),
            self.instruction,
            self.method,
            self.field,
            self.address,
            self.detail
        )
    }
}

/// Everything the sanitizer observed over one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// The level the run was checked at.
    pub level: CheckLevel,
    /// Recorded findings, in discovery order, capped at
    /// [`SanitizerReport::FINDING_CAP`].
    pub findings: Vec<Finding>,
    /// Total findings including any beyond the cap.
    pub total_findings: u64,
    /// Number of checks performed (advisory; sizing the overhead).
    pub checks: u64,
}

impl SanitizerReport {
    /// Recorded-finding cap; `total_findings` keeps counting past it so a
    /// finding inside a hot loop cannot balloon the report.
    pub const FINDING_CAP: usize = 32;

    /// `true` when the run violated no invariant.
    pub fn is_clean(&self) -> bool {
        self.total_findings == 0
    }

    /// The report as schema-stable JSON (additive fields only).
    pub fn to_json(&self) -> oi_support::Json {
        use oi_support::Json;
        Json::obj(vec![
            ("level", self.level.name().into()),
            ("total_findings", self.total_findings.into()),
            ("checks", self.checks.into()),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("kind", f.kind.name().into()),
                                ("instruction", f.instruction.clone().into()),
                                ("method", f.method.clone().into()),
                                ("address", f.address.into()),
                                ("field", f.field.clone().into()),
                                ("detail", f.detail.clone().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// An established inline region on one container object.
struct Region {
    /// Resolved layout id (index into the VM's layout table).
    layout: u32,
    /// Element index (0 for object containers).
    index: u32,
    /// Child class the region claims.
    child_class: ClassId,
    /// Sorted container slots the region covers.
    slots: Vec<usize>,
}

/// Shadow state for one container object (`Full` only).
#[derive(Default)]
struct Shadow {
    /// Slot was stored to through any path.
    written: Vec<bool>,
    /// Slot is covered by a child constructor that ran to completion on an
    /// interior receiver (fields the constructor chose not to set are
    /// legal `nil`, not poison).
    constructed: Vec<bool>,
    /// Established regions, in establishment order.
    regions: Vec<Region>,
}

impl Shadow {
    fn ensure(&mut self, len: usize) {
        if self.written.len() < len {
            self.written.resize(len, false);
            self.constructed.resize(len, false);
        }
    }
}

/// The shadow-heap sanitizer. One per checked run; owned by the VM.
pub struct Sanitizer {
    level: CheckLevel,
    findings: Vec<Finding>,
    total_findings: u64,
    checks: u64,
    /// Layout validations already performed, keyed by
    /// `(resolved layout id, container key)` — container key is the class
    /// index for instances, `u64::MAX` for inline arrays.
    validated: HashSet<(u32, u64)>,
    shadows: HashMap<ObjId, Shadow>,
}

impl Sanitizer {
    /// A sanitizer for `level`; `None` when checking is off.
    pub fn new(level: CheckLevel) -> Option<Self> {
        (level != CheckLevel::Off).then(|| Self {
            level,
            findings: Vec::new(),
            total_findings: 0,
            checks: 0,
            validated: HashSet::new(),
            shadows: HashMap::new(),
        })
    }

    /// Finalizes into the run's report.
    pub(crate) fn into_report(self) -> SanitizerReport {
        SanitizerReport {
            level: self.level,
            findings: self.findings,
            total_findings: self.total_findings,
            checks: self.checks,
        }
    }

    fn full(&self) -> bool {
        self.level == CheckLevel::Full
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        kind: FindingKind,
        instruction: &str,
        program: &Program,
        method: Option<MethodId>,
        address: u64,
        field: String,
        detail: String,
    ) {
        self.total_findings += 1;
        if self.findings.len() >= SanitizerReport::FINDING_CAP {
            return;
        }
        self.findings.push(Finding {
            kind,
            instruction: instruction.to_owned(),
            method: method.map_or_else(|| "<entry>".to_owned(), |m| program.method_display(m)),
            address,
            field,
            detail,
        });
    }

    /// Container slots covered by `(layout, index)`, sorted.
    /// `elem_len` is the element count for inline-array containers (0 for
    /// object containers).
    fn region_slots(
        layouts: &[ResolvedLayout],
        layout: u32,
        index: u32,
        elem_len: usize,
    ) -> Vec<usize> {
        let resolved = &layouts[layout as usize];
        let mut slots: Vec<usize> = (0..resolved.child_fields.len())
            .map(|j| resolved.slot(j, index, elem_len))
            .collect();
        slots.sort_unstable();
        slots
    }

    /// Validates the establishment of an interior reference
    /// `(obj, index, layout)` — called whenever the interpreter creates
    /// one (`MakeInterior`, `MakeInteriorElem`, whole-element reads and
    /// stores of inline arrays).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_interior(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        instruction: &str,
        obj: ObjId,
        index: u32,
        layout: u32,
    ) {
        self.checks += 1;
        let container = heap.get(obj);
        let addr = container.addr;
        let container_len = container.slots.len();
        let resolved = &layouts[layout as usize];
        let kind = container.kind;
        match (&resolved.repr, kind) {
            (Repr::Object { slots }, ObjKind::Instance(class)) => {
                let key = (layout, class.index() as u64);
                if !self.validated.contains(&key) {
                    self.validated.insert(key);
                    self.validate_object_region(
                        program,
                        method,
                        instruction,
                        addr,
                        class,
                        slots,
                        &resolved.child_fields,
                        container_len,
                    );
                }
            }
            (Repr::Array { width, map, .. }, ObjKind::ArrayInline { len, .. }) => {
                let key = (layout, u64::MAX);
                if !self.validated.contains(&key) {
                    self.validated.insert(key);
                    for (j, &m) in map.iter().enumerate() {
                        if m >= *width {
                            let field = resolved.child_fields.get(j).map_or_else(
                                || format!("#{j}"),
                                |f| program.interner.resolve(*f).to_owned(),
                            );
                            self.record(
                                FindingKind::CanaryClobber,
                                instruction,
                                program,
                                method,
                                addr,
                                field,
                                format!(
                                    "array field map entry {m} overruns element width {width} \
                                     into the bracketing element"
                                ),
                            );
                        }
                    }
                }
                if index as usize >= len {
                    self.record(
                        FindingKind::InteriorBounds,
                        instruction,
                        program,
                        method,
                        addr,
                        format!("[{index}]"),
                        format!("element index {index} outside inline array of length {len}"),
                    );
                }
            }
            (repr, kind) => {
                let (promised, actual) = match repr {
                    Repr::Object { .. } => ("object container", describe_kind(program, kind)),
                    Repr::Array { .. } => ("inline-array container", describe_kind(program, kind)),
                };
                self.record(
                    FindingKind::SlotKindMismatch,
                    instruction,
                    program,
                    method,
                    addr,
                    "<container>".to_owned(),
                    format!("layout promises {promised}, container is {actual}"),
                );
            }
        }
        if self.full() {
            self.establish_region(
                program,
                heap,
                layouts,
                method,
                instruction,
                obj,
                index,
                layout,
            );
        }
    }

    /// The static (per layout × container class) half of object-region
    /// validation: bounds, and the restructurer's naming convention as
    /// ground truth for slot agreement and canary brackets.
    #[allow(clippy::too_many_arguments)]
    fn validate_object_region(
        &mut self,
        program: &Program,
        method: Option<MethodId>,
        instruction: &str,
        addr: u64,
        class: ClassId,
        slots: &[usize],
        child_fields: &[oi_support::Symbol],
        container_len: usize,
    ) {
        let layout_fields = program.layout_of(class);
        let names: Vec<&str> = layout_fields
            .iter()
            .map(|&f| canonical(program.interner.resolve(program.fields[f].name)))
            .collect();
        // The region's field-name prefix, from the first slot that carries
        // a restructured name ("<prefix>$<childfield>" or
        // "<prefix>$inline").
        let prefix_of = |name: &str, suffix: &str| -> Option<String> {
            name.strip_suffix(suffix).map(str::to_owned)
        };
        let mut region_prefix: Option<String> = None;
        for (j, (&slot, child)) in slots.iter().zip(child_fields).enumerate() {
            let child_name = canonical(program.interner.resolve(*child));
            let suffix = format!("${child_name}");
            if slot >= container_len {
                self.record(
                    FindingKind::InteriorBounds,
                    instruction,
                    program,
                    method,
                    addr,
                    child_name.to_owned(),
                    format!("layout slot {slot} outside container of {container_len} slot(s)"),
                );
                continue;
            }
            let slot_name = names[slot];
            // A divergent-hierarchy shared slot (`<field>$inline`) can only
            // ever host the region's first child field; it carries no
            // child-field suffix, so it neither seeds nor constrains the
            // region prefix (nested composition can legally mix it with
            // deeper `$`-chained prefixes).
            if j == 0 && slot_name.ends_with("$inline") {
                continue;
            }
            match prefix_of(slot_name, &suffix) {
                Some(p) => match &region_prefix {
                    None => region_prefix = Some(p),
                    Some(expect) if *expect == p => {}
                    Some(expect) => {
                        self.record(
                            FindingKind::SlotKindMismatch,
                            instruction,
                            program,
                            method,
                            addr,
                            slot_name.to_owned(),
                            format!(
                                "slot {slot} belongs to inlined field `{p}`, \
                                 region belongs to `{expect}`"
                            ),
                        );
                    }
                },
                None => {
                    // The slot's name does not carry this child field. Find
                    // the slot that does; one word away is the canary
                    // signature of off-by-one slot arithmetic.
                    let truth = names.iter().position(|n| {
                        n.ends_with(&suffix)
                            && region_prefix
                                .as_deref()
                                .is_none_or(|p| n.strip_suffix(&suffix) == Some(p))
                    });
                    let (kind, detail) = match truth {
                        Some(t) if t.abs_diff(slot) == 1 => (
                            FindingKind::CanaryClobber,
                            format!(
                                "slot {slot} is the canary word bracketing the true region \
                                 (child field `{child_name}` lives at slot {t})"
                            ),
                        ),
                        Some(t) => (
                            FindingKind::SlotKindMismatch,
                            format!(
                                "slot {slot} (`{slot_name}`) does not hold child field \
                                 `{child_name}` (true slot {t})"
                            ),
                        ),
                        None => (
                            FindingKind::SlotKindMismatch,
                            format!(
                                "slot {slot} (`{slot_name}`) was never restructured for \
                                 child field `{child_name}`"
                            ),
                        ),
                    };
                    self.record(
                        kind,
                        instruction,
                        program,
                        method,
                        addr,
                        slot_name.to_owned(),
                        detail,
                    );
                }
            }
        }
    }

    /// Unsorted `(container slot, child field name)` pairs for a region —
    /// the positional pairing [`Region::slots`] discards by sorting.
    fn slot_field_names(
        layouts: &[ResolvedLayout],
        layout: u32,
        index: u32,
        elem_len: usize,
    ) -> Vec<(usize, oi_support::Symbol)> {
        let resolved = &layouts[layout as usize];
        resolved
            .child_fields
            .iter()
            .enumerate()
            .map(|(j, &f)| (resolved.slot(j, index, elem_len), f))
            .collect()
    }

    /// `true` when one of the two coinciding regions is a legal nested
    /// refinement of the other: on every slot both cover, the outer
    /// region's restructured field name extends the inner's with a
    /// `$<field>` segment (or is the shared `$inline` wildcard). That is
    /// the restructurer's signature for composed inlining, where the
    /// outer child's storage legitimately *is* the inner child's storage.
    fn nested_refinement(
        program: &Program,
        layouts: &[ResolvedLayout],
        existing: &Region,
        layout: u32,
        index: u32,
        elem_len: usize,
    ) -> bool {
        let a = Self::slot_field_names(layouts, existing.layout, existing.index, elem_len);
        let b = Self::slot_field_names(layouts, layout, index, elem_len);
        let refines = |outer: &[(usize, oi_support::Symbol)],
                       inner: &[(usize, oi_support::Symbol)]|
         -> bool {
            inner.iter().all(|&(slot, f)| {
                let Some(&(_, of)) = outer.iter().find(|&&(s, _)| s == slot) else {
                    return true;
                };
                let o = canonical(program.interner.resolve(of));
                let i = canonical(program.interner.resolve(f));
                o.ends_with("$inline") || o.ends_with(&format!("${i}"))
            })
        };
        refines(&a, &b) || refines(&b, &a)
    }

    /// Registers `(layout, index)` as a region on `obj`'s shadow and
    /// cross-checks it against previously established regions (`Full`).
    #[allow(clippy::too_many_arguments)]
    fn establish_region(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        instruction: &str,
        obj: ObjId,
        index: u32,
        layout: u32,
    ) {
        let container = heap.get(obj);
        let slot_count = container.slots.len();
        let elem_len = container.array_len().unwrap_or(0);
        let addr = container.addr;
        let child_class = layouts[layout as usize].child_class;
        let shadow = self.shadows.entry(obj).or_default();
        shadow.ensure(slot_count);
        if shadow
            .regions
            .iter()
            .any(|r| r.layout == layout && r.index == index)
        {
            return;
        }
        let slots = Self::region_slots(layouts, layout, index, elem_len);
        let mut conflicts: Vec<(FindingKind, String)> = Vec::new();
        for existing in &shadow.regions {
            let shared = existing.slots.iter().filter(|s| slots.contains(s)).count();
            if shared == 0 {
                continue;
            }
            if existing.slots == slots {
                // Composed inlining can make an inner region coincide
                // exactly with its enclosing one (a single-field chain:
                // `b` holds the whole of `b$a`, which holds the whole of
                // `b$a$x`). The restructurer's names arbitrate: if one
                // region's field names `$`-refine the other's on every
                // shared word, the coincidence is legal nesting, not two
                // children fighting over storage.
                if existing.child_class != child_class
                    && !Self::nested_refinement(program, layouts, existing, layout, index, elem_len)
                {
                    conflicts.push((
                        FindingKind::ClassMismatch,
                        format!(
                            "region claims class `{}`, the same storage was established \
                             as class `{}`",
                            class_name(program, child_class),
                            class_name(program, existing.child_class)
                        ),
                    ));
                }
                continue;
            }
            let nested = shared == slots.len() || shared == existing.slots.len();
            if !nested {
                conflicts.push((
                    FindingKind::RegionOverlap,
                    format!(
                        "region {:?} (class `{}`) partially overlaps established region \
                         {:?} (class `{}`)",
                        slots,
                        class_name(program, child_class),
                        existing.slots,
                        class_name(program, existing.child_class)
                    ),
                ));
            }
        }
        shadow.regions.push(Region {
            layout,
            index,
            child_class,
            slots,
        });
        for (kind, detail) in conflicts {
            self.record(
                kind,
                instruction,
                program,
                method,
                addr,
                "<region>".to_owned(),
                detail,
            );
        }
    }

    /// Validates one resolved interior access and updates the shadow map.
    /// Returns the fatal error for an access the unchecked interpreter
    /// could not survive (slot outside the container's slot array).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_access(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        instruction: &str,
        obj: ObjId,
        index: u32,
        layout: u32,
        child_field: usize,
        slot: usize,
        is_read: bool,
    ) -> Result<(), crate::VmError> {
        self.checks += 1;
        let container = heap.get(obj);
        let container_len = container.slots.len();
        let addr = container.addr;
        let field_name = layouts[layout as usize]
            .child_fields
            .get(child_field)
            .map_or_else(
                || format!("#{child_field}"),
                |f| program.interner.resolve(*f).to_owned(),
            );
        if slot >= container_len {
            self.record(
                FindingKind::InteriorBounds,
                instruction,
                program,
                method,
                addr,
                field_name,
                format!(
                    "interior access resolved to slot {slot} outside container of \
                     {container_len} slot(s)"
                ),
            );
            return Err(crate::VmError::CheckedAccessViolation {
                slot,
                len: container_len,
            });
        }
        if self.full() {
            let shadow = self.shadows.entry(obj).or_default();
            shadow.ensure(container_len);
            // Canary membership: the access must stay inside the region
            // established for this (layout, index).
            let mut escape: Option<(FindingKind, String)> = None;
            if let Some(region) = shadow
                .regions
                .iter()
                .find(|r| r.layout == layout && r.index == index)
            {
                if !region.slots.contains(&slot) {
                    let bracket = region.slots.iter().any(|s| s.abs_diff(slot) == 1);
                    escape = Some((
                        if bracket {
                            FindingKind::CanaryClobber
                        } else {
                            FindingKind::InteriorBounds
                        },
                        format!(
                            "access to slot {slot} outside established region {:?}",
                            region.slots
                        ),
                    ));
                }
            }
            let poison = is_read && !shadow.written[slot] && !shadow.constructed[slot];
            if !is_read {
                shadow.written[slot] = true;
            }
            if let Some((kind, detail)) = escape {
                self.record(
                    kind,
                    instruction,
                    program,
                    method,
                    addr,
                    field_name.clone(),
                    detail,
                );
            }
            if poison {
                self.record(
                    FindingKind::PoisonRead,
                    instruction,
                    program,
                    method,
                    addr,
                    field_name,
                    format!(
                        "slot {slot} read through an interior reference but never \
                         initialized (poison, not a stored nil)"
                    ),
                );
            }
        }
        Ok(())
    }

    /// Marks a direct (whole-object) store into `slot` of `obj`.
    pub(crate) fn on_direct_write(&mut self, obj: ObjId, slot: usize, container_len: usize) {
        if !self.full() {
            return;
        }
        let shadow = self.shadows.entry(obj).or_default();
        shadow.ensure(container_len);
        if slot < shadow.written.len() {
            shadow.written[slot] = true;
        }
    }

    /// Marks the region `(layout, index)` constructed: the child's
    /// constructor began executing on an interior receiver. From that
    /// moment the child object exists in the baseline semantics (`new`
    /// allocates before `init` runs), so its unset fields are legal `nil`,
    /// not poison. A region that never sees a constructor — the
    /// copy-assignment path — stays poisoned until each slot is written.
    pub(crate) fn on_ctor_enter(
        &mut self,
        layouts: &[ResolvedLayout],
        heap: &Heap,
        obj: ObjId,
        index: u32,
        layout: u32,
    ) {
        if !self.full() {
            return;
        }
        let container = heap.get(obj);
        let slot_count = container.slots.len();
        let elem_len = container.array_len().unwrap_or(0);
        let slots = Self::region_slots(layouts, layout, index, elem_len);
        let shadow = self.shadows.entry(obj).or_default();
        shadow.ensure(slot_count);
        for s in slots {
            if s < shadow.constructed.len() {
                shadow.constructed[s] = true;
            }
        }
    }

    /// Cross-checks identity of two interior references into the same
    /// container that did **not** compare identical: if they designate the
    /// same region, `===` just lied about object identity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_identity(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        obj: ObjId,
        lhs: (u32, u32),
        rhs: (u32, u32),
    ) {
        if !self.full() {
            return;
        }
        self.checks += 1;
        let container = heap.get(obj);
        let elem_len = container.array_len().unwrap_or(0);
        let (ll, li) = lhs;
        let (rl, ri) = rhs;
        let a = Self::region_slots(layouts, ll, li, elem_len);
        let b = Self::region_slots(layouts, rl, ri, elem_len);
        if a == b {
            self.record(
                FindingKind::IdentityMismatch,
                "Binary",
                program,
                method,
                container.addr,
                "<region>".to_owned(),
                format!(
                    "two interior references into the same region {a:?} of `{}` \
                     compare non-identical",
                    class_name(program, layouts[ll as usize].child_class)
                ),
            );
        }
    }
}

/// Strips trailing `$<digits>` disambiguator segments that the interner's
/// `fresh` appends when a restructured name collides globally (two classes
/// both holding a field `ll` of `Point` yield `ll$x` and `ll$x$1`), leaving
/// the structural `<field>$<childfield>` name. Source identifiers cannot be
/// all digits, so a digits-only segment is always a disambiguator.
fn canonical(name: &str) -> &str {
    let mut n = name;
    while let Some((rest, last)) = n.rsplit_once('$') {
        if !last.is_empty() && last.bytes().all(|b| b.is_ascii_digit()) {
            n = rest;
        } else {
            break;
        }
    }
    n
}

fn describe_kind(program: &Program, kind: ObjKind) -> String {
    match kind {
        ObjKind::Instance(c) => format!("an instance of `{}`", class_name(program, c)),
        ObjKind::Array => "a reference array".to_owned(),
        ObjKind::ArrayInline { .. } => "an inline array".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, VmConfig};
    use oi_ir::lower::compile;
    use oi_ir::{ConstValue, InlineLayout, Instr, Terminator};

    /// Compiles a Rect/Point skeleton, renames `Rect`'s fields to the
    /// restructurer's convention, adds an inline layout, and replaces
    /// `main`'s body with hand-built instructions — the same IR shape the
    /// real pipeline produces, minus the pipeline.
    ///
    /// `rect_fields` are the post-restructure names for Rect's slots and
    /// `slots` is the layout's slot table.
    fn rig(rect_fields: &[&str], slots: Vec<usize>, body: Body) -> oi_ir::Program {
        let field_decls = rect_fields
            .iter()
            .enumerate()
            .map(|(i, _)| format!("field f{i};"))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!(
            "class Point {{ field x; field y; }}
             class Rect {{ {field_decls} }}
             fn main() {{ print 0; }}"
        );
        let mut p = compile(&src).unwrap();
        let rect = p.class_by_name("Rect").unwrap();
        for (i, name) in rect_fields.iter().enumerate() {
            let fid = p.classes[rect].own_fields[i];
            p.fields[fid].name = p.interner.fresh(name);
        }
        let point = p.class_by_name("Point").unwrap();
        let x = p.interner.get("x").unwrap();
        let y = p.interner.get("y").unwrap();
        let layout = p.layouts.push(InlineLayout {
            child_class: point,
            child_fields: vec![x, y],
            slots,
            array_kind: None,
        });
        let site = p.fresh_site();
        // Temps: t0 self, t1 rect, t2 interior, t3 scratch.
        let entry = p.entry;
        let instrs = body(rect, layout, x, y, site);
        let m = &mut p.methods[entry];
        m.temp_count = 8;
        let bb = m.entry();
        m.blocks[bb].instrs = instrs;
        m.blocks[bb].term = Terminator::Return(oi_ir::Temp::new(0));
        p
    }

    type Body = fn(
        oi_ir::ClassId,
        oi_ir::LayoutId,
        oi_support::Symbol,
        oi_support::Symbol,
        oi_ir::SiteId,
    ) -> Vec<Instr>;

    fn t(i: usize) -> oi_ir::Temp {
        oi_ir::Temp::new(i)
    }

    fn checked(level: CheckLevel) -> VmConfig {
        VmConfig {
            checked: level,
            ..Default::default()
        }
    }

    /// new Rect; i = interior; i.x = 1; i.y = 2; print i.x;
    fn clean_body(
        rect: oi_ir::ClassId,
        layout: oi_ir::LayoutId,
        x: oi_support::Symbol,
        y: oi_support::Symbol,
        site: oi_ir::SiteId,
    ) -> Vec<Instr> {
        vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout,
            },
            Instr::Const {
                dst: t(3),
                value: ConstValue::Int(1),
            },
            Instr::SetField {
                obj: t(2),
                field: x,
                src: t(3),
            },
            Instr::Const {
                dst: t(4),
                value: ConstValue::Int(2),
            },
            Instr::SetField {
                obj: t(2),
                field: y,
                src: t(4),
            },
            Instr::GetField {
                dst: t(5),
                obj: t(2),
                field: x,
            },
            Instr::Print { src: t(5) },
        ]
    }

    /// new Rect; i = interior; i.x = 1; print i.y;   (y never written)
    fn poison_body(
        rect: oi_ir::ClassId,
        layout: oi_ir::LayoutId,
        x: oi_support::Symbol,
        y: oi_support::Symbol,
        site: oi_ir::SiteId,
    ) -> Vec<Instr> {
        vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout,
            },
            Instr::Const {
                dst: t(3),
                value: ConstValue::Int(1),
            },
            Instr::SetField {
                obj: t(2),
                field: x,
                src: t(3),
            },
            Instr::GetField {
                dst: t(5),
                obj: t(2),
                field: y,
            },
            Instr::Print { src: t(5) },
        ]
    }

    #[test]
    fn clean_inline_program_reports_no_findings() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], clean_body);
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let san = r.sanitizer.expect("checked run carries a report");
        assert!(san.is_clean(), "findings: {:?}", san.findings);
        assert!(san.checks > 0);
        assert_eq!(r.output, "1\n");
    }

    #[test]
    fn unchecked_run_carries_no_report_and_identical_metrics() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], clean_body);
        let plain = run(&p, &VmConfig::default()).unwrap();
        assert!(plain.sanitizer.is_none());
        let full = run(&p, &checked(CheckLevel::Full)).unwrap();
        assert_eq!(
            plain.metrics, full.metrics,
            "checking must not perturb the cost model"
        );
        assert_eq!(plain.output, full.output);
    }

    #[test]
    fn never_initialized_inline_slot_reads_as_poison() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], poison_body);
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let san = r.sanitizer.unwrap();
        assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
        assert_eq!(san.findings[0].kind, FindingKind::PoisonRead);
        assert_eq!(san.findings[0].field, "y");
        // The run itself still completes — the slot legally holds nil.
        assert_eq!(r.output, "nil\n");
        // Basic checking has no shadow map, so no poison tracking.
        let basic = run(&p, &checked(CheckLevel::Basic)).unwrap();
        assert!(basic.sanitizer.unwrap().is_clean());
    }

    #[test]
    fn unrestructured_slot_names_are_a_kind_mismatch() {
        // Fields keep their source names: the layout points at storage the
        // restructurer never created.
        let p = rig(&["a", "b"], vec![0, 1], clean_body);
        let r = run(&p, &checked(CheckLevel::Basic)).unwrap();
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::SlotKindMismatch),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn off_by_one_slot_is_a_canary_clobber() {
        // True region is [0, 1]; the layout claims [1, 2] — every access
        // lands one word off, the second on the bracketing canary word.
        let p = rig(&["ll$x", "ll$y", "pad"], vec![1, 2], clean_body);
        let r = run(&p, &checked(CheckLevel::Basic)).unwrap();
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::CanaryClobber),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn out_of_bounds_layout_slot_is_fatal_at_access() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 5], clean_body);
        let err = run(&p, &checked(CheckLevel::Full)).unwrap_err();
        assert_eq!(
            err,
            crate::VmError::CheckedAccessViolation { slot: 5, len: 2 }
        );
        assert!(!err.is_resource_limit());
    }

    #[test]
    fn partially_overlapping_regions_are_reported() {
        // Region A covers slots {0,1}, region B covers {1,2}: partial
        // overlap — two children sharing slot 1.
        let src = "class P1 { field x; field y; }
                   class P2 { field y; field z; }
                   class Rect { field a; field b; field c; }
                   fn main() { print 0; }";
        let mut p = compile(src).unwrap();
        let rect = p.class_by_name("Rect").unwrap();
        for (i, name) in ["a$x", "a$y", "a$z"].iter().enumerate() {
            let fid = p.classes[rect].own_fields[i];
            p.fields[fid].name = p.interner.fresh(name);
        }
        let x = p.interner.get("x").unwrap();
        let y = p.interner.get("y").unwrap();
        let z = p.interner.get("z").unwrap();
        let p1 = p.class_by_name("P1").unwrap();
        let p2 = p.class_by_name("P2").unwrap();
        let la = p.layouts.push(InlineLayout {
            child_class: p1,
            child_fields: vec![x, y],
            slots: vec![0, 1],
            array_kind: None,
        });
        let lb = p.layouts.push(InlineLayout {
            child_class: p2,
            child_fields: vec![y, z],
            slots: vec![1, 2],
            array_kind: None,
        });
        let site = p.fresh_site();
        let entry = p.entry;
        let m = &mut p.methods[entry];
        m.temp_count = 8;
        let bb = m.entry();
        m.blocks[bb].instrs = vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout: la,
            },
            Instr::MakeInterior {
                dst: t(3),
                obj: t(1),
                layout: lb,
            },
            Instr::Const {
                dst: t(4),
                value: ConstValue::Int(7),
            },
            Instr::Print { src: t(4) },
        ];
        m.blocks[bb].term = Terminator::Return(t(0));
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::RegionOverlap),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn same_region_different_layout_ids_break_identity() {
        let src = "class P { field x; }
                   class Rect { field a; }
                   fn main() { print 0; }";
        let mut p = compile(src).unwrap();
        let rect = p.class_by_name("Rect").unwrap();
        let fid = p.classes[rect].own_fields[0];
        p.fields[fid].name = p.interner.fresh("a$x");
        let x = p.interner.get("x").unwrap();
        let pc = p.class_by_name("P").unwrap();
        let mk = |p: &mut oi_ir::Program| {
            p.layouts.push(InlineLayout {
                child_class: pc,
                child_fields: vec![x],
                slots: vec![0],
                array_kind: None,
            })
        };
        let la = mk(&mut p);
        let lb = mk(&mut p);
        let site = p.fresh_site();
        let entry = p.entry;
        let m = &mut p.methods[entry];
        m.temp_count = 8;
        let bb = m.entry();
        m.blocks[bb].instrs = vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout: la,
            },
            Instr::MakeInterior {
                dst: t(3),
                obj: t(1),
                layout: lb,
            },
            Instr::Binary {
                dst: t(4),
                op: oi_ir::BinOp::RefEq,
                lhs: t(2),
                rhs: t(3),
            },
            Instr::Print { src: t(4) },
        ];
        m.blocks[bb].term = Terminator::Return(t(0));
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        assert_eq!(r.output, "false\n", "the identity bug itself");
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::IdentityMismatch),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn report_json_is_schema_stable() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], poison_body);
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let doc = oi_support::Json::parse(&r.sanitizer.unwrap().to_json().to_string()).unwrap();
        for key in ["level", "total_findings", "checks", "findings"] {
            assert!(doc.get(key).is_some(), "sanitizer.{key} missing");
        }
        let rows = doc
            .get("findings")
            .and_then(oi_support::Json::as_arr)
            .unwrap();
        let row = &rows[0];
        for key in [
            "kind",
            "instruction",
            "method",
            "address",
            "field",
            "detail",
        ] {
            assert!(row.get(key).is_some(), "finding.{key} missing");
        }
    }

    #[test]
    fn check_levels_parse_round_trip() {
        for level in [CheckLevel::Off, CheckLevel::Basic, CheckLevel::Full] {
            assert_eq!(CheckLevel::parse(level.name()), Some(level));
        }
        assert_eq!(CheckLevel::parse("loud"), None);
    }
}
