//! Names resolved once per run.
//!
//! The IR names fields and selectors by [`Symbol`]; resolving one means a
//! walk up the class chain through each class's method map. The
//! interpreter does that work once, when a run starts, and keeps the
//! answers in flat per-class tables: the field slot of every visible field
//! name, the target of every own or inherited selector and each class's
//! `init`. The interpreter's decoded form is built from these
//! tables. Inline layouts are resolved here too, and composed on demand
//! while the program runs.

use oi_ir::{ArrayLayoutKind, ClassId, LayoutId, MethodId, Program};
use oi_support::Symbol;

/// How an inline child's fields map to container slots (VM-resolved form,
/// closed under composition for nested inlining).
#[derive(Clone, Debug)]
pub(crate) enum Repr {
    /// Object container: child field `j` lives at container slot `slots[j]`.
    Object { slots: Vec<usize> },
    /// Array container: child field `j` of element `i` lives at
    /// `i*width + map[j]` (interleaved) or `map[j]*len + i` (parallel).
    Array {
        kind: ArrayLayoutKind,
        width: usize,
        map: Vec<usize>,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct ResolvedLayout {
    pub(crate) child_class: ClassId,
    pub(crate) child_fields: Vec<Symbol>,
    pub(crate) repr: Repr,
    /// Program layouts already composed onto this one, with the id of
    /// the composed layout (see [`compose`]).
    composed: Vec<(LayoutId, u32)>,
}

/// Per-class `Symbol → V` maps packed into one array: class `c` owns
/// `entries[start[c]..start[c + 1]]`, sorted by symbol.
#[derive(Clone, Debug)]
struct ClassMap<V> {
    start: Vec<u32>,
    entries: Vec<(Symbol, V)>,
}

impl<V: Copy> ClassMap<V> {
    /// Builds the map from `fill`, which lists each class's candidate
    /// entries; where a symbol repeats, the first listed entry wins.
    fn build(program: &Program, mut fill: impl FnMut(ClassId, &mut Vec<(Symbol, V)>)) -> Self {
        let mut start = Vec::with_capacity(program.classes.len() + 1);
        let mut entries = Vec::new();
        let mut scratch = Vec::new();
        start.push(0);
        for c in program.classes.ids() {
            scratch.clear();
            fill(c, &mut scratch);
            // Stable: among equal symbols the first listed stays first.
            scratch.sort_by_key(|e: &(Symbol, V)| e.0);
            scratch.dedup_by_key(|e| e.0);
            entries.extend_from_slice(&scratch);
            start.push(entries.len() as u32);
        }
        ClassMap { start, entries }
    }

    /// Class `class`'s entries, sorted by symbol.
    fn row(&self, class: ClassId) -> &[(Symbol, V)] {
        let c = class.index();
        &self.entries[self.start[c] as usize..self.start[c + 1] as usize]
    }

    fn get(&self, class: ClassId, key: Symbol) -> Option<V> {
        let row = self.row(class);
        row.binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| row[i].1)
    }
}

/// The interpreter's per-run name-resolution tables, built once from a
/// program. Each table is sized by the fields and methods that exist; a
/// symbol no class declares simply misses.
#[derive(Clone, Debug)]
pub struct RunTables {
    /// Field name → slot in the class's full layout.
    fields: ClassMap<usize>,
    /// Own and inherited selectors → the method a send resolves to.
    methods: ClassMap<MethodId>,
    /// Each class's `init`, as `New` and the sanitizer look it up.
    pub(crate) init: Vec<Option<MethodId>>,
    /// Per-class instance sizes.
    pub(crate) class_sizes: Vec<usize>,
}

impl RunTables {
    /// Resolves every class of `program`.
    pub fn new(program: &Program) -> Self {
        let mut class_sizes = Vec::with_capacity(program.classes.len());
        let fields = ClassMap::build(program, |c, out| {
            let layout = program.layout_of(c);
            class_sizes.push(layout.len());
            // A name declared twice in one hierarchy (unverified IR)
            // resolves to its last slot, as a map filled in layout order.
            out.extend(
                layout
                    .iter()
                    .enumerate()
                    .rev()
                    .map(|(i, &f)| (program.fields[f].name, i)),
            );
        });
        let methods = ClassMap::build(program, |c, out| {
            // Most-derived first, as `Program::lookup_method` searches.
            let mut cur = Some(c);
            while let Some(k) = cur {
                out.extend(program.classes[k].methods.iter().map(|(&s, &m)| (s, m)));
                cur = program.classes[k].parent;
            }
        });
        let init_sym = program.interner.get("init");
        let init = program
            .classes
            .ids()
            .map(|c| init_sym.and_then(|s| methods.get(c, s)))
            .collect();
        RunTables {
            fields,
            methods,
            init,
            class_sizes,
        }
    }

    /// The slot of the field named `field` in `class`'s layout.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of the program.
    pub fn field_slot(&self, class: ClassId, field: Symbol) -> Option<usize> {
        self.fields.get(class, field)
    }

    /// The method a send of `selector` to an instance of `class` runs;
    /// the same answer as [`Program::lookup_method`].
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of the program.
    pub fn method(&self, class: ClassId, selector: Symbol) -> Option<MethodId> {
        self.methods.get(class, selector)
    }

    /// The method `init` resolves to on `class`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of the program.
    pub fn init(&self, class: ClassId) -> Option<MethodId> {
        self.init[class.index()]
    }

    /// Every visible field of `class` with its slot, sorted by name.
    pub(crate) fn field_row(&self, class: ClassId) -> &[(Symbol, usize)] {
        self.fields.row(class)
    }

    /// Every own or inherited selector of `class` with its target,
    /// sorted by selector.
    pub(crate) fn method_row(&self, class: ClassId) -> &[(Symbol, MethodId)] {
        self.methods.row(class)
    }
}

/// Resolves every inline layout of `program`; the result is indexed by
/// [`LayoutId`], and [`compose`] appends to it.
pub(crate) fn resolve_layouts(program: &Program) -> Vec<ResolvedLayout> {
    program
        .layouts
        .iter()
        .map(|l| ResolvedLayout {
            child_class: l.child_class,
            child_fields: l.child_fields.clone(),
            repr: match l.array_kind {
                None => Repr::Object {
                    slots: l.slots.clone(),
                },
                Some(kind) => Repr::Array {
                    kind,
                    width: l.child_fields.len(),
                    map: (0..l.child_fields.len()).collect(),
                },
            },
            composed: Vec::new(),
        })
        .collect()
}

/// Composes `inner` (an object-container layout over `outer`'s child
/// class) with an existing resolved layout, yielding a layout that maps
/// the inner child's fields directly onto the outermost container. Each
/// composition is built once and remembered on `outer`. The composed
/// layout has `inner`'s child class and child fields, in the same order.
pub(crate) fn compose(
    layouts: &mut Vec<ResolvedLayout>,
    program: &Program,
    outer: u32,
    inner: LayoutId,
) -> u32 {
    let outer_l = &layouts[outer as usize];
    if let Some(&(_, id)) = outer_l.composed.iter().find(|(l, _)| *l == inner) {
        return id;
    }
    let inner_l = &program.layouts[inner];
    debug_assert!(
        inner_l.array_kind.is_none(),
        "inner layout must be an object layout"
    );
    let repr = match &outer_l.repr {
        Repr::Object { slots } => Repr::Object {
            slots: inner_l.slots.iter().map(|&s| slots[s]).collect(),
        },
        Repr::Array { kind, width, map } => Repr::Array {
            kind: *kind,
            width: *width,
            map: inner_l.slots.iter().map(|&s| map[s]).collect(),
        },
    };
    let id = layouts.len() as u32;
    layouts.push(ResolvedLayout {
        child_class: inner_l.child_class,
        child_fields: inner_l.child_fields.clone(),
        repr,
        composed: Vec::new(),
    });
    layouts[outer as usize].composed.push((inner, id));
    id
}
