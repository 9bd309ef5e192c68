//! Inline layouts resolved for the interpreter.
//!
//! Each program layout maps an inline child's fields onto its
//! container's slots. The interpreter resolves every layout once, when a
//! run starts, and composes a nested child's layout onto the outermost
//! container on demand while the program runs, remembering each
//! composition.

use oi_ir::{ArrayLayoutKind, ClassId, LayoutId, Program};
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

impl ResolvedLayout {
    /// Container slot of child field `j` of element `index` (0 in an
    /// object container). `elem_len` is an inline-array container's
    /// element count; only the parallel kind reads it.
    #[inline(always)]
    pub(crate) fn slot(&self, j: usize, index: u32, elem_len: usize) -> usize {
        match &self.repr {
            Repr::Object { slots } => slots[j],
            Repr::Array { kind, width, map } => match kind {
                ArrayLayoutKind::Interleaved => index as usize * width + map[j],
                ArrayLayoutKind::Parallel => map[j] * elem_len + index as usize,
            },
        }
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
