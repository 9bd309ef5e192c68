//! The abstract value domain: concrete type sets and field tags.

use crate::contour::OCtxId;
use oi_support::{define_idx, Symbol};
use std::collections::BTreeSet;

define_idx!(
    /// Identifies an interned [`Tag`].
    pub struct TagId, "tag"
);

/// One step of a tag path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathSeg {
    /// A named field access.
    Field(Symbol),
    /// An array element access.
    Elem,
}

/// A field tag (paper §4.1): "this value may have come from
/// `origin.path[0].path[1]...`". `MakeTag` corresponds to extending the
/// path; a value with no tags at all is the paper's `NoField`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    /// Object contour the access chain started from.
    pub origin: OCtxId,
    /// The chain of accesses (length ≥ 1).
    pub path: Vec<PathSeg>,
}

impl Tag {
    /// The outermost accessed member, `Head(tag)` in the paper.
    pub fn head(&self) -> PathSeg {
        *self.path.last().expect("tag paths are non-empty")
    }

    /// `MakeTag(seg, self)`: the tag for a member access on a value carrying
    /// this tag.
    pub fn extend(&self, seg: PathSeg) -> Tag {
        let mut path = self.path.clone();
        path.push(seg);
        Tag {
            origin: self.origin,
            path,
        }
    }

    /// Returns `true` for direct (length-1) tags of `origin.field`.
    pub fn is_direct(&self, origin: OCtxId, seg: PathSeg) -> bool {
        self.origin == origin && self.path.len() == 1 && self.path[0] == seg
    }
}

/// Interning table for tags.
#[derive(Debug, Default, Clone)]
pub struct TagTable {
    tags: Vec<Tag>,
    map: std::collections::HashMap<Tag, TagId>,
}

impl TagTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `tag`.
    pub fn intern(&mut self, tag: Tag) -> TagId {
        if let Some(&id) = self.map.get(&tag) {
            return id;
        }
        let id = TagId::new(self.tags.len());
        self.tags.push(tag.clone());
        self.map.insert(tag, id);
        id
    }

    /// Resolves a tag id.
    pub fn resolve(&self, id: TagId) -> &Tag {
        &self.tags[id.index()]
    }

    /// Number of distinct tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Returns `true` when no tags are interned.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// An element of the concrete type lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TypeElem {
    /// Integer.
    Int,
    /// Float.
    Float,
    /// Boolean.
    Bool,
    /// String constant.
    Str,
    /// The nil reference.
    Nil,
    /// An instance abstracted by an object contour.
    Obj(OCtxId),
    /// A reference array abstracted by an object contour.
    Arr(OCtxId),
}

impl TypeElem {
    /// The object contour, for `Obj`/`Arr` elements.
    pub fn contour(self) -> Option<OCtxId> {
        match self {
            TypeElem::Obj(o) | TypeElem::Arr(o) => Some(o),
            _ => None,
        }
    }
}

/// An abstract value: a set of concrete types plus provenance tags.
///
/// `untagged` is the paper's `NoField`: some value reaching here did *not*
/// come from a field access. `tag_top` means the tag set overflowed and the
/// value must be treated as coming from unknown fields (kills inlining of
/// anything it touches).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbstractVal {
    /// Possible concrete types.
    pub types: BTreeSet<TypeElem>,
    /// Possible field provenances.
    pub tags: BTreeSet<TagId>,
    /// Whether a non-field-loaded value reaches here (`NoField`).
    pub untagged: bool,
    /// Tag-set overflow marker.
    pub tag_top: bool,
}

impl AbstractVal {
    /// The bottom value (empty).
    pub fn bottom() -> Self {
        Self::default()
    }

    /// A freshly produced (non-field) value of the given type.
    pub fn fresh(ty: TypeElem) -> Self {
        Self {
            types: std::iter::once(ty).collect(),
            tags: BTreeSet::new(),
            untagged: true,
            tag_top: false,
        }
    }

    /// Returns `true` if nothing flows here yet.
    pub fn is_bottom(&self) -> bool {
        self.types.is_empty() && self.tags.is_empty() && !self.untagged && !self.tag_top
    }

    /// Least-upper-bound join; returns `true` if `self` changed.
    pub fn join(&mut self, other: &AbstractVal) -> bool {
        self.join_parts(&other.types, &other.tags, other.untagged, other.tag_top)
    }

    /// [`Self::join`] with the value a [`ValKey`] stands for; the key is
    /// lossless, so this equals joining the value it was made from.
    pub fn join_key(&mut self, key: &ValKey) -> bool {
        self.join_parts(&key.types, &key.tags, key.untagged, key.tag_top)
    }

    fn join_parts<'a>(
        &mut self,
        types: impl IntoIterator<Item = &'a TypeElem>,
        tags: impl IntoIterator<Item = &'a TagId>,
        untagged: bool,
        tag_top: bool,
    ) -> bool {
        let mut changed = false;
        for &t in types {
            changed |= self.types.insert(t);
        }
        for &t in tags {
            changed |= self.tags.insert(t);
        }
        if untagged && !self.untagged {
            self.untagged = true;
            changed = true;
        }
        if tag_top && !self.tag_top {
            self.tag_top = true;
            changed = true;
        }
        changed
    }

    /// Joins only the type portion of `other` while marking the result as
    /// freshly produced — used for results of operations that strip
    /// provenance (arithmetic etc. never produce objects, so this is mostly
    /// a convenience for builtins).
    pub fn join_fresh(&mut self, ty: TypeElem) -> bool {
        let mut changed = self.types.insert(ty);
        if !self.untagged {
            self.untagged = true;
            changed = true;
        }
        changed
    }

    /// Object contours among the types.
    pub fn object_contours(&self) -> impl Iterator<Item = OCtxId> + '_ {
        self.types.iter().filter_map(|t| match t {
            TypeElem::Obj(o) => Some(*o),
            _ => None,
        })
    }

    /// Array contours among the types.
    pub fn array_contours(&self) -> impl Iterator<Item = OCtxId> + '_ {
        self.types.iter().filter_map(|t| match t {
            TypeElem::Arr(o) => Some(*o),
            _ => None,
        })
    }

    /// Returns `true` if any object or array type is present.
    pub fn has_reference_type(&self) -> bool {
        self.types.iter().any(|t| t.contour().is_some())
    }

    /// Canonical form used in contour keys.
    pub fn key(&self) -> ValKey {
        ValKey {
            types: self.types.iter().copied().collect(),
            tags: self.tags.iter().copied().collect(),
            untagged: self.untagged,
            tag_top: self.tag_top,
        }
    }
}

/// Canonicalized [`AbstractVal`] used to key method contours. Two calls with
/// equal keys share a contour; the subset condition of §4.1 is satisfied
/// trivially (equal sets are mutual subsets). The key is lossless:
/// `a.key() == b.key()` exactly when `a == b`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValKey {
    /// Sorted types.
    pub types: Vec<TypeElem>,
    /// Sorted tags.
    pub tags: Vec<TagId>,
    /// NoField marker.
    pub untagged: bool,
    /// Overflow marker.
    pub tag_top: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        let mut i = oi_support::Interner::new();
        i.intern(s)
    }

    #[test]
    fn tag_extension_and_head() {
        let t = Tag {
            origin: OCtxId::new(0),
            path: vec![PathSeg::Field(sym("ll"))],
        };
        let t2 = t.extend(PathSeg::Field(sym("x")));
        assert_eq!(t2.path.len(), 2);
        assert_eq!(t2.head(), PathSeg::Field(sym("x")));
        assert!(t.is_direct(OCtxId::new(0), PathSeg::Field(sym("ll"))));
        assert!(!t2.is_direct(OCtxId::new(0), PathSeg::Field(sym("ll"))));
    }

    #[test]
    fn tag_table_interns() {
        let mut tt = TagTable::new();
        let a = tt.intern(Tag {
            origin: OCtxId::new(0),
            path: vec![PathSeg::Elem],
        });
        let b = tt.intern(Tag {
            origin: OCtxId::new(0),
            path: vec![PathSeg::Elem],
        });
        let c = tt.intern(Tag {
            origin: OCtxId::new(1),
            path: vec![PathSeg::Elem],
        });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(tt.len(), 2);
    }

    #[test]
    fn join_is_monotone_and_idempotent() {
        let mut a = AbstractVal::fresh(TypeElem::Int);
        let b = AbstractVal::fresh(TypeElem::Obj(OCtxId::new(1)));
        assert!(a.join(&b));
        assert!(!a.join(&b), "second join is a no-op");
        assert_eq!(a.types.len(), 2);
        assert!(a.untagged);
    }

    #[test]
    fn bottom_identity() {
        let mut a = AbstractVal::bottom();
        assert!(a.is_bottom());
        let b = AbstractVal::fresh(TypeElem::Float);
        a.join(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn keys_equal_iff_same_abstraction() {
        let a = AbstractVal::fresh(TypeElem::Int);
        let mut b = AbstractVal::fresh(TypeElem::Int);
        assert_eq!(a.key(), b.key());
        b.tags.insert(TagId::new(0));
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn contour_iterators_filter() {
        let mut v = AbstractVal::bottom();
        v.types.insert(TypeElem::Obj(OCtxId::new(1)));
        v.types.insert(TypeElem::Arr(OCtxId::new(2)));
        v.types.insert(TypeElem::Int);
        assert_eq!(
            v.object_contours().collect::<Vec<_>>(),
            vec![OCtxId::new(1)]
        );
        assert_eq!(v.array_contours().collect::<Vec<_>>(), vec![OCtxId::new(2)]);
        assert!(v.has_reference_type());
    }
}
