//! Program-level IR structures: classes, fields, methods, globals and the
//! inline-layout table produced by the object-inlining transformation.

use crate::instr::{Instr, Terminator};
use oi_support::{define_idx, IdxVec, Interner, Symbol};
use std::collections::HashMap;

define_idx!(
    /// Identifies a class in [`Program::classes`].
    pub struct ClassId, "class"
);
define_idx!(
    /// Identifies a method in [`Program::methods`].
    pub struct MethodId, "m"
);
define_idx!(
    /// Identifies a declared field in [`Program::fields`].
    pub struct FieldId, "f"
);
define_idx!(
    /// Identifies a global variable in [`Program::globals`].
    pub struct GlobalId, "g"
);
define_idx!(
    /// Identifies a basic block within a [`Method`].
    pub struct BlockId, "bb"
);
define_idx!(
    /// Identifies an allocation site, unique across the whole program.
    /// Object contours are keyed on these.
    pub struct SiteId, "site"
);
define_idx!(
    /// Identifies an [`InlineLayout`] in [`Program::layouts`].
    pub struct LayoutId, "layout"
);

define_idx!(
    /// A virtual register within a method. By convention temp 0 is `self`
    /// and temps `1..=param_count` are the declared parameters.
    pub struct Temp, "t"
);

/// A class definition.
#[derive(Clone, Debug)]
pub struct Class {
    /// Class name.
    pub name: Symbol,
    /// Superclass, if any.
    pub parent: Option<ClassId>,
    /// Fields declared directly on this class, in declaration order.
    /// The object-inlining transformation rewrites this list (replacing an
    /// inlined field with the child's first field and appending the rest).
    pub own_fields: Vec<FieldId>,
    /// Methods declared directly on this class, by selector.
    pub methods: HashMap<Symbol, MethodId>,
}

/// A declared field.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name (unique within its class hierarchy in well-formed input).
    pub name: Symbol,
    /// The class that declares the field.
    pub owner: ClassId,
    /// Source-level annotations (`@inline_ideal`, `@inline_cxx`), used for
    /// evaluation ground truth.
    pub annotations: Vec<Symbol>,
}

/// A global variable.
#[derive(Clone, Debug)]
pub struct Global {
    /// Global name.
    pub name: Symbol,
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

/// A method (or free function, modeled as a method of the synthetic `$Main`
/// class).
#[derive(Clone, Debug)]
pub struct Method {
    /// Selector.
    pub name: Symbol,
    /// Class the method belongs to.
    pub class: ClassId,
    /// Number of declared parameters (excluding `self`).
    pub param_count: u32,
    /// Total number of temps used by the body (≥ `param_count + 1`).
    pub temp_count: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: IdxVec<BlockId, Block>,
}

impl Method {
    /// The temp holding `self`.
    pub fn self_temp(&self) -> Temp {
        Temp::new(0)
    }

    /// The temp holding the `i`-th declared parameter (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= param_count`.
    pub fn param_temp(&self, i: u32) -> Temp {
        assert!(i < self.param_count, "parameter index out of range");
        Temp::new(1 + i as usize)
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Iterates over `(block, index, instr)` triples.
    pub fn instrs(&self) -> impl Iterator<Item = (BlockId, usize, &Instr)> {
        self.blocks.iter_enumerated().flat_map(|(bb, block)| {
            block
                .instrs
                .iter()
                .enumerate()
                .map(move |(i, ins)| (bb, i, ins))
        })
    }

    /// Total instruction count (terminators excluded).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// How an inline-allocated array lays out child object state (paper §5.3 and
/// the OOPACK discussion in §6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArrayLayoutKind {
    /// Element state stored contiguously per element: `(i, j) → i*k + j`.
    Interleaved,
    /// One plane per child field ("Fortran style" parallel arrays, which the
    /// paper credits for OOPACK's cache behavior): `(i, j) → j*n + i`.
    Parallel,
}

/// Where the state of an inlined child object lives inside its container.
///
/// For object containers, `slots[j]` is the index into the container class's
/// layout where the child's `j`-th field is stored (the first child field
/// replaces the removed reference slot; the rest are appended — paper §5.2,
/// Figure 11).
///
/// For array containers, the logical child field `j` of element `i` is
/// addressed per [`ArrayLayoutKind`].
#[derive(Clone, Debug)]
pub struct InlineLayout {
    /// The class of the inlined child object.
    pub child_class: ClassId,
    /// Names of the child's fields, in the child class's layout order.
    pub child_fields: Vec<Symbol>,
    /// For object containers: container-layout slot of each child field.
    /// Empty for array containers.
    pub slots: Vec<usize>,
    /// `Some` for array containers.
    pub array_kind: Option<ArrayLayoutKind>,
}

impl InlineLayout {
    /// Number of words of child state.
    pub fn width(&self) -> usize {
        self.child_fields.len()
    }
}

/// A whole-program IR unit.
#[derive(Clone, Debug)]
pub struct Program {
    /// Shared name interner.
    pub interner: Interner,
    /// All classes. Index 0 is the synthetic `$Main` class.
    pub classes: IdxVec<ClassId, Class>,
    /// All methods.
    pub methods: IdxVec<MethodId, Method>,
    /// All declared fields.
    pub fields: IdxVec<FieldId, Field>,
    /// All globals.
    pub globals: IdxVec<GlobalId, Global>,
    /// Inline layouts introduced by the transformation.
    pub layouts: IdxVec<LayoutId, InlineLayout>,
    /// Number of allocation sites handed out so far.
    pub site_count: u32,
    /// The entry method (`fn main`).
    pub entry: MethodId,
}

impl Program {
    /// Allocates a fresh allocation-site id.
    pub fn fresh_site(&mut self) -> SiteId {
        let s = SiteId::new(self.site_count as usize);
        self.site_count += 1;
        s
    }

    /// The synthetic class that hosts free functions.
    pub fn main_class(&self) -> ClassId {
        ClassId::new(0)
    }

    /// Resolves a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        let sym = self.interner.get(name)?;
        self.classes
            .iter_enumerated()
            .find(|(_, c)| c.name == sym)
            .map(|(id, _)| id)
    }

    /// Resolves a method `Class::selector` by names.
    pub fn method_by_name(&self, class: &str, selector: &str) -> Option<MethodId> {
        let class = self.class_by_name(class)?;
        let sel = self.interner.get(selector)?;
        self.classes[class].methods.get(&sel).copied()
    }

    /// Full field layout of `class`: superclass fields first, then own
    /// fields, recursively.
    pub fn layout_of(&self, class: ClassId) -> Vec<FieldId> {
        let mut out = match self.classes[class].parent {
            Some(p) => self.layout_of(p),
            None => Vec::new(),
        };
        out.extend(self.classes[class].own_fields.iter().copied());
        out
    }

    /// Slot index of the field named `field` in `class`'s layout.
    pub fn slot_of(&self, class: ClassId, field: Symbol) -> Option<usize> {
        self.layout_of(class)
            .iter()
            .position(|&f| self.fields[f].name == field)
    }

    /// The declared [`FieldId`] visible as `field` on `class` (searching up
    /// the superclass chain).
    pub fn field_of(&self, class: ClassId, field: Symbol) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(&fid) = self.classes[c]
                .own_fields
                .iter()
                .find(|&&f| self.fields[f].name == field)
            {
                return Some(fid);
            }
            cur = self.classes[c].parent;
        }
        None
    }

    /// Looks up the method invoked by sending `selector` to an instance of
    /// `class` (searching up the superclass chain).
    pub fn lookup_method(&self, class: ClassId, selector: Symbol) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(&m) = self.classes[c].methods.get(&selector) {
                return Some(m);
            }
            cur = self.classes[c].parent;
        }
        None
    }

    /// Returns `true` if `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c].parent;
        }
        false
    }

    /// All classes that are `class` or inherit from it.
    pub fn subclasses_of(&self, class: ClassId) -> Vec<ClassId> {
        self.classes
            .ids()
            .filter(|&c| self.is_subclass(c, class))
            .collect()
    }

    /// Human-readable `Class::method` name.
    pub fn method_display(&self, m: MethodId) -> String {
        let method = &self.methods[m];
        format!(
            "{}::{}",
            self.interner.resolve(self.classes[method.class].name),
            self.interner.resolve(method.name)
        )
    }

    /// Total instruction count across all methods (a cheap size proxy).
    pub fn total_instrs(&self) -> usize {
        self.methods.iter().map(Method::instr_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tiny two-class hierarchy by hand.
    fn sample() -> Program {
        let mut interner = Interner::new();
        let base = interner.intern("Base");
        let derived = interner.intern("Derived");
        let fa = interner.intern("a");
        let fb = interner.intern("b");
        let mut classes: IdxVec<ClassId, Class> = IdxVec::new();
        let mut fields: IdxVec<crate::program::FieldId, Field> = IdxVec::new();
        let main = classes.push(Class {
            name: interner.intern("$Main"),
            parent: None,
            own_fields: vec![],
            methods: HashMap::new(),
        });
        assert_eq!(main.index(), 0);
        let base_id = classes.push(Class {
            name: base,
            parent: None,
            own_fields: vec![],
            methods: HashMap::new(),
        });
        let derived_id = classes.push(Class {
            name: derived,
            parent: Some(base_id),
            own_fields: vec![],
            methods: HashMap::new(),
        });
        let fa_id = fields.push(Field {
            name: fa,
            owner: base_id,
            annotations: vec![],
        });
        let fb_id = fields.push(Field {
            name: fb,
            owner: derived_id,
            annotations: vec![],
        });
        classes[base_id].own_fields.push(fa_id);
        classes[derived_id].own_fields.push(fb_id);
        let mut methods = IdxVec::new();
        let entry = methods.push(Method {
            name: interner.intern("main"),
            class: main,
            param_count: 0,
            temp_count: 1,
            blocks: std::iter::once(Block::default()).collect(),
        });
        Program {
            interner,
            classes,
            methods,
            fields,
            globals: IdxVec::new(),
            layouts: IdxVec::new(),
            site_count: 0,
            entry,
        }
    }

    #[test]
    fn layout_concatenates_parent_prefix() {
        let p = sample();
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        assert_eq!(p.layout_of(base).len(), 1);
        let dl = p.layout_of(derived);
        assert_eq!(dl.len(), 2);
        // Parent's field comes first: prefix conformance.
        assert_eq!(p.fields[dl[0]].owner, base);
    }

    #[test]
    fn slot_and_field_resolution() {
        let p = sample();
        let derived = p.class_by_name("Derived").unwrap();
        let a = p.interner.get("a").unwrap();
        let b = p.interner.get("b").unwrap();
        assert_eq!(p.slot_of(derived, a), Some(0));
        assert_eq!(p.slot_of(derived, b), Some(1));
        assert!(p.field_of(derived, a).is_some());
        let missing = p.interner.get("zzz");
        assert!(missing.is_none());
    }

    #[test]
    fn subclass_relation() {
        let p = sample();
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        assert!(p.is_subclass(derived, base));
        assert!(p.is_subclass(base, base));
        assert!(!p.is_subclass(base, derived));
        assert_eq!(p.subclasses_of(base), vec![base, derived]);
    }

    #[test]
    fn fresh_sites_are_unique() {
        let mut p = sample();
        let a = p.fresh_site();
        let b = p.fresh_site();
        assert_ne!(a, b);
        assert_eq!(p.site_count, 2);
    }
}
