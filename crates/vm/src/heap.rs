//! The heap: host storage plus a modeled, word-addressed address space.
//!
//! Objects receive sequential modeled byte addresses from a bump allocator
//! (one header word plus one word per slot), so the cache simulator sees a
//! realistic address stream: objects allocated together are adjacent, and
//! an inline-allocated child's fields are words of its container's address
//! range. That flat layout is the model's. Host storage is not flat: every
//! object is its own [`HeapObject`] whose slots live in a separate
//! `Vec<Value>`, so objects allocated together need not be adjacent in host
//! memory, and every slot access loads the object's record before its
//! payload. An inline child's fields are slots of its container's payload.

use crate::error::VmError;
use crate::value::{ObjId, Value};
use oi_ir::ClassId;
use oi_support::IdxVec;

/// Word size in bytes.
pub const WORD: u64 = 8;

/// What a heap object is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjKind {
    /// A class instance; slots follow the class layout.
    Instance(ClassId),
    /// A reference array; slots are the elements.
    Array,
    /// An inline-allocated array of object state. `layout` indexes the VM's
    /// resolved layout table; `len` is the element count (slot count is
    /// `len * width`).
    ArrayInline {
        /// VM-resolved layout index.
        layout: u32,
        /// Element count.
        len: usize,
    },
}

/// One heap object.
#[derive(Clone, Debug)]
pub struct HeapObject {
    /// Kind tag.
    pub kind: ObjKind,
    /// Byte address of the header word.
    pub addr: u64,
    /// Payload.
    pub slots: Vec<Value>,
}

impl HeapObject {
    /// Byte address of slot `i`.
    pub fn slot_addr(&self, i: usize) -> u64 {
        self.addr + WORD + i as u64 * WORD
    }

    /// Element count for arrays (either kind).
    pub fn array_len(&self) -> Option<usize> {
        match self.kind {
            ObjKind::Array => Some(self.slots.len()),
            ObjKind::ArrayInline { len, .. } => Some(len),
            ObjKind::Instance(_) => None,
        }
    }
}

/// Count and footprint of one census group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CensusBucket {
    /// Objects in the group.
    pub count: u64,
    /// Total words the group occupies, headers included.
    pub words: u64,
}

impl CensusBucket {
    fn add(&mut self, slot_words: u64, header_words: u64) {
        self.count += 1;
        self.words += slot_words + header_words;
    }
}

/// A walk of everything on the heap, grouped by what it is. Because the
/// heap is an arena (nothing is reclaimed), "live" here means
/// "ever allocated" — exactly the population the paper's §6 counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HeapCensus {
    /// Per-class instance buckets, indexed by raw class id, sorted by id.
    /// Classes that were never instantiated are absent.
    pub instances: Vec<(ClassId, CensusBucket)>,
    /// Reference arrays.
    pub arrays: CensusBucket,
    /// Inline-allocated arrays of object state.
    pub inline_arrays: CensusBucket,
    /// Total elements embedded across all inline arrays (each one a child
    /// object that never paid for its own allocation).
    pub inline_elements: u64,
    /// Total header/padding words paid across every object.
    pub header_words: u64,
    /// Every object on the heap.
    pub total_objects: u64,
    /// Every word handed out, headers included. Agrees with both
    /// [`Heap::words_allocated`] and the interpreter's
    /// `Metrics::words_allocated` by construction.
    pub total_words: u64,
}

/// The bump-allocated heap. Memory is never reclaimed (arena discipline, as
/// in the paper's measurements).
#[derive(Clone, Debug)]
pub struct Heap {
    objects: IdxVec<ObjId, HeapObject>,
    next_addr: u64,
    words_allocated: u64,
    max_words: u64,
    header_words: u64,
}

impl Heap {
    /// Creates an empty heap with a word budget and a per-object overhead
    /// (header plus allocator padding — real allocators burn 1–2 words per
    /// object, which is a large part of why inline allocation packs memory
    /// so much better).
    pub fn new(max_words: u64, header_words: u64) -> Self {
        Self {
            objects: IdxVec::new(),
            // Leave address 0 unused so "nil-like" addresses never alias.
            next_addr: WORD,
            words_allocated: 0,
            max_words,
            header_words: header_words.max(1),
        }
    }

    /// Allocates an object with `slot_count` nil slots.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when the word budget is exhausted.
    pub fn alloc(&mut self, kind: ObjKind, slot_count: usize) -> Result<ObjId, VmError> {
        let words = slot_count as u64 + self.header_words;
        if self.words_allocated + words > self.max_words {
            return Err(VmError::OutOfMemory);
        }
        let addr = self.next_addr;
        self.next_addr += words * WORD;
        self.words_allocated += words;
        Ok(self.objects.push(HeapObject {
            kind,
            addr,
            slots: vec![Value::Nil; slot_count],
        }))
    }

    /// Immutable object access.
    pub fn get(&self, id: ObjId) -> &HeapObject {
        &self.objects[id]
    }

    /// Mutable object access.
    pub fn get_mut(&mut self, id: ObjId) -> &mut HeapObject {
        &mut self.objects[id]
    }

    /// Words handed out so far (headers included).
    pub fn words_allocated(&self) -> u64 {
        self.words_allocated
    }

    /// The effective per-object overhead in words. This is the figure the
    /// heap actually charges — the constructor clamps the configured value
    /// to at least one word — so metrics accounting must use it rather
    /// than re-reading the raw configuration.
    pub fn header_words(&self) -> u64 {
        self.header_words
    }

    /// Walks the heap and aggregates a [`HeapCensus`].
    pub fn census(&self) -> HeapCensus {
        let mut census = HeapCensus::default();
        let mut per_class: std::collections::BTreeMap<ClassId, CensusBucket> =
            std::collections::BTreeMap::new();
        for obj in self.objects.iter() {
            let slot_words = obj.slots.len() as u64;
            match obj.kind {
                ObjKind::Instance(c) => {
                    per_class
                        .entry(c)
                        .or_default()
                        .add(slot_words, self.header_words);
                }
                ObjKind::Array => census.arrays.add(slot_words, self.header_words),
                ObjKind::ArrayInline { len, .. } => {
                    census.inline_arrays.add(slot_words, self.header_words);
                    census.inline_elements += len as u64;
                }
            }
            census.header_words += self.header_words;
            census.total_objects += 1;
            census.total_words += slot_words + self.header_words;
        }
        census.instances = per_class.into_iter().collect();
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_sequential_and_disjoint() {
        let mut h = Heap::new(1024, 1);
        let a = h.alloc(ObjKind::Array, 2).unwrap();
        let b = h.alloc(ObjKind::Array, 3).unwrap();
        let (aa, ba) = (h.get(a).addr, h.get(b).addr);
        assert_eq!(ba - aa, 3 * WORD, "2 slots + header");
        assert_eq!(h.words_allocated(), 3 + 4);
    }

    #[test]
    fn slot_addresses_skip_header() {
        let mut h = Heap::new(1024, 1);
        let a = h.alloc(ObjKind::Instance(ClassId::new(0)), 2).unwrap();
        let obj = h.get(a);
        assert_eq!(obj.slot_addr(0), obj.addr + WORD);
        assert_eq!(obj.slot_addr(1), obj.addr + 2 * WORD);
    }

    #[test]
    fn slots_start_nil() {
        let mut h = Heap::new(1024, 1);
        let a = h.alloc(ObjKind::Array, 4).unwrap();
        assert!(h.get(a).slots.iter().all(|v| v.is_nil()));
        assert_eq!(h.get(a).array_len(), Some(4));
    }

    #[test]
    fn budget_is_enforced() {
        let mut h = Heap::new(4, 1);
        assert!(h.alloc(ObjKind::Array, 3).is_ok()); // 4 words with header
        assert_eq!(h.alloc(ObjKind::Array, 1), Err(VmError::OutOfMemory));
    }

    #[test]
    fn census_groups_by_kind_and_sums_words() {
        let mut h = Heap::new(1024, 2);
        h.alloc(ObjKind::Instance(ClassId::new(0)), 3).unwrap();
        h.alloc(ObjKind::Instance(ClassId::new(0)), 3).unwrap();
        h.alloc(ObjKind::Instance(ClassId::new(1)), 1).unwrap();
        h.alloc(ObjKind::Array, 4).unwrap();
        h.alloc(ObjKind::ArrayInline { layout: 0, len: 5 }, 10)
            .unwrap();
        let c = h.census();
        assert_eq!(c.total_objects, 5);
        assert_eq!(c.header_words, 5 * 2);
        assert_eq!(c.total_words, h.words_allocated());
        assert_eq!(
            c.instances,
            vec![
                (
                    ClassId::new(0),
                    CensusBucket {
                        count: 2,
                        words: 10
                    }
                ),
                (ClassId::new(1), CensusBucket { count: 1, words: 3 }),
            ]
        );
        assert_eq!(c.arrays, CensusBucket { count: 1, words: 6 });
        assert_eq!(
            c.inline_arrays,
            CensusBucket {
                count: 1,
                words: 12
            }
        );
        assert_eq!(c.inline_elements, 5);
    }

    #[test]
    fn header_words_reports_the_clamped_figure() {
        let h = Heap::new(1024, 0);
        assert_eq!(h.header_words(), 1, "heap clamps the overhead to >= 1");
        let h = Heap::new(1024, 3);
        assert_eq!(h.header_words(), 3);
    }

    #[test]
    fn empty_heap_census_is_all_zero() {
        let h = Heap::new(16, 1);
        assert_eq!(h.census(), HeapCensus::default());
    }

    #[test]
    fn inline_array_len_is_element_count() {
        let mut h = Heap::new(1024, 1);
        let a = h
            .alloc(ObjKind::ArrayInline { layout: 0, len: 5 }, 10)
            .unwrap();
        assert_eq!(h.get(a).array_len(), Some(5));
        assert_eq!(h.get(a).slots.len(), 10);
    }
}
