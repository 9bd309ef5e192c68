//! Property tests: the abstract-value domain is a join-semilattice and the
//! tag machinery respects its laws (the analysis's termination and
//! soundness rest on these).
//!
//! Random values come from the in-repo seeded PRNG, so every failure
//! reproduces from the seed printed in its message.

use oi_analysis::{AbstractVal, OCtxId, PathSeg, Tag, TagId, TypeElem};
use oi_support::rng::XorShift64;

fn type_elem(rng: &mut XorShift64) -> TypeElem {
    match rng.below(7) {
        0 => TypeElem::Int,
        1 => TypeElem::Float,
        2 => TypeElem::Bool,
        3 => TypeElem::Str,
        4 => TypeElem::Nil,
        5 => TypeElem::Obj(OCtxId::new(rng.below(8))),
        _ => TypeElem::Arr(OCtxId::new(rng.below(8))),
    }
}

fn abstract_val(rng: &mut XorShift64) -> AbstractVal {
    let types = (0..rng.below(6)).map(|_| type_elem(rng)).collect();
    let tags = (0..rng.below(5))
        .map(|_| TagId::new(rng.below(16)))
        .collect();
    AbstractVal {
        types,
        tags,
        untagged: rng.chance(1, 2),
        tag_top: rng.chance(1, 2),
    }
}

fn join(a: &AbstractVal, b: &AbstractVal) -> AbstractVal {
    let mut r = a.clone();
    r.join(b);
    r
}

const CASES: u64 = 128;

#[test]
fn join_is_commutative() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let (a, b) = (abstract_val(&mut rng), abstract_val(&mut rng));
        assert_eq!(join(&a, &b), join(&b, &a), "seed {seed}");
    }
}

#[test]
fn join_is_associative() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let (a, b, c) = (
            abstract_val(&mut rng),
            abstract_val(&mut rng),
            abstract_val(&mut rng),
        );
        assert_eq!(
            join(&join(&a, &b), &c),
            join(&a, &join(&b, &c)),
            "seed {seed}"
        );
    }
}

#[test]
fn join_is_idempotent_and_reports_change_correctly() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let (a, b) = (abstract_val(&mut rng), abstract_val(&mut rng));
        let mut x = a.clone();
        let changed = x.join(&b);
        // Fixpoint: joining again changes nothing.
        let mut y = x.clone();
        assert!(!y.join(&b), "seed {seed}");
        assert_eq!(&x, &y, "seed {seed}");
        // `changed` is accurate.
        assert_eq!(changed, x != a, "seed {seed}");
    }
}

#[test]
fn join_is_an_upper_bound() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let (a, b) = (abstract_val(&mut rng), abstract_val(&mut rng));
        let j = join(&a, &b);
        for t in a.types.iter().chain(b.types.iter()) {
            assert!(j.types.contains(t), "seed {seed}");
        }
        for t in a.tags.iter().chain(b.tags.iter()) {
            assert!(j.tags.contains(t), "seed {seed}");
        }
        assert_eq!(j.untagged, a.untagged || b.untagged, "seed {seed}");
        assert_eq!(j.tag_top, a.tag_top || b.tag_top, "seed {seed}");
    }
}

#[test]
fn bottom_is_identity() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let a = abstract_val(&mut rng);
        assert_eq!(join(&AbstractVal::bottom(), &a), a.clone(), "seed {seed}");
        assert_eq!(join(&a, &AbstractVal::bottom()), a, "seed {seed}");
    }
}

/// A value to pair with `a`: half the time an independent one, otherwise
/// `a` with at most one of its four components changed, so that equal
/// pairs are common.
fn partner(rng: &mut XorShift64, a: &AbstractVal) -> AbstractVal {
    if rng.chance(1, 2) {
        return abstract_val(rng);
    }
    let mut b = a.clone();
    match rng.below(8) {
        0 => {
            b.types.insert(type_elem(rng));
        }
        1 => {
            b.tags.insert(TagId::new(rng.below(16)));
        }
        2 => b.untagged = !b.untagged,
        3 => b.tag_top = !b.tag_top,
        _ => {}
    }
    b
}

#[test]
fn joining_a_key_equals_joining_its_value() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let a = abstract_val(&mut rng);
        let b = partner(&mut rng, &a);
        let (mut by_val, mut by_key) = (a.clone(), a.clone());
        let changed = by_val.join(&b);
        assert_eq!(by_key.join_key(&b.key()), changed, "seed {seed}");
        assert_eq!(by_key, by_val, "seed {seed}");
    }
}

/// The engine answers a call whose key it has seen from the memo alone,
/// which is only sound if equal keys mean equal values.
#[test]
fn keys_agree_with_equality() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let a = abstract_val(&mut rng);
        let b = partner(&mut rng, &a);
        assert_eq!(a == b, a.key() == b.key(), "seed {seed}");
    }
}

#[test]
fn tag_extension_grows_path_and_keeps_origin() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(seed);
        let origin = OCtxId::new(rng.below(8));
        let mut tag = Tag {
            origin,
            path: vec![PathSeg::Elem],
        };
        for _ in 0..1 + rng.below(3) {
            let s = PathSeg::Elem;
            let next = tag.extend(s);
            assert_eq!(next.origin, tag.origin, "seed {seed}");
            assert_eq!(next.path.len(), tag.path.len() + 1, "seed {seed}");
            assert_eq!(next.head(), s, "seed {seed}");
            tag = next;
        }
    }
}
