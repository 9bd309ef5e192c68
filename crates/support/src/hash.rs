//! Dependency-free content hashing for cache keys.
//!
//! The artifact cache (`oi_core::cache`) addresses compiled artifacts by
//! `(source hash, configuration fingerprint)`. The workspace builds with
//! zero external dependencies, so instead of a real BLAKE this module
//! hand-rolls a blake-*style* streaming hash: two independently seeded
//! 64-bit mixing lanes over little-endian word chunks, each finalized with
//! a splitmix64 avalanche, concatenated into a 128-bit [`Fingerprint`].
//! It is **not cryptographic** — collision resistance only has to hold
//! against accidental collisions in a compile cache, where a collision
//! costs a wrong cache hit on adversarially chosen *but locally authored*
//! sources, not a security boundary.
//!
//! Structured inputs (config fields) are written through the typed
//! `write_*` helpers, which length/tag-prefix their payloads so adjacent
//! fields cannot alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).
//!
//! # Examples
//!
//! ```
//! use oi_support::hash::{fingerprint, Hasher};
//! let a = fingerprint(b"class P { field x; }");
//! let b = fingerprint(b"class P { field x; }");
//! assert_eq!(a, b);
//! assert_ne!(a, fingerprint(b"class P { field  x; }"), "byte-different");
//!
//! let mut h = Hasher::new();
//! h.write_str("config");
//! h.write_u64(42);
//! assert_ne!(h.finish(), a);
//! ```

/// A 128-bit content fingerprint (two independent 64-bit lanes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(
    /// First lane.
    pub u64,
    /// Second lane.
    pub u64,
);

impl Fingerprint {
    /// The fingerprint as 32 lowercase hex characters (stable across
    /// platforms — both lanes are computed with explicit little-endian
    /// chunking).
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// splitmix64 finalizer: full-avalanche bit mixing.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A streaming two-lane hasher producing a [`Fingerprint`].
#[derive(Clone, Debug)]
pub struct Hasher {
    a: u64,
    b: u64,
    len: u64,
}

/// Lane multipliers: distinct odd constants (golden-ratio and FNV primes)
/// so the lanes decorrelate even over identical input words.
const LANE_A_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_B_MUL: u64 = 0x0000_0100_0000_01B3;

impl Hasher {
    /// A hasher with the fixed lane IVs (all fingerprints are comparable
    /// across processes and runs).
    pub fn new() -> Hasher {
        Hasher {
            a: 0x6A09_E667_F3BC_C908,
            b: 0xBB67_AE85_84CA_A73B,
            len: 0,
        }
    }

    fn mix(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(LANE_A_MUL);
        self.a ^= self.a >> 29;
        self.b = (self.b ^ word.rotate_left(32)).wrapping_mul(LANE_B_MUL);
        self.b ^= self.b >> 31;
    }

    /// Absorbs raw bytes (little-endian 8-byte chunks; the tail chunk is
    /// zero-padded, with the true byte length folded in at finish time so
    /// padding cannot alias real zero bytes).
    pub fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    /// Absorbs one `u64` as a tagged 8-byte field.
    pub fn write_u64(&mut self, v: u64) {
        self.mix(0x75_36_34); // "u64" domain tag
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string, length-prefixed so adjacent fields cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a boolean as a tagged byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v) | 0xB0_00);
    }

    /// The 128-bit fingerprint of everything absorbed so far (the hasher
    /// can keep absorbing afterwards).
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(
            avalanche(self.a ^ self.len),
            avalanche(self.b ^ self.len.rotate_left(17)),
        )
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// One-shot fingerprint of a byte slice.
pub fn fingerprint(bytes: &[u8]) -> Fingerprint {
    let mut h = Hasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_input_identical_fingerprint() {
        assert_eq!(fingerprint(b"hello"), fingerprint(b"hello"));
        assert_eq!(fingerprint(b""), fingerprint(b""));
    }

    #[test]
    fn single_byte_flip_changes_both_lanes() {
        let a = fingerprint(b"class P { field x; }");
        let b = fingerprint(b"class P { field y; }");
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn length_extension_of_zeros_does_not_alias() {
        // Padding the tail chunk with zeros must not collide with actual
        // zero bytes: the absorbed length separates them.
        assert_ne!(fingerprint(b"a"), fingerprint(b"a\0"));
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
        assert_ne!(
            fingerprint(b"\0\0\0\0\0\0\0"),
            fingerprint(b"\0\0\0\0\0\0\0\0")
        );
    }

    #[test]
    fn str_fields_are_boundary_unambiguous() {
        let mut h1 = Hasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = Hasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn fingerprints_survive_hex_round_trip_shape() {
        let fp = fingerprint(b"x");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{fp}"), hex);
    }

    #[test]
    fn no_collisions_over_a_small_corpus() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u32 {
            let fp = fingerprint(format!("source-{i}").as_bytes());
            assert!(seen.insert((fp.0, fp.1)), "collision at {i}");
        }
    }
}
