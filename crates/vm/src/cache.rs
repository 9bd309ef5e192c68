//! A small set-associative data-cache simulator.
//!
//! The paper attributes part of object inlining's win (notably OOPACK's,
//! via parallel array layout) to cache behavior; the VM routes every heap
//! read and write through this model so colocated container/child state
//! actually pays fewer misses.

/// Cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl Default for CacheConfig {
    /// 32 KiB, 32-byte lines, 2-way — a 90s-workstation-flavored L1.
    fn default() -> Self {
        Self {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 2,
        }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-dividing).
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0, "cache must have at least one way");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines >= self.ways && lines.is_multiple_of(self.ways),
            "invalid cache geometry"
        );
        lines / self.ways
    }
}

/// An LRU set-associative cache over 64-bit byte addresses.
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    /// Number of sets.
    sets: u64,
    /// `sets - 1` when the set count is a power of two (the default 512
    /// is): a line's set is then `line & set_mask`, not `line % sets`.
    set_mask: Option<u64>,
    /// Set `s` owns `tags[s * ways..][..fill[s]]`: its resident lines,
    /// most recently used last.
    tags: Vec<u64>,
    /// Resident lines per set.
    fill: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Creates an empty (all-cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: sets as u64,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            tags: vec![0; sets * config.ways],
            fill: vec![0; sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Simulates an access to `addr`; returns `true` on hit.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        } as usize;
        let ways = self.config.ways;
        let n = self.fill[set] as usize;
        let resident = &mut self.tags[set * ways..set * ways + n];
        // A hit on the most recently used line leaves the order as it is:
        // the LRU result without a search or a move.
        if resident.last() == Some(&line) {
            self.hits += 1;
            return true;
        }
        if let Some(pos) = resident.iter().position(|&t| t == line) {
            // Refresh LRU position.
            resident.copy_within(pos + 1.., pos);
            resident[n - 1] = line;
            self.hits += 1;
            true
        } else {
            if n == ways {
                // Evict the least recently used (first) line.
                resident.copy_within(1.., 0);
                resident[n - 1] = line;
            } else {
                self.tags[set * ways + n] = line;
                self.fill[set] += 1;
            }
            self.misses += 1;
            false
        }
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction in `[0, 1]`; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The geometry this simulator was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_support::rng::XorShift64;

    /// The simulator's original form, kept as the reference model: one
    /// `Vec` of tags per set, most recently used last.
    struct ReferenceLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn new(config: CacheConfig) -> Self {
            Self {
                line_bytes: config.line_bytes as u64,
                ways: config.ways,
                sets: vec![Vec::with_capacity(config.ways); config.sets()],
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            let set_idx = (line % self.sets.len() as u64) as usize;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                let tag = set.remove(pos);
                set.push(tag);
                self.hits += 1;
                true
            } else {
                if set.len() == self.ways {
                    set.remove(0);
                }
                set.push(line);
                self.misses += 1;
                false
            }
        }
    }

    #[test]
    fn flat_sets_match_reference_lru_exactly() {
        let mut geometries = Vec::new();
        for ways in [1, 2, 4, 8] {
            for sets in [1, 2, 16, 512] {
                geometries.push(CacheConfig {
                    size_bytes: sets * ways * 32,
                    line_bytes: 32,
                    ways,
                });
            }
            for sets in [3, 5, 96] {
                geometries.push(CacheConfig {
                    size_bytes: sets * ways * 16,
                    line_bytes: 16,
                    ways,
                });
            }
        }
        // 96 B of 32-byte lines, direct-mapped: 3 sets.
        geometries.push(CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            ways: 1,
        });
        geometries.push(CacheConfig::default());
        for (g, &config) in geometries.iter().enumerate() {
            for seed in 0..8u64 {
                let mut rng = XorShift64::new(seed * 131 + g as u64);
                // Footprints from a few lines to far beyond capacity, so
                // streams mix hits, refreshes and evictions.
                let span = (config.size_bytes as u64) << rng.below(4);
                let random: Vec<u64> = (0..2_000)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            rng.next_u64()
                        } else {
                            rng.next_u64() % span
                        }
                    })
                    .collect();
                assert_matches_reference(config, &random, &format!("seed {seed} random"));
                let fields = field_access_stream(&mut rng, config, 2_000);
                assert_matches_reference(config, &fields, &format!("seed {seed} fields"));
            }
        }
    }

    /// An access stream shaped like field traffic: runs of 1-4 accesses to
    /// one line (the fields of one object), with 0-2 accesses to other
    /// lines between runs. The objects come from a pool of twice as many
    /// lines as the cache holds, so a run often lands on the line its set
    /// used last (the MRU hit path), and often on one an in-between access
    /// evicted.
    fn field_access_stream(rng: &mut XorShift64, config: CacheConfig, len: usize) -> Vec<u64> {
        let line = config.line_bytes as u64;
        let lines = config.size_bytes / config.line_bytes;
        let pool: Vec<u64> = (0..2 * lines)
            .map(|_| rng.below(4 * lines) as u64 * line)
            .collect();
        let mut addrs = Vec::new();
        let mut object = *rng.pick(&pool);
        while addrs.len() < len {
            for _ in 0..1 + rng.below(4) {
                addrs.push(object + rng.below(line as usize) as u64);
            }
            for _ in 0..rng.below(3) {
                addrs.push(*rng.pick(&pool) + rng.below(line as usize) as u64);
            }
            // Mostly the next object, sometimes the same one again.
            if rng.below(4) != 0 {
                object = *rng.pick(&pool);
            }
        }
        addrs
    }

    /// Feeds `addrs` to the flat simulator and to [`ReferenceLru`] and
    /// asserts that every access and both totals agree.
    fn assert_matches_reference(config: CacheConfig, addrs: &[u64], what: &str) {
        let mut flat = CacheSim::new(config);
        let mut reference = ReferenceLru::new(config);
        for (i, &addr) in addrs.iter().enumerate() {
            assert_eq!(
                flat.access(addr),
                reference.access(addr),
                "{config:?} {what} access {i} addr {addr}"
            );
        }
        assert_eq!(flat.hits(), reference.hits, "{config:?} {what}");
        assert_eq!(flat.misses(), reference.misses, "{config:?} {what}");
    }

    fn tiny() -> CacheSim {
        // 4 lines of 32 bytes, 2-way => 2 sets.
        CacheSim::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            ways: 2,
        })
    }

    #[test]
    fn geometry_computes_sets() {
        assert_eq!(CacheConfig::default().sets(), 512);
        assert_eq!(
            CacheConfig {
                size_bytes: 128,
                line_bytes: 32,
                ways: 2
            }
            .sets(),
            2
        );
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(8)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines with even line number (2 sets).
        c.access(0); // line 0 -> set 0
        c.access(64); // line 2 -> set 0
        c.access(128); // line 4 -> set 0, evicts line 0
        assert!(!c.access(0), "line 0 should have been evicted");
        // Re-inserting line 0 evicted line 2 in turn; line 4 survives.
        assert!(c.access(128), "line 4 should still be resident");
    }

    #[test]
    fn lru_refresh_on_hit() {
        let mut c = tiny();
        c.access(0); // line 0
        c.access(64); // line 2
        c.access(0); // refresh line 0
        c.access(128); // evicts line 2 (now LRU)
        assert!(c.access(0));
        assert!(!c.access(64));
    }

    #[test]
    fn sequential_locality_beats_strided() {
        let mut seq = CacheSim::new(CacheConfig::default());
        for i in 0..4096u64 {
            seq.access(i * 8);
        }
        let mut strided = CacheSim::new(CacheConfig::default());
        for i in 0..4096u64 {
            strided.access(i * 8 * 64); // one access per line, huge footprint
        }
        assert!(seq.hit_rate() > strided.hit_rate());
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn degenerate_geometry_panics() {
        let _ = CacheSim::new(CacheConfig {
            size_bytes: 32,
            line_bytes: 32,
            ways: 2,
        });
    }
}
