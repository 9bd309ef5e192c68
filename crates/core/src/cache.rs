//! Content-addressed artifact cache for the compile service.
//!
//! The compile server (`oic serve`) and the batch driver address optimized
//! artifacts by [`CacheKey`] — a pair of [`Fingerprint`]s: the raw *source
//! bytes* and the full *configuration/cost-model* the ladder would compile
//! them under. Two requests share an artifact only when both match, so a
//! changed array layout, analysis cap, VM cost constant, or start tier
//! can never serve a stale artifact, while byte-identical re-submissions
//! always hit.
//!
//! Keying is deliberately **byte**-addressed, not token-addressed: a
//! whitespace-only edit changes the source fingerprint and misses. That is
//! the conservative end of the design space — a miss costs one recompile,
//! a wrong hit costs a wrong program.
//!
//! Eviction is least-recently-used under a byte budget: each [`Artifact`]
//! carries a modeled byte footprint (the optimized program's code bytes
//! plus fixed per-entry overhead), and inserting past the budget evicts
//! the stalest entries first. Artifacts are handed out as
//! [`std::sync::Arc`] clones — a hit never deep-copies the program, so
//! concurrent batch workers and the server share one allocation.
//!
//! The [`store`] submodule adds the persistent tier: a crash-consistent
//! on-disk store of checksummed artifact envelopes behind the same
//! [`CacheKey`] addressing, so a restarted service warm-starts instead of
//! recompiling its working set.

pub mod store;

use crate::ladder::LadderConfig;
use crate::ladder::LadderOutcome;
use oi_support::hash::{Fingerprint, Hasher};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The content address of one compiled artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Fingerprint of the raw source bytes.
    pub source: Fingerprint,
    /// Fingerprint of the complete compile configuration (ladder knobs,
    /// inlining and analysis settings, VM cost model) — see
    /// [`config_fingerprint`].
    pub config: Fingerprint,
}

impl CacheKey {
    /// The whole-program key for `source` compiled under `config`.
    pub fn whole_program(source: &str, config: Fingerprint) -> CacheKey {
        CacheKey {
            source: oi_support::hash::fingerprint(source.as_bytes()),
            config,
        }
    }
}

/// Fingerprints every configuration knob that can change the optimized
/// artifact: the inline and analysis configs (fault injection included),
/// ladder oracle + start tier, firewall retraction budget and sanitizer
/// level, and the VM cost model, cache geometry and limits the oracle runs
/// under (an oracle verdict decides which decisions survive, so they are
/// part of the artifact's identity).
///
/// Extra service-level knobs that bound the compile (`max_rounds`,
/// `deadline_ms` analysis budgets) are folded in too: a compile that ran
/// under a tighter budget may have degraded, so it must not alias an
/// unbudgeted one.
pub fn config_fingerprint(
    ladder: &LadderConfig,
    max_rounds: Option<u64>,
    deadline_ms: Option<u64>,
) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_str("oi.cache.config.v1"); // domain-separates future revisions

    let inline = &ladder.inline;
    h.write_bool(inline.object_fields);
    h.write_bool(inline.array_elements);
    h.write_str(&format!("{:?}", inline.array_layout));
    h.write_bool(inline.check_assignments);
    h.write_str(&format!("{:?}", inline.fault));

    let an = &inline.analysis;
    h.write_bool(an.track_tags);
    h.write_u64(an.max_contours_per_method as u64);
    h.write_u64(an.max_ocontours_per_site as u64);
    h.write_u64(an.max_tag_path as u64);
    h.write_u64(an.max_tags_per_value as u64);

    h.write_bool(ladder.oracle);
    h.write_str(ladder.start.name());
    h.write_u64(ladder.firewall.max_retractions as u64);
    h.write_str(&format!("{:?}", ladder.firewall.checked));

    let vm = &ladder.firewall.vm;
    let c = &vm.cost;
    for v in [
        c.arith,
        c.float_arith,
        c.sqrt,
        c.mov,
        c.heap_read,
        c.heap_write,
        c.cache_miss,
        c.alloc_base,
        c.alloc_word,
        c.dyn_dispatch,
        c.static_call,
        c.call_arg,
        c.branch,
        c.lea,
        c.print,
    ] {
        h.write_u64(v);
    }
    h.write_u64(vm.cache.size_bytes as u64);
    h.write_u64(vm.cache.line_bytes as u64);
    h.write_u64(vm.cache.ways as u64);
    h.write_u64(vm.max_instructions);
    h.write_u64(vm.max_depth as u64);
    h.write_u64(vm.max_heap_words);
    h.write_u64(vm.alloc_header_words);

    h.write_u64(max_rounds.unwrap_or(0));
    h.write_bool(max_rounds.is_some());
    h.write_u64(deadline_ms.unwrap_or(0));
    h.write_bool(deadline_ms.is_some());
    h.finish()
}

/// Fixed modeled per-entry overhead in bytes (key, metadata, report), so
/// even an empty program charges something against the budget.
const ENTRY_OVERHEAD_BYTES: usize = 1024;

/// One cached compile result: the full ladder outcome plus its modeled
/// byte footprint.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The ladder's result for this key (program + effectiveness report +
    /// tier/descent record).
    pub outcome: LadderOutcome,
    /// Modeled bytes charged against the cache budget.
    pub bytes: usize,
}

impl Artifact {
    /// Wraps a ladder outcome, deriving its budget footprint from the
    /// optimized program's modeled code size.
    pub fn new(outcome: LadderOutcome) -> Artifact {
        let size = oi_ir::size::measure(&outcome.optimized.program);
        Artifact {
            outcome,
            bytes: size.code_bytes + ENTRY_OVERHEAD_BYTES,
        }
    }
}

/// Point-in-time cache counters (monotonic except `entries`/`bytes`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Artifacts inserted.
    pub insertions: u64,
    /// Cumulative modeled bytes across all insertions (monotonic; pairs
    /// with `evictions` to characterize churn under the budget).
    pub inserted_bytes: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Modeled bytes currently resident.
    pub bytes: usize,
    /// The configured byte budget.
    pub max_bytes: usize,
}

struct Entry {
    artifact: Arc<Artifact>,
    last_used: u64,
}

struct CacheInner {
    entries: BTreeMap<CacheKey, Entry>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
    inserted_bytes: u64,
}

/// A thread-safe LRU artifact cache under a byte budget.
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    max_bytes: usize,
}

impl ArtifactCache {
    /// An empty cache bounded to `max_bytes` of modeled artifact bytes.
    pub fn new(max_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                entries: BTreeMap::new(),
                clock: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                insertions: 0,
                inserted_bytes: 0,
            }),
            max_bytes,
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // Batch workers contain panics per job; a panic while holding the
        // lock must not poison the cache for the rest of the fleet.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, bumping its recency on a hit. The returned `Arc`
    /// shares the resident artifact — no clone of the program.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Artifact>> {
        let mut inner = self.locked();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                inner.hits += 1;
                Some(Arc::clone(&inner.entries[key].artifact))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts an artifact under `key`, evicting least-recently-used
    /// entries until the byte budget holds, and returns the shared handle.
    /// The just-inserted entry is never evicted, so a single artifact
    /// larger than the whole budget still caches (alone).
    pub fn insert(&self, key: CacheKey, artifact: Artifact) -> Arc<Artifact> {
        let shared = Arc::new(artifact);
        let mut inner = self.locked();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.remove(&key) {
            inner.bytes -= old.artifact.bytes;
        }
        inner.bytes += shared.bytes;
        inner.insertions += 1;
        inner.inserted_bytes += shared.bytes as u64;
        inner.entries.insert(
            key,
            Entry {
                artifact: Arc::clone(&shared),
                last_used: clock,
            },
        );
        while inner.bytes > self.max_bytes && inner.entries.len() > 1 {
            let stalest = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match stalest {
                Some(victim) => {
                    let gone = inner.entries.remove(&victim).expect("victim resident");
                    inner.bytes -= gone.artifact.bytes;
                    inner.evictions += 1;
                }
                None => break,
            }
        }
        shared
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.locked();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            insertions: inner.insertions,
            inserted_bytes: inner.inserted_bytes,
            entries: inner.entries.len(),
            bytes: inner.bytes,
            max_bytes: self.max_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{optimize_with_ladder, LadderConfig};
    use oi_support::Budget;

    const SOURCE: &str = "
        global KEEP;
        class Point { field x; field y;
          method init(a, b) { self.x = a; self.y = b; }
        }
        class Rect { field ll; field ur;
          method init(a, b) { self.ll = new Point(a, a + 1); self.ur = new Point(b, b + 3); }
          method span() { return self.ur.x - self.ll.x + self.ur.y - self.ll.y; }
        }
        fn main() {
          var r = new Rect(1, 10);
          KEEP = r;
          print KEEP.span();
        }";

    fn compile(source: &str) -> LadderOutcome {
        let program = oi_ir::lower::compile(source).expect("test source compiles");
        optimize_with_ladder(&program, &LadderConfig::default(), &Budget::unlimited())
    }

    fn artifact_sized(bytes: usize) -> Artifact {
        let mut artifact = Artifact::new(compile(SOURCE));
        artifact.bytes = bytes;
        artifact
    }

    #[test]
    fn key_is_stable_for_identical_source_and_config() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let a = CacheKey::whole_program(SOURCE, fp);
        let b = CacheKey::whole_program(SOURCE, fp);
        assert_eq!(a, b);
        let cache = ArtifactCache::new(1 << 20);
        cache.insert(a, Artifact::new(compile(SOURCE)));
        assert!(cache.get(&b).is_some(), "same source+config must hit");
    }

    #[test]
    fn byte_different_whitespace_misses() {
        // Token-identical but byte-different: an extra space. The cache is
        // byte-addressed, so this must miss.
        let respaced = SOURCE.replace("field x;", "field  x;");
        assert_ne!(SOURCE, respaced);
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let cache = ArtifactCache::new(1 << 20);
        cache.insert(
            CacheKey::whole_program(SOURCE, fp),
            Artifact::new(compile(SOURCE)),
        );
        assert!(
            cache.get(&CacheKey::whole_program(&respaced, fp)).is_none(),
            "byte-different source must miss"
        );
    }

    #[test]
    fn config_fingerprint_sees_every_knob_family() {
        use crate::fault::Fault;
        use crate::ladder::Tier;
        use oi_ir::ArrayLayoutKind;
        use oi_vm::CheckLevel;
        let base = LadderConfig::default();
        let fp = config_fingerprint(&base, None, None);
        let differs = |name: &str, mutate: fn(&mut LadderConfig)| {
            let mut changed = base;
            mutate(&mut changed);
            assert_ne!(fp, config_fingerprint(&changed, None, None), "{name}");
        };
        differs("object_fields", |c| c.inline.object_fields = false);
        differs("array_elements", |c| c.inline.array_elements = false);
        differs("array_layout", |c| {
            c.inline.array_layout = ArrayLayoutKind::Parallel;
        });
        differs("check_assignments", |c| c.inline.check_assignments = false);
        differs("fault", |c| c.inline.fault = Some(Fault::SkipUseRedirect));
        differs("track_tags", |c| c.inline.analysis.track_tags = false);
        differs("max_contours_per_method", |c| {
            c.inline.analysis.max_contours_per_method -= 1;
        });
        differs("max_ocontours_per_site", |c| {
            c.inline.analysis.max_ocontours_per_site -= 1;
        });
        differs("max_tag_path", |c| c.inline.analysis.max_tag_path -= 1);
        differs("max_tags_per_value", |c| {
            c.inline.analysis.max_tags_per_value -= 1;
        });
        differs("vm", |c| c.firewall.vm.cost.cache_miss += 1);
        differs("max_retractions", |c| c.firewall.max_retractions = 0);
        differs("checked", |c| c.firewall.checked = CheckLevel::Basic);
        differs("oracle", |c| c.oracle = false);
        differs("start", |c| c.start = Tier::InliningOff);

        // Budget knobs are part of the identity, and None != Some(0).
        assert_ne!(fp, config_fingerprint(&base, Some(0), None));
        assert_ne!(fp, config_fingerprint(&base, None, Some(500)));
        assert_eq!(fp, config_fingerprint(&base, None, None));
    }

    #[test]
    fn lru_evicts_stalest_at_byte_budget() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let key = |i: u32| CacheKey::whole_program(&format!("src-{i}"), fp);
        let cache = ArtifactCache::new(3_000);
        cache.insert(key(0), artifact_sized(1_000));
        cache.insert(key(1), artifact_sized(1_000));
        cache.insert(key(2), artifact_sized(1_000));
        assert_eq!(cache.stats().entries, 3);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(3), artifact_sized(1_000));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
        assert!(stats.bytes <= 3_000);
        assert!(cache.get(&key(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn oversized_single_artifact_still_caches_alone() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let key = CacheKey::whole_program("big", fp);
        let cache = ArtifactCache::new(100);
        cache.insert(key, artifact_sized(10_000));
        assert!(cache.get(&key).is_some(), "never evicts the just-inserted");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn oversized_artifact_is_pinned_only_until_the_next_insert() {
        // The pinning contract: an over-budget entry is admitted and
        // served (a compile is never wasted), but it is the first LRU
        // victim once anything else arrives — the budget reasserts itself
        // instead of one whale squatting in the cache forever.
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let whale = CacheKey::whole_program("whale", fp);
        let minnow = CacheKey::whole_program("minnow", fp);
        let cache = ArtifactCache::new(100);
        cache.insert(whale, artifact_sized(10_000));
        assert!(cache.get(&whale).is_some(), "oversized entry is served");
        cache.insert(minnow, artifact_sized(50));
        let stats = cache.stats();
        assert!(cache.get(&whale).is_none(), "whale evicted on next insert");
        assert!(cache.get(&minnow).is_some());
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 100, "budget holds again: {}", stats.bytes);
    }

    #[test]
    fn inserted_bytes_accumulates_across_evictions_and_replacements() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let key = |i: u32| CacheKey::whole_program(&format!("src-{i}"), fp);
        let cache = ArtifactCache::new(1_500);
        cache.insert(key(0), artifact_sized(1_000));
        cache.insert(key(1), artifact_sized(1_000)); // evicts key(0)
        cache.insert(key(1), artifact_sized(200)); // replaces in place
        let stats = cache.stats();
        assert_eq!(stats.inserted_bytes, 2_200, "monotonic, counts churn");
        assert_eq!(stats.bytes, 200, "resident bytes reflect the survivor");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
    }

    #[test]
    fn hit_shares_the_arc_no_artifact_clone() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let key = CacheKey::whole_program(SOURCE, fp);
        let cache = ArtifactCache::new(1 << 20);
        let inserted = cache.insert(key, Artifact::new(compile(SOURCE)));
        let hit_a = cache.get(&key).expect("hit");
        let hit_b = cache.get(&key).expect("hit");
        assert!(
            Arc::ptr_eq(&inserted, &hit_a),
            "hit returns the same allocation"
        );
        assert!(Arc::ptr_eq(&hit_a, &hit_b));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn reinsert_replaces_and_accounts_bytes() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let key = CacheKey::whole_program(SOURCE, fp);
        let cache = ArtifactCache::new(1 << 20);
        cache.insert(key, artifact_sized(1_000));
        cache.insert(key, artifact_sized(2_000));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 2_000);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn stats_reconcile_with_operations() {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let cache = ArtifactCache::new(1 << 20);
        let key = CacheKey::whole_program(SOURCE, fp);
        assert!(cache.get(&key).is_none());
        cache.insert(key, Artifact::new(compile(SOURCE)));
        assert!(cache.get(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }
}
