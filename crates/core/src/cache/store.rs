//! Persistent, crash-consistent disk tier for the artifact cache.
//!
//! [`DiskStore`] stores compiled artifacts content-addressed by
//! [`CacheKey`] so a restarted compile service serves warm artifacts
//! instead of cold-compiling its whole working set. The design goal is
//! *crash consistency without a database*: every on-disk structure is
//! either atomically replaced or append-only and checksummed, so any
//! interruption — kill -9, ENOSPC, torn sector, bit rot — leaves a state
//! recovery can classify and quarantine.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   journal               append-only manifest (checksummed records)
//!   objects/<key>.art     one envelope per artifact (content-addressed)
//!   objects/*.tmp         in-flight writes (never read as artifacts)
//!   quarantine/           sidelined corrupt files (never served)
//! ```
//!
//! # The `oi.artifact.v1` envelope
//!
//! Each entry file is a checksummed envelope around the serialized
//! [`LadderOutcome`]: magic string, format version, the full cache key
//! (both fingerprints), payload length, and a content checksum over the
//! payload bytes. Entries are written to a temp file, fsynced, then
//! renamed into place — a crash leaves either the old state or the new
//! state plus a quarantinable temp, never a half-visible artifact.
//!
//! # The manifest journal
//!
//! LRU recency and byte-budget state live in an append-only journal of
//! checksummed records (insert / evict / touch). A torn tail — the
//! normal result of killing the process mid-append — is detected by the
//! per-record checksum, truncated away, and repaired from the object
//! directory itself (valid orphan entries are re-adopted). The journal is
//! rewritten compacted on clean shutdown and after every recovery.
//!
//! # Recovery invariant
//!
//! [`DiskStore::open`] always reaches a serving state. Corruption is
//! never fatal: every damaged file is moved to `quarantine/`, counted in
//! the [`RecoveryReport`], and the store degrades toward an empty cache.
//! Only environmental errors (the directory cannot be created or the
//! journal cannot be opened for append) fail `open`.

use super::{Artifact, CacheKey};
use crate::fault::IoFault;
use crate::ladder::{Descent, LadderOutcome, Tier};
use crate::pipeline::Optimized;
use crate::report::{EffectivenessReport, FieldOutcome, ProvenanceStep};
use oi_support::codec::{DecodeError, Reader, Writer};
use oi_support::hash::{fingerprint, Fingerprint};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Envelope magic, first bytes of every entry file.
const MAGIC: &str = "oi.artifact.v1";
/// Envelope format version; a mismatch quarantines the entry.
const FORMAT_VERSION: u32 = 1;
/// Sanity bound on one journal record's payload (a record is ~50 bytes;
/// anything larger is framing corruption).
const MAX_RECORD_BYTES: u32 = 4096;

/// Why a file was quarantined — the detection lattice for storage faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Magic string or structural framing did not parse.
    BadEnvelope,
    /// Envelope version differs from the format version this build
    /// writes.
    VersionSkew,
    /// Envelope key does not match the content address it was stored
    /// under.
    KeyMismatch,
    /// Payload shorter or longer than the envelope declares (torn write).
    LengthMismatch,
    /// Payload checksum mismatch (bit rot, torn write inside payload).
    ChecksumMismatch,
    /// Checksum held but the payload failed to decode (should only occur
    /// on version-compatible but buggy writers; treated identically).
    Undecodable,
}

impl Corruption {
    /// Stable name used in quarantine filenames and reports.
    pub fn name(self) -> &'static str {
        match self {
            Corruption::BadEnvelope => "bad-envelope",
            Corruption::VersionSkew => "version-skew",
            Corruption::KeyMismatch => "key-mismatch",
            Corruption::LengthMismatch => "length-mismatch",
            Corruption::ChecksumMismatch => "checksum-mismatch",
            Corruption::Undecodable => "undecodable",
        }
    }
}

/// What recovery found and did while opening a store directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries verified and kept serving.
    pub entries_kept: u64,
    /// Entry files quarantined (bad checksum, version skew, torn write,
    /// key mismatch, undecodable).
    pub quarantined: u64,
    /// `true` when the journal had a torn/corrupt tail that was truncated.
    pub journal_truncated: bool,
    /// Manifest records referencing entry files that no longer exist.
    pub stale_records: u64,
    /// Redundant insert records for keys already resident (replay keeps
    /// the newest).
    pub duplicate_records: u64,
    /// Valid entry files not referenced by the manifest (lost journal
    /// tail), re-adopted into the manifest.
    pub orphans_adopted: u64,
    /// In-flight temp files sidelined (crash or ENOSPC mid-write).
    pub torn_temps: u64,
}

impl RecoveryReport {
    /// `true` when recovery found any damage at all.
    pub fn found_damage(&self) -> bool {
        self.quarantined > 0
            || self.journal_truncated
            || self.stale_records > 0
            || self.orphans_adopted > 0
            || self.torn_temps > 0
    }
}

/// Point-in-time disk-tier counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries currently resident on disk.
    pub entries: usize,
    /// Envelope bytes currently resident.
    pub bytes: u64,
    /// The configured disk byte budget.
    pub max_bytes: u64,
    /// `load` calls that found and verified an entry.
    pub load_hits: u64,
    /// `load` calls that found nothing for the key.
    pub load_misses: u64,
    /// Entries found corrupt at load time, quarantined, and reported as
    /// misses (never served).
    pub corrupt_quarantined: u64,
    /// Artifacts persisted successfully.
    pub persists: u64,
    /// Persist attempts that failed (e.g. device full); the in-memory
    /// tier keeps serving, the disk tier just misses later.
    pub persist_failures: u64,
    /// Entries evicted to hold the disk byte budget.
    pub evictions: u64,
}

struct DiskEntry {
    bytes: u64,
    seq: u64,
}

struct DiskInner {
    manifest: BTreeMap<CacheKey, DiskEntry>,
    journal: File,
    seq: u64,
    bytes: u64,
    stats: DiskStats,
    fail_next_persist: bool,
}

/// The persistent artifact tier: content-addressed envelopes plus a
/// checksummed manifest journal, opened through crash recovery.
pub struct DiskStore {
    dir: PathBuf,
    max_bytes: u64,
    recovery: RecoveryReport,
    inner: Mutex<DiskInner>,
}

impl DiskStore {
    /// Opens (creating if needed) the store at `dir` under a disk byte
    /// budget, running crash recovery first.
    ///
    /// Recovery never refuses to start over corruption: damaged entries
    /// and temp files are sidelined into `quarantine/`, a torn journal
    /// tail is truncated, orphaned valid entries are re-adopted, and the
    /// journal is rewritten compacted. Only environmental failures
    /// (directory or journal cannot be created) return `Err`.
    pub fn open(dir: &Path, max_bytes: u64) -> io::Result<DiskStore> {
        fs::create_dir_all(objects_dir(dir))?;
        fs::create_dir_all(quarantine_dir(dir))?;
        let mut report = RecoveryReport::default();

        // 1. Replay the journal, truncating a torn tail.
        let journal_path = dir.join("journal");
        let raw = match fs::read(&journal_path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let replay = replay_journal(&raw);
        report.journal_truncated = replay.truncated;
        report.duplicate_records = replay.duplicates;

        // 2. Sweep the object directory: classify temp files, collect
        //    entry files by key.
        let mut on_disk: BTreeMap<CacheKey, PathBuf> = BTreeMap::new();
        for file in fs::read_dir(objects_dir(dir))? {
            let path = file?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".art") {
                match key_from_filename(name) {
                    Some(key) => {
                        on_disk.insert(key, path);
                    }
                    None => {
                        quarantine(dir, &path, "unaddressable");
                        report.quarantined += 1;
                    }
                }
            } else {
                // Temp files and any other debris: a crash or ENOSPC
                // mid-write. Sideline, never read.
                quarantine(dir, &path, "torn-temp");
                report.torn_temps += 1;
            }
        }

        // 3. Verify every manifest entry against its file.
        let mut manifest: BTreeMap<CacheKey, DiskEntry> = BTreeMap::new();
        let mut seq = 0u64;
        let mut bytes = 0u64;
        for (key, rec_seq) in replay.live {
            // Clamp untrusted replayed sequence numbers: a corrupt or
            // hostile journal must not be able to overflow the recency
            // counter later.
            let rec_seq = rec_seq.min(u64::MAX / 2);
            seq = seq.max(rec_seq);
            match on_disk.remove(&key) {
                None => report.stale_records += 1,
                Some(path) => match verify_entry(&path, &key) {
                    Ok(size) => {
                        bytes += size;
                        manifest.insert(
                            key,
                            DiskEntry {
                                bytes: size,
                                seq: rec_seq,
                            },
                        );
                        report.entries_kept += 1;
                    }
                    Err(why) => {
                        quarantine(dir, &path, why.name());
                        report.quarantined += 1;
                    }
                },
            }
        }

        // 4. Orphaned entry files (journal tail lost before the crash):
        //    adopt the valid ones, quarantine the rest.
        for (key, path) in on_disk {
            match verify_entry(&path, &key) {
                Ok(size) => {
                    seq += 1;
                    bytes += size;
                    manifest.insert(key, DiskEntry { bytes: size, seq });
                    report.orphans_adopted += 1;
                    report.entries_kept += 1;
                }
                Err(why) => {
                    quarantine(dir, &path, why.name());
                    report.quarantined += 1;
                }
            }
        }

        // 5. Rewrite the journal compacted: recovery results become the
        //    new durable baseline.
        let journal = rewrite_journal(&journal_path, &manifest)?;

        let stats = DiskStats {
            entries: manifest.len(),
            bytes,
            max_bytes,
            ..DiskStats::default()
        };
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            max_bytes,
            recovery: report,
            inner: Mutex::new(DiskInner {
                manifest,
                journal,
                seq,
                bytes,
                stats,
                fail_next_persist: false,
            }),
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Loads and verifies the artifact for `key`.
    ///
    /// A verification or decode failure quarantines the entry and returns
    /// `None` — a corrupt artifact is never served; it costs one
    /// recompile.
    pub fn load(&self, key: &CacheKey) -> Option<Artifact> {
        let mut inner = self.locked();
        if !inner.manifest.contains_key(key) {
            inner.stats.load_misses += 1;
            return None;
        }
        let path = entry_path(&self.dir, key);
        match read_entry(&path, key) {
            Ok(outcome) => {
                inner.stats.load_hits += 1;
                inner.seq += 1;
                let seq = inner.seq;
                if let Some(e) = inner.manifest.get_mut(key) {
                    e.seq = seq;
                }
                append_record(&mut inner.journal, Record::Touch { key: *key, seq });
                Some(Artifact::new(outcome))
            }
            Err(why) => {
                quarantine(&self.dir, &path, why.name());
                if let Some(gone) = inner.manifest.remove(key) {
                    inner.bytes -= gone.bytes;
                }
                inner.stats.corrupt_quarantined += 1;
                inner.stats.load_misses += 1;
                let key = *key;
                append_record(&mut inner.journal, Record::Evict { key });
                inner.stats.entries = inner.manifest.len();
                inner.stats.bytes = inner.bytes;
                None
            }
        }
    }

    /// `true` when `key` is resident (without touching recency).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.locked().manifest.contains_key(key)
    }

    /// Persists an artifact: atomic temp-file write (fsync + rename),
    /// then a manifest insert record, then LRU eviction down to the byte
    /// budget. A failed write (e.g. device full) leaves the store state
    /// unchanged and is only counted — the caller keeps serving from
    /// memory.
    pub fn persist(&self, key: &CacheKey, artifact: &Artifact) -> io::Result<()> {
        let payload = encode_outcome(&artifact.outcome);
        let envelope = encode_envelope(key, &payload, FORMAT_VERSION);
        let mut inner = self.locked();
        match self.write_entry(&mut inner, key, &envelope) {
            Ok(()) => {}
            Err(e) => {
                inner.stats.persist_failures += 1;
                return Err(e);
            }
        }
        let size = envelope.len() as u64;
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(old) = inner.manifest.remove(key) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += size;
        inner.manifest.insert(*key, DiskEntry { bytes: size, seq });
        inner.stats.persists += 1;
        append_record(
            &mut inner.journal,
            Record::Insert {
                key: *key,
                bytes: size,
                seq,
            },
        );
        // Evict stalest entries past the budget; never the just-inserted.
        while inner.bytes > self.max_bytes && inner.manifest.len() > 1 {
            let victim = inner
                .manifest
                .iter()
                .filter(|(k, _)| *k != key)
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| *k);
            match victim {
                Some(victim) => {
                    if let Some(gone) = inner.manifest.remove(&victim) {
                        inner.bytes -= gone.bytes;
                    }
                    let _ = fs::remove_file(entry_path(&self.dir, &victim));
                    inner.stats.evictions += 1;
                    append_record(&mut inner.journal, Record::Evict { key: victim });
                }
                None => break,
            }
        }
        inner.stats.entries = inner.manifest.len();
        inner.stats.bytes = inner.bytes;
        Ok(())
    }

    fn write_entry(
        &self,
        inner: &mut DiskInner,
        key: &CacheKey,
        envelope: &[u8],
    ) -> io::Result<()> {
        let tmp = objects_dir(&self.dir).join(format!("{}.tmp", key_filename_stem(key)));
        let final_path = entry_path(&self.dir, key);
        let mut f = File::create(&tmp)?;
        if inner.fail_next_persist {
            // Injected ENOSPC: half the envelope reaches the device, then
            // the write errors. The temp file is deliberately left behind
            // — exactly the debris a real device-full crash leaves — so
            // recovery's temp sweep is exercised.
            inner.fail_next_persist = false;
            let _ = f.write_all(&envelope[..envelope.len() / 2]);
            let _ = f.sync_all();
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected: no space left on device",
            ));
        }
        f.write_all(envelope)?;
        f.sync_all()?;
        fs::rename(&tmp, &final_path)?;
        // Durability of the rename itself: fsync the containing directory
        // (best effort; not all platforms allow opening directories).
        if let Ok(d) = File::open(objects_dir(&self.dir)) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Makes the next [`DiskStore::persist`] fail partway through its
    /// write, as if the device filled mid-stream. Chaos/testing hook.
    pub fn fail_next_persist(&self) {
        self.locked().fail_next_persist = true;
    }

    /// Flushes and rewrites the journal compacted — the clean-shutdown
    /// path (reused by the serve drain protocol).
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.locked();
        inner.journal.sync_all().ok();
        let journal = rewrite_journal(&self.dir.join("journal"), &inner.manifest)?;
        inner.journal = journal;
        Ok(())
    }

    /// Current disk-tier counters and occupancy.
    pub fn stats(&self) -> DiskStats {
        let inner = self.locked();
        let mut stats = inner.stats;
        stats.entries = inner.manifest.len();
        stats.bytes = inner.bytes;
        stats.max_bytes = self.max_bytes;
        stats
    }

    /// Corrupts a **closed** store directory with one injected I/O fault
    /// class — the chaos driver's storage matrix. Returns a description
    /// of what was damaged. Fails if the directory does not contain
    /// enough state to express the fault (e.g. no entries yet).
    pub fn inject_io_fault(dir: &Path, fault: IoFault) -> io::Result<String> {
        inject(dir, fault)
    }
}

// ---------------------------------------------------------------------------
// Paths and content addressing.

fn objects_dir(dir: &Path) -> PathBuf {
    dir.join("objects")
}

fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

fn key_filename_stem(key: &CacheKey) -> String {
    format!("{}{}", key.source.to_hex(), key.config.to_hex())
}

fn entry_path(dir: &Path, key: &CacheKey) -> PathBuf {
    objects_dir(dir).join(format!("{}.art", key_filename_stem(key)))
}

fn key_from_filename(name: &str) -> Option<CacheKey> {
    let hex = name.strip_suffix(".art")?;
    if hex.len() != 64 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let lane = |range: std::ops::Range<usize>| u64::from_str_radix(&hex[range], 16).ok();
    Some(CacheKey {
        source: Fingerprint(lane(0..16)?, lane(16..32)?),
        config: Fingerprint(lane(32..48)?, lane(48..64)?),
    })
}

/// Moves a damaged file into `quarantine/`, tagged with the detection
/// reason. Never deletes: the sidelined bytes stay available for
/// postmortem. Best-effort — a failed move falls back to deletion so the
/// corrupt file can never be picked up as an artifact again.
fn quarantine(dir: &Path, path: &Path, reason: &str) {
    static QUARANTINE_SEQ: AtomicU64 = AtomicU64::new(0);
    let n = QUARANTINE_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unknown");
    let dest = quarantine_dir(dir).join(format!("{reason}-{n}-{name}"));
    if fs::rename(path, &dest).is_err() {
        let _ = fs::remove_file(path);
    }
}

// ---------------------------------------------------------------------------
// Envelope encode / verify / read.

fn encode_envelope(key: &CacheKey, payload: &[u8], version: u32) -> Vec<u8> {
    let ck = fingerprint(payload);
    let mut w = Writer::new();
    w.str(MAGIC);
    w.u32(version);
    w.u64(key.source.0);
    w.u64(key.source.1);
    w.u64(key.config.0);
    w.u64(key.config.1);
    w.usize(payload.len());
    w.u64(ck.0);
    w.u64(ck.1);
    w.raw(payload);
    w.into_bytes()
}

/// Parses and fully verifies an envelope, returning the payload slice.
fn parse_envelope<'a>(bytes: &'a [u8], expected: &CacheKey) -> Result<&'a [u8], Corruption> {
    let mut r = Reader::new(bytes);
    let magic = r.str().map_err(|_| Corruption::BadEnvelope)?;
    if magic != MAGIC {
        return Err(Corruption::BadEnvelope);
    }
    let version = r.u32().map_err(|_| Corruption::BadEnvelope)?;
    if version != FORMAT_VERSION {
        return Err(Corruption::VersionSkew);
    }
    let key = CacheKey {
        source: Fingerprint(
            r.u64().map_err(|_| Corruption::BadEnvelope)?,
            r.u64().map_err(|_| Corruption::BadEnvelope)?,
        ),
        config: Fingerprint(
            r.u64().map_err(|_| Corruption::BadEnvelope)?,
            r.u64().map_err(|_| Corruption::BadEnvelope)?,
        ),
    };
    if key != *expected {
        return Err(Corruption::KeyMismatch);
    }
    let len = r.usize().map_err(|_| Corruption::BadEnvelope)?;
    let ck = Fingerprint(
        r.u64().map_err(|_| Corruption::BadEnvelope)?,
        r.u64().map_err(|_| Corruption::BadEnvelope)?,
    );
    if r.remaining() != len {
        return Err(Corruption::LengthMismatch);
    }
    let payload = r.take(len).map_err(|_| Corruption::LengthMismatch)?;
    if fingerprint(payload) != ck {
        return Err(Corruption::ChecksumMismatch);
    }
    Ok(payload)
}

/// Structural verification only (no payload decode): the recovery scan.
fn verify_entry(path: &Path, expected: &CacheKey) -> Result<u64, Corruption> {
    let bytes = fs::read(path).map_err(|_| Corruption::BadEnvelope)?;
    parse_envelope(&bytes, expected)?;
    Ok(bytes.len() as u64)
}

/// Full verification + decode: the load path.
fn read_entry(path: &Path, expected: &CacheKey) -> Result<LadderOutcome, Corruption> {
    let bytes = fs::read(path).map_err(|_| Corruption::BadEnvelope)?;
    let payload = parse_envelope(&bytes, expected)?;
    decode_outcome(payload).map_err(|_| Corruption::Undecodable)
}

// ---------------------------------------------------------------------------
// Manifest journal.

enum Record {
    Insert { key: CacheKey, bytes: u64, seq: u64 },
    Evict { key: CacheKey },
    Touch { key: CacheKey, seq: u64 },
}

fn encode_record(rec: &Record) -> Vec<u8> {
    let mut body = Writer::new();
    let key = match rec {
        Record::Insert { key, bytes, seq } => {
            body.u8(1);
            body.u64(*bytes);
            body.u64(*seq);
            key
        }
        Record::Evict { key } => {
            body.u8(2);
            body.u64(0);
            body.u64(0);
            key
        }
        Record::Touch { key, seq } => {
            body.u8(3);
            body.u64(0);
            body.u64(*seq);
            key
        }
    };
    body.u64(key.source.0);
    body.u64(key.source.1);
    body.u64(key.config.0);
    body.u64(key.config.1);
    let body = body.into_bytes();
    let ck = fingerprint(&body);
    let mut w = Writer::new();
    w.u32(body.len() as u32);
    w.raw(&body);
    w.u64(ck.0);
    w.u64(ck.1);
    w.into_bytes()
}

/// Appends one record to the open journal. Best-effort: an append failure
/// (e.g. device full) degrades durability of recency/LRU state, not
/// correctness — recovery re-adopts orphans from the object directory.
fn append_record(journal: &mut File, rec: Record) {
    let _ = journal.write_all(&encode_record(&rec));
    let _ = journal.flush();
}

struct Replay {
    /// key → latest recency seq, in replay order.
    live: Vec<(CacheKey, u64)>,
    truncated: bool,
    duplicates: u64,
}

fn replay_journal(raw: &[u8]) -> Replay {
    let mut live: BTreeMap<CacheKey, u64> = BTreeMap::new();
    let mut truncated = false;
    let mut duplicates = 0u64;
    let mut r = Reader::new(raw);
    loop {
        if r.is_done() {
            break;
        }
        let rec = (|| -> Result<(u8, u64, u64, CacheKey), DecodeError> {
            let start = r.position();
            let len = r.u32()?;
            if len > MAX_RECORD_BYTES {
                return Err(DecodeError {
                    at: start,
                    what: "record length out of range",
                });
            }
            let body = r.take(len as usize)?;
            let ck = Fingerprint(r.u64()?, r.u64()?);
            if fingerprint(body) != ck {
                return Err(DecodeError {
                    at: start,
                    what: "record checksum mismatch",
                });
            }
            let mut b = Reader::new(body);
            let op = b.u8()?;
            let bytes = b.u64()?;
            let seq = b.u64()?;
            let key = CacheKey {
                source: Fingerprint(b.u64()?, b.u64()?),
                config: Fingerprint(b.u64()?, b.u64()?),
            };
            Ok((op, bytes, seq, key))
        })();
        match rec {
            Ok((1, _bytes, seq, key)) => {
                if live.insert(key, seq).is_some() {
                    duplicates += 1;
                }
            }
            Ok((2, _, _, key)) => {
                live.remove(&key);
            }
            Ok((3, _, seq, key)) => {
                if let Some(s) = live.get_mut(&key) {
                    *s = seq;
                }
            }
            Ok(_) => {
                // Unknown op: framing held but content is from the
                // future or corrupt — stop here, truncate the tail.
                truncated = true;
                break;
            }
            Err(_) => {
                truncated = true;
                break;
            }
        }
    }
    Replay {
        live: live.into_iter().collect(),
        truncated,
        duplicates,
    }
}

/// Atomically replaces the journal with a compacted one (one insert
/// record per live entry), returning it opened for append.
fn rewrite_journal(path: &Path, manifest: &BTreeMap<CacheKey, DiskEntry>) -> io::Result<File> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    for (key, e) in manifest {
        f.write_all(&encode_record(&Record::Insert {
            key: *key,
            bytes: e.bytes,
            seq: e.seq,
        }))?;
    }
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}

// ---------------------------------------------------------------------------
// Outcome (payload) codec.

fn tier_tag(t: Tier) -> u8 {
    match t {
        Tier::GuardedFull => 0,
        Tier::ReducedPrecision => 1,
        Tier::InliningOff => 2,
    }
}

fn tier_from_tag(tag: u8, at: usize) -> Result<Tier, DecodeError> {
    Ok(match tag {
        0 => Tier::GuardedFull,
        1 => Tier::ReducedPrecision,
        2 => Tier::InliningOff,
        _ => {
            return Err(DecodeError {
                at,
                what: "tier tag out of range",
            })
        }
    })
}

fn encode_rule(w: &mut Writer, rule: Option<u8>) {
    match rule {
        Some(r) => {
            w.bool(true);
            w.u8(r);
        }
        None => w.bool(false),
    }
}

fn decode_rule(r: &mut Reader<'_>) -> Result<Option<u8>, DecodeError> {
    Ok(if r.bool()? { Some(r.u8()?) } else { None })
}

/// Serializes a full [`LadderOutcome`] (program, effectiveness report,
/// tier/descent record) to the envelope payload bytes.
pub fn encode_outcome(o: &LadderOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&oi_ir::serial::encode_program(&o.optimized.program));

    let rep = &o.optimized.report;
    w.str(&rep.tier);
    w.bool(rep.degraded);
    w.usize(rep.total_object_fields);
    w.usize(rep.ideal);
    w.usize(rep.cxx);
    w.usize(rep.fields_inlined);
    w.usize(rep.array_sites_inlined);
    w.usize(rep.retractions);
    w.usize(rep.outcomes.len());
    for fo in &rep.outcomes {
        w.str(&fo.name);
        w.bool(fo.inlined);
        w.str(&fo.reason);
        w.str(&fo.code);
        encode_rule(&mut w, fo.rule);
        w.str(&fo.detail);
    }
    w.usize(rep.provenance.len());
    for ps in &rep.provenance {
        w.usize(ps.pass);
        w.str(&ps.field);
        w.bool(ps.inlined);
        w.str(&ps.code);
        encode_rule(&mut w, ps.rule);
        w.str(&ps.detail);
    }

    w.usize(o.optimized.passes);
    w.usize(o.optimized.decisions.len());
    for d in &o.optimized.decisions {
        w.str(d);
    }

    w.u8(tier_tag(o.tier));
    w.usize(o.descents.len());
    for d in &o.descents {
        w.u8(tier_tag(d.from));
        w.u8(tier_tag(d.to));
        w.str(&d.reason);
    }
    w.bool(o.identity_fallback);
    w.into_bytes()
}

/// Decodes envelope payload bytes back into a [`LadderOutcome`].
/// Panic-free on arbitrary input.
pub fn decode_outcome(bytes: &[u8]) -> Result<LadderOutcome, DecodeError> {
    let mut r = Reader::new(bytes);
    let program = oi_ir::serial::decode_program(r.bytes()?)?;

    let tier_name = r.str()?;
    let degraded = r.bool()?;
    let total_object_fields = r.usize()?;
    let ideal = r.usize()?;
    let cxx = r.usize()?;
    let fields_inlined = r.usize()?;
    let array_sites_inlined = r.usize()?;
    let retractions = r.usize()?;
    let n = r.seq_len()?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        outcomes.push(FieldOutcome {
            name: r.str()?,
            inlined: r.bool()?,
            reason: r.str()?,
            code: r.str()?,
            rule: decode_rule(&mut r)?,
            detail: r.str()?,
        });
    }
    let n = r.seq_len()?;
    let mut provenance = Vec::with_capacity(n);
    for _ in 0..n {
        provenance.push(ProvenanceStep {
            pass: r.usize()?,
            field: r.str()?,
            inlined: r.bool()?,
            code: r.str()?,
            rule: decode_rule(&mut r)?,
            detail: r.str()?,
        });
    }

    let passes = r.usize()?;
    let n = r.seq_len()?;
    let mut decisions = Vec::with_capacity(n);
    for _ in 0..n {
        decisions.push(r.str()?);
    }

    let tier = tier_from_tag(r.u8()?, r.position())?;
    let n = r.seq_len()?;
    let mut descents = Vec::with_capacity(n);
    for _ in 0..n {
        descents.push(Descent {
            from: tier_from_tag(r.u8()?, r.position())?,
            to: tier_from_tag(r.u8()?, r.position())?,
            reason: r.str()?,
        });
    }
    let identity_fallback = r.bool()?;
    if !r.is_done() {
        return Err(DecodeError {
            at: r.position(),
            what: "trailing bytes after outcome",
        });
    }
    Ok(LadderOutcome {
        optimized: Optimized {
            program,
            report: EffectivenessReport {
                tier: tier_name,
                degraded,
                total_object_fields,
                ideal,
                cxx,
                fields_inlined,
                array_sites_inlined,
                retractions,
                outcomes,
                provenance,
            },
            passes,
            decisions,
        },
        tier,
        descents,
        identity_fallback,
    })
}

// ---------------------------------------------------------------------------
// Fault injection (chaos matrix).

/// Picks the first (lexicographically smallest) entry file in the store.
fn first_entry(dir: &Path) -> io::Result<(CacheKey, PathBuf)> {
    let mut entries: Vec<_> = fs::read_dir(objects_dir(dir))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "art"))
        .collect();
    entries.sort();
    for path in entries {
        if let Some(key) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(key_from_filename)
        {
            return Ok((key, path));
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "store has no entries to corrupt",
    ))
}

fn inject(dir: &Path, fault: IoFault) -> io::Result<String> {
    match fault {
        IoFault::TornWrite => {
            let (_, path) = first_entry(dir)?;
            let bytes = fs::read(&path)?;
            fs::write(&path, &bytes[..bytes.len() / 2])?;
            Ok(format!(
                "truncated {} to {} of {} bytes",
                path.display(),
                bytes.len() / 2,
                bytes.len()
            ))
        }
        IoFault::TruncatedJournalTail => {
            let path = dir.join("journal");
            let bytes = fs::read(&path)?;
            if bytes.len() < 8 {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "journal too short to tear",
                ));
            }
            fs::write(&path, &bytes[..bytes.len() - 7])?;
            Ok(format!(
                "cut 7 bytes off the journal tail ({})",
                bytes.len()
            ))
        }
        IoFault::BitFlipBody => {
            let (key, path) = first_entry(dir)?;
            let mut bytes = fs::read(&path)?;
            // Locate the payload: header is everything before it. Flip a
            // bit in the payload's middle.
            let payload_len = {
                let payload = parse_envelope(&bytes, &key).map_err(|c| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("pre-corrupt: {c:?}"))
                })?;
                payload.len()
            };
            let header_len = bytes.len() - payload_len;
            let at = header_len + payload_len / 2;
            bytes[at] ^= 0x10;
            fs::write(&path, &bytes)?;
            Ok(format!("flipped bit 4 of payload byte {at}"))
        }
        IoFault::BitFlipHeader => {
            let (_, path) = first_entry(dir)?;
            let mut bytes = fs::read(&path)?;
            // Byte 8 sits inside the magic string (after its u64 length
            // prefix): structural header corruption.
            bytes[8] ^= 0x10;
            fs::write(&path, &bytes)?;
            Ok("flipped bit 4 of header byte 8 (magic)".to_string())
        }
        IoFault::StaleManifestRecord => {
            let (key, _) = first_entry(dir)?;
            let ghost = CacheKey {
                source: Fingerprint(0xDEAD_BEEF, 0xFEED_FACE),
                config: key.config,
            };
            let mut journal = OpenOptions::new().append(true).open(dir.join("journal"))?;
            // A stale record (no file will ever match) plus a duplicate
            // insert of a surviving key.
            journal.write_all(&encode_record(&Record::Insert {
                key: ghost,
                bytes: 123,
                seq: u64::MAX - 1,
            }))?;
            journal.write_all(&encode_record(&Record::Insert {
                key,
                bytes: 123,
                seq: u64::MAX,
            }))?;
            Ok("appended stale + duplicate manifest records".to_string())
        }
        IoFault::EnospcMidWrite => {
            let (key, path) = first_entry(dir)?;
            let bytes = fs::read(&path)?;
            let tmp = objects_dir(dir).join(format!("{}.tmp", key_filename_stem(&key)));
            fs::write(&tmp, &bytes[..bytes.len() / 3])?;
            Ok(format!(
                "left a {}-byte orphan temp from a simulated device-full write",
                bytes.len() / 3
            ))
        }
        IoFault::VersionSkew => {
            let (key, path) = first_entry(dir)?;
            let bytes = fs::read(&path)?;
            let payload = parse_envelope(&bytes, &key)
                .map_err(|c| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("pre-corrupt: {c:?}"))
                })?
                .to_vec();
            // Internally consistent envelope from a "future" writer.
            fs::write(&path, encode_envelope(&key, &payload, FORMAT_VERSION + 1))?;
            Ok(format!(
                "rewrote entry at format version {}",
                FORMAT_VERSION + 1
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::config_fingerprint;
    use crate::ladder::{optimize_with_ladder, LadderConfig};
    use oi_support::Budget;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("oi-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn source(i: usize) -> String {
        format!(
            "class Point{i} {{ field x; field y;
               method init(a, b) {{ self.x = a; self.y = b; }}
             }}
             class Rect{i} {{ field ll; field ur;
               method init(a, b) {{ self.ll = new Point{i}(a, a + {i}); self.ur = new Point{i}(b, b + 3); }}
               method span() {{ return self.ur.x - self.ll.x + self.ur.y - self.ll.y; }}
             }}
             fn main() {{
               var r = new Rect{i}({i}, 10);
               print r.span();
             }}"
        )
    }

    fn compile(src: &str) -> LadderOutcome {
        let program = oi_ir::lower::compile(src).expect("test source compiles");
        optimize_with_ladder(&program, &LadderConfig::default(), &Budget::unlimited())
    }

    fn key_for(src: &str) -> CacheKey {
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        CacheKey::whole_program(src, fp)
    }

    /// Seeds a store with `n` compiled artifacts and shuts it down
    /// cleanly. Returns the keys with their expected program prints.
    fn seeded(dir: &Path, n: usize) -> Vec<(CacheKey, String)> {
        let store = DiskStore::open(dir, 1 << 30).unwrap();
        let mut keys = Vec::new();
        for i in 0..n {
            let src = source(i);
            let key = key_for(&src);
            let outcome = compile(&src);
            let expected = oi_ir::printer::print_program(&outcome.optimized.program);
            store.persist(&key, &Artifact::new(outcome)).unwrap();
            keys.push((key, expected));
        }
        store.compact().unwrap();
        keys
    }

    /// Reopens the store and asserts no corrupt artifact is ever served:
    /// every load either round-trips to the expected program or misses.
    fn assert_no_corrupt_serves(store: &DiskStore, keys: &[(CacheKey, String)]) -> (usize, usize) {
        let mut served = 0;
        let mut missed = 0;
        for (key, expected) in keys {
            match store.load(key) {
                Some(a) => {
                    assert_eq!(
                        &oi_ir::printer::print_program(&a.outcome.optimized.program),
                        expected,
                        "served artifact must be byte-equivalent"
                    );
                    served += 1;
                }
                None => missed += 1,
            }
        }
        (served, missed)
    }

    #[test]
    fn outcome_round_trips_through_the_payload_codec() {
        let src = source(0);
        let outcome = compile(&src);
        let bytes = encode_outcome(&outcome);
        let back = decode_outcome(&bytes).unwrap();
        assert_eq!(
            oi_ir::printer::print_program(&back.optimized.program),
            oi_ir::printer::print_program(&outcome.optimized.program)
        );
        assert_eq!(back.tier, outcome.tier);
        assert_eq!(back.identity_fallback, outcome.identity_fallback);
        assert_eq!(back.optimized.passes, outcome.optimized.passes);
        assert_eq!(back.optimized.decisions, outcome.optimized.decisions);
        assert_eq!(
            back.optimized.report.fields_inlined,
            outcome.optimized.report.fields_inlined
        );
        assert_eq!(
            back.optimized.report.outcomes.len(),
            outcome.optimized.report.outcomes.len()
        );
    }

    #[test]
    fn persist_load_round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let keys = seeded(&dir, 3);
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        assert!(!store.recovery().found_damage(), "{:?}", store.recovery());
        assert_eq!(store.stats().entries, 3);
        let (served, missed) = assert_no_corrupt_serves(&store, &keys);
        assert_eq!((served, missed), (3, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unclean_shutdown_still_recovers_from_orphans() {
        // Skip compact(): drop the store with only appended journal
        // records (plus renamed entry files). Everything must survive.
        let dir = temp_dir("unclean");
        {
            let store = DiskStore::open(&dir, 1 << 30).unwrap();
            let src = source(0);
            store
                .persist(&key_for(&src), &Artifact::new(compile(&src)))
                .unwrap();
            // no compact — simulated kill
        }
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        assert_eq!(store.stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_lru() {
        let dir = temp_dir("budget");
        let store = DiskStore::open(&dir, 1).unwrap(); // 1-byte budget
        for i in 0..3 {
            let src = source(i);
            store
                .persist(&key_for(&src), &Artifact::new(compile(&src)))
                .unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 1, "budget of 1 byte keeps only the newest");
        assert_eq!(stats.evictions, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_io_fault_class_is_detected_quarantined_and_survivable() {
        for fault in IoFault::ALL {
            let dir = temp_dir(fault.name());
            let keys = seeded(&dir, 2);
            DiskStore::inject_io_fault(&dir, fault)
                .unwrap_or_else(|e| panic!("{}: injection failed: {e}", fault.name()));
            let store = DiskStore::open(&dir, 1 << 30)
                .unwrap_or_else(|e| panic!("{}: recovery must serve, got {e}", fault.name()));
            let report = store.recovery();
            assert!(
                report.found_damage() || fault == IoFault::StaleManifestRecord,
                "{}: recovery must notice the damage: {report:?}",
                fault.name()
            );
            // Zero corrupt serves, ever.
            let (_, _) = assert_no_corrupt_serves(&store, &keys);
            // The store still accepts new work after recovery.
            let src = source(7);
            store
                .persist(&key_for(&src), &Artifact::new(compile(&src)))
                .unwrap();
            assert!(store.load(&key_for(&src)).is_some());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_write_is_quarantined_not_served() {
        let dir = temp_dir("torn");
        let keys = seeded(&dir, 2);
        DiskStore::inject_io_fault(&dir, IoFault::TornWrite).unwrap();
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        assert_eq!(store.recovery().quarantined, 1);
        let (served, missed) = assert_no_corrupt_serves(&store, &keys);
        assert_eq!((served, missed), (1, 1));
        // The sidelined file is preserved for postmortem.
        let q = fs::read_dir(quarantine_dir(&dir)).unwrap().count();
        assert_eq!(q, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_journal_tail_is_repaired_and_entries_readopted() {
        let dir = temp_dir("tail");
        let keys = seeded(&dir, 2);
        DiskStore::inject_io_fault(&dir, IoFault::TruncatedJournalTail).unwrap();
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        let report = store.recovery();
        assert!(report.journal_truncated);
        // The entry whose insert record was torn off is re-adopted from
        // its (valid) file.
        assert_eq!(report.entries_kept, 2, "{report:?}");
        let (served, missed) = assert_no_corrupt_serves(&store, &keys);
        assert_eq!((served, missed), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_duplicate_manifest_records_are_counted_and_dropped() {
        let dir = temp_dir("stale");
        let keys = seeded(&dir, 2);
        DiskStore::inject_io_fault(&dir, IoFault::StaleManifestRecord).unwrap();
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        let report = store.recovery();
        assert_eq!(report.stale_records, 1, "{report:?}");
        assert_eq!(report.duplicate_records, 1, "{report:?}");
        let (served, missed) = assert_no_corrupt_serves(&store, &keys);
        assert_eq!((served, missed), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_quarantines_without_refusing_start() {
        let dir = temp_dir("skew");
        let keys = seeded(&dir, 2);
        DiskStore::inject_io_fault(&dir, IoFault::VersionSkew).unwrap();
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        assert_eq!(store.recovery().quarantined, 1);
        let (served, missed) = assert_no_corrupt_serves(&store, &keys);
        assert_eq!((served, missed), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_mid_write_leaves_no_visible_damage() {
        let dir = temp_dir("enospc");
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        let src = source(0);
        let key = key_for(&src);
        let artifact = Artifact::new(compile(&src));
        store.fail_next_persist();
        let err = store.persist(&key, &artifact).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(store.stats().persist_failures, 1);
        assert!(store.load(&key).is_none(), "failed persist must not serve");
        // The retry succeeds and the orphan temp is swept on next open.
        store.persist(&key, &artifact).unwrap();
        assert!(store.load(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_time_corruption_quarantines_and_counts() {
        // Corrupt an entry *after* open (recovery saw it clean): the load
        // path itself must detect, quarantine, count, and miss.
        let dir = temp_dir("load-corrupt");
        let keys = seeded(&dir, 1);
        let store = DiskStore::open(&dir, 1 << 30).unwrap();
        DiskStore::inject_io_fault(&dir, IoFault::BitFlipBody).unwrap();
        assert!(store.load(&keys[0].0).is_none());
        let stats = store.stats();
        assert_eq!(stats.corrupt_quarantined, 1);
        assert_eq!(stats.entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_filenames_round_trip() {
        let src = source(3);
        let key = key_for(&src);
        let name = format!("{}.art", key_filename_stem(&key));
        assert_eq!(key_from_filename(&name), Some(key));
        assert_eq!(key_from_filename("nope.art"), None);
        assert_eq!(key_from_filename("deadbeef.tmp"), None);
    }
}
