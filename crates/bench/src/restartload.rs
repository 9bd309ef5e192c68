//! `oic bench restartload` — crash-recovery load replay against the
//! persistent artifact tier.
//!
//! The harness replays a seeded Zipf-skewed compile trace (the same
//! generator as [`crate::loadgen`]) against an in-process server backed
//! by a `--cache-dir` disk tier, **killing the server at fixed points**
//! along the trace and restarting it over the same directory. A kill is
//! unclean by construction: the write-behind persister stops without the
//! clean-shutdown journal compaction, and the journal's tail is then
//! torn mid-record — exactly the state an abrupt process death leaves
//! behind. Every restart therefore runs the full recovery path before
//! serving.
//!
//! The emitted `oi.restart.v1` document carries its own verdict (`ok`)
//! so ci.sh can gate on it:
//!
//! - **zero corrupt serves** — every successful compile response is
//!   byte-compared against an independently compiled reference payload
//!   for its source; a recovered-from-disk artifact that decodes to
//!   anything else is corruption,
//! - **zero errored requests**,
//! - **exact hit-rate reconciliation** — the harness's own per-segment
//!   hit/disk/miss tallies must match the server's `oi.metrics.v1`
//!   counters request for request,
//! - **recovery evidence** — every restarted segment must attach the
//!   disk tier and report the torn journal tail it was handed
//!   (`serve.recovery_journal_truncated`),
//! - **warm-restart hit-rate floor** — each post-kill segment's combined
//!   hit rate (`(memory hits + disk hits) / requests`) must be at least
//!   `0.8×` the pre-kill steady-state rate. Warm restarts that silently
//!   quarantine everything and recompile the world fail this gate.

use crate::cli::{scan_flags, usage_error, Output};
use crate::loadgen::{synthetic_source, ZipfSampler};
use crate::replay::{scratch_dir, Line, Reply, Tally};
use crate::serve::{ServeConfig, Server};
use oi_core::cache::store::DiskStore;
use oi_core::IoFault;
use oi_support::Json;
use std::path::{Path, PathBuf};

/// Restartload knobs (flags of `oic bench restartload`).
#[derive(Clone, Debug)]
pub struct RestartConfig {
    /// Total requests across all segments.
    pub requests: u64,
    /// Distinct synthetic sources the trace draws from.
    pub sources: u64,
    /// PRNG seed for the Zipf draw.
    pub seed: u64,
    /// Zipf skew exponent.
    pub zipf_s: f64,
    /// Unclean kills along the trace (`kills + 1` segments).
    pub kills: u64,
    /// In-memory LRU byte budget per server instance.
    pub cache_bytes: usize,
    /// Byte budget of the persistent tier.
    pub disk_bytes: u64,
    /// Persistent-tier directory. `None` uses (and afterwards removes) a
    /// process-unique temp directory; a given directory is **recreated
    /// empty** so every run starts cold.
    pub cache_dir: Option<String>,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            requests: 2_400,
            sources: 40,
            seed: 1,
            zipf_s: 1.0,
            kills: 2,
            cache_bytes: 64 << 20,
            disk_bytes: 256 << 20,
            cache_dir: None,
        }
    }
}

/// One server lifetime between kills (or between a kill and the end of
/// the trace).
#[derive(Clone, Debug)]
pub struct Segment {
    /// Segment index (0 is the cold pre-kill segment).
    pub index: u64,
    /// Requests replayed in this segment, by outcome: memory hits, disk
    /// hits, fresh compiles, errors.
    pub tally: Tally,
    /// Successful responses whose payload differed from the reference
    /// compile of the same source.
    pub corrupt: u64,
    /// `(hits + disk_hits) / requests`.
    pub hit_rate: f64,
    /// Whether the server's counters matched the tallies exactly.
    pub reconciled: bool,
    /// Whether the disk tier attached (recovery reached serving state).
    pub disk_attached: bool,
    /// `serve.recovery_journal_truncated` at open — must be 1 on every
    /// segment that follows a kill.
    pub recovered_torn_tail: bool,
    /// `serve.recovery_entries_kept` at open.
    pub entries_recovered: u64,
    /// `serve.recovery_quarantined` at open.
    pub quarantined: u64,
    /// `serve.recovery_orphans_adopted` at open.
    pub orphans_adopted: u64,
    /// Whether this segment ended in an unclean kill (vs a clean flush).
    pub killed: bool,
}

impl Segment {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", self.index.into()),
            ("requests", self.tally.requests.into()),
            ("hits", self.tally.hits.into()),
            ("disk_hits", self.tally.disk_hits.into()),
            ("misses", self.tally.misses.into()),
            ("errors", self.tally.errors.into()),
            ("corrupt", self.corrupt.into()),
            ("hit_rate", self.hit_rate.into()),
            ("reconciled", self.reconciled.into()),
            ("disk_attached", self.disk_attached.into()),
            ("recovered_torn_tail", self.recovered_torn_tail.into()),
            ("entries_recovered", self.entries_recovered.into()),
            ("quarantined", self.quarantined.into()),
            ("orphans_adopted", self.orphans_adopted.into()),
            ("killed", self.killed.into()),
        ])
    }
}

/// The replay's outcome — everything `oi.restart.v1` carries.
#[derive(Clone, Debug)]
pub struct RestartReport {
    /// The configuration replayed.
    pub config: RestartConfig,
    /// One entry per server lifetime.
    pub segments: Vec<Segment>,
    /// Segment 0's hit rate — the pre-kill steady state.
    pub prekill_rate: f64,
    /// The worst post-kill segment hit rate.
    pub warm_rate_min: f64,
    /// The gate floor: `0.8 × prekill_rate`.
    pub warm_floor: f64,
    /// Corrupt serves across all segments (the gate demands 0).
    pub corrupt_total: u64,
    /// Errors across all segments.
    pub error_total: u64,
    /// Whether every segment reconciled exactly.
    pub reconciled: bool,
    /// Whether every restart attached the tier and saw the torn tail.
    pub recovered: bool,
    /// The gate verdict (see module docs).
    pub ok: bool,
}

impl RestartReport {
    /// The report as a schema-stable `oi.restart.v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", "oi.restart.v1".into()),
            ("requests", self.config.requests.into()),
            ("distinct_sources", self.config.sources.into()),
            ("seed", self.config.seed.into()),
            ("zipf_s", self.config.zipf_s.into()),
            ("kills", self.config.kills.into()),
            ("cache_bytes", (self.config.cache_bytes as u64).into()),
            ("disk_bytes", self.config.disk_bytes.into()),
            (
                "segments",
                Json::Arr(self.segments.iter().map(Segment::to_json).collect()),
            ),
            ("prekill_rate", self.prekill_rate.into()),
            ("warm_rate_min", self.warm_rate_min.into()),
            ("warm_floor", self.warm_floor.into()),
            ("corrupt_total", self.corrupt_total.into()),
            ("error_total", self.error_total.into()),
            ("reconciled", self.reconciled.into()),
            ("recovered", self.recovered.into()),
            ("ok", self.ok.into()),
        ])
    }
}

/// Compiles every source once on a memory-only server and returns the
/// reference payload strings corrupt serves are detected against.
fn reference_payloads(config: &RestartConfig, sources: &[String]) -> Result<Vec<String>, String> {
    let server = Server::new(ServeConfig {
        cache_bytes: config.cache_bytes,
        ..ServeConfig::default()
    });
    sources
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let handled = server.handle_line(&Line::compile(i as u64, source).to_string());
            match Reply(&handled.response) {
                reply if reply.ok() => Ok(reply.payload()),
                _ => Err(format!("reference compile of source {i} failed")),
            }
        })
        .collect()
}

/// Replays the configured trace with unclean kills and returns the full
/// report. The directory is recreated empty first, so the run always
/// starts cold; a harness-created temp directory is removed afterwards.
pub fn run_restartload(config: &RestartConfig) -> Result<RestartReport, String> {
    let (dir, ephemeral) = match &config.cache_dir {
        Some(dir) => (PathBuf::from(dir), false),
        None => (scratch_dir("restartload"), true),
    };
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let result = replay(config, &dir);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn replay(config: &RestartConfig, dir: &Path) -> Result<RestartReport, String> {
    if config.requests < (config.kills + 1) * 2 {
        return Err(format!(
            "{} requests cannot cover {} kills (need at least 2 per segment)",
            config.requests, config.kills
        ));
    }
    let sources: Vec<String> = (0..config.sources).map(synthetic_source).collect();
    let expected = reference_payloads(config, &sources)?;

    // The whole trace is drawn up front; kills only decide which server
    // lifetime serves which span of it.
    let trace: Vec<u64> = ZipfSampler::new(config.sources, config.zipf_s)
        .draws(config.seed)
        .take(config.requests as usize)
        .collect();
    let segment_count = config.kills + 1;
    let base = config.requests / segment_count;

    let mut segments = Vec::new();
    let mut cursor = 0usize;
    for index in 0..segment_count {
        let len = if index == segment_count - 1 {
            config.requests as usize - cursor
        } else {
            base as usize
        };
        let span = &trace[cursor..cursor + len];
        let killed = index + 1 < segment_count;
        segments.push(run_segment(
            config, dir, index, cursor, span, &sources, &expected, killed,
        ));
        cursor += len;
    }

    let prekill_rate = segments[0].hit_rate;
    let warm_rate_min = segments
        .iter()
        .skip(1)
        .map(|s| s.hit_rate)
        .reduce(f64::min)
        .unwrap_or(prekill_rate);
    let warm_floor = 0.8 * prekill_rate;
    let corrupt_total: u64 = segments.iter().map(|s| s.corrupt).sum();
    let error_total: u64 = segments.iter().map(|s| s.tally.errors).sum();
    let reconciled = segments.iter().all(|s| s.reconciled);
    // Segment 0 opens a fresh directory; every later segment must both
    // attach the tier and report the torn tail its predecessor left.
    let recovered = segments.iter().all(|s| s.disk_attached)
        && segments.iter().skip(1).all(|s| s.recovered_torn_tail);

    let ok = corrupt_total == 0
        && error_total == 0
        && reconciled
        && recovered
        && prekill_rate > 0.0
        && warm_rate_min >= warm_floor;

    Ok(RestartReport {
        config: config.clone(),
        segments,
        prekill_rate,
        warm_rate_min,
        warm_floor,
        corrupt_total,
        error_total,
        reconciled,
        recovered,
        ok,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_segment(
    config: &RestartConfig,
    dir: &Path,
    index: u64,
    first_id: usize,
    span: &[u64],
    sources: &[String],
    expected: &[String],
    kill: bool,
) -> Segment {
    let server = Server::new(ServeConfig {
        cache_bytes: config.cache_bytes,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        disk_bytes: config.disk_bytes,
        ..ServeConfig::default()
    });
    let disk_attached = server.disk().is_some();
    let metrics = server.metrics();
    let recovered_torn_tail = metrics.counter("serve.recovery_journal_truncated") == 1;
    let entries_recovered = metrics.counter("serve.recovery_entries_kept");
    let quarantined = metrics.counter("serve.recovery_quarantined");
    let orphans_adopted = metrics.counter("serve.recovery_orphans_adopted");

    let mut tally = Tally::default();
    let mut corrupt = 0u64;
    for (offset, &rank) in span.iter().enumerate() {
        let line = Line::compile((first_id + offset) as u64, &sources[rank as usize]).to_string();
        let (response, _) = tally.send(&server, &line, 0);
        let reply = Reply(&response);
        if reply.ok() && reply.payload() != expected[rank as usize] {
            corrupt += 1;
        }
    }

    let requests = span.len() as u64;
    let reconciled = tally.reconcile(metrics);
    let hit_rate = if requests == 0 {
        0.0
    } else {
        (tally.hits + tally.disk_hits) as f64 / requests as f64
    };

    if kill {
        server.simulate_kill();
        // Tear the journal's tail mid-record: the on-disk state of a
        // process killed while appending. Recovery must detect the torn
        // record and rebuild the manifest from the objects directory.
        let _ = DiskStore::inject_io_fault(dir, IoFault::TruncatedJournalTail);
    } else {
        server.flush_disk();
    }

    Segment {
        index,
        tally,
        corrupt,
        hit_rate,
        reconciled,
        disk_attached,
        recovered_torn_tail,
        entries_recovered,
        quarantined,
        orphans_adopted,
        killed: kill,
    }
}

/// The `oic bench restartload` usage text.
pub(crate) const USAGE: &str =
    "usage: oic bench restartload [--requests N] [--sources K] [--seed S] \
     [--zipf-s X] [--kills M] [--cache-bytes B] [--disk-bytes B] \
     [--cache-dir DIR] [--json] [--out FILE]\n\
     \n\
     Replays a seeded Zipf compile trace against a --cache-dir compile\n\
     server, killing it uncleanly at M points (torn journal tail, no\n\
     compaction) and restarting over the same directory. Emits\n\
     oi.restart.v1 and exits 1 when the gate fails: any corrupt or\n\
     errored serve, counters that do not reconcile, a restart that\n\
     misses recovery evidence, or a post-kill hit rate under 0.8x the\n\
     pre-kill steady state. DIR is recreated empty; the default is a\n\
     temp directory removed after the run.";

/// Entry point for `oic bench restartload`. Returns the process exit
/// code.
pub fn cli_main(args: &[String]) -> u8 {
    let mut config = RestartConfig::default();
    let mut output = Output::default();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--requests" => config.requests = s.positive(flag)?,
            "--sources" => config.sources = s.positive(flag)?,
            "--seed" => config.seed = s.positive(flag)?,
            "--kills" => config.kills = s.positive(flag)?,
            "--cache-bytes" => config.cache_bytes = s.positive(flag)? as usize,
            "--disk-bytes" => config.disk_bytes = s.positive(flag)?,
            "--zipf-s" => config.zipf_s = s.non_negative(flag)?,
            "--cache-dir" => config.cache_dir = Some(s.path(flag)?),
            _ => output.flag(flag, s)?,
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    let report = match run_restartload(&config) {
        Ok(report) => report,
        Err(msg) => return usage_error(USAGE, &msg),
    };
    output.finish(|| report.to_json(), || render_text(&report), report.ok)
}

fn render_text(report: &RestartReport) -> String {
    let mut text = format!(
        "restartload: {} requests over {} sources, {} unclean kills (seed {})\n",
        report.config.requests, report.config.sources, report.config.kills, report.config.seed,
    );
    for s in &report.segments {
        text += &format!(
            "  segment {}: {} requests, {} hit / {} disk / {} miss / {} err, rate {:.4}{}{}\n",
            s.index,
            s.tally.requests,
            s.tally.hits,
            s.tally.disk_hits,
            s.tally.misses,
            s.tally.errors,
            s.hit_rate,
            if s.index > 0 {
                format!(
                    ", recovered {} entries (torn tail: {})",
                    s.entries_recovered, s.recovered_torn_tail
                )
            } else {
                String::new()
            },
            if s.killed { " [killed]" } else { "" },
        );
    }
    text + &format!(
        "  pre-kill rate {:.4}; warm min {:.4} (floor {:.4}); \
         corrupt {}; reconciled {}; gate: {}",
        report.prekill_rate,
        report.warm_rate_min,
        report.warm_floor,
        report.corrupt_total,
        report.reconciled,
        if report.ok { "ok" } else { "FAILED" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RestartConfig {
        RestartConfig {
            requests: 240,
            sources: 8,
            seed: 7,
            kills: 2,
            ..RestartConfig::default()
        }
    }

    #[test]
    fn replay_with_kills_meets_the_gate() {
        let report = run_restartload(&small()).expect("harness runs");
        assert_eq!(report.segments.len(), 3);
        assert_eq!(report.corrupt_total, 0, "no corrupt serves");
        assert_eq!(report.error_total, 0, "no errors");
        assert!(report.reconciled, "counters reconcile");
        assert!(report.recovered, "every restart recovered the torn tail");
        assert!(
            report.warm_rate_min >= report.warm_floor,
            "warm rate {} under floor {}",
            report.warm_rate_min,
            report.warm_floor
        );
        assert!(report.ok);
        // Warm segments really did draw on the disk tier.
        assert!(
            report
                .segments
                .iter()
                .skip(1)
                .any(|s| s.tally.disk_hits > 0),
            "restarts must serve from disk"
        );
        for s in report.segments.iter().skip(1) {
            assert!(
                s.recovered_torn_tail,
                "segment {} saw no torn tail",
                s.index
            );
            assert!(
                s.entries_recovered > 0,
                "segment {} recovered nothing",
                s.index
            );
        }
    }

    #[test]
    fn report_schema_is_stable() {
        let report = run_restartload(&RestartConfig {
            requests: 60,
            sources: 4,
            kills: 1,
            seed: 3,
            ..RestartConfig::default()
        })
        .expect("harness runs");
        let doc = report.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("oi.restart.v1")
        );
        for key in [
            "requests",
            "kills",
            "segments",
            "prekill_rate",
            "warm_rate_min",
            "warm_floor",
            "corrupt_total",
            "reconciled",
            "recovered",
            "ok",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
        let segments = match doc.get("segments") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("segments must be an array, got {other:?}"),
        };
        assert_eq!(segments.len(), 2);
        for row in &segments {
            for key in [
                "hits",
                "disk_hits",
                "misses",
                "corrupt",
                "recovered_torn_tail",
            ] {
                assert!(row.get(key).is_some(), "segment missing {key}");
            }
        }
    }

    #[test]
    fn replay_is_deterministic_in_shape() {
        let a = run_restartload(&small()).expect("harness runs");
        let b = run_restartload(&small()).expect("harness runs");
        let shape = |r: &RestartReport| {
            r.segments
                .iter()
                .map(|s| {
                    (
                        s.tally.hits,
                        s.tally.disk_hits,
                        s.tally.misses,
                        s.tally.errors,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn too_few_requests_for_the_kill_count_is_an_error() {
        let config = RestartConfig {
            requests: 4,
            kills: 3,
            ..RestartConfig::default()
        };
        assert!(run_restartload(&config).is_err());
    }

    #[test]
    fn cli_rejects_bad_flags() {
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            cli_main(&args)
        };
        assert_eq!(run(&["--wat"]), 2);
        assert_eq!(run(&["--requests", "0"]), 2);
        assert_eq!(run(&["--zipf-s", "nope"]), 2);
        assert_eq!(run(&["stray"]), 2);
    }
}
