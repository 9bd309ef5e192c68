//! `serve-zipf`: a Zipf replay through the compile server.
//!
//! A `serve::Server` with a memory budget below the working set and a
//! `--cache-dir` tier in a fresh directory answers a seeded request
//! sequence. The timed window hands each request line to
//! `Server::handle_line` on the measuring thread, one at a time, and times
//! the call: request parsing, memory hits, verified disk loads of evicted
//! artifacts, cold compiles behind the oracle-guarded ladder, evictions,
//! the VM run of a `run` request and the response envelope. The tier's
//! write-behind persister runs on its own thread, as in `oic serve`.
//!
//! The traced window then replays a prefix of the same sequence through
//! `serve::run_serve`, the `oic serve` pump, with `--jobs` equal to the
//! available parallelism, over in-memory pipes, one request in flight. The
//! queue, the scheduler's fuel slices and the pump's hand-offs are measured
//! there, per layer.
//!
//! The end-to-end figures do not come from the pump. Its latencies pass
//! through five threads, and on a small shared VM they moved between runs
//! of the same code by more than any bound a gate may use, closed loop or
//! open. The reference kernel (`calib.rs`) corrects for the speed of the
//! thread it runs on, so the gated figures are timed on that thread.
//!
//! The trace is a seeded Zipf draw over a fixed rank table of three source
//! families: the Fig-17 programs at `small` size, `synth` programs and
//! `loadgen::synthetic_source` programs. One request in ten is a `compile`,
//! the rest `run`, over four tenants. Set-up compiles the 77 hottest
//! sources (the warm set); the window opens once they are on disk, and the
//! rank tail beyond them is cold. The seed moves the draws, ops, tenants
//! and program constants, never the shape of the rank table.

use crate::calib::Calibration;
use crate::layers;
use crate::oracle::{self, Tally};
use crate::stats;
use crate::{Window, Workload};
use oi_bench::loadgen::{synthetic_source, ZipfSampler};
use oi_bench::serve::{run_serve, ServeConfig, Server};
use oi_bench::synth::{self, SynthParams};
use oi_benchmarks::{all_benchmarks, BenchSize};
use oi_core::ladder::{optimize_with_ladder, LadderConfig};
use oi_core::pipeline::{optimize, InlineConfig};
use oi_support::rng::XorShift64;
use oi_support::trace::{self, Tracer};
use oi_support::{Budget, Json};
use oi_vm::{CheckLevel, VmConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ranks of the Zipf draw; the first `WARM` are compiled in set-up.
const RANKS: u64 = 400;
const WARM: usize = 77;
/// The rank of each Fig-17 program, in `all_benchmarks` order (oopack,
/// richards, silo, polyover-array, polyover-list): the millisecond-scale
/// runs take the hottest ranks. Synth programs fill the other warm ranks,
/// synthetic sources the cold tail.
const FIG17_RANKS: [usize; 5] = [16, 0, 3, 1, 2];
/// Driver-loop iterations of the synth programs: 0.7 to 2.7 ms per run.
const SYNTH_ITERS: usize = 2_000;
/// Synth shapes: class pairs, each at call depth 1 and 2.
const SYNTH_PAIRS: [usize; 6] = [2, 3, 4, 5, 6, 7];
const TENANTS: usize = 4;
/// Longest wait for any one pump response before the run counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
/// The tail percentile `tail_ms` reports. The top percent of a window is
/// the rare slow run of the hottest program (richards, about 4 ms), so p99
/// follows the host's jitter: across five seeds it ranged over ±12% while
/// p50 held within ±3%. p95, with hundreds of requests beyond it, is the
/// tail a gate can bear; `serve_p99_ms` is printed on a `#` line.
const TAIL_PCT: f64 = 95.0;
/// A request answered correctly within this many measured ms counts
/// toward goodput.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The server's memory budget: under half the warm set, so artifacts are
/// evicted to the disk tier and loaded back.
const CACHE_BYTES: usize = 50_000;
/// Skew of the Zipf draw over the ranks.
const ZIPF_S: f64 = 1.0;
/// Requests whose `run` payload counters feed the `vm.inlined.*` metrics.
const VM_PREFIX: usize = 500;
/// Requests the traced window replays through the pump.
const PUMP_REQUESTS: usize = 1_000;

pub struct ServeZipf;

struct Source {
    text: String,
    output: String,
    expected_auto: usize,
    /// A `loadgen::synthetic_source` program.
    synthetic: bool,
}

/// The `run` payload counters summed into the `vm.inlined.*` metrics.
const VM_COUNTERS: [&str; 4] = ["instructions", "cycles", "allocations", "cache_misses"];

/// One request of the replay.
struct Planned {
    source: usize,
    run: bool,
    tenant: usize,
}

impl Planned {
    fn op(&self) -> &'static str {
        if self.run {
            "run"
        } else {
            "compile"
        }
    }
}

/// A warm server. Fields drop in order: the server flushes its tier, and
/// only then is the cache directory removed.
pub struct State {
    server: Arc<Server>,
    sources: Vec<Source>,
    seed: u64,
    setup_tally: Tally,
    _dir: ScratchDir,
}

/// The request pipe and the thread running `run_serve`.
struct Pump {
    lines: Option<Sender<String>>,
    serve: Option<JoinHandle<u8>>,
}

impl Pump {
    /// Closes the request pipe, which is end of input: the pump drains,
    /// `run_serve` returns, and its thread is joined.
    fn stop(&mut self) {
        drop(self.lines.take());
        if let Some(handle) = self.serve.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A server's cache directory, removed when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The request side of the pipe: one line per message, with the time the
/// server's reader picked each line up.
struct PipeReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
    read_at: Arc<Mutex<Vec<Instant>>>,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    lock(&self.read_at).push(Instant::now());
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// The response side of the pipe: forwards each complete line with the
/// time the server's writer finished it.
struct PipeWriter {
    tx: Sender<(String, Instant)>,
    buf: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                let _ = self.tx.send((line, Instant::now()));
            } else {
                self.buf.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The rank table for `seed`: index = Zipf rank.
fn sources(seed: u64) -> Vec<Source> {
    let mut fig17: Vec<Option<Source>> = all_benchmarks(BenchSize::Small)
        .into_iter()
        .map(|b| Source {
            output: oracle::fig17_output(BenchSize::Small, b.name),
            expected_auto: b.ground_truth.expected_auto,
            text: b.source,
            synthetic: false,
        })
        .map(Some)
        .collect();
    let mut rng = XorShift64::new(seed ^ 0x5E_12FE);
    let mut synth = SYNTH_PAIRS
        .into_iter()
        .flat_map(|p| [(p, 1), (p, 2)])
        .cycle()
        .map(|(pairs, depth)| {
            let params = SynthParams {
                class_pairs: pairs,
                loop_iters: SYNTH_ITERS,
                call_depth: depth,
                seed: rng.next_u64(),
            };
            Source {
                text: synth::generate(params),
                output: oracle::synth_output(params),
                expected_auto: pairs,
                synthetic: false,
            }
        });
    let base = seed.wrapping_mul(1_000_003);
    let mut synthetic = (0..).map(|j: u64| Source {
        text: synthetic_source(base.wrapping_add(j)),
        output: oracle::synthetic_output(base.wrapping_add(j)),
        // Rect.ll and Rect.ur.
        expected_auto: 2,
        synthetic: true,
    });
    (0..RANKS as usize)
        .map(|rank| {
            let pick = if let Some(i) = FIG17_RANKS.iter().position(|&r| r == rank) {
                fig17[i].take()
            } else if rank < WARM {
                synth.next()
            } else {
                None
            };
            pick.or_else(|| synthetic.next())
                .expect("synthetic sources are endless")
        })
        .collect()
}

fn request_line(id: u64, op: &str, tenant: usize, source: &str) -> String {
    Json::obj(vec![
        ("id", id.into()),
        ("op", op.into()),
        ("tenant", format!("t{tenant}").into()),
        ("source", source.into()),
    ])
    .to_string()
}

/// Whether `response` answers `run`/`compile` of `source` correctly.
fn correct(response: &Json, run: bool, source: &Source) -> bool {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return false;
    }
    let payload = response.get("payload");
    if run {
        payload.and_then(|p| p.get("output")).and_then(Json::as_str) == Some(source.output.as_str())
    } else {
        let report = payload.and_then(|p| p.get("report"));
        let count = |k| report.and_then(|r| r.get(k)).and_then(Json::as_i64);
        match (count("fields_inlined"), count("array_sites_inlined")) {
            (Some(f), Some(a)) => (f + a) as usize == source.expected_auto,
            _ => false,
        }
    }
}

/// A failed response, cut short for a diagnostic line.
fn brief(response: &Json) -> String {
    let mut text = response.to_string();
    text.truncate(300);
    text
}

/// Where the persistent tier of each server goes: inside the checkout's
/// build directory, never outside it.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::var_os("PERFBENCH_TMP").map_or_else(
        || PathBuf::from(".bench_build/perfbench-tmp"),
        PathBuf::from,
    );
    base.join(format!(
        "serve-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// The seeded request sequence: Zipf-drawn source, op and tenant.
fn requests(seed: u64) -> impl Iterator<Item = Planned> {
    let sampler = ZipfSampler::new(RANKS, ZIPF_S);
    let mut rng = XorShift64::new(seed);
    std::iter::from_fn(move || {
        Some(Planned {
            source: sampler.sample(&mut rng) as usize,
            run: rng.chance(9, 10),
            tenant: rng.below(TENANTS),
        })
    })
}

fn histogram(metrics: &Json, name: &str, key: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A diagnostic line for one of the first few failed requests.
fn report_failure(failures: &mut usize, k: usize, response: &Json) {
    if *failures < 5 {
        *failures += 1;
        eprintln!(
            "perfbench: serve-zipf request {k} failed: {}",
            brief(response)
        );
    }
}

impl Workload for ServeZipf {
    type State = State;

    /// Starts a server on a fresh cache directory and compiles the warm set
    /// through it.
    fn setup(&self, seed: u64) -> State {
        let dir = scratch_dir();
        let server = Arc::new(Server::new(ServeConfig {
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            cache_bytes: CACHE_BYTES,
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        }));
        let sources = sources(seed);
        let mut setup_tally = Tally::default();
        for (id, source) in sources[..WARM].iter().enumerate() {
            let handled = server.handle_line(&request_line(id as u64, "compile", 0, &source.text));
            setup_tally.record(correct(&handled.response, false, source));
        }
        State {
            server,
            sources,
            seed,
            setup_tally,
            _dir: ScratchDir(dir),
        }
    }

    fn window(&self, state: State, seconds: f64, traced: bool) -> Window {
        // The write-behind tier must hold the warm set before the window
        // opens. Disk speed is not set-up work, so the wait is not timed.
        let server = &state.server;
        let disk = server.disk().expect("the cache directory opens");
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        while disk.stats().persists < WARM as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        server.metrics().reset();
        let cache0 = server.cache().stats();
        let disk0 = disk.stats().load_hits;
        let mut calib = Calibration::new();
        let tracer = Rc::new(Tracer::new(Vec::new()));
        let guard = traced.then(|| trace::install(tracer.clone()));

        let mut tally = state.setup_tally;
        let (mut e2e, mut raw) = (Vec::new(), Vec::new());
        // Compile requests by where their artifact came from: the cache's
        // own cost, with no VM run in it.
        let mut compiles: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut good, mut failures) = (0usize, 0);
        let (mut vm, mut dispatches) = ([0f64; 4], 0f64);
        let start = Instant::now();
        for (k, p) in requests(state.seed).enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            calib.maybe_sample();
            let source = &state.sources[p.source];
            let line = request_line((WARM + k) as u64, p.op(), p.tenant, &source.text);
            let t = Instant::now();
            let response = server.handle_line(black_box(&line)).response;
            let latency = t.elapsed().as_secs_f64() * 1e3;
            let ok = tally.record(correct(&response, p.run, source));
            if !ok {
                report_failure(&mut failures, k, &response);
            }
            raw.push(latency);
            e2e.push(calib.scale(t, latency));
            if ok && latency <= LATENCY_LIMIT_MS {
                good += 1;
            }
            let from = response.get("cache").and_then(Json::as_str);
            if let (false, Some(from)) = (p.run, from) {
                compiles.entry(from.to_string()).or_default().push(latency);
            }
            // VM counters over a fixed prefix of the sequence repeat bit
            // for bit; the window's length in requests does not. The time
            // per dispatch divides by every dispatch of the window.
            if let Some(m) = response.get("payload").and_then(|p| p.get("metrics")) {
                let count = |key| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                dispatches += count(VM_COUNTERS[0]);
                if k < VM_PREFIX {
                    for (total, key) in vm.iter_mut().zip(VM_COUNTERS) {
                        *total += count(key);
                    }
                }
            }
        }
        drop(guard);
        let n = e2e.len();
        let sorted = stats::sorted(&e2e);
        let p50 = stats::percentile(&sorted, 50.0);
        let tail = stats::percentile(&sorted, TAIL_PCT);
        let p99 = stats::percentile(&sorted, 99.0);
        let goodput = 1e3 * good as f64 / e2e.iter().sum::<f64>();
        let measured_total: f64 = raw.iter().sum();

        let mut layers_out = BTreeMap::new();
        if traced {
            let metrics = server.metrics().to_json();
            let q = |name: &str, key: &str| histogram(&metrics, name, key) / 1e6;
            let cache1 = server.cache().stats();
            let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
            layers_out.insert(
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            layers_out.insert(
                "cache.evictions",
                (cache1.evictions - cache0.evictions) as f64,
            );
            layers_out.insert("disk.load_hits", (disk.stats().load_hits - disk0) as f64);
            let p50_us = |from: &str| compiles.get(from).map_or(0.0, |v| stats::median(v) * 1e3);
            layers_out.insert("serve.hit_us.p50", p50_us("hit"));
            layers_out.insert("serve.disk_us.p50", p50_us("disk"));
            layers_out.insert("serve.optimize_ms.p50", q("serve.optimize_ns", "p50_ns"));
            layers_out.insert("serve.optimize_ms.p99", q("serve.optimize_ns", "p99_ns"));
            layers_out.insert("serve.execute_ms.p50", q("serve.execute_ns", "p50_ns"));
            layers_out.insert("vm.inlined.dispatches", vm[0]);
            layers_out.insert("vm.inlined.cycles", vm[1]);
            layers_out.insert("vm.inlined.allocations", vm[2]);
            layers_out.insert("vm.inlined.cache_misses", vm[3]);
            layers_out.insert(
                "vm.inlined.ns_per_dispatch",
                histogram(&metrics, "serve.execute_ns", "sum_ns") / dispatches.max(1.0),
            );
            probe(&state.sources, &mut layers_out);
            pump(&state, &mut tally, &mut layers_out);
            layers::scale_times(&mut layers_out, calib.factor());
        }
        // Read after the layer counters: lookups count as hits. The
        // same seed yields the same artifacts, so this size is exact.
        let config = oi_core::cache::config_fingerprint(&LadderConfig::default(), None, None);
        let code_kb: f64 = state.sources[..WARM]
            .iter()
            .filter_map(|s| {
                let key = oi_core::cache::CacheKey::whole_program(&s.text, config);
                server
                    .cache()
                    .get(&key)
                    .or_else(|| disk.load(&key).map(Arc::new))
                    .map(|a| oi_ir::size::measure(&a.outcome.optimized.program).kilobytes())
            })
            .sum();

        println!(
            "# serve-zipf: {n} requests through handle_line, {good} good within {LATENCY_LIMIT_MS} ms, {} beyond p{TAIL_PCT}",
            stats::beyond(n, TAIL_PCT),
        );
        let raw = stats::sorted(&raw);
        Window {
            tally,
            e2e: vec![
                ("p50_ms", p50),
                ("tail_ms", tail),
                // The latency limit applies to measured latency.
                ("throughput_per_s", goodput),
                ("code_kb_inlined", code_kb),
            ],
            raw: vec![
                ("p50_ms", stats::percentile(&raw, 50.0)),
                ("tail_ms", stats::percentile(&raw, TAIL_PCT)),
                ("throughput_per_s", 1e3 * good as f64 / measured_total),
            ],
            layers: layers_out,
            named: vec![
                ("serve_p50_ms".into(), p50, "ms"),
                (format!("serve_p{TAIL_PCT}_ms"), tail, "ms"),
                ("serve_p99_ms".into(), p99, "ms"),
                ("serve_goodput_rps".into(), goodput, "1/s"),
                ("requests".into(), n as f64, "count"),
            ],
            calib,
        }
    }
}

/// The layers only the `oic serve` pump has, measured by replaying the
/// first `PUMP_REQUESTS` requests of the sequence through `run_serve` on
/// the warm server, one request in flight. Each request is timed from the
/// client's write to the moment the server's writer finished its response
/// line; the pump time is the way from that write to the server's reader.
fn pump(state: &State, tally: &mut Tally, out: &mut BTreeMap<&'static str, f64>) {
    let server = &state.server;
    server.metrics().reset();
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let (resp_tx, resp_rx) = mpsc::channel();
    let read_at = Arc::new(Mutex::new(Vec::new()));
    let reader = PipeReader {
        rx: line_rx,
        buf: Vec::new(),
        pos: 0,
        read_at: Arc::clone(&read_at),
    };
    let serving = Arc::clone(server);
    let mut pump = Pump {
        lines: Some(line_tx),
        serve: Some(std::thread::spawn(move || {
            let mut writer = PipeWriter {
                tx: resp_tx,
                buf: Vec::new(),
            };
            run_serve(&serving, reader, &mut writer)
        })),
    };
    let ms = |later: Instant, earlier: Instant| {
        later.saturating_duration_since(earlier).as_secs_f64() * 1e3
    };
    let (mut e2e, mut piped, mut failures) = (Vec::new(), Vec::new(), 0);
    for (k, p) in requests(state.seed).take(PUMP_REQUESTS).enumerate() {
        let source = &state.sources[p.source];
        let line = request_line(k as u64, p.op(), p.tenant, &source.text);
        let sent = Instant::now();
        let answer = pump
            .lines
            .as_ref()
            .expect("pipe open")
            .send(line)
            .ok()
            .and_then(|()| resp_rx.recv_timeout(RESPONSE_TIMEOUT).ok());
        let Some((text, written)) = answer else {
            tally.record(false);
            break;
        };
        let response = Json::parse(&text).unwrap_or(Json::Null);
        if !tally.record(correct(&response, p.run, source)) {
            report_failure(&mut failures, k, &response);
        }
        e2e.push(ms(written, sent));
        if let Some(&read) = lock(&read_at).get(k) {
            piped.push(ms(read, sent));
        }
    }
    pump.stop();
    let metrics = server.metrics().to_json();
    let q = |name: &str, key: &str| histogram(&metrics, name, key) / 1e6;
    out.insert(
        "serve.queue_wait_ms.p50",
        q("serve.queue_wait_ns", "p50_ns"),
    );
    out.insert(
        "serve.queue_wait_ms.p99",
        q("serve.queue_wait_ns", "p99_ns"),
    );
    out.insert("serve.pump_ms.p50", stats::median(&piped));
    // Reconciliation: e2e = pump + queue wait + handling, up to what none
    // of them covers: the response's way out through the pump's writer.
    let total: f64 = e2e.iter().sum();
    let parts = q("serve.queue_wait_ns", "sum_ns")
        + q("serve.total_ns", "sum_ns")
        + piped.iter().sum::<f64>();
    out.insert(
        "serve.reconcile_residual_pct",
        100.0 * (total - parts) / total,
    );
    let sorted = stats::sorted(&e2e);
    println!(
        "# serve-zipf pump: {} requests through run_serve, raw p50 {:.4} ms, p99 {:.4} ms",
        sorted.len(),
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 99.0),
    );
}

/// The compile layers serve uses, measured on this thread after the
/// window: the pump's workers have no tracer, so its `serve.analyze_ns`
/// reads zero. The warm set and the first eight synthetic sources of the
/// cold tail are lowered and compiled through the oracle-guarded ladder
/// under a tracer, then through `optimize` alone, and each optimized build
/// is run under the Full sanitizer.
fn probe(table: &[Source], out: &mut BTreeMap<&'static str, f64>) {
    let picked: Vec<&Source> = table[..WARM]
        .iter()
        .chain(table.iter().filter(|s| s.synthetic).take(8))
        .collect();
    let tracer = Rc::new(Tracer::new(Vec::new()));
    let (mut lower_ms, mut ladder_ms, mut fields, mut arrays) = (0.0, 0.0, 0, 0);
    let mut programs = Vec::new();
    {
        let _guard = trace::install(tracer.clone());
        for s in &picked {
            let t = Instant::now();
            let program = oi_ir::lower::compile(&s.text).expect("warm sources lower");
            lower_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let outcome =
                optimize_with_ladder(&program, &LadderConfig::default(), &Budget::unlimited());
            ladder_ms += t.elapsed().as_secs_f64() * 1e3;
            fields += outcome.optimized.report.fields_inlined;
            arrays += outcome.optimized.report.array_sites_inlined;
            programs.push(program);
        }
    }
    let n = picked.len();
    layers::stage_breakdown(&tracer, n, lower_ms, lower_ms + ladder_ms, out);
    layers::analysis_counts(&tracer, out);
    out.insert("fields_inlined", fields as f64);
    out.insert("array_sites_inlined", arrays as f64);
    let (mut optimize_ms, mut checked_ms) = (0.0, 0.0);
    let checked = VmConfig {
        checked: CheckLevel::Full,
        ..VmConfig::default()
    };
    for program in &programs {
        let t = Instant::now();
        let opt = optimize(program, &InlineConfig::default());
        optimize_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let _ = std::hint::black_box(oi_vm::run(&opt.program, &checked));
        checked_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    out.insert("firewall.oracle_ms", (ladder_ms - optimize_ms) / n as f64);
    out.insert("sanitizer.checked_ms", checked_ms / n as f64);
}
