//! `oi-trace`: structured tracing for the whole pipeline.
//!
//! The paper's evaluation is about *explaining* where inlining wins come
//! from; this module is the plumbing that makes the pipeline explain
//! itself. It provides:
//!
//! - **Spans** — timed phases (`analysis`, `decision`, `rewrite`, ...)
//!   that nest, and whose durations are aggregated into a per-phase
//!   profile retrievable after a run.
//! - **Events** — structured instants with key/value fields, e.g. a
//!   `contour.split` naming its cause.
//! - **Counters** — cheap aggregate-only tallies for hot paths
//!   (worklist iterations, tag joins) that never hit a sink per call.
//! - **Sinks** — pluggable outputs: [`TextSink`] (indented pretty text on
//!   stderr), [`JsonLinesSink`] (one JSON object per line on stderr), and
//!   [`MemorySink`] (in-process capture for tests).
//!
//! A [`Tracer`] is installed per thread ([`install`]); instrumentation
//! sites call the free functions [`span`], [`event`], and [`counter`],
//! which are no-ops (no allocation, no clock read) when no tracer is
//! installed. Sink selection is driven by the `OIC_TRACE` environment
//! variable (`text` or `json`) or CLI flags; see [`TraceMode::from_env`].
//!
//! ```
//! use oi_support::trace::{self, MemorySink, Tracer};
//! use std::rc::Rc;
//!
//! let sink = Rc::new(MemorySink::default());
//! let tracer = Rc::new(Tracer::new(vec![sink.clone()]));
//! let _guard = trace::install(tracer.clone());
//! {
//!     let _span = trace::span("analysis");
//!     trace::counter("analysis.rounds", 3);
//! }
//! assert_eq!(tracer.counters(), vec![("analysis.rounds".to_string(), 3)]);
//! assert_eq!(sink.snapshot().len(), 2); // span start + end
//! ```

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Which sink (if any) the CLI tools should install.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Tracing disabled; instrumentation sites are no-ops.
    #[default]
    Off,
    /// Human-readable indented lines on stderr.
    Text,
    /// One JSON object per event on stderr (JSON-lines).
    Json,
}

impl TraceMode {
    /// Parses a mode name: `json`, `text` (also `1`/`on`), `off`/empty.
    pub fn parse(name: &str) -> Option<TraceMode> {
        match name {
            "json" => Some(TraceMode::Json),
            "text" | "1" | "on" => Some(TraceMode::Text),
            "off" | "0" | "" => Some(TraceMode::Off),
            _ => None,
        }
    }

    /// Reads the `OIC_TRACE` environment variable. Unset or unrecognized
    /// values mean [`TraceMode::Off`].
    pub fn from_env() -> TraceMode {
        match std::env::var("OIC_TRACE") {
            Ok(value) => TraceMode::parse(&value).unwrap_or(TraceMode::Off),
            Err(_) => TraceMode::Off,
        }
    }
}

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed; `elapsed_us` is set.
    SpanEnd,
    /// A point-in-time structured event.
    Instant,
}

/// A single trace record as delivered to sinks.
#[derive(Clone, Debug)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Dotted event name, e.g. `pass.rewrite` or `contour.split`.
    pub name: String,
    /// Span nesting depth at the time of the record.
    pub depth: usize,
    /// Wall-clock duration in microseconds ([`EventKind::SpanEnd`] only).
    pub elapsed_us: Option<u64>,
    /// Structured payload fields, in emission order.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// Renders as a single JSON object (one JSON-lines record).
    pub fn to_json(&self) -> Json {
        let kind = match self.kind {
            EventKind::SpanStart => "span",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "event",
        };
        let mut pairs = vec![
            ("ev".to_string(), Json::Str(kind.to_string())),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("depth".to_string(), Json::UInt(self.depth as u64)),
        ];
        if let Some(us) = self.elapsed_us {
            pairs.push(("us".to_string(), Json::UInt(us)));
        }
        for (k, v) in &self.fields {
            pairs.push((k.clone(), v.clone()));
        }
        Json::Obj(pairs)
    }

    /// Renders as one indented human-readable line.
    pub fn to_text(&self) -> String {
        let mut line = "  ".repeat(self.depth);
        let marker = match self.kind {
            EventKind::SpanStart => '>',
            EventKind::SpanEnd => '<',
            EventKind::Instant => '*',
        };
        let _ = write!(line, "{marker} {}", self.name);
        if let Some(us) = self.elapsed_us {
            let _ = write!(line, " {}.{:03}ms", us / 1000, us % 1000);
        }
        for (k, v) in &self.fields {
            match v {
                Json::Str(s) => {
                    let _ = write!(line, " {k}={s}");
                }
                other => {
                    let _ = write!(line, " {k}={other}");
                }
            }
        }
        line
    }
}

/// A trace output. Sinks receive every span and instant event (counters
/// are aggregate-only and are not delivered per call).
pub trait Sink {
    /// Consumes one record.
    fn record(&self, event: &Event);
}

/// Writes indented human-readable lines to stderr.
#[derive(Default)]
pub struct TextSink;

impl Sink for TextSink {
    fn record(&self, event: &Event) {
        eprintln!("{}", event.to_text());
    }
}

/// Writes one compact JSON object per record to stderr.
#[derive(Default)]
pub struct JsonLinesSink;

impl Sink for JsonLinesSink {
    fn record(&self, event: &Event) {
        eprintln!("{}", event.to_json());
    }
}

/// Captures records in memory; used by tests to assert on trace output.
#[derive(Default)]
pub struct MemorySink {
    events: RefCell<Vec<Event>>,
}

impl MemorySink {
    /// A copy of every record captured so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.borrow_mut().push(event.clone());
    }
}

/// Aggregated timing for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// How many spans with this name closed.
    pub count: u64,
    /// Total wall-clock microseconds across those spans.
    pub total_us: u64,
}

/// The per-thread trace collector: fans records out to sinks and keeps
/// the phase profile and counter aggregates.
pub struct Tracer {
    sinks: Vec<Rc<dyn Sink>>,
    depth: Cell<usize>,
    phases: RefCell<BTreeMap<String, PhaseStat>>,
    counters: RefCell<BTreeMap<String, i64>>,
}

impl Tracer {
    /// A tracer fanning out to the given sinks. An empty sink list is
    /// valid: spans still aggregate into the phase profile, which is what
    /// `--json` timing output uses even when `OIC_TRACE` is off.
    pub fn new(sinks: Vec<Rc<dyn Sink>>) -> Tracer {
        Tracer {
            sinks,
            depth: Cell::new(0),
            phases: RefCell::new(BTreeMap::new()),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// A tracer with the sink the mode calls for (none for `Off`).
    pub fn for_mode(mode: TraceMode) -> Tracer {
        let sinks: Vec<Rc<dyn Sink>> = match mode {
            TraceMode::Off => vec![],
            TraceMode::Text => vec![Rc::new(TextSink)],
            TraceMode::Json => vec![Rc::new(JsonLinesSink)],
        };
        Tracer::new(sinks)
    }

    /// The per-phase timing profile, sorted by phase name.
    pub fn phase_profile(&self) -> Vec<(String, PhaseStat)> {
        self.phases
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// All counter totals, sorted by counter name.
    pub fn counters(&self) -> Vec<(String, i64)> {
        self.counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<Tracer>>> = const { RefCell::new(None) };
}

/// Restores the previously installed tracer when dropped.
pub struct InstallGuard {
    previous: Option<Rc<Tracer>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            *current.borrow_mut() = self.previous.take();
        });
    }
}

/// Installs `tracer` as this thread's collector until the returned guard
/// drops (the previous tracer, if any, is then restored).
pub fn install(tracer: Rc<Tracer>) -> InstallGuard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(tracer));
    InstallGuard { previous }
}

/// The currently installed tracer, if any.
pub fn current() -> Option<Rc<Tracer>> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Whether a tracer is installed. Instrumentation sites that must build
/// field payloads should check this first to keep the disabled path free.
pub fn is_enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// An open span; closing (dropping) it emits a `SpanEnd` with the elapsed
/// wall-clock time and folds the duration into the phase profile.
pub struct SpanGuard {
    tracer: Option<Rc<Tracer>>,
    name: String,
    start: Option<Instant>,
    fields: Vec<(String, Json)>,
}

impl SpanGuard {
    /// Attaches a field reported on the closing `SpanEnd` record (e.g. a
    /// delta computed while the span ran).
    pub fn field(&mut self, key: &str, value: Json) {
        if self.tracer.is_some() {
            self.fields.push((key.to_string(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        let elapsed_us = self
            .start
            .map(|start| start.elapsed().as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let depth = tracer.depth.get().saturating_sub(1);
        tracer.depth.set(depth);
        {
            let mut phases = tracer.phases.borrow_mut();
            let stat = phases.entry(self.name.clone()).or_default();
            stat.count += 1;
            stat.total_us += elapsed_us;
        }
        tracer.record(&Event {
            kind: EventKind::SpanEnd,
            name: std::mem::take(&mut self.name),
            depth,
            elapsed_us: Some(elapsed_us),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Opens a timed span. A no-op guard is returned when tracing is off.
pub fn span(name: &str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Opens a timed span with fields attached to its opening record.
pub fn span_with(name: &str, fields: Vec<(String, Json)>) -> SpanGuard {
    let Some(tracer) = current() else {
        return SpanGuard {
            tracer: None,
            name: String::new(),
            start: None,
            fields: Vec::new(),
        };
    };
    let depth = tracer.depth.get();
    tracer.record(&Event {
        kind: EventKind::SpanStart,
        name: name.to_string(),
        depth,
        elapsed_us: None,
        fields,
    });
    tracer.depth.set(depth + 1);
    SpanGuard {
        tracer: Some(tracer),
        name: name.to_string(),
        start: Some(Instant::now()),
        fields: Vec::new(),
    }
}

/// Emits a point-in-time event with structured fields.
pub fn event(name: &str, fields: Vec<(String, Json)>) {
    if let Some(tracer) = current() {
        let depth = tracer.depth.get();
        tracer.record(&Event {
            kind: EventKind::Instant,
            name: name.to_string(),
            depth,
            elapsed_us: None,
            fields,
        });
    }
}

/// Adds `delta` to the named counter. Aggregate-only: nothing is sent to
/// sinks, so this is safe to call from hot loops.
pub fn counter(name: &str, delta: i64) {
    if let Some(tracer) = current() {
        let mut counters = tracer.counters.borrow_mut();
        // Allocate the name only the first time it is counted.
        match counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }
}

/// Convenience builder for one `(key, value)` field pair.
pub fn kv(key: &str, value: impl Into<Json>) -> (String, Json) {
    (key.to_string(), value.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_memory_tracer(run: impl FnOnce()) -> (Rc<Tracer>, Vec<Event>) {
        let sink = Rc::new(MemorySink::default());
        let tracer = Rc::new(Tracer::new(vec![sink.clone() as Rc<dyn Sink>]));
        {
            let _guard = install(tracer.clone());
            run();
        }
        let events = sink.snapshot();
        (tracer, events)
    }

    #[test]
    fn spans_nest_and_report_depth() {
        let (_tracer, events) = with_memory_tracer(|| {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                event("leaf", vec![kv("x", 1u64)]);
            }
        });
        let shape: Vec<(EventKind, &str, usize)> = events
            .iter()
            .map(|e| (e.kind, e.name.as_str(), e.depth))
            .collect();
        assert_eq!(
            shape,
            vec![
                (EventKind::SpanStart, "outer", 0),
                (EventKind::SpanStart, "inner", 1),
                (EventKind::Instant, "leaf", 2),
                (EventKind::SpanEnd, "inner", 1),
                (EventKind::SpanEnd, "outer", 0),
            ]
        );
        assert!(events[3].elapsed_us.is_some());
    }

    #[test]
    fn phase_profile_aggregates_by_name() {
        let (tracer, _events) = with_memory_tracer(|| {
            for _ in 0..3 {
                let _s = span("pass.rewrite");
            }
            let _other = span("pass.decide");
        });
        let profile = tracer.phase_profile();
        let rewrite = profile
            .iter()
            .find(|(name, _)| name == "pass.rewrite")
            .unwrap();
        assert_eq!(rewrite.1.count, 3);
        assert_eq!(
            profile
                .iter()
                .filter(|(name, _)| name == "pass.decide")
                .count(),
            1
        );
    }

    #[test]
    fn counters_aggregate_without_sink_records() {
        let (tracer, events) = with_memory_tracer(|| {
            counter("analysis.rounds", 2);
            counter("analysis.rounds", 3);
            counter("tags.joined", 1);
        });
        assert!(events.is_empty(), "counters must not reach sinks");
        assert_eq!(
            tracer.counters(),
            vec![
                ("analysis.rounds".to_string(), 5),
                ("tags.joined".to_string(), 1)
            ]
        );
    }

    #[test]
    fn disabled_tracing_is_inert() {
        assert!(!is_enabled());
        let mut guard = span("nothing");
        guard.field("ignored", Json::Null);
        event("nothing", vec![]);
        counter("nothing", 1);
        drop(guard);
    }

    #[test]
    fn install_guard_restores_previous() {
        let outer = Rc::new(Tracer::new(vec![]));
        let _outer_guard = install(outer.clone());
        {
            let inner = Rc::new(Tracer::new(vec![]));
            let _inner_guard = install(inner.clone());
            counter("c", 1);
            assert_eq!(inner.counters().len(), 1);
        }
        counter("c", 10);
        assert_eq!(outer.counters(), vec![("c".to_string(), 10)]);
    }

    #[test]
    fn json_lines_records_are_valid_json() {
        let (_tracer, events) = with_memory_tracer(|| {
            let mut s = span_with("phase", vec![kv("label", "a\"b\nc")]);
            s.field("delta", Json::Int(-4));
        });
        for event in &events {
            let text = event.to_json().to_string();
            let parsed = Json::parse(&text).expect("every record must be valid JSON");
            assert!(parsed.get("ev").is_some());
            assert!(parsed.get("name").is_some());
        }
        assert_eq!(
            events[0].to_json().get("label").unwrap().as_str(),
            Some("a\"b\nc")
        );
    }

    #[test]
    fn trace_mode_parsing() {
        assert_eq!(TraceMode::parse("json"), Some(TraceMode::Json));
        assert_eq!(TraceMode::parse("text"), Some(TraceMode::Text));
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("bogus"), None);
    }
}
