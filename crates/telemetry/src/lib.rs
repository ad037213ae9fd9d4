//! Structured observability for the GDO pipeline.
//!
//! A from-scratch, zero-dependency telemetry substrate: monotonic
//! [`counter_add`] counters and [`gauge_set`] gauges, RAII [`span`]
//! timers, structured [`event`]s fanned out to pluggable [`EventSink`]s
//! (NDJSON files, pretty stderr), and a [`RunReport`] snapshot with a
//! stable, versioned JSON schema (see [`SCHEMA_VERSION`]). The [`json`]
//! module reads back what it writes; it is the workspace's one JSON
//! reader.
//!
//! # Cost model
//!
//! The collector is **disabled by default** and every probe
//! ([`counter_add`], [`gauge_set`], [`span`], [`event`]) starts with a
//! single `Relaxed` atomic load; when disabled that load is the *entire*
//! cost — no locking, no allocation, no formatting. Hot inner loops
//! (the SAT solver's propagation loop, the BPFS bit-sweeps) must not
//! carry probes at all: they keep intrinsic plain-integer statistics and
//! the pipeline records deltas at call boundaries.
//!
//! # Example
//!
//! ```
//! telemetry::reset();
//! telemetry::enable();
//! {
//!     let _s = telemetry::span("demo.work");
//!     telemetry::counter_add("demo.items", 3);
//! }
//! telemetry::disable();
//! let report = telemetry::snapshot();
//! assert_eq!(report.counters["demo.items"], 3);
//! assert_eq!(report.spans["demo.work"].count, 1);
//! assert!(telemetry::json::parse(&report.to_json()).is_ok());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod json;

/// Version tag embedded in every [`RunReport`] (`schema` field). Bump the
/// integer suffix only on incompatible changes; additions of new counter
/// or span names are backward-compatible and do not bump it.
pub const SCHEMA_VERSION: &str = "gdo-telemetry/1";

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROBE_CALLS: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

/// A typed field value carried by [`event`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (serialized as `null` when not finite).
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_json_f64(out, *v),
            Value::Str(s) => write_json_str(out, s),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

/// Receives structured events. Installed via [`install_sink`]; every
/// event is fanned out to all installed sinks in installation order.
pub trait EventSink: Send {
    /// Handles one event. `t` is seconds since the collector was created.
    fn write_event(&mut self, t: f64, seq: u64, name: &str, fields: &[(&str, Value)]);
    /// Flushes buffered output (called on [`disable`] and [`reset`]).
    fn flush(&mut self) {}
}

/// An [`EventSink`] writing one JSON object per line (NDJSON). Each line
/// carries `{"t":…,"seq":…,"event":…}` plus the event's fields.
pub struct NdjsonSink<W: std::io::Write + Send> {
    out: W,
}

impl<W: std::io::Write + Send> NdjsonSink<W> {
    /// Wraps a writer. Use a `BufWriter` for file targets.
    pub fn new(out: W) -> Self {
        NdjsonSink { out }
    }
}

impl<W: std::io::Write + Send> EventSink for NdjsonSink<W> {
    fn write_event(&mut self, t: f64, seq: u64, name: &str, fields: &[(&str, Value)]) {
        let mut line = String::with_capacity(64);
        line.push_str("{\"t\":");
        write_json_f64(&mut line, t);
        let _ = write!(line, ",\"seq\":{seq},\"event\":");
        write_json_str(&mut line, name);
        for (k, v) in fields {
            line.push(',');
            write_json_str(&mut line, k);
            line.push(':');
            v.write_json(&mut line);
        }
        line.push('}');
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// An [`EventSink`] pretty-printing events to stderr — the `-v` verbose
/// mode of `gdo-opt` (replacing the old `GDO_TRACE` prints).
pub struct StderrSink;

impl EventSink for StderrSink {
    fn write_event(&mut self, t: f64, _seq: u64, name: &str, fields: &[(&str, Value)]) {
        let mut line = format!("[{t:8.2}s] {name}");
        for (k, v) in fields {
            match v {
                Value::Str(s) => {
                    let _ = write!(line, " {k}={s}");
                }
                Value::F64(x) => {
                    let _ = write!(line, " {k}={x:.3}");
                }
                Value::U64(x) => {
                    let _ = write!(line, " {k}={x}");
                }
                Value::I64(x) => {
                    let _ = write!(line, " {k}={x}");
                }
                Value::Bool(x) => {
                    let _ = write!(line, " {k}={x}");
                }
            }
        }
        eprintln!("{line}");
    }
}

/// Aggregated statistics of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Completed spans under this name.
    pub count: u64,
    /// Total seconds across all completions.
    pub total_s: f64,
    /// Longest single completion, seconds.
    pub max_s: f64,
}

struct Collector {
    epoch: Instant,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanStat>,
    sinks: Vec<Box<dyn EventSink>>,
    event_seq: u64,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            spans: BTreeMap::new(),
            sinks: Vec::new(),
            event_seq: 0,
        }
    }
}

fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> R {
    let mut guard = COLLECTOR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Collector::new))
}

/// `true` while probes record. One `Relaxed` atomic load — this is the
/// complete disabled-path cost of every probe.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the collector on (creating it on first use).
pub fn enable() {
    with_collector(|_| {});
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns probes off and flushes all sinks. Collected data is retained
/// for [`snapshot`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    with_collector(|c| {
        for s in &mut c.sinks {
            s.flush();
        }
    });
}

/// Clears all counters, gauges, spans, installed sinks and the probe-call
/// tally, and restarts the epoch clock. Leaves the enabled flag as-is.
pub fn reset() {
    let mut guard = COLLECTOR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(c) = guard.as_mut() {
        for s in &mut c.sinks {
            s.flush();
        }
    }
    *guard = Some(Collector::new());
    PROBE_CALLS.store(0, Ordering::Relaxed);
}

/// Installs an event sink. Events are fanned out to every installed sink.
pub fn install_sink(sink: Box<dyn EventSink>) {
    with_collector(|c| c.sinks.push(sink));
}

/// Number of probe invocations that reached the enabled slow path since
/// the last [`reset`] — the multiplicand of the bench overhead guard.
#[must_use]
pub fn probe_calls() -> u64 {
    PROBE_CALLS.load(Ordering::Relaxed)
}

#[inline]
fn probe() {
    PROBE_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Adds `delta` to the named monotonic counter.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    probe();
    with_collector(|c| *c.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Sets the named gauge to `value` (last write wins).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    probe();
    with_collector(|c| {
        c.gauges.insert(name.to_string(), value);
    });
}

/// An RAII span timer: created by [`span`], records its elapsed time into
/// the collector on drop.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let dt = start.elapsed().as_secs_f64();
            with_collector(|c| {
                let s = c.spans.entry(self.name.to_string()).or_default();
                s.count += 1;
                s.total_s += dt;
                if dt > s.max_s {
                    s.max_s = dt;
                }
            });
        }
    }
}

/// Starts a span timer; the returned guard records on drop. When the
/// collector is disabled this costs one atomic load and the guard is
/// inert.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None };
    }
    probe();
    Span {
        name,
        start: Some(Instant::now()),
    }
}

/// Emits a structured event to every installed sink. Callers paying a
/// non-trivial cost to *build* fields should guard on [`enabled`] first.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    probe();
    with_collector(|c| {
        let t = c.epoch.elapsed().as_secs_f64();
        let seq = c.event_seq;
        c.event_seq += 1;
        for s in &mut c.sinks {
            s.write_event(t, seq, name, fields);
        }
    });
}

/// An aggregated, schema-versioned snapshot of one run — the payload of
/// `gdo-opt --report-json` and the substrate the bench binaries tally
/// from. Serialize with [`to_json`](RunReport::to_json); all maps are
/// ordered, so the output is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Free-form run metadata (circuit name, configuration, …).
    pub meta: BTreeMap<String, String>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Aggregated span timings.
    pub spans: BTreeMap<String, SpanStat>,
    /// Derived result values merged in by the caller (e.g. `GdoStats`).
    pub summary: BTreeMap<String, f64>,
}

impl RunReport {
    /// Serializes to the versioned JSON schema:
    ///
    /// ```json
    /// {"schema":"gdo-telemetry/1","meta":{…},"counters":{…},
    ///  "gauges":{…},"spans":{"name":{"count":…,"total_s":…,"max_s":…}},
    ///  "summary":{…}}
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema\":");
        write_json_str(&mut out, SCHEMA_VERSION);
        out.push_str(",\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_json_str(&mut out, v);
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_json_f64(&mut out, *v);
        }
        out.push_str("},\"spans\":{");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            let _ = write!(out, ":{{\"count\":{},\"total_s\":", s.count);
            write_json_f64(&mut out, s.total_s);
            out.push_str(",\"max_s\":");
            write_json_f64(&mut out, s.max_s);
            out.push('}');
        }
        out.push_str("},\"summary\":{");
        for (i, (k, v)) in self.summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_json_f64(&mut out, *v);
        }
        out.push_str("}}");
        out
    }
}

/// Snapshots the collector into a [`RunReport`] (counters, gauges, spans;
/// `meta` and `summary` start empty for the caller to fill).
#[must_use]
pub fn snapshot() -> RunReport {
    with_collector(|c| RunReport {
        meta: BTreeMap::new(),
        counters: c.counters.clone(),
        gauges: c.gauges.clone(),
        spans: c.spans.clone(),
        summary: BTreeMap::new(),
    })
}

/// Escapes `s` as a quoted JSON string — the exact escaping the
/// [`RunReport`] serializer and the NDJSON sink use, exported so other
/// hand-rolled JSON writers (the serving protocol) stay byte-compatible.
#[must_use]
pub fn json_escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `Display` for f64 omits the decimal point for integral values;
        // that is still valid JSON, so leave it.
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; tests touching it run under this
    // lock so `cargo test`'s parallel harness cannot interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = exclusive();
        reset();
        ENABLED.store(false, Ordering::Relaxed);
        counter_add("x", 5);
        gauge_set("g", 1.0);
        drop(span("s"));
        event("e", &[]);
        let r = snapshot();
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.spans.is_empty());
        assert_eq!(probe_calls(), 0);
    }

    #[test]
    fn counters_spans_and_gauges_aggregate() {
        let _g = exclusive();
        reset();
        enable();
        counter_add("a.b", 2);
        counter_add("a.b", 3);
        gauge_set("g", 1.5);
        gauge_set("g", 2.5);
        {
            let _s = span("work");
        }
        {
            let _s = span("work");
        }
        disable();
        let r = snapshot();
        assert_eq!(r.counters["a.b"], 5);
        assert_eq!(r.gauges["g"], 2.5);
        assert_eq!(r.spans["work"].count, 2);
        assert!(r.spans["work"].total_s >= r.spans["work"].max_s);
        assert!(probe_calls() >= 6);
        reset();
        assert_eq!(probe_calls(), 0);
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn ndjson_sink_writes_valid_lines() {
        let _g = exclusive();
        reset();
        enable();
        let buf: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        install_sink(Box::new(NdjsonSink::new(Shared(buf.clone()))));
        event(
            "gdo.accept",
            &[
                ("rewrite", "a := b".into()),
                ("ncp", 4u64.into()),
                ("lds", 0.25f64.into()),
                ("weird \"quote\"\n", true.into()),
            ],
        );
        event("gdo.round", &[("n", Value::I64(-3))]);
        disable();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON {line:?}: {e}"));
        }
        assert!(lines[0].contains("\"event\":\"gdo.accept\""));
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        reset();
    }

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let mut r = RunReport::default();
        r.meta.insert("circuit".into(), "C432".into());
        r.counters.insert("funnel.c2.enumerated".into(), 100);
        r.counters.insert("funnel.c2.applied".into(), 3);
        r.gauges.insert("nl.gates".into(), 160.0);
        r.spans.insert(
            "gdo.optimize".into(),
            SpanStat {
                count: 1,
                total_s: 0.5,
                max_s: 0.5,
            },
        );
        r.summary.insert("delay_after".into(), 23.75);
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        json::parse(&a).unwrap();
        assert!(a.starts_with("{\"schema\":\"gdo-telemetry/1\""));
        // Counters keep insertion-independent (sorted) order.
        assert!(a.find("funnel.c2.applied").unwrap() < a.find("funnel.c2.enumerated").unwrap());
    }

    #[test]
    fn json_escaping_round_trips_specials() {
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        assert_eq!(
            json::parse(&out).unwrap().as_str(),
            Some("a\"b\\c\nd\te\u{1}f")
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut r = RunReport::default();
        r.gauges.insert("bad".into(), f64::NAN);
        r.gauges.insert("inf".into(), f64::INFINITY);
        let j = r.to_json();
        json::parse(&j).unwrap();
        assert!(j.contains("\"bad\":null"));
        assert!(j.contains("\"inf\":null"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "null",
            "true",
            "-1.5e-3",
            "[1,2,[]]",
            "{\"a\":{\"b\":[1,\"x\",null]}}",
            "  {}  ",
            "\"\\u00ff\"",
        ] {
            json::parse(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "nul",
            "1.2.3",
            "\"abc",
            "{\"a\":1} x",
            "{'a':1}",
            "01a",
        ] {
            assert!(json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn probes_are_thread_safe() {
        let _g = exclusive();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter_add("mt", 1);
                    }
                });
            }
        });
        disable();
        assert_eq!(snapshot().counters["mt"], 400);
        reset();
    }
}
