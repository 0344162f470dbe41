//! Structured tracing for the SCAR reproduction.
//!
//! Two views of one span stream, one handle:
//!
//! * **Spans** — [`Telemetry::span`] opens an RAII guard; dropping it
//!   records a wall-clock interval. Spans carry `&'static str` names from
//!   a fixed taxonomy (see [`phase_of`]) plus optional key/value args
//!   ([`SpanGuard::arg`]), and serialize to Chrome `trace_event` JSON
//!   ([`Telemetry::trace_json`]) loadable in Perfetto/chrome://tracing.
//!   Complete spans (`"ph": "X"`) are the only timeline events.
//! * **Phase wall-time** — every recorded span also accumulates into a
//!   per-name `(count, total wall)` table; [`Telemetry::phase_wall`]
//!   aggregates it by phase category for the per-phase attribution the
//!   bins print and `perfbench` reads its `trace.*` rows from.
//!
//! Counts of what the serving loop did (rounds, cache hits, admissions,
//! cost evaluations) are not telemetry: they live in the deterministic
//! reports (`ServeReport`, `FleetReport`), which are byte-compared.
//!
//! # Zero cost when disabled
//!
//! [`Telemetry`] is a cheap clonable handle: `Option<Arc<shared state>>`.
//! [`Telemetry::disabled`] is the `None` handle — every operation on it
//! returns immediately without reading the clock, taking a lock, or
//! allocating (span args are only *converted* into owned values when a
//! sink is attached). The handle is passed explicitly — no thread-locals,
//! no global mutable state — and a span only reads the clock and appends
//! to the sink, so instrumentation cannot perturb the Serial-vs-`Fixed(N)`
//! determinism contract. The search records on its coordinating thread,
//! never inside `par_map_chunks` evaluation workers; a fleet serves its
//! replicas on several threads into one sink. Each span therefore keeps
//! the index of the thread that recorded it (its `tid` in the timeline:
//! threads numbered in the order of their first recorded span), so spans
//! that overlap in time sit on separate tracks and every track nests.
//!
//! # Example
//!
//! ```
//! use scar_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled(true, true);
//! {
//!     let mut g = tel.span("search.generation").arg("window", 0u64);
//!     g.push_arg("candidates", 42u64);
//! } // guard drop records the span
//! assert_eq!(tel.spans_recorded(), 1);
//! assert_eq!(tel.span_wall("search.generation").unwrap().count, 1);
//! assert!(tel.trace_json().unwrap().contains("search.generation"));
//!
//! let off = Telemetry::disabled();
//! let _g = off.span("search.generation"); // no clock read, no alloc
//! assert_eq!(off.spans_recorded(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// The phase category a span name attributes its wall time to, `None` for
/// structural (parent) spans that must not be double-counted.
///
/// This is the span taxonomy (DESIGN.md §10): leaf spans tile the serving
/// and search hot paths and map onto five phases; parent spans
/// (`serve.run`, `serve.schedule`, `schedule.run`) provide nesting context
/// in the timeline but carry no attribution of their own.
pub fn phase_of(span: &str) -> Option<&'static str> {
    match span {
        // candidate generation: window partitioning, chiplet provisioning,
        // the RNG-driven candidate sources, and the placement-tree walk
        // (`search.placements` nests inside `search.generation`; the
        // trace analyzer unions intervals per phase, so the nesting never
        // double-counts coverage)
        "search.generation" | "search.placements" | "schedule.partition" | "schedule.provision" => {
            Some("generation")
        }
        // cost-model work: expected-cost precompute, batch evaluation,
        // seeded re-evaluation, final instance evaluation
        "search.evaluation" | "schedule.costs" | "schedule.finalize" | "schedule.seeded" => {
            Some("evaluation")
        }
        // mid-window preemption: cut-point selection and remainder resplice
        "serve.splice" | "serve.splice.scan" => Some("splice"),
        // schedule-cache probe and store
        "serve.cache.probe" | "serve.cache.store" => Some("cache"),
        // admission-control decisions and the cost-DB feasibility probe
        "serve.admission" | "serve.admission.probe" => Some("admission"),
        _ => None,
    }
}

/// The five phase categories serving traces attribute wall time to.
pub const PHASES: [&str; 5] = ["generation", "evaluation", "splice", "cache", "admission"];

/// An argument value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Text(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        Self::U64(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        Self::Text(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        Self::Text(v)
    }
}

impl ArgValue {
    fn to_value(&self) -> Value {
        match self {
            Self::U64(v) => Value::UInt(*v),
            Self::I64(v) => Value::Int(*v),
            Self::F64(v) => Value::Float(*v),
            Self::Bool(v) => Value::Bool(*v),
            Self::Text(v) => Value::Str(v.clone()),
        }
    }
}

/// One recorded complete span (Chrome `"ph": "X"`).
#[derive(Debug, Clone)]
struct SpanEvent {
    name: &'static str,
    /// Start, microseconds since the sink's epoch.
    ts_us: f64,
    /// Duration, microseconds.
    dur_us: f64,
    /// Index of the recording thread (see [`State::threads`]).
    tid: usize,
    args: Vec<(&'static str, ArgValue)>,
}

/// Wall-time accumulator of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanWall {
    /// Spans recorded under this name.
    pub count: u64,
    /// Total wall time across them, seconds.
    pub total_s: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanEvent>,
    /// Per span-name wall accumulation (kept even when the trace buffer
    /// is off, so walls-only runs still get phase attribution).
    wall: BTreeMap<&'static str, SpanWall>,
    /// The threads that recorded a span into the timeline, in the order
    /// of their first one; a span's `tid` is its thread's index here.
    threads: Vec<ThreadId>,
}

struct Inner {
    /// Record the trace-event buffer (timeline export).
    trace: bool,
    epoch: Instant,
    state: Mutex<State>,
    spans_recorded: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        // a panic while holding the lock poisons it; telemetry must never
        // turn that into a second panic
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The telemetry handle: a cheap clonable sink reference, or `None` for
/// the zero-cost disabled handle. See the crate docs.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Telemetry(disabled)"),
            Some(i) => f
                .debug_struct("Telemetry")
                .field("trace", &i.trace)
                .field("spans_recorded", &i.spans_recorded.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl Telemetry {
    /// The disabled handle: every operation is a no-op — no clock read,
    /// no lock, no allocation.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A live sink. Every live sink keeps the per-name wall table;
    /// `trace` also records the trace-event timeline, and `walls` asks
    /// for a sink even when `trace` is off. Both `false` degrades to
    /// [`Telemetry::disabled`].
    pub fn enabled(trace: bool, walls: bool) -> Self {
        if !trace && !walls {
            return Self::disabled();
        }
        Self(Some(Arc::new(Inner {
            trace,
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
            spans_recorded: AtomicU64::new(0),
        })))
    }

    /// Whether any sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the trace-event timeline is recording.
    pub fn trace_enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|i| i.trace)
    }

    /// Opens a span guard; dropping it records the interval. On the
    /// disabled handle this is free (no clock read).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            rec: self.0.as_deref().map(|inner| SpanRec {
                inner,
                name,
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    /// Spans recorded so far (0 on the disabled handle — the no-op
    /// assertion the neutrality tests use).
    pub fn spans_recorded(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.spans_recorded.load(Ordering::Relaxed))
    }

    /// The wall accumulator of one span name (`None` when never
    /// recorded).
    pub fn span_wall(&self, name: &str) -> Option<SpanWall> {
        self.0.as_ref()?.lock().wall.get(name).copied()
    }

    /// Per-phase wall-time attribution: the [`phase_of`] categories in
    /// [`PHASES`] order, each with the summed `(count, total_s)` of its
    /// member span names. Phases never recorded report zeros.
    pub fn phase_wall(&self) -> Vec<(&'static str, SpanWall)> {
        let mut out: Vec<(&'static str, SpanWall)> =
            PHASES.iter().map(|p| (*p, SpanWall::default())).collect();
        if let Some(inner) = self.0.as_deref() {
            for (name, w) in inner.lock().wall.iter() {
                if let Some(phase) = phase_of(name) {
                    let slot = out
                        .iter_mut()
                        .find(|(p, _)| *p == phase)
                        .expect("phase_of only returns PHASES members");
                    slot.1.count += w.count;
                    slot.1.total_s += w.total_s;
                }
            }
        }
        out
    }

    /// A one-line human summary of [`Telemetry::phase_wall`] for the bins'
    /// stdout (wall times are nondeterministic, so this never goes into a
    /// byte-compared report file). `None` on the disabled handle.
    pub fn wall_summary(&self) -> Option<String> {
        self.0.as_ref()?;
        let parts: Vec<String> = self
            .phase_wall()
            .iter()
            .map(|(p, w)| format!("{p} {:.1} ms ({} spans)", w.total_s * 1e3, w.count))
            .collect();
        Some(format!("phase wall: {}", parts.join(" | ")))
    }

    /// The recorded timeline as Chrome `trace_event` JSON (the object
    /// form: `{"traceEvents": [...]}`), loadable in Perfetto and
    /// chrome://tracing. `None` unless tracing is enabled.
    pub fn trace_json(&self) -> Option<String> {
        let inner = self.0.as_deref()?;
        if !inner.trace {
            return None;
        }
        let state = inner.lock();
        let mut events: Vec<Value> = state
            .spans
            .iter()
            .map(|s| trace_event(s.name, s.ts_us, s.dur_us, s.tid, &s.args))
            .collect();
        // Perfetto sorts by ts itself, but a sorted file diffs better
        events.sort_by(|a, b| {
            let ts = |v: &Value| v.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
            ts(a).total_cmp(&ts(b))
        });
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        Some(serde::write_compact(&doc))
    }

    /// Writes [`Telemetry::trace_json`] to `path`. Returns `false`
    /// (writing nothing) when tracing is disabled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<bool> {
        match self.trace_json() {
            Some(json) => {
                std::fs::write(path, json)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

/// One complete span as a Chrome `trace_event` object.
fn trace_event(
    name: &str,
    ts_us: f64,
    dur_us: f64,
    tid: usize,
    args: &[(&'static str, ArgValue)],
) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        (
            "cat".to_string(),
            Value::Str(phase_of(name).unwrap_or("span").to_string()),
        ),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::Float(ts_us)),
        ("dur".to_string(), Value::Float(dur_us)),
    ];
    fields.push(("pid".to_string(), Value::UInt(1)));
    fields.push(("tid".to_string(), Value::UInt(tid as u64)));
    if !args.is_empty() {
        fields.push((
            "args".to_string(),
            Value::Object(
                args.iter()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        ));
    }
    Value::Object(fields)
}

struct SpanRec<'a> {
    inner: &'a Inner,
    name: &'static str,
    start: Instant,
    args: Vec<(&'static str, ArgValue)>,
}

/// An open span: records its interval when dropped. Obtained from
/// [`Telemetry::span`]; on the disabled handle every method is a no-op
/// and the drop is free.
pub struct SpanGuard<'a> {
    rec: Option<SpanRec<'a>>,
}

impl SpanGuard<'_> {
    /// Attaches an argument (builder style). The value is only converted
    /// (and thus only possibly allocated) when a sink is attached.
    #[must_use]
    pub fn arg<V: Into<ArgValue>>(mut self, key: &'static str, value: V) -> Self {
        self.push_arg(key, value);
        self
    }

    /// Attaches an argument when `value` is `Some` (builder style).
    #[must_use]
    pub fn arg_opt<V: Into<ArgValue>>(mut self, key: &'static str, value: Option<V>) -> Self {
        if let Some(v) = value {
            self.push_arg(key, v);
        }
        self
    }

    /// Attaches an argument to an already-open span (for values only
    /// known mid-span, e.g. a batch size).
    pub fn push_arg<V: Into<ArgValue>>(&mut self, key: &'static str, value: V) {
        if let Some(rec) = &mut self.rec {
            rec.args.push((key, value.into()));
        }
    }

    /// Whether this guard records anywhere.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let dur = rec.start.elapsed();
        let ts_us = (rec.start - rec.inner.epoch).as_secs_f64() * 1e6;
        rec.inner.spans_recorded.fetch_add(1, Ordering::Relaxed);
        let mut state = rec.inner.lock();
        {
            let w = state.wall.entry(rec.name).or_default();
            w.count += 1;
            w.total_s += dur.as_secs_f64();
        }
        if rec.inner.trace {
            let me = std::thread::current().id();
            let tid = match state.threads.iter().position(|&t| t == me) {
                Some(tid) => tid,
                None => {
                    state.threads.push(me);
                    state.threads.len() - 1
                }
            };
            state.spans.push(SpanEvent {
                name: rec.name,
                ts_us,
                dur_us: dur.as_secs_f64() * 1e6,
                tid,
                args: rec.args,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Trace analysis (shared by the `trace_check` CI gate and the tests)
// ---------------------------------------------------------------------------

/// The analysis of one Chrome trace_event document: root wall time, phase
/// attribution, and interval-union coverage. Built by [`analyze_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Complete (`"ph": "X"`) events in the document.
    pub complete_events: usize,
    /// Root spans found (e.g. one `serve.run` per simulation run).
    pub roots: usize,
    /// Total root wall time, microseconds (union of root intervals).
    pub root_total_us: f64,
    /// Phase-attributed wall time inside the roots, microseconds (union
    /// of categorized intervals clipped to the root union — nested or
    /// overlapping spans are never double-counted).
    pub covered_us: f64,
    /// Raw per-phase duration sums, microseconds, in [`PHASES`] order.
    pub phase_us: Vec<(&'static str, f64)>,
}

impl TraceAnalysis {
    /// Fraction of root wall time attributed to named phases (0 when the
    /// trace has no roots).
    pub fn coverage(&self) -> f64 {
        if self.root_total_us <= 0.0 {
            0.0
        } else {
            self.covered_us / self.root_total_us
        }
    }

    /// The phases (of [`PHASES`]) with no recorded span at all.
    pub fn missing_phases(&self) -> Vec<&'static str> {
        self.phase_us
            .iter()
            .filter(|(_, us)| *us <= 0.0)
            .map(|(p, _)| *p)
            .collect()
    }
}

/// Merges possibly-overlapping `[start, end)` intervals and returns their
/// total length.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Clips `iv` to the union of `roots` (both `[start, end)`).
fn clip_to(iv: &[(f64, f64)], roots: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &(s, e) in iv {
        for &(rs, re) in roots {
            let cs = s.max(rs);
            let ce = e.min(re);
            if ce > cs {
                out.push((cs, ce));
            }
        }
    }
    out
}

/// Parses and validates a Chrome trace_event document (as produced by
/// [`Telemetry::trace_json`]): `root_name` spans define the measured wall
/// time; spans categorized by [`phase_of`] attribute it.
///
/// # Errors
///
/// A message describing the structural problem: not an object, missing
/// `traceEvents`, an event without `name`/`ph`/`ts`, or no root span.
pub fn analyze_trace(doc: &Value, root_name: &str) -> Result<TraceAnalysis, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("no traceEvents key (not a Chrome trace_event object)")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut roots: Vec<(f64, f64)> = Vec::new();
    let mut categorized: Vec<(f64, f64)> = Vec::new();
    let mut phase_us: Vec<(&'static str, f64)> = PHASES.iter().map(|p| (*p, 0.0)).collect();
    let mut complete_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} ({name}) has no ph"))?;
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i} ({name}) has no ts"))?;
        if ph != "X" {
            continue;
        }
        complete_events += 1;
        let dur = ev
            .get("dur")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("complete event {i} ({name}) has no dur"))?;
        let iv = (ts, ts + dur);
        if name == root_name {
            roots.push(iv);
        }
        if let Some(phase) = phase_of(name) {
            categorized.push(iv);
            let slot = phase_us
                .iter_mut()
                .find(|(p, _)| *p == phase)
                .expect("phase_of only returns PHASES members");
            slot.1 += dur;
        }
    }
    if roots.is_empty() {
        return Err(format!("no {root_name:?} root span in the trace"));
    }
    let clipped = clip_to(&categorized, &roots);
    Ok(TraceAnalysis {
        complete_events,
        roots: roots.len(),
        root_total_us: union_len(roots),
        covered_us: union_len(clipped),
        phase_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        {
            let mut g = tel.span("search.generation").arg("window", 3u64);
            g.push_arg("candidates", 9u64);
            assert!(!g.is_recording());
        }
        assert_eq!(tel.spans_recorded(), 0);
        assert!(tel.trace_json().is_none());
        assert!(tel.wall_summary().is_none());
    }

    #[test]
    fn spans_record_wall_and_trace() {
        let tel = Telemetry::enabled(true, true);
        {
            let _g = tel.span("search.evaluation").arg("batch", 4u64);
        }
        {
            let _g = tel.span("serve.run");
        }
        assert_eq!(tel.spans_recorded(), 2);
        let w = tel.span_wall("search.evaluation").unwrap();
        assert_eq!(w.count, 1);
        assert!(w.total_s >= 0.0);
        let json = tel.trace_json().unwrap();
        let doc = serde::parse_value(&json).expect("trace JSON parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert!(json.contains("\"cat\":\"evaluation\""));
        // the evaluation phase absorbed the span's wall time
        let eval = tel
            .phase_wall()
            .into_iter()
            .find(|(p, _)| *p == "evaluation")
            .unwrap()
            .1;
        assert_eq!(eval.count, 1);
    }

    /// Threads are numbered in the order of their first recorded span,
    /// and each span carries its thread's number as its `tid`.
    #[test]
    fn spans_carry_the_index_of_their_recording_thread() {
        let tel = Telemetry::enabled(true, false);
        {
            let _g = tel.span("fleet.dispatch");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = tel.span("fleet.replica");
            });
        });
        {
            let _g = tel.span("fleet.run");
        }
        let doc = serde::parse_value(&tel.trace_json().unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("tid").and_then(Value::as_f64))
                .unwrap()
        };
        assert_eq!(tid_of("fleet.dispatch"), 0.0);
        assert_eq!(tid_of("fleet.replica"), 1.0);
        assert_eq!(tid_of("fleet.run"), 0.0);
    }

    /// The taxonomy stays closed: every name `phase_of` categorizes is
    /// one of the five `PHASES`.
    #[test]
    fn phase_taxonomy_is_closed() {
        for name in [
            "search.generation",
            "search.placements",
            "search.evaluation",
            "schedule.partition",
            "schedule.provision",
            "schedule.costs",
            "schedule.finalize",
            "schedule.seeded",
            "serve.splice",
            "serve.splice.scan",
            "serve.cache.probe",
            "serve.cache.store",
            "serve.admission",
            "serve.admission.probe",
        ] {
            let phase = phase_of(name).expect("taxonomy member");
            assert!(PHASES.contains(&phase), "{name} -> {phase}");
        }
        assert_eq!(phase_of("serve.run"), None, "roots carry no attribution");
        assert_eq!(phase_of("serve.schedule"), None);
    }

    #[test]
    fn interval_union_handles_overlap_and_nesting() {
        assert_eq!(union_len(vec![(0.0, 10.0), (2.0, 5.0)]), 10.0);
        assert_eq!(union_len(vec![(0.0, 4.0), (6.0, 8.0)]), 6.0);
        assert_eq!(union_len(vec![(0.0, 4.0), (4.0, 8.0)]), 8.0);
        assert_eq!(union_len(vec![]), 0.0);
        let clipped = clip_to(&[(0.0, 10.0)], &[(2.0, 4.0), (6.0, 7.0)]);
        assert_eq!(union_len(clipped), 3.0);
    }

    #[test]
    fn analyze_trace_computes_coverage() {
        // synthetic: one 100 µs root, generation 0-40, evaluation 40-90,
        // a nested (double-counted if naive) evaluation 50-60
        let mk = |name: &str, ts: f64, dur: f64| trace_event(name, ts, dur, 0, &[]);
        let doc = Value::Object(vec![(
            "traceEvents".to_string(),
            Value::Array(vec![
                mk("serve.run", 0.0, 100.0),
                mk("search.generation", 0.0, 40.0),
                mk("search.evaluation", 40.0, 50.0),
                mk("search.evaluation", 50.0, 10.0),
                mk("outside.the.root", 200.0, 50.0),
            ]),
        )]);
        let a = analyze_trace(&doc, "serve.run").unwrap();
        assert_eq!(a.roots, 1);
        assert_eq!(a.complete_events, 5);
        assert!((a.root_total_us - 100.0).abs() < 1e-9);
        assert!(
            (a.covered_us - 90.0).abs() < 1e-9,
            "nested span not double-counted"
        );
        assert!((a.coverage() - 0.9).abs() < 1e-9);
        let missing = a.missing_phases();
        assert!(missing.contains(&"splice") && missing.contains(&"cache"));
        assert!(analyze_trace(&doc, "no.such.root").is_err());
    }

    /// An end-to-end micro check: a recorded trace round-trips through
    /// the JSON writer and the analyzer.
    #[test]
    fn recorded_trace_analyzes() {
        let tel = Telemetry::enabled(true, false);
        {
            let _root = tel.span("serve.run");
            let _g = tel.span("search.evaluation");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let doc = serde::parse_value(&tel.trace_json().unwrap()).unwrap();
        let a = analyze_trace(&doc, "serve.run").unwrap();
        assert_eq!(a.roots, 1);
        assert!(a.root_total_us > 0.0);
        assert!(a.coverage() > 0.5, "the sleep dominates: {}", a.coverage());
    }
}
