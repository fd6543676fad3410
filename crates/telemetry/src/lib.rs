//! Observability for the maxflow-ppuf solver stack: monotonic counters,
//! value histograms, lightweight wall-clock spans, and warnings, behind a
//! [`Recorder`] trait whose default implementation ([`NoopRecorder`]) costs
//! nothing.
//!
//! The crate is dependency-free. Instrumented code reports aggregates at
//! *solve granularity* — a solver counts its iterations in locals and calls
//! the recorder once per solve — so the dynamic dispatch here never sits on
//! a hot inner loop.
//!
//! # Quick tour
//!
//! ```
//! use ppuf_telemetry::{MemoryRecorder, Recorder, Span};
//!
//! let recorder = MemoryRecorder::new();
//! {
//!     let _span = Span::enter(&recorder, "demo.solve");
//!     recorder.counter_add("demo.iterations", 17);
//!     recorder.observe("demo.residual", 1.5e-9);
//! }
//! assert_eq!(recorder.counter("demo.iterations"), 17);
//! assert_eq!(recorder.span_stats("demo.solve").unwrap().count, 1);
//! ```
//!
//! For machine-readable output, [`MemoryRecorder::snapshot`] renders a
//! schema-versioned [`report::Report`].

pub mod events;
pub mod flightrec;
pub mod hist;
pub mod profile;
pub mod prometheus;
pub mod report;
pub mod samples;
pub mod trace;

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use events::{Event, EventLog, DEFAULT_EVENT_CAPACITY};
pub use flightrec::{FlightRecorder, RecordedTrace, DEFAULT_FLIGHT_EVENTS, DEFAULT_FLIGHT_TRACES};
pub use hist::{HistBucket, HistogramSnapshot, LogHistogram, HIST_BUCKET_COUNT, HIST_MIN_VALUE};
pub use profile::{AllocScope, PathId, ProfileStats, Profiler};
pub use report::{profile_to_json, Report, ReportError, SCHEMA_VERSION};
pub use samples::{SampleSeries, SampleSummary};
pub use trace::{
    assemble, next_trace_id, record_interval, record_root_interval, FinishedSpan, SpanContext,
    SpanId, TraceError, TraceId, TraceNode, TracedSpan,
};

/// Default number of traces a [`MemoryRecorder`] retains before evicting
/// the oldest.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Spans retained per trace before further spans are dropped (a runaway
/// instrumentation loop must not balloon the recorder).
const MAX_SPANS_PER_TRACE: usize = 512;

/// Sink for instrumentation events.
///
/// All methods take `&self`; implementations are internally synchronized so
/// one recorder can be shared across solver threads.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &str, delta: u64);

    /// Records one sample of the value distribution `name`.
    fn observe(&self, name: &str, value: f64);

    /// Records one timed interval for the span `name`. Usually called by
    /// [`Span`]'s drop, not directly.
    fn record_span(&self, name: &str, duration: Duration);

    /// Reports a human-readable anomaly (non-convergence, fallback taken).
    fn warn(&self, message: &str);

    /// Whether this recorder retains hierarchical trace spans. When this
    /// returns `false` (the default), [`TracedSpan`] skips id allocation,
    /// attribute formatting, and
    /// [`record_trace_span`](Recorder::record_trace_span) entirely, so the
    /// tracing path stays allocation-free against a disabled recorder.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Retains one completed trace span. Only called for recorders whose
    /// [`trace_enabled`](Recorder::trace_enabled) returns `true`.
    fn record_trace_span(&self, span: FinishedSpan) {
        let _ = span;
    }

    /// Whether [`record_event`](Recorder::record_event) retains anything,
    /// so emitters can skip building payloads nobody will keep.
    fn events_enabled(&self) -> bool {
        false
    }

    /// Appends a structured diagnostic event — a named vector of numbers,
    /// e.g. a Newton residual trajectory — to the recorder's bounded
    /// event log. Discarded by default.
    fn record_event(&self, name: &str, values: &[f64]) {
        let _ = (name, values);
    }

    /// The hierarchical [`Profiler`] attached to this recorder, if any.
    /// Instrumented code uses this to record per-phase call paths
    /// ([`Profiler::record_path`]) without each layer threading its own
    /// profiler handle; the default (`None`) keeps disabled recorders
    /// free of profiling cost.
    fn profiler(&self) -> Option<&Profiler> {
        None
    }

    /// Starts a wall-clock span ended when the guard drops.
    ///
    /// On `&dyn Recorder` use [`Span::enter`] instead; this sugar is only
    /// callable on concrete recorder types.
    fn span<'a>(&'a self, name: &'a str) -> Span<'a>
    where
        Self: Sized,
    {
        Span::enter(self, name)
    }
}

/// Recorder that discards everything. Every method is an empty inline body,
/// so instrumented code paths run at full speed when nobody is listening.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn counter_add(&self, _name: &str, _delta: u64) {}

    #[inline]
    fn observe(&self, _name: &str, _value: f64) {}

    #[inline]
    fn record_span(&self, _name: &str, _duration: Duration) {}

    #[inline]
    fn warn(&self, _message: &str) {}

    #[inline]
    fn trace_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record_trace_span(&self, _span: FinishedSpan) {}

    #[inline]
    fn events_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record_event(&self, _name: &str, _values: &[f64]) {}
}

/// The shared no-op recorder, for APIs that want a `&'static dyn Recorder`
/// default.
pub static NOOP: NoopRecorder = NoopRecorder;

/// RAII wall-clock timer; reports its lifetime to the recorder on drop.
#[must_use = "a span measures until it is dropped; binding it to _ ends it immediately"]
pub struct Span<'a> {
    recorder: &'a dyn Recorder,
    name: &'a str,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing `name` against `recorder`.
    pub fn enter(recorder: &'a dyn Recorder, name: &'a str) -> Self {
        Span { recorder, name, start: Instant::now() }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.recorder.record_span(self.name, self.start.elapsed());
    }
}

/// Count / sum / min / max summary of an observed distribution.
///
/// Enough to answer "how many, how big on average, how bad in the worst
/// case" without storing samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Arithmetic mean of the samples; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

#[derive(Debug, Default)]
struct MemoryState {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Summary>,
    spans: BTreeMap<String, Summary>,
    span_hists: BTreeMap<String, LogHistogram>,
    warnings: Vec<String>,
    samples: BTreeMap<String, SampleSeries>,
    traces: BTreeMap<u64, Vec<FinishedSpan>>,
    trace_order: VecDeque<u64>,
}

/// Recorder that aggregates everything in memory behind a mutex.
///
/// Spans are stored as [`Summary`] distributions of seconds. Read results
/// back with [`counter`](MemoryRecorder::counter),
/// [`histogram`](MemoryRecorder::histogram),
/// [`span_stats`](MemoryRecorder::span_stats), or snapshot the whole state
/// as a [`Report`].
#[derive(Debug)]
pub struct MemoryRecorder {
    state: Mutex<MemoryState>,
    events: EventLog,
    trace_capacity: usize,
    profiler: Option<Arc<Profiler>>,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        MemoryRecorder {
            state: Mutex::default(),
            events: EventLog::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            profiler: None,
        }
    }
}

impl MemoryRecorder {
    /// Creates an empty recorder with default trace/event retention
    /// ([`DEFAULT_TRACE_CAPACITY`], [`DEFAULT_EVENT_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder retaining at most `traces` traces and
    /// `events` events (each clamped to at least 1); older entries are
    /// evicted oldest-first and counted under `telemetry.traces.dropped`
    /// / `telemetry.events.dropped`.
    pub fn with_limits(traces: usize, events: usize) -> Self {
        MemoryRecorder {
            state: Mutex::default(),
            events: EventLog::new(events),
            trace_capacity: traces.max(1),
            profiler: None,
        }
    }

    /// Attaches a hierarchical [`Profiler`]. Once attached, every root
    /// span that finishes feeds its whole subtree into the profiler
    /// ([`Profiler::observe_root`]) — spans finish child-before-parent,
    /// so the subtree is complete when the root arrives — and
    /// [`snapshot`](MemoryRecorder::snapshot) carries the profile
    /// section. Called before the recorder is shared (it takes `&mut`).
    pub fn set_profiler(&mut self, profiler: Arc<Profiler>) {
        self.profiler = Some(profiler);
    }

    /// Current value of a counter; 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Summary of an observed distribution, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<Summary> {
        self.lock().histograms.get(name).copied()
    }

    /// Summary (in seconds) of a span's recorded intervals.
    pub fn span_stats(&self, name: &str) -> Option<Summary> {
        self.lock().spans.get(name).copied()
    }

    /// Bounded log-bucketed histogram of a span's recorded intervals
    /// (seconds), if any interval was recorded. Every
    /// [`record_span`](Recorder::record_span) feeds this alongside the
    /// flat [`Summary`], so percentiles are always available without
    /// retaining raw samples.
    pub fn span_histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().span_hists.get(name).map(LogHistogram::snapshot)
    }

    /// Percentile estimate (`0.0 ≤ q ≤ 1.0`) of a span's recorded
    /// intervals in seconds; `None` when the span never fired.
    pub fn span_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.lock().span_hists.get(name).and_then(|h| h.quantile(q))
    }

    /// All warnings, in the order they were raised.
    pub fn warnings(&self) -> Vec<String> {
        self.lock().warnings.clone()
    }

    /// Merges a raw sample series (e.g. per-solve latencies) into the
    /// series named `name`, so percentiles survive into the [`Report`].
    pub fn record_samples(&self, name: &str, series: &SampleSeries) {
        if series.is_empty() {
            return;
        }
        let mut state = self.lock();
        state.samples.entry(name.to_string()).or_default().merge(series);
    }

    /// Percentile summary of an accumulated sample series, if non-empty.
    pub fn sample_summary(&self, name: &str) -> Option<SampleSummary> {
        self.lock().samples.get(name).and_then(SampleSeries::summary)
    }

    /// All spans recorded under `trace`, in recording order; empty when
    /// the trace is unknown (never seen, or already evicted).
    pub fn trace_spans(&self, trace: TraceId) -> Vec<FinishedSpan> {
        self.lock().traces.get(&trace.get()).cloned().unwrap_or_default()
    }

    /// Ids of the retained traces, oldest first.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.lock().trace_order.iter().filter_map(|id| TraceId::from_raw(*id)).collect()
    }

    /// Assembles the spans of `trace` into a tree; `None` when the trace
    /// is unknown.
    pub fn assemble_trace(&self, trace: TraceId) -> Option<Result<TraceNode, TraceError>> {
        let spans = self.trace_spans(trace);
        if spans.is_empty() {
            None
        } else {
            Some(trace::assemble(&spans))
        }
    }

    /// The retained diagnostic events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.snapshot()
    }

    /// Total events discarded due to event-log overflow.
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Copies the current state into a schema-versioned [`Report`].
    pub fn snapshot(&self, label: &str) -> Report {
        let events = self
            .events
            .snapshot()
            .into_iter()
            .map(|e| report::EventRecord { seq: e.seq, name: e.name, values: e.values })
            .collect();
        let state = self.lock();
        let traces = state
            .trace_order
            .iter()
            .filter_map(|id| state.traces.get(id).map(|spans| (*id, spans)))
            .map(|(id, spans)| (format!("{id:016x}"), trace_records(spans)))
            .collect();
        let mut counters = state.counters.clone();
        let profile = match &self.profiler {
            Some(profiler) => {
                let skew = profiler.skew_clamps();
                if skew > 0 {
                    counters.insert("telemetry.profile.skew_clamps".to_string(), skew);
                }
                profiler.snapshot()
            }
            None => BTreeMap::new(),
        };
        Report {
            schema_version: SCHEMA_VERSION,
            label: label.to_string(),
            counters,
            histograms: state.histograms.clone(),
            spans: state.spans.clone(),
            warnings: state.warnings.clone(),
            samples: state
                .samples
                .iter()
                .filter_map(|(name, series)| series.summary().map(|s| (name.clone(), s)))
                .collect(),
            hists: state
                .span_hists
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            profile,
            events,
            traces,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryState> {
        // a poisoned lock only means another thread panicked mid-update;
        // telemetry should still be readable afterwards
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Renders one trace's spans with timestamps rebased to the trace's
/// earliest span start (instants are process-relative and meaningless in
/// a report).
pub(crate) fn trace_records(spans: &[FinishedSpan]) -> Vec<report::TraceSpanRecord> {
    let origin = spans.iter().map(|s| s.start).min();
    spans
        .iter()
        .map(|s| report::TraceSpanRecord {
            span: s.span.get(),
            parent: s.parent.map(SpanId::get),
            name: s.name.clone(),
            start_s: origin.map_or(0.0, |o| s.start.saturating_duration_since(o).as_secs_f64()),
            duration_s: s.duration.as_secs_f64(),
            attrs: s.attrs.clone(),
        })
        .collect()
}

impl Recorder for MemoryRecorder {
    fn counter_add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut state = self.lock();
        match state.counters.get_mut(name) {
            Some(current) => *current = current.saturating_add(delta),
            None => {
                state.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn observe(&self, name: &str, value: f64) {
        let mut state = self.lock();
        state.histograms.entry(name.to_string()).or_default().record(value);
    }

    fn record_span(&self, name: &str, duration: Duration) {
        let secs = duration.as_secs_f64();
        let mut state = self.lock();
        state.spans.entry(name.to_string()).or_default().record(secs);
        state.span_hists.entry(name.to_string()).or_default().record(secs);
    }

    fn warn(&self, message: &str) {
        let mut state = self.lock();
        state.warnings.push(message.to_string());
    }

    fn trace_enabled(&self) -> bool {
        true
    }

    fn record_trace_span(&self, span: FinishedSpan) {
        let root = span.parent.is_none().then_some(span.span);
        let mut state = self.lock();
        let key = span.trace.get();
        if !state.traces.contains_key(&key) {
            while state.traces.len() >= self.trace_capacity {
                match state.trace_order.pop_front() {
                    Some(oldest) => {
                        state.traces.remove(&oldest);
                        *state
                            .counters
                            .entry("telemetry.traces.dropped".to_string())
                            .or_insert(0) += 1;
                    }
                    None => break,
                }
            }
            state.trace_order.push_back(key);
        }
        let spans = state.traces.entry(key).or_default();
        if spans.len() < MAX_SPANS_PER_TRACE {
            spans.push(span);
        } else {
            *state.counters.entry("telemetry.trace_spans.dropped".to_string()).or_insert(0) += 1;
            return;
        }
        // a root finishing means its subtree is complete (spans always
        // finish child-before-parent), so feed it to the profiler now;
        // traces with several roots (a connection carrying requests)
        // profile each root's subtree as it completes
        if let (Some(root_id), Some(profiler)) = (root, &self.profiler) {
            if let Some(spans) = state.traces.get(&key) {
                if let Some(root_span) = spans.iter().rev().find(|s| s.span == root_id) {
                    profiler.observe_root(root_span, spans);
                }
            }
        }
    }

    fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    fn events_enabled(&self) -> bool {
        true
    }

    fn record_event(&self, name: &str, values: &[f64]) {
        let dropped = self.events.push(name, values);
        // counted after the event lock is released — counter_add takes
        // the state lock and the two must never nest
        if dropped > 0 {
            self.counter_add("telemetry.events.dropped", dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MemoryRecorder::new();
        r.counter_add("x", 3);
        r.counter_add("x", 4);
        r.counter_add("y", 0); // no-op, should not create the key
        assert_eq!(r.counter("x"), 7);
        assert_eq!(r.counter("y"), 0);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn histograms_summarize() {
        let r = MemoryRecorder::new();
        for v in [2.0, -1.0, 5.0] {
            r.observe("resid", v);
        }
        let h = r.histogram("resid").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 5.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert!(r.histogram("other").is_none());
    }

    #[test]
    fn spans_record_on_drop() {
        let r = MemoryRecorder::new();
        {
            let _span = r.span("work");
            std::hint::black_box(0u64);
        }
        {
            let _span = Span::enter(&r as &dyn Recorder, "work");
        }
        let s = r.span_stats("work").unwrap();
        assert_eq!(s.count, 2);
        assert!(s.sum >= 0.0);
    }

    #[test]
    fn warnings_keep_order() {
        let r = MemoryRecorder::new();
        r.warn("first");
        r.warn("second");
        assert_eq!(r.warnings(), vec!["first".to_string(), "second".to_string()]);
    }

    #[test]
    fn noop_is_callable_through_dyn() {
        let r: &dyn Recorder = &NOOP;
        r.counter_add("x", 1);
        r.observe("y", 1.0);
        r.warn("z");
        let _span = Span::enter(r, "s");
    }

    #[test]
    fn poisoned_recorder_keeps_working() {
        // regression: a worker panicking while holding the state lock
        // must not make every later counter_add/snapshot panic too
        let r = MemoryRecorder::new();
        r.counter_add("x", 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = r.lock();
            panic!("worker died mid-update");
        }));
        assert!(panicked.is_err());
        r.counter_add("x", 1);
        r.observe("y", 2.0);
        r.warn("still alive");
        assert_eq!(r.counter("x"), 2);
        let report = r.snapshot("after poison");
        assert_eq!(report.counters.get("x"), Some(&2));
        assert_eq!(report.warnings, vec!["still alive".to_string()]);
    }

    #[test]
    fn trace_storage_evicts_oldest_and_counts_drops() {
        let r = MemoryRecorder::with_limits(2, 4);
        let traces: Vec<TraceId> = (0..3).map(|_| next_trace_id()).collect();
        for &trace in &traces {
            let _root = TracedSpan::root(&r, "request", trace);
        }
        assert_eq!(r.counter("telemetry.traces.dropped"), 1);
        assert!(r.trace_spans(traces[0]).is_empty(), "oldest trace should be evicted");
        assert_eq!(r.trace_spans(traces[1]).len(), 1);
        assert_eq!(r.trace_spans(traces[2]).len(), 1);
        assert_eq!(r.trace_ids(), vec![traces[1], traces[2]]);
    }

    #[test]
    fn events_flow_through_the_recorder_trait() {
        let r = MemoryRecorder::with_limits(4, 2);
        let dynr: &dyn Recorder = &r;
        assert!(dynr.events_enabled());
        dynr.record_event("a", &[1.0]);
        dynr.record_event("b", &[2.0]);
        dynr.record_event("c", &[3.0]);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events_dropped(), 1);
        assert_eq!(r.counter("telemetry.events.dropped"), 1);
        // the noop recorder ignores events entirely
        assert!(!NOOP.events_enabled());
        NOOP.record_event("ignored", &[1.0]);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = MemoryRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        r.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits"), 400);
    }
}
