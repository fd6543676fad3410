//! Hierarchical trace spans: request-scoped span trees on top of the flat
//! [`Recorder`] aggregates.
//!
//! A *trace* is the set of spans produced while serving one request; every
//! span carries the request's [`TraceId`], its own [`SpanId`], an optional
//! parent span, and free-form key=value attributes. The serving stack opens
//! a root span per wire request and hangs queue-wait, cache-probe, and
//! verify child spans under it, so the latency of a single verification can
//! be attributed to its stages instead of drowning in per-name summaries.
//!
//! Everything here is gated on [`Recorder::trace_enabled`]: against a
//! recorder that reports tracing disabled (the
//! [`NoopRecorder`](crate::NoopRecorder) default), a [`TracedSpan`] never
//! allocates and never calls back into the recorder beyond the flat
//! [`record_span`](crate::Recorder::record_span) aggregate, so instrumented
//! paths stay free when nobody is listening.
//!
//! ```
//! use ppuf_telemetry::{next_trace_id, MemoryRecorder, Recorder, TracedSpan};
//!
//! let recorder = MemoryRecorder::new();
//! let trace = next_trace_id();
//! {
//!     let root = TracedSpan::root(&recorder, "request", trace);
//!     let _child = root.child("verify");
//! }
//! let tree = recorder.assemble_trace(trace).unwrap().unwrap();
//! assert_eq!(tree.span.name, "request");
//! assert_eq!(tree.children.len(), 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::Recorder;

/// Identifier shared by every span recorded while serving one request.
///
/// Ids are never zero, so `0` is free to mean "absent" on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw non-zero identifier.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Wraps a wire-carried identifier; `None` for the reserved value 0.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one span within a trace (non-zero, process-unique).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw non-zero identifier.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Wraps a wire-carried identifier; `None` for the reserved value 0.
    pub fn from_raw(raw: u64) -> Option<SpanId> {
        (raw != 0).then_some(SpanId(raw))
    }
}

/// The (trace, span) pair a child span needs to attach itself under a
/// parent — e.g. carried inside a queued job to a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// The request's trace.
    pub trace: TraceId,
    /// The span to parent under.
    pub span: SpanId,
}

/// Monotone source for trace/span ids: an atomic counter whitened through
/// splitmix64 so concurrently-issued ids do not look sequential on the
/// wire. Deterministic given the allocation order; never produces 0.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fresh_id() -> u64 {
    let raw = splitmix64(NEXT_ID.fetch_add(1, Ordering::Relaxed));
    raw.max(1)
}

/// Allocates a fresh [`TraceId`] (lock- and allocation-free).
pub fn next_trace_id() -> TraceId {
    TraceId(fresh_id())
}

/// One completed span, as handed to
/// [`Recorder::record_trace_span`].
#[derive(Clone, Debug, PartialEq)]
pub struct FinishedSpan {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The parent span, if this is not the trace root.
    pub parent: Option<SpanId>,
    /// The span name (e.g. `server.verify`).
    pub name: String,
    /// When the span started.
    pub start: Instant,
    /// How long the span lasted.
    pub duration: Duration,
    /// Key=value attributes, in the order attached.
    pub attrs: Vec<(String, String)>,
}

/// RAII guard for one trace span.
///
/// On drop it always reports the flat `record_span` aggregate (same
/// behaviour as [`Span`](crate::Span)); when the recorder has tracing
/// enabled it additionally reports a [`FinishedSpan`] with its trace
/// lineage. Attributes attached while tracing is disabled are discarded
/// without allocating.
#[must_use = "a span measures until it is dropped; binding it to _ ends it immediately"]
pub struct TracedSpan<'a> {
    recorder: &'a dyn Recorder,
    name: &'a str,
    ctx: Option<SpanContext>,
    parent: Option<SpanId>,
    start: Instant,
    attrs: Vec<(String, String)>,
}

impl<'a> TracedSpan<'a> {
    /// Opens the root span of trace `trace`.
    pub fn root(recorder: &'a dyn Recorder, name: &'a str, trace: TraceId) -> Self {
        Self::root_at(recorder, name, trace, Instant::now())
    }

    /// Opens the root span of trace `trace` as if it had started at
    /// `start` — for work whose clock started before the thread running
    /// it picked it up (e.g. a request timed from when it was queued).
    pub fn root_at(
        recorder: &'a dyn Recorder,
        name: &'a str,
        trace: TraceId,
        start: Instant,
    ) -> Self {
        let ctx = recorder.trace_enabled().then(|| SpanContext { trace, span: SpanId(fresh_id()) });
        TracedSpan { recorder, name, ctx, parent: None, start, attrs: Vec::new() }
    }

    /// Opens a child span of `self` against the same recorder.
    pub fn child(&self, name: &'a str) -> TracedSpan<'a> {
        TracedSpan {
            recorder: self.recorder,
            name,
            ctx: self
                .ctx
                .map(|parent| SpanContext { trace: parent.trace, span: SpanId(fresh_id()) }),
            parent: self.ctx.map(|parent| parent.span),
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Opens a child span under an explicitly-carried parent context —
    /// the cross-thread form of [`child`](Self::child) (e.g. a worker
    /// continuing a trace started on a connection thread). A `None`
    /// parent records only the flat aggregate.
    pub fn child_of(
        recorder: &'a dyn Recorder,
        name: &'a str,
        parent: Option<SpanContext>,
    ) -> TracedSpan<'a> {
        let parent = parent.filter(|_| recorder.trace_enabled());
        TracedSpan {
            recorder,
            name,
            ctx: parent.map(|p| SpanContext { trace: p.trace, span: SpanId(fresh_id()) }),
            parent: parent.map(|p| p.span),
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// This span's context, for parenting work handed to another thread.
    /// `None` when the recorder has tracing disabled.
    pub fn context(&self) -> Option<SpanContext> {
        self.ctx
    }

    /// Attaches a key=value attribute. Free (no formatting, no
    /// allocation) when tracing is disabled.
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        if self.ctx.is_some() {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for TracedSpan<'_> {
    fn drop(&mut self) {
        let duration = self.start.elapsed();
        self.recorder.record_span(self.name, duration);
        if let Some(ctx) = self.ctx {
            self.recorder.record_trace_span(FinishedSpan {
                trace: ctx.trace,
                span: ctx.span,
                parent: self.parent,
                name: self.name.to_string(),
                start: self.start,
                duration,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

/// Records an already-elapsed interval as a span under `parent` — for
/// durations measured with explicit timestamps rather than a live guard
/// (e.g. queue wait: enqueue happens on one thread, dequeue on another).
///
/// The flat `record_span` aggregate is always reported; the trace span
/// only when the recorder has tracing enabled and a parent is supplied.
pub fn record_interval(
    recorder: &dyn Recorder,
    parent: Option<SpanContext>,
    name: &str,
    start: Instant,
    end: Instant,
) {
    let duration = end.saturating_duration_since(start);
    recorder.record_span(name, duration);
    if let Some(parent) = parent.filter(|_| recorder.trace_enabled()) {
        recorder.record_trace_span(FinishedSpan {
            trace: parent.trace,
            span: SpanId(fresh_id()),
            parent: Some(parent.span),
            name: name.to_string(),
            start,
            duration,
            attrs: Vec::new(),
        });
    }
}

/// Records an already-elapsed interval as the **root** span of `trace` —
/// for long-lived resources whose lifetime is measured with explicit
/// timestamps rather than a live RAII guard (e.g. a network connection
/// closed by an event loop long after it was opened). The requests the
/// resource carried, having run as roots of the same trace, assemble
/// into the same trace tree.
///
/// The flat `record_span` aggregate is always reported; the trace span
/// only when the recorder has tracing enabled.
pub fn record_root_interval(
    recorder: &dyn Recorder,
    trace: TraceId,
    name: &str,
    start: Instant,
    end: Instant,
    attrs: Vec<(String, String)>,
) {
    let duration = end.saturating_duration_since(start);
    recorder.record_span(name, duration);
    if recorder.trace_enabled() {
        recorder.record_trace_span(FinishedSpan {
            trace,
            span: SpanId(fresh_id()),
            parent: None,
            name: name.to_string(),
            start,
            duration,
            attrs,
        });
    }
}

/// One node of an assembled trace tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceNode {
    /// The span at this node.
    pub span: FinishedSpan,
    /// Spans that named this one as their parent, in recording order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Whether any span in the tree has this exact name.
    pub fn contains(&self, name: &str) -> bool {
        self.span.name == name || self.children.iter().any(|c| c.contains(name))
    }

    /// Total spans in the tree.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(TraceNode::span_count).sum::<usize>()
    }

    /// Whether every child's duration fits inside its parent's
    /// (recursively) — the containment invariant nested RAII spans
    /// guarantee by construction.
    pub fn durations_contained(&self) -> bool {
        self.children
            .iter()
            .all(|c| c.span.duration <= self.span.duration && c.durations_contained())
    }
}

/// Why a span set did not assemble into a single rooted tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// No spans were recorded.
    Empty,
    /// No span without a parent.
    NoRoot,
    /// More than one parentless span.
    MultipleRoots(usize),
    /// A span (by name) referenced a parent id that was never recorded.
    OrphanSpan(String),
    /// Two spans shared one id.
    DuplicateSpanId,
    /// Spans from more than one trace were mixed together.
    MixedTraces,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "no spans to assemble"),
            TraceError::NoRoot => write!(f, "no root span (every span has a parent)"),
            TraceError::MultipleRoots(n) => write!(f, "{n} parentless spans (expected 1)"),
            TraceError::OrphanSpan(name) => {
                write!(f, "span {name:?} references a parent that was never recorded")
            }
            TraceError::DuplicateSpanId => write!(f, "two spans share one span id"),
            TraceError::MixedTraces => write!(f, "spans from different traces mixed together"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Reassembles recorded spans into the single rooted tree of their trace.
///
/// # Errors
///
/// Returns a [`TraceError`] when the spans do not form exactly one tree:
/// empty input, zero or multiple roots, an orphaned parent reference,
/// duplicate span ids, or spans from different traces.
pub fn assemble(spans: &[FinishedSpan]) -> Result<TraceNode, TraceError> {
    if spans.is_empty() {
        return Err(TraceError::Empty);
    }
    let trace = spans[0].trace;
    if spans.iter().any(|s| s.trace != trace) {
        return Err(TraceError::MixedTraces);
    }
    let mut ids: Vec<SpanId> = spans.iter().map(|s| s.span).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(TraceError::DuplicateSpanId);
    }
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    match roots {
        0 => return Err(TraceError::NoRoot),
        1 => {}
        n => return Err(TraceError::MultipleRoots(n)),
    }
    for span in spans {
        if let Some(parent) = span.parent {
            if ids.binary_search(&parent).is_err() {
                return Err(TraceError::OrphanSpan(span.name.clone()));
            }
        }
    }
    let root = spans.iter().find(|s| s.parent.is_none()).expect("counted above");
    Ok(build_node(root, spans))
}

fn build_node(span: &FinishedSpan, spans: &[FinishedSpan]) -> TraceNode {
    let children = spans
        .iter()
        .filter(|s| s.parent == Some(span.span))
        .map(|s| build_node(s, spans))
        .collect();
    TraceNode { span: span.clone(), children }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, NoopRecorder};

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id.get(), 0);
            assert!(seen.insert(id.get()), "duplicate trace id {id}");
        }
        assert_eq!(TraceId::from_raw(0), None);
        assert_eq!(TraceId::from_raw(7).map(TraceId::get), Some(7));
    }

    #[test]
    fn nested_spans_assemble_into_one_tree() {
        let recorder = MemoryRecorder::new();
        let trace = next_trace_id();
        {
            let mut root = TracedSpan::root(&recorder, "request", trace);
            root.attr("kind", "SubmitAnswer");
            {
                let verify = root.child("verify");
                let _probe = verify.child("cache_probe");
            }
            let _other = root.child("respond");
        }
        let spans = recorder.trace_spans(trace);
        let tree = assemble(&spans).expect("spans form one tree");
        assert_eq!(tree.span.name, "request");
        assert_eq!(tree.span.attrs, vec![("kind".to_string(), "SubmitAnswer".to_string())]);
        assert_eq!(tree.span_count(), 4);
        assert!(tree.contains("cache_probe"));
        assert!(tree.durations_contained());
    }

    #[test]
    fn cross_thread_child_and_interval_attach_to_the_root() {
        let recorder = MemoryRecorder::new();
        let trace = next_trace_id();
        let t0 = Instant::now();
        {
            let root = TracedSpan::root(&recorder, "request", trace);
            let ctx = root.context();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    record_interval(&recorder, ctx, "queue_wait", t0, Instant::now());
                    let _worker = TracedSpan::child_of(&recorder, "verify", ctx);
                });
            });
        }
        let tree = assemble(&recorder.trace_spans(trace)).unwrap();
        assert!(tree.contains("queue_wait"));
        assert!(tree.contains("verify"));
        assert_eq!(tree.children.len(), 2);
    }

    #[test]
    fn disabled_recorder_produces_no_trace_spans_but_flat_aggregates() {
        let noop = NoopRecorder;
        let trace = next_trace_id();
        let mut root = TracedSpan::root(&noop, "request", trace);
        root.attr("ignored", 1);
        assert_eq!(root.context(), None);
        let child = root.child("verify");
        assert_eq!(child.context(), None);
        drop(child);
        drop(root);

        // a memory recorder still gets the flat span summaries from the
        // same call shape
        let recorder = MemoryRecorder::new();
        {
            let root = TracedSpan::root(&recorder, "request", next_trace_id());
            let _child = root.child("verify");
        }
        assert_eq!(recorder.span_stats("request").unwrap().count, 1);
        assert_eq!(recorder.span_stats("verify").unwrap().count, 1);
    }

    #[test]
    fn assembly_rejects_malformed_span_sets() {
        assert_eq!(assemble(&[]), Err(TraceError::Empty));
        let trace = next_trace_id();
        let span = |id: u64, parent: Option<u64>| FinishedSpan {
            trace,
            span: SpanId(id),
            parent: parent.map(SpanId),
            name: format!("s{id}"),
            start: Instant::now(),
            duration: Duration::ZERO,
            attrs: Vec::new(),
        };
        assert_eq!(assemble(&[span(1, Some(1))]), Err(TraceError::NoRoot));
        assert_eq!(assemble(&[span(1, None), span(2, None)]), Err(TraceError::MultipleRoots(2)));
        assert_eq!(
            assemble(&[span(1, None), span(2, Some(99))]),
            Err(TraceError::OrphanSpan("s2".into()))
        );
        assert_eq!(assemble(&[span(1, None), span(1, Some(1))]), Err(TraceError::DuplicateSpanId));
        let mut foreign = span(2, Some(1));
        foreign.trace = TraceId(trace.get().wrapping_add(1).max(1));
        assert_eq!(assemble(&[span(1, None), foreign]), Err(TraceError::MixedTraces));
    }
}
