//! Flight recorder: a fixed-size black box of recent finished span trees.
//!
//! A [`MemoryRecorder`](crate::MemoryRecorder) retains traces for *live*
//! inspection, but its ring is shared by all traffic and a burst of boring
//! requests evicts the interesting ones. The [`FlightRecorder`] is the
//! post-mortem counterpart: the serving layer pushes only *notable*
//! finished traces (verdicts, errors, overload rejections) plus structured
//! events into a small drop-oldest ring, and on a trigger — a failure
//! burst, pool saturation, or an admin `Dump` command — the whole box is
//! snapshotted into a schema-versioned [`Report`] that can be written to
//! disk and diffed like any other telemetry report.
//!
//! Bounds are hard: at most `capacity` traces and a bounded event ring,
//! oldest dropped first with drop counts, so the recorder's memory is
//! constant no matter how long the process runs. A disabled recorder
//! ([`FlightRecorder::disabled`]) rejects pushes before touching the lock
//! and never allocates, which keeps the always-on serving path free when
//! the black box is turned off.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use crate::report::{EventRecord, Report};
use crate::{trace_records, EventLog, FinishedSpan, Summary, SCHEMA_VERSION};

/// Default number of traces the ring retains.
pub const DEFAULT_FLIGHT_TRACES: usize = 64;

/// Default event-ring capacity.
pub const DEFAULT_FLIGHT_EVENTS: usize = 256;

/// One retained trace: the finished spans of a single request, tagged
/// with the outcome label the pusher chose.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedTrace {
    /// Position in push order (monotone, counts across drops).
    pub seq: u64,
    /// Outcome label, e.g. `rejected_flow` or `overloaded`.
    pub label: String,
    /// The trace's finished spans, in recording order.
    pub spans: Vec<FinishedSpan>,
}

#[derive(Debug, Default)]
struct FlightState {
    traces: VecDeque<RecordedTrace>,
    next_seq: u64,
    dropped: u64,
}

/// Fixed-size drop-oldest ring of recent finished span trees + events.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    state: Mutex<FlightState>,
    events: EventLog,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_TRACES, DEFAULT_FLIGHT_EVENTS)
    }
}

impl FlightRecorder {
    /// Creates an enabled recorder retaining at most `traces` span trees
    /// and `events` events (each clamped to at least 1).
    pub fn new(traces: usize, events: usize) -> Self {
        FlightRecorder {
            enabled: true,
            capacity: traces.max(1),
            state: Mutex::new(FlightState::default()),
            events: EventLog::new(events),
        }
    }

    /// Creates a recorder that ignores every push and dumps empty
    /// reports, without ever locking or allocating.
    pub fn disabled() -> Self {
        FlightRecorder {
            enabled: false,
            capacity: 0,
            state: Mutex::new(FlightState::default()),
            events: EventLog::new(1),
        }
    }

    /// Whether pushes are retained.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Maximum retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.lock().traces.is_empty()
    }

    /// Total traces discarded to make room so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Retained traces, oldest first.
    pub fn traces(&self) -> Vec<RecordedTrace> {
        self.lock().traces.iter().cloned().collect()
    }

    /// Pushes one finished trace tagged `label`. Empty span sets and
    /// disabled recorders are rejected before the lock is taken, so the
    /// rejecting path never allocates. Returns whether it was retained.
    pub fn push_trace(&self, label: &str, spans: Vec<FinishedSpan>) -> bool {
        if !self.enabled || spans.is_empty() {
            return false;
        }
        let mut state = self.lock();
        push_locked(&mut state, self.capacity, label, spans);
        true
    }

    /// Appends a structured event to the black box's own event ring.
    pub fn push_event(&self, name: &str, values: &[f64]) {
        if self.enabled {
            self.events.push(name, values);
        }
    }

    /// Snapshots the black box as a [`Report`] labeled `label`: every
    /// retained trace keyed `"{seq:06}:{trace_id:016x}"` (so keys sort
    /// chronologically), per-span-name duration summaries aggregated
    /// across the box, the event ring, and `flightrec.*` counters
    /// recording retention, drops, and per-outcome-label trace counts.
    pub fn dump(&self, label: &str) -> Report {
        snapshot_locked(&self.lock(), &self.events, label)
    }

    /// Atomically pushes the triggering trace and dumps, under one lock
    /// acquisition, so the dump always contains the trace that caused it
    /// even while other threads keep pushing.
    pub fn dump_with(
        &self,
        label: &str,
        trigger_label: &str,
        trigger: Vec<FinishedSpan>,
    ) -> Report {
        if !self.enabled || trigger.is_empty() {
            return self.dump(label);
        }
        let mut state = self.lock();
        push_locked(&mut state, self.capacity, trigger_label, trigger);
        snapshot_locked(&state, &self.events, label)
    }

    fn lock(&self) -> MutexGuard<'_, FlightState> {
        // a panicking pusher must not take the black box down with it
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn push_locked(state: &mut FlightState, capacity: usize, label: &str, spans: Vec<FinishedSpan>) {
    while state.traces.len() >= capacity {
        state.traces.pop_front();
        state.dropped += 1;
    }
    let seq = state.next_seq;
    state.next_seq += 1;
    state.traces.push_back(RecordedTrace { seq, label: label.to_string(), spans });
}

fn snapshot_locked(state: &FlightState, events: &EventLog, label: &str) -> Report {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    counters.insert("flightrec.traces.retained".into(), state.traces.len() as u64);
    counters.insert("flightrec.traces.dropped".into(), state.dropped);
    counters.insert("flightrec.events.dropped".into(), events.dropped());
    let mut spans: BTreeMap<String, Summary> = BTreeMap::new();
    let mut traces = BTreeMap::new();
    for t in &state.traces {
        *counters.entry(format!("flightrec.trace.{}", t.label)).or_insert(0) += 1;
        for s in &t.spans {
            spans.entry(s.name.clone()).or_default().record(s.duration.as_secs_f64());
        }
        let id = t.spans[0].trace;
        traces.insert(format!("{:06}:{id}", t.seq), trace_records(&t.spans));
    }
    Report {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        counters,
        histograms: BTreeMap::new(),
        spans,
        warnings: Vec::new(),
        samples: BTreeMap::new(),
        hists: BTreeMap::new(),
        profile: BTreeMap::new(),
        events: events
            .snapshot()
            .into_iter()
            .map(|e| EventRecord { seq: e.seq, name: e.name, values: e.values })
            .collect(),
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{next_trace_id, MemoryRecorder, TracedSpan};

    fn make_trace(recorder: &MemoryRecorder, name: &str) -> Vec<FinishedSpan> {
        let trace = next_trace_id();
        {
            let root = TracedSpan::root(recorder, name, trace);
            let _child = root.child("verify");
        }
        recorder.trace_spans(trace)
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let recorder = MemoryRecorder::new();
        let flight = FlightRecorder::new(2, 8);
        for i in 0..5 {
            let spans = make_trace(&recorder, &format!("request{i}"));
            assert!(flight.push_trace("ok", spans));
        }
        assert_eq!(flight.len(), 2);
        assert_eq!(flight.dropped(), 3);
        let retained = flight.traces();
        assert_eq!(retained[0].seq, 3);
        assert_eq!(retained[1].seq, 4);
        assert_eq!(retained[1].spans[1].name, "request4");
    }

    #[test]
    fn empty_pushes_are_rejected() {
        let flight = FlightRecorder::new(2, 8);
        assert!(!flight.push_trace("ok", Vec::new()));
        assert!(flight.is_empty());
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let recorder = MemoryRecorder::new();
        let flight = FlightRecorder::disabled();
        assert!(!flight.enabled());
        assert!(!flight.push_trace("ok", make_trace(&recorder, "request")));
        flight.push_event("ignored", &[1.0]);
        let report = flight.dump("empty box");
        assert!(report.traces.is_empty());
        assert!(report.events.is_empty());
    }

    #[test]
    fn dump_is_a_parseable_schema_report() {
        let recorder = MemoryRecorder::new();
        let flight = FlightRecorder::new(4, 8);
        flight.push_trace("rejected_flow", make_trace(&recorder, "request"));
        flight.push_trace("accepted", make_trace(&recorder, "request"));
        flight.push_event("flightrec.trigger", &[1.0, 2.0]);
        let report = flight.dump("post-mortem");
        assert_eq!(report.label, "post-mortem");
        assert_eq!(report.counters.get("flightrec.traces.retained"), Some(&2));
        assert_eq!(report.counters.get("flightrec.trace.rejected_flow"), Some(&1));
        assert_eq!(report.counters.get("flightrec.trace.accepted"), Some(&1));
        assert_eq!(report.spans.get("request").unwrap().count, 2);
        assert_eq!(report.traces.len(), 2);
        assert_eq!(report.events.len(), 1);
        // keys sort chronologically because the seq prefix is zero-padded
        let keys: Vec<&String> = report.traces.keys().collect();
        assert!(keys[0] < keys[1]);
        let text = serde_json::to_string_pretty(&report).expect("a report always serializes");
        let back: Report = serde_json::from_str(&text).expect("dump must round-trip");
        assert_eq!(back, report);
    }

    #[test]
    fn dump_with_always_contains_the_trigger() {
        let recorder = MemoryRecorder::new();
        let flight = FlightRecorder::new(1, 8);
        flight.push_trace("ok", make_trace(&recorder, "request"));
        let trigger = make_trace(&recorder, "request");
        let trigger_id = trigger[0].trace;
        let report = flight.dump_with("burst", "rejected_flow", trigger);
        assert!(
            report.traces.keys().any(|k| k.ends_with(&format!("{trigger_id}"))),
            "trigger trace must be in the dump even at capacity 1"
        );
    }
}
