//! Schema-versioned JSON run reports.
//!
//! A [`Report`] is a snapshot of a [`MemoryRecorder`](crate::MemoryRecorder)
//! that writes and reads JSON through `serde` (`serde_json::to_string_pretty`
//! and `serde_json::from_str::<Report>`), so downstream tooling (and the
//! `telemetry_report` binary in `ppuf-bench`) can diff runs across commits.
//!
//! Schema, version 2 — unknown keys are ignored on parse so the version
//! only bumps on incompatible changes, and parsers accept every version
//! back to [`MIN_SCHEMA_VERSION`]:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "label": "free text identifying the run",
//!   "counters":   { "dc.newton_iterations": 42 },
//!   "histograms": { "dc.final_residual": {"count":1,"sum":1e-10,"min":1e-10,"max":1e-10} },
//!   "spans":      { "dc.solve": {"count":1,"sum":0.0031,"min":0.0031,"max":0.0031} },
//!   "warnings":   [ "..." ],
//!   "samples":    { "engine.solve_seconds": {"count":3,"min":0.001,"max":0.003,"mean":0.002,"p50":0.002,"p95":0.003,"p99":0.003} },
//!   "hists":      { "dc.solve": {"count":1,"sum":0.0031,"min":0.0031,"max":0.0031,"buckets":[{"le":0.0031113,"count":1}]} },
//!   "profile":    { "analog.dc.solve;stamp": {"count":1,"wall_s":0.002,"self_s":0.0005,"min_s":0.002,"max_s":0.002,"alloc_count":0,"alloc_bytes":0} },
//!   "events":     [ {"seq":0,"name":"analog.dc.residual_trace","values":[1e-3,1e-7,1e-12]} ],
//!   "traces":     { "00c0ffee00c0ffee": [ {"span":"0000000000000001","parent":null,"name":"server.request","start_s":0.0,"duration_s":0.002,"attrs":{"kind":"SubmitAnswer"}} ] }
//! }
//! ```
//!
//! The `samples` section carries percentile summaries of raw
//! [`SampleSeries`](crate::SampleSeries) data, and `hists` carries sparse
//! [`HistogramSnapshot`]s of the bounded log-bucketed histograms (bucket
//! counts are non-cumulative; edges follow the compile-time scheme in
//! [`crate::hist`]). `events` is the drained
//! diagnostic ring buffer ([`crate::EventLog`]) and `traces` the retained
//! span trees, keyed by zero-padded hex trace id with span ids as hex
//! strings (full-range `u64` ids do not survive JSON's `f64` numbers) and
//! per-trace timestamps rebased to the earliest span. The `profile`
//! section carries hierarchical profiler statistics keyed by
//! `;`-separated call path ([`crate::profile`]) and is written only when
//! non-empty. All of these sections are optional on parse: v1 reports —
//! written before `events`/`traces` existed — and v2 reports written
//! before `hists`/`profile` still load, which is why these are
//! compatible additions rather than version bumps.

use std::collections::BTreeMap;

use serde::{Deserialize, Error, Serialize, Value};

use crate::hist::HistogramSnapshot;
use crate::profile::ProfileStats;
use crate::{SampleSummary, Summary};

/// Version written into every report; parsers accept
/// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`] and reject the rest.
pub const SCHEMA_VERSION: u32 = 2;

/// Oldest report schema still parseable (v1 lacked `events`/`traces`).
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// One diagnostic event from the bounded ring buffer
/// ([`crate::EventLog`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Position in the emission order (gaps at the front reveal drops).
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Event payload.
    pub values: Vec<f64>,
}

/// One span of a retained trace, timestamps rebased to the trace's
/// earliest span start.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpanRecord {
    /// Span id, unique within the trace.
    pub span: u64,
    /// Parent span id; `None` for the trace root.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Seconds from the trace's first span start to this span's start.
    pub start_s: f64,
    /// Span duration in seconds.
    pub duration_s: f64,
    /// Key=value attributes, in the order attached.
    pub attrs: Vec<(String, String)>,
}

/// Snapshot of one instrumented run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Always [`SCHEMA_VERSION`] for reports produced by this crate.
    pub schema_version: u32,
    /// Free-text run identifier chosen by the producer.
    pub label: String,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Observed value distributions by name.
    pub histograms: BTreeMap<String, Summary>,
    /// Span timings by name, in seconds.
    pub spans: BTreeMap<String, Summary>,
    /// Warnings in the order raised.
    pub warnings: Vec<String>,
    /// Percentile summaries of raw sample series by name.
    pub samples: BTreeMap<String, SampleSummary>,
    /// Bounded log-bucketed histogram snapshots by name — one per span
    /// name for recorder snapshots (empty for reports written before the
    /// section existed; optional on parse like `samples`).
    pub hists: BTreeMap<String, HistogramSnapshot>,
    /// Hierarchical profiler statistics keyed by `;`-separated call path
    /// (see [`crate::profile`]). Written only when non-empty and
    /// optional on parse, so reports from recorders without an attached
    /// profiler are byte-identical to pre-profiler reports.
    pub profile: BTreeMap<String, ProfileStats>,
    /// Retained diagnostic events, oldest first (empty for v1 reports).
    pub events: Vec<EventRecord>,
    /// Retained trace span sets keyed by zero-padded hex trace id
    /// (empty for v1 reports).
    pub traces: BTreeMap<String, Vec<TraceSpanRecord>>,
}

impl Report {
    /// Signed per-counter difference `self - baseline`, for diffing two
    /// runs; counters absent on one side count as zero.
    pub fn counter_delta(&self, baseline: &Report) -> BTreeMap<String, i128> {
        let mut delta = BTreeMap::new();
        for (name, value) in &self.counters {
            let base = baseline.counters.get(name).copied().unwrap_or(0);
            let diff = i128::from(*value) - i128::from(base);
            if diff != 0 {
                delta.insert(name.clone(), diff);
            }
        }
        for (name, base) in &baseline.counters {
            if !self.counters.contains_key(name) {
                delta.insert(name.clone(), -i128::from(*base));
            }
        }
        delta
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("counters".to_string(), object(&self.counters)),
            ("histograms".to_string(), object(&self.histograms)),
            ("spans".to_string(), object(&self.spans)),
            ("warnings".to_string(), self.warnings.to_value()),
            ("samples".to_string(), object(&self.samples)),
            ("hists".to_string(), object(&self.hists)),
        ];
        if !self.profile.is_empty() {
            fields.push(("profile".to_string(), object(&self.profile)));
        }
        fields.push(("events".to_string(), self.events.to_value()));
        fields.push(("traces".to_string(), object(&self.traces)));
        Value::Map(fields)
    }
}

impl<'de> Deserialize<'de> for Report {
    /// Reads every schema version from [`MIN_SCHEMA_VERSION`] to
    /// [`SCHEMA_VERSION`], with absent optional sections read as empty.
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.as_map().is_none() {
            return Err(Error::custom("report is not an object"));
        }
        let schema_version = u32::from_value(field(value, "schema_version")?)?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(Error::custom(format!(
                "unsupported schema_version {schema_version} \
                 (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            )));
        }
        // optional sections: `samples`, `hists` and `profile` arrived
        // after the sections beside them and `events`/`traces` with schema
        // v2, so older reports parse with these sections empty
        Ok(Report {
            schema_version,
            label: String::from_value(field(value, "label")?)?,
            counters: from_object(field(value, "counters")?, "counters")?,
            histograms: from_object(field(value, "histograms")?, "histograms")?,
            spans: from_object(field(value, "spans")?, "spans")?,
            warnings: Vec::from_value(field(value, "warnings")?)?,
            samples: optional_object(value, "samples")?,
            hists: optional_object(value, "hists")?,
            profile: optional_object(value, "profile")?,
            events: value.get("events").map_or(Ok(Vec::new()), Vec::from_value)?,
            traces: optional_object(value, "traces")?,
        })
    }
}

impl Serialize for TraceSpanRecord {
    fn to_value(&self) -> Value {
        let hex = |id: u64| Value::Str(format!("{id:016x}"));
        Value::Map(vec![
            ("span".to_string(), hex(self.span)),
            ("parent".to_string(), self.parent.map_or(Value::Null, hex)),
            ("name".to_string(), self.name.to_value()),
            ("start_s".to_string(), self.start_s.to_value()),
            ("duration_s".to_string(), self.duration_s.to_value()),
            ("attrs".to_string(), object(self.attrs.iter().map(|(k, v)| (k, v)))),
        ])
    }
}

impl<'de> Deserialize<'de> for TraceSpanRecord {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let hex_id = |id: &Value| match id {
            Value::Str(text) => u64::from_str_radix(text, 16)
                .map_err(|_| Error::custom(format!("trace span id {text:?} is not a hex id"))),
            other => Err(Error::custom(format!("trace span id {other:?} is not a hex string"))),
        };
        let parent = match field(value, "parent")? {
            Value::Null => None,
            id => Some(hex_id(id)?),
        };
        Ok(TraceSpanRecord {
            span: hex_id(field(value, "span")?)?,
            parent,
            name: String::from_value(field(value, "name")?)?,
            start_s: f64::from_value(field(value, "start_s")?)?,
            duration_s: f64::from_value(field(value, "duration_s")?)?,
            attrs: from_object(field(value, "attrs")?, "attrs")?,
        })
    }
}

/// The field `key` of a JSON object, or an error naming it.
fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, Error> {
    value.get(key).ok_or_else(|| Error::custom(format!("missing field `{key}`")))
}

/// A string-keyed section as a JSON object; the vendored serde's map
/// impls would write it as `[key, value]` pairs.
fn object<'a, V: Serialize + 'a>(entries: impl IntoIterator<Item = (&'a String, &'a V)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
}

/// The entries of the JSON object section `what`, in document order.
fn from_object<'de, V: Deserialize<'de>, C: FromIterator<(String, V)>>(
    value: &Value,
    what: &str,
) -> Result<C, Error> {
    let entries =
        value.as_map().ok_or_else(|| Error::custom(format!("{what} is not an object")))?;
    entries.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
}

/// [`from_object`] for a section older reports lack: absent reads empty.
fn optional_object<'de, V: Deserialize<'de>, C: FromIterator<(String, V)> + Default>(
    report: &Value,
    key: &str,
) -> Result<C, Error> {
    report.get(key).map_or(Ok(C::default()), |section| from_object(section, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, Recorder, SampleSeries};
    use std::time::Duration;

    fn to_json(report: &Report) -> String {
        serde_json::to_string_pretty(report).expect("a report always serializes")
    }

    fn from_json(text: &str) -> Result<Report, serde_json::Error> {
        serde_json::from_str(text)
    }

    fn sample_report() -> Report {
        let reporter = MemoryRecorder::new();
        reporter.counter_add("dc.newton_iterations", 42);
        reporter.counter_add("maxflow.augmenting_paths", 7);
        reporter.observe("dc.final_residual", 3.25e-11);
        reporter.observe("dc.final_residual", 8.5e-12);
        reporter.record_span("dc.solve", Duration::from_micros(1234));
        reporter.warn("dc solver: fallback to gauss-seidel");
        let mut series = SampleSeries::new();
        series.extend((1..=100).map(f64::from));
        reporter.record_samples("engine.solve_seconds", &series);
        reporter.record_event("analog.dc.residual_trace", &[1e-3, 1e-7, 4e-13]);
        {
            let trace = crate::next_trace_id();
            let mut root = crate::TracedSpan::root(&reporter, "server.request", trace);
            root.attr("kind", "SubmitAnswer");
            let _child = root.child("server.verify");
        }
        reporter.snapshot("unit-test run")
    }

    #[test]
    fn round_trip_preserves_everything() {
        let report = sample_report();
        let text = to_json(&report);
        let back = from_json(&text).expect("report should parse back");
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = MemoryRecorder::new().snapshot("empty");
        assert_eq!(from_json(&to_json(&report)).unwrap(), report);
    }

    #[test]
    fn schema_version_is_enforced() {
        let mut report = sample_report();
        report.schema_version = 999;
        let err = from_json(&to_json(&report)).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(from_json("{\"schema_version\": 1}").is_err());
        assert!(from_json("not json").is_err());
        let no_sum = "{\"schema_version\": 2, \"label\": \"x\", \"counters\": {},\
             \"histograms\": {}, \"spans\": {\"dc.solve\": {\"count\": 1, \"min\": 0.1,\
             \"max\": 0.1}}, \"warnings\": []}";
        assert!(from_json(no_sum).is_err());
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        let err = from_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // the cap sits past any depth a real report reaches
        let nested = "[".repeat(128) + &"]".repeat(128);
        let err = from_json(&nested).unwrap_err();
        assert!(err.to_string().contains("not an object"), "{err}");
    }

    #[test]
    fn sample_summaries_round_trip() {
        let report = sample_report();
        let s = report.samples.get("engine.solve_seconds").expect("series was recorded");
        assert_eq!((s.count, s.p50, s.p95, s.p99), (100, 50.0, 95.0, 99.0));
        let back = from_json(&to_json(&report)).unwrap();
        assert_eq!(back.samples, report.samples);
    }

    #[test]
    fn reports_without_samples_section_still_parse() {
        // a v1 report written before the samples section existed
        let legacy = "{\"schema_version\": 1, \"label\": \"old\", \"counters\": {},\
             \"histograms\": {}, \"spans\": {}, \"warnings\": []}";
        let report = from_json(legacy).expect("legacy report should parse");
        assert!(report.samples.is_empty());
        assert!(report.hists.is_empty());
        assert!(report.events.is_empty());
        assert!(report.traces.is_empty());
    }

    #[test]
    fn v2_reports_without_hists_section_still_parse() {
        // a v2 report written before the hists section existed
        let legacy = "{\"schema_version\": 2, \"label\": \"pre-hist\", \"counters\": {},\
             \"histograms\": {}, \"spans\": {}, \"warnings\": [], \"samples\": {},\
             \"events\": [], \"traces\": {}}";
        let report = from_json(legacy).expect("pre-hist v2 report should parse");
        assert!(report.hists.is_empty());
    }

    #[test]
    fn hist_snapshots_round_trip() {
        let report = sample_report();
        let h = report.hists.get("dc.solve").expect("span histograms are always recorded");
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), h.count);
        assert!((h.sum - 1234e-6).abs() < 1e-9);
        let back = from_json(&to_json(&report)).unwrap();
        assert_eq!(back.hists, report.hists);
    }

    #[test]
    fn schema_versions_outside_the_supported_range_are_rejected() {
        for bad in [0, SCHEMA_VERSION + 1] {
            let text = format!(
                "{{\"schema_version\": {bad}, \"label\": \"x\", \"counters\": {{}},\
                 \"histograms\": {{}}, \"spans\": {{}}, \"warnings\": []}}"
            );
            let err = from_json(&text).unwrap_err();
            assert!(err.to_string().contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn events_and_traces_round_trip() {
        let report = sample_report();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].values, vec![1e-3, 1e-7, 4e-13]);
        assert_eq!(report.traces.len(), 1);
        let spans = report.traces.values().next().unwrap();
        assert_eq!(spans.len(), 2);
        // the child finished first, so it is recorded first and names
        // the root (recorded second) as its parent
        assert_eq!(spans[0].name, "server.verify");
        assert_eq!(spans[0].parent, Some(spans[1].span));
        assert_eq!(spans[1].name, "server.request");
        assert_eq!(spans[1].attrs, vec![("kind".to_string(), "SubmitAnswer".to_string())]);
        let back = from_json(&to_json(&report)).unwrap();
        assert_eq!(back.events, report.events);
        assert_eq!(back.traces, report.traces);
    }

    #[test]
    fn profile_section_round_trips_and_is_omitted_when_empty() {
        // no profiler attached → no "profile" key in the JSON at all
        let plain = sample_report();
        assert!(plain.profile.is_empty());
        assert!(!to_json(&plain).contains("\"profile\""));

        let mut recorder = MemoryRecorder::new();
        let profiler = std::sync::Arc::new(crate::Profiler::new());
        recorder.set_profiler(profiler.clone());
        profiler.record_path(
            "analog.dc.solve;stamp",
            Duration::from_millis(2),
            Duration::from_micros(500),
        );
        // a skewed derivation surfaces as a counter in the snapshot
        profiler.record_path("bad", Duration::from_micros(1), Duration::from_micros(9));
        let report = recorder.snapshot("profiled");
        let entry = report.profile.get("analog.dc.solve;stamp").expect("profile entry");
        assert_eq!(entry.count, 1);
        assert!((entry.self_s - 500e-6).abs() < 1e-9);
        assert_eq!(report.counters.get("telemetry.profile.skew_clamps"), Some(&1));
        let back = from_json(&to_json(&report)).expect("profiled report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn reports_without_profile_section_still_parse() {
        let legacy = "{\"schema_version\": 2, \"label\": \"pre-profile\", \"counters\": {},\
             \"histograms\": {}, \"spans\": {}, \"warnings\": [], \"samples\": {},\
             \"hists\": {}, \"events\": [], \"traces\": {}}";
        let report = from_json(legacy).expect("pre-profile v2 report should parse");
        assert!(report.profile.is_empty());
    }

    #[test]
    fn counter_delta_reports_signed_differences() {
        let old = sample_report();
        let mut new = old.clone();
        new.counters.insert("dc.newton_iterations".into(), 50);
        new.counters.remove("maxflow.augmenting_paths");
        new.counters.insert("fresh".into(), 3);
        let delta = new.counter_delta(&old);
        assert_eq!(delta.get("dc.newton_iterations"), Some(&8));
        assert_eq!(delta.get("maxflow.augmenting_paths"), Some(&-7));
        assert_eq!(delta.get("fresh"), Some(&3));
    }
}
