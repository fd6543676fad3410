//! Schema-versioned JSON run reports.
//!
//! A [`Report`] is a snapshot of a [`MemoryRecorder`](crate::MemoryRecorder)
//! that renders to and parses from JSON without external dependencies, so
//! downstream tooling (and the `telemetry_report` binary in `ppuf-bench`)
//! can diff runs across commits.
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
use std::fmt;
use std::fmt::Write as _;

use crate::hist::{HistBucket, HistogramSnapshot};
use crate::profile::ProfileStats;
use crate::{SampleSummary, Summary};

/// Version written into every report; parsers accept
/// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`] and reject the rest.
pub const SCHEMA_VERSION: u32 = 2;

/// Oldest report schema still parseable (v1 lacked `events`/`traces`).
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// One diagnostic event from the bounded ring buffer
/// ([`crate::EventLog`]).
#[derive(Clone, Debug, PartialEq)]
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

/// Failure parsing a report from JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportError(String);

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry report error: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

impl Report {
    /// Renders the report as indented JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        write_u64_map(&mut out, "counters", &self.counters);
        out.push_str(",\n");
        write_summary_map(&mut out, "histograms", &self.histograms);
        out.push_str(",\n");
        write_summary_map(&mut out, "spans", &self.spans);
        out.push_str(",\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(w));
        }
        out.push_str("],\n");
        write_sample_map(&mut out, "samples", &self.samples);
        out.push_str(",\n");
        write_hist_map(&mut out, "hists", &self.hists);
        if !self.profile.is_empty() {
            out.push_str(",\n");
            write_profile_map(&mut out, "profile", &self.profile);
        }
        out.push_str(",\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"seq\": {}, \"name\": {}, \"values\": [",
                e.seq,
                json_string(&e.name)
            );
            for (j, v) in e.values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_f64(*v));
            }
            out.push_str("]}");
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"traces\": {");
        for (i, (trace, spans)) in self.traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: [", json_string(trace));
            for (j, s) in spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{\"span\": \"{:016x}\", \"parent\": {}, \"name\": {}, \"start_s\": {}, \"duration_s\": {}, \"attrs\": {{",
                    s.span,
                    match s.parent {
                        Some(p) => format!("\"{p:016x}\""),
                        None => "null".to_string(),
                    },
                    json_string(&s.name),
                    json_f64(s.start_s),
                    json_f64(s.duration_s),
                );
                for (k, (key, value)) in s.attrs.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: {}", json_string(key), json_string(value));
                }
                out.push_str("}}");
            }
            if !spans.is_empty() {
                out.push_str("\n    ");
            }
            out.push(']');
        }
        if !self.traces.is_empty() {
            out.push_str("\n  ");
        }
        out.push('}');
        out.push_str("\n}\n");
        out
    }

    /// Parses a report produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ReportError`] on malformed JSON (including nesting
    /// deeper than 128 levels), a missing field, or a schema version
    /// other than [`SCHEMA_VERSION`].
    pub fn from_json(text: &str) -> Result<Report, ReportError> {
        let value = json::parse(text).map_err(ReportError)?;
        let map = value.as_map().ok_or_else(|| ReportError("top level is not an object".into()))?;
        let schema_version = get(map, "schema_version")?
            .as_u64()
            .ok_or_else(|| ReportError("schema_version is not an integer".into()))?
            as u32;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(ReportError(format!(
                "unsupported schema_version {schema_version} \
                 (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            )));
        }
        let label = get(map, "label")?
            .as_str()
            .ok_or_else(|| ReportError("label is not a string".into()))?
            .to_string();
        let counters = get(map, "counters")?
            .as_map()
            .ok_or_else(|| ReportError("counters is not an object".into()))?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| ReportError(format!("counter {k:?} is not an integer")))
            })
            .collect::<Result<_, _>>()?;
        let histograms = parse_summary_map(get(map, "histograms")?, "histograms")?;
        let spans = parse_summary_map(get(map, "spans")?, "spans")?;
        let warnings = get(map, "warnings")?
            .as_seq()
            .ok_or_else(|| ReportError("warnings is not an array".into()))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ReportError("warning is not a string".into()))
            })
            .collect::<Result<_, _>>()?;
        // optional sections: `samples` predates its own introduction and
        // `events`/`traces` arrived with schema v2, so v1 reports parse
        // with the corresponding sections empty
        let samples = match map.iter().find(|(k, _)| k == "samples") {
            Some((_, v)) => parse_sample_map(v)?,
            None => BTreeMap::new(),
        };
        let hists = match map.iter().find(|(k, _)| k == "hists") {
            Some((_, v)) => parse_hist_map(v)?,
            None => BTreeMap::new(),
        };
        let profile = match map.iter().find(|(k, _)| k == "profile") {
            Some((_, v)) => parse_profile_map(v)?,
            None => BTreeMap::new(),
        };
        let events = match map.iter().find(|(k, _)| k == "events") {
            Some((_, v)) => parse_events(v)?,
            None => Vec::new(),
        };
        let traces = match map.iter().find(|(k, _)| k == "traces") {
            Some((_, v)) => parse_traces(v)?,
            None => BTreeMap::new(),
        };
        Ok(Report {
            schema_version,
            label,
            counters,
            histograms,
            spans,
            warnings,
            samples,
            hists,
            profile,
            events,
            traces,
        })
    }

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

fn get<'a>(map: &'a [(String, json::Value)], key: &str) -> Result<&'a json::Value, ReportError> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ReportError(format!("missing field {key:?}")))
}

fn parse_summary_map(
    value: &json::Value,
    what: &str,
) -> Result<BTreeMap<String, Summary>, ReportError> {
    let entries = value.as_map().ok_or_else(|| ReportError(format!("{what} is not an object")))?;
    entries
        .iter()
        .map(|(name, v)| {
            let fields = v
                .as_map()
                .ok_or_else(|| ReportError(format!("{what} entry {name:?} is not an object")))?;
            let number = |key: &str| {
                get(fields, key)?
                    .as_f64()
                    .ok_or_else(|| ReportError(format!("{what}.{name}.{key} is not a number")))
            };
            let count = get(fields, "count")?
                .as_u64()
                .ok_or_else(|| ReportError(format!("{what}.{name}.count is not an integer")))?;
            Ok((
                name.clone(),
                Summary { count, sum: number("sum")?, min: number("min")?, max: number("max")? },
            ))
        })
        .collect()
}

fn parse_sample_map(value: &json::Value) -> Result<BTreeMap<String, SampleSummary>, ReportError> {
    let entries = value.as_map().ok_or_else(|| ReportError("samples is not an object".into()))?;
    entries
        .iter()
        .map(|(name, v)| {
            let fields = v
                .as_map()
                .ok_or_else(|| ReportError(format!("samples entry {name:?} is not an object")))?;
            let number = |key: &str| {
                get(fields, key)?
                    .as_f64()
                    .ok_or_else(|| ReportError(format!("samples.{name}.{key} is not a number")))
            };
            let count = get(fields, "count")?
                .as_u64()
                .ok_or_else(|| ReportError(format!("samples.{name}.count is not an integer")))?
                as usize;
            Ok((
                name.clone(),
                SampleSummary {
                    count,
                    min: number("min")?,
                    max: number("max")?,
                    mean: number("mean")?,
                    p50: number("p50")?,
                    p95: number("p95")?,
                    p99: number("p99")?,
                },
            ))
        })
        .collect()
}

fn parse_hist_map(value: &json::Value) -> Result<BTreeMap<String, HistogramSnapshot>, ReportError> {
    let entries = value.as_map().ok_or_else(|| ReportError("hists is not an object".into()))?;
    entries
        .iter()
        .map(|(name, v)| {
            let fields = v
                .as_map()
                .ok_or_else(|| ReportError(format!("hists entry {name:?} is not an object")))?;
            let number = |key: &str| {
                get(fields, key)?
                    .as_f64()
                    .ok_or_else(|| ReportError(format!("hists.{name}.{key} is not a number")))
            };
            let count = get(fields, "count")?
                .as_u64()
                .ok_or_else(|| ReportError(format!("hists.{name}.count is not an integer")))?;
            let buckets = get(fields, "buckets")?
                .as_seq()
                .ok_or_else(|| ReportError(format!("hists.{name}.buckets is not an array")))?
                .iter()
                .map(|b| {
                    let bucket = b
                        .as_map()
                        .ok_or_else(|| ReportError("hist bucket is not an object".into()))?;
                    let le = get(bucket, "le")?
                        .as_f64()
                        .ok_or_else(|| ReportError("hist bucket le is not a number".into()))?;
                    let count = get(bucket, "count")?
                        .as_u64()
                        .ok_or_else(|| ReportError("hist bucket count is not an integer".into()))?;
                    Ok(HistBucket { le, count })
                })
                .collect::<Result<_, _>>()?;
            Ok((
                name.clone(),
                HistogramSnapshot {
                    buckets,
                    count,
                    sum: number("sum")?,
                    min: number("min")?,
                    max: number("max")?,
                },
            ))
        })
        .collect()
}

fn parse_events(value: &json::Value) -> Result<Vec<EventRecord>, ReportError> {
    let items = value.as_seq().ok_or_else(|| ReportError("events is not an array".into()))?;
    items
        .iter()
        .map(|item| {
            let fields =
                item.as_map().ok_or_else(|| ReportError("event is not an object".into()))?;
            let seq = get(fields, "seq")?
                .as_u64()
                .ok_or_else(|| ReportError("event.seq is not an integer".into()))?;
            let name = get(fields, "name")?
                .as_str()
                .ok_or_else(|| ReportError("event.name is not a string".into()))?
                .to_string();
            let values = get(fields, "values")?
                .as_seq()
                .ok_or_else(|| ReportError("event.values is not an array".into()))?
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| ReportError("event value is not a number".into()))
                })
                .collect::<Result<_, _>>()?;
            Ok(EventRecord { seq, name, values })
        })
        .collect()
}

fn parse_hex_id(value: &json::Value, what: &str) -> Result<u64, ReportError> {
    let text = value.as_str().ok_or_else(|| ReportError(format!("{what} is not a hex string")))?;
    u64::from_str_radix(text, 16).map_err(|_| ReportError(format!("{what} is not a hex id")))
}

fn parse_traces(
    value: &json::Value,
) -> Result<BTreeMap<String, Vec<TraceSpanRecord>>, ReportError> {
    let entries = value.as_map().ok_or_else(|| ReportError("traces is not an object".into()))?;
    entries
        .iter()
        .map(|(trace, spans)| {
            let spans = spans
                .as_seq()
                .ok_or_else(|| ReportError(format!("trace {trace:?} is not an array")))?
                .iter()
                .map(|item| {
                    let fields = item
                        .as_map()
                        .ok_or_else(|| ReportError("trace span is not an object".into()))?;
                    let number = |key: &str| {
                        get(fields, key)?
                            .as_f64()
                            .ok_or_else(|| ReportError(format!("trace span {key} is not a number")))
                    };
                    let parent = match get(fields, "parent")? {
                        json::Value::Null => None,
                        other => Some(parse_hex_id(other, "trace span parent")?),
                    };
                    Ok(TraceSpanRecord {
                        span: parse_hex_id(get(fields, "span")?, "trace span id")?,
                        parent,
                        name: get(fields, "name")?
                            .as_str()
                            .ok_or_else(|| ReportError("trace span name is not a string".into()))?
                            .to_string(),
                        start_s: number("start_s")?,
                        duration_s: number("duration_s")?,
                        attrs: get(fields, "attrs")?
                            .as_map()
                            .ok_or_else(|| ReportError("trace span attrs is not an object".into()))?
                            .iter()
                            .map(|(k, v)| {
                                v.as_str().map(|s| (k.clone(), s.to_string())).ok_or_else(|| {
                                    ReportError("trace span attr is not a string".into())
                                })
                            })
                            .collect::<Result<_, _>>()?,
                    })
                })
                .collect::<Result<_, _>>()?;
            Ok((trace.clone(), spans))
        })
        .collect()
}

fn write_u64_map(out: &mut String, key: &str, map: &BTreeMap<String, u64>) {
    let _ = write!(out, "  \"{key}\": {{");
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {value}", json_string(name));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn write_summary_map(out: &mut String, key: &str, map: &BTreeMap<String, Summary>) {
    let _ = write!(out, "  \"{key}\": {{");
    for (i, (name, s)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
            json_string(name),
            s.count,
            json_f64(s.sum),
            json_f64(s.min),
            json_f64(s.max),
        );
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn write_sample_map(out: &mut String, key: &str, map: &BTreeMap<String, SampleSummary>) {
    let _ = write!(out, "  \"{key}\": {{");
    for (i, (name, s)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            json_string(name),
            s.count,
            json_f64(s.min),
            json_f64(s.max),
            json_f64(s.mean),
            json_f64(s.p50),
            json_f64(s.p95),
            json_f64(s.p99),
        );
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn write_profile_map(out: &mut String, key: &str, map: &BTreeMap<String, ProfileStats>) {
    let _ = write!(out, "  \"{key}\": ");
    write_profile_object(out, map);
}

/// Renders a profile snapshot as a standalone JSON object
/// (`{"<path>": {"count": …, "wall_s": …, …}}`), entry-for-entry identical
/// to the report's `profile` section — the body of a wire
/// `Profile {format: Json}` admin response.
pub fn profile_to_json(map: &BTreeMap<String, ProfileStats>) -> String {
    let mut out = String::new();
    write_profile_object(&mut out, map);
    out
}

fn write_profile_object(out: &mut String, map: &BTreeMap<String, ProfileStats>) {
    out.push('{');
    for (i, (path, p)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"wall_s\": {}, \"self_s\": {}, \"min_s\": {}, \"max_s\": {}, \"alloc_count\": {}, \"alloc_bytes\": {}}}",
            json_string(path),
            p.count,
            json_f64(p.wall_s),
            json_f64(p.self_s),
            json_f64(p.min_s),
            json_f64(p.max_s),
            p.alloc_count,
            p.alloc_bytes,
        );
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn parse_profile_map(value: &json::Value) -> Result<BTreeMap<String, ProfileStats>, ReportError> {
    let entries = value.as_map().ok_or_else(|| ReportError("profile is not an object".into()))?;
    entries
        .iter()
        .map(|(path, v)| {
            let fields = v
                .as_map()
                .ok_or_else(|| ReportError(format!("profile entry {path:?} is not an object")))?;
            let number = |key: &str| {
                get(fields, key)?
                    .as_f64()
                    .ok_or_else(|| ReportError(format!("profile.{path}.{key} is not a number")))
            };
            let integer = |key: &str| {
                get(fields, key)?
                    .as_u64()
                    .ok_or_else(|| ReportError(format!("profile.{path}.{key} is not an integer")))
            };
            Ok((
                path.clone(),
                ProfileStats {
                    count: integer("count")?,
                    wall_s: number("wall_s")?,
                    self_s: number("self_s")?,
                    min_s: number("min_s")?,
                    max_s: number("max_s")?,
                    alloc_count: integer("alloc_count")?,
                    alloc_bytes: integer("alloc_bytes")?,
                },
            ))
        })
        .collect()
}

fn write_hist_map(out: &mut String, key: &str, map: &BTreeMap<String, HistogramSnapshot>) {
    let _ = write!(out, "  \"{key}\": {{");
    for (i, (name, h)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
            json_string(name),
            h.count,
            json_f64(h.sum),
            json_f64(h.min),
            json_f64(h.max),
        );
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"le\": {}, \"count\": {}}}", json_f64(b.le), b.count);
        }
        out.push_str("]}");
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}") // shortest form that round-trips
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    out
}

/// Minimal JSON reader used only by [`Report::from_json`]; kept private so
/// the crate stays dependency-free.
mod json {
    pub enum Value {
        Null,
        Bool(#[allow(dead_code)] bool),
        Num(f64),
        Str(String),
        Seq(Vec<Value>),
        Map(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_map(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Map(entries) => Some(entries),
                _ => None,
            }
        }

        pub fn as_seq(&self) -> Option<&[Value]> {
            match self {
                Value::Seq(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                Value::Null => Some(f64::NAN), // non-finite stats serialize as null
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }
    }

    /// Deepest array/object nesting accepted — serde_json's limit.
    const MAX_DEPTH: usize = 128;

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, byte: u8) -> Result<(), String> {
            if self.bytes.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", byte as char, self.pos))
            }
        }

        fn literal(&mut self, text: &str) -> bool {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.bytes.get(self.pos) {
                Some(b'n') if self.literal("null") => Ok(Value::Null),
                Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.nested(Self::seq),
                Some(b'{') => self.nested(Self::map),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }

        /// Parses one array or object a level deeper, refusing to go
        /// past `MAX_DEPTH` so hostile input cannot exhaust the stack.
        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
            }
            self.depth += 1;
            let value = parse(self);
            self.depth -= 1;
            value
        }

        fn seq(&mut self) -> Result<Value, String> {
            self.pos += 1;
            let mut items = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(format!("bad array at byte {}", self.pos)),
                }
            }
        }

        fn map(&mut self) -> Result<Value, String> {
            self.pos += 1;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(format!("bad object at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                        self.pos += 1;
                        match escape {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let digits = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = std::str::from_utf8(digits)
                                    .ok()
                                    .and_then(|t| u32::from_str_radix(t, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("invalid \\u escape")?;
                                self.pos += 4;
                                out.push(code);
                            }
                            other => return Err(format!("invalid escape '\\{}'", other as char)),
                        }
                    }
                    Some(_) => {
                        let start = self.pos;
                        while let Some(&b) = self.bytes.get(self.pos) {
                            if b == b'"' || b == b'\\' {
                                break;
                            }
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| "invalid utf-8".to_string())?,
                        );
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, Recorder, SampleSeries};
    use std::time::Duration;

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
    fn json_round_trip_preserves_everything() {
        let report = sample_report();
        let text = report.to_json();
        let back = Report::from_json(&text).expect("report should parse back");
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = MemoryRecorder::new().snapshot("empty");
        assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn schema_version_is_enforced() {
        let mut report = sample_report();
        report.schema_version = 999;
        let err = Report::from_json(&report.to_json()).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(Report::from_json("{\"schema_version\": 1}").is_err());
        assert!(Report::from_json("not json").is_err());
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        let err = Report::from_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // the cap sits past any depth a real report reaches
        let nested = "[".repeat(128) + &"]".repeat(128);
        let err = Report::from_json(&nested).unwrap_err();
        assert!(err.to_string().contains("not an object"), "{err}");
    }

    #[test]
    fn sample_summaries_round_trip() {
        let report = sample_report();
        let s = report.samples.get("engine.solve_seconds").expect("series was recorded");
        assert_eq!((s.count, s.p50, s.p95, s.p99), (100, 50.0, 95.0, 99.0));
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.samples, report.samples);
    }

    #[test]
    fn reports_without_samples_section_still_parse() {
        // a v1 report written before the samples section existed
        let legacy = "{\"schema_version\": 1, \"label\": \"old\", \"counters\": {},\
             \"histograms\": {}, \"spans\": {}, \"warnings\": []}";
        let report = Report::from_json(legacy).expect("legacy report should parse");
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
        let report = Report::from_json(legacy).expect("pre-hist v2 report should parse");
        assert!(report.hists.is_empty());
    }

    #[test]
    fn hist_snapshots_round_trip() {
        let report = sample_report();
        let h = report.hists.get("dc.solve").expect("span histograms are always recorded");
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), h.count);
        assert!((h.sum - 1234e-6).abs() < 1e-9);
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.hists, report.hists);
    }

    #[test]
    fn schema_versions_outside_the_supported_range_are_rejected() {
        for bad in [0, SCHEMA_VERSION + 1] {
            let text = format!(
                "{{\"schema_version\": {bad}, \"label\": \"x\", \"counters\": {{}},\
                 \"histograms\": {{}}, \"spans\": {{}}, \"warnings\": []}}"
            );
            let err = Report::from_json(&text).unwrap_err();
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
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.events, report.events);
        assert_eq!(back.traces, report.traces);
    }

    #[test]
    fn profile_section_round_trips_and_is_omitted_when_empty() {
        // no profiler attached → no "profile" key in the JSON at all
        let plain = sample_report();
        assert!(plain.profile.is_empty());
        assert!(!plain.to_json().contains("\"profile\""));

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
        let back = Report::from_json(&report.to_json()).expect("profiled report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn reports_without_profile_section_still_parse() {
        let legacy = "{\"schema_version\": 2, \"label\": \"pre-profile\", \"counters\": {},\
             \"histograms\": {}, \"spans\": {}, \"warnings\": [], \"samples\": {},\
             \"hists\": {}, \"events\": [], \"traces\": {}}";
        let report = Report::from_json(legacy).expect("pre-profile v2 report should parse");
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
