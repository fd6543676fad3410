//! Prometheus text exposition of a [`Report`], plus a validator for CI.
//!
//! [`render`] turns a recorder snapshot into the Prometheus text format
//! (version 0.0.4): counters become `ppuf_*_total` counters, observed
//! value distributions become `*_sum`/`*_count` summaries, spans whose
//! report carries a bucketed snapshot become full `histogram` families
//! with cumulative `*_bucket{le="..."}` lines, and live values the
//! report cannot carry (queue depth, cache entries, `ppuf_slo_*` health)
//! are passed in as gauges. A handful of protocol-level counters are
//! always emitted — zero when never touched — so dashboards and the
//! smoke-test scraper can rely on their presence. Reports carrying a
//! hierarchical `profile` section additionally expose the top-K call
//! paths by self time as `ppuf_profile_self_seconds_total{path="..."}`
//! counters (K = [`crate::profile::DEFAULT_TOP_K`], so profile label
//! cardinality stays bounded).
//!
//! [`validate`] parses an exposition back into a name→value map (bucket
//! samples keyed with their `{le="..."}` label) and rejects drift: bad
//! metric or label names, missing or mistyped `# TYPE` lines, counters
//! not ending in `_total`, duplicate samples, `_bucket` samples without
//! an `le` label or a declared histogram, non-cumulative bucket counts,
//! and a missing or inconsistent `+Inf` bucket. Scraping twice and
//! feeding both maps to [`check_monotone`] locks counter *and* bucket
//! monotonicity across scrapes.

use std::collections::BTreeMap;

use crate::report::Report;

/// Counter-name translations from recorder keys to stable Prometheus
/// names; anything not listed falls back to `ppuf_<sanitized>_total`.
const ALIASES: &[(&str, &str)] = &[
    ("server.requests", "ppuf_requests_total"),
    ("server.connections", "ppuf_connections_total"),
    ("server.cache.hits", "ppuf_cache_hits_total"),
    ("server.cache.misses", "ppuf_cache_misses_total"),
    ("server.cache.evictions", "ppuf_cache_evictions_total"),
    ("server.pool.rejected", "ppuf_pool_rejected_total"),
];

/// Counters emitted even when their recorder key was never touched, so
/// scrapers can rely on their presence from the first request on.
const WELL_KNOWN: &[&str] = &[
    "ppuf_requests_total",
    "ppuf_cache_hits_total",
    "ppuf_cache_misses_total",
    "ppuf_cache_evictions_total",
    "ppuf_pool_rejected_total",
];

/// Stable exposition name for a recorder counter key.
pub fn counter_metric_name(raw: &str) -> String {
    for (from, to) in ALIASES {
        if raw == *from {
            return (*to).to_string();
        }
    }
    format!("ppuf_{}_total", sanitize(raw))
}

fn sanitize(raw: &str) -> String {
    raw.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

fn format_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value:?}")
    }
}

/// Renders `report` (plus live `gauges`, named verbatim) as Prometheus
/// exposition text.
pub fn render(report: &Report, gauges: &[(String, f64)]) -> String {
    let mut counters: BTreeMap<String, u64> =
        WELL_KNOWN.iter().map(|n| ((*n).to_string(), 0)).collect();
    for (name, value) in &report.counters {
        let metric = counter_metric_name(name);
        let slot = counters.entry(metric).or_insert(0);
        *slot = slot.saturating_add(*value);
    }
    let mut out = String::new();
    for (name, value) in &counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    // observed value distributions expose as quantile-less summaries —
    // _sum/_count carry the load; percentiles live in the JSON report
    for (name, s) in &report.histograms {
        let base = format!("ppuf_hist_{}", sanitize(name));
        out.push_str(&format!(
            "# TYPE {base} summary\n{base}_sum {}\n{base}_count {}\n",
            format_value(s.sum),
            s.count
        ));
    }
    // spans become full histogram families when the report carries their
    // bucketed snapshot; reports from before the `hists` section fall
    // back to the summary shape
    for (name, s) in &report.spans {
        let base = format!("ppuf_span_{}_seconds", sanitize(name));
        match report.hists.get(name) {
            Some(h) => {
                out.push_str(&format!("# TYPE {base} histogram\n"));
                let mut cumulative = 0u64;
                for b in &h.buckets {
                    cumulative += b.count;
                    out.push_str(&format!(
                        "{base}_bucket{{le=\"{}\"}} {cumulative}\n",
                        format_value(b.le)
                    ));
                }
                out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!(
                    "{base}_sum {}\n{base}_count {}\n",
                    format_value(h.sum),
                    h.count
                ));
            }
            None => {
                out.push_str(&format!(
                    "# TYPE {base} summary\n{base}_sum {}\n{base}_count {}\n",
                    format_value(s.sum),
                    s.count
                ));
            }
        }
    }
    // hierarchical profile: the top-K call paths by cumulative self
    // time, as labeled counters. Bounding at K keeps the scrape's label
    // cardinality fixed no matter how many paths the profiler learns.
    if !report.profile.is_empty() {
        let mut entries: Vec<(&str, f64)> =
            report.profile.iter().map(|(path, s)| (path.as_str(), s.self_s)).collect();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        entries.truncate(crate::profile::DEFAULT_TOP_K);
        entries.sort_by(|a, b| a.0.cmp(b.0));
        out.push_str("# TYPE ppuf_profile_self_seconds_total counter\n");
        for (path, self_s) in entries {
            out.push_str(&format!(
                "ppuf_profile_self_seconds_total{{path=\"{}\"}} {}\n",
                escape_label(path),
                format_value(self_s)
            ));
        }
    }
    for (name, value) in gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", format_value(*value)));
    }
    out
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Label pairs as borrowed `(key, value)` slices of the sample line.
type LabelPairs<'a> = Vec<(&'a str, &'a str)>;

/// Splits `name{key="value",...}` into the bare name and its label pairs.
fn parse_labels(sample: &str) -> Result<(&str, LabelPairs<'_>), String> {
    let Some((name, rest)) = sample.split_once('{') else {
        return Ok((sample, Vec::new()));
    };
    let body = rest.strip_suffix('}').ok_or("unterminated label set")?;
    let mut labels = Vec::new();
    for pair in body.split(',') {
        let (key, value) = pair.split_once('=').ok_or("label without '='")?;
        if !valid_label_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or("label value is not quoted")?;
        labels.push((key, value));
    }
    Ok((name, labels))
}

/// Parses Prometheus exposition text into a sample-name→value map; bucket
/// samples are keyed with their label set (`name_bucket{le="0.001"}`).
///
/// # Errors
///
/// Returns a description of the first problem found: empty input, a
/// malformed or duplicate `# TYPE` line, an unknown metric type, a
/// sample without a preceding `# TYPE`, a counter not ending in
/// `_total`, an invalid metric name, label, or value, a duplicate
/// sample, a declared metric with no samples, a `_bucket` sample without
/// an `le` label or a declared histogram, bucket counts that are not
/// cumulative in ascending `le` order, or a histogram whose `+Inf`
/// bucket is missing or disagrees with its `_count`.
pub fn validate(text: &str) -> Result<BTreeMap<String, f64>, String> {
    if text.trim().is_empty() {
        return Err("empty exposition".to_string());
    }
    let mut types: BTreeMap<String, &str> = BTreeMap::new();
    let mut sampled: BTreeMap<String, bool> = BTreeMap::new();
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();
    // per-histogram buckets in line order: (le, cumulative count)
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let describe = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = match (parts.next(), parts.next(), parts.next()) {
                (Some(name), Some(kind), None) => (name, kind),
                _ => return Err(describe("malformed TYPE line")),
            };
            if !valid_metric_name(name) {
                return Err(describe("invalid metric name in TYPE line"));
            }
            let kind = match kind {
                "counter" => "counter",
                "gauge" => "gauge",
                "summary" => "summary",
                "histogram" => "histogram",
                _ => return Err(describe("unknown metric type")),
            };
            if kind == "counter" && !name.ends_with("_total") {
                return Err(describe("counter does not end in _total"));
            }
            if types.insert(name.to_string(), kind).is_some() {
                return Err(describe("duplicate TYPE line"));
            }
            sampled.insert(name.to_string(), false);
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        if line.starts_with('#') {
            return Err(describe("unrecognized comment line"));
        }
        let (key, value) = match line.rsplit_once(' ') {
            Some((key, value)) => (key, value.trim()),
            None => return Err(describe("sample line without a value")),
        };
        let (name, labels) = parse_labels(key).map_err(|e| describe(&e))?;
        if !valid_metric_name(name) {
            return Err(describe("invalid metric name"));
        }
        let value: f64 = match value {
            "NaN" => f64::NAN,
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => other.parse().map_err(|_| describe("invalid sample value"))?,
        };
        // a sample must belong to a declared metric: its own name for
        // counters/gauges, base_sum/base_count for summaries and
        // histograms, or base_bucket{le="..."} for histograms
        let base = match types.get(name).copied() {
            Some("counter") | Some("gauge") => name,
            _ => {
                if let Some(base) = name
                    .strip_suffix("_bucket")
                    .filter(|base| types.get(*base) == Some(&"histogram"))
                {
                    let le = labels
                        .iter()
                        .find(|(k, _)| *k == "le")
                        .map(|(_, v)| *v)
                        .ok_or_else(|| describe("_bucket sample without an le label"))?;
                    let le: f64 = match le {
                        "+Inf" => f64::INFINITY,
                        other => other.parse().map_err(|_| describe("invalid le label value"))?,
                    };
                    buckets.entry(base.to_string()).or_default().push((le, value));
                    base
                } else {
                    let base = name
                        .strip_suffix("_sum")
                        .or_else(|| name.strip_suffix("_count"))
                        .filter(|base| matches!(types.get(*base), Some(&"summary" | &"histogram")));
                    match base {
                        Some(base) => base,
                        None => return Err(describe("sample without a preceding TYPE line")),
                    }
                }
            }
        };
        sampled.insert(base.to_string(), true);
        if samples.insert(key.to_string(), value).is_some() {
            return Err(describe("duplicate sample"));
        }
    }
    for (name, seen) in &sampled {
        if !seen {
            return Err(format!("metric {name} declared but never sampled"));
        }
    }
    // every histogram's buckets must be cumulative: ascending le, counts
    // nondecreasing, ending in a +Inf bucket equal to the total count
    for (base, series) in &buckets {
        for pair in series.windows(2) {
            let ((le_a, n_a), (le_b, n_b)) = (pair[0], pair[1]);
            if le_b <= le_a {
                return Err(format!(
                    "histogram {base}: le edges not ascending ({le_a} then {le_b})"
                ));
            }
            if n_b < n_a {
                return Err(format!(
                    "histogram {base}: bucket counts not cumulative ({n_a} at le={le_a}, {n_b} at le={le_b})"
                ));
            }
        }
        let Some(&(last_le, last_count)) = series.last() else { continue };
        if last_le != f64::INFINITY {
            return Err(format!("histogram {base}: missing +Inf bucket"));
        }
        if let Some(&total) = samples.get(&format!("{base}_count")) {
            if last_count != total {
                return Err(format!(
                    "histogram {base}: +Inf bucket {last_count} disagrees with _count {total}"
                ));
            }
        }
    }
    if samples.is_empty() {
        return Err("no samples in exposition".to_string());
    }
    Ok(samples)
}

/// Checks that every cumulative sample (`*_total`, `*_count`, and
/// per-bucket `*_bucket{le="..."}`) present in `before` is still present
/// and has not decreased in `after`.
///
/// # Errors
///
/// Names the first counter or bucket that disappeared or went backwards.
pub fn check_monotone(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> Result<(), String> {
    for (name, &old) in before {
        let bare = name.split('{').next().unwrap_or(name);
        if !(bare.ends_with("_total") || bare.ends_with("_count") || bare.ends_with("_bucket")) {
            continue;
        }
        match after.get(name) {
            None => return Err(format!("counter {name} disappeared between scrapes")),
            Some(&new) if new < old => {
                return Err(format!("counter {name} went backwards: {old} -> {new}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, Recorder};
    use std::time::Duration;

    fn exposition() -> String {
        let r = MemoryRecorder::new();
        r.counter_add("server.requests", 90);
        r.counter_add("server.cache.hits", 42);
        r.counter_add("server.connections", 2);
        r.counter_add("maxflow.dinic.bfs_passes", 7);
        r.observe("analog.dc.residual_norm", 1e-12);
        r.record_span("server.verify", Duration::from_millis(3));
        render(&r.snapshot("test"), &[("ppuf_pool_queue_depth".to_string(), 1.0)])
    }

    #[test]
    fn render_exposes_aliases_fallbacks_and_well_known_zeros() {
        let text = exposition();
        assert!(text.contains("# TYPE ppuf_requests_total counter\nppuf_requests_total 90\n"));
        assert!(text.contains("ppuf_cache_hits_total 42\n"));
        assert!(text.contains("ppuf_connections_total 2\n"));
        // untouched well-known counters still show up as zeros
        assert!(text.contains("ppuf_cache_misses_total 0\n"));
        assert!(text.contains("ppuf_cache_evictions_total 0\n"));
        assert!(text.contains("ppuf_pool_rejected_total 0\n"));
        // unaliased counters go through the generic scheme
        assert!(text.contains("ppuf_maxflow_dinic_bfs_passes_total 7\n"));
        // spans with bucketed snapshots expose as histograms, observed
        // distributions as summaries, gauges pass through
        assert!(text.contains("# TYPE ppuf_span_server_verify_seconds histogram"));
        assert!(text.contains("ppuf_span_server_verify_seconds_count 1\n"));
        assert!(text.contains("ppuf_span_server_verify_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("ppuf_hist_analog_dc_residual_norm_sum 1e-12\n"));
        assert!(text.contains("# TYPE ppuf_hist_analog_dc_residual_norm summary"));
        assert!(text.contains("# TYPE ppuf_pool_queue_depth gauge\nppuf_pool_queue_depth 1.0\n"));
    }

    #[test]
    fn validate_round_trips_render_output() {
        let samples = validate(&exposition()).expect("rendered exposition should validate");
        assert_eq!(samples.get("ppuf_requests_total"), Some(&90.0));
        assert_eq!(samples.get("ppuf_cache_hits_total"), Some(&42.0));
        assert_eq!(samples.get("ppuf_span_server_verify_seconds_count"), Some(&1.0));
        assert_eq!(samples.get("ppuf_span_server_verify_seconds_bucket{le=\"+Inf\"}"), Some(&1.0));
        assert_eq!(samples.get("ppuf_pool_queue_depth"), Some(&1.0));
    }

    #[test]
    fn span_histograms_expose_cumulative_buckets() {
        let r = MemoryRecorder::new();
        for ms in [1u64, 2, 3, 50, 400] {
            r.record_span("server.request", Duration::from_millis(ms));
        }
        let text = render(&r.snapshot("test"), &[]);
        let samples = validate(&text).expect("histogram exposition should validate");
        // cumulative: every bucket value ≤ the +Inf bucket == _count
        let inf = samples["ppuf_span_server_request_seconds_bucket{le=\"+Inf\"}"];
        assert_eq!(inf, 5.0);
        assert_eq!(samples["ppuf_span_server_request_seconds_count"], 5.0);
        let mut bucket_lines = 0;
        for (name, value) in &samples {
            if name.starts_with("ppuf_span_server_request_seconds_bucket{") {
                bucket_lines += 1;
                assert!(*value <= inf, "{name} above +Inf bucket");
            }
        }
        assert!(bucket_lines >= 6, "five distinct latencies plus +Inf, got {bucket_lines}");
    }

    #[test]
    fn validate_enforces_bucket_rules() {
        // _bucket needs a declared histogram
        assert!(validate("# TYPE h summary\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n").is_err());
        // _bucket needs an le label
        assert!(validate("# TYPE h histogram\nh_bucket 1\nh_count 1\nh_sum 1\n").is_err());
        // labels must be well-formed
        assert!(validate("# TYPE h histogram\nh_bucket{le=1} 1\nh_count 1\nh_sum 1\n").is_err());
        assert!(validate("# TYPE h histogram\nh_bucket{le=\"1\" 1\nh_count 1\nh_sum 1\n").is_err());
        // bucket counts must be cumulative in ascending le order
        assert!(validate(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
             h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"
        )
        .is_err());
        assert!(validate(
            "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n\
             h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"
        )
        .is_err());
        // the +Inf bucket must exist and equal _count
        assert!(validate("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n").is_err());
        assert!(validate(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n\
             h_sum 1\nh_count 3\n"
        )
        .is_err());
        // a well-formed histogram passes
        let ok = validate(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\n\
             h_sum 1.5\nh_count 3\n",
        )
        .expect("well-formed histogram");
        assert_eq!(ok.get("h_bucket{le=\"1\"}"), Some(&2.0));
    }

    #[test]
    fn bucket_counts_are_monotone_across_double_scrape() {
        let r = MemoryRecorder::new();
        r.record_span("server.request", Duration::from_millis(2));
        r.record_span("server.request", Duration::from_millis(80));
        let before = validate(&render(&r.snapshot("scrape1"), &[])).unwrap();
        r.record_span("server.request", Duration::from_millis(2));
        r.record_span("server.request", Duration::from_millis(9));
        let after = validate(&render(&r.snapshot("scrape2"), &[])).unwrap();
        check_monotone(&before, &after).expect("buckets only ever grow");
        // and the check actually watches buckets: reversing the scrapes
        // must fail on a _bucket key, not just on _count
        let err = check_monotone(&after, &before).unwrap_err();
        assert!(err.contains("_bucket") || err.contains("_count"), "{err}");
        let shrunk = check_monotone(
            &validate("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n").unwrap(),
            &validate("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 4\n").unwrap(),
        )
        .unwrap_err();
        assert!(shrunk.contains("went backwards"), "{shrunk}");
    }

    #[test]
    fn profile_paths_export_as_bounded_labeled_counters() {
        let mut r = MemoryRecorder::new();
        let profiler = std::sync::Arc::new(crate::Profiler::new());
        r.set_profiler(profiler.clone());
        // more paths than the export bound, with distinct self times
        for i in 0..(crate::profile::DEFAULT_TOP_K + 5) {
            profiler
                .record_leaf(&format!("layer;phase{i:02}"), Duration::from_micros(i as u64 + 1));
        }
        let text = render(&r.snapshot("test"), &[]);
        let samples = validate(&text).expect("profile exposition should validate");
        let profile_lines =
            samples.keys().filter(|k| k.starts_with("ppuf_profile_self_seconds_total{")).count();
        assert_eq!(profile_lines, crate::profile::DEFAULT_TOP_K, "cardinality is bounded");
        // the largest self-time path survives the cut, the smallest does not
        let biggest = format!(
            "ppuf_profile_self_seconds_total{{path=\"layer;phase{:02}\"}}",
            crate::profile::DEFAULT_TOP_K + 4
        );
        assert!(samples.contains_key(&biggest), "{text}");
        assert!(!samples.contains_key("ppuf_profile_self_seconds_total{path=\"layer;phase00\"}"));
        // scraping twice keeps the labeled counters monotone
        profiler.record_leaf("layer;phase24", Duration::from_micros(50));
        let after = validate(&render(&r.snapshot("again"), &[])).unwrap();
        check_monotone(&samples, &after).expect("profile counters only grow");
    }

    #[test]
    fn slo_gauges_render_and_validate() {
        let r = MemoryRecorder::new();
        r.counter_add("server.requests", 1);
        let gauges = [
            ("ppuf_slo_health".to_string(), 0.0),
            ("ppuf_slo_latency_p99_seconds".to_string(), 0.012),
            ("ppuf_slo_overload_ratio".to_string(), 0.0),
            ("ppuf_slo_reject_ratio".to_string(), 0.25),
        ];
        let text = render(&r.snapshot("test"), &gauges);
        let samples = validate(&text).expect("slo gauges should validate");
        assert_eq!(samples.get("ppuf_slo_health"), Some(&0.0));
        assert_eq!(samples.get("ppuf_slo_latency_p99_seconds"), Some(&0.012));
        assert_eq!(samples.get("ppuf_slo_reject_ratio"), Some(&0.25));
    }

    #[test]
    fn validate_rejects_drift() {
        assert!(validate("").is_err());
        assert!(validate("   \n").is_err());
        assert!(validate("ppuf_x_total 1\n").is_err(), "sample without TYPE");
        assert!(validate("# TYPE ppuf_x counter\nppuf_x 1\n").is_err(), "counter w/o _total");
        assert!(validate("# TYPE ppuf_x_total widget\nppuf_x_total 1\n").is_err());
        assert!(validate("# TYPE ppuf_x_total counter\n").is_err(), "declared, never sampled");
        assert!(validate("# TYPE ppuf_x_total counter\nppuf_x_total one\n").is_err(), "bad value");
        assert!(
            validate("# TYPE ppuf_x_total counter\nppuf_x_total 1\nppuf_x_total 2\n").is_err(),
            "duplicate sample"
        );
        assert!(validate("# TYPE 9bad_total counter\n9bad_total 1\n").is_err(), "bad metric name");
    }

    #[test]
    fn monotone_check_catches_regressions() {
        let before = validate("# TYPE a_total counter\na_total 5\n# TYPE g gauge\ng 9\n").unwrap();
        let ok = validate("# TYPE a_total counter\na_total 6\n# TYPE g gauge\ng 1\n").unwrap();
        assert!(check_monotone(&before, &ok).is_ok(), "gauges may move freely");
        let bad = validate("# TYPE a_total counter\na_total 4\n").unwrap();
        assert!(check_monotone(&before, &bad).is_err());
        let gone = validate("# TYPE b_total counter\nb_total 1\n").unwrap();
        assert!(check_monotone(&before, &gone).is_err());
    }
}
