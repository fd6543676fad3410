//! Minimal table/series printing for experiment output, plus the
//! machine-readable telemetry run-report writer backing
//! `cargo run --bin telemetry_report`.

use std::io;
use std::path::{Path, PathBuf};

use ppuf_telemetry::Report;

/// Default directory for machine-readable telemetry run reports.
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// Default directory for verification-service load reports
/// (`cargo run --bin ppuf_loadgen`).
pub const SERVICE_DIR: &str = "results/service";

/// Writes an already-serialized JSON report as `<dir>/<label>.json` (the
/// label is sanitized to a safe file stem) and returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_json_report(label: &str, json: &str, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", sanitize_stem(label)));
    std::fs::write(&path, json)?;
    Ok(path)
}

fn sanitize_stem(label: &str) -> String {
    let stem: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if stem.is_empty() {
        "report".to_string()
    } else {
        stem
    }
}

/// Writes a schema-versioned telemetry [`Report`] as
/// `<dir>/<label>.json` (the label is sanitized to a safe file stem) and
/// returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_telemetry_report(report: &Report, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
    let json = serde_json::to_string_pretty(report).expect("a report always serializes");
    write_json_report(&report.label, &json, dir)
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one table row of `(label, value)` columns.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("  "));
}

/// Formats a float with engineering-style precision.
pub fn sig(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if (1e-2..1e4).contains(&a) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Mean of a sample set.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stdev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(stdev(&[1.0, 3.0]), 1.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stdev(&[]), 0.0);
    }

    #[test]
    fn sig_formats() {
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(1.5), "1.5000");
        assert!(sig(3.3e-8).contains('e'));
    }

    #[test]
    fn telemetry_report_round_trips_through_disk() {
        use ppuf_telemetry::{MemoryRecorder, Recorder, Report};

        let recorder = MemoryRecorder::new();
        recorder.counter_add("maxflow.dinic.bfs_passes", 7);
        recorder.observe("analog.dc.residual_norm", 3.25e-15);
        recorder.record_span("analog.dc.solve", std::time::Duration::from_micros(42));
        recorder.warn("sample warning");
        let report = recorder.snapshot("bench unit/test");

        let dir =
            std::env::temp_dir().join(format!("ppuf_bench_report_test_{}", std::process::id()));
        let path = write_telemetry_report(&report, &dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "bench_unit_test.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let restored: Report = serde_json::from_str(&text).unwrap();
        assert_eq!(restored, report);
        std::fs::remove_dir_all(&dir).ok();
    }
}
