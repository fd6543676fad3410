//! Append-only performance trajectory: one JSON entry per measured
//! commit, so the repo's perf history is a diffable artifact instead of
//! scattered CI logs.
//!
//! [`Trajectory`] wraps the `BENCH_trajectory.json` file at the repo
//! root: `{"schema": 1, "entries": [...]}` where every
//! [`TrajectoryEntry`] records the engine smoke point (cold-solve
//! seconds at n = 200), the service smoke point (throughput and latency
//! percentiles from the loadgen run plus its final SLO health), and git
//! metadata identifying the measured tree. `perf_trajectory --smoke`
//! appends one entry per CI run and prints the delta against the
//! previous entry.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::engine_profile::EngineSmoke;

/// Default trajectory file, relative to the repo root.
pub const TRAJECTORY_PATH: &str = "BENCH_trajectory.json";

/// Current trajectory file schema.
pub const TRAJECTORY_SCHEMA: u32 = 1;

/// The paced service smoke operating point distilled from a loadgen
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSample {
    /// Rounds completed across all cohorts.
    pub total_requests: u64,
    /// Completed rounds per second of traffic.
    pub throughput_rps: f64,
    /// Honest-cohort p50 full-round latency, milliseconds.
    pub p50_ms: f64,
    /// Honest-cohort p95 full-round latency, milliseconds.
    pub p95_ms: f64,
    /// Honest-cohort p99 full-round latency, milliseconds.
    pub p99_ms: f64,
    /// The service's final SLO status (`Ok` / `Degraded` / `Unhealthy`).
    pub health: String,
}

/// The concurrency smoke operating point distilled from a
/// [`ppuf_server::loadgen::LoadgenReport`] of the 512-connection profile:
/// hundreds of connections against one reactor process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncServiceSample {
    /// Concurrent connections the run held open.
    pub connections: u64,
    /// Request streams pipelined per connection.
    pub pipeline: u64,
    /// Wire flavor (`Binary` / `Json`).
    pub wire: String,
    /// Challenge/answer rounds completed.
    pub total_rounds: u64,
    /// Completed rounds per second of traffic.
    pub throughput_rps: f64,
    /// Per-request wire latency p50, milliseconds.
    pub request_p50_ms: f64,
    /// Per-request wire latency p99, milliseconds.
    pub request_p99_ms: f64,
    /// Peak simultaneously-open server connections.
    pub peak_connections: u64,
    /// Requests shed `Overloaded` at the dispatch queue (expected under
    /// a deliberate-overload profile; recorded so drifts are visible).
    pub shed_requests: u64,
}

/// One measured commit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Free-text label (`ci-smoke`, `local`, ...).
    pub label: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time_s: u64,
    /// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
    pub git_commit: String,
    /// `git rev-parse --abbrev-ref HEAD`, or `unknown`.
    pub git_branch: String,
    /// The engine smoke measurement.
    pub engine: EngineSmoke,
    /// The service smoke measurement.
    pub service: ServiceSample,
    /// The async concurrency smoke, once the reactor tier exists
    /// (`None` in entries measured before it).
    pub async_service: Option<AsyncServiceSample>,
}

/// The whole trajectory file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// File schema version ([`TRAJECTORY_SCHEMA`]).
    pub schema: u32,
    /// Entries in append order, oldest first.
    pub entries: Vec<TrajectoryEntry>,
}

impl Default for Trajectory {
    fn default() -> Self {
        Trajectory { schema: TRAJECTORY_SCHEMA, entries: Vec::new() }
    }
}

impl Trajectory {
    /// Loads the trajectory at `path`; a missing file is an empty
    /// trajectory (the first run creates it).
    ///
    /// # Errors
    ///
    /// Returns a message when the file exists but does not parse, or
    /// carries an unsupported schema — an append must never silently
    /// clobber history it cannot read.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Trajectory::default());
            }
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let parsed: Trajectory = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        if parsed.schema > TRAJECTORY_SCHEMA {
            return Err(format!(
                "{} has schema {} but this build reads up to {TRAJECTORY_SCHEMA}",
                path.display(),
                parsed.schema
            ));
        }
        Ok(parsed)
    }

    /// Appends `entry` to the trajectory at `path` (creating the file on
    /// first use) and returns the updated trajectory.
    ///
    /// # Errors
    ///
    /// Propagates [`Trajectory::load`] failures and write errors.
    pub fn append(path: impl AsRef<Path>, entry: TrajectoryEntry) -> Result<Self, String> {
        let path = path.as_ref();
        let mut trajectory = Self::load(path)?;
        trajectory.entries.push(entry);
        let json = serde_json::to_string_pretty(&trajectory)
            .map_err(|e| format!("trajectory serialization failed: {e}"))?;
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(trajectory)
    }

    /// Human-readable delta between the last two entries, or `None` with
    /// fewer than two.
    pub fn diff_last(&self) -> Option<String> {
        let [.., prev, last] = self.entries.as_slice() else {
            return None;
        };
        let pct = |old: f64, new: f64| {
            if old.abs() < 1e-12 {
                0.0
            } else {
                (new - old) / old * 100.0
            }
        };
        let mut diff = format!(
            "vs {} ({}): engine cold {:.3}s -> {:.3}s ({:+.1}%), \
             service {:.1} -> {:.1} req/s ({:+.1}%), p99 {:.2} -> {:.2} ms ({:+.1}%)",
            prev.git_commit,
            prev.label,
            prev.engine.cold_seconds,
            last.engine.cold_seconds,
            pct(prev.engine.cold_seconds, last.engine.cold_seconds),
            prev.service.throughput_rps,
            last.service.throughput_rps,
            pct(prev.service.throughput_rps, last.service.throughput_rps),
            prev.service.p99_ms,
            last.service.p99_ms,
            pct(prev.service.p99_ms, last.service.p99_ms),
        );
        if let (Some(p), Some(l)) = (&prev.async_service, &last.async_service) {
            diff.push_str(&format!(
                ", async {:.0} -> {:.0} rounds/s ({:+.1}%) at {} conns",
                p.throughput_rps,
                l.throughput_rps,
                pct(p.throughput_rps, l.throughput_rps),
                l.connections,
            ));
        }
        Some(diff)
    }
}

/// Throughput may drop to 1/this and p99 grow to this× the committed
/// async baseline before the gate fails — loose enough for noisy shared
/// CI hosts, tight enough to catch a real event-loop regression.
pub const ASYNC_REGRESSION_FACTOR: f64 = 3.0;

/// Gates an async concurrency sample against the committed baseline at
/// `baseline_path` (`results/service/async-smoke-baseline.json`).
/// Returns `Ok(None)` when no baseline exists yet (first run), else the
/// baseline throughput.
///
/// # Errors
///
/// Returns the regression description when throughput fell below
/// baseline/[`ASYNC_REGRESSION_FACTOR`] or the per-request p99 exceeds
/// [`ASYNC_REGRESSION_FACTOR`]× baseline, or says that the baseline does
/// not parse or lacks either number.
pub fn check_async_baseline(
    sample: &AsyncServiceSample,
    baseline_path: &str,
) -> Result<Option<f64>, String> {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        return Ok(None);
    };
    // the baseline records a subset of the sample's fields, plus a note
    let baseline = serde_json::parse_value(&text)
        .map_err(|e| format!("baseline {baseline_path} does not parse: {e}"))?;
    let field = |key: &str| {
        baseline
            .get(key)
            .and_then(|value| f64::from_value(value).ok())
            .ok_or_else(|| format!("baseline {baseline_path} has no numeric {key} field"))
    };
    let base_rps = field("throughput_rps")?;
    let base_p99 = field("request_p99_ms")?;
    if sample.throughput_rps < base_rps / ASYNC_REGRESSION_FACTOR {
        return Err(format!(
            "async throughput {:.1} rounds/s fell below baseline {base_rps:.1} / {ASYNC_REGRESSION_FACTOR}",
            sample.throughput_rps
        ));
    }
    if sample.request_p99_ms > base_p99 * ASYNC_REGRESSION_FACTOR {
        return Err(format!(
            "async request p99 {:.2} ms exceeds {ASYNC_REGRESSION_FACTOR}x baseline {base_p99:.2} ms",
            sample.request_p99_ms
        ));
    }
    Ok(Some(base_rps))
}

/// `(short commit, branch)` of the current checkout, `unknown` outside
/// one (or without a `git` binary on PATH).
pub fn git_metadata() -> (String, String) {
    let read = |args: &[&str]| -> Option<String> {
        let output = std::process::Command::new("git").args(args).output().ok()?;
        if !output.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&output.stdout).trim().to_string();
        if text.is_empty() {
            None
        } else {
            Some(text)
        }
    };
    (
        read(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        read(&["rev-parse", "--abbrev-ref", "HEAD"]).unwrap_or_else(|| "unknown".into()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, cold: f64, rps: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: label.into(),
            unix_time_s: 1_700_000_000,
            git_commit: "abc1234".into(),
            git_branch: "main".into(),
            engine: EngineSmoke {
                nodes: 200,
                cold_seconds: cold,
                source_current_amps: 1e-3,
                solver: None,
                sparse_grid: None,
                profile: None,
            },
            service: ServiceSample {
                total_requests: 100,
                throughput_rps: rps,
                p50_ms: 5.0,
                p95_ms: 9.0,
                p99_ms: 12.0,
                health: "Ok".into(),
            },
            async_service: Some(AsyncServiceSample {
                connections: 512,
                pipeline: 2,
                wire: "Binary".into(),
                total_rounds: 1024,
                throughput_rps: rps * 2.0,
                request_p50_ms: 4.0,
                request_p99_ms: 40.0,
                peak_connections: 513,
                shed_requests: 100,
            }),
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ppuf-trajectory-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn missing_file_loads_empty_and_appends_accumulate() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        assert_eq!(Trajectory::load(&path).unwrap(), Trajectory::default());

        let first = Trajectory::append(&path, entry("a", 10.0, 50.0)).unwrap();
        assert_eq!(first.entries.len(), 1);
        assert!(first.diff_last().is_none(), "one entry has nothing to diff");

        let second = Trajectory::append(&path, entry("b", 9.0, 55.0)).unwrap();
        assert_eq!(second.entries.len(), 2);
        let diff = second.diff_last().expect("two entries diff");
        assert!(diff.contains("-10.0%"), "{diff}");

        // and the file itself round-trips
        assert_eq!(Trajectory::load(&path).unwrap(), second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_history_is_an_error_not_a_clobber() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "not json").unwrap();
        assert!(Trajectory::load(&path).is_err());
        assert!(Trajectory::append(&path, entry("a", 10.0, 50.0)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not json");

        std::fs::write(&path, "{\"schema\": 99, \"entries\": []}").unwrap();
        let err = Trajectory::load(&path).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn async_baseline_gate_passes_within_factor_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("ppuf-async-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async-smoke-baseline.json");
        std::fs::write(&path, "{\"throughput_rps\": 300.0, \"request_p99_ms\": 50.0}").unwrap();
        let path = path.to_string_lossy().into_owned();

        let sample = entry("a", 10.0, 50.0).async_service.unwrap();
        let ok =
            AsyncServiceSample { throughput_rps: 150.0, request_p99_ms: 120.0, ..sample.clone() };
        assert_eq!(check_async_baseline(&ok, &path), Ok(Some(300.0)));
        let slow = AsyncServiceSample { throughput_rps: 50.0, ..sample.clone() };
        assert!(check_async_baseline(&slow, &path).is_err());
        let laggy = AsyncServiceSample { request_p99_ms: 200.0, ..sample.clone() };
        assert!(check_async_baseline(&laggy, &path).is_err());
        assert_eq!(check_async_baseline(&sample, "/no/such/baseline.json"), Ok(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_metadata_is_nonempty() {
        let (commit, branch) = git_metadata();
        assert!(!commit.is_empty());
        assert!(!branch.is_empty());
    }
}
