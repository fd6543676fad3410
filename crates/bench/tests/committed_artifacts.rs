//! The committed evidence parses through the one JSON reader: telemetry
//! reports of both schema versions as `Report`, the perf trajectory
//! through `Trajectory::load`, and the engine smoke baseline as the
//! `EngineSmoke` its gate reads.

use std::path::PathBuf;

use ppuf_bench::engine_profile::EngineSmoke;
use ppuf_bench::trajectory::Trajectory;
use ppuf_telemetry::Report;

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(path)
}

fn parse<T: for<'de> serde::Deserialize<'de>>(path: &str) -> T {
    let text = std::fs::read_to_string(repo_file(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_reports_parse_in_both_schema_versions() {
    let v1: Report = parse("results/telemetry/run_n100.json");
    assert_eq!((v1.schema_version, v1.label.as_str()), (1, "run_n100"));
    assert!(v1.events.is_empty() && v1.traces.is_empty(), "v1 predates both sections");

    let engine: Report = parse("results/bench/engine-telemetry.json");
    assert_eq!((engine.schema_version, engine.label.as_str()), (2, "engine_bench"));
    assert!(engine.counters["analog.dc.newton_iterations"] > 0);

    let profiled: Report = parse("results/bench/engine-smoke-profile.json");
    assert_eq!(profiled.schema_version, 2);
    assert!(profiled.profile["analog.dc.solve"].count > 0);
}

#[test]
fn committed_trajectory_and_smoke_baseline_parse() {
    let trajectory = Trajectory::load(repo_file("BENCH_trajectory.json")).expect("trajectory");
    assert_eq!(trajectory.entries[0].label, "seed");

    let baseline: EngineSmoke = parse("results/bench/engine-smoke-baseline.json");
    assert_eq!(baseline.nodes, 200);
    assert!(baseline.cold_seconds > 0.0, "{}", baseline.cold_seconds);
    assert!(baseline.solver.is_some(), "the iteration gate is armed");
}
