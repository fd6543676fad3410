//! Continuous perf-trajectory harness: one command that measures the
//! engine and service smoke profiles, gates them, and appends the
//! result to the repo's append-only `BENCH_trajectory.json`.
//!
//! ```text
//! cargo run --release --bin perf_trajectory -- --smoke [--profile]
//!     [--label NAME] [--trajectory PATH]
//! ```
//!
//! `--profile` additionally writes the run's flamegraph-ready folded
//! stacks to `results/profiles/engine-smoke.folded`.
//!
//! The run exits non-zero if any gate fails:
//!
//! - the engine cold solve regressed more than 2× or took more than 2
//!   Newton iterations beyond the committed
//!   `results/bench/engine-smoke-baseline.json`, or the profiler's
//!   device-eval self-time share drifted out of that baseline's band;
//! - either load-generator profile run through `run_loadgen` violates a
//!   smoke invariant — the paced smoke (10 JSON connections, every
//!   verdict round trace-correlated) must also end the run SLO-healthy;
//! - the concurrency smoke (512 multiplexed connections against one
//!   reactor process, binary wire) regresses in throughput or request
//!   p99 past the committed `results/service/async-smoke-baseline.json`.
//!
//! On success it appends a [`TrajectoryEntry`] (git commit/branch, the
//! engine point, the service point) and prints the delta against the
//! previous entry, so a perf drift is visible in the diff of a single
//! committed file rather than buried in CI logs.

use ppuf_bench::engine_profile::{
    check_eval_share_baseline, check_smoke_baseline, run_engine_smoke_profiled, BENCH_DIR,
    PROFILES_DIR,
};
use ppuf_bench::report::{section, write_json_report, SERVICE_DIR};
use ppuf_bench::trajectory::{
    check_async_baseline, git_metadata, AsyncServiceSample, ServiceSample, Trajectory,
    TrajectoryEntry, TRAJECTORY_PATH,
};
use ppuf_server::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Runs one load-generator profile, writes its report under
/// `results/service/`, and exits non-zero on any smoke invariant
/// violation.
fn run_service_smoke(config: &LoadgenConfig) -> LoadgenReport {
    println!(
        "  {} connections x pipeline {} on the {:?} wire, {} rounds",
        config.connections(),
        config.pipeline,
        config.wire,
        config.total_rounds()
    );
    let report = run_loadgen(config).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });
    let latency = report.request_latency.as_ref().map_or(0.0, |l| l.p99);
    println!(
        "  {} rounds in {:.2}s -> {:.1} rounds/s; request p99 {latency:.2} ms; \
         peak {} conns, {} shed, health {:?}",
        report.total_rounds,
        report.duration_s,
        report.throughput_rps,
        report.peak_connections,
        report.shed_requests,
        report.health.status
    );
    let path = write_json_report(&config.label, &report.to_json(), SERVICE_DIR)
        .expect("write service json");
    println!("  report -> {}", path.display());
    if let Err(violation) = report.check_smoke_invariants() {
        eprintln!("smoke invariant violated: {violation}");
        std::process::exit(1);
    }
    report
}

fn main() {
    // only the smoke profile exists today; the flag keeps the CLI shape
    // of the other harness binaries (and room for a --full profile)
    if !std::env::args().any(|a| a == "--smoke") {
        eprintln!("usage: perf_trajectory --smoke [--profile] [--label NAME] [--trajectory PATH]");
        std::process::exit(2);
    }
    let label = arg_after("--label").unwrap_or_else(|| "ci-smoke".to_string());
    let trajectory_path = arg_after("--trajectory").unwrap_or_else(|| TRAJECTORY_PATH.to_string());

    section("engine smoke");
    let (engine, profiler) = run_engine_smoke_profiled();
    println!("  n={} cold solve {:.3}s", engine.nodes, engine.cold_seconds);
    if let Some(profile) = &engine.profile {
        println!(
            "  profile: device-eval self share {:.1}%, {} paths, warm overhead {:.2}x",
            100.0 * profile.device_eval_self_share,
            profile.paths,
            profile.warm_overhead_ratio()
        );
    }
    let path =
        write_json_report("engine-smoke", &engine.to_json(), BENCH_DIR).expect("write smoke json");
    println!("  report -> {}", path.display());
    if std::env::args().any(|a| a == "--profile") {
        std::fs::create_dir_all(PROFILES_DIR).expect("create profiles dir");
        let folded_path = format!("{PROFILES_DIR}/engine-smoke.folded");
        std::fs::write(&folded_path, profiler.fold()).expect("write folded stacks");
        println!("  folded stacks -> {folded_path}");
    }
    let baseline_path = format!("{BENCH_DIR}/engine-smoke-baseline.json");
    match check_smoke_baseline(&engine, &baseline_path) {
        Ok(Some(baseline)) => println!("  within budget: baseline {baseline:.3}s"),
        Ok(None) => println!("  no baseline at {baseline_path}; gate unarmed"),
        Err(regression) => {
            eprintln!("PERF REGRESSION: {regression}");
            std::process::exit(1);
        }
    }
    match check_eval_share_baseline(&engine, &baseline_path) {
        Ok(Some(baseline)) => println!("  device-eval share within band of baseline {baseline:.3}"),
        Ok(None) => println!("  no device_eval_self_share in the baseline; share gate unarmed"),
        Err(drift) => {
            eprintln!("PROFILE DRIFT: {drift}");
            std::process::exit(1);
        }
    }
    // the always-on profiler must actually have measured the run
    match &engine.profile {
        Some(profile) if profile.paths > 0 && profile.device_eval_self_share > 0.0 => {}
        _ => {
            eprintln!("smoke invariant violated: engine smoke report has an empty profile section");
            std::process::exit(1);
        }
    }

    section("service smoke");
    let report = run_service_smoke(&LoadgenConfig::smoke());
    println!("  smoke invariants hold (health {:?})", report.health.status);

    section("concurrency smoke");
    let async_config = LoadgenConfig::concurrency_smoke();
    let async_report = run_service_smoke(&async_config);
    let request_latency = async_report.request_latency.expect("async run recorded request latency");
    let async_sample = AsyncServiceSample {
        connections: async_config.connections() as u64,
        pipeline: async_config.pipeline as u64,
        wire: format!("{:?}", async_config.wire),
        total_rounds: async_report.total_rounds as u64,
        throughput_rps: async_report.throughput_rps,
        request_p50_ms: request_latency.p50,
        request_p99_ms: request_latency.p99,
        peak_connections: async_report.peak_connections,
        shed_requests: async_report.shed_requests,
    };
    let async_baseline_path = format!("{SERVICE_DIR}/async-smoke-baseline.json");
    match check_async_baseline(&async_sample, &async_baseline_path) {
        Ok(Some(baseline)) => println!("  within budget: baseline {baseline:.1} rounds/s"),
        Ok(None) => println!("  no baseline at {async_baseline_path}; gate unarmed"),
        Err(regression) => {
            eprintln!("PERF REGRESSION: {regression}");
            std::process::exit(1);
        }
    }
    println!("  smoke invariants hold");

    section("trajectory");
    let honest = report.honest.latency.expect("honest latency recorded");
    let (git_commit, git_branch) = git_metadata();
    let entry = TrajectoryEntry {
        label,
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        git_commit,
        git_branch,
        engine,
        service: ServiceSample {
            total_requests: report.total_rounds as u64,
            throughput_rps: report.throughput_rps,
            p50_ms: honest.p50,
            p95_ms: honest.p95,
            p99_ms: honest.p99,
            health: format!("{:?}", report.health.status),
        },
        async_service: Some(async_sample),
    };
    let trajectory = match Trajectory::append(&trajectory_path, entry) {
        Ok(trajectory) => trajectory,
        Err(e) => {
            eprintln!("trajectory append failed: {e}");
            std::process::exit(1);
        }
    };
    println!("  {} entries -> {trajectory_path}", trajectory.entries.len());
    match trajectory.diff_last() {
        Some(diff) => println!("  {diff}"),
        None => println!("  first entry; nothing to diff against"),
    }
}
