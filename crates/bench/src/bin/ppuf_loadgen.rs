//! Drives the PPUF verification service (the epoll `AsyncServer`) with
//! concurrent honest, impostor, and garbage clients over real TCP and
//! writes a throughput / latency-percentile report under
//! `results/service/`.
//!
//! ```text
//! # thread-per-client blocking cohorts (wire 1.x)
//! cargo run --release --bin ppuf_loadgen [-- --smoke] [--clients N]
//!     [--requests N] [--workers N] [--nodes N] [--label NAME] [--out DIR]
//!
//! # multiplexed async cohorts: one event-loop client, N connections x
//! # pipeline D streams against the epoll reactor tier
//! cargo run --release --bin ppuf_loadgen -- --connections 512
//!     [--pipeline D] [--wire json|binary] [--rounds R] [--smoke] ...
//!
//! # two-process high-connection-count demo (each process stays inside
//! # its own file-descriptor budget)
//! cargo run --release --bin ppuf_loadgen -- --serve --addr 127.0.0.1:4747
//! cargo run --release --bin ppuf_loadgen -- --connect 127.0.0.1:4747 \
//!     --connections 10000 --wire binary
//! ```
//!
//! `--workers N` sets the server's dispatch threads — the answers it
//! verifies in parallel.
//!
//! `--smoke` selects the CI profile (small device, 2 dispatch threads) and
//! additionally *checks* its invariants, exiting non-zero if any fails —
//! honest traffic accepted, impostors rejected on the deadline, garbage
//! answered with structured errors, and (async mode) every binary
//! response carrying the correlation id of its request.

use ppuf_bench::report::{section, write_json_report, SERVICE_DIR};
use ppuf_server::loadgen::{
    run_async_loadgen, run_async_loadgen_at, run_loadgen, AsyncLoadgenConfig, AsyncLoadgenReport,
    CohortReport, LoadgenConfig,
};
use ppuf_server::mux::WireFlavor;

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn cohort_row(name: &str, cohort: &CohortReport) {
    print!(
        "  {name:<9} {:>3} clients  {:>4} requests  {:>4} accepted  {:>4} deadline-rejected  {:>4} errors",
        cohort.clients, cohort.requests, cohort.accepted, cohort.rejected_deadline,
        cohort.structured_errors,
    );
    match &cohort.latency {
        Some(l) => {
            println!("  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms", l.p50, l.p95, l.p99)
        }
        None => println!(),
    }
}

/// Builds the async profile: `--connections` is split ~92/4/4 across
/// honest/impostor/garbage cohorts (512 -> 472/20/20, the CI smoke).
fn async_config(smoke: bool, connections: usize) -> AsyncLoadgenConfig {
    let mut config =
        if smoke { AsyncLoadgenConfig::smoke() } else { AsyncLoadgenConfig::default() };
    let side = (connections / 25).max(1);
    config.impostor_connections = side;
    config.garbage_connections = side;
    config.honest_connections = connections.saturating_sub(2 * side).max(1);
    if let Some(n) = arg_after("--pipeline").and_then(|v| v.parse().ok()) {
        config.pipeline = n;
    }
    if let Some(n) = arg_after("--rounds").and_then(|v| v.parse().ok()) {
        config.rounds_per_stream = n;
    }
    if let Some(wire) = arg_after("--wire") {
        config.wire = match wire.as_str() {
            "json" => WireFlavor::Json,
            "binary" => WireFlavor::Binary,
            other => {
                eprintln!("unknown wire flavor {other:?}; expected json or binary");
                std::process::exit(2);
            }
        };
    }
    if let Some(n) = arg_after("--workers").and_then(|v| v.parse().ok()) {
        config.dispatch_threads = n;
    }
    if let Some(n) = arg_after("--nodes").and_then(|v| v.parse().ok()) {
        config.nodes = n;
    }
    if let Some(n) = arg_after("--max-connections").and_then(|v| v.parse().ok()) {
        config.max_connections = n;
    }
    if let Some(s) = arg_after("--deadline").and_then(|v| v.parse().ok()) {
        config.deadline_s = s;
    }
    if let Some(label) = arg_after("--label") {
        config.label = label;
    }
    config
}

/// `--serve`: stand up only the async server half of the two-process
/// demo and block until killed. The driving process registers the
/// device over the wire, so this side needs no model of its own.
fn serve_forever() -> ! {
    use ppuf_analog::units::Seconds;
    use ppuf_server::service::{ServiceConfig, VerificationService};
    use ppuf_server::{AsyncConfig, AsyncServer};
    use std::sync::Arc;

    let template = async_config(has_flag("--smoke"), 0);
    let addr = arg_after("--addr").unwrap_or_else(|| "127.0.0.1:4747".to_string());
    let service = VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(template.deadline_s)),
        challenge_pool: template.challenge_pool,
        seed: template.seed,
        ..ServiceConfig::default()
    });
    let server = AsyncServer::bind(
        &addr,
        Arc::new(service),
        AsyncConfig {
            max_connections: template.max_connections,
            dispatch_threads: template.dispatch_threads,
            dispatch_queue: template.dispatch_queue,
            ..AsyncConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("async server bind {addr} failed: {e}");
        std::process::exit(1);
    });
    section("async server");
    println!("  listening on {} (kill the process to stop)", server.local_addr());
    println!(
        "  {} dispatch threads, connection cap {}",
        template.dispatch_threads, template.max_connections
    );
    loop {
        std::thread::park();
    }
}

fn print_async_report(report: &AsyncLoadgenReport) {
    section("cohorts");
    cohort_row("honest", &report.honest);
    cohort_row("impostor", &report.impostor);
    cohort_row("garbage", &report.garbage);

    section("totals");
    println!(
        "  {} rounds in {:.2} s -> {:.1} rounds/s over {} connections (peak {} open)",
        report.total_rounds,
        report.duration_s,
        report.throughput_rps,
        report.mux.connections,
        report.peak_connections
    );
    if let Some(latency) = &report.request_latency {
        println!(
            "  request latency p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms",
            latency.p50, latency.p95, latency.p99
        );
    }
    println!(
        "  {} requests sent, {} responses, {} correlation ids echoed, {} shed, {} reaped",
        report.mux.requests_sent,
        report.mux.responses,
        report.mux.corr_echoed,
        report.shed_requests,
        report.reaped_connections
    );
}

fn run_async_mode(connections: usize) -> ! {
    let smoke = has_flag("--smoke");
    let config = async_config(smoke, connections);
    let out_dir = arg_after("--out").unwrap_or_else(|| SERVICE_DIR.to_string());

    section(&format!("async loadgen: {}", config.label));
    println!(
        "  {} connections ({} honest / {} impostor / {} garbage) x pipeline {}, {:?} wire",
        config.connections(),
        config.honest_connections,
        config.impostor_connections,
        config.garbage_connections,
        config.pipeline,
        config.wire
    );
    let result = match arg_after("--connect") {
        Some(addr) => {
            let addr = addr.parse().unwrap_or_else(|e| {
                eprintln!("bad --connect address {addr:?}: {e}");
                std::process::exit(2);
            });
            println!("  driving external server at {addr}");
            run_async_loadgen_at(addr, &config)
        }
        None => run_async_loadgen(&config),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("async loadgen failed: {e}");
            std::process::exit(1);
        }
    };
    print_async_report(&report);
    let path =
        write_json_report(&config.label, &report.to_json(), &out_dir).expect("report written");
    println!("  report -> {}", path.display());
    if smoke {
        if let Err(violation) = report.check_smoke_invariants() {
            eprintln!("async smoke invariant violated: {violation}");
            std::process::exit(1);
        }
        println!("  async smoke invariants hold");
    }
    std::process::exit(0);
}

fn main() {
    if has_flag("--serve") {
        serve_forever();
    }
    if let Some(connections) = arg_after("--connections").and_then(|v| v.parse().ok()) {
        run_async_mode(connections);
    }

    let smoke = has_flag("--smoke");
    let mut config = if smoke { LoadgenConfig::smoke() } else { LoadgenConfig::default() };
    if let Some(n) = arg_after("--clients").and_then(|v| v.parse().ok()) {
        config.honest_clients = n;
    }
    if let Some(n) = arg_after("--requests").and_then(|v| v.parse().ok()) {
        config.requests_per_client = n;
    }
    if let Some(n) = arg_after("--workers").and_then(|v| v.parse().ok()) {
        config.workers = n;
    }
    if let Some(n) = arg_after("--nodes").and_then(|v| v.parse().ok()) {
        config.nodes = n;
    }
    if let Some(label) = arg_after("--label") {
        config.label = label;
    }
    let out_dir = arg_after("--out").unwrap_or_else(|| SERVICE_DIR.to_string());

    section(&format!("loadgen: {}", config.label));
    println!(
        "  device n={} grid={}  {} dispatch threads  deadline {} s  {} total requests",
        config.nodes,
        config.grid,
        config.workers,
        config.deadline_s,
        config.total_requests()
    );

    let report = match run_loadgen(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            std::process::exit(1);
        }
    };

    section("cohorts");
    cohort_row("honest", &report.honest);
    cohort_row("impostor", &report.impostor);
    cohort_row("garbage", &report.garbage);

    section("totals");
    println!(
        "  {} requests in {:.2} s -> {:.1} req/s",
        report.total_requests, report.duration_s, report.throughput_rps
    );
    let hits = report.server_counters.get("server.cache.hits").copied().unwrap_or(0);
    let misses = report.server_counters.get("server.cache.misses").copied().unwrap_or(0);
    println!("  verification cache: {hits} hits / {misses} misses");
    println!(
        "  tracing: {}/{} verdict rounds correlated end to end; {} live prometheus samples",
        report.correlated_traces,
        report.traced_requests,
        report.prometheus_samples.len()
    );

    let path =
        write_json_report(&config.label, &report.to_json(), &out_dir).expect("report written");
    println!("  report -> {}", path.display());

    if smoke {
        if let Err(violation) = report.check_smoke_invariants() {
            eprintln!("smoke invariant violated: {violation}");
            std::process::exit(1);
        }
        println!("  smoke invariants hold");
    }
}
