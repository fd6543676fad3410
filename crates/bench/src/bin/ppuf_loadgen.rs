//! Drives the PPUF verification service (the epoll `AsyncServer`) with
//! honest, impostor, and garbage cohorts multiplexed over real TCP
//! connections and writes a throughput / latency-percentile report under
//! `results/service/`.
//!
//! ```text
//! # the paced smoke profile: 6 honest / 2 impostor / 2 garbage JSON
//! # connections, 10 rounds each
//! cargo run --release --bin ppuf_loadgen -- --smoke
//!
//! # N connections split ~92/4/4 across the cohorts (with --smoke: the
//! # 512-connection concurrency profile's settings), pipeline D streams
//! # each
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
//! Every mode also takes `--workers N` (server dispatch threads — the
//! answers it verifies in parallel), `--nodes N`, `--deadline S`,
//! `--max-connections N`, `--label NAME` and `--out DIR`. An
//! unrecognised flag or an unparseable value exits 2 with the usage line.
//!
//! `--smoke` selects a CI profile and additionally *checks* its
//! invariants, exiting non-zero if any fails — honest traffic accepted,
//! impostors rejected on the deadline, garbage answered with structured
//! errors, every binary response carrying its request's correlation id
//! and every JSON verdict round its trace id.

use std::str::FromStr;

use ppuf_bench::report::{section, write_json_report, SERVICE_DIR};
use ppuf_server::loadgen::{
    run_loadgen, run_loadgen_at, CohortReport, LoadgenConfig, LoadgenReport,
};
use ppuf_server::mux::WireFlavor;

const USAGE: &str = "usage: ppuf_loadgen [--smoke] [--connections N] [--pipeline D] \
                     [--rounds R] [--wire json|binary] [--workers N] [--nodes N] \
                     [--deadline S] [--max-connections N] [--label NAME] [--out DIR] \
                     [--serve [--addr HOST:PORT] | --connect HOST:PORT]";

/// Flags that take a value.
const VALUE_FLAGS: [&str; 12] = [
    "--connections",
    "--pipeline",
    "--rounds",
    "--wire",
    "--workers",
    "--nodes",
    "--deadline",
    "--max-connections",
    "--label",
    "--out",
    "--addr",
    "--connect",
];

fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

/// Rejects any argument that is not a known flag (or a known flag's
/// value), so a mistyped or retired flag cannot silently run a
/// different profile.
fn check_args() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if args.next().is_none() {
                usage_error(&format!("{arg} needs a value"));
            }
        } else if arg != "--smoke" && arg != "--serve" {
            usage_error(&format!("unknown flag {arg:?}"));
        }
    }
}

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn parsed<T: FromStr>(flag: &str) -> Option<T> {
    arg_after(flag).map(|value| {
        value.parse().unwrap_or_else(|_| usage_error(&format!("bad {flag} value {value:?}")))
    })
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn cohort_row(name: &str, cohort: &CohortReport) {
    print!(
        "  {name:<9} {:>3} conns  {:>4} rounds  {:>4} accepted  {:>4} deadline-rejected  {:>4} errors",
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

/// Builds the run's profile. `--smoke` picks a CI profile: the paced one,
/// or with `--connections` the concurrency one. `--connections N` is
/// split ~92/4/4 across honest/impostor/garbage cohorts (512 ->
/// 472/20/20, the concurrency smoke).
fn config() -> LoadgenConfig {
    let connections: Option<usize> = parsed("--connections");
    let mut config = match (has_flag("--smoke"), connections) {
        (true, None) => LoadgenConfig::smoke(),
        (true, Some(_)) => LoadgenConfig::concurrency_smoke(),
        (false, _) => LoadgenConfig::default(),
    };
    if let Some(connections) = connections {
        let side = (connections / 25).max(1);
        config.impostor_connections = side;
        config.garbage_connections = side;
        config.honest_connections = connections.saturating_sub(2 * side).max(1);
    }
    if let Some(wire) = arg_after("--wire") {
        config.wire = match wire.as_str() {
            "json" => WireFlavor::Json,
            "binary" => WireFlavor::Binary,
            other => usage_error(&format!("unknown wire flavor {other:?}")),
        };
    }
    config.pipeline = parsed("--pipeline").unwrap_or(config.pipeline);
    config.rounds_per_stream = parsed("--rounds").unwrap_or(config.rounds_per_stream);
    config.dispatch_threads = parsed("--workers").unwrap_or(config.dispatch_threads);
    config.nodes = parsed("--nodes").unwrap_or(config.nodes);
    config.max_connections = parsed("--max-connections").unwrap_or(config.max_connections);
    config.deadline_s = parsed("--deadline").unwrap_or(config.deadline_s);
    config.label = arg_after("--label").unwrap_or(config.label);
    config
}

/// `--serve`: stand up only the server half of the two-process demo and
/// block until killed. The driving process registers the device over
/// the wire, so this side needs no model of its own.
fn serve_forever(template: &LoadgenConfig) -> ! {
    use ppuf_analog::units::Seconds;
    use ppuf_server::service::{ServiceConfig, VerificationService};
    use ppuf_server::{AsyncConfig, AsyncServer};
    use std::sync::Arc;

    let addr = arg_after("--addr").unwrap_or_else(|| "127.0.0.1:4747".to_string());
    let service = VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(template.deadline_s)),
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

fn print_report(report: &LoadgenReport) {
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
    let counter = |name: &str| report.server_counters.get(name).copied().unwrap_or(0);
    println!(
        "  verification cache: {} hits / {} misses",
        counter("server.cache.hits"),
        counter("server.cache.misses")
    );
    let samples = report.prometheus_samples.len();
    match report.correlated_traces {
        Some(n) => println!(
            "  tracing: {n}/{} verdict rounds correlated end to end; {samples} live prometheus samples",
            report.traced_requests
        ),
        None => println!(
            "  tracing: {} verdict rounds traced (span trees stay in the server's process); \
             {samples} live prometheus samples",
            report.traced_requests
        ),
    }
}

fn main() {
    check_args();
    let config = config();
    if has_flag("--serve") {
        serve_forever(&config);
    }
    let out_dir = arg_after("--out").unwrap_or_else(|| SERVICE_DIR.to_string());

    section(&format!("loadgen: {}", config.label));
    println!(
        "  device n={} grid={}; {} connections ({} honest / {} impostor / {} garbage) \
         x pipeline {} x {} rounds, {:?} wire",
        config.nodes,
        config.grid,
        config.connections(),
        config.honest_connections,
        config.impostor_connections,
        config.garbage_connections,
        config.pipeline,
        config.rounds_per_stream,
        config.wire
    );
    println!(
        "  server: {} dispatch threads, queue {}, deadline {} s",
        config.dispatch_threads, config.dispatch_queue, config.deadline_s
    );
    let result = match parsed::<std::net::SocketAddr>("--connect") {
        Some(addr) => {
            println!("  driving external server at {addr}");
            run_loadgen_at(addr, &config)
        }
        None => run_loadgen(&config),
    };
    let report = result.unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });
    print_report(&report);
    let path =
        write_json_report(&config.label, &report.to_json(), &out_dir).expect("report written");
    println!("  report -> {}", path.display());
    if has_flag("--smoke") {
        if let Err(violation) = report.check_smoke_invariants() {
            eprintln!("smoke invariant violated: {violation}");
            std::process::exit(1);
        }
        println!("  smoke invariants hold");
    }
}
