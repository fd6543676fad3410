//! Load generator: concurrent honest, impostor, and garbage clients
//! against a live TCP server, with latency-percentile reporting.
//!
//! [`run_loadgen`] stands up a real [`AsyncServer`] on a loopback port,
//! registers one generated device, and drives three cohorts of blocking
//! wire-1.x clients (one thread each) over real sockets:
//!
//! - **honest** clients answer from the device's fast path and must be
//!   accepted;
//! - **impostor** clients model a simulating attacker — the answer is
//!   *correct* but arrives after the deadline (the paper's Ω(n²)
//!   simulation gap, compressed into a sleep) and must be rejected on
//!   timing;
//! - **garbage** clients send malformed frames, non-requests, and bogus
//!   nonces and must receive structured errors, never dropped
//!   connections.
//!
//! [`run_async_loadgen`] drives the same cohorts from one multiplexed
//! event-loop client instead, over thousands of connections.
//!
//! The run report carries client-side latency percentiles (from a
//! bounded [`LogHistogram`] per cohort — fixed memory no matter how long
//! the run), the server's own telemetry snapshot, and the server's final
//! SLO [`HealthReport`], so one JSON file answers "how fast", "what did
//! the server actually do", and "was it healthy at the end".

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use std::collections::BTreeMap;

use ppuf_analog::units::Seconds;
use ppuf_analog::variation::Environment;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{prove, ProverAnswer};
use ppuf_telemetry::{
    next_trace_id, prometheus, HistogramSnapshot, LogHistogram, SampleSummary, TraceId,
};

use crate::health::{HealthReport, HealthStatus};
use crate::reactor::{AsyncConfig, AsyncServer};
use crate::service::{ServiceConfig, VerificationService};
use crate::tcp::Client;
use crate::wire::{ErrorKind, Request, Response, StatsFormat};

/// Parameters of one load-generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenConfig {
    /// Free-text label written into the report.
    pub label: String,
    /// Device size (circuit nodes).
    pub nodes: usize,
    /// Control-grid side length.
    pub grid: usize,
    /// Seed for device generation and server challenge sampling.
    pub seed: u64,
    /// Server dispatch threads — the answers verified in parallel.
    pub workers: usize,
    /// Server rotating challenge pool (> 0 so repeated answers can hit
    /// the verification cache).
    pub challenge_pool: usize,
    /// Server answer deadline in seconds.
    pub deadline_s: f64,
    /// Honest client threads.
    pub honest_clients: usize,
    /// Impostor (deadline-violating) client threads.
    pub impostor_clients: usize,
    /// Garbage (malformed-traffic) client threads.
    pub garbage_clients: usize,
    /// Requests each client thread performs.
    pub requests_per_client: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            label: "loadgen".into(),
            nodes: 8,
            grid: 2,
            seed: 7,
            workers: 2,
            challenge_pool: 4,
            deadline_s: 0.5,
            honest_clients: 4,
            impostor_clients: 2,
            garbage_clients: 2,
            requests_per_client: 5,
        }
    }
}

impl LoadgenConfig {
    /// The CI smoke profile: a small device, 2 dispatch threads, 100
    /// requests total across all cohorts.
    pub fn smoke() -> Self {
        LoadgenConfig {
            label: "smoke".into(),
            honest_clients: 6,
            impostor_clients: 2,
            garbage_clients: 2,
            requests_per_client: 10,
            ..LoadgenConfig::default()
        }
    }

    /// Total requests the run will attempt.
    pub fn total_requests(&self) -> usize {
        (self.honest_clients + self.impostor_clients + self.garbage_clients)
            * self.requests_per_client
    }
}

/// Outcome counts and latency for one client cohort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortReport {
    /// Client threads in the cohort.
    pub clients: usize,
    /// Request rounds attempted.
    pub requests: usize,
    /// Rounds ending in an accepted verdict.
    pub accepted: usize,
    /// Rounds rejected specifically for missing the deadline.
    pub rejected_deadline: usize,
    /// Rounds rejected for any other failed check.
    pub rejected_other: usize,
    /// Rounds answered with a structured error response.
    pub structured_errors: usize,
    /// Overload responses absorbed by retrying with a fresh session.
    pub overload_retries: usize,
    /// Transport-level failures (connection errors, protocol breaches).
    pub io_errors: usize,
    /// Full-round latency summary in milliseconds, if any round completed
    /// (the same [`SampleSummary`] shape the telemetry report uses —
    /// `min`/`max`/`mean`/`p50`/`p95`/`p99`). Percentiles come from the
    /// bounded histogram below, so they overshoot the exact values by at
    /// most one log-bucket width.
    pub latency: Option<SampleSummary>,
    /// The sparse latency histogram the summary was computed from
    /// (milliseconds), for merging and finer-than-percentile analysis.
    pub latency_hist: Option<HistogramSnapshot>,
}

/// The JSON run report written under `results/service/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Echo of the run configuration.
    pub config: LoadgenConfig,
    /// Wall-clock duration of the traffic phase, seconds.
    pub duration_s: f64,
    /// Request rounds completed across all cohorts.
    pub total_requests: usize,
    /// Completed rounds per second of traffic.
    pub throughput_rps: f64,
    /// Honest cohort outcome.
    pub honest: CohortReport,
    /// Impostor cohort outcome.
    pub impostor: CohortReport,
    /// Garbage cohort outcome.
    pub garbage: CohortReport,
    /// The server's telemetry counters after the run. The cache and DC
    /// warm-start counters are always present (zero-filled), so the smoke
    /// report records cache effectiveness even for a run that never hits.
    pub server_counters: BTreeMap<String, u64>,
    /// The server's telemetry warnings after the run.
    pub server_warnings: Vec<String>,
    /// Verdict rounds whose client-chosen trace id the server echoed.
    pub traced_requests: usize,
    /// Echoed trace ids whose server-side span tree assembled into one
    /// root containing `server.queue_wait`, `server.cache_probe`, and
    /// `server.verify` — end-to-end request correlation, proven.
    pub correlated_traces: usize,
    /// Parsed samples from the final live `Stats` Prometheus scrape (the
    /// scrape itself is validated, and checked monotone against one taken
    /// before the traffic phase).
    pub prometheus_samples: BTreeMap<String, f64>,
    /// The server's SLO assessment (`Request::Health`) taken right after
    /// the traffic phase.
    pub health: HealthReport,
}

impl LoadgenReport {
    /// Renders the report as indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Checks the invariants the smoke profile promises: honest traffic
    /// accepted, impostors rejected on the deadline, garbage answered
    /// with structured errors, no transport failures, an effective
    /// verification cache, a warm DC engine, at least one end-to-end
    /// correlated request trace, a live Prometheus scrape exposing the
    /// headline serving metrics (including the `ppuf_slo_*` gauges), and
    /// an `Ok` SLO health verdict at the end of the run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_smoke_invariants(&self) -> Result<(), String> {
        let h = &self.honest;
        if h.accepted != h.requests {
            return Err(format!("honest: {}/{} accepted", h.accepted, h.requests));
        }
        let i = &self.impostor;
        if i.rejected_deadline != i.requests {
            return Err(format!(
                "impostor: {}/{} rejected on deadline",
                i.rejected_deadline, i.requests
            ));
        }
        let g = &self.garbage;
        if g.structured_errors != g.requests {
            return Err(format!(
                "garbage: {}/{} answered with structured errors",
                g.structured_errors, g.requests
            ));
        }
        for (name, cohort) in [("honest", h), ("impostor", i), ("garbage", g)] {
            if cohort.io_errors != 0 {
                return Err(format!("{name}: {} transport failures", cohort.io_errors));
            }
        }
        let counter = |name: &str| self.server_counters.get(name).copied().unwrap_or(0);
        let cache_hits = counter("server.cache.hits");
        if cache_hits == 0 {
            return Err("no verification was served from cache".into());
        }
        let cache_misses = counter("server.cache.misses");
        if cache_hits < cache_misses {
            return Err(format!(
                "cache is ineffective: {cache_hits} hits vs {cache_misses} misses \
                 under a rotating challenge pool"
            ));
        }
        if counter("analog.dc.warm_start_hits") == 0 {
            return Err("the DC engine never warm-started".into());
        }
        if self.traced_requests == 0 {
            return Err("no request round carried an echoed trace id".into());
        }
        if self.correlated_traces == 0 {
            return Err("no echoed trace id matched a complete server-side span tree".into());
        }
        for required in [
            "ppuf_cache_hits_total",
            "ppuf_pool_queue_depth",
            "ppuf_dc_warm_start_hits_total",
            "ppuf_slo_health",
            "ppuf_slo_latency_p99_seconds",
        ] {
            if !self.prometheus_samples.contains_key(required) {
                return Err(format!("prometheus scrape is missing {required}"));
            }
        }
        if self.health.status != HealthStatus::Ok {
            return Err(format!(
                "service ended the run {:?}, not Ok: {:?}",
                self.health.status, self.health.slos
            ));
        }
        if !self.server_warnings.is_empty() {
            return Err(format!("server warnings: {:?}", self.server_warnings));
        }
        Ok(())
    }
}

#[derive(Default)]
struct CohortStats {
    requests: usize,
    accepted: usize,
    rejected_deadline: usize,
    rejected_other: usize,
    structured_errors: usize,
    overload_retries: usize,
    io_errors: usize,
    /// Full-round latencies in milliseconds; bounded no matter how many
    /// rounds the run performs.
    latency: LogHistogram,
    /// Trace ids the server echoed back on verdict rounds.
    trace_ids: Vec<u64>,
}

impl CohortStats {
    fn merge(&mut self, other: CohortStats) {
        self.requests += other.requests;
        self.accepted += other.accepted;
        self.rejected_deadline += other.rejected_deadline;
        self.rejected_other += other.rejected_other;
        self.structured_errors += other.structured_errors;
        self.overload_retries += other.overload_retries;
        self.io_errors += other.io_errors;
        self.latency.merge(&other.latency);
        self.trace_ids.extend(other.trace_ids);
    }

    fn into_report(self, clients: usize) -> CohortReport {
        CohortReport {
            clients,
            requests: self.requests,
            accepted: self.accepted,
            rejected_deadline: self.rejected_deadline,
            rejected_other: self.rejected_other,
            structured_errors: self.structured_errors,
            overload_retries: self.overload_retries,
            io_errors: self.io_errors,
            latency: self.latency.summary(),
            latency_hist: if self.latency.is_empty() {
                None
            } else {
                Some(self.latency.snapshot())
            },
        }
    }
}

const DEVICE_ID: &str = "loadgen-device";
/// Overload retries per round before giving up and counting an error.
const MAX_OVERLOAD_RETRIES: usize = 32;

/// Runs one full load-generation session: server up, traffic, report.
///
/// # Errors
///
/// Returns a message if the device cannot be generated, the server
/// cannot bind, or registration fails — per-request failures are
/// *counted*, not propagated, so one flaky round cannot kill a run.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let ppuf = Ppuf::generate(PpufConfig::paper(config.nodes, config.grid), config.seed)
        .map_err(|e| format!("device generation failed: {e}"))?;
    let model = ppuf.public_model().map_err(|e| format!("model publication failed: {e}"))?;

    let service = VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(config.deadline_s)),
        challenge_pool: config.challenge_pool,
        seed: config.seed,
        ..ServiceConfig::default()
    });
    let mut server = AsyncServer::bind(
        "127.0.0.1:0",
        Arc::new(service),
        AsyncConfig { dispatch_threads: config.workers, ..AsyncConfig::default() },
    )
    .map_err(|e| format!("server bind failed: {e}"))?;
    let addr = server.local_addr();

    let mut registrar =
        Client::connect(addr).map_err(|e| format!("registration connect failed: {e}"))?;
    match registrar
        .request(&Request::Register { device_id: DEVICE_ID.into(), model })
        .map_err(|e| format!("registration failed: {e}"))?
    {
        Response::Registered { .. } => {}
        other => return Err(format!("registration rejected: {other:?}")),
    }
    // first live scrape: the baseline for the monotone-counter check
    let scrape_before = scrape_prometheus(&mut registrar)?;
    drop(registrar);

    let started = Instant::now();
    let (honest, impostor, garbage) = crossbeam::scope(|scope| {
        let mut honest_handles = Vec::new();
        for _ in 0..config.honest_clients {
            let ppuf = &ppuf;
            honest_handles
                .push(scope.spawn(move |_| honest_client(addr, ppuf, config.requests_per_client)));
        }
        let mut impostor_handles = Vec::new();
        for _ in 0..config.impostor_clients {
            let ppuf = &ppuf;
            let delay = Duration::from_secs_f64(config.deadline_s * 1.5 + 0.05);
            impostor_handles
                .push(scope.spawn(move |_| {
                    impostor_client(addr, ppuf, config.requests_per_client, delay)
                }));
        }
        let mut garbage_handles = Vec::new();
        for _ in 0..config.garbage_clients {
            garbage_handles
                .push(scope.spawn(move |_| garbage_client(addr, config.requests_per_client)));
        }
        let mut honest = CohortStats::default();
        for handle in honest_handles {
            honest.merge(handle.join().unwrap_or_default());
        }
        let mut impostor = CohortStats::default();
        for handle in impostor_handles {
            impostor.merge(handle.join().unwrap_or_default());
        }
        let mut garbage = CohortStats::default();
        for handle in garbage_handles {
            garbage.merge(handle.join().unwrap_or_default());
        }
        (honest, impostor, garbage)
    })
    .map_err(|_| "a load-generation thread panicked".to_string())?;
    let duration = started.elapsed().as_secs_f64().max(1e-9);

    // second live scrape over a fresh socket: still valid exposition, and
    // every counter must have moved monotonically past the baseline
    let mut scraper =
        Client::connect(addr).map_err(|e| format!("stats scrape connect failed: {e}"))?;
    let prometheus_samples = scrape_prometheus(&mut scraper)?;
    // the SLO assessment over the same admin connection: the smoke gate
    // fails CI when the service ends a run anything but `Ok`
    let health = match scraper
        .request(&Request::Health)
        .map_err(|e| format!("health scrape failed: {e}"))?
    {
        Response::Health { report } => report,
        other => return Err(format!("expected health report, got {other:?}")),
    };
    drop(scraper);
    prometheus::check_monotone(&scrape_before, &prometheus_samples)
        .map_err(|e| format!("counter regressed between live scrapes: {e}"))?;

    // correlate client-side trace ids with the server's span trees
    let recorder = server.service().recorder();
    let trace_ids: Vec<u64> = honest.trace_ids.iter().chain(&impostor.trace_ids).copied().collect();
    let correlated_traces = trace_ids
        .iter()
        .filter(|&&id| {
            TraceId::from_raw(id)
                .and_then(|trace| recorder.assemble_trace(trace))
                .and_then(Result::ok)
                .is_some_and(|tree| {
                    tree.span.name == "server.request"
                        && ["server.queue_wait", "server.cache_probe", "server.verify"]
                            .iter()
                            .all(|name| tree.contains(name))
                })
        })
        .count();

    let mut snapshot = server.service().recorder().snapshot(&config.label);
    server.shutdown();
    // pin the cache-effectiveness and warm-start counters into the report
    // even when zero, so smoke.json always answers "did the cache work"
    for key in [
        "server.cache.hits",
        "server.cache.misses",
        "server.cache.evictions",
        "analog.dc.warm_start_hits",
        "analog.dc.warm_start_misses",
    ] {
        snapshot.counters.entry(key.into()).or_insert(0);
    }

    let total_requests = honest.requests + impostor.requests + garbage.requests;
    Ok(LoadgenReport {
        config: config.clone(),
        duration_s: duration,
        total_requests,
        throughput_rps: total_requests as f64 / duration,
        traced_requests: trace_ids.len(),
        correlated_traces,
        prometheus_samples,
        health,
        honest: honest.into_report(config.honest_clients),
        impostor: impostor.into_report(config.impostor_clients),
        garbage: garbage.into_report(config.garbage_clients),
        server_counters: snapshot.counters,
        server_warnings: snapshot.warnings,
    })
}

/// Issues one `Stats` admin request and validates the Prometheus text it
/// returns, yielding the parsed `name → value` samples.
fn scrape_prometheus(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    match client
        .request(&Request::Stats { format: StatsFormat::Prometheus })
        .map_err(|e| format!("stats scrape failed: {e}"))?
    {
        Response::Stats { format: StatsFormat::Prometheus, body } => {
            prometheus::validate(&body).map_err(|e| format!("invalid prometheus exposition: {e}"))
        }
        other => Err(format!("expected prometheus stats, got {other:?}")),
    }
}

/// One full challenge/answer round; returns the verdict response.
fn answer_round(
    client: &mut Client,
    ppuf: &Ppuf,
    delay: Option<Duration>,
    stats: &mut CohortStats,
) -> std::io::Result<Option<Response>> {
    for _ in 0..=MAX_OVERLOAD_RETRIES {
        let (nonce, challenge) =
            match client.request(&Request::GetChallenge { device_id: DEVICE_ID.into() })? {
                Response::Challenge { nonce, challenge, .. } => (nonce, challenge),
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("expected challenge, got {other:?}"),
                    ))
                }
            };
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        let answer = match prove(&ppuf.executor(Environment::NOMINAL), &challenge) {
            Ok(answer) => answer,
            Err(e) => {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
            }
        };
        // submit inside the trace envelope so the server files its spans
        // under an id this client can later correlate
        let trace_id = next_trace_id().get();
        let (response, echoed) = client.request_traced(
            Request::SubmitAnswer { device_id: DEVICE_ID.into(), nonce, answer },
            trace_id,
        )?;
        if let Response::Error { kind: ErrorKind::Overloaded, retry_after_ms, .. } = &response {
            stats.overload_retries += 1;
            std::thread::sleep(Duration::from_millis(retry_after_ms.unwrap_or(50)));
            continue; // fresh session: the shed one expires unanswered
        }
        if matches!(response, Response::Verdict { .. }) && echoed == Some(trace_id) {
            stats.trace_ids.push(trace_id);
        }
        return Ok(Some(response));
    }
    Ok(None) // overloaded through every retry
}

fn honest_client(addr: std::net::SocketAddr, ppuf: &Ppuf, requests: usize) -> CohortStats {
    let mut stats = CohortStats::default();
    let Ok(mut client) = Client::connect(addr) else {
        stats.io_errors = requests;
        stats.requests = requests;
        return stats;
    };
    for _ in 0..requests {
        stats.requests += 1;
        let round_start = Instant::now();
        match answer_round(&mut client, ppuf, None, &mut stats) {
            Ok(Some(Response::Verdict { accepted: true, .. })) => {
                stats.accepted += 1;
                stats.latency.record(round_start.elapsed().as_secs_f64() * 1e3);
            }
            Ok(Some(Response::Verdict { report, .. })) => {
                if report.within_deadline {
                    stats.rejected_other += 1;
                } else {
                    stats.rejected_deadline += 1;
                }
            }
            Ok(Some(_)) => stats.structured_errors += 1,
            Ok(None) | Err(_) => stats.io_errors += 1,
        }
    }
    stats
}

fn impostor_client(
    addr: std::net::SocketAddr,
    ppuf: &Ppuf,
    requests: usize,
    delay: Duration,
) -> CohortStats {
    let mut stats = CohortStats::default();
    let Ok(mut client) = Client::connect(addr) else {
        stats.io_errors = requests;
        stats.requests = requests;
        return stats;
    };
    for _ in 0..requests {
        stats.requests += 1;
        let round_start = Instant::now();
        match answer_round(&mut client, ppuf, Some(delay), &mut stats) {
            Ok(Some(Response::Verdict { accepted: false, report, .. }))
                if !report.within_deadline =>
            {
                stats.rejected_deadline += 1;
                stats.latency.record(round_start.elapsed().as_secs_f64() * 1e3);
            }
            Ok(Some(Response::Verdict { accepted: true, .. })) => stats.accepted += 1,
            Ok(Some(Response::Verdict { .. })) => stats.rejected_other += 1,
            Ok(Some(_)) => stats.structured_errors += 1,
            Ok(None) | Err(_) => stats.io_errors += 1,
        }
    }
    stats
}

fn garbage_client(addr: std::net::SocketAddr, requests: usize) -> CohortStats {
    let mut stats = CohortStats::default();
    let Ok(mut client) = Client::connect(addr) else {
        stats.io_errors = requests;
        stats.requests = requests;
        return stats;
    };
    for i in 0..requests {
        stats.requests += 1;
        let outcome = match i % 4 {
            // not JSON at all
            0 => client.send_raw(b"\x7bnot json at all"),
            // valid JSON, not a request
            1 => client.send_raw(b"{\"Bogus\": {\"x\": 1}}"),
            // a request for a device that does not exist
            2 => client.request(&Request::GetChallenge { device_id: "no-such-device".into() }),
            // a well-formed answer for a nonce that was never issued
            _ => client.request(&Request::SubmitAnswer {
                device_id: DEVICE_ID.into(),
                nonce: u64::MAX - i as u64,
                answer: bogus_answer(),
            }),
        };
        match outcome {
            Ok(Response::Error { .. }) => stats.structured_errors += 1,
            Ok(_) => stats.rejected_other += 1,
            Err(_) => stats.io_errors += 1,
        }
    }
    stats
}

/// A syntactically valid answer with nonsense content — it must die on
/// the nonce check before any verifier ever sees it.
fn bogus_answer() -> ProverAnswer {
    use ppuf_maxflow::{Flow, NodeId};
    let zero = Flow::from_edge_flows(NodeId::new(0), NodeId::new(1), 0.0, vec![0.0; 4]);
    ProverAnswer { response: true, flow_a: zero.clone(), flow_b: zero }
}

// ---------------------------------------------------------------------------
// Async (multiplexed) load generation
// ---------------------------------------------------------------------------

use crate::mux::{self, Driver, MuxConfig, MuxStats, Outbound, WireFlavor};
use crate::wire2;

/// Parameters of one multiplexed load-generation run against the async
/// serving tier.
///
/// Unlike [`LoadgenConfig`] (one thread per blocking client), this run
/// drives *connections* from a single event-loop thread: every
/// connection carries [`pipeline`](Self::pipeline) concurrent request
/// streams, so `connections × pipeline` rounds are in flight at once
/// against one [`AsyncServer`] process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncLoadgenConfig {
    /// Free-text label written into the report.
    pub label: String,
    /// Device size (circuit nodes).
    pub nodes: usize,
    /// Control-grid side length.
    pub grid: usize,
    /// Seed for device generation and server challenge sampling.
    pub seed: u64,
    /// Server rotating challenge pool.
    pub challenge_pool: usize,
    /// Server answer deadline in seconds.
    pub deadline_s: f64,
    /// Connections running honest request streams.
    pub honest_connections: usize,
    /// Connections running impostor (deadline-violating) streams.
    pub impostor_connections: usize,
    /// Connections running garbage (malformed-traffic) streams.
    pub garbage_connections: usize,
    /// Concurrent request streams per connection.
    pub pipeline: usize,
    /// Challenge/answer rounds each stream completes.
    pub rounds_per_stream: usize,
    /// Protocol every cohort speaks.
    pub wire: WireFlavor,
    /// Server open-connection cap.
    pub max_connections: usize,
    /// Server dispatch threads — the answers verified in parallel.
    pub dispatch_threads: usize,
    /// Server dispatch queue depth (overflow sheds `Overloaded`).
    pub dispatch_queue: usize,
}

impl Default for AsyncLoadgenConfig {
    fn default() -> Self {
        AsyncLoadgenConfig {
            label: "async-loadgen".into(),
            nodes: 8,
            grid: 2,
            seed: 7,
            challenge_pool: 4,
            deadline_s: 2.0,
            honest_connections: 48,
            impostor_connections: 8,
            garbage_connections: 8,
            pipeline: 2,
            rounds_per_stream: 1,
            wire: WireFlavor::Binary,
            max_connections: 10_000,
            dispatch_threads: 4,
            dispatch_queue: 64,
        }
    }
}

impl AsyncLoadgenConfig {
    /// The CI concurrency smoke: 512 multiplexed connections (the full
    /// profile raises this to 10k across two processes) on the binary
    /// wire, pipeline depth 2.
    pub fn smoke() -> Self {
        AsyncLoadgenConfig {
            label: "async-smoke".into(),
            honest_connections: 472,
            impostor_connections: 20,
            garbage_connections: 20,
            ..AsyncLoadgenConfig::default()
        }
    }

    /// Total connections the run opens.
    pub fn connections(&self) -> usize {
        self.honest_connections + self.impostor_connections + self.garbage_connections
    }

    /// Total rounds the run completes.
    pub fn total_rounds(&self) -> usize {
        self.connections() * self.pipeline * self.rounds_per_stream
    }

    /// The impostor hold time: comfortably past the deadline.
    fn impostor_delay(&self) -> Duration {
        Duration::from_secs_f64(self.deadline_s * 1.5 + 0.05)
    }
}

/// The JSON run report for an async run, written under
/// `results/service/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncLoadgenReport {
    /// Echo of the run configuration.
    pub config: AsyncLoadgenConfig,
    /// Wall-clock duration of the traffic phase, seconds.
    pub duration_s: f64,
    /// Rounds completed across all cohorts.
    pub total_rounds: usize,
    /// Completed rounds per second of traffic.
    pub throughput_rps: f64,
    /// Honest cohort outcome.
    pub honest: CohortReport,
    /// Impostor cohort outcome.
    pub impostor: CohortReport,
    /// Garbage cohort outcome.
    pub garbage: CohortReport,
    /// Transport-level counters from the client engine, including the
    /// correlation-id echo count the smoke gate checks.
    pub mux: MuxStats,
    /// Per-request wire latency (request written → response parsed) in
    /// milliseconds across all cohorts — the serving tier's latency
    /// under concurrent load.
    pub request_latency: Option<SampleSummary>,
    /// The sparse histogram behind [`request_latency`](Self::request_latency).
    pub request_latency_hist: Option<HistogramSnapshot>,
    /// Peak simultaneously-open server connections (from the reactor's
    /// own accounting, scraped after the run).
    pub peak_connections: u64,
    /// Connections the server accepted over the run.
    pub accepted_connections: u64,
    /// Connections reaped for idle/read-deadline timeouts.
    pub reaped_connections: u64,
    /// Requests shed `Overloaded` at the dispatch queue
    /// (`server.pool.rejected`).
    pub shed_requests: u64,
    /// The server's telemetry counters after the run.
    pub server_counters: BTreeMap<String, u64>,
    /// The server's telemetry warnings after the run.
    pub server_warnings: Vec<String>,
    /// Parsed samples from the final Prometheus scrape (validated, and
    /// checked monotone against a scrape taken before traffic).
    pub prometheus_samples: BTreeMap<String, f64>,
    /// The server's SLO assessment after the traffic phase. Recorded,
    /// not gated: a deliberate-overload concurrency run is *expected* to
    /// push the latency and overload objectives past their thresholds.
    pub health: HealthReport,
}

impl AsyncLoadgenReport {
    /// Renders the report as indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Checks the invariants the async smoke promises: every honest
    /// round accepted, every impostor round rejected on the deadline,
    /// every garbage round answered with a structured error on a
    /// *surviving* connection, zero transport failures, every binary
    /// response carrying an echoed correlation id, the configured
    /// connection count actually concurrently open on the server, the
    /// reactor's `ppuf_conn_*` / `ppuf_reactor_*` gauges live in the
    /// Prometheus scrape, and the always-on profiler exported at least
    /// one `ppuf_profile_self_seconds_total` sample.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_smoke_invariants(&self) -> Result<(), String> {
        let h = &self.honest;
        if h.accepted != h.requests {
            return Err(format!("honest: {}/{} accepted", h.accepted, h.requests));
        }
        let i = &self.impostor;
        if i.rejected_deadline != i.requests {
            return Err(format!(
                "impostor: {}/{} rejected on deadline",
                i.rejected_deadline, i.requests
            ));
        }
        let g = &self.garbage;
        if g.structured_errors != g.requests {
            return Err(format!(
                "garbage: {}/{} answered with structured errors",
                g.structured_errors, g.requests
            ));
        }
        for (name, cohort) in [("honest", h), ("impostor", i), ("garbage", g)] {
            if cohort.io_errors != 0 {
                return Err(format!("{name}: {} transport failures", cohort.io_errors));
            }
        }
        if self.mux.responses == 0 {
            return Err("no response ever arrived".into());
        }
        if self.config.wire == WireFlavor::Binary && self.mux.corr_echoed != self.mux.responses {
            return Err(format!(
                "correlation ids echoed on {}/{} binary responses",
                self.mux.corr_echoed, self.mux.responses
            ));
        }
        let want = self.config.connections() as u64;
        if self.peak_connections < want {
            return Err(format!(
                "peak of {} concurrent connections, {want} configured",
                self.peak_connections
            ));
        }
        if self.server_counters.get("server.cache.hits").copied().unwrap_or(0) == 0 {
            return Err("no verification was served from cache".into());
        }
        for required in [
            "ppuf_conn_open",
            "ppuf_conn_peak",
            "ppuf_conn_accepted_total",
            "ppuf_pool_rejected_total",
            "ppuf_reactor_loops_total",
            "ppuf_reactor_events_total",
        ] {
            if !self.prometheus_samples.contains_key(required) {
                return Err(format!("prometheus scrape is missing {required}"));
            }
        }
        if !self
            .prometheus_samples
            .keys()
            .any(|k| k.starts_with("ppuf_profile_self_seconds_total{"))
        {
            return Err("prometheus scrape carries no profile self-time samples".into());
        }
        if !self.server_warnings.is_empty() {
            return Err(format!("server warnings: {:?}", self.server_warnings));
        }
        Ok(())
    }
}

/// Connection role in the async run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Honest,
    Impostor,
    Garbage,
}

/// Where one request stream stands in its current round.
enum Phase {
    /// Will open the next round at the next fill opportunity.
    Ready,
    /// Challenge requested, waiting for it.
    AwaitChallenge { round_start: Instant },
    /// Answer proven, held until `due` (the impostor's simulation gap).
    Hold { nonce: u64, answer: Box<ProverAnswer>, due: Instant, round_start: Instant },
    /// Final request of the round sent, waiting for the reply.
    AwaitReply { round_start: Instant },
    /// Shed `Overloaded`; retries with a fresh round once `due` passes.
    Backoff { due: Instant },
    /// All rounds completed.
    Done,
}

struct StreamState {
    phase: Phase,
    rounds_left: usize,
    retries: usize,
    /// Garbage-case rotation counter.
    case: usize,
}

/// The cohort traffic source/sink plugged into [`mux::drive`].
struct CohortDriver<'a> {
    ppuf: &'a Ppuf,
    wire: WireFlavor,
    pipeline: usize,
    roles: Vec<Role>,
    streams: Vec<StreamState>,
    impostor_delay: Duration,
    /// Streams not yet `Done`.
    remaining: usize,
    honest: CohortStats,
    impostor: CohortStats,
    garbage: CohortStats,
    request_latency: LogHistogram,
}

impl<'a> CohortDriver<'a> {
    fn new(config: &AsyncLoadgenConfig, ppuf: &'a Ppuf) -> Self {
        let mut roles = Vec::with_capacity(config.connections());
        roles.extend(std::iter::repeat_n(Role::Honest, config.honest_connections));
        roles.extend(std::iter::repeat_n(Role::Impostor, config.impostor_connections));
        roles.extend(std::iter::repeat_n(Role::Garbage, config.garbage_connections));
        let streams = (0..roles.len() * config.pipeline)
            .map(|i| StreamState {
                phase: Phase::Ready,
                rounds_left: config.rounds_per_stream,
                retries: 0,
                case: i, // stagger the garbage rotation across streams
            })
            .collect::<Vec<_>>();
        let remaining = streams.len();
        CohortDriver {
            ppuf,
            wire: config.wire,
            pipeline: config.pipeline,
            roles,
            streams,
            impostor_delay: config.impostor_delay(),
            remaining,
            honest: CohortStats::default(),
            impostor: CohortStats::default(),
            garbage: CohortStats::default(),
            request_latency: LogHistogram::default(),
        }
    }

    fn cohort(&mut self, role: Role) -> &mut CohortStats {
        match role {
            Role::Honest => &mut self.honest,
            Role::Impostor => &mut self.impostor,
            Role::Garbage => &mut self.garbage,
        }
    }

    /// Ends the stream's current round and arms the next (or `Done`).
    fn consume_round(&mut self, tag: usize) {
        let stream = &mut self.streams[tag];
        stream.rounds_left -= 1;
        stream.retries = 0;
        if stream.rounds_left == 0 {
            stream.phase = Phase::Done;
            self.remaining -= 1;
        } else {
            stream.phase = Phase::Ready;
        }
    }

    /// One garbage request; every case must come back as a structured
    /// error on a connection that stays up.
    fn garbage_outbound(&self, case: usize, corr: u64) -> Outbound {
        let typed = |case: usize| match case % 2 {
            // a request for a device that does not exist
            0 => Outbound::Request {
                request: Request::GetChallenge { device_id: "no-such-device".into() },
                trace: None,
            },
            // a well-formed answer for a nonce that was never issued
            _ => Outbound::Request {
                request: Request::SubmitAnswer {
                    device_id: DEVICE_ID.into(),
                    nonce: u64::MAX - case as u64,
                    answer: bogus_answer(),
                },
                trace: None,
            },
        };
        match (self.wire, case % 4) {
            // frame-layer-valid, payload garbage — per wire flavor
            (WireFlavor::Json, 0) => {
                let mut frame = Vec::new();
                crate::wire::write_frame(&mut frame, b"\x7bnot json at all")
                    .expect("tiny frame cannot fail");
                Outbound::Raw(frame)
            }
            (WireFlavor::Json, 1) => {
                let mut frame = Vec::new();
                crate::wire::write_frame(&mut frame, b"{\"Bogus\": {\"x\": 1}}")
                    .expect("tiny frame cannot fail");
                Outbound::Raw(frame)
            }
            // well-framed binary, undecodable payload
            (WireFlavor::Binary, 0) => {
                Outbound::Raw(wire2::encode_frame(wire2::opcode::GET_CHALLENGE, corr, &[0xFF; 3]))
            }
            // well-framed binary, unknown opcode
            (WireFlavor::Binary, 1) => Outbound::Raw(wire2::encode_frame(0x55, corr, &[])),
            (_, case) => typed(case),
        }
    }
}

impl Driver for CohortDriver<'_> {
    fn next(&mut self, conn: usize, corr: u64) -> Option<(Outbound, u64)> {
        let role = self.roles[conn];
        let now = Instant::now();
        for s in 0..self.pipeline {
            let tag = conn * self.pipeline + s;
            match &self.streams[tag].phase {
                Phase::Ready => {}
                Phase::Backoff { due } if now >= *due => {}
                Phase::Hold { due, .. } if now >= *due => {
                    let Phase::Hold { nonce, answer, round_start, .. } =
                        std::mem::replace(&mut self.streams[tag].phase, Phase::Ready)
                    else {
                        unreachable!("matched Hold above");
                    };
                    self.streams[tag].phase = Phase::AwaitReply { round_start };
                    return Some((
                        Outbound::Request {
                            request: Request::SubmitAnswer {
                                device_id: DEVICE_ID.into(),
                                nonce,
                                answer: *answer,
                            },
                            trace: None,
                        },
                        tag as u64,
                    ));
                }
                _ => continue,
            }
            // Ready (or expired backoff): open the round
            if role == Role::Garbage {
                let case = self.streams[tag].case;
                self.streams[tag].case = case.wrapping_add(1);
                self.streams[tag].phase = Phase::AwaitReply { round_start: now };
                return Some((self.garbage_outbound(case, corr), tag as u64));
            }
            self.streams[tag].phase = Phase::AwaitChallenge { round_start: now };
            return Some((
                Outbound::Request {
                    request: Request::GetChallenge { device_id: DEVICE_ID.into() },
                    trace: None,
                },
                tag as u64,
            ));
        }
        None
    }

    fn done(
        &mut self,
        conn: usize,
        tag: u64,
        response: Response,
        _trace_echo: Option<u64>,
        latency: Duration,
    ) {
        self.request_latency.record(latency.as_secs_f64() * 1e3);
        let role = self.roles[conn];
        let tag = tag as usize;
        let now = Instant::now();
        let phase = std::mem::replace(&mut self.streams[tag].phase, Phase::Ready);
        // a shed round retries fresh (the shed session expires unanswered)
        // after the server-suggested backoff — up to the same cap the
        // sync path uses
        if let Response::Error { kind: ErrorKind::Overloaded, retry_after_ms, .. } = &response {
            let backoff = Duration::from_millis(retry_after_ms.unwrap_or(50));
            self.streams[tag].retries += 1;
            let exhausted = self.streams[tag].retries > MAX_OVERLOAD_RETRIES;
            self.cohort(role).overload_retries += 1;
            if exhausted {
                self.cohort(role).requests += 1;
                self.cohort(role).io_errors += 1;
                self.consume_round(tag);
            } else {
                self.streams[tag].phase = Phase::Backoff { due: now + backoff };
            }
            return;
        }
        match phase {
            Phase::AwaitChallenge { round_start } => match response {
                Response::Challenge { nonce, challenge, .. } => {
                    match prove(&self.ppuf.executor(Environment::NOMINAL), &challenge) {
                        Ok(answer) => {
                            let due = match role {
                                Role::Impostor => round_start + self.impostor_delay,
                                _ => now,
                            };
                            self.streams[tag].phase =
                                Phase::Hold { nonce, answer: Box::new(answer), due, round_start };
                        }
                        Err(_) => {
                            self.cohort(role).requests += 1;
                            self.cohort(role).io_errors += 1;
                            self.consume_round(tag);
                        }
                    }
                }
                _ => {
                    self.cohort(role).requests += 1;
                    self.cohort(role).structured_errors += 1;
                    self.consume_round(tag);
                }
            },
            Phase::AwaitReply { round_start } => {
                let round_ms = round_start.elapsed().as_secs_f64() * 1e3;
                let stats = self.cohort(role);
                stats.requests += 1;
                match (role, response) {
                    (Role::Garbage, Response::Error { .. }) => {
                        stats.structured_errors += 1;
                        stats.latency.record(round_ms);
                    }
                    (Role::Garbage, _) => stats.rejected_other += 1,
                    (_, Response::Verdict { accepted: true, .. }) => {
                        stats.accepted += 1;
                        if role == Role::Honest {
                            stats.latency.record(round_ms);
                        }
                    }
                    (_, Response::Verdict { report, .. }) => {
                        if report.within_deadline {
                            stats.rejected_other += 1;
                        } else {
                            stats.rejected_deadline += 1;
                            if role == Role::Impostor {
                                stats.latency.record(round_ms);
                            }
                        }
                    }
                    (_, _) => stats.structured_errors += 1,
                }
                self.consume_round(tag);
            }
            _ => {
                // a response with no request outstanding on this stream
                self.cohort(role).io_errors += 1;
                self.streams[tag].phase = phase;
            }
        }
    }

    fn finished(&self) -> bool {
        self.remaining == 0
    }
}

/// Runs one full async load-generation session: async server up, one
/// multiplexed client over `connections × pipeline` streams, report.
///
/// # Errors
///
/// Returns a message if the device cannot be generated, the server
/// cannot bind, registration fails, or the transport breaks a protocol
/// invariant (the engine treats those as hard errors, not counts).
pub fn run_async_loadgen(config: &AsyncLoadgenConfig) -> Result<AsyncLoadgenReport, String> {
    let service = VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(config.deadline_s)),
        challenge_pool: config.challenge_pool,
        seed: config.seed,
        ..ServiceConfig::default()
    });
    let mut server = AsyncServer::bind(
        "127.0.0.1:0",
        Arc::new(service),
        AsyncConfig {
            max_connections: config.max_connections,
            dispatch_threads: config.dispatch_threads,
            dispatch_queue: config.dispatch_queue,
            ..AsyncConfig::default()
        },
    )
    .map_err(|e| format!("async server bind failed: {e}"))?;

    let mut report = run_async_loadgen_at(server.local_addr(), config)?;

    // in-process we can replace the scrape-derived transport and counter
    // figures with the server's own accounting
    let transport = Arc::clone(server.stats());
    let mut snapshot = server.service().recorder().snapshot(&config.label);
    server.shutdown();
    for key in [
        "server.cache.hits",
        "server.cache.misses",
        "server.pool.rejected",
        "server.requests.malformed",
    ] {
        snapshot.counters.entry(key.into()).or_insert(0);
    }
    report.peak_connections = transport.peak();
    report.accepted_connections = transport.accepted();
    report.reaped_connections = transport.reaped();
    report.shed_requests = snapshot.counters["server.pool.rejected"];
    report.server_counters = snapshot.counters;
    report.server_warnings = snapshot.warnings;
    Ok(report)
}

/// Drives the async cohorts against a server that is *already
/// listening* at `addr` — the client half of the two-process
/// high-connection-count demonstration (`ppuf_loadgen --serve` in one
/// process, `--connect` in another, each staying inside its own file
/// descriptor budget). Registers the device (derived deterministically
/// from `config.seed`, so either side can recreate it) over the wire-1.x
/// admin path first. Transport figures (`peak_connections`, sheds,
/// reaps) and the cache counters are taken from the server's live
/// Prometheus scrape; warnings are not observable cross-process and
/// report empty.
///
/// # Errors
///
/// See [`run_async_loadgen`].
pub fn run_async_loadgen_at(
    addr: std::net::SocketAddr,
    config: &AsyncLoadgenConfig,
) -> Result<AsyncLoadgenReport, String> {
    let ppuf = Ppuf::generate(PpufConfig::paper(config.nodes, config.grid), config.seed)
        .map_err(|e| format!("device generation failed: {e}"))?;
    let model = ppuf.public_model().map_err(|e| format!("model publication failed: {e}"))?;

    // admin traffic rides the wire-1.x JSON path of the same async
    // server — live proof the compat mode serves blocking clients
    let mut registrar =
        Client::connect(addr).map_err(|e| format!("registration connect failed: {e}"))?;
    match registrar
        .request(&Request::Register { device_id: DEVICE_ID.into(), model })
        .map_err(|e| format!("registration failed: {e}"))?
    {
        Response::Registered { .. } => {}
        other => return Err(format!("registration rejected: {other:?}")),
    }
    let scrape_before = scrape_prometheus(&mut registrar)?;
    drop(registrar);

    let mut driver = CohortDriver::new(config, &ppuf);
    let mux_config = MuxConfig {
        connections: config.connections(),
        pipeline: config.pipeline,
        wire: config.wire,
        ..MuxConfig::default()
    };
    let started = Instant::now();
    let mux_stats = mux::drive(addr, &mux_config, &mut driver)?;
    let duration = started.elapsed().as_secs_f64().max(1e-9);

    let mut scraper =
        Client::connect(addr).map_err(|e| format!("stats scrape connect failed: {e}"))?;
    let prometheus_samples = scrape_prometheus(&mut scraper)?;
    let health = match scraper
        .request(&Request::Health)
        .map_err(|e| format!("health scrape failed: {e}"))?
    {
        Response::Health { report } => report,
        other => return Err(format!("expected health report, got {other:?}")),
    };
    drop(scraper);
    prometheus::check_monotone(&scrape_before, &prometheus_samples)
        .map_err(|e| format!("counter regressed between live scrapes: {e}"))?;

    // cross-process view: transport figures and cache counters come off
    // the live scrape (the in-process wrapper overwrites them with the
    // server's own accounting)
    let sample = |name: &str| prometheus_samples.get(name).copied().unwrap_or(0.0) as u64;
    let mut server_counters = BTreeMap::new();
    server_counters.insert("server.cache.hits".to_string(), sample("ppuf_cache_hits_total"));
    server_counters.insert("server.cache.misses".to_string(), sample("ppuf_cache_misses_total"));

    let CohortDriver { honest, impostor, garbage, request_latency, .. } = driver;
    let total_rounds = honest.requests + impostor.requests + garbage.requests;
    Ok(AsyncLoadgenReport {
        config: config.clone(),
        duration_s: duration,
        total_rounds,
        throughput_rps: total_rounds as f64 / duration,
        honest: honest.into_report(config.honest_connections),
        impostor: impostor.into_report(config.impostor_connections),
        garbage: garbage.into_report(config.garbage_connections),
        mux: mux_stats,
        request_latency: request_latency.summary(),
        request_latency_hist: if request_latency.is_empty() {
            None
        } else {
            Some(request_latency.snapshot())
        },
        peak_connections: sample("ppuf_conn_peak"),
        accepted_connections: sample("ppuf_conn_accepted_total"),
        reaped_connections: sample("ppuf_conn_reaped_total"),
        shed_requests: sample("ppuf_pool_rejected_total"),
        server_counters,
        server_warnings: Vec::new(),
        prometheus_samples,
        health,
    })
}
