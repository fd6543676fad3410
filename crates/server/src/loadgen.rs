//! Load generator: honest, impostor, and garbage cohorts multiplexed over
//! real sockets against a live server, with latency-percentile reporting.
//!
//! [`run_loadgen`] stands up a real [`AsyncServer`] on a loopback port,
//! registers one generated device, and drives three cohorts of
//! connections from one event-loop client ([`mux::drive`]), each
//! connection carrying [`LoadgenConfig::pipeline`] concurrent request
//! streams:
//!
//! - **honest** streams answer from the device's fast path and must be
//!   accepted;
//! - **impostor** streams model a simulating attacker — the answer is
//!   *correct* but arrives after the deadline (the paper's Ω(n²)
//!   simulation gap, compressed into a hold) and must be rejected on
//!   timing;
//! - **garbage** streams send malformed frames, non-requests, and bogus
//!   nonces and must receive structured errors, never dropped
//!   connections.
//!
//! Two profiles ship: the paced [`LoadgenConfig::smoke`] (ten JSON
//! connections, every verdict round trace-correlated against the
//! server's span trees) and the 512-connection binary-wire
//! [`LoadgenConfig::concurrency_smoke`]. [`run_loadgen_at`] drives the
//! same cohorts against a server in another process.
//!
//! The run report carries client-side latency percentiles (from a
//! bounded [`LogHistogram`] per cohort — fixed memory no matter how long
//! the run), the server's own telemetry snapshot, and the server's final
//! SLO [`HealthReport`], so one JSON file answers "how fast", "what did
//! the server actually do", and "was it healthy at the end".

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ppuf_analog::units::Seconds;
use ppuf_analog::variation::Environment;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{prove, ProverAnswer};
use ppuf_telemetry::{
    next_trace_id, prometheus, HistogramSnapshot, LogHistogram, SampleSummary, TraceId,
};

use crate::health::{HealthReport, HealthStatus};
use crate::mux::{self, Driver, MuxConfig, MuxStats, Outbound, WireFlavor};
use crate::reactor::{AsyncConfig, AsyncServer};
use crate::service::{ServiceConfig, VerificationService};
use crate::tcp::Client;
use crate::wire::{ErrorKind, Request, Response, StatsFormat};
use crate::wire2;

/// Parameters of one load-generation run: the cohorts, the traffic
/// shape, and the server they run against.
///
/// Every connection carries [`pipeline`](Self::pipeline) concurrent
/// request streams, so `connections × pipeline` rounds are in flight at
/// once against one [`AsyncServer`] process.
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

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            label: "loadgen".into(),
            nodes: 8,
            grid: 2,
            seed: 7,
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

impl LoadgenConfig {
    /// The paced CI smoke: a small device behind 2 dispatch threads and a
    /// 0.5 s deadline, 6 honest / 2 impostor / 2 garbage JSON connections
    /// running one stream of 10 rounds each — 100 rounds, with every
    /// verdict round inside a wire-1.1 trace envelope. The impostors'
    /// holds pace the run, so its throughput describes the script.
    pub fn smoke() -> Self {
        LoadgenConfig {
            label: "smoke".into(),
            deadline_s: 0.5,
            honest_connections: 6,
            impostor_connections: 2,
            garbage_connections: 2,
            pipeline: 1,
            rounds_per_stream: 10,
            wire: WireFlavor::Json,
            dispatch_threads: 2,
            dispatch_queue: AsyncConfig::default().dispatch_queue,
            ..LoadgenConfig::default()
        }
    }

    /// The CI concurrency smoke: 512 multiplexed connections (the full
    /// profile raises this to 10k across two processes) on the binary
    /// wire, pipeline depth 2 — more rounds in flight than the dispatch
    /// queue holds, so the server sheds by design.
    pub fn concurrency_smoke() -> Self {
        LoadgenConfig {
            label: "async-smoke".into(),
            honest_connections: 472,
            impostor_connections: 20,
            garbage_connections: 20,
            ..LoadgenConfig::default()
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

    /// Whether the dispatch queue can hold every request the run keeps
    /// in flight. Only then must the server end the run healthy; a run
    /// that overfills the queue is shed by design, and every shed counts
    /// against the overload objective.
    fn fits_dispatch_queue(&self) -> bool {
        self.connections() * self.pipeline <= self.dispatch_queue
    }
}

/// Outcome counts and latency for one client cohort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortReport {
    /// Connections in the cohort.
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
    /// Full-round latency summary in milliseconds of the rounds ending
    /// as the cohort should (honest accepted, impostor deadline-rejected;
    /// garbage rounds are not timed), if any completed — the same
    /// [`SampleSummary`] shape the telemetry report uses
    /// (`min`/`max`/`mean`/`p50`/`p95`/`p99`). Percentiles come from the
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
    /// Verdict rounds whose client-chosen trace id the server echoed
    /// (JSON wire only: wire 2.0 carries no trace envelope).
    pub traced_requests: usize,
    /// Echoed trace ids whose server-side span tree assembled into one
    /// `server.request` root containing `server.queue_wait`,
    /// `server.cache_probe`, and `server.verify` — end-to-end request
    /// correlation, proven. `None` when the server ran in another
    /// process, whose span trees this run cannot see.
    pub correlated_traces: Option<usize>,
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
    /// The server's telemetry counters after the run. The cache, shed
    /// and malformed-request counters are always present (zero-filled),
    /// so a report records them even for a run that never touched them.
    pub server_counters: BTreeMap<String, u64>,
    /// The server's telemetry warnings after the run.
    pub server_warnings: Vec<String>,
    /// Parsed samples from the final Prometheus scrape (validated, and
    /// checked monotone against a scrape taken before traffic).
    pub prometheus_samples: BTreeMap<String, f64>,
    /// The server's SLO assessment (`Request::Health`) right after the
    /// traffic phase.
    pub health: HealthReport,
}

impl LoadgenReport {
    /// Renders the report as indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Checks the invariants every smoke profile promises: every honest
    /// round accepted, every impostor round rejected on the deadline,
    /// every garbage round answered with a structured error on a
    /// *surviving* connection, zero transport failures, the configured
    /// connection count actually concurrently open on the server, a live
    /// Prometheus scrape exposing the headline serving,
    /// reactor and `ppuf_slo_*` metrics plus at least one
    /// `ppuf_profile_self_seconds_total` sample, and no server warnings.
    /// Per wire: every binary response carries its request's correlation
    /// id; on JSON every verdict round carries an echoed trace id and,
    /// in-process, at least one correlates with a complete server span
    /// tree. When the dispatch queue holds every request in flight, the
    /// service must also end the run `Ok`.
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
        match self.config.wire {
            WireFlavor::Binary if self.mux.corr_echoed != self.mux.responses => {
                return Err(format!(
                    "correlation ids echoed on {}/{} binary responses",
                    self.mux.corr_echoed, self.mux.responses
                ));
            }
            WireFlavor::Json if self.traced_requests != h.requests + i.requests => {
                return Err(format!(
                    "trace ids echoed on {}/{} verdict rounds",
                    self.traced_requests,
                    h.requests + i.requests
                ));
            }
            WireFlavor::Json if self.correlated_traces == Some(0) => {
                return Err("no echoed trace id matched a complete server-side span tree".into());
            }
            _ => {}
        }
        let want = self.config.connections() as u64;
        if self.peak_connections < want {
            return Err(format!(
                "peak of {} concurrent connections, {want} configured",
                self.peak_connections
            ));
        }
        for required in [
            "ppuf_cache_hits_total",
            "ppuf_pool_queue_depth",
            "ppuf_pool_rejected_total",
            "ppuf_slo_health",
            "ppuf_slo_latency_p99_seconds",
            "ppuf_conn_open",
            "ppuf_conn_peak",
            "ppuf_conn_accepted_total",
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
        if self.config.fits_dispatch_queue() && self.health.status != HealthStatus::Ok {
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

/// A syntactically valid answer with nonsense content — it must die on
/// the nonce check before any verifier ever sees it.
fn bogus_answer() -> ProverAnswer {
    use ppuf_maxflow::{Flow, NodeId};
    let zero = Flow::from_edge_flows(NodeId::new(0), NodeId::new(1), 0.0, vec![0.0; 4]);
    ProverAnswer { response: true, flow_a: zero.clone(), flow_b: zero }
}

/// Connection role in the run.
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
    /// Final request of the round sent, waiting for the reply; `trace`
    /// is the envelope id a submitted answer went out under.
    AwaitReply { round_start: Instant, trace: Option<u64> },
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
    fn new(config: &LoadgenConfig, ppuf: &'a Ppuf) -> Self {
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
                    // submit inside a trace envelope (JSON wire; the binary
                    // wire ignores it) so the server files its spans under
                    // an id this run can later correlate
                    let trace = next_trace_id().get();
                    self.streams[tag].phase = Phase::AwaitReply { round_start, trace: Some(trace) };
                    return Some((
                        Outbound::Request {
                            request: Request::SubmitAnswer {
                                device_id: DEVICE_ID.into(),
                                nonce,
                                answer: *answer,
                            },
                            trace: Some(trace),
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
                self.streams[tag].phase = Phase::AwaitReply { round_start: now, trace: None };
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
        trace_echo: Option<u64>,
        latency: Duration,
    ) {
        self.request_latency.record(latency.as_secs_f64() * 1e3);
        let role = self.roles[conn];
        let tag = tag as usize;
        let now = Instant::now();
        let phase = std::mem::replace(&mut self.streams[tag].phase, Phase::Ready);
        // a shed round retries fresh (the shed session expires unanswered)
        // after the server-suggested backoff, up to MAX_OVERLOAD_RETRIES
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
            Phase::AwaitReply { round_start, trace } => {
                let round_ms = round_start.elapsed().as_secs_f64() * 1e3;
                let stats = self.cohort(role);
                stats.requests += 1;
                if matches!(response, Response::Verdict { .. })
                    && trace.is_some()
                    && trace == trace_echo
                {
                    stats.trace_ids.extend(trace);
                }
                match (role, response) {
                    (Role::Garbage, Response::Error { .. }) => stats.structured_errors += 1,
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

/// Runs one full load-generation pass: server up, one multiplexed
/// client over `connections × pipeline` streams, report. In-process, the
/// report's transport figures, counters and warnings come from the
/// server's own accounting, and echoed trace ids are matched against its
/// span trees.
///
/// # Errors
///
/// Returns a message if the device cannot be generated, the server
/// cannot bind, registration fails, or the transport breaks a protocol
/// invariant (the engine treats those as hard errors, not counts) —
/// per-round outcomes are *counted*, so one bad round cannot kill a run.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let service = VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(config.deadline_s)),
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
    .map_err(|e| format!("server bind failed: {e}"))?;

    let (mut report, trace_ids) = drive_cohorts(server.local_addr(), config)?;

    // correlate client-side trace ids with the server's span trees
    let recorder = server.service().recorder();
    let correlated = trace_ids
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
    report.correlated_traces = Some(correlated);

    // in-process we can replace the scrape-derived transport and counter
    // figures with the server's own accounting
    let transport = Arc::clone(server.stats());
    let mut snapshot = recorder.snapshot(&config.label);
    server.shutdown();
    for key in [
        "server.cache.hits",
        "server.cache.misses",
        "server.cache.evictions",
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

/// Drives the cohorts against a server that is *already listening* at
/// `addr` — the client half of the two-process high-connection-count
/// demonstration (`ppuf_loadgen --serve` in one process, `--connect` in
/// another, each staying inside its own file descriptor budget).
/// Registers the device (derived deterministically from `config.seed`,
/// so either side can recreate it) over the wire-1.x admin path first.
/// Transport figures (`peak_connections`, sheds, reaps) and the cache
/// counters are taken from the server's live Prometheus
/// scrape; warnings and span trees are not observable cross-process, so
/// warnings report empty and `correlated_traces` is `None`.
///
/// # Errors
///
/// See [`run_loadgen`].
pub fn run_loadgen_at(
    addr: std::net::SocketAddr,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, String> {
    drive_cohorts(addr, config).map(|(report, _)| report)
}

/// The shared body of [`run_loadgen`] and [`run_loadgen_at`]: the report
/// as seen through the wire, plus the echoed trace ids of its verdict
/// rounds.
fn drive_cohorts(
    addr: std::net::SocketAddr,
    config: &LoadgenConfig,
) -> Result<(LoadgenReport, Vec<u64>), String> {
    let ppuf = Ppuf::generate(PpufConfig::paper(config.nodes, config.grid), config.seed)
        .map_err(|e| format!("device generation failed: {e}"))?;
    let model = ppuf.public_model().map_err(|e| format!("model publication failed: {e}"))?;

    // admin traffic rides the blocking wire-1.x client
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

    // second live scrape over a fresh socket: still valid exposition, and
    // every counter must have moved monotonically past the baseline
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

    // cross-process view: transport figures and the cache counters come
    // off the live scrape
    let sample = |name: &str| prometheus_samples.get(name).copied().unwrap_or(0.0) as u64;
    let server_counters = [
        ("server.cache.hits", "ppuf_cache_hits_total"),
        ("server.cache.misses", "ppuf_cache_misses_total"),
    ]
    .into_iter()
    .map(|(counter, metric)| (counter.to_string(), sample(metric)))
    .collect();

    let CohortDriver { honest, impostor, garbage, request_latency, .. } = driver;
    let trace_ids: Vec<u64> = honest.trace_ids.iter().chain(&impostor.trace_ids).copied().collect();
    let total_rounds = honest.requests + impostor.requests + garbage.requests;
    let report = LoadgenReport {
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
        traced_requests: trace_ids.len(),
        correlated_traces: None,
        peak_connections: sample("ppuf_conn_peak"),
        accepted_connections: sample("ppuf_conn_accepted_total"),
        reaped_connections: sample("ppuf_conn_reaped_total"),
        shed_requests: sample("ppuf_pool_rejected_total"),
        server_counters,
        server_warnings: Vec::new(),
        prometheus_samples,
        health,
    };
    Ok((report, trace_ids))
}
