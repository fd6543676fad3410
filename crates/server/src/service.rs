//! The verification service: request dispatch over registry, issuer,
//! verifier, and cache.
//!
//! The verifier checks each of an answer's two flows in one `O(m)` pass
//! over its edges plus a sequential residual BFS with `O(n)` scratch
//! memory; it builds no graph (see [`ppuf_core::protocol::auth`]).
//!
//! Transport-agnostic — [`VerificationService::handle`] maps one
//! [`Request`] to one [`Response`] on the calling thread and is called
//! directly by tests; the async front-end ([`crate::reactor`]) calls
//! `handle_queued` from its dispatch threads, so its dispatch queue is
//! the service's only queue, and `shed` when that queue is full. The
//! verifier produces timeless verdicts (so the cache can reuse them
//! across sessions) and the deadline check lives *here*: the service
//! compares each session's measured elapsed time against the configured
//! deadline.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppuf_analog::units::Seconds;
use ppuf_core::challenge::Challenge;
use ppuf_core::protocol::auth::{ProverAnswer, VerificationReport, Verifier, VERIFY_TOLERANCE};
use ppuf_core::protocol::clock::{Clock, SystemClock};
use ppuf_core::protocol::issuer::{ChallengeIssuer, RedeemError, DEFAULT_SESSION_TTL};
use ppuf_core::public_model::PublicModel;
use ppuf_core::PpufError;
use ppuf_telemetry::{
    next_trace_id, prometheus, record_interval, FlightRecorder, MemoryRecorder, Profiler, Recorder,
    Report, SpanContext, TraceId, TracedSpan, DEFAULT_FLIGHT_EVENTS, DEFAULT_FLIGHT_TRACES,
};

use crate::cache::{answer_fingerprint, challenge_fingerprint, VerificationCache};
use crate::health::{HealthTracker, RequestOutcome, SloConfig};
use crate::registry::{DeviceEntry, DeviceRegistry};
use crate::wire::{ErrorKind, ProfileFormat, Request, Response, StatsFormat};

/// Tunables for one [`VerificationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Read by no part of the service: its verifier's residual BFS is
    /// sequential. The only reader is the repository benchmark's
    /// verifier replay (`perfbench/src/serve.rs`), which passes it to
    /// `ResidualGraph::is_reachable_parallel`.
    pub verify_threads: usize,
    /// Answer deadline (the ESG enforcement knob); `None` disables the
    /// timing check.
    pub deadline: Option<Seconds>,
    /// Unanswered sessions expire after this long.
    pub session_ttl: Seconds,
    /// Absolute current tolerance for the flow checks.
    pub tolerance: f64,
    /// Seed for per-device challenge sampling and nonce salting.
    pub seed: u64,
    /// Flight-recorder trace ring capacity; 0 disables the recorder.
    pub flightrec_traces: usize,
    /// Directory for post-mortem dumps; `None` keeps the recorder
    /// in-memory only (admin `Dump` then returns the counts but no path).
    pub flightrec_dir: Option<String>,
    /// Flow-rejections plus internal errors in the SLO window at which
    /// the failure-burst trigger fires a flight-recorder dump.
    pub failure_burst_threshold: u64,
    /// Newest post-mortem dumps kept on disk per dump directory; older
    /// files are rotated out after each write. 0 disables rotation.
    pub flightrec_keep: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            verify_threads: 1,
            deadline: None,
            session_ttl: DEFAULT_SESSION_TTL,
            tolerance: VERIFY_TOLERANCE,
            seed: 0,
            flightrec_traces: DEFAULT_FLIGHT_TRACES,
            flightrec_dir: None,
            failure_burst_threshold: 8,
            flightrec_keep: DEFAULT_FLIGHTREC_KEEP,
        }
    }
}

/// Default [`ServiceConfig::flightrec_keep`]: dumps retained per
/// directory before rotation deletes the oldest.
pub const DEFAULT_FLIGHTREC_KEEP: usize = 16;

/// Verification cache shard count.
const CACHE_SHARDS: usize = 8;
/// Verification cache entries per shard.
const CACHE_CAPACITY: usize = 1024;
/// Backoff hint attached to `Overloaded` responses, in milliseconds.
const RETRY_AFTER_MS: u64 = 50;
/// Overloaded responses (transport sheds) in the SLO window at which the
/// pool-saturation trigger fires a flight-recorder dump.
const SATURATION_THRESHOLD: u64 = 8;

/// A running verification service (without a transport).
#[derive(Debug)]
pub struct VerificationService {
    config: ServiceConfig,
    registry: DeviceRegistry,
    cache: VerificationCache,
    recorder: Arc<MemoryRecorder>,
    /// The always-on call-path profiler; fed by the recorder's finished
    /// traces and by the analog/maxflow/reactor phase instrumentation.
    profiler: Arc<Profiler>,
    clock: Arc<dyn Clock>,
    health: HealthTracker,
    flight: FlightRecorder,
    dump_seq: AtomicU64,
    /// Last dump time per trigger label — throttles each trigger to at
    /// most one dump per SLO window.
    dump_last: Mutex<std::collections::BTreeMap<&'static str, f64>>,
    /// Transport-tier counters (set by the async front-end); their
    /// `ppuf_conn_*` and dispatch-queue `ppuf_pool_*` gauges join the
    /// Prometheus exposition.
    transport: Mutex<Option<Arc<crate::conn::TransportStats>>>,
}

impl VerificationService {
    /// Builds a service on the system clock.
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Builds a service whose session timing runs on `clock` — tests pass
    /// a [`ManualClock`](ppuf_core::protocol::clock::ManualClock) to
    /// exercise deadlines and expiry without sleeping.
    pub fn with_clock(config: ServiceConfig, clock: Arc<dyn Clock>) -> Self {
        let cache = VerificationCache::new(CACHE_SHARDS, CACHE_CAPACITY);
        let profiler = Arc::new(Profiler::new());
        let mut recorder = MemoryRecorder::new();
        recorder.set_profiler(Arc::clone(&profiler));
        let recorder = Arc::new(recorder);
        let health = HealthTracker::new(SloConfig::default());
        let flight = if config.flightrec_traces == 0 {
            FlightRecorder::disabled()
        } else {
            FlightRecorder::new(config.flightrec_traces, DEFAULT_FLIGHT_EVENTS)
        };
        VerificationService {
            config,
            registry: DeviceRegistry::new(),
            cache,
            recorder,
            profiler,
            clock,
            health,
            flight,
            dump_seq: AtomicU64::new(0),
            dump_last: Mutex::new(std::collections::BTreeMap::new()),
            transport: Mutex::new(None),
        }
    }

    /// Attaches a transport counter block (called by
    /// [`AsyncServer::bind`](crate::reactor::AsyncServer::bind)); its
    /// gauges appear in every later Prometheus scrape. A second
    /// attachment replaces the first.
    pub fn attach_transport(&self, stats: Arc<crate::conn::TransportStats>) {
        *self.transport.lock().expect("transport lock") = Some(stats);
    }

    /// The service's telemetry recorder (counters, spans, warnings).
    pub fn recorder(&self) -> &Arc<MemoryRecorder> {
        &self.recorder
    }

    /// The always-on call-path profiler behind [`Request::Profile`];
    /// transports hand it to their reactor loops for phase attribution.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// The sliding-window SLO tracker behind [`Request::Health`].
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The flight recorder behind [`Request::Dump`] and the dump
    /// triggers.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The device registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Dispatches one request in-process, under a fresh trace id.
    pub fn handle(&self, request: Request) -> Response {
        self.dispatch(request, next_trace_id(), None)
    }

    /// Dispatches one request a transport queued at `enqueued_at`. Its
    /// `server.request` root span in trace `trace` (the id the transport
    /// assigned, or adopted from the client) and its SLO latency both
    /// start at enqueue, and the wait is the root's `server.queue_wait`
    /// child.
    pub(crate) fn handle_queued(
        &self,
        request: Request,
        trace: TraceId,
        enqueued_at: Instant,
    ) -> Response {
        self.dispatch(request, trace, Some(enqueued_at))
    }

    /// Answers a request the transport's full queue turned away, without
    /// running it: `Overloaded` with the configured retry hint, counted
    /// once in `server.pool.rejected` and recorded as an overload in the
    /// SLO window. A shed `SubmitAnswer` leaves its nonce unredeemed.
    /// The async front-end calls this on its event loop, which therefore
    /// writes the pool-saturation dump when a shed fires that trigger (at
    /// most once per SLO window, and only with a dump directory set).
    pub(crate) fn shed(&self, request: &Request, trace: TraceId) -> Response {
        self.recorder.counter_add("server.requests", 1);
        self.recorder.counter_add("server.pool.rejected", 1);
        let response = Response::Error {
            kind: ErrorKind::Overloaded,
            message: "dispatch queue full".into(),
            retry_after_ms: Some(RETRY_AFTER_MS),
        };
        self.observe(request_kind(request), trace, 0.0, &response);
        response
    }

    fn dispatch(&self, request: Request, trace: TraceId, enqueued_at: Option<Instant>) -> Response {
        self.recorder.counter_add("server.requests", 1);
        let kind = request_kind(&request);
        let started = enqueued_at.unwrap_or_else(Instant::now);
        // scoped so the root span closes (and its FinishedSpan lands in
        // the recorder) before the flight recorder harvests the trace
        let response = {
            let recorder = self.recorder.as_ref();
            let mut root = TracedSpan::root_at(recorder, "server.request", trace, started);
            root.attr("kind", kind);
            if let Some(at) = enqueued_at {
                record_interval(recorder, root.context(), "server.queue_wait", at, Instant::now());
            }
            match request {
                Request::Register { device_id, model } => self.register(device_id, model),
                Request::Revoke { device_id } => self.revoke(&device_id),
                Request::GetChallenge { device_id } => self.get_challenge(&device_id),
                Request::SubmitAnswer { device_id, nonce, answer } => {
                    self.submit_answer(&device_id, nonce, answer, root.context())
                }
                Request::Ping => Response::Pong,
                Request::Stats { format } => self.stats(format),
                Request::Health => self.health_response(),
                Request::Dump => self.dump_response(),
                Request::Profile { format } => self.profile_response(format),
            }
        };
        self.observe(kind, trace, started.elapsed().as_secs_f64(), &response);
        response
    }

    /// Post-dispatch accounting: classifies the finished request into the
    /// SLO window, feeds the flight recorder, and checks dump triggers.
    fn observe(&self, kind: &'static str, trace: TraceId, latency_s: f64, response: &Response) {
        let outcome = classify(response);
        let now = self.clock.now().value();
        self.health.record(now, latency_s, outcome);
        if self.flight.enabled() && kind == "SubmitAnswer" {
            self.flight.push_trace(outcome_label(outcome), self.recorder.trace_spans(trace));
            match outcome {
                RequestOutcome::Overloaded => {
                    self.flight.push_event("server.overloaded", &[now, latency_s]);
                }
                RequestOutcome::InternalError => {
                    self.flight.push_event("server.internal_error", &[now, latency_s]);
                }
                _ => {}
            }
        }
        self.check_triggers(now);
    }

    /// Fires a black-box dump when the SLO window crosses a trigger
    /// threshold: a burst of flow rejections / internal errors, or a run
    /// of overload sheds. Each trigger dumps at most once per window.
    fn check_triggers(&self, now: f64) {
        if !self.flight.enabled() || self.config.flightrec_dir.is_none() {
            return;
        }
        let totals = self.health.window_totals(now);
        if totals.rejected_flow + totals.internal_errors >= self.config.failure_burst_threshold {
            self.triggered_dump("failure-burst", now);
        }
        if totals.overloaded >= SATURATION_THRESHOLD {
            self.triggered_dump("pool-saturation", now);
        }
    }

    fn triggered_dump(&self, label: &'static str, now: f64) {
        {
            let mut last = self.dump_last.lock().unwrap_or_else(|e| e.into_inner());
            match last.get(label) {
                Some(&at) if now - at < self.health.config().window_s => return,
                _ => {
                    last.insert(label, now);
                }
            }
        }
        self.recorder.counter_add("flightrec.triggers.fired", 1);
        let report = self.flight.dump(label);
        self.write_dump(label, &report);
    }

    /// Writes one post-mortem report under the configured dump directory,
    /// returning the path (or `None` when no directory is configured or
    /// the write fails — counted, never fatal to the request path).
    fn write_dump(&self, label: &str, report: &Report) -> Option<String> {
        let dir = self.config.flightrec_dir.as_deref()?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let path = std::path::Path::new(dir).join(format!("{label}-{stamp}-{seq:03}.json"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.to_json()));
        match written {
            Ok(()) => {
                self.recorder.counter_add("flightrec.dumps.written", 1);
                self.rotate_dumps(dir);
                Some(path.to_string_lossy().into_owned())
            }
            Err(_) => {
                self.recorder.counter_add("flightrec.dumps.failed", 1);
                None
            }
        }
    }

    /// Keeps the dump directory bounded: retains the newest
    /// [`ServiceConfig::flightrec_keep`] `.json` dumps (by modification
    /// time, then name) and deletes the rest. Errors are counted, never
    /// fatal — rotation is best-effort housekeeping on the admin path.
    fn rotate_dumps(&self, dir: &str) {
        let keep = self.config.flightrec_keep;
        if keep == 0 {
            return;
        }
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut dumps: Vec<(std::time::SystemTime, std::path::PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_some_and(|ext| ext == "json") {
                    let modified = e
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    Some((modified, path))
                } else {
                    None
                }
            })
            .collect();
        if dumps.len() <= keep {
            return;
        }
        dumps.sort();
        let excess = dumps.len() - keep;
        for (_, path) in dumps.into_iter().take(excess) {
            match std::fs::remove_file(&path) {
                Ok(()) => self.recorder.counter_add("flightrec.dumps.rotated", 1),
                Err(_) => self.recorder.counter_add("flightrec.dumps.rotate_failed", 1),
            }
        }
    }

    /// Assesses the SLO window right now ([`Request::Health`]).
    fn health_response(&self) -> Response {
        Response::Health { report: self.health.assess(self.clock.now().value()) }
    }

    /// Snapshots the live call-path profile ([`Request::Profile`]): the
    /// per-path stats as a JSON object, or the folded-stack text ready to
    /// pipe into `flamegraph.pl`.
    fn profile_response(&self, format: ProfileFormat) -> Response {
        let body = match format {
            ProfileFormat::Json => ppuf_telemetry::profile_to_json(&self.profiler.snapshot()),
            ProfileFormat::Folded => self.profiler.fold(),
        };
        Response::Profile { format, body }
    }

    /// Snapshots the flight recorder on demand ([`Request::Dump`]).
    fn dump_response(&self) -> Response {
        let report = self.flight.dump("admin");
        let traces = report.traces.len() as u64;
        let events = report.events.len() as u64;
        let path = self.write_dump("admin", &report);
        Response::Dumped { path, traces, events }
    }

    /// Renders the recorder's live state — counters, span summaries,
    /// events, traces — as a [`Response::Stats`] body: the schema-v2 JSON
    /// report, or Prometheus text exposition with live
    /// `ppuf_cache_entries` / `ppuf_slo_*` gauges, plus the attached
    /// transport's (including the dispatch queue's
    /// `ppuf_pool_queue_depth` / `ppuf_pool_workers`).
    fn stats(&self, format: StatsFormat) -> Response {
        let report = self.recorder.snapshot("ppuf-server live stats");
        let body = match format {
            StatsFormat::Json => report.to_json(),
            StatsFormat::Prometheus => {
                let health = self.health.assess(self.clock.now().value());
                let mut gauges = vec![
                    ("ppuf_cache_entries".to_string(), self.cache.len() as f64),
                    ("ppuf_slo_health".to_string(), health.status.as_gauge()),
                    ("ppuf_slo_window_requests".to_string(), health.requests as f64),
                ];
                for verdict in &health.slos {
                    gauges.push((format!("ppuf_slo_{}", verdict.slo), verdict.value));
                }
                if let Some(transport) = self.transport.lock().expect("transport lock").as_ref() {
                    gauges.extend(transport.gauges());
                }
                prometheus::render(&report, &gauges)
            }
        };
        Response::Stats { format, body }
    }

    fn register(&self, device_id: String, model: PublicModel) -> Response {
        // the model arrived deserialized, so nothing has checked that its
        // parts agree; the verifier indexes by them
        let space = match model.check_shape().and_then(|()| model.grid().challenge_space()) {
            Ok(space) => space,
            Err(e) => {
                return Response::error(ErrorKind::Malformed, format!("unusable model: {e}"));
            }
        };
        let mut issuer = ChallengeIssuer::new(space, self.config.seed ^ device_seed(&device_id))
            .with_clock(Arc::clone(&self.clock))
            .with_ttl(self.config.session_ttl);
        if let Some(deadline) = self.config.deadline {
            issuer = issuer.with_deadline(deadline);
        }
        let verifier = Verifier::new(model).with_tolerance(self.config.tolerance);
        // a re-registration may change the model: stale verdicts must go
        self.cache.invalidate_device(&device_id);
        self.registry.insert(DeviceEntry { device_id: device_id.clone(), verifier, issuer });
        self.recorder.counter_add("server.devices.registered", 1);
        Response::Registered { device_id }
    }

    fn revoke(&self, device_id: &str) -> Response {
        let existed = self.registry.remove(device_id);
        if existed {
            self.cache.invalidate_device(device_id);
            self.recorder.counter_add("server.devices.revoked", 1);
        }
        Response::Revoked { device_id: device_id.to_string(), existed }
    }

    fn get_challenge(&self, device_id: &str) -> Response {
        let Some(entry) = self.registry.get(device_id) else {
            return self.unknown_device(device_id);
        };
        let issued = entry.issuer.issue();
        self.recorder.counter_add("server.challenges.issued", 1);
        Response::Challenge {
            device_id: device_id.to_string(),
            nonce: issued.nonce,
            challenge: issued.challenge,
            deadline_s: issued.deadline.map(|d| d.value()),
        }
    }

    fn submit_answer(
        &self,
        device_id: &str,
        nonce: u64,
        answer: ProverAnswer,
        trace: Option<SpanContext>,
    ) -> Response {
        let Some(entry) = self.registry.get(device_id) else {
            return self.unknown_device(device_id);
        };
        let session = match entry.issuer.redeem(nonce) {
            Ok(session) => session,
            Err(e @ RedeemError::UnknownNonce { .. }) => {
                self.recorder.counter_add("server.replays.rejected", 1);
                return Response::error(ErrorKind::ReplayOrUnknownNonce, e.to_string());
            }
            Err(e @ RedeemError::Expired { .. }) => {
                self.recorder.counter_add("server.sessions.expired", 1);
                return Response::error(ErrorKind::SessionExpired, e.to_string());
            }
        };
        // verify against the challenge bound to the nonce at issue time —
        // the client never gets to choose it
        let (mut report, cached) = match self.verify(&entry, &session.challenge, &answer, trace) {
            Ok(verified) => verified,
            // the challenge and the model passed the service's own checks,
            // so an answer the verifier cannot even read is the client's
            Err(e) => {
                return Response::error(ErrorKind::Malformed, format!("unusable answer: {e}"));
            }
        };
        let within_deadline = match self.config.deadline {
            Some(deadline) => session.elapsed.value() <= deadline.value(),
            None => true,
        };
        report.within_deadline = within_deadline;
        let accepted = report.accepted();
        self.recorder.counter_add(
            if accepted { "server.answers.accepted" } else { "server.answers.rejected" },
            1,
        );
        if !within_deadline {
            self.recorder.counter_add("server.answers.rejected_deadline", 1);
        }
        Response::Verdict {
            device_id: device_id.to_string(),
            nonce,
            accepted,
            report,
            cached,
            elapsed_s: session.elapsed.value(),
        }
    }

    /// Checks `answer` on the calling thread, serving the flow checks
    /// from the cache when this (device, challenge, answer) triple was
    /// verified before — a hit skips the verifier's pass over both flows
    /// and its residual BFS. Returns a
    /// timeless report (its `within_deadline` is always `true`; the
    /// caller applies the deadline) and whether it came from the cache.
    ///
    /// # Errors
    ///
    /// Returns the verifier's error when the answer does not fit the
    /// model (e.g. a flow with the wrong number of edges).
    fn verify(
        &self,
        entry: &DeviceEntry,
        challenge: &Challenge,
        answer: &ProverAnswer,
        trace: Option<SpanContext>,
    ) -> Result<(VerificationReport, bool), PpufError> {
        let recorder = self.recorder.as_ref();
        let mut span = TracedSpan::child_of(recorder, "server.verify", trace);
        let (cached, challenge_fp, answer_fp) = {
            let _probe = span.child("server.cache_probe");
            let challenge_fp = challenge_fingerprint(challenge);
            let answer_fp = answer_fingerprint(answer);
            (self.cache.get(&entry.device_id, challenge_fp, answer_fp), challenge_fp, answer_fp)
        };
        if let Some(report) = cached {
            recorder.counter_add("server.cache.hits", 1);
            span.attr("cached", true);
            return Ok((report, true));
        }
        recorder.counter_add("server.cache.misses", 1);
        span.attr("cached", false);
        let report = entry.verifier.verify(challenge, answer)?;
        let evicted = self.cache.insert(&entry.device_id, challenge_fp, answer_fp, report);
        recorder.counter_add("server.cache.evictions", evicted as u64);
        Ok((report, false))
    }

    fn unknown_device(&self, device_id: &str) -> Response {
        self.recorder.counter_add("server.errors.unknown_device", 1);
        Response::error(ErrorKind::UnknownDevice, format!("device {device_id:?} is not registered"))
    }
}

/// 64-bit digest giving each device id a distinct issuer seed.
fn device_seed(text: &str) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

/// Wire-variant name for the root span's `kind` attribute.
fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Register { .. } => "Register",
        Request::Revoke { .. } => "Revoke",
        Request::GetChallenge { .. } => "GetChallenge",
        Request::SubmitAnswer { .. } => "SubmitAnswer",
        Request::Ping => "Ping",
        Request::Stats { .. } => "Stats",
        Request::Health => "Health",
        Request::Dump => "Dump",
        Request::Profile { .. } => "Profile",
    }
}

/// SLO classification of a finished request by its response shape.
fn classify(response: &Response) -> RequestOutcome {
    match response {
        Response::Verdict { accepted: true, .. } => RequestOutcome::Accepted,
        Response::Verdict { report, .. } if !report.within_deadline => {
            RequestOutcome::RejectedDeadline
        }
        Response::Verdict { .. } => RequestOutcome::RejectedFlow,
        Response::Error { kind: ErrorKind::Overloaded, .. } => RequestOutcome::Overloaded,
        Response::Error { kind: ErrorKind::Internal, .. } => RequestOutcome::InternalError,
        _ => RequestOutcome::Other,
    }
}

/// Flight-recorder trace label (becomes a `flightrec.trace.<label>`
/// counter per retained trace).
fn outcome_label(outcome: RequestOutcome) -> &'static str {
    match outcome {
        RequestOutcome::Accepted => "accepted",
        RequestOutcome::RejectedFlow => "rejected_flow",
        RequestOutcome::RejectedDeadline => "rejected_deadline",
        RequestOutcome::Overloaded => "overloaded",
        RequestOutcome::InternalError => "internal_error",
        RequestOutcome::Other => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppuf_analog::variation::Environment;
    use ppuf_core::device::{Ppuf, PpufConfig};
    use ppuf_core::protocol::auth::prove;
    use ppuf_core::protocol::clock::ManualClock;

    fn service_with_device(
        config: ServiceConfig,
        clock: Arc<ManualClock>,
    ) -> (VerificationService, Ppuf) {
        let service = VerificationService::with_clock(config, clock);
        let ppuf = Ppuf::generate(PpufConfig::paper(6, 2), 31).unwrap();
        let response = service.handle(Request::Register {
            device_id: "dev".into(),
            model: ppuf.public_model().unwrap(),
        });
        assert_eq!(response, Response::Registered { device_id: "dev".into() });
        (service, ppuf)
    }

    fn get_challenge(service: &VerificationService) -> (u64, ppuf_core::challenge::Challenge) {
        match service.handle(Request::GetChallenge { device_id: "dev".into() }) {
            Response::Challenge { nonce, challenge, .. } => (nonce, challenge),
            other => panic!("expected challenge, got {other:?}"),
        }
    }

    #[test]
    fn honest_round_trip_accepted() {
        let clock = Arc::new(ManualClock::new());
        let (service, ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let (nonce, challenge) = get_challenge(&service);
        let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        match service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer }) {
            Response::Verdict { accepted, cached, .. } => {
                assert!(accepted);
                assert!(!cached);
            }
            other => panic!("expected verdict, got {other:?}"),
        }
        assert_eq!(service.recorder().counter("server.answers.accepted"), 1);
    }

    #[test]
    fn server_layer_replay_rejected() {
        let clock = Arc::new(ManualClock::new());
        let (service, ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let (nonce, challenge) = get_challenge(&service);
        let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        let first = service.handle(Request::SubmitAnswer {
            device_id: "dev".into(),
            nonce,
            answer: answer.clone(),
        });
        assert!(matches!(first, Response::Verdict { accepted: true, .. }), "{first:?}");
        // identical bytes, same nonce: the replay must die at the issuer
        let second =
            service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer });
        match second {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ReplayOrUnknownNonce),
            other => panic!("expected replay rejection, got {other:?}"),
        }
        assert_eq!(service.recorder().counter("server.replays.rejected"), 1);
    }

    #[test]
    fn slow_answer_rejected_on_deadline_fast_one_accepted() {
        let clock = Arc::new(ManualClock::new());
        let config = ServiceConfig { deadline: Some(Seconds(0.5)), ..ServiceConfig::default() };
        let (service, ppuf) = service_with_device(config, Arc::clone(&clock));
        let executor = ppuf.executor(Environment::NOMINAL);

        let (nonce, challenge) = get_challenge(&service);
        clock.advance(0.1);
        let answer = prove(&executor, &challenge).unwrap();
        let fast = service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer });
        assert!(matches!(fast, Response::Verdict { accepted: true, .. }), "{fast:?}");

        // a simulating attacker: same correct answer, but past the deadline
        let (nonce, challenge) = get_challenge(&service);
        clock.advance(2.0);
        let answer = prove(&executor, &challenge).unwrap();
        match service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer }) {
            Response::Verdict { accepted, report, elapsed_s, .. } => {
                assert!(!accepted);
                assert!(!report.within_deadline);
                assert!((elapsed_s - 2.0).abs() < 1e-12);
            }
            other => panic!("expected verdict, got {other:?}"),
        }
        assert_eq!(service.recorder().counter("server.answers.rejected_deadline"), 1);
    }

    #[test]
    fn unreadable_answer_is_malformed_not_internal() {
        let clock = Arc::new(ManualClock::new());
        let (service, _ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let (nonce, challenge) = get_challenge(&service);
        // three edge flows for a network with dozens of edges
        let short = ppuf_maxflow::Flow::from_edge_flows(
            challenge.source,
            challenge.sink,
            0.0,
            vec![0.0; 3],
        );
        let answer = ProverAnswer { response: true, flow_a: short.clone(), flow_b: short };
        match service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer }) {
            Response::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::Malformed, "{message}");
                assert!(message.contains("3 edges"), "{message}");
            }
            other => panic!("expected a malformed-answer error, got {other:?}"),
        }
        assert!(service.recorder().warnings().is_empty(), "{:?}", service.recorder().warnings());
        let now = clock.now().value();
        assert_eq!(service.health().window_totals(now).internal_errors, 0);
    }

    #[test]
    fn unknown_device_and_revocation() {
        let clock = Arc::new(ManualClock::new());
        let (service, _ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        match service.handle(Request::GetChallenge { device_id: "ghost".into() }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownDevice),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(
            service.handle(Request::Revoke { device_id: "dev".into() }),
            Response::Revoked { device_id: "dev".into(), existed: true }
        );
        match service.handle(Request::GetChallenge { device_id: "dev".into() }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownDevice),
            other => panic!("expected error after revocation, got {other:?}"),
        }
        assert_eq!(
            service.handle(Request::Revoke { device_id: "dev".into() }),
            Response::Revoked { device_id: "dev".into(), existed: false }
        );
    }

    #[test]
    fn stats_prometheus_exposes_live_metrics() {
        let clock = Arc::new(ManualClock::new());
        let (service, _ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let body = match service.handle(Request::Stats { format: StatsFormat::Prometheus }) {
            Response::Stats { format: StatsFormat::Prometheus, body } => body,
            other => panic!("expected prometheus stats, got {other:?}"),
        };
        let samples = ppuf_telemetry::prometheus::validate(&body).expect("exposition is valid");
        for required in [
            "ppuf_requests_total",
            "ppuf_cache_hits_total",
            "ppuf_cache_misses_total",
            "ppuf_pool_rejected_total",
            "ppuf_cache_entries",
            "ppuf_slo_health",
            "ppuf_slo_window_requests",
            "ppuf_slo_latency_p99_seconds",
            "ppuf_slo_overload_ratio",
            "ppuf_slo_reject_ratio",
        ] {
            assert!(samples.contains_key(required), "missing {required} in:\n{body}");
        }
    }

    #[test]
    fn stats_json_is_a_parseable_schema_v2_report() {
        let clock = Arc::new(ManualClock::new());
        let (service, _ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let body = match service.handle(Request::Stats { format: StatsFormat::Json }) {
            Response::Stats { format: StatsFormat::Json, body } => body,
            other => panic!("expected json stats, got {other:?}"),
        };
        let report = ppuf_telemetry::Report::from_json(&body).expect("stats body parses");
        assert_eq!(report.schema_version, ppuf_telemetry::SCHEMA_VERSION);
    }

    fn temp_dump_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("ppuf-flightrec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn health_reports_ok_on_honest_traffic() {
        let clock = Arc::new(ManualClock::new());
        let min = SloConfig::default().min_requests as usize;
        let (service, ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let executor = ppuf.executor(Environment::NOMINAL);
        // each round is two observed requests (challenge + answer)
        for _ in 0..min.div_ceil(2) {
            let (nonce, challenge) = get_challenge(&service);
            let answer = prove(&executor, &challenge).unwrap();
            let response =
                service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer });
            assert!(matches!(response, Response::Verdict { accepted: true, .. }), "{response:?}");
        }
        match service.handle(Request::Health) {
            Response::Health { report } => {
                assert_eq!(report.status, crate::health::HealthStatus::Ok, "{report:?}");
                assert!(report.requests >= min as u64);
                assert_eq!(report.slos.len(), 3);
            }
            other => panic!("expected health report, got {other:?}"),
        }
    }

    #[test]
    fn health_surface_reflects_overload_in_the_window() {
        let clock = Arc::new(ManualClock::new());
        let (service, _ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        let now = clock.now().value();
        // synthetic shed burst into the live tracker: deterministic, no
        // racing clients needed — the admin command must read it back
        for _ in 0..30 {
            service.health().record(now, 0.001, crate::health::RequestOutcome::Overloaded);
        }
        for _ in 0..10 {
            service.health().record(now, 0.001, crate::health::RequestOutcome::Accepted);
        }
        match service.handle(Request::Health) {
            Response::Health { report } => {
                assert_eq!(report.status, crate::health::HealthStatus::Unhealthy, "{report:?}");
                let slo = report.slo("overload_ratio").unwrap();
                assert!(slo.value > slo.unhealthy_at);
            }
            other => panic!("expected health report, got {other:?}"),
        }
        // the gauge tracks the same assessment
        let body = match service.handle(Request::Stats { format: StatsFormat::Prometheus }) {
            Response::Stats { body, .. } => body,
            other => panic!("expected stats, got {other:?}"),
        };
        let samples = ppuf_telemetry::prometheus::validate(&body).unwrap();
        assert_eq!(samples["ppuf_slo_health"], 2.0);
    }

    #[test]
    fn reject_burst_triggers_a_parseable_flight_dump() {
        let clock = Arc::new(ManualClock::new());
        let dir = temp_dump_dir("burst");
        let config = ServiceConfig {
            flightrec_dir: Some(dir.clone()),
            failure_burst_threshold: 4,
            ..ServiceConfig::default()
        };
        let (service, _ppuf) = service_with_device(config, Arc::clone(&clock));
        // an impostor device of the same shape: answers are well-formed
        // but its flows never match the registered model
        let impostor = Ppuf::generate(PpufConfig::paper(6, 2), 99).unwrap();
        let executor = impostor.executor(Environment::NOMINAL);
        for _ in 0..5 {
            let (nonce, challenge) = get_challenge(&service);
            let answer = prove(&executor, &challenge).unwrap();
            let response =
                service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer });
            assert!(matches!(response, Response::Verdict { accepted: false, .. }), "{response:?}");
        }
        assert_eq!(service.recorder().counter("flightrec.triggers.fired"), 1);
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .expect("dump directory exists")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(dumps.len(), 1, "{dumps:?}");
        let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("failure-burst-"), "{name}");
        let body = std::fs::read_to_string(&dumps[0]).unwrap();
        let report = ppuf_telemetry::Report::from_json(&body).expect("dump parses as a report");
        assert!(!report.traces.is_empty(), "dump must retain the rejected request traces");
        assert!(report.counters.get("flightrec.trace.rejected_flow").copied().unwrap_or(0) >= 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admin_dump_snapshots_the_flight_recorder() {
        let clock = Arc::new(ManualClock::new());
        let dir = temp_dump_dir("admin");
        let config = ServiceConfig { flightrec_dir: Some(dir.clone()), ..ServiceConfig::default() };
        let (service, ppuf) = service_with_device(config, Arc::clone(&clock));
        let (nonce, challenge) = get_challenge(&service);
        let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer });
        match service.handle(Request::Dump) {
            Response::Dumped { path, traces, .. } => {
                assert_eq!(traces, 1, "one submit round retained");
                let path = path.expect("dump directory is configured");
                let body = std::fs::read_to_string(&path).unwrap();
                let report = ppuf_telemetry::Report::from_json(&body).unwrap();
                assert_eq!(report.traces.len(), 1);
            }
            other => panic!("expected dump ack, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_flight_recorder_dump_is_empty_and_pathless() {
        let clock = Arc::new(ManualClock::new());
        let config = ServiceConfig { flightrec_traces: 0, ..ServiceConfig::default() };
        let (service, _ppuf) = service_with_device(config, Arc::clone(&clock));
        match service.handle(Request::Dump) {
            Response::Dumped { path, traces, events } => {
                assert_eq!(path, None);
                assert_eq!(traces, 0);
                assert_eq!(events, 0);
            }
            other => panic!("expected dump ack, got {other:?}"),
        }
    }

    #[test]
    fn profile_admin_command_serves_json_and_folded_renderings() {
        let clock = Arc::new(ManualClock::new());
        let (service, _ppuf) = service_with_device(ServiceConfig::default(), Arc::clone(&clock));
        // the registration's request span is already profiled
        let body = match service.handle(Request::Profile { format: ProfileFormat::Json }) {
            Response::Profile { format: ProfileFormat::Json, body } => body,
            other => panic!("expected json profile, got {other:?}"),
        };
        assert!(body.contains("\"server.request\""), "requests are profiled:\n{body}");
        assert!(body.contains("\"count\""), "{body}");

        let folded = match service.handle(Request::Profile { format: ProfileFormat::Folded }) {
            Response::Profile { format: ProfileFormat::Folded, body } => body,
            other => panic!("expected folded profile, got {other:?}"),
        };
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (path, micros) = line.rsplit_once(' ').expect("folded line is `path micros`");
            assert!(!path.is_empty());
            micros.parse::<u64>().unwrap_or_else(|_| panic!("bad self-micros in {line:?}"));
        }
        assert!(
            folded.lines().any(|l| l.starts_with("server.request ")),
            "request path present:\n{folded}"
        );
        // the live stats report carries the same profile as a section
        let stats = match service.handle(Request::Stats { format: StatsFormat::Json }) {
            Response::Stats { body, .. } => body,
            other => panic!("expected stats, got {other:?}"),
        };
        let report = ppuf_telemetry::Report::from_json(&stats).unwrap();
        assert!(!report.profile.is_empty(), "stats report carries the profile section");
        assert!(report.profile.contains_key("server.request"));
    }

    #[test]
    fn dump_rotation_keeps_only_the_newest_files() {
        let clock = Arc::new(ManualClock::new());
        let dir = temp_dump_dir("rotate");
        let config = ServiceConfig {
            flightrec_dir: Some(dir.clone()),
            flightrec_keep: 2,
            ..ServiceConfig::default()
        };
        let (service, ppuf) = service_with_device(config, Arc::clone(&clock));
        let (nonce, challenge) = get_challenge(&service);
        let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer });
        let mut last_path = None;
        for _ in 0..5 {
            match service.handle(Request::Dump) {
                Response::Dumped { path, .. } => last_path = path,
                other => panic!("expected dump ack, got {other:?}"),
            }
        }
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("dump directory exists")
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 2, "rotation keeps flightrec_keep files: {files:?}");
        let newest = std::path::PathBuf::from(last_path.expect("dump path returned"));
        assert!(files.contains(&newest), "the newest dump survives rotation: {files:?}");
        assert_eq!(service.recorder().counter("flightrec.dumps.rotated"), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_session_rejected() {
        let clock = Arc::new(ManualClock::new());
        let config = ServiceConfig { session_ttl: Seconds(1.0), ..ServiceConfig::default() };
        let (service, ppuf) = service_with_device(config, Arc::clone(&clock));
        let (nonce, challenge) = get_challenge(&service);
        clock.advance(5.0);
        let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        match service.handle(Request::SubmitAnswer { device_id: "dev".into(), nonce, answer }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::SessionExpired),
            other => panic!("expected expiry, got {other:?}"),
        }
    }
}
