//! The serving workload: one wire-2.0 client connection in a closed loop
//! against an in-process [`AsyncServer`], one verification round
//! (GetChallenge → SubmitAnswer → Verdict) in flight at a time, every
//! round's challenge new to the verification cache.
//!
//! The service runs its default configuration, so its issuer mints a
//! fresh challenge per session from a stream seeded at registration.
//! Set-up learns the first [`PASS`] challenges of that stream and proves
//! their answers with Dinic on the public model: the prover plays the
//! chip, and its compute is not the service's. Re-registering the device
//! after every pass restarts the stream and drops the cached verdicts, so
//! the client holds only [`PASS`] answers. One round in every
//! [`LAZY_PERIOD`] submits a feasible but non-maximal answer (the honest
//! flows scaled by 0.9), which must be rejected.
//!
//! The device and the issuer seed are the same for every seed; the seed
//! picks which rounds are lazy. With them drawn from the seed, a run's
//! median round followed the seed (per-seed medians correlated r ≈ 0.75
//! across three ten-run sets and spanned 143–215 ms), which pushed the
//! spread over ten seeds past 0.25.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppuf_analog::montecarlo::stream;
use ppuf_core::challenge::Challenge;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::ProverAnswer;
use ppuf_core::public_model::{NetworkSide, PublicModel};
use ppuf_maxflow::{Dinic, Flow, ResidualGraph};
use ppuf_server::mux::{self, Driver, MuxConfig, Outbound, WireFlavor};
use ppuf_server::wire::{Request, Response};
use ppuf_server::{wire2, AsyncConfig, AsyncServer, ServiceConfig, VerificationService};
use ppuf_telemetry::SampleSeries;
use rand::Rng;

use crate::measure::{peak_rss_mb, quantile, ratio, series, Outcome, Stamp};

/// One serving workload's shape.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Device size `n`.
    pub nodes: usize,
    /// Control-grid side.
    pub grid: usize,
    /// Rounds on the measuring connection before timing starts.
    pub warmup_rounds: usize,
    /// Timed rounds each timed phase makes at least.
    pub min_rounds: usize,
}

/// Paper-scale device.
pub const FRESH_N900: ServeSpec =
    ServeSpec { name: "serve-fresh-n900", nodes: 900, grid: 8, warmup_rounds: 8, min_rounds: 100 };

/// Rounds between device resets: the challenges set-up learns and
/// proves, and the answers the client holds (≈13 MB each at n = 900).
pub const PASS: usize = 16;

/// Round `k` of a pass submits a lazy answer when `k % LAZY_PERIOD`
/// equals the run's lazy offset (`seed % LAZY_PERIOD`).
pub const LAZY_PERIOD: usize = 8;

/// Lazy answers carry the honest flows scaled by this factor: still
/// feasible, no longer maximal.
const LAZY_SCALE: f64 = 0.9;

const DEVICE_ID: &str = "bench-device";

/// Seed of the device and issuer every run uses.
const INPUT_SEED: u64 = 0;

/// Issuer-seed attempts before giving up on finding a usable pass.
const SEED_ATTEMPTS: u64 = 8;

/// Whether round `k` of a pass submits the lazy answer.
pub fn is_lazy(k: usize, offset: usize) -> bool {
    k % LAZY_PERIOD == offset
}

/// A registered device, the challenges its issuer mints in one pass,
/// and the answers the client submits.
#[derive(Debug)]
pub struct Prepared {
    /// The service the device is registered with.
    pub service: Arc<VerificationService>,
    /// The published model (re-registered on every reset).
    pub model: PublicModel,
    /// The first [`PASS`] challenges the issuer mints after registering.
    pub challenges: Vec<Challenge>,
    /// `answers[k]`, submitted on round `k` of every pass: the honest
    /// answer, or the lazy one when `is_lazy(k, lazy_offset)`. `None`
    /// only while its round's request is being encoded.
    pub answers: Vec<Option<ProverAnswer>>,
    /// `k % LAZY_PERIOD` of the rounds that submit the lazy answer.
    pub lazy_offset: usize,
    /// `Ppuf::generate` seconds.
    pub generate_s: f64,
    /// `Ppuf::public_model` seconds.
    pub publish_s: f64,
    /// Seconds of each `PublicModel::simulate(…, &Dinic)` proof.
    pub prove_s: Vec<f64>,
}

/// Fabricates and publishes the device, registers it in-process with a
/// fresh default-configured service, learns the challenges the issuer
/// mints in one pass and proves the answer each round submits; `seed`
/// picks the lazy rounds.
///
/// # Errors
///
/// Returns a message when the device cannot be built or no issuer seed
/// gives a pass of distinct, resolvable challenges.
fn prepare(spec: &ServeSpec, seed: u64) -> Result<Prepared, String> {
    let config = PpufConfig::paper(spec.nodes, spec.grid);
    let lazy_offset = (seed % LAZY_PERIOD as u64) as usize;
    let t = Instant::now();
    let device = Ppuf::generate(config, stream(INPUT_SEED, 1).gen()).map_err(|e| e.to_string())?;
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = device.public_model().map_err(|e| e.to_string())?;
    let publish_s = t.elapsed().as_secs_f64();
    drop(device);

    // a challenge repeated within a pass would meet its own cached
    // verdict, and one whose two currents tie within the comparator's
    // resolution has no honest answer: either way, pick another seed
    'attempt: for attempt in 0..SEED_ATTEMPTS {
        let service_config = ServiceConfig {
            seed: stream(INPUT_SEED, 100 + attempt).gen(),
            ..ServiceConfig::default()
        };
        let service = Arc::new(VerificationService::new(service_config));
        register(&service, &model)?;
        let mut challenges = Vec::with_capacity(PASS);
        for _ in 0..PASS {
            match service.handle(Request::GetChallenge { device_id: DEVICE_ID.into() }) {
                Response::Challenge { challenge, .. } => challenges.push(challenge),
                other => return Err(format!("learning the issuer's challenges: {other:?}")),
            }
        }
        if (1..PASS).any(|k| challenges[..k].contains(&challenges[k])) {
            continue 'attempt;
        }
        let mut answers = Vec::with_capacity(PASS);
        let mut prove_s = Vec::with_capacity(PASS);
        for (k, challenge) in challenges.iter().enumerate() {
            let t = Instant::now();
            let outcome = model.simulate(challenge, &Dinic::new()).map_err(|e| e.to_string())?;
            prove_s.push(t.elapsed().as_secs_f64());
            let Some(response) = outcome.response else { continue 'attempt };
            let honest = ProverAnswer { response, flow_a: outcome.flow_a, flow_b: outcome.flow_b };
            answers.push(Some(if is_lazy(k, lazy_offset) {
                lazy_answer(&honest, challenge)
            } else {
                honest
            }));
        }
        return Ok(Prepared {
            service,
            model,
            challenges,
            answers,
            lazy_offset,
            generate_s,
            publish_s,
            prove_s,
        });
    }
    Err(format!("no issuer seed in {SEED_ATTEMPTS} attempts gave a usable pass"))
}

/// The honest answer's flows scaled by [`LAZY_SCALE`].
fn lazy_answer(honest: &ProverAnswer, challenge: &Challenge) -> ProverAnswer {
    let scale = |flow: &Flow| {
        Flow::from_edge_flows(
            challenge.source,
            challenge.sink,
            flow.value() * LAZY_SCALE,
            flow.edge_flows().iter().map(|f| f * LAZY_SCALE).collect(),
        )
    };
    ProverAnswer {
        response: honest.response,
        flow_a: scale(&honest.flow_a),
        flow_b: scale(&honest.flow_b),
    }
}

/// Registers (or re-registers) the benchmark device in-process. A
/// paper-scale Register frame exceeds the wire's frame cap, so this never
/// crosses the socket. Re-registering drops the device's cached verdicts
/// and restarts its issuer's challenge stream.
fn register(service: &VerificationService, model: &PublicModel) -> Result<(), String> {
    match service.handle(Request::Register { device_id: DEVICE_ID.into(), model: model.clone() }) {
        Response::Registered { .. } => Ok(()),
        other => Err(format!("register: {other:?}")),
    }
}

/// Whether a verdict is the right one for its round: the planned device
/// and nonce, not served from the cache, honest answers accepted, lazy
/// answers rejected as feasible but not maximal on both networks.
fn verdict_ok(response: &Response, nonce: u64, lazy: bool) -> bool {
    let Response::Verdict { device_id, nonce: echoed, accepted, report, cached, .. } = response
    else {
        return false;
    };
    let verdict = if lazy {
        !accepted
            && report.network_a.feasible
            && report.network_b.feasible
            && !report.network_a.maximal
            && !report.network_b.maximal
    } else {
        *accepted
    };
    device_id == DEVICE_ID && *echoed == nonce && verdict && !cached
}

/// Cumulative service-side telemetry at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct ServiceSnapshot {
    /// `(count, seconds)` of spans `server.request`, `server.queue_wait`,
    /// `server.verify`, `server.cache_probe`.
    spans: [(u64, f64); 4],
    /// Counters `server.cache.hits`, `server.cache.misses`,
    /// `server.pool.rejected`.
    counters: [u64; 3],
    /// Profile wall seconds of `server.reactor;{parse,dispatch,write,poll_wait}`.
    reactor: [f64; 4],
}

const SPANS: [&str; 4] =
    ["server.request", "server.queue_wait", "server.verify", "server.cache_probe"];
const COUNTERS: [&str; 3] = ["server.cache.hits", "server.cache.misses", "server.pool.rejected"];
const REACTOR: [&str; 4] = [
    "server.reactor;parse",
    "server.reactor;dispatch",
    "server.reactor;write",
    "server.reactor;poll_wait",
];

impl ServiceSnapshot {
    fn take(service: &VerificationService) -> Self {
        let recorder = service.recorder();
        let profile = service.profiler().snapshot();
        ServiceSnapshot {
            spans: SPANS
                .map(|name| recorder.span_stats(name).map_or((0, 0.0), |s| (s.count, s.sum))),
            counters: COUNTERS.map(|name| recorder.counter(name)),
            reactor: REACTOR.map(|path| profile.get(path).map_or(0.0, |s| s.wall_s)),
        }
    }

    /// `(count, seconds)` of span `i` accrued since `before`.
    fn span(&self, before: &Self, i: usize) -> (f64, f64) {
        ((self.spans[i].0 - before.spans[i].0) as f64, self.spans[i].1 - before.spans[i].1)
    }

    fn counter(&self, before: &Self, i: usize) -> f64 {
        (self.counters[i] - before.counters[i]) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PhaseKind {
    Warmup,
    Timed { traced: bool },
}

/// What one phase of rounds measured.
#[derive(Debug)]
struct Phase {
    kind: PhaseKind,
    start: Option<Stamp>,
    end: Option<Stamp>,
    /// Wall time, CPU time and page faults of device resets inside the
    /// phase, left out of its throughput, CPU and fault figures.
    paused: (Duration, f64, f64),
    /// `(count, seconds)` of the `server.request` spans those resets
    /// recorded, left out of the service-side layer figures.
    paused_requests: (u64, f64),
    /// `(position in the pass, milliseconds)` of each round.
    rounds: Vec<(usize, f64)>,
    failed: u64,
    /// SubmitAnswer encodes timed (traced phase only).
    encode_s: f64,
    encode_count: u64,
    submit_bytes: u64,
    before: Option<ServiceSnapshot>,
}

impl Phase {
    fn new(kind: PhaseKind) -> Self {
        Phase {
            kind,
            start: None,
            end: None,
            paused: (Duration::ZERO, 0.0, 0.0),
            paused_requests: (0, 0.0),
            rounds: Vec::new(),
            failed: 0,
            encode_s: 0.0,
            encode_count: 0,
            submit_bytes: 0,
            before: None,
        }
    }

    /// The round times as a sample series.
    fn round_ms(&self) -> SampleSeries {
        series(self.rounds.iter().map(|&(_, ms)| ms))
    }

    /// `(wall_s, cpu_s, minor_faults)` of the phase, resets excluded.
    fn busy(&self) -> (f64, f64, f64) {
        match (&self.start, &self.end) {
            (Some(start), Some(end)) => {
                let (wall, cpu) = start.until(end);
                (
                    wall.saturating_sub(self.paused.0).as_secs_f64(),
                    cpu - self.paused.1,
                    start.faults_until(end) - self.paused.2,
                )
            }
            _ => (0.0, 0.0, 0.0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    AwaitChallenge,
    Submit,
    AwaitVerdict,
    Done,
}

/// The closed-loop client: walks its phases round by round.
struct Rounds<'a> {
    spec: &'a ServeSpec,
    prepared: &'a mut Prepared,
    /// A timed phase lasts this long and at least `spec.min_rounds` rounds.
    seconds: f64,
    phases: Vec<Phase>,
    current: usize,
    /// Round of the current pass (rounds since the last device reset).
    k: usize,
    state: State,
    round_start: Instant,
    round_failed: bool,
    nonce: u64,
    problems: Vec<String>,
}

impl<'a> Rounds<'a> {
    fn new(
        spec: &'a ServeSpec,
        prepared: &'a mut Prepared,
        seconds: f64,
        kinds: &[PhaseKind],
    ) -> Self {
        Rounds {
            spec,
            prepared,
            seconds,
            phases: kinds.iter().map(|&kind| Phase::new(kind)).collect(),
            current: 0,
            k: 0,
            state: State::Idle,
            round_start: Instant::now(),
            round_failed: false,
            nonce: 0,
            problems: Vec::new(),
        }
    }

    fn reset(&mut self) {
        if let Err(e) = register(&self.prepared.service, &self.prepared.model) {
            self.problems.push(format!("device reset failed: {e}"));
        }
        self.k = 0;
    }

    /// A reset inside a phase, its time and its request span booked as
    /// paused.
    fn paused_reset(&mut self) {
        let requests = |service: &VerificationService| {
            service.recorder().span_stats(SPANS[0]).map_or((0, 0.0), |s| (s.count, s.sum))
        };
        let before = (Stamp::now(), requests(&self.prepared.service));
        self.reset();
        let after = (Stamp::now(), requests(&self.prepared.service));
        let (wall, cpu) = before.0.until(&after.0);
        let phase = &mut self.phases[self.current];
        phase.paused.0 += wall;
        phase.paused.1 += cpu;
        phase.paused.2 += before.0.faults_until(&after.0);
        phase.paused_requests.0 += after.1 .0 - before.1 .0;
        phase.paused_requests.1 += after.1 .1 - before.1 .1;
    }

    /// Starts the current phase at the head of a pass, and before a
    /// traced phase lets the reactor flush its phase times (it does so
    /// once per sweep interval) and snapshots the service.
    fn begin_phase(&mut self) {
        self.reset();
        let phase = &mut self.phases[self.current];
        if phase.kind == (PhaseKind::Timed { traced: true }) {
            std::thread::sleep(
                AsyncConfig::default().sweep_interval * 2 + Duration::from_millis(50),
            );
            phase.before = Some(ServiceSnapshot::take(&self.prepared.service));
        }
        phase.start = Some(Stamp::now());
    }

    fn phase_over(&self) -> bool {
        let phase = &self.phases[self.current];
        match phase.kind {
            PhaseKind::Warmup => phase.rounds.len() >= self.spec.warmup_rounds,
            PhaseKind::Timed { .. } => {
                let start = phase.start.as_ref().expect("phase started");
                let busy = start.wall_elapsed().saturating_sub(phase.paused.0).as_secs_f64();
                phase.rounds.len() >= self.spec.min_rounds && busy >= self.seconds
            }
        }
    }

    fn lazy(&self) -> bool {
        is_lazy(self.k, self.prepared.lazy_offset)
    }

    fn finish_round(&mut self) {
        let ms = self.round_start.elapsed().as_secs_f64() * 1e3;
        let phase = &mut self.phases[self.current];
        phase.rounds.push((self.k, ms));
        if self.round_failed {
            phase.failed += 1;
            if phase.kind == PhaseKind::Warmup {
                let round = phase.rounds.len();
                self.problems.push(format!("warm-up round {round} failed its check"));
            }
        }
        self.k += 1;
        self.state = State::Idle;
    }

    fn traced(&self) -> bool {
        self.phases[self.current].kind == PhaseKind::Timed { traced: true }
    }
}

impl Driver for Rounds<'_> {
    fn next(&mut self, _conn: usize, corr: u64) -> Option<(Outbound, u64)> {
        match self.state {
            State::Idle => {
                loop {
                    if self.current == self.phases.len() {
                        self.state = State::Done;
                        return None;
                    }
                    if self.phases[self.current].start.is_none() {
                        self.begin_phase();
                    }
                    if !self.phase_over() {
                        break;
                    }
                    self.phases[self.current].end = Some(Stamp::now());
                    self.current += 1;
                }
                if self.k == PASS {
                    self.paused_reset();
                }
                self.round_start = Instant::now();
                self.round_failed = false;
                self.state = State::AwaitChallenge;
                let request = Request::GetChallenge { device_id: DEVICE_ID.into() };
                Some((Outbound::Raw(wire2::encode_request(corr, &request)), 0))
            }
            State::Submit => {
                let k = self.k;
                let answer =
                    self.prepared.answers[k].take().expect("the previous round put it back");
                let request = Request::SubmitAnswer {
                    device_id: DEVICE_ID.into(),
                    nonce: self.nonce,
                    answer,
                };
                let traced = self.traced();
                let t = Instant::now();
                let frame = wire2::encode_request(corr, &request);
                let encode_s = t.elapsed().as_secs_f64();
                let phase = &mut self.phases[self.current];
                if traced {
                    phase.encode_s += encode_s;
                    phase.encode_count += 1;
                }
                phase.submit_bytes += frame.len() as u64;
                if let Request::SubmitAnswer { answer, .. } = request {
                    self.prepared.answers[k] = Some(answer);
                }
                self.state = State::AwaitVerdict;
                Some((Outbound::Raw(frame), 1))
            }
            State::AwaitChallenge | State::AwaitVerdict | State::Done => None,
        }
    }

    fn done(
        &mut self,
        _conn: usize,
        _tag: u64,
        response: Response,
        _trace_echo: Option<u64>,
        _latency: Duration,
    ) {
        match (self.state, response) {
            (State::AwaitChallenge, Response::Challenge { device_id, nonce, challenge, .. }) => {
                if device_id != DEVICE_ID || challenge != self.prepared.challenges[self.k] {
                    self.round_failed = true;
                }
                self.nonce = nonce;
                self.state = State::Submit;
            }
            (State::AwaitVerdict, response) => {
                if !verdict_ok(&response, self.nonce, self.lazy()) {
                    self.round_failed = true;
                }
                self.finish_round();
            }
            (_, _) => {
                self.round_failed = true;
                self.finish_round();
            }
        }
    }

    fn finished(&self) -> bool {
        self.state == State::Done
    }
}

/// Runs the serving workload (see [`crate::run`]).
///
/// # Errors
///
/// Returns a message when set-up fails, the server cannot bind, or the
/// client connection breaks.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    run_prepared(spec, seed, seconds, trace, |_| {})
}

/// [`run`] with a hook that may alter the prepared inputs before the
/// measuring connection starts — the self-tests use it to plant a wrong
/// answer and check that the run counts it as failed.
///
/// # Errors
///
/// As [`run`].
pub fn run_prepared(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    alter: impl FnOnce(&mut Prepared),
) -> Result<Outcome, String> {
    let mux_config =
        MuxConfig { connections: 1, pipeline: 1, wire: WireFlavor::Binary, ..MuxConfig::default() };
    // set-up runs from here to the end of the warm-up
    let start = Stamp::now();
    let mut prepared = prepare(spec, seed)?;
    alter(&mut prepared);
    let kinds: &[PhaseKind] = if trace {
        &[PhaseKind::Warmup, PhaseKind::Timed { traced: false }, PhaseKind::Timed { traced: true }]
    } else {
        &[PhaseKind::Warmup, PhaseKind::Timed { traced: false }]
    };
    let mut server =
        AsyncServer::bind("127.0.0.1:0", Arc::clone(&prepared.service), AsyncConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
    let mut rounds = Rounds::new(spec, &mut prepared, seconds, kinds);
    mux::drive(server.local_addr(), &mux_config, &mut rounds)?;
    // shutting down flushes the reactor's last phase times to the profiler
    server.shutdown();
    let Rounds { phases, problems, .. } = rounds;
    let mut outcome = Outcome { problems, ..Outcome::default() };
    for phase in &phases[1..] {
        outcome.attempted += phase.rounds.len() as u64;
        outcome.failed += phase.failed;
    }
    let setup_s = phases[0].end.map_or(0.0, |end| start.until(&end).0.as_secs_f64());

    if trace {
        let after = ServiceSnapshot::take(&prepared.service);
        per_layer(&mut outcome, &mut prepared, &phases[1], &phases[2], &after);
    } else {
        let timed = &phases[1];
        let rounds = timed.rounds.len() as f64;
        let round_ms = timed.round_ms();
        let (wall_s, cpu_s, _) = timed.busy();
        outcome.rounds = timed.rounds.clone();
        outcome.set("setup_s", setup_s);
        outcome.set("round_p50_ms", quantile(&round_ms, 0.5));
        outcome.set("round_p90_ms", quantile(&round_ms, 0.9));
        outcome.set("rounds_per_s", ratio(rounds, wall_s));
        outcome.set("solve_s", ratio(wall_s, rounds));
        outcome.set("cpu_ms", ratio(cpu_s * 1e3, rounds));
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(outcome)
}

/// The traced pass's per-layer metrics: service spans, counters and
/// reactor profile accrued over the traced phase, the client's encode
/// timings, and timed replays of the wire decode and the verifier's
/// steps on the traced phase's first pass.
fn per_layer(
    outcome: &mut Outcome,
    prepared: &mut Prepared,
    untraced: &Phase,
    traced: &Phase,
    after: &ServiceSnapshot,
) {
    let before = traced.before.unwrap_or_default();
    let rounds = traced.rounds.len() as f64;
    let per_round_ms = |seconds: f64| ratio(seconds * 1e3, rounds);
    let mean_ms = |(count, seconds): (f64, f64)| ratio(seconds * 1e3, count);
    let [mut request, queue_wait, verify, probe] = [0, 1, 2, 3].map(|i| after.span(&before, i));
    request.0 -= traced.paused_requests.0 as f64;
    request.1 -= traced.paused_requests.1;
    let [hits, misses, rejected] = [0, 1, 2].map(|i| after.counter(&before, i));

    outcome.set("trace.operations", rounds);
    outcome.set(
        "trace.overhead_ratio",
        ratio(quantile(&traced.round_ms(), 0.5), quantile(&untraced.round_ms(), 0.5)),
    );
    outcome.set("client.encode_ms", ratio(traced.encode_s * 1e3, traced.encode_count as f64));
    outcome.set("client.encode_count", traced.encode_count as f64);
    outcome.set("wire2.request_bytes", ratio(traced.submit_bytes as f64, rounds));
    for (name, i) in [
        ("reactor.parse_ms", 0),
        ("reactor.dispatch_ms", 1),
        ("reactor.write_ms", 2),
        ("reactor.poll_wait_ms", 3),
    ] {
        outcome.set(name, per_round_ms(after.reactor[i] - before.reactor[i]));
    }
    outcome.set("service.request_ms", mean_ms(request));
    outcome.set("service.request_count", request.0);
    outcome.set("pool.queue_wait_ms", mean_ms(queue_wait));
    outcome.set("pool.queue_wait_count", queue_wait.0);
    outcome.set("pool.overloaded", rejected);
    outcome.set("cache.probe_ms", mean_ms(probe));
    outcome.set("cache.probe_count", probe.0);
    outcome.set("cache.hit_ratio", ratio(hits, hits + misses));
    outcome.set("verify.self_ms", ratio((verify.1 - probe.1) * 1e3, verify.0));
    outcome.set("verify.count", verify.0);
    let mean_round_ms = traced.rounds.iter().map(|&(_, ms)| ms).sum::<f64>() / rounds.max(1.0);
    outcome.set("transport.unattributed_ms", mean_round_ms - per_round_ms(request.1));
    outcome.set("process.minor_faults", ratio(traced.busy().2, rounds));
    outcome.set("setup.generate_s", prepared.generate_s);
    outcome.set("setup.publish_s", prepared.publish_s);
    outcome.set(
        "setup.prove_ms",
        ratio(prepared.prove_s.iter().sum::<f64>() * 1e3, prepared.prove_s.len() as f64),
    );
    outcome.set("setup.prove_count", prepared.prove_s.len() as f64);

    if rejected > 0.0 {
        outcome.problems.push(format!("{rejected} SubmitAnswer requests were shed as overloaded"));
    }
    if hits > 0.0 {
        outcome.problems.push(format!("{hits} verdicts came from the cache on the traced phase"));
    }
    let first_pass = &traced.rounds[..traced.rounds.len().min(PASS)];
    replay(outcome, prepared, first_pass.iter().map(|&(k, _)| k));
}

/// Times the decode of each round's SubmitAnswer frame and the
/// verifier's three steps per network, on the rounds' own inputs, and
/// checks each step's answer against the round's expected verdict.
fn replay(outcome: &mut Outcome, prepared: &Prepared, rounds: impl Iterator<Item = usize>) {
    let config = ServiceConfig::default();
    let (mut decode_s, mut network_s, mut feasible_s, mut residual_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut frames, mut networks) = (0u64, 0u64);
    for k in rounds {
        let lazy = is_lazy(k, prepared.lazy_offset);
        let request = Request::SubmitAnswer {
            device_id: DEVICE_ID.into(),
            nonce: 1,
            answer: prepared.answers[k].clone().expect("no round is in flight"),
        };
        let frame = wire2::encode_request(1, &request);
        let t = Instant::now();
        let decoded = wire2::parse_frame(&frame)
            .ok()
            .flatten()
            .and_then(|(frame, _)| wire2::decode_request(&frame).ok());
        decode_s += t.elapsed().as_secs_f64();
        frames += 1;
        let Some(Request::SubmitAnswer { answer, .. }) = decoded.filter(|d| *d == request) else {
            outcome.problems.push(format!("wire 2.0 round trip changed round {k}'s answer"));
            continue;
        };
        let challenge = &prepared.challenges[k];
        for (side, flow) in [(NetworkSide::A, &answer.flow_a), (NetworkSide::B, &answer.flow_b)] {
            let t = Instant::now();
            let Ok(net) = prepared.model.flow_network(side, challenge) else {
                outcome.problems.push(format!("flow network for round {k} failed"));
                continue;
            };
            let t1 = Instant::now();
            let feasible =
                flow.check_feasible(&net, config.tolerance).is_ok_and(|r| r.is_feasible());
            let t2 = Instant::now();
            let maximal = ResidualGraph::new(&net, flow, config.tolerance)
                .and_then(|r| {
                    r.is_reachable_parallel(challenge.source, challenge.sink, config.verify_threads)
                })
                .map(|reachable| !reachable);
            let t3 = Instant::now();
            network_s += (t1 - t).as_secs_f64();
            feasible_s += (t2 - t1).as_secs_f64();
            residual_s += (t3 - t2).as_secs_f64();
            networks += 1;
            if !feasible || maximal != Ok(!lazy) {
                outcome.problems.push(format!("replayed verifier steps disagree on round {k}"));
            }
        }
    }
    let per_call_ms = |seconds: f64, count: u64| ratio(seconds * 1e3, count as f64);
    outcome.set("wire2.decode_ms", per_call_ms(decode_s, frames));
    outcome.set("wire2.decode_count", frames as f64);
    outcome.set("verify.flow_network_ms", per_call_ms(network_s, networks));
    outcome.set("verify.feasible_ms", per_call_ms(feasible_s, networks));
    outcome.set("verify.residual_ms", per_call_ms(residual_s, networks));
    outcome.set("verify.network_count", networks as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_rounds_follow_the_period_from_the_seeds_offset() {
        let lazy = |offset| (0..PASS).filter(|&k| is_lazy(k, offset)).collect::<Vec<usize>>();
        assert_eq!(lazy(7), vec![7, 15]);
        assert_eq!(lazy(2), vec![2, 10]);
    }
}
