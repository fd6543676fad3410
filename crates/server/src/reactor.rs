//! Readiness-driven serving tier: one event-loop thread, thousands of
//! connections.
//!
//! [`AsyncServer`] replaces thread-per-connection scaling with a single
//! thread running an epoll event loop (the vendored [`mio`] poller). The
//! loop owns every socket: it accepts, sniffs the wire mode off each
//! connection's first byte (wire 1.x JSON vs. wire 2.0 binary — see
//! [`crate::wire2`]), parses pipelined requests, and hands each one to a
//! small **dispatch pool** over a bounded channel — the service's only
//! queue. Dispatch threads run the blocking
//! `VerificationService::handle_queued`, which verifies answers on the
//! calling thread, and post completions back; a [`Waker`] pulls the loop
//! out of `epoll_wait` to encode and flush them. Throughput is therefore
//! bounded by `dispatch_threads` verifying in parallel, not by the I/O
//! tier.
//!
//! Overload and abuse handling is explicit at every layer:
//!
//! - **connection cap** — accepts beyond [`AsyncConfig::max_connections`]
//!   are closed immediately (counted in `ppuf_conn_rejected_total`);
//! - **dispatch backpressure** — a full dispatch queue answers
//!   `Overloaded` (+ retry hint) from the event loop without blocking,
//!   through `VerificationService::shed`, so the shed is counted
//!   (`server.pool.rejected`) and lands in the SLO window;
//! - **slow-loris reaping** — a frame left half-written past
//!   [`AsyncConfig::read_deadline`], or a connection idle past
//!   [`AsyncConfig::idle_timeout`], is swept and closed;
//! - **write backpressure** — a peer that pipelines requests but never
//!   reads responses is closed once its unsent backlog passes
//!   [`AsyncConfig::max_write_buf`] (write progress counts as activity,
//!   so a fully stalled writer also idles out).
//!
//! Every connection runs under its own trace id: bare requests join it
//! (so one connection's `server.request` trees share a trace), and a
//! `server.conn` root span covering the connection's lifetime is recorded
//! at close with `reason` / `requests` / `mode` attributes.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use mio::{Events, Interest, Mode, Poll, Token, Waker};
use ppuf_telemetry::{next_trace_id, record_root_interval, Recorder, TraceId};

use crate::conn::{CloseReason, Conn, Corr, Inbound, TransportStats, WireMode};
use crate::service::VerificationService;
use crate::wire::{ErrorKind, Request, Response};

const WAKER_TOKEN: Token = Token(0);
const LISTENER_TOKEN: Token = Token(1);
/// Connection slot `s` registers under `Token(s + TOKEN_BASE)`.
const TOKEN_BASE: usize = 2;

/// Tuning for an [`AsyncServer`].
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Open-connection cap; accepts beyond it are closed immediately.
    pub max_connections: usize,
    /// A connection with no request activity for this long (and nothing
    /// in flight) is reaped.
    pub idle_timeout: Duration,
    /// A frame that stays incomplete for this long is a slow-loris: the
    /// connection is reaped.
    pub read_deadline: Duration,
    /// Threads running the blocking service dispatch — verification
    /// included, so this is the number of answers checked in parallel.
    pub dispatch_threads: usize,
    /// Bounded dispatch queue; overflow answers `Overloaded` inline.
    pub dispatch_queue: usize,
    /// Per-connection cap on buffered, unsent response bytes: a peer
    /// that keeps pipelining requests without reading responses is
    /// closed once its backlog passes this. Soft — checked after each
    /// completion and between batches of parsed frames, so one batch may
    /// overshoot. Keep it ≥ the largest single response (a frame is at
    /// most [`crate::wire::MAX_FRAME_LEN`]).
    pub max_write_buf: usize,
    /// Poll timeout and timeout-sweep cadence.
    pub sweep_interval: Duration,
    /// Readiness events drained per poll.
    pub events_capacity: usize,
    /// Kernel listen backlog (clamped by `net.core.somaxconn`). Must be
    /// deep enough to absorb a whole connect storm: on a single core the
    /// reactor and a bursting client timeshare the CPU, and a full
    /// accept queue quantizes connects to one backlog per 1-second SYN
    /// retransmit.
    pub listen_backlog: i32,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            max_connections: 10_000,
            idle_timeout: Duration::from_secs(60),
            read_deadline: Duration::from_secs(10),
            // each verifying thread keeps its own allocator arena of
            // verifier working memory: on paper-scale (n = 900) answers,
            // four threads made rounds ~10 % slower and held more memory
            // than two on a 2-core host
            dispatch_threads: 2,
            dispatch_queue: 256,
            max_write_buf: 2 * crate::wire::MAX_FRAME_LEN,
            sweep_interval: Duration::from_millis(250),
            events_capacity: 1024,
            listen_backlog: 4096,
        }
    }
}

/// One request handed to the dispatch pool.
struct Job {
    slot: usize,
    gen: u64,
    corr: Corr,
    request: Request,
    trace: TraceId,
    /// When the request entered the queue: its latency clock and
    /// `server.request` span start here.
    enqueued_at: Instant,
}

/// One finished request coming back from the dispatch pool.
struct Done {
    slot: usize,
    gen: u64,
    corr: Corr,
    response: Response,
}

/// Where one reactor loop iteration spends its time, accumulated locally
/// and flushed to the service [`Profiler`](ppuf_telemetry::Profiler) on
/// the sweep cadence — the hot loop never touches the profiler's shared
/// maps between flushes.
#[derive(Debug, Default)]
struct PhaseTimes {
    /// Blocked in `epoll_wait`.
    poll_wait: Duration,
    /// Accepting and registering new connections.
    accept: Duration,
    /// Reading sockets and parsing frames into requests.
    parse: Duration,
    /// Routing parsed requests to the dispatch pool and encoding
    /// completed responses back onto their connections.
    dispatch: Duration,
    /// Flushing buffered response bytes and settling write interest.
    write: Duration,
}

impl PhaseTimes {
    fn busy(&self) -> Duration {
        self.accept + self.parse + self.dispatch + self.write
    }
}

/// The async (epoll) front-end for a [`VerificationService`].
///
/// Dropping the server (or calling [`shutdown`](Self::shutdown)) wakes
/// the event loop, closes every connection, and joins all threads.
#[derive(Debug)]
pub struct AsyncServer {
    service: Arc<VerificationService>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    stats: Arc<TransportStats>,
    loop_thread: Option<JoinHandle<()>>,
    dispatch_threads: Vec<JoinHandle<()>>,
}

impl AsyncServer {
    /// Binds `addr` (port 0 for OS-assigned) and starts the event loop
    /// and dispatch pool against `service`. The service's Prometheus
    /// exposition gains the transport's `ppuf_conn_*` gauges.
    ///
    /// # Errors
    ///
    /// Propagates bind, poller-creation, and thread-spawn failures.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<VerificationService>,
        config: AsyncConfig,
    ) -> io::Result<Self> {
        let mut listener = None;
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match mio::net::listen_with_backlog(candidate, config.listen_backlog) {
                Ok(bound) => {
                    listener = Some(bound);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let listener = match listener {
            Some(listener) => listener,
            None => {
                return Err(last_err.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "no resolvable listen address")
                }))
            }
        };
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poll = Poll::new()?;
        let waker = Waker::new(&poll, WAKER_TOKEN)?;
        poll.register(&listener, LISTENER_TOKEN, Interest::READABLE, Mode::Level)?;

        let threads = config.dispatch_threads.max(1);
        let stats = Arc::new(TransportStats::new(threads));
        service.attach_transport(Arc::clone(&stats));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = channel::bounded::<Job>(config.dispatch_queue.max(1));
        let (done_tx, done_rx) = channel::unbounded::<Done>();

        let mut dispatch_threads = Vec::with_capacity(threads);
        for i in 0..threads {
            let service = Arc::clone(&service);
            let stats = Arc::clone(&stats);
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let waker = waker.clone();
            dispatch_threads.push(
                std::thread::Builder::new()
                    .name(format!("ppuf-dispatch-{i}"))
                    .spawn(move || dispatch_loop(&service, &stats, &job_rx, &done_tx, &waker))?,
            );
        }

        let loop_thread = {
            let reactor = Reactor {
                poll,
                listener,
                service: Arc::clone(&service),
                stats: Arc::clone(&stats),
                config: config.clone(),
                conns: Vec::new(),
                reg_write: Vec::new(),
                free: Vec::new(),
                job_tx,
                done_rx,
                shutdown: Arc::clone(&shutdown),
                next_gen: 1,
                phases: PhaseTimes::default(),
            };
            std::thread::Builder::new().name("ppuf-reactor".into()).spawn(move || reactor.run())?
        };

        Ok(AsyncServer {
            service,
            local_addr,
            shutdown,
            waker,
            stats,
            loop_thread: Some(loop_thread),
            dispatch_threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<VerificationService> {
        &self.service
    }

    /// The transport counter block (also merged into the service's
    /// Prometheus exposition).
    pub fn stats(&self) -> &Arc<TransportStats> {
        &self.stats
    }

    /// Stops the event loop (closing every connection) and joins all
    /// transport threads. The service itself keeps running.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        // the loop thread dropped the job sender, so dispatch threads
        // drain and exit on their own
        for handle in self.dispatch_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for AsyncServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A dispatch thread: runs blocking service calls off the event loop.
fn dispatch_loop(
    service: &VerificationService,
    stats: &TransportStats,
    job_rx: &Receiver<Job>,
    done_tx: &Sender<Done>,
    waker: &Waker,
) {
    while let Ok(job) = job_rx.recv() {
        stats.request_dequeued();
        let response = service.handle_queued(job.request, job.trace, job.enqueued_at);
        let done = Done { slot: job.slot, gen: job.gen, corr: job.corr, response };
        if done_tx.send(done).is_err() {
            break; // event loop gone
        }
        let _ = waker.wake();
    }
}

/// The event-loop state, owned by the reactor thread.
struct Reactor {
    poll: Poll,
    listener: TcpListener,
    service: Arc<VerificationService>,
    stats: Arc<TransportStats>,
    config: AsyncConfig,
    /// Connection slab; `Token(slot + TOKEN_BASE)` addresses a slot.
    conns: Vec<Option<Conn>>,
    /// Whether the slot is currently registered for write readiness.
    reg_write: Vec<bool>,
    free: Vec<usize>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
    shutdown: Arc<AtomicBool>,
    next_gen: u64,
    phases: PhaseTimes,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(self.config.events_capacity);
        let mut last_sweep = Instant::now();
        while !self.shutdown.load(Ordering::SeqCst) {
            let wait_t0 = Instant::now();
            if let Err(e) = self.poll.poll(&mut events, Some(self.config.sweep_interval)) {
                self.service.recorder().warn(&format!("reactor poll failed: {e}"));
                break;
            }
            self.phases.poll_wait += wait_t0.elapsed();
            self.stats.loop_tick(events.len());
            let now = Instant::now();
            for event in &events {
                match event.token() {
                    WAKER_TOKEN => {} // completions drained below
                    LISTENER_TOKEN => {
                        let t0 = Instant::now();
                        self.accept_ready(now);
                        self.phases.accept += t0.elapsed();
                    }
                    token => {
                        self.conn_ready(token, event.is_readable(), event.is_writable(), now);
                    }
                }
            }
            self.drain_completions(now);
            if now.duration_since(last_sweep) >= self.config.sweep_interval {
                self.sweep(now);
                self.flush_phase_profile();
                last_sweep = now;
            }
        }
        // teardown: every surviving connection closes with its span
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            self.close(slot, CloseReason::Shutdown, now);
        }
        self.flush_phase_profile();
    }

    /// Flushes the locally accumulated loop-phase times into the service
    /// profiler under `server.reactor;*` paths. The parent's wall time is
    /// the whole interval covered (wait + busy) with zero self time, so
    /// folded stacks show exactly where the loop thread's time went.
    fn flush_phase_profile(&mut self) {
        let p = std::mem::take(&mut self.phases);
        let busy = p.busy();
        if p.poll_wait.is_zero() && busy.is_zero() {
            return;
        }
        let profiler = self.service.profiler();
        profiler.record_path("server.reactor", p.poll_wait + busy, Duration::ZERO);
        profiler.record_leaf("server.reactor;poll_wait", p.poll_wait);
        profiler.record_leaf("server.reactor;accept", p.accept);
        profiler.record_leaf("server.reactor;parse", p.parse);
        profiler.record_leaf("server.reactor;dispatch", p.dispatch);
        profiler.record_leaf("server.reactor;write", p.write);
    }

    fn open_count(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.open_count() >= self.config.max_connections {
                        // cap shed: close before the kernel buffers more.
                        // (The wire mode is unknowable before a read, so
                        // there is no portable way to say `Overloaded`.)
                        self.stats.conn_rejected();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let mut conn = Conn::new(stream, next_trace_id(), now);
                    conn.gen = self.next_gen;
                    self.next_gen += 1;
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.reg_write.push(false);
                        self.conns.len() - 1
                    });
                    let token = Token(slot + TOKEN_BASE);
                    if let Err(e) =
                        self.poll.register(conn.stream(), token, Interest::READABLE, Mode::Level)
                    {
                        self.service.recorder().warn(&format!("conn register failed: {e}"));
                        self.free.push(slot);
                        continue;
                    }
                    self.reg_write[slot] = false;
                    self.stats.conn_opened();
                    self.service.recorder().counter_add("server.connections", 1);
                    self.conns[slot] = Some(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.service.recorder().warn(&format!("accept failed: {e}"));
                    break;
                }
            }
        }
    }

    fn conn_ready(&mut self, token: Token, readable: bool, writable: bool, now: Instant) {
        let Some(slot) = token.0.checked_sub(TOKEN_BASE) else { return };
        let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
        if writable {
            let t0 = Instant::now();
            let flushed = conn.on_writable(now);
            self.phases.write += t0.elapsed();
            if let Err(reason) = flushed {
                self.close(slot, reason, now);
                return;
            }
        }
        if readable {
            let t0 = Instant::now();
            let mut parsed = conn.on_readable(now);
            self.phases.parse += t0.elapsed();
            // batch by batch until no complete frame is left, settling
            // after each so a peer that never reads is cut off early
            loop {
                let items = match parsed {
                    Ok(items) if items.is_empty() => break,
                    Ok(items) => items,
                    Err(reason) => {
                        self.close(slot, reason, now);
                        return;
                    }
                };
                let t0 = Instant::now();
                for item in items {
                    self.handle_inbound(slot, item);
                }
                self.phases.dispatch += t0.elapsed();
                let t0 = Instant::now();
                self.flush_within_cap(slot, now);
                self.phases.write += t0.elapsed();
                let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
                let t0 = Instant::now();
                parsed = conn.parse(now);
                self.phases.parse += t0.elapsed();
            }
        }
        self.flush_and_settle(slot, now);
    }

    /// Routes one parsed inbound item: malformed frames answer inline,
    /// well-formed requests go to the dispatch pool (or shed).
    fn handle_inbound(&mut self, slot: usize, item: Inbound) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
        match item {
            Inbound::Malformed { corr, message } => {
                self.service.recorder().counter_add("server.requests.malformed", 1);
                conn.complete(corr, &Response::error(ErrorKind::Malformed, message));
            }
            Inbound::Request { corr, request, trace } => {
                self.stats.request_parsed(conn.mode());
                let enqueued_at = Instant::now();
                let job = Job { slot, gen: conn.gen, corr, request, trace, enqueued_at };
                match self.job_tx.try_send(job) {
                    Ok(()) => {
                        conn.in_flight += 1;
                        self.stats.request_queued();
                    }
                    Err(TrySendError::Full(job)) => {
                        // dispatch tier saturated: the service answers
                        // the shed without running it
                        let response = self.service.shed(&job.request, job.trace);
                        conn.complete(job.corr, &response);
                    }
                    Err(TrySendError::Disconnected(_)) => {} // shutting down
                }
            }
        }
    }

    /// Pulls every finished request off the completion channel and routes
    /// it to its (still-live) connection.
    fn drain_completions(&mut self, now: Instant) {
        while let Ok(done) = self.done_rx.try_recv() {
            let t0 = Instant::now();
            let Some(Some(conn)) = self.conns.get_mut(done.slot) else { continue };
            if conn.gen != done.gen {
                continue; // slot recycled since dispatch: stale
            }
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.complete(done.corr, &done.response);
            self.phases.dispatch += t0.elapsed();
            self.flush_and_settle(done.slot, now);
        }
    }

    /// Pushes buffered bytes, fixes the write-interest registration, and
    /// closes the connection if it has fully drained after peer EOF or
    /// its unread-response backlog passed the cap.
    fn flush_and_settle(&mut self, slot: usize, now: Instant) {
        let t0 = Instant::now();
        self.flush_and_settle_inner(slot, now);
        self.phases.write += t0.elapsed();
    }

    fn flush_and_settle_inner(&mut self, slot: usize, now: Instant) {
        self.flush_within_cap(slot, now);
        let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
        if conn.drained() {
            self.close(slot, CloseReason::Eof, now);
            return;
        }
        let want = conn.wants_write();
        if want != self.reg_write[slot] {
            let interest =
                if want { Interest::READABLE.add(Interest::WRITABLE) } else { Interest::READABLE };
            let token = Token(slot + TOKEN_BASE);
            if self.poll.reregister(conn.stream(), token, interest, Mode::Level).is_ok() {
                self.reg_write[slot] = want;
            }
        }
    }

    /// Pushes buffered bytes, then closes the connection if a write failed
    /// or its unread-response backlog passed the cap.
    fn flush_within_cap(&mut self, slot: usize, now: Instant) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
        let reason = match conn.on_writable(now) {
            Err(reason) => reason,
            Ok(()) if conn.backlog() > self.config.max_write_buf => {
                self.stats.conn_reaped();
                CloseReason::Backpressure
            }
            Ok(()) => return,
        };
        self.close(slot, reason, now);
    }

    /// Reaps slow-loris frames past the read deadline and idle
    /// connections past the idle timeout.
    fn sweep(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(Some(conn)) = self.conns.get(slot) else { continue };
            let reason = if conn
                .frame_since
                .is_some_and(|since| now.duration_since(since) >= self.config.read_deadline)
            {
                Some(CloseReason::ReadDeadline)
            } else if conn.in_flight == 0
                && now.duration_since(conn.last_activity) >= self.config.idle_timeout
            {
                // write progress refreshes last_activity, so a connection
                // stuck with buffered responses the peer never reads is
                // idle too — not exempt from reaping
                Some(CloseReason::IdleTimeout)
            } else {
                None
            };
            if let Some(reason) = reason {
                self.stats.conn_reaped();
                self.close(slot, reason, now);
            }
        }
    }

    /// Tears a connection down: deregisters, records its `server.conn`
    /// root span, updates gauges, and recycles the slot.
    fn close(&mut self, slot: usize, reason: CloseReason, now: Instant) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else { return };
        let _ = self.poll.deregister(conn.stream());
        self.stats.conn_closed();
        let mode = match conn.mode() {
            WireMode::Unknown => "unknown",
            WireMode::Json => "json",
            WireMode::Binary => "binary",
        };
        record_root_interval(
            self.service.recorder().as_ref(),
            conn.trace,
            "server.conn",
            conn.opened,
            now,
            vec![
                ("reason".to_string(), reason.label().to_string()),
                ("requests".to_string(), conn.requests.to_string()),
                ("mode".to_string(), mode.to_string()),
            ],
        );
        self.free.push(slot);
    }
}
