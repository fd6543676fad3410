//! Per-connection state machine for the async serving tier.
//!
//! A [`Conn`] owns one nonblocking socket plus its growable read/write
//! buffers and does everything that does not require the service: it
//! sniffs the wire mode off the first byte ([`WireMode`]), reads at most
//! one largest frame ahead, parses the complete frames the read buffer
//! holds (pipelining) in bounded batches, and encodes completed responses
//! back out — out of order for the binary wire (responses carry
//! correlation ids), strictly in request order for the JSON wire (wire
//! 1.x has no correlation id, so its in-order contract is part of
//! byte-identical compatibility). The event loop in
//! [`crate::reactor`] owns readiness, dispatch, and lifecycle.
//!
//! [`TransportStats`] is the transport-tier counter block shared between
//! the reactor and the service's Prometheus exposition (`ppuf_conn_*`,
//! `ppuf_reactor_*` and the dispatch pool's `ppuf_pool_*` gauges).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use ppuf_telemetry::TraceId;

use crate::wire::{self, Request, Response, TracedRequest, TracedResponse, MAX_FRAME_LEN};
use crate::wire2::{self, Frame2Error};

/// How big one nonblocking read chunk is.
const READ_CHUNK: usize = 16 * 1024;
/// A connection stops reading once this much unparsed input is buffered:
/// the largest frame plus one chunk, so a full buffer always holds a
/// complete frame (or a frame error) and the largest answer still
/// arrives in one pass.
const READ_LIMIT: usize = MAX_FRAME_LEN + READ_CHUNK;
/// Frames parsed per batch. The reactor settles the connection (flush,
/// then the write-backlog cap) between batches, so a peer that pipelines
/// without reading is cut off after a batch, not after its whole buffer.
const PARSE_BATCH: usize = 64;

/// Transport-tier counters, shared (lock-free) between the reactor
/// thread, the dispatch threads, and the service's stats exposition.
#[derive(Debug, Default)]
pub struct TransportStats {
    open: AtomicU64,
    peak: AtomicU64,
    accepted: AtomicU64,
    closed: AtomicU64,
    /// Connections refused at accept because the open-connection cap was
    /// reached.
    rejected: AtomicU64,
    /// Connections reaped by the idle-timeout / read-deadline sweep.
    reaped: AtomicU64,
    /// Requests waiting in the dispatch queue: raised by the reactor on
    /// enqueue, lowered by a dispatch thread on dequeue (which may land
    /// first, so it can dip below zero for an instant).
    queued: AtomicI64,
    /// Threads serving the dispatch queue.
    dispatch_threads: u64,
    requests_json: AtomicU64,
    requests_binary: AtomicU64,
    loop_iterations: AtomicU64,
    readiness_events: AtomicU64,
}

impl TransportStats {
    /// Fresh, all-zero counter block for a transport whose dispatch queue
    /// is served by `dispatch_threads` threads.
    pub fn new(dispatch_threads: usize) -> Self {
        TransportStats { dispatch_threads: dispatch_threads as u64, ..Self::default() }
    }

    pub(crate) fn conn_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now_open = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now_open, Ordering::Relaxed);
    }

    pub(crate) fn conn_closed(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn conn_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn conn_reaped(&self) {
        self.reaped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_queued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_dequeued(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn request_parsed(&self, mode: WireMode) {
        match mode {
            WireMode::Binary => self.requests_binary.fetch_add(1, Ordering::Relaxed),
            _ => self.requests_json.fetch_add(1, Ordering::Relaxed),
        };
    }

    pub(crate) fn loop_tick(&self, events: usize) {
        self.loop_iterations.fetch_add(1, Ordering::Relaxed);
        self.readiness_events.fetch_add(events as u64, Ordering::Relaxed);
    }

    /// Currently open connections.
    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously open connections.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total connections accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Total connections refused at the open-connection cap.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Total connections reaped by the timeout sweep.
    pub fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }

    /// The transport gauge list merged into the service's Prometheus
    /// exposition.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        [
            ("ppuf_conn_open", self.open.load(Ordering::Relaxed)),
            ("ppuf_conn_peak", self.peak.load(Ordering::Relaxed)),
            ("ppuf_conn_accepted_total", self.accepted.load(Ordering::Relaxed)),
            ("ppuf_conn_closed_total", self.closed.load(Ordering::Relaxed)),
            ("ppuf_conn_rejected_total", self.rejected.load(Ordering::Relaxed)),
            ("ppuf_conn_reaped_total", self.reaped.load(Ordering::Relaxed)),
            ("ppuf_conn_requests_json_total", self.requests_json.load(Ordering::Relaxed)),
            ("ppuf_conn_requests_binary_total", self.requests_binary.load(Ordering::Relaxed)),
            ("ppuf_reactor_loops_total", self.loop_iterations.load(Ordering::Relaxed)),
            ("ppuf_reactor_events_total", self.readiness_events.load(Ordering::Relaxed)),
            ("ppuf_pool_queue_depth", self.queued.load(Ordering::Relaxed).max(0) as u64),
            ("ppuf_pool_workers", self.dispatch_threads),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value as f64))
        .collect()
    }
}

/// Which protocol a connection speaks, decided by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// No byte received yet.
    Unknown,
    /// Wire 1.x length-prefixed JSON (first byte `0x00`/`0x01`).
    Json,
    /// Wire 2.0 binary frames (first byte `0xB5`).
    Binary,
}

/// Why a connection ended (the `reason` attribute on its closing
/// `server.conn` span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed cleanly and every response was flushed.
    Eof,
    /// First byte was neither a JSON length prefix nor the wire-2.0 magic.
    Garbage,
    /// The frame layer was unrecoverably corrupt (bad magic/version
    /// mid-stream, oversized length).
    Frame(String),
    /// A read or write failed.
    Io(String),
    /// Buffered response bytes exceeded the write-backlog cap: the peer
    /// pipelines requests but does not read responses.
    Backpressure,
    /// No request activity within the idle timeout.
    IdleTimeout,
    /// A frame stayed half-written past the read deadline (slow-loris).
    ReadDeadline,
    /// Server shutdown.
    Shutdown,
}

impl CloseReason {
    /// Short label for span attributes and logs.
    pub fn label(&self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::Garbage => "garbage",
            CloseReason::Frame(_) => "frame_error",
            CloseReason::Io(_) => "io_error",
            CloseReason::Backpressure => "backpressure",
            CloseReason::IdleTimeout => "idle_timeout",
            CloseReason::ReadDeadline => "read_deadline",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// Response-routing key: everything needed to encode a response for the
/// request it answers, independent of arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corr {
    /// JSON request `seq` (per-connection arrival index — responses flush
    /// in this order); `trace_echo` holds the trace id to echo back iff
    /// the client sent a wire-1.1 envelope.
    Json {
        /// Per-connection arrival index.
        seq: u64,
        /// Trace id to echo in a `TracedResponse` (None → bare wire 1.0).
        trace_echo: Option<u64>,
    },
    /// Binary correlation id, echoed verbatim.
    Binary(u64),
}

/// One parsed inbound item, ready for dispatch (or an immediate answer).
#[derive(Debug)]
pub enum Inbound {
    /// A well-formed request to hand to the service.
    Request {
        /// Response-routing key.
        corr: Corr,
        /// The decoded request.
        request: Request,
        /// The trace to run it under (client-adopted or the connection
        /// trace).
        trace: TraceId,
    },
    /// A frame whose payload did not decode: answered `Malformed` without
    /// dispatch, connection stays up (the wire 1.x contract).
    Malformed {
        /// Response-routing key.
        corr: Corr,
        /// Decoder detail for the error message.
        message: String,
    },
}

/// One connection owned by the reactor.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Slot-reuse guard: completions carry (slot, gen) and are dropped if
    /// the slot was recycled.
    pub(crate) gen: u64,
    /// The connection's own trace: un-enveloped requests run under it, so
    /// a connection's `server.request` trees share one trace with its
    /// closing `server.conn` root span.
    pub(crate) trace: TraceId,
    pub(crate) opened: Instant,
    mode: WireMode,
    read_buf: Vec<u8>,
    /// Start of the unparsed input in `read_buf`.
    read_pos: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Requests handed to dispatch whose responses have not been encoded
    /// yet.
    pub(crate) in_flight: usize,
    next_seq: u64,
    flush_seq: u64,
    /// JSON responses completed out of order, waiting for their turn.
    pending_json: BTreeMap<u64, Vec<u8>>,
    pub(crate) last_activity: Instant,
    /// Set while a partial frame sits in `read_buf` — the read-deadline
    /// clock for slow-loris reaping.
    pub(crate) frame_since: Option<Instant>,
    /// Total requests parsed on this connection (span attribute).
    pub(crate) requests: u64,
    /// Peer sent EOF; close once in-flight responses are flushed.
    pub(crate) draining: bool,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking stream.
    pub(crate) fn new(stream: TcpStream, trace: TraceId, now: Instant) -> Self {
        Conn {
            stream,
            gen: 0,
            trace,
            opened: now,
            mode: WireMode::Unknown,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            in_flight: 0,
            next_seq: 0,
            flush_seq: 0,
            pending_json: BTreeMap::new(),
            last_activity: now,
            frame_since: None,
            requests: 0,
            draining: false,
        }
    }

    /// The wire mode negotiated so far.
    pub(crate) fn mode(&self) -> WireMode {
        self.mode
    }

    /// `true` when buffered response bytes are waiting on socket
    /// writability.
    pub(crate) fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Buffered response bytes not yet written to the socket — the
    /// reactor closes the connection when this passes its backlog cap.
    pub(crate) fn backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// `true` once the connection has nothing left to do: peer is gone
    /// and every accepted request has been answered and flushed.
    pub(crate) fn drained(&self) -> bool {
        self.draining && self.in_flight == 0 && !self.wants_write() && self.pending_json.is_empty()
    }

    /// Nonblocking read pump: pulls what the socket has, up to
    /// [`READ_LIMIT`] buffered bytes, then parses the first batch of
    /// frames ([`parse`](Self::parse) yields the rest).
    ///
    /// `Ok(items)` may be empty (partial frame). An `Err` is a close
    /// verdict, not an I/O result — the reactor tears the connection down.
    pub(crate) fn on_readable(&mut self, now: Instant) -> Result<Vec<Inbound>, CloseReason> {
        // drop the parsed input; the reactor calls `parse` until it comes
        // back empty, so only a partial frame is left to move
        self.read_buf.drain(..self.read_pos);
        self.read_pos = 0;
        let mut chunk = [0u8; READ_CHUNK];
        // level-triggered: input left on the socket wakes the loop again
        while self.read_buf.len() < READ_LIMIT {
            let room = (READ_LIMIT - self.read_buf.len()).min(READ_CHUNK);
            match self.stream.read(&mut chunk[..room]) {
                Ok(0) => {
                    self.draining = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    // a short read means the socket is drained, no point
                    // issuing another syscall
                    if n < room {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(CloseReason::Io(e.to_string())),
            }
        }
        self.parse(now)
    }

    /// Parses the next batch of at most [`PARSE_BATCH`] complete frames
    /// from the buffered input; an empty batch means none is left.
    pub(crate) fn parse(&mut self, now: Instant) -> Result<Vec<Inbound>, CloseReason> {
        if self.mode == WireMode::Unknown && self.read_pos < self.read_buf.len() {
            self.mode = match self.read_buf[self.read_pos] {
                b if b == wire2::MAGIC[0] => WireMode::Binary,
                // a JSON length prefix under the 16 MiB cap starts 0x00/0x01
                0x00 | 0x01 => WireMode::Json,
                _ => return Err(CloseReason::Garbage),
            };
        }
        let mut items = Vec::new();
        let mut consumed = 0usize;
        let result = match self.mode {
            WireMode::Unknown => Ok(()),
            WireMode::Binary => self.parse_binary(&mut items, &mut consumed),
            WireMode::Json => self.parse_json(&mut items, &mut consumed),
        };
        if consumed > 0 {
            self.read_pos += consumed;
            if self.read_pos == self.read_buf.len() {
                self.read_buf.clear();
                self.read_pos = 0;
            }
            self.last_activity = now;
        }
        // a leftover partial frame starts (or keeps) the read-deadline
        // clock; an empty buffer clears it
        self.frame_since =
            if self.read_buf.is_empty() { None } else { Some(self.frame_since.unwrap_or(now)) };
        self.requests += items.len() as u64;
        result.map(|()| items)
    }

    fn parse_binary(
        &mut self,
        items: &mut Vec<Inbound>,
        consumed: &mut usize,
    ) -> Result<(), CloseReason> {
        while items.len() < PARSE_BATCH {
            match wire2::parse_frame(&self.read_buf[self.read_pos + *consumed..]) {
                Ok(None) => return Ok(()),
                Ok(Some((frame, used))) => {
                    *consumed += used;
                    let corr = Corr::Binary(frame.corr);
                    match wire2::decode_request(&frame) {
                        Ok(request) => {
                            items.push(Inbound::Request { corr, request, trace: self.trace });
                        }
                        Err(e) => items.push(Inbound::Malformed { corr, message: e.to_string() }),
                    }
                }
                Err(e @ (Frame2Error::BadMagic(_) | Frame2Error::BadVersion(_))) => {
                    return Err(CloseReason::Frame(e.to_string()));
                }
                Err(e @ Frame2Error::Oversized(_)) => {
                    return Err(CloseReason::Frame(e.to_string()))
                }
            }
        }
        Ok(())
    }

    fn parse_json(
        &mut self,
        items: &mut Vec<Inbound>,
        consumed: &mut usize,
    ) -> Result<(), CloseReason> {
        while items.len() < PARSE_BATCH {
            let buf = &self.read_buf[self.read_pos + *consumed..];
            if buf.len() < 4 {
                return Ok(());
            }
            let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN {
                return Err(CloseReason::Frame(format!(
                    "frame length {len} exceeds cap {MAX_FRAME_LEN}"
                )));
            }
            if buf.len() < 4 + len {
                return Ok(());
            }
            let payload = &buf[4..4 + len];
            *consumed += 4 + len;
            let seq = self.next_seq;
            self.next_seq += 1;
            let parsed: io::Result<TracedRequest> = std::str::from_utf8(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                .and_then(|text| {
                    serde_json::from_str(text)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                });
            match parsed {
                Ok(envelope) => {
                    // adopt the client's trace id when it sent one; bare
                    // requests join the connection's own trace
                    let trace_echo = envelope.trace_id;
                    let trace = envelope.trace_id.and_then(TraceId::from_raw).unwrap_or(self.trace);
                    items.push(Inbound::Request {
                        corr: Corr::Json { seq, trace_echo },
                        request: envelope.body,
                        trace,
                    });
                }
                Err(e) => items.push(Inbound::Malformed {
                    corr: Corr::Json { seq, trace_echo: None },
                    message: e.to_string(),
                }),
            }
        }
        Ok(())
    }

    /// Encodes `response` for the request addressed by `corr` and queues
    /// the bytes. Binary responses go out as completed (the correlation
    /// id does the matching); JSON responses are buffered until every
    /// earlier JSON request has answered, preserving the wire-1.x
    /// in-order contract.
    pub(crate) fn complete(&mut self, corr: Corr, response: &Response) {
        match corr {
            Corr::Binary(id) => {
                let frame = wire2::encode_response(id, response);
                self.write_buf.extend_from_slice(&frame);
            }
            Corr::Json { seq, trace_echo } => {
                let bytes = json_frame(trace_echo, response);
                self.pending_json.insert(seq, bytes);
                while let Some(bytes) = self.pending_json.remove(&self.flush_seq) {
                    self.write_buf.extend_from_slice(&bytes);
                    self.flush_seq += 1;
                }
            }
        }
    }

    /// Nonblocking write pump: pushes buffered bytes until the socket
    /// would block or the buffer empties. Write progress counts as
    /// activity, so only a peer that stops draining responses idles out.
    pub(crate) fn on_writable(&mut self, now: Instant) -> Result<(), CloseReason> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(CloseReason::Io("socket wrote 0 bytes".into())),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(CloseReason::Io(e.to_string())),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > READ_CHUNK {
            // reclaim flushed prefix without waiting for a full drain
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(())
    }

    /// The underlying socket, for registration with the poller.
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Encodes one wire-1.x response frame: enveloped iff the request was.
fn json_frame(trace_echo: Option<u64>, response: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    let sent = match trace_echo {
        Some(id) => wire::send_message(&mut bytes, &TracedResponse::traced(id, response.clone())),
        None => wire::send_message(&mut bytes, response),
    };
    debug_assert!(sent.is_ok(), "Vec writes cannot fail and responses always serialize");
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorKind;
    use std::net::{TcpListener, TcpStream};

    fn test_conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (Conn::new(stream, ppuf_telemetry::next_trace_id(), Instant::now()), peer)
    }

    /// Feeds bytes through the peer socket and runs the read pump.
    fn feed(
        conn: &mut Conn,
        peer: &mut TcpStream,
        bytes: &[u8],
    ) -> Result<Vec<Inbound>, CloseReason> {
        use std::io::Write as _;
        peer.write_all(bytes).unwrap();
        peer.flush().unwrap();
        // loopback delivery is fast but not instant
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let items = conn.on_readable(Instant::now())?;
            if !items.is_empty() || conn.mode() != WireMode::Unknown {
                return Ok(items);
            }
        }
        conn.on_readable(Instant::now())
    }

    #[test]
    fn first_byte_negotiates_the_wire_mode() {
        let (mut conn, mut peer) = test_conn();
        let frame = wire2::encode_frame(wire2::opcode::PING, 42, b"");
        let items = feed(&mut conn, &mut peer, &frame).unwrap();
        assert_eq!(conn.mode(), WireMode::Binary);
        assert!(matches!(
            items.as_slice(),
            [Inbound::Request { corr: Corr::Binary(42), request: Request::Ping, .. }]
        ));

        let (mut conn, mut peer) = test_conn();
        let mut json = Vec::new();
        wire::send_message(&mut json, &Request::Ping).unwrap();
        let items = feed(&mut conn, &mut peer, &json).unwrap();
        assert_eq!(conn.mode(), WireMode::Json);
        assert!(matches!(
            items.as_slice(),
            [Inbound::Request {
                corr: Corr::Json { seq: 0, trace_echo: None },
                request: Request::Ping,
                ..
            }]
        ));

        let (mut conn, mut peer) = test_conn();
        assert!(matches!(
            feed(&mut conn, &mut peer, b"GET / HTTP/1.1\r\n"),
            Err(CloseReason::Garbage)
        ));
    }

    #[test]
    fn json_responses_flush_in_request_order_binary_as_completed() {
        let (mut conn, mut peer) = test_conn();
        let mut json = Vec::new();
        wire::send_message(&mut json, &Request::Ping).unwrap();
        wire::send_message(&mut json, &Request::Ping).unwrap();
        let items = feed(&mut conn, &mut peer, &json).unwrap();
        assert_eq!(items.len(), 2);
        // completing seq 1 first buffers it; nothing hits the wire queue
        conn.complete(Corr::Json { seq: 1, trace_echo: None }, &Response::Pong);
        assert!(!conn.wants_write(), "out-of-order JSON response must wait");
        conn.complete(
            Corr::Json { seq: 0, trace_echo: None },
            &Response::error(ErrorKind::Internal, "x"),
        );
        assert!(conn.wants_write(), "in-order completion releases both");
        // the queued bytes decode as: seq 0's error, then seq 1's pong
        let mut cursor = io::Cursor::new(conn.write_buf.clone());
        let first: Response = wire::recv_message(&mut cursor).unwrap().unwrap();
        let second: Response = wire::recv_message(&mut cursor).unwrap().unwrap();
        assert!(matches!(first, Response::Error { .. }));
        assert_eq!(second, Response::Pong);

        // binary mode: whatever completes first goes out first
        let (mut conn, mut peer) = test_conn();
        let frame = wire2::encode_frame(wire2::opcode::PING, 7, b"");
        feed(&mut conn, &mut peer, &frame).unwrap();
        conn.complete(Corr::Binary(99), &Response::Pong);
        assert!(conn.wants_write(), "binary completions never wait");
    }

    #[test]
    fn torn_frames_keep_state_and_start_the_deadline_clock() {
        let (mut conn, mut peer) = test_conn();
        let frame = wire2::encode_frame(wire2::opcode::GET_CHALLENGE, 5, &{
            let mut enc = Vec::new();
            enc.extend_from_slice(&5u16.to_le_bytes());
            enc.extend_from_slice(b"dev-0");
            enc
        });
        // drip the frame in three fragments; only the last completes it
        let (a, rest) = frame.split_at(7);
        let (b, c) = rest.split_at(6);
        assert!(feed(&mut conn, &mut peer, a).unwrap().is_empty());
        assert!(conn.frame_since.is_some(), "partial frame arms the read deadline");
        assert!(feed(&mut conn, &mut peer, b).unwrap().is_empty());
        let items = feed(&mut conn, &mut peer, c).unwrap();
        assert!(matches!(
            items.as_slice(),
            [Inbound::Request { request: Request::GetChallenge { .. }, .. }]
        ));
        assert!(conn.frame_since.is_none(), "complete frame disarms the deadline");
    }

    #[test]
    fn malformed_payload_is_answerable_without_dispatch() {
        // binary frame with a valid header but a garbage GetChallenge body
        let (mut conn, mut peer) = test_conn();
        let frame = wire2::encode_frame(wire2::opcode::GET_CHALLENGE, 3, &[0xFF, 0xFF, 0x00]);
        let items = feed(&mut conn, &mut peer, &frame).unwrap();
        assert!(matches!(items.as_slice(), [Inbound::Malformed { corr: Corr::Binary(3), .. }]));
        // json frame with unparseable payload
        let (mut conn, mut peer) = test_conn();
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, b"not json").unwrap();
        let items = feed(&mut conn, &mut peer, &bytes).unwrap();
        assert!(matches!(
            items.as_slice(),
            [Inbound::Malformed { corr: Corr::Json { seq: 0, .. }, .. }]
        ));
    }

    #[test]
    fn a_peer_that_never_stops_writing_is_read_in_bounded_batches() {
        let (mut conn, mut peer) = test_conn();
        let writer = std::thread::spawn(move || {
            use std::io::Write as _;
            let burst: Vec<u8> =
                (0..4096).flat_map(|i| wire2::encode_frame(wire2::opcode::PING, i, b"")).collect();
            // pipelined pings until the connection goes away
            while peer.write_all(&burst).is_ok() {}
        });
        // one batch per read: the buffer fills to the cap and stays there
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let mut full_reads = 0;
        while full_reads < 3 {
            assert!(Instant::now() < deadline, "buffer never filled: {}", conn.read_buf.len());
            let items = conn.on_readable(Instant::now()).unwrap();
            assert!(items.len() <= PARSE_BATCH, "{} frames in one batch", items.len());
            assert!(conn.read_buf.len() <= READ_LIMIT, "{} bytes buffered", conn.read_buf.len());
            if conn.read_buf.len() == READ_LIMIT {
                full_reads += 1;
            }
        }
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn transport_stats_track_peak_and_open() {
        let stats = TransportStats::new(2);
        stats.conn_opened();
        stats.conn_opened();
        stats.conn_closed();
        stats.conn_opened();
        assert_eq!(stats.open(), 2);
        assert_eq!(stats.peak(), 2);
        assert_eq!(stats.accepted(), 3);
        let gauges = stats.gauges();
        let get = |name: &str| gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("ppuf_conn_open"), Some(2.0));
        assert_eq!(get("ppuf_conn_peak"), Some(2.0));
        assert_eq!(get("ppuf_conn_accepted_total"), Some(3.0));
        assert_eq!(get("ppuf_pool_workers"), Some(2.0));
    }
}
