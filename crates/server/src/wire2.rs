//! Wire 2.0: compact binary framing with request correlation.
//!
//! Every frame is a fixed 16-byte little-endian header followed by the
//! payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xB5 0x50
//! 2       1     version (2)
//! 3       1     opcode
//! 4       8     correlation id (echoed verbatim on the response)
//! 12      4     payload length
//! 16      len   payload
//! ```
//!
//! The hot protocol messages — [`Request::GetChallenge`] /
//! [`Request::SubmitAnswer`] and their [`Response::Challenge`] /
//! [`Response::Verdict`] / [`Response::Error`] answers, plus `Ping` /
//! `Pong` — have fixed little-endian encodings, so a verification round
//! never touches a JSON parser. Cold admin messages (`Register`,
//! `Revoke`, `Stats`, `Health`, `Dump`, `Profile`) ride as JSON inside a
//! [`opcode::JSON_REQUEST`] / [`opcode::JSON_RESPONSE`] frame — full
//! coverage without a binary schema for every message.
//!
//! **Negotiation.** A JSON (wire 1.x) frame starts with a 4-byte
//! big-endian length capped at [`MAX_FRAME_LEN`] = 16 MiB, so its first
//! byte is always `0x00` or `0x01`. The first byte of a wire-2.0 frame is
//! the magic `0xB5`. A server sniffs the first byte of a connection and
//! locks the whole connection to that mode; anything that is neither is
//! garbage and the connection is closed. Correlation ids exist only on
//! the binary wire — JSON connections keep their 1.x contract of
//! in-order responses, byte-identical to previous releases.

use std::io::{self, Read, Write};

use ppuf_core::challenge::Challenge;
use ppuf_core::protocol::auth::{NetworkVerdict, ProverAnswer, VerificationReport};
use ppuf_maxflow::{Flow, NodeId};

use crate::wire::{ErrorKind, Request, Response, MAX_FRAME_LEN};

/// First magic byte — deliberately outside the `{0x00, 0x01}` range a
/// capped JSON length prefix can start with.
pub const MAGIC: [u8; 2] = [0xB5, 0x50];

/// Wire 2.0 header version byte.
pub const WIRE2_VERSION: u8 = 2;

/// Fixed header length.
pub const HEADER_LEN: usize = 16;

/// Frame opcodes. Request opcodes have the high bit clear, response
/// opcodes have it set.
pub mod opcode {
    /// `Request::GetChallenge` (fixed binary payload).
    pub const GET_CHALLENGE: u8 = 0x01;
    /// `Request::SubmitAnswer` (fixed binary payload).
    pub const SUBMIT_ANSWER: u8 = 0x02;
    /// `Request::Ping` (empty payload).
    pub const PING: u8 = 0x03;
    /// Any other `Request`, JSON-encoded in the payload.
    pub const JSON_REQUEST: u8 = 0x0F;
    /// `Response::Challenge` (fixed binary payload).
    pub const CHALLENGE: u8 = 0x81;
    /// `Response::Verdict` (fixed binary payload).
    pub const VERDICT: u8 = 0x82;
    /// `Response::Pong` (empty payload).
    pub const PONG: u8 = 0x83;
    /// `Response::Error` (fixed binary payload).
    pub const ERROR: u8 = 0x84;
    /// Any other `Response`, JSON-encoded in the payload.
    pub const JSON_RESPONSE: u8 = 0x8F;
}

/// One parsed wire-2.0 frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame2 {
    /// The frame opcode (see [`opcode`]).
    pub opcode: u8,
    /// Client-chosen correlation id, echoed verbatim on responses.
    pub corr: u64,
    /// The opcode-specific payload.
    pub payload: Vec<u8>,
}

/// One wire-2.0 frame borrowed from the buffer it was parsed from: the
/// reactor decodes requests straight out of its read buffer, with no
/// copy of the payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameRef<'a> {
    /// The frame opcode (see [`opcode`]).
    pub(crate) opcode: u8,
    /// Client-chosen correlation id.
    pub(crate) corr: u64,
    /// The opcode-specific payload.
    pub(crate) payload: &'a [u8],
}

/// Why a byte stream cannot be (or stopped being) wire 2.0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame2Error {
    /// The first bytes are not the wire-2.0 magic.
    BadMagic([u8; 2]),
    /// The header names a version this build does not speak.
    BadVersion(u8),
    /// The header names a payload longer than [`MAX_FRAME_LEN`].
    Oversized(usize),
}

impl std::fmt::Display for Frame2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frame2Error::BadMagic(bytes) => {
                write!(f, "bad wire-2.0 magic {bytes:02x?}")
            }
            Frame2Error::BadVersion(v) => {
                write!(f, "unsupported wire-2.0 version {v} (this build speaks {WIRE2_VERSION})")
            }
            Frame2Error::Oversized(len) => {
                write!(f, "wire-2.0 payload of {len} bytes exceeds cap {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for Frame2Error {}

impl From<Frame2Error> for io::Error {
    fn from(e: Frame2Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Serializes one frame (header + payload) into a fresh buffer.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — encoders in this
/// module never produce one (the request/response types they accept are
/// themselves size-bounded upstream of any encode).
pub fn encode_frame(opcode: u8, corr: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Enc::framed(payload.len());
    enc.buf.extend_from_slice(payload);
    enc.into_frame(opcode, corr)
}

/// Tries to parse one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a frame prefix (read more
/// bytes and retry) and `Ok(Some((frame, consumed)))` when a full frame
/// was parsed — the caller drops `consumed` bytes off the front.
///
/// # Errors
///
/// [`Frame2Error`] when the bytes can never become a valid frame; the
/// stream is poisoned and the connection should close.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Frame2, usize)>, Frame2Error> {
    Ok(parse_frame_ref(buf)?.map(|(FrameRef { opcode, corr, payload }, consumed)| {
        (Frame2 { opcode, corr, payload: payload.to_vec() }, consumed)
    }))
}

/// [`parse_frame`] without copying the payload out of `buf`.
pub(crate) fn parse_frame_ref(buf: &[u8]) -> Result<Option<(FrameRef<'_>, usize)>, Frame2Error> {
    if buf.is_empty() {
        return Ok(None);
    }
    // fail fast on garbage: every byte of the magic is checked as soon as
    // it is available, so a torn first write still rejects immediately
    let check = buf.len().min(MAGIC.len());
    if buf[..check] != MAGIC[..check] {
        let mut seen = [0u8; 2];
        seen[..check].copy_from_slice(&buf[..check]);
        return Err(Frame2Error::BadMagic(seen));
    }
    if buf.len() > 2 && buf[2] != WIRE2_VERSION {
        return Err(Frame2Error::BadVersion(buf[2]));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let opcode = buf[3];
    let corr = u64::from_le_bytes(buf[4..12].try_into().expect("8 header bytes"));
    let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 header bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Frame2Error::Oversized(len));
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    Ok(Some((FrameRef { opcode, corr, payload }, HEADER_LEN + len)))
}

/// Blocking write of one wire-2.0 frame (client/test helper).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame2<W: Write>(
    writer: &mut W,
    opcode: u8,
    corr: u64,
    payload: &[u8],
) -> io::Result<()> {
    writer.write_all(&encode_frame(opcode, corr, payload))?;
    writer.flush()
}

/// Blocking read of one wire-2.0 frame; `Ok(None)` on clean EOF before
/// the first byte (client/test helper).
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` for a malformed header or a
/// stream truncated mid-frame.
pub fn read_frame2<R: Read>(reader: &mut R) -> io::Result<Option<Frame2>> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    let mut chunk = [0u8; 4096];
    loop {
        match parse_frame(&buf)? {
            Some((frame, consumed)) => {
                debug_assert_eq!(consumed, buf.len(), "blocking reader reads frame-at-a-time");
                return Ok(Some(frame));
            }
            None => {
                // read only up to the next known boundary so no bytes of a
                // following frame are consumed and lost
                let want = if buf.len() < HEADER_LEN {
                    HEADER_LEN - buf.len()
                } else {
                    let len = u32::from_le_bytes(buf[12..16].try_into().expect("header")) as usize;
                    HEADER_LEN + len - buf.len()
                };
                let cap = want.min(chunk.len());
                let n = match reader.read(&mut chunk[..cap]) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if (e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut)
                            && !buf.is_empty() =>
                    {
                        continue; // mid-frame poll tick: keep the stream aligned
                    }
                    Err(e) => return Err(e),
                };
                if n == 0 {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream truncated inside wire-2.0 frame",
                    ));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// payload codecs
// ---------------------------------------------------------------------

/// Little-endian payload writer.
#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A writer whose buffer starts with room for the frame header, so
    /// that [`into_frame`](Self::into_frame) finishes the frame in place
    /// instead of copying the payload behind a header.
    fn framed(payload_capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload_capacity);
        buf.resize(HEADER_LEN, 0);
        Enc { buf }
    }

    /// Writes the header into the room [`framed`](Self::framed) left.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_FRAME_LEN`] (see
    /// [`encode_frame`]).
    fn into_frame(mut self, opcode: u8, corr: u64) -> Vec<u8> {
        let len = self.buf.len() - HEADER_LEN;
        assert!(len <= MAX_FRAME_LEN, "oversized wire-2.0 payload");
        let header = &mut self.buf[..HEADER_LEN];
        header[..2].copy_from_slice(&MAGIC);
        header[2] = WIRE2_VERSION;
        header[3] = opcode;
        header[4..12].copy_from_slice(&corr.to_le_bytes());
        header[12..].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fails (instead of panicking) when `s` exceeds the u16 length
    /// prefix — the encoders fall back to JSON framing, so a hostile
    /// 64 KiB+ device id echoed into a response can never kill the
    /// reactor thread.
    fn string(&mut self, s: &str) -> io::Result<()> {
        let len = u16::try_from(s.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("string of {} bytes exceeds the wire-2.0 64 KiB string cap", s.len()),
            )
        })?;
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// Bit-packed bools, 8 per byte, LSB first.
    fn bits(&mut self, bits: &[bool]) {
        self.u32(bits.len() as u32);
        let mut byte = 0u8;
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.u8(byte);
                byte = 0;
            }
        }
        if !bits.len().is_multiple_of(8) {
            self.u8(byte);
        }
    }

    fn flow(&mut self, flow: &Flow) {
        self.u32(flow.source().index() as u32);
        self.u32(flow.sink().index() as u32);
        self.f64(flow.value());
        let edges = flow.edge_flows();
        self.u32(edges.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + 8 * edges.len(), 0);
        for (bytes, f) in self.buf[start..].chunks_exact_mut(8).zip(edges) {
            bytes.copy_from_slice(&f.to_le_bytes());
        }
    }

    fn challenge(&mut self, challenge: &Challenge) {
        self.u32(challenge.source.index() as u32);
        self.u32(challenge.sink.index() as u32);
        self.bits(&challenge.control_bits);
    }
}

/// Little-endian payload reader; every under-run is `InvalidData`.
struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire-2.0 payload truncated: wanted {n} bytes, had {}", self.buf.len()),
            ));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire-2.0 bool byte {other:#04x}"),
            )),
        }
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Guards a count field against forcing a giant allocation: the
    /// elements must actually fit in the remaining payload.
    fn counted(&mut self, per_element: usize) -> io::Result<usize> {
        let count = self.u32()? as usize;
        if count.saturating_mul(per_element) > self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire-2.0 count {count} larger than remaining payload"),
            ));
        }
        Ok(count)
    }

    fn bits(&mut self) -> io::Result<Vec<bool>> {
        let count = self.u32()? as usize;
        // packed-size guard before the Vec<bool> allocation: a hostile
        // count cannot force an allocation ~8x larger than the bytes the
        // client actually sent
        if count.div_ceil(8) > self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire-2.0 bit count {count} larger than remaining payload"),
            ));
        }
        let bytes = self.take(count.div_ceil(8))?;
        Ok((0..count).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }

    fn flow(&mut self) -> io::Result<Flow> {
        let source = NodeId::new(self.u32()?);
        let sink = NodeId::new(self.u32()?);
        let value = self.f64()?;
        let count = self.counted(8)?;
        let edges = self
            .take(8 * count)?
            .chunks_exact(8)
            .map(|bytes| f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
            .collect();
        Ok(Flow::from_edge_flows(source, sink, value, edges))
    }

    fn challenge(&mut self) -> io::Result<Challenge> {
        let source = NodeId::new(self.u32()?);
        let sink = NodeId::new(self.u32()?);
        let control_bits = self.bits()?;
        Ok(Challenge { source, sink, control_bits })
    }

    fn finish(self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} trailing bytes after wire-2.0 payload", self.buf.len()),
            ))
        }
    }
}

/// Longest device id a wire-2.0 request may carry, enforced at decode
/// (both the fixed binary encodings and `JSON_REQUEST` frames). The
/// service quotes device ids into error and echo responses, so capping
/// them at ingress bounds every response string far below the binary
/// wire's 64 KiB string limit.
pub const MAX_DEVICE_ID_LEN: usize = 256;

/// Rejects requests whose device id exceeds [`MAX_DEVICE_ID_LEN`].
fn check_device_id(request: &Request) -> io::Result<()> {
    let device_id = match request {
        Request::Register { device_id, .. }
        | Request::Revoke { device_id }
        | Request::GetChallenge { device_id }
        | Request::SubmitAnswer { device_id, .. } => device_id,
        _ => return Ok(()),
    };
    if device_id.len() > MAX_DEVICE_ID_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "device id of {} bytes exceeds the wire-2.0 cap of {MAX_DEVICE_ID_LEN}",
                device_id.len()
            ),
        ));
    }
    Ok(())
}

const ERROR_KINDS: [ErrorKind; 6] = [
    ErrorKind::UnknownDevice,
    ErrorKind::ReplayOrUnknownNonce,
    ErrorKind::SessionExpired,
    ErrorKind::Overloaded,
    ErrorKind::Malformed,
    ErrorKind::Internal,
];

fn error_kind_byte(kind: ErrorKind) -> u8 {
    ERROR_KINDS.iter().position(|&k| k == kind).expect("every kind is in the table") as u8
}

/// Fixed binary encoding of a hot-path request, in a [`framed`](Enc::framed)
/// writer; `None` when the request has no binary form or a field exceeds
/// a binary-wire bound — the caller falls back to JSON framing, which is
/// lossless.
fn try_encode_request(request: &Request) -> Option<(u8, Enc)> {
    match request {
        Request::GetChallenge { device_id } => {
            let mut enc = Enc::framed(2 + device_id.len());
            enc.string(device_id).ok()?;
            Some((opcode::GET_CHALLENGE, enc))
        }
        Request::SubmitAnswer { device_id, nonce, answer } => {
            // string, nonce, response byte, then per flow its terminals,
            // value, edge count and edges
            let flow_len = |flow: &Flow| 20 + 8 * flow.edge_flows().len();
            let mut enc = Enc::framed(
                2 + device_id.len() + 9 + flow_len(&answer.flow_a) + flow_len(&answer.flow_b),
            );
            enc.string(device_id).ok()?;
            enc.u64(*nonce);
            enc.u8(u8::from(answer.response));
            enc.flow(&answer.flow_a);
            enc.flow(&answer.flow_b);
            Some((opcode::SUBMIT_ANSWER, enc))
        }
        Request::Ping => Some((opcode::PING, Enc::framed(0))),
        _ => None,
    }
}

/// Encodes a request as one wire-2.0 frame under `corr`. Requests whose
/// fields do not fit the fixed binary encodings ride a
/// [`opcode::JSON_REQUEST`] frame instead.
pub fn encode_request(corr: u64, request: &Request) -> Vec<u8> {
    match try_encode_request(request) {
        Some((opcode, enc)) => enc.into_frame(opcode, corr),
        None => {
            let json = serde_json::to_string(request).expect("requests serialize");
            encode_frame(opcode::JSON_REQUEST, corr, json.as_bytes())
        }
    }
}

/// Fixed binary encoding of a hot-path response; `None` when the
/// response has no binary form or a field exceeds a binary-wire bound
/// (see [`try_encode_request`]).
fn try_encode_response(response: &Response) -> Option<(u8, Vec<u8>)> {
    let mut enc = Enc::default();
    let opcode = match response {
        Response::Challenge { device_id, nonce, challenge, deadline_s } => {
            enc.string(device_id).ok()?;
            enc.u64(*nonce);
            match deadline_s {
                Some(deadline) => {
                    enc.u8(1);
                    enc.f64(*deadline);
                }
                None => enc.u8(0),
            }
            enc.challenge(challenge);
            opcode::CHALLENGE
        }
        Response::Verdict { device_id, nonce, accepted, report, cached, elapsed_s } => {
            enc.string(device_id).ok()?;
            enc.u64(*nonce);
            let mut flags = 0u8;
            for (bit, set) in [
                *accepted,
                report.network_a.feasible,
                report.network_a.maximal,
                report.network_b.feasible,
                report.network_b.maximal,
                report.response_consistent,
                report.within_deadline,
                *cached,
            ]
            .into_iter()
            .enumerate()
            {
                flags |= u8::from(set) << bit;
            }
            enc.u8(flags);
            enc.f64(*elapsed_s);
            opcode::VERDICT
        }
        Response::Error { kind, message, retry_after_ms } => {
            enc.u8(error_kind_byte(*kind));
            match retry_after_ms {
                Some(ms) => {
                    enc.u8(1);
                    enc.u64(*ms);
                }
                None => enc.u8(0),
            }
            enc.string(message).ok()?;
            opcode::ERROR
        }
        Response::Pong => opcode::PONG,
        _ => return None,
    };
    Some((opcode, enc.buf))
}

/// Encodes a response as one wire-2.0 frame echoing `corr`. This never
/// panics on any `Response` the service can build: oversized strings
/// fall back to JSON framing, and a response no frame can carry (past
/// [`MAX_FRAME_LEN`] even as JSON) is replaced by a compact `Internal`
/// error so the connection — and the reactor thread encoding on it —
/// stays alive.
pub fn encode_response(corr: u64, response: &Response) -> Vec<u8> {
    let (opcode, payload) = try_encode_response(response).unwrap_or_else(|| {
        let json = serde_json::to_string(response).expect("responses serialize").into_bytes();
        (opcode::JSON_RESPONSE, json)
    });
    if payload.len() > MAX_FRAME_LEN {
        let fallback = Response::Error {
            kind: ErrorKind::Internal,
            message: format!("response of {} bytes exceeds the frame cap", payload.len()),
            retry_after_ms: None,
        };
        return encode_response(corr, &fallback);
    }
    encode_frame(opcode, corr, &payload)
}

/// Decodes a request frame's payload.
///
/// # Errors
///
/// `InvalidData` for an unknown opcode, a truncated or trailing-bytes
/// payload, an unparseable JSON payload, or a device id past
/// [`MAX_DEVICE_ID_LEN`] — the caller answers with a structured
/// `Malformed` error, keeping the connection alive (matching the JSON
/// wire's contract).
pub fn decode_request(frame: &Frame2) -> io::Result<Request> {
    decode_request_ref(FrameRef { opcode: frame.opcode, corr: frame.corr, payload: &frame.payload })
}

/// [`decode_request`] of a frame borrowed by [`parse_frame_ref`].
pub(crate) fn decode_request_ref(frame: FrameRef<'_>) -> io::Result<Request> {
    let mut dec = Dec::new(frame.payload);
    let request = match frame.opcode {
        opcode::GET_CHALLENGE => Request::GetChallenge { device_id: dec.string()? },
        opcode::SUBMIT_ANSWER => {
            let device_id = dec.string()?;
            let nonce = dec.u64()?;
            let response = dec.bool()?;
            let flow_a = dec.flow()?;
            let flow_b = dec.flow()?;
            Request::SubmitAnswer {
                device_id,
                nonce,
                answer: ProverAnswer { response, flow_a, flow_b },
            }
        }
        opcode::PING => Request::Ping,
        opcode::JSON_REQUEST => {
            let text = std::str::from_utf8(frame.payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let request: Request = serde_json::from_str(text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            check_device_id(&request)?;
            return Ok(request);
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown wire-2.0 request opcode {other:#04x}"),
            ));
        }
    };
    dec.finish()?;
    check_device_id(&request)?;
    Ok(request)
}

/// Decodes a response frame's payload.
///
/// # Errors
///
/// `InvalidData` on any malformed payload (see [`decode_request`]).
pub fn decode_response(frame: &Frame2) -> io::Result<Response> {
    let mut dec = Dec::new(&frame.payload);
    let response = match frame.opcode {
        opcode::CHALLENGE => {
            let device_id = dec.string()?;
            let nonce = dec.u64()?;
            let deadline_s = if dec.bool()? { Some(dec.f64()?) } else { None };
            let challenge = dec.challenge()?;
            Response::Challenge { device_id, nonce, challenge, deadline_s }
        }
        opcode::VERDICT => {
            let device_id = dec.string()?;
            let nonce = dec.u64()?;
            let flags = dec.u8()?;
            let bit = |i: u8| flags & (1 << i) != 0;
            let elapsed_s = dec.f64()?;
            Response::Verdict {
                device_id,
                nonce,
                accepted: bit(0),
                report: VerificationReport {
                    network_a: NetworkVerdict { feasible: bit(1), maximal: bit(2) },
                    network_b: NetworkVerdict { feasible: bit(3), maximal: bit(4) },
                    response_consistent: bit(5),
                    within_deadline: bit(6),
                },
                cached: bit(7),
                elapsed_s,
            }
        }
        opcode::ERROR => {
            let kind_byte = dec.u8()? as usize;
            let kind = *ERROR_KINDS.get(kind_byte).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown wire-2.0 error kind {kind_byte}"),
                )
            })?;
            let retry_after_ms = if dec.bool()? { Some(dec.u64()?) } else { None };
            let message = dec.string()?;
            Response::Error { kind, message, retry_after_ms }
        }
        opcode::PONG => Response::Pong,
        opcode::JSON_RESPONSE => {
            let text = std::str::from_utf8(&frame.payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            return serde_json::from_str(text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown wire-2.0 response opcode {other:#04x}"),
            ));
        }
    };
    dec.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_is_disjoint_from_json_length_prefixes() {
        // a JSON frame's first byte is the high byte of a u32 BE length
        // capped at MAX_FRAME_LEN
        let max_first_byte = (MAX_FRAME_LEN as u32).to_be_bytes()[0];
        assert!(MAGIC[0] > max_first_byte, "negotiation must be unambiguous on the first byte");
    }

    #[test]
    fn frame_roundtrips_through_incremental_parse() {
        let frame = encode_frame(opcode::PING, 0xDEAD_BEEF_CAFE_F00D, b"xyz");
        // any split point short of the whole frame wants more bytes
        for cut in 0..frame.len() {
            match parse_frame(&frame[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes parsed as {other:?}"),
            }
        }
        let (parsed, consumed) = parse_frame(&frame).unwrap().expect("full frame parses");
        assert_eq!(consumed, frame.len());
        assert_eq!(parsed.opcode, opcode::PING);
        assert_eq!(parsed.corr, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(parsed.payload, b"xyz");
    }

    #[test]
    fn garbage_and_bad_version_rejected_immediately() {
        assert_eq!(parse_frame(b"GET / HTTP/1.1"), Err(Frame2Error::BadMagic([b'G', b'E'])));
        assert_eq!(parse_frame(&[0xB5, 0x51]), Err(Frame2Error::BadMagic([0xB5, 0x51])));
        // even a single wrong first byte is enough
        assert_eq!(parse_frame(&[0x42]), Err(Frame2Error::BadMagic([0x42, 0x00])));
        assert_eq!(parse_frame(&[0xB5, 0x50, 9]), Err(Frame2Error::BadVersion(9)));
        let mut oversized = encode_frame(opcode::PING, 1, b"");
        oversized[12..16].copy_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
        assert_eq!(parse_frame(&oversized), Err(Frame2Error::Oversized(MAX_FRAME_LEN + 1)));
    }

    #[test]
    fn blocking_helpers_roundtrip_two_frames() {
        let mut buf = Vec::new();
        write_frame2(&mut buf, opcode::PING, 7, b"").unwrap();
        write_frame2(&mut buf, opcode::PONG, 8, b"tail").unwrap();
        let mut cursor = io::Cursor::new(buf);
        let first = read_frame2(&mut cursor).unwrap().unwrap();
        assert_eq!((first.opcode, first.corr), (opcode::PING, 7));
        let second = read_frame2(&mut cursor).unwrap().unwrap();
        assert_eq!(
            (second.opcode, second.corr, second.payload),
            (opcode::PONG, 8, b"tail".to_vec())
        );
        assert_eq!(read_frame2(&mut cursor).unwrap(), None);
    }

    #[test]
    fn bit_packing_roundtrips_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let mut enc = Enc::default();
            enc.bits(&bits);
            let mut dec = Dec::new(&enc.buf);
            assert_eq!(dec.bits().unwrap(), bits, "len {len}");
            dec.finish().unwrap();
        }
    }

    #[test]
    fn hostile_counts_cannot_force_giant_allocations() {
        // a flow header claiming u32::MAX edges with no bytes behind it
        let mut enc = Enc::default();
        enc.string("d").unwrap();
        enc.u64(1);
        enc.u8(1);
        enc.u32(0); // flow_a.source
        enc.u32(1); // flow_a.sink
        enc.f64(0.0); // flow_a.value
        enc.u32(u32::MAX); // flow_a edge count: lies
        let frame = Frame2 { opcode: opcode::SUBMIT_ANSWER, corr: 1, payload: enc.buf };
        let err = decode_request(&frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn hostile_bit_counts_cannot_force_giant_allocations() {
        // a bit count claiming u32::MAX bits with no packed bytes behind
        // it must fail the packed-size guard, not allocate ~512 MiB
        let payload = u32::MAX.to_le_bytes();
        let mut dec = Dec::new(&payload);
        let err = dec.bits().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bit count"), "{err}");
    }

    #[test]
    fn oversized_strings_never_panic_the_response_encoder() {
        // a response quoting a near-64-KiB string cannot use the binary
        // string encoding; it must fall back to JSON framing losslessly
        let big = "x".repeat(70_000);
        let response =
            Response::error(ErrorKind::UnknownDevice, format!("device {big:?} is not registered"));
        let bytes = encode_response(9, &response);
        let (frame, _) = parse_frame(&bytes).unwrap().expect("complete frame");
        assert_eq!(frame.opcode, opcode::JSON_RESPONSE);
        assert_eq!(decode_response(&frame).unwrap(), response);

        // same on the request side (client-side encoder)
        let request = Request::GetChallenge { device_id: big };
        let bytes = encode_request(3, &request);
        let (frame, _) = parse_frame(&bytes).unwrap().expect("complete frame");
        assert_eq!(frame.opcode, opcode::JSON_REQUEST);
    }

    #[test]
    fn profile_admin_command_rides_the_json_opcode() {
        use crate::wire::ProfileFormat;
        // wire-1.3 additions need no new opcodes: they fall back to the
        // JSON framing like every other cold admin message
        for format in [ProfileFormat::Json, ProfileFormat::Folded] {
            let request = Request::Profile { format };
            let bytes = encode_request(11, &request);
            let (frame, _) = parse_frame(&bytes).unwrap().expect("complete frame");
            assert_eq!(frame.opcode, opcode::JSON_REQUEST);
            assert_eq!(frame.corr, 11);
            assert_eq!(decode_request(&frame).unwrap(), request);

            let response =
                Response::Profile { format, body: "analog.dc.solve;stamp 12\n".to_string() };
            let bytes = encode_response(11, &response);
            let (frame, _) = parse_frame(&bytes).unwrap().expect("complete frame");
            assert_eq!(frame.opcode, opcode::JSON_RESPONSE);
            assert_eq!(decode_response(&frame).unwrap(), response);
        }
    }

    #[test]
    fn device_ids_past_the_cap_are_rejected_at_decode() {
        let long_id = "d".repeat(MAX_DEVICE_ID_LEN + 1);
        // fixed binary encoding
        let mut enc = Enc::default();
        enc.string(&long_id).unwrap();
        let frame = Frame2 { opcode: opcode::GET_CHALLENGE, corr: 1, payload: enc.buf };
        let err = decode_request(&frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("device id"), "{err}");
        // JSON_REQUEST frames obey the same cap
        let request = Request::Revoke { device_id: long_id };
        let payload = serde_json::to_string(&request).unwrap().into_bytes();
        let frame = Frame2 { opcode: opcode::JSON_REQUEST, corr: 1, payload };
        let err = decode_request(&frame).unwrap_err();
        assert!(err.to_string().contains("device id"), "{err}");
        // ids at the cap still pass
        let ok = Request::GetChallenge { device_id: "d".repeat(MAX_DEVICE_ID_LEN) };
        let bytes = encode_request(2, &ok);
        let (frame, _) = parse_frame(&bytes).unwrap().expect("complete frame");
        assert_eq!(decode_request(&frame).unwrap(), ok);
    }
}
