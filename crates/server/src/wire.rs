//! Wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every message is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON. Requests and responses are externally tagged
//! enums, e.g.
//!
//! ```text
//! → {"GetChallenge": {"device_id": "dev-0"}}
//! ← {"Challenge": {"device_id": "dev-0", "nonce": 17, "challenge": {...},
//!                  "deadline_s": 0.25}}
//! ```
//!
//! Frames are capped at [`MAX_FRAME_LEN`] so a hostile length prefix
//! cannot force a giant allocation; oversized or truncated frames and
//! unparseable payloads are *protocol* errors that the server answers
//! with a structured [`Response::Error`] instead of dropping the
//! connection.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use ppuf_core::challenge::Challenge;
use ppuf_core::protocol::auth::{ProverAnswer, VerificationReport};
use ppuf_core::public_model::PublicModel;

use crate::health::HealthReport;

/// Hard cap on a frame payload, in bytes (16 MiB — a published model for
/// a paper-scale device is well under 1 MiB).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Wire protocol major version; bumped only on incompatible changes.
pub const WIRE_VERSION_MAJOR: u32 = 1;

/// Wire protocol minor version. Minor bumps are backward compatible by
/// rule: new request kinds draw a structured [`ErrorKind::Malformed`]
/// from an older server (the connection survives), and the optional
/// [`TracedRequest`]/[`TracedResponse`] envelope degrades to the bare
/// v1.0 encoding when no `trace_id` is attached, so old and new peers
/// interoperate in both directions.
///
/// 1.1 added the `trace_id` envelope and the [`Request::Stats`] admin
/// command. 1.2 added the [`Request::Health`] SLO surface and the
/// [`Request::Dump`] flight-recorder admin command. 1.3 added the
/// [`Request::Profile`] admin command exposing the always-on hierarchical
/// profiler; every ≤1.2 message still encodes byte-identically (locked by
/// test).
pub const WIRE_VERSION_MINOR: u32 = 3;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidInput` if `payload` exceeds
/// [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds cap {MAX_FRAME_LEN}", payload.len()),
        ));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean end-of-stream
/// (EOF before any length byte).
///
/// `WouldBlock`/`TimedOut` from a polling read timeout surface only at a
/// frame boundary (no byte consumed yet, so the caller may simply retry);
/// once a frame has started, the read is retried internally — returning
/// mid-frame would desynchronize the stream.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` for a length above
/// [`MAX_FRAME_LEN`] or a stream truncated mid-frame.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    if !read_full(reader, &mut len_bytes, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_full(reader, &mut payload, false)?;
    Ok(Some(payload))
}

/// Fills `buf` completely. Returns `Ok(false)` for EOF before the first
/// byte when `start_of_frame` (clean end-of-stream); EOF anywhere else is
/// `InvalidData` (truncated frame). `WouldBlock`/`TimedOut` propagate
/// only before the first byte of a frame; later ones retry.
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8], start_of_frame: bool) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if start_of_frame && filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream truncated inside frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut)
                    && !(start_of_frame && filled == 0) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Publish (or replace) a device's public model.
    Register {
        /// Registry key for the device.
        device_id: String,
        /// The model every verifier check runs against.
        model: PublicModel,
    },
    /// Remove a device; its outstanding sessions die with it.
    Revoke {
        /// Registry key for the device.
        device_id: String,
    },
    /// Mint a nonce-bound challenge for a device and start its clock.
    GetChallenge {
        /// Registry key for the device.
        device_id: String,
    },
    /// Redeem a session nonce with the prover's answer.
    SubmitAnswer {
        /// Registry key for the device.
        device_id: String,
        /// The session nonce from the matching `Challenge` response.
        nonce: u64,
        /// The prover's answer (response bit plus both flow functions).
        answer: ProverAnswer,
    },
    /// Liveness probe.
    Ping,
    /// Read-only admin command: snapshot the server's live telemetry.
    Stats {
        /// Which rendering of the snapshot to return.
        format: StatsFormat,
    },
    /// Read-only admin command: assess the sliding-window SLOs.
    Health,
    /// Admin command: dump the flight recorder's retained traces and
    /// events to disk (and return the post-mortem inline).
    Dump,
    /// Read-only admin command (wire 1.3): snapshot the server's live
    /// call-path profile.
    Profile {
        /// Which rendering of the profile to return.
        format: ProfileFormat,
    },
}

/// Rendering of a [`Request::Profile`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileFormat {
    /// Per-path stats as a JSON object (path → count/wall/self/min/max
    /// plus allocation tallies), matching the report `profile` section.
    Json,
    /// Folded-stack text, one `path self_micros` line per call path,
    /// ready for `flamegraph.pl`.
    Folded,
}

/// Rendering of a [`Request::Stats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsFormat {
    /// The schema-versioned JSON report (`ppuf_telemetry::Report`).
    Json,
    /// Prometheus text exposition (`ppuf_*` metrics).
    Prometheus,
}

/// Machine-readable failure category in a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The device id is not registered (or was revoked).
    UnknownDevice,
    /// The nonce was never issued or was already redeemed — or its
    /// session expired a TTL ago or more and the issuer swept it out.
    ReplayOrUnknownNonce,
    /// The session outlived its time-to-live before the answer arrived.
    SessionExpired,
    /// The dispatch queue is full; retry after the hinted delay.
    Overloaded,
    /// The frame was not a well-formed request.
    Malformed,
    /// The server failed internally (the verification check errored).
    Internal,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The device is registered and challengeable.
    Registered {
        /// Registry key for the device.
        device_id: String,
    },
    /// Revocation outcome.
    Revoked {
        /// Registry key for the device.
        device_id: String,
        /// Whether the device was registered before this call.
        existed: bool,
    },
    /// A minted challenge; answer it before `deadline_s` elapses.
    Challenge {
        /// Registry key for the device.
        device_id: String,
        /// Session nonce to present with the answer.
        nonce: u64,
        /// The challenge to execute.
        challenge: Challenge,
        /// Answer deadline in seconds, if the service enforces one.
        deadline_s: Option<f64>,
    },
    /// The verification verdict for a submitted answer.
    Verdict {
        /// Registry key for the device.
        device_id: String,
        /// The redeemed session nonce.
        nonce: u64,
        /// `true` iff every check (including the deadline) passed.
        accepted: bool,
        /// Per-check findings.
        report: VerificationReport,
        /// Whether the flow checks were served from the verification
        /// cache (the deadline check never is).
        cached: bool,
        /// Measured seconds between challenge issue and answer arrival.
        elapsed_s: f64,
    },
    /// A structured failure.
    Error {
        /// Failure category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// For [`ErrorKind::Overloaded`]: suggested client backoff.
        retry_after_ms: Option<u64>,
    },
    /// Liveness answer.
    Pong,
    /// The telemetry snapshot answering a [`Request::Stats`].
    Stats {
        /// The format the snapshot was rendered in.
        format: StatsFormat,
        /// The rendered snapshot (JSON report or Prometheus text).
        body: String,
    },
    /// The SLO assessment answering a [`Request::Health`].
    Health {
        /// Per-objective verdicts and the worst-of overall status.
        report: HealthReport,
    },
    /// The call-path profile answering a [`Request::Profile`].
    Profile {
        /// The format the profile was rendered in.
        format: ProfileFormat,
        /// The rendered profile (JSON map or folded-stack text).
        body: String,
    },
    /// Acknowledgement of a [`Request::Dump`].
    Dumped {
        /// Where the post-mortem landed on the server's disk, if a dump
        /// directory is configured.
        path: Option<String>,
        /// Trace trees retained in the dump.
        traces: u64,
        /// Black-box events retained in the dump.
        events: u64,
    },
}

impl Response {
    /// Convenience constructor for error responses without a retry hint.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        Response::Error { kind, message: message.into(), retry_after_ms: None }
    }
}

/// Optional request-tracing envelope (wire 1.1).
///
/// With a `trace_id` the message encodes as
/// `{"trace_id": N, "body": <bare message>}`; without one it encodes as
/// the bare v1.0 message, byte-identical to pre-envelope clients. The
/// decoder keys on the presence of a `"body"` field — no bare message is
/// a map with that key (they are externally tagged enums), so both forms
/// decode unambiguously. The id 0 is reserved for "absent".
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRequest {
    /// Client-chosen trace id echoed back in the response envelope.
    pub trace_id: Option<u64>,
    /// The request proper.
    pub body: Request,
}

/// Response side of the tracing envelope; see [`TracedRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct TracedResponse {
    /// The trace id the server filed this request's spans under.
    pub trace_id: Option<u64>,
    /// The response proper.
    pub body: Response,
}

macro_rules! traced_envelope {
    ($envelope:ident, $body:ty) => {
        impl $envelope {
            /// Wraps a message without tracing (encodes as bare v1.0).
            pub fn bare(body: $body) -> Self {
                $envelope { trace_id: None, body }
            }

            /// Wraps a message under a trace id (0 means "absent").
            pub fn traced(trace_id: u64, body: $body) -> Self {
                $envelope { trace_id: (trace_id != 0).then_some(trace_id), body }
            }
        }

        impl Serialize for $envelope {
            fn to_value(&self) -> serde::Value {
                match self.trace_id {
                    None => self.body.to_value(),
                    Some(id) => serde::Value::Map(vec![
                        ("trace_id".to_string(), id.to_value()),
                        ("body".to_string(), self.body.to_value()),
                    ]),
                }
            }
        }

        impl<'de> Deserialize<'de> for $envelope {
            fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
                match value.get("body") {
                    Some(body) => {
                        let trace_id = match value.get("trace_id") {
                            None | Some(serde::Value::Null) => None,
                            Some(v) => Some(u64::from_value(v)?).filter(|id| *id != 0),
                        };
                        Ok($envelope { trace_id, body: <$body>::from_value(body)? })
                    }
                    None => Ok($envelope { trace_id: None, body: <$body>::from_value(value)? }),
                }
            }
        }
    };
}

traced_envelope!(TracedRequest, Request);
traced_envelope!(TracedResponse, Response);

/// Serializes a message and writes it as one frame.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` if serialization fails.
pub fn send_message<W: Write, T: Serialize>(writer: &mut W, message: &T) -> io::Result<()> {
    let text = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(writer, text.as_bytes())
}

/// Reads one frame and parses it; `Ok(None)` on clean end-of-stream.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` for an unparseable payload.
pub fn recv_message<R: Read, T: for<'de> Deserialize<'de>>(
    reader: &mut R,
) -> io::Result<Option<T>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let parsed = serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // truncated inside the length prefix too
        let err = read_frame(&mut io::Cursor::new(vec![0u8, 0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_roundtrip_as_json() {
        let requests = [
            Request::Revoke { device_id: "d".into() },
            Request::GetChallenge { device_id: "d".into() },
            Request::Ping,
        ];
        for request in &requests {
            let text = serde_json::to_string(request).unwrap();
            let back: Request = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, request);
        }
    }

    #[test]
    fn error_response_roundtrips() {
        let response = Response::Error {
            kind: ErrorKind::Overloaded,
            message: "queue full".into(),
            retry_after_ms: Some(50),
        };
        let text = serde_json::to_string(&response).unwrap();
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn send_recv_roundtrip() {
        let mut buf = Vec::new();
        send_message(&mut buf, &Request::Ping).unwrap();
        let back: Option<Request> = recv_message(&mut io::Cursor::new(buf)).unwrap();
        assert_eq!(back, Some(Request::Ping));
    }

    #[test]
    fn stats_request_and_response_roundtrip() {
        for format in [StatsFormat::Json, StatsFormat::Prometheus] {
            let request = Request::Stats { format };
            let back: Request =
                serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
            assert_eq!(back, request);
        }
        let response = Response::Stats {
            format: StatsFormat::Prometheus,
            body: "# TYPE x gauge\nx 1\n".into(),
        };
        let back: Response =
            serde_json::from_str(&serde_json::to_string(&response).unwrap()).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn health_and_dump_admin_messages_roundtrip() {
        use crate::health::{HealthStatus, SloVerdict};

        for request in [Request::Health, Request::Dump] {
            let back: Request =
                serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
            assert_eq!(back, request);
        }
        let response = Response::Health {
            report: HealthReport {
                status: HealthStatus::Degraded,
                window_s: 60.0,
                requests: 120,
                slos: vec![SloVerdict {
                    slo: "overload_ratio".into(),
                    status: HealthStatus::Degraded,
                    value: 0.08,
                    degraded_at: 0.05,
                    unhealthy_at: 0.25,
                }],
            },
        };
        let back: Response =
            serde_json::from_str(&serde_json::to_string(&response).unwrap()).unwrap();
        assert_eq!(back, response);

        let response = Response::Dumped {
            path: Some("results/flightrec/burst-000001.json".into()),
            traces: 3,
            events: 9,
        };
        let back: Response =
            serde_json::from_str(&serde_json::to_string(&response).unwrap()).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn profile_admin_messages_roundtrip() {
        for format in [ProfileFormat::Json, ProfileFormat::Folded] {
            let request = Request::Profile { format };
            let back: Request =
                serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
            assert_eq!(back, request);
        }
        let response = Response::Profile {
            format: ProfileFormat::Folded,
            body: "server.request;verify 1200\n".into(),
        };
        let back: Response =
            serde_json::from_str(&serde_json::to_string(&response).unwrap()).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn wire_1_2_messages_encode_byte_identically_after_the_1_3_additions() {
        // the 1.3 compatibility rule, locked: adding Request::Profile /
        // Response::Profile must not change a single byte of any ≤1.2
        // encoding, so pre-1.3 clients and servers interoperate unchanged
        let cases: [(&str, String); 6] = [
            ("\"Ping\"", serde_json::to_string(&Request::Ping).unwrap()),
            ("\"Health\"", serde_json::to_string(&Request::Health).unwrap()),
            ("\"Dump\"", serde_json::to_string(&Request::Dump).unwrap()),
            (
                "{\"Stats\":{\"format\":\"Prometheus\"}}",
                serde_json::to_string(&Request::Stats { format: StatsFormat::Prometheus }).unwrap(),
            ),
            (
                "{\"GetChallenge\":{\"device_id\":\"d\"}}",
                serde_json::to_string(&Request::GetChallenge { device_id: "d".into() }).unwrap(),
            ),
            ("\"Pong\"", serde_json::to_string(&Response::Pong).unwrap()),
        ];
        for (expected, actual) in &cases {
            assert_eq!(actual, expected, "a ≤1.2 message changed encoding");
        }
        let response = Response::Error {
            kind: ErrorKind::Overloaded,
            message: "queue full".into(),
            retry_after_ms: Some(50),
        };
        let text = serde_json::to_string(&response).unwrap();
        assert_eq!(
            text,
            "{\"Error\":{\"kind\":\"Overloaded\",\"message\":\"queue full\",\
             \"retry_after_ms\":50}}"
        );
    }

    #[test]
    fn bare_envelope_encodes_exactly_like_the_untraced_message() {
        let request = Request::GetChallenge { device_id: "d".into() };
        let bare = TracedRequest::bare(request.clone());
        assert_eq!(serde_json::to_string(&bare).unwrap(), serde_json::to_string(&request).unwrap());
        // and a traced id of 0 degrades to bare (0 is reserved)
        let zero = TracedRequest::traced(0, request.clone());
        assert_eq!(zero, bare);
    }

    #[test]
    fn traced_envelope_roundtrips_and_decodes_bare_frames() {
        let request = Request::GetChallenge { device_id: "d".into() };
        let traced = TracedRequest::traced(0xDEADBEEF, request.clone());
        let text = serde_json::to_string(&traced).unwrap();
        assert!(text.contains("trace_id"), "{text}");
        let back: TracedRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, traced);

        // an envelope-aware decoder accepts a v1.0 bare frame unchanged
        let bare_text = serde_json::to_string(&request).unwrap();
        let back: TracedRequest = serde_json::from_str(&bare_text).unwrap();
        assert_eq!(back, TracedRequest::bare(request));

        // same on the response side
        let response = Response::Pong;
        let traced = TracedResponse::traced(7, response.clone());
        let back: TracedResponse =
            serde_json::from_str(&serde_json::to_string(&traced).unwrap()).unwrap();
        assert_eq!(back, traced);
        let back: TracedResponse =
            serde_json::from_str(&serde_json::to_string(&response).unwrap()).unwrap();
        assert_eq!(back, TracedResponse::bare(response));
    }
}
