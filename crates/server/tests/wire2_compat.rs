//! Wire 2.0 codec compatibility: every binary message round-trips to
//! exactly the value the JSON wire carries, incremental parsing survives
//! a tear at every byte boundary, and garbage is rejected — never
//! misparsed.

use ppuf_core::challenge::Challenge;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{NetworkVerdict, ProverAnswer, VerificationReport};
use ppuf_maxflow::{Flow, NodeId};
use ppuf_server::wire::{ErrorKind, Request, Response};
use ppuf_server::wire2::{
    self, decode_request, decode_response, encode_frame, encode_request, encode_response,
    parse_frame, Frame2Error, HEADER_LEN, MAGIC,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn flow(source: u32, sink: u32, value: f64, edges: Vec<f64>) -> Flow {
    Flow::from_edge_flows(NodeId::new(source), NodeId::new(sink), value, edges)
}

/// Asserts a request survives the binary wire bit-for-bit *and* the
/// JSON wire — the two protocols must carry the same value.
fn roundtrip_request(corr: u64, request: &Request) -> Result<(), TestCaseError> {
    let bytes = encode_request(corr, request);
    let (frame, used) = parse_frame(&bytes)
        .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?
        .ok_or_else(|| TestCaseError::fail("complete frame parsed as partial"))?;
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(frame.corr, corr);
    let decoded =
        decode_request(&frame).map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
    prop_assert_eq!(&decoded, request);
    // the JSON wire must carry the identical value
    let json = serde_json::to_string(request)
        .map_err(|e| TestCaseError::fail(format!("json encode failed: {e}")))?;
    let via_json: Request = serde_json::from_str(&json)
        .map_err(|e| TestCaseError::fail(format!("json decode failed: {e}")))?;
    prop_assert_eq!(&via_json, request);
    Ok(())
}

fn roundtrip_response(corr: u64, response: &Response) -> Result<(), TestCaseError> {
    let bytes = encode_response(corr, response);
    let (frame, used) = parse_frame(&bytes)
        .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?
        .ok_or_else(|| TestCaseError::fail("complete frame parsed as partial"))?;
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(frame.corr, corr);
    let decoded =
        decode_response(&frame).map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
    prop_assert_eq!(&decoded, response);
    let json = serde_json::to_string(response)
        .map_err(|e| TestCaseError::fail(format!("json encode failed: {e}")))?;
    let via_json: Response = serde_json::from_str(&json)
        .map_err(|e| TestCaseError::fail(format!("json decode failed: {e}")))?;
    prop_assert_eq!(&via_json, response);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn get_challenge_roundtrips(tag in any::<u64>(), corr in any::<u64>()) {
        roundtrip_request(corr, &Request::GetChallenge { device_id: format!("dev-{tag:x}") })?;
    }

    #[test]
    fn submit_answer_roundtrips(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        response in any::<bool>(),
        src in 0u32..64,
        dst in 0u32..64,
        value in 0.0f64..8.0,
        edges_a in vec(0.0f64..4.0, 0..12),
        edges_b in vec(0.0f64..4.0, 0..12),
    ) {
        let request = Request::SubmitAnswer {
            device_id: "device".into(),
            nonce,
            answer: ProverAnswer {
                response,
                flow_a: flow(src, dst, value, edges_a),
                flow_b: flow(dst, src, value * 0.5, edges_b),
            },
        };
        roundtrip_request(corr, &request)?;
    }

    #[test]
    fn challenge_response_roundtrips(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        src in 0u32..256,
        dst in 0u32..256,
        bits in vec(any::<bool>(), 0..40),
        deadline in 0.0f64..10.0,
        with_deadline in any::<bool>(),
    ) {
        let response = Response::Challenge {
            device_id: "device".into(),
            nonce,
            challenge: Challenge {
                source: NodeId::new(src),
                sink: NodeId::new(dst),
                control_bits: bits,
            },
            deadline_s: with_deadline.then_some(deadline),
        };
        roundtrip_response(corr, &response)?;
    }

    #[test]
    fn verdict_roundtrips(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        flags in vec(any::<bool>(), 7),
        elapsed in 0.0f64..5.0,
    ) {
        let report = VerificationReport {
            network_a: NetworkVerdict { feasible: flags[0], maximal: flags[1] },
            network_b: NetworkVerdict { feasible: flags[2], maximal: flags[3] },
            response_consistent: flags[4],
            within_deadline: flags[5],
        };
        let response = Response::Verdict {
            device_id: "device".into(),
            nonce,
            accepted: report.accepted(),
            report,
            cached: flags[6],
            elapsed_s: elapsed,
        };
        roundtrip_response(corr, &response)?;
    }

    #[test]
    fn error_response_roundtrips(
        corr in any::<u64>(),
        kind_pick in 0usize..6,
        retry in any::<u64>(),
        with_retry in any::<bool>(),
        tag in any::<u64>(),
    ) {
        let kinds = [
            ErrorKind::UnknownDevice,
            ErrorKind::ReplayOrUnknownNonce,
            ErrorKind::SessionExpired,
            ErrorKind::Overloaded,
            ErrorKind::Malformed,
            ErrorKind::Internal,
        ];
        let response = Response::Error {
            kind: kinds[kind_pick],
            message: format!("failure {tag:x}"),
            retry_after_ms: with_retry.then_some(retry),
        };
        roundtrip_response(corr, &response)?;
    }

    #[test]
    fn torn_frames_parse_incrementally(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        bits in vec(any::<bool>(), 0..24),
    ) {
        // a frame torn at EVERY byte boundary parses as "incomplete",
        // never as an error or a wrong message
        let response = Response::Challenge {
            device_id: "device".into(),
            nonce,
            challenge: Challenge {
                source: NodeId::new(3),
                sink: NodeId::new(7),
                control_bits: bits,
            },
            deadline_s: Some(0.5),
        };
        let bytes = encode_response(corr, &response);
        for cut in 0..bytes.len() {
            match parse_frame(&bytes[..cut]) {
                Ok(None) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "prefix of {cut}/{} bytes parsed as {other:?}",
                        bytes.len()
                    )));
                }
            }
        }
        let (frame, used) = parse_frame(&bytes)
            .map_err(|e| TestCaseError::fail(format!("full frame failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("full frame still partial"))?;
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(
            decode_response(&frame)
                .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?,
            response
        );
        // trailing bytes of a pipelined successor are not consumed
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let (_, used) = parse_frame(&two)
            .map_err(|e| TestCaseError::fail(format!("pipelined parse failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("pipelined frame partial"))?;
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn garbage_first_bytes_reject(first in any::<u8>(), second in any::<u8>(), rest in vec(any::<u8>(), 0..32)) {
        prop_assume!([first, second] != MAGIC);
        let mut buf = vec![first, second];
        buf.extend_from_slice(&rest);
        // the JSON wire's length prefix (capped at 16 MiB) always starts
        // 0x00/0x01, and everything else must be rejected as soon as the
        // magic can be checked — a single byte suffices when it is wrong
        if first != MAGIC[0] {
            prop_assert!(matches!(parse_frame(&buf[..1]), Err(Frame2Error::BadMagic(_))));
        }
        prop_assert!(matches!(parse_frame(&buf), Err(Frame2Error::BadMagic(_))));
    }
}

#[test]
fn admin_messages_ride_the_json_fallback() {
    // admin traffic (registry management, stats, health) has no hot-path
    // binary encoding: it rides inside JSON_REQUEST/JSON_RESPONSE frames
    // and must round-trip exactly, model payload included
    let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 11).expect("device generation");
    let model = ppuf.public_model().expect("model publication");
    let requests = [
        Request::Register { device_id: "dev".into(), model },
        Request::Revoke { device_id: "dev".into() },
        Request::Health,
        Request::Dump,
    ];
    for request in &requests {
        let bytes = encode_request(9, request);
        let (frame, _) = parse_frame(&bytes).expect("parse").expect("complete");
        assert_eq!(frame.opcode, wire2::opcode::JSON_REQUEST, "{request:?}");
        assert_eq!(&decode_request(&frame).expect("decode"), request);
    }
}

#[test]
fn oversized_and_bad_version_frames_reject() {
    let bytes = encode_frame(wire2::opcode::PING, 1, &[]);
    let mut bad_version = bytes.clone();
    bad_version[2] = 3;
    assert!(matches!(parse_frame(&bad_version), Err(Frame2Error::BadVersion(3))));

    let mut oversized = bytes;
    oversized[12..16].copy_from_slice(&(64 * 1024 * 1024u32).to_le_bytes());
    assert!(matches!(parse_frame(&oversized), Err(Frame2Error::Oversized(_))));
    assert_eq!(HEADER_LEN, 16);
}

/// The SubmitAnswer frame of [`golden_submit_answer_bytes`], field by
/// field: three-edge flows carrying −0.0, subnormals and NaNs with
/// payloads, whose bits the wire must carry unchanged.
#[rustfmt::skip]
const GOLDEN_SUBMIT: [u8; 119] = [
    0xB5, 0x50, 0x02, 0x02,                         // magic, version 2, SUBMIT_ANSWER
    0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // correlation id
    0x67, 0x00, 0x00, 0x00,                         // payload length 103
    0x04, 0x00, b'c', b'h', b'i', b'p',             // device id "chip"
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // nonce
    0x01,                                           // response bit
    0x00, 0x00, 0x00, 0x00,                         // flow A: source 0
    0x02, 0x00, 0x00, 0x00,                         //   sink 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, //   value 1.5
    0x03, 0x00, 0x00, 0x00,                         //   3 edges:
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, //   −0.0
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //   the smallest subnormal
    0xEF, 0xBE, 0xAD, 0xDE, 0x00, 0x00, 0xF8, 0x7F, //   NaN with payload 0xDEAD_BEEF
    0x00, 0x00, 0x00, 0x00,                         // flow B: source 0
    0x02, 0x00, 0x00, 0x00,                         //   sink 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, //   value −0.0
    0x03, 0x00, 0x00, 0x00,                         //   3 edges:
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F, //   0.25
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, //   the largest subnormal
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0xFF, //   negative NaN with payload 1
];

/// Wire 2.0 framing is a fixed compatibility surface: the encoder must
/// produce these exact bytes, the decoder must return every `f64` with
/// its bits intact, and a payload cut short anywhere is refused as
/// `InvalidData`, not a panic.
#[test]
fn golden_submit_answer_bytes() {
    let bits = |values: &[u64]| values.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>();
    let sent = ProverAnswer {
        response: true,
        flow_a: flow(0, 2, 1.5, bits(&[0x8000_0000_0000_0000, 1, 0x7FF8_0000_DEAD_BEEF])),
        flow_b: flow(
            0,
            2,
            -0.0,
            bits(&[0x3FD0_0000_0000_0000, 0x000F_FFFF_FFFF_FFFF, 0xFFF8_0000_0000_0001]),
        ),
    };
    let (corr, nonce) = (0x0123_4567_89AB_CDEF, 0x1122_3344_5566_7788);
    let request = Request::SubmitAnswer { device_id: "chip".into(), nonce, answer: sent.clone() };
    assert_eq!(encode_request(corr, &request), GOLDEN_SUBMIT);

    let (frame, used) = parse_frame(&GOLDEN_SUBMIT).expect("parse").expect("complete");
    assert_eq!((used, frame.opcode, frame.corr), (119, wire2::opcode::SUBMIT_ANSWER, corr));
    let Request::SubmitAnswer { device_id, nonce: got_nonce, answer } =
        decode_request(&frame).expect("decode")
    else {
        panic!("expected a SubmitAnswer");
    };
    assert_eq!((device_id.as_str(), got_nonce, answer.response), ("chip", nonce, true));
    let flow_bits = |flow: &Flow| {
        let edges: Vec<u64> = flow.edge_flows().iter().map(|f| f.to_bits()).collect();
        (flow.source(), flow.sink(), flow.value().to_bits(), edges)
    };
    assert_eq!(flow_bits(&answer.flow_a), flow_bits(&sent.flow_a));
    assert_eq!(flow_bits(&answer.flow_b), flow_bits(&sent.flow_b));

    let payload = &GOLDEN_SUBMIT[HEADER_LEN..];
    for cut in 0..payload.len() {
        let short = wire2::Frame2 { payload: payload[..cut].to_vec(), ..frame.clone() };
        let err = decode_request(&short).expect_err("a truncated payload decodes");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}: {err}");
    }
}
