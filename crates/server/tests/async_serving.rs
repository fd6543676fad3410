//! Live tests of the async serving tier: wire-1.x byte compatibility,
//! pipelined correlation, negotiation, dispatch-queue shedding and
//! tracing, slow-loris reaping, connection caps, and the end-to-end
//! multiplexed smoke on both wires.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppuf_analog::units::Seconds;
use ppuf_analog::variation::Environment;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{prove, ProverAnswer};
use ppuf_core::public_model::PublicModel;
use ppuf_maxflow::{Flow, NodeId};
use ppuf_server::loadgen::{run_loadgen, LoadgenConfig};
use ppuf_server::mux::WireFlavor;
use ppuf_server::service::{ServiceConfig, VerificationService};
use ppuf_server::tcp::Client;
use ppuf_server::wire::{ErrorKind, Request, Response, StatsFormat};
use ppuf_server::wire2::{self, opcode};
use ppuf_server::{AsyncConfig, AsyncServer};

const SEED: u64 = 23;

fn service(seed: u64) -> Arc<VerificationService> {
    Arc::new(VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(5.0)),
        seed,
        ..ServiceConfig::default()
    }))
}

fn bind_async(config: AsyncConfig) -> AsyncServer {
    AsyncServer::bind("127.0.0.1:0", service(SEED), config).expect("async bind")
}

/// Registers the standard test device over the JSON compat path.
fn register_device(addr: SocketAddr) -> Ppuf {
    let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), SEED).expect("device generation");
    let model = ppuf.public_model().expect("model publication");
    let mut client = Client::connect(addr).expect("connect");
    match client.request(&Request::Register { device_id: "dev".into(), model }).expect("register") {
        Response::Registered { .. } => ppuf,
        other => panic!("registration rejected: {other:?}"),
    }
}

/// Reads one length-prefixed JSON frame as raw bytes.
fn read_json_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("frame length");
    let len = u32::from_be_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame payload");
    let mut frame = prefix.to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Sends pre-framed bytes and returns the raw response frame.
fn raw_json_exchange(stream: &mut TcpStream, frame: &[u8]) -> Vec<u8> {
    stream.write_all(frame).expect("write frame");
    read_json_frame(stream)
}

fn json_frame_of(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    ppuf_server::wire::send_message(&mut frame, request).expect("encode");
    frame
}

fn raw_frame_of(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    ppuf_server::wire::write_frame(&mut frame, payload).expect("encode");
    frame
}

/// The response frames the thread-per-connection server that preceded
/// the reactor sent for the six exchanges in
/// [`wire_1x_responses_are_byte_identical_to_the_legacy_server`]: a 4-byte
/// big-endian length, then the JSON payload.
const LEGACY_1X_FRAMES: [&[u8]; 6] = [
    b"\x00\x00\x00\x06\"Pong\"",
    b"\x00\x00\x00\x70{\"Error\":{\"kind\":\"UnknownDevice\",\
      \"message\":\"device \\\"no-such-device\\\" is not registered\",\
      \"retry_after_ms\":null}}",
    b"\x00\x00\x00\x64{\"Error\":{\"kind\":\"Malformed\",\
      \"message\":\"json error: expected '\\\"' at byte 1\",\"retry_after_ms\":null}}",
    b"\x00\x00\x00\xa2{\"Error\":{\"kind\":\"Malformed\",\"message\":\"json error: serde error: \
      Request: unrecognized variant Map([(\\\"Bogus\\\", Map([(\\\"x\\\", Int(1))]))])\",\
      \"retry_after_ms\":null}}",
    b"\x00\x00\x00\x1c{\"trace_id\":7,\"body\":\"Pong\"}",
    b"\x00\x00\x00\x06\"Pong\"",
];

/// The wire-1.x lock: a blocking client must receive, byte for byte, the
/// response frames the legacy server sent, across bare requests,
/// malformed payloads, and the trace envelope.
#[test]
fn wire_1x_responses_are_byte_identical_to_the_legacy_server() {
    let reactor = bind_async(AsyncConfig::default());
    let exchanges = [
        json_frame_of(&Request::Ping),
        json_frame_of(&Request::GetChallenge { device_id: "no-such-device".into() }),
        raw_frame_of(b"\x7bnot json at all"),
        raw_frame_of(b"{\"Bogus\": {\"x\": 1}}"),
        // wire-1.1 envelope: the response must come back enveloped
        raw_frame_of(br#"{"trace_id": 7, "body": "Ping"}"#),
        json_frame_of(&Request::Ping),
    ];
    let mut stream = TcpStream::connect(reactor.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    for (i, (frame, legacy)) in exchanges.iter().zip(LEGACY_1X_FRAMES).enumerate() {
        let got = raw_json_exchange(&mut stream, frame);
        assert_eq!(got, legacy, "exchange {i}: reactor sent {:?}", String::from_utf8_lossy(&got));
    }
}

/// A full dispatch queue sheds through the service: every `Overloaded`
/// the client sees is counted once in `server.pool.rejected` and lands in
/// the SLO window's overload ratio.
#[test]
fn dispatch_queue_sheds_are_counted_and_reach_health() {
    const BURST: u64 = 256;
    let server = bind_async(AsyncConfig {
        dispatch_threads: 1,
        dispatch_queue: 1,
        ..AsyncConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let burst: Vec<u8> =
        (0..BURST).flat_map(|corr| wire2::encode_request(corr, &Request::Ping)).collect();
    stream.write_all(&burst).expect("write burst");
    let mut overloaded = 0;
    for _ in 0..BURST {
        let frame = wire2::read_frame2(&mut stream).expect("read").expect("frame");
        match wire2::decode_response(&frame).expect("decode") {
            Response::Pong => {}
            Response::Error { kind: ErrorKind::Overloaded, .. } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(overloaded > 0, "a {BURST}-request burst never filled a one-slot queue");
    assert_eq!(server.service().recorder().counter("server.pool.rejected"), overloaded);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let Response::Health { report } = client.request(&Request::Health).expect("health") else {
        panic!("expected a health report");
    };
    let slo = report.slo("overload_ratio").expect("overload objective");
    assert!(slo.value > 0.0, "{report:?}");
}

/// A verdict's span tree runs from the dispatch queue through the
/// verifier: the `server.request` root opens at enqueue, so the
/// `server.queue_wait` wait and the `server.verify` → `server.cache_probe`
/// chain all nest inside it.
#[test]
fn queued_request_tree_nests_queue_wait_and_verify() {
    let server = bind_async(AsyncConfig::default());
    let ppuf = register_device(server.local_addr());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let Response::Challenge { nonce, challenge, .. } =
        client.request(&Request::GetChallenge { device_id: "dev".into() }).expect("challenge")
    else {
        panic!("expected a challenge");
    };
    let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).expect("prove");
    let trace = ppuf_telemetry::next_trace_id();
    let (response, echoed) = client
        .request_traced(
            Request::SubmitAnswer { device_id: "dev".into(), nonce, answer },
            trace.get(),
        )
        .expect("submit");
    assert!(matches!(response, Response::Verdict { accepted: true, .. }), "{response:?}");
    assert_eq!(echoed, Some(trace.get()));
    let recorder = server.service().recorder();
    let tree = recorder.assemble_trace(trace).expect("trace recorded").expect("well-formed trace");
    assert_eq!(tree.span.name, "server.request");
    for name in ["server.queue_wait", "server.cache_probe", "server.verify"] {
        assert!(tree.contains(name), "missing {name} in request trace");
    }
    assert!(tree.durations_contained());
}

/// The `ppuf_pool_*` gauges describe the dispatch pool, the one queue.
#[test]
fn pool_gauges_describe_the_dispatch_queue() {
    let server = bind_async(AsyncConfig { dispatch_threads: 3, ..AsyncConfig::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let Response::Stats { body, .. } =
        client.request(&Request::Stats { format: StatsFormat::Prometheus }).expect("stats")
    else {
        panic!("expected stats");
    };
    let samples = ppuf_telemetry::prometheus::validate(&body).expect("valid exposition");
    assert_eq!(samples["ppuf_pool_workers"], 3.0);
    assert_eq!(samples["ppuf_pool_queue_depth"], 0.0, "the scrape itself has left the queue");
}

/// Pipelined binary requests complete out of order but every response
/// carries the correlation id of its request.
#[test]
fn binary_pipelining_echoes_correlation_ids() {
    let server = bind_async(AsyncConfig::default());
    register_device(server.local_addr());

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // three challenges pipelined back to back in one write
    let mut burst = Vec::new();
    for corr in [11u64, 22, 33] {
        burst.extend_from_slice(&wire2::encode_request(
            corr,
            &Request::GetChallenge { device_id: "dev".into() },
        ));
    }
    stream.write_all(&burst).expect("write burst");

    let mut seen = Vec::new();
    for _ in 0..3 {
        let frame = wire2::read_frame2(&mut stream).expect("read").expect("frame");
        assert_eq!(frame.opcode, opcode::CHALLENGE);
        let response = wire2::decode_response(&frame).expect("decode");
        assert!(matches!(response, Response::Challenge { .. }), "{response:?}");
        seen.push(frame.corr);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![11, 22, 33]);
}

/// JSON responses come back in request order even though the dispatch
/// pool completes them concurrently — the wire-1.x ordering contract.
#[test]
fn json_pipelined_responses_stay_in_request_order() {
    let server = bind_async(AsyncConfig::default());
    register_device(server.local_addr());

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut burst = json_frame_of(&Request::GetChallenge { device_id: "dev".into() });
    burst.extend_from_slice(&json_frame_of(&Request::Ping));
    burst.extend_from_slice(&json_frame_of(&Request::GetChallenge {
        device_id: "no-such-device".into(),
    }));
    stream.write_all(&burst).expect("write burst");

    let expectations: [&dyn Fn(&Response) -> bool; 3] =
        [&|r| matches!(r, Response::Challenge { .. }), &|r| matches!(r, Response::Pong), &|r| {
            matches!(r, Response::Error { .. })
        }];
    for (i, expect) in expectations.iter().enumerate() {
        let frame = read_json_frame(&mut stream);
        let text = std::str::from_utf8(&frame[4..]).expect("utf8");
        let response: Response = serde_json::from_str(text).expect("decode");
        assert!(expect(&response), "response {i} out of order: {response:?}");
    }
}

/// A first byte that is neither JSON's length prefix nor the wire-2.0
/// magic closes the connection without a response.
#[test]
fn garbage_first_bytes_close_the_connection() {
    let server = bind_async(AsyncConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    let mut buf = [0u8; 64];
    assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF, got data");
    // the reactor accounted the close: nothing left open
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open() != 0 {
        assert!(Instant::now() < deadline, "connection still counted open");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().accepted(), 1);
}

/// A 100 000-deep JSON payload stops at the parser's nesting cap on both
/// wires instead of overflowing the parsing thread's stack: the sender
/// gets a structured error (or a clean close), and a fresh connection is
/// still served.
#[test]
fn deeply_nested_json_is_refused_and_serving_continues() {
    let server = bind_async(AsyncConfig::default());
    let deep = vec![b'['; 100_000];
    for binary in [false, true] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let answer = if binary {
            let frame = wire2::encode_frame(opcode::JSON_REQUEST, 7, &deep);
            stream.write_all(&frame).expect("write");
            wire2::read_frame2(&mut stream)
                .expect("read")
                .map(|frame| wire2::decode_response(&frame).expect("decode"))
        } else {
            stream.write_all(&raw_frame_of(&deep)).expect("write");
            ppuf_server::wire::recv_message::<_, Response>(&mut stream).expect("read")
        };
        if let Some(response) = answer {
            assert!(
                matches!(response, Response::Error { kind: ErrorKind::Malformed, .. }),
                "binary={binary}: {response:?}"
            );
        }
        let mut fresh = Client::connect(server.local_addr()).expect("fresh connect");
        assert!(matches!(fresh.request(&Request::Ping).expect("ping"), Response::Pong));
    }
}

/// A `Register` model whose parts disagree on its shape, that publishes
/// a capacity no edge can have, or whose comparator parameters are not
/// numbers arrives deserialized, so `PublicModel::new` never checked it:
/// the service must refuse it before building a verifier that would
/// index past its vectors or blame every answer on the prover. Five such
/// models (more than the two dispatch threads) are each refused with
/// `Malformed`, leave no device behind for a `SubmitAnswer`, and leave
/// the server answering.
#[test]
fn inconsistent_register_models_are_refused_and_serving_continues() {
    let server = bind_async(AsyncConfig::default());
    let ppuf = Ppuf::generate(PpufConfig::paper(6, 2), SEED).expect("device generation");
    let json = serde_json::to_string(&ppuf.public_model().expect("model")).expect("encode");
    // zero flows over the 42 edges of the honest 6-node device
    let zero = Flow::from_edge_flows(NodeId::new(0), NodeId::new(5), 0.0, vec![0.0; 42]);
    let answer = ProverAnswer { response: false, flow_a: zero.clone(), flow_b: zero };

    let head = r#"{"nodes":6,"grid":{"nodes":6,"#;
    assert!(json.starts_with(head), "{json}");
    // network B's bit-1 vector loses its first entry
    let bit1 = json.rfind(r#""bit1":["#).expect("bit1 vector") + r#""bit1":["#.len();
    let first = bit1 + json[bit1..].find(',').expect("two entries");
    // network A's first edge gets capacity −1 under either bit
    let negative = [r#""bit0":["#, r#""bit1":["#].iter().fold(json.clone(), |text, key| {
        let start = text.find(key).expect("network A's vector") + key.len();
        let end = start + text[start..].find(',').expect("two entries");
        format!("{}-1.0{}", &text[..start], &text[end..])
    });
    // a comparator of nulls, which no float reads
    let comparator = json.find(r#""comparator":{"#).expect("comparator") + r#""comparator":"#.len();
    let comparator_end = comparator + json[comparator..].find('}').expect("closing brace") + 1;
    let nulled = format!(
        r#"{}{{"offset":null,"resolution":null,"power":null}}{}"#,
        &json[..comparator],
        &json[comparator_end..]
    );
    let tampered = [
        json.replacen(head, r#"{"nodes":7,"grid":{"nodes":6,"#, 1),
        json.replacen(head, r#"{"nodes":7,"grid":{"nodes":7,"#, 1),
        format!("{}{}", &json[..bit1], &json[first + 1..]),
        negative,
        nulled,
    ];

    // every model goes out as the text of a raw wire-1.x Register frame:
    // the nulled one cannot be sent as a `Request`, since it does not
    // deserialize
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut exchange = |frame: &[u8]| {
        let reply = raw_json_exchange(&mut stream, frame);
        let text = std::str::from_utf8(&reply[4..]).expect("a UTF-8 frame");
        serde_json::from_str::<Response>(text).expect("a response frame")
    };
    for (i, text) in tampered.iter().enumerate() {
        let parses = serde_json::from_str::<PublicModel>(text).is_ok();
        assert_eq!(parses, i < 4, "model {i} must fail only its shape check, or not parse");
        let device_id = format!("tampered-{i}");
        let register = format!(r#"{{"Register":{{"device_id":"{device_id}","model":{text}}}}}"#);
        let response = exchange(&raw_frame_of(register.as_bytes()));
        assert!(
            matches!(&response, Response::Error { kind: ErrorKind::Malformed, message, .. }
                if message.starts_with(if parses { "unusable model: " } else { "json error: " })),
            "model {i}: {response:?}"
        );
        let submit = Request::SubmitAnswer { device_id, nonce: 1, answer: answer.clone() };
        let response = exchange(&json_frame_of(&submit));
        assert!(
            matches!(response, Response::Error { kind: ErrorKind::UnknownDevice, .. }),
            "model {i}: {response:?}"
        );
    }

    let mut fresh = Client::connect(server.local_addr()).expect("fresh connect");
    assert!(matches!(fresh.request(&Request::Ping).expect("ping"), Response::Pong));
    let ppuf = register_device(server.local_addr());
    let Response::Challenge { nonce, challenge, .. } =
        fresh.request(&Request::GetChallenge { device_id: "dev".into() }).expect("challenge")
    else {
        panic!("expected a challenge");
    };
    let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).expect("prove");
    let response = fresh
        .request(&Request::SubmitAnswer { device_id: "dev".into(), nonce, answer })
        .expect("submit");
    assert!(matches!(response, Response::Verdict { accepted: true, .. }), "{response:?}");
}

/// An answer naming a flow source a million nodes out of range gets a
/// verdict instead of killing the one dispatch thread, and an honest
/// round after it is still accepted.
#[test]
fn out_of_range_flow_terminal_gets_a_verdict_and_serving_continues() {
    let server = bind_async(AsyncConfig { dispatch_threads: 1, ..AsyncConfig::default() });
    let ppuf = register_device(server.local_addr());
    let executor = ppuf.executor(Environment::NOMINAL);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut exchange = |request: &Request| {
        ppuf_server::wire::send_message(&mut stream, request).expect("send");
        ppuf_server::wire::recv_message::<_, Response>(&mut stream)
            .expect("the server answered in time")
            .expect("the server answered")
    };
    let mut round = |hostile: bool| {
        let Response::Challenge { nonce, challenge, .. } =
            exchange(&Request::GetChallenge { device_id: "dev".into() })
        else {
            panic!("expected a challenge");
        };
        let mut answer = prove(&executor, &challenge).expect("prove");
        if hostile {
            let flow = &answer.flow_a;
            answer.flow_a = Flow::from_edge_flows(
                NodeId::new(1_000_000),
                flow.sink(),
                flow.value(),
                flow.edge_flows().to_vec(),
            );
        }
        exchange(&Request::SubmitAnswer { device_id: "dev".into(), nonce, answer })
    };
    match round(true) {
        Response::Verdict { accepted: false, report, .. } => {
            assert!(!report.network_a.feasible && !report.network_a.maximal, "{report:?}");
        }
        other => panic!("expected a rejecting verdict, got {other:?}"),
    }
    let response = round(false);
    assert!(matches!(response, Response::Verdict { accepted: true, .. }), "{response:?}");
}

/// A half-written frame trips the read deadline: the slow-loris is
/// reaped and the open-connections gauge decrements.
#[test]
fn slow_loris_half_frame_is_reaped_and_gauge_decrements() {
    let server = bind_async(AsyncConfig {
        read_deadline: Duration::from_millis(200),
        sweep_interval: Duration::from_millis(50),
        ..AsyncConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // claim a 64-byte JSON frame, deliver only 3 bytes, then stall
    stream.write_all(&64u32.to_be_bytes()).expect("write prefix");
    stream.write_all(b"{\"G").expect("write stub");

    let gauge = |stats: &ppuf_server::conn::TransportStats, name: &str| -> f64 {
        stats.gauges().into_iter().find(|(n, _)| n == name).map(|(_, v)| v).unwrap_or(f64::NAN)
    };
    // the connection shows up open ...
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauge(server.stats(), "ppuf_conn_open") < 1.0 {
        assert!(Instant::now() < deadline, "connection never counted open");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ... and the sweep reaps it without us sending another byte
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF after reap");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.reaped() == 1 && gauge(stats, "ppuf_conn_open") == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reap not accounted: reaped={} open={}",
            stats.reaped(),
            gauge(stats, "ppuf_conn_open")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A peer that pipelines requests but never reads responses is closed
/// once its buffered-response backlog passes the write cap — the write
/// buffer cannot grow without bound.
#[test]
fn write_backlog_past_the_cap_closes_the_connection() {
    let server = bind_async(AsyncConfig {
        max_write_buf: 256,
        sweep_interval: Duration::from_millis(50),
        ..AsyncConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // a write blocked this long fails and ends the loop, so the test
    // cannot hang inside `write_all`
    stream.set_write_timeout(Some(Duration::from_secs(1))).expect("timeout");
    // never read: pipeline pings until the unread responses fill the
    // kernel buffers, trip the cap, and the server closes on us (seen as
    // a write error once the reset lands)
    let burst: Vec<u8> = (0..64).flat_map(|i| wire2::encode_request(i, &Request::Ping)).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "backlogged connection never closed");
        if stream.write_all(&burst).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open() != 0 {
        assert!(Instant::now() < deadline, "connection still counted open");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().reaped(), 1);
}

/// Accepts beyond the connection cap are shed immediately; the cap
/// protects the event loop's slab and file descriptors.
#[test]
fn connection_cap_sheds_excess_accepts() {
    let server = bind_async(AsyncConfig { max_connections: 2, ..AsyncConfig::default() });
    let addr = server.local_addr();
    let mut keep = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        // prove the connection is live: a ping answers
        stream.write_all(&json_frame_of(&Request::Ping)).expect("write");
        let frame = read_json_frame(&mut stream);
        assert!(std::str::from_utf8(&frame[4..]).expect("utf8").contains("Pong"));
        keep.push(stream);
    }
    let mut third = TcpStream::connect(addr).expect("connect");
    third.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 16];
    assert_eq!(third.read(&mut buf).expect("read"), 0, "expected EOF past the cap");
    assert_eq!(server.stats().rejected(), 1);
    assert_eq!(server.stats().open(), 2);
}

/// A binary frame trickled one byte at a time still parses and answers —
/// the incremental parser holds state across arbitrarily torn reads.
#[test]
fn torn_binary_frame_over_live_socket_still_answers() {
    let server = bind_async(AsyncConfig::default());
    register_device(server.local_addr());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    let frame = wire2::encode_request(99, &Request::GetChallenge { device_id: "dev".into() });
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).expect("write byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let response = wire2::read_frame2(&mut stream).expect("read").expect("frame");
    assert_eq!(response.corr, 99);
    assert_eq!(response.opcode, opcode::CHALLENGE);
}

/// The reactor attributes its loop time into the service profiler:
/// after serving traffic, `server.reactor;*` phase paths are present
/// with self times bounded by the loop's wall time.
#[test]
fn reactor_phase_times_reach_the_service_profiler() {
    let service = service(SEED);
    let mut server = AsyncServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        AsyncConfig { sweep_interval: Duration::from_millis(25), ..AsyncConfig::default() },
    )
    .expect("async bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(&json_frame_of(&Request::Ping)).expect("write");
    let frame = read_json_frame(&mut stream);
    assert!(std::str::from_utf8(&frame[4..]).expect("utf8").contains("Pong"));
    drop(stream);
    // teardown flushes the partial accumulators, so the snapshot is
    // complete without waiting out a sweep interval
    server.shutdown();

    let profile = service.profiler().snapshot();
    let root = profile.get("server.reactor").expect("reactor root path");
    assert!(root.wall_s > 0.0, "reactor wall time recorded");
    for phase in ["poll_wait", "accept", "parse", "dispatch", "write"] {
        let stats = profile
            .get(&format!("server.reactor;{phase}"))
            .unwrap_or_else(|| panic!("missing reactor phase {phase}"));
        assert!(stats.self_s <= root.wall_s + 1e-9, "{phase} self time exceeds loop wall");
    }
}

fn small_async_profile(wire: WireFlavor) -> LoadgenConfig {
    LoadgenConfig {
        label: format!("async-it-{wire:?}"),
        honest_connections: 12,
        impostor_connections: 2,
        garbage_connections: 2,
        pipeline: 2,
        rounds_per_stream: 1,
        deadline_s: 2.0,
        wire,
        ..LoadgenConfig::default()
    }
}

/// End-to-end multiplexed smoke on the binary wire: all cohorts over one
/// event-loop client, correlation ids echoed on every response.
#[test]
fn async_loadgen_smoke_binary_wire() {
    let report = run_loadgen(&small_async_profile(WireFlavor::Binary)).expect("async loadgen");
    report.check_smoke_invariants().expect("async smoke invariants");
    assert_eq!(report.total_rounds, 32);
    assert!(report.mux.corr_echoed > 0);
    assert_eq!(report.mux.corr_echoed, report.mux.responses);
    assert_eq!(report.traced_requests, 0, "wire 2.0 carries no trace envelope");
}

/// The same cohorts over wire-1.x JSON: pipelining works with in-order
/// response matching and no correlation ids, and every verdict round's
/// trace envelope comes back echoed.
#[test]
fn async_loadgen_smoke_json_wire() {
    let report = run_loadgen(&small_async_profile(WireFlavor::Json)).expect("async loadgen");
    report.check_smoke_invariants().expect("async smoke invariants");
    assert_eq!(report.total_rounds, 32);
    assert_eq!(report.mux.corr_echoed, 0, "JSON wire has no correlation ids");
    // every honest and impostor round ends in a verdict
    assert_eq!(report.traced_requests, report.honest.requests + report.impostor.requests);
    assert!(report.correlated_traces >= Some(1), "{:?}", report.correlated_traces);
}
