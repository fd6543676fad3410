//! The authentication protocol as a network service: register a device,
//! fetch a nonce-bound challenge, answer from the chip's fast path, and
//! get a verdict back — all over a real (loopback) TCP connection.
//!
//! Also shows the service-side protections: a replayed nonce is refused,
//! a revoked device disappears, and garbage on the wire gets a
//! structured error instead of a dropped connection.
//!
//! ```sh
//! cargo run --release --example serve_and_verify
//! ```

use std::sync::Arc;

use maxflow_ppuf::prelude::*;
use maxflow_ppuf::server::tcp::Client;
use maxflow_ppuf::server::wire::{ErrorKind, Request, Response};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // the device holder fabricates a chip and publishes its model
    let ppuf = Ppuf::generate(PpufConfig::paper(12, 3), 7)?;
    // (the nominal executor's model is the published one)
    let executor = ppuf.executor(Environment::NOMINAL);
    let model = executor.model().clone();

    // the verifier stands up a service with a 0.5 s response deadline
    // behind the epoll front-end; every challenge it issues is fresh
    let service = Arc::new(VerificationService::new(ServiceConfig {
        deadline: Some(Seconds(0.5)),
        ..ServiceConfig::default()
    }));
    let mut server =
        AsyncServer::bind("127.0.0.1:0", Arc::clone(&service), AsyncConfig::default())?;
    println!("server listening on {}", server.local_addr());

    let mut client = Client::connect(server.local_addr())?;

    // --- enrollment --------------------------------------------------
    match client.request(&Request::Register { device_id: "chip-1".into(), model })? {
        Response::Registered { device_id } => println!("registered {device_id}"),
        other => panic!("registration failed: {other:?}"),
    }

    // --- one authentication round ------------------------------------
    let Response::Challenge { nonce, challenge, deadline_s, .. } =
        client.request(&Request::GetChallenge { device_id: "chip-1".into() })?
    else {
        panic!("expected a challenge");
    };
    println!(
        "challenge {} -> {} under nonce {nonce:#018x}, deadline {deadline_s:?} s",
        challenge.source.index(),
        challenge.sink.index()
    );

    let answer = prove(&executor, &challenge)?;
    let Response::Verdict { accepted, elapsed_s, .. } = client.request(&Request::SubmitAnswer {
        device_id: "chip-1".into(),
        nonce,
        answer: answer.clone(),
    })?
    else {
        panic!("expected a verdict");
    };
    println!("verdict: accepted = {accepted} (answered in {elapsed_s:.4} s)");
    assert!(accepted);

    // --- replaying the spent nonce is refused ------------------------
    let replay =
        client.request(&Request::SubmitAnswer { device_id: "chip-1".into(), nonce, answer })?;
    match replay {
        Response::Error { kind: ErrorKind::ReplayOrUnknownNonce, message, .. } => {
            println!("replay refused: {message}");
        }
        other => panic!("replay should be refused, got {other:?}"),
    }

    // --- garbage gets a structured error, not a hangup ---------------
    let Response::Error { kind, .. } = client.send_raw(b"definitely not json")? else {
        panic!("expected an error response");
    };
    assert_eq!(kind, ErrorKind::Malformed);
    println!("malformed frame answered with a structured {kind:?} error");

    // --- revocation --------------------------------------------------
    client.request(&Request::Revoke { device_id: "chip-1".into() })?;
    match client.request(&Request::GetChallenge { device_id: "chip-1".into() })? {
        Response::Error { kind: ErrorKind::UnknownDevice, .. } => {
            println!("revoked device no longer served");
        }
        other => panic!("revoked device still served: {other:?}"),
    }

    println!(
        "\nserver counters: {} requests, {} answers accepted",
        service.recorder().counter("server.requests"),
        service.recorder().counter("server.answers.accepted"),
    );
    server.shutdown();
    Ok(())
}
