//! Verification service for max-flow PPUFs: the DAC'16 protocol as an
//! online, multi-device system.
//!
//! The paper's authentication loop (`ppuf-core::protocol`) checks one
//! answer for one device. This crate wraps it in the machinery a real
//! deployment needs:
//!
//! - a [`DeviceRegistry`] mapping device ids to
//!   published [`PublicModel`](ppuf_core::public_model::PublicModel)s,
//!   with live registration and revocation;
//! - a per-device [`ChallengeIssuer`](ppuf_core::protocol::issuer) minting
//!   fresh nonce-bound, deadline-stamped challenges and rejecting replays
//!   and expired sessions;
//! - a sharded [`VerificationCache`] so a
//!   repeated (device, challenge, answer) triple skips the residual-BFS
//!   optimality passes;
//! - an epoll front-end ([`AsyncServer`]) speaking length-prefixed JSON
//!   (wire 1.x) and binary frames (wire 2.0), whose bounded dispatch
//!   queue is the service's one queue, with explicit backpressure
//!   (`Overloaded` + retry hint instead of unbounded buffering), plus a
//!   blocking wire-1.x [`tcp::Client`];
//! - a [`loadgen`] module driving honest, impostor, and garbage
//!   cohorts over multiplexed real sockets ([`mux`]) and reporting
//!   throughput and latency percentiles.
//!
//! Everything is instrumented through `ppuf-telemetry`; a service's
//! recorder snapshot lands in the load-generation reports under
//! `results/service/`.
//!
//! # Quick tour
//!
//! ```
//! use std::sync::Arc;
//! use ppuf_core::device::{Ppuf, PpufConfig};
//! use ppuf_core::protocol::auth::prove;
//! use ppuf_analog::variation::Environment;
//! use ppuf_server::service::{ServiceConfig, VerificationService};
//! use ppuf_server::tcp::Client;
//! use ppuf_server::wire::{Request, Response};
//! use ppuf_server::{AsyncConfig, AsyncServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ppuf = Ppuf::generate(PpufConfig::paper(6, 2), 1)?;
//! let service = Arc::new(VerificationService::new(ServiceConfig::default()));
//! let server = AsyncServer::bind("127.0.0.1:0", service, AsyncConfig::default())?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! client.request(&Request::Register {
//!     device_id: "chip-1".into(),
//!     model: ppuf.public_model()?,
//! })?;
//! let Response::Challenge { nonce, challenge, .. } =
//!     client.request(&Request::GetChallenge { device_id: "chip-1".into() })?
//! else { panic!("expected a challenge") };
//! let answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge)?;
//! let Response::Verdict { accepted, .. } = client.request(&Request::SubmitAnswer {
//!     device_id: "chip-1".into(),
//!     nonce,
//!     answer,
//! })? else { panic!("expected a verdict") };
//! assert!(accepted);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod conn;
pub mod health;
pub mod loadgen;
pub mod mux;
pub mod reactor;
pub mod registry;
pub mod service;
pub mod tcp;
pub mod wire;
pub mod wire2;

pub use cache::VerificationCache;
pub use health::{
    HealthReport, HealthStatus, HealthTracker, RequestOutcome, SloConfig, SloVerdict,
};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use reactor::{AsyncConfig, AsyncServer};
pub use registry::{DeviceEntry, DeviceRegistry};
pub use service::{ServiceConfig, VerificationService};
pub use tcp::Client;
pub use wire::{ErrorKind, Request, Response};
