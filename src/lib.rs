//! # maxflow-ppuf
//!
//! A reproduction of *"Practical Public PUF Enabled by Solving Max-Flow
//! Problem on Chip"* (Li, Miao, Zhong, Pan — DAC 2016) as a Rust
//! workspace. This facade crate re-exports the five member crates:
//!
//! - [`maxflow`] (`ppuf-maxflow`) — flow networks, exact max-flow
//!   solvers, residual-graph verification, min-cut duality;
//! - [`analog`] (`ppuf-analog`) — the circuit substrate: device models,
//!   source-degenerated building blocks, DC/transient solvers, variation;
//! - [`core`] (`ppuf-core`) — the PPUF itself: crossbars, challenges, the
//!   public model, protocols, ESG analysis, quality metrics;
//! - [`attack`] (`ppuf-attack`) — SVM/KNN model-building attacks and the
//!   arbiter-PUF baseline;
//! - [`server`] (`ppuf-server`) — the protocol as an online service:
//!   device registry, nonce-bound challenge issuing, a sharded
//!   verification cache, and an epoll front-end whose bounded dispatch
//!   queue sheds load, with a load generator.
//!
//! # The 60-second tour
//!
//! ```
//! use maxflow_ppuf::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), PpufError> {
//! // fabricate a device and publish its simulation model
//! let ppuf = Ppuf::generate(PpufConfig::paper(10, 3), 7)?;
//! let model = ppuf.public_model()?;
//!
//! // holder answers a challenge fast; anyone can verify it cheaply
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let challenge = ppuf.challenge_space().random(&mut rng);
//! let executor = ppuf.executor(Environment::NOMINAL);
//! let answer = prove(&executor, &challenge)?;
//! let verdict = Verifier::new(model).verify(&challenge, &answer)?;
//! assert!(verdict.accepted());
//! # Ok(())
//! # }
//! ```

pub use ppuf_analog as analog;
pub use ppuf_attack as attack;
pub use ppuf_core as core;
pub use ppuf_maxflow as maxflow;
pub use ppuf_server as server;

/// The most common types in one import.
pub mod prelude {
    pub use ppuf_analog::block::{BlockBias, BlockDesign, BuildingBlock, TwoTerminal};
    pub use ppuf_analog::delay::DelayModel;
    pub use ppuf_analog::units::{Amps, Celsius, Seconds, Volts, Watts};
    pub use ppuf_analog::variation::{Environment, ProcessVariation};
    pub use ppuf_attack::{evaluate_attack, ArbiterOracle, ArbiterPuf, AttackConfig, PpufOracle};
    pub use ppuf_core::protocol::{prove, run_chain, verify_chain, Verifier};
    pub use ppuf_core::{
        Challenge, ChallengeSpace, CrpSpace, EsgAnalysis, ExecutionOutcome, MetricsReport,
        NetworkSide, PowerLawFit, Ppuf, PpufConfig, PpufError, PublicModel, ResponseVector,
    };
    pub use ppuf_maxflow::{
        Dinic, EdmondsKarp, Flow, FlowNetwork, MaxFlowSolver, MinCut, NodeId, PushRelabel,
        ResidualGraph,
    };
    pub use ppuf_server::{AsyncConfig, AsyncServer, ServiceConfig, VerificationService};
}
