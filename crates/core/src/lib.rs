//! The max-flow public PUF (DAC 2016).
//!
//! This crate implements the paper's primary contribution: a public
//! physical unclonable function whose execution is equivalent to solving a
//! max-flow problem on a complete graph. It composes the
//! [`ppuf_maxflow`] solver crate (the public simulation model) with the
//! [`ppuf_analog`] circuit substrate (the chip), and adds everything the
//! protocol layer needs: challenges, the crossbar mapping, the published
//! model, authentication with residual-graph verification, feedback-loop
//! amplification, ESG analysis, and PUF quality metrics.
//!
//! # Quick start
//!
//! ```
//! use ppuf_core::device::{Ppuf, PpufConfig};
//! use ppuf_analog::variation::Environment;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ppuf_core::PpufError> {
//! // "fabricate" a 12-node PPUF (σ(Vth) = 35 mV process)
//! let ppuf = Ppuf::generate(PpufConfig::paper(12, 3), 1)?;
//!
//! // the maker characterizes and publishes the simulation model
//! let model = ppuf.public_model()?;
//!
//! // anyone can compute a response from the public model (slow: max-flow);
//! // the holder just runs the chip (fast: analog settling)
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
//! let challenge = ppuf.challenge_space().random(&mut rng);
//! let device = ppuf.executor(Environment::NOMINAL).execute_flow(&challenge)?;
//! let simulated = model.simulate(&challenge, &ppuf_maxflow::Dinic::new())?;
//! assert_eq!(device.response, simulated.response);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod challenge;
pub mod comparator;
pub mod crossbar;
pub mod crp;
pub mod device;
pub mod enrollment;
mod error;
pub mod esg;
pub mod grid;
pub mod metrics;
pub mod protocol;
pub mod public_model;
pub mod response;

pub use batch::{BatchResults, EvalBatch};
pub use challenge::{Challenge, ChallengeSpace};
pub use comparator::Comparator;
pub use crossbar::CrossbarNetwork;
pub use crp::CrpSpace;
pub use device::{ExecutionOutcome, Ppuf, PpufConfig, PpufExecutor};
pub use enrollment::{CrpDatabase, EnrollmentComparison};
pub use error::PpufError;
pub use esg::{EsgAnalysis, PowerLawFit};
pub use grid::GridPartition;
pub use metrics::MetricsReport;
pub use public_model::{NetworkSide, PublicModel, PublishedCapacities, SimulationOutcome};
pub use response::ResponseVector;
