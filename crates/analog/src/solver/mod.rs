//! Circuit solvers: dense blocked LU, nonlinear DC operating point (one
//! solve, or a stream of them through a [`DcEngine`]), backward-Euler
//! transient, and the reusable [`DcWorkspace`] scratch state they all
//! share.

pub mod dc;
pub mod engine;
pub mod linear;
pub mod sparse;
#[cfg(test)]
pub(crate) mod test_circuits;
pub mod transient;
pub mod workspace;

pub use dc::{Circuit, CircuitEdge, DcOptions, DcSolution, SolveError, G_MIN};
pub use engine::{DcEngine, EngineOptions};
pub use linear::{lu_factor, lu_solve, lu_solve_factored, Matrix, SingularMatrixError};
pub use sparse::{min_degree_order, CscMatrix, SparseError, SparseLu};
pub use transient::{
    simulate_step_response, simulate_step_response_traced, TransientOptions, TransientResult,
};
pub use workspace::{DcWorkspace, LinearBackend, SparseStats};
