//! Max-flow solvers and verification for the max-flow PPUF.
//!
//! This crate is the *public simulation model* of the PPUF from
//! "Practical Public PUF Enabled by Solving Max-Flow Problem on Chip"
//! (DAC 2016): a directed-graph max-flow library with the exact solvers
//! the execution–simulation-gap (ESG) experiment times, plus the cheap
//! residual-graph verification behind the authentication protocol (its
//! verifier walks the implicit complete graph instead of building one,
//! and is tested against [`ResidualGraph`] and [`Flow::check_feasible`]).
//! The paper answers parallel and ε-approximate attackers by citing their
//! asymptotic bounds, not by running them, and so does this crate.
//!
//! # Algorithms
//!
//! | Solver | Family | Complexity (complete graph) |
//! |---|---|---|
//! | [`EdmondsKarp`] | augmenting path | `O(n⁵)` |
//! | [`Dinic`] | blocking flow | `O(n⁴)`, fast in practice |
//! | [`PushRelabel`] | preflow-push (FIFO, gap, global relabel) | `O(n³)` |
//! | [`HighestLabel`] | preflow-push (highest label, gap) | `O(n² √m)` |
//!
//! # Example
//!
//! ```
//! use ppuf_maxflow::{Dinic, FlowNetwork, MaxFlowSolver, MinCut, NodeId, ResidualGraph};
//!
//! # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
//! // The PPUF topology: a complete directed graph whose capacities are
//! // per-edge saturation currents.
//! let net = FlowNetwork::complete(8, |u, v| 1.0 + ((u.index() + v.index()) % 3) as f64)?;
//! let (s, t) = (NodeId::new(0), NodeId::new(7));
//!
//! // Prover: compute the max flow (expensive).
//! let flow = Dinic::new().max_flow(&net, s, t)?;
//!
//! // Verifier: check optimality from the residual graph (cheap).
//! let residual = ResidualGraph::new(&net, &flow, 1e-9)?;
//! assert!(residual.certifies_max_flow());
//!
//! // Duality witness: the min cut has the same capacity.
//! let cut = MinCut::from_max_flow(&net, &flow, 1e-9)?;
//! assert!(cut.certifies(flow.value(), 1e-6));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dimacs;
pub mod dinic;
pub mod edmonds_karp;
mod error;
pub mod flow;
pub mod graph;
pub mod highest_label;
pub mod mincut;
pub mod push_relabel;
pub mod residual;
mod residual_state;
mod solver;

pub use dinic::Dinic;
pub use edmonds_karp::EdmondsKarp;
pub use error::MaxFlowError;
pub use flow::{FeasibilityReport, Flow, DEFAULT_TOLERANCE};
pub use graph::{Edge, EdgeId, FlowNetwork, NodeId};
pub use highest_label::HighestLabel;
pub use mincut::MinCut;
pub use push_relabel::PushRelabel;
pub use residual::{ResidualEdge, ResidualGraph};
pub use solver::{MaxFlowSolver, SolveStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_trait_is_object_safe() {
        let solvers: Vec<Box<dyn MaxFlowSolver + Send + Sync>> = vec![
            Box::new(EdmondsKarp::new()),
            Box::new(Dinic::new()),
            Box::new(PushRelabel::new()),
        ];
        let net = FlowNetwork::complete(4, |_, _| 1.0).unwrap();
        for s in &solvers {
            let flow = s.max_flow(&net, NodeId::new(0), NodeId::new(3)).unwrap();
            assert!((flow.value() - 3.0).abs() < 1e-9, "{}", s.name());
        }
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowNetwork>();
        assert_send_sync::<Flow>();
        assert_send_sync::<ResidualGraph>();
        assert_send_sync::<MinCut>();
        assert_send_sync::<MaxFlowError>();
    }
}
