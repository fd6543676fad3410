//! Error type shared by every solver and verifier in this crate.

use std::error::Error;
use std::fmt;

use crate::graph::{EdgeId, NodeId};

/// Errors produced while building networks or solving max-flow instances.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MaxFlowError {
    /// A node id does not name a vertex of the network.
    InvalidNode {
        /// The offending id.
        node: NodeId,
        /// Number of vertices in the network.
        node_count: usize,
    },
    /// An edge id does not name an edge of the network.
    InvalidEdge {
        /// The offending id.
        edge: EdgeId,
    },
    /// An edge was inserted with `from == to`.
    SelfLoop {
        /// The node at both endpoints.
        node: NodeId,
    },
    /// A capacity was negative, NaN, or infinite.
    InvalidCapacity {
        /// The offending value.
        value: f64,
    },
    /// A max-flow query used the same vertex as source and sink.
    SourceIsSink {
        /// The coinciding terminal.
        node: NodeId,
    },
    /// A flow assignment's edge vector does not match the network.
    FlowShapeMismatch {
        /// Edges in the flow assignment.
        flow_edges: usize,
        /// Edges in the network.
        network_edges: usize,
    },
    /// A thread count of zero was requested for the parallel residual BFS
    /// ([`ResidualGraph::is_reachable_parallel`](crate::ResidualGraph::is_reachable_parallel)).
    ZeroThreads,
}

impl fmt::Display for MaxFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaxFlowError::InvalidNode { node, node_count } => {
                write!(f, "node {node} out of range for network with {node_count} nodes")
            }
            MaxFlowError::InvalidEdge { edge } => {
                write!(f, "edge {edge} out of range")
            }
            MaxFlowError::SelfLoop { node } => {
                write!(f, "self-loop at {node} is not allowed")
            }
            MaxFlowError::InvalidCapacity { value } => {
                write!(f, "capacity {value} is not a finite non-negative number")
            }
            MaxFlowError::SourceIsSink { node } => {
                write!(f, "source and sink are the same vertex {node}")
            }
            MaxFlowError::FlowShapeMismatch { flow_edges, network_edges } => {
                write!(f, "flow assignment has {flow_edges} edges but network has {network_edges}")
            }
            MaxFlowError::ZeroThreads => {
                write!(f, "parallel reachability requires at least one thread")
            }
        }
    }
}

impl Error for MaxFlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors: Vec<MaxFlowError> = vec![
            MaxFlowError::InvalidNode { node: NodeId::new(9), node_count: 3 },
            MaxFlowError::InvalidEdge { edge: EdgeId::new(4) },
            MaxFlowError::SelfLoop { node: NodeId::new(1) },
            MaxFlowError::InvalidCapacity { value: -2.0 },
            MaxFlowError::SourceIsSink { node: NodeId::new(0) },
            MaxFlowError::FlowShapeMismatch { flow_edges: 2, network_edges: 3 },
            MaxFlowError::ZeroThreads,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "message: {msg}");
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MaxFlowError>();
    }
}
