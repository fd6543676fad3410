//! Directed flow networks.
//!
//! A [`FlowNetwork`] is a directed graph with non-negative real edge
//! capacities. The PPUF maps every crossbar building block to one directed
//! edge, so the graph of an `n`-node PPUF is *complete*:
//! `m = n(n − 1)` edges (see [`FlowNetwork::complete`]).
//!
//! Capacities are `f64` because they model saturation *currents* of the
//! analog building blocks (in amperes, or any consistent unit).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MaxFlowError;

/// Index of a vertex in a [`FlowNetwork`].
///
/// Newtype over `u32`; construct with [`NodeId::new`] or `From<u32>`.
///
/// ```
/// use ppuf_maxflow::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index as `usize`, suitable for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a directed edge in a [`FlowNetwork`].
///
/// Edge ids are dense: the `k`-th call to [`FlowNetwork::add_edge`] returns
/// `EdgeId::new(k)`. They index per-edge data such as
/// [`Flow`](crate::flow::Flow) assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// Returns the raw index as `usize`, suitable for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for EdgeId {
    fn from(index: u32) -> Self {
        EdgeId(index)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One directed edge of a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Tail (origin) vertex.
    pub from: NodeId,
    /// Head (destination) vertex.
    pub to: NodeId,
    /// Non-negative capacity; in the PPUF this is a saturation current.
    pub capacity: f64,
}

/// A directed graph with non-negative edge capacities.
///
/// This is the *instance* type shared by every solver in this crate: build
/// it once, then hand it (immutably) to any [`MaxFlowSolver`]. Solvers copy
/// the capacities into their own mutable residual state, so one network can
/// be solved concurrently by several algorithms.
///
/// Parallel edges and self-loops are rejected at insertion time
/// ([`MaxFlowError::SelfLoop`]) because neither occurs in the PPUF crossbar
/// and both complicate residual bookkeeping.
///
/// ```
/// use ppuf_maxflow::{FlowNetwork, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let mut net = FlowNetwork::new(3);
/// net.add_edge(NodeId::new(0), NodeId::new(1), 2.0)?;
/// net.add_edge(NodeId::new(1), NodeId::new(2), 1.5)?;
/// assert_eq!(net.node_count(), 3);
/// assert_eq!(net.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
///
/// [`MaxFlowSolver`]: crate::MaxFlowSolver
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowNetwork {
    node_count: usize,
    edges: Vec<Edge>,
    /// `out_adj[v]` lists ids of edges leaving `v`.
    out_adj: Vec<Vec<EdgeId>>,
    /// `in_adj[v]` lists ids of edges entering `v`.
    in_adj: Vec<Vec<EdgeId>>,
}

impl FlowNetwork {
    /// Creates an empty network with `node_count` vertices and no edges.
    pub fn new(node_count: usize) -> Self {
        FlowNetwork {
            node_count,
            edges: Vec::new(),
            out_adj: vec![Vec::new(); node_count],
            in_adj: vec![Vec::new(); node_count],
        }
    }

    /// Creates a *complete* directed network: every ordered pair `(u, v)`
    /// with `u != v` gets one edge whose capacity is `capacity(u, v)`.
    ///
    /// This is the graph topology the PPUF crossbar instantiates on chip
    /// (paper §4.1); it has `n(n − 1)` edges.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidCapacity`] if `capacity` produces a
    /// negative or non-finite value.
    ///
    /// ```
    /// use ppuf_maxflow::FlowNetwork;
    /// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
    /// let net = FlowNetwork::complete(5, |_, _| 1.0)?;
    /// assert_eq!(net.edge_count(), 5 * 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn complete(
        node_count: usize,
        mut capacity: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Result<Self, MaxFlowError> {
        let mut net = FlowNetwork::new(node_count);
        net.edges.reserve(node_count.saturating_mul(node_count.saturating_sub(1)));
        for u in 0..node_count {
            for v in 0..node_count {
                if u == v {
                    continue;
                }
                let (u, v) = (NodeId::new(u as u32), NodeId::new(v as u32));
                net.add_edge(u, v, capacity(u, v))?;
            }
        }
        Ok(net)
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Errors
    ///
    /// - [`MaxFlowError::InvalidNode`] if either endpoint is out of range.
    /// - [`MaxFlowError::SelfLoop`] if `from == to`.
    /// - [`MaxFlowError::InvalidCapacity`] if `capacity` is negative, NaN,
    ///   or infinite.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity: f64,
    ) -> Result<EdgeId, MaxFlowError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(MaxFlowError::SelfLoop { node: from });
        }
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(MaxFlowError::InvalidCapacity { value: capacity });
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge { from, to, capacity });
        self.out_adj[from.index()].push(id);
        self.in_adj[to.index()].push(id);
        Ok(id)
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the edge with id `e`, or `None` if out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Option<&Edge> {
        self.edges.get(e.index())
    }

    /// Iterates over `(EdgeId, &Edge)` in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId::new(i as u32), e))
    }

    /// Ids of edges leaving `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_adj[v.index()]
    }

    /// Ids of edges entering `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_adj[v.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count as u32).map(NodeId::new)
    }

    /// Sum of all edge capacities (a trivial upper bound on any flow value).
    pub fn total_capacity(&self) -> f64 {
        self.edges.iter().map(|e| e.capacity).sum()
    }

    /// Sum of capacities of edges leaving `v` (the out-cut bound).
    ///
    /// For the PPUF's complete graph this bounds the value of any flow out
    /// of a source placed at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_capacity(&self, v: NodeId) -> f64 {
        self.out_adj[v.index()].iter().map(|&e| self.edges[e.index()].capacity).sum()
    }

    /// Sum of capacities of edges entering `v` (the in-cut bound).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_capacity(&self, v: NodeId) -> f64 {
        self.in_adj[v.index()].iter().map(|&e| self.edges[e.index()].capacity).sum()
    }

    /// Validates that `v` names a vertex of this network.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidNode`] if `v.index() >= node_count`.
    pub fn check_node(&self, v: NodeId) -> Result<(), MaxFlowError> {
        if v.index() >= self.node_count {
            return Err(MaxFlowError::InvalidNode { node: v, node_count: self.node_count });
        }
        Ok(())
    }

    /// Validates a `(source, sink)` pair for a max-flow query.
    ///
    /// # Errors
    ///
    /// - [`MaxFlowError::InvalidNode`] if either id is out of range.
    /// - [`MaxFlowError::SourceIsSink`] if they coincide.
    pub fn check_terminals(&self, source: NodeId, sink: NodeId) -> Result<(), MaxFlowError> {
        self.check_node(source)?;
        self.check_node(sink)?;
        if source == sink {
            return Err(MaxFlowError::SourceIsSink { node: source });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::new(7);
        assert_eq!(v.index(), 7);
        assert_eq!(NodeId::from(7u32), v);
        assert_eq!(v.to_string(), "v7");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::new(11);
        assert_eq!(e.index(), 11);
        assert_eq!(EdgeId::from(11u32), e);
        assert_eq!(e.to_string(), "e11");
    }

    #[test]
    fn add_edge_populates_adjacency() {
        let mut net = FlowNetwork::new(3);
        let e01 = net.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let e12 = net.add_edge(NodeId::new(1), NodeId::new(2), 2.0).unwrap();
        assert_eq!(net.out_edges(NodeId::new(0)), &[e01]);
        assert_eq!(net.in_edges(NodeId::new(1)), &[e01]);
        assert_eq!(net.out_edges(NodeId::new(1)), &[e12]);
        assert_eq!(net.in_edges(NodeId::new(2)), &[e12]);
        assert!(net.out_edges(NodeId::new(2)).is_empty());
    }

    #[test]
    fn rejects_self_loop() {
        let mut net = FlowNetwork::new(2);
        let err = net.add_edge(NodeId::new(1), NodeId::new(1), 1.0).unwrap_err();
        assert!(matches!(err, MaxFlowError::SelfLoop { .. }));
    }

    #[test]
    fn rejects_out_of_range_node() {
        let mut net = FlowNetwork::new(2);
        let err = net.add_edge(NodeId::new(0), NodeId::new(5), 1.0).unwrap_err();
        assert!(matches!(err, MaxFlowError::InvalidNode { .. }));
    }

    #[test]
    fn rejects_bad_capacity() {
        let mut net = FlowNetwork::new(2);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = net.add_edge(NodeId::new(0), NodeId::new(1), bad).unwrap_err();
            assert!(matches!(err, MaxFlowError::InvalidCapacity { .. }));
        }
    }

    #[test]
    fn complete_graph_has_n_times_n_minus_one_edges() {
        for n in [1usize, 2, 3, 7] {
            let net = FlowNetwork::complete(n, |_, _| 1.0).unwrap();
            assert_eq!(net.edge_count(), n * (n - 1));
            assert!(net.nodes().all(|v| net.out_edges(v).len() == n - 1));
        }
    }

    #[test]
    fn capacity_aggregates() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        net.add_edge(NodeId::new(0), NodeId::new(2), 2.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 4.0).unwrap();
        assert_eq!(net.total_capacity(), 7.0);
        assert_eq!(net.out_capacity(NodeId::new(0)), 3.0);
        assert_eq!(net.in_capacity(NodeId::new(2)), 6.0);
    }

    #[test]
    fn check_terminals_rejects_equal_pair() {
        let net = FlowNetwork::new(2);
        assert!(matches!(
            net.check_terminals(NodeId::new(1), NodeId::new(1)),
            Err(MaxFlowError::SourceIsSink { .. })
        ));
        assert!(net.check_terminals(NodeId::new(0), NodeId::new(1)).is_ok());
    }
}
