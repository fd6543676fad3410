//! Residual graphs and the verification side of the PPUF protocol.
//!
//! Checking that a flow is *maximal* is far cheaper than finding one: build
//! the residual graph and test whether the sink is reachable from the
//! source (paper §2). The search is a plain BFS, `O(n²)` on a complete
//! graph, and parallelizes to `O(n²/p)` — this asymmetry is what lets a
//! PPUF verifier validate a prover's answer without doing the prover's
//! work.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::Flow;
use crate::graph::{EdgeId, FlowNetwork, NodeId};

/// A residual edge: remaining capacity `residual` in the direction
/// `from → to`.
///
/// Forward residuals come from unsaturated edges (`c(e) − f(e)`), backward
/// residuals from carried flow (`f(e)`). The PPUF authentication protocol
/// sends exactly this list from prover to verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualEdge {
    /// Tail of the residual arc.
    pub from: NodeId,
    /// Head of the residual arc.
    pub to: NodeId,
    /// Positive residual capacity.
    pub residual: f64,
    /// The network edge this residual arc derives from.
    pub edge: EdgeId,
    /// `true` if this arc runs opposite to the original edge (cancellable
    /// flow), `false` if it is unused forward capacity.
    pub backward: bool,
}

/// The residual graph `G_f` of a flow `f` on a network.
///
/// ```
/// use ppuf_maxflow::{Dinic, FlowNetwork, MaxFlowSolver, NodeId, ResidualGraph};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(5, |_, _| 1.0)?;
/// let (s, t) = (NodeId::new(0), NodeId::new(4));
/// let flow = Dinic::new().max_flow(&net, s, t)?;
/// let residual = ResidualGraph::new(&net, &flow, 1e-9)?;
/// assert!(residual.certifies_max_flow());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResidualGraph {
    node_count: usize,
    source: NodeId,
    sink: NodeId,
    edges: Vec<ResidualEdge>,
    /// adjacency over residual edges
    adj: Vec<Vec<u32>>,
}

impl ResidualGraph {
    /// Builds the residual graph of `flow` on `net`, dropping residual arcs
    /// with capacity ≤ `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidNode`] if a terminal of `flow` is
    /// not a node of `net`, or [`MaxFlowError::FlowShapeMismatch`] if
    /// `flow` does not have one entry per edge of `net`.
    pub fn new(net: &FlowNetwork, flow: &Flow, tol: f64) -> Result<Self, MaxFlowError> {
        flow.check_shape(net)?;
        let n = net.node_count();
        let mut edges = Vec::new();
        let mut adj = vec![Vec::new(); n];
        for (id, edge) in net.edges() {
            let f = flow.edge_flows()[id.index()];
            let forward = edge.capacity - f;
            if forward > tol {
                adj[edge.from.index()].push(edges.len() as u32);
                edges.push(ResidualEdge {
                    from: edge.from,
                    to: edge.to,
                    residual: forward,
                    edge: id,
                    backward: false,
                });
            }
            if f > tol {
                adj[edge.to.index()].push(edges.len() as u32);
                edges.push(ResidualEdge {
                    from: edge.to,
                    to: edge.from,
                    residual: f,
                    edge: id,
                    backward: true,
                });
            }
        }
        Ok(ResidualGraph { node_count: n, source: flow.source(), sink: flow.sink(), edges, adj })
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The residual arcs (the message of the authentication protocol).
    pub fn edges(&self) -> &[ResidualEdge] {
        &self.edges
    }

    /// Source terminal recorded with the flow.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Sink terminal recorded with the flow.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Sequential BFS: is `to` reachable from `from` along residual arcs?
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.node_count];
        let mut queue = VecDeque::new();
        seen[from.index()] = true;
        queue.push_back(from.index() as u32);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.adj[u as usize] {
                let v = self.edges[ei as usize].to;
                if !seen[v.index()] {
                    if v == to {
                        return true;
                    }
                    seen[v.index()] = true;
                    queue.push_back(v.index() as u32);
                }
            }
        }
        false
    }

    /// Level-synchronous parallel BFS over `threads` workers.
    ///
    /// Frontier expansion is split across threads per level
    /// (`O(n²/p)` on a complete graph, the verifier bound of paper §2).
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::ZeroThreads`] if `threads == 0`.
    pub fn is_reachable_parallel(
        &self,
        from: NodeId,
        to: NodeId,
        threads: usize,
    ) -> Result<bool, MaxFlowError> {
        if threads == 0 {
            return Err(MaxFlowError::ZeroThreads);
        }
        if from == to {
            return Ok(true);
        }
        let mut seen = vec![false; self.node_count];
        seen[from.index()] = true;
        let mut frontier = vec![from.index() as u32];
        while !frontier.is_empty() {
            let chunk = frontier.len().div_ceil(threads);
            let next_parts: Vec<Vec<u32>> = if threads == 1 || frontier.len() < 32 {
                vec![self.expand(&frontier, &seen)]
            } else {
                let seen_ref = &seen;
                crossbeam::scope(|scope| {
                    let handles: Vec<_> = frontier
                        .chunks(chunk)
                        .map(|part| scope.spawn(move |_| self.expand(part, seen_ref)))
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
                })
                .expect("crossbeam scope failed")
            };
            let mut next = Vec::new();
            for part in next_parts {
                for v in part {
                    if !seen[v as usize] {
                        if v as usize == to.index() {
                            return Ok(true);
                        }
                        seen[v as usize] = true;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        Ok(false)
    }

    /// Expands one chunk of the frontier against a read-only `seen` bitmap;
    /// duplicates across chunks are deduplicated by the caller.
    fn expand(&self, part: &[u32], seen: &[bool]) -> Vec<u32> {
        let mut out = Vec::new();
        for &u in part {
            for &ei in &self.adj[u as usize] {
                let v = self.edges[ei as usize].to.index();
                if !seen[v] {
                    out.push(v as u32);
                }
            }
        }
        out
    }

    /// The max-flow optimality certificate: `true` iff the sink is **not**
    /// reachable from the source in this residual graph.
    pub fn certifies_max_flow(&self) -> bool {
        !self.is_reachable(self.source, self.sink)
    }

    /// Set of vertices reachable from the source (the source side of the
    /// induced minimum cut when the flow is maximal).
    pub fn source_side(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count];
        let mut queue = VecDeque::new();
        seen[self.source.index()] = true;
        queue.push_back(self.source.index() as u32);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.adj[u as usize] {
                let v = self.edges[ei as usize].to.index();
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v as u32);
                }
            }
        }
        seen.iter().enumerate().filter(|&(_, &s)| s).map(|(i, _)| NodeId::new(i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use crate::solver::MaxFlowSolver;

    fn solved_instance() -> (FlowNetwork, Flow) {
        let net = FlowNetwork::complete(6, |u, v| {
            0.3 + (((u.index() * 5 + v.index() * 11) % 7) as f64) / 2.0
        })
        .unwrap();
        let flow = Dinic::new().max_flow(&net, NodeId::new(0), NodeId::new(5)).unwrap();
        (net, flow)
    }

    #[test]
    fn max_flow_certified() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        assert!(residual.certifies_max_flow());
    }

    #[test]
    fn non_max_flow_not_certified() {
        let (net, flow) = solved_instance();
        let zero = Flow::zero(&net, flow.source(), flow.sink());
        let residual = ResidualGraph::new(&net, &zero, 1e-9).unwrap();
        assert!(!residual.certifies_max_flow());
    }

    #[test]
    fn parallel_matches_sequential() {
        let (net, flow) = solved_instance();
        for f in [flow.clone(), Flow::zero(&net, flow.source(), flow.sink())] {
            let residual = ResidualGraph::new(&net, &f, 1e-9).unwrap();
            let seq = residual.is_reachable(residual.source(), residual.sink());
            for threads in [1, 2, 4] {
                let par = residual
                    .is_reachable_parallel(residual.source(), residual.sink(), threads)
                    .unwrap();
                assert_eq!(seq, par, "threads={threads}");
            }
        }
    }

    #[test]
    fn reachability_to_self_is_true() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        assert!(residual.is_reachable(NodeId::new(2), NodeId::new(2)));
    }

    #[test]
    fn source_side_contains_source_not_sink_when_max() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        let side = residual.source_side();
        assert!(side.contains(&flow.source()));
        assert!(!side.contains(&flow.sink()));
    }

    #[test]
    fn backward_arcs_present_for_carried_flow() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        assert!(residual.edges().iter().any(|e| e.backward));
    }
}
