//! Flow assignments and feasibility checking.
//!
//! A [`Flow`] stores one `f64` per edge of a [`FlowNetwork`] plus the
//! terminals it was computed for. It can verify its own *feasibility*
//! (capacity + conservation constraints, paper §2) independently of the
//! solver that produced it — this is the cheap half of the
//! verification/calculation asymmetry the PPUF protocol relies on.

use serde::{Deserialize, Serialize};

use crate::error::MaxFlowError;
use crate::graph::{EdgeId, FlowNetwork, NodeId};

/// Default absolute tolerance for floating-point flow comparisons.
///
/// Capacities model saturation currents in amperes (tens of nanoamps per
/// edge), so the default is picked far below any physical current while
/// staying far above `f64` rounding noise for sums of ~10⁶ terms.
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// A flow assignment on a specific network.
///
/// Produced by the solvers in this crate ([`dinic`](crate::dinic),
/// [`push_relabel`](crate::push_relabel), …). The assignment remembers the
/// terminals so that conservation can be checked at every *internal* node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    source: NodeId,
    sink: NodeId,
    value: f64,
    edge_flow: Vec<f64>,
}

impl Flow {
    /// Wraps raw per-edge flows into a `Flow`.
    ///
    /// `value` should equal the net flow out of `source`; use
    /// [`Flow::check_feasible`] to verify the assignment against a network.
    pub fn from_edge_flows(source: NodeId, sink: NodeId, value: f64, edge_flow: Vec<f64>) -> Self {
        Flow { source, sink, value, edge_flow }
    }

    /// The all-zero (trivially feasible) flow on a network.
    pub fn zero(net: &FlowNetwork, source: NodeId, sink: NodeId) -> Self {
        Flow { source, sink, value: 0.0, edge_flow: vec![0.0; net.edge_count()] }
    }

    /// The flow value (net flow leaving the source).
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The source terminal this flow was computed for.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The sink terminal this flow was computed for.
    #[inline]
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Flow on edge `e`, or `None` if `e` is out of range.
    #[inline]
    pub fn edge_flow(&self, e: EdgeId) -> Option<f64> {
        self.edge_flow.get(e.index()).copied()
    }

    /// Per-edge flows, indexed by [`EdgeId`].
    #[inline]
    pub fn edge_flows(&self) -> &[f64] {
        &self.edge_flow
    }

    /// Recomputes the net flow out of the source from the edge flows.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidNode`] if a terminal is not a node
    /// of `net`, or [`MaxFlowError::FlowShapeMismatch`] if the assignment
    /// does not have one entry per network edge.
    pub fn net_out_of_source(&self, net: &FlowNetwork) -> Result<f64, MaxFlowError> {
        self.check_shape(net)?;
        let out: f64 = net.out_edges(self.source).iter().map(|&e| self.edge_flow[e.index()]).sum();
        let inward: f64 =
            net.in_edges(self.source).iter().map(|&e| self.edge_flow[e.index()]).sum();
        Ok(out - inward)
    }

    /// Checks capacity constraints (`0 ≤ f(e) ≤ c(e)`) and conservation at
    /// every internal node, within absolute tolerance `tol`.
    ///
    /// This is the verifier-side feasibility check of paper §2: it is
    /// `O(m)` and embarrassingly parallel, in contrast to computing a
    /// maximum flow.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidNode`] if a terminal is not a node
    /// of `net`, or [`MaxFlowError::FlowShapeMismatch`] if the assignment
    /// does not match the network's edge count. Constraint *violations*
    /// are reported through the `Ok` payload, not as errors.
    pub fn check_feasible(
        &self,
        net: &FlowNetwork,
        tol: f64,
    ) -> Result<FeasibilityReport, MaxFlowError> {
        self.check_shape(net)?;
        let mut report = FeasibilityReport::default();
        for (id, edge) in net.edges() {
            let f = self.edge_flow[id.index()];
            if f < -tol || f > edge.capacity + tol || !f.is_finite() {
                report.capacity_violations.push(id);
            }
        }
        for v in net.nodes() {
            if v == self.source || v == self.sink {
                continue;
            }
            let inflow: f64 = net.in_edges(v).iter().map(|&e| self.edge_flow[e.index()]).sum();
            let outflow: f64 = net.out_edges(v).iter().map(|&e| self.edge_flow[e.index()]).sum();
            if (inflow - outflow).abs() > tol {
                report.conservation_violations.push(v);
            }
        }
        let recomputed = self.net_out_of_source(net)?;
        // every comparison with NaN is false: refuse a non-finite value
        // before the `>` test can let it through
        report.value_mismatch = !(self.value.is_finite() && recomputed.is_finite())
            || (recomputed - self.value).abs() > tol.max(self.value.abs() * 1e-9);
        Ok(report)
    }

    /// Checks that both terminals are nodes of `net` and that there is
    /// one flow entry per edge of `net`, so that indexing by either is
    /// safe.
    pub(crate) fn check_shape(&self, net: &FlowNetwork) -> Result<(), MaxFlowError> {
        net.check_node(self.source)?;
        net.check_node(self.sink)?;
        if self.edge_flow.len() != net.edge_count() {
            return Err(MaxFlowError::FlowShapeMismatch {
                flow_edges: self.edge_flow.len(),
                network_edges: net.edge_count(),
            });
        }
        Ok(())
    }
}

/// Outcome of [`Flow::check_feasible`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeasibilityReport {
    /// Edges whose flow is negative or above capacity (beyond tolerance).
    pub capacity_violations: Vec<EdgeId>,
    /// Internal nodes where inflow ≠ outflow (beyond tolerance).
    pub conservation_violations: Vec<NodeId>,
    /// `true` if the stored value disagrees with the recomputed net source
    /// outflow.
    pub value_mismatch: bool,
}

impl FeasibilityReport {
    /// `true` when no constraint is violated.
    pub fn is_feasible(&self) -> bool {
        self.capacity_violations.is_empty()
            && self.conservation_violations.is_empty()
            && !self.value_mismatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        // s=0 -> {1,2} -> t=3
        let mut net = FlowNetwork::new(4);
        net.add_edge(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        net.add_edge(NodeId::new(0), NodeId::new(2), 3.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(3), 2.0).unwrap();
        net.add_edge(NodeId::new(2), NodeId::new(3), 1.0).unwrap();
        (net, NodeId::new(0), NodeId::new(3))
    }

    #[test]
    fn zero_flow_is_feasible() {
        let (net, s, t) = diamond();
        let flow = Flow::zero(&net, s, t);
        let report = flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap();
        assert!(report.is_feasible());
        assert_eq!(flow.value(), 0.0);
    }

    #[test]
    fn feasible_flow_passes() {
        let (net, s, t) = diamond();
        let flow = Flow::from_edge_flows(s, t, 3.0, vec![2.0, 1.0, 2.0, 1.0]);
        let report = flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap();
        assert!(report.is_feasible(), "report: {report:?}");
        assert_eq!(flow.net_out_of_source(&net).unwrap(), 3.0);
    }

    #[test]
    fn capacity_violation_detected() {
        let (net, s, t) = diamond();
        let flow = Flow::from_edge_flows(s, t, 5.0, vec![4.0, 1.0, 4.0, 1.0]);
        let report = flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(report.capacity_violations, vec![EdgeId::new(0), EdgeId::new(2)]);
        assert!(!report.is_feasible());
    }

    #[test]
    fn conservation_violation_detected() {
        let (net, s, t) = diamond();
        // node 1 receives 2.0 but sends only 1.0
        let flow = Flow::from_edge_flows(s, t, 2.0, vec![2.0, 0.0, 1.0, 0.0]);
        let report = flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(report.conservation_violations, vec![NodeId::new(1)]);
    }

    #[test]
    fn value_mismatch_detected() {
        let (net, s, t) = diamond();
        for value in [9.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let flow = Flow::from_edge_flows(s, t, value, vec![2.0, 1.0, 2.0, 1.0]);
            let report = flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap();
            assert!(report.value_mismatch, "value {value}");
        }
    }

    #[test]
    fn out_of_range_terminals_are_errors_not_panics() {
        let (net, s, t) = diamond();
        let far = NodeId::new(1_000_000);
        let invalid = MaxFlowError::InvalidNode { node: far, node_count: net.node_count() };
        for flow in [
            Flow::from_edge_flows(far, t, 3.0, vec![2.0, 1.0, 2.0, 1.0]),
            Flow::from_edge_flows(s, far, 3.0, vec![2.0, 1.0, 2.0, 1.0]),
        ] {
            assert_eq!(flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap_err(), invalid);
            assert_eq!(flow.net_out_of_source(&net).unwrap_err(), invalid);
            let residual = crate::ResidualGraph::new(&net, &flow, DEFAULT_TOLERANCE);
            assert_eq!(residual.unwrap_err(), invalid);
        }
    }

    #[test]
    fn shape_mismatch_is_error() {
        let (net, s, t) = diamond();
        let flow = Flow::from_edge_flows(s, t, 0.0, vec![0.0; 2]);
        assert!(matches!(
            flow.check_feasible(&net, DEFAULT_TOLERANCE),
            Err(MaxFlowError::FlowShapeMismatch { .. })
        ));
    }
}
