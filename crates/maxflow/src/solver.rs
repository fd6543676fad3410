//! The [`MaxFlowSolver`] trait implemented by every algorithm in this crate,
//! and the [`SolveStats`] work counters every solve reports.

use crate::error::MaxFlowError;
use crate::flow::Flow;
use crate::graph::{FlowNetwork, NodeId};
use ppuf_telemetry::Recorder;

/// Work counters from one max-flow solve.
///
/// Fields that do not apply to an algorithm stay zero (e.g. an
/// augmenting-path solver never pushes preflow, a preflow solver never
/// counts augmenting paths), so the struct is one shared currency for the
/// whole solver family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Augmenting paths found (augmenting-path family); for Dinic, the
    /// number of blocking-flow path augmentations.
    pub augmenting_paths: u64,
    /// Breadth-first passes: BFS searches for Edmonds–Karp, level-graph
    /// builds (phases) for Dinic.
    pub bfs_passes: u64,
    /// Individual push operations (preflow-push family; for Dinic, arc
    /// saturations inside blocking-flow DFS).
    pub pushes: u64,
    /// Relabel operations (preflow-push family).
    pub relabels: u64,
    /// Times the gap heuristic fired and lifted a set of vertices.
    pub gap_triggers: u64,
    /// Global relabels, counting the initial exact-distance labeling.
    pub global_relabels: u64,
}

impl SolveStats {
    /// Emits every non-zero counter to `recorder` under
    /// `maxflow.<algorithm>.<counter>`.
    pub fn record(&self, recorder: &dyn Recorder, algorithm: &str) {
        let pairs = [
            ("augmenting_paths", self.augmenting_paths),
            ("bfs_passes", self.bfs_passes),
            ("pushes", self.pushes),
            ("relabels", self.relabels),
            ("gap_triggers", self.gap_triggers),
            ("global_relabels", self.global_relabels),
        ];
        for (key, value) in pairs {
            if value > 0 {
                recorder.counter_add(&format!("maxflow.{algorithm}.{key}"), value);
            }
        }
    }
}

/// A maximum-flow algorithm.
///
/// Implementations are stateless configuration objects (a saturation
/// tolerance); each [`max_flow`](MaxFlowSolver::max_flow) call builds
/// its own working state, so one solver value can be reused and shared
/// across threads.
///
/// ```
/// use ppuf_maxflow::{Dinic, FlowNetwork, MaxFlowSolver, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(4, |_, _| 1.0)?;
/// let flow = Dinic::new().max_flow(&net, NodeId::new(0), NodeId::new(3))?;
/// // 1 direct path + 2 two-hop paths through the other vertices
/// assert!((flow.value() - 3.0).abs() < 1e-9);
///
/// // the same solve with its work counters:
/// let (flow, stats) =
///     Dinic::new().max_flow_with_stats(&net, NodeId::new(0), NodeId::new(3))?;
/// assert!((flow.value() - 3.0).abs() < 1e-9);
/// assert!(stats.bfs_passes >= 1);
/// # Ok(())
/// # }
/// ```
pub trait MaxFlowSolver {
    /// Computes a maximum `source`→`sink` flow on `net`, reporting the work
    /// performed as [`SolveStats`].
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidNode`] or
    /// [`MaxFlowError::SourceIsSink`] for bad terminals; individual solvers
    /// document any further error conditions.
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError>;

    /// Computes a maximum `source`→`sink` flow on `net`, discarding the
    /// work counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`max_flow_with_stats`](Self::max_flow_with_stats).
    fn max_flow(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<Flow, MaxFlowError> {
        self.max_flow_with_stats(net, source, sink).map(|(flow, _)| flow)
    }

    /// [`max_flow_with_stats`](Self::max_flow_with_stats) with telemetry:
    /// emits the solve's non-zero [`SolveStats`] counters under
    /// `maxflow.<name>.<counter>`. Solvers with per-phase structure (e.g.
    /// [`Dinic`](crate::Dinic)) override this to additionally emit a
    /// convergence-trace event when the recorder collects events.
    ///
    /// # Errors
    ///
    /// Same conditions as [`max_flow_with_stats`](Self::max_flow_with_stats).
    fn max_flow_traced(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
        recorder: &dyn Recorder,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        let (flow, stats) = self.max_flow_with_stats(net, source, sink)?;
        stats.record(recorder, self.name());
        Ok((flow, stats))
    }

    /// Human-readable algorithm name (used in benchmark reports).
    fn name(&self) -> &'static str;
}

impl<S: MaxFlowSolver + ?Sized> MaxFlowSolver for &S {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        (**self).max_flow_with_stats(net, source, sink)
    }

    fn max_flow(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<Flow, MaxFlowError> {
        (**self).max_flow(net, source, sink)
    }

    fn max_flow_traced(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
        recorder: &dyn Recorder,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        (**self).max_flow_traced(net, source, sink, recorder)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl MaxFlowSolver for Box<dyn MaxFlowSolver + Send + Sync> {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        (**self).max_flow_with_stats(net, source, sink)
    }

    fn max_flow(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<Flow, MaxFlowError> {
        (**self).max_flow(net, source, sink)
    }

    fn max_flow_traced(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
        recorder: &dyn Recorder,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        (**self).max_flow_traced(net, source, sink, recorder)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
