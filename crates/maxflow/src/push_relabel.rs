//! Goldberg–Tarjan push–relabel with FIFO selection, the gap heuristic,
//! and periodic global relabeling.
//!
//! `O(V³)` worst case — the algorithm the paper measures through Boost as
//! its "simulation time" reference, and the basis of the best known
//! parallel bound (Shiloach–Vishkin style, `O(n² log n)` with `n`
//! processors), which the paper cites rather than runs.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::{Flow, DEFAULT_TOLERANCE};
use crate::graph::{FlowNetwork, NodeId};
use crate::residual_state::ResidualArcs;
use crate::solver::{MaxFlowSolver, SolveStats};

/// The FIFO push–relabel solver.
///
/// ```
/// use ppuf_maxflow::{FlowNetwork, MaxFlowSolver, NodeId, PushRelabel};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(5, |_, _| 2.0)?;
/// let flow = PushRelabel::new().max_flow(&net, NodeId::new(0), NodeId::new(4))?;
/// assert!((flow.value() - 8.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushRelabel {
    tolerance: f64,
}

impl PushRelabel {
    /// Creates a solver with the [default tolerance](DEFAULT_TOLERANCE).
    pub fn new() -> Self {
        PushRelabel { tolerance: DEFAULT_TOLERANCE }
    }

    /// Creates a solver treating residual capacities below `tolerance` as
    /// saturated.
    pub fn with_tolerance(tolerance: f64) -> Self {
        PushRelabel { tolerance }
    }

    /// The saturation tolerance in use.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl Default for PushRelabel {
    fn default() -> Self {
        PushRelabel::new()
    }
}

struct PrState {
    arcs: ResidualArcs,
    excess: Vec<f64>,
    height: Vec<u32>,
    /// FIFO queue of active vertices.
    active: VecDeque<u32>,
    in_queue: Vec<bool>,
    /// count[h] = number of vertices at height h (gap heuristic).
    count: Vec<u32>,
    tol: f64,
    s: usize,
    t: usize,
    stats: SolveStats,
}

impl PrState {
    /// Backward BFS from the sink assigning exact distance labels.
    fn global_relabel(&mut self) {
        self.stats.global_relabels += 1;
        let n = self.arcs.node_count();
        let inf = 2 * n as u32;
        self.height.iter_mut().for_each(|h| *h = inf);
        self.count.iter_mut().for_each(|c| *c = 0);
        self.height[self.t] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(self.t as u32);
        while let Some(u) = queue.pop_front() {
            let hu = self.height[u as usize];
            for &a in &self.arcs.adj[u as usize] {
                // arc a^1 points v -> u; usable if it has residual capacity
                let v = self.arcs.to[a as usize] as usize;
                if self.height[v] == inf
                    && v != self.s
                    && self.arcs.residual[(a ^ 1) as usize] > self.tol
                {
                    self.height[v] = hu + 1;
                    queue.push_back(v as u32);
                }
            }
        }
        self.height[self.s] = n as u32;
        for &h in &self.height {
            if (h as usize) < self.count.len() {
                self.count[h as usize] += 1;
            }
        }
    }

    fn enqueue(&mut self, v: usize) {
        if !self.in_queue[v] && self.excess[v] > self.tol && v != self.s && v != self.t {
            self.in_queue[v] = true;
            self.active.push_back(v as u32);
        }
    }

    /// Discharges vertex `u` until its excess is gone or it is relabeled.
    /// Returns the number of relabel operations performed.
    fn discharge(&mut self, u: usize) -> usize {
        let mut relabels = 0;
        while self.excess[u] > self.tol {
            let mut min_height = u32::MAX;
            let mut pushed_any = false;
            // iterate over a snapshot of arc ids; adj lists never change
            for i in 0..self.arcs.adj[u].len() {
                let a = self.arcs.adj[u][i];
                let r = self.arcs.residual[a as usize];
                if r <= self.tol {
                    continue;
                }
                let v = self.arcs.to[a as usize] as usize;
                if self.height[u] == self.height[v] + 1 {
                    let amount = self.excess[u].min(r);
                    self.arcs.push(a, amount);
                    self.stats.pushes += 1;
                    self.excess[u] -= amount;
                    self.excess[v] += amount;
                    self.enqueue(v);
                    pushed_any = true;
                    if self.excess[u] <= self.tol {
                        break;
                    }
                } else {
                    min_height = min_height.min(self.height[v] + 1);
                }
            }
            if self.excess[u] <= self.tol {
                break;
            }
            if !pushed_any {
                // relabel with gap heuristic
                let n = self.arcs.node_count() as u32;
                let old = self.height[u];
                if min_height == u32::MAX || min_height >= 2 * n {
                    self.height[u] = 2 * n;
                } else {
                    self.height[u] = min_height;
                }
                relabels += 1;
                self.stats.relabels += 1;
                if (old as usize) < self.count.len() {
                    self.count[old as usize] -= 1;
                }
                if (self.height[u] as usize) < self.count.len() {
                    self.count[self.height[u] as usize] += 1;
                }
                if (old as usize) < self.count.len() && self.count[old as usize] == 0 && old < n {
                    // gap: lift every vertex above `old` out of play
                    self.stats.gap_triggers += 1;
                    for v in 0..self.arcs.node_count() {
                        if self.height[v] > old && self.height[v] < n && v != self.s {
                            self.count[self.height[v] as usize] -= 1;
                            self.height[v] = n + 1;
                            self.count[(n + 1) as usize] += 1;
                        }
                    }
                }
                if self.height[u] >= 2 * n {
                    break; // unreachable from sink; excess flows back later
                }
            }
        }
        relabels
    }
}

impl PushRelabel {
    /// The solve loop shared by the plain and traced entry points;
    /// `profiler`, when present, receives per-phase wall/self times under
    /// `maxflow.push-relabel.solve` (exact-distance global relabels, the
    /// FIFO discharge loop, and the final excess return).
    fn solve(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
        profiler: Option<&ppuf_telemetry::Profiler>,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        net.check_terminals(source, sink)?;
        let arcs = ResidualArcs::new(net);
        let n = arcs.node_count();
        let (s, t) = (source.index(), sink.index());
        let mut st = PrState {
            arcs,
            excess: vec![0.0; n],
            height: vec![0; n],
            active: VecDeque::new(),
            in_queue: vec![false; n],
            count: vec![0; 2 * n + 2],
            tol: self.tolerance,
            s,
            t,
            stats: SolveStats::default(),
        };
        let solve_t0 = std::time::Instant::now();
        let mut global_time = std::time::Duration::ZERO;
        let mut discharge_time = std::time::Duration::ZERO;
        let t0 = profiler.map(|_| std::time::Instant::now());
        st.global_relabel();
        if let Some(t0) = t0 {
            global_time += t0.elapsed();
        }
        // saturate all source arcs
        for i in 0..st.arcs.adj[s].len() {
            let a = st.arcs.adj[s][i];
            let r = st.arcs.residual[a as usize];
            if r > self.tolerance {
                let v = st.arcs.to[a as usize] as usize;
                st.arcs.push(a, r);
                st.excess[s] -= r;
                st.excess[v] += r;
                st.enqueue(v);
            }
        }
        let relabel_budget = n.max(16);
        let mut relabels_since_global = 0usize;
        // the discharge phase is timed as the whole FIFO loop minus the
        // periodic global relabels inside it: one timestamp pair per pop
        // would dominate the very operations being measured
        let global_before_loop = global_time;
        let loop_t0 = profiler.map(|_| std::time::Instant::now());
        while let Some(u) = st.active.pop_front() {
            let u = u as usize;
            st.in_queue[u] = false;
            relabels_since_global += st.discharge(u);
            if st.excess[u] > self.tolerance && st.height[u] < 2 * n as u32 {
                st.enqueue(u);
            }
            if relabels_since_global >= relabel_budget {
                relabels_since_global = 0;
                let t0 = profiler.map(|_| std::time::Instant::now());
                st.global_relabel();
                if let Some(t0) = t0 {
                    global_time += t0.elapsed();
                }
            }
        }
        if let Some(loop_t0) = loop_t0 {
            let in_loop_globals = global_time - global_before_loop;
            discharge_time += loop_t0.elapsed().saturating_sub(in_loop_globals);
        }
        // Excess stranded at lifted vertices must be returned to the source
        // so the extracted flow satisfies conservation: push back along
        // incoming arcs' twins via reverse BFS augmentations.
        let t0 = profiler.map(|_| std::time::Instant::now());
        crate::residual_state::return_excess(&mut st.arcs, &mut st.excess, s, t, self.tolerance);
        let return_time = t0.map_or(std::time::Duration::ZERO, |t0| t0.elapsed());
        let stats = st.stats;
        let flow = st.arcs.into_flow(net, source, sink, self.tolerance);
        if let Some(profiler) = profiler {
            let wall = solve_t0.elapsed();
            profiler.record_path(
                "maxflow.push-relabel.solve",
                wall,
                wall.saturating_sub(global_time + discharge_time + return_time),
            );
            profiler.record_leaf("maxflow.push-relabel.solve;global_relabel", global_time);
            profiler.record_leaf("maxflow.push-relabel.solve;discharge", discharge_time);
            profiler.record_leaf("maxflow.push-relabel.solve;return_excess", return_time);
        }
        Ok((flow, stats))
    }
}

impl MaxFlowSolver for PushRelabel {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        self.solve(net, source, sink, None)
    }

    /// Emits the standard counters; a recorder with an attached profiler
    /// additionally gets the per-phase wall-time profile under
    /// `maxflow.push-relabel.solve`.
    fn max_flow_traced(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
        recorder: &dyn ppuf_telemetry::Recorder,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        let (flow, stats) = self.solve(net, source, sink, recorder.profiler())?;
        stats.record(recorder, self.name());
        Ok((flow, stats))
    }

    fn name(&self) -> &'static str {
        "push-relabel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;

    fn solve(net: &FlowNetwork, s: u32, t: u32) -> Flow {
        PushRelabel::new().max_flow(net, NodeId::new(s), NodeId::new(t)).unwrap()
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 4.0).unwrap();
        assert_eq!(solve(&net, 0, 1).value(), 4.0);
    }

    #[test]
    fn classic_clrs_instance() {
        let mut net = FlowNetwork::new(6);
        let e = |net: &mut FlowNetwork, a: u32, b: u32, c: f64| {
            net.add_edge(NodeId::new(a), NodeId::new(b), c).unwrap();
        };
        e(&mut net, 0, 1, 16.0);
        e(&mut net, 0, 2, 13.0);
        e(&mut net, 1, 3, 12.0);
        e(&mut net, 2, 1, 4.0);
        e(&mut net, 2, 4, 14.0);
        e(&mut net, 3, 2, 9.0);
        e(&mut net, 3, 5, 20.0);
        e(&mut net, 4, 3, 7.0);
        e(&mut net, 4, 5, 4.0);
        let flow = solve(&net, 0, 5);
        assert!((flow.value() - 23.0).abs() < 1e-9, "value {}", flow.value());
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn excess_returns_to_source() {
        // source can push 10 out but only 1 reaches the sink
        let mut net = FlowNetwork::new(3);
        net.add_edge(NodeId::new(0), NodeId::new(1), 10.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        let flow = solve(&net, 0, 2);
        assert!((flow.value() - 1.0).abs() < 1e-9);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn agrees_with_dinic_on_random_complete_graphs() {
        for n in [4usize, 7, 12] {
            let net = FlowNetwork::complete(n, |u, v| {
                0.05 + (((u.index() * 131 + v.index() * 97) % 23) as f64) / 7.0
            })
            .unwrap();
            let (s, t) = (NodeId::new(1), NodeId::new(n as u32 - 2));
            let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
            let d = Dinic::new().max_flow(&net, s, t).unwrap();
            assert!(
                (pr.value() - d.value()).abs() < 1e-7,
                "n={n}: pr {} vs dinic {}",
                pr.value(),
                d.value()
            );
            assert!(pr.check_feasible(&net, 1e-7).unwrap().is_feasible());
        }
    }

    #[test]
    fn traced_solve_with_profiler_records_phase_paths() {
        let net = FlowNetwork::complete(8, |u, v| 0.1 + ((u.index() + 3 * v.index()) % 5) as f64)
            .unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(7));
        let mut recorder = ppuf_telemetry::MemoryRecorder::new();
        let profiler = std::sync::Arc::new(ppuf_telemetry::Profiler::new());
        recorder.set_profiler(profiler.clone());
        let (traced, traced_stats) =
            PushRelabel::new().max_flow_traced(&net, s, t, &recorder).unwrap();
        let (plain, plain_stats) = PushRelabel::new().max_flow_with_stats(&net, s, t).unwrap();
        assert_eq!(plain.value(), traced.value(), "profiling must not perturb the solve");
        assert_eq!(plain_stats, traced_stats);
        let snap = profiler.snapshot();
        let solve = snap.get("maxflow.push-relabel.solve").expect("solve path recorded");
        assert_eq!(solve.count, 1);
        for phase in ["global_relabel", "discharge", "return_excess"] {
            let path = format!("maxflow.push-relabel.solve;{phase}");
            let stats = snap.get(&path).unwrap_or_else(|| panic!("missing {path}"));
            assert!(stats.wall_s <= solve.wall_s + 1e-9, "{path} fits the solve");
        }
        assert_eq!(profiler.skew_clamps(), 0);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        net.add_edge(NodeId::new(2), NodeId::new(3), 5.0).unwrap();
        let flow = solve(&net, 0, 3);
        assert_eq!(flow.value(), 0.0);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }
}
