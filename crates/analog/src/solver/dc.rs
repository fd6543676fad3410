//! Nonlinear DC operating-point solver (damped Newton on nodal voltages).
//!
//! The PPUF "executes" by settling to its DC steady state; because every
//! edge element is incrementally passive, that steady state exists, is
//! unique, and carries the maximum source current compatible with the
//! capacity constraints — i.e. it *is* the max-flow solution (paper §3.2).
//! This module computes it the way a circuit simulator would: Kirchhoff
//! current-law residuals at every internal node, Newton iteration with a
//! `G_min` floor and step damping. A cold solve runs plain Newton at full
//! supply from the lumped start: every internal node at the one level where
//! KCL summed over all of them balances. The operating point follows the
//! min cut, and on a crossbar that cut is a terminal star, so the internal
//! nodes settle close to that level: on the n = 900 benchmark crossbar the
//! start is 1.452 V against a solution spanning 1.446–1.454 V, and Newton
//! takes 3 iterations where a flat `vs/2` start took 9. There is no
//! source-stepping continuation and no Gauss–Seidel fallback; a line
//! search that finds no descent ends the solve as `NoConvergence`.

use std::fmt;
use std::time::Instant;

use ppuf_telemetry::{Recorder, Span, NOOP};

use crate::block::TwoTerminal;
use crate::solver::workspace::{DcWorkspace, LinearBackend};
use crate::units::{Amps, Celsius, Volts};

/// Minimum conductance floored onto the Jacobian diagonal (SPICE `GMIN`);
/// keeps the system solvable when whole cut-off regions have zero slope.
pub const G_MIN: f64 = 1e-13;

/// One edge of a [`Circuit`]: a two-terminal element between two nodes,
/// conducting from `from` to `to`.
#[derive(Debug, Clone)]
pub struct CircuitEdge<E> {
    /// Tail node index.
    pub from: u32,
    /// Head node index.
    pub to: u32,
    /// The element on this edge.
    pub element: E,
}

/// A network of two-terminal elements on `node_count` nodes.
///
/// The crossbar's edges are [`BuildingBlock`](crate::block::BuildingBlock)s;
/// the element type is generic so tests can substitute simpler
/// [`TwoTerminal`] elements.
#[derive(Debug, Clone)]
pub struct Circuit<E> {
    node_count: usize,
    edges: Vec<CircuitEdge<E>>,
}

/// Errors from the DC / transient solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// A node index referenced a node outside the circuit.
    InvalidNode {
        /// The offending index.
        node: u32,
        /// Number of circuit nodes.
        node_count: usize,
    },
    /// Source and sink coincide.
    SourceIsSink,
    /// Newton failed to reach the residual tolerance.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Best residual achieved (amps).
        residual: f64,
        /// Circuit node carrying the largest KCL residual when the solve
        /// gave up — the place to look when diagnosing a stiff instance.
        worst_node: usize,
    },
    /// The Jacobian became singular despite the `G_min` floor. Conductances
    /// are clamped to ≥ 0 (a NaN slope reads 0), so this takes a degenerate
    /// element curve; an element whose *current* turns NaN ends in
    /// [`NoConvergence`](Self::NoConvergence) instead.
    SingularJacobian,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidNode { node, node_count } => {
                write!(f, "node {node} out of range for circuit with {node_count} nodes")
            }
            SolveError::SourceIsSink => write!(f, "source and sink are the same node"),
            SolveError::NoConvergence { iterations, residual, worst_node } => write!(
                f,
                "newton did not converge after {iterations} iterations \
                 (residual {residual:.3e} A, worst at node {worst_node})"
            ),
            SolveError::SingularJacobian => write!(f, "jacobian is singular"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Options controlling the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Convergence threshold on the max KCL residual (amps).
    pub residual_tolerance: Amps,
    /// Maximum Newton iterations of a solve.
    pub max_iterations: usize,
    /// Ambient temperature.
    pub temperature: Celsius,
    /// Capture the per-iteration Newton residual-norm trajectory and emit
    /// it as one `analog.dc.residual_trace` event per solve (on both the
    /// converged and `NoConvergence` paths). Off by default: the trace is
    /// a diagnostic sampling knob, not something to pay for on every solve
    /// of a large batch.
    pub trace_residuals: bool,
    /// Linear solver for the Newton systems; `Auto` (the default) picks
    /// the sparse LU for large, structurally sparse Jacobians and the
    /// blocked dense LU otherwise (see [`LinearBackend`]).
    pub backend: LinearBackend,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            residual_tolerance: Amps(1e-14),
            max_iterations: 200,
            temperature: Celsius::NOMINAL,
            trace_residuals: false,
            backend: LinearBackend::Auto,
        }
    }
}

/// Work counters shared by the DC and transient Newton loops, accumulated
/// locally and emitted to a [`Recorder`] once per solve (no recorder calls
/// inside the hot loop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NewtonWork {
    /// Newton iterations performed.
    pub iterations: u64,
    /// Dense LU factorizations of the Jacobian.
    pub factorizations: u64,
    /// Damping events: line-search step halvings after a rejected trial.
    pub backtracks: u64,
}

impl NewtonWork {
    /// Emits the counters under `prefix.<name>`; zero counters are still
    /// cheap to emit (memory recorders skip zero deltas). The two live
    /// prefixes keep static counter names so emission allocates nothing.
    pub fn record(&self, recorder: &dyn Recorder, prefix: &str) {
        const NAMES: [[&str; 3]; 2] = [
            [
                "analog.dc.newton_iterations",
                "analog.dc.jacobian_factorizations",
                "analog.dc.damping_backtracks",
            ],
            [
                "analog.transient.newton_iterations",
                "analog.transient.jacobian_factorizations",
                "analog.transient.damping_backtracks",
            ],
        ];
        let [iters, factors, backtracks] = match prefix {
            "analog.dc" => NAMES[0],
            "analog.transient" => NAMES[1],
            other => {
                recorder.counter_add(&format!("{other}.newton_iterations"), self.iterations);
                recorder
                    .counter_add(&format!("{other}.jacobian_factorizations"), self.factorizations);
                recorder.counter_add(&format!("{other}.damping_backtracks"), self.backtracks);
                return;
            }
        };
        recorder.counter_add(iters, self.iterations);
        recorder.counter_add(factors, self.factorizations);
        recorder.counter_add(backtracks, self.backtracks);
    }
}

/// The node (in circuit numbering) whose KCL residual is largest.
pub(crate) fn worst_node_of(residual: &[f64], unknowns: &[usize]) -> usize {
    residual
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.abs().total_cmp(&b.abs()))
        .map_or(0, |(idx, _)| unknowns[idx])
}

/// The DC operating point of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    /// Node voltages, indexed by node id (terminals included).
    pub voltages: Vec<Volts>,
    /// Net current flowing out of the source terminal.
    pub source_current: Amps,
    /// Newton iterations the solve ran; equals the solve's
    /// `analog.dc.newton_iterations` counter.
    pub iterations: usize,
    /// Final max KCL residual.
    pub residual: Amps,
}

impl<E: TwoTerminal> Circuit<E> {
    /// Creates an empty circuit with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        Circuit { node_count, edges: Vec::new() }
    }

    /// Adds a directed element between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidNode`] if either node is out of range.
    pub fn add_element(&mut self, from: u32, to: u32, element: E) -> Result<(), SolveError> {
        for node in [from, to] {
            if node as usize >= self.node_count {
                return Err(SolveError::InvalidNode { node, node_count: self.node_count });
            }
        }
        self.edges.push(CircuitEdge { from, to, element });
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The circuit's edges.
    pub fn edges(&self) -> &[CircuitEdge<E>] {
        &self.edges
    }

    /// Solves for the DC operating point with `source` pinned at `vs` and
    /// `sink` at 0 V; every other node floats (pure KCL).
    ///
    /// # Errors
    ///
    /// - [`SolveError::InvalidNode`] / [`SolveError::SourceIsSink`] for bad
    ///   terminals.
    /// - [`SolveError::NoConvergence`] if Newton stalls or runs out of
    ///   iterations. An element whose current turns NaN ends here too,
    ///   never as a converged solve: with an infinite residual, worst at
    ///   its internal node, or at the source for an element joining the
    ///   two terminals.
    /// - [`SolveError::SingularJacobian`] if the `G_min`-floored Jacobian
    ///   is still singular.
    pub fn solve_dc(
        &self,
        source: u32,
        sink: u32,
        vs: Volts,
        options: &DcOptions,
    ) -> Result<DcSolution, SolveError>
    where
        E: Sync,
    {
        self.solve_dc_traced(source, sink, vs, options, &NOOP)
    }

    /// [`solve_dc`](Self::solve_dc) with telemetry: emits
    /// `analog.dc.newton_iterations`, `analog.dc.jacobian_factorizations`
    /// and `analog.dc.damping_backtracks` counters, observes the final
    /// residual norm under `analog.dc.residual_norm`, times the whole solve
    /// as the `analog.dc.solve` span, and on failure counts
    /// `analog.dc.nonconvergence` and warns (once).
    /// With [`DcOptions::trace_residuals`] set it additionally emits the
    /// per-iteration convergence trajectory as one
    /// `analog.dc.residual_trace` event per solve.
    ///
    /// # Errors
    ///
    /// Same as [`solve_dc`](Self::solve_dc).
    pub fn solve_dc_traced(
        &self,
        source: u32,
        sink: u32,
        vs: Volts,
        options: &DcOptions,
        recorder: &dyn Recorder,
    ) -> Result<DcSolution, SolveError>
    where
        E: Sync,
    {
        self.solve_dc_core(source, sink, vs, options, recorder, &mut DcWorkspace::new(), 1)
    }

    /// The shared solve path behind [`solve_dc_traced`](Self::solve_dc_traced)
    /// and [`DcEngine`](crate::solver::engine::DcEngine): plain Newton at
    /// full supply from the lumped start, with all scratch in `ws` and
    /// stamping and LU fanned out over `threads`. Errors as
    /// [`Circuit::solve_dc`], a NaN element current included.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_dc_core(
        &self,
        source: u32,
        sink: u32,
        vs: Volts,
        options: &DcOptions,
        recorder: &dyn Recorder,
        ws: &mut DcWorkspace,
        threads: usize,
    ) -> Result<DcSolution, SolveError>
    where
        E: Sync,
    {
        let _span = Span::enter(recorder, "analog.dc.solve");
        let solve_t0 = Instant::now();
        for node in [source, sink] {
            if node as usize >= self.node_count {
                return Err(SolveError::InvalidNode { node, node_count: self.node_count });
            }
        }
        if source == sink {
            return Err(SolveError::SourceIsSink);
        }
        let n = self.node_count;
        ws.bind(self, source, sink, options.backend);
        ws.residual_trace.clear();
        let (stamp0, lu0) = (ws.stamp_time, ws.lu_time);
        let (eval0, factor0, backsub0) = (ws.eval_time, ws.factor_time, ws.backsub_time);
        let (sp_hits0, sp_full0) = (ws.sp_reuse_hits, ws.sp_full_factors);
        // all path strings below are static and pre-interned on first use,
        // so a repeat profiled solve allocates nothing extra
        let profiler = recorder.profiler();
        let _alloc_scope = profiler.map(|p| p.alloc_scope("analog.dc.solve"));
        let mut work = NewtonWork::default();
        let tol = options.residual_tolerance.value();
        let level = ws.lumped_level(self, vs, options.temperature);
        let mut voltages = vec![level; n];
        voltages[source as usize] = vs;
        voltages[sink as usize] = Volts(0.0);
        let settled = self.newton_ws(&mut voltages, ws, options, tol, &mut work, threads);
        // final residual + terminal current from one evaluation pass
        let settled = settled.and_then(|()| {
            ws.compute_residual(self, &voltages, options.temperature, threads);
            let current = ws.terminal_current(source);
            // an element joining the two terminals enters no KCL residual,
            // so a NaN it carries shows only in the source current
            if current.is_finite() {
                Ok(current)
            } else {
                Err(SolveError::NoConvergence {
                    iterations: work.iterations as usize,
                    residual: f64::INFINITY,
                    worst_node: source as usize,
                })
            }
        });
        work.record(recorder, "analog.dc");
        emit_residual_trace(recorder, options, &ws.residual_trace);
        let source_current = match settled {
            Ok(current) => current,
            Err(err) => {
                recorder.counter_add("analog.dc.nonconvergence", 1);
                recorder.warn(&format!("dc solve failed: {err}"));
                return Err(err);
            }
        };
        let residual = max_abs(&ws.residual);
        recorder.observe("analog.dc.residual_norm", residual);
        recorder.record_span("analog.dc.stamp", ws.stamp_time - stamp0);
        recorder.record_span("analog.dc.lu", ws.lu_time - lu0);
        if let Some(stats) = ws.sparse_stats() {
            recorder.counter_add("analog.sparse.symbolic_reuse_hits", ws.sp_reuse_hits - sp_hits0);
            recorder
                .counter_add("analog.sparse.full_factorizations", ws.sp_full_factors - sp_full0);
            recorder.observe("analog.sparse.jacobian_nnz", stats.jacobian_nnz as f64);
            recorder.observe("analog.sparse.lu_nnz", stats.lu_nnz as f64);
            recorder.observe("analog.sparse.fill_ratio", stats.fill_ratio);
        }
        if let Some(profiler) = profiler {
            // per-phase call-path profile: stamp (with its device-eval
            // inner pass) and the backend-tagged LU (factor vs triangular
            // solves) nest under the solve; everything the phase timers
            // missed shows up as the solve's own self time.
            let wall = solve_t0.elapsed();
            let stamp = ws.stamp_time - stamp0;
            let lu = ws.lu_time - lu0;
            let eval = ws.eval_time - eval0;
            let factor = ws.factor_time - factor0;
            let backsub = ws.backsub_time - backsub0;
            let b = ws.sparse_resolved() as usize;
            const LU: [&str; 2] = ["analog.dc.solve;lu_dense", "analog.dc.solve;lu_sparse"];
            const FACTOR: [&str; 2] =
                ["analog.dc.solve;lu_dense;factor", "analog.dc.solve;lu_sparse;factor"];
            const BACKSUB: [&str; 2] = [
                "analog.dc.solve;lu_dense;back_substitute",
                "analog.dc.solve;lu_sparse;back_substitute",
            ];
            profiler.record_path("analog.dc.solve", wall, wall.saturating_sub(stamp + lu));
            profiler.record_path("analog.dc.solve;stamp", stamp, stamp.saturating_sub(eval));
            profiler.record_leaf("analog.dc.solve;stamp;device_eval", eval);
            profiler.record_path(LU[b], lu, lu.saturating_sub(factor + backsub));
            profiler.record_leaf(FACTOR[b], factor);
            profiler.record_leaf(BACKSUB[b], backsub);
        }
        Ok(DcSolution {
            voltages,
            source_current: Amps(source_current),
            iterations: work.iterations as usize,
            residual: Amps(residual),
        })
    }

    /// Damped Newton iteration at fixed terminal voltages, running
    /// entirely out of the workspace's reusable buffers. Every iteration
    /// counts in `work`, whether or not the solve converges.
    fn newton_ws(
        &self,
        voltages: &mut [Volts],
        ws: &mut DcWorkspace,
        options: &DcOptions,
        tol: f64,
        work: &mut NewtonWork,
        threads: usize,
    ) -> Result<(), SolveError>
    where
        E: Sync,
    {
        let temp = options.temperature;
        let k = ws.unknowns.len();
        if k == 0 {
            return Ok(());
        }
        ws.compute_residual(self, voltages, temp, threads);
        let mut res_norm = max_abs(&ws.residual);
        if options.trace_residuals {
            ws.residual_trace.push(res_norm);
        }
        let mut iterations = 0;
        let mut best_norm = res_norm;
        let mut stalled = 0usize;
        while res_norm > tol {
            if iterations >= options.max_iterations {
                return Err(SolveError::NoConvergence {
                    iterations,
                    residual: res_norm,
                    worst_node: worst_node_of(&ws.residual, &ws.unknowns),
                });
            }
            iterations += 1;
            work.iterations += 1;
            // assemble Laplacian-style Jacobian of the KCL residuals
            ws.compute_jacobian(self, voltages, temp, threads, None, true);
            // newton step: J·Δ = −F
            for idx in 0..k {
                ws.delta[idx] = -ws.residual[idx];
            }
            work.factorizations += 1;
            ws.factor_jacobian(threads)?;
            ws.solve_linear();
            // damped line search on the residual norm
            let mut alpha = 1.0f64;
            ws.base.clear();
            ws.base.extend_from_slice(voltages);
            let mut accepted = false;
            for _ in 0..30 {
                let mut finite = true;
                for (idx, &node) in ws.unknowns.iter().enumerate() {
                    let v = ws.base[node].value() + alpha * ws.delta[idx];
                    finite &= v.is_finite();
                    // keep iterates physical; terminals span [0, vs]
                    voltages[node] = Volts(v.clamp(-1.0, 5.0));
                }
                // a non-finite trial is rejected unevaluated: element
                // curves can read a NaN voltage as 0 A and fake a balance
                if finite {
                    ws.compute_residual(self, voltages, temp, threads);
                    let new_norm = max_abs(&ws.residual);
                    if new_norm < res_norm || new_norm <= tol {
                        res_norm = new_norm;
                        accepted = true;
                        break;
                    }
                }
                alpha *= 0.5;
                work.backtracks += 1;
            }
            if !accepted {
                // no step along the Newton direction lowers the residual:
                // the solve has stalled where it stands
                return Err(SolveError::NoConvergence {
                    iterations,
                    residual: res_norm,
                    worst_node: worst_node_of(&ws.residual, &ws.unknowns),
                });
            }
            if options.trace_residuals {
                ws.residual_trace.push(res_norm);
            }
            // patience-based stagnation detection
            if res_norm < 0.999 * best_norm {
                best_norm = res_norm;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled > 25 {
                    return Err(SolveError::NoConvergence {
                        iterations,
                        residual: res_norm,
                        worst_node: worst_node_of(&ws.residual, &ws.unknowns),
                    });
                }
            }
        }
        Ok(())
    }

    /// KCL residual (net current *into* the node) for every unknown node.
    /// Kept as the reference implementation the workspace's incidence
    /// assembly is tested against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn kcl_residuals(
        &self,
        voltages: &[Volts],
        unknown_of: &[usize],
        out: &mut [f64],
        temp: Celsius,
    ) {
        out.iter_mut().for_each(|r| *r = 0.0);
        for e in &self.edges {
            let (u, v) = (e.from as usize, e.to as usize);
            let dv = voltages[u] - voltages[v];
            let i = e.element.current(dv, temp).value();
            if unknown_of[u] != usize::MAX {
                out[unknown_of[u]] -= i;
            }
            if unknown_of[v] != usize::MAX {
                out[unknown_of[v]] += i;
            }
        }
    }
}

/// The largest magnitude in `xs`, with a NaN read as `+∞`, so a residual
/// a NaN element produced can never pass as converged.
pub(crate) fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |m, &x| if x.is_nan() { f64::INFINITY } else { m.max(x.abs()) })
}

/// Flushes the captured residual trajectory as one
/// `analog.dc.residual_trace` event (values are the max-KCL residual in
/// amps before the first Newton iteration and after each one).
fn emit_residual_trace(recorder: &dyn Recorder, options: &DcOptions, trace: &[f64]) {
    if options.trace_residuals && !trace.is_empty() {
        recorder.record_event("analog.dc.residual_trace", trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock};
    use crate::solver::test_circuits::{
        divider, fork, lopsided_divider, DirectedResistor, NanAbove,
    };

    #[test]
    fn voltage_divider() {
        // s -R- v -R- t : internal node sits at vs/2
        let c = divider(1e6, 1e6);
        let sol = c.solve_dc(0, 2, Volts(2.0), &DcOptions::default()).unwrap();
        assert!((sol.voltages[1].value() - 1.0).abs() < 1e-6, "{:?}", sol.voltages);
        assert!((sol.source_current.value() - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn unequal_divider() {
        let c = lopsided_divider();
        let sol = c.solve_dc(0, 2, Volts(2.0), &DcOptions::default()).unwrap();
        // current = 2 V / 4 MΩ = 0.5 µA; node at 2 − 0.5 = 1.5 V
        assert!((sol.voltages[1].value() - 1.5).abs() < 1e-6);
        assert!((sol.source_current.value() - 0.5e-6).abs() < 1e-9);
    }

    #[test]
    fn lumped_start_solves_a_divider_outright() {
        // one internal node: the level where its KCL balances is the
        // operating point, so Newton has nothing left to do
        for (c, v1) in [(divider(1e6, 1e6), 1.0), (lopsided_divider(), 1.5)] {
            let sol = c.solve_dc(0, 2, Volts(2.0), &DcOptions::default()).unwrap();
            assert_eq!(sol.iterations, 0, "{sol:?}");
            assert!((sol.voltages[1].value() - v1).abs() < 1e-12, "{sol:?}");
        }
    }

    #[test]
    fn parallel_paths_add() {
        let mut c = Circuit::new(4);
        // two 2-hop paths s→1→t and s→2→t, each 2 MΩ total
        for mid in [1, 2] {
            c.add_element(0, mid, DirectedResistor::new(1e6)).unwrap();
            c.add_element(mid, 3, DirectedResistor::new(1e6)).unwrap();
        }
        let sol = c.solve_dc(0, 3, Volts(2.0), &DcOptions::default()).unwrap();
        assert!((sol.source_current.value() - 2e-6).abs() < 1e-9);
    }

    #[test]
    fn building_block_edge_saturates() {
        // single serial block from source to sink carries its capacity
        let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let isat = block.saturation_current(Celsius::NOMINAL).value();
        let mut c = Circuit::new(2);
        c.add_element(0, 1, block).unwrap();
        let sol = c.solve_dc(0, 1, Volts(2.0), &DcOptions::default()).unwrap();
        assert!(
            (sol.source_current.value() / isat - 1.0).abs() < 0.1,
            "current {} vs capacity {}",
            sol.source_current.value(),
            isat
        );
    }

    #[test]
    fn two_hop_block_path() {
        // s → v → t with serial blocks: both hops must saturate within 2 V
        let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let isat = block.saturation_current(Celsius::NOMINAL).value();
        let mut c = Circuit::new(3);
        c.add_element(0, 1, block).unwrap();
        c.add_element(1, 2, block).unwrap();
        let sol = c.solve_dc(0, 2, Volts(2.0), &DcOptions::default()).unwrap();
        assert!(
            (sol.source_current.value() / isat - 1.0).abs() < 0.1,
            "two-hop current {} vs capacity {isat}",
            sol.source_current.value()
        );
    }

    #[test]
    fn kcl_holds_at_solution() {
        let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let mut c = Circuit::new(4);
        for (u, v) in [(0u32, 1u32), (0, 2), (1, 2), (1, 3), (2, 3)] {
            c.add_element(u, v, block).unwrap();
        }
        let sol = c.solve_dc(0, 3, Volts(2.0), &DcOptions::default()).unwrap();
        assert!(sol.residual.value() < 1e-13, "residual {}", sol.residual.value());
    }

    #[test]
    fn rejects_bad_terminals() {
        let c: Circuit<DirectedResistor> = Circuit::new(2);
        assert!(matches!(
            c.solve_dc(0, 0, Volts(1.0), &DcOptions::default()),
            Err(SolveError::SourceIsSink)
        ));
        assert!(matches!(
            c.solve_dc(0, 9, Volts(1.0), &DcOptions::default()),
            Err(SolveError::InvalidNode { .. })
        ));
    }

    #[test]
    fn add_element_validates_nodes() {
        let mut c: Circuit<DirectedResistor> = Circuit::new(2);
        assert!(c.add_element(0, 5, DirectedResistor::new(1.0)).is_err());
    }

    #[test]
    fn traced_solve_emits_work_counters() {
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let c = fork();
        let sol = c.solve_dc_traced(0, 4, Volts(2.0), &DcOptions::default(), &recorder).unwrap();
        // the cold work: Newton iterations, each with its factorization
        assert!(sol.iterations >= 1);
        assert_eq!(recorder.counter("analog.dc.newton_iterations"), sol.iterations as u64);
        assert!(recorder.counter("analog.dc.jacobian_factorizations") >= 1);
        let residuals = recorder.histogram("analog.dc.residual_norm").unwrap();
        assert_eq!(residuals.count, 1);
        assert!(residuals.max <= DcOptions::default().residual_tolerance.value());
        let span = recorder.span_stats("analog.dc.solve").unwrap();
        assert_eq!(span.count, 1);
        assert!(recorder.warnings().is_empty());
    }

    #[test]
    fn profiled_solve_records_phase_paths() {
        let mut recorder = ppuf_telemetry::MemoryRecorder::new();
        let profiler = std::sync::Arc::new(ppuf_telemetry::Profiler::new());
        recorder.set_profiler(profiler.clone());
        // the cold solve iterates, so every phase below does real work
        let sol =
            fork().solve_dc_traced(0, 4, Volts(2.0), &DcOptions::default(), &recorder).unwrap();
        assert!(sol.iterations >= 1);
        let snap = profiler.snapshot();
        // a 3-unknown system resolves dense, so the LU subtree is
        // backend-tagged lu_dense
        for path in [
            "analog.dc.solve",
            "analog.dc.solve;stamp",
            "analog.dc.solve;stamp;device_eval",
            "analog.dc.solve;lu_dense",
            "analog.dc.solve;lu_dense;factor",
            "analog.dc.solve;lu_dense;back_substitute",
        ] {
            let stats = snap.get(path).unwrap_or_else(|| panic!("missing path {path}: {snap:?}"));
            assert_eq!(stats.count, 1, "{path}");
            assert!(stats.self_s >= 0.0, "{path}");
            assert!(stats.self_s <= stats.wall_s + 1e-12, "{path}");
        }
        assert_eq!(profiler.skew_clamps(), 0);
        // the phase children fit inside the solve's wall time
        let solve = &snap["analog.dc.solve"];
        let stamp = &snap["analog.dc.solve;stamp"];
        let lu = &snap["analog.dc.solve;lu_dense"];
        assert!(stamp.wall_s + lu.wall_s <= solve.wall_s + 1e-9);
    }

    #[test]
    fn nonconvergence_reports_worst_node_and_warns() {
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let c = fork();
        // a zero-iteration budget cannot converge from the cold start
        let options = DcOptions { max_iterations: 0, ..DcOptions::default() };
        let err = c.solve_dc_traced(0, 4, Volts(2.0), &options, &recorder).unwrap_err();
        match err {
            SolveError::NoConvergence { iterations, residual, worst_node } => {
                assert_eq!(iterations, 0);
                assert!(residual > 0.0);
                assert_eq!(worst_node, 1, "the start's largest residual is at node 1");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        assert_eq!(recorder.counter("analog.dc.nonconvergence"), 1);
        let warnings = recorder.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("worst at node 1"), "{warnings:?}");
    }

    #[test]
    fn residual_trace_is_captured_on_demand_and_decreasing() {
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let c = fork();

        // off by default: no event
        c.solve_dc_traced(0, 4, Volts(2.0), &DcOptions::default(), &recorder).unwrap();
        assert!(recorder.events().is_empty());

        let options = DcOptions { trace_residuals: true, ..DcOptions::default() };
        let sol = c.solve_dc_traced(0, 4, Volts(2.0), &options, &recorder).unwrap();
        let events = recorder.events();
        assert_eq!(events.len(), 1, "one residual-trace event per solve");
        let trace = &events[0];
        assert_eq!(trace.name, "analog.dc.residual_trace");
        // one entry per Newton iteration plus the pre-iteration residual
        assert!(trace.values.len() >= sol.iterations, "{trace:?}");
        let last = *trace.values.last().unwrap();
        assert!(last <= options.residual_tolerance.value(), "trajectory ends converged: {last}");
        assert!(trace.values[0] > last, "residual must shrink along the trajectory");
    }

    #[test]
    fn nonconvergent_solve_still_emits_its_residual_trace() {
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let c = fork();
        // a zero-iteration budget fails at once, leaving just the
        // pre-iteration residual in the trajectory
        let options =
            DcOptions { max_iterations: 0, trace_residuals: true, ..DcOptions::default() };
        let err = c.solve_dc_traced(0, 4, Volts(2.0), &options, &recorder).unwrap_err();
        assert!(matches!(err, SolveError::NoConvergence { .. }), "{err:?}");
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert!(!events[0].values.is_empty(), "the partial trajectory is the diagnostic");
    }

    #[test]
    fn no_path_gives_zero_current() {
        // edge pointing the wrong way: diode direction blocks everything
        let mut c = Circuit::new(2);
        c.add_element(1, 0, DirectedResistor::new(1e6)).unwrap();
        let sol = c.solve_dc(0, 1, Volts(2.0), &DcOptions::default()).unwrap();
        assert!(sol.source_current.value().abs() < 1e-12);
    }

    /// Five serial blocks in a chain, block `i` shifted by ΔVth =
    /// (0.01·i, −0.01·i, 0.005·i, 0) V. At 2 V a cold solve takes 7
    /// iterations.
    fn serial_chain() -> Circuit<BuildingBlock> {
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            let d = f64::from(i);
            let variation = BlockVariation {
                delta_vth: [Volts(0.01 * d), Volts(-0.01 * d), Volts(0.005 * d), Volts(0.0)],
            };
            let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE)
                .with_variation(variation);
            c.add_element(i, i + 1, block).unwrap();
        }
        c
    }

    #[test]
    fn cold_solve_is_one_newton_attempt_at_full_supply() {
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let options = DcOptions { trace_residuals: true, ..DcOptions::default() };
        let sol = serial_chain().solve_dc_traced(0, 5, Volts(2.0), &options, &recorder).unwrap();
        assert!(sol.iterations >= 1);
        // a single attempt: one pre-iteration residual, then one per
        // iteration
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].values.len(), sol.iterations + 1, "{:?}", events[0]);
        assert!(recorder.warnings().is_empty());
    }

    #[test]
    fn stalled_plain_newton_is_the_solves_failure() {
        // fewer iterations than the chain needs: nothing retries the solve
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let options = DcOptions { max_iterations: 4, ..DcOptions::default() };
        let err =
            serial_chain().solve_dc_traced(0, 5, Volts(2.0), &options, &recorder).unwrap_err();
        assert!(matches!(err, SolveError::NoConvergence { iterations: 4, .. }), "{err:?}");
        assert_eq!(recorder.counter("analog.dc.newton_iterations"), 4);
        assert_eq!(recorder.counter("analog.dc.nonconvergence"), 1);
        assert_eq!(recorder.warnings().len(), 1);
    }

    #[test]
    fn nan_element_current_is_never_a_converged_solve() {
        // s→a, a→t (NaN above 0.9 V) and a→b→t: the lumped start's search
        // reads NaN wherever a→t carries more than 0.9 V and settles at
        // 2/3 V; the operating point a = 0.8 V, b = 0.4 V is finite
        let mut c = Circuit::new(4);
        c.add_element(0, 1, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(1, 3, NanAbove(0.9)).unwrap();
        c.add_element(1, 2, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(2, 3, NanAbove(f64::INFINITY)).unwrap();
        let sol = c.solve_dc(0, 3, Volts(2.0), &DcOptions::default()).unwrap();
        assert!(sol.voltages.iter().all(|v| v.value().is_finite()), "{:?}", sol.voltages);
        assert!((sol.voltages[1].value() - 0.8).abs() < 1e-9, "{:?}", sol.voltages);
        assert!((sol.source_current.value() - 1.2e-6).abs() < 1e-15, "{}", sol.source_current);

        // s→a→t beside s→t (NaN above 1.5 V): the s→t element enters no
        // KCL residual, so only the source current shows its NaN
        let mut c = Circuit::new(3);
        c.add_element(0, 1, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(1, 2, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(0, 2, NanAbove(1.5)).unwrap();
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        match c.solve_dc_traced(0, 2, Volts(2.0), &DcOptions::default(), &recorder) {
            Err(SolveError::NoConvergence { residual, worst_node, .. }) => {
                assert_eq!(residual, f64::INFINITY);
                assert_eq!(worst_node, 0, "the source carries the NaN");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        assert_eq!(recorder.counter("analog.dc.nonconvergence"), 1);
    }

    #[test]
    fn nan_element_without_a_finite_point_is_an_error() {
        // in series at 2 V one of the two always carries more than 0.9 V
        let mut c = Circuit::new(3);
        c.add_element(0, 1, NanAbove(0.9)).unwrap();
        c.add_element(1, 2, NanAbove(0.9)).unwrap();
        match c.solve_dc(0, 2, Volts(2.0), &DcOptions::default()) {
            Err(SolveError::NoConvergence { residual, worst_node, .. }) => {
                assert_eq!(residual, f64::INFINITY);
                assert_eq!(worst_node, 1);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }
}
