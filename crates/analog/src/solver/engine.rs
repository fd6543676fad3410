//! Warm-started, thread-aware DC solve engine.
//!
//! A [`DcEngine`] owns a [`DcWorkspace`] and the previous operating point,
//! so a stream of related solves — transient steps, Monte-Carlo instances
//! differing only by ΔVth draws, per-challenge re-solves differing only in
//! source/sink selection — pays neither the per-iteration allocations nor
//! a cold start: each solve first retries Newton from the last converged
//! voltages at full tolerance and only falls back to a cold solve (plain
//! Newton at full supply from the lumped start) when that budget runs out.

use ppuf_telemetry::{Recorder, NOOP};

use crate::block::TwoTerminal;
use crate::solver::dc::{Circuit, DcOptions, DcSolution, SolveError};
use crate::solver::workspace::{DcWorkspace, LinearBackend, SparseStats};
use crate::units::Volts;

/// Tuning knobs for a [`DcEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads for stamping and LU trailing updates; `0` resolves
    /// to [`std::thread::available_parallelism`]. Results are bitwise
    /// identical for every value.
    pub threads: usize,
    /// Whether to try the previous operating point before a cold solve
    /// (plain Newton at full supply from the lumped start).
    pub warm_start: bool,
    /// Newton iteration budget for a warm attempt before giving up and
    /// re-solving cold. Warm hits typically converge in a handful of
    /// iterations; a stale point burns at most this many.
    pub warm_iteration_limit: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { threads: 0, warm_start: true, warm_iteration_limit: 48 }
    }
}

/// Reusable DC solve engine: buffers + warm state + thread pool sizing.
///
/// One engine serves one stream of related solves; it is cheap enough to
/// create per device instance. See the module docs for what it reuses.
#[derive(Debug, Default)]
pub struct DcEngine {
    options: EngineOptions,
    threads: usize,
    ws: DcWorkspace,
    warm: Vec<Volts>,
}

impl DcEngine {
    /// Creates an engine; resolves `options.threads == 0` to the machine's
    /// available parallelism.
    pub fn new(options: EngineOptions) -> Self {
        let threads = if options.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            options.threads
        };
        DcEngine { options, threads, ws: DcWorkspace::new(), warm: Vec::new() }
    }

    /// The options the engine was built with.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a previous operating point is available for warm starting.
    pub fn has_warm_state(&self) -> bool {
        !self.warm.is_empty()
    }

    /// The linear backend the most recent solve's binding resolved to
    /// ([`LinearBackend::DenseBlocked`] or [`LinearBackend::Sparse`],
    /// never `Auto`); `DenseBlocked` before any solve.
    pub fn resolved_backend(&self) -> LinearBackend {
        if self.ws.sparse_resolved() {
            LinearBackend::Sparse
        } else {
            LinearBackend::DenseBlocked
        }
    }

    /// Work snapshot of the sparse backend across this engine's solves,
    /// or `None` while the binding resolves dense.
    pub fn sparse_stats(&self) -> Option<SparseStats> {
        self.ws.sparse_stats()
    }

    /// Drops the warm state, forcing the next solve to run cold. Call when
    /// switching to an unrelated circuit (the workspace itself rebinds
    /// automatically).
    pub fn reset(&mut self) {
        self.warm.clear();
    }

    /// Solves for the DC operating point like
    /// [`Circuit::solve_dc`], reusing this engine's buffers and warm state.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::solve_dc`].
    pub fn solve<E: TwoTerminal + Sync>(
        &mut self,
        circuit: &Circuit<E>,
        source: u32,
        sink: u32,
        vs: Volts,
        options: &DcOptions,
    ) -> Result<DcSolution, SolveError> {
        self.solve_traced(circuit, source, sink, vs, options, &NOOP)
    }

    /// [`solve`](Self::solve) with telemetry: everything
    /// [`Circuit::solve_dc_traced`] emits, plus
    /// `analog.dc.warm_start_hits` / `analog.dc.warm_start_misses`
    /// counters, the `analog.engine.threads` histogram, and the
    /// `analog.dc.stamp` / `analog.dc.lu` spans showing where the solve
    /// time goes.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::solve_dc`].
    pub fn solve_traced<E: TwoTerminal + Sync>(
        &mut self,
        circuit: &Circuit<E>,
        source: u32,
        sink: u32,
        vs: Volts,
        options: &DcOptions,
        recorder: &dyn Recorder,
    ) -> Result<DcSolution, SolveError> {
        recorder.observe("analog.engine.threads", self.threads as f64);
        let warm = if self.options.warm_start && self.warm.len() == circuit.node_count() {
            Some(self.warm.as_slice())
        } else {
            None
        };
        let attempted = warm.is_some();
        let outcome = circuit.solve_dc_core(
            source,
            sink,
            vs,
            options,
            recorder,
            &mut self.ws,
            self.threads,
            warm,
            self.options.warm_iteration_limit,
        );
        match outcome {
            Ok((solution, warm_hit)) => {
                if warm_hit {
                    recorder.counter_add("analog.dc.warm_start_hits", 1);
                } else if attempted {
                    recorder.counter_add("analog.dc.warm_start_misses", 1);
                }
                self.warm.clear();
                self.warm.extend_from_slice(&solution.voltages);
                Ok(solution)
            }
            Err(err) => {
                if attempted {
                    recorder.counter_add("analog.dc.warm_start_misses", 1);
                }
                // a failed solve leaves no trustworthy operating point
                self.warm.clear();
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::test_circuits::{divider, fork};
    use ppuf_telemetry::MemoryRecorder;

    #[test]
    fn engine_matches_cold_solver() {
        let c = divider(1e6, 1e6);
        let opts = DcOptions::default();
        let cold = c.solve_dc(0, 2, Volts(2.0), &opts).unwrap();
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..Default::default() });
        let first = engine.solve(&c, 0, 2, Volts(2.0), &opts).unwrap();
        let second = engine.solve(&c, 0, 2, Volts(2.0), &opts).unwrap();
        for sol in [&first, &second] {
            assert!((sol.voltages[1].value() - cold.voltages[1].value()).abs() < 1e-9);
            assert!(sol.residual.value() <= opts.residual_tolerance.value());
        }
        assert!(engine.has_warm_state());
    }

    #[test]
    fn warm_start_hits_are_counted_and_cheaper() {
        let recorder = MemoryRecorder::new();
        let c = fork();
        let opts = DcOptions::default();
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..Default::default() });
        let first = engine.solve_traced(&c, 0, 4, Volts(2.0), &opts, &recorder).unwrap();
        assert_eq!(recorder.counter("analog.dc.warm_start_hits"), 0);
        let second = engine.solve_traced(&c, 0, 4, Volts(2.0), &opts, &recorder).unwrap();
        assert_eq!(recorder.counter("analog.dc.warm_start_hits"), 1);
        assert_eq!(recorder.counter("analog.dc.warm_start_misses"), 0);
        // a warm repeat starts at its answer; the cold first solve iterates
        assert!(second.iterations < first.iterations, "{second:?} vs {first:?}");
        assert!(recorder.histogram("analog.engine.threads").unwrap().count >= 2);
        assert!(recorder.span_stats("analog.dc.stamp").unwrap().count >= 2);
        assert!(recorder.span_stats("analog.dc.lu").unwrap().count >= 2);
    }

    #[test]
    fn warm_start_survives_terminal_swap() {
        let c = divider(1e6, 1e6);
        let opts = DcOptions::default();
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..Default::default() });
        engine.solve(&c, 0, 2, Volts(2.0), &opts).unwrap();
        // sink becomes the internal node: unknown set changes shape
        let swapped = engine.solve(&c, 0, 1, Volts(2.0), &opts).unwrap();
        let cold = c.solve_dc(0, 1, Volts(2.0), &DcOptions::default()).unwrap();
        assert!(
            (swapped.source_current.value() - cold.source_current.value()).abs() < 1e-12,
            "engine {} vs cold {}",
            swapped.source_current.value(),
            cold.source_current.value()
        );
    }

    #[test]
    fn disabled_warm_start_never_attempts() {
        let recorder = MemoryRecorder::new();
        let c = fork();
        let opts = DcOptions::default();
        let mut engine =
            DcEngine::new(EngineOptions { threads: 1, warm_start: false, ..Default::default() });
        let first = engine.solve_traced(&c, 0, 4, Volts(2.0), &opts, &recorder).unwrap();
        let second = engine.solve_traced(&c, 0, 4, Volts(2.0), &opts, &recorder).unwrap();
        assert_eq!(recorder.counter("analog.dc.warm_start_hits"), 0);
        assert_eq!(recorder.counter("analog.dc.warm_start_misses"), 0);
        // both ran the full cold solve; a warm repeat would need none
        assert!(first.iterations >= 1);
        assert_eq!(second.iterations, first.iterations);
        assert_eq!(recorder.counter("analog.dc.newton_iterations"), 2 * first.iterations as u64);
    }

    #[test]
    fn errors_clear_warm_state() {
        let c = divider(1e6, 1e6);
        let opts = DcOptions::default();
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..Default::default() });
        engine.solve(&c, 0, 2, Volts(2.0), &opts).unwrap();
        assert!(engine.has_warm_state());
        assert!(matches!(engine.solve(&c, 0, 0, Volts(2.0), &opts), Err(SolveError::SourceIsSink)));
        assert!(!engine.has_warm_state());
        engine.reset();
        assert!(!engine.has_warm_state());
    }

    #[test]
    fn zero_threads_resolves_to_machine_parallelism() {
        let engine = DcEngine::new(EngineOptions::default());
        assert!(engine.threads() >= 1);
        assert_eq!(engine.options().warm_iteration_limit, 48);
    }
}
