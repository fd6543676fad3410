//! Thread-aware DC solve engine.
//!
//! A [`DcEngine`] owns a [`DcWorkspace`], so a stream of solves — challenge
//! after challenge, Monte-Carlo instances differing only by ΔVth draws —
//! pays neither the per-iteration allocations nor, on the sparse backend,
//! a second symbolic analysis of the same circuit shape. Every solve is
//! cold: plain Newton at full supply from the lumped start, exactly as
//! [`Circuit::solve_dc`] runs it.

use ppuf_telemetry::{Recorder, NOOP};

use crate::block::TwoTerminal;
use crate::solver::dc::{Circuit, DcOptions, DcSolution, SolveError};
use crate::solver::workspace::{DcWorkspace, LinearBackend, SparseStats};
use crate::units::Volts;

/// Tuning knobs for a [`DcEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOptions {
    /// Worker threads for stamping and LU trailing updates; `0` resolves
    /// to [`std::thread::available_parallelism`]. Results are bitwise
    /// identical for every value.
    pub threads: usize,
}

/// Reusable DC solve engine: a workspace plus a resolved thread count.
///
/// One engine serves one stream of solves; it is cheap enough to create
/// per device instance. See the module docs for what it reuses.
#[derive(Debug)]
pub struct DcEngine {
    threads: usize,
    ws: DcWorkspace,
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
        DcEngine { threads, ws: DcWorkspace::new() }
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// Solves for the DC operating point like [`Circuit::solve_dc`],
    /// reusing this engine's buffers.
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
    /// [`Circuit::solve_dc_traced`] emits, plus the `analog.engine.threads`
    /// histogram and the `analog.dc.stamp` / `analog.dc.lu` spans showing
    /// where the solve time goes.
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
        circuit.solve_dc_core(source, sink, vs, options, recorder, &mut self.ws, self.threads)
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
        let mut engine = DcEngine::new(EngineOptions { threads: 1 });
        let first = engine.solve(&c, 0, 2, Volts(2.0), &opts).unwrap();
        let second = engine.solve(&c, 0, 2, Volts(2.0), &opts).unwrap();
        for sol in [&first, &second] {
            assert!((sol.voltages[1].value() - cold.voltages[1].value()).abs() < 1e-9);
            assert!(sol.residual.value() <= opts.residual_tolerance.value());
        }
    }

    #[test]
    fn repeat_solves_are_cold() {
        let recorder = MemoryRecorder::new();
        let c = fork();
        let opts = DcOptions::default();
        let mut engine = DcEngine::new(EngineOptions { threads: 1 });
        let first = engine.solve_traced(&c, 0, 4, Volts(2.0), &opts, &recorder).unwrap();
        let second = engine.solve_traced(&c, 0, 4, Volts(2.0), &opts, &recorder).unwrap();
        // both ran the full cold solve; a start at the first answer would
        // need no iteration at all
        assert!(first.iterations >= 1);
        assert_eq!(second, first);
        assert_eq!(first, c.solve_dc(0, 4, Volts(2.0), &opts).unwrap());
        assert_eq!(recorder.counter("analog.dc.newton_iterations"), 2 * first.iterations as u64);
        assert_eq!(recorder.histogram("analog.engine.threads").unwrap().count, 2);
        assert_eq!(recorder.span_stats("analog.dc.stamp").unwrap().count, 2);
        assert_eq!(recorder.span_stats("analog.dc.lu").unwrap().count, 2);
    }

    #[test]
    fn terminal_swap_matches_cold_solver() {
        let c = divider(1e6, 1e6);
        let opts = DcOptions::default();
        let mut engine = DcEngine::new(EngineOptions { threads: 1 });
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
    fn zero_threads_resolves_to_machine_parallelism() {
        let engine = DcEngine::new(EngineOptions::default());
        assert!(engine.threads() >= 1);
    }
}
