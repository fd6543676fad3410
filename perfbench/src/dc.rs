//! The native DC workload: cold solves of a paper-scale crossbar circuit
//! (`engine_profile::challenge_circuit`, every ordered node pair joined by
//! a `BuildingBlock`, 2 V across source and sink) through one
//! single-threaded [`DcEngine`], each checked against the Dinic max-flow
//! over the same circuit's characterized capacities.
//!
//! A cold solve's Newton iteration count depends on the circuit: across
//! ten random n = 200 crossbars it ranged from 13 to 24, and two n = 900
//! ones took 18 s and 32 s. Drawing a new crossbar per seed would swamp
//! any change to the solver, so every run solves the crossbar
//! `engine_bench` measures, with its node labels permuted by the seed:
//! a relabeled circuit is the same physics, so the work is the same
//! while the inputs still differ from seed to seed.

use std::sync::Arc;
use std::time::Instant;

use ppuf_analog::block::BuildingBlock;
use ppuf_analog::montecarlo::stream;
use ppuf_analog::solver::{Circuit, DcEngine, DcOptions, EngineOptions};
use ppuf_analog::units::Celsius;
use ppuf_bench::engine_profile::{challenge_circuit, device_variations, SUPPLY};
use ppuf_core::device::PpufConfig;
use ppuf_maxflow::{Dinic, FlowNetwork, MaxFlowSolver, NodeId};
use ppuf_telemetry::{MemoryRecorder, Profiler, Recorder, NOOP};
use rand::seq::SliceRandom;

use crate::measure::{peak_rss_mb, quantile, ratio, series, Outcome, Stamp};

/// Process-variation seed of the base crossbar (`engine_bench`'s, at n).
fn base_variation_seed(nodes: usize) -> u64 {
    0xE27 + nodes as u64
}

/// Challenge-bias seed of the base crossbar (`engine_bench`'s).
const BASE_CHALLENGE_SEED: u64 = 0xC0;

/// One DC workload's shape.
#[derive(Debug, Clone)]
pub struct DcSpec {
    /// Workload name.
    pub name: &'static str,
    /// Crossbar size `n`: `n(n−1)` edges.
    pub nodes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The paper-scale crossbar: 900 nodes, 809 100 edges.
pub const CROSSBAR_N900: DcSpec = DcSpec { name: "dc-crossbar-n900", nodes: 900, setups: 3 };

/// The Fig 6 budget: the solved source current may differ from the
/// max-flow over characterized capacities by at most this share.
const REFERENCE_TOLERANCE: f64 = 0.01;

/// A circuit ready to solve and the current it must reproduce.
#[derive(Debug)]
pub struct PreparedDc {
    /// The crossbar under one challenge's biases, relabeled by the seed.
    pub circuit: Circuit<BuildingBlock>,
    /// Terminals: the base crossbar's nodes 0 and `n − 1`, relabeled.
    pub source: u32,
    /// See `source`.
    pub sink: u32,
    /// Dinic max-flow over the characterized capacities, in amps.
    pub reference_a: f64,
    /// Seconds spent characterizing and solving the reference.
    pub reference_s: f64,
}

/// Builds the seed's relabeling of the base crossbar and its max-flow
/// reference.
///
/// # Errors
///
/// Returns a message when the circuit or the reference flow cannot be
/// built.
pub fn prepare(spec: &DcSpec, seed: u64) -> Result<PreparedDc, String> {
    let n = spec.nodes;
    let vars = device_variations(n, base_variation_seed(n));
    let base = challenge_circuit(n, &vars, BASE_CHALLENGE_SEED);
    let mut label: Vec<u32> = (0..n as u32).collect();
    label.shuffle(&mut stream(seed, 0));
    let mut circuit = Circuit::new(n);
    for edge in base.edges() {
        circuit
            .add_element(label[edge.from as usize], label[edge.to as usize], edge.element)
            .map_err(|e| e.to_string())?;
    }
    let (source, sink) = (label[0], label[n - 1]);
    let t = Instant::now();
    let reference_a = reference_current(&circuit, source, sink)?;
    Ok(PreparedDc { circuit, source, sink, reference_a, reference_s: t.elapsed().as_secs_f64() })
}

/// Max-flow from `source` to `sink` with every edge's capacity set to its
/// block's current at the device characterization voltage — what the
/// public model would publish for this circuit.
fn reference_current(
    circuit: &Circuit<BuildingBlock>,
    source: u32,
    sink: u32,
) -> Result<f64, String> {
    let n = circuit.node_count();
    let v_ref = PpufConfig::paper(n, 1).characterization_voltage;
    let mut net = FlowNetwork::new(n);
    for edge in circuit.edges() {
        let capacity = edge.element.characterized_capacity(v_ref, Celsius::NOMINAL).value();
        net.add_edge(NodeId::new(edge.from), NodeId::new(edge.to), capacity)
            .map_err(|e| e.to_string())?;
    }
    let flow = Dinic::new()
        .max_flow(&net, NodeId::new(source), NodeId::new(sink))
        .map_err(|e| e.to_string())?;
    Ok(flow.value())
}

/// Whether a solved source current matches the reference within
/// [`REFERENCE_TOLERANCE`].
fn current_ok(current_a: f64, reference_a: f64) -> bool {
    reference_a > 0.0 && ((current_a - reference_a) / reference_a).abs() <= REFERENCE_TOLERANCE
}

/// One timed cold solve.
#[derive(Debug, Clone, Copy)]
struct Solve {
    wall_s: f64,
    cpu_s: f64,
    iterations: usize,
    ok: bool,
}

/// Cold solves (a fresh engine each) within `seconds`, at least one;
/// each traced into `recorder`. Another solve starts only if one as long
/// as the last still fits, so a solve near `seconds` long runs once
/// whether the host is a little faster or slower.
fn solve_for(prepared: &PreparedDc, seconds: f64, recorder: &dyn Recorder) -> Vec<Solve> {
    let (source, sink) = (prepared.source, prepared.sink);
    let options = DcOptions::default();
    let phase = Stamp::now();
    let mut solves: Vec<Solve> = Vec::new();
    while solves
        .last()
        .is_none_or(|last| phase.wall_elapsed().as_secs_f64() + last.wall_s <= seconds)
    {
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..EngineOptions::default() });
        let start = Stamp::now();
        let result =
            engine.solve_traced(&prepared.circuit, source, sink, SUPPLY, &options, recorder);
        let (wall, cpu_s) = start.until(&Stamp::now());
        let (iterations, ok) = match &result {
            Ok(solution) => (
                solution.iterations,
                current_ok(solution.source_current.value(), prepared.reference_a),
            ),
            Err(_) => (0, false),
        };
        solves.push(Solve { wall_s: wall.as_secs_f64(), cpu_s, iterations, ok });
    }
    solves
}

/// Counts `solves` as attempted operations, and those that failed their
/// check as failed.
fn tally(outcome: &mut Outcome, solves: &[Solve]) {
    outcome.attempted += solves.len() as u64;
    outcome.failed += solves.iter().filter(|s| !s.ok).count() as u64;
}

/// Runs the DC workload (see [`crate::run`]).
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(spec: &DcSpec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    run_prepared(spec, seed, seconds, trace, |_| {})
}

/// [`run`] with a hook that may alter the prepared circuit and reference
/// before solving — the self-tests use it to plant a wrong reference and
/// check that the run counts the solve as failed.
///
/// # Errors
///
/// As [`run`].
pub fn run_prepared(
    spec: &DcSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    alter: impl FnOnce(&mut PreparedDc),
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut reference_s = Vec::with_capacity(spec.setups);
    let mut prepared = None;
    for _ in 0..spec.setups.max(1) {
        drop(prepared.take()); // free the previous circuit before building the next
        let start = Instant::now();
        let built = prepare(spec, seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        reference_s.push(built.reference_s);
        prepared = Some(built);
    }
    let mut prepared = prepared.expect("at least one set-up ran");
    alter(&mut prepared);

    let mut outcome = Outcome::default();
    let untraced = solve_for(&prepared, seconds, &NOOP);
    tally(&mut outcome, &untraced);
    let walls = |solves: &[Solve]| series(solves.iter().map(|s| s.wall_s));

    if trace {
        let profiler = Arc::new(Profiler::new());
        let mut recorder = MemoryRecorder::new();
        recorder.set_profiler(Arc::clone(&profiler));
        let traced = solve_for(&prepared, seconds, &recorder);
        tally(&mut outcome, &traced);
        let solves = traced.len() as f64;
        let profile = profiler.snapshot();
        let wall = |path: &str| profile.get(path).map_or(0.0, |s| s.wall_s);
        let both = |leaf: &str| {
            (wall(&format!("analog.dc.solve;lu_dense;{leaf}"))
                + wall(&format!("analog.dc.solve;lu_sparse;{leaf}")))
                / solves
        };
        let device_eval_s = wall("analog.dc.solve;stamp;device_eval") / solves;
        let stamp_self_s = profile.get("analog.dc.solve;stamp").map_or(0.0, |s| s.self_s) / solves;
        let iterations = traced.iter().map(|s| s.iterations as f64).sum::<f64>() / solves;
        let edges = prepared.circuit.edges().len() as f64;
        let mean_wall = traced.iter().map(|s| s.wall_s).sum::<f64>() / solves;
        outcome.set("trace.operations", solves);
        let median_wall = |solves: &[Solve]| quantile(&walls(solves), 0.5);
        outcome.set("trace.overhead_ratio", ratio(median_wall(&traced), median_wall(&untraced)));
        outcome.set("setup.reference_s", quantile(&series(reference_s.into_iter()), 0.5));
        outcome.set("dc.device_eval_s", device_eval_s);
        outcome.set("dc.stamp_s", stamp_self_s);
        outcome.set("dc.factor_s", both("factor"));
        outcome.set("dc.back_substitute_s", both("back_substitute"));
        outcome.set("dc.newton_iterations", iterations);
        outcome.set(
            "dc.factorizations",
            recorder.counter("analog.dc.jacobian_factorizations") as f64 / solves,
        );
        outcome.set("dc.eval_ns_per_edge_iter", ratio(device_eval_s * 1e9, iterations * edges));
        outcome.set("dc.device_eval_share", ratio(device_eval_s, mean_wall));
    } else {
        let solves = untraced.len() as f64;
        let solve_walls = walls(&untraced);
        let total_wall: f64 = untraced.iter().map(|s| s.wall_s).sum();
        let total_cpu: f64 = untraced.iter().map(|s| s.cpu_s).sum();
        outcome.set("setup_s", quantile(&series(setup_s.into_iter()), 0.5));
        outcome.set("round_p50_ms", quantile(&solve_walls, 0.5) * 1e3);
        outcome.set("round_p90_ms", quantile(&solve_walls, 0.9) * 1e3);
        outcome.set("rounds_per_s", ratio(solves, total_wall));
        outcome.set("solve_s", quantile(&solve_walls, 0.5));
        outcome.set("cpu_ms", ratio(total_cpu * 1e3, solves));
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_check_applies_the_fig6_budget() {
        assert!(current_ok(1.0e-3, 1.0e-3));
        assert!(current_ok(1.0095e-3, 1.0e-3));
        assert!(!current_ok(1.011e-3, 1.0e-3));
        assert!(!current_ok(0.0, 0.0));
    }
}
