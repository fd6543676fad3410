//! Table 1 — statistical PUF-quality evaluation.
//!
//! Inter-class HD, intra-class HD (under ±10 % supply and −20…80 °C),
//! uniformity, and randomness for 40- and 100-node PPUF populations.

use ppuf_analog::montecarlo::stream;
use ppuf_analog::units::Celsius;
use ppuf_analog::variation::Environment;
use ppuf_core::batch::EvalBatch;
use ppuf_core::metrics::{MetricsReport, ResponseMatrix};
use ppuf_core::{Challenge, Ppuf};

use crate::experiments::make_ppuf;
use crate::report::section;
use crate::Scale;

/// Collects the response matrix of a device population at one condition in
/// a single batched evaluation (raw differential sign, so metastable
/// comparisons still yield a bit).
fn response_matrix(ppufs: &[Ppuf], env: Environment, challenges: &[Challenge]) -> ResponseMatrix {
    let executors: Vec<_> = ppufs.iter().map(|p| p.executor(env)).collect();
    let batch = EvalBatch::new(0);
    let results = batch.run(&executors, challenges);
    ResponseMatrix::new(
        (0..results.device_count())
            .map(|d| {
                results
                    .device_row(d)
                    .iter()
                    .map(|outcome| {
                        let out = outcome.as_ref().expect("solvable");
                        out.current_a.value() > out.current_b.value()
                    })
                    .collect()
            })
            .collect(),
    )
    .expect("well-formed matrix")
}

/// Runs the Table 1 experiment.
pub fn run(scale: Scale) {
    let sizes: Vec<usize> = scale.pick(vec![16], vec![40, 100]);
    let devices = scale.pick(10, 40);
    let challenge_count = scale.pick(48, 200);
    for &nodes in &sizes {
        let grid = 8.min(nodes);
        section(&format!(
            "Table 1: {nodes}-node PPUF ({devices} devices x {challenge_count} challenges)"
        ));
        let mut rng = stream(0x7AB1, nodes as u64);
        let space = make_ppuf(nodes, grid, 0).challenge_space();
        let challenges: Vec<Challenge> =
            (0..challenge_count).map(|_| space.random(&mut rng)).collect();
        let ppufs: Vec<Ppuf> =
            (0..devices).map(|i| make_ppuf(nodes, grid, 0x7AB2 + i as u64)).collect();
        let nominal = response_matrix(&ppufs, Environment::NOMINAL, &challenges);
        // paper's intra-class conditions: ±10 % supply, −20…80 °C
        let corners = [
            Environment::new(0.9, Celsius(-20.0)),
            Environment::new(0.9, Celsius(80.0)),
            Environment::new(1.1, Celsius(-20.0)),
            Environment::new(1.1, Celsius(80.0)),
        ];
        let perturbed: Vec<ResponseMatrix> =
            corners.iter().map(|&env| response_matrix(&ppufs, env, &challenges)).collect();
        let report = MetricsReport::evaluate(&nominal, &perturbed).expect("shapes match");
        print!("{report}");
        println!(
            "paper (40-node):  inter 0.5009±0.1371  intra 0.0673±0.1104  uniformity 0.4946±0.208  randomness 0.4946±0.0277"
        );
        println!(
            "paper (100-node): inter 0.4977±0.1075  intra 0.0853±0.1321  uniformity 0.4672±0.158  randomness 0.4672±0.0361"
        );
    }
}
