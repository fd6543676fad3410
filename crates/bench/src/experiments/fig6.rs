//! Fig 6 — accuracy of the max-flow simulation model against the analog
//! execution, plus the §5 max-current variation figure.
//!
//! For each device size, Monte-Carlo device instances are executed
//! (nonlinear DC solve) and simulated (Dinic on the published capacities);
//! the inaccuracy is `|I_exe − I_sim| / I_exe` per network. The paper
//! reports < 1 % average inaccuracy and ≈ 9.27 % max-current variation at
//! 100 nodes. The full sweep also reaches the paper's n = 900 operating
//! point, at a few devices per size above 100 nodes.

use ppuf_analog::variation::Environment;
use ppuf_core::NetworkSide;
use ppuf_maxflow::{Dinic, MaxFlowSolver};

use crate::experiments::make_ppuf;
use crate::report::{mean, row, section, sig, stdev};
use crate::Scale;

/// Runs the Fig 6 experiment.
pub fn run(scale: Scale) {
    // (nodes, device instances): one n = 900 device takes seconds to set
    // up and execute, so the sizes past 100 nodes get a few devices each
    let sizes: Vec<(usize, usize)> = scale.pick(
        [10, 20, 30, 40].map(|n| (n, 8)).to_vec(),
        (1..=10).map(|i| (i * 10, 100)).chain([200, 400, 900].map(|n| (n, 5))).collect(),
    );
    section("Fig 6: simulation-model inaccuracy vs device size");
    row(&[
        format!("{:>6}", "nodes"),
        format!("{:>14}", "avg inaccuracy"),
        format!("{:>14}", "max inaccuracy"),
    ]);
    let solver = Dinic::new();
    // the paper's variation figure is at 100 nodes: keep the currents of
    // the largest size up to it
    let mut variation: Option<(usize, Vec<f64>)> = None;
    for &(n, instances) in &sizes {
        let grid = (n / 5).clamp(1, 8);
        let mut inaccuracies = Vec::new();
        let mut currents = Vec::new();
        for instance in 0..instances {
            let ppuf = make_ppuf(n, grid, 0x0600 + instance as u64);
            let mut rng = ppuf_analog::montecarlo::stream(0x0601, instance as u64);
            let challenge = ppuf.challenge_space().random(&mut rng);
            // the nominal executor's model is the published one
            let executor = ppuf.executor(Environment::NOMINAL);
            for side in NetworkSide::BOTH {
                let analog = match executor.execute_network(side, &challenge) {
                    Ok(i) => i.value(),
                    Err(e) => {
                        eprintln!("warning: execution failed (n={n}, instance {instance}): {e}");
                        continue;
                    }
                };
                let net = executor.model().flow_network(side, &challenge).expect("valid challenge");
                let sim = solver
                    .max_flow(&net, challenge.source, challenge.sink)
                    .expect("solvable")
                    .value();
                if analog > 0.0 {
                    inaccuracies.push((analog - sim).abs() / analog);
                    currents.push(analog);
                }
            }
        }
        row(&[
            format!("{n:>6}"),
            format!("{:>14}", sig(mean(&inaccuracies))),
            format!("{:>14}", sig(inaccuracies.iter().copied().fold(0.0, f64::max))),
        ]);
        if n <= 100 {
            variation = Some((n, currents));
        }
    }
    println!("\npaper: average inaccuracy < 1 %");
    if let Some((n, currents)) = variation.filter(|(_, currents)| !currents.is_empty()) {
        let rel = stdev(&currents) / mean(&currents);
        println!(
            "max-current variation at {n} nodes: {:.2} %  (paper: 9.27 % at 100 nodes)",
            100.0 * rel
        );
    }
}
