//! Fig 6 — accuracy of the max-flow simulation model against the analog
//! execution, plus the §5 max-current variation figure.
//!
//! For each device size, Monte-Carlo device instances are executed
//! (nonlinear DC solve) and simulated (Dinic on the published capacities);
//! the inaccuracy is `|I_exe − I_sim| / I_exe` per network. The paper
//! reports < 1 % average inaccuracy and ≈ 9.27 % max-current variation at
//! 100 nodes.

use ppuf_analog::variation::Environment;
use ppuf_core::NetworkSide;
use ppuf_maxflow::{Dinic, MaxFlowSolver};

use crate::experiments::make_ppuf;
use crate::report::{mean, row, section, sig, stdev};
use crate::Scale;

/// Runs the Fig 6 experiment.
pub fn run(scale: Scale) {
    let sizes: Vec<usize> = scale.pick(vec![10, 20, 30, 40], (1..=10).map(|i| i * 10).collect());
    let instances = scale.pick(8, 100);
    section("Fig 6: simulation-model inaccuracy vs device size");
    row(&[
        format!("{:>6}", "nodes"),
        format!("{:>14}", "avg inaccuracy"),
        format!("{:>14}", "max inaccuracy"),
    ]);
    let solver = Dinic::new();
    let mut last_currents: Vec<f64> = Vec::new();
    for &n in &sizes {
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
        last_currents = currents;
    }
    println!("\npaper: average inaccuracy < 1 %");
    if !last_currents.is_empty() {
        let rel = stdev(&last_currents) / mean(&last_currents);
        let n = sizes.last().unwrap();
        println!(
            "max-current variation at {n} nodes: {:.2} %  (paper: 9.27 % at 100 nodes)",
            100.0 * rel
        );
    }
}
