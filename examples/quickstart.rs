//! Quickstart: fabricate a PPUF, publish its model, answer a challenge
//! both ways (chip execution vs public simulation), and verify they agree.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use maxflow_ppuf::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), PpufError> {
    // 1. "Fabricate" a 20-node PPUF: two nominally identical crossbars
    //    whose transistors differ by N(0, 35 mV) threshold variation.
    let ppuf = Ppuf::generate(PpufConfig::paper(20, 4), 2016)?;
    println!(
        "fabricated a {}-node PPUF ({} building blocks per network)",
        ppuf.nodes(),
        ppuf.nodes() * (ppuf.nodes() - 1)
    );

    // 2. Characterize and publish the simulation model. This is a *public*
    //    PUF: the model hides nothing; security rests only on the
    //    execution–simulation time gap. The chip at nominal conditions
    //    is characterized by the same numbers, so one characterization
    //    serves both.
    let executor = ppuf.executor(Environment::NOMINAL);
    let model = executor.model();
    println!("published capacities for both networks (bit 0 and bit 1)");

    // 3. Draw a random challenge: source/sink selection plus one control
    //    bit per grid cell.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let challenge = ppuf.challenge_space().random(&mut rng);
    println!(
        "challenge: source {}, sink {}, {} control bits",
        challenge.source,
        challenge.sink,
        challenge.control_bits.len()
    );

    // 4. The holder runs the chip (here: the analog DC solve).
    let execution = executor.execute(&challenge)?;
    println!(
        "execution:  I_A = {}, I_B = {}, response = {:?}",
        execution.current_a, execution.current_b, execution.response
    );

    // 5. Anyone else must solve two max-flow problems on the public model.
    let simulation = model.simulate(&challenge, &Dinic::new())?;
    println!(
        "simulation: I_A = {}, I_B = {}, response = {:?}",
        simulation.current_a, simulation.current_b, simulation.response
    );

    // 6. The two agree (Fig 6: < 1 % model inaccuracy)…
    let inaccuracy = (execution.current_a.value() - simulation.current_a.value()).abs()
        / execution.current_a.value();
    println!("network-A model inaccuracy: {:.4} %", 100.0 * inaccuracy);
    assert_eq!(execution.response, simulation.response);

    // 7. …and the max-flow answer carries its own optimality certificate.
    let net = model.flow_network(NetworkSide::A, &challenge)?;
    let residual = ResidualGraph::new(&net, &simulation.flow_a, 1e-12)?;
    assert!(residual.certifies_max_flow());
    let cut = MinCut::from_max_flow(&net, &simulation.flow_a, 1e-12)?;
    println!(
        "min-cut certificate: |cut| = {} edges, capacity = {:.3e} A (= flow value)",
        cut.cut_edges.len(),
        cut.capacity
    );
    Ok(())
}
