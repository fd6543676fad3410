//! Authentication session: honest prover vs simulating attacker.
//!
//! The verifier holds only the public model. It issues a challenge, takes
//! the answer with its flow functions, and verifies in `O(n²/p)` — never
//! solving max-flow itself. A response deadline separates the chip (which
//! settles in `O(n)`) from an attacker (who must simulate in `Ω(n²)`).
//! The feedback loop (§3.3) then amplifies that separation `k`-fold.
//!
//! ```sh
//! cargo run --release --example authentication
//! ```

use std::time::Instant;

use maxflow_ppuf::core::protocol::{auth, feedback};
use maxflow_ppuf::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), PpufError> {
    let ppuf = Ppuf::generate(PpufConfig::paper(16, 4), 7)?;
    let model = ppuf.public_model()?;
    let executor = ppuf.executor(Environment::NOMINAL);
    let mut rng = ChaCha8Rng::seed_from_u64(99);

    // --- single-round authentication -------------------------------
    let challenge = ppuf.challenge_space().random(&mut rng);
    let verifier = Verifier::new(model.clone());

    // honest prover: asks the chip
    let started = Instant::now();
    let answer = prove(&executor, &challenge)?;
    let elapsed = started.elapsed();
    let report = verifier.verify(&challenge, &answer)?;
    println!("honest prover answered in {elapsed:?}");
    println!(
        "verifier: feasible A/B = {}/{}, maximal A/B = {}/{}, response consistent = {}",
        report.network_a.feasible,
        report.network_b.feasible,
        report.network_a.maximal,
        report.network_b.maximal,
        report.response_consistent
    );
    assert!(report.accepted());

    // cheating prover: claims a lazy (zero) flow for network A
    let mut lazy = answer.clone();
    let net_a = model.flow_network(NetworkSide::A, &challenge)?;
    lazy.flow_a = Flow::zero(&net_a, challenge.source, challenge.sink);
    let rejected = verifier.verify(&challenge, &lazy)?;
    println!(
        "lazy prover rejected: maximal A = {} (accepted = {})",
        rejected.network_a.maximal,
        rejected.accepted()
    );
    assert!(!rejected.accepted());

    // --- feedback-loop amplification --------------------------------
    let k = 8;
    let space = ppuf.challenge_space();
    let first = space.random(&mut rng);
    let device_chain = feedback::run_chain(&space, first.clone(), k, |c| executor.response(c))?;
    println!(
        "\nfeedback chain of k = {k} rounds, final response R_k = {}",
        device_chain.final_response().expect("non-empty chain")
    );
    // the verifier replays the chain against the public model, paying k
    // simulations — exactly the k× gap amplification
    let replay_started = Instant::now();
    let valid = feedback::verify_chain(&space, &first, &device_chain, |c| model.response(c))?;
    println!("verifier replayed the chain in {:?}: valid = {valid}", replay_started.elapsed());
    assert!(valid);

    // a forged chain (tampered round) fails
    let mut forged = device_chain.clone();
    forged.rounds[3].1 = !forged.rounds[3].1;
    assert!(!feedback::verify_chain(&space, &first, &forged, |c| model.response(c))?);
    println!("tampered chain rejected");

    // --- deadline enforcement ---------------------------------------
    let deadline_verifier = Verifier::new(model).with_deadline(Seconds(0.5));
    let timely = deadline_verifier.verify_timed(
        &challenge,
        &answer,
        Some(Seconds(elapsed.as_secs_f64())),
    )?;
    let too_slow = deadline_verifier.verify_timed(&challenge, &answer, Some(Seconds(3.0)))?;
    println!(
        "\ndeadline check: timely accepted = {}, slow (simulating attacker) accepted = {}",
        timely.accepted(),
        too_slow.accepted()
    );
    assert!(timely.accepted() && !too_slow.accepted());
    let _ = auth::VERIFY_TOLERANCE; // re-exported constant, see docs

    // --- the whole thing as one session -----------------------------
    use maxflow_ppuf::core::protocol::session::{
        AuthenticationSession, SessionConfig, SessionOutcome,
    };
    let session = AuthenticationSession::new(
        ppuf.public_model()?,
        SessionConfig { rounds: 2, feedback_rounds: 5, ..Default::default() },
    );
    match session.run(&executor, &mut rng)? {
        SessionOutcome::Accepted { round_times, chain_time } => {
            println!(
                "\nfull session accepted: {} rounds ({:?} each avg) + 5-round chain in {chain_time}",
                round_times.len(),
                round_times
                    .iter()
                    .map(|t| t.value())
                    .sum::<f64>()
                    / round_times.len().max(1) as f64
            );
        }
        rejected => panic!("honest device rejected: {rejected:?}"),
    }
    Ok(())
}
