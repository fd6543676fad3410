//! End-to-end integration: device ↔ public model ↔ protocols, spanning
//! all four crates through the facade.

use maxflow_ppuf::core::protocol::{feedback, prove, Verifier};
use maxflow_ppuf::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn device(nodes: usize, grid: usize, seed: u64) -> Ppuf {
    Ppuf::generate(PpufConfig::paper(nodes, grid), seed).expect("valid configuration")
}

#[test]
fn device_and_public_model_agree_on_responses() {
    let ppuf = device(12, 3, 1);
    let model = ppuf.public_model().expect("publishable");
    let executor = ppuf.executor(Environment::NOMINAL);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut checked = 0;
    for _ in 0..25 {
        let challenge = ppuf.challenge_space().random(&mut rng);
        let dev = executor.execute_flow(&challenge).expect("device answers");
        let sim = model.simulate(&challenge, &Dinic::new()).expect("model answers");
        assert_eq!(dev.response, sim.response, "challenge {challenge:?}");
        checked += 1;
    }
    assert_eq!(checked, 25);
}

#[test]
fn analog_execution_matches_simulation_within_one_percent() {
    // the Fig 6 claim as an integration invariant
    let ppuf = device(10, 2, 3);
    let model = ppuf.public_model().expect("publishable");
    let executor = ppuf.executor(Environment::NOMINAL);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for _ in 0..5 {
        let challenge = ppuf.challenge_space().random(&mut rng);
        for side in NetworkSide::BOTH {
            let analog =
                executor.execute_network(side, &challenge).expect("analog converges").value();
            let net = model.flow_network(side, &challenge).expect("valid");
            let flow = Dinic::new()
                .max_flow(&net, challenge.source, challenge.sink)
                .expect("solvable")
                .value();
            assert!(
                (analog - flow).abs() / analog < 0.01,
                "{side:?}: analog {analog} vs max-flow {flow}"
            );
        }
    }
}

#[test]
fn all_solvers_agree_on_ppuf_instances() {
    let ppuf = device(9, 3, 5);
    let executor = ppuf.executor(Environment::NOMINAL);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let challenge = ppuf.challenge_space().random(&mut rng);
    let net = executor.flow_network(NetworkSide::A, &challenge).expect("valid challenge");
    let (s, t) = (challenge.source, challenge.sink);
    let dinic = Dinic::new().max_flow(&net, s, t).expect("solves").value();
    let ek = EdmondsKarp::new().max_flow(&net, s, t).expect("solves").value();
    let pr = PushRelabel::new().max_flow(&net, s, t).expect("solves").value();
    for (name, v) in [("edmonds-karp", ek), ("push-relabel", pr)] {
        assert!((v - dinic).abs() < 1e-12, "{name}: {v} vs dinic {dinic}");
    }
}

#[test]
fn approximation_error_bound_exceeds_the_response_margin() {
    // the paper's argument for bounding the ESG over approximate
    // algorithms: the comparator decides on an |I_A − I_B| margin that is
    // *smaller* than the ε-approximation slack, so an ε-approximate
    // attacker cannot guarantee the response bit — it must solve (nearly)
    // exactly. An ε-approximate value may sit anywhere in
    // [OPT/(1+ε), OPT], so it suffices to show, on exact flows, that the
    // ε band swallows the margin.
    let ppuf = device(12, 3, 7);
    let model = ppuf.public_model().expect("publishable");
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let exact = Dinic::new();
    let eps = 0.2;
    let mut margin_inside_band = 0;
    for _ in 0..20 {
        let challenge = ppuf.challenge_space().random(&mut rng);
        let e = model.simulate(&challenge, &exact).expect("solves");
        let margin = (e.current_a.value() - e.current_b.value()).abs();
        let band = eps * e.current_a.value().max(e.current_b.value());
        if margin < band {
            margin_inside_band += 1;
        }
    }
    assert!(
        margin_inside_band > 10,
        "the ε band should swallow most response margins, got {margin_inside_band}/20"
    );
}

#[test]
fn authentication_accepts_device_rejects_forgery() {
    let ppuf = device(10, 2, 9);
    let model = ppuf.public_model().expect("publishable");
    let executor = ppuf.executor(Environment::NOMINAL);
    let verifier = Verifier::new(model);
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    for _ in 0..5 {
        let challenge = ppuf.challenge_space().random(&mut rng);
        let answer = prove(&executor, &challenge).expect("device proves");
        let report = verifier.verify(&challenge, &answer).expect("verifies");
        assert!(report.accepted());
        let mut forged = answer;
        forged.response = !forged.response;
        assert!(!verifier.verify(&challenge, &forged).expect("verifies").accepted());
    }
}

#[test]
fn feedback_chain_device_vs_model() {
    let ppuf = device(10, 2, 11);
    let model = ppuf.public_model().expect("publishable");
    let executor = ppuf.executor(Environment::NOMINAL);
    let space = ppuf.challenge_space();
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let first = space.random(&mut rng);
    let chain =
        feedback::run_chain(&space, first.clone(), 6, |c| executor.response(c)).expect("runs");
    assert_eq!(chain.len(), 6);
    // the public model replays the whole chain successfully (Fig 6
    // equivalence transfers to chained responses)
    let ok =
        feedback::verify_chain(&space, &first, &chain, |c| model.response(c)).expect("replays");
    assert!(ok);
}

#[test]
fn environment_variation_flips_few_bits() {
    // intra-class stability: across the paper's environment corners the
    // response vector changes in only a small fraction of positions
    let ppuf = device(12, 3, 13);
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let challenges: Vec<Challenge> =
        (0..40).map(|_| ppuf.challenge_space().random(&mut rng)).collect();
    let bits = |env: Environment| -> Vec<bool> {
        let executor = ppuf.executor(env);
        challenges
            .iter()
            .map(|c| {
                let out = executor.execute_flow(c).expect("solves");
                out.current_a.value() > out.current_b.value()
            })
            .collect()
    };
    let nominal = bits(Environment::NOMINAL);
    let hot = bits(Environment::new(1.1, Celsius(80.0)));
    let flips = nominal.iter().zip(&hot).filter(|(a, b)| a != b).count();
    assert!(
        flips * 4 <= challenges.len(),
        "intra-class flips too high: {flips}/{}",
        challenges.len()
    );
}

#[test]
fn different_devices_disagree_on_many_bits() {
    // inter-class uniqueness across independently fabricated devices
    let a = device(12, 3, 100);
    let b = device(12, 3, 101);
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let space = a.challenge_space();
    let challenges: Vec<Challenge> = (0..60).map(|_| space.random(&mut rng)).collect();
    let exec_a = a.executor(Environment::NOMINAL);
    let exec_b = b.executor(Environment::NOMINAL);
    let mut distance = 0;
    for c in &challenges {
        let ra = exec_a.execute_flow(c).expect("solves");
        let rb = exec_b.execute_flow(c).expect("solves");
        if (ra.current_a.value() > ra.current_b.value())
            != (rb.current_a.value() > rb.current_b.value())
        {
            distance += 1;
        }
    }
    let frac = distance as f64 / challenges.len() as f64;
    assert!((0.25..=0.75).contains(&frac), "inter-class HD {frac}");
}
