//! The verifier's single pass over the answer must reach the verdict the
//! graph path reaches: [`Flow::check_feasible`] on
//! [`PublicModel::flow_network`] for feasibility, and the sink's
//! reachability in a [`ResidualGraph`] for maximality. Random paper-style
//! devices get honest, scaled, nudged, poisoned and re-targeted answers,
//! each checked at the default tolerance and at a tightened one.

use proptest::prelude::*;

use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{NetworkVerdict, ProverAnswer, Verifier, VERIFY_TOLERANCE};
use ppuf_core::public_model::{NetworkSide, PublicModel};
use ppuf_core::{Challenge, PpufError};
use ppuf_maxflow::{Dinic, Flow, NodeId, ResidualGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One network's verdict by way of the built graphs, with the verifier's
/// rule that a flow between other terminals proves nothing.
fn graph_verdict(
    model: &PublicModel,
    side: NetworkSide,
    challenge: &Challenge,
    flow: &Flow,
    tol: f64,
) -> Result<NetworkVerdict, PpufError> {
    if (flow.source(), flow.sink()) != (challenge.source, challenge.sink) {
        return Ok(NetworkVerdict { feasible: false, maximal: false });
    }
    let net = model.flow_network(side, challenge)?;
    let feasible = flow.check_feasible(&net, tol)?.is_feasible();
    let residual = ResidualGraph::new(&net, flow, tol)?;
    Ok(NetworkVerdict {
        feasible,
        maximal: !residual.is_reachable(challenge.source, challenge.sink),
    })
}

/// How the prover's honest flow is altered before it is sent.
#[derive(Debug, Clone, Copy)]
enum Alteration {
    Honest,
    /// Every edge flow and the value times this factor.
    Scaled(f64),
    /// One edge flow moved by this many tolerances.
    Nudged(f64),
    /// One edge flow replaced by NaN, +∞, −∞ or −2·tol, in that order.
    Poisoned(usize),
    /// The value moved by this many tolerances, or made NaN when zero.
    Value(f64),
    /// Source and sink exchanged.
    Swapped,
    /// The source moved to another node, or far out of range.
    Foreign(bool),
    /// One edge flow dropped.
    Short,
}

const STEPS: [f64; 6] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0];

fn alteration() -> impl Strategy<Value = Alteration> {
    (0..8usize, 0.5f64..1.1, 0..STEPS.len(), 0..4usize, any::<bool>()).prop_map(
        |(kind, scale, step, poison, far)| match kind {
            0 => Alteration::Honest,
            1 => Alteration::Scaled(scale),
            2 => Alteration::Nudged(STEPS[step]),
            3 => Alteration::Poisoned(poison),
            4 => Alteration::Value(if far { 0.0 } else { STEPS[step] }),
            5 => Alteration::Swapped,
            6 => Alteration::Foreign(far),
            _ => Alteration::Short,
        },
    )
}

fn alter(flow: &Flow, alteration: Alteration, edge: usize, tol: f64, n: u32) -> Flow {
    let (mut source, mut sink, mut value) = (flow.source(), flow.sink(), flow.value());
    let mut edges = flow.edge_flows().to_vec();
    let edge = edge % edges.len();
    match alteration {
        Alteration::Honest => {}
        Alteration::Scaled(s) => {
            edges.iter_mut().for_each(|f| *f *= s);
            value *= s;
        }
        Alteration::Nudged(steps) => edges[edge] += steps * tol,
        Alteration::Poisoned(i) => {
            edges[edge] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0 * tol][i];
        }
        Alteration::Value(steps) => {
            value = if steps == 0.0 { f64::NAN } else { value + steps * tol }
        }
        Alteration::Swapped => (source, sink) = (sink, source),
        Alteration::Foreign(far) => {
            source = if far {
                NodeId::new(1_000_000)
            } else {
                // the next node that is neither terminal
                (1..n)
                    .map(|i| NodeId::new((source.index() as u32 + i) % n))
                    .find(|&v| v != sink)
                    .expect("three or more nodes")
            };
        }
        Alteration::Short => {
            edges.pop();
        }
    }
    Flow::from_edge_flows(source, sink, value, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_verdicts_match_the_graph_path(
        n in 3usize..=16,
        grid in 1usize..=3,
        seeds in (any::<u64>(), any::<u64>()),
        altered_side in any::<bool>(),
        alteration in alteration(),
        edge in any::<usize>(),
    ) {
        let ppuf = Ppuf::generate(PpufConfig::paper(n, grid.min(n)), seeds.0).unwrap();
        let model = ppuf.public_model().unwrap();
        let challenge = ppuf.challenge_space().random(&mut ChaCha8Rng::seed_from_u64(seeds.1));
        let honest = model.simulate(&challenge, &Dinic::new()).unwrap();
        for tol in [VERIFY_TOLERANCE, 1e-12] {
            let (mut flow_a, mut flow_b) = (honest.flow_a.clone(), honest.flow_b.clone());
            let altered = if altered_side { &mut flow_b } else { &mut flow_a };
            *altered = alter(altered, alteration, edge, tol, n as u32);
            let answer = ProverAnswer { response: true, flow_a, flow_b };
            let one_pass = Verifier::new(model.clone())
                .with_tolerance(tol)
                .verify(&challenge, &answer)
                .map(|report| [report.network_a, report.network_b]);
            let graph = || -> Result<[NetworkVerdict; 2], PpufError> {
                Ok([
                    graph_verdict(&model, NetworkSide::A, &challenge, &answer.flow_a, tol)?,
                    graph_verdict(&model, NetworkSide::B, &challenge, &answer.flow_b, tol)?,
                ])
            };
            prop_assert_eq!(one_pass, graph(), "{:?} at tolerance {}", alteration, tol);
        }
    }
}
