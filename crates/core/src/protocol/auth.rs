//! The authentication protocol: cheap verification of expensive answers.
//!
//! Paper §3.2: the verifier never recomputes a max flow. It asks the
//! prover for the response *and the flow functions behind it*, then checks
//!
//! 1. each flow runs between the challenge's own terminals and is
//!    feasible on the published capacities (`O(m)`),
//! 2. each flow is maximal — the sink is unreachable in the residual graph
//!    (a BFS, `O(n²)` on the complete graph; the paper parallelizes it to
//!    `O(n²/p)`),
//! 3. the claimed response matches the comparator on the claimed values.
//!
//! The [`Verifier`] builds neither the flow network nor the residual
//! graph: per network it makes one `O(m)` pass over the answer, reading
//! each capacity from the [`PublicModel`], then runs a sequential BFS over
//! the implicit complete graph with `O(n)` scratch memory. Its verdicts
//! are those of [`Flow::check_feasible`] and [`ResidualGraph`] on
//! [`PublicModel::flow_network`].
//!
//! A genuine device produces the answer in execution time `O(n)`; an
//! impostor without the device must solve max-flow (`Ω(n²)`), which the
//! verifier's response-deadline rules out.
//!
//! [`ResidualGraph`]: ppuf_maxflow::ResidualGraph

use serde::{Deserialize, Serialize};

use ppuf_analog::units::Seconds;
use ppuf_maxflow::flow::{value_mismatch, violates_capacity};
use ppuf_maxflow::{Flow, MaxFlowError, NodeId};

use crate::challenge::Challenge;
use crate::crossbar::edge_index;
use crate::device::PpufExecutor;
use crate::error::PpufError;
use crate::public_model::{NetworkSide, PublicModel};

/// Default absolute current tolerance for the verifier's feasibility and
/// optimality checks (see [`Verifier::with_tolerance`]).
///
/// The device's physical current differs from the published model by the
/// Fig 6 inaccuracy (< 1 % of a tens-of-nA per-edge scale), so the
/// verifier must accept answers within that band; 1 nA is two decades
/// above numerical noise and well below any single edge capacity.
pub const VERIFY_TOLERANCE: f64 = 1e-9;

/// The prover's answer to one challenge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProverAnswer {
    /// Claimed response bit.
    pub response: bool,
    /// Claimed max flow on network A.
    pub flow_a: Flow,
    /// Claimed max flow on network B.
    pub flow_b: Flow,
}

/// An honest prover: answers from the device's fast path.
///
/// # Errors
///
/// Propagates device errors; [`PpufError::UnresolvableResponse`] if the
/// comparator cannot decide.
pub fn prove(
    executor: &PpufExecutor<'_>,
    challenge: &Challenge,
) -> Result<ProverAnswer, PpufError> {
    let outcome = executor.execute_flow_detailed(challenge)?;
    let response = outcome.response.ok_or(PpufError::UnresolvableResponse {
        difference: (outcome.current_a.value() - outcome.current_b.value()).abs(),
        resolution: executor.device().config().comparator.resolution.value(),
    })?;
    Ok(ProverAnswer { response, flow_a: outcome.flow_a, flow_b: outcome.flow_b })
}

/// Per-network verification findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkVerdict {
    /// Flow satisfies capacity + conservation on the public model.
    pub feasible: bool,
    /// No augmenting path remains (the optimality certificate).
    pub maximal: bool,
}

/// Outcome of verifying one [`ProverAnswer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Findings for network A.
    pub network_a: NetworkVerdict,
    /// Findings for network B.
    pub network_b: NetworkVerdict,
    /// Claimed response agrees with the comparator on the claimed values.
    pub response_consistent: bool,
    /// Answer arrived within the deadline (`true` when no deadline was
    /// enforced).
    pub within_deadline: bool,
}

impl VerificationReport {
    /// `true` iff every check passed.
    pub fn accepted(&self) -> bool {
        self.network_a.feasible
            && self.network_a.maximal
            && self.network_b.feasible
            && self.network_b.maximal
            && self.response_consistent
            && self.within_deadline
    }
}

/// The verifier: holds only the public model.
#[derive(Debug, Clone)]
pub struct Verifier {
    model: PublicModel,
    /// Optional response deadline (the ESG enforcement knob).
    deadline: Option<Seconds>,
    /// Absolute current tolerance for feasibility/optimality checks.
    tolerance: f64,
}

impl Verifier {
    /// Creates a verifier over a published model with the default
    /// [`VERIFY_TOLERANCE`].
    pub fn new(model: PublicModel) -> Self {
        Verifier { model, deadline: None, tolerance: VERIFY_TOLERANCE }
    }

    /// Rejects answers that took longer than `deadline` (pass the measured
    /// elapsed time to [`verify_timed`](Self::verify_timed)).
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the absolute current tolerance (in amperes) used by the
    /// feasibility and optimality checks.
    ///
    /// Deployments can tighten this below [`VERIFY_TOLERANCE`] when their
    /// characterization is better than the paper's Fig 6 bound, or loosen
    /// it for noisier devices; it must stay positive because exact `f64`
    /// equality is meaningless on summed currents.
    ///
    /// # Panics
    ///
    /// Panics unless `tolerance` is finite and positive.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "verify tolerance must be finite and positive, got {tolerance}"
        );
        self.tolerance = tolerance;
        self
    }

    /// The absolute current tolerance in effect.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The verifier's model.
    pub fn model(&self) -> &PublicModel {
        &self.model
    }

    /// Verifies an answer with no timing information.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::ChallengeMismatch`] or shape errors if the
    /// answer does not even parse against the model; check *failures* are
    /// reported in the `Ok` report instead.
    pub fn verify(
        &self,
        challenge: &Challenge,
        answer: &ProverAnswer,
    ) -> Result<VerificationReport, PpufError> {
        self.verify_timed(challenge, answer, None)
    }

    /// Verifies an answer that took `elapsed` to arrive.
    ///
    /// # Errors
    ///
    /// See [`verify`](Self::verify).
    pub fn verify_timed(
        &self,
        challenge: &Challenge,
        answer: &ProverAnswer,
        elapsed: Option<Seconds>,
    ) -> Result<VerificationReport, PpufError> {
        let network_a = self.verify_network(NetworkSide::A, challenge, &answer.flow_a)?;
        let network_b = self.verify_network(NetworkSide::B, challenge, &answer.flow_b)?;
        let comparator_says = self.model.comparator().compare(
            ppuf_analog::units::Amps(answer.flow_a.value()),
            ppuf_analog::units::Amps(answer.flow_b.value()),
        );
        let response_consistent = comparator_says == Some(answer.response);
        let within_deadline = match (self.deadline, elapsed) {
            (Some(deadline), Some(elapsed)) => elapsed.value() <= deadline.value(),
            (Some(_), None) => false,
            (None, _) => true,
        };
        Ok(VerificationReport { network_a, network_b, response_consistent, within_deadline })
    }

    /// Checks one network's flow in one pass over its edges plus a
    /// residual BFS, building no graph.
    ///
    /// The verdict equals [`Flow::check_feasible`] and
    /// [`ResidualGraph::is_reachable`](ppuf_maxflow::ResidualGraph::is_reachable)
    /// on [`PublicModel::flow_network`]: each per-node sum adds the same
    /// terms in the same edge-id order, from the same `−0.0`, as
    /// `Iterator::sum` over a complete graph's `out_edges`/`in_edges`, so
    /// every sum is bitwise the same.
    fn verify_network(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
        flow: &Flow,
    ) -> Result<NetworkVerdict, PpufError> {
        // the terminals arrive with the answer: a flow between any other
        // pair proves nothing about this challenge (and is never indexed)
        if (flow.source(), flow.sink()) != (challenge.source, challenge.sink) {
            return Ok(NetworkVerdict { feasible: false, maximal: false });
        }
        self.model.check_challenge(challenge)?;
        let n = self.model.nodes();
        let flows = flow.edge_flows();
        let m = n * (n - 1);
        if flows.len() != m {
            return Err(PpufError::Simulation(MaxFlowError::FlowShapeMismatch {
                flow_edges: flows.len(),
                network_edges: m,
            }));
        }
        let tol = self.tolerance;
        let mut capacities = vec![0.0; n - 1];
        let mut outflow = vec![0.0; n];
        let mut inflow = vec![-0.0; n];
        let mut over_capacity = false;
        for (u, row) in flows.chunks_exact(n - 1).enumerate() {
            self.model.out_capacities(side, challenge, NodeId::new(u as u32), &mut capacities)?;
            over_capacity |= row
                .iter()
                .zip(&capacities)
                .fold(false, |over, (&f, &c)| over | violates_capacity(f, c, tol));
            outflow[u] = row.iter().sum();
            let (before, after) = inflow.split_at_mut(u);
            let (row_before, row_after) = row.split_at(u);
            for (sum, &f) in before.iter_mut().zip(row_before) {
                *sum += f;
            }
            for (sum, &f) in after[1..].iter_mut().zip(row_after) {
                *sum += f;
            }
        }
        let (s, t) = (challenge.source.index(), challenge.sink.index());
        let unconserved = (0..n).any(|v| v != s && v != t && (inflow[v] - outflow[v]).abs() > tol);
        let feasible = !over_capacity
            && !unconserved
            && !value_mismatch(flow.value(), outflow[s] - inflow[s], tol);
        let maximal = !self.sink_reachable(side, challenge, flows)?;
        Ok(NetworkVerdict { feasible, maximal })
    }

    /// Breadth-first search from the source over the implicit complete
    /// graph's residual arcs: `u → v` is an arc when the edge `u → v` has
    /// more than `tol` capacity left or the edge `v → u` carries more
    /// than `tol` that could be cancelled. Each dequeued node scans only
    /// the nodes not yet reached, so an answer whose source side is every
    /// node but the sink costs `O(n)` capacity reads after the first row.
    /// Scratch memory is `O(n)`.
    fn sink_reachable(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
        flows: &[f64],
    ) -> Result<bool, PpufError> {
        let n = self.model.nodes();
        let tol = self.tolerance;
        let mut unreached = Vec::with_capacity(n - 1);
        unreached.extend((0..n as u32).map(NodeId::new).filter(|&v| v != challenge.source));
        let mut queue = Vec::with_capacity(n);
        queue.push(challenge.source);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let mut i = 0;
            while let Some(&v) = unreached.get(i) {
                let spare =
                    self.model.edge_capacity(side, challenge, u, v)? - flows[edge_index(n, u, v)];
                if spare > tol || flows[edge_index(n, v, u)] > tol {
                    if v == challenge.sink {
                        return Ok(true);
                    }
                    queue.push(v);
                    unreached.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Ppuf, PpufConfig};
    use ppuf_analog::variation::Environment;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Ppuf, Challenge) {
        let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 21).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let challenge = ppuf.challenge_space().random(&mut rng);
        (ppuf, challenge)
    }

    #[test]
    fn honest_prover_accepted() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let answer = prove(&executor, &challenge).unwrap();
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(report.accepted(), "{report:?}");
    }

    #[test]
    fn suboptimal_flow_rejected() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        // lazy prover: claims the zero flow for network A
        let model = ppuf.public_model().unwrap();
        let net = model.flow_network(NetworkSide::A, &challenge).unwrap();
        answer.flow_a = Flow::zero(&net, challenge.source, challenge.sink);
        let verifier = Verifier::new(model);
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(report.network_a.feasible);
        assert!(!report.network_a.maximal);
        assert!(!report.accepted());
    }

    #[test]
    fn infeasible_flow_rejected() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        // cheating prover: inflates every edge flow 10×
        let inflated: Vec<f64> = answer.flow_a.edge_flows().iter().map(|f| f * 10.0).collect();
        answer.flow_a = Flow::from_edge_flows(
            challenge.source,
            challenge.sink,
            answer.flow_a.value() * 10.0,
            inflated,
        );
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(!report.network_a.feasible);
        assert!(!report.accepted());
    }

    #[test]
    fn flipped_response_rejected() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        answer.response = !answer.response;
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(!report.response_consistent);
        assert!(!report.accepted());
    }

    #[test]
    fn foreign_terminals_are_infeasible_and_never_indexed() {
        let (ppuf, challenge) = setup();
        let honest = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let retarget = |flow: &Flow, source, sink, value| {
            Flow::from_edge_flows(source, sink, value, flow.edge_flows().to_vec())
        };
        let far = ppuf_maxflow::NodeId::new(1_000_000);
        let far_source = ProverAnswer {
            flow_a: retarget(&honest.flow_a, far, challenge.sink, honest.flow_a.value()),
            ..honest.clone()
        };
        // swapped terminals and negated values make the comparator agree
        // with the opposite response bit
        let swap = |flow: &Flow| retarget(flow, flow.sink(), flow.source(), -flow.value());
        let swapped = ProverAnswer {
            response: !honest.response,
            flow_a: swap(&honest.flow_a),
            flow_b: swap(&honest.flow_b),
        };
        for (name, answer) in [("swapped", swapped), ("far source", far_source)] {
            let report = verifier.verify(&challenge, &answer).unwrap();
            assert!(!report.network_a.feasible && !report.network_a.maximal, "{name}");
            assert!(!report.accepted(), "{name}: {report:?}");
        }
    }

    #[test]
    fn nan_value_is_rejected() {
        let (ppuf, challenge) = setup();
        let mut answer = prove(&ppuf.executor(Environment::NOMINAL), &challenge).unwrap();
        answer.flow_a = Flow::from_edge_flows(
            challenge.source,
            challenge.sink,
            f64::NAN,
            answer.flow_a.edge_flows().to_vec(),
        );
        // a NaN current compares `false` either way, so claim that bit
        // whatever the device says
        answer.response = false;
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(!report.network_a.feasible, "{report:?}");
        assert!(!report.accepted());
    }

    #[test]
    fn tightened_tolerance_rejects_marginal_flows() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        // add 5e-10 A onto an idle edge between two internal nodes: the
        // conservation violation at its endpoints is exactly 5e-10 —
        // inside the default 1e-9 band, far outside a tightened 1e-12 one
        let model = ppuf.public_model().unwrap();
        let net = model.flow_network(NetworkSide::A, &challenge).unwrap();
        let violation = 5e-10;
        let edge_idx = net
            .edges()
            .find(|(id, e)| {
                let internal =
                    |v: ppuf_maxflow::NodeId| v != challenge.source && v != challenge.sink;
                internal(e.from)
                    && internal(e.to)
                    && answer.flow_a.edge_flows()[id.index()] == 0.0
                    && e.capacity > 1e-9
            })
            .map(|(id, _)| id.index())
            .expect("an idle internal edge exists on a complete graph");
        let mut flows = answer.flow_a.edge_flows().to_vec();
        flows[edge_idx] += violation;
        answer.flow_a =
            Flow::from_edge_flows(challenge.source, challenge.sink, answer.flow_a.value(), flows);

        let lenient = Verifier::new(model.clone());
        assert_eq!(lenient.tolerance(), VERIFY_TOLERANCE);
        let report = lenient.verify(&challenge, &answer).unwrap();
        assert!(report.network_a.feasible, "default tolerance must absorb the nudge");

        let strict = Verifier::new(model).with_tolerance(1e-12);
        let report = strict.verify(&challenge, &answer).unwrap();
        assert!(!report.network_a.feasible, "tightened tolerance must reject it");
        assert!(!report.accepted());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_tolerance_rejected() {
        let (ppuf, _) = setup();
        let _ = Verifier::new(ppuf.public_model().unwrap()).with_tolerance(0.0);
    }

    #[test]
    fn deadline_enforced() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let answer = prove(&executor, &challenge).unwrap();
        let verifier = Verifier::new(ppuf.public_model().unwrap()).with_deadline(Seconds(1e-3));
        // answer arrived fast: accepted
        let fast = verifier.verify_timed(&challenge, &answer, Some(Seconds(1e-4))).unwrap();
        assert!(fast.accepted());
        // answer arrived slow (attacker simulated): rejected
        let slow = verifier.verify_timed(&challenge, &answer, Some(Seconds(1.0))).unwrap();
        assert!(!slow.accepted());
        // no timing provided while a deadline exists: rejected
        let untimed = verifier.verify(&challenge, &answer).unwrap();
        assert!(!untimed.accepted());
    }
}
