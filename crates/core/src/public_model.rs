//! The published simulation model of a PPUF.
//!
//! A *public* PUF keeps no secrets: after fabrication, the maker
//! characterizes every building block's saturation current under both
//! challenge-bit biases and publishes the numbers. Anyone can then compute
//! any response by solving two max-flow problems — it just takes
//! asymptotically longer than asking the chip (the ESG).
//!
//! This module is that artifact: per-edge capacities for both networks and
//! both input bits, plus the machinery to simulate a challenge with any
//! [`MaxFlowSolver`].

use serde::{Deserialize, Serialize};

use ppuf_analog::units::Amps;
use ppuf_maxflow::{Dinic, Flow, FlowNetwork, MaxFlowError, MaxFlowSolver, NodeId};

use crate::challenge::Challenge;
use crate::comparator::Comparator;
use crate::crossbar::{edge_index, edge_order};
use crate::error::PpufError;
use crate::grid::GridPartition;

/// Which of the PPUF's two nominally identical networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkSide {
    /// Network A (the `+` comparator input).
    A,
    /// Network B (the `−` comparator input).
    B,
}

impl NetworkSide {
    /// Both sides, A first.
    pub const BOTH: [NetworkSide; 2] = [NetworkSide::A, NetworkSide::B];
}

/// Per-network published capacities: one value per edge (dense-index
/// order) per challenge bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedCapacities {
    /// Capacities when the controlling challenge bit is 0.
    pub bit0: Vec<f64>,
    /// Capacities when the controlling challenge bit is 1.
    pub bit1: Vec<f64>,
}

impl PublishedCapacities {
    /// Capacity of edge `k` under challenge bit `bit`.
    pub fn capacity(&self, k: usize, bit: bool) -> f64 {
        if bit {
            self.bit1[k]
        } else {
            self.bit0[k]
        }
    }
}

/// Result of simulating one challenge on the public model.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Max-flow value (source current) of network A.
    pub current_a: Amps,
    /// Max-flow value (source current) of network B.
    pub current_b: Amps,
    /// Comparator verdict; `None` if inside the resolution dead-zone.
    pub response: Option<bool>,
    /// The full flow function on network A (for the residual-graph
    /// verification protocol).
    pub flow_a: Flow,
    /// The full flow function on network B.
    pub flow_b: Flow,
}

/// The published model of one PPUF: everything an attacker (or verifier)
/// legitimately knows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublicModel {
    nodes: usize,
    grid: GridPartition,
    capacities_a: PublishedCapacities,
    capacities_b: PublishedCapacities,
    comparator: Comparator,
}

impl PublicModel {
    /// Assembles a public model from published capacities.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] if the parts disagree on the
    /// model's shape (see [`check_shape`](Self::check_shape)).
    pub fn new(
        nodes: usize,
        grid: GridPartition,
        capacities_a: PublishedCapacities,
        capacities_b: PublishedCapacities,
        comparator: Comparator,
    ) -> Result<Self, PpufError> {
        let model = Self::unchecked(nodes, grid, capacities_a, capacities_b, comparator);
        model.check_shape()?;
        Ok(model)
    }

    /// [`new`](Self::new) without the shape check, for a device's own
    /// characterization: its flow path reports an unusable capacity per
    /// challenge instead.
    pub(crate) fn unchecked(
        nodes: usize,
        grid: GridPartition,
        capacities_a: PublishedCapacities,
        capacities_b: PublishedCapacities,
        comparator: Comparator,
    ) -> Self {
        PublicModel { nodes, grid, capacities_a, capacities_b, comparator }
    }

    /// Checks that the model's parts agree on its shape: the grid
    /// partition is a valid partition of exactly `nodes` nodes, each of
    /// the four capacity vectors has one entry per edge, `n(n−1)`, every
    /// capacity is a finite non-negative number, and so is the
    /// comparator's resolution, with a finite offset and power.
    ///
    /// [`new`](Self::new) runs this check, but a model deserialized from
    /// an untrusted source has skipped it; check it before use, since
    /// [`flow_network`](Self::flow_network) and the verifier index by
    /// these shapes and read these capacities. The cost is `O(m)`, paid
    /// once per registration.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] naming the first mismatch:
    /// for a bad capacity, the network, the bit and the edge.
    pub fn check_shape(&self) -> Result<(), PpufError> {
        let invalid = |reason: String| PpufError::InvalidConfig { reason };
        if self.grid.nodes() != self.nodes {
            return Err(invalid(format!(
                "grid partition covers {} nodes, model has {}",
                self.grid.nodes(),
                self.nodes
            )));
        }
        GridPartition::new(self.nodes, self.grid.grid())?;
        let m = self
            .nodes
            .checked_mul(self.nodes - 1)
            .ok_or_else(|| invalid(format!("{} nodes overflow the edge count", self.nodes)))?;
        for (side, caps) in [("A", &self.capacities_a), ("B", &self.capacities_b)] {
            for (bit, values) in [("bit-0", &caps.bit0), ("bit-1", &caps.bit1)] {
                if values.len() != m {
                    return Err(invalid(format!(
                        "network {side} publishes {} {bit} capacities, expected {m}",
                        values.len()
                    )));
                }
                let bad =
                    edge_order(self.nodes).zip(values).enumerate().find(|(_, (_, &c))| unusable(c));
                if let Some((k, ((from, to), c))) = bad {
                    return Err(invalid(format!(
                        "network {side} {bit} capacity of edge {k} ({from} -> {to}) is {c}, \
                         not a finite non-negative number"
                    )));
                }
            }
        }
        // a NaN offset reads every comparison as `false`, and a NaN
        // resolution opens no dead zone
        let Comparator { offset, resolution, power } = self.comparator;
        for (name, value) in [("offset", offset.value()), ("power", power.value())] {
            if !value.is_finite() {
                return Err(invalid(format!("comparator {name} is {value}, not a finite number")));
            }
        }
        if unusable(resolution.value()) {
            return Err(invalid(format!(
                "comparator resolution is {}, not a finite non-negative number",
                resolution.value()
            )));
        }
        Ok(())
    }

    /// Number of circuit nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The grid partition mapping challenge bits to edges.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// The published comparator parameters.
    pub fn comparator(&self) -> &Comparator {
        &self.comparator
    }

    /// The published capacities of one network.
    pub fn capacities(&self, side: NetworkSide) -> &PublishedCapacities {
        match side {
            NetworkSide::A => &self.capacities_a,
            NetworkSide::B => &self.capacities_b,
        }
    }

    /// Instantiates the max-flow problem one challenge poses to one
    /// network.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::ChallengeMismatch`] for a challenge outside
    /// the grid's [`challenge_space`](GridPartition::challenge_space), or
    /// a simulation error if capacities are invalid.
    pub fn flow_network(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
    ) -> Result<FlowNetwork, PpufError> {
        self.grid.challenge_space()?.validate(challenge)?;
        let mut net = FlowNetwork::new(self.nodes);
        for (from, to) in edge_order(self.nodes) {
            let capacity = self.edge_capacity(side, challenge, from, to)?;
            net.add_edge(from, to, capacity).map_err(PpufError::Simulation)?;
        }
        Ok(net)
    }

    /// The capacity `challenge` gives the edge `from → to` of one
    /// network: the edge's published value under the control bit of its
    /// grid cell. [`flow_network`](Self::flow_network) and the verifier
    /// read capacities through this rule, or through
    /// [`out_capacities`](Self::out_capacities), its form for a whole
    /// row.
    ///
    /// The caller has validated the challenge against the grid's
    /// [`challenge_space`](GridPartition::challenge_space) and the
    /// endpoints against the node count.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::Simulation`] with
    /// [`MaxFlowError::InvalidCapacity`] for a negative or non-finite
    /// published value (possible only in a model that skipped
    /// [`check_shape`](Self::check_shape)).
    pub(crate) fn edge_capacity(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
        from: NodeId,
        to: NodeId,
    ) -> Result<f64, PpufError> {
        let bit = self.grid.edge_bit(challenge, from, to);
        let value = self.capacities(side).capacity(edge_index(self.nodes, from, to), bit);
        if unusable(value) {
            return Err(PpufError::Simulation(MaxFlowError::InvalidCapacity { value }));
        }
        Ok(value)
    }

    /// [`edge_capacity`](Self::edge_capacity) for every edge leaving
    /// `from`, written into `row` in edge order (`to` ascending,
    /// skipping `from`) one grid cell at a time: the verifier's pass
    /// over the whole answer.
    ///
    /// # Errors
    ///
    /// As [`edge_capacity`](Self::edge_capacity), for the first unusable
    /// value in the row.
    ///
    /// # Panics
    ///
    /// Panics unless `row` holds exactly `n − 1` values.
    pub(crate) fn out_capacities(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
        from: NodeId,
        row: &mut [f64],
    ) -> Result<(), PpufError> {
        assert_eq!(row.len(), self.nodes - 1, "one capacity per edge leaving {from}");
        let caps = self.capacities(side);
        let u = from.index();
        let first = u * (self.nodes - 1);
        // position in the row of the edge to `v` (a run's end, when `v`
        // ends one): `from` has no edge to itself
        let at = |v: usize| v - usize::from(v > u);
        for (bit, targets) in self.grid.out_cells(challenge, from) {
            let published = if bit { &caps.bit1 } else { &caps.bit0 };
            let (lo, hi) = (at(targets.start), at(targets.end));
            row[lo..hi].copy_from_slice(&published[first + lo..first + hi]);
        }
        // a fold, not a search: this runs once per row on every verify
        if !row.iter().fold(false, |any, &c| any | unusable(c)) {
            return Ok(());
        }
        let value = *row.iter().find(|&&c| unusable(c)).expect("the fold saw one");
        Err(PpufError::Simulation(MaxFlowError::InvalidCapacity { value }))
    }

    /// Simulates a challenge: two max-flow solves plus the comparator.
    ///
    /// This is what an attacker must do per challenge — the expensive side
    /// of the ESG.
    ///
    /// # Errors
    ///
    /// Propagates challenge and solver errors.
    pub fn simulate<S: MaxFlowSolver>(
        &self,
        challenge: &Challenge,
        solver: &S,
    ) -> Result<SimulationOutcome, PpufError> {
        let net_a = self.flow_network(NetworkSide::A, challenge)?;
        let net_b = self.flow_network(NetworkSide::B, challenge)?;
        let flow_a = solver
            .max_flow(&net_a, challenge.source, challenge.sink)
            .map_err(PpufError::Simulation)?;
        let flow_b = solver
            .max_flow(&net_b, challenge.source, challenge.sink)
            .map_err(PpufError::Simulation)?;
        let (ia, ib) = (Amps(flow_a.value()), Amps(flow_b.value()));
        Ok(SimulationOutcome {
            current_a: ia,
            current_b: ib,
            response: self.comparator.compare(ia, ib),
            flow_a,
            flow_b,
        })
    }

    /// Convenience: simulate with the default [`Dinic`] solver and return
    /// just the response bit.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; returns
    /// [`PpufError::UnresolvableResponse`] if the comparator cannot
    /// resolve the difference.
    pub fn response(&self, challenge: &Challenge) -> Result<bool, PpufError> {
        let outcome = self.simulate(challenge, &Dinic::new())?;
        self.comparator.resolve(outcome.current_a, outcome.current_b)
    }
}

/// A published capacity no edge can have: negative, NaN or infinite.
fn unusable(capacity: f64) -> bool {
    !capacity.is_finite() || capacity < 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::auth::{ProverAnswer, Verifier};

    fn tiny_model() -> PublicModel {
        let nodes = 4;
        let m = nodes * (nodes - 1);
        let grid = GridPartition::new(nodes, 2).unwrap();
        let caps = |base: f64| PublishedCapacities {
            bit0: (0..m).map(|k| base + k as f64 * 0.1).collect(),
            bit1: (0..m).map(|k| 2.0 * base + k as f64 * 0.1).collect(),
        };
        PublicModel::new(nodes, grid, caps(1.0), caps(1.1), Comparator::new(Amps(1e-9))).unwrap()
    }

    fn tiny_challenge(bits: Vec<bool>) -> Challenge {
        Challenge { source: NodeId::new(0), sink: NodeId::new(3), control_bits: bits }
    }

    #[test]
    fn validates_capacity_length() {
        let grid = GridPartition::new(4, 2).unwrap();
        let short = PublishedCapacities { bit0: vec![1.0; 3], bit1: vec![1.0; 3] };
        assert!(PublicModel::new(4, grid, short.clone(), short, Comparator::default()).is_err());
    }

    #[test]
    fn shape_check_rejects_inconsistent_models() {
        let grid = GridPartition::new(4, 2).unwrap();
        let caps = |bit0: usize, bit1: usize| PublishedCapacities {
            bit0: vec![1.0; bit0],
            bit1: vec![1.0; bit1],
        };
        let cmp = Comparator::default;
        // bit-1 vector shorter than the bit-0 one, on either side
        assert!(PublicModel::new(4, grid, caps(12, 11), caps(12, 12), cmp()).is_err());
        assert!(PublicModel::new(4, grid, caps(12, 12), caps(12, 11), cmp()).is_err());
        // a grid partition of a different node count
        let other = GridPartition::new(5, 2).unwrap();
        assert!(PublicModel::new(4, other, caps(12, 12), caps(12, 12), cmp()).is_err());
        // n(n−1) overflows instead of wrapping to a small count
        let huge = GridPartition::new(usize::MAX, 1).unwrap();
        assert!(PublicModel::new(usize::MAX, huge, caps(0, 0), caps(0, 0), cmp()).is_err());

        // a deserialized model skips `new`: every tampered shape must
        // still fail the check before it reaches the indexing
        let json = serde_json::to_string(&tiny_model()).unwrap();
        let honest: PublicModel = serde_json::from_str(&json).unwrap();
        assert!(honest.check_shape().is_ok());
        let head = r#"{"nodes":4,"grid":{"nodes":4,"#;
        assert!(json.starts_with(head), "{json}");
        for (edited, expected) in [
            (r#"{"nodes":5,"grid":{"nodes":4,"#, "grid partition covers 4 nodes"),
            (r#"{"nodes":5,"grid":{"nodes":5,"#, "expected 20"),
        ] {
            let tampered: PublicModel =
                serde_json::from_str(&json.replacen(head, edited, 1)).unwrap();
            let err = tampered.check_shape().unwrap_err();
            assert!(err.to_string().contains(expected), "{err}");
        }
    }

    #[test]
    fn check_shape_refuses_unusable_capacities() {
        let grid = GridPartition::new(4, 2).unwrap();
        let usable = || PublishedCapacities { bit0: vec![1.0; 12], bit1: vec![2.0; 12] };
        let cmp = Comparator::default;
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = usable();
            (a.bit0[0], a.bit1[0]) = (bad, bad);
            let err = PublicModel::new(4, grid, a, usable(), cmp()).unwrap_err();
            let expected = format!("network A bit-0 capacity of edge 0 (v0 -> v1) is {bad},");
            assert!(err.to_string().contains(&expected), "{err}");

            let mut b = usable();
            b.bit1[7] = bad;
            let err = PublicModel::new(4, grid, usable(), b, cmp()).unwrap_err();
            let expected = format!("network B bit-1 capacity of edge 7 (v2 -> v1) is {bad},");
            assert!(err.to_string().contains(&expected), "{err}");

            let comparator = Comparator { resolution: Amps(bad), ..cmp() };
            let err = PublicModel::new(4, grid, usable(), usable(), comparator).unwrap_err();
            assert!(err.to_string().contains(&format!("resolution is {bad},")), "{err}");
        }
        for comparator in [
            Comparator { offset: Amps(f64::NAN), ..cmp() },
            Comparator { power: ppuf_analog::units::Watts(f64::INFINITY), ..cmp() },
        ] {
            assert!(PublicModel::new(4, grid, usable(), usable(), comparator).is_err());
        }
        // zero, of either sign, is a capacity
        let mut zero = usable();
        (zero.bit0[0], zero.bit1[1]) = (0.0, -0.0);
        assert!(PublicModel::new(4, grid, zero, usable(), cmp()).is_ok());
    }

    #[test]
    fn unusable_capacity_of_an_unchecked_model_is_an_error() {
        // a deserialized model has skipped `check_shape`: reading a bad
        // capacity is an error, as `FlowNetwork::add_edge` makes it, for
        // the graph path and the verifier alike, never a verdict
        let json = serde_json::to_string(&tiny_model()).unwrap();
        let tampered: PublicModel =
            serde_json::from_str(&json.replacen(r#""bit0":[1.0,"#, r#""bit0":[-1.0,"#, 1)).unwrap();
        assert!(tampered.check_shape().is_err());
        let challenge = tiny_challenge(vec![false; 4]);
        let expected = PpufError::Simulation(MaxFlowError::InvalidCapacity { value: -1.0 });
        assert_eq!(tampered.flow_network(NetworkSide::A, &challenge).unwrap_err(), expected);
        let zero = Flow::from_edge_flows(challenge.source, challenge.sink, 0.0, vec![0.0; 12]);
        let answer = ProverAnswer { response: false, flow_a: zero.clone(), flow_b: zero };
        let verdict = Verifier::new(tampered).verify(&challenge, &answer);
        assert_eq!(verdict.unwrap_err(), expected);
    }

    #[test]
    fn flow_network_uses_challenge_bits() {
        let model = tiny_model();
        let all0 = tiny_challenge(vec![false; 4]);
        let all1 = tiny_challenge(vec![true; 4]);
        let n0 = model.flow_network(NetworkSide::A, &all0).unwrap();
        let n1 = model.flow_network(NetworkSide::A, &all1).unwrap();
        // bit-1 capacities are strictly larger in the tiny model
        assert!(n1.total_capacity() > n0.total_capacity());
    }

    #[test]
    fn row_and_edge_capacities_agree() {
        // 5 nodes on a 2 × 2 grid: stripes of 3 and 2 nodes
        let (nodes, m) = (5, 20);
        let caps = |base: f64| PublishedCapacities {
            bit0: (0..m).map(|k| base + k as f64).collect(),
            bit1: (0..m).map(|k| -(base + k as f64) * 0.5 + 100.0).collect(),
        };
        let grid = GridPartition::new(nodes, 2).unwrap();
        let model =
            PublicModel::new(nodes, grid, caps(1.0), caps(50.0), Comparator::default()).unwrap();
        let challenge = Challenge {
            source: NodeId::new(0),
            sink: NodeId::new(4),
            control_bits: vec![true, false, false, true],
        };
        let mut row = vec![0.0; nodes - 1];
        for side in NetworkSide::BOTH {
            let net = model.flow_network(side, &challenge).unwrap();
            for from in (0..nodes as u32).map(NodeId::new) {
                model.out_capacities(side, &challenge, from, &mut row).unwrap();
                let targets = (0..nodes as u32).map(NodeId::new).filter(|&to| to != from);
                for (to, &capacity) in targets.zip(&row) {
                    let k = edge_index(nodes, from, to);
                    let bit = challenge.control_bits[grid.cell_of_edge(from, to)];
                    assert_eq!(capacity, model.capacities(side).capacity(k, bit));
                    assert_eq!(model.edge_capacity(side, &challenge, from, to), Ok(capacity));
                    assert_eq!(
                        net.edge(ppuf_maxflow::EdgeId::new(k as u32)).unwrap().capacity,
                        capacity
                    );
                }
            }
        }
    }

    #[test]
    fn simulate_produces_consistent_response() {
        let model = tiny_model();
        let challenge = tiny_challenge(vec![true, false, true, false]);
        let outcome = model.simulate(&challenge, &Dinic::new()).unwrap();
        // B has strictly larger capacities everywhere → B carries more
        assert!(outcome.current_b > outcome.current_a);
        assert_eq!(outcome.response, Some(false));
        assert!(!model.response(&challenge).unwrap());
    }

    #[test]
    fn rejects_malformed_challenges() {
        let model = tiny_model();
        let mut bad = tiny_challenge(vec![true; 4]);
        bad.sink = bad.source;
        assert!(model.simulate(&bad, &Dinic::new()).is_err());
        let short = tiny_challenge(vec![true; 2]);
        assert!(model.simulate(&short, &Dinic::new()).is_err());
    }

    #[test]
    fn model_is_publishable() {
        // the model is "published": it must implement Serialize/Deserialize
        fn assert_serializable<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serializable::<PublicModel>();
    }
}
