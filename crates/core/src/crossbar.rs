//! The `n × n` crossbar structure (paper §4.1).
//!
//! Each circuit node is one horizontal + one vertical bar pair; the block
//! at the intersection of vertical bar `i` and horizontal bar `j` (`i ≠ j`)
//! conducts from `i` to `j`, realizing the complete directed graph. The two
//! nominally identical crossbars (networks A and B) differ only in process
//! variation; transistors at the same position are placed side by side so
//! they share the *systematic* component of variation, which the
//! differential output then cancels.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ppuf_analog::block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock};
use ppuf_analog::solver::{Circuit, TabulatedElement};
use ppuf_analog::units::{Amps, Volts};
use ppuf_analog::variation::{DiePosition, Environment, ProcessVariation};
use ppuf_maxflow::NodeId;

use crate::challenge::Challenge;
use crate::error::PpufError;
use crate::grid::GridPartition;

/// Dense edge index of the complete graph: matches the edge order of
/// [`ppuf_maxflow::FlowNetwork::complete`] (iterate `u`, then `v ≠ u`).
pub fn edge_index(nodes: usize, from: NodeId, to: NodeId) -> usize {
    let (u, v) = (from.index(), to.index());
    debug_assert!(u != v && u < nodes && v < nodes);
    u * (nodes - 1) + if v > u { v - 1 } else { v }
}

/// All directed edges of the complete graph in dense-index order.
pub fn edge_order(nodes: usize) -> impl Iterator<Item = (NodeId, NodeId)> {
    (0..nodes as u32).flat_map(move |u| {
        (0..nodes as u32).filter(move |&v| v != u).map(move |v| (NodeId::new(u), NodeId::new(v)))
    })
}

/// One crossbar network: the per-block process variation of an `n`-node
/// complete graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarNetwork {
    nodes: usize,
    design: BlockDesign,
    /// Per-edge variation in dense-index order.
    variations: Vec<BlockVariation>,
}

impl CrossbarNetwork {
    /// Samples a fabricated crossbar instance: every block's transistors
    /// get independent random `V_th` shifts, plus the systematic offset of
    /// their die position.
    ///
    /// The same `ProcessVariation` and the same positions must be used for
    /// both networks of a PPUF so that the systematic component matches —
    /// that is the differential-placement mitigation of §4.1.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] for fewer than 2 nodes.
    pub fn sample<R: Rng + ?Sized>(
        nodes: usize,
        design: BlockDesign,
        process: &ProcessVariation,
        rng: &mut R,
    ) -> Result<Self, PpufError> {
        Self::sample_at_offset(nodes, design, process, rng, (0.0, 0.0))
    }

    /// Like [`sample`](Self::sample) but with every die position shifted
    /// by `offset` — modelling a crossbar placed *elsewhere* on the die.
    ///
    /// With the paper's side-by-side differential placement both networks
    /// use offset `(0, 0)` and the systematic gradient cancels in the
    /// comparator; a non-zero offset on one network breaks that
    /// cancellation (the ablation the `ablation_placement` binary runs).
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] for fewer than 2 nodes.
    pub fn sample_at_offset<R: Rng + ?Sized>(
        nodes: usize,
        design: BlockDesign,
        process: &ProcessVariation,
        rng: &mut R,
        offset: (f64, f64),
    ) -> Result<Self, PpufError> {
        if nodes < 2 {
            return Err(PpufError::InvalidConfig {
                reason: format!("crossbar needs at least 2 nodes, got {nodes}"),
            });
        }
        let mut variations = Vec::with_capacity(nodes * (nodes - 1));
        for (from, to) in edge_order(nodes) {
            let base = DiePosition::from_cell(to.index(), from.index(), nodes);
            let position = DiePosition { x: base.x + offset.0, y: base.y + offset.1 };
            variations.push(process.sample_block(rng, position));
        }
        Ok(CrossbarNetwork { nodes, design, variations })
    }

    /// Number of circuit nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of building blocks (`n(n−1)`).
    pub fn block_count(&self) -> usize {
        self.variations.len()
    }

    /// The block design used by this crossbar.
    pub fn design(&self) -> BlockDesign {
        self.design
    }

    /// Builds the block on edge `from → to` under challenge bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `from == to`.
    pub fn block(&self, from: NodeId, to: NodeId, bit: bool) -> BuildingBlock {
        self.block_at(edge_index(self.nodes, from, to), bit)
    }

    /// [`block`](Self::block) by dense edge index.
    fn block_at(&self, k: usize, bit: bool) -> BuildingBlock {
        BuildingBlock::new(self.design, BlockBias::for_input(bit))
            .with_variation(self.variations[k])
    }

    /// Per-edge characterized capacities under a challenge-independent
    /// input bit, at reference voltage `v_ref` and environment `env`.
    ///
    /// The returned vector is in dense-index order; index it with
    /// [`edge_index`]. Computing both bit variants once per device lets
    /// every challenge reuse them (a challenge only *selects* between
    /// them via its grid cell).
    pub fn capacities_for_bit(&self, bit: bool, v_ref: Volts, env: Environment) -> Vec<Amps> {
        edge_order(self.nodes)
            .map(|(from, to)| {
                self.block(from, to, bit).characterized_capacity(v_ref, env.temperature)
            })
            .collect()
    }

    /// Assembles the analog circuit for one challenge: every edge gets a
    /// tabulated copy of its block's I–V curve under the challenge bit its
    /// grid cell assigns.
    ///
    /// `samples` controls the interpolation-table density (relative
    /// current error ≈ `1/samples`).
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::ChallengeMismatch`] for a challenge outside
    /// `grid`'s [`challenge_space`](GridPartition::challenge_space), and
    /// propagates circuit-assembly errors.
    pub fn circuit(
        &self,
        challenge: &Challenge,
        grid: &GridPartition,
        env: Environment,
        v_max: Volts,
        samples: usize,
    ) -> Result<Circuit<TabulatedElement>, PpufError> {
        grid.challenge_space()?.validate(challenge)?;
        let mut circuit = Circuit::new(self.nodes);
        for (k, (from, to)) in edge_order(self.nodes).enumerate() {
            let block = self.block_at(k, grid.edge_bit(challenge, from, to));
            let element = TabulatedElement::from_block(&block, v_max, samples, env.temperature);
            circuit
                .add_element(from.index() as u32, to.index() as u32, element)
                .map_err(PpufError::Execution)?;
        }
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppuf_analog::montecarlo::stream;
    use ppuf_analog::units::Celsius;

    fn sample_net(nodes: usize, seed: u64) -> CrossbarNetwork {
        CrossbarNetwork::sample(
            nodes,
            BlockDesign::Serial,
            &ProcessVariation::new(),
            &mut stream(seed, 0),
        )
        .unwrap()
    }

    #[test]
    fn edge_index_is_dense_and_bijective() {
        let n = 7;
        let mut seen = vec![false; n * (n - 1)];
        for (from, to) in edge_order(n) {
            let k = edge_index(n, from, to);
            assert!(!seen[k], "duplicate index {k}");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn edge_order_matches_flow_network_complete() {
        let n = 6;
        let net = ppuf_maxflow::FlowNetwork::complete(n, |_, _| 1.0).unwrap();
        for ((id, edge), (from, to)) in net.edges().zip(edge_order(n)) {
            assert_eq!(edge.from, from);
            assert_eq!(edge.to, to);
            assert_eq!(id.index(), edge_index(n, from, to));
        }
    }

    #[test]
    fn sampling_is_reproducible() {
        let a = sample_net(5, 42);
        let b = sample_net(5, 42);
        assert_eq!(a, b);
        let c = sample_net(5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_tiny_crossbar() {
        assert!(CrossbarNetwork::sample(
            1,
            BlockDesign::Serial,
            &ProcessVariation::new(),
            &mut stream(0, 0)
        )
        .is_err());
    }

    #[test]
    fn capacities_differ_between_networks() {
        let a = sample_net(6, 1);
        let b = CrossbarNetwork::sample(
            6,
            BlockDesign::Serial,
            &ProcessVariation::new(),
            &mut stream(1, 1),
        )
        .unwrap();
        let ca = a.capacities_for_bit(true, Volts(1.0), Environment::NOMINAL);
        let cb = b.capacities_for_bit(true, Volts(1.0), Environment::NOMINAL);
        assert_eq!(ca.len(), 30);
        assert!(ca.iter().zip(&cb).any(|(x, y)| (x.value() - y.value()).abs() > 1e-12));
    }

    #[test]
    fn capacity_statistics_reasonable() {
        // mean near the nominal ~31 nA, relative σ large (paper: per-edge
        // variation dominates)
        let net = sample_net(10, 5);
        let caps = net.capacities_for_bit(true, Volts(1.0), Environment::NOMINAL);
        let vals: Vec<f64> = caps.iter().map(|c| c.value()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((15e-9..60e-9).contains(&mean), "mean {mean}");
        let sd =
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt();
        assert!(sd / mean > 0.2, "relative sigma {}", sd / mean);
    }

    #[test]
    fn circuit_assembly_checks_bits() {
        let net = sample_net(6, 9);
        let grid = GridPartition::new(6, 2).unwrap();
        let bad =
            Challenge { source: NodeId::new(0), sink: NodeId::new(5), control_bits: vec![true; 9] };
        assert!(net.circuit(&bad, &grid, Environment::NOMINAL, Volts(2.5), 64).is_err());
    }

    #[test]
    fn circuit_has_all_edges() {
        let net = sample_net(5, 11);
        let grid = GridPartition::new(5, 2).unwrap();
        let challenge = Challenge {
            source: NodeId::new(0),
            sink: NodeId::new(4),
            control_bits: vec![true, false, true, false],
        };
        let circuit =
            net.circuit(&challenge, &grid, Environment::NOMINAL, Volts(2.5), 128).unwrap();
        assert_eq!(circuit.edges().len(), 20);
        assert_eq!(circuit.node_count(), 5);
    }

    #[test]
    fn systematic_gradient_shared_by_position() {
        // with a pure systematic gradient (σ = 0) two independently
        // sampled networks are identical — the §4.1 placement property
        let pv = ProcessVariation {
            sigma_vth: Volts(0.0),
            gradient_x: Volts(0.05),
            gradient_y: Volts(0.02),
        };
        let a = CrossbarNetwork::sample(6, BlockDesign::Serial, &pv, &mut stream(1, 0)).unwrap();
        let b = CrossbarNetwork::sample(6, BlockDesign::Serial, &pv, &mut stream(2, 0)).unwrap();
        assert_eq!(a, b);
        // and the gradient does shift capacities across the die
        let caps = a.capacities_for_bit(true, Volts(1.0), Environment::NOMINAL);
        let first = caps[edge_index(6, NodeId::new(0), NodeId::new(1))].value();
        let last = caps[edge_index(6, NodeId::new(5), NodeId::new(4))].value();
        assert!(first > last, "gradient should weaken far corner: {first} vs {last}");
    }

    #[test]
    fn temperature_changes_capacities() {
        let net = sample_net(5, 3);
        let hot = Environment::new(1.0, Celsius(80.0));
        let nom = net.capacities_for_bit(true, Volts(1.0), Environment::NOMINAL);
        let heat = net.capacities_for_bit(true, Volts(1.0), hot);
        assert!(nom.iter().zip(&heat).any(|(a, b)| (a.value() - b.value()).abs() > 1e-12));
    }
}
