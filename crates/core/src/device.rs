//! The PPUF device: two crossbar networks plus a current comparator.
//!
//! A [`Ppuf`] is a fabricated instance (paper Fig 1). Its two evaluation
//! paths embody the execution–simulation gap:
//!
//! - [`PpufExecutor::execute`] — the *chip*: solve the analog DC operating
//!   point of both crossbars and compare the source currents. `O(n)`
//!   settling time in hardware (here: a circuit solve standing in for the
//!   physics).
//! - [`PublicModel::simulate`] — the *attacker/verifier*: two max-flow
//!   computations on the published capacities. `Ω(n²)` with the best known
//!   algorithms.
//!
//! [`PpufExecutor::execute_flow`] is a third, repo-internal path: the
//! device's ground truth: the published max-flow problem with capacities
//! characterized under the executor's environment ([`PpufExecutor::model`]).
//! The paper runs its statistical populations (Table 1, Fig 9, Fig 10)
//! through SPICE; we run them through this fast path, which Fig 6
//! justifies (the two differ by < 1 %).
//!
//! Setting a device up — sampling its two crossbars and characterizing
//! their four capacity vectors — runs on every core the machine offers,
//! in a split that depends only on the device's size, so every value is
//! bitwise the same for any thread count.

use std::sync::Mutex;

use rand::Rng;
use serde::{Deserialize, Serialize};

use ppuf_analog::block::BlockDesign;
use ppuf_analog::montecarlo::stream;
use ppuf_analog::solver::{DcOptions, SolveError};
use ppuf_analog::units::{Amps, Joules, Seconds, Volts, Watts};
use ppuf_analog::variation::{Environment, ProcessVariation};
use ppuf_maxflow::{Dinic, FlowNetwork};

use crate::batch::available_threads;
use crate::challenge::{Challenge, ChallengeSpace};
use crate::comparator::Comparator;
use crate::crossbar::CrossbarNetwork;
use crate::error::PpufError;
use crate::grid::GridPartition;
use crate::public_model::{NetworkSide, PublicModel, PublishedCapacities, SimulationOutcome};

/// Edges per network below which a device is generated and
/// characterized on the calling thread alone. On a 2-vCPU host, spawning
/// and joining a scoped thread takes ≈ 80 µs and reading the machine's
/// parallelism ≈ 30 µs, while one characterization takes ≈ 1.5 µs: from
/// this size on, the four vectors' 4096 characterizations take ≈ 6 ms,
/// so starting a worker costs under 2 % of the work it shares.
const PARALLEL_MIN_EDGES: usize = 1 << 10;

/// Edges per characterization job (≈ 1.5 ms of work). Job boundaries
/// depend only on the edge count, so each capacity comes from the same
/// call whichever thread takes its job; taking a job costs one uncontended
/// lock, and the last job to finish leaves the other threads idle for at
/// most one job's time.
const CHUNK_EDGES: usize = 1 << 10;

/// Construction parameters of a PPUF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpufConfig {
    /// Number of circuit nodes `n`.
    pub nodes: usize,
    /// Control-grid dimension `l` (paper §4.2; `l ≤ n`).
    pub grid: usize,
    /// Building-block design (the real device uses [`BlockDesign::Serial`]).
    pub design: BlockDesign,
    /// Supply voltage `V(s)` (paper: 2 V).
    pub supply: Volts,
    /// Reference voltage at which capacities are characterized.
    pub characterization_voltage: Volts,
    /// Process-variation statistics.
    pub process: ProcessVariation,
    /// Comparator parameters.
    pub comparator: Comparator,
    /// Paper §4.1 side-by-side differential placement: when `true`
    /// (default) both networks share die positions so systematic
    /// variation cancels in the comparator; `false` places network B a
    /// die-length away (the mitigation ablation).
    pub differential_placement: bool,
}

impl PpufConfig {
    /// The paper's §5 configuration at a given size: serial blocks, 2 V
    /// supply, σ(V_th) = 35 mV.
    pub fn paper(nodes: usize, grid: usize) -> Self {
        PpufConfig {
            nodes,
            grid,
            design: BlockDesign::Serial,
            supply: Volts(2.0),
            characterization_voltage: Volts(1.0),
            process: ProcessVariation::new(),
            comparator: Comparator::default(),
            differential_placement: true,
        }
    }

    fn validate(&self) -> Result<(), PpufError> {
        if self.nodes < 2 {
            return Err(PpufError::InvalidConfig {
                reason: format!("need at least 2 nodes, got {}", self.nodes),
            });
        }
        if self.grid == 0 || self.grid > self.nodes {
            return Err(PpufError::InvalidConfig {
                reason: format!("grid {} must be in 1..={}", self.grid, self.nodes),
            });
        }
        // a non-positive reference voltage publishes all-zero capacities,
        // under which every response is unresolvable
        for (name, volts) in
            [("supply", self.supply), ("characterization voltage", self.characterization_voltage)]
        {
            if !(volts.value().is_finite() && volts.value() > 0.0) {
                return Err(PpufError::InvalidConfig {
                    reason: format!("{name} must be finite and positive, got {volts}"),
                });
            }
        }
        Ok(())
    }
}

/// Worker threads for generating or characterizing a device with `edges`
/// blocks per network: the machine's available parallelism, or the
/// calling thread alone below [`PARALLEL_MIN_EDGES`].
fn setup_threads(edges: usize) -> usize {
    if edges < PARALLEL_MIN_EDGES {
        1
    } else {
        available_threads()
    }
}

/// Result of one device evaluation (either path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionOutcome {
    /// Source current of network A.
    pub current_a: Amps,
    /// Source current of network B.
    pub current_b: Amps,
    /// Comparator verdict; `None` inside the resolution dead-zone.
    pub response: Option<bool>,
}

impl ExecutionOutcome {
    /// Magnitude of the A−B current difference (the Fig 8 measurability
    /// quantity).
    pub fn difference(&self) -> Amps {
        (self.current_a - self.current_b).abs()
    }
}

/// A fabricated PPUF instance.
///
/// ```
/// use ppuf_core::device::{Ppuf, PpufConfig};
/// use ppuf_analog::variation::Environment;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ppuf_core::PpufError> {
/// let ppuf = Ppuf::generate(PpufConfig::paper(10, 3), 42)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let challenge = ppuf.challenge_space().random(&mut rng);
/// let executor = ppuf.executor(Environment::NOMINAL);
/// let outcome = executor.execute_flow(&challenge)?;
/// assert!(outcome.current_a.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ppuf {
    config: PpufConfig,
    grid: GridPartition,
    network_a: CrossbarNetwork,
    network_b: CrossbarNetwork,
}

impl Ppuf {
    /// "Fabricates" a PPUF: samples process variation for both crossbars
    /// from a deterministic seed.
    ///
    /// Both networks share positions (and therefore systematic variation)
    /// per the §4.1 differential placement, but draw independent random
    /// variation, each from its own stream, so a large device samples
    /// them on two threads.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] for inconsistent parameters.
    pub fn generate(config: PpufConfig, seed: u64) -> Result<Self, PpufError> {
        config.validate()?;
        let threads = setup_threads(config.nodes * (config.nodes - 1));
        Self::generate_on(config, seed, threads)
    }

    /// [`generate`](Self::generate) for a validated `config`: with more
    /// than one thread, network B is sampled on a scoped thread, into
    /// storage the caller allocated, while the caller samples network A.
    /// Neither reads the other's stream, so the device is the same for
    /// any thread count.
    pub(crate) fn generate_on(
        config: PpufConfig,
        seed: u64,
        threads: usize,
    ) -> Result<Self, PpufError> {
        let grid = GridPartition::new(config.nodes, config.grid)?;
        let offset_b = if config.differential_placement { (0.0, 0.0) } else { (1.0, 1.0) };
        let sample = |index, offset, storage| {
            CrossbarNetwork::sample_into(
                storage,
                config.nodes,
                config.design,
                &config.process,
                &mut stream(seed, index),
                offset,
            )
        };
        let storage = || Vec::with_capacity(config.nodes * (config.nodes - 1));
        let (network_a, network_b) = if threads > 1 {
            let storage_b = storage();
            std::thread::scope(|scope| {
                let network_b = scope.spawn(|| sample(0xB, offset_b, storage_b));
                let network_a = sample(0xA, (0.0, 0.0), storage());
                (network_a, network_b.join().expect("network B sampler panicked"))
            })
        } else {
            (sample(0xA, (0.0, 0.0), storage()), sample(0xB, offset_b, storage()))
        };
        Ok(Ppuf { config, grid, network_a: network_a?, network_b: network_b? })
    }

    /// The construction parameters.
    pub fn config(&self) -> &PpufConfig {
        &self.config
    }

    /// Number of circuit nodes.
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// The challenge space this device accepts.
    pub fn challenge_space(&self) -> ChallengeSpace {
        self.grid.challenge_space().expect("config was validated at construction")
    }

    /// The control-grid partition.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// One of the two crossbar networks.
    pub fn network(&self, side: NetworkSide) -> &CrossbarNetwork {
        match side {
            NetworkSide::A => &self.network_a,
            NetworkSide::B => &self.network_b,
        }
    }

    /// Samples a uniform random challenge.
    pub fn random_challenge<R: Rng + ?Sized>(&self, rng: &mut R) -> Challenge {
        self.challenge_space().random(rng)
    }

    /// The characterization step: publishes per-edge capacities for both
    /// networks and both input bits, measured at nominal conditions.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] if the model fails
    /// [`PublicModel::check_shape`], e.g. on a capacity that is not a
    /// finite non-negative number.
    ///
    /// A caller that also needs the chip at nominal conditions should
    /// build [`executor(Environment::NOMINAL)`](Self::executor) once and
    /// read this model from its [`model`](PpufExecutor::model): each call
    /// characterizes every block again.
    pub fn public_model(&self) -> Result<PublicModel, PpufError> {
        let threads = setup_threads(self.network_a.block_count());
        let model = self.characterize(Environment::NOMINAL, threads);
        model.check_shape()?;
        Ok(model)
    }

    /// Binds the device to an environmental condition, producing an
    /// executor whose flow path is the device characterized under that
    /// condition.
    pub fn executor(&self, env: Environment) -> PpufExecutor<'_> {
        let threads = setup_threads(self.network_a.block_count());
        PpufExecutor { device: self, env, model: self.characterize(env, threads) }
    }

    /// Both networks' capacities under `env`, both input bits, at the
    /// characterization voltage scaled with the supply rail, on `threads`
    /// threads counting the caller.
    ///
    /// The four vectors are allocated here and cut into chunks of
    /// [`CHUNK_EDGES`] edges; each thread takes the next chunk and writes
    /// its capacities in place by [`CrossbarNetwork::characterize_into`],
    /// the rule of [`CrossbarNetwork::capacities_for_bit`]. Every slot is
    /// written once, by the same call for any thread count.
    pub(crate) fn characterize(&self, env: Environment, threads: usize) -> PublicModel {
        let v_ref = env.scaled_supply(self.config.characterization_voltage);
        let edges = self.network_a.block_count();
        let zeros = || PublishedCapacities { bit0: vec![0.0; edges], bit1: vec![0.0; edges] };
        let (mut a, mut b) = (zeros(), zeros());
        {
            let jobs = [
                (&self.network_a, false, &mut a.bit0),
                (&self.network_a, true, &mut a.bit1),
                (&self.network_b, false, &mut b.bit0),
                (&self.network_b, true, &mut b.bit1),
            ]
            .into_iter()
            .flat_map(|(net, bit, values)| {
                values
                    .chunks_mut(CHUNK_EDGES)
                    .enumerate()
                    .map(move |(c, chunk)| (net, bit, c * CHUNK_EDGES, chunk))
            });
            let jobs = Mutex::new(jobs);
            let work = || loop {
                // the guard drops at the end of this statement, before the job runs
                let job = jobs.lock().expect("characterization job queue poisoned").next();
                let Some((net, bit, start, chunk)) = job else { break };
                net.characterize_into(bit, v_ref, env, start, chunk);
            };
            std::thread::scope(|scope| {
                for _ in 1..threads {
                    scope.spawn(work);
                }
                work();
            });
        }
        PublicModel::unchecked(self.config.nodes, self.grid, a, b, self.config.comparator)
    }

    /// Estimated energy per evaluation at size `n` (paper §5): crossbar
    /// power (both networks at `V(s)`) plus comparator power, times the
    /// execution delay.
    pub fn power_estimate(&self, average_current: Amps, delay: Seconds) -> (Watts, Joules) {
        let crossbars = self.config.supply * average_current * 2.0;
        let total = Watts(crossbars.value() + self.config.comparator.power.value());
        (total, total * delay)
    }
}

/// A device bound to an environment, ready to answer challenges.
#[derive(Debug, Clone)]
pub struct PpufExecutor<'a> {
    device: &'a Ppuf,
    env: Environment,
    /// The device's flow model: its capacities characterized under `env`.
    model: PublicModel,
}

impl PpufExecutor<'_> {
    /// The bound environment.
    pub fn environment(&self) -> Environment {
        self.env
    }

    /// The underlying device.
    pub fn device(&self) -> &Ppuf {
        self.device
    }

    /// The flow model of the fast path: the device characterized under
    /// the bound environment ([`Ppuf::public_model`] at nominal).
    pub fn model(&self) -> &PublicModel {
        &self.model
    }

    /// **Chip path**: solves the analog DC operating point of both
    /// crossbars and compares the source currents.
    ///
    /// # Errors
    ///
    /// Propagates challenge validation and Newton-convergence errors.
    pub fn execute(&self, challenge: &Challenge) -> Result<ExecutionOutcome, PpufError> {
        let i_a = self.execute_network(NetworkSide::A, challenge)?;
        let i_b = self.execute_network(NetworkSide::B, challenge)?;
        Ok(ExecutionOutcome {
            current_a: i_a,
            current_b: i_b,
            response: self.device.config.comparator.compare(i_a, i_b),
        })
    }

    /// Analog source current of one network under a challenge.
    ///
    /// # Errors
    ///
    /// Propagates challenge validation and Newton-convergence errors.
    pub fn execute_network(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
    ) -> Result<Amps, PpufError> {
        let supply = self.env.scaled_supply(self.device.config.supply);
        let circuit = self.device.network(side).circuit(challenge, &self.device.grid)?;
        let options = DcOptions { temperature: self.env.temperature, ..DcOptions::default() };
        let solution = circuit
            .solve_dc(
                challenge.source.index() as u32,
                challenge.sink.index() as u32,
                supply,
                &options,
            )
            .map_err(PpufError::Execution)?;
        Ok(solution.source_current)
    }

    /// **Fast ground-truth path**: the device's behaviour through the flow
    /// model with environment-specific capacities. Used for the paper's
    /// statistical populations; justified by the Fig 6 equivalence.
    ///
    /// # Errors
    ///
    /// Propagates challenge validation and solver errors.
    pub fn execute_flow(&self, challenge: &Challenge) -> Result<ExecutionOutcome, PpufError> {
        let SimulationOutcome { current_a, current_b, response, .. } =
            self.execute_flow_detailed(challenge)?;
        Ok(ExecutionOutcome { current_a, current_b, response })
    }

    /// Like [`execute_flow`](Self::execute_flow) but returns the full flow
    /// functions (for the verification protocol).
    ///
    /// # Errors
    ///
    /// Propagates challenge validation and solver errors.
    pub fn execute_flow_detailed(
        &self,
        challenge: &Challenge,
    ) -> Result<SimulationOutcome, PpufError> {
        self.model.simulate(challenge, &Dinic::new())
    }

    /// The environment-specific max-flow instance of one network.
    ///
    /// # Errors
    ///
    /// Propagates challenge validation errors, and reports an unusable
    /// characterized capacity as [`PpufError::Simulation`].
    pub fn flow_network(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
    ) -> Result<FlowNetwork, PpufError> {
        self.model.flow_network(side, challenge)
    }

    /// The response bit via the fast path.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::UnresolvableResponse`] on a metastable
    /// comparison, plus any solver errors.
    pub fn response(&self, challenge: &Challenge) -> Result<bool, PpufError> {
        self.model.response(challenge)
    }
}

/// Convenience: the error type for a failed analog convergence, re-exported
/// for downstream matching.
pub type ExecutionError = SolveError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::edge_index;
    use ppuf_analog::units::Celsius;
    use ppuf_maxflow::MaxFlowSolver;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_ppuf(seed: u64) -> Ppuf {
        Ppuf::generate(PpufConfig::paper(8, 2), seed).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Ppuf::generate(PpufConfig::paper(1, 1), 0).is_err());
        assert!(Ppuf::generate(PpufConfig::paper(10, 11), 0).is_err());
        // either voltage must be finite and positive: at 0, below or NaN
        // the characterization publishes all-zero capacities and no
        // response resolves
        for bad in [Volts(0.0), Volts(-1.0), Volts(f64::NAN), Volts(f64::INFINITY)] {
            let mut cfg = PpufConfig::paper(10, 2);
            cfg.supply = bad;
            let refused = Ppuf::generate(cfg, 0);
            assert!(matches!(refused, Err(PpufError::InvalidConfig { .. })), "supply {bad}");
            let mut cfg = PpufConfig::paper(10, 2);
            cfg.characterization_voltage = bad;
            let refused = Ppuf::generate(cfg, 0);
            assert!(
                matches!(refused, Err(PpufError::InvalidConfig { .. })),
                "characterization voltage {bad}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(small_ppuf(5), small_ppuf(5));
        assert_ne!(small_ppuf(5), small_ppuf(6));
    }

    #[test]
    fn set_up_is_bitwise_the_same_on_any_thread_count() {
        // above the serial cut-off, two chunks per vector, and a grid
        // that does not divide the node count
        let config = PpufConfig::paper(40, 7);
        const { assert!(40 * 39 >= PARALLEL_MIN_EDGES && 40 * 39 > CHUNK_EDGES) };
        let p = Ppuf::generate_on(config.clone(), 17, 1).unwrap();
        for threads in [2, 4] {
            assert_eq!(Ppuf::generate_on(config.clone(), 17, threads).unwrap(), p, "{threads}");
        }
        assert_eq!(Ppuf::generate(config, 17).unwrap(), p);
        let v_ref = p.config().characterization_voltage;
        for env in [Environment::NOMINAL, Environment::new(0.9, Celsius(-20.0))] {
            let oracle =
                |side, bit| p.network(side).capacities_for_bit(bit, env.scaled_supply(v_ref), env);
            for threads in [1, 2, 4] {
                let model = p.characterize(env, threads);
                for side in NetworkSide::BOTH {
                    let published = model.capacities(side);
                    for (bit, values) in [(false, &published.bit0), (true, &published.bit1)] {
                        let expected = oracle(side, bit);
                        assert_eq!(values.len(), expected.len());
                        let first_difference = values
                            .iter()
                            .zip(&expected)
                            .position(|(v, e)| v.to_bits() != e.value().to_bits());
                        assert_eq!(
                            first_difference, None,
                            "{env:?} {side:?} bit {bit}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn networks_differ_but_share_design() {
        let p = small_ppuf(1);
        assert_ne!(p.network(NetworkSide::A), p.network(NetworkSide::B));
        assert_eq!(p.network(NetworkSide::A).design(), p.network(NetworkSide::B).design());
    }

    #[test]
    fn flow_path_produces_sane_currents() {
        let p = small_ppuf(2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let executor = p.executor(Environment::NOMINAL);
        for _ in 0..10 {
            let c = p.random_challenge(&mut rng);
            let out = executor.execute_flow(&c).unwrap();
            // 7 source edges × tens of nA → order 100 nA
            for i in [out.current_a, out.current_b] {
                assert!((1e-9..1e-5).contains(&i.value()), "{i}");
            }
        }
    }

    #[test]
    fn analog_and_flow_paths_agree_per_network() {
        // the Fig 6 property at unit-test scale
        let p = small_ppuf(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let c = p.random_challenge(&mut rng);
        let executor = p.executor(Environment::NOMINAL);
        for side in NetworkSide::BOTH {
            let analog = executor.execute_network(side, &c).unwrap().value();
            let flow_net = executor.flow_network(side, &c).unwrap();
            let flow = Dinic::new().max_flow(&flow_net, c.source, c.sink).unwrap().value();
            let inaccuracy = (analog - flow).abs() / analog;
            assert!(inaccuracy < 0.02, "{side:?}: analog {analog} vs flow {flow}");
        }
    }

    #[test]
    fn response_is_deterministic() {
        let p = small_ppuf(7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let c = p.random_challenge(&mut rng);
        let executor = p.executor(Environment::NOMINAL);
        let r1 = executor.response(&c);
        let r2 = executor.response(&c);
        match (r1, r2) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(PpufError::UnresolvableResponse { .. }), Err(_)) => {}
            (a, b) => panic!("inconsistent: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn public_model_matches_nominal_executor() {
        let p = small_ppuf(9);
        let model = p.public_model().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let executor = p.executor(Environment::NOMINAL);
        for _ in 0..10 {
            let c = p.random_challenge(&mut rng);
            let device = executor.execute_flow(&c).unwrap();
            let public = model.simulate(&c, &Dinic::new()).unwrap();
            assert!((device.current_a.value() - public.current_a.value()).abs() < 1e-15);
            assert_eq!(device.response, public.response);
        }
    }

    #[test]
    fn executor_model_is_the_device_characterized_under_its_environment() {
        let p = small_ppuf(15);
        let v_ref = p.config().characterization_voltage;
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        // nominal and two Table 1 corners
        for env in [
            Environment::NOMINAL,
            Environment::new(0.9, Celsius(-20.0)),
            Environment::new(1.1, Celsius(80.0)),
        ] {
            for side in NetworkSide::BOTH {
                let oracle =
                    |bit| p.network(side).capacities_for_bit(bit, env.scaled_supply(v_ref), env);
                let (bit0, bit1) = (oracle(false), oracle(true));
                let c = p.random_challenge(&mut rng);
                let net = p.executor(env).flow_network(side, &c).unwrap();
                assert_eq!(net.edge_count(), bit0.len());
                for (_, e) in net.edges() {
                    let k = edge_index(p.nodes(), e.from, e.to);
                    let bit = c.control_bits[p.grid().cell_of_edge(e.from, e.to)];
                    let expected = if bit { bit1[k] } else { bit0[k] }.value();
                    assert_eq!(e.capacity.to_bits(), expected.to_bits(), "{env:?} {side:?} {k}");
                }
            }
        }
        assert_eq!(p.executor(Environment::NOMINAL).model(), &p.public_model().unwrap());
    }

    #[test]
    fn environment_changes_currents() {
        let p = small_ppuf(11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let c = p.random_challenge(&mut rng);
        let nominal = p.executor(Environment::NOMINAL).execute_flow(&c).unwrap();
        let hot = p
            .executor(Environment::new(0.9, ppuf_analog::units::Celsius(80.0)))
            .execute_flow(&c)
            .unwrap();
        assert!(
            (nominal.current_a.value() - hot.current_a.value()).abs() > 1e-12,
            "environment must shift the operating point"
        );
    }

    #[test]
    fn power_estimate_matches_paper_arithmetic() {
        let p = small_ppuf(13);
        // paper §5: 33.6 µA per crossbar, 2 V, comparator 153 µW, 1 µs
        let (power, energy) = p.power_estimate(Amps(33.6e-6), Seconds(1e-6));
        assert!((power.value() - (134.4e-6 + 153e-6)).abs() < 1e-9, "{power}");
        assert!((energy.value() - 287.4e-12).abs() < 1e-15, "{energy}");
    }
}
