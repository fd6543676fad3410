//! Parallel batched evaluation: many challenges × many device instances.
//!
//! The population experiments (Table 1, Fig 7–10) and the attack dataset
//! generator all evaluate the same shape of workload — a grid of
//! (device, challenge) pairs — one pair at a time. [`EvalBatch`] runs that
//! grid across worker threads and, in the analog mode, keeps the expensive
//! per-device state alive across challenges:
//!
//! - the tabulated I–V curves of every block are built **once per device**
//!   (per input bit) instead of once per challenge, and
//! - each device's two crossbars get warm-started [`DcEngine`]s, so
//!   consecutive challenges start Newton from the previous operating point
//!   instead of solving cold from the lumped start.
//!
//! Work is partitioned so that the *result* never depends on the thread
//! count: a parallel job is either a whole device (analog mode — the warm
//! chain must see the device's challenges in order) or a fixed-size chunk
//! of one device's challenges (flow mode, where solves are independent),
//! and no job reads state written by another.

use std::sync::atomic::{AtomicUsize, Ordering};

use ppuf_analog::solver::{DcEngine, DcOptions, EngineOptions, TabulatedElement};
use ppuf_analog::units::{Amps, Volts};

use crate::challenge::Challenge;
use crate::crossbar::{assemble_circuit, edge_order};
use crate::device::{ExecutionOutcome, PpufExecutor};
use crate::error::PpufError;
use crate::public_model::NetworkSide;

/// Which evaluation path the batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// The fast ground-truth path: two max-flow computations per pair.
    #[default]
    Flow,
    /// The chip path: warm-started analog DC solves of both crossbars.
    Analog,
}

/// Configuration of an [`EvalBatch`]. The default runs the flow path on
/// all available parallelism with default engine options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOptions {
    /// Worker threads across the batch; `0` uses all available
    /// parallelism.
    pub threads: usize,
    /// Evaluation path.
    pub mode: EvalMode,
    /// Engine options for the analog path (inner solver threads, warm
    /// starting).
    pub engine: EngineOptions,
    /// Overrides the device's I–V table density in the analog path.
    pub table_samples: Option<usize>,
}

/// Challenges per flow-mode job: small enough to load-balance, large
/// enough that job dispatch never dominates.
const FLOW_CHUNK: usize = 64;

/// One job's outcomes, tagged with the job's index in the job list.
type JobResults = (usize, Vec<Result<ExecutionOutcome, PpufError>>);

/// A batched evaluator over a (device, challenge) grid.
///
/// ```
/// use ppuf_core::batch::{BatchOptions, EvalBatch};
/// use ppuf_core::device::{Ppuf, PpufConfig};
/// use ppuf_analog::variation::Environment;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ppuf_core::PpufError> {
/// let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 1)?;
/// let executor = ppuf.executor(Environment::NOMINAL);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let challenges: Vec<_> = (0..4).map(|_| ppuf.random_challenge(&mut rng)).collect();
/// let batch = EvalBatch::new(BatchOptions::default());
/// let results = batch.run(std::slice::from_ref(&executor), &challenges);
/// assert_eq!(results.device_count(), 1);
/// assert!(results.outcome(0, 0).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalBatch {
    options: BatchOptions,
    threads: usize,
}

/// Per-(device, challenge) outcomes of one batch run, in row-major order
/// (device major, challenge minor).
#[derive(Debug, Clone)]
pub struct BatchResults {
    challenge_count: usize,
    outcomes: Vec<Result<ExecutionOutcome, PpufError>>,
}

impl BatchResults {
    /// Number of device rows.
    pub fn device_count(&self) -> usize {
        self.outcomes.len().checked_div(self.challenge_count).unwrap_or(0)
    }

    /// Number of challenge columns.
    pub fn challenge_count(&self) -> usize {
        self.challenge_count
    }

    /// The outcome of one (device, challenge) pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn outcome(&self, device: usize, challenge: usize) -> &Result<ExecutionOutcome, PpufError> {
        assert!(challenge < self.challenge_count, "challenge {challenge} out of range");
        &self.outcomes[device * self.challenge_count + challenge]
    }

    /// All outcomes of one device, in challenge order.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn device_row(&self, device: usize) -> &[Result<ExecutionOutcome, PpufError>] {
        let start = device * self.challenge_count;
        &self.outcomes[start..start + self.challenge_count]
    }

    /// All outcomes in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = &Result<ExecutionOutcome, PpufError>> {
        self.outcomes.iter()
    }

    /// Number of failed evaluations in the grid.
    pub fn failure_count(&self) -> usize {
        self.outcomes.iter().filter(|r| r.is_err()).count()
    }
}

impl EvalBatch {
    /// Creates a batch evaluator; `threads == 0` resolves to the machine's
    /// available parallelism.
    pub fn new(options: BatchOptions) -> Self {
        let threads = if options.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            options.threads
        };
        EvalBatch { options, threads }
    }

    /// The configured options.
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every executor against every challenge.
    ///
    /// The grid of results is identical for any thread count: parallelism
    /// only changes which worker runs a job, never what a job computes.
    pub fn run(&self, executors: &[PpufExecutor<'_>], challenges: &[Challenge]) -> BatchResults {
        let jobs = self.partition(executors, challenges);
        let workers = self.threads.min(jobs.len());
        let mut grid: Vec<Option<Result<ExecutionOutcome, PpufError>>> =
            vec![None; executors.len() * challenges.len()];
        if workers <= 1 {
            for job in &jobs {
                let results = self.run_job(executors, challenges, job);
                place(&mut grid, challenges.len(), job, results);
            }
        } else {
            let next = AtomicUsize::new(0);
            let completed: Vec<Vec<JobResults>> = crossbeam::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (jobs, next) = (&jobs, &next);
                        scope.spawn(move |_| {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(job) = jobs.get(i) else { break };
                                done.push((i, self.run_job(executors, challenges, job)));
                            }
                            done
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
            })
            .expect("batch scope failed");
            for (i, results) in completed.into_iter().flatten() {
                place(&mut grid, challenges.len(), &jobs[i], results);
            }
        }
        BatchResults {
            challenge_count: challenges.len(),
            outcomes: grid
                .into_iter()
                .map(|slot| slot.expect("every grid slot is covered by exactly one job"))
                .collect(),
        }
    }

    /// Splits the grid into independent jobs. Partitioning is a pure
    /// function of the grid shape, so the job list (and therefore every
    /// job's work) is thread-count independent.
    fn partition(&self, executors: &[PpufExecutor<'_>], challenges: &[Challenge]) -> Vec<Job> {
        let mut jobs = Vec::new();
        for device in 0..executors.len() {
            match self.options.mode {
                // a device's warm chain must see its challenges in order
                EvalMode::Analog => {
                    if !challenges.is_empty() {
                        jobs.push(Job { device, start: 0, end: challenges.len() });
                    }
                }
                EvalMode::Flow => {
                    let mut start = 0;
                    while start < challenges.len() {
                        let end = (start + FLOW_CHUNK).min(challenges.len());
                        jobs.push(Job { device, start, end });
                        start = end;
                    }
                }
            }
        }
        jobs
    }

    fn run_job(
        &self,
        executors: &[PpufExecutor<'_>],
        challenges: &[Challenge],
        job: &Job,
    ) -> Vec<Result<ExecutionOutcome, PpufError>> {
        let executor = &executors[job.device];
        let chunk = &challenges[job.start..job.end];
        match self.options.mode {
            EvalMode::Flow => chunk.iter().map(|c| executor.execute_flow(c)).collect(),
            EvalMode::Analog => self.run_analog_device(executor, chunk),
        }
    }

    /// Analog evaluation of one device's challenge chunk: tables built
    /// once, both engines warm-chained across the chunk.
    fn run_analog_device(
        &self,
        executor: &PpufExecutor<'_>,
        chunk: &[Challenge],
    ) -> Vec<Result<ExecutionOutcome, PpufError>> {
        let device = executor.device();
        let cfg = device.config();
        let env = executor.environment();
        let samples = self.options.table_samples.unwrap_or(cfg.table_samples);
        let supply = env.scaled_supply(cfg.supply);
        let v_max = Volts(supply.value() * 1.25);
        let options = DcOptions { temperature: env.temperature, ..DcOptions::default() };
        let tables_a = NetTables::build(executor, NetworkSide::A, v_max, samples);
        let tables_b = NetTables::build(executor, NetworkSide::B, v_max, samples);
        let mut engine_a = DcEngine::new(self.options.engine);
        let mut engine_b = DcEngine::new(self.options.engine);
        chunk
            .iter()
            .map(|challenge| {
                let i_a = tables_a.solve(executor, challenge, &mut engine_a, supply, &options)?;
                let i_b = tables_b.solve(executor, challenge, &mut engine_b, supply, &options)?;
                Ok(ExecutionOutcome {
                    current_a: i_a,
                    current_b: i_b,
                    response: cfg.comparator.compare(i_a, i_b),
                })
            })
            .collect()
    }
}

/// One unit of parallel work: device `device`, challenges `start..end`.
#[derive(Debug, Clone, Copy)]
struct Job {
    device: usize,
    start: usize,
    end: usize,
}

fn place(
    grid: &mut [Option<Result<ExecutionOutcome, PpufError>>],
    challenge_count: usize,
    job: &Job,
    results: Vec<Result<ExecutionOutcome, PpufError>>,
) {
    debug_assert_eq!(results.len(), job.end - job.start);
    let base = job.device * challenge_count + job.start;
    for (slot, result) in grid[base..base + results.len()].iter_mut().zip(results) {
        *slot = Some(result);
    }
}

/// Challenge-independent tabulated I–V curves of one network, both input
/// bits, in dense edge order. A challenge only *selects* between the two
/// tables per edge, so one build serves every challenge of the device.
struct NetTables {
    bit0: Vec<TabulatedElement>,
    bit1: Vec<TabulatedElement>,
}

impl NetTables {
    fn build(executor: &PpufExecutor<'_>, side: NetworkSide, v_max: Volts, samples: usize) -> Self {
        let net = executor.device().network(side);
        let temp = executor.environment().temperature;
        let table = |bit: bool| {
            edge_order(net.nodes())
                .map(|(from, to)| {
                    TabulatedElement::from_block(&net.block(from, to, bit), v_max, samples, temp)
                })
                .collect()
        };
        NetTables { bit0: table(false), bit1: table(true) }
    }

    /// Warm-started source current of this network under one challenge
    /// (an invalid challenge fails before the engine sees it).
    fn solve(
        &self,
        executor: &PpufExecutor<'_>,
        challenge: &Challenge,
        engine: &mut DcEngine,
        supply: Volts,
        options: &DcOptions,
    ) -> Result<Amps, PpufError> {
        let device = executor.device();
        let circuit = assemble_circuit(device.nodes(), device.grid(), challenge, |k, bit| {
            if bit {
                &self.bit1[k]
            } else {
                &self.bit0[k]
            }
        })?;
        let solution = engine
            .solve(
                &circuit,
                challenge.source.index() as u32,
                challenge.sink.index() as u32,
                supply,
                options,
            )
            .map_err(PpufError::Execution)?;
        Ok(solution.source_current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Ppuf, PpufConfig};
    use ppuf_analog::variation::Environment;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixtures(devices: usize, challenges: usize) -> (Vec<Ppuf>, Vec<Challenge>) {
        let ppufs: Vec<Ppuf> = (0..devices)
            .map(|i| Ppuf::generate(PpufConfig::paper(8, 2), 0xBA7C + i as u64).unwrap())
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let space = ppufs[0].challenge_space();
        let challenges = (0..challenges).map(|_| space.random(&mut rng)).collect();
        (ppufs, challenges)
    }

    #[test]
    fn flow_batch_matches_serial_executor() {
        let (ppufs, challenges) = fixtures(2, 7);
        let executors: Vec<_> = ppufs.iter().map(|p| p.executor(Environment::NOMINAL)).collect();
        let batch = EvalBatch::new(BatchOptions { threads: 2, ..Default::default() });
        let results = batch.run(&executors, &challenges);
        assert_eq!(results.device_count(), 2);
        assert_eq!(results.challenge_count(), 7);
        assert_eq!(results.failure_count(), 0);
        for (d, executor) in executors.iter().enumerate() {
            for (c, challenge) in challenges.iter().enumerate() {
                let direct = executor.execute_flow(challenge).unwrap();
                let batched = results.outcome(d, c).as_ref().unwrap();
                assert_eq!(batched.current_a.value().to_bits(), direct.current_a.value().to_bits());
                assert_eq!(batched.current_b.value().to_bits(), direct.current_b.value().to_bits());
                assert_eq!(batched.response, direct.response);
            }
        }
    }

    #[test]
    fn analog_batch_agrees_with_cold_executor() {
        let (ppufs, challenges) = fixtures(1, 3);
        let executor = ppufs[0].executor(Environment::NOMINAL);
        let batch = EvalBatch::new(BatchOptions {
            threads: 1,
            mode: EvalMode::Analog,
            table_samples: Some(256),
            ..Default::default()
        });
        let results = batch.run(std::slice::from_ref(&executor), &challenges);
        assert_eq!(results.failure_count(), 0);
        for (c, challenge) in challenges.iter().enumerate() {
            let batched = results.outcome(0, c).as_ref().unwrap();
            let direct_a = executor.execute_network(NetworkSide::A, challenge).unwrap();
            // the batch uses the same table density it was given, the
            // executor uses the config's: compare at matched density via
            // relative tolerance (both are the same operating point)
            let rel = (batched.current_a.value() - direct_a.value()).abs() / direct_a.value();
            assert!(
                rel < 2e-2,
                "challenge {c}: batched {} vs direct {direct_a}",
                batched.current_a
            );
        }
    }

    #[test]
    fn invalid_challenge_fails_only_its_slot() {
        let (ppufs, mut challenges) = fixtures(1, 3);
        challenges[1].control_bits.pop();
        let executor = ppufs[0].executor(Environment::NOMINAL);
        for mode in [EvalMode::Flow, EvalMode::Analog] {
            let batch = EvalBatch::new(BatchOptions {
                threads: 2,
                mode,
                table_samples: Some(64),
                ..Default::default()
            });
            let results = batch.run(std::slice::from_ref(&executor), &challenges);
            assert_eq!(results.failure_count(), 1, "{mode:?}");
            assert!(results.outcome(0, 1).is_err(), "{mode:?}");
            assert!(results.outcome(0, 0).is_ok() && results.outcome(0, 2).is_ok(), "{mode:?}");
        }
    }

    #[test]
    fn empty_grids_are_well_formed() {
        let (ppufs, challenges) = fixtures(1, 2);
        let executor = ppufs[0].executor(Environment::NOMINAL);
        let batch = EvalBatch::new(BatchOptions::default());
        let no_challenges = batch.run(std::slice::from_ref(&executor), &[]);
        assert_eq!(no_challenges.device_count(), 0);
        assert_eq!(no_challenges.challenge_count(), 0);
        let no_devices = batch.run(&[], &challenges);
        assert_eq!(no_devices.device_count(), 0);
    }
}
