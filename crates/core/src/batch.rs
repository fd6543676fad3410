//! Parallel batched evaluation: many challenges × many device instances.
//!
//! The population experiments (Table 1, Fig 8) and the attack dataset
//! generator (Fig 10) all evaluate the same shape of workload — a grid of
//! (device, challenge) pairs — one pair at a time through the flow path
//! ([`PpufExecutor::execute_flow`]). [`EvalBatch`] runs that grid across
//! worker threads.
//!
//! Work is partitioned so that the *result* never depends on the thread
//! count: a parallel job is a fixed-size chunk of one device's challenges
//! (solves are independent), the split is a pure function of the grid
//! shape, and no job reads state written by another.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::challenge::Challenge;
use crate::device::{ExecutionOutcome, PpufExecutor};
use crate::error::PpufError;

/// Challenges per job: small enough to load-balance, large enough that
/// job dispatch never dominates.
const CHUNK: usize = 64;

/// One job's outcomes, tagged with the job's index in the job list.
type JobResults = (usize, Vec<Result<ExecutionOutcome, PpufError>>);

/// A batched evaluator over a (device, challenge) grid.
///
/// ```
/// use ppuf_core::batch::EvalBatch;
/// use ppuf_core::device::{Ppuf, PpufConfig};
/// use ppuf_analog::variation::Environment;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ppuf_core::PpufError> {
/// let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 1)?;
/// let executor = ppuf.executor(Environment::NOMINAL);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let challenges: Vec<_> = (0..4).map(|_| ppuf.random_challenge(&mut rng)).collect();
/// let batch = EvalBatch::new(0);
/// let results = batch.run(std::slice::from_ref(&executor), &challenges);
/// assert_eq!(results.device_count(), 1);
/// assert!(results.outcome(0, 0).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalBatch {
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

/// The machine's available parallelism, or 1 where it cannot be read:
/// the worker count of `EvalBatch::new(0)` and of a device's set-up.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl EvalBatch {
    /// Creates a batch evaluator on `threads` workers; `0` resolves to the
    /// machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { available_threads() } else { threads };
        EvalBatch { threads }
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
        let jobs = Self::partition(executors, challenges);
        let workers = self.threads.min(jobs.len());
        let mut grid: Vec<Option<Result<ExecutionOutcome, PpufError>>> =
            vec![None; executors.len() * challenges.len()];
        if workers <= 1 {
            for job in &jobs {
                let results = Self::run_job(executors, challenges, job);
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
                                done.push((i, Self::run_job(executors, challenges, job)));
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

    /// Splits the grid into independent jobs of at most [`CHUNK`]
    /// challenges of one device. Partitioning is a pure function of the
    /// grid shape, so the job list (and therefore every job's work) is
    /// thread-count independent.
    fn partition(executors: &[PpufExecutor<'_>], challenges: &[Challenge]) -> Vec<Job> {
        (0..executors.len())
            .flat_map(|device| {
                (0..challenges.len()).step_by(CHUNK).map(move |start| Job {
                    device,
                    start,
                    end: (start + CHUNK).min(challenges.len()),
                })
            })
            .collect()
    }

    fn run_job(
        executors: &[PpufExecutor<'_>],
        challenges: &[Challenge],
        job: &Job,
    ) -> Vec<Result<ExecutionOutcome, PpufError>> {
        let executor = &executors[job.device];
        challenges[job.start..job.end].iter().map(|c| executor.execute_flow(c)).collect()
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
        let batch = EvalBatch::new(2);
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
    fn invalid_challenge_fails_only_its_slot() {
        let (ppufs, mut challenges) = fixtures(1, 3);
        challenges[1].control_bits.pop();
        let executor = ppufs[0].executor(Environment::NOMINAL);
        let results = EvalBatch::new(2).run(std::slice::from_ref(&executor), &challenges);
        assert_eq!(results.failure_count(), 1);
        assert!(results.outcome(0, 1).is_err());
        assert!(results.outcome(0, 0).is_ok() && results.outcome(0, 2).is_ok());
    }

    #[test]
    fn empty_grids_are_well_formed() {
        let (ppufs, challenges) = fixtures(1, 2);
        let executor = ppufs[0].executor(Environment::NOMINAL);
        let batch = EvalBatch::new(0);
        let no_challenges = batch.run(std::slice::from_ref(&executor), &[]);
        assert_eq!(no_challenges.device_count(), 0);
        assert_eq!(no_challenges.challenge_count(), 0);
        let no_devices = batch.run(&[], &challenges);
        assert_eq!(no_devices.device_count(), 0);
    }
}
