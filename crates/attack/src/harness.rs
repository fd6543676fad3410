//! The model-building attack harness (paper Fig 10).
//!
//! For each training-set size the harness collects CRPs from a response
//! oracle, trains the RBF-SVM and a sweep of KNN models
//! (`K = 1, 3, …, 21`), and reports the **minimum** prediction error on a
//! held-out test set — the paper's (attacker-favouring) convention.

use std::time::Instant;

use rand::Rng;

use ppuf_analog::variation::Environment;
use ppuf_core::batch::{BatchOptions, EvalBatch};
use ppuf_core::challenge::Challenge;
use ppuf_core::device::Ppuf;
use ppuf_core::PpufError;
use ppuf_telemetry::{Recorder, Span, NOOP};

use crate::arbiter::ArbiterPuf;
use crate::dataset::Dataset;
use crate::features::{parity_features, sign_features};
use crate::knn::KnnModel;
use crate::linear::{LinearSvm, LinearSvmParams};
use crate::logistic::{LogisticModel, LogisticParams};
use crate::svm::{Kernel, SvmModel, SvmParams};

/// Anything that answers bit-vector challenges with a response bit.
///
/// The harness is PUF-agnostic: the PPUF (via [`PpufOracle`]) and the
/// arbiter baseline (via [`ArbiterOracle`]) plug in here.
pub trait ResponseOracle {
    /// Challenge length in bits.
    fn challenge_bits(&self) -> usize;

    /// The oracle's response to a challenge.
    ///
    /// # Errors
    ///
    /// Implementations may fail (e.g. a metastable PPUF comparison); the
    /// harness skips failed queries.
    fn respond<R: Rng + ?Sized>(&self, bits: &[bool], rng: &mut R) -> Result<bool, PpufError>;

    /// Answers a whole block of challenges, one result per challenge.
    ///
    /// The default queries [`respond`](Self::respond) serially; oracles
    /// with a cheaper batched path (the PPUF, via [`EvalBatch`]) override
    /// it.
    fn respond_many<R: Rng + ?Sized>(
        &self,
        challenges: &[Vec<bool>],
        rng: &mut R,
    ) -> Vec<Result<bool, PpufError>> {
        challenges.iter().map(|bits| self.respond(bits, rng)).collect()
    }

    /// Maps a challenge to attack features (default: ±1 encoding).
    fn features(&self, bits: &[bool]) -> Vec<f64> {
        sign_features(bits)
    }
}

/// A PPUF exposed through its type-B control bits, with fixed terminals —
/// the Fig 10 setting that matches the arbiter PUF's input length.
#[derive(Debug)]
pub struct PpufOracle<'a> {
    executor: ppuf_core::PpufExecutor<'a>,
    template: Challenge,
    batch: EvalBatch,
}

impl<'a> PpufOracle<'a> {
    /// Wraps a device at nominal conditions, fixing the terminals of
    /// `template` and letting the attacker drive the control bits.
    pub fn new(ppuf: &'a Ppuf, template: Challenge) -> Self {
        PpufOracle {
            executor: ppuf.executor(Environment::NOMINAL),
            template,
            batch: EvalBatch::new(BatchOptions::default()),
        }
    }

    fn full_challenge(&self, bits: &[bool]) -> Challenge {
        let mut challenge = self.template.clone();
        challenge.control_bits = bits.to_vec();
        challenge
    }
}

impl ResponseOracle for PpufOracle<'_> {
    fn challenge_bits(&self) -> usize {
        self.template.control_bits.len()
    }

    fn respond<R: Rng + ?Sized>(&self, bits: &[bool], _rng: &mut R) -> Result<bool, PpufError> {
        self.executor.response(&self.full_challenge(bits))
    }

    fn respond_many<R: Rng + ?Sized>(
        &self,
        challenges: &[Vec<bool>],
        _rng: &mut R,
    ) -> Vec<Result<bool, PpufError>> {
        let full: Vec<Challenge> = challenges.iter().map(|b| self.full_challenge(b)).collect();
        let comparator = self.executor.model().comparator();
        let results = self.batch.run(std::slice::from_ref(&self.executor), &full);
        results
            .device_row(0)
            .iter()
            .map(|outcome| match outcome {
                Ok(o) => comparator.resolve(o.current_a, o.current_b),
                Err(e) => Err(e.clone()),
            })
            .collect()
    }
}

/// The arbiter-PUF baseline oracle; uses parity features so the SVM sees
/// the linearly separable representation.
#[derive(Debug, Clone)]
pub struct ArbiterOracle {
    puf: ArbiterPuf,
}

impl ArbiterOracle {
    /// Wraps an arbiter PUF instance.
    pub fn new(puf: ArbiterPuf) -> Self {
        ArbiterOracle { puf }
    }
}

impl ResponseOracle for ArbiterOracle {
    fn challenge_bits(&self) -> usize {
        self.puf.stages()
    }

    fn respond<R: Rng + ?Sized>(&self, bits: &[bool], rng: &mut R) -> Result<bool, PpufError> {
        Ok(self.puf.respond(bits, rng))
    }

    fn features(&self, bits: &[bool]) -> Vec<f64> {
        parity_features(bits)
    }
}

/// Attack configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Held-out test-set size.
    pub test_size: usize,
    /// SMO training-set cap (kernel matrix is `O(cap²)` memory).
    pub svm_training_cap: usize,
    /// KNN vote counts to sweep (paper: 1, 3, …, 21).
    pub knn_ks: Vec<usize>,
    /// Soft-margin penalty for the SVM.
    pub svm_c: f64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            test_size: 500,
            svm_training_cap: 2000,
            knn_ks: (0..=10).map(|i| 2 * i + 1).collect(),
            svm_c: 1.0,
        }
    }
}

/// Outcome of one attack at one training size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackResult {
    /// CRPs observed by the attacker.
    pub observed_crps: usize,
    /// RBF-kernel SVM prediction error.
    pub svm_rbf_error: f64,
    /// Linear-kernel SVM prediction error.
    pub svm_linear_error: f64,
    /// Logistic-regression (RProp) prediction error.
    pub logistic_error: f64,
    /// Best SVM prediction error over both kernels.
    pub svm_error: f64,
    /// Best KNN prediction error over the K sweep.
    pub knn_error: f64,
}

impl AttackResult {
    /// The attacker's best model (the paper reports min over SVM and KNN;
    /// we additionally let the logistic-regression attacker compete, which
    /// only strengthens the attack).
    pub fn min_error(&self) -> f64 {
        self.svm_error.min(self.knn_error).min(self.logistic_error)
    }
}

/// Collects `count` random CRPs from an oracle (skipping failed queries).
///
/// # Errors
///
/// Propagates an oracle error only if it persists (more than half of the
/// attempted queries fail).
pub fn collect_crps<O: ResponseOracle, R: Rng + ?Sized>(
    oracle: &O,
    count: usize,
    rng: &mut R,
) -> Result<Dataset, PpufError> {
    collect_crps_traced(oracle, count, rng, &NOOP)
}

/// [`collect_crps`] with telemetry: counts collected CRPs and failed
/// queries (`attack.crps_collected` / `attack.crp_failures`), observes the
/// attacker's query throughput under `attack.crp_throughput_per_s`, and
/// times the collection as the `attack.collect_crps` span.
///
/// # Errors
///
/// Same as [`collect_crps`].
pub fn collect_crps_traced<O: ResponseOracle, R: Rng + ?Sized>(
    oracle: &O,
    count: usize,
    rng: &mut R,
    recorder: &dyn Recorder,
) -> Result<Dataset, PpufError> {
    /// Challenges queried per [`ResponseOracle::respond_many`] round —
    /// enough for a batched oracle to amortize its per-batch setup.
    const COLLECT_CHUNK: usize = 256;
    let _span = Span::enter(recorder, "attack.collect_crps");
    let started = Instant::now();
    let bits = oracle.challenge_bits();
    let mut data = Dataset::new();
    let mut failures = 0usize;
    while data.len() < count {
        let want = (count - data.len()).min(COLLECT_CHUNK);
        let challenges: Vec<Vec<bool>> =
            (0..want).map(|_| (0..bits).map(|_| rng.gen()).collect()).collect();
        for (challenge, result) in challenges.iter().zip(oracle.respond_many(&challenges, rng)) {
            match result {
                Ok(label) => data.push(oracle.features(challenge), label),
                Err(e) => {
                    failures += 1;
                    if failures > count.max(8) {
                        recorder.counter_add("attack.crp_failures", failures as u64);
                        recorder.warn(&format!(
                            "crp collection aborted after {failures} failures: {e}"
                        ));
                        return Err(e);
                    }
                }
            }
        }
    }
    recorder.counter_add("attack.crps_collected", data.len() as u64);
    recorder.counter_add("attack.crp_failures", failures as u64);
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 && count > 0 {
        recorder.observe("attack.crp_throughput_per_s", count as f64 / elapsed);
    }
    Ok(data)
}

/// Runs the full Fig 10 attack sweep against one oracle.
///
/// # Errors
///
/// Propagates persistent oracle failures.
pub fn evaluate_attack<O: ResponseOracle, R: Rng + ?Sized>(
    oracle: &O,
    training_sizes: &[usize],
    config: &AttackConfig,
    rng: &mut R,
) -> Result<Vec<AttackResult>, PpufError> {
    evaluate_attack_traced(oracle, training_sizes, config, rng, &NOOP)
}

/// [`evaluate_attack`] with telemetry: CRP collection reports through
/// [`collect_crps_traced`], each model family's training is timed as an
/// `attack.train.*` span, the logistic attacker's loss trajectory is
/// recorded via [`LogisticModel::train_traced`], and every per-size best
/// error lands in the `attack.best_error` histogram.
///
/// # Errors
///
/// Same as [`evaluate_attack`].
pub fn evaluate_attack_traced<O: ResponseOracle, R: Rng + ?Sized>(
    oracle: &O,
    training_sizes: &[usize],
    config: &AttackConfig,
    rng: &mut R,
    recorder: &dyn Recorder,
) -> Result<Vec<AttackResult>, PpufError> {
    let max_train = training_sizes.iter().copied().max().unwrap_or(0);
    let pool = collect_crps_traced(oracle, max_train, rng, recorder)?;
    let test = collect_crps_traced(oracle, config.test_size, rng, recorder)?;
    let mut results = Vec::with_capacity(training_sizes.len());
    for &size in training_sizes {
        recorder.counter_add("attack.training_runs", 1);
        let train = pool.subsampled(size, rng);
        let svm_train = train.subsampled(config.svm_training_cap, rng);
        let svm_error_for = |kernel: Kernel| {
            SvmModel::train(
                &svm_train,
                &SvmParams { c: config.svm_c, kernel, ..SvmParams::default() },
            )
            .error_rate(&test)
        };
        let svm_rbf_error = {
            let _span = Span::enter(recorder, "attack.train.svm_rbf");
            svm_error_for(Kernel::rbf_for_dimension(oracle.challenge_bits()))
        };
        // the linear side uses Pegasos on the *full* training set (no cap
        // needed: it is O(epochs · n · d)), which actually converges on
        // the arbiter PUF's linearly separable representation
        let svm_linear_error = {
            let _span = Span::enter(recorder, "attack.train.svm_linear");
            LinearSvm::train(&train, &LinearSvmParams::default()).error_rate(&test)
        };
        let logistic_error = {
            let _span = Span::enter(recorder, "attack.train.logistic");
            LogisticModel::train_traced(&train, &LogisticParams::default(), recorder)
                .error_rate(&test)
        };
        let knn_error = {
            let _span = Span::enter(recorder, "attack.train.knn");
            config
                .knn_ks
                .iter()
                .map(|&k| KnnModel::new(train.clone(), k).error_rate(&test))
                .fold(f64::INFINITY, f64::min)
        };
        let result = AttackResult {
            observed_crps: size,
            svm_rbf_error,
            svm_linear_error,
            logistic_error,
            svm_error: svm_rbf_error.min(svm_linear_error),
            knn_error,
        };
        recorder.observe("attack.best_error", result.min_error());
        results.push(result);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn arbiter_puf_is_learnable() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let oracle = ArbiterOracle::new(ArbiterPuf::sample(32, &mut rng));
        let config = AttackConfig { test_size: 200, ..AttackConfig::default() };
        let results = evaluate_attack(&oracle, &[200, 1000], &config, &mut rng).unwrap();
        // error drops with more CRPs and ends well below guessing
        assert!(results[1].min_error() < 0.1, "arbiter should be broken: {results:?}");
        assert!(results[1].svm_error <= results[0].svm_error + 0.05);
    }

    #[test]
    fn collect_crps_respects_count_and_dimension() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let oracle = ArbiterOracle::new(ArbiterPuf::sample(16, &mut rng));
        let data = collect_crps(&oracle, 50, &mut rng).unwrap();
        assert_eq!(data.len(), 50);
        assert_eq!(data.dimension(), 17); // parity features include Φ_k
    }

    #[test]
    fn min_error_picks_best_model() {
        let r = AttackResult {
            observed_crps: 10,
            svm_rbf_error: 0.4,
            svm_linear_error: 0.45,
            logistic_error: 0.3,
            svm_error: 0.4,
            knn_error: 0.2,
        };
        assert_eq!(r.min_error(), 0.2);
    }

    /// An oracle with pure random responses: nothing to learn.
    #[derive(Debug)]
    struct CoinOracle;

    impl ResponseOracle for CoinOracle {
        fn challenge_bits(&self) -> usize {
            16
        }
        fn respond<R: Rng + ?Sized>(&self, _bits: &[bool], rng: &mut R) -> Result<bool, PpufError> {
            Ok(rng.gen())
        }
    }

    #[test]
    fn traced_attack_records_throughput_epochs_and_loss() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let oracle = ArbiterOracle::new(ArbiterPuf::sample(16, &mut rng));
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let config = AttackConfig { test_size: 100, ..AttackConfig::default() };
        let results =
            evaluate_attack_traced(&oracle, &[150], &config, &mut rng, &recorder).unwrap();
        assert_eq!(results.len(), 1);
        // pool + test set
        assert_eq!(recorder.counter("attack.crps_collected"), 150 + 100);
        assert_eq!(recorder.span_stats("attack.collect_crps").unwrap().count, 2);
        assert!(recorder.histogram("attack.crp_throughput_per_s").unwrap().min > 0.0);
        assert_eq!(recorder.counter("attack.training_runs"), 1);
        assert_eq!(
            recorder.counter("attack.logistic.epochs"),
            LogisticParams::default().iterations as u64
        );
        let loss = recorder.histogram("attack.logistic.loss").unwrap();
        assert_eq!(loss.count as usize, LogisticParams::default().iterations);
        assert!(loss.min <= loss.max && loss.min > 0.0);
        for family in ["svm_rbf", "svm_linear", "logistic", "knn"] {
            let span = recorder.span_stats(&format!("attack.train.{family}")).unwrap();
            assert_eq!(span.count, 1, "{family}");
        }
        let best = recorder.histogram("attack.best_error").unwrap();
        assert_eq!(best.count, 1);
        assert!((best.max - results[0].min_error()).abs() < 1e-15);
    }

    #[test]
    fn random_oracle_stays_at_half_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = AttackConfig { test_size: 300, ..AttackConfig::default() };
        let results = evaluate_attack(&CoinOracle, &[500], &config, &mut rng).unwrap();
        assert!(
            (0.35..0.65).contains(&results[0].min_error()),
            "coin oracle must be unlearnable: {results:?}"
        );
    }
}
