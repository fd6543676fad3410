//! Complete authentication sessions: challenges, deadlines, feedback
//! chains, and verdicts in one state machine.
//!
//! [`auth`](crate::protocol::auth) verifies a single answer and
//! [`feedback`](crate::protocol::feedback) amplifies the ESG; a real
//! deployment composes them. [`AuthenticationSession::run`] drives the
//! whole exchange against any [`Prover`]: `rounds` independent
//! challenge/answer/verify rounds (each wall-clock-timed against the
//! deadline), followed by one `k`-round feedback chain that the verifier
//! replays on its public model.

use std::sync::Arc;

use rand::Rng;

use ppuf_analog::units::Seconds;

use crate::challenge::Challenge;
use crate::device::PpufExecutor;
use crate::error::PpufError;
use crate::protocol::auth::{answer_from, prove, ProverAnswer, VerificationReport, Verifier};
use crate::protocol::clock::{Clock, SystemClock};
use crate::protocol::feedback::{run_chain, verify_chain, FeedbackChain};
use crate::public_model::PublicModel;

/// Anything that can play the prover side of a session.
pub trait Prover {
    /// Answers one challenge (flows + response bit).
    ///
    /// # Errors
    ///
    /// Implementations surface device or simulation failures.
    fn answer(&self, challenge: &Challenge) -> Result<ProverAnswer, PpufError>;

    /// The bare response bit (used inside feedback chains).
    ///
    /// # Errors
    ///
    /// Implementations surface device or simulation failures.
    fn respond(&self, challenge: &Challenge) -> Result<bool, PpufError> {
        Ok(self.answer(challenge)?.response)
    }
}

/// The honest prover: holds the physical device.
impl Prover for PpufExecutor<'_> {
    fn answer(&self, challenge: &Challenge) -> Result<ProverAnswer, PpufError> {
        prove(self, challenge)
    }

    fn respond(&self, challenge: &Challenge) -> Result<bool, PpufError> {
        self.response(challenge)
    }
}

/// An impostor without the device: must simulate on the public model
/// (every answer costs two max-flow solves — the ESG in action).
#[derive(Debug, Clone)]
pub struct SimulatingAttacker {
    model: PublicModel,
}

impl SimulatingAttacker {
    /// Arms the attacker with the (public) model.
    pub fn new(model: PublicModel) -> Self {
        SimulatingAttacker { model }
    }
}

impl Prover for SimulatingAttacker {
    fn answer(&self, challenge: &Challenge) -> Result<ProverAnswer, PpufError> {
        answer_from(&self.model, challenge)
    }
}

/// Session parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Independent single-challenge rounds.
    pub rounds: usize,
    /// Length `k` of the closing feedback chain (0 disables it).
    pub feedback_rounds: usize,
    /// Per-answer wall-clock deadline; `None` disables timing checks.
    pub deadline: Option<Seconds>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { rounds: 3, feedback_rounds: 4, deadline: None }
    }
}

/// Why a session was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// A single-round answer failed verification (report attached).
    BadAnswer {
        /// Round index (0-based).
        round: usize,
        /// The failing report.
        report: VerificationReport,
    },
    /// The prover could not produce an answer at all.
    ProverFailed {
        /// Round index, or `usize::MAX` for the chain phase.
        round: usize,
        /// The prover's error, rendered.
        error: String,
    },
    /// The feedback chain did not replay correctly on the public model.
    BadChain,
}

/// The session verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// All rounds and the chain verified (timings attached).
    Accepted {
        /// Wall-clock per single round.
        round_times: Vec<Seconds>,
        /// Wall-clock of the whole chain phase (prover side).
        chain_time: Seconds,
    },
    /// The session failed.
    Rejected(RejectReason),
}

impl SessionOutcome {
    /// `true` for [`SessionOutcome::Accepted`].
    pub fn accepted(&self) -> bool {
        matches!(self, SessionOutcome::Accepted { .. })
    }
}

/// The verifier-side session driver.
#[derive(Debug, Clone)]
pub struct AuthenticationSession {
    verifier: Verifier,
    config: SessionConfig,
    clock: Arc<dyn Clock>,
}

impl AuthenticationSession {
    /// Creates a session over a published model, timed by the wall clock.
    pub fn new(model: PublicModel, config: SessionConfig) -> Self {
        let mut verifier = Verifier::new(model);
        if let Some(deadline) = config.deadline {
            verifier = verifier.with_deadline(deadline);
        }
        AuthenticationSession { verifier, config, clock: Arc::new(SystemClock::new()) }
    }

    /// Times answers against `clock` instead of the wall clock, so
    /// deadline logic is testable without real sleeps.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The session parameters.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs the full exchange against a prover.
    ///
    /// # Errors
    ///
    /// Returns an error only for verifier-side failures (malformed model);
    /// prover failures and verification rejections are reported in the
    /// outcome.
    pub fn run<P: Prover, R: Rng + ?Sized>(
        &self,
        prover: &P,
        rng: &mut R,
    ) -> Result<SessionOutcome, PpufError> {
        let model = self.verifier.model();
        let space = model.grid().challenge_space()?;
        let mut round_times = Vec::with_capacity(self.config.rounds);
        for round in 0..self.config.rounds {
            let challenge = space.random(rng);
            let started = self.clock.now();
            let answer = match prover.answer(&challenge) {
                Ok(a) => a,
                Err(e) => {
                    return Ok(SessionOutcome::Rejected(RejectReason::ProverFailed {
                        round,
                        error: e.to_string(),
                    }))
                }
            };
            let elapsed = Seconds(self.clock.now().value() - started.value());
            let report = self.verifier.verify_timed(&challenge, &answer, Some(elapsed))?;
            if !report.accepted() {
                return Ok(SessionOutcome::Rejected(RejectReason::BadAnswer { round, report }));
            }
            round_times.push(elapsed);
        }
        // closing feedback chain, replayed by the verifier on its model
        let mut chain_time = Seconds(0.0);
        if self.config.feedback_rounds > 0 {
            let first = space.random(rng);
            let started = self.clock.now();
            let chain: FeedbackChain =
                match run_chain(&space, first.clone(), self.config.feedback_rounds, |c| {
                    prover.respond(c)
                }) {
                    Ok(chain) => chain,
                    Err(e) => {
                        return Ok(SessionOutcome::Rejected(RejectReason::ProverFailed {
                            round: usize::MAX,
                            error: e.to_string(),
                        }))
                    }
                };
            chain_time = Seconds(self.clock.now().value() - started.value());
            let valid = verify_chain(&space, &first, &chain, |c| model.response(c))?;
            if !valid {
                return Ok(SessionOutcome::Rejected(RejectReason::BadChain));
            }
        }
        Ok(SessionOutcome::Accepted { round_times, chain_time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Ppuf, PpufConfig};
    use ppuf_analog::variation::Environment;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Ppuf, PublicModel) {
        let ppuf = Ppuf::generate(PpufConfig::paper(10, 2), 51).unwrap();
        let model = ppuf.public_model().unwrap();
        (ppuf, model)
    }

    #[test]
    fn honest_device_passes_full_session() {
        let (ppuf, model) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let session = AuthenticationSession::new(model, SessionConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let outcome = session.run(&executor, &mut rng).unwrap();
        assert!(outcome.accepted(), "{outcome:?}");
        if let SessionOutcome::Accepted { round_times, chain_time } = outcome {
            assert_eq!(round_times.len(), 3);
            assert!(chain_time.value() >= 0.0);
        }
    }

    #[test]
    fn simulating_attacker_passes_without_deadline() {
        // without timing enforcement, the public model answers correctly —
        // the whole point is that only the *deadline* separates the two
        let (_, model) = setup();
        let attacker = SimulatingAttacker::new(model.clone());
        let session = AuthenticationSession::new(model, SessionConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(session.run(&attacker, &mut rng).unwrap().accepted());
    }

    #[test]
    fn impossible_deadline_rejects_everyone() {
        let (ppuf, model) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let config = SessionConfig { deadline: Some(Seconds(0.0)), ..Default::default() };
        let session = AuthenticationSession::new(model, config);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let outcome = session.run(&executor, &mut rng).unwrap();
        assert!(matches!(outcome, SessionOutcome::Rejected(RejectReason::BadAnswer { .. })));
    }

    /// A prover that lies about the response bit.
    struct LyingProver<'a>(PpufExecutor<'a>);

    impl Prover for LyingProver<'_> {
        fn answer(&self, challenge: &Challenge) -> Result<ProverAnswer, PpufError> {
            let mut answer = prove(&self.0, challenge)?;
            answer.response = !answer.response;
            Ok(answer)
        }
    }

    #[test]
    fn lying_prover_rejected_in_first_round() {
        let (ppuf, model) = setup();
        let liar = LyingProver(ppuf.executor(Environment::NOMINAL));
        let session = AuthenticationSession::new(model, SessionConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let outcome = session.run(&liar, &mut rng).unwrap();
        match outcome {
            SessionOutcome::Rejected(RejectReason::BadAnswer { round, report }) => {
                assert_eq!(round, 0);
                assert!(!report.response_consistent);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    /// A prover that guesses random chain responses.
    struct GuessingProver<'a> {
        honest: PpufExecutor<'a>,
    }

    impl Prover for GuessingProver<'_> {
        fn answer(&self, challenge: &Challenge) -> Result<ProverAnswer, PpufError> {
            prove(&self.honest, challenge)
        }
        fn respond(&self, challenge: &Challenge) -> Result<bool, PpufError> {
            // deterministic wrong-ish oracle: parity of the control bits
            Ok(challenge.control_bits.iter().filter(|&&b| b).count() % 2 == 0)
        }
    }

    #[test]
    fn wrong_chain_rejected() {
        let (ppuf, model) = setup();
        let guesser = GuessingProver { honest: ppuf.executor(Environment::NOMINAL) };
        let session = AuthenticationSession::new(
            model,
            SessionConfig { rounds: 1, feedback_rounds: 6, ..Default::default() },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let outcome = session.run(&guesser, &mut rng).unwrap();
        // 6 chained guesses all matching has probability ~1/64; the seed
        // is fixed so this is deterministic
        assert!(matches!(outcome, SessionOutcome::Rejected(RejectReason::BadChain)), "{outcome:?}");
    }

    /// A prover that consumes simulated time on a [`ManualClock`] before
    /// answering honestly — the attacker's `Ω(n²)` cost without a sleep.
    struct SlowProver<'a> {
        honest: PpufExecutor<'a>,
        clock: Arc<crate::protocol::clock::ManualClock>,
        cost: f64,
    }

    impl Prover for SlowProver<'_> {
        fn answer(&self, challenge: &Challenge) -> Result<ProverAnswer, PpufError> {
            self.clock.advance(self.cost);
            prove(&self.honest, challenge)
        }
    }

    #[test]
    fn manual_clock_separates_fast_and_slow_provers() {
        let (ppuf, model) = setup();
        let clock = Arc::new(crate::protocol::clock::ManualClock::new());
        let config = SessionConfig { rounds: 1, feedback_rounds: 0, deadline: Some(Seconds(1.0)) };

        // under the deadline: accepted (the clock never moves, elapsed = 0)
        let session = AuthenticationSession::new(model.clone(), config)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let honest = ppuf.executor(Environment::NOMINAL);
        assert!(session.run(&honest, &mut rng).unwrap().accepted());

        // over the deadline: rejected, no real time elapsed in this test
        let slow = SlowProver { honest: ppuf.executor(Environment::NOMINAL), clock, cost: 2.0 };
        let outcome = session.run(&slow, &mut rng).unwrap();
        match outcome {
            SessionOutcome::Rejected(RejectReason::BadAnswer { report, .. }) => {
                assert!(!report.within_deadline);
            }
            other => panic!("expected deadline rejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_rounds_session_accepts_trivially() {
        let (ppuf, model) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let config = SessionConfig { rounds: 0, feedback_rounds: 0, ..Default::default() };
        let session = AuthenticationSession::new(model, config);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert!(session.run(&executor, &mut rng).unwrap().accepted());
    }
}
