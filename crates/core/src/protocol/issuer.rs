//! Challenge issuance: nonce-bound, deadline-stamped, replay-proof.
//!
//! The verification protocol ([`auth`](crate::protocol::auth)) checks one
//! answer against one challenge; a *service* additionally has to remember
//! which challenges it handed out, to whom the clock was started, and
//! which have already been redeemed. The [`ChallengeIssuer`] owns that
//! state:
//!
//! - every issued challenge carries a unique **nonce** (the session id on
//!   the wire);
//! - redeeming a nonce consumes it — a second answer for the same session
//!   is a **replay** and is rejected regardless of its content;
//! - sessions left unanswered past their time-to-live **expire**, and
//!   issuing sweeps out those that expired a TTL ago or more, at most
//!   once per TTL, so a client that only ever asks for challenges cannot
//!   grow the issuer without bound;
//! - elapsed time between issue and redeem is measured on an injectable
//!   [`Clock`], so the verifier's deadline check and every test here run
//!   without real sleeps.
//!
//! Every challenge is freshly sampled. The paper's timing gap holds only
//! while a prover cannot know a challenge before its clock starts; a
//! challenge handed out twice could be simulated offline in between.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ppuf_analog::units::Seconds;

use crate::challenge::{Challenge, ChallengeSpace};
use crate::protocol::clock::{Clock, SystemClock};

/// One challenge handed to a prover, with its session bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct IssuedChallenge {
    /// Unique session nonce; redeemable exactly once.
    pub nonce: u64,
    /// The challenge to answer.
    pub challenge: Challenge,
    /// Answer deadline in seconds, if the issuer enforces one.
    pub deadline: Option<Seconds>,
}

/// Why a nonce could not be redeemed.
#[derive(Debug, Clone, PartialEq)]
pub enum RedeemError {
    /// The nonce was never issued — or was already redeemed (a replay),
    /// or its session expired a TTL ago or more and was swept out.
    UnknownNonce {
        /// The offending nonce.
        nonce: u64,
    },
    /// The session outlived the issuer's time-to-live before an answer
    /// arrived.
    Expired {
        /// The offending nonce.
        nonce: u64,
        /// Seconds the session had been outstanding.
        age: f64,
    },
}

impl fmt::Display for RedeemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedeemError::UnknownNonce { nonce } => {
                write!(f, "nonce {nonce} unknown or already redeemed")
            }
            RedeemError::Expired { nonce, age } => {
                write!(f, "session {nonce} expired after {age:.3} s")
            }
        }
    }
}

impl std::error::Error for RedeemError {}

/// A redeemed session: the challenge plus the measured answer time.
#[derive(Debug, Clone, PartialEq)]
pub struct RedeemedSession {
    /// The challenge the nonce was bound to.
    pub challenge: Challenge,
    /// Wall-clock (per the issuer's [`Clock`]) between issue and redeem.
    pub elapsed: Seconds,
    /// The deadline stamped at issue time, if any.
    pub deadline: Option<Seconds>,
}

struct Outstanding {
    challenge: Challenge,
    issued_at: Seconds,
}

struct IssuerState {
    rng: ChaCha8Rng,
    next_nonce: u64,
    outstanding: HashMap<u64, Outstanding>,
    /// Clock reading at or after which the next `issue` sweeps out
    /// long-expired sessions.
    next_sweep: f64,
}

/// Mints nonce-bound challenges and polices replay and expiry.
///
/// All methods take `&self`; the issuer is internally synchronized so one
/// instance can serve concurrent connections.
pub struct ChallengeIssuer {
    space: ChallengeSpace,
    clock: Arc<dyn Clock>,
    deadline: Option<Seconds>,
    ttl: Seconds,
    state: Mutex<IssuerState>,
}

impl fmt::Debug for ChallengeIssuer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChallengeIssuer")
            .field("space", &self.space)
            .field("deadline", &self.deadline)
            .field("ttl", &self.ttl)
            .field("outstanding", &self.lock().outstanding.len())
            .finish()
    }
}

/// Sessions expire after this many seconds unless configured otherwise.
pub const DEFAULT_SESSION_TTL: Seconds = Seconds(30.0);

impl ChallengeIssuer {
    /// Creates an issuer over a challenge space.
    ///
    /// `seed` drives both nonce randomization and challenge sampling, so a
    /// seeded issuer is fully deterministic (given a deterministic
    /// [`Clock`]).
    pub fn new(space: ChallengeSpace, seed: u64) -> Self {
        ChallengeIssuer {
            space,
            clock: Arc::new(SystemClock::new()),
            deadline: None,
            ttl: DEFAULT_SESSION_TTL,
            state: Mutex::new(IssuerState {
                rng: ChaCha8Rng::seed_from_u64(seed),
                next_nonce: 0,
                outstanding: HashMap::new(),
                next_sweep: f64::NEG_INFINITY,
            }),
        }
    }

    /// Measures issue/redeem times on `clock` instead of the wall clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Stamps every issued challenge with an answer `deadline`.
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Expires unanswered sessions after `ttl` seconds (default
    /// [`DEFAULT_SESSION_TTL`]).
    pub fn with_ttl(mut self, ttl: Seconds) -> Self {
        self.ttl = ttl;
        self
    }

    /// The challenge space this issuer samples from.
    pub fn space(&self) -> &ChallengeSpace {
        &self.space
    }

    /// Number of issued-but-unredeemed sessions (expired ones included
    /// until a redeem attempt or a sweep in [`issue`](Self::issue)
    /// removes them).
    pub fn outstanding(&self) -> usize {
        self.lock().outstanding.len()
    }

    /// Issues a freshly sampled challenge under a fresh nonce and starts
    /// its clock.
    ///
    /// At most once per TTL it first drops the sessions that expired a
    /// TTL ago or more (those at least twice the TTL old). Sweeps are at
    /// least a TTL apart, so at most three of them ever scan a session
    /// and the sweep costs amortized O(1) per issue. An answer less than
    /// a TTL past its session's expiry still finds the session and reads
    /// [`RedeemError::Expired`]; a later one may read
    /// [`RedeemError::UnknownNonce`].
    pub fn issue(&self) -> IssuedChallenge {
        let now = self.clock.now().value();
        let ttl = self.ttl.value();
        let mut state = self.lock();
        if now >= state.next_sweep {
            state.outstanding.retain(|_, o| now - o.issued_at.value() < 2.0 * ttl);
            state.next_sweep = now + ttl;
        }
        // counter ⊕ random offset: unique by construction (the counter),
        // unpredictable enough that nonces don't enumerate sessions
        let salt: u64 = rand::Rng::gen(&mut state.rng);
        let nonce = state.next_nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt >> 32)
            ^ (state.next_nonce << 1 | 1);
        state.next_nonce += 1;
        let challenge = self.space.random(&mut state.rng);
        state
            .outstanding
            .insert(nonce, Outstanding { challenge: challenge.clone(), issued_at: Seconds(now) });
        IssuedChallenge { nonce, challenge, deadline: self.deadline }
    }

    /// Redeems a nonce, consuming the session.
    ///
    /// # Errors
    ///
    /// [`RedeemError::UnknownNonce`] for nonces never issued *or already
    /// redeemed* (replays are indistinguishable from unknown nonces by
    /// design — the session is gone either way);
    /// [`RedeemError::Expired`] when the answer arrived after the TTL (the
    /// session is consumed then too).
    pub fn redeem(&self, nonce: u64) -> Result<RedeemedSession, RedeemError> {
        let now = self.clock.now();
        let mut state = self.lock();
        let outstanding =
            state.outstanding.remove(&nonce).ok_or(RedeemError::UnknownNonce { nonce })?;
        let age = now.value() - outstanding.issued_at.value();
        if age > self.ttl.value() {
            return Err(RedeemError::Expired { nonce, age });
        }
        Ok(RedeemedSession {
            challenge: outstanding.challenge,
            elapsed: Seconds(age),
            deadline: self.deadline,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, IssuerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::clock::ManualClock;
    use std::collections::HashSet;

    fn issuer_with_manual_clock(
        deadline: Option<Seconds>,
        ttl: Seconds,
    ) -> (ChallengeIssuer, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let space = ChallengeSpace::new(12, 3).unwrap();
        let mut issuer = ChallengeIssuer::new(space, 42)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .with_ttl(ttl);
        if let Some(d) = deadline {
            issuer = issuer.with_deadline(d);
        }
        (issuer, clock)
    }

    #[test]
    fn nonces_are_unique_across_many_issues() {
        let (issuer, _) = issuer_with_manual_clock(None, Seconds(1e9));
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let issued = issuer.issue();
            assert!(seen.insert(issued.nonce), "duplicate nonce {}", issued.nonce);
            issuer.space().validate(&issued.challenge).unwrap();
        }
        assert_eq!(issuer.outstanding(), 10_000);
    }

    #[test]
    fn redeem_consumes_the_session_so_replays_fail() {
        let (issuer, clock) = issuer_with_manual_clock(Some(Seconds(0.5)), Seconds(10.0));
        let issued = issuer.issue();
        clock.advance(0.1);
        let session = issuer.redeem(issued.nonce).unwrap();
        assert_eq!(session.challenge, issued.challenge);
        assert!((session.elapsed.value() - 0.1).abs() < 1e-12);
        assert_eq!(session.deadline, Some(Seconds(0.5)));
        // the replay: same nonce again
        assert_eq!(
            issuer.redeem(issued.nonce),
            Err(RedeemError::UnknownNonce { nonce: issued.nonce })
        );
        assert_eq!(issuer.outstanding(), 0);
    }

    #[test]
    fn never_issued_nonce_is_unknown() {
        let (issuer, _) = issuer_with_manual_clock(None, Seconds(10.0));
        assert!(matches!(issuer.redeem(12345), Err(RedeemError::UnknownNonce { .. })));
    }

    #[test]
    fn sessions_expire_after_ttl() {
        let (issuer, clock) = issuer_with_manual_clock(None, Seconds(2.0));
        let issued = issuer.issue();
        clock.advance(2.5);
        match issuer.redeem(issued.nonce) {
            Err(RedeemError::Expired { nonce, age }) => {
                assert_eq!(nonce, issued.nonce);
                assert!((age - 2.5).abs() < 1e-12);
            }
            other => panic!("expected expiry, got {other:?}"),
        }
        // the expired session was consumed
        assert!(matches!(issuer.redeem(issued.nonce), Err(RedeemError::UnknownNonce { .. })));
    }

    #[test]
    fn purge_drops_only_expired_sessions() {
        let (issuer, clock) = issuer_with_manual_clock(None, Seconds(1.0));
        let (late, old) = (issuer.issue(), issuer.issue());
        // 1.5 s: the sweep keeps both (expired, but less than a TTL ago)
        clock.advance(1.5);
        issuer.issue();
        assert!(matches!(issuer.redeem(late.nonce), Err(RedeemError::Expired { .. })));
        clock.advance(0.5);
        let fresh = issuer.issue();
        // 2.5 s: the next sweep drops `old` alone
        clock.advance(0.5);
        issuer.issue();
        assert_eq!(issuer.outstanding(), 3);
        assert!(matches!(issuer.redeem(old.nonce), Err(RedeemError::UnknownNonce { .. })));
        assert!(issuer.redeem(fresh.nonce).is_ok());
    }

    #[test]
    fn consecutive_issues_sample_fresh_challenges() {
        let (issuer, _) = issuer_with_manual_clock(None, Seconds(1e9));
        let a = issuer.issue();
        let b = issuer.issue();
        assert_ne!(a.challenge, b.challenge, "fresh challenges should differ");
    }

    #[test]
    fn issuing_sweeps_out_abandoned_sessions() {
        let (issuer, clock) = issuer_with_manual_clock(None, Seconds(1.0));
        for _ in 0..10_000 {
            issuer.issue();
        }
        clock.advance(2.0);
        let last = issuer.issue();
        assert_eq!(issuer.outstanding(), 1, "only the newest session is left");
        assert!(issuer.redeem(last.nonce).is_ok());
    }
}
