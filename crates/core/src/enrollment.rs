//! Enrollment economics: classic CRP databases vs the public model.
//!
//! The paper's introduction motivates PPUFs by what they *remove*: a
//! classic (secret-model) PUF requires an **enrollment phase** — the
//! verifier measures and stores a database of challenge–response pairs
//! before deployment, each usable once (replay). A PPUF verifier stores
//! only the public model (`O(n²)` numbers) and can authenticate forever,
//! validating answers with the residual-graph check.
//!
//! This module implements the classic baseline ([`CrpDatabase`]) and the
//! storage/lifetime accounting ([`EnrollmentComparison`]) that the
//! `enrollment_free` example walks through.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::batch::EvalBatch;
use crate::challenge::Challenge;
use crate::device::PpufExecutor;
use crate::error::PpufError;

/// A classic PUF verifier's enrolled CRP database.
///
/// Challenges are consumed on use: replaying an already-spent challenge is
/// how an eavesdropping attacker would impersonate the device, so the
/// verifier must discard each pair after one authentication.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrpDatabase {
    entries: HashMap<Challenge, bool>,
    spent: usize,
}

impl CrpDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls one measured pair. Returns the previous response if the
    /// challenge was already enrolled.
    pub fn enroll(&mut self, challenge: Challenge, response: bool) -> Option<bool> {
        self.entries.insert(challenge, response)
    }

    /// Number of unspent pairs remaining.
    pub fn remaining(&self) -> usize {
        self.entries.len()
    }

    /// Number of pairs consumed by authentications so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// Draws a fresh challenge for an authentication round (removing it
    /// from the database) together with its expected response.
    ///
    /// Returns `None` when the database is exhausted — the classic PUF's
    /// end of life.
    pub fn issue(&mut self) -> Option<(Challenge, bool)> {
        let challenge = self.entries.keys().next()?.clone();
        let response = self.entries.remove(&challenge)?;
        self.spent += 1;
        Some((challenge, response))
    }

    /// Authenticates a claimed response against an issued pair.
    pub fn check(expected: bool, claimed: bool) -> bool {
        expected == claimed
    }

    /// Measures and enrolls a whole challenge list in one batched pass
    /// over the device, returning how many pairs were enrolled.
    ///
    /// Challenges whose comparison lands inside the comparator dead-zone
    /// are skipped — a metastable bit cannot be used for authentication —
    /// so the return value may be less than `challenges.len()`.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure; pairs measured before the
    /// failure stay enrolled.
    pub fn enroll_batch(
        &mut self,
        executor: &PpufExecutor<'_>,
        challenges: &[Challenge],
        batch: &EvalBatch,
    ) -> Result<usize, PpufError> {
        let results = batch.run(std::slice::from_ref(executor), challenges);
        let mut enrolled = 0;
        for (challenge, outcome) in challenges.iter().zip(results.device_row(0)) {
            match outcome {
                Ok(o) => {
                    if let Some(bit) = o.response {
                        self.enroll(challenge.clone(), bit);
                        enrolled += 1;
                    }
                }
                Err(e) => return Err(e.clone()),
            }
        }
        Ok(enrolled)
    }

    /// Approximate storage footprint in bytes: each entry stores the
    /// terminal pair (8 B) plus one bit per control bit plus the response
    /// bit (rounded up per entry).
    pub fn storage_bytes(&self) -> usize {
        self.entries.keys().map(|c| 8 + c.control_bits.len().div_ceil(8) + 1).sum()
    }
}

/// Storage/lifetime comparison between the two verifier strategies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnrollmentComparison {
    /// Device size `n`.
    pub nodes: usize,
    /// Control bits per challenge (`l²`).
    pub control_bits: usize,
    /// Authentications the verifier wants to support.
    pub authentications: usize,
}

impl EnrollmentComparison {
    /// Creates a comparison for a given device and authentication budget.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] for a device smaller than two
    /// nodes.
    pub fn new(
        nodes: usize,
        control_bits: usize,
        authentications: usize,
    ) -> Result<Self, PpufError> {
        if nodes < 2 {
            return Err(PpufError::InvalidConfig {
                reason: format!("need at least 2 nodes, got {nodes}"),
            });
        }
        Ok(EnrollmentComparison { nodes, control_bits, authentications })
    }

    /// Bytes a classic verifier must store and pre-measure: one CRP per
    /// authentication.
    pub fn classic_storage_bytes(&self) -> usize {
        self.authentications * (8 + self.control_bits.div_ceil(8) + 1)
    }

    /// Bytes the PPUF verifier stores once: the public model — two
    /// networks × two bias points × `n(n−1)` capacities as `f64`, plus the
    /// comparator parameters.
    pub fn public_model_bytes(&self) -> usize {
        4 * self.nodes * (self.nodes - 1) * 8 + 64
    }

    /// The PPUF's usable challenge count under a minimum-distance rule is
    /// astronomically larger than any authentication budget; this returns
    /// whether the classic database outlives the budget (it never does
    /// beyond its enrollment size, by construction).
    pub fn classic_supports(&self, enrolled: usize) -> bool {
        enrolled >= self.authentications
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::ChallengeSpace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_challenges(count: usize) -> Vec<Challenge> {
        let space = ChallengeSpace::new(16, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        (0..count).map(|_| space.random(&mut rng)).collect()
    }

    #[test]
    fn database_spends_pairs() {
        let mut db = CrpDatabase::new();
        for (i, c) in sample_challenges(5).into_iter().enumerate() {
            db.enroll(c, i % 2 == 0);
        }
        assert_eq!(db.remaining(), 5);
        let mut seen = 0;
        while let Some((_, expected)) = db.issue() {
            assert!(CrpDatabase::check(expected, expected));
            assert!(!CrpDatabase::check(expected, !expected));
            seen += 1;
        }
        assert_eq!(seen, 5);
        assert_eq!(db.remaining(), 0);
        assert_eq!(db.spent(), 5);
        assert!(db.issue().is_none(), "database is exhausted");
    }

    #[test]
    fn duplicate_enrollment_reports_previous() {
        let mut db = CrpDatabase::new();
        let c = sample_challenges(1).pop().unwrap();
        assert_eq!(db.enroll(c.clone(), true), None);
        assert_eq!(db.enroll(c, false), Some(true));
        assert_eq!(db.remaining(), 1);
    }

    #[test]
    fn storage_accounting() {
        let mut db = CrpDatabase::new();
        for c in sample_challenges(10) {
            db.enroll(c, true);
        }
        // 16 control bits → 2 bytes; 8 + 2 + 1 = 11 per entry
        assert_eq!(db.storage_bytes(), 110);
    }

    #[test]
    fn batched_enrollment_matches_serial_responses() {
        use crate::device::{Ppuf, PpufConfig};
        use ppuf_analog::variation::Environment;

        let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 77).unwrap();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let challenges: Vec<Challenge> = (0..12).map(|_| ppuf.random_challenge(&mut rng)).collect();
        let mut db = CrpDatabase::new();
        let batch = EvalBatch::new(2);
        let enrolled = db.enroll_batch(&executor, &challenges, &batch).unwrap();
        assert_eq!(db.remaining(), enrolled);
        let mut resolvable = 0;
        for c in &challenges {
            match executor.response(c) {
                Ok(bit) => {
                    resolvable += 1;
                    // a batched measurement must agree with the serial one
                    assert_eq!(db.entries.get(c), Some(&bit), "challenge {c:?}");
                }
                Err(PpufError::UnresolvableResponse { .. }) => {
                    assert!(!db.entries.contains_key(c), "metastable pair was enrolled");
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(enrolled, resolvable);
    }

    #[test]
    fn comparison_crossover() {
        // a 200-node PPUF's model is ~1.3 MB; the classic database passes
        // it after ~40k authentications and grows forever afterwards
        let cmp = EnrollmentComparison::new(200, 225, 1_000_000).unwrap();
        let model = cmp.public_model_bytes();
        let classic = cmp.classic_storage_bytes();
        assert!(model < 2_000_000, "model {model}");
        assert!(classic > 30_000_000, "classic {classic}");
        assert!(!cmp.classic_supports(999_999));
        assert!(cmp.classic_supports(1_000_000));
    }

    #[test]
    fn rejects_tiny_device() {
        assert!(EnrollmentComparison::new(1, 4, 10).is_err());
    }
}
