//! Why "public" matters: classic CRP-database enrollment vs the PPUF's
//! published model (the paper's introduction, §1).
//!
//! A classic PUF verifier must pre-measure and store CRPs — each usable
//! once — and dies when the database runs dry. A PPUF verifier stores the
//! public model once and authenticates forever, because it can *check* any
//! fresh answer with the residual-graph certificate instead of comparing
//! against a stored response.
//!
//! ```sh
//! cargo run --release --example enrollment_free
//! ```

use maxflow_ppuf::core::enrollment::{CrpDatabase, EnrollmentComparison};
use maxflow_ppuf::core::protocol::prove;
use maxflow_ppuf::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), PpufError> {
    let ppuf = Ppuf::generate(PpufConfig::paper(16, 4), 11)?;
    let executor = ppuf.executor(Environment::NOMINAL);
    let mut rng = ChaCha8Rng::seed_from_u64(12);

    // --- the classic way: enroll, then burn one CRP per login ----------
    let mut database = CrpDatabase::new();
    for _ in 0..5 {
        let challenge = ppuf.challenge_space().random(&mut rng);
        let response = executor.response(&challenge)?;
        database.enroll(challenge, response);
    }
    println!(
        "classic PUF verifier enrolled {} CRPs ({} bytes)",
        database.remaining(),
        database.storage_bytes()
    );
    let mut logins = 0;
    while let Some((challenge, expected)) = database.issue() {
        let claimed = executor.response(&challenge)?;
        assert!(CrpDatabase::check(expected, claimed));
        logins += 1;
    }
    println!("…and is exhausted after {logins} authentications");
    assert!(database.issue().is_none());

    // --- the PPUF way: publish once, verify forever ---------------------
    // the nominal executor's model is the published one
    let verifier = Verifier::new(executor.model().clone());
    for round in 0..8 {
        // any fresh random challenge works — nothing was pre-measured
        let challenge = ppuf.challenge_space().random(&mut rng);
        let answer = prove(&executor, &challenge)?;
        let report = verifier.verify(&challenge, &answer)?;
        assert!(report.accepted(), "round {round}");
    }
    println!("PPUF verifier accepted 8 fresh authentications from the public model alone");

    // --- storage accounting at the paper's flagship size ---------------
    let cmp = EnrollmentComparison::new(200, 15 * 15, 1_000_000)?;
    println!("\nfor a 200-node PPUF (l = 15) and a 1M-authentication budget:");
    println!(
        "  classic CRP database: {:>12} bytes (and gone after 1M logins)",
        cmp.classic_storage_bytes()
    );
    println!(
        "  PPUF public model:    {:>12} bytes (valid for the device's lifetime)",
        cmp.public_model_bytes()
    );
    println!("  usable CRP space:     {}", CrpSpace::paper_example().describe());
    Ok(())
}
