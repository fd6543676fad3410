//! Acceptance gate: batch evaluation is byte-identical across worker
//! thread counts. Parallelism must only change which thread runs a job,
//! never what any job computes.

use ppuf_analog::variation::Environment;
use ppuf_core::batch::EvalBatch;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::Challenge;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn fixtures(devices: usize, challenges: usize) -> (Vec<Ppuf>, Vec<Challenge>) {
    let ppufs: Vec<Ppuf> = (0..devices)
        .map(|i| Ppuf::generate(PpufConfig::paper(8, 2), 0xDE7 + i as u64).unwrap())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let space = ppufs[0].challenge_space();
    let challenges = (0..challenges).map(|_| space.random(&mut rng)).collect();
    (ppufs, challenges)
}

#[test]
fn flow_batches_are_byte_identical_across_thread_counts() {
    // enough challenges that each device splits into multiple jobs
    let (ppufs, challenges) = fixtures(3, 70);
    let executors: Vec<_> = ppufs.iter().map(|p| p.executor(Environment::NOMINAL)).collect();
    let reference = EvalBatch::new(1).run(&executors, &challenges);
    for threads in [2usize, 4] {
        let results = EvalBatch::new(threads).run(&executors, &challenges);
        assert_eq!(results.device_count(), reference.device_count());
        assert_eq!(results.challenge_count(), reference.challenge_count());
        for d in 0..results.device_count() {
            for c in 0..results.challenge_count() {
                match (results.outcome(d, c), reference.outcome(d, c)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(
                            got.current_a.value().to_bits(),
                            want.current_a.value().to_bits(),
                            "threads={threads} device {d} challenge {c}: current_a"
                        );
                        assert_eq!(
                            got.current_b.value().to_bits(),
                            want.current_b.value().to_bits(),
                            "threads={threads} device {d} challenge {c}: current_b"
                        );
                        assert_eq!(got.response, want.response);
                    }
                    (got, want) => {
                        panic!("threads={threads} device {d} challenge {c}: {got:?} vs {want:?}")
                    }
                }
            }
        }
    }
}
