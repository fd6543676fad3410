//! Locks the verifier's memory budget: checking an answer builds neither
//! a flow network nor a residual graph, so one verification allocates
//! only `O(n)` scratch, not `O(m)` graphs.
//!
//! This file intentionally holds a single test: the counting allocator is
//! process-global, and a concurrently-running sibling test would perturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{ProverAnswer, Verifier};
use ppuf_maxflow::Dinic;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(new_size as u64, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn verifying_an_answer_allocates_linear_scratch_only() {
    const N: usize = 64;
    let ppuf = Ppuf::generate(PpufConfig::paper(N, 4), 64).unwrap();
    let model = ppuf.public_model().unwrap();
    let challenge = ppuf.challenge_space().random(&mut ChaCha8Rng::seed_from_u64(65));
    let honest = model.simulate(&challenge, &Dinic::new()).unwrap();
    let answer = ProverAnswer {
        response: honest.response.expect("the comparator resolves this challenge"),
        flow_a: honest.flow_a,
        flow_b: honest.flow_b,
    };
    let verifier = Verifier::new(model);

    let (allocations, bytes) = (ALLOCATIONS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let report = verifier.verify(&challenge, &answer).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - allocations;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes;

    assert!(report.accepted(), "{report:?}");
    // both networks' edge flows alone are 2·n(n−1)·8 ≈ 64 KB; a graph
    // per network would allocate several times that, in thousands of
    // pieces
    assert!(allocations <= 64, "{allocations} allocations to verify one answer");
    assert!(bytes <= 128 * N as u64, "{bytes} bytes allocated to verify one answer");
}
