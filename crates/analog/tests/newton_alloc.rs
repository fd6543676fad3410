//! Locks the steady-state allocation budget of the Newton hot path: once
//! an engine's workspace is sized (and, on the sparse backend, the
//! symbolic analysis is recorded), a re-solve allocates only the
//! per-solve voltage vector — nothing per iteration, on either backend.
//!
//! This file intentionally holds a single test: the counting allocator is
//! process-global, and a concurrently-running sibling test would perturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ppuf_analog::block::{BlockBias, BlockDesign, BuildingBlock};
use ppuf_analog::solver::{Circuit, DcEngine, DcOptions, EngineOptions, LinearBackend};
use ppuf_analog::units::Volts;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `side`×`side` grid of building blocks, conducting rightward and
/// downward — the locally-connected shape the sparse backend targets.
fn grid(side: usize) -> Circuit<BuildingBlock> {
    let mut c = Circuit::new(side * side);
    let block = BuildingBlock::new(BlockDesign::Plain, BlockBias::INPUT_ONE);
    let at = |r: usize, col: usize| (r * side + col) as u32;
    for r in 0..side {
        for col in 0..side {
            if col + 1 < side {
                c.add_element(at(r, col), at(r, col + 1), block).unwrap();
            }
            if r + 1 < side {
                c.add_element(at(r, col), at(r + 1, col), block).unwrap();
            }
        }
    }
    c
}

#[test]
fn warm_newton_solves_have_constant_allocation_budget() {
    const SOLVES: u64 = 40;
    for backend in [LinearBackend::DenseBlocked, LinearBackend::Sparse] {
        let c = grid(4);
        let sink = (c.node_count() - 1) as u32;
        let opts = DcOptions { backend, ..DcOptions::default() };
        let mut engine = DcEngine::new(EngineOptions { threads: 1 });
        // sizing solves at both bias points: buffers and the sparse
        // symbolic analysis reach steady shape here
        engine.solve(&c, 0, sink, Volts(2.0), &opts).unwrap();
        engine.solve(&c, 0, sink, Volts(1.6), &opts).unwrap();
        engine.solve(&c, 0, sink, Volts(2.0), &opts).unwrap();

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for i in 0..SOLVES {
            // alternate the bias, as the sizing solves did; every solve
            // starts cold and runs real Newton iterations (sparse
            // refactorizations included)
            let vs = if i % 2 == 0 { Volts(1.6) } else { Volts(2.0) };
            engine.solve(&c, 0, sink, vs, &opts).unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        let per_solve = (after - before) as f64 / SOLVES as f64;
        assert!(
            per_solve <= 2.0,
            "{backend:?}: {per_solve} allocations per re-solve — the \
             Newton loop must not allocate per iteration"
        );
    }
}
