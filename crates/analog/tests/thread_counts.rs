//! A whole DC solve — lumped start, residual and Jacobian passes, the
//! linear solves, the line search — is bitwise the same for every engine
//! thread count, on both linear backends.
//!
//! Each circuit is large enough that every threaded pass actually fans
//! out: at least 4 096 edges for the device evaluation, at least 64
//! unknowns for the dense Jacobian assembly, and a dense system past one
//! 48-column LU block plus 96 trailing rows for the LU updates.

use rand::Rng;

use ppuf_analog::block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock};
use ppuf_analog::montecarlo::{gaussian, stream};
use ppuf_analog::solver::{Circuit, DcEngine, DcOptions, DcSolution, EngineOptions, LinearBackend};
use ppuf_analog::units::Volts;

/// Serial blocks with σ(Vth) = 35 mV draws and a random input bit per
/// edge, drawn from one seeded stream in edge order.
fn block_source(seed: u64) -> impl FnMut() -> BuildingBlock {
    let mut rng = stream(seed, 0);
    move || {
        let variation = BlockVariation {
            delta_vth: std::array::from_fn(|_| Volts(0.035 * gaussian(&mut rng))),
        };
        BuildingBlock::new(BlockDesign::Serial, BlockBias::for_input(rng.gen::<bool>()))
            .with_variation(variation)
    }
}

/// The complete directed graph on `n` nodes: a crossbar.
fn crossbar(n: u32) -> Circuit<BuildingBlock> {
    let mut block = block_source(0xC5);
    let mut c = Circuit::new(n as usize);
    for u in 0..n {
        for v in (0..n).filter(|&v| v != u) {
            c.add_element(u, v, block()).unwrap();
        }
    }
    c
}

/// A `side`×`side` grid conducting rightward and downward.
fn grid(side: u32) -> Circuit<BuildingBlock> {
    let mut block = block_source(0x61D);
    let mut c = Circuit::new((side * side) as usize);
    let at = |r: u32, col: u32| r * side + col;
    for r in 0..side {
        for col in 0..side {
            if col + 1 < side {
                c.add_element(at(r, col), at(r, col + 1), block()).unwrap();
            }
            if r + 1 < side {
                c.add_element(at(r, col), at(r + 1, col), block()).unwrap();
            }
        }
    }
    c
}

fn solve(c: &Circuit<BuildingBlock>, threads: usize, expected: LinearBackend) -> DcSolution {
    let mut engine = DcEngine::new(EngineOptions { threads });
    let sink = c.node_count() as u32 - 1;
    let solution = engine.solve(c, 0, sink, Volts(2.0), &DcOptions::default()).unwrap();
    assert_eq!(engine.resolved_backend(), expected);
    solution
}

#[test]
fn whole_solves_are_bitwise_identical_across_thread_counts() {
    let bits = |s: &DcSolution| {
        let voltages: Vec<u64> = s.voltages.iter().map(|v| v.value().to_bits()).collect();
        (voltages, s.source_current.value().to_bits(), s.iterations)
    };
    for (name, circuit, backend) in [
        ("crossbar n = 150", crossbar(150), LinearBackend::DenseBlocked),
        ("grid 46 x 46", grid(46), LinearBackend::Sparse),
    ] {
        assert!(circuit.edges().len() >= 4096, "{name}: the device evaluation must fan out");
        let reference = solve(&circuit, 1, backend);
        assert!(reference.iterations >= 1, "{name}: {reference:?}");
        for threads in [2, 4] {
            let got = solve(&circuit, threads, backend);
            assert!(bits(&got) == bits(&reference), "{name}: threads = {threads} differs");
        }
    }
}
