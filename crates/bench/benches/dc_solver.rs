//! Criterion bench: DC-solver ablations — tabulated vs exact block
//! curves, and the cost of building the tables (DESIGN.md §4.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ppuf_analog::block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock};
use ppuf_analog::montecarlo::gaussian;
use ppuf_analog::solver::{Circuit, DcOptions, TabulatedElement};
use ppuf_analog::units::{Celsius, Volts};

/// A small complete crossbar-like circuit with random variation.
fn blocks(n: usize, seed: u64) -> Vec<(u32, u32, BuildingBlock)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u == v {
                continue;
            }
            let variation = BlockVariation {
                delta_vth: [
                    Volts(0.035 * gaussian(&mut rng)),
                    Volts(0.035 * gaussian(&mut rng)),
                    Volts(0.035 * gaussian(&mut rng)),
                    Volts(0.035 * gaussian(&mut rng)),
                ],
            };
            out.push((
                u,
                v,
                BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE)
                    .with_variation(variation),
            ));
        }
    }
    out
}

fn bench_element_representation(c: &mut Criterion) {
    let n = 10;
    let parts = blocks(n, 3);
    let mut group = c.benchmark_group("dc_element_representation");
    group.sample_size(10);

    // exact bisection-based curves
    let mut exact = Circuit::new(n);
    for (u, v, b) in &parts {
        exact.add_element(*u, *v, *b).expect("valid");
    }
    group.bench_function("exact_block_curves", |b| {
        b.iter(|| {
            exact
                .solve_dc(0, n as u32 - 1, Volts(2.0), &DcOptions::default())
                .expect("converges")
                .source_current
        })
    });

    // tabulated curves (the production path)
    for samples in [256usize, 1024] {
        let mut tab = Circuit::new(n);
        for (u, v, blk) in &parts {
            tab.add_element(
                *u,
                *v,
                TabulatedElement::from_block(blk, Volts(2.5), samples, Celsius::NOMINAL),
            )
            .expect("valid");
        }
        group.bench_with_input(BenchmarkId::new("tabulated", samples), &samples, move |b, _| {
            b.iter(|| {
                tab.solve_dc(0, n as u32 - 1, Volts(2.0), &DcOptions::default())
                    .expect("converges")
                    .source_current
            })
        });
    }
    group.finish();
}

fn bench_table_construction(c: &mut Criterion) {
    let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
    let mut group = c.benchmark_group("table_construction");
    for samples in [256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &s| {
            b.iter(|| TabulatedElement::from_block(&block, Volts(2.5), s, Celsius::NOMINAL))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_element_representation, bench_table_construction);
criterion_main!(benches);
