//! Criterion bench: DC-solver ablations — tabulated vs exact block
//! curves, and the cost of building the tables (DESIGN.md §4.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ppuf_analog::block::{BlockBias, BlockDesign, BuildingBlock};
use ppuf_analog::solver::{Circuit, DcOptions, TabulatedElement};
use ppuf_analog::units::{Celsius, Volts};
use ppuf_bench::engine_profile::{challenge_circuit, device_variations};

fn bench_element_representation(c: &mut Criterion) {
    let n = 10;
    // a small complete crossbar-like device under one challenge, with
    // exact bisection-based block curves
    let exact = challenge_circuit(n, &device_variations(n, 3), 0xC0);
    let mut group = c.benchmark_group("dc_element_representation");
    group.sample_size(10);

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
        for edge in exact.edges() {
            tab.add_element(
                edge.from,
                edge.to,
                TabulatedElement::from_block(&edge.element, Volts(2.5), samples, Celsius::NOMINAL),
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
