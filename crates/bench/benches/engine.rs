//! Criterion bench: warm-started batch engine vs the cold DC solver.
//!
//! Uses the same device-plus-challenge circuit shape as `engine_bench`
//! (per-edge ΔVth draws, per-edge challenge bias bits) at a small n so a
//! full criterion pass stays fast. The headline measurement of the paper's
//! n = 900 point lives in the `engine_bench` binary; this bench guards the
//! warm-vs-cold ratio and the batch API overhead against regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ppuf_analog::block::BuildingBlock;
use ppuf_analog::solver::{Circuit, DcEngine, DcOptions, EngineOptions};
use ppuf_analog::units::Volts;
use ppuf_analog::variation::Environment;
use ppuf_bench::engine_profile::{challenge_circuit, device_variations};
use ppuf_core::batch::{BatchOptions, EvalBatch, EvalMode};
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::Challenge;

fn bench_warm_vs_cold(c: &mut Criterion) {
    let n = 24usize;
    let vars = device_variations(n, 0xE2);
    let options = DcOptions::default();
    let mut group = c.benchmark_group("engine_warm_vs_cold");
    group.sample_size(10);

    group.bench_function("cold_solve_dc", |b| {
        let circuit = challenge_circuit(n, &vars, 0xC0);
        b.iter(|| {
            circuit
                .solve_dc(0, n as u32 - 1, Volts(2.0), &options)
                .expect("converges")
                .source_current
        })
    });

    group.bench_function("engine_warm_challenge_chain", |b| {
        // pre-built challenge ring so iteration cost is pure solving
        let challenges: Vec<Circuit<BuildingBlock>> =
            (0..8u64).map(|k| challenge_circuit(n, &vars, 0xC0 + k)).collect();
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..Default::default() });
        // prime the warm state once, outside the measurement
        engine.solve(&challenges[0], 0, n as u32 - 1, Volts(2.0), &options).expect("converges");
        let mut next = 0usize;
        b.iter(|| {
            next = (next + 1) % challenges.len();
            engine
                .solve(&challenges[next], 0, n as u32 - 1, Volts(2.0), &options)
                .expect("converges")
                .source_current
        })
    });
    group.finish();
}

fn bench_batch_api(c: &mut Criterion) {
    let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 0xBE).expect("valid config");
    let executors = [ppuf.executor(Environment::NOMINAL)];
    let mut rng = ChaCha8Rng::seed_from_u64(0xBF);
    let space = ppuf.challenge_space();
    let challenges: Vec<Challenge> = (0..32).map(|_| space.random(&mut rng)).collect();
    let mut group = c.benchmark_group("batch_api_flow");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let batch =
            EvalBatch::new(BatchOptions { threads, mode: EvalMode::Flow, ..Default::default() });
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                let results = batch.run(&executors, &challenges);
                assert_eq!(results.failure_count(), 0);
                results.challenge_count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_warm_vs_cold, bench_batch_api);
criterion_main!(benches);
