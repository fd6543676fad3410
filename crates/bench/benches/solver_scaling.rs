//! Criterion bench: max-flow solver families on complete graphs — the raw
//! material behind the Fig 7 "simulation time" curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ppuf_maxflow::{
    Dinic, EdmondsKarp, FlowNetwork, HighestLabel, MaxFlowSolver, NodeId, PushRelabel,
};

fn complete_instance(n: usize, seed: u64) -> FlowNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let caps: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.5..1.5)).collect();
    FlowNetwork::complete(n, |u, v| caps[u.index() * n + v.index()]).expect("valid")
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling");
    group.sample_size(20);
    for &n in &[16usize, 32, 64] {
        let net = complete_instance(n, 7);
        let (s, t) = (NodeId::new(0), NodeId::new(n as u32 - 1));
        let solvers: Vec<(&str, Box<dyn MaxFlowSolver>)> = vec![
            ("dinic", Box::new(Dinic::new())),
            ("push_relabel", Box::new(PushRelabel::new())),
            ("highest_label", Box::new(HighestLabel::new())),
            ("edmonds_karp", Box::new(EdmondsKarp::new())),
        ];
        for (name, solver) in solvers {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| solver.max_flow(&net, s, t).expect("solves").value())
            });
        }
    }
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    // the verification/calculation asymmetry (paper §2): residual BFS is
    // orders of magnitude cheaper than solving
    let mut group = c.benchmark_group("verification_vs_solving");
    let n = 64;
    let net = complete_instance(n, 9);
    let (s, t) = (NodeId::new(0), NodeId::new(n as u32 - 1));
    let flow = Dinic::new().max_flow(&net, s, t).expect("solves");
    group.bench_function("solve_dinic", |b| {
        b.iter(|| Dinic::new().max_flow(&net, s, t).expect("solves").value())
    });
    group.bench_function("verify_residual_bfs", |b| {
        b.iter(|| {
            let residual = ppuf_maxflow::ResidualGraph::new(&net, &flow, 1e-12).expect("shape");
            residual.certifies_max_flow()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_verification);
criterion_main!(benches);
