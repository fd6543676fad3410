//! Differential tests pinning the sparse linear backend to the dense one:
//! for arbitrary topologies and conductances the two must produce the
//! same operating point, `Auto` must route each workload to the intended
//! backend, and structurally deficient systems must fail loudly instead
//! of returning garbage.

use proptest::prelude::*;

use ppuf_analog::block::TwoTerminal;
use ppuf_analog::solver::{
    Circuit, CscMatrix, DcEngine, DcOptions, EngineOptions, LinearBackend, SparseError, SparseLu,
};
use ppuf_analog::units::{Amps, Celsius, Volts};

/// A plain linear conductance, conducting in both directions — keeps the
/// Newton iteration exact so the comparison isolates the linear solve.
#[derive(Debug, Clone, Copy)]
struct Cond(f64);

impl TwoTerminal for Cond {
    fn current(&self, dv: Volts, _temp: Celsius) -> Amps {
        Amps(self.0 * dv.value())
    }
    fn conductance(&self, _dv: Volts, _temp: Celsius) -> f64 {
        self.0
    }
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> Circuit<Cond> {
    let mut c = Circuit::new(n);
    for &(a, b, g) in edges {
        if a != b {
            c.add_element(a, b, Cond(g)).unwrap();
        }
    }
    c
}

fn solve(c: &Circuit<Cond>, sink: u32, backend: LinearBackend) -> Option<(Vec<f64>, f64)> {
    let opts = DcOptions { backend, ..DcOptions::default() };
    c.solve_dc(0, sink, Volts(2.0), &opts)
        .ok()
        .map(|s| (s.voltages.iter().map(|v| v.value()).collect(), s.source_current.value()))
}

fn random_net() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (6usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1e-6f64..1e-3);
        (Just(n), proptest::collection::vec(edge, 4..60))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random multigraphs (self-loops dropped, parallel edges and floating
    /// nodes kept): forcing the sparse backend must reproduce the dense
    /// operating point to 1e-9 on every node voltage and on the current.
    #[test]
    fn sparse_backend_matches_dense((n, edges) in random_net()) {
        let c = build(n, &edges);
        let sink = (n - 1) as u32;
        let dense = solve(&c, sink, LinearBackend::DenseBlocked);
        let sparse = solve(&c, sink, LinearBackend::Sparse);
        prop_assert_eq!(dense.is_some(), sparse.is_some());
        if let (Some((vd, id)), Some((vs, is))) = (dense, sparse) {
            for (node, (a, b)) in vd.iter().zip(&vs).enumerate() {
                prop_assert!((a - b).abs() <= 1e-9, "node {node}: dense {a} vs sparse {b}");
            }
            prop_assert!((id - is).abs() <= 1e-9 * id.abs().max(1e-12),
                "source current: dense {id} vs sparse {is}");
        }
    }
}

/// A 12×12 grid has 142 unknowns and ~4 entries per row: `Auto` must
/// route it to the sparse backend and still match the dense result.
#[test]
fn auto_picks_sparse_for_grids_and_matches_dense() {
    let side = 12usize;
    let n = side * side;
    let mut edges = Vec::new();
    let at = |r: usize, c: usize| (r * side + c) as u32;
    for r in 0..side {
        for c in 0..side {
            // deterministic per-edge conductance spread
            let g = |salt: usize| 1e-5 * (1.0 + ((r * 31 + c * 17 + salt) % 7) as f64);
            if c + 1 < side {
                edges.push((at(r, c), at(r, c + 1), g(0)));
            }
            if r + 1 < side {
                edges.push((at(r, c), at(r + 1, c), g(3)));
            }
        }
    }
    let c = build(n, &edges);
    let sink = (n - 1) as u32;

    let mut engine = DcEngine::new(EngineOptions { threads: 1 });
    let opts = DcOptions::default(); // backend: Auto
    let auto = engine.solve(&c, 0, sink, Volts(2.0), &opts).unwrap();
    assert_eq!(engine.resolved_backend(), LinearBackend::Sparse);
    let stats = engine.sparse_stats().expect("sparse stats after a sparse-routed solve");
    assert!(stats.jacobian_nnz < n * n / 4, "grid Jacobian must be structurally sparse");
    assert!(stats.full_factorizations >= 1);

    let (dense_v, dense_i) = solve(&c, sink, LinearBackend::DenseBlocked).unwrap();
    for (node, v) in auto.voltages.iter().enumerate() {
        assert!((v.value() - dense_v[node]).abs() <= 1e-9, "node {node}");
    }
    assert!((auto.source_current.value() - dense_i).abs() <= 1e-9 * dense_i.abs());
}

/// A complete graph is numerically dense; `Auto` must keep the blocked
/// dense LU for it.
#[test]
fn auto_keeps_dense_for_complete_graphs() {
    let n = 70usize;
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            edges.push((a, b, 1e-5));
        }
    }
    let c = build(n, &edges);
    let mut engine = DcEngine::new(EngineOptions { threads: 1 });
    engine.solve(&c, 0, (n - 1) as u32, Volts(2.0), &DcOptions::default()).unwrap();
    assert_eq!(engine.resolved_backend(), LinearBackend::DenseBlocked);
    assert!(engine.sparse_stats().is_none());
}

/// Structural deficiency (an empty column) must surface as
/// [`SparseError::Singular`] from the factorization, never as a silently
/// wrong solve.
#[test]
fn structurally_deficient_matrix_fails_to_factor() {
    let triplets = vec![(0u32, 0u32, 2.0), (1, 1, 3.0), (0, 1, 1.0)]; // column 2 empty
    let a = CscMatrix::from_triplets(3, &triplets);
    let perm: Vec<u32> = (0..3).collect();
    match SparseLu::factor(&a, &perm) {
        Err(SparseError::Singular { .. }) => {}
        other => panic!("expected structural singularity, got {other:?}"),
    }
}
