//! Integration tests for the [`SolveStats`] work counters every solver
//! returns, including the Dinic phase-count bound on DIMACS fixtures.

use ppuf_maxflow::dimacs::from_dimacs;
use ppuf_maxflow::{
    Dinic, EdmondsKarp, FlowNetwork, HighestLabel, MaxFlowSolver, NodeId, PushRelabel, SolveStats,
};
use ppuf_telemetry::MemoryRecorder;

fn solvers() -> Vec<Box<dyn MaxFlowSolver + Send + Sync>> {
    vec![
        Box::new(EdmondsKarp::new()),
        Box::new(Dinic::new()),
        Box::new(PushRelabel::new()),
        Box::new(HighestLabel::new()),
    ]
}

fn test_network() -> FlowNetwork {
    FlowNetwork::complete(10, |u, v| 0.1 + (((u.index() * 31 + v.index() * 17) % 13) as f64) / 3.0)
        .unwrap()
}

#[test]
fn every_solver_reports_nonzero_work() {
    let net = test_network();
    let (s, t) = (NodeId::new(0), NodeId::new(9));
    for solver in solvers() {
        let (flow, stats) = solver.max_flow_with_stats(&net, s, t).unwrap();
        assert!(flow.value() > 0.0, "{}: zero flow", solver.name());
        let total = stats.augmenting_paths
            + stats.bfs_passes
            + stats.pushes
            + stats.relabels
            + stats.gap_triggers
            + stats.global_relabels;
        assert!(total > 0, "{}: all counters zero: {stats:?}", solver.name());
    }
}

#[test]
fn max_flow_and_with_stats_agree() {
    let net = test_network();
    let (s, t) = (NodeId::new(1), NodeId::new(8));
    for solver in solvers() {
        let plain = solver.max_flow(&net, s, t).unwrap();
        let (with_stats, _) = solver.max_flow_with_stats(&net, s, t).unwrap();
        assert!(
            (plain.value() - with_stats.value()).abs() < 1e-12,
            "{}: {} vs {}",
            solver.name(),
            plain.value(),
            with_stats.value()
        );
    }
}

#[test]
fn augmenting_path_solvers_count_paths_and_passes() {
    let net = test_network();
    let (s, t) = (NodeId::new(0), NodeId::new(9));
    let (_, ek) = EdmondsKarp::new().max_flow_with_stats(&net, s, t).unwrap();
    assert!(ek.augmenting_paths >= 1);
    // one BFS per augmentation, plus the final unsuccessful one
    assert_eq!(ek.bfs_passes, ek.augmenting_paths + 1);
    assert_eq!(ek.pushes, 0);
    assert_eq!(ek.relabels, 0);

    let (_, d) = Dinic::new().max_flow_with_stats(&net, s, t).unwrap();
    assert!(d.bfs_passes >= 1);
    assert!(d.augmenting_paths >= 1);
    assert!(d.pushes >= d.augmenting_paths, "each path saturates >= 1 arc");
}

#[test]
fn preflow_solvers_count_pushes_and_relabels() {
    let net = test_network();
    let (s, t) = (NodeId::new(0), NodeId::new(9));
    for solver in
        [Box::new(PushRelabel::new()) as Box<dyn MaxFlowSolver>, Box::new(HighestLabel::new())]
    {
        let (_, stats) = solver.max_flow_with_stats(&net, s, t).unwrap();
        assert!(stats.pushes >= 1, "{}: {stats:?}", solver.name());
        assert!(stats.global_relabels >= 1, "{}: {stats:?}", solver.name());
        assert_eq!(stats.augmenting_paths, 0, "{}: {stats:?}", solver.name());
    }
}

#[test]
fn stats_record_emits_counters_under_solver_name() {
    let net = test_network();
    let (s, t) = (NodeId::new(0), NodeId::new(9));
    let solver = Dinic::new();
    let (_, stats) = solver.max_flow_with_stats(&net, s, t).unwrap();
    let recorder = MemoryRecorder::new();
    stats.record(&recorder, solver.name());
    assert_eq!(recorder.counter("maxflow.dinic.bfs_passes"), stats.bfs_passes);
    assert_eq!(recorder.counter("maxflow.dinic.augmenting_paths"), stats.augmenting_paths);
    // zero counters are not materialized
    assert_eq!(recorder.counter("maxflow.dinic.relabels"), 0);
    // recording twice accumulates
    stats.record(&recorder, solver.name());
    assert_eq!(recorder.counter("maxflow.dinic.bfs_passes"), 2 * stats.bfs_passes);
}

#[test]
fn default_stats_are_zero() {
    let stats = SolveStats::default();
    assert_eq!(
        stats,
        SolveStats {
            augmenting_paths: 0,
            bfs_passes: 0,
            pushes: 0,
            relabels: 0,
            gap_triggers: 0,
            global_relabels: 0
        }
    );
    let recorder = MemoryRecorder::new();
    stats.record(&recorder, "noop");
    assert!(recorder.snapshot("x").counters.is_empty());
}

/// On unit-capacity networks Dinic terminates within `O(√E)` phases
/// (Even–Tarjan); each fixture's phase count must stay within a small
/// constant factor of `√E`.
#[test]
fn dinic_phase_count_is_sqrt_e_ish_on_unit_capacity_dimacs_fixtures() {
    for (name, text) in [
        ("unit_bipartite", include_str!("fixtures/unit_bipartite.dimacs")),
        ("unit_grid", include_str!("fixtures/unit_grid.dimacs")),
    ] {
        let inst = from_dimacs(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let edges = inst.network.edge_count() as f64;
        let (flow, stats) =
            Dinic::new().max_flow_with_stats(&inst.network, inst.source, inst.sink).unwrap();
        assert!(flow.value() > 0.0, "{name}: zero flow");
        let bound = (2.0 * edges.sqrt()).ceil() as u64 + 2;
        assert!(
            stats.bfs_passes <= bound,
            "{name}: {} phases exceeds O(sqrt(E)) bound {bound} (E = {edges})",
            stats.bfs_passes,
        );
    }
}

#[test]
fn clrs_fixture_solves_to_23_under_all_solvers() {
    let inst = from_dimacs(include_str!("fixtures/clrs.dimacs")).unwrap();
    for solver in solvers() {
        let (flow, stats) =
            solver.max_flow_with_stats(&inst.network, inst.source, inst.sink).unwrap();
        assert!((flow.value() - 23.0).abs() < 1e-9, "{}: {}", solver.name(), flow.value());
        assert!(
            stats.bfs_passes + stats.pushes + stats.augmenting_paths > 0,
            "{}: {stats:?}",
            solver.name()
        );
    }
}
