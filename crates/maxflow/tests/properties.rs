//! Property-based tests: all solvers agree, duality holds, verification
//! certifies exactly the maximal flows.

use proptest::prelude::*;

use ppuf_maxflow::{
    dimacs, Dinic, EdmondsKarp, FlowNetwork, HighestLabel, MaxFlowSolver, MinCut, NodeId,
    PushRelabel, ResidualGraph,
};

/// Strategy: a random sparse network with up to `max_n` nodes.
fn sparse_network(max_n: usize) -> impl Strategy<Value = (FlowNetwork, NodeId, NodeId)> {
    (3..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..5.0), 1..(3 * n));
        edges.prop_map(move |list| {
            let mut net = FlowNetwork::new(n);
            for (u, v, c) in list {
                if u != v {
                    net.add_edge(NodeId::new(u), NodeId::new(v), c).unwrap();
                }
            }
            (net, NodeId::new(0), NodeId::new(n as u32 - 1))
        })
    })
}

/// Strategy: a random complete network (the PPUF topology).
fn complete_network(max_n: usize) -> impl Strategy<Value = (FlowNetwork, NodeId, NodeId)> {
    (3..=max_n, proptest::collection::vec(0.01f64..2.0, max_n * max_n)).prop_map(|(n, caps)| {
        let net = FlowNetwork::complete(n, |u, v| caps[u.index() * n + v.index()]).unwrap();
        (net, NodeId::new(0), NodeId::new(n as u32 - 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_exact_solvers_agree_sparse((net, s, t) in sparse_network(10)) {
        let ek = EdmondsKarp::new().max_flow(&net, s, t).unwrap();
        let d = Dinic::new().max_flow(&net, s, t).unwrap();
        let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
        let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
        prop_assert!((ek.value() - d.value()).abs() < 1e-7);
        prop_assert!((ek.value() - pr.value()).abs() < 1e-7);
        prop_assert!((ek.value() - hl.value()).abs() < 1e-7);
    }

    #[test]
    fn dimacs_roundtrip_preserves_max_flow((net, s, t) in sparse_network(9)) {
        let text = dimacs::to_dimacs(&net, s, t);
        let parsed = dimacs::from_dimacs(&text).unwrap();
        let before = Dinic::new().max_flow(&net, s, t).unwrap().value();
        let after = Dinic::new()
            .max_flow(&parsed.network, parsed.source, parsed.sink)
            .unwrap()
            .value();
        prop_assert!((before - after).abs() < 1e-9 + before * 1e-9);
    }

    #[test]
    fn all_exact_solvers_agree_complete((net, s, t) in complete_network(8)) {
        let ek = EdmondsKarp::new().max_flow(&net, s, t).unwrap();
        let d = Dinic::new().max_flow(&net, s, t).unwrap();
        let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
        let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
        prop_assert!((ek.value() - d.value()).abs() < 1e-7);
        prop_assert!((ek.value() - pr.value()).abs() < 1e-7);
        prop_assert!((ek.value() - hl.value()).abs() < 1e-7);
    }

    #[test]
    fn flows_are_always_feasible((net, s, t) in sparse_network(10)) {
        for solver in [
            Box::new(Dinic::new()) as Box<dyn MaxFlowSolver>,
            Box::new(PushRelabel::new()),
            Box::new(EdmondsKarp::new()),
        ] {
            let flow = solver.max_flow(&net, s, t).unwrap();
            let report = flow.check_feasible(&net, 1e-7).unwrap();
            prop_assert!(report.is_feasible(), "{}: {report:?}", solver.name());
        }
    }

    #[test]
    fn duality_certificate((net, s, t) in complete_network(7)) {
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        prop_assert!(residual.certifies_max_flow());
        let cut = MinCut::from_max_flow(&net, &flow, 1e-9).unwrap();
        prop_assert!(cut.certifies(flow.value(), 1e-6),
            "cut {} vs flow {}", cut.capacity, flow.value());
    }

    #[test]
    fn flow_value_bounded_by_terminal_cuts((net, s, t) in sparse_network(12)) {
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        prop_assert!(flow.value() <= net.out_capacity(s) + 1e-9);
        prop_assert!(flow.value() <= net.in_capacity(t) + 1e-9);
        prop_assert!(flow.value() >= -1e-9);
    }

    #[test]
    fn monotone_in_capacity(caps in proptest::collection::vec(0.01f64..2.0, 36)) {
        // scaling every capacity up cannot reduce the max flow
        let n = 6;
        let net1 = FlowNetwork::complete(n, |u, v| caps[u.index() * n + v.index()]).unwrap();
        let net2 = FlowNetwork::complete(n, |u, v| 1.5 * caps[u.index() * n + v.index()]).unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(5));
        let f1 = Dinic::new().max_flow(&net1, s, t).unwrap().value();
        let f2 = Dinic::new().max_flow(&net2, s, t).unwrap().value();
        prop_assert!(f2 >= f1 - 1e-9);
        prop_assert!((f2 - 1.5 * f1).abs() < 1e-6); // scaling is exact
    }

    #[test]
    fn solvers_agree_with_dead_blocks(
        caps in proptest::collection::vec(0.0f64..2.0, 64),
        dead in proptest::collection::vec(any::<bool>(), 64),
    ) {
        // ~half the edges fully cut off — the PPUF's "variation killed the
        // block" regime that stresses zero-capacity handling
        let n = 8;
        let net = FlowNetwork::complete(n, |u, v| {
            let k = u.index() * n + v.index();
            if dead[k] { 0.0 } else { caps[k] }
        }).unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(7));
        let d = Dinic::new().max_flow(&net, s, t).unwrap();
        let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
        let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
        let ek = EdmondsKarp::new().max_flow(&net, s, t).unwrap();
        prop_assert!((d.value() - pr.value()).abs() < 1e-7);
        prop_assert!((d.value() - hl.value()).abs() < 1e-7);
        prop_assert!((d.value() - ek.value()).abs() < 1e-7);
        prop_assert!(d.check_feasible(&net, 1e-9).unwrap().is_feasible());
        let residual = ResidualGraph::new(&net, &d, 1e-12).unwrap();
        prop_assert!(residual.certifies_max_flow());
    }

    #[test]
    fn parallel_reachability_matches((net, s, t) in sparse_network(10), threads in 1usize..4) {
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        let seq = residual.is_reachable(s, t);
        let par = residual.is_reachable_parallel(s, t, threads).unwrap();
        prop_assert_eq!(seq, par);
    }
}
