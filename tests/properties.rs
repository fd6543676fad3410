//! Cross-crate property-based tests: the paper's structural invariants
//! hold for arbitrary devices and challenges.

use proptest::prelude::*;

use maxflow_ppuf::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn any_device() -> impl Strategy<Value = (Ppuf, u64)> {
    ((4usize..10), (1usize..4), any::<u64>(), any::<u64>()).prop_map(
        |(nodes, grid, seed, challenge_seed)| {
            let grid = grid.min(nodes);
            (Ppuf::generate(PpufConfig::paper(nodes, grid), seed).expect("valid"), challenge_seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn device_flow_is_feasible_and_maximal((ppuf, cseed) in any_device()) {
        let mut rng = ChaCha8Rng::seed_from_u64(cseed);
        let challenge = ppuf.challenge_space().random(&mut rng);
        let executor = ppuf.executor(Environment::NOMINAL);
        let detailed = executor.execute_flow_detailed(&challenge).expect("solves");
        for (side, flow) in [(NetworkSide::A, &detailed.flow_a), (NetworkSide::B, &detailed.flow_b)] {
            let net = executor.flow_network(side, &challenge).expect("valid");
            prop_assert!(flow.check_feasible(&net, 1e-9).expect("shape").is_feasible());
            let residual = ResidualGraph::new(&net, flow, 1e-12).expect("shape");
            prop_assert!(residual.certifies_max_flow());
            let cut = MinCut::from_max_flow(&net, flow, 1e-12).expect("shape");
            prop_assert!(cut.certifies(flow.value(), 1e-9));
        }
    }

    #[test]
    fn response_bounded_by_terminal_cuts((ppuf, cseed) in any_device()) {
        let mut rng = ChaCha8Rng::seed_from_u64(cseed);
        let challenge = ppuf.challenge_space().random(&mut rng);
        let executor = ppuf.executor(Environment::NOMINAL);
        let out = executor.execute_flow(&challenge).expect("solves");
        for (side, current) in [(NetworkSide::A, out.current_a), (NetworkSide::B, out.current_b)] {
            let net = executor.flow_network(side, &challenge).expect("valid");
            prop_assert!(current.value() <= net.out_capacity(challenge.source) + 1e-12);
            prop_assert!(current.value() <= net.in_capacity(challenge.sink) + 1e-12);
            prop_assert!(current.value() >= 0.0);
        }
    }

    #[test]
    fn responses_deterministic_across_executors((ppuf, cseed) in any_device()) {
        let mut rng = ChaCha8Rng::seed_from_u64(cseed);
        let challenge = ppuf.challenge_space().random(&mut rng);
        let a = ppuf.executor(Environment::NOMINAL).execute_flow(&challenge).expect("solves");
        let b = ppuf.executor(Environment::NOMINAL).execute_flow(&challenge).expect("solves");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn public_model_is_device_truth_at_nominal((ppuf, cseed) in any_device()) {
        let model = ppuf.public_model().expect("publishable");
        let mut rng = ChaCha8Rng::seed_from_u64(cseed);
        let challenge = ppuf.challenge_space().random(&mut rng);
        let device = ppuf
            .executor(Environment::NOMINAL)
            .execute_flow(&challenge)
            .expect("solves");
        let public = model.simulate(&challenge, &Dinic::new()).expect("solves");
        prop_assert!((device.current_a.value() - public.current_a.value()).abs() < 1e-15);
        prop_assert!((device.current_b.value() - public.current_b.value()).abs() < 1e-15);
    }

    #[test]
    fn challenge_grid_bits_control_capacity(
        (ppuf, cseed) in any_device(),
        nodes in 4usize..10,
    ) {
        // 1. on any fabricated device, the challenge bits actually move
        //    capacities (the grid control is wired through)
        let mut rng = ChaCha8Rng::seed_from_u64(cseed);
        let mut challenge = ppuf.challenge_space().random(&mut rng);
        let executor = ppuf.executor(Environment::NOMINAL);
        challenge.control_bits.iter_mut().for_each(|b| *b = false);
        let all0 = executor.flow_network(NetworkSide::A, &challenge).expect("valid");
        challenge.control_bits.iter_mut().for_each(|b| *b = true);
        let all1 = executor.flow_network(NetworkSide::A, &challenge).expect("valid");
        prop_assert!((all0.total_capacity() - all1.total_capacity()).abs() > 1e-12);

        // 2. on a *nominal* (variation-free) device the direction is
        //    fixed: the input-0 bias has the larger capacity under the
        //    paper's voltage settings (per-device variation can invert it)
        let mut config = PpufConfig::paper(nodes, 2);
        config.process = maxflow_ppuf::analog::variation::ProcessVariation {
            sigma_vth: maxflow_ppuf::analog::units::Volts(0.0),
            ..maxflow_ppuf::analog::variation::ProcessVariation::new()
        };
        let nominal = Ppuf::generate(config, 0).expect("valid");
        let mut challenge = nominal.challenge_space().random(&mut rng);
        let executor = nominal.executor(Environment::NOMINAL);
        challenge.control_bits.iter_mut().for_each(|b| *b = false);
        let all0 = executor.flow_network(NetworkSide::A, &challenge).expect("valid");
        challenge.control_bits.iter_mut().for_each(|b| *b = true);
        let all1 = executor.flow_network(NetworkSide::A, &challenge).expect("valid");
        prop_assert!(all0.total_capacity() > all1.total_capacity());
    }
}

proptest! {
    // each case solves both networks under all five environments, so a
    // few cases cover the corners
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chip_dc_current_matches_dinic_within_fig6_budget(
        nodes in 6usize..64,
        seed in any::<u64>(),
        cseed in any::<u64>(),
    ) {
        // Fig 6: the analog operating point carries the max flow over the
        // capacities the device publishes for that environment
        let ppuf = Ppuf::generate(PpufConfig::paper(nodes, (nodes / 5).clamp(1, 8)), seed)
            .expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(cseed);
        let challenge = ppuf.challenge_space().random(&mut rng);
        for env in Environment::corners() {
            let executor = ppuf.executor(env);
            let chip = executor.execute(&challenge).expect("the DC solve converges");
            let flow = executor.model().simulate(&challenge, &Dinic::new()).expect("solves");
            for (analog, max_flow) in
                [(chip.current_a, flow.current_a), (chip.current_b, flow.current_b)]
            {
                let (analog, max_flow) = (analog.value(), max_flow.value());
                prop_assert!(analog > 0.0, "{env:?}: no current");
                prop_assert!(
                    (analog - max_flow).abs() / analog <= 0.01,
                    "{env:?}: chip {analog} A vs Dinic {max_flow} A"
                );
            }
        }
    }
}
