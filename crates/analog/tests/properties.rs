//! Property-based tests for the analog substrate: incremental passivity,
//! inverse consistency, and solver invariants hold for arbitrary
//! variation and bias.

use proptest::prelude::*;

use ppuf_analog::block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock, TwoTerminal};
use ppuf_analog::solver::{simulate_step_response, Circuit, DcOptions, TransientOptions};
use ppuf_analog::units::{Amps, Celsius, Farads, Seconds, Volts};

fn any_design() -> impl Strategy<Value = BlockDesign> {
    prop_oneof![
        Just(BlockDesign::Plain),
        Just(BlockDesign::SingleSd),
        Just(BlockDesign::DoubleSd),
        Just(BlockDesign::Serial),
    ]
}

fn any_variation() -> impl Strategy<Value = BlockVariation> {
    proptest::array::uniform4(-0.08f64..0.08).prop_map(|d| BlockVariation {
        delta_vth: [Volts(d[0]), Volts(d[1]), Volts(d[2]), Volts(d[3])],
    })
}

fn any_block() -> impl Strategy<Value = BuildingBlock> {
    (any_design(), any_variation(), 0.45f64..0.7, -20.0f64..80.0).prop_map(
        |(design, variation, vgs0, _)| {
            BuildingBlock::new(design, BlockBias { vgs0: Volts(vgs0), ..BlockBias::INPUT_ONE })
                .with_variation(variation)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocks_are_incrementally_passive(block in any_block(), temp in -20.0f64..80.0) {
        let temp = Celsius(temp);
        let mut prev = -1.0;
        for step in 0..25 {
            let i = block.current(Volts(step as f64 * 0.08), temp).value();
            prop_assert!(i >= prev, "non-monotone at step {step}");
            prop_assert!(i >= 0.0);
            prev = i;
        }
    }

    #[test]
    fn reverse_bias_never_conducts(block in any_block(), dv in -3.0f64..0.0) {
        prop_assert_eq!(block.current(Volts(dv), Celsius::NOMINAL).value(), 0.0);
    }

    #[test]
    fn forward_inverse_roundtrip(block in any_block(), dv in 0.5f64..2.2) {
        let temp = Celsius::NOMINAL;
        let i = block.current(Volts(dv), temp);
        if i.value() > 1e-15 {
            let back = block.voltage_for_current(i, temp).value();
            prop_assert!((back - dv).abs() < 1e-6, "dv {dv} → i {} → {back}", i.value());
        }
    }

    #[test]
    fn capacity_shrinks_with_higher_threshold(
        design in any_design(),
        shift in 0.005f64..0.06,
    ) {
        let temp = Celsius::NOMINAL;
        let nominal = BuildingBlock::new(design, BlockBias::INPUT_ONE);
        let slow = nominal.with_variation(BlockVariation::uniform(Volts(shift)));
        prop_assert!(slow.saturation_current(temp) <= nominal.saturation_current(temp));
    }

    #[test]
    fn dc_respects_kcl_on_random_chains(
        vars in proptest::collection::vec(any_variation(), 3),
        vs in 1.2f64..2.4,
    ) {
        // s → a → b → t chain of serial blocks
        let mut circuit = Circuit::new(4);
        for (k, var) in vars.iter().enumerate() {
            let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE)
                .with_variation(*var);
            circuit
                .add_element(k as u32, k as u32 + 1, block)
                .expect("nodes in range");
        }
        let solution = circuit
            .solve_dc(0, 3, Volts(vs), &DcOptions::default())
            .expect("chain converges");
        prop_assert!(solution.residual.value() < 1e-12);
        // chain current is bounded by the weakest block's capacity curve
        let weakest = (0..3)
            .map(|k| circuit.edges()[k].element.current(Volts(vs), Celsius::NOMINAL).value())
            .fold(f64::INFINITY, f64::min);
        prop_assert!(solution.source_current.value() <= weakest + 1e-12);
        // internal node voltages are ordered along the chain
        prop_assert!(solution.voltages[0] >= solution.voltages[1]);
        prop_assert!(solution.voltages[1] >= solution.voltages[2]);
        prop_assert!(solution.voltages[2] >= solution.voltages[3]);
    }

    #[test]
    fn dc_current_monotone_in_supply(var in any_variation()) {
        let block =
            BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE).with_variation(var);
        let mut circuit = Circuit::new(2);
        circuit.add_element(0, 1, block).expect("valid");
        let mut prev = -1.0;
        for vs in [0.5, 1.0, 1.5, 2.0] {
            let i = circuit
                .solve_dc(0, 1, Volts(vs), &DcOptions::default())
                .expect("converges")
                .source_current
                .value();
            prop_assert!(i >= prev, "supply {vs}: {i} < {prev}");
            prev = i;
        }
    }
}

#[test]
fn transient_settles_to_dc_for_block_chain() {
    // integration of transient + dc on real blocks (not proptest: slow)
    let mut circuit = Circuit::new(3);
    let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
    circuit.add_element(0, 1, block).expect("valid");
    circuit.add_element(1, 2, block).expect("valid");
    let dc = circuit.solve_dc(0, 2, Volts(2.0), &DcOptions::default()).expect("converges");
    let caps = vec![Farads(0.0), Farads(5e-15), Farads(0.0)];
    let transient = simulate_step_response(
        &circuit,
        0,
        2,
        Volts(2.0),
        &caps,
        &TransientOptions {
            step: Seconds(5e-9),
            max_time: Seconds(5e-5),
            ..TransientOptions::default()
        },
    )
    .expect("integrates");
    let final_current = transient.trajectory.last().expect("non-empty").1;
    assert!(
        (final_current.value() - dc.source_current.value()).abs()
            <= 2e-3 * dc.source_current.value().abs() + 1e-15,
        "transient {} vs dc {}",
        final_current,
        dc.source_current
    );
    assert!(transient.settling_time.value() > 0.0);
    let _ = Amps(0.0);
}
