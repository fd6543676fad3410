//! Fig 8 — output measurability: average output current and A/B current
//! difference vs device size, with the §5 power estimate.
//!
//! The average current scales linearly (the min cut isolates a terminal:
//! `n − 1` edges of ~tens of nA) while the difference grows more slowly —
//! both must stay within a realistic comparator's input range and
//! resolution. Paper operating point: 33.6 µA average, 2.89 µA difference
//! at 900 nodes; 134.4 µW crossbars + 153 µW comparator × 1.0 µs
//! ≈ 287.4 pJ per evaluation.

use std::time::Instant;

use ppuf_analog::delay::DelayModel;
use ppuf_analog::montecarlo::stream;
use ppuf_analog::units::Amps;
use ppuf_analog::variation::Environment;
use ppuf_core::batch::EvalBatch;
use ppuf_core::esg::PowerLawFit;
use ppuf_core::{Challenge, Ppuf};

use crate::experiments::make_ppuf;
use crate::report::{mean, row, section, sig};
use crate::Scale;

/// Runs the Fig 8 experiment.
pub fn run(scale: Scale) {
    let sizes: Vec<usize> = scale.pick(vec![10, 20, 30, 40], (1..=10).map(|i| i * 10).collect());
    let instances = scale.pick(12, 60);
    section("Fig 8: output current average and A/B difference");
    row(&[
        format!("{:>6}", "nodes"),
        format!("{:>14}", "avg current(A)"),
        format!("{:>14}", "difference(A)"),
    ]);
    let mut avg_series = Vec::new();
    let mut diff_series = Vec::new();
    for &n in &sizes {
        let grid = (n / 5).clamp(1, 8);
        let mut avgs = Vec::new();
        let mut diffs = Vec::new();
        for instance in 0..instances {
            let ppuf = make_ppuf(n, grid, 0x0800 + instance as u64);
            let mut rng = stream(0x0801, instance as u64);
            let challenge = ppuf.challenge_space().random(&mut rng);
            let outcome =
                ppuf.executor(Environment::NOMINAL).execute_flow(&challenge).expect("solvable");
            avgs.push(0.5 * (outcome.current_a.value() + outcome.current_b.value()));
            diffs.push(outcome.difference().value());
        }
        let (a, d) = (mean(&avgs), mean(&diffs));
        row(&[format!("{n:>6}"), format!("{:>14}", sig(a)), format!("{:>14}", sig(d))]);
        avg_series.push((n, a));
        diff_series.push((n, d));
    }
    let avg_fit = PowerLawFit::fit_values(&avg_series).expect("fits");
    let diff_fit = PowerLawFit::fit_values(&diff_series).expect("fits");
    println!("\nfits (x = nodes):");
    row(&[
        "average current".into(),
        format!("{} * n^{:.2}", sig(avg_fit.coefficient), avg_fit.exponent),
    ]);
    row(&[
        "difference".into(),
        format!("{} * n^{:.2}", sig(diff_fit.coefficient), diff_fit.exponent),
    ]);
    let avg900 = avg_fit.predict(900).value();
    let diff900 = diff_fit.predict(900).value();
    println!("\nextrapolation to 900 nodes (cross-check only):");
    row(&["average current".into(), format!("{}  (paper: 33.6 uA)", sig(avg900))]);
    row(&["current difference".into(), format!("{}  (paper: 2.89 uA)", sig(diff900))]);

    // the paper's n = 900 operating point, measured natively through the
    // batched evaluation engine rather than read off the power-law fit
    let native_n = scale.pick(120, 900);
    let native_instances = scale.pick(2, 3);
    let native_challenges = scale.pick(4, 8);
    section(&format!("Native measurement at n = {native_n} (batched evaluation)"));
    let grid = (native_n / 5).clamp(1, 8);
    let built = Instant::now();
    let ppufs: Vec<Ppuf> =
        (0..native_instances).map(|i| make_ppuf(native_n, grid, 0x0900 + i as u64)).collect();
    let generation_seconds = built.elapsed().as_secs_f64();
    let mut rng = stream(0x0901, native_n as u64);
    let challenges: Vec<Challenge> =
        (0..native_challenges).map(|_| ppufs[0].challenge_space().random(&mut rng)).collect();
    let executors: Vec<_> = ppufs.iter().map(|p| p.executor(Environment::NOMINAL)).collect();
    let batch = EvalBatch::new(0);
    let evaluated = Instant::now();
    let results = batch.run(&executors, &challenges);
    let eval_seconds = evaluated.elapsed().as_secs_f64();
    let mut avgs = Vec::new();
    let mut diffs = Vec::new();
    for outcome in results.iter() {
        let out = outcome.as_ref().expect("solvable");
        avgs.push(0.5 * (out.current_a.value() + out.current_b.value()));
        diffs.push(out.difference().value());
    }
    let evaluations = avgs.len();
    row(&["devices x challenges".into(), format!("{native_instances} x {native_challenges}")]);
    row(&["model generation".into(), format!("{generation_seconds:.2} s")]);
    row(&[
        "batched evaluation".into(),
        format!("{eval_seconds:.2} s total, {:.3} s/evaluation", eval_seconds / evaluations as f64),
    ]);
    row(&["measured avg current".into(), format!("{}  (paper: 33.6 uA)", sig(mean(&avgs)))]);
    row(&["measured difference".into(), format!("{}  (paper: 2.89 uA)", sig(mean(&diffs)))]);

    section("Power estimate at 900 nodes (paper Section 5)");
    // prefer the natively measured current when the run reached n = 900
    let avg_for_power = if native_n == 900 { mean(&avgs) } else { avg900 };
    let ppuf = make_ppuf(10, 2, 0x08FF);
    let delay = DelayModel::default().bound(900);
    let (power, energy) = ppuf.power_estimate(Amps(avg_for_power), delay);
    row(&["execution delay".into(), format!("{delay}  (paper: 1.0 us)")]);
    row(&[
        "total power (2 crossbars + comparator)".into(),
        format!("{power}  (paper: 134.4 uW + 153 uW)"),
    ]);
    row(&["energy per evaluation".into(), format!("{energy}  (paper: 287.4 pJ)")]);
}
