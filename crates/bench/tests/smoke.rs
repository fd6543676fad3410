//! Smoke tests: the fast experiment drivers run end-to-end at quick scale
//! (guards the harness against bitrot without paying full experiment
//! cost; the slow drivers are exercised by the `all_experiments` binary).

use ppuf_bench::{experiments, Scale};

#[test]
fn fig3_runs() {
    experiments::fig3::run(Scale::Quick);
}

#[test]
fn crp_space_runs() {
    experiments::crp_space::run(Scale::Quick);
}

#[test]
fn fig6_runs() {
    experiments::fig6::run(Scale::Quick);
}

#[test]
fn fig7_runs() {
    experiments::fig7::run(Scale::Quick);
}

#[test]
fn fig8_runs() {
    experiments::fig8::run(Scale::Quick);
}
