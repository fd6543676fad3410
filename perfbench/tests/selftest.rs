//! Self-tests of the benchmark: every workload at a tiny size passes its
//! own checks, and planted wrong outputs are counted as failed
//! operations rather than passed.

use perfbench::dc::{self, DcSpec};
use perfbench::measure::Outcome;
use perfbench::serve::{self, ServeSpec};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use ppuf_core::protocol::auth::ProverAnswer;
use ppuf_maxflow::Dinic;

const TINY_FRESH: ServeSpec =
    ServeSpec { name: "tiny-fresh", nodes: 8, grid: 1, warmup_rounds: 8, min_rounds: 40 };

const TINY_DC: DcSpec = DcSpec { name: "tiny-dc", nodes: 12, setups: 2 };

fn assert_end_to_end(outcome: &Outcome) {
    assert!(outcome.correct(), "problems: {:?}, failed {}", outcome.problems, outcome.failed);
    for (name, _) in END_TO_END {
        let value = outcome.value(name).unwrap_or(0.0);
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

fn assert_per_layer(outcome: &Outcome, measured: &[&str]) {
    assert!(outcome.correct(), "problems: {:?}, failed {}", outcome.problems, outcome.failed);
    for (name, _) in PER_LAYER {
        let value = outcome.value(name).unwrap_or(0.0);
        assert!(value.is_finite(), "{name} = {value}");
    }
    for name in measured {
        assert!(outcome.value(name).is_some_and(|v| v > 0.0), "{name} not measured");
    }
}

const SERVE_LAYERS: [&str; 12] = [
    "trace.operations",
    "trace.overhead_ratio",
    "client.encode_ms",
    "wire2.decode_ms",
    "wire2.request_bytes",
    "reactor.parse_ms",
    "service.request_ms",
    "cache.probe_ms",
    "verify.flow_network_ms",
    "verify.residual_ms",
    "setup.publish_s",
    "setup.prove_ms",
];

#[test]
fn fresh_rounds_pass_and_never_hit_the_cache() {
    let outcome = serve::run(&TINY_FRESH, 7, 0.0, false).expect("untraced run");
    assert!(outcome.attempted >= TINY_FRESH.min_rounds as u64);
    assert_end_to_end(&outcome);

    let traced = serve::run(&TINY_FRESH, 7, 0.0, true).expect("traced run");
    assert_per_layer(&traced, &SERVE_LAYERS);
    assert_eq!(traced.value("cache.hit_ratio"), Some(0.0));
    assert!(traced.value("verify.self_ms").is_some_and(|v| v > 0.0));
    assert_eq!(traced.value("pool.overloaded"), Some(0.0));
}

#[test]
fn seeds_move_the_lazy_rounds_over_one_device_and_pass() {
    let inputs = |seed| {
        let mut seen = None;
        serve::run_prepared(&TINY_FRESH, seed, 0.0, false, |prepared| {
            seen = Some((prepared.challenges.clone(), prepared.lazy_offset));
        })
        .expect("run completes");
        seen.expect("the hook ran")
    };
    let (a, b, c) = (inputs(7), inputs(7), inputs(10));
    assert_eq!(a, b);
    assert_eq!(a.0, c.0);
    assert_ne!(a.1, c.1);
}

#[test]
fn an_accepted_lazy_answer_is_a_failed_round() {
    // replace a lazy round's answer by the honest one, which is accepted
    let outcome = serve::run_prepared(&TINY_FRESH, 7, 0.0, false, |prepared| {
        let k = prepared.lazy_offset;
        let proof =
            prepared.model.simulate(&prepared.challenges[k], &Dinic::new()).expect("proves");
        prepared.answers[k] = Some(ProverAnswer {
            response: proof.response.expect("resolvable"),
            flow_a: proof.flow_a,
            flow_b: proof.flow_b,
        });
    })
    .expect("run completes");
    assert!(!outcome.correct());
    let passes = outcome.attempted / serve::PASS as u64;
    assert!(outcome.failed >= passes && outcome.failed > 0, "failed {}", outcome.failed);
}

#[test]
fn dc_solves_match_the_max_flow_reference() {
    let outcome = dc::run(&TINY_DC, 7, 0.0, false).expect("untraced run");
    assert_eq!(outcome.attempted, 1);
    assert_end_to_end(&outcome);

    let traced = dc::run(&TINY_DC, 7, 0.0, true).expect("traced run");
    assert_per_layer(
        &traced,
        &[
            "trace.operations",
            "setup.reference_s",
            "dc.device_eval_s",
            "dc.factor_s",
            "dc.newton_iterations",
            "dc.factorizations",
            "dc.eval_ns_per_edge_iter",
            "dc.device_eval_share",
        ],
    );
    assert_eq!(traced.attempted, 2);
}

#[test]
fn a_wrong_reference_current_is_a_failed_solve() {
    let outcome = dc::run_prepared(&TINY_DC, 7, 0.0, false, |prepared| {
        prepared.reference_a *= 1.05;
    })
    .expect("run completes");
    assert_eq!((outcome.attempted, outcome.failed), (1, 1));
    assert!(!outcome.correct());
}

#[test]
fn seeds_relabel_the_same_crossbar() {
    let labels = |p: &dc::PreparedDc| {
        let edges: Vec<(u32, u32)> = p.circuit.edges().iter().map(|e| (e.from, e.to)).collect();
        (p.source, p.sink, edges)
    };
    let a = dc::prepare(&TINY_DC, 11).expect("prepare");
    let b = dc::prepare(&TINY_DC, 11).expect("prepare");
    let c = dc::prepare(&TINY_DC, 12).expect("prepare");
    assert_eq!(labels(&a), labels(&b));
    assert_ne!(labels(&a), labels(&c));
    // relabeling keeps the physics: the same max-flow reference
    assert!((a.reference_a - c.reference_a).abs() <= 1e-9 * a.reference_a);
}

/// Every `"key": "<value>"` string value of `key` in `text`, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_manifest_lists_what_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    names.extend(END_TO_END.iter().map(|(name, _)| *name));
    names.extend(PER_LAYER.iter().map(|(name, _)| *name));
    assert_eq!(string_values(&text, "name"), names);
    let units: Vec<&str> =
        END_TO_END.iter().chain(PER_LAYER.iter()).map(|(_, unit)| *unit).collect();
    assert_eq!(string_values(&text, "unit"), units);
}
