//! The repository benchmark: end-to-end and per-layer measurements of
//! the verification service and the native DC solver, driven only
//! through the crates' public APIs. See `README.md` in this directory
//! for the workloads, the metrics and why they were chosen.

pub mod dc;
pub mod measure;
pub mod serve;

use measure::Outcome;

/// The end-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("rounds_per_s", "1/s"),
    ("solve_s", "s"),
    ("cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, printed by every traced run.
/// A layer a workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("trace.operations", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("client.encode_ms", "ms"),
    ("client.encode_count", "count"),
    ("wire2.decode_ms", "ms"),
    ("wire2.decode_count", "count"),
    ("wire2.request_bytes", "B"),
    ("reactor.parse_ms", "ms"),
    ("reactor.dispatch_ms", "ms"),
    ("reactor.write_ms", "ms"),
    ("reactor.poll_wait_ms", "ms"),
    ("service.request_ms", "ms"),
    ("service.request_count", "count"),
    ("pool.queue_wait_ms", "ms"),
    ("pool.queue_wait_count", "count"),
    ("pool.overloaded", "count"),
    ("cache.probe_ms", "ms"),
    ("cache.probe_count", "count"),
    ("cache.hit_ratio", "ratio"),
    ("verify.self_ms", "ms"),
    ("verify.count", "count"),
    ("verify.flow_network_ms", "ms"),
    ("verify.feasible_ms", "ms"),
    ("verify.residual_ms", "ms"),
    ("verify.network_count", "count"),
    ("transport.unattributed_ms", "ms"),
    ("process.minor_faults", "count"),
    ("setup.generate_s", "s"),
    ("setup.publish_s", "s"),
    ("setup.prove_ms", "ms"),
    ("setup.prove_count", "count"),
    ("setup.reference_s", "s"),
    ("dc.device_eval_s", "s"),
    ("dc.stamp_s", "s"),
    ("dc.factor_s", "s"),
    ("dc.back_substitute_s", "s"),
    ("dc.newton_iterations", "count"),
    ("dc.factorizations", "count"),
    ("dc.eval_ns_per_edge_iter", "ns"),
    ("dc.device_eval_share", "ratio"),
];

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = [serve::FRESH_N900.name, dc::CROSSBAR_N900.name];

/// Runs one workload: builds its inputs from `seed`, measures for
/// `seconds` (or the workload's minimum operation count, if longer),
/// checks every output, and returns the end-to-end metrics, or with
/// `trace` the per-layer metrics of a separate traced pass.
///
/// # Errors
///
/// Returns a message for an unknown workload or a run that could not be
/// carried out (a socket that would not bind, a transport failure).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut outcome = match workload {
        name if name == serve::FRESH_N900.name => {
            serve::run(&serve::FRESH_N900, seed, seconds, trace)?
        }
        name if name == dc::CROSSBAR_N900.name => {
            dc::run(&dc::CROSSBAR_N900, seed, seconds, trace)?
        }
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    if !trace {
        for (name, _) in END_TO_END {
            if !outcome.value(name).is_some_and(|v| v.is_finite() && v > 0.0) {
                outcome.problems.push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    Ok(outcome)
}

/// The metric list a run prints: end-to-end, or per-layer when traced.
pub fn metric_names(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
