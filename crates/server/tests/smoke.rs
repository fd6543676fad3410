//! End-to-end smoke test: the CI load-generation profile over real TCP.
//!
//! Runs the same paced profile `ppuf_loadgen --smoke` uses — a small
//! device, an `AsyncServer` with 2 dispatch threads, 100 rounds across
//! honest, impostor, and garbage JSON connections — and asserts the service-level
//! guarantees: honest traffic accepted, simulating attackers rejected on
//! the deadline, malformed payloads answered with structured errors, and
//! nothing panicking anywhere.

use ppuf_server::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};

#[test]
fn loadgen_smoke_profile_end_to_end() {
    let config = LoadgenConfig::smoke();
    assert_eq!(config.total_rounds(), 100);
    assert_eq!(config.dispatch_threads, 2);

    let report = run_loadgen(&config).expect("loadgen run failed to start");

    // the one-call invariant check the CI smoke step also relies on
    report.check_smoke_invariants().expect("smoke invariants violated");

    // and the individual guarantees, spelled out
    assert_eq!(report.total_rounds, 100);
    assert_eq!(report.honest.requests, 60);
    assert_eq!(report.honest.accepted, 60, "{:?}", report.honest);
    assert_eq!(report.impostor.requests, 20);
    assert_eq!(report.impostor.rejected_deadline, 20, "{:?}", report.impostor);
    assert_eq!(report.garbage.requests, 20);
    assert_eq!(report.garbage.structured_errors, 20, "{:?}", report.garbage);

    // every verified answer passes through the verification cache
    let hits = report.server_counters.get("server.cache.hits").copied().unwrap_or(0);
    let misses = report.server_counters.get("server.cache.misses").copied().unwrap_or(0);
    assert!(hits + misses >= 80, "every verified answer passes through the cache");

    // server-side accounting matches the client-side view
    assert_eq!(report.server_counters.get("server.answers.accepted").copied(), Some(60));
    assert_eq!(report.server_counters.get("server.answers.rejected").copied(), Some(20));
    assert_eq!(report.server_counters.get("server.answers.rejected_deadline").copied(), Some(20));
    // the two garbage streams rotate through the cases from their stream
    // indices 8 and 9, so their 10 rounds each hit the two frame-level
    // malformed variants (case % 4 ∈ {0, 1}) 6 and 5 times
    assert_eq!(report.server_counters.get("server.requests.malformed").copied(), Some(11));
    assert!(report.server_warnings.is_empty(), "{:?}", report.server_warnings);

    // latency percentiles exist and are ordered
    let latency = report.honest.latency.expect("honest latency recorded");
    assert!(latency.count == 60);
    assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
    assert!(latency.min <= latency.p50 && latency.p99 <= latency.max);

    // the percentiles come from the bounded histogram riding along in
    // the report, so summary and snapshot must agree exactly
    let hist = report.honest.latency_hist.clone().expect("honest latency histogram recorded");
    assert_eq!(hist.count, 60);
    assert_eq!(hist.quantile(0.5), Some(latency.p50));
    assert_eq!(hist.quantile(0.95), Some(latency.p95));
    assert_eq!(hist.quantile(0.99), Some(latency.p99));
    assert!(report.garbage.latency_hist.is_none(), "garbage rounds record no latency");

    // the service must end the smoke run healthy, with all three SLO
    // verdicts present and the matching gauge exposed on the scrape
    assert_eq!(report.health.status, ppuf_server::HealthStatus::Ok, "{:?}", report.health);
    assert_eq!(report.health.slos.len(), 3);
    assert_eq!(report.prometheus_samples.get("ppuf_slo_health").copied(), Some(0.0));

    // every verdict round carried an echoed trace id, and the server-side
    // span trees correlate end to end under those ids
    assert_eq!(report.traced_requests, 80, "honest + impostor verdict rounds");
    assert!(report.correlated_traces >= Some(1), "{:?}", report.correlated_traces);

    // the live Prometheus scrape exposed the headline serving metrics
    for metric in ["ppuf_cache_hits_total", "ppuf_pool_queue_depth"] {
        assert!(report.prometheus_samples.contains_key(metric), "missing {metric}");
    }
    assert!(report.prometheus_samples["ppuf_cache_hits_total"] >= hits as f64);
    // zero-filled cache counters always appear in the report
    assert!(report.server_counters.contains_key("server.cache.evictions"));

    // the JSON report round-trips
    let json = report.to_json();
    let parsed: LoadgenReport = serde_json::from_str(&json).expect("report JSON parses back");
    assert_eq!(parsed, report);
    assert!(json.contains("throughput_rps"));
}
