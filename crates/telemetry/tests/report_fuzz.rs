//! Hostile input for the report reader. `serde_json::from_str::<Report>`
//! is the same parser wire 1.x's JSON payloads go through, and it must
//! answer arbitrary bytes, truncations and single-byte flips of a real
//! report's text with `Ok` or `Err`, never a panic.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use ppuf_telemetry::{
    next_trace_id, MemoryRecorder, Profiler, Recorder, Report, SampleSeries, TracedSpan,
};

/// A report with every section filled, as `serde_json` writes it.
fn report_text() -> &'static [u8] {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut recorder = MemoryRecorder::new();
        let profiler = Arc::new(Profiler::new());
        recorder.set_profiler(Arc::clone(&profiler));
        recorder.counter_add("dc.newton_iterations", 42);
        recorder.observe("dc.final_residual", 3.25e-11);
        recorder.record_span("dc.solve", Duration::from_micros(1234));
        recorder.warn("fallback \"taken\"\t\\ é");
        let mut series = SampleSeries::new();
        series.extend([1.0, 2.0, 3.0]);
        recorder.record_samples("engine.solve_seconds", &series);
        recorder.record_event("analog.dc.residual_trace", &[1e-3, 1e-7]);
        profiler.record_path("analog.dc.solve;stamp", Duration::from_millis(2), Duration::ZERO);
        {
            let mut root = TracedSpan::root(&recorder, "server.request", next_trace_id());
            root.attr("kind", "SubmitAnswer");
            let _child = root.child("server.verify");
        }
        serde_json::to_string_pretty(&recorder.snapshot("fuzz seed")).expect("serializes")
    })
    .as_bytes()
}

/// Parses `bytes` (lossily decoded: the reader takes a `&str`); a panic
/// fails the property.
fn read(bytes: &[u8]) -> Result<Report, serde_json::Error> {
    serde_json::from_str(&String::from_utf8_lossy(bytes))
}

/// The bytes JSON is made of, so generated input reaches past the first
/// token more often than uniform noise does.
const JSON_BYTES: &[u8] = b"{}[]\":,.-+0123456789eEnulltruefalse\\u \n";

#[test]
fn the_seed_report_parses() {
    let report = read(report_text()).expect("the writer's own output parses");
    assert!(!report.profile.is_empty() && !report.traces.is_empty() && !report.hists.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_report_reader_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        tokens in proptest::collection::vec(0..JSON_BYTES.len(), 0..256),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let _ = read(&noise);
        let _ = read(&tokens.iter().map(|&i| JSON_BYTES[i]).collect::<Vec<u8>>());
        let seed = report_text();
        let _ = read(&seed[..cut % (seed.len() + 1)]);
        let mut flipped = seed.to_vec();
        flipped[at % seed.len()] = byte;
        let _ = read(&flipped);
    }
}
