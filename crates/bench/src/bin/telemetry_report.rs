//! Generates a machine-readable telemetry run report: one device is
//! exercised end-to-end — analog DC operating point, max-flow simulation,
//! transient settling, and a small model-building attack — with every
//! stage reporting into a single [`MemoryRecorder`], whose
//! schema-versioned snapshot is written under `results/telemetry/`.
//!
//! ```text
//! cargo run --release --bin telemetry_report [-- --nodes N] [--out DIR]
//! ```

use ppuf_analog::montecarlo::stream;
use ppuf_analog::solver::{simulate_step_response_traced, DcOptions, TransientOptions};
use ppuf_analog::units::{Farads, Seconds};
use ppuf_analog::variation::Environment;
use ppuf_attack::arbiter::ArbiterPuf;
use ppuf_attack::harness::{evaluate_attack_traced, ArbiterOracle, AttackConfig};
use ppuf_bench::experiments::make_ppuf;
use ppuf_bench::report::{write_telemetry_report, TELEMETRY_DIR};
use ppuf_core::NetworkSide;
use ppuf_maxflow::{Dinic, MaxFlowSolver};
use ppuf_telemetry::{MemoryRecorder, Recorder};

/// Per-edge junction capacitance for the transient stage (see the delay
/// ablation: magnitude only scales the time axis, not the behaviour).
const EDGE_CAPACITANCE: f64 = 1e-15;

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() {
    let nodes: usize = arg_after("--nodes").and_then(|v| v.parse().ok()).unwrap_or(100);
    let out_dir = arg_after("--out").unwrap_or_else(|| TELEMETRY_DIR.to_string());
    let reporter = MemoryRecorder::new();

    // --- device under test -------------------------------------------
    let grid = (nodes / 5).clamp(1, 8);
    let ppuf = make_ppuf(nodes, grid, 0x7E1E);
    let mut rng = stream(0x7E1F, nodes as u64);
    let challenge = ppuf.challenge_space().random(&mut rng);
    let env = Environment::NOMINAL;
    let supply = env.scaled_supply(ppuf.config().supply);
    reporter.counter_add("report.device_nodes", nodes as u64);

    // --- analog DC operating point ------------------------------------
    let circuit = ppuf
        .network(NetworkSide::A)
        .circuit(&challenge, ppuf.grid())
        .expect("crossbar circuit assembles");
    let options =
        DcOptions { temperature: env.temperature, trace_residuals: true, ..DcOptions::default() };
    let dc = circuit
        .solve_dc_traced(
            challenge.source.index() as u32,
            challenge.sink.index() as u32,
            supply,
            &options,
            &reporter,
        )
        .expect("dc operating point converges");
    println!("dc: source current {} after {} newton iterations", dc.source_current, dc.iterations);

    // --- max-flow simulation path --------------------------------------
    let executor = ppuf.executor(env);
    let net = executor.flow_network(NetworkSide::A, &challenge).expect("flow network assembles");
    let solver = Dinic::new();
    // traced: counters plus the per-phase augmentation event
    let (flow, stats) = solver
        .max_flow_traced(&net, challenge.source, challenge.sink, &reporter)
        .expect("max flow solves");
    println!("maxflow: value {:.6e} A in {} phases", flow.value(), stats.bfs_passes);

    // --- transient settling --------------------------------------------
    let node_cap = EDGE_CAPACITANCE * 2.0 * (nodes - 1) as f64;
    let caps = vec![Farads(node_cap); nodes];
    let transient_options = TransientOptions {
        step: Seconds(2e-9 * nodes as f64),
        max_time: Seconds(1e-4),
        temperature: env.temperature,
        ..TransientOptions::default()
    };
    let transient = simulate_step_response_traced(
        &circuit,
        challenge.source.index() as u32,
        challenge.sink.index() as u32,
        supply,
        &caps,
        &transient_options,
        &reporter,
    )
    .expect("transient settles");
    println!("transient: settled in {}", transient.settling_time);

    // --- model-building attack (arbiter baseline) ----------------------
    let mut attack_rng = stream(0x7E20, nodes as u64);
    let oracle = ArbiterOracle::new(ArbiterPuf::sample(32, &mut attack_rng));
    let config = AttackConfig { test_size: 200, ..AttackConfig::default() };
    let results = evaluate_attack_traced(&oracle, &[400], &config, &mut attack_rng, &reporter)
        .expect("attack harness runs");
    println!(
        "attack: best error {:.3} at {} CRPs",
        results[0].min_error(),
        results[0].observed_crps
    );

    // --- write the report ----------------------------------------------
    let report = reporter.snapshot(&format!("run_n{nodes}"));
    let path = write_telemetry_report(&report, &out_dir).expect("report written");
    println!(
        "\nschema v{} report with {} counters, {} histograms, {} spans, {} events -> {}",
        report.schema_version,
        report.counters.len(),
        report.histograms.len(),
        report.spans.len(),
        report.events.len(),
        path.display()
    );
    for (name, value) in &report.counters {
        println!("  {name:<44} {value}");
    }
}
