//! Engine scaling benchmark: measured cold DC solve wall-time vs device
//! size and thread count — including the paper's n = 900 operating point,
//! measured natively rather than extrapolated — plus a grid workload
//! solved under both linear backends, so the dense-vs-sparse trade sits in
//! the same report.
//!
//! Default run writes `results/bench/engine.json` plus a telemetry report
//! (with percentile sample summaries) under `results/bench/`. The
//! `--backend dense|sparse|auto` flag forces the linear backend for the
//! crossbar scaling matrix (default: auto). The `--smoke` mode solves one
//! n = 200 cold operating point, writes `results/bench/engine-smoke.json`,
//! and exits non-zero if the solve regressed more than 2× or took more
//! than 2 Newton iterations beyond the committed
//! `results/bench/engine-smoke-baseline.json` — the CI perf gate — or
//! if the profiler's device-eval self-time share drifted out of the
//! baseline's band. `--profile` (implies `--smoke`) additionally
//! writes flamegraph-ready folded stacks to
//! `results/profiles/engine-smoke.folded` plus the same measurement as a
//! schema-versioned telemetry report with its `profile` section.

use serde::Serialize;

use ppuf_analog::solver::{DcEngine, DcOptions, EngineOptions, LinearBackend};
use ppuf_bench::engine_profile::{
    challenge_circuit, check_eval_share_baseline, check_smoke_baseline, device_variations,
    grid_circuit, grid_edge_count, grid_variations, run_engine_smoke_profiled, time, SolverShape,
    BENCH_DIR, PROFILES_DIR, SUPPLY,
};
use ppuf_bench::report::{write_json_report, write_telemetry_report};
use ppuf_telemetry::{MemoryRecorder, SampleSeries};

/// `engine.json`: the crossbar scaling matrix plus the grid workload
/// under both linear backends.
#[derive(Serialize)]
struct FullReport {
    schema: u32,
    mode: &'static str,
    backend: &'static str,
    threads_available: usize,
    sizes: Vec<SizeRow>,
    grid_comparison: GridRow,
}

#[derive(Serialize)]
struct EngineRow {
    threads: usize,
    cold_mean_seconds: f64,
    speedup_vs_cold_baseline: f64,
}

#[derive(Serialize)]
struct SizeRow {
    nodes: usize,
    edges: usize,
    cold_baseline_seconds: f64,
    cold_solves: usize,
    engines: Vec<EngineRow>,
}

/// One size's measurement: a cold [`Circuit::solve_dc`] (fresh workspace,
/// one thread) as the baseline, then at each thread count one engine
/// solving `solves` challenges of the same device, the baseline's first.
/// Every solve is cold; the engine reuses only its workspace.
///
/// [`Circuit::solve_dc`]: ppuf_analog::solver::Circuit::solve_dc
fn measure_size(
    n: usize,
    threads_list: &[usize],
    solves: usize,
    backend: LinearBackend,
    recorder: &MemoryRecorder,
) -> SizeRow {
    let options = DcOptions { backend, ..DcOptions::default() };
    let (source, sink) = (0u32, n as u32 - 1);
    let vars = device_variations(n, 0xE27 + n as u64);
    let circuit = challenge_circuit(n, &vars, 0xC0);
    let (baseline, cold_baseline_seconds) =
        time(|| circuit.solve_dc(source, sink, SUPPLY, &options).expect("cold baseline converges"));
    eprintln!("n={n}: cold baseline {cold_baseline_seconds:.3}s (I = {})", baseline.source_current);
    let mut engines = Vec::new();
    for &threads in threads_list {
        let mut engine = DcEngine::new(EngineOptions { threads });
        let mut cold = SampleSeries::new();
        for rep in 0..solves {
            let next = challenge_circuit(n, &vars, 0xC0 + rep as u64);
            let (_, seconds) = time(|| {
                engine
                    .solve_traced(&next, source, sink, SUPPLY, &options, recorder)
                    .expect("engine cold solve converges")
            });
            cold.record(seconds);
        }
        recorder.record_samples(&format!("engine.cold_solve_seconds.n{n}.t{threads}"), &cold);
        let cold_mean = cold.summary().map_or(f64::NAN, |s| s.mean);
        let row = EngineRow {
            threads,
            cold_mean_seconds: cold_mean,
            speedup_vs_cold_baseline: cold_baseline_seconds / cold_mean,
        };
        eprintln!(
            "n={n} threads={threads}: cold {cold_mean:.3}s mean over {solves} challenges \
             (speedup {:.2}x)",
            row.speedup_vs_cold_baseline
        );
        engines.push(row);
    }
    SizeRow { nodes: n, edges: n * (n - 1), cold_baseline_seconds, cold_solves: solves, engines }
}

/// One backend's measurement of the grid workload.
#[derive(Serialize)]
struct GridBackendRow {
    requested: &'static str,
    cold_seconds: f64,
    resolve_mean_seconds: f64,
    solver: SolverShape,
}

/// The dense-vs-sparse comparison row: the same grid device, the same
/// challenge chain, solved under each backend. The first solve binds a
/// fresh engine (the sparse side pays its symbolic analysis there); the
/// re-solves are cold solves of fresh challenges through that engine.
#[derive(Serialize)]
struct GridRow {
    side: usize,
    nodes: usize,
    edges: usize,
    resolves: usize,
    backends: Vec<GridBackendRow>,
    sparse_cold_speedup: f64,
    sparse_resolve_speedup: f64,
}

fn measure_grid(side: usize, resolves: usize) -> GridRow {
    let vars = grid_variations(side, 0x61D + side as u64);
    let n = side * side;
    let (source, sink) = (0u32, n as u32 - 1);
    let mut backends = Vec::new();
    for (requested, backend) in
        [("dense", LinearBackend::DenseBlocked), ("sparse", LinearBackend::Sparse)]
    {
        let options = DcOptions { backend, ..DcOptions::default() };
        let recorder = MemoryRecorder::new();
        let mut engine = DcEngine::new(EngineOptions { threads: 1 });
        let circuit = grid_circuit(side, &vars, 0xD0);
        let (cold, cold_seconds) = time(|| {
            engine
                .solve_traced(&circuit, source, sink, SUPPLY, &options, &recorder)
                .expect("grid cold solve converges")
        });
        let mut resolve = SampleSeries::new();
        for rep in 0..resolves {
            let next = grid_circuit(side, &vars, 0xD1 + rep as u64);
            let (_, seconds) = time(|| {
                engine
                    .solve_traced(&next, source, sink, SUPPLY, &options, &recorder)
                    .expect("grid re-solve converges")
            });
            resolve.record(seconds);
        }
        let solver = SolverShape::harvest(
            &engine,
            cold.iterations as u64,
            recorder.counter("analog.dc.jacobian_factorizations"),
        );
        let resolve_mean = resolve.summary().map_or(f64::NAN, |s| s.mean);
        eprintln!(
            "grid {side}x{side} {requested}: cold {cold_seconds:.3}s re-solve {resolve_mean:.3}s \
             (I = {}, lu_nnz {})",
            cold.source_current, solver.lu_nnz
        );
        backends.push(GridBackendRow {
            requested,
            cold_seconds,
            resolve_mean_seconds: resolve_mean,
            solver,
        });
    }
    let (dense, sparse) = (&backends[0], &backends[1]);
    GridRow {
        side,
        nodes: n,
        edges: grid_edge_count(side),
        resolves,
        sparse_cold_speedup: dense.cold_seconds / sparse.cold_seconds,
        sparse_resolve_speedup: dense.resolve_mean_seconds / sparse.resolve_mean_seconds,
        backends,
    }
}

fn run_full(backend: LinearBackend, backend_label: &'static str) {
    let recorder = MemoryRecorder::new();
    let threads_available = std::thread::available_parallelism().map_or(1, |p| p.get());
    // cold solves at n = 900 take seconds each, so the thread matrix
    // narrows as n grows — 1 vs 4 still brackets the scaling story
    let sizes: [(usize, &[usize], usize); 4] =
        [(100, &[1, 2, 4], 5), (200, &[1, 2, 4], 5), (400, &[1, 2, 4], 3), (900, &[1, 4], 2)];
    let rows: Vec<SizeRow> = sizes
        .iter()
        .map(|&(n, threads, reps)| measure_size(n, threads, reps, backend, &recorder))
        .collect();
    // the dense-vs-sparse comparison always measures both backends on
    // the grid workload, whatever the crossbar matrix was forced to
    let report = FullReport {
        schema: 1,
        mode: "full",
        backend: backend_label,
        threads_available,
        sizes: rows,
        grid_comparison: measure_grid(30, 3),
    };
    let json = serde_json::to_string_pretty(&report).expect("engine report serializes");
    let path = write_json_report("engine", &json, BENCH_DIR).expect("write engine.json");
    eprintln!("wrote {}", path.display());
    let snapshot = recorder.snapshot("engine_bench");
    let json = serde_json::to_string_pretty(&snapshot).expect("a report always serializes");
    let telemetry =
        write_json_report("engine-telemetry", &json, BENCH_DIR).expect("write telemetry");
    eprintln!("wrote {}", telemetry.display());
}

fn run_smoke(profile_mode: bool) {
    // the shared profile: the same measurement perf_trajectory records
    let (smoke, profiler) = run_engine_smoke_profiled();
    let path =
        write_json_report("engine-smoke", &smoke.to_json(), BENCH_DIR).expect("write smoke report");
    eprintln!(
        "smoke: n={} cold solve {:.3}s -> {}",
        smoke.nodes,
        smoke.cold_seconds,
        path.display()
    );
    if let Some(profile) = &smoke.profile {
        eprintln!(
            "profile: device-eval self share {:.1}%, {} paths, profiler overhead {:.2}x",
            100.0 * profile.device_eval_self_share,
            profile.paths,
            profile.profiler_overhead_ratio()
        );
    }
    if profile_mode {
        std::fs::create_dir_all(PROFILES_DIR).expect("create profiles dir");
        let folded_path = format!("{PROFILES_DIR}/engine-smoke.folded");
        std::fs::write(&folded_path, profiler.fold()).expect("write folded stacks");
        eprintln!("folded stacks -> {folded_path}");
        // the same measurement as a schema-versioned telemetry report,
        // profile section included
        let mut recorder = MemoryRecorder::new();
        recorder.set_profiler(profiler);
        let report = recorder.snapshot("engine-smoke-profile");
        let report_path = write_telemetry_report(&report, BENCH_DIR).expect("write profile report");
        eprintln!("profile report -> {}", report_path.display());
    }
    let baseline_path = format!("{BENCH_DIR}/engine-smoke-baseline.json");
    match check_smoke_baseline(&smoke, &baseline_path) {
        Ok(Some(baseline)) => eprintln!("within budget: baseline {baseline:.3}s"),
        Ok(None) => eprintln!(
            "no baseline at {baseline_path}; commit engine-smoke.json there to arm the gate"
        ),
        Err(regression) => {
            eprintln!("PERF REGRESSION: {regression}");
            std::process::exit(1);
        }
    }
    match check_eval_share_baseline(&smoke, &baseline_path) {
        Ok(Some(baseline)) => eprintln!("device-eval share within band of baseline {baseline:.3}"),
        Ok(None) => eprintln!("no device_eval_self_share in the baseline; share gate unarmed"),
        Err(drift) => {
            eprintln!("PROFILE DRIFT: {drift}");
            std::process::exit(1);
        }
    }
}

fn backend_flag() -> (LinearBackend, &'static str) {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--backend" {
            return match args.next().as_deref() {
                Some("dense") => (LinearBackend::DenseBlocked, "dense"),
                Some("sparse") => (LinearBackend::Sparse, "sparse"),
                Some("auto") | None => (LinearBackend::Auto, "auto"),
                Some(other) => {
                    eprintln!("unknown --backend {other:?}; expected dense|sparse|auto");
                    std::process::exit(2);
                }
            };
        }
    }
    (LinearBackend::Auto, "auto")
}

fn main() {
    let profile_mode = std::env::args().any(|a| a == "--profile");
    if std::env::args().any(|a| a == "--smoke") || profile_mode {
        run_smoke(profile_mode);
    } else {
        let (backend, label) = backend_flag();
        run_full(backend, label);
    }
}
