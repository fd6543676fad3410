//! Shared engine-benchmark workload: the crossbar-like device circuits,
//! the n = 200 cold-solve smoke profile, and the committed-baseline
//! regression gate.
//!
//! Both `engine_bench` (the standalone CI perf gate) and
//! `perf_trajectory` (the continuous perf harness) run exactly this
//! code, so a trajectory entry and a gate verdict always describe the
//! same measurement.

use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use serde::{Deserialize, Serialize};

use ppuf_analog::block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock};
use ppuf_analog::montecarlo::gaussian;
use ppuf_analog::solver::{Circuit, DcEngine, DcOptions, EngineOptions};
use ppuf_analog::units::Volts;
use ppuf_telemetry::{MemoryRecorder, Profiler};

/// Default directory for engine benchmark reports.
pub const BENCH_DIR: &str = "results/bench";

/// Default directory for folded-stack profile exports.
pub const PROFILES_DIR: &str = "results/profiles";

/// Supply voltage every benchmark circuit solves under.
pub const SUPPLY: Volts = Volts(2.0);

/// Allowed cold-solve slowdown over the committed smoke baseline.
pub const SMOKE_REGRESSION_FACTOR: f64 = 2.0;

/// Newton iterations the crossbar's cold solve may take beyond the
/// committed baseline's count. One build always takes the same count, so
/// unlike the time gate this one sees no host noise; the slack covers
/// `libm` differences between hosts.
pub const SMOKE_ITERATION_SLACK: u64 = 2;

/// Allowed absolute drift of the measured device-eval self-time share
/// against the committed baseline's share. The share is a ratio of two
/// times from the same run, so it is far more machine-stable than the
/// wall times themselves; a drift past this band means the solve's
/// composition changed, not just the machine speed.
pub const EVAL_SHARE_TOLERANCE: f64 = 0.20;

/// Device size the smoke profile solves.
pub const SMOKE_NODES: usize = 200;

/// Grid side length of the smoke profile's sparse workload; 16×16 gives
/// 254 unknowns, comfortably past the backend's auto-sparse threshold.
pub const SMOKE_GRID_SIDE: usize = 16;

/// `count` independent σ(Vth) = 35 mV process draws.
fn variations(count: usize, seed: u64) -> Vec<BlockVariation> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| BlockVariation {
            delta_vth: [
                Volts(0.035 * gaussian(&mut rng)),
                Volts(0.035 * gaussian(&mut rng)),
                Volts(0.035 * gaussian(&mut rng)),
                Volts(0.035 * gaussian(&mut rng)),
            ],
        })
        .collect()
}

/// One device's σ(Vth) = 35 mV process draws, in dense edge order.
pub fn device_variations(n: usize, seed: u64) -> Vec<BlockVariation> {
    variations(n * (n - 1), seed)
}

/// Process draws for a [`grid_circuit`] of the given side, in edge order.
pub fn grid_variations(side: usize, seed: u64) -> Vec<BlockVariation> {
    variations(grid_edge_count(side), seed)
}

/// A complete crossbar-like circuit for one device under one challenge:
/// fixed per-edge variation, per-edge bias selected by the challenge's
/// control bits. This is exactly the shape the batch engine re-solves
/// challenge after challenge.
pub fn challenge_circuit(
    n: usize,
    vars: &[BlockVariation],
    challenge_seed: u64,
) -> Circuit<BuildingBlock> {
    let mut rng = ChaCha8Rng::seed_from_u64(challenge_seed);
    let mut circuit = Circuit::new(n);
    let mut edge = 0;
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u == v {
                continue;
            }
            let bias = BlockBias::for_input(rng.gen::<bool>());
            let block = BuildingBlock::new(BlockDesign::Serial, bias).with_variation(vars[edge]);
            circuit.add_element(u, v, block).expect("valid edge");
            edge += 1;
        }
    }
    circuit
}

/// A `side`×`side` grid device conducting rightward and downward — the
/// locally-connected topology the sparse linear backend targets. Uses
/// `2·side·(side−1)` variations from `vars` in edge order.
pub fn grid_circuit(
    side: usize,
    vars: &[BlockVariation],
    challenge_seed: u64,
) -> Circuit<BuildingBlock> {
    let mut rng = ChaCha8Rng::seed_from_u64(challenge_seed);
    let mut circuit = Circuit::new(side * side);
    let at = |r: usize, c: usize| (r * side + c) as u32;
    let mut edge = 0;
    let mut add = |circuit: &mut Circuit<BuildingBlock>, a: u32, b: u32, rng: &mut ChaCha8Rng| {
        let bias = BlockBias::for_input(rng.gen::<bool>());
        let block = BuildingBlock::new(BlockDesign::Serial, bias).with_variation(vars[edge]);
        circuit.add_element(a, b, block).expect("valid grid edge");
        edge += 1;
    };
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                add(&mut circuit, at(r, c), at(r, c + 1), &mut rng);
            }
            if r + 1 < side {
                add(&mut circuit, at(r, c), at(r + 1, c), &mut rng);
            }
        }
    }
    circuit
}

/// Number of edges [`grid_circuit`] stamps for a given side length.
pub fn grid_edge_count(side: usize) -> usize {
    2 * side * (side - 1)
}

/// Runs `f` and returns its value plus the elapsed wall-clock seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Shape of the linear-solver work inside one measured solve chain:
/// which backend the binding resolved, the Newton effort, and (on the
/// sparse backend) the pattern/fill counters that explain the cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverShape {
    /// `"dense"` or `"sparse"` — the backend the binding resolved to.
    pub backend: String,
    /// Newton iterations of the measured cold solve.
    pub newton_iterations: u64,
    /// Jacobian factorizations across the measured chain.
    pub jacobian_factorizations: u64,
    /// Structural nonzeros of the Jacobian (k² when dense).
    pub jacobian_nnz: u64,
    /// Nonzeros in L + U, fill-in included (k² when dense).
    pub lu_nnz: u64,
    /// `lu_nnz / jacobian_nnz`; 1.0 on the dense backend.
    pub fill_ratio: f64,
    /// Numeric refactorizations that replayed the symbolic pattern.
    pub symbolic_reuse_hits: u64,
    /// Full factorizations with fresh pivoting.
    pub full_factorizations: u64,
}

impl SolverShape {
    /// Reads the shape off an engine after a measured solve chain.
    pub fn harvest(engine: &DcEngine, newton_iterations: u64, factorizations: u64) -> Self {
        match engine.sparse_stats() {
            Some(stats) => SolverShape {
                backend: "sparse".to_string(),
                newton_iterations,
                jacobian_factorizations: factorizations,
                jacobian_nnz: stats.jacobian_nnz as u64,
                lu_nnz: stats.lu_nnz as u64,
                fill_ratio: stats.fill_ratio,
                symbolic_reuse_hits: stats.symbolic_reuse_hits,
                full_factorizations: stats.full_factorizations,
            },
            None => SolverShape {
                backend: "dense".to_string(),
                newton_iterations,
                jacobian_factorizations: factorizations,
                jacobian_nnz: 0,
                lu_nnz: 0,
                fill_ratio: 1.0,
                symbolic_reuse_hits: 0,
                full_factorizations: factorizations,
            },
        }
    }
}

/// The smoke profile's sparse-workload measurement: one grid device
/// solved cold through the engine, then re-solved warm, so the symbolic
/// reuse chain shows up in the counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSmoke {
    /// Grid side length (`nodes = side²`).
    pub side: u64,
    /// Circuit nodes solved.
    pub nodes: u64,
    /// Cold-solve wall time, seconds.
    pub cold_seconds: f64,
    /// Mean warm re-solve wall time over the chain, seconds.
    pub warm_mean_seconds: f64,
    /// Correctness fingerprint of the cold operating point.
    pub source_current_amps: f64,
    /// Linear-solver shape of the chain (sparse for any healthy run).
    pub solver: SolverShape,
}

/// What the always-on hierarchical profiler measured during the smoke:
/// where the solve time actually goes, plus the profiler's own cost on
/// the warm path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Device-evaluation self time as a fraction of total profiled
    /// `analog.dc.solve` wall time — the measured form of the ROADMAP's
    /// "~90% of solve time is device evaluation" claim.
    pub device_eval_self_share: f64,
    /// Distinct call paths the profiler learned during the run.
    pub paths: u64,
    /// Mean grid warm re-solve wall time with the profiler attached.
    pub warm_profiled_mean_seconds: f64,
    /// Mean grid warm re-solve wall time with no profiler attached.
    pub warm_unprofiled_mean_seconds: f64,
}

impl ProfileSummary {
    /// Profiled over unprofiled warm mean — the profiler's measured
    /// overhead on the warm-solve path (1.0 = free).
    pub fn warm_overhead_ratio(&self) -> f64 {
        self.warm_profiled_mean_seconds / self.warm_unprofiled_mean_seconds
    }
}

/// The smoke profile's measurement: one crossbar cold solve (the gated
/// number) plus a sparse grid chain recording the linear-backend shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSmoke {
    /// Circuit nodes solved.
    pub nodes: u64,
    /// Cold-solve wall time, seconds.
    pub cold_seconds: f64,
    /// The solved operating point's source current (a correctness
    /// fingerprint: it must not drift between runs of the same seed).
    pub source_current_amps: f64,
    /// Linear-solver shape of the crossbar solve (dense for the complete
    /// graph); `None` when read from a pre-shape baseline file.
    pub solver: Option<SolverShape>,
    /// The sparse-backend grid workload; `None` in pre-shape baselines.
    pub sparse_grid: Option<GridSmoke>,
    /// The hierarchical profiler's measurement of the run; `None` in
    /// pre-profiler baselines.
    pub profile: Option<ProfileSummary>,
}

impl EngineSmoke {
    /// The JSON text of `engine-smoke.json` and the committed baseline,
    /// which [`check_smoke_baseline`] reads back as an `EngineSmoke`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("smoke serialization cannot fail")
    }
}

/// Solves the n = 200 cold operating point through the batch engine —
/// the exact code path `engine_bench --smoke` measures — then runs the
/// grid chain that exercises the sparse backend.
pub fn run_engine_smoke() -> EngineSmoke {
    run_engine_smoke_profiled().0
}

/// [`run_engine_smoke`] with the hierarchical profiler attached,
/// returning it alongside the measurement so callers can export the
/// folded stacks (`--profile` mode of the bench binaries).
///
/// The crossbar cold solve is profiled (that is where the device-eval
/// share is measured); the grid warm chain runs once without and once
/// with the profiler so the report carries the profiler's own measured
/// overhead on the warm path.
pub fn run_engine_smoke_profiled() -> (EngineSmoke, Arc<Profiler>) {
    let profiler = Arc::new(Profiler::new());
    let n = SMOKE_NODES;
    let vars = device_variations(n, 0xE27 + n as u64);
    let circuit = challenge_circuit(n, &vars, 0xC0);
    let options = DcOptions::default();
    let mut recorder = MemoryRecorder::new();
    recorder.set_profiler(Arc::clone(&profiler));
    let mut engine = DcEngine::new(EngineOptions { threads: 1, ..EngineOptions::default() });
    let (solution, cold_seconds) = time(|| {
        engine
            .solve_traced(&circuit, 0, n as u32 - 1, SUPPLY, &options, &recorder)
            .expect("smoke solve converges")
    });
    let solver = SolverShape::harvest(
        &engine,
        solution.iterations as u64,
        recorder.counter("analog.dc.jacobian_factorizations"),
    );

    let side = SMOKE_GRID_SIDE;
    let grid_nodes = side * side;
    let gvars = grid_variations(side, 0x61D + side as u64);
    let grid = grid_circuit(side, &gvars, 0xD0);
    let grecorder = MemoryRecorder::new();
    let mut gengine = DcEngine::new(EngineOptions { threads: 1, ..EngineOptions::default() });
    let (gsolution, grid_cold_seconds) = time(|| {
        gengine
            .solve_traced(&grid, 0, grid_nodes as u32 - 1, SUPPLY, &options, &grecorder)
            .expect("grid smoke solve converges")
    });
    const GRID_WARM_SOLVES: usize = 3;
    let mut warm_total = 0.0;
    for rep in 0..GRID_WARM_SOLVES {
        let next = grid_circuit(side, &gvars, 0xD1 + rep as u64);
        let (_, seconds) = time(|| {
            gengine
                .solve_traced(&next, 0, grid_nodes as u32 - 1, SUPPLY, &options, &grecorder)
                .expect("grid warm solve converges")
        });
        warm_total += seconds;
    }
    let grid_solver = SolverShape::harvest(
        &gengine,
        gsolution.iterations as u64,
        grecorder.counter("analog.dc.jacobian_factorizations"),
    );

    // the same warm chain again with the profiler attached: the pair of
    // means is the profiler's measured warm-path overhead
    let mut precorder = MemoryRecorder::new();
    precorder.set_profiler(Arc::clone(&profiler));
    let mut profiled_total = 0.0;
    for rep in 0..GRID_WARM_SOLVES {
        let next = grid_circuit(side, &gvars, 0xD1 + (GRID_WARM_SOLVES + rep) as u64);
        let (_, seconds) = time(|| {
            gengine
                .solve_traced(&next, 0, grid_nodes as u32 - 1, SUPPLY, &options, &precorder)
                .expect("profiled grid warm solve converges")
        });
        profiled_total += seconds;
    }

    let snapshot = profiler.snapshot();
    let solve_wall = snapshot.get("analog.dc.solve").map_or(0.0, |s| s.wall_s);
    let eval_self = snapshot.get("analog.dc.solve;stamp;device_eval").map_or(0.0, |s| s.self_s);
    let profile = ProfileSummary {
        device_eval_self_share: if solve_wall > 0.0 { eval_self / solve_wall } else { 0.0 },
        paths: snapshot.len() as u64,
        warm_profiled_mean_seconds: profiled_total / GRID_WARM_SOLVES as f64,
        warm_unprofiled_mean_seconds: warm_total / GRID_WARM_SOLVES as f64,
    };

    let smoke = EngineSmoke {
        nodes: n as u64,
        cold_seconds,
        source_current_amps: solution.source_current.value(),
        solver: Some(solver),
        sparse_grid: Some(GridSmoke {
            side: side as u64,
            nodes: grid_nodes as u64,
            cold_seconds: grid_cold_seconds,
            warm_mean_seconds: warm_total / GRID_WARM_SOLVES as f64,
            source_current_amps: gsolution.source_current.value(),
            solver: grid_solver,
        }),
        profile: Some(profile),
    };
    (smoke, profiler)
}

/// The committed baseline at `path`, or `None` when there is none yet.
fn read_baseline(path: &str) -> Result<Option<EngineSmoke>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("baseline {path} does not parse: {e}"))
}

/// Gates `smoke` against the committed baseline at `baseline_path`:
/// `Ok(Some(baseline_seconds))` when the cold solve is within
/// [`SMOKE_REGRESSION_FACTOR`]× the baseline's time and within
/// [`SMOKE_ITERATION_SLACK`] of its crossbar Newton iterations,
/// `Ok(None)` when no baseline exists yet (the gate is unarmed), `Err`
/// with a human-readable message on a regression. The iteration gate
/// arms only when both sides carry a crossbar `solver` shape.
///
/// # Errors
///
/// Returns the regression description when the cold solve exceeds the
/// allowed factor over the baseline's time or the allowed slack over its
/// iterations, or says that the baseline does not parse.
pub fn check_smoke_baseline(
    smoke: &EngineSmoke,
    baseline_path: &str,
) -> Result<Option<f64>, String> {
    let Some(baseline) = read_baseline(baseline_path)? else {
        return Ok(None);
    };
    let base_seconds = baseline.cold_seconds;
    if smoke.cold_seconds > base_seconds * SMOKE_REGRESSION_FACTOR {
        return Err(format!(
            "cold solve {:.3}s exceeds {SMOKE_REGRESSION_FACTOR}x baseline {base_seconds:.3}s",
            smoke.cold_seconds
        ));
    }
    if let (Some(solver), Some(base)) = (&smoke.solver, &baseline.solver) {
        if solver.newton_iterations > base.newton_iterations + SMOKE_ITERATION_SLACK {
            return Err(format!(
                "cold solve took {} Newton iterations, more than baseline {} \
                 + {SMOKE_ITERATION_SLACK}",
                solver.newton_iterations, base.newton_iterations
            ));
        }
    }
    Ok(Some(base_seconds))
}

/// Gates the measured device-eval self-time share against the committed
/// baseline's: `Ok(Some(baseline_share))` when within
/// [`EVAL_SHARE_TOLERANCE`] absolute drift, `Ok(None)` when unarmed (no
/// baseline file, a pre-profiler baseline, or a smoke without a profile).
///
/// # Errors
///
/// Returns the drift description when the share moved more than the
/// tolerance — the solve's composition changed — or says that the
/// baseline does not parse.
pub fn check_eval_share_baseline(
    smoke: &EngineSmoke,
    baseline_path: &str,
) -> Result<Option<f64>, String> {
    let Some(profile) = &smoke.profile else {
        return Ok(None);
    };
    let Some(baseline) = read_baseline(baseline_path)?
        .and_then(|baseline| baseline.profile)
        .map(|profile| profile.device_eval_self_share)
    else {
        return Ok(None);
    };
    let measured = profile.device_eval_self_share;
    let drift = (measured - baseline).abs();
    if drift > EVAL_SHARE_TOLERANCE {
        return Err(format!(
            "device-eval self-time share {measured:.3} drifted {drift:.3} from baseline \
             {baseline:.3} (tolerance {EVAL_SHARE_TOLERANCE})"
        ));
    }
    Ok(Some(baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_gate_passes_within_factor_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("ppuf-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let baseline = EngineSmoke {
            nodes: 200,
            cold_seconds: 10.0,
            source_current_amps: 1e-3,
            solver: None,
            sparse_grid: None,
            profile: None,
        };
        std::fs::write(&path, baseline.to_json()).unwrap();
        let path = path.to_string_lossy().into_owned();

        let fast = EngineSmoke { cold_seconds: 12.0, ..baseline.clone() };
        assert_eq!(check_smoke_baseline(&fast, &path), Ok(Some(10.0)));
        let slow = EngineSmoke { cold_seconds: 25.0, ..baseline };
        assert!(check_smoke_baseline(&slow, &path).is_err());
        assert_eq!(check_smoke_baseline(&fast, "/no/such/baseline.json"), Ok(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn iteration_gate_allows_the_slack_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("ppuf-iterations-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let shape = |newton_iterations: u64| SolverShape {
            backend: "dense".to_string(),
            newton_iterations,
            jacobian_factorizations: newton_iterations,
            jacobian_nnz: 0,
            lu_nnz: 0,
            fill_ratio: 1.0,
            symbolic_reuse_hits: 0,
            full_factorizations: newton_iterations,
        };
        // the grid's larger count comes later in the text and is not read
        let smoke = |iterations: u64| EngineSmoke {
            nodes: 200,
            cold_seconds: 10.0,
            source_current_amps: 1e-3,
            solver: Some(shape(iterations)),
            sparse_grid: Some(GridSmoke {
                side: 16,
                nodes: 256,
                cold_seconds: 0.01,
                warm_mean_seconds: 0.001,
                source_current_amps: 2e-8,
                solver: shape(40),
            }),
            profile: None,
        };
        std::fs::write(&path, smoke(7).to_json()).unwrap();
        let path = path.to_string_lossy().into_owned();

        assert_eq!(check_smoke_baseline(&smoke(7), &path), Ok(Some(10.0)));
        assert_eq!(check_smoke_baseline(&smoke(9), &path), Ok(Some(10.0)));
        let err = check_smoke_baseline(&smoke(10), &path).unwrap_err();
        assert!(err.contains("10 Newton iterations"), "{err}");
        assert!(check_smoke_baseline(&smoke(21), &path).is_err());
        // unarmed: no shape on the measurement, or a pre-shape baseline
        let shapeless = EngineSmoke { solver: None, sparse_grid: None, ..smoke(21) };
        assert_eq!(check_smoke_baseline(&shapeless, &path), Ok(Some(10.0)));
        std::fs::write(&path, shapeless.to_json()).unwrap();
        assert_eq!(check_smoke_baseline(&smoke(21), &path), Ok(Some(10.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smoke_json_round_trips() {
        let smoke = EngineSmoke {
            nodes: 200,
            cold_seconds: 9.5,
            source_current_amps: 2.5e-4,
            solver: Some(SolverShape {
                backend: "sparse".to_string(),
                newton_iterations: 23,
                jacobian_factorizations: 23,
                jacobian_nnz: 1234,
                lu_nnz: 2100,
                fill_ratio: 1.7,
                symbolic_reuse_hits: 22,
                full_factorizations: 1,
            }),
            sparse_grid: None,
            profile: Some(ProfileSummary {
                device_eval_self_share: 0.91,
                paths: 12,
                warm_profiled_mean_seconds: 0.0034,
                warm_unprofiled_mean_seconds: 0.0033,
            }),
        };
        let text = smoke.to_json();
        let back: EngineSmoke = serde_json::from_str(&text).expect("smoke JSON parses");
        assert_eq!(back, smoke);
    }

    #[test]
    fn eval_share_gate_arms_only_on_profiled_baselines() {
        let dir = std::env::temp_dir().join(format!("ppuf-share-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let profiled = |share: f64| EngineSmoke {
            nodes: 200,
            cold_seconds: 10.0,
            source_current_amps: 1e-3,
            solver: None,
            sparse_grid: None,
            profile: Some(ProfileSummary {
                device_eval_self_share: share,
                paths: 12,
                warm_profiled_mean_seconds: 0.0034,
                warm_unprofiled_mean_seconds: 0.0033,
            }),
        };
        std::fs::write(&path, profiled(0.90).to_json()).unwrap();
        let path = path.to_string_lossy().into_owned();

        assert_eq!(check_eval_share_baseline(&profiled(0.85), &path), Ok(Some(0.90)));
        assert!(check_eval_share_baseline(&profiled(0.55), &path).is_err());
        // unarmed: no profile on the measurement, or a pre-profiler baseline
        let unprofiled = EngineSmoke { profile: None, ..profiled(0.0) };
        assert_eq!(check_eval_share_baseline(&unprofiled, &path), Ok(None));
        std::fs::write(&path, unprofiled.to_json()).unwrap();
        assert_eq!(check_eval_share_baseline(&profiled(0.55), &path), Ok(None));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
