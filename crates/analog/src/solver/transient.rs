//! Backward-Euler transient analysis for execution-delay measurement.
//!
//! The PPUF's "execution time" is how long the source current takes to
//! settle after the challenge is applied (paper §3.3). This module charges
//! the crossbar's node capacitances from a cold start with an implicit
//! (backward-Euler) integrator — implicit because the network is stiff:
//! edge conductances span from `G_MIN` (cut-off) to microsiemens (triode).
//!
//! For each internal node `v` with capacitance `C_v`:
//!
//! ```text
//! C_v · dV_v/dt = Σ I_in(v) − Σ I_out(v)
//! ```
//!
//! and each step solves the implicit system with the same damped Newton
//! machinery as the DC solver.

use ppuf_telemetry::{Recorder, Span, NOOP};

use crate::block::TwoTerminal;
use crate::solver::dc::{max_abs, worst_node_of, Circuit, DcOptions, NewtonWork, SolveError};
use crate::solver::workspace::{DcWorkspace, LinearBackend};
use crate::units::{Amps, Celsius, Farads, Seconds, Volts};

/// How many times a failed implicit step is retried with a halved step
/// before the failure is surfaced as [`SolveError::NoConvergence`].
pub const MAX_STEP_HALVINGS: u32 = 2;

/// Result of a transient settling run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Time at which the source current stayed within the tolerance band
    /// of its final value.
    ///
    /// On the complete crossbar this can be almost immediate: when the
    /// minimum cut sits at the source, the source edges saturate at `t≈0`
    /// and the terminal current never moves even while internal nodes are
    /// still charging.
    pub settling_time: Seconds,
    /// Time at which **every node voltage** stayed within
    /// [`TransientOptions::voltage_tolerance`] of the DC solution — the
    /// paper's §3.3 notion of execution delay (`T(v)` per node).
    pub voltage_settling_time: Seconds,
    /// Source current trajectory: `(time, current)` samples.
    pub trajectory: Vec<(Seconds, Amps)>,
    /// Final node voltages.
    pub voltages: Vec<Volts>,
}

/// Options for a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Integration step.
    pub step: Seconds,
    /// Hard stop after this much simulated time.
    pub max_time: Seconds,
    /// Relative band around the final current that counts as settled.
    pub settle_tolerance: f64,
    /// Absolute voltage band around the DC solution that counts as
    /// settled for [`TransientResult::voltage_settling_time`].
    pub voltage_tolerance: Volts,
    /// Ambient temperature.
    pub temperature: Celsius,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            step: Seconds(2e-9),
            max_time: Seconds(5e-6),
            settle_tolerance: 1e-3,
            voltage_tolerance: Volts(1e-3),
            temperature: Celsius::NOMINAL,
        }
    }
}

/// Simulates the step response: at `t = 0` the source jumps to `vs` with
/// all internal nodes at 0 V, and the run continues until the source
/// current settles (or `max_time` elapses).
///
/// `node_capacitance[v]` is the total capacitance at node `v`; terminals'
/// entries are ignored (they are voltage-pinned).
///
/// # Errors
///
/// - [`SolveError::InvalidNode`] / [`SolveError::SourceIsSink`] for bad
///   terminals or a capacitance vector of the wrong length (reported as
///   node `node_count`).
/// - [`SolveError::NoConvergence`] if an implicit step fails.
///
/// The settling detection needs the final operating point; it is obtained
/// from a DC solve up front, so DC failures surface here too.
pub fn simulate_step_response<E: TwoTerminal + Sync>(
    circuit: &Circuit<E>,
    source: u32,
    sink: u32,
    vs: Volts,
    node_capacitance: &[Farads],
    options: &TransientOptions,
) -> Result<TransientResult, SolveError> {
    simulate_step_response_traced(circuit, source, sink, vs, node_capacitance, options, &NOOP)
}

/// Scratch buffers reused across every implicit step of a transient run:
/// the shared Newton workspace plus the integrator's own per-unknown
/// state. Nothing inside the time loop allocates.
#[derive(Debug, Default)]
struct TransientScratch {
    ws: DcWorkspace,
    /// Previous-step voltages at the unknown nodes.
    prev: Vec<f64>,
    /// `C_v / h` per unknown for the current substep size.
    cap_over_h: Vec<f64>,
    /// Pre-attempt voltages, restored when a substep is rejected.
    before: Vec<Volts>,
    /// Stack of pending substep sizes (step-halving retries).
    pending: Vec<f64>,
}

/// [`simulate_step_response`] with telemetry: counts accepted and rejected
/// integration steps (`analog.transient.steps_accepted` /
/// `analog.transient.steps_rejected` — a step is *rejected* when its
/// implicit Newton solve stalls and the step is retried at half size),
/// accumulates the inner Newton work under `analog.transient.*`, observes
/// the settle times, times the run as the `analog.transient.simulate`
/// span, and warns when the run fails. The up-front DC solve reports
/// through the same recorder under `analog.dc.*`.
///
/// # Errors
///
/// Same as [`simulate_step_response`]; additionally, a step that still
/// fails after [`MAX_STEP_HALVINGS`] retries surfaces the final
/// [`SolveError::NoConvergence`].
pub fn simulate_step_response_traced<E: TwoTerminal + Sync>(
    circuit: &Circuit<E>,
    source: u32,
    sink: u32,
    vs: Volts,
    node_capacitance: &[Farads],
    options: &TransientOptions,
    recorder: &dyn Recorder,
) -> Result<TransientResult, SolveError> {
    let _span = Span::enter(recorder, "analog.transient.simulate");
    let n = circuit.node_count();
    if node_capacitance.len() != n {
        return Err(SolveError::InvalidNode { node: n as u32, node_count: n });
    }
    let temp = options.temperature;
    // final operating point for settle detection
    let dc = circuit.solve_dc_traced(
        source,
        sink,
        vs,
        &DcOptions { temperature: temp, ..DcOptions::default() },
        recorder,
    )?;
    let i_final = dc.source_current.value();
    let band = options.settle_tolerance * i_final.abs().max(1e-18);

    let mut scratch = TransientScratch::default();
    scratch.ws.bind(circuit, source, sink, LinearBackend::Auto);
    let k = scratch.ws.unknowns.len();
    let mut voltages = vec![Volts(0.0); n];
    voltages[source as usize] = vs;
    let h = options.step.value();
    let steps = (options.max_time.value() / h).ceil() as usize;
    let mut trajectory = Vec::with_capacity(steps + 1);
    trajectory.push((Seconds(0.0), source_current(circuit, &voltages, source, temp)));
    let mut settled_at: Option<f64> = None;
    let mut voltage_settled_at: Option<f64> = None;
    let mut time = 0.0;
    let mut work = NewtonWork::default();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..steps {
        time += h;
        let step_result = advance_step(
            circuit,
            &mut voltages,
            &mut scratch,
            node_capacitance,
            h,
            temp,
            &mut work,
            &mut accepted,
            &mut rejected,
        );
        if let Err(err) = step_result {
            work.record(recorder, "analog.transient");
            recorder.counter_add("analog.transient.steps_accepted", accepted);
            recorder.counter_add("analog.transient.steps_rejected", rejected);
            recorder.warn(&format!("transient step at t = {time:.3e} s failed: {err}"));
            return Err(err);
        }
        let i_now = source_current(circuit, &voltages, source, temp);
        trajectory.push((Seconds(time), i_now));
        if (i_now.value() - i_final).abs() <= band {
            settled_at.get_or_insert(time);
        } else {
            settled_at = None;
        }
        let max_voltage_error = voltages
            .iter()
            .zip(&dc.voltages)
            .map(|(v, v_dc)| (v.value() - v_dc.value()).abs())
            .fold(0.0f64, f64::max);
        if max_voltage_error <= options.voltage_tolerance.value() {
            voltage_settled_at.get_or_insert(time);
        } else {
            voltage_settled_at = None;
        }
        if k == 0 {
            break;
        }
        // stop once fully settled (current AND voltages) for 10 steps
        if let (Some(t0), Some(t1)) = (settled_at, voltage_settled_at) {
            if time - t0.max(t1) >= 10.0 * h {
                break;
            }
        }
    }
    work.record(recorder, "analog.transient");
    recorder.counter_add("analog.transient.steps_accepted", accepted);
    recorder.counter_add("analog.transient.steps_rejected", rejected);
    let result = TransientResult {
        settling_time: Seconds(settled_at.unwrap_or(time)),
        voltage_settling_time: Seconds(voltage_settled_at.unwrap_or(time)),
        trajectory,
        voltages,
    };
    recorder.observe("analog.transient.settle_time_s", result.settling_time.value());
    recorder
        .observe("analog.transient.voltage_settle_time_s", result.voltage_settling_time.value());
    Ok(result)
}

/// Advances the state by one nominal step `h`, retrying a non-converging
/// implicit solve with halved substeps (up to [`MAX_STEP_HALVINGS`] times).
/// Rejected attempts restore the pre-attempt state before retrying, so a
/// failed Newton iterate never leaks into the trajectory.
#[allow(clippy::too_many_arguments)]
fn advance_step<E: TwoTerminal + Sync>(
    circuit: &Circuit<E>,
    voltages: &mut [Volts],
    scratch: &mut TransientScratch,
    node_capacitance: &[Farads],
    h: f64,
    temp: Celsius,
    work: &mut NewtonWork,
    accepted: &mut u64,
    rejected: &mut u64,
) -> Result<(), SolveError> {
    scratch.pending.clear();
    scratch.pending.push(h);
    let mut halvings = 0u32;
    while let Some(dt) = scratch.pending.pop() {
        scratch.before.clear();
        scratch.before.extend_from_slice(voltages);
        match backward_euler_step(circuit, voltages, scratch, node_capacitance, dt, temp, work) {
            Ok(()) => *accepted += 1,
            Err(err @ SolveError::NoConvergence { .. }) => {
                *rejected += 1;
                if halvings >= MAX_STEP_HALVINGS {
                    return Err(err);
                }
                halvings += 1;
                voltages.copy_from_slice(&scratch.before);
                // redo the same interval as two half-size substeps
                scratch.pending.push(dt * 0.5);
                scratch.pending.push(dt * 0.5);
            }
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Refreshes `s.ws.residual` with the backward-Euler residual
/// `F(V⁺) − C/h (V⁺ − V)` at the current `voltages`.
fn be_residual<E: TwoTerminal + Sync>(
    circuit: &Circuit<E>,
    s: &mut TransientScratch,
    voltages: &[Volts],
    temp: Celsius,
) {
    s.ws.compute_residual(circuit, voltages, temp, 1);
    for idx in 0..s.ws.unknowns.len() {
        let node = s.ws.unknowns[idx];
        s.ws.residual[idx] -= s.cap_over_h[idx] * (voltages[node].value() - s.prev[idx]);
    }
}

/// One implicit step: solve `C/h (V⁺ − V) − F(V⁺) = 0` by damped Newton,
/// entirely out of the scratch buffers.
fn backward_euler_step<E: TwoTerminal + Sync>(
    circuit: &Circuit<E>,
    voltages: &mut [Volts],
    s: &mut TransientScratch,
    node_capacitance: &[Farads],
    h: f64,
    temp: Celsius,
    work: &mut NewtonWork,
) -> Result<(), SolveError> {
    let k = s.ws.unknowns.len();
    if k == 0 {
        return Ok(());
    }
    s.prev.clear();
    s.prev.extend(s.ws.unknowns.iter().map(|&v| voltages[v].value()));
    s.cap_over_h.clear();
    s.cap_over_h.extend(s.ws.unknowns.iter().map(|&v| node_capacitance[v].value() / h));
    be_residual(circuit, s, voltages, temp);
    let mut norm = max_abs(&s.ws.residual);
    // implicit-step tolerance: scaled to the capacitive currents involved
    // (a non-finite start has no scale, so it gets the floor)
    let tol = if norm.is_finite() { 1e-16_f64.max(norm * 1e-9) } else { 1e-16 };
    for _ in 0..100 {
        if norm <= tol {
            return Ok(());
        }
        work.iterations += 1;
        s.ws.compute_jacobian(circuit, voltages, temp, 1, Some(&s.cap_over_h), true);
        for idx in 0..k {
            s.ws.delta[idx] = -s.ws.residual[idx];
        }
        work.factorizations += 1;
        s.ws.factor_jacobian(1)?;
        s.ws.solve_linear();
        s.ws.base.clear();
        s.ws.base.extend_from_slice(voltages);
        let mut alpha = 1.0;
        let mut improved = false;
        for _ in 0..20 {
            let mut finite = true;
            for idx in 0..k {
                let node = s.ws.unknowns[idx];
                let v = s.ws.base[node].value() + alpha * s.ws.delta[idx];
                finite &= v.is_finite();
                voltages[node] = Volts(v.clamp(-1.0, 5.0));
            }
            // a non-finite trial is rejected unevaluated, as in the DC loop
            if finite {
                be_residual(circuit, s, voltages, temp);
                let new_norm = max_abs(&s.ws.residual);
                if new_norm < norm || new_norm <= tol {
                    norm = new_norm;
                    improved = true;
                    break;
                }
            }
            alpha *= 0.5;
            work.backtracks += 1;
        }
        if !improved {
            return Err(SolveError::NoConvergence {
                iterations: 0,
                residual: norm,
                worst_node: worst_node_of(&s.ws.residual, &s.ws.unknowns),
            });
        }
    }
    if norm <= tol * 10.0 {
        Ok(())
    } else {
        Err(SolveError::NoConvergence {
            iterations: 100,
            residual: norm,
            worst_node: worst_node_of(&s.ws.residual, &s.ws.unknowns),
        })
    }
}

/// Net current leaving `source` at `voltages`. Only the edges that touch
/// the source are evaluated: on a building block each evaluation is a
/// root-find.
fn source_current<E: TwoTerminal>(
    circuit: &Circuit<E>,
    voltages: &[Volts],
    source: u32,
    temp: Celsius,
) -> Amps {
    let mut total = 0.0;
    for e in circuit.edges().iter().filter(|e| e.from == source || e.to == source) {
        let dv = voltages[e.from as usize] - voltages[e.to as usize];
        let i = e.element.current(dv, temp).value();
        if e.from == source {
            total += i;
        } else {
            total -= i;
        }
    }
    Amps(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::test_circuits::{divider, fork, DirectedResistor, NanAbove};

    fn rc_chain() -> (Circuit<DirectedResistor>, Vec<Farads>) {
        // s -R- v -R- t, C at v: classic RC settling
        let caps = vec![Farads(0.0), Farads(1e-12), Farads(0.0)];
        (divider(1e6, 1e6), caps)
    }

    #[test]
    fn rc_settles_to_dc_solution() {
        let (c, caps) = rc_chain();
        let result =
            simulate_step_response(&c, 0, 2, Volts(2.0), &caps, &TransientOptions::default())
                .unwrap();
        // final node voltage = 1 V (divider), source current 1 µA
        assert!((result.voltages[1].value() - 1.0).abs() < 5e-3, "{:?}", result.voltages);
        let (_, i_last) = result.trajectory.last().copied().unwrap();
        assert!((i_last.value() - 1e-6).abs() < 1e-8);
    }

    #[test]
    fn settling_time_scales_with_capacitance() {
        let (c, caps_small) = rc_chain();
        let caps_big = vec![Farads(0.0), Farads(4e-12), Farads(0.0)];
        let opts = TransientOptions { max_time: Seconds(5e-5), ..Default::default() };
        let fast = simulate_step_response(&c, 0, 2, Volts(2.0), &caps_small, &opts).unwrap();
        let slow = simulate_step_response(&c, 0, 2, Volts(2.0), &caps_big, &opts).unwrap();
        assert!(
            slow.settling_time.value() > 2.0 * fast.settling_time.value(),
            "fast {} slow {}",
            fast.settling_time,
            slow.settling_time
        );
    }

    #[test]
    fn rc_time_constant_roughly_correct() {
        // parallel R of the divider is 0.5 MΩ → τ = 0.5 µs; 0.1 % settle
        // takes ~7 τ ≈ 3.5 µs
        let (c, caps) = rc_chain();
        let opts =
            TransientOptions { step: Seconds(1e-8), max_time: Seconds(2e-5), ..Default::default() };
        let result = simulate_step_response(&c, 0, 2, Volts(2.0), &caps, &opts).unwrap();
        let t = result.settling_time.value();
        assert!((1e-6..8e-6).contains(&t), "settling {t}");
    }

    #[test]
    fn wrong_capacitance_length_rejected() {
        let (c, _) = rc_chain();
        let err = simulate_step_response(
            &c,
            0,
            2,
            Volts(2.0),
            &[Farads(0.0)],
            &TransientOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::InvalidNode { .. }));
    }

    #[test]
    fn traced_run_counts_steps_and_settle_time() {
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        // three unequal internal nodes, so the up-front DC solve cannot
        // start at its answer
        let c = fork();
        let caps = vec![Farads(0.0), Farads(1e-12), Farads(1e-12), Farads(1e-12), Farads(0.0)];
        let result = simulate_step_response_traced(
            &c,
            0,
            4,
            Volts(2.0),
            &caps,
            &TransientOptions::default(),
            &recorder,
        )
        .unwrap();
        let accepted = recorder.counter("analog.transient.steps_accepted");
        assert!(accepted as usize >= result.trajectory.len() - 1);
        assert_eq!(recorder.counter("analog.transient.steps_rejected"), 0);
        assert!(recorder.counter("analog.transient.newton_iterations") >= accepted);
        let settle = recorder.histogram("analog.transient.settle_time_s").unwrap();
        assert_eq!(settle.count, 1);
        assert!((settle.max - result.settling_time.value()).abs() < 1e-15);
        assert_eq!(recorder.span_stats("analog.transient.simulate").unwrap().count, 1);
        // the up-front DC solve reports through the same recorder
        assert!(recorder.counter("analog.dc.newton_iterations") >= 1);
    }

    #[test]
    fn nan_element_current_never_enters_the_trajectory() {
        // s→a, a→t (NaN above 0.9 V) and a→b→t settle at a = 0.8 V; a
        // 0.1 µs step's Newton trials overshoot a past 0.9 V on the way
        let mut c = Circuit::new(4);
        c.add_element(0, 1, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(1, 3, NanAbove(0.9)).unwrap();
        c.add_element(1, 2, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(2, 3, NanAbove(f64::INFINITY)).unwrap();
        let caps = vec![Farads(0.0), Farads(1e-13), Farads(1e-13), Farads(0.0)];
        let opts = TransientOptions { step: Seconds(1e-7), ..Default::default() };
        let result = simulate_step_response(&c, 0, 3, Volts(2.0), &caps, &opts).unwrap();
        assert!(result.voltages.iter().all(|v| v.value().is_finite()), "{:?}", result.voltages);
        assert!(result.trajectory.iter().all(|(_, i)| i.value().is_finite()));
        assert!((result.voltages[1].value() - 0.8).abs() < 1e-3, "{:?}", result.voltages);

        // s→a→t beside s→t (NaN above 1.5 V): every step pins s→t at the
        // 2 V its DC point sees, so the run fails there, before any step
        let mut c = Circuit::new(3);
        c.add_element(0, 1, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(1, 2, NanAbove(f64::INFINITY)).unwrap();
        c.add_element(0, 2, NanAbove(1.5)).unwrap();
        let caps = vec![Farads(0.0), Farads(1e-13), Farads(0.0)];
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let err = simulate_step_response_traced(&c, 0, 2, Volts(2.0), &caps, &opts, &recorder)
            .unwrap_err();
        assert!(matches!(err, SolveError::NoConvergence { worst_node: 0, .. }), "{err:?}");
        assert_eq!(recorder.counter("analog.dc.nonconvergence"), 1);
        assert_eq!(recorder.counter("analog.transient.steps_accepted"), 0);
    }

    #[test]
    fn nan_element_current_at_the_step_start_is_an_error() {
        // the DC point a = 1 V is finite, but at t = 0 (a = 0 V) the
        // first element sees 2 V and its current is NaN: no step can
        // start from there, so the run fails instead of tracing NaN
        let mut c = Circuit::new(3);
        c.add_element(0, 1, NanAbove(1.5)).unwrap();
        c.add_element(1, 2, NanAbove(f64::INFINITY)).unwrap();
        let caps = vec![Farads(0.0), Farads(1e-13), Farads(0.0)];
        let err = simulate_step_response(&c, 0, 2, Volts(2.0), &caps, &TransientOptions::default())
            .unwrap_err();
        assert!(matches!(err, SolveError::NoConvergence { .. }), "{err:?}");
    }

    #[test]
    fn trajectory_monotone_for_simple_rc() {
        let (c, caps) = rc_chain();
        let result =
            simulate_step_response(&c, 0, 2, Volts(2.0), &caps, &TransientOptions::default())
                .unwrap();
        // source current decays monotonically from the inrush peak
        let currents: Vec<f64> = result.trajectory.iter().map(|(_, i)| i.value()).collect();
        for w in currents.windows(2).skip(1) {
            assert!(w[1] <= w[0] + 1e-12, "non-monotone: {w:?}");
        }
    }
}
