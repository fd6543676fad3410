//! The PPUF basic building block (paper Fig 2) and its design evolution.
//!
//! A building block instantiates one directed edge of the flow graph. It is
//! a series stack — input diode, one or two source-degenerated NMOS current
//! limiters, output diode — whose terminal I–V curve delivers the three
//! properties the equivalence proof needs:
//!
//! 1. **directionality** (diodes): `I ≥ 0` — the flow non-negativity
//!    constraint;
//! 2. **capacity** (saturating transistor): `I ≲ I_sat` set by the control
//!    voltage `V_gs0` — the flow capacity constraint;
//! 3. **incremental passivity**: `I` strictly increases with the terminal
//!    voltage, so the whole crossbar settles to a unique steady state that
//!    maximizes the source current (Mead & Ismail).
//!
//! The module implements all four design points of the paper's Fig 2:
//! [`BlockDesign::Plain`] (a), [`BlockDesign::SingleSd`] (b),
//! [`BlockDesign::DoubleSd`] (c), and the challenge-controllable serial
//! block [`BlockDesign::Serial`] (d) used in the actual PPUF.
//!
//! # Evaluation strategy
//!
//! Every element in the stack is *monotone*, so the composite inverse
//! curve `V(I) = Σ V_element(I)` is monotone too, built from closed-form
//! element inverses. The forward curve `I(ΔV)` is a root-find on `I`, in
//! one of two ways.
//!
//! - **Cold** ([`TwoTerminal::current`], characterization): a bracket
//!   seeded at the stack's ideal saturation current (the knee of the
//!   curve), tightened with the Illinois variant of regula falsi and
//!   bisecting whenever an interpolated step degenerates. Counted on a
//!   release build, it takes 25.4 inverse evaluations at the 1 V
//!   characterization point (n = 100 and n = 300 paper devices, both bits
//!   of both networks), 5.5 of them past the stack's wall, where `V = ∞`.
//! - **Seeded** (the DC solver's residual passes and conductance secants):
//!   Newton's method from a nearby current on the inverse curve, its
//!   closed-form slope `V′(I)` and the diodes' curvature, inside the cold
//!   root-find's bracket invariant and tolerance, falling back to the cold
//!   root-find after 40 evaluations. `V′(0)` is finite, so an edge whose
//!   previous current is 0 A starts there. Counted in an n = 900 DC solve
//!   (3 Newton iterations, one thread), per call: a conductance secant
//!   from a positive current takes 7.6 (810 011 calls), one from 0 A 2.3
//!   (1 617 289, counting the edges reverse-biased past the window, which
//!   need no root-find), a residual root-find from a positive current 3.3
//!   (1 234 630) and one from 0 A 4.8 (406 927): 19.6 per edge in all,
//!   against 43.0 for the bracket expansions they replaced.
//!
//! The DC Jacobian's conductance is the ±0.1 mV window secant rather than
//! the true slope `1/V′`; see [`BuildingBlock::conductance_at_current`]
//! for why.

use serde::{Deserialize, Serialize};

use crate::device::diode::Diode;
use crate::device::mos::MosTransistor;
use crate::device::resistor::Resistor;
use crate::units::{Amps, Celsius, Volts};

/// A two-terminal circuit element: the interface the DC/transient solvers
/// and the crossbar need from an edge.
///
/// Implementations must be *incrementally passive*: `current` must be
/// non-decreasing in `dv` and zero for `dv ≤ 0`.
pub trait TwoTerminal {
    /// Terminal current at voltage `dv` across the element.
    fn current(&self, dv: Volts, temp: Celsius) -> Amps;

    /// Small-signal conductance `∂I/∂V` at `dv`.
    ///
    /// The default implementation uses a symmetric finite difference; the
    /// DC solver floors it with `G_MIN`, so returning an approximation is
    /// fine.
    fn conductance(&self, dv: Volts, temp: Celsius) -> f64 {
        let h = 1e-4;
        let lo = self.current(Volts(dv.value() - h), temp).value();
        let hi = self.current(Volts(dv.value() + h), temp).value();
        ((hi - lo) / (2.0 * h)).max(0.0)
    }

    /// Current and conductance at `dv` in one call.
    ///
    /// The Newton stamping loop needs both at the same operating point;
    /// implementations whose two evaluations share work (a building
    /// block's root-find) override this to pay for that work once. The
    /// default simply calls both methods.
    fn current_and_conductance(&self, dv: Volts, temp: Celsius) -> (Amps, f64) {
        (self.current(dv, temp), self.conductance(dv, temp))
    }

    /// Conductance at `dv` given `current` already evaluated at the same
    /// `dv` (the solver reuses its line-search currents this way, making
    /// the Jacobian pass free of forward root-finds).
    ///
    /// The default ignores the hint and recomputes; overriding only makes
    /// sense when the conductance is cheap to derive from the current.
    fn conductance_with_current(&self, dv: Volts, current: Amps, temp: Celsius) -> f64 {
        let _ = current;
        self.conductance(dv, temp)
    }

    /// Current at `dv`, optionally accelerated by `seed` — this element's
    /// current at a nearby operating point (the same edge's value from
    /// the previous Newton iterate, say). The result must equal
    /// [`current`](Self::current) to root-find tolerance regardless of
    /// the seed; the default ignores it.
    fn current_seeded(&self, dv: Volts, seed: Amps, temp: Celsius) -> Amps {
        let _ = seed;
        self.current(dv, temp)
    }
}

/// Which design point of the paper's Fig 2 a building block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockDesign {
    /// Fig 2(a): bare saturated transistor between two diodes. Full SCE
    /// slope — the strawman.
    Plain,
    /// Fig 2(b): one level of source degeneration (R1 under M2).
    SingleSd,
    /// Fig 2(c): two nested levels (M1 over M2 + R1, with bias `V_b`).
    DoubleSd,
    /// Fig 2(d): two double-SD stacks in series; stack A is controlled by
    /// `V_gs0`, stack B by `V_gs1 = V_c − V_gs0`, so a challenge bit picks
    /// which stack (and which transistors' variation) limits the current.
    Serial,
}

/// Control voltages applied to a block (paper §5 settings).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockBias {
    /// Gate control voltage of stack A (and of the single stack for the
    /// non-serial designs).
    pub vgs0: Volts,
    /// Level-shift bias keeping the upper device of a double-SD stack in
    /// saturation.
    pub vb: Volts,
    /// Control-voltage budget: `V_gs0 + V_gs1 = V_c` for the serial block.
    pub vc: Volts,
}

impl BlockBias {
    /// Paper §5 bias for challenge bit 1 (`V_gs0` = 0.5 V).
    ///
    /// `V_b` is recalibrated from the paper's 0.1 V to 0.25 V so the upper
    /// (cascode) device keeps enough overdrive for the lower device to be
    /// the current limiter under this crate's technology card — see
    /// DESIGN.md §4.
    pub const INPUT_ONE: BlockBias =
        BlockBias { vgs0: Volts(0.5), vb: Volts(0.25), vc: Volts(1.2) };

    /// Paper §5 bias for challenge bit 0 (`V_gs0` = 0.67 V).
    pub const INPUT_ZERO: BlockBias =
        BlockBias { vgs0: Volts(0.67), vb: Volts(0.25), vc: Volts(1.2) };

    /// The bias the paper assigns to challenge bit `bit`.
    pub fn for_input(bit: bool) -> Self {
        if bit {
            Self::INPUT_ONE
        } else {
            Self::INPUT_ZERO
        }
    }

    /// Stack B's gate voltage `V_gs1 = V_c − V_gs0`.
    pub fn vgs1(&self) -> Volts {
        self.vc - self.vgs0
    }
}

impl Default for BlockBias {
    fn default() -> Self {
        Self::INPUT_ONE
    }
}

/// Per-block process variation: one threshold shift per transistor
/// position (M1, M2 in stack A; M3, M4 in stack B).
///
/// Non-serial designs use the first one or two entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockVariation {
    /// ΔV_th of M1..M4.
    pub delta_vth: [Volts; 4],
}

impl BlockVariation {
    /// No variation (the nominal block).
    pub fn nominal() -> Self {
        Self::default()
    }

    /// A uniform shift on every transistor (useful in tests).
    pub fn uniform(delta: Volts) -> Self {
        BlockVariation { delta_vth: [delta; 4] }
    }
}

/// One PPUF building block instance.
///
/// ```
/// use ppuf_analog::block::{BlockBias, BlockDesign, BuildingBlock, TwoTerminal};
/// use ppuf_analog::units::{Celsius, Volts};
///
/// let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
/// let i = block.current(Volts(1.8), Celsius::NOMINAL);
/// // saturated in the tens of nanoamps
/// assert!(i.value() > 1e-9 && i.value() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildingBlock {
    design: BlockDesign,
    bias: BlockBias,
    mos: MosTransistor,
    diode: Diode,
    r1: Resistor,
    variation: BlockVariation,
}

/// The inverse curve `V(I)` at one current, as the seeded root-find reads
/// it: the voltage, its slope `V′` and the curvature Newton's steps
/// correct for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CurvePoint {
    v: f64,
    slope: f64,
    curvature: f64,
}

/// The current a [`BuildingBlock::inverse_at`] evaluation carries
/// through the stacks, with the triode term `2i/k` all their transistors
/// share.
struct StackCurrent {
    i: f64,
    two_i_over_k: f64,
}

/// The terms of a block's inverse curve that depend only on temperature:
/// the diodes' thermal voltage, the card's `k_eff` and each transistor's
/// threshold. A cold forward root-find evaluates the inverse ≈ 25 times at
/// one temperature (see the module docs), so it evaluates these once (a
/// square root and a division among them).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TempTerms {
    vt: Volts,
    k: f64,
    vth: [Volts; 4],
}

impl BuildingBlock {
    /// Creates a nominal (variation-free) block with the default
    /// technology card.
    pub fn new(design: BlockDesign, bias: BlockBias) -> Self {
        BuildingBlock {
            design,
            bias,
            mos: MosTransistor::default(),
            diode: Diode::default(),
            r1: Resistor::default(),
            variation: BlockVariation::nominal(),
        }
    }

    /// Attaches process variation to this block.
    pub fn with_variation(mut self, variation: BlockVariation) -> Self {
        self.variation = variation;
        self
    }

    /// Overrides the transistor technology card.
    pub fn with_mos(mut self, mos: MosTransistor) -> Self {
        self.mos = mos;
        self
    }

    /// Overrides the degeneration resistor.
    pub fn with_resistor(mut self, r1: Resistor) -> Self {
        self.r1 = r1;
        self
    }

    /// Re-programs the control voltages (what a type-B challenge does).
    pub fn set_bias(&mut self, bias: BlockBias) {
        self.bias = bias;
    }

    /// The design point of this block.
    pub fn design(&self) -> BlockDesign {
        self.design
    }

    /// The active control voltages.
    pub fn bias(&self) -> BlockBias {
        self.bias
    }

    /// The variation attached to this block.
    pub fn variation(&self) -> BlockVariation {
        self.variation
    }

    fn transistor(&self, index: usize) -> MosTransistor {
        self.mos.with_delta_vth(self.variation.delta_vth[index])
    }

    /// The inverse curve's temperature terms at `temp`, evaluated once so
    /// that every inverse evaluation of a forward root-find shares them.
    fn temp_terms(&self, temp: Celsius) -> TempTerms {
        TempTerms {
            vt: self.diode.thermal_voltage(temp),
            k: self.mos.k_eff(temp),
            vth: std::array::from_fn(|idx| self.transistor(idx).vth(temp)),
        }
    }

    /// Composite inverse curve: total terminal voltage needed to carry
    /// current `i` (infinite if the stack cannot carry `i`).
    ///
    /// This is the sum of the element inverses; each element inverse is
    /// closed-form, so the result is exact up to floating point.
    pub fn voltage_for_current(&self, i: Amps, temp: Celsius) -> Volts {
        self.voltage_at(i, &self.temp_terms(temp))
    }

    /// [`voltage_for_current`](Self::voltage_for_current) at temperature
    /// terms already evaluated: the same expressions in the same order, so
    /// the same bits.
    fn voltage_at(&self, i: Amps, t: &TempTerms) -> Volts {
        if i.value() <= 0.0 {
            return Volts(0.0);
        }
        let diodes = self.diode.voltage_for_current_vt(i, t.vt) * 2.0;
        let stacks = match self.design {
            BlockDesign::Plain => self.vds(i, self.bias.vgs0, 0, t),
            BlockDesign::SingleSd => self.single_sd_voltage(i, self.bias.vgs0, 0, t),
            BlockDesign::DoubleSd => self.double_sd_voltage(i, self.bias.vgs0, t, [0, 1]),
            BlockDesign::Serial => {
                let a = self.double_sd_voltage(i, self.bias.vgs0, t, [0, 1]);
                let b = self.double_sd_voltage(i, self.bias.vgs1(), t, [2, 3]);
                a + b
            }
        };
        diodes + stacks
    }

    /// `V_ds` transistor `idx` needs to carry `i` with its gate `vgs` above
    /// its source (infinite if it cannot) — Fig 2(a)'s whole stack.
    fn vds(&self, i: Amps, vgs: Volts, idx: usize, t: &TempTerms) -> Volts {
        self.mos.vds_for_overdrive(i, vgs - t.vth[idx], t.k).unwrap_or(Volts(f64::INFINITY))
    }

    /// Fig 2(b): M(idx) degenerated by R1; gate referenced to stack bottom,
    /// so the R1 drop subtracts from the effective `V_gs`.
    fn single_sd_voltage(&self, i: Amps, vgs: Volts, idx: usize, t: &TempTerms) -> Volts {
        let vr = self.r1.voltage_for_current(i);
        let vgs_eff = vgs - vr;
        self.vds(i, vgs_eff, idx, t) + vr
    }

    /// Fig 2(c): M(idx[0]) rides on the M(idx[1]) + R1 sub-stack; its gate
    /// sits `V_b` above the lower gate, both referenced to the stack
    /// bottom. Rising lower-stack voltage eats M1's effective `V_gs` —
    /// that is the second, multiplicative level of slope suppression.
    fn double_sd_voltage(&self, i: Amps, vgs: Volts, t: &TempTerms, idx: [usize; 2]) -> Volts {
        let lower = self.single_sd_voltage(i, vgs, idx[1], t);
        if !lower.is_finite() {
            return lower;
        }
        let vgs_upper = vgs + self.bias.vb - lower;
        self.vds(i, vgs_upper, idx[0], t) + lower
    }

    /// The inverse curve at current `i` for the seeded root-find:
    /// [`voltage_at`](Self::voltage_at), bit for bit (the same expressions,
    /// with the triode term `2i/k` its four transistors share divided
    /// once), so that root-find solves the very curve the cold one does;
    /// the slope `V′(i)`, the diodes' `2·n·V_T/(I_s + i)` plus each
    /// stack's chain rule through R1 and the upper transistor; and the
    /// diodes' curvature `−2·n·V_T/(I_s + i)²`, which dominates `V″` below
    /// the knee (the stacks' is left out). At `i ≤ 0` it reads `V = 0` and
    /// the curve where it leaves the origin, its slope finite unless a
    /// stack is cut off; past a stack's wall `V` and the slope are
    /// infinite.
    pub(crate) fn inverse_at(&self, i: f64, t: &TempTerms) -> CurvePoint {
        let at = i.max(0.0);
        let current = StackCurrent { i: at, two_i_over_k: 2.0 * at / t.k };
        let is = self.diode.saturation_current.value();
        let vt = t.vt.value();
        let vgs0 = self.bias.vgs0.value();
        let (stacks, stacks_slope) = match self.design {
            BlockDesign::Plain => {
                let [v, dv_di, _] = self.vds_slope(&current, vgs0 - t.vth[0].value(), t);
                (v, dv_di)
            }
            BlockDesign::SingleSd => self.single_sd_slope(&current, vgs0, 0, t),
            BlockDesign::DoubleSd => self.double_sd_slope(&current, vgs0, t, [0, 1]),
            BlockDesign::Serial => {
                let (a, a_slope) = self.double_sd_slope(&current, vgs0, t, [0, 1]);
                let vgs1 = self.bias.vgs1().value();
                let (b, b_slope) = self.double_sd_slope(&current, vgs1, t, [2, 3]);
                (a + b, a_slope + b_slope)
            }
        };
        let diode_span = 1.0 / (is + at);
        let diodes_slope = 2.0 * vt * diode_span;
        let v = if i <= 0.0 { 0.0 } else { 2.0 * (vt * (1.0 + at / is).ln()) + stacks };
        CurvePoint { v, slope: diodes_slope + stacks_slope, curvature: -diodes_slope * diode_span }
    }

    /// `V_ds` a transistor at overdrive `vov` needs to carry the current,
    /// with its partial derivatives in the current and in `vov`:
    /// [`vds`](Self::vds)'s square law, or [`WALL`] where it cannot carry it.
    fn vds_slope(&self, current: &StackCurrent, vov: f64, t: &TempTerms) -> [f64; 3] {
        if vov <= 0.0 {
            return WALL;
        }
        let i = current.i;
        let isat = 0.5 * t.k * vov * vov;
        if i < isat {
            // triode: v = vov − √(vov² − 2i/k), so ∂v/∂i = 1/(k·√…) and
            // ∂v/∂vov = 1 − vov/√…
            let root = (vov * vov - current.two_i_over_k).max(0.0).sqrt();
            let dv_di = 1.0 / (t.k * root);
            [vov - root, dv_di, 1.0 - vov * t.k * dv_di]
        } else if self.mos.lambda > 0.0 {
            // saturation: v = vov + (i/isat − 1)/λ; with g = 1/(λ·isat),
            // ∂v/∂vov = 1 − 2i·g/vov = 1 − λ·k·vov·i·g², as 1/vov = λ·k·vov·g/2
            let lambda = self.mos.lambda;
            let g = 1.0 / (lambda * isat);
            [vov + (i / isat - 1.0) / lambda, g, 1.0 - lambda * t.k * vov * i * g * g]
        } else if i == isat {
            [vov, f64::INFINITY, f64::NEG_INFINITY]
        } else {
            WALL
        }
    }

    /// [`single_sd_voltage`](Self::single_sd_voltage) and its slope: R1's
    /// drop `i·R` both adds to the stack and lowers the overdrive.
    fn single_sd_slope(
        &self,
        current: &StackCurrent,
        vgs: f64,
        idx: usize,
        t: &TempTerms,
    ) -> (f64, f64) {
        let r = self.r1.resistance.value();
        let vr = current.i * r;
        let [v, dv_di, dv_dvov] = self.vds_slope(current, vgs - vr - t.vth[idx].value(), t);
        (v + vr, dv_di + (1.0 - dv_dvov) * r)
    }

    /// [`double_sd_voltage`](Self::double_sd_voltage) and its slope: the
    /// lower sub-stack's voltage both adds to the stack and lowers the
    /// upper transistor's overdrive.
    fn double_sd_slope(
        &self,
        current: &StackCurrent,
        vgs: f64,
        t: &TempTerms,
        idx: [usize; 2],
    ) -> (f64, f64) {
        let (lower, lower_slope) = self.single_sd_slope(current, vgs, idx[1], t);
        let vgs_upper = vgs + self.bias.vb.value() - lower;
        let [v, dv_di, dv_dvov] = self.vds_slope(current, vgs_upper - t.vth[idx[0]].value(), t);
        (v + lower, dv_di + (1.0 - dv_dvov) * lower_slope)
    }

    /// Ideal saturation current of one degenerated stack at gate bias
    /// `vgs`: the λ-free solution of `I = k/2 (V_gs − I·R₁ − V_th)²`
    /// for the limiting (lower) transistor.
    ///
    /// This is what the public simulation model publishes as the edge
    /// capacity; the SCE residual slope is deliberately excluded (Fig 6
    /// measures how little that omission costs).
    fn stack_capacity(&self, vgs: Volts, lower_idx: usize, t: &TempTerms) -> Amps {
        let vov0 = (vgs - t.vth[lower_idx]).value();
        if vov0 <= 0.0 {
            return Amps(0.0);
        }
        let k = t.k;
        let r = match self.design {
            BlockDesign::Plain => 0.0,
            _ => self.r1.resistance.value(),
        };
        if r == 0.0 {
            return Amps(0.5 * k * vov0 * vov0);
        }
        // solve I = k/2 (vov0 − I·r)² ; pick the root with I·r < vov0
        // let x = I·r: x = (k·r/2)(vov0 − x)² → quadratic in x
        let a = 0.5 * k * r;
        // a·x² − (2a·vov0 + 1)·x + a·vov0² = 0
        let b = -(2.0 * a * vov0 + 1.0);
        let c = a * vov0 * vov0;
        let disc = (b * b - 4.0 * a * c).max(0.0).sqrt();
        let x = (-b - disc) / (2.0 * a);
        Amps((x / r).max(0.0))
    }

    /// The published capacity of this block: the ideal saturation current
    /// of the limiting stack.
    ///
    /// For the serial design this is the smaller of the two stack
    /// capacities — which stack limits depends on the challenge bit, so an
    /// attacker observing input-1 responses learns nothing about stack B's
    /// variation (paper Requirement 3).
    pub fn saturation_current(&self, temp: Celsius) -> Amps {
        self.capacity(&self.temp_terms(temp))
    }

    /// [`saturation_current`](Self::saturation_current) at evaluated
    /// temperature terms.
    fn capacity(&self, t: &TempTerms) -> Amps {
        match self.design {
            BlockDesign::Serial => {
                let a = self.stack_capacity(self.bias.vgs0, 1, t);
                let b = self.stack_capacity(self.bias.vgs1(), 3, t);
                a.min(b)
            }
            _ => self.stack_capacity(self.bias.vgs0, 1.min(self.transistor_count() - 1), t),
        }
    }

    /// The capacity a characterization pass would publish: the block's
    /// actual current at a reference terminal voltage.
    ///
    /// Unlike [`saturation_current`](Self::saturation_current) (the λ-free
    /// ideal), this includes the residual SCE slope at the reference
    /// point, which is what keeps the Fig 6 simulation-model inaccuracy
    /// below 1 %: every operating point between the saturation knee and
    /// the full supply differs from the published value only by the
    /// (double-SD-suppressed) slope times the voltage offset.
    pub fn characterized_capacity(&self, v_ref: Volts, temp: Celsius) -> Amps {
        self.current(v_ref, temp)
    }

    /// Number of transistors in this design.
    pub fn transistor_count(&self) -> usize {
        match self.design {
            BlockDesign::Plain => 1,
            BlockDesign::SingleSd => 1,
            BlockDesign::DoubleSd => 2,
            BlockDesign::Serial => 4,
        }
    }

    /// Forward curve `I(ΔV)` by a bracketed Illinois (modified regula
    /// falsi) root-find on the monotone inverse.
    ///
    /// The bracket invariant is the bisection's — `V(lo) < dv ≤ V(hi)` —
    /// so robustness on stiff stacks is unchanged, but the bracket is
    /// seeded at the stack's ideal saturation current (the knee, where
    /// every conducting operating point lives) and interpolated steps
    /// shrink it superlinearly: 25.4 inverse evaluations at the 1 V
    /// characterization point instead of the ~90 the doubling-plus-
    /// bisection scheme needed. About 5.5 of them land past the stack's
    /// wall, where `V = ∞` leaves the next step only a bisection.
    fn solve_current(&self, dv: Volts, temp: Celsius) -> Amps {
        let dv = dv.value();
        if dv <= 0.0 {
            return Amps(0.0);
        }
        Amps(self.solve_cold(dv, &self.temp_terms(temp)))
    }

    /// [`solve_current`](Self::solve_current) for `dv > 0` at evaluated
    /// temperature terms.
    fn solve_cold(&self, dv: f64, t: &TempTerms) -> f64 {
        // bracket: start at the knee, double until V(hi) >= dv
        let mut hi = self.capacity(t).value();
        if hi <= 0.0 {
            hi = 1e-12; // cutoff stack: V(any i > 0) is infinite
        }
        let mut f_hi = self.voltage_at(Amps(hi), t).value() - dv;
        let mut guard = 0;
        while f_hi < 0.0 {
            hi *= 2.0;
            f_hi = self.voltage_at(Amps(hi), t).value() - dv;
            guard += 1;
            if guard > 120 {
                break; // absurdly conductive; accept hi as bracket
            }
        }
        let lo = 0.0f64;
        let f_lo = -dv; // V(0) = 0
        self.illinois_refine(lo, f_lo, hi, f_hi, dv, t)
    }

    /// Illinois refinement of a bracket `V(lo) < dv ≤ V(hi)` down to the
    /// root of `V(i) − dv`. `side` tracks which endpoint survived the last
    /// update; retaining the same endpoint twice halves its residual (the
    /// Illinois trick that forces both endpoints to converge).
    fn illinois_refine(
        &self,
        mut lo: f64,
        mut f_lo: f64,
        mut hi: f64,
        mut f_hi: f64,
        dv: f64,
        t: &TempTerms,
    ) -> f64 {
        let mut side = 0i8;
        for _ in 0..90 {
            if hi - lo <= lo * 1e-14 + 1e-24 {
                break;
            }
            let mid = if f_hi.is_finite() {
                let m = (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
                // keep strictly interior; bisect when the step degenerates
                if m > lo && m < hi {
                    m
                } else {
                    0.5 * (lo + hi)
                }
            } else {
                0.5 * (lo + hi)
            };
            let fm = self.voltage_at(Amps(mid), t).value() - dv;
            if fm < 0.0 {
                lo = mid;
                f_lo = fm;
                if side < 0 && f_hi.is_finite() {
                    f_hi *= 0.5;
                }
                side = -1;
            } else {
                hi = mid;
                f_hi = fm;
                if side > 0 {
                    f_lo *= 0.5;
                }
                side = 1;
            }
        }
        bracket_root(lo, hi)
    }

    /// Forward curve `I(dv)` by [`newton_root`] from the current `x`, where
    /// the inverse curve reads `at_x`, falling back to the cold root-find
    /// where Newton gives up. This is the seeded path: each residual pass
    /// starts from the edge's previous current, and each conductance
    /// secant from its centre current.
    fn solve_from(&self, dv: f64, x: f64, at_x: CurvePoint, t: &TempTerms) -> f64 {
        if dv <= 0.0 {
            return 0.0;
        }
        newton_root(dv, x, at_x, |i| self.inverse_at(i, t))
            .unwrap_or_else(|| self.solve_cold(dv, t))
    }

    /// Small-signal conductance from the inverse derivative: `g = 1/V′(i)`,
    /// with `V′` the closed-form slope of the composite inverse curve.
    ///
    /// One closed-form evaluation — no forward root-find — giving the
    /// *true* slope of the composite curve at the operating point. Note the
    /// DC Jacobian deliberately does **not** use this: past the diode knee
    /// the true slope collapses toward the λ-suppressed saturation slope
    /// (~1e-14 S) while the solver's ±0.1 mV secant stays decades larger,
    /// and that smoothing is what keeps damped Newton's line search
    /// descending across the knee. Returns 0 for a non-conducting
    /// operating point (`i ≤ 0`) and past the stack's wall.
    pub fn conductance_at_current(&self, i: Amps, temp: Celsius) -> f64 {
        let i = i.value();
        if i <= 0.0 {
            return 0.0;
        }
        1.0 / self.inverse_at(i, &self.temp_terms(temp)).slope
    }

    /// The ±0.1 mV window secant `(I(dv+h) − I(dv−h)) / 2h` the trait's
    /// default conductance computes. The lower end's root-find starts from
    /// the known `current` at `dv`, where the inverse curve and its slope
    /// are evaluated once; the upper end's starts where that slope carries
    /// the lower end across the window, which misses `I(dv+h)` only at
    /// third order in `h`. A `current` of 0 starts both ends at 0 A.
    fn conductance_secant(&self, dv: Volts, current: Amps, temp: Celsius) -> f64 {
        let dv = dv.value();
        let h = 1e-4;
        if dv + h <= 0.0 {
            return 0.0; // neither end of the window conducts
        }
        let t = self.temp_terms(temp);
        let x = current.value().max(0.0);
        let at_x = self.inverse_at(x, &t);
        let i_lo = self.solve_from(dv - h, x, at_x, &t);
        let i_hi = if x > 0.0 {
            // I(dv+h) = I(dv−h) + 2h·I′(dv) to third order in h, x being I(dv)
            let guess = i_lo + 2.0 * h / at_x.slope;
            self.solve_from(dv + h, guess, self.inverse_at(guess, &t), &t)
        } else {
            self.solve_from(dv + h, x, at_x, &t)
        };
        ((i_hi - i_lo) / (2.0 * h)).max(0.0)
    }
}

impl TwoTerminal for BuildingBlock {
    fn current(&self, dv: Volts, temp: Celsius) -> Amps {
        self.solve_current(dv, temp)
    }

    fn conductance(&self, dv: Volts, temp: Celsius) -> f64 {
        self.conductance_secant(dv, self.solve_current(dv, temp), temp)
    }

    fn current_and_conductance(&self, dv: Volts, temp: Celsius) -> (Amps, f64) {
        let i = self.solve_current(dv, temp);
        (i, self.conductance_secant(dv, i, temp))
    }

    fn conductance_with_current(&self, dv: Volts, current: Amps, temp: Celsius) -> f64 {
        self.conductance_secant(dv, current, temp)
    }

    fn current_seeded(&self, dv: Volts, seed: Amps, temp: Celsius) -> Amps {
        let dv = dv.value();
        if dv <= 0.0 {
            return Amps(0.0);
        }
        let t = self.temp_terms(temp);
        let x = seed.value().max(0.0);
        Amps(self.solve_from(dv, x, self.inverse_at(x, &t), &t))
    }
}

/// [`BuildingBlock::vds_slope`] past a transistor's wall: `V_ds` and its
/// slope in `i` infinite, and its slope in the overdrive `−∞` (less
/// overdrive needs more `V_ds`), so every chain rule through it reads a
/// slope of `+∞`, never `∞ − ∞`.
const WALL: [f64; 3] = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY];

/// The most inverse-curve evaluations [`newton_root`] makes before it
/// gives up and the caller solves cold. In an n = 900 DC solve 99.6 % of
/// the 1.64 M seeded root-finds take at most 6, the seed's included, and
/// none more than 36; one from 0 A to the 1 V of a characterization
/// takes 12–19 on the nominal blocks. The cap stops what Newton cannot
/// finish, such as a seed decades past the wall, which only bisection
/// brings back.
const NEWTON_MAX_EVALS: usize = 40;

/// The root a converged bracket reports: its midpoint, or 0 when that is
/// below any physical current (a cutoff stack brackets at an
/// infinitesimal current).
fn bracket_root(lo: f64, hi: f64) -> f64 {
    let i = 0.5 * (lo + hi);
    if i < 1e-18 {
        0.0
    } else {
        i
    }
}

/// The root of `V(x) = dv > 0` on a non-decreasing curve with `V(0) = 0`,
/// by Newton's method from `x ≥ 0`, where the curve reads `at_x`; `curve`
/// evaluates it at any `x ≥ 0`, reading `V = ∞` past the curve's wall.
///
/// A bracket keeps the cold root-find's invariant `V(lo) < dv ≤ V(hi)`,
/// with no upper end until an evaluation reaches `dv`. Each step is
/// Newton's from the latest evaluation, with Halley's correction for the
/// curvature the curve reports (at most doubling the step). A step that
/// leaves the bracket bisects instead, and so does the step after an
/// evaluation past the wall, where `V = ∞` leaves no step at all. A step
/// shorter than the tolerance becomes a probe nine tenths of a tolerance
/// away, so the evaluation after a converged iterate lands past the root;
/// that also turns the zero step of an infinite slope (a cutoff stack
/// leaves 0 A vertically) into a probe. Convergence is declared only once
/// the bracket itself is within the cold root-find's tolerance: a small
/// step proves nothing where rounding moves `V` by more than the step
/// does. Returns `None` when there is nothing to bisect (a step that is
/// not a number, with no upper end) and after [`NEWTON_MAX_EVALS`]
/// evaluations.
fn newton_root(
    dv: f64,
    mut x: f64,
    mut at_x: CurvePoint,
    mut curve: impl FnMut(f64) -> CurvePoint,
) -> Option<f64> {
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let mut evals = 0;
    loop {
        let CurvePoint { v, slope, curvature } = at_x;
        let f = v - dv;
        if f < 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        if hi - lo <= lo * 1e-14 + 1e-24 {
            return Some(bracket_root(lo, hi));
        }
        if evals == NEWTON_MAX_EVALS {
            return None;
        }
        let mut step = -f / slope;
        let halley = 1.0 - 0.5 * f * curvature / (slope * slope);
        if halley.is_finite() {
            step /= halley.max(0.5);
        }
        let tol = x * 1e-14 + 1e-24;
        let next = if step.abs() < tol { x + (0.9 * tol).copysign(step) } else { x + step };
        x = if lo < next && next < hi {
            next
        } else if hi < f64::INFINITY {
            0.5 * (lo + hi)
        } else {
            return None;
        };
        at_x = curve(x);
        evals += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Celsius = Celsius::NOMINAL;

    fn designs() -> [BlockDesign; 4] {
        [BlockDesign::Plain, BlockDesign::SingleSd, BlockDesign::DoubleSd, BlockDesign::Serial]
    }

    #[test]
    fn blocks_are_directed() {
        for d in designs() {
            let b = BuildingBlock::new(d, BlockBias::INPUT_ONE);
            assert_eq!(b.current(Volts(0.0), T).value(), 0.0, "{d:?}");
            assert_eq!(b.current(Volts(-1.0), T).value(), 0.0, "{d:?}");
        }
    }

    #[test]
    fn blocks_are_incrementally_passive() {
        for d in designs() {
            let b = BuildingBlock::new(d, BlockBias::INPUT_ONE);
            let mut prev = -1.0;
            for step in 1..=40 {
                let i = b.current(Volts(step as f64 * 0.05), T).value();
                assert!(i >= prev, "{d:?} non-monotone at step {step}");
                prev = i;
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for d in designs() {
            let b = BuildingBlock::new(d, BlockBias::INPUT_ONE);
            for &dv in &[0.6, 1.0, 1.5, 1.9] {
                let i = b.current(Volts(dv), T);
                if i.value() > 0.0 {
                    let back = b.voltage_for_current(i, T).value();
                    assert!((back - dv).abs() < 1e-6, "{d:?}: dv {dv} → i {} → {back}", i.value());
                }
            }
        }
    }

    #[test]
    fn saturation_current_is_tens_of_nanoamps() {
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let isat = b.saturation_current(T).value();
        assert!((5e-9..100e-9).contains(&isat), "isat {isat}");
    }

    #[test]
    fn operating_current_tracks_published_capacity() {
        // Fig 6's premise: at the operating point the real current is
        // within ~1 % of the published (ideal) capacity.
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let isat = b.saturation_current(T).value();
        let i = b.current(Volts(1.6), T).value();
        assert!((i / isat - 1.0).abs() < 0.05, "operating {i} vs capacity {isat}");
    }

    #[test]
    fn sd_levels_progressively_flatten_the_curve() {
        // Fig 3(a): residual slope in saturation shrinks with each SD level
        let slope = |design| {
            let b = BuildingBlock::new(design, BlockBias::INPUT_ONE);
            let i1 = b.current(Volts(1.2), T).value();
            let i2 = b.current(Volts(1.9), T).value();
            (i2 - i1) / i1 / 0.7 // relative slope per volt
        };
        let plain = slope(BlockDesign::Plain);
        let single = slope(BlockDesign::SingleSd);
        let double = slope(BlockDesign::DoubleSd);
        assert!(plain > single, "plain {plain} vs single {single}");
        assert!(single > double, "single {single} vs double {double}");
        assert!(plain / double > 20.0, "total suppression {}", plain / double);
    }

    #[test]
    fn requirement_2_variation_dominates_sce() {
        // paper: PV-induced spread ≈ 130× the SCE-induced change
        let nominal = BuildingBlock::new(BlockDesign::DoubleSd, BlockBias::INPUT_ONE);
        let fast = nominal.with_variation(BlockVariation::uniform(Volts(-0.035)));
        let slow = nominal.with_variation(BlockVariation::uniform(Volts(0.035)));
        let i_n = nominal.current(Volts(1.5), T).value();
        let pv_spread =
            (fast.current(Volts(1.5), T).value() - slow.current(Volts(1.5), T).value()).abs();
        let sce_change =
            (nominal.current(Volts(1.9), T).value() - nominal.current(Volts(1.1), T).value()).abs();
        let ratio = pv_spread / sce_change;
        assert!(ratio > 20.0, "PV/SCE ratio {ratio} (i_n {i_n})");
    }

    #[test]
    fn serial_block_limited_by_weaker_stack() {
        // hurt stack B only: input-1 current (limited by stack A) barely
        // moves, but capacity for the serial block under input 0 drops
        let bias = BlockBias::INPUT_ONE;
        let clean = BuildingBlock::new(BlockDesign::Serial, bias);
        let hurt_b = clean.with_variation(BlockVariation {
            delta_vth: [Volts(0.0), Volts(0.0), Volts(0.1), Volts(0.1)],
        });
        let i_clean = clean.current(Volts(1.8), T).value();
        let i_hurt = hurt_b.current(Volts(1.8), T).value();
        // stack A limits under INPUT_ONE (vgs0=0.5 < vgs1=0.7), so stack B
        // damage has only second-order effect
        assert!((i_hurt / i_clean - 1.0).abs() < 0.15, "clean {i_clean} hurt {i_hurt}");
        // but hurting stack A directly collapses the current
        let hurt_a = clean.with_variation(BlockVariation {
            delta_vth: [Volts(0.1), Volts(0.1), Volts(0.0), Volts(0.0)],
        });
        assert!(hurt_a.current(Volts(1.8), T).value() < 0.7 * i_clean);
    }

    #[test]
    fn bias_controls_capacity() {
        // Fig 3(b): saturation current rises with vgs0 (single stack)
        let lo = BuildingBlock::new(
            BlockDesign::DoubleSd,
            BlockBias { vgs0: Volts(0.45), ..BlockBias::INPUT_ONE },
        );
        let hi = BuildingBlock::new(
            BlockDesign::DoubleSd,
            BlockBias { vgs0: Volts(0.60), ..BlockBias::INPUT_ONE },
        );
        assert!(hi.saturation_current(T) > lo.saturation_current(T));
    }

    #[test]
    fn conductance_matches_slope() {
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let dv = Volts(1.5);
        let g = b.conductance(dv, T);
        let h = 1e-4;
        let num = (b.current(Volts(1.5 + h), T).value() - b.current(Volts(1.5 - h), T).value())
            / (2.0 * h);
        assert!(g >= 0.0);
        assert!((g - num).abs() <= 1e-9 + num.abs() * 1e-3);
    }

    #[test]
    fn combined_evaluation_matches_separate_calls() {
        // the solver's fused stamping path must agree bitwise with the
        // one-method-at-a-time contract
        for d in designs() {
            let b = BuildingBlock::new(d, BlockBias::INPUT_ONE);
            for &dv in &[0.3, 1.0, 1.6] {
                let (i, g) = b.current_and_conductance(Volts(dv), T);
                assert_eq!(i.value(), b.current(Volts(dv), T).value(), "{d:?} dv {dv}");
                assert_eq!(g, b.conductance(Volts(dv), T), "{d:?} dv {dv}");
                assert_eq!(g, b.conductance_with_current(Volts(dv), i, T), "{d:?} dv {dv}");
            }
        }
    }

    #[test]
    fn cutoff_block_conducts_nothing() {
        let b = BuildingBlock::new(
            BlockDesign::Serial,
            BlockBias { vgs0: Volts(0.1), vb: Volts(0.1), vc: Volts(1.2) },
        )
        .with_variation(BlockVariation::uniform(Volts(0.3)));
        // vgs0 − vth(0.6) < 0 on stack A → whole series path blocked
        assert_eq!(b.current(Volts(2.0), T).value(), 0.0);
    }

    /// The inverse curve and the ideal capacity as they read before their
    /// temperature terms were hoisted: every term recomputed on each call.
    /// Kept as the oracle the hoisted code must match bit for bit.
    fn reference_inverse(b: &BuildingBlock, i: Amps, temp: Celsius) -> Volts {
        if i.value() <= 0.0 {
            return Volts(0.0);
        }
        // MosTransistor::vds_for_current with its per-call terms
        let vds = |idx: usize, vgs: Volts| {
            let mos = b.transistor(idx);
            let i = i.value();
            let vov = (vgs - mos.vth(temp)).value();
            if vov <= 0.0 {
                return Volts(f64::INFINITY);
            }
            let k = mos.k_eff(temp);
            let isat = 0.5 * k * vov * vov;
            if i < isat {
                let disc = vov * vov - 2.0 * i / k;
                Volts(vov - disc.max(0.0).sqrt())
            } else if mos.lambda > 0.0 {
                Volts(vov + (i / isat - 1.0) / mos.lambda)
            } else if i == isat {
                Volts(vov)
            } else {
                Volts(f64::INFINITY)
            }
        };
        let single_sd = |vgs: Volts, idx: usize| {
            let vr = b.r1.voltage_for_current(i);
            vds(idx, vgs - vr) + vr
        };
        let double_sd = |vgs: Volts, idx: [usize; 2]| {
            let lower = single_sd(vgs, idx[1]);
            if !lower.is_finite() {
                return lower;
            }
            vds(idx[0], vgs + b.bias.vb - lower) + lower
        };
        let vt = b.diode.thermal_voltage(temp).value();
        let diode = Volts(vt * (1.0 + i.value() / b.diode.saturation_current.value()).ln());
        let stacks = match b.design {
            BlockDesign::Plain => vds(0, b.bias.vgs0),
            BlockDesign::SingleSd => single_sd(b.bias.vgs0, 0),
            BlockDesign::DoubleSd => double_sd(b.bias.vgs0, [0, 1]),
            BlockDesign::Serial => {
                double_sd(b.bias.vgs0, [0, 1]) + double_sd(b.bias.vgs1(), [2, 3])
            }
        };
        diode * 2.0 + stacks
    }

    fn reference_capacity(b: &BuildingBlock, temp: Celsius) -> Amps {
        let stack = |vgs: Volts, idx: usize| {
            let mos = b.transistor(idx);
            let vov0 = mos.overdrive(vgs, temp).value();
            if vov0 <= 0.0 {
                return Amps(0.0);
            }
            let k = mos.k_eff(temp);
            let r = match b.design {
                BlockDesign::Plain => 0.0,
                _ => b.r1.resistance.value(),
            };
            if r == 0.0 {
                return Amps(0.5 * k * vov0 * vov0);
            }
            let a = 0.5 * k * r;
            let bq = -(2.0 * a * vov0 + 1.0);
            let c = a * vov0 * vov0;
            let disc = (bq * bq - 4.0 * a * c).max(0.0).sqrt();
            Amps(((-bq - disc) / (2.0 * a) / r).max(0.0))
        };
        match b.design {
            BlockDesign::Serial => stack(b.bias.vgs0, 1).min(stack(b.bias.vgs1(), 3)),
            _ => stack(b.bias.vgs0, 1.min(b.transistor_count() - 1)),
        }
    }

    #[test]
    fn hoisted_inverse_is_bitwise_the_per_call_inverse() {
        use rand::Rng;
        let mut rng = crate::montecarlo::stream(0xB17, 0);
        for temp in [Celsius(-20.0), Celsius::NOMINAL, Celsius(80.0)] {
            for d in designs() {
                for bias in [BlockBias::INPUT_ONE, BlockBias::INPUT_ZERO] {
                    for _ in 0..250 {
                        let variation = BlockVariation {
                            delta_vth: std::array::from_fn(|_| Volts(rng.gen_range(-0.1..0.1))),
                        };
                        let b = BuildingBlock::new(d, bias).with_variation(variation);
                        let cap = b.saturation_current(temp);
                        assert_eq!(
                            cap.value().to_bits(),
                            reference_capacity(&b, temp).value().to_bits(),
                            "{b:?} at {temp:?}"
                        );
                        for _ in 0..8 {
                            // non-positive, sub-knee and far past capacity
                            let i = match rng.gen_range(0..4) {
                                0 => -rng.gen_range(0.0..1e-6),
                                1 => 0.0,
                                _ => 10f64.powf(rng.gen_range(-13.0..-4.0)),
                            };
                            assert_eq!(
                                b.voltage_for_current(Amps(i), temp).value().to_bits(),
                                reference_inverse(&b, Amps(i), temp).value().to_bits(),
                                "{b:?} at {i} A, {temp:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`newton_root`] for `b` from `seed`, with every point it evaluates
    /// and the inverse there, in order.
    fn traced_newton(b: &BuildingBlock, dv: f64, seed: f64, temp: Celsius) -> Traced {
        let t = b.temp_terms(temp);
        let mut points = Vec::new();
        let root = newton_root(dv, seed, b.inverse_at(seed, &t), |i| {
            let at = b.inverse_at(i, &t);
            points.push((i, at.v));
            at
        });
        (root, points)
    }

    type Traced = (Option<f64>, Vec<(f64, f64)>);

    /// Replays a traced root-find's bracket from its seed and asserts that
    /// each evaluation lay strictly inside the bracket known before it.
    fn assert_evaluations_inside_the_bracket(dv: f64, seed: (f64, f64), points: &[(f64, f64)]) {
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        for (k, &(x, v)) in std::iter::once(&seed).chain(points).enumerate() {
            if k > 0 {
                assert!(lo < x && x < hi, "evaluation {k} at {x} outside ({lo}, {hi})");
            }
            if v < dv {
                lo = x;
            } else {
                hi = x;
            }
        }
    }

    fn assert_close(seeded: f64, cold: f64, rel: f64, what: &str) {
        assert!((seeded - cold).abs() <= rel * cold.abs(), "{what}: {seeded} vs cold {cold}");
    }

    #[test]
    fn seeded_solve_that_reaches_its_evaluation_cap_falls_back_to_cold() {
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let t = b.temp_terms(T);
        let dv = 1.0;
        let cold = b.solve_cold(dv, &t);
        // 30 decades past the wall only bisection comes back, ≈ 100 halvings
        let far = cold * 1e30;
        let (root, points) = traced_newton(&b, dv, far, T);
        assert_eq!((root, points.len()), (None, NEWTON_MAX_EVALS));
        let seeded = b.current_seeded(Volts(dv), Amps(far), T).value();
        assert_eq!(seeded.to_bits(), cold.to_bits(), "{seeded} vs cold {cold}");
        // 30 decades below the root is as good as 0 A, which Newton leaves
        // along the finite slope V′(0): no fallback needed
        let (root, points) = traced_newton(&b, dv, cold * 1e-30, T);
        assert!(points.len() < NEWTON_MAX_EVALS, "{} evaluations", points.len());
        assert_close(root.expect("converges"), cold, 1e-12, "seeded far below");
    }

    #[test]
    fn newton_step_that_leaves_the_bracket_bisects_instead() {
        // above the root in the diode's concave region, Newton's step
        // overshoots below 0 A
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let t = b.temp_terms(T);
        let (dv, seed) = (0.02, 5e-9);
        let CurvePoint { v, slope, .. } = b.inverse_at(seed, &t);
        assert!(v > dv && seed - (v - dv) / slope < 0.0, "Newton's first step leaves [0, seed]");
        let (root, points) = traced_newton(&b, dv, seed, T);
        assert_eq!(points[0].0, 0.5 * seed, "the first step bisects [0, seed]");
        assert_evaluations_inside_the_bracket(dv, (seed, v), &points);
        assert_close(root.expect("converges"), b.solve_cold(dv, &t), 1e-12, "seeded above");
    }

    #[test]
    fn step_after_an_evaluation_past_the_wall_bisects() {
        // from just below the 1 V root Newton's step lands past the wall,
        // where V = ∞ leaves no slope to step from
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let t = b.temp_terms(T);
        let dv = 1.0;
        let cold = b.solve_cold(dv, &t);
        let seed = cold * 0.999;
        let v_seed = b.inverse_at(seed, &t).v;
        let (root, points) = traced_newton(&b, dv, seed, T);
        assert_eq!(points[0].1, f64::INFINITY, "the first step lands past the wall");
        assert_eq!(points[1].0, 0.5 * (seed + points[0].0), "the next step bisects");
        assert_evaluations_inside_the_bracket(dv, (seed, v_seed), &points);
        assert_close(root.expect("converges"), cold, 1e-12, "seeded below the wall");
    }

    #[test]
    fn cutoff_stack_seeded_at_zero_closes_its_bracket_at_zero() {
        // a cutoff stack leaves 0 A vertically: the zero Newton step is
        // lengthened to a probe that lands past the wall, so the bracket
        // closes at 0 A after one evaluation
        let b = BuildingBlock::new(
            BlockDesign::Serial,
            BlockBias { vgs0: Volts(0.1), vb: Volts(0.1), vc: Volts(1.2) },
        )
        .with_variation(BlockVariation::uniform(Volts(0.3)));
        let t = b.temp_terms(T);
        let at_zero = b.inverse_at(0.0, &t);
        assert_eq!((at_zero.v, at_zero.slope), (0.0, f64::INFINITY));
        let (root, points) = traced_newton(&b, 2.0, 0.0, T);
        assert_eq!((root, points.len()), (Some(0.0), 1));
        assert_eq!(points[0].1, f64::INFINITY);
        let seeded = b.current_seeded(Volts(2.0), Amps(0.0), T).value();
        assert_eq!(seeded.to_bits(), b.solve_cold(2.0, &t).to_bits());
        // with no slope that is a number and no upper end there is
        // nothing to step to or bisect: the caller solves cold
        let no_slope = CurvePoint { slope: f64::NAN, ..at_zero };
        assert_eq!(newton_root(2.0, 0.0, no_slope, |_| unreachable!()), None);
    }

    /// Random paper blocks (σ = 35 mV) under both biases at three
    /// temperatures, with `dv` drawn over the crossbar's range.
    fn paper_block_cases(seed: u64, per_case: usize) -> Vec<(BuildingBlock, Celsius, f64)> {
        use rand::Rng;
        let mut rng = crate::montecarlo::stream(seed, 0);
        let mut cases = Vec::new();
        for temp in [Celsius(-20.0), Celsius::NOMINAL, Celsius(80.0)] {
            for bias in [BlockBias::INPUT_ONE, BlockBias::INPUT_ZERO] {
                for _ in 0..per_case {
                    let variation = BlockVariation {
                        delta_vth: std::array::from_fn(|_| {
                            let (u, w): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
                            let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * w).cos();
                            Volts(0.035 * z)
                        }),
                    };
                    let b = BuildingBlock::new(BlockDesign::Serial, bias).with_variation(variation);
                    cases.push((b, temp, rng.gen_range(-0.3..2.4)));
                }
            }
        }
        cases
    }

    #[test]
    fn seeded_solves_and_secants_agree_with_cold_ones() {
        let h = 1e-4;
        for (b, temp, dv) in paper_block_cases(0x5EED, 40) {
            let t = b.temp_terms(temp);
            let cold = b.current(Volts(dv), temp).value();
            let above = b.current(Volts(dv + 0.5), temp).value();
            let past_wall = 1e-5;
            assert_eq!(b.inverse_at(past_wall, &t).v, f64::INFINITY, "{b:?}");
            for seed in [0.0, cold * 1e-30, above, past_wall] {
                let seeded = b.current_seeded(Volts(dv), Amps(seed), temp).value();
                assert_close(seeded, cold, 1e-9, &format!("{b:?} at {dv} V from {seed}"));
            }
            if cold >= 1e-12 {
                let secant = b.conductance_with_current(Volts(dv), Amps(cold), temp);
                let cold_secant = (b.current(Volts(dv + h), temp).value()
                    - b.current(Volts(dv - h), temp).value())
                    / (2.0 * h);
                assert_close(secant, cold_secant, 1e-5, &format!("{b:?} secant at {dv} V"));
            }
        }
    }

    #[test]
    fn slope_evaluation_is_the_inverse_and_its_derivative() {
        use rand::Rng;
        let mut rng = crate::montecarlo::stream(0x510, 0);
        for (b, temp, _) in paper_block_cases(0x51, 25) {
            let t = b.temp_terms(temp);
            for _ in 0..8 {
                let i = 10f64.powf(rng.gen_range(-14.0..-6.5));
                let CurvePoint { v, slope, .. } = b.inverse_at(i, &t);
                // the Newton path solves the very curve the cold one does
                assert_eq!(v.to_bits(), b.voltage_at(Amps(i), &t).value().to_bits(), "{b:?}");
                if !v.is_finite() {
                    continue;
                }
                // one-sided difference quotients that agree see no kink (a
                // transistor's triode/saturation boundary) in the window
                let d = i * 1e-5;
                let v_at = |x: f64| b.voltage_at(Amps(x), &t).value();
                let (left, right) = ((v - v_at(i - d)) / d, (v_at(i + d) - v) / d);
                if (right - left).abs() > 1e-3 * left.abs() {
                    continue;
                }
                let central = 0.5 * (left + right);
                assert!(
                    (slope / central - 1.0).abs() < 1e-4,
                    "{b:?} at {i} A: {slope} vs {central}"
                );
            }
        }
    }

    #[test]
    fn temperature_shifts_current() {
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let cold = b.current(Volts(1.6), Celsius(-20.0)).value();
        let hot = b.current(Volts(1.6), Celsius(80.0)).value();
        assert!(cold != hot, "temperature must matter: {cold} vs {hot}");
    }
}
