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
//! element inverses. The forward curve `I(ΔV)` is a bracketed root-find
//! on `I` — the bracket is seeded at the stack's ideal saturation current
//! (the knee of the curve) and tightened with the Illinois variant of
//! regula falsi, falling back to plain bisection whenever an interpolated
//! step degenerates. That keeps the bisection's robustness on arbitrarily
//! stiff stacks (no Newton blow-ups on the nearly-flat saturation region)
//! at a fraction of the inverse-curve evaluations. The small-signal
//! conductance comes from the inverse derivative, `g = 1 / V′(I)`, so it
//! costs two closed-form probes instead of two extra forward root-finds.

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
    /// implementations whose two evaluations share work (a root-find, a
    /// table segment lookup) override this to pay for that work once. The
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

/// References to elements are elements too, so a [`Circuit`] can borrow
/// its edge curves from a shared per-device table cache instead of owning
/// (and re-tabulating) them per challenge.
///
/// [`Circuit`]: crate::solver::Circuit
impl<T: TwoTerminal + ?Sized> TwoTerminal for &T {
    fn current(&self, dv: Volts, temp: Celsius) -> Amps {
        (**self).current(dv, temp)
    }

    fn conductance(&self, dv: Volts, temp: Celsius) -> f64 {
        (**self).conductance(dv, temp)
    }

    fn current_and_conductance(&self, dv: Volts, temp: Celsius) -> (Amps, f64) {
        (**self).current_and_conductance(dv, temp)
    }

    fn conductance_with_current(&self, dv: Volts, current: Amps, temp: Celsius) -> f64 {
        (**self).conductance_with_current(dv, current, temp)
    }

    fn current_seeded(&self, dv: Volts, seed: Amps, temp: Celsius) -> Amps {
        (**self).current_seeded(dv, seed, temp)
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

/// The terms of a block's inverse curve that depend only on temperature:
/// the diodes' thermal voltage, the card's `k_eff` and each transistor's
/// threshold. A forward root-find evaluates the inverse ≈ 15 times at one
/// temperature, so it evaluates these once (a square root and a division
/// among them).
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
    pub(crate) fn temp_terms(&self, temp: Celsius) -> TempTerms {
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
    pub(crate) fn voltage_at(&self, i: Amps, t: &TempTerms) -> Volts {
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
    /// shrink it superlinearly: ~15 inverse evaluations instead of the
    /// ~90 the doubling-plus-bisection scheme needed.
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
        let i = 0.5 * (lo + hi);
        // a cutoff stack brackets at an infinitesimal current; report 0
        if i < 1e-18 {
            0.0
        } else {
            i
        }
    }

    /// Forward curve `I(dv)` when the current `near` at a nearby voltage
    /// is already known — e.g. the ±0.1 mV probes of the conductance
    /// secant, where the diode bound `d(ln I)/dV ≤ 1/(2·n·Vt)` keeps the
    /// root within a fraction of a percent of the seed. Brackets by
    /// geometric expansion around the seed (falling back to the cold
    /// solve if the expansion fails to bracket) and refines with the same
    /// Illinois loop, so accuracy matches [`solve_current`] at a fraction
    /// of the evaluations.
    ///
    /// [`solve_current`]: Self::solve_current
    fn solve_current_near(&self, dv: f64, near: f64, temp: Celsius) -> f64 {
        if dv <= 0.0 {
            return 0.0;
        }
        let t = self.temp_terms(temp);
        if near <= 0.0 {
            return self.solve_cold(dv, &t);
        }
        let v_near = self.voltage_at(Amps(near), &t).value();
        self.solve_current_anchored(dv, near, v_near, &t)
    }

    /// [`solve_current_near`] with the seed's inverse voltage `v_near`
    /// already evaluated — the conductance secant probes two targets from
    /// one seed and shares this evaluation between them.
    ///
    /// [`solve_current_near`]: Self::solve_current_near
    fn solve_current_anchored(&self, dv: f64, near: f64, v_near: f64, t: &TempTerms) -> f64 {
        if dv <= 0.0 {
            return 0.0;
        }
        if near <= 0.0 || !v_near.is_finite() {
            return self.solve_cold(dv, t);
        }
        let f_near = v_near - dv;
        if f_near == 0.0 {
            return near;
        }
        let (mut lo, mut f_lo, mut hi, mut f_hi);
        if f_near < 0.0 {
            // root above the seed
            lo = near;
            f_lo = f_near;
            let mut step = 1.01;
            loop {
                hi = lo * step;
                f_hi = self.voltage_at(Amps(hi), t).value() - dv;
                if f_hi >= 0.0 {
                    break;
                }
                lo = hi;
                f_lo = f_hi;
                step *= 4.0;
                if step > 1e6 {
                    return self.solve_cold(dv, t);
                }
            }
        } else {
            // root below the seed
            hi = near;
            f_hi = f_near;
            let mut step = 1.01;
            loop {
                lo = hi / step;
                f_lo = self.voltage_at(Amps(lo), t).value() - dv;
                if f_lo <= 0.0 {
                    break;
                }
                if lo < 1e-24 {
                    // root is below any physical current
                    lo = 0.0;
                    f_lo = -dv;
                    break;
                }
                hi = lo;
                f_hi = f_lo;
                step *= 4.0;
            }
        }
        self.illinois_refine(lo, f_lo, hi, f_hi, dv, t)
    }

    /// Small-signal conductance from the inverse derivative: `g = 1/V′(i)`
    /// with `V′` a central difference of the closed-form inverse curve.
    ///
    /// Two closed-form probes — no forward root-find — giving the *true*
    /// slope of the composite curve at the operating point. Note the DC
    /// Jacobian deliberately does **not** use this: past the diode knee
    /// the true slope collapses toward the λ-suppressed saturation slope
    /// (~1e-14 S) while the solver's ±0.1 mV secant stays decades larger,
    /// and that smoothing is what keeps damped Newton's line search
    /// descending across the knee. Returns 0 for a non-conducting
    /// operating point (`i ≤ 0`).
    pub fn conductance_at_current(&self, i: Amps, temp: Celsius) -> f64 {
        let i = i.value();
        if i <= 0.0 {
            return 0.0;
        }
        let h = i * 1e-7;
        let t = self.temp_terms(temp);
        let vp = self.voltage_at(Amps(i + h), &t).value();
        let vm = self.voltage_at(Amps(i - h), &t).value();
        if !vp.is_finite() || !vm.is_finite() || vp <= vm {
            return 0.0;
        }
        (2.0 * h) / (vp - vm)
    }

    /// The ±0.1 mV window secant `(I(dv+h) − I(dv−h)) / 2h` the trait's
    /// default conductance computes, with both endpoint root-finds seeded
    /// from the known `current` at `dv` — a handful of closed-form
    /// evaluations instead of two cold root-finds.
    fn conductance_secant(&self, dv: Volts, current: Amps, temp: Celsius) -> f64 {
        let dv = dv.value();
        let h = 1e-4;
        let seed = current.value();
        if seed <= 0.0 {
            let i_hi = self.solve_current(Volts(dv + h), temp).value();
            let i_lo = self.solve_current(Volts(dv - h), temp).value();
            return ((i_hi - i_lo) / (2.0 * h)).max(0.0);
        }
        let t = self.temp_terms(temp);
        let v_seed = self.voltage_at(Amps(seed), &t).value();
        let i_hi = self.solve_current_anchored(dv + h, seed, v_seed, &t);
        let i_lo = self.solve_current_anchored(dv - h, seed, v_seed, &t);
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
        Amps(self.solve_current_near(dv.value(), seed.value(), temp))
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

    #[test]
    fn anchored_solve_seeded_far_below_the_root_falls_back_to_cold() {
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let t = b.temp_terms(T);
        let dv = 1.0;
        let cold = b.solve_cold(dv, &t);
        // the upward expansion multiplies its seed by 1.01·4^0·…·1.01·4^9
        // ≈ 1.4e27 before its step passes the 1e6 cap, so a seed 30
        // decades below the root never brackets it
        let near = cold * 1e-30;
        let v_near = b.voltage_at(Amps(near), &t).value();
        assert!(v_near.is_finite() && v_near < dv, "the root lies above the seed: {v_near}");
        let anchored = b.solve_current_anchored(dv, near, v_near, &t);
        assert_eq!(anchored.to_bits(), cold.to_bits(), "{anchored} vs cold {cold}");
    }

    #[test]
    fn temperature_shifts_current() {
        let b = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let cold = b.current(Volts(1.6), Celsius(-20.0)).value();
        let hot = b.current(Volts(1.6), Celsius(80.0)).value();
        assert!(cold != hot, "temperature must matter: {cold} vs {hot}");
    }
}
