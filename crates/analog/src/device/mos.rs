//! Square-law NMOS model with channel-length modulation.
//!
//! The paper's building block fights one device non-ideality: in deep
//! sub-micron nodes (their 32 nm PTM) the *saturation* current still rises
//! with `V_ds` because of channel-length modulation and other short-channel
//! effects (SCE). We model that residual slope with the classic `λ`
//! parameter — the single knob the source-degeneration analysis (and
//! Requirement 2's 130× margin) actually depends on:
//!
//! - triode  (`V_ds < V_ov`):  `I = k (V_ov V_ds − V_ds²/2)`
//! - saturation (`V_ds ≥ V_ov`): `I = (k/2) V_ov² · (1 + λ (V_ds − V_ov))`
//!
//! which is continuous at `V_ds = V_ov` and strictly increasing in `V_ds`
//! whenever `λ > 0` — the *incremental passivity* property the paper's
//! equivalence proof requires.
//!
//! Temperature handling follows first-order silicon behaviour: threshold
//! voltage falls ~1 mV/°C and mobility falls as `(T/T₀)^{-1.5}`.

use serde::{Deserialize, Serialize};

use crate::units::{Amps, Celsius, Volts};

/// Parameters of one NMOS transistor instance.
///
/// `delta_vth` carries this particular device's process variation (sampled
/// by [`crate::variation::ProcessVariation`]); everything else is the
/// shared technology card.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosTransistor {
    /// Nominal threshold voltage at 25 °C.
    pub vth0: Volts,
    /// Transconductance factor `k = µ·C_ox·W/L` in A/V².
    pub k: f64,
    /// Channel-length-modulation coefficient `λ` in 1/V (the SCE knob).
    pub lambda: f64,
    /// This device's threshold-voltage shift from process variation.
    pub delta_vth: Volts,
    /// Threshold temperature coefficient in V/°C (positive number;
    /// `V_th` decreases by this much per degree above 25 °C).
    pub vth_tempco: f64,
}

/// 32 nm-class technology card calibrated to the paper's operating point
/// (per-edge saturation current ≈ tens of nA at `V_ov` = 0.1 V, sharp
/// enough that a block saturates well inside the 2 V supply so every hop
/// of a two-edge path can reach its capacity).
impl Default for MosTransistor {
    fn default() -> Self {
        MosTransistor {
            vth0: Volts(0.40),
            k: 1.3e-5,
            lambda: 0.30,
            delta_vth: Volts(0.0),
            vth_tempco: 1.0e-3,
        }
    }
}

impl MosTransistor {
    /// Creates a nominal device from the default technology card.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of this device with the given variation shift.
    pub fn with_delta_vth(mut self, delta: Volts) -> Self {
        self.delta_vth = delta;
        self
    }

    /// Effective threshold voltage at temperature `temp` including process
    /// variation.
    pub fn vth(&self, temp: Celsius) -> Volts {
        Volts(self.vth0.value() + self.delta_vth.value() - self.vth_tempco * (temp.value() - 25.0))
    }

    /// Effective transconductance factor at `temp` (mobility degradation
    /// `∝ (T/T₀)^{-1.5}`).
    pub fn k_eff(&self, temp: Celsius) -> f64 {
        // x^(-1.5) as 1/(x·√x): this sits on the inverse-curve hot path,
        // where `powf` would be the only transcendental per transistor
        let x = temp.kelvin() / Celsius::NOMINAL.kelvin();
        self.k / (x * x.sqrt())
    }

    /// Overdrive voltage `V_gs − V_th` at `temp` (may be negative: cutoff).
    pub fn overdrive(&self, vgs: Volts, temp: Celsius) -> Volts {
        vgs - self.vth(temp)
    }

    /// Drain current at the given biases.
    ///
    /// Returns 0 A in cutoff (`V_gs ≤ V_th`) or for `V_ds ≤ 0`; the diodes
    /// in the PPUF block make reverse conduction impossible, so the model
    /// does not need a reverse region.
    pub fn drain_current(&self, vgs: Volts, vds: Volts, temp: Celsius) -> Amps {
        let vov = self.overdrive(vgs, temp).value();
        let vds = vds.value();
        if vov <= 0.0 || vds <= 0.0 {
            return Amps(0.0);
        }
        let k = self.k_eff(temp);
        let i = if vds < vov {
            k * (vov * vds - vds * vds / 2.0)
        } else {
            0.5 * k * vov * vov * (1.0 + self.lambda * (vds - vov))
        };
        Amps(i)
    }

    /// The ideal (λ-free) saturation current `k/2 · V_ov²`.
    ///
    /// This is what the *public model* publishes as the edge capacity; the
    /// difference between it and the actual operating current is the
    /// simulation-model inaccuracy measured in Fig 6.
    pub fn saturation_current(&self, vgs: Volts, temp: Celsius) -> Amps {
        let vov = self.overdrive(vgs, temp).value();
        if vov <= 0.0 {
            return Amps(0.0);
        }
        Amps(0.5 * self.k_eff(temp) * vov * vov)
    }

    /// Inverse curve: the `V_ds` required to carry drain current `i` at
    /// gate bias `vgs`.
    ///
    /// Returns `None` if the device cannot carry `i` at any `V_ds` — only
    /// possible for `λ = 0` or cutoff; with `λ > 0` the saturation current
    /// keeps (slowly) growing, so any finite current has a finite answer.
    ///
    /// Monotone in `i`, exact inverse of [`drain_current`]
    /// (verified by property test).
    ///
    /// [`drain_current`]: MosTransistor::drain_current
    pub fn vds_for_current(&self, i: Amps, vgs: Volts, temp: Celsius) -> Option<Volts> {
        self.vds_for_overdrive(i, self.overdrive(vgs, temp), self.k_eff(temp))
    }

    /// [`vds_for_current`](Self::vds_for_current) with its temperature
    /// terms already evaluated: the overdrive `vov` and `k = k_eff(T)`.
    pub(crate) fn vds_for_overdrive(&self, i: Amps, vov: Volts, k: f64) -> Option<Volts> {
        let i = i.value();
        if i <= 0.0 {
            return Some(Volts(0.0));
        }
        let vov = vov.value();
        if vov <= 0.0 {
            return None;
        }
        let isat = 0.5 * k * vov * vov;
        if i < isat {
            // triode: k(vov·v − v²/2) = i  →  v = vov − sqrt(vov² − 2i/k)
            let disc = vov * vov - 2.0 * i / k;
            Some(Volts(vov - disc.max(0.0).sqrt()))
        } else if self.lambda > 0.0 {
            // saturation with λ slope
            Some(Volts(vov + (i / isat - 1.0) / self.lambda))
        } else if i == isat {
            Some(Volts(vov))
        } else {
            None
        }
    }

    /// Small-signal output conductance `∂I_d/∂V_ds` at the bias point.
    pub fn output_conductance(&self, vgs: Volts, vds: Volts, temp: Celsius) -> f64 {
        let vov = self.overdrive(vgs, temp).value();
        let vds = vds.value();
        if vov <= 0.0 || vds < 0.0 {
            return 0.0;
        }
        let k = self.k_eff(temp);
        if vds < vov {
            k * (vov - vds)
        } else {
            0.5 * k * vov * vov * self.lambda
        }
    }

    /// Small-signal transconductance `∂I_d/∂V_gs` at the bias point.
    pub fn transconductance(&self, vgs: Volts, vds: Volts, temp: Celsius) -> f64 {
        let vov = self.overdrive(vgs, temp).value();
        let vds = vds.value();
        if vov <= 0.0 || vds <= 0.0 {
            return 0.0;
        }
        let k = self.k_eff(temp);
        if vds < vov {
            k * vds
        } else {
            k * vov * (1.0 + self.lambda * (vds - vov))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Celsius = Celsius::NOMINAL;

    #[test]
    fn cutoff_carries_no_current() {
        let m = MosTransistor::new();
        assert_eq!(m.drain_current(Volts(0.2), Volts(1.0), T), Amps(0.0));
        assert_eq!(m.drain_current(Volts(0.5), Volts(0.0), T), Amps(0.0));
        assert_eq!(m.drain_current(Volts(0.5), Volts(-0.5), T), Amps(0.0));
    }

    #[test]
    fn nominal_saturation_current_near_65na() {
        let m = MosTransistor::new();
        // vov = 0.5 - 0.4 = 0.1 → I = 0.5·1.3e-5·0.01 = 65 nA
        let i = m.saturation_current(Volts(0.5), T);
        assert!((i.value() - 65e-9).abs() < 1e-12, "{i}");
    }

    #[test]
    fn continuous_at_pinchoff() {
        let m = MosTransistor::new();
        let vov = 0.1;
        let below = m.drain_current(Volts(0.5), Volts(vov - 1e-9), T).value();
        let above = m.drain_current(Volts(0.5), Volts(vov + 1e-9), T).value();
        assert!((below - above).abs() < 1e-15);
    }

    #[test]
    fn strictly_monotone_in_vds() {
        let m = MosTransistor::new();
        let mut prev = -1.0;
        for step in 0..200 {
            let vds = Volts(step as f64 * 0.01);
            let i = m.drain_current(Volts(0.5), vds, T).value();
            assert!(i >= prev, "non-monotone at {vds:?}");
            if vds.value() > 0.0 {
                assert!(i > prev, "flat at {vds:?} (needs λ > 0)");
            }
            prev = i;
        }
    }

    #[test]
    fn lambda_gives_finite_slope_in_saturation() {
        let m = MosTransistor::new();
        let i1 = m.drain_current(Volts(0.5), Volts(1.0), T).value();
        let i2 = m.drain_current(Volts(0.5), Volts(2.0), T).value();
        let isat = m.saturation_current(Volts(0.5), T).value();
        // λ = 0.3 → ~30 %/V residual slope
        assert!((i2 - i1) / isat > 0.25 && (i2 - i1) / isat < 0.35);
    }

    #[test]
    fn inverse_matches_forward() {
        let m = MosTransistor::new();
        for &vds in &[0.03, 0.05, 0.09, 0.1, 0.5, 1.0, 1.8] {
            let i = m.drain_current(Volts(0.5), Volts(vds), T);
            let back = m.vds_for_current(i, Volts(0.5), T).unwrap();
            assert!(
                (back.value() - vds).abs() < 1e-9,
                "vds {vds} → i {} → vds {}",
                i.value(),
                back.value()
            );
        }
    }

    #[test]
    fn inverse_edge_cases() {
        let m = MosTransistor::new();
        assert_eq!(m.vds_for_current(Amps(0.0), Volts(0.5), T), Some(Volts(0.0)));
        assert_eq!(m.vds_for_current(Amps(1e-9), Volts(0.2), T), None);
        let zero_lambda = MosTransistor { lambda: 0.0, ..MosTransistor::new() };
        let isat = zero_lambda.saturation_current(Volts(0.5), T);
        assert!(zero_lambda.vds_for_current(isat * 2.0, Volts(0.5), T).is_none());
        assert!(zero_lambda.vds_for_current(isat, Volts(0.5), T).is_some());
    }

    #[test]
    fn delta_vth_shifts_current() {
        let fast = MosTransistor::new().with_delta_vth(Volts(-0.035));
        let slow = MosTransistor::new().with_delta_vth(Volts(0.035));
        let nom = MosTransistor::new();
        let i_fast = fast.saturation_current(Volts(0.5), T).value();
        let i_slow = slow.saturation_current(Volts(0.5), T).value();
        let i_nom = nom.saturation_current(Volts(0.5), T).value();
        assert!(i_fast > i_nom && i_nom > i_slow);
        // ±35 mV on 100 mV overdrive ≈ +82 % / −58 % current swing
        assert!((i_fast / i_nom - 1.0) > 0.5);
    }

    #[test]
    fn temperature_dependence() {
        let m = MosTransistor::new();
        // hot: lower vth (more overdrive) but lower mobility
        let hot_vth = m.vth(Celsius(80.0)).value();
        let cold_vth = m.vth(Celsius(-20.0)).value();
        assert!(hot_vth < cold_vth);
        assert!(m.k_eff(Celsius(80.0)) < m.k_eff(Celsius(-20.0)));
    }

    #[test]
    fn conductances_positive_when_on() {
        let m = MosTransistor::new();
        assert!(m.output_conductance(Volts(0.5), Volts(1.0), T) > 0.0);
        assert!(m.output_conductance(Volts(0.5), Volts(0.1), T) > 0.0);
        assert!(m.transconductance(Volts(0.5), Volts(1.0), T) > 0.0);
        assert_eq!(m.output_conductance(Volts(0.1), Volts(1.0), T), 0.0);
    }
}
