//! Ideal-exponential junction diode.
//!
//! The PPUF building block (paper Fig 2) places a diode at each end of the
//! transistor stack so current through an edge can only flow in the edge's
//! direction — this is what makes every crossbar block a *directed* edge
//! and gives the flow function its `f(e) ≥ 0` constraint.

use serde::{Deserialize, Serialize};

use crate::units::{Amps, Celsius, Volts};

/// Boltzmann constant over elementary charge, V/K.
const K_OVER_Q: f64 = 8.617_333e-5;

/// A junction diode following the Shockley equation
/// `I = I_s (e^{V/(n·V_T)} − 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Diode {
    /// Reverse saturation current `I_s`.
    pub saturation_current: Amps,
    /// Ideality factor `n` (1…2).
    pub ideality: f64,
}

impl Default for Diode {
    fn default() -> Self {
        // I_s = 1 nA: ~0.09 V drop at the PPUF's ~30 nA operating current,
        // keeping the two series diodes cheap inside the 2 V budget
        Diode { saturation_current: Amps(1e-9), ideality: 1.0 }
    }
}

impl Diode {
    /// Creates a diode with the default junction parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Thermal voltage `n·V_T` at `temp`.
    pub fn thermal_voltage(&self, temp: Celsius) -> Volts {
        Volts(self.ideality * K_OVER_Q * temp.kelvin())
    }

    /// Forward current at voltage `v`.
    ///
    /// The exponent is clamped at 60 to keep the solver's residuals finite
    /// on wild Newton iterates; at clamp the current is ~10¹⁴ A, far past
    /// anything a feasible operating point reaches.
    pub fn current(&self, v: Volts, temp: Celsius) -> Amps {
        let vt = self.thermal_voltage(temp).value();
        let x = (v.value() / vt).min(60.0);
        Amps(self.saturation_current.value() * (x.exp() - 1.0))
    }

    /// Inverse curve: forward voltage needed to carry current `i`.
    ///
    /// Returns 0 V for non-positive currents (the block never conducts in
    /// reverse thanks to the series transistor stack).
    pub fn voltage_for_current(&self, i: Amps, temp: Celsius) -> Volts {
        self.voltage_for_current_vt(i, self.thermal_voltage(temp))
    }

    /// [`voltage_for_current`](Self::voltage_for_current) at an already
    /// evaluated thermal voltage `vt`.
    pub(crate) fn voltage_for_current_vt(&self, i: Amps, vt: Volts) -> Volts {
        if i.value() <= 0.0 {
            return Volts(0.0);
        }
        Volts(vt.value() * (1.0 + i.value() / self.saturation_current.value()).ln())
    }

    /// Small-signal conductance `∂I/∂V` at voltage `v`.
    pub fn conductance(&self, v: Volts, temp: Celsius) -> f64 {
        let vt = self.thermal_voltage(temp).value();
        let x = (v.value() / vt).min(60.0);
        self.saturation_current.value() * x.exp() / vt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Celsius = Celsius::NOMINAL;

    #[test]
    fn zero_bias_zero_current() {
        let d = Diode::new();
        assert_eq!(d.current(Volts(0.0), T), Amps(0.0));
    }

    #[test]
    fn reverse_bias_blocks() {
        let d = Diode::new();
        let i = d.current(Volts(-1.0), T).value();
        // reverse leakage bounded by I_s
        assert!(i < 0.0 && i.abs() <= d.saturation_current.value() * 1.0001);
    }

    #[test]
    fn forward_drop_under_tenth_volt_at_nanoamps() {
        let d = Diode::new();
        let v = d.voltage_for_current(Amps(31e-9), T).value();
        assert!((0.05..0.15).contains(&v), "drop {v}");
    }

    #[test]
    fn inverse_matches_forward() {
        let d = Diode::new();
        for &v in &[0.05, 0.1, 0.2, 0.3, 0.4] {
            let i = d.current(Volts(v), T);
            let back = d.voltage_for_current(i, T).value();
            assert!((back - v).abs() < 1e-9, "v {v} → {back}");
        }
    }

    #[test]
    fn monotone_in_voltage() {
        let d = Diode::new();
        let mut prev = f64::NEG_INFINITY;
        for step in 0..100 {
            let i = d.current(Volts(step as f64 * 0.005), T).value();
            assert!(i > prev);
            prev = i;
        }
    }

    #[test]
    fn conductance_is_slope() {
        let d = Diode::new();
        let v = Volts(0.25);
        let h = 1e-7;
        let numeric = (d.current(Volts(v.value() + h), T).value()
            - d.current(Volts(v.value() - h), T).value())
            / (2.0 * h);
        let analytic = d.conductance(v, T);
        assert!((numeric / analytic - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clamp_keeps_current_finite() {
        let d = Diode::new();
        assert!(d.current(Volts(100.0), T).is_finite());
    }

    #[test]
    fn thermal_voltage_scales_with_temperature() {
        let d = Diode::new();
        assert!(d.thermal_voltage(Celsius(80.0)) > d.thermal_voltage(Celsius(-20.0)));
        let vt25 = d.thermal_voltage(T).value();
        assert!((vt25 - 0.0257).abs() < 1e-3);
    }
}
