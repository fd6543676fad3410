//! Fast tabulated element curves.
//!
//! A crossbar DC solve evaluates every edge's I–V curve hundreds of times
//! (Newton iterations × line-search probes). [`TabulatedElement`] samples a
//! [`TwoTerminal`]'s *inverse* curve once — each sample is a closed-form
//! evaluation, no bisection — and then answers forward queries by binary
//! search + linear interpolation. Monotonicity (and hence incremental
//! passivity) is preserved exactly, and with the default 2048 samples the
//! interpolation error is below `I_max/2048 ≈ 0.05 %`, an order of
//! magnitude under the Fig 6 model-inaccuracy budget.

use serde::{Deserialize, Serialize};

use crate::block::{BuildingBlock, TwoTerminal};
use crate::units::{Amps, Celsius, Volts};

/// Default number of samples in a tabulated curve.
pub const DEFAULT_SAMPLES: usize = 2048;

/// A piecewise-linear, monotone I–V curve sampled from a source element at
/// a fixed temperature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TabulatedElement {
    /// Sample voltages, strictly increasing, starting at 0.
    v: Vec<f64>,
    /// Sample currents, non-decreasing, starting at 0.
    i: Vec<f64>,
    /// Temperature the table was built for.
    temp: Celsius,
}

impl TabulatedElement {
    /// Tabulates a building block over `[0, v_max]` using `samples` points
    /// of its closed-form inverse curve.
    ///
    /// The current grid is uniform (bounding the absolute interpolation
    /// error at one grid step), with the voltage at each current obtained
    /// from [`BuildingBlock::voltage_for_current`].
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2` or `v_max` is not positive.
    pub fn from_block(block: &BuildingBlock, v_max: Volts, samples: usize, temp: Celsius) -> Self {
        assert!(samples >= 2, "need at least two samples");
        assert!(v_max.value() > 0.0, "v_max must be positive");
        // current reached at v_max bounds the grid
        let i_max = block.current(v_max, temp).value();
        let terms = block.temp_terms(temp);
        let mut v = Vec::with_capacity(samples + 1);
        let mut i = Vec::with_capacity(samples + 1);
        v.push(0.0);
        i.push(0.0);
        if i_max > 0.0 {
            for k in 1..=samples {
                let ik = i_max * k as f64 / samples as f64;
                let vk = block.voltage_at(Amps(ik), &terms).value();
                if !vk.is_finite() {
                    break;
                }
                // enforce strict monotonicity against numerical ties
                if vk > *v.last().expect("table is non-empty") {
                    v.push(vk);
                    i.push(ik);
                }
            }
        }
        TabulatedElement { v, i, temp }
    }

    /// The temperature this table models.
    pub fn temperature(&self) -> Celsius {
        self.temp
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// `true` if the table holds only the origin (a fully cut-off block).
    pub fn is_empty(&self) -> bool {
        self.v.len() <= 1
    }

    /// Largest tabulated current (the effective capacity at `v_max`).
    pub fn max_current(&self) -> Amps {
        Amps(self.i.last().copied().unwrap_or(0.0))
    }

    /// Conductance at exactly zero bias, the curve's kink: the mean of its
    /// one-sided slopes (0 below, the first segment's above), as the
    /// trait's default `±h` secant reads it. A uniform start puts every
    /// edge between internal nodes here; reading 0 would drop them all
    /// from the first Newton Jacobian. Needs at least two samples.
    fn kink_conductance(&self) -> f64 {
        0.5 * (self.i[1] / self.v[1])
    }

    fn interpolate(&self, dv: f64) -> f64 {
        if dv <= 0.0 || self.v.len() < 2 {
            return 0.0;
        }
        let last = self.v.len() - 1;
        if dv >= self.v[last] {
            // extrapolate with the final segment's slope (the λ-suppressed
            // saturation slope), preserving monotonicity
            let slope = (self.i[last] - self.i[last - 1]) / (self.v[last] - self.v[last - 1]);
            return self.i[last] + slope * (dv - self.v[last]);
        }
        let idx = self.v.partition_point(|&x| x < dv);
        let (v0, v1) = (self.v[idx - 1], self.v[idx]);
        let (i0, i1) = (self.i[idx - 1], self.i[idx]);
        i0 + (i1 - i0) * (dv - v0) / (v1 - v0)
    }
}

impl TwoTerminal for TabulatedElement {
    fn current(&self, dv: Volts, _temp: Celsius) -> Amps {
        Amps(self.interpolate(dv.value()))
    }

    fn conductance(&self, dv: Volts, _temp: Celsius) -> f64 {
        let dv = dv.value();
        if dv < 0.0 || self.v.len() < 2 {
            return 0.0;
        }
        if dv == 0.0 {
            return self.kink_conductance();
        }
        let last = self.v.len() - 1;
        let idx = if dv >= self.v[last] { last } else { self.v.partition_point(|&x| x < dv) };
        (self.i[idx] - self.i[idx - 1]) / (self.v[idx] - self.v[idx - 1])
    }

    fn current_and_conductance(&self, dv: Volts, _temp: Celsius) -> (Amps, f64) {
        // one segment search answers both queries; the arithmetic mirrors
        // `interpolate` / `conductance` exactly so the fused path is
        // bitwise identical to two separate calls
        let dv = dv.value();
        if dv < 0.0 || self.v.len() < 2 {
            return (Amps(0.0), 0.0);
        }
        if dv == 0.0 {
            return (Amps(0.0), self.kink_conductance());
        }
        let last = self.v.len() - 1;
        if dv >= self.v[last] {
            let slope = (self.i[last] - self.i[last - 1]) / (self.v[last] - self.v[last - 1]);
            return (Amps(self.i[last] + slope * (dv - self.v[last])), slope);
        }
        let idx = self.v.partition_point(|&x| x < dv);
        let (v0, v1) = (self.v[idx - 1], self.v[idx]);
        let (i0, i1) = (self.i[idx - 1], self.i[idx]);
        (Amps(i0 + (i1 - i0) * (dv - v0) / (v1 - v0)), (i1 - i0) / (v1 - v0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockBias, BlockDesign, BlockVariation};

    const T: Celsius = Celsius::NOMINAL;

    fn table() -> (BuildingBlock, TabulatedElement) {
        let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
        let tab = TabulatedElement::from_block(&block, Volts(2.5), DEFAULT_SAMPLES, T);
        (block, tab)
    }

    #[test]
    fn matches_exact_curve_within_tenth_percent() {
        let (block, tab) = table();
        let i_max = tab.max_current().value();
        for step in 1..50 {
            let dv = Volts(step as f64 * 0.05);
            let exact = block.current(dv, T).value();
            let fast = tab.current(dv, T).value();
            assert!(
                (fast - exact).abs() <= i_max * 1.5e-3 + 1e-15,
                "dv {dv:?}: exact {exact} vs table {fast}"
            );
        }
    }

    #[test]
    fn zero_and_reverse_voltage() {
        let (_, tab) = table();
        assert_eq!(tab.current(Volts(0.0), T).value(), 0.0);
        assert_eq!(tab.current(Volts(-1.0), T).value(), 0.0);
    }

    #[test]
    fn monotone_including_extrapolation() {
        let (_, tab) = table();
        let mut prev = -1.0;
        for step in 0..80 {
            let i = tab.current(Volts(step as f64 * 0.05), T).value();
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn conductance_nonnegative_everywhere() {
        let (_, tab) = table();
        for step in 0..80 {
            assert!(tab.conductance(Volts(step as f64 * 0.05), T) >= 0.0);
        }
    }

    #[test]
    fn conductance_at_zero_bias_averages_the_kink() {
        let (_, tab) = table();
        let above = tab.conductance(Volts(1e-12), T);
        assert!(above > 0.0);
        assert_eq!(tab.conductance(Volts(0.0), T), 0.5 * above);
        assert_eq!(tab.conductance(Volts(-1e-12), T), 0.0);
    }

    #[test]
    fn fused_evaluation_matches_separate_calls() {
        let (_, tab) = table();
        for step in 0..80 {
            let dv = Volts(step as f64 * 0.05);
            let (i, g) = tab.current_and_conductance(dv, T);
            assert_eq!(i.value(), tab.current(dv, T).value(), "dv {dv:?}");
            assert_eq!(g, tab.conductance(dv, T), "dv {dv:?}");
        }
    }

    #[test]
    fn cutoff_block_yields_empty_table() {
        let dead = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE)
            .with_variation(BlockVariation::uniform(Volts(0.5)));
        let tab = TabulatedElement::from_block(&dead, Volts(2.5), 64, T);
        assert!(tab.is_empty());
        assert_eq!(tab.current(Volts(2.0), T).value(), 0.0);
        assert_eq!(tab.conductance(Volts(2.0), T), 0.0);
    }

    #[test]
    fn max_current_close_to_block_capacity() {
        let (block, tab) = table();
        let isat = block.saturation_current(T).value();
        assert!((tab.max_current().value() / isat - 1.0).abs() < 0.2);
    }
}
