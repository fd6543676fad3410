//! Small, analytically checkable circuits and elements shared by the
//! solver tests.

use crate::block::TwoTerminal;
use crate::device::resistor::Resistor;
use crate::solver::dc::Circuit;
use crate::units::{Amps, Celsius, Ohms, Volts};

/// A resistor as a *directed* [`TwoTerminal`]: it blocks reverse current,
/// like every edge element of a crossbar.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectedResistor(pub Resistor);

impl DirectedResistor {
    /// A directed resistor of `ohms`.
    pub(crate) fn new(ohms: f64) -> Self {
        DirectedResistor(Resistor::new(Ohms(ohms)))
    }
}

impl TwoTerminal for DirectedResistor {
    fn current(&self, dv: Volts, _temp: Celsius) -> Amps {
        if dv.value() <= 0.0 {
            Amps(0.0)
        } else {
            self.0.current(dv)
        }
    }
    fn conductance(&self, dv: Volts, _temp: Celsius) -> f64 {
        if dv.value() <= 0.0 {
            0.0
        } else {
            self.0.conductance()
        }
    }
}

/// `0 → 1 → 2` through `r1` then `r2` ohms; solve it with source 0 and
/// sink 2.
pub(crate) fn divider(r1: f64, r2: f64) -> Circuit<DirectedResistor> {
    let mut c = Circuit::new(3);
    c.add_element(0, 1, DirectedResistor::new(r1)).unwrap();
    c.add_element(1, 2, DirectedResistor::new(r2)).unwrap();
    c
}

/// The 1 MΩ + 3 MΩ divider: unlike the symmetric one, whose flat `vs/2`
/// start is already its solution, a cold solve of it must iterate. At
/// 2 V node 1 settles at 1.5 V and the source current is 0.5 µA.
pub(crate) fn lopsided_divider() -> Circuit<DirectedResistor> {
    divider(1e6, 3e6)
}

/// A directed 1 µS conductance whose current turns NaN once the voltage
/// across it exceeds the given threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NanAbove(pub f64);

impl TwoTerminal for NanAbove {
    fn current(&self, dv: Volts, _temp: Celsius) -> Amps {
        // like every element curve, reads a NaN voltage as 0 A
        if dv.value() > self.0 {
            Amps(f64::NAN)
        } else {
            Amps(dv.value().max(0.0) * 1e-6)
        }
    }
    fn conductance(&self, dv: Volts, _temp: Celsius) -> f64 {
        if dv.value() > 0.0 {
            1e-6
        } else {
            0.0
        }
    }
}
