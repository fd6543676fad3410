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

/// The 1 MΩ + 3 MΩ divider: at 2 V node 1 settles at 1.5 V and the source
/// current is 0.5 µA. Like the symmetric divider it has one internal node,
/// so the cold solve's lumped start, the level where that node's KCL
/// balances, is already its solution.
pub(crate) fn lopsided_divider() -> Circuit<DirectedResistor> {
    divider(1e6, 3e6)
}

/// `0 → 1` through 1 MΩ, then node 1 forks to the sink through `1 → 2 → 4`
/// (1 + 1 MΩ) and `1 → 3 → 4` (3 + 1 MΩ); solve it with source 0 and sink
/// 4. At 2 V the nodes settle at 8/7, 4/7 and 2/7 V and the source current
/// is 6/7 µA. The lumped start puts all three at 2/3 V, where node 1 carries
/// the largest KCL residual (4/3 µA, against −2/3 µA at nodes 2 and 3), so
/// a cold solve must iterate.
pub(crate) fn fork() -> Circuit<DirectedResistor> {
    let mut c = Circuit::new(5);
    for (u, v, ohms) in [(0, 1, 1e6), (1, 2, 1e6), (2, 4, 1e6), (1, 3, 3e6), (3, 4, 1e6)] {
        c.add_element(u, v, DirectedResistor::new(ohms)).unwrap();
    }
    c
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
