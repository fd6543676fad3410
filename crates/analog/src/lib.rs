//! Analog circuit substrate for the max-flow PPUF.
//!
//! The DAC'16 paper evaluates its PPUF with HSPICE and a 32 nm predictive
//! technology model — neither of which ships with this repository. This
//! crate is the substitute substrate: device models, the source-degenerated
//! building block of paper Fig 2, a damped-Newton nodal DC solver, a
//! backward-Euler transient integrator, the Lin–Mead delay bound of §3.3,
//! and the process/environment variation models the statistical evaluation
//! needs.
//!
//! See `DESIGN.md` §1 for why these substitutions preserve the behaviours
//! the paper's claims depend on (capacity limiting, SCE residual slope,
//! incremental passivity, RC charging delay).
//!
//! # Example
//!
//! ```
//! use ppuf_analog::block::{BlockBias, BlockDesign, BuildingBlock, TwoTerminal};
//! use ppuf_analog::units::{Celsius, Volts};
//!
//! // the serial two-stack block of Fig 2(d), nominal process corner
//! let block = BuildingBlock::new(BlockDesign::Serial, BlockBias::INPUT_ONE);
//! let i_low = block.current(Volts(0.8), Celsius::NOMINAL);
//! let i_high = block.current(Volts(1.9), Celsius::NOMINAL);
//! // incrementally passive and saturating
//! assert!(i_low <= i_high);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod delay;
pub mod device;
pub mod montecarlo;
pub mod solver;
pub mod units;
pub mod variation;

pub use block::{BlockBias, BlockDesign, BlockVariation, BuildingBlock, TwoTerminal};
pub use device::{Diode, MosTransistor, Resistor};
pub use units::{Amps, Celsius, Farads, Joules, Ohms, Seconds, Siemens, Volts, Watts};
