//! The output current comparator.
//!
//! The PPUF's response bit is the sign of the difference between the two
//! crossbars' source currents (paper Fig 1). A real comparator has a
//! finite input resolution and an offset; both are modelled so the
//! measurability analysis of Fig 8 can check that the expected current
//! difference stays above the resolution of published designs
//! (paper cites a ~153 µW switched-current comparator).

use serde::{Deserialize, Serialize};

use ppuf_analog::units::{Amps, Watts};

use crate::error::PpufError;

/// A current comparator with finite resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparator {
    /// Input-referred offset added to network B's current before
    /// comparison.
    pub offset: Amps,
    /// Smallest current difference the comparator resolves reliably.
    pub resolution: Amps,
    /// Static power draw (used in the §5 power estimate).
    pub power: Watts,
}

impl Default for Comparator {
    /// The paper's comparator operating point: 153 µW, with a resolution
    /// two decades below the expected µA-scale current difference.
    fn default() -> Self {
        Comparator { offset: Amps(0.0), resolution: Amps(1e-12), power: Watts(153e-6) }
    }
}

impl Comparator {
    /// Creates an ideal comparator (zero offset, given resolution).
    pub fn new(resolution: Amps) -> Self {
        Comparator { resolution, ..Comparator::default() }
    }

    /// The comparison outcome, or `None` if the difference is inside the
    /// resolution dead-zone (metastable).
    pub fn compare(&self, i_a: Amps, i_b: Amps) -> Option<bool> {
        let diff = i_a.value() - (i_b.value() + self.offset.value());
        if diff.abs() < self.resolution.value() {
            None
        } else {
            Some(diff > 0.0)
        }
    }

    /// [`compare`](Self::compare) with the dead zone as an error.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::UnresolvableResponse`] where `compare` returns
    /// `None`.
    pub fn resolve(&self, i_a: Amps, i_b: Amps) -> Result<bool, PpufError> {
        self.compare(i_a, i_b).ok_or_else(|| PpufError::UnresolvableResponse {
            difference: (i_a - i_b).abs().value(),
            resolution: self.resolution.value(),
        })
    }

    /// `true` if a difference of the given magnitude is measurable.
    pub fn resolves(&self, difference: Amps) -> bool {
        difference.abs().value() >= self.resolution.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_differences_compare() {
        let c = Comparator::default();
        assert_eq!(c.compare(Amps(2e-6), Amps(1e-6)), Some(true));
        assert_eq!(c.compare(Amps(1e-6), Amps(2e-6)), Some(false));
        assert_eq!(c.resolve(Amps(1e-6), Amps(2e-6)), Ok(false));
    }

    #[test]
    fn dead_zone_is_metastable() {
        let c = Comparator::new(Amps(1e-9));
        assert_eq!(c.compare(Amps(1e-6), Amps(1e-6 + 1e-10)), None);
        assert_eq!(c.compare(Amps(1e-6), Amps(1e-6)), None);
        assert!(matches!(
            c.resolve(Amps(1e-6), Amps(1e-6 + 1e-10)),
            Err(PpufError::UnresolvableResponse { resolution, .. }) if resolution == 1e-9
        ));
    }

    #[test]
    fn offset_shifts_threshold() {
        let c = Comparator { offset: Amps(5e-7), ..Comparator::default() };
        // A exceeds B but not B + offset
        assert_eq!(c.compare(Amps(1.2e-6), Amps(1e-6)), Some(false));
        assert_eq!(c.compare(Amps(1.8e-6), Amps(1e-6)), Some(true));
    }

    #[test]
    fn resolves_matches_resolution() {
        let c = Comparator::new(Amps(1e-9));
        assert!(c.resolves(Amps(2e-9)));
        assert!(c.resolves(Amps(-2e-9)));
        assert!(!c.resolves(Amps(0.5e-9)));
    }
}
