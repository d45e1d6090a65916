//! Collaborative compute constellations (paper §V).
//!
//! EO satellites carry modest edge compute that filters unusable data
//! (e.g. cloud-occluded frames) before transmission, so "a collaborative
//! constellation reduces SµDC ISL and compute power proportionally". At a
//! filtering rate of 0.5, a 4 kW SµDC shrinks to 2 kW (Fig. 19).

use sudc_units::Watts;

/// An edge-filtering configuration on the EO satellites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFiltering {
    /// Fraction of data discarded at the edge, in [0, 1).
    pub filtering_rate: f64,
}

impl EdgeFiltering {
    /// Creates a filtering configuration.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not in `[0, 1)`.
    #[must_use]
    pub fn new(filtering_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&filtering_rate),
            "filtering rate must be in [0, 1), got {filtering_rate}"
        );
        Self { filtering_rate }
    }

    /// No filtering: the baseline constellation (Fig. 20a).
    #[must_use]
    pub fn none() -> Self {
        Self::new(0.0)
    }

    /// Cloud filtering: roughly two thirds of frames discarded — the
    /// paper's "≈ 2/3 reduction in data transmitted" working point.
    #[must_use]
    pub fn cloud_filtering() -> Self {
        Self::new(2.0 / 3.0)
    }

    /// Fraction of data that still reaches the SµDC.
    #[must_use]
    pub fn pass_fraction(self) -> f64 {
        1.0 - self.filtering_rate
    }

    /// SµDC compute power required after filtering.
    ///
    /// ```
    /// use sudc_constellation::EdgeFiltering;
    /// use sudc_units::Watts;
    ///
    /// // Paper: "At a filtering rate of zero, a 4 kW SµDC is required, but
    /// // at a filtering rate of 0.5, only a 2 kW SµDC is required."
    /// let f = EdgeFiltering::new(0.5);
    /// assert_eq!(
    ///     f.reduced_compute(Watts::from_kilowatts(4.0)),
    ///     Watts::from_kilowatts(2.0),
    /// );
    /// ```
    #[must_use]
    pub fn reduced_compute(self, baseline: Watts) -> Watts {
        baseline * self.pass_fraction()
    }
}

impl Default for EdgeFiltering {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cloud_filtering_passes_one_third() {
        let f = EdgeFiltering::cloud_filtering();
        assert!((f.pass_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn half_filtering_halves_the_sudc() {
        let f = EdgeFiltering::new(0.5);
        assert_eq!(
            f.reduced_compute(Watts::from_kilowatts(4.0)),
            Watts::from_kilowatts(2.0)
        );
    }

    #[test]
    fn no_filtering_is_identity() {
        let f = EdgeFiltering::none();
        assert_eq!(f.reduced_compute(Watts::new(123.0)), Watts::new(123.0));
    }

    #[test]
    #[should_panic(expected = "filtering rate")]
    fn full_filtering_is_rejected() {
        let _ = EdgeFiltering::new(1.0);
    }

    proptest! {
        #[test]
        fn compute_shrinks_proportionally(
            rate in 0.0..0.99f64,
            power in 100.0..10_000.0f64,
        ) {
            let f = EdgeFiltering::new(rate);
            let reduced = f.reduced_compute(Watts::new(power));
            prop_assert!((reduced.value() - power * (1.0 - rate)).abs() < 1e-9);
        }
    }
}
