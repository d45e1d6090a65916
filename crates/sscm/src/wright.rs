//! Wright's-law experience curves (paper §VI-A).
//!
//! `C_n = C_1 · n^(log2 b)`: every doubling of cumulative production
//! multiplies unit cost by the progress ratio `b`. Aerospace progress
//! ratios are historically strong — `b ∈ [0.7, 0.8]` — which is what makes
//! distributed constellations of small SµDCs cheaper than monoliths.

use sudc_errors::SudcError;
use sudc_units::Usd;

/// A Wright's-law learning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningCurve {
    /// Progress ratio `b`: cost multiplier per production doubling.
    pub progress_ratio: f64,
}

impl LearningCurve {
    /// Creates a curve with the given progress ratio. A ratio above 1
    /// would mean costs *grow* with experience.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `progress_ratio` is NaN/±∞ or outside
    /// `(0, 1]`.
    pub fn try_new(progress_ratio: f64) -> Result<Self, SudcError> {
        if progress_ratio.is_finite() && progress_ratio > 0.0 && progress_ratio <= 1.0 {
            Ok(Self { progress_ratio })
        } else {
            Err(SudcError::single(
                "LearningCurve",
                "progress_ratio",
                progress_ratio,
                "a progress ratio in (0, 1]",
            ))
        }
    }

    /// The paper's Fig. 22 assumption (`b = 0.75`).
    #[must_use]
    pub fn aerospace_default() -> Self {
        Self::try_new(0.75).expect("0.75 lies in (0, 1]")
    }

    /// Cost of the `n`-th unit: `C_1 · n^(log2 b)`.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use sudc_sscm::wright::LearningCurve;
    /// use sudc_units::Usd;
    ///
    /// let curve = LearningCurve::try_new(0.9)?;
    /// let c1 = Usd::new(1.0);
    /// assert!((curve.try_unit_cost(c1, 2)?.value() - 0.90).abs() < 1e-12);
    /// assert!((curve.try_unit_cost(c1, 4)?.value() - 0.81).abs() < 1e-12);
    /// # Ok::<(), sudc_errors::SudcError>(())
    /// ```
    pub fn try_unit_cost(&self, first_unit: Usd, n: u32) -> Result<Usd, SudcError> {
        if n == 0 {
            return Err(SudcError::single(
                "LearningCurve::unit_cost",
                "n",
                n,
                "a unit index of at least 1",
            ));
        }
        Ok(first_unit * f64::from(n).powf(self.progress_ratio.log2()))
    }

    /// Total cost of units `1..=n` (direct summation — exact, not the
    /// continuous approximation).
    #[must_use]
    pub fn cumulative_cost(&self, first_unit: Usd, n: u32) -> Usd {
        (1..=n)
            .map(|i| {
                self.try_unit_cost(first_unit, i)
                    .expect("unit indices start at 1")
            })
            .sum()
    }

    /// Average unit cost across a run of `n`.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `n` is zero (the average over an
    /// empty run is undefined).
    pub fn try_average_cost(&self, first_unit: Usd, n: u32) -> Result<Usd, SudcError> {
        if n == 0 {
            return Err(SudcError::single(
                "LearningCurve::average_cost",
                "n",
                n,
                "a non-empty run (the average over an empty run is undefined)",
            ));
        }
        Ok(self.cumulative_cost(first_unit, n) / f64::from(n))
    }
}

impl Default for LearningCurve {
    fn default() -> Self {
        Self::aerospace_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_b_090() {
        // Paper: "if C1 = $1, and b = 0.9, then C2 = $0.90, and C4 = $0.81".
        let curve = LearningCurve::try_new(0.9).unwrap();
        let c1 = Usd::new(1.0);
        assert!((curve.try_unit_cost(c1, 2).unwrap().value() - 0.9).abs() < 1e-12);
        assert!((curve.try_unit_cost(c1, 4).unwrap().value() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn hundredth_unit_is_less_than_half_at_b_075() {
        // Paper Fig. 22: "By the time the 100th satellite is manufactured,
        // cost has decreased by over 50%."
        let curve = LearningCurve::aerospace_default();
        let c100 = curve.try_unit_cost(Usd::new(1.0), 100).unwrap();
        assert!(c100.value() < 0.5, "100th unit at {c100}");
        assert!(c100.value() > 0.1);
    }

    #[test]
    fn no_learning_at_b_one() {
        let curve = LearningCurve::try_new(1.0).unwrap();
        assert_eq!(
            curve.try_unit_cost(Usd::new(7.0), 50).unwrap(),
            Usd::new(7.0)
        );
        assert_eq!(curve.cumulative_cost(Usd::new(1.0), 10), Usd::new(10.0));
    }

    #[test]
    fn cumulative_grows_sublinearly() {
        let curve = LearningCurve::aerospace_default();
        let c10 = curve.cumulative_cost(Usd::new(1.0), 10);
        let c20 = curve.cumulative_cost(Usd::new(1.0), 20);
        assert!(c20 < c10 * 2.0, "doubling the run must cost < 2x");
        assert!(c20 > c10);
    }

    #[test]
    fn ratio_above_one_is_rejected() {
        let err = LearningCurve::try_new(1.1).unwrap_err();
        assert!(err.to_string().contains("progress ratio"), "{err}");
    }

    #[test]
    fn zeroth_unit_is_rejected() {
        let err = LearningCurve::aerospace_default()
            .try_unit_cost(Usd::new(1.0), 0)
            .unwrap_err();
        assert!(err.to_string().contains("unit index"), "{err}");
    }

    proptest! {
        #[test]
        fn unit_costs_decrease_monotonically(
            b in 0.6..0.99f64,
            n in 1u32..500,
        ) {
            let curve = LearningCurve::try_new(b).unwrap();
            let c_n = curve.try_unit_cost(Usd::new(1.0), n).unwrap();
            let c_n1 = curve.try_unit_cost(Usd::new(1.0), n + 1).unwrap();
            prop_assert!(c_n1 <= c_n);
        }

        #[test]
        fn stronger_learning_is_cheaper(
            n in 2u32..300,
        ) {
            let strong = LearningCurve::try_new(0.65).unwrap();
            let weak = LearningCurve::try_new(0.85).unwrap();
            prop_assert!(
                strong.cumulative_cost(Usd::new(1.0), n) < weak.cumulative_cost(Usd::new(1.0), n)
            );
        }

        #[test]
        fn average_between_first_and_last(
            b in 0.6..0.95f64,
            n in 2u32..200,
        ) {
            let curve = LearningCurve::try_new(b).unwrap();
            let avg = curve.try_average_cost(Usd::new(1.0), n).unwrap();
            prop_assert!(avg < Usd::new(1.0));
            prop_assert!(avg > curve.try_unit_cost(Usd::new(1.0), n).unwrap());
        }
    }
}
