//! The cost-estimating-relationship (CER) primitive.
//!
//! SSCM-class models estimate each subsystem's cost from one driving
//! parameter through a fitted power law. We use the normalized form
//! `cost = base × (driver / reference)^exponent`, which keeps every
//! coefficient interpretable: `base` is the cost at the reference design
//! and `exponent` is the scaling elasticity found by regression.

use sudc_errors::{Diagnostics, SudcError};
use sudc_units::Usd;

/// A normalized power-law cost-estimating relationship.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cer {
    /// Cost at the reference driver value.
    pub base: Usd,
    /// Driver value at which the CER returns `base`.
    pub reference: f64,
    /// Scaling elasticity (CERs are sublinear: typically 0.2–0.8).
    pub exponent: f64,
}

impl Cer {
    /// Creates a CER, reporting every invalid coefficient in one pass.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `base` is non-finite, `reference` is
    /// not positive and finite, or `exponent` is outside `[0, 2]`.
    pub fn try_new(base: Usd, reference: f64, exponent: f64) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("Cer");
        d.finite("base", base.value());
        d.ensure(
            reference > 0.0 && reference.is_finite(),
            "reference",
            reference,
            "a positive, finite reference driver",
        );
        if d.finite("exponent", exponent) {
            d.in_range("exponent", exponent, 0.0, 2.0);
        }
        d.into_result(Self {
            base,
            reference,
            exponent,
        })
    }

    /// Evaluates the CER at a driver value.
    ///
    /// Driver values at or below zero clamp to a small floor (1 % of the
    /// reference) — regression CERs are not meaningful at zero but real
    /// subsystems never cost nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use sudc_sscm::cer::Cer;
    /// use sudc_units::Usd;
    ///
    /// let cer = Cer::try_new(Usd::from_millions(2.0), 100.0, 0.5)?;
    /// assert_eq!(cer.evaluate(100.0), Usd::from_millions(2.0));
    /// assert_eq!(cer.evaluate(400.0), Usd::from_millions(4.0));
    /// # Ok::<(), sudc_errors::SudcError>(())
    /// ```
    #[must_use]
    pub fn evaluate(&self, driver: f64) -> Usd {
        let d = if driver.is_finite() && driver > 0.0 {
            driver
        } else {
            self.reference * 0.01
        };
        self.base * (d / self.reference).powf(self.exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_point_returns_base() {
        let cer = Cer::try_new(Usd::from_millions(3.0), 50.0, 0.7).unwrap();
        assert!((cer.evaluate(50.0) - Usd::from_millions(3.0)).abs() < Usd::new(1.0));
    }

    #[test]
    fn sublinear_scaling() {
        let cer = Cer::try_new(Usd::from_millions(1.0), 1.0, 0.6).unwrap();
        let c10 = cer.evaluate(10.0);
        assert!(c10.value() < 10e6, "10x driver must cost < 10x");
        assert!(c10.value() > 1e6, "but more than 1x");
    }

    #[test]
    fn zero_driver_clamps_to_floor() {
        let cer = Cer::try_new(Usd::from_millions(1.0), 100.0, 0.5).unwrap();
        let at_zero = cer.evaluate(0.0);
        assert!(at_zero.value() > 0.0);
        assert_eq!(at_zero, cer.evaluate(1.0));
    }

    #[test]
    fn wild_exponent_is_rejected() {
        let err = Cer::try_new(Usd::new(1.0), 1.0, 3.0).unwrap_err();
        assert!(err.to_string().contains("exponent"), "{err}");
    }

    proptest! {
        #[test]
        fn cer_is_monotone(
            d1 in 0.01..1e6f64,
            d2 in 0.01..1e6f64,
            exp in 0.0..1.5f64,
        ) {
            let cer = Cer::try_new(Usd::from_millions(1.0), 100.0, exp).unwrap();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(cer.evaluate(lo) <= cer.evaluate(hi));
        }

        #[test]
        fn doubling_driver_multiplies_by_2_to_exponent(
            d in 1.0..1e5f64,
            exp in 0.1..1.2f64,
        ) {
            let cer = Cer::try_new(Usd::from_millions(1.0), 100.0, exp).unwrap();
            let ratio = cer.evaluate(2.0 * d) / cer.evaluate(d);
            prop_assert!((ratio - 2f64.powf(exp)).abs() < 1e-9);
        }
    }
}
