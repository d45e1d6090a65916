//! Weibull node lifetimes — relaxing Fig. 24's exponential assumption.
//!
//! The paper models node lifetimes as `Exp(λ)` (constant hazard). Real
//! electronics show infant mortality (shape `k < 1`) or wear-out
//! (`k > 1`); the Weibull family covers both with survival
//! `S(t) = exp(−(t/η)^k)`, reducing to the exponential at `k = 1`. This
//! module re-derives the Fig. 24/25 quantities under a shape parameter so
//! the overprovisioning conclusions can be stress-tested.

use sudc_errors::SudcError;

use crate::availability::{binomial_pmf, binomial_tail_at_least};

/// A Weibull lifetime distribution parameterized to preserve the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullLifetime {
    /// Shape parameter `k` (> 0): `< 1` infant mortality, `1` exponential,
    /// `> 1` wear-out.
    pub shape: f64,
    /// Scale parameter `η`, chosen so the mean lifetime is 1 MTTF.
    pub scale: f64,
}

impl WeibullLifetime {
    /// Creates a distribution with the given shape and unit mean
    /// (`η = 1 / Γ(1 + 1/k)`).
    ///
    /// # Errors
    ///
    /// Returns a structured error if `shape` is not positive and finite.
    pub fn try_with_unit_mean(shape: f64) -> Result<Self, SudcError> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(SudcError::single(
                "WeibullLifetime",
                "shape",
                shape,
                "the Weibull shape must be positive and finite",
            ));
        }
        let scale = 1.0 / gamma(1.0 + 1.0 / shape);
        Ok(Self { shape, scale })
    }

    /// The exponential special case.
    #[must_use]
    pub fn exponential() -> Self {
        Self::try_with_unit_mean(1.0).expect("shape 1 is positive and finite")
    }

    /// Per-node survival probability at `t` (in MTTF units).
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t` is negative or non-finite.
    pub fn try_survival(&self, t: f64) -> Result<f64, SudcError> {
        if !(t.is_finite() && t >= 0.0) {
            return Err(SudcError::single(
                "WeibullLifetime::survival",
                "t",
                t,
                "time must be finite and non-negative",
            ));
        }
        Ok((-(t / self.scale).powf(self.shape)).exp())
    }

    /// Probability that at least `required` of `nodes` survive to `t`.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t` is negative or non-finite.
    pub fn try_availability(&self, nodes: u32, required: u32, t: f64) -> Result<f64, SudcError> {
        Ok(binomial_tail_at_least(
            nodes,
            required,
            self.try_survival(t)?,
        ))
    }

    /// Expected usable capacity `E[min(required, alive)]` at `t`.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t` is negative or non-finite.
    pub fn try_expected_capacity(
        &self,
        nodes: u32,
        required: u32,
        t: f64,
    ) -> Result<f64, SudcError> {
        let p = self.try_survival(t)?;
        Ok((0..=nodes)
            .map(|j| f64::from(j.min(required)) * binomial_pmf(nodes, j, p))
            .sum())
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate to
/// ~1e-13 over the range used here.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + G + 0.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::NodePool;
    use proptest::prelude::*;

    #[test]
    fn gamma_reference_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn shape_one_reduces_to_the_exponential_model() {
        let w = WeibullLifetime::exponential();
        let pool = NodePool::try_new(20, 10).unwrap();
        for t in [0.1, 0.5, 1.0, 2.0] {
            assert!((w.try_survival(t).unwrap() - (-t).exp()).abs() < 1e-12);
            assert!(
                (w.try_availability(20, 10, t).unwrap() - pool.try_availability(t).unwrap()).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn wear_out_shapes_survive_longer_early_then_collapse() {
        // k > 1: flat early hazard, then wear-out. Early survival beats the
        // exponential; late survival falls below it.
        let wearout = WeibullLifetime::try_with_unit_mean(3.0).unwrap();
        let exp = WeibullLifetime::exponential();
        assert!(wearout.try_survival(0.2).unwrap() > exp.try_survival(0.2).unwrap());
        assert!(wearout.try_survival(2.0).unwrap() < exp.try_survival(2.0).unwrap());
    }

    #[test]
    fn infant_mortality_hurts_early_availability() {
        let infant = WeibullLifetime::try_with_unit_mean(0.5).unwrap();
        let exp = WeibullLifetime::exponential();
        assert!(
            infant.try_availability(20, 10, 0.1).unwrap()
                < exp.try_availability(20, 10, 0.1).unwrap()
        );
    }

    #[test]
    fn overprovisioning_still_pays_off_under_wear_out() {
        // The paper's §VII conclusion is robust to the lifetime model.
        let w = WeibullLifetime::try_with_unit_mean(2.5).unwrap();
        for t in [0.3, 0.6, 0.9] {
            assert!(
                w.try_availability(30, 10, t).unwrap() > w.try_availability(10, 10, t).unwrap()
            );
            assert!(
                w.try_expected_capacity(30, 10, t).unwrap()
                    > w.try_expected_capacity(10, 10, t).unwrap()
            );
        }
    }

    #[test]
    fn zero_shape_is_rejected() {
        let err = WeibullLifetime::try_with_unit_mean(0.0).unwrap_err();
        assert!(err.to_string().contains("shape must be positive"), "{err}");
    }

    proptest! {
        #[test]
        fn mean_is_unity_for_all_shapes(shape in 0.6..6.0f64) {
            // Numerically integrate the survival function: mean = ∫S(t)dt.
            // (Shapes below ~0.6 have heavy tails that need impractically
            // long integration horizons; the analytic identity still holds.)
            let w = WeibullLifetime::try_with_unit_mean(shape).unwrap();
            let dt = 0.001;
            let mut mean = 0.0;
            let mut t = 0.0;
            while t < 120.0 {
                mean += w.try_survival(t).unwrap() * dt;
                t += dt;
            }
            prop_assert!((mean - 1.0).abs() < 0.01, "shape {shape}: mean {mean}");
        }

        #[test]
        fn survival_is_monotone(shape in 0.3..6.0f64, t1 in 0.0..4.0f64, t2 in 0.0..4.0f64) {
            let w = WeibullLifetime::try_with_unit_mean(shape).unwrap();
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(w.try_survival(hi).unwrap() <= w.try_survival(lo).unwrap());
        }
    }
}
