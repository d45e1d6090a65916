//! Fitting CERs to observed cost data.
//!
//! The paper closes §II hoping that "public access to SSCM-SµDC will lead
//! to further community-driven validation". This module is that hook: given
//! observed `(driver, cost)` points — from a real program, a licensed SSCM
//! run, or SEER-Space — it fits a [`Cer`]'s base and exponent by ordinary
//! least squares in log space (the standard CER regression form,
//! `ln cost = ln a + b·ln driver`).

use sudc_errors::{Diagnostics, SudcError};
use sudc_units::Usd;

use crate::cer::Cer;

/// One observed data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Driver value (mass, power, data rate, …).
    pub driver: f64,
    /// Observed cost.
    pub cost: Usd,
}

/// The result of a CER fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CerFit {
    /// The fitted CER (referenced at the geometric-mean driver).
    pub cer: Cer,
    /// Coefficient of determination in log space.
    pub r_squared: f64,
    /// Number of observations used.
    pub observations: usize,
}

/// Fits a power-law CER to observations by log-space least squares,
/// reporting every invalid observation in one pass before attempting the
/// regression.
///
/// # Errors
///
/// Returns a structured error if fewer than two observations are supplied,
/// if any observation has a non-positive or non-finite driver or cost, or
/// if all drivers are identical (the exponent would be unidentifiable).
pub fn try_fit_cer(observations: &[Observation]) -> Result<CerFit, SudcError> {
    let mut d = Diagnostics::new("CER fit");
    d.ensure(
        observations.len() >= 2,
        "observations.len()",
        observations.len(),
        "at least two observations",
    );
    for (i, o) in observations.iter().enumerate() {
        d.positive(format_args!("observations[{i}].driver"), o.driver);
        d.positive(format_args!("observations[{i}].cost"), o.cost.value());
    }
    d.finish()?;

    let n = observations.len() as f64;
    let xs: Vec<f64> = observations.iter().map(|o| o.driver.ln()).collect();
    let ys: Vec<f64> = observations.iter().map(|o| o.cost.value().ln()).collect();
    let x_mean = xs.iter().sum::<f64>() / n;
    let y_mean = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - x_mean).powi(2)).sum();
    if sxx <= 1e-12 {
        return Err(SudcError::single(
            "CER fit",
            "observations[..].driver",
            observations[0].driver,
            "at least two distinct drivers (identical drivers make the exponent unidentifiable)",
        ));
    }
    let sxy: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - x_mean) * (y - y_mean))
        .sum();
    let exponent = sxy / sxx;
    let intercept = y_mean - exponent * x_mean;

    // Reference the CER at the geometric-mean driver for interpretability.
    let reference = x_mean.exp();
    let base = Usd::new((intercept + exponent * x_mean).exp());

    // R^2 in log space.
    let ss_tot: f64 = ys.iter().map(|y| (y - y_mean).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (y - (intercept + exponent * x)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };

    Ok(CerFit {
        cer: Cer::try_new(base, reference, exponent.clamp(0.0, 2.0))?,
        r_squared,
        observations: observations.len(),
    })
}

/// Generates observations from an existing CER (useful for round-trip
/// validation and for seeding synthetic community datasets).
#[must_use]
pub fn sample_cer(cer: &Cer, drivers: &[f64]) -> Vec<Observation> {
    drivers
        .iter()
        .map(|&driver| Observation {
            driver,
            cost: cer.evaluate(driver),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_power_law_is_recovered() {
        let truth = Cer::try_new(Usd::from_millions(3.0), 100.0, 0.65).unwrap();
        let obs = sample_cer(&truth, &[10.0, 30.0, 100.0, 300.0, 1000.0]);
        let fit = try_fit_cer(&obs).unwrap();
        assert!((fit.cer.exponent - 0.65).abs() < 1e-9);
        assert!(fit.r_squared > 0.999_999);
        // Same predictions at arbitrary drivers.
        for d in [17.0, 250.0, 800.0] {
            let a = truth.evaluate(d).value();
            let b = fit.cer.evaluate(d).value();
            assert!((a - b).abs() / a < 1e-9, "at {d}: {a} vs {b}");
        }
    }

    #[test]
    fn noisy_data_still_fits_reasonably() {
        let truth = Cer::try_new(Usd::from_millions(2.0), 50.0, 0.5).unwrap();
        let mut obs = sample_cer(&truth, &[5.0, 20.0, 50.0, 150.0, 400.0]);
        // Multiplicative noise (deterministic pattern).
        for (i, o) in obs.iter_mut().enumerate() {
            let noise = if i % 2 == 0 { 1.15 } else { 0.87 };
            o.cost = o.cost * noise;
        }
        let fit = try_fit_cer(&obs).unwrap();
        assert!(
            (fit.cer.exponent - 0.5).abs() < 0.1,
            "exp {}",
            fit.cer.exponent
        );
        assert!(fit.r_squared > 0.9);
    }

    #[test]
    fn two_points_fit_exactly() {
        let fit = try_fit_cer(&[
            Observation {
                driver: 10.0,
                cost: Usd::new(100.0),
            },
            Observation {
                driver: 40.0,
                cost: Usd::new(200.0),
            },
        ])
        .unwrap();
        // Doubling over 4x driver: exponent = ln2/ln4 = 0.5.
        assert!((fit.cer.exponent - 0.5).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_point_is_rejected() {
        let err = try_fit_cer(&[Observation {
            driver: 1.0,
            cost: Usd::new(1.0),
        }])
        .unwrap_err();
        assert!(
            err.to_string().contains("at least two observations"),
            "{err}"
        );
    }

    #[test]
    fn identical_drivers_are_rejected() {
        let o = Observation {
            driver: 5.0,
            cost: Usd::new(1.0),
        };
        let err = try_fit_cer(&[o, o]).unwrap_err();
        assert!(err.to_string().contains("unidentifiable"), "{err}");
    }

    proptest! {
        #[test]
        fn roundtrip_recovers_exponent(
            base_m in 0.1..50.0f64,
            reference in 1.0..5000.0f64,
            exponent in 0.05..1.5f64,
        ) {
            let truth = Cer::try_new(Usd::from_millions(base_m), reference, exponent).unwrap();
            let drivers: Vec<f64> =
                (1..=6).map(|i| reference * f64::from(i) / 3.0).collect();
            let fit = try_fit_cer(&sample_cer(&truth, &drivers)).unwrap();
            prop_assert!((fit.cer.exponent - exponent).abs() < 1e-6);
        }
    }
}
