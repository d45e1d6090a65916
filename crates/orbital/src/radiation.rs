//! Total-ionizing-dose (TID) environment models.
//!
//! Anchored to the values the paper cites (§VIII):
//!
//! - non-polar LEO behind 200 mil Al: ~0.5 krad(Si)/yr,
//! - non-polar LEO behind 400 mil Al: ~0.2 krad(Si)/yr,
//! - GEO behind 200 mil Al: ~4 krad(Si)/yr.
//!
//! Shielding attenuation is modeled as exponential in shield thickness,
//! fitted through the two LEO anchor points.

use sudc_errors::{Diagnostics, SudcError};
use sudc_units::{KradSi, KradSiPerYear, Years};

/// Orbit radiation regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadiationRegime {
    /// Non-polar low Earth orbit (the SµDC operating regime).
    LeoNonPolar,
    /// Polar / sun-synchronous LEO (higher trapped-proton exposure).
    LeoPolar,
    /// Medium Earth orbit (inside the outer Van Allen belt).
    Meo,
    /// Geostationary orbit.
    Geo,
}

/// Dose rate at the 200-mil reference shielding for each regime, krad(Si)/yr.
fn reference_rate(regime: RadiationRegime) -> f64 {
    match regime {
        RadiationRegime::LeoNonPolar => 0.5,
        RadiationRegime::LeoPolar => 1.5,
        RadiationRegime::Meo => 20.0,
        RadiationRegime::Geo => 4.0,
    }
}

/// Shielding attenuation scale, mils of aluminum per e-fold.
///
/// Fit through the paper's LEO anchors: `0.2/0.5 = exp(-200/tau)` gives
/// `tau = 200 / ln(2.5) ≈ 218.3`.
const SHIELD_SCALE_MILS: f64 = 218.27;
const REFERENCE_SHIELD_MILS: f64 = 200.0;

/// Annual TID rate behind `shield_mils` of aluminum in the given regime.
///
/// # Errors
///
/// Returns a structured error if `shield_mils` is negative or non-finite.
///
/// # Examples
///
/// ```
/// use sudc_orbital::radiation::{try_dose_rate, RadiationRegime};
///
/// let leo_200 = try_dose_rate(RadiationRegime::LeoNonPolar, 200.0)?;
/// assert!((leo_200.value() - 0.5).abs() < 1e-9);
/// let leo_400 = try_dose_rate(RadiationRegime::LeoNonPolar, 400.0)?;
/// assert!((leo_400.value() - 0.2).abs() < 0.01);
/// # Ok::<(), sudc_errors::SudcError>(())
/// ```
pub fn try_dose_rate(
    regime: RadiationRegime,
    shield_mils: f64,
) -> Result<KradSiPerYear, SudcError> {
    if !(shield_mils.is_finite() && shield_mils >= 0.0) {
        return Err(SudcError::single(
            "dose_rate",
            "shield_mils",
            shield_mils,
            "the shield thickness must be finite and non-negative",
        ));
    }
    let attenuation = ((REFERENCE_SHIELD_MILS - shield_mils) / SHIELD_SCALE_MILS).exp();
    Ok(KradSiPerYear::new(reference_rate(regime) * attenuation))
}

/// Mission-accumulated dose over a lifetime.
///
/// # Errors
///
/// Returns a structured error if `shield_mils` is negative or non-finite,
/// or the lifetime is negative or non-finite.
pub fn try_mission_dose(
    regime: RadiationRegime,
    shield_mils: f64,
    lifetime: Years,
) -> Result<KradSi, SudcError> {
    let mut d = Diagnostics::new("mission_dose");
    d.non_negative("lifetime", lifetime.value());
    d.finish()?;
    Ok(try_dose_rate(regime, shield_mils)? * lifetime)
}

/// Verdict of a COTS-suitability radiation check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TidAssessment {
    /// Dose the mission will accumulate.
    pub mission_dose: KradSi,
    /// Dose the part tolerates before failure.
    pub part_tolerance: KradSi,
    /// Tolerance margin, `part_tolerance / mission_dose`.
    pub margin: f64,
}

impl TidAssessment {
    /// Assesses whether a part with `part_tolerance` survives the mission.
    ///
    /// # Errors
    ///
    /// Returns a structured error if the shield thickness is negative or
    /// non-finite, the lifetime is negative or non-finite, or the part
    /// tolerance is negative or non-finite.
    pub fn try_assess(
        regime: RadiationRegime,
        shield_mils: f64,
        lifetime: Years,
        part_tolerance: KradSi,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("TidAssessment");
        d.non_negative("part_tolerance", part_tolerance.value());
        d.finish()?;
        let dose = try_mission_dose(regime, shield_mils, lifetime)?;
        Ok(Self {
            mission_dose: dose,
            part_tolerance,
            margin: part_tolerance.value() / dose.value(),
        })
    }

    /// Whether the part survives with at least the given safety factor.
    #[must_use]
    pub fn survives_with_margin(&self, safety_factor: f64) -> bool {
        self.margin >= safety_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn leo_anchor_points_match_paper() {
        assert!(
            (try_dose_rate(RadiationRegime::LeoNonPolar, 200.0)
                .unwrap()
                .value()
                - 0.5)
                .abs()
                < 1e-12
        );
        assert!(
            (try_dose_rate(RadiationRegime::LeoNonPolar, 400.0)
                .unwrap()
                .value()
                - 0.2)
                .abs()
                < 1e-3
        );
        assert!((try_dose_rate(RadiationRegime::Geo, 200.0).unwrap().value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geo_is_harsher_than_leo() {
        for mils in [100.0, 200.0, 400.0] {
            assert!(
                try_dose_rate(RadiationRegime::Geo, mils).unwrap()
                    > try_dose_rate(RadiationRegime::LeoNonPolar, mils).unwrap()
            );
        }
    }

    #[test]
    fn five_year_leo_mission_dose_is_small() {
        // Paper: a 5-year LEO mission behind 200 mil sees ~2.5 krad, an order
        // of magnitude below what 14 nm COTS parts tolerate.
        let dose = try_mission_dose(RadiationRegime::LeoNonPolar, 200.0, Years::new(5.0)).unwrap();
        assert!((dose.value() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cots_part_survives_leo_with_margin() {
        // A 14-nm class part tolerating ~50 krad vs 2.5 krad mission dose.
        let a = TidAssessment::try_assess(
            RadiationRegime::LeoNonPolar,
            200.0,
            Years::new(5.0),
            KradSi::new(50.0),
        )
        .unwrap();
        assert!(a.survives_with_margin(10.0));
        assert!(!a.survives_with_margin(30.0));
    }

    #[test]
    fn rad750_survives_geo() {
        let a = TidAssessment::try_assess(
            RadiationRegime::Geo,
            200.0,
            Years::new(15.0),
            KradSi::new(200.0),
        )
        .unwrap();
        assert!(a.survives_with_margin(3.0));
    }

    #[test]
    fn negative_shield_is_rejected() {
        let err = try_dose_rate(RadiationRegime::LeoNonPolar, -1.0).unwrap_err();
        assert!(err.to_string().contains("shield thickness"), "{err}");
    }

    #[test]
    fn zero_shielding_exposes_the_bare_spacecraft() {
        // No shielding: exp(200 / tau) = 2.5x the 200-mil reference.
        let bare = try_dose_rate(RadiationRegime::LeoNonPolar, 0.0).unwrap();
        assert!((bare.value() - 0.5 * 2.5).abs() < 1e-3, "{}", bare.value());
    }

    #[test]
    fn extreme_shielding_drives_dose_toward_zero() {
        let heavy = try_dose_rate(RadiationRegime::Geo, 5_000.0).unwrap();
        assert!(heavy.value() > 0.0);
        assert!(heavy.value() < 1e-8, "{}", heavy.value());
    }

    #[test]
    fn invalid_shielding_is_a_structured_error() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = try_dose_rate(RadiationRegime::LeoNonPolar, bad).unwrap_err();
            assert_eq!(err.violations().len(), 1);
            assert_eq!(err.violations()[0].path, "shield_mils");
        }
    }

    #[test]
    fn invalid_mission_dose_inputs_are_structured_errors() {
        assert!(try_mission_dose(RadiationRegime::LeoNonPolar, f64::NAN, Years::new(5.0)).is_err());
        assert!(try_mission_dose(RadiationRegime::LeoNonPolar, 200.0, Years::new(-1.0)).is_err());
        assert!(TidAssessment::try_assess(
            RadiationRegime::LeoNonPolar,
            200.0,
            Years::new(5.0),
            KradSi::new(-1.0),
        )
        .is_err());
    }

    proptest! {
        #[test]
        fn more_shielding_never_increases_dose(
            m1 in 0.0..1000.0f64,
            m2 in 0.0..1000.0f64,
        ) {
            let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
            prop_assert!(
                try_dose_rate(RadiationRegime::LeoNonPolar, hi).unwrap()
                    <= try_dose_rate(RadiationRegime::LeoNonPolar, lo).unwrap()
            );
        }

        #[test]
        fn dose_linear_in_lifetime(years in 0.1..20.0f64, mils in 50.0..800.0f64) {
            let d1 = try_mission_dose(RadiationRegime::LeoNonPolar, mils, Years::new(years)).unwrap();
            let d2 = try_mission_dose(RadiationRegime::LeoNonPolar, mils, Years::new(2.0 * years)).unwrap();
            prop_assert!((d2.value() / d1.value() - 2.0).abs() < 1e-9);
        }
    }
}
