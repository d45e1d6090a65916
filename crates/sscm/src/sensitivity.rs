//! One-at-a-time sensitivity (tornado) analysis of the cost model.
//!
//! Because the SSCM-SµDC coefficients are shape-calibrated rather than
//! regression-fitted (DESIGN.md §2), users should know which coefficients
//! the headline results actually lean on. This module perturbs one driver
//! at a time and reports the first-unit-cost swing.

use sudc_errors::SudcError;
use sudc_units::Usd;

use crate::inputs::SscmInputs;
use crate::subsystems::SubsystemCers;

/// The perturbable driver parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Driver {
    /// Beginning-of-life power.
    BolPower,
    /// Dry mass (with structure scaling proportionally).
    DryMass,
    /// Fuel mass.
    FuelMass,
    /// Thermal subsystem mass.
    ThermalMass,
    /// RF-equivalent data rate.
    DataRate,
    /// Pointing requirement (finer = costlier).
    Pointing,
    /// Compute hardware cost.
    ComputeHardware,
    /// Mission lifetime.
    Lifetime,
}

impl Driver {
    /// All drivers in report order.
    #[must_use]
    pub fn all() -> [Self; 8] {
        [
            Self::BolPower,
            Self::DryMass,
            Self::FuelMass,
            Self::ThermalMass,
            Self::DataRate,
            Self::Pointing,
            Self::ComputeHardware,
            Self::Lifetime,
        ]
    }

    fn apply(self, inputs: &SscmInputs, factor: f64) -> SscmInputs {
        let mut out = inputs.clone();
        match self {
            Self::BolPower => out.bol_power = out.bol_power * factor,
            Self::DryMass => {
                out.dry_mass = out.dry_mass * factor;
                out.structure_mass = out.structure_mass * factor;
            }
            Self::FuelMass => out.fuel_mass = out.fuel_mass * factor,
            Self::ThermalMass => out.thermal_mass = out.thermal_mass * factor,
            Self::DataRate => out.rf_equivalent_rate = out.rf_equivalent_rate * factor,
            // Finer pointing (smaller arcsec) raises ADCS cost, so the
            // "high" case divides.
            Self::Pointing => out.pointing_arcsec /= factor,
            Self::ComputeHardware => out.compute_hardware_cost = out.compute_hardware_cost * factor,
            Self::Lifetime => out.lifetime = out.lifetime * factor,
        }
        out
    }
}

impl core::fmt::Display for Driver {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::BolPower => "BOL power",
            Self::DryMass => "dry mass",
            Self::FuelMass => "fuel mass",
            Self::ThermalMass => "thermal mass",
            Self::DataRate => "data rate",
            Self::Pointing => "pointing",
            Self::ComputeHardware => "compute hardware",
            Self::Lifetime => "lifetime",
        };
        f.write_str(s)
    }
}

/// One tornado bar: the cost swing from perturbing a driver.
#[derive(Debug, Clone)]
pub struct SensitivityBar {
    /// The perturbed driver.
    pub driver: Driver,
    /// First-unit cost with the driver scaled down.
    pub low: Usd,
    /// First-unit cost with the driver scaled up.
    pub high: Usd,
    /// Swing relative to the nominal first-unit cost.
    pub relative_swing: f64,
}

/// Runs the one-at-a-time analysis, perturbing every driver by
/// `±perturbation` (e.g. 0.3 for ±30 %), and returns bars sorted by swing
/// (largest first).
///
/// The perturbation and the nominal inputs are validated before the
/// per-driver re-estimates fan out.
///
/// # Errors
///
/// Returns a structured error if `perturbation` is outside (0, 1) or the
/// nominal inputs fail [`SscmInputs::try_validate`].
pub fn try_tornado(
    cers: &SubsystemCers,
    inputs: &SscmInputs,
    perturbation: f64,
) -> Result<Vec<SensitivityBar>, SudcError> {
    if !(perturbation.is_finite() && perturbation > 0.0 && perturbation < 1.0) {
        return Err(SudcError::single(
            "tornado analysis",
            "perturbation",
            perturbation,
            "a perturbation in (0, 1)",
        ));
    }
    let nominal = cers.try_estimate(inputs)?.first_unit();
    // Each driver's low/high re-estimate is independent: fan out on the
    // workspace executor; the stable sort below keeps report order
    // deterministic regardless of thread count. Perturbed inputs can fail
    // validation even when the nominal ones pass (e.g. scaling dry mass
    // down below the fixed component masses), so each arm is fallible.
    let results = sudc_par::par_map(&Driver::all(), |_, &driver| {
        let low = cers
            .try_estimate(&driver.apply(inputs, 1.0 - perturbation))?
            .first_unit();
        let high = cers
            .try_estimate(&driver.apply(inputs, 1.0 + perturbation))?
            .first_unit();
        Ok(SensitivityBar {
            driver,
            low,
            high,
            relative_swing: (high - low).abs() / nominal,
        })
    });
    let mut bars = results
        .into_iter()
        .collect::<Result<Vec<SensitivityBar>, SudcError>>()?;
    // total_cmp: a zero-cost estimate yields NaN swings, which must not
    // panic the sort.
    bars.sort_by(|a, b| b.relative_swing.total_cmp(&a.relative_swing));
    Ok(bars)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bars() -> Vec<SensitivityBar> {
        try_tornado(
            &SubsystemCers::sudc_default(),
            &SscmInputs::reference(),
            0.3,
        )
        .unwrap()
    }

    #[test]
    fn bol_power_is_among_the_top_drivers() {
        // The paper's central finding expressed as sensitivity: power is
        // the primary TCO lever.
        let bars = bars();
        let rank = bars
            .iter()
            .position(|b| b.driver == Driver::BolPower)
            .unwrap();
        assert!(rank <= 2, "BOL power ranked {rank}");
    }

    #[test]
    fn compute_hardware_is_the_weakest_driver() {
        let bars = bars();
        let hw = bars
            .iter()
            .find(|b| b.driver == Driver::ComputeHardware)
            .unwrap();
        assert!(hw.relative_swing < 0.01, "hw swing {}", hw.relative_swing);
    }

    #[test]
    fn bars_are_sorted_descending() {
        let bars = bars();
        for pair in bars.windows(2) {
            assert!(pair[0].relative_swing >= pair[1].relative_swing);
        }
    }

    #[test]
    fn all_highs_exceed_lows_for_cost_increasing_drivers() {
        for bar in bars() {
            assert!(bar.high >= bar.low, "{}", bar.driver);
        }
    }

    #[test]
    fn finer_pointing_raises_cost() {
        let cers = SubsystemCers::sudc_default();
        let inputs = SscmInputs::reference();
        let bar = try_tornado(&cers, &inputs, 0.5)
            .unwrap()
            .into_iter()
            .find(|b| b.driver == Driver::Pointing)
            .unwrap();
        assert!(bar.high > bar.low);
    }

    #[test]
    fn wild_perturbation_is_rejected() {
        let err = try_tornado(
            &SubsystemCers::sudc_default(),
            &SscmInputs::reference(),
            1.5,
        )
        .unwrap_err();
        assert!(err.to_string().contains("perturbation"), "{err}");
    }
}
