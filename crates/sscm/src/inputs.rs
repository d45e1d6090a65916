//! The SSCM-SµDC driver-parameter set (paper Table I).
//!
//! These are the inputs the CERs regress against. `sudc-core` derives them
//! from a SµDC design via the physics substrates (power, thermal, comms,
//! orbital); they can also be constructed directly for what-if studies.

use sudc_errors::{Diagnostics, SudcError};
use sudc_units::{GigabitsPerSecond, Kilograms, Usd, Watts, Years};

/// Driver parameters for one satellite cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SscmInputs {
    /// Design lifetime.
    pub lifetime: Years,
    /// Beginning-of-life power generation capability.
    pub bol_power: Watts,
    /// Dry mass (everything except propellant).
    pub dry_mass: Kilograms,
    /// Propellant mass.
    pub fuel_mass: Kilograms,
    /// Structure subsystem mass.
    pub structure_mass: Kilograms,
    /// Thermal subsystem mass (radiators, pumps, loops).
    pub thermal_mass: Kilograms,
    /// Electrical-power subsystem mass (arrays, batteries, PDU).
    pub power_mass: Kilograms,
    /// C&DH cost-driver data rate — the FSO rate *already downscaled* by
    /// the FSO/X-band ratio (paper §II).
    pub rf_equivalent_rate: GigabitsPerSecond,
    /// Attitude-control pointing requirement, arcseconds (finer = costlier).
    pub pointing_arcsec: f64,
    /// Monetary cost of the compute payload hardware (pass-through).
    pub compute_hardware_cost: Usd,
}

impl SscmInputs {
    /// A 500 W-class reference SµDC — the design the CER bases are
    /// calibrated at.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            lifetime: Years::new(5.0),
            bol_power: Watts::new(1300.0),
            dry_mass: Kilograms::new(420.0),
            fuel_mass: Kilograms::new(40.0),
            structure_mass: Kilograms::new(85.0),
            thermal_mass: Kilograms::new(25.0),
            power_mass: Kilograms::new(60.0),
            rf_equivalent_rate: GigabitsPerSecond::new(0.1),
            pointing_arcsec: 60.0,
            compute_hardware_cost: Usd::new(10_000.0),
        }
    }

    /// Wet (launch) mass.
    #[must_use]
    pub fn wet_mass(&self) -> Kilograms {
        self.dry_mass + self.fuel_mass
    }

    /// Validates physical consistency, reporting *every* offending field in
    /// one pass.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] with one violation per out-of-range field,
    /// plus a mass-budget violation if the component masses exceed the dry
    /// mass.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("SscmInputs");
        let checks = [
            ("lifetime", self.lifetime.value()),
            ("bol_power", self.bol_power.value()),
            ("dry_mass", self.dry_mass.value()),
            ("fuel_mass", self.fuel_mass.value()),
            ("structure_mass", self.structure_mass.value()),
            ("thermal_mass", self.thermal_mass.value()),
            ("power_mass", self.power_mass.value()),
            ("rf_equivalent_rate", self.rf_equivalent_rate.value()),
            ("pointing_arcsec", self.pointing_arcsec),
            ("compute_hardware_cost", self.compute_hardware_cost.value()),
        ];
        let mut masses_ok = true;
        for (name, v) in checks {
            let ok = d.non_negative(name, v);
            if matches!(
                name,
                "dry_mass" | "structure_mass" | "thermal_mass" | "power_mass"
            ) {
                masses_ok &= ok;
            }
        }
        if masses_ok {
            let components = self.structure_mass + self.thermal_mass + self.power_mass;
            d.ensure(
                components <= self.dry_mass * 1.001,
                "structure_mass + thermal_mass + power_mass",
                components,
                format_args!(
                    "component masses must not exceed dry mass ({})",
                    self.dry_mass
                ),
            );
        }
        d.finish()
    }
}

impl Default for SscmInputs {
    fn default() -> Self {
        Self::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_valid() {
        assert!(SscmInputs::reference().try_validate().is_ok());
    }

    #[test]
    fn wet_mass_sums_dry_and_fuel() {
        let i = SscmInputs::reference();
        assert_eq!(i.wet_mass(), i.dry_mass + i.fuel_mass);
    }

    #[test]
    fn negative_field_is_rejected() {
        let mut i = SscmInputs::reference();
        i.fuel_mass = Kilograms::new(-1.0);
        let err = i.try_validate().unwrap_err();
        assert!(err.to_string().contains("fuel_mass"));
    }

    #[test]
    fn component_masses_must_fit_in_dry_mass() {
        let mut i = SscmInputs::reference();
        i.structure_mass = Kilograms::new(1e6);
        assert!(i.try_validate().is_err());
    }
}
