//! Command & data handling (C&DH) subsystem sizing.
//!
//! Per the paper's Table I: "we add FSO mass and power requirements to the
//! mass and power of the Command and Data Handling (C&DH) subsystem", and
//! the C&DH cost driver uses the RF-downscaled data rate.

use sudc_units::{GigabitsPerSecond, Kilograms, Watts};

use crate::fso::FsoLink;
use crate::rf::equivalent_rf_rate;

/// Baseline C&DH avionics mass for a small satellite (flight computer,
/// mass memory, interfaces), kg.
const BASE_CDH_MASS_KG: f64 = 8.0;

/// Baseline C&DH power, W.
const BASE_CDH_POWER_W: f64 = 25.0;

/// Incremental avionics mass per Gbit/s of *RF-equivalent* throughput.
const MASS_PER_RF_GBPS_KG: f64 = 6.0;

/// Incremental avionics power per Gbit/s of *RF-equivalent* throughput.
const POWER_PER_RF_GBPS_W: f64 = 20.0;

/// A sized C&DH subsystem, including the attached FSO terminal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdhDesign {
    /// Provisioned ISL rate.
    pub isl_rate: GigabitsPerSecond,
    /// RF-equivalent rate used as the SSCM cost driver.
    pub rf_equivalent_rate: GigabitsPerSecond,
    /// Avionics mass (excluding the FSO terminal).
    pub avionics_mass: Kilograms,
    /// Avionics power (excluding the FSO terminal).
    pub avionics_power: Watts,
    /// The FSO terminal folded into this subsystem.
    pub fso: FsoLink,
}

impl CdhDesign {
    /// Sizes C&DH for an ISL of `isl_rate`, assuming FSO power efficiency
    /// improved by `fso_efficiency_scalar` over today (`1.0` is today's
    /// terminals).
    #[must_use]
    pub fn size_with_fso_efficiency(
        isl_rate: GigabitsPerSecond,
        fso_efficiency_scalar: f64,
    ) -> Self {
        let rf = equivalent_rf_rate(isl_rate);
        Self {
            isl_rate,
            rf_equivalent_rate: rf,
            avionics_mass: Kilograms::new(BASE_CDH_MASS_KG + MASS_PER_RF_GBPS_KG * rf.value()),
            avionics_power: Watts::new(BASE_CDH_POWER_W + POWER_PER_RF_GBPS_W * rf.value()),
            fso: FsoLink::for_rate_with_efficiency(isl_rate, fso_efficiency_scalar),
        }
    }

    /// Total subsystem mass (avionics + FSO terminal).
    #[must_use]
    pub fn mass(self) -> Kilograms {
        self.avionics_mass + self.fso.mass
    }

    /// Total subsystem power (avionics + FSO terminal).
    #[must_use]
    pub fn power(self) -> Watts {
        self.avionics_power + self.fso.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_driver_is_downscaled() {
        let d = CdhDesign::size_with_fso_efficiency(GigabitsPerSecond::new(100.0), 1.0);
        assert!(d.rf_equivalent_rate.value() < 1.0);
    }

    #[test]
    fn totals_include_fso_terminal() {
        let d = CdhDesign::size_with_fso_efficiency(GigabitsPerSecond::new(25.0), 1.0);
        assert!(d.mass() > d.avionics_mass);
        assert!(d.power() > d.avionics_power);
        assert_eq!(d.mass(), d.avionics_mass + d.fso.mass);
        assert_eq!(d.power(), d.avionics_power + d.fso.power);
    }

    #[test]
    fn zero_rate_still_has_base_avionics() {
        let d = CdhDesign::size_with_fso_efficiency(GigabitsPerSecond::ZERO, 1.0);
        assert!(d.avionics_mass.value() > 0.0);
        assert!(d.avionics_power.value() > 0.0);
        assert_eq!(d.fso.power, Watts::ZERO);
    }

    #[test]
    fn fso_efficiency_only_touches_terminal_power() {
        let today = CdhDesign::size_with_fso_efficiency(GigabitsPerSecond::new(50.0), 1.0);
        let future = CdhDesign::size_with_fso_efficiency(GigabitsPerSecond::new(50.0), 8.0);
        assert_eq!(today.avionics_power, future.avionics_power);
        assert!(future.fso.power < today.fso.power);
    }
}
