//! Closed-loop thermal-subsystem sizing.
//!
//! Combines [`crate::radiator`] and [`crate::heatpump`] into a complete
//! subsystem design for a given heat load: panel area, panel temperature,
//! pump power, and total subsystem mass — the quantities the SSCM-SµDC cost
//! model consumes.

use sudc_units::{Kelvin, Kilograms, SquareMeters, Watts};

use crate::heatpump::HeatPump;
use crate::radiator::Radiator;

/// Mass of pump, loop plumbing, and working fluid per watt of heat lifted,
/// kg/W (flight active-thermal-control loops run ~10–30 g/W).
const PUMP_LOOP_SPECIFIC_MASS: f64 = 0.015;

/// A sized thermal subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalDesign {
    /// Heat load the subsystem absorbs from the payload and bus.
    pub heat_load: Watts,
    /// Radiator panel (double-sided, deployed).
    pub radiator: Radiator,
    /// Radiator operating temperature.
    pub radiator_temperature: Kelvin,
    /// Electrical power drawn by the heat pump.
    pub pump_power: Watts,
}

impl ThermalDesign {
    /// Sizes a subsystem that rejects `heat_load` with the radiator held at
    /// `radiator_temperature` by the given heat pump.
    ///
    /// The radiator must reject the payload heat *plus* the pump work, so
    /// the panel is sized for `heat_load + pump_power`.
    ///
    /// # Panics
    ///
    /// Panics if `heat_load` is negative or non-finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use sudc_thermal::{HeatPump, ThermalDesign};
    /// use sudc_units::{Kelvin, Watts};
    ///
    /// let d = ThermalDesign::size(
    ///     Watts::from_kilowatts(4.0),
    ///     Kelvin::from_celsius(45.0),
    ///     HeatPump::spacecraft_default(),
    /// );
    /// // Panel slightly larger than 4 m^2 because pump work is re-rejected.
    /// assert!(d.radiator.area.value() > 4.0 && d.radiator.area.value() < 5.5);
    /// ```
    #[must_use]
    pub fn size(heat_load: Watts, radiator_temperature: Kelvin, pump: HeatPump) -> Self {
        assert!(
            heat_load.is_finite() && heat_load.value() >= 0.0,
            "heat load must be finite and non-negative, got {heat_load}"
        );
        let pump_power = pump.pump_power(heat_load, radiator_temperature);
        let rejected = heat_load + pump_power;
        let area = Radiator::required_area(rejected, radiator_temperature);
        Self {
            heat_load,
            radiator: Radiator::double_sided(area),
            radiator_temperature,
            pump_power,
        }
    }

    /// Sizes a subsystem with the paper's working setpoint (45 °C radiator,
    /// default spacecraft heat pump).
    #[must_use]
    pub fn size_default(heat_load: Watts) -> Self {
        Self::size(
            heat_load,
            Kelvin::from_celsius(45.0),
            HeatPump::spacecraft_default(),
        )
    }

    /// Radiator panel area.
    #[must_use]
    pub fn radiator_area(self) -> SquareMeters {
        self.radiator.area
    }

    /// Total subsystem mass: panel plus pump/loop hardware.
    #[must_use]
    pub fn mass(self) -> Kilograms {
        self.radiator.mass() + Kilograms::new(PUMP_LOOP_SPECIFIC_MASS * self.heat_load.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn four_kw_design_matches_paper_scale() {
        let d = ThermalDesign::size_default(Watts::from_kilowatts(4.0));
        // Paper: "Only a 4 m^2 radiator can support the heat dissipated by
        // our 4 kW SµDC" — with pump work re-rejection ours runs a bit over.
        assert!(d.radiator_area().value() > 4.0 && d.radiator_area().value() < 5.5);
        assert!(d.pump_power.value() > 0.0);
        assert!(d.mass().value() > 20.0 && d.mass().value() < 120.0);
    }

    #[test]
    fn radiator_sized_for_load_plus_pump_work() {
        let d = ThermalDesign::size_default(Watts::from_kilowatts(10.0));
        let check = d.radiator.emitted_power(d.radiator_temperature);
        assert!((check - (d.heat_load + d.pump_power)).abs() < Watts::new(1.0));
    }

    #[test]
    fn zero_load_needs_nothing() {
        let d = ThermalDesign::size_default(Watts::ZERO);
        assert_eq!(d.pump_power, Watts::ZERO);
        assert_eq!(d.radiator_area(), SquareMeters::ZERO);
        assert_eq!(d.mass(), Kilograms::ZERO);
    }

    #[test]
    fn active_cooling_can_beat_passive_on_area() {
        let load = Watts::from_kilowatts(10.0);
        // Passive at 10 C vs actively pumped to 80 C.
        let passive = Radiator::required_area(load, Kelvin::from_celsius(10.0));
        let active = ThermalDesign::size(
            load,
            Kelvin::from_celsius(80.0),
            HeatPump::spacecraft_default(),
        );
        assert!(active.radiator_area() < passive);
    }

    proptest! {
        #[test]
        fn design_scales_monotonically_with_load(
            l1 in 0.0..20_000.0f64,
            l2 in 0.0..20_000.0f64,
        ) {
            let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
            let d_lo = ThermalDesign::size_default(Watts::new(lo));
            let d_hi = ThermalDesign::size_default(Watts::new(hi));
            prop_assert!(d_lo.radiator_area() <= d_hi.radiator_area());
            prop_assert!(d_lo.pump_power <= d_hi.pump_power);
            prop_assert!(d_lo.mass() <= d_hi.mass());
        }
    }
}
