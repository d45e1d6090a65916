//! Active thermal-control heat pump (paper §II, §III-B).
//!
//! The SµDC moves payload heat from electronics cold plates to a radiator
//! that runs *hotter* than the electronics, which shrinks the radiator at
//! the price of pump power. Pump power is set by the coefficient of
//! performance (CoP), modeled as a fixed fraction of the Carnot limit —
//! "Heat pump power ... is determined by the heat pump's Coefficient of
//! Performance (CoP), which, in turn, is determined by radiator and ambient
//! temperatures."

use sudc_units::{Kelvin, Watts};

/// A vapor-compression (or equivalent) heat pump lifting heat from the
/// electronics loop to the radiator loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatPump {
    /// Achieved fraction of the Carnot CoP, in (0, 1].
    pub carnot_fraction: f64,
    /// Electronics cold-plate (heat source) temperature.
    pub source_temperature: Kelvin,
}

impl HeatPump {
    /// A realistic spacecraft heat pump: 40 % of Carnot, 20 °C cold plates.
    #[must_use]
    pub fn spacecraft_default() -> Self {
        Self {
            carnot_fraction: 0.4,
            source_temperature: Kelvin::from_celsius(20.0),
        }
    }

    /// Cooling CoP when rejecting to a radiator at `sink`: the Carnot value
    /// `T_c / (T_h − T_c)` scaled by the Carnot fraction.
    ///
    /// Returns `f64::INFINITY` when the sink is at or below the source —
    /// heat then flows passively and no pump work is needed.
    ///
    /// # Panics
    ///
    /// Panics if `carnot_fraction` is outside (0, 1].
    #[must_use]
    pub fn cop(self, sink: Kelvin) -> f64 {
        assert!(
            self.carnot_fraction > 0.0 && self.carnot_fraction <= 1.0,
            "carnot fraction must be in (0, 1], got {}",
            self.carnot_fraction
        );
        let tc = self.source_temperature.value();
        let th = sink.value();
        if th <= tc {
            f64::INFINITY
        } else {
            self.carnot_fraction * tc / (th - tc)
        }
    }

    /// Electrical power drawn to lift `heat_load` to a radiator at `sink`.
    ///
    /// ```
    /// use sudc_thermal::heatpump::HeatPump;
    /// use sudc_units::{Kelvin, Watts};
    ///
    /// let pump = HeatPump::spacecraft_default();
    /// let w = pump.pump_power(Watts::from_kilowatts(4.0), Kelvin::from_celsius(45.0));
    /// // Lifting 25 C at 40% of Carnot: CoP ~ 4.7, so ~0.85 kW.
    /// assert!(w.value() > 700.0 && w.value() < 1000.0);
    /// ```
    #[must_use]
    pub fn pump_power(self, heat_load: Watts, sink: Kelvin) -> Watts {
        let cop = self.cop(sink);
        if cop.is_infinite() {
            Watts::ZERO
        } else {
            Watts::new(heat_load.value() / cop)
        }
    }
}

impl Default for HeatPump {
    fn default() -> Self {
        Self::spacecraft_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cop_matches_carnot_fraction() {
        let pump = HeatPump::spacecraft_default();
        let sink = Kelvin::from_celsius(45.0);
        let tc = 293.15;
        let expected = 0.4 * tc / (318.15 - tc);
        assert!((pump.cop(sink) - expected).abs() < 1e-9);
    }

    #[test]
    fn passive_sink_needs_no_power() {
        let pump = HeatPump::spacecraft_default();
        let cold_sink = Kelvin::from_celsius(0.0);
        assert_eq!(
            pump.pump_power(Watts::from_kilowatts(4.0), cold_sink),
            Watts::ZERO
        );
        assert!(pump.cop(cold_sink).is_infinite());
    }

    #[test]
    fn hotter_sink_costs_more_power() {
        let pump = HeatPump::spacecraft_default();
        let load = Watts::from_kilowatts(4.0);
        let warm = pump.pump_power(load, Kelvin::from_celsius(40.0));
        let hot = pump.pump_power(load, Kelvin::from_celsius(80.0));
        assert!(hot > warm);
    }

    #[test]
    #[should_panic(expected = "carnot fraction")]
    fn invalid_carnot_fraction_panics() {
        let pump = HeatPump {
            carnot_fraction: 1.5,
            source_temperature: Kelvin::new(293.0),
        };
        let _ = pump.cop(Kelvin::new(320.0));
    }

    proptest! {
        #[test]
        fn pump_power_linear_in_load(
            load in 10.0..20_000.0f64,
            sink_c in 25.0..120.0f64,
        ) {
            let pump = HeatPump::spacecraft_default();
            let sink = Kelvin::from_celsius(sink_c);
            let p1 = pump.pump_power(Watts::new(load), sink);
            let p2 = pump.pump_power(Watts::new(2.0 * load), sink);
            prop_assert!((p2.value() - 2.0 * p1.value()).abs() < 1e-6);
        }

        #[test]
        fn pump_power_nonnegative(load in 0.0..20_000.0f64, sink_k in 100.0..500.0f64) {
            let pump = HeatPump::spacecraft_default();
            prop_assert!(pump.pump_power(Watts::new(load), Kelvin::new(sink_k)).value() >= 0.0);
        }
    }
}
