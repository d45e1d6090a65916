//! Stefan–Boltzmann radiator model (paper Eq. 1 and Fig. 12).

use sudc_orbital::constants::{SPACE_BACKGROUND_K, STEFAN_BOLTZMANN};
use sudc_units::{Kelvin, Kilograms, KilogramsPerSquareMeter, SquareMeters, Watts};

/// Default radiator emissivity (paper Fig. 12 uses ε = 0.86).
pub const DEFAULT_EMISSIVITY: f64 = 0.86;

/// Default areal mass of a deployable radiator panel including heat pipes
/// and coatings, kg/m².
pub const DEFAULT_AREAL_MASS: KilogramsPerSquareMeter = KilogramsPerSquareMeter::new(6.0);

/// A flat radiator panel radiating to deep space.
///
/// `P = ε σ A_eff (T⁴ − T_bg⁴)` with `A_eff = faces × panel area` and the
/// 2.7 K space background (negligible but kept for fidelity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Radiator {
    /// Panel area (one face).
    pub area: SquareMeters,
    /// Surface emissivity in [0, 1].
    pub emissivity: f64,
    /// Number of radiating faces (1 for body-mounted, 2 for deployed panels).
    pub faces: u8,
    /// Panel areal mass.
    pub areal_mass: KilogramsPerSquareMeter,
}

impl Radiator {
    /// A deployed panel radiating from both faces with default emissivity.
    ///
    /// # Panics
    ///
    /// Panics if `area` is negative or non-finite.
    #[must_use]
    pub fn double_sided(area: SquareMeters) -> Self {
        assert!(
            area.is_finite() && area.value() >= 0.0,
            "radiator area must be finite and non-negative, got {area}"
        );
        Self {
            area,
            emissivity: DEFAULT_EMISSIVITY,
            faces: 2,
            areal_mass: DEFAULT_AREAL_MASS,
        }
    }

    /// Effective radiating area (`faces × area`).
    #[must_use]
    pub fn effective_area(self) -> SquareMeters {
        self.area * f64::from(self.faces)
    }

    /// Heat rejected at panel temperature `t`.
    ///
    /// Kept without a non-test caller: it is Eq. 1 run forward, which pins
    /// the paper's §III-B anchor (1 m² at 45 °C emits just under 1 kW) and
    /// lets `tests/pipeline.rs` check that every sized radiator closes.
    #[must_use]
    pub fn emitted_power(self, t: Kelvin) -> Watts {
        let t4 = t.value().powi(4) - SPACE_BACKGROUND_K.powi(4);
        Watts::new(self.emissivity * STEFAN_BOLTZMANN * self.effective_area().value() * t4)
    }

    /// Panel mass.
    #[must_use]
    pub fn mass(self) -> Kilograms {
        self.areal_mass * self.area
    }

    /// Panel area required to reject `load` at temperature `t` from a
    /// double-sided deployed panel with default emissivity (Fig. 12's
    /// curves are exactly this function swept over `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is at or below the space background temperature.
    ///
    /// ```
    /// use sudc_thermal::radiator::Radiator;
    /// use sudc_units::{Kelvin, Watts};
    ///
    /// // Paper: "Only a 4 m^2 radiator can support the heat dissipated by
    /// // our 4 kW SµDCs" (at ~45C, double sided).
    /// let area = Radiator::required_area(Watts::from_kilowatts(4.0), Kelvin::from_celsius(45.0));
    /// assert!((area.value() - 4.0).abs() < 0.05);
    /// ```
    #[must_use]
    pub fn required_area(load: Watts, t: Kelvin) -> SquareMeters {
        assert!(
            t.value() > SPACE_BACKGROUND_K,
            "radiator temperature must exceed the space background, got {t}"
        );
        let flux_per_m2 = DEFAULT_EMISSIVITY
            * STEFAN_BOLTZMANN
            * 2.0
            * (t.value().powi(4) - SPACE_BACKGROUND_K.powi(4));
        SquareMeters::new(load.value() / flux_per_m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_square_meter_at_45c_emits_just_shy_of_1kw() {
        // Paper §III-B anchor.
        let r = Radiator::double_sided(SquareMeters::new(1.0));
        let p = r.emitted_power(Kelvin::from_celsius(45.0)).value();
        assert!(p > 985.0 && p < 1000.0, "got {p} W");
    }

    #[test]
    fn four_square_meters_support_4kw() {
        let area = Radiator::required_area(Watts::from_kilowatts(4.0), Kelvin::from_celsius(45.0));
        assert!((area.value() - 4.0).abs() < 0.06, "got {area}");
    }

    #[test]
    fn hotter_radiators_need_less_area() {
        let load = Watts::from_kilowatts(10.0);
        let cold = Radiator::required_area(load, Kelvin::new(280.0));
        let hot = Radiator::required_area(load, Kelvin::new(350.0));
        assert!(hot < cold);
    }

    #[test]
    fn single_sided_panel_emits_half() {
        let mut r = Radiator::double_sided(SquareMeters::new(2.0));
        let both = r.emitted_power(Kelvin::new(320.0));
        r.faces = 1;
        let one = r.emitted_power(Kelvin::new(320.0));
        assert!((both.value() / one.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mass_scales_with_area() {
        let r = Radiator::double_sided(SquareMeters::new(4.0));
        assert_eq!(r.mass(), Kilograms::new(24.0));
    }

    #[test]
    #[should_panic(expected = "temperature must exceed")]
    fn background_temperature_panics() {
        let _ = Radiator::required_area(Watts::new(1.0), Kelvin::new(2.0));
    }

    proptest! {
        #[test]
        fn emitted_power_monotone_in_temperature(
            t1 in 250.0..420.0f64,
            t2 in 250.0..420.0f64,
            area in 0.1..50.0f64,
        ) {
            let r = Radiator::double_sided(SquareMeters::new(area));
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(r.emitted_power(Kelvin::new(lo)) <= r.emitted_power(Kelvin::new(hi)));
        }

        #[test]
        fn required_area_linear_in_load(
            load in 100.0..20_000.0f64,
            t in 260.0..400.0f64,
        ) {
            let a1 = Radiator::required_area(Watts::new(load), Kelvin::new(t));
            let a2 = Radiator::required_area(Watts::new(2.0 * load), Kelvin::new(t));
            prop_assert!((a2.value() / a1.value() - 2.0).abs() < 1e-9);
        }
    }
}
