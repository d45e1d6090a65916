//! Solar-array sizing with BOL/EOL degradation and eclipse oversizing.

use sudc_orbital::constants::SOLAR_FLUX;
use sudc_orbital::CircularOrbit;
use sudc_units::{Kilograms, SquareMeters, Watts, Years};

/// Photovoltaic cell technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolarCellTech {
    /// Triple-junction GaAs (the modern spacecraft default).
    TripleJunctionGaAs,
    /// Crystalline silicon (cheaper, heavier, degrades faster).
    Silicon,
}

impl SolarCellTech {
    /// Cell conversion efficiency at BOL.
    #[must_use]
    pub fn efficiency(self) -> f64 {
        match self {
            Self::TripleJunctionGaAs => 0.30,
            Self::Silicon => 0.20,
        }
    }

    /// Annual efficiency decay in LEO (paper: "generally <= 3% annual loss").
    #[must_use]
    pub fn annual_degradation(self) -> f64 {
        match self {
            Self::TripleJunctionGaAs => 0.025,
            Self::Silicon => 0.03,
        }
    }

    /// Array-level specific power at BOL, W/kg (panel + substrate + yoke).
    #[must_use]
    pub fn specific_power(self) -> f64 {
        match self {
            Self::TripleJunctionGaAs => 100.0,
            Self::Silicon => 60.0,
        }
    }
}

/// Battery round-trip efficiency used when oversizing the array to recharge
/// through eclipse.
pub const BATTERY_ROUND_TRIP_EFFICIENCY: f64 = 0.90;

/// Array packing / pointing / harness derate.
pub const ARRAY_DERATE: f64 = 0.90;

/// A sized solar array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarArray {
    /// Cell technology.
    pub tech: SolarCellTech,
    /// Power the array must produce in sunlight at BOL.
    pub bol_power: Watts,
    /// Panel area.
    pub area: SquareMeters,
    /// Array mass.
    pub mass: Kilograms,
}

impl SolarArray {
    /// Sizes an array that continuously delivers `eol_load` (the end-of-life
    /// system power) for `lifetime` on `orbit`.
    ///
    /// Three oversizing effects stack, exactly as the paper's Table I
    /// derivations describe:
    ///
    /// 1. **Eclipse**: the array only generates for the sunlit fraction and
    ///    must additionally recharge the battery at round-trip efficiency η:
    ///    `sun_factor = ((1-f) + f/η) / (1-f)`.
    /// 2. **Degradation**: BOL capability must exceed EOL requirement:
    ///    `bol = eol / (1-d)^L` — exponential in lifetime.
    /// 3. **Derates**: packing and pointing losses.
    ///
    /// # Panics
    ///
    /// Panics if `eol_load` is negative/non-finite or `lifetime` negative.
    ///
    /// ```
    /// use sudc_power::solar::{SolarArray, SolarCellTech};
    /// use sudc_orbital::CircularOrbit;
    /// use sudc_units::{Watts, Years};
    ///
    /// let array = SolarArray::size(
    ///     Watts::from_kilowatts(4.0),
    ///     CircularOrbit::reference_leo(),
    ///     Years::new(5.0),
    ///     SolarCellTech::TripleJunctionGaAs,
    /// );
    /// assert!(array.bol_power.as_kilowatts() > 6.0);
    /// ```
    #[must_use]
    pub fn size(
        eol_load: Watts,
        orbit: CircularOrbit,
        lifetime: Years,
        tech: SolarCellTech,
    ) -> Self {
        assert!(
            eol_load.is_finite() && eol_load.value() >= 0.0,
            "EOL load must be finite and non-negative, got {eol_load}"
        );
        assert!(
            lifetime.value() >= 0.0,
            "lifetime must be non-negative, got {lifetime}"
        );
        let f = orbit.eclipse_fraction();
        let sun_factor = ((1.0 - f) + f / BATTERY_ROUND_TRIP_EFFICIENCY) / (1.0 - f);
        let degradation = (1.0 - tech.annual_degradation()).powf(lifetime.value());
        let bol_power = eol_load * (sun_factor / degradation);
        let area =
            SquareMeters::new(bol_power.value() / (SOLAR_FLUX * tech.efficiency() * ARRAY_DERATE));
        let mass = Kilograms::new(bol_power.value() / tech.specific_power());
        Self {
            tech,
            bol_power,
            area,
            mass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leo() -> CircularOrbit {
        CircularOrbit::reference_leo()
    }

    #[test]
    fn bol_exceeds_eol_requirement() {
        let a = SolarArray::size(
            Watts::from_kilowatts(4.0),
            leo(),
            Years::new(5.0),
            SolarCellTech::TripleJunctionGaAs,
        );
        // Eclipse oversizing (~1.65x) times degradation recovery (~1.13x).
        let ratio = a.bol_power.value() / 4000.0;
        assert!(ratio > 1.5 && ratio < 2.2, "BOL/EOL ratio {ratio}");
    }

    #[test]
    fn bol_requirement_grows_exponentially_with_lifetime() {
        // Paper Fig. 4 driver: "BOL power generation requirements increase
        // exponentially" with lifetime.
        let p = |yrs: f64| {
            SolarArray::size(
                Watts::from_kilowatts(1.0),
                leo(),
                Years::new(yrs),
                SolarCellTech::TripleJunctionGaAs,
            )
            .bol_power
            .value()
        };
        let r5 = p(5.0) / p(0.0);
        let r10 = p(10.0) / p(0.0);
        assert!((r5 - 1.0 / 0.975f64.powi(5)).abs() < 1e-9);
        assert!((r10 - r5 * r5).abs() < 1e-9, "exponential growth");
    }

    #[test]
    fn degraded_power_meets_load_at_eol() {
        let load = Watts::from_kilowatts(4.0);
        let a = SolarArray::size(
            load,
            leo(),
            Years::new(5.0),
            SolarCellTech::TripleJunctionGaAs,
        );
        let eol_sun_power = a.bol_power * (1.0 - a.tech.annual_degradation()).powf(5.0);
        let f = leo().eclipse_fraction();
        let needed = load * (((1.0 - f) + f / BATTERY_ROUND_TRIP_EFFICIENCY) / (1.0 - f));
        assert!((eol_sun_power - needed).abs() < Watts::new(1e-6));
    }

    #[test]
    fn silicon_arrays_are_heavier_and_bigger() {
        let load = Watts::from_kilowatts(2.0);
        let gaas = SolarArray::size(
            load,
            leo(),
            Years::new(5.0),
            SolarCellTech::TripleJunctionGaAs,
        );
        let si = SolarArray::size(load, leo(), Years::new(5.0), SolarCellTech::Silicon);
        assert!(si.mass > gaas.mass);
        assert!(si.area > gaas.area);
    }

    #[test]
    fn four_kw_array_dimensions_are_plausible() {
        let a = SolarArray::size(
            Watts::from_kilowatts(4.0),
            leo(),
            Years::new(5.0),
            SolarCellTech::TripleJunctionGaAs,
        );
        assert!(
            a.area.value() > 15.0 && a.area.value() < 30.0,
            "area {}",
            a.area
        );
        assert!(
            a.mass.value() > 50.0 && a.mass.value() < 110.0,
            "mass {}",
            a.mass
        );
    }

    proptest! {
        #[test]
        fn sizing_is_linear_in_load(load in 10.0..20_000.0f64) {
            let a1 = SolarArray::size(
                Watts::new(load), leo(), Years::new(5.0), SolarCellTech::TripleJunctionGaAs);
            let a2 = SolarArray::size(
                Watts::new(2.0 * load), leo(), Years::new(5.0), SolarCellTech::TripleJunctionGaAs);
            prop_assert!((a2.mass.value() / a1.mass.value() - 2.0).abs() < 1e-9);
            prop_assert!((a2.area.value() / a1.area.value() - 2.0).abs() < 1e-9);
        }

        #[test]
        fn longer_missions_need_bigger_arrays(
            y1 in 0.0..15.0f64,
            y2 in 0.0..15.0f64,
        ) {
            let (lo, hi) = if y1 <= y2 { (y1, y2) } else { (y2, y1) };
            let a_lo = SolarArray::size(
                Watts::new(1000.0), leo(), Years::new(lo), SolarCellTech::TripleJunctionGaAs);
            let a_hi = SolarArray::size(
                Watts::new(1000.0), leo(), Years::new(hi), SolarCellTech::TripleJunctionGaAs);
            prop_assert!(a_lo.bol_power <= a_hi.bol_power);
        }
    }
}
