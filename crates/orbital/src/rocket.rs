//! The Tsiolkovsky rocket equation and propulsion-system sizing.
//!
//! The paper sizes station-keeping fuel with the rocket equation. (The
//! paper's inline rendering, `m_fuel = m_dry (1 + e^{dv/ve})`, contains a
//! typographical slip — the consistent form, which we implement, is
//! `m_fuel = m_dry (e^{dv/ve} - 1)`; it reproduces the paper's qualitative
//! claim that fuel scales proportionally with dry mass and with lifetime.)

use sudc_units::{Kilograms, MetersPerSecond, Seconds};

use crate::constants::G0;

/// A chemical (or electric) thruster characterized by specific impulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Engine {
    /// Specific impulse, seconds.
    pub isp: Seconds,
}

impl Engine {
    /// Bipropellant thruster (Isp ≈ 320 s).
    #[must_use]
    pub fn bipropellant() -> Self {
        Self {
            isp: Seconds::new(320.0),
        }
    }

    /// Effective exhaust velocity `v_e = Isp * g0`.
    #[must_use]
    pub fn exhaust_velocity(self) -> MetersPerSecond {
        MetersPerSecond::new(self.isp.value() * G0)
    }

    /// Propellant mass needed to impart `dv` to a spacecraft of the given
    /// dry mass: `m_fuel = m_dry (e^{dv/ve} - 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `dv` is negative or `dry_mass` is not positive.
    ///
    /// ```
    /// use sudc_orbital::rocket::Engine;
    /// use sudc_units::{Kilograms, MetersPerSecond};
    ///
    /// let fuel = Engine::bipropellant()
    ///     .fuel_mass(Kilograms::new(1000.0), MetersPerSecond::new(150.0));
    /// assert!(fuel.value() > 40.0 && fuel.value() < 60.0);
    /// ```
    #[must_use]
    pub fn fuel_mass(self, dry_mass: Kilograms, dv: MetersPerSecond) -> Kilograms {
        assert!(
            dv.value() >= 0.0 && dv.is_finite(),
            "delta-v must be non-negative and finite, got {dv}"
        );
        assert!(
            dry_mass.value() > 0.0,
            "dry mass must be positive, got {dry_mass}"
        );
        let ratio = dv.value() / self.exhaust_velocity().value();
        dry_mass * (ratio.exp() - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exhaust_velocity_matches_isp() {
        let v = Engine::bipropellant().exhaust_velocity().value();
        assert!((v - 320.0 * G0).abs() < 1e-9);
    }

    #[test]
    fn fuel_mass_is_proportional_to_dry_mass() {
        let e = Engine::bipropellant();
        let dv = MetersPerSecond::new(200.0);
        let f1 = e.fuel_mass(Kilograms::new(500.0), dv);
        let f2 = e.fuel_mass(Kilograms::new(1000.0), dv);
        assert!((f2.value() / f1.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn higher_isp_needs_less_fuel() {
        let dry = Kilograms::new(1000.0);
        let dv = MetersPerSecond::new(300.0);
        let with_isp = |isp| Engine {
            isp: Seconds::new(isp),
        };
        // Monopropellant hydrazine, bipropellant, ion.
        let mono = with_isp(220.0).fuel_mass(dry, dv);
        let bi = with_isp(320.0).fuel_mass(dry, dv);
        let ion = with_isp(2500.0).fuel_mass(dry, dv);
        assert!(bi < mono);
        assert!(ion < bi);
    }

    #[test]
    fn zero_dv_needs_zero_fuel() {
        let f = Engine::bipropellant().fuel_mass(Kilograms::new(800.0), MetersPerSecond::ZERO);
        assert_eq!(f, Kilograms::ZERO);
    }

    #[test]
    #[should_panic(expected = "delta-v must be non-negative")]
    fn negative_dv_panics() {
        let _ = Engine::bipropellant().fuel_mass(Kilograms::new(1.0), MetersPerSecond::new(-1.0));
    }

    proptest! {
        #[test]
        fn fuel_mass_monotone_in_dv(
            dv1 in 0.0..2000.0f64,
            dv2 in 0.0..2000.0f64,
            dry in 10.0..5000.0f64,
        ) {
            let e = Engine::bipropellant();
            let (lo, hi) = if dv1 <= dv2 { (dv1, dv2) } else { (dv2, dv1) };
            let f_lo = e.fuel_mass(Kilograms::new(dry), MetersPerSecond::new(lo));
            let f_hi = e.fuel_mass(Kilograms::new(dry), MetersPerSecond::new(hi));
            prop_assert!(f_lo <= f_hi);
        }

        #[test]
        fn fuel_mass_superlinear_in_dv(
            dv in 1.0..1500.0f64,
            dry in 10.0..5000.0f64,
        ) {
            // Doubling dv more than doubles fuel (convexity of exp).
            let e = Engine::bipropellant();
            let f1 = e.fuel_mass(Kilograms::new(dry), MetersPerSecond::new(dv));
            let f2 = e.fuel_mass(Kilograms::new(dry), MetersPerSecond::new(2.0 * dv));
            prop_assert!(f2.value() >= 2.0 * f1.value() - 1e-9);
        }
    }
}
