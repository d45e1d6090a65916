//! Circular-orbit geometry: velocity, period, eclipse fraction.

use sudc_units::{Meters, MetersPerSecond, Seconds};

use crate::constants::{MU_EARTH, R_EARTH};

/// A circular orbit around Earth, identified by its altitude above the
/// mean equatorial radius.
///
/// This is the reference orbit class for SµDCs: the paper assumes LEO-based
/// Earth-observation constellations and LEO-hosted microdatacenters.
///
/// # Examples
///
/// ```
/// use sudc_orbital::orbit::CircularOrbit;
/// use sudc_units::Meters;
///
/// let starlink_like = CircularOrbit::from_altitude(Meters::new(550e3));
/// assert!(starlink_like.eclipse_fraction() > 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularOrbit {
    altitude: Meters,
}

impl CircularOrbit {
    /// Creates an orbit from altitude above the Earth surface.
    ///
    /// # Panics
    ///
    /// Panics if the altitude is negative or non-finite.
    #[must_use]
    pub fn from_altitude(altitude: Meters) -> Self {
        assert!(
            altitude.is_finite() && altitude.value() >= 0.0,
            "orbit altitude must be finite and non-negative, got {altitude}"
        );
        Self { altitude }
    }

    /// A representative SµDC orbit: 550 km non-polar LEO (Starlink-class).
    #[must_use]
    pub fn reference_leo() -> Self {
        Self::from_altitude(Meters::new(550e3))
    }

    /// Altitude above the Earth surface.
    #[must_use]
    pub fn altitude(self) -> Meters {
        self.altitude
    }

    /// Orbital radius measured from the center of Earth.
    #[must_use]
    pub fn radius(self) -> Meters {
        Meters::new(R_EARTH) + self.altitude
    }

    /// Circular orbital velocity, `sqrt(mu / r)`.
    #[must_use]
    pub fn velocity(self) -> MetersPerSecond {
        MetersPerSecond::new((MU_EARTH / self.radius().value()).sqrt())
    }

    /// Orbital period, `2 pi sqrt(r^3 / mu)`.
    #[must_use]
    pub fn period(self) -> Seconds {
        let r = self.radius().value();
        Seconds::new(2.0 * std::f64::consts::PI * (r * r * r / MU_EARTH).sqrt())
    }

    /// Ground-track speed of the sub-satellite point.
    ///
    /// The spacecraft sweeps the surface at `v * R_earth / r` (ignoring Earth
    /// rotation), which sets the Earth-observation framing rate in
    /// [`crate::imaging`].
    #[must_use]
    pub fn ground_track_speed(self) -> MetersPerSecond {
        MetersPerSecond::new(self.velocity().value() * R_EARTH / self.radius().value())
    }

    /// Worst-case (orbit-plane sun, beta = 0) fraction of the orbit spent in
    /// Earth's shadow, using the cylindrical-shadow model:
    /// `f = asin(R_earth / r) / pi`.
    ///
    /// Solar arrays must be oversized by `1 / (1 - f)`-ish factors (battery
    /// round-trip inefficiency aside) to deliver constant payload power.
    #[must_use]
    pub fn eclipse_fraction(self) -> f64 {
        (R_EARTH / self.radius().value()).asin() / std::f64::consts::PI
    }

    /// Eclipse fraction at a solar beta angle (the angle between the sun
    /// vector and the orbit plane), in radians.
    ///
    /// At `beta = 0` the sun lies in the orbit plane and the eclipse is
    /// longest (the worst case [`Self::eclipse_fraction`] assumes); as
    /// `|beta|` grows the shadow crossing shortens, vanishing entirely once
    /// the orbit plane tilts past the shadow cylinder. Dawn-dusk
    /// sun-synchronous orbits exploit exactly this.
    ///
    /// # Panics
    ///
    /// Panics if `beta_rad` is non-finite.
    ///
    /// Kept without a non-test caller: `tests/extension_claims.rs` checks that
    /// dawn-dusk orbits cut the eclipse penalty with it.
    #[must_use]
    pub fn eclipse_fraction_at_beta(self, beta_rad: f64) -> f64 {
        assert!(beta_rad.is_finite(), "beta angle must be finite");
        let r = self.radius().value();
        let h_term = (1.0 - (R_EARTH / r).powi(2)).sqrt();
        let cos_beta = beta_rad.cos().abs();
        if cos_beta <= h_term {
            return 0.0; // orbit plane clears the shadow cylinder
        }
        (h_term / cos_beta).acos() / std::f64::consts::PI
    }
}

impl Default for CircularOrbit {
    fn default() -> Self {
        Self::reference_leo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leo() -> CircularOrbit {
        CircularOrbit::from_altitude(Meters::new(550e3))
    }

    #[test]
    fn iss_altitude_has_known_period_and_velocity() {
        let iss = CircularOrbit::from_altitude(Meters::new(420e3));
        let minutes = iss.period().value() / 60.0;
        assert!(
            (minutes - 92.8).abs() < 1.0,
            "ISS period should be ~93 min, got {minutes}"
        );
        let v = iss.velocity().value();
        assert!(
            (v - 7660.0).abs() < 30.0,
            "ISS velocity ~7.66 km/s, got {v}"
        );
    }

    #[test]
    fn higher_orbits_are_slower_with_longer_periods() {
        let lo = CircularOrbit::from_altitude(Meters::new(400e3));
        let hi = CircularOrbit::from_altitude(Meters::new(1200e3));
        assert!(hi.velocity() < lo.velocity());
        assert!(hi.period() > lo.period());
        assert!(hi.eclipse_fraction() < lo.eclipse_fraction());
    }

    #[test]
    fn eclipse_fraction_is_reasonable_for_leo() {
        // 550 km: shadow subtends asin(6378/6928) ~ 67 degrees half-angle,
        // fraction ~ 0.37.
        let f = leo().eclipse_fraction();
        assert!(f > 0.3 && f < 0.45, "eclipse fraction {f}");
    }

    #[test]
    fn ground_track_is_slower_than_orbital_velocity() {
        let o = leo();
        assert!(o.ground_track_speed().value() < o.velocity().value());
        // At 550 km the ratio is R/(R+h) ~ 0.92.
        let ratio = o.ground_track_speed().value() / o.velocity().value();
        assert!((ratio - 0.92).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "altitude must be finite")]
    fn negative_altitude_panics() {
        let _ = CircularOrbit::from_altitude(Meters::new(-1.0));
    }

    #[test]
    fn default_is_reference_leo() {
        assert_eq!(CircularOrbit::default(), CircularOrbit::reference_leo());
    }

    #[test]
    fn beta_zero_reproduces_the_worst_case_eclipse() {
        let o = leo();
        assert!((o.eclipse_fraction_at_beta(0.0) - o.eclipse_fraction()).abs() < 1e-12);
    }

    #[test]
    fn eclipse_shrinks_with_beta_and_vanishes() {
        let o = leo();
        let f0 = o.eclipse_fraction_at_beta(0.0);
        let f40 = o.eclipse_fraction_at_beta(40f64.to_radians());
        assert!(f40 < f0 && f40 > 0.0);
        // Beyond the eclipse-free beta (about 67 deg at 550 km) no shadow.
        assert!(o.eclipse_fraction_at_beta(66f64.to_radians()) > 0.0);
        assert_eq!(o.eclipse_fraction_at_beta(68f64.to_radians()), 0.0);
    }

    #[test]
    fn dawn_dusk_orbits_are_nearly_eclipse_free() {
        // A dawn-dusk SSO rides near beta ~ 70-90 deg.
        let f = leo().eclipse_fraction_at_beta(75f64.to_radians());
        assert_eq!(f, 0.0);
    }
}
