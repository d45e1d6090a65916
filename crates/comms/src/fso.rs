//! Free-space-optics (laser) inter-satellite link terminals.
//!
//! Mass, power, and data rates are anchored to published values for existing
//! commercial systems (Mynaric Condor-class LEO–LEO terminals and LEO–GEO
//! relay terminals), per the paper's Table I derivations.

use sudc_units::{GigabitsPerSecond, Kilograms, Watts};

/// Today's LEO–LEO FSO electrical efficiency, watts per Gbit/s (derived from
/// a Condor-class terminal's published point: 120 W / 100 Gbit/s plus
/// pointing and electronics overhead).
pub const TODAYS_W_PER_GBPS: f64 = 5.0;

/// Fixed terminal mass (telescope, gimbal, electronics), kg.
const FIXED_TERMINAL_MASS_KG: f64 = 5.0;

/// Rate-proportional terminal mass, kg per Gbit/s.
const MASS_PER_GBPS_KG: f64 = 0.09;

/// A rate-parametric ISL sized for a required capacity.
///
/// # Examples
///
/// ```
/// use sudc_comms::fso::FsoLink;
/// use sudc_units::GigabitsPerSecond;
///
/// let link = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(25.0), 1.0);
/// assert!((link.power.value() - 125.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsoLink {
    /// Provisioned capacity.
    pub data_rate: GigabitsPerSecond,
    /// Electrical power draw.
    pub power: Watts,
    /// Terminal mass.
    pub mass: Kilograms,
}

impl FsoLink {
    /// Sizes a LEO–LEO link for `rate` assuming FSO power efficiency
    /// improved by `efficiency_scalar` (≥ 1) over today — `1.0` is today's
    /// terminals, larger values e.g. DARPA Space-BACN-style terminals
    /// (paper §IV-B discussion).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative/non-finite or `efficiency_scalar < 1`.
    #[must_use]
    pub fn for_rate_with_efficiency(rate: GigabitsPerSecond, efficiency_scalar: f64) -> Self {
        assert!(
            rate.is_finite() && rate.value() >= 0.0,
            "ISL rate must be finite and non-negative, got {rate}"
        );
        assert!(
            efficiency_scalar >= 1.0,
            "efficiency scalar must be >= 1, got {efficiency_scalar}"
        );
        let power = Watts::new(rate.value() * TODAYS_W_PER_GBPS / efficiency_scalar);
        let mass = if rate.value() == 0.0 {
            Kilograms::ZERO
        } else {
            Kilograms::new(FIXED_TERMINAL_MASS_KG + MASS_PER_GBPS_KG * rate.value())
        };
        Self {
            data_rate: rate,
            power,
            mass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn link_power_follows_todays_efficiency() {
        let link = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(25.0), 1.0);
        assert!((link.power.value() - 25.0 * TODAYS_W_PER_GBPS).abs() < 1e-12);
    }

    #[test]
    fn efficiency_scalar_reduces_power_not_mass() {
        let base = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(50.0), 1.0);
        let future = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(50.0), 10.0);
        assert!((future.power.value() - base.power.value() / 10.0).abs() < 1e-9);
        assert_eq!(future.mass, base.mass);
    }

    #[test]
    fn zero_rate_link_is_free() {
        let link = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::ZERO, 1.0);
        assert_eq!(link.power, Watts::ZERO);
        assert_eq!(link.mass, Kilograms::ZERO);
    }

    #[test]
    #[should_panic(expected = "efficiency scalar")]
    fn sub_unity_efficiency_panics() {
        let _ = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(1.0), 0.5);
    }

    proptest! {
        #[test]
        fn link_monotone_in_rate(r1 in 0.0..500.0f64, r2 in 0.0..500.0f64) {
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            let l_lo = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(lo), 1.0);
            let l_hi = FsoLink::for_rate_with_efficiency(GigabitsPerSecond::new(hi), 1.0);
            prop_assert!(l_lo.power <= l_hi.power);
            prop_assert!(l_lo.mass <= l_hi.mass);
        }
    }
}
