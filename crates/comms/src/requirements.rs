//! ISL capacity required to saturate a compute payload (Fig. 8).
//!
//! A compute payload running an application with energy efficiency `e`
//! (kpixel/J) consumes pixels at `e × P` kpixel/s when drawing `P` watts.
//! The ISL must deliver `bits_per_pixel` for every pixel, so the saturation
//! rate is linear in both the power budget and the application's efficiency
//! — which is why the paper's *most lightweight* (highest kpixel/J)
//! applications set the worst-case ISL requirement.

use sudc_units::{GigabitsPerSecond, KilopixelsPerJoule, Watts};

/// Raw bits per pixel of EO sensor data (12-bit sensels padded to 16-bit
/// transport words).
pub const DEFAULT_BITS_PER_PIXEL: f64 = 12.0;

/// ISL rate that keeps a payload of `budget` watts fully fed when running an
/// application of the given energy efficiency, with `bits_per_pixel` crossing
/// the link per processed pixel.
///
/// # Panics
///
/// Panics if any argument is negative or non-finite.
///
/// # Examples
///
/// ```
/// use sudc_comms::requirements::{saturation_rate, DEFAULT_BITS_PER_PIXEL};
/// use sudc_units::{KilopixelsPerJoule, Watts};
///
/// // Paper: "a 500 W SµDC needs no more than 25 Gbit/s ISL to support even
/// // the most lightweight applications" (Traffic Monitoring, 2597 kpixel/J).
/// let rate = saturation_rate(
///     Watts::new(500.0),
///     KilopixelsPerJoule::new(2597.0),
///     DEFAULT_BITS_PER_PIXEL,
/// );
/// assert!(rate.value() < 25.0);
/// ```
#[must_use]
pub fn saturation_rate(
    budget: Watts,
    efficiency: KilopixelsPerJoule,
    bits_per_pixel: f64,
) -> GigabitsPerSecond {
    assert!(
        budget.is_finite() && budget.value() >= 0.0,
        "power budget must be finite and non-negative, got {budget}"
    );
    assert!(
        efficiency.is_finite() && efficiency.value() >= 0.0,
        "efficiency must be finite and non-negative, got {efficiency}"
    );
    assert!(
        bits_per_pixel.is_finite() && bits_per_pixel >= 0.0,
        "bits per pixel must be finite and non-negative, got {bits_per_pixel}"
    );
    let pixels_per_second = efficiency.value() * 1e3 * budget.value();
    GigabitsPerSecond::new(pixels_per_second * bits_per_pixel / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lightweight_apps_need_more_bandwidth() {
        let budget = Watts::from_kilowatts(4.0);
        let traffic = saturation_rate(budget, KilopixelsPerJoule::new(2597.0), 12.0);
        let panoptic = saturation_rate(budget, KilopixelsPerJoule::new(20.0), 12.0);
        assert!(traffic.value() > 100.0 * panoptic.value());
    }

    #[test]
    fn five_hundred_watt_worst_case_is_under_25_gbps() {
        // The Fig. 7/8 anchor quoted in the paper text.
        let rate = saturation_rate(
            Watts::new(500.0),
            KilopixelsPerJoule::new(2597.0),
            DEFAULT_BITS_PER_PIXEL,
        );
        assert!(rate.value() < 25.0, "got {rate}");
        assert!(
            rate.value() > 10.0,
            "should still be >10 Gbit/s, got {rate}"
        );
    }

    #[test]
    fn requirement_scales_linearly_with_power() {
        let eff = KilopixelsPerJoule::new(843.0);
        let r1 = saturation_rate(Watts::new(500.0), eff, 12.0);
        let r2 = saturation_rate(Watts::new(10_000.0), eff, 12.0);
        assert!((r2.value() / r1.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power budget")]
    fn negative_budget_panics() {
        let _ = saturation_rate(Watts::new(-1.0), KilopixelsPerJoule::new(1.0), 12.0);
    }

    proptest! {
        #[test]
        fn rate_monotone_in_both_arguments(
            p1 in 0.0..10_000.0f64,
            p2 in 0.0..10_000.0f64,
            e in 1.0..3000.0f64,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let eff = KilopixelsPerJoule::new(e);
            prop_assert!(
                saturation_rate(Watts::new(lo), eff, 12.0)
                    <= saturation_rate(Watts::new(hi), eff, 12.0)
            );
        }
    }
}
