//! Property-based tests over the end-to-end design pipeline.
//!
//! Each property runs a reduced number of cases (the pipeline is a full
//! physical + cost closure per evaluation).

use proptest::prelude::*;
use space_udc::core::design::SuDcDesign;
use space_udc::units::{GigabitsPerSecond, Watts, Years};

fn tco(kw: f64, years: f64) -> f64 {
    SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(kw))
        .lifetime(Years::new(years))
        .try_build()
        .expect("valid design")
        .try_tco()
        .expect("valid sizing")
        .total()
        .value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tco_is_monotone_in_compute_power(
        p1 in 0.2..12.0f64,
        p2 in 0.2..12.0f64,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(tco(lo, 5.0) <= tco(hi, 5.0) + 1.0);
    }

    #[test]
    fn tco_is_monotone_in_lifetime(
        y1 in 1.0..12.0f64,
        y2 in 1.0..12.0f64,
    ) {
        let (lo, hi) = if y1 <= y2 { (y1, y2) } else { (y2, y1) };
        prop_assert!(tco(4.0, lo) <= tco(4.0, hi) + 1.0);
    }

    #[test]
    fn tco_is_sublinear_in_power_everywhere(p in 0.3..5.0f64) {
        // Doubling compute power must less than double TCO at any scale.
        let base = tco(p, 5.0);
        let doubled = tco(2.0 * p, 5.0);
        prop_assert!(doubled < 2.0 * base, "{p} kW: {base} -> {doubled}");
    }

    #[test]
    fn efficiency_factor_never_raises_tco(
        p in 0.5..8.0f64,
        eff in 1.0..200.0f64,
    ) {
        let base = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(p))
            .isl_rate(GigabitsPerSecond::new(20.0))
            .try_build()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        let accel = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(p))
            .efficiency_factor(eff)
            .isl_rate(GigabitsPerSecond::new(20.0))
            .try_build()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        prop_assert!(accel <= base);
    }

    #[test]
    fn isl_rate_never_lowers_tco(
        r1 in 0.0..300.0f64,
        r2 in 0.0..300.0f64,
    ) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let at = |rate: f64| {
            SuDcDesign::builder()
                .compute_power(Watts::from_kilowatts(2.0))
                .isl_rate(GigabitsPerSecond::new(rate))
                .try_build()
                .unwrap()
                .try_tco()
                .unwrap()
                .total()
        };
        prop_assert!(at(lo) <= at(hi));
    }

    #[test]
    fn spares_cost_less_than_a_percent_each(spares in 0u32..40) {
        let base = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .try_build()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        let spared = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .spares(spares)
            .try_build()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        let overhead = spared / base - 1.0;
        prop_assert!(overhead <= f64::from(spares) * 0.001 + 1e-9);
    }
}
