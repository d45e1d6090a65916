//! Cross-crate consistency of the full design pipeline: a design's physical
//! sizing, its SSCM inputs, and its TCO report must all agree.

use space_udc::core::design::{SuDcDesign, SuDcDesignBuilder};
use space_udc::core::tco::TcoLine;
use space_udc::units::{GigabitsPerSecond, Usd, Watts, Years};

fn design(kw: f64) -> SuDcDesignBuilder {
    SuDcDesign::builder().compute_power(Watts::from_kilowatts(kw))
}

#[test]
fn sizing_closure_is_self_consistent() {
    for p in [0.5, 1.0, 4.0, 10.0] {
        let sized = design(p).try_build().unwrap().size().unwrap();
        // Component masses must fit inside the dry mass.
        let components = sized.payload_mass
            + sized.thermal.mass()
            + sized.power.mass()
            + sized.cdh.mass()
            + sized.structure_mass;
        assert!(
            components < sized.dry_mass,
            "{p} kW: components exceed dry mass"
        );
        // EOL load covers every consumer.
        let consumers = sized.physical_compute_power + sized.cdh.power() + sized.thermal.pump_power;
        assert!(sized.power.eol_load >= consumers, "{p} kW: load accounting");
        // The radiator rejects the full heat load plus pump work.
        let emitted = sized
            .thermal
            .radiator
            .emitted_power(sized.thermal.radiator_temperature);
        assert!(
            (emitted - (sized.thermal.heat_load + sized.thermal.pump_power)).abs()
                < Watts::new(1.0),
            "{p} kW: thermal closure"
        );
    }
}

#[test]
fn sscm_inputs_from_sizing_always_validate() {
    for p in [0.5, 2.0, 4.0, 8.0, 10.0] {
        let sized = design(p).try_build().unwrap().size().unwrap();
        sized
            .sscm_inputs()
            .try_validate()
            .expect("pipeline inputs are valid");
    }
}

#[test]
fn tco_lines_sum_to_total() {
    let report = design(4.0).try_build().unwrap().try_tco().unwrap();
    let sum: Usd = report.lines().into_iter().map(|(_, c)| c).sum();
    assert!((sum - report.total()).abs() < Usd::new(1.0));
}

#[test]
fn reports_serialize_to_json() {
    let report = design(4.0).try_build().unwrap().try_tco().unwrap();
    let json = report.to_json().to_string_pretty();
    assert!(json.contains("Power"));
    assert!(json.contains("total_usd"));
    let sized = design(4.0).try_build().unwrap().size().unwrap();
    let json = sized.to_json().to_string_compact();
    assert!(json.contains("dry_mass"));
}

#[test]
fn fixed_isl_overrides_auto_sizing() {
    let fixed = design(4.0)
        .isl_rate(GigabitsPerSecond::new(10.0))
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    assert_eq!(fixed.isl_rate, GigabitsPerSecond::new(10.0));
    let auto = design(4.0).try_build().unwrap().size().unwrap();
    assert!(auto.isl_rate.value() > 100.0);
    let typical = design(4.0)
        .isl_typical()
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    assert!(typical.isl_rate < auto.isl_rate);
    assert!(typical.isl_rate.value() > 1.0);
}

#[test]
fn larger_designs_dominate_smaller_ones_everywhere() {
    let small = design(1.0).try_build().unwrap().size().unwrap();
    let large = design(8.0).try_build().unwrap().size().unwrap();
    assert!(large.dry_mass > small.dry_mass);
    assert!(large.fuel_mass > small.fuel_mass);
    assert!(large.payload_price > small.payload_price);
    assert!(large.power.bol_array_power() > small.power.bol_array_power());
    assert!(large.thermal.radiator_area() > small.thermal.radiator_area());
    assert!(large.try_tco().unwrap().total() > small.try_tco().unwrap().total());
}

#[test]
fn lifetime_moves_fuel_and_power_but_not_payload() {
    let short = design(4.0)
        .lifetime(Years::new(2.0))
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    let long = design(4.0)
        .lifetime(Years::new(8.0))
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    assert!(long.fuel_mass > short.fuel_mass);
    assert!(long.power.bol_array_power() > short.power.bol_array_power());
    assert_eq!(long.payload_units, short.payload_units);
}

#[test]
fn orbit_altitude_affects_fuel_budget() {
    use space_udc::orbital::CircularOrbit;
    use space_udc::units::Meters;
    let low = design(4.0)
        .orbit(CircularOrbit::from_altitude(Meters::new(400e3)))
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    let high = design(4.0)
        .orbit(CircularOrbit::from_altitude(Meters::new(800e3)))
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    assert!(
        low.fuel_mass > high.fuel_mass,
        "denser atmosphere needs more station-keeping fuel"
    );
}

#[test]
fn share_accounting_is_complete() {
    let report = design(4.0).try_build().unwrap().try_tco().unwrap();
    let total: f64 = report.lines().iter().map(|&(l, _)| report.share(l)).sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert!(report.share(TcoLine::Launch) > 0.0);
    assert!(report.share(TcoLine::Operations) > 0.0);
}

#[test]
fn facade_reexports_are_wired() {
    // Compile-time check that the facade exposes every subsystem crate.
    let _ = space_udc::units::Watts::new(1.0);
    let _ = space_udc::orbital::CircularOrbit::reference_leo();
    let _ = space_udc::thermal::HeatPump::spacecraft_default();
    let _ = space_udc::comms::Compression::Ccsds121;
    let _ = space_udc::compute::hardware::rtx_3090();
    let _ = space_udc::sscm::LearningCurve::aerospace_default();
    let _ = space_udc::terrestrial::TerrestrialModel::hardy_default();
    let _ = space_udc::reliability::RedundancyScheme::Software;
    let _ = space_udc::constellation::EoConstellation::reference(8);
}
