//! Cross-crate consistency: a quantity one crate derives must close
//! against an independent model in another — the sized SµDC's ISL against
//! the constellation's feed, three availability models at their shared
//! exponential point, and the shipped CERs against the calibration fitter.

use space_udc::constellation::EoConstellation;
use space_udc::core::design::SuDcDesign;
use space_udc::reliability::mission::{try_simulate, MissionConfig, SparingPolicy};
use space_udc::reliability::weibull::WeibullLifetime;
use space_udc::reliability::NodePool;
use space_udc::sscm::calibration::{sample_cer, try_fit_cer};
use space_udc::sscm::subsystems::SubsystemCers;
use space_udc::units::Watts;

/// The constellation's aggregate data rate must be deliverable over the
/// provisioned SµDC ISL (the SµDC never receives more than it provisioned).
#[test]
fn constellation_feed_fits_the_provisioned_isl() {
    let constellation = EoConstellation::reference(64);
    let sized = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .try_build()
        .unwrap()
        .size()
        .unwrap();
    assert!(
        sized.isl_rate.value() > constellation.data_rate().value(),
        "provisioned {} vs constellation {}",
        sized.isl_rate,
        constellation.data_rate()
    );
}

/// Three independent availability models must agree at the exponential
/// special case: analytic binomial, Weibull(k=1), and the mission
/// Monte-Carlo with hot sparing.
#[test]
fn three_availability_models_agree_at_the_exponential_point() {
    use space_udc::reliability::availability::DEFAULT_MC_SEED;
    let t = 0.7;
    let analytic = NodePool::try_new(20, 10)
        .unwrap()
        .try_availability(t)
        .unwrap();
    let weibull = WeibullLifetime::try_with_unit_mean(1.0)
        .unwrap()
        .try_availability(20, 10, t)
        .unwrap();
    let mc = try_simulate(
        MissionConfig {
            nodes: 20,
            required: 10,
            duration: t,
            policy: SparingPolicy::Hot,
        },
        40_000,
        DEFAULT_MC_SEED,
    )
    .unwrap()
    .full_capability_probability;
    assert!((analytic - weibull).abs() < 1e-12);
    assert!(
        (analytic - mc).abs() < 0.02,
        "analytic {analytic} vs MC {mc}"
    );
}

/// The calibration fitter must recover the shipped power-subsystem CER from
/// its own samples (round-trip through the public API).
#[test]
fn shipped_cers_roundtrip_through_the_fitter() {
    let cers = SubsystemCers::sudc_default();
    let obs = sample_cer(&cers.power.re, &[500.0, 1300.0, 4000.0, 11_000.0, 27_000.0]);
    let fit = try_fit_cer(&obs).unwrap();
    assert!((fit.cer.exponent - cers.power.re.exponent).abs() < 1e-9);
    assert!(fit.r_squared > 0.999_999);
    for driver in [900.0, 8000.0] {
        let a = cers.power.re.evaluate(driver).value();
        let b = fit.cer.evaluate(driver).value();
        assert!((a - b).abs() / a < 1e-9);
    }
}
