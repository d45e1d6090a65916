//! Cross-crate physics consistency: quantities derived in one substrate
//! must close against independent models in another.

use space_udc::comms::linkbudget::OpticalLink;
use space_udc::comms::requirements::saturation_rate;
use space_udc::compute::workloads;
use space_udc::constellation::EoConstellation;
use space_udc::core::design::SuDcDesign;
use space_udc::orbital::geometry::RingConstellation;
use space_udc::orbital::CircularOrbit;
use space_udc::reliability::mission::{try_simulate, MissionConfig, SparingPolicy};
use space_udc::reliability::weibull::WeibullLifetime;
use space_udc::reliability::NodePool;
use space_udc::sscm::calibration::{sample_cer, try_fit_cer};
use space_udc::sscm::subsystems::SubsystemCers;
use space_udc::units::{Meters, Watts};

/// The optical crosslink must close over the actual in-ring separations of
/// a 16-satellite EO ring at the ISL rates the SµDC provisions.
#[test]
fn isl_link_budget_closes_over_ring_geometry() {
    let ring = RingConstellation::new(CircularOrbit::reference_leo(), 16);
    let neighbor = ring.neighbor_distance();
    let link = OpticalLink::leo_crosslink();
    let achievable = link.achievable_rate(neighbor);

    // The worst-case per-EO-satellite feed into a 4 kW SµDC: the total
    // saturation rate divided across 16 feeders.
    let lightest = workloads::most_lightweight();
    let total_needed = saturation_rate(
        Watts::from_kilowatts(4.0),
        lightest.efficiency,
        space_udc::comms::requirements::DEFAULT_BITS_PER_PIXEL,
    );
    let per_feeder = total_needed / 16.0;
    assert!(
        achievable > per_feeder,
        "link closes {achievable} vs needed {per_feeder} at {neighbor}"
    );
}

/// Line of sight must hold for the separations dense constellations use —
/// and fail for sparse rings whose chords graze the atmosphere (with only
/// 8 satellites at 550 km, the neighbor chord dips below 100 km altitude).
#[test]
fn ring_line_of_sight_matches_the_geometry() {
    for n in [16, 32, 64] {
        let ring = RingConstellation::new(CircularOrbit::reference_leo(), n);
        assert!(
            ring.has_line_of_sight(1, Meters::new(100e3)),
            "ring of {n}: neighbors blocked?"
        );
    }
    let sparse = RingConstellation::new(CircularOrbit::reference_leo(), 8);
    assert!(!sparse.has_line_of_sight(1, Meters::new(100e3)));
}

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
    let weibull = WeibullLifetime::exponential()
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

/// The accelerator pipeline must sustain the constellation's inference
/// demand: throughput from `sudc-accel` vs arrival rate from `sudc-orbital`.
#[test]
fn per_layer_pipeline_keeps_up_with_the_constellation() {
    use space_udc::accel::pipeline::analyze_homogeneous;
    use space_udc::accel::AcceleratorConfig;
    use space_udc::compute::networks::NetworkId;
    use space_udc::orbital::imaging::Imager;

    let timing = analyze_homogeneous(
        &NetworkId::ResNet50.network(),
        AcceleratorConfig::reference(),
    );
    // 64 EO satellites x ~4 frames/min effective, tiled into 224^2 tiles:
    // each 67 Mpixel frame is ~1340 tiles.
    let frames_per_second =
        Imager::reference().frames_per_minute(CircularOrbit::reference_leo()) * 0.6 * 64.0 / 60.0;
    let tiles_per_frame = 67.0e6 / (224.0 * 224.0);
    let tile_rate = frames_per_second * tiles_per_frame;
    assert!(
        timing.throughput * 64.0 > tile_rate,
        "64 pipelines at {:.0}/s vs demand {tile_rate:.0}/s",
        timing.throughput * 64.0
    );
}
