//! Cross-crate consistency: a quantity one crate derives must close
//! against an independent model in another — the sized SµDC's ISL against
//! the constellation's feed, three availability models at their shared
//! exponential point, the shipped CERs against the calibration fitter, and
//! every trace-set report against the others over the same replications.

use space_udc::chaos::{Campaign, ChaosSummary, HealthReport};
use space_udc::constellation::EoConstellation;
use space_udc::core::design::SuDcDesign;
use space_udc::health::HealthConfig;
use space_udc::reliability::mission::{try_simulate, MissionConfig, SparingPolicy};
use space_udc::reliability::weibull::WeibullLifetime;
use space_udc::reliability::NodePool;
use space_udc::router::ReplayReport;
use space_udc::sim::{try_replicate, SimSummary};
use space_udc::sscm::calibration::{sample_cer, try_fit_cer};
use space_udc::sscm::subsystems::SubsystemCers;
use space_udc::units::{Seconds, Watts};

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

/// The chaos, health, sim and replay reports summarize a trace set with
/// one rule: over the same replications, the fields they share are the
/// same bits.
#[test]
fn trace_set_reports_agree_bit_for_bit_on_shared_fields() {
    let duration = Seconds::new(900.0);
    let campaign = Campaign::solar_storm(duration);
    let (spares, reps, seed) = (2, 2, 11);
    let cell_cfg = campaign.reference_cell(spares, duration).unwrap();

    let chaos =
        ChaosSummary::try_run_campaigns(&[campaign], duration, &[spares], reps, seed).unwrap();
    let cell = chaos.cell(campaign.name, spares).unwrap();
    let traces = try_replicate(&cell_cfg, reps, seed).unwrap();
    let replay = ReplayReport::try_from_traces(campaign.name, 1.0, traces.clone()).unwrap();
    let sim = SimSummary::try_from_traces(traces).unwrap();
    for (what, chaos_bits, sim_bits, replay_bits) in [
        (
            "availability",
            cell.availability,
            sim.mean_availability,
            replay.mean_availability,
        ),
        (
            "delivery p99",
            cell.delivery_p99_s,
            sim.mean_delivery_p99,
            replay.mean_delivery_p99_s,
        ),
    ] {
        assert_eq!(
            chaos_bits.to_bits(),
            sim_bits.to_bits(),
            "{what}: chaos vs sim"
        );
        assert_eq!(
            chaos_bits.to_bits(),
            replay_bits.to_bits(),
            "{what}: chaos vs replay"
        );
    }
    assert_eq!(
        cell.delivered_fraction.to_bits(),
        replay.delivered_fraction.to_bits(),
        "delivered fraction: chaos vs replay"
    );

    let contract = HealthConfig::standard();
    let health =
        HealthReport::try_run_campaigns(&[campaign], duration, spares, reps, contract, seed)
            .unwrap();
    let arm = health.cell(campaign.name, true).unwrap();
    let arm_cfg = cell_cfg.with_health(HealthConfig {
        closed_loop: true,
        ..contract
    });
    let replay = ReplayReport::try_from_traces(
        campaign.name,
        1.0,
        try_replicate(&arm_cfg, reps, seed).unwrap(),
    )
    .unwrap();
    assert_eq!(
        arm.availability.to_bits(),
        replay.mean_availability.to_bits()
    );
    assert_eq!(
        arm.slo_attainment.to_bits(),
        replay.slo_attainment.to_bits()
    );
}
