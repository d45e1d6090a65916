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
use space_udc::sim::{try_replicate, Outcome, SimSummary};
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
/// one rule: over the same replications, the chaos cell, the health arm
/// and the sim summary hold the same `Outcome`, and the replay audit's
/// copied fields are its bits.
#[test]
fn trace_set_reports_agree_bit_for_bit_on_shared_fields() {
    let duration = Seconds::new(900.0);
    let campaign = Campaign::solar_storm(duration);
    let (spares, reps, seed) = (2, 2, 11);
    let contract = HealthConfig::standard();
    let cell_cfg = campaign.reference_cell(spares, duration).unwrap();
    let arm_cfg = cell_cfg.with_health(HealthConfig {
        closed_loop: true,
        ..contract
    });

    let chaos = ChaosSummary::try_run_campaigns(&[campaign], duration, &[spares], reps, seed)
        .unwrap()
        .cell(campaign.name, spares)
        .unwrap()
        .outcome;
    let health =
        HealthReport::try_run_campaigns(&[campaign], duration, spares, reps, contract, seed)
            .unwrap()
            .cell(campaign.name, true)
            .unwrap()
            .outcome;
    for (what, cfg, held) in [
        ("chaos cell", cell_cfg, chaos),
        ("health arm", arm_cfg, health),
    ] {
        let traces = try_replicate(&cfg, reps, seed).unwrap();
        let o = Outcome::try_from_traces(&traces).unwrap();
        assert_eq!(held, o, "{what}");

        let r = ReplayReport::try_from_traces(campaign.name, 1.0, traces.clone()).unwrap();
        assert_eq!(r.reps, o.reps, "{what}: replay reps");
        for (field, copied, value) in [
            ("slo_attainment", r.slo_attainment, o.slo_attainment),
            ("mean_availability", r.mean_availability, o.availability),
            (
                "delivered_fraction",
                r.delivered_fraction,
                o.delivered_fraction,
            ),
            ("mean_delivery_p99_s", r.mean_delivery_p99_s, o.delivery.p99),
        ] {
            assert_eq!(copied.to_bits(), value.to_bits(), "{what}: replay {field}");
        }

        let sim = SimSummary::try_from_traces(traces).unwrap();
        assert_eq!(sim.outcome, o, "{what}: sim summary");
    }
}
