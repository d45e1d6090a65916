//! Adversarial panic-freedom harness over the workspace's public `try_*`
//! entry points.
//!
//! Every fallible constructor/validator introduced by the structured-error
//! work is driven with hostile numeric inputs — NaN, ±∞, negatives, zeros,
//! huge magnitudes, signed zero, and subnormal-adjacent values — and must
//! return `Ok` or a *structured* `Err` (non-empty violation list, each
//! violation naming a parameter path and an allowed range). A panic anywhere
//! fails the test.
//!
//! Case counts honour `SUDC_PROPTEST_CASES` so CI can run a reduced smoke
//! pass (see `.github/workflows/ci.yml`).

use proptest::prelude::*;
use space_udc::accel::dse::{try_gpu_joules_per_mac, try_run_dse};
use space_udc::accel::energy::EnergyTable;
use space_udc::accel::AcceleratorConfig;
use space_udc::bus::{Durability, QosContract};
use space_udc::chaos::ChaosSummary;
use space_udc::compute::gpu::GpuEnergyModel;
use space_udc::core::dynamics::DynamicScenario;
use space_udc::core::tco::TcoReport;
use space_udc::core::{Scenario, SuDcDesign};
use space_udc::errors::SudcError;
use space_udc::health::HealthConfig;
use space_udc::orbital::radiation::{
    try_dose_rate, try_mission_dose, RadiationRegime, TidAssessment,
};
use space_udc::par::json::Json;
use space_udc::par::rng::Rng64;
use space_udc::reliability::softerror::imagenet_suite;
use space_udc::router::{Router, RouterConfig, StreamConfig};
use space_udc::sim::{
    try_percentile, try_replicate, try_run, FaultConfig, IslFlaps, SimConfig, SimSummary,
    StormModel, DEFAULT_SEED,
};
use space_udc::sscm::calibration::{try_fit_cer, Observation};
use space_udc::sscm::cer::Cer;
use space_udc::sscm::sensitivity::try_tornado;
use space_udc::sscm::subsystems::SubsystemCers;
use space_udc::sscm::{CostEstimate, LearningCurve, SscmInputs, Subsystem, SubsystemCost};
use space_udc::units::{Kilograms, KradSi, Seconds, Usd, Watts, Years};

/// Maps a selector to one of eight hostile floats. `mag` (drawn from
/// `1.0..9.0`) varies the huge/negative magnitudes across cases.
fn hostile(sel: u32, mag: f64) -> f64 {
    match sel % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -mag,
        4 => 0.0,
        5 => mag * 1e300,
        6 => -0.0,
        _ => f64::MIN_POSITIVE,
    }
}

/// The reference router pricing tables, derived once — the derivation
/// walks the scenario design and TCO pipeline, too slow per property
/// case.
fn router_config() -> RouterConfig {
    static CFG: std::sync::OnceLock<RouterConfig> = std::sync::OnceLock::new();
    CFG.get_or_init(|| RouterConfig::try_reference().unwrap())
        .clone()
}

/// A structured error carries at least one violation, and every violation
/// names a parameter path and an allowed range.
fn structured(e: &SudcError) -> bool {
    !e.context().is_empty()
        && !e.violations().is_empty()
        && e.violations()
            .iter()
            .all(|v| !v.path.is_empty() && !v.allowed.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(48))]

    #[test]
    fn units_try_new_accepts_exactly_finite(sel in 0u32..8, mag in 1.0..9.0f64) {
        let h = hostile(sel, mag);
        for result in [
            Watts::try_new(h).map(|_| ()),
            Kilograms::try_new(h).map(|_| ()),
            Years::try_new(h).map(|_| ()),
            Usd::try_new(h).map(|_| ()),
        ] {
            prop_assert_eq!(result.is_ok(), h.is_finite());
            if let Err(e) = result {
                prop_assert!(structured(&e), "{e}");
            }
        }
    }

    #[test]
    fn cer_try_new_survives_hostile_inputs(
        s1 in 0u32..8, s2 in 0u32..8, s3 in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let (base, reference, exponent) = (hostile(s1, mag), hostile(s2, mag), hostile(s3, mag));
        let result = Cer::try_new(Usd::new(base), reference, exponent);
        let valid = base.is_finite()
            && reference.is_finite()
            && reference > 0.0
            && (0.0..=2.0).contains(&exponent);
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn cer_valid_inputs_always_build(
        base in 0.1..500.0f64, reference in 0.1..500.0f64, exponent in 0.0..2.0f64,
    ) {
        prop_assert!(Cer::try_new(Usd::from_millions(base), reference, exponent).is_ok());
    }

    #[test]
    fn learning_curve_try_new_accepts_exactly_half_open_unit(sel in 0u32..8, mag in 1.0..9.0f64) {
        let h = hostile(sel, mag);
        let result = LearningCurve::try_new(h);
        let valid = h.is_finite() && h > 0.0 && h <= 1.0;
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn wright_cost_queries_never_panic(n in 0u32..5, sel in 0u32..8, mag in 1.0..9.0f64) {
        let curve = LearningCurve::try_new(0.9).expect("0.9 is a valid progress ratio");
        let first_unit = Usd::new(hostile(sel, mag));
        for result in [
            curve.try_unit_cost(first_unit, n).map(|_| ()),
            curve.try_average_cost(first_unit, n).map(|_| ()),
        ] {
            if n == 0 {
                prop_assert!(result.is_err());
            }
            if let Err(e) = result {
                prop_assert!(structured(&e), "{e}");
            }
        }
    }

    #[test]
    fn sscm_inputs_try_validate_flags_hostile_fields(
        field in 0u32..10, sel in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let h = hostile(sel, mag);
        let mut inputs = SscmInputs::reference();
        match field {
            0 => inputs.lifetime = Years::new(h),
            1 => inputs.bol_power = Watts::new(h),
            2 => inputs.dry_mass = Kilograms::new(h),
            3 => inputs.fuel_mass = Kilograms::new(h),
            4 => inputs.structure_mass = Kilograms::new(h),
            5 => inputs.thermal_mass = Kilograms::new(h),
            6 => inputs.power_mass = Kilograms::new(h),
            7 => inputs.rf_equivalent_rate = space_udc::units::GigabitsPerSecond::new(h),
            8 => inputs.pointing_arcsec = h,
            _ => inputs.compute_hardware_cost = Usd::new(h),
        }
        let result = inputs.try_validate();
        if !(h.is_finite() && h >= 0.0) {
            prop_assert!(result.is_err());
        }
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn cost_estimate_try_new_rejects_exactly_non_finite_items(
        sel in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let h = hostile(sel, mag);
        let items = vec![
            SubsystemCost {
                subsystem: Subsystem::Power,
                nre: Usd::new(h),
                re: Usd::from_millions(1.0),
            },
            SubsystemCost {
                subsystem: Subsystem::Thermal,
                nre: Usd::from_millions(2.0),
                re: Usd::from_millions(1.0),
            },
        ];
        let result = CostEstimate::try_new(items);
        prop_assert_eq!(result.is_ok(), h.is_finite());
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
            prop_assert!(
                e.violations().iter().any(|v| v.path.contains("items[0]")),
                "{e}"
            );
        }
    }

    #[test]
    fn fit_cer_survives_hostile_observations(sel in 0u32..8, mag in 1.0..9.0f64) {
        let h = hostile(sel, mag);
        let observations = [
            Observation { driver: 10.0, cost: Usd::from_millions(2.0) },
            Observation { driver: h, cost: Usd::from_millions(3.0) },
            Observation { driver: 40.0, cost: Usd::new(h) },
        ];
        let result = try_fit_cer(&observations);
        if !(h.is_finite() && h > 0.0) {
            prop_assert!(result.is_err());
        }
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn sim_config_try_validate_survives_hostile_fields(
        field in 0u32..9, sel in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let h = hostile(sel, mag);
        let mut cfg = SimConfig::try_cold_spare_mission(8, 4, 0.1, 0.5).unwrap();
        match field {
            0 => cfg.tick_seconds = h,
            1 => cfg.frame_interval_ticks = h,
            2 => cfg.imaging_duty = h,
            3 => cfg.phase_spread = h,
            4 => cfg.filtering = h,
            5 => cfg.isl_transfer_ticks = h,
            6 => cfg.mttf_ticks = h,
            7 => cfg.weibull_shape = h,
            _ => cfg.dormant_aging = h,
        }
        // A config that fails validation is refused by the kernel entry
        // point with the same error, before any work; the valid extremes
        // are run by the property below.
        if let Err(e) = cfg.try_validate() {
            prop_assert!(structured(&e), "{e}");
            prop_assert_eq!(try_run(&cfg, DEFAULT_SEED, ()).err(), Some(e));
        }
    }

    /// Valid configs whose delays reach past the `u64` tick clock run to
    /// completion: every schedule saturates, so an event due after the
    /// clock ends is never handled, instead of overflowing (a debug
    /// panic) or wrapping into the past (a silently wrong release run).
    /// Each run balances the capture ledger, and the stage behind an
    /// unreachable delay never completes.
    #[test]
    fn valid_configs_with_extreme_delays_run_to_completion(
        field in 0u32..7, mag in 1.0..9.0f64, seed in 0u64..1000,
    ) {
        let huge = hostile(5, mag);
        let mut cfg = SimConfig::reference_operations(Seconds::new(60.0));
        let mut faults = FaultConfig::default();
        match field {
            0 => cfg.isl_transfer_ticks = huge,
            1 => cfg.service_ticks_per_image = huge,
            2 => cfg.batch_timeout_ticks = u64::MAX,
            3 => cfg.frame_interval_ticks = huge,
            4 => {
                // Every completion is corrupted, and each retry waits
                // out a jitter drawn over all of `u64`.
                faults.upset_probability = 1.0;
                faults.policy.backoff_jitter_ticks = u64::MAX;
            }
            5 => {
                faults.storm = Some(StormModel {
                    period_ticks: u64::MAX,
                    duration_ticks: 100,
                    offset_ticks: 10,
                    seu_multiplier: 1.0,
                    node_kill_probability: 0.0,
                    major_probability: 0.0,
                    major_multiplier: 1.0,
                });
            }
            _ => {
                faults.isl = Some(IslFlaps {
                    links: 1,
                    mean_up_ticks: 50.0,
                    mean_down_ticks: huge,
                });
            }
        }
        let cfg = cfg.with_faults(faults);
        prop_assert!(cfg.try_validate().is_ok(), "field {field} must be valid");
        let run = try_run(&cfg, seed, ());
        prop_assert!(run.is_ok(), "field {field}: {:?}", run.err());
        let (t, ()) = run.unwrap();
        // The capture ledger, as far as the trace alone can close it.
        prop_assert_eq!(t.captured, t.filtered_out + t.arrived);
        prop_assert!(
            t.delivered + t.shed_batch_overflow + t.shed_deadline + t.retry_exhausted
                <= t.arrived
        );
        prop_assert!(t.delivered + t.shed_downlink_overflow <= t.processed);
        prop_assert!(t.processed <= t.arrived);
        // What each extreme leaves of the pipeline: the first transfer or
        // batch never ends; full batches dispatch without the timeout; no
        // first capture falls inside the run; no retry returns; storms
        // leave the pipeline moving; a link that goes down stays down.
        let expected = match field {
            0 | 1 => t.processed == 0,
            2 => t.processed > 0,
            3 => t.captured == 0,
            4 => t.processed == 0 && t.retries == t.corrupted,
            5 => t.arrived > 0,
            _ => t.isl_flaps <= 1,
        };
        prop_assert!(
            expected,
            "field {field}: {} captured, {} processed, {} of {} corrupted retried, {} flaps",
            t.captured,
            t.processed,
            t.retries,
            t.corrupted,
            t.isl_flaps
        );
    }

    #[test]
    fn cold_spare_mission_fuzz(
        nodes in 0u32..40, required in 0u32..40, sel1 in 0u32..8, sel2 in 0u32..8,
        mag in 1.0..9.0f64,
    ) {
        let aging = hostile(sel1, mag);
        let duration = hostile(sel2, mag);
        let result = SimConfig::try_cold_spare_mission(nodes, required, aging, duration);
        if required == 0 || required > nodes {
            prop_assert!(result.is_err());
        }
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn percentile_rejects_exactly_out_of_range_quantiles(
        sel in 0u32..8, mag in 1.0..9.0f64, q in -1.0..2.0f64,
    ) {
        let sorted = [1u64, 2, 3, 5, 8];
        let h = hostile(sel, mag);
        let hostile_result = try_percentile(&sorted, h);
        let h_valid = h.is_finite() && (0.0..=1.0).contains(&h);
        prop_assert_eq!(hostile_result.is_ok(), h_valid);
        if let Err(e) = hostile_result {
            prop_assert!(structured(&e), "{e}");
        }
        prop_assert_eq!(try_percentile(&sorted, q).is_ok(), (0.0..=1.0).contains(&q));
    }

    #[test]
    fn tco_report_try_new_rejects_bad_costs(sel in 0u32..8, mag in 1.0..9.0f64) {
        let h = hostile(sel, mag);
        let estimate = SubsystemCers::sudc_default()
            .try_estimate(&SscmInputs::reference())
            .expect("reference inputs are valid");
        let result = TcoReport::try_new(estimate, Usd::new(h), Usd::from_millions(3.0));
        prop_assert_eq!(result.is_ok(), h.is_finite() && h >= 0.0);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn rng_try_range_validates_before_drawing(
        sel1 in 0u32..8, sel2 in 0u32..8, mag in 1.0..9.0f64, seed in 0u64..1000,
    ) {
        let (lo, hi) = (hostile(sel1, mag), hostile(sel2, mag));
        let mut rng = Rng64::new(seed);
        let result = rng.try_range(lo, hi);
        let valid = lo.is_finite() && hi.is_finite() && lo < hi;
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
        // A rejected draw must not have consumed randomness.
        if !valid {
            let mut fresh = Rng64::new(seed);
            prop_assert_eq!(rng.next_u64(), fresh.next_u64());
        }
    }

    #[test]
    fn rng_try_below_rejects_exactly_zero(bound in 0u64..10, seed in 0u64..1000) {
        let result = Rng64::new(seed).try_below(bound);
        prop_assert_eq!(result.is_ok(), bound > 0);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn json_u64_conversion_is_checked_around_2_pow_53(off in 0u64..1_048_576) {
        let n = (1u64 << 53) - 524_288 + off;
        let result = Json::try_from(n);
        prop_assert_eq!(result.is_ok(), n <= (1u64 << 53));
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn softerror_try_forms_reject_exactly_invalid_epsilons(sel in 0u32..8, mag in 1.0..9.0f64) {
        let h = hostile(sel, mag);
        let valid = h.is_finite() && (0.0..=1.0).contains(&h);
        for model in imagenet_suite() {
            model.try_validate().expect("suite models are valid");
            let p = model.try_corruption_probability(h);
            prop_assert_eq!(p.is_ok(), valid);
            match p {
                Ok(p) => {
                    prop_assert!((0.0..=1.0).contains(&p));
                }
                Err(e) => {
                    prop_assert!(structured(&e), "{e}");
                }
            }
            let a = model.try_accuracy_under_faults(h);
            prop_assert_eq!(a.is_ok(), valid);
            if let Err(e) = a {
                prop_assert!(structured(&e), "{e}");
            }
        }
    }

    #[test]
    fn radiation_try_forms_reject_exactly_invalid_shielding(
        s1 in 0u32..8, s2 in 0u32..8, s3 in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let (shield, life, tolerance) = (hostile(s1, mag), hostile(s2, mag), hostile(s3, mag));
        let shield_ok = shield.is_finite() && shield >= 0.0;
        let rate = try_dose_rate(RadiationRegime::LeoNonPolar, shield);
        prop_assert_eq!(rate.is_ok(), shield_ok);
        if let Err(e) = rate {
            prop_assert!(structured(&e), "{e}");
        }
        let dose = try_mission_dose(RadiationRegime::LeoPolar, shield, Years::new(life));
        let life_ok = life.is_finite() && life >= 0.0;
        prop_assert_eq!(dose.is_ok(), shield_ok && life_ok);
        if let Err(e) = dose {
            prop_assert!(structured(&e), "{e}");
        }
        let assess = TidAssessment::try_assess(
            RadiationRegime::Geo,
            shield,
            Years::new(life),
            KradSi::new(tolerance),
        );
        let tolerance_ok = tolerance.is_finite() && tolerance >= 0.0;
        prop_assert_eq!(assess.is_ok(), shield_ok && life_ok && tolerance_ok);
        if let Err(e) = assess {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn chaos_grid_try_run_rejects_exactly_degenerate_grids(
        sel in 0u32..8, mag in 1.0..9.0f64, reps in 0u32..3, n_spares in 0usize..3,
    ) {
        let duration = hostile(sel, mag);
        let spares: Vec<u32> = (0..n_spares as u32).collect();
        // Drive only the validation path here: grids that would pass it
        // actually *run* (the report's own tests cover those), and a
        // hostile-but-positive duration could make that run unbounded.
        prop_assume!(!(duration.is_finite() && duration > 0.0) || reps == 0 || spares.is_empty());
        let result = ChaosSummary::try_run(Seconds::new(duration), &spares, reps, 7);
        prop_assert!(result.is_err());
        prop_assert!(structured(&result.unwrap_err()));
    }

    #[test]
    fn design_builder_try_build_rejects_exactly_invalid_parameters(
        sp in 0u32..8, se in 0u32..8, sf in 0u32..8, sl in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let (p, eff, fso, life) = (
            hostile(sp, mag),
            hostile(se, mag),
            hostile(sf, mag),
            hostile(sl, mag),
        );
        let result = SuDcDesign::builder()
            .compute_power(Watts::new(p))
            .efficiency_factor(eff)
            .fso_efficiency_scalar(fso)
            .lifetime(Years::new(life))
            .try_build();
        let valid = (p.is_finite() && p > 0.0)
            && (eff.is_finite() && eff > 0.0)
            && (fso.is_finite() && fso >= 1.0)
            && (life.is_finite() && life > 0.0);
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn router_config_try_validate_flags_hostile_fields(
        field in 0u32..8, sel in 0u32..8, mag in 1.0..9.0f64, app in 0usize..10,
        bin in 0usize..181,
    ) {
        let h = hostile(sel, mag);
        let mut cfg = router_config();
        // Poison one scalar, one pricing-table entry, or one wait bin.
        let positive = match field {
            0 => { cfg.terms[app][0].fixed_s = h; false }
            1 => { cfg.defer_horizon_s = h; false }
            2 => { cfg.image_gbit = h; true }
            3 => { cfg.ground_capacity_gbit_per_s = h; true }
            4 => { cfg.sudc_capacity_gbit_per_s = h; true }
            5 => { cfg.onboard_max_gbit = h; true }
            6 => { cfg.terms[app][1].per_gbit_usd = h; false }
            _ => { cfg.lat_wait_s[bin] = h; false }
        };
        let result = cfg.try_validate();
        let valid = h.is_finite() && if positive { h > 0.0 } else { h >= 0.0 };
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn qos_contract_try_forms_reject_exactly_hostile_deadlines(
        sel in 0u32..8, tick_sel in 0u32..8, mag in 1.0..9.0f64, depth in 0usize..4,
    ) {
        let h = hostile(sel, mag);
        let mut qos = QosContract::standard_captures();
        qos.deadline_s = h;
        let result = qos.try_validate();
        prop_assert_eq!(result.is_ok(), h.is_finite() && h >= 0.0);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
        // Store-and-forward without a bounded store is a contradiction.
        let mut tl = QosContract::standard_insights();
        prop_assert_eq!(tl.durability, Durability::TransientLocal);
        tl.history_depth = depth;
        prop_assert_eq!(tl.try_validate().is_ok(), depth > 0);
        // Lowering validates the contract *and* the tick length at once.
        let tick = hostile(tick_sel, mag);
        let lowered = qos.try_lower(tick);
        let valid = h.is_finite() && h >= 0.0 && tick.is_finite() && tick > 0.0;
        prop_assert_eq!(lowered.is_ok(), valid);
        if let Err(e) = lowered {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn energy_table_try_validate_flags_hostile_fields(
        field in 0u32..11, sel in 0u32..8, mag in 1.0..9.0f64,
    ) {
        let h = hostile(sel, mag);
        let mut t = EnergyTable::default();
        // positive = the field must be strictly positive; the leakage
        // entries only need to be non-negative, and the refetch premium
        // must be at least 1.
        let valid = match field {
            0 => { t.mac_pj = h; h.is_finite() && h > 0.0 }
            1 => { t.rf_pj = h; h.is_finite() && h > 0.0 }
            2 => { t.noc_pj = h; h.is_finite() && h > 0.0 }
            3 => { t.glb_base_pj = h; h.is_finite() && h > 0.0 }
            4 => { t.glb_reference_kib = h; h.is_finite() && h > 0.0 }
            5 => { t.dram_pj = h; h.is_finite() && h > 0.0 }
            6 => { t.static_pe_pj = h; h.is_finite() && h >= 0.0 }
            7 => { t.static_sram_pj_per_kib = h; h.is_finite() && h >= 0.0 }
            8 => { t.system_static_pj = h; h.is_finite() && h >= 0.0 }
            9 => { t.dram_words_per_cycle = h; h.is_finite() && h > 0.0 }
            _ => { t.dram_refetch_pj_factor = h; h.is_finite() && h >= 1.0 }
        };
        let result = t.try_validate();
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn gpu_joules_per_mac_rejects_exactly_hostile_workloads(
        sel in 0u32..8, mag in 1.0..9.0f64, poison_power in 0u32..2,
    ) {
        let h = hostile(sel, mag);
        let mut w = space_udc::compute::workloads::most_lightweight();
        let valid = if poison_power == 1 {
            w.gpu_power = Watts::new(h);
            h.is_finite() && h > 0.0
        } else {
            w.utilization = h;
            h.is_finite() && h > 0.0 && h <= 1.0
        };
        let result = try_gpu_joules_per_mac(&w);
        prop_assert_eq!(result.is_ok(), valid);
        match result {
            Ok(j) => {
                prop_assert!(j.is_finite() && j > 0.0);
            }
            Err(e) => {
                prop_assert!(structured(&e), "{e}");
            }
        }
    }

    #[test]
    fn try_run_dse_rejects_exactly_malformed_sweeps(
        zero_dim in 0u32..5, sel in 0u32..8, mag in 1.0..9.0f64,
    ) {
        // An empty space is rejected before any arithmetic.
        let err = try_run_dse(&[], &EnergyTable::default()).unwrap_err();
        prop_assert!(structured(&err), "{err}");

        // A zeroed configuration dimension is named with its space index.
        let mut bad = AcceleratorConfig::reference();
        match zero_dim {
            0 => bad.pe_x = 0,
            1 => bad.pe_y = 0,
            2 => bad.ifmap_kib = 0,
            3 => bad.weight_kib = 0,
            _ => bad.psum_kib = 0,
        }
        prop_assert!(bad.try_validate().is_err());
        let space = [AcceleratorConfig::reference(), bad];
        let err = try_run_dse(&space, &EnergyTable::default()).unwrap_err();
        prop_assert!(structured(&err), "{err}");
        prop_assert!(
            err.violations().iter().all(|v| v.path.starts_with("space[1].")),
            "{err}"
        );

        // A hostile energy table is caught before the sweep runs.
        let table = EnergyTable {
            dram_pj: hostile(sel, mag),
            ..EnergyTable::default()
        };
        if let Err(e) = try_run_dse(&[AcceleratorConfig::reference()], &table) {
            prop_assert!(structured(&e), "{e}");
        }
    }

    #[test]
    fn health_contract_try_forms_reject_exactly_hostile_leases(
        sel in 0u32..8, tick_sel in 0u32..8, mag in 1.0..9.0f64,
        suspect in 0u32..4, dead in 0u32..6, probation in 0u32..4,
    ) {
        let h = hostile(sel, mag);
        // The detector lease accepts exactly positive finite seconds,
        // and the contract orders its thresholds: SUSPECT must precede
        // DEAD, and zero-count thresholds are contradictions, not
        // "disabled".
        let cfg = HealthConfig {
            lease_s: h,
            suspect_missed: suspect,
            dead_missed: dead,
            probation_leases: probation,
            ..HealthConfig::standard()
        };
        let contract_ok = h.is_finite()
            && h > 0.0
            && suspect >= 1
            && probation >= 1
            && dead > suspect;
        let result = cfg.try_validate();
        prop_assert_eq!(result.is_ok(), contract_ok);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
        // Lowering validates contract and tick at once; a lease that
        // rounds to zero ticks is a structured error, not a silent
        // always-dead detector.
        let tick = hostile(tick_sel, mag);
        let lowered = cfg.try_lower(tick);
        let tick_ok = tick.is_finite() && tick > 0.0;
        if !(contract_ok && tick_ok) {
            prop_assert!(lowered.is_err());
        }
        match lowered {
            Ok(l) => {
                prop_assert!(l.lease_ticks >= 1);
            }
            Err(e) => {
                prop_assert!(structured(&e), "{e}");
            }
        }
    }

    #[test]
    fn router_try_route_stream_rejects_exactly_invalid_streams(
        sel in 0u32..8, mag in 1.0..9.0f64, requests in 1u64..5000,
    ) {
        let h = hostile(sel, mag);
        let router = Router::try_new(router_config()).unwrap();
        let stream = StreamConfig::new(requests, DEFAULT_SEED, h);
        let result = router.try_route_stream(&stream);
        let valid = h.is_finite() && h > 0.0;
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(structured(&e), "{e}");
        }
        // A zero-length stream is rejected regardless of the rate.
        let empty = StreamConfig { requests: 0, ..StreamConfig::new(1, DEFAULT_SEED, 1.0) };
        let err = router.try_route_stream(&empty).unwrap_err();
        prop_assert!(structured(&err), "{err}");
    }
}

#[test]
fn from_dynamic_rejects_hostile_clock_parameters() {
    let d = DynamicScenario::from_scenario(Scenario::Reference, 64)
        .expect("reference scenario must size");
    for sel in 0..8u32 {
        let h = hostile(sel, 3.0);
        let valid = h.is_finite() && h > 0.0;
        let by_tick = SimConfig::try_from_dynamic(&d, h, Seconds::new(3600.0));
        let by_duration = SimConfig::try_from_dynamic(&d, 0.1, Seconds::new(h));
        // An invalid clock parameter must error; a valid one may still
        // produce a structured quantization error (e.g. a subnormal tick
        // sends per-frame intervals to infinity), but never a panic.
        if !valid {
            assert!(by_tick.is_err(), "tick_seconds = {h}");
            assert!(by_duration.is_err(), "duration = {h}");
        }
        for e in [by_tick.err(), by_duration.err()].into_iter().flatten() {
            assert!(structured(&e), "{e}");
        }
    }
}

#[test]
fn gpu_batch_model_rejects_hostile_batches_and_rates() {
    let m = GpuEnergyModel::fit(&space_udc::compute::workloads::most_lightweight());
    let err = m.energy_per_image(0).unwrap_err();
    assert!(structured(&err), "{err}");
    for sel in 0..8u32 {
        let h = hostile(sel, 3.0);
        let result = GpuEnergyModel::batch_accumulation_time(16, h);
        // At `f64::MIN_POSITIVE` images per minute, 16 images take an
        // infinite time to arrive.
        assert_eq!(
            result.is_ok(),
            h.is_finite() && h > f64::MIN_POSITIVE,
            "{h}"
        );
        if let Err(e) = result {
            assert!(structured(&e), "{e}");
        }
    }
}

#[test]
fn replication_try_forms_reject_degenerate_studies() {
    let cfg = SimConfig::try_cold_spare_mission(8, 4, 0.1, 0.01).unwrap();
    let err = try_replicate(&cfg, 0, DEFAULT_SEED).unwrap_err();
    assert!(structured(&err), "{err}");
    assert!(err.to_string().contains("replication"), "{err}");

    let err = SimSummary::try_from_traces(vec![]).unwrap_err();
    assert!(structured(&err), "{err}");

    // A bad config and zero reps surface together in one pass.
    let mut bad = cfg;
    bad.tick_seconds = f64::NAN;
    let err = try_replicate(&bad, 0, DEFAULT_SEED).unwrap_err();
    assert!(err.violations().len() >= 2, "{err}");

    // And the valid short study still runs through the fallible path.
    let study = SimSummary::try_study(&cfg, 2, DEFAULT_SEED).expect("short study runs");
    assert_eq!(study.outcome.reps, 2);
}

#[test]
fn sub_tick_leases_error_at_lowering_instead_of_rounding_to_zero() {
    let cfg = HealthConfig {
        lease_s: 1e-9,
        ..HealthConfig::standard()
    };
    // The wall-clock contract is fine; only the lowering onto a 0.1 s
    // grid is impossible, and it must say so rather than produce a
    // detector whose lease is zero ticks.
    cfg.try_validate().expect("positive finite lease validates");
    let err = cfg.try_lower(0.1).unwrap_err();
    assert!(structured(&err), "{err}");
    assert!(err.to_string().contains("lease"), "{err}");
}

#[test]
fn tornado_rejects_hostile_perturbations() {
    let cers = SubsystemCers::sudc_default();
    let inputs = SscmInputs::reference();
    for sel in 0..8u32 {
        let h = hostile(sel, 3.0);
        let result = try_tornado(&cers, &inputs, h);
        let valid = h.is_finite() && h > 0.0 && h < 1.0;
        assert_eq!(result.is_ok(), valid, "perturbation = {h}");
        if let Err(e) = result {
            assert!(structured(&e), "{e}");
        }
    }
    assert!(!try_tornado(&cers, &inputs, 0.3).unwrap().is_empty());
}

#[test]
fn fleet_cost_try_form_rejects_empty_fleets() {
    let estimate = SubsystemCers::sudc_default()
        .try_estimate(&SscmInputs::reference())
        .expect("reference inputs are valid");
    let err = estimate.try_fleet_cost(0).unwrap_err();
    assert!(structured(&err), "{err}");
    assert!(estimate.try_fleet_cost(3).unwrap() > estimate.first_unit());
}

#[test]
fn every_scenario_survives_the_fallible_pipeline() {
    for scenario in Scenario::all() {
        let design = scenario
            .try_design()
            .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        let tco = design
            .try_tco()
            .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        assert!(tco.total().value() > 0.0, "{scenario}");
    }
}

#[test]
fn extreme_designs_error_instead_of_panicking() {
    // A petawatt "design" is absurd but must not panic anywhere in the
    // fallible pipeline: it either sizes to a (huge) costed report or
    // surfaces a structured error from SSCM validation.
    let design = SuDcDesign::builder()
        .compute_power(Watts::new(1e15))
        .try_build()
        .expect("1e15 W is finite and positive");
    if let Err(e) = design.try_tco() {
        assert!(structured(&e), "{e}");
    }
}

#[test]
fn json_u64_extremes_are_rejected_with_paths() {
    for n in [u64::MAX, (1u64 << 53) + 1, 1u64 << 60] {
        let err = Json::try_from(n).unwrap_err();
        assert!(structured(&err), "{err}");
        assert!(err.to_string().contains("u64"), "{err}");
    }
    assert!(Json::try_from(1u64 << 53).is_ok());
    assert!(Json::try_from(0u64).is_ok());
}
