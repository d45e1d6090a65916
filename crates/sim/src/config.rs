//! Simulation configuration: the physical scenario quantized onto the
//! integer-tick clock.
//!
//! A [`SimConfig`] is a pure description — building one does no work and
//! draws no randomness. Configurations come from three places: the
//! [`SimConfig::try_from_dynamic`] bridge (a [`DynamicScenario`]
//! distilled by `sudc-core` from a named paper scenario), the
//! [`SimConfig::reference_operations`] preset family used by the `sim`
//! experiment and tests, and [`SimConfig::try_cold_spare_mission`] for
//! mission-scale failure studies where the image pipeline is irrelevant.

use sudc_constellation::EdgeFiltering;
use sudc_core::dynamics::DynamicScenario;
use sudc_core::Scenario;
use sudc_errors::{Diagnostics, SudcError};
use sudc_health::HealthConfig;
use sudc_units::Seconds;

use crate::event::{Tick, MAX_IMAGING_PERIOD_TICKS};
use crate::fault::FaultConfig;

/// Complete configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Physical length of one tick, seconds.
    pub tick_seconds: f64,
    /// Run length in ticks.
    pub duration_ticks: Tick,
    /// Cadence of the periodic metrics sampler, ticks.
    pub sample_interval_ticks: Tick,

    /// EO satellites (0 = no image traffic, e.g. failure-only studies).
    pub satellites: u32,
    /// Mean interval between capture opportunities per satellite, ticks.
    pub frame_interval_ticks: f64,
    /// Orbit period driving the imaging on/off windows, ticks.
    pub imaging_period_ticks: Tick,
    /// Fraction of each orbit a satellite images, in [0, 1].
    pub imaging_duty: f64,
    /// Phase stagger across satellites, in [0, 1]: 0 aligns every
    /// satellite's imaging window (maximum burstiness — the shared
    /// daylight/land-mass pass of a real EO constellation), 1 spreads the
    /// windows uniformly around the orbit.
    pub phase_spread: f64,
    /// Probability an image is discarded at the edge (collaborative
    /// filtering), in [0, 1).
    pub filtering: f64,

    /// ISL transfer time for one raw image, ticks.
    pub isl_transfer_ticks: f64,

    /// Batch size the dispatcher accumulates toward.
    pub batch_target: u32,
    /// Force-dispatch a partial batch after this long, ticks.
    pub batch_timeout_ticks: Tick,
    /// Service time for one image on one node, ticks.
    pub service_ticks_per_image: f64,

    /// Installed compute nodes (spares included).
    pub nodes: u32,
    /// Nodes needed for full capability; also the max powered concurrency.
    pub required: u32,
    /// Powered-node mean time to failure, ticks (`f64::INFINITY` disables
    /// the failure process).
    pub mttf_ticks: f64,
    /// Weibull shape of node lifetimes (1 = exponential).
    pub weibull_shape: f64,
    /// Aging rate of a dormant spare relative to a powered node, [0, 1].
    pub dormant_aging: f64,

    /// Gap between ground-contact window starts, ticks.
    pub contact_gap_ticks: Tick,
    /// Usable length of each contact window, ticks.
    pub contact_window_ticks: Tick,
    /// Downlink transmission time for one insight product, ticks.
    pub downlink_transfer_ticks: f64,

    /// Opt-in fault injection (`None` = the nominal kernel: no fault
    /// stream is drawn and no fault event scheduled).
    pub faults: Option<FaultConfig>,

    /// Opt-in closed-loop health plane (`None` = the nominal kernel with
    /// oracle spare promotion: no heartbeats, no detector, no health
    /// events). With a config set, powered nodes
    /// heartbeat every lease, the `sudc-health` failure detector runs
    /// at the same cadence, and — in closed-loop mode — cold spares
    /// are promoted only when the detector declares a node DEAD.
    pub health: Option<HealthConfig>,
}

impl SimConfig {
    /// Quantizes a [`DynamicScenario`] onto a `tick_seconds` clock for a
    /// run of `duration`: checks the clock parameters, quantizes, then
    /// runs the full [`SimConfig::try_validate`] — an `Ok` configuration is
    /// guaranteed runnable.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `tick_seconds` or `duration` is not
    /// positive and finite, or if the scenario quantizes to an invalid
    /// configuration (e.g. NaN rates or an impossible node pool).
    pub fn try_from_dynamic(
        d: &DynamicScenario,
        tick_seconds: f64,
        duration: Seconds,
    ) -> Result<Self, SudcError> {
        let mut diag = Diagnostics::new("SimConfig::from_dynamic");
        diag.positive("tick_seconds", tick_seconds);
        diag.positive("duration", duration.value());
        diag.finish()?;
        let ticks = |s: f64| s / tick_seconds;
        let cfg = Self {
            tick_seconds,
            duration_ticks: ticks(duration.value()).ceil() as Tick,
            sample_interval_ticks: (ticks(60.0).ceil() as Tick).max(1),
            satellites: d.satellites,
            frame_interval_ticks: ticks(d.frame_interval.value()),
            imaging_period_ticks: (ticks(d.orbit_period.value()).round() as Tick).max(1),
            imaging_duty: d.imaging_duty_cycle,
            phase_spread: 0.25,
            filtering: d.filtering.filtering_rate,
            isl_transfer_ticks: ticks(d.image_size.value() / d.isl_rate.value()),
            batch_target: d.batch_target,
            batch_timeout_ticks: (ticks(d.batch_timeout.value()).round() as Tick).max(1),
            service_ticks_per_image: ticks(d.per_image_service.value()),
            nodes: d.nodes,
            required: d.required,
            mttf_ticks: ticks(d.node_mttf.value()),
            weibull_shape: d.weibull_shape,
            dormant_aging: d.dormant_aging,
            contact_gap_ticks: (ticks(d.contact_gap.value()).round() as Tick).max(1),
            contact_window_ticks: (ticks(d.contact_window.value()).round() as Tick).max(1),
            downlink_transfer_ticks: ticks(d.insight_size.value() / d.downlink_rate.value()),
            faults: None,
            health: None,
        };
        cfg.try_validate()?;
        Ok(cfg)
    }

    /// The paper's reference operations scenario: 64 EO satellites feeding
    /// a 4 kW SµDC, 100 ms ticks, no node failures (the MTTF is years;
    /// over an operations-scale run the failure process is irrelevant and
    /// disabling it keeps the availability trace exactly 1).
    ///
    /// # Panics
    ///
    /// Panics if the underlying design pipeline fails (never expected for
    /// the built-in scenario).
    #[must_use]
    pub fn reference_operations(duration: Seconds) -> Self {
        let d = DynamicScenario::from_scenario(Scenario::Reference, 64)
            .expect("reference scenario must size");
        let mut cfg = Self::try_from_dynamic(&d, 0.1, duration)
            .expect("the reference scenario quantizes to a valid configuration");
        cfg.mttf_ticks = f64::INFINITY;
        cfg
    }

    /// [`SimConfig::reference_operations`] with collaborative edge
    /// filtering at the paper's cloud-filtering working point (§V).
    #[must_use]
    pub fn collaborative_operations(duration: Seconds) -> Self {
        let mut cfg = Self::reference_operations(duration);
        cfg.filtering = EdgeFiltering::cloud_filtering().filtering_rate;
        cfg
    }

    /// A mission-scale failure study: `nodes` installed of which
    /// `required` must be powered, cold spares aging at `dormant_aging`,
    /// run for `duration_mttf` lifetimes. The image pipeline is off; ticks
    /// are scaled so one MTTF is 100 000 ticks. With no satellites there
    /// is nothing to downlink, so one contact window spans the whole run
    /// rather than a window opening, to no effect, every tick. Every
    /// invalid parameter is reported in one pass.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `required` is zero or exceeds
    /// `nodes`, `dormant_aging` is outside `[0, 1]`, or `duration_mttf`
    /// is not positive and finite.
    pub fn try_cold_spare_mission(
        nodes: u32,
        required: u32,
        dormant_aging: f64,
        duration_mttf: f64,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("SimConfig::cold_spare_mission");
        if d.positive_count("required", u64::from(required)) {
            d.ensure(
                required <= nodes,
                "required",
                required,
                format_args!(
                    "at most nodes = {nodes} (cannot require {required} of only {nodes} nodes)"
                ),
            );
        }
        d.unit_interval("dormant_aging", dormant_aging);
        d.positive("duration_mttf", duration_mttf);
        d.finish()?;
        let mttf_ticks = 100_000.0;
        let mttf_seconds = sudc_units::Years::new(2.0).to_seconds().value();
        let tick_seconds = mttf_seconds / mttf_ticks;
        let duration_ticks = (duration_mttf * mttf_ticks).ceil() as Tick;
        Ok(Self {
            tick_seconds,
            duration_ticks,
            sample_interval_ticks: duration_ticks.max(100) / 100,
            satellites: 0,
            frame_interval_ticks: 1.0,
            imaging_period_ticks: 1,
            imaging_duty: 0.0,
            phase_spread: 1.0,
            filtering: 0.0,
            isl_transfer_ticks: 1.0,
            batch_target: 1,
            batch_timeout_ticks: 1,
            service_ticks_per_image: 1.0,
            nodes,
            required,
            mttf_ticks,
            weibull_shape: 1.0,
            dormant_aging,
            contact_gap_ticks: duration_ticks,
            contact_window_ticks: duration_ticks,
            downlink_transfer_ticks: 0.0,
            faults: None,
            health: None,
        })
    }

    /// Weak-scales [`SimConfig::reference_operations`] to a fleet of
    /// `satellites`: per-satellite traffic is unchanged while the shared
    /// resources are provisioned for the fleet — the ISL and downlink
    /// get `satellites / 64` times the reference aggregate rate
    /// (per-image transfer ticks shrink by that ratio) and the compute
    /// pool scales by the same ratio. The event count grows linearly
    /// with the fleet, since captures dominate it.
    /// `try_scaled_fleet(64, d)` is identical to `reference_operations(d)`.
    ///
    /// The kernel does not deliver the provisioned ISL rate. The ISL is
    /// a single FIFO server and every transfer rounds up to a whole tick,
    /// so it moves at most one image per tick at any fleet size. The
    /// reference fleet offers about 0.01 image per tick per satellite, so
    /// above about 100 satellites the ISL saturates: its backlog grows
    /// for the whole run and compute utilization falls with fleet size
    /// instead of staying near the reference working point.
    /// `tests/sim_determinism.rs` asserts the cap at 1 000 satellites.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `satellites` is zero.
    pub fn try_scaled_fleet(satellites: u32, duration: Seconds) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("SimConfig::scaled_fleet");
        d.positive_count("satellites", u64::from(satellites));
        d.finish()?;
        let mut cfg = Self::reference_operations(duration);
        let ratio = f64::from(satellites) / f64::from(cfg.satellites);
        cfg.satellites = satellites;
        cfg.isl_transfer_ticks /= ratio;
        cfg.downlink_transfer_ticks /= ratio;
        cfg.nodes = ((f64::from(cfg.nodes) * ratio).ceil() as u32).max(1);
        cfg.required = ((f64::from(cfg.required) * ratio).ceil() as u32)
            .max(1)
            .min(cfg.nodes);
        cfg.try_validate()?;
        Ok(cfg)
    }

    /// Returns this configuration with fault injection enabled.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns this configuration with the closed-loop health plane
    /// enabled.
    #[must_use]
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }

    /// Checks internal consistency, reporting *every* invalid field
    /// combination in one pass; the kernel calls this before running.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] with one violation per offending field.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("SimConfig");
        d.positive("tick_seconds", self.tick_seconds);
        d.positive_count("duration_ticks", self.duration_ticks);
        // The kernel saturates every schedule at `Tick::MAX`; a run that
        // ends before it never handles such an event.
        d.ensure(
            self.duration_ticks < Tick::MAX,
            "duration_ticks",
            self.duration_ticks,
            "below u64::MAX, the tick a saturated schedule lands on",
        );
        d.positive_count("sample_interval_ticks", self.sample_interval_ticks);
        d.ensure(
            self.satellites == 0
                || (self.frame_interval_ticks.is_finite() && self.frame_interval_ticks > 0.0),
            "frame_interval_ticks",
            self.frame_interval_ticks,
            "a positive, finite frame interval when satellites image",
        );
        // The imaging phase and the contact schedule are ticks modulo
        // these periods, and a zero contact gap would reschedule its
        // window start at the same tick forever.
        d.positive_count("imaging_period_ticks", self.imaging_period_ticks);
        d.ensure(
            self.imaging_period_ticks <= MAX_IMAGING_PERIOD_TICKS,
            "imaging_period_ticks",
            self.imaging_period_ticks,
            format_args!(
                "at most 2^24 = {MAX_IMAGING_PERIOD_TICKS}: a pending capture carries its \
                 imaging-window phase in 24 bits"
            ),
        );
        d.unit_interval("imaging_duty", self.imaging_duty);
        d.unit_interval("phase_spread", self.phase_spread);
        d.ensure(
            self.filtering.is_finite() && (0.0..1.0).contains(&self.filtering),
            "filtering",
            self.filtering,
            "a filtering probability in [0, 1)",
        );
        d.non_negative("isl_transfer_ticks", self.isl_transfer_ticks);
        d.positive_count("batch_target", u64::from(self.batch_target));
        d.positive_count("batch_timeout_ticks", self.batch_timeout_ticks);
        d.non_negative("service_ticks_per_image", self.service_ticks_per_image);
        if d.positive_count("required", u64::from(self.required)) {
            d.ensure(
                self.required <= self.nodes,
                "required",
                self.required,
                format_args!(
                    "at most nodes = {} (cannot require {} of {} nodes)",
                    self.nodes, self.required, self.nodes
                ),
            );
        }
        d.ensure(
            self.mttf_ticks > 0.0 && !self.mttf_ticks.is_nan(),
            "mttf_ticks",
            self.mttf_ticks,
            "a positive MTTF (use INFINITY to disable failures)",
        );
        d.positive("weibull_shape", self.weibull_shape);
        d.unit_interval("dormant_aging", self.dormant_aging);
        d.positive_count("contact_gap_ticks", self.contact_gap_ticks);
        d.ensure(
            self.contact_window_ticks <= self.contact_gap_ticks,
            "contact_window_ticks",
            self.contact_window_ticks,
            format_args!(
                "at most contact_gap_ticks = {} (the contact window cannot exceed the gap between windows)",
                self.contact_gap_ticks
            ),
        );
        d.non_negative("downlink_transfer_ticks", self.downlink_transfer_ticks);
        crate::kernel::validate_stream_layout(self, &mut d);
        if let Some(f) = &self.faults {
            f.validate_into(&mut d);
        }
        if let Some(h) = &self.health {
            h.validate_into(&mut d, "health");
            // The lease must be at least one tick, or scans never fire.
            if self.tick_seconds > 0.0
                && h.lease_s.is_finite()
                && (h.lease_s / self.tick_seconds).round() < 1.0
            {
                d.violation("health.lease_s", h.lease_s, "a lease of at least one tick");
            }
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_operations_quantizes_sanely() {
        let cfg = SimConfig::reference_operations(Seconds::new(3600.0));
        cfg.try_validate().unwrap();
        assert_eq!(cfg.duration_ticks, 36_000);
        assert_eq!(cfg.satellites, 64);
        // ~6 frames/min at 0.1 s ticks -> ~100 ticks between frames.
        assert!(cfg.frame_interval_ticks > 80.0 && cfg.frame_interval_ticks < 120.0);
        // Failures disabled for operations runs.
        assert!(cfg.mttf_ticks.is_infinite());
        // Contact windows are minutes inside multi-hour gaps.
        assert!(cfg.contact_window_ticks < cfg.contact_gap_ticks);
    }

    #[test]
    fn collaborative_preset_only_changes_filtering() {
        let base = SimConfig::reference_operations(Seconds::new(600.0));
        let collab = SimConfig::collaborative_operations(Seconds::new(600.0));
        assert!((collab.filtering - 2.0 / 3.0).abs() < 1e-12);
        let mut neutral = collab;
        neutral.filtering = base.filtering;
        assert_eq!(neutral, base);
    }

    #[test]
    fn cold_spare_mission_scales_one_mttf_to_1e5_ticks() {
        let cfg = SimConfig::try_cold_spare_mission(20, 10, 0.1, 1.5).unwrap();
        cfg.try_validate().unwrap();
        assert_eq!(cfg.duration_ticks, 150_000);
        assert_eq!(cfg.satellites, 0);
        assert!((cfg.mttf_ticks - 100_000.0).abs() < 1e-9);
        assert_eq!(cfg.contact_gap_ticks, cfg.duration_ticks);
    }

    #[test]
    fn impossible_pool_is_rejected() {
        let err = SimConfig::try_cold_spare_mission(5, 10, 0.1, 1.0).unwrap_err();
        assert!(err.to_string().contains("cannot require"), "{err}");
    }

    #[test]
    fn scaled_fleet_at_64_is_the_reference_preset() {
        let d = Seconds::new(1800.0);
        assert_eq!(
            SimConfig::try_scaled_fleet(64, d).unwrap(),
            SimConfig::reference_operations(d)
        );
    }

    #[test]
    fn scaled_fleet_grows_shared_resources_with_the_fleet() {
        let d = Seconds::new(1800.0);
        let base = SimConfig::reference_operations(d);
        let big = SimConfig::try_scaled_fleet(1000, d).unwrap();
        big.try_validate().unwrap();
        assert_eq!(big.satellites, 1000);
        // Per-satellite arrival process is untouched (weak scaling).
        assert!((big.frame_interval_ticks - base.frame_interval_ticks).abs() < 1e-12);
        // Shared links absorb the ratio: per-image ticks shrink by it.
        let ratio = 1000.0 / 64.0;
        assert!((big.isl_transfer_ticks * ratio - base.isl_transfer_ticks).abs() < 1e-9);
        assert!((big.downlink_transfer_ticks * ratio - base.downlink_transfer_ticks).abs() < 1e-9);
        // Compute pool scales with traffic; the pool stays feasible.
        assert!(big.nodes > base.nodes);
        assert!(big.required >= base.required && big.required <= big.nodes);

        let err = SimConfig::try_scaled_fleet(0, d).unwrap_err();
        assert!(err.to_string().contains("satellites"), "{err}");
    }

    #[test]
    fn oversized_contact_window_is_rejected() {
        let mut cfg = SimConfig::reference_operations(Seconds::new(600.0));
        cfg.contact_window_ticks = cfg.contact_gap_ticks + 1;
        let err = cfg.try_validate().unwrap_err();
        assert!(err.to_string().contains("contact window"), "{err}");
    }

    #[test]
    fn imaging_period_is_bounded_by_the_carried_phase_width() {
        // Phases below the period ride in 24 bits of each pending capture.
        let mut cfg = SimConfig::reference_operations(Seconds::new(600.0));
        cfg.imaging_period_ticks = MAX_IMAGING_PERIOD_TICKS;
        cfg.try_validate().unwrap();
        let (trace, ()) = crate::try_run(&cfg, 1, ()).unwrap();
        assert!(trace.captured > 0);

        cfg.imaging_period_ticks = MAX_IMAGING_PERIOD_TICKS + 1;
        let err = cfg.try_validate().unwrap_err();
        assert_eq!(err.violations().len(), 1, "{err}");
        assert_eq!(err.violations()[0].path, "imaging_period_ticks", "{err}");
        assert!(err.to_string().contains("24 bits"), "{err}");
        assert_eq!(crate::try_run(&cfg, 1, ()).err(), Some(err));
    }

    #[test]
    fn from_dynamic_refuses_a_tick_that_overflows_the_phase_width() {
        // A 0.1 ms tick puts a ~95-minute orbit at ~5.7e7 ticks.
        let d = DynamicScenario::from_scenario(Scenario::Reference, 64).unwrap();
        let err = SimConfig::try_from_dynamic(&d, 1e-4, Seconds::new(60.0)).unwrap_err();
        assert!(
            err.violations()
                .iter()
                .any(|v| v.path == "imaging_period_ticks"),
            "{err}"
        );
        assert!(err.to_string().contains("24 bits"), "{err}");
    }

    #[test]
    fn entity_counts_are_bounded_by_their_random_stream_blocks() {
        // The largest fleet the stream layout holds stays valid.
        let fleet = SimConfig::try_scaled_fleet(1_000_000, Seconds::new(60.0)).unwrap();
        fleet.try_validate().unwrap();
        let mut nodes = fleet;
        nodes.nodes = 999_999;
        nodes.try_validate().unwrap();
        let mut links = fleet;
        links.faults = Some(FaultConfig {
            isl: Some(crate::fault::IslFlaps {
                links: 1_000_000,
                mean_up_ticks: 1.0,
                mean_down_ticks: 1.0,
            }),
            ..FaultConfig::default()
        });
        links.try_validate().unwrap();

        // One more of any of them would draw another entity's stream.
        let mut bad = fleet;
        bad.satellites = 1_000_001;
        bad.nodes = 1_000_000;
        let mut bad_links = links.faults.unwrap();
        bad_links.isl.as_mut().unwrap().links = 1_000_001;
        bad.faults = Some(bad_links);
        let err = bad.try_validate().unwrap_err();
        let paths: Vec<_> = err.violations().iter().map(|v| v.path.as_str()).collect();
        assert_eq!(paths, ["satellites", "nodes", "faults.isl.links"], "{err}");
        assert!(err.to_string().contains("random stream"), "{err}");
    }

    #[test]
    fn zero_periods_are_rejected_before_the_run() {
        // A zero imaging period divided the phase arithmetic by zero, and
        // a zero contact gap rescheduled its window start forever; both
        // must fail validation, so `try_run` returns the error untouched.
        let base = SimConfig::reference_operations(Seconds::new(60.0));
        let zero_period = SimConfig {
            imaging_period_ticks: 0,
            ..base
        };
        let zero_gap = SimConfig {
            contact_gap_ticks: 0,
            contact_window_ticks: 0,
            ..base
        };
        for (cfg, path) in [
            (zero_period, "imaging_period_ticks"),
            (zero_gap, "contact_gap_ticks"),
        ] {
            let err = cfg.try_validate().unwrap_err();
            assert_eq!(err.violations().len(), 1, "{err}");
            assert_eq!(err.violations()[0].path, path, "{err}");
            assert_eq!(crate::try_run(&cfg, 1, ()).err(), Some(err));
        }
    }

    #[test]
    fn a_run_must_end_before_the_saturated_tick() {
        // A schedule past `u64` saturates to `Tick::MAX`; a run that
        // reached that tick would handle such an event, and every one it
        // rescheduled, forever.
        let mut cfg = SimConfig::reference_operations(Seconds::new(600.0));
        cfg.duration_ticks = Tick::MAX;
        let err = cfg.try_validate().unwrap_err();
        assert!(err.violations()[0].path == "duration_ticks", "{err}");
        cfg.duration_ticks = Tick::MAX - 1;
        assert!(cfg.try_validate().is_ok());
    }
}
