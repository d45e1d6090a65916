//! Scenario → dynamic-simulation bridge.
//!
//! The steady-state models answer "how big must the SµDC be?"; the
//! discrete-event simulator (`sudc-sim`) answers "what happens minute to
//! minute?". This module is the seam between them: it distills a named
//! [`Scenario`] plus the paper's constellation/ground-segment models into a
//! [`DynamicScenario`] — the plain physical quantities (rates, sizes,
//! windows, node counts) a simulation needs — without depending on the
//! simulator itself, so the dependency arrow stays `sudc-sim → sudc-core`.
//!
//! Every number is derived from an existing model rather than invented
//! here: image cadence from [`sudc_orbital::imaging`], ISL provisioning
//! from the sized design, downlink windows from
//! [`sudc_orbital::contact::PassGeometry`], insight sizes from
//! [`sudc_comms::downlink`], and compute service times from the Table III
//! workload suite.

use sudc_comms::downlink::{InsightDownlink, InsightKind};
use sudc_compute::gpu::GpuEnergyModel;
use sudc_compute::workloads;
use sudc_constellation::eo::{EoConstellation, DEFAULT_IMAGING_DUTY_CYCLE};
use sudc_constellation::EdgeFiltering;
use sudc_errors::SudcError;
use sudc_orbital::contact::{GroundNetwork, PassGeometry};
use sudc_units::{Gigabits, GigabitsPerSecond, Seconds, Years};

use crate::scenario::Scenario;

/// The paper's power-limited active node count (`k = 10`, §VII).
pub const REQUIRED_NODES: u32 = 10;

/// Fraction of processed frames that carry a downlink-worthy insight.
const INSIGHT_FRACTION: f64 = 0.2;

/// Default ground-station elevation mask for downlink windows, degrees.
const ELEVATION_MASK_DEG: f64 = 10.0;

/// Everything a dynamic (discrete-event) simulation needs to know about a
/// scenario, as plain physical quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicScenario {
    /// EO satellites feeding the SµDC.
    pub satellites: u32,
    /// Mean interval between frames on one satellite *while imaging*.
    pub frame_interval: Seconds,
    /// Orbit period (imaging on/off windows follow it).
    pub orbit_period: Seconds,
    /// Fraction of each orbit a satellite spends imaging.
    pub imaging_duty_cycle: f64,
    /// Raw size of one image.
    pub image_size: Gigabits,
    /// Edge-filtering configuration on the EO satellites.
    pub filtering: EdgeFiltering,
    /// Provisioned ISL rate into the SµDC.
    pub isl_rate: GigabitsPerSecond,
    /// Per-image service time on a single compute node (the whole Table III
    /// application suite applied to every frame).
    pub per_image_service: Seconds,
    /// Energy-minimizing batch size the dispatcher accumulates toward.
    pub batch_target: u32,
    /// Dispatch a partial batch after this long even if under-full.
    pub batch_timeout: Seconds,
    /// Installed compute nodes (spares included).
    pub nodes: u32,
    /// Nodes needed for full capability (power-limited).
    pub required: u32,
    /// Powered-node mean time to failure (infinite = failures disabled).
    pub node_mttf: Seconds,
    /// Weibull shape for node lifetimes (1 = exponential).
    pub weibull_shape: f64,
    /// Aging rate of a powered-off spare relative to a powered node.
    pub dormant_aging: f64,
    /// Gap between ground-contact windows.
    pub contact_gap: Seconds,
    /// Usable duration of one contact window.
    pub contact_window: Seconds,
    /// Downlink rate during contact.
    pub downlink_rate: GigabitsPerSecond,
    /// Size of the insight product one processed image downlinks.
    pub insight_size: Gigabits,
}

impl DynamicScenario {
    /// Distills `scenario` (sized for `satellites` EO satellites) into its
    /// dynamic quantities.
    ///
    /// # Errors
    ///
    /// Propagates [`SudcError`] from the sizing pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `satellites` is zero.
    pub fn from_scenario(scenario: Scenario, satellites: u32) -> Result<Self, SudcError> {
        let constellation = EoConstellation::reference(satellites);
        let sized = scenario.try_design()?.size()?;
        let orbit = constellation.orbit;
        let imager = constellation.imager;

        // Compute: every frame runs the full Table III application suite,
        // spread across the paper's 10 power-limited active nodes.
        let model_batch = GpuEnergyModel::fit(&workloads::most_compute_intensive());
        let suite_batch_time: f64 = workloads::suite()
            .iter()
            .map(|w| w.inference_time.value())
            .sum();
        let per_image_service =
            Seconds::new(suite_batch_time / f64::from(model_batch.reference_batch));

        // Ground segment: commercial network cadence, pass length from the
        // deterministic elevation-mask geometry.
        let network = GroundNetwork::commercial(3);
        let pass = PassGeometry::new(orbit, ELEVATION_MASK_DEG);
        let insight = InsightDownlink::new(InsightKind::Detections, 1.0);
        let insight_bits = imager.pixels_per_frame() as f64
            * insight.kind.bits_per_input_pixel()
            * INSIGHT_FRACTION;

        Ok(Self {
            satellites,
            frame_interval: Seconds::new(60.0 / imager.frames_per_minute(orbit)),
            orbit_period: orbit.period(),
            imaging_duty_cycle: DEFAULT_IMAGING_DUTY_CYCLE,
            image_size: Gigabits::new(
                imager.pixels_per_frame() as f64 * f64::from(imager.bits_per_pixel) / 1e9,
            ),
            filtering: EdgeFiltering::none(),
            isl_rate: sized.isl_rate,
            per_image_service,
            batch_target: model_batch.reference_batch,
            batch_timeout: Seconds::new(120.0),
            nodes: REQUIRED_NODES,
            required: REQUIRED_NODES,
            node_mttf: Years::new(2.0).to_seconds(),
            weibull_shape: 1.0,
            dormant_aging: 0.1,
            contact_gap: network.mean_contact_gap(),
            contact_window: pass.max_pass_duration(),
            downlink_rate: network.downlink_rate,
            insight_size: Gigabits::new(insight_bits / 1e9),
        })
    }

    /// Enables collaborative edge filtering (paper §V).
    #[must_use]
    pub fn with_filtering(mut self, filtering: EdgeFiltering) -> Self {
        self.filtering = filtering;
        self
    }

    /// Installs `spares` cold spares over the required node count, aging at
    /// `dormant_aging` of the powered rate while dormant.
    ///
    /// # Panics
    ///
    /// Panics if `dormant_aging` is outside `[0, 1]`.
    #[must_use]
    pub fn with_cold_spares(mut self, spares: u32, dormant_aging: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&dormant_aging),
            "dormant aging must be in [0, 1], got {dormant_aging}"
        );
        self.nodes = self.required + spares;
        self.dormant_aging = dormant_aging;
        self
    }

    /// Overrides the powered-node mean time to failure — chaos campaigns
    /// use accelerated aging so failure dynamics are observable inside an
    /// operations-scale run.
    ///
    /// # Panics
    ///
    /// Panics if `mttf` is not positive (infinite disables failures).
    #[must_use]
    pub fn with_node_mttf(mut self, mttf: Seconds) -> Self {
        assert!(
            mttf.value() > 0.0 && !mttf.value().is_nan(),
            "node MTTF must be positive, got {}",
            mttf.value()
        );
        self.node_mttf = mttf;
        self
    }

    /// Overrides the Weibull shape of node lifetimes (1 = exponential,
    /// < 1 = infant mortality, > 1 = wear-out).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not positive and finite.
    #[must_use]
    pub fn with_weibull_shape(mut self, shape: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "Weibull shape must be positive and finite, got {shape}"
        );
        self.weibull_shape = shape;
        self
    }

    /// Aggregate image rate reaching the SµDC after filtering, images/s.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        f64::from(self.satellites) * self.imaging_duty_cycle / self.frame_interval.value()
            * self.filtering.pass_fraction()
    }

    /// Aggregate compute utilization implied by the steady-state rates —
    /// the sanity anchor the simulator's measured utilization should
    /// approach on long runs.
    #[must_use]
    pub fn offered_compute_load(&self) -> f64 {
        self.arrival_rate() * self.per_image_service.value() / f64::from(self.required)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> DynamicScenario {
        DynamicScenario::from_scenario(Scenario::Reference, 64).unwrap()
    }

    #[test]
    fn reference_dynamics_match_the_paper_working_points() {
        let d = reference();
        // ~6 frames/min per satellite.
        let fpm = 60.0 / d.frame_interval.value();
        assert!(fpm > 5.0 && fpm < 7.0, "frames/min {fpm}");
        // One 8k x 8k 12-bit frame is ~0.8 Gbit.
        assert!((d.image_size.value() - 0.805).abs() < 0.01);
        // Insights are orders of magnitude smaller than raw frames.
        assert!(d.insight_size.value() < d.image_size.value() / 1e3);
        // LEO pass: minutes; commercial 3-station gap: hours.
        assert!(d.contact_window.value() > 300.0 && d.contact_window.value() < 1200.0);
        assert!(d.contact_gap.value() > 3600.0);
    }

    #[test]
    fn baseline_load_is_heavy_but_feasible() {
        // The no-filtering suite workload should stress the 10 active
        // nodes without exceeding them (else backlogs grow unboundedly and
        // the collaborative comparison degenerates).
        let load = reference().offered_compute_load();
        assert!(load > 0.35 && load < 0.95, "offered load {load}");
    }

    #[test]
    fn filtering_cuts_the_offered_load_proportionally() {
        let base = reference();
        let filtered = reference().with_filtering(EdgeFiltering::cloud_filtering());
        let ratio = filtered.offered_compute_load() / base.offered_compute_load();
        assert!((ratio - 1.0 / 3.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn cold_spares_extend_the_pool_without_changing_required() {
        let d = reference().with_cold_spares(10, 0.1);
        assert_eq!(d.nodes, 20);
        assert_eq!(d.required, 10);
        assert!((d.dormant_aging - 0.1).abs() < 1e-12);
    }

    #[test]
    fn isl_is_provisioned_far_above_the_offered_rate() {
        // The design sizes the ISL to saturate compute, so the raw
        // constellation stream must fit with huge margin.
        let d = reference();
        let offered_gbps = d.arrival_rate() * d.image_size.value();
        assert!(d.isl_rate.value() > 3.0 * offered_gbps);
    }
}
