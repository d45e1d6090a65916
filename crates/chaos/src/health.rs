//! Controller-on vs controller-off: what the closed loop buys under chaos.
//!
//! The resilience grid in [`crate::report`] promotes spares through an
//! instant oracle — the kernel reacts to a node death in the same tick it
//! happens. A real health plane has to *detect* the death first: powered
//! nodes heartbeat once per lease, the `sudc-health` failure detector
//! walks silent nodes SUSPECT → DEAD, and only a DEAD declaration may
//! promote a cold spare. This module runs every campaign twice with the
//! same detector contract — once with the actuator connected
//! (`closed_loop`), once monitor-only — at equal spares with common
//! random numbers, so the availability and freshness-SLO gap between the
//! two arms is exactly the value of closing the loop, and the detection
//! latency / false-suspicion columns price what the detector itself
//! costs. Each arm is the resilience grid's cell for its campaign (so the
//! two studies price the same spares) with the detector contract attached,
//! and the arms run through the resilience grid's own campaign × arm
//! runner over [`sudc_sim::try_replicate_grid`], so the whole report is
//! one order-preserving parallel batch and byte-identical at any thread
//! count.

use sudc_errors::{Diagnostics, SudcError};
use sudc_health::HealthConfig;
use sudc_par::json::{Json, ToJson};
use sudc_sim::{Outcome, RunTrace, SampledLatency, STANDARD_FRESHNESS_DEADLINE_S};
use sudc_units::Seconds;

use crate::campaign::Campaign;

/// One arm of one campaign: the detector contract ran with the actuator
/// either connected (`closed_loop`) or disconnected, aggregated over all
/// replications.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthCell {
    /// Campaign name ([`Campaign::name`]).
    pub campaign: &'static str,
    /// Whether DEAD declarations drove spare promotion in this arm.
    pub closed_loop: bool,
    /// The arm's replications summarized; its `slo_attainment` is against
    /// the standing 900 s freshness SLO
    /// ([`STANDARD_FRESHNESS_DEADLINE_S`]).
    pub outcome: Outcome,
    /// Heartbeats published, summed over replications.
    pub heartbeats: u64,
    /// SUSPECT declarations, summed.
    pub suspects: u64,
    /// Suspicions later contradicted by a heartbeat, summed.
    pub false_suspects: u64,
    /// False suspicions per suspicion over the whole arm (0 when nothing
    /// was ever suspected).
    pub false_suspicion_rate: f64,
    /// DEAD declarations (detections), summed.
    pub detections: u64,
    /// Cold spares promoted, summed. Zero in the monitor-only arm.
    pub promotions: u64,
    /// Quarantined nodes readmitted after probation, summed.
    pub readmissions: u64,
    /// Failure → DEAD-declaration latency over the replications that
    /// detected anything.
    pub detection: SampledLatency,
}

/// The closed-loop health study: every campaign, both arms.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Simulated span of every run, seconds.
    pub duration_s: f64,
    /// Replications per arm.
    pub reps: u32,
    /// Cold spares installed in every cell (equal across arms — the
    /// comparison prices the controller, not the spares).
    pub spares: u32,
    /// Heartbeat lease of the shared detector contract, seconds.
    pub lease_s: f64,
    /// All cells, campaign-major in the campaign list's order, the
    /// monitor-only arm before the closed-loop arm.
    pub cells: Vec<HealthCell>,
}

impl HealthReport {
    /// Runs the standard campaign suite with the
    /// [`HealthConfig::standard`] contract.
    ///
    /// # Errors
    ///
    /// Same contract as [`HealthReport::try_run_campaigns`] over
    /// [`Campaign::suite`] and [`HealthConfig::standard`].
    pub fn try_run(
        duration: Seconds,
        spares: u32,
        reps: u32,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        Self::try_run_campaigns(
            &Campaign::suite(duration),
            duration,
            spares,
            reps,
            HealthConfig::standard(),
            base_seed,
        )
    }

    /// Runs an explicit campaign list under `contract`, each campaign in
    /// both arms (`contract` with `closed_loop` forced off, then on) at
    /// `spares` cold spares, `reps` replications per arm with common
    /// random numbers.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `duration` is not positive or
    /// `campaigns` is empty; and otherwise with one error listing a zero
    /// `reps` and every arm's [`sudc_sim::SimConfig::try_validate`]
    /// violations (which fold in the health contract).
    pub fn try_run_campaigns(
        campaigns: &[Campaign],
        duration: Seconds,
        spares: u32,
        reps: u32,
        contract: HealthConfig,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("health study grid");
        d.positive("duration", duration.value());
        // Arm order within a campaign is monitor-only first, closed-loop
        // second.
        let arm = |closed_loop| HealthConfig {
            closed_loop,
            ..contract
        };
        let grid = crate::try_run_grid(d, campaigns, &[false, true], reps, base_seed, |c, on| {
            Ok(c.reference_cell(spares, duration)?.with_health(arm(on)))
        })?;
        let cells = grid
            .iter()
            .map(|(campaign, closed_loop, traces)| aggregate(campaign, *closed_loop, traces))
            .collect::<Result<_, _>>()?;

        Ok(Self {
            duration_s: duration.value(),
            reps,
            spares,
            lease_s: contract.lease_s,
            cells,
        })
    }

    /// Looks up one arm of one campaign.
    #[must_use]
    pub fn cell(&self, campaign: &str, closed_loop: bool) -> Option<&HealthCell> {
        self.cells
            .iter()
            .find(|c| c.campaign == campaign && c.closed_loop == closed_loop)
    }

    /// The controller's availability gain under `campaign`: closed-loop
    /// minus monitor-only availability, `None` if either arm is missing.
    #[must_use]
    pub fn availability_gain(&self, campaign: &str) -> Option<f64> {
        let availability =
            |closed_loop| Some(self.cell(campaign, closed_loop)?.outcome.availability);
        Some(availability(true)? - availability(false)?)
    }
}

impl ToJson for HealthReport {
    fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::object()
                    .with("campaign", c.campaign)
                    .with("closed_loop", c.closed_loop)
                    .with("availability", c.outcome.availability)
                    .with("slo_attainment", c.outcome.slo_attainment)
                    .with("delivered_fraction", c.outcome.delivered_fraction)
                    .with("heartbeats", c.heartbeats as f64)
                    .with("suspects", c.suspects as f64)
                    .with("false_suspects", c.false_suspects as f64)
                    .with("false_suspicion_rate", c.false_suspicion_rate)
                    .with("detections", c.detections as f64)
                    .with("promotions", c.promotions as f64)
                    .with("readmissions", c.readmissions as f64)
                    .with("detection_latency_mean_s", c.detection.mean)
                    .with("detection_latency_p99_s", c.detection.p99)
            })
            .collect();
        Json::object()
            .with("duration_s", self.duration_s)
            .with("reps", self.reps)
            .with("spares", self.spares)
            .with("lease_s", self.lease_s)
            .with("slo_deadline_s", STANDARD_FRESHNESS_DEADLINE_S)
            .with("cells", Json::Arr(cells))
    }
}

/// Aggregates one arm's replications: one [`Outcome`], plus the detector
/// counters summed over replications.
///
/// # Errors
///
/// Returns a structured error if `traces` is empty.
fn aggregate(
    campaign: &'static str,
    closed_loop: bool,
    traces: &[RunTrace],
) -> Result<HealthCell, SudcError> {
    let outcome = Outcome::try_from_traces(traces)?;
    let total = |f: &dyn Fn(&RunTrace) -> u64| traces.iter().map(f).sum::<u64>();
    let suspects = total(&|t| t.suspects);
    let false_suspects = total(&|t| t.false_suspects);
    Ok(HealthCell {
        campaign,
        closed_loop,
        outcome,
        heartbeats: total(&|t| t.heartbeats),
        suspects,
        false_suspects,
        false_suspicion_rate: if suspects == 0 {
            0.0
        } else {
            false_suspects as f64 / suspects as f64
        },
        detections: total(&|t| t.detections),
        promotions: total(&|t| t.promotions),
        readmissions: total(&|t| t.readmissions),
        detection: SampledLatency::over(traces, RunTrace::detection_latency),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate for the health plane: under the combined
    /// campaign at equal spares, connecting the actuator must strictly
    /// improve availability or 900 s SLO attainment over monitor-only.
    #[test]
    fn closed_loop_strictly_beats_monitor_only_under_combined_chaos() {
        let duration = Seconds::new(3600.0);
        let report = HealthReport::try_run_campaigns(
            &[Campaign::combined(duration)],
            duration,
            4,
            8,
            HealthConfig::standard(),
            0x0004_ea17,
        )
        .unwrap();
        let off = report.cell("combined", false).unwrap();
        let on = report.cell("combined", true).unwrap();
        assert!(off.detections > 0, "campaign must actually kill nodes");
        assert_eq!(off.promotions, 0, "monitor-only must never promote");
        assert!(on.promotions > 0, "closed loop must promote");
        assert!(
            on.outcome.availability > off.outcome.availability
                || on.outcome.slo_attainment > off.outcome.slo_attainment,
            "closed loop must strictly improve availability ({} vs {}) or SLO ({} vs {})",
            on.outcome.availability,
            off.outcome.availability,
            on.outcome.slo_attainment,
            off.outcome.slo_attainment
        );
    }

    #[test]
    fn detector_columns_are_sane_across_the_suite() {
        let report = HealthReport::try_run(Seconds::new(1800.0), 2, 3, 42).unwrap();
        assert_eq!(report.cells.len(), 6 * 2);
        for cell in &report.cells {
            assert!(cell.heartbeats > 0, "{}", cell.campaign);
            assert!(
                cell.promotions <= cell.detections,
                "{}: promotions {} > detections {}",
                cell.campaign,
                cell.promotions,
                cell.detections
            );
            // Heartbeats are only missed on real failure in this model,
            // so the detector never cries wolf.
            assert_eq!(cell.false_suspects, 0, "{}", cell.campaign);
            assert_eq!(cell.false_suspicion_rate, 0.0, "{}", cell.campaign);
            if !cell.closed_loop {
                assert_eq!(cell.promotions, 0, "{}", cell.campaign);
            }
            if cell.detections > 0 {
                // Silence is measured from the last heartbeat, which may
                // trail the failure by up to one lease; the standard
                // contract therefore detects no earlier than
                // (dead_missed - 1) leases after the death.
                let floor = report.lease_s * 3.0;
                assert!(
                    cell.detection.mean >= floor,
                    "{}: mean latency {} below floor {}",
                    cell.campaign,
                    cell.detection.mean,
                    floor
                );
            }
        }
    }

    #[test]
    fn invalid_grids_are_structured_errors() {
        let err = HealthReport::try_run(Seconds::new(0.0), 2, 1, 1).unwrap_err();
        assert!(err.to_string().contains("duration"), "{err}");
        let err = HealthReport::try_run(Seconds::new(900.0), 2, 0, 1).unwrap_err();
        assert!(err.to_string().contains("reps"), "{err}");
        let duration = Seconds::new(900.0);
        let err = HealthReport::try_run_campaigns(&[], duration, 2, 1, HealthConfig::standard(), 1)
            .unwrap_err();
        assert!(err.to_string().contains("campaigns"), "{err}");
        // A hostile detector contract surfaces through config validation.
        let bad = HealthConfig {
            lease_s: f64::NAN,
            ..HealthConfig::standard()
        };
        let err = HealthReport::try_run_campaigns(
            &[Campaign::independent(duration)],
            duration,
            2,
            1,
            bad,
            1,
        )
        .unwrap_err();
        assert!(err.to_string().contains("lease_s"), "{err}");
    }

    #[test]
    fn zero_reps_and_every_invalid_arm_are_one_error() {
        // Both arms of one campaign carry the hostile contract; with zero
        // replications the grid reports all three problems together
        // instead of stopping at the first.
        let duration = Seconds::new(900.0);
        let bad = HealthConfig {
            lease_s: f64::NAN,
            ..HealthConfig::standard()
        };
        let err = HealthReport::try_run_campaigns(
            &[Campaign::independent(duration)],
            duration,
            2,
            0,
            bad,
            1,
        )
        .unwrap_err();
        let paths: Vec<&str> = err.violations().iter().map(|v| v.path.as_str()).collect();
        assert_eq!(paths, ["reps", "health.lease_s", "health.lease_s"], "{err}");
    }
}
