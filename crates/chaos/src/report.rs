//! The resilience report: a campaign × spare-count × replication grid.
//!
//! Every cell of the grid runs the same reference operations scenario —
//! same traffic, same seeds — under a different fault campaign and cold-
//! spare count. Replication `r` uses one seed across *every* cell (common
//! random numbers), so a cell-to-cell difference is the effect of the
//! campaign or the spares, never sampling noise from different draws. The
//! cells run through [`sudc_sim::try_replicate_grid`], the workspace's one
//! CRN replication grid, by way of the campaign × arm runner this crate's
//! two reports share: it owns the seeds, validates every cell up front,
//! and runs the whole `(cell, rep)` grid as one order-preserving parallel
//! batch, so the aggregated [`ChaosSummary`] is byte-identical at any
//! thread count.

use sudc_core::tco::TcoLine;
use sudc_core::Scenario;
use sudc_errors::{Diagnostics, SudcError};
use sudc_par::json::{Json, ToJson};
use sudc_sim::{Outcome, RunTrace};
use sudc_sscm::subsystems::Subsystem;
use sudc_units::Seconds;

use crate::campaign::Campaign;

/// The availability the paper's claim #4 (near-zero-cost overprovisioning)
/// promises: the overprovisioned pool keeps full capability essentially
/// the whole mission. The report quantifies the cold spares each campaign
/// needs to hold SLA availability at or above this target.
pub const CLAIM4_AVAILABILITY_TARGET: f64 = 0.99;

/// One cell of the grid: one campaign at one spare count, aggregated over
/// all replications.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Campaign name ([`Campaign::name`]).
    pub campaign: &'static str,
    /// Cold spares installed over the required node count.
    pub spares: u32,
    /// The cell's replications summarized: its `availability` is the SLA
    /// availability the claim-#4 target is checked against.
    pub outcome: Outcome,
    /// Upset-corrupted processings, summed over replications.
    pub corrupted: u64,
    /// Retry attempts scheduled, summed.
    pub retries: u64,
    /// Images abandoned after exhausting the retry budget, summed.
    pub retry_exhausted: u64,
    /// Images shed by queue bounds or freshness deadlines, summed.
    pub shed: u64,
    /// Nodes destroyed by storm latch-ups, summed.
    pub storm_node_kills: u64,
    /// ISL link-down transitions, summed.
    pub isl_flaps: u64,
    /// Ground-contact windows lost to blackouts, summed.
    pub blackout_windows: u64,
    /// Mission TCO (reference design + this cell's spares priced at the
    /// per-node compute-payload share) per delivered insight, USD, using
    /// the cell's delivery rate extrapolated over the design lifetime.
    /// Infinite when the cell delivers nothing — the cost of a dead
    /// pipeline is unbounded, which is the point.
    pub tco_per_insight_usd: f64,
}

/// The full resilience report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSummary {
    /// Simulated span of every run, seconds.
    pub duration_s: f64,
    /// Replications per cell.
    pub reps: u32,
    /// Spare counts swept, in grid order.
    pub spare_counts: Vec<u32>,
    /// All cells, campaign-major in [`Campaign::suite`] order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSummary {
    /// Runs the standard campaign suite over `spare_counts` with `reps`
    /// replications per cell, validating the grid and every
    /// campaign-applied configuration before launching any work.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `duration` is not positive,
    /// `spare_counts` is empty, or the reference TCO pipeline fails; and
    /// otherwise with one error listing a zero `reps` and every faulted
    /// configuration's [`sudc_sim::SimConfig::try_validate`] violations.
    pub fn try_run(
        duration: Seconds,
        spare_counts: &[u32],
        reps: u32,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        Self::try_run_campaigns(
            &Campaign::suite(duration),
            duration,
            spare_counts,
            reps,
            base_seed,
        )
    }

    /// Runs an explicit campaign list instead of the standard suite — the
    /// workhorse behind [`ChaosSummary::try_run`], exposed for focused
    /// studies (e.g. a high-replication independent-vs-storm comparison).
    ///
    /// # Errors
    ///
    /// Same contract as [`ChaosSummary::try_run`]; additionally errors on
    /// an empty campaign list.
    pub fn try_run_campaigns(
        campaigns: &[Campaign],
        duration: Seconds,
        spare_counts: &[u32],
        reps: u32,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("chaos campaign grid");
        d.positive("duration", duration.value());
        d.ensure(
            !spare_counts.is_empty(),
            "spare_counts.len()",
            spare_counts.len(),
            "at least one spare count",
        );
        let grid = crate::try_run_grid(d, campaigns, spare_counts, reps, base_seed, |c, s| {
            c.reference_cell(s, duration)
        })?;

        let (per_spare_usd, tco_total_usd, lifetime_hours) = spare_pricing()?;
        let cells = grid
            .iter()
            .map(|(campaign, spares, traces)| {
                aggregate(
                    campaign,
                    *spares,
                    traces,
                    tco_total_usd + per_spare_usd * f64::from(*spares),
                    lifetime_hours,
                )
            })
            .collect::<Result<_, _>>()?;

        Ok(Self {
            duration_s: duration.value(),
            reps,
            spare_counts: spare_counts.to_vec(),
            cells,
        })
    }

    /// Looks up one cell by campaign name and spare count.
    #[must_use]
    pub fn cell(&self, campaign: &str, spares: u32) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.campaign == campaign && c.spares == spares)
    }

    /// The smallest swept spare count whose availability under `campaign`
    /// reaches `target`, or `None` if no swept count recovers it.
    #[must_use]
    pub fn spares_to_recover(&self, campaign: &str, target: f64) -> Option<u32> {
        let mut counts: Vec<u32> = self.spare_counts.clone();
        counts.sort_unstable();
        counts.into_iter().find(|&s| {
            self.cell(campaign, s)
                .is_some_and(|c| c.outcome.availability >= target)
        })
    }
}

impl ToJson for ChaosSummary {
    fn to_json(&self) -> Json {
        let spares: Vec<Json> = self.spare_counts.iter().map(|&s| Json::from(s)).collect();
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::object()
                    .with("campaign", c.campaign)
                    .with("spares", c.spares)
                    .with("delivered_fraction", c.outcome.delivered_fraction)
                    .with("availability", c.outcome.availability)
                    .with("end_full_fraction", c.outcome.end_full_fraction)
                    .with("delivery_p99_s", c.outcome.delivery.p99)
                    .with("mean_downlink_backlog", c.outcome.mean_downlink_backlog)
                    .with("delivered_per_hour", c.outcome.delivered_per_hour)
                    .with("corrupted", c.corrupted as f64)
                    .with("retries", c.retries as f64)
                    .with("retry_exhausted", c.retry_exhausted as f64)
                    .with("shed", c.shed as f64)
                    .with("storm_node_kills", c.storm_node_kills as f64)
                    .with("isl_flaps", c.isl_flaps as f64)
                    .with("blackout_windows", c.blackout_windows as f64)
                    .with("tco_per_insight_usd", c.tco_per_insight_usd)
            })
            .collect();
        Json::object()
            .with("duration_s", self.duration_s)
            .with("reps", self.reps)
            .with("claim4_availability_target", CLAIM4_AVAILABILITY_TARGET)
            .with("spare_counts", Json::Arr(spares))
            .with("cells", Json::Arr(cells))
    }
}

/// Prices one cold spare at the per-node share of the reference design's
/// compute payload (spares are powered off, so they carry no extra power
/// or thermal cost — the heart of the near-zero-cost claim). Returns
/// `(per-spare USD, reference TCO USD, design lifetime in hours)`.
fn spare_pricing() -> Result<(f64, f64, f64), SudcError> {
    let design = Scenario::Reference.try_design()?;
    let tco = design.try_tco()?;
    let compute_usd = tco
        .lines()
        .into_iter()
        .find_map(|(line, usd)| {
            (line == TcoLine::Satellite(Subsystem::ComputePayload)).then(|| usd.value())
        })
        .unwrap_or(0.0);
    let per_node = compute_usd / f64::from(sudc_core::dynamics::REQUIRED_NODES);
    let lifetime_hours = design.lifetime.to_seconds().value() / 3600.0;
    Ok((per_node, tco.total().value(), lifetime_hours))
}

/// Aggregates one cell's replications: one [`Outcome`], plus the fault
/// counters summed over replications.
///
/// # Errors
///
/// Returns a structured error if `traces` is empty.
fn aggregate(
    campaign: &'static str,
    spares: u32,
    traces: &[RunTrace],
    adjusted_tco_usd: f64,
    lifetime_hours: f64,
) -> Result<ChaosCell, SudcError> {
    let outcome = Outcome::try_from_traces(traces)?;
    let total = |f: &dyn Fn(&RunTrace) -> u64| traces.iter().map(f).sum::<u64>();
    Ok(ChaosCell {
        campaign,
        spares,
        outcome,
        corrupted: total(&|t| t.corrupted),
        retries: total(&|t| t.retries),
        retry_exhausted: total(&|t| t.retry_exhausted),
        shed: total(&|t| t.shed_batch_overflow + t.shed_downlink_overflow + t.shed_deadline),
        storm_node_kills: total(&|t| t.storm_node_kills),
        isl_flaps: total(&|t| t.isl_flaps),
        blackout_windows: total(&|t| t.blackout_windows),
        tco_per_insight_usd: outcome.tco_per_insight(adjusted_tco_usd, lifetime_hours),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StormSpec;

    /// A small but non-trivial grid shared by the tests (each run of it is
    /// ~a second of work, so tests reuse one instance where possible).
    fn small_grid() -> ChaosSummary {
        ChaosSummary::try_run(Seconds::new(1800.0), &[0, 2, 16], 3, 42).unwrap()
    }

    #[test]
    fn grid_covers_every_campaign_and_spare_count() {
        let s = small_grid();
        assert_eq!(s.cells.len(), 6 * 3);
        for c in Campaign::suite(Seconds::new(1800.0)) {
            for &spares in &[0, 2, 16] {
                let o = &s.cell(c.name, spares).unwrap().outcome;
                assert!((0.0..=1.0).contains(&o.availability), "{}", c.name);
                assert!((0.0..=1.0).contains(&o.delivered_fraction), "{}", c.name);
            }
        }
    }

    #[test]
    fn correlated_storms_are_worse_than_rate_matched_independent_failures() {
        // The heart of the study: the same expected kills per node,
        // delivered as cross-node-correlated storm shocks, must cost more
        // availability than the independent process at equal spares. A
        // focused high-replication grid keeps the comparison out of
        // sampling noise: rare major storms carry most of the damage.
        let duration = Seconds::new(3600.0);
        let campaigns = [
            Campaign::independent(duration),
            Campaign::solar_storm(duration),
        ];
        let s = ChaosSummary::try_run_campaigns(&campaigns, duration, &[2], 32, 0xc0_44e1).unwrap();
        let ind = s.cell("independent", 2).unwrap();
        let storm = s.cell("solar_storm", 2).unwrap();
        assert!(storm.storm_node_kills > 0, "storms must actually kill");
        assert!(
            storm.outcome.availability < ind.outcome.availability - 0.02,
            "storm {} vs independent {}",
            storm.outcome.availability,
            ind.outcome.availability
        );
    }

    #[test]
    fn enough_spares_recover_the_claim4_target() {
        let s = small_grid();
        for campaign in ["independent", "solar_storm"] {
            // Degraded at zero spares...
            let bare = s.cell(campaign, 0).unwrap();
            assert!(
                bare.outcome.availability < CLAIM4_AVAILABILITY_TARGET,
                "{campaign} bare availability {}",
                bare.outcome.availability
            );
            // ...recovered somewhere in the sweep.
            let needed = s
                .spares_to_recover(campaign, CLAIM4_AVAILABILITY_TARGET)
                .unwrap_or_else(|| panic!("{campaign} never recovers"));
            assert!(needed > 0, "{campaign} should need spares");
        }
    }

    #[test]
    fn fault_counters_land_in_the_campaigns_that_arm_them() {
        let s = small_grid();
        assert!(s.cell("isl_flaps", 0).unwrap().isl_flaps > 0);
        assert!(s.cell("ground_blackouts", 0).unwrap().blackout_windows > 0);
        assert!(s.cell("independent", 0).unwrap().storm_node_kills == 0);
        let combined = s.cell("combined", 0).unwrap();
        assert!(combined.storm_node_kills > 0);
        assert!(combined.blackout_windows > 0);
    }

    #[test]
    fn spare_tco_grows_but_buys_delivered_work() {
        let s = small_grid();
        let bare = s.cell("solar_storm", 0).unwrap();
        let spared = s.cell("solar_storm", 16).unwrap();
        assert!(spared.outcome.delivered_fraction >= bare.outcome.delivered_fraction);
        // Spares are priced: at *equal* delivery the spared cell would
        // cost more per insight, so if it costs less it must deliver more.
        assert!(spared.tco_per_insight_usd.is_finite());
    }

    #[test]
    fn invalid_grids_are_structured_errors() {
        let err = ChaosSummary::try_run(Seconds::new(0.0), &[0], 1, 1).unwrap_err();
        assert!(err.to_string().contains("duration"), "{err}");
        let err = ChaosSummary::try_run(Seconds::new(900.0), &[], 1, 1).unwrap_err();
        assert!(err.to_string().contains("spare_counts"), "{err}");
        let err = ChaosSummary::try_run(Seconds::new(900.0), &[0], 0, 1).unwrap_err();
        assert!(err.to_string().contains("reps"), "{err}");
    }

    #[test]
    fn zero_reps_and_every_invalid_cell_are_one_error() {
        // The second campaign's applied configuration is invalid at every
        // spare count; with zero replications the grid reports the reps
        // and both of its violations in every one of its cells together,
        // in cell order, instead of stopping at the first.
        let duration = Seconds::new(900.0);
        let mut bad = Campaign::solar_storm(duration);
        bad.upset_probability = f64::NAN;
        bad.storm = bad.storm.map(|storm| StormSpec {
            seu_multiplier: 0.5,
            ..storm
        });
        let campaigns = [Campaign::independent(duration), bad];
        let err = ChaosSummary::try_run_campaigns(&campaigns, duration, &[0, 2], 0, 1).unwrap_err();
        let paths: Vec<&str> = err.violations().iter().map(|v| v.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "reps",
                "faults.upset_probability",
                "faults.storm.seu_multiplier",
                "faults.upset_probability",
                "faults.storm.seu_multiplier",
            ],
            "{err}"
        );
    }
}
