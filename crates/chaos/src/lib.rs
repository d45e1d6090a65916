//! Deterministic fault-injection campaigns for the SµDC simulator.
//!
//! The paper's fourth optimization — near-zero-cost compute
//! overprovisioning — rests on an availability argument the baseline
//! simulator only exercises with *independent* node failures. The real
//! threats in LEO are correlated: a solar storm multiplies the SEU rate
//! for every node at once and can latch up several of them in the same
//! minute, a bad manufacturing cohort ships short-lived nodes together,
//! an ISL terminal flaps, a ground station loses a whole contact window.
//! This crate stresses the overprovisioning claim under exactly those
//! processes and reports what it takes to recover it.
//!
//! Layering:
//!
//! - [`campaign`] — [`campaign::Campaign`]: a named fault environment in
//!   physical seconds, lowered onto a `sudc_sim::SimConfig`'s tick clock
//!   at apply time; [`campaign::Campaign::suite`] is the standard
//!   rate-matched set (independent baseline, solar storm, infant
//!   mortality, ISL flaps, ground blackouts, combined).
//! - [`report`] — [`report::ChaosSummary`]: the campaign × spare-count ×
//!   replication grid, run through `sudc_sim::try_replicate_grid` (one
//!   flat parallel batch with common random numbers) so every cell is
//!   comparable and the bytes are identical at any thread count.
//! - [`health`] — [`health::HealthReport`]: every campaign run twice with
//!   the `sudc-health` failure detector — monitor-only vs closed-loop —
//!   at equal spares, pricing what detection latency costs and what
//!   closing the recovery loop buys back.
//!
//! Both reports fill their availability, delivery, SLO-attainment and
//! TCO-per-insight fields from one `sudc_sim::Outcome` per cell, the one
//! place the cross-replication rules live; each cell adds only its own
//! counters, summed over replications.
//!
//! # Examples
//!
//! ```
//! use sudc_chaos::{Campaign, ChaosSummary};
//! use sudc_par::json::ToJson;
//! use sudc_units::Seconds;
//!
//! let summary = ChaosSummary::try_run(Seconds::new(900.0), &[0, 4], 2, 7)?;
//! let quiet = summary.cell("independent", 4).unwrap();
//! assert!(quiet.availability <= 1.0);
//! // Same grid, same seed -> byte-identical report at any thread count.
//! assert_eq!(
//!     summary.to_json().to_string_pretty(),
//!     ChaosSummary::try_run(Seconds::new(900.0), &[0, 4], 2, 7)?
//!         .to_json()
//!         .to_string_pretty(),
//! );
//! # Ok::<(), sudc_errors::SudcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod health;
pub mod report;

pub use campaign::{Campaign, IslFlapSpec, PolicySpec, StormSpec};
pub use health::{HealthCell, HealthReport};
pub use report::{ChaosCell, ChaosSummary, CLAIM4_AVAILABILITY_TARGET};
pub use sudc_errors::{Diagnostics, SudcError, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_health::HealthConfig;
    use sudc_sim::try_replicate;
    use sudc_units::Seconds;

    /// Both studies are common-random-numbers grids: a resilience cell and
    /// a health arm each aggregate exactly the traces a one-cell
    /// `try_replicate` of that cell's configuration returns.
    #[test]
    fn study_cells_aggregate_exactly_the_one_cell_replications() {
        let duration = Seconds::new(900.0);
        let campaign = Campaign::solar_storm(duration);
        let (spares, reps, seed) = (2, 2, 11);
        let cell_cfg = campaign.reference_cell(spares, duration).unwrap();

        let chaos =
            ChaosSummary::try_run_campaigns(&[campaign], duration, &[0, spares], reps, seed)
                .unwrap();
        let (per_spare_usd, tco_usd, lifetime_hours) = report::spare_pricing().unwrap();
        let expected = report::aggregate(
            campaign.name,
            spares,
            &try_replicate(&cell_cfg, reps, seed).unwrap(),
            tco_usd + per_spare_usd * f64::from(spares),
            lifetime_hours,
        )
        .unwrap();
        assert_eq!(chaos.cell(campaign.name, spares), Some(&expected));

        let contract = HealthConfig::standard();
        let report =
            HealthReport::try_run_campaigns(&[campaign], duration, spares, reps, contract, seed)
                .unwrap();
        let arm_cfg = cell_cfg.with_health(HealthConfig {
            closed_loop: true,
            ..contract
        });
        let expected = health::aggregate(
            campaign.name,
            true,
            &try_replicate(&arm_cfg, reps, seed).unwrap(),
        )
        .unwrap();
        assert_eq!(report.cell(campaign.name, true), Some(&expected));
    }
}
