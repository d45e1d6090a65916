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
//! Both reports run through one campaign × arm grid runner (the arms are
//! spare counts or controller settings), and each of their cells holds
//! one `sudc_sim::Outcome`, the one place the cross-replication rules
//! live; a cell adds only its own counters, summed over replications.
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
//! assert!(quiet.outcome.availability <= 1.0);
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

use sudc_sim::{try_replicate_grid, RunTrace, SimConfig};

/// One grid cell: its campaign's name, its arm and its traces in
/// replication order.
type GridCell<A> = (&'static str, A, Vec<RunTrace>);

/// Finishes a report's grid checks `d` with a non-empty `campaigns`, then
/// runs every `(campaign, arm)` cell's configuration, `cell(campaign,
/// arm)`, as one [`try_replicate_grid`] with `reps` common-random-numbers
/// replications. Returns the cells campaign-major, in `campaigns` ×
/// `arms` order.
///
/// # Errors
///
/// Returns `d`'s violations, else the first error `cell` returns, else
/// one error listing a zero `reps` and every cell configuration's
/// [`SimConfig::try_validate`] violations in cell order.
fn try_run_grid<A: Copy>(
    mut d: Diagnostics,
    campaigns: &[Campaign],
    arms: &[A],
    reps: u32,
    base_seed: u64,
    cell: impl Fn(&Campaign, A) -> Result<SimConfig, SudcError>,
) -> Result<Vec<GridCell<A>>, SudcError> {
    d.ensure(
        !campaigns.is_empty(),
        "campaigns.len()",
        campaigns.len(),
        "at least one campaign",
    );
    d.finish()?;
    let cells: Vec<(&Campaign, A)> = campaigns
        .iter()
        .flat_map(|c| arms.iter().map(move |&arm| (c, arm)))
        .collect();
    let configs = cells
        .iter()
        .map(|&(c, arm)| cell(c, arm))
        .collect::<Result<Vec<_>, _>>()?;
    let grid = try_replicate_grid(&configs, reps, base_seed)?;
    Ok(cells
        .into_iter()
        .zip(grid)
        .map(|((c, arm), traces)| (c.name, arm, traces))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_health::HealthConfig;
    use sudc_par::json::ToJson;
    use sudc_sim::try_replicate;
    use sudc_units::Seconds;

    /// The grid is common random numbers in campaign-major order: each
    /// cell holds exactly the traces a one-cell `try_replicate` of its
    /// configuration returns.
    #[test]
    fn grid_cells_are_the_one_cell_replications_in_campaign_major_order() {
        let duration = Seconds::new(900.0);
        let campaigns = [
            Campaign::independent(duration),
            Campaign::solar_storm(duration),
        ];
        let (reps, seed) = (2, 11);
        let cell = |c: &Campaign, spares| c.reference_cell(spares, duration);
        let d = Diagnostics::new("test grid");
        let grid = try_run_grid(d, &campaigns, &[0, 2], reps, seed, cell).unwrap();
        let [independent, storm] = &campaigns;
        let expected = [(independent, 0), (independent, 2), (storm, 0), (storm, 2)];
        assert_eq!(grid.len(), expected.len());
        for ((campaign, spares), (name, arm, traces)) in expected.into_iter().zip(&grid) {
            assert_eq!((*name, *arm), (campaign.name, spares));
            let one_cell = try_replicate(&cell(campaign, spares).unwrap(), reps, seed).unwrap();
            assert_eq!(traces, &one_cell, "{name} at {spares} spares");
        }
    }

    #[test]
    fn both_reports_are_byte_identical_at_every_thread_count() {
        let duration = Seconds::new(900.0);
        let campaigns = [
            Campaign::independent(duration),
            Campaign::combined(duration),
        ];
        let render = |threads: usize| {
            sudc_par::set_threads(threads);
            let chaos = ChaosSummary::try_run_campaigns(&campaigns, duration, &[0, 4], 2, 11);
            let health = HealthReport::try_run_campaigns(
                &campaigns,
                duration,
                2,
                2,
                HealthConfig::standard(),
                11,
            );
            sudc_par::set_threads(0);
            [
                chaos.unwrap().to_json().to_string_pretty(),
                health.unwrap().to_json().to_string_pretty(),
            ]
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(8));
    }
}
