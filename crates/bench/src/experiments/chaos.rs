//! Chaos resilience report (extension): the fault-injection campaign
//! grid applied to the paper's reference operations scenario.
//!
//! The table sweeps every standard campaign over a cold-spare ladder and
//! reports delivered work, SLA availability, and TCO per delivered
//! insight; the closing lines answer the overprovisioning question
//! directly — how many cold spares each campaign needs to hold the
//! claim-#4 availability target. The full grid rides along as JSON;
//! because the grid is one seeded order-preserving batch, the bytes are
//! identical at any worker count — CI diffs two thread counts.

use sudc_chaos::{Campaign, ChaosSummary, CLAIM4_AVAILABILITY_TARGET};
use sudc_par::json::ToJson;
use sudc_units::Seconds;

use crate::format::{percent, table};

/// Spare counts swept by the report.
const SPARE_COUNTS: [u32; 4] = [0, 2, 4, 8];

/// Simulated span of every run, seconds.
const DURATION_S: f64 = 7200.0;

/// Replications per grid cell.
const REPS: u32 = 3;

/// Ext. G: chaos resilience report — fault campaigns vs cold spares.
#[must_use]
pub fn ext_chaos() -> String {
    let duration = Seconds::new(DURATION_S);
    let summary = ChaosSummary::try_run(duration, &SPARE_COUNTS, REPS, sudc_sim::DEFAULT_SEED)
        .expect("a positive duration and rep count form a valid grid");

    let rows: Vec<Vec<String>> = summary
        .cells
        .iter()
        .map(|c| {
            vec![
                c.campaign.to_string(),
                c.spares.to_string(),
                percent(c.delivered_fraction),
                percent(c.availability),
                format!("{:.0}", c.delivery_p99_s),
                format!("{}", c.shed),
                format!("{}", c.storm_node_kills),
                if c.tco_per_insight_usd.is_finite() {
                    format!("{:.2}", c.tco_per_insight_usd)
                } else {
                    "inf".to_string()
                },
            ]
        })
        .collect();

    let recovery: Vec<String> = Campaign::suite(duration)
        .iter()
        .map(|c| {
            let needed = summary.spares_to_recover(c.name, CLAIM4_AVAILABILITY_TARGET);
            format!(
                "  {:<18} {}",
                c.name,
                needed.map_or_else(
                    || format!("not recovered within {} spares", SPARE_COUNTS[3]),
                    |n| format!("{n} cold spares"),
                ),
            )
        })
        .collect();

    format!(
        "Ext. G: chaos resilience report ({} s simulated, {} reps per cell)\n{}\n\n\
         cold spares to hold availability >= {} (claim #4)\n{}\n\n\
         full grid (JSON)\n{}\n",
        duration.value(),
        REPS,
        table(
            &[
                "campaign",
                "spares",
                "delivered",
                "availability",
                "p99 (s)",
                "shed",
                "storm kills",
                "TCO/insight ($)",
            ],
            &rows,
        ),
        CLAIM4_AVAILABILITY_TARGET,
        recovery.join("\n"),
        summary.to_json().to_string_pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_report_covers_every_campaign_and_the_recovery_question() {
        let out = ext_chaos();
        for name in [
            "independent",
            "solar_storm",
            "infant_mortality",
            "isl_flaps",
            "ground_blackouts",
            "combined",
        ] {
            assert!(out.contains(name), "missing {name}");
        }
        assert!(out.contains("cold spares to hold availability"));
        assert!(out.contains("\"claim4_availability_target\""));
    }
}
