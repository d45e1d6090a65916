//! Dynamic operations simulation (extension): the discrete-event
//! constellation simulator applied to the paper's reference scenario.
//!
//! Three studies share one report: the no-filtering baseline, the
//! collaborative cloud-filtering constellation (§V), and a cold-spare
//! mission availability run checked against the analytic hot-pool bound.
//! The report embeds the full JSON summaries; because every replication is
//! seeded and order-preserving, the bytes are identical at any worker
//! count — CI diffs two thread counts against each other.

use sudc_par::json::ToJson;
use sudc_reliability::availability::NodePool;
use sudc_sim::{SimConfig, SimSummary, DEFAULT_SEED};
use sudc_units::Seconds;

use crate::format::{percent, table};

/// Simulated operations span, seconds.
const DURATION_S: f64 = 7200.0;

/// Replications per scenario.
const REPS: u32 = 3;

/// Ext. F: dynamic operations simulation — latency, backlog, and
/// availability traces from the discrete-event simulator.
#[must_use]
pub fn ext_sim() -> String {
    let duration = Seconds::new(DURATION_S);

    let baseline = SimSummary::try_study(
        &SimConfig::reference_operations(duration),
        REPS,
        DEFAULT_SEED,
    )
    .expect("the reference preset is valid");
    let collab = SimSummary::try_study(
        &SimConfig::collaborative_operations(duration),
        REPS,
        DEFAULT_SEED,
    )
    .expect("the collaborative preset is valid");

    let ops_rows: Vec<Vec<String>> = [("baseline", &baseline), ("collaborative", &collab)]
        .iter()
        .map(|(name, s)| {
            vec![
                (*name).to_string(),
                format!("{:.1}", s.mean_processing_p99),
                format!("{:.0}", s.mean_delivery_p99),
                format!("{:.1}", s.mean_batch_queue),
                format!("{:.0}", s.mean_downlink_backlog),
                percent(s.mean_utilization),
                format!("{:.0}", s.mean_delivered_per_hour),
            ]
        })
        .collect();

    // Mission-scale sparing: simulated end-state capability vs the
    // analytic hot-pool bound at one MTTF.
    let mission_reps = REPS * 20;
    let mission = SimConfig::try_cold_spare_mission(20, 10, 0.1, 1.0)
        .and_then(|cfg| SimSummary::try_study(&cfg, mission_reps, DEFAULT_SEED))
        .expect("20 nodes cover the 10 required");
    let analytic_hot = NodePool::try_new(20, 10)
        .and_then(|pool| pool.try_availability(1.0))
        .expect("20 nodes cover the 10 required");

    format!(
        "Ext. F: dynamic operations simulation ({} s simulated, {} reps)\n{}\n\n\
         cold-spare mission (20 nodes / 10 required, 10% dormant aging, 1 MTTF, {} reps)\n\
           simulated end-state full capability: {}\n\
           analytic hot-pool bound:             {}\n\n\
         baseline summary (JSON)\n{}\n\ncollaborative summary (JSON)\n{}\n\n\
         cold-spare mission summary (JSON)\n{}\n",
        duration.value(),
        REPS,
        table(
            &[
                "scenario",
                "p99 proc (s)",
                "p99 deliver (s)",
                "mean queue",
                "mean backlog",
                "util",
                "insights/h",
            ],
            &ops_rows,
        ),
        mission_reps,
        percent(mission.end_full_fraction),
        percent(analytic_hot),
        baseline.to_json().to_string_pretty(),
        collab.to_json().to_string_pretty(),
        mission.to_json().to_string_pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_report_contains_both_scenarios_and_the_bound() {
        let out = ext_sim();
        assert!(out.contains("baseline"));
        assert!(out.contains("collaborative"));
        assert!(out.contains("analytic hot-pool bound"));
        assert!(out.contains("\"mean_availability\""));
    }
}
