//! Request routing (extension): orbit-vs-ground placement over a
//! seeded synthetic tasking stream.
//!
//! One report, three parts. First, a placement-mix sweep: the same
//! stream routed at rising multiples of the reference capture rate —
//! at 1× the SµDC's amortized cost wins nearly everything; as the
//! offered load outruns the SµDC's compute-ingest and the ground
//! segment's drain rate, small payloads overflow to the capturing
//! satellites' flight computers and the rest defers or is rejected.
//! Second, the per-application tier split at the stressed point.
//! Third, the routed load replayed through the operations simulator,
//! nominal and under the solar-storm chaos campaign, reporting
//! attainment of the workspace freshness SLO.
//!
//! Every number is a pure function of the stream seed and the model
//! constants — no wall-clock — so the bytes are identical at any worker
//! count; CI diffs `--jobs 1/2/8` outputs against each other and against
//! the committed `results/router.txt` snapshot.

use sudc_compute::workloads::suite;
use sudc_core::dynamics::DynamicScenario;
use sudc_core::Scenario;
use sudc_router::{RoutedLoad, Router, RoutingOutcome, StreamConfig, Tier};
use sudc_sim::DEFAULT_SEED;
use sudc_units::Seconds;

use crate::format::{percent, table};
use crate::harness::env_positive;

/// Requests routed per sweep point (env `SUDC_ROUTER_REQUESTS`
/// overrides; CI uses the default).
fn requests() -> u64 {
    env_positive("SUDC_ROUTER_REQUESTS", 200_000)
}

/// Replay duration, seconds (env `SUDC_ROUTER_DURATION_S` overrides).
fn duration() -> Seconds {
    Seconds::new(env_positive("SUDC_ROUTER_DURATION_S", 1800.0))
}

/// Replay replications (env `SUDC_ROUTER_REPS` overrides).
fn reps() -> u32 {
    env_positive("SUDC_ROUTER_REPS", 2)
}

/// Load multipliers applied to the reference capture rate.
const LOAD_MULTIPLIERS: [f64; 3] = [1.0, 1e2, 1e4];

fn mix_row(label: &str, out: &RoutingOutcome) -> Vec<String> {
    let s = &out.stats;
    let total = s.requests as f64;
    let share = |n: u64| percent(n as f64 / total);
    vec![
        label.to_string(),
        percent(s.acceptance_rate()),
        share(s.tier_counts[Tier::OrbitalSudc.index()]),
        share(s.tier_counts[Tier::Onboard.index()]),
        share(s.tier_counts[Tier::GroundEdge.index()] + s.tier_counts[Tier::Cloud.index()]),
        share(s.deferred),
        share(s.rejected),
        format!("{:.1}", s.mean_latency_s()),
        format!("{:.3}", s.mean_cost_usd()),
    ]
}

/// Ext. H: online request placement across the four execution tiers.
#[must_use]
pub fn ext_router() -> String {
    let requests = requests();
    let router = Router::reference();
    let reference = DynamicScenario::from_scenario(Scenario::Reference, 64)
        .expect("reference scenario must size");
    let base_arrival = reference.arrival_rate();

    // Placement-mix sweep over offered load.
    let mut mix_rows: Vec<Vec<String>> = Vec::new();
    let mut outcomes: Vec<RoutingOutcome> = Vec::new();
    for &m in &LOAD_MULTIPLIERS {
        let stream = StreamConfig::new(requests, DEFAULT_SEED, base_arrival * m);
        let out = router.route_stream(&stream);
        mix_rows.push(mix_row(&format!("{m:>6.0}x"), &out));
        outcomes.push(out);
    }

    // Per-application tier split at the stressed point.
    let stressed = &outcomes[LOAD_MULTIPLIERS.len() - 1];
    let workloads = suite();
    let app_rows: Vec<Vec<String>> = workloads
        .iter()
        .enumerate()
        .map(|(a, w)| {
            let row = &stressed.stats.app_tier[a];
            let mut cells = vec![w.name.to_string()];
            for t in Tier::ALL {
                cells.push(row[t.index()].to_string());
            }
            cells
        })
        .collect();

    // Replay the reference-load placements through the simulator.
    let duration = duration();
    let reps = reps();
    let load = RoutedLoad::from_outcome(&outcomes[0]);
    let nominal = load
        .try_replay(duration, reps, DEFAULT_SEED, None)
        .expect("the routed load induces a valid scenario");
    let storm_campaign = sudc_chaos::Campaign::solar_storm(duration);
    let storm = load
        .try_replay(duration, reps, DEFAULT_SEED, Some(&storm_campaign))
        .expect("the routed load induces a valid scenario");
    let replay_rows: Vec<Vec<String>> = [&nominal, &storm]
        .iter()
        .map(|r| {
            vec![
                r.campaign.to_string(),
                percent(r.slo_attainment),
                percent(r.mean_availability),
                percent(r.delivered_fraction),
                format!("{:.0}", r.mean_delivery_p99_s),
            ]
        })
        .collect();

    format!(
        "Ext. H: online request placement ({requests} requests/point, seed {DEFAULT_SEED:#x})\n\
         reference capture rate {base_arrival:.2} req/s; sweep multiplies it\n{}\n\n\
         per-application tier split at {:.0}x load (placed requests)\n{}\n\n\
         routed load replayed through sudc-sim ({} s, {} reps, SLO {:.0} s)\n{}\n\n\
         nominal replay (JSON)\n{}\n\nsolar-storm replay (JSON)\n{}\n",
        table(
            &[
                "load",
                "placed",
                "sudc",
                "onboard",
                "ground",
                "deferred",
                "rejected",
                "mean lat (s)",
                "mean $",
            ],
            &mix_rows,
        ),
        LOAD_MULTIPLIERS[LOAD_MULTIPLIERS.len() - 1],
        table(
            &["application", "onboard", "sudc", "ground", "cloud"],
            &app_rows,
        ),
        duration.value(),
        reps,
        nominal.slo_deadline_s,
        table(
            &["campaign", "slo", "avail", "delivered", "p99 (s)"],
            &replay_rows,
        ),
        nominal.to_json().to_string_pretty(),
        storm.to_json().to_string_pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_report_has_sweep_split_and_replay() {
        let out = ext_router();
        assert!(out.contains("online request placement"));
        assert!(out.contains("per-application tier split"));
        assert!(out.contains("solar_storm"));
        assert!(out.contains("\"slo_attainment\""));
    }
}
