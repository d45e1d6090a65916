//! Closed-loop health plane (extension): failure detection, degraded-mode
//! routing, and what closing the recovery loop buys under chaos.
//!
//! One report, four parts. First, the detector contract: the heartbeat
//! lease, the SUSPECT/DEAD thresholds, and the readmission probation it
//! lowers onto the sim's tick clock. Second, the controller-on vs
//! controller-off grid: every chaos campaign run twice at equal spares
//! with common random numbers — the availability and freshness-SLO gap
//! between the arms is exactly the value of the closed loop, and the
//! detection-latency and false-suspicion columns price the detector
//! itself. Third, degraded-mode routing: a recorded health run's verdict
//! stream becomes a `PoolTimeline`, whose per-block pool fractions
//! re-price the router's orbit-vs-ground placement. Fourth, the audit
//! loop: the recorded `BusLog` replayed through the router-facing
//! summary (`RoutedLoad::try_replay_from_log`) byte-equal to the live
//! aggregation.
//!
//! Every number is a pure function of the seeds and model constants, so
//! the bytes are identical at any worker count; CI diffs every committed
//! snapshot — this one and the controller-off ones it must leave
//! untouched — at `--jobs 1/2/4/8`.

use sudc_chaos::{Campaign, HealthReport};
use sudc_health::{HealthConfig, PoolTimeline};
use sudc_par::json::ToJson;
use sudc_router::{ReplayReport, RoutedLoad, Router, RouterConfig, StreamConfig, Tier};
use sudc_sim::{SimConfig, DEFAULT_SEED};
use sudc_units::Seconds;

use crate::format::{percent, table};

/// Cold spares installed in every grid cell (equal across arms).
const SPARES: u32 = 4;

/// Simulated span of every run, seconds.
const DURATION_S: f64 = 3600.0;

/// Replications per arm.
const REPS: u32 = 4;

/// Ext. K: the closed-loop health plane under chaos.
#[must_use]
pub fn ext_health() -> String {
    let duration = Seconds::new(DURATION_S);
    let contract = HealthConfig::standard();

    // --- part 1: the detector contract ------------------------------
    let lowered = contract
        .try_lower(0.1)
        .expect("standard contract lowers on the grid tick");
    let contract_lines = format!(
        "  lease {} s ({} ticks at 0.1 s)  suspect after {} missed  dead after {} missed\n  \
         readmission after {} on-time leases  detection-latency floor {} s",
        contract.lease_s,
        lowered.lease_ticks,
        contract.suspect_missed,
        contract.dead_missed,
        contract.probation_leases,
        // Silence is measured from the last heartbeat, up to one lease
        // before the failure.
        contract.lease_s * f64::from(contract.dead_missed - 1),
    );

    // --- part 2: controller-on vs controller-off grid ----------------
    let report = HealthReport::try_run(duration, SPARES, REPS, DEFAULT_SEED)
        .expect("a positive duration and rep count form a valid grid");
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.campaign.to_string(),
                if c.closed_loop { "on" } else { "off" }.to_string(),
                percent(c.availability),
                percent(c.slo_attainment),
                format!("{}", c.detections),
                format!("{}", c.promotions),
                format!("{:.0}", c.detection_latency_mean_s),
                percent(c.false_suspicion_rate),
            ]
        })
        .collect();
    let gains: Vec<String> = Campaign::suite(duration)
        .iter()
        .map(|c| {
            let gain = report.availability_gain(c.name).unwrap_or(0.0);
            format!("  {:<18} {:+.4}", c.name, gain)
        })
        .collect();

    // --- part 3: degraded-mode routing from observed verdicts ---------
    let cfg = Campaign::independent(duration)
        .apply(&SimConfig::reference_operations(duration))
        .with_health(contract);
    // A replication seed under which the independent campaign actually
    // kills nodes inside the horizon (the default seed draws a
    // fault-free run, which would make the degradation demo trivial).
    let (trace, log) = sudc_sim::run_recorded(&cfg, 9);
    let timeline = PoolTimeline::try_from_log(&log, cfg.required)
        .expect("recorded log yields a pool timeline");
    let mut stream = StreamConfig::new(20_000, 0x5bdc_2026, 1.4 * 30.0);
    stream.block = 2048;
    stream.queue_capacity = 2048;
    let fractions = timeline
        .try_fractions(stream.blocks() as usize)
        .expect("at least one block");
    let full = Router::reference().route_stream(&stream);
    let degraded = RouterConfig::try_reference()
        .and_then(|cfg| cfg.try_with_degraded_pools(&fractions))
        .and_then(Router::try_new)
        .expect("observed fractions are valid")
        .route_stream(&stream);
    let sudc = Tier::OrbitalSudc.index();
    let degraded_lines = format!(
        "  detections {}  promotions {}  min alive {}/{} nodes  mean pool {}\n  \
         SuDC placements {} -> {}  acceptance {} -> {}",
        trace.detections,
        trace.promotions,
        timeline.min_alive(),
        cfg.required,
        percent(fractions.iter().sum::<f64>() / fractions.len() as f64),
        full.stats.tier_counts[sudc],
        degraded.stats.tier_counts[sudc],
        percent(full.stats.acceptance_rate()),
        percent(degraded.stats.acceptance_rate()),
    );

    // --- part 4: the record -> replay audit loop ----------------------
    let load = RoutedLoad::from_outcome(&degraded);
    let audit_duration = Seconds::new(1800.0);
    let (live_trace, audit_log) = load
        .try_record(audit_duration, DEFAULT_SEED, None)
        .expect("recording run");
    let live = ReplayReport::try_from_traces("nominal", load.sudc_share, vec![live_trace])
        .expect("live audit");
    let audited = load
        .try_replay_from_log(audit_duration, None, &audit_log)
        .expect("from-log audit");
    let audit_line = format!(
        "  {} recorded samples  live == replayed audit: {}  SLO attainment {}",
        audit_log.records(),
        live == audited,
        percent(audited.slo_attainment),
    );

    format!(
        "Ext. K: closed-loop health plane ({} s simulated, {} reps per arm, {} spares)\n\n\
         detector contract\n{}\n\n\
         controller-off vs controller-on, per campaign\n{}\n\n\
         closed-loop availability gain (on minus off)\n{}\n\n\
         degraded-mode routing from the observed pool (independent campaign)\n{}\n\n\
         recorded-log routing audit\n{}\n\n\
         full grid (JSON)\n{}\n",
        duration.value(),
        REPS,
        SPARES,
        contract_lines,
        table(
            &[
                "campaign",
                "loop",
                "availability",
                "SLO",
                "detections",
                "promotions",
                "latency (s)",
                "false rate",
            ],
            &rows,
        ),
        gains.join("\n"),
        degraded_lines,
        audit_line,
        report.to_json().to_string_pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_report_covers_every_part() {
        let out = ext_health();
        for needle in [
            "detector contract",
            "controller-off vs controller-on",
            "availability gain",
            "degraded-mode routing",
            "recorded-log routing audit",
            "live == replayed audit: true",
            "combined",
        ] {
            assert!(out.contains(needle), "missing {needle:?}");
        }
    }
}
