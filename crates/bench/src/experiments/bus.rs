//! Data-plane report (extension): the QoS-contracted pub/sub bus the
//! sim kernel publishes its pipeline through.
//!
//! Four parts. First, the standard topic table with each topic's QoS
//! contract — the DDS-flavored policies (`RELIABLE`, `DEADLINE`,
//! `TRANSIENT_LOCAL`, bounded history) the workspace lowers onto its
//! physical delivery models. Second, the lowering itself at the
//! reference tick length: wall-clock contracts become the integer tick
//! quantities (`RecoveryPolicy` fields) the kernel executes. Third,
//! per-topic traffic from recorded runs, nominal and under the
//! `combined` chaos campaign whose queue bounds and deadline *are* the
//! capture/insight contracts. Fourth, the record→replay audit: each
//! run's topic stream is serialized to the compact binary log, decoded,
//! and re-driven through a fresh `RunTrace` fold, which must reproduce
//! the live trace byte for byte.
//!
//! Every number is a pure function of fixed seeds and model constants —
//! no wall-clock — so the bytes are identical at any worker count; CI
//! diffs `--jobs 1/2/8` outputs against each other and against the
//! committed `results/bus.txt` snapshot.

use sudc_bus::{BusConfig, BusLog, BusStats, Durability, Reliability, TopicId};
use sudc_chaos::Campaign;
use sudc_sim::{replay, try_run, SimConfig, DEFAULT_SEED};
use sudc_units::Seconds;

use crate::format::table;

/// Simulated span, seconds.
const DURATION_S: f64 = 1800.0;

fn reliability(r: Reliability) -> String {
    match r {
        Reliability::BestEffort => "BEST_EFFORT".to_string(),
        Reliability::Reliable { max_retries } => format!("RELIABLE({max_retries})"),
    }
}

fn durability(d: Durability) -> &'static str {
    match d {
        Durability::Volatile => "VOLATILE",
        Durability::TransientLocal => "TRANSIENT_LOCAL",
    }
}

fn deadline(s: f64) -> String {
    if s == 0.0 {
        "-".to_string()
    } else {
        format!("{s:.0} s")
    }
}

fn depth(d: usize) -> String {
    if d == 0 {
        "unbounded".to_string()
    } else {
        d.to_string()
    }
}

/// Ext. I: the QoS-contracted constellation data plane.
#[must_use]
pub fn ext_bus() -> String {
    let topics = BusConfig::standard();
    let duration = Seconds::new(DURATION_S);

    // The standard topic table and its contracts.
    let topic_rows: Vec<Vec<String>> = topics
        .iter()
        .map(|(id, spec)| {
            vec![
                id.index().to_string(),
                spec.name.to_string(),
                reliability(spec.qos.reliability),
                deadline(spec.qos.deadline_s),
                durability(spec.qos.durability).to_string(),
                depth(spec.qos.history_depth),
            ]
        })
        .collect();

    // QoS lowering at the reference tick: the integer quantities the
    // delivery machinery executes (`RecoveryPolicy` arithmetic).
    let tick_s = SimConfig::reference_operations(duration).tick_seconds;
    let lowering_rows: Vec<Vec<String>> = topics
        .iter()
        .map(|(_, spec)| {
            let low = spec
                .qos
                .try_lower(tick_s)
                .expect("standard contracts lower");
            vec![
                spec.name.to_string(),
                low.deadline_ticks.to_string(),
                low.max_retries.to_string(),
                depth(low.history_depth),
                if low.transient_local { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();

    // Recorded runs: nominal reference operations, and the combined
    // chaos campaign (whose queue bounds and deadline are the
    // capture/insight contracts lowered onto the recovery policy).
    let nominal_cfg = SimConfig::reference_operations(duration);
    let combined_cfg = Campaign::combined(duration).apply(&nominal_cfg);
    let mut traffic_rows: Vec<Vec<String>> = Vec::new();
    let mut audit_rows: Vec<Vec<String>> = Vec::new();
    for (name, cfg) in [("nominal", &nominal_cfg), ("combined", &combined_cfg)] {
        let (trace, (log, stats)) =
            try_run(cfg, DEFAULT_SEED, (BusLog::new(), BusStats::default()))
                .expect("the reference and combined configs are valid");
        // The record ledger: every published sample is recorded once.
        assert_eq!(
            log.records(),
            stats.total(),
            "{name}: recorded != published"
        );
        let mut row = vec![name.to_string()];
        for (id, _) in topics.iter() {
            row.push(stats.published(id).to_string());
        }
        row.push(stats.total().to_string());
        traffic_rows.push(row);

        let replayed = replay(cfg, &log).expect("recorded log replays");
        audit_rows.push(vec![
            name.to_string(),
            log.records().to_string(),
            log.byte_len().to_string(),
            format!("{:.2}", log.byte_len() as f64 / log.records() as f64),
            if replayed == trace { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let topic_name = |id: TopicId| topics.topic(id).expect("standard topic").name;
    format!(
        "Ext. I: QoS-contracted constellation data plane (seed {DEFAULT_SEED:#x}, {} s simulated)\n\
         standard topic table\n{}\n\n\
         contract lowering at the {tick_s} s reference tick (RecoveryPolicy arithmetic)\n{}\n\n\
         per-topic samples published by the kernel run\n{}\n\n\
         record -> replay audit (binary topic log re-driven through a fresh `RunTrace` fold)\n{}\n",
        duration.value(),
        table(
            &["id", "topic", "reliability", "deadline", "durability", "history"],
            &topic_rows,
        ),
        table(
            &["topic", "deadline_ticks", "max_retries", "history", "transient_local"],
            &lowering_rows,
        ),
        table(
            &[
                "run",
                topic_name(sudc_bus::TOPIC_CAPTURES),
                topic_name(sudc_bus::TOPIC_INSIGHTS),
                topic_name(sudc_bus::TOPIC_TELEMETRY),
                topic_name(sudc_bus::TOPIC_FAULTS),
                "total",
            ],
            &traffic_rows,
        ),
        table(
            &["run", "records", "bytes", "bytes/record", "replay == live"],
            &audit_rows,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_report_has_contracts_lowering_and_audit() {
        let out = ext_bus();
        assert!(out.contains("eo/captures"));
        assert!(out.contains("TRANSIENT_LOCAL"));
        assert!(out.contains("record -> replay audit"));
        // Both audit rows must verify.
        assert!(out.matches("yes").count() >= 2);
        assert!(!out.contains("NO"));
    }
}
