//! Replaying routed placements through the operations simulator.
//!
//! Routing is a steady-state pricing decision; whether the accepted
//! placements actually *survive contact* with queueing, downlink windows,
//! and injected faults is a dynamics question. [`RoutedLoad`] closes the
//! loop: it turns a [`RoutingOutcome`]
//! into a `sudc-sim` scenario — the share of the stream the router sent
//! to the orbital SµDC becomes the fraction of captures entering the
//! orbital pipeline — runs seeded replications (optionally under a
//! `sudc-chaos` campaign), and reports SLO attainment against the
//! workspace-wide freshness deadline.

use sudc_bus::BusLog;
use sudc_chaos::Campaign;
use sudc_errors::SudcError;
use sudc_par::json::Json;
use sudc_sim::{try_replicate, RunTrace, SampledLatency, SimConfig, STANDARD_FRESHNESS_DEADLINE_S};
use sudc_units::Seconds;

use crate::engine::RoutingOutcome;

/// The sim-facing summary of a routed stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedLoad {
    /// Fraction of generated requests placed on the orbital SµDC.
    pub sudc_share: f64,
}

impl RoutedLoad {
    /// Extracts the load profile from a routed stream.
    #[must_use]
    pub fn from_outcome(outcome: &RoutingOutcome) -> Self {
        Self {
            sudc_share: outcome.stats.sudc_share(),
        }
    }

    /// The sim scenario this load induces: the reference operations
    /// config with edge filtering set so that exactly `sudc_share` of
    /// captures enter the orbital pipeline.
    #[must_use]
    pub fn sim_config(&self, duration: Seconds) -> SimConfig {
        let mut cfg = SimConfig::reference_operations(duration);
        cfg.filtering = (1.0 - self.sudc_share).clamp(0.0, 0.999);
        cfg
    }

    /// [`RoutedLoad::sim_config`] under `campaign` (if any), unvalidated:
    /// for callers whose sim entry point validates it.
    fn campaign_config(&self, duration: Seconds, campaign: Option<&Campaign>) -> SimConfig {
        let base = self.sim_config(duration);
        match campaign {
            Some(c) => c.apply(&base),
            None => base,
        }
    }

    /// Replays the load through `reps` seeded replications, optionally
    /// under a fault campaign, and measures SLO attainment against the
    /// workspace freshness deadline.
    ///
    /// # Errors
    ///
    /// Returns the sim configuration's validation diagnostics if the
    /// induced scenario is invalid.
    pub fn try_replay(
        &self,
        duration: Seconds,
        reps: u32,
        seed: u64,
        campaign: Option<&Campaign>,
    ) -> Result<ReplayReport, SudcError> {
        let cfg = self.campaign_config(duration, campaign);
        let traces = try_replicate(&cfg, reps, seed)?;
        ReplayReport::try_from_traces(
            campaign.map(|c| c.name).unwrap_or("nominal"),
            self.sudc_share,
            traces,
        )
    }

    /// Re-audits a recorded topic stream ([`RoutedLoad::try_record`]'s
    /// log) without re-running the kernel: the log is folded back into a
    /// trace with [`sudc_sim::replay`] and summarized through exactly
    /// the aggregation [`RoutedLoad::try_replay`] uses, so the audit of
    /// the log is byte-equal to the audit of the live run. `duration`
    /// and `campaign` must match the recording.
    ///
    /// # Errors
    ///
    /// Returns the sim configuration's validation diagnostics if the
    /// induced scenario is invalid, or a log-format error if the stream
    /// is malformed.
    pub fn try_replay_from_log(
        &self,
        duration: Seconds,
        campaign: Option<&Campaign>,
        log: &BusLog,
    ) -> Result<ReplayReport, SudcError> {
        let cfg = self.campaign_config(duration, campaign);
        cfg.try_validate()?;
        let trace = sudc_sim::replay(&cfg, log)?;
        ReplayReport::try_from_traces(
            campaign.map(|c| c.name).unwrap_or("nominal"),
            self.sudc_share,
            vec![trace],
        )
    }

    /// Runs one seeded replication of the induced scenario with the
    /// `sudc-bus` data plane recording, returning the measured trace and
    /// the recorded topic stream. Feeding the log back through
    /// [`sudc_sim::replay`] (with [`RoutedLoad::sim_config`] for the
    /// same duration and campaign) reproduces the trace byte for byte —
    /// the routed load's operational story can be shipped and re-audited
    /// without re-running the kernel.
    ///
    /// # Errors
    ///
    /// Returns the sim configuration's validation diagnostics if the
    /// induced scenario is invalid.
    pub fn try_record(
        &self,
        duration: Seconds,
        seed: u64,
        campaign: Option<&Campaign>,
    ) -> Result<(RunTrace, BusLog), SudcError> {
        let cfg = self.campaign_config(duration, campaign);
        sudc_sim::try_run(&cfg, seed, BusLog::new())
    }
}

/// What the simulator measured when the routed load was replayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayReport {
    /// Fault campaign name, or `"nominal"`.
    pub campaign: &'static str,
    /// SµDC capture share the replay modeled.
    pub sudc_share: f64,
    /// Seeded replications aggregated.
    pub reps: u32,
    /// The freshness SLO measured against, seconds.
    pub slo_deadline_s: f64,
    /// Mean fraction of delivered insights within the freshness SLO.
    pub slo_attainment: f64,
    /// Mean compute availability over the replications.
    pub mean_availability: f64,
    /// Mean fraction of arrived work delivered.
    pub delivered_fraction: f64,
    /// Mean delivery p99 latency, seconds.
    pub mean_delivery_p99_s: f64,
}

impl ReplayReport {
    /// Aggregates measured traces into the audit record — the single
    /// summarization path shared by the live ([`RoutedLoad::try_replay`])
    /// and from-log ([`RoutedLoad::try_replay_from_log`]) routes, which
    /// is what makes the two audits byte-comparable.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] if `traces` is empty or longer than
    /// `u32::MAX`.
    pub fn try_from_traces(
        campaign: &'static str,
        sudc_share: f64,
        traces: Vec<RunTrace>,
    ) -> Result<Self, SudcError> {
        let reps = u32::try_from(traces.len())
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| {
                SudcError::single(
                    "ReplayReport::try_from_traces",
                    "traces.len()",
                    traces.len(),
                    "between 1 and u32::MAX traces",
                )
            })?;
        let n = traces.len() as f64;
        let mean = |f: &dyn Fn(&RunTrace) -> f64| traces.iter().map(f).sum::<f64>() / n;
        let slo_deadline = Seconds::new(STANDARD_FRESHNESS_DEADLINE_S);
        Ok(Self {
            campaign,
            sudc_share,
            reps,
            slo_deadline_s: STANDARD_FRESHNESS_DEADLINE_S,
            slo_attainment: mean(&|t| t.delivery_within(slo_deadline)),
            mean_availability: mean(&RunTrace::availability),
            delivered_fraction: mean(&RunTrace::delivered_fraction),
            mean_delivery_p99_s: SampledLatency::over(&traces, RunTrace::delivery_latency).p99,
        })
    }

    /// JSON object for the figures runner.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("campaign", self.campaign)
            .with("sudc_share", self.sudc_share)
            .with("reps", f64::from(self.reps))
            .with("slo_deadline_s", self.slo_deadline_s)
            .with("slo_attainment", self.slo_attainment)
            .with("mean_availability", self.mean_availability)
            .with("delivered_fraction", self.delivered_fraction)
            .with("mean_delivery_p99_s", self.mean_delivery_p99_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Router;
    use crate::request::StreamConfig;

    fn routed_load() -> RoutedLoad {
        let router = Router::reference();
        let mut stream = StreamConfig::new(8192, 0x5bdc_2026, 1.4);
        stream.block = 2048;
        stream.queue_capacity = 2048;
        RoutedLoad::from_outcome(&router.route_stream(&stream))
    }

    #[test]
    fn replay_reports_slo_attainment_in_unit_range() {
        let load = routed_load();
        let report = load
            .try_replay(Seconds::new(1800.0), 2, sudc_sim::DEFAULT_SEED, None)
            .expect("nominal replay");
        assert_eq!(report.campaign, "nominal");
        assert!((0.0..=1.0).contains(&report.slo_attainment));
        assert!((0.0..=1.0).contains(&report.delivered_fraction));
        assert!(report.mean_availability > 0.0);
    }

    #[test]
    fn solar_storm_replay_is_no_better_than_nominal() {
        let load = routed_load();
        let duration = Seconds::new(1800.0);
        let nominal = load
            .try_replay(duration, 2, sudc_sim::DEFAULT_SEED, None)
            .expect("nominal");
        let storm = Campaign::solar_storm(duration);
        let stormy = load
            .try_replay(duration, 2, sudc_sim::DEFAULT_SEED, Some(&storm))
            .expect("storm replay");
        assert_eq!(stormy.campaign, storm.name);
        assert!(stormy.mean_availability <= nominal.mean_availability + 1e-9);
    }

    #[test]
    fn recorded_topic_stream_reaudits_the_routed_load() {
        let load = routed_load();
        let duration = Seconds::new(1800.0);
        let storm = Campaign::solar_storm(duration);
        let (trace, log) = load
            .try_record(duration, sudc_sim::DEFAULT_SEED, Some(&storm))
            .expect("recorded run");
        assert!(log.records() > 0);
        let cfg = storm.apply(&load.sim_config(duration));
        assert_eq!(sudc_sim::replay(&cfg, &log).expect("replay"), trace);
    }

    #[test]
    fn replayed_routing_audit_is_byte_equal_to_live() {
        let load = routed_load();
        let duration = Seconds::new(1800.0);
        let storm = Campaign::solar_storm(duration);
        let (trace, log) = load
            .try_record(duration, sudc_sim::DEFAULT_SEED, Some(&storm))
            .expect("recorded run");
        let live = ReplayReport::try_from_traces(storm.name, load.sudc_share, vec![trace])
            .expect("live audit");
        let audited = load
            .try_replay_from_log(duration, Some(&storm), &log)
            .expect("from-log audit");
        assert_eq!(live, audited);
        assert_eq!(
            live.to_json().to_string_pretty(),
            audited.to_json().to_string_pretty()
        );
        // The nominal path closes the same loop without a campaign.
        let (trace, log) = load
            .try_record(duration, 7, None)
            .expect("nominal recording");
        let live = ReplayReport::try_from_traces("nominal", load.sudc_share, vec![trace]).unwrap();
        let audited = load.try_replay_from_log(duration, None, &log).unwrap();
        assert_eq!(live, audited);
    }

    #[test]
    fn a_hostile_campaign_is_the_same_error_from_record_and_both_replays() {
        let load = routed_load();
        let duration = Seconds::new(600.0);
        let mut hostile = Campaign::quiet("hostile", "upset probability above 1");
        hostile.upset_probability = 2.0;
        let seed = sudc_sim::DEFAULT_SEED;
        let recorded = load.try_record(duration, seed, Some(&hostile)).unwrap_err();
        let replayed = load
            .try_replay(duration, 1, seed, Some(&hostile))
            .unwrap_err();
        assert_eq!(recorded, replayed);
        let from_log = load.try_replay_from_log(duration, Some(&hostile), &BusLog::new());
        assert_eq!(from_log.unwrap_err(), recorded);
        assert!(
            recorded.to_string().contains("upset_probability"),
            "{recorded}"
        );
    }

    #[test]
    fn an_empty_trace_list_is_a_structured_error() {
        let err = ReplayReport::try_from_traces("nominal", 0.5, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("traces.len()"), "{err}");
    }

    #[test]
    fn sim_config_filtering_tracks_sudc_share() {
        let load = RoutedLoad { sudc_share: 0.25 };
        let cfg = load.sim_config(Seconds::new(600.0));
        assert!((cfg.filtering - 0.75).abs() < 1e-12);
    }
}
