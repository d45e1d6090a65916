//! Named fault campaigns in physical units.
//!
//! A [`Campaign`] describes a fault environment the way an operator would
//! — storm cadence in seconds, link up-times in seconds, blackout odds per
//! contact — and lowers itself onto a [`SimConfig`]'s integer tick clock
//! only at [`Campaign::apply`] time. The standard [`Campaign::suite`] is
//! *rate-matched*: the independent baseline and the solar-storm campaign
//! deliver the same expected number of destructive node failures per
//! powered node over the run, so any availability gap between them is the
//! cost of *correlation*, not of a higher failure rate.

use sudc_bus::QosContract;
use sudc_core::dynamics::DynamicScenario;
use sudc_core::Scenario;
use sudc_errors::SudcError;
use sudc_sim::{
    FaultConfig, GroundBlackouts, InfantMortality, IslFlaps, RecoveryPolicy, SimConfig, StormModel,
    STANDARD_FRESHNESS_DEADLINE_S,
};
use sudc_units::Seconds;

/// Expected destructive failures per powered node over one run, shared by
/// the independent baseline and the solar-storm campaign so the two are
/// directly comparable at equal spare count. Deliberately light: at this
/// rate the spread-out independent process rarely breaches a small spare
/// pool, so the availability a major storm destroys in one shot is
/// attributable to *correlation*, not to a higher failure rate.
pub const EXPECTED_KILLS_PER_NODE: f64 = 0.15;

/// Storm windows per run in the standard solar-storm campaign.
const STORMS_PER_RUN: f64 = 3.0;

/// Probability that a storm window is a major event.
const MAJOR_STORM_PROBABILITY: f64 = 0.09;

/// Kill-probability multiplier for a major storm. With the minor-storm
/// probability rate-matched below, a major storm latches up roughly half
/// the powered pool at once.
const MAJOR_STORM_MULTIPLIER: f64 = 50.0;

/// Dormant-spare aging rate of every study cell (the paper's cold spares
/// are powered off; 10% residual aging is the workspace default).
const DORMANT_AGING: f64 = 0.1;

/// Quiet-weather per-image upset probability used by the upset-bearing
/// campaigns (storms multiply it inside their windows).
const QUIET_UPSET: f64 = 1e-4;

/// A solar-storm schedule in physical seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSpec {
    /// Time between storm-window starts.
    pub period: Seconds,
    /// Length of each storm window.
    pub duration: Seconds,
    /// Start of the first window.
    pub offset: Seconds,
    /// SEU-rate multiplier inside a window.
    pub seu_multiplier: f64,
    /// Per-powered-node latch-up probability at each *minor* window start.
    pub node_kill_probability: f64,
    /// Probability that a window is a major event (one severity draw per
    /// storm, shared by every powered node).
    pub major_probability: f64,
    /// Kill-probability multiplier for major windows (clamped to 1).
    pub major_multiplier: f64,
}

/// ISL link-flap behaviour in physical seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslFlapSpec {
    /// Redundant parallel links sharing the provisioned rate.
    pub links: u32,
    /// Mean up-time of one link.
    pub mean_up: Seconds,
    /// Mean down-time of one link.
    pub mean_down: Seconds,
}

/// Recovery-policy knobs in physical seconds (lowered to
/// [`RecoveryPolicy`] ticks at apply time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Maximum reprocessing attempts for a corrupted image.
    pub max_retries: u32,
    /// First retry delay.
    pub backoff_base: Seconds,
    /// Upper bound on the exponential backoff delay.
    pub backoff_cap: Seconds,
    /// Uniform jitter added to each backoff delay (0 disables).
    pub backoff_jitter: Seconds,
    /// Bound on the batch queue, shedding oldest first (0 = unbounded).
    pub batch_queue_limit: usize,
    /// Bound on the downlink queue, shedding oldest first (0 = unbounded).
    pub downlink_queue_limit: usize,
    /// Freshness deadline from capture to dispatch (0 disables).
    pub deadline: Seconds,
}

impl Default for PolicySpec {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base: Seconds::new(5.0),
            backoff_cap: Seconds::new(160.0),
            backoff_jitter: Seconds::new(2.0),
            batch_queue_limit: 0,
            downlink_queue_limit: 0,
            deadline: Seconds::new(0.0),
        }
    }
}

/// A named fault environment, applied to any [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// Short identifier used in reports and [`crate::ChaosSummary::cell`].
    pub name: &'static str,
    /// One-line description for report headers.
    pub description: &'static str,
    /// Override of the independent node MTTF (None keeps the scenario's
    /// own value, effectively disabling the independent process for an
    /// operations-scale run).
    pub node_mttf: Option<Seconds>,
    /// Quiet-weather per-image upset probability.
    pub upset_probability: f64,
    /// Solar-storm schedule.
    pub storm: Option<StormSpec>,
    /// Batch-correlated infant mortality (already unitless).
    pub infant: Option<InfantMortality>,
    /// ISL link flapping.
    pub isl: Option<IslFlapSpec>,
    /// Ground-station contact blackouts.
    pub ground: Option<GroundBlackouts>,
    /// Recovery policies.
    pub policy: PolicySpec,
}

impl Campaign {
    /// A campaign with every fault process off — applying it still routes
    /// the run through the fault-aware kernel paths, which is what makes
    /// it a fair baseline for the faulted campaigns.
    #[must_use]
    pub fn quiet(name: &'static str, description: &'static str) -> Self {
        Self {
            name,
            description,
            node_mttf: None,
            upset_probability: 0.0,
            storm: None,
            infant: None,
            isl: None,
            ground: None,
            policy: PolicySpec::default(),
        }
    }

    /// Independent-failure baseline: exponential node failures at
    /// [`EXPECTED_KILLS_PER_NODE`] expected failures per node over a run
    /// of `run` seconds, no correlated process armed.
    #[must_use]
    pub fn independent(run: Seconds) -> Self {
        let mut c = Self::quiet(
            "independent",
            "independent exponential node failures (rate-matched baseline)",
        );
        c.node_mttf = Some(Seconds::new(run.value() / EXPECTED_KILLS_PER_NODE));
        c.upset_probability = QUIET_UPSET;
        c
    }

    /// Correlated solar-storm campaign: the *same* expected kills per node
    /// as [`Campaign::independent`], delivered as `STORMS_PER_RUN`
    /// cross-node-correlated latch-up shocks (mostly-mild windows with an
    /// occasional major event), plus an in-window SEU burst.
    #[must_use]
    pub fn solar_storm(run: Seconds) -> Self {
        let mut c = Self::quiet(
            "solar_storm",
            "storm windows: cross-node-correlated latch-up shocks + SEU bursts",
        );
        c.upset_probability = QUIET_UPSET;
        // Rate matching: per-storm mean kill = minor_p * ((1 - maj) +
        // maj * mult) must equal EXPECTED_KILLS_PER_NODE / STORMS_PER_RUN.
        let severity_factor =
            (1.0 - MAJOR_STORM_PROBABILITY) + MAJOR_STORM_PROBABILITY * MAJOR_STORM_MULTIPLIER;
        c.storm = Some(StormSpec {
            period: Seconds::new(0.4 * run.value()),
            duration: Seconds::new(0.02 * run.value()),
            offset: Seconds::new(0.05 * run.value()),
            seu_multiplier: 25.0,
            node_kill_probability: EXPECTED_KILLS_PER_NODE / STORMS_PER_RUN / severity_factor,
            major_probability: MAJOR_STORM_PROBABILITY,
            major_multiplier: MAJOR_STORM_MULTIPLIER,
        });
        c
    }

    /// Batch-correlated infant mortality: one weak manufacturing cohort
    /// takes several nodes down early together.
    #[must_use]
    pub fn infant_mortality(run: Seconds) -> Self {
        let mut c = Self::quiet(
            "infant_mortality",
            "weak manufacturing cohorts with infant-mortality Weibull lifetimes",
        );
        c.node_mttf = Some(Seconds::new(3.0 * run.value()));
        c.infant = Some(InfantMortality {
            batch_size: 5,
            weak_probability: 0.25,
            life_multiplier: 0.05,
            weak_shape: 0.7,
        });
        c
    }

    /// ISL link flapping over a redundant bundle: transfers slow down on
    /// surviving links and stall during total outages.
    #[must_use]
    pub fn isl_flaps(run: Seconds) -> Self {
        let mut c = Self::quiet(
            "isl_flaps",
            "ISL link flapping with re-routing over surviving links",
        );
        c.isl = Some(IslFlapSpec {
            links: 3,
            mean_up: Seconds::new(run.value() / 10.0),
            mean_down: Seconds::new(run.value() / 50.0),
        });
        c
    }

    /// Ground-station blackouts: half the contact windows are lost.
    #[must_use]
    pub fn ground_blackouts() -> Self {
        let mut c = Self::quiet(
            "ground_blackouts",
            "independent loss of entire ground-contact windows",
        );
        c.ground = Some(GroundBlackouts {
            blackout_probability: 0.5,
        });
        c
    }

    /// Everything at once, with bounded queues and a freshness deadline —
    /// the stress test for the load-shedding policies.
    ///
    /// The queue bounds and the deadline are not chosen here: they are
    /// the data plane's standard QoS contracts lowered onto the recovery
    /// policy. The capture topic's bounded history becomes the batch
    /// queue's admission limit, the insight topic's store-and-forward
    /// depth becomes the downlink queue's, and both topics' `DEADLINE`
    /// policy is the shared staleness definition the sim's shedding and
    /// the request router already reason about.
    ///
    /// The infant-mortality cohorts are copied from
    /// [`Campaign::infant_mortality`], but not that campaign's
    /// `node_mttf` override (3 × `run`): `node_mttf` stays `None`, so
    /// the scenario's own MTTF applies. Weak-cohort lifetimes are
    /// multiples of that MTTF, so on
    /// [`SimConfig::reference_operations`] (infinite MTTF: every node,
    /// weak or not, lives forever) the infant mortality never fires, and
    /// on the chaos grid's cells (a 2-year MTTF) it almost never
    /// fires inside a run. Node failures here come from the storms.
    ///
    /// The 256-deep downlink bound meets a delivery model the router does
    /// not share. The router prices orbital insights at `wait_scale = 0`,
    /// as if they left at once over the always-on telemetry link, but the
    /// kernel holds every insight for the next ground-contact window. One
    /// 7 200 s contact gap on the reference config accumulates about
    /// 28 200 insights, so under this campaign most insights are shed at
    /// the downlink queue, and a replayed SLO attainment counts only the
    /// survivors.
    #[must_use]
    pub fn combined(run: Seconds) -> Self {
        let mut c = Self::solar_storm(run);
        c.name = "combined";
        c.description = "storms + infant mortality + ISL flaps + blackouts, bounded queues";
        c.infant = Self::infant_mortality(run).infant;
        c.isl = Self::isl_flaps(run).isl;
        c.ground = Self::ground_blackouts().ground;
        let captures = QosContract::standard_captures();
        let insights = QosContract::standard_insights();
        c.policy.max_retries = captures.reliability.max_retries();
        c.policy.batch_queue_limit = captures.history_depth;
        c.policy.downlink_queue_limit = insights.history_depth;
        c.policy.deadline = Seconds::new(captures.deadline_s);
        debug_assert_eq!(captures.deadline_s, STANDARD_FRESHNESS_DEADLINE_S);
        c
    }

    /// The standard campaign suite for a run of `run` seconds, in report
    /// order. The first entry is always the independent baseline.
    #[must_use]
    pub fn suite(run: Seconds) -> Vec<Self> {
        vec![
            Self::independent(run),
            Self::solar_storm(run),
            Self::infant_mortality(run),
            Self::isl_flaps(run),
            Self::ground_blackouts(),
            Self::combined(run),
        ]
    }

    /// Lowers this campaign onto `cfg`'s tick clock, returning the faulted
    /// configuration. The returned config still needs
    /// [`SimConfig::try_validate`] (the replication grid runs it).
    #[must_use]
    pub fn apply(&self, cfg: &SimConfig) -> SimConfig {
        let ticks = |s: Seconds| s.value() / cfg.tick_seconds;
        let whole = |s: Seconds| (ticks(s).round() as u64).max(1);
        let mut out = *cfg;
        if let Some(mttf) = self.node_mttf {
            out.mttf_ticks = ticks(mttf);
        }
        let p = &self.policy;
        out.with_faults(FaultConfig {
            upset_probability: self.upset_probability,
            storm: self.storm.map(|s| StormModel {
                period_ticks: whole(s.period),
                duration_ticks: whole(s.duration),
                offset_ticks: whole(s.offset),
                seu_multiplier: s.seu_multiplier,
                node_kill_probability: s.node_kill_probability,
                major_probability: s.major_probability,
                major_multiplier: s.major_multiplier,
            }),
            infant: self.infant,
            isl: self.isl.map(|i| IslFlaps {
                links: i.links,
                mean_up_ticks: ticks(i.mean_up),
                mean_down_ticks: ticks(i.mean_down),
            }),
            ground: self.ground,
            policy: RecoveryPolicy {
                max_retries: p.max_retries,
                backoff_base_ticks: whole(p.backoff_base),
                backoff_cap_ticks: whole(p.backoff_cap).max(whole(p.backoff_base)),
                backoff_jitter_ticks: ticks(p.backoff_jitter).round() as u64,
                batch_queue_limit: p.batch_queue_limit,
                downlink_queue_limit: p.downlink_queue_limit,
                deadline_ticks: ticks(p.deadline).round() as u64,
            },
        })
    }

    /// The grid cell the chaos and health studies fault with this
    /// campaign: the 64-satellite reference scenario with `spares` cold
    /// spares, on a 0.1 s tick, run for `duration`. Not yet validated —
    /// the replication grid validates every cell before running any.
    ///
    /// # Errors
    ///
    /// Returns a structured error if the reference scenario cannot be
    /// lowered onto the tick clock.
    pub fn reference_cell(&self, spares: u32, duration: Seconds) -> Result<SimConfig, SudcError> {
        let scenario = DynamicScenario::from_scenario(Scenario::Reference, 64)?
            .with_cold_spares(spares, DORMANT_AGING);
        Ok(self.apply(&SimConfig::try_from_dynamic(&scenario, 0.1, duration)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::reference_operations(Seconds::new(3600.0))
    }

    #[test]
    fn suite_names_are_unique_and_lead_with_the_baseline() {
        let suite = Campaign::suite(Seconds::new(3600.0));
        assert_eq!(suite[0].name, "independent");
        let mut names: Vec<_> = suite.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn every_suite_campaign_applies_to_a_valid_config() {
        for c in Campaign::suite(Seconds::new(3600.0)) {
            let cfg = c.apply(&base());
            cfg.try_validate()
                .unwrap_or_else(|e| panic!("{}: {e}", c.name));
            assert!(cfg.faults.is_some(), "{} must arm fault injection", c.name);
        }
    }

    #[test]
    fn baseline_and_storm_expected_kill_rates_match() {
        let run = Seconds::new(3600.0);
        let ind = Campaign::independent(run);
        let spec = Campaign::solar_storm(run).storm.unwrap();
        // Storms that actually start inside the run window.
        let mut starts = 0.0;
        let mut t = spec.offset.value();
        while t < run.value() {
            starts += 1.0;
            t += spec.period.value();
        }
        let model = Campaign::solar_storm(run)
            .apply(&base())
            .faults
            .unwrap()
            .storm
            .unwrap();
        let storm_kills = starts * model.mean_kill_probability();
        let independent_kills = run.value() / ind.node_mttf.unwrap().value();
        assert!(
            (storm_kills - independent_kills).abs() < 0.05 * independent_kills,
            "storm {storm_kills} vs independent {independent_kills}"
        );
    }

    #[test]
    fn apply_converts_seconds_to_ticks_on_the_config_clock() {
        let cfg = base();
        let faulted = Campaign::solar_storm(Seconds::new(3600.0)).apply(&cfg);
        let storm = faulted.faults.unwrap().storm.unwrap();
        assert_eq!(storm.offset_ticks, (180.0 / cfg.tick_seconds) as u64);
        assert!(storm.duration_ticks <= storm.period_ticks);
    }

    #[test]
    fn apply_leaves_the_base_scenario_untouched_otherwise() {
        let cfg = base();
        let mut faulted = Campaign::ground_blackouts().apply(&cfg);
        faulted.faults = None;
        assert_eq!(faulted, cfg);
    }
}
