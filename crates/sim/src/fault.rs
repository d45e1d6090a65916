//! Opt-in fault injection: correlated failure processes and the recovery
//! policies that absorb them.
//!
//! The nominal kernel already models *independent* Weibull node failures.
//! Real LEO threats are correlated: a solar storm multiplies the SEU rate
//! for every node at once (and can destroy hardware via latch-up), a bad
//! manufacturing cohort ships several short-lived nodes together, an ISL
//! terminal flaps, a ground station drops a whole contact window. A
//! [`FaultConfig`] attached to [`crate::SimConfig`] switches those
//! processes on, together with the recovery policies that decide what the
//! pipeline does about them: bounded retry with exponential backoff and
//! jitter, freshness deadlines, and bounded queues that shed the stalest
//! work first.
//!
//! Fault injection is **strictly opt-in and zero-cost when disabled**:
//! with `faults: None` the kernel draws exactly the same random numbers,
//! schedules exactly the same events, and produces bit-identical
//! [`crate::RunTrace`]s as before this module existed. Every fault process
//! draws from its own `Rng64` stream (keyed by `(seed, entity)`), so
//! enabling one process never perturbs another and campaigns stay
//! byte-identical at any thread count.

use sudc_errors::Diagnostics;

use crate::event::Tick;

/// A periodic solar-storm model: radiation-weather windows during which
/// the SEU rate is multiplied and powered nodes face a destructive
/// latch-up shock.
///
/// Storm windows are deterministic (periodic with an offset), modeling a
/// forecastable space-weather cycle; the *damage* inside each window is
/// random but drawn from per-`(node, storm)` streams so outcomes for one
/// node never depend on how many other nodes are powered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormModel {
    /// Ticks between storm-window starts.
    pub period_ticks: Tick,
    /// Length of each storm window, ticks.
    pub duration_ticks: Tick,
    /// Tick of the first storm-window start.
    pub offset_ticks: Tick,
    /// Multiplier on the per-image upset probability inside a window.
    pub seu_multiplier: f64,
    /// Probability that a powered node suffers a destructive latch-up at
    /// each storm-window start, in [0, 1].
    pub node_kill_probability: f64,
    /// Probability that a window is a *major* event, in [0, 1]. Severity
    /// is drawn once per storm from a storm-indexed stream and applies to
    /// every powered node simultaneously — this cross-node coupling is
    /// what makes storm damage correlated rather than merely clustered in
    /// time. 0 disables the severity mixture.
    pub major_probability: f64,
    /// Multiplier on [`StormModel::node_kill_probability`] during a major
    /// storm; the product is clamped to 1.
    pub major_multiplier: f64,
}

impl StormModel {
    /// Whether `tick` falls inside a storm window.
    #[must_use]
    pub fn in_storm(&self, tick: Tick) -> bool {
        if tick < self.offset_ticks {
            return false;
        }
        (tick - self.offset_ticks) % self.period_ticks < self.duration_ticks
    }

    /// Per-node kill probability given the storm's drawn severity.
    #[must_use]
    pub fn kill_probability(&self, major: bool) -> f64 {
        if major {
            (self.node_kill_probability * self.major_multiplier).min(1.0)
        } else {
            self.node_kill_probability
        }
    }

    /// Expected per-node kill probability per storm, severity mixture
    /// included.
    ///
    /// Kept without a non-test caller: the chaos crate's rate-matching
    /// check (`campaign::tests::baseline_and_storm_expected_kill_rates_match`)
    /// uses it to show that the `solar_storm` campaign kills nodes at the
    /// `independent` campaign's rate, which is what makes the two
    /// campaigns' spare counts comparable.
    #[must_use]
    pub fn mean_kill_probability(&self) -> f64 {
        (1.0 - self.major_probability) * self.kill_probability(false)
            + self.major_probability * self.kill_probability(true)
    }
}

/// Batch-correlated infant mortality: nodes ship in manufacturing cohorts,
/// and a whole cohort is either healthy or "weak" (short-lived, infant-
/// mortality Weibull shape) together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfantMortality {
    /// Nodes per manufacturing cohort (cohort `c` holds nodes
    /// `c*batch_size .. (c+1)*batch_size`).
    pub batch_size: u32,
    /// Probability that a cohort is weak, in [0, 1]. One draw per cohort —
    /// this is what correlates the failures.
    pub weak_probability: f64,
    /// Mean-lifetime multiplier for nodes in a weak cohort, in (0, 1].
    pub life_multiplier: f64,
    /// Weibull shape for weak-cohort lifetimes (typically < 1: infant
    /// mortality).
    pub weak_shape: f64,
}

/// ISL link flapping over a bundle of redundant links.
///
/// Each of `links` parallel links alternates exponentially-distributed up
/// and down periods. Work re-routes over the surviving links: an image
/// transfer started with `u` of `n` links up takes `n/u` times the nominal
/// transfer time, and transfers pause entirely while all links are down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslFlaps {
    /// Redundant parallel links sharing the provisioned ISL rate.
    pub links: u32,
    /// Mean up-time of one link, ticks.
    pub mean_up_ticks: f64,
    /// Mean down-time of one link, ticks.
    pub mean_down_ticks: f64,
}

/// Ground-station blackouts: each contact window is independently lost
/// (station outage, weather, scheduling conflict) with a fixed probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundBlackouts {
    /// Probability that a contact window is entirely unusable, in [0, 1].
    pub blackout_probability: f64,
}

/// The workspace's standard capture-to-dispatch freshness deadline, in
/// physical seconds: work older than this is stale and should be shed
/// rather than processed.
///
/// The definition now lives with the data plane's QoS layer
/// (`sudc_bus`), where it backs the `DEADLINE` policy of the standard
/// mission topics; it is re-exported here so every layer that reasons
/// about freshness — the sim kernel's deadline shedding
/// ([`RecoveryPolicy::deadline_expired`]), the chaos `combined`
/// campaign's bounded-queue policy, and the request router's
/// orbital-tier SLO — keeps sharing the **single definition of
/// "stale"**. 900 s is the paper's operations working point: roughly
/// one LEO pass beyond the batch-accumulation window, after which an EO
/// insight has lost its tasking value.
pub use sudc_bus::STANDARD_FRESHNESS_DEADLINE_S;

/// Recovery policies: what the pipeline does when fault injection bites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum reprocessing attempts for an upset-corrupted image before
    /// the work is abandoned.
    pub max_retries: u32,
    /// First retry delay, ticks. Attempt `a` waits
    /// `min(base * 2^a, cap) + jitter`.
    pub backoff_base_ticks: Tick,
    /// Upper bound on the exponential backoff delay, ticks.
    pub backoff_cap_ticks: Tick,
    /// Uniform jitter added to each backoff delay, ticks (0 disables; the
    /// draw comes from the dedicated fault stream, so runs stay
    /// deterministic).
    pub backoff_jitter_ticks: Tick,
    /// Bound on the batch-dispatch queue; the *oldest* queued images are
    /// shed first when it overflows (freshest-first priority). 0 means
    /// unbounded.
    pub batch_queue_limit: usize,
    /// Bound on the downlink queue, shedding oldest first. 0 = unbounded.
    pub downlink_queue_limit: usize,
    /// Freshness deadline: images older than this (capture to dispatch)
    /// are shed instead of processed. 0 disables.
    pub deadline_ticks: Tick,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_ticks: 50,
            backoff_cap_ticks: 1600,
            backoff_jitter_ticks: 20,
            batch_queue_limit: 0,
            downlink_queue_limit: 0,
            deadline_ticks: 0,
        }
    }
}

impl RecoveryPolicy {
    /// Whether a freshness deadline is armed (0 disables).
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        self.deadline_ticks != 0
    }

    /// The shared deadline predicate: has work captured at `capture`
    /// outlived the freshness deadline by `now`? Always `false` with the
    /// deadline disarmed (`deadline_ticks == 0`). Both sim kernels, the
    /// chaos campaigns (via their lowered tick policies), and the request
    /// router's deferral check route staleness through this one
    /// definition.
    #[must_use]
    pub fn deadline_expired(&self, capture: Tick, now: Tick) -> bool {
        self.deadline_ticks != 0 && now.saturating_sub(capture) > self.deadline_ticks
    }
}

/// Complete fault-injection configuration. Attach one to
/// [`crate::SimConfig::faults`] to enable fault injection; every component
/// is individually optional. The default is quiet: every process off or
/// at a zero rate, with the default [`RecoveryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Per-image probability that processing is corrupted by an SEU under
    /// quiet space weather, in [0, 1]. Multiplied by
    /// [`StormModel::seu_multiplier`] inside storm windows (clamped to 1).
    pub upset_probability: f64,
    /// Solar-storm windows (SEU bursts + latch-up shocks).
    pub storm: Option<StormModel>,
    /// Batch-correlated infant mortality.
    pub infant: Option<InfantMortality>,
    /// ISL link flapping with re-routing over surviving links.
    pub isl: Option<IslFlaps>,
    /// Ground-station contact blackouts.
    pub ground: Option<GroundBlackouts>,
    /// Retry / backoff / shedding policies.
    pub policy: RecoveryPolicy,
}

impl FaultConfig {
    /// Number of redundant ISL links (1 when flapping is disabled).
    #[must_use]
    pub fn isl_links(&self) -> u32 {
        self.isl.map_or(1, |i| i.links)
    }

    /// Effective per-image upset probability at `tick`, storm multiplier
    /// applied and clamped to 1.
    #[must_use]
    pub fn upset_probability_at(&self, tick: Tick) -> f64 {
        let mult = match self.storm {
            Some(s) if s.in_storm(tick) => s.seu_multiplier,
            _ => 1.0,
        };
        (self.upset_probability * mult).min(1.0)
    }

    /// Records every invalid field into `d` (called from
    /// [`crate::SimConfig::try_validate`]).
    pub(crate) fn validate_into(&self, d: &mut Diagnostics) {
        d.unit_interval("faults.upset_probability", self.upset_probability);
        if let Some(s) = &self.storm {
            d.positive_count("faults.storm.period_ticks", s.period_ticks);
            if d.positive_count("faults.storm.duration_ticks", s.duration_ticks) {
                d.ensure(
                    s.duration_ticks <= s.period_ticks,
                    "faults.storm.duration_ticks",
                    s.duration_ticks,
                    format_args!(
                        "at most period_ticks = {} (a storm window cannot outlast its period)",
                        s.period_ticks
                    ),
                );
            }
            d.ensure(
                s.seu_multiplier.is_finite() && s.seu_multiplier >= 1.0,
                "faults.storm.seu_multiplier",
                s.seu_multiplier,
                "a finite multiplier >= 1 (storms cannot reduce the upset rate)",
            );
            d.unit_interval(
                "faults.storm.node_kill_probability",
                s.node_kill_probability,
            );
            d.unit_interval("faults.storm.major_probability", s.major_probability);
            d.ensure(
                s.major_multiplier.is_finite() && s.major_multiplier >= 1.0,
                "faults.storm.major_multiplier",
                s.major_multiplier,
                "a finite multiplier >= 1 (major storms cannot be milder than minor ones)",
            );
        }
        if let Some(i) = &self.infant {
            d.positive_count("faults.infant.batch_size", u64::from(i.batch_size));
            d.unit_interval("faults.infant.weak_probability", i.weak_probability);
            d.ensure(
                i.life_multiplier.is_finite()
                    && i.life_multiplier > 0.0
                    && i.life_multiplier <= 1.0,
                "faults.infant.life_multiplier",
                i.life_multiplier,
                "in (0, 1] (a weak cohort cannot outlive a healthy one)",
            );
            d.positive("faults.infant.weak_shape", i.weak_shape);
        }
        if let Some(l) = &self.isl {
            d.positive_count("faults.isl.links", u64::from(l.links));
            d.positive("faults.isl.mean_up_ticks", l.mean_up_ticks);
            d.positive("faults.isl.mean_down_ticks", l.mean_down_ticks);
        }
        if let Some(g) = &self.ground {
            d.unit_interval("faults.ground.blackout_probability", g.blackout_probability);
        }
        let p = &self.policy;
        d.positive_count("faults.policy.backoff_base_ticks", p.backoff_base_ticks);
        d.ensure(
            p.backoff_cap_ticks >= p.backoff_base_ticks,
            "faults.policy.backoff_cap_ticks",
            p.backoff_cap_ticks,
            format_args!(
                "at least backoff_base_ticks = {} (the cap cannot undercut the base delay)",
                p.backoff_base_ticks
            ),
        );
    }

    /// Backoff delay before retry attempt `attempt` (1-based), jitter
    /// excluded: `min(base * 2^(attempt-1), cap)`.
    #[must_use]
    pub fn backoff_ticks(&self, attempt: u32) -> Tick {
        let doublings = attempt.saturating_sub(1).min(20);
        self.policy
            .backoff_base_ticks
            .saturating_mul(1u64 << doublings)
            .min(self.policy.backoff_cap_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_errors::Diagnostics;

    fn check(cfg: &FaultConfig) -> Result<(), sudc_errors::SudcError> {
        let mut d = Diagnostics::new("FaultConfig");
        cfg.validate_into(&mut d);
        d.finish()
    }

    #[test]
    fn quiet_config_is_valid() {
        assert!(check(&FaultConfig::default()).is_ok());
    }

    #[test]
    fn storm_windows_are_periodic_with_offset() {
        let s = StormModel {
            period_ticks: 100,
            duration_ticks: 10,
            offset_ticks: 25,
            seu_multiplier: 10.0,
            node_kill_probability: 0.0,
            major_probability: 0.0,
            major_multiplier: 1.0,
        };
        assert!(!s.in_storm(0));
        assert!(!s.in_storm(24));
        assert!(s.in_storm(25));
        assert!(s.in_storm(34));
        assert!(!s.in_storm(35));
        assert!(s.in_storm(125));
        assert!(!s.in_storm(140));
    }

    #[test]
    fn storm_multiplies_and_clamps_the_upset_probability() {
        let f = FaultConfig {
            upset_probability: 0.3,
            storm: Some(StormModel {
                period_ticks: 100,
                duration_ticks: 50,
                offset_ticks: 0,
                seu_multiplier: 10.0,
                node_kill_probability: 0.0,
                major_probability: 0.0,
                major_multiplier: 1.0,
            }),
            ..FaultConfig::default()
        };
        assert!((f.upset_probability_at(10) - 1.0).abs() < 1e-12, "clamped");
        assert!((f.upset_probability_at(60) - 0.3).abs() < 1e-12, "quiet");
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let mut f = FaultConfig::default();
        f.policy.backoff_base_ticks = 50;
        f.policy.backoff_cap_ticks = 300;
        assert_eq!(f.backoff_ticks(1), 50);
        assert_eq!(f.backoff_ticks(2), 100);
        assert_eq!(f.backoff_ticks(3), 200);
        assert_eq!(f.backoff_ticks(4), 300, "capped");
        assert_eq!(f.backoff_ticks(40), 300, "huge attempts saturate");
    }

    #[test]
    fn invalid_components_are_all_reported() {
        let f = FaultConfig {
            upset_probability: 1.5,
            storm: Some(StormModel {
                period_ticks: 10,
                duration_ticks: 20,
                offset_ticks: 0,
                seu_multiplier: 0.5,
                node_kill_probability: -0.1,
                major_probability: 1.5,
                major_multiplier: 0.2,
            }),
            isl: Some(IslFlaps {
                links: 0,
                mean_up_ticks: f64::NAN,
                mean_down_ticks: 0.0,
            }),
            ..FaultConfig::default()
        };
        let err = check(&f).unwrap_err();
        assert!(err.violations().len() >= 8, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("upset_probability"));
        assert!(msg.contains("seu_multiplier"));
        assert!(msg.contains("major_multiplier"));
        assert!(msg.contains("links"));
    }

    #[test]
    fn severity_mixture_scales_and_clamps_the_kill_probability() {
        let s = StormModel {
            period_ticks: 100,
            duration_ticks: 10,
            offset_ticks: 0,
            seu_multiplier: 1.0,
            node_kill_probability: 0.04,
            major_probability: 0.1,
            major_multiplier: 10.0,
        };
        assert!((s.kill_probability(false) - 0.04).abs() < 1e-12);
        assert!((s.kill_probability(true) - 0.4).abs() < 1e-12);
        // Mean = 0.9 * 0.04 + 0.1 * 0.4.
        assert!((s.mean_kill_probability() - 0.076).abs() < 1e-12);
        let extreme = StormModel {
            major_multiplier: 1000.0,
            ..s
        };
        assert!(
            (extreme.kill_probability(true) - 1.0).abs() < 1e-12,
            "clamped"
        );
    }

    #[test]
    fn deadline_predicate_is_the_single_staleness_definition() {
        let mut p = RecoveryPolicy::default();
        assert!(!p.has_deadline());
        // Disarmed: nothing is ever stale, however old.
        assert!(!p.deadline_expired(0, u64::MAX));
        p.deadline_ticks = 100;
        assert!(p.has_deadline());
        assert!(!p.deadline_expired(50, 150), "exactly at the deadline");
        assert!(p.deadline_expired(50, 151), "one tick past");
        // Clock weirdness (capture after now) never counts as stale.
        assert!(!p.deadline_expired(200, 150));
    }

    #[test]
    fn backoff_cap_below_base_is_rejected() {
        let mut f = FaultConfig::default();
        f.policy.backoff_base_ticks = 100;
        f.policy.backoff_cap_ticks = 10;
        let err = check(&f).unwrap_err();
        assert!(err.to_string().contains("backoff_cap_ticks"), "{err}");
    }
}
