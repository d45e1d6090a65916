//! QoS contracts and their lowering onto physical delivery parameters.
//!
//! The bus borrows the DDS QoS vocabulary — reliability, deadline,
//! durability, history — but every policy here is *contract-checked
//! sugar over a physical model* that already exists in the workspace:
//!
//! | QoS policy                | Physical lowering                                      |
//! |---------------------------|--------------------------------------------------------|
//! | `RELIABLE { max_retries }`| bounded-retry ISL delivery (`RecoveryPolicy.max_retries`) |
//! | `DEADLINE { deadline_s }` | freshness shedding (`RecoveryPolicy.deadline_ticks`)   |
//! | `TRANSIENT_LOCAL` + depth | contact-window store-and-forward with bounded history  |
//! | `BEST_EFFORT`             | fire-and-forget (a drop is a drop)                     |
//!
//! Lowering is explicit: [`QosContract::try_lower`] converts the
//! wall-clock contract into integer tick quantities for a given tick
//! length, using the same round-to-nearest arithmetic as the chaos
//! layer's `PolicySpec`, so a contract lowered here and a hand-built
//! `RecoveryPolicy` agree bit-for-bit.

use sudc_errors::{Diagnostics, SudcError};

/// Standing SLO on insight freshness: an observation is useful if the
/// insight it produces reaches the ground within this many seconds of
/// capture (15 minutes). Topics that carry mission data adopt this as
/// their default `DEADLINE` QoS; the sim lowers it onto
/// `RecoveryPolicy.deadline_ticks` and the router scores SLO attainment
/// against it.
pub const STANDARD_FRESHNESS_DEADLINE_S: f64 = 900.0;

/// Delivery-guarantee policy for a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Fire-and-forget: a sample lost to the link is gone.
    BestEffort,
    /// Bounded-retry delivery: a failed transfer is re-offered up to
    /// `max_retries` times before the sample is abandoned. Lowered onto
    /// the ISL retry budget (`RecoveryPolicy.max_retries`).
    Reliable {
        /// Retry budget per sample (0 means one attempt, no retries).
        max_retries: u32,
    },
}

impl Reliability {
    /// The retry budget this policy grants (0 for best-effort).
    #[must_use]
    pub fn max_retries(self) -> u32 {
        match self {
            Reliability::BestEffort => 0,
            Reliability::Reliable { max_retries } => max_retries,
        }
    }
}

/// Sample-availability policy for late-joining readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Samples exist only in flight; a reader attached after publication
    /// sees nothing.
    Volatile,
    /// The writer retains the most recent `history_depth` samples and
    /// replays them to a late-joining reader — the contact-window
    /// store-and-forward idiom: insights accumulate on orbit while no
    /// ground station is visible and drain at the next pass.
    TransientLocal,
}

/// The QoS contract attached to one topic.
///
/// Validate with [`QosContract::try_validate`]; lower onto integer tick
/// quantities with [`QosContract::try_lower`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosContract {
    /// Delivery guarantee.
    pub reliability: Reliability,
    /// Freshness deadline in seconds; `0.0` disables deadline shedding.
    pub deadline_s: f64,
    /// Availability of past samples to late-joining readers.
    pub durability: Durability,
    /// Bounded history: the writer keeps at most this many undelivered
    /// samples, evicting oldest-first. `0` means unbounded.
    pub history_depth: usize,
}

impl QosContract {
    /// Fire-and-forget contract: no retries, no deadline, no history.
    #[must_use]
    pub fn best_effort() -> Self {
        Self {
            reliability: Reliability::BestEffort,
            deadline_s: 0.0,
            durability: Durability::Volatile,
            history_depth: 0,
        }
    }

    /// Contract for the EO capture topic: reliable bounded-retry
    /// delivery, standard freshness deadline, and a 512-deep history —
    /// the batch-queue admission bound the chaos `combined` campaign
    /// applies as `RecoveryPolicy.batch_queue_limit`.
    #[must_use]
    pub fn standard_captures() -> Self {
        Self {
            reliability: Reliability::Reliable { max_retries: 3 },
            deadline_s: STANDARD_FRESHNESS_DEADLINE_S,
            durability: Durability::Volatile,
            history_depth: 512,
        }
    }

    /// Contract for the insight topic: reliable delivery with
    /// transient-local durability — insights wait on orbit for the next
    /// contact window in a 256-deep store-and-forward buffer, the
    /// downlink-queue bound the chaos `combined` campaign applies as
    /// `RecoveryPolicy.downlink_queue_limit`.
    #[must_use]
    pub fn standard_insights() -> Self {
        Self {
            reliability: Reliability::Reliable { max_retries: 3 },
            deadline_s: STANDARD_FRESHNESS_DEADLINE_S,
            durability: Durability::TransientLocal,
            history_depth: 256,
        }
    }

    /// Contract for the telemetry topic: best-effort, unbounded — the
    /// sim's own bookkeeping stream (tick settlements, queue depths,
    /// backlog samples) where a lost sample costs accuracy, not data.
    #[must_use]
    pub fn standard_telemetry() -> Self {
        Self::best_effort()
    }

    /// Contract for the fault-event topic: reliable with
    /// transient-local durability so an operator console attached
    /// mid-mission still sees recent anomalies, bounded at 1024 events.
    #[must_use]
    pub fn standard_faults() -> Self {
        Self {
            reliability: Reliability::Reliable { max_retries: 3 },
            deadline_s: 0.0,
            durability: Durability::TransientLocal,
            history_depth: 1024,
        }
    }

    /// Collects every contract violation into `d` under `path`.
    pub fn validate_into(&self, d: &mut Diagnostics, path: &str) {
        if !(self.deadline_s.is_finite() && self.deadline_s >= 0.0) {
            d.violation(
                format!("{path}.deadline_s"),
                self.deadline_s,
                "finite and >= 0 (0 disables the deadline)",
            );
        }
        if self.durability == Durability::TransientLocal && self.history_depth == 0 {
            d.violation(
                format!("{path}.history_depth"),
                self.history_depth,
                ">= 1 when durability is TransientLocal (store-and-forward needs a bounded store)",
            );
        }
    }

    /// Validates the contract, reporting every violation at once.
    ///
    /// # Errors
    /// Returns a [`SudcError`] listing each out-of-contract field.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("QosContract");
        self.validate_into(&mut d, "qos");
        d.finish()
    }

    /// Lowers the wall-clock contract onto integer tick quantities for
    /// a simulation with `tick_seconds`-long ticks.
    ///
    /// Uses the same round-to-nearest conversion as the chaos layer's
    /// `PolicySpec::apply`, so `deadline_ticks` here equals
    /// `RecoveryPolicy.deadline_ticks` built from the same seconds.
    ///
    /// # Errors
    /// Returns a [`SudcError`] if the contract is invalid or
    /// `tick_seconds` is not a positive finite number.
    pub fn try_lower(&self, tick_seconds: f64) -> Result<LoweredQos, SudcError> {
        let mut d = Diagnostics::new("QosContract::try_lower");
        self.validate_into(&mut d, "qos");
        d.positive("tick_seconds", tick_seconds);
        d.finish()?;
        Ok(LoweredQos {
            deadline_ticks: (self.deadline_s / tick_seconds).round() as u64,
            max_retries: self.reliability.max_retries(),
            history_depth: self.history_depth,
            transient_local: self.durability == Durability::TransientLocal,
        })
    }
}

/// A [`QosContract`] lowered onto integer tick quantities. For the
/// capture and insight topics these are the `RecoveryPolicy` quantities
/// the sim kernel executes: `Campaign::combined` in `sudc-chaos` copies
/// both contracts onto its recovery policy, which lowers with the same
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredQos {
    /// Freshness deadline in ticks (0 disables shedding).
    pub deadline_ticks: u64,
    /// Retry budget per sample (0 for best-effort).
    pub max_retries: u32,
    /// Bounded history depth (0 unbounded).
    pub history_depth: usize,
    /// Whether delivered samples are retained for late joiners.
    pub transient_local: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_contracts_validate() {
        for c in [
            QosContract::best_effort(),
            QosContract::standard_captures(),
            QosContract::standard_insights(),
            QosContract::standard_telemetry(),
            QosContract::standard_faults(),
        ] {
            c.try_validate().expect("standard contract must validate");
        }
    }

    #[test]
    fn lowering_matches_chaos_policy_arithmetic() {
        // The chaos `combined` campaign lowers 900 s onto 0.1 s ticks as
        // round(900 / 0.1) = 9000 — the contract must agree exactly.
        let low = QosContract::standard_captures().try_lower(0.1).unwrap();
        assert_eq!(low.deadline_ticks, 9000);
        assert_eq!(low.max_retries, 3);
        assert_eq!(low.history_depth, 512);
        assert!(!low.transient_local);
    }

    #[test]
    fn hostile_deadline_is_rejected_structurally() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let c = QosContract {
                deadline_s: bad,
                ..QosContract::best_effort()
            };
            let err = c.try_validate().unwrap_err();
            assert!(err
                .violations()
                .iter()
                .any(|v| v.path.contains("deadline_s")));
        }
    }

    #[test]
    fn transient_local_requires_bounded_history() {
        let c = QosContract {
            durability: Durability::TransientLocal,
            history_depth: 0,
            ..QosContract::best_effort()
        };
        let err = c.try_validate().unwrap_err();
        assert!(err
            .violations()
            .iter()
            .any(|v| v.path.contains("history_depth")));
    }

    #[test]
    fn lowering_rejects_bad_tick() {
        for bad in [0.0, -0.1, f64::NAN] {
            assert!(QosContract::best_effort().try_lower(bad).is_err());
        }
    }
}
