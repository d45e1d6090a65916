//! The recovery controller's contract and its tick lowering.

use sudc_errors::{Diagnostics, SudcError};

/// Contract for the closed-loop health plane.
///
/// The detector is tick-quantized: a node is expected to heartbeat once
/// per lease, silence is measured in whole missed leases, and the two
/// thresholds walk a silent node ALIVE → SUSPECT → DEAD. A dead node is
/// quarantined; it is readmitted only after `probation_leases`
/// consecutive on-time heartbeats.
///
/// `closed_loop` selects what the verdicts *drive*: in monitor-only
/// mode the detector observes and publishes but never acts (the
/// "controller-off" grid cell of the `health` experiment); in
/// closed-loop mode a DEAD declaration triggers cold-spare promotion in
/// the sim, so detection latency becomes promotion latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Heartbeat lease in seconds: every powered node publishes one
    /// heartbeat per lease, and the detector scans at the same cadence.
    pub lease_s: f64,
    /// Consecutive missed leases before a node is SUSPECT.
    pub suspect_missed: u32,
    /// Consecutive missed leases before a SUSPECT node is declared DEAD
    /// and quarantined. Must exceed `suspect_missed`.
    pub dead_missed: u32,
    /// Consecutive on-time heartbeats a quarantined node must produce
    /// before readmission.
    pub probation_leases: u32,
    /// Whether DEAD declarations drive recovery (spare promotion) or
    /// the controller only monitors.
    pub closed_loop: bool,
}

impl HealthConfig {
    /// Reference contract: 60 s lease, suspect after 2 missed leases,
    /// dead after 4, readmit after 3 on-time leases, closed loop.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            lease_s: 60.0,
            suspect_missed: 2,
            dead_missed: 4,
            probation_leases: 3,
            closed_loop: true,
        }
    }

    /// The same detector with the actuator disconnected: verdicts are
    /// published but nothing is promoted — the "controller-off" arm of
    /// the availability comparison.
    #[must_use]
    pub fn monitor_only() -> Self {
        Self {
            closed_loop: false,
            ..Self::standard()
        }
    }

    /// Collects every contract violation into `d` under `path`.
    pub fn validate_into(&self, d: &mut Diagnostics, path: &str) {
        d.positive(format!("{path}.lease_s"), self.lease_s);
        d.positive_count(
            format!("{path}.suspect_missed"),
            u64::from(self.suspect_missed),
        );
        d.positive_count(
            format!("{path}.probation_leases"),
            u64::from(self.probation_leases),
        );
        if self.dead_missed <= self.suspect_missed {
            d.violation(
                format!("{path}.dead_missed"),
                self.dead_missed,
                "> suspect_missed (SUSPECT must precede DEAD)",
            );
        }
    }

    /// Validates the contract, reporting every violation at once.
    ///
    /// # Errors
    /// Returns a [`SudcError`] listing each out-of-contract field.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("HealthConfig");
        self.validate_into(&mut d, "health");
        d.finish()
    }

    /// Lowers the wall-clock contract onto integer tick quantities,
    /// using the same round-to-nearest arithmetic as
    /// `QosContract::try_lower`.
    ///
    /// # Errors
    /// Returns a [`SudcError`] if the contract is invalid, `tick_seconds`
    /// is not positive and finite, or the lease rounds to zero ticks.
    pub fn try_lower(&self, tick_seconds: f64) -> Result<LoweredHealth, SudcError> {
        let mut d = Diagnostics::new("HealthConfig::try_lower");
        self.validate_into(&mut d, "health");
        d.positive("tick_seconds", tick_seconds);
        d.finish()?;
        let lease_ticks = (self.lease_s / tick_seconds).round() as u64;
        if lease_ticks == 0 {
            return Err(SudcError::single(
                "HealthConfig::try_lower",
                "health.lease_s",
                self.lease_s,
                "a lease of at least one tick",
            ));
        }
        Ok(LoweredHealth {
            lease_ticks,
            suspect_missed: self.suspect_missed,
            dead_missed: self.dead_missed,
            probation_leases: self.probation_leases,
            closed_loop: self.closed_loop,
        })
    }
}

/// A [`HealthConfig`] lowered onto integer tick quantities — the form
/// [`crate::HealthController`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredHealth {
    /// Heartbeat lease in ticks (>= 1).
    pub lease_ticks: u64,
    /// Missed leases before SUSPECT.
    pub suspect_missed: u32,
    /// Missed leases before DEAD.
    pub dead_missed: u32,
    /// On-time heartbeats required for readmission.
    pub probation_leases: u32,
    /// Whether verdicts drive recovery.
    pub closed_loop: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_contracts_validate_and_lower() {
        for cfg in [HealthConfig::standard(), HealthConfig::monitor_only()] {
            cfg.try_validate().expect("standard contract validates");
            let low = cfg.try_lower(0.1).unwrap();
            assert_eq!(low.lease_ticks, 600);
            assert_eq!(low.suspect_missed, 2);
            assert_eq!(low.dead_missed, 4);
            assert_eq!(low.probation_leases, 3);
        }
        assert!(HealthConfig::standard().closed_loop);
        assert!(!HealthConfig::monitor_only().closed_loop);
    }

    #[test]
    fn hostile_thresholds_are_rejected_structurally() {
        for bad_lease in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = HealthConfig {
                lease_s: bad_lease,
                ..HealthConfig::standard()
            };
            let err = cfg.try_validate().unwrap_err();
            assert!(
                err.violations().iter().any(|v| v.path.contains("lease_s")),
                "{bad_lease}"
            );
        }
        let inverted = HealthConfig {
            suspect_missed: 4,
            dead_missed: 4,
            ..HealthConfig::standard()
        };
        let err = inverted.try_validate().unwrap_err();
        assert!(err
            .violations()
            .iter()
            .any(|v| v.path.contains("dead_missed")));
        let zeroed = HealthConfig {
            suspect_missed: 0,
            probation_leases: 0,
            ..HealthConfig::standard()
        };
        let err = zeroed.try_validate().unwrap_err();
        assert!(err.violations().len() >= 2);
    }

    #[test]
    fn sub_tick_lease_is_rejected_at_lowering() {
        let cfg = HealthConfig {
            lease_s: 1e-9,
            ..HealthConfig::standard()
        };
        assert!(cfg.try_validate().is_ok(), "valid contract in seconds");
        assert!(cfg.try_lower(0.1).is_err(), "but rounds to zero ticks");
    }
}
