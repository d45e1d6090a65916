//! The tick-quantized failure detector and quarantine state machine.

use crate::config::LoweredHealth;
use sudc_bus::{HealthEvent, Tick};

/// Detector state of one monitored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Not yet monitored (a dormant spare that has never heartbeated).
    Unmonitored,
    /// Heartbeating within its lease.
    Alive,
    /// Silent for at least `suspect_missed` leases.
    Suspect,
    /// Declared dead and quarantined; readmission requires
    /// `probation_leases` consecutive on-time heartbeats.
    Dead,
}

/// What one [`HealthController::scan`] decided for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanVerdict {
    /// The node the verdict applies to.
    pub node: u32,
    /// The transition: [`HealthEvent::Suspect`] or [`HealthEvent::Dead`]
    /// (heartbeat-driven transitions come from
    /// [`HealthController::heartbeat`] instead).
    pub event: HealthEvent,
}

#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    state: NodeHealth,
    /// Tick of the last observed heartbeat (or the monitoring start).
    last_heartbeat: Tick,
    /// Consecutive on-time heartbeats while quarantined.
    probation: u32,
}

/// Deterministic per-node failure detector.
///
/// The phi-accrual idea — suspicion grows with elapsed silence relative
/// to the expected heartbeat interval — is tick-quantized here: the
/// suspicion level of a node at scan time is `floor(silence /
/// lease_ticks)` whole missed leases, and the SUSPECT/DEAD thresholds
/// are integer lease counts. That keeps the detector a pure integer
/// function of the heartbeat schedule (no floats, no randomness), so
/// detector state is identical at any thread count and a recorded run
/// replays bit-for-bit.
#[derive(Debug, Clone)]
pub struct HealthController {
    cfg: LoweredHealth,
    nodes: Vec<NodeRecord>,
}

impl HealthController {
    /// A controller over `nodes` nodes of which the first `powered`
    /// are monitored from tick 0 (the rest are dormant spares,
    /// unmonitored until [`HealthController::watch`]).
    #[must_use]
    pub fn new(nodes: u32, powered: u32, cfg: LoweredHealth) -> Self {
        let records = (0..nodes)
            .map(|n| NodeRecord {
                state: if n < powered {
                    NodeHealth::Alive
                } else {
                    NodeHealth::Unmonitored
                },
                last_heartbeat: 0,
                probation: 0,
            })
            .collect();
        Self {
            cfg,
            nodes: records,
        }
    }

    /// Current detector state of `node`.
    #[must_use]
    pub fn state(&self, node: u32) -> NodeHealth {
        self.nodes[node as usize].state
    }

    /// Nodes currently quarantined (DEAD).
    #[must_use]
    pub fn quarantined(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeHealth::Dead)
            .count() as u32
    }

    /// Starts monitoring `node` at `now` (a spare entering service):
    /// its lease clock starts fresh and it is ALIVE until it misses.
    pub fn watch(&mut self, node: u32, now: Tick) {
        let rec = &mut self.nodes[node as usize];
        rec.state = NodeHealth::Alive;
        rec.last_heartbeat = now;
        rec.probation = 0;
    }

    /// Observes a heartbeat from `node` at `tick`.
    ///
    /// Returns the state transition the heartbeat caused, if any:
    /// [`HealthEvent::FalseSuspect`] when a SUSPECT node proves itself
    /// alive, [`HealthEvent::Readmit`] when a quarantined node
    /// completes probation.
    pub fn heartbeat(&mut self, node: u32, tick: Tick) -> Option<HealthEvent> {
        let lease = self.cfg.lease_ticks;
        let rec = &mut self.nodes[node as usize];
        let gap = tick.saturating_sub(rec.last_heartbeat);
        let was = rec.state;
        rec.last_heartbeat = tick;
        match was {
            NodeHealth::Unmonitored => {
                rec.state = NodeHealth::Alive;
                None
            }
            NodeHealth::Alive => None,
            NodeHealth::Suspect => {
                rec.state = NodeHealth::Alive;
                Some(HealthEvent::FalseSuspect)
            }
            NodeHealth::Dead => {
                // Probation counts only *consecutive on-time* beats; a
                // gap beyond one lease restarts the count at this beat.
                rec.probation = if gap <= lease { rec.probation + 1 } else { 1 };
                if rec.probation >= self.cfg.probation_leases {
                    rec.state = NodeHealth::Alive;
                    rec.probation = 0;
                    Some(HealthEvent::Readmit)
                } else {
                    None
                }
            }
        }
    }

    /// Scans every monitored node at `now`, quantizing its silence into
    /// missed leases and applying the SUSPECT/DEAD thresholds. Verdicts
    /// are returned in node-index order (deterministic).
    ///
    /// Run the scan once per lease, *after* that tick's heartbeats have
    /// been observed, so a live node's silence is always below one
    /// lease at scan time.
    pub fn scan(&mut self, now: Tick, verdicts: &mut Vec<ScanVerdict>) {
        verdicts.clear();
        let lease = self.cfg.lease_ticks;
        for (i, rec) in self.nodes.iter_mut().enumerate() {
            if matches!(rec.state, NodeHealth::Unmonitored | NodeHealth::Dead) {
                continue;
            }
            let missed = (now.saturating_sub(rec.last_heartbeat) / lease) as u32;
            if rec.state == NodeHealth::Alive && missed >= self.cfg.suspect_missed {
                rec.state = NodeHealth::Suspect;
                verdicts.push(ScanVerdict {
                    node: i as u32,
                    event: HealthEvent::Suspect,
                });
            }
            if rec.state == NodeHealth::Suspect && missed >= self.cfg.dead_missed {
                rec.state = NodeHealth::Dead;
                rec.probation = 0;
                verdicts.push(ScanVerdict {
                    node: i as u32,
                    event: HealthEvent::Dead,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HealthConfig;

    fn lowered() -> LoweredHealth {
        HealthConfig::standard().try_lower(0.1).unwrap()
    }

    fn scan(c: &mut HealthController, now: Tick) -> Vec<ScanVerdict> {
        let mut v = Vec::new();
        c.scan(now, &mut v);
        v
    }

    #[test]
    fn a_heartbeating_node_is_never_suspected() {
        let cfg = lowered();
        let mut c = HealthController::new(1, 1, cfg);
        for k in 1..=20 {
            let t = k * cfg.lease_ticks;
            assert_eq!(c.heartbeat(0, t), None);
            assert!(scan(&mut c, t).is_empty());
            assert_eq!(c.state(0), NodeHealth::Alive);
        }
    }

    #[test]
    fn silence_walks_suspect_then_dead_at_the_thresholds() {
        let cfg = lowered();
        let mut c = HealthController::new(1, 1, cfg);
        // Node heartbeats once, then goes silent forever.
        c.heartbeat(0, cfg.lease_ticks);
        let mut declared_at = None;
        for k in 2..=10 {
            let now = k * cfg.lease_ticks;
            let v = scan(&mut c, now);
            let missed = (k - 1) as u32;
            if missed < cfg.suspect_missed {
                assert!(v.is_empty(), "missed={missed}");
            } else if missed == cfg.suspect_missed {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].event, HealthEvent::Suspect);
            } else if missed == cfg.dead_missed {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].event, HealthEvent::Dead);
                declared_at = Some(now);
            }
        }
        assert_eq!(c.state(0), NodeHealth::Dead);
        assert_eq!(c.quarantined(), 1);
        // Detection happened exactly dead_missed leases after the last
        // heartbeat.
        assert_eq!(
            declared_at,
            Some((1 + u64::from(cfg.dead_missed)) * cfg.lease_ticks)
        );
        // Repeated scans do not re-declare.
        assert!(scan(&mut c, 20 * cfg.lease_ticks).is_empty());
        assert_eq!(c.quarantined(), 1);
    }

    #[test]
    fn a_recovering_suspect_is_a_false_suspicion() {
        let cfg = lowered();
        let mut c = HealthController::new(1, 1, cfg);
        c.heartbeat(0, cfg.lease_ticks);
        let now = (1 + u64::from(cfg.suspect_missed)) * cfg.lease_ticks;
        assert_eq!(scan(&mut c, now)[0].event, HealthEvent::Suspect);
        assert_eq!(c.heartbeat(0, now + 1), Some(HealthEvent::FalseSuspect));
        assert_eq!(c.state(0), NodeHealth::Alive);
        assert_eq!(c.quarantined(), 0);
    }

    #[test]
    fn readmission_requires_consecutive_on_time_probation() {
        let cfg = lowered();
        let mut c = HealthController::new(1, 1, cfg);
        // Kill the node.
        let dead_at = u64::from(cfg.dead_missed) * cfg.lease_ticks;
        scan(&mut c, dead_at);
        assert_eq!(c.state(0), NodeHealth::Dead);
        // probation_leases - 1 on-time beats are not enough...
        let mut t = dead_at;
        for _ in 0..cfg.probation_leases - 1 {
            t += cfg.lease_ticks;
            assert_eq!(c.heartbeat(0, t), None);
            assert_eq!(c.state(0), NodeHealth::Dead);
        }
        // ...a late beat resets the count...
        t += 2 * cfg.lease_ticks;
        assert_eq!(c.heartbeat(0, t), None);
        // ...and only a full consecutive run readmits.
        for k in 0..cfg.probation_leases - 1 {
            t += cfg.lease_ticks;
            let got = c.heartbeat(0, t);
            if k + 2 == cfg.probation_leases {
                assert_eq!(got, Some(HealthEvent::Readmit));
            } else {
                assert_eq!(got, None);
            }
        }
        assert_eq!(c.state(0), NodeHealth::Alive);
        assert_eq!(c.quarantined(), 0);
    }

    #[test]
    fn unmonitored_spares_are_invisible_until_watched() {
        let cfg = lowered();
        let mut c = HealthController::new(4, 2, cfg);
        assert_eq!(c.state(3), NodeHealth::Unmonitored);
        // Scans far in the future never suspect an unmonitored node.
        c.heartbeat(0, 10 * cfg.lease_ticks);
        c.heartbeat(1, 10 * cfg.lease_ticks);
        assert!(scan(&mut c, 10 * cfg.lease_ticks).is_empty());
        // Once watched, the node is held to its lease like any other.
        c.watch(3, 10 * cfg.lease_ticks);
        assert_eq!(c.state(3), NodeHealth::Alive);
        let now = (10 + u64::from(cfg.dead_missed)) * cfg.lease_ticks;
        c.heartbeat(0, now);
        c.heartbeat(1, now);
        let v = scan(&mut c, now);
        assert_eq!(v.len(), 2, "suspect and dead in one late scan");
        assert!(v.iter().all(|x| x.node == 3));
    }
}
