//! Property tests holding the health plane's [`HealthController`] to a
//! flat-scan reference model.
//!
//! The controller executes the lowered lease contract with early exits
//! and in-place records; the model below re-derives every verdict from
//! a plain `Vec` rescan. Random interleavings of heartbeats, scans, and
//! watches at nondecreasing ticks must be observationally identical at
//! every step — same states, same verdicts, same transitions from each
//! heartbeat, same quarantine. Dedicated
//! properties then pin the detector's three contract clauses from the
//! issue: no suspicion without a missed lease, quarantine monotone in
//! missed heartbeats, and readmission only after a full consecutive
//! probation. Two sim tests close the file: the armed sim meets the
//! workspace-wide determinism bar (identical detector traces at 1, 2,
//! and 8 threads), and both controller arms of a cold-spare mission
//! reach quarantines, so the kernel's detector ledger is exercised.

use proptest::collection;
use proptest::prelude::*;
use space_udc::bus::HealthEvent;
use space_udc::chaos::Campaign;
use space_udc::health::{HealthConfig, HealthController, LoweredHealth, NodeHealth, ScanVerdict};
use space_udc::sim::{run, try_replicate_grid, SimConfig, DEFAULT_SEED};
use space_udc::units::Seconds;

/// Flat-scan reference model of the detector: plain per-node records,
/// every operation rescans from scratch — no early exits, no skips.
struct Model {
    cfg: LoweredHealth,
    nodes: Vec<ModelNode>,
}

#[derive(Clone, Copy)]
struct ModelNode {
    state: NodeHealth,
    last_heartbeat: u64,
    probation: u32,
}

impl Model {
    fn new(nodes: u32, powered: u32, cfg: LoweredHealth) -> Self {
        let nodes = (0..nodes)
            .map(|n| ModelNode {
                state: if n < powered {
                    NodeHealth::Alive
                } else {
                    NodeHealth::Unmonitored
                },
                last_heartbeat: 0,
                probation: 0,
            })
            .collect();
        Self { cfg, nodes }
    }

    fn heartbeat(&mut self, node: usize, tick: u64) -> Option<HealthEvent> {
        let n = &mut self.nodes[node];
        let gap = tick.saturating_sub(n.last_heartbeat);
        let was = n.state;
        n.last_heartbeat = tick;
        match was {
            NodeHealth::Unmonitored | NodeHealth::Alive => {
                n.state = NodeHealth::Alive;
                None
            }
            NodeHealth::Suspect => {
                n.state = NodeHealth::Alive;
                Some(HealthEvent::FalseSuspect)
            }
            NodeHealth::Dead => {
                n.probation = if gap <= self.cfg.lease_ticks {
                    n.probation + 1
                } else {
                    1
                };
                if n.probation >= self.cfg.probation_leases {
                    n.state = NodeHealth::Alive;
                    n.probation = 0;
                    Some(HealthEvent::Readmit)
                } else {
                    None
                }
            }
        }
    }

    fn scan(&mut self, now: u64) -> Vec<ScanVerdict> {
        let mut verdicts = Vec::new();
        for i in 0..self.nodes.len() {
            let missed =
                (now.saturating_sub(self.nodes[i].last_heartbeat) / self.cfg.lease_ticks) as u32;
            if self.nodes[i].state == NodeHealth::Alive && missed >= self.cfg.suspect_missed {
                self.nodes[i].state = NodeHealth::Suspect;
                verdicts.push(ScanVerdict {
                    node: i as u32,
                    event: HealthEvent::Suspect,
                });
            }
            if self.nodes[i].state == NodeHealth::Suspect && missed >= self.cfg.dead_missed {
                self.nodes[i].state = NodeHealth::Dead;
                self.nodes[i].probation = 0;
                verdicts.push(ScanVerdict {
                    node: i as u32,
                    event: HealthEvent::Dead,
                });
            }
        }
        verdicts
    }

    fn watch(&mut self, node: usize, now: u64) {
        let n = &mut self.nodes[node];
        n.state = NodeHealth::Alive;
        n.last_heartbeat = now;
        n.probation = 0;
    }

    fn quarantined(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeHealth::Dead)
            .count() as u32
    }
}

/// One scripted detector operation; ticks advance by each op's delta so
/// time is always nondecreasing.
#[derive(Debug, Clone, Copy)]
enum Op {
    Beat { node: u32, dt: u64 },
    Scan { dt: u64 },
    Watch { node: u32, dt: u64 },
}

/// Decodes one raw word into an op: beats weighted 4, scans 2,
/// watches 1 (mirrors a live fleet, where heartbeats dominate).
fn decode(word: u64, nodes: u32) -> Op {
    let node = ((word >> 3) % u64::from(nodes)) as u32;
    let dt = (word >> 8) % 2000;
    match word % 7 {
        0..=3 => Op::Beat { node, dt },
        4 | 5 => Op::Scan { dt },
        _ => Op::Watch { node, dt },
    }
}

/// A small contract with short leases so random scripts actually cross
/// the thresholds.
fn contract(lease_ticks: u64, suspect: u32, dead_gap: u32, probation: u32) -> LoweredHealth {
    LoweredHealth {
        lease_ticks,
        suspect_missed: suspect,
        dead_missed: suspect + dead_gap,
        probation_leases: probation,
        closed_loop: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(64))]

    /// The main equivalence: random interleavings of heartbeats, scans,
    /// and watches are observationally identical to the flat-scan model
    /// at every step.
    #[test]
    fn random_interleavings_match_the_flat_scan_oracle(
        words in collection::vec(0u64..u64::MAX, 1..120),
        lease in 1u64..600,
        suspect in 1u32..4,
        dead_gap in 1u32..4,
        probation in 1u32..4,
    ) {
        let cfg = contract(lease, suspect, dead_gap, probation);
        let mut real = HealthController::new(6, 3, cfg);
        let mut model = Model::new(6, 3, cfg);
        let mut verdicts = Vec::new();
        let mut now = 0u64;
        for word in words {
            match decode(word, 6) {
                Op::Beat { node, dt } => {
                    now += dt;
                    let got = real.heartbeat(node, now);
                    let want = model.heartbeat(node as usize, now);
                    prop_assert_eq!(got, want);
                }
                Op::Scan { dt } => {
                    now += dt;
                    real.scan(now, &mut verdicts);
                    let want = model.scan(now);
                    prop_assert_eq!(&verdicts, &want);
                }
                Op::Watch { node, dt } => {
                    now += dt;
                    real.watch(node, now);
                    model.watch(node as usize, now);
                }
            }
            for n in 0..6u32 {
                prop_assert_eq!(real.state(n), model.nodes[n as usize].state);
            }
            prop_assert_eq!(real.quarantined(), model.quarantined());
        }
    }

    /// No suspicion without a missed lease: a fleet whose every node
    /// heartbeats within its lease is never suspected, no matter the
    /// jitter or how many rounds elapse.
    #[test]
    fn no_suspicion_without_a_missed_lease(
        lease in 2u64..600,
        nodes in 1u32..8,
        rounds in 1u64..40,
        jitter_seed in 0u64..1000,
    ) {
        let cfg = contract(lease, 2, 2, 3);
        let mut c = HealthController::new(nodes, nodes, cfg);
        let mut verdicts = Vec::new();
        for r in 1..=rounds {
            for n in 0..nodes {
                // Any beat inside the round keeps silence below one
                // full lease at scan time.
                let jitter = (jitter_seed * 31 + u64::from(n) * 7 + r) % lease;
                prop_assert_eq!(c.heartbeat(n, (r - 1) * lease + jitter), None);
            }
            c.scan(r * lease, &mut verdicts);
            prop_assert!(verdicts.is_empty(), "round {r} produced verdicts");
        }
        for n in 0..nodes {
            prop_assert_eq!(c.state(n), NodeHealth::Alive);
        }
    }

    /// Quarantine is monotone in missed heartbeats: longer silence never
    /// maps to a healthier state, and the SUSPECT/DEAD boundaries sit
    /// exactly at the configured thresholds.
    #[test]
    fn quarantine_is_monotone_in_missed_heartbeats(
        lease in 1u64..600,
        suspect in 1u32..5,
        dead_gap in 1u32..5,
    ) {
        let cfg = contract(lease, suspect, dead_gap, 3);
        let rank = |s: NodeHealth| match s {
            NodeHealth::Unmonitored => unreachable!("node 0 is monitored"),
            NodeHealth::Alive => 0,
            NodeHealth::Suspect => 1,
            NodeHealth::Dead => 2,
        };
        let mut previous = 0;
        for missed in 0..=(cfg.dead_missed + 3) {
            // Fresh detector per silence length: one beat, then silence.
            let mut c = HealthController::new(1, 1, cfg);
            let mut verdicts = Vec::new();
            c.heartbeat(0, 0);
            c.scan(u64::from(missed) * lease, &mut verdicts);
            let got = rank(c.state(0));
            prop_assert!(got >= previous, "state rank regressed at missed={missed}");
            let want = if missed >= cfg.dead_missed {
                2
            } else if missed >= cfg.suspect_missed {
                1
            } else {
                0
            };
            prop_assert_eq!(got, want);
            previous = got;
        }
    }

    /// Readmission only after probation: a quarantined node returns to
    /// service exactly when its trailing run of on-time heartbeats
    /// reaches `probation_leases`, and never before.
    #[test]
    fn readmission_only_after_a_full_consecutive_probation(
        lease in 1u64..600,
        probation in 1u32..5,
        gaps in collection::vec(0u64..2, 1..30),
    ) {
        let cfg = contract(lease, 2, 2, probation);
        let mut c = HealthController::new(1, 1, cfg);
        let mut verdicts = Vec::new();
        // Quarantine the node: one beat, then silence past DEAD.
        c.heartbeat(0, 0);
        let mut now = u64::from(cfg.dead_missed) * lease;
        c.scan(now, &mut verdicts);
        prop_assert_eq!(c.state(0), NodeHealth::Dead);

        // Each gap is either on-time (== lease) or late (lease + 1);
        // a late beat restarts the consecutive count at one.
        let mut run = 0u32;
        let mut readmitted = false;
        for on_time in gaps.into_iter().map(|g| g == 0) {
            now += if on_time { lease } else { lease + 1 };
            run = if on_time { run + 1 } else { 1 };
            let got = c.heartbeat(0, now);
            if readmitted {
                // Post-readmission beats are plain ALIVE heartbeats.
                prop_assert_eq!(got, None);
                continue;
            }
            if run >= probation {
                prop_assert_eq!(got, Some(HealthEvent::Readmit));
                prop_assert_eq!(c.state(0), NodeHealth::Alive);
                readmitted = true;
            } else {
                prop_assert_eq!(got, None);
                prop_assert_eq!(c.state(0), NodeHealth::Dead);
            }
        }
    }
}

/// The armed sim meets the workspace determinism bar: the complete
/// per-replication trace — health counters included — of every cell of
/// a replication grid (both controller arms) is identical at 1, 2, and 8
/// worker threads.
#[test]
fn detector_traces_are_identical_at_1_2_and_8_threads() {
    let duration = Seconds::new(1800.0);
    let cfg = Campaign::independent(duration)
        .apply(&SimConfig::reference_operations(duration))
        .with_health(HealthConfig::standard());
    let monitor_only = cfg.with_health(HealthConfig {
        closed_loop: false,
        ..HealthConfig::standard()
    });
    let run = |threads: usize| {
        space_udc::par::set_threads(threads);
        let grid = try_replicate_grid(&[cfg, monitor_only], 3, DEFAULT_SEED)
            .expect("replicated study runs");
        space_udc::par::set_threads(0);
        grid
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "1-thread and 2-thread traces diverged");
    assert_eq!(one, eight, "1-thread and 8-thread traces diverged");
    // And the detector actually did something in every arm.
    for traces in &one {
        assert!(
            traces.iter().any(|t| t.heartbeats > 0),
            "no heartbeats observed"
        );
        assert!(
            traces.iter().any(|t| t.detections > 0),
            "no detections observed"
        );
    }
}

/// Both controller arms of a cold-spare mission reach live quarantines,
/// and the closed loop promotes spares on them, so the kernel's
/// debug-build detector ledger (every powered-alive node ALIVE to the
/// detector, every cold spare unmonitored, quarantine == detections, no
/// readmission) is checked at every lease of both arms by a debug
/// `cargo test`.
#[test]
fn detector_ledger_arms_reach_detections_and_promotions() {
    let mission = |closed_loop: bool| {
        let cfg = SimConfig::try_cold_spare_mission(20, 10, 0.1, 2.0).unwrap();
        let health = HealthConfig {
            lease_s: cfg.tick_seconds * 50.0,
            closed_loop,
            ..HealthConfig::standard()
        };
        run(&cfg.with_health(health), 11)
    };
    let on = mission(true);
    let off = mission(false);
    assert!(on.detections > 0, "closed loop saw no detections");
    assert!(on.promotions > 0, "closed loop never promoted");
    assert!(off.detections > 0, "monitor-only saw no detections");
    assert_eq!(off.promotions, 0, "monitor-only promoted");
}
