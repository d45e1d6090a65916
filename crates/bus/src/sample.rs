//! Typed samples: what the constellation pipeline publishes.
//!
//! Each [`Payload`] variant maps onto one hop or bookkeeping action of
//! the capture → filter → ISL → compute → downlink pipeline. The
//! variant determines the topic ([`Payload::topic`]), so a publisher
//! never routes by hand and a recorded stream can be demultiplexed
//! without a side table.

use crate::topic::{TopicId, TOPIC_CAPTURES, TOPIC_FAULTS, TOPIC_INSIGHTS, TOPIC_TELEMETRY};

/// Discrete simulation time, in ticks (matches `sudc_sim::Tick`).
pub type Tick = u64;

/// Category of a fault-topic event. One published fault event may move
/// more than one run counter (e.g. a storm kill is both a failure and a
/// storm statistic); the mapping lives with the subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultKind {
    /// Capture shed at batch-queue admission (bounded history).
    BatchOverflow,
    /// Insight shed at downlink-queue admission (bounded history).
    DownlinkOverflow,
    /// Capture shed because its freshness deadline expired in queue.
    DeadlineShed,
    /// Result corrupted by a radiation upset during compute.
    Corrupted,
    /// Corrupted capture re-queued under the bounded retry budget.
    Retry,
    /// Corrupted capture abandoned: retry budget exhausted.
    RetryExhausted,
    /// Compute node died (wear-out or infant mortality).
    NodeFailure,
    /// Cold spare promoted to replace a dead node.
    Promotion,
    /// Cold spare found dead at promotion time (dormant aging).
    DormantDeath,
    /// Node killed by a correlated radiation storm.
    StormKill,
    /// Inter-satellite link dropped mid-transfer.
    IslFlap,
    /// Ground contact window lost to a blackout.
    Blackout,
}

impl FaultKind {
    /// All kinds, in wire-tag order (see `record.rs`): the declaration
    /// order, so a kind's tag is its discriminant.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::BatchOverflow,
        FaultKind::DownlinkOverflow,
        FaultKind::DeadlineShed,
        FaultKind::Corrupted,
        FaultKind::Retry,
        FaultKind::RetryExhausted,
        FaultKind::NodeFailure,
        FaultKind::Promotion,
        FaultKind::DormantDeath,
        FaultKind::StormKill,
        FaultKind::IslFlap,
        FaultKind::Blackout,
    ];

    /// Stable wire tag for the binary log.
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`FaultKind::wire_tag`].
    #[must_use]
    pub fn from_wire_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }
}

/// State transition published by the closed-loop health plane
/// (`sudc-health`) for one monitored compute node. Like [`FaultKind`],
/// the mapping onto run counters lives with the subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthEvent {
    /// The failure detector moved the node to SUSPECT (missed leases
    /// reached the suspicion threshold).
    Suspect,
    /// A suspected node heartbeated again before being declared dead —
    /// a false suspicion (it was alive all along).
    FalseSuspect,
    /// The detector declared the node DEAD and quarantined it; the
    /// payload's `value` carries the detection latency in ticks.
    Dead,
    /// A quarantined node completed its readmission probation.
    Readmit,
}

impl HealthEvent {
    /// All events, in wire-tag order (see `record.rs`): the declaration
    /// order, so an event's tag is its discriminant.
    pub const ALL: [HealthEvent; 4] = [
        HealthEvent::Suspect,
        HealthEvent::FalseSuspect,
        HealthEvent::Dead,
        HealthEvent::Readmit,
    ];

    /// Stable wire tag for the binary log.
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`HealthEvent::wire_tag`].
    #[must_use]
    pub fn from_wire_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }
}

/// One typed message on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// An imaging opportunity fired on `sat`; `filtered` marks captures
    /// discarded by the onboard edge filter before ISL transfer.
    Capture {
        /// Publishing satellite index.
        sat: u32,
        /// Whether the onboard filter discarded this capture.
        filtered: bool,
    },
    /// A capture finished batch compute and became an insight.
    Processed {
        /// Tick the source capture fired (for freshness accounting).
        capture: Tick,
    },
    /// An insight reached the ground through a contact window.
    Delivered {
        /// Tick the source capture fired.
        capture: Tick,
    },
    /// Tick settlement, published after a tick whose events changed the
    /// settled state: the state it carries held from the previous
    /// `Settle` (or the run's start) up to this sample's tick. Ticks that
    /// left the state unchanged publish none; one more `Settle` at the
    /// last handled tick carries their events before the `Finish`.
    Settle {
        /// Events handled since the previous `Settle`, this tick's
        /// included.
        events: u64,
        /// Compute nodes busy entering the tick.
        busy: u32,
        /// Batch-queue depth entering the tick.
        batch_queue: u64,
        /// Downlink-queue depth entering the tick.
        downlink_queue: u64,
        /// Whether powered-alive nodes met the required capability
        /// entering the tick.
        full: bool,
    },
    /// A bounded queue reached a new peak length (post-admission depth):
    /// the kernel publishes one only when the queue outgrows every depth
    /// it published before.
    QueueDepth {
        /// `false` = batch queue, `true` = downlink queue.
        downlink: bool,
        /// Depth after the admission that triggered this sample.
        len: u64,
    },
    /// Periodic backlog probe across the three pipeline stages.
    Backlog {
        /// Images waiting on or in ISL transfer.
        isl: u64,
        /// Images waiting for batch compute.
        batch: u64,
        /// Insights waiting on or in downlink.
        downlink: u64,
        /// Age of the oldest queued capture, if any.
        oldest_age: Option<Tick>,
    },
    /// A compute batch was dispatched to a node.
    BatchDispatched {
        /// Images in the batch.
        size: u64,
        /// Whether the batch went out stale (timeout) rather than full.
        timeout: bool,
    },
    /// End-of-run settlement: final queue state and scheduler peaks.
    Finish {
        /// Compute nodes busy at end of run.
        busy: u32,
        /// Final batch-queue depth.
        batch_queue: u64,
        /// Final downlink-queue depth.
        downlink_queue: u64,
        /// Whether capability was full at end of run.
        full: bool,
        /// Peak event-queue length over the whole run.
        peak_event_queue: u64,
    },
    /// A fault-topic event (`count` identical events coalesced).
    Fault {
        /// What happened.
        kind: FaultKind,
        /// How many times it happened at this tick (coalesced).
        count: u64,
    },
    /// Liveliness heartbeat: powered compute node `node` asserted its
    /// writer lease on the telemetry topic (health plane only).
    Heartbeat {
        /// Index of the heartbeating node.
        node: u32,
    },
    /// Health-plane state transition for node `node`; `value` carries
    /// the transition's measurement (detection latency in ticks for
    /// [`HealthEvent::Dead`], 0 otherwise).
    Health {
        /// What the detector decided.
        event: HealthEvent,
        /// Index of the affected node.
        node: u32,
        /// Transition measurement (detection latency ticks for `Dead`).
        value: u64,
    },
}

impl Payload {
    /// The standard topic this payload belongs to.
    #[must_use]
    pub fn topic(&self) -> TopicId {
        match self {
            Payload::Capture { .. } => TOPIC_CAPTURES,
            Payload::Processed { .. } | Payload::Delivered { .. } => TOPIC_INSIGHTS,
            Payload::Settle { .. }
            | Payload::QueueDepth { .. }
            | Payload::Backlog { .. }
            | Payload::BatchDispatched { .. }
            | Payload::Finish { .. }
            | Payload::Heartbeat { .. } => TOPIC_TELEMETRY,
            Payload::Fault { .. } | Payload::Health { .. } => TOPIC_FAULTS,
        }
    }
}

/// A timestamped payload: what a publisher delivers to each
/// [`crate::Subscriber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Publication tick (nondecreasing across a run).
    pub tick: Tick,
    /// The typed message.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_wire_tags_roundtrip() {
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(kind.wire_tag()), i);
            assert_eq!(FaultKind::from_wire_tag(kind.wire_tag()), Some(kind));
        }
        assert_eq!(FaultKind::from_wire_tag(FaultKind::ALL.len() as u8), None);
    }

    #[test]
    fn health_wire_tags_roundtrip() {
        for (i, event) in HealthEvent::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(event.wire_tag()), i);
            assert_eq!(HealthEvent::from_wire_tag(event.wire_tag()), Some(event));
        }
        assert_eq!(
            HealthEvent::from_wire_tag(HealthEvent::ALL.len() as u8),
            None
        );
    }

    #[test]
    fn health_payloads_route_to_their_topics() {
        assert_eq!(Payload::Heartbeat { node: 3 }.topic(), TOPIC_TELEMETRY);
        assert_eq!(
            Payload::Health {
                event: HealthEvent::Dead,
                node: 3,
                value: 120
            }
            .topic(),
            TOPIC_FAULTS
        );
    }

    #[test]
    fn payloads_route_to_their_topics() {
        assert_eq!(
            Payload::Capture {
                sat: 0,
                filtered: false
            }
            .topic(),
            TOPIC_CAPTURES
        );
        assert_eq!(Payload::Processed { capture: 0 }.topic(), TOPIC_INSIGHTS);
        assert_eq!(Payload::Delivered { capture: 0 }.topic(), TOPIC_INSIGHTS);
        assert_eq!(
            Payload::Fault {
                kind: FaultKind::IslFlap,
                count: 1
            }
            .topic(),
            TOPIC_FAULTS
        );
    }
}
