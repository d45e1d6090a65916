//! The topic table: the four named, QoS-contracted channels on the bus.
//!
//! [`BusConfig::standard`] is the fixed table of the constellation
//! topics the sim publishes on. Every [`crate::Payload`] maps onto one of
//! them statically, so the table is never extended at run time.

use crate::qos::QosContract;

/// Handle to a topic: an index into the topic table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub(crate) u16);

impl TopicId {
    /// Position of this topic in the topic table.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// EO capture stream: one sample per imaging opportunity.
pub const TOPIC_CAPTURES: TopicId = TopicId(0);
/// Insight stream: processed results awaiting or completing downlink.
pub const TOPIC_INSIGHTS: TopicId = TopicId(1);
/// Telemetry stream: tick settlements, queue depths, backlog samples.
pub const TOPIC_TELEMETRY: TopicId = TopicId(2);
/// Fault-event stream: upsets, retries, sheds, failures, promotions.
pub const TOPIC_FAULTS: TopicId = TopicId(3);

/// Number of topics: `TOPIC_CAPTURES` … `TOPIC_FAULTS`.
pub(crate) const TOPICS: usize = 4;

/// One topic: its name and QoS contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicSpec {
    /// Topic name (e.g. `"eo/captures"`).
    pub name: &'static str,
    /// Delivery contract for every sample on this topic.
    pub qos: QosContract,
}

/// The topic table.
#[derive(Debug, Clone, PartialEq)]
pub struct BusConfig {
    topics: [TopicSpec; TOPICS],
}

impl BusConfig {
    /// The standard constellation topic table: captures, insights,
    /// telemetry, and fault events, in the fixed order matching
    /// [`TOPIC_CAPTURES`] … [`TOPIC_FAULTS`].
    #[must_use]
    pub fn standard() -> Self {
        let spec = |name, qos| TopicSpec { name, qos };
        Self {
            topics: [
                spec("eo/captures", QosContract::standard_captures()),
                spec("eo/insights", QosContract::standard_insights()),
                spec("ops/telemetry", QosContract::standard_telemetry()),
                spec("ops/faults", QosContract::standard_faults()),
            ],
        }
    }

    /// Looks up a topic by id.
    #[must_use]
    pub fn topic(&self, id: TopicId) -> Option<&TopicSpec> {
        self.topics.get(id.index())
    }

    /// Iterates `(id, spec)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (TopicId, &TopicSpec)> {
        self.topics
            .iter()
            .enumerate()
            .map(|(i, t)| (TopicId(i as u16), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_has_fixed_ids() {
        let cfg = BusConfig::standard();
        assert_eq!(cfg.iter().count(), TOPICS);
        for (id, name) in [
            (TOPIC_CAPTURES, "eo/captures"),
            (TOPIC_INSIGHTS, "eo/insights"),
            (TOPIC_TELEMETRY, "ops/telemetry"),
            (TOPIC_FAULTS, "ops/faults"),
        ] {
            assert_eq!(cfg.topic(id).map(|t| t.name), Some(name));
        }
    }
}
