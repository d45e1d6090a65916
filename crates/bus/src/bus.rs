//! Subscribers: what a publisher delivers each sample to.
//!
//! There is no bus object. A publisher (the sim kernel) owns its
//! subscribers and hands every [`Sample`] to each in turn; recording
//! ([`BusLog`]) and per-topic counting ([`BusStats`]) are subscribers
//! like any other, attached only when wanted. `()` attaches nothing and
//! `(A, B)` attaches two, so an unattached publish costs exactly the
//! deliveries it makes.

use crate::record::BusLog;
use crate::sample::Sample;
use crate::topic::{TopicId, TOPICS};

/// A synchronous sample sink.
pub trait Subscriber {
    /// Receives one published sample. Its topic is
    /// `sample.payload.topic()`, so demultiplexing needs no side table.
    fn deliver(&mut self, sample: &Sample);
}

/// Attaches nothing.
impl Subscriber for () {
    #[inline(always)]
    fn deliver(&mut self, _sample: &Sample) {}
}

/// Delivers to `A`, then to `B`.
impl<A: Subscriber, B: Subscriber> Subscriber for (A, B) {
    #[inline(always)]
    fn deliver(&mut self, sample: &Sample) {
        self.0.deliver(sample);
        self.1.deliver(sample);
    }
}

/// Records every sample.
impl Subscriber for BusLog {
    #[inline]
    fn deliver(&mut self, sample: &Sample) {
        self.push(sample);
    }
}

/// Per-topic publish counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusStats {
    counts: [u64; TOPICS],
}

impl BusStats {
    /// Samples published on `topic`.
    #[must_use]
    pub fn published(&self, topic: TopicId) -> u64 {
        self.counts.get(topic.index()).copied().unwrap_or(0)
    }

    /// Total samples published across all topics.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Counts every sample on its topic.
impl Subscriber for BusStats {
    #[inline]
    fn deliver(&mut self, sample: &Sample) {
        self.counts[sample.payload.topic().index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Payload;
    use crate::topic::{TOPIC_CAPTURES, TOPIC_INSIGHTS, TOPIC_TELEMETRY};

    #[derive(Default)]
    struct Tally(Vec<Sample>);
    impl Subscriber for Tally {
        fn deliver(&mut self, sample: &Sample) {
            self.0.push(*sample);
        }
    }

    #[test]
    fn attached_subscribers_count_record_and_deliver_in_order() {
        let samples = [
            Sample {
                tick: 1,
                payload: Payload::Capture {
                    sat: 4,
                    filtered: true,
                },
            },
            Sample {
                tick: 2,
                payload: Payload::QueueDepth {
                    downlink: false,
                    len: 1,
                },
            },
            Sample {
                tick: 9,
                payload: Payload::Processed { capture: 3 },
            },
        ];
        let mut attached = (Tally::default(), (BusLog::new(), BusStats::default()));
        for s in &samples {
            attached.deliver(s);
        }
        let (tally, (log, stats)) = attached;
        assert_eq!(tally.0, samples);
        assert_eq!(log.records(), 3);
        let mut decoded = Vec::new();
        log.try_visit(|s| decoded.push(*s)).unwrap();
        assert_eq!(decoded, samples);
        assert_eq!(stats.published(TOPIC_CAPTURES), 1);
        assert_eq!(stats.published(TOPIC_TELEMETRY), 1);
        assert_eq!(stats.published(TOPIC_INSIGHTS), 1);
        assert_eq!(stats.total(), log.records());
    }
}
