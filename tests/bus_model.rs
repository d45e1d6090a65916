//! Property tests holding the bus's [`TopicChannel`] to a flat-scan
//! reference model.
//!
//! The channel executes a lowered QoS contract with `VecDeque` plumbing
//! and early exits; the model below re-derives every verdict from a
//! plain `Vec` scan. Random interleavings of publishes, takes, and
//! nacks at nondecreasing ticks must be observationally identical at
//! every step — same deliveries, same depth, same counters, same
//! late-join replay. Dedicated properties then pin the four contract
//! clauses: FIFO within a topic, `RELIABLE` never dropping inside its
//! retry budget, `DEADLINE` shedding oldest-first, and bounded history
//! evicting oldest-first.

use proptest::collection;
use proptest::prelude::*;
use space_udc::bus::{ChannelStats, Delivery, LoweredQos, Tick, TopicChannel};

/// Flat-scan reference model of one channel: a plain `Vec` of queued
/// samples; every operation rescans from the front.
struct Model {
    qos: LoweredQos,
    queue: Vec<(u64, Tick, u32, u64)>, // (seq, published, attempt, data)
    retained: Vec<(Tick, u64)>,
    next_seq: u64,
    stats: ChannelStats,
}

impl Model {
    fn new(qos: LoweredQos) -> Self {
        Self {
            qos,
            queue: Vec::new(),
            retained: Vec::new(),
            next_seq: 0,
            stats: ChannelStats::default(),
        }
    }

    fn publish(&mut self, tick: Tick, data: u64) {
        self.stats.published += 1;
        self.queue.push((self.next_seq, tick, 0, data));
        self.next_seq += 1;
        if self.qos.history_depth > 0 {
            while self.queue.len() > self.qos.history_depth {
                self.queue.remove(0);
                self.stats.evicted += 1;
            }
        }
    }

    fn take(&mut self, now: Tick) -> Option<Delivery<u64>> {
        while let Some(&(_, published, _, _)) = self.queue.first() {
            let expired = self.qos.deadline_ticks != 0
                && now.saturating_sub(published) > self.qos.deadline_ticks;
            if !expired {
                break;
            }
            self.queue.remove(0);
            self.stats.shed_deadline += 1;
        }
        if self.queue.is_empty() {
            return None;
        }
        let (seq, published, attempt, data) = self.queue.remove(0);
        self.stats.delivered += 1;
        if self.qos.transient_local {
            self.retained.push((published, data));
            if self.qos.history_depth > 0 {
                while self.retained.len() > self.qos.history_depth {
                    self.retained.remove(0);
                }
            }
        }
        Some(Delivery {
            data,
            published,
            attempt: attempt + 1,
            seq,
        })
    }

    fn nack(&mut self, d: Delivery<u64>) -> bool {
        if self.qos.max_retries == 0 {
            self.stats.best_effort_drops += 1;
            return false;
        }
        if d.attempt > self.qos.max_retries {
            self.stats.retry_exhausted += 1;
            return false;
        }
        self.queue
            .insert(0, (d.seq, d.published, d.attempt, d.data));
        true
    }
}

/// Replays one random op sequence against channel and model, asserting
/// identical observable behavior after every operation. Each word
/// encodes one operation: low bits select publish/take/nack, high bits
/// advance the clock and pick payloads.
fn replay(qos: LoweredQos, words: &[u64]) -> Result<(), TestCaseError> {
    let mut channel: TopicChannel<u64> = TopicChannel::from_lowered(qos);
    let mut model = Model::new(qos);
    let mut now: Tick = 0;
    let mut in_flight: Option<Delivery<u64>> = None;
    for &w in words {
        now += (w >> 4) % 7;
        match w % 4 {
            0 | 1 => {
                let data = w >> 2;
                channel.publish(now, data);
                model.publish(now, data);
            }
            2 => {
                // Taking implicitly acks whatever was in flight.
                let got = channel.take(now);
                let want = model.take(now);
                prop_assert_eq!(&got, &want);
                in_flight = got;
            }
            _ => {
                if let Some(d) = in_flight.take() {
                    prop_assert_eq!(channel.nack(d), model.nack(d));
                }
            }
        }
        prop_assert_eq!(channel.depth(), model.queue.len());
        prop_assert_eq!(channel.stats(), model.stats);
        prop_assert_eq!(channel.attach_reader(), model.retained.clone());
    }
    // Drain the survivors far past every deadline: both must agree on
    // what expires and what still delivers, in the same order.
    let horizon = now + qos.deadline_ticks + 1;
    loop {
        let got = channel.take(horizon);
        let want = model.take(horizon);
        prop_assert_eq!(&got, &want);
        if got.is_none() {
            break;
        }
    }
    prop_assert_eq!(channel.stats(), model.stats);
    Ok(())
}

/// The QoS corners the model is exercised through: every combination of
/// {budgeted retries, best-effort} × {deadline, none} × {bounded
/// history, unbounded} × {transient-local, volatile} that the standard
/// topic table uses, plus tight bounds that force eviction.
fn qos_corner(sel: u8) -> LoweredQos {
    let deadline_ticks = if sel & 1 != 0 { 9 } else { 0 };
    let max_retries = if sel & 2 != 0 { 2 } else { 0 };
    let history_depth = if sel & 4 != 0 { 3 } else { 0 };
    // Store-and-forward needs a bounded store (contract invariant).
    let transient_local = sel & 8 != 0 && history_depth > 0;
    LoweredQos {
        deadline_ticks,
        max_retries,
        history_depth,
        transient_local,
        lease_ticks: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(64))]

    #[test]
    fn channel_matches_the_flat_scan_model(
        sel in 0u8..16,
        words in collection::vec(0u64..u64::MAX, 1..200),
    ) {
        replay(qos_corner(sel), &words)?;
    }

    #[test]
    fn fifo_within_topic_under_random_ticks(
        ticks in collection::vec(0u64..5, 1..60),
    ) {
        // No deadline, no bound: everything queued must come back in
        // exactly publication order.
        let mut ch: TopicChannel<u64> = TopicChannel::from_lowered(LoweredQos {
            deadline_ticks: 0,
            max_retries: 3,
            history_depth: 0,
            transient_local: false,
            lease_ticks: 0,
        });
        let mut now = 0;
        for (i, dt) in ticks.iter().enumerate() {
            now += dt;
            ch.publish(now, i as u64);
        }
        let mut seen = Vec::new();
        while let Some(d) = ch.take(now) {
            seen.push(d.data);
        }
        prop_assert_eq!(seen, (0..ticks.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn reliable_never_drops_within_the_retry_budget(
        budget in 1u32..4,
        samples in 1usize..20,
        failure_words in collection::vec(0u32..u32::MAX, 1..20),
    ) {
        // Each sample fails `failures <= budget` times before acking:
        // every single one must still be delivered, none abandoned.
        let mut ch: TopicChannel<u64> = TopicChannel::from_lowered(LoweredQos {
            deadline_ticks: 0,
            max_retries: budget,
            history_depth: 0,
            transient_local: false,
            lease_ticks: 0,
        });
        for i in 0..samples {
            ch.publish(0, i as u64);
        }
        let mut acked = Vec::new();
        for i in 0..samples {
            let failures = failure_words[i % failure_words.len()] % (budget + 1);
            for _ in 0..failures {
                let d = ch.take(1).expect("budgeted sample must survive");
                prop_assert!(ch.nack(d), "within budget, nack must requeue");
            }
            acked.push(ch.take(1).expect("sample outlives its failures").data);
        }
        prop_assert_eq!(acked, (0..samples as u64).collect::<Vec<_>>());
        prop_assert_eq!(ch.stats().retry_exhausted, 0);
        prop_assert_eq!(ch.stats().best_effort_drops, 0);
        prop_assert_eq!(ch.depth(), 0);
    }

    #[test]
    fn deadline_sheds_exactly_the_stale_prefix_oldest_first(
        deadline in 1u64..30,
        gaps in collection::vec(0u64..10, 1..40),
    ) {
        let mut ch: TopicChannel<u64> = TopicChannel::from_lowered(LoweredQos {
            deadline_ticks: deadline,
            max_retries: 0,
            history_depth: 0,
            transient_local: false,
            lease_ticks: 0,
        });
        let mut now = 0;
        let mut published = Vec::new();
        for (i, g) in gaps.iter().enumerate() {
            now += g;
            ch.publish(now, i as u64);
            published.push(now);
        }
        let survivors: Vec<u64> = core::iter::from_fn(|| ch.take(now)).map(|d| d.data).collect();
        // Exactly the samples within the deadline survive, in order —
        // shedding consumed precisely the stale prefix before them.
        let expected: Vec<u64> = published
            .iter()
            .enumerate()
            .filter(|&(_, &p)| now - p <= deadline)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(survivors, expected);
        prop_assert_eq!(
            ch.stats().shed_deadline + ch.stats().delivered,
            gaps.len() as u64
        );
    }

    #[test]
    fn bounded_history_keeps_exactly_the_newest(
        depth in 1usize..8,
        burst in 1usize..40,
    ) {
        let mut ch: TopicChannel<u64> = TopicChannel::from_lowered(LoweredQos {
            deadline_ticks: 0,
            max_retries: 0,
            history_depth: depth,
            transient_local: false,
            lease_ticks: 0,
        });
        for i in 0..burst {
            ch.publish(i as Tick, i as u64);
        }
        let kept: Vec<u64> =
            core::iter::from_fn(|| ch.take(burst as Tick)).map(|d| d.data).collect();
        // Eviction is oldest-first: the survivors are the newest
        // `depth` samples, still in publication order.
        let expected: Vec<u64> =
            (burst.saturating_sub(depth)..burst).map(|i| i as u64).collect();
        prop_assert_eq!(kept, expected);
        prop_assert_eq!(ch.stats().evicted, burst.saturating_sub(depth) as u64);
    }
}
