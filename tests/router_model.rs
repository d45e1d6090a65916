//! Property tests holding the router's [`AdmissionQueue`] to a
//! brute-force reference model.
//!
//! The queue contract the placement engine relies on:
//!
//! - pops drain the highest priority class first, FIFO within a class;
//! - occupancy never exceeds the configured capacity;
//! - a push into a full queue sheds exactly the **globally oldest**
//!   queued request (smallest admission sequence across all classes);
//! - no request is ever lost or duplicated — everything pushed comes
//!   back exactly once, as a pop or as a shed victim.
//!
//! The reference model is a flat `Vec` scanned per operation: obviously
//! correct, never fast. Random interleavings of pushes and pops must be
//! observationally indistinguishable between the two, request for
//! request, at every step.
//!
//! The queue is in turn the reference model for [`admit_all`], the
//! closed form the engine admits each block with: pushing a block (carried
//! deferrals first, then arrivals) and draining it to empty must shed and
//! pop exactly what `admit_all` computes.

use std::collections::HashSet;

use proptest::collection;
use proptest::prelude::*;
use space_udc::router::{admit_all, AdmissionQueue, Priority, Request};

fn req(id: u64, priority: Priority) -> Request {
    Request {
        id,
        lat_deg: 0.0,
        lon_deg: 0.0,
        app: 0,
        size_gbit: 1.0,
        deadline_s: 600.0,
        priority,
    }
}

/// Brute-force queue: a flat list of `(admission sequence, id, class)`
/// scanned linearly for every decision.
struct ModelQueue {
    entries: Vec<(u64, u64, Priority)>,
    capacity: usize,
    next_seq: u64,
    shed: u64,
}

impl ModelQueue {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            next_seq: 0,
            shed: 0,
        }
    }

    /// Enqueues; on overflow removes and returns the entry with the
    /// smallest admission sequence, regardless of class.
    fn push(&mut self, id: u64, priority: Priority) -> Option<u64> {
        let victim = if self.entries.len() == self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(seq, _, _))| seq)
                .map(|(i, _)| i)
                .expect("full queue is non-empty");
            self.shed += 1;
            Some(self.entries.remove(oldest).1)
        } else {
            None
        };
        self.entries.push((self.next_seq, id, priority));
        self.next_seq += 1;
        victim
    }

    /// Dequeues the entry minimizing `(class, admission sequence)`.
    fn pop(&mut self) -> Option<u64> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(seq, _, p))| (p.index(), seq))
            .map(|(i, _)| i)?;
        Some(self.entries.remove(best).1)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Replays one random op sequence against the real queue and the model,
/// asserting identical observable behavior after every operation. Each
/// `u64` word encodes one operation: `0..=1` pops, anything else pushes
/// with a class drawn from the next bits.
fn replay(words: &[u64], capacity: usize) -> Result<(), TestCaseError> {
    let mut q = AdmissionQueue::new(capacity);
    let mut model = ModelQueue::new(capacity);
    let mut next_id = 0u64;
    let mut pushed = 0u64;
    let mut returned = HashSet::new();
    for &w in words {
        match w % 8 {
            0 | 1 => {
                let got = q.pop().map(|r| r.id);
                prop_assert_eq!(got, model.pop());
                if let Some(id) = got {
                    prop_assert!(returned.insert(id), "request {} popped twice", id);
                }
            }
            _ => {
                let priority = Priority::ALL[((w >> 3) % 3) as usize];
                let victim = q.push(req(next_id, priority)).map(|r| r.id);
                prop_assert_eq!(victim, model.push(next_id, priority));
                if let Some(id) = victim {
                    prop_assert!(returned.insert(id), "request {} shed twice", id);
                }
                next_id += 1;
                pushed += 1;
            }
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert!(q.len() <= capacity, "occupancy above capacity");
        prop_assert_eq!(q.is_empty(), model.len() == 0);
        prop_assert_eq!(q.shed_count(), model.shed);
    }
    // Drain what survives the interleaving: full global order check, and
    // the conservation ledger must balance — every pushed id came back
    // exactly once (pop or shed), no inventions.
    loop {
        let got = q.pop().map(|r| r.id);
        prop_assert_eq!(got, model.pop());
        match got {
            Some(id) => {
                prop_assert!(returned.insert(id), "request {} popped twice", id);
            }
            None => break,
        }
    }
    prop_assert!(q.is_empty());
    prop_assert_eq!(returned.len() as u64, pushed);
    prop_assert!(returned.iter().all(|&id| id < next_id));
    Ok(())
}

/// Pushes `carry` then `arrivals` through a real queue and drains it,
/// and checks `admit_all` sheds and drains the same ids in the same order.
fn closed_form_matches_queue(
    carry: &[Request],
    arrivals: &[Request],
    capacity: usize,
) -> Result<(), TestCaseError> {
    let push = |k: usize| {
        if k < carry.len() {
            &carry[k]
        } else {
            &arrivals[k - carry.len()]
        }
    };
    let pushes = carry.len() + arrivals.len();

    let mut q = AdmissionQueue::new(capacity);
    let shed_by_queue: Vec<u64> = carry
        .iter()
        .chain(arrivals)
        .filter_map(|r| q.push(*r).map(|v| v.id))
        .collect();
    let drained_by_queue: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|r| r.id).collect();

    let mut drain = vec![7; 3]; // stale contents must be replaced
    let shed = admit_all(pushes, capacity, |k| push(k).priority, &mut drain);
    let shed_ids: Vec<u64> = (0..shed).map(|k| push(k).id).collect();
    let drained_ids: Vec<u64> = drain.iter().map(|&k| push(k as usize).id).collect();

    prop_assert_eq!(shed, pushes.saturating_sub(capacity));
    prop_assert_eq!(shed_ids, shed_by_queue);
    prop_assert_eq!(drained_ids, drained_by_queue);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closed_form_admission_is_the_queue_pushed_then_drained(
        classes in collection::vec(0usize..3, 1..96),
        carry_words in collection::vec(0usize..3, 0..48),
        mix in 0usize..4,
        capacity_mode in 0usize..3,
        delta in 0usize..12,
    ) {
        // `mix` 0..3 pins every push to one class; 3 keeps the drawn mix.
        let class = |c: usize| Priority::ALL[if mix < 3 { mix } else { c }];
        // Carried deferrals keep their ids from an earlier block.
        let carry: Vec<Request> = carry_words
            .iter()
            .enumerate()
            .map(|(i, &c)| req(1_000 + i as u64, class(c)))
            .collect();
        let arrivals: Vec<Request> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| req(i as u64, class(c)))
            .collect();
        let pushes = carry.len() + arrivals.len();
        let capacity = match capacity_mode {
            0 => pushes.saturating_sub(delta).max(1),
            1 => pushes,
            _ => pushes + delta,
        };
        closed_form_matches_queue(&carry, &arrivals, capacity)?;
    }

    #[test]
    fn queue_is_indistinguishable_from_the_flat_scan_model(
        words in collection::vec(0u64..u64::MAX, 1..400),
        capacity in 1usize..12,
    ) {
        replay(&words, capacity)?;
    }

    #[test]
    fn same_class_bursts_pop_in_push_order(
        burst in 2usize..64,
        class in 0usize..3,
    ) {
        // FIFO within one class in isolation: a pure burst must come
        // back in exactly the order it went in.
        let priority = Priority::ALL[class];
        let mut q = AdmissionQueue::new(burst);
        for id in 0..burst as u64 {
            prop_assert!(q.push(req(id, priority)).is_none());
        }
        let order: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|r| r.id).collect();
        prop_assert_eq!(order, (0..burst as u64).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_sheds_exactly_the_oldest_prefix(
        capacity in 1usize..16,
        overflow in 1usize..16,
    ) {
        // Same-class pushes past capacity shed the oldest ids in order:
        // ids 0..overflow are the victims, the newest `capacity` survive.
        let total = capacity + overflow;
        let mut q = AdmissionQueue::new(capacity);
        let mut victims = Vec::new();
        for id in 0..total as u64 {
            if let Some(v) = q.push(req(id, Priority::Standard)) {
                victims.push(v.id);
            }
        }
        prop_assert_eq!(&victims, &(0..overflow as u64).collect::<Vec<_>>());
        prop_assert_eq!(q.shed_count(), overflow as u64);
        let survivors: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|r| r.id).collect();
        prop_assert_eq!(
            survivors,
            (overflow as u64..total as u64).collect::<Vec<_>>()
        );
    }
}
