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
//!
//! The engine's tier choice is held to a brute-force scorer the same way:
//! on configurations whose tiers tie on cost (and sometimes on latency
//! too), every decision must match a tuple-compare scan that draws the
//! capacity budgets down in drain order.

use std::collections::HashSet;

use proptest::collection;
use proptest::prelude::*;
use space_udc::router::{
    admit_all, AdmissionQueue, Decision, Priority, Request, Router, RouterConfig, StreamConfig,
    Tier, TierTerms, Verdict, APPS,
};

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

/// Brute-force scoring of `stream` against `cfg`, without deferral
/// re-entry: per block, the shed victims in push order, then one decision
/// per survivor in drain order. Each request scans the four tiers and
/// keeps the least `(cost, latency, tier)` tuple among those that are
/// open and in time; a placement draws its tier's budget down before the
/// next request is scored.
fn reference_decisions(cfg: &RouterConfig, stream: &StreamConfig) -> Vec<Decision> {
    let mut decisions = Vec::new();
    let mut drain = Vec::new();
    for b in 0..stream.blocks() {
        let requests = stream.generate_block(b);
        let shed = admit_all(
            requests.len(),
            stream.queue_capacity,
            |k| requests[k].priority,
            &mut drain,
        );
        decisions.extend(requests[..shed].iter().map(|r| Decision {
            id: r.id,
            verdict: Verdict::Shed,
            latency_s: 0.0,
            cost_usd: 0.0,
        }));
        let span_s = requests.len() as f64 / stream.arrival_per_s;
        let mut ground_budget = cfg.ground_capacity_gbit_per_s * span_s;
        let mut sudc_budget = cfg.sudc_capacity_gbit_per_s * span_s * cfg.pool_fraction(b);
        for &k in &drain {
            let r = &requests[k as usize];
            let terms = &cfg.terms[r.app as usize];
            let wait = cfg.lat_wait_s[RouterConfig::lat_bin(r.lat_deg)];
            let size = r.size_gbit * cfg.image_gbit;
            let deadline = r.deadline_s;

            let mut best: Option<(f64, f64, usize)> = None; // (cost, latency, tier)
            let mut reachable_latency = f64::INFINITY;
            for (t, term) in terms.iter().enumerate() {
                let open = match Tier::from_index(t) {
                    Tier::Onboard => size <= cfg.onboard_max_gbit,
                    Tier::OrbitalSudc => size <= sudc_budget,
                    Tier::GroundEdge | Tier::Cloud => size <= ground_budget,
                };
                if !open {
                    continue;
                }
                let latency = term.fixed_s + term.per_gbit_s * size + term.wait_scale * wait;
                reachable_latency = reachable_latency.min(latency);
                if latency > deadline {
                    continue;
                }
                let cost = term.fixed_usd + term.per_gbit_usd * size;
                let better = match best {
                    None => true,
                    Some((bc, bl, bt)) => {
                        (cost, latency, t) < (bc, bl, bt) // cost, then latency, then tier order
                    }
                };
                if better {
                    best = Some((cost, latency, t));
                }
            }

            decisions.push(match best {
                Some((cost, latency, t)) => {
                    let tier = Tier::from_index(t);
                    match tier {
                        Tier::OrbitalSudc => sudc_budget -= size,
                        Tier::GroundEdge | Tier::Cloud => ground_budget -= size,
                        Tier::Onboard => {}
                    }
                    Decision {
                        id: r.id,
                        verdict: Verdict::Placed(tier),
                        latency_s: latency,
                        cost_usd: cost,
                    }
                }
                None => Decision {
                    id: r.id,
                    verdict: if reachable_latency <= deadline + cfg.defer_horizon_s {
                        Verdict::Deferred
                    } else {
                        Verdict::Rejected
                    },
                    latency_s: reachable_latency,
                    cost_usd: 0.0,
                },
            });
        }
    }
    decisions
}

/// Latency and cost coefficients for one application, built so tiers
/// tie: every tier shares one cost pair, and `latency_ties` picks between
/// one shared latency triple (`true`) and each tier drawing one of two
/// triples (`false`, so some tiers tie and others do not). `u` holds
/// uniforms in `[0, 1)`; `image_gbit` scales the per-Gbit terms to about
/// a frame's worth.
fn tied_terms(u: &[f64], latency_ties: bool, image_gbit: f64) -> [TierTerms; Tier::COUNT] {
    let latency = |v: &[f64]| (3000.0 * v[0], 1000.0 * v[1] / image_gbit, v[2]);
    let shared = latency(&u[0..3]);
    let other = latency(&u[3..6]);
    let (fixed_usd, per_gbit_usd) = (10.0 * u[6], 5.0 * u[7] / image_gbit);
    core::array::from_fn(|t| {
        let (fixed_s, per_gbit_s, wait_scale) = if latency_ties || u[8 + t] < 0.5 {
            shared
        } else {
            other
        };
        TierTerms {
            fixed_s,
            per_gbit_s,
            wait_scale,
            fixed_usd,
            per_gbit_usd,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(48))]

    #[test]
    fn tier_choice_matches_the_tuple_compare_on_cost_ties(
        uniforms in collection::vec(0.0..1.0f64, 12 * APPS..12 * APPS + 1),
        latency_tie_apps in 0u32..(1 << APPS),
        budgets in collection::vec(0.0..1.0f64, 3..4),
        requests in 1u64..3000,
        block in 64usize..1024,
        shed_some in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut cfg = RouterConfig::try_reference().expect("reference config");
        for (a, row) in cfg.terms.iter_mut().enumerate() {
            let tie = latency_tie_apps >> a & 1 == 1;
            *row = tied_terms(&uniforms[12 * a..12 * (a + 1)], tie, cfg.image_gbit);
        }
        // Budgets from nothing to about twice a block's demand (payloads
        // average about two frames), so capacity binds in some blocks and
        // not in others; the onboard cap runs from no frame to four.
        cfg.onboard_max_gbit = (4.0 * budgets[0] * cfg.image_gbit).max(1e-9);
        cfg.sudc_capacity_gbit_per_s = (4.0 * budgets[1] * cfg.image_gbit).max(1e-9);
        cfg.ground_capacity_gbit_per_s = (4.0 * budgets[2] * cfg.image_gbit).max(1e-9);
        let router = Router::try_new(cfg.clone()).expect("valid random config");

        let mut stream = StreamConfig::new(requests, seed, 1.0);
        stream.block = block;
        stream.queue_capacity = if shed_some == 1 { block - block / 4 } else { block };
        let got = router.route_stream(&stream).decisions;
        let want = reference_decisions(&cfg, &stream);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(
                g.id == w.id
                    && g.verdict == w.verdict
                    && g.latency_s.to_bits() == w.latency_s.to_bits()
                    && g.cost_usd.to_bits() == w.cost_usd.to_bits(),
                "engine {:?} != reference {:?}",
                g,
                w
            );
        }
    }

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
