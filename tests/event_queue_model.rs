//! Property tests holding the timing-wheel scheduler to the reference
//! `BinaryHeap` model.
//!
//! [`EventQueue`] (hierarchical timing wheel + calendar overflow) and
//! [`BinaryHeapQueue`] (the original `BinaryHeap<Reverse<(tick, seq,
//! event)>>`) implement the same contract: pop in tick order, FIFO within
//! a tick, any push tick accepted — including ticks at or before the last
//! pop. Random interleavings of pushes and pops must be observationally
//! indistinguishable between the two, event for event, at every step —
//! through the single `pop` and through the kernel's whole-tick drain
//! (`pop_tick`, then `consume_one` and the handler's pushes per event).
//!
//! Every pushed capture carries its own stream state and phase, as the
//! kernel's captures do, so that equality also proves the carried state
//! comes back intact through the `due` heap, overflow migration, cascades
//! and `pop_tick` drains.

use proptest::collection;
use proptest::prelude::*;
use space_udc::par::rng::Rng64;
use space_udc::sim::{BinaryHeapQueue, Event, EventQueue};

/// Capture number `serial`: a satellite id, phase and stream state that
/// no other serial shares.
fn capture(serial: u32) -> Event {
    Event::Capture {
        sat: serial,
        phase: u64::from(serial).wrapping_mul(0x9e37_79b9),
        rng: Rng64::stream(0x5eed, u64::from(serial)),
    }
}

/// Replays one random op sequence against both queues, asserting
/// identical observable behavior after every operation. Each `u64` word
/// encodes one operation:
///
/// - `0..=2`: push a few thousand ticks ahead of the last pop;
/// - `3`: push at exactly the previous push's tick (same-tick FIFO);
/// - `4`: push far ahead — beyond the wheel's 2^30-tick horizon, into
///   the calendar overflow level (Weibull lifetimes, contact windows);
/// - `5`: push at or before the last popped tick (retry backoff of 0,
///   zero-duration transfers);
/// - `6..=7`: pop once from both queues and compare;
/// - `8`: drain one tick the way the kernel does — `pop_tick`, then per
///   event `consume_one`, a model pop to compare, and the pushes a
///   handler would make (same tick included);
/// - `9`: a same-tick burst of 65–200 events, longer than one slot
///   chunk, up to two wheel levels ahead so it also cascades.
fn replay(words: &[u64]) -> Result<(), TestCaseError> {
    let mut wheel = EventQueue::new();
    let mut model = BinaryHeapQueue::new();
    let mut buf = Vec::new();
    let mut last_pop = 0u64;
    let mut last_push = 0u64;
    let mut serial = 0u32;
    let mut push = |wheel: &mut EventQueue, model: &mut BinaryHeapQueue, tick: u64| {
        wheel.push(tick, capture(serial));
        model.push(tick, capture(serial));
        serial += 1;
    };
    for &w in words {
        match w % 10 {
            op @ (0..=5) => {
                let tick = match op {
                    0..=2 => last_pop + (w >> 4) % 4096,
                    3 => last_push,
                    4 => last_pop + (w >> 4) % (1u64 << 34),
                    _ => last_pop.saturating_sub((w >> 4) % 1024),
                };
                last_push = tick;
                push(&mut wheel, &mut model, tick);
            }
            6 | 7 => {
                let got = wheel.pop();
                let want = model.pop();
                prop_assert_eq!(&got, &want);
                if let Some((tick, _)) = got {
                    last_pop = tick;
                }
            }
            8 => {
                let Some(tick) = wheel.pop_tick(&mut buf) else {
                    prop_assert!(model.is_empty());
                    continue;
                };
                last_pop = tick;
                for (k, &entry) in buf.iter().enumerate() {
                    prop_assert_eq!(entry.0, tick);
                    wheel.consume_one();
                    prop_assert_eq!(Some(entry), model.pop());
                    prop_assert_eq!(wheel.len(), model.len());
                    // Handler pushes: none, one ahead, or one at the
                    // tick being drained (it must pop after the batch).
                    match (w >> 4).wrapping_add(k as u64) % 3 {
                        0 => {}
                        1 => push(&mut wheel, &mut model, tick + (w >> 8) % 2048),
                        _ => push(&mut wheel, &mut model, tick),
                    }
                }
            }
            _ => {
                let tick = last_pop + (w >> 12) % (1u64 << 20);
                for _ in 0..65 + (w >> 4) % 136 {
                    push(&mut wheel, &mut model, tick);
                }
                last_push = tick;
            }
        }
        prop_assert_eq!(wheel.len(), model.len());
        prop_assert_eq!(wheel.is_empty(), model.is_empty());
        prop_assert_eq!(wheel.peak_len(), model.peak_len());
    }
    // Drain what survives the interleaving: full global order check.
    while !model.is_empty() {
        prop_assert_eq!(wheel.pop(), model.pop());
    }
    prop_assert!(wheel.is_empty());
    prop_assert_eq!(wheel.pop(), None);
    prop_assert_eq!(wheel.peak_len(), model.peak_len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_is_indistinguishable_from_the_heap_model(
        words in collection::vec(0u64..u64::MAX, 1..400),
    ) {
        replay(&words)?;
    }

    #[test]
    fn bursts_at_one_tick_pop_in_push_order(
        burst in 2u32..300,
        tick in 0u64..(1u64 << 32),
    ) {
        // Same-tick FIFO in isolation: a pure burst must come back in
        // exactly the order it went in, on both implementations, popped
        // one at a time or drained by one `pop_tick`. Bursts run past
        // several slot chunks, and far ticks reach the wheel through the
        // overflow heap and a cascade per level.
        let mut wheel = EventQueue::new();
        let mut drained = EventQueue::new();
        let mut model = BinaryHeapQueue::new();
        for sat in 0..burst {
            wheel.push(tick, capture(sat));
            drained.push(tick, capture(sat));
            model.push(tick, capture(sat));
        }
        let mut buf = Vec::new();
        prop_assert_eq!(drained.pop_tick(&mut buf), Some(tick));
        prop_assert_eq!(buf.len(), burst as usize);
        for sat in 0..burst {
            let want = Some((tick, capture(sat)));
            prop_assert_eq!(wheel.pop(), want);
            prop_assert_eq!(Some(buf[sat as usize]), want);
            prop_assert_eq!(model.pop(), want);
            drained.consume_one();
        }
        prop_assert!(drained.is_empty());
        prop_assert_eq!(drained.pop_tick(&mut buf), None);
    }
}
