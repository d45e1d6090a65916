//! Property tests holding the ring scheduler to the reference `BinaryHeap`
//! model.
//!
//! [`EventQueue`] (a ring of 4 096 one-tick slots after the ring time,
//! plus a keyed overflow heap for later ticks) and [`BinaryHeapQueue`]
//! (the original `BinaryHeap<Reverse<(tick, seq, event)>>`) implement
//! the same contract: pop in tick order, FIFO within a tick. The ring
//! accepts pushes at or after the last drained tick, which is every push
//! the kernel makes (`now + delay`, delay 0 included); one behind it
//! panics (a unit test in `event.rs` holds that). Random interleavings
//! of such pushes and drains must be observationally indistinguishable
//! between the two, event for event, at every step.
//! The ring has one way out, the kernel's whole-tick drain (`pop_tick`,
//! then `consume_one` and the handler's pushes per event), so that is
//! the path held to the model's pops. Its pending count is checked
//! through what it drives: `peak_len` after every operation, and
//! `pop_tick` returning `None` exactly when the model is empty.
//!
//! Every pushed capture carries its own stream state and phase, as the
//! kernel's captures do, so that equality also proves the carried state
//! comes back intact through overflow migration and `pop_tick` drains.
//!
//! Case counts honour `SUDC_PROPTEST_CASES` (see `.github/workflows/ci.yml`).

use proptest::collection;
use proptest::prelude::*;
use space_udc::par::rng::Rng64;
use space_udc::sim::event::MAX_IMAGING_PERIOD_TICKS;
use space_udc::sim::{BinaryHeapQueue, Event, EventQueue};

/// The ring's window in ticks: a push at least this far past the ring
/// time goes to the overflow heap.
const RING: u64 = 4096;

/// Capture number `serial`: a satellite id, phase and stream state that
/// no other serial shares. The phase is reduced to the 24 bits a capture
/// carries and, over the serials a case draws, sets all of them.
fn capture(serial: u32) -> Event {
    Event::capture(
        serial,
        u64::from(serial).wrapping_mul(0x9e37_79b9) % MAX_IMAGING_PERIOD_TICKS,
        Rng64::stream(0x5eed, u64::from(serial)),
    )
}

/// Replays one random op sequence against both queues, asserting
/// identical observable behavior after every operation. Each `u64` word
/// encodes one operation:
///
/// - `0..=2`: push inside the ring's window `[now, now + RING)`;
/// - `3`: push at exactly the previous push's tick or the last op-`4`
///   tick, if that is not behind `now` (same-tick FIFO; at the op-`4`
///   tick, across its migration from the overflow heap once a drain has
///   brought it into the window), else at `now`;
/// - `4`: push at the window's edge or past it, into the overflow heap:
///   at `now + RING - 1` (the last tick inside), `now + RING` or one
///   past it, up to four windows past the edge, or up to 2^40 ticks past
///   `now` (Weibull lifetimes, contact windows), past 2^32 in most draws;
/// - `5`: push at exactly `now`, the zero-delay push the kernel makes
///   (it lands behind the batch drained at `now`);
/// - `6..=8`: drain one tick the way the kernel does — `pop_tick`, then
///   per event `consume_one` and a model pop to compare. On op `8` the
///   handler also pushes: at the tick being drained, a little later, or
///   at the last op-`4` tick if that is not past. The drain's advance
///   may just have brought that tick into the window, so the handler's
///   direct push must pop behind the entry that waited in the overflow
///   heap;
/// - `9`: a same-tick burst of 65–200 events, longer than one slot
///   chunk, inside the window or up to 2^20 ticks past it.
fn replay(words: &[u64]) -> Result<(), TestCaseError> {
    let mut ring = EventQueue::new();
    let mut model = BinaryHeapQueue::new();
    let mut buf = Vec::new();
    // The latest tick drained so far, which is the ring time: no push
    // lands below it.
    let mut now = 0u64;
    let mut last_push = 0u64;
    let mut last_far = 0u64;
    let mut serial = 0u32;
    let mut push = |ring: &mut EventQueue, model: &mut BinaryHeapQueue, tick: u64| {
        ring.push(tick, capture(serial));
        model.push(tick, capture(serial));
        serial += 1;
    };
    for &w in words {
        match w % 10 {
            op @ (0..=5) => {
                let tick = match op {
                    0..=2 => now + (w >> 4) % RING,
                    3 if (w >> 4) & 1 == 0 => last_push.max(now),
                    3 => last_far.max(now),
                    4 => {
                        now + match (w >> 4) % 3 {
                            0 => RING - 1 + (w >> 8) % 3,
                            1 => RING + (w >> 8) % (4 * RING),
                            _ => (w >> 8) % (1u64 << 40),
                        }
                    }
                    _ => now,
                };
                last_push = tick;
                if op == 4 {
                    last_far = tick;
                }
                push(&mut ring, &mut model, tick);
            }
            op @ 6..=8 => {
                let Some(tick) = ring.pop_tick(&mut buf) else {
                    prop_assert_eq!(model.pop(), None);
                    continue;
                };
                now = now.max(tick);
                for (k, &event) in buf.iter().enumerate() {
                    ring.consume_one();
                    prop_assert_eq!(Some((tick, event)), model.pop());
                    if op != 8 {
                        continue;
                    }
                    // Handler pushes: none, one ahead, one at the tick
                    // being drained (it must pop after the batch), or one
                    // at the last far push's tick (it must pop after the
                    // entries pushed there earlier).
                    match (w >> 4).wrapping_add(k as u64) % 4 {
                        0 => {}
                        1 => push(&mut ring, &mut model, tick + (w >> 8) % 2048),
                        2 => push(&mut ring, &mut model, tick),
                        _ => push(&mut ring, &mut model, last_far.max(tick)),
                    }
                }
            }
            _ => {
                let tick = now + (w >> 12) % (RING + (1u64 << 20));
                for _ in 0..65 + (w >> 4) % 136 {
                    push(&mut ring, &mut model, tick);
                }
                last_push = tick;
            }
        }
        prop_assert_eq!(ring.peak_len(), model.peak_len());
    }
    // Drain what survives the interleaving: full global order check.
    while let Some(tick) = ring.pop_tick(&mut buf) {
        for &event in &buf {
            ring.consume_one();
            prop_assert_eq!(Some((tick, event)), model.pop());
        }
    }
    prop_assert_eq!(model.pop(), None);
    prop_assert_eq!(ring.peak_len(), model.peak_len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(48))]

    #[test]
    fn wheel_is_indistinguishable_from_the_heap_model(
        words in collection::vec(0u64..u64::MAX, 1..400),
    ) {
        replay(&words)?;
    }

    #[test]
    fn bursts_at_one_tick_pop_in_push_order(
        burst in 2u32..300,
        far in 0u64..(1u64 << 40),
        near in 0u32..2,
    ) {
        // Same-tick FIFO in isolation: a pure burst must come back in
        // exactly the order it went in, on both implementations, drained
        // by one `pop_tick` or popped one at a time. Bursts run past
        // several slot chunks. Half the ticks lie within two windows of
        // 0, in the ring or just past it; the rest lie up to 2^40 ticks
        // out, past 2^32 in almost every draw. A tick past the window
        // reaches the ring through the overflow heap and the jump of the
        // empty ring.
        let tick = if near == 1 { far % (2 * RING) } else { far };
        let mut drained = EventQueue::new();
        let mut model = BinaryHeapQueue::new();
        for sat in 0..burst {
            drained.push(tick, capture(sat));
            model.push(tick, capture(sat));
        }
        let mut buf = Vec::new();
        prop_assert_eq!(drained.pop_tick(&mut buf), Some(tick));
        prop_assert_eq!(buf.len(), burst as usize);
        for sat in 0..burst {
            let want = Some((tick, capture(sat)));
            prop_assert_eq!(Some((tick, buf[sat as usize])), want);
            prop_assert_eq!(model.pop(), want);
            drained.consume_one();
        }
        prop_assert_eq!(drained.pop_tick(&mut buf), None);
        prop_assert_eq!(model.pop(), None);
    }
}
