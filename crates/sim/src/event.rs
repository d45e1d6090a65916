//! The discrete-event kernel's clock and event queue.
//!
//! Time is an integer tick count (`u64`); the physical length of a tick is
//! a [`crate::config::SimConfig`] concern, not the kernel's. Events are
//! keyed `(tick, sequence)`: events at the same tick pop in the order they
//! were pushed, so a run is a pure function of its configuration and seed —
//! no hash-map iteration order, no wall clock, no thread interleaving
//! anywhere in the hot loop.
//!
//! Two queue implementations share that contract:
//!
//! - [`EventQueue`] — a ring of 4 096 one-tick slots covering the window
//!   of ticks just after the ring time, with a keyed overflow heap for
//!   later events (far-future Weibull failures, distant contact windows).
//!   Push and the whole-tick drain are O(1) amortized per event,
//!   independent of the number of pending events — the property that
//!   keeps 100k-satellite fleets at interactive speed.
//! - [`BinaryHeapQueue`] — the original `BinaryHeap<(tick, seq)>` queue,
//!   kept verbatim as the reference model the ring is tested against.
//!
//! # Why the ring preserves pop order exactly
//!
//! Let `T` be the ring time: the last tick popped from the ring, never
//! decreasing. A push never lands behind it: the kernel schedules every
//! event at `now + delay` with `now == T` (saturating at `Tick::MAX`),
//! and a push at `tick < T` is a contract violation that panics. A push
//! at `tick` goes to one of two places:
//!
//! 1. **The window** (`T <= tick < T + RING`) goes to slot `tick % RING`,
//!    which holds that one tick. A slot appends in push order, so it pops
//!    same-tick entries FIFO.
//! 2. **Later ticks** go to the `overflow` heap, keyed `(tick, seq)`.
//!    Whenever `T` advances, the overflow entries the new window covers
//!    move into their slots in `(tick, seq)` order before the drain
//!    returns — before any handler can push directly at those ticks — so
//!    a direct push always lands behind the overflow entries pushed at its
//!    tick earlier. An empty ring jumps `T` to the overflow minimum.
//!
//! A slot entry therefore stores only the `Event`: its tick follows from
//! the slot and `T`, and its sequence number from its place in the slot.
//! Only the overflow heap, which genuinely reorders, carries explicit
//! ticks and sequence numbers.
//!
//! # Slot storage
//!
//! A slot is a singly linked list of fixed-size chunks (`CHUNK`, 16
//! entries each) drawn from one pool shared by every slot. Drained
//! chunks go back on the pool's LIFO free list, so the next push reuses
//! the chunk that was just read — still in cache — and the pool's size
//! tracks the peak number of *live* entries, not the sum of every slot's
//! own high-water mark. Once the pool has grown to that peak the steady
//! state allocates nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sudc_par::rng::Rng64;

/// Integer simulation time.
pub type Tick = u64;

/// Everything that can happen in the operations simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Satellite `sat`'s next frame-capture opportunity. A satellite
    /// always has exactly one pending capture, and only its own captures
    /// touch its arrival stream, so the event carries that state: the
    /// handler draws from `rng` and hands the advanced generator (and
    /// phase) on to the capture it schedules next.
    ///
    /// The phase is split into `phase_lo` and `phase_hi` so that, with
    /// `sat`, it fills the seven bytes after the enum tag that would
    /// otherwise be padding, and the event stays 40 bytes. Build one
    /// with [`Event::capture`] and read the phase back with
    /// [`capture_phase`].
    Capture {
        /// Low 16 bits of the satellite's imaging-window phase at this
        /// event's tick, reduced mod the imaging period (below
        /// [`MAX_IMAGING_PERIOD_TICKS`], so 24 bits hold it).
        phase_lo: u16,
        /// High 8 bits of that 24-bit phase.
        phase_hi: u8,
        /// Index of the capturing satellite.
        sat: u32,
        /// The satellite's arrival stream, positioned at this capture's
        /// first draw.
        rng: Rng64,
    },
    /// The ISL finishes transferring the image at the head of its queue.
    IslDone,
    /// The batch dispatcher re-checks the queue because the image enqueued
    /// at this event's scheduling time has reached its batching timeout.
    BatchTimeout,
    /// A compute node finishes the in-flight batch stored at `slot` in the
    /// kernel's batch table (events are `Copy`, so the per-image capture
    /// times live in the kernel, not the event).
    BatchDone {
        /// Kernel batch-table slot of the completed batch.
        slot: u32,
    },
    /// Powered compute node `node` fails.
    NodeFailure {
        /// Index of the failing node.
        node: u32,
    },
    /// A ground-contact window opens.
    ContactStart,
    /// The downlink finishes transmitting one insight product.
    DownlinkDone,
    /// Periodic metrics sampling point.
    Sample,
    /// Redundant ISL link `link` drops (fault injection only).
    IslLinkDown {
        /// Index of the flapping link.
        link: u32,
    },
    /// Redundant ISL link `link` recovers (fault injection only).
    IslLinkUp {
        /// Index of the recovering link.
        link: u32,
    },
    /// A solar-storm window opens: latch-up shocks hit powered nodes
    /// (fault injection only).
    StormStart,
    /// A corrupted image re-enters the batch queue after its backoff
    /// delay (fault injection only).
    Retry {
        /// Original capture tick of the retried image.
        capture: Tick,
        /// Reprocessing attempt number (1 = first retry).
        attempt: u32,
    },
    /// Health-plane lease boundary: powered nodes heartbeat, the failure
    /// detector scans for missed leases, and (in closed-loop mode) DEAD
    /// verdicts drive spare promotion (health plane only).
    HealthScan,
}

// The ring stores bare events, so their size is the per-satellite cost
// of a large fleet. rustc places `Capture`'s small fields in the padding
// after the tag; field order is a layout choice, not a guarantee, so this
// pins it.
const _: () = assert!(std::mem::size_of::<Event>() == 40);

/// The largest imaging period, in ticks, whose phases fit the 24 bits an
/// [`Event::Capture`] carries; [`crate::SimConfig::try_validate`] refuses
/// longer periods.
pub const MAX_IMAGING_PERIOD_TICKS: Tick = 1 << 24;

impl Event {
    /// The capture of satellite `sat` at imaging-window `phase`, which
    /// must be below [`MAX_IMAGING_PERIOD_TICKS`].
    #[inline(always)]
    #[must_use]
    pub fn capture(sat: u32, phase: Tick, rng: Rng64) -> Self {
        debug_assert!(phase < MAX_IMAGING_PERIOD_TICKS, "phase {phase}");
        Event::Capture {
            phase_lo: phase as u16,
            phase_hi: (phase >> 16) as u8,
            sat,
            rng,
        }
    }
}

/// The phase an [`Event::Capture`]'s `phase_lo` and `phase_hi` carry.
#[inline(always)]
#[must_use]
pub fn capture_phase(phase_lo: u16, phase_hi: u8) -> Tick {
    Tick::from(phase_hi) << 16 | Tick::from(phase_lo)
}

/// Wrapper ordering events only by their `(tick, sequence)` key; the
/// payload itself never influences ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventEntry(Event);

impl Ord for EventEntry {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One-tick slots in the ring: pushes less than this many ticks after the
/// ring time go straight into a slot. It covers the dominant event class —
/// capture reschedules a few hundred ticks ahead — and leaves about one
/// push in 10^4 to 10^6 of the stackbench workloads to the overflow heap;
/// 2 048 and 8 192 slots measured the same.
const RING: usize = 4096;
/// `u64` words in the occupancy bitmap.
const RING_WORDS: usize = RING / 64;

/// Entries per pooled slot chunk (640 B): a capture entry carries its
/// satellite's stream state, so entries are large, and most slots of a
/// small fleet hold a single entry. Dense slots of a large fleet follow
/// a chunk link every 16 entries, which costs far less than the cache
/// lines a mostly empty larger chunk would occupy.
const CHUNK: usize = 16;
/// End-of-list marker for chunk links.
const NIL: u32 = u32::MAX;
/// Filler for never-written chunk entries; never read back.
const VACANT: Event = Event::Sample;

/// One ring slot: a FIFO over a chain of pool chunks. Entries run from
/// the start of chunk `head` to `write` (exclusive) in chunk `tail`; a
/// slot drains whole, so no read cursor is needed. An empty slot holds
/// no chunk at all.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    write: u32,
}

impl Slot {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        write: 0,
    };
}

/// Fixed-size chunks shared by every ring slot, recycled through a LIFO
/// free list threaded through `next`.
#[derive(Debug)]
struct ChunkPool {
    entries: Vec<[Event; CHUNK]>,
    /// Link to the next chunk of the same slot (or free list); `NIL` ends
    /// a chain.
    next: Vec<u32>,
    free: u32,
}

impl ChunkPool {
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let c = self.free;
            self.free = self.next[c as usize];
            self.next[c as usize] = NIL;
            return c;
        }
        self.entries.push([VACANT; CHUNK]);
        self.next.push(NIL);
        (self.entries.len() - 1) as u32
    }

    fn release(&mut self, c: u32) {
        self.next[c as usize] = self.free;
        self.free = c;
    }

    /// Appends `entry` to `slot`, linking in a fresh chunk when the tail
    /// is full.
    #[inline]
    fn push_back(&mut self, slot: &mut Slot, entry: Event) {
        if slot.head == NIL {
            let c = self.alloc();
            *slot = Slot {
                head: c,
                tail: c,
                write: 0,
            };
        } else if slot.write == CHUNK as u32 {
            let c = self.alloc();
            self.next[slot.tail as usize] = c;
            slot.tail = c;
            slot.write = 0;
        }
        self.entries[slot.tail as usize][slot.write as usize] = entry;
        slot.write += 1;
    }

    /// Moves every entry of `slot` onto the end of `out` in FIFO order
    /// and releases its chunks, leaving the slot empty.
    fn drain_into(&mut self, slot: &mut Slot, out: &mut Vec<Event>) {
        let mut c = slot.head;
        while c != NIL {
            let to = if c == slot.tail {
                slot.write as usize
            } else {
                CHUNK
            };
            out.extend_from_slice(&self.entries[c as usize][..to]);
            let next = self.next[c as usize];
            self.release(c);
            c = next;
        }
        *slot = Slot::EMPTY;
    }
}

/// A deterministic future-event list: a ring of one-tick slots with a
/// keyed overflow heap for the ticks beyond it.
///
/// Same contract as [`BinaryHeapQueue`] — events come out in `(tick,
/// push order)` order — but `push` and the [`EventQueue::pop_tick`] drain
/// are O(1) amortized per event regardless of how many events are
/// pending, instead of O(log n) heap sifts. `pop_tick` with
/// [`EventQueue::consume_one`] is the only way out: the kernel drains a
/// whole tick at a time, and the tests hold that same path to the heap.
#[derive(Debug)]
pub struct EventQueue {
    /// `RING` slots; slot `t % RING` holds the entries at tick `t` for
    /// every `t` in the window `[time, time + RING)`, in push order.
    slots: Vec<Slot>,
    /// Chunk storage behind every slot.
    pool: ChunkPool,
    /// Occupancy bitmap; bit `s` set iff slot `s` is non-empty.
    occupied: [u64; RING_WORDS],
    /// Ring time `T`: the last tick popped from the ring (never
    /// decreases). All ring and overflow entries have `tick >= T`.
    time: Tick,
    /// Entries at `time + RING` or later, keyed `(tick, seq)`; each moves
    /// into its slot as soon as the window covers it.
    overflow: BinaryHeap<Reverse<(Tick, u64, EventEntry)>>,
    sequence: u64,
    len: usize,
    peak: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            slots: vec![Slot::EMPTY; RING],
            pool: ChunkPool {
                entries: Vec::new(),
                next: Vec::new(),
                free: NIL,
            },
            occupied: [0; RING_WORDS],
            time: 0,
            overflow: BinaryHeap::new(),
            sequence: 0,
            len: 0,
            peak: 0,
        }
    }
}

/// The ring slot that holds `tick`.
#[inline]
fn slot_of(tick: Tick) -> usize {
    (tick % RING as Tick) as usize
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `tick`. Events at equal ticks pop in push
    /// order (FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is behind the ring time (the last drained tick):
    /// such an event would pop out of tick order.
    pub fn push(&mut self, tick: Tick, event: Event) {
        assert!(tick >= self.time, "push behind the ring time");
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        if tick - self.time >= RING as Tick {
            self.overflow
                .push(Reverse((tick, self.sequence, EventEntry(event))));
            self.sequence += 1;
        } else {
            self.place(tick, event);
        }
    }

    /// Appends an in-window entry to its slot.
    #[inline]
    fn place(&mut self, tick: Tick, event: Event) {
        let slot = slot_of(tick);
        self.pool.push_back(&mut self.slots[slot], event);
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    /// Drains every event at the earliest pending tick into `buf`
    /// (cleared first) in FIFO order, returning that tick. A slot holds
    /// exactly one tick, so the drain copies the slot's chunks out front
    /// to back and returns them to the pool's free list, where the pushes
    /// made while handling the batch pick them up again. A push at the
    /// drained tick itself (a zero delay) starts a fresh chain in the
    /// now-empty slot and surfaces on the next call, behind the whole
    /// batch, as pop order requires. `buf` keeps its capacity, so once it
    /// and the pool have reached their peaks the drain allocates nothing.
    ///
    /// Pending-count accounting is deferred: the caller must invoke
    /// [`EventQueue::consume_one`] once per drained event *before* any
    /// pushes that handling the event causes, so the pending-count
    /// trajectory — and therefore [`EventQueue::peak_len`] — is identical
    /// to [`BinaryHeapQueue`]'s pop-one-at-a-time loop over the same
    /// schedule.
    ///
    /// Returns `None` (with `buf` empty) when no events are pending.
    pub fn pop_tick(&mut self, buf: &mut Vec<Event>) -> Option<Tick> {
        buf.clear();
        if self.len == 0 {
            return None;
        }
        let slot = self.advance();
        self.pool.drain_into(&mut self.slots[slot], buf);
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
        Some(self.time)
    }

    /// Retires one event previously drained by [`EventQueue::pop_tick`]
    /// from the pending count.
    pub fn consume_one(&mut self) {
        debug_assert!(self.len > 0, "consume without a drained event");
        self.len -= 1;
    }

    /// Moves the ring time to the earliest pending ring tick (an empty
    /// ring jumps to the overflow minimum), migrates every overflow entry
    /// the new window covers, and returns the slot of the new ring time.
    /// The caller has checked that something is pending.
    fn advance(&mut self) -> usize {
        self.time = match self.first_occupied() {
            Some(ahead) => self.time + ahead,
            None => {
                let Reverse((first, _, _)) =
                    self.overflow.peek().expect("len > 0 with empty storage");
                *first
            }
        };
        while let Some(&Reverse((tick, _, _))) = self.overflow.peek() {
            if tick - self.time >= RING as Tick {
                break;
            }
            let Reverse((tick, _, EventEntry(e))) =
                self.overflow.pop().expect("peeked entry vanished");
            self.place(tick, e);
        }
        slot_of(self.time)
    }

    /// Ticks from the ring time to the earliest occupied slot, if any.
    /// Slots run in tick order from the ring time's own slot round to
    /// the slot just before it, so the bitmap is scanned circularly from
    /// that slot's bit.
    #[inline]
    fn first_occupied(&self) -> Option<Tick> {
        let start = slot_of(self.time);
        let (word, bit) = (start >> 6, start & 63);
        let own = self.occupied[word] >> bit << bit;
        let found = if own != 0 {
            word * 64 + own.trailing_zeros() as usize
        } else {
            // Wrapping round to the start word again reads its low bits:
            // the window's far end.
            (1..=RING_WORDS).find_map(|k| {
                let w = (word + k) % RING_WORDS;
                let bits = self.occupied[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })?
        };
        Some(((found + RING - start) % RING) as Tick)
    }

    /// Largest number of events ever pending at once.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

/// The original binary-heap event queue. Pop order is identical to
/// [`EventQueue`]'s by construction: strictly `(tick, sequence)`.
///
/// Kept without a non-test caller: it is the reference model the ring's
/// drain is held to, in this module's tests and in the property test
/// `tests/event_queue_model.rs`, which reaches it through the facade
/// crate and so needs it public.
#[derive(Debug, Default)]
pub struct BinaryHeapQueue {
    heap: BinaryHeap<Reverse<(Tick, u64, EventEntry)>>,
    sequence: u64,
    peak: usize,
}

impl BinaryHeapQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `tick`. Events at equal ticks pop in push
    /// order (FIFO).
    pub fn push(&mut self, tick: Tick, event: Event) {
        self.heap
            .push(Reverse((tick, self.sequence, EventEntry(event))));
        self.sequence += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Tick, Event)> {
        self.heap
            .pop()
            .map(|Reverse((tick, _, EventEntry(e)))| (tick, e))
    }

    /// Largest number of events ever pending at once.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A capture whose carried stream state and phase differ for every
    /// `sat`, so a mixed-up entry cannot compare equal.
    fn capture(sat: u32) -> Event {
        Event::capture(
            sat,
            (u64::from(sat) * 7 + 1) % MAX_IMAGING_PERIOD_TICKS,
            Rng64::stream(0x5eed, u64::from(sat)),
        )
    }

    #[test]
    fn capture_round_trips_every_carried_phase_bit() {
        for phase in [0, 1, 1 << 16, MAX_IMAGING_PERIOD_TICKS - 1] {
            for sat in [0, u32::MAX] {
                let rng = Rng64::stream(7, u64::from(sat));
                let Event::Capture {
                    phase_lo,
                    phase_hi,
                    sat: got_sat,
                    rng: got_rng,
                } = Event::capture(sat, phase, rng)
                else {
                    panic!("Event::capture built another variant");
                };
                assert_eq!(capture_phase(phase_lo, phase_hi), phase);
                assert_eq!((got_sat, got_rng), (sat, rng));
            }
        }
    }

    /// Drains one tick the way the kernel does: `pop_tick`, then one
    /// `consume_one` per drained event.
    fn drain_tick(q: &mut EventQueue) -> Option<(Tick, Vec<Event>)> {
        let mut buf = Vec::new();
        let tick = q.pop_tick(&mut buf)?;
        for _ in &buf {
            q.consume_one();
        }
        Some((tick, buf))
    }

    /// Drains `q` to empty, tick by tick, as `(tick, event)` pairs.
    fn drain_all(q: &mut EventQueue) -> Vec<(Tick, Event)> {
        let mut out = Vec::new();
        while let Some((tick, events)) = drain_tick(q) {
            out.extend(events.into_iter().map(|e| (tick, e)));
        }
        out
    }

    /// Drains one tick from `ring` and checks it against as many pops of
    /// `model`; returns the drained tick.
    fn drain_tick_against(ring: &mut EventQueue, model: &mut BinaryHeapQueue) -> Option<Tick> {
        let Some((tick, events)) = drain_tick(ring) else {
            assert_eq!(model.pop(), None);
            return None;
        };
        for e in events {
            assert_eq!(model.pop(), Some((tick, e)));
        }
        Some(tick)
    }

    #[test]
    fn events_pop_in_tick_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::IslDone);
        q.push(10, Event::ContactStart);
        q.push(20, Event::Sample);
        assert_eq!(
            drain_all(&mut q),
            [
                (10, Event::ContactStart),
                (20, Event::Sample),
                (30, Event::IslDone)
            ]
        );
    }

    #[test]
    fn same_tick_events_pop_in_push_order() {
        let mut q = EventQueue::new();
        for sat in 0..100 {
            q.push(5, capture(sat));
        }
        assert_eq!(
            drain_tick(&mut q),
            Some((5, (0..100).map(capture).collect()))
        );
        assert_eq!(drain_tick(&mut q), None);
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(2, Event::Sample);
        q.push(1, Event::IslDone);
        assert_eq!(drain_tick(&mut q), Some((1, vec![Event::IslDone])));
        q.push(2, Event::DownlinkDone); // behind the earlier push at 2
        q.push(1, Event::ContactStart); // the drained tick: behind the batch
        assert_eq!(
            drain_all(&mut q),
            [
                (1, Event::ContactStart),
                (2, Event::Sample),
                (2, Event::DownlinkDone)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "push behind the ring time")]
    fn a_push_behind_the_ring_time_panics() {
        let mut q = EventQueue::new();
        q.push(5, Event::Sample);
        assert_eq!(drain_tick(&mut q), Some((5, vec![Event::Sample])));
        q.push(4, Event::IslDone);
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        // Ticks far beyond the ring's window exercise the overflow heap,
        // the jump of an empty ring and migration; mix in near-term
        // events.
        let mut q = EventQueue::new();
        let far = 1u64 << 40;
        q.push(far + 3, Event::Sample);
        q.push(5, Event::IslDone);
        q.push(far + 3, Event::ContactStart); // same far tick: FIFO
        q.push(far, Event::DownlinkDone);
        q.push(2 * far, Event::StormStart);
        assert_eq!(
            drain_all(&mut q),
            [
                (5, Event::IslDone),
                (far, Event::DownlinkDone),
                (far + 3, Event::Sample),
                (far + 3, Event::ContactStart),
                (2 * far, Event::StormStart)
            ]
        );
    }

    #[test]
    fn overflow_entries_pop_before_later_direct_pushes_at_their_tick() {
        // `t` lies beyond the window when the first capture is pushed, so
        // that one waits in the overflow heap; once the ring time moves to
        // 20 the window covers `t`, and the handler's push goes straight
        // into the slot. Push order must survive the drain.
        let t = RING as Tick + 10;
        let mut buf = Vec::new();
        let mut q = EventQueue::new();
        q.push(20, Event::Sample);
        q.push(t, capture(1));
        assert_eq!(q.pop_tick(&mut buf), Some(20));
        q.consume_one();
        q.push(t, capture(2));
        assert_eq!(q.pop_tick(&mut buf), Some(t));
        assert_eq!(buf, [capture(1), capture(2)]);
    }

    #[test]
    fn pushes_at_the_horizon_and_across_slot_zero_match_the_heap_model() {
        let h = RING as Tick;
        let mut ring = EventQueue::new();
        let mut model = BinaryHeapQueue::new();
        let mut serial = 0;
        let mut push = |ring: &mut EventQueue, model: &mut BinaryHeapQueue, tick: Tick| {
            ring.push(tick, capture(serial));
            model.push(tick, capture(serial));
            serial += 1;
        };
        // From ring time 0: the last tick in the window, the first past
        // it and the next, twice each.
        for t in [h - 1, h, h + 1, h - 1, h, h + 1] {
            push(&mut ring, &mut model, t);
        }
        // A run of consecutive ticks from the ring's last slots round
        // past slot 0.
        for t in h - 6..h + 6 {
            push(&mut ring, &mut model, t);
        }
        // Drain through h - 3: the ring time then sits in the ring's last
        // slots, so the window's far end lies in the slots before its
        // own, past slot 0.
        let now = h - 3;
        while drain_tick_against(&mut ring, &mut model).expect("pending") != now {}
        for t in [now + h - 1, now + h, now + h + 1, now + h - 1, now + h] {
            push(&mut ring, &mut model, t);
        }
        while drain_tick_against(&mut ring, &mut model).is_some() {}
        assert_eq!(ring.len, 0);
    }

    #[test]
    fn an_empty_ring_jumps_to_the_overflow_minimum() {
        let h = RING as Tick;
        let far = 5 * h + 17;
        let mut q = EventQueue::new();
        q.push(far + 2, capture(2));
        q.push(far, capture(0));
        q.push(far + h, capture(3)); // still past the window after the jump
        q.push(far, capture(1));
        let mut buf = Vec::new();
        assert_eq!(q.pop_tick(&mut buf), Some(far));
        assert_eq!(buf, [capture(0), capture(1)]);
        assert_eq!(q.time, far);
        assert_eq!(q.overflow.len(), 1, "only far + RING waits on");
        q.consume_one();
        q.consume_one();
        q.push(far + 2, capture(4)); // lands behind the migrated entry
        assert_eq!(
            drain_all(&mut q),
            [
                (far + 2, capture(2)),
                (far + 2, capture(4)),
                (far + h, capture(3))
            ]
        );
    }

    #[test]
    fn interleaved_drain_and_refill_matches_the_heap_model() {
        // Deterministic pseudo-random interleaving: advance time by
        // draining, keep pushing relative offsets (including 0 = same
        // tick as the last drain, the kernel's zero-delay push).
        let mut ring = EventQueue::new();
        let mut model = BinaryHeapQueue::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut last = 0u64;
        for round in 0..2000u32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let offset = match state >> 60 {
                0 => 0,
                1..=9 => state % 100,
                10..=13 => state % 10_000,
                14 => state % (1 << 22),
                _ => state % (1 << 34),
            };
            let tick = last + offset;
            ring.push(tick, capture(round));
            model.push(tick, capture(round));
            if state & 1 == 0 {
                last = drain_tick_against(&mut ring, &mut model).unwrap_or(last);
            }
        }
        while drain_tick_against(&mut ring, &mut model).is_some() {}
        assert_eq!(ring.len, 0);
        assert_eq!(ring.peak_len(), model.peak_len());
    }

    #[test]
    fn len_and_peak_track_pending_events() {
        let mut q = EventQueue::new();
        let mut buf = Vec::new();
        assert_eq!(q.len, 0);
        q.push(10, Event::Sample);
        q.push(1 << 35, Event::Sample); // overflow entry counts too
        q.push(11, Event::IslDone);
        assert_eq!(q.len, 3);
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.pop_tick(&mut buf), Some(10));
        assert_eq!(q.len, 3, "a drained event is pending until consumed");
        q.consume_one();
        assert_eq!(q.pop_tick(&mut buf), Some(11));
        q.consume_one();
        assert_eq!(q.len, 1);
        assert_eq!(q.peak_len(), 3, "peak is a high-water mark");
        assert_eq!(q.pop_tick(&mut buf), Some(1 << 35));
        q.consume_one();
        assert_eq!(q.len, 0);
        assert_eq!(q.pop_tick(&mut buf), None);
    }

    /// Chunks the pool has ever allocated: its high-water mark.
    fn pool_chunks(q: &EventQueue) -> usize {
        q.pool.entries.len()
    }

    /// Chunks currently linked into a slot (allocated, not on the free
    /// list).
    fn chunks_in_use(q: &EventQueue) -> usize {
        let mut free = 0;
        let mut c = q.pool.free;
        while c != NIL {
            free += 1;
            c = q.pool.next[c as usize];
        }
        pool_chunks(q) - free
    }

    fn occupied_slots(q: &EventQueue) -> usize {
        q.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn pool_never_outgrows_the_peak_live_load() {
        // Drive the kernel's path (`pop_tick`, then `consume_one` and the
        // handler's pushes per event) through a load that swells to a
        // peak and drains away again. Per-slot retained capacity would
        // hold every slot's own high-water mark; the shared pool may hold
        // only what the peak live load needs: one partly filled chunk
        // per occupied slot on top of the packed entries.
        let mut q = EventQueue::new();
        let mut buf = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut bound = 0;
        let mut check = |q: &EventQueue| {
            let live = q.len.div_ceil(CHUNK) + occupied_slots(q);
            assert!(chunks_in_use(q) <= live, "in use beyond the live load");
            bound = bound.max(live);
            assert!(pool_chunks(q) <= bound, "pool outgrew the peak live load");
        };
        for sat in 0..2_000 {
            q.push(1 + draw(3_000), capture(sat));
        }
        check(&q);
        while let Some(tick) = q.pop_tick(&mut buf) {
            check(&q);
            for &event in &buf {
                q.consume_one();
                // Ramp up to tick 20k, then let the load die out.
                let children = match tick {
                    0..=19_999 => 1 + draw(2),
                    _ => draw(2),
                };
                for _ in 0..children.min(30_000u64.saturating_sub(q.len as u64)) {
                    q.push(tick + 1 + draw(3_000), event);
                }
            }
            check(&q);
        }
        assert!(q.peak_len() > 20_000, "the load must actually swell");
        assert_eq!(chunks_in_use(&q), 0, "drained chunks go back to the pool");
    }

    #[test]
    fn heap_queue_keeps_the_original_contract() {
        let mut q = BinaryHeapQueue::new();
        q.push(30, Event::IslDone);
        q.push(10, Event::ContactStart);
        q.push(10, Event::Sample);
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.pop(), Some((10, Event::ContactStart)));
        assert_eq!(q.pop(), Some((10, Event::Sample)));
        assert_eq!(q.pop(), Some((30, Event::IslDone)));
        assert_eq!(q.pop(), None);
    }
}
