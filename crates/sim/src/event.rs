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
//! - [`EventQueue`] — a hierarchical timing wheel ([`LEVELS`] levels of
//!   [`SLOTS`] slots, [`LEVEL_BITS`] bits per level) with a calendar-queue
//!   overflow heap for events beyond the wheel horizon (far-future Weibull
//!   failures, distant contact windows). Push and pop are O(1) amortized,
//!   independent of the number of pending events — the property that keeps
//!   100k-satellite fleets at interactive speed.
//! - [`BinaryHeapQueue`] — the original `BinaryHeap<(tick, seq)>` queue,
//!   kept verbatim as the reference model for property tests and as the
//!   scheduler of the frozen [`crate::baseline`] kernel.
//!
//! # Why the wheel preserves pop order exactly
//!
//! Let `W` be the wheel time (the last tick popped from the wheel, never
//! decreasing). Three invariants, each enforced structurally:
//!
//! 1. **Past-tick pushes** (`tick < W`) go to the `due` heap. Every `due`
//!    tick is strictly below `W`, and every wheel/overflow tick is `>= W`,
//!    so draining `due` first is globally minimal and no same-tick FIFO
//!    interleaving between `due` and the wheel can exist.
//! 2. **Wheel placement** is by the highest differing bit group between
//!    `tick` and `W`: level `l` holds ticks whose bits above
//!    `LEVEL_BITS * (l + 1)` equal `W`'s. Cascades only run when every
//!    lower level is empty, and redistribute one slot's entries in push
//!    order into empty lower slots — so each slot's deque is always
//!    push-ordered and same-tick FIFO survives every cascade.
//! 3. **Overflow** holds ticks whose top `64 - WHEEL_BITS` bits differ
//!    from `W`'s; they are strictly later than everything in the wheel,
//!    and migrate a whole wheel-horizon block at a time in `(tick, seq)`
//!    order when the wheel drains.
//!
//! Wheel slots store only `(tick, event)` — no sequence number. The
//! sequence is implicit in slot order: pushes append in push order,
//! cascades replay a slot front to back, and an overflow migration drains
//! its *entire* horizon block in `(tick, seq)` order before any pop
//! returns, so a later wheel push at a migrated tick always lands behind
//! it. Only the `due` and `overflow` heaps, which genuinely reorder, carry
//! explicit sequence numbers.
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
    Capture {
        /// Index of the capturing satellite.
        sat: u32,
        /// The satellite's imaging-window phase at this event's tick,
        /// reduced mod the imaging period.
        phase: Tick,
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

/// Bits of tick resolved per wheel level. 10 bits (1024 slots) keeps the
/// dominant event class — capture reschedules a few hundred ticks ahead —
/// in level 0, where entries are popped straight out of their slot with
/// no cascade re-handling.
pub const LEVEL_BITS: u32 = 10;
/// Slots per wheel level.
pub const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels.
pub const LEVELS: usize = 4;
/// Total tick bits the wheel resolves; ticks differing from the wheel
/// time above this go to the overflow heap.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// `u64` words per per-level occupancy bitmap.
const SLOT_WORDS: usize = SLOTS / 64;

/// A scheduled entry inside a wheel slot: no sequence number (see the
/// module docs — slot order is push order).
type WheelEntry = (Tick, Event);

/// Entries per pooled slot chunk (896 B): a capture entry carries its
/// satellite's stream state, so entries are large, and most slots of a
/// small fleet hold a single entry. Dense slots of a large fleet follow
/// a chunk link every 16 entries, which costs far less than the cache
/// lines a mostly empty larger chunk would occupy.
const CHUNK: usize = 16;
/// End-of-list marker for chunk links.
const NIL: u32 = u32::MAX;
/// Filler for never-written chunk entries; never read back.
const VACANT: WheelEntry = (0, Event::Sample);

/// One wheel slot: a FIFO over a chain of pool chunks. Entries run from
/// `read` in chunk `head` to `write` (exclusive) in chunk `tail`; an
/// empty slot holds no chunk at all.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    read: u32,
    write: u32,
}

impl Slot {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        read: 0,
        write: 0,
    };
}

/// Fixed-size chunks shared by every wheel slot, recycled through a LIFO
/// free list threaded through `next`.
#[derive(Debug)]
struct ChunkPool {
    entries: Vec<[WheelEntry; CHUNK]>,
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
    fn push_back(&mut self, slot: &mut Slot, entry: WheelEntry) {
        if slot.head == NIL {
            let c = self.alloc();
            *slot = Slot {
                head: c,
                tail: c,
                read: 0,
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

    /// Removes and returns the front entry of a non-empty `slot`,
    /// releasing its head chunk once that is fully read.
    #[inline]
    fn pop_front(&mut self, slot: &mut Slot) -> WheelEntry {
        let entry = self.entries[slot.head as usize][slot.read as usize];
        slot.read += 1;
        if slot.head == slot.tail {
            if slot.read == slot.write {
                self.release(slot.head);
                *slot = Slot::EMPTY;
            }
        } else if slot.read == CHUNK as u32 {
            let next = self.next[slot.head as usize];
            self.release(slot.head);
            slot.head = next;
            slot.read = 0;
        }
        entry
    }

    /// Moves every entry of `slot` onto the end of `out` in FIFO order
    /// and releases its chunks, leaving the slot empty.
    fn drain_into(&mut self, slot: &mut Slot, out: &mut Vec<WheelEntry>) {
        let mut c = slot.head;
        let mut from = slot.read as usize;
        while c != NIL {
            let to = if c == slot.tail {
                slot.write as usize
            } else {
                CHUNK
            };
            out.extend_from_slice(&self.entries[c as usize][from..to]);
            let next = self.next[c as usize];
            self.release(c);
            c = next;
            from = 0;
        }
        *slot = Slot::EMPTY;
    }
}

/// Index of the first set bit at or after word `from` of a level's
/// occupancy bitmap, if any. Callers pass the word of the wheel time's
/// own slot: every occupied slot at a level is at or after it (wheel
/// entries never precede the wheel time within a block), so the scan
/// skips the permanently-empty prefix.
#[inline]
fn first_set_from(words: &[u64; SLOT_WORDS], from: usize) -> Option<usize> {
    for (w, &word) in words.iter().enumerate().skip(from) {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

/// A deterministic future-event list: hierarchical timing wheel with a
/// calendar-queue overflow level.
///
/// Same contract as [`BinaryHeapQueue`] — events pop in `(tick, push
/// order)` order — but `push`/`pop` are O(1) amortized regardless of how
/// many events are pending, instead of O(log n) heap sifts.
#[derive(Debug)]
pub struct EventQueue {
    /// `LEVELS * SLOTS` slots, indexed `level * SLOTS + slot`. Each slot
    /// stays in push order (see module docs).
    slots: Vec<Slot>,
    /// Chunk storage behind every slot.
    pool: ChunkPool,
    /// Per-level occupancy bitmaps; bit `s` set iff slot `s` is non-empty.
    occupied: [[u64; SLOT_WORDS]; LEVELS],
    /// Wheel time `W`: the last tick popped from the wheel (never
    /// decreases). All wheel/overflow entries have `tick >= W`.
    wheel_time: Tick,
    /// Entries pushed at ticks strictly below the wheel time. Strictly
    /// earlier than everything in the wheel, so always drained first.
    due: BinaryHeap<Reverse<(Tick, u64, EventEntry)>>,
    /// Entries beyond the wheel horizon, keyed `(tick, seq)`; migrated a
    /// whole horizon block at a time when the wheel drains.
    overflow: BinaryHeap<Reverse<(Tick, u64, EventEntry)>>,
    sequence: u64,
    len: usize,
    peak: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            slots: vec![Slot::EMPTY; LEVELS * SLOTS],
            pool: ChunkPool {
                entries: Vec::new(),
                next: Vec::new(),
                free: NIL,
            },
            occupied: [[0; SLOT_WORDS]; LEVELS],
            wheel_time: 0,
            due: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            sequence: 0,
            len: 0,
            peak: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `tick`. Events at equal ticks pop in push
    /// order (FIFO).
    pub fn push(&mut self, tick: Tick, event: Event) {
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        if tick < self.wheel_time {
            self.due
                .push(Reverse((tick, self.sequence, EventEntry(event))));
            self.sequence += 1;
        } else if (tick ^ self.wheel_time) >> WHEEL_BITS != 0 {
            self.overflow
                .push(Reverse((tick, self.sequence, EventEntry(event))));
            self.sequence += 1;
        } else {
            self.place(tick, event);
        }
    }

    /// Files an in-horizon `tick >= wheel_time` entry into its wheel
    /// level.
    #[inline]
    fn place(&mut self, tick: Tick, event: Event) {
        let diff = tick ^ self.wheel_time;
        debug_assert_eq!(diff >> WHEEL_BITS, 0, "place() past the horizon");
        // Highest differing LEVEL_BITS group picks the level; diff == 0
        // (tick == wheel time) lands in level 0.
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        let shift = LEVEL_BITS * level as u32;
        let slot = ((tick >> shift) & (SLOTS as u64 - 1)) as usize;
        self.pool
            .push_back(&mut self.slots[level * SLOTS + slot], (tick, event));
        self.occupied[level][slot >> 6] |= 1 << (slot & 63);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Tick, Event)> {
        if self.len == 0 {
            return None;
        }
        // Past-tick pushes are strictly earlier than the wheel (invariant
        // 1 in the module docs): drain them first.
        if let Some(Reverse((tick, _, EventEntry(e)))) = self.due.pop() {
            self.len -= 1;
            return Some((tick, e));
        }
        let slot = self
            .lowest_ready_slot()
            .expect("len > 0 with empty storage");
        let list = &mut self.slots[slot];
        let (tick, event) = self.pool.pop_front(list);
        if list.head == NIL {
            self.occupied[0][slot >> 6] &= !(1 << (slot & 63));
        }
        self.wheel_time = tick;
        self.len -= 1;
        Some((tick, event))
    }

    /// Drains every event at the earliest pending tick into `buf`
    /// (cleared first) in FIFO order, returning that tick. Level-0 slots
    /// hold exactly one tick each, so the drain copies the slot's chunks
    /// out front to back and returns them to the pool's free list, where
    /// the pushes made while handling the batch pick them up again. A
    /// push at the drained tick itself (a zero delay) starts a fresh
    /// chain in the now-empty slot and surfaces on the next call, behind
    /// the whole batch, as pop order requires. `buf` keeps its capacity,
    /// so once it and the pool have reached their peaks the drain
    /// allocates nothing. Past-tick (`due`) entries are rare and surfaced
    /// one at a time. Every entry carries the returned tick.
    ///
    /// `len` accounting is deferred: the caller must invoke
    /// [`EventQueue::consume_one`] once per drained event *before* any
    /// pushes that handling the event causes, so the pending-count
    /// trajectory — and therefore [`EventQueue::peak_len`] — is identical
    /// to a pop-one-at-a-time loop over the same schedule.
    ///
    /// Returns `None` (with `buf` empty) when no events are pending.
    pub fn pop_tick(&mut self, buf: &mut Vec<(Tick, Event)>) -> Option<Tick> {
        buf.clear();
        if self.len == 0 {
            return None;
        }
        if let Some(Reverse((tick, _, EventEntry(e)))) = self.due.pop() {
            buf.push((tick, e));
            return Some(tick);
        }
        let slot = self
            .lowest_ready_slot()
            .expect("len > 0 with empty storage");
        self.pool.drain_into(&mut self.slots[slot], buf);
        let tick = buf.first().expect("occupied slot is empty").0;
        self.occupied[0][slot >> 6] &= !(1 << (slot & 63));
        self.wheel_time = tick;
        Some(tick)
    }

    /// Retires one event previously drained by [`EventQueue::pop_tick`]
    /// from the pending count.
    pub fn consume_one(&mut self) {
        debug_assert!(self.len > 0, "consume without a drained event");
        self.len -= 1;
    }

    /// Ensures level 0 has an occupied slot — cascading higher levels or
    /// migrating an overflow block as needed — and returns its index, or
    /// `None` if the whole queue is empty.
    fn lowest_ready_slot(&mut self) -> Option<usize> {
        loop {
            // Level 0 slots hold exactly one tick each; the lowest
            // occupied slot is the minimum pending tick, and it is never
            // below the wheel time's own slot.
            let hint = (self.wheel_time as usize & (SLOTS - 1)) >> 6;
            if let Some(slot) = first_set_from(&self.occupied[0], hint) {
                return Some(slot);
            }
            if self.cascade() {
                continue;
            }
            // Wheel fully drained: migrate the next horizon block from
            // the overflow heap (in (tick, seq) order, preserving FIFO).
            let &Reverse((first, _, _)) = self.overflow.peek()?;
            self.wheel_time = first >> WHEEL_BITS << WHEEL_BITS;
            while let Some(&Reverse((tick, _, _))) = self.overflow.peek() {
                if tick >> WHEEL_BITS != first >> WHEEL_BITS {
                    break;
                }
                let Reverse((tick, _, EventEntry(e))) =
                    self.overflow.pop().expect("peeked entry vanished");
                self.place(tick, e);
            }
        }
    }

    /// Redistributes the lowest occupied slot of the lowest non-empty
    /// level into the (empty) levels below it. Returns false if the whole
    /// wheel is empty.
    fn cascade(&mut self) -> bool {
        for level in 1..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let hint = ((self.wheel_time >> shift) as usize & (SLOTS - 1)) >> 6;
            let Some(slot) = first_set_from(&self.occupied[level], hint) else {
                continue;
            };
            // Advance the wheel to the slot's base tick: upper bits kept,
            // this level's bits set to the slot index, lower bits zeroed.
            // Every entry in the slot is >= this base, and every lower
            // level is empty, so redistribution lands in fresh slots.
            let base =
                ((self.wheel_time >> (shift + LEVEL_BITS)) << LEVEL_BITS | slot as Tick) << shift;
            debug_assert!(base >= self.wheel_time);
            self.wheel_time = base;
            self.occupied[level][slot >> 6] &= !(1 << (slot & 63));
            // Replay the detached chain front to back, which preserves
            // push order. Each chunk is released as soon as it is read,
            // so the placements below reuse it straight away.
            let mut list = std::mem::replace(&mut self.slots[level * SLOTS + slot], Slot::EMPTY);
            while list.head != NIL {
                let (tick, event) = self.pool.pop_front(&mut list);
                debug_assert!(tick >= base && (tick ^ base) >> shift == 0);
                self.place(tick, event);
            }
            return true;
        }
        false
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events ever pending at once.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

/// The original binary-heap event queue, kept as the reference model for
/// the timing wheel's property tests and as the scheduler of the frozen
/// [`crate::baseline`] kernel the kernel-equality tests compare against.
/// Pop order is identical to [`EventQueue`]'s by construction:
/// strictly `(tick, sequence)`.
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

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        Event::Capture {
            sat,
            phase: u64::from(sat) * 7 + 1,
            rng: Rng64::stream(0x5eed, u64::from(sat)),
        }
    }

    #[test]
    fn events_pop_in_tick_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::IslDone);
        q.push(10, Event::ContactStart);
        q.push(20, Event::Sample);
        assert_eq!(q.pop(), Some((10, Event::ContactStart)));
        assert_eq!(q.pop(), Some((20, Event::Sample)));
        assert_eq!(q.pop(), Some((30, Event::IslDone)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_tick_events_pop_in_push_order() {
        let mut q = EventQueue::new();
        for sat in 0..100 {
            q.push(5, capture(sat));
        }
        for expected in 0..100 {
            assert_eq!(q.pop(), Some((5, capture(expected))));
        }
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(2, Event::Sample);
        q.push(1, Event::IslDone);
        assert_eq!(q.pop(), Some((1, Event::IslDone)));
        q.push(1, Event::ContactStart); // "past" tick still pops first
        assert_eq!(q.pop(), Some((1, Event::ContactStart)));
        assert_eq!(q.pop(), Some((2, Event::Sample)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        // Ticks beyond 2^30 from the wheel time exercise the overflow
        // heap and whole-block migration; mix in near-term events.
        let mut q = EventQueue::new();
        let far = 1u64 << 40;
        q.push(far + 3, Event::Sample);
        q.push(5, Event::IslDone);
        q.push(far + 3, Event::ContactStart); // same far tick: FIFO
        q.push(far, Event::DownlinkDone);
        q.push(2 * far, Event::StormStart);
        assert_eq!(q.pop(), Some((5, Event::IslDone)));
        assert_eq!(q.pop(), Some((far, Event::DownlinkDone)));
        assert_eq!(q.pop(), Some((far + 3, Event::Sample)));
        assert_eq!(q.pop(), Some((far + 3, Event::ContactStart)));
        assert_eq!(q.pop(), Some((2 * far, Event::StormStart)));
        assert!(q.is_empty());
    }

    #[test]
    fn cascades_across_level_boundaries_preserve_order() {
        // Pushes spanning every wheel level plus same-tick pairs at a
        // level boundary; pops must match the heap model exactly.
        let mut wheel = EventQueue::new();
        let mut model = BinaryHeapQueue::new();
        let ticks = [
            0u64,
            1,
            63,
            64,
            64, // same tick across a level-0 boundary
            65,
            4095,
            4096,
            1 << 18,
            (1 << 18) + 1,
            1 << 24,
            (1 << 29) + 12345,
            (1 << 30) + 7,
            (1 << 30) + 7,
        ];
        for (i, &t) in ticks.iter().enumerate() {
            wheel.push(t, capture(i as u32));
            model.push(t, capture(i as u32));
        }
        assert_eq!(wheel.len(), model.len());
        while let Some(expected) = model.pop() {
            assert_eq!(wheel.pop(), Some(expected));
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn interleaved_drain_and_refill_matches_the_heap_model() {
        // Deterministic pseudo-random interleaving: advance time by
        // popping, keep pushing relative offsets (including 0 = same
        // tick as the last pop, a "past-edge" push).
        let mut wheel = EventQueue::new();
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
            wheel.push(tick, capture(round));
            model.push(tick, capture(round));
            if state & 1 == 0 {
                let got = wheel.pop();
                assert_eq!(got, model.pop(), "round {round}");
                last = got.map_or(last, |(t, _)| t);
            }
        }
        while let Some(expected) = model.pop() {
            assert_eq!(wheel.pop(), Some(expected));
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn len_and_peak_track_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(10, Event::Sample);
        q.push(1 << 35, Event::Sample); // overflow entry counts too
        q.push(11, Event::IslDone);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak_len(), 3, "peak is a high-water mark");
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
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
        q.occupied
            .iter()
            .flatten()
            .map(|w| w.count_ones() as usize)
            .sum()
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
            let live = q.len().div_ceil(CHUNK) + occupied_slots(q);
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
            for &(_, event) in &buf {
                q.consume_one();
                // Ramp up to tick 20k, then let the load die out.
                let children = match tick {
                    0..=19_999 => 1 + draw(2),
                    _ => draw(2),
                };
                for _ in 0..children.min(30_000u64.saturating_sub(q.len() as u64)) {
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
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.pop(), Some((10, Event::ContactStart)));
        assert_eq!(q.pop(), Some((10, Event::Sample)));
        assert_eq!(q.pop(), Some((30, Event::IslDone)));
        assert_eq!(q.pop(), None);
    }
}
