//! The synthetic tasking stream, the bounded admission queue, and the
//! closed form of one block's admission.
//!
//! Requests are generated as a pure function of `(seed, block index)`
//! through [`sudc_par::rng::Rng64::stream`], so any block can be
//! materialized independently on any worker thread and the stream is
//! bit-identical at every `--jobs` count.

use std::collections::VecDeque;

use sudc_errors::{Diagnostics, SudcError};
use sudc_par::rng::Rng64;

use crate::config::APPS;

/// Scheduling class of a request, derived from its deadline.
///
/// Lower discriminant drains first; within a class the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Priority {
    /// Deadline under five minutes (disaster response, tip-and-cue).
    Urgent = 0,
    /// Deadline under an hour (routine monitoring).
    Standard = 1,
    /// Deadline measured in hours (archival, mosaics).
    Bulk = 2,
}

impl Priority {
    /// All classes, in drain order.
    pub const ALL: [Self; 3] = [Self::Urgent, Self::Standard, Self::Bulk];

    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Index into per-class tables.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One tasking request: "run application `app` over a capture of
/// `size_gbit` at (`lat_deg`, `lon_deg`), insight needed within
/// `deadline_s`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stream-unique id (position in the generated stream).
    pub id: u64,
    /// Capture latitude, degrees (positive north).
    pub lat_deg: f64,
    /// Capture longitude, degrees (positive east).
    pub lon_deg: f64,
    /// Index into the Table III workload suite, `0..APPS`.
    pub app: u8,
    /// Raw payload size, Gbit.
    pub size_gbit: f64,
    /// Freshness deadline from capture to delivered insight, seconds.
    pub deadline_s: f64,
    /// Scheduling class (derived from the deadline at generation).
    pub priority: Priority,
}

/// Parameters of the synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Total requests to generate.
    pub requests: u64,
    /// Stream seed; each block draws from `Rng64::stream(seed, block)`.
    pub seed: u64,
    /// Requests per generation block (the admission-queue and scoring
    /// granularity; also the `sudc-par` sharding unit).
    pub block: usize,
    /// Admission-queue capacity per block; when a block's arrivals exceed
    /// it, the globally oldest queued request is shed.
    pub queue_capacity: usize,
    /// Modeled arrival rate of the tasking stream, requests/second. Sets
    /// how much ground-segment downlink budget each block's time-span
    /// earns (see `RouterConfig::ground_capacity_gbit_per_s`).
    pub arrival_per_s: f64,
}

impl StreamConfig {
    /// A stream of `requests` tasking requests with the reference
    /// defaults: 4096-request blocks, an admission queue sized to the
    /// block, and the reference scenario's EO capture rate.
    #[must_use]
    pub fn new(requests: u64, seed: u64, arrival_per_s: f64) -> Self {
        Self {
            requests,
            seed,
            block: 4096,
            queue_capacity: 4096,
            arrival_per_s,
        }
    }

    /// Validates the stream parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] naming each violation.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("StreamConfig");
        d.positive_count("requests", self.requests);
        d.positive_count("block", self.block as u64);
        d.positive_count("queue_capacity", self.queue_capacity as u64);
        d.positive("arrival_per_s", self.arrival_per_s);
        d.finish()
    }

    /// Number of generation blocks.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.requests.div_ceil(self.block.max(1) as u64)
    }

    /// Length of block `b` (the last block may be short).
    #[must_use]
    pub fn block_len(&self, b: u64) -> usize {
        let start = b * self.block as u64;
        let end = (start + self.block as u64).min(self.requests);
        end.saturating_sub(start) as usize
    }

    /// Generates block `b` of the stream — a pure function of
    /// `(seed, b)`.
    #[must_use]
    pub fn generate_block(&self, b: u64) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.block_len(b));
        self.generate_block_into(b, &mut out);
        out
    }

    /// [`generate_block`](Self::generate_block) into a reused buffer:
    /// `out` is cleared and refilled with block `b`, so a worker routing
    /// many blocks allocates once.
    pub(crate) fn generate_block_into(&self, b: u64, out: &mut Vec<Request>) {
        let mut rng = Rng64::stream(self.seed, b);
        let start = b * self.block as u64;
        out.clear();
        // The closure owns the generator, so its state stays in registers
        // across the loop rather than round-tripping through memory.
        out.extend((0..self.block_len(b) as u64).map(move |i| draw_request(&mut rng, start + i)));
    }
}

/// Deadline class mix: a class-`c` request's deadline is
/// `DEADLINE_BASE_S[c] + u * DEADLINE_SPAN_S[c]` seconds for a uniform
/// `u`, indexed like [`Priority::ALL`].
const DEADLINE_BASE_S: [f64; Priority::COUNT] = [30.0, 300.0, 3600.0];
/// Width of each class's deadline range, seconds (see
/// [`DEADLINE_BASE_S`]).
const DEADLINE_SPAN_S: [f64; Priority::COUNT] = [270.0, 3300.0, 18_000.0];

/// Draws one request from the stream RNG. Draws are inlined
/// `lo + u*(hi-lo)` rather than `try_range` calls: this runs once per
/// generated request and must stay allocation-free, call-free and free
/// of data-dependent branches.
#[inline(always)]
fn draw_request(rng: &mut Rng64, id: u64) -> Request {
    // EO tasking concentrates in the imaging band.
    let lat_deg = -66.0 + rng.next_f64() * 132.0;
    let lon_deg = -180.0 + rng.next_f64() * 360.0;
    let app = rng.next_below(APPS as u64) as u8;
    // Payload from a quarter frame (chips) to a four-frame strip.
    let size_frames = 0.25 + rng.next_f64() * 3.75;
    // Deadline class mix: 20% urgent, 60% standard, 20% bulk, picked by
    // index rather than by branch.
    let u = rng.next_f64();
    let class = usize::from(u >= 0.2) + usize::from(u >= 0.8);
    let deadline_s = DEADLINE_BASE_S[class] + rng.next_f64() * DEADLINE_SPAN_S[class];
    Request {
        id,
        lat_deg,
        lon_deg,
        app,
        size_gbit: size_frames, // scaled to Gbit by the engine's image size
        deadline_s,
        priority: Priority::ALL[class],
    }
}

/// The closed form of an [`AdmissionQueue`] of `capacity` that takes
/// `pushes` pushes and then drains to empty, with no pop in between —
/// the engine's per-block admission.
///
/// A full queue sheds its globally oldest entry, so after a run of
/// pushes it holds exactly the newest `capacity` of them. The shed
/// victims are therefore pushes `0..shed`, in that order, with
/// `shed = pushes.saturating_sub(capacity)`; the drain pops the
/// survivors class by class, FIFO within a class, which is a stable
/// partition of `shed..pushes` by priority.
///
/// Returns `shed` and refills `drain` with the survivors' push indices
/// in pop order. `priority(k)` is the class of push `k`.
///
/// # Panics
///
/// Panics if `pushes` does not fit in a `u32` index.
pub fn admit_all(
    pushes: usize,
    capacity: usize,
    priority: impl Fn(usize) -> Priority,
    drain: &mut Vec<u32>,
) -> usize {
    assert!(
        u32::try_from(pushes).is_ok(),
        "{pushes} pushes overflow a u32 drain index"
    );
    let shed = pushes.saturating_sub(capacity);
    // Counting sort on the class: count the survivors per class, then
    // place each at the next free slot of its class's run.
    let mut next = [0usize; Priority::COUNT];
    for k in shed..pushes {
        next[priority(k).index()] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    drain.clear();
    drain.resize(pushes - shed, 0);
    for k in shed..pushes {
        let slot = &mut next[priority(k).index()];
        drain[*slot] = k as u32;
        *slot += 1;
    }
    shed
}

/// A bounded, priority-classed admission queue.
///
/// - [`push`](AdmissionQueue::push) enqueues at the back of the request's
///   class; when the queue is full, the **globally oldest** queued
///   request (smallest admission sequence across all classes) is shed to
///   make room and returned to the caller.
/// - [`pop`](AdmissionQueue::pop) drains the highest class first
///   (`Urgent` before `Standard` before `Bulk`), FIFO within a class.
///
/// All storage is preallocated at construction; steady-state operation
/// never allocates.
///
/// Kept without a non-test caller: the engine does not run this queue.
/// Within a block it only pushes and then drains, and [`admit_all`]
/// computes that outcome directly. The queue stays as the reference
/// model `admit_all` is tested against
/// (`tests/router_model.rs::closed_form_admission_is_the_queue_pushed_then_drained`),
/// and is itself held to a flat-scan model there.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    classes: [VecDeque<(u64, Request)>; Priority::COUNT],
    capacity: usize,
    len: usize,
    next_seq: u64,
    shed: u64,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` requests across all classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity");
        Self {
            classes: core::array::from_fn(|_| VecDeque::with_capacity(capacity)),
            capacity,
            len: 0,
            next_seq: 0,
            shed: 0,
        }
    }

    /// Enqueues `r`; if the queue was full, returns the shed victim (the
    /// globally oldest queued request).
    pub fn push(&mut self, r: Request) -> Option<Request> {
        let victim = if self.len == self.capacity {
            let oldest = self
                .classes
                .iter()
                .enumerate()
                .filter_map(|(c, q)| q.front().map(|&(seq, _)| (seq, c)))
                .min()
                .map(|(_, c)| c)
                .expect("full queue has a non-empty class");
            self.len -= 1;
            self.shed += 1;
            self.classes[oldest].pop_front().map(|(_, req)| req)
        } else {
            None
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.classes[r.priority.index()].push_back((seq, r));
        self.len += 1;
        victim
    }

    /// Dequeues the next request: highest class first, FIFO within.
    pub fn pop(&mut self) -> Option<Request> {
        for q in &mut self.classes {
            if let Some((_, r)) = q.pop_front() {
                self.len -= 1;
                return Some(r);
            }
        }
        None
    }

    /// Requests currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Requests shed since construction.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, priority: Priority) -> Request {
        Request {
            id,
            lat_deg: 0.0,
            lon_deg: 0.0,
            app: 0,
            size_gbit: 1.0,
            deadline_s: 100.0,
            priority,
        }
    }

    #[test]
    fn pops_by_class_then_fifo() {
        let mut q = AdmissionQueue::new(8);
        q.push(req(0, Priority::Bulk));
        q.push(req(1, Priority::Urgent));
        q.push(req(2, Priority::Standard));
        q.push(req(3, Priority::Urgent));
        let order: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|r| r.id).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn full_queue_sheds_globally_oldest() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.push(req(0, Priority::Urgent)).is_none());
        assert!(q.push(req(1, Priority::Bulk)).is_none());
        // Request 0 entered first; it is the global oldest even though it
        // has the highest priority.
        let victim = q.push(req(2, Priority::Standard)).expect("shed");
        assert_eq!(victim.id, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.shed_count(), 1);
    }

    #[test]
    fn stream_blocks_are_pure_functions_of_seed_and_index() {
        let s = StreamConfig::new(20_000, 7, 1.0);
        let a = s.generate_block(3);
        let b = s.generate_block(3);
        assert_eq!(a, b);
        assert_ne!(s.generate_block(2), a);
        // Ids are globally unique and contiguous.
        assert_eq!(a[0].id, 3 * 4096);
    }

    #[test]
    fn last_block_is_short() {
        let s = StreamConfig::new(5000, 1, 1.0);
        assert_eq!(s.blocks(), 2);
        assert_eq!(s.block_len(0), 4096);
        assert_eq!(s.block_len(1), 5000 - 4096);
        assert_eq!(s.generate_block(1).len(), 5000 - 4096);
    }

    #[test]
    fn stream_validation_catches_zeroes() {
        let mut s = StreamConfig::new(0, 1, 0.0);
        s.block = 0;
        s.queue_capacity = 0;
        let err = s.try_validate().unwrap_err();
        assert_eq!(err.violations().len(), 4);
    }
}
