//! The single-run simulation kernel: one seeded, single-threaded,
//! deterministic pass over the event queue.
//!
//! The modeled pipeline follows the paper's operations story end to end:
//! EO satellites capture frames inside per-orbit imaging windows, edge
//! filtering discards a configured fraction on the capturing satellite,
//! survivors cross the ISL (a single FIFO server), a batch dispatcher
//! accumulates them toward the energy-optimal batch size (with a staleness
//! timeout), powered compute nodes serve whole batches, each processed
//! frame emits an insight product that waits for the next ground-contact
//! window, and a failure process retires powered nodes and promotes cold
//! spares that aged at the dormant rate while waiting.
//!
//! Determinism: the only randomness is [`Rng64`] streams keyed by
//! `(seed, entity)`; every state change happens inside the event loop;
//! events at equal ticks pop in push order. Two runs with the same
//! [`SimConfig`] and seed produce identical [`RunTrace`]s, bit for bit.
//!
//! # Hot-path layout
//!
//! The steady-state loop is allocation-free: per-entity state lives in
//! parallel arrays (struct-of-arrays — one contiguous `Vec` per field
//! instead of one struct per entity), in-flight batch capture buffers
//! come from a fixed-stride slab with a LIFO free list instead of a
//! heap-allocated `Vec` per batch, the downlink group buffer is reused
//! across transmissions, and deadline shedding pops expired work off the
//! queue front instead of scanning — falling back to a full scan only
//! while corruption retries (which re-enter out of capture order) are in
//! the queue. The frozen pre-rebuild kernel survives as
//! [`crate::baseline`] and must produce `==` traces; the equivalence
//! tests below hold the two kernels together.

use std::collections::VecDeque;

use sudc_bus::{BusLog, FaultKind, HealthEvent, Payload};
use sudc_health::{HealthController, LoweredHealth, ScanVerdict};
use sudc_par::rng::Rng64;
use sudc_reliability::weibull::WeibullLifetime;

use crate::config::SimConfig;
use crate::event::{Event, EventQueue, Tick};
use crate::metrics::RunTrace;
use crate::plane::{BusRun, SimBus};

/// Stream index base for per-satellite RNG streams (stream `sat`).
pub(crate) const SAT_STREAM_BASE: u64 = 0;
/// Stream index base for per-node lifetime streams.
pub(crate) const NODE_STREAM_BASE: u64 = 1_000_000;
/// Stream index base for per-ISL-link flap streams (fault injection).
pub(crate) const ISL_LINK_STREAM_BASE: u64 = 2_000_000;
/// Stream index for the shared fault stream (SEU corruption draws and
/// retry jitter, consumed in event order).
pub(crate) const FAULT_STREAM_BASE: u64 = 3_000_000;
/// Stream index for ground-contact blackout draws (one per window).
pub(crate) const BLACKOUT_STREAM_BASE: u64 = 3_500_000;
/// Stream index base for per-manufacturing-cohort infant-mortality draws.
pub(crate) const INFANT_STREAM_BASE: u64 = 4_000_000;
/// Stream index base for storm latch-up draws. Storm `s`, node `n` draws
/// from stream `BASE + s * STRIDE + n` — a pure function of the entity
/// pair, so one node's fate never depends on how many others are powered.
pub(crate) const STORM_KILL_STREAM_BASE: u64 = 5_000_000;
/// Stream stride between consecutive storms' kill-draw blocks.
pub(crate) const STORM_KILL_STREAM_STRIDE: u64 = 1_000_000;

/// Rounds a positive tick duration up, never below one tick.
pub(crate) fn duration_ticks(x: f64) -> Tick {
    debug_assert!(x >= 0.0);
    (x.ceil() as Tick).max(1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    PoweredAlive,
    Dead,
    Spare,
}

#[derive(Debug, Clone, Copy)]
struct QueuedImage {
    capture: Tick,
    enqueued: Tick,
    /// Reprocessing attempt (0 = first pass; fault injection only).
    attempt: u32,
}

/// Fixed-stride slab for in-flight batch capture buffers.
///
/// Slot `s` owns `capture[s*stride .. s*stride + len[s]]` (and the
/// parallel `attempt` range). Slots are recycled through a LIFO free
/// list with the same numbering the pre-rebuild `Vec<Option<Vec<_>>>`
/// produced — slot identity feeds `Event::BatchDone`, so the allocation
/// order is part of the deterministic schedule. After the first few
/// batches reach the concurrency high-water mark, dispatch allocates
/// nothing.
struct BatchSlab {
    stride: usize,
    capture: Vec<Tick>,
    attempt: Vec<u32>,
    len: Vec<u32>,
    free: Vec<u32>,
}

/// The kernel's half of the health plane: the deterministic failure
/// detector plus the ground-truth bookkeeping the sim alone can supply
/// (actual failure ticks, for detection-latency accounting). Pure
/// integer state machine — no RNG streams, so enabling it perturbs no
/// draw in the baseline schedule.
struct HealthPlane {
    controller: HealthController,
    lowered: LoweredHealth,
    /// Ground-truth failure tick per node (valid while the node is dead
    /// and undetected); drives the DEAD verdict's latency value.
    failed_at: Vec<Tick>,
    /// Reused verdict buffer for the per-lease scan.
    verdicts: Vec<ScanVerdict>,
}

impl BatchSlab {
    fn new(stride: usize) -> Self {
        Self {
            stride,
            capture: Vec::new(),
            attempt: Vec::new(),
            len: Vec::new(),
            free: Vec::new(),
        }
    }

    fn acquire(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.len.len() as u32;
        self.capture.resize(self.capture.len() + self.stride, 0);
        self.attempt.resize(self.attempt.len() + self.stride, 0);
        self.len.push(0);
        slot
    }
}

/// Runs one simulation to completion and returns its trace.
///
/// Every pipeline hop is published on the passthrough data-plane bus
/// (see [`crate::plane`]); the trace is the attached
/// [`crate::plane::TraceBuilder`]'s fold of that stream.
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::try_validate`].
#[must_use]
pub fn run(cfg: &SimConfig, seed: u64) -> RunTrace {
    run_on_bus(cfg, seed, false).trace
}

/// Runs one simulation with the data plane in the requested mode:
/// `record = false` is zero-overhead passthrough, `record = true`
/// additionally captures the full topic stream as a [`BusLog`].
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::try_validate`].
#[must_use]
pub fn run_on_bus(cfg: &SimConfig, seed: u64, record: bool) -> BusRun {
    if let Err(e) = cfg.try_validate() {
        panic!("{e}");
    }
    Kernel::new(cfg, seed, record).run()
}

/// Runs one simulation while recording its topic streams, returning the
/// trace and the binary log that [`crate::plane::replay`] re-drives to
/// an identical trace.
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::try_validate`].
#[must_use]
pub fn run_recorded(cfg: &SimConfig, seed: u64) -> (RunTrace, BusLog) {
    let run = run_on_bus(cfg, seed, true);
    (run.trace, run.log.expect("recording mode keeps a log"))
}

struct Kernel<'a> {
    cfg: &'a SimConfig,
    queue: EventQueue,
    now: Tick,
    seed: u64,

    // Arrival process (struct-of-arrays: index = satellite id).
    sat_rng: Vec<Rng64>,
    /// Satellite `s`'s imaging-window phase `(tick + offset_s) %
    /// imaging_period_ticks` *at its next pending capture event*,
    /// maintained incrementally (add the capture interval, reduce mod the
    /// period) so the hot path never divides. The value is exactly the
    /// modulo the pre-rebuild kernel computed per event.
    sat_phase: Vec<Tick>,
    /// Precomputed `imaging_duty * imaging_period_ticks` — the window-
    /// open comparison runs once per capture event.
    duty_window_ticks: f64,

    // ISL: single FIFO server; `isl_current` is the capture tick of the
    // image in transfer. Under fault injection the provisioned rate is
    // spread over `isl_links_total` redundant links and transfers slow to
    // `total / up` of nominal as links flap (re-routing over survivors);
    // with every link down new transfers stall in `isl_queue`.
    isl_busy: bool,
    isl_current: Tick,
    isl_queue: VecDeque<Tick>,
    isl_rngs: Vec<Rng64>,
    isl_links_total: u32,
    isl_links_up: u32,
    /// Precomputed all-links-up transfer duration (`degrade` is exactly
    /// 1.0 when every link is up, so the product is bit-identical).
    isl_nominal_ticks: Tick,

    // Batch dispatcher and compute pool. Queue entries carry
    // `(capture, attempt)` so corrupted work can re-enter with a retry
    // budget; in-flight buffers live in the slab.
    batch_queue: VecDeque<QueuedImage>,
    /// Queue entries with `attempt > 0`. Fresh images leave the FIFO ISL
    /// in capture order, so while this is zero, deadline-expired entries
    /// form a prefix and shedding pops instead of scanning.
    retried_in_queue: usize,
    slab: BatchSlab,
    busy_nodes: u32,

    // Fault processes (idle unless `cfg.faults` is set).
    fault_rng: Rng64,
    blackout_rng: Rng64,
    window_blacked_out: bool,
    storm_seq: u64,

    /// Closed-loop health plane (idle unless `cfg.health` is set). With
    /// the plane active, spare promotion moves from the failure event
    /// (an oracle with zero detection latency) to the detector's DEAD
    /// declaration — or, in monitor-only mode, nowhere at all.
    health: Option<HealthPlane>,

    // Node health (struct-of-arrays: index = node id; the spare pool is
    // a pair of parallel deques sharing one order).
    node_state: Vec<NodeState>,
    spare_id: VecDeque<u32>,
    spare_life: VecDeque<f64>,
    powered_alive: u32,

    // Downlink: single FIFO server active only inside contact windows.
    // Insights are far smaller than a tick's worth of link capacity, so
    // each transmission drains a *group*; `dl_group` holds the capture
    // ticks of the insights in flight and is reused across transmissions.
    dl_busy: bool,
    dl_group: Vec<Tick>,
    downlink_queue: VecDeque<Tick>,

    /// Data plane: every state change worth measuring is published here
    /// and folded into the `RunTrace` by the attached `TraceBuilder`.
    plane: SimBus,
}

impl<'a> Kernel<'a> {
    fn new(cfg: &'a SimConfig, seed: u64, record: bool) -> Self {
        let sat_rng = (0..cfg.satellites)
            .map(|s| Rng64::stream(seed, SAT_STREAM_BASE + u64::from(s)))
            .collect();
        // Imaging-window phase offsets: spread 0 aligns every window
        // (bursty shared ground-track pass), spread 1 staggers uniformly.
        let sat_phase = (0..cfg.satellites)
            .map(|s| {
                let frac = if cfg.satellites > 1 {
                    f64::from(s) / f64::from(cfg.satellites)
                } else {
                    0.0
                };
                (cfg.phase_spread * frac * cfg.imaging_period_ticks as f64).round() as Tick
            })
            .collect();
        let isl_links_total = cfg.faults.map_or(1, |f| f.isl_links());
        let isl_rngs = match cfg.faults.and_then(|f| f.isl) {
            Some(isl) => (0..isl.links)
                .map(|l| Rng64::stream(seed, ISL_LINK_STREAM_BASE + u64::from(l)))
                .collect(),
            None => Vec::new(),
        };
        let mut kernel = Self {
            cfg,
            queue: EventQueue::new(),
            now: 0,
            seed,
            sat_rng,
            sat_phase,
            duty_window_ticks: cfg.imaging_duty * cfg.imaging_period_ticks as f64,
            isl_busy: false,
            isl_current: 0,
            isl_queue: VecDeque::new(),
            isl_rngs,
            isl_links_total,
            isl_links_up: isl_links_total,
            isl_nominal_ticks: duration_ticks(cfg.isl_transfer_ticks),
            batch_queue: VecDeque::new(),
            retried_in_queue: 0,
            slab: BatchSlab::new(cfg.batch_target as usize),
            busy_nodes: 0,
            health: cfg.health.as_ref().map(|h| {
                let lowered = h
                    .try_lower(cfg.tick_seconds)
                    .expect("validated config lowers");
                HealthPlane {
                    controller: HealthController::new(cfg.nodes, cfg.required, lowered),
                    lowered,
                    failed_at: vec![0; cfg.nodes as usize],
                    verdicts: Vec::new(),
                }
            }),
            node_state: Vec::new(),
            spare_id: VecDeque::new(),
            spare_life: VecDeque::new(),
            powered_alive: 0,
            fault_rng: Rng64::stream(seed, FAULT_STREAM_BASE),
            blackout_rng: Rng64::stream(seed, BLACKOUT_STREAM_BASE),
            window_blacked_out: false,
            storm_seq: 0,
            dl_busy: false,
            dl_group: Vec::new(),
            downlink_queue: VecDeque::new(),
            plane: SimBus::new(cfg, record),
        };
        kernel.seed_initial_events(seed);
        kernel
    }

    fn seed_initial_events(&mut self, seed: u64) {
        for sat in 0..self.cfg.satellites {
            let dt = self.capture_interval(sat as usize);
            // `sat_phase` holds the window offset up to here; fold in the
            // first event tick so it becomes the phase at that event.
            self.sat_phase[sat as usize] =
                (dt + self.sat_phase[sat as usize]) % self.cfg.imaging_period_ticks;
            self.queue.push(dt, Event::Capture { sat });
        }

        // Node pool: the first `required` nodes power on, the rest wait as
        // cold spares in index order. Lifetimes are Weibull in MTTF units.
        // Under infant mortality a whole manufacturing cohort shares one
        // weak/healthy draw; weak nodes reuse the *same* per-node uniform
        // through the weak distribution, so the per-node stream consumes
        // identical draw counts either way.
        let lifetime = WeibullLifetime::try_with_unit_mean(self.cfg.weibull_shape)
            .expect("validated config: weibull_shape is positive and finite");
        let infant = self.cfg.faults.and_then(|f| f.infant);
        let weak_lifetime = infant.map(|i| {
            WeibullLifetime::try_with_unit_mean(i.weak_shape)
                .expect("validated config: infant weak_shape is positive and finite")
        });
        for node in 0..self.cfg.nodes {
            let life = if self.cfg.mttf_ticks.is_finite() {
                let mut rng = Rng64::stream(seed, NODE_STREAM_BASE + u64::from(node));
                let u = rng.next_f64();
                let weak = infant.is_some_and(|i| {
                    let cohort = u64::from(node / i.batch_size);
                    Rng64::stream(seed, INFANT_STREAM_BASE + cohort).next_f64() < i.weak_probability
                });
                let neg_log = -(1.0 - u).max(f64::MIN_POSITIVE).ln();
                match (weak, infant, weak_lifetime) {
                    (true, Some(i), Some(w)) => {
                        i.life_multiplier * w.scale * neg_log.powf(1.0 / w.shape)
                    }
                    _ => lifetime.scale * neg_log.powf(1.0 / lifetime.shape),
                }
            } else {
                f64::INFINITY
            };
            if node < self.cfg.required {
                self.node_state.push(NodeState::PoweredAlive);
                self.powered_alive += 1;
                if life.is_finite() {
                    self.queue.push(
                        duration_ticks(life * self.cfg.mttf_ticks),
                        Event::NodeFailure { node },
                    );
                }
            } else {
                self.node_state.push(NodeState::Spare);
                self.spare_id.push_back(node);
                self.spare_life.push_back(life);
            }
        }

        self.queue.push(0, Event::ContactStart);
        self.queue
            .push(self.cfg.sample_interval_ticks, Event::Sample);

        // Fault processes. No events are seeded (and no streams consumed)
        // with faults disabled, so the baseline schedule is untouched.
        if let Some(isl) = self.cfg.faults.and_then(|f| f.isl) {
            for link in 0..isl.links {
                let dt =
                    duration_ticks(self.isl_rngs[link as usize].next_exp() * isl.mean_up_ticks);
                self.queue.push(dt, Event::IslLinkDown { link });
            }
        }
        if let Some(storm) = self.cfg.faults.and_then(|f| f.storm) {
            self.queue.push(storm.offset_ticks, Event::StormStart);
        }

        // Health plane: the first lease boundary. Nothing is seeded with
        // the plane disabled, so the baseline schedule is untouched.
        if let Some(hp) = &self.health {
            self.queue.push(hp.lowered.lease_ticks, Event::HealthScan);
        }
    }

    fn run(mut self) -> BusRun {
        // Tick-batched event loop: every event of the current tick is
        // drained in FIFO order into one reused buffer, which lets the
        // loop warm an upcoming capture's RNG stream eight events ahead —
        // the per-satellite state is a random-access array far larger
        // than L2, and without the lookahead each miss serializes behind
        // the previous event's draw. Handler order, pushes, and the
        // pending-count trajectory (see `EventQueue::consume_one`) are
        // identical to the one-pop-at-a-time baseline loop.
        let mut batch: std::collections::VecDeque<(Tick, Event)> =
            std::collections::VecDeque::new();
        while let Some(tick) = self.queue.pop_tick(&mut batch) {
            if tick > self.cfg.duration_ticks {
                break;
            }
            // Time only advances between batches, so the time-weighted
            // integrals are settled once per tick with the pre-batch
            // state; per-event calls within the tick would see dt == 0
            // and integrate nothing (`Metrics::advance_to` early-outs).
            self.plane.publish(
                tick,
                Payload::Settle {
                    events: batch.len() as u64,
                    busy: self.busy_nodes,
                    batch_queue: self.batch_queue.len() as u64,
                    downlink_queue: self.downlink_queue.len() as u64,
                    full: self.powered_alive >= self.cfg.required,
                },
            );
            self.now = tick;
            for k in 0..batch.len() {
                if let Some(&(_, Event::Capture { sat })) = batch.get(k + 8) {
                    self.sat_rng[sat as usize].warm();
                    std::hint::black_box(self.sat_phase[sat as usize]);
                }
                self.queue.consume_one();
                match batch[k].1 {
                    Event::Capture { sat } => self.on_capture(sat),
                    Event::IslDone => self.on_isl_done(),
                    Event::BatchTimeout => self.try_dispatch(),
                    Event::BatchDone { slot } => self.on_batch_done(slot),
                    Event::NodeFailure { node } => self.on_node_failure(node),
                    Event::ContactStart => self.on_contact_start(),
                    Event::DownlinkDone => self.on_downlink_done(),
                    Event::Sample => self.on_sample(),
                    Event::IslLinkDown { link } => self.on_isl_link_down(link),
                    Event::IslLinkUp { link } => self.on_isl_link_up(link),
                    Event::StormStart => self.on_storm_start(),
                    Event::Retry { capture, attempt } => self.on_retry(capture, attempt),
                    Event::HealthScan => self.on_health_scan(),
                }
            }
        }
        self.plane.publish(
            self.cfg.duration_ticks,
            Payload::Finish {
                busy: self.busy_nodes,
                batch_queue: self.batch_queue.len() as u64,
                downlink_queue: self.downlink_queue.len() as u64,
                full: self.powered_alive >= self.cfg.required,
                peak_event_queue: self.queue.peak_len() as u64,
            },
        );
        self.plane.into_run()
    }

    /// Ticks until satellite `sat`'s next capture opportunity (Poisson
    /// process at the imaging-mode frame rate; thinned to the window by
    /// the caller).
    fn capture_interval(&mut self, sat: usize) -> Tick {
        let draw = self.sat_rng[sat].next_exp() * self.cfg.frame_interval_ticks;
        duration_ticks(draw)
    }

    /// `(phase + dt) % period` for a `phase` already reduced mod
    /// `period`: capture intervals rarely span more than one period, so
    /// one compare-and-subtract usually replaces the division.
    #[inline]
    fn advance_phase(phase: Tick, dt: Tick, period: Tick) -> Tick {
        let mut p = phase + dt;
        if p >= period {
            p -= period;
            if p >= period {
                p %= period;
            }
        }
        p
    }

    fn on_capture(&mut self, sat: u32) {
        let s = sat as usize;
        let phase = self.sat_phase[s];
        if (phase as f64) < self.duty_window_ticks {
            let filtered = self.sat_rng[s].next_f64() < self.cfg.filtering;
            self.plane
                .publish(self.now, Payload::Capture { sat, filtered });
            if !filtered {
                self.offer_to_isl(self.now);
            }
        }
        let dt = self.capture_interval(s);
        self.sat_phase[s] = Self::advance_phase(phase, dt, self.cfg.imaging_period_ticks);
        self.queue.push(self.now + dt, Event::Capture { sat });
    }

    /// Transfer time for one image at the current link state: nominal
    /// spread over `total` links slows to `total / up` as links flap
    /// (work re-routes over the survivors). 1× with faults disabled.
    fn isl_transfer_duration(&self) -> Tick {
        if self.isl_links_up == self.isl_links_total {
            return self.isl_nominal_ticks;
        }
        let degrade = f64::from(self.isl_links_total) / f64::from(self.isl_links_up.max(1));
        duration_ticks(self.cfg.isl_transfer_ticks * degrade)
    }

    fn start_isl_transfer(&mut self, capture: Tick) {
        self.isl_busy = true;
        self.isl_current = capture;
        self.queue
            .push(self.now + self.isl_transfer_duration(), Event::IslDone);
    }

    fn offer_to_isl(&mut self, capture: Tick) {
        if self.isl_busy || self.isl_links_up == 0 {
            self.isl_queue.push_back(capture);
        } else {
            self.start_isl_transfer(capture);
        }
    }

    fn on_isl_done(&mut self) {
        let capture = self.isl_current;
        self.enqueue_for_batch(capture, 0);
        match self.isl_queue.pop_front() {
            Some(next) if self.isl_links_up > 0 => self.start_isl_transfer(next),
            Some(next) => {
                // Every link is down: the in-flight transfer completed but
                // the next one stalls until a link recovers.
                self.isl_queue.push_front(next);
                self.isl_busy = false;
            }
            None => self.isl_busy = false,
        }
        self.try_dispatch();
    }

    /// Adds an image to the batch queue (fresh from the ISL at `attempt`
    /// 0, or re-entering after a corruption retry), enforcing the bounded-
    /// queue shedding policy and arming the staleness timeout.
    fn enqueue_for_batch(&mut self, capture: Tick, attempt: u32) {
        self.batch_queue.push_back(QueuedImage {
            capture,
            enqueued: self.now,
            attempt,
        });
        if attempt > 0 {
            self.retried_in_queue += 1;
        }
        if let Some(f) = &self.cfg.faults {
            let limit = f.policy.batch_queue_limit;
            if limit > 0 {
                while self.batch_queue.len() > limit {
                    // Shed the oldest first: fresh imagery outranks stale.
                    if let Some(img) = self.batch_queue.pop_front() {
                        if img.attempt > 0 {
                            self.retried_in_queue -= 1;
                        }
                        self.plane.publish(
                            self.now,
                            Payload::Fault {
                                kind: FaultKind::BatchOverflow,
                                count: 1,
                            },
                        );
                    }
                }
            }
        }
        self.plane.publish(
            self.now,
            Payload::QueueDepth {
                downlink: false,
                len: self.batch_queue.len() as u64,
            },
        );
        self.queue
            .push(self.now + self.cfg.batch_timeout_ticks, Event::BatchTimeout);
    }

    fn on_retry(&mut self, capture: Tick, attempt: u32) {
        self.enqueue_for_batch(capture, attempt);
        self.try_dispatch();
    }

    /// Active compute concurrency: powered healthy nodes, capped by the
    /// power budget.
    fn capacity(&self) -> u32 {
        self.powered_alive.min(self.cfg.required)
    }

    /// Drops queued images that have outlived the freshness deadline
    /// (no-op with faults disabled or `deadline_ticks` 0).
    ///
    /// Fresh images leave the FIFO ISL in capture order, so with no
    /// retries in the queue expired entries form a prefix and this pops
    /// from the front — O(shed), not O(queue). Retries re-enter with old
    /// capture ticks and break the monotonic order, so while any are
    /// queued the original full scan runs instead; both paths shed
    /// exactly the entries whose age exceeds the deadline.
    fn shed_expired(&mut self) {
        let Some(f) = self.cfg.faults else { return };
        let policy = f.policy;
        if !policy.has_deadline() {
            return;
        }
        let now = self.now;
        let shed = if self.retried_in_queue == 0 {
            let mut shed = 0u64;
            while self
                .batch_queue
                .front()
                .is_some_and(|img| policy.deadline_expired(img.capture, now))
            {
                self.batch_queue.pop_front();
                shed += 1;
            }
            shed
        } else {
            let before = self.batch_queue.len();
            let mut retried_shed = 0usize;
            self.batch_queue.retain(|img| {
                let keep = !policy.deadline_expired(img.capture, now);
                if !keep && img.attempt > 0 {
                    retried_shed += 1;
                }
                keep
            });
            self.retried_in_queue -= retried_shed;
            (before - self.batch_queue.len()) as u64
        };
        if shed > 0 {
            self.plane.publish(
                self.now,
                Payload::Fault {
                    kind: FaultKind::DeadlineShed,
                    count: shed,
                },
            );
        }
    }

    fn try_dispatch(&mut self) {
        loop {
            self.shed_expired();
            if self.busy_nodes >= self.capacity() || self.batch_queue.is_empty() {
                return;
            }
            let full = self.batch_queue.len() >= self.cfg.batch_target as usize;
            let stale = self
                .batch_queue
                .front()
                .is_some_and(|img| img.enqueued + self.cfg.batch_timeout_ticks <= self.now);
            if !full && !stale {
                return;
            }
            let size = self.batch_queue.len().min(self.cfg.batch_target as usize);
            self.plane.publish(
                self.now,
                Payload::BatchDispatched {
                    size: size as u64,
                    timeout: !full,
                },
            );
            let slot = self.slab.acquire();
            let base = slot as usize * self.slab.stride;
            for i in 0..size {
                let img = self.batch_queue.pop_front().expect("sized drain");
                if img.attempt > 0 {
                    self.retried_in_queue -= 1;
                }
                self.slab.capture[base + i] = img.capture;
                self.slab.attempt[base + i] = img.attempt;
            }
            self.slab.len[slot as usize] = size as u32;
            let service = duration_ticks(size as f64 * self.cfg.service_ticks_per_image);
            self.queue
                .push(self.now + service, Event::BatchDone { slot });
            self.busy_nodes += 1;
        }
    }

    /// Whether an SEU corrupts one image finishing now. Consumes a fault-
    /// stream draw only when the effective upset probability is non-zero.
    fn image_corrupted(&mut self) -> bool {
        let Some(f) = self.cfg.faults else {
            return false;
        };
        let p = f.upset_probability_at(self.now);
        p > 0.0 && self.fault_rng.next_f64() < p
    }

    /// Bounded retry with exponential backoff + jitter: schedules a
    /// reprocessing attempt, or abandons the image once the budget is
    /// spent.
    fn handle_corruption(&mut self, capture: Tick, attempt: u32) {
        self.plane.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::Corrupted,
                count: 1,
            },
        );
        let Some(f) = self.cfg.faults else { return };
        if attempt >= f.policy.max_retries {
            self.plane.publish(
                self.now,
                Payload::Fault {
                    kind: FaultKind::RetryExhausted,
                    count: 1,
                },
            );
            return;
        }
        let next = attempt + 1;
        let mut delay = f.backoff_ticks(next);
        if f.policy.backoff_jitter_ticks > 0 {
            delay += self.fault_rng.next_u64() % (f.policy.backoff_jitter_ticks + 1);
        }
        self.plane.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::Retry,
                count: 1,
            },
        );
        self.queue.push(
            self.now + delay,
            Event::Retry {
                capture,
                attempt: next,
            },
        );
    }

    fn shed_downlink_overflow(&mut self) {
        let Some(f) = self.cfg.faults else { return };
        let limit = f.policy.downlink_queue_limit;
        if limit == 0 {
            return;
        }
        let mut shed = 0u64;
        while self.downlink_queue.len() > limit {
            self.downlink_queue.pop_front();
            shed += 1;
        }
        if shed > 0 {
            self.plane.publish(
                self.now,
                Payload::Fault {
                    kind: FaultKind::DownlinkOverflow,
                    count: shed,
                },
            );
        }
    }

    fn on_batch_done(&mut self, slot: u32) {
        let base = slot as usize * self.slab.stride;
        let n = self.slab.len[slot as usize] as usize;
        debug_assert!(n > 0, "BatchDone for an empty slot");
        self.slab.len[slot as usize] = 0;
        self.slab.free.push(slot);
        self.busy_nodes -= 1;
        for i in 0..n {
            let capture = self.slab.capture[base + i];
            let attempt = self.slab.attempt[base + i];
            if self.image_corrupted() {
                self.handle_corruption(capture, attempt);
                continue;
            }
            self.plane.publish(self.now, Payload::Processed { capture });
            self.downlink_queue.push_back(capture);
        }
        self.shed_downlink_overflow();
        self.plane.publish(
            self.now,
            Payload::QueueDepth {
                downlink: true,
                len: self.downlink_queue.len() as u64,
            },
        );
        self.try_downlink();
        self.try_dispatch();
    }

    fn in_contact(&self, tick: Tick) -> bool {
        tick % self.cfg.contact_gap_ticks < self.cfg.contact_window_ticks
    }

    /// Ticks of contact remaining at `tick` (0 outside a window).
    fn contact_remaining(&self, tick: Tick) -> Tick {
        let into = tick % self.cfg.contact_gap_ticks;
        self.cfg.contact_window_ticks.saturating_sub(into)
    }

    fn on_contact_start(&mut self) {
        self.queue
            .push(self.now + self.cfg.contact_gap_ticks, Event::ContactStart);
        if let Some(g) = self.cfg.faults.and_then(|f| f.ground) {
            self.window_blacked_out = self.blackout_rng.next_f64() < g.blackout_probability;
            if self.window_blacked_out {
                self.plane.publish(
                    self.now,
                    Payload::Fault {
                        kind: FaultKind::Blackout,
                        count: 1,
                    },
                );
            }
        }
        self.try_downlink();
    }

    fn try_downlink(&mut self) {
        if self.dl_busy
            || self.downlink_queue.is_empty()
            || !self.in_contact(self.now)
            || self.window_blacked_out
        {
            return;
        }
        // A transmission must finish inside the current window; whatever
        // does not fit waits for the next pass. Insights are tiny relative
        // to per-tick link capacity, so one transmission drains as many as
        // the remaining window holds.
        let per_insight = self.cfg.downlink_transfer_ticks;
        let remaining = self.contact_remaining(self.now) as f64;
        let fit = if per_insight > 0.0 {
            (remaining / per_insight).floor() as usize
        } else {
            usize::MAX
        };
        let count = self.downlink_queue.len().min(fit);
        if count == 0 {
            return;
        }
        self.dl_group.extend(self.downlink_queue.drain(..count));
        self.dl_busy = true;
        let transfer = duration_ticks(count as f64 * per_insight);
        self.queue.push(self.now + transfer, Event::DownlinkDone);
    }

    fn on_downlink_done(&mut self) {
        for i in 0..self.dl_group.len() {
            let capture = self.dl_group[i];
            self.plane.publish(self.now, Payload::Delivered { capture });
        }
        self.dl_group.clear();
        self.dl_busy = false;
        self.try_downlink();
    }

    fn on_node_failure(&mut self, node: u32) {
        if self.node_state[node as usize] != NodeState::PoweredAlive {
            // Stale event: the node already died between scheduling and
            // delivery (e.g. a storm latch-up destroyed it first).
            return;
        }
        self.node_state[node as usize] = NodeState::Dead;
        self.powered_alive -= 1;
        self.plane.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::NodeFailure,
                count: 1,
            },
        );
        if let Some(hp) = &mut self.health {
            // With the health plane active, recovery waits for the
            // detector: the node simply falls silent here, and promotion
            // (if any) happens at the DEAD declaration in
            // `on_health_scan`. Record ground truth for the latency.
            hp.failed_at[node as usize] = self.now;
        } else {
            self.promote_spare();
        }
        // Lost capacity never cancels in-flight batches (they complete on
        // the failing node's redundant pair); new dispatches see the
        // reduced capacity via `capacity()`.
        self.try_dispatch();
    }

    /// Promotes the oldest cold spare whose dormant aging has not already
    /// consumed its life. Dormant time ages at `dormant_aging` of the
    /// powered rate, and promotion spends whatever life remains. Returns
    /// the promoted node, or `None` if the spare pool ran dry.
    fn promote_spare(&mut self) -> Option<u32> {
        while let Some(spare) = self.spare_id.pop_front() {
            let life = self.spare_life.pop_front().expect("parallel spare deques");
            let dormant_consumed = if self.cfg.mttf_ticks.is_finite() {
                self.cfg.dormant_aging * (self.now as f64 / self.cfg.mttf_ticks)
            } else {
                0.0
            };
            let remaining = life - dormant_consumed;
            if remaining <= 0.0 {
                self.node_state[spare as usize] = NodeState::Dead;
                self.plane.publish(
                    self.now,
                    Payload::Fault {
                        kind: FaultKind::DormantDeath,
                        count: 1,
                    },
                );
                continue;
            }
            self.node_state[spare as usize] = NodeState::PoweredAlive;
            self.powered_alive += 1;
            self.plane.publish(
                self.now,
                Payload::Fault {
                    kind: FaultKind::Promotion,
                    count: 1,
                },
            );
            if remaining.is_finite() {
                self.queue.push(
                    self.now + duration_ticks(remaining * self.cfg.mttf_ticks),
                    Event::NodeFailure { node: spare },
                );
            }
            return Some(spare);
        }
        None
    }

    /// A solar-storm window opens: every powered node faces an independent
    /// latch-up draw from its own `(node, storm)` stream, so one node's
    /// fate never depends on how many others are powered — adding spares
    /// can only add capacity, never redirect damage.
    fn on_storm_start(&mut self) {
        let Some(s) = self.cfg.faults.and_then(|f| f.storm) else {
            return;
        };
        self.queue
            .push(self.now + s.period_ticks, Event::StormStart);
        let storm = self.storm_seq;
        self.storm_seq += 1;
        if s.node_kill_probability <= 0.0 {
            return;
        }
        // Severity is one draw per storm from a reserved slot of the
        // storm's stream block: it couples every node's kill odds without
        // ever depending on the node count or which nodes are powered, so
        // adding spares still cannot hurt any individual node.
        let major = s.major_probability > 0.0 && {
            let severity_stream = STORM_KILL_STREAM_BASE
                + storm * STORM_KILL_STREAM_STRIDE
                + (STORM_KILL_STREAM_STRIDE - 1);
            Rng64::stream(self.seed, severity_stream).next_f64() < s.major_probability
        };
        let kill_probability = s.kill_probability(major);
        for node in 0..self.cfg.nodes {
            if self.node_state[node as usize] != NodeState::PoweredAlive {
                continue;
            }
            let stream =
                STORM_KILL_STREAM_BASE + storm * STORM_KILL_STREAM_STRIDE + u64::from(node);
            if Rng64::stream(self.seed, stream).next_f64() < kill_probability {
                self.node_state[node as usize] = NodeState::Dead;
                self.powered_alive -= 1;
                // One event, two trace counters: the subscriber folds a
                // StormKill into both `failures` and `storm_node_kills`.
                self.plane.publish(
                    self.now,
                    Payload::Fault {
                        kind: FaultKind::StormKill,
                        count: 1,
                    },
                );
                if let Some(hp) = &mut self.health {
                    // As in `on_node_failure`: the detector, not the
                    // storm event, decides when recovery starts.
                    hp.failed_at[node as usize] = self.now;
                } else {
                    self.promote_spare();
                }
            }
        }
        self.try_dispatch();
    }

    /// One lease boundary of the health plane: every powered healthy
    /// node heartbeats on `ops/telemetry`, then the detector scans for
    /// missed leases and publishes its verdicts on `ops/faults`. In
    /// closed-loop mode each DEAD declaration immediately promotes a
    /// cold spare (so detection latency *is* promotion latency); in
    /// monitor-only mode verdicts are published but nothing recovers.
    fn on_health_scan(&mut self) {
        let Some(mut hp) = self.health.take() else {
            return;
        };
        for node in 0..self.cfg.nodes {
            if self.node_state[node as usize] != NodeState::PoweredAlive {
                continue;
            }
            self.plane.publish(self.now, Payload::Heartbeat { node });
            if let Some(event) = hp.controller.heartbeat(node, self.now) {
                // FALSE-SUSPECT exoneration or probation readmission.
                self.plane.publish(
                    self.now,
                    Payload::Health {
                        event,
                        node,
                        value: 0,
                    },
                );
            }
        }
        // Scan *after* the heartbeats of the same tick, so a live node's
        // on-time heartbeat always refreshes its lease before the
        // silence check — zero false suspicions in a fault-free run.
        let mut verdicts = std::mem::take(&mut hp.verdicts);
        hp.controller.scan(self.now, &mut verdicts);
        for v in &verdicts {
            let value = if v.event == HealthEvent::Dead {
                self.now - hp.failed_at[v.node as usize]
            } else {
                0
            };
            self.plane.publish(
                self.now,
                Payload::Health {
                    event: v.event,
                    node: v.node,
                    value,
                },
            );
            if v.event == HealthEvent::Dead && hp.lowered.closed_loop {
                if let Some(promoted) = self.promote_spare() {
                    // The spare enters monitored service with a fresh
                    // lease clock.
                    hp.controller.watch(promoted, self.now);
                }
            }
        }
        verdicts.clear();
        hp.verdicts = verdicts;
        let next = self.now + hp.lowered.lease_ticks;
        if next <= self.cfg.duration_ticks {
            self.queue.push(next, Event::HealthScan);
        }
        self.health = Some(hp);
        self.try_dispatch();
    }

    fn on_isl_link_down(&mut self, link: u32) {
        let Some(isl) = self.cfg.faults.and_then(|f| f.isl) else {
            return;
        };
        self.isl_links_up -= 1;
        self.plane.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::IslFlap,
                count: 1,
            },
        );
        let dt = duration_ticks(self.isl_rngs[link as usize].next_exp() * isl.mean_down_ticks);
        self.queue.push(self.now + dt, Event::IslLinkUp { link });
    }

    fn on_isl_link_up(&mut self, link: u32) {
        let Some(isl) = self.cfg.faults.and_then(|f| f.isl) else {
            return;
        };
        self.isl_links_up += 1;
        let dt = duration_ticks(self.isl_rngs[link as usize].next_exp() * isl.mean_up_ticks);
        self.queue.push(self.now + dt, Event::IslLinkDown { link });
        // A transfer stalled by a total outage restarts on recovery.
        if !self.isl_busy {
            if let Some(next) = self.isl_queue.pop_front() {
                self.start_isl_transfer(next);
            }
        }
    }

    fn on_sample(&mut self) {
        let oldest = self
            .oldest_unfinished_capture()
            .map(|capture| self.now - capture);
        self.plane.publish(
            self.now,
            Payload::Backlog {
                isl: (self.isl_queue.len() + usize::from(self.isl_busy)) as u64,
                batch: self.batch_queue.len() as u64,
                downlink: (self.downlink_queue.len() + self.dl_group.len()) as u64,
                oldest_age: oldest,
            },
        );
        self.queue
            .push(self.now + self.cfg.sample_interval_ticks, Event::Sample);
    }

    /// Capture tick of the oldest image still in the pipeline (excluding
    /// images inside a compute batch, whose completion is already
    /// scheduled).
    fn oldest_unfinished_capture(&self) -> Option<Tick> {
        let mut oldest: Option<Tick> = None;
        let mut consider = |t: Tick| {
            oldest = Some(oldest.map_or(t, |o| o.min(t)));
        };
        if self.isl_busy {
            consider(self.isl_current);
        }
        if let Some(&t) = self.isl_queue.front() {
            consider(t);
        }
        if let Some(img) = self.batch_queue.front() {
            consider(img.capture);
        }
        if let Some(&t) = self.downlink_queue.front() {
            consider(t);
        }
        if let Some(&t) = self.dl_group.first() {
            consider(t);
        }
        oldest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::fault::{FaultConfig, GroundBlackouts, IslFlaps, StormModel};
    use sudc_units::Seconds;

    #[test]
    fn identical_seeds_produce_identical_traces() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0));
        let a = run(&cfg, 7);
        let b = run(&cfg, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_produce_different_traces() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0));
        let a = run(&cfg, 7);
        let b = run(&cfg, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn pipeline_conserves_images() {
        let cfg = SimConfig::reference_operations(Seconds::new(3600.0));
        let t = run(&cfg, 1);
        assert!(t.captured > 0, "no captures in an hour");
        assert_eq!(t.captured, t.filtered_out + t.arrived);
        // Everything processed was first transferred; everything delivered
        // was first processed.
        assert!(t.processed <= t.arrived);
        assert!(t.delivered <= t.processed);
        // An hour of 64-satellite traffic must actually move data.
        assert!(t.processed > 100, "processed only {}", t.processed);
    }

    #[test]
    fn no_failures_means_full_availability() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0));
        let t = run(&cfg, 3);
        assert_eq!(t.failures, 0);
        assert!((t.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failures_and_promotions_are_counted() {
        let cfg = SimConfig::try_cold_spare_mission(20, 10, 0.1, 2.0).unwrap();
        let t = run(&cfg, 11);
        assert!(t.failures > 0, "two MTTFs with exponential nodes must fail");
        assert!(t.promotions > 0, "spares should be promoted");
        assert!(t.promotions <= 10);
        assert!(t.availability() > 0.0 && t.availability() <= 1.0);
    }

    /// The fault config used by the determinism and equivalence tests:
    /// every fault process active at once.
    fn stress_faults() -> FaultConfig {
        let mut f = FaultConfig::quiet();
        f.upset_probability = 0.05;
        f.storm = Some(StormModel {
            period_ticks: 4000,
            duration_ticks: 600,
            offset_ticks: 1000,
            seu_multiplier: 20.0,
            node_kill_probability: 0.2,
            major_probability: 0.25,
            major_multiplier: 3.0,
        });
        f.isl = Some(IslFlaps {
            links: 3,
            mean_up_ticks: 2000.0,
            mean_down_ticks: 400.0,
        });
        f.ground = Some(GroundBlackouts {
            blackout_probability: 0.3,
        });
        f
    }

    #[test]
    fn fault_injected_runs_are_deterministic() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let a = run(&cfg, 21);
        assert_eq!(a, run(&cfg, 21));
        assert_ne!(a, run(&cfg, 22));
    }

    #[test]
    fn rebuilt_kernel_matches_the_frozen_baseline() {
        for seed in [1, 7, 42] {
            let cfg = SimConfig::reference_operations(Seconds::new(3600.0));
            assert_eq!(run(&cfg, seed), baseline::run(&cfg, seed));
            let collab = SimConfig::collaborative_operations(Seconds::new(3600.0));
            assert_eq!(run(&collab, seed), baseline::run(&collab, seed));
        }
    }

    #[test]
    fn rebuilt_kernel_matches_the_baseline_under_faults() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(stress_faults());
        for seed in [3, 21] {
            assert_eq!(run(&cfg, seed), baseline::run(&cfg, seed));
        }
    }

    #[test]
    fn rebuilt_kernel_matches_the_baseline_on_cold_spare_missions() {
        let cfg = SimConfig::try_cold_spare_mission(20, 10, 0.1, 2.0).unwrap();
        for seed in [11, 29] {
            assert_eq!(run(&cfg, seed), baseline::run(&cfg, seed));
        }
    }

    #[test]
    fn monotonic_shedding_matches_the_retain_scan() {
        // Exercise the freshness deadline on the pop-from-front fast path
        // (no retries in play): a glacial service rate backs the batch
        // queue up far past the deadline.
        let mut f = FaultConfig::quiet();
        f.policy.deadline_ticks = 400;
        let mut cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        cfg.service_ticks_per_image = 5e4;
        let t = run(&cfg, 3);
        let b = baseline::run(&cfg, 3);
        assert!(t.shed_deadline > 0, "the deadline must shed work");
        assert_eq!(t.shed_deadline, b.shed_deadline);
        assert_eq!(t, b);
    }

    #[test]
    fn shedding_with_retries_in_queue_matches_the_retain_scan() {
        // Corruption retries re-enter the queue out of capture order,
        // forcing the retain fallback; shed counts must still match.
        let mut f = FaultConfig::quiet();
        f.policy.deadline_ticks = 600;
        f.upset_probability = 0.4;
        let mut cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        cfg.service_ticks_per_image = 2e3;
        let t = run(&cfg, 5);
        let b = baseline::run(&cfg, 5);
        assert!(t.retries > 0, "corruption must force retries");
        assert!(t.shed_deadline > 0, "the deadline must shed work");
        assert_eq!(t.shed_deadline, b.shed_deadline);
        assert_eq!(t, b);
    }

    #[test]
    fn storm_latchups_kill_nodes_and_degrade_availability() {
        let mut f = FaultConfig::quiet();
        f.storm = Some(StormModel {
            period_ticks: 3000,
            duration_ticks: 300,
            offset_ticks: 500,
            seu_multiplier: 1.0,
            node_kill_probability: 0.5,
            major_probability: 0.0,
            major_multiplier: 1.0,
        });
        // No Weibull failures, no spares: every capability loss is storm
        // damage.
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(f);
        let t = run(&cfg, 9);
        assert!(t.storm_node_kills > 0, "storms must kill nodes");
        assert_eq!(t.failures, t.storm_node_kills);
        assert!(t.availability() < 1.0);
    }

    #[test]
    fn total_blackouts_stop_all_delivery() {
        let mut f = FaultConfig::quiet();
        f.ground = Some(GroundBlackouts {
            blackout_probability: 1.0,
        });
        let cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        let t = run(&cfg, 5);
        assert!(t.processed > 0, "compute keeps running through blackouts");
        assert_eq!(t.delivered, 0, "every contact window was blacked out");
        assert!(t.blackout_windows > 0);
    }

    #[test]
    fn certain_corruption_exhausts_the_retry_budget() {
        let mut f = FaultConfig::quiet();
        f.upset_probability = 1.0;
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(f);
        let t = run(&cfg, 13);
        assert_eq!(t.processed, 0, "every completion is corrupted");
        assert_eq!(t.delivered, 0);
        assert!(t.corrupted > 0);
        assert!(t.retries > 0, "corrupted work must be retried");
        assert!(t.retry_exhausted > 0, "the bounded budget must run out");
        // Each image is abandoned only after max_retries reprocessings.
        assert!(t.corrupted > t.retry_exhausted);
    }

    #[test]
    fn link_flaps_slow_but_do_not_lose_work() {
        let mut f = FaultConfig::quiet();
        f.isl = Some(IslFlaps {
            links: 2,
            mean_up_ticks: 1500.0,
            mean_down_ticks: 500.0,
        });
        let cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        let t = run(&cfg, 17);
        assert!(t.isl_flaps > 0, "links must flap over an hour");
        let base = run(&SimConfig::reference_operations(Seconds::new(3600.0)), 17);
        assert_eq!(t.captured, base.captured, "arrivals share the seed");
        // Flapping delays work but the pipeline still moves data.
        assert!(t.processed > 0);
    }

    #[test]
    fn bounded_queues_shed_oldest_work() {
        let mut f = FaultConfig::quiet();
        f.policy.batch_queue_limit = 2;
        // Starve compute so the batch queue must overflow: keep nodes but
        // make service glacial.
        let mut cfg = SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(f);
        cfg.service_ticks_per_image = 1e6;
        let t = run(&cfg, 3);
        assert!(t.shed_batch_overflow > 0, "a 2-deep queue must overflow");
        assert!(t.max_batch_queue() <= 2);
    }

    #[test]
    fn fault_free_health_runs_never_suspect_anyone() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0))
            .with_health(sudc_health::HealthConfig::standard());
        let t = run(&cfg, 7);
        assert!(t.health_enabled());
        assert!(t.heartbeats > 0, "powered nodes must heartbeat");
        assert_eq!(t.suspects, 0, "no suspicion without a missed lease");
        assert_eq!(t.false_suspects, 0);
        assert_eq!(t.detections, 0);
        assert!((t.availability() - 1.0).abs() < 1e-12);
        // The health plane never touches an RNG stream: the pipeline
        // trajectory matches the health-free run of the same seed.
        let base = run(&SimConfig::reference_operations(Seconds::new(1800.0)), 7);
        assert_eq!(t.captured, base.captured);
        assert_eq!(t.delivered, base.delivered);
    }

    /// A cold-spare mission with a lease the detector can resolve on the
    /// mission's coarse (one MTTF = 100k ticks) clock.
    fn health_mission(closed_loop: bool) -> SimConfig {
        let cfg = SimConfig::try_cold_spare_mission(20, 10, 0.1, 2.0).unwrap();
        let mut h = sudc_health::HealthConfig::standard();
        h.lease_s = cfg.tick_seconds * 50.0;
        h.closed_loop = closed_loop;
        cfg.with_health(h)
    }

    #[test]
    fn closed_loop_detection_drives_promotion_with_latency() {
        let t = run(&health_mission(true), 11);
        assert!(t.failures > 0, "two MTTFs of exponential nodes must fail");
        assert!(t.detections > 0, "failures must be detected");
        assert!(t.promotions > 0, "DEAD declarations must promote spares");
        assert!(t.promotions <= t.detections);
        assert_eq!(t.false_suspects, 0, "dead nodes stay silent");
        // Silence is measured from the last *heartbeat*, which can be up
        // to one lease before the failure: the latency floor is
        // `dead_missed - 1` whole leases.
        let floor = t.tick_seconds() * 50.0 * 3.0;
        assert!(
            t.detection_latency().p50 >= floor,
            "p50 {} < floor {floor}",
            t.detection_latency().p50
        );
    }

    #[test]
    fn monitor_only_never_promotes_and_costs_availability() {
        let on = run(&health_mission(true), 11);
        let off = run(&health_mission(false), 11);
        // Same seed, same lifetime draws — but the closed loop powers
        // spares that can then fail in turn, so it sees *at least* the
        // monitor-only run's failures.
        assert!(off.failures > 0);
        assert!(on.failures >= off.failures);
        assert_eq!(off.promotions, 0, "monitor-only must not actuate");
        assert!(off.detections > 0, "the detector still observes");
        assert!(
            on.availability() > off.availability(),
            "closed loop {} must beat monitor-only {}",
            on.availability(),
            off.availability()
        );
    }

    #[test]
    fn health_runs_replay_byte_identically() {
        let (trace, log) = run_recorded(&health_mission(true), 13);
        assert!(trace.detections > 0);
        let replayed = crate::plane::replay(&health_mission(true), &log).unwrap();
        assert_eq!(replayed, trace);
    }

    #[test]
    fn filtering_reduces_arrivals_proportionally() {
        let base = SimConfig::reference_operations(Seconds::new(3600.0));
        let collab = SimConfig::collaborative_operations(Seconds::new(3600.0));
        let tb = run(&base, 5);
        let tc = run(&collab, 5);
        assert_eq!(tb.filtered_out, 0);
        let pass = tc.arrived as f64 / tc.captured as f64;
        assert!((pass - 1.0 / 3.0).abs() < 0.05, "pass fraction {pass}");
    }
}
