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
//! The steady-state loop is allocation-free: per-node state lives in
//! parallel arrays (struct-of-arrays — one contiguous `Vec` per field
//! instead of one struct per entity), in-flight batch capture buffers
//! come from a fixed-stride slab with a LIFO free list instead of a
//! heap-allocated `Vec` per batch, the downlink group buffer is reused
//! across transmissions, and deadline shedding pops expired work off the
//! queue front instead of scanning — falling back to a full scan only
//! while corruption retries (which re-enter out of capture order) are in
//! the queue.
//!
//! At large fleets every capture event belongs to a random satellite,
//! so per-satellite state indexed by satellite id would be a random
//! gather into arrays far larger than the caches. The kernel keeps none:
//! a satellite always has exactly one pending capture, and only its own
//! captures touch its arrival stream and imaging-window phase, so both
//! travel inside that `Event::Capture`. A capture reads them from the
//! event `pop_tick` has just copied out of its ring slot, in slot order,
//! and writes them back with the push that schedules the next capture.
//! Memory stays proportional to live work: a ring slot holds one tick, so
//! its entries store the bare 40-byte event with no tick beside it (the
//! capture's phase, carried in 24 bits, and its satellite id sit in the
//! padding after the enum tag), the slots share one chunk pool, and the
//! ISL FIFO — which at saturation holds millions of images — stores runs
//! of equal capture ticks instead of one entry per image.
//!
//! The trace's time-weighted integrals read the settled state: busy
//! nodes, the batch- and downlink-queue depths and full capability.
//! Time advances only between tick batches, and most ticks (a capture
//! that lands on a busy ISL, a heartbeat scan) leave that state as it
//! was, so the kernel publishes a telemetry `Settle` only after a tick
//! that changed it. It carries the pre-batch state, which held since
//! the previous `Settle`, and the events handled since then; the
//! integrals add `dt × state` in integers, so the long intervals sum to
//! exactly what per-tick ones would, with fewer records to fold, record
//! and replay. The trace reads a queue's `QueueDepth` samples only for
//! its peak, so the kernel publishes one only when the queue outgrows
//! the peak the run's own trace holds, and keeps no copy of that peak.
//!
//! A capture's successor comes `duration_ticks(next_exp() * mean)` ticks
//! later, and `next_exp`'s `ln` used to be the largest cost of a capture.
//! That gap is a step function of the one `next_u64` the draw consumes,
//! so the kernel reads it from a `GapTable` built once per run: it keys
//! on the draw's octave and six more bits, stores each bucket's gap and
//! the at most two steps inside it, and hands every draw within a wide
//! guard band of a step (and the rare deep tail) to the original
//! expression. The guard band dwarfs any rounding in `exp` or `ln`, so
//! the table gives the expression's exact tick, and each draw still
//! consumes exactly one `next_u64` (see `gap.rs` for the argument).
//!
//! Captures are a Poisson process thinned to the imaging window, and in
//! the reference scenario 40 % of each orbit is dark. A dark capture
//! publishes nothing and changes nothing but the stream and phase its
//! event carries, so `on_capture` draws through a dark stretch in one
//! handler: it skips the next capture while that capture and the one
//! after it are both dark, making the same draws in the same order. It
//! must not skip the stretch's *last* dark capture. That event is what
//! pushes the next in-window capture, from the same tick as a
//! capture-by-capture handler would. Same-tick events run in push
//! order, so the push tick fixes the in-window capture's rank within
//! its tick. Pushed instead from the handler before the stretch, up to
//! about 23 000 ticks earlier, it would run ahead of every event pushed
//! at its tick in between (a `Sample` pushed 600 ticks earlier, say),
//! and same-tick handlers do not commute: a backlog sample would count
//! an image captured in its own tick that it used to miss. One residual
//! case remains. The kept capture is itself pushed earlier, so within
//! its own tick it can now run before an event it used to follow; if
//! that event schedules a non-commuting event at exactly the in-window
//! capture's tick, the two swap. No pin, probe or snapshot has shown
//! it. `events` counts only the captures handled, so it falls; no other
//! trace field moved at any pin or probe.
//!
//! A run at a fixed `(config, seed)` is a constant, so the tests below
//! pin full-state [`RunTrace::fingerprint`]s at points across the
//! nominal, collaborative, fault, cold-spare, shedding, health,
//! recorded and window re-entry paths. The fingerprint leaves out the
//! diagnostics `events` and `peak_event_queue`, so a kernel that
//! handles fewer events to reach the same trace keeps every pin. The
//! points a pre-rebuild kernel also ran carry that kernel's traces: the
//! rebuild matched it bit for bit there.

use std::collections::VecDeque;

use sudc_bus::{BusLog, FaultKind, HealthEvent, Payload, Sample, Subscriber};
use sudc_errors::{Diagnostics, SudcError};
use sudc_health::{HealthController, LoweredHealth, NodeHealth, ScanVerdict};
use sudc_par::rng::Rng64;
use sudc_reliability::weibull::WeibullLifetime;

use crate::config::SimConfig;
use crate::event::{capture_phase, Event, EventQueue, Tick};
use crate::gap::GapTable;
use crate::metrics::RunTrace;

/// Streams in each per-entity block below. A config with more entities
/// than its block holds would draw from the next block's streams, so
/// `SimConfig::try_validate` refuses it (see `validate_stream_layout`).
const STREAM_BLOCK: u64 = 1_000_000;
/// Stream index base for per-satellite RNG streams (stream `sat`).
const SAT_STREAM_BASE: u64 = 0;
/// Stream index base for per-node lifetime streams.
const NODE_STREAM_BASE: u64 = STREAM_BLOCK;
/// Stream index base for per-ISL-link flap streams (fault injection).
const ISL_LINK_STREAM_BASE: u64 = 2 * STREAM_BLOCK;
/// Stream index for the shared fault stream (SEU corruption draws and
/// retry jitter, consumed in event order).
const FAULT_STREAM_BASE: u64 = 3_000_000;
/// Stream index for ground-contact blackout draws (one per window).
const BLACKOUT_STREAM_BASE: u64 = 3_500_000;
/// Stream index base for per-manufacturing-cohort infant-mortality draws.
const INFANT_STREAM_BASE: u64 = 4_000_000;
/// Stream index base for storm latch-up draws. Storm `s`, node `n` draws
/// from stream `BASE + s * STRIDE + n` — a pure function of the entity
/// pair, so one node's fate never depends on how many others are powered.
const STORM_KILL_STREAM_BASE: u64 = 5_000_000;
/// Stream stride between consecutive storms' kill-draw blocks. The
/// block's last stream is the storm's severity draw.
const STORM_KILL_STREAM_STRIDE: u64 = STREAM_BLOCK;

/// Refuses entity counts whose streams would leave their block: satellite
/// `k` draws stream `k`, node `n` stream `NODE_STREAM_BASE + n` and slot
/// `n` of every storm's block (below the severity slot, and with cohort
/// `n / batch_size` in the infant block), and ISL link `l` stream
/// `ISL_LINK_STREAM_BASE + l`. Past the bound two entities would silently
/// share one random stream.
pub(crate) fn validate_stream_layout(cfg: &SimConfig, d: &mut Diagnostics) {
    const MAX_SATELLITES: u64 = NODE_STREAM_BASE - SAT_STREAM_BASE;
    const MAX_NODES: u64 = STORM_KILL_STREAM_STRIDE - 1;
    const MAX_ISL_LINKS: u64 = FAULT_STREAM_BASE - ISL_LINK_STREAM_BASE;
    const _: () = assert!(
        MAX_NODES <= ISL_LINK_STREAM_BASE - NODE_STREAM_BASE
            && MAX_NODES <= STORM_KILL_STREAM_BASE - INFANT_STREAM_BASE
    );
    // Each message is formatted only for a violation: validation runs in
    // every run's set-up.
    if u64::from(cfg.satellites) > MAX_SATELLITES {
        d.violation(
            "satellites",
            cfg.satellites,
            format!(
                "at most {MAX_SATELLITES}: satellite k draws random stream {SAT_STREAM_BASE} + k, \
                 and the node streams start at {NODE_STREAM_BASE}"
            ),
        );
    }
    if u64::from(cfg.nodes) > MAX_NODES {
        d.violation(
            "nodes",
            cfg.nodes,
            format!(
                "at most {MAX_NODES}: node n draws random stream {NODE_STREAM_BASE} + n and slot \
                 n of each storm's {STORM_KILL_STREAM_STRIDE}-stream block, whose last slot is \
                 the storm's severity draw"
            ),
        );
    }
    if let Some(links) = cfg.faults.and_then(|f| f.isl).map(|i| i.links) {
        if u64::from(links) > MAX_ISL_LINKS {
            d.violation(
                "faults.isl.links",
                links,
                format!(
                    "at most {MAX_ISL_LINKS}: link l draws random stream {ISL_LINK_STREAM_BASE} \
                     + l, and the shared fault stream is {FAULT_STREAM_BASE}"
                ),
            );
        }
    }
}

/// The first phase in `0..period` outside an imaging window of
/// `duty_window` ticks: phase `p` is inside exactly when
/// `(p as f64) < duty_window`. That float test is monotone in `p`, so the
/// phases inside form a prefix and one integer compare per capture
/// replaces the conversion. `ceil` finds the end exactly below 2^53; the
/// loops step past the conversion's rounding above it.
fn window_end(duty_window: f64, period: Tick) -> Tick {
    let mut end = (duty_window.ceil() as Tick).min(period);
    while end > 0 && (end - 1) as f64 >= duty_window {
        end -= 1;
    }
    while end < period && (end as f64) < duty_window {
        end += 1;
    }
    end
}

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

/// FIFO of capture ticks stored as `(tick, count)` runs. Every image a
/// tick's captures offer to a busy ISL carries the same tick, so a
/// saturated link's backlog of millions of images is one run per tick. Entries of one run are indistinguishable, so `len`, `front`,
/// `pop_front` and `push_front` behave exactly as on a plain deque of
/// ticks.
#[derive(Default)]
struct TickRuns {
    runs: VecDeque<(Tick, u64)>,
    len: usize,
}

impl TickRuns {
    fn len(&self) -> usize {
        self.len
    }

    fn front(&self) -> Option<Tick> {
        self.runs.front().map(|&(tick, _)| tick)
    }

    fn push_back(&mut self, tick: Tick) {
        self.len += 1;
        match self.runs.back_mut() {
            Some((t, n)) if *t == tick => *n += 1,
            _ => self.runs.push_back((tick, 1)),
        }
    }

    fn push_front(&mut self, tick: Tick) {
        self.len += 1;
        match self.runs.front_mut() {
            Some((t, n)) if *t == tick => *n += 1,
            _ => self.runs.push_front((tick, 1)),
        }
    }

    fn pop_front(&mut self) -> Option<Tick> {
        let (tick, n) = self.runs.front_mut()?;
        let tick = *tick;
        *n -= 1;
        if *n == 0 {
            self.runs.pop_front();
        }
        self.len -= 1;
        Some(tick)
    }
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
/// draw in the schedule a run without it makes.
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

/// Runs one simulation to completion: the one kernel entry point.
///
/// Every pipeline hop is published as a [`Sample`] and delivered first
/// to the run's [`RunTrace`], which folds it in, then to `attach`. Attach
/// `()` for the bare trace, a [`BusLog`] to record the topic stream for
/// [`crate::plane::replay`], a [`sudc_bus::BusStats`] to count samples
/// per topic, or a pair `(A, B)` for two of them. Returns the trace and
/// the attachment.
///
/// # Errors
///
/// Returns the [`SimConfig::try_validate`] error for an invalid `cfg`,
/// before any work.
pub fn try_run<S: Subscriber>(
    cfg: &SimConfig,
    seed: u64,
    attach: S,
) -> Result<(RunTrace, S), SudcError> {
    cfg.try_validate()?;
    Ok(Kernel::new(cfg, seed, attach).run())
}

/// [`try_run`] with nothing attached: the run's trace.
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::try_validate`].
#[must_use]
pub fn run(cfg: &SimConfig, seed: u64) -> RunTrace {
    try_run(cfg, seed, ()).unwrap_or_else(|e| panic!("{e}")).0
}

/// [`try_run`] with a [`BusLog`] attached: the trace and the binary log
/// that [`crate::plane::replay`] re-drives to an identical trace.
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::try_validate`].
#[must_use]
pub fn run_recorded(cfg: &SimConfig, seed: u64) -> (RunTrace, BusLog) {
    try_run(cfg, seed, BusLog::new()).unwrap_or_else(|e| panic!("{e}"))
}

/// The state the trace's time-weighted integrals read: busy compute
/// nodes, the batch- and downlink-queue depths, and whether the powered
/// pool meets the required capability.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Settled {
    busy: u32,
    batch_queue: u64,
    downlink_queue: u64,
    full: bool,
}

/// Images still inside the pipeline when a run ends.
struct InFlight {
    /// Queued for or crossing the ISL, queued for a batch, inside a
    /// running batch, or waiting out a retry backoff.
    upstream: u64,
    /// Processed, and queued for or crossing the downlink.
    downlink: u64,
}

impl InFlight {
    /// The capture ledger, checked in debug builds at the end of every
    /// run: every capture was filtered at the edge or arrived at the ISL;
    /// every image that arrived was delivered, shed, abandoned once its
    /// retry budget ran out, or is still in flight; and every processed
    /// image was delivered, shed from the downlink queue, or is still in
    /// the downlink stage.
    fn debug_assert_capture_ledger(&self, t: &RunTrace) {
        debug_assert_eq!(
            t.captured,
            t.filtered_out + t.arrived,
            "every capture is filtered or arrives"
        );
        debug_assert_eq!(
            t.arrived,
            t.delivered
                + t.shed_batch_overflow
                + t.shed_deadline
                + t.shed_downlink_overflow
                + t.retry_exhausted
                + self.upstream
                + self.downlink,
            "every arrived image is delivered, shed, abandoned or in flight"
        );
        debug_assert_eq!(
            t.processed,
            t.delivered + t.shed_downlink_overflow + self.downlink,
            "every processed image is delivered, shed or in the downlink stage"
        );
    }
}

struct Kernel<'a, S: Subscriber> {
    cfg: &'a SimConfig,
    queue: EventQueue,
    now: Tick,
    seed: u64,

    // Arrival process: each satellite's stream and imaging-window phase
    // travel in its pending `Event::Capture` (see "Hot-path layout").
    /// Capture gaps, `duration_ticks(next_exp() * frame_interval_ticks)`
    /// read from a per-run table (see "Hot-path layout").
    gaps: GapTable,
    /// The first imaging-window phase outside the window (see
    /// `window_end`); a capture tests its phase, and the handler each
    /// phase it draws through, against it.
    window_end: Tick,

    // ISL: single FIFO server; `isl_current` is the capture tick of the
    // image in transfer. Under fault injection the provisioned rate is
    // spread over `isl_links_total` redundant links and transfers slow to
    // `total / up` of nominal as links flap (re-routing over survivors);
    // with every link down new transfers stall in `isl_queue`.
    isl_busy: bool,
    isl_current: Tick,
    isl_queue: TickRuns,
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
    /// Corrupted images waiting out their retry backoff (a pending
    /// `Event::Retry` each); feeds the capture ledger.
    retries_scheduled: u64,

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

    /// Data plane: every state change worth measuring is published to
    /// the run's `RunTrace`, which folds it in, and then to the caller's
    /// attachment.
    plane: (RunTrace, S),
}

impl<'a, S: Subscriber> Kernel<'a, S> {
    fn new(cfg: &'a SimConfig, seed: u64, attach: S) -> Self {
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
            gaps: if cfg.satellites == 0 {
                GapTable::exact_only(cfg.frame_interval_ticks)
            } else {
                GapTable::new(cfg.frame_interval_ticks)
            },
            window_end: window_end(
                cfg.imaging_duty * cfg.imaging_period_ticks as f64,
                cfg.imaging_period_ticks,
            ),
            isl_busy: false,
            isl_current: 0,
            isl_queue: TickRuns::default(),
            isl_rngs,
            isl_links_total,
            isl_links_up: isl_links_total,
            isl_nominal_ticks: duration_ticks(cfg.isl_transfer_ticks),
            batch_queue: VecDeque::new(),
            retried_in_queue: 0,
            slab: BatchSlab::new(cfg.batch_target as usize),
            busy_nodes: 0,
            retries_scheduled: 0,
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
            plane: (RunTrace::new(cfg), attach),
        };
        kernel.seed_initial_events(seed);
        kernel
    }

    fn seed_initial_events(&mut self, seed: u64) {
        let cfg = self.cfg;
        let period = cfg.imaging_period_ticks;
        for sat in 0..cfg.satellites {
            let mut rng = Rng64::stream(seed, SAT_STREAM_BASE + u64::from(sat));
            let dt = self.gaps.draw(&mut rng);
            // Imaging-window phase offset: spread 0 aligns every window
            // (bursty shared ground-track pass), spread 1 staggers
            // uniformly. The event carries the phase at its own tick.
            let frac = if cfg.satellites > 1 {
                f64::from(sat) / f64::from(cfg.satellites)
            } else {
                0.0
            };
            let offset = (cfg.phase_spread * frac * period as f64).round() as Tick;
            let phase = dt.saturating_add(offset) % period;
            self.schedule(dt, Event::capture(sat, phase, rng));
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
                    self.schedule(
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

        self.schedule(0, Event::ContactStart);
        self.schedule(self.cfg.sample_interval_ticks, Event::Sample);

        // Fault processes. No events are seeded (and no streams consumed)
        // with faults disabled, so the nominal schedule is untouched.
        if let Some(isl) = self.cfg.faults.and_then(|f| f.isl) {
            for link in 0..isl.links {
                let dt =
                    duration_ticks(self.isl_rngs[link as usize].next_exp() * isl.mean_up_ticks);
                self.schedule(dt, Event::IslLinkDown { link });
            }
        }
        if let Some(storm) = self.cfg.faults.and_then(|f| f.storm) {
            self.schedule(storm.offset_ticks, Event::StormStart);
        }

        // Health plane: the first lease boundary. Nothing is seeded with
        // the plane disabled, so the nominal schedule is untouched.
        if let Some(hp) = &self.health {
            self.schedule(hp.lowered.lease_ticks, Event::HealthScan);
        }
    }

    /// Delivers one sample to the run's trace and then the attachment.
    #[inline(always)]
    fn publish(&mut self, tick: Tick, payload: Payload) {
        self.plane.deliver(&Sample { tick, payload });
    }

    /// Schedules `event` `delay` ticks from now: the one way the kernel
    /// pushes, so no push lands behind the ring time. The sum saturates,
    /// and a validated run ends before `Tick::MAX`, so a delay that would
    /// carry past `u64` leaves its event pending, never handled.
    #[inline(always)]
    fn schedule(&mut self, delay: Tick, event: Event) {
        self.queue.push(self.now.saturating_add(delay), event);
    }

    /// The settled state as it stands now.
    #[inline(always)]
    fn settled(&self) -> Settled {
        Settled {
            busy: self.busy_nodes,
            batch_queue: self.batch_queue.len() as u64,
            downlink_queue: self.downlink_queue.len() as u64,
            full: self.powered_alive >= self.cfg.required,
        }
    }

    fn run(mut self) -> (RunTrace, S) {
        // Tick-batched event loop: every event of the current tick is
        // drained in FIFO order into one reused buffer and handled in
        // order. Handler order, pushes, and the pending-count trajectory
        // (see `EventQueue::consume_one`) are identical to a
        // one-pop-at-a-time loop.
        //
        // Time only advances between batches, so the settled state is
        // constant from the end of one handled tick to the start of the
        // next. A `Settle` follows only a tick whose handlers changed it,
        // carrying the pre-batch snapshot (which held since the previous
        // `Settle`) and the events handled since then; ticks that change
        // nothing extend the interval the next `Settle` closes.
        let mut batch: Vec<Event> = Vec::new();
        let mut unsettled_events = 0u64;
        while let Some(tick) = self.queue.pop_tick(&mut batch) {
            if tick > self.cfg.duration_ticks {
                break;
            }
            let before = self.settled();
            self.now = tick;
            for &event in &batch {
                self.queue.consume_one();
                match event {
                    Event::Capture {
                        phase_lo,
                        phase_hi,
                        sat,
                        rng,
                    } => self.on_capture(sat, capture_phase(phase_lo, phase_hi), rng),
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
            unsettled_events += batch.len() as u64;
            if self.settled() != before {
                self.publish_settle(tick, unsettled_events, before);
                unsettled_events = 0;
            }
        }
        // The ticks since the last `Settle` left the state unchanged; one
        // more at the last handled tick carries their events.
        if unsettled_events > 0 {
            self.publish_settle(self.now, unsettled_events, self.settled());
        }
        self.publish(
            self.cfg.duration_ticks,
            Payload::Finish {
                busy: self.busy_nodes,
                batch_queue: self.batch_queue.len() as u64,
                downlink_queue: self.downlink_queue.len() as u64,
                full: self.powered_alive >= self.cfg.required,
                peak_event_queue: self.queue.peak_len() as u64,
            },
        );
        self.in_flight().debug_assert_capture_ledger(&self.plane.0);
        self.plane
    }

    /// Publishes that `state` held up to `tick`, and the `events` handled
    /// since the previous `Settle`.
    #[inline(always)]
    fn publish_settle(&mut self, tick: Tick, events: u64, state: Settled) {
        let Settled {
            busy,
            batch_queue,
            downlink_queue,
            full,
        } = state;
        self.publish(
            tick,
            Payload::Settle {
                events,
                busy,
                batch_queue,
                downlink_queue,
                full,
            },
        );
    }

    /// Counts the images still inside the pipeline, by stage.
    fn in_flight(&self) -> InFlight {
        let busy_slots: u64 = self.slab.len.iter().map(|&n| u64::from(n)).sum();
        InFlight {
            upstream: self.isl_queue.len() as u64
                + u64::from(self.isl_busy)
                + self.batch_queue.len() as u64
                + busy_slots
                + self.retries_scheduled,
            downlink: (self.downlink_queue.len() + self.dl_group.len()) as u64,
        }
    }

    /// `(phase + dt) % period` for a `phase` already reduced mod
    /// `period`: capture intervals rarely span more than one period, so
    /// one compare-and-subtract usually replaces the division.
    #[inline]
    fn advance_phase(phase: Tick, dt: Tick, period: Tick) -> Tick {
        let mut p = phase.saturating_add(dt);
        if p >= period {
            p -= period;
            if p >= period {
                p %= period;
            }
        }
        p
    }

    /// Whether a capture at imaging-window `phase` falls inside the window.
    #[inline(always)]
    fn imaging(&self, phase: Tick) -> bool {
        phase < self.window_end
    }

    /// Satellite `sat` captures (inside its imaging window) and schedules
    /// its next capture opportunity: a Poisson process at the imaging-mode
    /// frame rate, thinned to the window here. `rng` and `phase` come from
    /// the event and move on, advanced, into the one it schedules.
    ///
    /// A dark capture (outside the window) publishes nothing and touches
    /// only the stream and phase it carries, so the handler draws through
    /// a dark stretch instead of queueing each one: it skips the next
    /// capture while both that capture and the one after it are dark and
    /// inside the run, with the same draws in the same order. Each stretch
    /// keeps its last dark capture as an event, and that event pushes the
    /// next in-window capture from the same tick as a capture-by-capture
    /// handler would, so the in-window capture keeps its rank among the
    /// events of its tick (see "Hot-path layout" for the one case that
    /// can still reorder).
    fn on_capture(&mut self, sat: u32, phase: Tick, mut rng: Rng64) {
        if self.imaging(phase) {
            let filtered = rng.next_f64() < self.cfg.filtering;
            self.publish(self.now, Payload::Capture { sat, filtered });
            if !filtered {
                self.offer_to_isl(self.now);
            }
        }
        let period = self.cfg.imaging_period_ticks;
        let mut dt = self.gaps.draw(&mut rng);
        let mut phase = Self::advance_phase(phase, dt, period);
        while !self.imaging(phase) && self.now.saturating_add(dt) <= self.cfg.duration_ticks {
            let mut ahead = rng;
            let gap = self.gaps.draw(&mut ahead);
            let after = Self::advance_phase(phase, gap, period);
            if self.imaging(after) {
                break;
            }
            dt = dt.saturating_add(gap);
            phase = after;
            rng = ahead;
        }
        self.schedule(dt, Event::capture(sat, phase, rng));
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
        self.schedule(self.isl_transfer_duration(), Event::IslDone);
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
                        self.publish(
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
        let len = self.batch_queue.len();
        if len > self.plane.0.max_batch_queue() {
            self.publish(
                self.now,
                Payload::QueueDepth {
                    downlink: false,
                    len: len as u64,
                },
            );
        }
        self.schedule(self.cfg.batch_timeout_ticks, Event::BatchTimeout);
    }

    fn on_retry(&mut self, capture: Tick, attempt: u32) {
        self.retries_scheduled -= 1;
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
            self.publish(
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
                .is_some_and(|img| self.now - img.enqueued >= self.cfg.batch_timeout_ticks);
            if !full && !stale {
                return;
            }
            let size = self.batch_queue.len().min(self.cfg.batch_target as usize);
            self.publish(
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
            self.schedule(service, Event::BatchDone { slot });
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
        self.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::Corrupted,
                count: 1,
            },
        );
        let Some(f) = self.cfg.faults else { return };
        if attempt >= f.policy.max_retries {
            self.publish(
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
        let jitter = f.policy.backoff_jitter_ticks;
        if jitter > 0 {
            // One draw, uniform over `0..=jitter`; at `Tick::MAX` that is
            // every `u64`, the draw itself.
            let draw = self.fault_rng.next_u64();
            delay = delay.saturating_add(jitter.checked_add(1).map_or(draw, |n| draw % n));
        }
        self.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::Retry,
                count: 1,
            },
        );
        self.schedule(
            delay,
            Event::Retry {
                capture,
                attempt: next,
            },
        );
        self.retries_scheduled += 1;
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
            self.publish(
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
            self.publish(self.now, Payload::Processed { capture });
            self.downlink_queue.push_back(capture);
        }
        self.shed_downlink_overflow();
        let len = self.downlink_queue.len();
        if len > self.plane.0.max_downlink_backlog() {
            self.publish(
                self.now,
                Payload::QueueDepth {
                    downlink: true,
                    len: len as u64,
                },
            );
        }
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
        self.schedule(self.cfg.contact_gap_ticks, Event::ContactStart);
        if let Some(g) = self.cfg.faults.and_then(|f| f.ground) {
            self.window_blacked_out = self.blackout_rng.next_f64() < g.blackout_probability;
            if self.window_blacked_out {
                self.publish(
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
        self.schedule(transfer, Event::DownlinkDone);
    }

    fn on_downlink_done(&mut self) {
        for i in 0..self.dl_group.len() {
            let capture = self.dl_group[i];
            self.publish(self.now, Payload::Delivered { capture });
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
        self.publish(
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
                self.publish(
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
            self.publish(
                self.now,
                Payload::Fault {
                    kind: FaultKind::Promotion,
                    count: 1,
                },
            );
            if remaining.is_finite() {
                self.schedule(
                    duration_ticks(remaining * self.cfg.mttf_ticks),
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
        self.schedule(s.period_ticks, Event::StormStart);
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
                self.publish(
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
            self.publish(self.now, Payload::Heartbeat { node });
            if let Some(event) = hp.controller.heartbeat(node, self.now) {
                // FALSE-SUSPECT exoneration or probation readmission.
                self.publish(
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
            self.publish(
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
        if self.now.saturating_add(hp.lowered.lease_ticks) <= self.cfg.duration_ticks {
            self.schedule(hp.lowered.lease_ticks, Event::HealthScan);
        }
        self.health = Some(hp);
        self.debug_assert_node_ledger();
        self.debug_assert_detector_ledger();
        self.try_dispatch();
    }

    /// The node ledger, checked in debug builds at every lease: each
    /// installed node is powered-alive, dead or a cold spare, the
    /// powered-alive count matches the node states, and the spare pool
    /// holds exactly the spare nodes, in index order, each with its
    /// drawn life.
    fn debug_assert_node_ledger(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        // One state per installed node, and `NodeState` has exactly the
        // three states: the partition holds once the lengths agree.
        debug_assert_eq!(
            self.node_state.len(),
            self.cfg.nodes as usize,
            "every installed node is powered-alive, dead or a spare"
        );
        let count = |state| self.node_state.iter().filter(|&&s| s == state).count();
        debug_assert_eq!(
            count(NodeState::PoweredAlive),
            self.powered_alive as usize,
            "powered-alive count"
        );
        debug_assert_eq!(
            count(NodeState::Spare),
            self.spare_id.len(),
            "spare pool size"
        );
        debug_assert_eq!(self.spare_life.len(), self.spare_id.len(), "spare lives");
        debug_assert!(
            self.spare_id
                .iter()
                .zip(self.spare_id.iter().skip(1))
                .all(|(a, b)| a < b),
            "spares wait in index order"
        );
        debug_assert!(
            self.spare_id
                .iter()
                .all(|&n| self.node_state[n as usize] == NodeState::Spare),
            "every pooled spare is a spare"
        );
    }

    /// The detector's view of the node partition, checked in debug
    /// builds at every lease after the verdicts and their promotions:
    /// every powered-alive node has just heartbeated (or was just
    /// watched) and is ALIVE, so no kernel-alive node is quarantined;
    /// every cold spare has never heartbeated and is unmonitored. A dead
    /// kernel node never heartbeats again, so nothing is readmitted and
    /// the quarantine holds exactly the detections.
    fn debug_assert_detector_ledger(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let Some(hp) = &self.health else {
            return;
        };
        let detector = &hp.controller;
        for (node, &state) in self.node_state.iter().enumerate() {
            let seen = detector.state(node as u32);
            match state {
                NodeState::PoweredAlive => debug_assert_eq!(
                    seen,
                    NodeHealth::Alive,
                    "powered-alive node {node} is ALIVE to the detector"
                ),
                NodeState::Spare => debug_assert_eq!(
                    seen,
                    NodeHealth::Unmonitored,
                    "cold spare {node} is unmonitored"
                ),
                NodeState::Dead => {}
            }
        }
        // Every verdict and readmission was published, so the trace's
        // fold has counted each one.
        let trace = &self.plane.0;
        debug_assert_eq!(trace.readmissions, 0, "a dead node is never readmitted");
        debug_assert_eq!(
            u64::from(detector.quarantined()),
            trace.detections,
            "the quarantine holds exactly the detections"
        );
    }

    fn on_isl_link_down(&mut self, link: u32) {
        let Some(isl) = self.cfg.faults.and_then(|f| f.isl) else {
            return;
        };
        self.isl_links_up -= 1;
        self.publish(
            self.now,
            Payload::Fault {
                kind: FaultKind::IslFlap,
                count: 1,
            },
        );
        let dt = duration_ticks(self.isl_rngs[link as usize].next_exp() * isl.mean_down_ticks);
        self.schedule(dt, Event::IslLinkUp { link });
    }

    fn on_isl_link_up(&mut self, link: u32) {
        let Some(isl) = self.cfg.faults.and_then(|f| f.isl) else {
            return;
        };
        self.isl_links_up += 1;
        let dt = duration_ticks(self.isl_rngs[link as usize].next_exp() * isl.mean_up_ticks);
        self.schedule(dt, Event::IslLinkDown { link });
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
        self.publish(
            self.now,
            Payload::Backlog {
                isl: (self.isl_queue.len() + usize::from(self.isl_busy)) as u64,
                batch: self.batch_queue.len() as u64,
                downlink: (self.downlink_queue.len() + self.dl_group.len()) as u64,
                oldest_age: oldest,
            },
        );
        self.schedule(self.cfg.sample_interval_ticks, Event::Sample);
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
        if let Some(t) = self.isl_queue.front() {
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
pub(crate) mod tests {
    use super::*;
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

    /// The fault config used by the determinism, equivalence and replay
    /// tests: every fault process active at once.
    pub(crate) fn stress_faults() -> FaultConfig {
        FaultConfig {
            upset_probability: 0.05,
            storm: Some(StormModel {
                period_ticks: 4000,
                duration_ticks: 600,
                offset_ticks: 1000,
                seu_multiplier: 20.0,
                node_kill_probability: 0.2,
                major_probability: 0.25,
                major_multiplier: 3.0,
            }),
            isl: Some(IslFlaps {
                links: 3,
                mean_up_ticks: 2000.0,
                mean_down_ticks: 400.0,
            }),
            ground: Some(GroundBlackouts {
                blackout_probability: 0.3,
            }),
            ..FaultConfig::default()
        }
    }

    #[test]
    fn fault_injected_runs_are_deterministic() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let a = run(&cfg, 21);
        assert_eq!(a, run(&cfg, 21));
        assert_ne!(a, run(&cfg, 22));
    }

    /// Full-state fingerprints of fixed `(config, seed)` points across
    /// the nominal, collaborative, fault-injected and cold-spare paths.
    /// Each pin fingerprints the trace the pre-rebuild kernel produced at
    /// that point, so it holds the kernel to that kernel's behaviour bit
    /// for bit, apart from the diagnostics the fingerprint leaves out.
    #[test]
    fn kernel_traces_are_pinned() {
        let reference = SimConfig::reference_operations(Seconds::new(3600.0));
        let collab = SimConfig::collaborative_operations(Seconds::new(3600.0));
        let stressed = reference.with_faults(stress_faults());
        let spares = SimConfig::try_cold_spare_mission(20, 10, 0.1, 2.0).unwrap();
        for (name, cfg, seed, want) in [
            ("reference", reference, 1, 0x4aaa_1c4c_5277_57f5),
            ("reference", reference, 7, 0x6373_4a7c_a58b_c3f6),
            ("reference", reference, 42, 0x1cad_0fa0_417d_b84e),
            ("collaborative", collab, 1, 0x22db_c041_b23f_2f68),
            ("collaborative", collab, 7, 0xf764_155a_63fc_7e59),
            ("collaborative", collab, 42, 0x0a69_a0f3_e9bf_baae),
            ("stress faults", stressed, 3, 0xe3d8_db61_a787_db7f),
            ("stress faults", stressed, 21, 0x8528_3f70_6dc9_704e),
            ("cold spares", spares, 11, 0x4394_18bb_ce84_2659),
            ("cold spares", spares, 29, 0x9eaa_5f89_5b01_aaf8),
        ] {
            assert_eq!(
                run(&cfg, seed).fingerprint(),
                want,
                "{name} trace drifted at seed {seed}"
            );
        }
    }

    #[test]
    fn window_end_matches_the_float_window_test() {
        let reference = SimConfig::reference_operations(Seconds::new(60.0));
        for (duty, period) in [
            (reference.imaging_duty, reference.imaging_period_ticks),
            (0.0, 57_390),
            (1.0, 57_390),
            (0.5, 1),
            (0.3, 7),
            (0.5, 1 << 60),
            (0.7, (1 << 62) + 12_345),
            (1.0, Tick::MAX),
        ] {
            let window = duty * period as f64;
            let end = window_end(window, period);
            for p in [0, 1, 2, period / 2, period - 1]
                .into_iter()
                .chain((0..4).flat_map(|k| [end.saturating_sub(k), end.saturating_add(k)]))
                .filter(|&p| p < period)
            {
                assert_eq!(
                    p < end,
                    (p as f64) < window,
                    "phase {p}, duty {duty}, period {period}"
                );
            }
        }
    }

    #[test]
    fn tick_runs_behave_as_a_plain_deque_of_ticks() {
        // The ISL's use: runs of equal ticks appended in order, popped
        // from the front, and a popped tick pushed back when a total
        // outage stalls it — whether or not its run had other entries.
        let mut runs = TickRuns::default();
        let mut model: VecDeque<Tick> = VecDeque::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut tick = 0;
        for _ in 0..5_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match state >> 61 {
                0..=2 => {
                    tick += (state >> 40) % 2;
                    runs.push_back(tick);
                    model.push_back(tick);
                }
                3..=5 => assert_eq!(runs.pop_front(), model.pop_front()),
                _ => {
                    let popped = runs.pop_front();
                    assert_eq!(popped, model.pop_front());
                    if let Some(t) = popped {
                        runs.push_front(t);
                        model.push_front(t);
                    }
                }
            }
            assert_eq!(runs.len(), model.len());
            assert_eq!(runs.front(), model.front().copied());
        }
    }

    #[test]
    fn large_fleet_traces_are_pinned() {
        // 30k satellites capture about 300 times per tick, so each tick
        // drains hundreds of captures, each carrying its own stream state,
        // out of slots many chunks long, and the ISL backlog builds
        // multi-image runs. With a single flapping link every
        // down phase is a total outage that stalls the ISL through
        // `push_front`.
        let nominal = SimConfig::try_scaled_fleet(30_000, Seconds::new(20.0)).unwrap();
        let mut faults = stress_faults();
        faults.isl = Some(IslFlaps {
            links: 1,
            mean_up_ticks: 20.0,
            mean_down_ticks: 8.0,
        });
        let faulted = nominal.with_faults(faults);
        for (cfg, seed, want) in [
            (nominal, 7, 0xad8e_f689_bf8b_6ddc),
            (faulted, 21, 0x4504_d054_2dfe_8284),
        ] {
            assert_eq!(
                run(&cfg, seed).fingerprint(),
                want,
                "trace drifted at seed {seed}"
            );
        }
    }

    #[test]
    fn imaging_window_reentries_are_pinned() {
        // A day is about 15 orbits of 57 390 ticks, each with 22 956 dark
        // ticks, so every satellite draws through whole dark stretches
        // and re-enters its window; the hour-long pins above leave the
        // window but never come back. A handler that pushed each
        // stretch's in-window capture before the stretch would rank it
        // ahead of events pushed at its tick in the meantime (a `Sample`
        // pushed 600 ticks earlier, say) and move this trace.
        let cfg = SimConfig::try_scaled_fleet(8, Seconds::new(86_400.0)).unwrap();
        let t = run(&cfg, 3);
        assert_eq!(
            t.fingerprint(),
            0x9451_63b6_628f_d47b,
            "re-entry trace drifted"
        );
    }

    #[test]
    fn closed_loop_health_under_faults_is_pinned() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0))
            .with_faults(stress_faults())
            .with_health(sudc_health::HealthConfig::standard());
        let t = run(&cfg, 3);
        assert!(t.detections > 0, "storm kills must be detected");
        assert_eq!(
            t.fingerprint(),
            0x4f02_75ff_4f9a_f556,
            "closed-loop health trace drifted"
        );
    }

    #[test]
    fn recorded_and_replayed_runs_are_pinned() {
        let cfg =
            SimConfig::collaborative_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let (trace, log) = run_recorded(&cfg, 21);
        let replayed = crate::plane::replay(&cfg, &log).unwrap();
        assert_eq!(
            trace.fingerprint(),
            0xabd4_8aba_6c44_6463,
            "recorded trace drifted"
        );
        assert_eq!(
            replayed.fingerprint(),
            0xabd4_8aba_6c44_6463,
            "replayed trace drifted"
        );
    }

    #[test]
    fn deadline_shedding_on_the_fast_path_is_pinned() {
        // Exercise the freshness deadline on the pop-from-front fast path
        // (no retries in play): a glacial service rate backs the batch
        // queue up far past the deadline.
        let mut f = FaultConfig::default();
        f.policy.deadline_ticks = 400;
        let mut cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        cfg.service_ticks_per_image = 5e4;
        let t = run(&cfg, 3);
        assert!(t.shed_deadline > 0, "the deadline must shed work");
        assert_eq!(t.fingerprint(), 0xb5e0_f613_7f67_36f3, "shed trace drifted");
    }

    #[test]
    fn deadline_shedding_with_retries_in_queue_is_pinned() {
        // Corruption retries re-enter the queue out of capture order,
        // forcing the retain fallback.
        let mut f = FaultConfig::default();
        f.policy.deadline_ticks = 600;
        f.upset_probability = 0.4;
        let mut cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        cfg.service_ticks_per_image = 2e3;
        let t = run(&cfg, 5);
        assert!(t.retries > 0, "corruption must force retries");
        assert!(t.shed_deadline > 0, "the deadline must shed work");
        assert_eq!(t.fingerprint(), 0x295a_5755_e0e4_9529, "shed trace drifted");
    }

    #[test]
    fn storm_latchups_kill_nodes_and_degrade_availability() {
        let f = FaultConfig {
            storm: Some(StormModel {
                period_ticks: 3000,
                duration_ticks: 300,
                offset_ticks: 500,
                seu_multiplier: 1.0,
                node_kill_probability: 0.5,
                major_probability: 0.0,
                major_multiplier: 1.0,
            }),
            ..FaultConfig::default()
        };
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
        let f = FaultConfig {
            ground: Some(GroundBlackouts {
                blackout_probability: 1.0,
            }),
            ..FaultConfig::default()
        };
        let cfg = SimConfig::reference_operations(Seconds::new(3600.0)).with_faults(f);
        let t = run(&cfg, 5);
        assert!(t.processed > 0, "compute keeps running through blackouts");
        assert_eq!(t.delivered, 0, "every contact window was blacked out");
        assert!(t.blackout_windows > 0);
    }

    #[test]
    fn certain_corruption_exhausts_the_retry_budget() {
        let f = FaultConfig {
            upset_probability: 1.0,
            ..FaultConfig::default()
        };
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
        let f = FaultConfig {
            isl: Some(IslFlaps {
                links: 2,
                mean_up_ticks: 1500.0,
                mean_down_ticks: 500.0,
            }),
            ..FaultConfig::default()
        };
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
        let mut f = FaultConfig::default();
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
        let cfg = health_mission(true);
        let t = run(&cfg, 11);
        assert!(t.failures > 0, "two MTTFs of exponential nodes must fail");
        assert!(t.detections > 0, "failures must be detected");
        assert!(t.promotions > 0, "DEAD declarations must promote spares");
        assert!(t.promotions <= t.detections);
        assert_eq!(t.false_suspects, 0, "dead nodes stay silent");
        // Silence is measured from the last *heartbeat*, which can be up
        // to one lease before the failure: the latency floor is
        // `dead_missed - 1` whole leases.
        let floor = cfg.tick_seconds * 50.0 * 3.0;
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
