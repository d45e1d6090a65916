//! The frozen pre-rebuild reference kernel.
//!
//! This is the simulation kernel exactly as it stood before the timing-
//! wheel/SoA rebuild of [`crate::kernel`]: a [`BinaryHeapQueue`]
//! scheduler, a freshly allocated `Vec` per dispatched batch, a `retain`
//! scan for deadline shedding, and a `mem::take`n downlink group. It is
//! kept, verbatim in behavior, for two jobs:
//!
//! 1. **Golden model** — `run` here and [`crate::kernel::run`] must
//!    produce `==` [`RunTrace`]s for every configuration and seed; the
//!    equivalence tests and the `sim_scale` bench both assert it.
//! 2. **Honest baseline** — the `BENCH_sim.json` speedup is measured
//!    against this kernel, not a strawman.
//!
//! Nothing else should call it: it is deliberately the slow path.

use std::collections::VecDeque;

use sudc_par::rng::Rng64;
use sudc_reliability::weibull::WeibullLifetime;

use crate::config::SimConfig;
use crate::event::{BinaryHeapQueue, Event, Tick};
use crate::kernel::{
    duration_ticks, BLACKOUT_STREAM_BASE, FAULT_STREAM_BASE, INFANT_STREAM_BASE,
    ISL_LINK_STREAM_BASE, NODE_STREAM_BASE, SAT_STREAM_BASE, STORM_KILL_STREAM_BASE,
    STORM_KILL_STREAM_STRIDE,
};
use crate::metrics::RunTrace;

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

/// Runs one simulation to completion on the frozen reference kernel.
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::try_validate`].
#[must_use]
pub fn run(cfg: &SimConfig, seed: u64) -> RunTrace {
    if let Err(e) = cfg.try_validate() {
        panic!("{e}");
    }
    Kernel::new(cfg, seed).run()
}

struct Kernel<'a> {
    cfg: &'a SimConfig,
    queue: BinaryHeapQueue,
    now: Tick,
    seed: u64,

    // Arrival process.
    sat_rngs: Vec<Rng64>,
    sat_phases: Vec<Tick>,

    // ISL: single FIFO server; `isl_current` is the capture tick of the
    // image in transfer.
    isl_busy: bool,
    isl_current: Tick,
    isl_queue: VecDeque<Tick>,
    isl_rngs: Vec<Rng64>,
    isl_links_total: u32,
    isl_links_up: u32,

    // Batch dispatcher and compute pool: the pre-rebuild AoS layout with
    // one heap-allocated Vec per in-flight batch.
    batch_queue: VecDeque<QueuedImage>,
    in_flight: Vec<Option<Vec<(Tick, u32)>>>,
    free_slots: Vec<u32>,
    busy_nodes: u32,

    // Fault processes (idle unless `cfg.faults` is set).
    fault_rng: Rng64,
    blackout_rng: Rng64,
    window_blacked_out: bool,
    storm_seq: u64,

    // Node health.
    node_states: Vec<NodeState>,
    spares: VecDeque<(u32, f64)>,
    powered_alive: u32,

    // Downlink: single FIFO server active only inside contact windows.
    dl_busy: bool,
    dl_group: Vec<Tick>,
    downlink_queue: VecDeque<Tick>,

    trace: RunTrace,
}

impl<'a> Kernel<'a> {
    fn new(cfg: &'a SimConfig, seed: u64) -> Self {
        let sat_rngs = (0..cfg.satellites)
            .map(|s| Rng64::stream(seed, SAT_STREAM_BASE + u64::from(s)))
            .collect();
        let sat_phases = (0..cfg.satellites)
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
            queue: BinaryHeapQueue::new(),
            now: 0,
            seed,
            sat_rngs,
            sat_phases,
            isl_busy: false,
            isl_current: 0,
            isl_queue: VecDeque::new(),
            isl_rngs,
            isl_links_total,
            isl_links_up: isl_links_total,
            batch_queue: VecDeque::new(),
            in_flight: Vec::new(),
            free_slots: Vec::new(),
            busy_nodes: 0,
            node_states: Vec::new(),
            spares: VecDeque::new(),
            powered_alive: 0,
            fault_rng: Rng64::stream(seed, FAULT_STREAM_BASE),
            blackout_rng: Rng64::stream(seed, BLACKOUT_STREAM_BASE),
            window_blacked_out: false,
            storm_seq: 0,
            dl_busy: false,
            dl_group: Vec::new(),
            downlink_queue: VecDeque::new(),
            trace: RunTrace::new(cfg),
        };
        kernel.seed_initial_events(seed);
        kernel
    }

    fn seed_initial_events(&mut self, seed: u64) {
        for sat in 0..self.cfg.satellites {
            let dt = self.capture_interval(sat as usize);
            self.queue.push(dt, Event::Capture { sat });
        }

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
                self.node_states.push(NodeState::PoweredAlive);
                self.powered_alive += 1;
                if life.is_finite() {
                    self.queue.push(
                        duration_ticks(life * self.cfg.mttf_ticks),
                        Event::NodeFailure { node },
                    );
                }
            } else {
                self.node_states.push(NodeState::Spare);
                self.spares.push_back((node, life));
            }
        }

        self.queue.push(0, Event::ContactStart);
        self.queue
            .push(self.cfg.sample_interval_ticks, Event::Sample);

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
    }

    fn run(mut self) -> RunTrace {
        while let Some((tick, event)) = self.queue.pop() {
            if tick > self.cfg.duration_ticks {
                break;
            }
            self.trace.events += 1;
            self.trace.advance_to(
                tick,
                self.busy_nodes,
                self.batch_queue.len(),
                self.downlink_queue.len(),
                self.powered_alive >= self.cfg.required,
            );
            self.now = tick;
            match event {
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
                // The frozen baseline predates the health plane; it only
                // runs with `health: None`, which never schedules a scan.
                Event::HealthScan => unreachable!("baseline runs without a health plane"),
            }
        }
        self.trace.peak_event_queue = self.queue.peak_len();
        self.trace.finish(
            self.cfg.duration_ticks,
            self.busy_nodes,
            self.batch_queue.len(),
            self.downlink_queue.len(),
            self.powered_alive >= self.cfg.required,
        );
        self.trace
    }

    fn capture_interval(&mut self, sat: usize) -> Tick {
        let draw = self.sat_rngs[sat].next_exp() * self.cfg.frame_interval_ticks;
        duration_ticks(draw)
    }

    fn imaging_window_open(&self, sat: usize) -> bool {
        let period = self.cfg.imaging_period_ticks;
        let phase = (self.now + self.sat_phases[sat]) % period;
        (phase as f64) < self.cfg.imaging_duty * period as f64
    }

    fn on_capture(&mut self, sat: u32) {
        let s = sat as usize;
        if self.imaging_window_open(s) {
            self.trace.captured += 1;
            if self.sat_rngs[s].next_f64() < self.cfg.filtering {
                self.trace.filtered_out += 1;
            } else {
                self.offer_to_isl(self.now);
            }
        }
        let dt = self.capture_interval(s);
        self.queue.push(self.now + dt, Event::Capture { sat });
    }

    fn isl_transfer_duration(&self) -> Tick {
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
        self.trace.arrived += 1;
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
                self.isl_queue.push_front(next);
                self.isl_busy = false;
            }
            None => self.isl_busy = false,
        }
        self.try_dispatch();
    }

    fn enqueue_for_batch(&mut self, capture: Tick, attempt: u32) {
        self.batch_queue.push_back(QueuedImage {
            capture,
            enqueued: self.now,
            attempt,
        });
        if let Some(f) = &self.cfg.faults {
            let limit = f.policy.batch_queue_limit;
            if limit > 0 {
                while self.batch_queue.len() > limit {
                    // Shed the oldest first: fresh imagery outranks stale.
                    self.batch_queue.pop_front();
                    self.trace.shed_batch_overflow += 1;
                }
            }
        }
        self.trace.note_batch_queue_len(self.batch_queue.len());
        self.queue
            .push(self.now + self.cfg.batch_timeout_ticks, Event::BatchTimeout);
    }

    fn on_retry(&mut self, capture: Tick, attempt: u32) {
        self.enqueue_for_batch(capture, attempt);
        self.try_dispatch();
    }

    fn capacity(&self) -> u32 {
        self.powered_alive.min(self.cfg.required)
    }

    /// The pre-rebuild O(queue) shedding scan.
    fn shed_expired(&mut self) {
        let Some(f) = self.cfg.faults else { return };
        let policy = f.policy;
        if !policy.has_deadline() {
            return;
        }
        let now = self.now;
        let before = self.batch_queue.len();
        self.batch_queue
            .retain(|img| !policy.deadline_expired(img.capture, now));
        self.trace.shed_deadline += (before - self.batch_queue.len()) as u64;
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
            let captures: Vec<(Tick, u32)> = self
                .batch_queue
                .drain(..size)
                .map(|img| (img.capture, img.attempt))
                .collect();
            if !full {
                self.trace.timeout_batches += 1;
            }
            self.trace.batches += 1;
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.in_flight[slot as usize] = Some(captures);
                    slot
                }
                None => {
                    self.in_flight.push(Some(captures));
                    (self.in_flight.len() - 1) as u32
                }
            };
            let service = duration_ticks(size as f64 * self.cfg.service_ticks_per_image);
            self.queue
                .push(self.now + service, Event::BatchDone { slot });
            self.busy_nodes += 1;
        }
    }

    fn image_corrupted(&mut self) -> bool {
        let Some(f) = self.cfg.faults else {
            return false;
        };
        let p = f.upset_probability_at(self.now);
        p > 0.0 && self.fault_rng.next_f64() < p
    }

    fn handle_corruption(&mut self, capture: Tick, attempt: u32) {
        self.trace.corrupted += 1;
        let Some(f) = self.cfg.faults else { return };
        if attempt >= f.policy.max_retries {
            self.trace.retry_exhausted += 1;
            return;
        }
        let next = attempt + 1;
        let mut delay = f.backoff_ticks(next);
        if f.policy.backoff_jitter_ticks > 0 {
            delay += self.fault_rng.next_u64() % (f.policy.backoff_jitter_ticks + 1);
        }
        self.trace.retries += 1;
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
        while self.downlink_queue.len() > limit {
            self.downlink_queue.pop_front();
            self.trace.shed_downlink_overflow += 1;
        }
    }

    fn on_batch_done(&mut self, slot: u32) {
        let captures = self.in_flight[slot as usize]
            .take()
            .expect("BatchDone for an empty slot");
        self.free_slots.push(slot);
        self.busy_nodes -= 1;
        for (capture, attempt) in captures {
            if self.image_corrupted() {
                self.handle_corruption(capture, attempt);
                continue;
            }
            self.trace.processed += 1;
            self.trace.record_processing_latency(self.now - capture);
            self.downlink_queue.push_back(capture);
        }
        self.shed_downlink_overflow();
        self.trace
            .note_downlink_queue_len(self.downlink_queue.len());
        self.try_downlink();
        self.try_dispatch();
    }

    fn in_contact(&self, tick: Tick) -> bool {
        tick % self.cfg.contact_gap_ticks < self.cfg.contact_window_ticks
    }

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
                self.trace.blackout_windows += 1;
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
        for capture in std::mem::take(&mut self.dl_group) {
            self.trace.delivered += 1;
            self.trace.record_delivery_latency(self.now - capture);
        }
        self.dl_busy = false;
        self.try_downlink();
    }

    fn on_node_failure(&mut self, node: u32) {
        if self.node_states[node as usize] != NodeState::PoweredAlive {
            return;
        }
        self.node_states[node as usize] = NodeState::Dead;
        self.powered_alive -= 1;
        self.trace.failures += 1;
        self.promote_spare();
        self.try_dispatch();
    }

    fn promote_spare(&mut self) {
        while let Some((spare, life)) = self.spares.pop_front() {
            let dormant_consumed = if self.cfg.mttf_ticks.is_finite() {
                self.cfg.dormant_aging * (self.now as f64 / self.cfg.mttf_ticks)
            } else {
                0.0
            };
            let remaining = life - dormant_consumed;
            if remaining <= 0.0 {
                self.node_states[spare as usize] = NodeState::Dead;
                self.trace.dormant_deaths += 1;
                continue;
            }
            self.node_states[spare as usize] = NodeState::PoweredAlive;
            self.powered_alive += 1;
            self.trace.promotions += 1;
            if remaining.is_finite() {
                self.queue.push(
                    self.now + duration_ticks(remaining * self.cfg.mttf_ticks),
                    Event::NodeFailure { node: spare },
                );
            }
            break;
        }
    }

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
        let major = s.major_probability > 0.0 && {
            let severity_stream = STORM_KILL_STREAM_BASE
                + storm * STORM_KILL_STREAM_STRIDE
                + (STORM_KILL_STREAM_STRIDE - 1);
            Rng64::stream(self.seed, severity_stream).next_f64() < s.major_probability
        };
        let kill_probability = s.kill_probability(major);
        for node in 0..self.cfg.nodes {
            if self.node_states[node as usize] != NodeState::PoweredAlive {
                continue;
            }
            let stream =
                STORM_KILL_STREAM_BASE + storm * STORM_KILL_STREAM_STRIDE + u64::from(node);
            if Rng64::stream(self.seed, stream).next_f64() < kill_probability {
                self.node_states[node as usize] = NodeState::Dead;
                self.powered_alive -= 1;
                self.trace.failures += 1;
                self.trace.storm_node_kills += 1;
                self.promote_spare();
            }
        }
        self.try_dispatch();
    }

    fn on_isl_link_down(&mut self, link: u32) {
        let Some(isl) = self.cfg.faults.and_then(|f| f.isl) else {
            return;
        };
        self.isl_links_up -= 1;
        self.trace.isl_flaps += 1;
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
        self.trace.record_backlog_sample(
            self.isl_queue.len() + usize::from(self.isl_busy),
            self.batch_queue.len(),
            self.downlink_queue.len() + self.dl_group.len(),
            oldest,
        );
        self.queue
            .push(self.now + self.cfg.sample_interval_ticks, Event::Sample);
    }

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
