//! Per-run metric traces and their summaries.
//!
//! A [`RunTrace`] is everything one kernel run measured: event counts,
//! per-image latency populations, exact time-weighted queue/occupancy
//! integrals (accumulated in integer arithmetic, so traces compare with
//! `==`), and periodic backlog-age samples. Summaries ([`LatencySummary`],
//! [`RunTrace::to_json`]) convert ticks to seconds only at the edge.
//!
//! A trace builds itself: it is the [`Subscriber`] the kernel publishes
//! every pipeline hop to first, and its fold turns each
//! [`sudc_bus::Sample`] into exactly one set of counter, histogram and
//! integral updates. [`crate::plane::replay`] runs the same fold, checked,
//! over a recorded log.
//!
//! Latency populations are stored as exact integer histograms
//! ([`LatencyHist`]): a dense count array for small tick values (grown
//! geometrically as a pure function of the running maximum, so the layout
//! is a function of the recorded multiset, not insertion order) plus a
//! sparse `BTreeMap` tail. Recording is O(1) and memory is bounded by the
//! latency *range*, not the image count — at 100k satellites a year-long
//! run records billions of latencies without storing any of them
//! individually, and the summary it produces is bit-identical to the old
//! sort-the-samples path.

use std::collections::BTreeMap;

use sudc_bus::{FaultKind, HealthEvent, Payload, Sample, Subscriber};
use sudc_errors::SudcError;
use sudc_par::json::{Json, ToJson};
use sudc_par::Fnv1a;

use crate::config::SimConfig;
use crate::event::Tick;

/// Nearest-rank percentile of a sorted sample set, in the sample unit.
/// Returns 0 for an empty set.
///
/// # Errors
///
/// Returns a structured error if `q` is NaN or outside `[0, 1]` — checked
/// unconditionally (this used to be a `debug_assert!`, so release builds
/// silently returned a clamped rank for garbage quantiles).
pub fn try_percentile(sorted: &[Tick], q: f64) -> Result<Tick, SudcError> {
    if !(q.is_finite() && (0.0..=1.0).contains(&q)) {
        return Err(SudcError::single(
            "percentile",
            "q",
            q,
            "a quantile in [0, 1]",
        ));
    }
    if sorted.is_empty() {
        return Ok(0);
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Panicking wrapper over [`try_percentile`] for the fixed in-crate
/// quantiles (0.50/0.95/0.99), which are always valid.
fn percentile(sorted: &[Tick], q: f64) -> Tick {
    match try_percentile(sorted, q) {
        Ok(t) => t,
        Err(e) => panic!("{e}"),
    }
}

/// Order statistics of one latency population, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    fn from_ticks(samples: &[Tick], tick_seconds: f64) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&t| u128::from(t)).sum();
        let count = sorted.len() as u64;
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sum as f64 / sorted.len() as f64 * tick_seconds
        };
        Self {
            count,
            mean,
            p50: percentile(&sorted, 0.50) as f64 * tick_seconds,
            p95: percentile(&sorted, 0.95) as f64 * tick_seconds,
            p99: percentile(&sorted, 0.99) as f64 * tick_seconds,
            max: sorted.last().copied().unwrap_or(0) as f64 * tick_seconds,
        }
    }
}

impl LatencySummary {
    /// Fallible JSON form: the sample count goes through the checked
    /// `u64 → f64` conversion, so a count above 2^53 errors instead of
    /// silently losing precision.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `count` exceeds
    /// [`sudc_par::json::MAX_EXACT_JSON_INT`].
    pub fn try_to_json(&self) -> Result<Json, SudcError> {
        Ok(Json::object()
            .with("count", Json::try_from(self.count)?)
            .with("mean_s", self.mean)
            .with("p50_s", self.p50)
            .with("p95_s", self.p95)
            .with("p99_s", self.p99)
            .with("max_s", self.max))
    }
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> Json {
        match self.try_to_json() {
            Ok(j) => j,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Tick values below this are counted in the dense histogram array; the
/// long tail lives in the sparse map.
const DENSE_LIMIT: usize = 1 << 16;

/// Exact streaming histogram of integer tick samples.
///
/// Semantically a multiset of `Tick`s: recording is O(1), and
/// [`LatencyHist::summary`] reproduces `LatencySummary::from_ticks` over
/// the equivalent sample vector bit for bit (same nearest-rank
/// percentiles, same `sum / count` mean).
///
/// Equality is multiset equality: the dense array's length is a pure
/// function of the largest small sample seen (geometric growth, capped at
/// `DENSE_LIMIT`), so two histograms of the same samples compare equal
/// regardless of recording order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyHist {
    dense: Vec<u64>,
    sparse: BTreeMap<Tick, u64>,
    count: u64,
    sum: u128,
    max: Tick,
}

impl LatencyHist {
    /// Records one sample.
    pub fn record(&mut self, ticks: Tick) {
        self.count += 1;
        self.sum += u128::from(ticks);
        self.max = self.max.max(ticks);
        let t = ticks as usize;
        if t < DENSE_LIMIT {
            if t >= self.dense.len() {
                let target = (t + 1).next_power_of_two().min(DENSE_LIMIT);
                self.dense.resize(target.max(self.dense.len()), 0);
            }
            self.dense[t] += 1;
        } else {
            *self.sparse.entry(ticks).or_insert(0) += 1;
        }
    }

    /// The `k`-th smallest sample (0-indexed). Requires `k < count`.
    fn kth(&self, k: u64) -> Tick {
        let mut cumulative = 0u64;
        for (t, &n) in self.dense.iter().enumerate() {
            cumulative += n;
            if cumulative > k {
                return t as Tick;
            }
        }
        for (&t, &n) in &self.sparse {
            cumulative += n;
            if cumulative > k {
                return t;
            }
        }
        debug_assert!(false, "rank {k} out of range (count {})", self.count);
        self.max
    }

    /// Folds every field `==` compares into `h`: the dense array's
    /// length and counts, the sparse tail, count, sum and max.
    fn hash_into(&self, h: &mut Fnv1a) {
        let Self {
            dense,
            sparse,
            count,
            sum,
            max,
        } = self;
        h.write_u64(dense.len() as u64);
        for &n in dense {
            h.write_u64(n);
        }
        h.write_u64(sparse.len() as u64);
        for (&t, &n) in sparse {
            h.write_u64(t);
            h.write_u64(n);
        }
        h.write_u64(*count);
        h.write_bytes(&sum.to_le_bytes());
        h.write_u64(*max);
    }

    /// Nearest-rank order statistic matching [`try_percentile`] exactly:
    /// `rank = ceil(q * count)`, clamped into range.
    fn percentile(&self, q: f64) -> Tick {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        self.kth(rank.saturating_sub(1).min(self.count - 1))
    }

    /// Fraction of recorded samples at or below `ticks` (1 for an empty
    /// histogram: a vacuously met bound, matching
    /// [`RunTrace::delivered_fraction`]'s empty-pipeline convention).
    #[must_use]
    pub fn fraction_within(&self, ticks: Tick) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let mut within = 0u64;
        for (t, &n) in self.dense.iter().enumerate() {
            if t as Tick > ticks {
                break;
            }
            within += n;
        }
        within += self.sparse.range(..=ticks).map(|(_, &n)| n).sum::<u64>();
        within as f64 / self.count as f64
    }

    /// Summary statistics in seconds, bit-identical to
    /// `LatencySummary::from_ticks` over the same samples.
    #[must_use]
    pub fn summary(&self, tick_seconds: f64) -> LatencySummary {
        let mean = if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64 * tick_seconds
        };
        LatencySummary {
            count: self.count,
            mean,
            p50: self.percentile(0.50) as f64 * tick_seconds,
            p95: self.percentile(0.95) as f64 * tick_seconds,
            p99: self.percentile(0.99) as f64 * tick_seconds,
            max: if self.count == 0 { 0 } else { self.max } as f64 * tick_seconds,
        }
    }
}

/// One periodic backlog sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BacklogSample {
    /// Sample time.
    tick: Tick,
    /// Images in or awaiting ISL transfer.
    isl_items: usize,
    /// Images awaiting batch dispatch.
    batch_items: usize,
    /// Insights in or awaiting downlink.
    downlink_items: usize,
    /// Age of the oldest unfinished image, ticks (`None` if the pipeline
    /// is empty).
    oldest_age: Option<Tick>,
}

/// The complete measurement record of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    tick_seconds: f64,
    duration_ticks: Tick,
    required: u32,

    /// Frames captured inside imaging windows.
    pub captured: u64,
    /// Frames discarded by edge filtering.
    pub filtered_out: u64,
    /// Frames offered to the ISL (captured − filtered).
    pub arrived: u64,
    /// Frames whose compute batch completed.
    pub processed: u64,
    /// Insights delivered to the ground.
    pub delivered: u64,
    /// Compute batches dispatched.
    pub batches: u64,
    /// Batches dispatched under-full by the staleness timeout.
    pub timeout_batches: u64,
    /// Powered-node failures.
    pub failures: u64,
    /// Cold spares promoted to powered service.
    pub promotions: u64,
    /// Cold spares found dead (dormant aging) at promotion time.
    pub dormant_deaths: u64,

    /// Images whose processing an SEU corrupted (fault injection only).
    pub corrupted: u64,
    /// Reprocessing attempts scheduled after corruption.
    pub retries: u64,
    /// Images abandoned after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// Images shed by the bounded batch queue (oldest-first overflow).
    pub shed_batch_overflow: u64,
    /// Insights shed by the bounded downlink queue.
    pub shed_downlink_overflow: u64,
    /// Images shed for missing the freshness deadline.
    pub shed_deadline: u64,
    /// Powered nodes destroyed by storm latch-up shocks.
    pub storm_node_kills: u64,
    /// ISL link down-transitions (flaps).
    pub isl_flaps: u64,
    /// Ground-contact windows lost to blackouts.
    pub blackout_windows: u64,
    /// Whether fault injection was configured for this run. Gates the
    /// `faults` JSON block so fault-free artifacts stay byte-identical to
    /// the pre-fault-injection format.
    faults_enabled: bool,

    /// Heartbeats the failure detector observed (health plane only).
    pub heartbeats: u64,
    /// ALIVE → SUSPECT transitions declared by the detector.
    pub suspects: u64,
    /// SUSPECT nodes exonerated by a late heartbeat.
    pub false_suspects: u64,
    /// SUSPECT → DEAD declarations (quarantines).
    pub detections: u64,
    /// Quarantined nodes readmitted after probation.
    pub readmissions: u64,
    /// Whether the closed-loop health plane was configured. Gates the
    /// `health` JSON block so health-free artifacts stay byte-identical
    /// to the pre-health-plane format.
    health_enabled: bool,
    detection_latencies: LatencyHist,

    /// Events the kernel loop handled (throughput diagnostic; neither
    /// serialized nor fingerprinted, so artifacts and pins are unchanged
    /// by its presence, but compared by `==`).
    pub events: u64,
    /// High-water mark of the scheduler's pending-event count
    /// (diagnostic; neither serialized nor fingerprinted).
    pub peak_event_queue: usize,

    processing_latencies: LatencyHist,
    delivery_latencies: LatencyHist,
    samples: Vec<BacklogSample>,

    // Exact time-weighted integrals, advanced by the kernel event loop.
    last_tick: Tick,
    busy_node_ticks: u128,
    batch_queue_ticks: u128,
    downlink_queue_ticks: u128,
    full_capability_ticks: u64,
    max_batch_queue: usize,
    max_downlink_queue: usize,
    end_full_capability: bool,
    finished: bool,
}

impl RunTrace {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Self {
            tick_seconds: cfg.tick_seconds,
            duration_ticks: cfg.duration_ticks,
            required: cfg.required,
            captured: 0,
            filtered_out: 0,
            arrived: 0,
            processed: 0,
            delivered: 0,
            batches: 0,
            timeout_batches: 0,
            failures: 0,
            promotions: 0,
            dormant_deaths: 0,
            corrupted: 0,
            retries: 0,
            retry_exhausted: 0,
            shed_batch_overflow: 0,
            shed_downlink_overflow: 0,
            shed_deadline: 0,
            storm_node_kills: 0,
            isl_flaps: 0,
            blackout_windows: 0,
            faults_enabled: cfg.faults.is_some(),
            heartbeats: 0,
            suspects: 0,
            false_suspects: 0,
            detections: 0,
            readmissions: 0,
            health_enabled: cfg.health.is_some(),
            detection_latencies: LatencyHist::default(),
            events: 0,
            peak_event_queue: 0,
            processing_latencies: LatencyHist::default(),
            delivery_latencies: LatencyHist::default(),
            samples: Vec::new(),
            last_tick: 0,
            busy_node_ticks: 0,
            batch_queue_ticks: 0,
            downlink_queue_ticks: 0,
            full_capability_ticks: 0,
            max_batch_queue: 0,
            max_downlink_queue: 0,
            end_full_capability: true,
            finished: false,
        }
    }

    /// Integrates the time-weighted state from `last_tick` to `tick`.
    fn advance_to(
        &mut self,
        tick: Tick,
        busy_nodes: u32,
        batch_queue: usize,
        downlink_queue: usize,
        full_capability: bool,
    ) {
        debug_assert!(tick >= self.last_tick, "event time went backwards");
        let dt = tick - self.last_tick;
        if dt > 0 {
            self.busy_node_ticks += u128::from(dt) * u128::from(busy_nodes);
            self.batch_queue_ticks += u128::from(dt) * batch_queue as u128;
            self.downlink_queue_ticks += u128::from(dt) * downlink_queue as u128;
            if full_capability {
                self.full_capability_ticks += dt;
            }
            self.last_tick = tick;
        }
    }

    /// Folds one sample into the trace. The live kernel's stream is
    /// well-formed by construction and folds with `CHECKED = false`;
    /// [`crate::plane::replay`] folds a log from outside with `CHECKED =
    /// true`, which turns a counter overflow or a backwards integration
    /// into an error. Inlined so the replay loop's payload match merges
    /// with the decoder's tag dispatch.
    #[inline(always)]
    pub(crate) fn apply<const CHECKED: bool>(&mut self, s: &Sample) -> Result<(), SudcError> {
        // Adds to a trace counter; checked, an overflow is an error.
        macro_rules! add {
            ($counter:ident, $count:expr) => {
                add_count::<CHECKED>(&mut self.$counter, $count, stringify!($counter), s)?
            };
        }
        match s.payload {
            Payload::Capture { filtered, .. } => {
                self.captured += 1;
                if filtered {
                    self.filtered_out += 1;
                } else {
                    self.arrived += 1;
                }
            }
            Payload::Processed { capture } => {
                self.processed += 1;
                self.processing_latencies.record(s.tick - capture);
            }
            Payload::Delivered { capture } => {
                self.delivered += 1;
                self.delivery_latencies.record(s.tick - capture);
            }
            Payload::Settle {
                events,
                busy,
                batch_queue,
                downlink_queue,
                full,
            } => {
                if CHECKED && s.tick < self.last_tick {
                    return Err(backwards(s, "Settle tick", s.tick, self.last_tick));
                }
                self.advance_to(
                    s.tick,
                    busy,
                    batch_queue as usize,
                    downlink_queue as usize,
                    full,
                );
                add!(events, events);
            }
            Payload::QueueDepth { downlink, len } => {
                let max = if downlink {
                    &mut self.max_downlink_queue
                } else {
                    &mut self.max_batch_queue
                };
                *max = (*max).max(len as usize);
            }
            Payload::Backlog {
                isl,
                batch,
                downlink,
                oldest_age,
            } => self.samples.push(BacklogSample {
                tick: s.tick,
                isl_items: isl as usize,
                batch_items: batch as usize,
                downlink_items: downlink as usize,
                oldest_age,
            }),
            Payload::BatchDispatched { timeout, .. } => {
                if timeout {
                    self.timeout_batches += 1;
                }
                self.batches += 1;
            }
            Payload::Finish {
                busy,
                batch_queue,
                downlink_queue,
                full,
                peak_event_queue,
            } => {
                if CHECKED && self.duration_ticks < self.last_tick {
                    return Err(backwards(
                        s,
                        "Finish duration_ticks",
                        self.duration_ticks,
                        self.last_tick,
                    ));
                }
                self.peak_event_queue = peak_event_queue as usize;
                self.advance_to(
                    self.duration_ticks,
                    busy,
                    batch_queue as usize,
                    downlink_queue as usize,
                    full,
                );
                self.end_full_capability = full;
                self.finished = true;
            }
            Payload::Fault { kind, count } => match kind {
                FaultKind::BatchOverflow => add!(shed_batch_overflow, count),
                FaultKind::DownlinkOverflow => add!(shed_downlink_overflow, count),
                FaultKind::DeadlineShed => add!(shed_deadline, count),
                FaultKind::Corrupted => add!(corrupted, count),
                FaultKind::Retry => add!(retries, count),
                FaultKind::RetryExhausted => add!(retry_exhausted, count),
                FaultKind::NodeFailure => add!(failures, count),
                FaultKind::Promotion => add!(promotions, count),
                FaultKind::DormantDeath => add!(dormant_deaths, count),
                FaultKind::StormKill => {
                    // A storm latch-up is both a node failure and a storm
                    // statistic — one event, two counters.
                    add!(failures, count);
                    add!(storm_node_kills, count);
                }
                FaultKind::IslFlap => add!(isl_flaps, count),
                FaultKind::Blackout => add!(blackout_windows, count),
            },
            Payload::Heartbeat { .. } => self.heartbeats += 1,
            Payload::Health { event, value, .. } => match event {
                HealthEvent::Suspect => self.suspects += 1,
                HealthEvent::FalseSuspect => self.false_suspects += 1,
                HealthEvent::Dead => {
                    self.detections += 1;
                    // `value` carries the ground-truth failure → DEAD
                    // declaration gap, so replay reproduces the latency
                    // population without re-running the detector.
                    self.detection_latencies.record(value);
                }
                HealthEvent::Readmit => self.readmissions += 1,
            },
        }
        Ok(())
    }

    /// Simulated span, seconds.
    #[must_use]
    pub fn duration_seconds(&self) -> f64 {
        self.duration_ticks as f64 * self.tick_seconds
    }

    /// Capture → batch-complete latency statistics.
    #[must_use]
    pub fn processing_latency(&self) -> LatencySummary {
        self.processing_latencies.summary(self.tick_seconds)
    }

    /// Capture → ground-delivery latency statistics (dominated by contact
    /// waits; compare scenarios on [`RunTrace::processing_latency`]).
    #[must_use]
    pub fn delivery_latency(&self) -> LatencySummary {
        self.delivery_latencies.summary(self.tick_seconds)
    }

    /// Fraction of delivered insights whose capture → ground-delivery
    /// latency met `deadline` seconds (1 when nothing was delivered — a
    /// vacuously met SLO, matching [`RunTrace::delivered_fraction`]).
    /// The router's replay loop scores its placement decisions with this
    /// against the shared freshness deadline.
    #[must_use]
    pub fn delivery_within(&self, deadline: sudc_units::Seconds) -> f64 {
        let ticks = (deadline.value() / self.tick_seconds).floor() as Tick;
        self.delivery_latencies.fraction_within(ticks)
    }

    /// Fraction of the run with `required` healthy powered nodes.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.full_capability_ticks as f64 / self.duration_ticks as f64
    }

    /// Whether the run *ended* at full capability (the estimator matched
    /// by the analytic `NodePool::availability(t)` bound).
    #[must_use]
    pub fn ends_at_full_capability(&self) -> bool {
        self.end_full_capability
    }

    /// Time-average busy fraction of the required compute nodes.
    #[must_use]
    pub fn compute_utilization(&self) -> f64 {
        self.busy_node_ticks as f64 / (self.duration_ticks as f64 * f64::from(self.required))
    }

    /// Time-average images awaiting batch dispatch.
    #[must_use]
    pub fn mean_batch_queue(&self) -> f64 {
        self.batch_queue_ticks as f64 / self.duration_ticks as f64
    }

    /// Largest instantaneous batch queue.
    #[must_use]
    pub fn max_batch_queue(&self) -> usize {
        self.max_batch_queue
    }

    /// Time-average insights awaiting downlink.
    #[must_use]
    pub fn mean_downlink_backlog(&self) -> f64 {
        self.downlink_queue_ticks as f64 / self.duration_ticks as f64
    }

    /// Largest instantaneous downlink backlog.
    #[must_use]
    pub fn max_downlink_backlog(&self) -> usize {
        self.max_downlink_queue
    }

    /// Delivered insights per simulated hour.
    #[must_use]
    pub fn delivered_per_hour(&self) -> f64 {
        self.delivered as f64 / (self.duration_seconds() / 3600.0)
    }

    /// Fraction of work offered to the pipeline (post-filter arrivals)
    /// that reached the ground: the resilience headline metric. 1 when
    /// nothing arrived (an empty pipeline delivers all of nothing).
    #[must_use]
    pub fn delivered_fraction(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            self.delivered as f64 / self.arrived as f64
        }
    }

    /// Ground-truth failure → DEAD declaration latency statistics
    /// (health plane only; empty otherwise).
    #[must_use]
    pub fn detection_latency(&self) -> LatencySummary {
        self.detection_latencies.summary(self.tick_seconds)
    }

    /// Fraction of the detector's suspicions that a live node later
    /// refuted (0 when nothing was ever suspected — a clean detector).
    #[must_use]
    pub fn false_suspicion_rate(&self) -> f64 {
        if self.suspects == 0 {
            0.0
        } else {
            self.false_suspects as f64 / self.suspects as f64
        }
    }

    /// Backlog-age statistics over the periodic samples, seconds (empty
    /// pipeline samples count as age 0).
    #[must_use]
    pub fn backlog_age(&self) -> LatencySummary {
        let ages: Vec<Tick> = self
            .samples
            .iter()
            .map(|s| s.oldest_age.unwrap_or(0))
            .collect();
        LatencySummary::from_ticks(&ages, self.tick_seconds)
    }
}

impl RunTrace {
    /// Fallible JSON form: every `u64` event counter goes through the
    /// checked `u64 → f64` conversion, so a counter above 2^53 errors
    /// instead of silently losing precision in the emitted artifact.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming the first counter that exceeds
    /// [`sudc_par::json::MAX_EXACT_JSON_INT`].
    pub fn try_to_json(&self) -> Result<Json, SudcError> {
        debug_assert!(self.finished, "serializing an unfinished trace");
        let mut json = Json::object()
            .with("duration_s", self.duration_seconds())
            .with("captured", Json::try_from(self.captured)?)
            .with("filtered_out", Json::try_from(self.filtered_out)?)
            .with("arrived", Json::try_from(self.arrived)?)
            .with("processed", Json::try_from(self.processed)?)
            .with("delivered", Json::try_from(self.delivered)?)
            .with("batches", Json::try_from(self.batches)?)
            .with("timeout_batches", Json::try_from(self.timeout_batches)?)
            .with("failures", Json::try_from(self.failures)?)
            .with("promotions", Json::try_from(self.promotions)?)
            .with("dormant_deaths", Json::try_from(self.dormant_deaths)?)
            .with(
                "processing_latency",
                self.processing_latency().try_to_json()?,
            )
            .with("delivery_latency", self.delivery_latency().try_to_json()?)
            .with("backlog_age", self.backlog_age().try_to_json()?)
            .with("availability", self.availability())
            .with("ends_at_full_capability", self.end_full_capability)
            .with("compute_utilization", self.compute_utilization())
            .with("mean_batch_queue", self.mean_batch_queue())
            .with(
                "max_batch_queue",
                Json::try_from(self.max_batch_queue as u64)?,
            )
            .with("mean_downlink_backlog", self.mean_downlink_backlog())
            .with(
                "max_downlink_backlog",
                Json::try_from(self.max_downlink_queue as u64)?,
            )
            .with("delivered_per_hour", self.delivered_per_hour());
        // Only fault-injected runs carry the fault block: fault-free
        // artifacts (e.g. results/sim.txt) must stay byte-identical to the
        // pre-fault-injection format.
        if self.faults_enabled {
            json = json.with(
                "faults",
                Json::object()
                    .with("delivered_fraction", self.delivered_fraction())
                    .with("corrupted", Json::try_from(self.corrupted)?)
                    .with("retries", Json::try_from(self.retries)?)
                    .with("retry_exhausted", Json::try_from(self.retry_exhausted)?)
                    .with(
                        "shed_batch_overflow",
                        Json::try_from(self.shed_batch_overflow)?,
                    )
                    .with(
                        "shed_downlink_overflow",
                        Json::try_from(self.shed_downlink_overflow)?,
                    )
                    .with("shed_deadline", Json::try_from(self.shed_deadline)?)
                    .with("storm_node_kills", Json::try_from(self.storm_node_kills)?)
                    .with("isl_flaps", Json::try_from(self.isl_flaps)?)
                    .with("blackout_windows", Json::try_from(self.blackout_windows)?),
            );
        }
        // Likewise, only health-plane runs carry the health block.
        if self.health_enabled {
            json = json.with(
                "health",
                Json::object()
                    .with("heartbeats", Json::try_from(self.heartbeats)?)
                    .with("suspects", Json::try_from(self.suspects)?)
                    .with("false_suspects", Json::try_from(self.false_suspects)?)
                    .with("detections", Json::try_from(self.detections)?)
                    .with("readmissions", Json::try_from(self.readmissions)?)
                    .with("false_suspicion_rate", self.false_suspicion_rate())
                    .with("detection_latency", self.detection_latency().try_to_json()?),
            );
        }
        Ok(json)
    }
}

impl RunTrace {
    /// FNV-1a digest of every field that `==` compares except the two
    /// diagnostics, `events` and `peak_event_queue`: counters, each
    /// latency histogram bucket by bucket, every backlog sample and the
    /// raw time-weighted integrals. Two traces that compare equal have
    /// the same fingerprint; any drift in any of those fields moves it.
    /// The diagnostics describe how the kernel got to the trace, not the
    /// trace: a kernel that handles fewer events to reach the same
    /// model state keeps every fingerprint. `==` still compares them, so
    /// record → replay must agree on them too.
    /// [`RunTrace::try_to_json`] is a summary and is not a substitute:
    /// it omits the diagnostics and reduces histograms to percentiles,
    /// samples to an age summary and integrals to means.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructuring: a new field fails to compile until
        // it is hashed, or deliberately skipped, here.
        let Self {
            tick_seconds,
            duration_ticks,
            required,
            captured,
            filtered_out,
            arrived,
            processed,
            delivered,
            batches,
            timeout_batches,
            failures,
            promotions,
            dormant_deaths,
            corrupted,
            retries,
            retry_exhausted,
            shed_batch_overflow,
            shed_downlink_overflow,
            shed_deadline,
            storm_node_kills,
            isl_flaps,
            blackout_windows,
            faults_enabled,
            heartbeats,
            suspects,
            false_suspects,
            detections,
            readmissions,
            health_enabled,
            detection_latencies,
            events: _,
            peak_event_queue: _,
            processing_latencies,
            delivery_latencies,
            samples,
            last_tick,
            busy_node_ticks,
            batch_queue_ticks,
            downlink_queue_ticks,
            full_capability_ticks,
            max_batch_queue,
            max_downlink_queue,
            end_full_capability,
            finished,
        } = self;
        let mut h = Fnv1a::new();
        for v in [
            tick_seconds.to_bits(),
            *duration_ticks,
            u64::from(*required),
            *captured,
            *filtered_out,
            *arrived,
            *processed,
            *delivered,
            *batches,
            *timeout_batches,
            *failures,
            *promotions,
            *dormant_deaths,
            *corrupted,
            *retries,
            *retry_exhausted,
            *shed_batch_overflow,
            *shed_downlink_overflow,
            *shed_deadline,
            *storm_node_kills,
            *isl_flaps,
            *blackout_windows,
            u64::from(*faults_enabled),
            *heartbeats,
            *suspects,
            *false_suspects,
            *detections,
            *readmissions,
            u64::from(*health_enabled),
            *last_tick,
            *full_capability_ticks,
            *max_batch_queue as u64,
            *max_downlink_queue as u64,
            u64::from(*end_full_capability),
            u64::from(*finished),
        ] {
            h.write_u64(v);
        }
        for integral in [busy_node_ticks, batch_queue_ticks, downlink_queue_ticks] {
            h.write_bytes(&integral.to_le_bytes());
        }
        for hist in [
            detection_latencies,
            processing_latencies,
            delivery_latencies,
        ] {
            hist.hash_into(&mut h);
        }
        h.write_u64(samples.len() as u64);
        for sample in samples {
            let BacklogSample {
                tick,
                isl_items,
                batch_items,
                downlink_items,
                oldest_age,
            } = *sample;
            for v in [
                tick,
                isl_items as u64,
                batch_items as u64,
                downlink_items as u64,
                u64::from(oldest_age.is_some()),
                oldest_age.unwrap_or(0),
            ] {
                h.write_u64(v);
            }
        }
        h.finish()
    }
}

/// The kernel's first subscriber: every published sample folds straight
/// into the trace.
impl Subscriber for RunTrace {
    #[inline]
    fn deliver(&mut self, sample: &Sample) {
        // Unchecked: the fold cannot fail.
        let _ = self.apply::<false>(sample);
    }
}

/// Adds `count` to a trace counter; checked, an overflow is an error
/// naming the counter and the sample that carried it.
#[inline(always)]
fn add_count<const CHECKED: bool>(
    counter: &mut u64,
    count: u64,
    name: &'static str,
    s: &Sample,
) -> Result<(), SudcError> {
    if CHECKED {
        match counter.checked_add(count) {
            Some(sum) => *counter = sum,
            None => return Err(overflow(s, name, count, *counter)),
        }
    } else {
        *counter += count;
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn overflow(s: &Sample, name: &str, count: u64, total: u64) -> SudcError {
    SudcError::single(
        "replay",
        format!("{name} (record at tick {})", s.tick),
        count,
        format!("a count that keeps the total ({total}) within u64"),
    )
}

#[cold]
#[inline(never)]
fn backwards(s: &Sample, target: &str, to: Tick, integrated: Tick) -> SudcError {
    SudcError::single(
        "replay",
        format!("{target} (record at tick {})", s.tick),
        to,
        format!("a tick no earlier than the trace's integrated time ({integrated})"),
    )
}

impl ToJson for RunTrace {
    fn to_json(&self) -> Json {
        match self.try_to_json() {
            Ok(j) => j,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<Tick> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn percentile_rejects_bad_quantiles_even_in_release() {
        // Regression: the q-range check was a debug_assert!, so release
        // builds silently clamped garbage quantiles.
        for q in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            let err = try_percentile(&[1, 2, 3], q).unwrap_err();
            assert!(err.to_string().contains('q'), "{err}");
        }
        assert_eq!(try_percentile(&[1, 2, 3], 1.0).unwrap(), 3);
    }

    #[test]
    fn fraction_within_counts_dense_and_sparse_samples() {
        let mut hist = LatencyHist::default();
        assert!((hist.fraction_within(0) - 1.0).abs() < 1e-12, "vacuous");
        // Dense samples plus two far in the sparse tail.
        for t in [1u64, 2, 3, 4] {
            hist.record(t);
        }
        hist.record(5_000_000);
        hist.record(6_000_000);
        assert!((hist.fraction_within(0) - 0.0).abs() < 1e-12);
        assert!((hist.fraction_within(2) - 2.0 / 6.0).abs() < 1e-12);
        assert!((hist.fraction_within(4) - 4.0 / 6.0).abs() < 1e-12);
        assert!((hist.fraction_within(5_000_000) - 5.0 / 6.0).abs() < 1e-12);
        assert!((hist.fraction_within(u64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_converts_ticks_to_seconds() {
        let s = LatencySummary::from_ticks(&[10, 20, 30, 40], 0.5);
        assert_eq!(s.count, 4);
        assert!((s.mean - 12.5).abs() < 1e-12);
        assert!((s.p50 - 10.0).abs() < 1e-12);
        assert!((s.max - 20.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_summary_is_bit_identical_to_the_sorted_path() {
        // Deterministic pseudo-random samples spanning the dense array,
        // its growth boundaries, and the sparse tail.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut samples: Vec<Tick> = Vec::new();
        let mut hist = LatencyHist::default();
        for i in 0..10_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let t = match i % 7 {
                0 => state % 4,                                // tiny, heavy ties
                1..=4 => state % 1000,                         // dense bulk
                5 => state % (DENSE_LIMIT as u64 * 2),         // straddles the limit
                _ => (DENSE_LIMIT as u64) + state % (1 << 40), // sparse tail
            };
            samples.push(t);
            hist.record(t);
        }
        for tick_seconds in [0.1, 1.0, 2.0] {
            let expected = LatencySummary::from_ticks(&samples, tick_seconds);
            let got = hist.summary(tick_seconds);
            assert_eq!(got.count, expected.count);
            assert_eq!(got.mean.to_bits(), expected.mean.to_bits());
            assert_eq!(got.p50.to_bits(), expected.p50.to_bits());
            assert_eq!(got.p95.to_bits(), expected.p95.to_bits());
            assert_eq!(got.p99.to_bits(), expected.p99.to_bits());
            assert_eq!(got.max.to_bits(), expected.max.to_bits());
        }
    }

    #[test]
    fn histogram_equality_is_insertion_order_independent() {
        let samples: [Tick; 6] = [70_000, 3, 900, 3, 12, 70_000];
        let mut forward = LatencyHist::default();
        let mut reverse = LatencyHist::default();
        for &t in &samples {
            forward.record(t);
        }
        for &t in samples.iter().rev() {
            reverse.record(t);
        }
        assert_eq!(forward, reverse);
        assert_eq!(forward.summary(1.0).count, 6);
    }

    #[test]
    fn empty_histogram_matches_the_empty_sorted_path() {
        let hist = LatencyHist::default();
        let expected = LatencySummary::from_ticks(&[], 0.1);
        assert_eq!(hist.summary(0.1), expected);
    }

    /// Delivers one sample to `t`.
    fn fold(t: &mut RunTrace, tick: Tick, payload: Payload) {
        t.deliver(&Sample { tick, payload });
    }

    /// Ends `t`'s run idle and at full capability.
    fn finish(t: &mut RunTrace) {
        let end = t.duration_ticks;
        fold(
            t,
            end,
            Payload::Finish {
                busy: 0,
                batch_queue: 0,
                downlink_queue: 0,
                full: true,
                peak_event_queue: 0,
            },
        );
    }

    #[test]
    fn fingerprint_sees_what_the_json_summary_hides() {
        let cfg = crate::config::SimConfig::reference_operations(sudc_units::Seconds::new(60.0));
        // 100 samples of 50 ticks plus two more: {10, 30} in one trace,
        // {20, 20} in the other. Count, sum (so the mean), every
        // nearest-rank percentile and the max agree; the buckets do not.
        let trace = |extra: [Tick; 2]| {
            let mut t = RunTrace::new(&cfg);
            for ticks in std::iter::repeat_n(50, 100).chain(extra) {
                fold(&mut t, ticks, Payload::Processed { capture: 0 });
            }
            finish(&mut t);
            t
        };
        let base = trace([10, 30]);
        let json = |t: &RunTrace| t.try_to_json().unwrap().to_string_compact();

        let moved = trace([20, 20]);
        assert_ne!(moved, base);
        assert_eq!(json(&moved), json(&base));
        assert_ne!(moved.fingerprint(), base.fingerprint());

        // The diagnostics are in neither the JSON nor the fingerprint,
        // but `==` still sees them, so record → replay must agree on
        // them.
        let mut busier = base.clone();
        busier.events += 1;
        let mut deeper = base.clone();
        deeper.peak_event_queue += 1;
        for diagnosed in [busier, deeper] {
            assert_ne!(diagnosed, base);
            assert_eq!(json(&diagnosed), json(&base));
            assert_eq!(diagnosed.fingerprint(), base.fingerprint());
        }

        // Nor is a detection latency when the health plane is off.
        let mut detected = base.clone();
        let dead = Payload::Health {
            event: HealthEvent::Dead,
            node: 0,
            value: 7,
        };
        fold(&mut detected, cfg.duration_ticks, dead);
        assert_eq!(json(&detected), json(&base));
        assert_ne!(detected.fingerprint(), base.fingerprint());

        assert_eq!(base.clone().fingerprint(), base.fingerprint());
    }

    #[test]
    fn integrals_are_time_weighted() {
        let cfg = crate::config::SimConfig::try_cold_spare_mission(2, 1, 0.0, 1.0).unwrap();
        let mut t = RunTrace::new(&cfg);
        let d = cfg.duration_ticks;
        // Busy for the first half, idle for the second.
        let busy = Payload::Settle {
            events: 0,
            busy: 1,
            batch_queue: 4,
            downlink_queue: 0,
            full: true,
        };
        fold(&mut t, d / 2, busy);
        finish(&mut t);
        assert!((t.compute_utilization() - 0.5).abs() < 1e-9);
        assert!((t.mean_batch_queue() - 2.0).abs() < 1e-9);
        assert!((t.availability() - 1.0).abs() < 1e-12);
    }
}
