//! Per-run metric traces and their summaries.
//!
//! A [`RunTrace`] is everything one kernel run measured: event counts,
//! per-image latency populations, exact time-weighted queue/occupancy
//! integrals (accumulated in integer arithmetic, so traces compare with
//! `==`), and periodic backlog-age samples. Summaries ([`LatencySummary`],
//! [`RunTrace::to_json`]) convert ticks to seconds only at the edge.
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

use sudc_errors::SudcError;
use sudc_par::json::{Json, ToJson};

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

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
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
pub struct BacklogSample {
    /// Sample time.
    pub tick: Tick,
    /// Images in or awaiting ISL transfer.
    pub isl_items: usize,
    /// Images awaiting batch dispatch.
    pub batch_items: usize,
    /// Insights in or awaiting downlink.
    pub downlink_items: usize,
    /// Age of the oldest unfinished image, ticks (`None` if the pipeline
    /// is empty).
    pub oldest_age: Option<Tick>,
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

    /// Events the kernel loop handled (throughput diagnostic; never
    /// serialized, so artifacts are unchanged by its presence).
    pub events: u64,
    /// High-water mark of the scheduler's pending-event count
    /// (diagnostic; never serialized).
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
    pub(crate) fn advance_to(
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

    pub(crate) fn finish(
        &mut self,
        duration: Tick,
        busy_nodes: u32,
        batch_queue: usize,
        downlink_queue: usize,
        full_capability: bool,
    ) {
        self.advance_to(
            duration,
            busy_nodes,
            batch_queue,
            downlink_queue,
            full_capability,
        );
        self.end_full_capability = full_capability;
        self.finished = true;
    }

    pub(crate) fn record_processing_latency(&mut self, ticks: Tick) {
        self.processing_latencies.record(ticks);
    }

    pub(crate) fn record_delivery_latency(&mut self, ticks: Tick) {
        self.delivery_latencies.record(ticks);
    }

    pub(crate) fn record_detection_latency(&mut self, ticks: Tick) {
        self.detection_latencies.record(ticks);
    }

    pub(crate) fn note_batch_queue_len(&mut self, len: usize) {
        self.max_batch_queue = self.max_batch_queue.max(len);
    }

    pub(crate) fn note_downlink_queue_len(&mut self, len: usize) {
        self.max_downlink_queue = self.max_downlink_queue.max(len);
    }

    pub(crate) fn record_backlog_sample(
        &mut self,
        isl_items: usize,
        batch_items: usize,
        downlink_items: usize,
        oldest_age: Option<Tick>,
    ) {
        self.samples.push(BacklogSample {
            tick: self.last_tick,
            isl_items,
            batch_items,
            downlink_items,
            oldest_age,
        });
    }

    /// Physical length of one tick, seconds.
    #[must_use]
    pub fn tick_seconds(&self) -> f64 {
        self.tick_seconds
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

    /// Whether fault injection was configured for this run.
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults_enabled
    }

    /// Whether the closed-loop health plane was configured for this run.
    #[must_use]
    pub fn health_enabled(&self) -> bool {
        self.health_enabled
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

    /// The periodic backlog samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[BacklogSample] {
        &self.samples
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
        assert_eq!(forward.count(), 6);
    }

    #[test]
    fn empty_histogram_matches_the_empty_sorted_path() {
        let hist = LatencyHist::default();
        let expected = LatencySummary::from_ticks(&[], 0.1);
        assert_eq!(hist.summary(0.1), expected);
    }

    #[test]
    fn integrals_are_time_weighted() {
        let cfg = crate::config::SimConfig::try_cold_spare_mission(2, 1, 0.0, 1.0).unwrap();
        let mut t = RunTrace::new(&cfg);
        let d = cfg.duration_ticks;
        // Busy for the first half, idle for the second.
        t.advance_to(d / 2, 1, 4, 0, true);
        t.finish(d, 0, 0, 0, true);
        assert!((t.compute_utilization() - 0.5).abs() < 1e-9);
        assert!((t.mean_batch_queue() - 2.0).abs() < 1e-9);
        assert!((t.availability() - 1.0).abs() < 1e-12);
    }
}
