//! Seeded replication: the common-random-numbers (CRN) grid every seeded
//! study runs through, bit-identical at any thread count.
//!
//! [`try_replicate_grid`] runs `reps` replications of each configuration
//! in a list of grid cells. Replication `r` draws the *same* seed,
//! `Rng64::stream(base_seed, r).next_u64()`, in every cell — common random
//! numbers, so a cell-to-cell contrast is the effect of the configuration,
//! never fresh sampling noise. The whole `(cell, rep)` grid is one flat
//! `sudc_par::par_map` batch: a straggler cell never idles workers that
//! could run another cell's replications, and because the kernel is
//! single-threaded-deterministic and `par_map` preserves input order, the
//! traces (and everything derived from them) are byte-identical whether
//! the executor uses 1 thread or 64.
//!
//! Every seeded study is a grid: [`try_replicate`] is one cell, and the
//! chaos and health reports one cell per campaign × spare count or
//! controller arm.
//! [`SampledLatency`] is the one latency-mean convention their summaries
//! share.

use sudc_errors::{Diagnostics, SudcError};
use sudc_par::json::{Json, ToJson};
use sudc_par::rng::Rng64;

use crate::config::SimConfig;
use crate::kernel;
use crate::metrics::{LatencySummary, RunTrace};

/// Default base seed for simulation studies.
pub const DEFAULT_SEED: u64 = 0x5bdc_2026;

/// Runs `reps` seeded replications of every configuration in `cfgs` as
/// one flat parallel batch (thread count from the ambient `sudc_par`
/// configuration) with common random numbers across cells, returning the
/// traces grouped per cell in `cfgs` order, each in replication order.
/// An empty grid, a zero `reps` and every invalid configuration field of
/// every cell are reported in one combined error before anything runs.
///
/// # Errors
///
/// Returns a structured error if `cfgs` is empty, `reps` is zero, or any
/// cell fails [`SimConfig::try_validate`].
pub fn try_replicate_grid(
    cfgs: &[SimConfig],
    reps: u32,
    base_seed: u64,
) -> Result<Vec<Vec<RunTrace>>, SudcError> {
    let mut d = Diagnostics::new("replication grid");
    d.ensure(
        !cfgs.is_empty(),
        "cfgs.len()",
        cfgs.len(),
        "at least one configuration",
    );
    d.ensure(
        reps > 0,
        "reps",
        reps,
        "at least one replication is required",
    );
    let mut err = d.finish().err();
    for cfg_err in cfgs.iter().filter_map(|cfg| cfg.try_validate().err()) {
        err = Some(match err {
            Some(e) => e.merge(cfg_err),
            None => cfg_err,
        });
    }
    if let Some(e) = err {
        return Err(e);
    }
    let seeds: Vec<u64> = (0..u64::from(reps))
        .map(|rep| Rng64::stream(base_seed, rep).next_u64())
        .collect();
    let jobs: Vec<(usize, usize)> = (0..cfgs.len())
        .flat_map(|cell| (0..seeds.len()).map(move |rep| (cell, rep)))
        .collect();
    let mut traces = sudc_par::par_map(&jobs, |_, &(cell, rep)| {
        kernel::run(&cfgs[cell], seeds[rep])
    })
    .into_iter();
    Ok(cfgs
        .iter()
        .map(|_| traces.by_ref().take(seeds.len()).collect())
        .collect())
}

/// Runs `reps` seeded replications of `cfg` — a one-cell
/// [`try_replicate_grid`] — and returns the traces in replication order.
///
/// # Errors
///
/// Returns a structured error if `reps` is zero or `cfg` fails
/// [`SimConfig::try_validate`].
pub fn try_replicate(
    cfg: &SimConfig,
    reps: u32,
    base_seed: u64,
) -> Result<Vec<RunTrace>, SudcError> {
    let grid = try_replicate_grid(std::slice::from_ref(cfg), reps, base_seed)?;
    Ok(grid.into_iter().flatten().collect())
}

/// A latency population's mean and p99, each averaged over only the
/// replications that sampled it: a short run that never completed a batch
/// would otherwise contribute a silent 0 and bias the mean downward. The
/// population's size is surfaced as [`SampledLatency::reps`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledLatency {
    /// Mean of the per-replication means, seconds; 0 when no replication
    /// sampled the population.
    pub mean: f64,
    /// Mean of the per-replication p99s, seconds; 0 when none did.
    pub p99: f64,
    /// Replications with at least one sample.
    pub reps: u32,
}

impl SampledLatency {
    /// Averages `population` (e.g. [`RunTrace::delivery_latency`]) over
    /// the replications in `traces` that sampled it, summing in
    /// replication order.
    #[must_use]
    pub fn over(traces: &[RunTrace], population: impl Fn(&RunTrace) -> LatencySummary) -> Self {
        let (mut mean, mut p99, mut reps) = (0.0, 0.0, 0u32);
        for s in traces.iter().map(population).filter(|s| s.count > 0) {
            mean += s.mean;
            p99 += s.p99;
            reps += 1;
        }
        if reps > 0 {
            mean /= f64::from(reps);
            p99 /= f64::from(reps);
        }
        Self { mean, p99, reps }
    }
}

/// Cross-replication aggregate of a simulation study.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Number of replications aggregated.
    pub reps: u32,
    /// Mean capture → batch-complete p99 latency, seconds, averaged over
    /// the replications that processed at least one image
    /// ([`SimSummary::processing_p99_reps`]); 0 when none did.
    pub mean_processing_p99: f64,
    /// Replications with at least one processing-latency sample — the
    /// population behind [`SimSummary::mean_processing_p99`].
    pub processing_p99_reps: u32,
    /// Mean capture → ground-delivery p99 latency, seconds, averaged over
    /// the replications that delivered at least one insight
    /// ([`SimSummary::delivery_p99_reps`]); 0 when none did.
    pub mean_delivery_p99: f64,
    /// Replications with at least one delivery-latency sample — the
    /// population behind [`SimSummary::mean_delivery_p99`].
    pub delivery_p99_reps: u32,
    /// Mean time-average images awaiting batch dispatch.
    pub mean_batch_queue: f64,
    /// Mean time-average insights awaiting downlink.
    pub mean_downlink_backlog: f64,
    /// Mean time-average busy fraction of required nodes.
    pub mean_utilization: f64,
    /// Mean fraction of the run at full capability.
    pub mean_availability: f64,
    /// Fraction of replications that *ended* at full capability.
    pub end_full_fraction: f64,
    /// Mean delivered insights per simulated hour.
    pub mean_delivered_per_hour: f64,
    traces: Vec<RunTrace>,
}

impl SimSummary {
    /// Aggregates replication traces.
    ///
    /// The p99 aggregates are [`SampledLatency`] means: they average only
    /// over replications whose latency population is non-empty, and the
    /// populations' sizes are surfaced as
    /// [`SimSummary::processing_p99_reps`] / [`SimSummary::delivery_p99_reps`].
    ///
    /// # Errors
    ///
    /// Returns a structured error if `traces` is empty.
    pub fn try_from_traces(traces: Vec<RunTrace>) -> Result<Self, SudcError> {
        if traces.is_empty() {
            return Err(SudcError::single(
                "SimSummary",
                "traces.len()",
                0,
                "at least one replication (cannot summarize zero replications)",
            ));
        }
        let n = traces.len() as f64;
        let mean = |f: &dyn Fn(&RunTrace) -> f64| traces.iter().map(f).sum::<f64>() / n;
        let processing = SampledLatency::over(&traces, RunTrace::processing_latency);
        let delivery = SampledLatency::over(&traces, RunTrace::delivery_latency);
        Ok(Self {
            reps: traces.len() as u32,
            mean_processing_p99: processing.p99,
            processing_p99_reps: processing.reps,
            mean_delivery_p99: delivery.p99,
            delivery_p99_reps: delivery.reps,
            mean_batch_queue: mean(&RunTrace::mean_batch_queue),
            mean_downlink_backlog: mean(&RunTrace::mean_downlink_backlog),
            mean_utilization: mean(&RunTrace::compute_utilization),
            mean_availability: mean(&RunTrace::availability),
            end_full_fraction: mean(&|t| f64::from(u8::from(t.ends_at_full_capability()))),
            mean_delivered_per_hour: mean(&RunTrace::delivered_per_hour),
            traces,
        })
    }

    /// Runs a full study: `reps` replications of `cfg`, aggregated.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `reps` is zero or `cfg` fails
    /// [`SimConfig::try_validate`].
    pub fn try_study(cfg: &SimConfig, reps: u32, base_seed: u64) -> Result<Self, SudcError> {
        Self::try_from_traces(try_replicate(cfg, reps, base_seed)?)
    }

    /// The per-replication traces, in replication order.
    #[must_use]
    pub fn traces(&self) -> &[RunTrace] {
        &self.traces
    }
}

impl ToJson for SimSummary {
    fn to_json(&self) -> Json {
        let reps: Vec<Json> = self.traces.iter().map(ToJson::to_json).collect();
        Json::object()
            .with("reps", self.reps)
            .with("mean_processing_p99_s", self.mean_processing_p99)
            .with("mean_delivery_p99_s", self.mean_delivery_p99)
            .with("mean_batch_queue", self.mean_batch_queue)
            .with("mean_downlink_backlog", self.mean_downlink_backlog)
            .with("mean_utilization", self.mean_utilization)
            .with("mean_availability", self.mean_availability)
            .with("end_full_fraction", self.end_full_fraction)
            .with("mean_delivered_per_hour", self.mean_delivered_per_hour)
            .with("replications", Json::Arr(reps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_units::Seconds;

    #[test]
    fn replications_are_order_stable_and_distinct() {
        let cfg = SimConfig::reference_operations(Seconds::new(900.0));
        let traces = try_replicate(&cfg, 4, DEFAULT_SEED).unwrap();
        assert_eq!(traces.len(), 4);
        // Distinct seeds -> distinct sample paths.
        assert!(traces.windows(2).any(|w| w[0] != w[1]));
        // Re-running reproduces the exact traces.
        assert_eq!(traces, try_replicate(&cfg, 4, DEFAULT_SEED).unwrap());
    }

    #[test]
    fn summary_json_is_identical_at_different_thread_counts() {
        let cfg = SimConfig::reference_operations(Seconds::new(900.0));
        let cells = [
            cfg,
            SimConfig::collaborative_operations(Seconds::new(900.0)),
        ];
        let render = |threads: usize| {
            sudc_par::set_threads(threads);
            let json = SimSummary::try_study(&cfg, 3, DEFAULT_SEED)
                .unwrap()
                .to_json()
                .to_string_pretty();
            let grid = try_replicate_grid(&cells, 2, DEFAULT_SEED).unwrap();
            sudc_par::set_threads(0);
            (json, grid)
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(8));
    }

    #[test]
    fn summary_aggregates_are_means_of_traces() {
        let cfg = SimConfig::reference_operations(Seconds::new(900.0));
        let traces = try_replicate(&cfg, 3, 42).unwrap();
        let expected: f64 = traces
            .iter()
            .map(RunTrace::compute_utilization)
            .sum::<f64>()
            / 3.0;
        let summary = SimSummary::try_from_traces(traces).unwrap();
        assert!((summary.mean_utilization - expected).abs() < 1e-12);
        assert_eq!(summary.reps, 3);
    }

    #[test]
    fn empty_latency_populations_do_not_bias_the_p99_mean() {
        // Regression: a run too short to deliver anything used to
        // contribute p99 = 0 to the mean. Mix long and short runs and
        // check the mean only averages the populated replications.
        let long = SimConfig::reference_operations(Seconds::new(900.0));
        let mut traces = try_replicate(&long, 2, DEFAULT_SEED).unwrap();
        // 10 s is far below the first contact window: nothing delivers.
        let short = SimConfig::reference_operations(Seconds::new(10.0));
        traces.extend(try_replicate(&short, 1, DEFAULT_SEED).unwrap());
        let empties = traces
            .iter()
            .filter(|t| t.delivery_latency().count == 0)
            .count();
        assert_eq!(empties, 1, "short run must have no deliveries");

        let populated_mean: f64 = traces
            .iter()
            .map(|t| t.delivery_latency())
            .filter(|s| s.count > 0)
            .map(|s| s.p99)
            .sum::<f64>()
            / 2.0;
        let summary = SimSummary::try_from_traces(traces).unwrap();
        assert_eq!(summary.reps, 3);
        assert_eq!(summary.delivery_p99_reps, 2);
        assert!((summary.mean_delivery_p99 - populated_mean).abs() < 1e-12);
        // The biased estimator would have divided the same sum by 3.
        assert!(summary.mean_delivery_p99 > populated_mean * 2.0 / 3.0 + 1e-9);
    }

    #[test]
    fn replication_r_draws_the_same_seed_in_every_cell() {
        // Common random numbers: 64 satellites IS the reference preset, so
        // the first cell of a two-size grid must equal a plain one-cell
        // study rep for rep, whatever the other cell holds.
        let d = Seconds::new(900.0);
        let cells = [
            SimConfig::try_scaled_fleet(64, d).unwrap(),
            SimConfig::try_scaled_fleet(128, d).unwrap(),
        ];
        let grid = try_replicate_grid(&cells, 3, DEFAULT_SEED).unwrap();
        assert_eq!(grid.len(), 2);
        let reference =
            try_replicate(&SimConfig::reference_operations(d), 3, DEFAULT_SEED).unwrap();
        assert_eq!(grid[0], reference);
        // The second cell ran its own, larger fleet on the same seeds: a
        // seed that depended on the cell's position would break this.
        assert_eq!(grid[1], try_replicate(&cells[1], 3, DEFAULT_SEED).unwrap());
        assert!(grid[1]
            .iter()
            .zip(&grid[0])
            .all(|(big, small)| big.events > small.events));
    }

    #[test]
    fn try_forms_reject_bad_studies_with_structured_errors() {
        let cfg = SimConfig::reference_operations(Seconds::new(600.0));
        let err = try_replicate(&cfg, 0, DEFAULT_SEED).unwrap_err();
        assert!(err.to_string().contains("reps"), "{err}");

        let mut bad = cfg;
        bad.filtering = f64::NAN;
        bad.required = bad.nodes + 1;
        let err = try_replicate(&bad, 0, DEFAULT_SEED).unwrap_err();
        // One combined report: zero reps + both config violations.
        assert_eq!(err.violations().len(), 3, "{err}");
        // ... and across a grid, every cell's violations.
        let err = try_replicate_grid(&[bad, cfg, bad], 0, DEFAULT_SEED).unwrap_err();
        assert_eq!(err.violations().len(), 5, "{err}");
        let err = try_replicate_grid(&[], 1, DEFAULT_SEED).unwrap_err();
        assert!(err.to_string().contains("cfgs"), "{err}");

        let err = SimSummary::try_from_traces(Vec::new()).unwrap_err();
        assert!(err.to_string().contains("zero replications"), "{err}");
    }
}
