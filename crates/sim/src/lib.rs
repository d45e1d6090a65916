//! Deterministic discrete-event constellation operations simulator.
//!
//! The rest of the workspace answers *steady-state* questions: how big the
//! SµDC must be, what it costs, what fraction of nodes survive. This crate
//! answers the *dynamic* ones the paper's operations story raises but
//! closed-form models cannot: end-to-end insight latency under bursty EO
//! traffic, queue growth across downlink outages, and delivered
//! availability when node failures and cold-spare promotions interleave
//! with the workload.
//!
//! Layering:
//!
//! - [`event`] — integer-tick clock and the deterministic event queue;
//! - [`config`] — [`config::SimConfig`]: the physical scenario quantized
//!   onto ticks, bridged from `sudc_core::dynamics::DynamicScenario`;
//! - [`fault`] — [`fault::FaultConfig`]: opt-in correlated fault
//!   processes (solar storms, cohort infant mortality, ISL flaps, ground
//!   blackouts) and the recovery policies that absorb them;
//! - [`kernel`] — [`kernel::try_run`]: one seeded single-threaded run,
//!   with every pipeline hop published to the run's trace and to any
//!   attached `sudc-bus` subscribers ([`kernel::run`] and
//!   [`kernel::run_recorded`] attach none and a log);
//! - [`plane`] — [`plane::replay`], which re-drives a recorded
//!   [`sudc_bus::BusLog`] to a byte-identical trace;
//! - [`metrics`] — [`metrics::RunTrace`]: counts, latency percentiles,
//!   exact time-weighted integrals, and the subscriber fold that builds
//!   them from the topic stream;
//! - [`replicate`] — [`replicate::try_replicate_grid`]: the one
//!   common-random-numbers replication grid every seeded study runs
//!   through (replication `r` draws one seed in every cell, one flat
//!   `sudc-par` batch, bit-identical at any thread count);
//!   [`replicate::Outcome`], the one place the cross-replication rules
//!   live (means in replication order, the delivery-p99 convention, SLO
//!   attainment over delivered insights — 1 when nothing is delivered —
//!   and TCO per insight), which every trace-set report holds; and
//!   [`replicate::SimSummary`], the sim study's aggregate: one `Outcome`
//!   plus the sim-only means.
//!
//! # Examples
//!
//! ```
//! use sudc_sim::{SimConfig, SimSummary, DEFAULT_SEED};
//! use sudc_units::Seconds;
//!
//! let cfg = SimConfig::reference_operations(Seconds::new(1800.0));
//! let study = SimSummary::try_study(&cfg, 2, DEFAULT_SEED)?;
//! assert!(study.mean_utilization > 0.0);
//! assert!((study.outcome.availability - 1.0).abs() < 1e-12);
//! # Ok::<(), sudc_sim::SudcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod fault;
mod gap;
pub mod kernel;
pub mod metrics;
pub mod plane;
pub mod replicate;

pub use config::SimConfig;
pub use event::{BinaryHeapQueue, Event, EventQueue, Tick};
pub use fault::{
    FaultConfig, GroundBlackouts, InfantMortality, IslFlaps, RecoveryPolicy, StormModel,
    STANDARD_FRESHNESS_DEADLINE_S,
};
pub use kernel::{run, run_recorded, try_run};
pub use metrics::{try_percentile, LatencyHist, LatencySummary, RunTrace};
pub use plane::replay;
pub use replicate::{
    try_replicate, try_replicate_grid, Outcome, SampledLatency, SimSummary, DEFAULT_SEED,
};
pub use sudc_errors::{Diagnostics, SudcError, Violation};
