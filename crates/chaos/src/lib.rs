//! Deterministic fault-injection campaigns for the SµDC simulator.
//!
//! The paper's fourth optimization — near-zero-cost compute
//! overprovisioning — rests on an availability argument the baseline
//! simulator only exercises with *independent* node failures. The real
//! threats in LEO are correlated: a solar storm multiplies the SEU rate
//! for every node at once and can latch up several of them in the same
//! minute, a bad manufacturing cohort ships short-lived nodes together,
//! an ISL terminal flaps, a ground station loses a whole contact window.
//! This crate stresses the overprovisioning claim under exactly those
//! processes and reports what it takes to recover it.
//!
//! Layering:
//!
//! - [`campaign`] — [`campaign::Campaign`]: a named fault environment in
//!   physical seconds, lowered onto a `sudc_sim::SimConfig`'s tick clock
//!   at apply time; [`campaign::Campaign::suite`] is the standard
//!   rate-matched set (independent baseline, solar storm, infant
//!   mortality, ISL flaps, ground blackouts, combined).
//! - [`report`] — [`report::ChaosSummary`]: the campaign × spare-count ×
//!   replication grid, run as one flat parallel batch with common random
//!   numbers so every cell is comparable and the bytes are identical at
//!   any thread count.
//! - [`health`] — [`health::HealthReport`]: every campaign run twice with
//!   the `sudc-health` failure detector — monitor-only vs closed-loop —
//!   at equal spares, pricing what detection latency costs and what
//!   closing the recovery loop buys back.
//!
//! # Examples
//!
//! ```
//! use sudc_chaos::{Campaign, ChaosSummary};
//! use sudc_par::json::ToJson;
//! use sudc_units::Seconds;
//!
//! let summary = ChaosSummary::try_run(Seconds::new(900.0), &[0, 4], 2, 7)?;
//! let quiet = summary.cell("independent", 4).unwrap();
//! assert!(quiet.availability <= 1.0);
//! // Same grid, same seed -> byte-identical report at any thread count.
//! assert_eq!(
//!     summary.to_json().to_string_pretty(),
//!     ChaosSummary::try_run(Seconds::new(900.0), &[0, 4], 2, 7)?
//!         .to_json()
//!         .to_string_pretty(),
//! );
//! # Ok::<(), sudc_errors::SudcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod health;
pub mod report;

pub use campaign::{Campaign, IslFlapSpec, PolicySpec, StormSpec};
pub use health::{HealthCell, HealthReport};
pub use report::{ChaosCell, ChaosSummary, CLAIM4_AVAILABILITY_TARGET};
pub use sudc_errors::{Diagnostics, SudcError, Violation};
