//! SµDC design pipeline and TCO analysis — the paper's primary contribution.
//!
//! This crate closes the loop the paper describes in §II: a compute power
//! budget becomes a payload, the payload's heat becomes a thermal subsystem,
//! payload + pump power become a power subsystem, everything becomes mass,
//! mass becomes fuel and launch cost, and the resulting driver parameters
//! feed the SSCM-SµDC cost model.
//!
//! - [`design`] — the [`design::SuDcDesign`] builder and the fixed-point
//!   sizing pipeline;
//! - [`tco`] — the [`tco::TcoReport`] rollup (satellite NRE/RE + launch +
//!   operations);
//! - [`analysis`] — one function per paper figure/table (see `DESIGN.md`
//!   for the experiment index);
//! - [`scenario`] — the paper's named working configurations;
//! - [`dynamics`] — the scenario → discrete-event-simulation bridge
//!   consumed by `sudc-sim`;
//! - [`report`] — markdown design-review generation.
//!
//! # Examples
//!
//! ```
//! use sudc_core::design::SuDcDesign;
//! use sudc_units::Watts;
//!
//! let design = SuDcDesign::builder()
//!     .compute_power(Watts::from_kilowatts(4.0))
//!     .try_build()?;
//! let report = design.try_tco()?;
//! assert!(report.total().as_millions() > 1.0);
//! # Ok::<(), sudc_core::SudcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod design;
pub mod dynamics;
pub mod report;
pub mod scenario;
pub mod tco;

pub use design::{SuDcDesign, SuDcDesignBuilder};
pub use scenario::Scenario;
pub use sudc_errors::{Diagnostics, SudcError, Violation};
pub use tco::TcoReport;
