//! One analysis function per paper figure/table.
//!
//! The experiment index in `DESIGN.md` maps each figure to its function:
//!
//! | Figures | Module |
//! |---|---|
//! | 3, 9, 11, 15, 16 | [`architecture`] |
//! | 4, 5, 6 | [`sweeps`] |
//! | 7, 8, 10 | [`comms`] |
//! | 19, 21, 22, 23 | [`fleet`] |
//! | 28 | [`reliability_cost`] |
//! | §I / §IV-A latency motivation | [`latency`] |
//! | design-choice ablations | [`ablation`] |
//! | power × architecture Pareto fronts | [`tradespace`] |
//!
//! (Figs. 12, 17, 24–27 are served directly by `sudc-thermal`,
//! `sudc-accel`, and `sudc-reliability`.)

pub mod ablation;
pub mod architecture;
pub mod comms;
pub mod fleet;
pub mod latency;
pub mod reliability_cost;
pub mod sweeps;
pub mod tradespace;

use sudc_errors::SudcError;
use sudc_units::Watts;

use crate::design::SuDcDesign;
use crate::tco::TcoReport;

/// Builds the default (RTX 3090, 5-year, worst-case ISL) design at a power.
///
/// # Errors
///
/// Propagates [`SudcError`] from the builder.
pub fn default_design(compute_power: Watts) -> Result<SuDcDesign, SudcError> {
    SuDcDesign::builder()
        .compute_power(compute_power)
        .try_build()
}

/// TCO of the default design at a power.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn default_tco(compute_power: Watts) -> Result<TcoReport, SudcError> {
    default_design(compute_power)?.try_tco()
}

/// The paper's three reference SµDC sizes: 0.5, 4, and 10 kW.
#[must_use]
pub fn reference_powers() -> [Watts; 3] {
    [
        Watts::new(500.0),
        Watts::from_kilowatts(4.0),
        Watts::from_kilowatts(10.0),
    ]
}
