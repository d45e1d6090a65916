//! Electrical-power substrate for the `space-udc` toolkit.
//!
//! SµDCs are LEO-based and solar powered (paper §II). This crate sizes the
//! generation chain that the TCO model costs:
//!
//! - [`solar`] — solar arrays with beginning-of-life (BOL) vs end-of-life
//!   (EOL) degradation, eclipse oversizing, and specific power;
//! - [`battery`] — eclipse-ride-through batteries with depth-of-discharge
//!   limits;
//! - [`design`] — a complete power-subsystem design (array + battery + PDU).
//!
//! # Examples
//!
//! ```
//! use sudc_power::design::PowerDesign;
//! use sudc_orbital::CircularOrbit;
//! use sudc_units::{Watts, Years};
//!
//! let d = PowerDesign::size_default(
//!     Watts::from_kilowatts(4.0),
//!     CircularOrbit::reference_leo(),
//!     Years::new(5.0),
//! );
//! assert!(d.bol_array_power() > Watts::from_kilowatts(4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod design;
pub mod solar;

pub use design::PowerDesign;
pub use solar::{SolarArray, SolarCellTech};
