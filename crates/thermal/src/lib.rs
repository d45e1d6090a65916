//! Thermal-management substrate for the `space-udc` toolkit (paper §III-B).
//!
//! In vacuum, the only way a satellite sheds heat is radiation. This crate
//! models:
//!
//! - [`radiator`] — Stefan–Boltzmann radiator sizing (the paper's Eq. 1 and
//!   Fig. 12 trade between radiator area and temperature);
//! - [`heatpump`] — an active thermal-control heat pump whose coefficient of
//!   performance follows a Carnot fraction, used to raise radiator
//!   temperature and shrink radiator area;
//! - [`design`] — closed-loop sizing of a complete thermal subsystem for a
//!   given payload heat load.
//!
//! # Examples
//!
//! The paper's anchor: a 1 m² radiator with ε = 0.86 at 45 °C radiating from
//! both faces emits "just shy of 1 kW":
//!
//! ```
//! use sudc_thermal::radiator::Radiator;
//! use sudc_units::{Kelvin, SquareMeters};
//!
//! let r = Radiator::double_sided(SquareMeters::new(1.0));
//! let p = r.emitted_power(Kelvin::from_celsius(45.0));
//! assert!(p.value() > 990.0 && p.value() < 1000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod heatpump;
pub mod radiator;

pub use design::ThermalDesign;
pub use heatpump::HeatPump;
pub use radiator::Radiator;
