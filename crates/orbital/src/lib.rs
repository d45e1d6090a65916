//! Orbital-mechanics substrate for the `space-udc` toolkit.
//!
//! Provides the astrodynamics every SµDC design needs costed:
//!
//! - [`orbit`] — circular-orbit geometry: velocity, period, eclipse fraction;
//! - [`contact`] — ground-station contacts and bent-pipe downlink latency;
//! - [`drag`] — exponential-atmosphere drag and station-keeping Δv budgets;
//! - [`rocket`] — the Tsiolkovsky rocket equation for fuel-mass sizing;
//! - [`radiation`] — total-ionizing-dose rates vs. orbit regime & shielding;
//! - [`imaging`] — Earth-observation image production rates;
//! - [`launch`] — launch cost models ($/kg to orbit).
//!
//! # Examples
//!
//! ```
//! use sudc_orbital::orbit::CircularOrbit;
//! use sudc_units::Meters;
//!
//! let leo = CircularOrbit::from_altitude(Meters::new(550e3));
//! // ~95-minute period, ~7.6 km/s velocity.
//! assert!((leo.period().value() / 60.0 - 95.6).abs() < 1.0);
//! assert!((leo.velocity().value() - 7585.0).abs() < 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constants;
pub mod contact;
pub mod drag;
pub mod imaging;
pub mod launch;
pub mod orbit;
pub mod radiation;
pub mod rocket;

pub use orbit::CircularOrbit;
