//! # space-udc — Space Microdatacenter architecture & TCO toolkit
//!
//! Facade crate re-exporting the full `space-udc` workspace: a Rust
//! reproduction of *"Architecting Space Microdatacenters: A System-level
//! Approach"* (HPCA 2025).
//!
//! The workspace models the total cost of ownership (TCO) of server-based
//! computing satellites ("SµDCs") and the architectural optimizations the
//! paper proposes: extreme accelerator heterogeneity, collaborative compute
//! constellations, distributed constellations of small SµDCs, and near-zero
//! cost compute overprovisioning.
//!
//! # Quickstart
//!
//! ```
//! use space_udc::core::design::SuDcDesign;
//! use space_udc::units::Watts;
//!
//! let design = SuDcDesign::builder()
//!     .compute_power(Watts::from_kilowatts(4.0))
//!     .try_build()?;
//! let report = design.try_tco()?;
//! assert!(report.total().value() > 0.0);
//! # Ok::<(), space_udc::core::SudcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Structured validation errors and diagnostics (the `try_*` error type).
pub use sudc_errors as errors;

/// Typed physical and economic quantities.
pub use sudc_units as units;

/// Scoped-thread parallel executor, deterministic RNG streams, and JSON.
pub use sudc_par as par;

/// Orbital-mechanics substrate (orbits, drag, rocket equation, radiation).
pub use sudc_orbital as orbital;

/// Thermal-management substrate (radiators, heat pumps).
pub use sudc_thermal as thermal;

/// Electrical-power substrate (solar arrays, batteries).
pub use sudc_power as power;

/// Communications substrate (FSO ISLs, C&DH, compression).
pub use sudc_comms as comms;

/// Compute hardware catalog, EO workloads, and CNN descriptions.
pub use sudc_compute as compute;

/// Accelerator design-space exploration (row-stationary energy model).
pub use sudc_accel as accel;

/// SSCM-SµDC parametric cost model and Wright's-law learning curves.
pub use sudc_sscm as sscm;

/// Terrestrial datacenter TCO comparators.
pub use sudc_terrestrial as terrestrial;

/// Constellation architecture (collaborative compute, distributed SµDCs).
pub use sudc_constellation as constellation;

/// Availability, redundancy, and radiation-tolerance models.
pub use sudc_reliability as reliability;

/// SµDC design pipeline and TCO analysis — the paper's primary contribution.
pub use sudc_core as core;

/// QoS-contracted pub/sub data plane (topics, recording, replay).
pub use sudc_bus as bus;

/// Closed-loop health plane: failure detection, quarantine, and
/// degraded-mode pool accounting.
pub use sudc_health as health;

/// Deterministic discrete-event constellation operations simulator.
pub use sudc_sim as sim;

/// Fault-injection campaigns and resilience reports over the simulator.
pub use sudc_chaos as chaos;

/// Online orbit-vs-ground request placement engine.
pub use sudc_router as router;
