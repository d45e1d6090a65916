//! Accelerator design-space exploration for extreme heterogeneity (paper §IV).
//!
//! The paper uses the Timeloop/Accelergy framework to explore 7 168
//! Eyeriss-like row-stationary accelerator designs and finds that:
//!
//! - a single **global** accelerator (best geomean efficiency across all
//!   network layers) improves energy efficiency ~57.8× over a commodity GPU;
//! - **per-network** accelerators improve further;
//! - **per-layer** accelerators (one design per layer — extreme
//!   heterogeneity) reach ~116× on average.
//!
//! This crate implements the same class of analytical model: MAC energy plus
//! hierarchical buffer/NoC/DRAM access counting under a row-stationary
//! mapping, swept over the same design-space axes (PE-array X/Y dimensions
//! and input/weight/accumulation buffer sizes).
//!
//! - [`energy`] — per-access energy table (Accelergy's role);
//! - [`design`] — the accelerator configuration and the 7 168-point space;
//! - [`dataflow`] — row-stationary access counting (Timeloop's role);
//! - [`dse`] — sweep, selection (global / per-network / per-layer), and
//!   efficiency-improvement reporting (Fig. 17); the sweep runs chunked
//!   across the [`sudc_par`] executor, bit-identical to its one-worker run;
//! - [`mapping`] — the per-layer mapping space (engine × schedule) and the
//!   best-schedule search;
//! - [`memo`] — layer-shape deduplication, holding each distinct shape's
//!   cost-model terms and tiling geometry for the sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod design;
pub mod dse;
pub mod energy;
pub mod mapping;
pub mod memo;

pub use design::AcceleratorConfig;
pub use dse::{DseOutcome, SystemArchitecture};
pub use mapping::{Engine, Mapping, Schedule};
