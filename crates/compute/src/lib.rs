//! Compute-hardware and workload substrate for the `space-udc` toolkit.
//!
//! Embeds the paper's measurement datasets and the network descriptions the
//! accelerator design-space exploration consumes:
//!
//! - [`hardware`] — Table II: GPGPU and radiation-hardened processor
//!   catalog (price, TDP, TFLOPS, TID tolerance);
//! - [`workloads`] — Table III: ten Earth-observation applications profiled
//!   on an RTX 3090 (power, utilization, inference time, kpixel/J);
//! - [`networks`] — layer-shape descriptions of the CNNs behind those
//!   applications (Fig. 13), consumed by `sudc-accel`;
//! - [`gpu`] — a batch-size-aware GPU energy model reproducing the paper's
//!   batch-processing methodology, with the closed-form batch-accumulation
//!   wait behind the Fig. 14 latency / energy trade (the pipeline itself
//!   runs in `sudc-sim`'s kernel);
//! - [`precision`] — FP32/TF32/FP16/INT8 energy-vs-accuracy trade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gpu;
pub mod hardware;
pub mod networks;
pub mod precision;
pub mod workloads;

pub use hardware::HardwareSpec;
pub use networks::{Layer, Network, NetworkId};
pub use workloads::{Task, Workload};
