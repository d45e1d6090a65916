//! Communications substrate: free-space-optics inter-satellite links (ISLs),
//! command & data handling (C&DH), and compression.
//!
//! The paper extends SSCM with FSO costs: terminal mass and power scale with
//! the provisioned data rate, and the C&DH cost driver uses the FSO rate
//! *downscaled by the FSO/X-band bandwidth ratio* (because SSCM's C&DH CER
//! was regressed against RF-era satellites).
//!
//! - [`fso`] — rate-parametric optical link sizing;
//! - [`rf`] — the X-band RF baseline used for C&DH downscaling;
//! - [`cdh`] — command & data handling subsystem sizing;
//! - [`compression`] — CCSDS-121, lossless JPEG 2000, and neural
//!   quasi-lossless compressors that shrink required ISL capacity (Fig. 10);
//! - [`requirements`] — ISL capacity needed to saturate a compute payload
//!   (Fig. 8);
//! - [`downlink`] — insight downlink sizing after in-space processing
//!   (Fig. 14's results analyzer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdh;
pub mod compression;
pub mod downlink;
pub mod fso;
pub mod requirements;
pub mod rf;

pub use compression::Compression;
pub use fso::FsoLink;
