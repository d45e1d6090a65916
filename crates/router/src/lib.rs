//! Online orbit-vs-ground request placement for SµDC tasking streams.
//!
//! The paper sizes the orbital SµDC against a *steady* EO pipeline; this
//! crate asks the operational question that sizing raises: given a live
//! stream of tasking requests — each with a capture location, one of the
//! ten Table III applications, a payload size, and a freshness deadline —
//! **where should each request run?** Four tiers compete:
//!
//! 1. the capturing satellite's own flight computer ([`Tier::Onboard`]),
//! 2. the orbital SµDC over an ISL hop ([`Tier::OrbitalSudc`]),
//! 3. a ground-station edge node after a full raw downlink
//!    ([`Tier::GroundEdge`]),
//! 4. a terrestrial cloud region behind the ground segment
//!    ([`Tier::Cloud`]).
//!
//! [`RouterConfig::try_reference`] prices all four from the workspace's own
//! models — Table III service times, pass geometry and ground-network
//! capacity, the SSCM-based TCO amortized per insight — and memoizes
//! them into per-`(app, tier)` coefficient tables. The engine
//! ([`Router::route_stream`]) then scores millions of requests per
//! second: each decision is four table lookups and a few multiply-adds,
//! blocks shard across threads via `sudc-par`, and the output is
//! byte-identical at any `--jobs` count.
//!
//! [`RoutedLoad`] closes the loop by replaying the accepted placements
//! through the `sudc-sim` operations simulator (optionally under a
//! `sudc-chaos` fault campaign) and reporting attainment of the
//! workspace-wide freshness SLO.
//!
//! # Examples
//!
//! ```
//! use sudc_router::{Router, StreamConfig};
//!
//! let router = Router::reference();
//! let mut stream = StreamConfig::new(10_000, 42, 1.4);
//! stream.block = 2048;
//! let out = router.route_stream(&stream);
//! assert_eq!(out.decisions.len(), 10_000);
//! assert!(out.stats.acceptance_rate() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod replay;
pub mod request;
pub mod tier;

pub use config::{RouterConfig, TierTerms, APPS, LAT_BINS};
pub use engine::{Decision, Router, RoutingOutcome, RoutingStats, Verdict};
pub use replay::{ReplayReport, RoutedLoad};
pub use request::{admit_all, AdmissionQueue, Priority, Request, StreamConfig};
pub use sudc_errors::{Diagnostics, SudcError, Violation};
pub use tier::Tier;
