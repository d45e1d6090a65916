//! QoS-contracted publish/subscribe data plane for the SuDC
//! constellation pipeline.
//!
//! The operations pipeline of the paper — capture → edge filter → ISL
//! transfer → batch compute → downlink — is a chain of *deliveries*
//! with very different guarantees: a lost telemetry sample costs
//! nothing, a lost insight costs a captured observation, and a stale
//! insight is worthless even if delivered. This crate makes those
//! guarantees explicit, in the DDS DataWriter/DataReader shape:
//!
//! * [`BusConfig`] is the fixed table of the four constellation topics,
//!   each with a [`QosContract`] (reliability / deadline / durability /
//!   history).
//! * A publisher hands each typed [`Sample`] to the [`Subscriber`]s it
//!   owns. Recording ([`BusLog`]) and per-topic counting ([`BusStats`])
//!   are subscribers too, attached only when wanted (`()` attaches
//!   nothing, `(A, B)` attaches two), so an unattached publish costs no
//!   more than its one delivery. Nothing here buffers: the sim kernel
//!   executes the capture and insight contracts with its own queues and
//!   `RecoveryPolicy`, and the telemetry and fault contracts are
//!   declarative.
//! * [`BusLog`] records a session as a compact delta-encoded binary
//!   stream that can re-drive any subscriber deterministically.
//!
//! QoS policies are not simulation fiction: each lowers onto a
//! physical model that already exists in the workspace (see
//! [`QosContract::try_lower`] and `docs/MODELING.md` § Data plane).
//! `RELIABLE` becomes the bounded ISL retry budget, `DEADLINE` becomes
//! the standing freshness SLO ([`STANDARD_FRESHNESS_DEADLINE_S`]), and
//! `TRANSIENT_LOCAL` becomes contact-window store-and-forward with a
//! bounded queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod qos;
mod record;
mod sample;
mod topic;

pub use bus::{BusStats, Subscriber};
pub use qos::{Durability, LoweredQos, QosContract, Reliability, STANDARD_FRESHNESS_DEADLINE_S};
pub use record::BusLog;
pub use sample::{FaultKind, HealthEvent, Payload, Sample, Tick};
pub use topic::{
    BusConfig, TopicId, TopicSpec, TOPIC_CAPTURES, TOPIC_FAULTS, TOPIC_INSIGHTS, TOPIC_TELEMETRY,
};
