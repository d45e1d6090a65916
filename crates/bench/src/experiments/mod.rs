//! One generator per paper table/figure.
//!
//! Every generator is a pure `fn() -> String` returning the rows the paper
//! reports. [`EXPERIMENTS`] lists them by id (`"fig5"`, `"table3"`, …)
//! for the `figures` binary, and [`find`] looks one up.

mod arch;
mod bus;
mod chaos;
mod comms;
mod cost;
mod dse;
mod extensions;
mod fleet;
mod health;
mod reliability;
mod router;
mod sim;
mod tables;

pub use arch::{fig11, fig15, fig16, fig3, fig9};
pub use bus::ext_bus;
pub use chaos::ext_chaos;
pub use comms::{fig10, fig7, fig8};
pub use cost::{fig4, fig5, fig6};
pub use dse::{ext_dse, fig17};
pub use extensions::{ext_ablation, ext_latency, ext_precision, ext_sparing, ext_tornado};
pub use fleet::{fig19, fig21, fig22, fig23};
pub use health::ext_health;
pub use reliability::{fig12, fig24, fig25, fig26, fig27, fig28};
pub use router::ext_router;
pub use sim::ext_sim;
pub use tables::{table1, table2, table3};

/// One experiment: its id, a one-line description, and its generator.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", "SSCM-SuDC input parameter derivations", table1),
    ("table2", "GPU and rad-hard hardware catalog", table2),
    ("table3", "EO application performance on RTX 3090", table3),
    (
        "fig3",
        "4 kW SuDC subsystem cost breakdown (two accountings)",
        fig3,
    ),
    ("fig4", "TCO vs lifetime for 0.5/4/10 kW SuDCs", fig4),
    ("fig5", "TCO vs compute power (subsystem breakdown)", fig5),
    ("fig6", "Satellite mass vs compute power", fig6),
    ("fig7", "TCO vs ISL data rate", fig7),
    (
        "fig8",
        "ISL rate to saturate compute, per application",
        fig8,
    ),
    ("fig9", "TCO vs processing architecture", fig9),
    ("fig10", "TCO vs energy efficiency under compression", fig10),
    (
        "fig11",
        "Satellite vs terrestrial TCO category breakdown",
        fig11,
    ),
    ("fig12", "Radiator area vs temperature", fig12),
    (
        "fig15",
        "TCO vs efficiency scalar (hardware price constant)",
        fig15,
    ),
    (
        "fig16",
        "TCO vs efficiency scalar (log hardware pricing)",
        fig16,
    ),
    (
        "fig17",
        "Accelerator DSE energy-efficiency improvements",
        fig17,
    ),
    ("fig19", "TCO vs edge filtering rate", fig19),
    (
        "fig21",
        "Collaborative constellation benefit by architecture",
        fig21,
    ),
    ("fig22", "Wright's-law marginal satellite cost", fig22),
    ("fig23", "Distributed vs monolithic fleet TCO", fig23),
    (
        "fig24",
        "Availability vs time under overprovisioning",
        fig24,
    ),
    ("fig25", "Expected usable servers vs time", fig25),
    ("fig26", "COTS TID tolerance vs technology node", fig26),
    ("fig27", "Soft-error impact on ImageNet classifiers", fig27),
    ("fig28", "TCO of TMR/DMR/software redundancy", fig28),
    (
        "extA",
        "bent-pipe vs in-space latency (extension)",
        ext_latency,
    ),
    (
        "extB",
        "cold vs hot sparing Monte-Carlo (extension)",
        ext_sparing,
    ),
    (
        "extC",
        "cost-driver tornado sensitivity (extension)",
        ext_tornado,
    ),
    ("extD", "design-choice ablations (extension)", ext_ablation),
    (
        "extE",
        "accelerator DSE vs numeric precision (extension)",
        ext_precision,
    ),
    (
        "sim",
        "dynamic operations DES: latency, backlog, availability (extension)",
        ext_sim,
    ),
    (
        "chaos",
        "fault-injection campaigns vs cold spares: resilience report (extension)",
        ext_chaos,
    ),
    (
        "router",
        "online orbit-vs-ground request placement + sim replay (extension)",
        ext_router,
    ),
    (
        "bus",
        "QoS pub/sub data plane: topics, lowering, record->replay audit (extension)",
        ext_bus,
    ),
    (
        "dse",
        "per-layer mapping search: memoization, engine winners, router re-pricing (extension)",
        ext_dse,
    ),
    (
        "health",
        "closed-loop health plane: detection, degraded routing, on/off grid (extension)",
        ext_health,
    ),
];

/// The generator of the experiment `id`, or `None` for an unknown id.
#[must_use]
pub fn find(id: &str) -> Option<fn() -> String> {
    EXPERIMENTS
        .iter()
        .find(|&&(known, ..)| known == id)
        .map(|&(.., generate)| generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_all_dispatch() {
        for &(id, ..) in EXPERIMENTS {
            let generate = find(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!generate().trim().is_empty(), "{id} produced no output");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(find("fig99").is_none());
    }
}
