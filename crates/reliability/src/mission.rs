//! Monte-Carlo mission simulation with cold sparing.
//!
//! Fig. 24's analytic model assumes all `n` nodes age from launch (hot
//! sparing). The paper's overprovisioning argument keeps spares *powered
//! off* ("as long as the excess compute is kept powered off"), and cold
//! electronics barely age — so cold sparing should beat the analytic hot-
//! spare curves. This module quantifies that with a discrete-event
//! Monte-Carlo simulation.

use sudc_errors::{Diagnostics, SudcError};
use sudc_par::rng::Rng64;

use crate::availability::{block_sizes, MIN_BLOCKS_PER_THREAD};

/// How spares are held before activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparingPolicy {
    /// All nodes powered from launch; failures consume the margin
    /// (Fig. 24's model).
    Hot,
    /// Spares powered off until a failure promotes one; cold units age at
    /// a reduced rate.
    Cold {
        /// Aging rate of a powered-off unit relative to a powered one
        /// (0 = no aging, 1 = hot sparing).
        dormant_aging: f64,
    },
}

/// A mission configuration for the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionConfig {
    /// Installed nodes.
    pub nodes: u32,
    /// Nodes that must be powered for full capability.
    pub required: u32,
    /// Mission duration in units of one node's powered MTTF.
    pub duration: f64,
    /// Sparing policy.
    pub policy: SparingPolicy,
}

/// Simulation outcome statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionOutcome {
    /// Fraction of trials with full capability at end of mission.
    pub full_capability_probability: f64,
    /// Mean fraction of the mission spent at full capability.
    pub mean_full_capability_time: f64,
    /// Mean usable nodes at end of mission (capped at `required`).
    pub mean_final_capacity: f64,
}

/// Runs the Monte-Carlo mission simulation.
///
/// Each powered node draws an exponential remaining life; on failure a
/// spare (if any) is promoted. Under cold sparing, dormant units consume
/// life at `dormant_aging` of the powered rate until promoted.
///
/// Trials are partitioned into fixed-size blocks whose RNG streams derive
/// only from `(seed, block index)` and run in parallel on the workspace
/// executor — the outcome is bit-identical at every thread count.
///
/// Every invalid parameter is reported in one combined error before any
/// trial runs.
///
/// # Errors
///
/// Returns a structured error if `required` is zero or exceeds `nodes`,
/// `duration` is not positive and finite, the cold-sparing dormant-aging
/// rate is outside `[0, 1]`, or `trials` is zero.
pub fn try_simulate(
    config: MissionConfig,
    trials: u32,
    seed: u64,
) -> Result<MissionOutcome, SudcError> {
    let mut d = Diagnostics::new("mission simulation");
    if d.positive_count("config.required", u64::from(config.required)) {
        d.ensure(
            config.required <= config.nodes,
            "config.required",
            config.required,
            format_args!(
                "at most nodes = {} (cannot require {} of {} nodes)",
                config.nodes, config.required, config.nodes
            ),
        );
    }
    d.positive("config.duration", config.duration);
    d.positive_count("trials", u64::from(trials));
    let dormant_aging = match config.policy {
        SparingPolicy::Hot => 1.0,
        SparingPolicy::Cold { dormant_aging } => {
            d.ensure(
                dormant_aging.is_finite() && (0.0..=1.0).contains(&dormant_aging),
                "config.policy.dormant_aging",
                dormant_aging,
                "the dormant aging rate must be in [0, 1]",
            );
            dormant_aging
        }
    };
    d.finish()?;

    let blocks = block_sizes(trials);
    // Per-block partials in parallel, then a serial fold in block order:
    // float addition is not associative, so the summation tree must not
    // depend on the thread count.
    let partials = sudc_par::par_map_min_chunk(&blocks, MIN_BLOCKS_PER_THREAD, |block, &size| {
        let mut rng = Rng64::stream(seed, block as u64);
        simulate_block(config, dormant_aging, size, &mut rng)
    });
    let (full_at_end, full_time_sum, final_capacity_sum) =
        partials.into_iter().fold((0u64, 0.0f64, 0.0f64), |a, b| {
            (a.0 + b.0, a.1 + b.1, a.2 + b.2)
        });

    Ok(MissionOutcome {
        full_capability_probability: full_at_end as f64 / f64::from(trials),
        mean_full_capability_time: full_time_sum / f64::from(trials),
        mean_final_capacity: final_capacity_sum / f64::from(trials),
    })
}

/// Simulates one block of trials, returning
/// `(trials at full capability, Σ full-capability fraction, Σ final capacity)`.
fn simulate_block(
    config: MissionConfig,
    dormant_aging: f64,
    trials: u32,
    rng: &mut Rng64,
) -> (u64, f64, f64) {
    let mut full_at_end = 0u64;
    let mut full_time_sum = 0.0;
    let mut final_capacity_sum = 0.0;

    for _ in 0..trials {
        // Each node's total life budget, in powered-time units.
        let mut life: Vec<f64> = (0..config.nodes).map(|_| rng.next_exp()).collect();
        // First `required` start powered, the rest dormant.
        let mut powered: Vec<usize> = (0..config.required as usize).collect();
        let mut dormant: Vec<usize> = (config.required as usize..config.nodes as usize).collect();
        let mut t = 0.0;
        let mut full_until = config.duration;

        loop {
            // Time until the next powered-node failure.
            let next = powered
                .iter()
                .map(|&i| life[i])
                .fold(f64::INFINITY, f64::min);
            if t + next >= config.duration {
                // Survives at full capability to end of mission.
                for &i in &powered {
                    life[i] -= config.duration - t;
                }
                break;
            }
            t += next;
            // Age everyone.
            for &i in &powered {
                life[i] -= next;
            }
            for &i in &dormant {
                life[i] -= next * dormant_aging;
            }
            // Remove failed powered nodes and any dormant that died in storage.
            powered.retain(|&i| life[i] > 1e-12);
            dormant.retain(|&i| life[i] > 1e-12);
            // Promote spares.
            while (powered.len() as u32) < config.required {
                match dormant.pop() {
                    Some(i) => powered.push(i),
                    None => break,
                }
            }
            if (powered.len() as u32) < config.required {
                full_until = t;
                break;
            }
        }

        if full_until >= config.duration {
            full_at_end += 1;
        }
        full_time_sum += full_until.min(config.duration) / config.duration;
        final_capacity_sum += powered.len().min(config.required as usize) as f64;
    }

    (full_at_end, full_time_sum, final_capacity_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::{NodePool, DEFAULT_MC_SEED};

    fn config(nodes: u32, policy: SparingPolicy) -> MissionConfig {
        MissionConfig {
            nodes,
            required: 10,
            duration: 0.5,
            policy,
        }
    }

    #[test]
    fn hot_sparing_matches_the_analytic_binomial_model() {
        let outcome =
            try_simulate(config(20, SparingPolicy::Hot), 40_000, DEFAULT_MC_SEED).unwrap();
        let analytic = NodePool::try_new(20, 10)
            .unwrap()
            .try_availability(0.5)
            .unwrap();
        assert!(
            (outcome.full_capability_probability - analytic).abs() < 0.02,
            "MC {} vs analytic {analytic}",
            outcome.full_capability_probability
        );
    }

    #[test]
    fn cold_sparing_beats_hot_sparing() {
        // The paper's powered-off spares age less -> higher availability.
        let hot = try_simulate(config(20, SparingPolicy::Hot), 30_000, DEFAULT_MC_SEED).unwrap();
        let cold = try_simulate(
            config(20, SparingPolicy::Cold { dormant_aging: 0.1 }),
            30_000,
            DEFAULT_MC_SEED,
        )
        .unwrap();
        assert!(
            cold.full_capability_probability > hot.full_capability_probability + 0.02,
            "cold {} vs hot {}",
            cold.full_capability_probability,
            hot.full_capability_probability
        );
    }

    #[test]
    fn no_aging_spares_are_an_upper_bound() {
        let some_aging = try_simulate(
            config(20, SparingPolicy::Cold { dormant_aging: 0.3 }),
            30_000,
            DEFAULT_MC_SEED,
        )
        .unwrap();
        let no_aging = try_simulate(
            config(20, SparingPolicy::Cold { dormant_aging: 0.0 }),
            30_000,
            DEFAULT_MC_SEED,
        )
        .unwrap();
        assert!(
            no_aging.full_capability_probability >= some_aging.full_capability_probability - 0.01
        );
    }

    #[test]
    fn more_spares_always_help() {
        let small = try_simulate(config(12, SparingPolicy::Hot), 30_000, DEFAULT_MC_SEED).unwrap();
        let large = try_simulate(config(30, SparingPolicy::Hot), 30_000, DEFAULT_MC_SEED).unwrap();
        assert!(large.full_capability_probability > small.full_capability_probability);
        assert!(large.mean_final_capacity >= small.mean_final_capacity);
    }

    #[test]
    fn outcomes_are_probabilities() {
        let o = try_simulate(config(15, SparingPolicy::Hot), 5_000, DEFAULT_MC_SEED).unwrap();
        assert!((0.0..=1.0).contains(&o.full_capability_probability));
        assert!((0.0..=1.0).contains(&o.mean_full_capability_time));
        assert!(o.mean_final_capacity <= 10.0);
    }

    #[test]
    fn outcome_is_bit_identical_at_every_thread_count() {
        let reference = try_simulate(config(20, SparingPolicy::Hot), 8_000, 3).unwrap();
        for workers in [1usize, 2, 5, 8] {
            sudc_par::set_threads(workers);
            let got = try_simulate(config(20, SparingPolicy::Hot), 8_000, 3).unwrap();
            sudc_par::set_threads(0);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn invalid_dormant_aging_is_rejected() {
        let err = try_simulate(
            config(15, SparingPolicy::Cold { dormant_aging: 2.0 }),
            10,
            DEFAULT_MC_SEED,
        )
        .unwrap_err();
        assert!(err.to_string().contains("dormant aging"), "{err}");
    }
}
